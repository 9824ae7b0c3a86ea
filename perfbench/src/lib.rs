//! # walshcheck-perfbench — the walshcheck benchmark
//!
//! An outside harness around walshcheck's public surface: it generates the
//! inputs, runs the `walshcheck` CLI and daemon as child processes or the
//! library in process, checks every answer against a hand-written
//! known-answer table, and reports end-to-end metrics (untraced runs) or
//! per-layer metrics from spans around each layer call (traced runs).
//! `BENCHMARK.json` at the repository root names the workloads and
//! metrics; `perfbench/run.py` builds everything and runs one workload.

pub mod check;
pub mod daemon;
pub mod gen;
pub mod hostspeed;
pub mod known;
pub mod process;
pub mod report;
pub mod stats;
pub mod sys;
pub mod trace;
pub mod workloads;
