//! The four workloads. Each returns an [`Outcome`]: end-to-end metrics
//! from an untraced run, or per-layer metrics and the attribution table
//! from a traced one.

use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use walshcheck_circuit::ilang::parse_ilang;
use walshcheck_core::{CheckMode, EngineKind, EnginePhase, Outcome as Verdict, Session};

use crate::check::{run_check, CheckOutput, CheckSpec};
use crate::daemon::{closed_loop, dir_bytes, Daemon, LoopResult};
use crate::gen::{catalogue_cases, mix_pass, JobStream};
use crate::hostspeed::{self, Reference, Sample};
use crate::known::{Case, Inputs, CATALOGUE, TABLE_I};
use crate::process::{run_check_process, ProcessCheck};
use crate::report::{Outcome, Row};
use crate::stats::{median, tail};
use crate::sys;
use crate::trace::{by_name, Span, Tracer};

/// The workloads, by BENCHMARK.json name.
pub const WORKLOADS: [&str; 4] = ["dom4-t1", "keccak3-t2", "corpus-mix", "daemon-mixed"];

/// Settings of one run.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// Workload name.
    pub workload: String,
    /// Seed of the generated streams.
    pub seed: u64,
    /// Measurement budget, seconds.
    pub seconds: f64,
    /// Traced (per-layer) run instead of the end-to-end one.
    pub trace: bool,
    /// Tiny inputs (dom-2 for dom-4, a handful of daemon jobs), for tests.
    pub smoke: bool,
    /// The `walshcheck` binary.
    pub walshcheck: PathBuf,
    /// Directory for generated inputs, daemon stores and span files.
    pub work: PathBuf,
    /// The repository checkout (corpus files are read from it).
    pub root: PathBuf,
}

/// The exact `walshcheck check` flags a process workload passes, and the
/// Table I row it checks.
pub fn process_flags(ctx: &Ctx) -> Option<(Case, Vec<String>, usize)> {
    let (row, threads) = match (ctx.workload.as_str(), ctx.smoke) {
        ("dom4-t1", false) => (TABLE_I[0], 1),
        ("keccak3-t2", false) => (TABLE_I[1], 2),
        ("dom4-t1", true) => (TABLE_I[2], 1),
        ("keccak3-t2", true) => (TABLE_I[3], 2),
        _ => return None,
    };
    let flags = [
        "--property",
        row.property.kind(),
        "--order",
        &row.property.order().to_string(),
        "--engine",
        "mapi",
        "--mode",
        "rowwise",
        "--no-prefilter",
        "--threads",
        &threads.to_string(),
    ]
    .map(str::to_owned)
    .to_vec();
    Some((row, flags, threads))
}

/// The inputs `ctx`'s workload reads, loaded.
///
/// # Errors
///
/// See [`Inputs::load`].
pub fn load_inputs(ctx: &Ctx) -> Result<Inputs, String> {
    let names: Vec<&'static str> = match process_flags(ctx) {
        Some((row, _, _)) => vec![row.input],
        None => catalogue_cases(ctx.smoke)
            .into_iter()
            .map(|i| CATALOGUE[i].input)
            .collect(),
    };
    Inputs::load(&ctx.root, &names)
}

/// Runs `ctx`'s workload.
///
/// # Errors
///
/// Fails when the workload cannot run at all (unknown name, a daemon that
/// never becomes healthy, unwritable work directory). Wrong answers are
/// not errors: they are counted in the outcome.
pub fn run(ctx: &Ctx, inputs: &Inputs) -> Result<Outcome, String> {
    std::fs::create_dir_all(&ctx.work).map_err(|e| format!("work directory: {e}"))?;
    match ctx.workload.as_str() {
        "dom4-t1" | "keccak3-t2" => process_workload(ctx, inputs),
        "corpus-mix" => corpus_mix(ctx, inputs),
        "daemon-mixed" => daemon_mixed(ctx, inputs),
        other => Err(format!(
            "unknown workload {other:?} (one of {})",
            WORKLOADS.join(", ")
        )),
    }
}

/// Timed chunks of `parse_ilang` + `Session::new` in one `setup_s` burst.
const SETUP_CHUNKS: usize = 40;

/// Seconds of setup work one chunk aims at.
const SETUP_CHUNK_S: f64 = 0.004;

/// Appends [`SETUP_CHUNKS`] samples of `parse_ilang` + `Session::new` of
/// `text` to `samples`, in seconds per setup at the reference speed. Each
/// chunk repeats the setup for about [`SETUP_CHUNK_S`] between two single
/// runs of the reference task, so the scale is measured at the same moment
/// as the setup. The process workloads take one burst before each check
/// and one after the last, so `setup_s` is a median over the whole run
/// rather than over its first moments.
fn setup_burst(samples: &mut Vec<f64>, text: &str, reference: &mut Reference) {
    let setup = || {
        let netlist = parse_ilang(black_box(text)).expect("inputs were parsed once already");
        black_box(Session::new(&netlist).expect("inputs were validated once already"));
    };
    let t = Instant::now();
    setup();
    let reps = ((SETUP_CHUNK_S / t.elapsed().as_secs_f64()) as usize).clamp(1, 1000);
    let mut before = reference.once();
    for _ in 0..SETUP_CHUNKS {
        let t = Instant::now();
        for _ in 0..reps {
            setup();
        }
        let per_setup = t.elapsed().as_secs_f64() / reps as f64;
        let after = reference.once();
        samples.push(per_setup * hostspeed::scale(before, after));
        before = after;
    }
}

/// Reports the reference task's seconds over a run: their median, and how
/// far the host's speed moved; `scaled` says which figures were scaled.
fn host_note(out: &mut Outcome, samples: &[Sample], scaled: &str) {
    let reference_s: Vec<f64> = samples.iter().map(|s| s.wall_s).collect();
    let (lo, hi) = reference_s
        .iter()
        .fold((f64::INFINITY, 0.0f64), |(lo, hi), &r| {
            (lo.min(r), hi.max(r))
        });
    out.metric(
        "host.reference_s",
        median(&reference_s).expect("the reference task ran"),
        "s",
    );
    out.note(format!(
        "{scaled} scaled to the reference speed ({} s a reference run); \
         {} samples of the host ranged {lo:.6}..{hi:.6} s",
        hostspeed::REFERENCE_S,
        reference_s.len()
    ));
}

fn note_tail(out: &mut Outcome, name: &str, samples: &[f64]) {
    match tail(samples) {
        Some((p, v)) => {
            out.metric(name, v, "s");
            out.note(format!("{name} is p{p} of {} samples", samples.len()));
        }
        None => out.note(format!(
            "{name}: n/a ({} samples, fewer than 20)",
            samples.len()
        )),
    }
}

// ---------------------------------------------------------------------
// dom4-t1 / keccak3-t2: one `walshcheck check` process per check.

/// Checks one process run against the known answer.
pub fn judge_process(row: &Case, p: &ProcessCheck) -> Result<(), String> {
    let code = p.code.ok_or("walshcheck was killed by a signal")?;
    if code != row.expect.exit_code() {
        return Err(format!(
            "{}: exit code {code}, expected {}; stderr: {}",
            row.label(),
            row.expect.exit_code(),
            p.stderr.trim()
        ));
    }
    let outcome = p
        .str_at(&["outcome"])
        .ok_or("no JSON run report on stdout")?;
    let witness = !matches!(
        p.report.as_ref().and_then(|r| r.get("witness")),
        None | Some(walshcheck_core::json::Json::Null)
    );
    row.expect
        .judge(outcome, witness)
        .map_err(|e| format!("{}: {e}", row.label()))?;
    p.str_at(&["report_hash"])
        .ok_or("run report lacks report_hash")?;
    Ok(())
}

fn process_workload(ctx: &Ctx, inputs: &Inputs) -> Result<Outcome, String> {
    let (row, flags, threads) = process_flags(ctx).expect("a process workload");
    let text = inputs.text(row.input);
    let input = ctx.work.join(format!("{}.il", row.input));
    std::fs::write(&input, text).map_err(|e| format!("writing {}: {e}", input.display()))?;
    let outputs_dir = ctx.work.join(&ctx.workload);
    std::fs::create_dir_all(&outputs_dir).map_err(|e| format!("{}: {e}", outputs_dir.display()))?;
    let mut reference = Reference::new();
    let spawn = |flags: &[String], reference: &mut Reference, before: Sample| {
        run_check_process(
            &ctx.walshcheck,
            &input,
            flags,
            &outputs_dir,
            reference,
            before,
        )
        .map_err(|e| format!("running walshcheck: {e}"))
    };

    let mut out = Outcome::default();
    let mut hashes: Vec<String> = Vec::new();
    let record = |out: &mut Outcome, hashes: &mut Vec<String>, p: &ProcessCheck| {
        out.check(judge_process(&row, p));
        if let Some(h) = p.str_at(&["report_hash"]) {
            hashes.push(h.to_owned());
        }
    };

    if !ctx.trace {
        // At least two checks; no check is started that would end past the
        // run's seconds if it took as long as the slowest one so far. The
        // checks' seconds are scaled to the reference speed (see `process`),
        // and so are the setup bursts' (see `setup_burst`).
        let start = Instant::now();
        let (mut runs, mut setup, mut slowest) = (Vec::<ProcessCheck>::new(), Vec::new(), 0.0f64);
        let mut reference_s = Vec::new();
        loop {
            setup_burst(&mut setup, text, &mut reference);
            if runs.len() >= 2 && start.elapsed().as_secs_f64() + slowest > ctx.seconds {
                break;
            }
            let before = reference.sample();
            let p = spawn(&flags, &mut reference, before)?;
            record(&mut out, &mut hashes, &p);
            slowest = slowest.max(p.wall_s + p.paused_s);
            reference_s.extend_from_slice(&p.reference_s);
            runs.push(p);
        }
        out.metric("setup_s", median(&setup).expect("setup bursts ran"), "s");
        let walls: Vec<f64> = runs.iter().map(|p| p.scaled_wall_s).collect();
        let cpus: Vec<f64> = runs.iter().map(ProcessCheck::scaled_cpu_s).collect();
        let rss: Vec<f64> = runs.iter().map(|p| p.usage.max_rss_mb).collect();
        let verdict = median(&walls).expect("at least one run");
        out.metric("verdict_s", verdict, "s");
        out.metric(
            "checks_per_s",
            runs.len() as f64 / walls.iter().sum::<f64>(),
            "1/s",
        );
        out.metric("cpu_s", median(&cpus).expect("runs"), "s");
        out.metric("peak_rss_mb", median(&rss).expect("runs"), "MiB");
        let unscaled: Vec<f64> = runs.iter().map(|p| p.wall_s).collect();
        out.metric("verdict_unscaled_s", median(&unscaled).expect("runs"), "s");
        host_note(&mut out, &reference_s, "check, setup and CPU seconds");
        let overhead: Vec<f64> = runs
            .iter()
            .filter_map(|p| Some(p.wall_s + p.paused_s - p.num_at(&["stats", "total_seconds"])?))
            .collect();
        if let Some(v) = median(&overhead) {
            out.metric("process.overhead_s", v, "s");
        }
        out.note(format!(
            "{} checks; cpu_s/verdict_s = {:.3} at --threads {threads}",
            runs.len(),
            median(&cpus).expect("runs") / verdict
        ));
        note_tail(&mut out, "verdict_tail_s", &walls);
        if let Some(c) = runs[0].num_at(&["stats", "combinations"]) {
            out.note(format!("sweep.combinations = {c}"));
        }
    } else {
        // The same check in process, untraced and traced in the order
        // U T T U, so that a steady drift of the host's speed cancels out
        // of trace.overhead_frac; keccak-3 then also runs as a one-thread
        // process, whose report_hash must match the two-thread one.
        let epoch = Instant::now();
        let mut off = Tracer::new(false, epoch);
        let mut tracer = Tracer::new(true, epoch);
        let spec = CheckSpec {
            property: row.property,
            engine: EngineKind::Mapi,
            mode: CheckMode::RowWise,
            glitch: row.glitch,
            threads,
            prefilter: false,
        };
        let (mut checks, mut base_s, mut traced_s) = (Vec::new(), 0.0, 0.0);
        for (group, traced) in [false, true, true, false].into_iter().enumerate() {
            let t = if traced { &mut tracer } else { &mut off };
            match run_check(text, &spec, group as u64, t) {
                Ok(c) => {
                    out.check(judge_check(&row, &c));
                    hashes.push(c.report_hash.clone());
                    if traced {
                        traced_s += c.seconds;
                        checks.push(c);
                    } else {
                        base_s += c.seconds;
                    }
                }
                Err(e) => out.check(Err(e)),
            }
        }
        if threads > 1 {
            let mut t1 = flags.clone();
            *t1.last_mut().expect("flags end with the thread count") = "1".into();
            let before = reference.sample();
            let p = spawn(&t1, &mut reference, before)?;
            record(&mut out, &mut hashes, &p);
        }
        layer_metrics(&mut out, &checks, tracer.spans(), text.len() * checks.len());
        let traced_s = traced_s - span_seconds(tracer.spans(), "layer.probes");
        out.metric("trace.overhead_frac", traced_s / base_s - 1.0, "ratio");
        out.note(format!(
            "trace.overhead_frac: traced {traced_s:.3} s (probes excluded) vs untraced \
             {base_s:.3} s, two checks each"
        ));
        write_spans(ctx, &tracer, &mut out);
    }
    if hashes.windows(2).any(|w| w[0] != w[1]) {
        out.fail(format!(
            "{}: report_hash differs between runs: {:?}",
            row.label(),
            hashes
        ));
    }
    out.note(format!(
        "input {} sha256 {}",
        row.input,
        walshcheck_core::hash::sha256_hex(text.as_bytes())
    ));
    Ok(out)
}

/// Summed duration of the spans called `name`.
fn span_seconds(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::duration)
        .sum()
}

fn write_spans(ctx: &Ctx, tracer: &Tracer, out: &mut Outcome) {
    let path = ctx
        .work
        .join(format!("{}-seed{}-spans.jsonl", ctx.workload, ctx.seed));
    match tracer.write_jsonl(&path) {
        Ok(()) => out.note(format!("spans written to {}", path.display())),
        Err(e) => out.note(format!("spans not written: {e}")),
    }
}

// ---------------------------------------------------------------------
// Per-layer metrics of traced in-process checks.

/// Checks an in-process check against the known answer.
pub fn judge_check(case: &Case, c: &CheckOutput) -> Result<(), String> {
    let outcome = match c.outcome {
        Verdict::Secure => "secure",
        Verdict::Violated => "violated",
        Verdict::Inconclusive(_) => "inconclusive",
    };
    case.expect
        .judge(outcome, c.witness)
        .and_then(|()| {
            if c.report_outcome == outcome {
                Ok(())
            } else {
                Err(format!("run report says {:?}", c.report_outcome))
            }
        })
        .map_err(|e| format!("{}: {e}", case.label()))
}

/// Fills the per-layer metrics (per traced check) and the attribution
/// table from traced `checks` and their `spans`; `parsed_bytes` is the
/// ILANG text the traced checks parsed.
pub fn layer_metrics(
    out: &mut Outcome,
    checks: &[CheckOutput],
    spans: &[Span],
    parsed_bytes: usize,
) {
    let n = checks.len().max(1) as f64;
    let layers = by_name(spans);
    let total = |name: &str| layers.get(name).map_or(0.0, |l| l.1);
    let sum = |f: &dyn Fn(&CheckOutput) -> f64| checks.iter().map(f).sum::<f64>();
    let secs = |d: Duration| d.as_secs_f64();

    let parse_s = total("circuit.parse");
    out.metric("circuit.parse_s", parse_s / n, "s");
    out.metric(
        "circuit.parse_mb_per_s",
        ratio(parsed_bytes as f64 / (1024.0 * 1024.0), parse_s),
        "MiB/s",
    );
    out.metric("circuit.unfold_s", total("circuit.unfold") / n, "s");
    out.metric("session.new_s", total("session.new") / n, "s");
    out.metric("sites.extract_s", total("sites.extract") / n, "s");
    out.metric(
        "sites.count",
        sum(&|c| c.observed.sites as f64) / n,
        "count",
    );
    out.metric("dd.wht_s", total("dd.wht") / n, "s");
    let dd_hits = sum(&|c| c.stats.dd_cache_hits as f64);
    let dd_misses = sum(&|c| c.stats.dd_cache_misses as f64);
    out.metric("dd.memo_hits", dd_hits / n, "count");
    out.metric("dd.memo_misses", dd_misses / n, "count");
    out.metric(
        "dd.memo_hit_ratio",
        ratio(dd_hits, dd_hits + dd_misses),
        "ratio",
    );
    out.metric(
        "dd.memo_peak_kb",
        sum(&|c| c.stats.dd_cache_peak_bytes as f64) / 1024.0 / n,
        "KiB",
    );
    let conv_s = sum(&|c| secs(c.stats.convolution_time));
    let convs = sum(&|c| c.stats.convolutions as f64);
    out.metric("spectrum.convolution_s", conv_s / n, "s");
    out.metric("spectrum.convolutions", convs / n, "count");
    out.metric("spectrum.convolutions_per_s", ratio(convs, conv_s), "1/s");
    let hits = sum(&|c| c.stats.cache_hits as f64);
    let misses = sum(&|c| c.stats.cache_misses as f64);
    out.metric("pcache.hits", hits / n, "count");
    out.metric("pcache.misses", misses / n, "count");
    out.metric(
        "pcache.evictions",
        sum(&|c| c.stats.cache_evictions as f64) / n,
        "count",
    );
    out.metric("pcache.hit_ratio", ratio(hits, hits + misses), "ratio");
    out.metric(
        "pcache.peak_mb",
        sum(&|c| c.stats.cache_peak_bytes as f64) / (1024.0 * 1024.0) / n,
        "MiB",
    );
    let verify_s = sum(&|c| secs(c.stats.verification_time));
    let rows = sum(&|c| c.stats.rows_checked as f64);
    out.metric("verify.verification_s", verify_s / n, "s");
    out.metric("verify.rows_checked", rows / n, "count");
    out.metric("verify.rows_per_s", ratio(rows, verify_s), "1/s");
    let run_s = total("session.run");
    let combinations = sum(&|c| c.stats.combinations as f64);
    out.metric("sweep.run_s", run_s / n, "s");
    out.metric("sweep.combinations", combinations / n, "count");
    out.metric(
        "sweep.combinations_per_s",
        ratio(combinations, run_s),
        "1/s",
    );
    // Worker-seconds of the enumeration: wall times the thread count.
    let worker_s = sum(&|c| secs(c.observed.phase(EnginePhase::Enumerate)) * c.threads as f64);
    let unattributed = worker_s - conv_s - verify_s;
    out.metric("sweep.unattributed_s", unattributed / n, "s");
    out.metric(
        "scheduler.batches",
        sum(&|c| c.observed.batches as f64) / n,
        "count",
    );
    out.metric(
        "scheduler.worker_busy_frac",
        ratio(sum(&|c| secs(c.observed.busy)), worker_s),
        "ratio",
    );
    out.metric(
        "scheduler.worker_failures",
        sum(&|c| c.stats.worker_failures as f64) / n,
        "count",
    );
    out.metric(
        "scheduler.skipped",
        sum(&|c| c.stats.skipped as f64) / n,
        "count",
    );
    out.metric("report.serialize_s", total("report.serialize") / n, "s");
    out.metric("job.sha256_s", total("job.sha256") / n, "s");
    out.metric("trace.checks", checks.len() as f64, "count");
    for name in [
        "daemon.dedup_hits",
        "daemon.http_5xx",
        "daemon.http_503",
        "daemon.retries",
    ] {
        if out.value(name).is_none() {
            out.metric(name, 0.0, "count");
        }
    }

    let span_total: f64 = layers.values().map(|l| l.2).sum();
    let mut rows: Vec<Row> = layers
        .iter()
        .map(|(name, l)| Row {
            layer: (*name).to_owned(),
            seconds: l.2,
            share: ratio(l.2, span_total),
            basis: "traced span time",
        })
        .collect();
    rows.sort_by(|a, b| b.seconds.total_cmp(&a.seconds));
    for (layer, seconds) in [
        ("spectrum.convolution", conv_s),
        ("verify.verification", verify_s),
        ("sweep.unattributed", unattributed),
    ] {
        rows.push(Row {
            layer: layer.into(),
            seconds,
            share: ratio(seconds, worker_s),
            basis: "sweep worker-seconds",
        });
    }
    out.attribution = rows;
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

// ---------------------------------------------------------------------
// corpus-mix: in-process checks of the whole catalogue, single thread.

/// Runs pass `pass` of the mix, handing each output to `keep`; with a
/// `deadline`, stops there (after at least one check). Returns whether the
/// pass finished.
fn run_pass(
    ctx: &Ctx,
    inputs: &Inputs,
    out: &mut Outcome,
    tracer: &mut Tracer,
    pass: u64,
    deadline: Option<Instant>,
    keep: &mut dyn FnMut(CheckOutput),
) -> bool {
    let items = mix_pass(ctx.seed, pass, &catalogue_cases(ctx.smoke));
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 && deadline.is_some_and(|d| Instant::now() >= d) {
            return false;
        }
        let case = &CATALOGUE[item.case];
        let group = (pass << 32) + i as u64;
        match run_check(inputs.text(case.input), &item.spec(), group, tracer) {
            Ok(c) => {
                out.check(judge_check(case, &c));
                keep(c);
            }
            Err(e) => out.check(Err(format!("{}: {e}", case.label()))),
        }
    }
    true
}

/// Seconds of checks between two runs of the reference task.
const CHUNK_S: f64 = 0.5;

/// The untraced corpus-mix checks, timed in chunks of about [`CHUNK_S`]
/// with the reference task run between chunks: each chunk's seconds are
/// scaled by the host speed measured right before and right after it.
/// Only scaled figures are kept, so the harness's own memory grows by one
/// number per check.
struct Chunks {
    reference: Reference,
    /// Every reference sample, one more than the chunks closed.
    reference_s: Vec<Sample>,
    started: Instant,
    cpu_at_start: f64,
    /// The open chunk's checks: (pass, latency, setup), unscaled.
    open: Vec<(u64, f64, f64)>,
    /// Scaled latency of every check of a closed chunk.
    latencies: Vec<f64>,
    /// Scaled wall and CPU seconds of the closed chunks, and the wall
    /// seconds unscaled.
    wall_s: f64,
    cpu_s: f64,
    unscaled_wall_s: f64,
    /// Scaled setup seconds of the pass in progress, by pass.
    setup_of: std::collections::BTreeMap<u64, f64>,
    /// Setup seconds summed over each finished pass, scaled.
    pass_setups: Vec<f64>,
    /// Passes finished but not yet closed into `pass_setups`.
    finished: Vec<u64>,
}

impl Chunks {
    fn new() -> Chunks {
        let mut reference = Reference::new();
        let first = reference.sample();
        Chunks {
            reference,
            reference_s: vec![first],
            started: Instant::now(),
            cpu_at_start: sys::self_usage().cpu_s,
            open: Vec::new(),
            latencies: Vec::new(),
            wall_s: 0.0,
            cpu_s: 0.0,
            unscaled_wall_s: 0.0,
            setup_of: std::collections::BTreeMap::new(),
            pass_setups: Vec::new(),
            finished: Vec::new(),
        }
    }

    /// Records one check; closes the chunk once it has run [`CHUNK_S`].
    fn push(&mut self, pass: u64, seconds: f64, setup_seconds: f64) {
        self.open.push((pass, seconds, setup_seconds));
        if self.started.elapsed().as_secs_f64() >= CHUNK_S {
            self.close();
        }
    }

    /// Marks `pass` finished: its setup sum is final once its last chunk
    /// is closed.
    fn pass_finished(&mut self, pass: u64) {
        self.finished.push(pass);
        if self.open.is_empty() {
            self.settle_passes();
        }
    }

    /// Closes the open chunk, if it holds checks: runs the reference task
    /// and scales the chunk's figures.
    fn close(&mut self) {
        if self.open.is_empty() {
            return;
        }
        let wall = self.started.elapsed().as_secs_f64();
        let cpu = sys::self_usage().cpu_s - self.cpu_at_start;
        let before = *self.reference_s.last().expect("sampled at start");
        let after = self.reference.sample();
        self.reference_s.push(after);
        let (k, cpu_k) = hostspeed::scales(before, after);
        self.wall_s += wall * k;
        self.cpu_s += cpu * cpu_k;
        self.unscaled_wall_s += wall;
        for (pass, seconds, setup) in self.open.drain(..) {
            self.latencies.push(seconds * k);
            *self.setup_of.entry(pass).or_default() += setup * k;
        }
        self.settle_passes();
        self.started = Instant::now();
        self.cpu_at_start = sys::self_usage().cpu_s;
    }

    fn settle_passes(&mut self) {
        for pass in self.finished.drain(..) {
            if let Some(setup) = self.setup_of.remove(&pass) {
                self.pass_setups.push(setup);
            }
        }
    }
}

fn corpus_mix(ctx: &Ctx, inputs: &Inputs) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let cases = catalogue_cases(ctx.smoke);
    let parsed_per_pass: usize = crate::gen::cross(&cases)
        .iter()
        .map(|item| inputs.text(CATALOGUE[item.case].input).len())
        .sum();
    if !ctx.trace {
        let mut off = Tracer::new(false, Instant::now());
        let deadline = Instant::now() + Duration::from_secs_f64(ctx.seconds);
        let mut chunks = Chunks::new();
        let mut violated = 0usize;
        for pass in 0.. {
            let finished = run_pass(
                ctx,
                inputs,
                &mut out,
                &mut off,
                pass,
                (pass > 0).then_some(deadline),
                &mut |c| {
                    violated += usize::from(c.outcome == Verdict::Violated);
                    chunks.push(pass, c.seconds, c.setup_seconds);
                },
            );
            if finished {
                chunks.pass_finished(pass);
            }
            if !finished || Instant::now() >= deadline {
                break;
            }
        }
        chunks.close();
        let after = sys::self_usage();
        let latencies = &chunks.latencies;
        let n = latencies.len().max(1) as f64;
        let p50 = median(latencies).unwrap_or(0.0);
        out.metric("verdict_s", p50, "s");
        out.metric("check_p50_s", p50, "s");
        out.metric(
            "checks_per_s",
            latencies.len() as f64 / chunks.wall_s,
            "1/s",
        );
        out.metric("cpu_s", chunks.cpu_s / n, "s");
        out.metric("peak_rss_mb", after.max_rss_mb, "MiB");
        out.metric(
            "setup_s",
            median(&chunks.pass_setups).expect("pass 0 finished"),
            "s",
        );
        out.metric(
            "checks_per_unscaled_s",
            latencies.len() as f64 / chunks.unscaled_wall_s,
            "1/s",
        );
        host_note(
            &mut out,
            &chunks.reference_s,
            "check, setup and CPU seconds",
        );
        note_tail(&mut out, "check_tail_s", latencies);
        out.note(format!(
            "{} checks ({violated} violated) over {} catalogue cases x 4 engines x 2 modes",
            latencies.len(),
            cases.len()
        ));
    } else {
        // A warm-up pass, then pairs of untraced and traced passes in the
        // order U T, T U, ... (an even number of pairs), so that a steady
        // drift of the host's speed cancels out of trace.overhead_frac.
        let epoch = Instant::now();
        let mut off = Tracer::new(false, epoch);
        let mut tracer = Tracer::new(true, epoch);
        run_pass(ctx, inputs, &mut out, &mut off, 0, None, &mut drop);
        let (mut base_wall, mut traced_wall, mut outputs, mut passes) = (0.0, 0.0, Vec::new(), 0);
        while passes < 2 || passes % 2 == 1 || epoch.elapsed().as_secs_f64() < ctx.seconds {
            let order = if passes % 2 == 0 {
                [false, true]
            } else {
                [true, false]
            };
            for traced in order {
                let pass = 1 + 2 * passes + u64::from(traced);
                let t = Instant::now();
                if traced {
                    let keep = &mut |c| outputs.push(c);
                    run_pass(ctx, inputs, &mut out, &mut tracer, pass, None, keep);
                    traced_wall += t.elapsed().as_secs_f64();
                } else {
                    run_pass(ctx, inputs, &mut out, &mut off, pass, None, &mut drop);
                    base_wall += t.elapsed().as_secs_f64();
                }
            }
            passes += 1;
        }
        layer_metrics(
            &mut out,
            &outputs,
            tracer.spans(),
            parsed_per_pass * passes as usize,
        );
        let probes = span_seconds(tracer.spans(), "layer.probes");
        out.metric(
            "trace.overhead_frac",
            (traced_wall - probes) / base_wall - 1.0,
            "ratio",
        );
        write_spans(ctx, &tracer, &mut out);
    }
    Ok(out)
}

// ---------------------------------------------------------------------
// daemon-mixed: a live `walshcheck serve` and a closed loop of clients.

/// Daemon spawns timed for `setup_s`.
const DAEMON_SETUPS: usize = 5;

fn start_daemon(ctx: &Ctx, label: &str) -> Result<Daemon, String> {
    Daemon::start(&ctx.walshcheck, &ctx.work.join(label))
        .map_err(|e| format!("walshcheck serve: {e}"))
}

fn stop_daemon(daemon: Daemon, out: &mut Outcome) -> Option<sys::Exit> {
    match daemon.stop() {
        Ok(exit) => {
            if exit.code != Some(0) {
                out.fail(format!(
                    "walshcheck serve exited with {:?} on SIGTERM",
                    exit.code
                ));
            }
            Some(exit)
        }
        Err(e) => {
            out.fail(format!("stopping walshcheck serve: {e}"));
            None
        }
    }
}

fn daemon_mixed(ctx: &Ctx, inputs: &Inputs) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let cases = catalogue_cases(ctx.smoke);
    let max_jobs = if ctx.smoke { 8 } else { usize::MAX };
    let mut ready = Vec::new();
    for k in 0..DAEMON_SETUPS - 1 {
        let d = start_daemon(ctx, &format!("store-setup{k}"))?;
        ready.push(d.ready_s);
        stop_daemon(d, &mut out);
    }
    let daemon = start_daemon(ctx, "store")?;
    ready.push(daemon.ready_s);
    out.metric("setup_s", median(&ready).expect("setups ran"), "s");

    if !ctx.trace {
        let stream = JobStream::new(ctx.seed, &cases);
        let result = closed_loop(
            &daemon,
            stream,
            inputs,
            ctx.seconds,
            max_jobs,
            false,
            Instant::now(),
        );
        let store = daemon.store.clone();
        let exit = stop_daemon(daemon, &mut out);
        judge_loop(&mut out, &result);
        let done = result
            .records
            .iter()
            .filter(|r| r.failure.is_none())
            .count()
            .max(1) as f64;
        // Latencies and throughput are scaled to the reference speed slice
        // by slice (see `daemon::closed_loop`). cpu_s is the daemon's user
        // CPU, unscaled: scaled by the CPU clock it spread further (0.15
        // and 0.26 of the median in two sets of ten runs) than unscaled
        // (0.09 and 0.13). Its system CPU is mostly fsync and journal
        // work, which follows the state of the shared disk (it drifted
        // 0.003 → 0.009 s a job over five runs of the same code while user
        // CPU held within 5%); it is printed on its own.
        let fresh: Vec<f64> = latencies(&result, false);
        let dedup: Vec<f64> = latencies(&result, true);
        let p50 = median(&fresh).unwrap_or(0.0);
        out.metric("verdict_s", p50, "s");
        out.metric("job_p50_s", p50, "s");
        out.metric("checks_per_s", done / result.scaled_wall_s, "1/s");
        if let Some(exit) = exit {
            let user_s = exit.usage.cpu_s - exit.usage.system_s;
            out.metric("cpu_s", user_s / done, "s");
            out.metric("daemon.cpu_system_s", exit.usage.system_s / done, "s");
            out.metric("peak_rss_mb", exit.usage.max_rss_mb, "MiB");
        }
        let unscaled: Vec<f64> = result
            .records
            .iter()
            .filter(|r| r.failure.is_none() && !r.resubmit)
            .map(|r| r.latency_s)
            .collect();
        out.metric("verdict_unscaled_s", median(&unscaled).unwrap_or(0.0), "s");
        out.metric("dedup_p50_s", median(&dedup).unwrap_or(0.0), "s");
        host_note(&mut out, &result.reference_s, "job and throughput seconds");
        note_tail(&mut out, "job_tail_s", &fresh);
        daemon_notes(&mut out, &result, &store);
    } else {
        // Untraced half first (on the daemon already up), then a traced
        // half on a fresh daemon, then in-process reference runs of every
        // fresh job the traced half completed.
        let half = ctx.seconds / 2.0;
        let base = closed_loop(
            &daemon,
            JobStream::new(ctx.seed, &cases),
            inputs,
            half,
            max_jobs,
            false,
            Instant::now(),
        );
        stop_daemon(daemon, &mut out);
        judge_loop(&mut out, &base);
        let daemon = start_daemon(ctx, "store-traced")?;
        let epoch = Instant::now();
        let result = closed_loop(
            &daemon,
            JobStream::new(ctx.seed, &cases),
            inputs,
            half,
            max_jobs,
            true,
            epoch,
        );
        let store = daemon.store.clone();
        stop_daemon(daemon, &mut out);
        judge_loop(&mut out, &result);
        let mut tracer = Tracer::new(true, epoch);
        let mut checks = Vec::new();
        let mut parsed = 0;
        for (i, (job, daemon_hash)) in result.fresh.iter().enumerate() {
            let case = &CATALOGUE[job.item.case];
            match run_check(
                &job.text,
                &job.item.spec(),
                1_000_000 + i as u64,
                &mut tracer,
            ) {
                Ok(c) => {
                    let same = if c.report_hash == *daemon_hash {
                        judge_check(case, &c)
                    } else {
                        Err(format!(
                            "{}: daemon report_hash differs from the library's for the same job",
                            case.label()
                        ))
                    };
                    out.check(same);
                    parsed += job.text.len();
                    checks.push(c);
                }
                Err(e) => out.check(Err(e)),
            }
        }
        let rate = |r: &LoopResult| r.records.len() as f64 / r.wall_s;
        daemon_notes(&mut out, &result, &store);
        out.metric(
            "trace.overhead_frac",
            rate(&base) / rate(&result) - 1.0,
            "ratio",
        );
        if let Some(client) = result.tracer {
            tracer.absorb(client);
        }
        layer_metrics(&mut out, &checks, tracer.spans(), parsed);
        write_spans(ctx, &tracer, &mut out);
    }
    Ok(out)
}

/// Latencies of the completed fresh (or resubmitted) jobs, scaled to the
/// reference speed by the slice each ran in.
fn latencies(result: &LoopResult, resubmit: bool) -> Vec<f64> {
    let scales = result.scales();
    result
        .records
        .iter()
        .filter(|r| r.failure.is_none() && r.resubmit == resubmit)
        .map(|r| r.latency_s * scales[r.slice])
        .collect()
}

fn judge_loop(out: &mut Outcome, result: &LoopResult) {
    for r in &result.records {
        let verdict = match &r.failure {
            Some(e) => Err(format!("job at position {}: {e}", r.position)),
            None if r.resubmit && !r.cached => Err(format!(
                "resubmission at position {} was not served from the store",
                r.position
            )),
            None => Ok(()),
        };
        out.check(verdict);
    }
}

fn daemon_notes(out: &mut Outcome, result: &LoopResult, store: &Path) {
    let records = &result.records;
    let count =
        |f: &dyn Fn(&crate::daemon::JobRecord) -> u64| records.iter().map(f).sum::<u64>() as f64;
    out.metric("jobs_per_s", records.len() as f64 / result.wall_s, "1/s");
    out.metric(
        "daemon.dedup_hits",
        count(&|r| u64::from(r.cached)),
        "count",
    );
    out.metric("daemon.http_5xx", count(&|r| r.http_5xx), "count");
    out.metric("daemon.http_503", count(&|r| r.http_503), "count");
    out.metric("daemon.retries", count(&|r| r.retries), "count");
    out.metric(
        "daemon.store_mb",
        dir_bytes(store) as f64 / (1024.0 * 1024.0),
        "MiB",
    );
    let p50 = |f: &dyn Fn(&crate::daemon::JobRecord) -> Option<f64>| {
        median(&records.iter().filter_map(f).collect::<Vec<_>>()).unwrap_or(0.0)
    };
    out.metric("daemon.submit_s", p50(&|r| Some(r.submit_s)), "s");
    out.metric("daemon.status_s", p50(&|r| Some(r.status_s)), "s");
    out.metric("daemon.fetch_s", p50(&|r| Some(r.fetch_s)), "s");
    out.metric("daemon.queue_wait_s", p50(&|r| r.queue_wait_s), "s");
    out.metric("daemon.run_s", p50(&|r| r.run_s), "s");
    let fresh = records.iter().filter(|r| !r.resubmit).count();
    out.note(format!(
        "{} jobs: {fresh} fresh, {} resubmitted; closed loop, {} clients, {} runners",
        records.len(),
        records.len() - fresh,
        crate::daemon::CLIENTS,
        crate::daemon::RUNNERS
    ));
}
