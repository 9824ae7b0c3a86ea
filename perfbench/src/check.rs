//! One in-process check through walshcheck's public API, with a span
//! around each layer call: ILANG text → `parse_ilang` → `Session::new` →
//! `Session::run` → `run_report_json`, plus `netlist_sha256`. Traced runs
//! additionally call `unfold`, `extract_sites` and `walsh_sparse` on their
//! own (inside a `layer.probes` span) to time the layers `Session` runs
//! internally.

use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use walshcheck_circuit::glitch::ProbeModel;
use walshcheck_circuit::ilang::parse_ilang;
use walshcheck_circuit::unfold::unfold;
use walshcheck_core::json::{self, Json};
use walshcheck_core::sites::{extract_sites, SiteOptions};
use walshcheck_core::{
    netlist_sha256, run_report_json, CheckMode, CheckStats, EngineKind, EnginePhase, Outcome,
    ProgressObserver, Property, Session, VerifyOptions,
};
use walshcheck_dd::spectral::{walsh_sparse, SparseWalshCache};

use crate::trace::Tracer;

/// What to check, and how.
#[derive(Debug, Clone, Copy)]
pub struct CheckSpec {
    /// Property and order.
    pub property: Property,
    /// Engine.
    pub engine: EngineKind,
    /// Check mode.
    pub mode: CheckMode,
    /// Glitch-extended probing model.
    pub glitch: bool,
    /// Worker threads.
    pub threads: usize,
    /// Functional-support prefilter.
    pub prefilter: bool,
}

/// Counts a run reports through its [`ProgressObserver`] callbacks.
#[derive(Debug, Clone, Default)]
pub struct Observed {
    /// Engine phases in the order reported, with their (worker-summed for
    /// convolution and verification) durations.
    pub phases: Vec<(String, Duration)>,
    /// Batches claimed by workers.
    pub batches: u64,
    /// Summed `batch_claimed` → `batch_finished` time over all workers.
    pub busy: Duration,
    /// Probe sites the sweep ran over.
    pub sites: u64,
}

impl Observed {
    /// Duration of `phase`, zero when it was not reported.
    pub fn phase(&self, phase: EnginePhase) -> Duration {
        let name = phase.to_string();
        self.phases
            .iter()
            .filter(|(n, _)| *n == name)
            .map(|(_, d)| *d)
            .sum()
    }
}

#[derive(Debug, Default)]
struct CollectorState {
    observed: Observed,
    claimed: Vec<Option<Instant>>,
}

/// A [`ProgressObserver`] that gathers [`Observed`].
#[derive(Debug, Default)]
pub struct Collector(Mutex<CollectorState>);

impl Collector {
    fn state(&self) -> std::sync::MutexGuard<'_, CollectorState> {
        // The state is plain counters; a panicking callback leaves it usable.
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// What has been observed so far.
    pub fn observed(&self) -> Observed {
        self.state().observed.clone()
    }
}

impl ProgressObserver for Collector {
    fn run_started(&self, sites: usize, _total: u64, _buckets: &[(usize, u64)]) {
        self.state().observed.sites = sites as u64;
    }

    fn batch_claimed(&self, worker: usize, _k: usize, _first_index: u64, _len: usize) {
        let now = Instant::now();
        let mut s = self.state();
        if s.claimed.len() <= worker {
            s.claimed.resize(worker + 1, None);
        }
        s.claimed[worker] = Some(now);
        s.observed.batches += 1;
    }

    fn batch_finished(&self, worker: usize, _checked: u64, _pruned: u64) {
        let now = Instant::now();
        let mut s = self.state();
        if let Some(start) = s.claimed.get_mut(worker).and_then(Option::take) {
            s.observed.busy += now - start;
        }
    }

    fn phase_timing(&self, phase: EnginePhase, elapsed: Duration) {
        self.state()
            .observed
            .phases
            .push((phase.to_string(), elapsed));
    }
}

/// The result of one in-process check.
#[derive(Debug, Clone)]
pub struct CheckOutput {
    /// The verdict's outcome.
    pub outcome: Outcome,
    /// Whether the verdict carries a witness.
    pub witness: bool,
    /// The verdict's counters.
    pub stats: CheckStats,
    /// Observer-reported counts and phase times.
    pub observed: Observed,
    /// `report_hash` of the run report.
    pub report_hash: String,
    /// The outcome as the run report states it.
    pub report_outcome: String,
    /// Wall seconds from parse to the serialized report.
    pub seconds: f64,
    /// Wall seconds of `parse_ilang` plus `Session::new` alone.
    pub setup_seconds: f64,
    /// Worker threads the check ran with.
    pub threads: usize,
}

/// Runs `spec` on the ILANG `text`. Spans go to `tracer` under `group`;
/// when the tracer is enabled the layer probes run too.
///
/// # Errors
///
/// Returns a description when the text does not parse or the session
/// cannot be built, or when the report is malformed.
pub fn run_check(
    text: &str,
    spec: &CheckSpec,
    group: u64,
    tracer: &mut Tracer,
) -> Result<CheckOutput, String> {
    let started = Instant::now();
    let root = tracer.begin("check", group);
    let parse_start = Instant::now();
    let netlist = tracer
        .time("circuit.parse", group, || parse_ilang(text))
        .map_err(|e| format!("parse_ilang: {e}"))?;
    let mut setup = parse_start.elapsed();
    let model = if spec.glitch {
        ProbeModel::Glitch
    } else {
        ProbeModel::Standard
    };
    if tracer.enabled() {
        let probes = tracer.begin("layer.probes", group);
        let unfolded = tracer
            .time("circuit.unfold", group, || unfold(&netlist))
            .map_err(|e| format!("unfold: {e}"))?;
        let options = SiteOptions {
            probe_model: model,
            ..SiteOptions::default()
        };
        let sites = tracer
            .time("sites.extract", group, || {
                extract_sites(&netlist, &unfolded, &options)
            })
            .map_err(|e| format!("extract_sites: {e}"))?;
        tracer.time("dd.wht", group, || {
            let mut cache = SparseWalshCache::with_config(0, VerifyOptions::default().dense_cut);
            for f in sites.iter().flat_map(|s| &s.funcs) {
                std::hint::black_box(walsh_sparse(&unfolded.bdds, *f, &mut cache));
            }
        });
        tracer.end(probes);
    }
    let session_start = Instant::now();
    let session = tracer
        .time("session.new", group, || Session::new(&netlist))
        .map_err(|e| format!("Session::new: {e}"))?;
    setup += session_start.elapsed();
    let collector = Arc::new(Collector::default());
    let mut session = session
        .property(spec.property)
        .engine(spec.engine)
        .mode(spec.mode)
        .probe_model(model)
        .prefilter(spec.prefilter)
        .threads(spec.threads)
        .observer(collector.clone());
    let verdict = tracer.time("session.run", group, || session.run());
    let observed = collector.observed();
    let report = tracer.time("report.serialize", group, || {
        run_report_json(&netlist, &verdict, session.spec(), &observed.phases, false)
    });
    tracer.time("job.sha256", group, || {
        std::hint::black_box(netlist_sha256(&netlist))
    });
    tracer.end(root);
    let seconds = started.elapsed().as_secs_f64();

    let doc = json::parse(&report).map_err(|e| format!("run report: {e}"))?;
    let field = |key: &str| doc.get(key).and_then(Json::as_str).map(str::to_owned);
    Ok(CheckOutput {
        outcome: verdict.outcome,
        witness: verdict.witness.is_some(),
        stats: verdict.stats,
        observed,
        report_hash: field("report_hash").ok_or("run report lacks report_hash")?,
        report_outcome: field("outcome").ok_or("run report lacks outcome")?,
        seconds,
        setup_seconds: setup.as_secs_f64(),
        threads: spec.threads,
    })
}
