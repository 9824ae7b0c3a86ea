//! What a run prints: provenance, every metric by name with its unit, the
//! traced attribution table, and the final result line.

use std::fmt::Write as _;

use walshcheck_core::json::Json;

/// The end-to-end metrics every untraced run reports (BENCHMARK.json
/// `end_to_end`), with units.
pub const END_TO_END: [(&str, &str); 5] = [
    ("verdict_s", "s"),
    ("checks_per_s", "1/s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("setup_s", "s"),
];

/// The per-layer metrics every traced run reports (BENCHMARK.json
/// `per_layer`), with units. Times and counts are per traced check.
pub const PER_LAYER: [(&str, &str); 38] = [
    ("circuit.parse_s", "s"),
    ("circuit.parse_mb_per_s", "MiB/s"),
    ("circuit.unfold_s", "s"),
    ("session.new_s", "s"),
    ("sites.extract_s", "s"),
    ("sites.count", "count"),
    ("dd.wht_s", "s"),
    ("dd.memo_hits", "count"),
    ("dd.memo_misses", "count"),
    ("dd.memo_hit_ratio", "ratio"),
    ("dd.memo_peak_kb", "KiB"),
    ("spectrum.convolution_s", "s"),
    ("spectrum.convolutions", "count"),
    ("spectrum.convolutions_per_s", "1/s"),
    ("pcache.hits", "count"),
    ("pcache.misses", "count"),
    ("pcache.evictions", "count"),
    ("pcache.hit_ratio", "ratio"),
    ("pcache.peak_mb", "MiB"),
    ("verify.verification_s", "s"),
    ("verify.rows_checked", "count"),
    ("verify.rows_per_s", "1/s"),
    ("sweep.run_s", "s"),
    ("sweep.combinations", "count"),
    ("sweep.combinations_per_s", "1/s"),
    ("sweep.unattributed_s", "s"),
    ("scheduler.batches", "count"),
    ("scheduler.worker_busy_frac", "ratio"),
    ("scheduler.worker_failures", "count"),
    ("scheduler.skipped", "count"),
    ("report.serialize_s", "s"),
    ("job.sha256_s", "s"),
    ("daemon.dedup_hits", "count"),
    ("daemon.http_5xx", "count"),
    ("daemon.http_503", "count"),
    ("daemon.retries", "count"),
    ("trace.checks", "count"),
    ("trace.overhead_frac", "ratio"),
];

/// One row of the traced attribution table.
#[derive(Debug, Clone)]
pub struct Row {
    /// Layer (span name, or a sweep phase).
    pub layer: String,
    /// Seconds attributed to it.
    pub seconds: f64,
    /// Its share of the basis.
    pub share: f64,
    /// What the share is of.
    pub basis: &'static str,
}

/// Everything one run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Checks (or jobs) whose output was checked.
    pub attempted: u64,
    /// Of those, wrong, missing, inconclusive or erroring.
    pub failed: u64,
    /// The first failure messages.
    pub failures: Vec<String>,
    /// Every metric measured: name → (value, unit), in insertion order.
    pub metrics: Vec<(String, f64, String)>,
    /// Extra lines for the human-readable report.
    pub notes: Vec<String>,
    /// Traced attribution rows.
    pub attribution: Vec<Row>,
}

impl Outcome {
    /// Records one checked output; `Err` counts it as failed.
    pub fn check(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.fail(e);
        }
    }

    /// Counts a failure that is not tied to one attempted output's
    /// verdict (e.g. a hash disagreement between two runs).
    pub fn fail(&mut self, message: String) {
        self.failed += 1;
        if self.failures.len() < 20 {
            self.failures.push(message);
        }
    }

    /// Records metric `name`.
    pub fn metric(&mut self, name: &str, value: f64, unit: &str) {
        self.metrics.retain(|(n, _, _)| n != name);
        self.metrics.push((name.to_owned(), value, unit.to_owned()));
    }

    /// The value of metric `name`.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, v, _)| *v)
    }

    /// Adds a line to the human-readable report.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Whether every output was correct.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The human-readable report: every metric with its unit, the failure
    /// fraction, the notes and the attribution table.
    pub fn human(&self, workload: &str) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "== {workload}");
        let frac = if self.attempted == 0 {
            1.0
        } else {
            self.failed as f64 / self.attempted as f64
        };
        let _ = writeln!(
            out,
            "  {:<30} {:>16} frac   ({} of {} attempted)",
            "failed_frac", frac, self.failed, self.attempted
        );
        for (name, value, unit) in &self.metrics {
            let _ = writeln!(out, "  {name:<30} {value:>16.6} {unit}");
        }
        for line in &self.notes {
            let _ = writeln!(out, "  {line}");
        }
        if !self.attribution.is_empty() {
            let _ = writeln!(out, "  -- attribution (self time per layer)");
            for r in &self.attribution {
                let _ = writeln!(
                    out,
                    "  {:<30} {:>12.6} s {:>7.2}% of {}",
                    r.layer,
                    r.seconds,
                    100.0 * r.share,
                    r.basis
                );
            }
        }
        for f in &self.failures {
            let _ = writeln!(out, "  FAILED: {f}");
        }
        out
    }

    /// The result line: `correct`, `attempted`, `failed` and exactly the
    /// metrics of `wanted`. A metric the run could not measure makes the
    /// run incorrect and is reported as 0.
    pub fn result_line(&self, wanted: &[(&str, &str)]) -> String {
        let mut correct = self.correct();
        let mut metrics = String::new();
        for (i, (name, unit)) in wanted.iter().enumerate() {
            let value = match self.value(name) {
                Some(v) if v.is_finite() => v,
                _ => {
                    correct = false;
                    0.0
                }
            };
            if i > 0 {
                metrics.push(',');
            }
            let _ = write!(
                metrics,
                "\"{name}\":{{\"value\":{:?},\"unit\":\"{unit}\"}}",
                value
            );
        }
        format!(
            "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{metrics}}}}}",
            self.attempted, self.failed
        )
    }
}

/// The provenance record printed with every result: what was measured,
/// with what, on what. `measures_sha256` hashes the fields that must match
/// for two results to be comparable (everything but the source identity).
pub fn provenance(fields: Vec<(&'static str, Json)>) -> Json {
    let mut map: std::collections::BTreeMap<String, Json> =
        fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect();
    let mut measured = map.clone();
    measured.remove("git_commit");
    measured.remove("source_sha256");
    let hash = walshcheck_core::hash::sha256_hex(Json::Obj(measured).to_canonical().as_bytes());
    map.insert("measures_sha256".into(), Json::str(hash));
    map.insert(
        "schema".into(),
        Json::str("walshcheck-perfbench-provenance/1"),
    );
    Json::Obj(map)
}
