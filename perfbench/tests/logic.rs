//! The benchmark's own logic: tail selection, failure counting, span
//! self time, and the determinism of the seeded streams.

use walshcheck_core::{CheckMode, EngineKind, Property};
use walshcheck_perfbench::check::{run_check, CheckSpec};
use walshcheck_perfbench::gen::{catalogue_cases, mix_pass, Job, JobStream};
use walshcheck_perfbench::known::{Expect, Inputs, CATALOGUE};
use walshcheck_perfbench::report::{Outcome, END_TO_END};
use walshcheck_perfbench::stats::tail;
use walshcheck_perfbench::trace::{by_name, self_times, Span, Tracer};
use walshcheck_perfbench::workloads::judge_check;

#[test]
fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
    // Fewer than 20 samples: not even the median has 10 beyond it.
    let few: Vec<f64> = (1..=19).map(f64::from).collect();
    assert_eq!(tail(&few), None);
    // 20 samples: the median (rank 10) has exactly 10 beyond.
    let twenty: Vec<f64> = (1..=20).map(f64::from).collect();
    assert_eq!(tail(&twenty), Some((50.0, 10.0)));
    // 100 samples: p90 (rank 90) has 10 beyond, p95 only 5.
    let hundred: Vec<f64> = (1..=100).rev().map(f64::from).collect();
    assert_eq!(tail(&hundred), Some((90.0, 90.0)));
    // 1000 samples: p99 (rank 990) has 10 beyond, p99.9 only 1.
    let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
    assert_eq!(tail(&thousand), Some((99.0, 990.0)));
    // 10000 samples reach p99.9.
    let many: Vec<f64> = (1..=10_000).map(f64::from).collect();
    assert_eq!(tail(&many), Some((99.9, 9990.0)));
}

fn flipped(expect: Expect) -> Expect {
    match expect {
        Expect::Secure => Expect::Violated,
        Expect::Violated => Expect::Secure,
    }
}

#[test]
fn a_wrong_expected_verdict_is_counted_as_a_failure() {
    let case = CATALOGUE
        .iter()
        .find(|c| c.input == "dom-1" && c.property == Property::Sni(1) && !c.glitch)
        .expect("dom-1 sni-1 is in the table");
    let inputs = Inputs::load(std::path::Path::new(".."), &[case.input]).expect("inputs");
    let spec = CheckSpec {
        property: case.property,
        engine: EngineKind::Mapi,
        mode: CheckMode::Joint,
        glitch: case.glitch,
        threads: 1,
        prefilter: true,
    };
    let mut off = Tracer::new(false, std::time::Instant::now());
    let output = run_check(inputs.text(case.input), &spec, 0, &mut off).expect("check runs");

    let mut right = Outcome::default();
    right.check(judge_check(case, &output));
    assert_eq!((right.attempted, right.failed), (1, 0));

    let mut wrong_case = *case;
    wrong_case.expect = flipped(case.expect);
    let mut wrong = Outcome::default();
    wrong.check(judge_check(case, &output));
    wrong.check(judge_check(&wrong_case, &output));
    assert_eq!((wrong.attempted, wrong.failed), (2, 1));
    for (name, unit) in END_TO_END {
        wrong.metric(name, 1.0, unit);
    }
    let line = wrong.result_line(&END_TO_END);
    assert!(
        line.starts_with("{\"correct\":false,\"attempted\":2,\"failed\":1,"),
        "{line}"
    );
    assert!(wrong.human("t").contains("failed_frac"));
}

#[test]
fn a_missing_metric_makes_the_result_incorrect() {
    let mut out = Outcome::default();
    out.check(Ok(()));
    assert!(out
        .result_line(&END_TO_END)
        .starts_with("{\"correct\":false"));
    for (name, unit) in END_TO_END {
        out.metric(name, 0.5, unit);
    }
    assert!(out
        .result_line(&END_TO_END)
        .starts_with("{\"correct\":true"));
}

fn span(name: &'static str, start: f64, end: f64, parent: Option<usize>) -> Span {
    Span {
        name,
        start,
        end,
        parent,
        group: 7,
    }
}

#[test]
fn self_time_subtracts_the_union_of_children() {
    let spans = vec![
        span("check", 0.0, 10.0, None),   // 0
        span("parse", 1.0, 3.0, Some(0)), // 1
        span("run", 2.0, 6.0, Some(0)),   // 2: overlaps parse by 1
        span("inner", 3.0, 4.0, Some(2)), // 3
        span("late", 9.0, 12.0, Some(0)), // 4: clipped to the parent at 10
    ];
    let own = self_times(&spans);
    // check: 10 - (union [1,6] = 5) - (clipped [9,10] = 1) = 4.
    assert_eq!(own, vec![4.0, 2.0, 3.0, 1.0, 3.0]);
    let layers = by_name(&spans);
    assert_eq!(layers["run"], (1, 4.0, 3.0));
}

#[test]
fn recorded_spans_nest_and_a_disabled_tracer_records_nothing() {
    let epoch = std::time::Instant::now();
    let mut t = Tracer::new(true, epoch);
    let outer = t.begin("outer", 1);
    t.time("inner", 1, || {
        std::thread::sleep(std::time::Duration::from_millis(2))
    });
    t.end(outer);
    let spans = t.spans();
    assert_eq!(spans.len(), 2);
    assert_eq!(spans[1].parent, Some(0));
    let own = self_times(spans);
    assert!(own[1] >= 0.002 && own[0] < spans[0].duration() - 0.002 + 1e-9);

    let mut off = Tracer::new(false, epoch);
    let open = off.begin("outer", 1);
    off.time("inner", 1, || ());
    off.end(open);
    assert!(off.spans().is_empty());
}

#[test]
fn streams_are_determined_by_the_seed() {
    let cases = catalogue_cases(false);
    assert_eq!(mix_pass(3, 0, &cases), mix_pass(3, 0, &cases));
    assert_ne!(mix_pass(3, 0, &cases), mix_pass(4, 0, &cases));
    // Every pass holds every (case, engine, mode) exactly once.
    let mut a = mix_pass(3, 1, &cases);
    let mut b = mix_pass(9, 5, &cases);
    let key = |i: &walshcheck_perfbench::gen::Item| (i.case, i.engine.as_str(), i.mode.as_str());
    a.sort_by_key(key);
    b.sort_by_key(key);
    assert_eq!(a, b);
    assert_eq!(a.len(), cases.len() * 8);

    let jobs: Vec<Job> = JobStream::new(11, &cases).take(400).collect();
    assert_eq!(
        jobs,
        JobStream::new(11, &cases).take(400).collect::<Vec<_>>()
    );
    let resubmits = jobs
        .iter()
        .enumerate()
        .filter(|(i, j)| match j {
            Job::Resubmit { of } => {
                assert!(of + 1 < *i, "resubmits an earlier position");
                true
            }
            Job::Fresh { .. } => false,
        })
        .count();
    assert!(
        (150..250).contains(&resubmits),
        "about half resubmit: {resubmits}"
    );
}

#[test]
fn benchmark_json_lists_exactly_the_reported_metrics() {
    let text = std::fs::read_to_string("../BENCHMARK.json").expect("BENCHMARK.json at the root");
    let doc = walshcheck_core::json::parse(&text).expect("valid JSON");
    let listed = |key: &str| -> Vec<(String, String)> {
        doc.get(key)
            .and_then(|v| v.as_arr())
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(|v| v.as_str()).expect("name and unit");
                (field("name").to_owned(), field("unit").to_owned())
            })
            .collect()
    };
    let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| ((*n).to_owned(), (*u).to_owned()))
            .collect()
    };
    assert_eq!(listed("end_to_end"), own(&END_TO_END));
    assert_eq!(
        listed("per_layer"),
        own(&walshcheck_perfbench::report::PER_LAYER)
    );
    let workloads: Vec<&str> = doc
        .get("workloads")
        .and_then(|v| v.as_arr())
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(|v| v.as_str()).expect("name"))
        .collect();
    assert_eq!(workloads, walshcheck_perfbench::workloads::WORKLOADS);
}

#[test]
fn host_speed_scaling_reads_reference_seconds() {
    use walshcheck_perfbench::hostspeed::{scale, Reference, REFERENCE_S};
    // Work between two samples at the reference speed is not rescaled;
    // on a host half as fast (every sample twice as long) it is halved.
    assert!((scale(REFERENCE_S, REFERENCE_S) - 1.0).abs() < 1e-12);
    assert!((scale(2.0 * REFERENCE_S, 2.0 * REFERENCE_S) - 0.5).abs() < 1e-12);
    // A speed change within the slice is taken as their mean.
    assert!((scale(REFERENCE_S, 3.0 * REFERENCE_S) - 0.5).abs() < 1e-12);
    let sample = Reference::new().sample();
    assert!(sample.wall_s > 0.0 && sample.wall_s < 1.0, "{sample:?}");
    assert!(
        sample.cpu_s > 0.0 && sample.cpu_s <= 1.01 * sample.wall_s,
        "{sample:?}"
    );
}
