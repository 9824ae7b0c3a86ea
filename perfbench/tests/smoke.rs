//! Seconds-long runs of every workload at tiny size (dom-2 for dom-4,
//! keccak-1 for keccak-3, a two-input mix, eight daemon jobs), untraced and
//! traced. They need the `walshcheck` binary: `WALSHCHECK_BIN`, or one
//! built here from the repository.

use std::path::{Path, PathBuf};
use std::sync::OnceLock;

use walshcheck_perfbench::known::TABLE_I;
use walshcheck_perfbench::process::run_check_process;
use walshcheck_perfbench::report::{END_TO_END, PER_LAYER};
use walshcheck_perfbench::workloads::{self, judge_process, process_flags, Ctx};

fn walshcheck() -> &'static Path {
    static BIN: OnceLock<PathBuf> = OnceLock::new();
    BIN.get_or_init(|| {
        if let Some(bin) = std::env::var_os("WALSHCHECK_BIN") {
            return PathBuf::from(bin);
        }
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
        let target =
            std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| root.join("target"), PathBuf::from);
        let status = std::process::Command::new(env!("CARGO"))
            .args([
                "build",
                "--release",
                "--offline",
                "--quiet",
                "--bin",
                "walshcheck",
            ])
            .arg("--manifest-path")
            .arg(root.join("Cargo.toml"))
            .env("CARGO_TARGET_DIR", &target)
            .status()
            .expect("cargo runs");
        assert!(status.success(), "building walshcheck failed");
        target.join("release").join("walshcheck")
    })
}

fn ctx(workload: &str, trace: bool) -> Ctx {
    Ctx {
        workload: workload.into(),
        seed: 5,
        seconds: 1.0,
        trace,
        smoke: true,
        walshcheck: walshcheck().to_owned(),
        work: Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("smoke-{workload}-{trace}")),
        root: Path::new(env!("CARGO_MANIFEST_DIR")).join(".."),
    }
}

fn smoke(workload: &str) {
    for trace in [false, true] {
        let ctx = ctx(workload, trace);
        let inputs = workloads::load_inputs(&ctx).expect("inputs load");
        let out = workloads::run(&ctx, &inputs).expect("workload runs");
        assert!(out.correct(), "{}", out.human(workload));
        let wanted: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
        let line = out.result_line(wanted);
        assert!(line.starts_with("{\"correct\":true,"), "{line}");
        for (name, _) in wanted {
            assert!(line.contains(&format!("\"{name}\":")), "{name} missing");
        }
        if !trace {
            for (name, _) in END_TO_END {
                assert!(
                    out.value(name).is_some_and(|v| v > 0.0),
                    "{name} must be positive"
                );
            }
        }
    }
}

#[test]
fn dom4_t1_smoke() {
    smoke("dom4-t1");
}

#[test]
fn keccak3_t2_smoke() {
    smoke("keccak3-t2");
}

#[test]
fn corpus_mix_smoke() {
    smoke("corpus-mix");
}

#[test]
fn daemon_mixed_smoke() {
    smoke("daemon-mixed");
}

#[test]
fn a_wrong_expected_exit_code_fails_the_process_check() {
    let ctx = ctx("dom4-t1", false);
    let (row, flags, _) = process_flags(&ctx).expect("process workload");
    let inputs = workloads::load_inputs(&ctx).expect("inputs load");
    std::fs::create_dir_all(&ctx.work).expect("work dir");
    let input = ctx.work.join("judge.il");
    std::fs::write(&input, inputs.text(row.input)).expect("input written");
    let mut reference = walshcheck_perfbench::hostspeed::Reference::new();
    let before = reference.sample();
    let p = run_check_process(
        &ctx.walshcheck,
        &input,
        &flags,
        &ctx.work,
        &mut reference,
        before,
    )
    .expect("check runs");
    assert_eq!(judge_process(&row, &p), Ok(()));
    let mut wrong = TABLE_I[2];
    wrong.expect = walshcheck_perfbench::known::Expect::Violated;
    assert!(judge_process(&wrong, &p).is_err());
}
