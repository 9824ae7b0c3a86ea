//! `perfbench --workload NAME --seed N --seconds S --trace 0|1
//! --walshcheck PATH [--work DIR] [--root DIR] [--smoke]`
//!
//! Runs one workload and prints the provenance record, the human-readable
//! report and, as the last line, the result object. Exit code 0 when every
//! output matched the known-answer table, 1 when one did not, 2 when the
//! workload could not run.

use std::path::PathBuf;
use std::process::{Command, ExitCode};

use walshcheck_core::json::Json;
use walshcheck_dd::backend::Backend;
use walshcheck_perfbench::report::{provenance, END_TO_END, PER_LAYER};
use walshcheck_perfbench::workloads::{self, process_flags, Ctx};

fn usage(message: &str) -> ExitCode {
    eprintln!("perfbench: {message}");
    eprintln!(
        "usage: perfbench --workload {} --seed N --seconds S --trace 0|1 \
         --walshcheck PATH [--work DIR] [--root DIR] [--smoke]",
        workloads::WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn parse_args() -> Result<Ctx, String> {
    let mut ctx = Ctx {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        smoke: false,
        walshcheck: PathBuf::new(),
        work: PathBuf::from(".bench_build/perfbench"),
        root: PathBuf::from("."),
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--smoke" {
            ctx.smoke = true;
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => ctx.workload = value,
            "--seed" => ctx.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                ctx.seconds = value.parse().map_err(|_| bad())?;
                if !(ctx.seconds > 0.0 && ctx.seconds <= 600.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                ctx.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--walshcheck" => ctx.walshcheck = PathBuf::from(value),
            "--work" => ctx.work = PathBuf::from(value),
            "--root" => ctx.root = PathBuf::from(value),
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    if !workloads::WORKLOADS.contains(&ctx.workload.as_str()) {
        return Err(format!("unknown workload {:?}", ctx.workload));
    }
    if !ctx.walshcheck.is_file() {
        return Err(format!(
            "no walshcheck binary at {}",
            ctx.walshcheck.display()
        ));
    }
    Ok(ctx)
}

/// First line of `program args` on stdout, or `"unknown"`.
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".into())
}

/// The checkout's commit, or `"unknown"` outside a git work tree (a
/// parent directory's repository must not be reported).
fn git_commit(root: &std::path::Path) -> String {
    if !root.join(".git").exists() {
        return "unknown".into();
    }
    command_line("git", &["-C", &root.to_string_lossy(), "rev-parse", "HEAD"])
}

/// SHA-256 over the program's sources (`Cargo.toml`, `Cargo.lock`, `src/`,
/// `crates/`): identifies the code measured where no git history exists.
fn source_sha256(root: &std::path::Path) -> String {
    fn walk(dir: &std::path::Path, files: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                if p.file_name().is_some_and(|n| n != "target") {
                    walk(&p, files);
                }
            } else {
                files.push(p);
            }
        }
    }
    let mut files = vec![root.join("Cargo.toml"), root.join("Cargo.lock")];
    walk(&root.join("src"), &mut files);
    walk(&root.join("crates"), &mut files);
    files.sort();
    let mut digest = walshcheck_core::hash::Sha256::new();
    for f in files {
        if let Ok(bytes) = std::fs::read(&f) {
            let rel = f
                .strip_prefix(root)
                .unwrap_or(&f)
                .to_string_lossy()
                .into_owned();
            digest.update(rel.as_bytes());
            digest.update(&[0]);
            digest.update(&bytes);
        }
    }
    walshcheck_core::hash::hex(&digest.finish())
}

fn main() -> ExitCode {
    let ctx = match parse_args() {
        Ok(ctx) => ctx,
        Err(e) => return usage(&e),
    };
    // Every workload measures the default DD backend: the children inherit
    // this environment and the in-process sessions read it, so it is cleared
    // once, before any session is built. Provenance records what was set.
    let dd_backend_env = std::env::var(Backend::ENV_VAR).unwrap_or_default();
    std::env::remove_var(Backend::ENV_VAR);
    let inputs = match workloads::load_inputs(&ctx) {
        Ok(i) => i,
        Err(e) => return usage(&e),
    };
    let flags = process_flags(&ctx).map_or_else(Vec::new, |(_, f, _)| f);
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let prov = provenance(vec![
        ("workload", Json::str(ctx.workload.clone())),
        ("seed", Json::Int(ctx.seed as i64)),
        ("seconds", Json::Float(ctx.seconds)),
        ("trace", Json::Bool(ctx.trace)),
        ("smoke", Json::Bool(ctx.smoke)),
        (
            "walshcheck_flags",
            Json::Arr(flags.into_iter().map(Json::Str).collect()),
        ),
        (
            "inputs",
            Json::Arr(
                inputs
                    .digests()
                    .into_iter()
                    .map(|(name, sha, bytes)| {
                        Json::obj([
                            ("name", Json::Str(name)),
                            ("sha256", Json::Str(sha)),
                            ("bytes", Json::Int(bytes as i64)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("nproc", Json::Int(nproc as i64)),
        ("rustc", Json::str(command_line("rustc", &["-V"]))),
        ("git_commit", Json::str(git_commit(&ctx.root))),
        ("source_sha256", Json::str(source_sha256(&ctx.root))),
        ("dd_backend_env_cleared", Json::str(dd_backend_env)),
    ]);
    println!("{{\"provenance\":{}}}", prov.to_canonical());

    let outcome = match workloads::run(&ctx, &inputs) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    print!("{}", outcome.human(&ctx.workload));
    let wanted: &[(&str, &str)] = if ctx.trace { &PER_LAYER } else { &END_TO_END };
    let line = outcome.result_line(wanted);
    println!("{line}");
    if line.starts_with("{\"correct\":true") {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
