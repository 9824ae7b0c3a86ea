//! `walshcheck check` as a child process, timed from spawn to exit.
//!
//! Every [`SLICE_S`] the child is paused while the reference task of
//! [`crate::hostspeed`] runs, so its seconds can be scaled by the host's
//! speed measured through the check rather than only around it.

use std::fs::File;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use walshcheck_core::json::{self, Json};

use crate::hostspeed::{self, CpuShares, Reference, Sample};
use crate::sys::{self, Usage};

/// Seconds the child runs between two pauses.
pub const SLICE_S: f64 = 0.5;

/// How often a running child is polled for its exit.
const POLL: Duration = Duration::from_millis(2);

/// The verdict and counters of one `walshcheck check --json` process.
#[derive(Debug, Clone)]
pub struct ProcessCheck {
    /// Spawn → exit wall seconds, less the pauses.
    pub wall_s: f64,
    /// `wall_s` at the reference speed: each slice the child ran scaled by
    /// the reference samples taken right before and right after it.
    pub scaled_wall_s: f64,
    /// `wall_s` weighted by the CPU-clock scale of each slice: divided by
    /// `wall_s`, the factor for the child's CPU seconds.
    pub cpu_weighted_wall_s: f64,
    /// Seconds the child spent paused.
    pub paused_s: f64,
    /// The reference samples: the one passed in, those taken while the
    /// child was paused, and one after it exited.
    pub reference_s: Vec<Sample>,
    /// The child's CPU time and peak memory.
    pub usage: Usage,
    /// Exit code (`None` when a signal ended the child).
    pub code: Option<i32>,
    /// The run report, when stdout held one.
    pub report: Option<Json>,
    /// Standard error, for failure messages.
    pub stderr: String,
}

impl ProcessCheck {
    /// `report.path` as a string.
    pub fn str_at(&self, path: &[&str]) -> Option<&str> {
        self.at(path).and_then(Json::as_str)
    }

    /// `report.path` as a number.
    pub fn num_at(&self, path: &[&str]) -> Option<f64> {
        self.at(path).and_then(Json::as_f64)
    }

    /// The child's CPU seconds at the reference speed.
    pub fn scaled_cpu_s(&self) -> f64 {
        if self.wall_s > 0.0 {
            self.usage.cpu_s * self.cpu_weighted_wall_s / self.wall_s
        } else {
            self.usage.cpu_s
        }
    }

    fn at(&self, path: &[&str]) -> Option<&Json> {
        path.iter()
            .try_fold(self.report.as_ref()?, |doc, key| doc.get(key))
    }
}

/// Runs `walshcheck check <input> <flags> --json`, with stdout and stderr
/// captured in files under `outputs_dir`. `before` is a sample of
/// `reference` taken right before; the child is paused for a sample every
/// [`SLICE_S`], and one more is taken after it exits.
///
/// # Errors
///
/// Fails when the child cannot be spawned, paused or reaped, or its output
/// files cannot be created or read.
pub fn run_check_process(
    walshcheck: &Path,
    input: &Path,
    flags: &[String],
    outputs_dir: &Path,
    reference: &mut Reference,
    before: Sample,
) -> std::io::Result<ProcessCheck> {
    let out_path: PathBuf = outputs_dir.join("check.stdout");
    let err_path: PathBuf = outputs_dir.join("check.stderr");
    let mut command = Command::new(walshcheck);
    command
        .arg("check")
        .arg(input)
        .args(flags)
        .arg("--json")
        .stdin(Stdio::null())
        .stdout(File::create(&out_path)?)
        .stderr(File::create(&err_path)?);
    let mut child = command.spawn()?;
    let mut run = Slices {
        shares: CpuShares::new(child.id()),
        reference_s: vec![before],
        wall_s: 0.0,
        scaled_wall_s: 0.0,
        cpu_weighted_wall_s: 0.0,
        paused_s: 0.0,
    };
    let exit = match run.watch(&mut child, reference) {
        Ok(exit) => exit,
        Err(e) => {
            // Killed and reaped on every way out, paused or not.
            let _ = child.kill();
            let _ = sys::wait_with_usage(&mut child);
            return Err(e);
        }
    };
    let Slices {
        shares: _,
        reference_s,
        wall_s,
        scaled_wall_s,
        cpu_weighted_wall_s,
        paused_s,
    } = run;
    let stdout = std::fs::read_to_string(&out_path)?;
    Ok(ProcessCheck {
        wall_s,
        scaled_wall_s,
        cpu_weighted_wall_s,
        paused_s,
        reference_s,
        usage: exit.usage,
        code: exit.code,
        report: json::parse(&stdout).ok(),
        stderr: std::fs::read_to_string(&err_path)?,
    })
}

/// The slices a child ran between pauses, scaled as they end.
struct Slices {
    shares: CpuShares,
    reference_s: Vec<Sample>,
    wall_s: f64,
    scaled_wall_s: f64,
    cpu_weighted_wall_s: f64,
    paused_s: f64,
}

impl Slices {
    /// Polls `child` until it exits, pausing it for a reference sample
    /// every [`SLICE_S`]; takes one more sample after it exits.
    fn watch(
        &mut self,
        child: &mut Child,
        reference: &mut Reference,
    ) -> std::io::Result<sys::Exit> {
        let mut slice = Instant::now();
        let exit = loop {
            std::thread::sleep(POLL);
            if let Some(exit) = sys::try_wait_with_usage(child)? {
                break exit;
            }
            let ran = slice.elapsed().as_secs_f64();
            if ran < SLICE_S {
                continue;
            }
            if let Some(exit) = sys::pause(child)? {
                break exit;
            }
            let paused = Instant::now();
            self.end_slice(ran, reference);
            self.paused_s += paused.elapsed().as_secs_f64();
            slice = Instant::now();
            sys::resume(child)?;
        };
        self.end_slice(slice.elapsed().as_secs_f64(), reference);
        Ok(exit)
    }

    /// Takes a reference sample on the CPUs the child used and scales the
    /// slice of `ran` seconds that just ended by it and the sample before.
    fn end_slice(&mut self, ran: f64, reference: &mut Reference) {
        let sample = reference.sample_on(self.shares.update());
        let before = *self.reference_s.last().expect("starts with before");
        self.reference_s.push(sample);
        let (wall_k, cpu_k) = hostspeed::scales(before, sample);
        self.wall_s += ran;
        self.scaled_wall_s += ran * wall_k;
        self.cpu_weighted_wall_s += ran * cpu_k;
    }
}
