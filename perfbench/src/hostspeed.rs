//! The host's speed, measured by a fixed reference task, so that CPU-bound
//! timings can be reported at one reference speed.
//!
//! The benchmark runs on a few cores of a shared host whose speed drifts by
//! a factor of up to two over seconds to minutes (other guests preempting
//! its vCPUs, or loading their sibling hardware threads and shared caches). Medians over a run do not remove a drift
//! that lasts longer than the run. The harness therefore times a reference
//! task — [`Reference`], code of the benchmark's own that no change to
//! walshcheck can alter — right before and right after each timed piece of
//! CPU-bound work, while nothing else of the benchmark runs, and scales
//! that work's seconds by [`REFERENCE_S`] / the reference task's seconds
//! (wall seconds by its wall time, CPU seconds by its CPU time; see
//! [`Sample`]). The result reads as seconds on a host where one reference
//! run takes [`REFERENCE_S`]: a program that does more work reads slower,
//! a host that runs slower does not.
//!
//! The task mixes what walshcheck's sweeps spend their time on: dependent
//! loads through a 1 MiB table (decision-diagram nodes), scattered
//! read-modify-writes over 2 MiB (hash tables and caches), hashing with
//! allocation (`HashMap` inserts and lookups) and a chain of integer
//! multiplies.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

use crate::sys;

/// Seconds one reference run takes at the reference speed (about its
/// median on a 2-vCPU Xeon VM at 2.0 GHz).
pub const REFERENCE_S: f64 = 0.004;

/// One sample of the reference task's speed: the seconds one run took on
/// the wall clock and on the thread's CPU clock. Wall seconds of the work
/// are scaled by the first, CPU seconds by the second: when the hypervisor
/// runs another guest on our vCPU (steal), both the work's and the
/// reference's wall time stretch, but neither's CPU time does.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// Wall seconds of one run.
    pub wall_s: f64,
    /// Thread-CPU seconds of one run.
    pub cpu_s: f64,
}

/// Timed runs per sample; the sample is their median.
const RUNS_PER_SAMPLE: usize = 5;

/// Entries of the pointer-chasing table (1 MiB of `u32`).
const CHASE_LEN: usize = 1 << 18;
/// Entries of the scattered-update table (2 MiB of `u64`).
const SCATTER_LEN: usize = 1 << 18;

/// The reference task and its working set, built once.
pub struct Reference {
    chase: Vec<u32>,
    scatter: Vec<u64>,
}

impl Default for Reference {
    fn default() -> Self {
        Reference::new()
    }
}

fn xorshift(mut x: u64) -> u64 {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    x
}

impl Reference {
    /// Builds the working set: `chase` is one cycle through every entry
    /// (Sattolo's shuffle from a fixed seed), so the chase visits all of it.
    pub fn new() -> Reference {
        let mut chase: Vec<u32> = (0..CHASE_LEN as u32).collect();
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for i in (1..CHASE_LEN).rev() {
            x = xorshift(x);
            let j = (x % i as u64) as usize;
            chase.swap(i, j);
        }
        Reference {
            chase,
            scatter: vec![1; SCATTER_LEN],
        }
    }

    /// One run of the reference task; returns a value that depends on all
    /// of it, so that none of it can be optimised away.
    fn task(&mut self) -> u64 {
        // Dependent loads: each index is the previous load's value.
        let mut at = 0u32;
        for _ in 0..60_000 {
            at = self.chase[at as usize];
        }
        // Scattered read-modify-writes.
        let mut x = 0x2545_f491_4f6c_dd1du64 ^ u64::from(at);
        let mask = SCATTER_LEN as u64 - 1;
        for _ in 0..150_000 {
            x = xorshift(x);
            let slot = &mut self.scatter[(x & mask) as usize];
            *slot = slot.wrapping_mul(0x5851_f42d_4c95_7f2d) ^ x;
        }
        // Hashing and allocation.
        let mut map: HashMap<u64, u64> = HashMap::new();
        for i in 0..8_000u64 {
            x = xorshift(x);
            *map.entry(x & 0x3fff).or_insert(i) += i;
        }
        let mut sum = map.len() as u64;
        for i in 0..8_000u64 {
            sum = sum.wrapping_add(*map.get(&(i & 0x3fff)).unwrap_or(&0));
        }
        // An integer multiply chain.
        let mut h = sum | 1;
        for _ in 0..400_000 {
            h = h.wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(7) ^ 0x1234_5678;
        }
        h ^ x
    }

    /// Wall and CPU seconds of one timed reference run.
    fn timed(&mut self) -> Sample {
        let (t, cpu) = (Instant::now(), sys::thread_cpu_s());
        black_box(self.task());
        Sample {
            wall_s: t.elapsed().as_secs_f64(),
            cpu_s: sys::thread_cpu_s() - cpu,
        }
    }

    /// Wall seconds of one timed reference run.
    pub fn once(&mut self) -> f64 {
        self.timed().wall_s
    }

    /// Seconds of one reference run: the medians, wall and CPU, of
    /// [`RUNS_PER_SAMPLE`] timed runs after an untimed one that brings the
    /// working set back into the caches the measured work may have evicted
    /// it from.
    pub fn sample(&mut self) -> Sample {
        black_box(self.task());
        let runs: Vec<Sample> = (0..RUNS_PER_SAMPLE).map(|_| self.timed()).collect();
        let median = |f: fn(&Sample) -> f64| {
            let mut v: Vec<f64> = runs.iter().map(f).collect();
            v.sort_by(f64::total_cmp);
            v[RUNS_PER_SAMPLE / 2]
        };
        Sample {
            wall_s: median(|s| s.wall_s),
            cpu_s: median(|s| s.cpu_s),
        }
    }
}

/// Where the threads of a child process ran, slice by slice. The vCPUs of a
/// shared host run at different speeds at the same moment (their sibling
/// hardware threads carry other loads), so a child's slice is scaled by
/// the reference task timed on the CPUs the child used, weighted by the
/// CPU time it used on each.
#[derive(Debug)]
pub struct CpuShares {
    pid: u32,
    /// CPU ticks of each thread at the last look.
    ticks: HashMap<u32, u64>,
    /// The last shares found, kept for when the process is gone.
    shares: Vec<(usize, f64)>,
}

impl CpuShares {
    /// Follows process `pid` from now on.
    pub fn new(pid: u32) -> CpuShares {
        let mut shares = CpuShares {
            pid,
            ticks: HashMap::new(),
            shares: Vec::new(),
        };
        shares.update();
        shares
    }

    /// Each CPU's share of the ticks the threads used since the last call
    /// (a thread counts on the CPU it last ran on); the previous shares
    /// when no tick passed or the process is gone.
    pub fn update(&mut self) -> &[(usize, f64)] {
        let mut by_cpu: HashMap<usize, u64> = HashMap::new();
        for (tid, cpu, ticks) in sys::threads_of(self.pid) {
            let before = self.ticks.insert(tid, ticks).unwrap_or(0);
            *by_cpu.entry(cpu).or_default() += ticks - before.min(ticks);
        }
        let total: u64 = by_cpu.values().sum();
        if total > 0 {
            self.shares = by_cpu
                .into_iter()
                .filter(|&(_, t)| t > 0)
                .map(|(cpu, t)| (cpu, t as f64 / total as f64))
                .collect();
            self.shares.sort_by_key(|&(cpu, _)| cpu);
        }
        &self.shares
    }
}

impl Reference {
    /// A sample on each CPU of `shares` (this thread pinned to it), their
    /// mean weighted by the shares; a plain [`Reference::sample`] where
    /// there are none or pinning fails.
    pub fn sample_on(&mut self, shares: &[(usize, f64)]) -> Sample {
        let Ok(mask) = sys::affinity() else {
            return self.sample();
        };
        let (mut wall, mut cpu, mut weight) = (0.0, 0.0, 0.0);
        for &(on, share) in shares {
            if sys::set_affinity(&sys::only(on)).is_ok() {
                let s = self.sample();
                wall += share * s.wall_s;
                cpu += share * s.cpu_s;
                weight += share;
            }
        }
        // Back to where this thread may run; it could run there before.
        let _ = sys::set_affinity(&mask);
        if weight > 0.0 {
            Sample {
                wall_s: wall / weight,
                cpu_s: cpu / weight,
            }
        } else {
            self.sample()
        }
    }
}

/// The factor that turns seconds of work done between two samples
/// `before_s` and `after_s` into seconds at the reference speed.
pub fn scale(before_s: f64, after_s: f64) -> f64 {
    2.0 * REFERENCE_S / (before_s + after_s)
}

/// The factors that turn the wall and the CPU seconds of work done between
/// samples `before` and `after` into seconds at the reference speed.
pub fn scales(before: Sample, after: Sample) -> (f64, f64) {
    (
        scale(before.wall_s, after.wall_s),
        scale(before.cpu_s, after.cpu_s),
    )
}
