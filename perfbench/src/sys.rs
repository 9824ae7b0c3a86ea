//! The few POSIX calls the standard library does not expose: reaping a
//! child with its resource usage, the process's own usage, pausing and
//! resuming a child, where a child's threads ran, pinning this thread to
//! a CPU, and SIGTERM.
//! Linux, 64-bit (`struct rusage` as laid out by glibc and musl there).

use std::io;
use std::process::Child;
use std::time::Duration;

#[repr(C)]
#[derive(Default)]
struct Timeval {
    tv_sec: i64,
    tv_usec: i64,
}

#[repr(C)]
#[derive(Default)]
struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    /// `ru_maxrss` (KiB) first, then thirteen counters this crate ignores.
    rest: [i64; 14],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, usage: *mut Rusage) -> i32;
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    fn kill(pid: i32, signal: i32) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    fn clock_gettime(clock: i32, time: *mut Timespec) -> i32;
}

#[repr(C)]
#[derive(Default)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// CPU seconds the calling thread has used. Time the hypervisor gave to
/// another guest (steal) is not counted, as it is not for any process.
pub fn thread_cpu_s() -> f64 {
    let mut t = Timespec::default();
    // SAFETY: `t` is live, exclusively borrowed and laid out as the C
    // declaration; the thread CPU clock always exists on Linux.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut t) };
    debug_assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) cannot fail");
    t.tv_sec as f64 + t.tv_nsec as f64 * 1e-9
}

/// A `cpu_set_t` of 1024 CPUs, as glibc lays it out.
type CpuSet = [u64; 16];

const RUSAGE_SELF: i32 = 0;
const SIGTERM: i32 = 15;
const SIGCONT: i32 = 18;
const SIGSTOP: i32 = 19;
const WNOHANG: i32 = 1;
const WUNTRACED: i32 = 2;

/// CPU time and peak memory of a process.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Usage {
    /// User plus system CPU seconds.
    pub cpu_s: f64,
    /// Of those, system CPU seconds.
    pub system_s: f64,
    /// Maximum resident set size, in MiB.
    pub max_rss_mb: f64,
}

impl Usage {
    fn from_raw(r: &Rusage) -> Usage {
        let secs = |t: &Timeval| t.tv_sec as f64 + t.tv_usec as f64 * 1e-6;
        Usage {
            cpu_s: secs(&r.ru_utime) + secs(&r.ru_stime),
            system_s: secs(&r.ru_stime),
            max_rss_mb: r.rest[0] as f64 / 1024.0,
        }
    }
}

/// How a reaped child ended.
#[derive(Debug, Clone, Copy)]
pub struct Exit {
    /// Exit code, or `None` when a signal ended the child.
    pub code: Option<i32>,
    /// The child's resource usage.
    pub usage: Usage,
}

fn pid_of(child: &Child) -> io::Result<i32> {
    i32::try_from(child.id()).map_err(|_| io::Error::other("child pid out of range"))
}

/// Blocks until `child` exits and reaps it, returning its exit code and
/// resource usage. `child` must not have been waited on before.
///
/// # Errors
///
/// Fails when `wait4` does.
pub fn wait_with_usage(child: &mut Child) -> io::Result<Exit> {
    loop {
        if let Some(exit) = wait_for(child, 0)? {
            return Ok(exit);
        }
    }
}

/// Reaps `child` if it has exited, without blocking.
///
/// # Errors
///
/// Fails when `wait4` does.
pub fn try_wait_with_usage(child: &mut Child) -> io::Result<Option<Exit>> {
    wait_for(child, WNOHANG)
}

/// Pauses `child` with SIGSTOP and blocks until it has stopped. Returns
/// `Some` when it exited instead (it is then reaped), `None` when it is
/// paused; [`resume`] lets it go on.
///
/// # Errors
///
/// Fails when signalling or `wait4` does.
pub fn pause(child: &mut Child) -> io::Result<Option<Exit>> {
    signal(child, SIGSTOP)?;
    wait_for(child, WUNTRACED)
}

/// Lets a child paused by [`pause`] go on.
///
/// # Errors
///
/// Fails when `kill` does.
pub fn resume(child: &Child) -> io::Result<()> {
    signal(child, SIGCONT)
}

/// One `wait4` on `child` with `options`: `Some` with how it ended when it
/// exited (it is then reaped), `None` when it had not (`WNOHANG`) or
/// stopped (`WUNTRACED`).
fn wait_for(child: &mut Child, options: i32) -> io::Result<Option<Exit>> {
    let pid = pid_of(child)?;
    let mut status = 0i32;
    let mut usage = Rusage::default();
    loop {
        // SAFETY: `status` and `usage` are live, exclusively borrowed and
        // laid out as the C declarations; `pid` is our own unreaped child.
        let rc = unsafe { wait4(pid, &mut status, options, &mut usage) };
        if rc == pid {
            break;
        }
        if rc == 0 {
            return Ok(None);
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
    // WIFSTOPPED, WIFEXITED and WEXITSTATUS as glibc defines them.
    if status & 0xff == 0x7f {
        return Ok(None);
    }
    let code = (status & 0x7f == 0).then_some((status >> 8) & 0xff);
    Ok(Some(Exit {
        code,
        usage: Usage::from_raw(&usage),
    }))
}

/// Fields 3 onwards of a `/proc/.../stat` file (those after the
/// parenthesised command name), or `None` when it cannot be read.
fn stat_fields(path: &str) -> Option<Vec<u64>> {
    let stat = std::fs::read_to_string(path).ok()?;
    Some(
        stat.rsplit(')')
            .next()?
            .split_whitespace()
            .map(|f| f.parse().unwrap_or(0))
            .collect(),
    )
}

/// User plus system CPU ticks (1/100 s, the kernel's fixed `USER_HZ`) in
/// stat fields 14 and 15.
fn ticks(fields: &[u64]) -> u64 {
    fields.get(11).unwrap_or(&0) + fields.get(12).unwrap_or(&0)
}

/// Every thread of process `pid`: its id, the CPU it last ran on (stat
/// field 39) and the CPU ticks it has used.
pub fn threads_of(pid: u32) -> Vec<(u32, usize, u64)> {
    let Ok(tasks) = std::fs::read_dir(format!("/proc/{pid}/task")) else {
        return Vec::new();
    };
    tasks
        .flatten()
        .filter_map(|t| {
            let tid: u32 = t.file_name().to_str()?.parse().ok()?;
            let f = stat_fields(&format!("/proc/{pid}/task/{tid}/stat"))?;
            Some((tid, *f.get(36)? as usize, ticks(&f)))
        })
        .collect()
}

/// This thread's CPU affinity.
pub fn affinity() -> io::Result<Vec<u64>> {
    let mut mask: CpuSet = [0; 16];
    // SAFETY: `mask` is live, exclusively borrowed and as large as the
    // size passed; pid 0 is the calling thread.
    if unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), mask.as_mut_ptr()) } < 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(mask.to_vec())
}

/// Sets this thread's CPU affinity to `mask` (as [`affinity`] returns it).
///
/// # Errors
///
/// Fails when `sched_setaffinity` does, e.g. for a CPU not allowed here.
pub fn set_affinity(mask: &[u64]) -> io::Result<()> {
    let mut set: CpuSet = [0; 16];
    for (dst, src) in set.iter_mut().zip(mask) {
        *dst = *src;
    }
    // SAFETY: `set` is live and as large as the size passed; pid 0 is the
    // calling thread.
    if unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), set.as_ptr()) } < 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(())
}

/// The affinity mask of CPU `cpu` alone.
pub fn only(cpu: usize) -> Vec<u64> {
    let mut mask = vec![0u64; 16];
    if let Some(word) = mask.get_mut(cpu / 64) {
        *word = 1 << (cpu % 64);
    }
    mask
}

/// Resource usage of this process so far.
pub fn self_usage() -> Usage {
    let mut usage = Rusage::default();
    // SAFETY: `usage` is live, exclusively borrowed and laid out as the C
    // declaration; RUSAGE_SELF is always a valid `who`.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    debug_assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail");
    Usage::from_raw(&usage)
}

/// Sends `sig` to `child`.
///
/// # Errors
///
/// Fails when `kill` does (e.g. the child was already reaped).
fn signal(child: &Child, sig: i32) -> io::Result<()> {
    let pid = pid_of(child)?;
    // SAFETY: kill has no memory preconditions; `pid` is our own child,
    // which has not been reaped, so the pid cannot have been reused.
    if unsafe { kill(pid, sig) } == 0 {
        Ok(())
    } else {
        Err(io::Error::last_os_error())
    }
}

/// SIGTERMs `child` and reaps it; if it has not exited after `grace`,
/// SIGKILLs it. Returns how it ended.
///
/// # Errors
///
/// Fails when signalling or reaping does.
pub fn stop(child: &mut Child, grace: Duration) -> io::Result<Exit> {
    signal(child, SIGTERM)?;
    let deadline = std::time::Instant::now() + grace;
    // Poll without reaping (`try_wait` would reap and lose the usage).
    while std::time::Instant::now() < deadline {
        if exited(child)? {
            return wait_with_usage(child);
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    child.kill()?;
    wait_with_usage(child)
}

/// Whether `child` has exited, without reaping it.
fn exited(child: &Child) -> io::Result<bool> {
    let stat = std::fs::read_to_string(format!("/proc/{}/stat", child.id()))?;
    // The state letter follows the parenthesised command name.
    let state = stat
        .rsplit(')')
        .next()
        .and_then(|r| r.split_whitespace().next());
    Ok(matches!(state, Some("Z" | "X")))
}
