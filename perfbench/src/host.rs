//! Host fingerprint, build identity and process memory.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::process::Command;
use std::thread;
use std::time::Instant;

use serde::Serialize;

use crate::stats::median;

/// What every result set records about where it ran.
#[derive(Clone, Debug, Serialize)]
pub struct Fingerprint {
    /// `git rev-parse HEAD` in the working directory, or `unknown`.
    pub commit: String,
    /// `rustc --version`.
    pub rustc: String,
    /// `std::thread::available_parallelism`.
    pub nproc: usize,
    /// Throughput of two busy threads over one busy thread (2.0 on two
    /// free cores, about 1.0 when the host grants one core's worth).
    pub effective_parallelism: f64,
}

/// First line of a command's standard output, or `unknown`. Git is kept from
/// searching above the working directory, so a checkout that is not a
/// repository reports `unknown` instead of an enclosing repository's commit.
fn first_line(program: &str, args: &[&str]) -> String {
    let here = std::env::current_dir().unwrap_or_default();
    let ceiling = here.parent().unwrap_or(&here).to_path_buf();
    Command::new(program)
        .args(args)
        .env("GIT_CEILING_DIRECTORIES", ceiling)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// A fixed amount of integer work that the optimiser cannot fold away.
fn spin(rounds: u64) -> u64 {
    let mut x = std::hint::black_box(0x2545_F491_4F6C_DD1Du64);
    for _ in 0..rounds {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    x
}

/// Wall time of one [`reference_work`] on the host this benchmark was written
/// on, in its faster state. Normalised throughputs are scaled to it.
pub const REFERENCE_S: f64 = 0.000_7;

/// A fixed piece of allocation-heavy work: the tree, hash-set and hash-map
/// inserts and the `Vec<char>` collect that the raw scan makes per call.
fn reference_work() -> u64 {
    let mut acc = 0u64;
    let mut x = 0x9E37_79B9u64;
    for _ in 0..20 {
        let mut tree = BTreeMap::new();
        let mut set = HashSet::new();
        let mut map: HashMap<u64, Vec<u64>> = HashMap::new();
        for i in 0..200u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            tree.insert(x % 1000, i);
            set.insert(x % 5000);
            map.entry(x % 64).or_default().push(i);
        }
        let chars: Vec<char> = format!("{x:x}{acc}").repeat(8).chars().collect();
        acc = acc.wrapping_add((tree.len() + set.len() + map.len() + chars.len()) as u64);
    }
    acc
}

/// How much slower than [`REFERENCE_S`] the host runs right now: the median
/// time of three [`reference_work`]s over it, so that one preempted sample
/// does not set it. On a shared host whose speed drifts, this tracks the
/// speed of the raw scan measured next to it.
#[must_use]
pub fn slowdown() -> f64 {
    let samples: Vec<f64> = (0..3)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(reference_work());
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&samples) / REFERENCE_S
}

/// Measures effective parallelism: the same work per thread on one thread
/// and on two concurrent threads (best of three each).
fn effective_parallelism() -> f64 {
    const ROUNDS: u64 = 30_000_000;
    let time = |threads: usize| {
        (0..3)
            .map(|_| {
                let t = Instant::now();
                thread::scope(|s| {
                    let handles: Vec<_> = (0..threads).map(|_| s.spawn(|| spin(ROUNDS))).collect();
                    for h in handles {
                        std::hint::black_box(h.join().expect("spin threads do not panic"));
                    }
                });
                t.elapsed().as_secs_f64()
            })
            .fold(f64::INFINITY, f64::min)
    };
    let one = time(1);
    let two = time(2);
    2.0 * one / two
}

/// Takes the fingerprint of this host.
#[must_use]
pub fn fingerprint() -> Fingerprint {
    Fingerprint {
        commit: first_line("git", &["rev-parse", "HEAD"]),
        rustc: first_line("rustc", &["--version"]),
        nproc: thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        effective_parallelism: effective_parallelism(),
    }
}

/// FNV-1a digest of this executable: equal digests mean the same build.
///
/// # Errors
///
/// The executable cannot be located or read.
pub fn build_id() -> std::io::Result<String> {
    let bytes = std::fs::read(std::env::current_exe()?)?;
    let hash = bytes.iter().fold(0xCBF2_9CE4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    });
    Ok(format!("{hash:016x}"))
}

/// A size field of `/proc/self/status` (such as `VmHWM` or `VmRSS`) in MiB,
/// if known.
fn status_mb(field: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line =
        status.lines().find(|l| l.strip_prefix(field).is_some_and(|r| r.starts_with(':')))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Peak resident set size of this process in MiB (`VmHWM`), if known.
#[must_use]
pub fn peak_rss_mb() -> Option<f64> {
    status_mb("VmHWM")
}

/// Current resident set size of this process in MiB (`VmRSS`), if known.
#[must_use]
pub fn rss_mb() -> Option<f64> {
    status_mb("VmRSS")
}

/// A CPU set as `sched_getaffinity(2)` and `sched_setaffinity(2)` take it.
type CpuMask = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuMask) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuMask) -> i32;
}

/// Confines the calling thread, and every thread it starts afterwards, to
/// the lowest-numbered CPU it may run on, and returns that CPU.
///
/// On a shared host the second CPU comes and goes, and a loopback round trip
/// takes a different time when the two ends wake on different CPUs than when
/// they hand over on one. On one CPU every hand-over is the same.
///
/// # Errors
///
/// The affinity calls fail.
pub fn pin_to_one_cpu() -> Result<usize, String> {
    let mut mask: CpuMask = [0; 16];
    // SAFETY: `mask` is a valid, writable buffer of the size passed.
    if unsafe { sched_getaffinity(0, std::mem::size_of::<CpuMask>(), &mut mask) } != 0 {
        return Err(format!("sched_getaffinity: {}", std::io::Error::last_os_error()));
    }
    let cpu = (0..mask.len() * 64)
        .find(|&c| mask[c / 64] >> (c % 64) & 1 == 1)
        .ok_or("no CPU in this thread's affinity mask")?;
    let mut one: CpuMask = [0; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a valid buffer of the size passed.
    if unsafe { sched_setaffinity(0, std::mem::size_of::<CpuMask>(), &one) } != 0 {
        return Err(format!("sched_setaffinity: {}", std::io::Error::last_os_error()));
    }
    Ok(cpu)
}
