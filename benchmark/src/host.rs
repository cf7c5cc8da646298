//! What the benchmark knows about the machine it runs on: core count,
//! cache sizes, load, memory; the untimed warm-up that brings a sandbox
//! core up to speed; and the two ceilings (`host.triad_gb_per_s`,
//! `host.fma_gflops`) the `exec.pct_*` ratios divide by, measured in
//! the same process as the numbers they divide.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Threads the host microbenchmarks and every scheduled input use. The
/// inputs pin `parallel xo 2`; a host with fewer cores is refused.
pub const THREADS: usize = 2;

pub struct HostFacts {
    pub nproc: usize,
    /// `(level, type, bytes)` as the kernel lists them for cpu0.
    pub caches: Vec<(u32, String, u64)>,
    pub load_1min: f64,
    pub mem_available: u64,
}

fn read(path: &str) -> Option<String> {
    std::fs::read_to_string(path)
        .ok()
        .map(|s| s.trim().to_string())
}

fn parse_size(text: &str) -> Option<u64> {
    let (digits, unit) = text.split_at(
        text.find(|c: char| !c.is_ascii_digit())
            .unwrap_or(text.len()),
    );
    let n: u64 = digits.parse().ok()?;
    Some(match unit {
        "K" => n << 10,
        "M" => n << 20,
        "G" => n << 30,
        _ => n,
    })
}

/// CPUs in a kernel list such as `0-1` or `0,2-3`. Counted from the
/// machine, not from this process's affinity mask.
fn online_cpus(list: &str) -> Option<usize> {
    list.trim().split(',').try_fold(0, |n, part| {
        let (lo, hi) = part.split_once('-').unwrap_or((part, part));
        Some(n + hi.parse::<usize>().ok()?.checked_sub(lo.parse().ok()?)? + 1)
    })
}

pub fn facts() -> HostFacts {
    let mut caches = Vec::new();
    for i in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{i}");
        let (Some(level), Some(kind), Some(size)) = (
            read(&format!("{dir}/level")).and_then(|v| v.parse().ok()),
            read(&format!("{dir}/type")),
            read(&format!("{dir}/size")).and_then(|v| parse_size(&v)),
        ) else {
            continue;
        };
        caches.push((level, kind, size));
    }
    let load_1min = read("/proc/loadavg")
        .and_then(|l| l.split_whitespace().next().and_then(|v| v.parse().ok()))
        .unwrap_or(0.0);
    let mem_available = read("/proc/meminfo")
        .and_then(|m| {
            m.lines()
                .find(|l| l.starts_with("MemAvailable:"))
                .and_then(|l| {
                    l.split_whitespace()
                        .nth(1)
                        .and_then(|v| v.parse::<u64>().ok())
                })
        })
        .map_or(0, |kb| kb << 10);
    HostFacts {
        nproc: read("/sys/devices/system/cpu/online")
            .and_then(|l| online_cpus(&l))
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, usize::from)),
        caches,
        load_1min,
        mem_available,
    }
}

impl HostFacts {
    /// Last-level cache size; 32 MiB when the kernel does not say.
    pub fn llc_bytes(&self) -> u64 {
        self.caches
            .iter()
            .filter(|(_, kind, _)| kind != "Instruction")
            .max_by_key(|(level, _, _)| *level)
            .map_or(32 << 20, |(_, _, size)| *size)
    }

    pub fn describe(&self) -> String {
        let caches: Vec<String> = self
            .caches
            .iter()
            .map(|(l, k, s)| {
                format!(
                    "L{l}{} {} KiB",
                    if k == "Unified" { "" } else { &k[..1] },
                    s >> 10
                )
            })
            .collect();
        format!(
            "nproc {} | caches {} | load(1m) {:.2} | MemAvailable {} MiB",
            self.nproc,
            if caches.is_empty() {
                "unknown".to_string()
            } else {
                caches.join(", ")
            },
            self.load_1min,
            self.mem_available >> 20
        )
    }
}

#[cfg(target_os = "linux")]
extern "C" {
    /// glibc / musl `sched_setaffinity(2)`; std already links the C library.
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Pin this process (every thread it starts later inherits the mask) to
/// one CPU. Returns false where that is not possible; the run then goes
/// on unpinned and says so.
pub fn pin_to_cpu(cpu: usize) -> bool {
    #[cfg(target_os = "linux")]
    {
        if cpu >= 1024 {
            return false;
        }
        let mut mask = [0u64; 16];
        mask[cpu / 64] = 1 << (cpu % 64);
        // SAFETY: `mask` is a live, initialised 128-byte buffer and its
        // exact size is passed with it; pid 0 means the calling thread,
        // and the call only reads the mask.
        unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
    }
    #[cfg(not(target_os = "linux"))]
    {
        let _ = cpu;
        false
    }
}

/// A `kB` field of `/proc/self/status`; 0 where there is no such file.
fn status_kb(field: &str) -> f64 {
    read("/proc/self/status")
        .and_then(|s| {
            s.lines().find(|l| l.starts_with(field)).and_then(|l| {
                l.split_whitespace()
                    .nth(1)
                    .and_then(|v| v.parse::<f64>().ok())
            })
        })
        .unwrap_or(0.0)
}

/// Peak resident set of this process so far, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM:") / 1024.0
}

/// Resident set of this process now, in kB (`VmRSS`).
pub fn rss_kb() -> f64 {
    status_kb("VmRSS:")
}

/// Keep `THREADS` cores busy for `secs`, each walking its own slice of
/// `touch_bytes` in total. A sandbox core that sat idle runs slow for
/// the life of the next process unless something wakes it first.
pub fn warm_up(secs: f64, touch_bytes: usize) -> f64 {
    let t0 = Instant::now();
    let deadline = t0 + Duration::from_secs_f64(secs);
    std::thread::scope(|s| {
        for _ in 0..THREADS {
            s.spawn(move || {
                let mut buf = vec![1.0f64; touch_bytes / THREADS / 8];
                let mut pass = 0.0f64;
                while Instant::now() < deadline {
                    pass += 1.0;
                    for chunk in buf.chunks_mut(4096) {
                        for v in chunk.iter_mut() {
                            *v = *v * 0.999 + pass;
                        }
                        if Instant::now() >= deadline {
                            break;
                        }
                    }
                }
                black_box(&buf);
            });
        }
    });
    t0.elapsed().as_secs_f64()
}

pub struct Ceilings {
    pub triad_gb_per_s: f64,
    pub fma_gflops: f64,
    /// Bytes of each of the three triad arrays.
    pub triad_array_bytes: u64,
}

/// STREAM triad `a = b + s*c` over `THREADS` threads; best of `passes`.
/// 24 bytes move per element (write-allocate traffic is not counted, as
/// in STREAM).
fn triad(array_bytes: u64, passes: usize) -> f64 {
    let n = (array_bytes / 8) as usize / THREADS * THREADS;
    let mut a = vec![0.0f64; n];
    let b = vec![1.5f64; n];
    let c = vec![2.5f64; n];
    let mut best = f64::INFINITY;
    for _ in 0..passes {
        let t0 = Instant::now();
        std::thread::scope(|s| {
            let per = n / THREADS;
            for ((a, b), c) in a.chunks_mut(per).zip(b.chunks(per)).zip(c.chunks(per)) {
                s.spawn(move || {
                    for ((x, y), z) in a.iter_mut().zip(b).zip(c) {
                        *x = *y + 3.0 * *z;
                    }
                });
            }
        });
        best = best.min(t0.elapsed().as_secs_f64());
        black_box(&a);
    }
    (n as f64 * 24.0) / best / 1e9
}

const FMA_LANES: usize = 64;
const FMA_ITERS: usize = 2_000_000;

/// 64 independent multiply-add chains, enough to cover the latency of two
/// ports at any vector width; the compiler vectorises the lane loop with
/// whatever the enclosing function's target features allow.
#[inline(always)]
fn chains(step: impl Fn(f64, f64, f64) -> f64) -> f64 {
    let mut acc = [1.0f64; FMA_LANES];
    let m = black_box(0.999_999_9f64);
    let a = black_box(1e-9f64);
    for _ in 0..FMA_ITERS {
        for v in acc.iter_mut() {
            *v = step(*v, m, a);
        }
    }
    acc.iter().sum()
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
fn fma_chains_avx2() -> f64 {
    chains(f64::mul_add)
}

/// Without hardware FMA `mul_add` is a library call; time the separate
/// multiply and add the build's kernels use instead.
fn mul_add_chains() -> f64 {
    chains(|v, m, a| v * m + a)
}

fn fma_peak() -> f64 {
    let kernel: fn() -> f64 = {
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("fma")
            {
                // SAFETY: `fma_chains_avx2` needs the avx2 and fma CPU
                // features, and both were detected on this CPU just above.
                || unsafe { fma_chains_avx2() }
            } else {
                mul_add_chains
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            mul_add_chains
        }
    };
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let t0 = Instant::now();
        std::thread::scope(|s| {
            for _ in 0..THREADS {
                s.spawn(move || black_box(kernel()));
            }
        });
        best = best.min(t0.elapsed().as_secs_f64());
    }
    (THREADS * FMA_LANES * FMA_ITERS * 2) as f64 / best / 1e9
}

/// Measure both ceilings. Each triad array is four times the last-level
/// cache, capped at an eighth of available memory so three of them fit.
pub fn ceilings(facts: &HostFacts, smoke: bool) -> Ceilings {
    let mut array_bytes = (4 * facts.llc_bytes())
        .min(facts.mem_available / 8)
        .max(8 << 20);
    if smoke {
        array_bytes = array_bytes.min(32 << 20);
    }
    Ceilings {
        triad_gb_per_s: triad(array_bytes, 3),
        fma_gflops: fma_peak(),
        triad_array_bytes: array_bytes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_sizes_parse() {
        assert_eq!(parse_size("48K"), Some(48 << 10));
        assert_eq!(parse_size("266240K"), Some(260 << 20));
        assert_eq!(parse_size("4M"), Some(4 << 20));
        assert_eq!(parse_size("512"), Some(512));
        assert_eq!(parse_size("x"), None);
        assert_eq!(online_cpus("0-1\n"), Some(2));
        assert_eq!(online_cpus("0,2-3"), Some(3));
        assert_eq!(online_cpus("1-0"), None);
    }

    #[test]
    fn ceilings_are_positive_and_rss_reads() {
        let f = facts();
        assert!(f.nproc >= 1);
        let c = ceilings(&f, true);
        assert!(c.triad_gb_per_s > 0.0 && c.fma_gflops > 0.0);
        assert!(peak_rss_mb() > 0.0);
    }
}
