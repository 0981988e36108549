//! Host-speed sampling. The machine this benchmark runs on shares its
//! cores with other tenants, and its speed for identical work drifts by
//! ±10–30 % over tens of seconds. A sampler thread runs a fixed kernel,
//! which never calls into the simulator, every [`PERIOD`] and records
//! the thread CPU time it took. Host-time metrics are divided by the
//! median slowdown around the interval they measure, so they read as
//! seconds on a host that runs the kernel in [`REFERENCE_NS`]. The
//! kernel shares no code with the simulator, so a change to the
//! simulator moves the normalized figures as much as the raw ones.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Time between the ends of two kernel runs.
const PERIOD: Duration = Duration::from_millis(100);
/// Events the kernel pops and pushes per run (about 2.8 ms on the
/// reference host, so the sampler takes about 3 % of one core).
const KERNEL_EVENTS: u32 = 20_000;
/// Pending events in the kernel's queue.
const KERNEL_QUEUE: u64 = 512;
/// Per-node state words the kernel's events touch: 1 MiB, so the
/// kernel, like the simulator, depends on the caches beyond the first
/// level. An L1-resident kernel followed the host's drift only about
/// half as strongly as the simulator does.
const KERNEL_NODES: usize = 1 << 17;
/// Thread CPU nanoseconds one kernel run takes on the reference host, a
/// 2-vCPU Intel Xeon VM shared with other tenants (it has read from 1.6
/// to 3 ms there). Only a scale; it cancels when two runs on one host
/// are compared.
pub const REFERENCE_NS: f64 = 2.8e6;
/// An interval is widened to at least this long, centred on it, before
/// its slowdown is read, so a short job still rests on tens of samples.
const MIN_WINDOW: Duration = Duration::from_secs(2);
/// Samples a slowdown rests on at least; the nearest ones are taken
/// when the window holds fewer (at the start and end of a run).
const MIN_SAMPLES: usize = 10;

/// One kernel run: when it started and the thread CPU time it took.
#[derive(Debug, Clone, Copy)]
struct Sample {
    at: Instant,
    cpu_ns: f64,
}

/// The samples taken while a body ran.
pub struct HostSpeed {
    samples: Vec<Sample>,
}

/// Runs `body` on this thread while a sampler thread measures host
/// speed; returns the body's result and the samples.
pub fn sampled<R>(body: impl FnOnce() -> R) -> (R, HostSpeed) {
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        let sampler = s.spawn(|| sample_until(&stop));
        let r = body();
        stop.store(true, Ordering::Relaxed);
        let samples = sampler.join().expect("host-speed sampler panicked");
        (r, HostSpeed { samples })
    })
}

fn sample_until(stop: &AtomicBool) -> Vec<Sample> {
    let mut queue: BinaryHeap<Reverse<(u64, u32)>> = (0..KERNEL_QUEUE)
        .map(|i| Reverse((i.wrapping_mul(2_654_435_761) % 1000, i as u32)))
        .collect();
    let mut nodes = vec![0u64; KERNEL_NODES];
    let mut samples = Vec::new();
    while !stop.load(Ordering::Relaxed) {
        std::thread::sleep(PERIOD);
        let at = Instant::now();
        let c0 = thread_cpu_ns();
        std::hint::black_box(kernel(&mut queue, &mut nodes));
        let cpu_ns = thread_cpu_ns().saturating_sub(c0) as f64;
        samples.push(Sample { at, cpu_ns });
    }
    samples
}

/// A small discrete-event loop: pop the earliest event, update the
/// state of the node it belongs to, branch on it and schedule a
/// follow-up. Shaped like the simulator's hot loop (a binary heap, a
/// per-node table, unpredictable branches) but none of its code.
fn kernel(queue: &mut BinaryHeap<Reverse<(u64, u32)>>, nodes: &mut [u64]) -> u64 {
    let mut x = 0x9E37_79B9_7F4A_7C15_u64;
    let mut acc = 0u64;
    for _ in 0..KERNEL_EVENTS {
        let Some(Reverse((t, id))) = queue.pop() else {
            break;
        };
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let node = &mut nodes[(id as usize ^ (x as usize >> 20)) % KERNEL_NODES];
        *node = node.wrapping_add(t ^ x);
        let dt = if *node & 3 == 0 { x % 5000 } else { x % 200 };
        acc = acc.wrapping_add(*node >> 3);
        queue.push(Reverse((t + 1 + dt, id)));
    }
    acc
}

/// CPU time of the calling thread (Linux clock id; the benchmark already
/// reads `/proc` for peak memory). Time the sampler waits for a core
/// does not count, so the sampler measures how fast the host runs code,
/// not how busy this process keeps its cores.
fn thread_cpu_ns() -> u64 {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable timespec for the call's duration.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    ts.sec as u64 * 1_000_000_000 + ts.nsec as u64
}

impl HostSpeed {
    /// Kernel runs recorded.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// How much slower than the reference host the host ran during
    /// `[from, from + len]`: the median kernel time over the samples in
    /// that interval, widened to [`MIN_WINDOW`], divided by
    /// [`REFERENCE_NS`]. `None` without samples.
    pub fn slowdown(&self, from: Instant, len: Duration) -> Option<f64> {
        let half = len.max(MIN_WINDOW) / 2;
        let centre = from + len / 2;
        let lo = centre.checked_sub(half).unwrap_or(from);
        let hi = centre + half;
        let mut near: Vec<&Sample> = self
            .samples
            .iter()
            .filter(|s| (lo..=hi).contains(&s.at))
            .collect();
        if near.len() < MIN_SAMPLES {
            let dist = |s: &Sample| {
                if s.at > centre {
                    s.at - centre
                } else {
                    centre - s.at
                }
            };
            near = self.samples.iter().collect();
            near.sort_by_key(|s| dist(s));
            near.truncate(MIN_SAMPLES);
        }
        let ns: Vec<f64> = near.iter().map(|s| s.cpu_ns).collect();
        crate::stats::median(&ns).map(|m| m / REFERENCE_NS)
    }

    /// The median slowdown over every sample.
    pub fn overall(&self) -> Option<f64> {
        let ns: Vec<f64> = self.samples.iter().map(|s| s.cpu_ns).collect();
        crate::stats::median(&ns).map(|m| m / REFERENCE_NS)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn speed(start: Instant, ns: &[f64]) -> HostSpeed {
        let samples = ns
            .iter()
            .enumerate()
            .map(|(i, &cpu_ns)| Sample {
                at: start + Duration::from_millis(100 * i as u64),
                cpu_ns,
            })
            .collect();
        HostSpeed { samples }
    }

    #[test]
    fn slowdown_is_the_windowed_median_over_the_reference() {
        let t0 = Instant::now();
        // 40 samples 100 ms apart: 2 s at reference speed, then 2 s at
        // half speed.
        let mut ns = vec![REFERENCE_NS; 20];
        ns.extend([2.0 * REFERENCE_NS; 20]);
        let s = speed(t0, &ns);
        let at = |ms| t0 + Duration::from_millis(ms);
        // A long interval inside each half reads that half's speed.
        assert_eq!(s.slowdown(at(0), Duration::from_millis(1900)), Some(1.0));
        assert_eq!(s.slowdown(at(2000), Duration::from_millis(1900)), Some(2.0));
        // A short interval is widened to two seconds around its centre.
        assert_eq!(s.slowdown(at(950), Duration::from_millis(10)), Some(1.0));
        // Past the end, the nearest samples are used.
        assert_eq!(s.slowdown(at(60_000), Duration::from_millis(10)), Some(2.0));
        assert_eq!(s.overall(), Some(1.5));
        assert_eq!(speed(t0, &[]).slowdown(t0, Duration::ZERO), None);
    }

    #[test]
    fn sampler_records_while_the_body_runs() {
        let (r, s) = sampled(|| {
            std::thread::sleep(PERIOD * 4);
            7
        });
        assert_eq!(r, 7);
        assert!(s.len() >= 1, "no samples in {:?}", PERIOD * 4);
        assert!(s.overall().is_some_and(|f| f > 0.0));
    }
}
