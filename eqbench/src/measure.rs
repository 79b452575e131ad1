//! Measurement primitives: a counting allocator, latency samples with
//! percentiles, process resource readings and the metric list a run
//! prints.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// A `System` wrapper counting every allocation (and reallocation) the
/// process performs, across all threads.
pub struct CountingAlloc;

static ALLOC_COUNT: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counters are plain statistics and publish no other data.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_COUNT.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_COUNT.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

/// `(allocations, bytes allocated)` since process start.
pub fn allocs() -> (u64, u64) {
    (
        ALLOC_COUNT.load(Ordering::Relaxed),
        ALLOC_BYTES.load(Ordering::Relaxed),
    )
}

/// Nanoseconds elapsed since `t`.
pub fn ns_since(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// Latency samples in nanoseconds.
#[derive(Default, Clone)]
pub struct Samples {
    ns: Vec<u64>,
    sorted: bool,
}

impl Samples {
    pub fn push(&mut self, ns: u64) {
        self.ns.push(ns);
        self.sorted = false;
    }

    pub fn clear(&mut self) {
        self.ns.clear();
        self.sorted = false;
    }

    pub fn len(&self) -> usize {
        self.ns.len()
    }

    pub fn sum_ns(&self) -> u64 {
        self.ns.iter().sum()
    }

    pub fn mean_ns(&self) -> f64 {
        if self.ns.is_empty() {
            0.0
        } else {
            self.sum_ns() as f64 / self.ns.len() as f64
        }
    }

    /// Nearest-rank quantile `q` in [0, 1], in nanoseconds.
    pub fn quantile_ns(&mut self, q: f64) -> f64 {
        if self.ns.is_empty() {
            return 0.0;
        }
        if !self.sorted {
            self.ns.sort_unstable();
            self.sorted = true;
        }
        let rank = ((self.ns.len() as f64) * q).ceil().max(1.0) as usize;
        self.ns[rank.min(self.ns.len()) - 1] as f64
    }

    pub fn quantile_us(&mut self, q: f64) -> f64 {
        self.quantile_ns(q) / 1e3
    }
}

/// Median of a non-empty list of floats.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Calibration-kernel time, in nanoseconds, at the reference machine
/// speed: on one thread, and on each of two threads running at once.
/// Measured on the 2-vCPU, 2.1 GHz x86-64 VM this benchmark was written
/// on, in a quiet period.
const K_REF_NS: [f64; 2] = [2_750_000.0, 3_100_000.0];

/// Time a fixed CPU- and cache-bound kernel: pseudo-random fill and sort
/// of 32 KiB, 40 times. It runs no code of the repository, so its time
/// changes only with the machine's speed — on a shared machine, with what
/// the neighbours are doing.
fn calibration_ns() -> f64 {
    let t = Instant::now();
    let mut v = vec![0u64; 4096];
    let mut x = 0x2545_f491_4f6c_dd1du64;
    for _ in 0..40 {
        for e in v.iter_mut() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            *e = x;
        }
        v.sort_unstable();
    }
    std::hint::black_box(&v);
    ns_since(t) as f64
}

/// Machine speed relative to the reference: the reference kernel time
/// divided by the kernel's time now, run on `threads` (1 or 2) threads at
/// once. Multiply a measured time by it to get the time at reference
/// speed. A multi-threaded workload slows when the machine lends one of
/// its cores to a neighbour, which one kernel on its own does not see.
pub fn speed(threads: usize) -> f64 {
    let times: Vec<f64> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads).map(|_| s.spawn(calibration_ns)).collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("calibration thread"))
            .collect()
    });
    K_REF_NS[threads - 1] * threads as f64 / times.iter().sum::<f64>()
}

/// Figures of one finished round, in nanoseconds as measured.
#[derive(Clone, Copy)]
struct Round {
    p50_ns: f64,
    p90_ns: f64,
    p99_ns: f64,
    count: usize,
    sum_ns: u64,
    /// Machine speed measured next to the round (see [`speed`]).
    scale: f64,
}

/// Latencies read per round (a pass over the inputs, or a time window).
///
/// Only the open round keeps its samples; a closed round keeps its
/// quantiles, count, sum and the machine speed measured next to it, so the
/// benchmark's own memory stays constant however many ops a run does.
///
/// The end-to-end timings are read per round, scaled to the reference
/// machine speed (times multiplied by [`speed`]), and the median is taken
/// across rounds. On a shared machine whole stretches of seconds run up to
/// ~1.4x slower while a neighbour is busy; the scaled figures read through
/// those stretches, and the raw ones are printed next to them.
#[derive(Default)]
pub struct Rounds {
    open: Samples,
    done: Vec<Round>,
}

/// Which per-round quantile to read.
#[derive(Clone, Copy)]
pub enum Q {
    P50,
    P90,
    P99,
}

impl Round {
    fn ns(&self, q: Q) -> f64 {
        match q {
            Q::P50 => self.p50_ns,
            Q::P90 => self.p90_ns,
            Q::P99 => self.p99_ns,
        }
    }
}

impl Rounds {
    pub fn push(&mut self, ns: u64) {
        self.open.push(ns);
    }

    /// Close the open round, with the machine speed measured next to it.
    /// An empty round is dropped.
    pub fn close(&mut self, scale: f64) {
        let r = &mut self.open;
        if r.len() == 0 {
            return;
        }
        self.done.push(Round {
            p50_ns: r.quantile_ns(0.50),
            p90_ns: r.quantile_ns(0.90),
            p99_ns: r.quantile_ns(0.99),
            count: r.len(),
            sum_ns: r.sum_ns(),
            scale,
        });
        r.clear();
    }

    /// Median of `f` across closed rounds with at least `min_samples`
    /// samples, or across all closed rounds when none has that many.
    fn across(&self, min_samples: usize, f: impl Fn(&Round) -> f64) -> f64 {
        let big: Vec<f64> = self
            .done
            .iter()
            .filter(|r| r.count >= min_samples)
            .map(&f)
            .collect();
        if big.is_empty() {
            median(&self.done.iter().map(f).collect::<Vec<_>>())
        } else {
            median(&big)
        }
    }

    /// Latency quantile in microseconds at reference speed: the median
    /// across rounds of the scaled per-round quantile.
    pub fn latency_us(&self, q: Q, min_samples: usize) -> f64 {
        self.across(min_samples, |r| r.ns(q) * r.scale / 1e3)
    }

    /// Ops per second of op time at reference speed, median across rounds.
    pub fn ops_per_s(&self) -> f64 {
        self.across(1, |r| r.count as f64 / (r.sum_ns as f64 * r.scale / 1e9))
    }

    /// Ops per second of wall time at reference speed, for rounds that
    /// are windows of `window_s` seconds.
    pub fn ops_per_window_s(&self, window_s: f64) -> f64 {
        self.across(1, |r| r.count as f64 / window_s / r.scale)
    }

    /// Unscaled p50 and p99 (medians across rounds) and the median machine
    /// speed, for the printed report.
    pub fn put_raw(&self, extra: &mut Metrics) {
        extra.put("raw_p50_us", self.across(1, |r| r.p50_ns / 1e3), "us");
        extra.put("raw_p99_us", self.across(1, |r| r.p99_ns / 1e3), "us");
        extra.put("machine_speed", self.across(1, |r| r.scale), "ratio");
    }
}

/// Measure the machine speed once and close every open round with it.
pub fn close_all(rounds: &mut [&mut Rounds]) {
    let speed = speed(1);
    for r in rounds {
        r.close(speed);
    }
}

/// Read-op and write-op latencies, at reference speed, for the report.
pub fn put_read_write(read: &Rounds, write: &Rounds, extra: &mut Metrics) {
    extra.put("read_p50_us", read.latency_us(Q::P50, 1), "us");
    extra.put("read_p90_us", read.latency_us(Q::P90, 1), "us");
    extra.put("write_p50_us", write.latency_us(Q::P50, 1), "us");
    extra.put("write_p90_us", write.latency_us(Q::P90, 1), "us");
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// CPU seconds (user + system) this process has used so far, from
/// `/proc/self/stat`.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, i.e. 12 and 13 after ") ".
    let Some(rest) = stat.rsplit_once(") ").map(|(_, r)| r) else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    // The kernel reports clock ticks; USER_HZ is 100 on Linux.
    (ticks(11) + ticks(12)) / 100.0
}

/// One reported metric.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// The ordered metric list of one run.
#[derive(Default)]
pub struct Metrics {
    pub list: Vec<Metric>,
}

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        assert!(
            !self.list.iter().any(|m| m.name == name),
            "metric {name} reported twice"
        );
        self.list.push(Metric { name, value, unit });
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.list.iter().find(|m| m.name == name).map(|m| m.value)
    }
}
