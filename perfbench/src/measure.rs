//! Measurement primitives shared by the workloads: closed-loop timing,
//! percentiles, set-up medians, span recorders for the traced run, peak
//! RSS, the memcpy ceiling probe, and the metric ledger the command
//! prints.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use skipper::receipt::Fnv64;
use skipper_vision::Image;

/// Segments per untraced run, each on a freshly set-up backend;
/// `setup_s` is the median of their set-up times.
pub const SEGMENTS: usize = 10;

/// The end-to-end metrics every untraced run prints, with their units
/// (the `end_to_end` list of `BENCHMARK.json`, in order).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("throughput_fps", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// The per-layer metrics every traced run prints, with their units (the
/// `per_layer` list of `BENCHMARK.json`, in order). A workload that
/// bypasses a layer does no work in it and reports 0 with 0 samples.
pub const PER_LAYER: &[(&str, &str)] = &[
    // ccl_1080p
    ("vision.split_ms", "ms"),
    ("vision.label_ms", "ms"),
    ("vision.label_max_band_ms", "ms"),
    ("apps.ccl.merge_ms", "ms"),
    ("skipper.pool.overhead_ms", "ms"),
    ("vision.pixel_allocs_per_frame", "count"),
    ("vision.label_computed_gbps", "GB/s"),
    ("skipper.shard.frame_ms", "ms"),
    ("ceiling.memcpy_gbps", "GB/s"),
    // shared by several workloads
    ("skipper.seq.frame_ms", "ms"),
    ("skipper.pool.frame_ms", "ms"),
    ("ceiling.ideal_speedup", "x"),
    ("bench.trace_overhead_ms", "ms"),
    // tracking_512
    ("apps.tracking.get_windows_us", "us"),
    ("apps.tracking.detect_marks_us", "us"),
    ("apps.tracking.predict_us", "us"),
    ("apps.tracking.windows_per_frame", "count"),
    ("apps.tracking.init_frames_frac", "frac"),
    ("skipper.df.dispatch_us", "us"),
    // serve_tracking
    ("skipper.serve.frames_per_batch", "count"),
    ("skipper.serve.body_us", "us"),
    ("apps.kernels.codec_us", "us"),
    ("skipper.serve.overhead_us", "us"),
    ("skipper.pool.busy_frac", "frac"),
    // dist_farm
    ("skipper.wire.encode_us", "us"),
    ("skipper.wire.decode_us", "us"),
    ("skipper.wire.bytes_per_frame", "bytes"),
    ("skipper.dist.spawn_ms", "ms"),
    ("skipper.dist.overhead_ms", "ms"),
];

/// Worker count for every pool and fleet: the host's parallelism, never
/// an environment override.
pub fn workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Derives the `k`-th input seed from the run seed (splitmix64), so
/// nearby run seeds give unrelated inputs.
pub fn mix(seed: u64, k: u64) -> u64 {
    let mut z = seed
        .wrapping_add(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(k.wrapping_mul(0xbf58_476d_1ce4_e5b9));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The input fingerprint of a frame set: FNV-1a over every pixel.
pub fn image_fingerprint(frames: &[Image<u8>]) -> u64 {
    let mut h = Fnv64::new();
    for f in frames {
        h.write(f.as_slice());
    }
    h.finish()
}

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// How many observations the value summarises.
    pub samples: u64,
}

/// What one benchmark run produced: frame accounting plus metrics.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Frames offered to the program (timed frames of every phase).
    pub attempted: u64,
    /// Frames that panicked, were rejected, or produced a wrong output.
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    pub fn push(&mut self, name: &'static str, value: f64, samples: u64) {
        let unit = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .find(|(n, _)| *n == name)
            .map(|&(_, u)| u)
            .unwrap_or_else(|| panic!("metric `{name}` is not in the benchmark's catalog"));
        self.metrics.push(Metric {
            name,
            value,
            unit,
            samples,
        });
    }

    /// Adds a closed or open loop's frame accounting.
    pub fn count(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// The metrics the result line carries: every end-to-end metric
    /// (untraced) or every per-layer metric (traced), zero-filled for
    /// layers this workload bypasses.
    pub fn reported(&self, trace: bool) -> Vec<Metric> {
        let catalog = if trace { PER_LAYER } else { END_TO_END };
        catalog
            .iter()
            .map(|&(name, unit)| {
                self.metrics
                    .iter()
                    .find(|m| m.name == name)
                    .cloned()
                    .unwrap_or(Metric {
                        name,
                        value: 0.0,
                        unit,
                        samples: 0,
                    })
            })
            .collect()
    }

    /// Prints the ledger and the result line; the exit code is nonzero
    /// when any frame failed.
    pub fn finish(self, trace: bool) -> ExitCode {
        let reported = self.reported(trace);
        let failed_frac = self.failed as f64 / self.attempted.max(1) as f64;
        println!(
            "failed_frac = {failed_frac} frac  ({} failed of {} frames attempted)",
            self.failed, self.attempted
        );
        for m in &reported {
            let note = if m.samples == 0 {
                "  (layer bypassed by this workload)".to_string()
            } else {
                format!("  (n = {})", m.samples)
            };
            println!("{:<34} {:>16.6} {:<6}{note}", m.name, m.value, m.unit);
        }
        println!("{}", result_line(&self, &reported));
        if self.failed == 0 && self.attempted > 0 {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        }
    }
}

fn result_line(outcome: &Outcome, reported: &[Metric]) -> String {
    let metrics: Vec<String> = reported
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0,
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(", ")
    )
}

/// Runs `f`, timing it and turning a panic into `None`.
pub fn guarded<T>(f: impl FnOnce() -> T) -> (Duration, Option<T>) {
    let t = Instant::now();
    let out = catch_unwind(AssertUnwindSafe(f)).ok();
    (t.elapsed(), out)
}

/// A loop's record: per frame its latency and (closed loops) when it
/// completed after the loop started, plus wall time and failures.
#[derive(Debug, Default)]
pub struct Run {
    pub lat_ns: Vec<u64>,
    pub done_ns: Vec<u64>,
    pub elapsed: Duration,
    pub failed: u64,
}

impl Run {
    pub fn frames(&self) -> u64 {
        self.lat_ns.len() as u64
    }
}

/// Closed loop, one client: frame `k + 1` starts when frame `k` has
/// returned, until `budget` has elapsed (at least one frame). `frame(k)`
/// returns the frame's latency and whether its output was correct.
pub fn closed_loop(budget: Duration, mut frame: impl FnMut(u64) -> (Duration, bool)) -> Run {
    let t0 = Instant::now();
    let mut run = Run::default();
    let mut k = 0;
    loop {
        let (latency, ok) = frame(k);
        run.lat_ns.push(latency.as_nanos() as u64);
        run.done_ns.push(t0.elapsed().as_nanos() as u64);
        run.failed += u64::from(!ok);
        k += 1;
        if t0.elapsed() >= budget {
            break;
        }
    }
    run.elapsed = t0.elapsed();
    run
}

/// Latency summary: the median and the highest percentile (at most the
/// 99th) that leaves at least ten samples beyond it, nearest rank.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    pub p50_ns: u64,
    pub tail_ns: u64,
    pub tail_pct: f64,
    pub n: usize,
    pub beyond: usize,
}

pub fn tail(lat_ns: &[u64]) -> Tail {
    let mut sorted = lat_ns.to_vec();
    sorted.sort_unstable();
    let n = sorted.len();
    if n == 0 {
        return Tail {
            p50_ns: 0,
            tail_ns: 0,
            tail_pct: 0.0,
            n,
            beyond: 0,
        };
    }
    let rank99 = (99 * n).div_ceil(100).max(1);
    let rank = if n > 10 { rank99.min(n - 10) } else { n };
    Tail {
        p50_ns: sorted[n.div_ceil(2) - 1],
        tail_ns: sorted[rank - 1],
        tail_pct: 100.0 * rank as f64 / n as f64,
        n,
        beyond: n - rank,
    }
}

/// Median of a sample (the mean of the middle pair for even counts).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

pub fn ns_to_ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Median of nanosecond samples, in the given unit divisor (1e3 = µs,
/// 1e6 = ms).
pub fn median_ns(ns: &[u64], per_unit: f64) -> f64 {
    median(&ns.iter().map(|&x| x as f64 / per_unit).collect::<Vec<_>>())
}

/// An untraced run: `SEGMENTS` segments sharing `budget`, each on a
/// backend freshly built by `setup` (timed) and measured by `measure`,
/// then dropped. Thread placement and worker-process start-up differ
/// from one backend to the next, so one run samples several of each.
/// Returns the segments' frames in time order and every set-up time in
/// seconds.
pub fn segmented<T>(
    budget: Duration,
    mut setup: impl FnMut() -> T,
    mut measure: impl FnMut(&T, Duration) -> Run,
) -> (Run, Vec<f64>) {
    let share = budget / SEGMENTS as u32;
    let mut all = Run::default();
    let mut setup_s = Vec::with_capacity(SEGMENTS);
    for _ in 0..SEGMENTS {
        let t = Instant::now();
        let backend = setup();
        setup_s.push(t.elapsed().as_secs_f64());
        let run = measure(&backend, share);
        drop(backend);
        let offset = all.elapsed.as_nanos() as u64;
        all.lat_ns.extend(run.lat_ns);
        all.done_ns.extend(run.done_ns.iter().map(|d| d + offset));
        all.elapsed += run.elapsed;
        all.failed += run.failed;
    }
    (all, setup_s)
}

/// Frames per latency window once a run is long enough: a window this
/// size has a true p99 with ten samples beyond it.
pub const WINDOW_FRAMES: usize = 1000;
/// Fewest windows a run is cut into. Host contention comes in episodes
/// of tens of seconds that can fill most of a short window; with twenty
/// windows an episode must cover half the run to move a median. The
/// price is a lower tail percentile on slow-frame workloads: about p90
/// in the ~100-frame windows of a 30 s `ccl_1080p` run.
pub const MIN_WINDOWS: usize = 20;

/// Cuts `n` frames into consecutive windows: `n / WINDOW_FRAMES` of them,
/// but at least `MIN_WINDOWS` (fewer only when there are fewer frames).
/// Returns the window bounds.
pub fn windows(n: usize) -> Vec<(usize, usize)> {
    let k = (n / WINDOW_FRAMES).max(MIN_WINDOWS).min(n).max(1);
    (0..k).map(|i| (i * n / k, (i + 1) * n / k)).collect()
}

/// Pushes the end-to-end metrics of one run. Host stalls (a descheduled
/// vCPU) hit a few windows of a run, so each figure is a median over
/// windows of consecutive frames: `throughput_fps` of the windows' frame
/// rates (whole-run frames per second when completion times are not
/// known, as in the open loop), `latency_p50_ms` of their medians, and
/// `latency_p99_ms` of their tails: p99 in a window of `WINDOW_FRAMES` or
/// more, else the highest percentile leaving ten of its frames beyond.
pub fn end_to_end(out: &mut Outcome, setup_s: &[f64], run: &Run) {
    let bounds = windows(run.lat_ns.len());
    let tails: Vec<Tail> = bounds
        .iter()
        .map(|&(a, b)| tail(&run.lat_ns[a..b]))
        .collect();
    let fps = if run.done_ns.is_empty() {
        vec![run.frames() as f64 / run.elapsed.as_secs_f64().max(1e-9)]
    } else {
        bounds
            .iter()
            .map(|&(a, b)| {
                let from = if a == 0 { 0 } else { run.done_ns[a - 1] };
                (b - a) as f64 / ((run.done_ns[b - 1] - from) as f64 / 1e9).max(1e-9)
            })
            .collect()
    };
    let p50 = median(&tails.iter().map(|t| ns_to_ms(t.p50_ns)).collect::<Vec<_>>());
    let p99 = median(
        &tails
            .iter()
            .map(|t| ns_to_ms(t.tail_ns))
            .collect::<Vec<_>>(),
    );
    let whole = tail(&run.lat_ns);
    println!(
        "set-up: median of {} = {:.4} s ({})",
        setup_s.len(),
        median(setup_s),
        setup_s
            .iter()
            .map(|s| format!("{s:.4}"))
            .collect::<Vec<_>>()
            .join(" ")
    );
    println!(
        "latency: {} frames in {} windows of ~{} frames; latency_p99_ms is the median window's \
         p{:.2} ({} of its frames beyond); whole run p50 {:.4} ms, p{:.2} {:.4} ms",
        whole.n,
        bounds.len(),
        whole.n / bounds.len().max(1),
        tails.first().map_or(0.0, |t| t.tail_pct),
        tails.first().map_or(0, |t| t.beyond),
        ns_to_ms(whole.p50_ns),
        whole.tail_pct,
        ns_to_ms(whole.tail_ns)
    );
    out.push("setup_s", median(setup_s), setup_s.len() as u64);
    out.push("throughput_fps", median(&fps), run.frames());
    out.push("latency_p50_ms", p50, run.frames());
    out.push("latency_p99_ms", p99, run.frames());
    out.push("peak_rss_mb", peak_rss_mib(), 1);
}

/// A span recorder for the traced run: durations of calls the benchmark
/// wraps around one layer's public function, from any thread.
pub struct Spans(Mutex<Vec<u64>>);

impl Spans {
    pub const fn new() -> Self {
        Spans(Mutex::new(Vec::new()))
    }

    pub fn time<T>(&self, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        let ns = t.elapsed().as_nanos() as u64;
        self.0.lock().expect("span recorder poisoned").push(ns);
        out
    }

    /// Takes every span recorded since the last call.
    pub fn take(&self) -> Vec<u64> {
        std::mem::take(&mut *self.0.lock().expect("span recorder poisoned"))
    }
}

/// Peak resident set size of this process (`VmHWM`) in MiB. Worker
/// processes are not included.
#[cfg(target_os = "linux")]
pub fn peak_rss_mib() -> f64 {
    /// `struct rusage` on 64-bit Linux: two `timeval`s, then fourteen
    /// `long`s of which `ru_maxrss` (KiB) is the first.
    #[repr(C)]
    struct Rusage {
        times: [i64; 4],
        maxrss: i64,
        rest: [i64; 13],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }
    const RUSAGE_SELF: i32 = 0;
    let mut usage = Rusage {
        times: [0; 4],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `getrusage` writes one `struct rusage` through the pointer
    // and keeps no reference to it; `Rusage` has that struct's size and
    // layout on 64-bit Linux and outlives the call.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail");
    usage.maxrss as f64 / 1024.0
}

/// Size in bytes of the largest cache CPUID describes (the LLC), when
/// the processor reports it.
#[cfg(target_arch = "x86_64")]
pub fn llc_bytes() -> Option<usize> {
    use std::arch::x86_64::{__cpuid, __cpuid_count};
    // Deterministic cache parameters: Intel leaf 4, AMD leaf 0x8000_001D,
    // one sub-leaf per cache until a null cache type.
    let has_intel = __cpuid(0).eax >= 4;
    let has_amd = __cpuid(0x8000_0000).eax >= 0x8000_001D;
    let mut largest = 0usize;
    for (leaf, present) in [(4u32, has_intel), (0x8000_001D, has_amd)] {
        if !present {
            continue;
        }
        for sub in 0..16 {
            let r = __cpuid_count(leaf, sub);
            if r.eax & 0x1f == 0 {
                break;
            }
            let ways = ((r.ebx >> 22) & 0x3ff) as usize + 1;
            let partitions = ((r.ebx >> 12) & 0x3ff) as usize + 1;
            let line = (r.ebx & 0xfff) as usize + 1;
            let sets = r.ecx as usize + 1;
            largest = largest.max(ways * partitions * line * sets);
        }
        if largest > 0 {
            break;
        }
    }
    (largest > 0).then_some(largest)
}

#[cfg(not(target_arch = "x86_64"))]
pub fn llc_bytes() -> Option<usize> {
    None
}

/// The fan-out bandwidth ceiling: a `memcpy` between two arrays each
/// four times the LLC, median of five copies after one that faults the
/// pages in.
#[derive(Debug, Clone, Copy)]
pub struct MemcpyProbe {
    pub gbps: f64,
    /// The LLC size, `None` when CPUID does not report it (then 32 MiB
    /// is assumed for sizing).
    pub llc_bytes: Option<usize>,
    pub array_bytes: usize,
    pub copies: usize,
}

pub fn memcpy_probe() -> MemcpyProbe {
    const COPIES: usize = 5;
    let llc = llc_bytes();
    let len = 4 * llc.unwrap_or(32 << 20);
    let src = vec![0x5au8; len];
    let mut dst = vec![0u8; len];
    dst.copy_from_slice(&src);
    let secs: Vec<f64> = (0..COPIES)
        .map(|_| {
            let t = Instant::now();
            dst.copy_from_slice(std::hint::black_box(&src));
            std::hint::black_box(&mut dst);
            t.elapsed().as_secs_f64()
        })
        .collect();
    MemcpyProbe {
        gbps: len as f64 / median(&secs).max(1e-12) / 1e9,
        llc_bytes: llc,
        array_bytes: len,
        copies: COPIES,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_ten_samples_beyond_it() {
        let lat: Vec<u64> = (1..=400).collect();
        let t = tail(&lat);
        assert_eq!(t.beyond, 10);
        assert_eq!(t.tail_ns, 390);
        assert_eq!(t.p50_ns, 200);
        let lat: Vec<u64> = (1..=5000).collect();
        let t = tail(&lat);
        assert_eq!((t.tail_ns, t.tail_pct), (4950, 99.0));
    }

    #[test]
    fn windows_cover_the_run() {
        assert_eq!(windows(2_000).len(), 20);
        assert_eq!(windows(2_000)[..2], [(0, 100), (100, 200)]);
        assert_eq!(windows(2_000).last(), Some(&(1_900, 2_000)));
        assert_eq!(windows(32_500).len(), 32);
        assert_eq!(windows(32_500).last(), Some(&(31_484, 32_500)));
        assert_eq!(windows(3), vec![(0, 1), (1, 2), (2, 3)]);
    }

    #[test]
    fn catalogs_match_benchmark_json() {
        let json = include_str!("../../BENCHMARK.json");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let declared = json.matches("\"unit\":").count();
        assert_eq!(declared, END_TO_END.len() + PER_LAYER.len());
    }
}
