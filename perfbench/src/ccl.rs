//! `ccl_1080p`: connected-component labelling of 1080p frames through a
//! prepared `ccl::ccl_program(workers)` on the pool, one client, closed
//! loop. The kernel workload: `label_band` is nearly all of the frame.
//!
//! The traced run also prints the "where does a 1080p CCL frame go"
//! table: the same traced program on the seq, pool and shard rungs.

use std::time::Duration;

use skipper::{Backend, Executable, PoolBackend, Scm, SeqBackend, ShardBackend, Workers};
use skipper_apps::ccl::{self, CclProgram, LabelledBand};
use skipper_vision::split::RowBand;
use skipper_vision::synth::random_blobs;
use skipper_vision::{pixel_alloc_count, Image};

use crate::measure::{self, closed_loop, median, Outcome, Run, Spans};
use crate::Args;

const WIDTH: usize = 1920;
const HEIGHT: usize = 1080;
const BLOBS: usize = 160;
/// Distinct frames, cycled: a frame is not cache-resident from its
/// previous run, and the labelling cost of a run, which depends on the
/// blobs drawn, varies little from seed to seed.
const ROTATION: usize = 16;
/// Shards of the shard rung, each a pool of `workers` threads.
const SHARDS: usize = 2;
/// Bytes a band labelling touches per pixel: one read, one `u32` label
/// written. A model of the traffic, not a measurement of it.
const LABEL_BYTES_PER_PIXEL: f64 = 5.0;

/// The seeded input rotation.
pub fn inputs(seed: u64) -> Vec<Image<u8>> {
    (0..ROTATION as u64)
        .map(|k| random_blobs(WIDTH, HEIGHT, BLOBS, measure::mix(seed, k)))
        .collect()
}

pub fn run(args: &Args) -> Outcome {
    let workers = measure::workers();
    let frames = inputs(args.seed);
    println!(
        "inputs: {ROTATION} frames {WIDTH}x{HEIGHT}, {BLOBS} blobs each, fingerprint {:#018x}",
        measure::image_fingerprint(&frames)
    );
    let expected: Vec<u32> = frames.iter().map(ccl::count_components_seq).collect();
    let mut out = Outcome::default();
    if args.trace {
        traced(args, &frames, &expected, workers, &mut out);
    } else {
        untraced(args, &frames, &expected, workers, &mut out);
    }
    out
}

fn prepare_pool<'p>(
    backend: &'p PoolBackend,
    prog: &'p CclProgram,
) -> skipper::PoolExecutable<'p, CclProgram> {
    <PoolBackend as Backend<CclProgram, &Image<u8>>>::prepare(backend, prog)
}

/// One pass over the rotation: fills the workers' frame arenas.
fn lap<E>(exec: &E, frames: &[Image<u8>])
where
    E: for<'a> Executable<&'a Image<u8>, Output = u32>,
{
    for f in frames {
        exec.run(f);
    }
}

/// Frame `k` of the rotation: its latency and whether its count is right.
fn frame<E>(
    exec: &E,
    args: &Args,
    k: u64,
    frames: &[Image<u8>],
    expected: &[u32],
) -> (Duration, bool)
where
    E: for<'a> Executable<&'a Image<u8>, Output = u32>,
{
    let i = k as usize % frames.len();
    let (latency, count) = measure::guarded(|| exec.run(&frames[i]));
    let count = count.map(|c| if args.corrupt() { c + 1 } else { c });
    (latency, count == Some(expected[i]))
}

fn untraced(
    args: &Args,
    frames: &[Image<u8>],
    expected: &[u32],
    workers: usize,
    out: &mut Outcome,
) {
    let prog = ccl::ccl_program(workers);
    // The pool's caller helps run queued bands, leasing label maps from
    // this thread's arena, which lives as long as the process. When the
    // workers wake late it labels two bands of one frame and the arena
    // grows a second band-sized slot; whether that ever happens depends
    // on scheduling, so grow it up front: otherwise `peak_rss_mb` differs
    // by one band's label map (4 MiB) from run to run.
    let mut bands = ccl::split_bands(&frames[0], workers).into_iter();
    let held = bands.next().map(ccl::label_band);
    drop(bands.next().map(ccl::label_band));
    drop(held);
    let (run, setup) = measure::segmented(
        args.budget,
        || {
            let backend = PoolBackend::configured(Workers::exact(workers));
            lap(&prepare_pool(&backend, &prog), frames);
            backend
        },
        |backend, budget| {
            let exec = prepare_pool(backend, &prog);
            closed_loop(budget, |k| frame(&exec, args, k, frames, expected))
        },
    );
    out.count(run.frames(), run.failed);
    measure::end_to_end(out, &setup, &run);
}

static SPLIT: Spans = Spans::new();
static LABEL: Spans = Spans::new();
static MERGE: Spans = Spans::new();

fn traced_split(img: &Image<u8>, n: usize) -> Vec<RowBand> {
    SPLIT.time(|| ccl::split_bands(img, n))
}

fn traced_label(band: RowBand) -> LabelledBand {
    LABEL.time(|| ccl::label_band(band))
}

fn traced_merge(parts: Vec<LabelledBand>) -> u32 {
    MERGE.time(|| ccl::merge_bands(parts))
}

/// `ccl_program` with every stage call timed by the benchmark.
fn traced_program(n: usize) -> CclProgram {
    Scm::new(n, traced_split, traced_label, traced_merge)
}

/// Per-frame layer times of one rung, in ms.
#[derive(Debug, Default)]
struct Rung {
    split: Vec<f64>,
    label: Vec<f64>,
    max_band: Vec<f64>,
    merge: Vec<f64>,
    overhead: Vec<f64>,
    frame: Vec<f64>,
    bands: u64,
}

/// Runs the traced program on one rung. With `parallel` bands the
/// critical path holds the slowest band; otherwise every band.
fn traced_rung<E>(
    exec: &E,
    parallel: bool,
    budget: Duration,
    args: &Args,
    frames: &[Image<u8>],
    expected: &[u32],
) -> (Rung, Run)
where
    E: for<'a> Executable<&'a Image<u8>, Output = u32>,
{
    let ms = |ns: &[u64]| ns.iter().sum::<u64>() as f64 / 1e6;
    let mut rung = Rung::default();
    let run = closed_loop(budget, |k| {
        let (latency, ok) = frame(exec, args, k, frames, expected);
        let (split, bands, merge) = (SPLIT.take(), LABEL.take(), MERGE.take());
        let max_band = bands.iter().copied().max().unwrap_or(0) as f64 / 1e6;
        let frame_ms = latency.as_secs_f64() * 1e3;
        let critical = if parallel { max_band } else { ms(&bands) };
        rung.split.push(ms(&split));
        rung.label.push(ms(&bands));
        rung.max_band.push(max_band);
        rung.merge.push(ms(&merge));
        rung.overhead
            .push(frame_ms - ms(&split) - critical - ms(&merge));
        rung.frame.push(frame_ms);
        rung.bands += bands.len() as u64;
        (latency, ok)
    });
    (rung, run)
}

fn traced(args: &Args, frames: &[Image<u8>], expected: &[u32], workers: usize, out: &mut Outcome) {
    let probe = measure::memcpy_probe();
    let prog = ccl::ccl_program(workers);
    let tprog = traced_program(workers);
    let share = |f: f64| args.budget.mul_f64(f);

    let backend = PoolBackend::configured(Workers::exact(workers));
    let exec = prepare_pool(&backend, &prog);
    lap(&exec, frames);
    let plain = closed_loop(share(0.25), |k| frame(&exec, args, k, frames, expected));

    let texec = prepare_pool(&backend, &tprog);
    let allocs_before = pixel_alloc_count();
    let (pool, pool_run) = traced_rung(&texec, true, share(0.35), args, frames, expected);
    let allocs = pixel_alloc_count() - allocs_before;

    let seq_exec = <SeqBackend as Backend<CclProgram, &Image<u8>>>::prepare(&SeqBackend, &tprog);
    let (seq, seq_run) = traced_rung(&seq_exec, false, share(0.2), args, frames, expected);

    let shard = ShardBackend::configured(SHARDS, Workers::exact(workers));
    let shard_exec = <ShardBackend as Backend<CclProgram, &Image<u8>>>::prepare(&shard, &tprog);
    lap(&shard_exec, frames);
    let (sharded, shard_run) = traced_rung(&shard_exec, true, share(0.2), args, frames, expected);

    for run in [&plain, &pool_run, &seq_run, &shard_run] {
        out.count(run.frames(), run.failed);
    }
    print_table(
        workers,
        &probe,
        &[("seq", &seq), ("pool", &pool), ("shard", &sharded)],
    );

    let n = pool_run.frames();
    let label_ms = median(&pool.label);
    let plain_ms = measure::median_ns(&plain.lat_ns, 1e6);
    out.push("vision.split_ms", median(&pool.split), n);
    out.push("vision.label_ms", label_ms, pool.bands);
    out.push(
        "vision.label_max_band_ms",
        median(&pool.max_band),
        pool.bands,
    );
    out.push("apps.ccl.merge_ms", median(&pool.merge), n);
    out.push("skipper.pool.overhead_ms", median(&pool.overhead), n);
    out.push("skipper.pool.frame_ms", median(&pool.frame), n);
    out.push("vision.pixel_allocs_per_frame", allocs as f64 / n as f64, n);
    out.push(
        "vision.label_computed_gbps",
        LABEL_BYTES_PER_PIXEL * (WIDTH * HEIGHT) as f64 / (label_ms / 1e3) / 1e9,
        pool.bands,
    );
    out.push("skipper.seq.frame_ms", median(&seq.frame), seq_run.frames());
    out.push(
        "skipper.shard.frame_ms",
        median(&sharded.frame),
        shard_run.frames(),
    );
    out.push("ceiling.ideal_speedup", workers as f64, 1);
    out.push("ceiling.memcpy_gbps", probe.gbps, probe.copies as u64);
    out.push(
        "bench.trace_overhead_ms",
        median(&pool.frame) - plain_ms,
        n + plain.frames(),
    );
    println!(
        "tracing overhead: traced pool frame {:.4} ms - untraced {:.4} ms ({} + {} frames)",
        median(&pool.frame),
        plain_ms,
        n,
        plain.frames()
    );
    println!(
        "vision.label_computed_gbps counts {LABEL_BYTES_PER_PIXEL} computed bytes per pixel \
         (1 read, 4 written), not measured traffic"
    );
}

/// The ROADMAP item-2 headline: where a 1080p CCL frame's time goes on
/// each rung, next to the ceilings.
fn print_table(workers: usize, probe: &measure::MemcpyProbe, rungs: &[(&str, &Rung)]) {
    let seq_frame = rungs
        .iter()
        .find(|(name, _)| *name == "seq")
        .map_or(0.0, |(_, r)| median(&r.frame));
    println!(
        "where does a 1080p CCL frame go: median ms per frame, traced, {workers} workers, \
         {workers} bands; overhead = frame - split - critical label - merge"
    );
    println!(
        "{:<6} {:>7} {:>8} {:>9} {:>9} {:>8} {:>9} {:>9} {:>8}",
        "rung", "frames", "split", "label", "max band", "merge", "overhead", "frame", "vs seq"
    );
    for (name, r) in rungs {
        let frame = median(&r.frame);
        println!(
            "{:<6} {:>7} {:>8.4} {:>9.4} {:>9.4} {:>8.4} {:>9.4} {:>9.4} {:>7.2}x",
            name,
            r.frame.len(),
            median(&r.split),
            median(&r.label),
            median(&r.max_band),
            median(&r.merge),
            median(&r.overhead),
            frame,
            seq_frame / frame.max(1e-9)
        );
    }
    println!(
        "{:<6} n/a: DistBackend runs only conformance-catalog cases (df, scm, tf, then, \
         itermem) shipped over the wire; it cannot run CCL",
        "dist"
    );
    let mib = |b: usize| b as f64 / (1 << 20) as f64;
    let llc = match probe.llc_bytes {
        Some(b) => format!("LLC {:.1} MiB by CPUID", mib(b)),
        None => "LLC unknown, 32 MiB assumed".to_string(),
    };
    println!(
        "ceilings: ideal speedup {workers:.2}x (= workers); memcpy {:.2} GB/s copied \
         ({llc}; probe arrays 2 x {:.1} MiB, each 4x the LLC; median of {} copies)",
        probe.gbps,
        mib(probe.array_bytes),
        probe.copies
    );
}
