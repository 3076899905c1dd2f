//! `serve_tracking`: open loop over `skipper::serve`. 32 camera streams
//! arrive as Poisson processes on a skewed ladder of per-stream rates
//! summing to 4,000 frames/s, admission `Block`, and every frame runs the
//! `apps::kernels::track_loop` body (128² frames, one vehicle). Many
//! independent short frames: cross-stream batching and the event loop,
//! with latency dominated by waiting, not compute.

use std::num::NonZeroUsize;
use std::time::{Duration, Instant};

use skipper::receipt::Fnv64;
use skipper::serve::traffic;
use skipper::{
    AdmissionPolicy, PoolBackend, ServeConfig, ServeOutcome, Skeleton, StreamSpec, Workers,
};
use skipper_apps::kernels::{self, TrackBody};
use skipper_exec::Value;
use skipper_vision::synth::{Scene, SceneConfig};

use crate::measure::{self, median_ns, Outcome, Spans};
use crate::Args;

const STREAMS: usize = 32;
const TOTAL_RATE_HZ: f64 = 4000.0;
/// Stream `i` runs at `base / (1 + i * SKEW)`: a few hot streams, a cool
/// tail.
const SKEW: f64 = 0.1;
/// Distinct frames per clip; each stream starts at its own offset.
const CLIP: usize = 64;
/// The body's farm degree (the `track_loop` state's `nproc`).
const FARM: usize = 4;
/// Frames per stream in the set-up's warm lap.
const WARM: usize = 4;

/// Seeded open-loop traffic: one encoded frame clip and, per stream, its
/// arrival times and clip offset.
pub struct Traffic {
    clip: Vec<Value>,
    streams: Vec<(Vec<u64>, usize)>,
    fingerprint: u64,
}

impl Traffic {
    pub fn new(seed: u64, horizon: Duration) -> Traffic {
        let cfg = kernels::tracker_dsl_config();
        let scene = Scene::with_vehicles(
            SceneConfig {
                width: cfg.width,
                height: cfg.height,
                focal_px: cfg.focal_px,
                noise_amplitude: 4,
                seed: measure::mix(seed, 0),
                ..SceneConfig::default()
            },
            1,
        );
        let mut h = Fnv64::new();
        let clip = (0..CLIP)
            .map(|k| {
                let img = scene.render(k as f64 / 25.0);
                h.write(img.as_slice());
                kernels::image_value(&img)
            })
            .collect();
        let ladder = traffic::skewed_rates_hz(1.0, STREAMS, SKEW);
        let base = TOTAL_RATE_HZ / ladder.iter().sum::<f64>();
        let horizon_ns = horizon.as_nanos() as u64;
        let streams = ladder
            .iter()
            .enumerate()
            .map(|(s, r)| {
                let rate = base * r;
                let n = (rate * horizon.as_secs_f64() * 1.5) as usize + 64;
                let mut arrivals =
                    traffic::poisson_arrivals_ns(measure::mix(seed, 100 + s as u64), rate, n);
                arrivals.retain(|&at| at < horizon_ns);
                let offset = (measure::mix(seed, 200 + s as u64) % CLIP as u64) as usize;
                for at in &arrivals {
                    h.write(&at.to_le_bytes());
                }
                h.write(&(offset as u64).to_le_bytes());
                (arrivals, offset)
            })
            .collect();
        Traffic {
            clip,
            streams,
            fingerprint: h.finish(),
        }
    }

    fn frames(&self) -> u64 {
        self.streams.iter().map(|(a, _)| a.len() as u64).sum()
    }

    /// Stream `s`'s `k`-th frame.
    fn frame(&self, s: usize, k: usize) -> Value {
        self.clip[(self.streams[s].1 + k) % CLIP].clone()
    }

    fn specs(&self, init: &Value) -> Vec<StreamSpec<Value, Value>> {
        (0..STREAMS)
            .map(|s| {
                let arrivals = &self.streams[s].0;
                let frames = (0..arrivals.len()).map(|k| self.frame(s, k));
                StreamSpec::timed(init.clone(), traffic::timed(arrivals, frames))
            })
            .collect()
    }
}

static BODY: Spans = Spans::new();
static CODEC: Spans = Spans::new();

/// The loop body with every call timed by the benchmark.
struct TracedBody(TrackBody);

impl<'a> Skeleton<&'a (Value, Value)> for TracedBody {
    type Output = (Value, Value);

    fn run_declarative(&self, t: &'a (Value, Value)) -> (Value, Value) {
        BODY.time(|| self.0.run_declarative(t))
    }

    fn run_threaded(&self, t: &'a (Value, Value), workers: Option<NonZeroUsize>) -> (Value, Value) {
        BODY.time(|| self.0.run_threaded(t, workers))
    }
}

fn config() -> ServeConfig {
    ServeConfig {
        admission: AdmissionPolicy::Block,
        ..ServeConfig::default()
    }
}

/// Frames that failed: rejected or panicked at the server, plus every
/// served output (and final state) that differs from the stream's
/// sequential `run_declarative` fold. With `time_codec` the fold also
/// times the body's wire codec on each frame.
fn failures(
    traffic: &Traffic,
    body: &TrackBody,
    init: &Value,
    served: &ServeOutcome<Value, Value>,
    args: &Args,
    time_codec: bool,
) -> u64 {
    let mut failed = served.report.rejected + served.report.failed;
    for (s, result) in served.streams.iter().enumerate() {
        let mut z = init.clone();
        let mut wrong = 0u64;
        for k in 0..traffic.streams[s].0.len() {
            let pair = (z, traffic.frame(s, k));
            if time_codec {
                CODEC.time(|| {
                    std::hint::black_box(kernels::image_of(&pair.1));
                    std::hint::black_box(kernels::state_value(&kernels::state_of(&pair.0)));
                });
            }
            let (z2, y) = body.run_declarative(&pair);
            let got = result.outputs.get(k).map(|got| {
                if args.corrupt() {
                    Value::list(vec![got.clone()])
                } else {
                    got.clone()
                }
            });
            wrong += u64::from(got.as_ref() != Some(&y));
            z = z2;
        }
        let state_wrong = result.error.is_none() && result.state != z;
        failed += wrong.max(u64::from(state_wrong));
    }
    failed.min(traffic.frames())
}

fn warm(backend: &PoolBackend, body: &TrackBody, traffic: &Traffic, init: &Value) {
    let streams = (0..STREAMS)
        .map(|s| {
            let frames: Vec<Value> = (0..WARM).map(|k| traffic.frame(s, k)).collect();
            StreamSpec::eager(init.clone(), skipper::stream_of(frames))
        })
        .collect();
    skipper::serve(backend, body, streams, config());
}

pub fn run(args: &Args) -> Outcome {
    let workers = measure::workers();
    let program = kernels::track_loop(FARM);
    let (body, init) = (program.body(), program.init());
    let mut out = Outcome::default();
    if !args.trace {
        let share = args.budget / measure::SEGMENTS as u32;
        let traffics: Vec<Traffic> = (0..measure::SEGMENTS as u64)
            .map(|i| Traffic::new(measure::mix(args.seed, 1000 + i), share))
            .collect();
        let offered = describe(&traffics, args.budget);
        let mut next = traffics.iter();
        let (run, setup) = measure::segmented(
            args.budget,
            || {
                let backend = PoolBackend::configured(Workers::exact(workers));
                warm(&backend, body, &traffics[0], init);
                backend
            },
            |backend, _| {
                let traffic = next.next().expect("one traffic per segment");
                let served = skipper::serve(backend, body, traffic.specs(init), config());
                measure::Run {
                    failed: failures(traffic, body, init, &served, args, false),
                    elapsed: Duration::from_nanos(served.report.elapsed_ns),
                    lat_ns: served.report.latencies_ns,
                    ..measure::Run::default()
                }
            },
        );
        out.count(offered, run.failed);
        measure::end_to_end(&mut out, &setup, &run);
        return out;
    }

    // Traced: an untraced half, then a traced half on fresh traffic.
    let halves: Vec<Traffic> = (0..2)
        .map(|i| Traffic::new(measure::mix(args.seed, 2000 + i), args.budget / 2))
        .collect();
    describe(&halves, args.budget);
    let (plain_traffic, traced_traffic) = (&halves[0], &halves[1]);
    let backend = PoolBackend::configured(Workers::exact(workers));
    warm(&backend, body, plain_traffic, init);
    let plain = skipper::serve(&backend, body, plain_traffic.specs(init), config());
    let failed = failures(plain_traffic, body, init, &plain, args, false);
    out.count(plain_traffic.frames(), failed);

    BODY.take();
    let traced_body = TracedBody(*body);
    let t = Instant::now();
    let traced = skipper::serve(&backend, &traced_body, traced_traffic.specs(init), config());
    let wall = t.elapsed();
    let body_ns = BODY.take();
    CODEC.take();
    let failed = failures(traced_traffic, body, init, &traced, args, true);
    out.count(traced_traffic.frames(), failed);
    let codec_ns = CODEC.take();

    let r = &traced.report;
    let p50_us = measure::tail(&r.latencies_ns).p50_ns as f64 / 1e3;
    let plain_p50_us = measure::tail(&plain.report.latencies_ns).p50_ns as f64 / 1e3;
    let body_us = median_ns(&body_ns, 1e3);
    let busy = body_ns.iter().sum::<u64>() as f64 / (wall.as_nanos() as f64 * workers as f64);
    out.push(
        "skipper.serve.frames_per_batch",
        r.served as f64 / r.batches.max(1) as f64,
        r.batches,
    );
    out.push("skipper.serve.body_us", body_us, body_ns.len() as u64);
    out.push(
        "apps.kernels.codec_us",
        median_ns(&codec_ns, 1e3),
        codec_ns.len() as u64,
    );
    out.push("skipper.serve.overhead_us", p50_us - body_us, r.served);
    out.push("skipper.pool.busy_frac", busy, body_ns.len() as u64);
    out.push("ceiling.ideal_speedup", workers as f64, 1);
    out.push(
        "bench.trace_overhead_ms",
        (p50_us - plain_p50_us) / 1e3,
        r.served + plain.report.served,
    );
    println!(
        "tracing overhead: traced p50 {p50_us:.2} us - untraced p50 {plain_p50_us:.2} us \
         ({} + {} frames); busy = body time / (wall x {workers} workers)",
        r.served, plain.report.served
    );
    out
}

/// Prints the traffic of a run (consecutive segments) with one
/// fingerprint over all of it; returns the frames offered.
fn describe(traffics: &[Traffic], horizon: Duration) -> u64 {
    let mut h = Fnv64::new();
    for t in traffics {
        h.write(&t.fingerprint.to_le_bytes());
    }
    let offered = traffics.iter().map(Traffic::frames).sum();
    println!(
        "inputs: {} segments of {STREAMS} streams, {offered} frames over {:.1} s (Poisson, \
         {TOTAL_RATE_HZ} frames/s offered, skew {SKEW}), {CLIP}-frame 128x128 clips, \
         fingerprint {:#018x}",
        traffics.len(),
        horizon.as_secs_f64(),
        h.finish()
    );
    offered
}
