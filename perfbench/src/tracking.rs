//! `tracking_512`: the paper's vehicle tracker (get_windows, a `df`
//! detection farm, predict) on 512² frames of three vehicles, one client,
//! closed loop. The dispatch workload: a frame carries about nine tiny
//! windows, so the pool's dispatch, fold and wake-up dominate.
//!
//! The frames form a clip with an occlusion interval, so a fixed share
//! of frames take the reinitialisation path; the tracker state restarts
//! at the top of every clip lap.

use std::time::{Duration, Instant};

use skipper::{Backend, Executable, PoolBackend, PoolExecutable, SeqBackend, Workers};
use skipper_apps::tracking::{
    self, accum_marks, detect_marks, init_state, DetectFarm, Mark, Mode, TrackState, TrackerConfig,
};
use skipper_vision::synth::{Occlusion, Scene, SceneConfig};
use skipper_vision::{Image, Window};

use crate::measure::{self, closed_loop, median, Outcome, Spans};
use crate::Args;

const SIZE: usize = 512;
const VEHICLES: usize = 3;
/// The farm degree: reinitialisation splits the frame into this many
/// windows.
const FARM: usize = 8;
/// Frames per clip at 25 Hz.
const CLIP: usize = 100;
/// Clip frames `OCCLUDED.0..OCCLUDED.1` hide every mark of vehicle 0, so
/// the frame after (like the clip's first) runs the reinitialisation
/// path: 2 frames in 100, which puts the p99 inside the reinit frames.
const OCCLUDED: (usize, usize) = (40, 41);
/// Scene time of the clip's first frame, seconds: a stretch of the
/// vehicles' motion in which all three stay locked outside the occlusion.
const START_S: f64 = 3.0;

fn config() -> TrackerConfig {
    TrackerConfig {
        nproc: FARM,
        n_vehicles: VEHICLES,
        width: SIZE,
        height: SIZE,
        ..TrackerConfig::default()
    }
}

/// The seeded clip. The seed sets the pixel noise only: the geometry,
/// and with it the share of reinitialisation frames, is the same for
/// every seed.
pub fn inputs(seed: u64) -> Vec<Image<u8>> {
    let start = START_S;
    let mut scene = Scene::with_vehicles(
        SceneConfig {
            width: SIZE,
            height: SIZE,
            noise_amplitude: 8,
            seed: measure::mix(seed, 1),
            ..SceneConfig::default()
        },
        VEHICLES,
    );
    scene.add_occlusion(Occlusion {
        vehicle: 0,
        t0: start + OCCLUDED.0 as f64 / 25.0,
        t1: start + OCCLUDED.1 as f64 / 25.0,
        hidden_marks: 3,
    });
    (0..CLIP)
        .map(|k| scene.render(start + k as f64 / 25.0))
        .collect()
}

type Step = (TrackState, Vec<Mark>);

/// The sequential reference: `loop_step_seq` over one clip lap.
fn reference(frames: &[Image<u8>]) -> Vec<Step> {
    let mut state = init_state(config());
    frames
        .iter()
        .map(|f| {
            let step = tracking::loop_step_seq(&state, f);
            state = step.0.clone();
            step
        })
        .collect()
}

pub fn run(args: &Args) -> Outcome {
    let workers = measure::workers();
    let frames = inputs(args.seed);
    println!(
        "inputs: {CLIP}-frame clip {SIZE}x{SIZE}, {VEHICLES} vehicles, occlusion on frames \
         {}..{}, fingerprint {:#018x}",
        OCCLUDED.0,
        OCCLUDED.1,
        measure::image_fingerprint(&frames)
    );
    let expected = reference(&frames);
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
    farm: &'p DetectFarm,
) -> PoolExecutable<'p, DetectFarm> {
    <PoolBackend as Backend<DetectFarm, &[Window]>>::prepare(backend, farm)
}

/// Whether a step matches the reference (the compared copy of the
/// state is corrupted under `--inject-fault`).
fn matches(args: &Args, step: &Step, want: &Step) -> bool {
    if args.corrupt() {
        let mut wrong = step.0.clone();
        wrong.frame += 1;
        return wrong == want.0 && step.1 == want.1;
    }
    step == want
}

/// The tracker driven frame by frame: the state threads through the
/// clip and restarts at each lap.
struct Tracker<'a> {
    frames: &'a [Image<u8>],
    expected: &'a [Step],
    state: TrackState,
}

impl<'a> Tracker<'a> {
    fn new(frames: &'a [Image<u8>], expected: &'a [Step]) -> Self {
        Tracker {
            frames,
            expected,
            state: init_state(config()),
        }
    }

    /// Frame `k`: the clip index, resetting the state at a lap start.
    fn at(&mut self, k: u64) -> usize {
        let i = k as usize % self.frames.len();
        if i == 0 {
            self.state = init_state(config());
        }
        i
    }

    /// Keeps the stepped state, or the reference state after a panic.
    fn advance(&mut self, i: usize, step: Option<Step>, args: &Args) -> bool {
        match step {
            Some(step) => {
                let ok = matches(args, &step, &self.expected[i]);
                self.state = step.0;
                ok
            }
            None => {
                self.state = self.expected[i].0.clone();
                false
            }
        }
    }
}

fn lap<E>(exec: &E, frames: &[Image<u8>])
where
    E: for<'a> Executable<&'a [Window], Output = Vec<Mark>>,
{
    let mut state = init_state(config());
    for f in frames {
        state = tracking::loop_step_prepared(exec, &state, f).0;
    }
}

fn plain_loop<E>(
    exec: &E,
    budget: Duration,
    args: &Args,
    frames: &[Image<u8>],
    expected: &[Step],
) -> measure::Run
where
    E: for<'a> Executable<&'a [Window], Output = Vec<Mark>>,
{
    let mut tracker = Tracker::new(frames, expected);
    closed_loop(budget, |k| {
        let i = tracker.at(k);
        let state = &tracker.state;
        let (latency, step) =
            measure::guarded(|| tracking::loop_step_prepared(exec, state, &frames[i]));
        (latency, tracker.advance(i, step, args))
    })
}

fn untraced(
    args: &Args,
    frames: &[Image<u8>],
    expected: &[Step],
    workers: usize,
    out: &mut Outcome,
) {
    let farm = tracking::detection_farm(FARM);
    let (run, setup) = measure::segmented(
        args.budget,
        || {
            let backend = PoolBackend::configured(Workers::exact(workers));
            lap(&prepare_pool(&backend, &farm), frames);
            backend
        },
        |backend, budget| {
            plain_loop(
                &prepare_pool(backend, &farm),
                budget,
                args,
                frames,
                expected,
            )
        },
    );
    out.count(run.frames(), run.failed);
    measure::end_to_end(out, &setup, &run);
}

static DETECT: Spans = Spans::new();

fn traced_detect(window: &Window) -> Vec<Mark> {
    DETECT.time(|| detect_marks(window))
}

/// `detection_farm` with every `detect_marks` call timed.
fn traced_farm() -> DetectFarm {
    skipper::df(FARM, traced_detect as _, accum_marks as _, Vec::new())
}

/// Per-frame layer samples of the traced run.
#[derive(Debug, Default)]
struct Layers {
    get_windows_us: Vec<f64>,
    detect_us: Vec<f64>,
    predict_us: Vec<f64>,
    dispatch_us: Vec<f64>,
    frame_ms: Vec<f64>,
    seq_frame_ms: Vec<f64>,
    windows: u64,
    init_frames: u64,
}

fn traced(args: &Args, frames: &[Image<u8>], expected: &[Step], workers: usize, out: &mut Outcome) {
    let farm = tracking::detection_farm(FARM);
    let tfarm = traced_farm();
    let backend = PoolBackend::configured(Workers::exact(workers));
    let exec = prepare_pool(&backend, &farm);
    lap(&exec, frames);
    let plain = plain_loop(&exec, args.budget.mul_f64(0.3), args, frames, expected);

    let texec = prepare_pool(&backend, &tfarm);
    let seq_exec = <SeqBackend as Backend<DetectFarm, &[Window]>>::prepare(&SeqBackend, &farm);
    let us = |d: Duration| d.as_secs_f64() * 1e6;
    let mut l = Layers::default();
    let mut tracker = Tracker::new(frames, expected);
    let run = closed_loop(args.budget.mul_f64(0.7), |k| {
        let i = tracker.at(k);
        let state = tracker.state.clone();
        let frame = &frames[i];
        DETECT.take();
        let t = Instant::now();
        let (t_windows, windows) = measure::guarded(|| tracking::get_windows(&state, frame));
        let windows = windows.unwrap_or_default();
        let (t_farm, marks) = measure::guarded(|| texec.run(&windows[..]));
        let (t_predict, step) = match marks {
            Some(marks) => measure::guarded(|| tracking::predict(&state, marks)),
            None => (Duration::ZERO, None),
        };
        let latency = t.elapsed();
        let detect_ns: u64 = DETECT.take().iter().sum();
        let (t_seq_farm, _) = measure::guarded(|| seq_exec.run(&windows[..]));
        let (t_seq, seq_step) = measure::guarded(|| tracking::loop_step_seq(&state, frame));
        l.get_windows_us.push(us(t_windows));
        l.detect_us.push(detect_ns as f64 / 1e3);
        l.predict_us.push(us(t_predict));
        l.dispatch_us.push(us(t_farm) - us(t_seq_farm));
        l.frame_ms.push(latency.as_secs_f64() * 1e3);
        l.seq_frame_ms.push(t_seq.as_secs_f64() * 1e3);
        l.windows += windows.len() as u64;
        l.init_frames += u64::from(state.mode == Mode::Init);
        let seq_ok = seq_step.as_ref() == Some(&expected[i]);
        (latency, tracker.advance(i, step, args) && seq_ok)
    });
    out.count(plain.frames(), plain.failed);
    out.count(run.frames(), run.failed);

    let n = run.frames();
    let plain_ms = measure::median_ns(&plain.lat_ns, 1e6);
    out.push("apps.tracking.get_windows_us", median(&l.get_windows_us), n);
    out.push(
        "apps.tracking.detect_marks_us",
        median(&l.detect_us),
        l.windows,
    );
    out.push("apps.tracking.predict_us", median(&l.predict_us), n);
    out.push(
        "apps.tracking.windows_per_frame",
        l.windows as f64 / n as f64,
        n,
    );
    out.push(
        "apps.tracking.init_frames_frac",
        l.init_frames as f64 / n as f64,
        n,
    );
    out.push("skipper.df.dispatch_us", median(&l.dispatch_us), n);
    out.push("skipper.seq.frame_ms", median(&l.seq_frame_ms), n);
    out.push("skipper.pool.frame_ms", median(&l.frame_ms), n);
    out.push("ceiling.ideal_speedup", workers as f64, 1);
    out.push(
        "bench.trace_overhead_ms",
        median(&l.frame_ms) - plain_ms,
        n + plain.frames(),
    );
    println!(
        "tracing overhead: traced frame {:.4} ms - untraced {:.4} ms ({} + {} frames); \
         {} windows over {n} frames, {} in reinitialisation",
        median(&l.frame_ms),
        plain_ms,
        n,
        plain.frames(),
        l.windows,
        l.init_frames
    );
}
