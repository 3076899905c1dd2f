//! `dist_farm`: the conformance `df_case(4)` farm over 65,536 `i64` items
//! per frame on a `DistBackend` fleet of worker processes, one client,
//! closed loop. The only workload that crosses `wire` and the process
//! pipes, which take most of its frame time.
//!
//! The fleet's workers are this executable started with
//! [`WORKER_ARG`], each serving the dist protocol with a one-thread pool.

use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

use skipper::conformance::{df_case, DfProg};
use skipper::receipt::{partition, receipted, wire_hash};
use skipper::wire::{decode_document, encode_document, ToWire, WireValue};
use skipper::{Backend, DistBackend, Executable, PoolBackend, RunReceipt, SeqBackend, Workers};

use crate::measure::{self, closed_loop, median, Outcome, Run};
use crate::Args;

/// First argument that turns this executable into a dist worker.
pub const WORKER_ARG: &str = "--dist-worker";

const ITEMS: usize = 65_536;
const DEGREE: usize = 4;
/// Distinct frames, cycled.
const ROTATION: usize = 8;

/// Serves the dist protocol on stdin/stdout until shutdown.
pub fn worker_main() -> ExitCode {
    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    match skipper::dist::serve_connection(stdin.lock(), stdout.lock()) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench worker: {e}");
            ExitCode::FAILURE
        }
    }
}

/// A fleet shut down in order (every worker says `bye` and is waited
/// for) when dropped.
struct Fleet(DistBackend);

impl Drop for Fleet {
    fn drop(&mut self) {
        if let Err(e) = self.0.shutdown() {
            eprintln!("perfbench: fleet shutdown: {e}");
        }
    }
}

/// `workers` worker processes, each with a one-thread pool.
fn spawn(workers: usize) -> Fleet {
    let exe = std::env::current_exe().expect("the benchmark knows its own executable");
    let fleet = DistBackend::spawn(workers, || {
        let mut cmd = Command::new(&exe);
        cmd.arg(WORKER_ARG).env("SKIPPER_WORKERS", "1");
        cmd
    })
    .expect("spawn the worker fleet");
    Fleet(fleet)
}

/// The seeded frames: item values in `0..1000`.
pub fn inputs(seed: u64) -> Vec<Vec<i64>> {
    (0..ROTATION as u64)
        .map(|k| {
            let frame_seed = measure::mix(seed, k);
            (0..ITEMS as u64)
                .map(|i| (measure::mix(frame_seed, i) % 1000) as i64)
                .collect()
        })
        .collect()
}

type Reply = (i64, RunReceipt);

pub fn run(args: &Args) -> Outcome {
    let workers = measure::workers();
    let frames = inputs(args.seed);
    println!(
        "inputs: {ROTATION} frames of {ITEMS} i64 items, df_case({DEGREE}), {workers} worker \
         processes, fingerprint {:#018x}",
        wire_hash(&frames)
    );
    let prog = df_case(DEGREE);
    let pool = PoolBackend::configured(Workers::exact(workers));
    let pool_exec = <PoolBackend as Backend<DfProg, &[i64]>>::prepare(&pool, &prog);
    // The reference: the pool run, fold and receipt.
    let expected: Vec<Reply> = frames
        .iter()
        .map(|xs| receipted(&xs[..], || pool_exec.run(&xs[..])))
        .collect();
    let mut out = Outcome::default();
    if args.trace {
        traced(
            args, &frames, &expected, workers, &pool_exec, &prog, &mut out,
        );
    } else {
        let (run, setup) = measure::segmented(
            args.budget,
            || {
                let fleet = spawn(workers);
                lap(&fleet, &frames);
                fleet
            },
            |fleet, budget| plain_loop(fleet, budget, args, &frames, &expected),
        );
        out.count(run.frames(), run.failed);
        measure::end_to_end(&mut out, &setup, &run);
    }
    out
}

fn lap(fleet: &Fleet, frames: &[Vec<i64>]) {
    for xs in frames {
        fleet
            .0
            .run_df_sharded(DEGREE, xs)
            .expect("warm-up frame on the fleet");
    }
}

fn frame(
    fleet: &Fleet,
    args: &Args,
    k: u64,
    frames: &[Vec<i64>],
    expected: &[Reply],
) -> (Duration, bool) {
    let i = k as usize % frames.len();
    let (latency, reply) = measure::guarded(|| fleet.0.run_df_sharded(DEGREE, &frames[i]));
    let ok = match reply {
        Some(Ok((z, receipt))) => {
            let z = if args.corrupt() { z + 1 } else { z };
            (z, receipt) == expected[i]
        }
        Some(Err(e)) => {
            eprintln!("perfbench: dist frame {k}: {e}");
            false
        }
        None => false,
    };
    (latency, ok)
}

fn plain_loop(
    fleet: &Fleet,
    budget: Duration,
    args: &Args,
    frames: &[Vec<i64>],
    expected: &[Reply],
) -> Run {
    closed_loop(budget, |k| frame(fleet, args, k, frames, expected))
}

/// Wire cost of one frame, modelled by the benchmark on the messages
/// `run_df_sharded` exchanges: per worker, a `map-df` request carrying
/// its item chunk and a `map-ok` reply carrying the mapped chunk.
struct WireCost {
    encode: Duration,
    decode: Duration,
    bytes: u64,
}

fn wire_cost(xs: &[i64], workers: usize, prog: &DfProg) -> WireCost {
    let mut chunks = vec![Vec::new(); workers];
    for (i, &x) in xs.iter().enumerate() {
        chunks[(partition(i as u64) % workers as u64) as usize].push(x);
    }
    let comp = prog.compute_fn();
    let mut cost = WireCost {
        encode: Duration::ZERO,
        decode: Duration::ZERO,
        bytes: 0,
    };
    for chunk in chunks.iter().filter(|c| !c.is_empty()) {
        let outs: Vec<i64> = chunk.iter().map(comp).collect();
        let request = WireValue::Tuple(vec![
            WireValue::Str("map-df".into()),
            WireValue::Int(0),
            WireValue::Str("df".into()),
            WireValue::Int(DEGREE as i64),
            chunk.to_wire(),
        ]);
        let reply = WireValue::Tuple(vec![
            WireValue::Str("map-ok".into()),
            WireValue::Int(0),
            outs.to_wire(),
        ]);
        for msg in [&request, &reply] {
            let t = Instant::now();
            let doc = encode_document(msg);
            cost.encode += t.elapsed();
            let t = Instant::now();
            let back = decode_document(&doc).expect("a document this process encoded decodes");
            cost.decode += t.elapsed();
            assert!(back == *msg, "wire round trip changed a message");
            // Each document travels behind a u32 length prefix.
            cost.bytes += doc.len() as u64 + 4;
        }
    }
    cost
}

#[allow(clippy::too_many_arguments)]
fn traced<E>(
    args: &Args,
    frames: &[Vec<i64>],
    expected: &[Reply],
    workers: usize,
    pool_exec: &E,
    prog: &DfProg,
    out: &mut Outcome,
) where
    E: for<'a> Executable<&'a [i64], Output = i64>,
{
    let mut spawn_ms = Vec::new();
    let mut fleet = None;
    for _ in 0..3 {
        drop(fleet.take());
        let t = Instant::now();
        fleet = Some(spawn(workers));
        spawn_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    let fleet = fleet.expect("a fleet was spawned");
    lap(&fleet, frames);
    let plain = plain_loop(&fleet, args.budget.mul_f64(0.3), args, frames, expected);

    let seq_exec = <SeqBackend as Backend<DfProg, &[i64]>>::prepare(&SeqBackend, prog);
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let (mut dist_ms, mut pool_ms, mut seq_ms) = (Vec::new(), Vec::new(), Vec::new());
    let (mut encode_us, mut decode_us, mut overhead_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut bytes = 0u64;
    let run = closed_loop(args.budget.mul_f64(0.7), |k| {
        let (latency, ok) = frame(&fleet, args, k, frames, expected);
        let xs = &frames[k as usize % frames.len()];
        let (t_pool, pool_z) = measure::guarded(|| pool_exec.run(&xs[..]));
        let (t_seq, seq_z) = measure::guarded(|| seq_exec.run(&xs[..]));
        let wire = wire_cost(xs, workers, prog);
        dist_ms.push(ms(latency));
        pool_ms.push(ms(t_pool));
        seq_ms.push(ms(t_seq));
        encode_us.push(wire.encode.as_secs_f64() * 1e6);
        decode_us.push(wire.decode.as_secs_f64() * 1e6);
        overhead_ms.push(ms(latency) - ms(t_seq) - ms(wire.encode) - ms(wire.decode));
        bytes += wire.bytes;
        let want = expected[k as usize % frames.len()].0;
        (latency, ok && pool_z == Some(want) && seq_z == Some(want))
    });
    drop(fleet);
    out.count(plain.frames(), plain.failed);
    out.count(run.frames(), run.failed);

    let n = run.frames();
    let plain_ms = measure::median_ns(&plain.lat_ns, 1e6);
    out.push("skipper.wire.encode_us", median(&encode_us), n);
    out.push("skipper.wire.decode_us", median(&decode_us), n);
    out.push("skipper.wire.bytes_per_frame", bytes as f64 / n as f64, n);
    out.push(
        "skipper.dist.spawn_ms",
        median(&spawn_ms),
        spawn_ms.len() as u64,
    );
    out.push("skipper.seq.frame_ms", median(&seq_ms), n);
    out.push("skipper.pool.frame_ms", median(&pool_ms), n);
    out.push("skipper.dist.overhead_ms", median(&overhead_ms), n);
    out.push("ceiling.ideal_speedup", workers as f64, 1);
    out.push(
        "bench.trace_overhead_ms",
        median(&dist_ms) - plain_ms,
        n + plain.frames(),
    );
    println!(
        "tracing overhead: traced dist frame {:.4} ms - untraced {:.4} ms ({} + {} frames); \
         wire cost is the benchmark encoding and decoding the same map-df / map-ok messages",
        median(&dist_ms),
        plain_ms,
        n,
        plain.frames()
    );
}
