//! Per-layer probes: the benchmark times its own calls into a layer's
//! public functions on the combinational unit the service serves from,
//! with operands drawn from the run's seed.

use std::time::Instant;

use mfm_evalkit::workload::{FormatMix, OperandGen};
use mfm_gatesim::{CompiledNetlist, CompiledSim, Netlist, Simulator, TechLibrary, LANES};
use mfm_server::wire::{decode_request, encode_request, encode_response, Request, Response};
use mfmult::selfcheck::{check_raw, run_raw_compiled};
use mfmult::structural::build_unit;
use mfmult::{FunctionalUnit, Operation};

use crate::stats::{median, secs};
use crate::{metric, Metric};

/// Timed repetitions of each 256-lane compiled probe.
const BATCH_REPS: usize = 64;
/// Operations timed per event-driven settle probe.
const SETTLE_OPS: usize = 256;
/// Operations per nanosecond-scale probe.
const FAST_OPS: usize = 20_000;

fn operations(seed: u64, n: usize) -> Vec<Operation> {
    let mut gen = OperandGen::new(seed ^ 0x9b0b_e5ee_d000_0001);
    let mix = FormatMix::serving_default();
    (0..n).map(|_| gen.mixed_operation(&mix)).collect()
}

/// Median microseconds of `reps` calls of `f`.
fn median_us(reps: usize, mut f: impl FnMut(usize)) -> f64 {
    let mut t = Vec::with_capacity(reps);
    for k in 0..reps {
        let s = Instant::now();
        f(k);
        t.push(secs(s) * 1e6);
    }
    median(&t)
}

/// `compiled.batch_us`, `compiled.propagate_us`,
/// `compiled.activity_sweep_us` and `sim.settle_us`.
pub fn engines(seed: u64, out: &mut Vec<Metric>) {
    let mut netlist = Netlist::new(TechLibrary::cmos45lp());
    let ports = build_unit(&mut netlist);
    let prog = CompiledNetlist::compile(&netlist).expect("unit is acyclic");
    let ops = operations(seed, 2 * LANES);
    let batches = [&ops[..LANES], &ops[LANES..]];

    let mut sim = CompiledSim::new(&prog);
    let batch_us = median_us(BATCH_REPS, |k| {
        std::hint::black_box(run_raw_compiled(&mut sim, &ports, batches[k % 2]));
    });
    metric(out, "compiled.batch_us", batch_us, "us");

    // Propagation alone, alternating two loaded input sets so every
    // pass sees fresh transitions; then the same with activity on.
    let load = |sim: &mut CompiledSim<'_>, batch: &[Operation]| {
        for (lane, op) in batch.iter().enumerate() {
            sim.set_bus_lane(&ports.frmt, lane, op.format.encoding() as u128);
            sim.set_bus_lane(&ports.xa, lane, op.xa as u128);
            sim.set_bus_lane(&ports.yb, lane, op.yb as u128);
        }
    };
    let propagate = |activity: bool| {
        let mut sim = CompiledSim::new(&prog);
        if activity {
            sim.enable_activity(LANES);
        }
        let mut t = Vec::with_capacity(BATCH_REPS);
        for k in 0..BATCH_REPS {
            load(&mut sim, batches[k % 2]);
            let s = Instant::now();
            sim.propagate();
            t.push(secs(s) * 1e6);
        }
        if activity {
            std::hint::black_box(sim.activity_events());
        }
        median(&t)
    };
    let off = propagate(false);
    let on = propagate(true);
    metric(out, "compiled.propagate_us", off, "us");
    metric(out, "compiled.activity_sweep_us", on - off, "us");

    let mut ed = Simulator::new(&netlist);
    let settle_us = median_us(SETTLE_OPS, |k| {
        let op = ops[k];
        ed.set_bus(&ports.frmt, op.format.encoding() as u128);
        ed.set_bus(&ports.xa, op.xa as u128);
        ed.set_bus(&ports.yb, op.yb as u128);
        std::hint::black_box(ed.settle());
    });
    metric(out, "sim.settle_us", settle_us, "us");
}

/// `core.reference_ns`, `core.check_raw_ns`, `wire.encode_ns` and
/// `wire.decode_ns`: mean nanoseconds per operation.
pub fn request_path(seed: u64, out: &mut Vec<Metric>) {
    let mut netlist = Netlist::new(TechLibrary::cmos45lp());
    let ports = build_unit(&mut netlist);
    let prog = CompiledNetlist::compile(&netlist).expect("unit is acyclic");
    let ops = operations(seed, FAST_OPS);
    let per_op_ns = |t: Instant| secs(t) * 1e9 / FAST_OPS as f64;

    let reference = FunctionalUnit::new();
    let t = Instant::now();
    let results: Vec<_> = ops.iter().map(|&op| reference.execute(op)).collect();
    metric(out, "core.reference_ns", per_op_ns(t), "ns");

    let mut sim = CompiledSim::new(&prog);
    let raws: Vec<_> = ops
        .chunks(LANES)
        .flat_map(|chunk| run_raw_compiled(&mut sim, &ports, chunk))
        .collect();
    let t = Instant::now();
    let clean = ops
        .iter()
        .zip(&raws)
        .filter(|(op, raw)| check_raw(**op, raw).is_ok())
        .count();
    metric(out, "core.check_raw_ns", per_op_ns(t), "ns");
    std::hint::black_box(clean);

    let t = Instant::now();
    let frames: Vec<Vec<u8>> = ops
        .iter()
        .zip(&results)
        .enumerate()
        .map(|(id, (&op, r))| {
            let resp = Response::from_result(id as u64, r, 0, 0);
            std::hint::black_box(encode_response(&resp));
            encode_request(&Request {
                id: id as u64,
                op,
                deadline_micros: 0,
                critical: false,
            })
        })
        .collect();
    metric(out, "wire.encode_ns", per_op_ns(t), "ns");
    let t = Instant::now();
    let decoded = frames
        .iter()
        .filter(|f| decode_request(&f[4..]).is_ok())
        .count();
    metric(out, "wire.decode_ns", per_op_ns(t), "ns");
    std::hint::black_box(decoded);
}
