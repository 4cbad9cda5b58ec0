//! `power-mc`: Table V through `evalkit`. Set-up builds the Fig. 5
//! pipelined unit, compiles it and runs the event-driven glitch
//! calibration; the timed part is Monte-Carlo rounds of
//! `measure_unit_compiled_sharded`, one Table V format per round.

use std::time::Instant;

use mfm_evalkit::calibrate::GlitchCalibration;
use mfm_evalkit::montecarlo::{measure_unit_compiled_sharded, measure_unit_sharded};
use mfm_evalkit::shard::shard_seed;
use mfm_gatesim::{CompiledNetlist, Netlist, TechLibrary};
use mfmult::pipeline::{build_pipelined_unit, PipelinePlacement};
use mfmult::structural::build_unit;
use mfmult::{Format, StructuralPorts};

use crate::stats::{median, median_of, secs};
use crate::{metric, probes, Outcome};

/// Calibration stream, fixed so calibration factors are exact.
const CAL_SEED: u64 = 0xCA1_B0A7;
/// Held-out stream for the ±5 % contract, disjoint from calibration and
/// fixed so `pj_per_op_err` is exact for a given program.
const HELD_OUT_SEED: u64 = 0x4E1D_0075;
/// Event-driven operations per format for calibration.
const CAL_OPS: usize = 96;
/// Operations per format in the held-out comparison.
const CHECK_OPS: usize = 192;
/// Shards of the held-out comparison (both engines use the same ones).
const CHECK_SHARDS: usize = 8;
/// Simulated operations per Monte-Carlo round.
const ROUND_OPS: usize = 4096;
/// Rounds per requested second: the round count is fixed by the run
/// length, not by the clock, so the simulated work repeats exactly.
const ROUNDS_PER_SECOND: f64 = 100.0;
/// Shards per timed round.
const ROUND_SHARDS: usize = 2;
/// Worker threads of a timed round: one, so a round is not held up by
/// whatever else shares the second core.
const ROUND_THREADS: usize = 1;
/// Worker threads of the untimed calibration check.
const THREADS: usize = 2;
/// Latency percentiles are taken per window of consecutive rounds and
/// the median window is reported, so one host hiccup moves one window
/// rather than the run's tail.
const WINDOWS: usize = 10;
/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// A built, compiled and calibrated unit.
pub struct PowerUnit {
    netlist: Netlist,
    ports: StructuralPorts,
    prog: CompiledNetlist,
    cal: GlitchCalibration,
}

/// Metric label of a Table V format.
pub fn label(f: Format) -> &'static str {
    match f {
        Format::Int64 => "int64",
        Format::Binary64 => "binary64",
        Format::DualBinary32 => "dual-binary32",
        Format::SingleBinary32 => "single-binary32",
        Format::QuadBinary16 => "quad-binary16",
    }
}

/// Builds and compiles the Fig. 5 pipelined unit (`pipelined`) or the
/// combinational unit the service serves from.
fn build(pipelined: bool) -> (Netlist, StructuralPorts, CompiledNetlist) {
    let mut netlist = Netlist::new(TechLibrary::cmos45lp());
    let ports = if pipelined {
        build_pipelined_unit(&mut netlist, PipelinePlacement::Fig5)
    } else {
        build_unit(&mut netlist)
    };
    let prog = CompiledNetlist::compile(&netlist).expect("units are acyclic");
    (netlist, ports, prog)
}

/// Builds and calibrates a unit; returns it with the build and
/// calibration seconds.
fn setup(pipelined: bool) -> (PowerUnit, f64, f64) {
    let t = Instant::now();
    let (netlist, ports, prog) = build(pipelined);
    let build_s = secs(t);
    let t = Instant::now();
    let cal = GlitchCalibration::run(&netlist, &prog, &ports, CAL_OPS, CAL_SEED);
    let cal_s = secs(t);
    (
        PowerUnit {
            netlist,
            ports,
            prog,
            cal,
        },
        build_s,
        cal_s,
    )
}

/// The ±5 % contract on the held-out seed: calibrated compiled pJ/op
/// against the event-driven reference for every Table V format. Returns
/// the mean absolute error in percent.
fn contract_error(u: &PowerUnit, tag: &str, o: &mut Outcome) -> f64 {
    let mut errs = Vec::new();
    for f in Format::ALL {
        let ed = measure_unit_sharded(
            &u.netlist,
            &u.ports,
            f,
            CHECK_OPS,
            HELD_OUT_SEED,
            CHECK_SHARDS,
            THREADS,
        );
        let c = measure_unit_compiled_sharded(
            &u.netlist,
            &u.prog,
            &u.ports,
            f,
            CHECK_OPS,
            HELD_OUT_SEED,
            CHECK_SHARDS,
            THREADS,
            Some(&u.cal),
        );
        let (e, k) = (ed.energy_pj_per_op(), c.energy_pj_per_op());
        let err = (k - e) / e;
        o.check(err.abs() < 0.05, || {
            format!(
                "{tag} {}: compiled {k:.3} pJ/op vs event-driven {e:.3} ({:.2}% > 5%)",
                label(f),
                err * 100.0
            )
        });
        o.fingerprint
            .insert(format!("{tag}.pj_ed.{}", label(f)), format!("{e:?}"));
        o.fingerprint
            .insert(format!("{tag}.pj_compiled.{}", label(f)), format!("{k:?}"));
        errs.push(err.abs() * 100.0);
    }
    crate::stats::mean(&errs)
}

/// `pj_per_op_err` for workloads that serve from the combinational
/// unit: the same held-out contract, run after their timed window.
pub fn serving_unit_error(o: &mut Outcome) -> f64 {
    let (u, _, _) = setup(false);
    contract_error(&u, "serving_unit", o)
}

/// Runs the workload.
pub fn run(seed: u64, seconds: f64, traced: bool) -> Outcome {
    let mut o = Outcome::default();
    let mut build_times = Vec::new();
    let mut cal_times = Vec::new();
    let (setup_s, u) = median_of(SETUP_REPS, || {
        let (u, b, c) = setup(true);
        build_times.push(b);
        cal_times.push(c);
        u
    });
    o.setup_s = setup_s;

    let rounds = ((ROUNDS_PER_SECOND * seconds).round() as usize).max(Format::ALL.len());
    let mut per_format_ms: Vec<Vec<f64>> = vec![Vec::new(); Format::ALL.len()];
    o.latency_windows = vec![Vec::new(); WINDOWS];
    let mut per_format_pj = [0.0f64; 4];
    let mut transitions = 0.0f64;
    let cpu0 = crate::stats::cpu_seconds();
    let t0 = Instant::now();
    for k in 0..rounds {
        let fi = k % Format::ALL.len();
        let t = Instant::now();
        let p = measure_unit_compiled_sharded(
            &u.netlist,
            &u.prog,
            &u.ports,
            Format::ALL[fi],
            ROUND_OPS,
            shard_seed(seed, k),
            ROUND_SHARDS,
            ROUND_THREADS,
            Some(&u.cal),
        );
        let ms = secs(t) * 1e3;
        o.latencies_ms.push(ms);
        o.latency_windows[k * WINDOWS / rounds].push(ms);
        per_format_ms[fi].push(ms);
        per_format_pj[fi] += p.energy_pj_per_op();
        transitions += p.transitions_per_op * p.ops as f64;
    }
    o.elapsed_s = secs(t0);
    o.cpu_s = crate::stats::cpu_seconds() - cpu0;
    o.attempted = (rounds * ROUND_OPS) as u64;
    o.ok = o.attempted;

    // Table V ordering: int64 > binary64 > dual > single pJ/op.
    let per_round: Vec<usize> = per_format_ms.iter().map(Vec::len).collect();
    let mean_pj: Vec<f64> = per_format_pj
        .iter()
        .zip(&per_round)
        .map(|(s, n)| s / (*n).max(1) as f64)
        .collect();
    o.check(mean_pj.windows(2).all(|w| w[0] > w[1]), || {
        format!("Table V ordering broken: pJ/op {mean_pj:?} (int64, binary64, dual, single)")
    });
    for (f, pj) in Format::ALL.iter().zip(&mean_pj) {
        o.fingerprint
            .insert(format!("mc.pj.{}", label(*f)), format!("{pj:?}"));
    }
    o.fingerprint
        .insert("mc.transitions".into(), format!("{transitions:?}"));
    o.fingerprint.insert("mc.rounds".into(), rounds.to_string());

    if traced {
        metric(&mut o.layers, "evalkit.build_s", median(&build_times), "s");
        metric(
            &mut o.layers,
            "evalkit.calibrate_s",
            median(&cal_times),
            "s",
        );
        for (f, ms) in Format::ALL.iter().zip(&per_format_ms) {
            metric(
                &mut o.layers,
                format!("evalkit.mc_ms.{}", label(*f)),
                median(ms),
                "ms",
            );
        }
        metric(
            &mut o.layers,
            "evalkit.toggles",
            transitions.round(),
            "count",
        );
        probes::engines(seed, &mut o.layers);
    } else {
        o.pj_err_pct = contract_error(&u, "fig5", &mut o);
    }
    o
}
