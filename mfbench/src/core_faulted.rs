//! `core-faulted`: the service core driven in-process on a logical tick
//! schedule. Each tick admits a fixed number of new requests, applies
//! the seeded chaos plan by admitted ordinal (as the TCP front-end
//! does), ticks without sleeping and drains the responses. The work is
//! a pure function of the seed and the run length; only host time
//! varies between runs.
//!
//! A refused (`Overloaded`) or expired (`DeadlineExceeded`) request is
//! re-admitted after the retry hint, as a well-behaved client would; a
//! request counts as failed only if it is never answered correctly.

use std::collections::BTreeMap;
use std::time::Instant;

use mfm_evalkit::workload::{FormatMix, OperandGen};
use mfm_gatesim::{NetId, Netlist, TechLibrary};
use mfm_resilient::chaos::{apply_event, ChaosPlan, ChaosPlanConfig};
use mfm_server::service::{Service, ServiceConfig};
use mfm_server::wire::{Request, Response};
use mfm_softfloat::Flags;
use mfm_telemetry::Registry;
use mfmult::structural::build_unit;
use mfmult::{FunctionalUnit, Operation};

use crate::stats::{max, median, median_of, quantile, secs};
use crate::{metric, Outcome};

/// New requests admitted per logical tick. At 16 the backlog reached
/// the shedding tier and the p50 sat on the edge between requests
/// answered in light (~10 ms) and heavy (~45 ms) ticks, flipping 4x
/// between seeds; at 8 nothing is refused and p50 lies inside one mode.
const PER_TICK: usize = 8;
/// Requests per requested second: fixes the run's size independently
/// of the clock.
const REQUESTS_PER_SECOND: f64 = 190.0;
/// One chaos event per this many requests, spread over the whole run.
const REQUESTS_PER_FAULT: u64 = 100;
/// Share of chaos events that are scrub-clean Byzantine output latches.
const BYZANTINE_FRACTION: f64 = 0.34;
/// Every this many requests is `critical` (TMR-voted).
const CRITICAL_EVERY: usize = 8;
/// Re-admissions before a request counts as failed.
const MAX_ATTEMPTS: u32 = 64;
/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 7;
/// Seeds the chaos plan and the service's backoff jitter: the fault
/// scenario is part of the workload's definition, while `--seed` draws
/// the traffic.
const SCENARIO_SEED: u64 = 2017;
/// The single logical client.
const CLIENT: u64 = 1;

/// The `serve` binary's defaults: 4 units, 1 hot spare, patrol slices
/// of 8, pending cap 256, engine queue 8, 500 µs ticks, 400-tick
/// deadline.
pub fn serve_defaults(seed: u64) -> ServiceConfig {
    let mut cfg = ServiceConfig {
        seed,
        units: 4,
        pending_cap: 256,
        micros_per_tick: 500,
        default_deadline_ticks: 400,
        ..ServiceConfig::default()
    };
    cfg.engine.spares = 1;
    cfg.engine.patrol_slice = 8;
    cfg.engine.queue_depth = 8;
    cfg
}

/// Bit-exact comparison of an `Ok` frame against the reference.
pub fn matches_reference(
    reference: &FunctionalUnit,
    op: Operation,
    ph: u64,
    pl: u64,
    flags_lo: u8,
    flags_hi: u8,
) -> bool {
    let want = reference.execute(op);
    let hw = (Flags::INVALID | Flags::OVERFLOW | Flags::UNDERFLOW).bits();
    ph == want.ph
        && pl == want.pl
        && flags_lo & hw == want.flags_lo.bits() & hw
        && flags_hi & hw == want.flags_hi.bits() & hw
}

/// Per-request bookkeeping.
struct Pending {
    op: Operation,
    first_admit: Option<Instant>,
    attempts: u32,
}

/// Counts reported as per-layer metrics and kept in the fingerprint.
const LAYER_COUNTS: [&str; 12] = [
    "service.ticks",
    "service.rescues",
    "service.check_failures",
    "service.tmr_votes",
    "service.dmr_batches",
    "service.shed",
    "service.speculative_checks",
    "pool.masked",
    "pool.scrubs",
    "pool.patrol_slices",
    "pool.promotions",
    "pool.hw_capacity",
];

/// Runs the workload.
pub fn run(seed: u64, seconds: f64, traced: bool) -> Outcome {
    let mut o = Outcome::default();
    let cfg = serve_defaults(SCENARIO_SEED);
    let (setup_s, ()) = median_of(SETUP_REPS, || {
        let mut netlist = Netlist::new(TechLibrary::cmos45lp());
        let ports = build_unit(&mut netlist);
        let registry = Registry::new();
        std::hint::black_box(Service::new(&netlist, &ports, cfg, &registry));
    });
    o.setup_s = setup_s;

    let mut netlist = Netlist::new(TechLibrary::cmos45lp());
    let ports = build_unit(&mut netlist);
    let registry = Registry::new();
    let mut service = Service::new(&netlist, &ports, cfg, &registry);
    let sites: Vec<NetId> = netlist.cells().iter().map(|c| c.output).collect();

    let n = ((REQUESTS_PER_SECOND * seconds).round() as usize).max(PER_TICK);
    let mut gen = OperandGen::new(seed ^ 0xc0de_fa17_0000_0001);
    let mix = FormatMix::serving_default();
    let mut reqs: Vec<Pending> = (0..n)
        .map(|_| Pending {
            op: gen.mixed_operation(&mix),
            first_admit: None,
            attempts: 0,
        })
        .collect();
    let plan = ChaosPlan::generate(&ChaosPlanConfig {
        seed: SCENARIO_SEED ^ 0x00c4_a055,
        units: cfg.units,
        ops: n as u64,
        faults: (n as u64 / REQUESTS_PER_FAULT).max(1) as usize,
        byzantine_fraction: BYZANTINE_FRACTION,
        ..ChaosPlanConfig::default()
    });

    let reference = FunctionalUnit::new();
    let mut retries: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
    let (mut next_new, mut resolved, mut admitted_ops, mut next_chaos) = (0usize, 0usize, 0u64, 0);
    let (mut refusals, mut expiries, mut escapes, mut abandoned) = (0u64, 0u64, 0u64, 0u64);
    let (mut tick_ms, mut admit_us, mut busy_s) = (Vec::new(), Vec::new(), 0.0f64);
    let mut ticks = 0u64;
    let cpu0 = crate::stats::cpu_seconds();
    let t0 = Instant::now();
    while resolved < n {
        ticks += 1;
        let mut due: Vec<usize> = Vec::new();
        while let Some(entry) = retries.first_entry() {
            if *entry.key() > ticks {
                break;
            }
            due.extend(entry.remove());
        }
        let fresh = PER_TICK.min(n - next_new);
        due.extend(next_new..next_new + fresh);
        next_new += fresh;

        for idx in due {
            while next_chaos < plan.events.len() && plan.events[next_chaos].at_op <= admitted_ops {
                apply_event(
                    service.engine_mut(),
                    &plan.events[next_chaos],
                    &sites,
                    ports.latency,
                );
                next_chaos += 1;
            }
            let p = &mut reqs[idx];
            p.attempts += 1;
            let req = Request {
                id: idx as u64,
                op: p.op,
                deadline_micros: 0,
                critical: idx % CRITICAL_EVERY == 0,
            };
            let start = Instant::now();
            p.first_admit.get_or_insert(start);
            let refusal = service.admit(CLIENT, &req);
            let s = secs(start);
            busy_s += s;
            admit_us.push(s * 1e6);
            match refusal {
                None => admitted_ops += 1,
                Some(Response::Overloaded {
                    retry_after_micros, ..
                }) => {
                    refusals += 1;
                    if p.attempts >= MAX_ATTEMPTS {
                        abandoned += 1;
                        resolved += 1;
                    } else {
                        let wait = (retry_after_micros / cfg.micros_per_tick).max(1);
                        retries.entry(ticks + wait).or_default().push(idx);
                    }
                }
                Some(other) => {
                    o.problems
                        .push(format!("unexpected admission reply {other:?}"));
                    resolved += 1;
                }
            }
        }

        let start = Instant::now();
        service.tick();
        let tick_s = secs(start);
        tick_ms.push(tick_s * 1e3);
        let start = Instant::now();
        let responses = service.take_responses();
        busy_s += tick_s + secs(start);
        let now = Instant::now();
        for (_, resp) in responses {
            let idx = resp.id() as usize;
            let p = &mut reqs[idx];
            match resp {
                Response::Ok {
                    ph,
                    pl,
                    flags_lo,
                    flags_hi,
                    ..
                } => {
                    resolved += 1;
                    if matches_reference(&reference, p.op, ph, pl, flags_lo, flags_hi) {
                        o.ok += 1;
                        let first = p.first_admit.expect("answered requests were admitted");
                        o.latencies_ms
                            .push(now.duration_since(first).as_secs_f64() * 1e3);
                    } else {
                        escapes += 1;
                    }
                }
                Response::DeadlineExceeded { .. } => {
                    expiries += 1;
                    if p.attempts >= MAX_ATTEMPTS {
                        abandoned += 1;
                        resolved += 1;
                    } else {
                        retries.entry(ticks + 1).or_default().push(idx);
                    }
                }
                other => {
                    o.problems.push(format!("unexpected response {other:?}"));
                    resolved += 1;
                }
            }
        }
    }
    o.elapsed_s = secs(t0);
    o.cpu_s = crate::stats::cpu_seconds() - cpu0;
    o.attempted = n as u64;
    o.check(escapes == 0, || {
        format!("{escapes} results differ from the reference")
    });
    o.check(service.escapes() == 0, || {
        format!("service reports {} escapes", service.escapes())
    });

    let count = |name: &str| match name {
        "service.ticks" => ticks,
        "pool.hw_capacity" => registry.gauge(name).get() as u64,
        _ => registry.counter(name).get(),
    };
    let batch_fill = registry.histogram("service.batch_fill").mean();
    for (name, v) in LAYER_COUNTS.iter().map(|&k| (k, count(k))).chain([
        ("requests", n as u64),
        ("ok", o.ok),
        ("refusals", refusals),
        ("expiries", expiries),
        ("abandoned", abandoned),
        ("chaos_events", next_chaos as u64),
    ]) {
        o.fingerprint.insert(name.into(), v.to_string());
    }
    o.fingerprint
        .insert("service.batch_fill.mean".into(), format!("{batch_fill:?}"));

    if traced {
        let l = &mut o.layers;
        metric(l, "service.tick_ms.p50", median(&tick_ms), "ms");
        metric(l, "service.tick_ms.p99", quantile(&tick_ms, 0.99), "ms");
        metric(l, "service.tick_ms.max", max(&tick_ms), "ms");
        metric(l, "service.admit_us.p50", median(&admit_us), "us");
        metric(l, "service.admit_us.p99", quantile(&admit_us, 0.99), "us");
        metric(l, "service.busy_share", busy_s / o.elapsed_s, "share");
        for name in LAYER_COUNTS {
            metric(l, name, count(name) as f64, "count");
        }
        metric(l, "service.batch_fill.mean", batch_fill, "lanes");
        let rescue = registry.histogram("service.phase_micros.rescue");
        metric(
            l,
            "service.phase_ms.rescue.p50",
            rescue.quantile(0.5).unwrap_or(0.0) / 1e3,
            "ms",
        );
    } else {
        o.pj_err_pct = crate::power_mc::serving_unit_error(&mut o);
    }
    o
}
