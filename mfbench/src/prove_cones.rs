//! `prove-cones`: each repetition builds `standard_units()` afresh,
//! proves `quad-binary16` on `mfmult-quad` and then `dual-binary32` on
//! `mfmult`, and requires every cone to be Proved.
//!
//! Every repetition proves the same inputs (the units and the prover's
//! default options do not depend on the seed), so a cache keyed on them
//! would hit from the second repetition on; a proof-cache change must
//! show its gain on other inputs.

use std::time::Instant;

use mfm_lint::{prove_unit, standard_units, ConeVerdict, Mode, ProveOptions};

use crate::stats::{median, median_of, secs};
use crate::{metric, Outcome};

/// The proved (unit, mode) pairs, in order.
const PROOFS: [(&str, Mode); 2] = [
    ("mfmult-quad", Mode::QuadBinary16),
    ("mfmult", Mode::DualBinary32),
];
/// Nominal seconds of one repetition; the repetition count is fixed by
/// the run length, not by the clock.
const REP_SECONDS: f64 = 11.0;
/// `standard_units()` builds timed for `setup_s`; one takes about
/// 2.5 ms, so many are needed for a steady median.
const SETUP_REPS: usize = 21;

/// Runs the workload. The seed is unused: the proof inputs are fixed.
pub fn run(_seed: u64, seconds: f64, traced: bool) -> Outcome {
    let mut o = Outcome::default();
    let (setup_s, _) = median_of(SETUP_REPS, standard_units);
    o.setup_s = setup_s;

    let reps = ((seconds / REP_SECONDS).round() as usize).max(1);
    let mut per_mode_ms: Vec<Vec<f64>> = vec![Vec::new(); PROOFS.len()];
    let mut unknown_total = 0usize;
    let cpu0 = crate::stats::cpu_seconds();
    let t0 = Instant::now();
    for rep in 0..reps {
        let units = standard_units();
        for (i, (unit_name, mode)) in PROOFS.iter().enumerate() {
            let unit = units
                .iter()
                .find(|u| u.name == *unit_name)
                .expect("standard unit present");
            let opts = ProveOptions {
                modes: Some(vec![*mode]),
                ..ProveOptions::default()
            };
            let t = Instant::now();
            let report = prove_unit(unit, &opts);
            let ms = secs(t) * 1e3;
            o.latencies_ms.push(ms);
            per_mode_ms[i].push(ms);
            let cones: usize = report.modes.iter().map(|m| m.cones.len()).sum();
            let proved = report.proved();
            o.attempted += cones as u64;
            o.ok += proved as u64;
            o.check(cones > 0 && proved == cones, || {
                format!(
                    "{unit_name} {}: {proved}/{cones} cones proved ({} refuted, {} unknown)",
                    mode.name(),
                    report.refuted(),
                    report.unknown()
                )
            });
            let m = report.modes.first();
            let key = |what: &str| format!("{what}.{}", mode.name());
            let counts = [
                ("lint.conflicts", m.map_or(0, |m| m.conflicts)),
                ("lint.merges", m.map_or(0, |m| m.merges_proved as u64)),
                ("lint.aig_ands", m.map_or(0, |m| m.aig_ands as u64)),
                ("lint.cones", cones as u64),
            ];
            for (what, v) in counts {
                o.fingerprint.insert(key(what), v.to_string());
                if traced && rep == 0 && what != "lint.cones" {
                    metric(&mut o.layers, key(what), v as f64, "count");
                }
            }
            let unknown = report
                .modes
                .iter()
                .flat_map(|m| &m.cones)
                .filter(|c| c.verdict == ConeVerdict::Unknown)
                .count();
            o.fingerprint
                .insert(key("lint.unknown"), unknown.to_string());
            unknown_total += unknown;
        }
    }
    o.elapsed_s = secs(t0);
    o.cpu_s = crate::stats::cpu_seconds() - cpu0;
    o.fingerprint.insert("repetitions".into(), reps.to_string());
    // Recorded so results are never read as covering varied inputs.
    o.fingerprint
        .insert("inputs".into(), "identical every repetition".into());

    if traced {
        metric(&mut o.layers, "lint.units_s", setup_s, "s");
        for ((_, mode), ms) in PROOFS.iter().zip(&per_mode_ms) {
            metric(
                &mut o.layers,
                format!("lint.prove_ms.{}", mode.name()),
                median(ms),
                "ms",
            );
        }
        metric(
            &mut o.layers,
            "lint.cones_unknown",
            unknown_total as f64,
            "count",
        );
    } else {
        o.pj_err_pct = crate::power_mc::serving_unit_error(&mut o);
    }
    o
}
