//! End-to-end benchmark of the multi-format multiplier reproduction.
//!
//! Usage: `mfbench --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Workloads (see `BENCHMARK.json` for why each exists):
//!
//! - `serve-clean`: open-loop mixed-format traffic over loopback TCP
//!   against an in-process `server::spawn`, timed from each request's
//!   due time;
//! - `core-faulted`: the service core driven on a logical tick schedule
//!   under a seeded chaos plan (deterministic work);
//! - `power-mc`: Table V Monte-Carlo rounds on the compiled activity
//!   engine with glitch calibration;
//! - `prove-cones`: SAT equivalence proofs of two modes.
//!
//! With `--trace 0` the last stdout line holds every end-to-end metric
//! of the workload. With `--trace 1` the benchmark times its own calls
//! into each layer: it runs every workload once, traced, at half length
//! and reports each per-layer metric from the workload that exercises
//! that layer, plus the requested workload's tracing overhead.
//!
//! Every output is checked: a result that fails a check makes the run
//! print `"correct": false` and exit non-zero.

mod core_faulted;
mod power_mc;
mod probes;
mod prove_cones;
mod serve_clean;
mod stats;

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One named measurement with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit label.
    pub unit: &'static str,
}

/// Pushes a metric onto `out`.
pub fn metric(out: &mut Vec<Metric>, name: impl Into<String>, value: f64, unit: &'static str) {
    out.push(Metric {
        name: name.into(),
        value,
        unit,
    });
}

/// What one workload run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted in the timed window.
    pub attempted: u64,
    /// Operations completed and verified correct.
    pub ok: u64,
    /// Host seconds of the timed window.
    pub elapsed_s: f64,
    /// Process CPU seconds spent during the timed window.
    pub cpu_s: f64,
    /// Per-operation (or per-round) latency samples, milliseconds.
    pub latencies_ms: Vec<f64>,
    /// The same samples split into time windows; when non-empty the
    /// latency percentiles are the median over windows.
    pub latency_windows: Vec<Vec<f64>>,
    /// Median set-up time over the run's set-up repetitions.
    pub setup_s: f64,
    /// Calibrated compiled vs event-driven pJ/op error, percent.
    pub pj_err_pct: f64,
    /// Failed checks; any entry makes the run incorrect.
    pub problems: Vec<String>,
    /// Per-layer metrics (traced runs only).
    pub layers: Vec<Metric>,
    /// Exact counts and values that must repeat for a fixed seed.
    pub fingerprint: BTreeMap<String, String>,
}

impl Outcome {
    /// Latency percentile `q`: over all samples, or the median over
    /// windows when the run was windowed.
    pub fn latency(&self, q: f64) -> f64 {
        if self.latency_windows.is_empty() {
            return stats::quantile(&self.latencies_ms, q);
        }
        let per_window: Vec<f64> = self
            .latency_windows
            .iter()
            .filter(|w| !w.is_empty())
            .map(|w| stats::quantile(w, q))
            .collect();
        stats::median(&per_window)
    }

    /// Records a failed check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }

    /// Correct operations per host second.
    pub fn ops_per_s(&self) -> f64 {
        self.ok as f64 / self.elapsed_s.max(1e-9)
    }
}

/// The benchmark's workloads.
pub const WORKLOADS: [&str; 4] = ["serve-clean", "core-faulted", "power-mc", "prove-cones"];

/// Runs one workload for about `seconds` seconds.
fn run(workload: &str, seed: u64, seconds: f64, traced: bool) -> Outcome {
    match workload {
        "serve-clean" => serve_clean::run(seed, seconds, traced),
        "core-faulted" => core_faulted::run(seed, seconds, traced),
        "power-mc" => power_mc::run(seed, seconds, traced),
        "prove-cones" => prove_cones::run(seed, seconds, traced),
        _ => unreachable!("workload names are validated in main"),
    }
}

/// The end-to-end metrics of an untraced run.
fn end_to_end(o: &Outcome) -> Vec<Metric> {
    let mut m = Vec::new();
    metric(&mut m, "ops_per_s", o.ops_per_s(), "1/s");
    metric(&mut m, "latency_p50_ms", o.latency(0.5), "ms");
    metric(&mut m, "latency_p99_ms", o.latency(0.99), "ms");
    metric(
        &mut m,
        "ok_share",
        o.ok as f64 / o.attempted.max(1) as f64,
        "share",
    );
    metric(&mut m, "setup_s", o.setup_s, "s");
    metric(
        &mut m,
        "cpu_us_per_op",
        o.cpu_s * 1e6 / o.ok.max(1) as f64,
        "us",
    );
    metric(&mut m, "rss_peak_mb", stats::rss_peak_mb(), "MiB");
    metric(&mut m, "pj_per_op_err", o.pj_err_pct, "%");
    m
}

fn json_metrics(metrics: &[Metric]) -> String {
    let mut s = String::from("{");
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let _ = write!(
            s,
            "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    s.push('}');
    s
}

fn json_map(map: &BTreeMap<String, String>) -> String {
    let body: Vec<String> = map
        .iter()
        .map(|(k, v)| format!("\"{k}\": \"{v}\""))
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn usage() -> ! {
    eprintln!(
        "usage: mfbench --workload {{{}}} --seed N --seconds S --trace 0|1",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else { usage() };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => trace = value.parse::<u8>().ok().filter(|t| *t <= 1),
            _ => usage(),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        usage()
    };
    if !WORKLOADS.contains(&workload.as_str()) {
        usage();
    }

    let (outcome, metrics) = if trace == 0 {
        let o = run(&workload, seed, seconds, false);
        let m = end_to_end(&o);
        (o, m)
    } else {
        traced(&workload, seed, seconds)
    };

    let mut report = BTreeMap::new();
    report.insert("workload".to_owned(), workload.clone());
    report.insert("seed".to_owned(), seed.to_string());
    report.insert("seconds".to_owned(), seconds.to_string());
    report.insert("trace".to_owned(), trace.to_string());
    report.insert("samples".to_owned(), outcome.latencies_ms.len().to_string());
    println!(
        "{{\"report\": {}, \"fingerprint\": {}, \"problems\": {:?}}}",
        json_map(&report),
        json_map(&outcome.fingerprint),
        outcome.problems
    );
    for p in &outcome.problems {
        eprintln!("check failed: {p}");
    }
    let correct = outcome.problems.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.attempted.max(1),
        outcome.attempted.saturating_sub(outcome.ok),
        json_metrics(&metrics)
    );
    if !correct {
        std::process::exit(1);
    }
}

/// The traced run: the requested workload untraced and traced (for the
/// overhead share), then every other workload traced, each at half the
/// run length. Each per-layer metric comes from the workload that owns
/// it, so its value does not depend on which workload was requested.
/// Returns the requested workload's traced outcome, carrying every
/// run's failed checks, and the per-layer metrics.
fn traced(workload: &str, seed: u64, seconds: f64) -> (Outcome, Vec<Metric>) {
    let half = (seconds / 2.0).max(1.0);
    let base = run(workload, seed, half, false);
    let mut layers = Vec::new();
    let mut problems = base.problems.clone();
    let mut requested = None;
    for w in WORKLOADS {
        let o = run(w, seed, half, true);
        problems.extend(o.problems.iter().map(|p| format!("{w}: {p}")));
        layers.extend(o.layers.iter().cloned());
        if w == workload {
            requested = Some(o);
        }
    }
    let mut requested = requested.expect("requested workload is one of WORKLOADS");
    metric(
        &mut layers,
        "trace.overhead_share",
        1.0 - requested.ops_per_s() / base.ops_per_s().max(1e-9),
        "share",
    );
    requested.problems = problems;
    (requested, layers)
}
