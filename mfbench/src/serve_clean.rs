//! `serve-clean`: an open loop over loopback TCP against an in-process
//! `server::spawn` with the `serve` defaults and no chaos. One
//! connection carries seeded mixed-format traffic (`FormatMix::
//! serving_default`) at a fixed Poisson rate with `ArrivalConfig`'s
//! burst shape: a sender thread paces the schedule and a reader thread
//! timestamps responses. Latency runs from each request's *due* time,
//! so a stall also delays every request due behind it.
//!
//! The client behaves as a well-mannered one does: a request refused
//! with `Overloaded` is resent after the server's retry hint, and one
//! cancelled in-queue by `DeadlineExceeded` is resent at once. Neither
//! was executed, so resending is safe; its latency still runs from the
//! first due time, so a host stall that makes the service shed shows as
//! latency (and in `server.retries`), not as a failed operation.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::io::{BufReader, Write};
use std::net::TcpStream;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use mfm_evalkit::workload::{ArrivalConfig, Arrivals, FormatMix, OperandGen};
use mfm_server::server::{spawn, ServerConfig, ServerHandle};
use mfm_server::wire::{
    decode_response, encode_request, read_frame, FrameError, Request, Response,
};
use mfmult::FunctionalUnit;

use crate::core_faulted::{matches_reference, serve_defaults};
use crate::stats::{max, median, quantile, secs};
use crate::{metric, probes, Outcome};

/// Offered load, requests per second. Saturated, the service answers
/// about 39k/s on the reference machine (2 cores, AMD EPYC), but at
/// 16k/s a host hiccup of ~15 ms fills the 256-deep backlog and the
/// service sheds; 10k/s keeps `ok_share` at 1.
const RATE: f64 = 10000.0;
/// Latency percentiles are taken per window of this length (by due
/// time) and the median window is reported, so one host hiccup moves
/// one window rather than the run's tail.
const WINDOW: Duration = Duration::from_secs(1);
/// Server spawns timed for `setup_s` (the last one serves the window).
const SETUP_REPS: usize = 7;
/// The sender wakes at most this often and writes every request due by
/// then in one write, so the client's own wake-ups do not crowd the
/// server's threads off the two cores. Latency still runs from each
/// request's due time, so the flush delay is charged, not hidden.
const FLUSH_EVERY: Duration = Duration::from_millis(1);
/// How long to wait for stragglers after the last send.
const DRAIN: Duration = Duration::from_secs(5);
/// Metric labels of the service phases read from `/metrics`.
const PHASES: [&str; 5] = [
    "queue_wait",
    "batch_fill",
    "compiled_eval",
    "verify",
    "write_back",
];

/// One scheduled request.
struct Planned {
    due: Duration,
    req: Request,
}

/// Spawns a server, connects and waits for one answered request.
fn start(seed: u64) -> (ServerHandle, TcpStream) {
    let handle = spawn(ServerConfig {
        service: serve_defaults(seed),
        ..ServerConfig::default()
    });
    let mut stream = TcpStream::connect(handle.addr).expect("connect to in-process server");
    stream.set_nodelay(true).expect("set TCP_NODELAY");
    let warm = Request {
        id: u64::MAX,
        op: OperandGen::new(seed).mixed_operation(&FormatMix::serving_default()),
        deadline_micros: 0,
        critical: false,
    };
    stream
        .write_all(&encode_request(&warm))
        .expect("send warm-up request");
    let mut r = BufReader::new(stream.try_clone().expect("clone stream"));
    loop {
        match read_frame(&mut r) {
            Ok(Some(_)) => break,
            Err(FrameError::Idle) => {}
            other => panic!("warm-up request failed: {other:?}"),
        }
    }
    (handle, stream)
}

/// Closes the connection and stops the server.
fn stop(handle: ServerHandle, stream: TcpStream) {
    let _ = stream.shutdown(std::net::Shutdown::Both);
    drop(stream);
    handle.stop();
}

/// One HTTP GET against the metrics listener; returns the body.
fn scrape(addr: std::net::SocketAddr) -> String {
    use std::io::Read;
    let mut s = match TcpStream::connect(addr) {
        Ok(s) => s,
        Err(_) => return String::new(),
    };
    let _ = s.write_all(b"GET /metrics HTTP/1.0\r\n\r\n");
    let mut body = String::new();
    let _ = s.read_to_string(&mut body);
    body
}

/// The `quantile="0.5"` line of a Prometheus histogram, in ms.
fn prom_p50_ms(text: &str, name: &str) -> f64 {
    let prefix = format!("{name}{{quantile=\"0.5\"}} ");
    text.lines()
        .find_map(|l| l.strip_prefix(&prefix))
        .and_then(|v| v.trim().parse::<f64>().ok())
        .map_or(0.0, |us| us / 1e3)
}

/// Runs the workload.
pub fn run(seed: u64, seconds: f64, traced: bool) -> Outcome {
    let mut o = Outcome::default();
    // Untimed; done before the server starts so its threads never share
    // the cores with the check.
    let pj = if traced {
        0.0
    } else {
        crate::power_mc::serving_unit_error(&mut o)
    };
    // Each server is stopped before the next is timed: an idle server's
    // threads would otherwise slow every later set-up.
    let mut setup_times = Vec::with_capacity(SETUP_REPS);
    let mut server = None;
    for _ in 0..SETUP_REPS {
        if let Some((h, s)) = server.take() {
            stop(h, s);
        }
        let t = Instant::now();
        server = Some(start(seed));
        setup_times.push(secs(t));
    }
    o.setup_s = median(&setup_times);
    let (handle, stream) = server.expect("at least one set-up");

    // The arrival process: mean gap g outside bursts, g / burst_factor
    // inside; solve for g so the long-run mean rate is RATE.
    let shape = ArrivalConfig::default();
    let burst_share = shape.burst_len as f64 / shape.burst_every as f64;
    let mean_gap = (1.0 - burst_share) + burst_share / shape.burst_factor;
    let mut arrivals = Arrivals::new(ArrivalConfig {
        seed,
        mean_gap_micros: 1e6 / RATE / mean_gap,
        ..shape
    });
    let mut gen = OperandGen::new(seed ^ 0x5e11_ce11_ab1e_0001);
    let mix = FormatMix::serving_default();
    let horizon = Duration::from_secs_f64(seconds);
    let mut clock = Duration::ZERO;
    let mut plan = Vec::new();
    loop {
        clock += Duration::from_micros(arrivals.next_gap_micros());
        if clock > horizon {
            break;
        }
        plan.push(Planned {
            due: clock,
            req: Request {
                id: plan.len() as u64,
                op: gen.mixed_operation(&mix),
                deadline_micros: 0,
                critical: false,
            },
        });
    }
    let n = plan.len();

    let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
    stream
        .set_read_timeout(Some(Duration::from_millis(100)))
        .expect("set read timeout");
    let cpu0 = crate::stats::cpu_seconds();
    let start_at = Instant::now() + Duration::from_millis(10);
    // The reader hands refused requests back to the sender to resend;
    // it drops its end when it stops reading, which ends the sender.
    let (resend_tx, resend_rx) = mpsc::channel::<(Instant, usize)>();
    let (lags_ms, (answers, retries), scrapes_ms) = std::thread::scope(|scope| {
        let sender = scope.spawn(|| {
            let resend_rx = resend_rx;
            let mut w = &stream;
            let mut lags = Vec::with_capacity(n);
            let mut frames = Vec::new();
            let mut resends = BinaryHeap::new();
            let mut next = 0usize;
            loop {
                match resend_rx.try_recv() {
                    Ok(r) => {
                        resends.push(Reverse(r));
                        continue;
                    }
                    // The reader has stopped: nothing more will be read.
                    Err(mpsc::TryRecvError::Disconnected) => break,
                    Err(mpsc::TryRecvError::Empty) => {}
                }
                let wake = [
                    plan.get(next).map(|p| start_at + p.due),
                    resends.peek().map(|r: &Reverse<(Instant, usize)>| r.0 .0),
                ]
                .into_iter()
                .flatten()
                .min();
                let Some(wake) = wake else {
                    // Everything sent: wait for a resend or the reader's end.
                    match resend_rx.recv() {
                        Ok(r) => resends.push(Reverse(r)),
                        Err(_) => break,
                    }
                    continue;
                };
                if let Some(wait) = wake.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait.max(FLUSH_EVERY));
                }
                let now = Instant::now();
                frames.clear();
                while next < n && start_at + plan[next].due <= now {
                    let due = start_at + plan[next].due;
                    lags.push(now.saturating_duration_since(due).as_secs_f64() * 1e3);
                    frames.extend_from_slice(&encode_request(&plan[next].req));
                    next += 1;
                }
                while resends.peek().is_some_and(|r| r.0 .0 <= now) {
                    let Reverse((_, i)) = resends.pop().expect("peeked");
                    frames.extend_from_slice(&encode_request(&plan[i].req));
                }
                w.write_all(&frames).expect("send request frames");
            }
            lags
        });
        let receiver = scope.spawn(|| {
            let resend = resend_tx;
            let mut answers: Vec<Option<(Response, Instant)>> = vec![None; n];
            let mut got = 0usize;
            let mut retries = 0u64;
            let give_up = start_at + horizon + DRAIN;
            while got < n && Instant::now() < give_up {
                match read_frame(&mut reader) {
                    Ok(Some(body)) => {
                        let at = Instant::now();
                        let resp = decode_response(&body).expect("server sends valid frames");
                        let i = resp.id() as usize;
                        let again = match resp {
                            Response::Overloaded {
                                retry_after_micros, ..
                            } => Some(at + Duration::from_micros(retry_after_micros)),
                            Response::DeadlineExceeded { .. } => Some(at),
                            _ => None,
                        };
                        let Some(slot) = answers.get_mut(i) else {
                            continue;
                        };
                        if slot.is_some() {
                            continue;
                        }
                        if let Some(when) = again {
                            retries += 1;
                            let _ = resend.send((when, i));
                        } else {
                            got += 1;
                            *slot = Some((resp, at));
                        }
                    }
                    Err(FrameError::Idle) => {}
                    _ => break,
                }
            }
            (answers, retries)
        });
        // Traced runs scrape /metrics once per second under load.
        let mut scrapes = Vec::new();
        if traced {
            let mut next = start_at + Duration::from_secs(1);
            while next < start_at + horizon {
                if let Some(wait) = next.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                let t = Instant::now();
                std::hint::black_box(scrape(handle.metrics_addr));
                scrapes.push(secs(t) * 1e3);
                next += Duration::from_secs(1);
            }
        }
        (
            sender.join().expect("sender thread"),
            receiver.join().expect("receiver thread"),
            scrapes,
        )
    });
    o.cpu_s = crate::stats::cpu_seconds() - cpu0;
    let last = answers
        .iter()
        .flatten()
        .map(|(_, at)| *at)
        .max()
        .unwrap_or(start_at);
    o.elapsed_s = last.saturating_duration_since(start_at).as_secs_f64();
    let final_scrape = if traced {
        scrape(handle.metrics_addr)
    } else {
        String::new()
    };
    stop(handle, stream);

    let reference = FunctionalUnit::new();
    let (mut escapes, mut refused, mut unanswered) = (0u64, 0u64, 0u64);
    let (mut queue_ms, mut exec_ms, mut unattributed_ms) = (Vec::new(), Vec::new(), Vec::new());
    for (p, answer) in plan.iter().zip(&answers) {
        match answer {
            Some((
                Response::Ok {
                    ph,
                    pl,
                    flags_lo,
                    flags_hi,
                    queue_micros,
                    exec_micros,
                    ..
                },
                at,
            )) => {
                if matches_reference(&reference, p.req.op, *ph, *pl, *flags_lo, *flags_hi) {
                    o.ok += 1;
                    let e2e = at.saturating_duration_since(start_at + p.due).as_secs_f64() * 1e3;
                    let (q, x) = (*queue_micros as f64 / 1e3, *exec_micros as f64 / 1e3);
                    o.latencies_ms.push(e2e);
                    let w = (p.due.as_secs_f64() / WINDOW.as_secs_f64()) as usize;
                    if o.latency_windows.len() <= w {
                        o.latency_windows.resize(w + 1, Vec::new());
                    }
                    o.latency_windows[w].push(e2e);
                    queue_ms.push(q);
                    exec_ms.push(x);
                    unattributed_ms.push(e2e - q - x);
                } else {
                    escapes += 1;
                }
            }
            Some(_) => refused += 1,
            None => unanswered += 1,
        }
    }
    o.attempted = n as u64;
    o.check(escapes == 0, || {
        format!("{escapes} results differ from the reference")
    });
    o.fingerprint.insert("requests".into(), n.to_string());
    o.fingerprint.insert("refused".into(), refused.to_string());
    o.fingerprint
        .insert("unanswered".into(), unanswered.to_string());
    o.fingerprint.insert("retries".into(), retries.to_string());

    if traced {
        let l = &mut o.layers;
        metric(l, "server.queue_ms.p50", median(&queue_ms), "ms");
        metric(l, "server.queue_ms.p99", quantile(&queue_ms, 0.99), "ms");
        metric(l, "server.exec_ms.p50", median(&exec_ms), "ms");
        metric(l, "server.exec_ms.p99", quantile(&exec_ms, 0.99), "ms");
        metric(
            l,
            "server.unattributed_ms.p50",
            median(&unattributed_ms),
            "ms",
        );
        metric(
            l,
            "server.unattributed_ms.p99",
            quantile(&unattributed_ms, 0.99),
            "ms",
        );
        metric(l, "server.retries", retries as f64, "count");
        metric(l, "server.scrape_ms.p50", median(&scrapes_ms), "ms");
        metric(l, "server.scrape_ms.max", max(&scrapes_ms), "ms");
        for phase in PHASES {
            metric(
                l,
                format!("service.phase_ms.{phase}.p50"),
                prom_p50_ms(&final_scrape, &format!("service_phase_micros_{phase}")),
                "ms",
            );
        }
        metric(l, "bench.gen_lag_ms.p99", quantile(&lags_ms, 0.99), "ms");
        probes::request_path(seed, l);
    } else {
        o.pj_err_pct = pj;
    }
    o
}
