//! The `serve` workload: the in-process daemon under an open loop.
//!
//! `perceus_serve::start` runs with one worker per core. Requests arrive
//! on a seeded Poisson schedule, first at a base rate and then at the
//! rates of a capacity staircase, from at most `nproc` connections, each
//! with one generator thread (and one thread reading its replies). Every
//! request line — a `run`, or a `resume` of a suspended session — is
//! timed from when it was due, so a stall counts against every request it
//! delays. The traffic is the repository's load-test mix at test size,
//! nearly all cache hits; a seeded share carries a fresh source (a nonce
//! comment) and so compiles on the request path, a share reads the
//! cross-session shared input, and a share is fuel-starved and resumable.
//! Per-session fixed costs dominate here: admission, queueing,
//! `Heap::reset`, audit and encoding.

use crate::metrics::{Metrics, Tally};
use crate::speed::{Speed, Timed};
use crate::stats::{median, quantile, Rng};
use crate::trace::Tracer;
use crate::Cfg;
use perceus_runtime::machine::RunConfig;
use perceus_serve::json::{self, Json, ObjBuilder};
use perceus_serve::loadtest::{LoadConfig, PLACEMENT_COUNTERS};
use perceus_serve::{start, ServeConfig, ServerHandle};
use perceus_suite::{oracle_run, run_parallel, workload, Strategy};
use std::collections::{BTreeMap, HashMap};
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The base arrival rate (requests per second). Latency percentiles
/// are reported at this rate.
pub const BASE_RATE: f64 = 600.0;

/// The p99 latency limit a capacity probe must meet. It lies well above
/// the 40-48 ms bump the daemon's delayed replies leave in the latency
/// histogram (see `README.md`), so a probe fails on queue growth rather
/// than on whether that bump passes 1% of its lines.
pub const P99_LIMIT_MS: f64 = 100.0;

/// Share of the run's seconds spent at the base rate; the rest probes
/// the capacity.
const BASE_SHARE: f64 = 0.4;

/// Length of one capacity probe.
const PROBE_S: f64 = 1.0;

/// Unmeasured traffic at the same rate after each phase's measured
/// arrivals, so their replies and resume legs meet a steady stream rather
/// than an idle client. It carries no fuel-starved sessions, whose resume
/// chains would outlast it.
const TAIL_S: f64 = 0.3;

/// The capacity staircase: the first rate probed, its first step factor,
/// the smallest step it narrows to, and the fewest probes it runs.
const FIRST_PROBE: f64 = 1.5 * BASE_RATE;
const FIRST_STEP: f64 = 1.15;
const MIN_STEP: f64 = 1.04;
const MIN_PROBES: usize = 8;

/// Share of requests that carry a fresh source and so miss the program
/// cache. The repository's load test sends no misses; this share is an
/// assumption (see `README.md`).
const MISS_SHARE: f64 = 0.01;

/// Workloads that declare a shared input.
const SHARED: [&str; 2] = ["map", "refs"];

/// How long replies may trail the last due time of a phase.
const DRAIN: Duration = Duration::from_secs(10);

/// The request mix: the repository's load-test traffic
/// (`LoadConfig::default()`: its workload mix, and one in `shared_every`
/// shared-capable sessions over the shared input, one in `starve_every`
/// fuel-starved and resumable at `resume_fuel` steps a leg, one in
/// `profile_every` profiled), drawn per request from the seed instead of
/// cycled by session index, plus [`MISS_SHARE`] cache misses.
struct Traffic {
    mix: Vec<&'static str>,
    shared: f64,
    starved: f64,
    profiled: f64,
}

fn every(k: u64) -> f64 {
    if k == 0 {
        0.0
    } else {
        1.0 / k as f64
    }
}

impl Traffic {
    fn loadtest() -> Traffic {
        let cfg = LoadConfig::default();
        Traffic {
            mix: cfg
                .mix
                .iter()
                .map(|n| {
                    workload(n)
                        .expect("load-test mix names registry workloads")
                        .name
                })
                .collect(),
            shared: every(cfg.shared_every),
            starved: every(cfg.starve_every),
            profiled: every(cfg.profile_every),
        }
    }
}

/// Per-leg fuel of a starved session: the load test's `resume_fuel`.
fn starved_fuel() -> u64 {
    LoadConfig::default().resume_fuel.max(1)
}

/// One scheduled request.
#[derive(Debug, Clone, PartialEq)]
pub struct Planned {
    pub id: u64,
    /// Offset of its due time from the phase start.
    pub due: Duration,
    pub workload: &'static str,
    /// Sent as a fresh `source` rather than by name: a cache miss.
    pub miss: bool,
    pub shared: bool,
    /// Fuel-starved and resumable: suspends and is resumed leg by leg.
    pub starved: bool,
    pub profiled: bool,
    /// Due within the measured part of its phase (not in the tail).
    pub measured: bool,
}

/// The seeded arrivals of one phase: Poisson at `rate` for `seconds`, then
/// for [`TAIL_S`] more.
pub fn plan(seed: u64, phase: usize, rate: f64, seconds: f64, first_id: u64) -> Vec<Planned> {
    let traffic = Traffic::loadtest();
    let mut rng = Rng::new(seed.wrapping_mul(31).wrapping_add(phase as u64 + 1));
    let mut out = Vec::new();
    let mut t = 0.0;
    loop {
        t += -(1.0 - rng.unit()).ln() / rate;
        if t >= seconds + TAIL_S {
            return out;
        }
        let measured = t < seconds;
        let workload = traffic.mix[rng.below(traffic.mix.len())];
        let miss = rng.unit() < MISS_SHARE;
        let shared = !miss && SHARED.contains(&workload) && rng.unit() < traffic.shared;
        let starved = !miss && rng.unit() < traffic.starved && measured;
        let profiled = !miss && rng.unit() < traffic.profiled;
        out.push(Planned {
            id: first_id + out.len() as u64,
            due: Duration::from_secs_f64(t),
            workload,
            miss,
            shared,
            starved,
            profiled,
            measured,
        });
    }
}

fn run_line(p: &Planned) -> String {
    let w = workload(p.workload).expect("registry name");
    let mut b = ObjBuilder::new()
        .str("op", "run")
        .u64("v", 2)
        .u64("id", p.id)
        .i64("n", w.test_n);
    b = if p.miss {
        b.str("source", &format!("{}\n// nonce {}\n", w.source, p.id))
    } else {
        b.str("workload", p.workload)
    };
    if p.shared {
        b = b.bool("shared", true);
    }
    if p.starved {
        b = b.u64("fuel", starved_fuel()).bool("resumable", true);
    }
    if p.profiled {
        b = b.bool("profile", true);
    }
    b.finish()
}

fn resume_line(id: u64, session: u64) -> String {
    ObjBuilder::new()
        .str("op", "resume")
        .u64("v", 2)
        .u64("id", id)
        .u64("session", session)
        .u64("fuel", starved_fuel())
        .finish()
}

/// The reference answers, from the Fig. 6 oracle (and the suite's own
/// shared-input runner) rather than from the daemon.
struct Expect {
    value: String,
    output: Vec<i64>,
    shared_value: Option<String>,
    counters: Vec<(String, u64)>,
}

fn expectations() -> Result<BTreeMap<&'static str, Expect>, String> {
    let baseline = crate::load_baseline()?;
    let mut out = BTreeMap::new();
    for name in Traffic::loadtest().mix {
        let w = workload(name).expect("registry name");
        let (value, output) =
            oracle_run(w.source, w.test_n, u64::MAX).map_err(|e| e.to_string())?;
        let shared_value = match w.parallel {
            Some(_) => Some(
                run_parallel(&w, Strategy::Perceus, w.test_n, 1, RunConfig::default())
                    .map_err(|e| e.to_string())?
                    .value
                    .to_string(),
            ),
            None => None,
        };
        let row = baseline
            .workloads
            .iter()
            .find(|r| r.name == w.name && r.n == w.test_n)
            .ok_or_else(|| format!("{} at n={} is not in BENCH_BASELINE.json", w.name, w.test_n))?;
        out.insert(
            w.name,
            Expect {
                value: value.to_string(),
                output,
                shared_value,
                counters: row.counters.clone(),
            },
        );
    }
    Ok(out)
}

/// One answered request line.
#[derive(Debug, Clone)]
struct Line {
    id: u64,
    due: Instant,
    done: Instant,
    micros: u64,
    /// `Some(cached)` for a `run` line, `None` for a `resume`.
    cached: Option<bool>,
    atomic_ops: u64,
}

/// What one phase observed.
#[derive(Default)]
struct Phase {
    rate: f64,
    lines: Vec<Line>,
    busy_retries: u64,
    resume_legs: u64,
    backlog_max: usize,
    /// Requests outstanding when the phase's last measured request was
    /// sent.
    backlog_end: usize,
    lag_ms: Vec<f64>,
    failed: u64,
    start: Option<Instant>,
    last_done: Option<Instant>,
}

impl Phase {
    fn latencies_ms(&self) -> Vec<f64> {
        self.lines
            .iter()
            .map(|l| l.done.duration_since(l.due).as_secs_f64() * 1e3)
            .collect()
    }

    fn p(&self, q: f64) -> f64 {
        quantile(&self.latencies_ms(), q)
    }

    /// The median over the phase's seconds (by due time) of each
    /// second's p99. A host stall of a few hundred milliseconds delays a
    /// few percent of a whole phase's lines and would decide its p99; here
    /// it decides one second's. Seconds with fewer than 100 lines (the
    /// stragglers of resume chains) have no p99 and are skipped.
    fn p99_by_second(&self) -> f64 {
        let start = self.start.expect("phase started");
        let mut seconds: BTreeMap<u64, Vec<f64>> = BTreeMap::new();
        for (l, ms) in self.lines.iter().zip(self.latencies_ms()) {
            seconds
                .entry(l.due.saturating_duration_since(start).as_secs())
                .or_default()
                .push(ms);
        }
        let p99s: Vec<f64> = seconds
            .values()
            .filter(|v| v.len() >= 100)
            .map(|v| quantile(v, 0.99))
            .collect();
        median(&p99s)
    }

    fn passes(&self) -> bool {
        self.failed == 0
            && !self.lines.is_empty()
            && self.p(0.99) <= P99_LIMIT_MS
            && self.backlog_end as f64 <= (self.rate * P99_LIMIT_MS / 1e3).max(1.0)
    }
}

struct Pending {
    planned: Planned,
    due: Instant,
    /// The session token while the outstanding line is a `resume`.
    session: Option<u64>,
}

/// Mutable state one connection's generator and reader share.
struct Conn {
    writer: Mutex<TcpStream>,
    pending: Mutex<HashMap<u64, Pending>>,
    sender_done: AtomicBool,
}

fn write_line(conn: &Conn, line: &str) -> Result<(), String> {
    let mut w = conn
        .writer
        .lock()
        .expect("writer lock poisoned by a panicking client thread");
    w.write_all(line.as_bytes())
        .and_then(|()| w.write_all(b"\n"))
        .map_err(|e| format!("send: {e}"))
}

/// Local tallies of one connection's reader.
#[derive(Default)]
struct ReaderOut {
    lines: Vec<Line>,
    busy_retries: u64,
    resume_legs: u64,
    problems: Vec<String>,
    checked: u64,
    last_done: Option<Instant>,
}

/// Checks one terminal or suspended reply; returns its problems.
fn check_reply(resp: &Json, p: &Pending, expect: &BTreeMap<&'static str, Expect>) -> Vec<String> {
    let mut problems = Vec::new();
    let outcome = resp.get("outcome").and_then(Json::as_str).unwrap_or("?");
    let code = resp.get("code").and_then(Json::as_str).unwrap_or("");
    if outcome == "rejected" && p.session.is_some() && code == "no-such-session" {
        // Evicted while parked: the daemon audited and repaid the parked
        // heap when it aborted the session. A documented terminal state,
        // as in the load test.
        return problems;
    }
    if resp.get("audit_ok").and_then(Json::as_bool) != Some(true) {
        problems.push(format!("{outcome} reply failed its audit"));
    }
    if outcome == "suspended" {
        return problems;
    }
    if outcome != "ok" {
        problems.push(format!(
            "outcome {outcome}: {}",
            resp.get("error").and_then(Json::as_str).unwrap_or("")
        ));
        return problems;
    }
    let e = &expect[p.planned.workload];
    for key in ["leaked_blocks", "shared_ref_drift"] {
        let v = resp.get(key).and_then(Json::as_u64);
        if v != Some(0) {
            problems.push(format!("{key} = {v:?}"));
        }
    }
    let value = resp.get("value").and_then(Json::as_str);
    let want = if p.planned.shared {
        e.shared_value.as_deref()
    } else {
        Some(e.value.as_str())
    };
    if value != want {
        problems.push(format!("value {value:?}, expected {want:?}"));
    }
    if !p.planned.shared {
        let output: Vec<i64> = match resp.get("output") {
            Some(Json::Arr(a)) => a.iter().filter_map(Json::as_i64).collect(),
            _ => Vec::new(),
        };
        if output != e.output {
            problems.push("output differs from the oracle".into());
        }
        let mut got = [0u64; 18];
        for (slot, key) in got.iter_mut().zip(perceus_runtime::SCHEDULE_KEYS) {
            *slot = resp
                .get("counters")
                .and_then(|c| c.get(key))
                .and_then(Json::as_u64)
                .unwrap_or(u64::MAX);
        }
        problems.extend(crate::counter_drift(&e.counters, &got, &PLACEMENT_COUNTERS));
    }
    problems
}

fn reader(
    stream: TcpStream,
    conn: &Conn,
    expect: &BTreeMap<&'static str, Expect>,
) -> Result<ReaderOut, String> {
    stream
        .set_read_timeout(Some(Duration::from_millis(20)))
        .map_err(|e| e.to_string())?;
    let mut rd = BufReader::new(stream);
    let mut out = ReaderOut::default();
    let mut buf = Vec::new();
    let mut deadline: Option<Instant> = None;
    loop {
        if conn.sender_done.load(Ordering::SeqCst) {
            let pending = conn.pending.lock().expect("pending lock").len();
            if pending == 0 {
                return Ok(out);
            }
            let d = *deadline.get_or_insert_with(|| Instant::now() + DRAIN);
            if Instant::now() >= d {
                out.problems
                    .push(format!("{pending} requests got no reply"));
                out.checked += pending as u64;
                return Ok(out);
            }
        }
        match rd.read_until(b'\n', &mut buf) {
            Ok(0) => return Err("daemon closed the connection".into()),
            Ok(_) if buf.last() == Some(&b'\n') => {}
            Ok(_) => continue,
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => continue,
            Err(e) => return Err(format!("recv: {e}")),
        }
        let done = Instant::now();
        let text = String::from_utf8_lossy(&buf).trim().to_string();
        buf.clear();
        let resp = json::parse(&text).map_err(|e| format!("bad reply {text:?}: {e}"))?;
        let id = resp
            .get("id")
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("reply without id: {text}"))?;
        let outcome = resp.get("outcome").and_then(Json::as_str).unwrap_or("?");
        let mut pending = conn.pending.lock().expect("pending lock");
        let p = pending
            .remove(&id)
            .ok_or_else(|| format!("reply for unknown id {id}"))?;
        if outcome == "busy" {
            // Backpressure: the line never ran. Send it again; its latency
            // still counts from the original due time.
            out.busy_retries += 1;
            let line = match p.session {
                Some(token) => resume_line(id, token),
                None => run_line(&p.planned),
            };
            pending.insert(id, p);
            drop(pending);
            write_line(conn, &line)?;
            continue;
        }
        if p.planned.measured {
            out.lines.push(Line {
                id,
                due: p.due,
                done,
                micros: resp.get("micros").and_then(Json::as_u64).unwrap_or(0),
                cached: p
                    .session
                    .is_none()
                    .then(|| resp.get("cached").and_then(Json::as_bool) == Some(true)),
                atomic_ops: resp.get("atomic_ops").and_then(Json::as_u64).unwrap_or(0),
            });
        }
        out.last_done = Some(done);
        let problems = check_reply(&resp, &p, expect);
        out.checked += 1;
        if !problems.is_empty() {
            out.problems.push(format!(
                "request {id} ({}): {}",
                p.planned.workload,
                problems.join("; ")
            ));
        }
        if outcome == "suspended" {
            let Some(token) = resp.get("session").and_then(Json::as_u64) else {
                return Err(format!("suspended reply without a session: {text}"));
            };
            out.resume_legs += 1;
            pending.insert(
                id,
                Pending {
                    planned: p.planned,
                    due: done,
                    session: Some(token),
                },
            );
            drop(pending);
            write_line(conn, &resume_line(id, token))?;
        }
    }
}

/// Runs one phase's schedule over `conns` connections.
fn run_phase(
    addr: &str,
    schedule: &[Planned],
    rate: f64,
    conns: usize,
    expect: &BTreeMap<&'static str, Expect>,
    tally: &mut Tally,
) -> Result<Phase, String> {
    let start = Instant::now() + Duration::from_millis(20);
    let mut phase = Phase {
        rate,
        start: Some(start),
        ..Phase::default()
    };
    let results = std::thread::scope(|s| -> Result<Vec<_>, String> {
        let mut handles = Vec::new();
        for c in 0..conns {
            let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
            stream.set_nodelay(true).map_err(|e| e.to_string())?;
            let conn = Arc::new(Conn {
                writer: Mutex::new(stream.try_clone().map_err(|e| e.to_string())?),
                pending: Mutex::new(HashMap::new()),
                sender_done: AtomicBool::new(false),
            });
            let mine: Vec<&Planned> = schedule.iter().skip(c).step_by(conns).collect();
            let gen_conn = Arc::clone(&conn);
            let generator = s.spawn(move || -> Result<(Vec<f64>, usize, usize), String> {
                let (mut lag, mut backlog_max, mut backlog_end) = (Vec::new(), 0, 0);
                let result = (|| {
                    for p in mine {
                        let due = start + p.due;
                        let now = Instant::now();
                        if due > now {
                            std::thread::sleep(due - now);
                        }
                        let sent = Instant::now();
                        lag.push(sent.duration_since(due).as_secs_f64() * 1e3);
                        {
                            let mut pending = gen_conn.pending.lock().expect("pending lock");
                            backlog_max = backlog_max.max(pending.len());
                            if p.measured {
                                backlog_end = pending.len();
                            }
                            pending.insert(
                                p.id,
                                Pending {
                                    planned: p.clone(),
                                    due,
                                    session: None,
                                },
                            );
                        }
                        write_line(&gen_conn, &run_line(p))?;
                    }
                    Ok(())
                })();
                gen_conn.sender_done.store(true, Ordering::SeqCst);
                result.map(|()| (lag, backlog_max, backlog_end))
            });
            let read_conn = Arc::clone(&conn);
            let replies = s.spawn(move || reader(stream, &read_conn, expect));
            handles.push((generator, replies));
        }
        let mut out = Vec::new();
        for (g, r) in handles {
            let g = g
                .join()
                .map_err(|_| "generator thread panicked".to_string())?;
            let r = r.join().map_err(|_| "reader thread panicked".to_string())?;
            out.push((g?, r?));
        }
        Ok(out)
    })?;
    for ((lag, bmax, bend), r) in results {
        phase.lag_ms.extend(lag);
        phase.backlog_max = phase.backlog_max.max(bmax);
        phase.backlog_end += bend;
        phase.lines.extend(r.lines);
        phase.busy_retries += r.busy_retries;
        phase.resume_legs += r.resume_legs;
        phase.last_done = phase.last_done.max(r.last_done);
        tally.attempted += r.checked;
        tally.failed += r.problems.len() as u64;
        phase.failed += r.problems.len() as u64;
        tally.failures.extend(r.problems);
    }
    Ok(phase)
}

/// Set-up: start the daemon and warm it: every mix workload once (filling
/// the program cache) and each shared input of the mix once.
fn start_daemon(workers: usize) -> Result<ServerHandle, String> {
    let handle = start(ServeConfig {
        workers,
        ..ServeConfig::default()
    })
    .map_err(|e| format!("starting the daemon: {e}"))?;
    let stream = TcpStream::connect(handle.addr()).map_err(|e| format!("connect: {e}"))?;
    let mut writer = stream.try_clone().map_err(|e| e.to_string())?;
    let mut rd = BufReader::new(stream);
    let mix = Traffic::loadtest().mix;
    let warm: Vec<Planned> = mix
        .iter()
        .map(|w| (*w, false))
        .chain(
            mix.iter()
                .filter(|w| SHARED.contains(w))
                .map(|w| (*w, true)),
        )
        .enumerate()
        .map(|(i, (workload, shared))| Planned {
            id: i as u64,
            due: Duration::ZERO,
            workload,
            miss: false,
            shared,
            starved: false,
            profiled: false,
            measured: true,
        })
        .collect();
    for p in warm {
        writer
            .write_all(format!("{}\n", run_line(&p)).as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        let mut line = String::new();
        rd.read_line(&mut line).map_err(|e| format!("recv: {e}"))?;
        let resp = json::parse(line.trim())?;
        if resp.get("outcome").and_then(Json::as_str) != Some("ok") {
            return Err(format!("warm-up of {} failed: {}", p.workload, line.trim()));
        }
    }
    Ok(handle)
}

pub fn run(cfg: &Cfg) -> Result<crate::Outcome, String> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut tally = Tally::default();
    let mut metrics = Metrics::default();

    let mut setups = Vec::new();
    let mut daemon: Option<ServerHandle> = None;
    let mut expect = BTreeMap::new();
    let mut speed = Speed::default();
    for _ in 0..cfg.setups() {
        if let Some(old) = daemon.take() {
            old.join();
        }
        speed.tick();
        let (start, t) = (speed.now(), Instant::now());
        expect = expectations()?;
        daemon = Some(start_daemon(nproc)?);
        let raw = t.elapsed().as_secs_f64();
        setups.push(Timed {
            start,
            end: speed.now(),
            raw,
        });
    }
    let setup_s = speed.factors().median(&setups);
    let daemon = daemon.expect("at least one set-up");
    let addr = daemon.addr().to_string();

    // Created before the first request so every span time is after it.
    let mut tr = Tracer::new(cfg.trace);
    let base_s = (cfg.seconds * BASE_SHARE).floor().max(1.0);
    // Probes run until the run's seconds are spent (draining an
    // overloaded probe takes longer than the probe), at least
    // MIN_PROBES.
    let deadline = Instant::now() + cfg.duration();
    let base_plan = plan(cfg.seed, 0, BASE_RATE, base_s, 1_000_000);
    let mut first_id = 1_000_000 + base_plan.len() as u64;
    let mut phases = vec![run_phase(
        &addr, &base_plan, BASE_RATE, nproc, &expect, &mut tally,
    )?];
    let more =
        |i: usize| i < MIN_PROBES || Instant::now() + Duration::from_secs_f64(PROBE_S) <= deadline;
    let steps = staircase(more, |i, rate| {
        let schedule = plan(cfg.seed, i + 1, rate, PROBE_S, first_id);
        first_id += schedule.len() as u64;
        let ph = run_phase(&addr, &schedule, rate, nproc, &expect, &mut tally)?;
        let pass = ph.passes();
        phases.push(ph);
        Ok(pass)
    })?;
    let peak_rss = crate::stats::peak_rss_mb();
    daemon.join();

    let base = &phases[0];
    let max_rps = capacity(&steps);
    if cfg.trace {
        layer_metrics(&phases, &mut tr, &mut metrics);
        // The serve spans are built from the replies after the run, so
        // the traced run's requests take the untraced path.
        metrics.set("trace.overhead_share", 0.0);
    } else {
        metrics.set("setup_s", setup_s);
        metrics.set("peak_rss_mb", peak_rss);
        metrics.set("primary_ms", base.p(0.5));
        metrics.set("secondary_ms", base.p99_by_second());
        metrics.set("rate_per_s", max_rps);
    }
    let summary = format!(
        "serve: p50_ms={:.4} p99_ms={:.4} (by second; whole phase {:.4}) (n={}, {BASE_RATE} rps) max_rps={max_rps:.2} (limit p99<={P99_LIMIT_MS} ms) probes=[{}]",
        base.p(0.5),
        base.p99_by_second(),
        base.p(0.99),
        base.lines.len(),
        phases[1..]
            .iter()
            .map(|p| format!(
                "{:.0}:{:.1}/{}{}",
                p.rate,
                p.p(0.99),
                p.backlog_end,
                if p.passes() { "+" } else { "-" }
            ))
            .collect::<Vec<_>>()
            .join(" ")
    );
    Ok(crate::Outcome {
        tally,
        metrics,
        tracer: tr,
        summary,
    })
}

/// The capacity staircase: calls `probe(i, rate)`, which runs one probe
/// and says whether it passed, while `more(i)`. The rate goes up a step
/// after a pass and down after a failure, the step narrowing at each
/// reversal. Returns every `(rate, passed)`.
fn staircase(
    mut more: impl FnMut(usize) -> bool,
    mut probe: impl FnMut(usize, f64) -> Result<bool, String>,
) -> Result<Vec<(f64, bool)>, String> {
    let (mut rate, mut step) = (FIRST_PROBE, FIRST_STEP);
    let mut steps: Vec<(f64, bool)> = Vec::new();
    for i in (0..).take_while(|&i| more(i)) {
        let pass = probe(i, rate)?;
        if steps.last().is_some_and(|&(_, last)| last != pass) {
            step = step.sqrt().max(MIN_STEP);
        }
        steps.push((rate, pass));
        rate = if pass { rate * step } else { rate / step };
    }
    Ok(steps)
}

/// The capacity estimate from the staircase's `(rate, passed)` probes:
/// the geometric mean of the rates probed from the first reversal on,
/// the rate a probe passes about half the time. Without a reversal, the
/// mean of every probe.
pub fn capacity(steps: &[(f64, bool)]) -> f64 {
    let from = steps
        .windows(2)
        .position(|w| w[0].1 != w[1].1)
        .map_or(0, |i| i + 1);
    let tail = &steps[from..];
    (tail.iter().map(|(r, _)| r.ln()).sum::<f64>() / tail.len().max(1) as f64).exp()
}

/// Per-layer serve metrics, and the request spans: each answered line is
/// a `serve.request` span from its due time to its reply, holding a
/// `serve.service` span for the daemon-measured session time.
fn layer_metrics(phases: &[Phase], tr: &mut Tracer, m: &mut Metrics) {
    let window_start = phases[0].start.expect("phase started");
    let window_end = phases
        .iter()
        .filter_map(|p| p.last_done)
        .max()
        .unwrap_or(window_start);
    let base = &phases[0];
    let all = || phases.iter().flat_map(|p| p.lines.iter());
    for l in all() {
        let (due, done) = (tr.ns(l.due), tr.ns(l.done));
        let parent = tr.record("serve.request", due, done, l.id);
        tr.record_under(
            parent,
            "serve.service",
            done.saturating_sub(l.micros * 1000),
            done,
            l.id,
        );
    }
    let service: Vec<f64> = base.lines.iter().map(|l| l.micros as f64 / 1e3).collect();
    let wait: Vec<f64> = base
        .lines
        .iter()
        .map(|l| {
            (l.done.duration_since(l.due).as_secs_f64() * 1e3 - l.micros as f64 / 1e3).max(0.0)
        })
        .collect();
    let miss: Vec<f64> = all()
        .filter(|l| l.cached == Some(false))
        .map(|l| l.micros as f64 / 1e3)
        .collect();
    let runs = all().filter(|l| l.cached.is_some()).count();
    let hits = all().filter(|l| l.cached == Some(true)).count();
    m.set("serve.service_p50_ms", median(&service));
    m.set("serve.service_p99_ms", quantile(&service, 0.99));
    m.set("serve.wait_p99_ms", quantile(&wait, 0.99));
    m.set("serve.miss_service_p50_ms", median(&miss));
    m.set("serve.cache_hit_ratio", hits as f64 / runs.max(1) as f64);
    m.set(
        "serve.atomic_ops",
        all().map(|l| l.atomic_ops).sum::<u64>() as f64,
    );
    m.set(
        "serve.resume_legs",
        phases.iter().map(|p| p.resume_legs).sum::<u64>() as f64,
    );
    m.set(
        "serve.busy_retries",
        phases.iter().map(|p| p.busy_retries).sum::<u64>() as f64,
    );
    m.set(
        "serve.backlog_max",
        phases.iter().map(|p| p.backlog_max).max().unwrap_or(0) as f64,
    );
    let lag: Vec<f64> = phases
        .iter()
        .flat_map(|p| p.lag_ms.iter().copied())
        .collect();
    m.set("serve.gen_lag_p99_ms", quantile(&lag, 0.99));
    let (lo, hi) = (tr.ns(window_start), tr.ns(window_end));
    m.set(
        "trace.unattributed_share",
        crate::trace::unattributed_ns(tr.spans(), lo, hi) as f64 / (hi - lo).max(1) as f64,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_different_seed_changes_the_arrivals() {
        let a = plan(1, 0, 400.0, 5.0, 0);
        let b = plan(2, 0, 400.0, 5.0, 0);
        assert_eq!(a, plan(1, 0, 400.0, 5.0, 0), "same seed, same inputs");
        assert_ne!(a, b);
        // Poisson at 400/s for 5 s: about 2000 measured arrivals, in due
        // order, then an unmeasured tail with no starved sessions.
        let measured = a.iter().filter(|p| p.measured).count();
        assert!((1800..2200).contains(&measured), "{measured}");
        assert!(a.windows(2).all(|w| w[0].due <= w[1].due));
        let tail: Vec<_> = a.iter().filter(|p| !p.measured).collect();
        assert!(!tail.is_empty() && tail.iter().all(|p| !p.starved));
        assert!(tail.iter().all(|p| p.due.as_secs_f64() >= 5.0));
        let mix = Traffic::loadtest().mix;
        assert!(a.iter().all(|p| mix.contains(&p.workload)));
        for (what, share, want) in [
            ("miss", a.iter().filter(|p| p.miss).count(), MISS_SHARE),
            (
                "starved",
                a.iter().filter(|p| p.starved).count(),
                1.0 / 31.0,
            ),
            (
                "profiled",
                a.iter().filter(|p| p.profiled).count(),
                1.0 / 97.0,
            ),
        ] {
            let got = share as f64 / a.len() as f64;
            assert!(got > want / 2.0 && got < want * 2.0, "{what}: {got}");
        }
        let shared: Vec<_> = a.iter().filter(|p| p.shared).collect();
        assert!(!shared.is_empty());
        assert!(shared
            .iter()
            .all(|p| SHARED.contains(&p.workload) && !p.miss));
    }

    #[test]
    fn the_staircase_finds_a_capacity_either_side_of_the_start() {
        for knee in [700.0, 1070.0, 2500.0] {
            let steps = staircase(|i| i < 12, |_, rate| Ok(rate <= knee)).unwrap();
            let found = capacity(&steps);
            assert!(
                found > knee / 1.12 && found < knee * 1.12,
                "knee {knee}: {found} from {steps:?}"
            );
        }
        let steps = [
            (900.0, true),
            (1125.0, true),
            (1406.0, false),
            (1258.0, true),
        ];
        assert!((capacity(&steps) - (1406.0f64 * 1258.0).sqrt()).abs() < 1e-6);
    }

    #[test]
    fn miss_requests_carry_a_fresh_source() {
        let p = Planned {
            id: 42,
            due: Duration::ZERO,
            workload: "map",
            miss: true,
            shared: false,
            starved: false,
            profiled: false,
            measured: true,
        };
        let line = run_line(&p);
        let parsed = json::parse(&line).unwrap();
        assert!(parsed.get("workload").is_none());
        assert!(parsed
            .get("source")
            .and_then(Json::as_str)
            .unwrap()
            .ends_with("// nonce 42\n"));
    }
}
