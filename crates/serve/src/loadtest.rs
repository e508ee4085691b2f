//! The traffic generator: thousands of concurrent mixed-workload
//! sessions against a daemon, with a latency-percentile report and a
//! per-session counter-drift gate.
//!
//! Each client connection keeps a *window* of requests pipelined, so
//! `concurrency = connections × window` sessions are in flight at
//! once without needing a thread per session. Responses come back in
//! completion order and are matched to their send times by `id`.
//!
//! The drift gate is the serving restatement of the repo's
//! deterministic counter baseline (`BENCH_BASELINE.json`): every
//! successful non-shared session at a workload's test size must
//! reproduce the baseline's *schedule counters* exactly — warm heap or
//! cold, first tenant on a worker or ten-thousandth. The three
//! allocator-placement counters (`freelist_hits`, `freelist_misses`,
//! `recycled_words`) are exempt: they legitimately improve on a warm
//! recycled heap, which is the whole point of heap recycling. Sessions
//! deliberately aborted by the fuel knob are checked for clean
//! reclamation instead (audit passes, worker heap survives).

use crate::json::{self, Json, ObjBuilder};
use perceus_bench::Baseline;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Counters whose values depend on allocator placement (warm vs cold
/// free lists), not on the execution schedule — exempt from the exact
/// drift gate.
pub const PLACEMENT_COUNTERS: [&str; 3] = ["freelist_hits", "freelist_misses", "recycled_words"];

/// Traffic-generator configuration.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Daemon address.
    pub addr: String,
    /// Total sessions to run.
    pub sessions: u64,
    /// Client connections.
    pub connections: usize,
    /// Pipelined requests per connection (total concurrency is
    /// `connections × window`).
    pub window: usize,
    /// Workload mix, cycled per session.
    pub mix: Vec<String>,
    /// Every k-th session runs over the cross-session shared input
    /// (0 disables). Applies to workloads that declare one.
    pub shared_every: u64,
    /// Every k-th session gets a deliberately tiny fuel budget so the
    /// run exercises abort-and-reclaim under churn (0 disables).
    pub starve_every: u64,
    /// When true (the default), fuel-starved sessions are sent
    /// `resumable:true` and driven to completion with `resume` ops —
    /// the checkpoint/resume traffic mix. Every starved session must
    /// then end `ok` (bit-identical counters, which the drift gate
    /// checks) or be cleanly evicted (`no-such-session` on resume).
    /// When false, starved sessions abort with `fuel-exhausted` as in
    /// protocol v1.
    pub resume: bool,
    /// Per-leg fuel for starved resumable sessions and their resumes.
    pub resume_fuel: u64,
    /// Every k-th session requests an attributed profile (0 disables).
    pub profile_every: u64,
    /// Counter baseline for the drift gate (`None` skips it).
    pub baseline: Option<Baseline>,
}

impl Default for LoadConfig {
    fn default() -> Self {
        LoadConfig {
            addr: String::new(),
            sessions: 2000,
            connections: 16,
            window: 64,
            mix: ["map", "rbtree", "msort", "queue", "deriv", "tmap"]
                .into_iter()
                .map(String::from)
                .collect(),
            shared_every: 7,
            starve_every: 31,
            resume: true,
            resume_fuel: 2_000,
            profile_every: 97,
            baseline: None,
        }
    }
}

/// Workloads with a `ParallelSpec` (servable over the shared input).
const SHARED_CAPABLE: [&str; 2] = ["map", "refs"];

/// The aggregated result of a load run.
#[derive(Debug, Default)]
pub struct LoadReport {
    pub sessions: u64,
    pub ok: u64,
    pub fuel_exhausted: u64,
    /// Sessions turned away with `busy` (transient backpressure) and
    /// re-sent after backoff. Permanent `rejected` outcomes are *not*
    /// retried — they land in `other_outcomes` and fail the run.
    pub busy_retries: u64,
    pub other_outcomes: u64,
    /// `suspended` legs received (one starved session contributes one
    /// per exhausted budget).
    pub suspended_legs: u64,
    /// Sessions that completed after at least one `resume`.
    pub resumed_sessions: u64,
    /// Suspended sessions whose resume found the session evicted
    /// (`rejected` / `no-such-session`) — a clean terminal state under
    /// park-table pressure, counted toward the answered total.
    pub evicted_sessions: u64,
    pub shared_sessions: u64,
    pub cache_hit_sessions: u64,
    pub leaked_blocks: u64,
    pub audit_violations: u64,
    pub drift_checked: u64,
    pub drift_violations: Vec<String>,
    pub elapsed_secs: f64,
    pub latencies_micros: Vec<u64>,
}

impl LoadReport {
    fn percentile(&self, sorted: &[u64], p: f64) -> u64 {
        if sorted.is_empty() {
            return 0;
        }
        let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
        sorted[idx.min(sorted.len() - 1)]
    }

    /// Whether the run met the serve-smoke gates: every session
    /// answered with a clean terminal state (ok, fuel-exhausted, or a
    /// documented eviction), zero leaks, zero audit violations, zero
    /// drift.
    pub fn passed(&self) -> bool {
        self.ok + self.fuel_exhausted + self.evicted_sessions + self.other_outcomes == self.sessions
            && self.other_outcomes == 0
            && self.leaked_blocks == 0
            && self.audit_violations == 0
            && self.drift_violations.is_empty()
    }

    /// The report as one JSON document (the loadtest's stdout).
    pub fn render_json(&self) -> String {
        let mut sorted = self.latencies_micros.clone();
        sorted.sort_unstable();
        let mean = if sorted.is_empty() {
            0.0
        } else {
            sorted.iter().sum::<u64>() as f64 / sorted.len() as f64
        };
        let mut drift = String::from("[");
        for (i, v) in self.drift_violations.iter().take(10).enumerate() {
            if i > 0 {
                drift.push(',');
            }
            json::push_str_lit(&mut drift, v);
        }
        drift.push(']');
        ObjBuilder::new()
            .bool("ok", self.passed())
            .u64("sessions", self.sessions)
            .u64("sessions_ok", self.ok)
            .u64("fuel_exhausted", self.fuel_exhausted)
            .u64("other_outcomes", self.other_outcomes)
            .u64("suspended_legs", self.suspended_legs)
            .u64("resumed_sessions", self.resumed_sessions)
            .u64("evicted_sessions", self.evicted_sessions)
            .u64("busy_retries", self.busy_retries)
            .u64("shared_sessions", self.shared_sessions)
            .u64("cache_hit_sessions", self.cache_hit_sessions)
            .u64("leaked_blocks", self.leaked_blocks)
            .u64("audit_violations", self.audit_violations)
            .u64("drift_checked", self.drift_checked)
            .u64("drift_violations", self.drift_violations.len() as u64)
            .raw("drift_sample", &drift)
            .f64("elapsed_secs", self.elapsed_secs)
            .f64(
                "throughput_per_sec",
                self.sessions as f64 / self.elapsed_secs.max(1e-9),
            )
            .u64("latency_p50_micros", self.percentile(&sorted, 0.50))
            .u64("latency_p95_micros", self.percentile(&sorted, 0.95))
            .u64("latency_p99_micros", self.percentile(&sorted, 0.99))
            .u64("latency_max_micros", sorted.last().copied().unwrap_or(0))
            .f64("latency_mean_micros", mean)
            .finish()
    }
}

/// Builds the request line for global session index `i`; returns
/// `(line, shared, resumable)`.
fn request_line(cfg: &LoadConfig, i: u64) -> (String, bool, bool) {
    let workload = &cfg.mix[(i % cfg.mix.len() as u64) as usize];
    let shared = cfg.shared_every != 0
        && i.is_multiple_of(cfg.shared_every)
        && SHARED_CAPABLE.contains(&workload.as_str());
    let starved = cfg.starve_every != 0 && i % cfg.starve_every == 3;
    let resumable = starved && cfg.resume;
    let profiled = cfg.profile_every != 0 && i % cfg.profile_every == 11;
    let mut b = ObjBuilder::new()
        .str("op", "run")
        .u64("id", i)
        .str("workload", workload);
    if shared {
        b = b.bool("shared", true);
    }
    if starved {
        // Enough fuel to start allocating, nowhere near enough to
        // finish. Resumable sessions suspend at this budget and are
        // driven to completion leg by leg; plain sessions die with
        // live data the reset must retire.
        b = b.u64("fuel", cfg.resume_fuel.max(1));
        if resumable {
            b = b.u64("v", 2).bool("resumable", true);
        }
    }
    if profiled {
        b = b.bool("profile", true);
    }
    (b.finish(), shared, resumable)
}

/// Builds the resume line for a suspended session (protocol v2).
fn resume_line(id: u64, session: u64, fuel: u64) -> String {
    ObjBuilder::new()
        .str("op", "resume")
        .u64("v", 2)
        .u64("id", id)
        .u64("session", session)
        .u64("fuel", fuel.max(1))
        .finish()
}

/// Checks one ok, non-shared session's counters against the baseline.
fn drift_check(baseline: &Baseline, workload: &str, resp: &Json, violations: &mut Vec<String>) {
    let Some(row) = baseline.workloads.iter().find(|w| w.name == workload) else {
        return;
    };
    let n = resp.get("n").and_then(Json::as_i64).unwrap_or(i64::MIN);
    if n != row.n {
        return; // baseline only covers the test size
    }
    let Some(counters) = resp.get("counters") else {
        violations.push(format!("{workload}: response has no counters"));
        return;
    };
    for (key, expected) in &row.counters {
        if PLACEMENT_COUNTERS.contains(&key.as_str()) {
            continue;
        }
        let got = counters.get(key).and_then(Json::as_u64);
        if got != Some(*expected) {
            violations.push(format!(
                "{workload}: counter {key} = {got:?}, baseline {expected}"
            ));
        }
    }
}

/// Runs the load against a daemon and aggregates the report.
pub fn run(cfg: &LoadConfig) -> Result<LoadReport, String> {
    if cfg.mix.is_empty() || cfg.sessions == 0 {
        return Err("loadtest needs a workload mix and at least one session".into());
    }
    let next = Arc::new(AtomicU64::new(0));
    let report = Arc::new(Mutex::new(LoadReport::default()));
    let start = Instant::now();
    let conns = cfg.connections.max(1);

    std::thread::scope(|s| -> Result<(), String> {
        let mut handles = Vec::new();
        for _ in 0..conns {
            let next = Arc::clone(&next);
            let report = Arc::clone(&report);
            handles.push(s.spawn(move || client(cfg, next, report)));
        }
        let mut first_err = None;
        for h in handles {
            match h.join() {
                Ok(Ok(())) => {}
                Ok(Err(e)) => first_err = first_err.or(Some(e)),
                Err(_) => first_err = first_err.or(Some("client thread panicked".into())),
            }
        }
        first_err.map_or(Ok(()), Err)
    })?;

    let mut report = Arc::try_unwrap(report)
        .map_err(|_| "report still shared")?
        .into_inner()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    report.elapsed_secs = start.elapsed().as_secs_f64();
    report.sessions = cfg.sessions;
    Ok(report)
}

/// One client connection: keeps `window` sessions pipelined until the
/// shared session counter runs out.
fn client(
    cfg: &LoadConfig,
    next: Arc<AtomicU64>,
    report: Arc<Mutex<LoadReport>>,
) -> Result<(), String> {
    let stream = TcpStream::connect(&cfg.addr).map_err(|e| format!("connect: {e}"))?;
    stream
        .set_nodelay(true)
        .map_err(|e| format!("nodelay: {e}"))?;
    let mut writer = stream.try_clone().map_err(|e| format!("clone: {e}"))?;
    let mut reader = BufReader::new(stream);

    // One outstanding request per session id; a resumable session stays
    // in the map across its suspend/resume legs (and keeps its original
    // sent-at, so the latency covers the whole session).
    struct Pending {
        workload: String,
        sent: Instant,
        shared: bool,
        /// `Some(token)` while the outstanding line is a `resume` op.
        resume_of: Option<u64>,
        /// The session has been resumed at least once.
        resumed: bool,
    }
    let mut inflight: HashMap<u64, Pending> = HashMap::new();
    let mut local = LoadReport::default();

    let send = |id: u64,
                writer: &mut TcpStream,
                inflight: &mut HashMap<u64, Pending>|
     -> Result<(), String> {
        let (line, shared, _) = request_line(cfg, id);
        let workload = cfg.mix[(id % cfg.mix.len() as u64) as usize].clone();
        inflight.insert(
            id,
            Pending {
                workload,
                sent: Instant::now(),
                shared,
                resume_of: None,
                resumed: false,
            },
        );
        send_line(writer, &line)
    };

    // Fill the window.
    for _ in 0..cfg.window.max(1) {
        let id = next.fetch_add(1, Ordering::Relaxed);
        if id >= cfg.sessions {
            break;
        }
        send(id, &mut writer, &mut inflight)?;
    }

    let mut line = String::new();
    while !inflight.is_empty() {
        line.clear();
        let read = reader
            .read_line(&mut line)
            .map_err(|e| format!("recv: {e}"))?;
        if read == 0 {
            return Err("server closed the connection mid-run".into());
        }
        let resp = json::parse(line.trim()).map_err(|e| format!("bad response: {e}"))?;
        let Some(id) = resp.get("id").and_then(Json::as_u64) else {
            return Err(format!("response without id: {}", line.trim()));
        };
        let Some(mut pending) = inflight.remove(&id) else {
            return Err(format!("response for unknown id {id}"));
        };
        let outcome = resp.get("outcome").and_then(Json::as_str).unwrap_or("?");

        if outcome == "busy" {
            // Transient backpressure: back off briefly and retry the
            // same leg (the id keeps its identity, and a resume leg
            // re-sends the same session token). Permanent "rejected"
            // outcomes deliberately fall through to `other_outcomes`
            // below — retrying a request the server can never serve
            // would livelock the client.
            local.busy_retries += 1;
            std::thread::sleep(std::time::Duration::from_millis(2));
            match pending.resume_of {
                Some(token) => {
                    let line = resume_line(id, token, cfg.resume_fuel);
                    inflight.insert(id, pending);
                    send_line(&mut writer, &line)?;
                }
                None => send(id, &mut writer, &mut inflight)?,
            }
            continue;
        }

        if outcome == "suspended" {
            // Non-terminal: the session is parked server-side. Push it
            // forward with another budget leg under the same id; the
            // next session is NOT dispensed until this one reaches a
            // terminal state.
            local.suspended_legs += 1;
            let Some(token) = resp.get("session").and_then(Json::as_u64) else {
                return Err(format!(
                    "suspended response without session: {}",
                    line.trim()
                ));
            };
            let resume = resume_line(id, token, cfg.resume_fuel);
            pending.resume_of = Some(token);
            pending.resumed = true;
            inflight.insert(id, pending);
            send_line(&mut writer, &resume)?;
            continue;
        }

        local
            .latencies_micros
            .push(pending.sent.elapsed().as_micros() as u64);
        let (workload, shared, resumed) = (pending.workload, pending.shared, pending.resumed);
        let resume_leg = pending.resume_of.is_some();
        let code = resp.get("code").and_then(Json::as_str).unwrap_or("");
        match outcome {
            "ok" => {
                local.ok += 1;
                if resumed {
                    local.resumed_sessions += 1;
                }
                let leaked = resp
                    .get("leaked_blocks")
                    .and_then(Json::as_u64)
                    .unwrap_or(0);
                local.leaked_blocks += leaked;
                if resp.get("audit_ok").and_then(Json::as_bool) != Some(true) {
                    local.audit_violations += 1;
                }
                // An ok session must have returned every shared
                // reference it minted; drift is tolerated (and
                // documented) only for limit-killed sessions.
                if resp
                    .get("shared_ref_drift")
                    .and_then(Json::as_u64)
                    .unwrap_or(0)
                    != 0
                {
                    local.audit_violations += 1;
                }
                if resp.get("cached").and_then(Json::as_bool) == Some(true) {
                    local.cache_hit_sessions += 1;
                }
                if shared {
                    local.shared_sessions += 1;
                } else if let Some(b) = &cfg.baseline {
                    local.drift_checked += 1;
                    drift_check(b, &workload, &resp, &mut local.drift_violations);
                }
            }
            "fuel-exhausted" => {
                local.fuel_exhausted += 1;
                // The abort is only acceptable if the worker heap came
                // back clean.
                if resp.get("audit_ok").and_then(Json::as_bool) != Some(true) {
                    local.audit_violations += 1;
                }
            }
            // A resume that finds its session gone was evicted under
            // park-table pressure — the server already audited and
            // repaid the parked heap when it aborted the session, so
            // this is a clean terminal state, not a failure.
            "rejected" if resume_leg && code == "no-such-session" => {
                local.evicted_sessions += 1;
            }
            _ => local.other_outcomes += 1,
        }

        let id = next.fetch_add(1, Ordering::Relaxed);
        if id < cfg.sessions {
            send(id, &mut writer, &mut inflight)?;
        }
    }

    let mut r = crate::relock(&report);
    r.ok += local.ok;
    r.fuel_exhausted += local.fuel_exhausted;
    r.busy_retries += local.busy_retries;
    r.other_outcomes += local.other_outcomes;
    r.suspended_legs += local.suspended_legs;
    r.resumed_sessions += local.resumed_sessions;
    r.evicted_sessions += local.evicted_sessions;
    r.shared_sessions += local.shared_sessions;
    r.cache_hit_sessions += local.cache_hit_sessions;
    r.leaked_blocks += local.leaked_blocks;
    r.audit_violations += local.audit_violations;
    r.drift_checked += local.drift_checked;
    r.drift_violations.extend(local.drift_violations);
    r.latencies_micros.extend(local.latencies_micros);
    Ok(())
}

/// Sends one request line and its newline in a single write, so the
/// request leaves as one segment.
fn send_line(writer: &mut TcpStream, line: &str) -> Result<(), String> {
    let mut buf = Vec::with_capacity(line.len() + 1);
    buf.extend_from_slice(line.as_bytes());
    buf.push(b'\n');
    writer.write_all(&buf).map_err(|e| format!("send: {e}"))
}

/// Queries the daemon's `stats` op for the post-run drain check:
/// returns the parsed stats object.
pub fn final_stats(addr: &str) -> Result<Json, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let mut writer = stream.try_clone().map_err(|e| format!("clone: {e}"))?;
    writer
        .write_all(b"{\"op\":\"stats\"}\n")
        .map_err(|e| format!("send: {e}"))?;
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader
        .read_line(&mut line)
        .map_err(|e| format!("recv: {e}"))?;
    json::parse(line.trim())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_lines_cycle_the_mix() {
        let cfg = LoadConfig::default();
        let (line, _, _) = request_line(&cfg, 1);
        assert!(line.contains("\"workload\":\"rbtree\""), "{line}");
        let (line, shared, _) = request_line(&cfg, 0);
        assert!(line.contains("\"workload\":\"map\""), "{line}");
        assert!(shared, "session 0 is map and divisible by shared_every");
        let (line, _, resumable) = request_line(&cfg, 34);
        assert!(line.contains("\"fuel\":2000"), "{line}");
        assert!(line.contains("\"resumable\":true"), "{line}");
        assert!(line.contains("\"v\":2"), "{line}");
        assert!(resumable, "starved sessions are resumable by default");
    }

    #[test]
    fn starved_sessions_stay_plain_without_resume() {
        let cfg = LoadConfig {
            resume: false,
            ..LoadConfig::default()
        };
        let (line, _, resumable) = request_line(&cfg, 34);
        assert!(line.contains("\"fuel\":2000"), "{line}");
        assert!(!line.contains("resumable"), "{line}");
        assert!(!resumable);
    }

    #[test]
    fn resume_lines_carry_version_and_token() {
        let line = resume_line(7, (3 << 48) | 9, 500);
        let v = json::parse(&line).unwrap();
        assert_eq!(v.get("op").and_then(Json::as_str), Some("resume"));
        assert_eq!(v.get("v").and_then(Json::as_u64), Some(2));
        assert_eq!(v.get("id").and_then(Json::as_u64), Some(7));
        assert_eq!(v.get("session").and_then(Json::as_u64), Some((3 << 48) | 9));
        assert_eq!(v.get("fuel").and_then(Json::as_u64), Some(500));
    }

    #[test]
    fn report_gates_on_drift_and_leaks() {
        let mut r = LoadReport {
            sessions: 2,
            ok: 2,
            ..LoadReport::default()
        };
        assert!(r.passed());
        r.leaked_blocks = 1;
        assert!(!r.passed());
        r.leaked_blocks = 0;
        r.drift_violations.push("x".into());
        assert!(!r.passed());
    }

    #[test]
    fn evictions_count_as_answered() {
        let r = LoadReport {
            sessions: 3,
            ok: 1,
            fuel_exhausted: 1,
            evicted_sessions: 1,
            suspended_legs: 5,
            resumed_sessions: 1,
            ..LoadReport::default()
        };
        assert!(r.passed(), "eviction is a clean terminal state");
        let r = LoadReport {
            sessions: 3,
            ok: 2,
            other_outcomes: 1,
            ..LoadReport::default()
        };
        assert!(!r.passed(), "unexplained outcomes still fail the gate");
    }

    #[test]
    fn percentiles_come_from_sorted_latencies() {
        let r = LoadReport {
            sessions: 4,
            ok: 4,
            latencies_micros: vec![40, 10, 30, 20],
            elapsed_secs: 1.0,
            ..LoadReport::default()
        };
        let doc = r.render_json();
        let v = json::parse(&doc).unwrap();
        assert_eq!(v.get("latency_p50_micros").and_then(Json::as_u64), Some(30));
        assert_eq!(v.get("latency_max_micros").and_then(Json::as_u64), Some(40));
    }
}
