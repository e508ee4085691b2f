//! The `batch` workload: the paper's own measure (§4, Fig. 9).
//!
//! The five Fig. 9 programs at their registry `default_n`, Perceus
//! strategy, one thread. Each is compiled once in set-up, then run
//! repeatedly on the abstract machine and on the native executor, in a
//! seeded order per round. Heap, machine and native work dominate; no
//! compile runs in the timed part, so compiler changes should move only
//! `setup_s` here.

use crate::compile::{full_stack, stack_metrics, Input, StackTotals};
use crate::heapops::OpCosts;
use crate::metrics::{Metrics, Tally, FIG9, HEAP_COUNTS};
use crate::speed::{Factors, Speed, Timed};
use crate::stats::{geomean, median, Rng};
use crate::trace::{self, Tracer};
use crate::Cfg;
use perceus_runtime::code::Compiled;
use perceus_runtime::machine::{Machine, RunConfig};
use perceus_runtime::{Stats, Value};
use perceus_suite::{compare_probes, oracle_run, workload, ExecProbe, NativeHarness, Strategy};
use std::collections::BTreeMap;
use std::time::Instant;

/// One program of the batch, compiled.
pub struct Prog {
    pub name: &'static str,
    pub n: i64,
    pub test_n: i64,
    pub compiled: Compiled,
    /// The registry's known result at `n`, when it lists one.
    pub expected: Option<String>,
}

/// Times of one machine run, in nanoseconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct MachineTimes {
    pub run: u64,
    pub read_back: u64,
    pub drop_result: u64,
}

impl MachineTimes {
    pub fn total(&self) -> u64 {
        self.run + self.read_back + self.drop_result
    }
}

/// Runs `main(n)` on the machine: run, read the result back, drop it.
/// Returns what the native executor would report, the times, and the
/// heap statistics.
pub fn machine_op(p: &Prog, n: i64, tr: &mut Tracer, req: u64) -> (ExecProbe, MachineTimes, Stats) {
    let mut m = Machine::new(
        &p.compiled,
        Strategy::Perceus.reclaim_mode(),
        RunConfig::default(),
    );
    let mut times = MachineTimes::default();
    let t = Instant::now();
    let o = tr.enter(format!("machine.{}", p.name), req);
    let ran = m.run_entry(vec![Value::Int(n)]);
    tr.exit(o);
    times.run = t.elapsed().as_nanos() as u64;
    let finished = ran.and_then(|v| {
        let t = Instant::now();
        let o = tr.enter("machine.read_back", req);
        let value = m.read_back(v);
        tr.exit(o);
        times.read_back = t.elapsed().as_nanos() as u64;
        let t = Instant::now();
        let o = tr.enter("machine.drop_result", req);
        let dropped = m.drop_result(v);
        tr.exit(o);
        times.drop_result = t.elapsed().as_nanos() as u64;
        dropped.and(value)
    });
    let (ok, value, error_code) = match finished {
        Ok(v) => (true, Some(v.to_string()), None),
        Err(e) => (false, None, Some(e.code().to_string())),
    };
    let probe = ExecProbe {
        ok,
        value,
        error_code,
        output: m.output().to_vec(),
        counters: m.heap.stats.schedule_values(),
        leaked_blocks: m.heap.live_blocks(),
        wall_ns: times.run,
    };
    (probe, times, m.heap.stats)
}

/// Runs `main(n)` in the native executor; returns its report and the
/// wall time around the subprocess call.
pub fn native_op(
    h: &NativeHarness,
    name: &str,
    n: i64,
    tr: &mut Tracer,
    req: u64,
) -> Result<(ExecProbe, u64), String> {
    let t = Instant::now();
    let o = tr.enter(format!("native.{name}"), req);
    let ran = h.run_native(name, n);
    if let Ok(p) = &ran {
        // The executor's own run time, placed at the end of the call.
        let end = tr.ns(Instant::now());
        tr.record("native.exec", end.saturating_sub(p.wall_ns), end, req);
    }
    tr.exit(o);
    let outside = t.elapsed().as_nanos() as u64;
    ran.map(|p| (p, outside)).map_err(|e| e.to_string())
}

/// The checks of one program run: machine and native agree on value,
/// output, leaks and all 18 counters; nothing leaks; the value is the
/// expected one when it is known.
pub fn judge(
    expected: Option<&str>,
    machine: &ExecProbe,
    native: Option<&ExecProbe>,
) -> Vec<String> {
    let mut problems = Vec::new();
    if !machine.ok {
        problems.push(format!("machine error {:?}", machine.error_code));
    }
    if machine.leaked_blocks != 0 {
        problems.push(format!("machine leaked {} blocks", machine.leaked_blocks));
    }
    if let (Some(want), Some(got)) = (expected, machine.value.as_deref()) {
        if want != got {
            problems.push(format!("value {got}, expected {want}"));
        }
    }
    if let Some(native) = native {
        problems.extend(compare_probes(machine, native));
    }
    problems
}

/// Compiles the Fig. 9 programs through the full stack.
pub fn compile_programs(tr: &mut Tracer, totals: &mut StackTotals) -> Result<Vec<Prog>, String> {
    FIG9.iter()
        .enumerate()
        .map(|(i, name)| {
            let w = workload(name).ok_or_else(|| format!("{name} is not registered"))?;
            let built = full_stack(&Input::Source(w.source), name, i, tr, 0)?;
            totals.add(&built);
            Ok(Prog {
                name: w.name,
                n: w.default_n,
                test_n: w.test_n,
                compiled: built.compiled,
                expected: w
                    .expected
                    .iter()
                    .find(|(n, _)| *n == w.default_n)
                    .map(|(_, v)| v.to_string()),
            })
        })
        .collect()
}

/// Set-up: compile, build (or fetch from the content-addressed cache)
/// the native executor, and warm both executors at the test size.
fn setup(
    tr: &mut Tracer,
    totals: &mut StackTotals,
) -> Result<(Vec<Prog>, NativeHarness, f64), String> {
    let progs = compile_programs(tr, totals)?;
    let t = Instant::now();
    let o = tr.enter("codegen.build", 0);
    let harness = NativeHarness::from_programs(
        progs
            .iter()
            .map(|p| (p.name.to_string(), p.compiled.clone()))
            .collect(),
    )
    .map_err(|e| e.to_string())?;
    tr.exit(o);
    let build_s = t.elapsed().as_secs_f64();
    for p in &progs {
        let (probe, _, _) = machine_op(p, p.test_n, tr, 0);
        let (native, _) = native_op(&harness, p.name, p.test_n, tr, 0)?;
        let problems = judge(None, &probe, Some(&native));
        if !problems.is_empty() {
            return Err(format!("warm-up of {}: {}", p.name, problems.join("; ")));
        }
    }
    Ok((progs, harness, build_s))
}

/// Per-program samples of the timed loop, timed on the host-speed series.
#[derive(Default)]
struct Samples {
    /// Each machine run: the whole operation in ms, and its parts.
    machine: BTreeMap<&'static str, Vec<(Timed, MachineTimes)>>,
    /// Each native run: ms around the subprocess call, and the
    /// executor's own nanoseconds.
    native: BTreeMap<&'static str, Vec<(Timed, u64)>>,
    stats: BTreeMap<&'static str, Stats>,
    value: BTreeMap<&'static str, (Option<String>, Vec<i64>)>,
    ops: BTreeMap<&'static str, u64>,
    factors: Factors,
}

impl Samples {
    /// Median corrected machine time (run, read back, drop) in ms.
    fn machine_ms(&self, name: &str) -> f64 {
        let v: Vec<Timed> = self.machine[name].iter().map(|(t, _)| *t).collect();
        self.factors.median(&v)
    }

    fn primary(&self) -> f64 {
        geomean(&FIG9.map(|p| self.machine_ms(p)))
    }

    /// Median corrected native time around the subprocess call in ms.
    fn native_ms(&self, name: &str) -> f64 {
        let v: Vec<Timed> = self.native[name].iter().map(|(t, _)| *t).collect();
        self.factors.median(&v)
    }

    /// Operations per corrected busy second.
    fn rate(&self) -> f64 {
        let machine = self.machine.values().flatten().map(|(t, _)| t);
        let native = self.native.values().flatten().map(|(t, _)| t);
        let busy_ms: f64 = machine.chain(native).map(|t| self.factors.correct(t)).sum();
        self.ops.values().sum::<u64>() as f64 / (busy_ms / 1e3).max(1e-9)
    }
}

fn measure(
    progs: &[Prog],
    h: &NativeHarness,
    rng: &mut Rng,
    tr: &mut Tracer,
    tally: &mut Tally,
    until: Instant,
) -> Samples {
    let mut s = Samples::default();
    let mut speed = Speed::default();
    loop {
        for i in rng.shuffled(progs.len()) {
            let p = &progs[i];
            speed.tick();
            let start = speed.now();
            let (probe, times, stats) = machine_op(p, p.n, tr, tally.attempted);
            let timed = Timed {
                start,
                end: speed.now(),
                raw: times.total() as f64 / 1e6,
            };
            s.machine.entry(p.name).or_default().push((timed, times));
            s.stats.insert(p.name, stats);
            s.value
                .insert(p.name, (probe.value.clone(), probe.output.clone()));
            tally.op(
                &format!("machine {}", p.name),
                judge(p.expected.as_deref(), &probe, None),
            );
            speed.tick();
            let start = speed.now();
            let problems = match native_op(h, p.name, p.n, tr, tally.attempted) {
                Ok((native, outside)) => {
                    let timed = Timed {
                        start,
                        end: speed.now(),
                        raw: outside as f64 / 1e6,
                    };
                    s.native
                        .entry(p.name)
                        .or_default()
                        .push((timed, native.wall_ns));
                    judge(p.expected.as_deref(), &probe, Some(&native))
                }
                Err(e) => vec![e],
            };
            tally.op(&format!("native {}", p.name), problems);
            *s.ops.entry(p.name).or_insert(0) += 2;
        }
        if Instant::now() >= until {
            s.factors = speed.factors();
            return s;
        }
    }
}

/// Untimed: each program's value and output equal the Fig. 6 oracle's
/// (the standard semantics) unless the registry already fixed the value.
fn verify_with_oracle(progs: &[Prog], s: &Samples, tally: &mut Tally) {
    for p in progs.iter().filter(|p| p.expected.is_none()) {
        let Some((value, output)) = s.value.get(p.name) else {
            continue;
        };
        let src = workload(p.name).expect("registered").source;
        let problem = match oracle_run(src, p.n, u64::MAX) {
            Ok((v, out)) if Some(v.to_string()) == *value && out == *output => None,
            Ok((v, _)) => Some(format!("value {value:?}, oracle {v}")),
            Err(e) => Some(format!("oracle: {e}")),
        };
        if let Some(why) = problem {
            tally.fail_counted(s.ops[p.name], format!("{}: {why}", p.name));
        }
    }
}

pub fn run(cfg: &Cfg) -> Result<crate::Outcome, String> {
    let mut tally = Tally::default();
    let mut metrics = Metrics::default();
    let mut tr = Tracer::new(cfg.trace);
    let mut totals = StackTotals::default();

    let mut setups = Vec::new();
    let mut built = None;
    let mut speed = Speed::default();
    for _ in 0..cfg.setups() {
        speed.tick();
        let (start, t) = (speed.now(), Instant::now());
        totals = StackTotals::default();
        built = Some(setup(&mut tr, &mut totals)?);
        let raw = t.elapsed().as_secs_f64();
        setups.push(Timed {
            start,
            end: speed.now(),
            raw,
        });
    }
    let setup_s = speed.factors().median(&setups);
    let (progs, harness, build_s) = built.expect("at least one set-up");

    let mut rng = Rng::new(cfg.seed);
    let start = Instant::now();
    let s = if cfg.trace {
        // Untraced quarter first, for the tracing-overhead comparison.
        let mut off = Tracer::new(false);
        let until = start + cfg.duration() / 4;
        let untraced = measure(&progs, &harness, &mut rng, &mut off, &mut tally, until).primary();
        let window_start = tr.ns(Instant::now());
        let s = measure(
            &progs,
            &harness,
            &mut rng,
            &mut tr,
            &mut tally,
            start + cfg.duration(),
        );
        let window_end = tr.ns(Instant::now());
        metrics.set("trace.overhead_share", s.primary() / untraced - 1.0);
        metrics.set(
            "trace.unattributed_share",
            trace::unattributed_ns(tr.spans(), window_start, window_end) as f64
                / (window_end - window_start).max(1) as f64,
        );
        s
    } else {
        measure(
            &progs,
            &harness,
            &mut rng,
            &mut tr,
            &mut tally,
            start + cfg.duration(),
        )
    };
    let peak_rss = crate::stats::peak_rss_mb();
    verify_with_oracle(&progs, &s, &mut tally);

    if cfg.trace {
        let costs = cfg
            .heap_costs
            .ok_or("traced batch run without heap costs")?;
        layer_metrics(&s, &costs, &mut metrics);
        metrics.set("codegen.build_s", build_s);
        stack_metrics(&trace::self_by_name(tr.spans()), 1.0, &totals, &mut metrics);
    } else {
        metrics.set("setup_s", setup_s);
        metrics.set("peak_rss_mb", peak_rss);
        metrics.set("primary_ms", s.primary());
        metrics.set("secondary_ms", geomean(&FIG9.map(|p| s.native_ms(p))));
        metrics.set("rate_per_s", s.rate());
    }
    let raw_machine =
        |p: &str| median(&s.machine[p].iter().map(|(t, _)| t.raw).collect::<Vec<_>>());
    let raw_native = |p: &str| median(&s.native[p].iter().map(|(t, _)| t.raw).collect::<Vec<_>>());
    let summary = format!(
        "batch: machine_ms={:.4} native_ms={:.4} (raw {:.4} / {:.4}, host factor {:.4}) rounds={} [{}]",
        s.primary(),
        geomean(&FIG9.map(|p| s.native_ms(p))),
        geomean(&FIG9.map(raw_machine)),
        geomean(&FIG9.map(raw_native)),
        s.factors.median_factor(),
        s.machine["rbtree"].len(),
        FIG9.map(|p| format!("{p} {:.2}/{:.2} ms", s.machine_ms(p), s.native_ms(p)))
            .join(", ")
    );
    Ok(crate::Outcome {
        tally,
        metrics,
        tracer: tr,
        summary,
    })
}

fn layer_metrics(s: &Samples, costs: &OpCosts, m: &mut Metrics) {
    let run_ms = |p: &str| {
        median(
            &s.machine[p]
                .iter()
                .map(|(_, t)| t.run as f64 / 1e6)
                .collect::<Vec<_>>(),
        )
    };
    let inside_ms = |p: &str| {
        median(
            &s.native[p]
                .iter()
                .map(|(_, i)| *i as f64 / 1e6)
                .collect::<Vec<_>>(),
        )
    };
    let part_ms = |f: fn(&MachineTimes) -> u64| -> f64 {
        FIG9.iter()
            .map(|p| {
                median(
                    &s.machine[p]
                        .iter()
                        .map(|(_, t)| f(t) as f64 / 1e6)
                        .collect::<Vec<_>>(),
                )
            })
            .sum()
    };
    let mut total = Stats::default();
    let (mut ratios, mut shares) = (Vec::new(), Vec::new());
    for p in FIG9 {
        let st = &s.stats[p];
        total = total.merge(st);
        m.set(format!("machine.{p}_ms"), run_ms(p));
        m.set(format!("native.{p}_ms"), inside_ms(p));
        let ratio = inside_ms(p) / run_ms(p);
        ratios.push(ratio);
        m.set(format!("exec.dispatch_share.{p}"), 1.0 - ratio);
        let share = costs.estimate_ns(st) / (run_ms(p) * 1e6);
        shares.push(share);
        m.set(format!("heap.est_share.{p}"), share);
    }
    let run_ns: f64 = FIG9.iter().map(|p| run_ms(p) * 1e6).sum();
    m.set("machine.steps", total.steps as f64);
    m.set("machine.ns_per_step", run_ns / total.steps.max(1) as f64);
    m.set("machine.read_back_ms", part_ms(|t| t.read_back));
    m.set("machine.drop_result_ms", part_ms(|t| t.drop_result));
    let spawn: Vec<f64> = s
        .native
        .values()
        .flatten()
        .map(|(t, i)| (t.raw - *i as f64 / 1e6).max(0.0))
        .collect();
    m.set("native.spawn_ms", median(&spawn));
    m.set("exec.dispatch_share", 1.0 - geomean(&ratios));
    m.set("heap.est_share", geomean(&shares));
    let counts = [
        total.allocations,
        total.reuses,
        total.dups,
        total.drops,
        total.decrefs,
        total.frees,
        FIG9.iter()
            .map(|p| s.stats[p].peak_live_words)
            .max()
            .unwrap_or(0),
    ];
    for (name, c) in HEAP_COUNTS.iter().zip(counts) {
        m.set(format!("heap.{name}"), c as f64);
    }
    let ratio = |a: u64, b: u64| a as f64 / b.max(1) as f64;
    m.set(
        "heap.reuse_ratio",
        ratio(total.reuses, total.reuses + total.allocations),
    );
    m.set(
        "heap.unique_hit_ratio",
        ratio(total.unique_hits, total.unique_tests),
    );
    m.set(
        "heap.freelist_hit_ratio",
        ratio(
            total.freelist_hits,
            total.freelist_hits + total.freelist_misses,
        ),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_corrupted_expected_value_fails_the_run() {
        let mut tr = Tracer::new(false);
        let mut totals = StackTotals::default();
        let progs = compile_programs(&mut tr, &mut totals).unwrap();
        let deriv = progs.iter().find(|p| p.name == "deriv").unwrap();
        let (probe, _, _) = machine_op(deriv, deriv.test_n, &mut tr, 0);
        let right = probe.value.clone().unwrap();

        let mut tally = Tally::default();
        tally.op("deriv", judge(Some(&right), &probe, Some(&probe)));
        assert_eq!(tally.fail_ratio(), 0.0);
        tally.op(
            "deriv",
            judge(Some(&format!("{right}1")), &probe, Some(&probe)),
        );
        assert!(tally.fail_ratio() > 0.0, "{:?}", tally.failures);

        // A native report that disagrees on a counter fails too.
        let mut native = probe.clone();
        native.counters[0] += 1;
        assert!(!judge(Some(&right), &probe, Some(&native)).is_empty());
    }
}
