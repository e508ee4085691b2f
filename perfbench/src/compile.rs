//! The `compile` workload: the whole compiler stack, nothing executed.
//!
//! Each operation compiles one corpus program front end → passes →
//! linear check → `code::compile` → `emit_module`. The corpus is the 13
//! registry sources plus seeded `genprog` programs at several sizes,
//! which enter at the passes, so IR size varies with the seed. A second
//! phase times `certify_final` (plus the interval analysis of the
//! certified program) to a verdict on every registry source. A heap
//! change predicts no change here; front-end, pass and certifier changes
//! do.

use crate::metrics::{Metrics, Tally, PASSES};
use crate::speed::{Factors, Speed, Timed};
use crate::stats::{geomean, median, Rng};
use crate::trace::{self, Tracer};
use crate::Cfg;
use perceus_bench::Baseline;
use perceus_codegen::emit_module;
use perceus_core::analysis::analyze_program;
use perceus_core::check::linear;
use perceus_core::ir::Program;
use perceus_core::passes::Pipeline;
use perceus_lang::{lower, parser, resolve, token, types};
use perceus_runtime::code::{self, Compiled};
use perceus_runtime::machine::RunConfig;
use perceus_suite::genprog::random_program;
use perceus_suite::shrink::program_nodes;
use perceus_suite::{certify_final, run_workload, workload, workloads, Strategy};
use std::collections::BTreeMap;
use std::time::Instant;

/// Size budgets handed to `genprog::random_program`.
pub const GEN_SIZES: [u32; 4] = [12, 28, 64, 128];

/// Generated programs per size. Their IR size and compile time vary by
/// two orders of magnitude from seed to seed, so each size class counts
/// in the end-to-end figure through the median of several programs.
pub const GEN_PER_SIZE: usize = 32;

/// Each registry source is certified repeatedly until this much time
/// went into it (at least once), so the small ones get a real median.
const CERTIFY_MIN_NS: u128 = 200_000_000;

/// One corpus program.
pub enum Input {
    /// A registry source, compiled from text.
    Source(&'static str),
    /// A generated core program, compiled from the passes on.
    Core(Program),
}

pub struct Item {
    pub name: String,
    pub input: Input,
}

/// What one full-stack compile produced.
pub struct Built {
    pub compiled: Compiled,
    pub emitted: String,
    pub nodes_out: usize,
    pub tokens: usize,
}

/// Compiles `input` through the whole stack under the Perceus strategy,
/// with a span around each layer call when `tr` is on. Lexing is timed
/// as its own call only when tracing (the parser lexes internally).
pub fn full_stack(
    input: &Input,
    name: &str,
    index: usize,
    tr: &mut Tracer,
    req: u64,
) -> Result<Built, String> {
    let mut tokens = 0;
    let program = match input {
        Input::Source(src) => {
            if tr.on() {
                let o = tr.enter("lang.lex", req);
                tokens = token::lex(src).map_err(|e| e.to_string())?.len();
                tr.exit(o);
            }
            let o = tr.enter("lang.parse", req);
            let ast = parser::parse(src).map_err(|e| e.to_string())?;
            tr.exit(o);
            let o = tr.enter("lang.resolve", req);
            let syms = resolve::resolve(&ast).map_err(|e| e.to_string())?;
            tr.exit(o);
            let o = tr.enter("lang.types", req);
            types::check(&ast, &syms).map_err(|e| e.to_string())?;
            tr.exit(o);
            let o = tr.enter("lang.lower", req);
            let (program, _warnings) =
                lower::lower_checked(&ast, &syms).map_err(|e| e.to_string())?;
            tr.exit(o);
            program
        }
        Input::Core(p) => p.clone(),
    };

    let pipeline = Pipeline::new(Strategy::Perceus.pass_config());
    let program = if tr.on() {
        // Per-pass times come from the pipeline's own stage timings,
        // laid end to end inside the span around the call. That span is
        // glue: what it holds beyond the stages (their snapshot copies)
        // is tracing cost and stays unattributed.
        let mut at = tr.ns(Instant::now());
        let o = tr.enter("bench.pipeline", req);
        let stages = pipeline.stages(program).map_err(|e| e.to_string())?;
        for (pass, took) in stages.timings() {
            let end = at + took.as_nanos() as u64;
            tr.record(format!("passes.{}", pass.label()), at, end, req);
            at = end;
        }
        tr.exit(o);
        stages.into_final()
    } else {
        pipeline.run(program).map_err(|e| e.to_string())?
    };
    let nodes_out = program_nodes(&program);

    let o = tr.enter("check.linear", req);
    linear::check_program(&program).map_err(|e| e.to_string())?;
    tr.exit(o);
    let o = tr.enter("code.compile", req);
    let compiled = code::compile(&program).map_err(|e| e.to_string())?;
    tr.exit(o);
    let o = tr.enter("codegen.emit", req);
    let emitted = emit_module(index, name, &compiled).map_err(|e| e.to_string())?;
    tr.exit(o);
    Ok(Built {
        compiled,
        emitted,
        nodes_out,
        tokens,
    })
}

/// Per-pass totals of the deterministic sizes a compile produces.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct StackTotals {
    pub tokens: usize,
    pub nodes_out: usize,
    pub emit_bytes: usize,
}

impl StackTotals {
    pub fn add(&mut self, b: &Built) {
        self.tokens += b.tokens;
        self.nodes_out += b.nodes_out;
        self.emit_bytes += b.emitted.len();
    }
}

/// The corpus for `seed`: the given registry sources, then
/// [`GEN_PER_SIZE`] generated programs per size in [`GEN_SIZES`], named
/// `gen<size>.<k>`.
pub fn corpus(seed: u64, registry: &[&'static str]) -> Vec<Item> {
    let mut items: Vec<Item> = registry
        .iter()
        .map(|name| Item {
            name: name.to_string(),
            input: Input::Source(workload(name).expect("registry name").source),
        })
        .collect();
    let mut rng = Rng::new(seed ^ 0x5eed_0c0d_e5ee_d0c0);
    for size in GEN_SIZES {
        for k in 0..GEN_PER_SIZE {
            items.push(Item {
                name: format!("gen{size}.{k}"),
                input: Input::Core(random_program(rng.next_u64(), size)),
            });
        }
    }
    items
}

/// Everything the compile workload measured.
#[derive(Default)]
struct Samples {
    /// Per corpus item: compile op times in ms.
    compile_ms: BTreeMap<String, Vec<Timed>>,
    /// Per registry source: verdict times in ms, and raw
    /// interval-analysis times in µs.
    certify_ms: BTreeMap<String, Vec<Timed>>,
    intervals_us: BTreeMap<String, Vec<f64>>,
    speed: Speed,
    factors: Factors,
    rounds: u64,
    /// Per item: ops counted and the first emitted module (later ops
    /// must reproduce it exactly).
    ops: BTreeMap<String, u64>,
    emitted: BTreeMap<String, String>,
    /// Per round totals (equal every round for a deterministic compiler).
    totals: StackTotals,
    /// Last compiled output of each registry source.
    compiled: BTreeMap<String, Compiled>,
}

impl Samples {
    /// Closes the host-speed series.
    fn finish(&mut self) {
        self.factors = self.speed.factors();
    }

    /// Geometric mean, over the registry sources and the generated size
    /// classes, of the median compile time (for a class, the median over
    /// its programs of each one's median).
    fn primary(&self) -> f64 {
        let mut groups: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
        for (name, v) in &self.compile_ms {
            let group = name.split('.').next().unwrap_or(name);
            groups
                .entry(group)
                .or_default()
                .push(self.factors.median(v));
        }
        geomean(&groups.values().map(|v| median(v)).collect::<Vec<_>>())
    }

    /// Geometric mean over registry sources of the median verdict time.
    fn secondary(&self) -> f64 {
        geomean(
            &self
                .certify_ms
                .values()
                .map(|v| self.factors.median(v))
                .collect::<Vec<_>>(),
        )
    }

    /// Registry-source compiles per corrected busy second (the
    /// generated programs, which change with the seed, are left out).
    fn rate(&self) -> f64 {
        let registry = self
            .compile_ms
            .iter()
            .filter(|(n, _)| self.compiled.contains_key(*n));
        let (ops, busy_ms) = registry.fold((0, 0.0), |(ops, ms), (_, v)| {
            (
                ops + v.len(),
                ms + v.iter().map(|t| self.factors.correct(t)).sum::<f64>(),
            )
        });
        ops as f64 / (busy_ms / 1e3).max(1e-9)
    }
}

pub fn run(cfg: &Cfg, registry: &[&'static str]) -> Result<crate::Outcome, String> {
    let baseline = crate::load_baseline()?;
    let mut tally = Tally::default();
    let mut metrics = Metrics::default();
    let mut tr = Tracer::new(false);

    // Set-up: build the corpus and warm every layer with one pass over
    // the registry sources (the generated programs vary with the seed).
    let mut setups = Vec::new();
    let mut items = Vec::new();
    let mut speed = Speed::default();
    for _ in 0..cfg.setups() {
        speed.tick();
        let (start, t) = (speed.now(), Instant::now());
        items = corpus(cfg.seed, registry);
        for (i, item) in items.iter().enumerate() {
            if let Input::Source(_) = item.input {
                full_stack(&item.input, &item.name, i, &mut tr, 0)?;
            }
        }
        let raw = t.elapsed().as_secs_f64();
        setups.push(Timed {
            start,
            end: speed.now(),
            raw,
        });
    }
    let setup_s = speed.factors().median(&setups);

    let mut rng = Rng::new(cfg.seed);
    let mut s = Samples::default();
    let start = Instant::now();
    let window_start;
    if cfg.trace {
        // Untraced quarter first, for the tracing-overhead comparison.
        compile_phase(
            &items,
            &mut rng,
            &mut tr,
            &mut tally,
            &mut s,
            start,
            cfg.seconds / 4.0,
        );
        s.finish();
        let untraced = s.primary();
        s = Samples::default();
        tr = Tracer::new(true);
        window_start = tr.ns(Instant::now());
        certify_phase(registry, &mut rng, &mut tr, &mut tally, &mut s);
        compile_phase(
            &items,
            &mut rng,
            &mut tr,
            &mut tally,
            &mut s,
            start,
            cfg.seconds,
        );
        s.finish();
        let traced = s.primary();
        metrics.set("trace.overhead_share", traced / untraced - 1.0);
    } else {
        window_start = 0;
        certify_phase(registry, &mut rng, &mut tr, &mut tally, &mut s);
        compile_phase(
            &items,
            &mut rng,
            &mut tr,
            &mut tally,
            &mut s,
            start,
            cfg.seconds,
        );
        s.finish();
    }
    let window_end = tr.ns(Instant::now());
    let peak_rss = crate::stats::peak_rss_mb();

    verify(&s, &baseline, &mut tally);

    if cfg.trace {
        layer_metrics(&tr, &s, &mut metrics);
        let spans = tr.spans();
        metrics.set(
            "trace.unattributed_share",
            trace::unattributed_ns(spans, window_start, window_end) as f64
                / (window_end - window_start).max(1) as f64,
        );
    } else {
        metrics.set("setup_s", setup_s);
        metrics.set("peak_rss_mb", peak_rss);
        metrics.set("primary_ms", s.primary());
        metrics.set("secondary_ms", s.secondary());
        metrics.set("rate_per_s", s.rate());
    }
    let raw = |v: &Vec<Timed>| median(&v.iter().map(|t| t.raw).collect::<Vec<_>>());
    let summary = format!(
        "compile: compile_ms={:.4} certify_ms={:.4} (raw {:.4} / {:.4}, host factor {:.4}) corpus={} rounds={}",
        s.primary(),
        s.secondary(),
        geomean(&s.compile_ms.values().map(raw).collect::<Vec<_>>()),
        geomean(&s.certify_ms.values().map(raw).collect::<Vec<_>>()),
        s.factors.median_factor(),
        items.len(),
        s.rounds
    );
    Ok(crate::Outcome {
        tally,
        metrics,
        tracer: tr,
        summary,
    })
}

fn certify_phase(
    registry: &[&'static str],
    rng: &mut Rng,
    tr: &mut Tracer,
    tally: &mut Tally,
    s: &mut Samples,
) {
    // Rounds over the sources, each until it has had its share of time:
    // a small source's repeats spread over the whole phase instead of one
    // burst.
    let mut spent: BTreeMap<&str, u128> = BTreeMap::new();
    while registry
        .iter()
        .any(|n| spent.get(n).is_none_or(|t| *t < CERTIFY_MIN_NS))
    {
        for i in rng.shuffled(registry.len()) {
            let name = registry[i];
            if spent.get(name).is_some_and(|t| *t >= CERTIFY_MIN_NS) {
                continue;
            }
            let src = workload(name).expect("registry name").source;
            let req = tally.attempted;
            s.speed.tick();
            let (start, t) = (s.speed.now(), Instant::now());
            let o = tr.enter(format!("analysis.certify.{name}"), req);
            let verdict = certify_final(src, Strategy::Perceus);
            tr.exit(o);
            let certify_ns = t.elapsed().as_nanos();
            let mut problems = Vec::new();
            match verdict {
                Ok(certs) => {
                    let t = Instant::now();
                    let o = tr.enter("analysis.intervals", req);
                    let analysis = analyze_program(&certs.program);
                    tr.exit(o);
                    let intervals_ns = t.elapsed().as_nanos();
                    std::hint::black_box(&analysis);
                    s.intervals_us
                        .entry(name.to_string())
                        .or_default()
                        .push(intervals_ns as f64 / 1e3);
                    *spent.entry(name).or_insert(0) += certify_ns + intervals_ns;
                    s.certify_ms
                        .entry(name.to_string())
                        .or_default()
                        .push(Timed {
                            start,
                            end: s.speed.now(),
                            raw: (certify_ns + intervals_ns) as f64 / 1e6,
                        });
                    if !certs.errors.is_empty() {
                        problems.push(format!("{} certificates rejected", certs.errors.len()));
                    }
                    if certs.certs.funs.is_empty() {
                        problems.push("no certificates".into());
                    }
                }
                Err(e) => {
                    problems.push(e.to_string());
                    s.certify_ms.entry(name.to_string()).or_default();
                    spent.insert(name, CERTIFY_MIN_NS);
                }
            }
            tally.op(&format!("certify {name}"), problems);
        }
    }
}

fn compile_phase(
    items: &[Item],
    rng: &mut Rng,
    tr: &mut Tracer,
    tally: &mut Tally,
    s: &mut Samples,
    start: Instant,
    seconds: f64,
) {
    loop {
        let mut totals = StackTotals::default();
        for i in rng.shuffled(items.len()) {
            let item = &items[i];
            let req = tally.attempted;
            s.speed.tick();
            let (start, t) = (s.speed.now(), Instant::now());
            let o = tr.enter("compile.op", req);
            let built = full_stack(&item.input, &item.name, i, tr, req);
            tr.exit(o);
            let took = t.elapsed().as_secs_f64();
            let end = s.speed.now();
            *s.ops.entry(item.name.clone()).or_insert(0) += 1;
            let mut problems = Vec::new();
            match built {
                Ok(b) => {
                    s.compile_ms
                        .entry(item.name.clone())
                        .or_default()
                        .push(Timed {
                            start,
                            end,
                            raw: took * 1e3,
                        });
                    totals.add(&b);
                    match s.emitted.get(&item.name) {
                        Some(first) if *first != b.emitted => {
                            problems.push("emitted module differs from the first compile".into())
                        }
                        Some(_) => {}
                        None => {
                            s.emitted.insert(item.name.clone(), b.emitted);
                        }
                    }
                    if matches!(item.input, Input::Source(_)) {
                        s.compiled.insert(item.name.clone(), b.compiled);
                    }
                }
                Err(e) => problems.push(e),
            }
            tally.op(&format!("compile {}", item.name), problems);
        }
        s.rounds += 1;
        s.totals = totals;
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
}

/// Untimed checks: every compiled registry program reproduces the
/// committed counters at its test size.
fn verify(s: &Samples, baseline: &Baseline, tally: &mut Tally) {
    for (name, compiled) in &s.compiled {
        let Some(row) = baseline.workloads.iter().find(|w| &w.name == name) else {
            tally.fail_counted(s.ops[name], format!("{name}: not in BENCH_BASELINE.json"));
            continue;
        };
        let problems = match run_workload(compiled, Strategy::Perceus, row.n, RunConfig::default())
        {
            Ok(out) => crate::counter_drift(&row.counters, &out.stats.schedule_values(), &[]),
            Err(e) => vec![e.to_string()],
        };
        if !problems.is_empty() {
            tally.fail_counted(s.ops[name], format!("{name}: {}", problems.join("; ")));
        }
    }
}

/// Front-end, pass, check, backend and emit metrics from the spans of
/// `rounds` passes over a corpus whose per-pass sizes are `totals`.
pub fn stack_metrics(
    by_name: &BTreeMap<String, u64>,
    rounds: f64,
    totals: &StackTotals,
    m: &mut Metrics,
) {
    let per_round_us = |name: &str| by_name.get(name).copied().unwrap_or(0) as f64 / 1e3 / rounds;
    // The parser lexes internally; its self time excludes the separately
    // timed lex of the same source.
    let lex = per_round_us("lang.lex");
    m.set("lang.lex_us", lex);
    m.set("lang.parse_us", (per_round_us("lang.parse") - lex).max(0.0));
    for stage in ["resolve", "types", "lower"] {
        m.set(
            format!("lang.{stage}_us"),
            per_round_us(&format!("lang.{stage}")),
        );
    }
    m.set(
        "lang.tokens_per_ms",
        totals.tokens as f64 / (lex / 1e3).max(1e-9),
    );
    for pass in PASSES {
        m.set(
            format!("passes.{pass}_us"),
            per_round_us(&format!("passes.{pass}")),
        );
    }
    m.set("passes.nodes_out", totals.nodes_out as f64);
    m.set("check.linear_us", per_round_us("check.linear"));
    m.set("code.compile_us", per_round_us("code.compile"));
    m.set("codegen.emit_us", per_round_us("codegen.emit"));
    m.set("codegen.emit_kb", totals.emit_bytes as f64 / 1024.0);
}

fn layer_metrics(tr: &Tracer, s: &Samples, m: &mut Metrics) {
    let by_name = trace::self_by_name(tr.spans());
    stack_metrics(&by_name, s.rounds.max(1) as f64, &s.totals, m);

    let verdict = |name: &str| {
        s.certify_ms.get(name).map_or(0.0, |v| {
            median(&v.iter().map(|t| t.raw).collect::<Vec<_>>())
        })
    };
    m.set("analysis.certify.rbtree_ms", verdict("rbtree"));
    m.set("analysis.certify.rbtree-ck_ms", verdict("rbtree-ck"));
    let rest: f64 = s
        .certify_ms
        .keys()
        .filter(|n| *n != "rbtree" && *n != "rbtree-ck")
        .map(|n| verdict(n))
        .sum();
    m.set("analysis.certify.rest_ms", rest);
    m.set(
        "analysis.intervals_us",
        s.intervals_us.values().map(|v| median(v)).sum(),
    );
}

/// All registry sources.
pub fn registry() -> Vec<&'static str> {
    workloads().iter().map(|w| w.name).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_different_seed_changes_the_corpus_but_not_the_metric_set() {
        let small = ["tmap-rec", "binarytrees"];
        let generated = |seed| -> Vec<String> {
            corpus(seed, &small)
                .iter()
                .filter_map(|i| match &i.input {
                    Input::Core(p) => Some(format!("{p:?}")),
                    Input::Source(_) => None,
                })
                .collect()
        };
        assert_eq!(generated(1), generated(1));
        assert_ne!(generated(1), generated(2));

        for trace in [false, true] {
            let keys = |seed| {
                let cfg = Cfg {
                    seed,
                    seconds: 0.05,
                    trace,
                    heap_costs: None,
                };
                let out = run(&cfg, &small).unwrap();
                assert_eq!(out.tally.failed, 0, "{:?}", out.tally.failures);
                out.metrics.0.into_keys().collect::<Vec<_>>()
            };
            assert_eq!(keys(1), keys(2));
        }
    }
}
