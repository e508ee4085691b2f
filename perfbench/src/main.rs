//! The repository's benchmark: `batch`, `compile` and `serve`
//! workloads, end-to-end metrics untraced and per-layer metrics from a
//! separate traced run. See `README.md` next to this crate.
//!
//! ```text
//! perfbench --workload <batch|compile|serve> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is the result: `correct`,
//! `attempted`, `failed` and `metrics` (the end-to-end set with
//! `--trace 0`, the per-layer set with `--trace 1`). The line before it
//! records the run's seed and environment.

mod batch;
mod compile;
mod heapops;
mod metrics;
mod serve;
mod speed;
mod stats;
mod trace;

use metrics::{Metrics, Tally, HEAP_OPS};
use perceus_bench::Baseline;
use perceus_runtime::SCHEDULE_KEYS;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Duration;

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 9;

/// One run's settings.
pub struct Cfg {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Per-operation heap costs, measured before a traced run.
    pub heap_costs: Option<heapops::OpCosts>,
}

impl Cfg {
    pub fn duration(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }

    /// How many times set-up runs: several for a steady `setup_s`, once
    /// in a traced run (which does not report it).
    pub fn setups(&self) -> usize {
        if self.trace {
            1
        } else {
            SETUPS
        }
    }
}

/// What a workload hands back.
pub struct Outcome {
    pub tally: Tally,
    pub metrics: Metrics,
    pub tracer: trace::Tracer,
    /// One human-readable line (printed before the result).
    pub summary: String,
}

/// The repository root (this crate lives one level below it).
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark crate lives inside the repository")
        .to_path_buf()
}

/// The committed counter baseline (`BENCH_BASELINE.json`).
pub fn load_baseline() -> Result<Baseline, String> {
    let path = repo_root().join("BENCH_BASELINE.json");
    let src = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    Baseline::parse_json(&src)
}

/// Differences between baseline counters and a run's 18 schedule
/// counters, skipping the `exempt` keys.
pub fn counter_drift(expected: &[(String, u64)], got: &[u64; 18], exempt: &[&str]) -> Vec<String> {
    expected
        .iter()
        .filter(|(k, _)| !exempt.contains(&k.as_str()))
        .filter_map(|(k, want)| {
            let Some(i) = SCHEDULE_KEYS.iter().position(|s| s == k) else {
                return Some(format!("unknown counter {k}"));
            };
            (got[i] != *want).then(|| format!("{k} = {}, baseline {want}", got[i]))
        })
        .collect()
}

struct Args {
    workload: String,
    cfg: Cfg,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !["batch", "compile", "serve"].contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (batch, compile, serve)"
        ));
    }
    Ok(Args {
        workload,
        cfg: Cfg {
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
            heap_costs: None,
        },
    })
}

/// First line of a command's output, if it ran.
fn command_line(program: &str, args: &[&str], dir: &Path) -> Option<String> {
    let out = Command::new(program)
        .args(args)
        .current_dir(dir)
        // Never look for a repository above the checkout.
        .env("GIT_CEILING_DIRECTORIES", dir.parent().unwrap_or(dir))
        .output()
        .ok()?;
    let text = String::from_utf8_lossy(&out.stdout);
    out.status
        .success()
        .then(|| text.lines().next().unwrap_or("").trim().to_string())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .map(|rest| rest.trim_start_matches([' ', '\t', ':']).to_string())
        .unwrap_or_else(|| "unknown".into())
}

fn meta_line(args: &Args) -> String {
    let root = repo_root();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let commit =
        command_line("git", &["rev-parse", "HEAD"], &root).unwrap_or_else(|| "none".into());
    let rustc = command_line("rustc", &["--version"], &root).unwrap_or_else(|| "unknown".into());
    format!(
        "{{\"meta\":{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"commit\":\"{}\",\"nproc\":{},\"cpu\":\"{}\",\"rustc\":\"{}\"}}}}",
        args.workload,
        args.cfg.seed,
        args.cfg.seconds,
        args.cfg.trace,
        commit,
        nproc,
        cpu_model().replace('"', "'"),
        rustc.replace('"', "'")
    )
}

fn run(mut args: Args) -> Result<(), String> {
    let mut heap_metrics = Metrics::default();
    if args.cfg.trace {
        let costs = heapops::measure()?;
        for (op, ns) in HEAP_OPS.iter().zip(costs.as_array()) {
            heap_metrics.set(format!("heap.{op}_ns"), ns);
        }
        args.cfg.heap_costs = Some(costs);
    }
    let out = match args.workload.as_str() {
        "batch" => batch::run(&args.cfg)?,
        "compile" => compile::run(&args.cfg, &compile::registry())?,
        _ => serve::run(&args.cfg)?,
    };
    let mut metrics = out.metrics;
    let catalogue = if args.cfg.trace {
        metrics.0.extend(heap_metrics.0);
        let catalogue = metrics::per_layer();
        // Layers this workload never calls read 0.
        for (name, _) in &catalogue {
            metrics.0.entry(name.clone()).or_insert(0.0);
        }
        let path = repo_root().join("target").join("perfbench").join(format!(
            "trace-{}-seed{}.jsonl",
            args.workload, args.cfg.seed
        ));
        out.tracer
            .write_jsonl(&path)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        eprintln!(
            "perfbench: {} spans written to {}",
            out.tracer.spans().len(),
            path.display()
        );
        let layers: Vec<String> = trace::self_by_layer(out.tracer.spans())
            .iter()
            .map(|(layer, ns)| format!("{layer}={:.3}", *ns as f64 / 1e6))
            .collect();
        println!("layer self time (ms): {}", layers.join(" "));
        catalogue
    } else {
        metrics::end_to_end()
    };
    for f in out.tally.failures.iter().take(20) {
        eprintln!("perfbench: FAILED {f}");
    }
    println!("{}", out.summary);
    println!(
        "fail_ratio={} ({} of {} operations)",
        out.tally.fail_ratio(),
        out.tally.failed,
        out.tally.attempted
    );
    println!("{}", meta_line(&args));
    println!(
        "{}",
        metrics::result_line(&out.tally, &metrics, &catalogue)?
    );
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn arguments_are_checked() {
        let a = parse_args(&argv("--workload compile --seed 7 --seconds 10 --trace 1")).unwrap();
        assert_eq!(
            (a.workload.as_str(), a.cfg.seed, a.cfg.trace),
            ("compile", 7, true)
        );
        assert!(parse_args(&argv("--workload nope --seed 7 --seconds 10 --trace 0")).is_err());
        assert!(parse_args(&argv("--workload batch --seed 7 --seconds 10 --trace 2")).is_err());
        assert!(parse_args(&argv("--workload batch --seconds 10 --trace 0")).is_err());
        assert!(parse_args(&argv("--workload batch --seed 1 --seconds 0 --trace 0")).is_err());
    }

    #[test]
    fn counter_drift_names_each_difference() {
        let mut got = [0u64; 18];
        got[0] = 5;
        let expected = vec![
            ("allocations".to_string(), 5),
            ("alloc_words".to_string(), 1),
        ];
        assert_eq!(counter_drift(&expected, &got, &[]).len(), 1);
        assert!(counter_drift(&expected, &got, &["alloc_words"]).is_empty());
    }
}
