//! Machine-level behavioral tests: tail calls, closures, aborts, step
//! limits, deep data, and the §2.6 constant-stack claim.

use perceus_runtime::machine::{Machine, RunConfig, StepOutcome};
use perceus_runtime::{audit, RuntimeError, Value};
use perceus_suite::driver::oracle_run_program;
use perceus_suite::{compile_and_run, compile_workload, run_workload, Strategy, SuiteError};

/// Tail calls must not grow the continuation stack: a 10-million
/// iteration loop completes (a frame-pushing machine would hold 10M
/// frames; at ~50 bytes each that is half a gigabyte and seconds of
/// allocation — instead this runs flat).
#[test]
fn tail_calls_run_in_constant_stack() {
    let src = r#"
fun countdown(n: int, acc: int): int {
  if n == 0 then acc else countdown(n - 1, acc + 1)
}
fun main(n: int): int { countdown(n, 0) }
"#;
    let out = compile_and_run(src, Strategy::Perceus, 10_000_000, RunConfig::default()).unwrap();
    assert_eq!(format!("{}", out.value), "10000000");
}

/// The FBIP traversal of §2.6 is all tail calls: it maps a tree far
/// deeper than any native stack could handle if the machine recursed.
#[test]
fn fbip_traversal_is_stackless_on_degenerate_trees() {
    // A left spine of 200k nodes: the recursive tmap would need 200k
    // continuation frames just to descend; the visitor program needs
    // none.
    let src = r#"
type tree { Tip; Bin(left: tree, value: int, right: tree) }
type visitor {
  Done
  BinR(right: tree, value: int, visit: visitor)
  BinL(left: tree, value: int, visit: visitor)
}
type direction { Up; Down }

fun tmap-fbip(f: (int) -> int, t: tree, visit: visitor, d: direction): tree {
  match d {
    Down -> match t {
      Bin(l, x, r) -> tmap-fbip(f, l, BinR(r, x, visit), Down)
      Tip -> tmap-fbip(f, Tip, visit, Up)
    }
    Up -> match visit {
      Done -> t
      BinR(r, x, v) -> tmap-fbip(f, r, BinL(t, f(x), v), Down)
      BinL(l, x, v) -> tmap-fbip(f, Bin(l, x, t), v, Up)
    }
  }
}

fun spine(i: int, n: int, acc: tree): tree {
  if i >= n then acc
  else spine(i + 1, n, Bin(acc, i, Tip))
}

fun tsum(t: tree, acc: int): int {
  match t {
    Tip -> acc
    Bin(l, x, r) -> tsum(r, tsum(l, acc) + x)  // fine: left-deep only
  }
}

fun main(n: int): int {
  val t = spine(0, n, Tip)
  val t2 = tmap-fbip(fn(x) { x + 1 }, t, Done, Down)
  match t2 {
    Bin(_, x, _) -> x
    Tip -> 0 - 1
  }
}
"#;
    let out = compile_and_run(src, Strategy::Perceus, 200_000, RunConfig::default()).unwrap();
    // Top of the spine holds value n-1, mapped to n.
    assert_eq!(format!("{}", out.value), "200000");
    assert_eq!(out.leaked_blocks, 0);
}

/// A non-exhaustive match aborts with a useful message instead of
/// undefined behavior.
#[test]
fn match_failure_aborts() {
    let src = r#"
type t { A; B }
fun f(x: t): int {
  match x { A -> 1 }
}
fun main(n: int): int { f(B) }
"#;
    let err = compile_and_run(src, Strategy::Perceus, 0, RunConfig::default()).unwrap_err();
    match err {
        SuiteError::Runtime(RuntimeError::Abort(msg)) => {
            assert!(msg.contains("non-exhaustive"), "{msg}");
            assert!(msg.contains('f'), "{msg}");
        }
        other => panic!("expected abort, got {other}"),
    }
}

/// Division by zero is a checked runtime error.
#[test]
fn division_by_zero_is_checked() {
    let src = "fun main(n: int): int { 10 / n }";
    let err = compile_and_run(src, Strategy::Perceus, 0, RunConfig::default()).unwrap_err();
    assert!(matches!(
        err,
        SuiteError::Runtime(RuntimeError::DivisionByZero)
    ));
    let ok = compile_and_run(src, Strategy::Perceus, 5, RunConfig::default()).unwrap();
    assert_eq!(format!("{}", ok.value), "2");
}

/// The step limit interrupts runaway programs.
#[test]
fn step_limit_interrupts() {
    let src = r#"
fun spin(n: int): int { spin(n) }
fun main(n: int): int { spin(n) }
"#;
    let config = RunConfig::new().with_step_limit(Some(10_000));
    let err = compile_and_run(src, Strategy::Perceus, 0, config).unwrap_err();
    assert!(matches!(
        err,
        SuiteError::Runtime(RuntimeError::StepLimit(10_000))
    ));
}

/// Closures capture their environment by value and can escape the
/// scope that created them; the captured cells are freed exactly when
/// the closure is.
#[test]
fn escaping_closures_keep_captures_alive() {
    let src = r#"
type list<a> { Nil; Cons(head: a, tail: list<a>) }

fun adder-over(xs: list<int>): (int) -> int {
  // The closure captures xs; xs must stay alive inside it.
  fn(y) { head-or(xs, y) }
}

fun head-or(xs: list<int>, d: int): int {
  match xs {
    Cons(x, _) -> x + d
    Nil -> d
  }
}

fun main(n: int): int {
  val f = adder-over(Cons(n, Nil))
  f(1) + f(2)
}
"#;
    let out = compile_and_run(src, Strategy::Perceus, 40, RunConfig::default()).unwrap();
    assert_eq!(format!("{}", out.value), "83");
    assert_eq!(out.leaked_blocks, 0);
}

/// `println` output is ordered and identical across strategies.
#[test]
fn println_order_is_deterministic() {
    let src = r#"
fun emit(i: int, n: int): int {
  if i >= n then i
  else {
    println(i * i)
    emit(i + 1, n)
  }
}
fun main(n: int): int { emit(0, n) }
"#;
    let want: Vec<i64> = (0..6).map(|i| i * i).collect();
    for s in Strategy::ALL {
        let out = compile_and_run(src, s, 6, RunConfig::default()).unwrap();
        assert_eq!(out.output, want, "{}", s.label());
    }
}

/// Exercising the suite at a larger size under the GC with a small
/// threshold stresses collection during active recursion.
#[test]
fn gc_collects_during_deep_recursion() {
    // rbtree creates real garbage: every insertion replaces the spine
    // of the old tree. (map would not: input and output list are both
    // reachable for the whole run.)
    let w = perceus_suite::workload("rbtree").unwrap();
    let compiled = compile_workload(w.source, Strategy::Gc).unwrap();
    let config = RunConfig::new().with_gc(Some(perceus_runtime::gc::GcConfig {
        initial_threshold: 256,
        growth_factor: 1.5,
    }));
    let out = run_workload(&compiled, Strategy::Gc, 2_000, config).unwrap();
    assert_eq!(format!("{}", out.value), "200");
    assert!(out.stats.gc_collections > 0);
    assert!(out.stats.gc_swept > 0, "replaced spines are garbage");
    // Peak memory stays bounded well below total allocation.
    assert!(out.stats.peak_live_words < out.stats.alloc_words);
}

/// Scoped RC defeats tail calls (drops after the recursive call), so
/// deep recursion holds every frame — but the machine's continuation
/// stack is heap-allocated, so it degrades gracefully instead of
/// overflowing a native stack.
#[test]
fn scoped_deep_recursion_holds_frames_but_completes() {
    let src = r#"
fun countdown(n: int, acc: int): int {
  if n == 0 then acc else countdown(n - 1, acc + 1)
}
fun main(n: int): int { countdown(n, 0) }
"#;
    let out = compile_and_run(src, Strategy::Scoped, 300_000, RunConfig::default()).unwrap();
    assert_eq!(format!("{}", out.value), "300000");
    assert_eq!(out.leaked_blocks, 0);
}

/// The same machine handles interleaved strategies without any global
/// state: compile once per strategy, run many times, results agree.
#[test]
fn repeated_runs_share_compiled_code() {
    let w = perceus_suite::workload("nqueens").unwrap();
    let compiled = compile_workload(w.source, Strategy::Perceus).unwrap();
    for _ in 0..3 {
        for n in [4, 5, 6] {
            let a = run_workload(&compiled, Strategy::Perceus, n, RunConfig::default()).unwrap();
            let b = run_workload(&compiled, Strategy::Perceus, n, RunConfig::default()).unwrap();
            assert_eq!(a.value, b.value);
            assert_eq!(a.stats, b.stats, "stats deterministic across runs");
        }
    }
}

/// Runs `src` under both Perceus configurations and checks the value
/// against the standard-semantics oracle and the heap for leaks. The
/// oracle runs the normalized program, whose lambdas carry their
/// capture lists.
fn agrees_with_oracle_without_leaks(src: &str, n: i64) {
    let mut program = perceus_lang::compile_str(src).expect("front end");
    perceus_core::passes::normalize::normalize_program(&mut program);
    let (want, _) = oracle_run_program(&program, n, 100_000_000).expect("oracle run");
    for s in [Strategy::Perceus, Strategy::PerceusNoOpt] {
        let out = compile_and_run(src, s, n, RunConfig::default()).unwrap();
        assert_eq!(out.value, want, "{}", s.label());
        assert_eq!(out.leaked_blocks, 0, "{}", s.label());
    }
}

/// `sweep` starts the tail-call chain below every non-tail depth up to
/// 700, so across the sweep the chain's first frame sits at every
/// offset of the value stack's first segments — including the last
/// frame before a segment boundary.
const DEPTH_SWEEP: &str = r#"
fun sweep(d: int, limit: int, n: int, acc: int): int {
  if d > limit then acc
  else sweep(d + 1, limit, n, (acc + descend(d, n)) % 1000003)
}
"#;

/// Tail calls overwrite the dying frame in place, so a call that
/// permutes or repeats its own parameters must read every argument
/// before writing any. `narrow` and `wide` jump to each other with
/// permuted arguments; `wide` has several more slots, so near a
/// segment boundary the jump also moves the frame to a new segment.
#[test]
fn tail_calls_that_permute_their_parameters() {
    let src = format!(
        "{DEPTH_SWEEP}{}",
        r#"
type list { Nil; Cons(head: int, tail: list) }

fun len(xs: list, acc: int): int {
  match xs {
    Nil -> acc
    Cons(_, t) -> len(t, acc + 1)
  }
}

fun narrow(n: int, a: int, b: int, xs: list, ys: list): int {
  if n == 0 then a + b + len(xs, 0) * 1000 + len(ys, 0)
  else wide(n - 1, b, (a + b) % 1009, ys, Cons(a, xs))
}

fun wide(n: int, a: int, b: int, xs: list, ys: list): int {
  val p = a * 3 + 1
  val q = b * 5 + 2
  val r = (p + q) % 1013
  val s = (p * q) % 1019
  val t = (r + s + n) % 1021
  if n == 0 then a + b + t + len(xs, 0)
  else narrow(n - 1, t, a, ys, xs)
}

fun descend(d: int, n: int): int {
  if d == 0 then narrow(n, 1, 2, Nil, Nil)
  else 1 + descend(d - 1, n)
}

fun main(n: int): int { sweep(0, 700, n, 0) }
"#
    );
    agrees_with_oracle_without_leaks(&src, 25);
}

/// The same through closure application: `bounce` applies the closure
/// in its `fbox` in tail position with permuted arguments, and the
/// closure tail-calls `bounce` back, permuting again.
#[test]
fn tail_applications_that_permute_their_parameters() {
    let src = format!(
        "{DEPTH_SWEEP}{}",
        r#"
type fbox { Box(f: (int, int, int, fbox) -> int) }

fun bounce(n: int, a: int, b: int, k: fbox): int {
  if n == 0 then a * 1000 + b
  else match k {
    Box(f) -> f(n - 1, b, (a + b) % 1009, k)
  }
}

fun descend(d: int, n: int): int {
  val c = n % 7
  val k = Box(fn(i, x, y, kk) { bounce(i, y + c, x, kk) })
  if d == 0 then bounce(n, 1, 2, k)
  else 1 + descend(d - 1, n)
}

fun main(n: int): int { sweep(0, 700, n, 0) }
"#
    );
    agrees_with_oracle_without_leaks(&src, 25);
}

/// A non-tail recursion that allocates a cell at every level and, at
/// every `hold_every`-th level, holds it in its frame across the
/// recursive call: at the bottom, those cells are reachable only from
/// frames spread over many segments of the value stack.
fn deep_cells(hold_every: i64) -> String {
    r#"
type list { Nil; Cons(head: int, tail: list) }

fun deep(n: int): int {
  if n == 0 then 0
  else {
    val cell = Cons(n, Nil)
    if n % {K} == 0 then {
      val r = deep(n - 1)
      match cell {
        Cons(x, _) -> r + x
        Nil -> r
      }
    } else deep(n - 1) + 0
  }
}

fun main(n: int): int { deep(n) }
"#
    .replace("{K}", &hold_every.to_string())
}

const DEEP_N: i64 = 200_000;

/// `deep(DEEP_N)` with every `k`th cell held: the sum of those levels.
fn deep_sum(k: i64) -> String {
    let m = DEEP_N / k;
    (k * m * (m + 1) / 2).to_string()
}

/// GC roots span every segment: with a small threshold the collector
/// runs while the cells sit in deep frames, and a cell it missed would
/// be swept and then read (`UseAfterFree`).
#[test]
fn gc_roots_span_every_stack_segment() {
    let config = RunConfig::new().with_gc(Some(perceus_runtime::gc::GcConfig {
        initial_threshold: 64,
        growth_factor: 1.5,
    }));
    let out = compile_and_run(&deep_cells(1), Strategy::Gc, DEEP_N, config).unwrap();
    assert_eq!(format!("{}", out.value), deep_sum(1));
    assert!(out.stats.gc_collections > 5, "{:?}", out.stats);
}

/// The in-flight auditor sees the cells in deep frames as roots: a
/// frame it missed would make its cell look like floating garbage.
#[test]
fn audits_find_roots_in_every_stack_segment() {
    let config = RunConfig::new().with_audit_every(Some(400_000));
    let out = compile_and_run(&deep_cells(1), Strategy::Perceus, DEEP_N, config).unwrap();
    assert_eq!(format!("{}", out.value), deep_sum(1));
    assert!(out.audits > 0);
    assert_eq!(out.leaked_blocks, 0);
}

/// Parking the deep recursion as a checkpoint every 1000 steps moves
/// every segment out of the machine and back: the suspended roots must
/// cover all of them at every suspension, and the resumed schedule is
/// identical to the uninterrupted one. Every 64th level holds its cell
/// (several per segment), which keeps the thousands of heap audits
/// cheap.
#[test]
fn checkpoints_carry_every_stack_segment() {
    let compiled = compile_workload(&deep_cells(64), Strategy::Perceus).unwrap();
    let whole = run_workload(&compiled, Strategy::Perceus, DEEP_N, RunConfig::default()).unwrap();

    let mut m = Machine::new(
        &compiled,
        Strategy::Perceus.reclaim_mode(),
        RunConfig::default(),
    );
    let mut exec = m.start_entry(vec![Value::Int(DEEP_N)]).unwrap();
    let mut legs = 0u64;
    let v = loop {
        match exec.run(&mut m, Some(1000)).unwrap() {
            StepOutcome::Done(v) => break v,
            StepOutcome::Suspended { .. } => {
                legs += 1;
                let parked = exec.into_checkpoint().unwrap();
                let roots = parked.root_addrs(&m.heap);
                audit::check_heap(&m.heap, &roots).unwrap_or_else(|e| panic!("leg {legs}: {e}"));
                // SAFETY: `compiled` is the program the checkpoint was
                // parked from and outlives the resumed execution.
                exec = unsafe { parked.resume(&compiled) }.unwrap();
            }
        }
    };
    assert!(legs > 1000, "the budget must bite: {legs} legs");
    assert_eq!(format!("{}", m.read_back(v).unwrap()), deep_sum(64));
    m.drop_result(v).unwrap();
    assert_eq!(m.heap.live_blocks(), 0);
    assert_eq!(m.heap.stats, whole.stats, "bit-identical schedule");
}
