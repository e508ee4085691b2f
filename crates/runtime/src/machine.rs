//! The abstract machine: an environment-based, tail-call-safe
//! interpreter for compiled programs, implementing the reference-counted
//! heap semantics of Fig. 7:
//!
//! * values flow by move — ownership transfers with the value; only the
//!   explicit `dup`/`drop` instructions emitted by the insertion passes
//!   touch reference counts (the machine mirrors substitution semantics);
//! * closure application performs rule (appᵣ): retain the captured
//!   environment, release the closure, jump to the body;
//! * `match` *borrows* its scrutinee and binds fields without retaining —
//!   the compiled arm code contains the binder `dup`s and the scrutinee
//!   `drop` (the Fig. 1b form);
//! * tail calls never grow the continuation stack, which is what makes
//!   the FBIP traversals of §2.6 run in constant stack space.
//!
//! Frame slots live on one segmented value stack (the `stack` module): a
//! call stages its arguments above the caller's frame and they become
//! the callee's frame in place, a return truncates, and a tail call
//! overwrites the dying frame. Constructor and closure operands are
//! staged in the same space, so the step loop allocates no Rust memory
//! on its common path.
//!
//! The same machine executes all memory-management modes; in GC mode it
//! additionally triggers the mark–sweep collector of [`crate::gc`] at
//! allocation points, enumerating the value stack as its roots.

use crate::code::{Atom, Compiled, RArm, RExpr, Slot};
use crate::error::RuntimeError;
use crate::gc::{Collector, GcConfig};
use crate::heap::{BlockTag, Heap, HeapConfig, ReclaimMode};
use crate::profile::FrameKind;
use crate::stack::{Caller, ValueStack};
use crate::value::Value;
use perceus_core::ir::expr::PrimOp;
use perceus_core::ir::{CtorId, FunId, TypeTable};
use perceus_core::passes::Validation;
use std::fmt;

/// Machine configuration.
///
/// Built with the `with_*` methods (the [`perceus_core::passes::PassConfig`]
/// pattern: private fields, chainable setters, accessors), so growing a
/// new knob — per-resume budgets, say — is never a breaking
/// struct-literal change for downstream callers:
///
/// ```
/// use perceus_runtime::RunConfig;
/// let config = RunConfig::new().with_step_limit(Some(10_000)).with_profile(true);
/// assert_eq!(config.step_limit(), Some(10_000));
/// ```
#[derive(Debug, Clone)]
pub struct RunConfig {
    step_limit: Option<u64>,
    memory_limit_words: Option<u64>,
    gc: Option<GcConfig>,
    audit_every: Option<u64>,
    trace_capacity: Option<usize>,
    heap_recycle: bool,
    validation: Validation,
    profile: bool,
}

impl RunConfig {
    /// The default configuration: no limits, allocator recycling on,
    /// default validation, no tracing or profiling.
    pub fn new() -> Self {
        RunConfig {
            step_limit: None,
            memory_limit_words: None,
            gc: None,
            audit_every: None,
            trace_capacity: None,
            heap_recycle: true,
            validation: Validation::default(),
            profile: false,
        }
    }

    /// Abort with [`RuntimeError::StepLimit`] after this many steps
    /// (`None` = unlimited). Steps are counted in
    /// [`crate::heap::Stats::steps`], which survives suspension — so for
    /// a resumable [`Execution`] this is the *cumulative* fuel ceiling
    /// across all resume legs, while the per-leg budget passed to
    /// [`Execution::run`] only suspends.
    pub fn with_step_limit(mut self, limit: Option<u64>) -> Self {
        self.step_limit = limit;
        self
    }

    /// Abort with [`RuntimeError::MemoryLimit`] once the live heap
    /// exceeds this many words (`None` = unlimited). Enforced in the
    /// machine loop against `Stats::live_words`; under a garbage-free
    /// strategy that quantity is exactly the reachable data, so the
    /// limit is deterministic (the same program at the same size always
    /// hits it at the same step — or never).
    pub fn with_memory_limit_words(mut self, limit: Option<u64>) -> Self {
        self.memory_limit_words = limit;
        self
    }

    /// Collector policy (GC mode only; `None` uses the default).
    pub fn with_gc(mut self, gc: Option<GcConfig>) -> Self {
        self.gc = gc;
        self
    }

    /// Run the garbage-free/soundness auditor every N steps (expensive;
    /// for tests). See [`crate::audit`].
    pub fn with_audit_every(mut self, every: Option<u64>) -> Self {
        self.audit_every = every;
        self
    }

    /// Retain the most recent N reference-count events for debugging
    /// (see [`crate::trace`]); `None` disables tracing.
    pub fn with_trace_capacity(mut self, capacity: Option<usize>) -> Self {
        self.trace_capacity = capacity;
        self
    }

    /// Serve allocations from the heap's size-class free lists (on by
    /// default); off restores the free-and-reallocate discipline for
    /// the allocator ablation.
    pub fn with_heap_recycle(mut self, recycle: bool) -> Self {
        self.heap_recycle = recycle;
        self
    }

    /// Runtime invariant-check policy (see
    /// [`crate::heap::HeapConfig::validation`]). `Full` makes release
    /// builds also verify reuse-specialization skip masks.
    pub fn with_validation(mut self, validation: Validation) -> Self {
        self.validation = validation;
        self
    }

    /// Attribute every heap/RC event to the executing function (see
    /// [`crate::profile`]). Off by default: the disabled profiler costs
    /// one predictable branch per heap entry point and nothing else.
    pub fn with_profile(mut self, profile: bool) -> Self {
        self.profile = profile;
        self
    }

    /// The step (fuel) ceiling, if any.
    pub fn step_limit(&self) -> Option<u64> {
        self.step_limit
    }

    /// The live-heap ceiling in words, if any.
    pub fn memory_limit_words(&self) -> Option<u64> {
        self.memory_limit_words
    }

    /// The collector policy override, if any.
    pub fn gc(&self) -> Option<GcConfig> {
        self.gc
    }

    /// The audit cadence, if any.
    pub fn audit_every(&self) -> Option<u64> {
        self.audit_every
    }

    /// The rc-trace ring capacity, if any.
    pub fn trace_capacity(&self) -> Option<usize> {
        self.trace_capacity
    }

    /// Whether allocations are served from size-class free lists.
    pub fn heap_recycle(&self) -> bool {
        self.heap_recycle
    }

    /// The runtime invariant-check policy.
    pub fn validation(&self) -> Validation {
        self.validation
    }

    /// Whether the per-function profiler is on.
    pub fn profile(&self) -> bool {
        self.profile
    }
}

impl Default for RunConfig {
    fn default() -> Self {
        Self::new()
    }
}

/// A pending continuation.
pub(crate) enum Frame<'p> {
    /// Return from a function call: pop the callee's slots back to the
    /// caller's frame, optionally store the value, optionally continue
    /// (otherwise keep returning).
    Call {
        caller: Caller,
        dst: Option<Slot>,
        cont: Option<&'p RExpr>,
    },
    /// A compound let-rhs finished: store into the current frame.
    Local { dst: Slot, cont: &'p RExpr },
    /// A compound statement finished: discard the value.
    Discard { cont: &'p RExpr },
}

/// The abstract machine.
pub struct Machine<'p> {
    code: &'p Compiled,
    /// The heap (public so tests and the harness can read statistics).
    pub heap: Heap,
    frames: Vec<Frame<'p>>,
    stack: ValueStack,
    output: Vec<i64>,
    collector: Option<Collector>,
    config: RunConfig,
    /// Number of garbage-free audits run (see `RunConfig::audit_every`).
    audits: u64,
}

impl<'p> Machine<'p> {
    /// Creates a machine for `code` with the given reclamation mode.
    pub fn new(code: &'p Compiled, mode: ReclaimMode, config: RunConfig) -> Self {
        let collector = match mode {
            ReclaimMode::Gc => Some(Collector::new(config.gc.unwrap_or_default())),
            _ => None,
        };
        let mut heap = Heap::with_config(
            mode,
            HeapConfig {
                recycle: config.heap_recycle,
                validation: config.validation,
            },
        );
        if let Some(cap) = config.trace_capacity {
            heap.enable_trace(cap);
        }
        if config.profile {
            heap.enable_profile();
        }
        Machine {
            code,
            heap,
            frames: Vec::new(),
            stack: ValueStack::default(),
            output: Vec::new(),
            collector,
            config,
            audits: 0,
        }
    }

    /// Creates a machine over an *existing* heap — the serving-harness
    /// entry point, where a long-lived worker recycles one heap across
    /// thousands of sessions ([`Heap::reset`] between them) so each
    /// session's allocations hit the previous sessions' warm free
    /// lists. The heap keeps its own reclaim mode and allocator policy;
    /// the run configuration contributes the per-session limits and
    /// turns tracing/profiling on if the heap doesn't have them yet.
    ///
    /// The machine holds no state besides the heap and this call's
    /// fresh frames and value stack, so a `with_heap` → run →
    /// [`Machine::into_heap`] round trip is fully reentrant: any number
    /// of sequential sessions can share the heap with no bleed-through
    /// (and the generation check catches a leaked address from a
    /// previous tenant deterministically).
    pub fn with_heap(code: &'p Compiled, mut heap: Heap, config: RunConfig) -> Self {
        let collector = match heap.mode() {
            ReclaimMode::Gc => Some(Collector::new(config.gc.unwrap_or_default())),
            _ => None,
        };
        if let Some(cap) = config.trace_capacity {
            if heap.trace().is_none() {
                heap.enable_trace(cap);
            }
        }
        if config.profile && heap.profile().is_none() {
            heap.enable_profile();
        }
        Machine {
            code,
            heap,
            frames: Vec::new(),
            stack: ValueStack::default(),
            output: Vec::new(),
            collector,
            config,
            audits: 0,
        }
    }

    /// Consumes the machine and returns its heap (the serving worker
    /// takes it back after a session to reset and reuse it).
    pub fn into_heap(self) -> Heap {
        self.heap
    }

    /// How many in-flight garbage-free audits ran (each one checked
    /// reachability and count adequacy of the whole heap). Zero unless
    /// [`RunConfig::audit_every`] was set.
    pub fn audits_run(&self) -> u64 {
        self.audits
    }

    /// The integers printed by `println` during the run.
    pub fn output(&self) -> &[i64] {
        &self.output
    }

    /// The type table (for rendering values).
    pub fn types(&self) -> &TypeTable {
        &self.code.types
    }

    /// Runs the program's entry function with the given arguments.
    ///
    /// A thin run-until-done wrapper over [`Machine::start`] /
    /// [`Execution::run`].
    pub fn run_entry(&mut self, args: Vec<Value>) -> Result<Value, RuntimeError> {
        let entry = self
            .code
            .entry
            .ok_or_else(|| RuntimeError::Internal("program has no entry point".into()))?;
        self.run_fun(entry, args)
    }

    /// Runs an arbitrary function to completion — a thin wrapper over
    /// [`Machine::start`] / [`Execution::run`] with no budget.
    pub fn run_fun(&mut self, fun: FunId, args: Vec<Value>) -> Result<Value, RuntimeError> {
        let mut exec = self.start(fun, args)?;
        match exec.run(self, None)? {
            StepOutcome::Done(v) => Ok(v),
            StepOutcome::Suspended { .. } => Err(RuntimeError::Internal(
                "unbudgeted execution suspended".into(),
            )),
        }
    }

    /// Begins a *resumable* execution of `fun` — the checkpoint/resume
    /// entry point. The returned [`Execution`] owns the continuation
    /// state (value stack, frame stack, pending output) whenever it is
    /// suspended; drive it with [`Execution::run`], giving each leg a
    /// step budget. The profiler frame stack lives inside the heap, so
    /// it travels with the heap across suspensions automatically.
    ///
    /// One machine drives one execution at a time: state is swapped
    /// into the machine for the duration of each [`Execution::run`] leg
    /// and back out at suspension. Starting a second execution while
    /// another is suspended is fine (each owns its state); running two
    /// *interleaved* legs on one machine is not — the profiler stack
    /// would interleave.
    pub fn start(&mut self, fun: FunId, args: Vec<Value>) -> Result<Execution<'p>, RuntimeError> {
        let f = &self.code.funs[fun.0 as usize];
        if f.arity != args.len() {
            return Err(RuntimeError::TypeMismatch(format!(
                "{} expects {} arguments, got {}",
                f.name,
                f.arity,
                args.len()
            )));
        }
        self.heap.prof_enter(FrameKind::Fun(fun));
        Ok(Execution {
            cur: Some(&f.body),
            frames: Vec::new(),
            stack: ValueStack::entry(&args, f.nslots),
            output: Vec::new(),
            steps: 0,
            code_uid: self.code.uid(),
            finished: false,
        })
    }

    /// Begins a resumable execution of the program's entry function.
    pub fn start_entry(&mut self, args: Vec<Value>) -> Result<Execution<'p>, RuntimeError> {
        let entry = self
            .code
            .entry
            .ok_or_else(|| RuntimeError::Internal("program has no entry point".into()))?;
        self.start(entry, args)
    }

    // ---- the main loop ------------------------------------------------

    fn step_loop(
        &mut self,
        start: &'p RExpr,
        step_end: Option<u64>,
    ) -> Result<Step<'p>, RuntimeError> {
        let mut cur = start;
        loop {
            if let Some(end) = step_end {
                // Suspend *before* executing the instruction, and only at
                // a non-RC instruction: Theorem 4's side condition — the
                // same one the in-flight auditor uses — guarantees the
                // suspended state is garbage-free and auditable. A run of
                // RC instructions past the budget only overshoots by the
                // length of that run.
                if self.heap.stats.steps >= end && !is_rc_instruction(cur) {
                    return Ok(Step::Suspend(cur));
                }
            }
            self.heap.stats.steps += 1;
            if let Some(limit) = self.config.step_limit {
                if self.heap.stats.steps > limit {
                    return Err(RuntimeError::StepLimit(limit));
                }
            }
            if let Some(limit) = self.config.memory_limit_words {
                if self.heap.stats.live_words > limit {
                    return Err(RuntimeError::MemoryLimit {
                        limit_words: limit,
                        live_words: self.heap.stats.live_words,
                    });
                }
            }
            if let Some(every) = self.config.audit_every {
                if self.heap.stats.steps.is_multiple_of(every) && !is_rc_instruction(cur) {
                    crate::audit::check_machine(self).map_err(RuntimeError::Internal)?;
                    self.audits += 1;
                }
            }
            match cur {
                RExpr::Atom(a) => {
                    let v = self.read(*a);
                    match self.ret(v) {
                        Some(next) => cur = next,
                        None => return Ok(Step::Done(v)),
                    }
                }
                RExpr::Let { slot, rhs, body } => match &**rhs {
                    RExpr::Call { fun, args } => {
                        let callee = self.stage_call(*fun, args)?;
                        cur = self.enter(callee, Some(*slot), Some(body));
                    }
                    RExpr::App { fun, args } => {
                        let f = self.read(*fun);
                        let callee = self.stage_apply(f, args)?;
                        cur = self.enter(callee, Some(*slot), Some(body));
                    }
                    simple if is_simple(simple) => {
                        let v = self.eval_simple(simple)?;
                        self.stack.set(*slot, v);
                        cur = body;
                    }
                    compound => {
                        self.frames.push(Frame::Local {
                            dst: *slot,
                            cont: body,
                        });
                        cur = compound;
                    }
                },
                RExpr::Seq(a, b) => match &**a {
                    RExpr::Call { fun, args } => {
                        let callee = self.stage_call(*fun, args)?;
                        cur = self.enter(callee, None, Some(b));
                    }
                    RExpr::App { fun, args } => {
                        let f = self.read(*fun);
                        let callee = self.stage_apply(f, args)?;
                        cur = self.enter(callee, None, Some(b));
                    }
                    simple if is_simple(simple) => {
                        self.eval_simple(simple)?;
                        cur = b;
                    }
                    compound => {
                        self.frames.push(Frame::Discard { cont: b });
                        cur = compound;
                    }
                },
                RExpr::Call { fun, args } => {
                    let callee = self.stage_call(*fun, args)?;
                    cur = self.jump(callee);
                }
                RExpr::App { fun, args } => {
                    let f = self.read(*fun);
                    let callee = self.stage_apply(f, args)?;
                    cur = self.jump(callee);
                }
                RExpr::Match {
                    scrut,
                    arms,
                    default,
                } => {
                    let v = self.stack.get(*scrut);
                    cur = select_arm(
                        &self.heap,
                        &self.code.types,
                        self.stack.frame_mut(),
                        v,
                        arms,
                        default,
                    )?;
                }
                RExpr::IsUnique {
                    var,
                    unique,
                    shared,
                } => {
                    let v = self.stack.get(*var);
                    cur = if self.heap.is_unique(v)? {
                        unique
                    } else {
                        shared
                    };
                }
                RExpr::Dup(slot, rest) => {
                    self.heap.dup(self.stack.get(*slot))?;
                    cur = rest;
                }
                RExpr::Drop(slot, rest) => {
                    self.heap.drop_value(self.stack.get(*slot))?;
                    cur = rest;
                }
                RExpr::DropReuse { var, token, body } => {
                    let t = self.heap.drop_reuse(self.stack.get(*var))?;
                    self.stack.set(*token, t);
                    cur = body;
                }
                RExpr::Free(slot, rest) => {
                    self.heap.free_cell(self.stack.get(*slot))?;
                    cur = rest;
                }
                RExpr::DecRef(slot, rest) => {
                    self.heap.decref(self.stack.get(*slot))?;
                    cur = rest;
                }
                RExpr::DropToken(slot, rest) => {
                    self.heap.drop_token(self.stack.get(*slot))?;
                    cur = rest;
                }
                simple => {
                    // Value-producing terminals (Con, Prim, MkClosure,
                    // TokenOf, NullToken, Abort).
                    let v = self.eval_simple(simple)?;
                    match self.ret(v) {
                        Some(next) => cur = next,
                        None => return Ok(Step::Done(v)),
                    }
                }
            }
        }
    }

    /// Tail position: no pending local continuation in this frame.
    fn tail_position(&self) -> bool {
        !matches!(
            self.frames.last(),
            Some(Frame::Local { .. }) | Some(Frame::Discard { .. })
        )
    }

    /// Enters a staged callee above the current frame, saving a return
    /// continuation.
    fn enter(
        &mut self,
        callee: Callee<'p>,
        dst: Option<Slot>,
        cont: Option<&'p RExpr>,
    ) -> &'p RExpr {
        self.heap.prof_enter(callee.kind);
        let caller = self.stack.push_frame(callee.mark, callee.nslots);
        self.frames.push(Frame::Call { caller, dst, cont });
        callee.body
    }

    /// Transfers to a staged callee from a call in tail position, where
    /// the current frame dies and the callee's overwrites it; otherwise
    /// enters it like a non-tail call whose value is returned.
    fn jump(&mut self, callee: Callee<'p>) -> &'p RExpr {
        if self.tail_position() {
            self.heap.prof_tail(callee.kind);
            self.stack.replace_frame(callee.mark, callee.nslots);
            callee.body
        } else {
            self.enter(callee, None, None)
        }
    }

    /// Delivers a value to the next continuation.
    fn ret(&mut self, v: Value) -> Option<&'p RExpr> {
        loop {
            match self.frames.pop() {
                None => return None,
                Some(Frame::Call { caller, dst, cont }) => {
                    self.heap.prof_exit();
                    self.stack.pop_frame(caller);
                    if let Some(d) = dst {
                        self.stack.set(d, v);
                    }
                    match cont {
                        Some(c) => return Some(c),
                        None => continue,
                    }
                }
                Some(Frame::Local { dst, cont }) => {
                    self.stack.set(dst, v);
                    return Some(cont);
                }
                Some(Frame::Discard { cont }) => return Some(cont),
            }
        }
    }

    fn read(&self, a: Atom) -> Value {
        match a {
            Atom::Slot(s) => self.stack.get(s),
            Atom::Const(v) => v,
        }
    }

    /// Stages the values of `atoms` above the current frame; returns
    /// the mark they start at.
    fn stage(&mut self, atoms: &[Atom]) -> usize {
        let mark = self.stack.reserve(atoms.len());
        for a in atoms {
            let v = self.read(*a);
            self.stack.push(v);
        }
        mark
    }

    /// Stages a direct call's arguments (read from the current frame);
    /// the caller then enters or tail-jumps to the callee.
    fn stage_call(&mut self, fun: FunId, args: &[Atom]) -> Result<Callee<'p>, RuntimeError> {
        let f = &self.code.funs[fun.0 as usize];
        if f.arity != args.len() {
            return Err(RuntimeError::TypeMismatch(format!(
                "{} expects {} arguments, got {}",
                f.name,
                f.arity,
                args.len()
            )));
        }
        Ok(Callee {
            mark: self.stage(args),
            nslots: f.nslots,
            body: &f.body,
            kind: FrameKind::Fun(fun),
        })
    }

    /// Application of a first-class function value — rule (appᵣ):
    /// `dup ys; drop f; jump`. Stages the captures, then the arguments.
    fn stage_apply(&mut self, f: Value, args: &[Atom]) -> Result<Callee<'p>, RuntimeError> {
        match f {
            Value::Global(id) => self.stage_call(id, args),
            Value::Ref(addr) => {
                let block = self.heap.view(addr)?;
                let BlockTag::Closure(lam) = block.tag else {
                    return Err(RuntimeError::TypeMismatch(
                        "application of a non-function block".into(),
                    ));
                };
                let l = &self.code.lambdas[lam.0 as usize];
                if l.nparams != args.len() {
                    return Err(RuntimeError::TypeMismatch(format!(
                        "closure expects {} arguments, got {}",
                        l.nparams,
                        args.len()
                    )));
                }
                let mark = self.stack.reserve(block.fields.len() + args.len());
                self.stack.extend(block.fields);
                for a in args {
                    let v = self.read(*a);
                    self.stack.push(v);
                }
                // Rule (appᵣ): retain the captures, release the closure.
                for i in 0..l.ncaptures {
                    self.heap.dup(self.stack.scratch(mark)[i])?;
                }
                self.heap.drop_value(f)?;
                Ok(Callee {
                    mark,
                    nslots: l.nslots,
                    body: &l.body,
                    kind: FrameKind::Lam(lam),
                })
            }
            other => Err(RuntimeError::TypeMismatch(format!(
                "application of non-function value {other}"
            ))),
        }
    }

    /// Evaluates a value-producing instruction that cannot call.
    fn eval_simple(&mut self, e: &RExpr) -> Result<Value, RuntimeError> {
        match e {
            RExpr::Atom(a) => Ok(self.read(*a)),
            RExpr::Prim { op, args } => self.eval_prim(*op, args),
            RExpr::MkClosure { lam, captures } => {
                self.maybe_collect();
                let mark = self.stack.reserve(captures.len());
                for s in captures {
                    let v = self.stack.get(*s);
                    self.stack.push(v);
                }
                let addr = self
                    .heap
                    .alloc_slice(BlockTag::Closure(*lam), self.stack.scratch(mark));
                self.stack.truncate(mark);
                Ok(Value::Ref(addr))
            }
            RExpr::Con {
                ctor,
                args,
                reuse,
                skip,
            } => {
                // Field values are staged before the token is examined.
                let mark = self.stage(args);
                let v = self.alloc_con(*ctor, mark, *reuse, skip);
                self.stack.truncate(mark);
                v
            }
            RExpr::TokenOf(slot) => self.heap.claim(self.stack.get(*slot)),
            RExpr::NullToken => Ok(Value::Token(None)),
            RExpr::Abort(msg) => Err(RuntimeError::Abort(msg.to_string())),
            other => Err(RuntimeError::Internal(format!(
                "eval_simple on compound expression {other:?}"
            ))),
        }
    }

    /// Allocates a constructor from the fields staged at `mark`, in
    /// place of the reuse token when there is one.
    fn alloc_con(
        &mut self,
        ctor: CtorId,
        mark: usize,
        reuse: Option<Slot>,
        skip: &[bool],
    ) -> Result<Value, RuntimeError> {
        if let Some(tok_slot) = reuse {
            match self.stack.get(tok_slot) {
                Value::Token(Some(addr)) => {
                    let fields = self.stack.scratch(mark);
                    return Ok(Value::Ref(self.heap.alloc_into(addr, ctor, fields, skip)?));
                }
                Value::Token(None) => {}
                other => {
                    return Err(RuntimeError::TypeMismatch(format!(
                        "constructor reuse argument is not a token: {other}"
                    )))
                }
            }
        }
        self.maybe_collect();
        let addr = self
            .heap
            .alloc_slice(BlockTag::Ctor(ctor), self.stack.scratch(mark));
        Ok(Value::Ref(addr))
    }

    /// Applies a primitive, reading each operand straight from its atom.
    fn eval_prim(&mut self, op: PrimOp, args: &[Atom]) -> Result<Value, RuntimeError> {
        use PrimOp::*;
        let int = |v: Value| {
            v.as_int()
                .ok_or_else(|| RuntimeError::TypeMismatch(format!("expected an integer, got {v}")))
        };
        let arg = |m: &Self, i: usize| m.read(args[i]);
        let boolean = |b: bool| Value::Enum(if b { TypeTable::TRUE } else { TypeTable::FALSE });
        Ok(match op {
            Add => Value::Int(int(arg(self, 0))?.wrapping_add(int(arg(self, 1))?)),
            Sub => Value::Int(int(arg(self, 0))?.wrapping_sub(int(arg(self, 1))?)),
            Mul => Value::Int(int(arg(self, 0))?.wrapping_mul(int(arg(self, 1))?)),
            Div => {
                let d = int(arg(self, 1))?;
                if d == 0 {
                    return Err(RuntimeError::DivisionByZero);
                }
                Value::Int(int(arg(self, 0))?.wrapping_div(d))
            }
            Rem => {
                let d = int(arg(self, 1))?;
                if d == 0 {
                    return Err(RuntimeError::DivisionByZero);
                }
                Value::Int(int(arg(self, 0))?.wrapping_rem(d))
            }
            Neg => Value::Int(int(arg(self, 0))?.wrapping_neg()),
            Lt => boolean(int(arg(self, 0))? < int(arg(self, 1))?),
            Le => boolean(int(arg(self, 0))? <= int(arg(self, 1))?),
            Gt => boolean(int(arg(self, 0))? > int(arg(self, 1))?),
            Ge => boolean(int(arg(self, 0))? >= int(arg(self, 1))?),
            Eq => boolean(value_eq(&arg(self, 0), &arg(self, 1))?),
            Ne => boolean(!value_eq(&arg(self, 0), &arg(self, 1))?),
            Min => Value::Int(int(arg(self, 0))?.min(int(arg(self, 1))?)),
            Max => Value::Int(int(arg(self, 0))?.max(int(arg(self, 1))?)),
            RefNew => {
                self.maybe_collect();
                let v = arg(self, 0);
                let addr = self.heap.alloc_slice(BlockTag::MutRef, &[v]);
                Value::Ref(addr)
            }
            RefGet => {
                // §2.7.3: read, retain the content, release the ref.
                let r = arg(self, 0);
                let addr = ref_addr(&r)?;
                let content = self.heap.view(addr)?.fields[0];
                self.heap.dup(content)?;
                self.heap.drop_value(r)?;
                content
            }
            RefSet => {
                let (r, x) = (arg(self, 0), arg(self, 1));
                let addr = ref_addr(&r)?;
                let block = self.heap.block_mut(addr)?;
                if block.tag != BlockTag::MutRef {
                    return Err(RuntimeError::TypeMismatch(":= on a non-ref".into()));
                }
                let old = std::mem::replace(&mut block.fields[0], x);
                self.heap.drop_value(old)?;
                self.heap.drop_value(r)?;
                Value::Unit
            }
            TShare => {
                let v = arg(self, 0);
                self.heap.tshare(v)?;
                self.heap.drop_value(v)?;
                Value::Unit
            }
            Println => {
                let n = match arg(self, 0) {
                    Value::Int(i) => i,
                    Value::Unit => 0,
                    other => {
                        return Err(RuntimeError::TypeMismatch(format!(
                            "println of non-integer {other}"
                        )))
                    }
                };
                self.output.push(n);
                Value::Unit
            }
        })
    }

    /// Collect (GC mode) if the policy says so; all live values are on
    /// the value stack at allocation points thanks to ANF.
    fn maybe_collect(&mut self) {
        let Some(collector) = &mut self.collector else {
            return;
        };
        if !collector.should_collect(&self.heap) {
            return;
        }
        collector.collect(&mut self.heap, self.stack.values());
    }

    // ---- inspection ----------------------------------------------------

    /// Reads a value back as a deep tree (for tests and the oracle
    /// comparison). Does not consume ownership.
    pub fn read_back(&self, v: Value) -> Result<DeepValue, RuntimeError> {
        read_back_in(&self.heap, &self.code.types, v)
    }

    /// Drops the program result (callers use this before asserting that
    /// a garbage-free run left the heap empty).
    pub fn drop_result(&mut self, v: Value) -> Result<(), RuntimeError> {
        self.heap.drop_value(v)
    }

    /// Root values for the auditor: every value on the stack.
    pub(crate) fn root_values(&self) -> impl Iterator<Item = &Value> {
        self.stack.values()
    }
}

/// A callee whose arguments are staged on the value stack, ready to be
/// entered (a new frame) or jumped to (a tail call).
struct Callee<'p> {
    /// Where the staged arguments (captures first, for a closure) start.
    mark: usize,
    nslots: usize,
    body: &'p RExpr,
    kind: FrameKind,
}

/// What one step-loop leg produced (internal).
enum Step<'p> {
    Done(Value),
    Suspend(&'p RExpr),
}

/// The outcome of one [`Execution::run`] leg.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StepOutcome {
    /// The execution finished with this result value.
    Done(Value),
    /// The budget ran out at an auditable point; the execution owns its
    /// continuation and can be resumed with more fuel (or parked as a
    /// [`Checkpoint`]).
    Suspended {
        /// Cumulative steps executed by this execution so far.
        steps_used: u64,
        /// Live heap words at the suspension point — because Perceus is
        /// garbage-free at every step (Thm. 2/4), this is *exactly* the
        /// reachable data, so admission control can charge it against a
        /// memory budget with no slack for floating garbage.
        live_words: u64,
    },
}

/// A resumable execution: the machine's continuation state between
/// [`Execution::run`] legs.
///
/// While suspended it owns the value stack, the frame stack, and the
/// output buffer; the heap (including the profiler frame stack) stays
/// with the [`Machine`]. A suspended execution is a precise, auditable
/// snapshot: [`Execution::root_addrs`] plus
/// [`crate::audit::check_heap`] must report zero floating garbage —
/// that is the suspension-point invariant this API maintains by only
/// suspending at instructions satisfying Theorem 4's side condition.
pub struct Execution<'p> {
    cur: Option<&'p RExpr>,
    frames: Vec<Frame<'p>>,
    stack: ValueStack,
    output: Vec<i64>,
    steps: u64,
    code_uid: u64,
    finished: bool,
}

impl<'p> Execution<'p> {
    /// Runs until done, error, or (with a budget) suspension after
    /// roughly `budget` more steps. `machine` must be the machine (or a
    /// machine over the same heap and [`Compiled`]) that started this
    /// execution: its heap carries the execution's data and profiler
    /// stack.
    ///
    /// On `Done`/`Err` the execution is finished and cannot run again;
    /// the profiler exits the entry frame exactly as the old
    /// run-to-completion API did. On `Suspended` the continuation moves
    /// back into `self` and the machine is left neutral (empty frames
    /// and value stack).
    pub fn run(
        &mut self,
        machine: &mut Machine<'p>,
        budget: Option<u64>,
    ) -> Result<StepOutcome, RuntimeError> {
        if self.finished {
            return Err(RuntimeError::Internal(
                "resume of a finished execution".into(),
            ));
        }
        if self.code_uid != machine.code.uid() {
            return Err(RuntimeError::Internal(
                "execution resumed on a machine for a different program".into(),
            ));
        }
        let cur = self.cur.take().ok_or_else(|| {
            RuntimeError::Internal("resume of an execution that is already running".into())
        })?;
        machine.stack = std::mem::take(&mut self.stack);
        machine.frames = std::mem::take(&mut self.frames);
        if !self.output.is_empty() {
            // Carry output printed by earlier legs (machine.output is
            // empty unless the caller reuses one machine across legs, in
            // which case it already holds this execution's history).
            let mut out = std::mem::take(&mut self.output);
            out.append(&mut machine.output);
            machine.output = out;
        }
        let start_steps = machine.heap.stats.steps;
        let step_end = budget.map(|b| start_steps.saturating_add(b));
        let r = machine.step_loop(cur, step_end);
        self.steps = self
            .steps
            .saturating_add(machine.heap.stats.steps - start_steps);
        match r {
            Ok(Step::Done(v)) => {
                self.finished = true;
                machine.heap.prof_exit();
                Ok(StepOutcome::Done(v))
            }
            Ok(Step::Suspend(next)) => {
                self.cur = Some(next);
                self.stack = std::mem::take(&mut machine.stack);
                self.frames = std::mem::take(&mut machine.frames);
                self.output = std::mem::take(&mut machine.output);
                Ok(StepOutcome::Suspended {
                    steps_used: self.steps,
                    live_words: machine.heap.stats.live_words,
                })
            }
            Err(e) => {
                self.finished = true;
                machine.heap.prof_exit();
                Err(e)
            }
        }
    }

    /// Whether the execution has completed (or died with an error).
    pub fn is_finished(&self) -> bool {
        self.finished
    }

    /// Cumulative steps executed across all legs so far.
    pub fn steps_used(&self) -> u64 {
        self.steps
    }

    /// Heap roots of the suspended continuation: every live address
    /// held in a slot of the current or a pending frame, across all of
    /// the value stack's segments. Feed these to
    /// [`crate::audit::check_heap`] to assert garbage-freedom at the
    /// suspension point.
    pub fn root_addrs(&self, heap: &Heap) -> Vec<crate::value::Addr> {
        collect_roots(heap, self.stack.values())
    }

    /// Parks the suspended execution as a lifetime-erased
    /// [`Checkpoint`] that can outlive the `&Compiled` borrow. Errors
    /// if the execution already finished.
    pub fn into_checkpoint(self) -> Result<Checkpoint, RuntimeError> {
        if self.finished {
            return Err(RuntimeError::Internal(
                "checkpoint of a finished execution".into(),
            ));
        }
        let cur = self.cur.ok_or_else(|| {
            RuntimeError::Internal("checkpoint of an execution that is running".into())
        })?;
        let frames = self
            .frames
            .into_iter()
            .map(|f| match f {
                Frame::Call { caller, dst, cont } => RawFrame::Call {
                    caller,
                    dst,
                    cont: cont.map(erase),
                },
                Frame::Local { dst, cont } => RawFrame::Local {
                    dst,
                    cont: erase(cont),
                },
                Frame::Discard { cont } => RawFrame::Discard { cont: erase(cont) },
            })
            .collect();
        Ok(Checkpoint {
            code_uid: self.code_uid,
            cur: erase(cur),
            frames,
            stack: self.stack,
            output: self.output,
            steps: self.steps,
        })
    }
}

fn erase(e: &RExpr) -> usize {
    e as *const RExpr as usize
}

fn collect_roots<'a>(
    heap: &Heap,
    values: impl Iterator<Item = &'a Value>,
) -> Vec<crate::value::Addr> {
    values
        .filter_map(|v| match v {
            Value::Ref(a) | Value::Token(Some(a)) => Some(*a),
            _ => None,
        })
        .filter(|a| heap.ref_alive(*a))
        .collect()
}

/// A parked, lifetime-erased continuation: the serialized form of a
/// suspended [`Execution`], able to outlive the `&Compiled` borrow so a
/// serving worker can hold it in a suspension table across requests.
///
/// Expression positions are stored as raw node addresses. They stay
/// valid because a [`Compiled`] program's expression trees live in
/// heap-allocated nodes (`Box`/`Vec`) whose addresses do not change
/// when the `Compiled` value itself moves; what *would* invalidate them
/// is dropping or mutating the `Compiled`, which is why
/// [`Checkpoint::resume`] is `unsafe` and re-checks the program's
/// unique [`Compiled::uid`].
pub struct Checkpoint {
    code_uid: u64,
    cur: usize,
    frames: Vec<RawFrame>,
    stack: ValueStack,
    output: Vec<i64>,
    steps: u64,
}

enum RawFrame {
    Call {
        caller: Caller,
        dst: Option<Slot>,
        cont: Option<usize>,
    },
    Local {
        dst: Slot,
        cont: usize,
    },
    Discard {
        cont: usize,
    },
}

impl Checkpoint {
    /// Cumulative steps executed before parking.
    pub fn steps_used(&self) -> u64 {
        self.steps
    }

    /// Heap roots of the parked continuation (safe: roots live in the
    /// captured value stack, not behind the erased code pointers), for
    /// auditing a parked session with [`crate::audit::check_heap`].
    pub fn root_addrs(&self, heap: &Heap) -> Vec<crate::value::Addr> {
        collect_roots(heap, self.stack.values())
    }

    /// Un-parks the checkpoint against its compiled program.
    ///
    /// Fails (safely) if `code` is not the same *instance* the
    /// checkpoint was taken from — every [`Compiled`] carries a unique
    /// id, fresh even across clones, so a lookup-table mixup is caught
    /// before any raw pointer is dereferenced.
    ///
    /// # Safety
    ///
    /// The caller must guarantee `code` is the identical `Compiled`
    /// value this checkpoint was parked from and that it has not been
    /// dropped or mutated in between (e.g. it is held alive behind an
    /// `Arc` for the checkpoint's whole lifetime). The uid check makes
    /// accidents deterministic errors, but it cannot prove liveness:
    /// that contract is the caller's.
    pub unsafe fn resume<'p>(self, code: &'p Compiled) -> Result<Execution<'p>, RuntimeError> {
        if self.code_uid != code.uid() {
            return Err(RuntimeError::Internal(
                "checkpoint resumed against a different compiled program".into(),
            ));
        }
        // SAFETY: uid equality means `code` is the instance the erased
        // pointers were taken from, and the caller warrants it is still
        // alive and unmutated; node addresses are stable under moves of
        // the `Compiled` value itself.
        let expr = |p: usize| unsafe { &*(p as *const RExpr) };
        let frames = self
            .frames
            .into_iter()
            .map(|f| match f {
                RawFrame::Call { caller, dst, cont } => Frame::Call {
                    caller,
                    dst,
                    cont: cont.map(expr),
                },
                RawFrame::Local { dst, cont } => Frame::Local {
                    dst,
                    cont: expr(cont),
                },
                RawFrame::Discard { cont } => Frame::Discard { cont: expr(cont) },
            })
            .collect();
        Ok(Execution {
            cur: Some(expr(self.cur)),
            frames,
            stack: self.stack,
            output: self.output,
            steps: self.steps,
            code_uid: self.code_uid,
            finished: false,
        })
    }
}

/// Selects and binds a match arm — a borrowing bind per Fig. 1b: fields
/// are copied into the binder slots with no retains; the compiled arm
/// code contains the binder `dup`s and scrutinee `drop`.
fn select_arm<'p>(
    heap: &Heap,
    types: &TypeTable,
    env: &mut [Value],
    scrut: Value,
    arms: &'p [RArm],
    default: &'p Option<Box<RExpr>>,
) -> Result<&'p RExpr, RuntimeError> {
    let (ctor, addr): (CtorId, Option<crate::value::Addr>) = match scrut {
        Value::Enum(c) => (c, None),
        Value::Ref(a) => {
            let block = heap.view(a)?;
            match block.tag {
                BlockTag::Ctor(c) => (c, Some(a)),
                _ => {
                    return Err(RuntimeError::TypeMismatch(
                        "match on a non-constructor block".into(),
                    ))
                }
            }
        }
        other => {
            return Err(RuntimeError::TypeMismatch(format!(
                "match on non-constructor value {other}"
            )))
        }
    };
    for arm in arms {
        if arm.ctor == ctor {
            if let Some(a) = addr {
                let fields = heap.view(a)?.fields;
                for (b, v) in arm.binders.iter().zip(fields.iter()) {
                    if let Some(slot) = b {
                        env[*slot as usize] = *v;
                    }
                }
            }
            return Ok(&arm.body);
        }
    }
    match default {
        Some(d) => Ok(d),
        None => Err(RuntimeError::MatchFailure(format!(
            "no arm for constructor {} ({ctor:?})",
            types.ctor(ctor).name
        ))),
    }
}

fn ref_addr(v: &Value) -> Result<crate::value::Addr, RuntimeError> {
    v.addr()
        .ok_or_else(|| RuntimeError::TypeMismatch(format!("expected a reference, got {v}")))
}

/// Structural equality for the `==` primitive (ints, singletons, unit).
fn value_eq(a: &Value, b: &Value) -> Result<bool, RuntimeError> {
    match (a, b) {
        (Value::Int(x), Value::Int(y)) => Ok(x == y),
        (Value::Enum(x), Value::Enum(y)) => Ok(x == y),
        (Value::Unit, Value::Unit) => Ok(true),
        _ => Err(RuntimeError::TypeMismatch(format!(
            "== on non-primitive values {a} and {b}"
        ))),
    }
}

fn is_simple(e: &RExpr) -> bool {
    matches!(
        e,
        RExpr::Atom(_)
            | RExpr::Prim { .. }
            | RExpr::MkClosure { .. }
            | RExpr::Con { .. }
            | RExpr::TokenOf(_)
            | RExpr::NullToken
            | RExpr::Abort(_)
    )
}

fn is_rc_instruction(e: &RExpr) -> bool {
    // `TokenOf` belongs here too: the unfused drop-reuse expansion is
    // `drop child…; &x` (Fig. 1f), and between the child drops and the
    // claim the cell's fields transiently dangle — exactly the states
    // Theorem 4's side condition ("not at a dup/drop operation")
    // excludes. The claim itself ends the window (claimed cells' fields
    // are not treated as references).
    matches!(
        e,
        RExpr::Dup(..)
            | RExpr::Drop(..)
            | RExpr::DropReuse { .. }
            | RExpr::Free(..)
            | RExpr::DecRef(..)
            | RExpr::DropToken(..)
            | RExpr::IsUnique { .. }
            | RExpr::TokenOf(_)
            | RExpr::NullToken
    )
}

/// A machine value read back as a tree, independent of the heap.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeepValue {
    Unit,
    Int(i64),
    /// Constructor by name (names make test failures readable).
    Ctor(String, Vec<DeepValue>),
    /// Closures compare as opaque.
    Closure,
    /// Mutable reference cell.
    MutRef(Box<DeepValue>),
    /// A weak shared reference, read back opaquely: following it would
    /// recurse through cycles (that is what weak back-edges are for),
    /// and its target's liveness is another thread's business.
    Weak,
}

impl fmt::Display for DeepValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeepValue::Unit => f.write_str("()"),
            DeepValue::Int(i) => write!(f, "{i}"),
            DeepValue::Ctor(name, fields) => {
                f.write_str(name)?;
                if !fields.is_empty() {
                    f.write_str("(")?;
                    for (i, x) in fields.iter().enumerate() {
                        if i > 0 {
                            f.write_str(", ")?;
                        }
                        write!(f, "{x}")?;
                    }
                    f.write_str(")")?;
                }
                Ok(())
            }
            DeepValue::Closure => f.write_str("<fun>"),
            DeepValue::MutRef(v) => write!(f, "ref({v})"),
            DeepValue::Weak => f.write_str("<weak>"),
        }
    }
}

/// Reads a machine value into a [`DeepValue`] tree.
pub fn read_back_in(heap: &Heap, types: &TypeTable, v: Value) -> Result<DeepValue, RuntimeError> {
    match v {
        Value::Unit | Value::Token(_) => Ok(DeepValue::Unit),
        Value::Weak(_) => Ok(DeepValue::Weak),
        Value::Int(i) => Ok(DeepValue::Int(i)),
        Value::Enum(c) => Ok(DeepValue::Ctor(types.ctor(c).name.to_string(), Vec::new())),
        Value::Global(_) => Ok(DeepValue::Closure),
        Value::Ref(addr) => {
            let b = heap.view(addr)?;
            match b.tag {
                BlockTag::Ctor(c) => {
                    let mut fields = Vec::with_capacity(b.fields.len());
                    for f in b.fields.iter() {
                        fields.push(read_back_in(heap, types, *f)?);
                    }
                    Ok(DeepValue::Ctor(types.ctor(c).name.to_string(), fields))
                }
                BlockTag::Closure(_) => Ok(DeepValue::Closure),
                BlockTag::MutRef => Ok(DeepValue::MutRef(Box::new(read_back_in(
                    heap,
                    types,
                    b.fields[0],
                )?))),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::code::compile;
    use perceus_core::ir::builder::{arm, arm0, con, ite, ProgramBuilder};
    use perceus_core::ir::expr::{Expr, Lambda, PrimOp};
    use perceus_core::passes::{PassConfig, Pipeline};

    fn run(p: perceus_core::ir::Program, arg: i64) -> (Value, Stats) {
        let p = Pipeline::new(PassConfig::perceus()).run(p).unwrap();
        let compiled = compile(&p).unwrap();
        let mut m = Machine::new(&compiled, ReclaimMode::Rc, RunConfig::default());
        let v = m.run_entry(vec![Value::Int(arg)]).unwrap();
        m.drop_result(v).unwrap();
        assert_eq!(m.heap.live_blocks(), 0, "garbage-free");
        (v, m.heap.stats)
    }

    use crate::heap::Stats;

    /// A compound let-rhs (match) uses a Local frame and continues in
    /// the same environment.
    #[test]
    fn local_frames_for_compound_rhs() {
        let mut pb = ProgramBuilder::new();
        let n = pb.fresh("n");
        let c = pb.fresh("c");
        let x = pb.fresh("x");
        // val c = (n < 5); val x = match c { True -> 1; False -> 2 }; x + n
        let body = Expr::let_(
            c.clone(),
            Expr::Prim(PrimOp::Lt, vec![Expr::Var(n.clone()), Expr::int(5)]),
            Expr::let_(
                x.clone(),
                ite(c.clone(), Expr::int(1), Expr::int(2)),
                Expr::Prim(
                    PrimOp::Add,
                    vec![Expr::Var(x.clone()), Expr::Var(n.clone())],
                ),
            ),
        );
        let f = pb.fun("f", vec![n.clone()], body);
        pb.entry(f);
        let (v, _) = run(pb.finish(), 3);
        assert_eq!(v.as_int(), Some(4));
        let mut pb = ProgramBuilder::new();
        let n = pb.fresh("n");
        let c = pb.fresh("c");
        let x = pb.fresh("x");
        let body = Expr::let_(
            c.clone(),
            Expr::Prim(PrimOp::Lt, vec![Expr::Var(n.clone()), Expr::int(5)]),
            Expr::let_(
                x.clone(),
                ite(c.clone(), Expr::int(1), Expr::int(2)),
                Expr::Prim(
                    PrimOp::Add,
                    vec![Expr::Var(x.clone()), Expr::Var(n.clone())],
                ),
            ),
        );
        let f = pb.fun("f", vec![n.clone()], body);
        pb.entry(f);
        let (v, _) = run(pb.finish(), 9);
        assert_eq!(v.as_int(), Some(11));
    }

    /// Applying a non-function value is a type error, not a crash.
    #[test]
    fn applying_non_function_errors() {
        let mut pb = ProgramBuilder::new();
        let n = pb.fresh("n");
        let body = Expr::App(Box::new(Expr::Var(n.clone())), vec![Expr::int(1)]);
        let f = pb.fun("f", vec![n], body);
        pb.entry(f);
        let p = Pipeline::new(PassConfig::perceus())
            .run(pb.finish())
            .unwrap();
        let compiled = compile(&p).unwrap();
        let mut m = Machine::new(&compiled, ReclaimMode::Rc, RunConfig::default());
        let err = m.run_entry(vec![Value::Int(7)]).unwrap_err();
        assert!(matches!(err, RuntimeError::TypeMismatch(_)), "{err}");
    }

    /// A closure value built from a Global is applied by direct entry
    /// (no closure allocation, no rc traffic on the callee).
    #[test]
    fn global_as_value_applies_directly() {
        let mut pb = ProgramBuilder::new();
        let x = pb.fresh("x");
        let inc = pb.fun(
            "inc",
            vec![x.clone()],
            Expr::Prim(PrimOp::Add, vec![Expr::Var(x), Expr::int(1)]),
        );
        let n = pb.fresh("n");
        let g = pb.fresh("g");
        let body = Expr::let_(
            g.clone(),
            Expr::Global(inc),
            Expr::App(Box::new(Expr::Var(g.clone())), vec![Expr::Var(n.clone())]),
        );
        let f = pb.fun("main", vec![n], body);
        pb.entry(f);
        let (v, st) = run(pb.finish(), 41);
        assert_eq!(v.as_int(), Some(42));
        assert_eq!(st.allocations, 0, "no closure allocated for a global");
    }

    /// Closure application follows (appᵣ): captured values are retained
    /// for the body and the closure itself is released per call.
    #[test]
    fn closure_call_retains_captures_releases_closure() {
        let mut pb = ProgramBuilder::new();
        let (_, cs) = pb.data("box", &[("BoxV", 1)]);
        let bx = cs[0];
        let n = pb.fresh("n");
        let b = pb.fresh("b");
        let f = pb.fresh("f");
        let q = pb.fresh("q");
        let r1 = pb.fresh("r1");
        let r2 = pb.fresh("r2");
        let inner1 = pb.fresh("i1");
        let inner2 = pb.fresh("i2");
        // val b = BoxV(n)
        // val f = fn(q){ match b { BoxV(i) -> i + q } }
        // f(1) + f(2)   — two calls through the same closure.
        let lam = Expr::Lam(Lambda {
            params: vec![q.clone()],
            captures: vec![],
            body: Box::new(Expr::Match {
                scrutinee: b.clone(),
                arms: vec![arm(
                    bx,
                    vec![inner1.clone()],
                    Expr::Prim(
                        PrimOp::Add,
                        vec![Expr::Var(inner1.clone()), Expr::Var(q.clone())],
                    ),
                )],
                default: None,
            }),
        });
        let body = Expr::let_(
            b.clone(),
            con(bx, vec![Expr::Var(n.clone())]),
            Expr::let_(
                f.clone(),
                lam,
                Expr::let_(
                    r1.clone(),
                    Expr::App(Box::new(Expr::Var(f.clone())), vec![Expr::int(1)]),
                    Expr::let_(
                        r2.clone(),
                        Expr::App(Box::new(Expr::Var(f.clone())), vec![Expr::int(2)]),
                        Expr::Prim(
                            PrimOp::Add,
                            vec![Expr::Var(r1.clone()), Expr::Var(r2.clone())],
                        ),
                    ),
                ),
            ),
        );
        let _ = inner2;
        let main = pb.fun("main", vec![n], body);
        pb.entry(main);
        let (v, st) = run(pb.finish(), 10);
        assert_eq!(v.as_int(), Some(23));
        // One BoxV + one closure allocated; everything freed.
        assert_eq!(st.allocations, 2);
    }

    /// A recursive list build-and-sum program — enough steps and live
    /// heap to make budgeted suspension interesting.
    fn list_sum_compiled() -> Compiled {
        let mut pb = ProgramBuilder::new();
        let (_, cs) = pb.data("list", &[("Nil", 0), ("Cons", 2)]);
        let (nil, cons) = (cs[0], cs[1]);

        // build(n) = if n < 1 then Nil else Cons(n, build(n - 1))
        let n = pb.fresh("n");
        let build = pb.declare("build", vec![n.clone()]);
        let c = pb.fresh("c");
        let t = pb.fresh("t");
        let body = Expr::let_(
            c.clone(),
            Expr::Prim(PrimOp::Lt, vec![Expr::Var(n.clone()), Expr::int(1)]),
            ite(
                c.clone(),
                con(nil, vec![]),
                Expr::let_(
                    t.clone(),
                    Expr::Call(
                        build,
                        vec![Expr::Prim(
                            PrimOp::Sub,
                            vec![Expr::Var(n.clone()), Expr::int(1)],
                        )],
                    ),
                    con(cons, vec![Expr::Var(n.clone()), Expr::Var(t.clone())]),
                ),
            ),
        );
        pb.set_body(build, body);

        // sum(xs) = match xs { Nil -> 0; Cons(h, t) -> h + sum(t) }
        let xs = pb.fresh("xs");
        let sum = pb.declare("sum", vec![xs.clone()]);
        let h = pb.fresh("h");
        let t2 = pb.fresh("t2");
        let r = pb.fresh("r");
        let body = Expr::Match {
            scrutinee: xs.clone(),
            arms: vec![
                arm0(nil, Expr::int(0)),
                arm(
                    cons,
                    vec![h.clone(), t2.clone()],
                    Expr::let_(
                        r.clone(),
                        Expr::Call(sum, vec![Expr::Var(t2.clone())]),
                        Expr::Prim(
                            PrimOp::Add,
                            vec![Expr::Var(h.clone()), Expr::Var(r.clone())],
                        ),
                    ),
                ),
            ],
            default: None,
        };
        pb.set_body(sum, body);

        let m = pb.fresh("m");
        let l = pb.fresh("l");
        let body = Expr::let_(
            l.clone(),
            Expr::Call(build, vec![Expr::Var(m.clone())]),
            Expr::Call(sum, vec![Expr::Var(l.clone())]),
        );
        let main = pb.fun("main", vec![m], body);
        pb.entry(main);
        let p = Pipeline::new(PassConfig::perceus())
            .run(pb.finish())
            .unwrap();
        compile(&p).unwrap()
    }

    /// Chopping a run into fixed budgets suspends (at auditable points)
    /// and resumes to the identical result and bit-identical stats.
    #[test]
    fn budgeted_legs_match_uninterrupted_run_exactly() {
        let compiled = list_sum_compiled();

        let mut m = Machine::new(&compiled, ReclaimMode::Rc, RunConfig::default());
        let v = m.run_entry(vec![Value::Int(50)]).unwrap();
        m.drop_result(v).unwrap();
        assert_eq!(m.heap.live_blocks(), 0);
        let uninterrupted = m.heap.stats;

        let mut m = Machine::new(&compiled, ReclaimMode::Rc, RunConfig::default());
        let mut exec = m.start_entry(vec![Value::Int(50)]).unwrap();
        let mut suspensions = 0u64;
        let v = loop {
            match exec.run(&mut m, Some(97)).unwrap() {
                StepOutcome::Done(v) => break v,
                StepOutcome::Suspended { steps_used, .. } => {
                    suspensions += 1;
                    assert_eq!(steps_used, m.heap.stats.steps);
                    // The suspension-point invariant: the parked state
                    // is garbage-free and fully auditable.
                    let roots = exec.root_addrs(&m.heap);
                    crate::audit::check_heap(&m.heap, &roots).expect("suspension audit");
                }
            }
        };
        assert!(suspensions > 2, "the budget must actually bite");
        m.drop_result(v).unwrap();
        assert_eq!(m.heap.live_blocks(), 0, "garbage-free after resume");
        assert_eq!(v.as_int(), Some(50 * 51 / 2));
        assert_eq!(m.heap.stats, uninterrupted, "bit-identical schedule");
    }

    /// Park a suspended execution as a lifetime-erased checkpoint,
    /// audit it while parked, then resume it against the same program.
    #[test]
    fn checkpoint_roundtrip_preserves_result() {
        let compiled = list_sum_compiled();
        let mut m = Machine::new(&compiled, ReclaimMode::Rc, RunConfig::default());
        let mut exec = m.start_entry(vec![Value::Int(40)]).unwrap();
        let StepOutcome::Suspended { .. } = exec.run(&mut m, Some(200)).unwrap() else {
            panic!("a 200-step budget must suspend this program");
        };

        let checkpoint = exec.into_checkpoint().unwrap();
        let roots = checkpoint.root_addrs(&m.heap);
        crate::audit::check_heap(&m.heap, &roots).expect("parked audit");

        // A structurally identical clone is a *different* instance:
        // resuming against it must fail before touching any pointer.
        let clone = compiled.clone();
        assert_ne!(clone.uid(), compiled.uid());
        let checkpoint = match unsafe { checkpoint.resume(&clone) } {
            Err(RuntimeError::Internal(_)) => {
                // Re-park for the real resume below.
                let mut m2 = Machine::new(&compiled, ReclaimMode::Rc, RunConfig::default());
                let mut e2 = m2.start_entry(vec![Value::Int(40)]).unwrap();
                match e2.run(&mut m2, Some(200)).unwrap() {
                    StepOutcome::Suspended { .. } => {
                        let cp = e2.into_checkpoint().unwrap();
                        m = m2;
                        cp
                    }
                    other => panic!("expected suspension, got {other:?}"),
                }
            }
            Ok(_) => panic!("resume against a clone must fail"),
            Err(other) => panic!("unexpected error {other}"),
        };

        // SAFETY: `compiled` is the instance the checkpoint was parked
        // from and outlives the resumed execution.
        let mut exec = unsafe { checkpoint.resume(&compiled) }.unwrap();
        let v = loop {
            match exec.run(&mut m, Some(500)).unwrap() {
                StepOutcome::Done(v) => break v,
                StepOutcome::Suspended { .. } => {}
            }
        };
        assert_eq!(v.as_int(), Some(40 * 41 / 2));
        m.drop_result(v).unwrap();
        assert_eq!(m.heap.live_blocks(), 0);
    }

    /// Singleton constructors dispatch without touching the heap.
    #[test]
    fn singleton_match_never_allocates() {
        let mut pb = ProgramBuilder::new();
        let (_, cs) = pb.data("tri", &[("L", 0), ("M", 0), ("R", 0)]);
        let n = pb.fresh("n");
        let c = pb.fresh("c");
        let s = pb.fresh("s");
        let body = Expr::let_(
            c.clone(),
            Expr::Prim(PrimOp::Lt, vec![Expr::Var(n.clone()), Expr::int(0)]),
            Expr::let_(
                s.clone(),
                ite(c.clone(), con(cs[0], vec![]), con(cs[2], vec![])),
                Expr::Match {
                    scrutinee: s.clone(),
                    arms: vec![
                        arm0(cs[0], Expr::int(-1)),
                        arm0(cs[1], Expr::int(0)),
                        arm0(cs[2], Expr::int(1)),
                    ],
                    default: None,
                },
            ),
        );
        let main = pb.fun("main", vec![n], body);
        pb.entry(main);
        let (v, st) = run(pb.finish(), 7);
        assert_eq!(v.as_int(), Some(1));
        assert_eq!(st.allocations, 0);
        assert_eq!(st.rc_ops(), 0, "singletons cost nothing");
    }
}
