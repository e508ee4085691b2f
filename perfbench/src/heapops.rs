//! Per-operation costs of the heap primitives, from tight loops over the
//! public `Heap` API (the same loops as the `heap_ops` Criterion bench).
//! Multiplied by a run's operation counts they estimate the share of
//! machine time the heap accounts for (`heap.est_share`).

use crate::stats::median;
use perceus_core::ir::CtorId;
use perceus_runtime::heap::{BlockTag, Heap, ReclaimMode};
use perceus_runtime::{Stats, Value};
use std::hint::black_box;
use std::time::Instant;

const ITERS: u32 = 400_000;
const REPEATS: usize = 5;

/// Nanoseconds per operation of each primitive, in
/// [`crate::metrics::HEAP_OPS`] order.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpCosts {
    pub dup_drop: f64,
    pub alloc_drop: f64,
    pub reuse: f64,
    pub is_unique: f64,
    pub shared_dup_drop: f64,
}

impl OpCosts {
    pub fn as_array(&self) -> [f64; 5] {
        [
            self.dup_drop,
            self.alloc_drop,
            self.reuse,
            self.is_unique,
            self.shared_dup_drop,
        ]
    }

    /// Estimated heap nanoseconds for a run with these counts: every
    /// allocation pays an alloc+free pair, every reuse a drop-reuse plus
    /// build-into pair, every dup or drop half a dup+drop pair, every
    /// uniqueness test one test.
    pub fn estimate_ns(&self, st: &Stats) -> f64 {
        st.allocations as f64 * self.alloc_drop
            + st.reuses as f64 * self.reuse
            + (st.dups + st.drops) as f64 * self.dup_drop / 2.0
            + st.unique_tests as f64 * self.is_unique
    }
}

/// Median over [`REPEATS`] loops of [`ITERS`] iterations each.
fn per_op(mut body: impl FnMut()) -> f64 {
    let mut samples = Vec::with_capacity(REPEATS);
    for _ in 0..REPEATS {
        let t = Instant::now();
        for _ in 0..ITERS {
            body();
        }
        samples.push(t.elapsed().as_nanos() as f64 / f64::from(ITERS));
    }
    median(&samples)
}

pub fn measure() -> Result<OpCosts, String> {
    let err = |e: perceus_runtime::RuntimeError| e.to_string();
    let mut h = Heap::new(ReclaimMode::Rc);
    let a = h.alloc(BlockTag::Ctor(CtorId(2)), Box::new([Value::Int(1)]));
    let v = Value::Ref(a);
    let mut failure = None;
    let dup_drop = per_op(|| {
        if let Err(e) = h
            .dup(black_box(v))
            .and_then(|()| h.drop_value(black_box(v)))
        {
            failure = Some(err(e));
        }
    });
    let is_unique = per_op(|| {
        if let Err(e) = h.is_unique(black_box(v)) {
            failure = Some(err(e));
        }
    });
    let alloc_drop = per_op(|| {
        let a = h.alloc_slice(
            BlockTag::Ctor(CtorId(2)),
            &[black_box(Value::Int(1)), Value::Unit],
        );
        if let Err(e) = h.drop_value(Value::Ref(a)) {
            failure = Some(err(e));
        }
    });
    let mut cell = h.alloc(
        BlockTag::Ctor(CtorId(2)),
        Box::new([Value::Int(1), Value::Unit]),
    );
    let reuse = per_op(|| {
        let rebuilt = h.drop_reuse(Value::Ref(cell)).and_then(|tok| match tok {
            Value::Token(Some(t)) => {
                h.alloc_into(t, CtorId(2), &[black_box(Value::Int(2)), Value::Unit], &[])
            }
            other => Err(perceus_runtime::RuntimeError::Internal(format!(
                "drop-reuse of a unique cell gave {other:?}"
            ))),
        });
        match rebuilt {
            Ok(next) => cell = next,
            Err(e) => failure = Some(err(e)),
        }
    });
    let shared = h.alloc(BlockTag::Ctor(CtorId(2)), Box::new([Value::Int(1)]));
    h.tshare(Value::Ref(shared)).map_err(err)?;
    let sv = Value::Ref(shared);
    let shared_dup_drop = per_op(|| {
        if let Err(e) = h
            .dup(black_box(sv))
            .and_then(|()| h.drop_value(black_box(sv)))
        {
            failure = Some(err(e));
        }
    });
    match failure {
        Some(e) => Err(format!("heap microbenchmark: {e}")),
        None => Ok(OpCosts {
            dup_drop,
            alloc_drop,
            reuse,
            is_unique,
            shared_dup_drop,
        }),
    }
}
