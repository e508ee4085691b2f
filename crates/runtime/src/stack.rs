//! The machine's value stack: the slots of every pending call frame,
//! stored contiguously in segments — the interpreter's counterpart of
//! the C stack that holds Koka's λ¹ locals.
//!
//! A frame is a base offset into the current segment. A call turns the
//! arguments staged above the caller's frame into the callee's frame in
//! place; a return truncates back to the caller; a tail call overwrites
//! the dying frame. The same space above the current frame is the
//! operand scratch for constructor and closure allocation, so no step
//! of the machine allocates a Rust `Vec` on its common path.
//!
//! A frame never straddles two segments. When a frame (or a scratch
//! request) does not fit in the rest of the current segment, the frame
//! moves to a fresh segment and the old one is *parked* below it with
//! its length intact; returning from that frame unparks it. The stack
//! therefore grows by adding segments and never by realloc-copying, so
//! a deep recursion costs one copy per segment boundary instead of a
//! doubling copy of the whole stack. Segment capacities double from
//! [`FIRST_SEGMENT`] up to [`MAX_SEGMENT`]: a short-lived serving
//! session touches one small segment, while a 100k-deep recursion
//! spreads over a few hundred full-size ones.

use crate::value::Value;

/// Capacity of a stack's first segment, in values.
const FIRST_SEGMENT: usize = 256;
/// Segment capacities double up to this many values (a frame larger
/// than this gets a segment of exactly its size).
const MAX_SEGMENT: usize = 4096;
/// Emptied segments kept for reuse, so a recursion that oscillates
/// across a segment boundary does not allocate on every crossing.
const SPARE_SEGMENTS: usize = 2;

/// Where a caller's frame is: what a return needs to get back to it.
#[derive(Clone, Copy)]
pub(crate) struct Caller {
    /// The caller's frame base in its segment.
    base: u32,
    /// How many segments were parked below the caller's.
    depth: u32,
}

/// A segmented stack of frame slots (see the module documentation).
#[derive(Default)]
pub(crate) struct ValueStack {
    /// The segment holding the current frame. Its length is the top of
    /// the current frame, or of the operand scratch above it while an
    /// instruction stages operands.
    seg: Vec<Value>,
    /// Offset of the current frame's slot 0 in `seg`.
    base: usize,
    /// Segments below `seg`, oldest first; each ends with the frame of
    /// a caller waiting in a later segment.
    parked: Vec<Vec<Value>>,
    /// Emptied segments, at most [`SPARE_SEGMENTS`].
    spare: Vec<Vec<Value>>,
}

impl ValueStack {
    /// A stack holding one frame of `nslots` slots whose first slots
    /// are `args` and the rest unit.
    pub(crate) fn entry(args: &[Value], nslots: usize) -> Self {
        let mut seg = Vec::with_capacity(FIRST_SEGMENT.max(nslots));
        seg.extend_from_slice(args);
        seg.resize(nslots, Value::Unit);
        ValueStack {
            seg,
            ..ValueStack::default()
        }
    }

    /// Reads slot `slot` of the current frame.
    #[inline]
    pub(crate) fn get(&self, slot: u32) -> Value {
        self.seg[self.base + slot as usize]
    }

    /// Writes slot `slot` of the current frame.
    #[inline]
    pub(crate) fn set(&mut self, slot: u32, v: Value) {
        self.seg[self.base + slot as usize] = v;
    }

    /// The current frame's slots.
    #[inline]
    pub(crate) fn frame_mut(&mut self) -> &mut [Value] {
        &mut self.seg[self.base..]
    }

    /// Makes room for `n` operand values above the current frame and
    /// returns where they start: `push` them, read them back with
    /// [`ValueStack::scratch`], then `truncate` to the returned mark (or
    /// hand them to [`ValueStack::push_frame`] or
    /// [`ValueStack::replace_frame`]). The current frame may move to a
    /// fresh segment, so read the operands' sources only afterwards.
    #[inline]
    pub(crate) fn reserve(&mut self, n: usize) -> usize {
        if self.seg.capacity() - self.seg.len() < n {
            self.relocate(n);
        }
        self.seg.len()
    }

    /// Pushes one reserved operand.
    #[inline]
    pub(crate) fn push(&mut self, v: Value) {
        debug_assert!(self.seg.len() < self.seg.capacity(), "unreserved push");
        self.seg.push(v);
    }

    /// Pushes reserved operands.
    #[inline]
    pub(crate) fn extend(&mut self, vs: &[Value]) {
        debug_assert!(self.seg.capacity() - self.seg.len() >= vs.len());
        self.seg.extend_from_slice(vs);
    }

    /// The operands staged since `mark`.
    #[inline]
    pub(crate) fn scratch(&self, mark: usize) -> &[Value] {
        &self.seg[mark..]
    }

    /// Discards the operands staged since `mark`.
    #[inline]
    pub(crate) fn truncate(&mut self, mark: usize) {
        self.seg.truncate(mark);
    }

    /// Makes the operands staged since `mark` the first slots of a new
    /// frame of `nslots` slots (the rest unit) above the current one.
    /// Returns the [`Caller`] that [`ValueStack::pop_frame`] needs to
    /// return to it.
    #[inline]
    pub(crate) fn push_frame(&mut self, mark: usize, nslots: usize) -> Caller {
        let caller = Caller {
            base: self.base as u32,
            depth: self.parked.len() as u32,
        };
        if mark + nslots <= self.seg.capacity() {
            self.seg.resize(mark + nslots, Value::Unit);
            self.base = mark;
        } else {
            let mut next = self.fresh_segment(nslots);
            next.extend_from_slice(&self.seg[mark..]);
            next.resize(nslots, Value::Unit);
            self.seg.truncate(mark);
            self.parked.push(std::mem::replace(&mut self.seg, next));
            self.base = 0;
        }
        caller
    }

    /// Replaces the current frame by a frame of `nslots` slots whose
    /// first slots are the operands staged since `mark` (a tail call).
    /// The operands are read out of the dying frame before it is
    /// overwritten, so a call that permutes its own parameters is safe.
    #[inline]
    pub(crate) fn replace_frame(&mut self, mark: usize, nslots: usize) {
        let nargs = self.seg.len() - mark;
        if self.base + nslots <= self.seg.capacity() {
            self.seg.copy_within(mark.., self.base);
            self.seg.truncate(self.base + nargs);
            self.seg.resize(self.base + nslots, Value::Unit);
        } else {
            let mut next = self.fresh_segment(nslots);
            next.extend_from_slice(&self.seg[mark..]);
            next.resize(nslots, Value::Unit);
            self.swap_segment(next);
        }
    }

    /// Pops the current frame, returning to the caller recorded by
    /// [`ValueStack::push_frame`].
    #[inline]
    pub(crate) fn pop_frame(&mut self, caller: Caller) {
        let depth = caller.depth as usize;
        if self.parked.len() == depth {
            self.seg.truncate(self.base);
        }
        while self.parked.len() > depth {
            let below = self.parked.pop().expect("parked segment");
            let done = std::mem::replace(&mut self.seg, below);
            self.recycle(done);
        }
        self.base = caller.base as usize;
    }

    /// Every value on the stack, oldest frame first: the machine's GC
    /// and audit roots. Includes staged operands, which are copies of
    /// frame slots or immediates and so add no roots of their own.
    pub(crate) fn values(&self) -> impl Iterator<Item = &Value> {
        self.parked.iter().flatten().chain(self.seg.iter())
    }

    /// Moves the current frame to a fresh segment with room for `extra`
    /// more values above it.
    #[cold]
    fn relocate(&mut self, extra: usize) {
        let frame = self.seg.len() - self.base;
        let mut next = self.fresh_segment(frame + extra);
        next.extend_from_slice(&self.seg[self.base..]);
        self.swap_segment(next);
    }

    /// Makes `next` (already holding the current frame at offset 0) the
    /// current segment. The old one is parked at the current frame's
    /// base — or, when the current frame was its only content, recycled.
    fn swap_segment(&mut self, next: Vec<Value>) {
        self.seg.truncate(self.base);
        let old = std::mem::replace(&mut self.seg, next);
        if self.base == 0 {
            self.recycle(old);
        } else {
            self.parked.push(old);
        }
        self.base = 0;
    }

    /// An empty segment for at least `need` values, sized to double the
    /// current one (within the caps).
    #[cold]
    fn fresh_segment(&mut self, need: usize) -> Vec<Value> {
        let want = (self.seg.capacity() * 2)
            .clamp(FIRST_SEGMENT, MAX_SEGMENT)
            .max(need);
        // Frame bases are offsets into one segment, stored as `u32`.
        assert!(u32::try_from(want).is_ok(), "frame of {need} slots");
        match self.spare.pop() {
            Some(s) if s.capacity() >= want => s,
            _ => Vec::with_capacity(want),
        }
    }

    fn recycle(&mut self, mut seg: Vec<Value>) {
        if self.spare.len() < SPARE_SEGMENTS {
            seg.clear();
            self.spare.push(seg);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ints(s: &ValueStack) -> Vec<i64> {
        s.values().map(|v| v.as_int().unwrap_or(-1)).collect()
    }

    /// A chain of calls deeper than several segments returns to every
    /// caller's frame intact, and the stack never holds more than its
    /// live frames.
    #[test]
    fn deep_calls_cross_segments_and_unwind() {
        let mut s = ValueStack::entry(&[Value::Int(0)], 3);
        let mut saved = Vec::new();
        for i in 1..=5000i64 {
            let mark = s.reserve(2);
            s.push(Value::Int(i));
            s.push(s.get(0));
            saved.push(s.push_frame(mark, 3));
            assert_eq!(s.get(0), Value::Int(i));
            assert_eq!(s.get(1), Value::Int(i - 1));
            assert_eq!(s.get(2), Value::Unit);
        }
        assert!(s.parked.len() > 3, "5000 frames span several segments");
        assert_eq!(s.values().count(), 3 * 5001);
        for i in (1..=5000i64).rev() {
            assert_eq!(s.get(0), Value::Int(i));
            s.pop_frame(saved.pop().unwrap());
            assert_eq!(s.get(0), Value::Int(i - 1));
        }
        assert_eq!(ints(&s), vec![0, -1, -1]);
        assert!(s.parked.is_empty());
    }

    /// A tail call that swaps its parameters reads both before writing
    /// either, in place and across a segment boundary alike.
    #[test]
    fn tail_call_permutes_in_place() {
        let mut s = ValueStack::entry(&[Value::Int(1), Value::Int(2)], 2);
        let mark = s.reserve(2);
        s.push(s.get(1));
        s.push(s.get(0));
        s.replace_frame(mark, 3);
        assert_eq!(ints(&s), vec![2, 1, -1]);
        // Grow the frame past the segment: it moves, the values follow.
        let mark = s.reserve(2);
        s.push(s.get(1));
        s.push(s.get(0));
        s.replace_frame(mark, 10_000);
        assert_eq!(s.get(0), Value::Int(1));
        assert_eq!(s.get(1), Value::Int(2));
        assert_eq!(s.values().count(), 10_000);
    }

    /// Scratch that does not fit moves the current frame, and the
    /// caller below it is unparked on return.
    #[test]
    fn scratch_relocates_the_frame() {
        let mut s = ValueStack::entry(&[Value::Int(7)], 1);
        let mark = s.reserve(1);
        s.push(Value::Int(8));
        let caller = s.push_frame(mark, 2);
        let mark = s.reserve(FIRST_SEGMENT);
        assert_eq!(s.get(0), Value::Int(8), "frame moved with its slots");
        for _ in 0..FIRST_SEGMENT {
            s.push(Value::Int(9));
        }
        assert_eq!(s.scratch(mark).len(), FIRST_SEGMENT);
        s.truncate(mark);
        s.pop_frame(caller);
        assert_eq!(ints(&s), vec![7]);
    }
}
