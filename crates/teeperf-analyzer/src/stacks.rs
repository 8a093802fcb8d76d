//! Per-thread call-stack reconstruction.
//!
//! Within one thread the recorder guarantees program order, so the call and
//! return events form a (possibly truncated) balanced sequence. Walking it
//! with an explicit stack yields, for every completed call: its inclusive
//! ticks (exit counter − enter counter), its exclusive ticks (inclusive −
//! time spent in callees) and its full ancestry — everything the profile,
//! queries and flame graphs need.
//!
//! [`ResumableStacks`] is that walk, over one vector of open frames that
//! each carry their stack, address, entry counter and callee ticks. A
//! return searches the open frames from the top down, so the usual match,
//! the top frame, costs one comparison. Each call goes to its consumer's
//! sink as it closes, as a fixed-size [`ClosedCall`], so a consumer that
//! adds calls to a table (the batch analyzer, the rolling profile) keeps
//! none of them and copies no stack. [`reconstruct`] is the consumer that
//! collects them, each with its own copy of its stack.
//!
//! The stack the walk reconstructs is a tree, and the walk keeps it: a
//! [`PathTable`] interns every distinct stack as `(parent, address)`, asked
//! once, when a call *opens*. A frame carries its [`PathId`] while open and
//! the closed call hands it on ([`ClosedCall::path`]), so every table
//! downstream is indexed by that id and nothing hashes a stack again. All
//! the threads of a session share one table; a row's parent always has the
//! smaller id, which is what makes translating a table into another one
//! pass ([`PathTable::adopt`]).
//!
//! Real logs are imperfect; the reconstruction is deliberately tolerant:
//!
//! * **orphan returns** (tracing was activated mid-run, or the matching
//!   call was dropped from a full log) are counted and skipped;
//! * **unclosed frames** (the log filled up or tracing stopped mid-call)
//!   are closed at the thread's last observed counter and counted as
//!   truncated, mirroring the paper's "dismiss records, which might be
//!   wrong at the end of the log".

use std::collections::HashMap;

use crate::reader::Event;
use teeperf_core::layout::{EventKind, LogEntry};

/// An interned stack: the index of its row in the [`PathTable`] it was
/// opened under.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PathId(u32);

impl PathId {
    /// The empty stack: row 0 of every table, parent of the top-level
    /// frames and of itself.
    pub const ROOT: PathId = PathId(0);

    /// The row index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// The calling-context tree of one session (or one batch shard): every
/// distinct stack seen so far, as `(parent stack, innermost address)`.
/// Rows are only ever appended, parent before child, so an id stays valid
/// for the table's life and `parent(id) < id` for every id but the root's.
///
/// Every stack also remembers the last child it was asked for — its key
/// and id — and [`PathTable::child`] checks that hint before the map: a
/// loop that calls the same callee again, the common case, costs a
/// compare. The map, keyed with the default (SipHash) hasher, stays the
/// fallback for every miss.
#[derive(Debug, Clone)]
pub struct PathTable {
    index: HashMap<(PathId, u64), PathId>,
    nodes: Vec<Node>,
}

/// One row of a [`PathTable`]: the stack's `(parent, key)`, and the hint
/// of its last child lookup (`hint_child` is [`PathId::ROOT`] until the
/// first: the root is no stack's child).
#[derive(Debug, Clone, Copy)]
struct Node {
    parent: PathId,
    key: u64,
    hint_key: u64,
    hint_child: PathId,
}

impl Node {
    fn new(parent: PathId, key: u64) -> Node {
        Node {
            parent,
            key,
            hint_key: 0,
            hint_child: PathId::ROOT,
        }
    }
}

impl Default for PathTable {
    fn default() -> PathTable {
        PathTable {
            index: HashMap::new(),
            nodes: vec![Node::new(PathId::ROOT, u64::MAX)],
        }
    }
}

impl PathTable {
    /// A table holding the empty stack only.
    pub fn new() -> PathTable {
        PathTable::default()
    }

    /// The stack `parent` extended by a frame at `key`, interned on first
    /// sight. `key` is an address in a session's table and a name id in a
    /// name-space one.
    #[inline]
    pub fn child(&mut self, parent: PathId, key: u64) -> PathId {
        let node = &self.nodes[parent.index()];
        if node.hint_key == key && node.hint_child != PathId::ROOT {
            return node.hint_child;
        }
        self.child_past_hint(parent, key)
    }

    /// [`PathTable::child`] when the hint misses: the map, and the hint
    /// set to the answer. Kept out of line, so the hinted lookup inlines
    /// into the walk.
    #[inline(never)]
    fn child_past_hint(&mut self, parent: PathId, key: u64) -> PathId {
        let next = PathId(u32::try_from(self.nodes.len()).expect("fewer than 2^32 stacks"));
        let id = *self.index.entry((parent, key)).or_insert(next);
        if id == next {
            self.nodes.push(Node::new(parent, key));
        }
        let node = &mut self.nodes[parent.index()];
        (node.hint_key, node.hint_child) = (key, id);
        id
    }

    /// The stack below `id`'s innermost frame ([`PathId::ROOT`] for a
    /// top-level frame).
    pub fn parent(&self, id: PathId) -> PathId {
        self.nodes[id.index()].parent
    }

    /// The key of `id`'s innermost frame (`u64::MAX` for the root).
    pub fn key(&self, id: PathId) -> u64 {
        self.nodes[id.index()].key
    }

    /// Every stack but the empty one as `(id, parent, key)`, in id order:
    /// a row's parent comes before the row.
    pub fn rows(&self) -> impl Iterator<Item = (PathId, PathId, u64)> + '_ {
        self.rows_from(1)
    }

    /// [`PathTable::rows`] from id `first` on: the stacks interned since
    /// the table held `first` of them.
    pub(crate) fn rows_from(
        &self,
        first: usize,
    ) -> impl Iterator<Item = (PathId, PathId, u64)> + '_ {
        (first..self.nodes.len()).map(|i| {
            let node = &self.nodes[i];
            (PathId(i as u32), node.parent, node.key)
        })
    }

    /// Intern every stack of `other` here and return the translation,
    /// indexed by `other`'s ids. One pass: a row's parent is translated
    /// before the row is.
    pub fn adopt(&mut self, other: &PathTable) -> Vec<PathId> {
        let mut translation = vec![PathId::ROOT];
        for (_, parent, key) in other.rows() {
            translation.push(self.child(translation[parent.index()], key));
        }
        translation
    }
}

/// One closed call as the walk hands it on: a fixed-size record, copied
/// to its consumer's sink the moment the call closes. Its stack is
/// `path`, interned in the table the walk was fed under; whoever needs
/// the addresses spells them from that table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClosedCall {
    /// The call's stack, ending with this call's own frame.
    pub path: PathId,
    /// Function entry address (runtime).
    pub addr: u64,
    /// Counter at entry.
    pub enter: u64,
    /// Counter at exit (or the forced close).
    pub exit: u64,
    /// Ticks spent in callees.
    pub child_ticks: u64,
    /// Whether the call was force-closed: by a return that unwound past
    /// it, or at the end of the log.
    pub truncated: bool,
}

impl ClosedCall {
    /// Total ticks between entry and exit.
    #[inline]
    pub fn inclusive(&self) -> u64 {
        self.exit.saturating_sub(self.enter)
    }

    /// Ticks spent in the method itself, callees subtracted.
    #[inline]
    pub fn exclusive(&self) -> u64 {
        self.inclusive().saturating_sub(self.child_ticks)
    }
}

/// One completed (or force-closed) call with its own copy of its stack:
/// what [`reconstruct`] collects.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompletedCall {
    /// Function entry address (runtime).
    pub addr: u64,
    /// [`PathId::ROOT`]: [`reconstruct`] keeps no table, so its calls are
    /// read through `stack`.
    pub path: PathId,
    /// Full stack at the time of the call, outermost first, ending with
    /// this call's own address.
    pub stack: Vec<u64>,
    /// Counter at entry.
    pub enter: u64,
    /// Counter at exit (or the forced close).
    pub exit: u64,
    /// Ticks spent in callees.
    pub child_ticks: u64,
    /// Whether the call was force-closed due to log truncation.
    pub truncated: bool,
}

impl CompletedCall {
    /// `call` with its stack, outermost first, ending with `call.addr`.
    pub fn new(call: ClosedCall, stack: Vec<u64>) -> CompletedCall {
        let ClosedCall {
            path,
            addr,
            enter,
            exit,
            child_ticks,
            truncated,
        } = call;
        CompletedCall {
            addr,
            path,
            stack,
            enter,
            exit,
            child_ticks,
            truncated,
        }
    }

    /// The call without its stack.
    fn closed(&self) -> ClosedCall {
        ClosedCall {
            path: self.path,
            addr: self.addr,
            enter: self.enter,
            exit: self.exit,
            child_ticks: self.child_ticks,
            truncated: self.truncated,
        }
    }

    /// Total ticks between entry and exit.
    pub fn inclusive(&self) -> u64 {
        self.closed().inclusive()
    }

    /// Ticks spent in the method itself, callees subtracted.
    pub fn exclusive(&self) -> u64 {
        self.closed().exclusive()
    }

    /// Stack depth (1 = top-level call).
    pub fn depth(&self) -> usize {
        self.stack.len()
    }
}

/// One thread's reconstruction, collected: what [`reconstruct`] returns.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ThreadStacks {
    /// Completed calls in completion order.
    pub calls: Vec<CompletedCall>,
    /// Returns with no matching call.
    pub orphan_returns: u64,
    /// Frames force-closed at the end of the log.
    pub truncated_frames: u64,
}

/// What the stack walk reads of an event: call or return, its counter
/// and its address. A grouped [`Event`] is one, and so is a [`LogEntry`]
/// as drained, so a consumer that has a thread's entries in a row walks
/// them where they lie.
pub trait StackEvent {
    /// `(kind, counter, addr)`.
    fn step(&self) -> (EventKind, u64, u64);
}

impl StackEvent for Event {
    fn step(&self) -> (EventKind, u64, u64) {
        (self.kind, self.counter, self.addr)
    }
}

impl StackEvent for LogEntry {
    #[inline]
    fn step(&self) -> (EventKind, u64, u64) {
        (self.kind, self.counter, self.addr)
    }
}

/// A call whose return has not arrived: its stack, its address, and the
/// ticks its closed callees took so far.
#[derive(Debug, Clone, Copy)]
struct OpenFrame {
    path: PathId,
    addr: u64,
    enter: u64,
    child_ticks: u64,
}

/// Resumable reconstruction state for one thread: one vector of open
/// frames, outermost first, and the last observed counter, carried across
/// event batches, so a streaming consumer (the live drainer) can feed each
/// epoch's events as they arrive and still close a call whose return
/// lands epochs after its call.
///
/// A completed call goes to the caller's `sink` the moment it closes, as a
/// [`ClosedCall`] by value: a consumer that adds the call to a table costs
/// no allocation per call, and one that needs the call's addresses spells
/// them from its `path`.
#[derive(Debug, Default)]
pub struct ResumableStacks {
    open: Vec<OpenFrame>,
    /// Highest counter value observed so far: where `finish` closes the
    /// frames still open.
    last_counter: u64,
}

impl ResumableStacks {
    /// Fresh state with no open frames.
    pub fn new() -> ResumableStacks {
        ResumableStacks::default()
    }

    /// Calls currently open (their returns have not arrived yet).
    pub fn open_frames(&self) -> usize {
        self.open.len()
    }

    /// Consume one batch of one thread's events, in its program order,
    /// handing each call it completes to `sink` in completion order, and
    /// return the orphan returns it contained. Open frames stay open. A
    /// call that opens is interned in `paths` — the same table on every
    /// feed of this state, and of every other thread whose calls meet in
    /// one aggregate.
    pub fn feed<E: StackEvent>(
        &mut self,
        paths: &mut PathTable,
        events: &[E],
        mut sink: impl FnMut(ClosedCall),
    ) -> u64 {
        self.walk(
            events,
            |parent, addr| paths.child(parent, addr),
            |call, _| sink(call),
        )
    }

    /// [`ResumableStacks::feed`], the stack a call opens named by `intern`
    /// and each closed call handed on with the open frames, its own the
    /// last of them.
    #[inline]
    fn walk<E: StackEvent>(
        &mut self,
        events: &[E],
        mut intern: impl FnMut(PathId, u64) -> PathId,
        mut sink: impl FnMut(ClosedCall, &[OpenFrame]),
    ) -> u64 {
        let mut orphan_returns = 0;
        for e in events {
            let (kind, counter, addr) = e.step();
            self.last_counter = self.last_counter.max(counter);
            match kind {
                EventKind::Call => {
                    let parent = self.open.last().map_or(PathId::ROOT, |f| f.path);
                    self.open.push(OpenFrame {
                        path: intern(parent, addr),
                        addr,
                        enter: counter,
                        child_ticks: 0,
                    });
                }
                EventKind::Return => {
                    // Normally the top frame matches. If it does not
                    // (dropped entries), unwind to the closest matching
                    // frame; frames popped on the way are closed at this
                    // counter, as truncated.
                    let Some(at) = self.open.iter().rposition(|f| f.addr == addr) else {
                        orphan_returns += 1;
                        continue;
                    };
                    while self.open.len() > at {
                        let truncated = self.open.len() > at + 1;
                        self.close_top(counter, truncated, &mut sink);
                    }
                }
            }
        }
        orphan_returns
    }

    /// Force-close everything still open at the last observed counter
    /// (end of the log, or of the live session); every call it hands to
    /// `sink` is `truncated`. The state is reusable — after `finish` it
    /// has no open frames.
    pub fn finish(&mut self, mut sink: impl FnMut(ClosedCall)) {
        self.close_all(&mut |call, _: &[OpenFrame]| sink(call));
    }

    fn close_all(&mut self, sink: &mut impl FnMut(ClosedCall, &[OpenFrame])) {
        while !self.open.is_empty() {
            self.close_top(self.last_counter, true, sink);
        }
    }

    /// Close the top frame at `counter`: hand it on while it is still the
    /// top of the open frames, then pop it and charge its parent.
    #[inline]
    fn close_top(
        &mut self,
        counter: u64,
        truncated: bool,
        sink: &mut impl FnMut(ClosedCall, &[OpenFrame]),
    ) {
        let frame = *self.open.last().expect("close_top requires an open frame");
        let call = ClosedCall {
            path: frame.path,
            addr: frame.addr,
            enter: frame.enter,
            exit: counter,
            child_ticks: frame.child_ticks,
            truncated,
        };
        sink(call, &self.open);
        self.open.pop();
        if let Some(parent) = self.open.last_mut() {
            parent.child_ticks += call.inclusive();
        }
    }
}

/// Reconstruct the call stacks of one thread's event sequence, collecting
/// every completed call (each with its own copy of its stack, read off the
/// open frames as it closes: nothing is interned for a table nobody would
/// keep).
pub fn reconstruct(events: &[Event]) -> ThreadStacks {
    let mut state = ResumableStacks::new();
    let mut calls = Vec::new();
    let mut collect = |call: ClosedCall, open: &[OpenFrame]| {
        calls.push(CompletedCall::new(
            call,
            open.iter().map(|f| f.addr).collect(),
        ));
    };
    let orphan_returns = state.walk(events, |_, _| PathId::ROOT, &mut collect);
    state.close_all(&mut collect);
    ThreadStacks {
        truncated_frames: calls.iter().filter(|c| c.truncated).count() as u64,
        calls,
        orphan_returns,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn ev(kind: EventKind, counter: u64, addr: u64) -> Event {
        Event {
            kind,
            counter,
            addr,
            seq: 0,
        }
    }
    use EventKind::{Call, Return};

    #[test]
    fn simple_nesting() {
        // A(0..100) calls B(10..40): A exclusive = 70, B exclusive = 30.
        let calls = reconstruct(&[
            ev(Call, 0, 0xA),
            ev(Call, 10, 0xB),
            ev(Return, 40, 0xB),
            ev(Return, 100, 0xA),
        ]);
        assert_eq!(calls.orphan_returns, 0);
        assert_eq!(calls.truncated_frames, 0);
        let b = &calls.calls[0];
        assert_eq!(b.addr, 0xB);
        assert_eq!(b.inclusive(), 30);
        assert_eq!(b.exclusive(), 30);
        assert_eq!(b.stack, vec![0xA, 0xB]);
        let a = &calls.calls[1];
        assert_eq!(a.inclusive(), 100);
        assert_eq!(a.exclusive(), 70);
        assert_eq!(a.depth(), 1);
    }

    #[test]
    fn sibling_calls_accumulate_child_time() {
        let calls = reconstruct(&[
            ev(Call, 0, 0xA),
            ev(Call, 10, 0xB),
            ev(Return, 20, 0xB),
            ev(Call, 30, 0xB),
            ev(Return, 50, 0xB),
            ev(Return, 60, 0xA),
        ]);
        let a = calls.calls.last().unwrap();
        assert_eq!(a.inclusive(), 60);
        assert_eq!(a.child_ticks, 30);
        assert_eq!(a.exclusive(), 30);
    }

    #[test]
    fn recursion_distinguished_by_depth() {
        let calls = reconstruct(&[
            ev(Call, 0, 0xF),
            ev(Call, 10, 0xF),
            ev(Return, 20, 0xF),
            ev(Return, 40, 0xF),
        ]);
        assert_eq!(calls.calls.len(), 2);
        assert_eq!(calls.calls[0].depth(), 2);
        assert_eq!(calls.calls[1].depth(), 1);
        assert_eq!(calls.calls[1].exclusive(), 30);
    }

    #[test]
    fn orphan_return_skipped() {
        let calls = reconstruct(&[
            ev(Return, 5, 0xDEAD),
            ev(Call, 10, 0xA),
            ev(Return, 20, 0xA),
        ]);
        assert_eq!(calls.orphan_returns, 1);
        assert_eq!(calls.calls.len(), 1);
    }

    #[test]
    fn truncated_log_closes_frames_at_last_counter() {
        let calls = reconstruct(&[ev(Call, 0, 0xA), ev(Call, 10, 0xB), ev(Return, 30, 0xB)]);
        assert_eq!(calls.truncated_frames, 1);
        let a = calls.calls.last().unwrap();
        assert!(a.truncated);
        assert_eq!(a.exit, 30);
    }

    #[test]
    fn mismatched_return_unwinds_to_match() {
        // B's return entry was dropped from a full log: A's return arrives
        // while B is open. B must be closed (as truncated) and A completed.
        let calls = reconstruct(&[ev(Call, 0, 0xA), ev(Call, 10, 0xB), ev(Return, 50, 0xA)]);
        assert_eq!(calls.truncated_frames, 1);
        assert_eq!(calls.calls.len(), 2);
        assert_eq!(calls.calls[0].addr, 0xB);
        assert!(calls.calls[0].truncated);
        assert_eq!(calls.calls[1].addr, 0xA);
        assert!(!calls.calls[1].truncated);
    }

    /// Generate a random well-nested trace and check global invariants.
    fn arbitrary_trace() -> impl Strategy<Value = Vec<Event>> {
        // A sequence of pushes/pops encoded as a random walk.
        proptest::collection::vec((0u64..6, any::<bool>()), 1..200).prop_map(|ops| {
            let mut events = Vec::new();
            let mut stack: Vec<u64> = Vec::new();
            let mut counter = 0u64;
            for (addr, push) in ops {
                counter += 1 + addr; // strictly increasing, irregular steps
                if push || stack.is_empty() {
                    stack.push(addr);
                    events.push(ev(Call, counter, addr));
                } else {
                    let a = stack.pop().expect("nonempty");
                    events.push(ev(Return, counter, a));
                }
            }
            while let Some(a) = stack.pop() {
                counter += 1;
                events.push(ev(Return, counter, a));
            }
            events
        })
    }

    /// Any call/return sequence at all: returns may name a frame that is
    /// not on top (an unwind) or not open (an orphan), frames may stay open.
    fn unbalanced_trace() -> impl Strategy<Value = Vec<Event>> {
        proptest::collection::vec((0u64..5, any::<bool>(), 0u64..4), 0..120).prop_map(|ops| {
            let mut counter = 0u64;
            ops.into_iter()
                .map(|(addr, call, gap)| {
                    counter += gap; // non-decreasing: equal counters happen
                    ev(if call { Call } else { Return }, counter, addr)
                })
                .collect()
        })
    }

    /// The reconstruction written the obvious way — one frame list, every
    /// closed call given its own copy of the stack — as the reference the
    /// streaming machine is held to.
    fn model(events: &[Event]) -> ThreadStacks {
        let mut out = ThreadStacks::default();
        let mut open: Vec<(u64, u64, u64)> = Vec::new(); // (addr, enter, child_ticks)
        let mut last = 0u64;
        // Stacks numbered in order of first appearance, found by search.
        let mut seen: Vec<Vec<u64>> = vec![Vec::new()];
        type Open = Vec<(u64, u64, u64)>;
        let mut close = |open: &mut Open, seen: &[Vec<u64>], exit: u64, truncated: bool| {
            let stack: Vec<u64> = open.iter().map(|f| f.0).collect();
            let (addr, enter, child_ticks) = open.pop().expect("an open frame");
            if let Some(parent) = open.last_mut() {
                parent.2 += exit.saturating_sub(enter);
            }
            out.truncated_frames += u64::from(truncated);
            let path = seen.iter().position(|s| *s == stack).expect("opened");
            out.calls.push(CompletedCall {
                addr,
                path: PathId(path as u32),
                stack,
                enter,
                exit,
                child_ticks,
                truncated,
            });
        };
        for e in events {
            last = last.max(e.counter);
            if e.kind == Call {
                open.push((e.addr, e.counter, 0));
                let stack: Vec<u64> = open.iter().map(|f| f.0).collect();
                if !seen.contains(&stack) {
                    seen.push(stack);
                }
            } else if let Some(pos) = open.iter().rposition(|f| f.0 == e.addr) {
                while open.len() > pos + 1 {
                    close(&mut open, &seen, e.counter, true);
                }
                close(&mut open, &seen, e.counter, false);
            } else {
                out.orphan_returns += 1;
            }
        }
        while !open.is_empty() {
            close(&mut open, &seen, last, true);
        }
        out
    }

    proptest! {
        #[test]
        fn prop_calls_seen_while_streaming_equal_the_reference(
            balanced in arbitrary_trace(),
            unbalanced in unbalanced_trace(),
            cuts in proptest::collection::vec(0usize..1_000, 0..5),
        ) {
            // Whatever the chunking, a consumer sees the calls of the
            // reference in its order, field for field (the stack spelled
            // from the call's path), and
            // the same anomaly counts — and `reconstruct` collects the same.
            for trace in [balanced, unbalanced] {
                let want = model(&trace);
                let mut unnamed = want.clone();
                unnamed.calls.iter_mut().for_each(|c| c.path = PathId::ROOT);
                prop_assert_eq!(&reconstruct(&trace), &unnamed);
                let mut points: Vec<usize> =
                    cuts.iter().map(|c| c % (trace.len() + 1)).collect();
                points.push(trace.len());
                points.sort_unstable();
                let (mut state, mut paths) = (ResumableStacks::new(), PathTable::new());
                let (mut seen, mut orphans, mut prev) = (Vec::new(), 0u64, 0usize);
                for p in points {
                    orphans += state.feed(&mut paths, &trace[prev..p], |call| seen.push(call));
                    prev = p;
                }
                state.finish(|call| seen.push(call));
                prop_assert_eq!(state.open_frames(), 0);
                prop_assert_eq!(orphans, want.orphan_returns);
                let truncated = seen.iter().filter(|c| c.truncated).count() as u64;
                prop_assert_eq!(truncated, want.truncated_frames);
                // A call's path, walked to the root, spells its stack.
                let mut spelled_calls = Vec::new();
                for call in &seen {
                    let mut spelled = Vec::new();
                    let mut id = call.path;
                    while id != PathId::ROOT {
                        prop_assert!(paths.parent(id) < id);
                        spelled.push(paths.key(id));
                        id = paths.parent(id);
                    }
                    spelled.reverse();
                    spelled_calls.push(CompletedCall::new(*call, spelled));
                }
                prop_assert_eq!(&spelled_calls, &want.calls);
            }
        }

        #[test]
        fn prop_adopting_a_table_translates_every_stack(
            ours in unbalanced_trace(),
            theirs in unbalanced_trace(),
        ) {
            let spell = |paths: &PathTable, mut id: PathId| {
                let mut stack = Vec::new();
                while id != PathId::ROOT {
                    stack.push(paths.key(id));
                    id = paths.parent(id);
                }
                stack
            };
            let (mut a, mut b) = (PathTable::new(), PathTable::new());
            ResumableStacks::new().feed(&mut a, &ours, |_| {});
            ResumableStacks::new().feed(&mut b, &theirs, |_| {});
            let before = a.clone();
            let translation = a.adopt(&b);
            prop_assert_eq!(translation.len(), b.rows().count() + 1);
            for (id, _, _) in b.rows() {
                prop_assert_eq!(spell(&a, translation[id.index()]), spell(&b, id));
            }
            // Ids handed out before stay what they were, and adopting
            // again adds nothing.
            for (id, _, _) in before.rows() {
                prop_assert_eq!(spell(&a, id), spell(&before, id));
            }
            let stacks = a.rows().count();
            prop_assert_eq!(a.adopt(&b), translation);
            prop_assert_eq!(a.rows().count(), stacks);
        }

        #[test]
        fn prop_hinted_lookups_return_what_a_plain_map_does(
            lookups in proptest::collection::vec(
                (any::<usize>(), any::<bool>(), any::<u64>()),
                0..300,
            ),
        ) {
            // Parents are ids already issued, keys a small alphabet (hits,
            // parents with several children, alternating parents) or a
            // large one (misses). The hint must never change an answer.
            let mut paths = PathTable::new();
            let mut index: HashMap<(PathId, u64), PathId> = HashMap::new();
            let mut rows: Vec<(PathId, PathId, u64)> = Vec::new();
            for (pick, small, key) in lookups {
                let key = if small { key % 3 } else { key };
                let parent = PathId((pick % (rows.len() + 1)) as u32);
                let fresh = PathId(rows.len() as u32 + 1);
                let want = *index.entry((parent, key)).or_insert(fresh);
                if want == fresh {
                    rows.push((fresh, parent, key));
                }
                prop_assert_eq!(paths.child(parent, key), want);
            }
            prop_assert!(paths.rows().eq(rows.iter().copied()));
        }

        #[test]
        fn prop_balanced_traces_reconstruct_cleanly(trace in arbitrary_trace()) {
            let result = reconstruct(&trace);
            prop_assert_eq!(result.orphan_returns, 0);
            prop_assert_eq!(result.truncated_frames, 0);
            let n_calls = trace.iter().filter(|e| e.kind == Call).count();
            prop_assert_eq!(result.calls.len(), n_calls);
            for c in &result.calls {
                // exclusive + child == inclusive, and stacks end with self.
                prop_assert_eq!(c.exclusive() + c.child_ticks, c.inclusive());
                prop_assert_eq!(*c.stack.last().unwrap(), c.addr);
            }
        }

        #[test]
        fn prop_total_exclusive_equals_root_inclusive(trace in arbitrary_trace()) {
            let result = reconstruct(&trace);
            // Sum of exclusive over all calls == sum of inclusive over
            // top-level calls (time is partitioned exactly once).
            let total_exclusive: u64 = result.calls.iter().map(|c| c.exclusive()).sum();
            let root_inclusive: u64 = result
                .calls
                .iter()
                .filter(|c| c.depth() == 1)
                .map(|c| c.inclusive())
                .sum();
            prop_assert_eq!(total_exclusive, root_inclusive);
        }
    }
}
