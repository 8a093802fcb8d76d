//! The load generator's inputs: a deterministic walk over a static f-ary
//! call tree.
//!
//! A walk over a random *graph* creates unboundedly many distinct stacks
//! and turns every snapshot into seconds of work; walking a fixed tree
//! makes the number of distinct stacks (= nodes = methods) a stated
//! dimension of the workload.

use mcvm::DebugInfo;
use teeperf_core::layout::{EventKind, LogEntry};

/// SplitMix64: the whole generator state is one word, so a session's
/// stream is a pure function of its seed.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// Seed of session `index` of a run seeded with `seed`.
pub fn session_seed(seed: u64, index: u64) -> u64 {
    SplitMix64::new(seed ^ index.wrapping_mul(0xa076_1d64_78bd_642f)).next_u64()
}

/// A complete `fan`-ary tree of the given `depth` (the root is depth 0).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tree {
    pub fan: u32,
    pub depth: u32,
}

impl Tree {
    /// Node count = distinct stacks = methods.
    pub fn nodes(&self) -> u32 {
        (0..=self.depth).map(|d| self.fan.pow(d)).sum()
    }

    /// One function per node, `node_<id>` in heap order (the children of
    /// node `i` are `i·fan + 1 ..= i·fan + fan`).
    pub fn debug_info(&self) -> DebugInfo {
        let names: Vec<String> = (0..self.nodes()).map(|i| format!("node_{i}")).collect();
        DebugInfo::from_functions(names.iter().map(|n| (n.as_str(), 4, 1)))
    }

    /// Entry address of every node, indexed by node id.
    pub fn addrs(&self, debug: &DebugInfo) -> Vec<u64> {
        (0..self.nodes())
            .map(|i| debug.entry_addr(u16::try_from(i).expect("tree fits the symbol table")))
            .collect()
    }
}

/// Out of 16: how often a node that may still call a child does so
/// instead of returning. Above one half, so deep nodes are visited.
const CALL_ODDS_OF_16: u64 = 10;

/// One session's event stream: a free walk, then (once closed) the
/// returns that unwind the stack, so every session ends balanced and the
/// daemon's view of it has no open frame.
#[derive(Debug, Clone)]
pub struct SessionGen {
    tree: Tree,
    rng: SplitMix64,
    /// Node ids, outermost first.
    stack: Vec<u32>,
    counter: u64,
    /// Events of the free walk so far; with the seed it determines the
    /// whole stream, which is how the oracle regenerates it.
    walked: u64,
    emitted: u64,
    /// Total events after which the session is over (`None`: open-ended).
    target: Option<u64>,
}

impl SessionGen {
    pub fn new(tree: Tree, seed: u64) -> SessionGen {
        SessionGen {
            tree,
            rng: SplitMix64::new(seed),
            stack: Vec::with_capacity(tree.depth as usize + 1),
            counter: 0,
            walked: 0,
            emitted: 0,
            target: None,
        }
    }

    /// End the session after exactly `events` events (even, so that the
    /// walk can end balanced).
    pub fn with_target(mut self, events: u64) -> SessionGen {
        assert!(
            events.is_multiple_of(2),
            "a balanced session has an even length"
        );
        self.target = Some(events);
        self
    }

    pub fn walked(&self) -> u64 {
        self.walked
    }

    pub fn emitted(&self) -> u64 {
        self.emitted
    }

    /// Stop walking: only the unwinding returns remain.
    pub fn close(&mut self) {
        self.target = Some(self.emitted + self.stack.len() as u64);
    }

    fn entry(&mut self, kind: EventKind, node: u32, addrs: &[u64]) -> LogEntry {
        self.counter += 1 + self.rng.next_u64() % 8;
        self.emitted += 1;
        LogEntry {
            kind,
            counter: self.counter,
            addr: addrs[node as usize],
            tid: 0,
        }
    }

    /// The next event, or `None` when the session is over. `emitted +
    /// stack depth` grows by 0 or 2 per step, so it meets an even target
    /// exactly and the unwind ends on it.
    pub fn next(&mut self, addrs: &[u64]) -> Option<LogEntry> {
        let unwinding = self
            .target
            .is_some_and(|t| self.emitted + self.stack.len() as u64 >= t);
        if unwinding {
            let node = self.stack.pop()?;
            return Some(self.entry(EventKind::Return, node, addrs));
        }
        self.walked += 1;
        let Some(&top) = self.stack.last() else {
            self.stack.push(0);
            return Some(self.entry(EventKind::Call, 0, addrs));
        };
        let may_call = (self.stack.len() as u32) <= self.tree.depth;
        if may_call && self.rng.next_u64() % 16 < CALL_ODDS_OF_16 {
            let child =
                top * self.tree.fan + 1 + (self.rng.next_u64() % u64::from(self.tree.fan)) as u32;
            self.stack.push(child);
            Some(self.entry(EventKind::Call, child, addrs))
        } else {
            self.stack.pop();
            Some(self.entry(EventKind::Return, top, addrs))
        }
    }
}

/// Regenerate a finished session: `walked` free steps, then the unwind.
pub fn session_entries(tree: Tree, addrs: &[u64], seed: u64, walked: u64) -> Vec<LogEntry> {
    let mut gen = SessionGen::new(tree, seed);
    let mut out = Vec::with_capacity(walked as usize + tree.depth as usize + 1);
    while gen.walked() < walked {
        out.push(gen.next(addrs).expect("an open-ended walk never ends"));
    }
    gen.close();
    while let Some(e) = gen.next(addrs) {
        out.push(e);
    }
    out
}
