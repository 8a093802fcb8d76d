//! The load generator is a pure function of its seed, and the number of
//! distinct stacks is a property of the tree, not of the seed.

use std::collections::BTreeSet;

use teeperf_benchmark::gen::{session_entries, session_seed, SessionGen, Tree};
use teeperf_core::layout::{EventKind, LogEntry};

const TREE: Tree = Tree { fan: 4, depth: 4 };

fn bytes(entries: &[LogEntry]) -> Vec<u8> {
    entries
        .iter()
        .flat_map(|e| e.pack())
        .flat_map(u64::to_le_bytes)
        .collect()
}

/// The distinct call stacks in `entries`, as paths of addresses.
fn stacks(entries: &[LogEntry]) -> BTreeSet<Vec<u64>> {
    let mut seen = BTreeSet::new();
    let mut stack = Vec::new();
    for e in entries {
        match e.kind {
            EventKind::Call => {
                stack.push(e.addr);
                seen.insert(stack.clone());
            }
            EventKind::Return => {
                assert_eq!(stack.pop(), Some(e.addr), "a return matches the open call")
            }
        }
    }
    assert!(stack.is_empty(), "a finished session is balanced");
    seen
}

#[test]
fn tree_sizes_are_the_stated_stack_counts() {
    assert_eq!(Tree { fan: 1, depth: 2 }.nodes(), 3);
    assert_eq!(TREE.nodes(), 341);
    let debug = TREE.debug_info();
    let addrs = TREE.addrs(&debug);
    assert_eq!(addrs.len(), 341);
    assert_eq!(
        addrs.iter().collect::<BTreeSet<_>>().len(),
        341,
        "one address per node"
    );
}

#[test]
fn same_seed_gives_byte_identical_entries() {
    let addrs = TREE.addrs(&TREE.debug_info());
    let a = session_entries(TREE, &addrs, session_seed(7, 3), 100_000);
    let b = session_entries(TREE, &addrs, session_seed(7, 3), 100_000);
    assert_eq!(bytes(&a), bytes(&b));
}

#[test]
fn another_seed_gives_other_entries_over_the_same_stacks() {
    let addrs = TREE.addrs(&TREE.debug_info());
    let a = session_entries(TREE, &addrs, session_seed(1, 0), 100_000);
    let b = session_entries(TREE, &addrs, session_seed(2, 0), 100_000);
    assert_ne!(bytes(&a), bytes(&b));
    let (sa, sb) = (stacks(&a), stacks(&b));
    assert_eq!(sa.len(), 341, "100 000 steps reach every node");
    assert_eq!(sa, sb);
}

#[test]
fn counters_advance_one_to_eight_ticks_per_event() {
    let addrs = TREE.addrs(&TREE.debug_info());
    let entries = session_entries(TREE, &addrs, 42, 10_000);
    assert!(entries[0].counter >= 1);
    for pair in entries.windows(2) {
        let step = pair[1].counter - pair[0].counter;
        assert!((1..=8).contains(&step), "step {step}");
    }
}

#[test]
fn a_targeted_session_ends_balanced_on_exactly_its_target() {
    let tree = Tree { fan: 1, depth: 2 };
    let addrs = tree.addrs(&tree.debug_info());
    let mut gen = SessionGen::new(tree, 9).with_target(1 << 12);
    let mut entries = Vec::new();
    while let Some(e) = gen.next(&addrs) {
        entries.push(e);
    }
    assert_eq!(entries.len(), 1 << 12);
    assert_eq!(gen.emitted(), 1 << 12);
    assert_eq!(stacks(&entries).len(), 3);
    // The oracle regenerates the session from its seed and walk length.
    assert_eq!(
        bytes(&session_entries(tree, &addrs, 9, gen.walked())),
        bytes(&entries)
    );
}

#[test]
fn closing_a_session_leaves_only_the_unwinding_returns() {
    let addrs = TREE.addrs(&TREE.debug_info());
    let mut gen = SessionGen::new(TREE, 5);
    let mut entries: Vec<LogEntry> = (0..1001).map(|_| gen.next(&addrs).unwrap()).collect();
    gen.close();
    let mut tail = Vec::new();
    while let Some(e) = gen.next(&addrs) {
        tail.push(e);
    }
    assert!(tail.len() <= TREE.depth as usize + 1);
    assert!(tail.iter().all(|e| e.kind == EventKind::Return));
    entries.extend(tail);
    stacks(&entries);
    assert_eq!(
        bytes(&session_entries(TREE, &addrs, 5, 1001)),
        bytes(&entries)
    );
}
