//! Property tests for the retention ring's exactness identities — the
//! invariant the windowed query engine is built on:
//!
//! * **whole-session**: retained windows ⊕ evicted remainder equals the
//!   aggregate of every completed call, exactly;
//! * **span**: merging any contiguous span of retained windows equals
//!   analyzing that span's calls directly (filter by exit window, then
//!   aggregate — same bytes either way);
//! * **retention points**: which window a call lands in, which slots are
//!   coarsened or evicted and in what order equal a reference ring that
//!   regroups each pump's calls, across all threads, by window and
//!   enforces retention once after it.
//!
//! The traces are adversarial on purpose: random call/return walks over
//! several threads with irregular counter gaps, fed in random chunk sizes
//! so calls open in one batch and close windows later, against rings small
//! enough to coarsen and evict constantly. The regrouping test also merges
//! its threads' entries out of counter order, so a batch completes calls
//! out of exit order and only a ring that enforces retention after the
//! whole pump matches the reference.

use std::collections::BTreeMap;

use proptest::prelude::*;
use teeperf_analyzer::reader::Event;
use teeperf_analyzer::symbolize::Symbolizer;
use teeperf_analyzer::{
    Aggregates, CompletedCall, PathTable, Profile, ProfileMerge, ResumableStacks,
};
use teeperf_core::layout::{EventKind, LogEntry};
use teeperf_core::log::make_header;
use teeperf_live::window::{WindowMeta, WindowSel};
use teeperf_live::{RingConfig, RingEvent, RollingProfile};

/// One step of a random call-tree walk.
#[derive(Debug, Clone)]
struct Step {
    push: bool,
    gap: u64,
    func: usize,
}

const FUNCS: usize = 4;

fn steps() -> impl Strategy<Value = Vec<Step>> {
    proptest::collection::vec(
        (any::<bool>(), 1u64..25, 0usize..FUNCS).prop_map(|(push, gap, func)| Step {
            push,
            gap,
            func,
        }),
        1..120,
    )
}

fn debug() -> mcvm::DebugInfo {
    mcvm::DebugInfo::from_functions([
        ("alpha", 4, 1),
        ("beta", 4, 5),
        ("gamma", 4, 9),
        ("delta", 4, 13),
    ])
}

fn symbolizer() -> Symbolizer {
    Symbolizer::new(debug(), &make_header(1, 64, true, 0, 0))
}

/// Realize one thread's walk as log entries: pushes call a random
/// function, pops return the innermost open frame, counters are strictly
/// increasing with irregular gaps. Frames still open at the end stay open
/// — the session's `finish` force-closes them, exercising calls that span
/// many window boundaries.
fn trace_entries(tid: u64, steps: &[Step]) -> Vec<LogEntry> {
    let addrs: Vec<u64> = (0..FUNCS).map(|i| debug().entry_addr(i as u16)).collect();
    let mut counter = 0u64;
    let mut stack: Vec<u64> = Vec::new();
    let mut out = Vec::new();
    for s in steps {
        counter += s.gap;
        let push = if stack.is_empty() {
            true
        } else if stack.len() >= 12 {
            false
        } else {
            s.push
        };
        if push {
            let addr = addrs[s.func];
            stack.push(addr);
            out.push(LogEntry {
                kind: EventKind::Call,
                counter,
                addr,
                tid,
            });
        } else {
            let addr = stack.pop().expect("non-empty checked above");
            out.push(LogEntry {
                kind: EventKind::Return,
                counter,
                addr,
                tid,
            });
        }
    }
    out
}

/// Merge the threads' entries in the order `picks` draws them: each pick
/// takes the next entry of one thread that has entries left. A thread's
/// own entries keep their counter order, but across threads a later
/// counter may come first, as when one thread's writes lag another's.
fn interleave(threads: &[Vec<LogEntry>], picks: &[usize]) -> Vec<LogEntry> {
    let mut next = vec![0; threads.len()];
    let total: usize = threads.iter().map(Vec::len).sum();
    let mut out = Vec::with_capacity(total);
    for pick in picks.iter().cycle().take(total) {
        let left: Vec<usize> = (0..threads.len())
            .filter(|t| next[*t] < threads[*t].len())
            .collect();
        let t = left[pick % left.len()];
        out.push(threads[t][next[t]]);
        next[t] += 1;
    }
    out
}

/// Ground truth, computed without the ring: reconstruct each thread's
/// completed calls directly (open frames force-closed, as the session's
/// `finish` does), every thread's stacks interned in `paths`.
fn direct_calls(
    paths: &mut PathTable,
    per_tid: &BTreeMap<u64, Vec<LogEntry>>,
) -> BTreeMap<u64, Vec<CompletedCall>> {
    let mut out = BTreeMap::new();
    for (tid, entries) in per_tid {
        let events: Vec<Event> = entries
            .iter()
            .enumerate()
            .map(|(i, e)| Event {
                kind: e.kind,
                counter: e.counter,
                addr: e.addr,
                seq: i as u64 + 1,
            })
            .collect();
        let mut stacks = ResumableStacks::new();
        let mut calls = completed(&mut stacks, paths, &events);
        calls.extend(force_closed(&mut stacks));
        out.insert(*tid, calls);
    }
    out
}

/// Aggregate a set of completed calls and read it exactly the way a window
/// span is read: the thread set from the calls themselves, anomalies zero
/// (session-scoped by design).
fn materialize_calls(
    per_tid: &BTreeMap<u64, Vec<CompletedCall>>,
    paths: &PathTable,
    sym: &Symbolizer,
) -> Profile {
    let mut agg = Aggregates::new();
    for (tid, calls) in per_tid {
        for call in calls {
            agg.add_call(*tid, call, 1);
        }
    }
    materialize_agg(&agg, paths, sym)
}

/// `agg` over `paths` read as process 1's: a merge of one process.
fn materialize_agg(agg: &Aggregates, paths: &PathTable, sym: &Symbolizer) -> Profile {
    ProfileMerge::one_process(1, agg, paths, sym)
}

/// The calls `events` complete on `stacks`, in completion order.
fn completed(
    stacks: &mut ResumableStacks,
    paths: &mut PathTable,
    events: &[Event],
) -> Vec<CompletedCall> {
    let mut calls = Vec::new();
    stacks.feed(paths, events, |call| calls.push(call.clone()));
    calls
}

/// The calls force-closing `stacks` completes.
fn force_closed(stacks: &mut ResumableStacks) -> Vec<CompletedCall> {
    let mut calls = Vec::new();
    stacks.finish(|call| calls.push(call.clone()));
    calls
}

/// A call a reference slot holds: `(tid, call, scale)`.
type Member = (u64, CompletedCall, u64);

fn materialize_members(members: &[Member], paths: &PathTable, sym: &Symbolizer) -> Profile {
    let mut agg = Aggregates::new();
    for (tid, call, scale) in members {
        agg.add_call(*tid, call, *scale);
    }
    materialize_agg(&agg, paths, sym)
}

#[derive(Debug, Default)]
struct ModelSlot {
    first: u64,
    last: u64,
    calls: u64,
    estimated_calls: u64,
    members: Vec<Member>,
}

/// The retention ring written as a list of the calls each slot holds:
/// the calls a pump (or the finish) completes, on every thread, are
/// regrouped by exit window (ascending), each group goes to its slot — or
/// to the remainder when its window is below the floor *as the pump
/// began* — and retention is enforced once, after the pump.
#[derive(Debug, Default)]
struct ModelRing {
    interval: u64,
    capacity: usize,
    max_width: u64,
    slots: Vec<ModelSlot>,
    evicted: Vec<Member>,
    evicted_calls: u64,
    evicted_windows: u64,
    floor: u64,
    events: Vec<RingEvent>,
}

impl ModelRing {
    fn absorb(&mut self, pump: &[(u64, CompletedCall)], scale: u64) {
        let mut grouped: BTreeMap<u64, Vec<&(u64, CompletedCall)>> = BTreeMap::new();
        for member in pump {
            grouped
                .entry(member.1.exit / self.interval)
                .or_default()
                .push(member);
        }
        for (idx, calls) in grouped {
            let n = scale * calls.len() as u64;
            let members = calls.into_iter().map(|(tid, c)| (*tid, c.clone(), scale));
            if idx < self.floor {
                self.evicted.extend(members);
                self.evicted_calls += n;
                continue;
            }
            let pos = self.slots.partition_point(|s| s.last < idx);
            if self.slots.get(pos).is_none_or(|s| s.first > idx) {
                let fresh = ModelSlot {
                    first: idx,
                    last: idx,
                    ..ModelSlot::default()
                };
                self.slots.insert(pos, fresh);
            }
            let slot = &mut self.slots[pos];
            slot.members.extend(members);
            slot.calls += n;
            if scale > 1 {
                slot.estimated_calls += n;
            }
        }
        while self.slots.len() > self.capacity {
            let old = self.slots.remove(0);
            let fits = self
                .slots
                .first()
                .is_some_and(|next| next.last - old.first < self.max_width);
            if fits {
                let merged = &mut self.slots[0];
                merged.first = old.first;
                merged.calls += old.calls;
                merged.estimated_calls += old.estimated_calls;
                merged.members.extend(old.members);
                let (first, last) = (merged.first, merged.last);
                self.events.push(RingEvent::Coarsened { first, last });
            } else {
                self.floor = old.last + 1;
                self.evicted_calls += old.calls;
                self.evicted_windows += old.last - old.first + 1;
                self.events.push(RingEvent::Evicted {
                    first: old.first,
                    last: old.last,
                    calls: old.calls,
                });
                self.evicted.extend(old.members);
            }
        }
    }

    fn windows(&self) -> Vec<WindowMeta> {
        self.slots
            .iter()
            .map(|s| WindowMeta {
                first: s.first,
                last: s.last,
                start_tick: s.first * self.interval,
                end_tick: (s.last + 1) * self.interval - 1,
                calls: s.calls,
                estimated_calls: s.estimated_calls,
            })
            .collect()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn prop_ring_reconciles_and_spans_are_exact(
        walks in proptest::collection::vec(steps(), 1..4),
        interval in 1u64..60,
        capacity in 1usize..8,
        max_width in 1u64..4,
        chunk in 1usize..17,
        idx_a in 0usize..64,
        idx_b in 0usize..64,
    ) {
        let per_tid: BTreeMap<u64, Vec<LogEntry>> = walks
            .iter()
            .enumerate()
            .map(|(tid, steps)| (tid as u64, trace_entries(tid as u64, steps)))
            .collect();
        // One merged stream in counter order — per-thread order (all the
        // reconstruction needs) survives because counters are strictly
        // increasing within a thread.
        let mut stream: Vec<LogEntry> = per_tid.values().flatten().cloned().collect();
        stream.sort_by_key(|e| (e.counter, e.tid));

        let config = RingConfig { interval, capacity, max_width };
        let mut rolling = RollingProfile::with_retention(Some(&config));
        for batch in stream.chunks(chunk) {
            rolling.ingest(batch);
        }
        rolling.finish();
        let ring = rolling.ring().expect("retention is enabled");
        let sym = symbolizer();

        // Whole-session identity: retained ⊕ remainder == every completed
        // call, aggregated directly. Exact equality, not approximation.
        let mut paths = PathTable::new();
        let truth = direct_calls(&mut paths, &per_tid);
        let whole_direct = materialize_calls(&truth, &paths, &sym);
        let whole_ring = materialize_agg(&ring.reconstruct(), rolling.paths(), &sym);
        prop_assert_eq!(&whole_ring, &whole_direct);

        // Call conservation: every completed call is either in a retained
        // window or accounted in the evicted remainder.
        let total_calls: u64 = truth.values().map(|c| c.len() as u64).sum();
        let metas = ring.windows();
        let retained_calls: u64 = metas.iter().map(|w| w.calls).sum();
        prop_assert_eq!(retained_calls + ring.evicted_calls(), total_calls);
        prop_assert!(metas.len() <= capacity.max(1));

        // Span identity: any contiguous run of retained slots merges to
        // exactly the aggregate of the calls exiting in those windows.
        if !metas.is_empty() {
            let (mut lo, mut hi) = (idx_a % metas.len(), idx_b % metas.len());
            if lo > hi {
                std::mem::swap(&mut lo, &mut hi);
            }
            let sel = WindowSel::Range(metas[lo].first, metas[hi].last);
            let (span, span_agg) = ring.span(&sel).expect("the span covers retained slots");
            prop_assert_eq!(span.first, metas[lo].first);
            prop_assert_eq!(span.last, metas[hi].last);

            let filtered: BTreeMap<u64, Vec<CompletedCall>> = truth
                .iter()
                .map(|(tid, calls)| {
                    let keep: Vec<CompletedCall> = calls
                        .iter()
                        .filter(|c| {
                            let w = c.exit / interval;
                            (metas[lo].first..=metas[hi].last).contains(&w)
                        })
                        .cloned()
                        .collect();
                    (*tid, keep)
                })
                .collect();
            let span_calls: u64 = filtered.values().map(|c| c.len() as u64).sum();
            prop_assert_eq!(span.calls, span_calls);
            let span_direct = materialize_calls(&filtered, &paths, &sym);
            prop_assert_eq!(&materialize_agg(&span_agg, rolling.paths(), &sym), &span_direct);

            // A single slot, a bucket however wide, obeys the same
            // identity.
            let (one, one_agg) = ring
                .span(&WindowSel::Range(metas[lo].first, metas[lo].last))
                .expect("slot is retained");
            prop_assert_eq!((one.first, one.last), (metas[lo].first, metas[lo].last));
            let one_filtered: BTreeMap<u64, Vec<CompletedCall>> = truth
                .iter()
                .map(|(tid, calls)| {
                    let keep: Vec<CompletedCall> = calls
                        .iter()
                        .filter(|c| (one.first..=one.last).contains(&(c.exit / interval)))
                        .cloned()
                        .collect();
                    (*tid, keep)
                })
                .collect();
            prop_assert_eq!(
                &materialize_agg(&one_agg, rolling.paths(), &sym),
                &materialize_calls(&one_filtered, &paths, &sym)
            );
        }
    }

    #[test]
    fn prop_ring_matches_a_per_batch_regrouping_reference(
        walks in proptest::collection::vec(steps(), 1..5),
        interval in 1u64..40,
        capacity in 1usize..5,
        max_width in 1u64..4,
        chunk in 1usize..25,
        scales in proptest::collection::vec(1u64..4, 1..6),
        holes in proptest::collection::vec(any::<usize>(), 0..6),
        picks in proptest::collection::vec(any::<usize>(), 1..64),
    ) {
        let threads: Vec<Vec<LogEntry>> = walks
            .iter()
            .enumerate()
            .map(|(tid, steps)| trace_entries(tid as u64, steps))
            .collect();
        let mut stream = interleave(&threads, &picks);
        // All-zero records (reserved, never written) anywhere in the
        // stream: dismissed and counted, never walked.
        for at in &holes {
            stream.insert(at % (stream.len() + 1), LogEntry::unpack([0, 0, 0]));
        }

        let config = RingConfig { interval, capacity, max_width };
        let mut rolling = RollingProfile::with_retention(Some(&config));
        let mut model = ModelRing { interval, capacity, max_width, ..ModelRing::default() };
        let mut stacks: BTreeMap<u64, ResumableStacks> = BTreeMap::new();
        let mut paths = PathTable::new();
        let mut events = Vec::new();
        let mut seq = 0u64;
        for (i, batch) in stream.chunks(chunk).enumerate() {
            // The regime may change between batches; a call scales by the
            // one it completes under.
            let scale = scales[i % scales.len()];
            rolling.set_scale(scale);
            rolling.ingest(batch);
            events.extend(rolling.take_ring_events());

            let mut per_tid: BTreeMap<u64, Vec<Event>> = BTreeMap::new();
            for e in batch.iter().filter(|e| **e != LogEntry::unpack([0, 0, 0])) {
                seq += 1;
                let event = Event { kind: e.kind, counter: e.counter, addr: e.addr, seq };
                per_tid.entry(e.tid).or_default().push(event);
            }
            let mut pump = Vec::new();
            for (tid, thread_events) in per_tid {
                let calls = completed(stacks.entry(tid).or_default(), &mut paths, &thread_events);
                pump.extend(calls.into_iter().map(|call| (tid, call)));
            }
            model.absorb(&pump, scale);
            prop_assert_eq!(rolling.windows().expect("retention is enabled"), model.windows());
        }
        rolling.finish();
        events.extend(rolling.take_ring_events());
        let mut closed = Vec::new();
        for (tid, thread) in &mut stacks {
            closed.extend(force_closed(thread).into_iter().map(|call| (*tid, call)));
        }
        model.absorb(&closed, rolling.scale());

        let ring = rolling.ring().expect("retention is enabled");
        prop_assert_eq!(ring.windows(), model.windows());
        prop_assert_eq!(rolling.events() + holes.len() as u64, stream.len() as u64);
        let anomalies = rolling.snapshot(&symbolizer(), 0).anomalies;
        prop_assert_eq!(anomalies.incomplete_entries, holes.len() as u64);
        prop_assert_eq!(anomalies.orphan_returns, 0);
        prop_assert_eq!(&events, &model.events);
        prop_assert_eq!(ring.evicted_calls(), model.evicted_calls);
        prop_assert_eq!(ring.evicted_windows(), model.evicted_windows);
        let sym = symbolizer();
        for slot in &model.slots {
            let (meta, agg) = ring
                .span(&WindowSel::Range(slot.first, slot.last))
                .expect("the reference retains this slot");
            prop_assert_eq!((meta.first, meta.last), (slot.first, slot.last));
            prop_assert_eq!(
                &materialize_agg(&agg, rolling.paths(), &sym),
                &materialize_members(&slot.members, &paths, &sym)
            );
        }
        let mut all: Vec<Member> = model.evicted.clone();
        all.extend(model.slots.iter().flat_map(|s| s.members.iter().cloned()));
        prop_assert_eq!(
            &materialize_agg(&ring.reconstruct(), rolling.paths(), &sym),
            &materialize_members(&all, &paths, &sym)
        );
    }
}
