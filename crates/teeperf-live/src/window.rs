//! Windowed retention: a ring of per-interval aggregates with time-decayed
//! coarsening.
//!
//! A [`RetentionRing`] slices the virtual clock (the cycle counters already
//! stamped on every event — the same clock epochs rotate on) into
//! fixed-width windows of [`RingConfig::interval`] ticks. Every completed
//! call is attributed to exactly one window by its **exit** counter
//! (`exit / interval`), and each window holds its own commutative
//! [`Aggregates`] — so merging any set of windows is *exact*: the merge of
//! a span equals analyzing that span's calls directly, and the merge of
//! everything (retained + evicted remainder) equals the whole-session
//! aggregate. That identity is what the window proptests pin. Every slot's
//! rows are indexed by the ids of the session's one
//! [`teeperf_analyzer::PathTable`] (the ring's owner holds it), so
//! coarsening, eviction, a span and [`RetentionRing::reconstruct`] are sums
//! by id: no stack is hashed, and the sum is translated to names once, by
//! whoever asked.
//!
//! Retention is bounded by [`RingConfig::capacity`] slots with time-decayed
//! coarsening: when the ring overflows, the two **oldest** adjacent slots
//! are merged into one wider bucket (recent history stays fine-grained,
//! old history gets coarser), until a bucket would exceed
//! [`RingConfig::max_width`] windows — then the oldest bucket is evicted
//! into the ring's *evicted remainder* aggregate, which keeps counting so
//! totals always reconcile. Both transitions are recorded as
//! [`RingEvent`]s; the owning session surfaces them in the snapshot's
//! `[events]` section so history loss is never silent. The ring enforces
//! retention when its owner says so, not per call, and that cadence is part
//! of the behaviour: it decides which window a late call still finds.
//!
//! Window boundaries derive **only** from the virtual clock: this module
//! is on the protocol lint's no-wall-clock list (`teeperf-lint`), so an
//! `Instant::now()` sneaking into boundary logic fails CI.

use teeperf_analyzer::profile::Aggregates;
use teeperf_analyzer::stacks::CompletedCall;

pub use teeperf_analyzer::query::windowed::WindowSel;

use crate::snapshot::walk_section;

/// Retention-ring tuning.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RingConfig {
    /// Virtual ticks per window (the window clock is the event counter,
    /// never wall time). Clamped to at least 1.
    pub interval: u64,
    /// Maximum retained slots (fine windows + coarse buckets combined).
    /// Clamped to at least 1.
    pub capacity: usize,
    /// Widest bucket (in windows) coarsening may build before the oldest
    /// bucket is evicted instead. Clamped to at least 1 (1 disables
    /// coarsening: overflow always evicts).
    pub max_width: u64,
}

impl Default for RingConfig {
    fn default() -> RingConfig {
        RingConfig {
            interval: 100_000,
            capacity: 64,
            max_width: 16,
        }
    }
}

/// One retained slot: the frozen, immutable view handed to queries. A
/// fresh slot covers a single window (`first == last`); coarsening widens
/// it (`first..=last`).
#[derive(Debug, Clone, Default)]
struct WindowSlot {
    first: u64,
    last: u64,
    calls: u64,
    estimated_calls: u64,
    agg: Aggregates,
}

impl WindowSlot {
    fn width(&self) -> u64 {
        self.last - self.first + 1
    }
}

/// Metadata of one retained window (or coarsened bucket) — everything a
/// listing needs without materializing the profile.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WindowMeta {
    /// First window index covered by this slot.
    pub first: u64,
    /// Last window index covered (== `first` for a fine-grained window).
    pub last: u64,
    /// First virtual tick covered (`first * interval`).
    pub start_tick: u64,
    /// Last virtual tick covered (`(last + 1) * interval - 1`).
    pub end_tick: u64,
    /// Completed calls attributed to this slot. Under a degraded fidelity
    /// regime this is a bias-corrected *estimate* (each admitted call
    /// counts for its sampling factor); `estimated_calls` says how much.
    pub calls: u64,
    /// The portion of `calls` that is a sampled estimate rather than an
    /// exact count — the slot's regime mix. `0` means the whole window
    /// was recorded at full fidelity; `== calls` means all of it is
    /// estimated; in between, the window straddled a regime change.
    pub estimated_calls: u64,
}

/// A retention transition worth surfacing: history was coarsened or lost.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RingEvent {
    /// The slot covering `first..=last` was evicted into the remainder
    /// aggregate; its `calls` completed calls are no longer queryable
    /// per-window (totals still reconcile through the remainder).
    Evicted {
        /// First window index of the evicted slot.
        first: u64,
        /// Last window index of the evicted slot.
        last: u64,
        /// Completed calls the slot held.
        calls: u64,
    },
    /// Two adjacent oldest slots were merged into one bucket covering
    /// `first..=last`; nothing was lost, only the resolution.
    Coarsened {
        /// First window index of the merged bucket.
        first: u64,
        /// Last window index of the merged bucket.
        last: u64,
    },
}

/// A bounded ring of per-window aggregates over the virtual clock.
#[derive(Debug, Default)]
pub struct RetentionRing {
    interval: u64,
    capacity: usize,
    max_width: u64,
    /// Retained slots, ascending and non-overlapping by window index.
    slots: Vec<WindowSlot>,
    /// Everything aged out of the ring: merged here so the whole-session
    /// identity (retained ⊕ remainder == total) always holds.
    evicted: Aggregates,
    evicted_calls: u64,
    evicted_windows: u64,
    /// First window index not yet evicted: calls landing below it (late
    /// arrivals after an eviction) go straight to the remainder.
    floor: u64,
    events: Vec<RingEvent>,
}

impl RetentionRing {
    /// An empty ring with `config` (fields clamped to their minimums).
    pub fn new(config: &RingConfig) -> RetentionRing {
        RetentionRing {
            interval: config.interval.max(1),
            capacity: config.capacity.max(1),
            max_width: config.max_width.max(1),
            ..RetentionRing::default()
        }
    }

    /// Virtual ticks per window.
    pub fn interval(&self) -> u64 {
        self.interval
    }

    /// The window index a call exiting at `counter` belongs to.
    fn window_of(&self, counter: u64) -> u64 {
        counter / self.interval
    }

    /// Retained slots (fine windows + coarse buckets).
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether no slot is retained yet.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Completed calls evicted into the remainder so far.
    pub fn evicted_calls(&self) -> u64 {
        self.evicted_calls
    }

    /// Windows evicted into the remainder so far.
    pub fn evicted_windows(&self) -> u64 {
        self.evicted_windows
    }

    /// Drain the retention transitions since the last call.
    pub fn take_events(&mut self) -> Vec<RingEvent> {
        std::mem::take(&mut self.events)
    }

    /// Metadata of every retained slot, oldest first.
    pub fn windows(&self) -> Vec<WindowMeta> {
        self.slots
            .chunks(1)
            .filter_map(|slot| self.meta(slot))
            .collect()
    }

    /// Metadata of a contiguous run of slots (`None` for an empty run).
    fn meta(&self, slots: &[WindowSlot]) -> Option<WindowMeta> {
        let (head, tail) = (slots.first()?, slots.last()?);
        Some(WindowMeta {
            first: head.first,
            last: tail.last,
            start_tick: head.first * self.interval,
            end_tick: (tail.last + 1) * self.interval - 1,
            calls: slots.iter().map(|s| s.calls).sum(),
            estimated_calls: slots.iter().map(|s| s.estimated_calls).sum(),
        })
    }

    /// Attribute one completed call of thread `tid` to the window of its
    /// exit counter — its slot, or the evicted remainder when that window
    /// is already below the floor. `scale` is the sampling factor of the
    /// regime the call was admitted under (see [`teeperf_core::fidelity`];
    /// at least 1): the window counts `scale` calls, the same bias
    /// correction the all-time aggregate applies, so retained ⊕ remainder
    /// still equals it, and stamps the scaled portion in its regime mix
    /// ([`WindowMeta::estimated_calls`]). Anomalies stay session-scoped.
    /// The ring may exceed its capacity until the caller's next
    /// [`RetentionRing::enforce_retention`].
    pub fn add_call(&mut self, tid: u64, call: &CompletedCall, scale: u64) {
        let scale = scale.max(1);
        let idx = self.window_of(call.exit);
        if idx < self.floor {
            self.evicted.add_call(tid, call, scale);
            self.evicted_calls += scale;
            return;
        }
        let slot = self.slot_for(idx);
        slot.agg.add_call(tid, call, scale);
        slot.calls += scale;
        if scale > 1 {
            slot.estimated_calls += scale;
        }
    }

    /// The slot covering `idx`, creating a fresh single-window slot in
    /// order if none does. `idx >= self.floor` must hold.
    fn slot_for(&mut self, idx: u64) -> &mut WindowSlot {
        let pos = self.slots.partition_point(|s| s.last < idx);
        let covers = self
            .slots
            .get(pos)
            .is_some_and(|s| s.first <= idx && idx <= s.last);
        if !covers {
            self.slots.insert(
                pos,
                WindowSlot {
                    first: idx,
                    last: idx,
                    ..WindowSlot::default()
                },
            );
        }
        &mut self.slots[pos]
    }

    /// Shrink back to capacity: coarsen the two oldest adjacent slots into
    /// one bucket while the merge stays within `max_width`, evict the
    /// oldest bucket into the remainder otherwise.
    pub fn enforce_retention(&mut self) {
        while self.slots.len() > self.capacity {
            let coarsened_width = if self.slots.len() >= 2 {
                self.slots[1].last - self.slots[0].first + 1
            } else {
                u64::MAX
            };
            if coarsened_width <= self.max_width {
                let old = self.slots.remove(0);
                let merged = &mut self.slots[0];
                merged.first = old.first;
                merged.calls += old.calls;
                merged.estimated_calls += old.estimated_calls;
                merged.agg.merge(&old.agg);
                let (first, last) = (merged.first, merged.last);
                self.events.push(RingEvent::Coarsened { first, last });
            } else {
                let old = self.slots.remove(0);
                self.floor = old.last + 1;
                self.evicted_calls += old.calls;
                self.evicted_windows += old.width();
                self.events.push(RingEvent::Evicted {
                    first: old.first,
                    last: old.last,
                    calls: old.calls,
                });
                self.evicted.merge(&old.agg);
            }
        }
    }

    /// Resolve a selection to the contiguous run of retained slots it
    /// covers: every slot for [`WindowSel::All`], the newest `n` for
    /// [`WindowSel::Last`], and the slots fully contained in the index
    /// range for [`WindowSel::Range`]. Empty when nothing matches.
    fn select(&self, sel: &WindowSel) -> &[WindowSlot] {
        match sel {
            WindowSel::All => &self.slots,
            WindowSel::Last(n) => {
                let n = (*n as usize).min(self.slots.len());
                &self.slots[self.slots.len() - n..]
            }
            WindowSel::Range(a, b) => {
                let lo = self.slots.partition_point(|s| s.first < *a);
                let hi = self.slots.partition_point(|s| s.last <= *b);
                &self.slots[lo..hi.max(lo)]
            }
        }
    }

    /// The selected span: its metadata and the sum of its slots' rows, the
    /// span's exact aggregate. `None` when the selection matches no
    /// retained slot.
    pub fn span(&self, sel: &WindowSel) -> Option<(WindowMeta, Aggregates)> {
        let slots = self.select(sel);
        Some((self.meta(slots)?, sum(Aggregates::new(), slots)))
    }

    /// [`RetentionRing::span`] left unsummed: the metadata and the selected
    /// slots' aggregates, oldest first.
    pub(crate) fn span_slots(
        &self,
        sel: &WindowSel,
    ) -> Option<(WindowMeta, impl Iterator<Item = &Aggregates>)> {
        let slots = self.select(sel);
        Some((self.meta(slots)?, slots.iter().map(|slot| &slot.agg)))
    }

    /// The whole ring as one aggregate: evicted remainder ⊕ every retained
    /// slot. By the commutative-merge identity this equals the
    /// whole-session aggregate built from the same completed calls.
    pub fn reconstruct(&self) -> Aggregates {
        sum(self.evicted.clone(), &self.slots)
    }
}

/// `total` plus every slot's rows.
fn sum(mut total: Aggregates, slots: &[WindowSlot]) -> Aggregates {
    for slot in slots {
        total.merge(&slot.agg);
    }
    total
}

/// One process's retained-window listing — the unit of the `/windows` wire
/// format.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PidWindows {
    /// Process id the ring belongs to.
    pub pid: u64,
    /// Virtual ticks per window.
    pub interval: u64,
    /// Windows evicted into the remainder so far.
    pub evicted_windows: u64,
    /// Completed calls evicted into the remainder so far.
    pub evicted_calls: u64,
    /// Retained slots, oldest first.
    pub windows: Vec<WindowMeta>,
}

/// Serialize per-pid window listings to the stable `[windows]` text format
/// (the `/windows` wire contract, golden-byte-tested):
///
/// ```text
/// [windows]
/// pid 7 interval 12 retained 2 evicted_windows 1 evicted_calls 4
/// pid 7 window 0..=1 ticks 0..=23 calls 8
/// pid 7 window 2..=2 ticks 24..=35 calls 4 estimated 4
/// ```
///
/// The trailing `estimated <n>` segment is the window's regime mix
/// ([`WindowMeta::estimated_calls`]) and appears only when nonzero, so
/// full-fidelity listings serialize byte-identically to what they always
/// were, and old clients of the 8-field window line keep parsing them.
pub fn windows_to_text(parts: &[PidWindows]) -> String {
    let mut out = String::from("[windows]\n");
    for p in parts {
        out.push_str(&format!(
            "pid {} interval {} retained {} evicted_windows {} evicted_calls {}\n",
            p.pid,
            p.interval,
            p.windows.len(),
            p.evicted_windows,
            p.evicted_calls
        ));
        for w in &p.windows {
            out.push_str(&format!(
                "pid {} window {}..={} ticks {}..={} calls {}",
                p.pid, w.first, w.last, w.start_tick, w.end_tick, w.calls
            ));
            if w.estimated_calls > 0 {
                out.push_str(&format!(" estimated {}", w.estimated_calls));
            }
            out.push('\n');
        }
    }
    out
}

/// Parse the `[windows]` text format back into per-pid listings — the
/// client half of the wire contract (`teeperf query --connect windows`).
///
/// # Errors
/// Returns a description of the first malformed line; a text without a
/// `[windows]` section is malformed.
pub fn windows_from_text(text: &str) -> Result<Vec<PidWindows>, String> {
    let mut parts: Vec<PidWindows> = Vec::new();
    let present = walk_section(text, "windows", |l| {
        if l.is_empty() {
            return Ok(());
        }
        let fields: Vec<&str> = l.split(' ').collect();
        let num = |s: &str| {
            s.parse::<u64>()
                .map_err(|_| format!("bad number in windows line `{l}`"))
        };
        let range = |s: &str| -> Result<(u64, u64), String> {
            let (a, b) = s
                .split_once("..=")
                .ok_or_else(|| format!("bad range in windows line `{l}`"))?;
            Ok((num(a)?, num(b)?))
        };
        match fields.as_slice() {
            ["pid", pid, "interval", interval, "retained", _, "evicted_windows", ew, "evicted_calls", ec] =>
            {
                parts.push(PidWindows {
                    pid: num(pid)?,
                    interval: num(interval)?,
                    evicted_windows: num(ew)?,
                    evicted_calls: num(ec)?,
                    windows: Vec::new(),
                });
            }
            ["pid", pid, "window", span, "ticks", ticks, "calls", calls]
            | ["pid", pid, "window", span, "ticks", ticks, "calls", calls, "estimated", _] => {
                let estimated_calls = match fields.as_slice() {
                    [.., "estimated", e] => num(e)?,
                    _ => 0,
                };
                let pid = num(pid)?;
                let part = parts
                    .last_mut()
                    .filter(|p| p.pid == pid)
                    .ok_or_else(|| format!("window line before its pid header: `{l}`"))?;
                let (first, last) = range(span)?;
                let (start_tick, end_tick) = range(ticks)?;
                part.windows.push(WindowMeta {
                    first,
                    last,
                    start_tick,
                    end_tick,
                    calls: num(calls)?,
                    estimated_calls,
                });
            }
            _ => return Err(format!("malformed windows line `{l}`")),
        }
        Ok(())
    })?;
    if !present {
        return Err("no [windows] section".to_string());
    }
    Ok(parts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use teeperf_analyzer::{PathId, PathTable};

    /// A top-level call of `0xA` or `0xB`, interned in a table that met
    /// them in that order.
    fn call(addr: u64, enter: u64, exit: u64) -> CompletedCall {
        let mut paths = PathTable::new();
        paths.child(PathId::ROOT, 0xA);
        CompletedCall {
            addr,
            path: paths.child(PathId::ROOT, addr),
            stack: vec![addr],
            enter,
            exit,
            child_ticks: 0,
            truncated: false,
        }
    }

    /// One pump's calls (here all of one thread) into the ring, the way
    /// `RollingProfile` feeds it: every call, then retention once.
    fn add_batch(r: &mut RetentionRing, tid: u64, calls: &[CompletedCall], scale: u64) {
        for c in calls {
            r.add_call(tid, c, scale);
        }
        r.enforce_retention();
    }

    fn ring(interval: u64, capacity: usize, max_width: u64) -> RetentionRing {
        RetentionRing::new(&RingConfig {
            interval,
            capacity,
            max_width,
        })
    }

    #[test]
    fn calls_land_in_the_window_of_their_exit_tick() {
        let mut r = ring(10, 8, 4);
        add_batch(
            &mut r,
            0,
            &[call(0xA, 1, 9), call(0xA, 12, 19), call(0xB, 5, 25)],
            1,
        );
        let w = r.windows();
        assert_eq!(w.len(), 3);
        assert_eq!((w[0].first, w[0].calls), (0, 1));
        assert_eq!((w[1].first, w[1].calls), (1, 1));
        assert_eq!((w[2].first, w[2].calls), (2, 1), "attribution is by exit");
        assert_eq!(w[0].start_tick, 0);
        assert_eq!(w[0].end_tick, 9);
    }

    #[test]
    fn overflow_coarsens_the_oldest_pair_first() {
        let mut r = ring(10, 2, 4);
        for i in 0..3u64 {
            add_batch(&mut r, 0, &[call(0xA, i * 10, i * 10 + 5)], 1);
        }
        let w = r.windows();
        assert_eq!(w.len(), 2);
        assert_eq!((w[0].first, w[0].last, w[0].calls), (0, 1, 2));
        assert_eq!((w[1].first, w[1].last), (2, 2), "newest stays fine-grained");
        assert_eq!(
            r.take_events(),
            vec![RingEvent::Coarsened { first: 0, last: 1 }]
        );
        assert_eq!(r.evicted_windows(), 0);
    }

    #[test]
    fn overflow_evicts_once_coarsening_would_exceed_max_width() {
        let mut r = ring(10, 2, 2);
        for i in 0..4u64 {
            add_batch(&mut r, 0, &[call(0xA, i * 10, i * 10 + 5)], 1);
        }
        // Windows 0,1 coarsened into one bucket of width 2; window 3's
        // arrival overflows again and the width-2 bucket cannot widen.
        let events = r.take_events();
        assert!(events.contains(&RingEvent::Coarsened { first: 0, last: 1 }));
        assert!(events.contains(&RingEvent::Evicted {
            first: 0,
            last: 1,
            calls: 2
        }));
        assert_eq!(r.evicted_windows(), 2);
        assert_eq!(r.evicted_calls(), 2);
        let w = r.windows();
        assert_eq!(w.len(), 2);
        assert_eq!(w[0].first, 2);
    }

    #[test]
    fn late_calls_below_the_floor_fold_into_the_remainder() {
        let mut r = ring(10, 1, 1);
        add_batch(&mut r, 0, &[call(0xA, 0, 5)], 1);
        add_batch(&mut r, 0, &[call(0xA, 10, 15)], 1); // evicts window 0
        assert_eq!(r.evicted_windows(), 1);
        add_batch(&mut r, 0, &[call(0xB, 0, 5)], 1); // late arrival for window 0
        assert_eq!(r.evicted_calls(), 2, "late call counted in the remainder");
        assert_eq!(r.len(), 1);
        assert_eq!(r.windows()[0].first, 1);
    }

    #[test]
    fn select_resolves_last_range_and_all() {
        let mut r = ring(10, 8, 4);
        for i in 0..5u64 {
            add_batch(&mut r, 0, &[call(0xA, i * 10, i * 10 + 5)], 1);
        }
        let (all, _) = r.span(&WindowSel::All).unwrap();
        assert_eq!((all.first, all.last, all.calls), (0, 4, 5));
        let (last2, _) = r.span(&WindowSel::Last(2)).unwrap();
        assert_eq!((last2.first, last2.last), (3, 4));
        let (mid, _) = r.span(&WindowSel::Range(1, 3)).unwrap();
        assert_eq!((mid.first, mid.last, mid.calls), (1, 3, 3));
        assert!(r.span(&WindowSel::Range(9, 12)).is_none());
        let (one, agg) = r.span(&WindowSel::Range(2, 2)).unwrap();
        assert_eq!((one.first, one.last), (2, 2));
        assert_eq!(agg.thread_ids().collect::<Vec<_>>(), vec![0]);
    }

    #[test]
    fn golden_windows_wire_format() {
        let mut r = ring(12, 2, 2);
        for i in 0..3u64 {
            add_batch(
                &mut r,
                0,
                &[
                    call(0xA, i * 12, i * 12 + 6),
                    call(0xB, i * 12 + 1, i * 12 + 7),
                ],
                1,
            );
        }
        let parts = vec![PidWindows {
            pid: 7,
            interval: r.interval(),
            evicted_windows: r.evicted_windows(),
            evicted_calls: r.evicted_calls(),
            windows: r.windows(),
        }];
        let text = windows_to_text(&parts);
        // The wire contract, byte for byte. Changing this format is a
        // breaking change for every deployed client.
        assert_eq!(
            text,
            "[windows]\n\
             pid 7 interval 12 retained 2 evicted_windows 0 evicted_calls 0\n\
             pid 7 window 0..=1 ticks 0..=23 calls 4\n\
             pid 7 window 2..=2 ticks 24..=35 calls 2\n"
        );
        assert_eq!(windows_from_text(&text).unwrap(), parts);
    }

    #[test]
    fn scaled_calls_stamp_the_regime_mix_and_round_trip() {
        let mut r = ring(10, 8, 4);
        add_batch(&mut r, 0, &[call(0xA, 1, 9)], 1); // exact, window 0
        add_batch(&mut r, 0, &[call(0xA, 12, 19)], 8); // estimated, window 1
        add_batch(&mut r, 0, &[call(0xB, 15, 18)], 1); // scale 1 == exact
        let w = r.windows();
        assert_eq!((w[0].calls, w[0].estimated_calls), (1, 0));
        assert_eq!(
            (w[1].calls, w[1].estimated_calls),
            (9, 8),
            "one admitted call at 1-in-8 estimates 8; the scale-1 call is exact"
        );
        let parts = vec![PidWindows {
            pid: 3,
            interval: r.interval(),
            evicted_windows: r.evicted_windows(),
            evicted_calls: r.evicted_calls(),
            windows: w,
        }];
        let text = windows_to_text(&parts);
        assert!(text.contains("calls 9 estimated 8\n"), "{text}");
        assert!(
            text.contains("calls 1\n"),
            "exact windows keep the 8-field line: {text}"
        );
        assert_eq!(windows_from_text(&text).unwrap(), parts);
    }

    #[test]
    fn coarsening_merges_the_regime_mix() {
        let mut r = ring(10, 2, 4);
        add_batch(&mut r, 0, &[call(0xA, 0, 5)], 4);
        add_batch(&mut r, 0, &[call(0xA, 10, 15)], 1);
        add_batch(&mut r, 0, &[call(0xA, 20, 25)], 1); // overflow: coarsen 0+1
        let w = r.windows();
        assert_eq!(w.len(), 2);
        assert_eq!(
            (w[0].calls, w[0].estimated_calls),
            (5, 4),
            "the merged bucket keeps the estimated share of both halves"
        );
    }

    #[test]
    fn windows_parser_rejects_garbage() {
        assert!(windows_from_text("").is_err());
        assert!(windows_from_text("[live]\nepoch 0\n").is_err());
        assert!(windows_from_text("[windows]\npid x interval 1\n").is_err());
        assert!(
            windows_from_text("[windows]\npid 7 window 0..=1 ticks 0..=23 calls 4\n").is_err(),
            "window line before its pid header"
        );
        assert_eq!(windows_from_text("[windows]\n").unwrap(), vec![]);
        // Unknown sections around it are skipped, like every other parser
        // of the snapshot text family.
        let ok = windows_from_text(
            "[live]\nepoch 1\n[windows]\npid 7 interval 12 retained 0 evicted_windows 0 evicted_calls 0\n[methods]\n",
        )
        .unwrap();
        assert_eq!(ok.len(), 1);
        assert_eq!(ok[0].pid, 7);
    }

    #[test]
    fn reconstruct_merges_remainder_and_slots() {
        let mut r = ring(10, 2, 1);
        for i in 0..6u64 {
            add_batch(&mut r, i % 2, &[call(0xA, i * 10, i * 10 + 5)], 1);
        }
        assert!(r.evicted_windows() > 0);
        let whole = r.reconstruct();
        let calls: u64 = whole.thread_ids().count() as u64;
        assert_eq!(calls, 2, "both threads survive eviction in the remainder");
    }
}
