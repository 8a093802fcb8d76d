//! The injected profiling code (the paper's `__cyg_profile_func_enter` /
//! `__cyg_profile_func_exit` bodies).
//!
//! Every instrumented call and return executes [`TeePerfHooks::record`]:
//!
//! 1. run the injected instructions themselves (a fixed cycle cost —
//!    the paper injects 389 LoC of C, heavily inlined),
//! 2. atomically read the control word; bail if tracing is off or the
//!    event kind is masked,
//! 3. consult the fidelity gate, if armed,
//! 4. read the software counter from shared memory (or the hardware TSC),
//! 5. reserve a log slot with one fetch-and-add on the tail (or take the
//!    next slot of the run an earlier reservation claimed),
//! 6. write the 24-byte entry.
//!
//! Steps 5 and 6 are [`BatchWriter::append`], the one append routine.
//! Selective profiling is the paper's compile-time choice (§II-C): an
//! uninstrumented function never reaches this code.
//!
//! Each shared-memory access is charged to the simulated [`Machine`], so
//! the *measured overhead of the profiler is produced by the same mechanism
//! that produces it on real hardware*: extra instructions and extra memory
//! traffic on every call/return. The hook never takes a lock and never
//! blocks — matching §II-C's lock-free design.

use tee_sim::{Machine, SHM_BASE};

use crate::batch::BatchWriter;
use crate::counter::CounterSource;
use crate::fidelity::FidelityGate;
use crate::layout::{
    EventKind, LogEntry, ENTRY_BYTES, OFF_CONTROL, OFF_COUNTER, OFF_REGIME, OFF_TAIL,
};
use crate::log::SharedLog;

/// Default cycle cost of executing the injected instructions themselves
/// (register spills, branch, address computation — everything except the
/// shared-memory traffic, which is charged separately).
pub const DEFAULT_INJECTED_CYCLES: u64 = 80;

/// Extra cycles to pull the software-counter cache line: the counter
/// thread on another core rewrites it continuously, so every read is a
/// cross-core coherence transfer, never a local hit.
pub const COUNTER_CROSS_CORE_CYCLES: u64 = 180;

/// Extra cycles for the lock-prefixed fetch-and-add on the tail word:
/// serialization plus the coherence traffic of a line shared by every
/// profiled thread.
pub const TAIL_RMW_CYCLES: u64 = 180;

/// The runtime half of TEE-Perf's instrumentation: writes log entries from
/// inside the enclave.
pub struct TeePerfHooks {
    writer: BatchWriter,
    counter: Box<dyn CounterSource>,
    counter_in_shm: bool,
    gate: Option<FidelityGate>,
    events_recorded: u64,
    events_suppressed: u64,
}

impl std::fmt::Debug for TeePerfHooks {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TeePerfHooks")
            .field("counter", &self.counter.name())
            .field("events_recorded", &self.events_recorded)
            .finish()
    }
}

impl TeePerfHooks {
    /// Hooks writing to `log`, timestamping with `counter`.
    pub fn new(log: SharedLog, counter: Box<dyn CounterSource>) -> TeePerfHooks {
        let counter_in_shm = counter.name() != "hardware-tsc";
        TeePerfHooks {
            writer: log.batch_writer(1),
            counter,
            counter_in_shm,
            gate: None,
            events_recorded: 0,
            events_suppressed: 0,
        }
    }

    /// Claim `slots` log slots per shared tail fetch-and-add instead of
    /// one, amortizing the hottest RMW across `slots` events (see
    /// [`crate::batch`]). `slots <= 1` is the paper's one RMW per event.
    pub fn with_batch_slots(mut self, slots: u64) -> TeePerfHooks {
        self.writer = self.writer.log().batch_writer(slots);
        self
    }

    /// Honour the fidelity regime word with a [`FidelityGate`]: under
    /// `Sampled(N)` only one in `N` call/return pairs is recorded (the
    /// pair's events skip the counter read, the tail RMW and the entry
    /// write entirely, which is where the overhead reduction comes from),
    /// and under `Quiescent` nothing is. The gate re-reads the shared
    /// regime word every [`crate::fidelity::GATE_REFRESH_EVERY`] events,
    /// amortizing the extra shared load; a session without a budget never
    /// publishes anything but `Full`, so the gate is then a no-op.
    pub fn with_fidelity_gate(mut self) -> TeePerfHooks {
        self.gate = Some(FidelityGate::new());
        self
    }

    /// Events written to the log so far.
    pub fn events_recorded(&self) -> u64 {
        self.events_recorded
    }

    /// Events skipped by the control word or the fidelity gate.
    pub fn events_suppressed(&self) -> u64 {
        self.events_suppressed
    }

    /// The shared log handle (e.g. for mid-run toggling in tests).
    pub fn log(&self) -> &SharedLog {
        self.writer.log()
    }

    /// The hot path: record one call/return event.
    pub fn record(&mut self, machine: &mut Machine, kind: EventKind, addr: u64, tid: u64) {
        // 1. The injected instructions themselves.
        machine.compute(DEFAULT_INJECTED_CYCLES);

        // 2. Atomic read of the control word (lives in untrusted memory).
        machine.read(SHM_BASE + OFF_CONTROL, 8);
        if !self.writer.should_record(kind) {
            self.events_suppressed += 1;
            return;
        }

        // 3. The fidelity gate. A suppressed event bails before the
        // counter read and the tail RMW — the expensive shared traffic —
        // which is exactly how `Sampled` buys back overhead.
        if let Some(gate) = &mut self.gate {
            if gate.needs_refresh() {
                machine.read(SHM_BASE + OFF_REGIME, 8);
                gate.observe(self.writer.log().regime_word());
            }
            if !gate.admit(tid, kind) {
                self.events_suppressed += 1;
                return;
            }
        }

        // 4. Timestamp. The counter line is perpetually dirty in the
        // counter thread's core, so the read is a cross-core transfer.
        if self.counter_in_shm {
            machine.read(SHM_BASE + OFF_COUNTER, 8);
            machine.compute(COUNTER_CROSS_CORE_CYCLES);
        }
        machine.compute(self.counter.read_cycles());
        let counter = self.counter.read();

        let entry = LogEntry {
            kind,
            counter,
            addr,
            tid,
        };

        // 5+6. Slot reservation and the entry write. The locked RMW on the
        // tail word is only paid on the appends that actually reserve —
        // every one at a run length of 1, one in `slots` otherwise. The
        // announce / withdraw RMWs ride on the header cache line already
        // charged for the control-word read.
        let out = self.writer.append(&entry);
        if out.reserved {
            machine.read(SHM_BASE + OFF_TAIL, 8);
            machine.write(SHM_BASE + OFF_TAIL, 8);
            machine.compute(TAIL_RMW_CYCLES);
        }
        if let Some(index) = out.slot {
            machine.write(SHM_BASE + LogEntry::offset_of(index), ENTRY_BYTES);
            self.events_recorded += 1;
        }
    }
}

impl mcvm::ProfilerHooks for TeePerfHooks {
    fn on_enter(&mut self, machine: &mut Machine, fn_entry_addr: u64, tid: u64) {
        self.record(machine, EventKind::Call, fn_entry_addr, tid);
    }

    fn on_exit(&mut self, machine: &mut Machine, fn_entry_addr: u64, tid: u64) {
        self.record(machine, EventKind::Return, fn_entry_addr, tid);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counter::SimCounter;
    use crate::faults::SalvageReason;
    use crate::log::{make_header, region_bytes};
    use crate::source::tests::Tally;
    use crate::source::{LiveLogSource, SourceResilience};
    use std::sync::{Arc, Mutex};
    use tee_sim::{AccessKind, CostModel, MemAccess, MemModel, SharedMem};

    fn setup(max_entries: u64) -> (SharedLog, Machine) {
        let shm = Arc::new(SharedMem::new(region_bytes(max_entries)));
        let log = SharedLog::init(
            Arc::clone(&shm),
            &make_header(1, max_entries, true, 0, SHM_BASE),
        );
        let mut machine = Machine::new(CostModel::sgx_v1());
        machine.map_shared(shm);
        machine.ecall();
        (log, machine)
    }

    fn sim_hooks(log: &SharedLog, machine: &Machine) -> TeePerfHooks {
        TeePerfHooks::new(
            log.clone(),
            Box::new(SimCounter::standard(machine.clock().clone())),
        )
    }

    #[test]
    fn record_writes_decodable_entry() {
        let (log, mut machine) = setup(8);
        let mut hooks = sim_hooks(&log, &machine);
        machine.compute(400); // let the counter advance
        hooks.record(&mut machine, EventKind::Call, 0xABCD, 5);
        let entries = log.drain_entries();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].kind, EventKind::Call);
        assert_eq!(entries[0].addr, 0xABCD);
        assert_eq!(entries[0].tid, 5);
        assert!(entries[0].counter >= 100);
        assert_eq!(hooks.events_recorded(), 1);
    }

    #[test]
    fn record_charges_the_machine() {
        let (log, mut machine) = setup(8);
        let mut hooks = sim_hooks(&log, &machine);
        let t0 = machine.clock().now();
        hooks.record(&mut machine, EventKind::Call, 1, 0);
        let charged = machine.clock().now() - t0;
        assert!(
            charged >= DEFAULT_INJECTED_CYCLES + 20,
            "hook must cost real cycles, charged {charged}"
        );
    }

    #[test]
    fn inactive_log_suppresses_and_costs_less() {
        let (log, mut machine) = setup(8);
        let mut hooks = sim_hooks(&log, &machine);
        hooks.record(&mut machine, EventKind::Call, 1, 0);
        log.set_active(false);
        let t0 = machine.clock().now();
        hooks.record(&mut machine, EventKind::Call, 2, 0);
        let suppressed_cost = machine.clock().now() - t0;
        assert_eq!(log.drain_entries().len(), 1);
        assert_eq!(hooks.events_suppressed(), 1);
        // A suppressed event only pays the injected code + control read —
        // far less than a recorded one.
        assert!(suppressed_cost < DEFAULT_INJECTED_CYCLES + 300);
    }

    #[test]
    fn event_mask_suppresses_returns() {
        let shm = Arc::new(SharedMem::new(region_bytes(8)));
        let mut header = make_header(1, 8, false, 0, SHM_BASE);
        header.trace_returns = false;
        let log = SharedLog::init(Arc::clone(&shm), &header);
        let mut machine = Machine::new(CostModel::sgx_v1());
        machine.map_shared(shm);
        machine.ecall();
        let mut hooks = sim_hooks(&log, &machine);
        hooks.record(&mut machine, EventKind::Call, 1, 0);
        hooks.record(&mut machine, EventKind::Return, 1, 0);
        let entries = log.drain_entries();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].kind, EventKind::Call);
    }

    #[test]
    fn full_log_keeps_counting_but_stops_writing() {
        let (log, mut machine) = setup(2);
        let mut hooks = sim_hooks(&log, &machine);
        for i in 0..5 {
            hooks.record(&mut machine, EventKind::Call, i, 0);
        }
        assert_eq!(hooks.events_recorded(), 2);
        assert_eq!(log.header().dropped_entries(), 3);
    }

    #[test]
    fn batched_hooks_amortize_the_tail_rmw() {
        let run = |slots: u64| -> (u64, usize) {
            let (log, mut machine) = setup(64);
            let tsc = crate::counter::TscCounter::new(machine.clock().clone(), 30);
            let mut hooks = TeePerfHooks::new(log.clone(), Box::new(tsc)).with_batch_slots(slots);
            let t0 = machine.clock().now();
            for i in 0..32 {
                hooks.record(&mut machine, EventKind::Call, 0x1000 + i, 0);
            }
            (machine.clock().now() - t0, log.drain_entries().len())
        };
        let (classic_cycles, classic_entries) = run(1);
        let (batched_cycles, batched_entries) = run(8);
        assert_eq!(classic_entries, 32);
        assert_eq!(batched_entries, 32, "batching must not change the data");
        // 32 events: classic pays 32 tail RMWs, batch-8 pays 4 — the gap
        // must show up in the charged cycles.
        assert!(
            batched_cycles + 20 * TAIL_RMW_CYCLES <= classic_cycles,
            "batched {batched_cycles} vs classic {classic_cycles}"
        );
    }

    #[test]
    fn batched_full_log_still_counts_drops() {
        let (log, mut machine) = setup(2);
        let mut hooks = sim_hooks(&log, &machine).with_batch_slots(4);
        for i in 0..5 {
            hooks.record(&mut machine, EventKind::Call, i + 1, 0);
        }
        assert_eq!(hooks.events_recorded(), 2);
        // 3 events dropped; the 2 over-capacity slots of the straddling
        // run are abandoned, not dropped.
        assert_eq!(log.dropped_total(), 3);
        assert_eq!(log.abandoned_total(), 2);
    }

    /// A drain that attempts a rotation in the middle of every append —
    /// right before each store into the entry area — which is the
    /// interleaving a concurrent drainer thread only produces by chance.
    #[derive(Debug)]
    struct RotateMidAppend {
        drain: Mutex<Option<(Tally<LiveLogSource>, Vec<LogEntry>)>>,
    }

    impl RotateMidAppend {
        fn pump(&self) {
            // try_lock: the rotation's own slot-clearing stores re-enter.
            if let Ok(mut drain) = self.drain.try_lock() {
                if let Some((src, drained)) = drain.as_mut() {
                    drained.extend(src.pump().entries);
                }
            }
        }
    }

    impl MemModel for RotateMidAppend {
        fn before_access(&self, access: MemAccess) {
            if access.kind == AccessKind::Store && access.offset >= crate::layout::HEADER_BYTES {
                self.pump();
            }
        }
        fn on_spin(&self) {}
    }

    #[test]
    fn hooks_announce_every_append_so_no_rotation_slips_into_one() {
        for slots in [1u64, 8] {
            let model = Arc::new(RotateMidAppend {
                drain: Mutex::new(None),
            });
            let shm = Arc::new(SharedMem::new_modeled(
                region_bytes(32),
                Arc::clone(&model) as Arc<dyn MemModel>,
            ));
            let log = SharedLog::init(Arc::clone(&shm), &make_header(1, 32, true, 0, SHM_BASE));
            let mut machine = Machine::new(CostModel::sgx_v1());
            machine.map_shared(shm);
            machine.ecall();
            // Two writers, as two threads of the profiled process hold
            // them, built the way `Recorder::sim_hooks` builds them: no
            // opt-in of any kind.
            let mut writers = [
                sim_hooks(&log, &machine).with_batch_slots(slots),
                sim_hooks(&log, &machine).with_batch_slots(slots),
            ];
            // Rotate whenever anything is in the log; give up on announced
            // writers after a few spins and never declare them dead.
            let src = LiveLogSource::new(log.clone(), 1).with_resilience(SourceResilience {
                rotate_spin_limit: 4,
                max_rotation_stalls: u64::MAX,
                ..SourceResilience::default()
            });
            *model.drain.lock().unwrap() = Some((Tally::new(src), Vec::new()));
            for k in 0..40u64 {
                let w = (k % 2) as usize;
                writers[w].record(&mut machine, EventKind::Call, 0x1000 + k, w as u64);
                // Between appends the same rotation goes through.
                model.pump();
            }
            let (mut src, mut drained) = model.drain.lock().unwrap().take().unwrap();
            drained.extend(src.drain_to_end().entries);

            let recorded: u64 = writers.iter().map(TeePerfHooks::events_recorded).sum();
            assert_eq!(recorded + log.dropped_total(), 40, "slots {slots}");
            let mut addrs: Vec<u64> = drained.iter().map(|e| e.addr).collect();
            addrs.sort_unstable();
            addrs.dedup();
            assert_eq!(addrs.len() as u64, recorded, "drained exactly once");
            assert_eq!(drained.len() as u64, recorded, "drained exactly once");
            let salvage = &src.salvage;
            assert!(
                salvage.count(SalvageReason::StalledRotation) >= recorded,
                "every mid-append rotation must have been refused"
            );
            assert_eq!(
                salvage.count(SalvageReason::UnpublishedSlot),
                log.abandoned_total()
            );
            if slots == 1 {
                assert_eq!(log.abandoned_total(), 0, "one-slot claims abandon nothing");
            }
            assert!(src.state.epoch > 10, "the log did rotate between appends");
        }
    }

    #[test]
    fn counters_are_monotone_across_events() {
        let (log, mut machine) = setup(32);
        let mut hooks = sim_hooks(&log, &machine);
        for i in 0..10 {
            machine.compute(50);
            hooks.record(&mut machine, EventKind::Call, i, 0);
        }
        let entries = log.drain_entries();
        for w in entries.windows(2) {
            assert!(w[0].counter <= w[1].counter);
        }
    }

    #[test]
    fn tsc_counter_skips_shm_read_but_pays_latency() {
        let (log, mut machine) = setup(8);
        let tsc = crate::counter::TscCounter::new(machine.clock().clone(), 30);
        let mut hooks = TeePerfHooks::new(log.clone(), Box::new(tsc));
        let t0 = machine.clock().now();
        hooks.record(&mut machine, EventKind::Call, 1, 0);
        assert!(machine.clock().now() - t0 >= 30);
        // The TSC records raw cycles (not counter ticks): the timestamp must
        // sit between the hook start and its completion.
        let c = log.drain_entries()[0].counter;
        assert!(
            c > t0 && c < machine.clock().now(),
            "tsc {c} outside hook window"
        );
    }

    #[test]
    fn fidelity_gate_cuts_recorded_events_and_cycles() {
        use crate::fidelity::Regime;
        let run = |regime: Option<Regime>| -> (u64, u64) {
            let (log, mut machine) = setup(4096);
            if let Some(r) = regime {
                log.set_regime(r, 1);
            }
            let mut hooks = sim_hooks(&log, &machine);
            if regime.is_some() {
                hooks = hooks.with_fidelity_gate();
            }
            let t0 = machine.clock().now();
            for i in 0..512u64 {
                hooks.record(&mut machine, EventKind::Call, 0x1000 + i, 0);
                hooks.record(&mut machine, EventKind::Return, 0x1000 + i, 0);
            }
            (machine.clock().now() - t0, hooks.events_recorded())
        };
        let (full_cycles, full_recorded) = run(None);
        let (gated_full_cycles, gated_full_recorded) = run(Some(Regime::Full));
        let (sampled_cycles, sampled_recorded) = run(Some(Regime::Sampled(8)));
        let (quiet_cycles, quiet_recorded) = run(Some(Regime::Quiescent));
        assert_eq!(full_recorded, 1024);
        assert_eq!(gated_full_recorded, 1024, "Full gate admits everything");
        // The gate's refresh reads are the only extra cost under Full.
        assert!(gated_full_cycles < full_cycles + full_cycles / 10);
        // ~1/8 of pairs admitted; allow wide slack on the hashed draw.
        assert!(
            sampled_recorded < 1024 / 4,
            "sampled recorded {sampled_recorded}"
        );
        assert_eq!(sampled_recorded % 2, 0, "pairs stay whole");
        assert!(
            sampled_cycles < full_cycles / 2,
            "sampling must cut measured overhead: {sampled_cycles} vs {full_cycles}"
        );
        assert_eq!(quiet_recorded, 0);
        assert!(quiet_cycles < sampled_cycles);
    }

    #[test]
    fn vm_trait_wiring_records_calls_and_returns() {
        use mcvm::ProfilerHooks as _;
        let (log, mut machine) = setup(8);
        let mut hooks = sim_hooks(&log, &machine);
        hooks.on_enter(&mut machine, 0x40_0000, 1);
        hooks.on_exit(&mut machine, 0x40_0000, 1);
        let entries = log.drain_entries();
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].kind, EventKind::Call);
        assert_eq!(entries[1].kind, EventKind::Return);
        assert_eq!(entries[0].tid, 1);
    }
}
