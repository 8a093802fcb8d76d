//! The atomic-free alternative log (paper §II-B: "while we designed the
//! log in such a way that it can be used lock-free with atomic
//! instructions, TEE-Perf does not actually rely on the availability of
//! these instructions and can use alternative ways of synchronization").
//!
//! Instead of one tail word shared by every thread (reserved with
//! fetch-and-add), the shared region is split into **per-thread
//! partitions**, each with a private tail that only its owner thread ever
//! writes. No atomic read-modify-write is needed anywhere — plain loads
//! and stores suffice on any ISA — and there is no cross-thread contention
//! on the tail line at all. The price is static partitioning: a chatty
//! thread can fill its partition while others sit empty.
//!
//! Layout: the standard 64-byte header (its tail word unused), then
//! `n_partitions` tail words, then the entry area split evenly.

use std::sync::Arc;

use tee_sim::{Machine, SharedMem, SHM_BASE};

use teeperf_core::counter::CounterSource;
use teeperf_core::layout::{EventKind, LogEntry, LogHeader, ENTRY_BYTES, HEADER_BYTES};
use teeperf_core::log::SharedLog;

/// A shared log carved into per-thread partitions.
#[derive(Debug, Clone)]
pub struct PartitionedLog {
    shm: Arc<SharedMem>,
    base: SharedLog,
    n_partitions: u64,
    per_partition: u64,
}

impl PartitionedLog {
    /// Bytes of shared memory needed for `n_partitions` × `per_partition`
    /// entries.
    pub fn region_bytes(n_partitions: u64, per_partition: u64) -> u64 {
        HEADER_BYTES + n_partitions * 8 + n_partitions * per_partition * ENTRY_BYTES
    }

    /// Initialize a fresh partitioned log (host side).
    ///
    /// # Panics
    /// Panics if the region is too small or `n_partitions` is zero.
    pub fn init(
        shm: Arc<SharedMem>,
        header: &LogHeader,
        n_partitions: u64,
        per_partition: u64,
    ) -> PartitionedLog {
        assert!(n_partitions > 0, "need at least one partition");
        assert!(
            shm.size() >= PartitionedLog::region_bytes(n_partitions, per_partition),
            "shared region too small for the partition layout"
        );
        let mut h = *header;
        h.size = n_partitions * per_partition;
        let base = SharedLog::init(Arc::clone(&shm), &h);
        for p in 0..n_partitions {
            shm.write_u64(HEADER_BYTES + p * 8, 0)
                .expect("tails in range");
        }
        PartitionedLog {
            shm,
            base,
            n_partitions,
            per_partition,
        }
    }

    /// The control-word view shared with the classic log (active bit,
    /// event mask, counter word).
    pub fn control(&self) -> &SharedLog {
        &self.base
    }

    /// Number of partitions.
    pub fn partitions(&self) -> u64 {
        self.n_partitions
    }

    fn tail_offset(&self, partition: u64) -> u64 {
        HEADER_BYTES + partition * 8
    }

    fn entry_offset(&self, partition: u64, index: u64) -> u64 {
        HEADER_BYTES
            + self.n_partitions * 8
            + (partition * self.per_partition + index) * ENTRY_BYTES
    }

    /// Append an entry to `tid`'s partition using only plain loads and
    /// stores (the tail is thread-private, so no RMW is needed). Returns
    /// `false` when the partition is full (the entry is dropped but the
    /// tail keeps counting, like the classic log).
    pub fn append(&self, tid: u64, entry: &LogEntry) -> bool {
        let p = tid % self.n_partitions;
        let tail_off = self.tail_offset(p);
        let tail = self.shm.read_u64(tail_off).expect("tail in range");
        self.shm
            .write_u64(tail_off, tail + 1)
            .expect("tail in range");
        if tail >= self.per_partition {
            return false;
        }
        let off = self.entry_offset(p, tail);
        for (i, w) in entry.pack().iter().enumerate() {
            self.shm
                .write_u64(off + (i as u64) * 8, *w)
                .expect("entry in range");
        }
        true
    }

    /// Entries dropped because some partition filled up.
    pub fn dropped_entries(&self) -> u64 {
        (0..self.n_partitions)
            .map(|p| {
                self.shm
                    .read_u64(self.tail_offset(p))
                    .expect("tail in range")
                    .saturating_sub(self.per_partition)
            })
            .sum()
    }

    /// Drain all partitions into a standard [`teeperf_core::LogFile`]. Entries
    /// are concatenated partition by partition — per-thread order (the
    /// only order the analyzer relies on) is preserved, because a thread
    /// only ever writes to its own partition.
    pub fn drain(&self) -> teeperf_core::LogFile {
        let mut entries = Vec::new();
        for p in 0..self.n_partitions {
            let tail = self
                .shm
                .read_u64(self.tail_offset(p))
                .expect("tail in range")
                .min(self.per_partition);
            for i in 0..tail {
                let off = self.entry_offset(p, i);
                let words = self.shm.read_words(off, 3).expect("entry in range");
                entries.push(LogEntry::unpack([words[0], words[1], words[2]]));
            }
        }
        let mut header = self.base.header();
        // With partition-local drops, `tail - size` no longer derives the
        // drop count from global capacity; encode stored/dropped directly
        // so LogHeader::stored_entries / dropped_entries stay correct.
        header.size = entries.len() as u64;
        header.tail = entries.len() as u64 + self.dropped_entries();
        teeperf_core::LogFile::new(header, entries)
    }
}

/// Hooks writing through a [`PartitionedLog`] — the drop-in alternative to
/// [`teeperf_core::TeePerfHooks`] for ISAs without atomic RMW instructions.
pub struct PartitionedHooks {
    log: PartitionedLog,
    counter: Box<dyn CounterSource>,
    injected_cycles: u64,
    events_recorded: u64,
}

impl std::fmt::Debug for PartitionedHooks {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PartitionedHooks")
            .field("partitions", &self.log.partitions())
            .field("events_recorded", &self.events_recorded)
            .finish()
    }
}

impl PartitionedHooks {
    /// Hooks over a partitioned log with the given counter source.
    pub fn new(log: PartitionedLog, counter: Box<dyn CounterSource>) -> PartitionedHooks {
        PartitionedHooks {
            log,
            counter,
            injected_cycles: teeperf_core::hooks::DEFAULT_INJECTED_CYCLES,
            events_recorded: 0,
        }
    }

    /// Events written so far.
    pub fn events_recorded(&self) -> u64 {
        self.events_recorded
    }

    /// Record one event. Costs the injected code, the control read and the
    /// counter read like the classic hook — but the reservation is two
    /// plain accesses to a thread-private line instead of a contended RMW.
    pub fn record(&mut self, machine: &mut Machine, kind: EventKind, addr: u64, tid: u64) {
        machine.compute(self.injected_cycles);
        machine.read(SHM_BASE, 8); // control word
        if !self.log.control().should_record(kind) {
            return;
        }
        machine.read(SHM_BASE + 48, 8); // counter word
        machine.compute(teeperf_core::hooks::COUNTER_CROSS_CORE_CYCLES);
        let counter = self.counter.read();
        // Private tail: read + write, no lock prefix, no contention.
        let p = tid % self.log.partitions();
        machine.read(SHM_BASE + HEADER_BYTES + p * 8, 8);
        machine.write(SHM_BASE + HEADER_BYTES + p * 8, 8);
        if self.log.append(
            tid,
            &LogEntry {
                kind,
                counter,
                addr,
                tid,
            },
        ) {
            machine.write(SHM_BASE + HEADER_BYTES, ENTRY_BYTES);
            self.events_recorded += 1;
        }
    }
}

impl mcvm::ProfilerHooks for PartitionedHooks {
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
    use tee_sim::CostModel;
    use teeperf_core::counter::SimCounter;
    use teeperf_core::log::make_header;

    fn fresh(n_partitions: u64, per_partition: u64) -> PartitionedLog {
        let shm = Arc::new(SharedMem::new(PartitionedLog::region_bytes(
            n_partitions,
            per_partition,
        )));
        PartitionedLog::init(
            shm,
            &make_header(7, n_partitions * per_partition, true, 0, SHM_BASE),
            n_partitions,
            per_partition,
        )
    }

    fn entry(counter: u64, addr: u64, tid: u64) -> LogEntry {
        LogEntry {
            kind: EventKind::Call,
            counter,
            addr,
            tid,
        }
    }

    #[test]
    fn appends_land_in_the_right_partition() {
        let log = fresh(4, 8);
        log.append(0, &entry(1, 100, 0));
        log.append(1, &entry(2, 200, 1));
        log.append(0, &entry(3, 101, 0));
        let f = log.drain();
        assert_eq!(f.entries.len(), 3);
        // Partition order: tid 0's two entries first (in order), then tid 1.
        assert_eq!(f.entries[0].addr, 100);
        assert_eq!(f.entries[1].addr, 101);
        assert_eq!(f.entries[2].addr, 200);
    }

    #[test]
    fn partition_overflow_drops_and_counts() {
        let log = fresh(2, 2);
        for i in 0..5 {
            log.append(0, &entry(i, i, 0));
        }
        log.append(1, &entry(9, 9, 1));
        assert_eq!(log.dropped_entries(), 3);
        let f = log.drain();
        assert_eq!(f.entries.len(), 3);
        assert_eq!(f.header.dropped_entries(), 3);
    }

    #[test]
    fn per_thread_order_survives_draining_to_analyzer() {
        // Group by tid and verify counters are nondecreasing per thread —
        // the property the analyzer's reconstruction relies on.
        let log = fresh(3, 32);
        for step in 0..20u64 {
            for tid in 0..3u64 {
                log.append(tid, &entry(step * 10 + tid, step, tid));
            }
        }
        let f = log.drain();
        let mut last: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
        for e in &f.entries {
            if let Some(prev) = last.insert(e.tid, e.counter) {
                assert!(e.counter >= prev, "thread {} reordered", e.tid);
            }
        }
    }

    #[test]
    fn hooks_record_through_partitions_and_charge_less_than_classic() {
        let log = fresh(4, 1024);
        let mut machine = Machine::new(CostModel::sgx_v1());
        machine.map_shared(Arc::clone(log.control().shm()));
        machine.ecall();
        let mut hooks = PartitionedHooks::new(
            log.clone(),
            Box::new(SimCounter::standard(machine.clock().clone())),
        );
        let t0 = machine.clock().now();
        for i in 0..100 {
            hooks.record(&mut machine, EventKind::Call, i, i % 4);
        }
        let partitioned_cost = (machine.clock().now() - t0) / 100;
        assert_eq!(hooks.events_recorded(), 100);
        assert_eq!(log.drain().entries.len(), 100);

        // Classic fetch-and-add hooks on the same machine class.
        let shm = Arc::new(SharedMem::new(teeperf_core::log::region_bytes(1024)));
        let classic_log =
            SharedLog::init(Arc::clone(&shm), &make_header(1, 1024, true, 0, SHM_BASE));
        let mut machine2 = Machine::new(CostModel::sgx_v1());
        machine2.map_shared(shm);
        machine2.ecall();
        let mut classic = teeperf_core::TeePerfHooks::new(
            classic_log,
            Box::new(SimCounter::standard(machine2.clock().clone())),
        );
        let t0 = machine2.clock().now();
        for i in 0..100 {
            classic.record(&mut machine2, EventKind::Call, i, i % 4);
        }
        let classic_cost = (machine2.clock().now() - t0) / 100;
        assert!(
            partitioned_cost < classic_cost,
            "partitioned ({partitioned_cost}) should beat contended fetch-add ({classic_cost})"
        );
    }

    #[test]
    fn deactivation_works_through_the_shared_control_word() {
        let log = fresh(2, 16);
        let mut machine = Machine::new(CostModel::sgx_v1());
        machine.map_shared(Arc::clone(log.control().shm()));
        machine.ecall();
        let mut hooks = PartitionedHooks::new(
            log.clone(),
            Box::new(SimCounter::standard(machine.clock().clone())),
        );
        hooks.record(&mut machine, EventKind::Call, 1, 0);
        log.control().set_active(false);
        hooks.record(&mut machine, EventKind::Call, 2, 0);
        assert_eq!(log.drain().entries.len(), 1);
    }

    #[test]
    #[should_panic(expected = "too small")]
    fn undersized_region_rejected() {
        let shm = Arc::new(SharedMem::new(64));
        let _ = PartitionedLog::init(shm, &make_header(1, 100, true, 0, 0), 4, 100);
    }
}
