//! Counter sources for timestamps inside the TEE.
//!
//! The paper's key trick for architecture independence: if no trustworthy
//! hardware counter is reachable from inside the TEE, the recorder runs a
//! host thread that increments a word of shared memory in a tight loop. The
//! counter "sacrifices an entire core" but provides a fine, monotone,
//! relative clock with a tiny cache footprint (§II-B, stage 2).
//!
//! Three sources are provided:
//!
//! * [`SpinCounter`] — the real thing: an OS thread spinning on the shared
//!   word. Non-deterministic; used in runtime tests and available to users.
//! * [`SimCounter`] — deterministic: derives the counter from the simulated
//!   machine's virtual clock, modeling a spin thread that increments once
//!   every `period` cycles. All figures are produced with this source.
//! * [`TscCounter`] — models reading an architecture timestamp counter
//!   (`rdtsc`) directly; usable only where the TEE exposes one. Exists for
//!   the counter-source ablation.

// teeperf-lint: allow(raw-atomics, file): the spin thread's private stop
// flag is host-side control state, not shared-log words — the log itself
// is only touched through SharedLog's seam-routed accessors.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use tee_sim::Clock;

use crate::log::SharedLog;

/// A source of monotonically nondecreasing counter values.
pub trait CounterSource: Send {
    /// Read the current counter value.
    fn read(&self) -> u64;
    /// Human-readable source name for reports.
    fn name(&self) -> &'static str;
    /// Extra enclave-side cycles to charge per read, *beyond* the shared
    /// memory access the hook already performs (e.g. `rdtsc` latency).
    fn read_cycles(&self) -> u64 {
        0
    }
}

/// The paper's software counter: a host thread incrementing the counter
/// word of the shared log in a tight loop.
///
/// The thread stops when the `SpinCounter` is dropped.
#[derive(Debug)]
pub struct SpinCounter {
    log: SharedLog,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<u64>>,
}

impl SpinCounter {
    /// Start the spin thread over the given log's counter word.
    pub fn start(log: SharedLog) -> SpinCounter {
        let stop = Arc::new(AtomicBool::new(false));
        let thread_stop = Arc::clone(&stop);
        let thread_log = log.clone();
        let handle = std::thread::Builder::new()
            .name("teeperf-counter".into())
            .spawn(move || {
                let mut v: u64 = 0;
                // ord: Relaxed — the flag is a standalone quit signal; the
                // join below is the real synchronization edge.
                while !thread_stop.load(Ordering::Relaxed) {
                    v += 1;
                    thread_log.store_counter(v);
                }
                v
            })
            .expect("spawn counter thread");
        SpinCounter {
            log,
            stop,
            handle: Some(handle),
        }
    }

    /// Stop the spin thread and return the final counter value.
    pub fn stop(mut self) -> u64 {
        self.stop_inner()
    }

    fn stop_inner(&mut self) -> u64 {
        // ord: Relaxed — pairs with the Relaxed poll in the spin loop; the
        // subsequent join() orders everything that matters.
        self.stop.store(true, Ordering::Relaxed);
        match self.handle.take() {
            Some(h) => h.join().expect("counter thread panicked"),
            None => self.log.counter_value(),
        }
    }
}

impl Drop for SpinCounter {
    fn drop(&mut self) {
        self.stop_inner();
    }
}

impl CounterSource for SpinCounter {
    fn read(&self) -> u64 {
        self.log.counter_value()
    }

    fn name(&self) -> &'static str {
        "software-spin"
    }
}

/// Deterministic software counter driven by the simulator's virtual clock:
/// models a spin thread that completes one increment every `period` cycles.
#[derive(Debug, Clone)]
pub struct SimCounter {
    clock: Clock,
    period: u64,
}

impl SimCounter {
    /// A counter ticking once per `period` cycles of virtual time. The
    /// default period used throughout the evaluation is 4 cycles — roughly
    /// one increment per store-buffer drain of a real spin loop.
    pub fn new(clock: Clock, period: u64) -> SimCounter {
        assert!(period > 0, "period must be nonzero");
        SimCounter { clock, period }
    }

    /// The evaluation-default counter (period 4).
    pub fn standard(clock: Clock) -> SimCounter {
        SimCounter::new(clock, 4)
    }

    /// Convert a counter-tick delta back to cycles.
    pub fn ticks_to_cycles(&self, ticks: u64) -> u64 {
        ticks * self.period
    }
}

impl CounterSource for SimCounter {
    fn read(&self) -> u64 {
        self.clock.now() / self.period
    }

    fn name(&self) -> &'static str {
        "software-sim"
    }
}

/// A hardware timestamp counter (`rdtsc`-style): exact cycle resolution,
/// small fixed read latency, but architecture-dependent — the thing
/// TEE-Perf exists to avoid relying on.
#[derive(Debug, Clone)]
pub struct TscCounter {
    clock: Clock,
    latency: u64,
}

impl TscCounter {
    /// A TSC read with the given latency in cycles (30 on the paper's Xeon).
    pub fn new(clock: Clock, latency: u64) -> TscCounter {
        TscCounter { clock, latency }
    }
}

impl CounterSource for TscCounter {
    fn read(&self) -> u64 {
        self.clock.now()
    }

    fn name(&self) -> &'static str {
        "hardware-tsc"
    }

    fn read_cycles(&self) -> u64 {
        self.latency
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::{make_header, region_bytes};
    use tee_sim::SharedMem;

    fn test_log() -> SharedLog {
        let shm = Arc::new(SharedMem::new(region_bytes(4)));
        SharedLog::init(shm, &make_header(1, 4, false, 0, 0))
    }

    #[test]
    fn spin_counter_advances_and_stops() {
        let log = test_log();
        let counter = SpinCounter::start(log.clone());
        // Wait for visible progress against a deadline: a loaded host may
        // take a long while to first schedule the spin thread.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
        let mut last = counter.read();
        while last <= 1_000 && std::time::Instant::now() < deadline {
            std::thread::yield_now();
            last = counter.read();
        }
        assert!(last > 0, "spin counter never advanced");
        let final_v = counter.stop();
        assert!(final_v >= last);
        // After stop the stored value no longer changes.
        let a = log.counter_value();
        std::thread::sleep(std::time::Duration::from_millis(5));
        assert_eq!(log.counter_value(), a);
    }

    #[test]
    fn spin_counter_drop_joins_thread() {
        let log = test_log();
        {
            let _c = SpinCounter::start(log.clone());
            std::thread::yield_now();
        } // must not hang or leak
        let a = log.counter_value();
        std::thread::sleep(std::time::Duration::from_millis(5));
        assert_eq!(log.counter_value(), a);
    }

    #[test]
    fn sim_counter_is_deterministic_function_of_clock() {
        let clock = Clock::new();
        let c = SimCounter::new(clock.clone(), 4);
        assert_eq!(c.read(), 0);
        clock.advance(7);
        assert_eq!(c.read(), 1);
        clock.advance(1);
        assert_eq!(c.read(), 2);
        assert_eq!(c.ticks_to_cycles(2), 8);
        assert_eq!(c.name(), "software-sim");
        assert_eq!(c.read_cycles(), 0);
    }

    #[test]
    fn tsc_counter_reads_cycles_exactly() {
        let clock = Clock::new();
        let c = TscCounter::new(clock.clone(), 30);
        clock.advance(12_345);
        assert_eq!(c.read(), 12_345);
        assert_eq!(c.read_cycles(), 30);
        assert_eq!(c.name(), "hardware-tsc");
    }

    #[test]
    #[should_panic(expected = "period")]
    fn sim_counter_rejects_zero_period() {
        let _ = SimCounter::new(Clock::new(), 0);
    }
}
