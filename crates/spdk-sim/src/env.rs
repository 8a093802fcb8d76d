//! The SPDK environment layer: process id and timestamp services.
//!
//! This is the entire difference between the paper's naive and optimized
//! enclave ports. The data path itself is syscall-free (polled user-space
//! I/O); what killed the naive port were the *environment* calls —
//! `getpid` in the request allocator and `rdtsc` in the tick counter —
//! each a full ocall inside SGX.
//!
//! * [`SpdkEnv::naive`] — call through every time (native behaviour; fine
//!   on the host, catastrophic in an enclave);
//! * [`SpdkEnv::optimized`] — cache the pid forever ("unproblematic", per
//!   the paper) and serve ticks from a cache that is *corrected by a real
//!   read every `refresh_interval` calls*, extrapolating in between.

use tee_sim::{Machine, Syscalls};

/// Cycles for serving a value from the cache (a load + branch).
const CACHED_CYCLES: u64 = 4;
/// Cycles added to an extrapolated tick estimate (reading the estimate
/// counter and scaling).
const EXTRAPOLATE_CYCLES: u64 = 6;

/// Timestamp/pid provider for the SPDK data path.
#[derive(Debug, Clone)]
pub enum SpdkEnv {
    /// Issue the real syscall on every request.
    Naive,
    /// Cache pid and ticks; correct ticks every `refresh_interval` calls.
    Optimized {
        /// Calls between corrective real timestamp reads.
        refresh_interval: u64,
        /// Cached pid, filled on first use.
        pid: Option<u64>,
        /// Last real tick value read.
        cached_ticks: u64,
        /// Calls since the last correction.
        calls_since_refresh: u64,
    },
}

impl SpdkEnv {
    /// The naive port: every env call is a syscall (ocall in a TEE).
    pub fn naive() -> SpdkEnv {
        SpdkEnv::Naive
    }

    /// The optimized port with the paper's caching fix.
    pub fn optimized(refresh_interval: u64) -> SpdkEnv {
        assert!(refresh_interval > 0, "refresh interval must be nonzero");
        SpdkEnv::Optimized {
            refresh_interval,
            pid: None,
            cached_ticks: 0,
            calls_since_refresh: 0,
        }
    }

    /// `spdk_env_get_pid`: the process id.
    pub fn getpid(&mut self, machine: &mut Machine) -> u64 {
        match self {
            SpdkEnv::Naive => machine.syscall(Syscalls::Getpid),
            SpdkEnv::Optimized { pid, .. } => match pid {
                Some(p) => {
                    machine.compute(CACHED_CYCLES);
                    *p
                }
                None => {
                    let p = machine.syscall(Syscalls::Getpid);
                    *pid = Some(p);
                    p
                }
            },
        }
    }

    /// `spdk_get_ticks` → `rdtsc`: the timestamp counter.
    ///
    /// The optimized variant returns a *slightly stale* value between
    /// corrections — the accuracy/performance trade the paper accepted.
    pub fn get_ticks(&mut self, machine: &mut Machine) -> u64 {
        match self {
            SpdkEnv::Naive => machine.syscall(Syscalls::Rdtsc),
            SpdkEnv::Optimized {
                refresh_interval,
                cached_ticks,
                calls_since_refresh,
                ..
            } => {
                *calls_since_refresh += 1;
                if *calls_since_refresh >= *refresh_interval || *cached_ticks == 0 {
                    *cached_ticks = machine.syscall(Syscalls::Rdtsc);
                    *calls_since_refresh = 0;
                    *cached_ticks
                } else {
                    machine.compute(CACHED_CYCLES + EXTRAPOLATE_CYCLES);
                    // Crude forward estimate so time never appears frozen.
                    *cached_ticks += EXTRAPOLATE_CYCLES;
                    *cached_ticks
                }
            }
        }
    }

    /// Whether the *next* `getpid` will issue a real syscall (rather than
    /// return the cached pid). The profiler uses this to attribute frames
    /// faithfully: the optimized port simply never calls `getpid(2)` again,
    /// so no `getpid` frame should appear.
    pub fn next_getpid_is_real(&self) -> bool {
        match self {
            SpdkEnv::Naive => true,
            SpdkEnv::Optimized { pid, .. } => pid.is_none(),
        }
    }

    /// Whether the *next* `get_ticks` will read the hardware counter (a
    /// corrective refresh) rather than extrapolate from the cache.
    pub fn next_ticks_is_real(&self) -> bool {
        match self {
            SpdkEnv::Naive => true,
            SpdkEnv::Optimized {
                refresh_interval,
                cached_ticks,
                calls_since_refresh,
                ..
            } => *cached_ticks == 0 || calls_since_refresh + 1 >= *refresh_interval,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tee_sim::CostModel;

    fn enclave_machine() -> Machine {
        let mut m = Machine::new(CostModel::sgx_v1());
        m.ecall();
        m
    }

    #[test]
    fn naive_pays_an_ocall_per_call() {
        let mut m = enclave_machine();
        let mut env = SpdkEnv::naive();
        for _ in 0..5 {
            env.getpid(&mut m);
            env.get_ticks(&mut m);
        }
        assert_eq!(m.stats().ocalls, 10);
    }

    #[test]
    fn optimized_pays_one_getpid_ever() {
        let mut m = enclave_machine();
        let mut env = SpdkEnv::optimized(100);
        let p1 = env.getpid(&mut m);
        let after_first = m.stats().ocalls;
        for _ in 0..100 {
            assert_eq!(env.getpid(&mut m), p1);
        }
        assert_eq!(m.stats().ocalls, after_first);
    }

    #[test]
    fn optimized_ticks_refresh_periodically() {
        let mut m = enclave_machine();
        let mut env = SpdkEnv::optimized(10);
        let mut real_reads = m.stats().ocalls;
        env.get_ticks(&mut m); // first call is a real read
        real_reads = m.stats().ocalls - real_reads;
        assert_eq!(real_reads, 1);
        let before = m.stats().ocalls;
        for _ in 0..30 {
            env.get_ticks(&mut m);
        }
        let refreshes = m.stats().ocalls - before;
        assert_eq!(refreshes, 3, "every 10th call corrects");
    }

    #[test]
    fn optimized_ticks_are_monotone_and_roughly_tracking() {
        let mut m = enclave_machine();
        let mut env = SpdkEnv::optimized(8);
        let mut last = 0;
        for _ in 0..50 {
            m.compute(1_000);
            let t = env.get_ticks(&mut m);
            assert!(t >= last, "ticks went backwards");
            last = t;
        }
        // After the most recent correction the cache is within one refresh
        // window of real time.
        let real = m.clock().now();
        assert!(
            real.abs_diff(last) < 20_000,
            "cache drifted: {last} vs {real}"
        );
    }

    #[test]
    fn optimized_is_cheaper_in_the_enclave() {
        let cost_of = |env: &mut SpdkEnv| {
            let mut m = enclave_machine();
            let t0 = m.clock().now();
            for _ in 0..100 {
                env.getpid(&mut m);
                env.get_ticks(&mut m);
            }
            m.clock().now() - t0
        };
        let naive = cost_of(&mut SpdkEnv::naive());
        let optimized = cost_of(&mut SpdkEnv::optimized(128));
        assert!(
            naive > optimized * 20,
            "naive {naive} should dwarf optimized {optimized}"
        );
    }
}
