//! Address → function-name resolution (the `addr2line` + `c++filt` stage).
//!
//! The recorder stores the runtime address of a well-known anchor function
//! in the log header; comparing it with the anchor's static address in the
//! debug info yields the relocation offset of position-independent code
//! (§II-B: "to be able to easily determine the mapping offset of
//! relocatable code").
//!
//! Resolution is memoized: each unique runtime address is looked up and
//! demangled exactly once per [`Symbolizer`], and distinct addresses that
//! resolve to the same function share one interned string. The analyzer's
//! hot joins (folded-stack merging, caller-edge naming) therefore compare
//! small integer [`SymId`]s instead of re-demangling and re-hashing full
//! symbol strings per call.

// teeperf-lint: allow(raw-atomics, file): hit/miss counters on the
// analyzer's host-side memo cache — statistics, not shared-log protocol
// state; never subject to schedule exploration.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::RwLock;

use mcvm::debuginfo::{demangle, DebugInfo};
use teeperf_core::layout::LogHeader;

/// An interned symbol: an index into the symbolizer's name table. Two ids
/// are equal iff the demangled names are equal — the property the folded
/// merge relies on (two different addresses inside one function intern to
/// the same id).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SymId(pub u32);

/// Cache accounting for one symbolizer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SymbolCacheStats {
    /// Lookups answered from the address cache.
    pub hits: u64,
    /// Lookups that resolved and demangled a fresh address.
    pub misses: u64,
    /// Distinct interned names.
    pub unique_names: u64,
}

#[derive(Debug, Default)]
struct InternTable {
    /// runtime address → interned name.
    by_addr: HashMap<u64, SymId>,
    /// demangled name → interned id (dedups aliased addresses).
    by_name: HashMap<String, SymId>,
    /// id → name, indexed by `SymId.0`.
    names: Vec<String>,
}

impl InternTable {
    fn intern_name(&mut self, name: &str) -> SymId {
        if let Some(id) = self.by_name.get(name) {
            return *id;
        }
        let id = SymId(u32::try_from(self.names.len()).expect("fewer than 2^32 symbols"));
        self.names.push(name.to_string());
        self.by_name.insert(name.to_string(), id);
        id
    }
}

/// Symbol resolver bound to one binary's debug info and one log's
/// relocation state.
#[derive(Debug)]
pub struct Symbolizer {
    debug: DebugInfo,
    /// runtime_addr - static_addr.
    offset: i64,
    /// Set when the anchor could not be trusted (see [`Symbolizer::new`]).
    anchor_warning: Option<String>,
    intern: RwLock<InternTable>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl Clone for Symbolizer {
    fn clone(&self) -> Symbolizer {
        // The cache is a memo, not state: a clone starts cold and refills
        // on demand, which keeps hit/miss accounting per-instance.
        Symbolizer {
            debug: self.debug.clone(),
            offset: self.offset,
            anchor_warning: self.anchor_warning.clone(),
            intern: RwLock::new(InternTable::default()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }
}

impl Symbolizer {
    /// Build a symbolizer; the relocation offset is derived from the log
    /// header's anchor, which the recorder set to the runtime address of
    /// the binary's first function.
    ///
    /// When the debug info has *no* functions there is no static anchor to
    /// compare against. Treating the missing anchor as `0` would turn a
    /// perfectly valid header anchor into a bogus relocation offset and
    /// shift every lookup; instead the symbolizer falls back to no
    /// relocation and records a warning (every address then renders as raw
    /// hex, which is at least honest).
    pub fn new(debug: DebugInfo, header: &LogHeader) -> Symbolizer {
        let mut anchor_warning = None;
        let offset = match debug.functions().first() {
            _ if header.anchor == 0 => 0, // anchor never set: assume no relocation
            Some(f) => header.anchor as i64 - f.base_addr as i64,
            None => {
                anchor_warning = Some(format!(
                    "debug info has no functions: ignoring header anchor {:#x} \
                     (assuming no relocation)",
                    header.anchor
                ));
                0
            }
        };
        Symbolizer {
            debug,
            offset,
            anchor_warning,
            intern: RwLock::new(InternTable::default()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// A symbolizer with no relocation (tests, native-API profiles).
    pub fn without_relocation(debug: DebugInfo) -> Symbolizer {
        Symbolizer {
            debug,
            offset: 0,
            anchor_warning: None,
            intern: RwLock::new(InternTable::default()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// The warning raised when the header anchor had to be ignored, if any.
    pub fn anchor_warning(&self) -> Option<&str> {
        self.anchor_warning.as_deref()
    }

    /// The bound debug info.
    pub fn debug(&self) -> &DebugInfo {
        &self.debug
    }

    /// Translate a runtime address to its static (debug-info) address.
    fn to_static(&self, runtime_addr: u64) -> u64 {
        runtime_addr.wrapping_add_signed(-self.offset)
    }

    /// The uncached resolution: debug-info lookup plus demangling.
    fn resolve_fresh(&self, runtime_addr: u64) -> String {
        match self.debug.function_at(self.to_static(runtime_addr)) {
            Some(f) => demangle(&f.mangled).unwrap_or_else(|| f.mangled.clone()),
            None => format!("{runtime_addr:#x}"),
        }
    }

    /// Intern a runtime address: resolve + demangle on first sight, serve
    /// every later lookup of the same address from the cache.
    pub fn intern(&self, runtime_addr: u64) -> SymId {
        if let Some(id) = self
            .intern
            .read()
            .expect("symbol cache poisoned")
            .by_addr
            .get(&runtime_addr)
        {
            // ord: Relaxed — independent statistic; nothing is published
            // under it.
            self.hits.fetch_add(1, Ordering::Relaxed);
            return *id;
        }
        // Resolve outside the lock; a racing thread resolving the same
        // address just converges on the same interned name.
        let name = self.resolve_fresh(runtime_addr);
        // ord: Relaxed — independent statistic; nothing is published
        // under it.
        self.misses.fetch_add(1, Ordering::Relaxed);
        let mut table = self.intern.write().expect("symbol cache poisoned");
        let id = table.intern_name(&name);
        table.by_addr.insert(runtime_addr, id);
        id
    }

    /// The interned name behind an id.
    ///
    /// # Panics
    /// Panics if `id` did not come from this symbolizer.
    pub fn resolve(&self, id: SymId) -> String {
        self.intern.read().expect("symbol cache poisoned").names[id.0 as usize].clone()
    }

    /// Resolve a runtime address to a demangled function name;
    /// unresolvable addresses render as `0x…` (like `perf`'s raw frames).
    /// Cached: each unique address pays for resolution once.
    pub fn name_of(&self, runtime_addr: u64) -> String {
        let id = self.intern(runtime_addr);
        self.resolve(id)
    }

    /// Cache accounting so far.
    pub fn cache_stats(&self) -> SymbolCacheStats {
        SymbolCacheStats {
            // ord: Relaxed — a point-in-time statistics snapshot; exact
            // cross-counter consistency is not promised.
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            unique_names: self
                .intern
                .read()
                .expect("symbol cache poisoned")
                .names
                .len() as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use teeperf_core::layout::LOG_VERSION;

    fn debug() -> DebugInfo {
        DebugInfo::from_functions([("main", 10, 1), ("worker", 5, 9)])
    }

    fn header_with_anchor(anchor: u64) -> LogHeader {
        LogHeader {
            active: false,
            trace_calls: true,
            trace_returns: true,
            multithread: false,
            version: LOG_VERSION,
            pid: 1,
            size: 10,
            tail: 0,
            anchor,
            shm_addr: 0,
        }
    }

    #[test]
    fn resolves_without_relocation() {
        let d = debug();
        let main_addr = d.entry_addr(0);
        let worker_addr = d.entry_addr(1);
        let s = Symbolizer::new(d, &header_with_anchor(main_addr));
        assert_eq!(s.offset, 0);
        assert_eq!(s.name_of(main_addr), "main");
        assert_eq!(s.name_of(worker_addr), "worker");
    }

    #[test]
    fn resolves_relocated_addresses() {
        let d = debug();
        let static_main = d.entry_addr(0);
        let static_worker = d.entry_addr(1);
        let slide = 0x1000;
        // The binary was loaded `slide` bytes higher than its static layout.
        let s = Symbolizer::new(d, &header_with_anchor(static_main + slide));
        assert_eq!(s.offset, slide as i64);
        assert_eq!(s.name_of(static_worker + slide), "worker");
        // The unrelocated address now points before `worker`'s slid range —
        // it must NOT resolve to worker.
        assert_ne!(s.name_of(static_worker), "worker");
    }

    #[test]
    fn unknown_address_renders_hex() {
        let s = Symbolizer::without_relocation(debug());
        assert_eq!(s.name_of(0x1), "0x1");
    }

    #[test]
    fn zero_anchor_means_no_relocation() {
        let d = debug();
        let main_addr = d.entry_addr(0);
        let s = Symbolizer::new(d, &header_with_anchor(0));
        assert_eq!(s.offset, 0);
        assert_eq!(s.name_of(main_addr), "main");
        assert!(s.anchor_warning().is_none());
    }

    #[test]
    fn empty_debug_info_ignores_anchor_with_warning() {
        // Regression: zero functions used to silently pretend the static
        // anchor was 0, turning a valid runtime anchor into a huge bogus
        // relocation offset. Now: no relocation, explicit warning.
        let s = Symbolizer::new(DebugInfo::default(), &header_with_anchor(0x7000_0000));
        assert_eq!(s.offset, 0);
        assert!(
            s.anchor_warning().expect("warning").contains("0x70000000"),
            "{:?}",
            s.anchor_warning()
        );
        assert_eq!(s.name_of(0x42), "0x42");

        // No anchor + no functions stays silent: nothing was ignored.
        let silent = Symbolizer::new(DebugInfo::default(), &header_with_anchor(0));
        assert!(silent.anchor_warning().is_none());
    }

    #[test]
    fn cache_counts_hits_and_misses() {
        let d = debug();
        let main_addr = d.entry_addr(0);
        let worker_addr = d.entry_addr(1);
        let s = Symbolizer::without_relocation(d);
        assert_eq!(s.cache_stats(), SymbolCacheStats::default());

        assert_eq!(s.name_of(main_addr), "main"); // miss
        assert_eq!(s.name_of(main_addr), "main"); // hit
        assert_eq!(s.name_of(worker_addr), "worker"); // miss
        assert_eq!(s.name_of(main_addr), "main"); // hit
        let stats = s.cache_stats();
        assert_eq!(stats.hits, 2);
        assert_eq!(stats.misses, 2);
        assert_eq!(stats.unique_names, 2);
    }

    #[test]
    fn aliased_addresses_intern_to_one_id() {
        // Two distinct addresses inside `main`'s range demangle to the same
        // name and must share one SymId (the folded-merge invariant).
        let d = debug();
        let main_addr = d.entry_addr(0);
        let s = Symbolizer::without_relocation(d);
        let a = s.intern(main_addr);
        let b = s.intern(main_addr + 4);
        assert_eq!(a, b);
        assert_eq!(s.resolve(a), "main");
        let stats = s.cache_stats();
        assert_eq!(stats.misses, 2, "each address resolved once");
        assert_eq!(stats.unique_names, 1, "one shared string");
    }

    #[test]
    fn clone_starts_with_a_cold_cache() {
        let d = debug();
        let addr = d.entry_addr(0);
        let s = Symbolizer::without_relocation(d);
        s.name_of(addr);
        let c = s.clone();
        assert_eq!(c.cache_stats(), SymbolCacheStats::default());
        assert_eq!(c.name_of(addr), "main");
    }
}
