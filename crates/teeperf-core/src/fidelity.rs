//! Fidelity regimes: the shared regime word and the writer-side gate.
//!
//! When the drain cannot keep up with the writers, dropping entries on the
//! floor silently corrupts the profile. Instead the live drainer publishes
//! a *fidelity regime* through a dedicated header word
//! ([`crate::layout::OFF_REGIME`]) and the writer-side [`FidelityGate`]
//! honours it: in `Sampled(N)` only one in `N` call/return *pairs* is
//! admitted (pair-coherent, so no unmatched events are fabricated), and in
//! `Quiescent` nothing is admitted at all. The drain-side profile scales
//! `Sampled` aggregates back up by `N` so windows report *estimated*
//! totals with a disclosed confidence tag instead of silently
//! undercounting.
//!
//! ## The regime word
//!
//! A single 64-bit header word, stored and loaded atomically. The drainer
//! is the only writer; each publication is one whole-word store, so a
//! reader can never observe a half-updated value through the protocol
//! itself — the check byte exists to salvage *corruption* (a hostile or
//! crashed producer scribbling on the header) and to make torn
//! lo32/hi32 recombination detectable to the model checker:
//!
//! ```text
//! bits  0..32   regime epoch (increments on every publication)
//! bits 32..40   tag: 0 = Full, 1 = Sampled, 2 = Quiescent
//! bits 40..48   log2(N) for Sampled (0 otherwise)
//! bits 48..56   reserved, must be zero
//! bits 56..64   check byte: XOR fold of the seven other bytes
//! ```
//!
//! The epoch lives in the opposite half from the tag + N on purpose: a
//! torn read that combines the low half of one publication with the high
//! half of another fabricates an `(N, epoch)` pair that was never
//! published, and the check byte (computed over the whole word) catches
//! the mix. The all-zero word is the *valid* encoding of `Full` at regime
//! epoch 0, so freshly zeroed regions and pre-regime logs decode as full
//! fidelity without a salvage event.
//!
//! Decoders never panic on a bad word: [`decode_or_full`] falls back to
//! `Full` and reports the fallback so the caller can surface an event.

use crate::layout::EventKind;
use std::collections::HashMap;

/// Largest supported `log2(N)` for `Sampled`: 1-in-65536 pairs.
pub const MAX_LOG2_N: u8 = 16;

const TAG_FULL: u8 = 0;
const TAG_SAMPLED: u8 = 1;
const TAG_QUIESCENT: u8 = 2;

/// The fidelity regime a session is operating in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Regime {
    /// Every event is recorded; totals are exact.
    Full,
    /// One in `N` call/return pairs is recorded; totals are estimated by
    /// scaling admitted pairs up by `N`. `N` is always a power of two in
    /// `2..=2^MAX_LOG2_N`.
    Sampled(u32),
    /// Nothing is recorded; the session is alive but shedding all load.
    Quiescent,
}

impl Regime {
    /// The scale factor the estimator applies to admitted aggregates.
    pub fn scale(self) -> u64 {
        match self {
            Regime::Full => 1,
            Regime::Sampled(n) => u64::from(n),
            Regime::Quiescent => 1,
        }
    }

    /// The sampling divisor `N` (1 for `Full`, `u32::MAX` sentinel never
    /// used: `Quiescent` admits nothing regardless).
    pub fn divisor(self) -> u32 {
        match self {
            Regime::Full => 1,
            Regime::Sampled(n) => n,
            Regime::Quiescent => u32::MAX,
        }
    }

    /// Short lowercase label used on wire formats and badges.
    pub fn label(self) -> &'static str {
        match self {
            Regime::Full => "full",
            Regime::Sampled(_) => "sampled",
            Regime::Quiescent => "quiescent",
        }
    }

    fn tag(self) -> u8 {
        match self {
            Regime::Full => TAG_FULL,
            Regime::Sampled(_) => TAG_SAMPLED,
            Regime::Quiescent => TAG_QUIESCENT,
        }
    }

    fn log2_n(self) -> u8 {
        match self {
            Regime::Sampled(n) => n.trailing_zeros() as u8,
            _ => 0,
        }
    }

    /// Clamp an arbitrary divisor to a legal `Sampled` regime: rounded up
    /// to a power of two in `2..=2^MAX_LOG2_N`.
    pub fn sampled(n: u32) -> Regime {
        let n = n.clamp(2, 1 << MAX_LOG2_N).next_power_of_two();
        Regime::Sampled(n)
    }
}

impl std::fmt::Display for Regime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Regime::Full => write!(f, "full"),
            Regime::Sampled(n) => write!(f, "sampled(1/{n})"),
            Regime::Quiescent => write!(f, "quiescent"),
        }
    }
}

fn check_byte(word: u64) -> u8 {
    // XOR-fold bytes 0..7 (everything except the check byte itself).
    let b = word.to_le_bytes();
    b[0] ^ b[1] ^ b[2] ^ b[3] ^ b[4] ^ b[5] ^ b[6]
}

/// Encode a regime + regime epoch into the shared header word.
pub fn encode_regime(regime: Regime, regime_epoch: u32) -> u64 {
    let mut word = u64::from(regime_epoch);
    word |= u64::from(regime.tag()) << 32;
    word |= u64::from(regime.log2_n()) << 40;
    word |= u64::from(check_byte(word)) << 56;
    word
}

/// Decode the shared header word. `None` means the word is not a valid
/// publication (corrupt, or a torn lo/hi recombination) and the caller
/// must fall back to `Full`.
pub fn decode_regime(word: u64) -> Option<(Regime, u32)> {
    let b = word.to_le_bytes();
    if b[7] != check_byte(word) || b[6] != 0 {
        return None;
    }
    let epoch = (word & 0xffff_ffff) as u32;
    let log2_n = b[5];
    let regime = match b[4] {
        TAG_FULL if log2_n == 0 => Regime::Full,
        TAG_SAMPLED if (1..=MAX_LOG2_N).contains(&log2_n) => Regime::Sampled(1u32 << log2_n),
        TAG_QUIESCENT if log2_n == 0 => Regime::Quiescent,
        _ => return None,
    };
    Some((regime, epoch))
}

/// Decode without validating the check byte or the reserved bits — the
/// historical pre-check decoder the `TornRegimeRead` protocol mutation
/// re-introduces (see `teeperf-core`'s mutation module). Unknown tags map
/// to `Full`. Never use this on a live path: it happily accepts a torn
/// lo/hi recombination as a publication that never happened.
pub fn decode_unchecked(word: u64) -> (Regime, u32) {
    let b = word.to_le_bytes();
    let epoch = (word & 0xffff_ffff) as u32;
    let regime = match b[4] {
        TAG_SAMPLED => Regime::Sampled(1u32 << b[5].clamp(1, MAX_LOG2_N)),
        TAG_QUIESCENT => Regime::Quiescent,
        _ => Regime::Full,
    };
    (regime, epoch)
}

/// Decode with the documented fallback: an invalid word reads as `Full`
/// at regime epoch 0 and the `bool` reports that the fallback fired.
pub fn decode_or_full(word: u64) -> (Regime, u32, bool) {
    match decode_regime(word) {
        Some((r, e)) => (r, e, false),
        None => (Regime::Full, 0, true),
    }
}

/// SplitMix64 finalizer: decorrelates the pair counter from the admission
/// pattern so periodic call trees cannot alias with the 1-in-N stride.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// How often (in admission decisions) the gate re-reads the shared regime
/// word. Amortizes the shared load without letting the writer run a stale
/// regime for long.
pub const GATE_REFRESH_EVERY: u32 = 32;

/// Writer-side admission gate: pair-coherent 1-in-N sampling driven by
/// the shared regime word.
///
/// A decision is made once per *call* and remembered on a per-thread
/// stack; the matching return replays the same decision, so the admitted
/// event stream always consists of well-nested pairs no matter when the
/// regime changes. A return with an empty stack (its call predated the
/// gate, or the stack was lost to a crash) is always admitted — the
/// drain's existing salvage logic already copes with unmatched returns.
#[derive(Debug)]
pub struct FidelityGate {
    regime: Regime,
    regime_epoch: u32,
    fallback: bool,
    pair_counter: u64,
    decisions: u32,
    suppressed: u64,
    admitted: u64,
    stacks: HashMap<u64, Vec<bool>>,
}

impl Default for FidelityGate {
    fn default() -> Self {
        FidelityGate::new()
    }
}

impl FidelityGate {
    /// A gate starting in `Full` (the all-zero regime word).
    pub fn new() -> FidelityGate {
        FidelityGate {
            regime: Regime::Full,
            regime_epoch: 0,
            fallback: false,
            pair_counter: 0,
            decisions: 0,
            suppressed: 0,
            admitted: 0,
            stacks: HashMap::new(),
        }
    }

    /// Whether the next [`FidelityGate::admit`] wants a fresh read of the
    /// shared regime word (call [`FidelityGate::observe`] with it first).
    /// Always true on the first decision so the gate picks up the regime
    /// before admitting anything.
    pub fn needs_refresh(&self) -> bool {
        self.decisions.is_multiple_of(GATE_REFRESH_EVERY)
    }

    /// Feed a freshly loaded regime word into the gate. Returns `true`
    /// when the word failed validation and the gate fell back to `Full`.
    pub fn observe(&mut self, word: u64) -> bool {
        let (regime, epoch, fallback) = decode_or_full(word);
        self.regime = regime;
        self.regime_epoch = epoch;
        self.fallback = fallback;
        fallback
    }

    /// The regime the gate is currently honouring.
    pub fn regime(&self) -> Regime {
        self.regime
    }

    /// The regime epoch of the last observed publication.
    pub fn regime_epoch(&self) -> u32 {
        self.regime_epoch
    }

    /// Events suppressed by the gate so far (each suppressed call or
    /// return counts as one event). These are *disclosed* omissions, not
    /// drops: the drain knows the regime and scales estimates accordingly.
    pub fn suppressed(&self) -> u64 {
        self.suppressed
    }

    /// Events admitted through the gate so far.
    pub fn admitted(&self) -> u64 {
        self.admitted
    }

    /// Decide whether to record this event. Pair-coherent: the decision
    /// made at a `Call` is replayed at the matching `Return`.
    pub fn admit(&mut self, tid: u64, kind: EventKind) -> bool {
        self.decisions = self.decisions.wrapping_add(1);
        let admit = match kind {
            EventKind::Call => {
                let decision = match self.regime {
                    Regime::Full => true,
                    Regime::Quiescent => false,
                    Regime::Sampled(n) => {
                        let draw = mix(self.pair_counter);
                        self.pair_counter = self.pair_counter.wrapping_add(1);
                        draw.is_multiple_of(u64::from(n))
                    }
                };
                self.stacks.entry(tid).or_default().push(decision);
                decision
            }
            EventKind::Return => self
                .stacks
                .get_mut(&tid)
                .and_then(|s| s.pop())
                .unwrap_or(true),
        };
        if admit {
            self.admitted += 1;
        } else {
            self.suppressed += 1;
        }
        admit
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn zero_word_is_full_epoch_zero() {
        assert_eq!(decode_regime(0), Some((Regime::Full, 0)));
        assert_eq!(encode_regime(Regime::Full, 0), 0);
    }

    #[test]
    fn round_trips_all_regimes() {
        for regime in [
            Regime::Full,
            Regime::Sampled(2),
            Regime::Sampled(64),
            Regime::Sampled(1 << MAX_LOG2_N),
            Regime::Quiescent,
        ] {
            for epoch in [0u32, 1, 7, u32::MAX] {
                let w = encode_regime(regime, epoch);
                assert_eq!(decode_regime(w), Some((regime, epoch)), "{regime} @{epoch}");
            }
        }
    }

    #[test]
    fn corrupt_words_fall_back_to_full() {
        let good = encode_regime(Regime::Sampled(8), 41);
        for flip in 0..64 {
            let bad = good ^ (1u64 << flip);
            // Any single-bit flip breaks the XOR check byte (the check
            // byte covers every other byte, and flipping the check byte
            // itself also mismatches).
            let (r, e, fallback) = decode_or_full(bad);
            assert!(fallback, "bit {flip} accepted");
            assert_eq!((r, e), (Regime::Full, 0));
        }
    }

    #[test]
    fn torn_lo_hi_recombination_is_detected() {
        // Low half of epoch-1 publication, high half of epoch-2: the
        // check byte was computed over epoch 2's low bytes, so the mix
        // fails validation.
        let a = encode_regime(Regime::Full, 1);
        let b = encode_regime(Regime::Sampled(4), 2);
        let torn = (a & 0xffff_ffff) | (b & !0xffff_ffff);
        assert_eq!(decode_regime(torn), None);
    }

    #[test]
    fn invalid_tag_and_reserved_bits_rejected() {
        // Tag 3 with a self-consistent check byte: still rejected.
        let mut w = u64::from(3u8) << 32;
        w |= u64::from(super::check_byte(w)) << 56;
        assert_eq!(decode_regime(w), None);
        // Sampled with log2_n = 0 (N=1) is not a legal publication.
        let mut w = u64::from(TAG_SAMPLED) << 32;
        w |= u64::from(super::check_byte(w)) << 56;
        assert_eq!(decode_regime(w), None);
        // Reserved byte set.
        let mut w = 1u64 << 48;
        w |= u64::from(super::check_byte(w)) << 56;
        assert_eq!(decode_regime(w), None);
    }

    #[test]
    fn sampled_constructor_clamps_to_power_of_two() {
        assert_eq!(Regime::sampled(0), Regime::Sampled(2));
        assert_eq!(Regime::sampled(3), Regime::Sampled(4));
        assert_eq!(Regime::sampled(64), Regime::Sampled(64));
        assert_eq!(Regime::sampled(u32::MAX), Regime::Sampled(1 << MAX_LOG2_N));
    }

    #[test]
    fn gate_full_admits_everything() {
        let mut g = FidelityGate::new();
        for i in 0..100u64 {
            assert!(g.admit(i % 3, EventKind::Call));
            assert!(g.admit(i % 3, EventKind::Return));
        }
        assert_eq!(g.suppressed(), 0);
        assert_eq!(g.admitted(), 200);
    }

    #[test]
    fn gate_quiescent_suppresses_pairs() {
        let mut g = FidelityGate::new();
        g.observe(encode_regime(Regime::Quiescent, 1));
        assert!(!g.admit(0, EventKind::Call));
        assert!(!g.admit(0, EventKind::Return));
        assert_eq!(g.suppressed(), 2);
    }

    #[test]
    fn gate_decisions_are_pair_coherent_across_regime_change() {
        let mut g = FidelityGate::new();
        // Call admitted under Full…
        assert!(g.admit(7, EventKind::Call));
        // …regime flips to Quiescent before the return…
        g.observe(encode_regime(Regime::Quiescent, 1));
        // …the matching return replays the Call's decision.
        assert!(g.admit(7, EventKind::Return));
        // A new pair under Quiescent is fully suppressed.
        assert!(!g.admit(7, EventKind::Call));
        assert!(!g.admit(7, EventKind::Return));
    }

    #[test]
    fn gate_unmatched_return_is_admitted() {
        let mut g = FidelityGate::new();
        g.observe(encode_regime(Regime::Quiescent, 3));
        assert!(g.admit(9, EventKind::Return));
    }

    #[test]
    fn gate_falls_back_to_full_on_corrupt_word() {
        let mut g = FidelityGate::new();
        g.observe(encode_regime(Regime::Quiescent, 1));
        assert!(!g.admit(0, EventKind::Call));
        let fallback = g.observe(encode_regime(Regime::Sampled(8), 2) ^ (1 << 13));
        assert!(fallback);
        assert_eq!(g.regime(), Regime::Full);
        assert!(g.admit(1, EventKind::Call));
    }

    #[test]
    fn gate_sampled_admission_rate_is_roughly_one_in_n() {
        let mut g = FidelityGate::new();
        g.observe(encode_regime(Regime::Sampled(4), 1));
        let mut admitted = 0u64;
        let pairs = 4000u64;
        for _ in 0..pairs {
            if g.admit(0, EventKind::Call) {
                admitted += 1;
                assert!(g.admit(0, EventKind::Return));
            } else {
                assert!(!g.admit(0, EventKind::Return));
            }
        }
        // Hashed admission: expect ~1000 of 4000, allow wide slack.
        assert!((700..=1300).contains(&admitted), "admitted {admitted}");
    }

    proptest! {
        #[test]
        fn prop_encode_decode_round_trips(epoch: u32, log2_n in 1u8..=MAX_LOG2_N, tag in 0u8..3) {
            let regime = match tag {
                0 => Regime::Full,
                1 => Regime::Sampled(1u32 << log2_n),
                _ => Regime::Quiescent,
            };
            prop_assert_eq!(decode_regime(encode_regime(regime, epoch)), Some((regime, epoch)));
        }

        #[test]
        fn prop_gate_never_records_unpaired_call(n_log2 in 1u8..8, ops in proptest::collection::vec((0u64..4, any::<bool>()), 1..200)) {
            // Drive nested call/return streams per tid and check the
            // admitted stream is well nested per tid.
            let mut g = FidelityGate::new();
            g.observe(encode_regime(Regime::Sampled(1 << n_log2), 1));
            let mut depth: HashMap<u64, u64> = HashMap::new();
            let mut admitted_depth: HashMap<u64, i64> = HashMap::new();
            for (tid, call) in ops {
                let d = depth.entry(tid).or_default();
                let kind = if call || *d == 0 { EventKind::Call } else { EventKind::Return };
                match kind {
                    EventKind::Call => *d += 1,
                    EventKind::Return => *d -= 1,
                }
                if g.admit(tid, kind) {
                    let ad = admitted_depth.entry(tid).or_default();
                    match kind {
                        EventKind::Call => *ad += 1,
                        EventKind::Return => *ad -= 1,
                    }
                    prop_assert!(*ad >= 0, "admitted stream dipped below root");
                }
            }
        }
    }
}
