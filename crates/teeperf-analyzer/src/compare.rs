//! Profile comparison: the before/after-optimization workflow of the
//! paper's SPDK case study, as a first-class operation. The log header's
//! process id exists precisely to tell runs apart in the analysis phase
//! (§II-B); `diff` is what the developer does next.

use std::collections::BTreeMap;

use crate::query::frame::Frame;
use crate::query::windowed::MethodRow;

/// Compare two method tables name by name.
///
/// Each side is a table of method rows, `(name, calls, inclusive,
/// exclusive)`, one per name: a profile's [`Profile::method_rows`], or a
/// window's rows summed by name ([`NameSums::rows`]). Produces a queryable
/// frame with one row per name on either side: `method, a_pct, b_pct,
/// delta_pct, a_calls, b_calls`, where a percentage is the name's
/// exclusive ticks as a share of its side's summed exclusive ticks (a
/// profile's `total_ticks`) and `delta_pct = b_pct - a_pct` (negative =
/// the method shrank — mission accomplished). Rows are sorted by
/// `delta_pct` ascending, ties in name order, so the biggest wins come
/// first.
///
/// [`Profile::method_rows`]: crate::profile::Profile::method_rows
/// [`NameSums::rows`]: crate::profile::NameSums::rows
pub fn diff<'a>(
    a: impl IntoIterator<Item = MethodRow<'a>>,
    b: impl IntoIterator<Item = MethodRow<'a>>,
) -> Frame {
    // name → (calls, exclusive) of side a and side b, names ascending.
    let mut joined: BTreeMap<&str, [(u64, u64); 2]> = BTreeMap::new();
    let mut totals = [0u64; 2];
    let sides = a.into_iter().map(|row| (0, row));
    for (side, (name, calls, _, exclusive)) in sides.chain(b.into_iter().map(|row| (1, row))) {
        let at = &mut joined.entry(name).or_default()[side];
        *at = (at.0 + calls, at.1 + exclusive);
        totals[side] += exclusive;
    }
    let pct = |side: usize, exclusive: u64| {
        if totals[side] == 0 {
            0.0
        } else {
            100.0 * exclusive as f64 / totals[side] as f64
        }
    };

    let mut rows: Vec<(&str, f64, f64, i64, i64)> = joined
        .into_iter()
        .map(|(name, [(a_calls, a_excl), (b_calls, b_excl)])| {
            let (a_pct, b_pct) = (pct(0, a_excl), pct(1, b_excl));
            (name, a_pct, b_pct, a_calls as i64, b_calls as i64)
        })
        .collect();
    rows.sort_by(|x, y| (x.2 - x.1).total_cmp(&(y.2 - y.1)));

    let mut f = Frame::new();
    f.push_str_column("method", rows.iter().map(|r| r.0.to_string()).collect());
    f.push_float_column("a_pct", rows.iter().map(|r| r.1).collect());
    f.push_float_column("b_pct", rows.iter().map(|r| r.2).collect());
    f.push_float_column("delta_pct", rows.iter().map(|r| r.2 - r.1).collect());
    f.push_int_column("a_calls", rows.iter().map(|r| r.3).collect());
    f.push_int_column("b_calls", rows.iter().map(|r| r.4).collect());
    f
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::Profile;
    use crate::query::frame::Column;
    use crate::symbolize::Symbolizer;
    use mcvm::DebugInfo;
    use teeperf_core::layout::{EventKind, LogEntry, LogHeader, LOG_VERSION};
    use teeperf_core::LogFile;

    fn profile_from(spans: &[(&str, u64)]) -> Profile {
        // Build a flat log: each method runs once, sequentially, for the
        // given number of ticks.
        let debug = DebugInfo::from_functions(spans.iter().map(|(n, _)| (*n, 4u64, 1u32)));
        let mut entries = Vec::new();
        let mut t = 1_000u64;
        for (i, (_, ticks)) in spans.iter().enumerate() {
            entries.push(LogEntry {
                kind: EventKind::Call,
                counter: t,
                addr: debug.entry_addr(i as u16),
                tid: 0,
            });
            t += ticks;
            entries.push(LogEntry {
                kind: EventKind::Return,
                counter: t,
                addr: debug.entry_addr(i as u16),
                tid: 0,
            });
        }
        let log = LogFile::new(
            LogHeader {
                active: false,
                trace_calls: true,
                trace_returns: true,
                multithread: false,
                version: LOG_VERSION,
                pid: 1,
                size: 1000,
                tail: entries.len() as u64,
                anchor: 0,
                shm_addr: 0,
            },
            entries,
        );
        crate::profile::build(&log, &Symbolizer::without_relocation(debug))
    }

    #[test]
    fn diff_ranks_shrinking_methods_first() {
        // "before": getpid dominates; "after": it is gone.
        let before = profile_from(&[("getpid", 70), ("io", 20), ("compute", 10)]);
        let after = profile_from(&[("io", 60), ("compute", 40)]);
        let d = diff(before.method_rows(), after.method_rows());
        assert_eq!(d.len(), 3);
        let Some(Column::Str(methods)) = d.column("method").cloned() else {
            panic!("method column missing")
        };
        assert_eq!(methods[0], "getpid", "biggest reduction first");
        let Some(Column::Float(delta)) = d.column("delta_pct").cloned() else {
            panic!("delta column missing")
        };
        assert!((delta[0] - -70.0).abs() < 1e-9);
        assert!(delta.windows(2).all(|w| w[0] <= w[1]), "sorted ascending");
        // Methods only in one profile get 0 on the other side.
        let Some(Column::Int(a_calls)) = d.column("a_calls").cloned() else {
            panic!("a_calls missing")
        };
        let gi = methods.iter().position(|m| m == "getpid").expect("present");
        assert_eq!(a_calls[gi], 1);
        let Some(Column::Int(b_calls)) = d.column("b_calls").cloned() else {
            panic!("b_calls missing")
        };
        assert_eq!(b_calls[gi], 0);
    }

    #[test]
    fn identical_profiles_diff_to_zero() {
        let p = profile_from(&[("a", 50), ("b", 50)]);
        let d = diff(p.method_rows(), p.method_rows());
        let Some(Column::Float(delta)) = d.column("delta_pct").cloned() else {
            panic!("delta column missing")
        };
        assert!(delta.iter().all(|v| v.abs() < 1e-12));
    }

    #[test]
    fn tied_deltas_keep_name_order() {
        let a = [("b", 1, 5, 5), ("a", 2, 5, 5), ("c", 1, 0, 0)];
        let d = diff(a, [("c", 3, 9, 0), ("b", 1, 5, 5), ("a", 2, 5, 5)]);
        let Some(Column::Str(methods)) = d.column("method").cloned() else {
            panic!("method column missing")
        };
        assert_eq!(methods, ["a", "b", "c"]);
        assert_eq!(d.column("b_calls"), Some(&Column::Int(vec![2, 1, 3])));
    }

    #[test]
    fn diff_is_queryable() {
        let before = profile_from(&[("hot", 90), ("cold", 10)]);
        let after = profile_from(&[("hot", 30), ("cold", 70)]);
        let out = crate::query::run_query(
            &diff(before.method_rows(), after.method_rows()),
            "select method where delta_pct < -10",
        )
        .expect("query runs");
        assert_eq!(out.len(), 1);
    }
}
