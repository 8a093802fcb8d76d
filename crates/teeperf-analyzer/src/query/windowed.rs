//! The time-travel query spec: declarative, windowed questions over a
//! retention ring.
//!
//! The paper's stage 3 drops the user into interactive pandas; the live
//! subsystem's equivalent is a small, parseable spec evaluated against the
//! per-window profiles a retention ring retains (see
//! `teeperf_live::RetentionRing`). One spec string travels unchanged from
//! the CLI through the daemon's `/query` endpoint:
//!
//! ```text
//! windows=last:5 top=10 by=self            # top-10 by self ticks, newest 5 windows
//! windows=3..=7 method=rocksdb             # methods containing "rocksdb" in windows 3..=7
//! windows=all tid=2 by=total               # methods observed on thread 2, by total ticks
//! diff=3,7 pid=101                         # compare::diff of window 3 vs window 7
//! ```
//!
//! Clauses are `key=value` tokens separated by whitespace or `&` — the
//! same string is a shell argument and an HTTP query string. This module
//! owns parsing and the method-table evaluation (filter + rank + top-N)
//! over materialized [`Profile`]s; resolving window selections to
//! aggregates is the ring's job, and diffing reuses [`crate::compare::diff`]
//! unchanged. Window indices come from the virtual clock (event counters),
//! so this module is on the protocol lint's no-wall-clock list.

use std::fmt;

use crate::profile::{merged_thread_key, Profile};

/// Which retained windows a query addresses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WindowSel {
    /// Every retained slot.
    All,
    /// The newest `n` slots.
    Last(u64),
    /// Slots fully contained in the inclusive window-index range.
    Range(u64, u64),
}

impl fmt::Display for WindowSel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WindowSel::All => write!(f, "all"),
            WindowSel::Last(n) => write!(f, "last:{n}"),
            WindowSel::Range(a, b) => write!(f, "{a}..={b}"),
        }
    }
}

impl WindowSel {
    /// Parse a selection clause: `all`, `last:<n>`, or `<a>..=<b>`
    /// (`<a>..<b>` is accepted as the same inclusive range).
    ///
    /// # Errors
    /// A description of the malformed clause.
    pub fn parse(s: &str) -> Result<WindowSel, String> {
        if s == "all" {
            return Ok(WindowSel::All);
        }
        if let Some(n) = s.strip_prefix("last:") {
            let n: u64 = n.parse().map_err(|_| format!("bad window count `{s}`"))?;
            return Ok(WindowSel::Last(n));
        }
        if let Some((a, b)) = s.split_once("..") {
            let b = b.strip_prefix('=').unwrap_or(b);
            let a: u64 = a.parse().map_err(|_| format!("bad window range `{s}`"))?;
            let b: u64 = b.parse().map_err(|_| format!("bad window range `{s}`"))?;
            return Ok(WindowSel::Range(a, b));
        }
        Err(format!(
            "bad windows clause `{s}` (expected all, last:<n> or <a>..=<b>)"
        ))
    }
}

/// The ranking column for top-N.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RankBy {
    /// Exclusive (self) ticks — the paper's default presentation order.
    #[default]
    SelfTicks,
    /// Inclusive (total) ticks.
    TotalTicks,
    /// Call count.
    Calls,
}

impl fmt::Display for RankBy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RankBy::SelfTicks => write!(f, "self"),
            RankBy::TotalTicks => write!(f, "total"),
            RankBy::Calls => write!(f, "calls"),
        }
    }
}

/// One parsed window query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WindowSpec {
    /// Window selection (`windows=`; defaults to `all`).
    pub sel: WindowSel,
    /// Restrict to one process (`pid=`; a registry-backed evaluator merges
    /// across processes when absent).
    pub pid: Option<u64>,
    /// Substring filter on method names (`method=`).
    pub method: Option<String>,
    /// Keep only methods observed on this thread (`tid=`) of process
    /// `pid=`, or of any process when `pid=` is absent. Tick totals stay
    /// window-scoped — per-method tick attribution by thread is not
    /// retained, only the per-method thread sets.
    pub tid: Option<u64>,
    /// Truncate to the top `n` rows after ranking (`top=`; 0 = all).
    pub top: usize,
    /// Ranking column (`by=self|total|calls`).
    pub by: RankBy,
    /// Diff two windows (`diff=<a>,<b>`) through [`crate::compare::diff`]
    /// instead of listing methods. The other filters except `pid` are
    /// rejected alongside `diff`.
    pub diff: Option<(u64, u64)>,
}

impl Default for WindowSpec {
    fn default() -> WindowSpec {
        WindowSpec {
            sel: WindowSel::All,
            pid: None,
            method: None,
            tid: None,
            top: 0,
            by: RankBy::default(),
            diff: None,
        }
    }
}

impl WindowSpec {
    /// Parse a spec string: `key=value` clauses separated by whitespace or
    /// `&` (so one string serves as both shell argument and HTTP query
    /// string). Unknown keys are rejected — a typo must not silently widen
    /// a query.
    ///
    /// # Errors
    /// A description of the first malformed or unknown clause.
    pub fn parse(spec: &str) -> Result<WindowSpec, String> {
        let mut out = WindowSpec::default();
        for token in spec.split(|c: char| c.is_whitespace() || c == '&') {
            if token.is_empty() {
                continue;
            }
            // Split at the first '=' only: `windows=3..=7` keeps the rest
            // of the token (including further '='s) as the value.
            let (key, value) = token
                .split_once('=')
                .ok_or_else(|| format!("bad clause `{token}` (expected key=value)"))?;
            match key {
                "windows" => out.sel = WindowSel::parse(value)?,
                "pid" => out.pid = Some(parse_num("pid", value)?),
                "method" => out.method = Some(value.to_string()),
                "tid" => out.tid = Some(parse_num("tid", value)?),
                "top" => {
                    out.top = usize::try_from(parse_num("top", value)?)
                        .map_err(|_| format!("bad top `{value}`"))?;
                }
                "by" => {
                    out.by = match value {
                        "self" => RankBy::SelfTicks,
                        "total" => RankBy::TotalTicks,
                        "calls" => RankBy::Calls,
                        other => {
                            return Err(format!("bad by `{other}` (expected self|total|calls)"))
                        }
                    }
                }
                "diff" => {
                    let (a, b) = value
                        .split_once(',')
                        .ok_or_else(|| format!("bad diff `{value}` (expected <a>,<b>)"))?;
                    out.diff = Some((parse_num("diff", a)?, parse_num("diff", b)?));
                }
                other => return Err(format!("unknown clause `{other}`")),
            }
        }
        if out.diff.is_some() && (out.method.is_some() || out.tid.is_some()) {
            return Err("diff= cannot be combined with method=/tid= filters".to_string());
        }
        Ok(out)
    }

    /// The spec as an HTTP query string (`&`-separated clauses) — the form
    /// `teeperf query --connect` sends to the daemon's `/query` endpoint.
    pub fn to_query_string(&self) -> String {
        let mut clauses = Vec::new();
        if let Some((a, b)) = self.diff {
            clauses.push(format!("diff={a},{b}"));
        } else {
            clauses.push(format!("windows={}", self.sel));
            if let Some(m) = &self.method {
                clauses.push(format!("method={m}"));
            }
            if let Some(tid) = self.tid {
                clauses.push(format!("tid={tid}"));
            }
            if self.top > 0 {
                clauses.push(format!("top={}", self.top));
            }
            clauses.push(format!("by={}", self.by));
        }
        if let Some(pid) = self.pid {
            clauses.push(format!("pid={pid}"));
        }
        clauses.join("&")
    }
}

fn parse_num(key: &str, value: &str) -> Result<u64, String> {
    value.parse().map_err(|_| format!("bad {key} `{value}`"))
}

/// Evaluate the method-table half of a spec over one materialized span
/// profile: filter (`method=` substring; `tid=` thread-set membership, a
/// thread key being [`merged_thread_key`] of a process and a tid),
/// rank by the `by=` column (ties broken by name, then address, for a
/// total order), and truncate to `top=`. Rows are
/// `(name, calls, inclusive, exclusive)` — the same shape as
/// `Snapshot::methods_from_text`, so the daemon's `/query` response stays
/// inside the snapshot text contract.
pub fn top_rows(profile: &Profile, spec: &WindowSpec) -> Vec<(String, u64, u64, u64)> {
    let mut rows: Vec<_> = profile
        .methods
        .iter()
        .filter(|m| {
            spec.method
                .as_ref()
                .is_none_or(|needle| m.name.contains(needle.as_str()))
                && spec.tid.is_none_or(|tid| {
                    // A key is checked against `pid=`'s process, or its own; it
                    // keeps a tid's low 32 bits, so a wider `tid=` matches none.
                    let of = |key: u64| merged_thread_key(spec.pid.unwrap_or(key >> 32), tid);
                    tid >> 32 == 0 && m.threads.iter().any(|key| *key == of(*key))
                })
        })
        .collect();
    rows.sort_by(|a, b| {
        let key = |m: &crate::profile::MethodStats| match spec.by {
            RankBy::SelfTicks => m.exclusive,
            RankBy::TotalTicks => m.inclusive,
            RankBy::Calls => m.calls,
        };
        key(b)
            .cmp(&key(a))
            .then_with(|| a.name.cmp(&b.name))
            .then_with(|| a.addr.cmp(&b.addr))
    });
    if spec.top > 0 {
        rows.truncate(spec.top);
    }
    rows.into_iter()
        .map(|m| (m.name.clone(), m.calls, m.inclusive, m.exclusive))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::MethodStats;
    use std::collections::BTreeSet;

    fn method(name: &str, calls: u64, incl: u64, excl: u64, tids: &[u64]) -> MethodStats {
        MethodStats {
            name: name.to_string(),
            addr: 0x100 + excl,
            calls,
            inclusive: incl,
            exclusive: excl,
            min_inclusive: incl,
            max_inclusive: incl,
            threads: tids.iter().copied().collect::<BTreeSet<u64>>(),
        }
    }

    fn profile() -> Profile {
        Profile {
            methods: vec![
                method("main", 1, 100, 10, &[0]),
                method("work", 4, 70, 40, &[0, 1]),
                method("leaf", 8, 30, 30, &[1]),
            ],
            folded: Vec::new(),
            symbols: Vec::new(),
            folded_ids: Vec::new(),
            caller_edges: Vec::new(),
            threads: BTreeSet::new(),
            total_ticks: 80,
            anomalies: crate::profile::Anomalies::default(),
            pids: BTreeSet::new(),
        }
    }

    #[test]
    fn parse_round_trips_through_the_query_string() {
        for spec in [
            "windows=last:5&top=10&by=self",
            "windows=0..=4&method=work&by=total",
            "diff=3,7&pid=101",
            "windows=all&tid=2&by=calls",
        ] {
            let parsed = WindowSpec::parse(spec).unwrap();
            assert_eq!(parsed.to_query_string(), spec, "canonical specs are stable");
            // Shell form (spaces) parses identically.
            let shell = spec.replace('&', " ");
            assert_eq!(WindowSpec::parse(&shell).unwrap(), parsed);
        }
    }

    #[test]
    fn parse_accepts_inclusive_range_sugar() {
        assert_eq!(
            WindowSpec::parse("windows=3..7").unwrap().sel,
            WindowSel::Range(3, 7)
        );
        assert_eq!(
            WindowSpec::parse("windows=3..=7").unwrap().sel,
            WindowSel::Range(3, 7)
        );
        assert_eq!(
            WindowSpec::parse("windows=last:5").unwrap().sel,
            WindowSel::Last(5)
        );
        assert_eq!(WindowSpec::parse("").unwrap(), WindowSpec::default());
    }

    #[test]
    fn parse_rejects_typos_loudly() {
        assert!(WindowSpec::parse("window=last:5").is_err(), "unknown key");
        assert!(WindowSpec::parse("windows=recent").is_err());
        assert!(WindowSpec::parse("top=many").is_err());
        assert!(WindowSpec::parse("by=most").is_err());
        assert!(WindowSpec::parse("diff=3").is_err());
        assert!(WindowSpec::parse("diff=3,4 method=x").is_err());
        assert!(WindowSpec::parse("bare").is_err());
    }

    #[test]
    fn top_rows_filters_ranks_and_truncates() {
        let p = profile();
        let all = top_rows(&p, &WindowSpec::parse("by=self").unwrap());
        assert_eq!(all[0].0, "work", "ranked by exclusive ticks");
        let top1 = top_rows(&p, &WindowSpec::parse("top=1&by=calls").unwrap());
        assert_eq!(top1, vec![("leaf".to_string(), 8, 30, 30)]);
        let by_total = top_rows(&p, &WindowSpec::parse("by=total").unwrap());
        assert_eq!(by_total[0].0, "main");
        let filtered = top_rows(&p, &WindowSpec::parse("method=ea").unwrap());
        assert_eq!(filtered.len(), 1, "substring match on `leaf`");
        let on_tid1 = top_rows(&p, &WindowSpec::parse("tid=1").unwrap());
        assert_eq!(
            on_tid1.iter().map(|r| r.0.as_str()).collect::<Vec<_>>(),
            vec!["work", "leaf"]
        );
    }

    /// A thread key keeps a tid's low 32 bits, so a `tid=` wider than
    /// that names no thread — not the thread its low bits name.
    #[test]
    fn a_tid_wider_than_32_bits_matches_no_row() {
        let p = profile();
        for spec in ["tid=4294967296", "tid=4294967296&pid=0"] {
            let rows = top_rows(&p, &WindowSpec::parse(spec).unwrap());
            assert!(rows.is_empty(), "{spec}: {rows:?}");
        }
        assert_eq!(top_rows(&p, &WindowSpec::parse("tid=0").unwrap()).len(), 2);
    }
}
