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
//! owns parsing and the method-table evaluation (filter + rank + top-N,
//! [`rank_rows`]) over a span's method rows summed by name: no merge and
//! no [`Profile`](crate::profile::Profile) is built to rank them, the
//! rows come out of a [`NameSums`](crate::profile::NameSums) the selected
//! slots were added to, `tid=` already applied. Resolving window
//! selections to aggregates is the ring's job, and a diff joins two
//! windows' rows, summed by name the same way, through
//! [`crate::compare::diff`], the comparator of two recordings. Window
//! indices come from the virtual clock (event counters), so this module
//! is on the protocol lint's no-wall-clock list.

use std::fmt;

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
    /// Diff two windows (`diff=<a>,<b>`) instead of listing methods: each
    /// window's rows summed by name, joined by [`crate::compare::diff`].
    /// Every clause of a ranked listing (`windows=`, `method=`, `tid=`,
    /// `top=`, `by=`) is rejected alongside `diff`; only `pid` applies.
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
        // The first of the clauses that only order or select a listing.
        let mut ranked = None;
        for token in spec.split(|c: char| c.is_whitespace() || c == '&') {
            if token.is_empty() {
                continue;
            }
            // Split at the first '=' only: `windows=3..=7` keeps the rest
            // of the token (including further '='s) as the value.
            let (key, value) = token
                .split_once('=')
                .ok_or_else(|| format!("bad clause `{token}` (expected key=value)"))?;
            if matches!(key, "windows" | "top" | "by") {
                ranked = ranked.or(Some(key));
            }
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
        if let (Some(_), Some(key)) = (out.diff, ranked) {
            return Err(format!("diff= cannot be combined with {key}="));
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

/// One method row of a span: `(name, calls, inclusive, exclusive)` — the
/// shape `Snapshot::methods_from_text` parses, so the daemon's `/query`
/// response stays inside the snapshot text contract.
pub type MethodRow<'a> = (&'a str, u64, u64, u64);

/// Evaluate the method-table half of a spec over a span's method rows,
/// one per name and already kept to `tid=`'s thread (what
/// [`crate::profile::NameSums::rows`] reads out): filter by `method=`
/// substring, rank by the `by=` column (ties broken by name, so the order
/// is total), and truncate to `top=`.
pub fn rank_rows<'a>(
    rows: impl IntoIterator<Item = MethodRow<'a>>,
    spec: &WindowSpec,
) -> Vec<MethodRow<'a>> {
    let needle = spec.method.as_deref();
    let mut rows: Vec<MethodRow<'a>> = rows
        .into_iter()
        .filter(|(name, ..)| needle.is_none_or(|needle| name.contains(needle)))
        .collect();
    let key = |(_, calls, inclusive, exclusive): &MethodRow<'a>| match spec.by {
        RankBy::SelfTicks => *exclusive,
        RankBy::TotalTicks => *inclusive,
        RankBy::Calls => *calls,
    };
    rows.sort_unstable_by(|a, b| key(b).cmp(&key(a)).then_with(|| a.0.cmp(b.0)));
    if spec.top > 0 {
        rows.truncate(spec.top);
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows() -> Vec<MethodRow<'static>> {
        vec![
            ("main", 1, 100, 10),
            ("work", 4, 70, 40),
            ("leaf", 8, 30, 30),
        ]
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
        assert!(WindowSpec::parse("bare").is_err());
    }

    /// `diff=` answers a diff, not a ranked listing, so every clause only
    /// a listing reads is refused beside it, in either order, and named.
    #[test]
    fn parse_refuses_windows_beside_diff() {
        let err = WindowSpec::parse("diff=3,4 windows=last:2").unwrap_err();
        assert_eq!(err, "diff= cannot be combined with windows=");
        assert!(WindowSpec::parse("windows=all&diff=3,4").is_err());
    }

    #[test]
    fn parse_refuses_method_beside_diff() {
        let err = WindowSpec::parse("diff=3,4 method=x").unwrap_err();
        assert_eq!(err, "diff= cannot be combined with method=/tid= filters");
    }

    #[test]
    fn parse_refuses_tid_beside_diff() {
        let err = WindowSpec::parse("tid=0&diff=3,4").unwrap_err();
        assert_eq!(err, "diff= cannot be combined with method=/tid= filters");
        let err = WindowSpec::parse("diff=1,2&tid=1&method=or&by=calls&top=1").unwrap_err();
        assert_eq!(
            err, "diff= cannot be combined with method=/tid= filters",
            "filters first"
        );
    }

    #[test]
    fn parse_refuses_top_beside_diff() {
        let err = WindowSpec::parse("diff=1,2&top=1").unwrap_err();
        assert_eq!(err, "diff= cannot be combined with top=");
        assert!(WindowSpec::parse("diff=1,2&top=0").is_err(), "even top=0");
    }

    #[test]
    fn parse_refuses_by_beside_diff() {
        let err = WindowSpec::parse("diff=1,2&by=calls&top=1").unwrap_err();
        assert_eq!(err, "diff= cannot be combined with by=", "the first named");
        assert!(
            WindowSpec::parse("diff=1,2&by=self").is_err(),
            "even the default"
        );
        assert!(WindowSpec::parse("diff=1,2&pid=7").is_ok(), "pid= applies");
    }

    #[test]
    fn rank_rows_filters_ranks_and_truncates() {
        let rank = |spec: &str| rank_rows(rows(), &WindowSpec::parse(spec).unwrap());
        assert_eq!(rank("by=self")[0].0, "work", "ranked by exclusive ticks");
        assert_eq!(rank("top=1&by=calls"), vec![("leaf", 8, 30, 30)]);
        assert_eq!(rank("by=total")[0].0, "main");
        assert_eq!(rank("method=ea"), vec![("leaf", 8, 30, 30)], "substring");
        assert_eq!(rank("top=0").len(), 3, "top=0 keeps every row");
    }

    #[test]
    fn rank_rows_breaks_ties_by_name() {
        let tied = vec![("b", 1, 5, 5), ("c", 1, 5, 5), ("a", 1, 5, 5)];
        let ranked = rank_rows(tied, &WindowSpec::default());
        let names: Vec<&str> = ranked.iter().map(|r| r.0).collect();
        assert_eq!(names, ["a", "b", "c"]);
    }
}
