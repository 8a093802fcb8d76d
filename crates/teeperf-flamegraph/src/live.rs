//! Rendering for continuous profiling: re-emit the flame graph from a
//! rolling aggregate on every refresh, with a status banner describing how
//! much of the stream the picture covers. `teeperf live` calls this once
//! per refresh interval; unlike the batch renderers there is no final log —
//! the folded stacks come straight from `teeperf-live`'s rolling profile.

use crate::{FlameGraph, SvgOptions};

/// Momentary state of a live session, displayed above the graph so a
/// reader knows which slice of the stream they are looking at.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LiveStatus {
    /// Drain epochs completed so far.
    pub epoch: u64,
    /// Events merged into the rolling profile.
    pub events: u64,
    /// Events dropped on log overflow (accounted, not silently lost).
    pub dropped: u64,
    /// Threads observed.
    pub threads: u64,
    /// Calls still open (no return seen yet); their time is not in the
    /// graph until they complete or the session finishes.
    pub open_frames: u64,
}

impl LiveStatus {
    /// One-line banner, e.g.
    /// `live · epoch 3 · 12000 events · 2 threads · 1 open · 0 dropped`.
    pub fn banner(&self) -> String {
        format!(
            "live · epoch {} · {} events · {} threads · {} open · {} dropped",
            self.epoch, self.events, self.threads, self.open_frames, self.dropped
        )
    }
}

/// Render the rolling aggregate for a terminal: status banner plus the
/// ASCII flame graph.
pub fn render_ascii(folded: &[(Vec<String>, u64)], status: &LiveStatus, width: usize) -> String {
    let graph = FlameGraph::from_folded(folded);
    let mut out = String::new();
    out.push_str(&status.banner());
    out.push('\n');
    if graph.total_ticks() == 0 {
        out.push_str("(no completed calls yet)\n");
    } else {
        out.push_str(&graph.to_ascii(width));
    }
    out
}

/// Render the rolling aggregate as SVG, with the status banner as the
/// subtitle (the caller's title is preserved).
pub fn render_svg(
    folded: &[(Vec<String>, u64)],
    status: &LiveStatus,
    options: &SvgOptions,
) -> String {
    let graph = FlameGraph::from_folded(folded);
    let opts = options.clone().with_subtitle(status.banner());
    graph.to_svg(&opts)
}

/// One process's folded stacks, keyed by its pid — the per-process slice
/// handed to the multi-process renderers.
pub type PidFolded<'a> = (u64, &'a [(Vec<String>, u64)]);

/// Group several processes' folded stacks under per-process root frames:
/// each pid's stacks are prefixed with a synthetic `pid <n>` frame, so the
/// flame graph of the result shows one tower per process whose width is
/// that process's share of the merged session. The output is sorted (the
/// invariant the flame-graph trie builders expect).
pub fn merge_folded_by_process(parts: &[PidFolded<'_>]) -> Vec<(Vec<String>, u64)> {
    let mut out = Vec::new();
    for (pid, folded) in parts {
        let root = format!("pid {pid}");
        for (path, ticks) in folded.iter() {
            let mut prefixed = Vec::with_capacity(path.len() + 1);
            prefixed.push(root.clone());
            prefixed.extend(path.iter().cloned());
            out.push((prefixed, *ticks));
        }
    }
    out.sort();
    out
}

/// Render a multi-process session for a terminal: the merged status banner
/// plus one per-process tower (see [`merge_folded_by_process`]).
pub fn render_ascii_multi(parts: &[PidFolded<'_>], status: &LiveStatus, width: usize) -> String {
    render_ascii(&merge_folded_by_process(parts), status, width)
}

/// Render a multi-process session as SVG, one per-process tower, merged
/// status banner as the subtitle.
pub fn render_svg_multi(
    parts: &[PidFolded<'_>],
    status: &LiveStatus,
    options: &SvgOptions,
) -> String {
    render_svg(&merge_folded_by_process(parts), status, options)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn folded() -> Vec<(Vec<String>, u64)> {
        vec![
            (vec!["main".into(), "work".into()], 80),
            (vec!["main".into()], 20),
        ]
    }

    fn status() -> LiveStatus {
        LiveStatus {
            epoch: 3,
            events: 12_000,
            dropped: 7,
            threads: 2,
            open_frames: 1,
        }
    }

    #[test]
    fn ascii_leads_with_banner() {
        let out = render_ascii(&folded(), &status(), 60);
        let first = out.lines().next().unwrap();
        assert_eq!(
            first,
            "live · epoch 3 · 12000 events · 2 threads · 1 open · 7 dropped"
        );
        assert!(out.contains("work"));
    }

    #[test]
    fn ascii_handles_empty_aggregate() {
        let out = render_ascii(&[], &LiveStatus::default(), 60);
        assert!(out.contains("no completed calls yet"));
    }

    #[test]
    fn svg_carries_banner_as_subtitle() {
        let opts = SvgOptions::default().with_title("rolling profile");
        let out = render_svg(&folded(), &status(), &opts);
        assert!(out.contains("rolling profile"));
        assert!(out.contains("epoch 3"));
        assert!(out.contains("work"));
    }

    #[test]
    fn per_process_grouping_prefixes_pid_roots() {
        let a = folded();
        let b = vec![(vec!["main".into()], 40u64)];
        let merged = merge_folded_by_process(&[(11, a.as_slice()), (22, b.as_slice())]);
        assert_eq!(merged.len(), 3);
        assert!(merged.iter().any(|(p, t)| p
            == &vec!["pid 11".to_string(), "main".into(), "work".into()]
            && *t == 80));
        assert!(merged
            .iter()
            .any(|(p, t)| p == &vec!["pid 22".to_string(), "main".into()] && *t == 40));
        let total: u64 = merged.iter().map(|(_, t)| t).sum();
        assert_eq!(total, 140, "grouping must preserve every tick");
        let mut sorted = merged.clone();
        sorted.sort();
        assert_eq!(sorted, merged, "output must be sorted");
    }

    #[test]
    fn multi_render_shows_one_tower_per_process() {
        let a = folded();
        let b = vec![(vec!["main".into()], 40u64)];
        let parts = [(11u64, a.as_slice()), (22u64, b.as_slice())];
        let ascii = render_ascii_multi(&parts, &status(), 60);
        assert!(ascii.contains("pid 11"));
        assert!(ascii.contains("pid 22"));
        let svg = render_svg_multi(&parts, &status(), &SvgOptions::default());
        assert!(svg.contains("pid 11"));
        assert!(svg.contains("pid 22"));
    }

    /// The host pids of a run are all that differs between two runs of one
    /// fleet: renamed, their renders are the same bytes.
    #[test]
    fn renders_that_differ_only_in_their_pids_match_once_renamed() {
        let (a, b) = (folded(), vec![(vec!["main".into()], 40u64)]);
        let svg = |pids: [u64; 2]| {
            let parts = [(pids[0], a.as_slice()), (pids[1], b.as_slice())];
            render_svg_multi(&parts, &status(), &SvgOptions::default())
        };
        let renamed = svg([4711, 4712])
            .replace("pid 4711", "pid 1001")
            .replace("pid 4712", "pid 1002");
        assert_eq!(renamed, svg([1001, 1002]));
    }
}
