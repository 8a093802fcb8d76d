//! `teeperf-lint`: a token/line-level lint pass over the workspace's Rust
//! sources (no rustc internals) enforcing the conventions the model
//! checker's soundness rests on.
//!
//! ## Rules
//!
//! * **`raw-atomics`** — shared-log state must only be touched through the
//!   [`tee_sim::SharedMem`] accessors (the model seam); raw
//!   `std::sync::atomic` types bypass the scheduler and make checked
//!   executions unsound. The seam itself (`shm.rs`, `sched.rs`) is
//!   allowlisted; unrelated subsystems that legitimately use atomics for
//!   non-log state carry an explicit file-level allow with a reason.
//! * **`ord-justified`** — every atomic `Ordering::` choice
//!   (`Relaxed`/`Acquire`/`Release`/`AcqRel`/`SeqCst`) must carry an
//!   `// ord:` justification on the same line or in the comment block
//!   directly above. Memory-ordering choices are load-bearing and
//!   unreviewable without a stated reason. (`cmp::Ordering` variants do
//!   not match.)
//! * **`no-wallclock`** — protocol modules must be deterministic: no
//!   `Instant::now`, `SystemTime`, `std::time::`, `thread_rng`, or
//!   `rand::random`. Nondeterminism there would break schedule replay.
//! * **`no-unsafe`** — no `unsafe` anywhere in the workspace (the crate
//!   roots also carry `#![forbid(unsafe_code)]`; this catches sources
//!   that are not under a crate root, e.g. future fixtures or scripts).
//!
//! ## Escapes
//!
//! * File-level: `// teeperf-lint: allow(<rule>, file): <reason>`
//!   anywhere in the file disables `<rule>` for that file.
//! * Line-level: `// lint: allow(<rule>): <reason>` on the offending line
//!   or the line directly above it.
//!
//! Both forms require a non-empty reason; a reasonless allow is itself a
//! violation. Comments and string/char literals are stripped before rule
//! matching (nested block comments and raw strings included), so patterns
//! inside docs or literals never fire — which is also why this file can
//! describe the rules it enforces.

use std::path::{Path, PathBuf};

/// Lint rules, named as they appear in diagnostics and allow escapes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rule {
    /// Raw `std::sync::atomic` use outside the model seam.
    RawAtomics,
    /// Atomic `Ordering::` without an `// ord:` justification.
    OrdJustified,
    /// Wall-clock or OS randomness in a protocol module.
    NoWallclock,
    /// `unsafe` anywhere.
    NoUnsafe,
    /// A malformed or reasonless allow escape.
    BadAllow,
}

impl Rule {
    /// Stable kebab-case name used in diagnostics and allow escapes.
    pub fn name(self) -> &'static str {
        match self {
            Rule::RawAtomics => "raw-atomics",
            Rule::OrdJustified => "ord-justified",
            Rule::NoWallclock => "no-wallclock",
            Rule::NoUnsafe => "no-unsafe",
            Rule::BadAllow => "bad-allow",
        }
    }

    fn parse(s: &str) -> Option<Rule> {
        match s {
            "raw-atomics" => Some(Rule::RawAtomics),
            "ord-justified" => Some(Rule::OrdJustified),
            "no-wallclock" => Some(Rule::NoWallclock),
            "no-unsafe" => Some(Rule::NoUnsafe),
            _ => None,
        }
    }
}

/// One lint finding, renderable as `path:line: [rule] message`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Path as given to the linter (repo-relative in the binary).
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// Violated rule.
    pub rule: Rule,
    /// What was found.
    pub message: String,
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path,
            self.line,
            self.rule.name(),
            self.message
        )
    }
}

/// Files that ARE the model seam: the only places raw atomics are allowed
/// without an explicit in-file escape.
const SEAM_FILES: &[&str] = &[
    "crates/tee-sim/src/shm.rs",
    "crates/teeperf-check/src/sched.rs",
];

/// Modules implementing (or scheduling) the shared-log protocol, where
/// determinism is mandatory. The file-backed transport (`shm_file.rs`) is
/// protocol: it writes the same layout through file I/O and its replay
/// must stay deterministic. The daemon crate deliberately is NOT: its loop
/// timing (pump intervals, socket timeouts, watchdog pacing) is
/// operational, not protocol state, so wall-clock use there needs no
/// per-line allows. The windowing layer (`window.rs`, `query/windowed.rs`)
/// is protocol too: window boundaries are virtual-clock positions and a
/// wall-clock read there would make retention non-reproducible. So is the
/// rolling profile (`rolling.rs`): it decides when the ring enforces
/// retention (once per ingest, once per finish), and a wall-clock read
/// there would make which window a late call finds non-reproducible.
const PROTOCOL_MODULES: &[&str] = &[
    "crates/teeperf-core/src/log.rs",
    "crates/teeperf-core/src/batch.rs",
    "crates/teeperf-core/src/layout.rs",
    "crates/teeperf-core/src/fidelity.rs",
    "crates/teeperf-core/src/shm_file.rs",
    "crates/tee-sim/src/shm.rs",
    "crates/tee-sim/src/memmodel.rs",
    "crates/teeperf-check/src/sched.rs",
    "crates/teeperf-check/src/harness.rs",
    "crates/teeperf-check/src/explore.rs",
    "crates/teeperf-live/src/window.rs",
    "crates/teeperf-live/src/rolling.rs",
    "crates/teeperf-analyzer/src/query/windowed.rs",
];

/// Path-scoped rule configuration: which files are the model seam (raw
/// atomics allowed) and which modules carry the full protocol determinism
/// rules (`no-wallclock`). [`LintConfig::default`] is the workspace's
/// shipped policy; tools embedding the linter can extend either list
/// instead of editing the source.
#[derive(Debug, Clone)]
pub struct LintConfig {
    /// Seam files, matched by repo-relative path suffix.
    pub seam_files: Vec<String>,
    /// Protocol modules, matched by repo-relative path suffix.
    pub protocol_modules: Vec<String>,
}

impl Default for LintConfig {
    fn default() -> LintConfig {
        LintConfig {
            seam_files: SEAM_FILES.iter().map(|s| (*s).to_string()).collect(),
            protocol_modules: PROTOCOL_MODULES.iter().map(|s| (*s).to_string()).collect(),
        }
    }
}

impl LintConfig {
    /// Add a protocol module (full determinism rules) to the policy.
    #[must_use]
    pub fn with_protocol_module(mut self, path: &str) -> LintConfig {
        self.protocol_modules.push(path.to_string());
        self
    }

    /// Add a seam file (raw atomics allowed) to the policy.
    #[must_use]
    pub fn with_seam_file(mut self, path: &str) -> LintConfig {
        self.seam_files.push(path.to_string());
        self
    }

    fn is_seam(&self, path: &str) -> bool {
        self.seam_files.iter().any(|s| path_matches(path, s))
    }

    fn is_protocol(&self, path: &str) -> bool {
        self.protocol_modules.iter().any(|s| path_matches(path, s))
    }
}

fn path_matches(path: &str, suffix: &str) -> bool {
    let norm = path.replace('\\', "/");
    norm == suffix || norm.ends_with(&format!("/{suffix}"))
}

/// One source line, split into what the compiler sees and what it ignores.
#[derive(Debug, Default, Clone)]
struct ScannedLine {
    /// Code with comments removed and string/char literal *contents*
    /// blanked (delimiters kept, so token shapes survive).
    code: String,
    /// Concatenated comment text of the line.
    comment: String,
}

/// Split `source` into per-line code and comment streams. Handles line
/// comments, nested block comments, string / raw-string / byte-string
/// literals, char literals, and lifetimes (`'a` is not a char literal).
fn scan(source: &str) -> Vec<ScannedLine> {
    #[derive(PartialEq)]
    enum State {
        Code,
        LineComment,
        BlockComment(u32),
        Str,
        RawStr(u32),
        Char,
    }
    let mut lines = vec![ScannedLine::default()];
    let mut state = State::Code;
    let chars: Vec<char> = source.chars().collect();
    let mut i = 0;
    while i < chars.len() {
        let c = chars[i];
        let next = chars.get(i + 1).copied();
        if c == '\n' {
            if state == State::LineComment {
                state = State::Code;
            }
            lines.push(ScannedLine::default());
            i += 1;
            continue;
        }
        let cur = lines.last_mut().expect("at least one line");
        match state {
            State::Code => {
                if c == '/' && next == Some('/') {
                    state = State::LineComment;
                    i += 2;
                    continue;
                }
                if c == '/' && next == Some('*') {
                    state = State::BlockComment(1);
                    i += 2;
                    continue;
                }
                if c == '"' {
                    cur.code.push('"');
                    state = State::Str;
                    i += 1;
                    continue;
                }
                if c == 'r' && (next == Some('"') || next == Some('#')) {
                    // Possible raw string: r"..." or r#"..."# (any hashes).
                    let mut j = i + 1;
                    let mut hashes = 0u32;
                    while chars.get(j) == Some(&'#') {
                        hashes += 1;
                        j += 1;
                    }
                    if chars.get(j) == Some(&'"') {
                        cur.code.push_str("r\"");
                        state = State::RawStr(hashes);
                        i = j + 1;
                        continue;
                    }
                }
                if c == '\'' {
                    // Lifetime (`'a`, `'static`) vs char literal (`'x'`,
                    // `'\n'`): a char literal closes with a quote within a
                    // couple of characters; a lifetime never closes.
                    let is_char = next == Some('\\')
                        || chars.get(i + 2) == Some(&'\'')
                        || (next == Some('\'')/* empty: malformed, treat as char */);
                    if is_char {
                        cur.code.push('\'');
                        state = State::Char;
                        i += 1;
                        continue;
                    }
                }
                cur.code.push(c);
                i += 1;
            }
            State::LineComment => {
                cur.comment.push(c);
                i += 1;
            }
            State::BlockComment(depth) => {
                if c == '*' && next == Some('/') {
                    state = if depth == 1 {
                        State::Code
                    } else {
                        State::BlockComment(depth - 1)
                    };
                    i += 2;
                } else if c == '/' && next == Some('*') {
                    state = State::BlockComment(depth + 1);
                    i += 2;
                } else {
                    cur.comment.push(c);
                    i += 1;
                }
            }
            State::Str => {
                if c == '\\' {
                    i += 2; // skip the escaped character (blanked anyway)
                } else if c == '"' {
                    cur.code.push('"');
                    state = State::Code;
                    i += 1;
                } else {
                    i += 1; // blank literal content
                }
            }
            State::RawStr(hashes) => {
                if c == '"' {
                    let mut j = i + 1;
                    let mut seen = 0u32;
                    while seen < hashes && chars.get(j) == Some(&'#') {
                        seen += 1;
                        j += 1;
                    }
                    if seen == hashes {
                        cur.code.push('"');
                        state = State::Code;
                        i = j;
                        continue;
                    }
                }
                i += 1;
            }
            State::Char => {
                if c == '\\' {
                    i += 2;
                } else if c == '\'' {
                    cur.code.push('\'');
                    state = State::Code;
                    i += 1;
                } else {
                    i += 1;
                }
            }
        }
    }
    lines
}

/// `true` if `code` contains `word` as a whole identifier (not a
/// substring of a longer identifier).
fn has_word(code: &str, word: &str) -> bool {
    let bytes = code.as_bytes();
    let mut start = 0;
    while let Some(pos) = code[start..].find(word) {
        let at = start + pos;
        let before_ok = at == 0 || {
            let b = bytes[at - 1];
            !(b.is_ascii_alphanumeric() || b == b'_')
        };
        let end = at + word.len();
        let after_ok = end >= bytes.len() || {
            let b = bytes[end];
            !(b.is_ascii_alphanumeric() || b == b'_')
        };
        if before_ok && after_ok {
            return true;
        }
        start = at + 1;
    }
    false
}

/// `true` if `code` mentions an atomic `Ordering::` variant (and not just
/// `cmp::Ordering`, whose variants are Less/Equal/Greater).
fn has_atomic_ordering(code: &str) -> bool {
    ["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"]
        .iter()
        .any(|v| code.contains(&format!("Ordering::{v}")))
}

fn has_raw_atomic(code: &str) -> bool {
    if code.contains("sync::atomic") {
        return true;
    }
    [
        "AtomicBool",
        "AtomicPtr",
        "AtomicU8",
        "AtomicU16",
        "AtomicU32",
        "AtomicU64",
        "AtomicUsize",
        "AtomicI8",
        "AtomicI16",
        "AtomicI32",
        "AtomicI64",
        "AtomicIsize",
    ]
    .iter()
    .any(|t| has_word(code, t))
}

fn wallclock_pattern(code: &str) -> Option<&'static str> {
    [
        "Instant::now",
        "SystemTime",
        "std::time::",
        "thread_rng",
        "rand::random",
    ]
    .into_iter()
    .find(|p| code.contains(p))
}

/// Allow escapes parsed out of a file's comments.
#[derive(Debug, Default)]
struct Allows {
    /// Rules disabled for the whole file.
    file: Vec<Rule>,
    /// `(line, rule)` pairs: rule disabled on `line` and `line + 1`.
    line: Vec<(usize, Rule)>,
    /// Malformed escapes (reported as violations).
    bad: Vec<(usize, String)>,
}

fn parse_allows(lines: &[ScannedLine]) -> Allows {
    let mut allows = Allows::default();
    for (idx, l) in lines.iter().enumerate() {
        let lineno = idx + 1;
        // An escape must be a standalone comment (the marker at the start
        // of the comment text); prose that merely *mentions* the syntax —
        // like this module's docs — is not an escape.
        let comment = l.comment.trim_start();
        for (marker, file_scope) in [("teeperf-lint: allow(", true), ("lint: allow(", false)] {
            let Some(rest) = comment.strip_prefix(marker) else {
                continue;
            };
            let Some(close) = rest.find(')') else {
                allows.bad.push((lineno, "unclosed allow escape".into()));
                continue;
            };
            let inside = &rest[..close];
            let after = rest[close + 1..].trim_start();
            let reason_ok = after
                .strip_prefix(':')
                .is_some_and(|r| !r.trim().is_empty());
            if !reason_ok {
                allows
                    .bad
                    .push((lineno, format!("allow({inside}) without a reason")));
                continue;
            }
            let mut parts = inside.split(',').map(str::trim);
            let rule_name = parts.next().unwrap_or_default();
            let scope = parts.next();
            let Some(rule) = Rule::parse(rule_name) else {
                allows
                    .bad
                    .push((lineno, format!("unknown rule in allow: {rule_name:?}")));
                continue;
            };
            match (file_scope, scope) {
                (true, Some("file")) => allows.file.push(rule),
                (true, other) => allows.bad.push((
                    lineno,
                    format!("file-level allow must say `, file` (got {other:?})"),
                )),
                (false, None) => allows.line.push((lineno, rule)),
                (false, Some(extra)) => allows
                    .bad
                    .push((lineno, format!("unexpected allow argument {extra:?}"))),
            }
            break;
        }
    }
    allows
}

/// `true` if an `ord:` marker justifies the atomic ordering at `idx`: on
/// the line itself, on an earlier line of the same (possibly wrapped)
/// statement, or in the comment block directly above the statement.
fn ord_justified(lines: &[ScannedLine], idx: usize) -> bool {
    let mut j = idx;
    loop {
        if lines[j].comment.contains("ord:") {
            return true;
        }
        if j == 0 {
            return false;
        }
        let above = &lines[j - 1];
        let code = above.code.trim_end();
        let comment_only = code.trim().is_empty() && !above.comment.is_empty();
        // A line whose code does not close a statement (no trailing `;`,
        // block brace, or emptiness) means line `j` is a continuation of
        // the same statement — rustfmt freely wraps `Ordering::` arguments
        // onto their own line, and the justification sits above the
        // statement's first line.
        let continues = !code.is_empty()
            && !code.ends_with(';')
            && !code.ends_with('}')
            && !code.ends_with('{');
        if comment_only || continues {
            j -= 1;
        } else {
            return false;
        }
    }
}

/// Lint one file's source under the default workspace policy. `path` is
/// used for diagnostics and for the path-scoped rules (seam allowlist,
/// protocol modules).
pub fn lint_source(path: &str, source: &str) -> Vec<Diagnostic> {
    lint_source_with(&LintConfig::default(), path, source)
}

/// Lint one file's source under an explicit [`LintConfig`].
pub fn lint_source_with(config: &LintConfig, path: &str, source: &str) -> Vec<Diagnostic> {
    let lines = scan(source);
    let allows = parse_allows(&lines);
    let mut out = Vec::new();
    for (lineno, msg) in &allows.bad {
        out.push(Diagnostic {
            path: path.to_string(),
            line: *lineno,
            rule: Rule::BadAllow,
            message: msg.clone(),
        });
    }
    let is_seam = config.is_seam(path);
    let is_protocol = config.is_protocol(path);
    let allowed = |rule: Rule, lineno: usize| {
        allows.file.contains(&rule)
            || allows
                .line
                .iter()
                .any(|(l, r)| *r == rule && (*l == lineno || *l + 1 == lineno))
    };
    for (idx, l) in lines.iter().enumerate() {
        let lineno = idx + 1;
        let code = l.code.as_str();
        if has_word(code, "unsafe") && !allowed(Rule::NoUnsafe, lineno) {
            out.push(Diagnostic {
                path: path.to_string(),
                line: lineno,
                rule: Rule::NoUnsafe,
                message: "`unsafe` is banned in this workspace".to_string(),
            });
        }
        if !is_seam && has_raw_atomic(code) && !allowed(Rule::RawAtomics, lineno) {
            out.push(Diagnostic {
                path: path.to_string(),
                line: lineno,
                rule: Rule::RawAtomics,
                message: "raw std::sync::atomic outside the SharedMem/MemModel seam \
                          (go through the seam, or add a file-level allow with a reason)"
                    .to_string(),
            });
        }
        if has_atomic_ordering(code)
            && !ord_justified(&lines, idx)
            && !allowed(Rule::OrdJustified, lineno)
        {
            out.push(Diagnostic {
                path: path.to_string(),
                line: lineno,
                rule: Rule::OrdJustified,
                message: "atomic Ordering choice without an `// ord:` justification \
                          on this line or the comment block above"
                    .to_string(),
            });
        }
        if is_protocol {
            if let Some(pat) = wallclock_pattern(code) {
                if !allowed(Rule::NoWallclock, lineno) {
                    out.push(Diagnostic {
                        path: path.to_string(),
                        line: lineno,
                        rule: Rule::NoWallclock,
                        message: format!("{pat} in a protocol module breaks deterministic replay"),
                    });
                }
            }
        }
    }
    out
}

/// Directories (by component name) never descended into. `benchmark` is
/// the frozen product-path harness: its own workspace, host-side
/// orchestration only, and not editable to carry allow comments.
const SKIP_DIRS: &[&str] = &["target", ".git", "fixtures", "benchmark"];

/// Collect every `.rs` file under `root` (sorted, for stable output),
/// skipping build output and lint test fixtures.
///
/// # Errors
/// The first I/O error hit while walking.
pub fn collect_sources(root: &Path) -> Result<Vec<PathBuf>, String> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let entries =
            std::fs::read_dir(&dir).map_err(|e| format!("read_dir {}: {e}", dir.display()))?;
        for entry in entries {
            let entry = entry.map_err(|e| format!("read_dir {}: {e}", dir.display()))?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if !SKIP_DIRS.contains(&name.as_ref()) {
                    stack.push(path);
                }
            } else if name.ends_with(".rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    Ok(out)
}

/// Lint every `.rs` source under `root`. Diagnostics carry root-relative
/// paths.
///
/// # Errors
/// The first I/O error hit while walking or reading.
pub fn lint_tree(root: &Path) -> Result<Vec<Diagnostic>, String> {
    let mut out = Vec::new();
    for path in collect_sources(root)? {
        let source =
            std::fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
        let label = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        out.extend(lint_source(&label, &source));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules(diags: &[Diagnostic]) -> Vec<Rule> {
        diags.iter().map(|d| d.rule).collect()
    }

    #[test]
    fn scanner_strips_comments_and_literals() {
        let src = "let x = \"unsafe Ordering::SeqCst\"; // unsafe here too\n\
                   /* AtomicU64 in a block\ncomment */ let y = 'a';\n\
                   let s = r#\"Instant::now\"#; let lt: &'static str = \"\";\n";
        let lines = scan(src);
        assert!(!lines[0].code.contains("unsafe"));
        assert!(lines[0].comment.contains("unsafe here too"));
        assert!(!lines[0].code.contains("SeqCst"));
        assert!(lines[1].comment.contains("AtomicU64"));
        assert!(lines[2].comment.contains("comment"));
        assert!(lines[2].code.contains("let y"));
        assert!(!lines[3].code.contains("Instant"));
        assert!(
            lines[3].code.contains("'static"),
            "lifetime survives as code"
        );
    }

    #[test]
    fn nested_block_comments_close_correctly() {
        let src = "/* outer /* inner */ still comment */ let z = 1;\n";
        let lines = scan(src);
        assert!(lines[0].code.contains("let z"));
        assert!(!lines[0].code.contains("outer"));
    }

    #[test]
    fn unsafe_in_code_fires_in_strings_does_not() {
        let bad = lint_source("x.rs", "unsafe { foo() }\n");
        assert_eq!(rules(&bad), vec![Rule::NoUnsafe]);
        assert!(lint_source("x.rs", "let s = \"unsafe\";\n").is_empty());
        // Substrings of identifiers do not fire.
        assert!(lint_source("x.rs", "fn unsafely_named() {}\n").is_empty());
    }

    #[test]
    fn raw_atomics_fire_outside_seam_only() {
        let src = "use std::sync::atomic::AtomicU64;\n";
        assert_eq!(
            rules(&lint_source("crates/foo/src/a.rs", src)),
            vec![Rule::RawAtomics]
        );
        assert!(lint_source("crates/tee-sim/src/shm.rs", src).is_empty());
        assert!(lint_source("crates/teeperf-check/src/sched.rs", src).is_empty());
    }

    #[test]
    fn ord_requires_justification_nearby() {
        let bare = "x.store(1, Ordering::Relaxed);\n";
        assert_eq!(rules(&lint_source("a.rs", bare)), vec![Rule::OrdJustified]);
        let same_line = "x.store(1, Ordering::Relaxed); // ord: test handoff\n";
        assert!(lint_source("a.rs", same_line).is_empty());
        let above = "// ord: release pairs with the acquire in poll()\n\
                     x.store(1, Ordering::Release);\n";
        assert!(lint_source("a.rs", above).is_empty());
        let block_above = "// ord: multi-line justification that wraps onto\n\
                           // a second comment line before the access\n\
                           x.store(1, Ordering::Release);\n";
        assert!(lint_source("a.rs", block_above).is_empty());
        // A comment block that exists but never says ord: does not count.
        let unrelated = "// just a comment\nx.store(1, Ordering::Release);\n";
        assert_eq!(
            rules(&lint_source("a.rs", unrelated)),
            vec![Rule::OrdJustified]
        );
        // A wrapped statement is justified by the comment above its first
        // line, even with code continuation lines in between.
        let wrapped = "// ord: cas failure still observes prior writes\n\
                       let prev = self.words[i]\n\
                           .compare_exchange(a, b, Ordering::AcqRel, Ordering::Acquire);\n";
        assert!(lint_source("a.rs", wrapped).is_empty());
        // ...but a *finished* statement in between breaks the link.
        let broken = "// ord: stale justification\n\
                      let y = 1;\n\
                      x.store(1, Ordering::Release);\n";
        assert_eq!(
            rules(&lint_source("a.rs", broken)),
            vec![Rule::OrdJustified]
        );
        // cmp::Ordering variants are not atomic orderings.
        assert!(lint_source("a.rs", "if c == Ordering::Equal {}\n").is_empty());
    }

    #[test]
    fn wallclock_fires_only_in_protocol_modules() {
        let src = "let t = Instant::now();\n";
        assert!(lint_source("crates/bench/src/live.rs", src).is_empty());
        assert_eq!(
            rules(&lint_source("crates/teeperf-core/src/log.rs", src)),
            vec![Rule::NoWallclock]
        );
    }

    #[test]
    fn file_transport_is_a_protocol_module() {
        // The file-backed shared log writes the same layout the in-memory
        // protocol defines: its module carries the full determinism rules.
        let src = "let t = Instant::now();\n";
        assert_eq!(
            rules(&lint_source("crates/teeperf-core/src/shm_file.rs", src)),
            vec![Rule::NoWallclock]
        );
    }

    #[test]
    fn daemon_modules_may_use_wall_clock_without_allows() {
        // Daemon loop timing is operational, not protocol state: no
        // per-line allows needed for Instant/SystemTime there.
        let src = "let t = Instant::now();\nlet s = SystemTime::now();\n";
        assert!(lint_source("crates/teeperf-daemon/src/lib.rs", src).is_empty());
        assert!(lint_source("crates/teeperf-daemon/src/bin/teeperfd.rs", src).is_empty());
    }

    #[test]
    fn lint_config_extends_both_path_scopes() {
        let wall = "let t = Instant::now();\n";
        let atomics = "use std::sync::atomic::AtomicU64;\n";
        let config = LintConfig::default()
            .with_protocol_module("crates/ext/src/proto.rs")
            .with_seam_file("crates/ext/src/seam.rs");
        assert_eq!(
            rules(&lint_source_with(&config, "crates/ext/src/proto.rs", wall)),
            vec![Rule::NoWallclock]
        );
        assert!(lint_source_with(&config, "crates/ext/src/seam.rs", atomics).is_empty());
        // The default policy is untouched by the extension.
        assert!(lint_source("crates/ext/src/proto.rs", wall).is_empty());
        assert_eq!(
            rules(&lint_source("crates/ext/src/seam.rs", atomics)),
            vec![Rule::RawAtomics]
        );
    }

    #[test]
    fn file_level_allow_disables_rule_with_reason() {
        let src = "// teeperf-lint: allow(raw-atomics, file): perf counters, not log state\n\
                   use std::sync::atomic::AtomicU64;\n";
        assert!(lint_source("crates/foo/src/a.rs", src).is_empty());
        let reasonless = "// teeperf-lint: allow(raw-atomics, file):\n\
                          use std::sync::atomic::AtomicU64;\n";
        assert_eq!(
            rules(&lint_source("crates/foo/src/a.rs", reasonless)),
            vec![Rule::BadAllow, Rule::RawAtomics]
        );
    }

    #[test]
    fn line_level_allow_covers_its_line_and_the_next() {
        let src = "// lint: allow(ord-justified): exercised by the golden test\n\
                   x.store(1, Ordering::Relaxed);\n";
        assert!(lint_source("a.rs", src).is_empty());
        let far = "// lint: allow(ord-justified): too far away\n\
                   let y = 1;\n\
                   x.store(1, Ordering::Relaxed);\n";
        assert_eq!(rules(&lint_source("a.rs", far)), vec![Rule::OrdJustified]);
    }

    #[test]
    fn unknown_rule_in_allow_is_reported() {
        let src = "// lint: allow(no-such-rule): whatever\n";
        assert_eq!(rules(&lint_source("a.rs", src)), vec![Rule::BadAllow]);
    }
}
