//! # teeperf-daemon — continuous fleet profiling over the file transport
//!
//! The paper's pipeline is record-then-analyze; its natural production
//! form (the TEEMon direction) is a long-running daemon. `teeperfd` is
//! that daemon:
//!
//! * it watches a **registration directory** into which profiled processes
//!   publish file-backed shared logs
//!   ([`teeperf_core::shm_file::FileShmWriter`], one `<pid>.tplog` per
//!   process, atomically renamed into place);
//! * every discovered log is attached **hot** to a
//!   [`teeperf_live::SessionRegistry`] behind a
//!   [`teeperf_core::FileShmSource`], wrapped in a [`LivenessProbe`] that
//!   turns the death of the writer process into a quarantine. A session
//!   ends when its medium says so: exhausted once the writer clears the
//!   header's ACTIVE flag and the log is drained, quarantined once the
//!   header is corrupt or cut, or the writer process is gone. A quiet
//!   writer is not a dead one, so nothing counts pumps;
//! * an embedded **HTTP/1.1 listener** (plain [`std::net::TcpListener`],
//!   no dependencies — see [`http`]) serves the merged snapshot, per-pid
//!   views, flame graphs and metrics. The payloads are the stable
//!   [`Snapshot::to_text`] format (`/snapshot` writes it straight from the
//!   registry's fleet table, [`SessionRegistry::merged_text`]): the text
//!   format *is* the wire contract, and `teeperf top` re-parses it with
//!   [`Snapshot::summary_from_text`].
//!
//! The daemon is deliberately **single-threaded**: one loop scans the
//! directory (one `stat`, and a read only when the directory may have
//! changed since the last read — see [`Daemon::scan`]), pumps the
//! registry, serves the connections that are waiting and sleeps
//! `--pump-ms`, in that order, so a reply is never older than
//! the drain of the loop that served it: an event is drained at most one
//! `--pump-ms` plus the loop's own work after it is published, a log is
//! attached by the first loop that starts after it is registered, and both
//! are in every reply served from then on. No locks, no shared state, no
//! atomics — concurrency lives in the transport protocol (where it is
//! model-checked), not in the daemon.
//!
//! Shutdown is cooperative: a `GET /shutdown`, the external trigger
//! channel ([`launch`], the one launcher behind `teeperfd` and
//! `teeperf daemon`, wires stdin-EOF into it, so a supervisor's
//! process-group teardown lands here), or the optional loop limit. All
//! three drain once more, write the final snapshot to `--snapshot-out` if
//! configured, and return a [`DaemonReport`].

#![forbid(unsafe_code)]

pub mod flags;
pub mod http;

use std::collections::BTreeSet;
use std::ffi::OsString;
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::os::unix::fs::MetadataExt;
use std::path::{Path, PathBuf};
use std::sync::mpsc::{Receiver, TryRecvError};
use std::time::{Duration, Instant, SystemTime};

use mcvm::DebugInfo;
use teeperf_analyzer::symbolize::Symbolizer;
use teeperf_analyzer::WindowSpec;
use teeperf_core::shm_file::{sym_path, LOG_EXT};
use teeperf_core::{EventSource, FileShmSource, LogEntry, SourceBatch};
use teeperf_flamegraph::SvgOptions;
use teeperf_live::{
    windows_to_text, LiveConfig, RingConfig, SessionEvent, SessionRegistry, Snapshot,
};

use flags::{Command, Flag, Parsed, SESSION_FLAGS};
use http::{Request, Response};

/// What one connection gets for its whole exchange, head and body.
const CONNECTION_DEADLINE: Duration = Duration::from_millis(2_000);

/// How long after the registration directory last changed a full read
/// must begin for the directory to count as settled — read again only
/// once its stamp moves. Git's "racy clean" rule: a change made while
/// (or just after) a read began may carry the very mtime that read saw,
/// so a stamp is trusted only when the read that took it began well
/// after it. One second is far above any local filesystem's timestamp
/// granularity.
const SETTLE_MARGIN: Duration = Duration::from_secs(1);

/// Everything configurable about one daemon run.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Registration directory to watch for `<pid>.tplog` files.
    pub dir: PathBuf,
    /// Listen address, e.g. `127.0.0.1:0` (0 = kernel-assigned port).
    pub listen: String,
    /// Pump cadence: the sleep that ends every loop iteration, so an event
    /// is drained at most this long (plus the loop's own work) after it is
    /// published. Also how long one iteration goes on accepting.
    pub pump_interval: Duration,
    /// Write the final merged snapshot here on shutdown.
    pub snapshot_out: Option<PathBuf>,
    /// Shut down after this many loop iterations (a test/CI safety net;
    /// `None` runs until asked to stop).
    pub max_loops: Option<u64>,
    /// Windowed retention handed to every session (`None` serves the
    /// all-time view only: `/windows` lists nothing and `/query` 404s).
    pub retention: Option<RingConfig>,
    /// Overhead budget handed to every session: each pid gets its own
    /// fidelity controller walking `Full → Sampled(1/N) → Quiescent`
    /// against this loss budget (`None` pins the fleet to full fidelity).
    /// Inert over the file transport this daemon attaches today: the
    /// consumer opens a file read-only, so it cannot carry a regime word
    /// to the writer, and each controller retires at its first decision.
    pub budget: Option<teeperf_live::OverheadBudget>,
}

impl Default for DaemonConfig {
    fn default() -> DaemonConfig {
        DaemonConfig {
            dir: teeperf_core::shm_file::default_shm_dir(),
            listen: "127.0.0.1:0".to_string(),
            pump_interval: Duration::from_millis(25),
            snapshot_out: None,
            max_loops: None,
            retention: None,
            budget: None,
        }
    }
}

/// Wraps a [`FileShmSource`] and reports the source dead, in the report of
/// every drain from then on, once the writer *process* is gone while its
/// log still claims to be active — the file transport's substitute for
/// the in-memory log's writers-in-flight word. The probe checks
/// `/proc/<pid>` (cheap, no `unsafe`), and only after an empty pump, so a
/// killed writer's already-published entries are drained before the
/// registry quarantines it.
#[derive(Debug)]
pub struct LivenessProbe {
    inner: FileShmSource,
    /// Probe only when enabled — synthetic-pid tests must not have their
    /// sources killed by a pid-namespace miss.
    enabled: bool,
    last_pump_empty: bool,
    writer_gone: bool,
}

impl LivenessProbe {
    /// Wrap `inner`; `enabled` turns the `/proc` probe on.
    pub fn new(inner: FileShmSource, enabled: bool) -> LivenessProbe {
        LivenessProbe {
            inner,
            enabled,
            last_pump_empty: false,
            writer_gone: false,
        }
    }

    fn probe(&mut self) {
        if !self.enabled || self.writer_gone || self.inner.writer_finished() {
            return;
        }
        if self.last_pump_empty && !Path::new(&format!("/proc/{}", self.inner.pid())).is_dir() {
            self.writer_gone = true;
        }
    }
}

impl EventSource for LivenessProbe {
    fn pid(&self) -> u64 {
        self.inner.pid()
    }

    fn drain(
        &mut self,
        batch: &mut SourceBatch,
        to_end: bool,
        walk: &mut dyn FnMut(&mut Vec<LogEntry>),
    ) {
        let mut empty = true;
        self.inner.drain(batch, to_end, &mut |entries| {
            empty &= entries.is_empty();
            walk(entries);
        });
        self.last_pump_empty = empty && batch.dropped == 0;
        self.probe();
        batch.state.dead |= self.writer_gone;
    }
}

/// What the HTTP routing layer needs from whoever owns the profiles. The
/// daemon implements it over its [`SessionRegistry`]; the wire-contract
/// tests implement it over arbitrary generated snapshots, driving the
/// identical serving path.
pub trait SnapshotService {
    /// The merged cross-process snapshot.
    fn merged(&mut self) -> Snapshot;

    /// The `/snapshot` body. The default writes [`SnapshotService::merged`]
    /// with [`Snapshot::to_text`]: the reference a service that writes the
    /// text another way must equal byte for byte.
    fn merged_text(&mut self) -> String {
        self.merged().to_text()
    }

    /// One process's snapshot, if that pid is (or was) part of the run.
    fn pid_snapshot(&mut self, pid: u64) -> Option<Snapshot>;
    /// The `/metrics` exposition text.
    fn metrics_text(&mut self) -> String;

    /// The `/windows` listing ([`teeperf_live::windows_to_text`] over the
    /// per-pid retention rings). The default serves the empty listing —
    /// correct for services without windowed retention.
    fn windows_text(&mut self) -> String {
        windows_to_text(&[])
    }

    /// Evaluate a window-query spec string (the raw query string of
    /// `GET /query?...`). `Err` is a parse failure (the client's fault:
    /// 400); `Ok(None)` means nothing retained matches (404); `Ok(Some)`
    /// is the response body. The default retains nothing.
    ///
    /// # Errors
    /// A description of the malformed spec.
    fn query_text(&mut self, spec: &str) -> Result<Option<String>, String> {
        WindowSpec::parse(spec)?;
        Ok(None)
    }

    /// Flame-graph SVG: one pid's towers, or the merged per-process view.
    /// `None` when the pid is unknown.
    fn flame_svg(&mut self, pid: Option<u64>) -> Option<String> {
        match pid {
            Some(p) => pid_flame_svg(self, p),
            None => Some(flame_svg_of(&self.merged(), "teeperfd merged".to_string())),
        }
    }
}

/// The `/flame.svg?pid=<p>` body of any service: that process's towers.
fn pid_flame_svg(service: &mut (impl SnapshotService + ?Sized), pid: u64) -> Option<String> {
    let snap = service.pid_snapshot(pid)?;
    Some(flame_svg_of(&snap, format!("teeperfd pid {pid}")))
}

/// One snapshot's flame graph under `title`.
fn flame_svg_of(snap: &Snapshot, title: String) -> String {
    teeperf_flamegraph::live::render_svg(
        &snap.profile.folded,
        &snap.status,
        &SvgOptions::default().with_title(title),
    )
}

/// Route one request against a [`SnapshotService`]. Returns the response
/// and whether the request asked the daemon to shut down. Pure routing —
/// no I/O — so the endpoint table is unit-testable without sockets.
pub fn route(service: &mut dyn SnapshotService, req: &Request) -> (Response, bool) {
    if req.method != "GET" && req.method != "POST" {
        return (
            Response {
                status: 405,
                content_type: "text/plain; charset=utf-8",
                body: b"only GET and POST are supported\n".to_vec(),
            },
            false,
        );
    }
    match req.path() {
        "/healthz" => (Response::text("ok\n"), false),
        "/snapshot" => (Response::text(service.merged_text()), false),
        "/metrics" => (Response::text(service.metrics_text()), false),
        "/windows" => (Response::text(service.windows_text()), false),
        "/query" => {
            let spec = req.query_string().unwrap_or("");
            match service.query_text(spec) {
                Ok(Some(body)) => (Response::text(body), false),
                Ok(None) => (
                    Response::not_found(
                        "no retained window matches the query (is retention enabled? \
                         see /windows)",
                    ),
                    false,
                ),
                Err(why) => (Response::bad_request(why), false),
            }
        }
        "/shutdown" => (Response::text("shutting down\n"), true),
        "/flame.svg" => {
            let pid = match req.query("pid") {
                Some(raw) => match raw.parse::<u64>() {
                    Ok(p) => Some(p),
                    Err(_) => return (Response::not_found(format!("bad pid {raw:?}")), false),
                },
                None => None,
            };
            match service.flame_svg(pid) {
                Some(svg) => (Response::svg(svg), false),
                None => (
                    Response::not_found(format!("no session for pid {}", pid.unwrap_or(0))),
                    false,
                ),
            }
        }
        path => {
            if let Some(raw) = path.strip_prefix("/pid/") {
                match raw.parse::<u64>() {
                    Ok(pid) => match service.pid_snapshot(pid) {
                        Some(snap) => (Response::text(snap.to_text()), false),
                        None => (
                            Response::not_found(format!("no session for pid {pid}")),
                            false,
                        ),
                    },
                    Err(_) => (Response::not_found(format!("bad pid {raw:?}")), false),
                }
            } else {
                (
                    Response::not_found(format!(
                        "unknown path {path}; try /healthz /snapshot /pid/<n> /flame.svg \
                         /windows /query /metrics /shutdown"
                    )),
                    false,
                )
            }
        }
    }
}

/// Why the daemon stopped, in the final report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShutdownCause {
    /// A client requested `GET /shutdown`.
    HttpRequest,
    /// The external trigger channel fired (stdin EOF in the binary).
    External(String),
    /// [`DaemonConfig::max_loops`] was reached.
    LoopLimit,
}

impl std::fmt::Display for ShutdownCause {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShutdownCause::HttpRequest => write!(f, "http /shutdown"),
            ShutdownCause::External(why) => write!(f, "external: {why}"),
            ShutdownCause::LoopLimit => write!(f, "loop limit"),
        }
    }
}

/// The summary a finished daemon run hands back.
#[derive(Debug)]
pub struct DaemonReport {
    /// What stopped the loop.
    pub cause: ShutdownCause,
    /// Loop iterations executed.
    pub loops: u64,
    /// HTTP requests served.
    pub requests: u64,
    /// Every pid that was attached during the run.
    pub attached: Vec<u64>,
    /// Pids quarantined because their source declared itself dead.
    pub quarantined: Vec<u64>,
    /// One `<path>: <why>` per registration-directory file that failed to
    /// attach.
    pub rejected: Vec<String>,
    /// Where the final snapshot was written, if requested.
    pub snapshot_path: Option<PathBuf>,
    /// The final merged snapshot.
    pub merged: Snapshot,
}

impl DaemonReport {
    /// Human-readable closing summary (what `teeperfd` prints on exit).
    pub fn summary(&self) -> String {
        let list = |pids: &[u64]| {
            if pids.is_empty() {
                "-".to_string()
            } else {
                pids.iter()
                    .map(u64::to_string)
                    .collect::<Vec<_>>()
                    .join(", ")
            }
        };
        let mut out = format!(
            "teeperfd: shut down ({})\nloops {} requests {}\nattached pids: {}\nquarantined pids: {}\n",
            self.cause,
            self.loops,
            self.requests,
            list(&self.attached),
            list(&self.quarantined),
        );
        for why in &self.rejected {
            out.push_str(&format!("rejected {why}\n"));
        }
        if let Some(path) = &self.snapshot_path {
            out.push_str(&format!("final snapshot: {}\n", path.display()));
        }
        out.push_str(&self.merged.status.banner());
        out.push('\n');
        out
    }
}

/// The daemon: registry + listener + scan state. Construct with
/// [`Daemon::new`], read the bound address with [`Daemon::addr`], then
/// [`Daemon::run`] until a shutdown trigger.
#[derive(Debug)]
pub struct Daemon {
    config: DaemonConfig,
    registry: SessionRegistry,
    listener: TcpListener,
    addr: SocketAddr,
    /// Names of log files that failed to attach; retried never (a file
    /// that was rejected once is not going to become a valid log). Keyed
    /// by name, not pid: `7.tplog` and `007.tplog` carry the same pid.
    rejected: BTreeSet<OsString>,
    /// One line per attach failure, surfaced in `/metrics` and the closing
    /// summary.
    attach_errors: Vec<String>,
    /// Whether the `/proc/<pid>` liveness probe is armed on new sources.
    probe_liveness: bool,
    requests: u64,
    scans: u64,
    /// The directory's `(inode, mtime)` when the last full read of it
    /// began, if that read began [`SETTLE_MARGIN`] after the mtime: while
    /// a scan finds the same stamp, the directory holds what that read
    /// saw, and it is not read again.
    settled: Option<(u64, SystemTime)>,
    /// Full reads of the directory so far.
    #[cfg(test)]
    reads: u64,
}

impl Daemon {
    /// Bind the listener and build an empty registry over `config.dir`.
    ///
    /// # Errors
    /// Fails when the listen address cannot be bound or the registration
    /// directory cannot be created.
    pub fn new(config: DaemonConfig) -> io::Result<Daemon> {
        std::fs::create_dir_all(&config.dir)?;
        let listener = TcpListener::bind(&config.listen)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let live = LiveConfig {
            retention: config.retention.clone(),
            budget: config.budget,
            ..LiveConfig::default()
        };
        let registry = SessionRegistry::new(live);
        Ok(Daemon {
            config,
            registry,
            listener,
            addr,
            rejected: BTreeSet::new(),
            attach_errors: Vec::new(),
            probe_liveness: true,
            requests: 0,
            scans: 0,
            settled: None,
            #[cfg(test)]
            reads: 0,
        })
    }

    /// Disable the `/proc/<pid>` writer-liveness probe (tests that
    /// register logs under synthetic pids).
    #[must_use]
    pub fn without_liveness_probe(mut self) -> Daemon {
        self.probe_liveness = false;
        self
    }

    /// The address the HTTP listener actually bound (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// One registration-directory sweep: attach every `<pid>.tplog` whose
    /// pid is not yet in the registry's run (attached or retired — a
    /// retired pid's contribution is already in the merge) and whose name
    /// was not rejected. Returns how many sessions were attached. It runs
    /// every loop, and costs one `stat` of the directory while the
    /// directory is unchanged since a read that began at least a second
    /// after its last change (git's racy-clean rule); otherwise
    /// it reads the directory, where a name already dealt with costs a
    /// look at the name and no more. A writer registers by renaming its
    /// log into the directory, which moves the directory's mtime, so an
    /// attach is never put off.
    pub fn scan(&mut self) -> usize {
        self.scans += 1;
        let stamp = std::fs::metadata(&self.config.dir)
            .and_then(|meta| Ok((meta.ino(), meta.modified()?)))
            .ok();
        if stamp.is_some() && stamp == self.settled {
            return 0;
        }
        let began = SystemTime::now();
        let Ok(entries) = std::fs::read_dir(&self.config.dir) else {
            return 0;
        };
        #[cfg(test)]
        {
            self.reads += 1;
        }
        self.settled = stamp.filter(|(_, mtime)| {
            began
                .duration_since(*mtime)
                .is_ok_and(|age| age >= SETTLE_MARGIN)
        });
        let mut found: Vec<(u64, OsString)> = Vec::new();
        for entry in entries.flatten() {
            let name = entry.file_name();
            let Some(pid) = name
                .to_str()
                .and_then(|s| s.strip_suffix(LOG_EXT)?.strip_suffix('.'))
                .and_then(|s| s.parse::<u64>().ok())
            else {
                continue;
            };
            if self.registry.session(pid).is_some() || self.rejected.contains(name.as_os_str()) {
                continue;
            }
            found.push((pid, name));
        }
        found.sort();
        let mut attached = 0;
        for (pid, name) in found {
            let path = self.config.dir.join(&name);
            match self.attach_log(pid, &path) {
                Ok(()) => attached += 1,
                Err(why) => {
                    self.rejected.insert(name);
                    self.attach_errors
                        .push(format!("{}: {why}", path.display()));
                }
            }
        }
        attached
    }

    fn attach_log(&mut self, pid: u64, path: &Path) -> Result<(), String> {
        let source = FileShmSource::open(path).map_err(|e| e.to_string())?;
        if source.pid() != pid {
            return Err(format!(
                "file is named for pid {pid} but its header says {}",
                source.pid()
            ));
        }
        // The optional `<pid>.sym` sidecar names the addresses; without it
        // the profile still works, with raw-hex frames.
        let debug = std::fs::read_to_string(sym_path(&self.config.dir, pid))
            .ok()
            .and_then(|text| DebugInfo::from_text(&text))
            .unwrap_or_default();
        // Relocated by the header's anchor word, as `teeperf analyze` of
        // the same file is (§II-B; anchor 0 means none).
        let symbolizer = Symbolizer::new(debug, source.header());
        let probed = LivenessProbe::new(source, self.probe_liveness);
        self.registry
            .attach(Box::new(probed), symbolizer)
            .map_err(|e| format!("attach: {e:?}"))?;
        Ok(())
    }

    /// Accept and serve the connections currently pending. Returns whether
    /// any request asked for shutdown. A reader cannot hold the drain:
    /// accepting stops one `pump_interval` after it began (the backlog
    /// keeps the rest for the next iteration), and each connection has
    /// [`CONNECTION_DEADLINE`] in all, however it paces its bytes.
    fn serve_pending(&mut self) -> bool {
        let mut shutdown = false;
        let began = Instant::now();
        while let Ok((stream, _)) = self.listener.accept() {
            self.requests += 1;
            let _ = stream.set_nonblocking(false);
            let mut stream = http::Deadline(&stream, Instant::now() + CONNECTION_DEADLINE);
            if let Ok(req) = http::read_request(&mut stream) {
                let (response, stop) = route(self, &req);
                let _ = response.write_to(&mut stream);
                shutdown |= stop;
            }
            if began.elapsed() >= self.config.pump_interval {
                break;
            }
        }
        shutdown
    }

    fn quarantined_pids(&self) -> Vec<u64> {
        self.registry
            .session_events()
            .iter()
            .filter_map(|e| match e {
                SessionEvent::Quarantined { pid, .. } => Some(*pid),
                _ => None,
            })
            .collect()
    }

    /// Run until a shutdown trigger: `GET /shutdown`, a message on
    /// `external`, or the configured loop limit. Consumes the daemon and
    /// returns the final report. Each iteration scans, pumps, serves and
    /// sleeps, in that order: a reply is never older than the drain — or
    /// the attach — of the loop that served it.
    ///
    /// # Errors
    /// Propagates I/O failures writing the final snapshot; serving errors
    /// are per-connection and never stop the loop.
    pub fn run(mut self, external: &Receiver<String>) -> io::Result<DaemonReport> {
        let mut loops: u64 = 0;
        let cause = loop {
            self.scan();
            loops += 1;
            self.registry.pump();
            if self.serve_pending() {
                break ShutdownCause::HttpRequest;
            }
            match external.try_recv() {
                Ok(why) => break ShutdownCause::External(why),
                Err(TryRecvError::Disconnected) => {
                    break ShutdownCause::External("trigger channel closed".to_string())
                }
                Err(TryRecvError::Empty) => {}
            }
            if let Some(limit) = self.config.max_loops {
                if loops >= limit {
                    break ShutdownCause::LoopLimit;
                }
            }
            std::thread::sleep(self.config.pump_interval);
        };
        // Drain once more (the graceful-shutdown contract), then freeze.
        self.scan();
        self.registry.pump();
        let run = self.registry.finish();
        let snapshot_path = match &self.config.snapshot_out {
            Some(path) => {
                std::fs::write(path, run.merged.to_text())?;
                Some(path.clone())
            }
            None => None,
        };
        Ok(DaemonReport {
            cause,
            loops,
            requests: self.requests,
            attached: self.registry.run_pids(),
            quarantined: self.quarantined_pids(),
            rejected: self.attach_errors,
            snapshot_path,
            merged: run.merged,
        })
    }
}

impl SnapshotService for Daemon {
    fn merged(&mut self) -> Snapshot {
        self.registry.merged_snapshot()
    }

    /// Written from the registry's fleet table, no snapshot built.
    fn merged_text(&mut self) -> String {
        self.registry.merged_text()
    }

    fn pid_snapshot(&mut self, pid: u64) -> Option<Snapshot> {
        self.registry.snapshot_pid(pid)
    }

    /// Merged view: the registry's per-process rendering (one `pid <n>`
    /// tower per process). Per-pid views render as any service's do.
    fn flame_svg(&mut self, pid: Option<u64>) -> Option<String> {
        match pid {
            Some(p) => pid_flame_svg(self, p),
            None => Some(
                self.registry
                    .render_svg(&SvgOptions::default().with_title("teeperfd merged")),
            ),
        }
    }

    fn windows_text(&mut self) -> String {
        windows_to_text(&self.registry.windows())
    }

    fn query_text(&mut self, spec: &str) -> Result<Option<String>, String> {
        let spec = WindowSpec::parse(spec)?;
        Ok(self.registry.query_text(&spec))
    }

    fn metrics_text(&mut self) -> String {
        let salvage = self.registry.salvage();
        let quarantined = self.quarantined_pids();
        let mut out = String::new();
        out.push_str(&format!(
            "teeperf_attached_total {}\n",
            self.registry.run_pids().len()
        ));
        out.push_str(&format!("teeperf_active {}\n", self.registry.pids().len()));
        out.push_str(&format!(
            "teeperf_events_total {}\n",
            self.registry.events()
        ));
        out.push_str(&format!(
            "teeperf_dropped_total {}\n",
            self.registry.dropped()
        ));
        for (pid, dropped) in self.registry.dropped_by_pid() {
            out.push_str(&format!(
                "teeperf_dropped_total{{pid=\"{pid}\"}} {dropped}\n"
            ));
        }
        let headroom = self.registry.budget_headroom_by_pid();
        for (pid, info) in self.registry.regimes_by_pid() {
            // Regime as an enumerated gauge (0 full, 1 sampled, 2
            // quiescent) plus the sampling divisor as its own gauge, so a
            // scraper can alert on "any pid degraded" without label math.
            let (mode, n) = match info.regime {
                teeperf_core::Regime::Full => (0u8, 1u64),
                teeperf_core::Regime::Sampled(n) => (1, u64::from(n)),
                teeperf_core::Regime::Quiescent => (2, 0),
            };
            out.push_str(&format!("teeperf_regime{{pid=\"{pid}\"}} {mode}\n"));
            out.push_str(&format!("teeperf_regime_n{{pid=\"{pid}\"}} {n}\n"));
            out.push_str(&format!(
                "teeperf_regime_transitions_total{{pid=\"{pid}\"}} {}\n",
                info.transitions
            ));
            out.push_str(&format!(
                "teeperf_regime_faults_total{{pid=\"{pid}\"}} {}\n",
                info.faults
            ));
            if let Some(h) = headroom.get(&pid) {
                out.push_str(&format!(
                    "teeperf_budget_headroom_pct{{pid=\"{pid}\"}} {h}\n"
                ));
            }
        }
        out.push_str(&format!("teeperf_salvage_kept {}\n", salvage.kept));
        out.push_str(&format!("teeperf_salvage_dropped {}\n", salvage.dropped));
        for reason in [
            teeperf_core::SalvageReason::TornEntry,
            teeperf_core::SalvageReason::UnpublishedSlot,
            teeperf_core::SalvageReason::StalledRotation,
            teeperf_core::SalvageReason::CorruptHeader,
            teeperf_core::SalvageReason::TruncatedFile,
            teeperf_core::SalvageReason::DeadWriterReclaimed,
            teeperf_core::SalvageReason::CorruptRegimeWord,
        ] {
            out.push_str(&format!(
                "teeperf_salvage_reason{{reason=\"{reason}\"}} {}\n",
                salvage.count(reason)
            ));
        }
        out.push_str(&format!(
            "teeperf_quarantined_total {}\n",
            quarantined.len()
        ));
        for pid in &quarantined {
            out.push_str(&format!("teeperf_quarantined{{pid=\"{pid}\"}} 1\n"));
        }
        out.push_str(&format!(
            "teeperf_attach_errors_total {}\n",
            self.attach_errors.len()
        ));
        out.push_str(&format!("teeperf_scans_total {}\n", self.scans));
        out.push_str(&format!("teeperf_requests_total {}\n", self.requests));
        out
    }
}

/// The daemon's flags, under either name (`teeperfd`, `teeperf daemon`).
pub const DAEMON: Command = Command {
    operands: "",
    about: "fleet profiling daemon over a registration directory of <pid>.tplog shared logs\n\
            serves /snapshot /pid/<n> /flame.svg /windows /query /metrics /healthz until /shutdown",
    groups: &[DAEMON_FLAGS, SESSION_FLAGS],
};
const DAEMON_FLAGS: &[Flag] = &[
    Flag::value("dir", "<dir>", "registration directory to watch"),
    Flag::value("listen", "<addr>", "HTTP listen address (port 0 = any)"),
    Flag::value("snapshot-out", "<file>", "final merged snapshot"),
    Flag::value("pump-ms", "<n>", "pump cadence: drain, answer, sleep n ms"),
    Flag::value("max-loops", "<n>", "shut down after n iterations"),
    Flag::switch("no-liveness-probe", "trust logs without a /proc/<pid>"),
];

/// The config an argv parsed against [`DAEMON`] asks for.
fn daemon_config(parsed: &Parsed) -> Result<DaemonConfig, String> {
    let live = flags::session_config(parsed)?;
    let mut config = DaemonConfig {
        snapshot_out: parsed.path("snapshot-out"),
        max_loops: parsed.num("max-loops")?,
        retention: live.retention,
        budget: live.budget,
        ..DaemonConfig::default()
    };
    if let Some(dir) = parsed.path("dir") {
        config.dir = dir;
    }
    if let Some(listen) = parsed.text("listen") {
        config.listen = listen.to_string();
    }
    if let Some(ms) = parsed.num("pump-ms")? {
        config.pump_interval = Duration::from_millis(ms);
    }
    Ok(config)
}

/// Run a daemon in the foreground on behalf of the binary called `name`
/// (`teeperfd`, `teeperf daemon`) with an argv parsed against [`DAEMON`]:
/// bind, print `<name> listening on <addr>` (with the kernel-resolved
/// port) so supervisors and tests can connect without racing, and serve
/// until `GET /shutdown`, the loop limit, or stdin EOF. Returns the
/// closing summary, or the process exit code and message: 2 for a bad flag
/// value, 1 when the daemon fails to start or to write its final snapshot.
///
/// Stdin EOF is the SIGTERM of this unsafe-free world: a supervisor holds
/// the daemon's stdin pipe open for as long as it wants it alive; closing
/// it (or dying, which closes it too) shuts the daemon down gracefully.
pub fn launch(name: &str, parsed: &Parsed) -> Result<String, (u8, String)> {
    let config = daemon_config(parsed).map_err(|message| (2, format!("{name}: {message}")))?;
    let dir = config.dir.clone();
    let mut daemon =
        Daemon::new(config).map_err(|e| (1, format!("{name}: failed to start: {e}")))?;
    if parsed.switch("no-liveness-probe") {
        daemon = daemon.without_liveness_probe();
    }
    println!("{name} listening on {}", daemon.addr());
    println!("{name} watching {}", dir.display());
    let _ = io::Write::flush(&mut io::stdout());

    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let mut sink = [0u8; 256];
        let mut stdin = io::stdin();
        while matches!(io::Read::read(&mut stdin, &mut sink), Ok(n) if n > 0) {}
        let _ = tx.send("stdin closed".to_string());
    });
    let report = daemon.run(&rx).map_err(|e| (1, format!("{name}: {e}")))?;
    Ok(report.summary())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::sync::Mutex;
    use teeperf_core::layout::{EventKind, LogEntry};
    use teeperf_core::log::make_header;
    use teeperf_core::shm_file::{publish_sidecar, FileShmWriter};

    struct ScratchDir(PathBuf);

    fn scratch(label: &str) -> ScratchDir {
        let dir = std::env::temp_dir().join(format!("teeperfd-lib-{}-{label}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        ScratchDir(dir)
    }

    impl Drop for ScratchDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn e(kind: EventKind, counter: u64, addr: u64) -> LogEntry {
        LogEntry {
            kind,
            counter,
            addr,
            tid: 0,
        }
    }

    /// A tiny main→work call tree for pid, fully published and finished.
    fn write_session(dir: &Path, pid: u64, work_ticks: u64) {
        let debug = DebugInfo::from_functions([("main", 4, 1), ("work", 4, 5)]);
        publish_sidecar(dir, pid, "sym", &debug.to_text()).unwrap();
        let mut w = FileShmWriter::create(dir, &make_header(pid, 64, true, 0, 0)).unwrap();
        let (a0, a1) = (debug.entry_addr(0), debug.entry_addr(1));
        w.write(&e(EventKind::Call, 1, a0)).unwrap();
        w.write(&e(EventKind::Call, 10, a1)).unwrap();
        w.write(&e(EventKind::Return, 10 + work_ticks, a1)).unwrap();
        w.write(&e(EventKind::Return, 101, a0)).unwrap();
        w.finish().unwrap();
    }

    fn test_daemon(dir: &Path) -> Daemon {
        test_daemon_with(dir, None)
    }

    fn test_daemon_with(dir: &Path, retention: Option<RingConfig>) -> Daemon {
        Daemon::new(DaemonConfig {
            dir: dir.to_path_buf(),
            listen: "127.0.0.1:0".to_string(),
            pump_interval: Duration::from_millis(1),
            snapshot_out: None,
            max_loops: None,
            retention,
            budget: None,
        })
        .unwrap()
        .without_liveness_probe()
    }

    fn parsed(argv: &[&str]) -> Result<Parsed, String> {
        let argv: Vec<String> = argv.iter().map(|a| a.to_string()).collect();
        DAEMON.parse("teeperfd", &argv)
    }

    #[test]
    fn the_daemon_table_is_the_flag_set_it_always_had() {
        let usage = DAEMON.usage("teeperfd");
        let listed: Vec<&str> = usage
            .lines()
            .filter_map(|l| l.strip_prefix("  --"))
            .map(|l| l.split(' ').next().unwrap())
            .collect();
        assert_eq!(
            listed,
            [
                "dir",
                "listen",
                "snapshot-out",
                "pump-ms",
                "max-loops",
                "no-liveness-probe",
                "window-interval",
                "retain",
                "max-width",
                "overhead-budget"
            ]
        );
        // Neither the in-process session rows nor a retired flag are the
        // daemon's.
        for undeclared in ["--watermark", "--watchdog-timeout", "--bogus"] {
            let e = parsed(&[undeclared, "5"]).unwrap_err();
            assert!(e.starts_with(&format!("unknown flag {undeclared}")), "{e}");
        }
        let inert = usage.lines().find(|l| l.contains("--overhead-budget"));
        assert!(inert.unwrap().contains("Inert"), "{usage}");
    }

    #[test]
    fn daemon_config_reads_every_flag_and_words_errors_like_the_cli() {
        let config = daemon_config(&parsed(&[]).unwrap()).unwrap();
        let defaults = DaemonConfig::default();
        assert_eq!(config.dir, defaults.dir);
        assert!(config.retention.is_none() && config.budget.is_none());

        let argv = [
            "--dir",
            "/tmp/reg",
            "--listen",
            "127.0.0.1:7",
            "--snapshot-out",
            "/tmp/s",
            "--pump-ms",
            "5",
            "--max-loops",
            "9",
            "--window-interval",
            "12",
            "--retain",
            "16",
            "--max-width",
            "3",
            "--overhead-budget",
            "10",
        ];
        let config = daemon_config(&parsed(&argv).unwrap()).unwrap();
        assert_eq!(config.dir, PathBuf::from("/tmp/reg"));
        assert_eq!(config.listen, "127.0.0.1:7");
        assert_eq!(config.snapshot_out, Some(PathBuf::from("/tmp/s")));
        assert_eq!(config.pump_interval, Duration::from_millis(5));
        assert_eq!(config.max_loops, Some(9));
        let ring = config.retention.unwrap();
        assert_eq!((ring.interval, ring.capacity, ring.max_width), (12, 16, 3));
        assert_eq!(
            config.budget,
            Some(teeperf_live::OverheadBudget { pct: 10 })
        );

        // The rescan cadence is no longer a knob: a stale supervisor script
        // that still passes it is refused (exit 2 from `Command::main`).
        let e = parsed(&["--scan-every", "1"]).unwrap_err();
        assert!(e.starts_with("unknown flag --scan-every"), "{e}");
        for (argv, message) in [
            (["--pump-ms", "x"], "bad --pump-ms `x`"),
            (["--max-loops", "x"], "bad --max-loops `x`"),
            (
                ["--window-interval", "0"],
                "bad --window-interval `0` (want ticks >= 1)",
            ),
            (
                ["--overhead-budget", "0"],
                "bad --overhead-budget `0` (want 1..=100)",
            ),
        ] {
            assert_eq!(daemon_config(&parsed(&argv).unwrap()).unwrap_err(), message);
        }
        // `launch` reports them as flag errors: exit code 2, before binding.
        let (code, message) = launch("teeperfd", &parsed(&["--retain", "0"]).unwrap()).unwrap_err();
        assert_eq!(
            (code, message.as_str()),
            (2, "teeperfd: bad --retain `0` (want >= 1)")
        );
    }

    #[test]
    fn scan_attaches_registered_logs_and_serves_them() {
        let dir = scratch("scan");
        write_session(&dir.0, 101, 50);
        write_session(&dir.0, 102, 30);
        let mut d = test_daemon(&dir.0);
        assert_eq!(d.scan(), 2);
        assert_eq!(d.scan(), 0, "already attached");
        d.registry.pump();
        let merged = d.merged();
        assert_eq!(merged.status.events, 8);
        let text = merged.to_text();
        assert!(text.contains("pid 101"));
        assert!(text.contains("pid 102"));
        assert!(text.contains("work"), "sidecar symbols resolved: {text}");
        let s101 = d.pid_snapshot(101).unwrap();
        let s102 = d.pid_snapshot(102).unwrap();
        assert_eq!(
            s101.profile.total_ticks + s102.profile.total_ticks,
            merged.profile.total_ticks,
            "merged totals are the per-pid sums"
        );
        assert!(d.pid_snapshot(999).is_none());
    }

    #[test]
    fn scan_rejects_alien_files_once_and_reports_them() {
        let dir = scratch("alien");
        std::fs::write(dir.0.join("33.tplog"), b"junk").unwrap();
        std::fs::write(dir.0.join("not-a-pid.tplog"), b"junk").unwrap();
        std::fs::write(dir.0.join("034.tplog"), b"junk").unwrap();
        // A valid log saved under another pid's name.
        write_session(&dir.0, 4101, 10);
        let misnamed = dir.0.join("4999.tplog");
        std::fs::rename(dir.0.join("4101.tplog"), &misnamed).unwrap();
        let mut d = test_daemon(&dir.0);
        assert_eq!(d.scan(), 0);
        assert_eq!(d.attach_errors.len(), 3, "pid-named junk is an error");
        let wrong_pid = format!(
            "{}: file is named for pid 4999 but its header says 4101",
            misnamed.display()
        );
        assert_eq!(d.attach_errors[2], wrong_pid);
        // A rejection is of a name, not a pid: junk under pid 34's other
        // spelling does not shadow the log it registers later.
        write_session(&dir.0, 34, 10);
        assert_eq!(d.scan(), 1);
        assert_eq!(d.attach_errors.len(), 3, "rejected files are not retried");
        assert!(d.metrics_text().contains("teeperf_attach_errors_total 3"));
        assert_eq!(d.registry.pids(), [34]);
        // A post-mortem serves no `/metrics`: its closing summary names
        // every rejected file, below the line scripts parse.
        d.config.max_loops = Some(1);
        let summary = d.run(&mpsc::channel().1).unwrap().summary();
        assert!(summary.contains("\nloops 1 requests 0\n"), "{summary}");
        assert!(
            summary.contains(&format!("\nrejected {wrong_pid}\n")),
            "{summary}"
        );
        let rejected = summary.lines().filter(|l| l.starts_with("rejected "));
        assert_eq!(rejected.count(), 3, "{summary}");
    }

    /// The registration directory's mtime, set to `to` through a handle
    /// on the directory.
    fn set_dir_mtime(dir: &Path, to: SystemTime) {
        let handle = std::fs::File::open(dir).expect("open the directory");
        handle.set_modified(to).expect("set the directory's mtime");
    }

    fn dir_mtime(dir: &Path) -> SystemTime {
        std::fs::metadata(dir).unwrap().modified().unwrap()
    }

    #[test]
    fn a_log_registered_under_the_stamp_a_scan_saw_is_still_attached() {
        let dir = scratch("racystamp");
        write_session(&dir.0, 61, 10);
        let mut d = test_daemon(&dir.0);
        assert_eq!(d.scan(), 1);
        // The stamp that scan saw, a change made right after it, and the
        // directory's mtime set back over that change: only the time the
        // read began can tell the two directories apart.
        let seen = dir_mtime(&dir.0);
        write_session(&dir.0, 62, 10);
        set_dir_mtime(&dir.0, seen);
        assert_eq!(dir_mtime(&dir.0), seen);
        assert_eq!(d.scan(), 1, "a read begun within the margin is not trusted");
        assert_eq!(d.registry.pids(), [61, 62]);
        assert_eq!(d.reads, 2);
    }

    #[test]
    fn a_settled_unchanged_directory_is_not_read_again() {
        let dir = scratch("settled");
        write_session(&dir.0, 71, 10);
        let long_ago = SystemTime::now() - 10 * SETTLE_MARGIN;
        set_dir_mtime(&dir.0, long_ago);
        let mut d = test_daemon(&dir.0);
        assert_eq!(d.scan(), 1);
        for _ in 0..5 {
            assert_eq!(d.scan(), 0);
        }
        assert_eq!((d.reads, d.scans), (1, 6), "one read, six scans");
        // A registration moves the mtime, and the next scan reads.
        write_session(&dir.0, 72, 10);
        assert_eq!(d.scan(), 1);
        assert_eq!(d.reads, 2);
        assert_eq!(d.registry.pids(), [71, 72]);
    }

    #[test]
    fn routing_table_serves_every_endpoint() {
        let dir = scratch("routes");
        write_session(&dir.0, 77, 40);
        let mut d = test_daemon(&dir.0);
        d.scan();
        d.registry.pump();
        let get = |d: &mut Daemon, target: &str| {
            route(
                d,
                &Request {
                    method: "GET".into(),
                    target: target.into(),
                },
            )
        };
        let (r, stop) = get(&mut d, "/healthz");
        assert_eq!((r.status, stop), (200, false));
        let (r, _) = get(&mut d, "/snapshot");
        let body = String::from_utf8(r.body).unwrap();
        assert!(body.contains("[live]"));
        assert_eq!(body, d.merged().to_text(), "served == the reference");
        let (r, _) = get(&mut d, "/pid/77");
        assert_eq!(r.status, 200);
        let (r, _) = get(&mut d, "/pid/99");
        assert_eq!(r.status, 404);
        let (r, _) = get(&mut d, "/pid/xyz");
        assert_eq!(r.status, 404);
        let (r, _) = get(&mut d, "/flame.svg");
        assert_eq!(r.status, 200);
        assert!(String::from_utf8(r.body).unwrap().contains("<svg"));
        let (r, _) = get(&mut d, "/flame.svg?pid=77");
        assert_eq!(r.status, 200);
        let (r, _) = get(&mut d, "/flame.svg?pid=99");
        assert_eq!(r.status, 404);
        let (r, _) = get(&mut d, "/metrics");
        assert!(String::from_utf8(r.body)
            .unwrap()
            .contains("teeperf_events_total 4"));
        // Retention is off in this daemon: the listing is empty, a valid
        // query finds nothing, and a malformed one is the client's fault.
        let (r, _) = get(&mut d, "/windows");
        assert_eq!(r.status, 200);
        assert_eq!(r.body, b"[windows]\n");
        let (r, _) = get(&mut d, "/query?windows=all");
        assert_eq!(r.status, 404);
        let (r, _) = get(&mut d, "/query?windows=sideways");
        assert_eq!(r.status, 400);
        assert!(String::from_utf8(r.body).unwrap().contains("sideways"));
        let (r, _) = get(&mut d, "/nope");
        assert_eq!(r.status, 404);
        assert!(String::from_utf8(r.body).unwrap().contains("/query"));
        let (r, stop) = get(&mut d, "/shutdown");
        assert_eq!((r.status, stop), (200, true));
        let (r, _) = route(
            &mut d,
            &Request {
                method: "DELETE".into(),
                target: "/snapshot".into(),
            },
        );
        assert_eq!(r.status, 405);
    }

    #[test]
    fn metrics_break_out_drops_and_regimes_per_pid() {
        let dir = scratch("regime-metrics");
        write_session(&dir.0, 501, 40);
        let mut d = Daemon::new(DaemonConfig {
            dir: dir.0.clone(),
            listen: "127.0.0.1:0".to_string(),
            pump_interval: Duration::from_millis(1),
            snapshot_out: None,
            max_loops: None,
            retention: None,
            budget: Some(teeperf_live::OverheadBudget { pct: 5 }),
        })
        .unwrap()
        .without_liveness_probe();
        d.scan();
        d.registry.pump();
        let m = d.metrics_text();
        assert!(m.contains("teeperf_dropped_total{pid=\"501\"} 0"), "{m}");
        assert!(m.contains("teeperf_regime{pid=\"501\"} 0"), "{m}");
        assert!(m.contains("teeperf_regime_n{pid=\"501\"} 1"), "{m}");
        assert!(
            m.contains("teeperf_budget_headroom_pct{pid=\"501\"} 5"),
            "{m}"
        );
        assert!(
            m.contains("teeperf_regime_transitions_total{pid=\"501\"} 0"),
            "{m}"
        );
        assert!(
            m.contains("teeperf_salvage_reason{reason=\"corrupt-regime-word\"} 0"),
            "{m}"
        );
        // The budgeted fleet's regime block flows through /snapshot too.
        let request = Request {
            method: "GET".into(),
            target: "/snapshot".into(),
        };
        let snap = String::from_utf8(route(&mut d, &request).0.body).unwrap();
        assert!(snap.contains("[regime]\nmode full\n"), "{snap}");
        assert!(snap.contains("budget 5"), "{snap}");
    }

    #[test]
    fn windowed_daemon_serves_listing_query_and_diff() {
        let dir = scratch("windows");
        // pid 101: work exits at tick 60 (window 3), main at 101 (window 6);
        // pid 202: work exits at tick 40 (window 2), main at 101 (window 6).
        write_session(&dir.0, 101, 50);
        write_session(&dir.0, 202, 30);
        let mut d = test_daemon_with(
            &dir.0,
            Some(RingConfig {
                interval: 16,
                capacity: 8,
                max_width: 4,
            }),
        );
        d.scan();
        d.registry.pump();
        let get = |d: &mut Daemon, target: &str| {
            route(
                d,
                &Request {
                    method: "GET".into(),
                    target: target.into(),
                },
            )
            .0
        };
        let r = get(&mut d, "/windows");
        let listing = String::from_utf8(r.body).unwrap();
        assert!(listing.contains("pid 101 interval 16"), "{listing}");
        assert!(listing.contains("pid 202 interval 16"), "{listing}");
        let parsed = teeperf_live::windows_from_text(&listing).unwrap();
        assert_eq!(parsed.len(), 2);

        let r = get(&mut d, "/query?windows=last:5&top=10");
        assert_eq!(r.status, 200);
        let body = String::from_utf8(r.body).unwrap();
        let rows = Snapshot::methods_from_text(&body).unwrap();
        assert!(rows.iter().any(|(name, ..)| name == "work"), "{body}");

        let r = get(&mut d, "/query?diff=2,3&pid=101");
        assert_eq!(r.status, 404, "pid 101 has nothing in window 2");
        let r = get(&mut d, "/query?diff=2,3");
        assert_eq!(r.status, 200, "fleet-wide both windows exist");
        let body = String::from_utf8(r.body).unwrap();
        assert!(body.contains("diff 2 vs 3\n[diff]\n"), "{body}");
        assert!(body.contains("work"), "{body}");
    }

    #[test]
    fn run_loop_shuts_down_on_external_trigger_and_writes_snapshot() {
        let dir = scratch("extshutdown");
        write_session(&dir.0, 55, 20);
        let out = dir.0.join("final.snapshot");
        let mut config = DaemonConfig {
            dir: dir.0.clone(),
            pump_interval: Duration::from_millis(1),
            snapshot_out: Some(out.clone()),
            ..DaemonConfig::default()
        };
        config.listen = "127.0.0.1:0".to_string();
        let d = Daemon::new(config).unwrap().without_liveness_probe();
        let (tx, rx) = mpsc::channel();
        tx.send("test trigger".to_string()).unwrap();
        let report = d.run(&rx).unwrap();
        assert_eq!(
            report.cause,
            ShutdownCause::External("test trigger".to_string())
        );
        assert_eq!(report.attached, vec![55]);
        assert_eq!(report.snapshot_path.as_deref(), Some(out.as_path()));
        let written = std::fs::read_to_string(&out).unwrap();
        let status = Snapshot::summary_from_text(&written).unwrap();
        assert_eq!(status.events, 4);
        assert!(report.summary().contains("attached pids: 55"));
    }

    /// The reply to a request that was already waiting when a one-loop
    /// `run` began: no sleeps and no second thread, so what comes back is
    /// fixed by the order of the loop body alone.
    fn reply_of_one_loop(dir: &Path, retention: Option<RingConfig>, target: &str) -> String {
        let mut d = test_daemon_with(dir, retention);
        d.config.max_loops = Some(1);
        let mut client = std::net::TcpStream::connect(d.addr()).unwrap();
        io::Write::write_all(
            &mut client,
            format!("GET {target} HTTP/1.1\r\n\r\n").as_bytes(),
        )
        .unwrap();
        let (_tx, rx) = mpsc::channel::<String>();
        let report = d.run(&rx).unwrap();
        assert_eq!((report.loops, report.requests), (1, 1));
        let mut reply = String::new();
        io::Read::read_to_string(&mut client, &mut reply).unwrap();
        assert!(reply.starts_with("HTTP/1.1 200 OK\r\n"), "{reply}");
        reply.split_once("\r\n\r\n").unwrap().1.to_string()
    }

    #[test]
    fn a_reply_is_never_older_than_the_drain_of_the_loop_that_served_it() {
        let dir = scratch("drain-then-answer");
        write_session(&dir.0, 61, 50);
        // Attached by this loop's scan, pumped by this loop's pump, served.
        let body = reply_of_one_loop(&dir.0, None, "/snapshot");
        assert_eq!(Snapshot::summary_from_text(&body).unwrap().events, 4);
        let body = reply_of_one_loop(&dir.0, None, "/pid/61");
        assert_eq!(Snapshot::summary_from_text(&body).unwrap().events, 4);
        let body = reply_of_one_loop(&dir.0, None, "/metrics");
        assert!(body.contains("teeperf_events_total 4\n"), "{body}");
        let ring = RingConfig {
            interval: 16,
            capacity: 8,
            max_width: 4,
        };
        let body = reply_of_one_loop(&dir.0, Some(ring), "/windows");
        let listed = teeperf_live::windows_from_text(&body).unwrap();
        assert_eq!(listed.len(), 1, "{body}");
        assert_eq!((listed[0].pid, listed[0].interval), (61, 16), "{body}");
        assert!(
            !listed[0].windows.is_empty(),
            "a window is retained: {body}"
        );
    }

    /// Loop iterations per second of a `pump_interval` 5 ms daemon over
    /// `dir` while `during` runs against its address.
    fn loops_per_s_while(dir: &Path, during: impl FnOnce(&str)) -> f64 {
        let mut d = test_daemon(dir);
        d.config.pump_interval = Duration::from_millis(5);
        let addr = d.addr().to_string();
        let (tx, rx) = mpsc::channel();
        let started = Instant::now();
        let running = std::thread::spawn(move || d.run(&rx).unwrap());
        during(&addr);
        tx.send("done".to_string()).unwrap();
        let report = running.join().unwrap();
        report.loops as f64 / started.elapsed().as_secs_f64()
    }

    #[test]
    fn a_storm_of_readers_cannot_hold_the_drain() {
        const STORM: Duration = Duration::from_millis(1_500);
        let dir = scratch("storm");
        let idle = loops_per_s_while(&dir.0, |_| std::thread::sleep(STORM));

        let debug = DebugInfo::from_functions([("main", 4, 1), ("work", 4, 5)]);
        publish_sidecar(&dir.0, 88, "sym", &debug.to_text()).unwrap();
        let header = make_header(88, 1 << 16, true, 0, 0);
        let mut w = FileShmWriter::create(&dir.0, &header).unwrap();
        // Mutexes, not atomics: raw atomics belong to the transport's seam
        // (teeperf-lint), and nothing here is hot.
        let (written, seen, stop) = (Mutex::new(0u64), Mutex::new(0u64), Mutex::new(false));
        let stopped = || *stop.lock().unwrap();
        let events_of = |addr: &str| {
            let (status, body) = http::get(addr, "/snapshot", Duration::from_secs(5)).unwrap();
            assert_eq!(status, 200);
            Snapshot::summary_from_text(&body).unwrap().events
        };
        let mut floor = 0;
        let stormy = std::thread::scope(|s| {
            // A live writer: work() called and returned a few thousand
            // times a second for as long as the daemon is up.
            s.spawn(|| {
                let (a0, a1) = (debug.entry_addr(0), debug.entry_addr(1));
                let mut write = |entry| {
                    w.write(&entry).unwrap();
                    *written.lock().unwrap() += 1;
                };
                write(e(EventKind::Call, 1, a0));
                let mut tick = 2;
                while !stopped() {
                    write(e(EventKind::Call, tick, a1));
                    write(e(EventKind::Return, tick + 1, a1));
                    tick += 2;
                    std::thread::sleep(Duration::from_micros(200));
                }
            });
            let rate = loops_per_s_while(&dir.0, |addr| {
                while events_of(addr) == 0 {
                    std::thread::sleep(Duration::from_millis(1));
                }
                std::thread::scope(|storm| {
                    floor = *written.lock().unwrap();
                    for _ in 0..8 {
                        // Zero think time: the next request is on its way
                        // as soon as the last reply is read.
                        storm.spawn(|| {
                            while !stopped() {
                                let events = events_of(addr);
                                let mut seen = seen.lock().unwrap();
                                *seen = events.max(*seen);
                            }
                        });
                    }
                    std::thread::sleep(STORM);
                    *stop.lock().unwrap() = true;
                });
            });
            rate
        });
        let visible = seen.into_inner().unwrap();
        assert!(
            visible > floor,
            "no reply of the storm showed an event written during it: {visible} <= {floor}"
        );
        assert!(
            stormy >= idle / 2.0,
            "the storm held the loop: {stormy:.0} loops/s against {idle:.0} idle"
        );
    }

    #[test]
    fn run_loop_respects_the_loop_limit() {
        let dir = scratch("looplimit");
        let config = DaemonConfig {
            dir: dir.0.clone(),
            listen: "127.0.0.1:0".to_string(),
            pump_interval: Duration::from_millis(1),
            max_loops: Some(3),
            ..DaemonConfig::default()
        };
        let d = Daemon::new(config).unwrap().without_liveness_probe();
        let (_tx, rx) = mpsc::channel::<String>();
        let report = d.run(&rx).unwrap();
        assert_eq!(report.cause, ShutdownCause::LoopLimit);
        assert_eq!(report.loops, 3);
    }
}
