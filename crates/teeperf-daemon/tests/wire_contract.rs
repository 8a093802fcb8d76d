//! The wire-contract property: an arbitrary [`Snapshot`], serialized with
//! `to_text()`, served over a real TCP socket by the daemon's own HTTP
//! serving path ([`teeperf_daemon::route`] + [`teeperf_daemon::http`]),
//! must come back byte-identical — and `summary_from_text` of the HTTP
//! body must equal the summary parsed directly from the source snapshot.
//!
//! The server here is live (a real listener, real connections, the exact
//! request-parsing and response-framing code `teeperfd` runs); only the
//! [`SnapshotService`] behind the routing table is swapped for one that
//! serves the generated snapshots, because a registry cannot be loaded
//! with arbitrary profiles.

use std::collections::BTreeSet;
use std::net::{SocketAddr, TcpListener};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

use proptest::prelude::*;

use teeperf_analyzer::profile::Anomalies;
use teeperf_analyzer::{MethodStats, Profile};
use teeperf_daemon::http::{self, Request};
use teeperf_daemon::{route, SnapshotService};
use teeperf_flamegraph::LiveStatus;
use teeperf_live::{SessionEvent, Snapshot};

fn empty_profile() -> Profile {
    Profile {
        methods: Vec::new(),
        folded: Vec::new(),
        symbols: Vec::new(),
        folded_ids: Vec::new(),
        caller_edges: Vec::new(),
        threads: BTreeSet::new(),
        total_ticks: 0,
        anomalies: Anomalies::default(),
        pids: BTreeSet::new(),
    }
}

fn empty_snapshot() -> Snapshot {
    Snapshot {
        status: LiveStatus::default(),
        profile: empty_profile(),
        events: Vec::new(),
        regime: None,
    }
}

/// The canned service: serves whatever snapshot the test last installed,
/// through the identical routing layer the daemon uses.
struct Canned {
    current: Arc<Mutex<Snapshot>>,
}

impl SnapshotService for Canned {
    fn merged(&mut self) -> Snapshot {
        self.current.lock().expect("snapshot lock").clone()
    }

    fn pid_snapshot(&mut self, pid: u64) -> Option<Snapshot> {
        let snap = self.current.lock().expect("snapshot lock").clone();
        snap.profile.pids.contains(&pid).then_some(snap)
    }

    fn metrics_text(&mut self) -> String {
        "canned_service 1\n".to_string()
    }
}

/// One live server for the whole test binary: accept → parse → route →
/// respond, one connection at a time, forever (it dies with the process).
fn server() -> &'static (SocketAddr, Arc<Mutex<Snapshot>>) {
    static SERVER: OnceLock<(SocketAddr, Arc<Mutex<Snapshot>>)> = OnceLock::new();
    SERVER.get_or_init(|| {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind test server");
        let addr = listener.local_addr().expect("local addr");
        let current = Arc::new(Mutex::new(empty_snapshot()));
        let mut service = Canned {
            current: Arc::clone(&current),
        };
        std::thread::spawn(move || {
            for stream in listener.incoming() {
                let Ok(mut stream) = stream else { continue };
                let _ = stream.set_read_timeout(Some(Duration::from_secs(5)));
                if let Ok(req) = http::read_request(&mut stream) {
                    let (response, _) = route(&mut service, &req);
                    let _ = response.write_to(&mut stream);
                }
            }
        });
        (addr, current)
    })
}

fn fetch(addr: SocketAddr, path: &str) -> (u16, String) {
    http::get(&addr.to_string(), path, Duration::from_secs(10)).expect("http get")
}

/// Build a snapshot from plain generated numbers (the shimmed proptest
/// has no string strategies; names are derived from small integers).
#[allow(clippy::type_complexity)]
fn assemble(
    counters: (u64, u64, u64, u64, u64, u64),
    methods: Vec<(u8, u64, u64, u64)>,
    folded: Vec<(Vec<u8>, u64)>,
    pids: Vec<u64>,
    events: Vec<(u64, u8)>,
) -> Snapshot {
    let name = |i: u8| format!("m{}", i % 26);
    let (epoch, n_events, dropped, threads, open, total_ticks) = counters;
    let mut profile = empty_profile();
    profile.total_ticks = total_ticks;
    profile.pids = pids.into_iter().collect();
    profile.methods = methods
        .into_iter()
        .map(|(i, calls, inclusive, exclusive)| MethodStats {
            name: name(i),
            addr: 0x40_0000 + u64::from(i),
            calls,
            inclusive,
            exclusive,
            min_inclusive: inclusive.min(1),
            max_inclusive: inclusive,
            threads: BTreeSet::from([0]),
        })
        .collect();
    profile.folded = folded
        .into_iter()
        .map(|(path, ticks)| (path.into_iter().map(name).collect(), ticks))
        .collect();
    let events = events
        .into_iter()
        .map(|(pid, kind)| match kind % 3 {
            0 => SessionEvent::Attached { pid },
            1 => SessionEvent::Detached { pid },
            _ => SessionEvent::Quarantined {
                pid,
                reason: format!("no progress after {pid} pumps"),
            },
        })
        .collect();
    Snapshot {
        status: LiveStatus {
            epoch,
            events: n_events,
            dropped,
            threads,
            open_frames: open,
        },
        profile,
        events,
        regime: None,
    }
}

proptest::proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `to_text` → live HTTP → body is byte-identical, and the parsed
    /// summary equals the direct one (which equals the source status).
    #[test]
    fn snapshot_round_trips_through_live_http(
        counters in (
            0u64..1_000_000, 0u64..1_000_000, 0u64..1_000_000,
            0u64..64, 0u64..64, 0u64..1_000_000,
        ),
        methods in proptest::collection::vec(
            (0u8..26, 1u64..1_000, 0u64..100_000, 0u64..100_000), 0..8),
        folded in proptest::collection::vec(
            (proptest::collection::vec(0u8..26, 1..5), 1u64..10_000), 0..8),
        pids in proptest::collection::vec(1u64..1_000, 0..5),
        events in proptest::collection::vec((1u64..1_000, 0u8..3), 0..5),
    ) {
        let snap = assemble(counters, methods, folded, pids, events);
        let direct = Snapshot::summary_from_text(&snap.to_text())
            .expect("every generated snapshot serializes parseably");
        prop_assert_eq!(&direct, &snap.status);

        let (addr, current) = server();
        let expected_text = snap.to_text();
        let pid_probe = snap.profile.pids.iter().next().copied();
        *current.lock().expect("snapshot lock") = snap;

        let (status, body) = fetch(*addr, "/snapshot");
        prop_assert_eq!(status, 200);
        prop_assert_eq!(&body, &expected_text, "HTTP must not reframe the payload");
        let over_wire = Snapshot::summary_from_text(&body)
            .expect("served snapshot must stay parseable");
        prop_assert_eq!(&over_wire, &direct);

        // The per-pid endpoint speaks the same contract.
        if let Some(pid) = pid_probe {
            let (status, body) = fetch(*addr, &format!("/pid/{pid}"));
            prop_assert_eq!(status, 200);
            prop_assert_eq!(
                Snapshot::summary_from_text(&body).expect("parseable"),
                over_wire
            );
        }
    }
}

#[test]
fn unknown_pid_is_a_404_not_a_forged_snapshot() {
    // Whatever snapshot the proptest has installed on the shared server
    // (its pids stay below 1000), this pid is unknown. Installing one here
    // would race that test's install-then-fetch.
    let (addr, _) = server();
    let (status, body) = fetch(*addr, "/pid/424242");
    assert_eq!(status, 404);
    assert!(
        Snapshot::summary_from_text(&body).is_err(),
        "an error body must never parse as a healthy summary"
    );
}

#[test]
fn routing_is_exercised_through_the_same_objects_teeperfd_uses() {
    // Belt-and-braces: the `route` function used above is the daemon's
    // own (same symbol), not a test re-implementation.
    let mut service = Canned {
        current: Arc::new(Mutex::new(empty_snapshot())),
    };
    let (resp, stop) = route(
        &mut service,
        &Request {
            method: "GET".into(),
            target: "/healthz".into(),
        },
    );
    assert_eq!((resp.status, stop), (200, false));
}
