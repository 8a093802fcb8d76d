//! What a run reports, and how: the printed table, `out/result.json`,
//! `out/trace.json`, and the one-line result the driver reads.

use std::path::Path;

use crate::catalog;
use crate::json::Json;
use crate::stats::{summarize, Summary};

/// One reported number.
#[derive(Debug, Clone)]
pub struct Measured {
    pub name: String,
    pub unit: &'static str,
    /// The reported value (of a metric computed per segment: the median).
    pub value: f64,
    /// Spread of the per-segment values behind `value`.
    pub spread: Summary,
    /// The per-segment values themselves, in time order (empty for a
    /// metric measured once).
    pub segments: Vec<f64>,
    /// Anything a reader must know to interpret the value.
    pub note: Option<String>,
}

impl Measured {
    /// A metric computed once per segment and reported as their median.
    /// `None` for no segments.
    pub fn of_segments(name: &str, unit: &'static str, values: &[f64]) -> Option<Measured> {
        let spread = summarize(values)?;
        Some(Measured {
            name: name.to_string(),
            unit,
            value: spread.median,
            spread,
            segments: values.to_vec(),
            note: None,
        })
    }

    /// A metric measured once over the whole phase.
    pub fn once(name: &str, unit: &'static str, value: f64) -> Measured {
        Measured {
            name: name.to_string(),
            unit,
            value,
            spread: Summary::single(value),
            segments: Vec::new(),
            note: None,
        }
    }

    pub fn with_note(mut self, note: impl Into<String>) -> Measured {
        self.note = Some(note.into());
        self
    }

    fn to_json(&self) -> Json {
        let mut fields = vec![
            ("value".to_string(), Json::Num(self.value)),
            ("unit".to_string(), Json::str(self.unit)),
            ("median".to_string(), Json::Num(self.spread.median)),
            ("q1".to_string(), Json::Num(self.spread.q1)),
            ("q3".to_string(), Json::Num(self.spread.q3)),
            ("n".to_string(), Json::Int(self.spread.n as u64)),
        ];
        if !self.segments.is_empty() {
            fields.push((
                "segments".to_string(),
                Json::Arr(self.segments.iter().map(|v| Json::Num(*v)).collect()),
            ));
        }
        if let Some(note) = &self.note {
            fields.push(("note".to_string(), Json::str(note.as_str())));
        }
        Json::Obj(fields)
    }
}

/// One workload's outcome.
#[derive(Debug, Clone)]
pub struct WorkloadResult {
    pub workload: &'static str,
    /// With tracing off: every end-to-end metric. Traced: every per-layer
    /// metric.
    pub metrics: Vec<Measured>,
    /// Workload-specific numbers reported beside the metrics; no bound
    /// applies to them.
    pub observations: Vec<Measured>,
    /// Events offered + polls issued (fleet); program runs (batch).
    pub attempted: u64,
    pub failed: u64,
    /// One line per failure class, for the human reading the output.
    pub failures: Vec<String>,
    /// Run facts for the header: daemon flags, segment length, warm-up.
    pub facts: Vec<(String, Json)>,
}

impl WorkloadResult {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.failures.is_empty()
    }

    pub fn failed_ratio(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The line the driver reads: exactly `correct`, `attempted`, `failed`
    /// and `metrics`.
    pub fn result_line(&self) -> String {
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Int(self.attempted.max(1))),
            ("failed", Json::Int(self.failed)),
            (
                "metrics",
                Json::Obj(
                    self.metrics
                        .iter()
                        .map(|m| {
                            (
                                m.name.clone(),
                                Json::obj([
                                    ("value", Json::Num(m.value)),
                                    ("unit", Json::str(m.unit)),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
        ])
        .compact()
    }

    fn to_json(&self) -> Json {
        let table = |rows: &[Measured]| {
            Json::Obj(rows.iter().map(|m| (m.name.clone(), m.to_json())).collect())
        };
        let mut fields = vec![
            ("correct".to_string(), Json::Bool(self.correct())),
            ("attempted".to_string(), Json::Int(self.attempted)),
            ("failed".to_string(), Json::Int(self.failed)),
            ("failed_ratio".to_string(), Json::Num(self.failed_ratio())),
            (
                "failures".to_string(),
                Json::Arr(
                    self.failures
                        .iter()
                        .map(|f| Json::str(f.as_str()))
                        .collect(),
                ),
            ),
        ];
        fields.extend(self.facts.iter().cloned());
        fields.push(("metrics".to_string(), table(&self.metrics)));
        fields.push(("observations".to_string(), table(&self.observations)));
        Json::Obj(fields)
    }

    /// Every metric by name with its unit, for the terminal.
    pub fn print(&self) {
        println!("== {} ==", self.workload);
        for (title, rows) in [
            ("metric", &self.metrics),
            ("observation", &self.observations),
        ] {
            for m in rows {
                let note = m
                    .note
                    .as_deref()
                    .map(|n| format!("  ({n})"))
                    .unwrap_or_default();
                println!(
                    "{title:11} {:44} {:>16.6} {:7} q1 {:.6} q3 {:.6} n {}{note}",
                    m.name, m.value, m.unit, m.spread.q1, m.spread.q3, m.spread.n
                );
            }
        }
        println!(
            "failed_ratio {} ({} failed of {} attempted)",
            self.failed_ratio(),
            self.failed,
            self.attempted
        );
        for f in &self.failures {
            println!("FAILURE: {f}");
        }
    }
}

/// Host, revision and run parameters: the hygiene ROADMAP asks of every
/// bench file.
#[derive(Debug, Clone)]
pub struct Header {
    pub seed: u64,
    pub seconds: f64,
    pub segments: usize,
    pub smoke: bool,
    pub traced: bool,
}

fn first_line_of(path: &str, key: &str) -> Option<String> {
    std::fs::read_to_string(path).ok()?.lines().find_map(|l| {
        let (k, v) = l.split_once(':')?;
        (k.trim() == key).then(|| v.trim().to_string())
    })
}

fn git_revision() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(
            || "unknown (not a git checkout)".to_string(),
            |s| s.trim().to_string(),
        )
}

impl Header {
    fn to_json(&self) -> Json {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        Json::obj([
            (
                "host",
                Json::obj([
                    ("nproc", Json::Int(nproc as u64)),
                    (
                        "kernel",
                        Json::str(
                            std::fs::read_to_string("/proc/sys/kernel/osrelease")
                                .map_or_else(|_| "unknown".to_string(), |s| s.trim().to_string()),
                        ),
                    ),
                    (
                        "cpu_model",
                        Json::str(
                            first_line_of("/proc/cpuinfo", "model name")
                                .unwrap_or_else(|| "unknown".to_string()),
                        ),
                    ),
                ]),
            ),
            ("git_revision", Json::str(git_revision())),
            ("seed", Json::Int(self.seed)),
            ("run_seconds", Json::Num(self.seconds)),
            ("segments", Json::Int(self.segments as u64)),
            ("smoke", Json::Bool(self.smoke)),
            ("traced", Json::Bool(self.traced)),
            (
                "warm_up_discarded",
                Json::str(
                    "fleet workloads: the first 1 s of load; batch_profile: one untimed suite pass",
                ),
            ),
        ])
    }
}

/// What every name in the file means: the workloads and the metrics of
/// this kind of run, so a result file can be read without the README.
fn catalog_json(traced: bool) -> Json {
    let workloads = catalog::WORKLOADS.iter().map(|w| {
        (
            w.name,
            Json::obj([("load", Json::str(w.load)), ("why", Json::str(w.why))]),
        )
    });
    let metrics: Vec<(&str, Json)> = if traced {
        catalog::PER_LAYER
            .iter()
            .map(|m| {
                (
                    m.name,
                    Json::obj([
                        ("unit", Json::str(m.unit)),
                        ("better", Json::str(m.better.as_str())),
                        ("moves", Json::str(m.moves)),
                    ]),
                )
            })
            .collect()
    } else {
        catalog::END_TO_END
            .iter()
            .map(|m| {
                (
                    m.name,
                    Json::obj([
                        ("unit", Json::str(m.unit)),
                        ("better", Json::str(m.better.as_str())),
                        ("bound", Json::Num(m.bound)),
                        ("fleet", Json::str(m.fleet)),
                        ("batch", Json::str(m.batch)),
                    ]),
                )
            })
            .collect()
    };
    Json::obj([
        ("workloads", Json::obj(workloads)),
        ("metrics", Json::obj(metrics)),
    ])
}

/// Write `result.json` (or `trace.json` for a traced run, with the spans
/// of each workload) into `out_dir`.
pub fn write_results(
    out_dir: &Path,
    header: &Header,
    results: &[WorkloadResult],
    spans: Vec<(String, Json)>,
) -> std::io::Result<()> {
    std::fs::create_dir_all(out_dir)?;
    let mut fields = vec![
        ("header".to_string(), header.to_json()),
        ("catalog".to_string(), catalog_json(header.traced)),
        (
            "workloads".to_string(),
            Json::Obj(
                results
                    .iter()
                    .map(|r| (r.workload.to_string(), r.to_json()))
                    .collect(),
            ),
        ),
    ];
    if !spans.is_empty() {
        fields.push(("spans".to_string(), Json::Obj(spans)));
    }
    let file = if header.traced {
        "trace.json"
    } else {
        "result.json"
    };
    std::fs::write(out_dir.join(file), Json::Obj(fields).pretty())
}

/// Order `metrics` as the catalog lists them and check none is missing.
pub fn in_catalog_order(
    mut metrics: Vec<Measured>,
    names: &[&'static str],
) -> Result<Vec<Measured>, String> {
    let mut ordered = Vec::with_capacity(names.len());
    for name in names {
        let at = metrics
            .iter()
            .position(|m| m.name == *name)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        ordered.push(metrics.swap_remove(at));
    }
    match metrics.first() {
        Some(extra) => Err(format!("metric {} is not in the catalog", extra.name)),
        None => Ok(ordered),
    }
}
