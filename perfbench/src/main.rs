//! Seeded end-to-end benchmark of the anoncmp workspace.
//!
//! ```text
//! perfbench --workload study|serve_zipf|dist_mixed --seed N --seconds S --trace 0|1
//! perfbench pin-study FROM TO      # digests for pinned.json
//! ```
//!
//! With `--trace 0` a run measures the end-to-end metrics with no
//! tracing; with `--trace 1` it replays the same work with spans around
//! every call into a layer and reports per-layer self times. Either way
//! the last line of standard output is one JSON object:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…}}}`.
//! Human-readable detail (phases, checks, span summary) goes to stderr.
//! See `README.md` beside this crate for the workloads and metrics.

mod dist;
mod replay;
mod serve;
mod stats;
mod study;
mod trace;

use std::collections::{BTreeMap, HashMap, HashSet};
use std::path::PathBuf;

use serde::json::Value;

use crate::trace::{self_times, Tracer};

/// The benchmark is sized for two cores: engine workers, dist workers,
/// serve threads and client connections never exceed this.
pub const CORES: usize = 2;

/// Untraced runs and traced replays a traced run alternates, so a drift
/// in machine speed falls on both alike.
pub const TRACE_REPS: usize = 3;

/// Structural spans of the replay: they group layer spans and are not
/// layers.
const STRUCTURAL: [&str; 2] = ["job", "replay"];

/// Every per-layer metric a traced run reports, with its unit. A layer a
/// workload does not exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("datagen.synth_ms", "ms"),
    ("anonymize.search_ms.datafly", "ms"),
    ("anonymize.search_ms.samarati", "ms"),
    ("anonymize.search_ms.incognito", "ms"),
    ("anonymize.search_ms.mondrian", "ms"),
    ("anonymize.search_ms.greedy", "ms"),
    ("anonymize.search_ms.genetic", "ms"),
    ("anonymize.search_ms.top-down", "ms"),
    ("anonymize.search_ms.clustering", "ms"),
    ("anonymize.perturb_ms.noise", "ms"),
    ("anonymize.perturb_ms.cnoise", "ms"),
    ("anonymize.perturb_ms.rankswap", "ms"),
    ("anonymize.perturb_ms.microagg", "ms"),
    ("anonymize.perturb_ms.mdav", "ms"),
    ("anonymize.perturb_ms.rwn", "ms"),
    ("microdata.numeric_base_ms", "ms"),
    ("microdata.total_loss_ms", "ms"),
    ("core.extract_ms.eq-class-size", "ms"),
    ("core.extract_ms.iyengar-utility", "ms"),
    ("core.extract_ms.neighborhood-risk", "ms"),
    ("core.extract_ms.mahalanobis-risk", "ms"),
    ("core.extract_ms.bounded-loss", "ms"),
    ("core.matrix_ms", "ms"),
    ("engine.digest_ms", "ms"),
    ("engine.sweep_self_ms", "ms"),
    ("engine.release_hit_ratio", "ratio"),
    ("engine.vector_hit_ratio", "ratio"),
    ("engine.journal.appends", "count"),
    ("engine.journal.bytes", "bytes"),
    ("engine.journal.append_ms", "ms"),
    ("engine.dist.spawn_ms", "ms"),
    ("engine.dist.merge_ms", "ms"),
    ("engine.dist.busy_share", "ratio"),
    ("engine.dist.restarts", "count"),
    ("serve.connect_ms.p50", "ms"),
    ("serve.connect_ms.tail", "ms"),
    ("serve.ttfb_ms.p50", "ms"),
    ("serve.ttfb_ms.tail", "ms"),
    ("serve.body_ms.p50", "ms"),
    ("serve.body_ms.tail", "ms"),
    ("serve.response_kb", "KiB"),
    ("serve.miss_engine_ms.p50", "ms"),
    ("serve.miss_serve_ms.p50", "ms"),
    ("serve.hit_path_ms.p50", "ms"),
    ("serve.accept_wait_ms.p50", "ms"),
    ("serve.response_hit_ratio", "ratio"),
    ("serve.shed", "count"),
    ("serve.rejected", "count"),
    ("loadgen.late_ms", "ms"),
    ("loadgen.backlog", "count"),
    ("loadgen.capacity_rps", "1/s"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_ms", "ms"),
];

const PINNED: &str = include_str!("../pinned.json");

fn pinned() -> Value {
    serde::json::parse(PINNED).expect("pinned.json is valid JSON")
}

/// The pinned canonical-record digest of the study for `seed`, if any.
pub fn pinned_study_digest(seed: u64) -> Option<String> {
    pinned()
        .get("study_digests")?
        .get(&seed.to_string())?
        .as_str()
        .map(str::to_owned)
}

/// A fixed number from `pinned.json`'s `serve` object.
pub fn pinned_serve(key: &str) -> f64 {
    pinned()
        .get("serve")
        .and_then(|s| s.get(key))
        .and_then(Value::as_f64)
        .unwrap_or_else(|| panic!("pinned.json lacks serve.{key}"))
}

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

/// Metric values by name; units come from [`END_TO_END`] and
/// [`PER_LAYER`].
#[derive(Default)]
pub struct Metrics(BTreeMap<String, f64>);

impl Metrics {
    pub fn new() -> Metrics {
        Metrics::default()
    }

    pub fn put(&mut self, name: &str, value: f64) {
        self.0
            .insert(name.to_owned(), if value.is_finite() { value } else { 0.0 });
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// Attempted / succeeded / failed accounting of one phase of a run.
pub struct Phase {
    pub name: String,
    pub attempted: u64,
    pub succeeded: u64,
}

impl Phase {
    pub fn new(name: &str) -> Phase {
        Phase {
            name: name.to_owned(),
            attempted: 0,
            succeeded: 0,
        }
    }

    pub fn count(&mut self, ok: bool) {
        self.attempted += 1;
        self.succeeded += u64::from(ok);
    }

    pub fn failed(&self) -> u64 {
        self.attempted - self.succeeded
    }

    pub fn success_ratio(&self) -> f64 {
        if self.attempted == 0 {
            return 0.0;
        }
        self.succeeded as f64 / self.attempted as f64
    }

    pub fn print(&self) {
        eprintln!(
            "phase {}: attempted {}, succeeded {}, failed {}, error_rate {:.4}",
            self.name,
            self.attempted,
            self.succeeded,
            self.failed(),
            1.0 - self.success_ratio()
        );
    }
}

pub struct Outcome {
    pub correct: bool,
    pub phases: Vec<Phase>,
    pub metrics: Metrics,
}

impl Outcome {
    fn to_json(&self, names: &[(&str, &str)]) -> String {
        let attempted: u64 = self.phases.iter().map(|p| p.attempted).sum();
        let failed: u64 = self.phases.iter().map(Phase::failed).sum();
        let metrics: Vec<String> = names
            .iter()
            .map(|&(name, unit)| {
                let value = self.metrics.get(name).unwrap_or(0.0);
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            self.correct,
            attempted.max(1),
            metrics.join(", ")
        )
    }
}

/// The end-to-end metrics every untraced run reports, with units.
const END_TO_END: &[(&str, &str)] = &[
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("success_ratio", "ratio"),
    ("p50_ms", "ms"),
    ("tail_ms", "ms"),
    ("goodput_rps", "1/s"),
];

/// Self time per layer name over the spans under the `replay` spans,
/// and the replays' wall time, in milliseconds per replay.
fn replay_layers(tracer: &Tracer) -> (BTreeMap<String, f64>, f64) {
    let spans = tracer.spans();
    let parent: HashMap<u64, Option<u64>> = spans.iter().map(|s| (s.id, s.parent)).collect();
    let roots: HashSet<u64> = spans
        .iter()
        .filter(|s| s.name == "replay")
        .map(|s| s.id)
        .collect();
    let under_replay = |mut id: u64| loop {
        if roots.contains(&id) {
            return true;
        }
        match parent.get(&id).copied().flatten() {
            Some(p) => id = p,
            None => return false,
        }
    };
    let per_replay = roots.len().max(1) as f64;
    let replay_ms = spans
        .iter()
        .filter(|s| roots.contains(&s.id))
        .map(|s| s.ms())
        .sum::<f64>()
        / per_replay;
    let kept: Vec<_> = spans.into_iter().filter(|s| under_replay(s.id)).collect();
    let layers = self_times(&kept)
        .into_iter()
        .filter(|(name, _)| !STRUCTURAL.contains(&name.as_str()))
        .map(|(name, ms)| (name, ms / per_replay))
        .collect();
    (layers, replay_ms)
}

/// Per-layer self times of the traced replay, plus its coverage and the
/// tracing overhead against `untraced_ms`, the wall time of the same
/// work run untraced through `Engine::run`, per run. Coverage is the
/// layers' total self time over that untraced wall: the share of the
/// program's own run that the layer spans account for. `jobs_ms` is the
/// untraced run's summed job time (`EvalRecord::duration_ms`), so
/// `Engine::run`'s own time is `untraced_ms - jobs_ms`. Prints the
/// self-time summary.
pub fn layer_metrics(tracer: &Tracer, untraced_ms: f64, jobs_ms: f64) -> Metrics {
    let (layers, replay_ms) = replay_layers(tracer);
    let mut m = Metrics::new();
    let mut rows: Vec<(&String, &f64)> = layers.iter().collect();
    rows.sort_by(|a, b| b.1.total_cmp(a.1));
    eprintln!("per-layer self time (traced replay {replay_ms:.1} ms):");
    for (name, ms) in rows {
        eprintln!(
            "  {name:<36} {ms:>10.2} ms  {:>5.1}%",
            100.0 * ms / replay_ms
        );
        m.put(name, *ms);
    }
    let layered: f64 = layers.values().sum();
    let coverage = if untraced_ms > 0.0 {
        layered / untraced_ms
    } else {
        0.0
    };
    eprintln!(
        "trace coverage: layers {layered:.1} ms of the untraced Engine::run wall {untraced_ms:.1} ms = {:.2}%",
        100.0 * coverage
    );
    eprintln!(
        "trace overhead: traced {replay_ms:.1} ms - untraced {untraced_ms:.1} ms = {:.1} ms",
        replay_ms - untraced_ms
    );
    m.put("trace.coverage", coverage);
    m.put("trace.overhead_ms", replay_ms - untraced_ms);
    m.put("engine.sweep_self_ms", untraced_ms - jobs_ms);
    m
}

/// Summed job time of a sweep's outcomes, in milliseconds, as the engine
/// recorded it.
pub fn jobs_ms(outcomes: &[anoncmp_engine::JobOutcome]) -> f64 {
    outcomes.iter().map(|o| o.record.duration_ms as f64).sum()
}

/// Scratch directory for journals, dist shards and span files, inside
/// the checkout the benchmark runs from.
pub fn out_dir() -> PathBuf {
    let dir = PathBuf::from(".perfbench-out");
    std::fs::create_dir_all(&dir).expect("create .perfbench-out");
    dir
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload study|serve_zipf|dist_mixed --seed N --seconds S --trace 0|1\n\
         \x20      perfbench pin-study FROM TO"
    );
    std::process::exit(2);
}

fn parse_args(argv: &[String]) -> Args {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10,
        trace: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().unwrap_or_else(|_| usage()),
            "--seconds" => args.seconds = value.parse().unwrap_or_else(|_| usage()),
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            _ => usage(),
        }
    }
    if args.seconds == 0 {
        usage();
    }
    args
}

fn main() {
    // Worker mode: the dist supervisor re-executes this binary with the
    // shard assignment in the environment.
    match anoncmp_engine::dist::run_worker_from_env() {
        Ok(Some(summary)) => {
            dist::record_worker_rss(summary.shard);
            return;
        }
        Ok(None) => {}
        Err(e) => {
            eprintln!("perfbench dist worker: {e}");
            std::process::exit(1);
        }
    }

    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("pin-study") {
        let bound = |i: usize| -> u64 {
            argv.get(i)
                .and_then(|s| s.parse().ok())
                .unwrap_or_else(|| usage())
        };
        println!("{}", study::pin(bound(1), bound(2)));
        return;
    }
    let args = parse_args(&argv);
    let tracer = Tracer::new();
    let outcome = match (args.workload.as_str(), args.trace) {
        ("study", false) => study::run(&args),
        ("study", true) => study::traced(&args, &tracer),
        ("serve_zipf", trace) => serve::run(&args, trace.then_some(&tracer)),
        ("dist_mixed", false) => dist::run(&args),
        ("dist_mixed", true) => dist::traced(&args, &tracer),
        _ => usage(),
    };
    let outcome = match outcome {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench {}: {e}", args.workload);
            std::process::exit(1);
        }
    };
    let names = if args.trace {
        let path = out_dir().join(format!("{}-{}.spans.jsonl", args.workload, args.seed));
        match tracer.write_jsonl(&path) {
            Ok(()) => eprintln!("spans: {}", path.display()),
            Err(e) => eprintln!("spans: could not write {}: {e}", path.display()),
        }
        PER_LAYER
    } else {
        END_TO_END
    };
    println!("{}", outcome.to_json(names));
    if !outcome.correct {
        eprintln!("perfbench {}: output check FAILED", args.workload);
        std::process::exit(1);
    }
}
