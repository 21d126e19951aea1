//! `dist_mixed`: a 2-worker sharded sweep mixing both release families.
//!
//! Census 2000 rows, k ∈ {2,5,10,25}, the seven non-GA generalization
//! algorithms plus six perturbative methods, the numeric properties, 8
//! shards: 52 jobs through `dist::run_supervisor`, with this binary
//! re-executed as the worker. It is the only workload with worker
//! processes, fsync'd shard journals and a merge.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use anoncmp_core::wire::WireDataset;
use anoncmp_engine::dist::{self, DistConfig, DistReport, GridSpec, WorkerCommand};
use anoncmp_engine::{Engine, EngineConfig, EvalJob, EvalRecord, JobStatus, Journal};

use crate::replay::{replay, ReplayJob};
use crate::stats::{self, digest, median};
use crate::trace::Tracer;
use crate::{out_dir, Args, Metrics, Outcome, Phase, CORES, TRACE_REPS};

const ROWS: usize = 2000;
const SHARDS: usize = 8;
const ALGORITHMS: [&str; 13] = [
    "datafly",
    "samarati",
    "incognito",
    "mondrian",
    "greedy",
    "top-down",
    "clustering",
    "noise:0.05",
    "cnoise:0.1",
    "rankswap:8",
    "microagg:5",
    "mdav:4",
    "rwn:10",
];
const PROPERTIES: [&str; 3] = ["neighborhood-risk", "mahalanobis-risk", "bounded-loss"];

fn spec(seed: u64) -> GridSpec {
    GridSpec {
        dataset: WireDataset::Census {
            rows: ROWS,
            seed: 7,
            zip_pool: 25,
        },
        algorithms: ALGORITHMS.iter().map(|s| s.to_string()).collect(),
        ks: vec![2, 5, 10, 25],
        max_suppression: ROWS / 20,
        properties: PROPERTIES.iter().map(|s| s.to_string()).collect(),
        // The workload seed sets the per-job seeds (the perturbative
        // methods' noise); the table stays fixed.
        root_seed: EngineConfig::default().root_seed.wrapping_add(seed),
        shards: SHARDS,
        // Two worker processes of one engine thread each: one per core.
        engine_jobs: 1,
    }
}

/// Called in a worker process after its shard: leaves this process's
/// peak RSS beside the shard journals for the supervisor side to read.
pub fn record_worker_rss(shard: usize) {
    if let Some(dir) = std::env::var_os(dist::ENV_DIR) {
        let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
        let path = Path::new(&dir).join(format!("rss-{shard}-{}.txt", std::process::id()));
        let _ = std::fs::write(path, format!("{}\n", stats::vm_hwm_kib(&status)));
    }
}

/// The largest worker peak RSS (MiB) recorded under `dir`.
fn worker_rss_mb(dir: &Path) -> f64 {
    std::fs::read_dir(dir)
        .into_iter()
        .flatten()
        .flatten()
        .filter(|e| e.file_name().to_string_lossy().starts_with("rss-"))
        .filter_map(|e| std::fs::read_to_string(e.path()).ok())
        .filter_map(|s| s.trim().parse::<f64>().ok())
        .fold(0.0, f64::max)
        / 1024.0
}

/// One supervised run plus what the benchmark measures around it.
struct Supervised {
    report: DistReport,
    wall_s: f64,
    /// From the call until every worker has written its first heartbeat.
    spawn_s: f64,
    rss_mb: f64,
    records: HashMap<u64, EvalRecord>,
    digest: String,
}

fn supervise(spec: &GridSpec, dir: &Path) -> Result<Supervised, String> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let worker = WorkerCommand::current_exe(Vec::new()).map_err(|e| format!("worker: {e}"))?;
    let config = DistConfig::new(dir, CORES);
    let stop = Arc::new(AtomicBool::new(false));
    let started = Instant::now();
    let watcher = {
        let stop = Arc::clone(&stop);
        let dir = dir.to_path_buf();
        std::thread::spawn(move || -> Option<f64> {
            while !stop.load(Ordering::Relaxed) {
                let beating = (0..SHARDS)
                    .filter(|s| dir.join(format!("shard-{s}.hb")).exists())
                    .count();
                if beating >= CORES {
                    return Some(started.elapsed().as_secs_f64());
                }
                std::thread::sleep(Duration::from_micros(200));
            }
            None
        })
    };
    let report = dist::run_supervisor(spec, &config, &worker);
    let wall_s = started.elapsed().as_secs_f64();
    stop.store(true, Ordering::Relaxed);
    let spawn_s = watcher.join().map_err(|_| "heartbeat watcher panicked")?;
    let report = report.map_err(|e| format!("supervisor: {e}"))?;
    let spawn_s = spawn_s.ok_or("the workers never wrote a heartbeat")?;
    let merged = std::fs::read(&report.merged_path).map_err(|e| format!("merged: {e}"))?;
    let records = Journal::replay(&report.merged_path)
        .map_err(|e| format!("merged journal: {e}"))?
        .completed;
    Ok(Supervised {
        wall_s,
        spawn_s,
        rss_mb: worker_rss_mb(dir),
        records,
        digest: digest(&merged),
        report,
    })
}

/// The merged journal's expected digest: the same grid run single-process
/// through `Engine::run`, rendered as the canonical journal.
fn reference_digest(spec: &GridSpec, jobs: &[EvalJob]) -> String {
    let engine = Engine::new(EngineConfig {
        jobs: CORES,
        chunk_threads: 1,
        root_seed: spec.root_seed,
        ..EngineConfig::default()
    });
    let sweep = engine.run(jobs);
    let completed: HashMap<u64, EvalRecord> = sweep
        .outcomes
        .iter()
        .filter(|o| matches!(o.record.status, JobStatus::Ok | JobStatus::Failed { .. }))
        .map(|o| (o.job.job_fingerprint(), o.record.clone()))
        .collect();
    digest(dist::canonical_journal(jobs, &completed).0.as_bytes())
}

/// Counts one run's jobs, and each worker restart as a failed attempt.
/// A job without an `Ok` merged record (quarantined jobs have none) is a
/// failure.
fn account(phase: &mut Phase, jobs: &[EvalJob], run: &Supervised) {
    for job in jobs {
        phase.count(
            run.records
                .get(&job.job_fingerprint())
                .is_some_and(|r| r.status.is_ok()),
        );
    }
    for _ in 0..run.report.restarts {
        phase.count(false);
    }
}

fn run_dir(tag: &str) -> PathBuf {
    out_dir().join(format!("dist-{}-{tag}", std::process::id()))
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let spec = spec(args.seed);
    let jobs = spec.jobs()?;
    // Supervised runs repeat until `--seconds` have passed, at least twice.
    let measured = Instant::now();
    let mut phase = Phase::new("dist");
    let (mut walls, mut setups, mut shard_ms, mut rss) = (vec![], vec![], vec![], 0.0f64);
    let mut digests = Vec::new();
    while walls.len() < 2 || measured.elapsed().as_secs_f64() < args.seconds as f64 {
        let dir = run_dir(&walls.len().to_string());
        let run = supervise(&spec, &dir)?;
        let _ = std::fs::remove_dir_all(&dir);
        account(&mut phase, &jobs, &run);
        walls.push(run.wall_s);
        setups.push(run.spawn_s);
        shard_ms.extend(
            run.report
                .shards
                .iter()
                .filter(|s| s.jobs > 0)
                .map(|s| s.wall_ms as f64),
        );
        rss = rss.max(run.rss_mb);
        digests.push(run.digest);
    }
    phase.print();
    let expected = reference_digest(&spec, &jobs);
    let correct = digests.iter().all(|d| *d == expected);
    eprintln!(
        "dist_mixed: merged digest {} vs single-process {expected}: {}",
        digests[0],
        if correct { "ok" } else { "MISMATCH" }
    );
    let (tail_p, tail_ms) = stats::tail(&shard_ms);
    eprintln!(
        "dist_mixed: {} reps, wall {:?} s; shard wall tail = p{tail_p} of {} samples",
        walls.len(),
        walls
            .iter()
            .map(|w| (w * 1e3).round() / 1e3)
            .collect::<Vec<_>>(),
        shard_ms.len()
    );
    let wall = median(&walls);
    let mut m = Metrics::new();
    m.put("wall_s", wall);
    m.put("setup_s", median(&setups));
    m.put("peak_rss_mb", rss);
    m.put("success_ratio", phase.success_ratio());
    m.put("p50_ms", median(&shard_ms));
    m.put("tail_ms", tail_ms);
    m.put(
        "goodput_rps",
        phase.succeeded as f64 / walls.iter().sum::<f64>(),
    );
    Ok(Outcome {
        correct,
        phases: vec![phase],
        metrics: m,
    })
}

/// The traced run: one supervised run for the dist-level numbers and the
/// records, then [`TRACE_REPS`] times an untraced single-process sweep
/// with a journal for the baseline wall and the layer-by-layer replay
/// with a journal.
pub fn traced(args: &Args, tracer: &Tracer) -> Result<Outcome, String> {
    let spec = spec(args.seed);
    let jobs = spec.jobs()?;
    let dir = run_dir("traced");
    let run = supervise(&spec, &dir)?;
    let mut phase = Phase::new("dist");
    account(&mut phase, &jobs, &run);
    phase.print();

    let mut replayed = Vec::with_capacity(jobs.len());
    for job in &jobs {
        let record = run
            .records
            .get(&job.job_fingerprint())
            .ok_or_else(|| format!("merged journal lacks {}", job.algorithm.label()))?;
        replayed.push(ReplayJob::from_record(job, record));
    }
    let (mut untraced_ms, mut jobs_ms) = (0.0, 0.0);
    let mut report = Default::default();
    for rep in 0..TRACE_REPS {
        let req = rep as u64;
        let untraced = tracer.open("engine.run", None, req);
        let started = Instant::now();
        let engine = Engine::new(EngineConfig {
            jobs: 1,
            chunk_threads: 1,
            root_seed: spec.root_seed,
            ..EngineConfig::default()
        });
        engine
            .checkpoint_to(dir.join(format!("untraced-{rep}.jsonl")))
            .map_err(|e| format!("journal: {e}"))?;
        let sweep = engine.run(&jobs);
        untraced_ms += started.elapsed().as_secs_f64() * 1e3;
        tracer.close(untraced);
        jobs_ms += crate::jobs_ms(&sweep.outcomes);

        let root = tracer.open("replay", None, req);
        report = replay(
            tracer,
            root.id(),
            &replayed,
            Some(&dir.join(format!("replay-{rep}.jsonl"))),
        )?;
        tracer.close(root);
    }
    let _ = std::fs::remove_dir_all(&dir);

    let reps = TRACE_REPS as f64;
    let mut m = crate::layer_metrics(tracer, untraced_ms / reps, jobs_ms / reps);
    m.put("engine.journal.appends", report.journal_appends as f64);
    m.put("engine.journal.bytes", report.journal_bytes as f64);
    let busy: u64 = run.report.shards.iter().map(|s| s.wall_ms).sum();
    m.put("engine.dist.spawn_ms", run.spawn_s * 1e3);
    m.put("engine.dist.merge_ms", run.report.merge.wall_ms as f64);
    m.put(
        "engine.dist.busy_share",
        busy as f64 / (CORES as f64 * run.wall_s * 1e3),
    );
    m.put("engine.dist.restarts", f64::from(run.report.restarts));
    eprintln!(
        "dist_mixed: supervised wall {:.3} s, spawn {:.1} ms, merge {} ms, restarts {}",
        run.wall_s,
        run.spawn_s * 1e3,
        run.report.merge.wall_ms,
        run.report.restarts
    );
    Ok(Outcome {
        correct: true,
        phases: vec![phase],
        metrics: m,
    })
}
