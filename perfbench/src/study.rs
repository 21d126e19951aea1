//! `study`: the paper's comparison study (the E13 grid) in a fresh engine.
//!
//! Census 1000 rows, k ∈ {2,5,10,25,50}, the eight-algorithm standard
//! suite, properties `eq-class-size` and `iyengar-utility`, followed by
//! the ▶cov/▶spr/▶rank tournaments of every k. Each repetition builds a
//! fresh engine, so nothing is served from a cache. The table is E13's;
//! the workload seed sets the engine's root seed.

use std::io::{self, Write};
use std::time::Instant;

use anoncmp_core::prelude::{
    ComparisonMatrix, CoverageComparator, PropertyVector, RankComparator, SpreadComparator,
};
use anoncmp_engine::{AlgorithmSpec, DatasetSpec, Engine, EngineConfig, EvalJob, PropertySpec};

use crate::replay::{replay, ReplayJob};
use crate::stats::{self, digest, median, peak_rss_mb};
use crate::trace::Tracer;
use crate::{Args, Metrics, Outcome, Phase, CORES, TRACE_REPS};

const ROWS: usize = 1000;
const KS: [usize; 5] = [2, 5, 10, 25, 50];
/// Set-ups timed for `setup_s` before each sweep, so the samples spread
/// over the whole run rather than its first milliseconds.
const SETUP_SAMPLES: usize = 21;

/// The E13 grid over the paper study's census table (dataset seed 2024).
pub fn jobs() -> Vec<EvalJob> {
    let dataset = DatasetSpec::Census {
        rows: ROWS,
        seed: 2024,
        zip_pool: 25,
    };
    KS.iter()
        .flat_map(|&k| {
            let dataset = dataset.clone();
            AlgorithmSpec::standard_suite()
                .into_iter()
                .map(move |algorithm| EvalJob {
                    dataset: dataset.clone(),
                    algorithm,
                    k,
                    max_suppression: ROWS / 20,
                    properties: vec![PropertySpec::EqClassSize, PropertySpec::IyengarUtility],
                })
        })
        .collect()
}

/// A fresh engine whose root seed, and so every per-job seed (the GA's
/// RNG stream), derives from the workload seed. Seed 0 is E13's own
/// configuration.
fn engine(jobs: usize, seed: u64) -> Engine {
    Engine::new(EngineConfig {
        jobs,
        chunk_threads: 1,
        root_seed: EngineConfig::default().root_seed.wrapping_add(seed),
        ..EngineConfig::default()
    })
}

/// Renders the ▶cov/▶spr wins and ▶rank distance of every candidate, one
/// block per k, from `(k, algorithm, privacy vector)` entries.
pub fn tournaments(entries: &[(usize, String, PropertyVector)]) -> String {
    let mut out = String::new();
    for k in KS {
        let (names, vectors): (Vec<&str>, Vec<PropertyVector>) = entries
            .iter()
            .filter(|(ek, _, _)| *ek == k)
            .map(|(_, name, v)| (name.as_str(), v.clone()))
            .unzip();
        let cov = ComparisonMatrix::of_vectors(&names, &vectors, &CoverageComparator);
        let spr = ComparisonMatrix::of_vectors(&names, &vectors, &SpreadComparator);
        let refs: Vec<&PropertyVector> = vectors.iter().collect();
        let rank = RankComparator::toward_ideal_of(&refs);
        for (i, name) in names.iter().enumerate() {
            out.push_str(&format!(
                "k={k} {name} cov={} spr={} rank={:.3}\n",
                cov.wins(i),
                spr.wins(i),
                rank.rank(&vectors[i])
            ));
        }
    }
    out
}

/// Timestamps every record line the engine streams.
struct LineClock(Vec<Instant>);

impl Write for LineClock {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let now = Instant::now();
        let lines = buf.iter().filter(|&&b| b == b'\n').count();
        self.0.extend(std::iter::repeat_n(now, lines));
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// The digest the study's canonical records must have for `seed`: the
/// pinned value, or, for a seed not pinned, a single-worker reference run.
fn expected_digest(seed: u64) -> (String, &'static str) {
    match crate::pinned_study_digest(seed) {
        Some(d) => (d, "pinned"),
        None => {
            let sweep = engine(1, seed).run(&jobs());
            (
                digest(sweep.canonical_jsonl().as_bytes()),
                "1-worker reference",
            )
        }
    }
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    // Sweeps repeat until `--seconds` have passed, at least twice.
    let measured = Instant::now();
    let (mut walls, mut p50s, mut tails, mut setup) = (vec![], vec![], vec![], vec![]);
    let mut tail_p = 0.0;
    let mut phase = Phase::new("sweep");
    let mut digests = Vec::new();
    while walls.len() < 2 || measured.elapsed().as_secs_f64() < args.seconds as f64 {
        // Set-up is everything before the first job can be issued: the
        // engine and grid build, and the dataset synthesis `Engine::run`
        // does up front before it hands out jobs.
        for _ in 0..SETUP_SAMPLES {
            let started = Instant::now();
            let e = engine(CORES, args.seed);
            let grid = jobs();
            let dataset = grid[0].dataset.materialize();
            setup.push(started.elapsed().as_secs_f64());
            std::hint::black_box((&e, &grid, &dataset));
        }

        let started = Instant::now();
        let e = engine(CORES, args.seed);
        let grid = jobs();
        let mut clock = LineClock(Vec::with_capacity(grid.len()));
        let sweep = e
            .run_streaming(&grid, &mut clock)
            .map_err(|e| format!("sweep: {e}"))?;
        let entries: Vec<(usize, String, PropertyVector)> = sweep
            .outcomes
            .iter()
            .filter(|o| o.record.status.is_ok())
            .map(|o| (o.job.k, o.record.algorithm.clone(), o.vectors[0].clone()))
            .collect();
        let rendered = tournaments(&entries);
        walls.push(started.elapsed().as_secs_f64());
        std::hint::black_box(rendered);
        let latencies_ms: Vec<f64> = clock
            .0
            .iter()
            .map(|t| t.duration_since(started).as_secs_f64() * 1e3)
            .collect();
        let (p, tail_ms) = stats::tail(&latencies_ms);
        tail_p = p;
        p50s.push(median(&latencies_ms));
        tails.push(tail_ms);
        for o in &sweep.outcomes {
            phase.count(o.record.status.is_ok());
        }
        digests.push(digest(sweep.canonical_jsonl().as_bytes()));
    }
    phase.print();

    let (expected, source) = expected_digest(args.seed);
    let correct = digests.iter().all(|d| *d == expected);
    eprintln!(
        "study: canonical digest {} vs {source} {expected}: {}",
        digests[0],
        if correct { "ok" } else { "MISMATCH" }
    );

    eprintln!(
        "study: {} reps, wall {:?} s; record latency tail = p{tail_p} of {} records per rep",
        walls.len(),
        walls
            .iter()
            .map(|w| (w * 1e3).round() / 1e3)
            .collect::<Vec<_>>(),
        jobs().len()
    );
    let wall = median(&walls);
    let mut m = Metrics::new();
    m.put("wall_s", wall);
    m.put("setup_s", median(&setup));
    m.put("peak_rss_mb", peak_rss_mb());
    m.put("success_ratio", phase.success_ratio());
    m.put("p50_ms", median(&p50s));
    m.put("tail_ms", median(&tails));
    m.put(
        "goodput_rps",
        phase.succeeded as f64 / walls.len() as f64 / wall,
    );
    Ok(Outcome {
        correct,
        phases: vec![phase],
        metrics: m,
    })
}

/// The traced run: [`TRACE_REPS`] times, one untraced single-worker sweep
/// for the reference records and wall time, then the layer-by-layer
/// replay of the same jobs and the tournaments.
pub fn traced(args: &Args, tracer: &Tracer) -> Result<Outcome, String> {
    let grid = jobs();
    let mut phase = Phase::new("replay");
    let (mut untraced_ms, mut jobs_ms) = (0.0, 0.0);
    for rep in 0..TRACE_REPS {
        let req = rep as u64;
        let untraced = tracer.open("engine.run", None, req);
        let started = Instant::now();
        let sweep = engine(1, args.seed).run(&grid);
        let entries: Vec<(usize, String, PropertyVector)> = sweep
            .outcomes
            .iter()
            .filter(|o| o.record.status.is_ok())
            .map(|o| (o.job.k, o.record.algorithm.clone(), o.vectors[0].clone()))
            .collect();
        std::hint::black_box(tournaments(&entries));
        untraced_ms += started.elapsed().as_secs_f64() * 1e3;
        tracer.close(untraced);
        jobs_ms += crate::jobs_ms(&sweep.outcomes);

        let jobs: Vec<ReplayJob> = sweep
            .outcomes
            .iter()
            .map(|o| ReplayJob::from_record(&o.job, &o.record))
            .collect();
        if rep == 0 {
            for o in &sweep.outcomes {
                phase.count(o.record.status.is_ok());
            }
        }
        let root = tracer.open("replay", None, req);
        let rid = root.id();
        let report = replay(tracer, rid, &jobs, None)?;
        let rendered = tracer.time("core.matrix_ms", rid, req, || tournaments(&report.vectors));
        tracer.close(root);
        std::hint::black_box(rendered);
    }
    phase.print();

    Ok(Outcome {
        correct: true,
        phases: vec![phase],
        metrics: crate::layer_metrics(
            tracer,
            untraced_ms / TRACE_REPS as f64,
            jobs_ms / TRACE_REPS as f64,
        ),
    })
}

/// Digests of the study's canonical records for seeds `from..=to`, as the
/// JSON object `pinned.json` keeps under `study_digests`.
pub fn pin(from: u64, to: u64) -> String {
    let entries: Vec<String> = (from..=to)
        .map(|seed| {
            let sweep = engine(CORES, seed).run(&jobs());
            let d = digest(sweep.canonical_jsonl().as_bytes());
            eprintln!("seed {seed}: {d}");
            format!("\"{seed}\": \"{d}\"")
        })
        .collect();
    format!("{{{}}}", entries.join(", "))
}
