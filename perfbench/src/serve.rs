//! `serve_zipf`: open-loop, mostly-distinct traffic against an in-process
//! `anoncmp_serve::serve` daemon with its default caches (256 responses,
//! 256 releases, 1024 vectors).
//!
//! The pool holds [`HOT`] + [`COLD`] distinct requests. The [`HOT`] ones
//! (over 4× the response cache) mix census {300, 1000} rows, three
//! dataset seeds, five k, three property lists and twelve subsets of the
//! six lattice/partition algorithms (no `genetic`), about one in ten a
//! `/sweep`. They are sampled Zipf-distributed with a seeded generator, so
//! which of them hit is up to the response cache's capacity and eviction.
//! Entries that differ only in their property list or algorithm subset
//! share releases, so a response-cache miss can still hit the release and
//! vector caches beneath. Cold requests, 20% of the traffic after the
//! warm-up, are each sent once and run one lattice search over 1000 rows,
//! so they miss every cache and set the latency tail.
//!
//! A closed-loop warm-up over the hot requests fills the caches; a
//! closed-loop block of the timed mix then measures its capacity. After
//! that, [`ROUNDS`] rounds of a block at the fixed `steady` rate, a block
//! at the fixed `peak` rate and a pause send requests on schedule, each
//! over its own connection; each request is timed from when it was due.

use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use anoncmp_core::wire::{CompareRequest, SweepRequest};
use anoncmp_engine::fingerprint::derive_seed;
use anoncmp_engine::{Engine, EngineConfig, EvalJob, EvalRecord};
use anoncmp_serve::requests::{plan_compare, plan_sweep, RequestLimits};
use anoncmp_serve::{serve, ServeConfig, ShutdownFlag};
use serde::json::{self, Value};

use crate::replay::{replay, ReplayJob};
use crate::stats::{self, digest, median, peak_rss_mb, SplitMix};
use crate::trace::Tracer;
use crate::{pinned_serve, Args, Metrics, Outcome, Phase, CORES, TRACE_REPS};

const ROWS: [usize; 2] = [300, 1000];
const KS: [usize; 5] = [2, 3, 5, 10, 25];
/// Dataset seeds per hot request shape.
const DATASETS: usize = 3;
/// Property lists of the pool, as request fields: the default
/// (`eq-class-size`), `iyengar-utility`, and both.
const PROPERTY_SETS: [&str; 3] = [
    "",
    "\"properties\":[\"iyengar-utility\"],",
    "\"properties\":[\"eq-class-size\",\"iyengar-utility\"],",
];
/// Algorithm subsets of the pool: each of the six alone, six pairs and
/// triples.
const SUBSETS: [&[&str]; 12] = [
    &["datafly"],
    &["samarati"],
    &["incognito"],
    &["mondrian"],
    &["greedy"],
    &["top-down"],
    &["datafly", "mondrian"],
    &["samarati", "greedy"],
    &["incognito", "top-down"],
    &["samarati", "incognito"],
    &["datafly", "greedy", "top-down"],
    &["samarati", "incognito", "mondrian"],
];
/// Hot requests: every (subset, property list, rows, k, dataset) of
/// [`SUBSETS`] × [`PROPERTY_SETS`] × [`ROWS`] × [`KS`] × [`DATASETS`]:
/// 1080, over 4× the response cache's 256 entries.
const HOT: usize = SUBSETS.len() * PROPERTY_SETS.len() * ROWS.len() * KS.len() * DATASETS;
/// Cold requests: each is sent at most once in a run, so each misses.
const COLD: usize = 600;
/// The share of requests that are cold, after the hot warm-up.
const COLD_SHARE: f64 = 0.2;
/// A cold request is one lattice search over 1000 rows at one k.
const COLD_ALGORITHMS: [&str; 2] = ["samarati", "incognito"];
const COLD_KS: [usize; 3] = [2, 3, 5];
/// The closed-loop warm-up: [`WARMUP_CHUNKS`] chunks of hot requests, so
/// the response-cache hit ratio settles (each chunk's is printed), then
/// one chunk of the timed mix, whose rate is the mix's capacity.
const WARMUP_CHUNK: usize = 200;
const WARMUP_CHUNKS: usize = 5;
/// Daemon starts timed for `setup_s` (the last one serves the run).
const STARTS: usize = 5;
/// Rounds of (steady block, peak block) in the timed part of a run, and
/// the share of a round spent at the steady rate.
const ROUNDS: usize = 6;
const STEADY_SHARE: f64 = 0.7;
/// The share of a round at the peak rate. The rest of the round sends
/// nothing, so the peak block's backlog drains before the next steady
/// block starts.
const PEAK_SHARE: f64 = 0.2;
/// Cold requests the traced run replays.
const REPLAY_MISSES: usize = 48;
/// Hit-path probes of the traced run.
const PROBES: usize = 40;

#[derive(Clone)]
struct PoolEntry {
    path: &'static str,
    body: String,
}

/// The request pool: [`HOT`] entries in Zipf rank order, then [`COLD`]
/// entries in the order they are sent.
///
/// Hot ranks enumerate (subset fastest, then property list, rows, k,
/// dataset), so every band of ranks mixes request costs alike and the
/// popular entries share releases; about one in ten is a `/sweep` over
/// `k` and the next larger k. Cold entries are compare requests of one
/// lattice search over 1000 rows, each on its own (dataset, algorithm,
/// k), so each misses every cache and costs about the same: the tail of
/// the latency distribution is dense rather than a few outliers. The seed
/// picks the dataset seeds.
fn pool(seed: u64) -> Vec<PoolEntry> {
    let dataset = |rows: usize, seed: u64| {
        format!("{{\"kind\":\"census\",\"rows\":{rows},\"seed\":{seed},\"zip_pool\":25}}")
    };
    let base = seed.wrapping_mul(100_000) % 1_000_000_000;
    let hot = (0..HOT).map(|c| {
        let si = c % SUBSETS.len();
        let mut rest = c / SUBSETS.len();
        let pi = rest % PROPERTY_SETS.len();
        rest /= PROPERTY_SETS.len();
        let rows = ROWS[rest % ROWS.len()];
        rest /= ROWS.len();
        let ki = rest % KS.len();
        let di = rest / KS.len();
        let algorithms = SUBSETS[si]
            .iter()
            .map(|a| format!("\"{a}\""))
            .collect::<Vec<_>>()
            .join(",");
        let sweep = (si + pi + ki + di).is_multiple_of(10) && ki + 1 < KS.len();
        let (path, grid) = if sweep {
            ("/sweep", format!("\"ks\":[{},{}]", KS[ki], KS[ki + 1]))
        } else {
            ("/compare", format!("\"k\":{}", KS[ki]))
        };
        let body = format!(
            "{{\"dataset\":{},\"algorithms\":[{algorithms}],{}{grid},\"max_suppression\":{}}}",
            dataset(rows, base + di as u64),
            PROPERTY_SETS[pi],
            rows / 20
        );
        PoolEntry { path, body }
    });
    let cold = (0..COLD).map(|j| {
        let algorithm = COLD_ALGORITHMS[j % COLD_ALGORITHMS.len()];
        let k = COLD_KS[j / COLD_ALGORITHMS.len() % COLD_KS.len()];
        let dataset_seed = base + 1000 + (j / (COLD_ALGORITHMS.len() * COLD_KS.len())) as u64;
        let body = format!(
            "{{\"dataset\":{},\"algorithms\":[\"{algorithm}\"],\"k\":{k},\"max_suppression\":50}}",
            dataset(1000, dataset_seed)
        );
        PoolEntry {
            path: "/compare",
            body,
        }
    });
    hot.chain(cold).collect()
}

/// The request stream: seeded Zipf(`s`) samples of the hot ranks plus the
/// next unsent cold entries.
struct Traffic {
    cdf: Vec<f64>,
    next_cold: usize,
    rng: SplitMix,
}

impl Traffic {
    fn new(s: f64, seed: u64) -> Traffic {
        let mut cdf = Vec::with_capacity(HOT);
        let mut acc = 0.0;
        for i in 0..HOT {
            acc += 1.0 / ((i + 1) as f64).powf(s);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Traffic {
            cdf,
            next_cold: 0,
            rng: SplitMix::new(seed),
        }
    }

    /// `n` pool indices in seeded random order: exactly `cold_share` of
    /// them the next cold entries, the rest hot ranks sampled from the
    /// Zipf distribution.
    fn batch(&mut self, n: usize, cold_share: f64) -> Result<Vec<usize>, String> {
        let cold = (n as f64 * cold_share).round() as usize;
        let hot = n - cold;
        if self.next_cold + cold > COLD {
            return Err(format!("the run needs more than {COLD} cold requests"));
        }
        let mut out: Vec<usize> = (0..hot)
            .map(|_| {
                let u = (self.rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
                self.cdf.partition_point(|&c| c < u).min(HOT - 1)
            })
            .chain((self.next_cold..self.next_cold + cold).map(|j| HOT + j))
            .collect();
        self.next_cold += cold;
        for i in (1..n).rev() {
            let j = (self.rng.next_u64() % (i as u64 + 1)) as usize;
            out.swap(i, j);
        }
        Ok(out)
    }
}

/// One HTTP exchange, timed at each boundary.
struct Exchange {
    sent: Instant,
    connected: Instant,
    first_byte: Instant,
    done: Instant,
    status: u16,
    body: Vec<u8>,
}

/// One request over a fresh connection (`Connection: close`), as an
/// independent user would send it.
fn exchange(addr: SocketAddr, method: &str, path: &str, body: &str) -> io::Result<Exchange> {
    let sent = Instant::now();
    let mut conn = connect(addr)?;
    let connected = Instant::now();
    let x = request_on(&mut conn, method, path, body, false)?;
    Ok(Exchange {
        sent,
        connected,
        ..x
    })
}

fn connect(addr: SocketAddr) -> io::Result<BufReader<TcpStream>> {
    let timeout = Duration::from_secs(30);
    let stream = TcpStream::connect_timeout(&addr, timeout)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    stream.set_nodelay(true)?;
    Ok(BufReader::new(stream))
}

/// One request over an open connection; `sent` and `connected` are both
/// the moment it is written.
fn request_on(
    reader: &mut BufReader<TcpStream>,
    method: &str,
    path: &str,
    body: &str,
    keep_alive: bool,
) -> io::Result<Exchange> {
    let sent = Instant::now();
    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: perfbench\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: {}\r\n\r\n{body}",
        body.len(),
        if keep_alive { "keep-alive" } else { "close" }
    );
    reader.get_mut().write_all(request.as_bytes())?;
    if reader.fill_buf()?.is_empty() {
        return Err(io::ErrorKind::UnexpectedEof.into());
    }
    let first_byte = Instant::now();
    let mut line = String::new();
    reader.read_line(&mut line)?;
    let status: u16 = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| io::Error::other(format!("bad status line {line:?}")))?;
    let (mut length, mut chunked) = (None, false);
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Err(io::ErrorKind::UnexpectedEof.into());
        }
        let header = line.trim_end().to_ascii_lowercase();
        if header.is_empty() {
            break;
        }
        if let Some(v) = header.strip_prefix("content-length:") {
            length = v.trim().parse::<usize>().ok();
        } else if header.starts_with("transfer-encoding:") && header.contains("chunked") {
            chunked = true;
        }
    }
    let mut body = Vec::new();
    if chunked {
        loop {
            line.clear();
            reader.read_line(&mut line)?;
            let size = usize::from_str_radix(line.trim(), 16)
                .map_err(|_| io::Error::other(format!("bad chunk size {line:?}")))?;
            let mut chunk = vec![0u8; size + 2];
            reader.read_exact(&mut chunk)?;
            if size == 0 {
                break;
            }
            body.extend_from_slice(&chunk[..size]);
        }
    } else if let Some(n) = length {
        body.resize(n, 0);
        reader.read_exact(&mut body)?;
    } else {
        reader.read_to_end(&mut body)?;
    }
    Ok(Exchange {
        sent,
        connected: sent,
        first_byte,
        done: Instant::now(),
        status,
        body,
    })
}

/// What the benchmark keeps of one request.
struct Sample {
    phase: usize,
    entry: usize,
    due: Instant,
    pushed: Instant,
    result: Result<Exchange, String>,
}

impl Sample {
    fn latency_ms(&self) -> f64 {
        match &self.result {
            Ok(x) => x.done.duration_since(self.due).as_secs_f64() * 1e3,
            Err(_) => f64::INFINITY,
        }
    }

    fn ok(&self) -> bool {
        matches!(&self.result, Ok(x) if x.status == 200)
    }
}

/// Sends `(entry, due)` work items over at most `CORES` connections at a
/// time until the channel closes; returns every sample per sender.
fn client_pool(
    addr: SocketAddr,
    pool: &Arc<Vec<PoolEntry>>,
    rx: mpsc::Receiver<(usize, usize, Instant, Instant)>,
) -> Vec<std::thread::JoinHandle<Vec<Sample>>> {
    let rx = Arc::new(Mutex::new(rx));
    (0..CORES)
        .map(|_| {
            let rx = Arc::clone(&rx);
            let pool = Arc::clone(pool);
            std::thread::spawn(move || {
                let mut out = Vec::new();
                loop {
                    let next = rx.lock().expect("work queue poisoned").recv();
                    let Ok((phase, entry, due, pushed)) = next else {
                        return out;
                    };
                    let e = &pool[entry];
                    let result =
                        exchange(addr, "POST", e.path, &e.body).map_err(|err| err.to_string());
                    out.push(Sample {
                        phase,
                        entry,
                        due,
                        pushed,
                        result,
                    });
                }
            })
        })
        .collect()
}

/// Sends `entries` closed loop over `CORES` connections.
fn closed_loop(
    addr: SocketAddr,
    pool: &Arc<Vec<PoolEntry>>,
    entries: Vec<usize>,
) -> Result<Vec<Sample>, String> {
    let (tx, rx) = mpsc::channel();
    let handles = client_pool(addr, pool, rx);
    for entry in entries {
        let now = Instant::now();
        tx.send((0, entry, now, now))
            .map_err(|_| "client pool gone")?;
    }
    drop(tx);
    join_all(handles)
}

/// Splits the hit path from the daemon's accept wait. Each probe, paced
/// like the steady traffic, sends a cached request over a new connection
/// and then again over the same, kept-alive connection: the second
/// exchange is the hit path alone, and its time to first byte less the
/// first's is the wait before the daemon accepted the connection.
/// Returns the medians of both and the probe exchanges.
fn probe_hit_path(
    addr: SocketAddr,
    pool: &[PoolEntry],
    rate: f64,
) -> Result<(f64, f64, Vec<Sample>), String> {
    let entries: Vec<usize> = (0..HOT)
        .filter(|&e| pool[e].path == "/compare")
        .take(PROBES)
        .collect();
    let mut out = Vec::with_capacity(3 * PROBES);
    let (mut hit_path, mut accept_wait) = (vec![], vec![]);
    for &entry in &entries {
        let e = &pool[entry];
        let sample = |result: io::Result<Exchange>| {
            let result = result.map_err(|err| err.to_string());
            let at = result.as_ref().map_or_else(|_| Instant::now(), |x| x.sent);
            Sample {
                phase: 0,
                entry,
                due: at,
                pushed: at,
                result,
            }
        };
        // Makes sure the entry is cached.
        out.push(sample(exchange(addr, "POST", e.path, &e.body)));
        std::thread::sleep(Duration::from_secs_f64(1.0 / rate));
        let mut conn = connect(addr).map_err(|err| format!("probe: {err}"))?;
        let connected = Instant::now();
        let new = request_on(&mut conn, "POST", e.path, &e.body, true)
            .map(|x| Exchange { connected, ..x });
        let kept = request_on(&mut conn, "POST", e.path, &e.body, false);
        if let (Ok(new), Ok(kept)) = (&new, &kept) {
            let ttfb = |x: &Exchange| x.first_byte.duration_since(x.connected).as_secs_f64() * 1e3;
            hit_path.push(kept.done.duration_since(kept.sent).as_secs_f64() * 1e3);
            accept_wait.push(ttfb(new) - ttfb(kept));
        }
        out.push(sample(new));
        out.push(sample(kept));
    }
    Ok((median(&hit_path), median(&accept_wait), out))
}

fn join_all(handles: Vec<std::thread::JoinHandle<Vec<Sample>>>) -> Result<Vec<Sample>, String> {
    let mut out = Vec::new();
    for h in handles {
        out.extend(h.join().map_err(|_| "client thread panicked")?);
    }
    Ok(out)
}

fn get_stats(addr: SocketAddr) -> Result<Value, String> {
    let x = exchange(addr, "GET", "/stats", "").map_err(|e| format!("/stats: {e}"))?;
    json::parse(&String::from_utf8_lossy(&x.body)).ok_or_else(|| "/stats: not JSON".into())
}

fn stat_delta(before: &Value, after: &Value, key: &str) -> f64 {
    let get = |v: &Value| v.get(key).and_then(Value::as_f64).unwrap_or(0.0);
    get(after) - get(before)
}

fn ratio(hits: f64, misses: f64) -> f64 {
    if hits + misses > 0.0 {
        hits / (hits + misses)
    } else {
        0.0
    }
}

/// Starts a daemon and waits until `/healthz` answers; returns the
/// handle and the seconds that took.
fn start_daemon() -> Result<(anoncmp_serve::ServerHandle, f64), String> {
    let started = Instant::now();
    let handle = serve(
        ServeConfig {
            threads: CORES,
            engine_jobs: 1,
            chunk_threads: 1,
            ..ServeConfig::default()
        },
        ShutdownFlag::new(),
    )
    .map_err(|e| format!("serve: {e}"))?;
    loop {
        if let Ok(x) = exchange(handle.addr(), "GET", "/healthz", "") {
            if x.status == 200 {
                return Ok((handle, started.elapsed().as_secs_f64()));
            }
        }
        if started.elapsed() > Duration::from_secs(10) {
            return Err("/healthz never answered".into());
        }
        std::thread::sleep(Duration::from_micros(200));
    }
}

/// Checks every response: status 200, byte-identical to the first
/// response to the same request, and every sweep stream ending in its
/// `done` trailer. Returns the number of violations, printing the first.
fn check(pool: &[PoolEntry], samples: &[Sample], first: &mut HashMap<usize, String>) -> usize {
    let mut bad = 0;
    for s in samples {
        let problem = match &s.result {
            Err(e) => Some(format!("transport error {e}")),
            Ok(x) if x.status != 200 => Some(format!("status {}", x.status)),
            Ok(x) => {
                let d = digest(&x.body);
                let done_ok = pool[s.entry].path != "/sweep"
                    || String::from_utf8_lossy(&x.body)
                        .lines()
                        .last()
                        .is_some_and(|l| l.starts_with("{\"done\":true"));
                match first.get(&s.entry) {
                    Some(f) if *f != d => Some("body differs from the first response".into()),
                    _ if !done_ok => Some("sweep stream lacks its done trailer".into()),
                    Some(_) => None,
                    None => {
                        first.insert(s.entry, d);
                        None
                    }
                }
            }
        };
        if let Some(p) = problem {
            if bad == 0 {
                eprintln!(
                    "serve_zipf: request {} {}: {p}",
                    pool[s.entry].path, s.entry
                );
            }
            bad += 1;
        }
    }
    bad
}

pub fn run(args: &Args, tracer: Option<&Tracer>) -> Result<Outcome, String> {
    let pool = Arc::new(pool(args.seed));
    let mut traffic = Traffic::new(pinned_serve("zipf_s"), args.seed);
    let steady_rps = pinned_serve("steady_rps");
    let peak_rps = pinned_serve("peak_rps");
    let limit_ms = pinned_serve("latency_limit_ms");

    let mut starts = Vec::with_capacity(STARTS);
    let mut daemon = None;
    for _ in 0..STARTS {
        let (handle, secs) = start_daemon()?;
        starts.push(secs);
        if let Some(previous) = daemon.replace(handle) {
            previous.shutdown();
        }
    }
    let daemon = daemon.expect("at least one start");
    let addr = daemon.addr();

    // The untimed warm-up, closed loop over CORES connections: hot chunks
    // until the caches have settled, then one chunk of the timed mix.
    let warm_started = Instant::now();
    let mut warm = Vec::new();
    let mut chunk_ratios = Vec::with_capacity(WARMUP_CHUNKS + 1);
    let mut capacity_rps = 0.0;
    for chunk in 0..=WARMUP_CHUNKS {
        let mix = chunk == WARMUP_CHUNKS;
        let entries = traffic.batch(WARMUP_CHUNK, if mix { COLD_SHARE } else { 0.0 })?;
        let before = get_stats(addr)?;
        let started = Instant::now();
        warm.extend(closed_loop(addr, &pool, entries)?);
        if mix {
            capacity_rps = WARMUP_CHUNK as f64 / started.elapsed().as_secs_f64();
        }
        let after = get_stats(addr)?;
        chunk_ratios.push(ratio(
            stat_delta(&before, &after, "response_hits"),
            stat_delta(&before, &after, "response_misses"),
        ));
    }
    let warm_s = warm_started.elapsed().as_secs_f64();
    let mut first: HashMap<usize, String> = HashMap::new();
    let mut warm_phase = Phase::new("warmup");
    for s in &warm {
        warm_phase.count(s.ok());
    }
    let mut bad = check(&pool, &warm, &mut first);

    // The timed phases: open loop at fixed rates, in ROUNDS rounds of a
    // steady block (the latency samples) then a peak block (goodput), so
    // a drift in machine speed falls on both alike.
    let stats_before = get_stats(addr)?;
    let round_s = args.seconds as f64 / ROUNDS as f64;
    let blocks: Vec<(f64, f64, f64)> = (0..ROUNDS)
        .flat_map(|r| {
            let start = r as f64 * round_s;
            [
                (steady_rps, start, round_s * STEADY_SHARE),
                (
                    peak_rps,
                    start + round_s * STEADY_SHARE,
                    round_s * PEAK_SHARE,
                ),
            ]
        })
        .collect();
    let (tx, rx) = mpsc::channel();
    let handles = client_pool(addr, &pool, rx);
    let t0 = Instant::now() + Duration::from_millis(20);
    let mut max_late_ms: f64 = 0.0;
    for (b, &(rate, offset, length)) in blocks.iter().enumerate() {
        let start = t0 + Duration::from_secs_f64(offset);
        let n = (rate * length).round() as usize;
        for (i, entry) in traffic.batch(n, COLD_SHARE)?.into_iter().enumerate() {
            let due = start + Duration::from_secs_f64(i as f64 / rate);
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            let pushed = Instant::now();
            max_late_ms = max_late_ms.max(pushed.duration_since(due).as_secs_f64() * 1e3);
            tx.send((b + 1, entry, due, pushed))
                .map_err(|_| "client pool gone")?;
        }
    }
    drop(tx);
    let samples = join_all(handles)?;
    let stats_after = get_stats(addr)?;
    bad += check(&pool, &samples, &mut first);

    // Block b + 1 is steady when b is even, peak when odd.
    let mut phases = vec![Phase::new("steady"), Phase::new("peak")];
    let mut backlog = 0usize;
    let (mut steady, mut good, mut peak_s) = (vec![], 0usize, 0.0);
    for (b, &(_, offset, length)) in blocks.iter().enumerate() {
        let end = t0 + Duration::from_secs_f64(offset + length);
        let block: Vec<&Sample> = samples.iter().filter(|s| s.phase == b + 1).collect();
        for s in &block {
            phases[b % 2].count(s.ok());
            if s.result.as_ref().map_or(s.pushed, |x| x.sent) > end {
                backlog += 1;
            }
        }
        if b % 2 == 0 {
            steady.extend(block.iter().map(|s| s.latency_ms()));
        } else {
            good += block
                .iter()
                .filter(|s| s.ok() && s.latency_ms() <= limit_ms)
                .count();
            // Block time runs from its first due time to its last response,
            // so a slow daemon stretches it.
            let start = t0 + Duration::from_secs_f64(offset);
            let last = block
                .iter()
                .filter_map(|s| s.result.as_ref().ok().map(|x| x.done))
                .fold(start, Instant::max);
            peak_s += last.duration_since(start).as_secs_f64();
        }
    }
    let p50_ms = median(&steady);
    let (tail_p, tail_ms) = stats::tail(&steady);
    warm_phase.print();
    for p in &phases {
        p.print();
    }
    let last_done = samples
        .iter()
        .filter_map(|s| s.result.as_ref().ok().map(|x| x.done))
        .max()
        .unwrap_or(t0);
    let delta = |key: &str| stat_delta(&stats_before, &stats_after, key);
    let response_hit_ratio = ratio(delta("response_hits"), delta("response_misses"));
    let release_hit_ratio = ratio(delta("cache_hits"), delta("cache_misses"));
    let vector_hit_ratio = ratio(delta("vector_hits"), delta("vector_misses"));
    let round = |v: &[f64]| {
        v.iter()
            .map(|x| format!("{x:.2}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    eprintln!(
        "serve_zipf: warm-up {} requests in {warm_s:.3} s; response-cache hit ratio per chunk [{}] \
         (the last chunk is the timed mix)",
        warm.len(),
        round(&chunk_ratios)
    );
    eprintln!(
        "serve_zipf: closed-loop capacity of the timed mix {capacity_rps:.1} req/s; steady {steady_rps} req/s \
         = {:.2}x, peak {peak_rps} req/s = {:.2}x",
        steady_rps / capacity_rps,
        peak_rps / capacity_rps
    );
    eprintln!(
        "serve_zipf: timed phases: hit ratios response {response_hit_ratio:.3}, release {release_hit_ratio:.3}, \
         vector {vector_hit_ratio:.3}; generator late max {max_late_ms:.3} ms, backlog {backlog}"
    );
    eprintln!(
        "serve_zipf: steady p50 {p50_ms:.3} ms; steady tail = p{tail_p} of {} samples; \
         goodput within {limit_ms} ms at peak",
        steady.len()
    );
    let success = {
        let a: u64 = phases.iter().map(|p| p.attempted).sum();
        let s: u64 = phases.iter().map(|p| p.succeeded).sum();
        if a > 0 {
            s as f64 / a as f64
        } else {
            0.0
        }
    };
    let mut m = Metrics::new();
    m.put("wall_s", last_done.duration_since(t0).as_secs_f64());
    m.put("setup_s", median(&starts) + warm_s);
    m.put("peak_rss_mb", peak_rss_mb());
    m.put("success_ratio", success);
    m.put("p50_ms", p50_ms);
    m.put("tail_ms", tail_ms);
    m.put("goodput_rps", good as f64 / peak_s);

    if let Some(tracer) = tracer {
        m = traced_metrics(tracer, &pool, &samples)?;
        let (hit_path, accept_wait, probed) = probe_hit_path(addr, &pool, steady_rps)?;
        bad += check(&pool, &probed, &mut first);
        m.put("serve.hit_path_ms.p50", hit_path);
        m.put("serve.accept_wait_ms.p50", accept_wait);
        m.put("loadgen.capacity_rps", capacity_rps);
        m.put("serve.response_hit_ratio", response_hit_ratio);
        m.put("serve.shed", delta("shed_total"));
        m.put("serve.rejected", delta("rejected_total"));
        m.put("engine.release_hit_ratio", release_hit_ratio);
        m.put("engine.vector_hit_ratio", vector_hit_ratio);
        m.put("loadgen.late_ms", max_late_ms);
        m.put("loadgen.backlog", backlog as f64);
        eprintln!(
            "serve_zipf: hit path over a kept-alive connection {hit_path:.3} ms, {:.1}% of the steady p50 \
             {:.3} ms; a new connection's extra time to first byte {accept_wait:.3} ms",
            100.0 * hit_path / p50_ms,
            p50_ms
        );
    }
    daemon.shutdown();
    eprintln!("serve_zipf: {bad} checks failed");
    Ok(Outcome {
        correct: bad == 0,
        phases,
        metrics: m,
    })
}

/// The engine jobs a pool entry plans to, in response-record order.
fn plan(entry: &PoolEntry) -> Result<Vec<EvalJob>, String> {
    let value = json::parse(&entry.body).ok_or("pool body is not JSON")?;
    let limits = RequestLimits::default();
    if entry.path == "/sweep" {
        let req = SweepRequest::from_value(&value)?;
        let plan = plan_sweep(&req, &limits).map_err(|e| e.message().to_owned())?;
        Ok(plan
            .batches
            .into_iter()
            .flat_map(|(_, jobs)| jobs)
            .collect())
    } else {
        let req = CompareRequest::from_value(&value)?;
        Ok(plan_compare(&req, &limits)
            .map_err(|e| e.message().to_owned())?
            .jobs)
    }
}

/// The release digests of a response body's records, in order.
fn response_digests(body: &[u8]) -> Vec<Option<String>> {
    let text = String::from_utf8_lossy(body);
    let records: Vec<Value> = match json::parse(&text) {
        Some(v) if v.get("results").is_some() => v
            .get("results")
            .and_then(Value::as_array)
            .map(<[Value]>::to_vec)
            .unwrap_or_default(),
        _ => text
            .lines()
            .filter_map(json::parse)
            .filter(|v| v.get("job_id").is_some())
            .collect(),
    };
    records
        .iter()
        .map(|r| EvalRecord::from_json_value(r).and_then(|r| r.release_digest))
        .collect()
}

/// Client-side request spans, then, [`TRACE_REPS`] times, the replay of
/// the run's first cold requests: each through `plan_*` + `Engine::run`
/// (to split time to first byte into engine work and the daemon's
/// parse/render/write), and layer by layer.
fn traced_metrics(
    tracer: &Tracer,
    pool: &[PoolEntry],
    samples: &[Sample],
) -> Result<Metrics, String> {
    let (mut connect, mut ttfb, mut body, mut kb) = (vec![], vec![], vec![], vec![]);
    for (i, s) in samples.iter().enumerate() {
        let Ok(x) = &s.result else { continue };
        let req = i as u64;
        let root = tracer.record(
            "serve.request".into(),
            None,
            req,
            tracer.ns_at(s.due),
            tracer.ns_at(x.done),
            None,
        );
        for (name, a, b, into) in [
            ("loadgen.queue", s.due, x.sent, None),
            ("serve.connect", x.sent, x.connected, Some(&mut connect)),
            ("serve.ttfb", x.connected, x.first_byte, Some(&mut ttfb)),
            ("serve.body", x.first_byte, x.done, Some(&mut body)),
        ] {
            tracer.record(
                name.into(),
                Some(root),
                req,
                tracer.ns_at(a),
                tracer.ns_at(b),
                None,
            );
            if let Some(v) = into {
                v.push(b.duration_since(a).as_secs_f64() * 1e3);
            }
        }
        kb.push(x.body.len() as f64 / 1024.0);
    }

    // Cold requests are sent once each and miss every cache.
    let misses: Vec<&Sample> = samples
        .iter()
        .filter(|s| s.ok() && s.entry >= HOT)
        .take(REPLAY_MISSES)
        .collect();
    let root_seed = EngineConfig::default().root_seed;
    let mut replay_jobs = vec![];
    for s in &misses {
        let jobs = plan(&pool[s.entry])?;
        let x = s.result.as_ref().expect("ok sample");
        let digests = response_digests(&x.body);
        if digests.len() != jobs.len() {
            return Err(format!(
                "response of request {} carries {} records for {} jobs",
                s.entry,
                digests.len(),
                jobs.len()
            ));
        }
        for (job, d) in jobs.into_iter().zip(digests) {
            replay_jobs.push(ReplayJob {
                seed: derive_seed(root_seed, job.release_fingerprint()),
                job,
                digest: d,
                record: None,
            });
        }
    }
    let mut engine_ms = vec![0.0; misses.len()];
    let mut jobs_ms = 0.0;
    for rep in 0..TRACE_REPS {
        let engine = Engine::new(EngineConfig {
            jobs: 1,
            chunk_threads: 1,
            release_capacity: 256,
            vector_capacity: 1024,
            ..EngineConfig::default()
        });
        for (i, s) in misses.iter().enumerate() {
            let jobs = plan(&pool[s.entry])?;
            let open = tracer.open("engine.run", None, (rep * misses.len() + i) as u64);
            let started = Instant::now();
            let sweep = engine.run(&jobs);
            engine_ms[i] += started.elapsed().as_secs_f64() * 1e3 / TRACE_REPS as f64;
            tracer.close(open);
            jobs_ms += crate::jobs_ms(&sweep.outcomes) / TRACE_REPS as f64;
        }
        let root = tracer.open("replay", None, rep as u64);
        replay(tracer, root.id(), &replay_jobs, None)?;
        tracer.close(root);
    }
    let untraced_ms: f64 = engine_ms.iter().sum();
    let serve_ms: Vec<f64> = misses
        .iter()
        .zip(&engine_ms)
        .map(|(s, ms)| {
            let x = s.result.as_ref().expect("ok sample");
            x.first_byte.duration_since(x.connected).as_secs_f64() * 1e3 - ms
        })
        .collect();
    eprintln!(
        "serve_zipf: replayed {} cold requests ({} jobs)",
        misses.len(),
        replay_jobs.len()
    );

    let mut m = crate::layer_metrics(tracer, untraced_ms, jobs_ms);
    for (name, values) in [
        ("serve.connect_ms", &connect),
        ("serve.ttfb_ms", &ttfb),
        ("serve.body_ms", &body),
    ] {
        m.put(&format!("{name}.p50"), median(values));
        m.put(&format!("{name}.tail"), stats::tail(values).1);
    }
    m.put("serve.response_kb", median(&kb));
    m.put("serve.miss_engine_ms.p50", median(&engine_ms));
    m.put("serve.miss_serve_ms.p50", median(&serve_ms));
    Ok(m)
}
