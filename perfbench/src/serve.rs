//! `serve-mixed` and `serve-durable`: a `cobra-serve` server over
//! loopback, driven by this process through at most two connections.
//!
//! * Connection A runs a closed ingest loop: one pipelined `update_all`
//!   batch of uniform keys, then `SEAL`, then `WAIT_EPOCH` for the sealed
//!   epoch, repeated. The time from sending `SEAL` until `WAIT_EPOCH`
//!   returns is the epoch's visibility latency: published (in memory) or
//!   durably committed (with a data dir).
//! * Connection B (`serve-mixed` only) sends `QUERY`s open-loop at a fixed
//!   rate, 90% of them on the hottest 10% of keys, each timed from when it
//!   was due.
//!
//! `serve-durable` is the same ingest loop without queries against a
//! server with a data dir and `SyncPolicy::OnSeal` (the `cobra-served`
//! default), so the WAL's group commit and fsync sit on every epoch.
//!
//! Gate: after the graceful `shutdown`, the server's sum over its final
//! snapshot equals the sum of every value sent (zero loss), and the
//! server accepted exactly the tuples sent.

use crate::stats::{block_median, median, over_limit, percentile, us, OpenLoopLog, Schedule};
use crate::trace::{overhead_pct, traced_unit, Tracer};
use crate::{metric, Args, Metric, Outcome};
use cobra_graph::SplitMix64;
use cobra_serve::{ServeClient, ServeConfig, Server, WireStats};
use cobra_stream::{DurableConfig, StreamConfig, SyncPolicy};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Keys served: 512 KiB of `u64` state, within one core's L2. Durable
/// mode checkpoints the whole state every 8 epochs (the `DurableConfig`
/// default), so the state size also sets the checkpoint write volume.
const NUM_KEYS: u32 = 1 << 16;
/// Ingest shards. One: on the 2-core reference machine the reactor, the
/// shard worker and both load threads already share two cores, and a
/// second shard worker made query tails swing with the host's CPU steal.
const SHARDS: usize = 1;
/// Tuples per epoch: one `update_all` batch.
const BATCH: usize = 4096;
/// Distinct pre-generated batches, cycled.
const POOL: usize = 256;
/// Epochs per block: each block's p99 has 10 samples beyond it. Epoch
/// metrics are medians over the run's blocks.
const EPOCH_BLOCK: usize = 1_000;
/// Epochs per run at the least: three blocks.
const MIN_EPOCHS: u64 = 3 * EPOCH_BLOCK as u64;
/// Offered query rate on connection B.
const QUERY_RATE: u32 = 2_000;
/// Queries per block (one second of offered load). Query metrics are
/// medians over the run's blocks.
const QUERY_BLOCK: usize = QUERY_RATE as usize;
/// The query latency limit the p99 is held to.
const QUERY_P99_LIMIT_US: f64 = 2_000.0;
/// Timed server start-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 25;
/// A traced run takes a `STATS` reading every this many epochs.
const STATS_EVERY: u64 = 100;

/// One epoch of the ingest loop, timed from the loop's start.
struct EpochSample {
    start: Duration,
    end: Duration,
    /// From sending `SEAL` until `WAIT_EPOCH` returned.
    visible_us: f64,
}

struct Running {
    server: Server,
    ingest: ServeClient,
    query: ServeClient,
}

fn start(dir: Option<&Path>, tr: &mut Tracer, id: u64) -> std::io::Result<Running> {
    let mut cfg = ServeConfig::new();
    if let Some(dir) = dir {
        cfg = cfg.durable(DurableConfig::new(dir).sync(SyncPolicy::OnSeal));
    }
    let s = tr.begin("Server::start", id);
    let server = Server::start(NUM_KEYS, StreamConfig::new().shards(SHARDS), cfg);
    tr.end(s);
    let server = server?;
    let ingest = ServeClient::connect(server.local_addr())?;
    let query = ServeClient::connect(server.local_addr())?;
    Ok(Running {
        server,
        ingest,
        query,
    })
}

/// The open-loop query generator on connection B; runs until `stop`.
fn query_loop(
    mut client: ServeClient,
    seed: u64,
    origin: Instant,
    stop: &AtomicBool,
    trace: bool,
) -> (OpenLoopLog, Tracer) {
    let mut tr = Tracer::new("query", origin, trace);
    let mut rng = SplitMix64::seed_from_u64(seed ^ 0x0E11);
    let hot = NUM_KEYS / 10;
    let schedule = Schedule::new(QUERY_RATE);
    let mut log = OpenLoopLog::default();
    let start = Instant::now();
    for i in 0.. {
        let due = schedule.due(i);
        let now = start.elapsed();
        if due > now {
            std::thread::sleep(due - now);
        }
        // ordering: Relaxed — a pure stop signal; nothing is published
        // through it.
        if stop.load(Ordering::Relaxed) {
            break;
        }
        let key = if rng.u32_below(10) < 9 {
            rng.u32_below(hot)
        } else {
            rng.u32_below(NUM_KEYS)
        };
        let sent = start.elapsed();
        let s = tr.begin("query", i);
        let res = client.query(key);
        tr.end(s);
        match res {
            Ok(_) => log.record(due, sent, Some(start.elapsed())),
            Err(e) => {
                eprintln!("query {i} failed: {e}");
                log.record(due, sent, None);
                break;
            }
        }
    }
    (log, tr)
}

fn stats_counts(tr: &mut Tracer, s: crate::trace::SpanId, st: &WireStats) {
    tr.count(s, "tuples_ingested", st.tuples_ingested as f64);
    tr.count(s, "busy_tuples", st.busy_tuples as f64);
    tr.count(s, "cache_hits", st.cache_hits as f64);
    tr.count(s, "cache_misses", st.cache_misses as f64);
    tr.count(s, "bins_bytes", st.bins_bytes as f64);
    tr.count(s, "retained_bytes", st.retained_bytes as f64);
    tr.count(s, "wal_bytes_appended", st.wal_bytes_appended as f64);
    tr.count(s, "wal_fsyncs", st.wal_fsyncs as f64);
}

pub fn run(args: &Args, durable: bool) -> Outcome {
    let data_root: Option<PathBuf> =
        durable.then(|| crate::out_dir().join(format!("wal-{}", std::process::id())));
    let outcome = run_in(args, data_root.as_deref());
    if let Some(dir) = data_root {
        let _ = std::fs::remove_dir_all(dir);
    }
    outcome
}

fn run_in(args: &Args, data_root: Option<&Path>) -> Outcome {
    let workload = if data_root.is_some() {
        "serve-durable"
    } else {
        "serve-mixed"
    };
    let mut rng = SplitMix64::seed_from_u64(args.seed);
    let pool: Vec<Vec<(u32, u64)>> = (0..POOL)
        .map(|_| {
            (0..BATCH)
                // Small values: sums stay far below u64::MAX.
                .map(|_| (rng.u32_below(NUM_KEYS), rng.next_u64() >> 40))
                .collect()
        })
        .collect();
    let pool_sums: Vec<u64> = pool
        .iter()
        .map(|b| b.iter().map(|&(_, v)| v).sum())
        .collect();

    let origin = Instant::now();
    let mut tr = Tracer::new("ingest", origin, args.trace);
    let fail = |msg: String| {
        eprintln!("{workload}: {msg}");
        Outcome {
            correct: false,
            attempted: 1,
            failed: 1,
            ..Outcome::default()
        }
    };

    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut running = None;
    for r in 0..SETUP_REPEATS {
        if let Some(old) = running.take() {
            let Running { server, .. } = old;
            server.shutdown();
        }
        let dir = data_root.map(|d| d.join(format!("setup-{r}")));
        let t0 = Instant::now();
        match start(dir.as_deref(), &mut tr, r as u64) {
            Ok(run) => running = Some(run),
            Err(e) => return fail(format!("server start failed: {e}")),
        }
        setups.push(t0.elapsed().as_secs_f64());
    }
    let Running {
        server,
        mut ingest,
        query,
    } = running.expect("at least one set-up");

    let stop = AtomicBool::new(false);
    let budget = Duration::from_secs_f64(args.seconds);
    let mut epoch_log: Vec<EpochSample> = Vec::new();
    let (mut traced_units, mut untraced_units) = (Vec::new(), Vec::new());
    let mut sent_sum = 0u64;
    let mut sent_tuples = 0u64;
    let mut failed = 0u64;
    let mut epochs = 0u64;
    let mut last_stats = None;
    let mut loop_s = 0.0;

    let query_result = std::thread::scope(|scope| {
        let queries = (data_root.is_none()).then(|| {
            let stop = &stop;
            let (seed, trace) = (args.seed, args.trace);
            scope.spawn(move || query_loop(query, seed, origin, stop, trace))
        });

        let loop_start = Instant::now();
        while epochs < MIN_EPOCHS || loop_start.elapsed() < budget {
            let e = epochs;
            tr.set_enabled(args.trace && traced_unit(e));
            let batch = e as usize % POOL;
            let root = tr.begin("epoch", e);
            let t0 = Instant::now();
            let s = tr.begin("update_all", e);
            let updated = ingest.update_all(&pool[batch]);
            tr.end(s);
            let t1 = Instant::now();
            let s = tr.begin("seal", e);
            let sealed = updated.and_then(|_| ingest.seal());
            tr.end(s);
            let s = tr.begin("wait_epoch", e);
            let waited = sealed.and_then(|epoch| ingest.wait_epoch(epoch));
            tr.end(s);
            let t3 = Instant::now();
            if tr.enabled() && e.is_multiple_of(STATS_EVERY) {
                let s = tr.begin("stats", e);
                let st = ingest.stats();
                tr.end(s);
                if let Ok(st) = st {
                    stats_counts(&mut tr, s, &st);
                }
            }
            tr.end(root);
            if let Err(err) = waited {
                eprintln!("{workload}: epoch {e}: {err}");
                failed += 1;
                break;
            }
            sent_sum += pool_sums[batch];
            sent_tuples += BATCH as u64;
            epoch_log.push(EpochSample {
                start: t0 - loop_start,
                end: t3 - loop_start,
                visible_us: us(t3 - t1),
            });
            if args.trace {
                let unit = (t3 - t0).as_secs_f64();
                if traced_unit(e) {
                    traced_units.push(unit);
                } else {
                    untraced_units.push(unit);
                }
            }
            epochs += 1;
        }
        loop_s = loop_start.elapsed().as_secs_f64();
        tr.set_enabled(args.trace);
        let s = tr.begin("stats", epochs);
        last_stats = ingest.stats().ok();
        tr.end(s);
        if let Some(st) = &last_stats {
            stats_counts(&mut tr, s, st);
        }
        // ordering: Relaxed — pure stop signal (see query_loop).
        stop.store(true, Ordering::Relaxed);
        queries.map(|h| h.join().expect("query thread panicked"))
    });
    drop(ingest);

    let s = tr.begin("Server::shutdown", 0);
    let (snapshot, final_stats) = server.shutdown();
    tr.end(s);
    let server_sum = snapshot.iter().fold(0u64, |acc, &v| acc.wrapping_add(v));
    let mut correct = failed == 0;
    if server_sum != sent_sum || final_stats.tuples_ingested != sent_tuples {
        eprintln!(
            "{workload}: zero-loss check failed: server sum {server_sum} over {} tuples, \
             sent sum {sent_sum} over {sent_tuples} tuples",
            final_stats.tuples_ingested
        );
        correct = false;
        failed += 1;
    }
    let mut attempted = 3 * epochs + 1;

    let mut tracers = vec![&tr];
    let med = |v: Vec<f64>| median(&v).unwrap_or(f64::NAN);
    let block_pct =
        |v: &[f64], block, p| block_median(v, block, |b| percentile(b, p)).unwrap_or(f64::NAN);
    let epoch_block = |stat: &dyn Fn(&[EpochSample]) -> Option<f64>| {
        block_median(&epoch_log, EPOCH_BLOCK, stat).unwrap_or(f64::NAN)
    };
    let visible_pct = |p| {
        epoch_block(&|b| {
            let visible: Vec<f64> = b.iter().map(|e| e.visible_us).collect();
            percentile(&visible, p)
        })
    };
    let ingest_rate = epoch_block(&|b| {
        let secs = (b[b.len() - 1].end - b[0].start).as_secs_f64();
        Some((b.len() * BATCH) as f64 / secs)
    });
    let visible_p50 = visible_pct(50.0);
    let mut per_layer: Vec<Metric> = vec![
        metric("ingest_tuples_per_s", ingest_rate, "tuples/s"),
        metric("epoch_visible_p50_us", visible_p50, "us"),
        // The p99s are reported by the traced run, without a bound: on the
        // 2-vCPU reference host they track the hypervisor's CPU steal
        // (a query p99 of 0.4 ms at under 1% steal, 5 ms at 11%) more
        // than the server.
        metric("epoch_visible_p99_us", visible_pct(99.0), "us"),
    ];
    // The user-facing latency: a query's, from when it was due, where
    // queries run; otherwise an epoch's, from SEAL until visible. With
    // queries beside the ingest loop the visibility p50 of `serve-mixed`
    // went bimodal across runs with the host's CPU steal (about 340 us or
    // about 590 us), so there it is a per-layer metric only.
    let mut latency_p50 = visible_p50;
    if let Some((log, qtr)) = &query_result {
        attempted += log.attempted();
        failed += log.failed;
        correct &= log.failed == 0;
        latency_p50 = block_pct(&log.latency_us, QUERY_BLOCK, 50.0);
        eprintln!(
            "{workload}: {} queries at {QUERY_RATE}/s, {} over the {QUERY_P99_LIMIT_US} us limit",
            log.attempted(),
            over_limit(&log.latency_us, QUERY_P99_LIMIT_US)
        );
        per_layer.extend([
            metric("query_p50_us", latency_p50, "us"),
            metric(
                "query_p99_us",
                block_pct(&log.latency_us, QUERY_BLOCK, 99.0),
                "us",
            ),
            metric(
                "serve.query_rtt_us_p50",
                med(qtr.self_times("query")) * 1e6,
                "us",
            ),
            metric(
                "loadgen.lateness_p99_us",
                block_pct(&log.lateness_us, QUERY_BLOCK, 99.0),
                "us",
            ),
        ]);
        tracers.push(qtr);
    }
    // On serve-* `updates_per_s` is the ingest rate: tuples accepted per
    // second of the ingest loop, each epoch's wait for visibility included.
    let end_to_end = vec![
        metric("updates_per_s", ingest_rate, "updates/s"),
        metric("latency_p50_us", latency_p50, "us"),
        metric("setup_s", med(setups), "s"),
        metric("peak_rss_mb", crate::peak_rss_mb(), "MB"),
    ];

    let st = last_stats.unwrap_or_default();
    let ratio = |num: u64, den: u64| num as f64 / den.max(1) as f64;
    per_layer.extend([
        metric(
            "serve.update_us_p50",
            med(tr.self_times("update_all")) * 1e6,
            "us",
        ),
        metric(
            "serve.busy_ratio",
            ratio(st.busy_tuples, st.tuples_ingested + st.busy_tuples),
            "ratio",
        ),
        metric("serve.seal_us_p50", med(tr.self_times("seal")) * 1e6, "us"),
        metric(
            "stream.publish_wait_us_p50",
            med(tr.self_times("wait_epoch")) * 1e6,
            "us",
        ),
        metric("bins.bytes", st.bins_bytes as f64, "B"),
        metric("bins.segments", st.bin_segments as f64, "count"),
        metric(
            "bins.cbuf_occupancy",
            st.cbuf_occupancy_bp as f64 / 1e4,
            "ratio",
        ),
        metric("mvcc.retained_bytes", st.retained_bytes as f64, "B"),
        metric(
            "wal.bytes_per_tuple",
            ratio(st.wal_bytes_appended, st.tuples_ingested),
            "B/tuple",
        ),
        metric(
            "wal.fsyncs_per_epoch",
            ratio(st.wal_fsyncs, st.epochs_committed),
            "count",
        ),
        metric("wal.segments", st.wal_segments as f64, "count"),
        metric("cache.hit_ratio", st.cache_hit_rate(), "ratio"),
        metric("cache.evictions", st.cache_evictions as f64, "count"),
        metric(
            "trace.overhead_pct",
            overhead_pct(&traced_units, &untraced_units).unwrap_or(f64::NAN),
            "%",
        ),
    ]);
    eprintln!(
        "{workload}: {epochs} epochs of {BATCH} tuples in {loop_s:.2} s, \
         zero-loss sum {server_sum}"
    );
    if args.trace {
        let path = crate::out_dir().join(format!("trace-{workload}.jsonl"));
        let _ = crate::trace::write_jsonl(&path, &tracers);
    }
    Outcome {
        correct,
        attempted,
        failed,
        end_to_end,
        per_layer,
    }
}
