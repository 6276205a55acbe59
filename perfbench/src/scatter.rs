//! `scatter-uniform`: a batch Degree-Count-style scatter,
//! `counter[key] += value`, of uniform keys into a counter array far
//! larger than the last-level cache, through parallel Propagation
//! Blocking (`cobra_pb::bin_parallel`, then `ThreadBins::accumulate_into`).
//!
//! Every round is checked against a direct scatter of the same updates.
//! The reference runs as a subtraction (`counter[key] -= value`), so after
//! it every counter must be back to zero: that holds exactly when PB's
//! counters equal the direct scatter's, it needs no second counter array,
//! and it leaves the array zeroed for the next round. Its time is the
//! single-threaded direct-scatter baseline.

use crate::stats::median;
use crate::trace::{overhead_pct, traced_unit, Tracer};
use crate::{metric, Args, Outcome};
use cobra_graph::SplitMix64;
use cobra_pb::bin_parallel;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Counters: 5 × 2^26 `u32` = 1280 MiB, over 4× the 300 MiB LLC `lscpu`
/// reports on the reference machine.
pub const NUM_KEYS: u32 = 5 << 26;
/// Updates per round (Degree-Count-style: one per input tuple).
pub const UPDATES: usize = 1 << 25;
/// Binning and accumulate threads (the reference machine has 2 cores).
const THREADS: usize = 2;
/// 1280 bins of 2^18 counters (1 MiB): a bin's range fits in half of one
/// core's 2 MiB L2 during Accumulate.
const MIN_BINS: usize = (NUM_KEYS >> 18) as usize;
/// Timed set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;
/// Timed rounds per run at the least, so a median exists even on a slow
/// host.
const MIN_ROUNDS: usize = 3;
/// Untimed rounds first: the first round's bin memory is fresh from the
/// OS and ran up to twice as slow as the rest.
const WARM_UP_ROUNDS: u64 = 1;

fn value(i: usize) -> u32 {
    (i & 15) as u32 + 1
}

/// Allocates and pre-faults the counter array.
fn alloc_counters() -> Vec<u32> {
    let mut c = vec![0u32; NUM_KEYS as usize];
    // Hide the calloc'd zeroes so the fill really touches every page.
    black_box(&mut c);
    c.fill(0);
    c
}

pub fn run(args: &Args) -> Outcome {
    let mut rng = SplitMix64::seed_from_u64(args.seed);
    let keys: Vec<u32> = (0..UPDATES).map(|_| rng.u32_below(NUM_KEYS)).collect();

    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut counters = Vec::new();
    for _ in 0..SETUP_REPEATS {
        drop(std::mem::take(&mut counters));
        let t0 = Instant::now();
        counters = alloc_counters();
        setups.push(t0.elapsed().as_secs_f64());
    }

    let origin = Instant::now();
    let mut tr = Tracer::new("main", origin, false);
    let budget = Duration::from_secs_f64(args.seconds);
    let mut rates = Vec::new();
    let mut round_us = Vec::new();
    let (mut traced_units, mut untraced_units) = (Vec::new(), Vec::new());
    let mut bins_bytes = 0u64;
    let mut num_bins = 0usize;
    let mut binned = 0usize;
    let mut failed = 0u64;
    let mut round = 0u64;
    while round < WARM_UP_ROUNDS + MIN_ROUNDS as u64 || origin.elapsed() < budget {
        let timed = round >= WARM_UP_ROUNDS;
        tr.set_enabled(args.trace && timed && traced_unit(round));
        let root = tr.begin("round", round);

        let rss0 = crate::rss_bytes();
        let t0 = Instant::now();
        let s = tr.begin("bin_parallel", round);
        let tb = bin_parallel(UPDATES, NUM_KEYS, MIN_BINS, THREADS, |i| {
            (keys[i], value(i))
        });
        tr.end(s);
        let t1 = Instant::now();
        if tr.enabled() {
            bins_bytes = bins_bytes.max(crate::rss_bytes().saturating_sub(rss0));
        }
        num_bins = tb.num_bins();
        binned = tb.len();
        tr.count(s, "tuples", binned as f64);
        tr.count(s, "bins", num_bins as f64);

        let s = tr.begin("accumulate_into", round);
        tb.accumulate_into(&mut counters, THREADS, |chunk, base, k, &v| {
            let c = &mut chunk[(k - base) as usize];
            *c = c.wrapping_add(v);
        });
        tr.end(s);
        let t2 = Instant::now();
        drop(tb);

        let s = tr.begin("direct_scatter", round);
        let t3 = Instant::now();
        for (i, &k) in keys.iter().enumerate() {
            let c = &mut counters[k as usize];
            *c = c.wrapping_sub(value(i));
        }
        tr.end(s);
        let direct_s = t3.elapsed().as_secs_f64();
        let s = tr.begin("verify", round);
        let ok = binned == UPDATES && counters.iter().all(|&c| c == 0);
        tr.end(s);
        tr.end(root);

        if !ok {
            failed += 1;
            eprintln!("scatter-uniform: round {round}: PB counters differ from direct scatter");
            // Start the next round from a clean array.
            counters.fill(0);
        }
        let pb_s = (t2 - t0).as_secs_f64();
        if timed {
            rates.push(UPDATES as f64 / pb_s);
            round_us.push(pb_s * 1e6);
        }
        if args.trace && timed {
            if traced_unit(round) {
                traced_units.push(pb_s);
            } else {
                untraced_units.push(pb_s);
            }
        }
        eprintln!(
            "round {round}: bin {:.3} s, accumulate {:.3} s, direct {direct_s:.3} s, {:.1} M updates/s",
            (t1 - t0).as_secs_f64(),
            (t2 - t1).as_secs_f64(),
            UPDATES as f64 / pb_s / 1e6
        );
        round += 1;
    }
    if args.trace {
        let _ = crate::trace::write_jsonl(
            &crate::out_dir().join("trace-scatter-uniform.jsonl"),
            &[&tr],
        );
    }

    let med = |v: Vec<f64>| median(&v).unwrap_or(f64::NAN);
    // Computed, not measured: the input key read (4 B), one tuple written
    // to and read back from bin memory, and the counter array streamed in
    // and out once by Accumulate, spread over the round's updates.
    let tuple_bytes = (4 + std::mem::size_of::<u32>()) as f64;
    let computed_bytes_per_update = 4.0
        + 2.0 * tuple_bytes * binned as f64 / UPDATES as f64
        + 2.0 * 4.0 * f64::from(NUM_KEYS) / UPDATES as f64;
    Outcome {
        correct: failed == 0,
        attempted: round,
        failed,
        end_to_end: vec![
            metric("updates_per_s", med(rates), "updates/s"),
            metric("latency_p50_us", med(round_us), "us"),
            metric("setup_s", med(setups), "s"),
            metric("peak_rss_mb", crate::peak_rss_mb(), "MB"),
        ],
        per_layer: vec![
            metric("pb.bin_s", med(tr.self_times("bin_parallel")), "s"),
            metric(
                "pb.accumulate_s",
                med(tr.self_times("accumulate_into")),
                "s",
            ),
            metric("bins.bytes", bins_bytes as f64, "B"),
            metric(
                "bins.computed_bytes_per_update",
                computed_bytes_per_update,
                "B/update",
            ),
            metric("pb.bins", num_bins as f64, "count"),
            metric(
                "baseline.direct_scatter_s",
                med(tr.self_times("direct_scatter")),
                "s",
            ),
            metric(
                "trace.overhead_pct",
                overhead_pct(&traced_units, &untraced_units).unwrap_or(f64::NAN),
                "%",
            ),
        ],
    }
}
