//! `spgemm-zipf`: `C = A · B` through `cobra_spgemm::spgemm` with the
//! default configuration (frame fusion on), where B's columns are
//! Zipf-skewed so hot columns recur inside a C-Buffer frame and fusion
//! has something to merge.
//!
//! Values are dyadic rationals, so every partial sum is exact and the
//! fused product must be bit-identical to the unfused one, which is
//! computed once before timing starts.

use crate::stats::median;
use crate::trace::{overhead_pct, traced_unit, Tracer};
use crate::{metric, Args, Outcome};
use cobra_bench::inputs::zipf_keys;
use cobra_graph::{SparseMatrix, SplitMix64};
use cobra_spgemm::{expand, spgemm, SpGemmConfig, SpGemmReport};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Rows and columns of A and B: 32× the largest `spgemm_bench` case. At
/// 2^16 the multiply's working set fitted in the reference machine's
/// 300 MiB LLC and ten runs spread up to 0.24 with the load of other
/// tenants on that cache; at 2^18 it is about 1.4× the LLC and five
/// interleaved runs spread 0.04 where 2^16 spread 0.11.
const N: u32 = 1 << 18;
/// Nonzeros per row of A and of B.
const NNZ_PER_ROW: u32 = 8;
/// Zipf exponent of B's column draws, as in `spgemm_bench`.
const ALPHA: f64 = 1.2;
/// Timed operand builds per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 9;
/// Multiplies per run at the least.
const MIN_ROUNDS: usize = 5;

/// A dyadic value in `[0.25, 4.0]`.
fn dyadic(rng: &mut SplitMix64) -> f64 {
    (rng.u32_below(16) + 1) as f64 * 0.25
}

fn same_bits(x: &SparseMatrix, y: &SparseMatrix) -> bool {
    x.rows() == y.rows()
        && x.cols() == y.cols()
        && x.row_offsets() == y.row_offsets()
        && x.col_indices() == y.col_indices()
        && x.values()
            .iter()
            .zip(y.values())
            .all(|(a, b)| a.to_bits() == b.to_bits())
}

pub fn run(args: &Args) -> Outcome {
    let mut rng = SplitMix64::seed_from_u64(args.seed);
    let a_trip: Vec<(u32, u32, f64)> = (0..N * NNZ_PER_ROW)
        .map(|i| (i / NNZ_PER_ROW, rng.u32_below(N), dyadic(&mut rng)))
        .collect();
    let b_cols = zipf_keys((N * NNZ_PER_ROW) as usize, N, ALPHA, args.seed ^ 0x5EED);
    let b_trip: Vec<(u32, u32, f64)> = b_cols
        .iter()
        .enumerate()
        .map(|(i, &c)| (i as u32 / NNZ_PER_ROW, c, dyadic(&mut rng)))
        .collect();

    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut operands = None;
    for _ in 0..SETUP_REPEATS {
        drop(operands.take());
        let t0 = Instant::now();
        let a = SparseMatrix::from_coo(N, N, &a_trip);
        let b = SparseMatrix::from_coo(N, N, &b_trip);
        setups.push(t0.elapsed().as_secs_f64());
        operands = Some((a, b));
    }
    let (a, b) = operands.expect("at least one set-up");
    drop((a_trip, b_trip, b_cols));

    let unfused = SpGemmConfig {
        fusion: false,
        ..SpGemmConfig::default()
    };
    let (reference, ref_report) = spgemm(&a, &b, &unfused);

    let cfg = SpGemmConfig::default();
    let origin = Instant::now();
    let mut tr = Tracer::new("main", origin, false);
    let budget = Duration::from_secs_f64(args.seconds);
    let mut rates = Vec::new();
    let mut multiply_us = Vec::new();
    let (mut traced_units, mut untraced_units) = (Vec::new(), Vec::new());
    let mut report = SpGemmReport::default();
    let mut failed = 0u64;
    let mut round = 0u64;
    while (round as usize) < MIN_ROUNDS || origin.elapsed() < budget {
        tr.set_enabled(args.trace && traced_unit(round));
        let root = tr.begin("multiply", round);

        let t0 = Instant::now();
        let s = tr.begin("spgemm", round);
        let (c, rep) = spgemm(&a, &b, &cfg);
        tr.end(s);
        let multiply_s = t0.elapsed().as_secs_f64();
        tr.count(s, "expand_tuples", rep.expand_tuples as f64);
        tr.count(s, "binned_tuples", rep.binned_tuples as f64);
        tr.count(s, "fusion_hits", rep.fuse.hits as f64);

        let s = tr.begin("expand", round);
        let mut products = 0u64;
        expand(&a, &b, |i, p| {
            black_box((i, p));
            products += 1;
        });
        tr.end(s);

        let s = tr.begin("verify", round);
        let ok = same_bits(&c, &reference)
            && products == rep.expand_tuples
            && rep.expand_tuples == ref_report.expand_tuples;
        tr.end(s);
        tr.end(root);
        drop(c);

        if !ok {
            failed += 1;
            eprintln!("spgemm-zipf: multiply {round}: fused product differs from unfused");
        }
        rates.push(rep.expand_tuples as f64 / multiply_s);
        multiply_us.push(multiply_s * 1e6);
        if args.trace {
            if traced_unit(round) {
                traced_units.push(multiply_s);
            } else {
                untraced_units.push(multiply_s);
            }
        }
        report = rep;
        round += 1;
    }
    eprintln!(
        "spgemm-zipf: {round} multiplies, {} products each, nnz_out {}, median {:.2} M products/s",
        report.expand_tuples,
        report.nnz_out,
        median(&rates).unwrap_or(0.0) / 1e6
    );
    if args.trace {
        let _ =
            crate::trace::write_jsonl(&crate::out_dir().join("trace-spgemm-zipf.jsonl"), &[&tr]);
    }

    let med = |v: Vec<f64>| median(&v).unwrap_or(f64::NAN);
    Outcome {
        correct: failed == 0,
        attempted: round,
        failed,
        end_to_end: vec![
            metric("updates_per_s", med(rates), "updates/s"),
            metric("latency_p50_us", med(multiply_us), "us"),
            metric("setup_s", med(setups), "s"),
            metric("peak_rss_mb", crate::peak_rss_mb(), "MB"),
        ],
        per_layer: vec![
            metric("spgemm.multiply_s", med(tr.self_times("spgemm")), "s"),
            metric("spgemm.expand_s", med(tr.self_times("expand")), "s"),
            metric("spgemm.expand_tuples", report.expand_tuples as f64, "count"),
            metric("spgemm.binned_tuples", report.binned_tuples as f64, "count"),
            metric(
                "spgemm.bin_traffic_bytes",
                report.bin_traffic_bytes as f64,
                "B",
            ),
            metric("fusion.hits", report.fuse.hits as f64, "count"),
            metric(
                "fusion.fused_ratio",
                report.fuse.hits as f64 / report.expand_tuples.max(1) as f64,
                "ratio",
            ),
            metric("spgemm.dense_bins", report.dense_bins as f64, "count"),
            metric("spgemm.hash_bins", report.hash_bins as f64, "count"),
            metric("spgemm.nnz_out", report.nnz_out as f64, "count"),
            metric(
                "trace.overhead_pct",
                overhead_pct(&traced_units, &untraced_units).unwrap_or(f64::NAN),
                "%",
            ),
        ],
    }
}
