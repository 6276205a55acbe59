//! The repository benchmark. One command per workload:
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <scatter-uniform|spgemm-zipf|serve-mixed|serve-durable> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Inputs come from `--seed`; the workload measures for `--seconds`,
//! checks its outputs, and prints one JSON line last on stdout:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are every one of [`END_TO_END`] (tracing off); with `--trace 1`
//! they are every one of [`PER_LAYER`], taken from spans around each call
//! into a layer, plus the tracing overhead. Every workload prints the same
//! names, so a per-layer metric of a layer the workload never calls reads
//! 0. A failed correctness gate prints the line with `"correct": false`
//! and exits 1. See `README.md` for what each metric means and which layer
//! should move it.

mod scatter;
mod serve;
mod spgemm;
mod stats;
mod trace;

use std::process::ExitCode;
use std::time::Duration;

/// Seconds a run may take beyond `--seconds` (set-up, minimum rounds,
/// teardown) before the watchdog ends it.
const WATCHDOG_GRACE_S: f64 = 100.0;

/// The end-to-end metrics, by name and unit, in the order printed. Every
/// workload measures every one; `BENCHMARK.json` lists the same.
pub const END_TO_END: &[(&str, &str)] = &[
    ("updates_per_s", "updates/s"),
    ("latency_p50_us", "us"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics, by name and unit, in the order printed. A
/// workload that makes no call into a metric's layer reports it as 0;
/// `BENCHMARK.json` lists the same.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("pb.bin_s", "s"),
    ("pb.accumulate_s", "s"),
    ("bins.bytes", "B"),
    ("bins.computed_bytes_per_update", "B/update"),
    ("pb.bins", "count"),
    ("baseline.direct_scatter_s", "s"),
    ("spgemm.multiply_s", "s"),
    ("spgemm.expand_s", "s"),
    ("spgemm.expand_tuples", "count"),
    ("spgemm.binned_tuples", "count"),
    ("spgemm.bin_traffic_bytes", "B"),
    ("fusion.hits", "count"),
    ("fusion.fused_ratio", "ratio"),
    ("spgemm.dense_bins", "count"),
    ("spgemm.hash_bins", "count"),
    ("spgemm.nnz_out", "count"),
    ("ingest_tuples_per_s", "tuples/s"),
    ("serve.update_us_p50", "us"),
    ("serve.busy_ratio", "ratio"),
    ("serve.seal_us_p50", "us"),
    ("stream.publish_wait_us_p50", "us"),
    ("epoch_visible_p50_us", "us"),
    ("epoch_visible_p99_us", "us"),
    ("query_p50_us", "us"),
    ("query_p99_us", "us"),
    ("serve.query_rtt_us_p50", "us"),
    ("cache.hit_ratio", "ratio"),
    ("cache.evictions", "count"),
    ("loadgen.lateness_p99_us", "us"),
    ("bins.segments", "count"),
    ("bins.cbuf_occupancy", "ratio"),
    ("mvcc.retained_bytes", "B"),
    ("wal.bytes_per_tuple", "B/tuple"),
    ("wal.fsyncs_per_epoch", "count"),
    ("wal.segments", "count"),
    ("trace.overhead_pct", "%"),
];

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

/// A metric by name, value and unit.
pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// What one workload run measured and whether its outputs were right.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Every correctness gate passed.
    pub correct: bool,
    /// Operations attempted (the unit is the workload's; see README.md).
    pub attempted: u64,
    /// Operations that failed, were refused and never completed, or
    /// produced a wrong result.
    pub failed: u64,
    /// End-to-end metrics (meaningful only from an untraced run): every
    /// one of [`END_TO_END`].
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics (meaningful only from a traced run): those of
    /// [`PER_LAYER`] whose layer the workload calls.
    pub per_layer: Vec<Metric>,
}

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measured duration.
    pub seconds: f64,
    /// Traced run.
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed needs an integer")?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| "--seconds needs a number")?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err("--seconds must lie in (0, 60]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Formats a number for JSON: all its digits, `null` if not finite.
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

fn result_line(o: &Outcome, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.correct,
        o.attempted,
        o.failed,
        body.join(", ")
    )
}

/// Puts `measured` in the order and units of `spec`. A metric of `spec`
/// the workload did not measure is 0 when `zero_if_absent` (a layer it
/// never calls) and NaN otherwise, which fails the run; so does a
/// measured metric that `spec` does not name or names in another unit.
fn in_spec_order(
    measured: &[Metric],
    spec: &[(&'static str, &'static str)],
    zero_if_absent: bool,
) -> Vec<Metric> {
    let mut out: Vec<Metric> = spec
        .iter()
        .map(
            |&(name, unit)| match measured.iter().find(|m| m.name == name) {
                Some(m) if m.unit == unit => m.clone(),
                Some(m) => {
                    eprintln!("perfbench: {name} measured in {}, not {unit}", m.unit);
                    metric(name, f64::NAN, unit)
                }
                None => metric(name, if zero_if_absent { 0.0 } else { f64::NAN }, unit),
            },
        )
        .collect();
    for m in measured {
        if !spec.iter().any(|&(name, _)| name == m.name) {
            eprintln!("perfbench: {} is not a metric of the manifest", m.name);
            out.push(metric(m.name, f64::NAN, m.unit));
        }
    }
    out
}

/// Reads one `kB` field of `/proc/self/status`, in bytes.
fn proc_status_bytes(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    let kb: u64 = line[field.len()..]
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb * 1024)
}

/// Current resident set, in bytes (0 where `/proc` is unavailable).
pub fn rss_bytes() -> u64 {
    proc_status_bytes("VmRSS:").unwrap_or(0)
}

/// Peak resident set of this process so far, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    proc_status_bytes("VmHWM:").unwrap_or(0) as f64 / 1e6
}

/// Where traces and the durable workload's data directory go: `out/`
/// beside this package's manifest, inside the checkout.
pub fn out_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // A hung layer must not hang the benchmark: give up well inside the
    // 180 s a run may take. The watchdog is never joined; it either ends
    // the process or dies with it.
    let limit = Duration::from_secs_f64(args.seconds + WATCHDOG_GRACE_S);
    std::thread::spawn(move || {
        std::thread::sleep(limit);
        eprintln!("perfbench: no result after {limit:?}; giving up");
        std::process::exit(3);
    });
    let mut outcome = match args.workload.as_str() {
        "scatter-uniform" => scatter::run(&args),
        "spgemm-zipf" => spgemm::run(&args),
        "serve-mixed" => serve::run(&args, false),
        "serve-durable" => serve::run(&args, true),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            return ExitCode::from(2);
        }
    };
    let metrics = if args.trace {
        in_spec_order(&outcome.per_layer, PER_LAYER, true)
    } else {
        in_spec_order(&outcome.end_to_end, END_TO_END, false)
    };
    // A number the run could not measure (too few samples for its
    // percentile, say) fails the run rather than print a stand-in.
    if let Some(m) = metrics.iter().find(|m| !m.value.is_finite()) {
        eprintln!("perfbench: {} could not be measured", m.name);
        outcome.correct = false;
    }
    for m in &metrics {
        eprintln!("  {:<32} {:>16} {}", m.name, json_number(m.value), m.unit);
    }
    eprintln!(
        "  failed_ops_ratio = {} / {} = {}",
        outcome.failed,
        outcome.attempted,
        outcome.failed as f64 / outcome.attempted.max(1) as f64
    );
    println!("{}", result_line(&outcome, &metrics));
    if outcome.correct && outcome.failed == 0 {
        ExitCode::SUCCESS
    } else {
        eprintln!("perfbench: {} FAILED its correctness gate", args.workload);
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_keeps_every_digit() {
        let o = Outcome {
            correct: true,
            attempted: 3,
            failed: 0,
            ..Default::default()
        };
        let line = result_line(&o, &[metric("setup_s", 0.123456789012, "s")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.123456789012, \"unit\": \"s\"}}}"
        );
        assert_eq!(json_number(f64::INFINITY), "null");
        assert_eq!(json_number(2.0), "2.0");
    }

    #[test]
    fn spec_order_fills_absent_layers_and_flags_strays() {
        let spec = &[("a", "s"), ("b", "us")];
        let got = in_spec_order(&[metric("b", 2.0, "us")], spec, true);
        assert_eq!(
            got.iter().map(|m| (m.name, m.value)).collect::<Vec<_>>(),
            [("a", 0.0), ("b", 2.0)]
        );
        let got = in_spec_order(&[metric("b", 2.0, "us")], spec, false);
        assert!(got[0].value.is_nan());
        let got = in_spec_order(&[metric("a", 1.0, "ms"), metric("c", 1.0, "s")], spec, true);
        assert!(got[0].value.is_nan());
        assert_eq!(got.len(), 3);
        assert!(got[2].value.is_nan());
    }

    /// The `(name, unit)` pairs of one metric list of `BENCHMARK.json`,
    /// read without a JSON parser: the manifest writes each metric as
    /// `{"name": "...", "unit": "...", ...}`.
    fn manifest_list(manifest: &str, key: &str) -> Vec<(String, String)> {
        let start = manifest.find(&format!("\"{key}\"")).expect("list present");
        let body = &manifest[start..];
        let body = &body[..body.find(']').expect("list closes")];
        body.split("{\"name\": \"")
            .skip(1)
            .map(|entry| {
                let name = entry[..entry.find('"').expect("name closes")].to_string();
                let unit_at = entry.find("\"unit\": \"").expect("unit present") + 9;
                let unit = entry[unit_at..][..entry[unit_at..].find('"').expect("unit closes")]
                    .to_string();
                (name, unit)
            })
            .collect()
    }

    #[test]
    fn metric_lists_match_the_manifest() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let manifest = std::fs::read_to_string(path).expect("BENCHMARK.json beside the package");
        let owned = |spec: &[(&str, &str)]| -> Vec<(String, String)> {
            spec.iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(manifest_list(&manifest, "end_to_end"), owned(END_TO_END));
        assert_eq!(manifest_list(&manifest, "per_layer"), owned(PER_LAYER));
    }
}
