//! The repository benchmark: one command runs one workload, checks every
//! answer, prints every metric with its unit and sample count, and ends
//! with one JSON line.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve_warm --seed 1 --seconds 25 --trace 0
//! ```
//!
//! `--trace 0` reports the end-to-end metrics of an untraced run;
//! `--trace 1` repeats the run, then replays it through the traced pipeline
//! and reports the per-layer metrics. See `perfbench/README.md`.

mod calib;
mod check;
mod cold;
mod driver;
mod replay;
mod serve;
mod stats;
mod trace;

use stats::{median, Metrics};
use trace::Tracer;

/// Seed used when `--seed` is not given.
const DEFAULT_SEED: u64 = 1;
/// Run length used when `--seconds` is not given.
const DEFAULT_SECONDS: f64 = 25.0;

const WORKLOADS: [&str; 3] = ["serve_warm", "serve_churn", "project_cold"];

/// The end-to-end metrics of the final JSON line (`--trace 0`), on every
/// workload.
const END_TO_END: [&str; 4] = ["setup_s", "capacity_rps", "latency_p50_ms", "peak_rss_mb"];

/// The per-layer metrics of the final JSON line (`--trace 1`). A layer a
/// workload never calls reads 0 there; the report lines above it say so.
const PER_LAYER: [&str; 46] = [
    "driver.late_p50_ms",
    "driver.late_p99_ms",
    "driver.conn_wait_p95_ms",
    "server.decode_us",
    "server.encode_us",
    "server.transport_ms.sample",
    "server.transport_ms.volume",
    "server.transport_ms.reconstruct",
    "server.transport_ms.insert",
    "core.query_ms.sample",
    "core.query_ms.volume",
    "core.query_ms.reconstruct",
    "core.self_us.sample",
    "core.self_us.volume",
    "core.self_us.reconstruct",
    "constraint.canonical_us",
    "constraint.canonical_calls",
    "constraint.resolve_us",
    "constraint.fm_ms",
    "constraint.insert_us",
    "sampler.store_hits",
    "sampler.store_misses",
    "sampler.store_evictions",
    "sampler.store_hit_ratio",
    "sampler.prepare_ms",
    "sampler.prepare_calls",
    "sampler.attach_us",
    "sampler.sample_us",
    "sampler.attempts_per_sample",
    "sampler.volume_ms",
    "sampler.attempts_per_volume",
    "sampler.projection_new_ms",
    "sampler.selector_ms",
    "sampler.selector_cells",
    "sampler.selector_share",
    "sampler.projection_draw_ms",
    "sampler.projection_acceptance",
    "geometry.hull_ms",
    "geometry.hull_points",
    "geometry.hull_facets",
    "geometry.hull_share",
    "reconstruct.estimate_ms",
    "reconstruct.self_ms",
    "reconstruct.self_share",
    "trace.overhead_ms",
    "trace.fidelity_mismatches",
];

/// Parsed command line.
pub struct RunConfig {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What a workload run produced.
pub struct Outcome {
    pub attempted: usize,
    pub failed: usize,
    pub correct: bool,
    pub end_to_end: Metrics,
    pub layers: Metrics,
}

/// Client lanes and server workers: one per core.
pub fn lanes() -> usize {
    std::thread::available_parallelism().map_or(2, |n| n.get())
}

/// Peak resident set (`VmHWM`) of this process, in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Per-call medians and shares of the traced spans and counts.
pub fn layer_metrics(t: &Tracer, layers: &mut Metrics) {
    let mut span = |metric: &str, span: &str, scale: f64| {
        let d = t.durations_ms(span);
        layers.put(
            metric,
            median(&d).map(|v| v * scale),
            unit_of(metric),
            d.len(),
        );
    };
    span("server.decode_us", "server.decode", 1e3);
    span("server.encode_us", "server.encode", 1e3);
    for class in ["sample", "volume", "reconstruct"] {
        span(
            &format!("core.query_ms.{class}"),
            &format!("core.query.{class}"),
            1.0,
        );
    }
    span("constraint.canonical_us", "constraint.canonical", 1e3);
    span("constraint.resolve_us", "constraint.resolve", 1e3);
    span("constraint.fm_ms", "constraint.fm", 1.0);
    span("constraint.insert_us", "constraint.insert", 1e3);
    span("sampler.prepare_ms", "sampler.prepare", 1.0);
    span("sampler.attach_us", "sampler.attach", 1e3);
    span("sampler.sample_us", "sampler.sample", 1e3);
    span("sampler.volume_ms", "sampler.volume", 1.0);
    span("sampler.projection_new_ms", "sampler.projection_new", 1.0);
    span("sampler.selector_ms", "sampler.selector", 1.0);
    span("sampler.projection_draw_ms", "sampler.projection_draw", 1.0);
    span("geometry.hull_ms", "geometry.hull", 1.0);
    span("reconstruct.estimate_ms", "reconstruct.estimate", 1.0);
    for class in ["sample", "volume", "reconstruct"] {
        let own = t.self_times_ms(&format!("core.query.{class}"));
        layers.put(
            format!("core.self_us.{class}"),
            median(&own).map(|v| v * 1e3),
            "us",
            own.len(),
        );
    }
    let own = t.self_times_ms("reconstruct.estimate");
    layers.put("reconstruct.self_ms", median(&own), "ms", own.len());

    // Shares of the whole replay's reconstruction time: these add up with
    // the resolve, projection_new and draw spans to the estimate total.
    let total: f64 = t.durations_ms("reconstruct.estimate").iter().sum();
    let share = |sum: f64| (total > 0.0).then(|| sum / total);
    layers.put(
        "geometry.hull_share",
        share(t.durations_ms("geometry.hull").iter().sum()),
        "fraction",
        1,
    );
    layers.put(
        "sampler.selector_share",
        share(t.durations_ms("sampler.selector").iter().sum()),
        "fraction",
        1,
    );
    layers.put(
        "reconstruct.self_share",
        share(own.iter().sum()),
        "fraction",
        1,
    );

    let calls = t.counts_of("constraint.canonical_calls").len();
    layers.put(
        "constraint.canonical_calls",
        Some(calls as f64),
        "count",
        calls,
    );
    let prepares = t.durations_ms("sampler.prepare").len();
    layers.put(
        "sampler.prepare_calls",
        Some(prepares as f64),
        "count",
        prepares,
    );
    for name in [
        "sampler.attempts_per_sample",
        "sampler.attempts_per_volume",
        "sampler.selector_cells",
        "sampler.projection_acceptance",
        "geometry.hull_points",
        "geometry.hull_facets",
    ] {
        let v = t.counts_of(name);
        layers.put(name, median(&v), unit_of(name), v.len());
    }
    // Spans are recorded request by request, so equal ids are adjacent.
    let mut requests: Vec<u64> = t.spans.iter().map(|s| s.request).collect();
    requests.dedup();
    layers.put(
        "trace.requests",
        Some(requests.len() as f64),
        "count",
        requests.len(),
    );
}

/// A metric's unit, from its name.
fn unit_of(name: &str) -> &'static str {
    if name.contains("_us") {
        "us"
    } else if name.contains("_ms") {
        "ms"
    } else if name.ends_with("_share") || name.ends_with("_ratio") || name.ends_with("acceptance") {
        "fraction"
    } else {
        "count"
    }
}

/// Writes the replay's spans and counts next to the benchmark.
pub fn write_trace(cfg: &RunConfig, t: &Tracer) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("trace-{}-{}.jsonl", cfg.workload, cfg.seed));
    if let Err(e) = t.write_to(&path) {
        eprintln!("could not write {}: {e}", path.display());
    }
}

fn parse_args() -> Result<RunConfig, String> {
    let mut cfg = RunConfig {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => cfg.workload = value,
            "--seed" => cfg.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => cfg.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                cfg.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&cfg.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    if !(1.0..=3600.0).contains(&cfg.seconds) {
        return Err("--seconds must lie in 1..=3600".to_string());
    }
    Ok(cfg)
}

fn main() {
    let cfg = match parse_args() {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let outcome = match cfg.workload.as_str() {
        "serve_warm" => serve::run(false, &cfg),
        "serve_churn" => serve::run(true, &cfg),
        _ => cold::run(&cfg),
    };
    println!(
        "perfbench {} seed={} seconds={} trace={} lanes={} attempted={} failed={}",
        cfg.workload,
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace),
        lanes(),
        outcome.attempted,
        outcome.failed
    );
    let mut sections = vec![("end to end", &outcome.end_to_end)];
    if cfg.trace {
        sections.push(("per layer", &outcome.layers));
    }
    for (title, metrics) in sections {
        println!(" {title}:");
        for m in &metrics.0 {
            match m.value {
                Some(v) => println!("  {} = {v:?} {} (n={})", m.name, m.unit, m.samples),
                None => println!("  {} = invalid {} (n={})", m.name, m.unit, m.samples),
            }
        }
    }
    let shown = if cfg.trace {
        &outcome.layers
    } else {
        &outcome.end_to_end
    };
    if let Some(m) = END_TO_END
        .iter()
        .find(|name| outcome.end_to_end.get(name).and_then(|m| m.value).is_none())
    {
        eprintln!("perfbench: {m} has too few samples; run longer");
        std::process::exit(1);
    }
    let names: &[&str] = if cfg.trace { &PER_LAYER } else { &END_TO_END };
    let fields: Vec<String> = names
        .iter()
        .map(|name| {
            let metric = shown.get(name);
            if metric.and_then(|m| m.value).is_none() {
                println!("  {name}: not measured on this workload, 0 below");
            }
            let value = metric.and_then(|m| m.value).unwrap_or(0.0);
            let unit = metric.map_or_else(|| unit_of(name), |m| m.unit);
            format!(r#""{name}":{{"value":{value:?},"unit":"{unit}"}}"#)
        })
        .collect();
    println!(
        r#"{{"correct":{},"attempted":{},"failed":{},"metrics":{{{}}}}}"#,
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        fields.join(",")
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdb_server::json::{parse, Json};

    fn names(doc: &Json, key: &str) -> Vec<String> {
        doc.get(key)
            .and_then(Json::as_array)
            .expect("metric list")
            .iter()
            .map(|m| {
                m.get("name")
                    .and_then(Json::as_str)
                    .expect("name")
                    .to_string()
            })
            .collect()
    }

    /// The metric lists the program prints are the ones `BENCHMARK.json`
    /// declares, in the same order.
    #[test]
    fn benchmark_json_declares_the_printed_metrics() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = parse(&text, 8).expect("BENCHMARK.json parses");
        assert_eq!(names(&doc, "end_to_end"), END_TO_END);
        assert_eq!(names(&doc, "per_layer"), PER_LAYER);
        assert_eq!(names(&doc, "workloads"), WORKLOADS);
        for name in PER_LAYER {
            assert!(!name.is_empty());
        }
    }
}
