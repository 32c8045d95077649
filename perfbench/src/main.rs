//! Fixed-work benchmark of the Aceso search and serve daemon.
//!
//! ```console
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload search-wide --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Prints a human summary, then one JSON line with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. Exits 1 when a
//! correctness check fails and 2 on bad usage. See `README.md` for the
//! workloads and what each metric should move.

mod gen;
mod layers;
mod mix;
mod search;
mod serve;
mod spans;
mod stats;
mod sys;

use aceso_util::json::{obj, Value};
use spans::Tracer;
use std::path::PathBuf;

/// Workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 3] = ["search-wide", "search-deep", "serve-mix"];

/// End-to-end metrics (untraced run) and their units.
pub const END_TO_END: [(&str, &str); 9] = [
    ("search_s", "s"),
    ("configs_per_s", "1/s"),
    ("plan_iter_s", "sim_s"),
    ("req_p50_ms", "ms"),
    ("req_p99_ms", "ms"),
    ("req_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_share", "ratio"),
];

/// Per-layer metrics (traced run) and their units.
pub const PER_LAYER: [(&str, &str); 46] = [
    ("core.stage_sum_s", "s"),
    ("core.stage_max_s", "s"),
    ("core.sched_efficiency", "ratio"),
    ("core.generate_us_per_cand", "us"),
    ("core.bottleneck_us", "us"),
    ("core.candidates_generated", "count"),
    ("core.dedup_ratio", "ratio"),
    ("core.accept_ratio", "ratio"),
    ("core.backtracks", "count"),
    ("config.clone_us", "us"),
    ("config.hash_us", "us"),
    ("perf.full_eval_us", "us"),
    ("perf.incr_eval_us", "us"),
    ("perf.evaluations", "count"),
    ("perf.incr_hit_ratio", "ratio"),
    ("perf.eval_share_est", "ratio"),
    ("core.finetune_ms", "ms"),
    ("core.finetune_evals", "count"),
    ("core.unattributed_share_est", "ratio"),
    ("model.build_ms", "ms"),
    ("profile.build_ms", "ms"),
    ("runtime.sim_ms", "ms"),
    ("serve.requests", "count"),
    ("serve.admit_ms", "ms"),
    ("serve.profile_ms", "ms"),
    ("serve.search_ms", "ms"),
    ("serve.stream_ms", "ms"),
    ("serve.overhead_share", "ratio"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.events_per_req", "count"),
    ("serve.bytes_per_req", "B"),
    ("serve.rejected", "count"),
    ("serve.checkpoints_written", "count"),
    ("obs.encode_us", "us"),
    ("wire.encode_us_per_kb", "us/KiB"),
    ("wire.decode_us_per_kb", "us/KiB"),
    ("store.save_ms", "ms"),
    ("store.load_ms", "ms"),
    ("store.hits", "count"),
    ("store.misses", "count"),
    ("store.writes", "count"),
    ("checkpoint.encode_ms", "ms"),
    ("core.search_threads", "count"),
    ("trace.overhead_share", "ratio"),
    ("trace.spans", "count"),
    ("trace.self_s", "s"),
];

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted (searches, requests, checks).
    pub attempted: u64,
    /// Operations that failed or returned a wrong result.
    pub failed: u64,
    /// Metric values by name.
    pub metrics: Vec<(&'static str, f64)>,
    /// Human-readable lines printed before the JSON result.
    pub notes: Vec<String>,
}

impl Report {
    /// Records a metric.
    pub fn metric(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    /// Records a human-readable line.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Counts a failed operation and says why.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        self.notes.push(format!("FAILED: {why}"));
    }

    /// Records `ok_share`, the share of attempted operations that
    /// succeeded with a correct result.
    pub fn finish_ok_share(&mut self) {
        let ok = self.attempted.saturating_sub(self.failed) as f64;
        self.metric("ok_share", stats::ratio(ok, self.attempted as f64));
    }
}

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measurement window, seconds.
    pub seconds: f64,
    /// Traced (per-layer) run.
    pub trace: bool,
}

/// Parses `--workload W --seed N --seconds S --trace 0|1`.
pub fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value.clone()),
            "--workload" => return Err(format!("unknown workload {value}; one of {WORKLOADS:?}")),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// Runs the workload; the work directory holds store, spool and span
/// files and is removed afterwards except for the span dump.
fn run(args: &Args, work: &std::path::Path, tracer: &Tracer) -> Result<Report, String> {
    match (args.workload.as_str(), args.trace) {
        ("search-wide", false) => search::run(&search::WIDE, args.seed, args.seconds),
        ("search-wide", true) => search::run_traced(&search::WIDE, args.seed, work, tracer),
        ("search-deep", false) => search::run(&search::DEEP, args.seed, args.seconds),
        ("search-deep", true) => search::run_traced(&search::DEEP, args.seed, work, tracer),
        ("serve-mix", false) => mix::run(args.seed, args.seconds, work),
        ("serve-mix", true) => mix::run_traced(args.seed, args.seconds, work, tracer),
        (w, _) => Err(format!("unknown workload {w}")),
    }
}

/// Checks that `report` carries exactly the metrics of its mode.
fn check_complete(report: &Report, expected: &[(&str, &str)]) -> Result<(), String> {
    let mut got: Vec<&str> = report.metrics.iter().map(|(n, _)| *n).collect();
    let mut want: Vec<&str> = expected.iter().map(|(n, _)| *n).collect();
    got.sort_unstable();
    want.sort_unstable();
    if got != want {
        return Err(format!(
            "metric set mismatch: produced {got:?}, expected {want:?}"
        ));
    }
    match report.metrics.iter().find(|(_, v)| !v.is_finite()) {
        Some((n, v)) => Err(format!("metric {n} is not finite: {v}")),
        None => Ok(()),
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\nusage: aceso-perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>", WORKLOADS.join("|"));
            std::process::exit(2);
        }
    };
    let root = PathBuf::from(".bench_work");
    let work = root.join(format!("{}-{}", args.workload, std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("error: create {}: {e}", work.display());
        std::process::exit(1);
    }
    let tracer = Tracer::new(args.trace);
    let outcome = run(&args, &work, &tracer);
    let _ = std::fs::remove_dir_all(&work);
    let mut report = match outcome {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {} run failed: {e}", args.workload);
            std::process::exit(1);
        }
    };
    let threads = aceso_core::SearchOptions::default().resolved_threads();
    println!(
        "workload {} seed {} trace {}: search workers {threads} (ACESO_SEARCH_THREADS={}), nproc {}",
        args.workload,
        args.seed,
        args.trace as u8,
        std::env::var("ACESO_SEARCH_THREADS").unwrap_or_else(|_| "unset".into()),
        sys::nproc()
    );
    let expected: &[(&str, &str)] = if args.trace {
        let self_times = tracer.self_times();
        report.metric("trace.spans", tracer.spans().len() as f64);
        report.metric("trace.self_s", self_times.values().sum());
        for (name, s) in &self_times {
            println!("  self {name:<28} {s:>10.6} s");
        }
        let dump = root.join(format!("spans-{}-seed{}.json", args.workload, args.seed));
        let context = vec![
            ("workload".to_string(), Value::Str(args.workload.clone())),
            ("seed".to_string(), Value::UInt(args.seed)),
            ("search_threads".to_string(), Value::UInt(threads as u64)),
        ];
        match std::fs::write(&dump, tracer.to_json(context).to_string_compact()) {
            Ok(()) => println!("  span dump: {}", dump.display()),
            Err(e) => report.fail(format!("write {}: {e}", dump.display())),
        }
        &PER_LAYER
    } else {
        &END_TO_END
    };
    if let Err(e) = check_complete(&report, expected) {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
    for line in &report.notes {
        println!("  {line}");
    }
    let unit = |name: &str| {
        expected
            .iter()
            .find(|(n, _)| *n == name)
            .map_or("", |(_, u)| u)
    };
    let metrics: Vec<(String, Value)> = report
        .metrics
        .iter()
        .map(|&(name, value)| {
            println!("  {name:<28} {value:>16.6} {}", unit(name));
            (
                name.to_string(),
                obj([
                    ("value", Value::Float(value)),
                    ("unit", Value::Str(unit(name).into())),
                ]),
            )
        })
        .collect();
    let correct = report.failed == 0;
    let result = obj([
        ("correct", Value::Bool(correct)),
        ("attempted", Value::UInt(report.attempted)),
        ("failed", Value::UInt(report.failed)),
        ("metrics", Value::Object(metrics)),
    ]);
    println!("{}", result.to_string_compact());
    if !correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse_args(&argv(
            "--workload serve-mix --seed 7 --seconds 20 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            a,
            Args {
                workload: "serve-mix".into(),
                seed: 7,
                seconds: 20.0,
                trace: true
            }
        );
        assert!(parse_args(&argv("--workload nope --seed 1 --seconds 1")).is_err());
        assert!(parse_args(&argv("--workload search-wide --seed 1 --seconds 0")).is_err());
        assert!(parse_args(&argv(
            "--workload search-wide --seed 1 --seconds 1 --trace 2"
        ))
        .is_err());
        assert!(parse_args(&argv("--workload search-wide --seconds 1")).is_err());
    }

    /// `BENCHMARK.json` at the repository root names the same workloads
    /// and metrics, with the same units, as this program prints.
    #[test]
    fn benchmark_json_matches_the_metric_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json readable");
        let v = Value::parse(&text).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<(String, String)> {
            v.field(key)
                .unwrap()
                .as_array()
                .unwrap()
                .iter()
                .map(|m| {
                    let name = m.field("name").unwrap().as_str().unwrap().to_string();
                    let unit = m
                        .get("unit")
                        .map_or(String::new(), |u| u.as_str().unwrap().to_string());
                    (name, unit)
                })
                .collect()
        };
        let owned = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names("end_to_end"), owned(&END_TO_END));
        assert_eq!(names("per_layer"), owned(&PER_LAYER));
        let workloads: Vec<String> = names("workloads").into_iter().map(|(n, _)| n).collect();
        assert_eq!(workloads, WORKLOADS);
    }
}
