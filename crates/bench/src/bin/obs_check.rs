//! Observability artifact checker.
//!
//! `obs_check <metrics.json> <events.jsonl>` validates a search's
//! `--metrics-out` / `--events-out` files: both parse with
//! `aceso-util::json`, the metric snapshot carries the current
//! `schema_version` and a non-zero `perf_evaluations`, the candidate
//! counters are consistent (`accepted + rejected == generated`), so is
//! the evaluation split (`incremental + full == evaluations`), and
//! every event line carries a `kind` known to the schema registry with
//! a contiguous `seq`.
//!
//! Exits 1 with a diagnostic on the first violated rule and 2 on bad
//! usage. `ci.sh` runs it on the artifacts of the observability smoke
//! and of the serve smoke.

use aceso_obs::schema::{EVENTS, SCHEMA_VERSION};
use aceso_util::json::Value;

fn fail(msg: &str) -> ! {
    eprintln!("obs_check: FAIL: {msg}");
    std::process::exit(1);
}

fn counter(snapshot: &Value, name: &str) -> u64 {
    snapshot
        .field("counters")
        .and_then(|c| c.field(name))
        .and_then(Value::as_u64)
        .unwrap_or_else(|e| fail(&format!("counter {name}: {e:?}")))
}

/// Validates one metric snapshot (a `--metrics-out` file).
fn check_metrics(snapshot: &Value, origin: &str) {
    match snapshot.field("schema_version").and_then(Value::as_u64) {
        Ok(v) if v == SCHEMA_VERSION => {}
        Ok(v) => fail(&format!(
            "{origin}: schema_version {v}, expected {SCHEMA_VERSION}"
        )),
        Err(e) => fail(&format!("{origin}: schema_version: {e:?}")),
    }
    let evals = counter(snapshot, "perf_evaluations");
    if evals == 0 {
        fail(&format!("{origin}: zero configurations evaluated"));
    }
    let generated = counter(snapshot, "candidates_generated");
    let accepted = counter(snapshot, "candidates_accepted");
    let rejected = counter(snapshot, "candidates_rejected");
    if accepted + rejected != generated {
        fail(&format!(
            "{origin}: accepted ({accepted}) + rejected ({rejected}) != generated ({generated})"
        ));
    }
    let incremental = counter(snapshot, "perf_incremental_hits");
    let full = counter(snapshot, "perf_full_evals");
    if incremental + full != evals {
        fail(&format!(
            "{origin}: incremental ({incremental}) + full ({full}) != evaluations ({evals})"
        ));
    }
    println!(
        "obs_check: {origin}: {evals} evaluations, {generated} candidates \
         ({accepted} accepted + {rejected} rejected) -- consistent"
    );
}

/// Validates an event stream: every line parses, carries a known kind,
/// and is numbered contiguously.
fn check_events(text: &str, origin: &str) {
    let mut lines = 0usize;
    for (i, line) in text.lines().enumerate() {
        let v = Value::parse(line)
            .unwrap_or_else(|e| fail(&format!("{origin} line {}: unparseable: {e:?}", i + 1)));
        let seq = v
            .field("seq")
            .and_then(Value::as_u64)
            .unwrap_or_else(|e| fail(&format!("{origin} line {}: seq: {e:?}", i + 1)));
        if seq != i as u64 {
            fail(&format!("{origin} line {}: seq {seq}, expected {i}", i + 1));
        }
        let kind = v
            .field("kind")
            .and_then(Value::as_str)
            .unwrap_or_else(|e| fail(&format!("{origin} line {}: kind: {e:?}", i + 1)));
        if !EVENTS.iter().any(|spec| spec.kind == kind) {
            fail(&format!(
                "{origin} line {}: unknown event kind `{kind}`",
                i + 1
            ));
        }
        lines += 1;
    }
    if lines == 0 {
        fail(&format!("{origin}: empty event stream"));
    }
    println!("obs_check: {origin}: {lines} events -- all parse, kinds known");
}

fn read(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| fail(&format!("cannot read {path}: {e}")))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [metrics_path, events_path] = args.as_slice() else {
        eprintln!("usage: obs_check <metrics.json> <events.jsonl>");
        std::process::exit(2);
    };
    let metrics = Value::parse(&read(metrics_path))
        .unwrap_or_else(|e| fail(&format!("{metrics_path}: unparseable: {e:?}")));
    check_metrics(&metrics, metrics_path);
    check_events(&read(events_path), events_path);
    println!("obs_check: OK");
}
