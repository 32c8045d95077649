//! `serve-mix`: an in-process daemon with the default front end and two
//! closed-loop clients submitting the seeded request sequence of
//! [`crate::gen`].

use crate::gen::{self, MixGen};
use crate::layers::{self, Subject};
use crate::serve::{self, Daemon, Record, Window};
use crate::spans::Tracer;
use crate::stats;
use crate::sys;
use crate::Report;
use aceso_profile::ProfileDb;
use aceso_serve::Request;
use aceso_util::json::ToJson;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Closed-loop clients; each waits for its reply before the next submit.
pub const CLIENTS: usize = 2;
/// Requests a timed window must complete, so that at least ten lie
/// beyond the reported p99.
pub const MIN_REQUESTS: usize = 1000;
/// Daemon set-ups timed before and again after the window; `setup_s`
/// is the median of all of them, spread so the host's drift over the
/// run averages out.
const SETUP_REPS: usize = 3;
/// Searches of one warm key timed for the traced run's CPU-time
/// figures; one takes about as long as the CPU clock's 10 ms tick.
const SEARCH_REPS: usize = 15;

/// The warm keys' profile bytes: the cache budget. With the warm set
/// exactly filling the cache, every cold key evicts a warm one, which
/// later returns through a store read.
fn cache_budget() -> Result<u64, String> {
    let mut total = 0;
    for (model, gpus, _) in gen::WARM_KEYS {
        let m = aceso_model::zoo::by_name(model).ok_or(format!("unknown model {model}"))?;
        total += ProfileDb::build(&m, &aceso_cluster::ClusterSpec::v100_gpus(gpus)).approx_bytes();
    }
    Ok(total)
}

fn warm_requests() -> impl Iterator<Item = Request> {
    gen::WARM_KEYS
        .into_iter()
        .map(|(m, g, s)| gen::request(m, g, s, gen::SMALL_ITERATIONS))
}

/// Starts the daemon and pre-submits every warm key.
fn setup(dir: &Path, budget: u64) -> Result<Daemon, String> {
    let daemon = Daemon::start(dir, budget)?;
    for req in warm_requests() {
        if let Err(e) = serve::submit_plain(daemon.addr(), &req) {
            let _ = daemon.stop();
            return Err(format!("warm-up {}: {e}", req.model));
        }
    }
    Ok(daemon)
}

/// Times `SETUP_REPS` set-ups into `times`, keeping the last daemon
/// running.
fn timed_setups(work: &Path, budget: u64, times: &mut Vec<f64>) -> Result<Daemon, String> {
    let mut daemon: Option<Daemon> = None;
    for _ in 0..SETUP_REPS {
        if let Some(d) = daemon.take() {
            d.stop()?;
        }
        let t = Instant::now();
        daemon = Some(setup(&work.join("daemon"), budget)?);
        times.push(t.elapsed().as_secs_f64());
    }
    Ok(daemon.expect("at least one set-up"))
}

/// Compares every response with a direct library run of the same
/// `Request::search_options()`; failed requests and mismatches are
/// counted as failures.
fn verify(records: &[Record], report: &mut Report) -> Result<(), String> {
    let mut want: BTreeMap<String, (u64, u64, u64)> = BTreeMap::new();
    for r in records {
        let served = match &r.outcome {
            Ok(s) => s,
            Err(e) => {
                report.fail(format!("{} {:?}: {e}", r.req.model, r.kind));
                continue;
            }
        };
        let key_req = Request {
            request_id: None,
            ..r.req.clone()
        };
        let key = key_req.to_json_value().to_string_compact();
        let expected = match want.get(&key) {
            Some(w) => *w,
            None => {
                let subject = Subject::build(&r.req.model, r.req.gpus, r.req.search_options())?;
                let (res, _) = subject.search()?;
                let w = (
                    res.best_time.to_bits(),
                    res.best_config.semantic_hash(),
                    res.explored as u64,
                );
                want.insert(key.clone(), w);
                w
            }
        };
        let got = (served.best_time_bits, served.fingerprint, served.explored);
        if got != expected {
            report.fail(format!("{key}: served {got:?}, direct run {expected:?}"));
        }
    }
    report.note(format!(
        "verified {} responses over {} keys",
        records.len(),
        want.len()
    ));
    Ok(())
}

fn latencies(records: &[Record]) -> Vec<f64> {
    records
        .iter()
        .filter_map(|r| r.outcome.as_ref().ok().map(|s| s.latency_s))
        .collect()
}

/// Summed simulated iteration time of the warm keys' best plans.
fn warm_plan_iter_s() -> Result<f64, String> {
    let mut total = 0.0;
    for r in warm_requests() {
        let subject = Subject::build(&r.model, r.gpus, r.search_options())?;
        let (res, _) = subject.search()?;
        total += subject.simulate(&res.best_config)?;
    }
    Ok(total)
}

/// The untraced run.
pub fn run(seed: u64, seconds: f64, work: &Path) -> Result<Report, String> {
    let mut report = Report::default();
    let budget = cache_budget()?;
    let mut setups = Vec::new();
    let daemon = timed_setups(work, budget, &mut setups)?;
    let mix = Mutex::new(MixGen::new(seed));
    let window = Window {
        min: Duration::from_secs_f64(seconds),
        min_requests: MIN_REQUESTS,
        max: Duration::from_secs_f64(seconds * 3.0),
    };
    let (records, elapsed) = serve::run_mix(
        daemon.addr(),
        &mix,
        CLIENTS,
        window,
        &Tracer::new(false),
        None,
    );
    let stats_frame = daemon.stats();
    daemon.stop()?;
    let stats_frame = stats_frame?;
    timed_setups(work, budget, &mut setups)?.stop()?;

    report.attempted += records.len() as u64;
    verify(&records, &mut report)?;
    let lat = latencies(&records);
    let tail = stats::tail(&lat).ok_or("no request completed")?;
    report.note(format!(
        "requests: {} in {elapsed:.2} s; tail p{} over {} samples ({} beyond); \
         rejected {}, store hits {}, store writes {}, checkpoints {}",
        records.len(),
        tail.pct,
        tail.samples,
        tail.beyond,
        serve::counter(&stats_frame, "serve_rejected"),
        serve::counter(&stats_frame, "store_hits"),
        serve::counter(&stats_frame, "store_writes"),
        serve::counter(&stats_frame, "checkpoints_written"),
    ));
    if tail.pct < 99.0 {
        report.note(format!(
            "fewer than {MIN_REQUESTS} requests: req_p99_ms reports p{}",
            tail.pct
        ));
    }
    // The searches this workload runs are the served ones, spread over
    // the whole window. Their mean, not their median: the keys' costs
    // form separate clusters, and a median between clusters jumps.
    let served: Vec<_> = records
        .iter()
        .filter_map(|r| r.outcome.as_ref().ok())
        .collect();
    let searching: f64 = served.iter().map(|s| s.server_search_s).sum();
    let explored: u64 = served.iter().map(|s| s.explored).sum();
    report.metric("search_s", searching / served.len().max(1) as f64);
    report.metric("configs_per_s", explored as f64 / searching);
    report.metric("plan_iter_s", warm_plan_iter_s()?);
    report.metric("req_p50_ms", stats::median(&lat) * 1e3);
    report.metric("req_p99_ms", tail.value * 1e3);
    report.metric("req_per_s", lat.len() as f64 / elapsed);
    report.metric("setup_s", stats::median(&setups));
    report.metric("peak_rss_mb", sys::peak_rss_mb().ok_or("VmHWM unreadable")?);
    report.finish_ok_share();
    Ok(report)
}

/// The traced run: half the window through the public client, half
/// through the timestamping raw client, then the layers of one warm
/// request's search.
pub fn run_traced(seed: u64, seconds: f64, work: &Path, tracer: &Tracer) -> Result<Report, String> {
    let mut report = Report::default();
    let root = tracer.open("bench", None);
    let daemon = tracer.span("setup", root, |_| {
        setup(&work.join("daemon"), cache_budget()?)
    })?;
    let mix = Mutex::new(MixGen::new(seed));
    let half = Window {
        min: Duration::from_secs_f64(seconds / 2.0),
        min_requests: 0,
        max: Duration::from_secs_f64(seconds),
    };
    let (plain, _) = serve::run_mix(
        daemon.addr(),
        &mix,
        CLIENTS,
        half,
        &Tracer::new(false),
        None,
    );
    let (traced, _) = tracer.span("serve.mix", root, |mix_span| {
        serve::run_mix(daemon.addr(), &mix, CLIENTS, half, tracer, mix_span)
    });
    let stats_frame = daemon.stats();
    daemon.stop()?;
    let stats_frame = stats_frame?;
    report.attempted += (plain.len() + traced.len()) as u64;
    verify(&plain, &mut report)?;
    verify(&traced, &mut report)?;
    let served: Vec<_> = traced
        .iter()
        .filter_map(|r| r.outcome.as_ref().ok())
        .collect();
    for (name, v) in serve::layer_metrics(&served, &stats_frame) {
        report.metric(name, v);
    }
    let p50 = |rs: &[Record]| stats::median(&latencies(rs));
    let overhead = p50(&traced) / p50(&plain) - 1.0;

    // Core layers of the costliest warm key.
    let (m, g, s) = gen::WARM_KEYS[1];
    let req = gen::request(m, g, s, gen::SMALL_ITERATIONS);
    let subject = Subject::build(m, g, req.search_options())?;
    // Repeated so the 10 ms resolution of the CPU clock stays small.
    let (cpu0, t) = (sys::cpu_seconds(), Instant::now());
    let (result, obs) = tracer.span("core.search", root, |_| {
        for _ in 1..SEARCH_REPS {
            subject.search()?;
        }
        subject.search()
    })?;
    let search_s = t.elapsed().as_secs_f64() / SEARCH_REPS as f64;
    let cpu_s = sys::cpu_seconds()
        .zip(cpu0)
        .map(|(b, a)| b - a)
        .ok_or("CPU time unreadable")?
        / SEARCH_REPS as f64;
    report.metric("core.stage_sum_s", search_s);
    report.metric("core.stage_max_s", search_s);
    report.metric(
        "core.sched_efficiency",
        stats::sched_efficiency(search_s, search_s, sys::nproc(), 1),
    );
    for (name, v) in layers::measure(&subject, &result, &obs, cpu_s, work, tracer, root)? {
        report.metric(name, v);
    }
    tracer.close(root);
    report.metric(
        "core.search_threads",
        subject.options.resolved_threads() as f64,
    );
    report.metric("trace.overhead_share", overhead);
    Ok(report)
}
