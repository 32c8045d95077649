//! The fixed-work search workloads: one zoo model, simulated V100s and
//! an iteration budget with no wall-clock budget, so `explored` and the
//! best plan are deterministic and pinned.

use crate::layers::{self, Subject};
use crate::serve::{self, Daemon};
use crate::spans::Tracer;
use crate::stats;
use crate::sys;
use crate::Report;
use aceso_core::SearchOptions;
use aceso_serve::Request;
use std::path::Path;
use std::time::{Duration, Instant};

/// What a correct run of a search workload must produce.
#[derive(Debug, Clone, Copy)]
pub struct Pins {
    /// Configurations explored.
    pub explored: usize,
    /// Bits of the best predicted iteration time.
    pub best_time_bits: u64,
    /// `semantic_hash` of the best configuration.
    pub best_hash: u64,
}

/// A search workload.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Zoo model.
    pub model: &'static str,
    /// Simulated V100 count.
    pub gpus: usize,
    /// Pinned stage count; `None` searches the default counts.
    pub stages: Option<usize>,
    /// Iteration budget per stage count.
    pub iterations: usize,
    /// Expected outputs.
    pub pins: Pins,
}

/// `search-wide`: many cheap evaluations over eight stage-count threads.
pub const WIDE: Spec = Spec {
    model: "gpt3-0.35b",
    gpus: 8,
    stages: None,
    iterations: 16,
    pins: Pins {
        explored: 302_008,
        best_time_bits: 0x4028_b1fa_e66b_e2d3,
        best_hash: 0x538a_067e_7ae6_037d,
    },
};

/// `search-deep`: one stage count on a 2,052-op model, where per-candidate
/// cost grows with depth.
pub const DEEP: Spec = Spec {
    model: "deepnet-256l",
    gpus: 8,
    stages: Some(4),
    iterations: 40,
    pins: Pins {
        explored: 21_681,
        best_time_bits: 0x402f_9037_9f56_5df3,
        best_hash: 0xe997_2f3f_5860_f509,
    },
};

/// Set-ups timed before each search of a run; `setup_s` is the median
/// of all of them. A set-up takes under a millisecond and the host's
/// speed drifts over seconds, so set-ups are spread across the window.
const SETUP_BATCH: usize = 20;

impl Spec {
    fn options(&self, seed: u64) -> SearchOptions {
        SearchOptions {
            max_iterations: self.iterations,
            stage_counts: self.stages.map(|p| vec![p]),
            seed,
            ..SearchOptions::default()
        }
    }

    /// The same search as a served request.
    fn request(&self, seed: u64) -> Request {
        Request {
            model: self.model.to_string(),
            gpus: self.gpus,
            stages: self.stages,
            max_iterations: self.iterations,
            seed,
            request_id: Some(format!("probe-{seed}")),
            ..Request::default()
        }
    }

    fn check(&self, explored: usize, best_time_bits: u64, best_hash: u64) -> Result<(), String> {
        let got = (explored, best_time_bits, best_hash);
        let want = (
            self.pins.explored,
            self.pins.best_time_bits,
            self.pins.best_hash,
        );
        if got == want {
            Ok(())
        } else {
            Err(format!(
                "{}: got (explored, best_time_bits, hash) = ({}, {:#x}, {:#x}), pinned ({}, {:#x}, {:#x})",
                self.model, got.0, got.1, got.2, want.0, want.1, want.2
            ))
        }
    }

    /// Builds graph and profile `SETUP_BATCH` times, recording each
    /// set-up time; returns the last subject.
    fn setup(&self, seed: u64, times: &mut Vec<f64>) -> Result<Subject, String> {
        let mut subject = None;
        for _ in 0..SETUP_BATCH {
            let t = Instant::now();
            subject = Some(Subject::build(self.model, self.gpus, self.options(seed))?);
            times.push(t.elapsed().as_secs_f64());
        }
        Ok(subject.expect("at least one set-up"))
    }
}

/// The untraced run: repeats the fixed-work search for `seconds` and
/// reports every end-to-end metric.
pub fn run(spec: &Spec, seed: u64, seconds: f64) -> Result<Report, String> {
    let mut report = Report::default();
    let mut setups = Vec::new();
    let subject = spec.setup(seed, &mut setups)?;
    let window = Instant::now();
    let mut lat = Vec::new();
    let mut last = None;
    while lat.is_empty() || window.elapsed() < Duration::from_secs_f64(seconds) {
        if !lat.is_empty() {
            spec.setup(seed, &mut setups)?;
        }
        let t = Instant::now();
        let (result, _) = subject.search()?;
        lat.push(t.elapsed().as_secs_f64());
        report.attempted += 1;
        if let Err(e) = spec.check(
            result.explored,
            result.best_time.to_bits(),
            result.best_config.semantic_hash(),
        ) {
            report.fail(e);
        }
        last = Some(result);
    }
    let elapsed = window.elapsed().as_secs_f64();
    let result = last.expect("at least one search");
    let search_s = stats::median(&lat);
    // A run holds only a few searches. When no percentile has ten
    // samples beyond it, req_p99_ms falls back to the median rather than
    // to the maximum of a handful of samples, which only measures noise.
    let tail = stats::tail(&lat)
        .filter(|t| t.beyond >= stats::TAIL_MIN_BEYOND)
        .map_or((50.0, search_s), |t| (t.pct, t.value));
    report.note(format!(
        "searches: {} in {elapsed:.2} s ({lat:.3?} s); req_p99_ms reports p{} (tail rule: {} samples)",
        lat.len(),
        tail.0,
        lat.len()
    ));
    report.metric("search_s", search_s);
    report.metric("configs_per_s", result.explored as f64 / search_s);
    report.metric("plan_iter_s", subject.simulate(&result.best_config)?);
    report.metric("req_p50_ms", search_s * 1e3);
    report.metric("req_p99_ms", tail.1 * 1e3);
    report.metric("req_per_s", lat.len() as f64 / elapsed);
    report.metric("setup_s", stats::median(&setups));
    report.metric("peak_rss_mb", sys::peak_rss_mb().ok_or("VmHWM unreadable")?);
    report.finish_ok_share();
    Ok(report)
}

/// The traced run: per-layer metrics of the same search.
pub fn run_traced(spec: &Spec, seed: u64, work: &Path, tracer: &Tracer) -> Result<Report, String> {
    let mut report = Report::default();
    let root = tracer.open("bench", None);
    let subject = tracer.span("setup", root, |_| {
        Subject::build(spec.model, spec.gpus, spec.options(seed))
    })?;

    // A traced search between two untraced ones gives the tracing
    // overhead without charging the first run's warm-up to either side.
    let untraced = || -> Result<f64, String> {
        let t = Instant::now();
        subject.search()?;
        Ok(t.elapsed().as_secs_f64())
    };
    let before_s = untraced()?;
    let (cpu0, t) = (sys::cpu_seconds(), Instant::now());
    let (result, obs) = tracer.span("core.search", root, |_| subject.search())?;
    let traced_s = t.elapsed().as_secs_f64();
    let cpu_s = sys::cpu_seconds()
        .zip(cpu0)
        .map(|(b, a)| b - a)
        .ok_or("CPU time unreadable")?;
    let untraced_s = (before_s + untraced()?) / 2.0;
    report.attempted += 1;
    if let Err(e) = spec.check(
        result.explored,
        result.best_time.to_bits(),
        result.best_config.semantic_hash(),
    ) {
        report.fail(e);
    }

    // Scheduler: each stage count alone, serially.
    let mut per_stage = Vec::new();
    let mut stage_s = Vec::new();
    tracer.span("core.stages", root, |stages| -> Result<(), String> {
        for trace in &result.traces {
            let p = trace.stage_count;
            let options = SearchOptions {
                stage_counts: Some(vec![p]),
                ..subject.options.clone()
            };
            let t = Instant::now();
            let (r, _) = tracer.span("core.stage", stages, |_| subject.search_with(options))?;
            stage_s.push(t.elapsed().as_secs_f64());
            per_stage.push((p, r.explored));
        }
        Ok(())
    })?;
    report.attempted += 1;
    if let Err(e) = stats::check_stage_sum(&per_stage, result.explored) {
        report.fail(e);
    }
    report.note(format!(
        "per-stage explored: {per_stage:?} = {}",
        result.explored
    ));
    let stage_sum: f64 = stage_s.iter().sum();
    report.metric("core.stage_sum_s", stage_sum);
    report.metric(
        "core.stage_max_s",
        stage_s.iter().copied().fold(0.0, f64::max),
    );
    report.metric(
        "core.sched_efficiency",
        stats::sched_efficiency(stage_sum, untraced_s, sys::nproc(), per_stage.len()),
    );

    for (name, v) in layers::measure(&subject, &result, &obs, cpu_s, work, tracer, root)? {
        report.metric(name, v);
    }

    // The same search, served once by a fresh daemon.
    let (served, stats_frame) = tracer.span("serve.probe", root, |probe| -> Result<_, String> {
        let daemon = Daemon::start(
            &work.join("probe"),
            aceso_serve::ServeOptions::default().cache_bytes,
        )?;
        let served = serve::submit_raw(daemon.addr(), &spec.request(seed), tracer, probe, 0);
        let stats_frame = daemon.stats();
        daemon.stop()?;
        Ok((served?, stats_frame?))
    })?;
    report.attempted += 1;
    if let Err(e) = spec.check(
        served.explored as usize,
        served.best_time_bits,
        served.fingerprint,
    ) {
        report.fail(format!("served: {e}"));
    }
    for (name, v) in serve::layer_metrics(&[&served], &stats_frame) {
        report.metric(name, v);
    }

    tracer.close(root);
    report.metric(
        "core.search_threads",
        subject.options.resolved_threads() as f64,
    );
    report.metric("trace.overhead_share", traced_s / untraced_s - 1.0);
    Ok(report)
}
