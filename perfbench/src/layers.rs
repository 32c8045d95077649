//! Per-layer figures of one search, timed from outside through each
//! layer's public functions and combined with the counters the search
//! already reports in its `ObsReport`.

use crate::spans::{SpanId, Tracer};
use crate::stats::{self, CostTerm};
use aceso_cluster::ClusterSpec;
use aceso_config::ParallelConfig;
use aceso_core::finetune::fine_tune;
use aceso_core::{
    primitives, ranked_bottlenecks, AcesoSearch, Primitive, SearchOptions, SearchResult, SearchStep,
};
use aceso_model::ModelGraph;
use aceso_obs::{Counter, ObsReport};
use aceso_perf::{CachedEvaluator, Evaluator, PerfModel};
use aceso_profile::ProfileDb;
use aceso_runtime::Simulator;
use aceso_serve::{read_frame, write_frame};
use aceso_store::Store;
use aceso_util::json::{obj, Value};
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

/// One search problem: a zoo model on simulated V100s with options.
pub struct Subject {
    /// Zoo name of the model.
    pub model_name: String,
    /// The operator graph.
    pub model: ModelGraph,
    /// The simulated cluster.
    pub cluster: ClusterSpec,
    /// Its profile database.
    pub db: ProfileDb,
    /// Search options.
    pub options: SearchOptions,
}

impl Subject {
    /// Builds the graph and profile of `model_name` on `gpus` V100s.
    pub fn build(model_name: &str, gpus: usize, options: SearchOptions) -> Result<Self, String> {
        let model =
            aceso_model::zoo::by_name(model_name).ok_or(format!("unknown model {model_name}"))?;
        let cluster = ClusterSpec::v100_gpus(gpus);
        let db = ProfileDb::build(&model, &cluster);
        Ok(Self {
            model_name: model_name.to_string(),
            model,
            cluster,
            db,
            options,
        })
    }

    /// Runs the search with metrics on, as `aceso search` does.
    pub fn search(&self) -> Result<(SearchResult, ObsReport), String> {
        self.search_with(self.options.clone())
    }

    /// Runs the search with other options on the same problem.
    pub fn search_with(&self, options: SearchOptions) -> Result<(SearchResult, ObsReport), String> {
        AcesoSearch::new(&self.model, &self.cluster, &self.db, options)
            .run_observed(true)
            .map_err(|e| e.to_string())
    }

    /// Simulated iteration time of a configuration, seconds.
    pub fn simulate(&self, config: &ParallelConfig) -> Result<f64, String> {
        Simulator::with_defaults(&self.model, &self.cluster, &self.db)
            .execute(config)
            .map(|r| r.iteration_time)
            .map_err(|e| e.to_string())
    }
}

/// Median per-call time of `f` in microseconds over `batches` batches;
/// each batch repeats `f` until it has run for at least 2 ms, so cheap
/// calls are not dominated by clock reads.
pub fn per_call_us(batches: usize, mut f: impl FnMut()) -> f64 {
    let mut n = 1usize;
    loop {
        let t = Instant::now();
        for _ in 0..n {
            f();
        }
        if t.elapsed() >= Duration::from_millis(2) || n >= 1 << 20 {
            break;
        }
        n *= 2;
    }
    let samples: Vec<f64> = (0..batches.max(1))
        .map(|_| {
            let t = Instant::now();
            for _ in 0..n {
                f();
            }
            t.elapsed().as_secs_f64() * 1e6 / n as f64
        })
        .collect();
    stats::median(&samples)
}

/// The one-primitive neighbours of `config` that one generation step
/// produces: every eligible primitive for every resource of the top
/// `bottlenecks` bottlenecks, as a search hop generates them.
fn neighbours<E: Evaluator>(
    ev: &E,
    config: &ParallelConfig,
    options: &SearchOptions,
    bottlenecks: usize,
) -> Vec<ParallelConfig> {
    let est = ev.evaluate_unchecked(config);
    let mut out = Vec::new();
    for b in ranked_bottlenecks(&est).into_iter().take(bottlenecks) {
        for &resource in &b.resources {
            let prims = if options.gen_options.enable_zero {
                Primitive::eligible_for_extended(resource)
            } else {
                Primitive::eligible_for(resource)
            };
            for prim in prims {
                out.extend(
                    primitives::generate_with(
                        ev,
                        config,
                        &est,
                        prim,
                        b.stage,
                        resource,
                        options.gen_options,
                    )
                    .into_iter()
                    .map(|c| c.config),
                );
            }
        }
    }
    out
}

/// Event frames encoded and decoded for the `wire` figures.
const WIRE_EVENTS: usize = 2000;

/// Per-layer figures of `subject`'s search. `result`/`report` are the
/// search's outputs and `cpu_s` the CPU time it took; `work` is a
/// scratch directory for the store round trip.
pub fn measure(
    subject: &Subject,
    result: &SearchResult,
    report: &ObsReport,
    cpu_s: f64,
    work: &Path,
    tracer: &Tracer,
    parent: Option<SpanId>,
) -> Result<Vec<(&'static str, f64)>, String> {
    let best = &result.best_config;
    let mut out: Vec<(&'static str, f64)> = Vec::new();

    // model, profile: graph and profile build.
    let model_us = tracer.span("model.build", parent, |_| {
        per_call_us(5, || {
            black_box(aceso_model::zoo::by_name(&subject.model_name));
        })
    });
    let profile_us = tracer.span("profile.build", parent, |_| {
        per_call_us(5, || {
            black_box(ProfileDb::build(&subject.model, &subject.cluster));
        })
    });
    out.push(("model.build_ms", model_us / 1e3));
    out.push(("profile.build_ms", profile_us / 1e3));

    // config: clone and semantic hash of the best configuration.
    let clone_us = tracer.span("config.clone", parent, |_| {
        per_call_us(9, || {
            black_box(black_box(best).clone());
        })
    });
    let hash_us = tracer.span("config.hash", parent, |_| {
        per_call_us(9, || {
            black_box(black_box(best).semantic_hash());
        })
    });
    out.push(("config.clone_us", clone_us));
    out.push(("config.hash_us", hash_us));

    // perf: a full evaluation, and incremental ones on a warm memo.
    let pm = PerfModel::new(&subject.model, &subject.cluster, &subject.db);
    let full_us = tracer.span("perf.full_eval", parent, |_| {
        per_call_us(9, || {
            black_box(pm.evaluate_unchecked(black_box(best)));
        })
    });
    let cached = CachedEvaluator::new(PerfModel::new(
        &subject.model,
        &subject.cluster,
        &subject.db,
    ));
    let nbrs = neighbours(&cached, best, &subject.options, 2);
    if nbrs.is_empty() {
        return Err("best configuration has no one-primitive neighbours".into());
    }
    let incr_us = tracer.span("perf.incr_eval", parent, |_| {
        let samples: Vec<f64> = (0..9)
            .map(|_| {
                cached.clear();
                black_box(cached.evaluate_unchecked(best));
                let t = Instant::now();
                for c in &nbrs {
                    black_box(cached.evaluate_unchecked(c));
                }
                t.elapsed().as_secs_f64() * 1e6 / nbrs.len() as f64
            })
            .collect();
        stats::median(&samples)
    });
    out.push(("perf.full_eval_us", full_us));
    out.push(("perf.incr_eval_us", incr_us));

    // core: generation, bottleneck ranking and finetune on a warm memo.
    cached.clear();
    let cands = neighbours(&cached, best, &subject.options, 1).len().max(1);
    let gen_us = tracer.span("core.generate", parent, |_| {
        per_call_us(5, || {
            black_box(neighbours(&cached, best, &subject.options, 1));
        })
    }) / cands as f64;
    let est = cached.evaluate_unchecked(best);
    let bottleneck_us = tracer.span("core.bottleneck", parent, |_| {
        per_call_us(9, || {
            black_box(ranked_bottlenecks(black_box(&est)));
        })
    });
    let finetune_us = tracer.span("core.finetune", parent, |_| {
        per_call_us(3, || {
            black_box(fine_tune(&cached, best.clone()));
        })
    });
    out.push(("core.generate_us_per_cand", gen_us));
    out.push(("core.bottleneck_us", bottleneck_us));
    out.push(("core.finetune_ms", finetune_us / 1e3));
    out.push((
        "core.finetune_evals",
        report.counter(Counter::FinetuneEvals) as f64,
    ));

    // Counters of the search itself.
    let c = |k: Counter| report.counter(k) as f64;
    let generated = c(Counter::CandidatesGenerated);
    let deduped = c(Counter::CandidatesDeduped);
    out.push(("core.candidates_generated", generated));
    out.push((
        "core.dedup_ratio",
        stats::ratio(deduped, generated + deduped),
    ));
    out.push((
        "core.accept_ratio",
        stats::ratio(c(Counter::CandidatesAccepted), generated),
    ));
    out.push(("core.backtracks", c(Counter::Backtracks)));
    out.push(("perf.evaluations", c(Counter::PerfEvaluations)));
    out.push((
        "perf.incr_hit_ratio",
        stats::ratio(c(Counter::PerfIncrementalHits), c(Counter::PerfEvaluations)),
    ));
    let terms = cost_terms(report, full_us, incr_us, hash_us, bottleneck_us);
    out.push((
        "perf.eval_share_est",
        stats::attributed_share(&terms[..2], cpu_s),
    ));
    out.push((
        "core.unattributed_share_est",
        stats::unattributed_share(&terms, cpu_s),
    ));

    // runtime: simulate the top-k plans.
    let sim_s = tracer.span("runtime.sim", parent, |_| -> Result<f64, String> {
        let t = Instant::now();
        for s in &result.top_configs {
            black_box(subject.simulate(&s.config)?);
        }
        Ok(t.elapsed().as_secs_f64())
    })?;
    out.push(("runtime.sim_ms", sim_s * 1e3));

    // store: save and load the profile database.
    let store_dir = work.join("layer-store");
    let store = Store::open(&store_dir, 1 << 30).map_err(|e| format!("store open: {e}"))?;
    let (mfp, cfp) = (
        aceso_serve::model_fingerprint(&subject.model),
        aceso_serve::cluster_fingerprint(&subject.cluster),
    );
    let mut save_err = None;
    let save_us = tracer.span("store.save", parent, |_| {
        per_call_us(5, || {
            if let Err(e) = store.save(mfp, cfp, &subject.db) {
                save_err = Some(e.to_string());
            }
        })
    });
    let mut load_ok = true;
    let load_us = tracer.span("store.load", parent, |_| {
        per_call_us(5, || {
            load_ok &= matches!(store.load(mfp, cfp), Ok(Some(_)));
        })
    });
    let _ = std::fs::remove_dir_all(&store_dir);
    if let Some(e) = save_err {
        return Err(format!("store save: {e}"));
    }
    if !load_ok {
        return Err("store load missed an entry it had just saved".into());
    }
    out.push(("store.save_ms", save_us / 1e3));
    out.push(("store.load_ms", load_us / 1e3));

    // checkpoint: encode the state of a search paused after one iteration.
    let search = AcesoSearch::new(
        &subject.model,
        &subject.cluster,
        &subject.db,
        subject.options.clone(),
    );
    let ckpt = match search.run_partial(true, 1).map_err(|e| e.to_string())? {
        SearchStep::Paused(ckpt) => ckpt,
        SearchStep::Done(..) => return Err("a one-iteration slice did not pause".into()),
    };
    let ckpt_us = tracer.span("checkpoint.encode", parent, |_| {
        per_call_us(3, || {
            black_box(ckpt.to_json_string());
        })
    });
    out.push(("checkpoint.encode_ms", ckpt_us / 1e3));

    // obs, wire: render one report, and frame it.
    let obs_us = tracer.span("obs.encode", parent, |_| {
        per_call_us(3, || {
            black_box(report.metrics_json());
            black_box(report.events_jsonl());
        })
    });
    out.push(("obs.encode_us", obs_us));
    // The frames a daemon streams for this report: one per event (the
    // first `WIRE_EVENTS`), then the metrics. Many small frames rather
    // than one large one, as on the serve path.
    let metrics = Value::parse(&report.metrics_json()).map_err(|e| e.to_string())?;
    let frames: Vec<Value> = report
        .events()
        .iter()
        .take(WIRE_EVENTS)
        .enumerate()
        .map(|(seq, e)| aceso_serve::event_frame(seq, e.to_json_value()))
        .chain(std::iter::once(obj([
            ("type", Value::Str("result".into())),
            ("metrics", metrics),
        ])))
        .collect();
    let mut bytes = Vec::new();
    for f in &frames {
        write_frame(&mut bytes, f).map_err(|e| e.to_string())?;
    }
    let kb = bytes.len() as f64 / 1024.0;
    let enc_us = tracer.span("wire.encode", parent, |_| {
        per_call_us(3, || {
            let mut buf = Vec::with_capacity(bytes.len());
            for f in &frames {
                let _ = write_frame(&mut buf, f);
            }
            black_box(buf);
        })
    });
    let mut decoded_ok = true;
    let dec_us = tracer.span("wire.decode", parent, |_| {
        per_call_us(3, || {
            let mut r = black_box(bytes.as_slice());
            for _ in 0..frames.len() {
                decoded_ok &= read_frame(&mut r).is_ok();
            }
        })
    });
    if !decoded_ok {
        return Err("a frame failed to decode".into());
    }
    out.push(("wire.encode_us_per_kb", enc_us / kb));
    out.push(("wire.decode_us_per_kb", dec_us / kb));
    Ok(out)
}

/// The `_est` terms: how often the search entered each timed layer (its
/// own counters) times the layer's per-call cost. The first two terms
/// are the evaluator's; dedup hashing is charged per produced candidate
/// (kept or deduplicated) and bottleneck ranking once per iteration and
/// per backtrack. Candidate generation has no term: its evaluations are
/// already counted by the evaluator's, so the rest of it (building
/// candidates, cloning configurations) stays in the residual together
/// with the reducer and finetune bookkeeping.
pub fn cost_terms(
    report: &ObsReport,
    full_us: f64,
    incr_us: f64,
    hash_us: f64,
    bottleneck_us: f64,
) -> [CostTerm; 4] {
    let c = |k: Counter| report.counter(k) as f64;
    [
        CostTerm {
            layer: "perf.full_eval",
            count: c(Counter::PerfFullEvals),
            us_per_call: full_us,
        },
        CostTerm {
            layer: "perf.incr_eval",
            count: c(Counter::PerfIncrementalHits),
            us_per_call: incr_us,
        },
        CostTerm {
            layer: "config.hash",
            count: c(Counter::CandidatesGenerated) + c(Counter::CandidatesDeduped),
            us_per_call: hash_us,
        },
        CostTerm {
            layer: "core.bottleneck",
            count: c(Counter::IterationsTotal) + c(Counter::Backtracks),
            us_per_call: bottleneck_us,
        },
    ]
}
