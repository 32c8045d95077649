//! Integration tests for the beyond-the-paper extensions: ZeRO-1
//! primitives, execution-plan export, tracing timelines, GPipe schedule,
//! parallel profiling.

use aceso::config::balanced_init;
use aceso::model::zoo;
use aceso::prelude::*;
use aceso::runtime::{to_chrome_trace, ExecutionPlan, PipelineSchedule, SimOptions};
use aceso::search::SearchOptions;

#[test]
fn zero_extension_helps_memory_tight_search() {
    // A model whose optimiser states dominate memory on few devices: ZeRO
    // sharding should let the extended search match or beat Table-1-only.
    let model = zoo::gpt3_custom("zx", 12, 2048, 32, 512, 16000, 64);
    let cluster = ClusterSpec::v100(1, 4);
    let db = ProfileDb::build(&model, &cluster);
    let base = SearchOptions {
        max_iterations: 12,
        stage_counts: Some(vec![2]),
        ..SearchOptions::default()
    };
    let plain = AcesoSearch::new(&model, &cluster, &db, base.clone())
        .run()
        .expect("plain search");
    let mut zopts = base;
    zopts.gen_options.enable_zero = true;
    let zero = AcesoSearch::new(&model, &cluster, &db, zopts)
        .run()
        .expect("zero search");
    assert!(
        zero.top_configs[0].score <= plain.top_configs[0].score * 1.01,
        "zero {} vs plain {}",
        zero.top_configs[0].score,
        plain.top_configs[0].score
    );
}

#[test]
fn zero_configs_execute_on_the_simulator() {
    let model = zoo::gpt3_custom("zx2", 4, 512, 8, 256, 8192, 64);
    let cluster = ClusterSpec::v100(1, 4);
    let db = ProfileDb::build(&model, &cluster);
    let mut cfg = balanced_init(&model, &cluster, 2).expect("init");
    for s in &mut cfg.stages {
        for o in &mut s.ops {
            if o.dp > 1 {
                o.zero = true;
            }
        }
    }
    let report = Simulator::with_defaults(&model, &cluster, &db)
        .execute(&cfg)
        .expect("zero config executes");
    assert!(report.iteration_time > 0.0);
}

#[test]
fn plan_and_timeline_roundtrip_for_searched_config() {
    let model = zoo::gpt3_custom("px", 4, 512, 8, 256, 8192, 64);
    let cluster = ClusterSpec::v100(1, 4);
    let db = ProfileDb::build(&model, &cluster);
    let result = AcesoSearch::new(
        &model,
        &cluster,
        &db,
        SearchOptions {
            max_iterations: 8,
            stage_counts: Some(vec![2]),
            ..SearchOptions::default()
        },
    )
    .run()
    .expect("search");
    let plan = ExecutionPlan::build(&model, &cluster, &result.best_config).expect("plan");
    assert_eq!(plan.ranks.len(), 4);
    let back = ExecutionPlan::from_json(&plan.to_json()).expect("roundtrip");
    assert_eq!(plan, back);

    let sim = Simulator::with_defaults(&model, &cluster, &db);
    let (report, events) = sim.execute_traced(&result.best_config).expect("traced run");
    // Two tasks per microbatch per stage.
    let n = result
        .best_config
        .num_microbatches(model.global_batch)
        .max(1);
    assert_eq!(events.len(), 2 * n * result.best_config.num_stages());
    // Events never overlap within a stage and end by the iteration end.
    for stage in 0..result.best_config.num_stages() {
        let mut last_end = 0.0f64;
        for e in events.iter().filter(|e| e.stage == stage) {
            assert!(e.start >= last_end - 1e-12, "overlap in stage {stage}");
            last_end = e.start + e.duration;
        }
        assert!(last_end <= report.iteration_time + 1e-9);
    }
    let json = to_chrome_trace(&events);
    assert!(json.starts_with('['));
}

#[test]
fn gpipe_vs_1f1b_memory_crossover() {
    // The scheduling ablation: same config, GPipe stashes all microbatches
    // while 1F1B bounds them by pipeline depth.
    let model = zoo::gpt3_custom("gx", 4, 512, 8, 256, 8192, 64);
    let cluster = ClusterSpec::v100(1, 4);
    let db = ProfileDb::build(&model, &cluster);
    let cfg = balanced_init(&model, &cluster, 2).expect("init");
    let n = cfg.num_microbatches(model.global_batch) as u64;
    assert!(n > 2, "test needs more microbatches than stages");
    let f1b = Simulator::with_defaults(&model, &cluster, &db)
        .execute(&cfg)
        .expect("1f1b");
    let gp = Simulator::new(
        &model,
        &cluster,
        &db,
        SimOptions {
            schedule: PipelineSchedule::GPipe,
            ..SimOptions::default()
        },
    )
    .execute(&cfg)
    .expect("gpipe");
    assert!(gp.peak_memory > f1b.peak_memory);
}

#[test]
fn parallel_profiling_supports_search_identically() {
    let model = zoo::gpt3_custom("ppx", 4, 512, 8, 256, 8192, 64);
    let cluster = ClusterSpec::v100(1, 4);
    let serial = ProfileDb::build(&model, &cluster);
    let parallel = ProfileDb::build_parallel(&model, &cluster, 4);
    let opts = SearchOptions {
        max_iterations: 8,
        stage_counts: Some(vec![2]),
        ..SearchOptions::default()
    };
    let a = AcesoSearch::new(&model, &cluster, &serial, opts.clone())
        .run()
        .expect("serial-profiled search");
    let b = AcesoSearch::new(&model, &cluster, &parallel, opts)
        .run()
        .expect("parallel-profiled search");
    assert_eq!(a.best_config.semantic_hash(), b.best_config.semantic_hash());
}
