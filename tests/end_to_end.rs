//! End-to-end integration: search → validate → execute across crates.

use aceso::baselines::{AlpaError, AlpaOptions, AlpaSearch, MegatronOptions, MegatronSearch};
use aceso::config::validate::validate;
use aceso::model::zoo;
use aceso::prelude::*;
use aceso::search::SearchOptions;

fn small_gpt() -> ModelGraph {
    zoo::gpt3_custom("e2e-gpt", 4, 512, 8, 256, 8192, 64)
}

fn quick_opts() -> SearchOptions {
    SearchOptions {
        max_iterations: 16,
        ..SearchOptions::default()
    }
}

#[test]
fn search_then_execute_gpt() {
    let model = small_gpt();
    let cluster = ClusterSpec::v100(1, 4);
    let db = ProfileDb::build(&model, &cluster);
    let result = AcesoSearch::new(&model, &cluster, &db, quick_opts())
        .run()
        .expect("search succeeds");
    assert!(validate(&result.best_config, &model, &cluster).is_ok());
    let report = Simulator::with_defaults(&model, &cluster, &db)
        .execute(&result.best_config)
        .expect("executes");
    assert!(report.ok(), "best config must fit in memory");
    assert!(report.throughput > 0.0);
}

#[test]
fn search_then_execute_wide_resnet() {
    let model = zoo::wide_resnet_custom("e2e-wrn", &[1, 1, 1, 1], 1, 64);
    let cluster = ClusterSpec::v100(1, 4);
    let db = ProfileDb::build(&model, &cluster);
    let result = AcesoSearch::new(&model, &cluster, &db, quick_opts())
        .run()
        .expect("search succeeds");
    let report = Simulator::with_defaults(&model, &cluster, &db)
        .execute(&result.best_config)
        .expect("executes");
    assert!(report.iteration_time > 0.0);
}

#[test]
fn search_then_execute_t5() {
    let model = zoo::t5_custom("e2e-t5", 2, 2, 512, 8, 64);
    let cluster = ClusterSpec::v100(1, 4);
    let db = ProfileDb::build(&model, &cluster);
    let result = AcesoSearch::new(&model, &cluster, &db, quick_opts())
        .run()
        .expect("search succeeds");
    let report = Simulator::with_defaults(&model, &cluster, &db)
        .execute(&result.best_config)
        .expect("executes");
    assert!(report.iteration_time > 0.0);
}

#[test]
fn all_top_k_configs_are_executable() {
    let model = small_gpt();
    let cluster = ClusterSpec::v100(1, 4);
    let db = ProfileDb::build(&model, &cluster);
    let result = AcesoSearch::new(&model, &cluster, &db, quick_opts())
        .run()
        .expect("search succeeds");
    assert!(!result.top_configs.is_empty());
    let sim = Simulator::with_defaults(&model, &cluster, &db);
    for sc in &result.top_configs {
        assert!(validate(&sc.config, &model, &cluster).is_ok());
        sim.execute(&sc.config).expect("top-k config executes");
    }
}

#[test]
fn aceso_at_least_matches_baselines() {
    let model = small_gpt();
    let cluster = ClusterSpec::v100(1, 4);
    let db = ProfileDb::build(&model, &cluster);
    let aceso = AcesoSearch::new(&model, &cluster, &db, quick_opts())
        .run()
        .expect("aceso succeeds");
    let meg = MegatronSearch::new(&model, &cluster, &db, MegatronOptions::default())
        .run()
        .expect("megatron succeeds");
    let alpa = AlpaSearch::new(
        &model,
        &cluster,
        &db,
        AlpaOptions {
            layer_group_counts: vec![2, 4],
            max_microbatch: 64,
            ..AlpaOptions::default()
        },
    )
    .run()
    .expect("alpa succeeds");
    // Baselines search sub-spaces of Aceso's space; Aceso must not lose
    // (small slack for the fine-tuning greedy order).
    let best_aceso = aceso.top_configs[0].score;
    assert!(
        best_aceso <= meg.score * 1.02,
        "aceso {best_aceso} vs megatron {}",
        meg.score
    );
    assert!(
        best_aceso <= alpa.score * 1.02,
        "aceso {best_aceso} vs alpa {}",
        alpa.score
    );
}

#[test]
fn alpa_compile_failure_on_deep_models() {
    let model = zoo::deepnet(128);
    let cluster = ClusterSpec::v100(1, 4);
    let db = ProfileDb::build(&model, &cluster);
    let r = AlpaSearch::new(&model, &cluster, &db, AlpaOptions::default()).run();
    assert!(matches!(r, Err(AlpaError::CompileFailure { layers: 128 })));
}

#[test]
fn deep_model_search_succeeds_where_alpa_fails() {
    // Exp#3's point: Aceso scales past Alpa's failure depth.
    let model = zoo::gpt3_custom("deep", 96, 256, 4, 128, 8192, 32);
    let cluster = ClusterSpec::v100(1, 4);
    let db = ProfileDb::build(&model, &cluster);
    let result = AcesoSearch::new(
        &model,
        &cluster,
        &db,
        SearchOptions {
            max_iterations: 6,
            stage_counts: Some(vec![4]),
            ..SearchOptions::default()
        },
    )
    .run()
    .expect("aceso handles deep models");
    assert!(!result.best_oom);
}

#[test]
fn profile_db_reuse_gives_identical_search() {
    let model = small_gpt();
    let cluster = ClusterSpec::v100(1, 4);
    let db1 = ProfileDb::build(&model, &cluster);
    let json = db1.to_json();
    let db2 = ProfileDb::from_json(&json).expect("roundtrip");
    let a = AcesoSearch::new(&model, &cluster, &db1, quick_opts())
        .run()
        .expect("a");
    let b = AcesoSearch::new(&model, &cluster, &db2, quick_opts())
        .run()
        .expect("b");
    assert_eq!(a.best_config.semantic_hash(), b.best_config.semantic_hash());
}

#[test]
fn prediction_tracks_execution_across_configs() {
    // Perf-model ordering should mostly agree with simulated execution —
    // the property the whole search relies on.
    let model = zoo::gpt3_custom("rank", 6, 1024, 16, 512, 16000, 64);
    let cluster = ClusterSpec::v100(1, 4);
    let db = ProfileDb::build(&model, &cluster);
    let pm = PerfModel::new(&model, &cluster, &db);
    let sim = Simulator::with_defaults(&model, &cluster, &db);
    let mut pairs = Vec::new();
    for p in 1..=4usize {
        let cfg = aceso::config::balanced_init(&model, &cluster, p).expect("init");
        let est = pm.evaluate_unchecked(&cfg);
        if est.oom() {
            continue;
        }
        let run = sim.execute(&cfg).expect("runs");
        pairs.push((est.iteration_time, run.iteration_time));
    }
    assert!(pairs.len() >= 2);
    for w in pairs.windows(2) {
        let pred_order = w[0].0 < w[1].0;
        let real_order = w[0].1 < w[1].1;
        // Allow disagreement only when the two are within 10%.
        if (w[0].1 - w[1].1).abs() / w[0].1 > 0.10 {
            assert_eq!(pred_order, real_order, "ordering disagreement: {pairs:?}");
        }
    }
}
