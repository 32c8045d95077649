//! Property-style tests on the core invariants.
//!
//! Each test sweeps a seeded `SplitMix64` over randomised cases, so the
//! coverage is property-shaped but fully deterministic and dependency-free.

use aceso::cluster::{collective, ClusterSpec, Collective, CommGroup};
use aceso::config::init::split_gpus_pow2;
use aceso::config::validate::validate;
use aceso::config::{balanced_init, ParallelConfig};
use aceso::model::zoo;
use aceso::model::ModelGraph;
use aceso::perf::PerfModel;
use aceso::profile::ProfileDb;
use aceso::runtime::one_f_one_b;
use aceso::search::AcesoSearch;
use aceso::search::SearchOptions;
use aceso::util::SplitMix64;

fn test_model() -> ModelGraph {
    zoo::gpt3_custom("prop-gpt", 4, 512, 8, 256, 8192, 64)
}

#[test]
fn pow2_split_invariants() {
    let mut rng = SplitMix64::new(0xACE5_0001);
    for _ in 0..64 {
        let total = 1usize << rng.next_below(6);
        let p = 1 + rng.next_below(8);
        match split_gpus_pow2(total, p) {
            Some(parts) => {
                assert_eq!(parts.len(), p);
                assert_eq!(parts.iter().sum::<usize>(), total);
                assert!(parts.iter().all(|x| x.is_power_of_two()));
                // Near-even: largest ≤ 8 × smallest for these ranges.
                let max = parts.iter().max().expect("non-empty");
                let min = parts.iter().min().expect("non-empty");
                assert!(max / min <= 8);
            }
            None => assert!(p > total),
        }
    }
}

#[test]
fn collective_monotone_in_bytes() {
    let c = ClusterSpec::v100(4, 8);
    let g = CommGroup::contiguous(0, 8);
    let mut rng = SplitMix64::new(0xACE5_0002);
    for _ in 0..64 {
        let b1 = 1 + rng.next_u64() % 1_000_000;
        let b2 = 1 + rng.next_u64() % 1_000_000;
        let (lo, hi) = if b1 < b2 { (b1, b2) } else { (b2, b1) };
        let t_lo = collective::collective_time(&c, Collective::AllReduce, lo, &g);
        let t_hi = collective::collective_time(&c, Collective::AllReduce, hi, &g);
        assert!(t_lo <= t_hi);
    }
}

#[test]
fn collective_never_negative() {
    let c = ClusterSpec::v100(4, 8);
    let mut rng = SplitMix64::new(0xACE5_0003);
    for _ in 0..64 {
        let bytes = rng.next_u64() % (u64::MAX / 4);
        let size = rng.next_below(33).min(16);
        let stride = 1 + rng.next_below(8);
        let g = CommGroup::strided(0, size, stride);
        for kind in [
            Collective::AllReduce,
            Collective::AllGather,
            Collective::ReduceScatter,
        ] {
            let t = collective::collective_time(&c, kind, bytes, &g);
            assert!(t >= 0.0 && t.is_finite());
        }
    }
}

#[test]
fn one_f_one_b_is_valid_schedule() {
    let mut rng = SplitMix64::new(0xACE5_0004);
    for _ in 0..64 {
        let i = rng.next_below(8);
        let p = i + 1 + rng.next_below(8); // ensure i < p
        let n = 1 + rng.next_below(32);
        let order = one_f_one_b(i, p, n);
        assert_eq!(order.len(), 2 * n);
        let mut seen_fwd = vec![false; n];
        let mut in_flight = 0i64;
        let mut peak = 0i64;
        for t in &order {
            match t {
                aceso::runtime::Task::Fwd(mb) => {
                    assert!(!seen_fwd[*mb]);
                    seen_fwd[*mb] = true;
                    in_flight += 1;
                }
                aceso::runtime::Task::Bwd(mb) => {
                    assert!(seen_fwd[*mb], "bwd before fwd");
                    in_flight -= 1;
                }
            }
            peak = peak.max(in_flight);
        }
        assert_eq!(in_flight, 0);
        // Eq. 1's in-flight bound: stage i holds at most min(p-i, n).
        assert!(peak as usize <= (p - i).min(n));
    }
}

#[test]
fn balanced_init_always_validates() {
    let model = test_model();
    for gpus_exp in 0usize..4 {
        let gpus = 1usize << gpus_exp;
        let cluster = ClusterSpec::v100(1, gpus);
        for p in 1usize..5 {
            if p <= gpus {
                let cfg = balanced_init(&model, &cluster, p).expect("init exists");
                assert!(validate(&cfg, &model, &cluster).is_ok());
            }
        }
    }
}

// Applies a random sequence of raw transforms and checks that every
// intermediate configuration stays valid — the semantic-preservation
// property of the reconfiguration primitives.
#[test]
fn transform_sequences_preserve_validity() {
    use aceso::search::transform::{self, Mechanism};
    let model = test_model();
    let cluster = ClusterSpec::v100(1, 8);
    let mut rng = SplitMix64::new(0xACE5_0005);
    for _ in 0..32 {
        let mut cfg = balanced_init(&model, &cluster, 4).expect("init");
        let steps = 1 + rng.next_below(11);
        for _ in 0..steps {
            let op = rng.next_below(6) as u8;
            let stage = rng.next_below(cfg.num_stages());
            let next: Option<ParallelConfig> = match op {
                0 => transform::move_ops(
                    &model,
                    &cfg,
                    stage,
                    stage.saturating_sub(1).min(cfg.num_stages() - 1),
                    1 + rng.next_below(3),
                ),
                1 => transform::move_ops(
                    &model,
                    &cfg,
                    stage,
                    (stage + 1).min(cfg.num_stages() - 1),
                    1 + rng.next_below(3),
                ),
                2 => transform::convert_stage(&model, &cfg, stage, Mechanism::Tp),
                3 => transform::convert_stage(&model, &cfg, stage, Mechanism::Dp),
                4 => transform::scale_microbatch(&model, &cfg, rng.next_below(2) == 0),
                _ => transform::recompute_largest(&model, &cfg, stage, 1 + rng.next_below(4)),
            };
            if let Some(next) = next {
                assert!(
                    validate(&next, &model, &cluster).is_ok(),
                    "transform {op} broke validity"
                );
                cfg = next;
            }
        }
    }
}

#[test]
fn perf_model_invariants() {
    let model = test_model();
    let cluster = ClusterSpec::v100(1, 8);
    let db = ProfileDb::build(&model, &cluster);
    let pm = PerfModel::new(&model, &cluster, &db);
    for p in 1usize..5 {
        for mbs_exp in 0usize..4 {
            let mut cfg = balanced_init(&model, &cluster, p).expect("init");
            let mbs = cfg.microbatch * (1 << mbs_exp);
            if model.global_batch.is_multiple_of(mbs) {
                cfg.microbatch = mbs;
            }
            let est = pm.evaluate(&cfg).expect("valid");
            // Memory components always sum to the total.
            for s in &est.stages {
                assert_eq!(
                    s.mem_total,
                    s.mem_params
                        + s.mem_opt
                        + s.mem_act_per_mb * s.in_flight as u64
                        + s.mem_reserved
                );
                assert!(s.comp_fwd > 0.0);
                assert!(s.comp_bwd >= 2.0 * s.comp_fwd);
            }
            // Iteration time is the max stage time.
            let max = est
                .stages
                .iter()
                .map(|s| s.stage_time + s.dp_sync)
                .fold(0.0f64, f64::max);
            assert!((est.iteration_time - max).abs() < 1e-9);
            // Recomputing everything reduces activation memory, grows bwd time.
            let mut rc = cfg.clone();
            for s in &mut rc.stages {
                for o in &mut s.ops {
                    o.recompute = true;
                }
            }
            let est_rc = pm.evaluate(&rc).expect("valid");
            for (a, b) in est.stages.iter().zip(&est_rc.stages) {
                assert!(b.mem_act_per_mb <= a.mem_act_per_mb);
                assert!(b.comp_bwd >= a.comp_bwd);
            }
        }
    }
}

#[test]
fn semantic_hashes_distinguish_mutations() {
    // Any single-field mutation of a valid configuration must change
    // its semantic hash (the dedup set must not conflate configs).
    let model = test_model();
    let cluster = ClusterSpec::v100(1, 8);
    let base = balanced_init(&model, &cluster, 2).expect("init");
    let h0 = base.semantic_hash();
    let mut rng = SplitMix64::new(0xACE5_0006);
    for _ in 0..200 {
        let mut cfg = base.clone();
        let stage = rng.next_below(2);
        let op = rng.next_below(cfg.stages[stage].ops.len());
        match rng.next_below(3) {
            0 => cfg.stages[stage].ops[op].recompute = !cfg.stages[stage].ops[op].recompute,
            1 => cfg.stages[stage].ops[op].zero = !cfg.stages[stage].ops[op].zero,
            _ => cfg.microbatch *= 2,
        }
        assert_ne!(cfg.semantic_hash(), h0);
    }
}

#[test]
fn search_never_returns_worse_than_init() {
    let model = test_model();
    let cluster = ClusterSpec::v100(1, 4);
    let db = ProfileDb::build(&model, &cluster);
    let pm = PerfModel::new(&model, &cluster, &db);
    let init = balanced_init(&model, &cluster, 2).expect("init");
    let init_score = pm.evaluate_unchecked(&init).score();
    for seed in 0u64..6 {
        let r = AcesoSearch::new(
            &model,
            &cluster,
            &db,
            SearchOptions {
                max_iterations: 4,
                stage_counts: Some(vec![2]),
                use_heuristic2: seed % 2 == 0,
                seed,
                ..SearchOptions::default()
            },
        )
        .run()
        .expect("search runs");
        assert!(r.top_configs[0].score <= init_score + 1e-9);
    }
}
