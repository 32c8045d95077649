//! Micro-benchmarks of the performance model — the search's inner loop.
//! The paper's search evaluates hundreds of thousands of configurations in
//! its 200 s budget, so evaluation must stay in the tens-of-microseconds
//! range.
//!
//! Plain `harness = false` binaries: each case is warmed up, then timed
//! over a fixed iteration count, reporting mean ns/iter.

use aceso_cluster::ClusterSpec;
use aceso_config::balanced_init;
use aceso_perf::PerfModel;
use aceso_profile::ProfileDb;
use std::hint::black_box;
use std::time::Instant;

fn bench<R>(name: &str, iters: u32, mut f: impl FnMut() -> R) {
    for _ in 0..iters.div_ceil(10) {
        black_box(f());
    }
    let start = Instant::now();
    for _ in 0..iters {
        black_box(f());
    }
    let per_iter = start.elapsed().as_nanos() / u128::from(iters.max(1));
    println!("{name:<40} {per_iter:>12} ns/iter ({iters} iters)");
}

fn main() {
    for (label, model, gpus) in [
        (
            "evaluate/gpt3-small-68ops",
            aceso_model::zoo::gpt3_custom("b1", 8, 1024, 16, 1024, 32000, 128),
            4usize,
        ),
        (
            "evaluate/gpt3-13b-324ops",
            aceso_model::zoo::gpt3(aceso_model::zoo::Gpt3Size::S13b),
            32,
        ),
        (
            "evaluate/deepnet-256l-2052ops",
            aceso_model::zoo::deepnet(256),
            8,
        ),
    ] {
        let cluster = ClusterSpec::v100_gpus(gpus);
        let db = ProfileDb::build(&model, &cluster);
        let pm = PerfModel::new(&model, &cluster, &db);
        let cfg = balanced_init(&model, &cluster, gpus.min(4)).expect("init");
        bench(label, 200, || pm.evaluate_unchecked(black_box(&cfg)));
    }

    let model = aceso_model::zoo::gpt3(aceso_model::zoo::Gpt3Size::S13b);
    let cluster = ClusterSpec::v100_gpus(32);
    let cfg = balanced_init(&model, &cluster, 8).expect("init");
    bench("semantic_hash_324ops", 10_000, || {
        black_box(&cfg).semantic_hash()
    });

    // The search-deep workload's model: per-candidate hashing cost grows
    // with its 2,052 ops. Flagging every 25th op for recompute gives about
    // 160 settings runs, the shape of a configuration deep into a search.
    let model = aceso_model::zoo::deepnet(256);
    let cluster = ClusterSpec::v100_gpus(8);
    let mut cfg = balanced_init(&model, &cluster, 4).expect("init");
    for op in cfg
        .stages
        .iter_mut()
        .flat_map(|s| s.ops.iter_mut().step_by(25))
    {
        op.recompute = true;
    }
    bench("semantic_hash_2052ops", 10_000, || {
        black_box(&cfg).semantic_hash()
    });
}
