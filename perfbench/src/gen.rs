//! Seeded request sequence of the `serve-mix` workload.
//!
//! The sequence is stratified so every seed yields the same mix: each
//! block of [`BLOCK`] requests holds exactly [`WARM_PER_KEY`] requests
//! of every warm key, [`COLD_PER_BLOCK`] cold requests and one spooled
//! request of every spooled key. The seed shuffles each block and picks
//! where the cold keys' sweep over [`COLD_LAYERS`] starts.

use aceso_serve::Request;
use aceso_util::SplitMix64;

/// Warm requests per warm key in a block.
pub const WARM_PER_KEY: usize = 9;
/// Cold requests per block: fresh `deepnet-<N>l` keys that miss the
/// profile cache and the store, so builds and store writes recur.
pub const COLD_PER_BLOCK: usize = 2;
/// Requests per stratification block.
pub const BLOCK: usize = WARM_PER_KEY * WARM_KEYS.len() + COLD_PER_BLOCK + SPOOLED_KEYS.len();

/// Iteration budget of warm and cold requests.
pub const SMALL_ITERATIONS: usize = 4;
/// Iteration budget of spooled requests: past the daemon's default
/// checkpoint interval of 8, so each writes one checkpoint.
pub const SPOOLED_ITERATIONS: usize = 10;

/// The warm keys (model, GPUs, pinned stages). They are pre-submitted
/// during set-up, so their profiles are resident when timing starts.
pub const WARM_KEYS: [(&str, usize, usize); 5] = [
    ("gpt3-0.35b", 8, 2),
    ("gpt3-0.35b", 8, 4),
    ("gpt3-1.3b", 8, 4),
    ("t5-0.77b", 8, 4),
    ("wresnet-0.5b", 8, 2),
];

/// Keys of the spooled requests (model, GPUs, pinned stages); each
/// carries a fresh `request_id` on a spool-enabled daemon.
pub const SPOOLED_KEYS: [(&str, usize, usize); 2] = [("wresnet-0.5b", 8, 2), ("deepnet-16l", 8, 2)];

/// Depths of the cold `deepnet-<N>l` keys; each pairs with every entry
/// of [`COLD_GPUS`]. The 192 keys outlast a run, so cold keys stay fresh.
pub const COLD_LAYERS: std::ops::Range<usize> = 16..112;
/// GPU counts of the cold keys.
pub const COLD_GPUS: [usize; 2] = [4, 8];
/// Pinned stage count of the cold keys.
pub const COLD_STAGES: usize = 2;
/// Stride of the sweep over the cold keys. Odd, so coprime with the key
/// count: consecutive cold requests visit every key once, spread evenly
/// over the depths whatever the starting point.
const COLD_STRIDE: usize = 83;

/// What a generated request exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Resident profile, small search.
    Warm,
    /// Fresh key: profile build, store write.
    Cold,
    /// Fresh request id: checkpoint spool write.
    Spooled,
}

/// One position of a block.
#[derive(Debug, Clone, Copy)]
enum Slot {
    Warm(usize),
    Cold,
    Spooled(usize),
}

/// Builds the request for a key.
pub fn request(model: &str, gpus: usize, stages: usize, iterations: usize) -> Request {
    Request {
        model: model.to_string(),
        gpus,
        stages: Some(stages),
        max_iterations: iterations,
        ..Request::default()
    }
}

/// An endless, seeded request stream.
pub struct MixGen {
    rng: SplitMix64,
    block: Vec<Slot>,
    cold_start: usize,
    issued: usize,
    cold_issued: usize,
}

impl MixGen {
    /// The stream for `seed`.
    pub fn new(seed: u64) -> Self {
        let mut rng = SplitMix64::new(seed ^ 0x5E7F_E0A1_D00D_F00D);
        let cold_start = rng.next_below(COLD_LAYERS.len() * COLD_GPUS.len());
        Self {
            rng,
            block: Vec::new(),
            cold_start,
            issued: 0,
            cold_issued: 0,
        }
    }

    fn refill(&mut self) {
        let mut block = Vec::with_capacity(BLOCK);
        for key in 0..WARM_KEYS.len() {
            block.extend(std::iter::repeat_n(Slot::Warm(key), WARM_PER_KEY));
        }
        block.extend(std::iter::repeat_n(Slot::Cold, COLD_PER_BLOCK));
        block.extend((0..SPOOLED_KEYS.len()).map(Slot::Spooled));
        self.rng.shuffle(&mut block);
        // Popped from the back.
        block.reverse();
        self.block = block;
    }

    /// The next cold key (depth, GPUs). Past all the keys they repeat;
    /// a run does not get there.
    fn next_cold(&mut self) -> (usize, usize) {
        let depths = COLD_LAYERS.len();
        let j = (self.cold_start + self.cold_issued * COLD_STRIDE) % (depths * COLD_GPUS.len());
        self.cold_issued += 1;
        (COLD_LAYERS.start + j % depths, COLD_GPUS[j / depths])
    }
}

impl Iterator for MixGen {
    type Item = (Kind, Request);

    fn next(&mut self) -> Option<(Kind, Request)> {
        if self.block.is_empty() {
            self.refill();
        }
        let slot = self.block.pop().expect("refilled block is non-empty");
        let item = match slot {
            Slot::Warm(key) => {
                let (m, g, s) = WARM_KEYS[key];
                (Kind::Warm, request(m, g, s, SMALL_ITERATIONS))
            }
            Slot::Cold => {
                let (layers, gpus) = self.next_cold();
                let model = format!("deepnet-{layers}l");
                (
                    Kind::Cold,
                    request(&model, gpus, COLD_STAGES, SMALL_ITERATIONS),
                )
            }
            Slot::Spooled(key) => {
                let (m, g, s) = SPOOLED_KEYS[key];
                let req = Request {
                    request_id: Some(format!("mix-{}", self.issued)),
                    ..request(m, g, s, SPOOLED_ITERATIONS)
                };
                (Kind::Spooled, req)
            }
        };
        self.issued += 1;
        Some(item)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_sequence() {
        let a: Vec<_> = MixGen::new(7).take(500).collect();
        let b: Vec<_> = MixGen::new(7).take(500).collect();
        assert_eq!(a, b);
        let c: Vec<_> = MixGen::new(8).take(500).collect();
        assert_ne!(a, c, "another seed reorders the mix");
    }

    #[test]
    fn every_block_has_the_fixed_composition() {
        for seed in [1, 2, 99] {
            let reqs: Vec<_> = MixGen::new(seed).take(BLOCK * 4).collect();
            for block in reqs.chunks(BLOCK) {
                let count = |k| block.iter().filter(|(kind, _)| *kind == k).count();
                assert_eq!(count(Kind::Cold), COLD_PER_BLOCK);
                assert_eq!(count(Kind::Spooled), SPOOLED_KEYS.len());
                for &(m, g, s) in &WARM_KEYS {
                    let n = block
                        .iter()
                        .filter(|(k, r)| {
                            *k == Kind::Warm && r.model == m && r.gpus == g && r.stages == Some(s)
                        })
                        .count();
                    assert_eq!(n, WARM_PER_KEY, "{m}/{g}/{s}");
                }
            }
        }
    }

    #[test]
    fn cold_keys_are_fresh_and_spool_ids_unique() {
        let keys = COLD_LAYERS.len() * COLD_GPUS.len();
        let reqs: Vec<_> = MixGen::new(3).take(BLOCK * keys / COLD_PER_BLOCK).collect();
        let cold: Vec<_> = reqs
            .iter()
            .filter(|(k, _)| *k == Kind::Cold)
            .map(|(_, r)| (r.model.clone(), r.gpus))
            .collect();
        assert_eq!(cold.len(), keys);
        let mut uniq = cold.clone();
        uniq.sort();
        uniq.dedup();
        assert_eq!(uniq.len(), keys, "every cold key once before any repeats");
        let ids: Vec<_> = reqs
            .iter()
            .filter_map(|(_, r)| r.request_id.clone())
            .collect();
        let mut uniq_ids = ids.clone();
        uniq_ids.sort();
        uniq_ids.dedup();
        assert_eq!(uniq_ids.len(), ids.len());
        for (kind, r) in &reqs {
            assert_eq!(r.request_id.is_some(), *kind == Kind::Spooled);
        }
    }

    #[test]
    fn cold_depths_spread_evenly_whatever_the_seed() {
        // Any 60 consecutive cold keys (half a run's worth) cover the
        // depth range evenly: each quarter gets 15 ± 3.
        for seed in [1, 7, 1234] {
            let mut gen = MixGen::new(seed);
            let depths: Vec<usize> = (0..60).map(|_| gen.next_cold().0).collect();
            let quarter = COLD_LAYERS.len() / 4;
            for q in 0..4 {
                let lo = COLD_LAYERS.start + q * quarter;
                let n = depths
                    .iter()
                    .filter(|&&d| (lo..lo + quarter).contains(&d))
                    .count();
                assert!((12..=18).contains(&n), "seed {seed} quarter {q}: {n}");
            }
        }
    }
}
