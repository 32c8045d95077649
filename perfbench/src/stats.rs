//! Summary statistics and the arithmetic behind the derived metrics.
//!
//! Everything here is pure so the unit tests can pin the rules the
//! benchmark reports by: the tail-percentile rule, the per-stage
//! explored-sum check and the `_est` cost attribution.

/// Median of `xs` (mean of the two middle values for an even count).
/// Returns `NaN` for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Ratio that reads 0 rather than NaN on an empty base.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Percentiles tried by [`tail`], highest first.
pub const TAIL_LADDER: [f64; 7] = [99.9, 99.5, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// A tail percentile together with the evidence behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile reported (e.g. `99.0`); `100.0` means the maximum.
    pub pct: f64,
    /// The sample at that percentile.
    pub value: f64,
    /// How many samples lie strictly beyond it in rank.
    pub beyond: usize,
    /// Sample count.
    pub samples: usize,
}

/// Nearest-rank percentile: the sample at rank `ceil(pct/100 * n)`
/// (1-based) of the sorted samples, plus how many samples rank above it.
fn percentile(sorted: &[f64], pct: f64) -> (f64, usize) {
    let n = sorted.len();
    // The epsilon keeps float noise (99.9 / 100 * 10000 = 9990.000…02)
    // from pushing an exact rank up by one.
    let rank = (pct * n as f64 / 100.0 - 1e-9).ceil().clamp(1.0, n as f64) as usize;
    (sorted[rank - 1], n - rank)
}

/// The highest percentile of [`TAIL_LADDER`] that has at least
/// [`TAIL_MIN_BEYOND`] samples beyond it. With too few samples for any
/// rung the maximum is reported as percentile 100 (zero beyond), so a
/// caller can always see how thin the evidence is. `None` when empty.
pub fn tail(xs: &[f64]) -> Option<Tail> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    for &pct in &TAIL_LADDER {
        let (value, beyond) = percentile(&v, pct);
        if beyond >= TAIL_MIN_BEYOND {
            return Some(Tail {
                pct,
                value,
                beyond,
                samples: v.len(),
            });
        }
    }
    Some(Tail {
        pct: 100.0,
        value: v[v.len() - 1],
        beyond: 0,
        samples: v.len(),
    })
}

/// Checks that per-stage-count `explored` figures add up to the search
/// total — the serial per-stage re-runs must do exactly the work of the
/// parallel search, or the scheduler comparison is meaningless.
pub fn check_stage_sum(per_stage: &[(usize, usize)], total: usize) -> Result<(), String> {
    let sum: usize = per_stage.iter().map(|&(_, e)| e).sum();
    if sum == total {
        Ok(())
    } else {
        Err(format!(
            "per-stage explored sums to {sum} ({per_stage:?}) but the search explored {total}"
        ))
    }
}

/// Scheduler efficiency: the serial sum of the stage-count sub-searches
/// over the wall time the parallel search had on the cores it could use.
/// 1.0 means the stage-count threads kept `min(nproc, stages)` cores
/// busy with no overhead.
pub fn sched_efficiency(stage_sum_s: f64, search_s: f64, nproc: usize, stages: usize) -> f64 {
    stage_sum_s / (search_s * nproc.min(stages).max(1) as f64)
}

/// One term of an `_est` figure: how often a layer was entered during a
/// search (a program counter) times what one call costs (timed from
/// outside).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostTerm {
    /// Layer the term charges.
    pub layer: &'static str,
    /// Calls made during the search.
    pub count: f64,
    /// Cost of one call, microseconds.
    pub us_per_call: f64,
}

impl CostTerm {
    /// The term's total, microseconds.
    pub fn us(&self) -> f64 {
        self.count * self.us_per_call
    }
}

/// Share of `cpu_s` seconds of CPU time that `terms` account for.
pub fn attributed_share(terms: &[CostTerm], cpu_s: f64) -> f64 {
    let us: f64 = terms.iter().map(CostTerm::us).sum();
    us / (cpu_s * 1e6)
}

/// `1 − Σ(count × per-call cost) / CPU time`: the share of the search's
/// CPU time that no timed layer accounts for. Negative when per-call
/// costs timed outside the search exceed what the calls cost inside it.
pub fn unattributed_share(terms: &[CostTerm], cpu_s: f64) -> f64 {
    1.0 - attributed_share(terms, cpu_s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn tail_picks_highest_percentile_with_ten_beyond() {
        // 1000 samples: p99 is rank 990, leaving exactly 10 beyond.
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&xs).unwrap();
        assert_eq!(
            (t.pct, t.value, t.beyond, t.samples),
            (99.0, 990.0, 10, 1000)
        );
        // 999 samples: p99 would leave 9 beyond, so p95 is reported.
        let t = tail(&xs[..999]).unwrap();
        assert_eq!((t.pct, t.beyond), (95.0, 49));
        // 2000 samples reach p99.5 (rank 1990, 10 beyond).
        let xs: Vec<f64> = (1..=2000).map(f64::from).collect();
        assert_eq!(tail(&xs).unwrap().pct, 99.5);
        // 10000 samples reach p99.9.
        let xs: Vec<f64> = (1..=10000).map(f64::from).collect();
        let t = tail(&xs).unwrap();
        assert_eq!((t.pct, t.value, t.beyond), (99.9, 9990.0, 10));
    }

    #[test]
    fn tail_falls_back_to_max_when_evidence_is_thin() {
        let t = tail(&[5.0, 1.0, 3.0]).unwrap();
        assert_eq!((t.pct, t.value, t.beyond, t.samples), (100.0, 5.0, 0, 3));
        // 20 samples: p50 is rank 10, 10 beyond.
        let xs: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail(&xs).unwrap().pct, 50.0);
        assert!(tail(&[]).is_none());
    }

    #[test]
    fn tail_is_order_independent() {
        let mut xs: Vec<f64> = (0..1500).map(|i| ((i * 7919) % 1500) as f64).collect();
        let a = tail(&xs).unwrap();
        xs.sort_by(f64::total_cmp);
        assert_eq!(a, tail(&xs).unwrap());
    }

    #[test]
    fn stage_sum_check_accepts_exact_and_rejects_off_by_one() {
        let stages = [(1, 227), (2, 7658), (3, 36333)];
        assert!(check_stage_sum(&stages, 44218).is_ok());
        let err = check_stage_sum(&stages, 44219).unwrap_err();
        assert!(err.contains("44218") && err.contains("44219"), "{err}");
        assert!(check_stage_sum(&[], 0).is_ok());
    }

    #[test]
    fn sched_efficiency_caps_cores_at_stage_count() {
        // 8 s of serial work in 4 s on 2 cores: perfectly packed.
        assert_eq!(sched_efficiency(8.0, 4.0, 2, 8), 1.0);
        // One stage count can use only one core however many exist.
        assert_eq!(sched_efficiency(5.0, 5.0, 2, 1), 1.0);
        assert_eq!(sched_efficiency(3.0, 4.0, 2, 8), 0.375);
    }

    #[test]
    fn est_arithmetic_sums_count_times_cost() {
        let terms = [
            CostTerm {
                layer: "perf.full",
                count: 40.0,
                us_per_call: 50.0,
            },
            CostTerm {
                layer: "perf.incr",
                count: 1000.0,
                us_per_call: 2.0,
            },
        ];
        // 2000 + 2000 µs of 0.01 s CPU time.
        assert_eq!(terms[0].us(), 2000.0);
        assert!((attributed_share(&terms, 0.01) - 0.4).abs() < 1e-12);
        assert!((unattributed_share(&terms, 0.01) - 0.6).abs() < 1e-12);
        // Overlapping per-call costs can over-attribute: the residual
        // goes negative rather than being clamped away.
        assert!(unattributed_share(&terms, 0.002) < 0.0);
        assert_eq!(unattributed_share(&[], 1.0), 1.0);
    }
}
