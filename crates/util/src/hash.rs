//! Stable hashing.
//!
//! The search deduplicates configurations by a *semantic* hash that must be
//! stable across processes and platforms, so we cannot use
//! `std::collections::hash_map::DefaultHasher` (randomly seeded). FNV-1a is
//! simple, stable, and good enough for dedup sets of a few million entries.

/// FNV-1a offset basis (64-bit).
const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
/// FNV-1a prime (64-bit).
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// `FNV_PRIME^k` for `k` in `0..=8`: an FNV-1a step over a zero byte is a
/// bare multiply by the prime, so `k` zero bytes fold into one multiply.
const FNV_PRIME_POW: [u64; 9] = {
    let mut pow = [1u64; 9];
    let mut k = 1;
    while k < 9 {
        pow[k] = pow[k - 1].wrapping_mul(FNV_PRIME);
        k += 1;
    }
    pow
};

/// Hashes a byte slice with 64-bit FNV-1a.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// An incremental, platform-stable FNV-1a hasher.
///
/// # Examples
///
/// ```
/// use aceso_util::FnvHasher;
///
/// let mut h = FnvHasher::new();
/// h.write_u64(7);
/// h.write_bytes(b"stage");
/// let a = h.finish();
/// assert_ne!(a, FnvHasher::new().finish());
/// ```
#[derive(Debug, Clone)]
pub struct FnvHasher {
    state: u64,
}

impl Default for FnvHasher {
    fn default() -> Self {
        Self::new()
    }
}

impl FnvHasher {
    /// Creates a hasher in the initial state.
    #[inline]
    pub fn new() -> Self {
        Self { state: FNV_OFFSET }
    }

    /// Feeds raw bytes.
    #[inline]
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= u64::from(b);
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
    }

    /// Feeds a `u64` (little-endian).
    ///
    /// Bit-identical to `write_bytes(&v.to_le_bytes())`, but the high zero
    /// bytes (most fed values are below 256) cost one multiply together.
    #[inline]
    pub fn write_u64(&mut self, v: u64) {
        let zeros = (v.leading_zeros() / 8) as usize;
        if zeros == 8 {
            self.state = self.state.wrapping_mul(FNV_PRIME_POW[8]);
            return;
        }
        let bytes = v.to_le_bytes();
        let last = 7 - zeros;
        let mut h = self.state;
        for &b in &bytes[..last] {
            h = (h ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
        // The last significant byte's own multiply joins the zeros' run.
        self.state = (h ^ u64::from(bytes[last])).wrapping_mul(FNV_PRIME_POW[zeros + 1]);
    }

    /// Feeds a `usize` as `u64`.
    #[inline]
    pub fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    /// Feeds a `bool` as one byte.
    #[inline]
    pub fn write_bool(&mut self, v: bool) {
        self.write_bytes(&[u8::from(v)]);
    }

    /// Returns the current hash value.
    #[inline]
    pub fn finish(&self) -> u64 {
        self.state
    }
}

/// Derives a deterministic perturbation factor in `[1 - spread, 1 + spread]`
/// from a hash key.
///
/// The simulated profiler uses this to give each (operator, parallelism)
/// combination a stable, repeatable "measurement" deviation from the pure
/// analytic cost — the same role per-kernel efficiency quirks play on real
/// hardware.
pub fn keyed_jitter(key: u64, spread: f64) -> f64 {
    // One SplitMix64 finalisation round turns the key into white bits.
    let mut z = key.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    let unit = (z >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
    1.0 + spread * (2.0 * unit - 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_known_vector() {
        // FNV-1a("a") per the reference implementation.
        assert_eq!(fnv1a(b"a"), 0xAF63_DC4C_8601_EC8C);
        assert_eq!(fnv1a(b""), FNV_OFFSET);
    }

    #[test]
    fn hasher_matches_one_shot() {
        let mut h = FnvHasher::new();
        h.write_bytes(b"hello world");
        assert_eq!(h.finish(), fnv1a(b"hello world"));
    }

    /// The reference `write_u64`: one FNV-1a step per little-endian byte.
    fn bytewise(state: u64, v: u64) -> u64 {
        let mut h = FnvHasher { state };
        h.write_bytes(&v.to_le_bytes());
        h.finish()
    }

    #[test]
    fn write_u64_matches_bytewise_at_every_width() {
        let mut rng = crate::SplitMix64::new(0xF17A);
        let states = [FNV_OFFSET, 0, u64::MAX, fnv1a(b"stage"), rng.next_u64()];
        let mut checked = 0;
        for &state in &states {
            // Every count of significant bytes, 0 through 8, at its
            // extremes: only the top byte set, and every byte set.
            for width in 0..=8u32 {
                let vals: &[u64] = match width {
                    0 => &[0],
                    8 => &[1 << 56, u64::MAX],
                    w => &[1 << (8 * (w - 1)), (1 << (8 * w)) - 1],
                };
                for &v in vals {
                    assert_eq!(8 - v.leading_zeros() / 8, width);
                    let mut h = FnvHasher { state };
                    h.write_u64(v);
                    assert_eq!(h.finish(), bytewise(state, v), "v={v:#x} state={state:#x}");
                    checked += 1;
                }
            }
            // Random values, shifted down so every width occurs often.
            for i in 0..2_500u32 {
                let v = rng.next_u64() >> (i % 64);
                let mut h = FnvHasher { state };
                h.write_u64(v);
                assert_eq!(h.finish(), bytewise(state, v), "v={v:#x} state={state:#x}");
                checked += 1;
            }
        }
        assert!(checked >= 10_000);
    }

    #[test]
    fn order_sensitive() {
        let mut a = FnvHasher::new();
        a.write_u64(1);
        a.write_u64(2);
        let mut b = FnvHasher::new();
        b.write_u64(2);
        b.write_u64(1);
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn keyed_jitter_bounded_and_stable() {
        for key in 0..1000u64 {
            let j = keyed_jitter(key, 0.03);
            assert!((0.97..=1.03).contains(&j));
            assert_eq!(j, keyed_jitter(key, 0.03));
        }
    }

    #[test]
    fn keyed_jitter_spreads() {
        let lo = (0..1000).filter(|&k| keyed_jitter(k, 0.05) < 1.0).count();
        assert!(lo > 300 && lo < 700, "jitter should be roughly centred");
    }
}
