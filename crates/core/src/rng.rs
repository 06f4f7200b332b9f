//! Deterministic pseudo-random numbers: the one generator of the
//! workspace.
//!
//! SplitMix64: tiny, fast, and fully reproducible from a `u64` seed.
//! Fault-site sampling, the serve daemon's retry backoff jitter, and
//! the fuzzer (which re-exports it as `fpgafuzz::rng::Rng`) draw from
//! it, and none of them consults wall-clock or OS randomness (the
//! repo's determinism rule).

/// A SplitMix64 generator.
#[derive(Debug, Clone)]
pub struct Rng {
    state: u64,
}

impl Rng {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> Self {
        Rng { state: seed }
    }

    /// Derives an independent stream for `(self.seed, lane)` — used to
    /// give every case index its own reproducible stream.
    pub fn derive(&self, lane: u64) -> Rng {
        let mut rng = Rng {
            state: self.state ^ lane.wrapping_mul(0x9E37_79B9_7F4A_7C15),
        };
        // Burn a few outputs so nearby lanes decorrelate immediately.
        rng.next_u64();
        rng.next_u64();
        rng
    }

    /// The next 64 raw bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `0..n`; `below(0)` is 0 (it still draws).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }

    /// Uniform value in `lo..=hi`.
    pub fn range_i64(&mut self, lo: i64, hi: i64) -> i64 {
        debug_assert!(lo <= hi);
        let span = (hi - lo) as u64 + 1;
        lo + self.below(span) as i64
    }

    /// True with probability `num/den`.
    pub fn chance(&mut self, num: u64, den: u64) -> bool {
        self.below(den) < num
    }

    /// A uniformly chosen element of a non-empty slice.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len() as u64) as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = Rng::new(42);
        let mut b = Rng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    /// The stream is SplitMix64's published one, and `below(0)` draws and
    /// answers 0, so site samples do not move with the generator.
    #[test]
    fn splitmix_is_deterministic() {
        let mut rng = Rng::new(1_234_567);
        assert_eq!(
            [rng.next_u64(), rng.next_u64(), rng.next_u64()],
            [
                6457827717110365317,
                3203168211198807973,
                9817491932198370423
            ]
        );
        let (mut zero, mut one) = (Rng::new(9), Rng::new(9));
        assert_eq!(zero.below(0), 0);
        one.next_u64();
        assert_eq!(zero.next_u64(), one.next_u64(), "below(0) drew one value");
    }

    #[test]
    fn derived_lanes_differ() {
        let root = Rng::new(7);
        let mut a = root.derive(0);
        let mut b = root.derive(1);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn below_and_range_stay_in_bounds() {
        let mut rng = Rng::new(1);
        for _ in 0..1000 {
            assert!(rng.below(7) < 7);
            let v = rng.range_i64(-3, 5);
            assert!((-3..=5).contains(&v));
        }
    }
}
