//! The benchmark's only source of randomness: splitmix64 from `--seed`.
//! The program under test never sees the generator, only the source
//! text and inputs drawn from it.

pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n` ≥ 1; the modulo bias is irrelevant at
    /// the sizes used here).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// `n` integers in `0..bound`.
    pub fn ints(&mut self, n: usize, bound: u64) -> Vec<i64> {
        (0..n).map(|_| self.below(bound) as i64).collect()
    }

    /// Fisher–Yates.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}
