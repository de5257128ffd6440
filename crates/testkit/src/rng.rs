use std::ops::Range;

/// The tests' one pseudo-random stream: xorshift64 (shifts 13, 7,
/// 17). Every draw is a function of the seed and the draws before it,
/// so a battery's cases are the same on every host and a failing case
/// is named by its seed and number.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A stream starting at `seed` (which must not be 0: xorshift stays
    /// at 0 for good).
    pub fn new(seed: u64) -> Rng {
        assert_ne!(seed, 0, "a xorshift stream seeded 0 never leaves 0");
        Rng(seed)
    }

    /// The next word.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    /// A number in `0..n` (`n > 0`; slightly biased towards the low end,
    /// which no battery minds).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// One of `items`.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len())]
    }

    /// Put `items` in a random order (Fisher–Yates).
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }

    /// `len` characters drawn from `alphabet`.
    pub fn string(&mut self, alphabet: &[u8], len: usize) -> String {
        (0..len).map(|_| *self.pick(alphabet) as char).collect()
    }

    /// An integer in `-bound..bound`.
    pub fn int(&mut self, bound: i64) -> i64 {
        (self.next() % (2 * bound as u64)) as i64 - bound
    }

    /// `len.start + below(len.len())` integers in `-bound..bound`.
    pub fn ints(&mut self, bound: i64, len: Range<usize>) -> Vec<i64> {
        (0..len.start + self.below(len.len())).map(|_| self.int(bound)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The stream is xorshift64's: the batteries draw the cases they
    /// drew before they shared it.
    #[test]
    fn the_stream_is_xorshift64() {
        let mut rng = Rng::new(1);
        assert_eq!(rng.next(), 1082269761);
        assert_eq!(rng.next(), 1152992998833853505);
        let mut a = Rng::new(0x5EED);
        let mut b = a.clone();
        let mut v: Vec<usize> = (0..10).collect();
        a.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..10).collect::<Vec<_>>());
        assert!((0..1000).all(|_| b.below(7) < 7 && (-5..5).contains(&b.int(5))));
    }
}
