//! Order statistics and the seeded input generator.

/// Percentile levels a tail may be reported at.
const TAIL_LADDER: [f64; 7] = [0.50, 0.75, 0.90, 0.95, 0.99, 0.999, 0.9999];

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// 1-based nearest rank of quantile `q` among `n` samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// Nearest-rank quantile (`0.0` for no samples).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    sorted(values)[rank(values.len(), q) - 1]
}

/// The median (mean of the middle pair for an even count).
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The highest ladder percentile with at least ten of `n` samples beyond
/// it, as a fraction, and that count of samples beyond it.
pub fn tail_level(n: usize) -> (f64, usize) {
    TAIL_LADDER
        .iter()
        .rev()
        .map(|&q| (q, n.saturating_sub(rank(n.max(1), q))))
        .find(|&(_, beyond)| beyond >= 10)
        .unwrap_or((0.50, n / 2))
}

/// SplitMix64: the benchmark's only source of randomness. Every input a
/// workload sends is drawn from `Rng::new(seed, stream)`, so one seed gives
/// one input set.
pub struct Rng(u64);

impl Rng {
    /// A generator for one named input stream of one workload seed.
    pub fn new(seed: u64, stream: &str) -> Rng {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in stream.bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        Rng(seed ^ h)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_level_keeps_ten_samples_beyond() {
        assert_eq!(tail_level(2000), (0.99, 20));
        assert_eq!(tail_level(448), (0.95, 22));
        assert_eq!(tail_level(44), (0.75, 11));
        assert_eq!(tail_level(5), (0.50, 2));
    }

    #[test]
    fn quantiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(median(&v), 50.5);
    }

    #[test]
    fn one_seed_one_stream() {
        let a: Vec<u64> = (0..4).map(|_| Rng::new(7, "x").next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(Rng::new(7, "x").next_u64(), Rng::new(8, "x").next_u64());
        assert_ne!(Rng::new(7, "x").next_u64(), Rng::new(7, "y").next_u64());
    }
}
