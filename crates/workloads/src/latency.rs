//! Per-path latency processes for the RouteScout scenario (Fig. 2/16).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Configuration of one path's latency process.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct PathLatencyConfig {
    /// Mean latency in µs.
    pub mean_us: f64,
    /// Uniform jitter half-width in µs.
    pub jitter_us: f64,
}

impl PathLatencyConfig {
    /// A stable path around `mean_us`.
    pub fn stable(mean_us: f64) -> Self {
        PathLatencyConfig {
            mean_us,
            jitter_us: mean_us * 0.1,
        }
    }
}

/// A deterministic latency sample stream for one path.
#[derive(Debug)]
pub struct PathLatency {
    config: PathLatencyConfig,
    rng: StdRng,
    sample_idx: u64,
}

impl PathLatency {
    /// Creates the process.
    ///
    /// # Panics
    ///
    /// Panics on non-positive mean or negative jitter.
    pub fn new(config: PathLatencyConfig, seed: u64) -> Self {
        assert!(config.mean_us > 0.0, "mean latency must be positive");
        assert!(config.jitter_us >= 0.0, "jitter must be non-negative");
        PathLatency {
            config,
            rng: StdRng::seed_from_u64(seed),
            sample_idx: 0,
        }
    }

    /// Next latency sample in µs (always ≥ 1).
    pub fn next_us(&mut self) -> u32 {
        let base = self.config.mean_us
            + if self.config.jitter_us > 0.0 {
                self.rng
                    .gen_range(-self.config.jitter_us..=self.config.jitter_us)
            } else {
                0.0
            };
        self.sample_idx += 1;
        base.max(1.0) as u32
    }

    /// Samples consumed so far.
    pub fn samples(&self) -> u64 {
        self.sample_idx
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_hover_around_mean() {
        let mut p = PathLatency::new(PathLatencyConfig::stable(100.0), 1);
        let n = 1_000;
        let mean = (0..n).map(|_| p.next_us() as f64).sum::<f64>() / n as f64;
        assert!((90.0..110.0).contains(&mean), "mean {mean}");
        assert_eq!(p.samples(), n);
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = PathLatency::new(PathLatencyConfig::stable(50.0), 9);
        let mut b = PathLatency::new(PathLatencyConfig::stable(50.0), 9);
        for _ in 0..100 {
            assert_eq!(a.next_us(), b.next_us());
        }
    }

    #[test]
    fn zero_jitter_is_constant() {
        let cfg = PathLatencyConfig {
            mean_us: 42.0,
            jitter_us: 0.0,
        };
        let mut p = PathLatency::new(cfg, 0);
        assert!((0..10).all(|_| p.next_us() == 42));
    }

    #[test]
    fn latency_never_below_one() {
        let cfg = PathLatencyConfig {
            mean_us: 1.0,
            jitter_us: 5.0,
        };
        let mut p = PathLatency::new(cfg, 0);
        assert!((0..1000).all(|_| p.next_us() >= 1));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn bad_mean_rejected() {
        let _ = PathLatency::new(PathLatencyConfig::stable(0.0), 0);
    }
}
