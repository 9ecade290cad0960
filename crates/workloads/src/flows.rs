//! Flow-level workload generation.
//!
//! Distributions are implemented from first principles (inverse-transform
//! exponential, Box–Muller log-normal) to stay within the approved
//! dependency set.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// One generated flow.
#[derive(Clone, Copy, PartialEq, Debug, Serialize, Deserialize)]
pub struct Flow {
    /// Flow identifier (unique within a generator run).
    pub id: u32,
    /// Arrival time in nanoseconds.
    pub arrival_ns: u64,
    /// Size in packets (≥ 1).
    pub packets: u32,
    /// Destination id (e.g. the HULA destination switch).
    pub dst: u16,
}

/// Flow generator configuration.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct FlowGenConfig {
    /// Mean flow inter-arrival time in nanoseconds (Poisson process).
    pub mean_interarrival_ns: f64,
    /// Log-normal μ of the size distribution (packets).
    pub size_mu: f64,
    /// Log-normal σ of the size distribution.
    pub size_sigma: f64,
    /// Destination id assigned to every flow.
    pub dst: u16,
    /// RNG seed.
    pub seed: u64,
}

impl Default for FlowGenConfig {
    fn default() -> Self {
        // ~1 flow per 100 µs; median ~8-packet flows with a heavy tail —
        // CAIDA-like shape at laptop scale.
        FlowGenConfig {
            mean_interarrival_ns: 100_000.0,
            size_mu: 2.0,
            size_sigma: 1.2,
            dst: 5,
            seed: 0xf10e_5eed,
        }
    }
}

/// Samples Exp(mean) by inverse transform.
fn sample_exp(rng: &mut StdRng, mean: f64) -> f64 {
    // Avoid ln(0).
    let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    -mean * u.ln()
}

/// Samples a standard normal via Box–Muller.
fn sample_std_normal(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Samples LogNormal(mu, sigma).
fn sample_log_normal(rng: &mut StdRng, mu: f64, sigma: f64) -> f64 {
    (mu + sigma * sample_std_normal(rng)).exp()
}

/// Deterministic flow generator.
pub struct FlowGen {
    rng: StdRng,
    config: FlowGenConfig,
    next_id: u32,
    clock_ns: f64,
}

impl FlowGen {
    /// Creates a generator.
    ///
    /// # Panics
    ///
    /// Panics if the inter-arrival mean or σ is not positive.
    pub fn new(config: FlowGenConfig) -> Self {
        assert!(
            config.mean_interarrival_ns > 0.0,
            "inter-arrival mean must be positive"
        );
        assert!(config.size_sigma > 0.0, "size sigma must be positive");
        FlowGen {
            rng: StdRng::seed_from_u64(config.seed),
            config,
            next_id: 0,
            clock_ns: 0.0,
        }
    }

    /// Generates flows until `horizon_ns`.
    pub fn until(&mut self, horizon_ns: u64) -> Vec<Flow> {
        let mut flows = Vec::new();
        loop {
            self.clock_ns += sample_exp(&mut self.rng, self.config.mean_interarrival_ns);
            if self.clock_ns as u64 > horizon_ns {
                break;
            }
            let at = self.clock_ns as u64;
            flows.push(self.next_at(at));
        }
        flows
    }

    /// Generates exactly `n` flows.
    pub fn take_flows(&mut self, n: usize) -> Vec<Flow> {
        (0..n)
            .map(|_| {
                self.clock_ns += sample_exp(&mut self.rng, self.config.mean_interarrival_ns);
                let at = self.clock_ns as u64;
                self.next_at(at)
            })
            .collect()
    }

    fn next_at(&mut self, arrival_ns: u64) -> Flow {
        let id = self.next_id;
        self.next_id += 1;
        let packets = sample_log_normal(&mut self.rng, self.config.size_mu, self.config.size_sigma)
            .clamp(1.0, 1e6) as u32;
        Flow {
            id,
            arrival_ns,
            packets,
            dst: self.config.dst,
        }
    }
}

// --- Per-user arrival mixes -------------------------------------------------
//
// Host aggregation models thousands of edge users inside one sim node; each
// user needs its own deterministic arrival schedule that depends only on
// `(seed, user_idx)` — never on how many other users exist or in what order
// their streams are advanced. The samplers below therefore carry all of
// their state inline (a SplitMix64 word plus one cursor: the burst counter
// of a heavy-tailed mix or the trace position of a trace-driven one), so
// two streams for the same `(seed, user_idx)` are identical regardless of
// interleaving.

/// SplitMix64's increment γ, the golden-ratio constant: each step adds it
/// to the state word, so the word after `k` steps from `start` is
/// `start + k·γ` (mod 2⁶⁴).
const GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;

/// γ⁻¹ mod 2⁶⁴. γ is odd, so it has one: every odd `g` has `g·g ≡ 1`
/// (mod 8), and each Newton step `x ← x·(2 − g·x)` doubles the low bits
/// that are right, 3 → 6 → … → 96 after five.
const GAMMA_INV: u64 = {
    let mut x = GAMMA;
    let mut step = 0;
    while step < 5 {
        x = x.wrapping_mul(2u64.wrapping_sub(GAMMA.wrapping_mul(x)));
        step += 1;
    }
    x
};

/// One SplitMix64 step (same constants as `p4auth_primitives::rng`); kept
/// inline so this crate stays free of the crypto-primitives dependency.
/// Public so flat-array aggregates can drive per-user destination/flow
/// draws from the same raw state word their arrival mix advances.
pub fn splitmix_next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(GAMMA);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Derives the per-user seed from an aggregate seed — the same golden-ratio
/// mix the scale workload uses for individual host RNGs, so an aggregate of
/// one user can reproduce an individual host bit-for-bit.
pub fn user_seed(seed: u64, user_idx: u64) -> u64 {
    seed ^ user_idx.wrapping_mul(GAMMA)
}

/// The state word `draws` [`splitmix_next`] steps after `start`. With
/// [`splitmix_draws`], a stream's word is a step count next to a start
/// everyone can rebuild (the [`user_seed`]), which is how flat-array
/// aggregates keep it in 4 bytes instead of 8.
pub fn splitmix_state(start: u64, draws: u64) -> u64 {
    start.wrapping_add(draws.wrapping_mul(GAMMA))
}

/// How many [`splitmix_next`] steps lead from `start` to `state`, modulo
/// 2⁶⁴: the inverse of [`splitmix_state`].
pub fn splitmix_draws(start: u64, state: u64) -> u64 {
    state.wrapping_sub(start).wrapping_mul(GAMMA_INV)
}

/// Uniform in (0, 1) from a raw SplitMix64 output (53 mantissa bits),
/// clamped away from zero so `ln` stays finite.
fn unit_open(raw: u64) -> f64 {
    ((raw >> 11) as f64 * (1.0 / (1u64 << 53) as f64)).max(f64::MIN_POSITIVE)
}

/// Elephant/mice burst parameters for [`ArrivalMix::HeavyTailed`].
///
/// A user alternates between idle periods (exponential, mean
/// `idle_mean_ns`) and bursts whose length in frames is drawn from a
/// bounded Pareto on `[burst_min, burst_max]` with shape `alpha`: most
/// bursts are mice near `burst_min`, a heavy tail of elephants stretches
/// toward `burst_max`. Frames within a burst are `frame_gap_ns` apart.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct HeavyTailed {
    /// Bounded-Pareto shape (smaller ⇒ heavier tail; 1.1–1.6 is typical).
    pub alpha: f64,
    /// Minimum burst length in frames (the mice).
    pub burst_min: u32,
    /// Maximum burst length in frames (the elephant cap).
    pub burst_max: u32,
    /// Gap between consecutive frames inside a burst.
    pub frame_gap_ns: u64,
    /// Mean idle gap before each burst (exponential).
    pub idle_mean_ns: u64,
}

impl Default for HeavyTailed {
    fn default() -> Self {
        // Mice of a few frames, elephants up to 4096, sub-µs pacing inside
        // a burst — fig19-like load shape with a CAIDA-like tail.
        HeavyTailed {
            alpha: 1.3,
            burst_min: 2,
            burst_max: 4096,
            frame_gap_ns: 200,
            idle_mean_ns: 40_000,
        }
    }
}

/// [`HeavyTailed`] ready to draw: the constants of its bounded-Pareto
/// inverse CDF are computed once here, not on every burst.
#[derive(Clone, Copy, Debug)]
struct Bursts {
    /// Burst bounds `L` and `H` in frames.
    l: f64,
    h: f64,
    /// `1 − (L/H)^α`.
    tail: f64,
    /// `−1/α`.
    exponent: f64,
    frame_gap_ns: u64,
    idle_mean_ns: u64,
}

impl Bursts {
    fn new(ht: &HeavyTailed) -> Self {
        let l = ht.burst_min.max(1) as f64;
        let h = ht.burst_max.max(ht.burst_min.max(1)) as f64;
        Bursts {
            l,
            h,
            tail: 1.0 - (l / h).powf(ht.alpha),
            exponent: -1.0 / ht.alpha,
            frame_gap_ns: ht.frame_gap_ns,
            idle_mean_ns: ht.idle_mean_ns,
        }
    }

    fn sample_burst(&self, rng: &mut u64) -> u32 {
        let u = unit_open(splitmix_next(rng));
        // Bounded-Pareto inverse CDF: x = L·(1 − u·(1 − (L/H)^α))^(−1/α).
        let x = self.l * (1.0 - u * self.tail).powf(self.exponent);
        x.clamp(self.l, self.h) as u32
    }

    fn sample_idle(&self, rng: &mut u64) -> u64 {
        let u = unit_open(splitmix_next(rng));
        ((-(self.idle_mean_ns as f64) * u.ln()) as u64).max(1)
    }

    /// Starts the next burst: leaves its remaining frames in
    /// `burst_left` and returns the idle gap before it.
    fn start_burst(&self, rng: &mut u64, burst_left: &mut u32) -> u64 {
        *burst_left = self.sample_burst(rng).max(1) - 1;
        self.sample_idle(rng)
    }
}

/// How the users behind an aggregate space their frames.
#[derive(Clone, Debug)]
pub enum ArrivalMix {
    /// Every user sends with a fixed gap — the fig19 uniform mix, and the
    /// mode in which an aggregate of one user is bit-identical to an
    /// individual host node.
    Uniform {
        /// Fixed inter-frame gap.
        gap_ns: u64,
    },
    /// Elephant/mice bursts with bounded-Pareto lengths.
    HeavyTailed(HeavyTailed),
    /// Trace-driven: users replay a shared gap trace (e.g. derived from a
    /// [`FlowGen`] run via [`trace_gaps`]), each starting at a
    /// seed-derived offset and cycling.
    Trace(Arc<[u64]>),
}

impl ArrivalMix {
    /// A sampler for one user's stream under this mix.
    pub fn sampler(&self, seed: u64, user_idx: u64) -> ArrivalSampler {
        ArrivalSampler::new(self, seed, user_idx)
    }

    /// Initial per-user state as plain words — the SoA-friendly twin of
    /// [`ArrivalMix::sampler`] for host aggregates that keep millions of
    /// user streams in flat arrays. Returns `(rng_word, cursor)`: the
    /// cursor is the user's seed-derived start in the trace under
    /// [`ArrivalMix::Trace`], and 0 otherwise — under
    /// [`ArrivalMix::HeavyTailed`] it is the burst counter, which starts
    /// empty.
    pub fn init_state(&self, seed: u64, user_idx: u64) -> (u64, u32) {
        let mut rng = user_seed(seed, user_idx);
        let cursor = match self {
            ArrivalMix::Trace(gaps) => (splitmix_next(&mut rng) % gaps.len() as u64) as u32,
            _ => 0,
        };
        (rng, cursor)
    }

    /// The mix ready to draw gaps from (see [`ArrivalGaps`]); build it
    /// once per stream or aggregate, not per draw.
    pub fn gaps(&self) -> ArrivalGaps {
        ArrivalGaps(match self {
            ArrivalMix::Uniform { gap_ns } => Law::Uniform((*gap_ns).max(1)),
            ArrivalMix::HeavyTailed(ht) => Law::HeavyTailed(Bursts::new(ht)),
            ArrivalMix::Trace(gaps) => Law::Trace(gaps.clone()),
        })
    }
}

/// What an [`ArrivalGaps`] draws from: its mix with every per-draw
/// constant computed.
#[derive(Clone, Debug)]
enum Law {
    Uniform(u64),
    HeavyTailed(Bursts),
    Trace(Arc<[u64]>),
}

/// An [`ArrivalMix`] ready to draw, from [`ArrivalMix::gaps`]. This is
/// *the* gap implementation: [`ArrivalSampler`] wraps one, and flat-array
/// host aggregates drive one over plain per-user SoA words, so the two
/// can never drift apart.
///
/// A user's stream is two words: the RNG word and one `cursor`. No mix
/// needs more than one counter, so the cursor is whichever its law
/// keeps: the frames left in the current burst under `HeavyTailed`, the
/// position in the shared trace under `Trace`, nothing under `Uniform`.
#[derive(Clone, Debug)]
pub struct ArrivalGaps(Law);

impl ArrivalGaps {
    /// Offset (ns) of a user's *first* frame relative to its boot
    /// instant. `Uniform` starts at boot — drawing nothing, so a one-user
    /// aggregate stays bit-identical to an individual host. `HeavyTailed`
    /// treats boot as the start of the idle period before the first
    /// burst: it draws the burst length (left in `cursor`) and an idle
    /// gap, so a large population's first frames spread over the idle
    /// distribution instead of arriving as one synchronized thundering
    /// herd. `Trace` consumes the first gap at the user's cursor.
    pub fn initial_gap_ns(&self, rng: &mut u64, cursor: &mut u32) -> u64 {
        match &self.0 {
            Law::Uniform(_) => 0,
            Law::HeavyTailed(bursts) => bursts.start_burst(rng, cursor),
            Law::Trace(gaps) => next_trace_gap(gaps, cursor),
        }
    }

    /// Draws the next gap (ns, ≥ 1) given per-user SoA state.
    pub fn next_gap(&self, rng: &mut u64, cursor: &mut u32) -> u64 {
        match &self.0 {
            Law::Uniform(gap_ns) => *gap_ns,
            Law::HeavyTailed(bursts) => {
                if *cursor == 0 {
                    bursts.start_burst(rng, cursor)
                } else {
                    *cursor -= 1;
                    bursts.frame_gap_ns.max(1)
                }
            }
            Law::Trace(gaps) => next_trace_gap(gaps, cursor),
        }
    }
}

/// The trace gap at `trace_pos` (≥ 1); advances the cursor, cycling.
fn next_trace_gap(gaps: &[u64], trace_pos: &mut u32) -> u64 {
    let gap = gaps[*trace_pos as usize].max(1);
    *trace_pos = (*trace_pos + 1) % gaps.len() as u32;
    gap
}

/// Converts a flow list into an inter-arrival gap trace suitable for
/// [`ArrivalMix::Trace`] (each flow contributes one gap; zero gaps are
/// lifted to 1 ns so schedules stay strictly advancing).
pub fn trace_gaps(flows: &[Flow]) -> Arc<[u64]> {
    let mut gaps = Vec::with_capacity(flows.len());
    let mut prev = 0u64;
    for f in flows {
        gaps.push((f.arrival_ns - prev).max(1));
        prev = f.arrival_ns;
    }
    if gaps.is_empty() {
        gaps.push(1);
    }
    gaps.into()
}

/// A single user's deterministic arrival-gap stream.
///
/// All state lives here, so the stream for a given `(seed, user_idx)` is a
/// pure function of how many gaps have been drawn — independent of every
/// other user.
#[derive(Clone, Debug)]
pub struct ArrivalSampler {
    gaps: ArrivalGaps,
    rng: u64,
    cursor: u32,
}

impl ArrivalSampler {
    /// Creates the stream for `user_idx` under `mix`.
    pub fn new(mix: &ArrivalMix, seed: u64, user_idx: u64) -> Self {
        let (rng, cursor) = mix.init_state(seed, user_idx);
        ArrivalSampler {
            gaps: mix.gaps(),
            rng,
            cursor,
        }
    }

    /// Offset of the user's first frame from its boot instant (call once,
    /// before any [`ArrivalSampler::next_gap_ns`]; see
    /// [`ArrivalGaps::initial_gap_ns`]).
    pub fn initial_gap_ns(&mut self) -> u64 {
        self.gaps.initial_gap_ns(&mut self.rng, &mut self.cursor)
    }

    /// The gap (ns, ≥ 1) preceding the user's next frame.
    pub fn next_gap_ns(&mut self) -> u64 {
        self.gaps.next_gap(&mut self.rng, &mut self.cursor)
    }

    /// The first `n` absolute arrival offsets (prefix sums of the gaps).
    pub fn schedule(mut self, n: usize) -> Vec<u64> {
        let mut at = 0u64;
        (0..n)
            .map(|_| {
                at = at.saturating_add(self.next_gap_ns());
                at
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_given_seed() {
        let a = FlowGen::new(FlowGenConfig::default()).take_flows(100);
        let b = FlowGen::new(FlowGenConfig::default()).take_flows(100);
        assert_eq!(a, b);
    }

    #[test]
    fn seeds_differ() {
        let a = FlowGen::new(FlowGenConfig::default()).take_flows(10);
        let b = FlowGen::new(FlowGenConfig {
            seed: 1,
            ..FlowGenConfig::default()
        })
        .take_flows(10);
        assert_ne!(a, b);
    }

    #[test]
    fn arrivals_are_monotonic_and_ids_unique() {
        let flows = FlowGen::new(FlowGenConfig::default()).take_flows(500);
        for pair in flows.windows(2) {
            assert!(pair[1].arrival_ns >= pair[0].arrival_ns);
            assert!(pair[1].id > pair[0].id);
        }
    }

    #[test]
    fn sizes_are_heavy_tailed() {
        let flows = FlowGen::new(FlowGenConfig::default()).take_flows(5_000);
        let mut sizes: Vec<u32> = flows.iter().map(|f| f.packets).collect();
        sizes.sort_unstable();
        let median = sizes[sizes.len() / 2] as f64;
        let p99 = sizes[sizes.len() * 99 / 100] as f64;
        // Heavy tail: p99 far above the median; all sizes at least 1.
        assert!(p99 / median > 5.0, "median {median}, p99 {p99}");
        assert!(sizes[0] >= 1);
    }

    #[test]
    fn until_respects_horizon() {
        let flows = FlowGen::new(FlowGenConfig::default()).until(10_000_000);
        assert!(!flows.is_empty());
        assert!(flows.iter().all(|f| f.arrival_ns <= 10_000_000));
        // ~100 flows expected at 1 per 100 µs over 10 ms.
        assert!((50..200).contains(&flows.len()), "{} flows", flows.len());
    }

    #[test]
    fn mean_interarrival_close_to_config() {
        let flows = FlowGen::new(FlowGenConfig::default()).take_flows(5_000);
        let total = flows.last().unwrap().arrival_ns - flows[0].arrival_ns;
        let mean = total as f64 / (flows.len() - 1) as f64;
        assert!((70_000.0..130_000.0).contains(&mean), "mean {mean}");
    }

    #[test]
    fn log_normal_mean_is_plausible() {
        // E[LogNormal(2, 1.2)] = exp(2 + 1.2²/2) ≈ 15.2 packets.
        let flows = FlowGen::new(FlowGenConfig::default()).take_flows(20_000);
        let mean = flows.iter().map(|f| f.packets as f64).sum::<f64>() / flows.len() as f64;
        assert!((8.0..25.0).contains(&mean), "mean {mean}");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn bad_config_rejected() {
        let _ = FlowGen::new(FlowGenConfig {
            mean_interarrival_ns: 0.0,
            ..Default::default()
        });
    }

    #[test]
    fn uniform_mix_is_a_fixed_grid() {
        let mix = ArrivalMix::Uniform { gap_ns: 25 };
        assert_eq!(mix.sampler(7, 3).schedule(4), vec![25, 50, 75, 100]);
    }

    #[test]
    fn heavy_tailed_bursts_are_bounded_and_heavy() {
        let ht = HeavyTailed::default();
        let law = Bursts::new(&ht);
        let mut rng = user_seed(0xabcd, 9);
        let bursts: Vec<u32> = (0..20_000).map(|_| law.sample_burst(&mut rng)).collect();
        assert!(bursts
            .iter()
            .all(|&b| b >= ht.burst_min && b <= ht.burst_max));
        let mut sorted = bursts.clone();
        sorted.sort_unstable();
        let median = sorted[sorted.len() / 2] as f64;
        let p99 = sorted[sorted.len() * 99 / 100] as f64;
        assert!(p99 / median > 10.0, "median {median}, p99 {p99}");
    }

    /// Hoisting the inverse CDF's constants out of the draw must not move
    /// one bit: every burst equals the formula evaluated in full per draw.
    #[test]
    fn hoisted_burst_constants_draw_bit_identical_bursts() {
        let shapes = [
            HeavyTailed::default(),
            HeavyTailed {
                alpha: 1.1,
                burst_min: 1,
                burst_max: 64,
                ..HeavyTailed::default()
            },
            HeavyTailed {
                alpha: 0.7,
                burst_min: 9,
                burst_max: 3,
                ..HeavyTailed::default()
            },
        ];
        for ht in shapes {
            let law = Bursts::new(&ht);
            let (mut rng, mut reference) = (user_seed(7, 3), user_seed(7, 3));
            for _ in 0..20_000 {
                let u = unit_open(splitmix_next(&mut reference));
                let l = ht.burst_min.max(1) as f64;
                let h = ht.burst_max.max(ht.burst_min.max(1)) as f64;
                let x = l * (1.0 - u * (1.0 - (l / h).powf(ht.alpha))).powf(-1.0 / ht.alpha);
                assert_eq!(law.sample_burst(&mut rng), x.clamp(l, h) as u32);
            }
        }
    }

    #[test]
    fn heavy_tailed_gaps_alternate_idle_and_paced() {
        let mix = ArrivalMix::HeavyTailed(HeavyTailed::default());
        let mut s = mix.sampler(1, 0);
        let gaps: Vec<u64> = (0..5_000).map(|_| s.next_gap_ns()).collect();
        let paced = gaps.iter().filter(|&&g| g == 200).count();
        let idle = gaps.iter().filter(|&&g| g != 200).count();
        assert!(paced > 0 && idle > 0, "paced {paced}, idle {idle}");
        assert!(gaps.iter().all(|&g| g >= 1));
    }

    #[test]
    fn trace_mix_cycles_with_per_user_offsets() {
        let gaps: Arc<[u64]> = vec![10, 20, 30].into();
        let mix = ArrivalMix::Trace(gaps);
        let schedules: Vec<Vec<u64>> = (0..8).map(|u| mix.sampler(5, u).schedule(9)).collect();
        // Every user cycles the same 60 ns period…
        for s in &schedules {
            assert_eq!(s[8] - s[5], 60);
        }
        // …but the 3 possible start offsets are all hit across a few users.
        let distinct: std::collections::BTreeSet<u64> = schedules.iter().map(|s| s[0]).collect();
        assert_eq!(distinct.len(), 3, "offsets {distinct:?}");
    }

    #[test]
    fn trace_gaps_strictly_advance() {
        let flows = FlowGen::new(FlowGenConfig::default()).take_flows(64);
        let gaps = trace_gaps(&flows);
        assert_eq!(gaps.len(), 64);
        assert!(gaps.iter().all(|&g| g >= 1));
        assert!(trace_gaps(&[]).iter().all(|&g| g == 1));
    }

    #[test]
    fn gamma_inverse_is_the_inverse() {
        assert_eq!(GAMMA.wrapping_mul(GAMMA_INV), 1);
        assert_eq!(GAMMA_INV.wrapping_mul(GAMMA), 1);
    }

    proptest::proptest! {
        /// A word rebuilt from its step count is the word the steps reach,
        /// and the count read back from it is the count.
        #[test]
        fn draw_count_rebuilds_the_word(seed: u64, user: u64, draws in 0u64..2_000) {
            let start = user_seed(seed, user);
            let mut word = start;
            for _ in 0..draws {
                splitmix_next(&mut word);
            }
            proptest::prop_assert_eq!(splitmix_state(start, draws), word);
            proptest::prop_assert_eq!(splitmix_draws(start, word), draws);
        }
    }

    #[test]
    fn samplers_are_independent_of_interleaving() {
        let mix = ArrivalMix::HeavyTailed(HeavyTailed::default());
        // Advance two users round-robin, then compare against each stream
        // drawn in isolation.
        let mut s0 = mix.sampler(99, 0);
        let mut s1 = mix.sampler(99, 1);
        let mut interleaved = (Vec::new(), Vec::new());
        for _ in 0..100 {
            interleaved.0.push(s0.next_gap_ns());
            interleaved.1.push(s1.next_gap_ns());
        }
        let solo0: Vec<u64> = {
            let mut s = mix.sampler(99, 0);
            (0..100).map(|_| s.next_gap_ns()).collect()
        };
        let solo1: Vec<u64> = {
            let mut s = mix.sampler(99, 1);
            (0..100).map(|_| s.next_gap_ns()).collect()
        };
        assert_eq!(interleaved.0, solo0);
        assert_eq!(interleaved.1, solo1);
    }
}
