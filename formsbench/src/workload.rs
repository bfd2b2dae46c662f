//! The three workloads, their frozen traffic, and everything derived from
//! the workload seed: the payload pool, the open-loop arrival schedules,
//! the closed-loop payload order and the fault-campaign seeds.

use std::time::Duration;

use forms_arch::{MappedLayer, MappingConfig};
use forms_dnn::{Layer, Network, WeightLayerMut};
use forms_exec::{ExecError, Executor, FaultCampaign};
use forms_rng::{Rng, StdRng};
use forms_serve::{HealthPolicy, ServeConfig};
use forms_workloads::{poisson_arrivals, synth_request, ActivationModel};

/// Fragment size of every workload's mapping (`MappingConfig::paper(8)`).
pub const FRAGMENT: usize = 8;

/// Distinct payloads per run. Requests draw from this pool, so every served
/// output has an offline reference computed once per pool entry.
pub const POOL: usize = 256;

/// Fewest requests an open-loop phase is sized for, over all rounds: with
/// 1000 completed, ten lie beyond the 99th percentile, so `p99` is
/// reportable.
pub const MIN_PHASE_REQUESTS: usize = 1100;

/// Rounds a run is split into. Each round sets up a fresh server and drives
/// a slice of every phase, so each phase samples the host across the whole
/// run instead of one stretch of it: the shared host's speed swings by a
/// quarter from one second to the next.
pub const ROUNDS: usize = 20;

/// Seed that was never used while the benchmark or a change was tuned;
/// re-run claims on it before accepting them.
pub const HELD_OUT_SEED: u64 = 9_001;

/// Scale of the post-ReLU half-normal payload activations.
const ACTIVATION_SIGMA: f64 = 0.4;

/// Shares of each round given to the light, heavy and capacity phases.
const PHASE_SHARES: [f64; 3] = [0.5, 0.25, 0.25];

/// The workloads, each stressing a different layer of the stack.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The Table-V VGG conv layer, one 3×3×128 patch per request.
    VggLayer,
    /// A 64→32→10 MLP at high request rates.
    MlpSmall,
    /// `MlpSmall` on two resilient replicas with periodic fault campaigns.
    MlpRewrite,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [Self::VggLayer, Self::MlpSmall, Self::MlpRewrite];

    /// Parses a workload name as given to `--workload`.
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Self::VggLayer => "vgg-layer",
            Self::MlpSmall => "mlp-small",
            Self::MlpRewrite => "mlp-rewrite",
        }
    }

    /// Shape of one request payload.
    pub fn sample_dims(self) -> Vec<usize> {
        match self {
            Self::VggLayer => vec![128, 3, 3],
            Self::MlpSmall | Self::MlpRewrite => vec![64],
        }
    }

    /// Activation quantization width.
    pub fn activation_bits(self) -> u32 {
        match self {
            Self::VggLayer => 16,
            Self::MlpSmall | Self::MlpRewrite => 8,
        }
    }

    /// Whether the workload is served by the resilient (health-policed)
    /// server with fault injection.
    pub fn resilient(self) -> bool {
        self == Self::MlpRewrite
    }

    /// Batching and replica configuration: `ServeConfig::default()`
    /// batching on one replica, two for the resilient workload.
    pub fn serve_config(self) -> ServeConfig {
        ServeConfig {
            replicas: if self.resilient() { 2 } else { 1 },
            ..ServeConfig::default()
        }
    }

    /// The health policy of the resilient workload: its fault-density limit
    /// sits far below the density of [`campaign`](Self::campaign), so every
    /// injected campaign trips the density gate and forces a rebuild from
    /// pristine before the replica serves again.
    pub fn health_policy(self) -> HealthPolicy {
        HealthPolicy {
            max_fault_density: 0.002,
            ..HealthPolicy::default()
        }
    }

    /// Every how many requests the generator injects one campaign
    /// (`None` when the workload injects nothing).
    pub fn inject_every(self) -> Option<u64> {
        (self == Self::MlpRewrite).then_some(400)
    }

    /// The `j`-th one-shot stuck-at campaign of a run (≈2 % of cells).
    pub fn campaign(seeds: &Seeds, j: u64) -> FaultCampaign {
        FaultCampaign::stuck_at(mix(seeds.faults, j), 0.01, 0.01)
    }

    /// Frozen offered rates of the `light` and `heavy` phases, in req/s:
    /// ≈0.25× and ≈0.7× the lowest closed-loop capacity each workload
    /// measured on the commit that introduced this benchmark, so the heavy
    /// phase stays below the knee however slow the shared host runs (see
    /// the README). `vgg-layer`'s heavy rate is ≈0.5× instead: each of its
    /// requests holds the replica for over a millisecond, and nearer the
    /// knee its queueing multiplied every swing of the host's speed.
    pub fn open_loop_rates(self) -> [f64; 2] {
        match self {
            Self::VggLayer => [80.0, 160.0],
            Self::MlpSmall => [1_800.0, 5_000.0],
            Self::MlpRewrite => [1_300.0, 3_600.0],
        }
    }

    /// In-flight requests of the closed-loop `capacity` phase: one full
    /// batch per replica, far below the 64-slot queue, so nothing is shed.
    /// (Deeper windows only add client/server thread contention on a
    /// two-core host and made the measured capacity swing by ±20 %.)
    pub fn window(self) -> usize {
        let config = self.serve_config();
        config.max_batch * config.replicas
    }

    /// Builds the served model: fixed weights (independent of the workload
    /// seed), projected to fragment polarization so FORMS maps it directly.
    pub fn network(self) -> Network {
        let mut rng = StdRng::seed_from_u64(0xF0A5);
        let layers = match self {
            Self::VggLayer => vec![Layer::conv2d(&mut rng, 128, 128, 3, 1, 0), Layer::flatten()],
            Self::MlpSmall | Self::MlpRewrite => vec![
                Layer::flatten(),
                Layer::linear(&mut rng, 64, 32),
                Layer::relu(),
                Layer::linear(&mut rng, 32, 10),
            ],
        };
        let mut net = Network::new(layers);
        polarize(&mut net);
        net
    }

    /// Maps `net` at the paper configuration: 128×128 crossbars, 2-bit
    /// cells, 8-bit weights, fragment 8, zero-skipping on.
    pub fn map(self, net: &Network) -> Result<Executor<MappedLayer>, ExecError> {
        Executor::map_network(net, &MappingConfig::paper(FRAGMENT), self.activation_bits())
    }

    /// The payload pool of a run.
    pub fn payload_pool(self, seeds: &Seeds) -> Vec<Vec<f32>> {
        let len: usize = self.sample_dims().iter().product();
        let mut rng = StdRng::seed_from_u64(seeds.payloads);
        let model = ActivationModel::half_normal(ACTIVATION_SIGMA);
        (0..POOL)
            .map(|_| synth_request(&mut rng, model, len))
            .collect()
    }

    /// The run's traffic for a measured duration of `seconds`, split into
    /// [`ROUNDS`] rounds.
    pub fn plan(self, seeds: &Seeds, seconds: f64) -> Plan {
        let [light_rps, heavy_rps] = self.open_loop_rates();
        let mut rng = StdRng::seed_from_u64(seeds.schedule);
        let round = seconds / ROUNDS as f64;
        let min = MIN_PHASE_REQUESTS.div_ceil(ROUNDS);
        let rounds = (0..ROUNDS)
            .map(|_| {
                let light = Schedule::poisson(&mut rng, light_rps, PHASE_SHARES[0] * round, min);
                let heavy = Schedule::poisson(&mut rng, heavy_rps, PHASE_SHARES[1] * round, min);
                Round {
                    light,
                    heavy,
                    capacity_time: Duration::from_secs_f64(PHASE_SHARES[2] * round),
                    capacity_seed: rng.next_u64(),
                }
            })
            .collect();
        Plan {
            rounds,
            window: self.window(),
        }
    }
}

/// Independent seeds derived from the one workload seed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Seeds {
    /// Payload pool.
    pub payloads: u64,
    /// Arrival schedules and payload order.
    pub schedule: u64,
    /// Fault campaigns.
    pub faults: u64,
}

impl Seeds {
    /// Derives the stream seeds from the workload seed.
    pub fn derive(seed: u64) -> Self {
        Self {
            payloads: mix(seed, 1),
            schedule: mix(seed, 2),
            faults: mix(seed, 3),
        }
    }
}

/// One open-loop phase: when each request is due, and which pool payload it
/// carries.
#[derive(Clone, Debug, PartialEq)]
pub struct Schedule {
    /// Due offsets from the phase start, non-decreasing.
    pub due: Vec<Duration>,
    /// Pool index of each request's payload.
    pub payload: Vec<usize>,
}

impl Schedule {
    fn poisson(rng: &mut StdRng, rate_rps: f64, seconds: f64, min: usize) -> Self {
        let n = ((rate_rps * seconds).ceil() as usize).max(min);
        let due = poisson_arrivals(rng, rate_rps, n);
        let payload = (0..n).map(|_| rng.gen_range(0..POOL)).collect();
        Self { due, payload }
    }
}

/// One round's traffic.
#[derive(Clone, Debug, PartialEq)]
pub struct Round {
    /// `light` phase slice, open loop.
    pub light: Schedule,
    /// `heavy` phase slice, open loop.
    pub heavy: Schedule,
    /// Length of the closed-loop `capacity` slice.
    pub capacity_time: Duration,
    /// Seed of the closed-loop payload order (see [`capacity_payload`]).
    pub capacity_seed: u64,
}

/// The whole run's traffic.
#[derive(Clone, Debug, PartialEq)]
pub struct Plan {
    /// The rounds, in order.
    pub rounds: Vec<Round>,
    /// In-flight requests of the `capacity` phase.
    pub window: usize,
}

/// Pool index of the `k`-th request of a closed-loop phase. The phase's
/// length depends on how fast the server answers, so the order is a pure
/// function of the request number rather than a pre-drawn list.
pub fn capacity_payload(seed: u64, k: u64) -> usize {
    (mix(seed, k) % POOL as u64) as usize
}

/// SplitMix64 finalizer over `seed` and a stream number: decorrelated
/// child seeds from one parent.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Projects every weight layer onto fragment polarization, iterated to a
/// fixed point.
fn polarize(net: &mut Network) {
    net.for_each_weight_layer(&mut |wl| {
        let mut z = match &wl {
            WeightLayerMut::Conv(c) => c.weight_matrix(),
            WeightLayerMut::Linear(l) => l.weight_matrix(),
        };
        while forms_admm::polarization_violations(&z, FRAGMENT) > 0 {
            let signs = forms_admm::fragment_signs(&z, FRAGMENT);
            z = forms_admm::project_polarization(&z, FRAGMENT, &signs);
        }
        match wl {
            WeightLayerMut::Conv(c) => c.set_weight_matrix(&z),
            WeightLayerMut::Linear(l) => l.set_weight_matrix(&z),
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_the_same_traffic_and_payloads() {
        for w in Workload::ALL {
            let (a, b) = (Seeds::derive(7), Seeds::derive(7));
            assert_eq!(w.plan(&a, 2.0), w.plan(&b, 2.0));
            assert_eq!(w.payload_pool(&a), w.payload_pool(&b));
            let other = Seeds::derive(8);
            assert_ne!(w.plan(&a, 2.0), w.plan(&other, 2.0));
            assert_ne!(w.payload_pool(&a), w.payload_pool(&other));
        }
    }

    #[test]
    fn derived_seeds_are_distinct_streams() {
        let s = Seeds::derive(HELD_OUT_SEED);
        assert_ne!(s.payloads, s.schedule);
        assert_ne!(s.schedule, s.faults);
        assert_ne!(Workload::campaign(&s, 0), Workload::campaign(&s, 1));
    }

    #[test]
    fn phases_hold_enough_requests_for_a_p99() {
        let plan = Workload::VggLayer.plan(&Seeds::derive(1), 0.1);
        assert_eq!(plan.rounds.len(), ROUNDS);
        let light: usize = plan.rounds.iter().map(|r| r.light.due.len()).sum();
        let heavy: usize = plan.rounds.iter().map(|r| r.heavy.due.len()).sum();
        assert_eq!(light, MIN_PHASE_REQUESTS);
        assert_eq!(heavy, MIN_PHASE_REQUESTS);
        for round in &plan.rounds {
            assert!(round.light.due.windows(2).all(|w| w[0] <= w[1]));
            assert!(round.light.payload.iter().all(|&i| i < POOL));
            assert!((0..1000).all(|k| capacity_payload(round.capacity_seed, k) < POOL));
        }
        assert_ne!(plan.rounds[0], plan.rounds[1]);
    }

    #[test]
    fn payloads_are_post_relu() {
        let pool = Workload::MlpSmall.payload_pool(&Seeds::derive(3));
        assert_eq!(pool.len(), POOL);
        assert!(pool.iter().flatten().all(|&v| v >= 0.0));
        assert!(pool.iter().all(|p| p.len() == 64));
    }

    #[test]
    fn every_workload_maps_at_the_paper_configuration() {
        for w in Workload::ALL {
            let exec = w.map(&w.network()).expect("polarized model maps");
            assert!(!exec.engines().is_empty());
        }
    }
}
