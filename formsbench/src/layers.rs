//! Offline measurements around the served model: the reference replay
//! (correctness references, modeled device metrics and MVM counts), and
//! for the traced run, timed calls into the exec, kernel, health and
//! hwmodel layers.

use std::cell::RefCell;
use std::time::{Duration, Instant};

use forms_arch::{FpsModel, MappedLayer, MvmStats};
use forms_exec::{CrossbarEngine, EngineHealth, ExecError, Executor, LayerPrecision, Merge};
use forms_hwmodel::McuConfig;
use forms_tensor::Tensor;

use crate::spans::SpanLog;
use crate::stats::median;
use crate::workload::{Seeds, Workload, FRAGMENT};

/// The paper's MCU at the workloads' fragment size. Its power model is
/// anchored to the paper's Table III and has not been validated against
/// silicon.
fn mcu() -> McuConfig {
    McuConfig::forms(FRAGMENT)
}

/// The offline replay of the payload pool through the reference executor.
#[derive(Clone, Debug)]
pub struct Replay {
    /// Output of each pool payload.
    pub reference: Vec<Vec<f32>>,
    /// MVMs each pool payload costs in each weight layer.
    pub mvms: Vec<Vec<u64>>,
    /// Merged statistics of the whole replay, per weight layer.
    pub layer_stats: Vec<MvmStats>,
    /// Modeled frames per second (unvalidated against silicon).
    pub device_fps: f64,
    /// Modeled energy per request in pJ (unvalidated against silicon).
    pub device_pj_per_request: f64,
    /// Modeled latency of each weight layer in ns.
    pub layer_latency_ns: Vec<f64>,
    /// Modeled pipeline bottleneck in ns.
    pub bottleneck_ns: f64,
    /// Modeled energy per MVM of each weight layer in pJ.
    pub pj_per_mvm: Vec<f64>,
}

impl Replay {
    /// Runs every pool payload, one at a time, through a clone of `exec`
    /// on the per-sample path.
    pub fn run(w: Workload, exec: &Executor<MappedLayer>, pool: &[Vec<f32>]) -> Self {
        let mut exec = exec.clone();
        exec.reset_stats();
        let mut dims = vec![1];
        dims.extend(w.sample_dims());
        let mut reference = Vec::with_capacity(pool.len());
        let mut mvms = Vec::with_capacity(pool.len());
        for payload in pool {
            let before = exec.layer_mvms().to_vec();
            let y = exec.forward(&Tensor::from_vec(payload.clone(), &dims));
            reference.push(y.into_vec());
            mvms.push(
                exec.layer_mvms()
                    .iter()
                    .zip(&before)
                    .map(|(a, b)| a - b)
                    .collect(),
            );
        }
        let model = FpsModel::new(mcu(), exec.layer_perfs(pool.len()));
        let layers = exec.engines().len();
        let layer_stats = exec.layer_stats().to_vec();
        let energy: Vec<f64> = layer_stats
            .iter()
            .zip(exec.layer_configs())
            .map(|(s, c)| s.energy_pj(c, &mcu()))
            .collect();
        Self {
            reference,
            mvms,
            device_fps: model.fps(),
            device_pj_per_request: energy.iter().sum::<f64>() / pool.len() as f64,
            layer_latency_ns: (0..layers).map(|i| model.layer_latency_ns(i)).collect(),
            bottleneck_ns: model.bottleneck_ns(),
            pj_per_mvm: energy
                .iter()
                .zip(exec.layer_mvms())
                .map(|(e, &m)| e / m as f64)
                .collect(),
            layer_stats,
        }
    }

    /// MVMs per weight layer that serving the payloads counted in
    /// `served` (per pool index) must have executed.
    pub fn expected_mvms(&self, served: &[u64]) -> Vec<u64> {
        let mut total = vec![0u64; self.mvms.first().map_or(0, Vec::len)];
        for (per_layer, &n) in self.mvms.iter().zip(served) {
            for (t, m) in total.iter_mut().zip(per_layer) {
                *t += m * n;
            }
        }
        total
    }

    /// The replay's counts merged over every layer.
    pub fn merged(&self) -> MvmStats {
        let mut all = MvmStats::default();
        for s in &self.layer_stats {
            all.merge(*s);
        }
        all
    }
}

thread_local! {
    /// `matmul_into` calls timed on this thread: start, end, MVMs.
    static KERNEL_CALLS: RefCell<Vec<(Instant, Instant, usize)>> = const { RefCell::new(Vec::new()) };
}

/// Drains the kernel calls this thread timed since the last drain.
fn take_kernel_calls() -> Vec<(Instant, Instant, usize)> {
    KERNEL_CALLS.with(|calls| std::mem::take(&mut *calls.borrow_mut()))
}

/// An engine decorator that times every batched `matmul_into` call of the
/// wrapped engine. Outputs and statistics are those of the wrapped engine.
/// Only the benchmark's offline executor uses it; the served executor is
/// the plain engine.
#[derive(Clone, Debug)]
pub struct Timed<E>(E);

impl<E: CrossbarEngine> CrossbarEngine for Timed<E> {
    type Config = E::Config;
    type Stats = E::Stats;
    type Scratch = E::Scratch;

    fn map_matrix(matrix: &Tensor, config: &Self::Config) -> Result<Self, ExecError> {
        E::map_matrix(matrix, config).map(Timed)
    }

    fn output_len(&self) -> usize {
        self.0.output_len()
    }

    fn matvec_into(
        &self,
        input_codes: &[u32],
        input_scale: f32,
        scratch: &mut Self::Scratch,
        out: &mut [f32],
    ) -> Self::Stats {
        self.0.matvec_into(input_codes, input_scale, scratch, out)
    }

    fn matmul_into(
        &self,
        batch_codes: &[u32],
        scales: &[f32],
        scratch: &mut Self::Scratch,
        outs: &mut [f32],
    ) -> Self::Stats {
        let start = Instant::now();
        let stats = self.0.matmul_into(batch_codes, scales, scratch, outs);
        let end = Instant::now();
        KERNEL_CALLS.with(|calls| calls.borrow_mut().push((start, end, scales.len())));
        stats
    }

    fn crossbar_count(&self) -> usize {
        self.0.crossbar_count()
    }

    fn mean_input_cycles(stats: &Self::Stats) -> Option<f64> {
        E::mean_input_cycles(stats)
    }

    fn max_input_cycles(config: &Self::Config) -> f64 {
        E::max_input_cycles(config)
    }

    fn precision_of(config: &Self::Config) -> LayerPrecision {
        E::precision_of(config)
    }

    fn with_precision(config: &Self::Config, precision: LayerPrecision) -> Self::Config {
        E::with_precision(config, precision)
    }

    fn health(&self) -> EngineHealth {
        self.0.health()
    }

    fn output_ceiling(&self) -> Option<f64> {
        self.0.output_ceiling()
    }
}

/// Host time of the exec and kernel layers at one batch size.
#[derive(Clone, Debug, Default)]
pub struct BatchTiming {
    /// `forward_batch_into` time per request, in µs.
    pub forward_us: f64,
    /// `matmul_into` time per request (all layers), in µs.
    pub kernel_us: f64,
    /// `matmul_into` ns per MVM of each weight layer.
    pub ns_per_mvm: Vec<f64>,
}

/// Times `InferenceSession::forward_batch_into` on the payload pool at
/// `batch` requests per call, with each layer's `matmul_into` calls timed
/// inside it, for about `budget`. Spans go to `log` (one `exec.forward` per
/// call with one `kernel.matmul` child per layer).
pub fn time_forward(
    w: Workload,
    exec: &Executor<Timed<MappedLayer>>,
    pool: &[Vec<f32>],
    batch: usize,
    budget: Duration,
    log: &mut SpanLog,
) -> BatchTiming {
    let layers = exec.engines().len();
    let mut session = exec.session();
    let mut dims = vec![batch];
    dims.extend(w.sample_dims());
    let mut out = Vec::new();
    let (mut forward_ns, mut requests) = (0u128, 0usize);
    let mut kernel_ns = vec![0u128; layers];
    let mut kernel_mvms = vec![0usize; layers];
    take_kernel_calls();
    let started = Instant::now();
    let mut call = 0u64;
    // At least two passes over the pool, so every batch size sees the same
    // payloads; the first call warms the session's buffers and is dropped.
    let mut k = 0usize;
    while (started.elapsed() < budget || k < 2 * pool.len()) && k < 64 * pool.len() {
        let x: Vec<f32> = (0..batch)
            .flat_map(|i| pool[(k + i) % pool.len()].iter().copied())
            .collect();
        let x = Tensor::from_vec(x, &dims);
        let t0 = Instant::now();
        session.forward_batch_into(&x, &mut out);
        let t1 = Instant::now();
        let calls = take_kernel_calls();
        k += batch;
        call += 1;
        if call == 1 {
            continue;
        }
        let parent = log.push("exec.forward", None, call, t0, t1);
        forward_ns += (t1 - t0).as_nanos();
        requests += batch;
        for (layer, &(s, e, mvms)) in calls.iter().enumerate() {
            log.push("kernel.matmul", Some(parent), call, s, e);
            kernel_ns[layer % layers] += (e - s).as_nanos();
            kernel_mvms[layer % layers] += mvms;
        }
    }
    BatchTiming {
        forward_us: forward_ns as f64 / 1e3 / requests as f64,
        kernel_us: kernel_ns.iter().sum::<u128>() as f64 / 1e3 / requests as f64,
        ns_per_mvm: kernel_ns
            .iter()
            .zip(&kernel_mvms)
            .map(|(&ns, &m)| ns as f64 / m as f64)
            .collect(),
    }
}

/// Median host time of the health layer's two write-side operations, in
/// ms: rebuilding a replica (`Executor::clone` of the pristine mapping)
/// and applying one campaign (`Executor::inject_faults`).
pub fn time_health(exec: &Executor<MappedLayer>, seeds: &Seeds, budget: Duration) -> (f64, f64) {
    let (mut rebuild, mut inject) = (Vec::new(), Vec::new());
    let started = Instant::now();
    for j in 0u64.. {
        if j >= 3 && (started.elapsed() >= budget || j >= 50) {
            break;
        }
        let t0 = Instant::now();
        let mut replica = std::hint::black_box(exec.clone());
        let t1 = Instant::now();
        replica.inject_faults(&Workload::campaign(seeds, j), j % 2);
        let t2 = Instant::now();
        std::hint::black_box(&replica);
        rebuild.push((t1 - t0).as_secs_f64() * 1e3);
        inject.push((t2 - t1).as_secs_f64() * 1e3);
    }
    (median(&rebuild), median(&inject))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timed_engine_reproduces_the_plain_engine_bit_for_bit() {
        let w = Workload::MlpSmall;
        let net = w.network();
        let plain = w.map(&net).unwrap();
        let timed: Executor<Timed<MappedLayer>> = Executor::map_network(
            &net,
            &forms_arch::MappingConfig::paper(FRAGMENT),
            w.activation_bits(),
        )
        .unwrap();
        let pool = w.payload_pool(&Seeds::derive(5));
        let replay = Replay::run(w, &plain, &pool[..8]);
        let mut session = timed.session();
        let mut out = Vec::new();
        let x: Vec<f32> = pool[..8].iter().flatten().copied().collect();
        session.forward_batch_into(&Tensor::from_vec(x, &[8, 64]), &mut out);
        let expected: Vec<f32> = replay.reference.iter().flatten().copied().collect();
        assert!(crate::drive::bitwise_equal(&out, &expected));
        assert_eq!(take_kernel_calls().len(), 2, "one call per weight layer");
        assert_eq!(replay.expected_mvms(&[2, 0, 1, 0, 0, 0, 0, 0]), vec![3, 3]);
        assert!(replay.device_fps > 0.0 && replay.device_pj_per_request > 0.0);
    }
}
