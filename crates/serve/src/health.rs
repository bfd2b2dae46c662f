//! Fault-tolerant serving: replica health monitoring, quarantine, and
//! per-replica fault injection.
//!
//! [`serve_resilient`] is the degradation-aware sibling of
//! [`serve`](crate::service::serve): every replica *owns* a clone of the
//! pristine executor (so faults injected into one replica's crossbars
//! cannot leak into another's), and each replica polices itself against a
//! [`HealthPolicy`]:
//!
//! - **Fault density** — when the fraction of known-faulted cells
//!   (engine [`health`](forms_exec::CrossbarEngine::health)) exceeds
//!   `max_fault_density`, the replica refuses to serve.
//! - **Output sentinels** — when a batch trips the executor's
//!   output-range sentinel (an output past the pristine mapping's nominal
//!   ceiling, which clean silicon cannot produce), the whole batch is
//!   refused with [`ServeError::Degraded`] *before any slot is filled*, so
//!   a corrupted result is never returned to a client.
//!
//! An unhealthy replica drains, sleeps an exponential backoff, rebuilds
//! its executor from the pristine mapping, and re-applies any *persistent*
//! poison (modeling permanently bad silicon). After `max_rebuilds`
//! consecutive failed recoveries it is **quarantined**: the thread exits
//! and the remaining replicas absorb the load. If the *last* replica
//! quarantines, it drains the queue failing every request with
//! `Degraded` so no ticket can hang. Rebuilds, quarantines, degraded
//! requests and injected campaigns are all counted in
//! [`Telemetry`].
//!
//! Fault delivery is asynchronous and replica-targeted: the client closure
//! receives a [`FaultInjector`] whose campaigns land in a per-replica
//! mailbox, applied by the replica itself between batches (injection needs
//! `&mut` access to the replica's engines, which the serving session
//! borrows).

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use forms_exec::{Executor, FaultCampaign, FaultableEngine};
use forms_tensor::Tensor;

use crate::queue::{BoundedQueue, PopWait};
use crate::service::{
    filter_live, CloseGuard, LayerDeltas, Pending, Response, ServeConfig, ServeError, ServiceHandle,
};
use crate::telemetry::{Telemetry, TelemetrySnapshot};
use crate::trace::{TerminalKind, TraceConfig};

/// When a replica must refuse to serve and how hard it tries to recover.
#[derive(Clone, Copy, Debug)]
pub struct HealthPolicy {
    /// Largest tolerated fraction of known-faulted cells before the
    /// replica is considered unhealthy.
    pub max_fault_density: f64,
    /// Consecutive failed recoveries before the replica is quarantined.
    pub max_rebuilds: u32,
    /// Sleep before the first rebuild attempt.
    pub backoff: Duration,
    /// Growth factor of the backoff after every consecutive rebuild
    /// (`>= 1.0`).
    pub backoff_multiplier: f64,
}

impl Default for HealthPolicy {
    fn default() -> Self {
        Self {
            max_fault_density: 0.05,
            max_rebuilds: 2,
            backoff: Duration::from_micros(200),
            backoff_multiplier: 2.0,
        }
    }
}

/// Sizing/batching policy plus the health policy of a resilient service.
#[derive(Clone, Debug, Default)]
pub struct ResilientConfig {
    /// Replica count, queue bound, batching — as for plain `serve`.
    pub serve: ServeConfig,
    /// Health thresholds and recovery budget.
    pub policy: HealthPolicy,
}

/// Per-replica fault delivery box. Campaigns wait here until the owning
/// replica is between batches and can take `&mut` access to its engines.
#[derive(Debug, Default)]
struct ReplicaMailbox {
    /// Cheap "anything waiting?" flag checked on the hot path.
    has_pending: AtomicBool,
    /// Campaigns to apply once, in delivery order.
    pending: Mutex<Vec<FaultCampaign>>,
    /// Campaign re-applied after every rebuild — permanently bad silicon,
    /// as opposed to a transient upset that a rebuild clears.
    persistent: Mutex<Option<FaultCampaign>>,
}

impl ReplicaMailbox {
    fn deliver(&self, campaign: FaultCampaign) {
        self.pending
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(campaign);
        self.has_pending.store(true, Ordering::Release);
    }

    fn persistent(&self) -> Option<FaultCampaign> {
        *self.persistent.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// The client's handle for injecting faults into a running resilient
/// service, replica by replica.
#[derive(Debug)]
pub struct FaultInjector<'a> {
    mailboxes: &'a [ReplicaMailbox],
}

impl FaultInjector<'_> {
    /// Number of replicas faults can be addressed to.
    pub fn replicas(&self) -> usize {
        self.mailboxes.len()
    }

    /// Delivers `campaign` to `replica` once: it is applied to the
    /// replica's current crossbars before its next batch, and is *not*
    /// re-applied after a rebuild (a transient upset).
    ///
    /// # Panics
    ///
    /// Panics if `replica` is out of range.
    pub fn inject(&self, replica: usize, campaign: FaultCampaign) {
        self.mailboxes[replica].deliver(campaign);
    }

    /// Marks `replica`'s silicon as permanently faulty: `campaign` is
    /// applied now *and* re-applied after every rebuild, so recovery can
    /// only succeed if the policy tolerates the resulting fault density —
    /// otherwise the replica exhausts its rebuild budget and quarantines.
    ///
    /// # Panics
    ///
    /// Panics if `replica` is out of range.
    pub fn poison(&self, replica: usize, campaign: FaultCampaign) {
        let mailbox = &self.mailboxes[replica];
        *mailbox.persistent.lock().unwrap_or_else(|e| e.into_inner()) = Some(campaign);
        mailbox.deliver(campaign);
    }
}

/// Runs a fault-tolerant multi-replica inference service around a clone of
/// `pristine` per replica, for the duration of `client`.
///
/// Same contract as [`serve`](crate::service::serve) — bounded admission,
/// dynamic batching, graceful close-and-drain shutdown, every admitted
/// ticket resolves — plus the health monitoring described at the module
/// level. The client closure additionally receives a [`FaultInjector`].
///
/// # Panics
///
/// Panics if `config.serve.replicas`, `config.serve.queue_capacity`, or
/// `config.serve.max_batch` is zero, if `sample_dims` is empty, or if the
/// policy is malformed (`backoff_multiplier < 1.0` or a non-finite /
/// negative `max_fault_density`).
pub fn serve_resilient<E, R>(
    pristine: &Executor<E>,
    sample_dims: &[usize],
    config: &ResilientConfig,
    client: impl FnOnce(&ServiceHandle, &FaultInjector<'_>) -> R,
) -> (R, TelemetrySnapshot)
where
    E: FaultableEngine,
    E::Stats: Sync,
{
    crate::server::Server::builder()
        .config(config.serve)
        .health(config.policy)
        .run_resilient(pristine, sample_dims, client)
}

/// The resilient serving core behind both [`serve_resilient`] and
/// [`Server::run_resilient`](crate::server::ServerBuilder::run_resilient).
pub(crate) fn serve_resilient_impl<E, R>(
    pristine: &Executor<E>,
    sample_dims: &[usize],
    config: &ResilientConfig,
    trace: &TraceConfig,
    client: impl FnOnce(&ServiceHandle, &FaultInjector<'_>) -> R,
) -> (R, TelemetrySnapshot)
where
    E: FaultableEngine,
    E::Stats: Sync,
{
    assert!(config.serve.replicas > 0, "need at least one replica");
    assert!(config.serve.max_batch > 0, "batch size must be positive");
    assert!(!sample_dims.is_empty(), "sample shape must be non-empty");
    assert!(
        config.policy.backoff_multiplier >= 1.0,
        "backoff must not shrink"
    );
    assert!(
        config.policy.max_fault_density.is_finite() && config.policy.max_fault_density >= 0.0,
        "fault-density threshold must be finite and non-negative"
    );
    let queue = Arc::new(BoundedQueue::new(config.serve.queue_capacity));
    let telemetry = Arc::new(Telemetry::new(
        pristine.plan().summary(),
        pristine.engines().len(),
        trace,
    ));
    let mailboxes: Vec<ReplicaMailbox> = (0..config.serve.replicas)
        .map(|_| ReplicaMailbox::default())
        .collect();
    let active = AtomicUsize::new(config.serve.replicas);
    let handle = ServiceHandle {
        queue: Arc::clone(&queue),
        telemetry: Arc::clone(&telemetry),
        sample_len: sample_dims.iter().product(),
        default_deadline: config.serve.default_deadline,
    };
    let injector = FaultInjector {
        mailboxes: &mailboxes,
    };
    let result = std::thread::scope(|scope| {
        for (replica, mailbox) in mailboxes.iter().enumerate() {
            let (queue, telemetry) = (Arc::clone(&queue), Arc::clone(&telemetry));
            let active = &active;
            scope.spawn(move || {
                resilient_replica_loop(
                    pristine,
                    replica,
                    sample_dims,
                    config,
                    &queue,
                    &telemetry,
                    mailbox,
                    active,
                );
            });
        }
        let guard = CloseGuard(&queue);
        let result = client(&handle, &injector);
        drop(guard);
        result
    });
    (result, telemetry.snapshot())
}

/// How long an idle replica sleeps between mailbox polls.
const MAILBOX_POLL: Duration = Duration::from_millis(1);

/// One self-policing replica over its own executor clone.
#[allow(clippy::too_many_arguments)]
fn resilient_replica_loop<E: FaultableEngine>(
    pristine: &Executor<E>,
    replica: usize,
    sample_dims: &[usize],
    config: &ResilientConfig,
    queue: &BoundedQueue<Pending>,
    telemetry: &Telemetry,
    mailbox: &ReplicaMailbox,
    active: &AtomicUsize,
) {
    let policy = &config.policy;
    let serve_cfg = &config.serve;
    // Decorrelates this replica's injected faults from its peers': the
    // same campaign poisons different cells on different replicas.
    let salt = replica as u64;
    let mut executor = pristine.clone();
    let mut deltas = LayerDeltas::new(pristine.engines().len());
    let mut consecutive_rebuilds = 0u32;
    let mut backoff = policy.backoff;
    let mut batch: Vec<Pending> = Vec::new();
    let mut live: Vec<Pending> = Vec::new();
    let mut staging: Vec<f32> = Vec::new();
    let mut out: Vec<f32> = Vec::new();

    // Rebuilds from pristine (true) or reports quarantine (false) after
    // one health violation.
    macro_rules! rebuild_or_quarantine {
        () => {{
            consecutive_rebuilds += 1;
            if consecutive_rebuilds > policy.max_rebuilds {
                telemetry.quarantines.fetch_add(1, Ordering::Relaxed);
                telemetry.record_quarantine_event();
                false
            } else {
                telemetry.rebuilds.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(backoff);
                backoff = backoff.mul_f64(policy.backoff_multiplier);
                executor = pristine.clone();
                if let Some(campaign) = mailbox.persistent() {
                    executor.inject_faults(&campaign, salt);
                    telemetry.faults_injected.fetch_add(1, Ordering::Relaxed);
                }
                true
            }
        }};
    }

    'serve: loop {
        // Deliver queued campaigns while nothing borrows the engines.
        if mailbox.has_pending.swap(false, Ordering::AcqRel) {
            let campaigns: Vec<FaultCampaign> = mailbox
                .pending
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .drain(..)
                .collect();
            for campaign in campaigns {
                executor.inject_faults(&campaign, salt);
                telemetry.faults_injected.fetch_add(1, Ordering::Relaxed);
            }
        }
        // Density gate: a replica over its fault budget refuses to serve
        // at all — rebuild or quarantine before touching a request.
        if executor.health().fault_density() > policy.max_fault_density {
            if rebuild_or_quarantine!() {
                continue 'serve;
            }
            break 'serve;
        }

        let mut session = executor.session();
        deltas.reset();
        let mut seen_sentinels = session.sentinel_violations();
        loop {
            // Bounded wait: an idle replica must still notice fault
            // deliveries, so it wakes periodically to poll its mailbox.
            match queue.pop_batch_for(serve_cfg.max_batch, MAILBOX_POLL, &mut batch) {
                PopWait::Closed => return,
                PopWait::Idle => {
                    if mailbox.has_pending.load(Ordering::Acquire) {
                        continue 'serve;
                    }
                    continue;
                }
                PopWait::Batch => {}
            }
            let dequeued = Instant::now();
            for pending in &mut batch {
                pending.span.dequeued = Some(dequeued);
            }
            filter_live(&mut batch, &mut live, telemetry);
            if live.is_empty() {
                if mailbox.has_pending.load(Ordering::Acquire) {
                    continue 'serve;
                }
                continue;
            }
            let batch_size = live.len();
            staging.clear();
            for pending in &live {
                staging.extend_from_slice(&pending.input);
            }
            let mut dims = vec![batch_size];
            dims.extend_from_slice(sample_dims);
            let x = Tensor::from_vec(std::mem::take(&mut staging), &dims);
            let batch_formed = Instant::now();
            for pending in &mut live {
                pending.span.batch_formed = Some(batch_formed);
            }
            let forward = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                session.forward_batch_into(&x, &mut out);
            }));
            let executed = Instant::now();
            for pending in &mut live {
                pending.span.executed = Some(executed);
            }
            staging = x.into_vec();
            match forward {
                Ok(()) => {
                    let sentinels = session.sentinel_violations();
                    if sentinels > seen_sentinels {
                        // An output escaped the pristine mapping's range:
                        // the batch may be corrupted, so refuse it before
                        // any slot is filled, then recover.
                        for pending in live.drain(..) {
                            telemetry.degraded.fetch_add(1, Ordering::Relaxed);
                            telemetry.record_terminal_span(
                                TerminalKind::Degraded,
                                &pending.span,
                                executed,
                            );
                            pending.slot.fill(Err(ServeError::Degraded));
                        }
                        out.clear();
                        if rebuild_or_quarantine!() {
                            continue 'serve;
                        }
                        break 'serve;
                    }
                    seen_sentinels = sentinels;
                    consecutive_rebuilds = 0;
                    backoff = policy.backoff;
                    deltas.publish(session.layer_wall_ns(), session.layer_mvms(), telemetry);
                    telemetry.batches.fetch_add(1, Ordering::Relaxed);
                    let per_sample = out.len() / batch_size;
                    for (i, mut pending) in live.drain(..).enumerate() {
                        pending.span.responded = Some(Instant::now());
                        let stages = pending.span.stages();
                        telemetry.record_completed_span(&stages);
                        pending.slot.fill(Ok(Response {
                            output: out[i * per_sample..(i + 1) * per_sample].to_vec(),
                            latency: stages.total(),
                            queue_wait: stages.queue_wait,
                            stages,
                            batch_size,
                        }));
                    }
                }
                Err(_) => {
                    for pending in live.drain(..) {
                        telemetry.failed.fetch_add(1, Ordering::Relaxed);
                        telemetry.record_terminal_span(
                            TerminalKind::Failed,
                            &pending.span,
                            executed,
                        );
                        pending.slot.fill(Err(ServeError::EngineFailed));
                    }
                    out.clear();
                    session = executor.session();
                    deltas.reset();
                    seen_sentinels = session.sentinel_violations();
                }
            }
            if mailbox.has_pending.load(Ordering::Acquire) {
                continue 'serve;
            }
        }
    }

    // Quarantined. If peers remain they absorb the load; if this was the
    // last active replica, drain the queue failing every request so no
    // admitted ticket can hang on an abandoned queue.
    if active.fetch_sub(1, Ordering::AcqRel) == 1 {
        while queue.pop_batch(serve_cfg.max_batch, &mut batch) {
            let dequeued = Instant::now();
            for mut pending in batch.drain(..) {
                pending.span.dequeued = Some(dequeued);
                telemetry.degraded.fetch_add(1, Ordering::Relaxed);
                telemetry.record_terminal_span(TerminalKind::Degraded, &pending.span, dequeued);
                pending.slot.fill(Err(ServeError::Degraded));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use forms_arch::{MappedLayer, MappingConfig};
    use forms_dnn::{Layer, Network, WeightLayerMut};
    use forms_tensor::Tensor as T;

    fn polarized_executor() -> Executor<MappedLayer> {
        let mut rng = forms_rng::StdRng::seed_from_u64(0);
        let mut net = Network::new(vec![Layer::flatten(), Layer::linear(&mut rng, 16, 4)]);
        // All-positive weights are trivially fragment-polarized.
        net.for_each_weight_layer(&mut |wl| {
            if let WeightLayerMut::Linear(l) = wl {
                l.set_weight_matrix(&T::from_fn(&[16, 4], |i| 0.05 + (i % 9) as f32 * 0.1));
            }
        });
        let config = MappingConfig {
            crossbar_dim: 16,
            input_bits: 8,
            ..MappingConfig::paper(4)
        };
        Executor::map_network(&net, &config, 8).unwrap()
    }

    fn heavy_stuck() -> FaultCampaign {
        FaultCampaign::stuck_at(13, 0.25, 0.25)
    }

    #[test]
    fn healthy_service_completes_without_recovery_events() {
        let exec = polarized_executor();
        let config = ResilientConfig {
            serve: ServeConfig {
                replicas: 2,
                ..ServeConfig::default()
            },
            policy: HealthPolicy::default(),
        };
        let (outputs, telemetry) = serve_resilient(&exec, &[1, 4, 4], &config, |handle, _| {
            let tickets: Vec<_> = (0..8)
                .map(|_| handle.submit(vec![0.5; 16]).unwrap())
                .collect();
            tickets
                .into_iter()
                .map(|t| t.wait().unwrap().output)
                .collect::<Vec<_>>()
        });
        assert_eq!(outputs.len(), 8);
        assert_eq!(telemetry.completed, 8);
        assert_eq!(telemetry.degraded, 0);
        assert_eq!(telemetry.rebuilds, 0);
        assert_eq!(telemetry.quarantines, 0);
    }

    #[test]
    fn poisoned_replica_quarantines_while_peer_keeps_serving() {
        let exec = polarized_executor();
        let config = ResilientConfig {
            serve: ServeConfig {
                replicas: 2,
                ..ServeConfig::default()
            },
            policy: HealthPolicy {
                max_fault_density: 0.01,
                max_rebuilds: 1,
                backoff: Duration::from_micros(50),
                backoff_multiplier: 2.0,
            },
        };
        let clean = {
            let mut probe = exec.clone();
            let x = T::from_vec(vec![0.5; 16], &[1, 1, 4, 4]);
            probe.forward(&x).into_vec()
        };
        let (outputs, telemetry) = serve_resilient(&exec, &[1, 4, 4], &config, |handle, faults| {
            faults.poison(0, heavy_stuck());
            // Give the poisoned replica time to notice and quarantine.
            std::thread::sleep(Duration::from_millis(20));
            let tickets: Vec<_> = (0..12)
                .map(|_| handle.submit(vec![0.5; 16]).unwrap())
                .collect();
            tickets
                .into_iter()
                .filter_map(|t| t.wait().ok().map(|r| r.output))
                .collect::<Vec<_>>()
        });
        assert_eq!(telemetry.quarantines, 1, "poisoned replica must drain");
        assert!(telemetry.rebuilds >= 1, "it must have tried to recover");
        assert!(telemetry.faults_injected >= 1);
        assert!(!outputs.is_empty(), "healthy replica keeps completing");
        // Zero corrupted responses: everything completed matches pristine.
        for out in &outputs {
            assert_eq!(out, &clean, "completed output must be uncorrupted");
        }
        assert_eq!(telemetry.completed, outputs.len() as u64);
    }

    #[test]
    fn last_replica_quarantine_fails_requests_instead_of_hanging() {
        let exec = polarized_executor();
        let config = ResilientConfig {
            serve: ServeConfig {
                replicas: 1,
                ..ServeConfig::default()
            },
            policy: HealthPolicy {
                max_fault_density: 0.01,
                max_rebuilds: 0,
                backoff: Duration::from_micros(10),
                backoff_multiplier: 1.0,
            },
        };
        let ((), telemetry) = serve_resilient(&exec, &[1, 4, 4], &config, |handle, faults| {
            faults.poison(0, heavy_stuck());
            std::thread::sleep(Duration::from_millis(10));
            // Every ticket must resolve even with all replicas gone.
            let tickets: Vec<_> = (0..6)
                .map(|_| handle.submit(vec![0.5; 16]).unwrap())
                .collect();
            for t in tickets {
                match t.wait() {
                    Err(ServeError::Degraded) | Ok(_) => {}
                    other => panic!("unexpected outcome {other:?}"),
                }
            }
        });
        assert_eq!(telemetry.quarantines, 1);
        assert!(telemetry.degraded > 0, "drained requests counted degraded");
    }

    #[test]
    fn transient_injection_recovers_after_rebuild() {
        let exec = polarized_executor();
        let config = ResilientConfig {
            serve: ServeConfig::default(),
            policy: HealthPolicy {
                max_fault_density: 0.01,
                max_rebuilds: 5,
                backoff: Duration::from_micros(10),
                backoff_multiplier: 2.0,
            },
        };
        let (out, telemetry) = serve_resilient(&exec, &[1, 4, 4], &config, |handle, faults| {
            // One-shot upset: the rebuild clears it, so the replica comes
            // back healthy and keeps serving.
            faults.inject(0, heavy_stuck());
            std::thread::sleep(Duration::from_millis(10));
            handle.submit(vec![0.5; 16]).unwrap().wait().unwrap().output
        });
        assert_eq!(out.len(), 4);
        assert_eq!(telemetry.quarantines, 0, "transient fault must not kill");
        assert!(telemetry.rebuilds >= 1);
        assert_eq!(telemetry.completed, 1);
    }
}
