//! One front door for every serving mode: the [`Server`] builder.
//!
//! Historically the crate grew four divergent entry points —
//! [`serve`](crate::service::serve),
//! [`serve_resilient`](crate::health::serve_resilient), and the two
//! network-facing siblings in `forms-net` — each threading its own config
//! through its own signature. The builder unifies them: one place to set
//! the [`ServeConfig`], an optional [`HealthPolicy`] for fault-tolerant
//! serving, and the [`TraceConfig`] governing request-lifecycle tracing,
//! with a [`validate`](ServerBuilder::validate) that rejects contradictory
//! settings *before* any replica thread spawns. The legacy functions
//! remain as thin wrappers over the builder, so existing callers keep
//! compiling with bitwise-identical behavior.
//!
//! ```
//! use forms_serve::{Server, ServeConfig};
//! # use forms_exec::Executor;
//! # let mut rng = forms_rng::StdRng::seed_from_u64(0);
//! # let mut net = forms_dnn::Network::new(vec![
//! #     forms_dnn::Layer::flatten(),
//! #     forms_dnn::Layer::linear(&mut rng, 16, 4),
//! # ]);
//! # net.for_each_weight_layer(&mut |wl| {
//! #     if let forms_dnn::WeightLayerMut::Linear(l) = wl {
//! #         l.set_weight_matrix(&forms_tensor::Tensor::from_fn(&[16, 4], |i| {
//! #             0.05 + (i % 9) as f32 * 0.1
//! #         }));
//! #     }
//! # });
//! # let exec = Executor::<forms_arch::MappedLayer>::map_network(
//! #     &net, &forms_arch::MappingConfig::paper(8), 16).unwrap();
//! let builder = Server::builder().config(ServeConfig {
//!     replicas: 2,
//!     ..ServeConfig::default()
//! });
//! builder.validate().unwrap();
//! let (out, telemetry) = builder.run(&exec, &[1, 4, 4], |handle| {
//!     handle.submit(vec![0.5; 16]).unwrap().wait().unwrap().output
//! });
//! assert_eq!(out.len(), 4);
//! assert_eq!(telemetry.completed, 1);
//! assert_eq!(telemetry.stages.execute.count, 1);
//! ```

use std::time::Duration;

use forms_exec::{CrossbarEngine, Executor, FaultableEngine};

use crate::health::{serve_resilient_impl, FaultInjector, HealthPolicy, ResilientConfig};
use crate::service::{serve_impl, ServeConfig, ServiceHandle};
use crate::telemetry::TelemetrySnapshot;
use crate::trace::TraceConfig;

/// Namespace for the unified serving entry point; see [`Server::builder`].
#[derive(Debug)]
pub struct Server;

impl Server {
    /// Starts building a service: defaults everywhere, then chain
    /// [`config`](ServerBuilder::config), [`health`](ServerBuilder::health)
    /// and [`trace`](ServerBuilder::trace) before
    /// [`run`](ServerBuilder::run) /
    /// [`run_resilient`](ServerBuilder::run_resilient).
    pub fn builder() -> ServerBuilder {
        ServerBuilder {
            serve: ServeConfig::default(),
            health: None,
            trace: TraceConfig::default(),
        }
    }
}

/// Accumulates serving, health and tracing configuration, then launches
/// the service in whichever mode fits: [`run`](Self::run) for plain
/// serving, [`run_resilient`](Self::run_resilient) for health-policed
/// serving (the network-facing modes are added by `forms-net` through an
/// extension trait).
#[derive(Clone, Debug, Default)]
pub struct ServerBuilder {
    serve: ServeConfig,
    health: Option<HealthPolicy>,
    trace: TraceConfig,
}

/// A contradiction or impossibility in the assembled configuration,
/// reported by [`ServerBuilder::validate`] before any thread spawns.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ConfigError {
    /// `replicas` is zero — nothing would ever pop the queue.
    ZeroReplicas,
    /// `queue_capacity` is zero — every submission would be shed.
    ZeroQueueCapacity,
    /// `max_batch` is zero — a replica could never form a batch.
    ZeroBatch,
    /// The health policy's `backoff_multiplier` is below 1.0, so backoff
    /// would shrink under repeated failures.
    ShrinkingBackoff {
        /// The offending multiplier.
        multiplier: f64,
    },
    /// The health policy's `max_fault_density` is negative, NaN or
    /// infinite.
    BadFaultDensity {
        /// The offending density threshold.
        density: f64,
    },
    /// The default deadline is zero, so every request submitted under the
    /// default would expire at batch formation, before it could execute.
    ZeroDefaultDeadline,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::ZeroReplicas => write!(f, "replicas must be positive"),
            Self::ZeroQueueCapacity => write!(f, "queue capacity must be positive"),
            Self::ZeroBatch => write!(f, "max batch must be positive"),
            Self::ShrinkingBackoff { multiplier } => {
                write!(
                    f,
                    "backoff multiplier {multiplier} would shrink the backoff"
                )
            }
            Self::BadFaultDensity { density } => {
                write!(
                    f,
                    "fault-density threshold {density} is not a finite fraction"
                )
            }
            Self::ZeroDefaultDeadline => write!(
                f,
                "default deadline is zero: every request submitted under it \
                 would expire before executing"
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

impl ServerBuilder {
    /// Sets the sizing/batching policy (replicas, queue bound, largest
    /// batch, default deadline).
    #[must_use]
    pub fn config(mut self, serve: ServeConfig) -> Self {
        self.serve = serve;
        self
    }

    /// Enables health-policed serving with `policy`;
    /// [`run_resilient`](Self::run_resilient) uses it (or the default
    /// policy when never set). [`run`](Self::run) ignores it.
    #[must_use]
    pub fn health(mut self, policy: HealthPolicy) -> Self {
        self.health = Some(policy);
        self
    }

    /// Sets the request-lifecycle tracing configuration (event-ring and
    /// slowest-span capacities). Zero capacities disable event capture;
    /// per-stage histograms are always on.
    #[must_use]
    pub fn trace(mut self, trace: TraceConfig) -> Self {
        self.trace = trace;
        self
    }

    /// The sizing/batching policy currently assembled.
    pub fn serve_config(&self) -> &ServeConfig {
        &self.serve
    }

    /// The health policy currently assembled, if any.
    pub fn health_policy(&self) -> Option<&HealthPolicy> {
        self.health.as_ref()
    }

    /// The tracing configuration currently assembled.
    pub fn trace_config(&self) -> &TraceConfig {
        &self.trace
    }

    /// Rejects impossible or contradictory configurations with a typed
    /// error, checking strictly more than the `run*` entry points assert:
    /// `run` only refuses configs that would wedge (zero replicas/batch),
    /// while `validate` also catches settings that are legal but can never
    /// serve a request usefully (a zero default deadline).
    ///
    /// # Errors
    ///
    /// The first [`ConfigError`] found, in field order.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.serve.replicas == 0 {
            return Err(ConfigError::ZeroReplicas);
        }
        if self.serve.queue_capacity == 0 {
            return Err(ConfigError::ZeroQueueCapacity);
        }
        if self.serve.max_batch == 0 {
            return Err(ConfigError::ZeroBatch);
        }
        if self.serve.default_deadline == Some(Duration::ZERO) {
            return Err(ConfigError::ZeroDefaultDeadline);
        }
        if let Some(policy) = &self.health {
            if policy.backoff_multiplier < 1.0 {
                return Err(ConfigError::ShrinkingBackoff {
                    multiplier: policy.backoff_multiplier,
                });
            }
            if !policy.max_fault_density.is_finite() || policy.max_fault_density < 0.0 {
                return Err(ConfigError::BadFaultDensity {
                    density: policy.max_fault_density,
                });
            }
        }
        Ok(())
    }

    /// Runs a plain multi-replica service around `executor` for the
    /// duration of `client` — the builder-first form of
    /// [`serve`](crate::service::serve). Any
    /// health policy on the builder is ignored.
    ///
    /// # Panics
    ///
    /// Panics if `replicas`, `queue_capacity` or `max_batch` is zero, or
    /// if `sample_dims` is empty.
    pub fn run<E, R>(
        &self,
        executor: &Executor<E>,
        sample_dims: &[usize],
        client: impl FnOnce(&ServiceHandle) -> R,
    ) -> (R, TelemetrySnapshot)
    where
        E: CrossbarEngine,
        E::Stats: Sync,
    {
        serve_impl(executor, sample_dims, &self.serve, &self.trace, client)
    }

    /// Runs a health-policed service around per-replica clones of
    /// `pristine` — the builder-first form of
    /// [`serve_resilient`](crate::health::serve_resilient). Uses the
    /// builder's health policy, or [`HealthPolicy::default`] when none was
    /// set.
    ///
    /// # Panics
    ///
    /// As [`run`](Self::run), plus a malformed health policy
    /// (`backoff_multiplier < 1.0` or a non-finite / negative
    /// `max_fault_density`).
    pub fn run_resilient<E, R>(
        &self,
        pristine: &Executor<E>,
        sample_dims: &[usize],
        client: impl FnOnce(&ServiceHandle, &FaultInjector<'_>) -> R,
    ) -> (R, TelemetrySnapshot)
    where
        E: FaultableEngine,
        E::Stats: Sync,
    {
        let config = ResilientConfig {
            serve: self.serve,
            policy: self.health.unwrap_or_default(),
        };
        serve_resilient_impl(pristine, sample_dims, &config, &self.trace, client)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn polarized_executor() -> Executor<forms_arch::MappedLayer> {
        let mut rng = forms_rng::StdRng::seed_from_u64(0);
        let mut net = forms_dnn::Network::new(vec![
            forms_dnn::Layer::flatten(),
            forms_dnn::Layer::linear(&mut rng, 16, 4),
        ]);
        net.for_each_weight_layer(&mut |wl| {
            if let forms_dnn::WeightLayerMut::Linear(l) = wl {
                l.set_weight_matrix(&forms_tensor::Tensor::from_fn(&[16, 4], |i| {
                    0.05 + (i % 9) as f32 * 0.1
                }));
            }
        });
        Executor::map_network(&net, &forms_arch::MappingConfig::paper(8), 16).unwrap()
    }

    #[test]
    fn validate_accepts_defaults_and_rejects_contradictions() {
        assert_eq!(Server::builder().validate(), Ok(()));
        let validate_with = |f: fn(&mut ServeConfig)| {
            let mut c = ServeConfig::default();
            f(&mut c);
            Server::builder().config(c).validate()
        };
        assert_eq!(
            validate_with(|c| c.replicas = 0),
            Err(ConfigError::ZeroReplicas)
        );
        assert_eq!(
            validate_with(|c| c.queue_capacity = 0),
            Err(ConfigError::ZeroQueueCapacity)
        );
        assert_eq!(
            validate_with(|c| c.max_batch = 0),
            Err(ConfigError::ZeroBatch)
        );
        // A zero default deadline expires every request at batch
        // formation, so it can never be met.
        assert_eq!(
            validate_with(|c| c.default_deadline = Some(Duration::ZERO)),
            Err(ConfigError::ZeroDefaultDeadline)
        );
        // A positive default deadline is accepted: no configured wait
        // stands between a request and an idle replica.
        assert_eq!(
            validate_with(|c| c.default_deadline = Some(Duration::from_millis(1))),
            Ok(())
        );
        assert_eq!(validate_with(|c| c.default_deadline = None), Ok(()));
        // Malformed health policies are typed errors instead of panics.
        let shrink = HealthPolicy {
            backoff_multiplier: 0.5,
            ..HealthPolicy::default()
        };
        assert!(matches!(
            Server::builder().health(shrink).validate(),
            Err(ConfigError::ShrinkingBackoff { .. })
        ));
        for density in [-0.1, f64::NAN, f64::INFINITY] {
            let bad = HealthPolicy {
                max_fault_density: density,
                ..HealthPolicy::default()
            };
            assert!(matches!(
                Server::builder().health(bad).validate(),
                Err(ConfigError::BadFaultDensity { .. })
            ));
        }
    }

    #[test]
    fn config_errors_render_useful_messages() {
        let msg = ConfigError::ZeroDefaultDeadline.to_string();
        assert!(msg.contains("default deadline is zero"), "{msg}");
        assert!(msg.contains("expire"), "{msg}");
    }

    #[test]
    fn builder_and_legacy_serve_agree() {
        let exec = polarized_executor();
        let config = ServeConfig {
            replicas: 2,
            ..ServeConfig::default()
        };
        let run = |via_builder: bool| {
            let client = |handle: &ServiceHandle| {
                let tickets: Vec<_> = (0..6)
                    .map(|_| handle.submit(vec![0.5; 16]).unwrap())
                    .collect();
                tickets
                    .into_iter()
                    .map(|t| t.wait().unwrap().output)
                    .collect::<Vec<_>>()
            };
            if via_builder {
                Server::builder()
                    .config(config)
                    .run(&exec, &[1, 4, 4], client)
            } else {
                crate::service::serve(&exec, &[1, 4, 4], &config, client)
            }
        };
        let (legacy_out, legacy_t) = run(false);
        let (builder_out, builder_t) = run(true);
        // Same outputs sample for sample (execution is deterministic)...
        assert_eq!(legacy_out, builder_out);
        // ...and the same outcome accounting either way.
        assert_eq!(legacy_t.submitted, builder_t.submitted);
        assert_eq!(legacy_t.completed, builder_t.completed);
        assert_eq!(legacy_t.plan, builder_t.plan);
        // The legacy wrapper routes through the builder, so tracing is on
        // there too: every completed request contributes to each stage.
        for t in [&legacy_t, &builder_t] {
            for h in t.stages.in_order() {
                assert_eq!(h.count, 6);
            }
        }
    }

    #[test]
    fn builder_and_legacy_serve_resilient_agree() {
        let exec = polarized_executor();
        let config = ServeConfig {
            replicas: 1,
            ..ServeConfig::default()
        };
        let client = |handle: &ServiceHandle, _: &FaultInjector<'_>| {
            handle.submit(vec![0.5; 16]).unwrap().wait().unwrap().output
        };
        let (legacy_out, legacy_t) = crate::health::serve_resilient(
            &exec,
            &[1, 4, 4],
            &ResilientConfig {
                serve: config,
                policy: HealthPolicy::default(),
            },
            client,
        );
        let (builder_out, builder_t) = Server::builder()
            .config(config)
            .health(HealthPolicy::default())
            .run_resilient(&exec, &[1, 4, 4], client);
        assert_eq!(legacy_out, builder_out);
        assert_eq!(legacy_t.completed, builder_t.completed);
        assert_eq!(legacy_t.quarantines, builder_t.quarantines);
        assert_eq!(legacy_t.stages.execute.count, 1);
        assert_eq!(builder_t.stages.execute.count, 1);
    }
}
