//! Network front-end suite (`BENCH_net.json`).
//!
//! Gates the `forms-net` subsystem end to end: drives the open-loop
//! Poisson generator through *real loopback sockets* — frame encoding,
//! kernel socket buffers, per-connection reader/writer threads, the
//! bounded in-flight window — against the same paced serving core the
//! `serve` suite measures in-process, sweeping connection count ×
//! replica count for the FORMS design and the ISAAC baseline.
//!
//! Every sweep point is paired with an **in-process baseline** at the
//! same replica count (the [`run_open_loop`] path with no sockets), and
//! [`validate`] requires loopback goodput to hold at least the mode's
//! [`loopback_floor`] of that baseline ([`LOOPBACK_FLOOR`] in full mode)
//! — the front-end may tax the serving layer, but it must not become the
//! bottleneck.
//!
//! The suite ends with a **socket fault storm**: a resilient two-replica
//! service, one replica persistently poisoned mid-run with a stuck-high
//! campaign, driven entirely over a TCP connection. The storm proves the
//! degradation contract survives the wire: every completed response is
//! bitwise-identical to the pristine output, refusals surface as
//! `Degraded` *wire statuses* on a live connection (never as dropped
//! sockets), and the poisoned replica quarantines.
//!
//! The suite writes `BENCH_net.json` at the repository root; the `net`
//! binary re-reads the file, parses it with [`crate::json::parse`] and
//! checks it with [`validate`], so CI fails on a front-end that slows
//! down, corrupts, or drops.

use std::net::SocketAddr;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use forms_arch::{MappedLayer, MappingConfig};
use forms_baselines::{IsaacConfig, IsaacLayer};
use forms_dnn::{Layer, Network, WeightLayerMut};
use forms_exec::{CrossbarEngine, Executor, FaultCampaign};
use forms_net::{serve_net, serve_net_resilient, ClientConfig, NetClient, NetConfig, WireStatus};
use forms_reram::CellSpec;
use forms_rng::StdRng;
use forms_serve::{
    run_open_loop, serve, HealthPolicy, OpenLoopSpec, PacedConfig, PacedEngine, ResilientConfig,
    ServeConfig, TelemetrySnapshot,
};
use forms_tensor::Tensor;
use forms_workloads::{poisson_arrivals, synth_request, ActivationModel};

use crate::json::JsonValue;
use crate::mvm::polarized_matrix;
use crate::timing::percentile;

/// Minimum acceptable loopback goodput as a fraction of the in-process
/// baseline at the same replica count (full-mode gate).
pub const LOOPBACK_FLOOR: f64 = 0.7;

/// Minimum acceptable loopback/in-process goodput ratio per mode. Full
/// mode holds the real [`LOOPBACK_FLOOR`] gate; the smoke floor is looser
/// because its sub-second points run concurrently with the rest of the
/// workspace test suite, and saturation throughput under that contention
/// is noisy on *both* sides of the ratio.
pub fn loopback_floor(mode: &str) -> f64 {
    if mode == "full" {
        LOOPBACK_FLOOR
    } else {
        0.4
    }
}

/// Shapes, pacing and sweep axes for one suite run.
#[derive(Clone, Debug)]
pub struct NetBenchSpec {
    /// `"full"` or `"smoke"` — recorded in the JSON document.
    pub mode: &'static str,
    /// Human-readable label of the served layer shape.
    pub layer_label: &'static str,
    /// Lowered weight-matrix rows (request payload length).
    pub rows: usize,
    /// Lowered weight-matrix columns (response length).
    pub cols: usize,
    /// FORMS mapping parameters (ISAAC derives its config from them).
    pub mapping: MappingConfig,
    /// Modeled per-MVM device occupancy of the sweep replicas.
    pub device_latency: Duration,
    /// Offered open-loop load per sweep point, in requests/s (split
    /// evenly across the point's connections).
    pub rate_rps: f64,
    /// Requests offered per sweep point.
    pub requests: usize,
    /// Replica counts to sweep.
    pub replicas: Vec<usize>,
    /// Concurrent client connections to sweep.
    pub connections: Vec<usize>,
    /// Batch-size limit of every point.
    pub max_batch: usize,
    /// Admission queue bound.
    pub queue_capacity: usize,
    /// Minimum requests offered during the socket fault storm.
    pub storm_requests: usize,
}

impl NetBenchSpec {
    /// The real measurement point: the Table-V-style VGG conv layer at
    /// the paper's configuration behind a 60 ms device, as in the `serve`
    /// suite, now with the socket path in front.
    pub fn full() -> Self {
        Self {
            mode: "full",
            layer_label: "VGG conv 3x3x128->128 (Table-V style, 1152x128 lowered)",
            rows: 1152,
            cols: 128,
            mapping: MappingConfig::paper(8),
            device_latency: Duration::from_millis(60),
            rate_rps: 120.0,
            requests: 240,
            replicas: vec![1, 2, 4],
            connections: vec![1, 4, 8],
            max_batch: 4,
            queue_capacity: 32,
            storm_requests: 24,
        }
    }

    /// A seconds-scale variant for CI: tiny layer, short pacing, same
    /// code paths and JSON schema as [`full`](Self::full).
    pub fn smoke() -> Self {
        Self {
            mode: "smoke",
            layer_label: "smoke conv 3x3x8->8 (72x8 lowered)",
            rows: 72,
            cols: 8,
            mapping: MappingConfig {
                crossbar_dim: 16,
                fragment_size: 4,
                weight_bits: 8,
                cell: CellSpec::paper_2bit(),
                input_bits: 8,
                zero_skipping: true,
            },
            device_latency: Duration::from_millis(3),
            rate_rps: 600.0,
            requests: 90,
            replicas: vec![1, 4],
            connections: vec![1, 4],
            max_batch: 4,
            queue_capacity: 16,
            storm_requests: 12,
        }
    }

    fn serve_config(&self, replicas: usize) -> ServeConfig {
        ServeConfig {
            replicas,
            queue_capacity: self.queue_capacity,
            max_batch: self.max_batch,
            default_deadline: None,
        }
    }
}

/// One loopback sweep point's measurements.
#[derive(Clone, Debug)]
pub struct NetPoint {
    /// `"FORMS"` or `"ISAAC"`.
    pub design: &'static str,
    /// Replica count of this point.
    pub replicas: usize,
    /// Concurrent client connections of this point.
    pub connections: usize,
    /// In-process open-loop goodput at the same replica count, in
    /// requests/s.
    pub baseline_rps: f64,
    /// Loopback goodput in requests/s.
    pub throughput_rps: f64,
    /// Median client-observed latency in milliseconds.
    pub p50_ms: f64,
    /// 99th-percentile client-observed latency in milliseconds.
    pub p99_ms: f64,
    /// Requests that completed with an output.
    pub completed: usize,
    /// Requests shed at admission (wire status, connection stayed up).
    pub shed: usize,
    /// Requests expired in queue (wire status).
    pub expired: usize,
    /// Requests refused by a degraded replica (wire status).
    pub degraded: usize,
    /// Client-side transport/protocol failures — must be zero.
    pub wire_errors: usize,
    /// Final server-side telemetry of the point, including per-stage
    /// histograms and per-layer attribution, rendered into the document
    /// via [`TelemetrySnapshot::to_json`].
    pub telemetry: TelemetrySnapshot,
}

impl NetPoint {
    /// Loopback goodput over the in-process baseline.
    pub fn ratio(&self) -> f64 {
        if self.baseline_rps > 0.0 {
            self.throughput_rps / self.baseline_rps
        } else {
            0.0
        }
    }
}

/// Outcome of the socket fault storm.
#[derive(Clone, Debug)]
pub struct NetStormResult {
    /// Replicas the resilient service ran.
    pub replicas: usize,
    /// Requests offered over the connection.
    pub requests: usize,
    /// Requests that completed with a response.
    pub completed: u64,
    /// Requests refused with a `Degraded` wire status.
    pub degraded: u64,
    /// Completed responses that did **not** match the pristine output —
    /// must be zero.
    pub corrupted: usize,
    /// Replicas quarantined after exhausting their rebuild budget.
    pub quarantines: u64,
    /// Rebuild-from-pristine recovery attempts.
    pub rebuilds: u64,
    /// Client-side transport/protocol failures — must be zero: every
    /// refusal must arrive as a status on the live connection.
    pub wire_errors: usize,
    /// Final service telemetry, rendered into the document via
    /// [`TelemetrySnapshot::to_json`].
    pub telemetry: TelemetrySnapshot,
}

/// Everything a suite run produces.
#[derive(Clone, Debug)]
pub struct NetBenchReport {
    /// The spec the run used.
    pub spec: NetBenchSpec,
    /// All sweep points, in design → replicas → connections order.
    pub points: Vec<NetPoint>,
    /// The socket fault-storm outcome.
    pub storm: NetStormResult,
}

impl NetBenchReport {
    /// The smallest loopback/baseline ratio across the sweep.
    pub fn worst_ratio(&self) -> f64 {
        self.points
            .iter()
            .map(NetPoint::ratio)
            .fold(f64::INFINITY, f64::min)
    }

    /// Renders the report as the `BENCH_net.json` document.
    pub fn to_json(&self) -> JsonValue {
        let sweep = self
            .points
            .iter()
            .map(|p| {
                JsonValue::object(vec![
                    ("design", JsonValue::String(p.design.into())),
                    ("replicas", JsonValue::Number(p.replicas as f64)),
                    ("connections", JsonValue::Number(p.connections as f64)),
                    ("baseline_rps", JsonValue::Number(p.baseline_rps)),
                    ("throughput_rps", JsonValue::Number(p.throughput_rps)),
                    ("ratio", JsonValue::Number(p.ratio())),
                    ("p50_ms", JsonValue::Number(p.p50_ms)),
                    ("p99_ms", JsonValue::Number(p.p99_ms)),
                    ("completed", JsonValue::Number(p.completed as f64)),
                    ("shed", JsonValue::Number(p.shed as f64)),
                    ("expired", JsonValue::Number(p.expired as f64)),
                    ("degraded", JsonValue::Number(p.degraded as f64)),
                    ("wire_errors", JsonValue::Number(p.wire_errors as f64)),
                    ("telemetry", p.telemetry.to_json()),
                ])
            })
            .collect();
        let storm = &self.storm;
        JsonValue::object(vec![
            ("bench", JsonValue::String("net".into())),
            ("mode", JsonValue::String(self.spec.mode.into())),
            (
                "layer",
                JsonValue::object(vec![
                    ("label", JsonValue::String(self.spec.layer_label.into())),
                    ("rows", JsonValue::Number(self.spec.rows as f64)),
                    ("cols", JsonValue::Number(self.spec.cols as f64)),
                ]),
            ),
            (
                "load",
                JsonValue::object(vec![
                    (
                        "device_latency_ms",
                        JsonValue::Number(self.spec.device_latency.as_secs_f64() * 1e3),
                    ),
                    ("offered_rps", JsonValue::Number(self.spec.rate_rps)),
                    (
                        "requests_per_point",
                        JsonValue::Number(self.spec.requests as f64),
                    ),
                    (
                        "queue_capacity",
                        JsonValue::Number(self.spec.queue_capacity as f64),
                    ),
                ]),
            ),
            (
                "loopback_floor",
                JsonValue::Number(loopback_floor(self.spec.mode)),
            ),
            ("sweep", JsonValue::Array(sweep)),
            (
                "storm",
                JsonValue::object(vec![
                    ("replicas", JsonValue::Number(storm.replicas as f64)),
                    ("requests", JsonValue::Number(storm.requests as f64)),
                    ("completed", JsonValue::Number(storm.completed as f64)),
                    ("degraded", JsonValue::Number(storm.degraded as f64)),
                    ("corrupted", JsonValue::Number(storm.corrupted as f64)),
                    ("quarantines", JsonValue::Number(storm.quarantines as f64)),
                    ("rebuilds", JsonValue::Number(storm.rebuilds as f64)),
                    ("wire_errors", JsonValue::Number(storm.wire_errors as f64)),
                    ("telemetry", storm.telemetry.to_json()),
                ]),
            ),
        ])
    }
}

/// The served network: the lowered conv layer as a linear layer, weights
/// fragment-polarized so both FORMS and ISAAC can map it (identical to
/// the `serve` suite's, so baselines are comparable).
fn net_network(spec: &NetBenchSpec) -> Network {
    let mut rng = StdRng::seed_from_u64(0x53184);
    let mut net = Network::new(vec![
        Layer::flatten(),
        Layer::linear(&mut rng, spec.rows, spec.cols),
    ]);
    let matrix = polarized_matrix(spec.rows, spec.cols, spec.mapping.fragment_size);
    net.for_each_weight_layer(&mut |wl| {
        if let WeightLayerMut::Linear(l) = wl {
            l.set_weight_matrix(&matrix);
        }
    });
    net
}

/// Tally of one connection's share of a loopback point.
#[derive(Default)]
struct ConnOutcome {
    completed: usize,
    shed: usize,
    expired: usize,
    degraded: usize,
    wire_errors: usize,
    latencies_ns: Vec<f64>,
}

/// Drives one connection's share of the offered load: a split
/// sender/receiver pair, the sender replaying its seeded Poisson schedule
/// without ever waiting for replies (open loop), the receiver draining
/// replies in order and timing each against its send instant.
fn drive_connection(
    addr: SocketAddr,
    spec: &NetBenchSpec,
    seed: u64,
    requests: usize,
    rate_rps: f64,
) -> ConnOutcome {
    let client_config = ClientConfig {
        request_timeout: Some(Duration::from_secs(60)),
        ..ClientConfig::default()
    };
    let client = match NetClient::connect(addr, client_config) {
        Ok(c) => c,
        Err(_) => {
            return ConnOutcome {
                wire_errors: requests,
                ..ConnOutcome::default()
            }
        }
    };
    let Ok((mut sender, mut receiver)) = client.split() else {
        return ConnOutcome {
            wire_errors: requests,
            ..ConnOutcome::default()
        };
    };
    let (sent_tx, sent_rx) = mpsc::channel::<Instant>();
    let mut outcome = ConnOutcome::default();
    let send_failures = std::thread::scope(|scope| {
        let sender_thread = scope.spawn(move || {
            let mut rng = StdRng::seed_from_u64(seed);
            let arrivals = poisson_arrivals(&mut rng, rate_rps, requests);
            let model = ActivationModel::half_normal(0.4);
            let mut failures = 0usize;
            let start = Instant::now();
            for at in &arrivals {
                let payload = synth_request(&mut rng, model, spec.rows);
                if let Some(gap) = (start + *at).checked_duration_since(Instant::now()) {
                    std::thread::sleep(gap);
                }
                let sent_at = Instant::now();
                if sender.send(&payload, None).is_ok() {
                    let _ = sent_tx.send(sent_at);
                } else {
                    failures += 1;
                }
            }
            sender.finish();
            failures
        });
        for sent_at in sent_rx {
            match receiver.recv() {
                Ok(reply) => match reply.outcome {
                    Ok(_) => {
                        outcome.completed += 1;
                        outcome
                            .latencies_ns
                            .push(sent_at.elapsed().as_nanos() as f64);
                    }
                    Err(WireStatus::Shed | WireStatus::ShuttingDown) => outcome.shed += 1,
                    Err(WireStatus::DeadlineExceeded) => outcome.expired += 1,
                    Err(WireStatus::Degraded) => outcome.degraded += 1,
                    Err(_) => outcome.wire_errors += 1,
                },
                Err(_) => {
                    outcome.wire_errors += 1;
                    break;
                }
            }
        }
        sender_thread.join().unwrap_or(requests)
    });
    outcome.wire_errors += send_failures;
    outcome
}

/// Runs one loopback sweep point: `connections` concurrent clients
/// splitting the offered load evenly over real sockets.
fn loopback_point<E>(
    design: &'static str,
    executor: &Executor<E>,
    spec: &NetBenchSpec,
    replicas: usize,
    connections: usize,
    baseline_rps: f64,
) -> NetPoint
where
    E: CrossbarEngine,
    E::Stats: Sync,
{
    let serve_config = spec.serve_config(replicas);
    let net_config = NetConfig {
        // Roomy in-flight window: the open-loop schedule must never stall
        // on the backpressure bound, or the measurement degenerates into
        // a closed loop.
        max_in_flight: spec.queue_capacity.max(64),
        ..NetConfig::default()
    };
    let base = spec.requests / connections;
    let extra = spec.requests % connections;
    let ((outcomes, elapsed), telemetry) =
        serve_net(executor, &[spec.rows], &serve_config, &net_config, |net| {
            let addr = net.addr();
            let started = Instant::now();
            let outcomes: Vec<ConnOutcome> = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..connections)
                    .map(|c| {
                        let requests = base + usize::from(c < extra);
                        let rate = spec.rate_rps / connections as f64;
                        let seed = 0x11E7 ^ ((replicas as u64) << 16) ^ ((c as u64) << 4);
                        scope.spawn(move || drive_connection(addr, spec, seed, requests, rate))
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| {
                        h.join().unwrap_or_else(|_| ConnOutcome {
                            wire_errors: base + 1,
                            ..ConnOutcome::default()
                        })
                    })
                    .collect()
            });
            (outcomes, started.elapsed())
        })
        .expect("loopback listener binds");
    let mut point = NetPoint {
        design,
        replicas,
        connections,
        baseline_rps,
        throughput_rps: 0.0,
        p50_ms: 0.0,
        p99_ms: 0.0,
        completed: 0,
        shed: 0,
        expired: 0,
        degraded: 0,
        wire_errors: 0,
        telemetry,
    };
    let mut ns: Vec<f64> = Vec::new();
    for o in outcomes {
        point.completed += o.completed;
        point.shed += o.shed;
        point.expired += o.expired;
        point.degraded += o.degraded;
        point.wire_errors += o.wire_errors;
        ns.extend(o.latencies_ns);
    }
    ns.sort_by(f64::total_cmp);
    point.throughput_rps = if elapsed.is_zero() {
        0.0
    } else {
        point.completed as f64 / elapsed.as_secs_f64()
    };
    point.p50_ms = percentile(&ns, 0.50) / 1e6;
    point.p99_ms = percentile(&ns, 0.99) / 1e6;
    println!(
        "{:>5} r={} c={}  {:>7.1} req/s over loopback vs {:>7.1} in-process ({:.2}x)  p99 {:>8.1} ms  {} ok / {} shed / {} wire errors",
        design,
        replicas,
        connections,
        point.throughput_rps,
        baseline_rps,
        point.ratio(),
        point.p99_ms,
        point.completed,
        point.shed,
        point.wire_errors,
    );
    point
}

/// Measures the in-process baseline at one replica count: the same
/// offered trace through [`run_open_loop`], no sockets anywhere.
fn in_process_baseline<E>(executor: &Executor<E>, spec: &NetBenchSpec, replicas: usize) -> f64
where
    E: CrossbarEngine,
    E::Stats: Sync,
{
    let load = OpenLoopSpec {
        rate_rps: spec.rate_rps,
        requests: spec.requests,
        seed: 0x11E7 ^ ((replicas as u64) << 16),
        model: ActivationModel::half_normal(0.4),
        deadline: None,
    };
    let (report, _telemetry) = serve(executor, &[spec.rows], &spec.serve_config(replicas), |h| {
        run_open_loop(h, &load)
    });
    report.throughput_rps()
}

/// Sweeps replicas × connections for one design.
fn sweep_design<E>(
    design: &'static str,
    executor: &Executor<E>,
    spec: &NetBenchSpec,
) -> Vec<NetPoint>
where
    E: CrossbarEngine,
    E::Stats: Sync,
{
    let mut points = Vec::new();
    for &replicas in &spec.replicas {
        let baseline = in_process_baseline(executor, spec, replicas);
        for &connections in &spec.connections {
            points.push(loopback_point(
                design,
                executor,
                spec,
                replicas,
                connections,
                baseline,
            ));
        }
    }
    points
}

/// The storm's *single-polarity* layer (every weight positive), so a
/// stuck-high campaign can only inflate outputs past the pristine
/// ceiling where the sentinels must see it — same reasoning as the
/// `faults` suite's storm.
fn storm_network(spec: &NetBenchSpec) -> Network {
    let mut rng = StdRng::seed_from_u64(0x570_0142);
    let mut net = Network::new(vec![
        Layer::flatten(),
        Layer::linear(&mut rng, spec.rows, spec.cols),
    ]);
    let matrix = Tensor::from_fn(&[spec.rows, spec.cols], |i| {
        0.05 + ((i * 31) % 13) as f32 * 0.07
    });
    net.for_each_weight_layer(&mut |wl| {
        if let WeightLayerMut::Linear(l) = wl {
            l.set_weight_matrix(&matrix);
        }
    });
    net
}

/// Runs the socket fault storm: one TCP client against a two-replica
/// resilient service, replica 0 persistently poisoned after a warmup.
/// Full-scale inputs leave the stuck-high array no quantization headroom,
/// so the output sentinels refuse every corrupted batch as `Degraded` —
/// which must reach the client as wire statuses on the live connection.
fn run_storm(spec: &NetBenchSpec) -> NetStormResult {
    let replicas = 2;
    let pristine = Executor::<MappedLayer>::map_network(
        &storm_network(spec),
        &spec.mapping,
        spec.mapping.input_bits,
    )
    .expect("storm layer maps on FORMS");
    let request = vec![1.0f32; spec.rows];
    let clean = pristine
        .clone()
        .forward(&Tensor::from_vec(request.clone(), &[1, spec.rows]))
        .into_vec();
    let config = ResilientConfig {
        serve: ServeConfig {
            replicas,
            queue_capacity: spec.storm_requests.max(4),
            max_batch: 2,
            default_deadline: None,
        },
        policy: HealthPolicy {
            // Tolerate the raw density so the sentinel path (not the
            // density gate) is what refuses corrupted batches.
            max_fault_density: 1.0,
            max_rebuilds: 1,
            backoff: Duration::from_micros(100),
            backoff_multiplier: 2.0,
        },
    };
    let poison = FaultCampaign::stuck_at(0x570_12A, 0.0, 0.35);
    let warmup = spec.storm_requests / 3;
    let max_waves = 400;
    let ((requests, ok_outputs, degraded, wire_errors), telemetry) = serve_net_resilient(
        &pristine,
        &[spec.rows],
        &config,
        &NetConfig::default(),
        |net, faults| {
            let addr = net.addr();
            let service = net.service().clone();
            let request = &request;
            std::thread::scope(|scope| {
                let worker = scope.spawn(move || {
                    let mut client = NetClient::connect(addr, ClientConfig::default())
                        .expect("storm client connects");
                    let mut ok_outputs: Vec<Vec<f32>> = Vec::new();
                    let mut degraded = 0usize;
                    let mut wire_errors = 0usize;
                    let mut requests = 0usize;
                    let mut drive =
                        |n: usize, ok: &mut Vec<Vec<f32>>, deg: &mut usize, wire: &mut usize| {
                            for _ in 0..n {
                                match client.call(request, None) {
                                    Ok(reply) => match reply.outcome {
                                        Ok(out) => ok.push(out),
                                        Err(WireStatus::Degraded) => *deg += 1,
                                        Err(other) => panic!("unexpected storm status {other}"),
                                    },
                                    Err(_) => *wire += 1,
                                }
                            }
                        };
                    drive(warmup, &mut ok_outputs, &mut degraded, &mut wire_errors);
                    requests += warmup;
                    faults.poison(0, poison);
                    // Recovery is asynchronous: keep offering small waves
                    // until the quarantine shows up in telemetry, capped.
                    let mut waves = 0;
                    while requests < spec.storm_requests
                        || (service.telemetry().quarantines == 0 && waves < max_waves)
                    {
                        drive(2, &mut ok_outputs, &mut degraded, &mut wire_errors);
                        requests += 2;
                        waves += 1;
                    }
                    (requests, ok_outputs, degraded, wire_errors)
                });
                worker.join().expect("storm client thread")
            })
        },
    )
    .expect("storm listener binds");
    let corrupted = ok_outputs.iter().filter(|o| **o != clean).count();
    println!(
        "storm: {} requests over one socket -> {} completed ({} corrupted), {} degraded statuses, {} wire errors, {} quarantined",
        requests, telemetry.completed, corrupted, degraded, wire_errors, telemetry.quarantines,
    );
    assert_eq!(
        degraded as u64, telemetry.degraded,
        "wire-observed and telemetry degraded counts must agree"
    );
    NetStormResult {
        replicas,
        requests,
        completed: telemetry.completed,
        degraded: telemetry.degraded,
        corrupted,
        quarantines: telemetry.quarantines,
        rebuilds: telemetry.rebuilds,
        wire_errors,
        telemetry,
    }
}

/// Runs the whole suite for a spec.
///
/// # Panics
///
/// Panics if the benchmark layer cannot be mapped or the loopback
/// listener cannot bind (a bug in the spec or a broken sandbox).
pub fn run(spec: &NetBenchSpec) -> NetBenchReport {
    let net = net_network(spec);
    let forms_config = PacedConfig {
        inner: spec.mapping,
        latency: spec.device_latency,
    };
    let forms = Executor::<PacedEngine<MappedLayer>>::map_network(
        &net,
        &forms_config,
        spec.mapping.input_bits,
    )
    .expect("bench layer maps on FORMS");
    let isaac_config = PacedConfig {
        inner: IsaacConfig {
            crossbar_dim: spec.mapping.crossbar_dim,
            cell: spec.mapping.cell,
            weight_bits: spec.mapping.weight_bits,
            input_bits: spec.mapping.input_bits,
        },
        latency: spec.device_latency,
    };
    let isaac = Executor::<PacedEngine<IsaacLayer>>::map_network(
        &net,
        &isaac_config,
        spec.mapping.input_bits,
    )
    .expect("bench layer maps on ISAAC");

    let mut points = sweep_design("FORMS", &forms, spec);
    points.extend(sweep_design("ISAAC", &isaac, spec));
    let storm = run_storm(spec);
    NetBenchReport {
        spec: spec.clone(),
        points,
        storm,
    }
}

/// Checks that a parsed `BENCH_net.json` document has the shape this
/// suite writes and proves the front-end's two claims: loopback goodput
/// holds the mode's [`loopback_floor`] of the in-process baseline at
/// every sweep point with zero wire errors, and the socket fault storm
/// completed requests with zero corrupted responses, `Degraded` surfacing
/// as wire statuses, and a quarantine.
///
/// # Errors
///
/// Returns a description of the first structural problem found.
pub fn validate(doc: &JsonValue) -> Result<(), String> {
    if doc.get("bench").and_then(JsonValue::as_str) != Some("net") {
        return Err("missing or wrong `bench` field".into());
    }
    let mode = match doc.get("mode").and_then(JsonValue::as_str) {
        Some(m @ ("full" | "smoke")) => m,
        _ => return Err("`mode` must be \"full\" or \"smoke\"".into()),
    };
    let floor = doc
        .get("loopback_floor")
        .and_then(JsonValue::as_f64)
        .ok_or("missing numeric `loopback_floor`")?;
    if floor != loopback_floor(mode) {
        return Err(format!(
            "`loopback_floor` must be {} in {mode} mode",
            loopback_floor(mode)
        ));
    }
    let sweep = doc
        .get("sweep")
        .and_then(JsonValue::as_array)
        .ok_or("missing `sweep` array")?;
    if sweep.is_empty() {
        return Err("`sweep` must not be empty".into());
    }
    let mut designs_seen = (false, false);
    for (i, point) in sweep.iter().enumerate() {
        match point.get("design").and_then(JsonValue::as_str) {
            Some("FORMS") => designs_seen.0 = true,
            Some("ISAAC") => designs_seen.1 = true,
            _ => return Err(format!("sweep[{i}] has no valid `design`")),
        }
        let num = |key: &str| {
            point
                .get(key)
                .and_then(JsonValue::as_f64)
                .ok_or_else(|| format!("sweep[{i}] missing numeric `{key}`"))
        };
        let (baseline, throughput) = (num("baseline_rps")?, num("throughput_rps")?);
        if !(baseline.is_finite() && baseline > 0.0) {
            return Err(format!("sweep[{i}] has a non-positive baseline"));
        }
        if !(throughput.is_finite() && throughput > 0.0) {
            return Err(format!("sweep[{i}] has non-positive loopback throughput"));
        }
        let ratio = num("ratio")?;
        if (ratio - throughput / baseline).abs() > 1e-9 {
            return Err(format!("sweep[{i}] ratio is inconsistent with its rates"));
        }
        if ratio < floor {
            return Err(format!(
                "sweep[{i}] loopback held only {ratio:.2}x of in-process (floor {floor})"
            ));
        }
        let (p50, p99) = (num("p50_ms")?, num("p99_ms")?);
        if !(p50.is_finite() && p99.is_finite() && 0.0 < p50 && p50 <= p99) {
            return Err(format!("sweep[{i}] latency percentiles out of order"));
        }
        if num("completed")? <= 0.0 {
            return Err(format!("sweep[{i}] completed nothing"));
        }
        if num("wire_errors")? != 0.0 {
            return Err(format!("sweep[{i}] recorded wire errors"));
        }
        let snapshot = point
            .get("telemetry")
            .ok_or_else(|| format!("sweep[{i}] missing `telemetry` snapshot"))?;
        let parsed = TelemetrySnapshot::from_json(snapshot)
            .map_err(|e| format!("sweep[{i}].telemetry does not parse as a snapshot: {e}"))?;
        crate::serve::validate_stage_breakdown(&parsed)
            .map_err(|e| format!("sweep[{i}].telemetry: {e}"))?;
    }
    if !(designs_seen.0 && designs_seen.1) {
        return Err("sweep must cover both FORMS and ISAAC".into());
    }
    let storm = doc.get("storm").ok_or("missing `storm` object")?;
    let num = |key: &str| {
        storm
            .get(key)
            .and_then(JsonValue::as_f64)
            .ok_or_else(|| format!("missing numeric `storm.{key}`"))
    };
    if num("corrupted")? != 0.0 {
        return Err("storm returned corrupted responses over the wire".into());
    }
    if num("wire_errors")? != 0.0 {
        return Err("storm dropped connections instead of returning statuses".into());
    }
    if num("completed")? <= 0.0 {
        return Err("storm completed no requests — no availability".into());
    }
    if num("degraded")? < 1.0 {
        return Err("storm recorded no Degraded wire statuses".into());
    }
    if num("quarantines")? < 1.0 {
        return Err("storm never quarantined the poisoned replica".into());
    }
    let snapshot = storm
        .get("telemetry")
        .ok_or("missing `storm.telemetry` snapshot")?;
    let parsed = TelemetrySnapshot::from_json(snapshot)
        .map_err(|e| format!("`storm.telemetry` does not parse as a snapshot: {e}"))?;
    if parsed.degraded as f64 != num("degraded")? {
        return Err("`storm.telemetry` disagrees with the storm counters".into());
    }
    crate::serve::validate_stage_breakdown(&parsed).map_err(|e| format!("storm.telemetry: {e}"))?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    // One socket suite run feeds both the round-trip and the rejection
    // checks: a second concurrent run would double the load-dependent
    // noise in every timed point for no extra coverage.
    #[test]
    fn smoke_report_round_trips_validates_and_rejects_mutations() {
        let report = run(&NetBenchSpec::smoke());
        let doc = report.to_json();
        validate(&doc).unwrap();
        let reparsed = parse(&doc.pretty()).unwrap();
        validate(&reparsed).unwrap();
        assert_eq!(reparsed, doc);
        assert!(report.worst_ratio() >= loopback_floor("smoke"));
        assert_eq!(report.storm.corrupted, 0);
        assert_eq!(report.storm.wire_errors, 0);

        let good = doc;
        let JsonValue::Object(fields) = &good else {
            panic!("report is an object")
        };
        for missing in ["bench", "mode", "loopback_floor", "sweep", "storm"] {
            let broken = JsonValue::Object(
                fields
                    .iter()
                    .filter(|(k, _)| k.as_str() != missing)
                    .cloned()
                    .collect(),
            );
            assert!(validate(&broken).is_err(), "accepted doc without {missing}");
        }
        // A loopback slowdown below the floor must fail validation.
        let mut slowed = fields.clone();
        for (k, v) in &mut slowed {
            if k != "sweep" {
                continue;
            }
            if let JsonValue::Array(points) = v {
                if let Some(JsonValue::Object(point)) = points.first_mut() {
                    for (pk, pv) in point.iter_mut() {
                        if pk == "throughput_rps" || pk == "ratio" {
                            *pv = JsonValue::Number(pv.as_f64().unwrap() * 0.1);
                        }
                    }
                }
            }
        }
        assert!(validate(&JsonValue::Object(slowed)).is_err());
        // A corrupted storm response must fail validation.
        let mut poisoned = fields.clone();
        for (k, v) in &mut poisoned {
            if k != "storm" {
                continue;
            }
            if let JsonValue::Object(storm) = v {
                for (sk, sv) in storm.iter_mut() {
                    if sk == "corrupted" {
                        *sv = JsonValue::Number(1.0);
                    }
                }
            }
        }
        assert!(validate(&JsonValue::Object(poisoned)).is_err());
        assert!(validate(&JsonValue::Null).is_err());
    }
}
