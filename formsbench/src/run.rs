//! One benchmark run of one workload: in each of several rounds, set a
//! server up and drive a slice of the three phases through a loopback
//! socket; check every output, and derive the end-to-end (untraced) or
//! per-layer (traced) metrics over all rounds.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use forms_arch::{MappedLayer, MappingConfig};
use forms_exec::Executor;
use forms_net::{ClientConfig, Frame, NetClient, NetConfig, NetHandle, NetServerExt};
use forms_serve::{FaultInjector, Server, TelemetrySnapshot};

use crate::drive::{
    bitwise_equal, drive, Ctx, Failure, PhaseRun, SocketDrain, Tally, TicketDrain, Traffic,
    SAMPLED_RECORDS,
};
use crate::host;
use crate::layers::{time_forward, time_health, Replay, Timed};
use crate::spans::SpanLog;
use crate::stats::{best_quarter, calm_tail, median, percentile, slice_p50s, sort, tail};
use crate::workload::{mix, Round, Seeds, Workload, FRAGMENT, POOL, ROUNDS};

/// Closed-loop warm-up of each round's server before its measured slices.
const WARMUP: Duration = Duration::from_millis(100);

/// Host-time budget of each offline timing loop of the traced run.
const OFFLINE_BUDGET: Duration = Duration::from_millis(600);

/// One reported metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// What a run reports.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// Every output matched, every count agreed, every metric is valid.
    pub correct: bool,
    /// Requests offered.
    pub attempted: u64,
    /// Requests that produced no correct output.
    pub failed: u64,
    /// The metrics of the run's mode.
    pub metrics: Vec<Metric>,
    /// Why `correct` is false, one line each.
    pub problems: Vec<String>,
}

impl RunResult {
    /// The result line: one JSON object.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// The phases a run drives. After the last round each phase holds all of
/// its slices, concatenated.
struct Phases {
    warmup: PhaseRun,
    light: PhaseRun,
    heavy: PhaseRun,
    capacity: PhaseRun,
    /// Traced run only: the capacity phase again with tracing off, and the
    /// in-process light and heavy passes.
    untraced_capacity: Option<PhaseRun>,
    inproc: Option<[PhaseRun; 2]>,
}

impl Phases {
    fn runs(&self) -> Vec<&PhaseRun> {
        let mut runs = vec![&self.warmup, &self.light, &self.heavy, &self.capacity];
        runs.extend(self.untraced_capacity.iter());
        runs.extend(self.inproc.iter().flatten());
        runs
    }

    /// Appends a later round's slices.
    fn absorb(&mut self, other: Phases) {
        self.warmup.absorb(other.warmup);
        self.light.absorb(other.light);
        self.heavy.absorb(other.heavy);
        self.capacity.absorb(other.capacity);
        if let (Some(mine), Some(theirs)) = (&mut self.untraced_capacity, other.untraced_capacity) {
            mine.absorb(theirs);
        }
        if let (Some([light, heavy]), Some([l, h])) = (&mut self.inproc, other.inproc) {
            light.absorb(l);
            heavy.absorb(h);
        }
    }
}

/// Everything one round produced.
struct RoundRun {
    /// Model build, mapping and server start until the first reply.
    setup: Duration,
    /// `Executor::map_network` alone, in ms.
    map_ms: f64,
    /// The first request's outcome.
    first: Result<(), Failure>,
    /// The round's slice of every phase.
    phases: Phases,
    /// Fault campaigns the generator injected.
    injections: u64,
    /// How many times slower than calm the host ran just before the
    /// round's `capacity` slice (see [`host::slowdown`]).
    slowdown: f64,
    /// The round's server's own account.
    snapshot: TelemetrySnapshot,
}

/// Runs the workload's server over a loopback socket for the duration of
/// `client`: the resilient server (with its fault injector) for the
/// resilient workload, the plain one otherwise.
fn serve<R>(
    w: Workload,
    exec: &Executor<MappedLayer>,
    client: impl FnOnce(&NetHandle, Option<&FaultInjector<'_>>) -> R,
) -> Result<(R, TelemetrySnapshot), String> {
    let builder = Server::builder()
        .config(w.serve_config())
        .health(w.health_policy());
    let dims = w.sample_dims();
    let net = NetConfig::default();
    let served = if w.resilient() {
        builder.run_net_resilient(exec, &dims, &net, |h, inj| client(h, Some(inj)))
    } else {
        builder.run_net(exec, &dims, &net, |h| client(h, None))
    };
    served.map_err(|e| format!("cannot bind a loopback listener: {e}"))
}

/// Sends one request and checks its reply.
fn call(client: &mut NetClient, payload: &[f32], reference: &[f32]) -> Result<(), Failure> {
    match client.call(payload, None) {
        Ok(reply) => match reply.outcome {
            Ok(out) if bitwise_equal(&out, reference) => Ok(()),
            Ok(_) => Err(Failure::Mismatch),
            Err(_) => Err(Failure::Failed),
        },
        Err(_) => Err(Failure::Wire),
    }
}

/// What every round shares.
struct RunCtx<'a> {
    w: Workload,
    seeds: &'a Seeds,
    window: usize,
    pool: &'a [Vec<f32>],
    reference: &'a [Vec<f32>],
    trace: bool,
    /// Campaigns injected so far in the run; numbers each campaign.
    injections: AtomicU64,
}

/// One round: builds the model, maps it and starts a server (timed until
/// the first reply), then drives the round's slice of every phase through
/// it and shuts it down.
fn round(x: &RunCtx<'_>, round: &Round) -> Result<RoundRun, String> {
    let before = x.injections.load(Ordering::Relaxed);
    let t0 = Instant::now();
    let net = x.w.network();
    let tm = Instant::now();
    let exec = x.w.map(&net).map_err(|e| format!("mapping failed: {e}"))?;
    let map_ms = tm.elapsed().as_secs_f64() * 1e3;
    let (client, snapshot) = serve(x.w, &exec, |h, injector| session(x, round, t0, h, injector))?;
    let (setup, first, phases, slowdown) = client?;
    Ok(RoundRun {
        setup,
        map_ms,
        first,
        phases,
        injections: x.injections.load(Ordering::Relaxed) - before,
        slowdown,
        snapshot,
    })
}

/// The client side of a round's server: first request, warm-up, the three
/// phase slices and, when traced, the extra passes.
fn session(
    x: &RunCtx<'_>,
    round: &Round,
    t0: Instant,
    h: &NetHandle,
    injector: Option<&FaultInjector<'_>>,
) -> Result<(Duration, Result<(), Failure>, Phases, f64), String> {
    let (w, pool, reference) = (x.w, x.pool, x.reference);
    let mut client = NetClient::connect(h.addr(), ClientConfig::default())
        .map_err(|e| format!("cannot connect: {e}"))?;
    let first = call(&mut client, &pool[0], &reference[0]);
    let setup = t0.elapsed();
    let (mut tx, rx) = client
        .split()
        .map_err(|e| format!("cannot split the client: {e}"))?;
    let mut drain = SocketDrain::new(rx);

    let (sent, before) = (AtomicU64::new(0), x.injections.load(Ordering::Relaxed));
    let on_send = || {
        if let (Some(every), Some(injector)) = (w.inject_every(), injector) {
            if (sent.fetch_add(1, Ordering::Relaxed) + 1) % every == 0 {
                let j = x.injections.fetch_add(1, Ordering::Relaxed);
                injector.inject((j % 2) as usize, Workload::campaign(x.seeds, j));
            }
        }
    };
    // Traced runs keep about SAMPLED_RECORDS full records per phase over
    // all rounds.
    let every = |n: f64| {
        x.trace
            .then(|| (n * ROUNDS as f64 / SAMPLED_RECORDS as f64).ceil().max(1.0) as usize)
    };
    let ctx = |sample_every| Ctx {
        pool,
        reference,
        sample_every,
        on_send: &on_send,
    };
    let capacity = Traffic::Closed {
        window: x.window,
        duration: round.capacity_time,
        seed: round.capacity_seed,
    };
    let warmup = Traffic::Closed {
        window: x.window,
        duration: WARMUP,
        seed: mix(round.capacity_seed, 1),
    };
    let light_ctx = ctx(every(round.light.due.len() as f64));
    let heavy_ctx = ctx(every(round.heavy.due.len() as f64));
    let [_, heavy_rps] = w.open_loop_rates();
    let capacity_ctx = ctx(every(2.0 * heavy_rps * round.capacity_time.as_secs_f64()));
    let warmup = drive(&mut tx, &mut drain, &ctx(None), warmup);
    let light = drive(&mut tx, &mut drain, &light_ctx, Traffic::Open(&round.light));
    let heavy = drive(&mut tx, &mut drain, &heavy_ctx, Traffic::Open(&round.heavy));
    let slowdown = host::slowdown();
    let capacity_run = drive(&mut tx, &mut drain, &capacity_ctx, capacity);
    let (untraced_capacity, inproc) = if x.trace {
        let untraced = drive(&mut tx, &mut drain, &ctx(None), capacity);
        let mut service = h.service().clone();
        let light = drive(
            &mut service,
            &mut TicketDrain,
            &light_ctx,
            Traffic::Open(&round.light),
        );
        let heavy = drive(
            &mut service,
            &mut TicketDrain,
            &heavy_ctx,
            Traffic::Open(&round.heavy),
        );
        (Some(untraced), Some([light, heavy]))
    } else {
        (None, None)
    };
    // A campaign is applied between batches; let the last ones land before
    // the queue closes, so every injection is accounted for.
    let injections = x.injections.load(Ordering::Relaxed) - before;
    let deadline = Instant::now() + Duration::from_secs(2);
    while h.telemetry().faults_injected < injections && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    tx.finish();
    let phases = Phases {
        warmup,
        light,
        heavy,
        capacity: capacity_run,
        untraced_capacity,
        inproc,
    };
    Ok((setup, first, phases, slowdown))
}

/// The process's peak resident set (`VmHWM`), in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// Runs one workload for about `seconds` of measured load, in [`ROUNDS`]
/// rounds.
///
/// # Errors
///
/// A message when the run could not be carried out at all (mapping or
/// binding failed); correctness failures are reported in the result.
pub fn run(w: Workload, seed: u64, seconds: u64, trace: bool) -> Result<RunResult, String> {
    let seeds = Seeds::derive(seed);
    let pool = w.payload_pool(&seeds);
    let plan = w.plan(&seeds, seconds as f64);
    let reference_exec = w
        .map(&w.network())
        .map_err(|e| format!("mapping failed: {e}"))?;
    let replay = Replay::run(w, &reference_exec, &pool);
    let x = RunCtx {
        w,
        seeds: &seeds,
        window: plan.window,
        pool: &pool,
        reference: &replay.reference,
        trace,
        injections: AtomicU64::new(0),
    };

    let mut problems = Vec::new();
    let mut tally = Tally::default();
    let (mut setups, mut map_ms, mut snapshots) = (Vec::new(), Vec::new(), Vec::new());
    let (mut round_phases, mut slowdowns) = (Vec::new(), Vec::new());
    for (r, plan_round) in plan.rounds.iter().enumerate() {
        let round = round(&x, plan_round)?;
        let p50 = |run: &PhaseRun| slice_p50s(&run.slices())[0];
        eprintln!(
            "round {r}: setup {:.2} ms, light p50 {:.3} ms, heavy p50 {:.3} ms, \
             capacity {:.0} req/s, host slowdown {:.3}",
            round.setup.as_secs_f64() * 1e3,
            p50(&round.phases.light),
            p50(&round.phases.heavy),
            round.phases.capacity.completed_per_second(),
            round.slowdown,
        );
        slowdowns.push(round.slowdown);
        setups.push(round.setup.as_secs_f64());
        map_ms.push(round.map_ms);
        // Outcomes, and the MVMs the round's completed requests must have
        // cost on its server.
        let mut served = vec![0u64; POOL];
        tally.add(round.first);
        if round.first.is_ok() {
            served[0] += 1;
        }
        for run in round.phases.runs() {
            tally.merge(&run.tally);
            for (total, n) in served.iter_mut().zip(&run.served) {
                *total += n;
            }
        }
        let expected = replay.expected_mvms(&served);
        let snapshot = &round.snapshot;
        let counted: Vec<u64> = snapshot.layers.iter().map(|l| l.mvms).collect();
        if counted != expected {
            problems.push(format!(
                "round {r}: server counted {counted:?} MVMs per layer, the offline replay {expected:?}"
            ));
        }
        if w.resilient()
            && (snapshot.rebuilds != round.injections
                || snapshot.faults_injected != round.injections
                || snapshot.quarantines != 0
                || snapshot.degraded != 0)
        {
            problems.push(format!(
                "round {r}: {} injections gave {} applied campaigns, {} rebuilds, \
                 {} quarantines, {} degraded",
                round.injections,
                snapshot.faults_injected,
                snapshot.rebuilds,
                snapshot.quarantines,
                snapshot.degraded
            ));
        }
        snapshots.push(round.snapshot);
        round_phases.push(round.phases);
    }
    if tally.mismatches > 0 {
        problems.push(format!(
            "{} outputs differ from the offline reference",
            tally.mismatches
        ));
    }
    let mut rounds = round_phases.into_iter();
    let mut phases = rounds.next().ok_or("the plan has no rounds")?;
    for round in rounds {
        phases.absorb(round);
    }

    // Each end-to-end figure is taken per round, and the best quarter of
    // the rounds is reported (see `best_quarter`); a p99 pools the calmest
    // rounds by their p50 until it is supported.
    let light_p50s = slice_p50s(&phases.light.slices());
    let heavy_p50s = slice_p50s(&phases.heavy.slices());
    let mut p99 = |name: &str, run: &PhaseRun, p50s: &[f64]| {
        calm_tail(&run.slices(), p50s, 0.99).unwrap_or_else(|| {
            problems.push(format!(
                "{name}: {} completed requests cannot support a p99",
                run.rtt_ms.len()
            ));
            f64::NAN
        })
    };
    let light_p99 = p99("light", &phases.light, &light_p50s);
    let heavy_p99 = p99("heavy", &phases.heavy, &heavy_p50s);
    // Every host-time figure moves with the host's speed: each is scaled to
    // a calm host by the run's median slowdown.
    let slowdown = median(&slowdowns);
    let unscaled_light_p50 = best_quarter(&light_p50s, true);
    let unscaled_heavy_p50 = best_quarter(&heavy_p50s, true);
    let light_p50 = unscaled_light_p50 / slowdown;
    let heavy_p50 = unscaled_heavy_p50 / slowdown;
    let unscaled_rps = best_quarter(&phases.capacity.slice_rates, false);
    let capacity_rps = unscaled_rps * slowdown;
    let unscaled_setup_s = median(&setups);
    let setup_s = unscaled_setup_s / slowdown;

    let metrics = if trace {
        let layers = LayerInputs {
            w,
            seeds: &seeds,
            pool: &pool,
            replay: &replay,
            reference_exec: &reference_exec,
            phases: &phases,
            snapshots: &snapshots,
            map_ms: median(&map_ms),
            light_p50_ms: median(&light_p50s),
            capacity_rps: phases.capacity.completed_per_second(),
        };
        // The p99s are reported here, without a bound: a shared host's CPU
        // steal pauses a vCPU for milliseconds, and such pauses set the
        // tail of every round while the host is busy.
        let mut metrics = vec![
            m("light.p99_ms", light_p99, "ms"),
            m("heavy.p99_ms", heavy_p99, "ms"),
            m("light.unscaled_p50_ms", unscaled_light_p50, "ms"),
            m("heavy.unscaled_p50_ms", unscaled_heavy_p50, "ms"),
            m("capacity.unscaled_rps", unscaled_rps, "req/s"),
            m("setup.unscaled_s", unscaled_setup_s, "s"),
            m("host.slowdown", slowdown, "ratio"),
        ];
        metrics.extend(layer_metrics(&layers)?);
        metrics
    } else {
        vec![
            m("light.p50_ms", light_p50, "ms"),
            m("heavy.p50_ms", heavy_p50, "ms"),
            m("capacity_rps", capacity_rps, "req/s"),
            m("served_share", 1.0 - tally.error_share(), "fraction"),
            m("setup_s", setup_s, "s"),
            m("peak_rss_mb", peak_rss_mb()?, "MB"),
            m("device_fps", replay.device_fps, "frames/s"),
            m("device_pj_per_request", replay.device_pj_per_request, "pJ"),
        ]
    };
    if let Some(m) = metrics.iter().find(|m| !m.value.is_finite()) {
        problems.push(format!("{} is not a finite number", m.name));
    }
    let metrics = metrics
        .into_iter()
        .map(|m| Metric {
            value: if m.value.is_finite() { m.value } else { -1.0 },
            ..m
        })
        .collect();
    eprintln!(
        "{}: seed {seed}, {} offered, {} completed, {} shed, {} expired, {} degraded, {} failed, \
         {} timeouts, {} wire errors, {} mismatches (error_share {:.6})",
        w.name(),
        tally.offered,
        tally.completed,
        tally.shed,
        tally.expired,
        tally.degraded,
        tally.failed,
        tally.timeouts,
        tally.wire,
        tally.mismatches,
        tally.error_share()
    );
    Ok(RunResult {
        correct: problems.is_empty(),
        attempted: tally.offered,
        failed: tally.errors(),
        metrics,
        problems,
    })
}

/// What the per-layer metrics are computed from.
struct LayerInputs<'a> {
    w: Workload,
    seeds: &'a Seeds,
    pool: &'a [Vec<f32>],
    replay: &'a Replay,
    reference_exec: &'a Executor<MappedLayer>,
    phases: &'a Phases,
    snapshots: &'a [TelemetrySnapshot],
    map_ms: f64,
    light_p50_ms: f64,
    capacity_rps: f64,
}

/// A sorted copy.
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    sort(&mut v);
    v
}

/// Median by rank of a sorted sample (NaN when empty).
fn p50(sorted: &[f64]) -> f64 {
    if sorted.is_empty() {
        f64::NAN
    } else {
        percentile(sorted, 0.5)
    }
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// The traced run's per-layer metrics; also writes the span log.
fn layer_metrics(x: &LayerInputs<'_>) -> Result<Vec<Metric>, String> {
    let s = x.phases;
    let [inproc_light, inproc_heavy] = s.inproc.as_ref().ok_or("traced passes missing")?;
    let untraced = s
        .untraced_capacity
        .as_ref()
        .ok_or("untraced pass missing")?;
    let origin = s.light.sampled.first().map_or_else(Instant::now, |r| r.due);
    let mut log = SpanLog::new(origin);
    let mut request = 0u64;

    // Socket spans: request -> {net.send, net.recv -> server}.
    let (mut lag_ms, mut send_us, mut residual_us) = (Vec::new(), Vec::new(), Vec::new());
    for (run, open) in [(&s.light, true), (&s.heavy, true), (&s.capacity, false)] {
        for r in &run.sampled {
            request += 1;
            let root = log.push("request", None, request, r.due, r.done);
            log.push("net.send", Some(root), request, r.sent, r.sent_end);
            let recv = log.push(
                "net.recv",
                Some(root),
                request,
                r.recv_start.max(r.sent_end),
                r.done,
            );
            let server_end = (r.sent_end + r.server).min(r.done);
            log.push("server", Some(recv), request, r.sent_end, server_end);
            send_us.push(us(r.sent_end - r.sent));
            if open {
                lag_ms.push(r.sent.saturating_duration_since(r.due).as_secs_f64() * 1e3);
                residual_us.push(us(r.done.saturating_duration_since(r.sent)) - us(r.server));
            }
        }
    }
    let socket_requests = request.max(1) as f64;
    // In-process spans: inproc.request -> the server's four stages, laid
    // end to end from the submit instant.
    let mut batches = Vec::new();
    for r in inproc_light.sampled.iter().chain(&inproc_heavy.sampled) {
        request += 1;
        let root = log.push("inproc.request", None, request, r.due, r.done);
        if let Some(st) = r.stages {
            let mut at = r.sent;
            for (name, d) in [
                ("serve.queue_wait", st.queue_wait),
                ("serve.batch_form", st.batch_form),
                ("serve.execute", st.execute),
                ("serve.respond", st.respond),
            ] {
                log.push(name, Some(root), request, at, at + d);
                at += d;
            }
        }
        batches.extend(r.batch.map(|b| b as f64));
    }
    let mean_batch = if batches.is_empty() {
        f64::NAN
    } else {
        batches.iter().sum::<f64>() / batches.len() as f64
    };
    let max_batch = x.w.serve_config().max_batch;
    let served_batch = (mean_batch.round() as usize).clamp(1, max_batch);

    // Offline exec and kernel timing through the timed engine; only the
    // pass at the served batch size goes into the span log.
    let timed: Executor<Timed<MappedLayer>> = Executor::map_network(
        &x.w.network(),
        &MappingConfig::paper(FRAGMENT),
        x.w.activation_bits(),
    )
    .map_err(|e| format!("mapping failed: {e}"))?;
    let mut unlogged = SpanLog::new(origin);
    let b1 = time_forward(x.w, &timed, x.pool, 1, OFFLINE_BUDGET, &mut unlogged);
    let b8 = time_forward(
        x.w,
        &timed,
        x.pool,
        max_batch,
        OFFLINE_BUDGET,
        &mut unlogged,
    );
    let at_served = time_forward(x.w, &timed, x.pool, served_batch, OFFLINE_BUDGET, &mut log);
    let (rebuild_ms, inject_ms) = time_health(x.reference_exec, x.seeds, OFFLINE_BUDGET);

    let self_times = log.self_times();
    let self_us = |name: &str, n: f64| {
        self_times
            .get(name)
            .map_or(0.0, |&(ns, _)| ns as f64 / 1e3 / n)
    };
    let offline_requests = self_times
        .get("exec.forward")
        .map_or(1.0, |&(_, calls)| (calls * served_batch as u64) as f64);
    let merged = x.replay.merged();
    let mvms: u64 = x.replay.mvms.iter().flatten().sum();
    let last = x.replay.layer_latency_ns.len() - 1;
    let layer = |v: &[f64], i: usize| v.get(i).copied().unwrap_or(f64::NAN);
    let bytes = Frame::Request {
        id: 0,
        deadline_us: 0,
        input: x.pool[0].clone(),
    }
    .encode()
    .len()
        + Frame::Response {
            id: 0,
            latency_us: 0,
            output: x.replay.reference[0].clone(),
        }
        .encode()
        .len();
    // Stage percentiles are the median over the rounds' servers; counts
    // are their sum.
    let stage = |f: fn(&TelemetrySnapshot) -> f64| {
        median(&x.snapshots.iter().map(f).collect::<Vec<_>>()) / 1e3
    };
    let count = |f: fn(&TelemetrySnapshot) -> u64| x.snapshots.iter().map(f).sum::<u64>() as f64;
    let lag = sorted(&lag_ms);
    let inproc_light_p50 = median(&slice_p50s(&inproc_light.slices()));
    let replicas = x.w.serve_config().replicas as f64;
    let metrics = vec![
        m(
            "loadgen.lag_p99_ms",
            tail(&lag, 0.99).unwrap_or(f64::NAN),
            "ms",
        ),
        m("net.send_us", p50(&sorted(&send_us)), "us"),
        m("net.residual_us", p50(&sorted(&residual_us)), "us"),
        m(
            "net.socket_share",
            (x.light_p50_ms - inproc_light_p50) / x.light_p50_ms,
            "fraction",
        ),
        m("net.bytes_per_request", bytes as f64, "B"),
        m(
            "serve.queue_wait_p50_us",
            stage(|s| s.stages.queue_wait.p50_ns()),
            "us",
        ),
        m(
            "serve.queue_wait_p99_us",
            stage(|s| s.stages.queue_wait.p99_ns()),
            "us",
        ),
        m(
            "serve.batch_form_us",
            stage(|s| s.stages.batch_form.p50_ns()),
            "us",
        ),
        m(
            "serve.execute_us",
            stage(|s| s.stages.execute.p50_ns()),
            "us",
        ),
        m(
            "serve.respond_us",
            stage(|s| s.stages.respond.p50_ns()),
            "us",
        ),
        m("serve.mean_batch", mean_batch, "count"),
        m("serve.shed", count(|s| s.shed), "count"),
        m("serve.expired", count(|s| s.expired), "count"),
        m("health.rebuilds", count(|s| s.rebuilds), "count"),
        m("health.quarantines", count(|s| s.quarantines), "count"),
        m("health.degraded", count(|s| s.degraded), "count"),
        m("health.rebuild_ms", rebuild_ms, "ms"),
        m("health.inject_ms", inject_ms, "ms"),
        m("exec.forward_us_b1", b1.forward_us, "us"),
        m("exec.forward_us_mean_batch", at_served.forward_us, "us"),
        m(
            "exec.lowering_share",
            1.0 - at_served.kernel_us / at_served.forward_us,
            "fraction",
        ),
        m("exec.map_ms", x.map_ms, "ms"),
        m("kernel.first.ns_per_mvm_b1", layer(&b1.ns_per_mvm, 0), "ns"),
        m("kernel.first.ns_per_mvm_b8", layer(&b8.ns_per_mvm, 0), "ns"),
        m(
            "kernel.last.ns_per_mvm_b1",
            layer(&b1.ns_per_mvm, last),
            "ns",
        ),
        m(
            "kernel.last.ns_per_mvm_b8",
            layer(&b8.ns_per_mvm, last),
            "ns",
        ),
        m(
            "kernel.mvms_per_request",
            mvms as f64 / POOL as f64,
            "count",
        ),
        m(
            "kernel.cycles_per_mvm",
            merged.cycles as f64 / mvms as f64,
            "cycles",
        ),
        m(
            "kernel.adc_conversions_per_mvm",
            merged.adc_conversions as f64 / mvms as f64,
            "count",
        ),
        m(
            "kernel.skip_share",
            merged.fragments_skipped as f64 / merged.fragments_total as f64,
            "fraction",
        ),
        m(
            "kernel.light_share",
            b1.kernel_us / (x.light_p50_ms * 1e3),
            "fraction",
        ),
        m(
            "kernel.busy_share",
            x.capacity_rps * b8.kernel_us / 1e6 / replicas,
            "fraction",
        ),
        m(
            "hwmodel.first.layer_latency_ns",
            layer(&x.replay.layer_latency_ns, 0),
            "ns",
        ),
        m(
            "hwmodel.last.layer_latency_ns",
            layer(&x.replay.layer_latency_ns, last),
            "ns",
        ),
        m("hwmodel.bottleneck_ns", x.replay.bottleneck_ns, "ns"),
        m(
            "hwmodel.first.pj_per_mvm",
            layer(&x.replay.pj_per_mvm, 0),
            "pJ",
        ),
        m(
            "hwmodel.last.pj_per_mvm",
            layer(&x.replay.pj_per_mvm, last),
            "pJ",
        ),
        m("self.client_us", self_us("request", socket_requests), "us"),
        m(
            "self.net_us",
            self_us("net.send", socket_requests) + self_us("net.recv", socket_requests),
            "us",
        ),
        m("self.server_us", self_us("server", socket_requests), "us"),
        m(
            "self.exec_us",
            self_us("exec.forward", offline_requests),
            "us",
        ),
        m(
            "self.kernel_us",
            self_us("kernel.matmul", offline_requests),
            "us",
        ),
        m("trace.capacity_rps", x.capacity_rps, "req/s"),
        m(
            "trace.untraced_capacity_rps",
            untraced.completed_per_second(),
            "req/s",
        ),
        m(
            "trace.overhead_share",
            1.0 - x.capacity_rps / untraced.completed_per_second(),
            "fraction",
        ),
    ];
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("spans-{}.jsonl", x.w.name()));
    log.write_jsonl(&path)
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    eprintln!("{} spans written to {}", log.len(), path.display());
    Ok(metrics)
}

fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}
