//! The load generator: one sender thread and one receiver thread over one
//! link (a split socket connection, or the in-process service handle),
//! driven open loop on an arrival schedule or closed loop with a fixed
//! in-flight window. Every reply is checked bit for bit against its
//! offline reference as it arrives.

use std::sync::mpsc;
use std::time::{Duration, Instant};

use forms_net::{ClientError, NetReceiver, NetSender, WireStatus};
use forms_serve::{ServeError, ServiceHandle, StageDurations, Ticket};

use crate::stats::interquartile_mean;
use crate::workload::{capacity_payload, Schedule};

/// Why a request produced no usable output.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Failure {
    /// Refused at admission (queue full or shutting down).
    Shed,
    /// Expired before execution.
    Expired,
    /// Refused by an unhealthy replica.
    Degraded,
    /// Failed in the engine, cancelled, or rejected as malformed.
    Failed,
    /// No reply within the client's request timeout.
    Timeout,
    /// Transport or protocol failure.
    Wire,
    /// Completed, but the output differs from the offline reference.
    Mismatch,
}

/// How a request ended, as the receiver saw it.
#[derive(Clone, Debug)]
pub struct Reply {
    /// The output, or why there is none.
    pub outcome: Result<Vec<f32>, Failure>,
    /// Latency the server reports for the request (zero when rejected).
    pub server: Duration,
    /// The server's per-stage split (in-process link only).
    pub stages: Option<StageDurations>,
    /// Size of the batch the request ran in (in-process link only).
    pub batch: Option<usize>,
}

/// The sending half of a link.
pub trait Link: Send {
    /// What the receiving half needs to collect the reply.
    type Pending: Send;
    /// Submits one payload without waiting for its reply.
    fn send(&mut self, payload: &[f32]) -> Result<Self::Pending, Failure>;
    /// Unanswered requests the link holds before its sender must wait;
    /// `None` when the link applies its own backpressure.
    fn window(&self) -> Option<usize> {
        None
    }
}

/// The receiving half of a link; replies are collected in send order.
pub trait Drain {
    /// Matches [`Link::Pending`].
    type Pending;
    /// Blocks for the reply of `pending`.
    fn wait(&mut self, pending: Self::Pending) -> Reply;
}

impl Link for NetSender {
    type Pending = u64;
    fn send(&mut self, payload: &[f32]) -> Result<u64, Failure> {
        NetSender::send(self, payload, None).map_err(|_| Failure::Wire)
    }
}

/// A socket receiver that stops reading after the first transport error,
/// so a broken connection fails the remaining requests at once instead of
/// one request timeout each.
pub struct SocketDrain {
    receiver: NetReceiver,
    broken: bool,
}

impl SocketDrain {
    /// Wraps the receiving half of a split client.
    pub fn new(receiver: NetReceiver) -> Self {
        Self {
            receiver,
            broken: false,
        }
    }
}

impl Drain for SocketDrain {
    type Pending = u64;
    fn wait(&mut self, id: u64) -> Reply {
        let rejected = |failure| Reply {
            outcome: Err(failure),
            server: Duration::ZERO,
            stages: None,
            batch: None,
        };
        if self.broken {
            return rejected(Failure::Wire);
        }
        match self.receiver.recv() {
            Ok(reply) if reply.id == id => Reply {
                outcome: reply.outcome.map_err(|status| match status {
                    WireStatus::Shed | WireStatus::ShuttingDown => Failure::Shed,
                    WireStatus::DeadlineExceeded => Failure::Expired,
                    WireStatus::Degraded => Failure::Degraded,
                    WireStatus::Cancelled | WireStatus::EngineFailed | WireStatus::BadShape => {
                        Failure::Failed
                    }
                }),
                server: reply.server_latency,
                stages: None,
                batch: None,
            },
            Ok(_) => {
                self.broken = true;
                rejected(Failure::Wire)
            }
            Err(err) => {
                self.broken = true;
                rejected(if err == ClientError::Timeout {
                    Failure::Timeout
                } else {
                    Failure::Wire
                })
            }
        }
    }
}

fn serve_failure(err: ServeError) -> Failure {
    match err {
        ServeError::Shed | ServeError::ShuttingDown => Failure::Shed,
        ServeError::DeadlineExceeded => Failure::Expired,
        ServeError::Degraded => Failure::Degraded,
        ServeError::Cancelled | ServeError::EngineFailed | ServeError::BadShape { .. } => {
            Failure::Failed
        }
    }
}

impl Link for ServiceHandle {
    type Pending = Ticket;
    fn send(&mut self, payload: &[f32]) -> Result<Ticket, Failure> {
        self.submit(payload.to_vec()).map_err(serve_failure)
    }
    /// The socket front-end's per-connection window, so an in-process pass
    /// queues exactly what the same schedule over a socket would: without
    /// it, a stall of the host overflows the queue and sheds requests the
    /// socket path would have held back.
    fn window(&self) -> Option<usize> {
        Some(forms_net::NetConfig::default().max_in_flight)
    }
}

/// Collects in-process tickets.
pub struct TicketDrain;

impl Drain for TicketDrain {
    type Pending = Ticket;
    fn wait(&mut self, ticket: Ticket) -> Reply {
        match ticket.wait() {
            Ok(response) => Reply {
                outcome: Ok(response.output),
                server: response.latency,
                stages: Some(response.stages),
                batch: Some(response.batch_size),
            },
            Err(err) => Reply {
                outcome: Err(serve_failure(err)),
                server: Duration::ZERO,
                stages: None,
                batch: None,
            },
        }
    }
}

/// How a phase offers its requests.
#[derive(Clone, Copy, Debug)]
pub enum Traffic<'a> {
    /// Open loop: each request is sent when it falls due, whatever the
    /// replies are doing.
    Open(&'a Schedule),
    /// Closed loop: keep `window` requests in flight for `duration`.
    Closed {
        /// Requests in flight.
        window: usize,
        /// How long new requests are sent.
        duration: Duration,
        /// Seed of the payload order ([`capacity_payload`]).
        seed: u64,
    },
}

/// Requests of a traced phase whose full record is kept: about this many,
/// evenly spaced.
pub const SAMPLED_RECORDS: usize = 4096;

/// What the generator needs besides the link.
pub struct Ctx<'a> {
    /// The payload pool.
    pub pool: &'a [Vec<f32>],
    /// Offline output of each pool payload.
    pub reference: &'a [Vec<f32>],
    /// Keep every `sample_every`-th request's full record, with the extra
    /// timestamps the traced run needs; `None` keeps none.
    pub sample_every: Option<usize>,
    /// Called by the sender before every request (fault injection).
    pub on_send: &'a (dyn Fn() + Sync),
}

/// One request as the generator saw it.
#[derive(Clone, Debug)]
pub struct Record {
    /// When the request was due (the send instant in a closed loop).
    pub due: Instant,
    /// When the sender started sending it.
    pub sent: Instant,
    /// When the send call returned.
    pub sent_end: Instant,
    /// When the receiver started waiting for it.
    pub recv_start: Instant,
    /// When its reply was in hand.
    pub done: Instant,
    /// Server-reported latency.
    pub server: Duration,
    /// Server stages (in-process link only).
    pub stages: Option<StageDurations>,
    /// Batch size (in-process link only).
    pub batch: Option<usize>,
}

/// What one phase produced.
#[derive(Clone, Debug)]
pub struct PhaseRun {
    /// Outcome counts.
    pub tally: Tally,
    /// Correct replies per pool payload.
    pub served: Vec<u64>,
    /// Round trip from the due time of every correct reply of an open-loop
    /// phase, in ms, in send order (empty for a closed loop).
    pub rtt_ms: Vec<f64>,
    /// Where each slice's replies end in `rtt_ms` (one slice per round).
    pub slice_ends: Vec<usize>,
    /// Sampled full records of correct replies (see [`Ctx::sample_every`]).
    pub sampled: Vec<Record>,
    /// Correct replies per second of each slice (see [`slice_rate`]).
    pub slice_rates: Vec<f64>,
    /// Phase start to the last reply, summed over slices.
    pub elapsed: Duration,
}

/// Width of the throughput slots of a slice.
pub const SLOT: Duration = Duration::from_millis(250);

/// Correct replies per second of one slice, from the replies counted in
/// each [`SLOT`] of it: the interquartile mean over its full slots, so a
/// stall of the shared host moves one slot, not the figure. A slice shorter
/// than two slots reports its overall rate.
pub fn slice_rate(slots: &[u64], completed: u64, elapsed: Duration) -> f64 {
    let full = (elapsed.as_nanos() / SLOT.as_nanos()) as usize;
    if full < 2 {
        return completed as f64 / elapsed.as_secs_f64();
    }
    let rates: Vec<f64> = (0..full)
        .map(|i| slots.get(i).copied().unwrap_or(0) as f64 / SLOT.as_secs_f64())
        .collect();
    interquartile_mean(&rates)
}

impl PhaseRun {
    fn new(pool: usize, open: bool, capacity: usize) -> Self {
        Self {
            tally: Tally::default(),
            served: vec![0; pool],
            rtt_ms: if open {
                Vec::with_capacity(capacity)
            } else {
                Vec::new()
            },
            slice_ends: Vec::new(),
            sampled: Vec::new(),
            slice_rates: Vec::new(),
            elapsed: Duration::ZERO,
        }
    }

    /// Correct replies per second: the interquartile mean over the slices,
    /// so a spell of a slow host that covers a quarter of the rounds does
    /// not move it.
    pub fn completed_per_second(&self) -> f64 {
        interquartile_mean(&self.slice_rates)
    }

    /// The round trips of each slice.
    pub fn slices(&self) -> Vec<&[f64]> {
        let mut start = 0;
        self.slice_ends
            .iter()
            .map(|&end| {
                let slice = &self.rtt_ms[start..end];
                start = end;
                slice
            })
            .collect()
    }

    /// Appends another slice of the same phase (a later round's).
    pub fn absorb(&mut self, other: PhaseRun) {
        self.tally.merge(&other.tally);
        for (total, n) in self.served.iter_mut().zip(&other.served) {
            *total += n;
        }
        let base = self.rtt_ms.len();
        self.rtt_ms.extend(other.rtt_ms);
        self.slice_ends
            .extend(other.slice_ends.iter().map(|end| base + end));
        self.sampled.extend(other.sampled);
        self.slice_rates.extend(other.slice_rates);
        self.elapsed += other.elapsed;
    }
}

struct Sent<P> {
    k: usize,
    payload: usize,
    due: Instant,
    sent: Instant,
    sent_end: Instant,
    pending: P,
}

/// Whether `output` equals `reference` bit for bit.
pub fn bitwise_equal(output: &[f32], reference: &[f32]) -> bool {
    output.len() == reference.len()
        && output
            .iter()
            .zip(reference)
            .all(|(a, b)| a.to_bits() == b.to_bits())
}

/// Drives one phase over `link`/`drain`.
pub fn drive<L, D>(link: &mut L, drain: &mut D, ctx: &Ctx<'_>, traffic: Traffic<'_>) -> PhaseRun
where
    L: Link,
    D: Drain<Pending = L::Pending>,
{
    let (sent_tx, sent_rx) = mpsc::channel::<Sent<L::Pending>>();
    let (credit_tx, credit_rx) = mpsc::channel::<()>();
    let trace = ctx.sample_every.is_some();
    let link_window = link.window();
    // Credits gate the sender of a closed loop or of a windowed link.
    let credits = link_window.is_some() || matches!(traffic, Traffic::Closed { .. });
    let mut run = match traffic {
        Traffic::Open(schedule) => PhaseRun::new(ctx.pool.len(), true, schedule.due.len()),
        Traffic::Closed { .. } => PhaseRun::new(ctx.pool.len(), false, 0),
    };
    let mut slots: Vec<u64> = Vec::new();
    let start = Instant::now();
    let send_failures = std::thread::scope(|scope| {
        let sender = scope.spawn(move || {
            let mut failures = Vec::new();
            // Credits a failed send did not use: no reply will return them.
            let mut spare = 0usize;
            let credit = |spare: &mut usize| {
                if *spare > 0 {
                    *spare -= 1;
                    true
                } else {
                    credit_rx.recv().is_ok()
                }
            };
            let mut k = 0;
            let mut send = |payload: usize, due: Instant, spare: &mut usize| {
                (ctx.on_send)();
                let sent = Instant::now();
                match link.send(&ctx.pool[payload]) {
                    Ok(pending) => {
                        let sent_end = if trace { Instant::now() } else { sent };
                        // The receiver only stops early if this thread
                        // panicked, so a closed channel cannot occur here.
                        let _ = sent_tx.send(Sent {
                            k,
                            payload,
                            due,
                            sent,
                            sent_end,
                            pending,
                        });
                    }
                    Err(failure) => {
                        failures.push(failure);
                        *spare += 1;
                    }
                }
                k += 1;
            };
            match traffic {
                Traffic::Open(schedule) => {
                    for (i, (&offset, &payload)) in
                        schedule.due.iter().zip(&schedule.payload).enumerate()
                    {
                        if link_window.is_some_and(|w| i >= w) && !credit(&mut spare) {
                            break;
                        }
                        let due = start + offset;
                        if let Some(gap) = due.checked_duration_since(Instant::now()) {
                            std::thread::sleep(gap);
                        }
                        send(payload, due, &mut spare);
                    }
                }
                Traffic::Closed {
                    window,
                    duration,
                    seed,
                } => {
                    for k in 0u64.. {
                        if k >= window as u64 && !credit(&mut spare) {
                            break;
                        }
                        if start.elapsed() >= duration {
                            break;
                        }
                        send(capacity_payload(seed, k), Instant::now(), &mut spare);
                    }
                }
            }
            failures
        });
        for sent in sent_rx {
            let recv_start = if trace { Instant::now() } else { sent.sent };
            let reply = drain.wait(sent.pending);
            let done = Instant::now();
            if credits {
                let _ = credit_tx.send(());
            }
            let outcome = match reply.outcome {
                Ok(output) if bitwise_equal(&output, &ctx.reference[sent.payload]) => Ok(()),
                Ok(_) => Err(Failure::Mismatch),
                Err(failure) => Err(failure),
            };
            run.tally.add(outcome);
            if outcome.is_err() {
                continue;
            }
            run.served[sent.payload] += 1;
            let slot =
                (done.saturating_duration_since(start).as_nanos() / SLOT.as_nanos()) as usize;
            if slots.len() <= slot {
                slots.resize(slot + 1, 0);
            }
            slots[slot] += 1;
            if let Traffic::Open(_) = traffic {
                run.rtt_ms
                    .push(done.saturating_duration_since(sent.due).as_secs_f64() * 1e3);
            }
            if ctx.sample_every.is_some_and(|every| sent.k % every == 0) {
                run.sampled.push(Record {
                    due: sent.due,
                    sent: sent.sent,
                    sent_end: sent.sent_end,
                    recv_start,
                    done,
                    server: reply.server,
                    stages: reply.stages,
                    batch: reply.batch,
                });
            }
        }
        sender.join().expect("sender thread panicked")
    });
    run.elapsed = start.elapsed();
    run.slice_ends.push(run.rtt_ms.len());
    run.slice_rates
        .push(slice_rate(&slots, run.tally.completed, run.elapsed));
    for failure in send_failures {
        run.tally.add(Err(failure));
    }
    run
}

/// Request outcomes over a run, for the error share and `attempted` /
/// `failed` of the result line.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    /// Requests offered.
    pub offered: u64,
    /// Requests whose output matched the reference.
    pub completed: u64,
    /// Shed at admission.
    pub shed: u64,
    /// Expired in the queue.
    pub expired: u64,
    /// Refused by a degraded replica.
    pub degraded: u64,
    /// Failed in the engine, cancelled, or malformed.
    pub failed: u64,
    /// Client timeouts.
    pub timeouts: u64,
    /// Transport and protocol errors.
    pub wire: u64,
    /// Outputs that differ from the offline reference.
    pub mismatches: u64,
}

impl Tally {
    /// Counts one request.
    pub fn add(&mut self, outcome: Result<(), Failure>) {
        self.offered += 1;
        match outcome {
            Ok(()) => self.completed += 1,
            Err(Failure::Shed) => self.shed += 1,
            Err(Failure::Expired) => self.expired += 1,
            Err(Failure::Degraded) => self.degraded += 1,
            Err(Failure::Failed) => self.failed += 1,
            Err(Failure::Timeout) => self.timeouts += 1,
            Err(Failure::Wire) => self.wire += 1,
            Err(Failure::Mismatch) => self.mismatches += 1,
        }
    }

    /// Adds another tally's counts.
    pub fn merge(&mut self, other: &Tally) {
        self.offered += other.offered;
        self.completed += other.completed;
        self.shed += other.shed;
        self.expired += other.expired;
        self.degraded += other.degraded;
        self.failed += other.failed;
        self.timeouts += other.timeouts;
        self.wire += other.wire;
        self.mismatches += other.mismatches;
    }

    /// Requests that did not produce a correct output.
    pub fn errors(&self) -> u64 {
        self.offered - self.completed
    }

    /// `errors / offered` (zero when nothing was offered).
    pub fn error_share(&self) -> f64 {
        if self.offered == 0 {
            0.0
        } else {
            self.errors() as f64 / self.offered as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_share_counts_every_failure_kind_including_mismatches() {
        let mut tally = Tally::default();
        for _ in 0..92 {
            tally.add(Ok(()));
        }
        for failure in [
            Failure::Shed,
            Failure::Expired,
            Failure::Degraded,
            Failure::Failed,
            Failure::Timeout,
            Failure::Wire,
            Failure::Mismatch,
            Failure::Mismatch,
        ] {
            tally.add(Err(failure));
        }
        assert_eq!(tally.offered, 100);
        assert_eq!(tally.completed, 92);
        assert_eq!(tally.mismatches, 2);
        assert_eq!(tally.errors(), 8);
        assert!((tally.error_share() - 0.08).abs() < 1e-12);
        assert_eq!(Tally::default().error_share(), 0.0);
    }

    #[test]
    fn bitwise_check_distinguishes_signed_zero_and_length() {
        assert!(bitwise_equal(&[1.0, 0.0], &[1.0, 0.0]));
        assert!(!bitwise_equal(&[1.0, -0.0], &[1.0, 0.0]));
        assert!(!bitwise_equal(&[1.0], &[1.0, 0.0]));
    }

    /// A link whose replies are computed locally: doubles the payload,
    /// corrupting every third request.
    struct Echo(u64);
    impl Link for Echo {
        type Pending = Vec<f32>;
        fn send(&mut self, payload: &[f32]) -> Result<Vec<f32>, Failure> {
            self.0 += 1;
            let scale = if self.0.is_multiple_of(3) { 3.0 } else { 2.0 };
            Ok(payload.iter().map(|v| v * scale).collect())
        }
    }
    impl Drain for Echo {
        type Pending = Vec<f32>;
        fn wait(&mut self, output: Vec<f32>) -> Reply {
            Reply {
                outcome: Ok(output),
                server: Duration::ZERO,
                stages: None,
                batch: None,
            }
        }
    }

    #[test]
    fn generator_flags_corrupted_outputs_as_mismatches() {
        let pool = vec![vec![1.0f32, 2.0], vec![0.5, 0.25]];
        let reference: Vec<Vec<f32>> = pool
            .iter()
            .map(|p| p.iter().map(|v| v * 2.0).collect())
            .collect();
        let schedule = Schedule {
            due: (0..9).map(|i| Duration::from_micros(i * 10)).collect(),
            payload: (0..9).map(|i| i % 2).collect(),
        };
        let ctx = Ctx {
            pool: &pool,
            reference: &reference,
            sample_every: Some(2),
            on_send: &|| {},
        };
        let run = drive(&mut Echo(0), &mut Echo(0), &ctx, Traffic::Open(&schedule));
        assert_eq!(run.tally.offered, 9);
        assert_eq!(run.tally.mismatches, 3);
        assert_eq!(run.tally.completed, 6);
        assert_eq!(run.served, vec![3, 3]);
        assert_eq!(run.rtt_ms.len(), 6);
        // Requests 0, 2, 4, 6, 8 are sampled; 2 and 8 were corrupted.
        assert_eq!(run.sampled.len(), 3);
    }

    /// A link that answers immediately but admits at most two unanswered
    /// requests, and counts how many were ever outstanding at once.
    #[derive(Default)]
    struct Windowed {
        outstanding: std::sync::Arc<std::sync::atomic::AtomicUsize>,
        peak: std::sync::Arc<std::sync::atomic::AtomicUsize>,
    }
    impl Link for Windowed {
        type Pending = ();
        fn send(&mut self, _: &[f32]) -> Result<(), Failure> {
            use std::sync::atomic::Ordering::SeqCst;
            let now = self.outstanding.fetch_add(1, SeqCst) + 1;
            self.peak.fetch_max(now, SeqCst);
            Ok(())
        }
        fn window(&self) -> Option<usize> {
            Some(2)
        }
    }
    impl Drain for Windowed {
        type Pending = ();
        fn wait(&mut self, (): ()) -> Reply {
            // Replies trail the sender, so the window is what bounds it.
            std::thread::sleep(Duration::from_micros(200));
            self.outstanding
                .fetch_sub(1, std::sync::atomic::Ordering::SeqCst);
            Reply {
                outcome: Ok(vec![]),
                server: Duration::ZERO,
                stages: None,
                batch: None,
            }
        }
    }

    #[test]
    fn a_windowed_link_never_holds_more_than_its_window() {
        let link = Windowed::default();
        let mut drain = Windowed {
            outstanding: link.outstanding.clone(),
            peak: link.peak.clone(),
        };
        let peak = link.peak.clone();
        let pool = vec![vec![]];
        let schedule = Schedule {
            due: vec![Duration::ZERO; 20],
            payload: vec![0; 20],
        };
        let ctx = Ctx {
            pool: &pool,
            reference: &[vec![]],
            sample_every: None,
            on_send: &|| {},
        };
        let run = drive(&mut { link }, &mut drain, &ctx, Traffic::Open(&schedule));
        assert_eq!(run.tally.completed, 20);
        assert_eq!(peak.load(std::sync::atomic::Ordering::SeqCst), 2);
    }

    /// A link whose every send fails, as on a broken connection.
    struct Broken;
    impl Link for Broken {
        type Pending = ();
        fn send(&mut self, _: &[f32]) -> Result<(), Failure> {
            Err(Failure::Wire)
        }
    }
    impl Drain for Broken {
        type Pending = ();
        fn wait(&mut self, (): ()) -> Reply {
            unreachable!("no request was ever sent")
        }
    }

    #[test]
    fn failed_sends_do_not_stall_a_closed_loop() {
        let pool = vec![vec![1.0f32]; crate::workload::POOL];
        let ctx = Ctx {
            pool: &pool,
            reference: &pool,
            sample_every: None,
            on_send: &|| {},
        };
        let traffic = Traffic::Closed {
            window: 2,
            duration: Duration::from_millis(20),
            seed: 1,
        };
        let run = drive(&mut Broken, &mut Broken, &ctx, traffic);
        assert!(
            run.tally.offered > 2,
            "the sender kept going past its window"
        );
        assert_eq!(run.tally.wire, run.tally.offered);
        assert_eq!(run.tally.completed, 0);
    }
}
