//! A bounded MPMC admission queue with load shedding and batched pops.
//!
//! This is the front door of the serving layer: producers never block —
//! when the queue is at capacity [`BoundedQueue::try_push`] fails
//! immediately so the caller can shed the request instead of letting the
//! backlog (and memory) grow without bound. Consumers pop *batches*: the
//! first item blocks (condvar), then whatever else is already queued joins
//! it, up to `max_batch` items, without waiting for more. That is the
//! service's work-conserving dynamic-batching policy: an idle consumer
//! never holds a request back, and under load requests pile up while the
//! consumers execute, so batches still fill.
//!
//! Shutdown is cooperative: [`BoundedQueue::close`] rejects new pushes and
//! wakes every consumer (`notify_all`, so no consumer is lost waiting),
//! but already-admitted items continue to drain — `pop_batch` only returns
//! `false` once the queue is both closed and empty.
//!
//! Every lock acquisition is poison-tolerant: a panicking thread must
//! never turn a recoverable replica failure into a service-wide hang or a
//! cascade of poison panics, so the queue continues operating on the
//! poisoned state (which is always consistent here — no invariant spans a
//! panic point inside a critical section).

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Why a push was refused.
#[derive(Debug, PartialEq, Eq)]
pub enum PushError<T> {
    /// The queue is at capacity; the item is handed back for shedding.
    Full(T),
    /// The queue has been closed; the item is handed back.
    Closed(T),
}

#[derive(Debug)]
struct State<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// A bounded multi-producer / multi-consumer FIFO queue.
#[derive(Debug)]
pub struct BoundedQueue<T> {
    state: Mutex<State<T>>,
    not_empty: Condvar,
    capacity: usize,
}

impl<T> BoundedQueue<T> {
    /// Creates a queue holding at most `capacity` items.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "queue capacity must be positive");
        Self {
            state: Mutex::new(State {
                items: VecDeque::with_capacity(capacity),
                closed: false,
            }),
            not_empty: Condvar::new(),
            capacity,
        }
    }

    fn lock(&self) -> MutexGuard<'_, State<T>> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The configured capacity bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Items currently queued (racy snapshot, for telemetry/tests).
    pub fn len(&self) -> usize {
        self.lock().items.len()
    }

    /// Whether the queue is currently empty (racy snapshot).
    pub fn is_empty(&self) -> bool {
        self.lock().items.is_empty()
    }

    /// Whether [`close`](Self::close) has been called.
    pub fn is_closed(&self) -> bool {
        self.lock().closed
    }

    /// Enqueues without blocking.
    ///
    /// # Errors
    ///
    /// Returns the item back as [`PushError::Full`] when the queue is at
    /// capacity (the caller sheds it) or [`PushError::Closed`] after
    /// shutdown began.
    pub fn try_push(&self, item: T) -> Result<(), PushError<T>> {
        let mut state = self.lock();
        if state.closed {
            return Err(PushError::Closed(item));
        }
        if state.items.len() >= self.capacity {
            return Err(PushError::Full(item));
        }
        state.items.push_back(item);
        drop(state);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Closes the queue: future pushes fail, consumers drain what remains
    /// and then see end-of-stream. Wakes *all* waiting consumers so none
    /// sleeps through shutdown.
    ///
    /// Idempotent and race-free: any number of threads may call `close`
    /// concurrently with producers and draining consumers — every item
    /// either drains to exactly one consumer or bounces back to its
    /// producer as [`PushError::Closed`], never both and never neither.
    /// Returns `true` for the call that actually closed the queue, `false`
    /// for every later (redundant) call.
    pub fn close(&self) -> bool {
        let mut state = self.lock();
        let first = !state.closed;
        state.closed = true;
        drop(state);
        self.not_empty.notify_all();
        first
    }

    /// Pops the next batch into `out` (cleared first): blocks until at
    /// least one item is available, then takes whatever else is already
    /// queued, up to `max_batch` items in all, without waiting for more.
    ///
    /// Returns `false` — with `out` empty — only when the queue is closed
    /// *and* fully drained.
    ///
    /// # Panics
    ///
    /// Panics if `max_batch` is zero.
    pub fn pop_batch(&self, max_batch: usize, out: &mut Vec<T>) -> bool {
        assert!(max_batch > 0, "batch size must be positive");
        out.clear();
        let mut state = self.lock();
        // Wait for the batch head. Loop on the predicate so spurious
        // wakeups and handoffs to faster consumers are harmless.
        loop {
            if let Some(item) = state.items.pop_front() {
                out.push(item);
                break;
            }
            if state.closed {
                return false;
            }
            state = self
                .not_empty
                .wait(state)
                .unwrap_or_else(|e| e.into_inner());
        }
        Self::drain_queued(&mut state, max_batch, out);
        true
    }

    /// [`pop_batch`](Self::pop_batch) with a bounded wait for the batch
    /// head: a consumer that also watches out-of-band state (health
    /// mailboxes, shutdown signals of its own) must not sleep unboundedly
    /// on an empty queue. Returns [`PopWait::Idle`] — with `out` empty —
    /// when nothing arrived within `wait`, so the caller can poll its side
    /// channels and come back.
    ///
    /// # Panics
    ///
    /// Panics if `max_batch` is zero.
    pub fn pop_batch_for(&self, max_batch: usize, wait: Duration, out: &mut Vec<T>) -> PopWait {
        assert!(max_batch > 0, "batch size must be positive");
        out.clear();
        let mut state = self.lock();
        let wait_until = Instant::now() + wait;
        loop {
            if let Some(item) = state.items.pop_front() {
                out.push(item);
                break;
            }
            if state.closed {
                return PopWait::Closed;
            }
            let now = Instant::now();
            if now >= wait_until {
                return PopWait::Idle;
            }
            let (guard, _timeout) = self
                .not_empty
                .wait_timeout(state, wait_until - now)
                .unwrap_or_else(|e| e.into_inner());
            state = guard;
        }
        Self::drain_queued(&mut state, max_batch, out);
        PopWait::Batch
    }

    /// Moves the items already queued behind a popped batch head into
    /// `out` until the batch holds `max_batch` items or the queue is empty.
    fn drain_queued(state: &mut State<T>, max_batch: usize, out: &mut Vec<T>) {
        let take = (max_batch - out.len()).min(state.items.len());
        out.extend(state.items.drain(..take));
    }
}

/// Outcome of a bounded-wait [`BoundedQueue::pop_batch_for`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PopWait {
    /// At least one item was popped into the output buffer.
    Batch,
    /// Nothing arrived within the wait window; the queue is still open.
    Idle,
    /// The queue is closed and fully drained.
    Closed,
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn fifo_order_and_shedding_at_capacity() {
        let q = BoundedQueue::new(2);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        assert_eq!(q.try_push(3), Err(PushError::Full(3)));
        assert_eq!(q.len(), 2);
        let mut batch = Vec::new();
        assert!(q.pop_batch(8, &mut batch));
        assert_eq!(batch, vec![1, 2]);
    }

    #[test]
    fn close_rejects_pushes_but_drains_items() {
        let q = BoundedQueue::new(4);
        q.try_push(7).unwrap();
        q.close();
        assert_eq!(q.try_push(8), Err(PushError::Closed(8)));
        let mut batch = Vec::new();
        assert!(q.pop_batch(4, &mut batch));
        assert_eq!(batch, vec![7]);
        assert!(!q.pop_batch(4, &mut batch));
        assert!(batch.is_empty());
    }

    #[test]
    fn pop_batch_respects_max_batch() {
        let q = BoundedQueue::new(8);
        for i in 0..5 {
            q.try_push(i).unwrap();
        }
        let mut batch = Vec::new();
        assert!(q.pop_batch(3, &mut batch));
        assert_eq!(batch, vec![0, 1, 2]);
        assert!(q.pop_batch(3, &mut batch));
        assert_eq!(batch, vec![3, 4]);
    }

    #[test]
    fn pop_batch_returns_the_lone_head_without_waiting() {
        let q = BoundedQueue::new(8);
        q.try_push(1).unwrap();
        std::thread::scope(|scope| {
            let qref = &q;
            let producer = scope.spawn(move || {
                // Push the second item only after the consumer has taken
                // the first: with a straggler window it would have joined.
                while !qref.is_empty() {
                    std::thread::yield_now();
                }
                std::thread::sleep(Duration::from_millis(50));
                qref.try_push(2).unwrap();
            });
            let mut batch = Vec::new();
            let start = Instant::now();
            assert!(q.pop_batch(2, &mut batch));
            let waited = start.elapsed();
            assert_eq!(batch, vec![1], "the lone head is returned alone");
            assert!(
                waited < Duration::from_millis(50),
                "pop_batch waited {waited:?} for a push that follows the head"
            );
            producer.join().unwrap();
            assert!(q.pop_batch(2, &mut batch));
            assert_eq!(batch, vec![2]);
        });
    }

    #[test]
    fn bounded_wait_pop_distinguishes_idle_from_closed() {
        let q = BoundedQueue::new(4);
        let mut batch = Vec::new();
        let start = Instant::now();
        assert_eq!(
            q.pop_batch_for(4, Duration::from_millis(5), &mut batch),
            PopWait::Idle
        );
        assert!(start.elapsed() >= Duration::from_millis(5));
        assert!(batch.is_empty());
        q.try_push(9).unwrap();
        assert_eq!(
            q.pop_batch_for(4, Duration::from_secs(1), &mut batch),
            PopWait::Batch
        );
        assert_eq!(batch, vec![9]);
        q.close();
        assert_eq!(
            q.pop_batch_for(4, Duration::from_secs(1), &mut batch),
            PopWait::Closed
        );
    }

    #[test]
    fn blocked_consumers_all_wake_on_close() {
        let q = BoundedQueue::<u32>::new(4);
        let woke = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..3 {
                let (qref, wref) = (&q, &woke);
                scope.spawn(move || {
                    let mut batch = Vec::new();
                    // Blocks until close; must return rather than hang.
                    assert!(!qref.pop_batch(4, &mut batch));
                    wref.fetch_add(1, Ordering::SeqCst);
                });
            }
            std::thread::sleep(Duration::from_millis(10));
            q.close();
        });
        assert_eq!(woke.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn close_is_idempotent_across_racing_threads() {
        let q = BoundedQueue::<u32>::new(4);
        let first_closes = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let (qref, cref) = (&q, &first_closes);
                scope.spawn(move || {
                    if qref.close() {
                        cref.fetch_add(1, Ordering::SeqCst);
                    }
                    // A second close from the same thread is a no-op too.
                    assert!(!qref.close());
                });
            }
        });
        assert_eq!(
            first_closes.load(Ordering::SeqCst),
            1,
            "exactly one close call wins"
        );
        assert!(q.is_closed());
    }

    /// The ticket-conservation contract under a shutdown race: producers
    /// hammer `try_push` while one thread calls `close()` mid-drain and
    /// consumers drain batches. Every pushed item must resolve exactly
    /// once — drained by one consumer XOR handed back to its producer —
    /// with no panic, no loss, and no double-resolution.
    #[test]
    fn concurrent_close_and_push_resolves_every_ticket_exactly_once() {
        const PRODUCERS: usize = 4;
        const PER_PRODUCER: usize = 400;
        for round in 0..8u64 {
            let q = BoundedQueue::new(8);
            let drained = std::sync::Mutex::new(Vec::new());
            let bounced = std::sync::Mutex::new(Vec::new());
            std::thread::scope(|scope| {
                for p in 0..PRODUCERS {
                    let (qref, bref) = (&q, &bounced);
                    scope.spawn(move || {
                        let mut mine = Vec::new();
                        for i in 0..PER_PRODUCER {
                            let ticket = p * PER_PRODUCER + i;
                            match qref.try_push(ticket) {
                                Ok(()) => {}
                                // Full: retry until admitted or closed, so
                                // the race window with close() stays open.
                                Err(PushError::Full(t)) => {
                                    let mut t = t;
                                    loop {
                                        std::thread::yield_now();
                                        match qref.try_push(t) {
                                            Ok(()) => break,
                                            Err(PushError::Full(back)) => t = back,
                                            Err(PushError::Closed(back)) => {
                                                mine.push(back);
                                                break;
                                            }
                                        }
                                    }
                                }
                                Err(PushError::Closed(t)) => mine.push(t),
                            }
                        }
                        bref.lock().unwrap().append(&mut mine);
                    });
                }
                for _ in 0..2 {
                    let (qref, dref) = (&q, &drained);
                    scope.spawn(move || {
                        let mut batch = Vec::new();
                        let mut mine = Vec::new();
                        while qref.pop_batch(4, &mut batch) {
                            mine.append(&mut batch);
                        }
                        dref.lock().unwrap().append(&mut mine);
                    });
                }
                // Close mid-flight, racing both producers and consumers;
                // a redundant second close must change nothing.
                let qref = &q;
                scope.spawn(move || {
                    std::thread::sleep(Duration::from_micros(500 * (round + 1)));
                    qref.close();
                    qref.close();
                });
            });
            let mut all: Vec<usize> = drained.into_inner().unwrap();
            all.extend(bounced.into_inner().unwrap());
            all.sort_unstable();
            let expected: Vec<usize> = (0..PRODUCERS * PER_PRODUCER).collect();
            assert_eq!(
                all, expected,
                "round {round}: every ticket resolved exactly once"
            );
        }
    }

    #[test]
    fn concurrent_producers_and_consumers_conserve_items() {
        let q = BoundedQueue::new(16);
        let consumed = AtomicUsize::new(0);
        let shed = AtomicUsize::new(0);
        const PER_PRODUCER: usize = 500;
        std::thread::scope(|scope| {
            for p in 0..2 {
                let (qref, sref) = (&q, &shed);
                scope.spawn(move || {
                    for i in 0..PER_PRODUCER {
                        if qref.try_push(p * PER_PRODUCER + i).is_err() {
                            sref.fetch_add(1, Ordering::SeqCst);
                            std::thread::yield_now();
                        }
                    }
                });
            }
            for _ in 0..2 {
                let (qref, cref) = (&q, &consumed);
                scope.spawn(move || {
                    let mut batch = Vec::new();
                    while qref.pop_batch(4, &mut batch) {
                        cref.fetch_add(batch.len(), Ordering::SeqCst);
                    }
                });
            }
            std::thread::sleep(Duration::from_millis(50));
            q.close();
        });
        assert_eq!(
            consumed.load(Ordering::SeqCst) + shed.load(Ordering::SeqCst),
            2 * PER_PRODUCER,
            "every item either served or shed"
        );
    }
}
