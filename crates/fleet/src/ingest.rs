//! A lock-free ring fan-in: one SPSC ring per producing stream.
//!
//! [`crate::FleetRunner`] does not use it: a fleet machine's samples go
//! into the store when the machine joins, with no transport between. It
//! stays as a standalone transport; [`ChannelStats`] is also the shape of
//! a fleet outcome's per-machine accounting.
//!
//! Each producer publishes its batches into its own [`kchan`]
//! single-producer/single-consumer ring with a single release store, and
//! the collector sweeps the rings round-robin with a single acquire load
//! per ring — no locks anywhere on the data path.
//!
//! The collector still parks when there is nothing to do, but only when
//! *all* rings are empty, through a one-directional doorbell: it raises
//! a `parked` flag, re-sweeps every ring (closing the race against a
//! producer that published just before the flag went up), and only then
//! waits on a `Condvar` with a timeout. Producers check the flag after
//! each publication — a `SeqCst` fence on both sides of the handshake
//! means either the collector's re-sweep sees the new samples or the
//! producer sees `parked == true` and rings the bell; the bounded
//! `Condvar` timeout (the collector's poll interval) is the safety net
//! for the remaining pathological schedules, costing at worst one poll
//! interval of latency, never a lost sample.
//!
//! Accounting is kept per stream in [`ChannelStats`]: `sent = pushed +
//! dropped` and everything pushed is eventually `delivered`, so `sent ==
//! delivered + dropped` once the run drains.

use std::sync::Arc;

use kleb::Sample;

use crate::ksync::{
    backoff_sleep, backoff_yield, fence, AtomicBool, AtomicU64, Condvar, Mutex, Ordering,
};

/// What [`RingSender::send`] does when its stream's ring is full — the
/// same decision K-LEB's kernel module faces when its ring buffer
/// outruns the controller (there it pauses; here the fan-in makes the
/// trade-off explicit and accounts every dropped sample per stream).
///
/// It has no effect on a fleet run
/// ([`crate::FleetConfigBuilder::backpressure`]): no ring sits between a
/// fleet machine and the store, so every run is lossless.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backpressure {
    /// Wait until the collector makes room. Lossless; the monitoring
    /// thread stalls (the kernel module's "safety stop", one level up).
    Block,
    /// Keep what fits and discard the rest of the incoming batch.
    /// Bounded work; the sending stream is charged the drop.
    DropNewest,
}

/// Counter snapshot for the whole fan-in, or a fleet outcome's
/// per-machine accounting (where `depth_high_water` and `block_waits`
/// read 0).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChannelStats {
    /// Samples offered to the fan-in, per stream.
    pub sent: Vec<u64>,
    /// Samples dropped by backpressure, per stream.
    pub dropped: Vec<u64>,
    /// Samples handed to the collector, per stream.
    pub delivered: Vec<u64>,
    /// Deepest any single stream's ring ever got, in samples.
    pub depth_high_water: usize,
    /// Total times a sender blocked waiting for room (Block policy).
    pub block_waits: u64,
}

impl ChannelStats {
    /// Total samples dropped across all streams.
    pub fn total_dropped(&self) -> u64 {
        self.dropped.iter().sum()
    }
}

/// The collector-side doorbell producers ring when they publish into an
/// empty-looking fleet while the collector is parked.
#[derive(Debug, Default)]
struct Doorbell {
    /// Pending-signal bit, owned by the bell's lock. A ring sets it
    /// under the lock; the collector checks it under the same lock
    /// *before* waiting and clears it after. This closes the classic
    /// lost-wakeup window (producer rings between the collector's
    /// re-sweep and its wait): the wakeup is latched in the bit, so the
    /// collector skips the wait instead of sleeping through the
    /// notification. `fleet/tests/kloom_doorbell.rs` proves the
    /// losslessness by modeling the wait as never timing out.
    signal: Mutex<bool>,
    bell: Condvar,
    /// True while the collector is inside (or committing to) a wait.
    parked: AtomicBool,
    /// Total blocking episodes across all producers (Block policy).
    block_waits: AtomicU64,
}

impl Doorbell {
    /// Wakes the collector if (and only if) it is parked.
    fn ring(&self) {
        // Pairs with the collector's store(parked, true) + fence: the
        // fence orders our ring writes before this load, so either the
        // collector's re-sweep sees the samples or we see the flag.
        fence(Ordering::SeqCst);
        if self.parked.load(Ordering::SeqCst) {
            // Latch the signal under the lock: a collector already in
            // wait is notified; one still between its re-sweep and the
            // wait finds the bit set and skips the wait entirely.
            *self.signal.lock().unwrap_or_else(|e| e.into_inner()) = true;
            self.bell.notify_all();
        }
    }
}

/// Creates the ring fan-in for `streams` producers, each ring holding
/// `capacity_samples` samples (rounded up to a power of two), returning
/// one [`RingSender`] per stream plus the collector's [`RingCollector`].
///
/// # Panics
///
/// Panics if `streams == 0` or `capacity_samples == 0`.
pub fn ring_fanin(
    streams: usize,
    capacity_samples: usize,
    policy: Backpressure,
) -> (Vec<RingSender>, RingCollector) {
    assert!(streams > 0, "need at least one stream");
    assert!(capacity_samples > 0, "ring capacity must be non-zero");
    let doorbell = Arc::new(Doorbell::default());
    let mut senders = Vec::with_capacity(streams);
    let mut rings = Vec::with_capacity(streams);
    for _ in 0..streams {
        let (tx, rx) = kchan::ring::<Sample>(capacity_samples);
        senders.push(RingSender {
            producer: tx,
            policy,
            doorbell: Arc::clone(&doorbell),
        });
        rings.push(rx);
    }
    let collector = RingCollector {
        delivered: vec![0; streams],
        rings,
        doorbell,
        depth_high_water: 0,
        next: 0,
    };
    (senders, collector)
}

/// The producing end for one stream: wraps the stream's ring with the
/// fleet's backpressure policy. Dropping it signals stream end.
#[derive(Debug)]
pub struct RingSender {
    producer: kchan::Producer<Sample>,
    policy: Backpressure,
    doorbell: Arc<Doorbell>,
}

impl RingSender {
    /// Publishes one drained batch under the backpressure policy.
    ///
    /// Empty batches are a no-op.
    pub fn send(&mut self, samples: &[Sample]) {
        if samples.is_empty() {
            return;
        }
        match self.policy {
            Backpressure::Block => {
                let mut sent = self.producer.try_push(samples);
                if sent < samples.len() {
                    // One blocking episode, however long the wait: the
                    // collector is behind and must make room. Spin with
                    // yields first (the collector is usually mid-sweep),
                    // then back off to short sleeps.
                    self.doorbell.block_waits.fetch_add(1, Ordering::AcqRel);
                    let mut fruitless = 0u32;
                    while sent < samples.len() {
                        let accepted = self.producer.try_push(&samples[sent..]);
                        sent += accepted;
                        if accepted == 0 {
                            // The collector may have parked between our
                            // last push and its sweep; a full ring it has
                            // not seen means the bell must ring.
                            self.doorbell.ring();
                            fruitless += 1;
                            if fruitless < 64 {
                                backoff_yield();
                            } else {
                                backoff_sleep(std::time::Duration::from_micros(50));
                            }
                        } else {
                            fruitless = 0;
                        }
                    }
                }
            }
            Backpressure::DropNewest => {
                let accepted = self.producer.try_push(samples);
                self.producer
                    .mark_dropped((samples.len() - accepted) as u64);
            }
        }
        self.doorbell.ring();
    }
}

impl Drop for RingSender {
    fn drop(&mut self) {
        // Publish end-of-stream *before* ringing: `finish()` orders the
        // done flag ahead of the wakeup, so a parked collector that the
        // bell rouses is guaranteed to observe the disconnect instead of
        // re-parking until its poll timeout.
        if std::thread::panicking() {
            // Unwinding teardown: the inner producer's own drop still
            // flushes the ledger; skip the doorbell (the poll timeout
            // covers delivery, and under `cfg(kloom)` scheduler
            // ops are off-limits during a panic).
            return;
        }
        self.producer.finish();
        self.doorbell.ring();
    }
}

/// What [`RingCollector::poll`] observed. The samples themselves arrive
/// in the caller's reusable scratch buffer, not a fresh allocation per
/// batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Polled {
    /// Samples arrived: the scratch buffer holds them, in stream order.
    Batch {
        /// Index of the producing machine.
        machine: usize,
    },
    /// The window elapsed with every ring empty but producers alive.
    Timeout,
    /// Every producer has dropped and every ring is drained.
    Disconnected,
}

/// The collector end: sweeps every stream's ring round-robin, parking
/// on the doorbell only when all of them are empty.
#[derive(Debug)]
pub struct RingCollector {
    rings: Vec<kchan::Consumer<Sample>>,
    doorbell: Arc<Doorbell>,
    delivered: Vec<u64>,
    /// Deepest any single ring ever got, in samples.
    depth_high_water: usize,
    /// Round-robin cursor: the first ring the next sweep inspects.
    next: usize,
}

impl RingCollector {
    /// Upper bound on samples taken from one ring per poll, so one noisy
    /// stream cannot starve the others of collector attention.
    const MAX_POP: usize = 4096;

    /// One round-robin pass over the rings; pops the first non-empty one
    /// into `scratch` and returns its machine index.
    fn sweep(&mut self, scratch: &mut Vec<Sample>) -> Option<usize> {
        let n = self.rings.len();
        for k in 0..n {
            let i = (self.next + k) % n;
            let depth = self.rings[i].len();
            if depth == 0 {
                continue;
            }
            self.depth_high_water = self.depth_high_water.max(depth);
            let got = self.rings[i].pop_into(scratch, Self::MAX_POP);
            if got > 0 {
                self.delivered[i] += got as u64;
                self.next = (i + 1) % n;
                return Some(i);
            }
        }
        None
    }

    /// True once every producer has dropped and every ring is drained.
    fn finished(&mut self) -> bool {
        self.rings.iter_mut().all(|r| r.is_finished())
    }

    /// Collects the next available samples into `scratch` (cleared
    /// first), waiting at most `timeout` while every ring is empty. A
    /// [`Polled::Timeout`] only means the wait ran out; the caller
    /// simply polls again.
    pub fn poll(&mut self, timeout: std::time::Duration, scratch: &mut Vec<Sample>) -> Polled {
        scratch.clear();
        if let Some(machine) = self.sweep(scratch) {
            return Polled::Batch { machine };
        }
        if self.finished() {
            return Polled::Disconnected;
        }
        // Park: raise the flag, then re-sweep. A producer that published
        // before the flag went up is caught by the re-sweep; one that
        // publishes after sees the flag (its SeqCst fence pairs with this
        // one) and rings the bell. The timed wait bounds the cost of any
        // schedule that threads this needle anyway.
        self.doorbell.parked.store(true, Ordering::SeqCst);
        fence(Ordering::SeqCst);
        let polled = if let Some(machine) = self.sweep(scratch) {
            Polled::Batch { machine }
        } else if self.finished() {
            Polled::Disconnected
        } else {
            let doorbell = Arc::clone(&self.doorbell);
            loop {
                let mut guard = doorbell.signal.lock().unwrap_or_else(|e| e.into_inner());
                let mut timed_out = false;
                if !*guard {
                    // No ring latched since the re-sweep: wait for one
                    // (or the poll timeout). A ring that lands from
                    // here on holds the lock, so it either finds us
                    // waiting (notify) or latches the bit, which the
                    // next pass consumes instead of waiting.
                    let (g, to) = doorbell
                        .bell
                        .wait_timeout(guard, timeout)
                        .unwrap_or_else(|e| e.into_inner());
                    guard = g;
                    timed_out = to.timed_out();
                }
                *guard = false;
                drop(guard);
                // The producer latched (or notified) under the signal
                // lock after its writes, and we reacquired that lock, so
                // this sweep observes whatever prompted the wakeup.
                if let Some(machine) = self.sweep(scratch) {
                    break Polled::Batch { machine };
                }
                if self.finished() {
                    break Polled::Disconnected;
                }
                if timed_out {
                    // Only a genuine timer expiry surfaces as Timeout.
                    break Polled::Timeout;
                }
                // Spurious wakeup (a stale latch, or a disconnect ring
                // from one of several streams): park again.
            }
        };
        self.doorbell.parked.store(false, Ordering::SeqCst);
        polled
    }

    /// A snapshot of the fan-in counters: per stream, `sent = pushed +
    /// dropped`, and once drained `sent == delivered + dropped`.
    pub fn stats(&mut self) -> ChannelStats {
        ChannelStats {
            sent: self
                .rings
                .iter()
                .map(|r| r.pushed() + r.dropped())
                .collect(),
            dropped: self.rings.iter().map(|r| r.dropped()).collect(),
            delivered: self.delivered.clone(),
            depth_high_water: self.depth_high_water,
            block_waits: self.doorbell.block_waits.load(Ordering::Acquire),
        }
    }
}

#[cfg(all(test, not(kloom)))]
mod tests {
    use super::*;

    fn sample(t: u64) -> Sample {
        Sample {
            timestamp_ns: t,
            pid: 1,
            fixed: [t, 0, 0],
            pmc: [0; 4],
            ..Sample::default()
        }
    }

    fn batch_of(n: u64) -> Vec<Sample> {
        (0..n).map(sample).collect()
    }

    const POLL: std::time::Duration = std::time::Duration::from_millis(50);

    #[test]
    fn batches_arrive_tagged_with_their_stream() {
        let (mut tx, mut rx) = ring_fanin(2, 64, Backpressure::Block);
        tx[1].send(&batch_of(3));
        let mut scratch = Vec::new();
        assert_eq!(rx.poll(POLL, &mut scratch), Polled::Batch { machine: 1 });
        assert_eq!(scratch.len(), 3);
        assert_eq!(
            rx.poll(std::time::Duration::from_millis(1), &mut scratch),
            Polled::Timeout
        );
        drop(tx);
        assert_eq!(rx.poll(POLL, &mut scratch), Polled::Disconnected);
        let stats = rx.stats();
        assert_eq!(stats.sent, vec![0, 3]);
        assert_eq!(stats.delivered, vec![0, 3]);
        assert_eq!(stats.total_dropped(), 0);
    }

    #[test]
    fn round_robin_serves_every_stream() {
        let (mut tx, mut rx) = ring_fanin(3, 64, Backpressure::Block);
        for s in tx.iter_mut() {
            s.send(&batch_of(2));
        }
        let mut scratch = Vec::new();
        let mut served = Vec::new();
        for _ in 0..3 {
            match rx.poll(POLL, &mut scratch) {
                Polled::Batch { machine } => served.push(machine),
                other => panic!("expected a batch, got {other:?}"),
            }
        }
        served.sort_unstable();
        assert_eq!(served, vec![0, 1, 2], "no stream starved");
    }

    #[test]
    fn drop_newest_charges_the_sender_and_closes_the_books() {
        let (mut tx, mut rx) = ring_fanin(1, 4, Backpressure::DropNewest);
        tx[0].send(&batch_of(3));
        tx[0].send(&batch_of(4)); // 1 slot free: 3 samples overflow
        drop(tx);
        let mut scratch = Vec::new();
        let mut delivered = 0;
        loop {
            match rx.poll(POLL, &mut scratch) {
                Polled::Batch { .. } => delivered += scratch.len() as u64,
                Polled::Timeout => continue,
                Polled::Disconnected => break,
            }
        }
        let stats = rx.stats();
        assert_eq!(stats.sent, vec![7]);
        assert_eq!(stats.dropped, vec![3]);
        assert_eq!(stats.delivered, vec![delivered]);
        assert_eq!(stats.sent[0], stats.delivered[0] + stats.dropped[0]);
    }

    #[test]
    fn depth_high_water_is_sticky_and_counted_in_samples() {
        let (mut tx, mut rx) = ring_fanin(2, 64, Backpressure::Block);
        tx[0].send(&batch_of(3));
        tx[0].send(&batch_of(2)); // ring 0: two batches, five samples
        tx[1].send(&batch_of(4));
        let mut scratch = Vec::new();
        for _ in 0..2 {
            assert!(matches!(rx.poll(POLL, &mut scratch), Polled::Batch { .. }));
        }
        assert_eq!(rx.stats().depth_high_water, 5, "deepest ring, in samples");
        tx[1].send(&batch_of(1));
        assert_eq!(rx.poll(POLL, &mut scratch), Polled::Batch { machine: 1 });
        assert_eq!(rx.stats().depth_high_water, 5, "high-water is sticky");
    }

    #[test]
    fn block_policy_is_lossless_across_threads() {
        // Tiny rings force producers through the blocking path while the
        // collector drains concurrently.
        let (tx, mut rx) = ring_fanin(4, 8, Backpressure::Block);
        let handles: Vec<_> = tx
            .into_iter()
            .map(|mut sender| {
                std::thread::spawn(move || {
                    for i in 0..200u64 {
                        sender.send(&batch_of(1 + i % 5));
                    }
                })
            })
            .collect();
        let mut scratch = Vec::new();
        let mut received = 0u64;
        loop {
            match rx.poll(POLL, &mut scratch) {
                Polled::Batch { .. } => received += scratch.len() as u64,
                Polled::Timeout => continue,
                Polled::Disconnected => break,
            }
        }
        for h in handles {
            h.join().unwrap();
        }
        let stats = rx.stats();
        assert_eq!(stats.total_dropped(), 0);
        assert_eq!(received, stats.sent.iter().sum::<u64>());
        assert_eq!(stats.delivered, stats.sent);
        assert!(stats.block_waits > 0, "tiny rings must have blocked");
    }

    #[test]
    fn parked_collector_wakes_on_late_send() {
        let (mut tx, mut rx) = ring_fanin(1, 64, Backpressure::Block);
        let h = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(10));
            tx[0].send(&batch_of(1));
            tx // keep the sender alive past the poll
        });
        let mut scratch = Vec::new();
        // Generous window: the send must wake us well inside it.
        let got = rx.poll(std::time::Duration::from_secs(5), &mut scratch);
        assert_eq!(got, Polled::Batch { machine: 0 });
        h.join().unwrap();
    }

    #[test]
    fn per_stream_order_is_preserved() {
        let (mut tx, mut rx) = ring_fanin(1, 1024, Backpressure::Block);
        for chunk in 0..10u64 {
            let batch: Vec<Sample> = (0..7).map(|i| sample(chunk * 7 + i)).collect();
            tx[0].send(&batch);
        }
        drop(tx);
        let mut scratch = Vec::new();
        let mut all = Vec::new();
        loop {
            match rx.poll(POLL, &mut scratch) {
                Polled::Batch { .. } => all.extend(scratch.iter().map(|s| s.timestamp_ns)),
                Polled::Timeout => continue,
                Polled::Disconnected => break,
            }
        }
        let expect: Vec<u64> = (0..70).collect();
        assert_eq!(all, expect);
    }
}
