//! The SPSC ring and its memory-ordering protocol.
//!
//! **This is the one module in the workspace that is allowed to use
//! `std::sync::atomic::Ordering` for cross-thread data publication**
//! (klint rule D3 allowlists it, and no other file). Every ordering
//! choice below is load-bearing; the argument is spelled out once here
//! and relied on everywhere else.
//!
//! # Layout
//!
//! A ring of `capacity` (power of two) slots, each an
//! `UnsafeCell<MaybeUninit<T>>`, plus two monotonically increasing
//! indices: `tail` (next slot the producer will write) and `head` (next
//! slot the consumer will read). A slot for logical index `i` is
//! `buf[i & (capacity - 1)]`. Indices never wrap in practice (`usize`
//! wrapping arithmetic keeps the math correct even if they did), so
//! `tail - head` is always the queue length and there is no full/empty
//! ambiguity.
//!
//! The live region `[head, tail)` is owned by the consumer for reading;
//! the free region `[tail, head + capacity)` is owned by the producer
//! for writing. The two atomics are cache-line padded so the producer's
//! stores to `tail` and the consumer's stores to `head` never contend
//! for the same line (false sharing is the classic SPSC throughput
//! killer).
//!
//! # Ordering argument
//!
//! Four rules carry the whole protocol:
//!
//! 1. **Publish: slot writes → `tail.store(Release)`.** The producer
//!    copies a whole batch into free slots with plain (non-atomic)
//!    writes, then publishes them with a single release store of the new
//!    tail. Release guarantees the slot writes are visible to any thread
//!    that acquire-loads a tail value ≥ the published one.
//! 2. **Observe: `tail.load(Acquire)` → slot reads.** The consumer
//!    acquire-loads the tail once per pop batch. Synchronizing with (1),
//!    every slot in `[head, tail)` is fully initialized before it is
//!    read. One acquire per batch, never per sample.
//! 3. **Retire: slot reads → `head.store(Release)`.** After copying a
//!    batch out, the consumer release-stores the new head. This orders
//!    the consumer's slot *reads* before the store — a slot is never
//!    handed back while a read of it could still be in flight.
//! 4. **Reuse: `head.load(Acquire)` → slot writes.** The producer
//!    acquire-loads the head before writing into slots it previously
//!    filled. Synchronizing with (3), the consumer's reads of those
//!    slots happened-before the producer's overwrites.
//!
//! (1)+(2) make data visible before it is readable; (3)+(4) make it
//! unreadable before it is overwritable. Both sides cache the other's
//! index and only re-load it when the cached value is insufficient, so
//! an uncontended push or pop touches exactly one shared atomic.
//!
//! The side ledgers (`pushed`, `dropped`) are monotonic counters
//! published with release stores after the data they describe, and the
//! `done` flag is release-stored by the producer's drop after its final
//! counter flush — an acquire load of `done == true` therefore also
//! sees the final tail and ledger values.
//!
//! # The `#[cfg(kloom)]` facade pattern
//!
//! This module never names `std::sync::atomic` or `UnsafeCell` directly;
//! it imports `AtomicUsize`/`AtomicBool`/`AtomicU64` and the [`Slot`]
//! cell from [`crate::sync`]. In normal builds those are exactly the std
//! types (a zero-cost re-export — this hot path compiles to the same
//! code as before the facade). Under `RUSTFLAGS="--cfg kloom"` they are
//! `kloom`'s instrumented shadows, and `kchan/tests/kloom_ring.rs` runs
//! the ring under *every* bounded thread interleaving and weak-memory
//! value choice: the four rules above stop being prose and become
//! machine-checked invariants. The four ordering constants are routed
//! through `proto_ord!` so the mutation tests can weaken one rule at a
//! time and assert the checker reports it (identity in normal builds).

use std::sync::Arc;

use crate::sync::{proto_ord, AtomicBool, AtomicU64, AtomicUsize, Ordering, Slot};

/// Pads (and aligns) a value to a 64-byte cache line so neighbouring
/// fields never false-share.
#[repr(align(64))]
#[derive(Debug, Default)]
struct CachePadded<T>(T);

#[derive(Debug)]
struct Shared<T> {
    buf: Box<[Slot<T>]>,
    mask: usize,
    /// Consumer-written: next logical index to read.
    head: CachePadded<AtomicUsize>,
    /// Producer-written: next logical index to write.
    tail: CachePadded<AtomicUsize>,
    /// Producer-written ledger: samples accepted into the ring, ever.
    pushed: AtomicU64,
    /// Producer-written ledger: samples the caller charged as dropped.
    dropped: AtomicU64,
    /// Producer dropped; no further pushes will ever happen.
    done: AtomicBool,
}

// `Shared` is Send + Sync by composition: `Slot` carries the safety
// argument for the partitioned cells (see `crate::sync`), and the
// remaining fields are atomics.

/// Creates a ring with room for `capacity` items (rounded up to the next
/// power of two), returning its two endpoints.
///
/// `T: Copy` is required so slots need no drop glue: an abandoned ring
/// (either side dropped mid-stream) leaks no resources.
///
/// # Panics
///
/// Panics if `capacity == 0`.
pub fn ring<T: Copy + Send>(capacity: usize) -> (Producer<T>, Consumer<T>) {
    assert!(capacity > 0, "ring capacity must be non-zero");
    let capacity = capacity.next_power_of_two();
    let buf: Box<[Slot<T>]> = (0..capacity).map(|_| Slot::uninit()).collect();
    let shared = Arc::new(Shared {
        buf,
        mask: capacity - 1,
        head: CachePadded(AtomicUsize::new(0)),
        tail: CachePadded(AtomicUsize::new(0)),
        pushed: AtomicU64::new(0),
        dropped: AtomicU64::new(0),
        done: AtomicBool::new(false),
    });
    (
        Producer {
            shared: Arc::clone(&shared),
            tail: 0,
            cached_head: 0,
            pushed: 0,
            dropped: 0,
        },
        Consumer {
            shared,
            head: 0,
            cached_tail: 0,
        },
    )
}

/// The writing end. `!Clone`: exactly one producer exists per ring.
#[derive(Debug)]
pub struct Producer<T: Copy + Send> {
    shared: Arc<Shared<T>>,
    /// Local copy of the published tail (only this side advances it).
    tail: usize,
    /// Last head value observed from the consumer.
    cached_head: usize,
    pushed: u64,
    dropped: u64,
}

impl<T: Copy + Send> Producer<T> {
    /// Slot capacity of the ring.
    pub fn capacity(&self) -> usize {
        self.shared.mask + 1
    }

    /// Free slots, refreshing the cached consumer index.
    pub fn free(&mut self) -> usize {
        // Ordering rule 4: acquire the head before treating its slots as
        // writable.
        self.cached_head = self
            .shared
            .head
            .0
            .load(proto_ord!(REUSE, Ordering::Acquire));
        self.capacity() - self.tail.wrapping_sub(self.cached_head)
    }

    /// Copies as many leading `items` as fit and publishes them with one
    /// release store. Returns how many were accepted; the caller decides
    /// what an incomplete push means (retry, back off, or
    /// [`Producer::mark_dropped`]).
    ///
    /// An empty slice is a no-op returning 0.
    pub fn try_push(&mut self, items: &[T]) -> usize {
        if items.is_empty() {
            return 0;
        }
        let capacity = self.capacity();
        let mut free = capacity - self.tail.wrapping_sub(self.cached_head);
        if free < items.len() {
            free = self.free();
        }
        let n = free.min(items.len());
        if n == 0 {
            return 0;
        }
        for (i, item) in items[..n].iter().enumerate() {
            let slot = self.tail.wrapping_add(i) & self.shared.mask;
            // SAFETY: slots [tail, tail + n) lie in the free region
            // [tail, cached_head + capacity): `n <= free` above. Rule 4's
            // acquire load of head ordered the consumer's reads of these
            // slots before this write; no other thread writes them (single
            // producer, by construction).
            unsafe { self.shared.buf[slot].write(*item) };
        }
        self.tail = self.tail.wrapping_add(n);
        // Ordering rule 1: one release store publishes the whole batch.
        self.shared
            .tail
            .0
            .store(self.tail, proto_ord!(PUBLISH, Ordering::Release));
        self.pushed += n as u64;
        self.shared.pushed.store(self.pushed, Ordering::Release);
        n
    }

    /// Charges `n` items to the ring's drop ledger — the caller chose to
    /// discard them after an incomplete [`Producer::try_push`].
    pub fn mark_dropped(&mut self, n: u64) {
        self.dropped += n;
        self.shared.dropped.store(self.dropped, Ordering::Release);
    }

    /// Items accepted into the ring so far.
    pub fn pushed(&self) -> u64 {
        self.pushed
    }

    /// Items charged as dropped so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Publishes end-of-stream early: final ledger flush, then the done
    /// flag; the release store of `done` makes both visible to the
    /// consumer's acquire load. Idempotent — dropping the producer calls
    /// it again harmlessly. Callers that must notify a sleeping consumer
    /// (e.g. the fleet doorbell) use this to order the done flag *before*
    /// their wakeup signal, which `Drop` alone cannot (a drop body runs
    /// before its fields' destructors).
    pub fn finish(&mut self) {
        self.shared.pushed.store(self.pushed, Ordering::Release);
        self.shared.dropped.store(self.dropped, Ordering::Release);
        self.shared.done.store(true, Ordering::Release);
    }
}

impl<T: Copy + Send> Drop for Producer<T> {
    fn drop(&mut self) {
        self.finish();
    }
}

/// The reading end. `!Clone`: exactly one consumer exists per ring.
#[derive(Debug)]
pub struct Consumer<T: Copy + Send> {
    shared: Arc<Shared<T>>,
    /// Local copy of the published head (only this side advances it).
    head: usize,
    /// Last tail value observed from the producer.
    cached_tail: usize,
}

impl<T: Copy + Send> Consumer<T> {
    /// Slot capacity of the ring.
    pub fn capacity(&self) -> usize {
        self.shared.mask + 1
    }

    /// Items currently queued (refreshes the cached producer index).
    pub fn len(&mut self) -> usize {
        // Ordering rule 2: acquire the tail before trusting its slots.
        self.cached_tail = self
            .shared
            .tail
            .0
            .load(proto_ord!(OBSERVE, Ordering::Acquire));
        self.cached_tail.wrapping_sub(self.head)
    }

    /// Whether the ring is momentarily empty.
    pub fn is_empty(&mut self) -> bool {
        self.len() == 0
    }

    /// Pops up to `max` items into `out` (appending), retiring the slots
    /// with one release store. Returns how many were popped.
    ///
    /// One acquire load observes the batch, one release store hands the
    /// slots back — the per-sample cost is a `memcpy`.
    pub fn pop_into(&mut self, out: &mut Vec<T>, max: usize) -> usize {
        let mut avail = self.cached_tail.wrapping_sub(self.head);
        if avail == 0 {
            avail = self.len();
            if avail == 0 {
                return 0;
            }
        }
        let n = avail.min(max);
        out.reserve(n);
        for i in 0..n {
            let slot = self.head.wrapping_add(i) & self.shared.mask;
            // SAFETY: slots [head, head + n) lie in the live region
            // [head, cached_tail): `n <= avail`. Rule 2's acquire load of
            // tail ordered the producer's writes before these reads; the
            // producer will not overwrite them until rule 4 observes the
            // head advance below.
            out.push(unsafe { self.shared.buf[slot].read() });
        }
        self.head = self.head.wrapping_add(n);
        // Ordering rule 3: retire the whole batch with one release store.
        self.shared
            .head
            .0
            .store(self.head, proto_ord!(RETIRE, Ordering::Release));
        n
    }

    /// Items the producer has accepted into the ring, ever.
    pub fn pushed(&self) -> u64 {
        self.shared.pushed.load(Ordering::Acquire)
    }

    /// Items the producer charged as dropped, ever.
    pub fn dropped(&self) -> u64 {
        self.shared.dropped.load(Ordering::Acquire)
    }

    /// True once the producer is gone *and* the ring is drained: no item
    /// is left and none can ever arrive. The acquire load of `done`
    /// synchronizes with the producer's final flush, so a `true` return
    /// also means [`Consumer::pushed`]/[`Consumer::dropped`] are final.
    pub fn is_finished(&mut self) -> bool {
        // Check done *before* emptiness: the opposite order races a
        // producer that pushes one last batch and exits between the two
        // loads.
        self.shared.done.load(Ordering::Acquire) && self.is_empty()
    }
}

#[cfg(all(test, not(kloom)))]
mod tests {
    use super::*;

    #[test]
    fn capacity_rounds_up_to_power_of_two() {
        let (tx, _rx) = ring::<u64>(48);
        assert_eq!(tx.capacity(), 64);
        let (tx, _rx) = ring::<u64>(1);
        assert_eq!(tx.capacity(), 1);
    }

    #[test]
    fn push_pop_round_trips_in_order() {
        let (mut tx, mut rx) = ring::<u64>(8);
        assert_eq!(tx.try_push(&[1, 2, 3]), 3);
        let mut out = Vec::new();
        assert_eq!(rx.pop_into(&mut out, usize::MAX), 3);
        assert_eq!(out, vec![1, 2, 3]);
        assert_eq!(rx.pop_into(&mut out, usize::MAX), 0);
    }

    #[test]
    fn full_ring_accepts_a_prefix_only() {
        let (mut tx, mut rx) = ring::<u64>(4);
        assert_eq!(tx.try_push(&[0, 1, 2]), 3);
        assert_eq!(tx.try_push(&[3, 4, 5]), 1, "one slot left");
        assert_eq!(tx.try_push(&[9]), 0, "full");
        tx.mark_dropped(2);
        let mut out = Vec::new();
        rx.pop_into(&mut out, usize::MAX);
        assert_eq!(out, vec![0, 1, 2, 3]);
        assert_eq!(rx.pushed(), 4);
        assert_eq!(rx.dropped(), 2);
        // Space reclaimed after the pop.
        assert_eq!(tx.try_push(&[6, 7, 8, 9]), 4);
    }

    #[test]
    fn wraparound_preserves_order_across_many_laps() {
        let (mut tx, mut rx) = ring::<u64>(8);
        let mut out = Vec::new();
        let mut next = 0u64;
        for lap in 0..100 {
            let batch: Vec<u64> = (0..(lap % 7 + 1)).map(|i| next + i).collect();
            assert_eq!(tx.try_push(&batch), batch.len());
            next += batch.len() as u64;
            rx.pop_into(&mut out, usize::MAX);
        }
        let expect: Vec<u64> = (0..next).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn pop_respects_max_and_keeps_the_rest() {
        let (mut tx, mut rx) = ring::<u64>(16);
        tx.try_push(&[1, 2, 3, 4, 5]);
        let mut out = Vec::new();
        assert_eq!(rx.pop_into(&mut out, 2), 2);
        assert_eq!(rx.len(), 3);
        assert_eq!(rx.pop_into(&mut out, usize::MAX), 3);
        assert_eq!(out, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn is_finished_requires_done_and_empty() {
        let (mut tx, mut rx) = ring::<u64>(8);
        tx.try_push(&[7]);
        assert!(!rx.is_finished());
        drop(tx);
        assert!(!rx.is_finished(), "still holds an item");
        let mut out = Vec::new();
        rx.pop_into(&mut out, usize::MAX);
        assert!(rx.is_finished());
        assert_eq!(rx.pushed(), 1);
    }

    #[test]
    fn empty_push_is_a_no_op() {
        let (mut tx, mut rx) = ring::<u64>(4);
        assert_eq!(tx.try_push(&[]), 0);
        assert!(rx.is_empty());
        assert_eq!(rx.pushed(), 0);
    }
}
