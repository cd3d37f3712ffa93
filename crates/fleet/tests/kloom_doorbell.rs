//! kloom model tests for the ingest doorbell: the parked-flag / SeqCst
//! fence / latched-signal protocol, checked under every bounded
//! interleaving.
//!
//! Build with `RUSTFLAGS="--cfg kloom"` (ci.sh's kloom gate does). The
//! key modeling trick is in `kloom::sync::Condvar`: `wait_timeout`
//! **never times out**, so "the doorbell never loses a wakeup" stops
//! being a latency property the poll timeout papers over and becomes a
//! checkable safety property — any lost wakeup is reported as a kloom
//! deadlock with the failing interleaving attached.
#![cfg(kloom)]

use std::time::Duration;

use fleet::ingest::{ring_fanin, Polled};
use fleet::Backpressure;
use kleb::Sample;
use kloom::{explore, Options};

fn sample(t: u64) -> Sample {
    Sample {
        timestamp_ns: t,
        pid: 1,
        fixed: [t, 0, 0],
        ..Sample::default()
    }
}

/// Collector side shared by every model: poll until `Disconnected`,
/// accumulating delivered timestamps. Any wakeup the protocol can lose
/// leaves this loop parked forever — a kloom deadlock.
fn drain(mut rx: fleet::ingest::RingCollector) -> Vec<u64> {
    let mut scratch = Vec::new();
    let mut got = Vec::new();
    loop {
        match rx.poll(Duration::from_secs(1), &mut scratch) {
            Polled::Batch { .. } => got.extend(scratch.iter().map(|s| s.timestamp_ns)),
            // A stale latched signal can produce one spurious timeout-
            // path wakeup (the bit is consumed, nothing was swept);
            // the next poll parks again. Never an infinite loop: each
            // spurious pass clears the bit that caused it.
            Polled::Timeout => {}
            Polled::Disconnected => return got,
        }
    }
}

/// A producer publishing into an empty fleet while the collector parks:
/// the classic lost-wakeup shape. Exhaustively, the collector always
/// observes both the samples and the disconnect.
#[test]
fn doorbell_wakeup_is_never_lost() {
    let report = explore(Options::default(), || {
        let (mut senders, rx) = ring_fanin(1, 4, Backpressure::Block);
        let mut tx = senders.pop().unwrap();
        let t = kloom::thread::spawn(move || {
            tx.send(&[sample(1)]);
            tx.send(&[sample(2)]);
            // tx drops here: finish() publishes done, then rings.
        });
        let got = drain(rx);
        assert_eq!(
            got,
            vec![1, 2],
            "samples lost or reordered across the doorbell"
        );
        t.join().unwrap();
    });
    assert!(
        report.failure.is_none(),
        "doorbell protocol flagged: {}",
        report.failure.unwrap()
    );
    assert!(
        report.executions > 10,
        "model explored a real schedule space"
    );
}

/// Block backpressure through a capacity-1 ring: the producer must spin
/// on a full ring (ringing the bell each fruitless pass) while the
/// collector drains — exercises `block_waits`, the producer-side ring
/// path, and slot reuse under the doorbell in one model.
#[test]
fn block_backpressure_is_lossless_and_deadlock_free() {
    let report = explore(Options::default(), || {
        let (mut senders, rx) = ring_fanin(1, 1, Backpressure::Block);
        let mut tx = senders.pop().unwrap();
        let t = kloom::thread::spawn(move || {
            tx.send(&[sample(1), sample(2)]);
        });
        let got = drain(rx);
        assert_eq!(got, vec![1, 2], "blocking producer lost a sample");
        t.join().unwrap();
    });
    assert!(
        report.failure.is_none(),
        "block backpressure flagged: {}",
        report.failure.unwrap()
    );
}

/// Disconnect-while-parked: the producer sends nothing at all. The only
/// wakeup the collector will ever get is the one `RingSender::drop`
/// rings after publishing the done flag; losing it (or ordering it
/// before the flag) parks the collector forever.
#[test]
fn disconnect_alone_wakes_a_parked_collector() {
    let report = explore(Options::default(), || {
        let (senders, rx) = ring_fanin(1, 2, Backpressure::Block);
        let t = kloom::thread::spawn(move || drop(senders));
        let got = drain(rx);
        assert!(got.is_empty());
        t.join().unwrap();
    });
    assert!(
        report.failure.is_none(),
        "disconnect wakeup flagged: {}",
        report.failure.unwrap()
    );
}
