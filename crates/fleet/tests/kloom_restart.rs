//! kloom model of the supervisor's restart handshake over the ring
//! fan-in: a machine's stream goes silent (the attempt panicked and the
//! supervisor is rebuilding the machine), then resumes when the next
//! incarnation — the breaker's half-open probe, if it tripped — starts
//! producing again.
//!
//! The hazard is the restart-specific lost wakeup: the collector parks
//! on the doorbell *during the silence gap*, and the resumed
//! incarnation's first send must wake it. Build with
//! `RUSTFLAGS="--cfg kloom"` (ci.sh's kloom gate does); `wait_timeout`
//! never times out under kloom, so a lost wakeup is a reported deadlock,
//! not a latency blip the poll timeout papers over.
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

/// Poll until `Disconnected`, accumulating delivered timestamps — any
/// wakeup the protocol can lose parks this loop forever.
fn drain(mut rx: fleet::ingest::RingCollector) -> Vec<u64> {
    let mut scratch = Vec::new();
    let mut got = Vec::new();
    loop {
        match rx.poll(Duration::from_secs(1), &mut scratch) {
            Polled::Batch { .. } => got.extend(scratch.iter().map(|s| s.timestamp_ns)),
            Polled::Timeout => {}
            Polled::Disconnected => return got,
        }
    }
}

/// The supervised restart shape: attempt 0 produces, the stream goes
/// silent (sender alive but idle — exactly what `StreamProgress` holding
/// the sender across `catch_unwind` looks like), then the restarted
/// incarnation produces and ends the stream. The collector may park at
/// any point in the gap; the resume send must always wake it, and
/// end-of-stream must still be observed after a resume.
#[test]
fn restart_resume_never_loses_the_wakeup() {
    let report = explore(Options::default(), || {
        let (mut senders, rx) = ring_fanin(1, 4, Backpressure::Block);
        let mut tx = senders.pop().unwrap();
        let t = kloom::thread::spawn(move || {
            // Attempt 0 forwards one batch, then panics: the supervisor
            // keeps the sender, so nothing is published in the gap.
            tx.send(&[sample(1)]);
            // Backoff + breaker wait: the collector can fully park here.
            kloom::thread::yield_now();
            // The half-open probe incarnation resumes the stream.
            tx.send(&[sample(2), sample(3)]);
            // Supervisor verdict reached: dropping the sender is the
            // end-of-stream signal.
        });
        let got = drain(rx);
        assert_eq!(
            got,
            vec![1, 2, 3],
            "restart gap lost or reordered samples across the doorbell"
        );
        t.join().unwrap();
    });
    assert!(
        report.failure.is_none(),
        "restart handshake flagged: {}",
        report.failure.unwrap()
    );
    assert!(
        report.executions > 10,
        "model explored a real schedule space"
    );
}

/// Budget exhaustion next to a survivor: one stream dies without ever
/// producing (terminal failure — the supervisor drops its sender with no
/// final sample), the other restarts and completes. The collector must
/// see the survivor's full series and still observe the global
/// disconnect, whichever order the two streams wind down in.
#[test]
fn dead_stream_beside_a_restarted_one_still_disconnects() {
    let report = explore(Options::default(), || {
        let (mut senders, rx) = ring_fanin(2, 4, Backpressure::Block);
        let mut survivor = senders.pop().unwrap(); // stream 1
        let casualty = senders.pop().unwrap(); // stream 0
        let t_dead = kloom::thread::spawn(move || {
            // Restart budget exhausted before anything was forwarded:
            // the only signal this stream ever sends is its drop.
            drop(casualty);
        });
        let t_live = kloom::thread::spawn(move || {
            survivor.send(&[sample(10)]);
            kloom::thread::yield_now(); // its own restart gap
            survivor.send(&[sample(11)]);
        });
        let got = drain(rx);
        assert_eq!(got, vec![10, 11], "survivor's series must be intact");
        t_dead.join().unwrap();
        t_live.join().unwrap();
    });
    assert!(
        report.failure.is_none(),
        "dead-stream wind-down flagged: {}",
        report.failure.unwrap()
    );
}
