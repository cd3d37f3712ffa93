//! Property-based tests of the K-LEB wire formats.

use proptest::prelude::*;

use kleb::{ModuleStatus, MonitorConfig, Sample, RECORD_BYTES};
use pmu::HwEvent;

/// Up to four distinct programmable events, in an arbitrary order.
fn arb_events() -> impl Strategy<Value = Vec<HwEvent>> {
    proptest::collection::vec(0usize..pmu::event::ALL_EVENTS.len(), 0..8).prop_map(|indices| {
        let mut events: Vec<HwEvent> = Vec::new();
        for i in indices {
            let e = pmu::event::ALL_EVENTS[i];
            if !events.contains(&e) {
                events.push(e);
            }
        }
        events.truncate(pmu::NUM_PROGRAMMABLE);
        events
    })
}

fn arb_sample() -> impl Strategy<Value = Sample> {
    (
        any::<u64>(),
        any::<u64>(),
        any::<u32>(),
        (any::<bool>(), any::<bool>(), any::<bool>()),
        any::<[u64; 3]>(),
        any::<[u64; 4]>(),
    )
        .prop_map(
            |(timestamp_ns, seq, pid, (final_sample, gap, retune), fixed, pmc)| Sample {
                timestamp_ns,
                seq,
                pid,
                final_sample,
                gap,
                retune,
                fixed,
                pmc,
            },
        )
}

fn arb_status() -> impl Strategy<Value = ModuleStatus> {
    (
        (any::<bool>(), any::<bool>()),
        any::<[u64; 4]>(),
        any::<u64>(),
    )
        .prop_map(
            |(
                (target_alive, paused),
                [buffered, samples_taken, samples_dropped, pauses],
                period_ns,
            )| {
                ModuleStatus {
                    target_alive,
                    buffered,
                    samples_taken,
                    samples_dropped,
                    pauses,
                    paused,
                    period_ns,
                }
            },
        )
}

proptest! {
    /// Every sample round-trips through the 80-byte wire format.
    #[test]
    fn sample_codec_roundtrip(sample in arb_sample()) {
        let mut buf = Vec::new();
        sample.encode_into(&mut buf);
        prop_assert_eq!(buf.len(), RECORD_BYTES);
        prop_assert_eq!(Sample::decode(&buf), Some(sample));
    }

    /// Batches of samples decode to exactly the encoded sequence, ignoring
    /// trailing partial bytes.
    #[test]
    fn batch_codec_roundtrip(
        samples in proptest::collection::vec(arb_sample(), 0..20),
        garbage in proptest::collection::vec(any::<u8>(), 0..RECORD_BYTES - 1),
    ) {
        let mut buf = Vec::new();
        for s in &samples {
            s.encode_into(&mut buf);
        }
        buf.extend_from_slice(&garbage);
        let decoded = Sample::decode_all(&buf);
        prop_assert_eq!(decoded, samples);
    }

    /// Monitor configs round-trip through the ioctl payload marshalling.
    #[test]
    fn config_payload_roundtrip(
        target in 1u32..10_000,
        events in arb_events(),
        period_ns in 1u64..1_000_000_000,
        track_children in any::<bool>(),
        buffer_capacity in 1usize..100_000,
        count_kernel in any::<bool>(),
    ) {
        let mut cfg = MonitorConfig::new(
            ksim::Pid(target),
            &events,
            ksim::Duration::from_nanos(period_ns),
        );
        cfg.track_children = track_children;
        cfg.buffer_capacity = buffer_capacity;
        cfg.count_kernel = count_kernel;
        let back = MonitorConfig::from_payload(&cfg.to_payload());
        prop_assert_eq!(back, Some(cfg));
    }

    /// Status snapshots round-trip through the ioctl out-payload.
    #[test]
    fn status_payload_roundtrip(status in arb_status()) {
        prop_assert_eq!(ModuleStatus::from_payload(&status.to_payload()), Some(status));
    }

}
