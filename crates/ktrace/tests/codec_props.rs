//! Property tests: the columnar codec and the full file round trip are
//! identities over arbitrary sample streams — including adversarial
//! ones (wild timestamps, sequence holes, gap flags everywhere).

use proptest::prelude::*;

use kleb::Sample;
use ktrace::{decode_block, encode_block_into, StreamLedger, StreamMeta, TraceReader, TraceWriter};
use pmu::HwEvent;

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

/// A monitoring-shaped stream: near-periodic timestamps, kernel seq
/// numbers with holes (ring overwrites), gap flags marking the holes.
fn arb_monitoring_stream() -> impl Strategy<Value = Vec<Sample>> {
    (
        1u64..1 << 40,                                // base timestamp
        proptest::collection::vec(0u64..200, 1..300), // per-period jitter
        proptest::collection::vec(0u64..3, 1..300),   // seq hole sizes
    )
        .prop_map(|(base, jitter, holes)| {
            let mut ts = base;
            let mut seq = 0u64;
            jitter
                .iter()
                .zip(holes.iter().cycle())
                .enumerate()
                .map(|(i, (&j, &hole))| {
                    ts += 100_000 + j;
                    seq += 1 + hole;
                    Sample {
                        timestamp_ns: ts,
                        seq,
                        pid: 1234,
                        final_sample: i + 1 == jitter.len(),
                        gap: hole > 0,
                        retune: j % 47 == 13, // occasional governor retunes
                        fixed: [1_000 + j, 2_670, 2_000 + j / 2],
                        pmc: [40 + j % 11, j % 3, 0, if j > 150 { j } else { 0 }],
                    }
                })
                .collect()
        })
}

/// Splits `n` samples into batches of the given (1-based) sizes, cycled.
fn batch_lens(n: usize, sizes: &[u64]) -> Vec<u64> {
    let mut lens = Vec::new();
    let mut left = n as u64;
    for &s in sizes.iter().cycle() {
        if left == 0 {
            break;
        }
        let take = (s + 1).min(left);
        lens.push(take);
        left -= take;
    }
    lens
}

proptest! {
    /// encode → decode is an identity over fully arbitrary samples.
    #[test]
    fn block_roundtrip_arbitrary_samples(
        samples in proptest::collection::vec(arb_sample(), 1..200),
        sizes in proptest::collection::vec(0u64..16, 1..8),
    ) {
        let lens = batch_lens(samples.len(), &sizes);
        let mut payload = Vec::new();
        encode_block_into(&samples, &lens, &mut payload);
        let decoded = decode_block(&payload, samples.len());
        prop_assert_eq!(decoded, Some((samples, lens)));
    }

    /// encode → decode is an identity over monitoring-shaped streams
    /// (seq holes, gap flags, final markers), and stays compact.
    #[test]
    fn block_roundtrip_monitoring_stream(
        samples in arb_monitoring_stream(),
        sizes in proptest::collection::vec(0u64..16, 1..8),
    ) {
        let lens = batch_lens(samples.len(), &sizes);
        let mut payload = Vec::new();
        let summary = encode_block_into(&samples, &lens, &mut payload);
        let (decoded, lens_back) = decode_block(&payload, samples.len()).unwrap();
        prop_assert_eq!(&decoded, &samples);
        prop_assert_eq!(lens_back, lens);
        prop_assert_eq!(summary.min_ts, samples[0].timestamp_ns);
        prop_assert_eq!(summary.max_ts, samples[samples.len() - 1].timestamp_ns);
    }

    /// The whole file layer — header, blocks, ledger — round-trips:
    /// write an arbitrary stream, read it back, get the identical
    /// samples, batch structure and ledger.
    #[test]
    fn file_roundtrip_preserves_everything(
        samples in arb_monitoring_stream(),
        sizes in proptest::collection::vec(0u64..16, 1..8),
        target in 1usize..64,
        seed in any::<u64>(),
    ) {
        let meta = StreamMeta {
            label: "prop".into(),
            seed,
            period_ns: 100_000,
            events: vec![HwEvent::LlcReference, HwEvent::LlcMiss],
        };
        let mut writer = TraceWriter::new(Vec::new(), &meta)
            .unwrap()
            .block_target(target);
        let lens = batch_lens(samples.len(), &sizes);
        let mut at = 0usize;
        for &len in &lens {
            writer.append_batch(&samples[at..at + len as usize]).unwrap();
            at += len as usize;
        }
        let ledger = StreamLedger {
            status: kleb::ModuleStatus {
                samples_taken: samples.len() as u64 + 3,
                samples_dropped: 3,
                ..Default::default()
            },
            ..Default::default()
        };
        writer.finish(&ledger).unwrap();
        let rec = TraceReader::from_bytes(writer.into_inner()).unwrap().read_all();
        prop_assert!(rec.report.is_clean(), "{:?}", rec.report);
        prop_assert_eq!(&rec.meta, &meta);
        prop_assert_eq!(&rec.samples, &samples);
        prop_assert_eq!(&rec.batch_lens, &lens);
        let back = rec.ledger.unwrap();
        prop_assert_eq!(back.samples_written, samples.len() as u64);
        prop_assert_eq!(back.status, ledger.status);
    }
}
