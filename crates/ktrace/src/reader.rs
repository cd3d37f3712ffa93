//! Trace reading and corruption recovery.
//!
//! The reader trusts nothing it has not checksummed. Scanning is a
//! single forward pass over the body: validate a block header (its own
//! CRC), then its payload (the payload CRC), then decode. Damage
//! degrades, never panics:
//!
//! - a CRC-bad or undecodable payload under a valid header skips the
//!   block and counts its samples lost (the header's `count` is
//!   trustworthy);
//! - a smashed header triggers a byte-wise *resync* scan for the next
//!   valid block magic — later blocks survive mid-file damage, and the
//!   `first_index` gap between the last good block and the next one
//!   counts exactly the samples destroyed in between;
//! - a truncated tail is discarded and flagged.
//!
//! Everything observed lands in the [`RecoveryReport`]; with the ledger
//! (or the writer's own count) in hand, every sample of the original
//! stream is classified recovered or lost — see
//! [`RecoveryReport::total_lost`].

use crate::codec::{decode_block, MIN_SAMPLE_BYTES};
use crate::crc::crc32;
use crate::format::{
    BlockHeader, StreamLedger, StreamMeta, TraceError, BLOCK_HEADER_LEN, KIND_LEDGER, KIND_SAMPLES,
};
use kleb::Sample;

/// What a recovery pass saw. All counters are exact, never estimates.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Blocks that decoded cleanly (ledger included).
    pub blocks_ok: u64,
    /// Blocks with a valid header but a CRC-bad or undecodable payload.
    pub blocks_corrupt: u64,
    /// Times the scanner lost the block framing and hunted for the next
    /// magic.
    pub resyncs: u64,
    /// Bytes discarded while resynchronising.
    pub bytes_skipped: u64,
    /// Samples decoded and returned.
    pub samples_recovered: u64,
    /// Samples known destroyed: corrupt-block counts plus `first_index`
    /// gaps between readable blocks (and up to the ledger's total when
    /// it survived).
    pub samples_lost: u64,
    /// Trailing bytes too short or too damaged to frame a block.
    pub tail_bytes_discarded: u64,
    /// The body ended mid-block (crash or truncation).
    pub tail_truncated: bool,
    /// No ledger block survived — the stream total must come from the
    /// writer (or the caller's ground truth).
    pub ledger_missing: bool,
}

impl RecoveryReport {
    /// No damage of any kind.
    pub fn is_clean(&self) -> bool {
        self.blocks_corrupt == 0
            && self.resyncs == 0
            && self.bytes_skipped == 0
            && self.samples_lost == 0
            && self.tail_bytes_discarded == 0
            && !self.tail_truncated
            && !self.ledger_missing
    }

    /// Total samples lost against a known stream total (the ledger's
    /// `samples_written`, or ground truth): in-body losses plus whatever
    /// fell off the damaged tail.
    pub fn total_lost(&self, expected_total: u64) -> u64 {
        expected_total.saturating_sub(self.samples_recovered)
    }
}

/// A fully (or partially, after damage) recovered stream.
#[derive(Debug, Clone)]
pub struct RecoveredStream {
    /// Stream identity from the file header.
    pub meta: StreamMeta,
    /// Recovered samples, stream order.
    pub samples: Vec<Sample>,
    /// Drain-batch lengths for [`RecoveredStream::batches`]; sums to
    /// `samples.len()`.
    pub batch_lens: Vec<u64>,
    /// The end-of-stream ledger, if it survived.
    pub ledger: Option<StreamLedger>,
    /// What recovery saw.
    pub report: RecoveryReport,
}

/// A trace image held in memory, ready to be recovered.
#[derive(Debug, Clone)]
pub struct TraceReader {
    meta: StreamMeta,
    bytes: Vec<u8>,
    body_offset: usize,
    /// Samples the governing manifest says the writer appended, if one
    /// was found: what [`TraceReader::read_all`] reserves for.
    manifest_samples: Option<u64>,
}

impl TraceReader {
    /// Opens and validates `path`'s file header.
    ///
    /// If a valid sidecar [`Manifest`](crate::Manifest) governs the
    /// trace, the image is clipped to the manifest's sealed length
    /// first: bytes past the seal are post-crash garbage, not stream
    /// data, and must not reach the scanner. Without a manifest the
    /// whole file is scanned and recovery does its usual counting.
    ///
    /// # Errors
    ///
    /// [`TraceError::Io`] if the file cannot be read,
    /// [`TraceError::BadHeader`] if it is not a ktrace segment.
    pub(crate) fn open(path: &std::path::Path) -> Result<Self, TraceError> {
        let mut bytes = std::fs::read(path)?;
        let manifest = crate::manifest::Manifest::load(path);
        if let Some(manifest) = manifest {
            if (manifest.file_len as usize) <= bytes.len() {
                bytes.truncate(manifest.file_len as usize);
            }
            // A manifest longer than the file means the sealed data
            // itself was lost after the fact; scan what remains and let
            // recovery flag the truncated tail.
        }
        let mut reader = Self::from_bytes(bytes)?;
        reader.manifest_samples = manifest.map(|m| m.samples_written);
        Ok(reader)
    }

    /// Wraps an in-memory trace image.
    ///
    /// # Errors
    ///
    /// [`TraceError::BadHeader`] if the file header is damaged — with no
    /// stream identity there is nothing to recover against.
    pub fn from_bytes(bytes: Vec<u8>) -> Result<Self, TraceError> {
        let (meta, body_offset) = StreamMeta::decode_header(&bytes)?;
        Ok(Self {
            meta,
            bytes,
            body_offset,
            manifest_samples: None,
        })
    }

    /// The stream's identity.
    pub fn meta(&self) -> &StreamMeta {
        &self.meta
    }

    /// Recovers the whole stream (batch structure and ledger included).
    ///
    /// With a manifest, the samples are decoded into a `Vec` reserved
    /// for the count it records, so a sealed stream reads back without
    /// regrowth or slack. The reserve is capped at what the body's
    /// bytes could decode to, so a corrupt count cannot allocate without
    /// bound.
    pub fn read_all(&self) -> RecoveredStream {
        let body_len = self.bytes.len().saturating_sub(self.body_offset);
        let reserve = self
            .manifest_samples
            .map_or(0, |n| n.min((body_len / MIN_SAMPLE_BYTES) as u64) as usize);
        let mut samples = Vec::with_capacity(reserve);
        let mut batch_lens = Vec::new();
        let mut ledger = None;
        let report = self.scan(
            |s, b| {
                samples.extend_from_slice(s);
                batch_lens.extend_from_slice(b);
            },
            &mut ledger,
        );
        RecoveredStream {
            meta: self.meta.clone(),
            samples,
            batch_lens,
            ledger,
            report,
        }
    }

    /// The forward recovery scan: `emit` receives each decoded block's
    /// samples and batch lengths.
    fn scan(
        &self,
        mut emit: impl FnMut(&[Sample], &[u64]),
        ledger: &mut Option<StreamLedger>,
    ) -> RecoveryReport {
        let body = &self.bytes[self.body_offset.min(self.bytes.len())..];
        let mut report = RecoveryReport::default();
        let mut next_index = 0u64; // samples accounted for so far
        let mut pos = 0usize;
        let mut resyncing = false;
        while pos < body.len() {
            let Some(header) = BlockHeader::decode(&body[pos..]) else {
                if body.len() - pos < BLOCK_HEADER_LEN {
                    // Too short to ever frame a block: a truncated tail.
                    report.tail_bytes_discarded += (body.len() - pos) as u64;
                    report.tail_truncated = true;
                    break;
                }
                // Smashed header: hunt byte-wise for the next magic.
                if !resyncing {
                    report.resyncs += 1;
                    resyncing = true;
                }
                report.bytes_skipped += 1;
                pos += 1;
                continue;
            };
            resyncing = false;
            let payload_start = pos + BLOCK_HEADER_LEN;
            let payload_end = payload_start + header.payload_len as usize;
            let Some(payload) = body.get(payload_start..payload_end) else {
                // Valid header but the payload ran off the end: crash tail.
                report.tail_bytes_discarded += (body.len() - pos) as u64;
                report.tail_truncated = true;
                if header.kind == KIND_SAMPLES {
                    // The header is trustworthy: those samples are gone.
                    if header.first_index > next_index {
                        report.samples_lost += header.first_index - next_index;
                    }
                    report.samples_lost += header.count as u64;
                }
                break;
            };
            let payload_ok = crc32(payload) == header.payload_crc;
            match header.kind {
                KIND_SAMPLES => {
                    // Samples destroyed between the previous readable
                    // block and this one show up as an index gap.
                    if header.first_index > next_index {
                        report.samples_lost += header.first_index - next_index;
                    }
                    next_index = header.first_index + header.count as u64;
                    if !payload_ok {
                        report.blocks_corrupt += 1;
                        report.samples_lost += header.count as u64;
                    } else {
                        match decode_block(payload, header.count as usize) {
                            Some((samples, batch_lens)) => {
                                report.blocks_ok += 1;
                                report.samples_recovered += samples.len() as u64;
                                emit(&samples, &batch_lens);
                            }
                            None => {
                                report.blocks_corrupt += 1;
                                report.samples_lost += header.count as u64;
                            }
                        }
                    }
                }
                KIND_LEDGER => {
                    if header.first_index > next_index {
                        report.samples_lost += header.first_index - next_index;
                    }
                    next_index = next_index.max(header.first_index);
                    if payload_ok {
                        match StreamLedger::decode(payload) {
                            Some(l) => {
                                report.blocks_ok += 1;
                                *ledger = Some(l);
                            }
                            None => report.blocks_corrupt += 1,
                        }
                    } else {
                        report.blocks_corrupt += 1;
                    }
                }
                _ => {} // unreachable: BlockHeader::decode rejects unknown kinds
            }
            pos = payload_end;
        }
        report.ledger_missing = ledger.is_none();
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::writer::TraceWriter;
    use pmu::HwEvent;

    fn meta() -> StreamMeta {
        StreamMeta {
            label: "r".into(),
            seed: 5,
            period_ns: 100_000,
            events: vec![HwEvent::LlcReference, HwEvent::LlcMiss],
        }
    }

    fn sample(i: u64) -> Sample {
        Sample {
            timestamp_ns: (i + 1) * 100_000,
            seq: i,
            pid: 3,
            fixed: [1_000 + i % 5, 2_670, 2_000],
            pmc: [7 + i % 3, if i >= 64 { 9 } else { 0 }, 0, 0],
            ..Sample::default()
        }
    }

    fn written(n: u64, target: usize) -> Vec<u8> {
        let mut w = TraceWriter::new(Vec::new(), &meta())
            .unwrap()
            .block_target(target);
        for chunk in (0..n).collect::<Vec<_>>().chunks(16) {
            let batch: Vec<Sample> = chunk.iter().map(|&i| sample(i)).collect();
            w.append_batch(&batch).unwrap();
        }
        w.finish(&StreamLedger {
            status: kleb::ModuleStatus {
                samples_taken: n,
                ..Default::default()
            },
            ..Default::default()
        })
        .unwrap();
        w.into_inner()
    }

    #[test]
    fn clean_round_trip_with_ledger() {
        let bytes = written(100, 32);
        let reader = TraceReader::from_bytes(bytes).unwrap();
        assert_eq!(reader.meta(), &meta());
        let rec = reader.read_all();
        assert!(rec.report.is_clean(), "{:?}", rec.report);
        assert_eq!(rec.samples.len(), 100);
        assert_eq!(rec.batch_lens.iter().sum::<u64>(), 100);
        let ledger = rec.ledger.unwrap();
        assert_eq!(ledger.samples_written, 100);
        assert_eq!(ledger.status.samples_taken, 100);
        for (i, s) in rec.samples.iter().enumerate() {
            assert_eq!(*s, sample(i as u64));
        }
        // Batches reconstruct in order.
        assert!(rec.batch_lens.iter().all(|&l| l == 16 || l == 4));
    }

    #[test]
    fn read_all_reserves_the_manifest_count_within_the_body_cap() {
        use crate::manifest::Manifest;

        let dir = std::env::temp_dir().join(format!("ktrace-reserve-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("r.ktrace");
        let mut w = TraceWriter::create(&path, &meta())
            .unwrap()
            .block_target(32);
        for chunk in (0..100).collect::<Vec<u64>>().chunks(16) {
            let batch: Vec<Sample> = chunk.iter().map(|&i| sample(i)).collect();
            w.append_batch(&batch).unwrap();
        }
        w.seal_durable(&StreamLedger::default()).unwrap();
        let expected: Vec<Sample> = (0..100).map(sample).collect();

        // A sealed stream decodes into exactly its recorded count.
        let rec = TraceReader::open(&path).unwrap().read_all();
        assert_eq!(rec.samples, expected);
        assert_eq!(rec.samples.capacity(), 100, "no regrowth, no slack");

        // A manifest claiming far more samples than the body holds reads
        // back the same samples, and reserves no more than the body's
        // bytes could decode to.
        let mut manifest = Manifest::load(&path).expect("manifest committed");
        manifest.samples_written = u64::MAX / 2;
        manifest.write_atomic(&path).unwrap();
        let reader = TraceReader::open(&path).unwrap();
        let cap = (reader.bytes.len() - reader.body_offset) / MIN_SAMPLE_BYTES;
        let rec = reader.read_all();
        assert_eq!(rec.samples, expected);
        assert!(rec.report.is_clean(), "{:?}", rec.report);
        assert!(
            (100..=cap).contains(&rec.samples.capacity()),
            "capacity {} outside 100..={cap}",
            rec.samples.capacity()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_payload_is_skipped_and_counted() {
        let mut bytes = written(96, 32);
        // Flip one byte somewhere inside the second block's payload.
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        let rec = TraceReader::from_bytes(bytes).unwrap().read_all();
        assert!(!rec.report.is_clean());
        assert_eq!(
            rec.report.samples_recovered + rec.report.samples_lost,
            96,
            "every sample classified: {:?}",
            rec.report
        );
        assert!(rec.report.samples_lost > 0);
    }

    #[test]
    fn smashed_header_resyncs_to_later_blocks() {
        let bytes = written(96, 32);
        let reader = TraceReader::from_bytes(bytes.clone()).unwrap();
        let clean = reader.read_all();
        assert_eq!(clean.samples.len(), 96);
        // Smash the first block's header (just past the file header).
        let mut smashed = bytes;
        let body = meta().encode_header().len();
        for b in &mut smashed[body..body + 8] {
            *b ^= 0xA5;
        }
        let rec = TraceReader::from_bytes(smashed).unwrap().read_all();
        assert!(rec.report.resyncs >= 1);
        assert!(
            rec.samples.len() >= 32,
            "later blocks recovered: {}",
            rec.samples.len()
        );
        assert_eq!(
            rec.report.samples_recovered + rec.report.samples_lost,
            96,
            "index gaps account for the destroyed block: {:?}",
            rec.report
        );
        assert!(rec.ledger.is_some(), "ledger survives mid-file damage");
    }

    #[test]
    fn truncated_tail_is_flagged_not_fatal() {
        let bytes = written(96, 32);
        let cut = bytes.len() - 40;
        let rec = TraceReader::from_bytes(bytes[..cut].to_vec())
            .unwrap()
            .read_all();
        assert!(rec.report.tail_truncated || rec.report.ledger_missing);
        assert!(rec.report.total_lost(96) == 96 - rec.report.samples_recovered);
    }
}
