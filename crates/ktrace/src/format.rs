//! The on-disk segment format: file header, block headers, stream
//! metadata and the end-of-stream ledger.
//!
//! A trace file is one stream of [`kleb::Sample`]s:
//!
//! ```text
//! File   = FileHeader · Block* · LedgerBlock?
//! Block  = BlockHeader(48 B, header-CRC) · payload(payload-CRC)
//! ```
//!
//! Every structure is independently checksummed so a reader can trust a
//! block header without trusting anything after it, and can resynchronise
//! on the next block magic after damage (see [`crate::reader`]). Block
//! headers carry a min/max-timestamp + active-lane index so range and
//! event queries skip payloads they cannot match, and a running
//! `first_index` so corruption losses are *counted*, not guessed.

use crate::crc::crc32;
use kleb::{GovernorStats, ModuleStatus, RecoveryStats};
use pmu::{HwEvent, ALL_EVENTS, NUM_FIXED, NUM_PROGRAMMABLE};

/// File magic: identifies a ktrace segment, version 1.
const FILE_MAGIC: [u8; 8] = *b"KTRACE1\n";
/// Block magic, the resync anchor after corruption.
const BLOCK_MAGIC: u32 = 0x4B54_424B; // "KTBK"
/// Encoded block-header length, bytes.
pub const BLOCK_HEADER_LEN: usize = 48;
/// Number of counter lanes a sample carries (3 fixed + 4 programmable).
pub const NUM_LANES: usize = NUM_FIXED + NUM_PROGRAMMABLE;

/// Block kind: columnar sample payload.
pub const KIND_SAMPLES: u8 = 1;
/// Block kind: end-of-stream ledger ([`StreamLedger`]).
pub const KIND_LEDGER: u8 = 2;

/// Why a trace could not be written or opened.
#[derive(Debug)]
#[non_exhaustive]
pub enum TraceError {
    /// An underlying I/O operation failed.
    Io(std::io::Error),
    /// The file header is missing, truncated, or fails its CRC — there is
    /// no stream identity to recover samples against.
    BadHeader(String),
    /// The writer was asked to continue after `finish`.
    Finished,
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::Io(e) => write!(f, "trace i/o error: {e}"),
            TraceError::BadHeader(msg) => write!(f, "bad trace header: {msg}"),
            TraceError::Finished => write!(f, "trace writer already finished"),
        }
    }
}

impl std::error::Error for TraceError {}

impl From<std::io::Error> for TraceError {
    fn from(e: std::io::Error) -> Self {
        TraceError::Io(e)
    }
}

/// Stream identity, written once in the file header.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamMeta {
    /// The stream's label (the fleet spec's label).
    pub label: String,
    /// The machine seed that produced the stream.
    pub seed: u64,
    /// Configured sampling period, nanoseconds.
    pub period_ns: u64,
    /// Events programmed on the programmable counters, `pmc[i]` order.
    pub events: Vec<HwEvent>,
}

impl StreamMeta {
    /// Encodes the full file header (magic + meta + CRC).
    pub fn encode_header(&self) -> Vec<u8> {
        let mut meta = Vec::new();
        let label = self.label.as_bytes();
        let label_len = label.len().min(u16::MAX as usize);
        meta.extend_from_slice(&(label_len as u16).to_le_bytes());
        meta.extend_from_slice(&label[..label_len]);
        meta.extend_from_slice(&self.seed.to_le_bytes());
        meta.extend_from_slice(&self.period_ns.to_le_bytes());
        meta.push(self.events.len().min(NUM_PROGRAMMABLE) as u8);
        for &e in self.events.iter().take(NUM_PROGRAMMABLE) {
            meta.push(e as u8);
        }
        let mut out = Vec::with_capacity(12 + meta.len() + 4);
        out.extend_from_slice(&FILE_MAGIC);
        out.extend_from_slice(&1u16.to_le_bytes()); // version
        out.extend_from_slice(&(meta.len() as u16).to_le_bytes());
        out.extend_from_slice(&meta);
        let crc = crc32(&out);
        out.extend_from_slice(&crc.to_le_bytes());
        out
    }

    /// Decodes a file header. Returns the meta and the offset of the
    /// first block.
    ///
    /// # Errors
    ///
    /// [`TraceError::BadHeader`] on a short, foreign, or CRC-bad header.
    pub fn decode_header(bytes: &[u8]) -> Result<(StreamMeta, usize), TraceError> {
        let bad = |msg: &str| TraceError::BadHeader(msg.to_string());
        if bytes.len() < 16 {
            return Err(bad("file shorter than the fixed header"));
        }
        if bytes[..8] != FILE_MAGIC {
            return Err(bad("not a ktrace file (magic mismatch)"));
        }
        let version = u16::from_le_bytes([bytes[8], bytes[9]]);
        if version != 1 {
            return Err(TraceError::BadHeader(format!(
                "unsupported version {version}"
            )));
        }
        let meta_len = u16::from_le_bytes([bytes[10], bytes[11]]) as usize;
        let end = 12 + meta_len;
        let Some(covered) = bytes.get(..end) else {
            return Err(bad("header truncated"));
        };
        let Some(crc_bytes) = bytes.get(end..end + 4) else {
            return Err(bad("header CRC truncated"));
        };
        let stored = u32::from_le_bytes([crc_bytes[0], crc_bytes[1], crc_bytes[2], crc_bytes[3]]);
        if crc32(covered) != stored {
            return Err(bad("header CRC mismatch"));
        }
        let meta = &bytes[12..end];
        let mut pos = 0usize;
        let take = |pos: &mut usize, n: usize| -> Result<&[u8], TraceError> {
            let s = meta
                .get(*pos..*pos + n)
                .ok_or_else(|| bad("meta truncated"))?;
            *pos += n;
            Ok(s)
        };
        let label_len = {
            let b = take(&mut pos, 2)?;
            u16::from_le_bytes([b[0], b[1]]) as usize
        };
        let label = String::from_utf8_lossy(take(&mut pos, label_len)?).into_owned();
        let u64_field = |pos: &mut usize| -> Result<u64, TraceError> {
            let b = take(pos, 8)?;
            let mut a = [0u8; 8];
            a.copy_from_slice(b);
            Ok(u64::from_le_bytes(a))
        };
        let seed = u64_field(&mut pos)?;
        let period_ns = u64_field(&mut pos)?;
        let n_events = *take(&mut pos, 1)?
            .first()
            .ok_or_else(|| bad("meta truncated"))? as usize;
        let mut events = Vec::with_capacity(n_events);
        for _ in 0..n_events {
            let code = *take(&mut pos, 1)?
                .first()
                .ok_or_else(|| bad("meta truncated"))? as usize;
            let event = *ALL_EVENTS
                .get(code)
                .ok_or_else(|| bad("unknown event code in meta"))?;
            events.push(event);
        }
        Ok((
            StreamMeta {
                label,
                seed,
                period_ns,
                events,
            },
            end + 4,
        ))
    }
}

/// One block's header, the unit of integrity and indexing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockHeader {
    /// [`KIND_SAMPLES`] or [`KIND_LEDGER`].
    pub kind: u8,
    /// Bit `i` set ⇔ lane `i` (0‥2 fixed, 3‥6 pmc) has a nonzero value
    /// somewhere in this block — the event index range queries skip on.
    pub lane_mask: u16,
    /// Samples encoded in the payload (0 for ledger blocks).
    pub count: u32,
    /// Payload length in bytes.
    pub payload_len: u32,
    /// Samples written to the stream before this block — the loss
    /// accountant: a gap between consecutive readable blocks is exactly
    /// the samples destroyed between them.
    pub first_index: u64,
    /// Smallest sample timestamp in the block (0 for ledger blocks).
    pub min_ts: u64,
    /// Largest sample timestamp in the block (0 for ledger blocks).
    pub max_ts: u64,
    /// CRC-32 of the payload.
    pub payload_crc: u32,
}

impl BlockHeader {
    /// Encodes the 48-byte header (trailing header CRC included).
    pub fn encode(&self) -> [u8; BLOCK_HEADER_LEN] {
        let mut out = [0u8; BLOCK_HEADER_LEN];
        out[0..4].copy_from_slice(&BLOCK_MAGIC.to_le_bytes());
        out[4] = self.kind;
        out[5] = 0;
        out[6..8].copy_from_slice(&self.lane_mask.to_le_bytes());
        out[8..12].copy_from_slice(&self.count.to_le_bytes());
        out[12..16].copy_from_slice(&self.payload_len.to_le_bytes());
        out[16..24].copy_from_slice(&self.first_index.to_le_bytes());
        out[24..32].copy_from_slice(&self.min_ts.to_le_bytes());
        out[32..40].copy_from_slice(&self.max_ts.to_le_bytes());
        out[40..44].copy_from_slice(&self.payload_crc.to_le_bytes());
        let crc = crc32(&out[..44]);
        out[44..48].copy_from_slice(&crc.to_le_bytes());
        out
    }

    /// Decodes and verifies a header at the start of `bytes`.
    ///
    /// `None` when `bytes` is too short, the magic is wrong, the kind is
    /// unknown, or the header CRC does not match — callers treat all four
    /// as "no block here" and resynchronise.
    pub fn decode(bytes: &[u8]) -> Option<BlockHeader> {
        let b = bytes.get(..BLOCK_HEADER_LEN)?;
        let u32_at = |o: usize| u32::from_le_bytes([b[o], b[o + 1], b[o + 2], b[o + 3]]);
        let u64_at = |o: usize| {
            let mut a = [0u8; 8];
            a.copy_from_slice(&b[o..o + 8]);
            u64::from_le_bytes(a)
        };
        if u32_at(0) != BLOCK_MAGIC {
            return None;
        }
        if crc32(&b[..44]) != u32_at(44) {
            return None;
        }
        let kind = b[4];
        if kind != KIND_SAMPLES && kind != KIND_LEDGER {
            return None;
        }
        Some(BlockHeader {
            kind,
            lane_mask: u16::from_le_bytes([b[6], b[7]]),
            count: u32_at(8),
            payload_len: u32_at(12),
            first_index: u64_at(16),
            min_ts: u64_at(24),
            max_ts: u64_at(32),
            payload_crc: u32_at(40),
        })
    }
}

/// Supervision outcome of the stream's producer, carried in the ledger so
/// a replayed run reconstructs per-machine health bit-for-bit. Lives in
/// bytes the version-1 layout reserved (byte 11 and the final u64), so an
/// all-default health encodes exactly as the pre-supervision format did —
/// old traces decode as healthy, new healthy traces are byte-identical to
/// old ones.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StreamHealth {
    /// Times the supervisor restarted the producer after a contained
    /// crash.
    pub restarts: u32,
    /// Failed attempts (panics + terminal errors) booked against the
    /// stream. Failure *messages* are not recorded — only the count is
    /// part of the determinism contract.
    pub failures: u16,
    /// Times the stream's circuit breaker tripped open.
    pub breaker_trips: u8,
    /// Final circuit-breaker state: 0 closed, 1 open, 2 half-open
    /// (matches `fleet`'s `BreakerState` discriminants).
    pub breaker_state: u8,
    /// True if the stream's producer failed permanently: the trace holds
    /// whatever was forwarded before the restart budget ran out.
    pub failed: bool,
}

/// End-of-stream accounting, written as the final block by
/// [`crate::TraceWriter::finish`]. Carries the module's drop ledger and
/// the controller's recovery stats into the format, so a replayed run can
/// reproduce the live run's accounting bit-for-bit.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StreamLedger {
    /// Samples the writer appended to this trace (its own ground truth;
    /// also the stream total corruption accounting closes against).
    pub samples_written: u64,
    /// The module's final status (taken/dropped/pauses/period).
    pub status: ModuleStatus,
    /// The controller's fault-recovery counters.
    pub recovery: RecoveryStats,
    /// The supervisor's verdict on the producer (all-default when the
    /// stream ran unsupervised or cleanly).
    pub health: StreamHealth,
    /// The rate governor's retune accounting (all-default when the stream
    /// ran ungoverned or the governor never acted).
    pub governor: GovernorStats,
}

impl StreamLedger {
    /// Encoded payload length of the base layout, bytes. Ledgers with
    /// governor activity append [`Self::GOVERNOR_LEN`] more.
    const ENCODED_LEN: usize = 96;
    /// Length of the optional trailing governor section, bytes.
    const GOVERNOR_LEN: usize = 32;

    /// Encodes the fixed-layout ledger payload.
    ///
    /// The governor section is strictly additive: it is appended only
    /// when the governor acted, so ungoverned (and calm governed) streams
    /// encode exactly as the pre-governor format did — old traces decode
    /// unchanged and zero-pressure governed traces stay byte-identical to
    /// ungoverned ones.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(Self::ENCODED_LEN + Self::GOVERNOR_LEN);
        out.extend_from_slice(&self.samples_written.to_le_bytes());
        out.push(self.status.target_alive as u8);
        out.push(self.status.paused as u8);
        out.push(self.recovery.degraded as u8);
        out.push(self.health.failed as u8);
        out.extend_from_slice(&self.recovery.period_doublings.to_le_bytes());
        let health_word = u64::from(self.health.restarts)
            | u64::from(self.health.failures) << 32
            | u64::from(self.health.breaker_trips) << 48
            | u64::from(self.health.breaker_state) << 56;
        for v in [
            self.status.buffered,
            self.status.samples_taken,
            self.status.samples_dropped,
            self.status.pauses,
            self.status.period_ns,
            self.recovery.drain_retries,
            self.recovery.drains_abandoned,
            self.recovery.kicks,
            self.recovery.kicks_honoured,
            health_word,
        ] {
            out.extend_from_slice(&v.to_le_bytes());
        }
        if !self.governor.is_idle() {
            let counts = u64::from(self.governor.retunes) | u64::from(self.governor.acked) << 32;
            let shape =
                u64::from(self.governor.clamps) | u64::from(self.governor.oscillations) << 32;
            for v in [
                counts,
                shape,
                self.governor.last_period_ns,
                self.governor.max_period_ns,
            ] {
                out.extend_from_slice(&v.to_le_bytes());
            }
        }
        out
    }

    /// Decodes a ledger payload; `None` unless it is exactly
    /// [`Self::ENCODED_LEN`] bytes (no governor section) or
    /// [`Self::ENCODED_LEN`]` + `[`Self::GOVERNOR_LEN`] bytes.
    pub fn decode(bytes: &[u8]) -> Option<StreamLedger> {
        if bytes.len() != Self::ENCODED_LEN && bytes.len() != Self::ENCODED_LEN + Self::GOVERNOR_LEN
        {
            return None;
        }
        let u64_at = |o: usize| {
            let mut a = [0u8; 8];
            a.copy_from_slice(&bytes[o..o + 8]);
            u64::from_le_bytes(a)
        };
        Some(StreamLedger {
            samples_written: u64_at(0),
            status: ModuleStatus {
                target_alive: bytes[8] != 0,
                paused: bytes[9] != 0,
                buffered: u64_at(16),
                samples_taken: u64_at(24),
                samples_dropped: u64_at(32),
                pauses: u64_at(40),
                period_ns: u64_at(48),
            },
            recovery: RecoveryStats {
                degraded: bytes[10] != 0,
                period_doublings: u32::from_le_bytes([bytes[12], bytes[13], bytes[14], bytes[15]]),
                drain_retries: u64_at(56),
                drains_abandoned: u64_at(64),
                kicks: u64_at(72),
                kicks_honoured: u64_at(80),
            },
            health: {
                let word = u64_at(88);
                StreamHealth {
                    restarts: word as u32,
                    failures: (word >> 32) as u16,
                    breaker_trips: (word >> 48) as u8,
                    breaker_state: (word >> 56) as u8,
                    failed: bytes[11] != 0,
                }
            },
            governor: if bytes.len() == Self::ENCODED_LEN + Self::GOVERNOR_LEN {
                let counts = u64_at(96);
                let shape = u64_at(104);
                GovernorStats {
                    retunes: counts as u32,
                    acked: (counts >> 32) as u32,
                    clamps: shape as u32,
                    oscillations: (shape >> 32) as u32,
                    last_period_ns: u64_at(112),
                    max_period_ns: u64_at(120),
                }
            } else {
                GovernorStats::default()
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta() -> StreamMeta {
        StreamMeta {
            label: "m0".to_string(),
            seed: 42,
            period_ns: 100_000,
            events: vec![HwEvent::LlcReference, HwEvent::LlcMiss],
        }
    }

    #[test]
    fn file_header_round_trip() {
        let bytes = meta().encode_header();
        let (decoded, offset) = StreamMeta::decode_header(&bytes).unwrap();
        assert_eq!(decoded, meta());
        assert_eq!(offset, bytes.len());
    }

    #[test]
    fn header_corruption_is_detected() {
        let mut bytes = meta().encode_header();
        bytes[9] ^= 0x40;
        assert!(matches!(
            StreamMeta::decode_header(&bytes),
            Err(TraceError::BadHeader(_))
        ));
        assert!(StreamMeta::decode_header(&bytes[..7]).is_err());
        assert!(StreamMeta::decode_header(b"NOTRACE!........").is_err());
    }

    #[test]
    fn block_header_round_trip_and_crc() {
        let h = BlockHeader {
            kind: KIND_SAMPLES,
            lane_mask: 0b101_0011,
            count: 257,
            payload_len: 4096,
            first_index: 1 << 33,
            min_ts: 100,
            max_ts: 9_999,
            payload_crc: 0xDEAD_BEEF,
        };
        let bytes = h.encode();
        assert_eq!(BlockHeader::decode(&bytes), Some(h));
        let mut bad = bytes;
        bad[17] ^= 0x01;
        assert_eq!(BlockHeader::decode(&bad), None, "header CRC catches flips");
        assert_eq!(BlockHeader::decode(&bytes[..20]), None, "short input");
    }

    #[test]
    fn ledger_round_trip() {
        let ledger = StreamLedger {
            samples_written: 12_345,
            status: ModuleStatus {
                target_alive: false,
                buffered: 0,
                samples_taken: 12_400,
                samples_dropped: 55,
                pauses: 2,
                paused: false,
                period_ns: 200_000,
            },
            recovery: RecoveryStats {
                drain_retries: 7,
                drains_abandoned: 1,
                kicks: 3,
                kicks_honoured: 2,
                period_doublings: 1,
                degraded: true,
            },
            health: StreamHealth {
                restarts: 2,
                failures: 3,
                breaker_trips: 1,
                breaker_state: 1,
                failed: true,
            },
            governor: GovernorStats::default(),
        };
        let bytes = ledger.encode();
        assert_eq!(bytes.len(), StreamLedger::ENCODED_LEN);
        assert_eq!(StreamLedger::decode(&bytes), Some(ledger));
        assert_eq!(StreamLedger::decode(&bytes[..50]), None);
    }

    #[test]
    fn governed_ledger_round_trips_through_the_extended_layout() {
        let ledger = StreamLedger {
            samples_written: 100,
            governor: GovernorStats {
                retunes: 5,
                acked: 5,
                clamps: 2,
                oscillations: 1,
                last_period_ns: 200_000,
                max_period_ns: 800_000,
            },
            ..Default::default()
        };
        let bytes = ledger.encode();
        assert_eq!(
            bytes.len(),
            StreamLedger::ENCODED_LEN + StreamLedger::GOVERNOR_LEN
        );
        assert_eq!(StreamLedger::decode(&bytes), Some(ledger));
        // Truncating the governor section off leaves a valid v1 ledger
        // with idle governor stats — the additive-extension contract.
        let truncated = StreamLedger::decode(&bytes[..StreamLedger::ENCODED_LEN]).unwrap();
        assert!(truncated.governor.is_idle());
        assert_eq!(truncated.samples_written, 100);
    }

    #[test]
    fn idle_governor_preserves_the_v1_ledger_bytes() {
        let plain = StreamLedger {
            samples_written: 9,
            ..Default::default()
        };
        assert_eq!(plain.encode().len(), StreamLedger::ENCODED_LEN);
    }

    #[test]
    fn default_health_preserves_the_v1_ledger_bytes() {
        // The health fields live in formerly reserved bytes: a healthy
        // stream must encode exactly as the pre-supervision format did,
        // so old readers and recorded-digest baselines are undisturbed.
        let ledger = StreamLedger {
            samples_written: 9,
            ..Default::default()
        };
        let bytes = ledger.encode();
        assert_eq!(bytes[11], 0, "reserved byte stays zero when healthy");
        assert_eq!(&bytes[88..96], &[0u8; 8], "reserved word stays zero");
        let decoded = StreamLedger::decode(&bytes).unwrap();
        assert_eq!(decoded.health, StreamHealth::default());
    }
}
