//! `ktrace` — columnar trace storage and deterministic replay for
//! K-LEB sample streams.
//!
//! High-frequency monitoring (100 µs periods, one 80-byte record each)
//! produces streams that are expensive to keep raw and painful to debug
//! when a run misbehaves. This crate gives the stack a durable,
//! compact, *recoverable* on-disk form and a way to feed a recorded run
//! back through the fleet pipeline bit-for-bit:
//!
//! - [`format`] — the append-only segment format: a CRC-protected file
//!   header, then blocks of `BlockHeader(48 B) · payload`, each part
//!   independently checksummed, sealed by a [`StreamLedger`] carrying
//!   the module's drop ledger and recovery stats.
//! - [`codec`] — the columnar payload encoding: delta-of-delta
//!   timestamps, zigzag-varint counter deltas, constant-column
//!   collapsing, sparse flag lists. Against the 80-byte wire record,
//!   the payload of the synthetic streams in the codec test
//!   `dense_stream_beats_ten_bytes_per_sample` stays under its bar of
//!   10 bytes/sample (7.2 to 8.0). Whole segments of a fleet recording,
//!   headers and ledger included and all five lanes varying, take more:
//!   11.87 bytes/sample on perfbench's `fleet_record_replay` at seed 42.
//! - [`writer`] / [`reader`] — bounded-memory streaming
//!   [`TraceWriter`]; [`TraceReader`] with full corruption recovery:
//!   CRC-bad blocks are skipped, smashed framing is resynchronised on
//!   block magic, truncated tails flagged — all losses *counted* in a
//!   [`RecoveryReport`], never guessed, never panicking.
//! - [`sink`] — [`SharedWriter`], a shared handle on a [`TraceWriter`]
//!   that a live [`kleb::SampleSink`] (the fleet supervisor's) appends
//!   drain batches to, deferring I/O errors so storage trouble never
//!   perturbs capture.
//! - [`replay`] — [`TraceReplayer`] loads a directory of per-stream
//!   segments back into memory in stream order; `fleet` drives them
//!   through the collector as a drop-in machine source.
//! - [`corrupt`] — a seeded, deterministic damage injector for
//!   recovery tests, in the `ksim::faults` mold.
//!
//! Determinism contract: recording preserves drain-batch boundaries in
//! the format, so a replayed run reconstructs the exact channel batch
//! sequence the live run produced — store contents, metrics and drop
//! accounting come out identical.

mod codec;
mod corrupt;
mod crc;
mod format;
mod manifest;
mod reader;
mod replay;
mod sink;
mod varint;
mod writer;

pub use codec::{decode_block, encode_block_into, BlockSummary};
pub use corrupt::{corrupt, CorruptionLog, CorruptionPlan};
pub use format::{StreamHealth, StreamLedger, StreamMeta, TraceError};
pub use reader::{RecoveredStream, RecoveryReport, TraceReader};
pub use replay::{stream_file_name, TraceReplayer};
pub use sink::SharedWriter;
pub use writer::TraceWriter;
