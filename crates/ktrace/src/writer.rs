//! Bounded-memory streaming trace writer.
//!
//! [`TraceWriter`] buffers appended samples in one in-progress block and
//! flushes it to the underlying sink whenever a drain-batch boundary
//! finds the block at or past its target size — so a block always holds
//! whole batches (replay fidelity) and resident memory is bounded by
//! `block_target + largest batch`, never by trace length. [`finish`]
//! seals the stream with the [`StreamLedger`] block; [`seal_durable`]
//! also `fsync`s the segment and commits its manifest, so everything
//! appended before it survives a crash after it.
//!
//! [`finish`]: TraceWriter::finish
//! [`seal_durable`]: TraceWriter::seal_durable

use std::io::Write;

use crate::codec::encode_block_into;
use crate::crc::crc32;
use crate::format::{BlockHeader, StreamLedger, StreamMeta, TraceError, KIND_LEDGER, KIND_SAMPLES};
use kleb::Sample;

/// Default block flush threshold, samples.
const DEFAULT_BLOCK_TARGET: usize = 512;

/// Streaming columnar writer over any [`Write`] sink.
#[derive(Debug)]
pub struct TraceWriter<W: Write> {
    sink: W,
    block_target: usize,
    pending: Vec<Sample>,
    pending_batches: Vec<u64>,
    /// Encode scratch, reused across flushes: after the first block the
    /// steady-state flush path allocates nothing.
    payload: Vec<u8>,
    samples_written: u64,
    blocks_written: u64,
    finished: bool,
    /// Backing file path when created via [`TraceWriter::create`]; lets
    /// [`TraceWriter::seal_durable`] place the sidecar manifest.
    path: Option<std::path::PathBuf>,
}

impl<W: Write> TraceWriter<W> {
    /// Starts a trace on `sink`, writing the file header for `meta`.
    ///
    /// # Errors
    ///
    /// [`TraceError::Io`] if the header write fails.
    pub fn new(mut sink: W, meta: &StreamMeta) -> Result<Self, TraceError> {
        sink.write_all(&meta.encode_header())?;
        Ok(Self {
            sink,
            block_target: DEFAULT_BLOCK_TARGET,
            pending: Vec::new(),
            pending_batches: Vec::new(),
            payload: Vec::new(),
            samples_written: 0,
            blocks_written: 0,
            finished: false,
            path: None,
        })
    }

    /// Overrides the block flush threshold (samples; min 1).
    pub fn block_target(mut self, samples: usize) -> Self {
        self.block_target = samples.max(1);
        self
    }

    /// Samples appended so far (flushed or pending).
    pub(crate) fn samples_written(&self) -> u64 {
        self.samples_written
    }

    /// Appends one drain batch. Empty batches are ignored (the module
    /// never surfaces them). Flushes the in-progress block if the batch
    /// pushed it to the target size.
    ///
    /// # Errors
    ///
    /// [`TraceError::Io`] if a flush fails, [`TraceError::Finished`]
    /// after [`TraceWriter::finish`].
    pub fn append_batch(&mut self, samples: &[Sample]) -> Result<(), TraceError> {
        if self.finished {
            return Err(TraceError::Finished);
        }
        if samples.is_empty() {
            return Ok(());
        }
        self.pending.extend_from_slice(samples);
        self.pending_batches.push(samples.len() as u64);
        self.samples_written += samples.len() as u64;
        if self.pending.len() >= self.block_target {
            self.flush_block()?;
        }
        Ok(())
    }

    fn flush_block(&mut self) -> Result<(), TraceError> {
        if self.pending.is_empty() {
            return Ok(());
        }
        let first_index = self.samples_written - self.pending.len() as u64;
        let summary = encode_block_into(&self.pending, &self.pending_batches, &mut self.payload);
        let header = BlockHeader {
            kind: KIND_SAMPLES,
            lane_mask: summary.lane_mask,
            count: self.pending.len() as u32,
            payload_len: self.payload.len() as u32,
            first_index,
            min_ts: summary.min_ts,
            max_ts: summary.max_ts,
            payload_crc: crc32(&self.payload),
        };
        self.sink.write_all(&header.encode())?;
        self.sink.write_all(&self.payload)?;
        self.blocks_written += 1;
        self.pending.clear();
        self.pending_batches.clear();
        Ok(())
    }

    /// Seals the stream: flushes pending samples, writes the ledger
    /// block (with `samples_written` filled in from the writer's own
    /// count) and flushes the sink. Further appends fail.
    ///
    /// # Errors
    ///
    /// [`TraceError::Io`] on a failed write, [`TraceError::Finished`] if
    /// already finished.
    pub fn finish(&mut self, ledger: &StreamLedger) -> Result<(), TraceError> {
        if self.finished {
            return Err(TraceError::Finished);
        }
        self.flush_block()?;
        let sealed = StreamLedger {
            samples_written: self.samples_written,
            ..*ledger
        };
        let payload = sealed.encode();
        let header = BlockHeader {
            kind: KIND_LEDGER,
            lane_mask: 0,
            count: 0,
            payload_len: payload.len() as u32,
            first_index: self.samples_written,
            min_ts: 0,
            max_ts: 0,
            payload_crc: crc32(&payload),
        };
        self.sink.write_all(&header.encode())?;
        self.sink.write_all(&payload)?;
        self.sink.flush()?;
        self.blocks_written += 1;
        self.finished = true;
        Ok(())
    }

    /// Consumes the writer, returning the sink (unflushed pending
    /// samples are dropped — call [`TraceWriter::finish`] first).
    pub fn into_inner(self) -> W {
        self.sink
    }
}

impl TraceWriter<std::fs::File> {
    /// Creates (truncating) a trace file at `path`.
    ///
    /// # Errors
    ///
    /// [`TraceError::Io`] if the file cannot be created or the header
    /// write fails.
    pub fn create(path: &std::path::Path, meta: &StreamMeta) -> Result<Self, TraceError> {
        let file = std::fs::File::create(path)?;
        let mut writer = Self::new(file, meta)?;
        writer.path = Some(path.to_path_buf());
        Ok(writer)
    }

    /// Crash-consistent seal: [`TraceWriter::finish`] + `fsync`, then
    /// the sidecar [`Manifest`](crate::Manifest) written via temp file +
    /// atomic rename. After this returns, a reader either sees the
    /// manifest governing the exact sealed byte length (and ignores any
    /// post-seal garbage) or — if the process died before the rename —
    /// no manifest at all and falls back to scan recovery. Requires the
    /// writer to have been made with [`TraceWriter::create`]; otherwise
    /// behaves like plain `finish` + `fsync`.
    ///
    /// # Errors
    ///
    /// [`TraceError::Io`] on a failed write, sync or manifest rename;
    /// [`TraceError::Finished`] if already finished.
    pub(crate) fn seal_durable(&mut self, ledger: &StreamLedger) -> Result<(), TraceError> {
        self.finish(ledger)?;
        self.sink.sync_data()?;
        if let Some(path) = self.path.clone() {
            let manifest = crate::manifest::Manifest {
                file_len: self.sink.metadata()?.len(),
                blocks_written: self.blocks_written,
                samples_written: self.samples_written,
            };
            manifest.write_atomic(&path)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta() -> StreamMeta {
        StreamMeta {
            label: "w".into(),
            seed: 1,
            period_ns: 100_000,
            events: vec![],
        }
    }

    fn sample(i: u64) -> Sample {
        Sample {
            timestamp_ns: (i + 1) * 100_000,
            seq: i,
            pid: 9,
            fixed: [1_000, 2_670, 2_000],
            ..Sample::default()
        }
    }

    #[test]
    fn blocks_flush_at_batch_boundaries_past_target() {
        let mut w = TraceWriter::new(Vec::new(), &meta())
            .unwrap()
            .block_target(10);
        for chunk in 0..5 {
            let batch: Vec<Sample> = (chunk * 6..chunk * 6 + 6).map(sample).collect();
            w.append_batch(&batch).unwrap();
        }
        // 6 < 10 pending after batches 1, 3, 5; 12 ≥ 10 flushes after 2 and 4.
        assert_eq!(w.blocks_written, 2);
        assert_eq!(w.samples_written(), 30);
        w.finish(&StreamLedger::default()).unwrap();
        assert_eq!(w.blocks_written, 4, "tail block + ledger");
    }

    #[test]
    fn finish_is_terminal() {
        let mut w = TraceWriter::new(Vec::new(), &meta()).unwrap();
        w.append_batch(&[sample(0)]).unwrap();
        w.finish(&StreamLedger::default()).unwrap();
        assert!(matches!(
            w.append_batch(&[sample(1)]),
            Err(TraceError::Finished)
        ));
        assert!(matches!(
            w.finish(&StreamLedger::default()),
            Err(TraceError::Finished)
        ));
    }

    #[test]
    fn seal_durable_manifest_governs_the_tail() {
        use crate::manifest::Manifest;
        use crate::reader::TraceReader;

        let dir = std::env::temp_dir().join(format!("ktrace-seal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("s.ktrace");
        let mut w = TraceWriter::create(&path, &meta()).unwrap();
        let batch: Vec<Sample> = (0..12).map(sample).collect();
        w.append_batch(&batch).unwrap();
        w.seal_durable(&StreamLedger::default()).unwrap();
        let sealed_len = std::fs::metadata(&path).unwrap().len();
        let manifest = Manifest::load(&path).expect("manifest committed");
        assert_eq!(manifest.file_len, sealed_len);
        assert_eq!(manifest.samples_written, 12);

        // Post-seal garbage — a torn page from a dying process — must
        // not reach the scanner when the manifest governs the tail.
        use std::io::Write as _;
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap();
        f.write_all(&[0xAB; 97]).unwrap();
        drop(f);
        let rec = TraceReader::open(&path).unwrap().read_all();
        assert!(rec.report.is_clean(), "{:?}", rec.report);
        assert_eq!(rec.samples.len(), 12);

        // Without the manifest the same bytes hit scan recovery, which
        // counts the garbage tail instead of silently accepting it.
        std::fs::remove_file(Manifest::path_for(&path)).unwrap();
        let rec = TraceReader::open(&path).unwrap().read_all();
        assert!(!rec.report.is_clean(), "garbage tail must be flagged");
        assert_eq!(rec.samples.len(), 12, "real samples still recovered");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_batches_leave_no_trace() {
        let mut w = TraceWriter::new(Vec::new(), &meta()).unwrap();
        w.append_batch(&[]).unwrap();
        assert_eq!(w.samples_written(), 0);
        w.finish(&StreamLedger::default()).unwrap();
        assert_eq!(w.blocks_written, 1, "just the ledger");
    }
}
