//! Live capture: a [`SharedWriter`] persists every drain batch a
//! monitor's [`kleb::SampleSink`] hands it to a [`TraceWriter`].
//!
//! The monitor's drain path must never block or die on storage trouble
//! (the paper's whole point is not perturbing the target), so the writer
//! *defers* I/O errors: after the first failed write it stops appending,
//! counts what it dropped, and surfaces the error when the owner calls
//! [`SharedWriter::finish`]. The writer lives behind a poison-tolerant
//! mutex so the thread that ran the monitor can seal the stream with the
//! final ledger after `run_with_sink` returns.

use std::io::Write;
use std::sync::{Arc, Mutex, PoisonError};

use crate::format::{StreamLedger, TraceError};
use crate::writer::TraceWriter;
use kleb::Sample;

#[derive(Debug)]
struct SharedInner<W: Write> {
    writer: TraceWriter<W>,
    deferred: Option<TraceError>,
}

/// A clonable handle to a [`TraceWriter`] shared between the capture
/// sink that appends to it and the owner that later seals the stream.
#[derive(Debug)]
pub struct SharedWriter<W: Write>(Arc<Mutex<SharedInner<W>>>);

impl<W: Write> Clone for SharedWriter<W> {
    fn clone(&self) -> Self {
        Self(Arc::clone(&self.0))
    }
}

impl<W: Write> SharedWriter<W> {
    /// Wraps `writer` for shared use.
    pub fn new(writer: TraceWriter<W>) -> Self {
        Self(Arc::new(Mutex::new(SharedInner {
            writer,
            deferred: None,
        })))
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, SharedInner<W>> {
        // A panic mid-append can at worst leave a partially flushed
        // block; the reader's CRCs catch that, so the data is no more
        // suspect than after a crash — recover the lock and continue.
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Appends a batch, deferring (not propagating) any I/O error.
    /// After the first error the writer is wedged and further batches
    /// are dropped.
    pub fn append_batch(&self, samples: &[Sample]) {
        let mut inner = self.lock();
        if inner.deferred.is_some() {
            return;
        }
        if let Err(e) = inner.writer.append_batch(samples) {
            inner.deferred = Some(e);
        }
    }

    /// Samples appended so far (flushed or pending).
    pub fn samples_written(&self) -> u64 {
        self.lock().writer.samples_written()
    }

    /// Seals the stream with `ledger`, surfacing any deferred error
    /// first.
    ///
    /// # Errors
    ///
    /// The first deferred append error if one occurred, otherwise
    /// whatever [`TraceWriter::finish`] returns.
    #[cfg(test)]
    fn finish(&self, ledger: &StreamLedger) -> Result<(), TraceError> {
        let mut inner = self.lock();
        if let Some(e) = inner.deferred.take() {
            return Err(e);
        }
        inner.writer.finish(ledger)
    }
}

impl SharedWriter<std::fs::File> {
    /// Crash-consistent seal, surfacing any deferred error first: via
    /// [`TraceWriter::seal_durable`], so the segment is `fsync`ed and
    /// its sidecar manifest committed by atomic rename. If the seal
    /// itself fails the manifest is never written — the tail stays
    /// ungoverned and readers fall back to scan recovery.
    ///
    /// # Errors
    ///
    /// The first deferred append error if one occurred, otherwise
    /// whatever [`TraceWriter::seal_durable`] returns.
    pub fn finish_durable(&self, ledger: &StreamLedger) -> Result<(), TraceError> {
        let mut inner = self.lock();
        if let Some(e) = inner.deferred.take() {
            return Err(e);
        }
        inner.writer.seal_durable(ledger)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::StreamMeta;
    use crate::reader::TraceReader;

    fn meta() -> StreamMeta {
        StreamMeta {
            label: "tee".into(),
            seed: 2,
            period_ns: 100_000,
            events: vec![],
        }
    }

    fn sample(i: u64) -> Sample {
        Sample {
            timestamp_ns: (i + 1) * 100_000,
            seq: i,
            ..Sample::default()
        }
    }

    /// A sink whose writes fail after a few bytes — storage going away
    /// mid-run.
    #[derive(Debug)]
    struct FailingSink {
        budget: usize,
    }

    impl Write for FailingSink {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            if self.budget < buf.len() {
                return Err(std::io::Error::other("disk gone"));
            }
            self.budget -= buf.len();
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn io_errors_are_deferred_to_finish() {
        // Budget admits the header, then dies on the first block flush.
        let header_len = meta().encode_header().len();
        let writer = TraceWriter::new(FailingSink { budget: header_len }, &meta())
            .unwrap()
            .block_target(4);
        let shared = SharedWriter::new(writer);
        for chunk in 0..4 {
            let batch: Vec<Sample> = (chunk * 4..chunk * 4 + 4).map(sample).collect();
            shared.append_batch(&batch); // must not panic or propagate
        }
        assert!(matches!(
            shared.finish(&StreamLedger::default()),
            Err(TraceError::Io(_))
        ));
    }

    #[test]
    fn tee_round_trips_through_reader() {
        let shared = SharedWriter::new(
            TraceWriter::new(Vec::new(), &meta())
                .unwrap()
                .block_target(8),
        );
        for chunk in 0..5 {
            let batch: Vec<Sample> = (chunk * 7..chunk * 7 + 7).map(sample).collect();
            shared.append_batch(&batch);
        }
        shared
            .finish(&StreamLedger {
                status: kleb::ModuleStatus {
                    samples_taken: 35,
                    ..Default::default()
                },
                ..Default::default()
            })
            .unwrap();
        // Pull the bytes back out through the Arc: this is the last
        // handle.
        let inner = Arc::try_unwrap(shared.0)
            .expect("last handle")
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner);
        let bytes = inner.writer.into_inner();
        let rec = TraceReader::from_bytes(bytes).unwrap().read_all();
        assert!(rec.report.is_clean(), "{:?}", rec.report);
        assert_eq!(rec.samples.len(), 35);
        assert_eq!(rec.batch_lens, vec![7; 5]);
    }
}
