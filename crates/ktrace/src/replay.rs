//! Loading a recorded fleet run back off disk for replay.
//!
//! A fleet recording is a directory of per-stream segment files named by
//! [`stream_file_name`] — the numeric prefix makes lexical order equal
//! stream order, so the replayer reassembles the fleet exactly as it was
//! configured. Damaged files degrade per-stream (each carries its own
//! [`RecoveryReport`]); only a missing directory or an unreadable file
//! header is fatal.
//!
//! [`RecoveryReport`]: crate::reader::RecoveryReport

use std::path::{Path, PathBuf};

use crate::format::TraceError;
use crate::reader::{RecoveredStream, TraceReader};

/// Extension carried by trace segment files.
const TRACE_EXT: &str = "ktrace";

/// Canonical file name for stream `index` labelled `label` — the writer
/// (fleet persistence) and the replayer agree through this.
pub fn stream_file_name(index: usize, label: &str) -> String {
    let safe: String = label
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect();
    format!("stream{index:03}-{safe}.{TRACE_EXT}")
}

/// A recorded fleet run loaded back into memory, stream order restored.
#[derive(Debug, Clone)]
pub struct TraceReplayer {
    /// One recovered stream per trace file, in stream order.
    pub streams: Vec<RecoveredStream>,
}

impl TraceReplayer {
    /// Loads every `.ktrace` file under `dir`, lexically ordered (which
    /// is stream order for [`stream_file_name`] names).
    ///
    /// # Errors
    ///
    /// [`TraceError::Io`] if the directory cannot be read,
    /// [`TraceError::BadHeader`] if a segment's file header is damaged
    /// beyond identification.
    pub fn load_dir(dir: &Path) -> Result<Self, TraceError> {
        let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)?
            .collect::<Result<Vec<_>, _>>()?
            .into_iter()
            .map(|e| e.path())
            .filter(|p| p.extension().and_then(|e| e.to_str()) == Some(TRACE_EXT))
            .collect();
        paths.sort();
        let mut streams = Vec::with_capacity(paths.len());
        for path in &paths {
            streams.push(TraceReader::open(path)?.read_all());
        }
        Ok(Self { streams })
    }

    /// Total samples recovered across all streams.
    pub fn total_samples(&self) -> u64 {
        self.streams.iter().map(|s| s.samples.len() as u64).sum()
    }

    /// True when every stream recovered without damage of any kind.
    pub fn all_clean(&self) -> bool {
        self.streams.iter().all(|s| s.report.is_clean())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn file_names_sort_in_stream_order_and_sanitize() {
        assert_eq!(stream_file_name(0, "m-a"), "stream000-m-a.ktrace");
        assert_eq!(
            stream_file_name(12, "núcleo 3"),
            "stream012-n_cleo_3.ktrace"
        );
        let names: Vec<String> = (0..20).map(|i| stream_file_name(i, "x")).collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted);
    }

    #[test]
    fn missing_dir_is_io_error() {
        let err = TraceReplayer::load_dir(Path::new("/nonexistent/ktrace-test-dir"));
        assert!(matches!(err, Err(TraceError::Io(_))));
    }
}
