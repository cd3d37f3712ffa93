//! Crash-consistent segment finalization: the sidecar manifest.
//!
//! A sealed trace file ends with its ledger block, but a crash *between*
//! the seal's `fsync` and close can leave an ambiguous tail: the reader's
//! scan cannot distinguish "the writer died mid-block" from "the file
//! ends here by design", and garbage appended after the last durability
//! point (a torn page, a partial O_APPEND write from a dying process)
//! silently extends the scan region. The manifest removes the ambiguity:
//!
//! 1. The writer seals the trace (ledger block + `fsync`).
//! 2. It then writes a tiny CRC-protected sidecar — `<trace>.manifest` —
//!    via **temp file + atomic rename**, recording the exact sealed byte
//!    length, block count and sample count.
//!
//! The rename is the commit point. Afterwards, a reader that finds a
//! valid manifest knows the first `file_len` bytes are the complete,
//! sealed stream and ignores anything beyond them. A missing or invalid
//! manifest (crash before the rename, or a pre-manifest trace) means
//! nothing was promised: the reader falls back to the scan-and-recover
//! path exactly as before, counting losses in its [`RecoveryReport`].
//! Either way the tail is never ambiguous — it is governed by the
//! manifest or it is untrusted.
//!
//! [`RecoveryReport`]: crate::RecoveryReport

use std::path::{Path, PathBuf};

use crate::crc::crc32;
use crate::format::TraceError;

/// Manifest file magic (8 bytes; distinct from the trace's `KTRACE1\n`).
const MANIFEST_MAGIC: &[u8; 8] = b"KTRACEM1";

/// Extension appended to the trace path: `foo.ktrace` →
/// `foo.ktrace.manifest`.
const MANIFEST_EXT: &str = "manifest";

/// What a sealed segment promised: its exact durable geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Manifest {
    /// Sealed length of the trace file, bytes (header through ledger
    /// block inclusive). Bytes past this offset are post-seal garbage.
    pub file_len: u64,
    /// Blocks the writer flushed, ledger block included.
    pub blocks_written: u64,
    /// Samples the writer appended.
    pub samples_written: u64,
}

impl Manifest {
    /// Encoded size, bytes: magic(8) + 3×u64 + crc32(4).
    const ENCODED_LEN: usize = 36;

    /// Encodes the manifest with its trailing CRC.
    pub(crate) fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(Self::ENCODED_LEN);
        out.extend_from_slice(MANIFEST_MAGIC);
        out.extend_from_slice(&self.file_len.to_le_bytes());
        out.extend_from_slice(&self.blocks_written.to_le_bytes());
        out.extend_from_slice(&self.samples_written.to_le_bytes());
        let crc = crc32(&out);
        out.extend_from_slice(&crc.to_le_bytes());
        out
    }

    /// Decodes a manifest; `None` unless `bytes` is exactly a valid,
    /// CRC-clean encoding. Truncated, padded or corrupted sidecars are
    /// all rejected — an invalid manifest promises nothing.
    pub(crate) fn decode(bytes: &[u8]) -> Option<Manifest> {
        if bytes.len() != Self::ENCODED_LEN || &bytes[..8] != MANIFEST_MAGIC {
            return None;
        }
        let u64_at = |o: usize| {
            let mut a = [0u8; 8];
            a.copy_from_slice(&bytes[o..o + 8]);
            u64::from_le_bytes(a)
        };
        let stored_crc = u32::from_le_bytes([bytes[32], bytes[33], bytes[34], bytes[35]]);
        if crc32(&bytes[..32]) != stored_crc {
            return None;
        }
        Some(Manifest {
            file_len: u64_at(8),
            blocks_written: u64_at(16),
            samples_written: u64_at(24),
        })
    }

    /// The sidecar path for a trace file: the trace path with
    /// `.manifest` appended.
    pub(crate) fn path_for(trace: &Path) -> PathBuf {
        let mut os = trace.as_os_str().to_os_string();
        os.push(".");
        os.push(MANIFEST_EXT);
        PathBuf::from(os)
    }

    /// Writes the manifest for `trace` atomically: encode to
    /// `<manifest>.tmp`, `fsync`, then `rename` over the final name. A
    /// crash at any point leaves either no manifest (the tmp file is
    /// ignored by readers) or the complete old/new one — never a torn
    /// sidecar governing the trace.
    ///
    /// # Errors
    ///
    /// [`TraceError::Io`] if the write, sync or rename fails.
    pub(crate) fn write_atomic(&self, trace: &Path) -> Result<(), TraceError> {
        let final_path = Self::path_for(trace);
        let mut tmp_os = final_path.as_os_str().to_os_string();
        tmp_os.push(".tmp");
        let tmp_path = PathBuf::from(tmp_os);
        {
            use std::io::Write as _;
            let mut f = std::fs::File::create(&tmp_path)?;
            f.write_all(&self.encode())?;
            f.sync_all()?;
        }
        std::fs::rename(&tmp_path, &final_path)?;
        Ok(())
    }

    /// Loads the manifest governing `trace`, if a valid one exists.
    /// Absent, unreadable or corrupt sidecars all yield `None` — the
    /// caller falls back to scan recovery.
    pub(crate) fn load(trace: &Path) -> Option<Manifest> {
        let bytes = std::fs::read(Self::path_for(trace)).ok()?;
        Self::decode(&bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn manifest() -> Manifest {
        Manifest {
            file_len: 48_213,
            blocks_written: 17,
            samples_written: 4_096,
        }
    }

    #[test]
    fn round_trip() {
        let bytes = manifest().encode();
        assert_eq!(bytes.len(), Manifest::ENCODED_LEN);
        assert_eq!(Manifest::decode(&bytes), Some(manifest()));
    }

    #[test]
    fn truncate_at_every_byte_is_rejected() {
        // The crash-consistency claim hinges on a torn sidecar never
        // being trusted: every proper prefix (and every extension) must
        // decode to None, not to a plausible-but-wrong manifest.
        let bytes = manifest().encode();
        for len in 0..bytes.len() {
            assert_eq!(
                Manifest::decode(&bytes[..len]),
                None,
                "prefix of {len} bytes must not decode"
            );
        }
        let mut extended = bytes.clone();
        extended.push(0);
        assert_eq!(Manifest::decode(&extended), None, "padded sidecar");
    }

    #[test]
    fn every_single_byte_flip_is_rejected() {
        let bytes = manifest().encode();
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x5A;
            assert_eq!(Manifest::decode(&bad), None, "flip at byte {i}");
        }
    }

    #[test]
    fn path_for_appends_the_extension() {
        let p = Manifest::path_for(Path::new("/tmp/x/stream000-m0.ktrace"));
        assert_eq!(p, Path::new("/tmp/x/stream000-m0.ktrace.manifest"));
    }

    #[test]
    fn write_atomic_then_load() {
        let dir = std::env::temp_dir().join(format!("ktrace-manifest-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let trace = dir.join("s.ktrace");
        manifest().write_atomic(&trace).unwrap();
        assert_eq!(Manifest::load(&trace), Some(manifest()));
        // No stray tmp file survives the rename.
        assert!(!Manifest::path_for(&trace)
            .with_extension("manifest.tmp")
            .exists());
        // Overwrite is atomic too: the new manifest replaces the old.
        let newer = Manifest {
            file_len: 99,
            ..manifest()
        };
        newer.write_atomic(&trace).unwrap();
        assert_eq!(Manifest::load(&trace), Some(newer));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_or_corrupt_sidecar_loads_none() {
        let dir = std::env::temp_dir().join(format!("ktrace-manifest-bad-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let trace = dir.join("s.ktrace");
        assert_eq!(Manifest::load(&trace), None, "absent");
        std::fs::write(Manifest::path_for(&trace), b"not a manifest").unwrap();
        assert_eq!(Manifest::load(&trace), None, "corrupt");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
