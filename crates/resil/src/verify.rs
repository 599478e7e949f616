//! End-to-end checkpoint verification against the manifest.

use drms_core::manifest::{manifest_path, Manifest};
use drms_obs::{names, Phase, Recorder};
use drms_piofs::Piofs;

/// One chunk of one file that failed its CRC check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkFault {
    /// Full path of the damaged file.
    pub path: String,
    /// Index of the failing chunk in the file's integrity record.
    pub chunk: usize,
    /// Byte offset of the chunk within the file.
    pub offset: u64,
    /// Chunk length in bytes.
    pub len: u64,
}

/// Outcome of verifying one checkpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyReport {
    /// Checkpoint prefix verified.
    pub prefix: String,
    /// Whether the manifest decoded (including its trailing self-CRC).
    pub manifest_ok: bool,
    /// Files the checkpoint kind mandates that are missing.
    pub missing: Vec<String>,
    /// Files that could not be read logically (lost with a server and not
    /// reconstructible from parity).
    pub unreadable: Vec<String>,
    /// Chunks whose stored bytes fail their recorded CRC.
    pub corrupt: Vec<ChunkFault>,
}

impl VerifyReport {
    /// Whether the checkpoint verified clean: manifest intact, nothing
    /// missing, unreadable, or corrupt.
    pub fn is_valid(&self) -> bool {
        self.manifest_ok
            && self.missing.is_empty()
            && self.unreadable.is_empty()
            && self.corrupt.is_empty()
    }

    fn damaged(prefix: &str) -> VerifyReport {
        VerifyReport {
            prefix: prefix.to_string(),
            manifest_ok: false,
            missing: Vec::new(),
            unreadable: Vec::new(),
            corrupt: Vec::new(),
        }
    }
}

/// Verifies the checkpoint under `prefix` end-to-end and reports every
/// defect found: manifest decode failure, mandated-but-missing files,
/// unreadable (unreconstructible) files, and chunk-level CRC mismatches.
/// Control-plane operation (no clock); `t` stamps the emitted `verify`
/// span and the per-defect trace events.
pub fn verify_checkpoint(fs: &Piofs, prefix: &str, rec: &dyn Recorder, t: f64) -> VerifyReport {
    if rec.enabled() {
        rec.span_start(t, 0, Phase::Verify, prefix);
    }
    let report = run_verify(fs, prefix, rec, t);
    if rec.enabled() {
        let detected = report.corrupt.len() as u64;
        if detected > 0 {
            rec.counter_add(0, names::CORRUPTIONS_DETECTED, None, detected);
        }
        rec.span_end(t, 0, Phase::Verify, prefix);
    }
    report
}

fn run_verify(fs: &Piofs, prefix: &str, rec: &dyn Recorder, t: f64) -> VerifyReport {
    let Some(bytes) = fs.peek(&manifest_path(prefix)) else {
        return VerifyReport::damaged(prefix);
    };
    let Ok(m) = Manifest::decode(&bytes) else {
        if rec.enabled() {
            rec.event(t, 0, Phase::Verify, &format!("manifest of {prefix} fails its CRC"));
        }
        return VerifyReport::damaged(prefix);
    };

    let mut report = VerifyReport {
        prefix: prefix.to_string(),
        manifest_ok: true,
        missing: Vec::new(),
        unreadable: Vec::new(),
        corrupt: Vec::new(),
    };
    for path in m.required_files(prefix) {
        if !fs.exists(&path) {
            report.missing.push(path);
        }
    }
    for fi in &m.integrity {
        let path = format!("{prefix}/{}", fi.name);
        let Some(bytes) = fs.peek(&path) else {
            if fs.exists(&path) {
                report.unreadable.push(path);
            } else if !report.missing.contains(&path) {
                report.missing.push(path);
            }
            continue;
        };
        for chunk in fi.corrupt_chunks(&bytes) {
            let (offset, end) = fi.chunk_range(chunk);
            if rec.enabled() {
                rec.event(t, 0, Phase::Verify, &format!("{path} chunk {chunk} corrupt"));
            }
            report.corrupt.push(ChunkFault {
                path: path.clone(),
                chunk,
                offset,
                len: end - offset,
            });
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use drms_obs::NullRecorder;

    #[test]
    fn missing_manifest_is_invalid() {
        let fs = Piofs::new(drms_piofs::PiofsConfig::test_tiny(4), 1);
        let r = verify_checkpoint(&fs, "ck/none", &NullRecorder, 0.0);
        assert!(!r.manifest_ok);
        assert!(!r.is_valid());
    }

    #[test]
    fn deleted_pack_is_reported_once_however_many_chunks_use_it() {
        use drms_core::manifest::{
            delta_path, segment_path, ArrayDelta, ArrayEntry, ChunkRecord, ChunkSource, CkptKind,
        };
        use drms_darray::chunks::Codec;
        use drms_slices::{Order, Slice};

        let chunk = |i: u64, source: ChunkSource| ChunkRecord {
            hash: u128::from(i),
            len: 64,
            stored_len: 64,
            codec: Codec::Raw,
            offset: 64 * i,
            source,
        };
        let old = ChunkSource::Ref { prefix: "ck/0".into(), array: "u".into() };
        let chunks = (0..8)
            .map(|i| chunk(i, if i % 2 == 0 { old.clone() } else { ChunkSource::Local }))
            .collect();
        let m = Manifest {
            app: "mini".into(),
            kind: CkptKind::DrmsDelta,
            ntasks: 2,
            sop: 1,
            arrays: vec![ArrayEntry {
                name: "u".into(),
                elem_code: 1,
                domain: Slice::boxed(&[(0, 63)]),
                order: Order::ColumnMajor,
            }],
            integrity: Vec::new(),
            deltas: vec![ArrayDelta { name: "u".into(), chunk_bytes: 64, stream_len: 512, chunks }],
        };
        assert_eq!(
            m.required_files("ck/1"),
            [segment_path("ck/1"), delta_path("ck/0", "u"), delta_path("ck/1", "u")]
        );

        let fs = Piofs::new(drms_piofs::PiofsConfig::test_tiny(4), 1);
        fs.preload(&manifest_path("ck/1"), m.encode());
        for path in m.required_files("ck/1") {
            fs.preload(&path, vec![0; 512]);
        }
        assert!(verify_checkpoint(&fs, "ck/1", &NullRecorder, 0.0).is_valid());
        assert!(fs.delete(&delta_path("ck/0", "u")));
        let r = verify_checkpoint(&fs, "ck/1", &NullRecorder, 0.0);
        assert!(r.manifest_ok);
        assert_eq!(r.missing, [delta_path("ck/0", "u")]);
        assert!(!drms_core::checkpoint_is_valid(&fs, "ck/1"));
    }
}
