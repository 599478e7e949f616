//! Decoder totality: every decoder of checkpoint bytes that storage, a
//! peer or a crashed incarnation hands back returns an error (or a value)
//! on any input, and never panics or aborts. Each decoder is fed random
//! bytes, every truncation of a valid encoding and every single-bit flip of
//! one. The manifest's flips are also re-sealed with a fresh trailing CRC,
//! so the corruption reaches the body parser instead of stopping at the
//! checksum.

use drms::blackbox::{decode_seal, encode_seal, SealHeader};
use drms::core::manifest::{
    ArrayDelta, ArrayEntry, ChunkRecord, ChunkSource, CkptKind, FileIntegrity, Manifest,
};
use drms::core::mpmd::{MpmdComponent, MpmdManifest};
use drms::core::segment::{DataSegment, RegionKind};
use drms::core::wire::crc32;
use drms::core::{decode_locals, encode_locals};
use drms::darray::chunks::{decode_chunk, encode_chunk, Codec};
use drms::darray::{DistArray, Distribution};
use drms::obs::{EventKind, Phase, TraceEvent};
use drms::slices::{Order, Range, Slice};
use proptest::prelude::*;

fn sample_manifest() -> Vec<u8> {
    let domain = Slice::new(vec![
        Range::contiguous(0, 31),
        Range::strided(2, 40, 3).unwrap(),
        Range::from_indices(&[1, 4, 5, 9]).unwrap(),
    ]);
    let chunk = |offset, source| ChunkRecord {
        hash: 0x0123_4567_89ab_cdef_fedc_ba98_7654_3210,
        len: 64,
        stored_len: 16,
        codec: Codec::Rle,
        offset,
        source,
    };
    Manifest {
        app: "bt".to_string(),
        kind: CkptKind::DrmsDelta,
        ntasks: 4,
        sop: 7,
        arrays: vec![ArrayEntry { name: "u".into(), elem_code: 8, domain, order: Order::RowMajor }],
        integrity: vec![FileIntegrity::compute("segment", &[5u8; 300], 128)],
        deltas: vec![ArrayDelta {
            name: "u".into(),
            chunk_bytes: 64,
            stream_len: 128,
            chunks: vec![
                chunk(0, ChunkSource::Local),
                chunk(16, ChunkSource::Ref { prefix: "ck/1".into(), array: "u".into() }),
            ],
        }],
    }
    .encode()
}

fn sample_mpmd() -> Vec<u8> {
    let component = |name: &str, ntasks| MpmdComponent {
        name: name.into(),
        prefix: format!("ck/m/{name}"),
        ntasks,
    };
    MpmdManifest {
        app: "coupled".into(),
        components: vec![component("ocean", 3), component("atmos", 2)],
    }
    .encode()
}

fn sample_segment() -> Vec<u8> {
    let mut s = DataSegment::new();
    s.set_control("iter", 42);
    s.set_replicated_f64("dt", 0.25);
    s.set_region("local", RegionKind::LocalSections, vec![9; 40]);
    s.set_region("msgbuf", RegionKind::SystemBuffers, vec![0; 10]);
    s.encode()
}

fn sample_seal() -> Vec<u8> {
    let header = SealHeader {
        incarnation: 3,
        rank: 1,
        seal_seq: 5,
        t: 17.75,
        reason: "sop".into(),
        evicted_total: 9,
    };
    let event = |t, kind, corr| TraceEvent {
        t,
        rank: 1,
        phase: Phase::Segment,
        name: "write_segment".into(),
        kind,
        corr,
    };
    let events =
        [(3, event(1.25, EventKind::Begin, None)), (4, event(2.5, EventKind::End, Some(7)))];
    encode_seal(&header, events.iter(), events.len())
}

/// Two arrays block-distributed over two tasks, as rank 0 sees them.
fn local_arrays() -> (DistArray<f64>, DistArray<i32>) {
    let dom = Slice::boxed(&[(0, 7), (0, 5)]);
    let dist = Distribution::block_auto(&dom, 2, 1).unwrap();
    let mut u = DistArray::new("u", Order::ColumnMajor, dist.clone(), 0);
    u.fill_assigned(|p| (p[0] * 8 + p[1]) as f64);
    (u, DistArray::new("n", Order::RowMajor, dist, 0))
}

fn sample_locals() -> Vec<u8> {
    let (u, n) = local_arrays();
    encode_locals(&[&u, &n], 0)
}

fn decode_locals_into_fresh(bytes: &[u8]) -> bool {
    let (mut u, mut n) = local_arrays();
    decode_locals(&mut [&mut u, &mut n], bytes).is_ok()
}

/// A decoder under test, its valid sample encoding and how many leading
/// bytes are its header (kept intact when the body is randomized).
struct Case {
    name: &'static str,
    valid: Vec<u8>,
    header: usize,
    /// Whether the encoding ends in a CRC-32 of everything before it.
    sealed: bool,
    /// Whether the bytes decode; panicking or aborting is the only failure.
    decode: fn(&[u8]) -> bool,
}

fn cases() -> Vec<Case> {
    let (_, rle) = encode_chunk(&[0u8; 200], true);
    vec![
        Case {
            name: "Manifest",
            valid: sample_manifest(),
            header: 8,
            sealed: true,
            decode: |b| Manifest::decode(b).is_ok(),
        },
        Case {
            name: "MpmdManifest",
            valid: sample_mpmd(),
            header: 8,
            sealed: false,
            decode: |b| MpmdManifest::decode(b).is_ok(),
        },
        Case {
            name: "DataSegment",
            valid: sample_segment(),
            header: 8,
            sealed: false,
            decode: |b| DataSegment::decode(b).is_ok(),
        },
        Case {
            name: "decode_seal",
            valid: sample_seal(),
            header: 6,
            sealed: false,
            decode: |b| decode_seal(b).is_ok(),
        },
        Case {
            name: "decode_locals",
            valid: sample_locals(),
            header: 0,
            sealed: false,
            decode: decode_locals_into_fresh,
        },
        Case {
            name: "decode_chunk(rle)",
            valid: rle,
            header: 0,
            sealed: false,
            decode: |b| decode_chunk(Codec::Rle, b).is_some(),
        },
        Case {
            name: "decode_chunk(raw)",
            valid: vec![7u8; 64],
            header: 0,
            sealed: false,
            decode: |b| decode_chunk(Codec::Raw, b).is_some(),
        },
    ]
}

/// Replaces the trailing CRC-32 with the CRC of the (corrupted) payload.
fn reseal(bytes: &mut [u8]) {
    let n = bytes.len() - 4;
    let crc = crc32(&bytes[..n]);
    bytes[n..].copy_from_slice(&crc.to_le_bytes());
}

#[test]
fn samples_are_valid_encodings() {
    for c in cases() {
        assert!((c.decode)(&c.valid), "{}: the sample must decode", c.name);
    }
}

#[test]
fn every_truncation_is_total() {
    for c in cases() {
        for len in 0..c.valid.len() {
            (c.decode)(&c.valid[..len]);
        }
    }
}

#[test]
fn every_single_bit_flip_is_total() {
    for c in cases() {
        for bit in 0..c.valid.len() * 8 {
            let mut bytes = c.valid.clone();
            bytes[bit / 8] ^= 1 << (bit % 8);
            (c.decode)(&bytes);
            if c.sealed {
                reseal(&mut bytes);
                (c.decode)(&bytes);
            }
        }
    }
}

#[test]
fn flips_stopped_by_the_manifest_crc_still_reach_the_parser_when_resealed() {
    // Guards the resealing above: a flip in the app name decodes once the
    // CRC matches again, so resealed flips exercise the body parser.
    let mut bytes = sample_manifest();
    bytes[12] ^= 1;
    assert!(Manifest::decode(&bytes).is_err());
    reseal(&mut bytes);
    assert!(Manifest::decode(&bytes).is_ok());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn random_bytes_are_total(raw in proptest::collection::vec(0u16..256, 0..512)) {
        let random: Vec<u8> = raw.iter().map(|&b| b as u8).collect();
        for c in cases() {
            (c.decode)(&random);
            // The valid header keeps the magic and version checks from
            // stopping every case before the body parser.
            let mut framed = c.valid[..c.header].to_vec();
            framed.extend_from_slice(&random);
            (c.decode)(&framed);
            if c.sealed && framed.len() >= 4 {
                reseal(&mut framed);
                (c.decode)(&framed);
            }
        }
    }
}
