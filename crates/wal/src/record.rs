//! Typed, self-framing logical log records and the checkpoint policy.
//!
//! Both engines log *logical* operations (`Put`, `Delete`, `DocSet`,
//! `DocDelete`) plus two structural kinds: `PageImages` (full post-op images
//! of restructured B+-tree pages, the relational engine's physical sidecar)
//! and the `CheckpointBegin`/`CheckpointEnd` pair that brackets a fuzzy
//! checkpoint. Records are **self-framing**: every encoded record starts
//! with `[version u8][kind u8][body_len u32][body crc u32]`, so a scanner
//! that lands on an arbitrary byte offset (the document store's tail scan)
//! can cheaply reject non-record bytes before paying for a CRC, and a
//! corrupt record is distinguishable from clean end-of-log.
//!
//! Replay contract: logical records are **idempotent** — `Put` is an
//! upsert, `Delete` of a missing key is a no-op — so recovery may replay
//! any suffix of the log any number of times and converge to the same
//! state. That is what makes checkpoint-LSN-bounded recovery safe with a
//! lag-one checkpoint header (see `relstore::Engine::checkpoint`).

use simkit::crc32;

/// Wire-format version stamped on every record frame.
pub const RECORD_VERSION: u8 = 1;

/// Frame overhead preceding a record body:
/// `[version u8][kind u8][body_len u32][body crc u32]`.
pub const FRAME: usize = 10;

/// Decode-time sanity cap on a body (far above any legitimate record).
const MAX_BODY: usize = 1 << 27;
/// A record carries at most this many page images.
const MAX_IMAGES: usize = 1024;
/// A single page image never exceeds the largest page size.
const MAX_IMAGE_BYTES: usize = 64 * 1024;

const KIND_PUT: u8 = 1;
const KIND_DELETE: u8 = 2;
const KIND_DOC_SET: u8 = 3;
const KIND_DOC_DELETE: u8 = 4;
const KIND_CKPT_BEGIN: u8 = 5;
const KIND_CKPT_END: u8 = 6;
const KIND_PAGE_IMAGES: u8 = 7;

/// One logical WAL record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LogRecord {
    /// Relational engine: insert or overwrite `key` in `tree` (upsert).
    Put { tree: u32, key: Vec<u8>, value: Vec<u8> },
    /// Relational engine: delete `key` from `tree` (missing key = no-op).
    Delete { tree: u32, key: Vec<u8> },
    /// Document store: insert or overwrite a document.
    DocSet { key: Vec<u8>, value: Vec<u8> },
    /// Document store: tombstone a document.
    DocDelete { key: Vec<u8> },
    /// A checkpoint started; `lsn` is this record's own LSN.
    CheckpointBegin { lsn: u64 },
    /// The checkpoint that began at `lsn` completed: every record before
    /// that Begin is reflected in the on-disk pages and catalog.
    CheckpointEnd { lsn: u64 },
    /// Physical sidecar for a structural operation: full post-op images of
    /// every rewritten page, and the tree's root/height if it moved.
    PageImages { images: Vec<(u64, Vec<u8>)>, root_change: Option<(u32, u64, u8)> },
}

/// Append a framed record to `out`: version, kind, body length and body
/// CRC, then the body written by `body`.
fn frame_into(out: &mut Vec<u8>, kind: u8, body: impl FnOnce(&mut Vec<u8>)) {
    let start = out.len();
    out.push(RECORD_VERSION);
    out.push(kind);
    out.extend_from_slice(&[0u8; 8]); // body_len + crc patched below
    body(out);
    let body_len = (out.len() - start - FRAME) as u32;
    let crc = crc32(&out[start + FRAME..]);
    out[start + 2..start + 6].copy_from_slice(&body_len.to_le_bytes());
    out[start + 6..start + 10].copy_from_slice(&crc.to_le_bytes());
}

fn put_put(out: &mut Vec<u8>, tree: u32, key: &[u8], value: &[u8]) {
    out.extend_from_slice(&tree.to_le_bytes());
    out.extend_from_slice(&(key.len() as u16).to_le_bytes());
    out.extend_from_slice(&(value.len() as u32).to_le_bytes());
    out.extend_from_slice(key);
    out.extend_from_slice(value);
}

fn put_doc_set(out: &mut Vec<u8>, key: &[u8], value: &[u8]) {
    out.extend_from_slice(&(key.len() as u16).to_le_bytes());
    out.extend_from_slice(&(value.len() as u32).to_le_bytes());
    out.extend_from_slice(key);
    out.extend_from_slice(value);
}

impl LogRecord {
    fn kind(&self) -> u8 {
        match self {
            LogRecord::Put { .. } => KIND_PUT,
            LogRecord::Delete { .. } => KIND_DELETE,
            LogRecord::DocSet { .. } => KIND_DOC_SET,
            LogRecord::DocDelete { .. } => KIND_DOC_DELETE,
            LogRecord::CheckpointBegin { .. } => KIND_CKPT_BEGIN,
            LogRecord::CheckpointEnd { .. } => KIND_CKPT_END,
            LogRecord::PageImages { .. } => KIND_PAGE_IMAGES,
        }
    }

    fn encode_body(&self, out: &mut Vec<u8>) {
        match self {
            LogRecord::Put { tree, key, value } => put_put(out, *tree, key, value),
            LogRecord::Delete { tree, key } => {
                out.extend_from_slice(&tree.to_le_bytes());
                out.extend_from_slice(&(key.len() as u16).to_le_bytes());
                out.extend_from_slice(key);
            }
            LogRecord::DocSet { key, value } => put_doc_set(out, key, value),
            LogRecord::DocDelete { key } => {
                out.extend_from_slice(&(key.len() as u16).to_le_bytes());
                out.extend_from_slice(key);
            }
            LogRecord::CheckpointBegin { lsn } | LogRecord::CheckpointEnd { lsn } => {
                out.extend_from_slice(&lsn.to_le_bytes());
            }
            LogRecord::PageImages { images, root_change } => {
                out.extend_from_slice(&(images.len() as u32).to_le_bytes());
                for (page, bytes) in images {
                    out.extend_from_slice(&page.to_le_bytes());
                    out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
                    out.extend_from_slice(bytes);
                }
                match root_change {
                    Some((tree, root, height)) => {
                        out.push(1u8);
                        out.extend_from_slice(&tree.to_le_bytes());
                        out.extend_from_slice(&root.to_le_bytes());
                        out.push(*height);
                    }
                    None => out.push(0u8),
                }
            }
        }
    }

    /// Append the framed wire format to `out`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        frame_into(out, self.kind(), |out| self.encode_body(out));
    }

    /// Serialise to the framed wire format.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(FRAME + 64);
        self.encode_into(&mut out);
        out
    }

    /// Append the framed bytes of `Put { tree, key, value }` to `out`,
    /// encoded straight from the borrowed parts. Byte-identical to
    /// `LogRecord::Put { .. }.encode_into(out)`.
    pub fn encode_put_into(out: &mut Vec<u8>, tree: u32, key: &[u8], value: &[u8]) {
        frame_into(out, KIND_PUT, |out| put_put(out, tree, key, value));
    }

    /// The framed bytes of `DocSet { key, value }`, encoded straight from
    /// the borrowed parts (no record has to own copies of them first).
    /// Byte-identical to `LogRecord::DocSet { .. }.encode()`.
    pub fn encode_doc_set(key: &[u8], value: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(FRAME + 6 + key.len() + value.len());
        frame_into(&mut out, KIND_DOC_SET, |out| put_doc_set(out, key, value));
        out
    }

    /// Try to decode a record starting at `buf[0]`. Returns the record and
    /// the number of bytes it consumed, or `None` if `buf` does not start
    /// with an intact record. Cheap prefix checks (version byte, known
    /// kind, plausible length) run before the CRC, so a scanner may probe
    /// arbitrary offsets without quadratic cost.
    pub fn decode(buf: &[u8]) -> Option<(Self, usize)> {
        if buf.len() < FRAME || buf[0] != RECORD_VERSION {
            return None;
        }
        let kind = buf[1];
        if !(KIND_PUT..=KIND_PAGE_IMAGES).contains(&kind) {
            return None;
        }
        let body_len = u32::from_le_bytes(buf[2..6].try_into().ok()?) as usize;
        if body_len > MAX_BODY || buf.len() < FRAME + body_len {
            return None;
        }
        let crc = u32::from_le_bytes(buf[6..10].try_into().ok()?);
        let body = &buf[FRAME..FRAME + body_len];
        if crc32(body) != crc {
            return None;
        }
        let rec = Self::decode_body(kind, body)?;
        Some((rec, FRAME + body_len))
    }

    fn decode_body(kind: u8, buf: &[u8]) -> Option<Self> {
        let mut pos = 0usize;
        let take = |pos: &mut usize, n: usize| -> Option<&[u8]> {
            if *pos + n > buf.len() {
                return None;
            }
            let s = &buf[*pos..*pos + n];
            *pos += n;
            Some(s)
        };
        let rec = match kind {
            KIND_PUT => {
                let tree = u32::from_le_bytes(take(&mut pos, 4)?.try_into().ok()?);
                let klen = u16::from_le_bytes(take(&mut pos, 2)?.try_into().ok()?) as usize;
                let vlen = u32::from_le_bytes(take(&mut pos, 4)?.try_into().ok()?) as usize;
                let key = take(&mut pos, klen)?.to_vec();
                let value = take(&mut pos, vlen)?.to_vec();
                LogRecord::Put { tree, key, value }
            }
            KIND_DELETE => {
                let tree = u32::from_le_bytes(take(&mut pos, 4)?.try_into().ok()?);
                let klen = u16::from_le_bytes(take(&mut pos, 2)?.try_into().ok()?) as usize;
                let key = take(&mut pos, klen)?.to_vec();
                LogRecord::Delete { tree, key }
            }
            KIND_DOC_SET => {
                let klen = u16::from_le_bytes(take(&mut pos, 2)?.try_into().ok()?) as usize;
                let vlen = u32::from_le_bytes(take(&mut pos, 4)?.try_into().ok()?) as usize;
                let key = take(&mut pos, klen)?.to_vec();
                let value = take(&mut pos, vlen)?.to_vec();
                LogRecord::DocSet { key, value }
            }
            KIND_DOC_DELETE => {
                let klen = u16::from_le_bytes(take(&mut pos, 2)?.try_into().ok()?) as usize;
                let key = take(&mut pos, klen)?.to_vec();
                LogRecord::DocDelete { key }
            }
            KIND_CKPT_BEGIN | KIND_CKPT_END => {
                let lsn = u64::from_le_bytes(take(&mut pos, 8)?.try_into().ok()?);
                if kind == KIND_CKPT_BEGIN {
                    LogRecord::CheckpointBegin { lsn }
                } else {
                    LogRecord::CheckpointEnd { lsn }
                }
            }
            KIND_PAGE_IMAGES => {
                let n_images = u32::from_le_bytes(take(&mut pos, 4)?.try_into().ok()?) as usize;
                if n_images > MAX_IMAGES {
                    return None;
                }
                let mut images = Vec::with_capacity(n_images);
                for _ in 0..n_images {
                    let page = u64::from_le_bytes(take(&mut pos, 8)?.try_into().ok()?);
                    let len = u32::from_le_bytes(take(&mut pos, 4)?.try_into().ok()?) as usize;
                    if len > MAX_IMAGE_BYTES {
                        return None;
                    }
                    images.push((page, take(&mut pos, len)?.to_vec()));
                }
                let root_change = match take(&mut pos, 1)?[0] {
                    0 => None,
                    1 => {
                        let tree = u32::from_le_bytes(take(&mut pos, 4)?.try_into().ok()?);
                        let root = u64::from_le_bytes(take(&mut pos, 8)?.try_into().ok()?);
                        let height = take(&mut pos, 1)?[0];
                        Some((tree, root, height))
                    }
                    _ => return None,
                };
                LogRecord::PageImages { images, root_change }
            }
            _ => return None,
        };
        if pos != buf.len() {
            return None; // trailing garbage inside a CRC-valid body
        }
        Some(rec)
    }
}

/// When the engine should take a checkpoint, replacing the old hardcoded
/// 3/4-capacity heuristic. Validated at config-build time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckpointPolicy {
    /// Never volunteer a checkpoint; the application calls `checkpoint`
    /// itself. A last-resort overflow guard still reports `true` when the
    /// live log exceeds 7/8 of the circular capacity, because overflowing
    /// the circle is a hard failure.
    Explicit,
    /// Checkpoint once the live (un-truncated) log exceeds this percentage
    /// of the circular capacity. `LiveBytesPct(75)` is byte-for-byte the
    /// legacy 3/4 heuristic.
    LiveBytesPct(u8),
    /// Checkpoint every `n` commits (plus the same 7/8 overflow guard).
    EveryNCommits(u64),
}

impl CheckpointPolicy {
    /// The default live-bytes threshold (the legacy 3/4 heuristic).
    pub const DEFAULT_LIVE_PCT: u8 = 75;

    /// Check the policy's parameters; called by the config validators.
    ///
    /// # Panics
    /// On nonsense values: a threshold outside `1..=99` or a zero commit
    /// interval.
    pub fn validate(&self) {
        match *self {
            CheckpointPolicy::Explicit => {}
            CheckpointPolicy::LiveBytesPct(pct) => {
                assert!(
                    (1..=99).contains(&pct),
                    "checkpoint threshold must be between 1 and 99 percent (got {pct})"
                );
            }
            CheckpointPolicy::EveryNCommits(n) => {
                assert!(n >= 1, "checkpoint interval must be at least 1 commit");
            }
        }
    }
}

impl Default for CheckpointPolicy {
    fn default() -> Self {
        CheckpointPolicy::LiveBytesPct(Self::DEFAULT_LIVE_PCT)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples() -> Vec<LogRecord> {
        vec![
            LogRecord::Put { tree: 3, key: b"k".to_vec(), value: b"v1".to_vec() },
            LogRecord::Delete { tree: 9, key: b"gone".to_vec() },
            LogRecord::DocSet { key: b"doc1".to_vec(), value: vec![7; 300] },
            LogRecord::DocDelete { key: b"doc2".to_vec() },
            LogRecord::CheckpointBegin { lsn: 0xDEAD_BEEF },
            LogRecord::CheckpointEnd { lsn: 0xDEAD_BEEF },
            LogRecord::PageImages {
                images: vec![(5, vec![1; 4080]), (9, vec![2; 4080])],
                root_change: Some((0, 9, 2)),
            },
            LogRecord::PageImages { images: vec![], root_change: None },
        ]
    }

    #[test]
    fn every_kind_round_trips() {
        for rec in samples() {
            let enc = rec.encode();
            let (dec, used) = LogRecord::decode(&enc).unwrap();
            assert_eq!(dec, rec);
            assert_eq!(used, enc.len());
        }
    }

    #[test]
    fn decode_reports_consumed_length_in_a_stream() {
        // Concatenated records decode one at a time via the consumed count.
        let recs = samples();
        let mut stream = Vec::new();
        for r in &recs {
            stream.extend_from_slice(&r.encode());
        }
        let mut pos = 0;
        let mut out = Vec::new();
        while pos < stream.len() {
            let (rec, used) = LogRecord::decode(&stream[pos..]).unwrap();
            out.push(rec);
            pos += used;
        }
        assert_eq!(out, recs);
    }

    #[test]
    fn truncated_input_rejected() {
        let rec =
            LogRecord::PageImages { images: vec![(5, vec![1; 100])], root_change: Some((1, 2, 3)) };
        let enc = rec.encode();
        for cut in [0, 1, 5, FRAME, FRAME + 3, enc.len() - 1] {
            assert!(LogRecord::decode(&enc[..cut]).is_none(), "cut at {cut}");
        }
    }

    #[test]
    fn borrowed_doc_set_encoding_matches_owned() {
        for (k, v) in [(&b""[..], &b""[..]), (b"k", b"v"), (b"user42", &[9u8; 1000][..])] {
            let owned = LogRecord::DocSet { key: k.to_vec(), value: v.to_vec() }.encode();
            assert_eq!(LogRecord::encode_doc_set(k, v), owned);
        }
    }

    #[test]
    fn borrowed_put_encoding_matches_owned() {
        for (tree, k, v) in
            [(0u32, &b""[..], &b""[..]), (7, b"k", b"v"), (u32::MAX, b"row42", &[9u8; 1000][..])]
        {
            let owned = LogRecord::Put { tree, key: k.to_vec(), value: v.to_vec() }.encode();
            // Appended after existing bytes, as the log tail buffer does.
            let mut out = vec![0xAA; 5];
            LogRecord::encode_put_into(&mut out, tree, k, v);
            assert_eq!(&out[..5], &[0xAA; 5]);
            assert_eq!(&out[5..], owned.as_slice());
            assert_eq!(LogRecord::decode(&out[5..]).map(|(r, _)| r.encode()), Some(owned));
        }
    }

    #[test]
    fn corrupt_frame_rejected() {
        let enc = LogRecord::DocSet { key: b"k".to_vec(), value: b"v".to_vec() }.encode();
        // Wrong version byte.
        let mut bad = enc.clone();
        bad[0] = 2;
        assert!(LogRecord::decode(&bad).is_none());
        // Unknown kind.
        let mut bad = enc.clone();
        bad[1] = 99;
        assert!(LogRecord::decode(&bad).is_none());
        // Flipped body byte fails the CRC.
        let mut bad = enc.clone();
        *bad.last_mut().unwrap() ^= 0x40;
        assert!(LogRecord::decode(&bad).is_none());
    }

    #[test]
    fn trailing_bytes_beyond_frame_are_ignored() {
        // A record embedded in a longer stream decodes to exactly its own
        // frame; bytes after it are the next record's business.
        let enc = LogRecord::DocDelete { key: b"k".to_vec() }.encode();
        let mut padded = enc.clone();
        padded.extend_from_slice(&[0xAB; 32]);
        let (rec, used) = LogRecord::decode(&padded).unwrap();
        assert_eq!(rec, LogRecord::DocDelete { key: b"k".to_vec() });
        assert_eq!(used, enc.len());
    }

    #[test]
    fn policy_default_matches_legacy_heuristic() {
        assert_eq!(CheckpointPolicy::default(), CheckpointPolicy::LiveBytesPct(75));
        CheckpointPolicy::default().validate();
        CheckpointPolicy::Explicit.validate();
        CheckpointPolicy::EveryNCommits(1).validate();
    }

    #[test]
    #[should_panic(expected = "checkpoint threshold")]
    fn zero_threshold_rejected() {
        CheckpointPolicy::LiveBytesPct(0).validate();
    }

    #[test]
    #[should_panic(expected = "checkpoint threshold")]
    fn full_threshold_rejected() {
        CheckpointPolicy::LiveBytesPct(100).validate();
    }

    #[test]
    #[should_panic(expected = "checkpoint interval")]
    fn zero_interval_rejected() {
        CheckpointPolicy::EveryNCommits(0).validate();
    }

    mod proptests {
        use super::*;
        use simkit::dist::{rng, Rng};

        fn random_bytes<R: Rng>(r: &mut R, max: usize) -> Vec<u8> {
            let len = r.gen_range(0..max);
            (0..len).map(|_| r.gen::<u8>()).collect()
        }

        fn random_record<R: Rng>(r: &mut R) -> LogRecord {
            match r.gen_range(0..7u32) {
                0 => LogRecord::Put {
                    tree: r.gen::<u32>(),
                    key: random_bytes(r, 40),
                    value: random_bytes(r, 200),
                },
                1 => LogRecord::Delete { tree: r.gen::<u32>(), key: random_bytes(r, 40) },
                2 => LogRecord::DocSet { key: random_bytes(r, 40), value: random_bytes(r, 400) },
                3 => LogRecord::DocDelete { key: random_bytes(r, 40) },
                4 => LogRecord::CheckpointBegin { lsn: r.gen::<u64>() },
                5 => LogRecord::CheckpointEnd { lsn: r.gen::<u64>() },
                _ => {
                    let images: Vec<(u64, Vec<u8>)> = (0..r.gen_range(0..4usize))
                        .map(|_| (r.gen::<u64>(), random_bytes(r, 300)))
                        .collect();
                    let root_change = if r.gen::<bool>() {
                        Some((r.gen::<u32>(), r.gen::<u64>(), r.gen::<u8>()))
                    } else {
                        None
                    };
                    LogRecord::PageImages { images, root_change }
                }
            }
        }

        #[test]
        fn codec_round_trips() {
            let mut r = rng(0x2EC02D);
            for _ in 0..256 {
                let rec = random_record(&mut r);
                let enc = rec.encode();
                let (dec, used) = LogRecord::decode(&enc).unwrap();
                assert_eq!(dec, rec);
                assert_eq!(used, enc.len());
            }
        }

        #[test]
        fn truncations_never_panic_or_misparse() {
            let mut r = rng(0x72C);
            for _ in 0..256 {
                let rec = random_record(&mut r);
                let enc = rec.encode();
                let cut = r.gen_range(0..enc.len());
                assert!(LogRecord::decode(&enc[..cut]).is_none());
            }
        }

        #[test]
        fn random_bytes_never_decode_with_plausible_frames() {
            // A scanner probing garbage must reject it (the CRC gate) and
            // never panic.
            let mut r = rng(0xBAD);
            for _ in 0..512 {
                let junk = random_bytes(&mut r, 64);
                let _ = LogRecord::decode(&junk); // must not panic
                if let Some((_, used)) = LogRecord::decode(&junk) {
                    assert!(used <= junk.len());
                }
            }
        }
    }
}
