//! Copy-on-write B+-tree node encoding.
//!
//! Nodes are immutable once appended (couchstore-style): an update rewrites
//! the whole root-to-leaf path. Both node kinds share one entry layout:
//! `(key, ptr, len)` where the pointer refers to a document (leaf) or a
//! child node (internal); an internal entry's key is the **max key** of its
//! child's subtree. A leaf entry with `len == 0` is a deletion tombstone.
//!
//! Because appended nodes never change, their in-memory form is shared:
//! keys are reference-counted, so copying an entry (into a rewritten path
//! node or a parent's max-key) never copies key bytes.

use simkit::crc32;
use std::rc::Rc;

/// Target serialized node size (couchstore uses ~4KB chunks).
pub const NODE_CAP: usize = 4096;

/// Node kinds.
pub const KIND_LEAF: u8 = 0;
/// Internal node marker.
pub const KIND_INTERNAL: u8 = 1;

/// One node entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Entry {
    /// Key (leaf) or subtree max key (internal).
    pub key: Rc<[u8]>,
    /// Byte offset of the document / child node.
    pub ptr: u64,
    /// Length of the document / child node; 0 marks a leaf tombstone.
    pub len: u32,
}

impl Entry {
    fn encoded_len(&self) -> usize {
        2 + 8 + 4 + self.key.len()
    }
}

/// Serialized size of a node with these entries.
pub fn node_size(entries: &[Entry]) -> usize {
    // kind + count + crc + entries
    1 + 2 + 4 + entries.iter().map(Entry::encoded_len).sum::<usize>()
}

/// Serialize a node (with CRC for torn-write detection).
pub fn encode_node(kind: u8, entries: &[Entry]) -> Vec<u8> {
    let mut out = Vec::with_capacity(node_size(entries));
    out.push(kind);
    out.extend_from_slice(&(entries.len() as u16).to_le_bytes());
    out.extend_from_slice(&[0u8; 4]); // crc placeholder
    for e in entries {
        out.extend_from_slice(&(e.key.len() as u16).to_le_bytes());
        out.extend_from_slice(&e.ptr.to_le_bytes());
        out.extend_from_slice(&e.len.to_le_bytes());
        out.extend_from_slice(&e.key);
    }
    let crc = crc32(&out[7..]);
    out[3..7].copy_from_slice(&crc.to_le_bytes());
    out
}

/// Parse a node; `None` when malformed or CRC-corrupt.
pub fn decode_node(buf: &[u8]) -> Option<(u8, Vec<Entry>)> {
    if buf.len() < 7 {
        return None;
    }
    let kind = buf[0];
    if kind != KIND_LEAF && kind != KIND_INTERNAL {
        return None;
    }
    let n = u16::from_le_bytes(buf[1..3].try_into().ok()?) as usize;
    let crc = u32::from_le_bytes(buf[3..7].try_into().ok()?);
    if crc != crc32(&buf[7..]) {
        return None;
    }
    let mut pos = 7usize;
    let mut entries = Vec::with_capacity(n);
    for _ in 0..n {
        if pos + 14 > buf.len() {
            return None;
        }
        let klen = u16::from_le_bytes(buf[pos..pos + 2].try_into().ok()?) as usize;
        let ptr = u64::from_le_bytes(buf[pos + 2..pos + 10].try_into().ok()?);
        let len = u32::from_le_bytes(buf[pos + 10..pos + 14].try_into().ok()?);
        pos += 14;
        if pos + klen > buf.len() {
            return None;
        }
        entries.push(Entry { key: buf[pos..pos + klen].into(), ptr, len });
        pos += klen;
    }
    if pos != buf.len() {
        return None;
    }
    Some((kind, entries))
}

/// Split an over-full entry list into balanced chunks each under
/// [`NODE_CAP`]. Returns at least one chunk.
pub fn split_entries(entries: Vec<Entry>) -> Vec<Vec<Entry>> {
    if node_size(&entries) <= NODE_CAP {
        return vec![entries];
    }
    let total: usize = entries.iter().map(Entry::encoded_len).sum();
    let parts = total.div_ceil(NODE_CAP - 7).max(2);
    let target = total.div_ceil(parts);
    let mut out = Vec::with_capacity(parts);
    let mut cur = Vec::new();
    let mut acc = 0usize;
    for e in entries {
        let el = e.encoded_len();
        if acc + el > target && !cur.is_empty() {
            out.push(std::mem::take(&mut cur));
            acc = 0;
        }
        acc += el;
        cur.push(e);
    }
    if !cur.is_empty() {
        out.push(cur);
    }
    out
}

/// Locate the child index an internal node routes `key` to: the first entry
/// whose max-key is `>= key`, else the last entry.
pub fn route(entries: &[Entry], key: &[u8]) -> usize {
    match entries.binary_search_by(|e| (*e.key).cmp(key)) {
        Ok(i) => i,
        Err(i) => i.min(entries.len() - 1),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(k: &str, ptr: u64) -> Entry {
        Entry { key: k.as_bytes().into(), ptr, len: 10 }
    }

    #[test]
    fn encode_decode_round_trip() {
        let entries = vec![entry("apple", 1), entry("mango", 2), entry("zebra", 3)];
        let buf = encode_node(KIND_LEAF, &entries);
        let (kind, back) = decode_node(&buf).unwrap();
        assert_eq!(kind, KIND_LEAF);
        assert_eq!(back, entries);
    }

    #[test]
    fn corruption_detected() {
        let entries = vec![entry("k", 1)];
        let mut buf = encode_node(KIND_INTERNAL, &entries);
        buf[10] ^= 0xff;
        assert!(decode_node(&buf).is_none());
        assert!(decode_node(&buf[..3]).is_none());
        assert!(decode_node(&[]).is_none());
    }

    #[test]
    fn split_balances_by_bytes() {
        let entries: Vec<Entry> = (0..600).map(|i| entry(&format!("key{i:05}"), i)).collect();
        let chunks = split_entries(entries.clone());
        assert!(chunks.len() >= 2);
        for c in &chunks {
            assert!(node_size(c) <= NODE_CAP, "chunk too big: {}", node_size(c));
            assert!(!c.is_empty());
        }
        let flat: Vec<Entry> = chunks.into_iter().flatten().collect();
        assert_eq!(flat, entries, "order preserved");
    }

    #[test]
    fn small_list_not_split() {
        let entries = vec![entry("a", 1)];
        assert_eq!(split_entries(entries.clone()), vec![entries]);
    }

    #[test]
    fn routing_picks_first_cover() {
        let entries = vec![entry("g", 0), entry("p", 1), entry("z", 2)];
        assert_eq!(route(&entries, b"a"), 0);
        assert_eq!(route(&entries, b"g"), 0);
        assert_eq!(route(&entries, b"h"), 1);
        assert_eq!(route(&entries, b"p"), 1);
        assert_eq!(route(&entries, b"q"), 2);
        // Beyond the max key: clamp to the last child (inserts grow it).
        assert_eq!(route(&entries, b"zz"), 2);
    }

    mod proptests {
        use super::*;
        use simkit::dist::{rng, Rng};
        use std::collections::BTreeMap;

        fn random_entries<R: Rng>(r: &mut R) -> Vec<Entry> {
            let mut m: BTreeMap<Vec<u8>, (u64, u32)> = BTreeMap::new();
            for _ in 0..r.gen_range(1..200usize) {
                let klen = r.gen_range(1..30usize);
                let key: Vec<u8> = (0..klen).map(|_| r.gen::<u8>()).collect();
                m.insert(key, (r.gen::<u64>(), r.gen_range(1..10_000u32)));
            }
            m.into_iter().map(|(key, (ptr, len))| Entry { key: key.into(), ptr, len }).collect()
        }

        #[test]
        fn node_codec_round_trips() {
            let mut r = rng(0xC07);
            for _ in 0..256 {
                let entries = random_entries(&mut r);
                for kind in [KIND_LEAF, KIND_INTERNAL] {
                    let buf = encode_node(kind, &entries);
                    let (k2, back) = decode_node(&buf).unwrap();
                    assert_eq!(k2, kind);
                    assert_eq!(&back, &entries);
                }
            }
        }

        #[test]
        fn splits_preserve_order_and_fit() {
            let mut r = rng(0x5117);
            for _ in 0..256 {
                let entries = random_entries(&mut r);
                let chunks = split_entries(entries.clone());
                let flat: Vec<Entry> = chunks.iter().flatten().cloned().collect();
                assert_eq!(flat, entries);
                for c in &chunks {
                    assert!(!c.is_empty());
                    if chunks.len() > 1 {
                        assert!(node_size(c) <= NODE_CAP);
                    }
                }
            }
        }
    }
}
