//! Byte-level slotted-page node layout.
//!
//! Every node is exactly one database page (4/8/16KB):
//!
//! ```text
//! +--------- header (32B) ----------+-- slot array ->     <- cells --+
//! | kind | level | nkeys | free_lo  |  u16 offsets ...   ... [cell]  |
//! | free_hi | right_sibling | left  |                                |
//! +---------------------------------+--------------------------------+
//! ```
//!
//! * Leaf cell:     `[klen u16][vlen u16][key][value]`
//! * Internal cell: `[klen u16][child u64][key]` — the child holds keys
//!   `>= key`; the header's `leftmost` child holds keys below every cell key.
//!
//! Slots are kept sorted by key, so lookups binary-search the slot array.

/// Byte offset constants of the header fields.
const OFF_KIND: usize = 0;
const OFF_LEVEL: usize = 1;
const OFF_NKEYS: usize = 2;
const OFF_FREE_LO: usize = 4; // start of free gap (end of slot array)
const OFF_FREE_HI: usize = 6; // end of free gap (start of cell heap)
const OFF_RIGHT: usize = 8; // right sibling (leaf chain)
const OFF_LEFTMOST: usize = 16; // leftmost child (internal)
/// Header size.
pub const HEADER: usize = 32;
/// "No page" sentinel.
pub const NO_PAGE: u64 = u64::MAX;

/// Node kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Holds keys and values.
    Leaf,
    /// Holds separator keys and child pointers.
    Internal,
}

fn get_u16(buf: &[u8], off: usize) -> u16 {
    u16::from_le_bytes(buf[off..off + 2].try_into().unwrap())
}

fn put_u16(buf: &mut [u8], off: usize, v: u16) {
    buf[off..off + 2].copy_from_slice(&v.to_le_bytes());
}

fn get_u64(buf: &[u8], off: usize) -> u64 {
    u64::from_le_bytes(buf[off..off + 8].try_into().unwrap())
}

fn put_u64(buf: &mut [u8], off: usize, v: u64) {
    buf[off..off + 8].copy_from_slice(&v.to_le_bytes());
}

/// Initialise a page as an empty node.
pub fn init(buf: &mut [u8], kind: Kind, level: u8) {
    buf[OFF_KIND] = match kind {
        Kind::Leaf => 0,
        Kind::Internal => 1,
    };
    buf[OFF_LEVEL] = level;
    put_u16(buf, OFF_NKEYS, 0);
    put_u16(buf, OFF_FREE_LO, HEADER as u16);
    // Page sizes are at most 16KB, so the length fits in u16.
    debug_assert!(buf.len() <= u16::MAX as usize);
    put_u16(buf, OFF_FREE_HI, buf.len() as u16);
    put_u64(buf, OFF_RIGHT, NO_PAGE);
    put_u64(buf, OFF_LEFTMOST, NO_PAGE);
}

/// The node kind stored in a page.
pub fn kind(buf: &[u8]) -> Kind {
    if buf[OFF_KIND] == 0 {
        Kind::Leaf
    } else {
        Kind::Internal
    }
}

/// Distance from the leaves (0 = leaf).
pub fn level(buf: &[u8]) -> u8 {
    buf[OFF_LEVEL]
}

/// Number of keys.
pub fn nkeys(buf: &[u8]) -> usize {
    get_u16(buf, OFF_NKEYS) as usize
}

/// Right sibling page (leaf chain), or [`NO_PAGE`].
pub fn right_sibling(buf: &[u8]) -> u64 {
    get_u64(buf, OFF_RIGHT)
}

/// Set the right sibling.
pub fn set_right_sibling(buf: &mut [u8], page: u64) {
    put_u64(buf, OFF_RIGHT, page);
}

/// Leftmost child of an internal node.
pub fn leftmost_child(buf: &[u8]) -> u64 {
    get_u64(buf, OFF_LEFTMOST)
}

/// Set the leftmost child.
pub fn set_leftmost_child(buf: &mut [u8], page: u64) {
    put_u64(buf, OFF_LEFTMOST, page);
}

fn slot_off(i: usize) -> usize {
    HEADER + 2 * i
}

fn cell_at(buf: &[u8], i: usize) -> usize {
    get_u16(buf, slot_off(i)) as usize
}

/// Key of slot `i`.
pub fn key(buf: &[u8], i: usize) -> &[u8] {
    let c = cell_at(buf, i);
    let klen = get_u16(buf, c) as usize;
    match kind(buf) {
        Kind::Leaf => &buf[c + 4..c + 4 + klen],
        Kind::Internal => &buf[c + 10..c + 10 + klen],
    }
}

/// Value of slot `i` (leaf only).
pub fn value(buf: &[u8], i: usize) -> &[u8] {
    debug_assert_eq!(kind(buf), Kind::Leaf);
    let c = cell_at(buf, i);
    let klen = get_u16(buf, c) as usize;
    let vlen = get_u16(buf, c + 2) as usize;
    &buf[c + 4 + klen..c + 4 + klen + vlen]
}

/// Child pointer of slot `i` (internal only).
pub fn child(buf: &[u8], i: usize) -> u64 {
    debug_assert_eq!(kind(buf), Kind::Internal);
    let c = cell_at(buf, i);
    get_u64(buf, c + 2)
}

/// Binary search: `Ok(i)` exact match, `Err(i)` insertion position.
pub fn search(buf: &[u8], k: &[u8]) -> Result<usize, usize> {
    let n = nkeys(buf);
    let mut lo = 0usize;
    let mut hi = n;
    while lo < hi {
        let mid = (lo + hi) / 2;
        match key(buf, mid).cmp(k) {
            std::cmp::Ordering::Less => lo = mid + 1,
            std::cmp::Ordering::Greater => hi = mid,
            std::cmp::Ordering::Equal => return Ok(mid),
        }
    }
    Err(lo)
}

/// The child an internal node routes `k` to.
pub fn route(buf: &[u8], k: &[u8]) -> u64 {
    debug_assert_eq!(kind(buf), Kind::Internal);
    match search(buf, k) {
        Ok(i) => child(buf, i),
        Err(0) => leftmost_child(buf),
        Err(i) => child(buf, i - 1),
    }
}

/// Free bytes between the slot array and the cell heap.
pub fn free_space(buf: &[u8]) -> usize {
    get_u16(buf, OFF_FREE_HI) as usize - get_u16(buf, OFF_FREE_LO) as usize
}

fn cell_size(kind: Kind, klen: usize, vlen: usize) -> usize {
    match kind {
        Kind::Leaf => 4 + klen + vlen,
        Kind::Internal => 10 + klen,
    }
}

/// Whether a cell of the given sizes fits (cell + one slot entry).
pub fn fits(buf: &[u8], klen: usize, vlen: usize) -> bool {
    free_space(buf) >= cell_size(kind(buf), klen, vlen) + 2
}

/// Insert a leaf cell at slot position `i` (caller guarantees order and fit).
pub fn insert_leaf(buf: &mut [u8], i: usize, k: &[u8], v: &[u8]) {
    debug_assert_eq!(kind(buf), Kind::Leaf);
    debug_assert!(fits(buf, k.len(), v.len()));
    let size = cell_size(Kind::Leaf, k.len(), v.len());
    let hi = get_u16(buf, OFF_FREE_HI) as usize - size;
    put_u16(buf, hi, k.len() as u16);
    put_u16(buf, hi + 2, v.len() as u16);
    buf[hi + 4..hi + 4 + k.len()].copy_from_slice(k);
    buf[hi + 4 + k.len()..hi + size].copy_from_slice(v);
    open_slot(buf, i, hi as u16);
    put_u16(buf, OFF_FREE_HI, hi as u16);
}

/// Insert an internal cell at slot position `i`.
pub fn insert_internal(buf: &mut [u8], i: usize, k: &[u8], child_page: u64) {
    debug_assert_eq!(kind(buf), Kind::Internal);
    debug_assert!(fits(buf, k.len(), 0));
    let size = cell_size(Kind::Internal, k.len(), 0);
    let hi = get_u16(buf, OFF_FREE_HI) as usize - size;
    put_u16(buf, hi, k.len() as u16);
    put_u64(buf, hi + 2, child_page);
    buf[hi + 10..hi + 10 + k.len()].copy_from_slice(k);
    open_slot(buf, i, hi as u16);
    put_u16(buf, OFF_FREE_HI, hi as u16);
}

fn open_slot(buf: &mut [u8], i: usize, cell: u16) {
    let n = nkeys(buf);
    debug_assert!(i <= n);
    // Shift slots right.
    for j in (i..n).rev() {
        let v = get_u16(buf, slot_off(j));
        put_u16(buf, slot_off(j + 1), v);
    }
    put_u16(buf, slot_off(i), cell);
    put_u16(buf, OFF_NKEYS, (n + 1) as u16);
    put_u16(buf, OFF_FREE_LO, (HEADER + 2 * (n + 1)) as u16);
}

/// Remove slot `i`. Cell space is reclaimed by compaction on demand (the
/// node is rewritten whole at splits), so only the slot goes away here; the
/// heap space is leaked until the next rebuild. `rebuild` compacts.
pub fn remove_slot(buf: &mut [u8], i: usize) {
    let n = nkeys(buf);
    debug_assert!(i < n);
    for j in i + 1..n {
        let v = get_u16(buf, slot_off(j));
        put_u16(buf, slot_off(j - 1), v);
    }
    put_u16(buf, OFF_NKEYS, (n - 1) as u16);
    put_u16(buf, OFF_FREE_LO, (HEADER + 2 * (n - 1)) as u16);
}

/// An owned copy of every cell in the node (for splits/compaction).
pub enum Cells {
    /// Leaf cells: (key, value).
    Leaf(Vec<(Vec<u8>, Vec<u8>)>),
    /// Internal cells: (key, child).
    Internal(Vec<(Vec<u8>, u64)>),
}

/// Extract owned cells in slot order.
pub fn extract(buf: &[u8]) -> Cells {
    let n = nkeys(buf);
    match kind(buf) {
        Kind::Leaf => {
            Cells::Leaf((0..n).map(|i| (key(buf, i).to_vec(), value(buf, i).to_vec())).collect())
        }
        Kind::Internal => {
            Cells::Internal((0..n).map(|i| (key(buf, i).to_vec(), child(buf, i))).collect())
        }
    }
}

/// Rebuild a leaf from owned cells, preserving level/right-sibling.
pub fn rebuild_leaf(buf: &mut [u8], cells: &[(Vec<u8>, Vec<u8>)]) {
    let right = right_sibling(buf);
    init(buf, Kind::Leaf, 0);
    set_right_sibling(buf, right);
    for (i, (k, v)) in cells.iter().enumerate() {
        insert_leaf(buf, i, k, v);
    }
}

/// Largest page a tree may use (16 KiB, the largest size the paper runs);
/// sizes the stack staging copy of [`compact_leaf`]. `BTree::create` and
/// `MemStore::new` reject larger pages.
pub const MAX_PAGE: usize = 16 * 1024;

/// Compact a leaf in place: drop the heap space leaked by removed slots.
/// Writes exactly the bytes `rebuild_leaf(buf, &extract(buf))` writes
/// (header, slot array, cells packed from the end; the free gap keeps its
/// old bytes), but stages the page through a stack copy instead of owned
/// cells, so it never allocates.
pub fn compact_leaf(buf: &mut [u8]) {
    debug_assert_eq!(kind(buf), Kind::Leaf);
    assert!(buf.len() <= MAX_PAGE, "page of {} bytes exceeds node::MAX_PAGE", buf.len());
    let mut stage = [0u8; MAX_PAGE];
    let old = &mut stage[..buf.len()];
    old.copy_from_slice(buf);
    let right = right_sibling(old);
    init(buf, Kind::Leaf, 0);
    set_right_sibling(buf, right);
    for i in 0..nkeys(old) {
        insert_leaf(buf, i, key(old, i), value(old, i));
    }
}

/// Rebuild an internal node from owned cells, preserving level and the
/// leftmost child.
pub fn rebuild_internal(buf: &mut [u8], level_v: u8, leftmost: u64, cells: &[(Vec<u8>, u64)]) {
    init(buf, Kind::Internal, level_v);
    set_leftmost_child(buf, leftmost);
    for (i, (k, c)) in cells.iter().enumerate() {
        insert_internal(buf, i, k, *c);
    }
}

/// Largest cell payload a page can hold (used to reject oversized rows):
/// a node must fit at least 4 cells to stay a tree.
pub fn max_cell_payload(page_size: usize) -> usize {
    (page_size - HEADER - 2 * 4) / 4 - 4
}

#[cfg(test)]
mod tests {
    use super::*;

    fn page() -> Vec<u8> {
        vec![0u8; 4096]
    }

    #[test]
    fn init_leaf_is_empty() {
        let mut p = page();
        init(&mut p, Kind::Leaf, 0);
        assert_eq!(kind(&p), Kind::Leaf);
        assert_eq!(nkeys(&p), 0);
        assert_eq!(right_sibling(&p), NO_PAGE);
        assert!(free_space(&p) > 4000);
    }

    #[test]
    fn leaf_insert_and_search() {
        let mut p = page();
        init(&mut p, Kind::Leaf, 0);
        // Insert out of order at computed positions.
        for k in [b"mango".as_ref(), b"apple".as_ref(), b"zebra".as_ref()] {
            let pos = search(&p, k).unwrap_err();
            insert_leaf(&mut p, pos, k, b"v");
        }
        assert_eq!(nkeys(&p), 3);
        assert_eq!(key(&p, 0), b"apple");
        assert_eq!(key(&p, 1), b"mango");
        assert_eq!(key(&p, 2), b"zebra");
        assert_eq!(search(&p, b"mango"), Ok(1));
        assert_eq!(search(&p, b"banana"), Err(1));
        assert_eq!(value(&p, 1), b"v");
    }

    #[test]
    fn internal_routing() {
        let mut p = page();
        init(&mut p, Kind::Internal, 1);
        set_leftmost_child(&mut p, 100);
        insert_internal(&mut p, 0, b"g", 200);
        insert_internal(&mut p, 1, b"p", 300);
        assert_eq!(route(&p, b"a"), 100);
        assert_eq!(route(&p, b"g"), 200);
        assert_eq!(route(&p, b"k"), 200);
        assert_eq!(route(&p, b"p"), 300);
        assert_eq!(route(&p, b"z"), 300);
    }

    #[test]
    fn fits_accounts_for_slot() {
        let mut p = vec![0u8; 64 + HEADER];
        init(&mut p, Kind::Leaf, 0);
        // free = 64; cell = 4+k+v, slot = 2.
        assert!(fits(&p, 20, 38)); // 4+58+2 = 64
        assert!(!fits(&p, 20, 39));
    }

    #[test]
    fn remove_slot_shifts() {
        let mut p = page();
        init(&mut p, Kind::Leaf, 0);
        for (i, k) in [b"a", b"b", b"c"].iter().enumerate() {
            insert_leaf(&mut p, i, *k, b"1");
        }
        remove_slot(&mut p, 1);
        assert_eq!(nkeys(&p), 2);
        assert_eq!(key(&p, 0), b"a");
        assert_eq!(key(&p, 1), b"c");
    }

    #[test]
    fn extract_rebuild_round_trip() {
        let mut p = page();
        init(&mut p, Kind::Leaf, 0);
        set_right_sibling(&mut p, 77);
        for (i, k) in [b"a", b"b", b"c", b"d"].iter().enumerate() {
            insert_leaf(&mut p, i, *k, &[i as u8]);
        }
        remove_slot(&mut p, 2); // leak some heap space
        let cells = match extract(&p) {
            Cells::Leaf(c) => c,
            _ => unreachable!(),
        };
        rebuild_leaf(&mut p, &cells);
        assert_eq!(nkeys(&p), 3);
        assert_eq!(key(&p, 2), b"d");
        assert_eq!(value(&p, 2), &[3u8]);
        assert_eq!(right_sibling(&p), 77);
        // Heap space fully compacted.
        assert!(free_space(&p) > 4000);
    }

    #[test]
    fn internal_extract_rebuild() {
        let mut p = page();
        init(&mut p, Kind::Internal, 2);
        set_leftmost_child(&mut p, 9);
        insert_internal(&mut p, 0, b"m", 10);
        let cells = match extract(&p) {
            Cells::Internal(c) => c,
            _ => unreachable!(),
        };
        rebuild_internal(&mut p, 2, 9, &cells);
        assert_eq!(level(&p), 2);
        assert_eq!(leftmost_child(&p), 9);
        assert_eq!(child(&p, 0), 10);
    }

    #[test]
    fn max_cell_payload_reasonable() {
        assert!(max_cell_payload(4096) > 900);
        assert!(max_cell_payload(16384) > 4000);
    }

    mod proptests {
        use super::*;
        use simkit::dist::{rng, Rng};
        use std::collections::{BTreeMap, BTreeSet};

        fn random_bytes<R: Rng>(r: &mut R, min: usize, max: usize) -> Vec<u8> {
            let len = r.gen_range(min..max);
            (0..len).map(|_| r.gen::<u8>()).collect()
        }

        /// Inserting arbitrary sorted cells and reading them back is
        /// lossless, across page sizes.
        #[test]
        fn leaf_cells_round_trip() {
            let mut r = rng(0xB7EE);
            for case in 0..128 {
                let page_size = [4096usize, 8192, 16384][case % 3];
                let mut cells: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
                for _ in 0..r.gen_range(1..30usize) {
                    cells.insert(random_bytes(&mut r, 1, 24), random_bytes(&mut r, 0, 64));
                }
                let mut p = vec![0u8; page_size];
                init(&mut p, Kind::Leaf, 0);
                let mut entries: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
                for (k, v) in &cells {
                    if !fits(&p, k.len(), v.len()) {
                        continue;
                    }
                    insert_leaf(&mut p, entries.len(), k, v);
                    entries.push((k.clone(), v.clone()));
                }
                assert_eq!(nkeys(&p), entries.len());
                for (i, (k, v)) in entries.iter().enumerate() {
                    assert_eq!(key(&p, i), k.as_slice());
                    assert_eq!(value(&p, i), v.as_slice());
                    assert_eq!(search(&p, k), Ok(i));
                }
                // Extract/rebuild is the identity.
                let extracted = match extract(&p) {
                    Cells::Leaf(c) => c,
                    _ => unreachable!(),
                };
                assert_eq!(&extracted, &entries);
                rebuild_leaf(&mut p, &extracted);
                assert_eq!(nkeys(&p), entries.len());
            }
        }

        /// `compact_leaf` writes every byte `rebuild_leaf(extract)` writes,
        /// and no other: the whole page stays byte-identical, free-gap
        /// garbage included, across page sizes and leaked heap space.
        #[test]
        fn compact_leaf_matches_rebuild_from_extract() {
            let mut r = rng(0xC0AC7);
            for case in 0..192 {
                let page_size = [4096usize, 8192, 16384][case % 3];
                let mut p: Vec<u8> = (0..page_size).map(|_| r.gen::<u8>()).collect();
                init(&mut p, Kind::Leaf, 0);
                set_right_sibling(&mut p, r.gen::<u64>());
                let mut keys: BTreeSet<Vec<u8>> = BTreeSet::new();
                for _ in 0..r.gen_range(1..120usize) {
                    keys.insert(random_bytes(&mut r, 1, 24));
                }
                for k in &keys {
                    let v = random_bytes(&mut r, 0, 96);
                    if !fits(&p, k.len(), v.len()) {
                        break;
                    }
                    let n = nkeys(&p);
                    insert_leaf(&mut p, n, k, &v);
                }
                // Leak heap space: remove a random subset of slots.
                for _ in 0..r.gen_range(0..=nkeys(&p)) {
                    let i = r.gen_range(0..nkeys(&p));
                    remove_slot(&mut p, i);
                }
                let mut expected = p.clone();
                let cells = match extract(&expected) {
                    Cells::Leaf(c) => c,
                    _ => unreachable!(),
                };
                rebuild_leaf(&mut expected, &cells);
                compact_leaf(&mut p);
                assert!(p == expected, "case {case}: page {page_size} differs");
            }
        }

        /// Binary search agrees with a linear scan for arbitrary probes.
        #[test]
        fn search_matches_linear_scan() {
            let mut r = rng(0x5EA2C4);
            for _ in 0..256 {
                let mut keys: BTreeSet<Vec<u8>> = BTreeSet::new();
                for _ in 0..r.gen_range(1..40usize) {
                    keys.insert(random_bytes(&mut r, 1, 12));
                }
                let probe = random_bytes(&mut r, 1, 12);
                let mut p = vec![0u8; 8192];
                init(&mut p, Kind::Leaf, 0);
                let sorted: Vec<Vec<u8>> = keys.into_iter().collect();
                for (i, k) in sorted.iter().enumerate() {
                    insert_leaf(&mut p, i, k, b"v");
                }
                let expected = sorted.binary_search(&probe);
                assert_eq!(search(&p, &probe), expected);
            }
        }
    }
}
