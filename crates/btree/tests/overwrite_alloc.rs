//! A B+-tree overwrite that does not split allocates nothing: the leaf is
//! compacted in place through a stack copy, not through owned cells.
//!
//! The allocation counter is process-wide, so this file holds one test.

use btree::{BTree, MemStore};
use simkit::alloc::{count_allocs, CountingAlloc};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

#[test]
fn non_splitting_overwrite_makes_no_allocation() {
    for page_size in [4096usize, 8192, 16384] {
        let mut s = MemStore::new(page_size);
        let (mut t, _) = BTree::create(&mut s, 0);
        let keys: Vec<Vec<u8>> = (0..2000u32).map(|i| format!("key{i:06}").into_bytes()).collect();
        for k in &keys {
            t.put(&mut s, k, &[1u8; 40], 0);
        }
        let splits = t.stats().leaf_splits;
        // Same-size and shrinking overwrites always fit after compaction.
        for (i, k) in keys.iter().enumerate().step_by(7) {
            let v = [i as u8; 40];
            let ((inserted, _), allocs) = count_allocs(|| t.put(&mut s, k, &v[..40 - i % 8], 0));
            assert!(!inserted, "overwrite of an existing key");
            assert_eq!(allocs, 0, "page {page_size}: overwrite of key {i} allocated");
        }
        assert_eq!(t.stats().leaf_splits, splits, "no overwrite split a leaf");
    }
}
