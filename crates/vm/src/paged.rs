//! A paged backend behind [`StateAccess`].
//!
//! [`PagedState`] stores word-keyed words in fixed 256-slot pages
//! instead of one flat `HashMap` entry per key: a lookup hashes the
//! *page* index (`key >> 8`), then indexes into a dense slot array. A
//! presence bitmap per page distinguishes a stored 0 from an absent key,
//! exactly like `ContractState`'s map does.
//!
//! This is the storage-table layout `diablo-store`'s persist stage uses
//! for the flat contract-storage mirror: clustered keys (the common DApp
//! pattern — counters, per-caller slots, dense arrays) share pages, so a
//! million entries cost thousands of page allocations rather than a
//! million hashed nodes. Behind the [`StateAccess`] trait it is
//! behaviourally identical to [`crate::ContractState`] — same EVM read-as-zero
//! semantics, same entry-count limit enforcement — which the
//! differential property test in `tests/paged_differential.rs` proves,
//! keeping the serial and static-parallel executors bit-identical no
//! matter which backend holds the committed state.

use std::collections::HashMap;

use crate::state::{StateAccess, StateLimits};
use crate::Word;

/// Keys per page (64-word presence bitmap × 4).
const PAGE_SLOTS: usize = 256;
/// Bits of the key consumed by the in-page offset.
const PAGE_BITS: u32 = 8;

/// One 256-slot page: dense values plus a presence bitmap.
#[derive(Clone)]
struct Page {
    values: Box<[Word; PAGE_SLOTS]>,
    /// Bit `i` set ⇔ slot `i` holds an explicit entry.
    present: [u64; PAGE_SLOTS / 64],
}

impl Page {
    fn new() -> Page {
        Page {
            values: Box::new([0; PAGE_SLOTS]),
            present: [0; PAGE_SLOTS / 64],
        }
    }

    fn is_present(&self, slot: usize) -> bool {
        self.present[slot / 64] & (1 << (slot % 64)) != 0
    }

    fn mark(&mut self, slot: usize) {
        self.present[slot / 64] |= 1 << (slot % 64);
    }
}

/// Word-keyed word storage over fixed-size pages.
///
/// Implements [`StateAccess`] with the exact semantics of
/// [`ContractState`](crate::ContractState): absent keys read 0, a stored
/// 0 still counts as an entry, and `store` rejects (only) *new* keys
/// once the entry-count limit is reached.
#[derive(Clone, Default)]
pub struct PagedState {
    /// Page index (`key >> 8`, arithmetic shift) → page.
    pages: HashMap<i64, Page>,
    entry_count: usize,
    blob_bytes: u64,
    blob_count: u64,
}

impl PagedState {
    /// Fresh, empty state.
    pub fn new() -> PagedState {
        PagedState::default()
    }

    fn locate(key: Word) -> (i64, usize) {
        (key >> PAGE_BITS, (key & (PAGE_SLOTS as i64 - 1)) as usize)
    }

    /// Reads `key`, returning 0 when absent (EVM semantics).
    pub fn load(&self, key: Word) -> Word {
        let (page, slot) = Self::locate(key);
        match self.pages.get(&page) {
            Some(p) => p.values[slot],
            None => 0,
        }
    }

    /// Whether `key` holds an explicit entry.
    pub fn contains_key(&self, key: Word) -> bool {
        let (page, slot) = Self::locate(key);
        self.pages.get(&page).is_some_and(|p| p.is_present(slot))
    }

    /// Writes `key := value`. Returns `false` (and leaves the state
    /// untouched) when the entry count limit would be exceeded.
    pub fn store(&mut self, key: Word, value: Word, limits: &StateLimits) -> bool {
        let (page, slot) = Self::locate(key);
        let count = self.entry_count;
        let p = self.pages.entry(page).or_insert_with(Page::new);
        if !p.is_present(slot) {
            if count >= limits.max_entries {
                return false;
            }
            p.mark(slot);
            self.entry_count += 1;
        }
        p.values[slot] = value;
        true
    }

    /// Number of explicit entries.
    pub fn entry_count(&self) -> usize {
        self.entry_count
    }

    /// Number of resident pages.
    pub fn page_count(&self) -> usize {
        self.pages.len()
    }

    /// Total opaque payload bytes absorbed.
    pub fn blob_bytes(&self) -> u64 {
        self.blob_bytes
    }

    /// Number of opaque payloads absorbed.
    pub fn blob_count(&self) -> u64 {
        self.blob_count
    }

    /// The `(key, value)` entries sorted by key.
    ///
    /// `(page, slot)` lexicographic order *is* key order (the in-page
    /// offset holds the key's low bits under an arithmetic page shift),
    /// so only the page indices need sorting.
    pub fn sorted_entries(&self) -> Vec<(Word, Word)> {
        let mut page_ids: Vec<i64> = self.pages.keys().copied().collect();
        page_ids.sort_unstable();
        let mut out = Vec::with_capacity(self.entry_count);
        for id in page_ids {
            let p = &self.pages[&id];
            for slot in 0..PAGE_SLOTS {
                if p.is_present(slot) {
                    out.push((id << PAGE_BITS | slot as i64, p.values[slot]));
                }
            }
        }
        out
    }
}

impl StateAccess for PagedState {
    fn load(&self, key: Word) -> Word {
        PagedState::load(self, key)
    }

    fn store(&mut self, key: Word, value: Word, limits: &StateLimits) -> bool {
        PagedState::store(self, key, value, limits)
    }

    fn store_blob(&mut self, len: u64, limits: &StateLimits) -> bool {
        if !limits.blob_fits(len) {
            return false;
        }
        self.blob_bytes = self.blob_bytes.saturating_add(len);
        self.blob_count += 1;
        true
    }

    fn unstore_blob(&mut self, len: u64) {
        self.blob_bytes = self.blob_bytes.saturating_sub(len);
        self.blob_count = self.blob_count.saturating_sub(1);
    }
}

impl std::fmt::Debug for PagedState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PagedState")
            .field("entries", &self.entry_count)
            .field("pages", &self.pages.len())
            .field("blob_bytes", &self.blob_bytes)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absent_keys_read_zero() {
        let s = PagedState::new();
        assert_eq!(s.load(42), 0);
        assert_eq!(s.load(-42), 0);
        assert!(!s.contains_key(0));
    }

    #[test]
    fn store_and_load_roundtrip_across_pages() {
        let mut s = PagedState::new();
        let lim = StateLimits::unbounded();
        for key in [0i64, 1, 255, 256, 1000, -1, -256, -257, i64::MAX >> 1] {
            assert!(s.store(key, key.wrapping_mul(3), &lim));
        }
        for key in [0i64, 1, 255, 256, 1000, -1, -256, -257, i64::MAX >> 1] {
            assert_eq!(s.load(key), key.wrapping_mul(3));
            assert!(s.contains_key(key));
        }
        assert_eq!(s.entry_count(), 9);
    }

    #[test]
    fn stored_zero_is_an_entry() {
        let mut s = PagedState::new();
        let lim = StateLimits::unbounded();
        assert!(s.store(7, 0, &lim));
        assert!(s.contains_key(7));
        assert_eq!(s.entry_count(), 1);
    }

    #[test]
    fn entry_limit_rejects_new_keys_but_allows_updates() {
        let mut s = PagedState::new();
        let lim = StateLimits {
            max_blob_bytes: 128,
            max_entries: 2,
        };
        assert!(s.store(1, 1, &lim));
        assert!(s.store(500, 2, &lim));
        assert!(!s.store(3, 3, &lim));
        assert_eq!(s.load(3), 0);
        assert!(s.store(500, 20, &lim));
        assert_eq!(s.load(500), 20);
    }

    #[test]
    fn sorted_entries_are_key_ordered_including_negatives() {
        let mut s = PagedState::new();
        let lim = StateLimits::unbounded();
        for key in [300i64, -1, 5, -300, 0, 256] {
            s.store(key, key, &lim);
        }
        let entries = s.sorted_entries();
        let keys: Vec<i64> = entries.iter().map(|&(k, _)| k).collect();
        assert_eq!(keys, vec![-300, -1, 0, 5, 256, 300]);
        assert!(entries.iter().all(|&(k, v)| k == v));
    }

    #[test]
    fn clustered_keys_share_pages() {
        let mut s = PagedState::new();
        let lim = StateLimits::unbounded();
        for key in 0..1024i64 {
            s.store(key, 1, &lim);
        }
        assert_eq!(s.entry_count(), 1024);
        assert_eq!(s.page_count(), 4);
    }
}
