//! A sorted record-page codec.
//!
//! Both motivating workloads of the paper — B-tree node splits (§1.1
//! "Database Recovery") and record files (§1.1 "File System Recovery") —
//! manipulate pages holding ordered *records*. This module provides the
//! shared on-page format: a count followed by length-prefixed `(key, value)`
//! entries kept sorted by key, padded with zeroes to the page size.
//!
//! Layout (little-endian):
//!
//! ```text
//! [u16 count] ([u16 key_len][u16 val_len][key][val])*  [zero padding]
//! ```
//!
//! There is one parser of this layout: [`RecView`], a borrowed view whose
//! iterator checks every entry (inside the page, keys strictly ascending)
//! as it yields it. Readers that only search a page — the B-tree descents —
//! use its `find` / `first_at_or_above` on the page bytes and allocate
//! nothing; those queries walk the whole page before answering, so a
//! damaged page is reported no matter where the damage lies.
//! [`RecPage::decode`] collects the same iterator into the owned form that
//! the mutating paths edit and re-encode.
//!
//! The codec round-trips exactly, so a record page re-encoded after a
//! no-op modification is byte-identical — important because page equality is
//! how the test oracle checks recovery correctness.

use crate::error::OpError;
use bytes::Bytes;
use lob_pagestore::PageId;

/// Header bytes (the `u16` record count).
const HEADER: usize = 2;
/// Per-entry overhead bytes (two `u16` length fields).
const ENTRY_OVERHEAD: usize = 4;

/// A borrowed view of an encoded record page: the entries are read where
/// they lie in the page bytes, so a lookup copies nothing.
///
/// The view is the one parser of the format. [`RecView::entries`] checks
/// each entry as it yields it — entry header and body inside the page, keys
/// strictly ascending — and every query built on it walks the page to the
/// end before answering, so a query on a damaged page reports the damage
/// ([`OpError::MalformedPage`], the same detail [`RecPage::decode`] gives)
/// even when the damage lies beyond the entry that answers it.
#[derive(Debug, Clone, Copy)]
pub struct RecView<'a> {
    page: PageId,
    /// Entries the header promises.
    count: usize,
    /// The page after the header: the entries, then padding.
    body: &'a [u8],
}

/// One record as it lies in the page: `(key, value)`.
pub type Entry<'a> = (&'a [u8], &'a [u8]);

fn malformed(page: PageId, detail: &str) -> OpError {
    OpError::MalformedPage {
        page,
        detail: detail.to_string(),
    }
}

impl<'a> RecView<'a> {
    /// View a page payload. `page` is used only for error reporting.
    pub fn new(page: PageId, data: &'a [u8]) -> Result<RecView<'a>, OpError> {
        let (count, body) = data
            .split_first_chunk::<HEADER>()
            .ok_or_else(|| malformed(page, "page smaller than header"))?;
        Ok(RecView {
            page,
            count: u16::from_le_bytes(*count) as usize,
            body,
        })
    }

    /// The records in key order, each checked as it is reached; the
    /// iterator ends after the first malformed entry.
    pub fn entries(&self) -> Entries<'a> {
        Entries {
            page: self.page,
            left: self.count,
            rest: self.body,
            prev: None,
        }
    }

    /// The first record whose key is at or above `key` (in an inner B-tree
    /// node, the separator covering `key`).
    pub fn first_at_or_above(&self, key: &[u8]) -> Result<Option<Entry<'a>>, OpError> {
        let mut hit = None;
        for entry in self.entries() {
            let entry = entry?;
            if hit.is_none() && entry.0 >= key {
                hit = Some(entry);
            }
        }
        Ok(hit)
    }

    /// Look up a record by key.
    pub fn find(&self, key: &[u8]) -> Result<Option<&'a [u8]>, OpError> {
        let hit = self.first_at_or_above(key)?;
        Ok(hit.filter(|(k, _)| *k == key).map(|(_, v)| v))
    }

    /// Bytes the encoded form occupies before padding.
    pub fn encoded_len(&self) -> Result<usize, OpError> {
        self.entries().try_fold(HEADER, |len, entry| {
            let (k, v) = entry?;
            Ok(len + ENTRY_OVERHEAD + k.len() + v.len())
        })
    }

    /// Whether inserting `(key, val)` would fit in `page_size`.
    pub fn fits_with(&self, key: &[u8], val: &[u8], page_size: usize) -> Result<bool, OpError> {
        // Replacing an existing key frees its old value first.
        let freed = self
            .find(key)?
            .map_or(0, |old| ENTRY_OVERHEAD + key.len() + old.len());
        let after = self.encoded_len()? - freed + ENTRY_OVERHEAD + key.len() + val.len();
        Ok(after <= page_size)
    }
}

/// The validating record iterator of a [`RecView`].
#[derive(Debug, Clone)]
pub struct Entries<'a> {
    page: PageId,
    /// Entries still to yield.
    left: usize,
    rest: &'a [u8],
    prev: Option<&'a [u8]>,
}

impl<'a> Entries<'a> {
    fn parse_next(&mut self) -> Result<Entry<'a>, OpError> {
        let (lens, body) = self
            .rest
            .split_first_chunk::<ENTRY_OVERHEAD>()
            .ok_or_else(|| malformed(self.page, "truncated entry header"))?;
        let [k0, k1, v0, v1] = *lens;
        let klen = u16::from_le_bytes([k0, k1]) as usize;
        let vlen = u16::from_le_bytes([v0, v1]) as usize;
        let (key, val, rest) = body
            .split_at_checked(klen)
            .and_then(|(key, body)| {
                let (val, rest) = body.split_at_checked(vlen)?;
                Some((key, val, rest))
            })
            .ok_or_else(|| malformed(self.page, "truncated entry body"))?;
        if self.prev.is_some_and(|prev| prev >= key) {
            return Err(malformed(self.page, "keys not strictly ascending"));
        }
        self.prev = Some(key);
        self.rest = rest;
        Ok((key, val))
    }
}

impl<'a> Iterator for Entries<'a> {
    type Item = Result<Entry<'a>, OpError>;

    fn next(&mut self) -> Option<Self::Item> {
        self.left = self.left.checked_sub(1)?;
        let entry = self.parse_next();
        if entry.is_err() {
            self.left = 0;
        }
        Some(entry)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (0, Some(self.left))
    }
}

/// A decoded record page: records sorted by key, unique keys.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RecPage {
    entries: Vec<(Vec<u8>, Vec<u8>)>,
}

impl RecPage {
    /// An empty record page.
    pub fn new() -> RecPage {
        RecPage::default()
    }

    /// Decode a page payload. `page` is used only for error reporting.
    pub fn decode(page: PageId, data: &[u8]) -> Result<RecPage, OpError> {
        let entries = RecView::new(page, data)?
            .entries()
            .map(|entry| entry.map(|(k, v)| (k.to_vec(), v.to_vec())))
            .collect::<Result<_, _>>()?;
        Ok(RecPage { entries })
    }

    /// Encode into a payload of exactly `page_size` bytes.
    pub fn encode(&self, page: PageId, page_size: usize) -> Result<Bytes, OpError> {
        let need = self.encoded_len();
        if need > page_size {
            return Err(OpError::PageFull { page });
        }
        let mut out = Vec::with_capacity(page_size);
        out.extend_from_slice(&(self.entries.len() as u16).to_le_bytes());
        for (k, v) in &self.entries {
            out.extend_from_slice(&(k.len() as u16).to_le_bytes());
            out.extend_from_slice(&(v.len() as u16).to_le_bytes());
            out.extend_from_slice(k);
            out.extend_from_slice(v);
        }
        out.resize(page_size, 0);
        Ok(Bytes::from(out))
    }

    /// Bytes the encoded form occupies before padding.
    pub fn encoded_len(&self) -> usize {
        HEADER
            + self
                .entries
                .iter()
                .map(|(k, v)| ENTRY_OVERHEAD + k.len() + v.len())
                .sum::<usize>()
    }

    /// Whether inserting `(key, val)` would fit in `page_size`.
    pub fn fits_with(&self, key: &[u8], val: &[u8], page_size: usize) -> bool {
        // Replacing an existing key frees its old value first.
        let existing = self.get(key).map(|v| ENTRY_OVERHEAD + key.len() + v.len());
        let after =
            self.encoded_len() - existing.unwrap_or(0) + ENTRY_OVERHEAD + key.len() + val.len();
        after <= page_size
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the page holds no records.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Look up a record by key.
    pub fn get(&self, key: &[u8]) -> Option<&[u8]> {
        self.entries
            .binary_search_by(|(k, _)| k.as_slice().cmp(key))
            .ok()
            .and_then(|i| self.entries.get(i))
            .map(|(_, v)| v.as_slice())
    }

    /// Insert or replace a record. Returns the previous value if replaced.
    pub fn insert(&mut self, key: Vec<u8>, val: Vec<u8>) -> Option<Vec<u8>> {
        match self
            .entries
            .binary_search_by(|(k, _)| k.as_slice().cmp(&key))
        {
            Ok(i) => self
                .entries
                .get_mut(i)
                .map(|e| std::mem::replace(&mut e.1, val)),
            Err(i) => {
                self.entries.insert(i, (key, val));
                None
            }
        }
    }

    /// Delete a record by key, returning its value if present.
    pub fn delete(&mut self, key: &[u8]) -> Option<Vec<u8>> {
        match self
            .entries
            .binary_search_by(|(k, _)| k.as_slice().cmp(key))
        {
            Ok(i) => Some(self.entries.remove(i).1),
            Err(_) => None,
        }
    }

    /// Records with keys strictly greater than `sep`, in key order.
    /// This is the set a `MovRec(old, key, new)` split moves (paper §1.3:
    /// "moves index entries with keys greater than the split key").
    pub fn records_above(&self, sep: &[u8]) -> Vec<(Vec<u8>, Vec<u8>)> {
        let start = match self
            .entries
            .binary_search_by(|(k, _)| k.as_slice().cmp(sep))
        {
            Ok(i) => i + 1,
            Err(i) => i,
        };
        self.entries.get(start..).unwrap_or_default().to_vec()
    }

    /// Remove all records with keys strictly greater than `sep` (the
    /// `RmvRec(old, key)` physiological operation).
    pub fn remove_above(&mut self, sep: &[u8]) {
        let start = match self
            .entries
            .binary_search_by(|(k, _)| k.as_slice().cmp(sep))
        {
            Ok(i) => i + 1,
            Err(i) => i,
        };
        self.entries.truncate(start);
    }

    /// The median key (used to pick split separators).
    pub fn median_key(&self) -> Option<&[u8]> {
        self.entries
            .get(self.entries.len() / 2)
            .map(|(k, _)| k.as_slice())
    }

    /// First (smallest) key.
    pub fn min_key(&self) -> Option<&[u8]> {
        self.entries.first().map(|(k, _)| k.as_slice())
    }

    /// Last (largest) key.
    pub fn max_key(&self) -> Option<&[u8]> {
        self.entries.last().map(|(k, _)| k.as_slice())
    }

    /// Iterate over records in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&[u8], &[u8])> {
        self.entries
            .iter()
            .map(|(k, v)| (k.as_slice(), v.as_slice()))
    }

    /// Bulk-load from sorted unique records (panics in debug if unsorted).
    pub fn from_sorted(entries: Vec<(Vec<u8>, Vec<u8>)>) -> RecPage {
        debug_assert!(entries.windows(2).all(|w| matches!(w, [a, b] if a.0 < b.0)));
        RecPage { entries }
    }

    /// Consume into the record vector.
    pub fn into_entries(self) -> Vec<(Vec<u8>, Vec<u8>)> {
        self.entries
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pid() -> PageId {
        PageId::new(0, 0)
    }

    fn kv(k: &str, v: &str) -> (Vec<u8>, Vec<u8>) {
        (k.as_bytes().to_vec(), v.as_bytes().to_vec())
    }

    #[test]
    fn empty_round_trip() {
        let p = RecPage::new();
        let enc = p.encode(pid(), 64).unwrap();
        assert_eq!(enc.len(), 64);
        let q = RecPage::decode(pid(), &enc).unwrap();
        assert!(q.is_empty());
    }

    #[test]
    fn insert_get_delete() {
        let mut p = RecPage::new();
        let (k, v) = kv("bee", "1");
        assert!(p.insert(k.clone(), v).is_none());
        assert_eq!(p.get(b"bee"), Some(b"1".as_slice()));
        assert_eq!(p.insert(k.clone(), b"2".to_vec()), Some(b"1".to_vec()));
        assert_eq!(p.get(b"bee"), Some(b"2".as_slice()));
        assert_eq!(p.delete(b"bee"), Some(b"2".to_vec()));
        assert_eq!(p.get(b"bee"), None);
        assert_eq!(p.delete(b"bee"), None);
    }

    #[test]
    fn keys_stay_sorted() {
        let mut p = RecPage::new();
        for k in ["m", "a", "z", "b"] {
            p.insert(k.as_bytes().to_vec(), vec![]);
        }
        let keys: Vec<&[u8]> = p.iter().map(|(k, _)| k).collect();
        assert_eq!(keys, vec![b"a".as_slice(), b"b", b"m", b"z"]);
        assert_eq!(p.min_key(), Some(b"a".as_slice()));
        assert_eq!(p.max_key(), Some(b"z".as_slice()));
    }

    #[test]
    fn round_trip_preserves_bytes_exactly() {
        let mut p = RecPage::new();
        p.insert(b"alpha".to_vec(), b"1".to_vec());
        p.insert(b"beta".to_vec(), vec![0, 255, 7]);
        let enc1 = p.encode(pid(), 128).unwrap();
        let q = RecPage::decode(pid(), &enc1).unwrap();
        let enc2 = q.encode(pid(), 128).unwrap();
        assert_eq!(enc1, enc2);
        assert_eq!(p, q);
    }

    #[test]
    fn encode_respects_capacity() {
        let mut p = RecPage::new();
        p.insert(vec![b'k'; 30], vec![b'v'; 30]);
        assert!(matches!(p.encode(pid(), 32), Err(OpError::PageFull { .. })));
        assert!(p.encode(pid(), 128).is_ok());
    }

    #[test]
    fn fits_with_accounts_for_replacement() {
        let mut p = RecPage::new();
        p.insert(b"k".to_vec(), vec![0u8; 20]);
        // encoded_len = 2 + 4+1+20 = 27. Page of 32: new record wouldn't fit...
        assert!(!p.fits_with(b"j", &[0u8; 10], 32));
        // ...but replacing k's 20-byte value with a 10-byte one does.
        assert!(p.fits_with(b"k", &[0u8; 10], 32));
    }

    #[test]
    fn split_primitives() {
        let mut p = RecPage::new();
        for (i, k) in ["a", "c", "e", "g"].iter().enumerate() {
            p.insert(k.as_bytes().to_vec(), vec![i as u8]);
        }
        let moved = p.records_above(b"c");
        assert_eq!(
            moved,
            vec![kv_raw("e", &[2]), kv_raw("g", &[3])],
            "records strictly above the separator move"
        );
        // Separator between existing keys.
        let moved2 = p.records_above(b"d");
        assert_eq!(moved2.len(), 2);
        p.remove_above(b"c");
        let keys: Vec<&[u8]> = p.iter().map(|(k, _)| k).collect();
        assert_eq!(keys, vec![b"a".as_slice(), b"c"]);
    }

    fn kv_raw(k: &str, v: &[u8]) -> (Vec<u8>, Vec<u8>) {
        (k.as_bytes().to_vec(), v.to_vec())
    }

    #[test]
    fn median_key_exists_for_nonempty() {
        let mut p = RecPage::new();
        assert!(p.median_key().is_none());
        for k in ["a", "b", "c", "d", "e"] {
            p.insert(k.as_bytes().to_vec(), vec![]);
        }
        assert_eq!(p.median_key(), Some(b"c".as_slice()));
    }

    #[test]
    fn decode_rejects_garbage() {
        // Count says 1 entry but no bytes follow.
        let mut data = vec![0u8; 16];
        data[0] = 1;
        // key_len = 200 overruns.
        data[2] = 200;
        assert!(RecPage::decode(pid(), &data).is_err());
        // Too-short page.
        assert!(RecPage::decode(pid(), &[0u8; 1]).is_err());
    }

    #[test]
    fn decode_rejects_unsorted() {
        let mut p = Vec::new();
        p.extend_from_slice(&2u16.to_le_bytes());
        for k in [b"b", b"a"] {
            p.extend_from_slice(&1u16.to_le_bytes());
            p.extend_from_slice(&0u16.to_le_bytes());
            p.extend_from_slice(k);
        }
        p.resize(64, 0);
        assert!(RecPage::decode(pid(), &p).is_err());
    }

    /// Hand-encode entries as given — unsorted or duplicated if the caller
    /// says so — and pad to `size`.
    fn raw_page(entries: &[(&[u8], &[u8])], size: usize) -> Vec<u8> {
        let mut p = Vec::new();
        p.extend_from_slice(&(entries.len() as u16).to_le_bytes());
        for (k, v) in entries {
            p.extend_from_slice(&(k.len() as u16).to_le_bytes());
            p.extend_from_slice(&(v.len() as u16).to_le_bytes());
            p.extend_from_slice(k);
            p.extend_from_slice(v);
        }
        p.resize(size.max(p.len()), 0);
        p
    }

    /// The inner-node search as it was written over a decoded page: the
    /// first record whose key is at or above the probe.
    fn scan_at_or_above<'p>(page: &'p RecPage, key: &[u8]) -> Option<(&'p [u8], &'p [u8])> {
        page.iter().find(|(k, _)| key <= *k)
    }

    #[test]
    fn view_agrees_with_decode_on_random_pages() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(0x5EC7);
        for case in 0..5000 {
            let mut page = RecPage::new();
            for _ in 0..rng.gen_range(0..24usize) {
                let key: Vec<u8> = (0..rng.gen_range(0..6usize))
                    .map(|_| rng.gen_range(b'a'..b'f'))
                    .collect();
                let val: Vec<u8> = (0..rng.gen_range(0..12usize)).map(|_| rng.gen()).collect();
                page.insert(key, val);
            }
            let data = page.encode(pid(), 512).unwrap();
            let view = RecView::new(pid(), &data).unwrap();
            let entries: Vec<Entry<'_>> = view.entries().collect::<Result<_, _>>().unwrap();
            assert_eq!(entries, page.iter().collect::<Vec<_>>(), "case {case}");
            assert_eq!(RecPage::decode(pid(), &data).unwrap(), page, "case {case}");
            assert_eq!(view.encoded_len().unwrap(), page.encoded_len());

            // Probes below the first key, between keys, equal to a key and
            // above the last one.
            let mut probes: Vec<Vec<u8>> = vec![vec![], vec![0xFF; 7]];
            for (k, _) in page.iter().take(6) {
                probes.push(k.to_vec());
                probes.push([k, b"\0".as_slice()].concat());
                probes.push(k.get(..k.len().saturating_sub(1)).unwrap().to_vec());
            }
            while probes.len() < 20 {
                let len = rng.gen_range(0..7usize);
                probes.push((0..len).map(|_| rng.gen_range(b'a'..b'g')).collect());
            }
            for probe in &probes {
                assert_eq!(view.find(probe).unwrap(), page.get(probe), "case {case}");
                assert_eq!(
                    view.first_at_or_above(probe).unwrap(),
                    scan_at_or_above(&page, probe),
                    "case {case}"
                );
                let val = [0u8; 9];
                for size in [page.encoded_len(), page.encoded_len() + 13, 512] {
                    assert_eq!(
                        view.fits_with(probe, &val, size).unwrap(),
                        page.fits_with(probe, &val, size),
                        "case {case}"
                    );
                }
            }
        }
    }

    #[test]
    fn view_and_decode_report_the_same_damage() {
        let detail = |r: Result<(), OpError>| match r {
            Err(OpError::MalformedPage { page, detail }) => {
                assert_eq!(page, pid());
                detail
            }
            other => panic!("expected a malformed page, got {other:?}"),
        };
        // (damaged page, the detail every reader must report)
        let mut truncated_header = raw_page(&[(b"a", b"1"), (b"c", b"2")], 0);
        truncated_header.truncate(truncated_header.len() - 4); // into c's lengths
        let mut truncated_body = raw_page(&[(b"a", b"1"), (b"c", b"22")], 0);
        truncated_body.truncate(truncated_body.len() - 1);
        let mut count_overruns = raw_page(&[(b"a", b"1")], 8);
        count_overruns[0] = 2; // a second entry is promised; one byte is left
        let cases: Vec<(Vec<u8>, &str)> = vec![
            (vec![], "page smaller than header"),
            (vec![7], "page smaller than header"),
            (truncated_header, "truncated entry header"),
            (count_overruns, "truncated entry header"),
            (truncated_body, "truncated entry body"),
            (
                raw_page(&[(b"a", b"1"), (b"c", b"2"), (b"c", b"3")], 64),
                "keys not strictly ascending",
            ),
            (
                raw_page(&[(b"a", b"1"), (b"c", b"2"), (b"b", b"3")], 64),
                "keys not strictly ascending",
            ),
        ];
        for (data, want) in &cases {
            assert_eq!(&detail(RecPage::decode(pid(), data).map(drop)), want);
            let view = |f: &dyn Fn(RecView<'_>) -> Result<(), OpError>| {
                detail(RecView::new(pid(), data).and_then(f))
            };
            assert_eq!(&view(&|v| v.entries().try_for_each(|e| e.map(drop))), want);
            // `a` is the first entry and intact in every case: the damage
            // sits after the entry that would have answered the probe.
            assert_eq!(&view(&|v| v.find(b"a").map(drop)), want);
            assert_eq!(&view(&|v| v.first_at_or_above(b"a").map(drop)), want);
            assert_eq!(&view(&|v| v.first_at_or_above(b"zz").map(drop)), want);
            assert_eq!(&view(&|v| v.encoded_len().map(drop)), want);
            assert_eq!(&view(&|v| v.fits_with(b"a", b"", 64).map(drop)), want);
        }
        // After the first malformed entry the iterator is finished.
        let data = raw_page(&[(b"b", b""), (b"a", b""), (b"c", b"")], 64);
        let seen: Vec<_> = RecView::new(pid(), &data).unwrap().entries().collect();
        assert_eq!(seen.len(), 2);
        assert!(seen[0].is_ok() && seen[1].is_err());
    }

    #[test]
    fn from_sorted_round_trips() {
        let p = RecPage::from_sorted(vec![kv("a", "1"), kv("b", "2")]);
        assert_eq!(p.len(), 2);
        assert_eq!(p.into_entries().len(), 2);
    }
}
