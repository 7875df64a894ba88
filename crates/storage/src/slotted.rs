//! Slotted page layout: variable-length records addressed by slot number.
//!
//! The tree storage encodes each cluster of nodes into one slotted page.
//! Node identifiers are `(PageId, slot)` pairs — the classic record-id (RID)
//! scheme the paper names as the typical NodeID form (Example 2).
//!
//! Layout (little endian):
//!
//! ```text
//! [u16 record_count][u16 offset_0]..[u16 offset_n-1][u16 end_offset][records...]
//! ```
//!
//! `offset_i` is the byte offset of record `i` from the start of the page;
//! record `i` spans `offset_i .. offset_{i+1}`. This keeps the reader
//! allocation-free and O(1) per record.

/// Incrementally builds one slotted page.
#[derive(Debug)]
pub struct SlottedPageBuilder {
    page_size: usize,
    /// Record bytes, back to back in slot order.
    records: Vec<u8>,
    /// End of each record within `records`.
    ends: Vec<usize>,
}

impl SlottedPageBuilder {
    /// Creates a builder for a page of `page_size` bytes.
    pub fn new(page_size: usize) -> Self {
        assert!(page_size >= 8, "page size too small");
        Self {
            page_size,
            records: Vec::new(),
            ends: Vec::new(),
        }
    }

    /// Bytes the page would occupy if finished now.
    pub fn used_bytes(&self) -> usize {
        // count + (n+1) offsets + payload
        2 + (self.ends.len() + 1) * 2 + self.records.len()
    }

    /// Bytes still available for a further record (header growth included).
    pub fn remaining_bytes(&self) -> usize {
        self.page_size.saturating_sub(self.used_bytes() + 2)
    }

    /// Whether a record of `len` bytes still fits.
    pub fn fits(&self, len: usize) -> bool {
        len <= self.remaining_bytes()
    }

    /// Number of records added so far.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// True if no records have been added.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Appends a record, returning its slot number.
    ///
    /// # Panics
    /// Panics if the record does not fit; callers must check [`Self::fits`].
    pub fn push(&mut self, record: &[u8]) -> u16 {
        assert!(self.fits(record.len()), "record does not fit in page");
        assert!(self.ends.len() < u16::MAX as usize, "slot overflow");
        let slot = self.ends.len() as u16;
        self.records.extend_from_slice(record);
        self.ends.push(self.records.len());
        slot
    }

    /// Serializes the page to exactly `page_size` bytes.
    pub fn finish(self) -> Vec<u8> {
        let header = 2 + (self.ends.len() + 1) * 2;
        let mut out = Vec::with_capacity(self.page_size);
        out.extend_from_slice(&(self.ends.len() as u16).to_le_bytes());
        for start in std::iter::once(0).chain(self.ends) {
            out.extend_from_slice(&((header + start) as u16).to_le_bytes());
        }
        out.extend_from_slice(&self.records);
        debug_assert!(out.len() <= self.page_size);
        out.resize(self.page_size, 0);
        out
    }
}

/// Zero-copy reader over a serialized slotted page.
#[derive(Debug, Clone, Copy)]
pub struct SlottedPageReader<'a> {
    bytes: &'a [u8],
    count: usize,
}

impl<'a> SlottedPageReader<'a> {
    /// Wraps raw page bytes.
    ///
    /// # Panics
    /// Panics on a malformed header.
    pub fn new(bytes: &'a [u8]) -> Self {
        assert!(bytes.len() >= 4, "page too small");
        let count = u16::from_le_bytes([bytes[0], bytes[1]]) as usize;
        assert!(2 + (count + 1) * 2 <= bytes.len(), "corrupt slot directory");
        Self { bytes, count }
    }

    /// Number of records on the page.
    pub fn len(&self) -> usize {
        self.count
    }

    /// True if the page holds no records.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    fn offset(&self, i: usize) -> usize {
        let at = 2 + i * 2;
        u16::from_le_bytes([self.bytes[at], self.bytes[at + 1]]) as usize
    }

    /// Returns the bytes of record `slot`.
    ///
    /// # Panics
    /// Panics if `slot` is out of range or offsets are corrupt.
    pub fn record(&self, slot: u16) -> &'a [u8] {
        &self.bytes[self.record_range(slot)]
    }

    /// The byte range of record `slot` within the page.
    ///
    /// # Panics
    /// Panics if `slot` is out of range or offsets are corrupt.
    pub fn record_range(&self, slot: u16) -> std::ops::Range<usize> {
        let i = slot as usize;
        assert!(i < self.count, "slot {slot} out of range ({})", self.count);
        let start = self.offset(i);
        let end = self.offset(i + 1);
        assert!(
            start <= end && end <= self.bytes.len(),
            "corrupt record bounds"
        );
        start..end
    }

    /// Iterates over all records in slot order.
    pub fn iter(&self) -> impl Iterator<Item = &'a [u8]> + '_ {
        (0..self.count as u16).map(move |s| self.record(s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_records() {
        let mut b = SlottedPageBuilder::new(128);
        let s0 = b.push(b"hello");
        let s1 = b.push(b"");
        let s2 = b.push(b"world!!");
        assert_eq!((s0, s1, s2), (0, 1, 2));
        let bytes = b.finish();
        assert_eq!(bytes.len(), 128);
        let r = SlottedPageReader::new(&bytes);
        assert_eq!(r.len(), 3);
        assert_eq!(r.record(0), b"hello");
        assert_eq!(r.record(1), b"");
        assert_eq!(r.record(2), b"world!!");
    }

    #[test]
    fn empty_page() {
        let b = SlottedPageBuilder::new(64);
        let bytes = b.finish();
        let r = SlottedPageReader::new(&bytes);
        assert!(r.is_empty());
    }

    #[test]
    fn fits_is_exact() {
        let mut b = SlottedPageBuilder::new(64);
        while b.fits(5) {
            b.push(&[0xAB; 5]);
        }
        // One more record of 5 bytes must not fit, and finish must not panic.
        assert!(!b.fits(5));
        let n = b.len();
        let bytes = b.finish();
        let r = SlottedPageReader::new(&bytes);
        assert_eq!(r.len(), n);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn overflow_panics() {
        let mut b = SlottedPageBuilder::new(32);
        b.push(&[0; 64]);
    }

    #[test]
    fn iter_matches_records() {
        let mut b = SlottedPageBuilder::new(256);
        for i in 0..10u8 {
            b.push(&vec![i; i as usize]);
        }
        let bytes = b.finish();
        let r = SlottedPageReader::new(&bytes);
        let collected: Vec<Vec<u8>> = r.iter().map(|x| x.to_vec()).collect();
        assert_eq!(collected.len(), 10);
        for (i, rec) in collected.iter().enumerate() {
            assert_eq!(rec.len(), i);
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_slot_panics() {
        let b = SlottedPageBuilder::new(64);
        let bytes = b.finish();
        let r = SlottedPageReader::new(&bytes);
        r.record(0);
    }
}
