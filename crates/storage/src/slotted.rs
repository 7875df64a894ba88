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

use std::fmt;
use std::ops::Range;

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

/// Why a page image does not decode: its slot directory, one record's
/// layout, or — found only when a payload is read — a payload's encoding.
///
/// A page whose checksum verifies can still be bad: a crafted file, or an
/// updater bug sealed after the damage. The decoder is a parser for such
/// input, so it reports what it found instead of panicking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// The slot directory does not fit on the page.
    SlotDirectory,
    /// A slot at or past the page's record count.
    SlotOutOfRange {
        /// The slot asked for.
        slot: u16,
        /// Records on the page.
        count: u16,
    },
    /// The record's offsets run backwards or past the page.
    RecordBounds {
        /// The record's slot.
        slot: u16,
    },
    /// The record is shorter than its header and fixed payload fields.
    ShortRecord {
        /// The record's slot.
        slot: u16,
    },
    /// The record's kind byte names no record kind.
    UnknownKind {
        /// The record's slot.
        slot: u16,
        /// The kind byte found.
        kind: u8,
    },
    /// A text record's length runs past the record.
    TextLength {
        /// The record's slot.
        slot: u16,
    },
    /// An element's attribute count disagrees with its entries.
    AttrCount {
        /// The record's slot.
        slot: u16,
    },
    /// A parent, child or sibling link at or past the record count.
    Link {
        /// The record's slot.
        slot: u16,
        /// The slot the link names.
        link: u16,
    },
    /// A text or attribute payload is not UTF-8.
    Utf8,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::SlotDirectory => write!(f, "corrupt slot directory"),
            DecodeError::SlotOutOfRange { slot, count } => {
                write!(f, "slot {slot} out of range ({count} records)")
            }
            DecodeError::RecordBounds { slot } => write!(f, "record {slot}: corrupt bounds"),
            DecodeError::ShortRecord { slot } => write!(f, "record {slot}: truncated"),
            DecodeError::UnknownKind { slot, kind } => {
                write!(f, "record {slot}: unknown kind {kind}")
            }
            DecodeError::TextLength { slot } => write!(f, "record {slot}: text past its end"),
            DecodeError::AttrCount { slot } => {
                write!(
                    f,
                    "record {slot}: attribute count disagrees with its entries"
                )
            }
            DecodeError::Link { slot, link } => {
                write!(f, "record {slot}: link to slot {link} past the records")
            }
            DecodeError::Utf8 => write!(f, "payload is not UTF-8"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Zero-copy reader over a serialized slotted page.
#[derive(Debug, Clone, Copy)]
pub struct SlottedPageReader<'a> {
    bytes: &'a [u8],
    count: usize,
}

impl<'a> SlottedPageReader<'a> {
    /// Wraps raw page bytes whose slot directory fits on the page.
    pub fn try_new(bytes: &'a [u8]) -> Result<Self, DecodeError> {
        let count = match bytes.first_chunk::<2>() {
            Some(c) => u16::from_le_bytes(*c) as usize,
            None => return Err(DecodeError::SlotDirectory),
        };
        if 2 + (count + 1) * 2 > bytes.len() {
            return Err(DecodeError::SlotDirectory);
        }
        Ok(Self { bytes, count })
    }

    /// Wraps raw page bytes.
    ///
    /// # Panics
    /// Panics on a malformed header; [`Self::try_new`] reports it instead.
    pub fn new(bytes: &'a [u8]) -> Self {
        match Self::try_new(bytes) {
            Ok(reader) => reader,
            // lint:allow(documented panicking constructor; decode uses try_new)
            Err(e) => panic!("{e}"),
        }
    }

    /// Number of records on the page.
    pub fn len(&self) -> usize {
        self.count
    }

    /// True if the page holds no records.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Directory entry `i`; `try_new` checked that entries `0..=count` fit.
    fn offset(&self, i: usize) -> usize {
        self.bytes
            .get(2 + i * 2..)
            .and_then(|b| b.first_chunk::<2>())
            .map_or(0, |b| u16::from_le_bytes(*b) as usize)
    }

    /// Returns the bytes of record `slot`.
    ///
    /// # Panics
    /// Panics if `slot` is out of range or offsets are corrupt;
    /// [`Self::record_range`] reports either instead.
    pub fn record(&self, slot: u16) -> &'a [u8] {
        match self.record_range(slot) {
            Ok(range) => self.bytes.get(range).unwrap_or_default(),
            // lint:allow(documented panicking accessor; decode uses record_range)
            Err(e) => panic!("{e}"),
        }
    }

    /// The byte range of record `slot` within the page.
    pub fn record_range(&self, slot: u16) -> Result<Range<usize>, DecodeError> {
        let i = slot as usize;
        if i >= self.count {
            return Err(DecodeError::SlotOutOfRange {
                slot,
                count: self.count as u16,
            });
        }
        let (start, end) = (self.offset(i), self.offset(i + 1));
        if start <= end && end <= self.bytes.len() {
            Ok(start..end)
        } else {
            Err(DecodeError::RecordBounds { slot })
        }
    }

    /// Iterates over all records in slot order.
    ///
    /// # Panics
    /// Panics on corrupt offsets, like [`Self::record`].
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
