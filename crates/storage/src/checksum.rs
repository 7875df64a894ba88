//! Page checksums: a 4-byte CRC32 trailer at the end of every sealed page.
//!
//! Layout: the last [`CHECKSUM_LEN`] bytes of a page hold the little-endian
//! CRC32 (IEEE polynomial, reflected) of everything before them. The value
//! `0` is reserved as the **unsealed** sentinel — pages that never went
//! through the import or update path (short raw WAL test images, zero
//! padding, pre-checksum databases) verify trivially, so the trailer is
//! backwards-compatible. A computed CRC of `0` is stored as `1`; the CRC
//! still detects every single-bit error, which is what torn/bit-flipped
//! page detection needs.
//!
//! The slotted-page budget (`crates/tree/src/import.rs`, `update.rs`)
//! reserves the trailer bytes, so on cluster pages they are always padding
//! and sealing never clobbers record data.
//!
//! Every device read is verified (buffer demand misses and prefetch
//! completions, the shared cache before it publishes, WAL recovery) and
//! every written page is sealed, so [`crc32`] runs once per page on both
//! paths. It has two kernels, picked per call:
//!
//! - **Carry-less multiply** (Gopal et al., Intel 2009), on x86-64 CPUs
//!   with `pclmulqdq` (checked at run time) for inputs of 64 bytes or
//!   more: four 128-bit lanes folded 64 bytes a step, reduced to 32 bits,
//!   and the last `len % 16` bytes through the byte table. The call into
//!   it, after the feature check, is the workspace's one `unsafe` block.
//! - **Slicing-by-16** (Kounavis & Berry, ISCC 2005) everywhere else:
//!   other targets and CPUs, and inputs under 64 bytes. Sixteen 256-entry
//!   tables built at compile time, one lookup per input byte and sixteen
//!   bytes per step.
//!
//! On a 2-core Xeon the kernel takes ~0.6 µs per 8 KiB page (perfbench
//! `cold --trace 1`, `checksum.verify_ns`), the table path ~4.4 µs (a loop
//! over 1,122 random pages). The polynomial, initial value and final xor are the textbook
//! ones, so the on-disk format is unchanged: both kernels write the
//! trailer the bitwise loop (kept as the tests' reference) writes.

/// Length of the checksum trailer, in bytes.
pub const CHECKSUM_LEN: usize = 4;

/// The IEEE CRC32 polynomial, bit-reflected.
const POLY: u32 = 0xEDB8_8320;

/// Slicing-by-16 tables: `CRC_TABLES[0][b]` is the CRC register after
/// shifting byte `b` through it, and `CRC_TABLES[k][b]` the same followed
/// by `k` zero bytes, so one step folds sixteen input bytes at once.
static CRC_TABLES: [[u32; 256]; 16] = crc_tables();

const fn crc_tables() -> [[u32; 256]; 16] {
    let mut tables = [[0u32; 256]; 16];
    let mut b = 0;
    while b < 256 {
        let mut crc = b as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (POLY & (crc & 1).wrapping_neg());
            bit += 1;
        }
        tables[0][b] = crc;
        b += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut b = 0;
        while b < 256 {
            let prev = tables[k - 1][b];
            tables[k][b] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            b += 1;
        }
        k += 1;
    }
    tables
}

/// Table lookup for byte `n` (0 = least significant) of `word`, in the
/// table for a byte followed by `zeros` more bytes.
#[inline(always)]
fn fold(word: u32, n: u32, zeros: usize) -> u32 {
    CRC_TABLES[zeros][((word >> (8 * n)) & 0xFF) as usize]
}

/// The register `crc` after the sixteen bytes of `chunk`.
#[inline(always)]
fn fold16(crc: u32, chunk: &[u8]) -> u32 {
    let word = |i: usize| u32::from_le_bytes([chunk[i], chunk[i + 1], chunk[i + 2], chunk[i + 3]]);
    let (w0, w1, w2, w3) = (crc ^ word(0), word(4), word(8), word(12));
    fold(w0, 0, 15)
        ^ fold(w0, 1, 14)
        ^ fold(w0, 2, 13)
        ^ fold(w0, 3, 12)
        ^ fold(w1, 0, 11)
        ^ fold(w1, 1, 10)
        ^ fold(w1, 2, 9)
        ^ fold(w1, 3, 8)
        ^ fold(w2, 0, 7)
        ^ fold(w2, 1, 6)
        ^ fold(w2, 2, 5)
        ^ fold(w2, 3, 4)
        ^ fold(w3, 0, 3)
        ^ fold(w3, 1, 2)
        ^ fold(w3, 2, 1)
        ^ fold(w3, 3, 0)
}

/// CRC32 (IEEE, reflected) over `bytes`. An input of 64 bytes or more
/// runs through the carry-less-multiply kernel where the CPU has one, all
/// but its last `len % 16` bytes, which the byte table finishes; every
/// other input takes the table path.
pub fn crc32(bytes: &[u8]) -> u32 {
    let (blocks, tail) = bytes.split_at(bytes.len() & !15);
    let crc = match crc32_clmul(!0, blocks) {
        Some(crc) => crc32_table(crc, tail),
        None => crc32_table(!0, bytes),
    };
    !crc
}

/// The table path: the register `crc` after `bytes`, sixteen bytes a step
/// and the rest byte by byte.
fn crc32_table(mut crc: u32, bytes: &[u8]) -> u32 {
    let mut chunks = bytes.chunks_exact(16);
    for chunk in &mut chunks {
        crc = fold16(crc, chunk);
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ fold(crc ^ b as u32, 0, 0);
    }
    crc
}

/// The register `crc` after `blocks` (a whole number of 16-byte lanes)
/// through the carry-less-multiply kernel, or `None` where that kernel
/// does not run: another target, a CPU without `pclmulqdq`, or fewer than
/// four lanes.
#[cfg_attr(not(target_arch = "x86_64"), allow(unused_variables))]
fn crc32_clmul(crc: u32, blocks: &[u8]) -> Option<u32> {
    #[cfg(target_arch = "x86_64")]
    if blocks.len() >= 64 && std::arch::is_x86_feature_detected!("pclmulqdq") {
        // SAFETY: `clmul::crc32` only needs the `pclmulqdq` target feature,
        // and the CPU has it: `is_x86_feature_detected!` said so just above.
        #[allow(unsafe_code)]
        let crc = unsafe { clmul::crc32(crc, blocks) };
        return Some(crc);
    }
    None
}

/// Folding CRC32 with carry-less multiplies (Gopal et al., "Fast CRC
/// Computation for Generic Polynomials Using PCLMULQDQ", Intel 2009).
/// Four 128-bit lanes run 64 bytes apart; each step multiplies a lane's
/// halves by `x^n mod P` for the distance it moves forward and xors in the
/// next input. The lanes then fold into one, that one down to 64 and 32
/// bits, and a Barrett reduction leaves the register. Constants are for
/// the bit-reflected IEEE polynomial.
#[cfg(target_arch = "x86_64")]
mod clmul {
    use std::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi128_si64, _mm_set_epi64x,
        _mm_srli_si128, _mm_xor_si128,
    };

    /// Multipliers that move a lane 512 bits forward (low, high half).
    const K1: i64 = 0x1_5444_2bd4;
    const K2: i64 = 0x1_c6e4_1596;
    /// Multipliers that move a lane 128 bits forward (low, high half).
    const K3: i64 = 0x1_7519_97d0;
    const K4: i64 = 0x0_ccaa_009e;
    /// Multiplier for the 64-to-32-bit fold.
    const K5: i64 = 0x1_63cd_6124;
    /// The polynomial P′ and μ = ⌊x⁶⁴ / P⌋ of the Barrett reduction.
    const P: i64 = 0x1_DB71_0641;
    const MU: i64 = 0x1_F701_1641;

    /// The 16 bytes of `bytes` at `at` as one lane, in memory order.
    #[target_feature(enable = "pclmulqdq")]
    fn lane(bytes: &[u8], at: usize) -> __m128i {
        let word = |i: usize| {
            let mut w = [0; 8];
            w.copy_from_slice(&bytes[i..i + 8]);
            i64::from_le_bytes(w)
        };
        _mm_set_epi64x(word(at + 8), word(at))
    }

    /// Lane `x` moved forward by the distance of `k`'s multipliers.
    #[target_feature(enable = "pclmulqdq")]
    fn fold(x: __m128i, k: __m128i) -> __m128i {
        _mm_xor_si128(
            _mm_clmulepi64_si128::<0x00>(x, k),
            _mm_clmulepi64_si128::<0x11>(x, k),
        )
    }

    /// The register `crc` after `blocks`: a whole number of 16-byte
    /// lanes, at least four.
    #[target_feature(enable = "pclmulqdq")]
    pub(super) fn crc32(crc: u32, blocks: &[u8]) -> u32 {
        let (head, rest) = blocks.split_at(64);
        let mut x = [0, 16, 32, 48].map(|at| lane(head, at));
        x[0] = _mm_xor_si128(x[0], _mm_set_epi64x(0, crc as i64));
        let mut chunks = rest.chunks_exact(64);
        let k12 = _mm_set_epi64x(K2, K1);
        for chunk in &mut chunks {
            for (i, x) in x.iter_mut().enumerate() {
                *x = _mm_xor_si128(fold(*x, k12), lane(chunk, 16 * i));
            }
        }
        let k34 = _mm_set_epi64x(K4, K3);
        let tail = chunks.remainder();
        let [mut x, x1, x2, x3] = x;
        for next in [x1, x2, x3] {
            x = _mm_xor_si128(fold(x, k34), next);
        }
        for at in (0..tail.len()).step_by(16) {
            x = _mm_xor_si128(fold(x, k34), lane(tail, at));
        }
        // 128 to 64 bits: the low half moves forward past the high half.
        let x = _mm_xor_si128(_mm_clmulepi64_si128::<0x10>(x, k34), _mm_srli_si128::<8>(x));
        // 64 to 32 bits, then the Barrett reduction.
        let low32 = |v| _mm_and_si128(v, _mm_set_epi64x(0, 0xFFFF_FFFF));
        let x = _mm_xor_si128(
            _mm_clmulepi64_si128::<0x00>(low32(x), _mm_set_epi64x(0, K5)),
            _mm_srli_si128::<4>(x),
        );
        let pmu = _mm_set_epi64x(MU, P);
        let t = _mm_clmulepi64_si128::<0x10>(low32(x), pmu);
        let t = _mm_clmulepi64_si128::<0x00>(low32(t), pmu);
        (_mm_cvtsi128_si64(_mm_xor_si128(t, x)) >> 32) as u32
    }
}

/// Table-free bitwise CRC32: the reference the tests hold [`crc32`] to.
#[cfg(test)]
fn crc32_bitwise(bytes: &[u8]) -> u32 {
    let mut crc: u32 = !0;
    for &b in bytes {
        crc ^= b as u32;
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (POLY & mask);
        }
    }
    !crc
}

/// Seals a full page image in place: writes the CRC32 of the body into the
/// trailer. The page must be at least [`CHECKSUM_LEN`] bytes and its
/// trailer bytes must be free (callers guarantee this via the import
/// budget). A computed CRC of `0` is stored as `1` to keep `0` meaning
/// "unsealed".
pub fn seal_page(page: &mut [u8]) {
    let Some(body_len) = page.len().checked_sub(CHECKSUM_LEN) else {
        return;
    };
    let mut crc = crc32(&page[..body_len]);
    if crc == 0 {
        crc = 1;
    }
    page[body_len..].copy_from_slice(&crc.to_le_bytes());
}

/// Verifies a page image against its trailer. Returns `true` for sealed
/// pages whose CRC matches and for unsealed pages (trailer `0` or pages
/// shorter than the trailer).
pub fn verify_page(page: &[u8]) -> bool {
    let Some(body_len) = page.len().checked_sub(CHECKSUM_LEN) else {
        return true;
    };
    let stored = u32::from_le_bytes([
        page[body_len],
        page[body_len + 1],
        page[body_len + 2],
        page[body_len + 3],
    ]);
    if stored == 0 {
        return true; // unsealed
    }
    let mut crc = crc32(&page[..body_len]);
    if crc == 0 {
        crc = 1;
    }
    crc == stored
}

/// True if the page carries a (non-zero) checksum trailer.
pub fn is_sealed(page: &[u8]) -> bool {
    page.len() >= CHECKSUM_LEN && page[page.len() - CHECKSUM_LEN..] != [0u8; CHECKSUM_LEN]
}

#[cfg(test)]
mod tests {
    // Test assertions panic by design; R3 covers the non-test hot path.
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;

    /// Deterministic test bytes (the low byte of each SplitMix64 output).
    fn seeded_bytes(seed: u64, len: usize) -> Vec<u8> {
        let mut state = seed;
        (0..len)
            .map(|_| crate::splitmix64(&mut state) as u8)
            .collect()
    }

    /// The deterministic 8 KiB page image whose sealed trailer is pinned.
    fn pinned_image() -> Vec<u8> {
        let mut page: Vec<u8> = (0..8192usize)
            .map(|i| (i.wrapping_mul(131) ^ (i >> 7)) as u8)
            .collect();
        page[8192 - CHECKSUM_LEN..].fill(0);
        page
    }

    #[test]
    fn crc32_known_vector() {
        // CRC-32/ISO-HDLC of "123456789" is 0xCBF43926.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn crc32_golden_vectors() {
        // Values agree with zlib's crc32.
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        assert_eq!(crc32(&[0u8; 32]), 0x190A_55AD);
        assert_eq!(crc32(&[0u8; 8188]), 0xAAC1_84F9);
    }

    #[test]
    fn crc32_matches_bitwise_oracle() {
        // Every length up to 300, then the kernel's 64-byte steps around
        // 512 B and 1 KiB and the 512 B, 4 KiB and 8 KiB page bodies, each
        // at every 16-byte alignment: through `crc32` (the kernel, where
        // the CPU has it, from 64 bytes) and through the table path, which
        // `crc32` then reaches only below 64 bytes.
        let blocks = [511, 512, 513, 767, 768, 769, 1023, 1024, 1025];
        for len in (0..=300).chain(blocks).chain([508, 4092, 8188]) {
            let buf = seeded_bytes(len as u64, len + 16);
            for off in 0..16 {
                let bytes = &buf[off..off + len];
                let oracle = crc32_bitwise(bytes);
                assert_eq!(crc32(bytes), oracle, "len {len} at offset {off}");
                assert_eq!(!crc32_table(!0, bytes), oracle, "table, len {len} at {off}");
            }
        }
    }

    #[test]
    fn crc32_takes_the_clmul_kernel_where_the_cpu_has_it() {
        let page = seeded_bytes(7, 8192);
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("pclmulqdq") {
            let blocks = &page[..8176];
            let crc = crc32_clmul(!0, blocks).expect("kernel runs on 64+ bytes");
            assert_eq!(crc, crc32_table(!0, blocks));
            assert!(crc32_clmul(!0, &page[..64]).is_some());
        }
        // Fewer than four lanes always take the table path.
        assert_eq!(crc32_clmul(!0, &page[..48]), None);
    }

    #[test]
    fn seal_page_trailer_is_pinned() {
        // Trailer bytes the bitwise CRC wrote for this image: pages sealed
        // before the table-driven CRC must still verify, and sealing must
        // reproduce them exactly.
        const TRAILER: [u8; CHECKSUM_LEN] = [3, 156, 186, 30];
        let mut old = pinned_image();
        old[8192 - CHECKSUM_LEN..].copy_from_slice(&TRAILER);
        assert!(verify_page(&old));
        let mut page = pinned_image();
        seal_page(&mut page);
        assert_eq!(page[8192 - CHECKSUM_LEN..], TRAILER);
        assert_eq!(page, old);
    }

    #[test]
    fn seal_then_verify_roundtrip() {
        let mut page = vec![0u8; 64];
        page[..4].copy_from_slice(&[9, 8, 7, 6]);
        seal_page(&mut page);
        assert!(is_sealed(&page));
        assert!(verify_page(&page));
    }

    #[test]
    fn any_bit_flip_in_body_is_detected() {
        let mut page = pinned_image();
        seal_page(&mut page);
        // Bytes 0..32 cover every lane of the 16-byte step twice; 8176..8188
        // is the 12-byte tail of an 8188-byte body, folded byte by byte.
        let middle = [100, 511, 1000, 2047, 4095, 4096, 6001, 8000];
        for byte in (0..32).chain(8176..8188).chain(middle) {
            for bit in 0..8 {
                let mut torn = page.clone();
                torn[byte] ^= 1 << bit;
                assert!(!verify_page(&torn), "flip at {byte}.{bit} undetected");
            }
        }
    }

    #[test]
    fn unsealed_pages_verify_trivially() {
        assert!(verify_page(&[0u8; 32]));
        assert!(verify_page(&[1, 2, 3])); // shorter than the trailer
        assert!(verify_page(&[]));
        let mut raw = vec![5u8; 16];
        raw[12..].fill(0); // zero trailer = unsealed
        assert!(verify_page(&raw));
        assert!(!is_sealed(&raw));
    }

    #[test]
    fn zero_crc_maps_to_one() {
        // Find a body whose CRC is zero is hard; instead check the mapping
        // directly: a sealed page never stores the unsealed sentinel.
        let mut page = vec![0u8; 8];
        seal_page(&mut page);
        assert!(is_sealed(&page));
        assert!(verify_page(&page));
    }
}
