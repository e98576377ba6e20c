//! CRC-32 (IEEE, reflected) for torn-write detection in log records,
//! page trailers and append-only store headers.
//!
//! Slicing-by-16: sixteen 256-entry tables, built at compile time, fold 16
//! input bytes per step instead of one. The output is bit-identical to the
//! classic bytewise table loop (kept as the test reference below), so every
//! checksum already on the simulated media stays valid.

/// The reflected IEEE polynomial.
const POLY: u32 = 0xEDB8_8320;

/// `TABLES[0]` is the classic bytewise table; `TABLES[k][b]` is the CRC
/// contribution of byte `b` followed by `k` zero bytes.
static TABLES: [[u32; 256]; 16] = build_tables();

const fn build_tables() -> [[u32; 256]; 16] {
    let mut t = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            bit += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

/// CRC-32 of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    let t = &TABLES;
    let mut c = 0xFFFF_FFFFu32;
    let mut chunks = data.chunks_exact(16);
    for ch in &mut chunks {
        let w = |i: usize| u32::from_le_bytes([ch[i], ch[i + 1], ch[i + 2], ch[i + 3]]);
        let (a, b, d, e) = (w(0) ^ c, w(4), w(8), w(12));
        let byte = |x: u32, s: u32| ((x >> s) & 0xFF) as usize;
        c = t[15][byte(a, 0)]
            ^ t[14][byte(a, 8)]
            ^ t[13][byte(a, 16)]
            ^ t[12][byte(a, 24)]
            ^ t[11][byte(b, 0)]
            ^ t[10][byte(b, 8)]
            ^ t[9][byte(b, 16)]
            ^ t[8][byte(b, 24)]
            ^ t[7][byte(d, 0)]
            ^ t[6][byte(d, 8)]
            ^ t[5][byte(d, 16)]
            ^ t[4][byte(d, 24)]
            ^ t[3][byte(e, 0)]
            ^ t[2][byte(e, 8)]
            ^ t[1][byte(e, 16)]
            ^ t[0][byte(e, 24)];
    }
    for &b in chunks.remainder() {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::{rng, Rng};

    /// The classic bytewise table loop, with its own runtime-built table:
    /// the reference the sliced loop must reproduce exactly.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let mut table = [0u32; 256];
        for (i, e) in table.iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            }
            *e = c;
        }
        let mut c = 0xFFFF_FFFFu32;
        for &b in data {
            c = table[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        c ^ 0xFFFF_FFFF
    }

    fn random_bytes(n: usize, seed: u64) -> Vec<u8> {
        let mut r = rng(seed);
        (0..n).map(|_| r.gen::<u8>()).collect()
    }

    #[test]
    fn known_vectors() {
        // Standard test vector.
        assert_eq!(crc32(b"123456789"), 0xCBF43926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32_bytewise(b"123456789"), 0xCBF43926);
    }

    #[test]
    fn detects_single_bit_flip() {
        let mut data = vec![7u8; 64];
        let a = crc32(&data);
        data[20] ^= 0x10;
        assert_ne!(a, crc32(&data));
    }

    #[test]
    fn sliced_matches_bytewise_for_every_short_length() {
        let data = random_bytes(64, 0xC3C);
        for n in 0..=64 {
            assert_eq!(crc32(&data[..n]), crc32_bytewise(&data[..n]), "len {n}");
        }
    }

    #[test]
    fn sliced_matches_bytewise_on_unaligned_slices() {
        let data = random_bytes(16 * 1024 + 16, 0x511CE);
        let mut r = rng(0x1E46);
        for start in 0..16 {
            for _ in 0..16 {
                let n = r.gen_range(0..=16 * 1024usize);
                let s = &data[start..start + n];
                assert_eq!(crc32(s), crc32_bytewise(s), "start {start} len {n}");
            }
        }
    }

    #[test]
    fn pinned_page_trailer_crc() {
        // A fixed 4 KiB relational page in the trailer layout relstore
        // stamps: body, then page number (u64), CRC over the body (u32) and
        // the page magic (u32). Pinning the CRC keeps the on-media checksum
        // format from drifting (the value agrees with zlib's crc32).
        let mut page: Vec<u8> =
            (0..4096u32).map(|i| (i.wrapping_mul(31) ^ (i >> 7)) as u8).collect();
        let n = page.len();
        page[n - 16..n - 8].copy_from_slice(&42u64.to_le_bytes());
        let crc = crc32(&page[..n - 16]);
        page[n - 8..n - 4].copy_from_slice(&crc.to_le_bytes());
        page[n - 4..].copy_from_slice(&0x4475_7261u32.to_le_bytes());
        assert_eq!(crc, crc32_bytewise(&page[..n - 16]));
        assert_eq!(crc, 0x561E_FAD6, "page trailer CRC drifted: {crc:#010x}");
    }
}
