//! CRC-32 (IEEE, reflected) for torn-write detection in log records,
//! page trailers and append-only store headers.
//!
//! Two kernels, one output. On x86-64 CPUs with PCLMULQDQ and SSE4.1,
//! inputs of at least 64 bytes (one fold step) are folded 64 bytes per step by
//! carry-less multiplication and reduced to 32 bits by Barrett reduction
//! (Intel, "Fast CRC Computation for Generic Polynomials Using PCLMULQDQ
//! Instruction", 2009). Everything else — short inputs, the sub-16-byte
//! tail after a fold, and every input on other CPUs and targets — goes
//! through slicing-by-16: sixteen 256-entry tables, built at compile time,
//! fold 16 input bytes per step instead of one. Both are bit-identical to
//! the classic bytewise table loop (kept as the test reference below), so
//! every checksum already on the simulated media stays valid.

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
    crc32_clmul(data).unwrap_or_else(|| crc32_sliced(data))
}

/// CRC-32 of `data` through the carry-less-multiply kernel, or `None` when
/// this CPU lacks the instructions it is compiled with.
#[cfg(target_arch = "x86_64")]
fn crc32_clmul(data: &[u8]) -> Option<u32> {
    if !clmul::available() {
        return None;
    }
    // SAFETY: `available` has just confirmed that this CPU supports every
    // feature `clmul::crc32` is compiled with (pclmulqdq, sse4.1).
    Some(unsafe { clmul::crc32(data) })
}

/// The carry-less-multiply kernel exists only on x86-64.
#[cfg(not(target_arch = "x86_64"))]
fn crc32_clmul(_: &[u8]) -> Option<u32> {
    None
}

/// CRC-32 of `data` through the slicing-by-16 tables alone.
fn crc32_sliced(data: &[u8]) -> u32 {
    update_sliced(0xFFFF_FFFF, data) ^ 0xFFFF_FFFF
}

/// Advance the CRC register `c` (pre-inverted, not yet finalised) over
/// `data`, 16 bytes per table step.
fn update_sliced(mut c: u32, data: &[u8]) -> u32 {
    let t = &TABLES;
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
    c
}

/// The carry-less-multiply kernel: fold by 4 over 64-byte steps, fold by 1
/// over the remaining 16-byte blocks, then reduce 128 → 64 → 32 bits. The
/// constants are the Intel paper's for the bit-reflected polynomial
/// `0x1DB710641` (`POLY` unreflected, with its x^32 term).
#[cfg(target_arch = "x86_64")]
mod clmul {
    use std::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi32_si128, _mm_extract_epi32,
        _mm_set_epi32, _mm_set_epi64x, _mm_srli_si128, _mm_xor_si128,
    };

    /// x^(4·128+32) and x^(4·128−32) mod P, reflected: fold 512 bits ahead.
    const K1: i64 = 0x1_5444_2BD4;
    const K2: i64 = 0x1_C6E4_1596;
    /// x^(128+32) and x^(128−32) mod P, reflected: fold 128 bits ahead.
    const K3: i64 = 0x1_7519_97D0;
    const K4: i64 = 0x0_CCAA_009E;
    /// x^64 mod P, reflected: fold the last 64 bits into 32.
    const K5: i64 = 0x1_63CD_6124;
    /// The polynomial P(x) and the Barrett constant μ = ⌊x^64 / P(x)⌋,
    /// both reflected.
    const P_X: i64 = 0x1_DB71_0641;
    const MU: i64 = 0x1_F701_1641;

    /// Whether this CPU can run [`crc32`].
    pub(super) fn available() -> bool {
        is_x86_feature_detected!("pclmulqdq") && is_x86_feature_detected!("sse4.1")
    }

    /// Load 16 little-endian bytes.
    #[inline]
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn load(b: &[u8]) -> __m128i {
        let lo = u64::from_le_bytes(b[..8].try_into().expect("16-byte block"));
        let hi = u64::from_le_bytes(b[8..16].try_into().expect("16-byte block"));
        _mm_set_epi64x(hi as i64, lo as i64)
    }

    /// Fold `a` forward by the distance encoded in `k` onto `b`.
    #[inline]
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn fold(a: __m128i, b: __m128i, k: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128(a, k, 0x00);
        let hi = _mm_clmulepi64_si128(a, k, 0x11);
        _mm_xor_si128(b, _mm_xor_si128(lo, hi))
    }

    /// CRC-32 of `data`, bit-identical to the table kernels. Inputs shorter
    /// than one 64-byte fold step go through the tables whole.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    pub(super) fn crc32(data: &[u8]) -> u32 {
        if data.len() < 64 {
            return super::crc32_sliced(data);
        }
        let mut x = [load(&data[0..]), load(&data[16..]), load(&data[32..]), load(&data[48..])];
        // The initial register value (all ones) enters with the first block.
        x[0] = _mm_xor_si128(x[0], _mm_cvtsi32_si128(-1));
        let mut rest = &data[64..];
        let k1k2 = _mm_set_epi64x(K2, K1);
        while rest.len() >= 64 {
            for (i, xi) in x.iter_mut().enumerate() {
                *xi = fold(*xi, load(&rest[16 * i..]), k1k2);
            }
            rest = &rest[64..];
        }
        let k3k4 = _mm_set_epi64x(K4, K3);
        let mut acc = fold(x[0], x[1], k3k4);
        acc = fold(acc, x[2], k3k4);
        acc = fold(acc, x[3], k3k4);
        while rest.len() >= 16 {
            acc = fold(acc, load(rest), k3k4);
            rest = &rest[16..];
        }
        // 128 → 64 bits, then 64 → 32 bits.
        let low32 = _mm_set_epi32(0, 0, 0, -1);
        let x = _mm_xor_si128(_mm_clmulepi64_si128(acc, k3k4, 0x10), _mm_srli_si128(acc, 8));
        let x = _mm_xor_si128(
            _mm_clmulepi64_si128(_mm_and_si128(x, low32), _mm_set_epi64x(0, K5), 0x00),
            _mm_srli_si128(x, 4),
        );
        // Barrett reduction, bit-reflected: the remainder is the upper half
        // of the low 64 bits.
        let pu = _mm_set_epi64x(MU, P_X);
        let t1 = _mm_clmulepi64_si128(_mm_and_si128(x, low32), pu, 0x10);
        let t2 = _mm_clmulepi64_si128(_mm_and_si128(t1, low32), pu, 0x00);
        let c = _mm_extract_epi32(_mm_xor_si128(x, t2), 1) as u32;
        super::update_sliced(c, rest) ^ 0xFFFF_FFFF
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::{rng, Rng};

    /// The classic bytewise table loop, with its own runtime-built table:
    /// the reference every kernel must reproduce exactly.
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

    type Kernel = fn(&[u8]) -> u32;

    /// Every kernel this build can run on this CPU, called directly so
    /// the portable path stays tested on machines that would dispatch past
    /// it.
    fn kernels() -> Vec<(&'static str, Kernel)> {
        let mut k: Vec<(&'static str, Kernel)> =
            vec![("dispatch", crc32), ("sliced", crc32_sliced)];
        if crc32_clmul(b"").is_some() {
            k.push(("clmul", |d| crc32_clmul(d).expect("checked above")));
        }
        k
    }

    #[test]
    fn known_vectors() {
        // Standard test vector.
        assert_eq!(crc32_bytewise(b"123456789"), 0xCBF43926);
        // The same check value over a buffer long enough to fold.
        let long = b"123456789".repeat(40);
        let long_ref = crc32_bytewise(&long);
        for (name, f) in kernels() {
            assert_eq!(f(b"123456789"), 0xCBF43926, "{name}");
            assert_eq!(f(b""), 0, "{name}");
            assert_eq!(f(&long), long_ref, "{name}");
        }
    }

    #[test]
    fn detects_single_bit_flip() {
        let mut data = vec![7u8; 256];
        let a = crc32(&data);
        data[20] ^= 0x10;
        assert_ne!(a, crc32(&data));
    }

    #[test]
    fn sliced_matches_bytewise_for_every_short_length() {
        // Every kernel, every length to 300: covers the kernel's 64-byte
        // minimum and every 16- and 64-byte fold boundary after it.
        let data = random_bytes(300, 0xC3C);
        for (name, f) in kernels() {
            for n in 0..=300 {
                assert_eq!(f(&data[..n]), crc32_bytewise(&data[..n]), "{name} len {n}");
            }
        }
    }

    #[test]
    fn sliced_matches_bytewise_on_unaligned_slices() {
        let data = random_bytes(16 * 1024 + 16, 0x511CE);
        for (name, f) in kernels() {
            let mut r = rng(0x1E46);
            for start in 0..16 {
                for _ in 0..16 {
                    let n = r.gen_range(0..=16 * 1024usize);
                    let s = &data[start..start + n];
                    assert_eq!(f(s), crc32_bytewise(s), "{name} start {start} len {n}");
                }
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
        for (name, f) in kernels() {
            assert_eq!(f(&page[..n - 16]), crc, "{name}");
        }
        assert_eq!(crc, 0x561E_FAD6, "page trailer CRC drifted: {crc:#010x}");
    }
}
