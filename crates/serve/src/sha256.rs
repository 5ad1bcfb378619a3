//! SHA-256 (FIPS 180-4), implemented on plain `std`.
//!
//! The build environment is offline with no hashing crate vendored, and the
//! registry's checksum pinning only needs one digest over one in-memory
//! buffer. Whole 64-byte blocks are compressed straight from the caller's
//! slice; only the padded tail (at most two blocks) is copied.
//!
//! Two block functions sit behind [`digest`]:
//!
//! - [`compress_portable`], the textbook rounds over a rolling 16-word
//!   schedule — the only path off x86-64 and the reference the hardware
//!   path is tested against;
//! - `compress_sha_ni`, built on the x86 SHA extensions, chosen when the
//!   CPU reports `sha`, `ssse3` and `sse4.1` at run time.
//!
//! Both consume the same blocks and update the same eight state words, so
//! the choice is invisible in the digest.

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// A block function: fold `blocks` (a whole number of 64-byte blocks) into
/// `state`.
type Compress = fn(&mut [u32; 8], &[u8]);

/// SHA-256 digest of `data`.
pub fn digest(data: &[u8]) -> [u8; 32] {
    digest_with(data, block_function())
}

/// The fastest block function this CPU supports.
fn block_function() -> Compress {
    #[cfg(target_arch = "x86_64")]
    if sha_ni::available() {
        return sha_ni::compress;
    }
    compress_portable
}

fn digest_with(data: &[u8], compress: Compress) -> [u8; 32] {
    let mut state = H0;
    let whole = data.len() - data.len() % 64;
    compress(&mut state, &data[..whole]);

    // Remainder + 0x80 + zero padding + 64-bit big-endian bit length: one
    // block when the remainder leaves room for the 9 trailer bytes, else two.
    let rest = &data[whole..];
    let mut tail = [0u8; 128];
    tail[..rest.len()].copy_from_slice(rest);
    tail[rest.len()] = 0x80;
    let tail_len = if rest.len() < 56 { 64 } else { 128 };
    let bit_len = (data.len() as u64).wrapping_mul(8);
    tail[tail_len - 8..tail_len].copy_from_slice(&bit_len.to_be_bytes());
    compress(&mut state, &tail[..tail_len]);

    let mut out = [0u8; 32];
    for (chunk, word) in out.chunks_exact_mut(4).zip(state) {
        chunk.copy_from_slice(&word.to_be_bytes());
    }
    out
}

/// The portable block function: 64 rounds per block over a rolling 16-word
/// message schedule (word `i` overwrites word `i - 16`).
fn compress_portable(state: &mut [u32; 8], blocks: &[u8]) {
    debug_assert_eq!(blocks.len() % 64, 0);
    for block in blocks.chunks_exact(64) {
        let mut w = [0u32; 16];
        for (slot, word) in w.iter_mut().zip(block.chunks_exact(4)) {
            *slot = u32::from_be_bytes(word.try_into().expect("4-byte chunk"));
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
        for i in 0..64 {
            if i >= 16 {
                let w15 = w[(i + 1) % 16];
                let w2 = w[(i + 14) % 16];
                let s0 = w15.rotate_right(7) ^ w15.rotate_right(18) ^ (w15 >> 3);
                let s1 = w2.rotate_right(17) ^ w2.rotate_right(19) ^ (w2 >> 10);
                w[i % 16] = w[i % 16]
                    .wrapping_add(s0)
                    .wrapping_add(w[(i + 9) % 16])
                    .wrapping_add(s1);
            }
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let t1 = h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i % 16]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }
        for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
            *s = s.wrapping_add(v);
        }
    }
}

/// The block function on the x86 SHA extensions: `sha256rnds2` runs two
/// rounds per instruction on the state held as the `ABEF`/`CDGH` register
/// pair, and `sha256msg1`/`sha256msg2` extend the schedule four words at a
/// time. The workspace's only `unsafe` lives here.
#[cfg(target_arch = "x86_64")]
mod sha_ni {
    use super::K;
    use std::arch::x86_64::*;

    /// Whether the CPU has every extension [`compress_blocks`] is compiled
    /// with. `std` caches the CPUID probe, so this is three atomic loads.
    pub(super) fn available() -> bool {
        is_x86_feature_detected!("sha")
            && is_x86_feature_detected!("ssse3")
            && is_x86_feature_detected!("sse4.1")
    }

    /// [`super::Compress`]-shaped entry. Callers get it only from
    /// [`super::block_function`], after [`available`] returned true (tests
    /// check `available()` themselves).
    pub(super) fn compress(state: &mut [u32; 8], blocks: &[u8]) {
        assert!(available(), "SHA extensions not present on this CPU");
        // SAFETY: `compress_blocks` needs the `sha`, `sse2`, `ssse3` and
        // `sse4.1` target features; the assert above proves the last three
        // at run time and `sse2` is part of the x86-64 baseline.
        unsafe { compress_blocks(state, blocks) }
    }

    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    fn compress_blocks(state: &mut [u32; 8], blocks: &[u8]) {
        debug_assert_eq!(blocks.len() % 64, 0);
        // Byte shuffle turning four big-endian message words into lanes.
        let be_words = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);

        // SAFETY: `state` is 32 readable bytes; `loadu` has no alignment
        // requirement.
        let (dcba, hgfe) = unsafe {
            let p = state.as_ptr().cast::<__m128i>();
            (_mm_loadu_si128(p), _mm_loadu_si128(p.add(1)))
        };
        let cdab = _mm_shuffle_epi32(dcba, 0xb1);
        let efgh = _mm_shuffle_epi32(hgfe, 0x1b);
        let mut abef = _mm_alignr_epi8(cdab, efgh, 8);
        let mut cdgh = _mm_blend_epi16(efgh, cdab, 0xf0);

        for block in blocks.chunks_exact(64) {
            let (abef_in, cdgh_in) = (abef, cdgh);
            let mut w = [_mm_setzero_si128(); 4];
            for (i, slot) in w.iter_mut().enumerate() {
                // SAFETY: `block` is exactly 64 bytes, so the 16 bytes at
                // offset `16 * i` (i < 4) are in bounds; `loadu` has no
                // alignment requirement.
                let raw = unsafe { _mm_loadu_si128(block.as_ptr().add(16 * i).cast()) };
                *slot = _mm_shuffle_epi8(raw, be_words);
            }
            for i in 0..16 {
                if i >= 4 {
                    // Four new schedule words from the previous sixteen.
                    let t = _mm_sha256msg1_epu32(w[i % 4], w[(i + 1) % 4]);
                    let t = _mm_add_epi32(t, _mm_alignr_epi8(w[(i + 3) % 4], w[(i + 2) % 4], 4));
                    w[i % 4] = _mm_sha256msg2_epu32(t, w[(i + 3) % 4]);
                }
                // SAFETY: `K` holds 64 words and `4 * i + 3 < 64`; `loadu`
                // has no alignment requirement.
                let k = unsafe { _mm_loadu_si128(K.as_ptr().add(4 * i).cast()) };
                let wk = _mm_add_epi32(w[i % 4], k);
                cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
                abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0e));
            }
            abef = _mm_add_epi32(abef, abef_in);
            cdgh = _mm_add_epi32(cdgh, cdgh_in);
        }

        let feba = _mm_shuffle_epi32(abef, 0x1b);
        let dchg = _mm_shuffle_epi32(cdgh, 0xb1);
        let dcba = _mm_blend_epi16(feba, dchg, 0xf0);
        let hgfe = _mm_alignr_epi8(dchg, feba, 8);
        // SAFETY: `state` is 32 writable bytes; `storeu` has no alignment
        // requirement.
        unsafe {
            let p = state.as_mut_ptr().cast::<__m128i>();
            _mm_storeu_si128(p, dcba);
            _mm_storeu_si128(p.add(1), hgfe);
        }
    }
}

/// Lowercase hex SHA-256 of `data` — the registry's content address.
pub fn hex_digest(data: &[u8]) -> String {
    hex(&digest(data))
}

fn hex(bytes: &[u8]) -> String {
    const DIGITS: &[u8; 16] = b"0123456789abcdef";
    let mut out = String::with_capacity(bytes.len() * 2);
    for &b in bytes {
        out.push(DIGITS[(b >> 4) as usize] as char);
        out.push(DIGITS[(b & 0xf) as usize] as char);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every block function this host can run, by name. The hardware one is
    /// left out — so its tests are skipped, not failed — where the CPU lacks
    /// the extensions.
    fn block_functions() -> Vec<(&'static str, Compress)> {
        let mut fns: Vec<(&'static str, Compress)> = vec![("portable", compress_portable)];
        #[cfg(target_arch = "x86_64")]
        if sha_ni::available() {
            fns.push(("sha-ni", sha_ni::compress));
        } else {
            eprintln!("skipping sha-ni: CPU lacks sha/ssse3/sse4.1");
        }
        fns
    }

    fn hex_with(data: &[u8], compress: Compress) -> String {
        hex(&digest_with(data, compress))
    }

    /// splitmix64 byte stream: seeded, so a failure names its input.
    fn random_bytes(len: usize, seed: u64) -> Vec<u8> {
        let mut state = seed;
        let mut out = Vec::with_capacity(len + 8);
        while out.len() < len {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            out.extend_from_slice(&(z ^ (z >> 31)).to_le_bytes());
        }
        out.truncate(len);
        out
    }

    #[test]
    fn nist_vectors() {
        for (name, f) in block_functions() {
            assert_eq!(
                hex_with(b"", f),
                "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
                "{name}"
            );
            assert_eq!(
                hex_with(b"abc", f),
                "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
                "{name}"
            );
            assert_eq!(
                hex_with(
                    b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
                    f
                ),
                "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
                "{name}"
            );
        }
        // The dispatching entry point agrees with both.
        assert_eq!(
            hex_digest(b"abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn million_a() {
        let data = vec![b'a'; 1_000_000];
        for (name, f) in block_functions() {
            assert_eq!(
                hex_with(&data, f),
                "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0",
                "{name}"
            );
        }
    }

    #[test]
    fn padding_edge_lengths() {
        // 55/56 straddle the one-vs-two tail block edge; 119/120 do the
        // same one whole block later. Known digests of all-zero inputs.
        let known = [
            (
                55,
                "02779466cdec163811d078815c633f21901413081449002f24aa3e80f0b88ef7",
            ),
            (
                56,
                "d4817aa5497628e7c77e6b606107042bbba3130888c5f47a375e6179be789fbb",
            ),
            (
                64,
                "f5a5fd42d16a20302798ef6ed309979b43003d2320d9f0e8ea9831a92759fb4b",
            ),
            (
                65,
                "98ce42deef51d40269d542f5314bef2c7468d401ad5d85168bfab4c0108f75f7",
            ),
            (
                119,
                "f616b0d54e78571a9611f343c9f8e022e859e920381ab0e4d3da01e193a7bd7e",
            ),
            (
                120,
                "6edd9f6f9cc92cded36e6c4a580933f9c9f1b90562b46903b806f21902a1a54f",
            ),
        ];
        for (name, f) in block_functions() {
            for (len, want) in known {
                assert_eq!(hex_with(&vec![0u8; len], f), want, "{name} length {len}");
            }
        }
    }

    #[test]
    fn hardware_matches_portable_at_every_short_length() {
        let data = random_bytes(260, 0x5eed);
        for (name, f) in block_functions() {
            for len in 0..=260 {
                assert_eq!(
                    digest_with(&data[..len], f),
                    digest_with(&data[..len], compress_portable),
                    "{name} length {len}"
                );
            }
        }
    }

    #[test]
    fn hardware_matches_portable_on_random_buffers() {
        // Lengths up to 4 MiB, most of them not block multiples.
        let lens = [1000, 65_537, 1 << 20, 2_500_000, (4 << 20) - 1, 4 << 20];
        for (i, len) in lens.into_iter().enumerate() {
            let data = random_bytes(len, 0xc0ffee + i as u64);
            let want = digest_with(&data, compress_portable);
            for (name, f) in block_functions() {
                assert_eq!(digest_with(&data, f), want, "{name} length {len} seed {i}");
            }
        }
    }
}
