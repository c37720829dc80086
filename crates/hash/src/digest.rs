//! The 128-bit digest value and the hashing abstraction used by the
//! integrity tree.
//!
//! The paper fixes the hash length at 128 bits (Table 1): one 64-byte
//! cache line holds four digests, giving a 4-ary tree; a 128-byte line
//! holds eight, giving an 8-ary tree.

use std::collections::BTreeMap;
use std::fmt;

use crate::md5::{md5, md5_multi};
use crate::sha1::{sha1, sha1_multi};
use crate::sha256::{sha256, sha256_multi};

/// Size of a [`Digest`] in bytes (128 bits, per Table 1).
pub const DIGEST_BYTES: usize = 16;

/// A 128-bit digest, the unit stored in hash-tree chunks.
///
/// # Examples
///
/// ```
/// use miv_hash::Digest;
///
/// let zero = Digest::ZERO;
/// let one = Digest::from_bytes([1u8; 16]);
/// assert_ne!(zero, one);
/// assert_eq!(zero ^ one, one);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
pub struct Digest([u8; DIGEST_BYTES]);

impl Digest {
    /// The all-zero digest (XOR identity).
    pub const ZERO: Digest = Digest([0u8; DIGEST_BYTES]);

    /// Wraps raw bytes as a digest.
    pub fn from_bytes(bytes: [u8; DIGEST_BYTES]) -> Self {
        Digest(bytes)
    }

    /// Returns the digest's bytes.
    pub fn as_bytes(&self) -> &[u8; DIGEST_BYTES] {
        &self.0
    }

    /// Consumes the digest, returning its bytes.
    pub fn into_bytes(self) -> [u8; DIGEST_BYTES] {
        self.0
    }

    /// Parses a digest from a 32-character hex string.
    ///
    /// # Errors
    ///
    /// Returns [`ParseDigestError`] if `s` is not exactly 32 hex digits.
    pub fn from_hex(s: &str) -> Result<Self, ParseDigestError> {
        let bytes = s.as_bytes();
        if bytes.len() != DIGEST_BYTES * 2 {
            return Err(ParseDigestError { len: bytes.len() });
        }
        let mut out = [0u8; DIGEST_BYTES];
        for (i, pair) in bytes.chunks_exact(2).enumerate() {
            let hi = hex_val(pair[0]).ok_or(ParseDigestError { len: bytes.len() })?;
            let lo = hex_val(pair[1]).ok_or(ParseDigestError { len: bytes.len() })?;
            out[i] = (hi << 4) | lo;
        }
        Ok(Digest(out))
    }

    /// Renders the digest as lowercase hex.
    pub fn to_hex(&self) -> String {
        self.0.iter().map(|b| format!("{b:02x}")).collect()
    }
}

fn hex_val(c: u8) -> Option<u8> {
    match c {
        b'0'..=b'9' => Some(c - b'0'),
        b'a'..=b'f' => Some(c - b'a' + 10),
        b'A'..=b'F' => Some(c - b'A' + 10),
        _ => None,
    }
}

impl fmt::Debug for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Digest({})", self.to_hex())
    }
}

impl fmt::Display for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_hex())
    }
}

impl std::ops::BitXor for Digest {
    type Output = Digest;

    fn bitxor(self, rhs: Digest) -> Digest {
        let mut out = [0u8; DIGEST_BYTES];
        for (o, (a, b)) in out.iter_mut().zip(self.0.iter().zip(rhs.0.iter())) {
            *o = a ^ b;
        }
        Digest(out)
    }
}

impl std::ops::BitXorAssign for Digest {
    fn bitxor_assign(&mut self, rhs: Digest) {
        *self = *self ^ rhs;
    }
}

impl From<[u8; DIGEST_BYTES]> for Digest {
    fn from(bytes: [u8; DIGEST_BYTES]) -> Self {
        Digest(bytes)
    }
}

impl AsRef<[u8]> for Digest {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

/// Error returned by [`Digest::from_hex`] for malformed input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParseDigestError {
    len: usize,
}

impl fmt::Display for ParseDigestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid digest hex string of length {}", self.len)
    }
}

impl std::error::Error for ParseDigestError {}

/// A hash function producing 128-bit chunk digests.
///
/// The integrity-tree core is generic over this trait so the tree can run
/// on MD5 (the paper's primary unit), truncated SHA-1, or any other
/// collision-resistant function.
///
/// Implementors must be deterministic: equal input slices produce equal
/// digests.
pub trait ChunkHasher: fmt::Debug {
    /// Hashes `data` into a 128-bit digest.
    fn digest(&self, data: &[u8]) -> Digest;

    /// Hashes a batch of independent messages, one digest per message,
    /// in input order.
    ///
    /// The default implementation hashes serially; the MD5, SHA-1 and
    /// SHA-256 hashers override it to bucket messages by length and run
    /// groups of [`batch_lanes`](Self::batch_lanes) equal-length
    /// messages through an interleaved multi-lane compression, so every
    /// pairable message is paired regardless of batch order; only the
    /// leftover of each length bucket falls back to the scalar path.
    /// Results are identical to calling [`digest`](Self::digest) per
    /// message either way.
    fn digest_batch(&self, msgs: &[&[u8]]) -> Vec<Digest> {
        msgs.iter().map(|m| self.digest(m)).collect()
    }

    /// Lane width of this algorithm's interleaved multi-lane
    /// compression: how many equal-length messages
    /// [`digest_batch`](Self::digest_batch) hashes together. `1` for
    /// the serial default implementation.
    ///
    /// The width is per-algorithm because register pressure differs:
    /// each SHA-256 lane keeps 8 state words live where MD5 keeps 4, so
    /// their profitable interleave widths are measured independently
    /// (the `digest_batch/*lane` cases in `verify_hot_path` track
    /// this).
    fn batch_lanes(&self) -> usize {
        1
    }

    /// Short human-readable algorithm name (e.g. `"md5"`).
    fn name(&self) -> &'static str;
}

/// Default lane width for batched hashing knobs (e.g. the engine's
/// flush batching): [`Md5Hasher`]'s measured sweet spot.
///
/// Two lanes is the measured sweet spot for MD5 on current x86-64: each
/// lane needs its 4 state words plus round inputs live, so wider
/// interleaving spills to the stack and gives back the ILP it bought.
/// The width is **per-algorithm** — see
/// [`ChunkHasher::batch_lanes`]: SHA-1 (5 words) also peaks at two
/// lanes, while SHA-256's 8-word state leaves it at two only because
/// its longer dependency chain still hides a second lane (the
/// `digest_batch/*lane` cases in the `verify_hot_path` bench track
/// both). `md5_multi`/`sha1_multi`/`sha256_multi` still accept any
/// width.
pub const BATCH_LANES: usize = 2;

/// Measured interleave width for SHA-256's `digest_batch` (see
/// [`BATCH_LANES`] for the per-algorithm rationale).
const SHA256_LANES: usize = 2;

/// Drives `digest_batch` grouping: messages are bucketed by length
/// (iterated in ascending length order for determinism), each bucket is
/// hashed `LANES` at a time through `multi`, and the per-bucket
/// remainder goes through `scalar`. Index tracking preserves input
/// order in the output, so pairable messages are paired no matter how
/// lengths are interleaved in the batch.
fn batch_by_lanes<const LANES: usize>(
    msgs: &[&[u8]],
    multi: impl Fn(&[&[u8]; LANES]) -> [Digest; LANES],
    scalar: impl Fn(&[u8]) -> Digest,
) -> Vec<Digest> {
    let mut buckets: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for (i, m) in msgs.iter().enumerate() {
        buckets.entry(m.len()).or_default().push(i);
    }
    let mut out = vec![Digest::ZERO; msgs.len()];
    for indices in buckets.values() {
        let mut groups = indices.chunks_exact(LANES);
        for group in groups.by_ref() {
            let lanes: [&[u8]; LANES] = std::array::from_fn(|l| msgs[group[l]]);
            let digests = multi(&lanes);
            for (lane, &i) in group.iter().enumerate() {
                out[i] = digests[lane];
            }
        }
        for &i in groups.remainder() {
            out[i] = scalar(msgs[i]);
        }
    }
    out
}

/// MD5-based [`ChunkHasher`] (the paper's primary hash unit).
///
/// # Examples
///
/// ```
/// use miv_hash::{ChunkHasher, Md5Hasher};
///
/// let h = Md5Hasher;
/// assert_eq!(h.digest(b"abc").to_hex(), "900150983cd24fb0d6963f7d28e17f72");
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Md5Hasher;

impl ChunkHasher for Md5Hasher {
    fn digest(&self, data: &[u8]) -> Digest {
        md5(data)
    }

    fn digest_batch(&self, msgs: &[&[u8]]) -> Vec<Digest> {
        batch_by_lanes::<BATCH_LANES>(msgs, md5_multi, md5)
    }

    fn batch_lanes(&self) -> usize {
        BATCH_LANES
    }

    fn name(&self) -> &'static str {
        "md5"
    }
}

/// SHA-1-based [`ChunkHasher`], truncated to 128 bits.
///
/// The paper considers SHA-1 as the alternative hash unit; the tree stores
/// 128-bit values, so the 160-bit output is truncated.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Sha1Hasher;

impl ChunkHasher for Sha1Hasher {
    fn digest(&self, data: &[u8]) -> Digest {
        truncate(sha1(data))
    }

    fn digest_batch(&self, msgs: &[&[u8]]) -> Vec<Digest> {
        batch_by_lanes::<BATCH_LANES>(
            msgs,
            |group| {
                let full = sha1_multi(group);
                std::array::from_fn(|l| truncate(full[l]))
            },
            |m| truncate(sha1(m)),
        )
    }

    fn batch_lanes(&self) -> usize {
        BATCH_LANES
    }

    fn name(&self) -> &'static str {
        "sha1-128"
    }
}

/// SHA-256-based [`ChunkHasher`], truncated to 128 bits.
///
/// The modern default hash in contemporary integrity systems; like
/// SHA-1 the 256-bit output is truncated to the tree's 128-bit slots
/// (Table 1 fixes the stored hash length).
///
/// # Examples
///
/// ```
/// use miv_hash::{ChunkHasher, Sha256Hasher};
///
/// let h = Sha256Hasher;
/// assert_eq!(h.digest(b"abc").to_hex(), "ba7816bf8f01cfea414140de5dae2223");
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Sha256Hasher;

impl ChunkHasher for Sha256Hasher {
    fn digest(&self, data: &[u8]) -> Digest {
        truncate(sha256(data))
    }

    fn digest_batch(&self, msgs: &[&[u8]]) -> Vec<Digest> {
        batch_by_lanes::<SHA256_LANES>(
            msgs,
            |group| {
                let full = sha256_multi(group);
                std::array::from_fn(|l| truncate(full[l]))
            },
            |m| truncate(sha256(m)),
        )
    }

    fn batch_lanes(&self) -> usize {
        SHA256_LANES
    }

    fn name(&self) -> &'static str {
        "sha256-128"
    }
}

/// Truncates a wider digest (SHA-1's 160 bits, SHA-256's 256) to the
/// tree's 128-bit width.
fn truncate<const N: usize>(full: [u8; N]) -> Digest {
    let mut out = [0u8; DIGEST_BYTES];
    out.copy_from_slice(&full[..DIGEST_BYTES]);
    Digest(out)
}

crate::enum_with_all! {
    /// A selectable hash-unit algorithm: the value behind every `--hash`
    /// CLI flag (campaigns, serving, the store bench) and the figures
    /// hash-unit sweep.
    ///
    /// # Examples
    ///
    /// ```
    /// use miv_hash::HashAlgo;
    ///
    /// let algo = HashAlgo::parse("sha256").unwrap();
    /// assert_eq!(algo.hasher().name(), "sha256-128");
    /// ```
    #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
    pub enum HashAlgo {
        /// MD5 — the paper's primary hash unit and the simulator default.
        #[default]
        Md5,
        /// SHA-1, truncated to 128 bits (the paper's alternative unit).
        Sha1,
        /// SHA-256, truncated to 128 bits (the modern default).
        Sha256,
    }

    /// Every algorithm, in sweep order.
    const ALL;
}

impl HashAlgo {
    /// Parses a `--hash` flag value (`md5`, `sha1`, `sha256`).
    pub fn parse(s: &str) -> Option<HashAlgo> {
        match s {
            "md5" => Some(HashAlgo::Md5),
            "sha1" => Some(HashAlgo::Sha1),
            "sha256" => Some(HashAlgo::Sha256),
            _ => None,
        }
    }

    /// The flag spelling accepted by [`parse`](Self::parse), also used
    /// as the report label.
    pub fn label(self) -> &'static str {
        match self {
            HashAlgo::Md5 => "md5",
            HashAlgo::Sha1 => "sha1",
            HashAlgo::Sha256 => "sha256",
        }
    }

    /// Constructs the algorithm's [`ChunkHasher`].
    pub fn hasher(self) -> Box<dyn ChunkHasher + Send + Sync> {
        match self {
            HashAlgo::Md5 => Box::new(Md5Hasher),
            HashAlgo::Sha1 => Box::new(Sha1Hasher),
            HashAlgo::Sha256 => Box::new(Sha256Hasher),
        }
    }

    /// Modeled hash-unit throughput for the timing-side sweeps, in
    /// GB/s, following the paper's §6.2 relative costs: SHA-1 runs at
    /// roughly half MD5's rate and SHA-256 at roughly half SHA-1's (64
    /// heavier rounds over the same 512-bit block).
    pub fn modeled_throughput_gbps(self) -> f64 {
        match self {
            HashAlgo::Md5 => 3.2,
            HashAlgo::Sha1 => 1.6,
            HashAlgo::Sha256 => 0.8,
        }
    }
}

impl fmt::Display for HashAlgo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hex_roundtrip() {
        let d = Digest::from_bytes([
            0x00, 0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77, 0x88, 0x99, 0xaa, 0xbb, 0xcc, 0xdd,
            0xee, 0xff,
        ]);
        assert_eq!(Digest::from_hex(&d.to_hex()), Ok(d));
    }

    #[test]
    fn from_hex_rejects_bad_input() {
        assert!(Digest::from_hex("").is_err());
        assert!(Digest::from_hex("00112233445566778899aabbccddeef").is_err()); // 31 chars
        assert!(Digest::from_hex("zz112233445566778899aabbccddeeff").is_err());
        // Error type is displayable and implements Error.
        let err = Digest::from_hex("xyz").unwrap_err();
        assert!(err.to_string().contains("3"));
    }

    #[test]
    fn xor_identity_and_involution() {
        let a = Digest::from_bytes([0x5au8; 16]);
        let b = Digest::from_bytes([0xa5u8; 16]);
        assert_eq!(a ^ Digest::ZERO, a);
        assert_eq!((a ^ b) ^ b, a);
        let mut c = a;
        c ^= b;
        assert_eq!(c, a ^ b);
    }

    #[test]
    fn sha1_hasher_truncates() {
        let h = Sha1Hasher;
        let d = h.digest(b"abc");
        assert_eq!(d.to_hex(), "a9993e364706816aba3e25717850c26c");
    }

    #[test]
    fn sha256_hasher_truncates() {
        let h = Sha256Hasher;
        let d = h.digest(b"abc");
        assert_eq!(d.to_hex(), "ba7816bf8f01cfea414140de5dae2223");
    }

    #[test]
    fn hashers_differ() {
        assert_ne!(Md5Hasher.digest(b"x"), Sha1Hasher.digest(b"x"));
        assert_ne!(Sha1Hasher.digest(b"x"), Sha256Hasher.digest(b"x"));
        assert_ne!(Md5Hasher.digest(b"x"), Sha256Hasher.digest(b"x"));
        assert_eq!(Md5Hasher.name(), "md5");
        assert_eq!(Sha1Hasher.name(), "sha1-128");
        assert_eq!(Sha256Hasher.name(), "sha256-128");
    }

    #[test]
    fn digest_batch_matches_serial_for_all_hashers() {
        let msgs: Vec<Vec<u8>> = (0..9usize)
            .map(|i| (0..(i * 31 % 130)).map(|b| (b as u8) ^ (i as u8)).collect())
            .collect();
        let refs: Vec<&[u8]> = msgs.iter().map(|m| &m[..]).collect();
        for hasher in [&Md5Hasher as &dyn ChunkHasher, &Sha1Hasher, &Sha256Hasher] {
            let batch = hasher.digest_batch(&refs);
            assert_eq!(batch.len(), refs.len());
            for (i, m) in refs.iter().enumerate() {
                assert_eq!(batch[i], hasher.digest(m), "{} msg {i}", hasher.name());
            }
        }
    }

    /// Regression: the pre-bucketing `batch_by_lanes` only paired
    /// *adjacent* equal-length messages, so in an interleaved batch
    /// like `[16B, 8B, 16B, 16B]` the leading 16-byte message dropped
    /// to the scalar path despite two pairable partners further on.
    /// Length bucketing must both keep digests equal to the serial path
    /// and preserve input order in the output.
    #[test]
    fn digest_batch_pairs_nonadjacent_equal_lengths() {
        let msgs: [&[u8]; 4] = [&[0xaa; 16], &[0xbb; 8], &[0xcc; 16], &[0xdd; 16]];
        for hasher in [&Md5Hasher as &dyn ChunkHasher, &Sha1Hasher, &Sha256Hasher] {
            let batch = hasher.digest_batch(&msgs);
            for (i, m) in msgs.iter().enumerate() {
                assert_eq!(batch[i], hasher.digest(m), "{} msg {i}", hasher.name());
            }
        }
        // Same-length messages with distinct contents must not be
        // permuted by the bucketing.
        let distinct: [&[u8]; 3] = [b"aaaa", b"bbbb", b"cccc"];
        let batch = Md5Hasher.digest_batch(&distinct);
        assert_eq!(batch[0], Md5Hasher.digest(b"aaaa"));
        assert_eq!(batch[1], Md5Hasher.digest(b"bbbb"));
        assert_eq!(batch[2], Md5Hasher.digest(b"cccc"));
    }

    #[test]
    fn batch_lanes_are_per_algorithm() {
        assert_eq!(Md5Hasher.batch_lanes(), BATCH_LANES);
        assert_eq!(Sha1Hasher.batch_lanes(), BATCH_LANES);
        assert!(Sha256Hasher.batch_lanes() >= 1);
        #[derive(Debug)]
        struct SerialOnly;
        impl ChunkHasher for SerialOnly {
            fn digest(&self, data: &[u8]) -> Digest {
                md5(data)
            }
            fn name(&self) -> &'static str {
                "serial"
            }
        }
        assert_eq!(SerialOnly.batch_lanes(), 1);
    }

    #[test]
    fn hash_algo_parses_and_builds_hashers() {
        assert_eq!(HashAlgo::parse("md5"), Some(HashAlgo::Md5));
        assert_eq!(HashAlgo::parse("sha1"), Some(HashAlgo::Sha1));
        assert_eq!(HashAlgo::parse("sha256"), Some(HashAlgo::Sha256));
        assert_eq!(HashAlgo::parse("sha-256"), None);
        for algo in HashAlgo::ALL {
            assert_eq!(HashAlgo::parse(algo.label()), Some(algo));
            assert_eq!(format!("{algo}"), algo.label());
            let hasher = algo.hasher();
            assert_eq!(hasher.digest(b"x"), hasher.digest(b"x"));
            assert!(algo.modeled_throughput_gbps() > 0.0);
        }
        assert_eq!(HashAlgo::default(), HashAlgo::Md5);
        assert_eq!(HashAlgo::Sha256.hasher().name(), "sha256-128");
    }

    #[test]
    fn digest_batch_equal_length_groups_use_lanes() {
        // 4 + 4 + 1 equal-length messages: two full lane groups plus a
        // scalar straggler, all matching the serial result.
        let msgs: Vec<Vec<u8>> = (0..9u8).map(|i| vec![i; 96]).collect();
        let refs: Vec<&[u8]> = msgs.iter().map(|m| &m[..]).collect();
        let batch = Md5Hasher.digest_batch(&refs);
        for (i, m) in refs.iter().enumerate() {
            assert_eq!(batch[i], Md5Hasher.digest(m));
        }
        assert!(Md5Hasher.digest_batch(&[]).is_empty());
    }

    #[test]
    fn digest_debug_is_nonempty() {
        let s = format!("{:?}", Digest::ZERO);
        assert!(s.contains("Digest("));
        assert_eq!(format!("{}", Digest::ZERO), "0".repeat(32));
    }
}
