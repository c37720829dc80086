//! Saving and restoring a verified memory across power cycles.
//!
//! The related work the paper builds on (Maheshwari, Vingralek and
//! Shapiro's trusted database on untrusted storage) treats persistent
//! state the same way the processor treats RAM: the bulk lives on
//! untrusted media, and only the tree root must survive inside the trust
//! boundary. This module gives the functional engine that capability:
//!
//! * [`VerifiedMemory::export_state`] flushes and serializes the
//!   *untrusted* image — chunk contents, everything an adversary could
//!   see anyway — plus the layout geometry;
//! * [`VerifiedMemory::export_root`] returns the secure-root bytes, which
//!   the caller must store **inside the trust boundary** (the paper's
//!   processor keeps them in on-chip secure memory);
//! * [`restore`] rebuilds a live engine from the pair, verifying that the
//!   untrusted image still matches the root — a stale or tampered image
//!   is rejected exactly like a replayed RAM chunk.

use std::fmt;

use miv_hash::digest::{ChunkHasher, DIGEST_BYTES};

use crate::engine::{MemoryBuilder, Protection, VerifiedMemory};
use crate::error::{ConfigError, IntegrityError};
use crate::layout::TreeLayout;

/// Magic prefix of the serialized untrusted image.
const MAGIC: [u8; 8] = *b"MIVMEM01";

/// Size of the serialized image header: magic plus three little-endian
/// u64 geometry words (data, chunk and block bytes).
const HEADER_BYTES: usize = 32;

/// A serialized trust-boundary artifact failed structural validation.
///
/// Raised by [`SavedImage::from_bytes`] and by the `miv-store` on-disk
/// format parsers (superblock, trusted-root blob, journal entries) —
/// one typed vocabulary for "these bytes are not a well-formed X".
/// Structural damage is *not* an integrity violation: it indicates
/// corruption or truncation that any storage stack would notice, and is
/// reported before (and independently of) the root verification that
/// catches deliberate tampering.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FormatError {
    /// The magic prefix did not match.
    BadMagic {
        /// Which artifact was being parsed.
        what: &'static str,
    },
    /// Fewer bytes than the fixed header/frame requires.
    Truncated {
        /// Which artifact was being parsed.
        what: &'static str,
        /// Bytes the frame requires.
        needed: u64,
        /// Bytes actually present.
        got: u64,
    },
    /// A header field holds a value outside its representable range.
    FieldRange {
        /// Which field was malformed.
        what: &'static str,
        /// The offending value.
        value: u64,
    },
    /// A declared length does not match the bytes that follow.
    LengthMismatch {
        /// Which artifact was being parsed.
        what: &'static str,
        /// Length the header declares.
        expected: u64,
        /// Length actually present.
        got: u64,
    },
    /// An embedded checksum over the frame did not match.
    ChecksumMismatch {
        /// Which artifact was being parsed.
        what: &'static str,
    },
    /// The header's geometry cannot produce a working layout.
    Geometry(ConfigError),
}

impl fmt::Display for FormatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FormatError::BadMagic { what } => write!(f, "{what}: bad magic"),
            FormatError::Truncated { what, needed, got } => {
                write!(f, "{what}: truncated ({got} bytes, need {needed})")
            }
            FormatError::FieldRange { what, value } => {
                write!(f, "{what}: value {value} out of range")
            }
            FormatError::LengthMismatch {
                what,
                expected,
                got,
            } => write!(f, "{what}: length {got} does not match declared {expected}"),
            FormatError::ChecksumMismatch { what } => write!(f, "{what}: checksum mismatch"),
            FormatError::Geometry(e) => write!(f, "malformed geometry: {e}"),
        }
    }
}

impl std::error::Error for FormatError {}

impl From<ConfigError> for FormatError {
    fn from(e: ConfigError) -> Self {
        FormatError::Geometry(e)
    }
}

/// The serialized untrusted state (safe to store anywhere).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SavedImage {
    bytes: Vec<u8>,
}

impl SavedImage {
    /// Raw serialized bytes (e.g. to write to a file).
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Wraps raw serialized bytes read back from storage, validating the
    /// `MIVMEM01` magic, the geometry words and the body length up
    /// front.
    ///
    /// Structural validation here is what lets [`restore`] treat a
    /// malformed header as unreachable: every `SavedImage` was either
    /// produced by [`VerifiedMemory::export_state`] or passed this
    /// check.
    ///
    /// # Errors
    ///
    /// Returns a [`FormatError`] describing the first structural problem
    /// found: truncation, a bad magic, geometry words that overflow
    /// `u32` or cannot form a [`TreeLayout`], or a body whose length
    /// does not match the declared geometry.
    #[expect(
        clippy::missing_panics_doc,
        reason = "the only panic converts an 8-byte header slice to [u8; 8] after the length check"
    )]
    pub fn from_bytes(bytes: Vec<u8>) -> Result<Self, FormatError> {
        if bytes.len() < HEADER_BYTES {
            return Err(FormatError::Truncated {
                what: "image header",
                needed: HEADER_BYTES as u64,
                got: bytes.len() as u64,
            });
        }
        if bytes[..8] != MAGIC {
            return Err(FormatError::BadMagic {
                what: "image header",
            });
        }
        let word = |i: usize| {
            u64::from_le_bytes(
                bytes[8 + 8 * i..16 + 8 * i]
                    .try_into()
                    .expect("documented invariant"),
            )
        };
        let data_bytes = word(0);
        let chunk_bytes: u32 = word(1).try_into().map_err(|_| FormatError::FieldRange {
            what: "image chunk_bytes",
            value: word(1),
        })?;
        let block_bytes: u32 = word(2).try_into().map_err(|_| FormatError::FieldRange {
            what: "image block_bytes",
            value: word(2),
        })?;
        let layout = TreeLayout::try_new(data_bytes, chunk_bytes, block_bytes)?;
        let body = (bytes.len() - HEADER_BYTES) as u64;
        if body != layout.physical_bytes() {
            return Err(FormatError::LengthMismatch {
                what: "image body",
                expected: layout.physical_bytes(),
                got: body,
            });
        }
        Ok(SavedImage { bytes })
    }
}

/// The trusted root material (must be stored inside the trust boundary).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SavedRoot {
    protection: Protection,
    key: [u8; 16],
    slots: Vec<[u8; DIGEST_BYTES]>,
}

impl VerifiedMemory {
    /// Flushes all dirty state and serializes the untrusted image.
    ///
    /// # Errors
    ///
    /// Propagates verification errors from the flush.
    #[expect(
        clippy::missing_panics_doc,
        reason = "the image is already held in host memory, so its size fits usize"
    )]
    pub fn export_state(&mut self) -> Result<SavedImage, IntegrityError> {
        self.flush()?;
        let layout = *self.layout();
        let physical = usize::try_from(layout.physical_bytes()).expect("image held in memory");
        let mut bytes = Vec::with_capacity(physical + 64);
        bytes.extend_from_slice(&MAGIC);
        bytes.extend_from_slice(&layout.data_bytes().to_le_bytes());
        bytes.extend_from_slice(&(layout.chunk_bytes() as u64).to_le_bytes());
        bytes.extend_from_slice(&(layout.block_bytes() as u64).to_le_bytes());
        bytes.extend_from_slice(&self.adversary_read_raw(0, physical));
        Ok(SavedImage { bytes })
    }

    /// Returns the trusted root material for [`restore`].
    pub fn export_root(&self, protection: Protection, key: [u8; 16]) -> SavedRoot {
        SavedRoot {
            protection,
            key,
            slots: self.secure_root().to_vec(),
        }
    }
}

/// Rebuilds a verified memory from an untrusted image and the trusted
/// root, verifying the pairing.
///
/// `cache_blocks` and `hasher` configure the revived engine (they are
/// machine properties, not persistent state).
///
/// # Errors
///
/// Returns [`IntegrityError`] if the image does not verify against the
/// root — tampered or stale storage is rejected just like tampered RAM.
///
/// # Panics
///
/// Panics on a structurally malformed image header, which no
/// [`SavedImage`] can carry: every one was either produced by
/// [`VerifiedMemory::export_state`] or validated by
/// [`SavedImage::from_bytes`], so the header assertions below are
/// defensive invariants, not an error path.
pub fn restore(
    image: &SavedImage,
    root: &SavedRoot,
    cache_blocks: usize,
    hasher: Box<dyn ChunkHasher + Send + Sync>,
) -> Result<VerifiedMemory, IntegrityError> {
    let b = &image.bytes;
    assert!(b.len() >= 32 && b[..8] == MAGIC, "malformed image header");
    let word =
        |i: usize| u64::from_le_bytes(b[8 + 8 * i..16 + 8 * i].try_into().expect("header word"));
    let data_bytes = word(0);
    // A forged header with an over-u32 geometry must fail loudly, not
    // silently truncate into some other (possibly valid) geometry.
    let chunk_bytes: u32 = word(1)
        .try_into()
        .expect("malformed image header: chunk_bytes");
    let block_bytes: u32 = word(2)
        .try_into()
        .expect("malformed image header: block_bytes");
    let body = &b[32..];

    // Rebuild an engine with the same geometry, then overwrite its
    // physical segment and secure root with the saved pair.
    let mut mem = MemoryBuilder::new()
        .data_bytes(data_bytes)
        .chunk_bytes(chunk_bytes)
        .block_bytes(block_bytes)
        .protection(root.protection)
        .key(root.key)
        .hasher(hasher)
        .cache_blocks(cache_blocks)
        .build();
    assert_eq!(
        body.len() as u64,
        mem.layout().physical_bytes(),
        "image body does not match the layout geometry"
    );
    mem.adversary_write_raw(0, body);
    mem.restore_secure_root(&root.slots);
    // The root either blesses this image or the restore fails wholesale.
    mem.verify_all()?;
    Ok(mem)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::TamperKind;
    use miv_hash::digest::Md5Hasher;

    const KEY: [u8; 16] = *b"persistence-key!";

    fn build() -> VerifiedMemory {
        MemoryBuilder::new()
            .data_bytes(8 * 1024)
            .key(KEY)
            .cache_blocks(64)
            .build()
    }

    #[test]
    fn roundtrip_restores_contents() {
        let mut mem = build();
        mem.write(0x100, b"persistent payload").unwrap();
        let image = mem.export_state().unwrap();
        let root = mem.export_root(Protection::HashTree, KEY);

        let mut revived = restore(&image, &root, 64, Box::new(Md5Hasher)).unwrap();
        assert_eq!(revived.read_vec(0x100, 18).unwrap(), b"persistent payload");
        revived.write(0x100, b"and writable too!!").unwrap();
        revived.verify_all().unwrap();
    }

    #[test]
    fn tampered_image_is_rejected() {
        let mut mem = build();
        mem.write(0, b"original").unwrap();
        let mut image = mem.export_state().unwrap();
        let root = mem.export_root(Protection::HashTree, KEY);
        // Flip one bit somewhere in the stored body.
        let idx = image.bytes.len() - 100;
        image.bytes[idx] ^= 0x10;
        assert!(restore(&image, &root, 64, Box::new(Md5Hasher)).is_err());
    }

    #[test]
    fn stale_image_is_rejected() {
        // The rollback attack on persistent storage: saving, updating,
        // then restoring the OLD image against the NEW root fails.
        let mut mem = build();
        mem.write(0, b"version 1").unwrap();
        let old_image = mem.export_state().unwrap();
        mem.write(0, b"version 2").unwrap();
        mem.flush().unwrap();
        let new_root = mem.export_root(Protection::HashTree, KEY);
        assert!(
            restore(&old_image, &new_root, 64, Box::new(Md5Hasher)).is_err(),
            "rollback to version 1 must not verify against the current root"
        );
    }

    #[test]
    fn wrong_root_is_rejected() {
        let mut a = build();
        a.write(0, b"machine A").unwrap();
        let image = a.export_state().unwrap();
        let mut other = build();
        other.write(0, b"machine B").unwrap();
        other.flush().unwrap();
        let wrong_root = other.export_root(Protection::HashTree, KEY);
        assert!(restore(&image, &wrong_root, 64, Box::new(Md5Hasher)).is_err());
    }

    #[test]
    fn mac_scheme_roundtrips_too() {
        let mut mem = MemoryBuilder::new()
            .data_bytes(8 * 1024)
            .chunk_bytes(128)
            .block_bytes(64)
            .protection(Protection::IncrementalMac)
            .key(KEY)
            .cache_blocks(64)
            .build();
        mem.write(0x40, b"mac persisted").unwrap();
        let image = mem.export_state().unwrap();
        let root = mem.export_root(Protection::IncrementalMac, KEY);
        let mut revived = restore(&image, &root, 64, Box::new(Md5Hasher)).unwrap();
        assert_eq!(revived.read_vec(0x40, 13).unwrap(), b"mac persisted");
        // ...and tampering the image still fails under the MAC.
        let phys = revived.layout().data_phys_addr(0x40);
        revived
            .adversary()
            .tamper(phys, TamperKind::BitFlip { bit: 0 });
        revived.clear_cache().unwrap();
        assert!(revived.read_vec(0x40, 13).is_err());
    }

    #[test]
    fn garbage_image_is_rejected_with_typed_errors() {
        // Truncated: shorter than the fixed header.
        assert_eq!(
            SavedImage::from_bytes(vec![0; 8]),
            Err(FormatError::Truncated {
                what: "image header",
                needed: 32,
                got: 8,
            })
        );
        // Right length, wrong magic.
        assert_eq!(
            SavedImage::from_bytes(vec![0; 64]),
            Err(FormatError::BadMagic {
                what: "image header",
            })
        );
        // Valid magic, geometry word overflowing u32.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(b"MIVMEM01");
        bytes.extend_from_slice(&4096u64.to_le_bytes());
        bytes.extend_from_slice(&(u64::MAX).to_le_bytes());
        bytes.extend_from_slice(&64u64.to_le_bytes());
        assert_eq!(
            SavedImage::from_bytes(bytes.clone()),
            Err(FormatError::FieldRange {
                what: "image chunk_bytes",
                value: u64::MAX,
            })
        );
        // Valid header words that cannot form a layout.
        bytes[16..24].copy_from_slice(&16u64.to_le_bytes());
        assert_eq!(
            SavedImage::from_bytes(bytes.clone()),
            Err(FormatError::Geometry(ConfigError::ChunkNotBlockMultiple {
                chunk_bytes: 16,
                block_bytes: 64,
            }))
        );
        // Valid geometry, body length mismatch.
        bytes[16..24].copy_from_slice(&64u64.to_le_bytes());
        bytes.extend_from_slice(&[0; 10]);
        match SavedImage::from_bytes(bytes) {
            Err(FormatError::LengthMismatch {
                what: "image body",
                got: 10,
                ..
            }) => {}
            other => panic!("expected body length mismatch, got {other:?}"),
        }
    }

    #[test]
    fn from_bytes_accepts_a_real_image_roundtrip() {
        // The regression the typed validation must not introduce: a
        // genuine exported image still round-trips through from_bytes.
        let mut mem = build();
        mem.write(0x40, b"validated payload").unwrap();
        let image = mem.export_state().unwrap();
        let root = mem.export_root(Protection::HashTree, KEY);
        let reloaded = SavedImage::from_bytes(image.as_bytes().to_vec()).unwrap();
        assert_eq!(reloaded, image);
        let mut revived = restore(&reloaded, &root, 64, Box::new(Md5Hasher)).unwrap();
        assert_eq!(revived.read_vec(0x40, 17).unwrap(), b"validated payload");
        // Errors render a readable description.
        let err = SavedImage::from_bytes(vec![1; 40]).unwrap_err();
        assert!(err.to_string().contains("bad magic"));
        let boxed: Box<dyn std::error::Error> = Box::new(err);
        assert!(!boxed.to_string().is_empty());
    }
}
