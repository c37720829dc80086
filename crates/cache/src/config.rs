//! Cache geometry configuration.

use std::fmt;

/// Associativity of the paper's unified L2 (Table 1).
const L2_ASSOC: u32 = 4;

/// Geometry of a set-associative cache.
///
/// All three parameters must be powers of two and consistent
/// (`size_bytes = sets × assoc × line_bytes` with at least one set).
///
/// # Examples
///
/// ```
/// use miv_cache::CacheConfig;
///
/// let cfg = CacheConfig::l2(1 << 20, 64); // 1 MB, 4-way, 64-B lines
/// assert_eq!(cfg.sets(), 4096);
/// assert_eq!(cfg.lines(), 16384);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity (ways per set).
    pub assoc: u32,
    /// Line (block) size in bytes.
    pub line_bytes: u32,
}

impl CacheConfig {
    /// Creates a configuration, validating the geometry.
    ///
    /// # Panics
    ///
    /// Panics if any parameter is zero or not a power of two, if the line
    /// size exceeds the capacity, or if the geometry yields zero sets.
    /// User-supplied geometry goes through [`try_new`](Self::try_new).
    #[expect(
        clippy::panic,
        reason = "documented '# Panics' constructor; try_new is the fallible form"
    )]
    pub fn new(size_bytes: u64, assoc: u32, line_bytes: u32) -> Self {
        CacheConfig::try_new(size_bytes, assoc, line_bytes).unwrap_or_else(|e| panic!("{e}"))
    }

    /// The fallible form of [`new`](Self::new).
    ///
    /// # Errors
    ///
    /// Returns a [`CacheConfigError`] if any parameter is zero or not a
    /// power of two, or if the capacity holds fewer lines than one set.
    pub fn try_new(size_bytes: u64, assoc: u32, line_bytes: u32) -> Result<Self, CacheConfigError> {
        for (what, value) in [
            ("cache size", size_bytes),
            ("associativity", u64::from(assoc)),
            ("line size", u64::from(line_bytes)),
        ] {
            if !value.is_power_of_two() {
                return Err(CacheConfigError::NotPowerOfTwo { what, value });
            }
        }
        if size_bytes / u64::from(line_bytes) < u64::from(assoc) {
            return Err(CacheConfigError::TooSmall {
                size_bytes,
                assoc,
                line_bytes,
            });
        }
        Ok(CacheConfig {
            size_bytes,
            assoc,
            line_bytes,
        })
    }

    /// The paper's L1 geometry: 64 KB, 2-way, 32-byte lines (Table 1).
    pub fn l1() -> Self {
        CacheConfig::new(64 * 1024, 2, 32)
    }

    /// The paper's unified L2 geometry: 4-way with the given capacity and
    /// line size (Table 1 / Figure 3 sweeps capacity and line size).
    pub fn l2(size_bytes: u64, line_bytes: u32) -> Self {
        CacheConfig::new(size_bytes, L2_ASSOC, line_bytes)
    }

    /// The fallible form of [`l2`](Self::l2), for user-supplied sizes.
    ///
    /// # Errors
    ///
    /// See [`try_new`](Self::try_new).
    pub fn try_l2(size_bytes: u64, line_bytes: u32) -> Result<Self, CacheConfigError> {
        CacheConfig::try_new(size_bytes, L2_ASSOC, line_bytes)
    }

    /// Number of sets.
    pub fn sets(&self) -> u64 {
        self.size_bytes / (self.assoc as u64 * self.line_bytes as u64)
    }

    /// Total number of lines.
    pub fn lines(&self) -> u64 {
        self.size_bytes / self.line_bytes as u64
    }

    /// The line-aligned base address of the line containing `addr`.
    pub fn line_addr(&self, addr: u64) -> u64 {
        addr & !(self.line_bytes as u64 - 1)
    }

    /// The set index for `addr`.
    pub fn set_index(&self, addr: u64) -> u64 {
        (addr / self.line_bytes as u64) % self.sets()
    }

    /// The tag for `addr` (the line address, which is unambiguous).
    pub fn tag(&self, addr: u64) -> u64 {
        self.line_addr(addr)
    }
}

/// Why [`CacheConfig::try_new`] rejected a geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheConfigError {
    /// A parameter that must be a positive power of two is not.
    NotPowerOfTwo {
        /// Which parameter (`"cache size"`, `"associativity"`, `"line size"`).
        what: &'static str,
        /// The offending value.
        value: u64,
    },
    /// The capacity holds fewer lines than one set has ways.
    TooSmall {
        /// Capacity in bytes.
        size_bytes: u64,
        /// Ways per set.
        assoc: u32,
        /// Line size in bytes.
        line_bytes: u32,
    },
}

impl fmt::Display for CacheConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CacheConfigError::NotPowerOfTwo { what, value } => {
                write!(f, "{what} must be a power of two, got {value}")
            }
            CacheConfigError::TooSmall {
                size_bytes,
                assoc,
                line_bytes,
            } => write!(
                f,
                "cache too small for its associativity: {size_bytes} B of {line_bytes} B \
                 lines cannot fill one {assoc}-way set"
            ),
        }
    }
}

impl std::error::Error for CacheConfigError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_geometries() {
        let l1 = CacheConfig::l1();
        assert_eq!(l1.sets(), 1024);
        let l2 = CacheConfig::l2(256 * 1024, 64);
        assert_eq!(l2.sets(), 1024);
        let l2b = CacheConfig::l2(4 << 20, 128);
        assert_eq!(l2b.sets(), 8192);
    }

    #[test]
    fn line_addr_masks_offset() {
        let cfg = CacheConfig::l2(1 << 20, 64);
        assert_eq!(cfg.line_addr(0x12345), 0x12340);
        assert_eq!(cfg.line_addr(0x12340), 0x12340);
        assert_eq!(cfg.line_addr(0x1237f), 0x12340);
    }

    #[test]
    fn set_index_wraps() {
        let cfg = CacheConfig::new(1024, 2, 64); // 8 sets
        assert_eq!(cfg.sets(), 8);
        assert_eq!(cfg.set_index(0), 0);
        assert_eq!(cfg.set_index(64), 1);
        assert_eq!(cfg.set_index(64 * 8), 0);
        assert_eq!(cfg.set_index(64 * 9 + 13), 1);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two() {
        let _ = CacheConfig::new(1000, 2, 64);
    }

    #[test]
    #[should_panic(expected = "too small")]
    fn rejects_degenerate_geometry() {
        let _ = CacheConfig::new(64, 4, 64);
    }

    #[test]
    fn try_new_reports_each_bad_parameter() {
        assert_eq!(
            CacheConfig::try_l2(0, 64),
            Err(CacheConfigError::NotPowerOfTwo {
                what: "cache size",
                value: 0
            })
        );
        assert_eq!(
            CacheConfig::try_new(1024, 3, 64),
            Err(CacheConfigError::NotPowerOfTwo {
                what: "associativity",
                value: 3
            })
        );
        assert_eq!(
            CacheConfig::try_l2(1 << 20, 48),
            Err(CacheConfigError::NotPowerOfTwo {
                what: "line size",
                value: 48
            })
        );
        assert_eq!(
            CacheConfig::try_l2(64, 128),
            Err(CacheConfigError::TooSmall {
                size_bytes: 64,
                assoc: 4,
                line_bytes: 128
            })
        );
        assert_eq!(
            CacheConfig::try_l2(1 << 20, 64),
            Ok(CacheConfig::l2(1 << 20, 64))
        );
    }
}
