//! Parameters of the pipelined hashing unit (§6.1, Table 1).
//!
//! The paper's hardware checker contains a hash unit with:
//!
//! * **latency** of 160 cycles from the start of an operation to the
//!   digest being available, and
//! * a **throughput** limit — at 3.2 GB/s on a 1 GHz core, a new 64-byte
//!   block may enter the pipeline every 20 cycles. Figure 6 sweeps this
//!   parameter over {6.4, 3.2, 1.6, 0.8} GB/s.
//!
//! This module holds the configuration types ([`Throughput`],
//! [`HashEngineConfig`]); the schedulable cycle-level resource lives with
//! the rest of the checker hardware in `miv-core::hash_unit`.

/// A simulation timestamp in core clock cycles.
pub type Cycle = u64;

/// Width of one pipeline operation in bytes (one 512-bit hash block).
pub const PIPELINE_BLOCK_BYTES: u64 = 64;

/// Core clock frequency assumed by [`Throughput`] conversions (Table 1).
pub const CORE_CLOCK_GHZ: f64 = 1.0;

/// Longest per-block issue interval [`Throughput::try_gbps`] accepts
/// (about 4.3 s at the 1 GHz clock). The bound keeps the hash unit's
/// cycle arithmetic — start plus occupancy plus latency, summed over a
/// run's bookings — far from `u64` overflow.
pub const MAX_CYCLES_PER_BLOCK: u64 = u32::MAX as u64;

/// Hash-unit throughput, stored as the issue interval for one 64-byte
/// pipeline block.
///
/// # Examples
///
/// ```
/// use miv_hash::Throughput;
///
/// let t = Throughput::gbps(3.2);
/// assert_eq!(t.interval_for(64), 20); // one 64-B block every 20 cycles
/// assert_eq!(t.interval_for(128), 40);
/// assert!((t.as_gbps() - 3.2).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Throughput {
    /// Cycles between successive 64-byte pipeline issues.
    cycles_per_block: u64,
}

impl Throughput {
    /// Table 1 default: 3.2 GB/s (one 64-byte block every 20 cycles).
    pub const TABLE1: Throughput = Throughput {
        cycles_per_block: 20,
    };

    /// Creates a throughput from GB/s at the 1 GHz core clock.
    ///
    /// # Panics
    ///
    /// Panics if [`try_gbps`](Self::try_gbps) rejects `gbps`.
    pub fn gbps(gbps: f64) -> Self {
        Self::try_gbps(gbps).expect("throughput must be positive and within the modelled range")
    }

    /// The fallible form of [`gbps`](Self::gbps), for user-supplied rates.
    ///
    /// # Errors
    ///
    /// Returns a [`ThroughputError`] if `gbps` is not a finite positive
    /// number, or if the per-block issue interval it implies rounds to
    /// zero cycles or exceeds [`MAX_CYCLES_PER_BLOCK`].
    pub fn try_gbps(gbps: f64) -> Result<Self, ThroughputError> {
        if !(gbps.is_finite() && gbps > 0.0) {
            return Err(ThroughputError::NotPositive(gbps));
        }
        let cycles = (PIPELINE_BLOCK_BYTES as f64 / (gbps / CORE_CLOCK_GHZ)).round();
        if cycles < 1.0 {
            return Err(ThroughputError::TooFast(gbps));
        }
        if cycles > MAX_CYCLES_PER_BLOCK as f64 {
            return Err(ThroughputError::TooSlow(gbps));
        }
        Ok(Throughput {
            cycles_per_block: cycles as u64,
        })
    }

    /// Creates a throughput directly from the per-64-byte issue interval.
    ///
    /// # Panics
    ///
    /// Panics if `cycles` is zero.
    pub fn from_cycles_per_block(cycles: u64) -> Self {
        assert!(cycles >= 1, "interval must be at least one cycle");
        Throughput {
            cycles_per_block: cycles,
        }
    }

    /// Cycles between successive 64-byte pipeline issues.
    pub fn cycles_per_block(&self) -> u64 {
        self.cycles_per_block
    }

    /// The modelled bandwidth in GB/s.
    pub fn as_gbps(&self) -> f64 {
        PIPELINE_BLOCK_BYTES as f64 * CORE_CLOCK_GHZ / self.cycles_per_block as f64
    }

    /// Issue-slot occupancy in cycles for hashing `bytes` bytes.
    pub fn interval_for(&self, bytes: u64) -> u64 {
        let blocks = bytes.div_ceil(PIPELINE_BLOCK_BYTES).max(1);
        blocks * self.cycles_per_block
    }
}

/// Why [`Throughput::try_gbps`] rejected a GB/s figure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ThroughputError {
    /// Not a finite positive number (zero, negative, infinite or NaN).
    NotPositive(f64),
    /// So fast that a 64-byte block would issue in under one cycle.
    TooFast(f64),
    /// So slow that a 64-byte block would occupy the unit for more than
    /// [`MAX_CYCLES_PER_BLOCK`] cycles.
    TooSlow(f64),
}

impl std::fmt::Display for ThroughputError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ThroughputError::NotPositive(gbps) => write!(
                f,
                "hash throughput must be a finite positive number of GB/s, got {gbps:?}"
            ),
            ThroughputError::TooFast(gbps) => write!(
                f,
                "hash throughput of {gbps:?} GB/s is too high to model: a 64 B block \
                 would issue in under one cycle"
            ),
            ThroughputError::TooSlow(gbps) => write!(
                f,
                "hash throughput of {gbps:?} GB/s is too low to model: a 64 B block \
                 would take more than {MAX_CYCLES_PER_BLOCK} cycles"
            ),
        }
    }
}

impl std::error::Error for ThroughputError {}

/// Configuration for the hash unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HashEngineConfig {
    /// Pipeline latency in cycles (Table 1: 160).
    pub latency: u64,
    /// Issue throughput.
    pub throughput: Throughput,
}

impl Default for HashEngineConfig {
    /// Table 1 parameters: 160-cycle latency, 3.2 GB/s.
    fn default() -> Self {
        HashEngineConfig {
            latency: 160,
            throughput: Throughput::TABLE1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_throughput_is_20_cycles() {
        assert_eq!(Throughput::TABLE1.interval_for(64), 20);
        assert!((Throughput::TABLE1.as_gbps() - 3.2).abs() < 1e-9);
        assert_eq!(Throughput::TABLE1.cycles_per_block(), 20);
    }

    #[test]
    fn figure6_sweep_points() {
        assert_eq!(Throughput::gbps(6.4).interval_for(64), 10);
        assert_eq!(Throughput::gbps(3.2).interval_for(64), 20);
        assert_eq!(Throughput::gbps(1.6).interval_for(64), 40);
        assert_eq!(Throughput::gbps(0.8).interval_for(64), 80);
    }

    #[test]
    fn from_cycles_roundtrip() {
        let t = Throughput::from_cycles_per_block(40);
        assert!((t.as_gbps() - 1.6).abs() < 1e-9);
        assert_eq!(t.interval_for(1), 40);
        assert_eq!(t.interval_for(65), 80);
    }

    #[test]
    fn default_config_is_table1() {
        let cfg = HashEngineConfig::default();
        assert_eq!(cfg.latency, 160);
        assert_eq!(cfg.throughput, Throughput::TABLE1);
    }

    #[test]
    #[should_panic(expected = "throughput must be positive")]
    fn zero_throughput_rejected() {
        let _ = Throughput::gbps(0.0);
    }

    #[test]
    fn try_gbps_rejects_unmodellable_rates() {
        for gbps in [0.0, -1.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(matches!(
                Throughput::try_gbps(gbps),
                Err(ThroughputError::NotPositive(_))
            ));
        }
        assert_eq!(
            Throughput::try_gbps(1000.0),
            Err(ThroughputError::TooFast(1000.0))
        );
        assert_eq!(
            Throughput::try_gbps(1e-300),
            Err(ThroughputError::TooSlow(1e-300))
        );
        // The extremes that still fit: one cycle per block, and the
        // longest interval accepted.
        assert_eq!(
            Throughput::try_gbps(64.0).map(|t| t.cycles_per_block()),
            Ok(1)
        );
        let slowest = PIPELINE_BLOCK_BYTES as f64 / MAX_CYCLES_PER_BLOCK as f64;
        assert_eq!(
            Throughput::try_gbps(slowest).map(|t| t.cycles_per_block()),
            Ok(MAX_CYCLES_PER_BLOCK)
        );
        assert_eq!(Throughput::try_gbps(3.2), Ok(Throughput::TABLE1));
    }

    #[test]
    #[should_panic(expected = "at least one cycle")]
    fn zero_interval_rejected() {
        let _ = Throughput::from_cycles_per_block(0);
    }
}
