//! Negative lint fixture: a panicking constructor whose docs do not say
//! it can panic, under the crate-root header `miv-core`, `miv-mem` and
//! `miv-store` carry.
//!
//! `cargo clippy -- -D warnings` must fail here on
//! `clippy::missing_panics_doc`.

#![deny(clippy::missing_panics_doc)]

/// A trivially small storage unit.
pub struct Unit {
    cells: usize,
}

impl Unit {
    /// Builds a unit with a positive cell count.
    pub fn new(cells: usize) -> Self {
        assert!(cells > 0, "cells must be positive");
        Unit { cells }
    }

    /// Number of cells.
    pub fn cells(&self) -> usize {
        self.cells
    }
}
