//! Negative lint fixture: a fieldless enum matched with a wildcard arm.
//!
//! `cargo clippy -- -D warnings` must fail here on
//! `clippy::wildcard_enum_match_arm`: the `_` arm would silently swallow
//! any variant added to `FixtureAlgo` later, exactly how a new scheme
//! could skip a tamper class without any test noticing.

/// A stand-in for the workspace's dispatch enums.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FixtureAlgo {
    /// First algorithm.
    Alpha,
    /// Second algorithm.
    Beta,
    /// Third algorithm.
    Gamma,
}

/// Names the algorithm, but hides future variants behind `_`.
pub fn label(a: FixtureAlgo) -> &'static str {
    match a {
        FixtureAlgo::Alpha => "alpha",
        _ => "other",
    }
}
