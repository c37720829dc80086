//! The attack taxonomy and injection triggers.
//!
//! Every attack class maps onto the shared [`miv_core::TamperKind`]
//! vocabulary plus layout arithmetic from `miv_core::adversary`; the
//! class is *what* is corrupted (program data, tree metadata, freshness
//! state), the [`Trigger`] is *when* the corruption lands relative to the
//! running access stream.

use miv_core::Scheme;
use miv_obs::Rng;

miv_hash::enum_with_all! {
    /// One class of physical attack against untrusted memory (§3, §4.4,
    /// §5.4 of the paper), plus a no-injection control.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    pub enum AttackClass {
        /// No injection at all: any "detection" in a control cell is a
        /// false alarm, the campaign's specificity baseline.
        Control,
        /// Flip a single bit of a program-data block.
        DataBitFlip,
        /// Overwrite a whole data block with attacker-chosen bytes.
        BlockReplace,
        /// Relocate one data block over another (the `CopyFrom` splice
        /// attack defeated by position-binding).
        Splice,
        /// Restore a previously valid block after the program updated it —
        /// the §4.4 replay/rollback attack on freshness.
        Replay,
        /// Flip a bit of a stored hash (or MAC tag) in a parent slot.
        HashNodeCorrupt,
        /// Copy one top-level chunk over another: both were valid under the
        /// secure root, but each is bound to its own position.
        RootSwap,
        /// Flip one §5.4 timestamp bit in an incremental-MAC slot
        /// (`ihash` only — the other schemes store no timestamps).
        TimestampFlip,
    }

    /// Every class, in matrix presentation order.
    const ALL;
}

impl AttackClass {
    /// Stable kebab-case label used in reports and JSON.
    pub fn label(&self) -> &'static str {
        match self {
            AttackClass::Control => "control",
            AttackClass::DataBitFlip => "bit-flip",
            AttackClass::BlockReplace => "replace",
            AttackClass::Splice => "splice",
            AttackClass::Replay => "replay",
            AttackClass::HashNodeCorrupt => "hash-node",
            AttackClass::RootSwap => "root-swap",
            AttackClass::TimestampFlip => "ts-flip",
        }
    }

    /// Whether the attack can be mounted against `scheme` at all: data
    /// attacks work against any memory, but metadata attacks need a tree
    /// in memory and the timestamp flip needs the incremental MAC.
    pub fn applies_to(&self, scheme: Scheme) -> bool {
        match self {
            AttackClass::Control
            | AttackClass::DataBitFlip
            | AttackClass::BlockReplace
            | AttackClass::Splice
            | AttackClass::Replay => true,
            AttackClass::HashNodeCorrupt | AttackClass::RootSwap => scheme.verifies(),
            AttackClass::TimestampFlip => scheme == Scheme::IHash,
        }
    }

    /// Whether a correct checker must detect this attack under `scheme`:
    /// every applicable injection except under [`Scheme::Base`], which
    /// never verifies and therefore never detects (the campaign's
    /// sensitivity ground truth).
    pub fn expected_detected(&self, scheme: Scheme) -> bool {
        scheme.verifies() && self.applies_to(scheme) && *self != AttackClass::Control
    }

    /// Whether the class injects anything.
    pub fn is_injection(&self) -> bool {
        *self != AttackClass::Control
    }
}

impl std::fmt::Display for AttackClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// When the injection fires relative to the running access stream. All
/// three forms are deterministic given the cell's seed; a cell harness
/// additionally force-fires near the end of the stream so no attack cell
/// ever finishes without its injection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Trigger {
    /// Fire at the first access issued at or after this cycle.
    AtCycle {
        /// Simulation cycle threshold.
        cycle: u64,
    },
    /// Fire once the attack's target block has been touched this many
    /// times by the program.
    AfterTargetTouches {
        /// Touch count threshold.
        count: u64,
    },
    /// Fire with this per-access probability, drawn from the cell's
    /// seeded PRNG stream.
    Random {
        /// Probability per access in parts-per-million.
        per_access_ppm: u32,
    },
}

impl Trigger {
    /// Stable label for JSON export.
    pub fn label(&self) -> &'static str {
        match self {
            Trigger::AtCycle { .. } => "at-cycle",
            Trigger::AfterTargetTouches { .. } => "after-touches",
            Trigger::Random { .. } => "random",
        }
    }

    /// Evaluates the trigger before one access. `now` is the current
    /// simulation cycle and `target_touches` counts how often the attack
    /// target block has been accessed so far; `rng` is consulted only by
    /// [`Trigger::Random`].
    pub fn should_fire(&self, now: u64, target_touches: u64, rng: &mut Rng) -> bool {
        match *self {
            Trigger::AtCycle { cycle } => now >= cycle,
            Trigger::AfterTargetTouches { count } => target_touches >= count,
            Trigger::Random { per_access_ppm } => rng.gen_bool(per_access_ppm as f64 / 1e6),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn applicability_matrix() {
        for attack in AttackClass::ALL {
            assert!(
                attack.applies_to(Scheme::IHash),
                "{attack} applies to ihash"
            );
        }
        assert!(!AttackClass::TimestampFlip.applies_to(Scheme::MHash));
        assert!(!AttackClass::HashNodeCorrupt.applies_to(Scheme::Base));
        assert!(!AttackClass::RootSwap.applies_to(Scheme::Base));
        assert!(AttackClass::Replay.applies_to(Scheme::Base));
    }

    #[test]
    fn base_expects_no_detection_and_control_is_never_expected() {
        for attack in AttackClass::ALL {
            assert!(!attack.expected_detected(Scheme::Base));
        }
        for scheme in Scheme::ALL {
            assert!(!AttackClass::Control.expected_detected(scheme));
        }
        assert!(AttackClass::DataBitFlip.expected_detected(Scheme::Naive));
        assert!(AttackClass::TimestampFlip.expected_detected(Scheme::IHash));
    }

    #[test]
    fn triggers_fire_deterministically() {
        let mut rng = Rng::seed_from_u64(1);
        assert!(!Trigger::AtCycle { cycle: 100 }.should_fire(99, 0, &mut rng));
        assert!(Trigger::AtCycle { cycle: 100 }.should_fire(100, 0, &mut rng));
        assert!(!Trigger::AfterTargetTouches { count: 2 }.should_fire(0, 1, &mut rng));
        assert!(Trigger::AfterTargetTouches { count: 2 }.should_fire(0, 2, &mut rng));
        let fire_a: Vec<bool> = {
            let mut r = Rng::seed_from_u64(7);
            (0..64)
                .map(|_| {
                    Trigger::Random {
                        per_access_ppm: 500_000,
                    }
                    .should_fire(0, 0, &mut r)
                })
                .collect()
        };
        let fire_b: Vec<bool> = {
            let mut r = Rng::seed_from_u64(7);
            (0..64)
                .map(|_| {
                    Trigger::Random {
                        per_access_ppm: 500_000,
                    }
                    .should_fire(0, 0, &mut r)
                })
                .collect()
        };
        assert_eq!(fire_a, fire_b);
        assert!(fire_a.iter().any(|&f| f) && fire_a.iter().any(|&f| !f));
    }

    #[test]
    fn labels_are_unique() {
        let labels: Vec<&str> = AttackClass::ALL.iter().map(|a| a.label()).collect();
        let mut dedup = labels.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), labels.len());
    }
}
