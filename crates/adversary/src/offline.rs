//! Offline-tamper campaigns against the persistent block store.
//!
//! The online attack battery ([`crate::cell`]) strikes while the
//! checker runs; this module models the complementary threat: the
//! machine is **powered off**, the adversary has the disk on a bench,
//! and may rewrite any byte of the untrusted block file — or swap the
//! whole image for an older, internally consistent one — before the
//! store is reopened. The trusted root (generation counter + root
//! digests, modeled as on-chip NVRAM) is the only thing out of reach.
//!
//! Each cell builds a store in memory, commits twice, mutates the dead
//! image, then reopens and fully verifies. Detection may land at two
//! phases: [`DetectPhase::Open`] (superblock triage or generation
//! mismatch) or [`DetectPhase::Verify`] (the tree walk against the
//! trusted roots). One subtlety is encoded in the target selection: the
//! committed journal is a redo log, so a flip on a main-region page the
//! journal still shadows is *healed* at open rather than detected. The
//! data/tree-page attacks therefore pick pages outside the journaled
//! set — the strongest variant, where nothing but the hash tree stands
//! between the flip and silent corruption.

use miv_hash::HashAlgo;
use miv_obs::{JsonValue, Registry, Rng};
use miv_store::{BlockStore, JournalEntry, MemMedium, MemRootStore, StoreConfig};

use crate::campaign::cell_seed;

/// Attack-index namespace for [`cell_seed`], disjoint from the online
/// campaign's `0..AttackClass::ALL.len()` range.
const OFFLINE_SEED_LANE: usize = 64;

/// What the offline adversary does to the powered-off image.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OfflineAttack {
    /// No mutation — the false-alarm control.
    Control,
    /// Flip one bit of a data page the journal does not shadow.
    DataPage,
    /// Flip one bit of a hash-tree page the journal does not shadow.
    TreePage,
    /// Flip one bit of the active superblock slot.
    Superblock,
    /// Replace the whole image with an older, internally consistent
    /// snapshot (rollback between close and reopen).
    StaleSplice,
}

impl OfflineAttack {
    /// Every offline attack, report order.
    pub const ALL: [OfflineAttack; 5] = [
        OfflineAttack::Control,
        OfflineAttack::DataPage,
        OfflineAttack::TreePage,
        OfflineAttack::Superblock,
        OfflineAttack::StaleSplice,
    ];

    /// Stable label used in reports and JSON.
    pub fn label(&self) -> &'static str {
        match self {
            OfflineAttack::Control => "control",
            OfflineAttack::DataPage => "data-page",
            OfflineAttack::TreePage => "tree-page",
            OfflineAttack::Superblock => "superblock",
            OfflineAttack::StaleSplice => "stale-splice",
        }
    }

    /// Whether a correct store must detect this attack on reload.
    pub fn expected_detected(&self) -> bool {
        !matches!(self, OfflineAttack::Control)
    }
}

/// Where a detection landed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DetectPhase {
    /// Rejected while opening: superblock triage, generation mismatch,
    /// or trusted-root inconsistency.
    Open,
    /// Caught by the full tree walk against the trusted roots.
    Verify,
}

/// The plan for one offline campaign.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OfflineSpec {
    /// Master seed; shared with the online campaign so `mivsim attack`
    /// drives both from one number.
    pub seed: u64,
    /// Trials per attack.
    pub trials: u32,
    /// Store data capacity in bytes.
    pub data_bytes: u64,
    /// Store page size in bytes.
    pub page_bytes: u32,
    /// Trusted cache capacity in pages.
    pub cache_pages: usize,
    /// Verified write operations per build phase.
    pub ops: u64,
    /// Hash unit protecting the store's tree pages.
    pub hash: HashAlgo,
}

impl OfflineSpec {
    /// CI-sized: a small store, two trials per attack.
    pub fn quick(seed: u64) -> Self {
        OfflineSpec {
            seed,
            trials: 2,
            data_bytes: 16 << 10,
            page_bytes: 128,
            cache_pages: 16,
            ops: 300,
            hash: HashAlgo::Md5,
        }
    }

    /// The full campaign: a larger store and five trials per attack.
    pub fn full(seed: u64) -> Self {
        OfflineSpec {
            seed,
            trials: 5,
            data_bytes: 64 << 10,
            page_bytes: 256,
            cache_pages: 24,
            ops: 2_000,
            hash: HashAlgo::Md5,
        }
    }

    /// Expands into every attack × trial cell.
    pub fn cells(&self) -> Vec<OfflineCell> {
        let mut cells = Vec::new();
        for (ai, &attack) in OfflineAttack::ALL.iter().enumerate() {
            for trial in 0..self.trials {
                cells.push(OfflineCell {
                    attack,
                    trial,
                    seed: cell_seed(self.seed, OFFLINE_SEED_LANE, ai, trial),
                    data_bytes: self.data_bytes,
                    page_bytes: self.page_bytes,
                    cache_pages: self.cache_pages,
                    ops: self.ops,
                    hash: self.hash,
                });
            }
        }
        cells
    }
}

/// One attack × trial of the offline campaign — plain data, safe to run
/// on any worker in any order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OfflineCell {
    /// The mutation to apply to the dead image.
    pub attack: OfflineAttack,
    /// Trial index within the attack.
    pub trial: u32,
    /// Derived seed for this cell's workload and target selection.
    pub seed: u64,
    /// Store data capacity in bytes.
    pub data_bytes: u64,
    /// Store page size in bytes.
    pub page_bytes: u32,
    /// Trusted cache capacity in pages.
    pub cache_pages: usize,
    /// Verified write operations per build phase.
    pub ops: u64,
    /// Hash unit protecting the store's tree pages.
    pub hash: HashAlgo,
}

/// What one offline cell observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OfflineOutcome {
    /// The cell's attack.
    pub attack: OfflineAttack,
    /// The cell's trial index.
    pub trial: u32,
    /// Which phase rejected the image, if any.
    pub detected: Option<DetectPhase>,
    /// A control cell that errored anyway — a store lie.
    pub false_alarm: bool,
}

/// Runs one offline cell: build → power off → mutate → reopen → verify.
pub fn run_offline_cell(cell: &OfflineCell) -> OfflineOutcome {
    let mut rng = Rng::seed_from_u64(cell.seed);
    let medium = MemMedium::new();
    let roots = MemRootStore::new();
    let config = StoreConfig {
        data_bytes: cell.data_bytes,
        page_bytes: cell.page_bytes,
        cache_pages: cell.cache_pages,
        journal_slots: 0,
    };
    let mut store = BlockStore::create(medium.clone(), roots.clone(), config, cell.hash.hasher())
        .expect("documented invariant: offline spec geometries are valid");

    // Phase 1: populate and commit, then snapshot the committed image —
    // the stale-splice attack will roll the disk back to this.
    workload(&mut store, &mut rng, cell);
    store.commit().expect("offline build commit");
    let stale_image = medium.snapshot();

    // Phase 2: more writes, another commit, then power off.
    workload(&mut store, &mut rng, cell);
    store.commit().expect("offline build commit");
    let geom = store.geometry().clone();
    let generation = store.generation();
    drop(store);

    // The bench mutation.
    let hasher = cell.hash.hasher();
    match cell.attack {
        OfflineAttack::Control => {}
        OfflineAttack::DataPage | OfflineAttack::TreePage => {
            // Collect the pages the committed journal shadows: flips
            // there are healed by redo replay (by design), so the
            // attack targets an unshadowed page.
            let mut shadowed = std::collections::BTreeSet::new();
            let frame_len = usize::try_from(JournalEntry::frame_bytes(geom.page_bytes()))
                .expect("frame fits usize");
            let image = medium.snapshot();
            for idx in 0..geom.journal_slots() {
                let at = usize::try_from(geom.journal_offset(idx)).expect("offset fits");
                if let Ok(e) =
                    JournalEntry::decode(&image[at..at + frame_len], geom.page_bytes(), &*hasher)
                {
                    if e.generation == generation {
                        shadowed.insert(e.page);
                    }
                }
            }
            let layout = *geom.layout();
            let (lo, hi) = if cell.attack == OfflineAttack::DataPage {
                (layout.hash_chunks(), layout.total_chunks())
            } else {
                (0, layout.hash_chunks())
            };
            let page = loop {
                let p = rng.gen_range_u64(lo, hi);
                if !shadowed.contains(&p) {
                    break p;
                }
            };
            let offset = geom.page_offset(page) + rng.gen_range_u64(0, geom.page_bytes() as u64);
            let mask = 1u8 << rng.gen_range_u64(0, 8);
            medium.flip(offset, mask);
        }
        OfflineAttack::Superblock => {
            let slot = miv_store::StoreGeometry::slot_for(generation);
            let offset = geom.slot_offset(slot) + rng.gen_range_u64(0, miv_store::SUPER_SLOT_BYTES);
            let mask = 1u8 << rng.gen_range_u64(0, 8);
            medium.flip(offset, mask);
        }
        OfflineAttack::StaleSplice => {
            // The whole phase-1 image, byte-perfect and self-consistent
            // — only the trusted generation counter can tell it apart.
            medium.restore(&stale_image);
        }
    }

    // Power on: open + full verify, exactly what `mivsim store fsck`
    // does.
    let detected = match BlockStore::open(medium, roots, cell.hash.hasher(), cell.cache_pages) {
        Err(_) => Some(DetectPhase::Open),
        Ok((mut store, _report)) => match store.verify_all() {
            Err(_) => Some(DetectPhase::Verify),
            Ok(_) => None,
        },
    };
    OfflineOutcome {
        attack: cell.attack,
        trial: cell.trial,
        detected,
        false_alarm: cell.attack == OfflineAttack::Control && detected.is_some(),
    }
}

fn workload(store: &mut BlockStore<MemMedium, MemRootStore>, rng: &mut Rng, cell: &OfflineCell) {
    for _ in 0..cell.ops {
        let len = rng.gen_range_usize(1, 64);
        let addr = rng.gen_range_u64(0, cell.data_bytes - len as u64);
        let mut buf = vec![0u8; len];
        rng.fill_bytes(&mut buf);
        store
            .write(addr, &buf)
            .expect("offline build writes are verified and must succeed");
    }
}

/// One attack row of the offline coverage matrix, folded over trials.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OfflineMatrixCell {
    /// Attack.
    pub attack: OfflineAttack,
    /// Whether detection is required.
    pub expected_detected: bool,
    /// Trials run.
    pub trials: u32,
    /// Trials detected (either phase).
    pub detected: u32,
    /// Expected detections that did not happen.
    pub missed: u32,
    /// Control trials that errored.
    pub false_alarms: u32,
    /// Detections at open.
    pub by_open: u32,
    /// Detections during the verify walk.
    pub by_verify: u32,
}

impl OfflineMatrixCell {
    /// Text verdict, mirroring the online matrix.
    pub fn verdict(&self) -> &'static str {
        if self.false_alarms > 0 {
            "false-alarm"
        } else if self.expected_detected && self.missed > 0 {
            "MISSED"
        } else if self.expected_detected {
            "detected"
        } else {
            "clean"
        }
    }
}

/// The aggregated offline campaign result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OfflineReport {
    /// One row per attack, spec order.
    pub matrix: Vec<OfflineMatrixCell>,
    /// Trials run.
    pub cells: u64,
    /// Detections, campaign-wide.
    pub detected: u64,
    /// Required detections that were missed.
    pub missed_expected: u64,
    /// Control trials that errored.
    pub false_alarms: u64,
}

impl OfflineReport {
    /// Folds outcomes by attack, iterating the spec's attack order so
    /// worker scheduling cannot affect the report.
    pub fn from_outcomes(_spec: &OfflineSpec, outcomes: &[OfflineOutcome]) -> Self {
        let mut matrix = Vec::new();
        let mut cells = 0u64;
        let mut detected = 0u64;
        let mut missed_expected = 0u64;
        let mut false_alarms = 0u64;
        for &attack in &OfflineAttack::ALL {
            let mut cell = OfflineMatrixCell {
                attack,
                expected_detected: attack.expected_detected(),
                trials: 0,
                detected: 0,
                missed: 0,
                false_alarms: 0,
                by_open: 0,
                by_verify: 0,
            };
            let mut trials: Vec<&OfflineOutcome> =
                outcomes.iter().filter(|o| o.attack == attack).collect();
            trials.sort_by_key(|o| o.trial);
            for out in trials {
                cell.trials += 1;
                cells += 1;
                if out.false_alarm {
                    cell.false_alarms += 1;
                    false_alarms += 1;
                }
                match out.detected {
                    Some(DetectPhase::Open) => {
                        cell.detected += 1;
                        cell.by_open += 1;
                    }
                    Some(DetectPhase::Verify) => {
                        cell.detected += 1;
                        cell.by_verify += 1;
                    }
                    None => {
                        if cell.expected_detected {
                            cell.missed += 1;
                            missed_expected += 1;
                        }
                    }
                }
                if out.detected.is_some() && attack.expected_detected() {
                    detected += 1;
                }
            }
            matrix.push(cell);
        }
        OfflineReport {
            matrix,
            cells,
            detected,
            missed_expected,
            false_alarms,
        }
    }

    /// No missed detections and no false alarms.
    pub fn clean(&self) -> bool {
        self.missed_expected == 0 && self.false_alarms == 0
    }

    /// Serialises the `offline` section of the `miv-attack-v1` schema.
    pub fn to_json(&self, spec: &OfflineSpec) -> JsonValue {
        let mut root = JsonValue::obj();
        let mut config = JsonValue::obj();
        config.push("trials", spec.trials);
        config.push("data_bytes", spec.data_bytes);
        config.push("page_bytes", spec.page_bytes);
        config.push("cache_pages", spec.cache_pages as u64);
        config.push("ops", spec.ops);
        config.push("hash", spec.hash.label());
        root.push("config", config);

        let mut matrix = Vec::new();
        for cell in &self.matrix {
            let mut row = JsonValue::obj();
            row.push("attack", cell.attack.label());
            row.push("expected_detected", cell.expected_detected);
            row.push("trials", cell.trials);
            row.push("detected", cell.detected);
            row.push("missed", cell.missed);
            row.push("false_alarms", cell.false_alarms);
            let mut by = JsonValue::obj();
            by.push("open", cell.by_open);
            by.push("verify", cell.by_verify);
            row.push("phases", by);
            matrix.push(row);
        }
        root.push("matrix", JsonValue::Array(matrix));

        let mut summary = JsonValue::obj();
        summary.push("cells", self.cells);
        summary.push("detected", self.detected);
        summary.push("missed_expected", self.missed_expected);
        summary.push("false_alarms", self.false_alarms);
        root.push("summary", summary);
        root
    }

    /// Publishes aggregate counters into `registry`
    /// (`attack.offline.*` namespace).
    pub fn record_into(&self, registry: &Registry) {
        registry.counter("attack.offline.cells").add(self.cells);
        registry
            .counter("attack.offline.detected")
            .add(self.detected);
        registry
            .counter("attack.offline.missed")
            .add(self.missed_expected);
        registry
            .counter("attack.offline.false_alarms")
            .add(self.false_alarms);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_spec_expands_with_distinct_seeds() {
        let spec = OfflineSpec::quick(7);
        let cells = spec.cells();
        assert_eq!(cells.len(), OfflineAttack::ALL.len() * spec.trials as usize);
        let mut seeds: Vec<u64> = cells.iter().map(|c| c.seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), cells.len(), "cell seeds must be distinct");
    }

    #[test]
    fn every_offline_attack_is_detected_and_control_is_clean() {
        let spec = OfflineSpec::quick(11);
        let outcomes: Vec<OfflineOutcome> = spec.cells().iter().map(run_offline_cell).collect();
        let report = OfflineReport::from_outcomes(&spec, &outcomes);
        assert!(
            report.clean(),
            "missed={} false_alarms={}",
            report.missed_expected,
            report.false_alarms
        );
        for cell in &report.matrix {
            if cell.expected_detected {
                assert_eq!(
                    cell.detected,
                    cell.trials,
                    "{} not always detected",
                    cell.attack.label()
                );
            } else {
                assert_eq!(cell.detected, 0);
                assert_eq!(cell.false_alarms, 0);
            }
        }
        // Phase attribution: superblock and stale-splice die at open.
        let by_label = |l: &str| {
            report
                .matrix
                .iter()
                .find(|c| c.attack.label() == l)
                .copied()
                .expect("attack present")
        };
        assert_eq!(
            by_label("superblock").by_open,
            by_label("superblock").trials
        );
        assert_eq!(
            by_label("stale-splice").by_open,
            by_label("stale-splice").trials
        );
        assert_eq!(
            by_label("data-page").by_verify,
            by_label("data-page").trials
        );
        assert_eq!(
            by_label("tree-page").by_verify,
            by_label("tree-page").trials
        );
    }

    #[test]
    fn report_is_order_independent() {
        let spec = OfflineSpec {
            trials: 2,
            ops: 60,
            ..OfflineSpec::quick(3)
        };
        let outcomes: Vec<OfflineOutcome> = spec.cells().iter().map(run_offline_cell).collect();
        let mut shuffled = outcomes.clone();
        shuffled.reverse();
        assert_eq!(
            OfflineReport::from_outcomes(&spec, &outcomes),
            OfflineReport::from_outcomes(&spec, &shuffled)
        );
    }
}
