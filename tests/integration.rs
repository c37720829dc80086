//! Cross-crate integration tests: the full stack from workload generation
//! through the cycle-level simulator, and the functional engine driven by
//! simulator-style traffic.

use std::path::{Path, PathBuf};

use miv::core::{MemoryBuilder, Protection, Scheme, TamperKind};
use miv::cpu::{Core, CoreConfig, TraceOp};
use miv::sim::{System, SystemConfig};
use miv::trace::Benchmark;

/// The full machine runs every benchmark under every scheme without
/// panicking and produces internally consistent results.
#[test]
fn every_scheme_runs_every_benchmark() {
    for scheme in Scheme::ALL {
        for bench in [Benchmark::Gzip, Benchmark::Mcf, Benchmark::Swim] {
            let cfg = SystemConfig::hpca03(scheme, 256 << 10, 64);
            let r = System::for_benchmark(cfg, bench, 1).run(2_000, 20_000);
            assert_eq!(r.instructions, 20_000, "{scheme}/{bench}");
            assert!(
                r.ipc > 0.0 && r.ipc <= 4.0,
                "{scheme}/{bench}: ipc {}",
                r.ipc
            );
            assert!(r.l2_data_miss_rate <= 1.0);
            if scheme == Scheme::Base {
                assert_eq!(r.hash_bytes, 0, "{bench}");
            }
        }
    }
}

/// The scheme ordering the paper establishes: chash between base and
/// naive for a memory-intensive workload.
#[test]
fn scheme_ordering_holds() {
    let run = |scheme| {
        let cfg = SystemConfig::hpca03(scheme, 1 << 20, 64);
        System::for_benchmark(cfg, Benchmark::Swim, 7)
            .run(20_000, 150_000)
            .ipc
    };
    let base = run(Scheme::Base);
    let chash = run(Scheme::CHash);
    let naive = run(Scheme::Naive);
    assert!(base >= chash, "base {base} >= chash {chash}");
    assert!(
        chash > 2.0 * naive,
        "chash {chash} should dwarf naive {naive}"
    );
}

/// Identical seeds give bit-identical simulation results (the whole stack
/// is deterministic).
#[test]
fn simulation_is_deterministic() {
    let run = || {
        let cfg = SystemConfig::hpca03(Scheme::CHash, 256 << 10, 64);
        let r = System::for_benchmark(cfg, Benchmark::Vortex, 99).run(5_000, 50_000);
        (r.cycles, r.l2_data_misses, r.bus_bytes)
    };
    assert_eq!(run(), run());
}

/// Drive the *functional* engine with the same trace the simulator uses:
/// every load/store verifies, and a final audit passes.
#[test]
fn functional_engine_replays_simulator_trace() {
    let profile = miv::trace::Profile::cache_friendly("integration", 64 * 1024);
    let mut mem = MemoryBuilder::new()
        .data_bytes(64 * 1024)
        .cache_blocks(128)
        .build();
    let mut ops = 0;
    for inst in miv::trace::TraceGenerator::new(profile, 5).take(30_000) {
        match inst.op {
            TraceOp::Load { addr, .. } => {
                let a = addr.min(64 * 1024 - 8);
                mem.read_vec(a, 8).unwrap();
                ops += 1;
            }
            TraceOp::Store { addr, .. } => {
                let a = addr.min(64 * 1024 - 8);
                mem.write(a, &a.to_le_bytes()).unwrap();
                ops += 1;
            }
            TraceOp::Compute { .. } | TraceOp::Branch { .. } | TraceOp::CryptoBarrier => {}
        }
    }
    assert!(ops > 5_000, "trace exercised the engine: {ops} ops");
    mem.flush().unwrap();
    mem.verify_all().unwrap();
}

/// The incremental-MAC engine survives the same replay attack the hash
/// tree catches, end to end.
#[test]
fn both_protections_catch_the_same_replay() {
    for protection in [Protection::HashTree, Protection::IncrementalMac] {
        let mut mem = MemoryBuilder::new()
            .data_bytes(16 * 1024)
            .chunk_bytes(128)
            .block_bytes(64)
            .protection(protection)
            .cache_blocks(128)
            .build();
        mem.write(0x800, b"generation 1").unwrap();
        mem.flush().unwrap();
        let phys = mem.layout().data_phys_addr(0x800);
        let snap = mem.adversary().snapshot(phys, 64);
        mem.write(0x800, b"generation 2").unwrap();
        mem.flush().unwrap();
        mem.clear_cache().unwrap();
        mem.adversary().replay(&snap);
        assert!(
            mem.read_vec(0x800, 12).is_err(),
            "{protection:?} must detect the replay"
        );
    }
}

/// Crypto barriers observe the verification horizon through the whole
/// hierarchy (the §5.8 signing rule).
#[test]
fn crypto_barrier_waits_for_hierarchy_checks() {
    use miv::cpu::TraceInst;
    let cfg = SystemConfig::hpca03(Scheme::CHash, 256 << 10, 64);
    let hierarchy = miv::sim::Hierarchy::new(&cfg);
    let mut core = Core::new(CoreConfig::default(), hierarchy);
    let stats = core.run(vec![TraceInst::load(0x100), TraceInst::crypto_barrier()]);
    assert_eq!(stats.barriers, 1);
    // The barrier cannot commit before the load's background check ends.
    let horizon = core.port().l2().verification_horizon();
    assert!(horizon > 0, "the load scheduled a background check");
    assert!(core.now() >= horizon);
}

/// A tamper detected mid-computation prevents certification (the §4.1
/// story, condensed).
#[test]
fn tampering_blocks_certification() {
    let mut mem = MemoryBuilder::new()
        .data_bytes(32 * 1024)
        .cache_blocks(128)
        .build();
    for i in 0..512u64 {
        mem.write(i * 8, &(i * i).to_le_bytes()).unwrap();
    }
    mem.flush().unwrap();
    mem.clear_cache().unwrap();
    let phys = mem.layout().data_phys_addr(128 * 8);
    mem.adversary().tamper(phys, TamperKind::BitFlip { bit: 2 });
    // The fold over the table hits the tampered word and aborts.
    let mut acc = 0u64;
    let mut detected = false;
    for i in 0..512u64 {
        match mem.read_vec(i * 8, 8) {
            Ok(b) => acc ^= u64::from_le_bytes(b.try_into().unwrap()),
            Err(_) => {
                detected = true;
                break;
            }
        }
    }
    assert!(detected, "result {acc:#x} would have been silently wrong");
}

/// The key/value lines of the TOML table `[name]` in `manifest`, with
/// comments and blank lines dropped.
fn toml_table<'a>(manifest: &'a str, name: &str) -> Vec<&'a str> {
    let header = format!("[{name}]");
    manifest
        .lines()
        .map(str::trim)
        .skip_while(|l| *l != header)
        .skip(1)
        .take_while(|l| !l.starts_with('['))
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .collect()
}

/// The manifests of the directories under `dir` that hold one.
fn member_manifests(dir: &Path) -> Vec<PathBuf> {
    let mut found: Vec<PathBuf> = std::fs::read_dir(dir)
        .expect("directory is readable")
        .map(|entry| entry.expect("entry is readable").path().join("Cargo.toml"))
        .filter(|manifest| manifest.is_file())
        .collect();
    found.sort();
    found
}

/// Every package inherits the workspace lint table: a crate missing
/// `[lints] workspace = true` would silently escape `unsafe_code`,
/// `unwrap_used`, the disallowed types and the rest of the invariants
/// in INVARIANTS.md.
#[test]
fn every_manifest_inherits_workspace_lints() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut manifests = vec![root.join("Cargo.toml")];
    manifests.extend(member_manifests(&root.join("crates")));
    manifests.extend(member_manifests(&root.join("tests/lint-fixtures")));
    assert!(manifests.len() >= 14, "found {manifests:?}");
    for manifest in &manifests {
        let text = std::fs::read_to_string(manifest).unwrap();
        assert_eq!(
            toml_table(&text, "lints"),
            ["workspace = true"],
            "{} must inherit the workspace lints",
            manifest.display()
        );
    }
}

/// The negative lint fixtures live in a workspace of their own (so the
/// real workspace stays clean) whose lint table must equal the real
/// one: CI's expectation that clippy fails on each fixture then tests
/// the settings every crate actually runs under.
#[test]
fn lint_fixtures_share_the_workspace_lint_table() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let workspace = std::fs::read_to_string(root.join("Cargo.toml")).unwrap();
    let fixtures = std::fs::read_to_string(root.join("tests/lint-fixtures/Cargo.toml")).unwrap();
    for table in ["workspace.lints.rust", "workspace.lints.clippy"] {
        let expected = toml_table(&workspace, table);
        assert!(!expected.is_empty(), "[{table}] is missing");
        assert_eq!(toml_table(&fixtures, table), expected, "[{table}] drifted");
    }
}
