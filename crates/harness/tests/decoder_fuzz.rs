//! Mutation-fuzz guards for the harness's on-disk decoders: a damaged
//! cache entry (sealed or legacy unsealed) must read as a miss and a
//! damaged journal line must be skipped — never a panic, and never a
//! result that no intact file held.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use s64v_core::{Fingerprint, StableHasher};
use s64v_harness::cache::ResultCache;
use s64v_harness::journal::{journal_path, Journal};
use s64v_harness::supervise::SEAL_MARKER;
use s64v_harness::PointMetrics;
use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;

/// Mutated files per decoder (each is written and read back).
const MUTATIONS: usize = 20_000;

/// One seeded mutation of `base`: one to four bit flips, a truncation,
/// or a splice of a random stretch of `donor` over a random stretch of
/// `base`.
fn mutate(rng: &mut StdRng, base: &[u8], donor: &[u8]) -> Vec<u8> {
    let mut out = base.to_vec();
    match rng.gen_range(0..3u32) {
        0 => {
            for _ in 0..rng.gen_range(1..5usize) {
                let i = rng.gen_range(0..out.len());
                out[i] ^= 1 << rng.gen_range(0..8u32);
            }
        }
        1 => out.truncate(rng.gen_range(0..out.len())),
        _ => {
            let from = rng.gen_range(0..donor.len());
            let piece = &donor[from..rng.gen_range(from..=donor.len())];
            let at = rng.gen_range(0..=out.len());
            let end = rng.gen_range(at..=out.len());
            out.splice(at..end, piece.iter().copied());
        }
    }
    out
}

fn fp(tag: &str) -> Fingerprint {
    let mut h = StableHasher::new();
    h.write_str(tag);
    h.finish()
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("s64v-fuzz-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

fn metrics(scale: u64) -> PointMetrics {
    PointMetrics {
        cycles: 123_456 * scale,
        committed: 100_000 * scale,
        l1i: (12, 3_400),
        l1d: (560, 78_000),
        l2_all: (90, 1_200),
        l2_demand: (34, 560),
        mispredict: (789, 10_000),
        prefetches: 42 * scale,
        mean_load_latency: 3.25,
        stalls: [1, 2, 3, 4, 5, 6, 7],
        cpi: std::array::from_fn(|i| i as u64 * scale),
        ..PointMetrics::default()
    }
}

#[test]
fn damaged_cache_entries_read_as_misses() {
    let dir = temp_dir("cache");
    let cache = ResultCache::open(&dir).expect("open");
    let (key, other) = (fp("fuzz-entry"), fp("fuzz-donor"));
    let (intact, donor_metrics) = (metrics(1), metrics(7));
    cache.store(key, &intact).expect("store");
    cache.store(other, &donor_metrics).expect("store");
    let sealed = std::fs::read(cache.path_of(key)).expect("read");
    let donor = std::fs::read(cache.path_of(other)).expect("read");
    let footer = String::from_utf8_lossy(&sealed).find(SEAL_MARKER);
    let legacy = sealed[..footer.expect("sealed")].to_vec();
    std::fs::write(cache.path_of(key), &legacy).expect("write");
    assert_eq!(cache.load(key), Some(intact.clone()), "legacy entries load");

    let mut rng = StdRng::seed_from_u64(11);
    for case in 0..MUTATIONS {
        let is_sealed = case % 2 == 0;
        let base = if is_sealed { &sealed } else { &legacy };
        let bytes = mutate(&mut rng, base, &donor);
        std::fs::write(cache.path_of(key), &bytes).expect("write");
        let loaded = catch_unwind(AssertUnwindSafe(|| cache.load(key)))
            .unwrap_or_else(|_| panic!("cache load panicked on mutation {case}: {bytes:?}"));
        // Without a checksum a legacy entry can be damaged into another
        // well-formed one; a sealed entry only ever loads as a file that
        // was written whole.
        if is_sealed {
            assert!(
                loaded.is_none()
                    || loaded == Some(intact.clone())
                    || loaded == Some(donor_metrics.clone()),
                "mutation {case} of a sealed entry loaded as {loaded:?}"
            );
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn damaged_journal_lines_are_skipped() {
    let dir = temp_dir("journal");
    let write_journal = |path: &PathBuf, tag: &str| {
        let journal = Journal::open(path).expect("open");
        for i in 0..6 {
            let key = fp(&format!("{tag}{i}"));
            journal.record_ok(key, &format!("SPECint95[{i}] seed=0x2a"));
            if i % 2 == 0 {
                journal.record_retry(key, "retried", "chaos: injected worker panic");
                journal.record_fail(key, "failed", "core 0 wedged :: at cycle 9");
            }
        }
        std::fs::read(path).expect("read")
    };
    let path = journal_path(&dir);
    let donor_path = dir.join("donor.log");
    let journal = write_journal(&path, "base");
    let donor = write_journal(&donor_path, "donor");
    let known: HashSet<Fingerprint> = ["base", "donor"]
        .iter()
        .flat_map(|tag| (0..6).map(move |i| fp(&format!("{tag}{i}"))))
        .collect();
    assert_eq!(Journal::load(&path).completed.len(), 6);

    let mut rng = StdRng::seed_from_u64(12);
    for case in 0..MUTATIONS {
        let bytes = mutate(&mut rng, &journal, &donor);
        std::fs::write(&path, &bytes).expect("write");
        let state = catch_unwind(|| Journal::load(&path))
            .unwrap_or_else(|_| panic!("journal load panicked on mutation {case}: {bytes:?}"));
        let seen = state
            .failed
            .iter()
            .chain(&state.retries)
            .map(|f| &f.fingerprint);
        for key in state.completed.iter().chain(seen) {
            assert!(known.contains(key), "mutation {case} invented point {key}");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}
