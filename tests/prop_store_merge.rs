//! Property-based losslessness and commutativity of certificate-store
//! merging — the contract the fleet driver's end-of-run merge relies on:
//! `merge(a, b)` and `merge(b, a)` persist *byte-identical* stores, and
//! every cell answerable from either input is answerable from the merge.

use std::sync::Arc;

use canvas_conformance::fleet::{generate_with_threads, GenParams};
use canvas_conformance::incr::store::CertCache;
use canvas_conformance::incr::IncrementalCertifier;
use canvas_conformance::{Certifier, Engine};
use proptest::prelude::*;

fn certifier() -> Certifier {
    Certifier::from_spec(canvas_conformance::easl::builtin::cmp()).expect("cmp derives")
}

/// Populates a fresh store by certifying `sources` through it.
fn populate(sources: &[&str]) -> Arc<CertCache> {
    let cache = Arc::new(CertCache::in_memory());
    let inc = IncrementalCertifier::shared(certifier(), Arc::clone(&cache));
    for src in sources {
        inc.certify_source_cached(src, Engine::ScmpFds).expect("certifies");
    }
    cache
}

/// What [`CertCache::persist`] would write: the sorted `(key, line)` set.
fn persisted_image(cache: &CertCache) -> Vec<(u64, String)> {
    let mut lines: Vec<(u64, String)> =
        cache.export_lines().into_iter().map(|(k, l)| (k.0, l.to_string())).collect();
    lines.sort_by_key(|(k, _)| *k);
    lines
}

/// Merges `a` then `b` into a fresh store.
fn merge_pair(a: &CertCache, b: &CertCache) -> CertCache {
    let merged = CertCache::in_memory();
    merged.merge_from(a);
    merged.merge_from(b);
    merged
}

fn assert_merge_contract(a: &CertCache, b: &CertCache, ctx: &str) {
    let ab = merge_pair(a, b);
    let ba = merge_pair(b, a);
    assert_eq!(
        persisted_image(&ab),
        persisted_image(&ba),
        "{ctx}: merge(a,b) and merge(b,a) must persist byte-identical stores"
    );
    for (name, input) in [("a", a), ("b", b)] {
        for (key, _) in input.export_lines() {
            assert!(
                ab.lookup(key, "any", false, "scmp-fds").is_some(),
                "{ctx}: cell {key} answerable from input {name} but not from the merge"
            );
        }
    }
    let union: std::collections::BTreeSet<u64> =
        a.export_lines().iter().chain(b.export_lines().iter()).map(|(k, _)| k.0).collect();
    assert_eq!(ab.len(), union.len(), "{ctx}: merge holds exactly the union of keys");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Two stores populated from overlapping random slices of a synthetic
    /// corpus merge losslessly and commutatively — byte-identical
    /// persisted images either way round, no cell lost.
    #[test]
    fn merge_is_commutative_and_lossless_on_random_corpora(
        seed in 0u64..200,
        split in 2usize..7,
        overlap in 0usize..4,
    ) {
        let params = GenParams { programs: 8, seed, ..GenParams::default() };
        let corpus = generate_with_threads(&params, 1).expect("generation succeeds");
        let sources: Vec<&str> = corpus.iter().map(|p| p.source.as_str()).collect();
        let cut = split.min(sources.len());
        let back = cut.saturating_sub(overlap);
        let a = populate(&sources[..cut]);
        let b = populate(&sources[back..]);
        assert_merge_contract(&a, &b, &format!("seed {seed} split {cut} overlap {overlap}"));
    }
}

/// The conflict case the fleet hits in practice: two shards answer the
/// *same* cell key with different bytes (a from-scratch solve vs a
/// delta-seeded re-solve record different `work`). Merge must still be
/// order-independent — the resolution is deterministic, not receiver-wins.
#[test]
fn conflicting_entries_resolve_order_independently() {
    let original = "class Main {\n    static void main() {\n        Set s = new Set();\n        s.add(\"x\");\n        Iterator i = s.iterator();\n        i.next();\n    }\n}\n";
    let edited = original.replace("s.add(\"x\");", "s.add(\"x\");\n        s.add(\"y\");");

    // Store a: certifies the original cold.
    let a = populate(&[original]);
    // Store b: certifies the edit first, then the original — the second
    // run is a delta-seeded re-solve of the same final cell key, so b can
    // hold different bytes under a key a also holds.
    let b = Arc::new(CertCache::in_memory());
    let inc = IncrementalCertifier::shared(certifier(), Arc::clone(&b));
    inc.certify_source_cached(&edited, Engine::ScmpFds).expect("edited certifies");
    inc.certify_source_cached(original, Engine::ScmpFds).expect("original certifies");

    assert_merge_contract(&a, &b, "delta-seeded conflict");

    // Whatever line won, both merge orders agree on the winning bytes.
    let ab = merge_pair(&a, &b);
    let ba = merge_pair(&b, &a);
    assert_eq!(persisted_image(&ab), persisted_image(&ba));

    // The same conflict with the receiver's entry in the spill tier: a
    // disk-backed receiver whose one-byte budget admits nothing to the hot
    // tier, so every line it holds is spilled when the donor arrives. The
    // smaller line still wins, and both orders persist the same file.
    let base = std::env::temp_dir().join(format!("canvas-prop-spill-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let mut files = Vec::new();
    for (name, first, second) in [("ab", &a, &b), ("ba", &b, &a)] {
        let dir = base.join(name);
        let disk = CertCache::open_budgeted(&dir, Some(1));
        disk.merge_from(first);
        assert_eq!(disk.memory_entries(), 0, "{name}: the receiver holds only spilled lines");
        let stats = disk.merge_from(second);
        assert!(stats.conflicts > 0, "{name}: the conflict must meet a spilled entry");
        assert_eq!(
            persisted_image(&disk),
            persisted_image(&ab),
            "{name}: the spill tier must keep the same winning lines as the hot tier"
        );
        disk.persist().expect("persist");
        files.push(std::fs::read(dir.join("certs.v2")).expect("read back"));
    }
    assert_eq!(files[0], files[1], "spilled merge files must be byte-identical");
    let _ = std::fs::remove_dir_all(&base);
}

/// On-disk corroboration: the two merge orders persist files with
/// identical bytes, and a store reopened from either file answers every
/// merged cell.
#[test]
fn merged_stores_persist_byte_identical_files() {
    let params = GenParams { programs: 6, seed: 77, ..GenParams::default() };
    let corpus = generate_with_threads(&params, 1).expect("generation succeeds");
    let sources: Vec<&str> = corpus.iter().map(|p| p.source.as_str()).collect();
    let a = populate(&sources[..4]);
    let b = populate(&sources[2..]);

    let base = std::env::temp_dir().join(format!("canvas-prop-merge-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let mut files = Vec::new();
    for (name, first, second) in [("ab", &a, &b), ("ba", &b, &a)] {
        let dir = base.join(name);
        std::fs::create_dir_all(&dir).expect("mkdir");
        let disk = CertCache::open(&dir);
        disk.merge_from(first);
        disk.merge_from(second);
        disk.persist().expect("persist");
        files.push(std::fs::read(dir.join("certs.v2")).expect("read back"));
    }
    assert_eq!(files[0], files[1], "persisted merge files must be byte-identical");

    let reopened = CertCache::open(&base.join("ab"));
    for (key, _) in a.export_lines().into_iter().chain(b.export_lines()) {
        assert!(reopened.lookup(key, "any", false, "scmp-fds").is_some(), "cell {key} lost");
    }
    let _ = std::fs::remove_dir_all(&base);
}
