//! Golden permutation digests: every ordering in the extended registry,
//! on one representative of each generated family (web / ER / grid /
//! social), at threads {1, 4}, must keep producing the exact permutation
//! it produced when `tests/golden/perm_digests.txt` was committed.
//!
//! This is the proof obligation for hot-path work on the Gorder build
//! loop (delta coalescing, heap changes, partition refactors): such
//! optimisations must be **permutation-preserving**, and a digest drift
//! here means tie-breaking or placement order changed, not just speed.
//! The web/ER/grid digests were generated *before* the coalesced-delta
//! optimisation landed, so they pin the original per-unit-update
//! semantics. The social digests (twitter-like, scale 0.02: power-law
//! hubs whose in-lists the build walks thousands of times) were appended
//! before the branchless delta scratch and the one-record-per-node unit
//! heap landed; earlier lines were left byte-identical.
//!
//! Regenerate (only when an ordering's output is *intentionally*
//! changed) with:
//!
//! ```text
//! GORDER_UPDATE_GOLDENS=1 cargo test --test golden_perms
//! ```

use gorder_core::budget::Budget;
use gorder_graph::datasets::twitter_like;
use gorder_graph::gen::{erdos_renyi, web_graph, WebGraphConfig};
use gorder_graph::Graph;
use gorder_orders::{extended_names, run_by_name_plan, ExecPlan};
use std::path::PathBuf;

const SEED: u64 = 13;

/// The parallel differential suite's three families — a host-structured
/// web graph, uniform ER, and a regular 2-D grid — plus a hub-heavy
/// social graph, appended last so the earlier lines keep their place.
fn test_graphs() -> Vec<(&'static str, Graph)> {
    let web = web_graph(WebGraphConfig {
        n: 300,
        mean_host_size: 12,
        seed: 5,
        ..Default::default()
    });
    let er = erdos_renyi(250, 800, 7);
    let side = 16u32;
    let mut edges = Vec::new();
    for r in 0..side {
        for c in 0..side {
            let u = r * side + c;
            if c + 1 < side {
                edges.push((u, u + 1));
                edges.push((u + 1, u));
            }
            if r + 1 < side {
                edges.push((u, u + side));
                edges.push((u + side, u));
            }
        }
    }
    let grid = Graph::from_edges(side * side, &edges);
    let social = twitter_like().build(0.02);
    vec![("web", web), ("er", er), ("grid", grid), ("social", social)]
}

/// FNV-1a over the permutation's `old id → new id` map, little-endian.
fn perm_digest(perm: &[u32]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &v in perm {
        for b in v.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/perm_digests.txt")
}

fn render_current() -> String {
    let mut out = String::new();
    for (tag, g) in test_graphs() {
        for name in extended_names() {
            for threads in [1u32, 4] {
                let run = run_by_name_plan(
                    name,
                    SEED,
                    &g,
                    ExecPlan::with_threads(threads),
                    &Budget::unlimited(),
                )
                .unwrap_or_else(|| panic!("{name} missing from the registry"))
                .value()
                .unwrap_or_else(|| panic!("{name} failed under an unlimited budget"));
                out.push_str(&format!(
                    "{tag} {name} t={threads} {:016x}\n",
                    perm_digest(run.perm.as_slice())
                ));
            }
        }
    }
    out
}

#[test]
fn registry_covers_fourteen_orderings() {
    assert_eq!(
        extended_names().len(),
        14,
        "the extended registry grew or shrank; regenerate perm_digests.txt \
         and update this count"
    );
}

#[test]
fn permutations_match_golden_digests() {
    let current = render_current();
    let path = golden_path();
    if std::env::var_os("GORDER_UPDATE_GOLDENS").is_some() {
        std::fs::write(&path, &current).expect("write golden digests");
        return;
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden snapshot {}: {e}", path.display()));
    for (got, expect) in current.lines().zip(want.lines()) {
        assert_eq!(
            got, expect,
            "permutation drifted from its committed digest — an ordering \
             changed its output; if intentional, regenerate with \
             GORDER_UPDATE_GOLDENS=1 cargo test --test golden_perms"
        );
    }
    assert_eq!(
        current.lines().count(),
        want.lines().count(),
        "digest line count changed; regenerate tests/golden/perm_digests.txt"
    );
}
