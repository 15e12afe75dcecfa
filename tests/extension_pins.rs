//! Pinned outputs of the four extension kernels (WCC, Tri, LP, BC) under
//! the cache tracer: the checksum, the full cache counters and the
//! operation count, on fixed graphs. Any change to a kernel's loop
//! structure, tie-breaks, allocation order or touch order shows up here
//! as a changed counter, so the values guard the one-implementation
//! contract: the traced run and the timed run are the same code, and
//! that code does not drift.

use gorder::cachesim::trace::{replay, TraceCtx};
use gorder::cachesim::{CacheHierarchy, HierarchyConfig, Tracer};
use gorder::prelude::*;

/// One pinned observation: checksum, `l1_refs`, `llc_refs`,
/// `hits_per_level` (memory last), `memory_accesses`, `ops`.
type Pin = (u64, u64, u64, &'static [u64], u64, u64);

fn graphs() -> Vec<(&'static str, Graph)> {
    let epinion = gorder::graph::datasets::epinion_like().build(0.05);
    let perm = gorder::orders::by_name("Gorder", 2)
        .unwrap()
        .compute(&epinion);
    vec![
        (
            "tiny",
            Graph::from_edges(6, &[(0, 1), (1, 2), (2, 0), (3, 4), (0, 3), (4, 5)]),
        ),
        (
            "epinion-0.06",
            gorder::graph::datasets::epinion_like().build(0.06),
        ),
        (
            "copying-300",
            gorder::graph::gen::copying_model(300, 5, 0.6, 9),
        ),
        ("epinion-0.05-gorder", epinion.relabel(&perm)),
    ]
}

fn ctx() -> TraceCtx {
    TraceCtx {
        source: None,
        pr_iterations: 7,
        damping: 0.85,
        diameter_samples: 3,
        seed: 3,
    }
}

fn observe(name: &str, g: &Graph) -> (u64, u64, u64, Vec<u64>, u64, u64) {
    let mut t = Tracer::new(CacheHierarchy::new(&HierarchyConfig::scaled_down()));
    let checksum = replay(name, g, &mut t, &ctx()).expect("extension kernel");
    let s = t.stats();
    (
        checksum,
        s.l1_refs,
        s.llc_refs,
        s.hits_per_level,
        s.memory_accesses,
        t.ops(),
    )
}

const PINS: &[(&str, &str, Pin)] = &[
    ("tiny", "WCC", (37, 71, 6, &[65, 0, 0], 6, 0)),
    ("tiny", "Tri", (1, 56, 6, &[50, 0, 0], 6, 25)),
    ("tiny", "LP", (258, 108, 5, &[103, 0, 0], 5, 24)),
    ("tiny", "BC", (2625, 603, 7, &[596, 0, 0], 7, 48)),
    (
        "epinion-0.06",
        "WCC",
        (57601, 13275, 657, &[11898, 720, 209], 448, 0),
    ),
    (
        "epinion-0.06",
        "Tri",
        (2418, 69465, 582, &[67233, 1650, 0], 582, 38276),
    ),
    (
        "epinion-0.06",
        "LP",
        (259, 37668, 1279, &[36387, 2, 846], 433, 17034),
    ),
    (
        "epinion-0.06",
        "BC",
        (358500, 146492, 2639, &[115405, 28448, 2310], 329, 45424),
    ),
    (
        "copying-300",
        "WCC",
        (90001, 7075, 262, &[5764, 1049, 0], 262, 0),
    ),
    (
        "copying-300",
        "Tri",
        (357, 16081, 317, &[15518, 246, 0], 317, 9194),
    ),
    (
        "copying-300",
        "LP",
        (258, 12352, 243, &[11746, 363, 0], 243, 4676),
    ),
    (
        "copying-300",
        "BC",
        (41750, 12911, 171, &[11505, 1235, 0], 171, 1162),
    ),
    (
        "epinion-0.05-gorder",
        "WCC",
        (40001, 11099, 485, &[10124, 490, 109], 376, 0),
    ),
    (
        "epinion-0.05-gorder",
        "Tri",
        (2159, 57897, 487, &[56330, 1080, 0], 487, 31912),
    ),
    (
        "epinion-0.05-gorder",
        "LP",
        (259, 31500, 1069, &[30422, 9, 706], 363, 14250),
    ),
    (
        "epinion-0.05-gorder",
        "BC",
        (281250, 123112, 901, &[101742, 20469, 625], 276, 38000),
    ),
];

#[test]
fn extension_kernels_match_pinned_counters() {
    let mut got = Vec::new();
    for (gname, g) in graphs() {
        for name in ["WCC", "Tri", "LP", "BC"] {
            got.push((gname, name, observe(name, &g)));
        }
    }
    let rendered: Vec<String> = got
        .iter()
        .map(|(g, k, (c, l1, llc, hits, mem, ops))| {
            format!("    (\"{g}\", \"{k}\", ({c}, {l1}, {llc}, &{hits:?}, {mem}, {ops})),")
        })
        .collect();
    assert_eq!(got.len(), PINS.len(), "pins:\n{}", rendered.join("\n"));
    for ((g, k, obs), (pg, pk, pin)) in got.iter().zip(PINS) {
        assert_eq!((*g, *k), (*pg, *pk), "pin table order");
        let (c, l1, llc, hits, mem, ops) = obs;
        assert_eq!(
            (*c, *l1, *llc, hits.as_slice(), *mem, *ops),
            (pin.0, pin.1, pin.2, pin.3, pin.4, pin.5),
            "{k} on {g}"
        );
    }
}
