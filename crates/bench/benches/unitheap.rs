//! Criterion micro-bench: the unit heap vs `std::collections::BinaryHeap`
//! on Gorder's update mix — the ablation justifying the paper's custom
//! priority structure.
//!
//! The Gorder build coalesces each placement step's ±1 score changes into
//! one net [`UnitHeap::update`] per touched candidate, so the stream here
//! is net updates of mixed sign: about 46% positive, 46% negative (never
//! below zero) and 8% zero-delta refreshes, the split the build issues on
//! twitter-like scale 0.1 (13.7M updates over 15k pops).

use criterion::{criterion_group, criterion_main, Criterion};
use gorder_core::UnitHeap;
use std::collections::BinaryHeap;
use std::hint::black_box;

const N: u32 = 10_000;
const UPDATES_PER_POP: usize = 256;

/// Deterministic pseudo-random index stream.
fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

/// The next net update: a candidate and its key change given its current
/// key (46% up by 1..=3, 46% down by up to 3 but not below zero, 8% zero).
fn next_update(state: &mut u64, key_of: impl Fn(u32) -> u32) -> (u32, i64) {
    let r = xorshift(state);
    let v = (r % u64::from(N)) as u32;
    let mag = ((r >> 32) % 3 + 1) as i64;
    let delta = match (r >> 40) % 100 {
        0..=45 => mag,
        46..=91 => -mag.min(i64::from(key_of(v))),
        _ => 0,
    };
    (v, delta)
}

fn unit_heap_workload() -> u64 {
    let mut h = UnitHeap::new(N);
    let mut state = 0xABCDu64;
    let mut acc = 0u64;
    while let Some(u) = h.pop_max() {
        acc = acc.wrapping_add(u64::from(u));
        for _ in 0..UPDATES_PER_POP {
            let (v, delta) = next_update(&mut state, |v| h.key(v));
            h.update(v, delta);
        }
    }
    acc
}

/// Same workload with a lazy binary heap (stale entries skipped on pop).
/// A zero-delta refresh has nothing to do here: the lazy heap keeps no
/// tie-breaking order to maintain.
fn binary_heap_workload() -> u64 {
    let mut keys = vec![0u32; N as usize];
    let mut alive = vec![true; N as usize];
    let mut heap: BinaryHeap<(u32, u32)> = (0..N).map(|u| (0, u)).collect();
    let mut state = 0xABCDu64;
    let mut acc = 0u64;
    let mut remaining = N;
    while remaining > 0 {
        let (k, u) = heap.pop().expect("entries remain while nodes alive");
        if !alive[u as usize] || k != keys[u as usize] {
            continue;
        }
        alive[u as usize] = false;
        remaining -= 1;
        acc = acc.wrapping_add(u64::from(u));
        for _ in 0..UPDATES_PER_POP {
            let (v, delta) = next_update(&mut state, |v| keys[v as usize]);
            let v = v as usize;
            if alive[v] && delta != 0 {
                keys[v] = (i64::from(keys[v]) + delta) as u32;
                heap.push((keys[v], v as u32));
            }
        }
    }
    acc
}

fn bench_unitheap(c: &mut Criterion) {
    let mut group = c.benchmark_group("priority_queue");
    group.sample_size(10);
    group.bench_function("unit_heap", |b| b.iter(|| black_box(unit_heap_workload())));
    group.bench_function("lazy_binary_heap", |b| {
        b.iter(|| black_box(binary_heap_workload()))
    });
    group.finish();
}

criterion_group!(benches, bench_unitheap);
criterion_main!(benches);
