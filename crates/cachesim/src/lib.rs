//! # gorder-cachesim — cache-hierarchy simulation
//!
//! The paper attributes Gorder's speedups to cache behaviour using
//! hardware performance counters (`perf`/`ocperf`: L1/LLC loads and
//! misses, stall cycles). Hardware counters are neither portable nor
//! available in every environment, so this reproduction substitutes a
//! **transparent software model** (DESIGN.md §3):
//!
//! * [`level::CacheLevel`] — one set-associative, true-LRU cache level;
//! * [`hierarchy::CacheHierarchy`] — an inclusive L1/L2/L3 stack with
//!   per-level reference/miss counters, defaulting to the replication's
//!   Xeon E5-4650L geometry (32 KiB / 256 KiB / 20 MiB, 64-byte lines);
//! * [`stall::StallModel`] — converts hit/miss counts into CPU-execute
//!   vs. cache-stall cycle shares using the replication's own latency
//!   footnote (L1 4 cy, L2 12 cy, L3 42 cy, DRAM ≈ 62 ns);
//! * [`tracer::Tracer`] — virtual address space for the graph's CSR
//!   arrays and the algorithms' property arrays;
//! * [`trace`] — a tracing probe that runs any `gorder-engine` kernel
//!   (the real computation) while feeding every data reference through
//!   the hierarchy.
//!
//! Because the traced run *is* the timed kernel, walking the same CSR
//! arrays in the same order, a node reordering changes the simulated
//! address stream exactly as it would change the hardware one — which is
//! all the paper's Tables 3–4 and Figure 1 measure.

pub mod hierarchy;
pub mod level;
pub mod stall;
pub mod trace;
pub mod tracer;

pub use hierarchy::{CacheHierarchy, CacheStats, HierarchyConfig};
pub use level::{CacheLevel, LevelConfig, LevelStats};
pub use stall::{StallBreakdown, StallModel};
pub use tracer::{CounterSnapshot, Tracer};
