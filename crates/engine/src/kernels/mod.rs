//! The thirteen kernels, each implemented once against the engine's
//! [`Kernel`](crate::Kernel) trait and [`Probe`](crate::Probe)
//! abstraction: the paper's nine ([`PAPER_KERNELS`](crate::PAPER_KERNELS))
//! and the four extensions that test its claim that Gorder "could speed
//! up other graph algorithms as well"
//! ([`EXTENSION_KERNELS`](crate::EXTENSION_KERNELS)).
//!
//! Every module exposes the kernel state machine (`*Kernel`), a rich
//! result struct, and a result-returning convenience function for
//! library use. The same code is timed under `NoProbe` and drives the
//! cache model under the simulator's tracing probe, so a kernel's wall
//! time and its simulated counters always describe one implementation.

pub mod betweenness;
pub mod bfs;
pub mod dfs;
pub mod diameter;
pub mod domset;
pub mod kcore;
pub mod labelprop;
pub mod nq;
pub mod pagerank;
pub mod scc;
pub mod sp;
pub mod triangles;
pub mod wcc;
