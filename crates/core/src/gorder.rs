//! The Gorder windowed greedy (Algorithm GO of the paper).
//!
//! Gorder lays nodes out one at a time. At every step it appends the
//! unplaced node with the highest total proximity `Σ S(·, v)` to the nodes
//! `v` currently inside the trailing window of size `w`. Because each
//! window entry/exit changes any candidate's score by exactly ±1 per shared
//! relationship, all score maintenance runs on the O(1)-update
//! [`UnitHeap`]:
//!
//! * when `v` **enters** the window: `+1` to every out-neighbour of `v`
//!   (edge `v → u`), `+1` to every in-neighbour of `v` (edge `u → v`), and
//!   `+1` to every other out-neighbour `u` of every in-neighbour `x` of `v`
//!   (the common in-neighbour `x` makes `u` and `v` siblings);
//! * when `v` **exits** the window (it was placed `w` steps ago): the same
//!   updates with `−1`.
//!
//! The paper proves this greedy achieves at least `1/(2w)` of the optimal
//! `F(π)` and observes that propagating sibling updates *through* very
//! high-degree hubs dominates the running time on power-law graphs, so the
//! implementation may skip propagation through hubs above a degree
//! threshold (see [`GorderBuilder::hub_threshold`]).
//!
//! ## Coalesced window deltas
//!
//! A candidate is typically touched several times per placement step —
//! once per shared relationship with the entering node, and again with
//! opposite sign for the exiting one. Issuing each `±1` as its own heap
//! operation turns every touch into an unlink + push on the bucket lists
//! (random accesses to the node and both its neighbours). Instead, the build
//! loop accumulates the step's enter **and** exit deltas into a reusable
//! dense scratch buffer (`DeltaScratch`) keyed by candidate, pre-filters
//! already-placed candidates with a per-node live flag before any heap
//! work, and then applies **one net [`UnitHeap::update`] per touched
//! candidate**.
//!
//! The coalesced path is permutation-preserving: within a bucket the unit
//! heap pops in LIFO order of the last key change, so replaying each
//! candidate's *final* state in the order of its *last* touch in the unit
//! stream reproduces the per-unit bucket layout exactly — including
//! net-zero touches, which still move a candidate to its bucket head (see
//! `reference` in this module's tests for the per-unit oracle the
//! equivalence is checked against, and `tests/golden_perms.rs` for the
//! pre-optimisation digests).

use crate::budget::{Budget, DegradeReason, ExecOutcome, CHECK_STRIDE};
use crate::unitheap::UnitHeap;
use gorder_graph::{Graph, NodeId, Permutation};

/// Configuration builder for [`Gorder`].
///
/// ```
/// use gorder_core::GorderBuilder;
/// let gorder = GorderBuilder::new().window(5).build();
/// ```
#[derive(Debug, Clone)]
pub struct GorderBuilder {
    window: u32,
    hub_threshold: Option<u32>,
}

impl GorderBuilder {
    /// Defaults: `window = 5` (the paper's choice), exact sibling
    /// propagation (no hub skipping). Skipping saves time on graphs whose
    /// hubs have extreme *out*-degree, but silently weakens the sibling
    /// signal exactly where it is strongest (e.g. hub-centred blocks), so
    /// it is opt-in via [`GorderBuilder::hub_threshold`].
    pub fn new() -> Self {
        GorderBuilder {
            window: 5,
            hub_threshold: None,
        }
    }

    /// Window size `w ≥ 1`. The paper tunes this on PageRank/flickr and
    /// settles on 5 (its Figure 8; the replication's Figure 4 finds a
    /// slightly better plateau at 64–2048, at higher ordering cost).
    pub fn window(mut self, w: u32) -> Self {
        assert!(w >= 1, "window must be at least 1");
        self.window = w;
        self
    }

    /// Sibling updates are not propagated through in-neighbours whose
    /// out-degree exceeds this threshold (`None` = exact, the default).
    /// This is the paper's practical optimisation for power-law hubs;
    /// enable it when `Σ out-degree²` makes exact propagation too slow,
    /// at some cost in ordering quality around hub-centred blocks.
    pub fn hub_threshold(mut self, t: Option<u32>) -> Self {
        self.hub_threshold = t;
        self
    }

    /// Finalises the configuration.
    pub fn build(self) -> Gorder {
        Gorder {
            window: self.window,
            hub_threshold: self.hub_threshold,
        }
    }
}

impl Default for GorderBuilder {
    fn default() -> Self {
        GorderBuilder::new()
    }
}

/// Counters describing one Gorder run (for tests, ablations and the
/// scalability analysis of Table 2).
///
/// These are plain data: registry export happens exactly once per run,
/// in the unified ordering runner (`gorder_orders::run_ordering`), which
/// folds these counters into its `OrderStats` — never here, so a run
/// can't double-count depending on which compute path the caller took.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GorderStats {
    /// Coalesced heap updates applied with a **positive** net key change
    /// (one per touched candidate per placement step, not one per `+1`).
    pub increments: u64,
    /// Coalesced heap updates applied with a **negative** net key change.
    pub decrements: u64,
    /// Total max-key pops from the unit heap (one per greedily placed
    /// node after the seed).
    pub pops: u64,
    /// Sibling propagations skipped due to the hub threshold.
    pub hub_skips: u64,
    /// Coalesced heap updates whose net key change was **zero** — pure
    /// bucket-position refreshes, applied only to keep the per-unit
    /// LIFO tie-breaking intact.
    pub refreshes: u64,
}

impl GorderStats {
    /// Merges another run's (or chunk's) counters into this one — how
    /// the partition-parallel driver aggregates per-worker stats.
    pub fn merge(&mut self, other: &GorderStats) {
        self.increments += other.increments;
        self.decrements += other.decrements;
        self.pops += other.pops;
        self.hub_skips += other.hub_skips;
        self.refreshes += other.refreshes;
    }

    /// Total heap bucket moves this run performed (every coalesced
    /// update is exactly one unlink + push, whatever its net sign).
    pub fn heap_updates(&self) -> u64 {
        self.increments + self.decrements + self.refreshes
    }
}

/// Reusable per-run scratch for coalescing one placement step's window
/// deltas: a dense net-delta buffer keyed by candidate plus the touch
/// stream needed to replay candidates in last-touch order. All buffers
/// are allocated once per run and cleared incrementally (`pending` only
/// at the entries actually touched, epochs make its stamps reusable), so
/// steady-state steps do no allocation.
struct DeltaScratch {
    /// Per candidate: the net pending key change (non-zero only between
    /// `accumulate` and `flush` for touched candidates) and the epoch
    /// stamp backing the dedup, side by side so each pass over a
    /// candidate touches one cache line.
    pending: Vec<(i32, u32)>,
    /// Every live touch of this step in the exact per-unit stream order,
    /// in `events[..len]`; never longer than those plus one list.
    events: Vec<NodeId>,
    len: usize,
    /// Current dedup epoch; bumped once per flush (`n` per run), so it
    /// fits a `u32`.
    epoch: u32,
    /// 1 while a candidate is unplaced, 0 once laid out: placed
    /// candidates are filtered here, before any heap lookup.
    live: Vec<u8>,
}

impl DeltaScratch {
    fn new(n: u32) -> Self {
        let n = n as usize;
        DeltaScratch {
            pending: vec![(0, 0); n],
            events: Vec::new(),
            len: 0,
            epoch: 0,
            live: vec![1; n],
        }
    }

    /// Touches every candidate in `list` with `sign`, in order, without
    /// branching: a placed candidate adds 0 to its delta, and its event
    /// slot is overwritten by the next touch.
    #[inline]
    fn touch_all(&mut self, list: &[NodeId], sign: i32) {
        if self.events.len() < self.len + list.len() {
            self.events.resize(self.len + list.len(), 0);
        }
        for &u in list {
            let live = self.live[u as usize];
            self.pending[u as usize].0 += sign * i32::from(live);
            self.events[self.len] = u;
            self.len += usize::from(live);
        }
    }

    /// Accumulates the ±1 score updates triggered by `v` entering
    /// (`sign = 1`) or leaving (`sign = -1`) the window, in the exact
    /// order the per-unit implementation issued them. `v` itself is
    /// placed either way, so the live filter drops its own touches.
    fn accumulate(
        &mut self,
        g: &Graph,
        v: NodeId,
        sign: i32,
        hub_threshold: u32,
        stats: &mut GorderStats,
    ) {
        // Neighbour score via out-edges of v: S_n(u, v) counts edge v → u.
        self.touch_all(g.out_neighbors(v), sign);
        for x in g.in_neighbors(v) {
            // Neighbour score via in-edges of v: S_n counts edge x → v.
            self.touch_all(std::slice::from_ref(x), sign);
            // Sibling score: x is a common in-neighbour of v and of every
            // other out-neighbour u of x.
            if g.out_degree(*x) > hub_threshold {
                stats.hub_skips += 1;
                continue;
            }
            self.touch_all(g.out_neighbors(*x), sign);
        }
    }

    /// Applies one net heap update per touched candidate, in the order
    /// of each candidate's **last** touch in the accumulated stream.
    ///
    /// That order is the tie-breaking contract: the unit heap pops LIFO
    /// within a bucket, and under per-unit updates a candidate ends up
    /// at the head of its final bucket at the moment of its last touch.
    /// Replaying final states in last-touch order (net-zero refreshes
    /// included) therefore reproduces the per-unit bucket layout — and
    /// the permutation — byte for byte.
    fn flush(&mut self, heap: &mut UnitHeap, stats: &mut GorderStats) {
        self.epoch += 1;
        // Branch-free dedup in place, back to front: every event is
        // written to the free slot nearest the end, which only a first
        // sighting claims. Slots at or after the scan position are
        // already read, so `events[kept..len]` ends up holding each
        // candidate once, in last-touch order.
        let mut kept = self.len;
        for i in (0..self.len).rev() {
            let u = self.events[i];
            let seen = &mut self.pending[u as usize].1;
            let fresh = *seen != self.epoch;
            *seen = self.epoch;
            self.events[kept - 1] = u;
            kept -= usize::from(fresh);
        }
        let k = self.len - kept;
        let (mut up, mut down) = (0, 0);
        for &u in &self.events[kept..self.len] {
            let d = std::mem::take(&mut self.pending[u as usize].0);
            heap.update(u, i64::from(d));
            up += u64::from(d > 0);
            down += u64::from(d < 0);
        }
        stats.increments += up;
        stats.decrements += down;
        stats.refreshes += k as u64 - up - down;
        self.len = 0;
    }
}

/// The configured Gorder ordering algorithm. See the module docs.
#[derive(Debug, Clone)]
pub struct Gorder {
    window: u32,
    hub_threshold: Option<u32>,
}

impl Gorder {
    /// Gorder with the paper's defaults (`w = 5`).
    pub fn with_defaults() -> Self {
        GorderBuilder::new().build()
    }

    /// The configured window size.
    pub fn window_size(&self) -> u32 {
        self.window
    }

    /// The configured hub threshold (`None` = exact propagation).
    pub fn hub_threshold(&self) -> Option<u32> {
        self.hub_threshold
    }

    /// Computes the Gorder permutation (`old id → new id`).
    pub fn compute(&self, g: &Graph) -> Permutation {
        self.compute_with_stats(g).0
    }

    /// Computes the permutation along with update counters.
    pub fn compute_with_stats(&self, g: &Graph) -> (Permutation, GorderStats) {
        let _span = gorder_obs::span("gorder.build");
        let n = g.n();
        if n == 0 {
            return (Permutation::identity(0), GorderStats::default());
        }
        let (placement, stats, stop) = self.greedy(g, None);
        debug_assert!(stop.is_none(), "unbudgeted greedy cannot stop early");
        let perm = Permutation::from_placement(&placement)
            .expect("greedy placement covers every node exactly once");
        (perm, stats)
    }

    /// The windowed greedy build loop shared by the plain and budgeted
    /// entry points. Returns the (possibly partial, if the budget ran
    /// out) placement, the run counters, and the degrade reason if any.
    fn greedy(
        &self,
        g: &Graph,
        budget: Option<&Budget>,
    ) -> (Vec<NodeId>, GorderStats, Option<DegradeReason>) {
        let n = g.n();
        let w = self.window as usize;
        let hub = self.hub_threshold.unwrap_or(u32::MAX);
        let mut stats = GorderStats::default();
        let mut placement: Vec<NodeId> = Vec::with_capacity(n as usize);

        // Checked before the seed is placed so that a zero budget degrades
        // all the way down the ladder to pure ChDFS.
        let mut stop = budget.and_then(|b| b.exhausted(0));
        if stop.is_none() {
            let mut heap = UnitHeap::new(n);
            let mut scratch = DeltaScratch::new(n);
            // Seed with the highest in-degree node: it has the most
            // siblings to pull in behind it. Ties break toward the
            // smallest id.
            let seed = (0..n)
                .max_by_key(|&u| (g.in_degree(u), std::cmp::Reverse(u)))
                .expect("non-empty graph");
            heap.remove(seed);
            scratch.live[seed as usize] = 0;
            placement.push(seed);
            scratch.accumulate(g, seed, 1, hub, &mut stats);
            scratch.flush(&mut heap, &mut stats);

            while let Some(v) = heap.pop_max() {
                stats.pops += 1;
                scratch.live[v as usize] = 0;
                placement.push(v);
                scratch.accumulate(g, v, 1, hub, &mut stats);
                if placement.len() > w {
                    let expiring = placement[placement.len() - 1 - w];
                    scratch.accumulate(g, expiring, -1, hub, &mut stats);
                }
                // One net heap update per candidate the enter + exit
                // deltas touched, instead of a stream of ±1 operations.
                scratch.flush(&mut heap, &mut stats);
                if let Some(b) = budget {
                    let done = placement.len() as u64;
                    if done.is_multiple_of(CHECK_STRIDE) {
                        stop = b.exhausted(done);
                        if stop.is_some() {
                            break;
                        }
                    }
                }
            }
        }
        (placement, stats, stop)
    }

    /// Anytime variant of [`Gorder::compute`]: runs the greedy under a
    /// [`Budget`], and on exhaustion appends every unplaced node in
    /// children-first DFS discovery order (the ChDFS baseline restricted
    /// to the unplaced remainder). The result is always a valid
    /// permutation; a degraded one interpolates between full Gorder and
    /// pure ChDFS — with a zero budget it *is* exactly ChDFS.
    pub fn compute_budgeted(&self, g: &Graph, budget: &Budget) -> ExecOutcome<Permutation> {
        self.compute_budgeted_with_stats(g, budget).0
    }

    /// Like [`Gorder::compute_budgeted`] but also returns the heap update
    /// counters accumulated before the budget ran out.
    pub fn compute_budgeted_with_stats(
        &self,
        g: &Graph,
        budget: &Budget,
    ) -> (ExecOutcome<Permutation>, GorderStats) {
        if budget.is_unlimited() {
            let (perm, stats) = self.compute_with_stats(g);
            return (ExecOutcome::Completed(perm), stats);
        }
        let n = g.n();
        if n == 0 {
            return (
                ExecOutcome::Completed(Permutation::identity(0)),
                GorderStats::default(),
            );
        }
        let _span = gorder_obs::span("gorder.build");
        let (mut placement, stats, stop) = self.greedy(g, Some(budget));
        let outcome = match stop {
            None => {
                let perm = Permutation::from_placement(&placement)
                    .expect("greedy placement covers every node exactly once");
                ExecOutcome::Completed(perm)
            }
            Some(reason) => {
                chdfs_fill(g, &mut placement);
                let perm = Permutation::from_placement(&placement)
                    .expect("DFS fill covers every remaining node exactly once");
                ExecOutcome::Degraded(perm, reason)
            }
        };
        (outcome, stats)
    }
}

/// Appends every node not yet in `placement` in children-first DFS
/// discovery order, starting from the unplaced node of maximum total
/// degree (ties to the smallest id) with id-order restarts — the exact
/// traversal of the ChDFS baseline, restricted to the unplaced set.
fn chdfs_fill(g: &Graph, placement: &mut Vec<NodeId>) {
    let n = g.n();
    let mut seen = vec![false; n as usize];
    for &u in placement.iter() {
        seen[u as usize] = true;
    }
    let start = (0..n)
        .filter(|&u| !seen[u as usize])
        .max_by_key(|&u| (g.degree(u), std::cmp::Reverse(u)));
    let Some(start) = start else { return };
    let mut stack: Vec<(NodeId, u32)> = Vec::new();
    for s in std::iter::once(start).chain(g.nodes()) {
        if seen[s as usize] {
            continue;
        }
        seen[s as usize] = true;
        placement.push(s);
        stack.push((s, 0));
        while let Some(&mut (u, ref mut next)) = stack.last_mut() {
            let ns = g.out_neighbors(u);
            let mut advanced = false;
            while (*next as usize) < ns.len() {
                let v = ns[*next as usize];
                *next += 1;
                if !seen[v as usize] {
                    seen[v as usize] = true;
                    placement.push(v);
                    stack.push((v, 0));
                    advanced = true;
                    break;
                }
            }
            if !advanced {
                stack.pop();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::score::{f_score_of, pair_score};
    use gorder_graph::datasets::twitter_like;
    use gorder_graph::gen::{copying_model, preferential_attachment, PrefAttachConfig};
    use gorder_graph::GraphBuilder;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The pre-coalescing build loop, kept verbatim as the tie-breaking
    /// oracle: every score change is issued as its own ±1 heap operation,
    /// in stream order. The coalesced hot path must reproduce this
    /// placement byte for byte; `unit_ops` counts the heap operations it
    /// avoided.
    mod reference {
        use super::*;

        fn apply_delta(
            g: &Graph,
            v: NodeId,
            add: bool,
            hub_threshold: u32,
            heap: &mut UnitHeap,
            unit_ops: &mut u64,
        ) {
            let mut bump = |heap: &mut UnitHeap, u: NodeId| {
                if add {
                    heap.increment(u);
                } else {
                    heap.decrement(u);
                }
                *unit_ops += 1;
            };
            for &u in g.out_neighbors(v) {
                bump(heap, u);
            }
            for &x in g.in_neighbors(v) {
                bump(heap, x);
                if g.out_degree(x) > hub_threshold {
                    continue;
                }
                for &u in g.out_neighbors(x) {
                    if u != v {
                        bump(heap, u);
                    }
                }
            }
        }

        /// Per-unit-update Gorder: the exact pre-optimisation algorithm.
        pub fn compute(gorder: &Gorder, g: &Graph) -> (Vec<NodeId>, u64) {
            let n = g.n();
            let mut unit_ops = 0u64;
            let mut placement: Vec<NodeId> = Vec::with_capacity(n as usize);
            if n == 0 {
                return (placement, unit_ops);
            }
            let w = gorder.window_size() as usize;
            let hub = gorder.hub_threshold().unwrap_or(u32::MAX);
            let mut heap = UnitHeap::new(n);
            let seed = (0..n)
                .max_by_key(|&u| (g.in_degree(u), std::cmp::Reverse(u)))
                .expect("non-empty graph");
            heap.remove(seed);
            placement.push(seed);
            apply_delta(g, seed, true, hub, &mut heap, &mut unit_ops);
            while let Some(v) = heap.pop_max() {
                placement.push(v);
                apply_delta(g, v, true, hub, &mut heap, &mut unit_ops);
                if placement.len() > w {
                    let expiring = placement[placement.len() - 1 - w];
                    apply_delta(g, expiring, false, hub, &mut heap, &mut unit_ops);
                }
            }
            (placement, unit_ops)
        }
    }

    #[test]
    fn coalesced_build_matches_per_unit_reference_exactly() {
        // The tentpole's proof: across graph families, window sizes, and
        // hub thresholds, the coalesced hot path reproduces the per-unit
        // placement byte for byte while performing strictly fewer heap
        // operations.
        let graphs = [
            ("social", social(400)),
            ("copying", copying_model(350, 6, 0.7, 21)),
            (
                "sparse",
                Graph::from_edges(8, &[(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]),
            ),
            ("twitter", twitter_like().build(0.01)),
            ("self-loops", self_loops_and_shared_in_neighbours()),
        ];
        for (tag, g) in &graphs {
            for w in [1u32, 2, 5, 64] {
                for hub in [None, Some(2), Some(8)] {
                    let gorder = GorderBuilder::new().window(w).hub_threshold(hub).build();
                    let (ref_placement, unit_ops) = reference::compute(&gorder, g);
                    let (perm, stats) = gorder.compute_with_stats(g);
                    assert_eq!(
                        perm.placement(),
                        ref_placement,
                        "{tag} w={w} hub={hub:?}: coalesced placement diverged \
                         from the per-unit reference"
                    );
                    assert!(
                        stats.heap_updates() < unit_ops,
                        "{tag} w={w} hub={hub:?}: coalescing must cut heap ops \
                         ({} vs {unit_ops} unit updates)",
                        stats.heap_updates()
                    );
                }
            }
        }
    }

    /// Every node has a self-loop, and nodes 0 and 1 point at every
    /// other node, so the window's members share both in-neighbours: each
    /// step walks out-lists that hold the entering node itself, the
    /// expiring node, and nodes still inside the window.
    fn self_loops_and_shared_in_neighbours() -> Graph {
        let n = 24;
        let mut b = GraphBuilder::new(n).keep_self_loops(true);
        for u in 0..n {
            b.add_edge(u, u);
            b.add_edge(u, (u * 7 + 3) % n);
            if u >= 2 {
                b.add_edge(0, u);
                b.add_edge(1, u);
            }
        }
        b.build()
    }

    #[test]
    fn twitter_counters_are_pinned() {
        // The counters the benchmark reports as `core.heap_updates` and
        // `core.heap_pops`, pinned on a hub-heavy input: a hot-path change
        // must leave the coalesced update stream exactly as it is.
        let g = twitter_like().build(0.02);
        let (_, stats) = Gorder::with_defaults().compute_with_stats(&g);
        assert_eq!(
            stats,
            GorderStats {
                increments: 726_872,
                decrements: 731_157,
                pops: 2_999,
                hub_skips: 0,
                refreshes: 203_725,
            }
        );
    }

    fn social(n: u32) -> Graph {
        preferential_attachment(PrefAttachConfig {
            n,
            out_degree: 6,
            reciprocity: 0.3,
            uniform_mix: 0.1,
            closure_prob: 0.3,
            recency_bias: 0.3,
            seed: 13,
        })
    }

    fn assert_valid_perm(perm: &Permutation, n: u32) {
        assert_eq!(perm.len(), n);
        let mut seen = vec![false; n as usize];
        for u in 0..n {
            let p = perm.apply(u) as usize;
            assert!(!seen[p], "duplicate target {p}");
            seen[p] = true;
        }
    }

    #[test]
    fn produces_valid_permutation() {
        let g = social(500);
        let perm = Gorder::with_defaults().compute(&g);
        assert_valid_perm(&perm, 500);
    }

    #[test]
    fn deterministic() {
        let g = social(300);
        let gorder = Gorder::with_defaults();
        assert_eq!(gorder.compute(&g).as_slice(), gorder.compute(&g).as_slice());
    }

    #[test]
    fn beats_random_on_f_score() {
        let g = copying_model(600, 8, 0.7, 21);
        let w = 5;
        let perm = GorderBuilder::new().window(w).build().compute(&g);
        let random = Permutation::random(g.n(), &mut StdRng::seed_from_u64(3));
        let f_gorder = f_score_of(&g, &perm, w);
        let f_random = f_score_of(&g, &random, w);
        assert!(
            f_gorder > 2 * f_random,
            "gorder F = {f_gorder} should dominate random F = {f_random}"
        );
    }

    #[test]
    fn beats_original_on_f_score_for_shuffled_input() {
        // Shuffle a structured graph so the identity order carries no
        // signal, then check Gorder rediscovers locality.
        let g0 = copying_model(500, 6, 0.7, 5);
        let shuffle = Permutation::random(g0.n(), &mut StdRng::seed_from_u64(17));
        let g = g0.relabel(&shuffle);
        let w = 5;
        let perm = GorderBuilder::new().window(w).build().compute(&g);
        let f_gorder = f_score_of(&g, &perm, w);
        let f_identity = f_score_of(&g, &Permutation::identity(g.n()), w);
        assert!(
            f_gorder > f_identity,
            "gorder F = {f_gorder} vs identity F = {f_identity}"
        );
    }

    #[test]
    fn greedy_picks_max_score_neighbor_on_toy_graph() {
        // Star with a tail: node 0 points at 1..=4; node 5 shares all of
        // 0's targets (siblings). Greedy seeded at the max in-degree node
        // must keep sibling-rich nodes adjacent.
        let mut edges = vec![];
        for t in 1..=4 {
            edges.push((0u32, t));
            edges.push((5u32, t));
        }
        let g = Graph::from_edges(6, &edges);
        let perm = GorderBuilder::new().window(3).build().compute(&g);
        let placement = perm.placement();
        // 0 and 5 both have in-degree 0 and share 4 sibling relations with
        // each of 1..=4; whichever of 1..=4 is placed first, the strong
        // mutual siblings 1..=4 must cluster: check that consecutive
        // placement pairs have positive scores where possible.
        let mut positive_adjacent = 0;
        for pair in placement.windows(2) {
            if pair_score(&g, pair[0], pair[1]) > 0 {
                positive_adjacent += 1;
            }
        }
        assert!(positive_adjacent >= 4, "placement {placement:?}");
    }

    #[test]
    fn greedy_always_picks_a_max_score_node() {
        // Oracle: replay the placement and verify every chosen node ties
        // the true maximum of Σ_{v ∈ window} S(·, v) over unplaced nodes.
        let g = copying_model(60, 4, 0.6, 11);
        let w = 4usize;
        let placement = GorderBuilder::new()
            .window(w as u32)
            .build()
            .compute(&g)
            .placement();
        let mut placed = vec![false; g.n() as usize];
        placed[placement[0] as usize] = true;
        for i in 1..placement.len() {
            let window = &placement[i.saturating_sub(w)..i];
            let score_of = |u: u32| -> u64 { window.iter().map(|&v| pair_score(&g, u, v)).sum() };
            let chosen = score_of(placement[i]);
            let best = (0..g.n())
                .filter(|&u| !placed[u as usize])
                .map(score_of)
                .max()
                .unwrap();
            assert_eq!(
                chosen, best,
                "step {i}: picked {} with score {chosen}, max was {best}",
                placement[i]
            );
            placed[placement[i] as usize] = true;
        }
    }

    #[test]
    fn window_one_and_huge_window_work() {
        let g = social(200);
        for w in [1, 2, 199, 500] {
            let perm = GorderBuilder::new().window(w).build().compute(&g);
            assert_valid_perm(&perm, 200);
        }
    }

    #[test]
    fn empty_and_singleton() {
        let perm = Gorder::with_defaults().compute(&Graph::empty(0));
        assert_eq!(perm.len(), 0);
        let perm = Gorder::with_defaults().compute(&Graph::empty(1));
        assert_eq!(perm.apply(0), 0);
    }

    #[test]
    fn disconnected_components_all_placed() {
        // two disjoint triangles + isolated nodes
        let g = Graph::from_edges(8, &[(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]);
        let perm = Gorder::with_defaults().compute(&g);
        assert_valid_perm(&perm, 8);
    }

    #[test]
    fn hub_threshold_preserves_validity_and_counts_skips() {
        let g = social(400);
        let (perm, stats) = GorderBuilder::new()
            .hub_threshold(Some(2))
            .build()
            .compute_with_stats(&g);
        assert_valid_perm(&perm, 400);
        assert!(stats.hub_skips > 0, "threshold 2 must skip some hubs");
    }

    #[test]
    fn exact_mode_has_no_skips() {
        let g = social(300);
        let (_, stats) = GorderBuilder::new()
            .hub_threshold(None)
            .build()
            .compute_with_stats(&g);
        assert_eq!(stats.hub_skips, 0);
    }

    #[test]
    fn coalesced_counters_are_populated_and_consistent() {
        // Counters classify coalesced updates by net sign; every placed
        // node after the seed is one pop, and a window of w keeps the
        // negative-net updates a strict subset of the per-step touches.
        let g = social(300);
        let (_, stats) = Gorder::with_defaults().compute_with_stats(&g);
        assert!(stats.increments > 0);
        assert_eq!(stats.pops, u64::from(g.n()) - 1);
        assert!(stats.heap_updates() >= stats.increments + stats.decrements);
    }

    #[test]
    fn budgeted_unlimited_matches_plain_compute() {
        let g = social(300);
        let gorder = Gorder::with_defaults();
        let plain = gorder.compute(&g);
        match gorder.compute_budgeted(&g, &crate::budget::Budget::unlimited()) {
            crate::budget::ExecOutcome::Completed(perm) => {
                assert_eq!(perm.as_slice(), plain.as_slice());
            }
            other => panic!(
                "unlimited budget must complete, got {}",
                other.status_label()
            ),
        }
    }

    #[test]
    fn budgeted_node_cap_degrades_to_valid_permutation() {
        let g = social(600);
        let budget = crate::budget::Budget::unlimited().with_node_cap(128);
        match Gorder::with_defaults().compute_budgeted(&g, &budget) {
            crate::budget::ExecOutcome::Degraded(perm, reason) => {
                assert_eq!(reason, crate::budget::DegradeReason::NodeCapReached);
                assert_valid_perm(&perm, 600);
            }
            other => panic!(
                "128-node cap on 600 nodes must degrade, got {}",
                other.status_label()
            ),
        }
    }

    #[test]
    fn budgeted_cancellation_degrades_immediately() {
        let g = social(400);
        let budget = crate::budget::Budget::unlimited().with_node_cap(u64::MAX);
        budget.cancel();
        match Gorder::with_defaults().compute_budgeted(&g, &budget) {
            crate::budget::ExecOutcome::Degraded(perm, reason) => {
                assert_eq!(reason, crate::budget::DegradeReason::Cancelled);
                assert_valid_perm(&perm, 400);
            }
            other => panic!(
                "cancelled budget must degrade, got {}",
                other.status_label()
            ),
        }
    }

    #[test]
    fn zero_budget_fallback_is_pure_chdfs() {
        // With a zero node cap nothing is greedily placed, so the
        // fallback must reproduce the ChDFS baseline exactly: discovery
        // order from the max-total-degree node with id-order restarts.
        let g = Graph::from_edges(4, &[(0, 1), (0, 2), (1, 3)]);
        let budget = crate::budget::Budget::unlimited().with_node_cap(0);
        let perm = Gorder::with_defaults()
            .compute_budgeted(&g, &budget)
            .value()
            .expect("degraded result still carries a permutation");
        assert_eq!(perm.placement(), vec![0, 1, 3, 2]);
    }

    #[test]
    fn larger_window_does_not_reduce_f_at_same_window() {
        // Orderings built with larger w should score at least comparably
        // on their own objective... strictly this is heuristic; we assert
        // the weaker, stable property that both beat random.
        let g = copying_model(400, 6, 0.7, 9);
        let random = Permutation::random(g.n(), &mut StdRng::seed_from_u64(2));
        for w in [2, 8] {
            let perm = GorderBuilder::new().window(w).build().compute(&g);
            assert!(f_score_of(&g, &perm, w) > f_score_of(&g, &random, w));
        }
    }
}
