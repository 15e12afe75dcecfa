//! Execution-memory primitives shared by every kernel.
//!
//! Three concerns live here:
//!
//! * **Probes** — the [`Probe`] trait abstracts *observation* of memory
//!   traffic. Kernels report every array they allocate and every element
//!   they touch; [`NoProbe`] compiles all of it away for wall-clock
//!   runs, while the cache simulator plugs in a tracing probe so the
//!   exact same kernel code drives the cache model. This is what removes
//!   the third hand-rolled copy of each traversal from `cachesim`.
//! * **Reusable state** — [`Frontier`] and [`DenseBitset`] replace the
//!   per-kernel queue/bitset reinventions, and [`BufferPool`] recycles
//!   their backing storage so repeated runs (bench reps, grid cells)
//!   stop allocating in the hot path.
//! * **Graph access** — [`GraphSlots`] pairs the CSR arrays with their
//!   probe handles so adjacency scans record offset and target touches
//!   uniformly.

use gorder_graph::{Graph, NodeId};

/// Opaque handle to a probe-registered array.
///
/// Returned by [`Probe::alloc`]; kernels store it and pass it back to
/// [`Probe::touch`]. For [`NoProbe`] it carries no meaning.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Slot(u32);

impl Slot {
    /// Wraps a probe-side array index.
    pub fn new(index: u32) -> Self {
        Slot(index)
    }

    /// The probe-side array index this handle wraps.
    pub fn index(self) -> u32 {
        self.0
    }
}

/// Observer of a kernel's memory behaviour.
///
/// Kernels are generic over `P: Probe` and are monomorphised per probe:
/// with [`NoProbe`] every call inlines to nothing (wall-clock runs pay
/// zero overhead), with a tracing probe every logical array access is
/// forwarded to the cache simulator.
pub trait Probe {
    /// Whether kernels may take their parallel code paths under this
    /// probe. Defaults to `false`: a tracing probe observes a single
    /// sequential access stream, so splitting work across threads would
    /// interleave (and thus corrupt) the trace. Only probes that record
    /// nothing ([`NoProbe`]) opt in.
    const PARALLEL_SAFE: bool = false;

    /// Registers a logical array of `len` elements of `elem_bytes`
    /// bytes each; returns the handle used for later touches.
    fn alloc(&mut self, len: usize, elem_bytes: u64) -> Slot;
    /// Records an access to element `i` of the array behind `slot`.
    fn touch(&mut self, slot: Slot, i: usize);
    /// Records `n` non-memory operations (arithmetic / compare).
    fn op(&mut self, n: u64);
    /// A fresh probe equivalent to this one, for retrying a run after a
    /// worker panic (the original probe is consumed by the failed
    /// attempt). `None` — the default — means the run cannot be retried:
    /// stateful probes have already absorbed part of the aborted
    /// attempt's access stream, so a retry would record garbage.
    fn duplicate(&self) -> Option<Self>
    where
        Self: Sized,
    {
        None
    }
}

/// The zero-cost probe used for wall-clock execution.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoProbe;

impl Probe for NoProbe {
    const PARALLEL_SAFE: bool = true;

    #[inline(always)]
    fn alloc(&mut self, _len: usize, _elem_bytes: u64) -> Slot {
        Slot(0)
    }

    #[inline(always)]
    fn touch(&mut self, _slot: Slot, _i: usize) {}

    #[inline(always)]
    fn op(&mut self, _n: u64) {}

    fn duplicate(&self) -> Option<Self> {
        Some(NoProbe)
    }
}

/// Probe handles for a graph's CSR arrays (out/in offsets and targets),
/// registered in a fixed order so traced address layouts are stable.
#[derive(Debug, Clone, Copy)]
pub struct GraphSlots {
    /// Out-offset array (`n + 1` entries of 8 bytes).
    pub out_off: Slot,
    /// Out-target array (`m` entries of 4 bytes).
    pub out_tgt: Slot,
    /// In-offset array (`n + 1` entries of 8 bytes).
    pub in_off: Slot,
    /// In-target array (`m` entries of 4 bytes).
    pub in_tgt: Slot,
}

impl GraphSlots {
    /// Registers the four CSR arrays with `probe`.
    pub fn new<P: Probe>(probe: &mut P, g: &Graph) -> Self {
        let n = g.n() as usize;
        let m = g.m() as usize;
        GraphSlots {
            out_off: probe.alloc(n + 1, 8),
            out_tgt: probe.alloc(m, 4),
            in_off: probe.alloc(n + 1, 8),
            in_tgt: probe.alloc(m, 4),
        }
    }

    /// Out-neighbour slice of `u`, touching both bounding offsets.
    /// Returns the slice and its base index into the target array so
    /// callers can touch `out_tgt` per element scanned.
    pub fn out_list<'g, P: Probe>(
        &self,
        probe: &mut P,
        g: &'g Graph,
        u: NodeId,
    ) -> (&'g [NodeId], usize) {
        let (off, tgt) = g.out_csr();
        probe.touch(self.out_off, u as usize);
        probe.touch(self.out_off, u as usize + 1);
        let a = off[u as usize] as usize;
        let b = off[u as usize + 1] as usize;
        (&tgt[a..b], a)
    }

    /// In-neighbour slice of `u`; see [`GraphSlots::out_list`].
    pub fn in_list<'g, P: Probe>(
        &self,
        probe: &mut P,
        g: &'g Graph,
        u: NodeId,
    ) -> (&'g [NodeId], usize) {
        let (off, tgt) = g.in_csr();
        probe.touch(self.in_off, u as usize);
        probe.touch(self.in_off, u as usize + 1);
        let a = off[u as usize] as usize;
        let b = off[u as usize + 1] as usize;
        (&tgt[a..b], a)
    }
}

/// Records the access pattern of a binary-heap sift-up after a push at
/// `last`: one touch per ancestor on the path to the root.
pub fn probe_heap_push<P: Probe>(probe: &mut P, heap: Slot, last: usize) {
    let mut p = last;
    loop {
        probe.touch(heap, p);
        probe.op(1);
        if p == 0 {
            break;
        }
        p = (p - 1) / 2;
    }
}

/// Records the access pattern of a binary-heap pop from a heap that had
/// `len` elements after the pop: a root-to-leaf sift-down walk.
pub fn probe_heap_pop<P: Probe>(probe: &mut P, heap: Slot, len: usize) {
    let mut p = 0usize;
    while p < len {
        probe.touch(heap, p);
        probe.op(1);
        p = 2 * p + 1;
    }
}

/// Level-synchronous work queue for BFS-style kernels.
///
/// Visited nodes accumulate in one `Vec`, which doubles as the visit
/// order: the *current level* is the window `[head, level_end)`, pushes
/// land after `level_end` (the next level), and [`Frontier::advance`]
/// slides the window forward without moving any elements.
#[derive(Debug, Clone, Default)]
pub struct Frontier {
    items: Vec<NodeId>,
    head: usize,
    level_end: usize,
}

impl Frontier {
    /// An empty frontier.
    pub fn new() -> Self {
        Frontier::default()
    }

    /// Empties the frontier, keeping its allocation, and reserves room
    /// for `capacity` nodes.
    pub fn reset(&mut self, capacity: usize) {
        self.items.clear();
        self.items.reserve(capacity);
        self.head = 0;
        self.level_end = 0;
    }

    /// Appends `u` to the *next* level.
    pub fn push(&mut self, u: NodeId) {
        self.items.push(u);
    }

    /// Starts a new tree at `u`: pushes it and makes it the current
    /// level. Only valid when the current level is empty.
    pub fn seed(&mut self, u: NodeId) {
        debug_assert_eq!(self.head, self.level_end, "seed with a live level");
        self.head = self.items.len();
        self.items.push(u);
        self.level_end = self.items.len();
    }

    /// Number of nodes in the current level.
    pub fn level_len(&self) -> usize {
        self.level_end - self.head
    }

    /// `[head, level_end)` bounds of the current level, as indices into
    /// the visit order.
    pub fn bounds(&self) -> (usize, usize) {
        (self.head, self.level_end)
    }

    /// The `i`-th node of the visit order (not level-relative).
    pub fn item_at(&self, i: usize) -> NodeId {
        self.items[i]
    }

    /// Makes everything pushed since the last advance the new current
    /// level.
    pub fn advance(&mut self) {
        self.head = self.level_end;
        self.level_end = self.items.len();
    }

    /// All nodes visited so far, in visit order.
    pub fn visited(&self) -> &[NodeId] {
        &self.items
    }

    /// Total nodes visited so far.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True when nothing has been visited.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Consumes the frontier, returning the visit order.
    pub fn into_items(self) -> Vec<NodeId> {
        self.items
    }
}

/// Fixed-size bitset over `u64` words.
///
/// The probe model for a bitset is one 8-byte word array: callers touch
/// word [`DenseBitset::word_of`]`(i)` when reading or writing bit `i`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DenseBitset {
    words: Vec<u64>,
    len: usize,
}

impl DenseBitset {
    /// An all-zeros bitset of `len` bits.
    pub fn new(len: usize) -> Self {
        DenseBitset {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// Clears and resizes to `len` bits, reusing the word allocation.
    pub fn reset(&mut self, len: usize) {
        self.words.clear();
        self.words.resize(len.div_ceil(64), 0);
        self.len = len;
    }

    /// Number of addressable bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the bitset addresses no bits.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of backing `u64` words (the probe-side array length).
    pub fn words_len(&self) -> usize {
        self.words.len()
    }

    /// The word index holding bit `i` — the probe touch index for that
    /// bit.
    pub const fn word_of(i: usize) -> usize {
        i / 64
    }

    /// Reads bit `i`.
    pub fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        self.words[i / 64] >> (i % 64) & 1 == 1
    }

    /// Sets bit `i`.
    pub fn set(&mut self, i: usize) {
        debug_assert!(i < self.len);
        self.words[i / 64] |= 1 << (i % 64);
    }

    /// Clears bit `i`.
    pub fn clear_bit(&mut self, i: usize) {
        debug_assert!(i < self.len);
        self.words[i / 64] &= !(1 << (i % 64));
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }
}

/// Typed free lists of kernel working buffers.
///
/// `take_*` hands back a cleared, correctly-sized buffer, reusing a
/// returned allocation when one is available and allocating fresh
/// otherwise — so a cold pool behaves exactly like plain allocation and
/// a warm pool removes allocations from repeated runs. Kernels return
/// buffers via `put_*` from [`crate::Kernel::reclaim`].
#[derive(Debug, Default)]
pub struct BufferPool {
    u32s: Vec<Vec<u32>>,
    u64s: Vec<Vec<u64>>,
    f64s: Vec<Vec<f64>>,
    nodes: Vec<Vec<NodeId>>,
    pairs: Vec<Vec<(NodeId, u32)>>,
    bitsets: Vec<DenseBitset>,
    frontiers: Vec<Frontier>,
}

impl BufferPool {
    /// An empty pool.
    pub fn new() -> Self {
        BufferPool::default()
    }

    /// A `len`-element `u32` buffer filled with `fill`.
    pub fn take_u32(&mut self, len: usize, fill: u32) -> Vec<u32> {
        match self.u32s.pop() {
            Some(mut v) => {
                v.clear();
                v.resize(len, fill);
                v
            }
            None => vec![fill; len],
        }
    }

    /// Returns a `u32` buffer to the pool.
    pub fn put_u32(&mut self, v: Vec<u32>) {
        self.u32s.push(v);
    }

    /// A `len`-element `u64` buffer filled with `fill`.
    pub fn take_u64(&mut self, len: usize, fill: u64) -> Vec<u64> {
        match self.u64s.pop() {
            Some(mut v) => {
                v.clear();
                v.resize(len, fill);
                v
            }
            None => vec![fill; len],
        }
    }

    /// Returns a `u64` buffer to the pool.
    pub fn put_u64(&mut self, v: Vec<u64>) {
        self.u64s.push(v);
    }

    /// A `len`-element `f64` buffer filled with `fill`.
    pub fn take_f64(&mut self, len: usize, fill: f64) -> Vec<f64> {
        match self.f64s.pop() {
            Some(mut v) => {
                v.clear();
                v.resize(len, fill);
                v
            }
            None => vec![fill; len],
        }
    }

    /// Returns an `f64` buffer to the pool.
    pub fn put_f64(&mut self, v: Vec<f64>) {
        self.f64s.push(v);
    }

    /// An empty node list with room for `capacity` entries.
    pub fn take_nodes(&mut self, capacity: usize) -> Vec<NodeId> {
        match self.nodes.pop() {
            Some(mut v) => {
                v.clear();
                v.reserve(capacity);
                v
            }
            None => Vec::with_capacity(capacity),
        }
    }

    /// Returns a node list to the pool.
    pub fn put_nodes(&mut self, v: Vec<NodeId>) {
        self.nodes.push(v);
    }

    /// An empty `(node, cursor)` stack with room for `capacity` frames.
    pub fn take_pairs(&mut self, capacity: usize) -> Vec<(NodeId, u32)> {
        match self.pairs.pop() {
            Some(mut v) => {
                v.clear();
                v.reserve(capacity);
                v
            }
            None => Vec::with_capacity(capacity),
        }
    }

    /// Returns a pair stack to the pool.
    pub fn put_pairs(&mut self, v: Vec<(NodeId, u32)>) {
        self.pairs.push(v);
    }

    /// An all-zeros bitset of `len` bits.
    pub fn take_bitset(&mut self, len: usize) -> DenseBitset {
        match self.bitsets.pop() {
            Some(mut b) => {
                b.reset(len);
                b
            }
            None => DenseBitset::new(len),
        }
    }

    /// Returns a bitset to the pool.
    pub fn put_bitset(&mut self, b: DenseBitset) {
        self.bitsets.push(b);
    }

    /// An empty frontier with room for `capacity` nodes.
    pub fn take_frontier(&mut self, capacity: usize) -> Frontier {
        match self.frontiers.pop() {
            Some(mut f) => {
                f.reset(capacity);
                f
            }
            None => {
                let mut f = Frontier::new();
                f.reset(capacity);
                f
            }
        }
    }

    /// Returns a frontier to the pool.
    pub fn put_frontier(&mut self, f: Frontier) {
        self.frontiers.push(f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noprobe_is_inert() {
        let mut p = NoProbe;
        let s = p.alloc(10, 4);
        p.touch(s, 3);
        p.op(5);
    }

    #[test]
    fn slot_roundtrips_index() {
        assert_eq!(Slot::new(7).index(), 7);
    }

    #[test]
    fn frontier_levels_advance() {
        let mut f = Frontier::new();
        f.reset(8);
        f.seed(3);
        assert_eq!(f.level_len(), 1);
        assert_eq!(f.bounds(), (0, 1));
        f.push(1);
        f.push(2);
        assert_eq!(f.level_len(), 1, "pushes land in the next level");
        f.advance();
        assert_eq!(f.level_len(), 2);
        assert_eq!(f.bounds(), (1, 3));
        f.advance();
        assert_eq!(f.level_len(), 0);
        assert_eq!(f.visited(), &[3, 1, 2]);
        assert_eq!(f.len(), 3);
        assert!(!f.is_empty());
        assert_eq!(f.into_items(), vec![3, 1, 2]);
    }

    #[test]
    fn frontier_reseeds_after_drained_level() {
        let mut f = Frontier::new();
        f.reset(4);
        f.seed(0);
        f.advance();
        assert_eq!(f.level_len(), 0);
        f.seed(2);
        assert_eq!(f.level_len(), 1);
        assert_eq!(f.item_at(1), 2);
        assert_eq!(f.visited(), &[0, 2]);
    }

    #[test]
    fn bitset_set_get_clear() {
        let mut b = DenseBitset::new(130);
        assert_eq!(b.len(), 130);
        assert_eq!(b.words_len(), 3);
        assert!(!b.get(129));
        b.set(129);
        b.set(0);
        b.set(64);
        assert!(b.get(129) && b.get(0) && b.get(64));
        assert_eq!(b.count_ones(), 3);
        b.clear_bit(64);
        assert!(!b.get(64));
        assert_eq!(b.count_ones(), 2);
        assert_eq!(DenseBitset::word_of(129), 2);
    }

    #[test]
    fn bitset_reset_clears_bits() {
        let mut b = DenseBitset::new(10);
        b.set(3);
        b.reset(70);
        assert_eq!(b.len(), 70);
        assert!(!b.get(3));
        assert_eq!(b.count_ones(), 0);
        assert!(!b.is_empty());
        b.reset(0);
        assert!(b.is_empty());
    }

    #[test]
    fn pool_reuses_buffers() {
        let mut pool = BufferPool::new();
        let mut v = pool.take_u32(4, 9);
        assert_eq!(v, vec![9; 4]);
        v.push(1);
        let cap = v.capacity();
        pool.put_u32(v);
        let v2 = pool.take_u32(2, 0);
        assert_eq!(v2, vec![0, 0]);
        assert!(v2.capacity() >= cap.min(2));

        let b = pool.take_bitset(65);
        pool.put_bitset(b);
        let b2 = pool.take_bitset(5);
        assert_eq!(b2.len(), 5);
        assert_eq!(b2.count_ones(), 0);

        let f = pool.take_frontier(3);
        pool.put_frontier(f);
        let f2 = pool.take_frontier(1);
        assert!(f2.is_empty());
    }

    #[test]
    fn heap_probe_walks_are_logarithmic() {
        struct Counter(u64);
        impl Probe for Counter {
            fn alloc(&mut self, _len: usize, _elem_bytes: u64) -> Slot {
                Slot::new(0)
            }
            fn touch(&mut self, _slot: Slot, _i: usize) {
                self.0 += 1;
            }
            fn op(&mut self, _n: u64) {}
        }
        let mut c = Counter(0);
        let s = c.alloc(16, 8);
        probe_heap_push(&mut c, s, 14); // path 14 -> 6 -> 2 -> 0
        assert_eq!(c.0, 4);
        c.0 = 0;
        probe_heap_pop(&mut c, s, 15); // path 0 -> 1 -> 3 -> 7
        assert_eq!(c.0, 4);
        c.0 = 0;
        probe_heap_pop(&mut c, s, 0);
        assert_eq!(c.0, 0);
    }

    #[test]
    fn graph_slots_scan_touches_offsets() {
        use gorder_graph::Graph;
        struct Rec(Vec<(u32, usize)>);
        impl Probe for Rec {
            fn alloc(&mut self, _len: usize, _elem_bytes: u64) -> Slot {
                let s = Slot::new(self.0.len() as u32);
                self.0.push((s.index(), usize::MAX));
                s
            }
            fn touch(&mut self, slot: Slot, i: usize) {
                self.0.push((slot.index(), i));
            }
            fn op(&mut self, _n: u64) {}
        }
        let g = Graph::from_edges(3, &[(0, 1), (0, 2), (1, 2)]);
        let mut p = Rec(Vec::new());
        let gs = GraphSlots::new(&mut p, &g);
        let (list, base) = gs.out_list(&mut p, &g, 0);
        assert_eq!(list, &[1, 2]);
        assert_eq!(base, 0);
        let (list, base) = gs.in_list(&mut p, &g, 2);
        assert_eq!(list.len(), 2);
        assert_eq!(base, 1);
        // 4 allocs + 2 offset touches per scan.
        assert_eq!(p.0.len(), 8);
    }
}
