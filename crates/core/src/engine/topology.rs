//! [`LabelTopology`] views: how each index variant exposes its graph,
//! label family, and pinned-hub probe to the generic engine.
//!
//! A view is constructed per update and handed to the engine's passes.
//! Each variant has one view type, generic over how it borrows the index:
//! a mutable borrow gives the *live* view (`*Topo`), which reads and
//! writes the index; a shared borrow gives the *frozen* view (`Frozen*`),
//! which only reads it, so parallel workers and classification sweeps can
//! share one index ([`FrozenTopology`]; writes are buffered by
//! [`super::parallel::Buffered`]). Both read through the same code, which
//! is what keeps frozen sweeps bit-identical to live ones.
//!
//! The directed view is parameterized by the label family being repaired:
//! repairing `L_in` walks out-arcs and pins `L_out` hubs, repairing `L_out`
//! walks in-arcs and pins `L_in` — which makes the same view type serve the
//! forward and backward halves of every directed update.

use super::{FrozenTopology, LabelTopology};
use crate::directed::{DirectedSpcIndex, Side};
use crate::index::SpcIndex;
use crate::label::{Count, LabelEntry, Rank};
use crate::query::HubProbe;
use crate::weighted::{WHubProbe, WLabelEntry, WeightedSpcIndex};
use dspc_graph::weighted::{WDist, WeightedGraph};
use dspc_graph::{DirectedGraph, UndirectedGraph, VertexId};
use std::ops::Deref;

/// The paper's primary setting: undirected unit-length edges, one label
/// set per vertex, hub-entry counts maintained through the index. `I` is
/// the index borrow.
pub struct UndirectedView<'a, I> {
    g: &'a UndirectedGraph,
    index: I,
    probe: &'a mut HubProbe,
}

/// The live undirected view.
pub type UndirectedTopo<'a> = UndirectedView<'a, &'a mut SpcIndex>;
/// The frozen undirected view.
pub type FrozenUndirected<'a> = UndirectedView<'a, &'a SpcIndex>;

impl<'a, I: Deref<Target = SpcIndex>> UndirectedView<'a, I> {
    /// Borrows graph, index, and probe for one update.
    pub fn new(g: &'a UndirectedGraph, index: I, probe: &'a mut HubProbe) -> Self {
        UndirectedView { g, index, probe }
    }
}

impl<I: Deref<Target = SpcIndex>> FrozenTopology for UndirectedView<'_, I> {
    type Dist = u32;

    const DIJKSTRA: bool = false;

    #[inline]
    fn rank(&self, v: u32) -> Rank {
        self.index.rank(VertexId(v))
    }

    fn load_probe(&mut self, x: VertexId) {
        self.probe.load(&self.index, x);
    }

    #[inline]
    fn probe_query(&self, v: VertexId) -> (u32, Count) {
        let q = self.probe.query(self.index.label_set(v));
        (q.dist, q.count)
    }

    #[inline]
    fn probe_pre_query(&self, v: VertexId, limit: Rank) -> (u32, Count) {
        let q = self.probe.pre_query(self.index.label_set(v), limit);
        (q.dist, q.count)
    }

    #[inline]
    fn for_each_neighbor<F: FnMut(u32, u32)>(&self, v: u32, mut f: F) {
        for &w in self.g.neighbors(VertexId(v)) {
            f(w, 1);
        }
    }

    #[inline]
    fn label_get(&self, v: VertexId, hub: Rank) -> Option<(u32, Count)> {
        self.index.label_set(v).get(hub).map(|e| (e.dist, e.count))
    }

    fn is_common_hub(&self, hub: Rank, near: VertexId, far: VertexId) -> bool {
        hub <= self.index.rank(near)
            && hub <= self.index.rank(far)
            && self.index.label_set(near).contains(hub)
            && self.index.label_set(far).contains(hub)
    }
}

impl LabelTopology for UndirectedTopo<'_> {
    #[inline]
    fn label_upsert(&mut self, v: VertexId, hub: Rank, d: u32, c: Count) {
        self.index.upsert_entry(v, LabelEntry::new(hub, d, c));
    }

    #[inline]
    fn label_remove(&mut self, v: VertexId, hub: Rank) -> bool {
        self.index.remove_entry(v, hub).is_some()
    }
}

/// Appendix C.1: directed graphs with an `L_in`/`L_out` pair per vertex.
/// `repair` selects the family the engine reads and writes.
pub struct DirectedView<'a, I> {
    g: &'a DirectedGraph,
    index: I,
    probe: &'a mut HubProbe,
    repair: Side,
}

/// The live directed view.
pub type DirectedTopo<'a> = DirectedView<'a, &'a mut DirectedSpcIndex>;
/// The frozen directed view.
pub type FrozenDirected<'a> = DirectedView<'a, &'a DirectedSpcIndex>;

impl<'a, I: Deref<Target = DirectedSpcIndex>> DirectedView<'a, I> {
    /// Borrows graph, index, and probe; `repair` is the family to fix up.
    pub fn new(g: &'a DirectedGraph, index: I, probe: &'a mut HubProbe, repair: Side) -> Self {
        DirectedView {
            g,
            index,
            probe,
            repair,
        }
    }

    #[inline]
    fn pin_side(&self) -> Side {
        self.repair.opposite()
    }
}

impl<I: Deref<Target = DirectedSpcIndex>> FrozenTopology for DirectedView<'_, I> {
    type Dist = u32;

    const DIJKSTRA: bool = false;

    #[inline]
    fn rank(&self, v: u32) -> Rank {
        self.index.rank(VertexId(v))
    }

    fn load_probe(&mut self, x: VertexId) {
        self.probe.load_labels(
            self.index.label(self.pin_side(), x),
            self.index.ranks().len(),
        );
    }

    #[inline]
    fn probe_query(&self, v: VertexId) -> (u32, Count) {
        let q = self.probe.query(self.index.label(self.repair, v));
        (q.dist, q.count)
    }

    #[inline]
    fn probe_pre_query(&self, v: VertexId, limit: Rank) -> (u32, Count) {
        let q = self
            .probe
            .pre_query(self.index.label(self.repair, v), limit);
        (q.dist, q.count)
    }

    #[inline]
    fn for_each_neighbor<F: FnMut(u32, u32)>(&self, v: u32, mut f: F) {
        let neighbors = match self.repair {
            // Repairing L_in means sweeping *away* from the hub along arcs.
            Side::In => self.g.out_neighbors(VertexId(v)),
            Side::Out => self.g.in_neighbors(VertexId(v)),
        };
        for &w in neighbors {
            f(w, 1);
        }
    }

    #[inline]
    fn label_get(&self, v: VertexId, hub: Rank) -> Option<(u32, Count)> {
        self.index
            .label(self.repair, v)
            .get(hub)
            .map(|e| (e.dist, e.count))
    }

    fn is_common_hub(&self, hub: Rank, near: VertexId, far: VertexId) -> bool {
        let side = self.pin_side();
        self.index.label(side, near).contains(hub) && self.index.label(side, far).contains(hub)
    }
}

impl LabelTopology for DirectedTopo<'_> {
    #[inline]
    fn label_upsert(&mut self, v: VertexId, hub: Rank, d: u32, c: Count) {
        self.index
            .label_mut(self.repair, v)
            .upsert(LabelEntry::new(hub, d, c));
    }

    #[inline]
    fn label_remove(&mut self, v: VertexId, hub: Rank) -> bool {
        self.index.label_mut(self.repair, v).remove(hub).is_some()
    }
}

/// Appendix C.2: weighted edges, `u64` accumulated distances, Dijkstra
/// traversal order.
pub struct WeightedView<'a, I> {
    g: &'a WeightedGraph,
    index: I,
    probe: &'a mut WHubProbe,
}

/// The live weighted view.
pub type WeightedTopo<'a> = WeightedView<'a, &'a mut WeightedSpcIndex>;
/// The frozen weighted view.
pub type FrozenWeighted<'a> = WeightedView<'a, &'a WeightedSpcIndex>;

impl<'a, I: Deref<Target = WeightedSpcIndex>> WeightedView<'a, I> {
    /// Borrows graph, index, and probe for one update.
    pub fn new(g: &'a WeightedGraph, index: I, probe: &'a mut WHubProbe) -> Self {
        WeightedView { g, index, probe }
    }
}

impl<I: Deref<Target = WeightedSpcIndex>> FrozenTopology for WeightedView<'_, I> {
    type Dist = WDist;

    const DIJKSTRA: bool = true;

    #[inline]
    fn rank(&self, v: u32) -> Rank {
        self.index.rank(VertexId(v))
    }

    fn load_probe(&mut self, x: VertexId) {
        self.probe.load(&self.index, x);
    }

    #[inline]
    fn probe_query(&self, v: VertexId) -> (WDist, Count) {
        let q = self.probe.query_limited(self.index.label_set(v), None);
        (q.dist, q.count)
    }

    #[inline]
    fn probe_pre_query(&self, v: VertexId, limit: Rank) -> (WDist, Count) {
        let q = self
            .probe
            .query_limited(self.index.label_set(v), Some(limit));
        (q.dist, q.count)
    }

    #[inline]
    fn for_each_neighbor<F: FnMut(u32, WDist)>(&self, v: u32, mut f: F) {
        for &(w, wt) in self.g.neighbors(VertexId(v)) {
            f(w, wt as WDist);
        }
    }

    #[inline]
    fn label_get(&self, v: VertexId, hub: Rank) -> Option<(WDist, Count)> {
        self.index.label_set(v).get(hub).map(|e| (e.dist, e.count))
    }

    fn is_common_hub(&self, hub: Rank, near: VertexId, far: VertexId) -> bool {
        hub <= self.index.rank(near)
            && hub <= self.index.rank(far)
            && self.index.label_set(near).contains(hub)
            && self.index.label_set(far).contains(hub)
    }
}

impl LabelTopology for WeightedTopo<'_> {
    #[inline]
    fn label_upsert(&mut self, v: VertexId, hub: Rank, d: WDist, c: Count) {
        self.index
            .label_set_mut(v)
            .upsert(WLabelEntry::new(hub, d, c));
    }

    #[inline]
    fn label_remove(&mut self, v: VertexId, hub: Rank) -> bool {
        self.index.label_set_mut(v).remove(hub).is_some()
    }
}
