//! Weighted IncSPC / DecSPC (Appendix C.2).
//!
//! * **Incremental** (`apply`): edge insertion, or weight decrease
//!   `w_ab → w'_ab`. For each hub `h ∈ L(a) ∪ L(b)` a partial Dijkstra
//!   starts across the edge with initial distance `d_{h,a} + w'_ab` and
//!   count `c_{h,a}`, renewing/inserting labels under the strict
//!   settle-time prune `query(h, v) < D[v]`.
//! * **Decremental** (`delete_edge` / `increase_weight`): the affected
//!   vertex condition becomes `sd_i(v, a) + w_ab = sd_i(v, b)` (weight, not
//!   hops). `SrrSEARCH` runs Dijkstra on the old graph; `DecUPDATE` runs
//!   rank-pruned Dijkstra from each `SR` hub on the new graph with
//!   `PreQUERY` pruning and the (unconditional — see [`crate::engine`])
//!   removal pass.

use super::{WHubProbe, WLabelEntry, WeightedSpcIndex};
use crate::engine::deletion::{ClassifyRole, DecDriver, DeletionVariant, SYMMETRIC_ROLES};
use crate::engine::parallel::LabelWriteOp;
use crate::engine::{
    merge_affected, ordered_key, FrozenWeighted, MaintenanceCounters, UpdateEngine, WeightedTopo,
    MARK_A, MARK_B,
};
use crate::label::Rank;
use dspc_graph::weighted::{WDist, Weight, WeightedGraph};
use dspc_graph::VertexId;

/// Weighted incremental driver: the insertion/weight-decrease policy over
/// the shared [`UpdateEngine`], running partial Dijkstras through
/// [`WeightedTopo`] views.
#[derive(Debug)]
pub struct WeightedIncSpc {
    engine: UpdateEngine<WDist>,
    probe: WHubProbe,
}

impl WeightedIncSpc {
    /// Creates an engine.
    pub fn new(capacity: usize) -> Self {
        WeightedIncSpc {
            engine: UpdateEngine::new(capacity),
            probe: WHubProbe::new(capacity),
        }
    }

    /// Repairs `index` after edge `(a, b)` was inserted with weight `w`, or
    /// after its weight *decreased* to `w`. `g` must already reflect the
    /// change. Returns the label-operation counters.
    pub fn apply(
        &mut self,
        g: &WeightedGraph,
        index: &mut WeightedSpcIndex,
        a: VertexId,
        b: VertexId,
        w: Weight,
    ) -> MaintenanceCounters {
        debug_assert_eq!(g.weight(a, b), Some(w));
        self.engine.ensure_capacity(g.capacity());
        let mut stats = MaintenanceCounters::default();
        let aff = merge_affected(index.label_set(a).entries(), index.label_set(b).entries());
        let (rank_a, rank_b) = (index.rank(a), index.rank(b));
        for (h_rank, in_a, in_b) in aff {
            let h = index.vertex(h_rank);
            stats.hubs_processed += 1;
            if in_a && h_rank <= rank_b {
                if let Some(seed) = index.label_set(a).get(h_rank).copied() {
                    let mut topo = WeightedTopo::new(g, index, &mut self.probe);
                    self.engine.inc_pass(
                        &mut topo,
                        h,
                        b,
                        seed.dist + w as WDist,
                        seed.count,
                        &mut stats,
                    );
                }
            }
            if in_b && h_rank <= rank_a {
                if let Some(seed) = index.label_set(b).get(h_rank).copied() {
                    let mut topo = WeightedTopo::new(g, index, &mut self.probe);
                    self.engine.inc_pass(
                        &mut topo,
                        h,
                        a,
                        seed.dist + w as WDist,
                        seed.count,
                        &mut stats,
                    );
                }
            }
        }
        stats
    }
}

/// The weighted variant of the batch-deletion orchestrator
/// ([`crate::engine::deletion`]): each doomed edge's pre-deletion weight
/// is its classification length, and sweeps settle in Dijkstra order.
#[derive(Debug)]
pub struct WeightedDeletion;

impl DeletionVariant for WeightedDeletion {
    type Graph = WeightedGraph;
    type Index = WeightedSpcIndex;
    type Probe = WHubProbe;
    type Dist = WDist;
    type Live<'a> = WeightedTopo<'a>;
    type Frozen<'a> = FrozenWeighted<'a>;

    const ROLES: &'static [ClassifyRole] = SYMMETRIC_ROLES;

    fn new_probe(capacity: usize) -> WHubProbe {
        WHubProbe::new(capacity)
    }

    fn capacity(g: &WeightedGraph) -> usize {
        g.capacity()
    }

    fn edge_key(a: VertexId, b: VertexId) -> (u32, u32) {
        ordered_key(a, b)
    }

    fn edge_len(g: &WeightedGraph, a: VertexId, b: VertexId) -> Option<WDist> {
        g.weight(a, b).map(|w| w as WDist)
    }

    fn live<'a>(
        g: &'a WeightedGraph,
        index: &'a mut WeightedSpcIndex,
        probe: &'a mut WHubProbe,
        _family: u8,
    ) -> WeightedTopo<'a> {
        WeightedTopo::new(g, index, probe)
    }

    fn frozen<'a>(
        g: &'a WeightedGraph,
        index: &'a WeightedSpcIndex,
        probe: &'a mut WHubProbe,
        _family: u8,
    ) -> FrozenWeighted<'a> {
        FrozenWeighted::new(g, index, probe)
    }

    fn rank(index: &WeightedSpcIndex, v: VertexId) -> Rank {
        index.rank(v)
    }

    fn vertex(index: &WeightedSpcIndex, r: Rank) -> VertexId {
        index.vertex(r)
    }

    fn for_each_residual_neighbor(g: &WeightedGraph, v: u32, f: &mut dyn FnMut(u32)) {
        for &(w, _) in g.neighbors(VertexId(v)) {
            f(w);
        }
    }

    fn for_each_label_hub(index: &WeightedSpcIndex, v: VertexId, f: &mut dyn FnMut(Rank)) {
        for e in index.label_set(v).entries() {
            f(e.hub);
        }
    }

    fn commit(index: &mut WeightedSpcIndex, _family: u8, (v, hub, op): LabelWriteOp<WDist>) {
        let labels = index.label_set_mut(v);
        match op {
            Some((d, c)) => labels.upsert(WLabelEntry::new(hub, d, c)),
            None => labels.remove(hub),
        };
    }

    fn remove_edge(g: &mut WeightedGraph, a: VertexId, b: VertexId) -> dspc_graph::Result<()> {
        g.delete_edge(a, b).map(|_| ())
    }

    fn delete_one(
        driver: &mut WeightedDecSpc,
        g: &mut WeightedGraph,
        index: &mut WeightedSpcIndex,
        a: VertexId,
        b: VertexId,
    ) -> dspc_graph::Result<MaintenanceCounters> {
        driver.delete_edge(g, index, a, b)
    }
}

/// Weighted decremental driver: the deletion/weight-increase policy over
/// the shared [`UpdateEngine`]. Edge sets go through
/// [`DecDriver::delete_batch`].
pub type WeightedDecSpc = DecDriver<WeightedDeletion>;

impl WeightedDecSpc {
    /// Deletes edge `(a, b)` and repairs the index. Returns the counters.
    pub fn delete_edge(
        &mut self,
        g: &mut WeightedGraph,
        index: &mut WeightedSpcIndex,
        a: VertexId,
        b: VertexId,
    ) -> dspc_graph::Result<MaintenanceCounters> {
        let w = g
            .weight(a, b)
            .ok_or(dspc_graph::GraphError::MissingEdge(a, b))?;
        self.decremental(g, index, a, b, w, None)
    }

    /// Increases the weight of `(a, b)` to `new_w` and repairs the index.
    /// Returns the counters.
    pub fn increase_weight(
        &mut self,
        g: &mut WeightedGraph,
        index: &mut WeightedSpcIndex,
        a: VertexId,
        b: VertexId,
        new_w: Weight,
    ) -> dspc_graph::Result<MaintenanceCounters> {
        let w = g
            .weight(a, b)
            .ok_or(dspc_graph::GraphError::MissingEdge(a, b))?;
        assert!(
            new_w > w,
            "increase_weight requires a strictly larger weight"
        );
        self.decremental(g, index, a, b, w, Some(new_w))
    }

    /// Shared decremental procedure: phase 1 on the old graph (weight
    /// `old_w`), then the mutation (delete, or raise to `new_w`), then
    /// phase 2 on the new graph.
    fn decremental(
        &mut self,
        g: &mut WeightedGraph,
        index: &mut WeightedSpcIndex,
        a: VertexId,
        b: VertexId,
        old_w: Weight,
        new_w: Option<Weight>,
    ) -> dspc_graph::Result<MaintenanceCounters> {
        let (engine, probe) = self.sweep.parts();
        engine.ensure_capacity(g.capacity());
        let mut stats = MaintenanceCounters::default();

        // Phase 1 — SrrSEARCH with the weighted affected condition
        // (`D[v] + old_w = sd_i(v, far)` replaces the hop condition).
        let (sr_a, r_a) = {
            let mut topo = WeightedTopo::new(g, index, probe);
            engine.srr_pass(&mut topo, a, b, old_w as WDist, &mut stats)
        };
        let (sr_b, r_b) = {
            let mut topo = WeightedTopo::new(g, index, probe);
            engine.srr_pass(&mut topo, b, a, old_w as WDist, &mut stats)
        };
        engine.set_marks([&sr_a, &r_a], [&sr_b, &r_b]);

        match new_w {
            None => {
                g.delete_edge(a, b)?;
            }
            Some(w) => {
                g.set_weight(a, b, w)?;
            }
        }

        let mut sr: Vec<(Rank, bool)> = sr_a
            .iter()
            .map(|&v| (index.rank(v), true))
            .chain(sr_b.iter().map(|&v| (index.rank(v), false)))
            .collect();
        sr.sort_unstable_by_key(|&(r, _)| r);
        for &(h_rank, from_a) in &sr {
            let h = index.vertex(h_rank);
            stats.hubs_processed += 1;
            let (mask, removal) = if from_a {
                (MARK_B, [&sr_b[..], &r_b[..]])
            } else {
                (MARK_A, [&sr_a[..], &r_a[..]])
            };
            let mut topo = WeightedTopo::new(g, index, probe);
            engine.dec_pass(&mut topo, h, mask, removal, &mut stats);
        }

        engine.clear_marks();
        Ok(stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::order::OrderingStrategy;
    use crate::weighted::{weighted_spc_query, DynamicWeightedSpc};
    use dspc_graph::generators::random::{erdos_renyi_gnm, random_weights};
    use dspc_graph::traversal::dijkstra::DijkstraCounter;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn assert_matches_oracle(g: &WeightedGraph, index: &WeightedSpcIndex) {
        let mut dj = DijkstraCounter::new(g.capacity());
        for s in g.vertices() {
            for t in g.vertices() {
                assert_eq!(
                    weighted_spc_query(index, s, t).as_option(),
                    dj.count(g, s, t),
                    "pair ({s:?}, {t:?})"
                );
            }
        }
    }

    #[test]
    fn insert_edge_incremental() {
        let g = WeightedGraph::from_weighted_edges(4, &[(0, 1, 2), (1, 2, 2), (2, 3, 2)]);
        let mut d = DynamicWeightedSpc::build(g, OrderingStrategy::Degree);
        assert_eq!(d.query(VertexId(0), VertexId(3)), Some((6, 1)));
        d.insert_edge(VertexId(0), VertexId(3), 6).unwrap();
        // Equal-length alternative: counts accumulate.
        assert_eq!(d.query(VertexId(0), VertexId(3)), Some((6, 2)));
        assert_matches_oracle(d.graph(), d.index());
        d.insert_edge(VertexId(0), VertexId(2), 1).unwrap();
        assert_eq!(d.query(VertexId(0), VertexId(3)), Some((3, 1)));
        assert_matches_oracle(d.graph(), d.index());
    }

    #[test]
    fn decrease_weight_is_incremental() {
        let g = WeightedGraph::from_weighted_edges(3, &[(0, 1, 5), (1, 2, 5), (0, 2, 20)]);
        let mut d = DynamicWeightedSpc::build(g, OrderingStrategy::Degree);
        assert_eq!(d.query(VertexId(0), VertexId(2)), Some((10, 1)));
        d.set_weight(VertexId(0), VertexId(2), 10).unwrap();
        assert_eq!(d.query(VertexId(0), VertexId(2)), Some((10, 2)));
        d.set_weight(VertexId(0), VertexId(2), 3).unwrap();
        assert_eq!(d.query(VertexId(0), VertexId(2)), Some((3, 1)));
        assert_matches_oracle(d.graph(), d.index());
    }

    #[test]
    fn increase_weight_is_decremental() {
        let g = WeightedGraph::from_weighted_edges(3, &[(0, 1, 5), (1, 2, 5), (0, 2, 3)]);
        let mut d = DynamicWeightedSpc::build(g, OrderingStrategy::Degree);
        assert_eq!(d.query(VertexId(0), VertexId(2)), Some((3, 1)));
        d.set_weight(VertexId(0), VertexId(2), 10).unwrap();
        assert_eq!(d.query(VertexId(0), VertexId(2)), Some((10, 2)));
        assert_matches_oracle(d.graph(), d.index());
        d.set_weight(VertexId(0), VertexId(2), 50).unwrap();
        assert_eq!(d.query(VertexId(0), VertexId(2)), Some((10, 1)));
        assert_matches_oracle(d.graph(), d.index());
    }

    #[test]
    fn delete_edge_decremental() {
        let g = WeightedGraph::from_weighted_edges(
            4,
            &[(0, 1, 1), (1, 3, 1), (0, 2, 1), (2, 3, 1), (0, 3, 2)],
        );
        let mut d = DynamicWeightedSpc::build(g, OrderingStrategy::Degree);
        assert_eq!(d.query(VertexId(0), VertexId(3)), Some((2, 3)));
        d.delete_edge(VertexId(0), VertexId(3)).unwrap();
        assert_eq!(d.query(VertexId(0), VertexId(3)), Some((2, 2)));
        assert_matches_oracle(d.graph(), d.index());
        d.delete_edge(VertexId(1), VertexId(3)).unwrap();
        d.delete_edge(VertexId(2), VertexId(3)).unwrap();
        assert_eq!(d.query(VertexId(0), VertexId(3)), None);
        assert_matches_oracle(d.graph(), d.index());
    }

    #[test]
    fn vertex_lifecycle_weighted() {
        let g = WeightedGraph::from_weighted_edges(3, &[(0, 1, 2), (1, 2, 3)]);
        let mut d = DynamicWeightedSpc::build(g, OrderingStrategy::Degree);
        let v = d.add_vertex();
        d.insert_edge(v, VertexId(0), 1).unwrap();
        d.insert_edge(v, VertexId(2), 1).unwrap();
        // Shortcut through the new vertex: 0 → v → 2 costs 2 < 5.
        assert_eq!(d.query(VertexId(0), VertexId(2)), Some((2, 1)));
        assert_matches_oracle(d.graph(), d.index());
        d.delete_vertex(v).unwrap();
        assert_eq!(d.query(VertexId(0), VertexId(2)), Some((5, 1)));
        assert_matches_oracle(d.graph(), d.index());
        d.index().check_invariants().unwrap();
    }

    #[test]
    fn random_weighted_update_streams() {
        let mut rng = StdRng::seed_from_u64(2718);
        for trial in 0..4 {
            let base = erdos_renyi_gnm(20 + trial * 4, 55, &mut rng);
            let g = random_weights(&base, 5, &mut rng);
            let mut d = DynamicWeightedSpc::build(g, OrderingStrategy::Degree);
            for step in 0..20 {
                let roll: f64 = rng.gen();
                if roll < 0.35 || d.graph().num_edges() == 0 {
                    loop {
                        let a = rng.gen_range(0..d.graph().capacity() as u32);
                        let b = rng.gen_range(0..d.graph().capacity() as u32);
                        if a != b && !d.graph().has_edge(VertexId(a), VertexId(b)) {
                            d.insert_edge(VertexId(a), VertexId(b), rng.gen_range(1..=5))
                                .unwrap();
                            break;
                        }
                    }
                } else if roll < 0.6 {
                    let edges: Vec<_> = d.graph().edges().collect();
                    let (a, b, _) = edges[rng.gen_range(0..edges.len())];
                    d.delete_edge(a, b).unwrap();
                } else {
                    let edges: Vec<_> = d.graph().edges().collect();
                    let (a, b, _) = edges[rng.gen_range(0..edges.len())];
                    d.set_weight(a, b, rng.gen_range(1..=8)).unwrap();
                }
                if step % 5 == 4 {
                    assert_matches_oracle(d.graph(), d.index());
                    d.index().check_invariants().unwrap();
                }
            }
            assert_matches_oracle(d.graph(), d.index());
        }
    }
}
