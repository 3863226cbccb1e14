//! Directed IncSPC / DecSPC (Appendix C.1).
//!
//! The undirected algorithms with directions attached:
//!
//! * **Insertion of arc `a → b`.** Affected hubs come from
//!   `L_in(a) ∪ L_out(b)`. A hub `h ∈ L_in(a)` (it tops paths `h → … → a`)
//!   runs a *forward* pruned BFS from `b`, seeded across the new arc,
//!   repairing `L_in` labels downstream. A hub `h ∈ L_out(b)` runs the
//!   mirror-image *backward* BFS from `a`, repairing `L_out` labels
//!   upstream.
//! * **Deletion of arc `a → b`.** `SR_a/R_a` are found by a backward
//!   counting sweep from `a` (vertices with shortest paths `v → a → b`),
//!   classified per Definition 3.10 with in-side hub membership;
//!   `SR_b/R_b` symmetrically by a forward sweep from `b` with out-side
//!   membership. Then hubs in `SR_a` repair `L_in` labels of
//!   `SR_b ∪ R_b` by forward BFS, hubs in `SR_b` repair `L_out` labels of
//!   `SR_a ∪ R_a` by backward BFS, with the same `PreQUERY` pruning and
//!   removal pass as the undirected Algorithm 6.

use super::{DirectedSpcIndex, Side};
use crate::engine::deletion::{ClassifyRole, DecDriver, DeletionVariant, SweepFrom};
use crate::engine::parallel::LabelWriteOp;
use crate::engine::{
    merge_affected, DirectedTopo, FrozenDirected, MaintenanceCounters, UpdateEngine, MARK_A,
    MARK_B, REPAIR_PRIMARY, REPAIR_SECONDARY,
};
use crate::label::{LabelEntry, Rank};
use crate::query::HubProbe;
use dspc_graph::{DirectedGraph, VertexId};

/// Directed incremental driver: the arc-insertion policy over the shared
/// [`UpdateEngine`], running the forward (`L_in`) and backward (`L_out`)
/// halves through [`DirectedTopo`] views.
#[derive(Debug)]
pub struct DirectedIncSpc {
    engine: UpdateEngine<u32>,
    probe: HubProbe,
}

impl DirectedIncSpc {
    /// Creates an engine for graphs up to `capacity` ids.
    pub fn new(capacity: usize) -> Self {
        DirectedIncSpc {
            engine: UpdateEngine::new(capacity),
            probe: HubProbe::new(capacity),
        }
    }

    /// Repairs `index` after arc `a → b` was inserted into `g`. Returns the
    /// label-operation counters.
    pub fn insert_arc(
        &mut self,
        g: &DirectedGraph,
        index: &mut DirectedSpcIndex,
        a: VertexId,
        b: VertexId,
    ) -> MaintenanceCounters {
        debug_assert!(g.has_arc(a, b));
        self.engine.ensure_capacity(g.capacity());
        let mut stats = MaintenanceCounters::default();
        // Snapshot AFF = hubs(L_in(a)) ∪ hubs(L_out(b)) with side flags,
        // merged in descending rank order.
        let aff = merge_affected(index.label_in(a).entries(), index.label_out(b).entries());
        let rank_a = index.rank(a);
        let rank_b = index.rank(b);
        for (h_rank, from_in_a, from_out_b) in aff {
            let h = index.vertex(h_rank);
            stats.hubs_processed += 1;
            // The seed label lives on the same family as the repaired side:
            // L_in(a) when repairing L_in, L_out(b) when repairing L_out.
            if from_in_a && h_rank <= rank_b {
                // New paths h → … → a → b → …: forward from b, L_in side.
                if let Some(seed) = index.label_in(a).get(h_rank).copied() {
                    let mut topo = DirectedTopo::new(g, index, &mut self.probe, Side::In);
                    self.engine
                        .inc_pass(&mut topo, h, b, seed.dist + 1, seed.count, &mut stats);
                }
            }
            if from_out_b && h_rank <= rank_a {
                // New paths … → a → b → … → h: backward from a, L_out side.
                if let Some(seed) = index.label_out(b).get(h_rank).copied() {
                    let mut topo = DirectedTopo::new(g, index, &mut self.probe, Side::Out);
                    self.engine
                        .inc_pass(&mut topo, h, a, seed.dist + 1, seed.count, &mut stats);
                }
            }
        }
        stats
    }
}

/// The label side a repair family names: [`REPAIR_PRIMARY`] is `L_in`,
/// [`REPAIR_SECONDARY`] is `L_out`.
fn family_side(family: u8) -> Side {
    if family == REPAIR_PRIMARY {
        Side::In
    } else {
        Side::Out
    }
}

/// The directed variant of the batch-deletion orchestrator
/// ([`crate::engine::deletion`]). Tail tasks sweep backward from each
/// arc's tail (the `L_out` view, heads as fars) and flag their hubs to
/// repair `L_in`; head tasks are the mirror image. A hub affected from
/// both directions gets both flags in one agenda entry.
#[derive(Debug)]
pub struct DirectedDeletion;

impl DeletionVariant for DirectedDeletion {
    type Graph = DirectedGraph;
    type Index = DirectedSpcIndex;
    type Probe = HubProbe;
    type Dist = u32;
    type Live<'a> = DirectedTopo<'a>;
    type Frozen<'a> = FrozenDirected<'a>;

    const ROLES: &'static [ClassifyRole] = &[
        ClassifyRole {
            from: SweepFrom::Tails,
            view: REPAIR_SECONDARY,
            repair: REPAIR_PRIMARY,
        },
        ClassifyRole {
            from: SweepFrom::Heads,
            view: REPAIR_PRIMARY,
            repair: REPAIR_SECONDARY,
        },
    ];

    fn new_probe(capacity: usize) -> HubProbe {
        HubProbe::new(capacity)
    }

    fn capacity(g: &DirectedGraph) -> usize {
        g.capacity()
    }

    fn edge_key(a: VertexId, b: VertexId) -> (u32, u32) {
        (a.0, b.0)
    }

    fn edge_len(g: &DirectedGraph, a: VertexId, b: VertexId) -> Option<u32> {
        g.has_arc(a, b).then_some(1)
    }

    fn live<'a>(
        g: &'a DirectedGraph,
        index: &'a mut DirectedSpcIndex,
        probe: &'a mut HubProbe,
        family: u8,
    ) -> DirectedTopo<'a> {
        DirectedTopo::new(g, index, probe, family_side(family))
    }

    fn frozen<'a>(
        g: &'a DirectedGraph,
        index: &'a DirectedSpcIndex,
        probe: &'a mut HubProbe,
        family: u8,
    ) -> FrozenDirected<'a> {
        FrozenDirected::new(g, index, probe, family_side(family))
    }

    fn rank(index: &DirectedSpcIndex, v: VertexId) -> Rank {
        index.rank(v)
    }

    fn vertex(index: &DirectedSpcIndex, r: Rank) -> VertexId {
        index.vertex(r)
    }

    fn for_each_residual_neighbor(g: &DirectedGraph, v: u32, f: &mut dyn FnMut(u32)) {
        let v = VertexId(v);
        for &w in g.out_neighbors(v).iter().chain(g.in_neighbors(v)) {
            f(w);
        }
    }

    fn for_each_label_hub(index: &DirectedSpcIndex, v: VertexId, f: &mut dyn FnMut(Rank)) {
        let (l_in, l_out) = (index.label_in(v).entries(), index.label_out(v).entries());
        for e in l_in.iter().chain(l_out) {
            f(e.hub);
        }
    }

    fn commit(index: &mut DirectedSpcIndex, family: u8, (v, hub, op): LabelWriteOp<u32>) {
        let labels = index.label_mut(family_side(family), v);
        match op {
            Some((d, c)) => labels.upsert(LabelEntry::new(hub, d, c)),
            None => labels.remove(hub),
        };
    }

    fn remove_edge(g: &mut DirectedGraph, a: VertexId, b: VertexId) -> dspc_graph::Result<()> {
        g.delete_arc(a, b)
    }

    fn delete_one(
        driver: &mut DirectedDecSpc,
        g: &mut DirectedGraph,
        index: &mut DirectedSpcIndex,
        a: VertexId,
        b: VertexId,
    ) -> dspc_graph::Result<MaintenanceCounters> {
        driver.delete_arc(g, index, a, b)
    }
}

/// Directed decremental driver: the arc-deletion policy over the shared
/// [`UpdateEngine`]. Arc sets go through [`DecDriver::delete_batch`].
pub type DirectedDecSpc = DecDriver<DirectedDeletion>;

impl DirectedDecSpc {
    /// Deletes arc `a → b` from `g` and repairs `index`. Returns the
    /// label-operation counters.
    pub fn delete_arc(
        &mut self,
        g: &mut DirectedGraph,
        index: &mut DirectedSpcIndex,
        a: VertexId,
        b: VertexId,
    ) -> dspc_graph::Result<MaintenanceCounters> {
        if !g.has_arc(a, b) {
            return Err(dspc_graph::GraphError::MissingEdge(a, b));
        }
        let (engine, probe) = self.sweep.parts();
        engine.ensure_capacity(g.capacity());
        let mut stats = MaintenanceCounters::default();

        // Phase 1 on G_i: senders upstream of a (backward sweep from a over
        // in-arcs = the L_out view), receivers downstream of b (forward
        // sweep from b = the L_in view). The view's pin/scan/membership
        // sides line up with the sweep direction by construction — see
        // [`DirectedTopo`].
        let (sr_a, r_a) = {
            let mut topo = DirectedTopo::new(g, index, probe, Side::Out);
            engine.srr_pass(&mut topo, a, b, 1, &mut stats)
        };
        let (sr_b, r_b) = {
            let mut topo = DirectedTopo::new(g, index, probe, Side::In);
            engine.srr_pass(&mut topo, b, a, 1, &mut stats)
        };
        engine.set_marks([&sr_a, &r_a], [&sr_b, &r_b]);

        g.delete_arc(a, b)?;

        let mut sr: Vec<(Rank, bool)> = sr_a
            .iter()
            .map(|&v| (index.rank(v), true))
            .chain(sr_b.iter().map(|&v| (index.rank(v), false)))
            .collect();
        sr.sort_unstable_by_key(|&(r, _)| r);

        for &(h_rank, upstream) in &sr {
            let h = index.vertex(h_rank);
            stats.hubs_processed += 1;
            let (repair, opposite, removal) = if upstream {
                // h tops paths h → … → a → b → …; repair L_in downstream.
                (Side::In, MARK_B, [&sr_b[..], &r_b[..]])
            } else {
                (Side::Out, MARK_A, [&sr_a[..], &r_a[..]])
            };
            let mut topo = DirectedTopo::new(g, index, probe, repair);
            engine.dec_pass(&mut topo, h, opposite, removal, &mut stats);
        }

        engine.clear_marks();
        Ok(stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::directed::{directed_spc_query, DynamicDirectedSpc};
    use crate::order::OrderingStrategy;
    use dspc_graph::generators::random::{erdos_renyi_gnm, random_orientation};
    use dspc_graph::traversal::dbfs::DirectedBfsCounter;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn assert_matches_oracle(g: &DirectedGraph, index: &DirectedSpcIndex) {
        let mut bfs = DirectedBfsCounter::new(g.capacity());
        for s in g.vertices() {
            for t in g.vertices() {
                assert_eq!(
                    directed_spc_query(index, s, t).as_option(),
                    bfs.count(g, s, t),
                    "pair ({s:?} → {t:?})"
                );
            }
        }
    }

    #[test]
    fn insert_creates_reachability() {
        let g = DirectedGraph::from_arcs(4, &[(0, 1), (2, 3)]);
        let mut d = DynamicDirectedSpc::build(g, OrderingStrategy::Degree);
        assert_eq!(d.query(VertexId(0), VertexId(3)), None);
        d.insert_arc(VertexId(1), VertexId(2)).unwrap();
        assert_eq!(d.query(VertexId(0), VertexId(3)), Some((3, 1)));
        assert_matches_oracle(d.graph(), d.index());
    }

    #[test]
    fn insert_parallel_path_updates_counts() {
        let g = DirectedGraph::from_arcs(4, &[(0, 1), (1, 3), (0, 2)]);
        let mut d = DynamicDirectedSpc::build(g, OrderingStrategy::Degree);
        d.insert_arc(VertexId(2), VertexId(3)).unwrap();
        assert_eq!(d.query(VertexId(0), VertexId(3)), Some((2, 2)));
        assert_matches_oracle(d.graph(), d.index());
    }

    #[test]
    fn delete_reroutes_and_disconnects() {
        let g = DirectedGraph::from_arcs(5, &[(0, 1), (1, 2), (2, 3), (0, 4), (4, 3)]);
        let mut d = DynamicDirectedSpc::build(g, OrderingStrategy::Degree);
        assert_eq!(d.query(VertexId(0), VertexId(3)), Some((2, 1)));
        d.delete_arc(VertexId(4), VertexId(3)).unwrap();
        assert_eq!(d.query(VertexId(0), VertexId(3)), Some((3, 1)));
        assert_matches_oracle(d.graph(), d.index());
        d.delete_arc(VertexId(2), VertexId(3)).unwrap();
        assert_eq!(d.query(VertexId(0), VertexId(3)), None);
        assert_matches_oracle(d.graph(), d.index());
    }

    #[test]
    fn reciprocal_arcs_are_independent() {
        let g = DirectedGraph::from_arcs(3, &[(0, 1), (1, 0), (1, 2), (2, 1)]);
        let mut d = DynamicDirectedSpc::build(g, OrderingStrategy::Degree);
        d.delete_arc(VertexId(1), VertexId(2)).unwrap();
        assert_eq!(d.query(VertexId(0), VertexId(2)), None);
        assert_eq!(d.query(VertexId(2), VertexId(0)), Some((2, 1)));
        assert_matches_oracle(d.graph(), d.index());
    }

    #[test]
    fn random_hybrid_streams_match_oracle() {
        let mut rng = StdRng::seed_from_u64(777);
        for trial in 0..5 {
            let base = erdos_renyi_gnm(22 + trial, 50, &mut rng);
            let g = random_orientation(&base, 0.25, &mut rng);
            let mut d = DynamicDirectedSpc::build(g, OrderingStrategy::Degree);
            for step in 0..24 {
                if rng.gen_bool(0.6) || d.graph().num_arcs() == 0 {
                    loop {
                        let a = rng.gen_range(0..d.graph().capacity() as u32);
                        let b = rng.gen_range(0..d.graph().capacity() as u32);
                        if a != b && !d.graph().has_arc(VertexId(a), VertexId(b)) {
                            d.insert_arc(VertexId(a), VertexId(b)).unwrap();
                            break;
                        }
                    }
                } else {
                    let arcs: Vec<_> = d.graph().arcs().collect();
                    let (a, b) = arcs[rng.gen_range(0..arcs.len())];
                    d.delete_arc(a, b).unwrap();
                }
                if step % 6 == 5 {
                    assert_matches_oracle(d.graph(), d.index());
                    d.index().check_invariants().unwrap();
                }
            }
            assert_matches_oracle(d.graph(), d.index());
        }
    }

    #[test]
    fn delete_missing_arc_errors() {
        let g = DirectedGraph::from_arcs(2, &[(0, 1)]);
        let mut d = DynamicDirectedSpc::build(g, OrderingStrategy::Degree);
        assert!(d.delete_arc(VertexId(1), VertexId(0)).is_err());
    }

    #[test]
    fn vertex_lifecycle_directed() {
        let g = DirectedGraph::from_arcs(3, &[(0, 1), (1, 2)]);
        let mut d = DynamicDirectedSpc::build(g, OrderingStrategy::Degree);
        let v = d.add_vertex();
        assert_eq!(v, VertexId(3));
        d.insert_arc(VertexId(2), v).unwrap();
        d.insert_arc(v, VertexId(0)).unwrap();
        assert_eq!(d.query(VertexId(0), v), Some((3, 1)));
        assert_eq!(d.query(v, VertexId(1)), Some((2, 1)));
        assert_matches_oracle(d.graph(), d.index());
        d.delete_vertex(v).unwrap();
        assert_matches_oracle(d.graph(), d.index());
        d.index().check_invariants().unwrap();
    }
}
