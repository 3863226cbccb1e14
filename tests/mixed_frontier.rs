//! Regression pin for the mixed-frontier misclassification.
//!
//! When two doomed last-hop edges share their far endpoint, a per-edge
//! classification compares `spc(v, near)` against a `spc(v, far)`
//! computed one doomed edge at a time: each comparison sees only part of
//! the doomed path count, condition **B** undercounts, and a fully
//! affected vertex (SR — every shortest path doomed) is misread as R
//! (count-only repair). Multi-far classification sums the per-far count
//! columns across every doomed edge sharing that far before comparing,
//! so equality again means "all shortest paths doomed".
//!
//! The crafted graph: two middlemen `m1`, `m2` both adjacent to `v` and
//! `y`, plus a long detour `v—p—q—y`. Deleting `(m1, y)` and `(m2, y)` in
//! one batch dooms *both* of `v`'s shortest paths to `y`; a per-edge
//! comparison sees `spc(v, y) = 2` against a through-count of 1 per edge
//! and would leave `v`'s stale distance-2 label in place.

use dspc::directed::{ArcUpdate, DynamicDirectedSpc};
use dspc::verify::{verify_all_pairs, verify_directed_all_pairs, verify_weighted_all_pairs};
use dspc::weighted::{DynamicWeightedSpc, WeightedUpdate};
use dspc::{DynamicSpc, MaintenanceThreads, OrderingStrategy};
use dspc_graph::{DirectedGraph, UndirectedGraph, VertexId, WeightedGraph};

// Identity ordering: vertex id == rank, lower id = higher rank.
const M1: VertexId = VertexId(0);
const M2: VertexId = VertexId(1);
const V: VertexId = VertexId(2);
const Y: VertexId = VertexId(5);

fn mixed_frontier_graph() -> UndirectedGraph {
    UndirectedGraph::from_edges(6, &[(0, 2), (1, 2), (0, 5), (1, 5), (2, 3), (3, 4), (4, 5)])
}

#[test]
fn undirected_multi_far_classification_fixes_the_batch() {
    let doomed = [(M1, Y), (M2, Y)];
    // Exact at every thread count.
    for threads in [1usize, 2, 4, 8] {
        let mut d = DynamicSpc::build(mixed_frontier_graph(), OrderingStrategy::Identity);
        d.set_maintenance_threads(MaintenanceThreads::Fixed(threads));
        let stats = d.delete_edges(&doomed).unwrap();
        assert_eq!(
            d.query(V, Y),
            Some((3, 1)),
            "threads={threads}: v reaches y through the detour only"
        );
        verify_all_pairs(d.graph(), d.index()).unwrap();
        d.index().check_invariants().unwrap();
        // One sweep per distinct doomed endpoint {m1, m2, y}; y's sweep
        // classifies against both fars at once.
        assert_eq!(stats.classify_sweeps, 3, "threads={threads}");
        assert_eq!(stats.multi_far_sweeps, 1, "threads={threads}");
    }
}

#[test]
fn directed_mixed_frontier_batch() {
    // Same shape, oriented v→{m1,m2}→y and v→p→q→y.
    let g = DirectedGraph::from_arcs(6, &[(2, 0), (2, 1), (0, 5), (1, 5), (2, 3), (3, 4), (4, 5)]);
    let ops = [ArcUpdate::DeleteArc(M1, Y), ArcUpdate::DeleteArc(M2, Y)];
    for threads in [1usize, 2, 4] {
        let mut d = DynamicDirectedSpc::build(g.clone(), OrderingStrategy::Identity);
        d.set_maintenance_threads(MaintenanceThreads::Fixed(threads));
        let stats = d.apply_batch(&ops).unwrap();
        assert_eq!(d.query(V, Y), Some((3, 1)), "threads={threads}");
        verify_directed_all_pairs(d.graph(), d.index()).unwrap();
        d.index().check_invariants().unwrap();
        // Tail tasks {m1, m2} plus one head task for y (fars {m1, m2}).
        assert_eq!(stats.classify_sweeps, 3, "threads={threads}");
        assert_eq!(stats.multi_far_sweeps, 1, "threads={threads}");
    }
}

#[test]
fn weighted_mixed_frontier_batch() {
    let g = WeightedGraph::from_weighted_edges(
        6,
        &[
            (0, 2, 1),
            (1, 2, 1),
            (0, 5, 1),
            (1, 5, 1),
            (2, 3, 1),
            (3, 4, 1),
            (4, 5, 1),
        ],
    );
    let ops = [
        WeightedUpdate::DeleteEdge(M1, Y),
        WeightedUpdate::DeleteEdge(M2, Y),
    ];
    for threads in [1usize, 2, 4] {
        let mut d = DynamicWeightedSpc::build(g.clone(), OrderingStrategy::Identity);
        d.set_maintenance_threads(MaintenanceThreads::Fixed(threads));
        let stats = d.apply_batch(&ops).unwrap();
        assert_eq!(d.query(V, Y), Some((3, 1)), "threads={threads}");
        verify_weighted_all_pairs(d.graph(), d.index()).unwrap();
        d.index().check_invariants().unwrap();
        assert_eq!(stats.classify_sweeps, 3, "threads={threads}");
        assert_eq!(stats.multi_far_sweeps, 1, "threads={threads}");
    }
}
