//! Multi-edge deletion when shortest-path counts saturate.
//!
//! Counts saturate at `u64::MAX` in every kernel. Batch classification
//! tests condition **B** as `Σ through == SpcQUERY(v, far)`, and past
//! 2^64 paths both sides are saturated values. The sum saturates too, so
//! a vertex whose every shortest path is doomed still compares equal and
//! stays in `SR`. A vertex that keeps some paths may then also compare
//! equal; that only adds a repair sweep. These tests pin that the
//! repaired index matches a fresh build of the post-deletion graph on
//! every pair, for each variant at one and at two maintenance threads.
//!
//! The graphs are chains of diamonds: hub `h_i` joins arms `a_i`, `b_i`,
//! which both join `h_{i+1}`, so `h_0` reaches `h_k` along 2^k shortest
//! paths.

use dspc::directed::{ArcUpdate, DynamicDirectedSpc};
use dspc::dynamic::GraphUpdate;
use dspc::weighted::{DynamicWeightedSpc, WeightedUpdate};
use dspc::{DynamicSpc, MaintenanceThreads, OrderingStrategy};
use dspc_graph::{DirectedGraph, UndirectedGraph, VertexId, WeightedGraph};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Diamonds in the chain.
const DIAMONDS: u32 = 80;
/// The diamond whose two join edges the seeded batches cut.
const CUT: u32 = 70;
const SEEDS: [u64; 3] = [11, 12, 13];
const THREADS: [usize; 2] = [1, 2];

/// Asserts that facade `$d` answers every pair like a fresh `$facade`
/// build of its current graph.
macro_rules! assert_matches_fresh_build {
    ($d:expr, $facade:ty, $strategy:expr, $ctx:expr) => {{
        let fresh = <$facade>::build($d.graph().clone(), $strategy);
        for s in $d.graph().vertices() {
            for t in $d.graph().vertices() {
                assert_eq!($d.query(s, t), fresh.query(s, t), "{} ({s:?}, {t:?})", $ctx);
            }
        }
    }};
}

fn hub(i: u32) -> u32 {
    3 * i
}

/// The four edges of diamond `i`, join edges last.
fn diamond(i: u32) -> [(u32, u32); 4] {
    let (h, a, b, next) = (hub(i), hub(i) + 1, hub(i) + 2, hub(i + 1));
    [(h, a), (h, b), (a, next), (b, next)]
}

fn vertex_count() -> usize {
    hub(DIAMONDS) as usize + 1
}

fn chain_edges() -> Vec<(u32, u32)> {
    (0..DIAMONDS).flat_map(diamond).collect()
}

/// One edge from each of four seeded diamonds before the cut, halving the
/// counts through them, plus both join edges of the cut diamond: past the
/// 64th diamond, the doomed paths into the far endpoint number more than
/// 2^64 on both sides of the comparison.
fn doomed_edges(seed: u64) -> Vec<(u32, u32)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut picked: Vec<u32> = Vec::new();
    while picked.len() < 4 {
        let i = rng.gen_range(0..CUT);
        if !picked.contains(&i) {
            picked.push(i);
        }
    }
    let mut doomed: Vec<(u32, u32)> = picked
        .iter()
        .map(|&i| diamond(i)[rng.gen_range(0..4usize)])
        .collect();
    doomed.extend_from_slice(&diamond(CUT)[2..]);
    doomed
}

fn v(x: u32) -> VertexId {
    VertexId(x)
}

#[test]
fn undirected_batch_past_saturation_matches_fresh_build() {
    let g = UndirectedGraph::from_edges(vertex_count(), &chain_edges());
    for seed in SEEDS {
        for threads in THREADS {
            let mut d = DynamicSpc::build(g.clone(), OrderingStrategy::Degree);
            d.set_maintenance_threads(MaintenanceThreads::Fixed(threads));
            assert_eq!(
                d.query(v(hub(0)), v(hub(CUT + 1))).map(|(_, c)| c),
                Some(u64::MAX),
                "the chain saturates before the cut"
            );
            let ops: Vec<GraphUpdate> = doomed_edges(seed)
                .into_iter()
                .map(|(a, b)| GraphUpdate::DeleteEdge(v(a), v(b)))
                .collect();
            d.apply_batch(&ops).unwrap();
            assert_eq!(d.query(v(hub(0)), v(hub(CUT + 1))), None);
            assert_eq!(
                d.query(v(hub(0)), v(hub(CUT))).map(|(_, c)| c),
                Some(u64::MAX),
                "seed={seed}: counts stay saturated up to the cut"
            );
            let ctx = format!("seed={seed} threads={threads}");
            assert_matches_fresh_build!(d, DynamicSpc, OrderingStrategy::Degree, ctx);
        }
    }
}

#[test]
fn directed_batch_past_saturation_matches_fresh_build() {
    let arcs: Vec<(u32, u32)> = chain_edges()
        .into_iter()
        .flat_map(|(a, b)| [(a, b), (b, a)])
        .collect();
    let g = DirectedGraph::from_arcs(vertex_count(), &arcs);
    for seed in SEEDS {
        for threads in THREADS {
            let mut d = DynamicDirectedSpc::build(g.clone(), OrderingStrategy::Degree);
            d.set_maintenance_threads(MaintenanceThreads::Fixed(threads));
            let ops: Vec<ArcUpdate> = doomed_edges(seed)
                .into_iter()
                .flat_map(|(a, b)| {
                    [
                        ArcUpdate::DeleteArc(v(a), v(b)),
                        ArcUpdate::DeleteArc(v(b), v(a)),
                    ]
                })
                .collect();
            d.apply_batch(&ops).unwrap();
            assert_eq!(
                d.query(v(hub(CUT)), v(hub(0))).map(|(_, c)| c),
                Some(u64::MAX),
                "seed={seed}: counts stay saturated up to the cut"
            );
            let ctx = format!("seed={seed} threads={threads}");
            assert_matches_fresh_build!(d, DynamicDirectedSpc, OrderingStrategy::Degree, ctx);
        }
    }
}

#[test]
fn weighted_batch_past_saturation_matches_fresh_build() {
    // Every diamond's edges weigh the same, so both arms stay tied.
    let edges: Vec<(u32, u32, u32)> = (0..DIAMONDS)
        .flat_map(|i| diamond(i).map(|(a, b)| (a, b, 1 + i % 3)))
        .collect();
    let g = WeightedGraph::from_weighted_edges(vertex_count(), &edges);
    for seed in SEEDS {
        for threads in THREADS {
            let mut d = DynamicWeightedSpc::build(g.clone(), OrderingStrategy::Degree);
            d.set_maintenance_threads(MaintenanceThreads::Fixed(threads));
            let ops: Vec<WeightedUpdate> = doomed_edges(seed)
                .into_iter()
                .map(|(a, b)| WeightedUpdate::DeleteEdge(v(a), v(b)))
                .collect();
            d.apply_batch(&ops).unwrap();
            assert_eq!(
                d.query(v(hub(0)), v(hub(CUT))).map(|(_, c)| c),
                Some(u64::MAX),
                "seed={seed}: counts stay saturated up to the cut"
            );
            let ctx = format!("seed={seed} threads={threads}");
            assert_matches_fresh_build!(d, DynamicWeightedSpc, OrderingStrategy::Degree, ctx);
        }
    }
}

/// The mixed frontier of `tests/mixed_frontier.rs`, scaled past 2^64:
/// `v` reaches `y` through `m1` and through `m2`, each behind its own
/// chain of `k` diamonds, plus a detour one hop longer. Deleting
/// `(m1, y)` and `(m2, y)` dooms every shortest `v`–`y` path, but each
/// doomed last hop carries only half of them, so `v` lands in `SR` only
/// through the summed through-count. Edges are listed oriented away
/// from `v`, so they double as the arcs of the directed case. Identity
/// ordering ranks `m1`, `m2` above `v`, which keeps condition **A** out.
fn split_frontier(k: u32) -> (usize, Vec<(u32, u32)>) {
    const M1: u32 = 0;
    const M2: u32 = 1;
    const V: u32 = 2;
    const Y: u32 = 3;
    let mut next = 4u32;
    let mut fresh = || {
        next += 1;
        next - 1
    };
    let mut edges: Vec<(u32, u32)> = vec![(M1, Y), (M2, Y)];
    for end in [M1, M2] {
        let mut h = V;
        for i in 0..k {
            let (a, b) = (fresh(), fresh());
            let join = if i + 1 == k { end } else { fresh() };
            edges.extend_from_slice(&[(h, a), (h, b), (a, join), (b, join)]);
            h = join;
        }
    }
    let mut prev = V;
    for _ in 0..2 * k + 1 {
        let step = fresh();
        edges.push((prev, step));
        prev = step;
    }
    edges.push((prev, Y));
    (fresh() as usize, edges)
}

#[test]
fn split_frontier_past_saturation_matches_fresh_build() {
    let doomed = [(v(0), v(3)), (v(1), v(3))];
    // 3 diamonds stay exact; 66 put 2^66 paths behind each doomed edge.
    for k in [3u32, 66] {
        let (n, edges) = split_frontier(k);
        let weighted: Vec<(u32, u32, u32)> = edges.iter().map(|&(a, b)| (a, b, 1)).collect();
        for threads in THREADS {
            let ctx = format!("k={k} threads={threads}");
            let threads = MaintenanceThreads::Fixed(threads);

            let g = UndirectedGraph::from_edges(n, &edges);
            let mut d = DynamicSpc::build(g, OrderingStrategy::Identity);
            d.set_maintenance_threads(threads);
            d.delete_edges(&doomed).unwrap();
            assert_matches_fresh_build!(d, DynamicSpc, OrderingStrategy::Identity, ctx);

            let g = DirectedGraph::from_arcs(n, &edges);
            let mut d = DynamicDirectedSpc::build(g, OrderingStrategy::Identity);
            d.set_maintenance_threads(threads);
            d.delete_arcs(&doomed).unwrap();
            assert_matches_fresh_build!(d, DynamicDirectedSpc, OrderingStrategy::Identity, ctx);

            let g = WeightedGraph::from_weighted_edges(n, &weighted);
            let mut d = DynamicWeightedSpc::build(g, OrderingStrategy::Identity);
            d.set_maintenance_threads(threads);
            d.delete_edges(&doomed).unwrap();
            assert_matches_fresh_build!(d, DynamicWeightedSpc, OrderingStrategy::Identity, ctx);
        }
    }
}
