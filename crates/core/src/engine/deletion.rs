//! The multi-edge DecSPC orchestrator: one batch-deletion pipeline for the
//! undirected, directed, and weighted variants.
//!
//! A net-deletion set runs through five steps, whatever the variant:
//!
//! 1. **Validate** — every edge present, no edge twice; on error nothing
//!    is applied.
//! 2. **Classify** on the pre-deletion graph: one
//!    [`UpdateEngine::multi_far_pass`] per distinct doomed endpoint and
//!    [`ClassifyRole`], with the per-far count columns summed per shared
//!    far endpoint ([`aggregate_far_columns`]) before condition **B** is
//!    tested. The endpoint tasks fan out over the thread budget; one
//!    thread runs them inline on the driver's own scratch.
//! 3. **Mark** the union of classified vertices as the shared
//!    receiver/removal frontier ([`RepairAgenda`]).
//! 4. **Delete** the whole set from the graph.
//! 5. **Repair**: one `DecUPDATE` sweep per distinct agenda hub and label
//!    family, in descending rank order, against the residual graph. One
//!    thread runs the sweeps live on the index; more threads run them as
//!    frozen sweeps in rank-independent waves on a worker pool
//!    ([`super::parallel`]), with identical results and counters.
//!
//! What differs per variant — graph, index and probe types, the views the
//! engine reads through, the classification roles, edge lengths, and how
//! a buffered label write lands — is supplied by a [`DeletionVariant`].

use super::parallel::{
    agenda_components, note_schedule, plan_waves, run_wave_pool, Buffered, Interference,
    LabelWriteLog, LabelWriteOp,
};
use super::{
    aggregate_far_columns, build_endpoint_tasks, duplicate_edge_key, EngineDist, FarAggregator,
    FrozenTopology, LabelTopology, MaintenanceCounters, RepairAgenda, UpdateEngine, MARK_A,
    REPAIR_PRIMARY, REPAIR_SECONDARY,
};
use crate::label::Rank;
use crate::parallel::{fan_out, MaintenanceThreads};
use dspc_graph::{GraphError, VertexId};

/// Which endpoint of each doomed edge a classification role sweeps from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SweepFrom {
    /// Both endpoints, each classifying against the other (undirected and
    /// weighted edges).
    Both,
    /// The tail `a` of each arc `a → b`, classifying against the head.
    Tails,
    /// The head `b` of each arc `a → b`, classifying against the tail.
    Heads,
}

impl SweepFrom {
    /// The `(near, far, len)` classification sides of edge `(a, b)`.
    fn sides<D: Copy>(
        self,
        a: VertexId,
        b: VertexId,
        len: D,
    ) -> impl Iterator<Item = (VertexId, VertexId, D)> {
        let forward = (self != SweepFrom::Heads).then_some((a, b, len));
        let backward = (self != SweepFrom::Tails).then_some((b, a, len));
        forward.into_iter().chain(backward)
    }
}

/// One classification role: which endpoints sweep, through which view,
/// and which label family their `SR` hubs must repair.
#[derive(Clone, Copy, Debug)]
pub struct ClassifyRole {
    /// The sweep origins.
    pub from: SweepFrom,
    /// The [`REPAIR_PRIMARY`]/[`REPAIR_SECONDARY`] family whose frozen
    /// view the sweep reads (its adjacency direction and probe side).
    pub view: u8,
    /// The family the role's `SR` hubs are flagged to repair.
    pub repair: u8,
}

/// The single role of the undirected and weighted variants: every doomed
/// endpoint sweeps, and its hubs repair the one label family.
pub const SYMMETRIC_ROLES: &[ClassifyRole] = &[ClassifyRole {
    from: SweepFrom::Both,
    view: REPAIR_PRIMARY,
    repair: REPAIR_PRIMARY,
}];

/// What one graph variant supplies to the batch-deletion orchestrator.
///
/// Label families are named by the [`RepairAgenda`] flags:
/// [`REPAIR_PRIMARY`] is `L` (undirected, weighted) or `L_in` (directed),
/// [`REPAIR_SECONDARY`] is `L_out`.
pub trait DeletionVariant: Sized {
    /// The graph.
    type Graph: Sync;
    /// The SPC index.
    type Index: Send + Sync;
    /// The pinned-hub probe the views query through.
    type Probe: std::fmt::Debug;
    /// The distance domain.
    type Dist: EngineDist + Send + Sync;
    /// The live read-write view of one label family.
    type Live<'a>: LabelTopology<Dist = Self::Dist>;
    /// The frozen read-only view of one label family.
    type Frozen<'a>: FrozenTopology<Dist = Self::Dist>;

    /// The classification roles, in the order they feed the agenda.
    const ROLES: &'static [ClassifyRole];

    /// A probe for rank spaces up to `capacity`.
    fn new_probe(capacity: usize) -> Self::Probe;

    /// The graph's id-space size.
    fn capacity(g: &Self::Graph) -> usize;

    /// The duplicate-detection key of edge `(a, b)`.
    fn edge_key(a: VertexId, b: VertexId) -> (u32, u32);

    /// The length of edge `(a, b)` (1 when unweighted), `None` when absent.
    fn edge_len(g: &Self::Graph, a: VertexId, b: VertexId) -> Option<Self::Dist>;

    /// The live view repairing `family`.
    fn live<'a>(
        g: &'a Self::Graph,
        index: &'a mut Self::Index,
        probe: &'a mut Self::Probe,
        family: u8,
    ) -> Self::Live<'a>;

    /// The frozen view of `family`.
    fn frozen<'a>(
        g: &'a Self::Graph,
        index: &'a Self::Index,
        probe: &'a mut Self::Probe,
        family: u8,
    ) -> Self::Frozen<'a>;

    /// Rank of `v`.
    fn rank(index: &Self::Index, v: VertexId) -> Rank;

    /// Vertex of rank `r`.
    fn vertex(index: &Self::Index, r: Rank) -> VertexId;

    /// Visits each residual neighbor of `v` for the interference
    /// components (both arc directions on digraphs: weak components).
    fn for_each_residual_neighbor(g: &Self::Graph, v: u32, f: &mut dyn FnMut(u32));

    /// Visits the hub of every label at `v`, across all families.
    fn for_each_label_hub(index: &Self::Index, v: VertexId, f: &mut dyn FnMut(Rank));

    /// Applies one buffered label write to `family`.
    fn commit(index: &mut Self::Index, family: u8, op: LabelWriteOp<Self::Dist>);

    /// Removes edge `(a, b)` from the graph.
    fn remove_edge(g: &mut Self::Graph, a: VertexId, b: VertexId) -> dspc_graph::Result<()>;

    /// The single-edge deletion path (Algorithm 4).
    fn delete_one(
        driver: &mut DecDriver<Self>,
        g: &mut Self::Graph,
        index: &mut Self::Index,
        a: VertexId,
        b: VertexId,
    ) -> dspc_graph::Result<MaintenanceCounters>;

    /// Whether `(a, b)` qualifies for the §3.2.3 isolated-vertex fast
    /// path, so the batch peels it off and deletes it alone.
    fn peels(_g: &Self::Graph, _index: &mut Self::Index, _a: VertexId, _b: VertexId) -> bool {
        false
    }
}

/// One thread's reusable sweep state: an engine arena plus a probe pool.
/// Probe 0 serves single-probe sweeps; a multi-far classification sweep
/// pins one probe per far endpoint.
#[derive(Debug)]
pub(crate) struct SweepScratch<D: EngineDist, P> {
    engine: UpdateEngine<D>,
    /// Never empty.
    probes: Vec<P>,
}

impl<D: EngineDist, P> SweepScratch<D, P> {
    /// Scratch for graphs up to `capacity` ids with one probe.
    fn new(capacity: usize, probe: P) -> Self {
        SweepScratch {
            engine: UpdateEngine::new(capacity),
            probes: vec![probe],
        }
    }

    /// The engine and probe 0.
    pub(crate) fn parts(&mut self) -> (&mut UpdateEngine<D>, &mut P) {
        (&mut self.engine, &mut self.probes[0])
    }

    /// The engine and the first `n` probes, growing the pool with `make`.
    fn pool(&mut self, n: usize, make: impl Fn() -> P) -> (&mut UpdateEngine<D>, &mut [P]) {
        while self.probes.len() < n {
            self.probes.push(make());
        }
        (&mut self.engine, &mut self.probes[..n])
    }
}

/// The reusable DecSPC driver of one graph variant: the single-edge paths
/// live on its per-variant aliases ([`crate::dec::DecSpc`],
/// [`crate::directed::DirectedDecSpc`], [`crate::weighted::WeightedDecSpc`]),
/// the batch path is [`DecDriver::delete_batch`].
#[derive(Debug)]
pub struct DecDriver<V: DeletionVariant> {
    pub(crate) sweep: SweepScratch<V::Dist, V::Probe>,
    agenda: RepairAgenda,
    agg: FarAggregator,
}

impl<V: DeletionVariant> DecDriver<V> {
    /// Creates a driver for graphs up to `capacity` ids.
    pub fn new(capacity: usize) -> Self {
        DecDriver {
            sweep: SweepScratch::new(capacity, V::new_probe(capacity)),
            agenda: RepairAgenda::new(capacity),
            agg: FarAggregator::new(capacity),
        }
    }

    /// Multi-edge `SrrSEARCH` repair, the batch generalization of
    /// Algorithm 4: deletes every edge of `edges` from `g` and repairs
    /// `index` with at most one `DecUPDATE` sweep per distinct affected
    /// hub and label family, instead of one per edge per hub (see the
    /// module docs for the pipeline).
    ///
    /// A single edge takes the variant's single-edge path, and so does
    /// every edge the variant peels for the §3.2.3 fast path. Results —
    /// index, query answers, and label-operation counters — are identical
    /// at every thread count; only the `waves` / `max_wave_width` /
    /// `interference_probes` / `steal_events` schedule counters tell the
    /// parallel path apart.
    ///
    /// All edges are validated present and pairwise distinct before the
    /// first mutation; on error nothing is applied.
    pub fn delete_batch(
        &mut self,
        g: &mut V::Graph,
        index: &mut V::Index,
        edges: &[(VertexId, VertexId)],
        threads: MaintenanceThreads,
    ) -> dspc_graph::Result<MaintenanceCounters> {
        match edges {
            [] => return Ok(MaintenanceCounters::default()),
            &[(a, b)] => return V::delete_one(self, g, index, a, b),
            _ => {}
        }
        let mut keys: Vec<(u32, u32)> = Vec::with_capacity(edges.len());
        let mut doomed: Vec<(VertexId, VertexId, V::Dist)> = Vec::with_capacity(edges.len());
        for &(a, b) in edges {
            let len = V::edge_len(g, a, b).ok_or(GraphError::MissingEdge(a, b))?;
            keys.push(V::edge_key(a, b));
            doomed.push((a, b, len));
        }
        if let Some((x, y)) = duplicate_edge_key(&mut keys) {
            return Err(GraphError::MissingEdge(VertexId(x), VertexId(y)));
        }

        // Peel fast-path edges, checked against the evolving graph: each
        // peeled deletion can strand the next pendant.
        let mut total = MaintenanceCounters::default();
        let mut group = Vec::with_capacity(doomed.len());
        for (a, b, len) in doomed {
            if V::peels(g, index, a, b) {
                total.absorb(&V::delete_one(self, g, index, a, b)?);
            } else {
                group.push((a, b, len));
            }
        }
        match group[..] {
            [] => return Ok(total),
            [(a, b, _)] => {
                total.absorb(&V::delete_one(self, g, index, a, b)?);
                return Ok(total);
            }
            _ => {}
        }

        let cap = V::capacity(g);
        self.sweep.engine.ensure_capacity(cap);
        self.agenda.ensure_capacity(cap);
        self.agg.ensure_capacity(cap);
        let threads = threads.resolve();
        let mut stats = MaintenanceCounters::default();
        self.classify(g, index, &group, threads, &mut stats);
        for &(a, b, _) in &group {
            V::remove_edge(g, a, b)?;
        }
        let hubs = self.agenda.take_hubs();
        stats.agenda_hubs += hubs.len();
        if threads <= 1 {
            self.repair_live(g, index, &hubs, &mut stats);
        } else {
            self.repair_waves(g, index, &hubs, threads, &mut stats);
        }
        self.agenda.clear();
        total.absorb(&stats);
        Ok(total)
    }

    /// Classifies `group` on the pre-deletion graph into the agenda: per
    /// role, one multi-far sweep per distinct near endpoint, merged in
    /// task order so agenda and counters match at every thread count.
    fn classify(
        &mut self,
        g: &V::Graph,
        index: &V::Index,
        group: &[(VertexId, VertexId, V::Dist)],
        threads: usize,
        stats: &mut MaintenanceCounters,
    ) {
        let cap = V::capacity(g);
        for &role in V::ROLES {
            let tasks = build_endpoint_tasks(
                group
                    .iter()
                    .flat_map(|&(a, b, len)| role.from.sides(a, b, len)),
            );
            let outcomes = fan_out(
                &tasks,
                threads,
                &mut self.sweep,
                || SweepScratch::new(cap, V::new_probe(cap)),
                |scratch, task| {
                    let mut c = MaintenanceCounters::default();
                    let (engine, probes) = scratch.pool(task.fars.len(), || V::new_probe(cap));
                    let mut views: Vec<V::Frozen<'_>> = probes
                        .iter_mut()
                        .map(|p| V::frozen(g, index, p, role.view))
                        .collect();
                    let cols = engine.multi_far_pass(&mut views, task.near, &task.fars, &mut c);
                    (cols, c)
                },
            );
            let mut columns = Vec::new();
            for (cols, c) in outcomes {
                stats.absorb(&c);
                columns.extend(cols);
            }
            aggregate_far_columns(
                &mut self.agg,
                &columns,
                &mut self.agenda,
                role.repair,
                |v| V::rank(index, v),
            );
        }
    }

    /// Sequential repair: each hub's family sweeps run live on the index,
    /// on the driver's own engine and probe.
    fn repair_live(
        &mut self,
        g: &V::Graph,
        index: &mut V::Index,
        hubs: &[(Rank, u8)],
        stats: &mut MaintenanceCounters,
    ) {
        let receivers = self.agenda.receivers();
        let (engine, probe) = self.sweep.parts();
        engine.set_marks([receivers, &[]], [&[], &[]]);
        for &(h_rank, families) in hubs {
            let h = V::vertex(index, h_rank);
            for family in family_sweeps(families) {
                stats.hubs_processed += 1;
                let mut topo = V::live(g, index, probe, family);
                engine.dec_pass(&mut topo, h, MARK_A, [receivers, &[]], stats);
            }
        }
        engine.clear_marks();
    }

    /// Wave-parallel repair: the agenda is partitioned into
    /// rank-independent waves, each hub's family sweeps run frozen on a
    /// pool worker (in the sequential family order, on one worker), and
    /// the buffered writes are committed in rank order between waves.
    fn repair_waves(
        &mut self,
        g: &V::Graph,
        index: &mut V::Index,
        hubs: &[(Rank, u8)],
        threads: usize,
        stats: &mut MaintenanceCounters,
    ) {
        let cap = V::capacity(g);
        let receivers = self.agenda.receivers();
        // The interference model only pays off when two hubs could share
        // a wave; its components are a bounded BFS from the agenda.
        let schedule = if hubs.len() < 2 {
            plan_waves(hubs.len(), |_, _| false)
        } else {
            let (comp, probes) = agenda_components(
                cap,
                hubs.iter()
                    .map(|&(r, _)| V::vertex(index, r))
                    .chain(receivers.iter().copied()),
                |v, f| V::for_each_residual_neighbor(g, v, f),
            );
            stats.interference_probes += probes;
            let inter = Interference::build(
                &comp,
                hubs,
                receivers,
                |r| V::vertex(index, r),
                |v, f| V::for_each_label_hub(index, v, f),
            );
            plan_waves(hubs.len(), |i, j| inter.conflicts(i, j))
        };
        note_schedule(stats, &schedule);
        let waves: Vec<&[usize]> = schedule.iter().collect();
        let index_lock = std::sync::RwLock::new(&mut *index);
        let steals = run_wave_pool(
            threads,
            hubs,
            &waves,
            || {
                let mut scratch = SweepScratch::new(cap, V::new_probe(cap));
                scratch.engine.set_marks([receivers, &[]], [&[], &[]]);
                scratch
            },
            |scratch, &(h_rank, families)| {
                // A shared read lock per hub: writes only happen in the
                // commit closure, between waves, while workers are parked.
                let guard = index_lock.read().unwrap();
                let index: &V::Index = &guard;
                let h = V::vertex(index, h_rank);
                let (engine, probe) = scratch.parts();
                family_sweeps(families)
                    .map(|family| {
                        let mut counters = MaintenanceCounters {
                            hubs_processed: 1,
                            ..MaintenanceCounters::default()
                        };
                        let mut log = LabelWriteLog::new();
                        let mut topo = Buffered::new(V::frozen(g, index, probe, family), &mut log);
                        engine.dec_pass(&mut topo, h, MARK_A, [receivers, &[]], &mut counters);
                        (family, log, counters)
                    })
                    .collect::<Vec<_>>()
            },
            |results| {
                let mut guard = index_lock.write().unwrap();
                for (family, mut log, c) in results.into_iter().flatten() {
                    stats.absorb(&c);
                    for op in log.drain() {
                        V::commit(&mut guard, family, op);
                    }
                }
            },
        );
        stats.steal_events += steals;
    }
}

/// Splits agenda family bits into sweep order: the primary family first,
/// then the secondary.
fn family_sweeps(families: u8) -> impl Iterator<Item = u8> {
    [REPAIR_PRIMARY, REPAIR_SECONDARY]
        .into_iter()
        .filter(move |&f| families & f != 0)
}
