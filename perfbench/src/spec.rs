//! The three workloads and the seeded inputs they run on.
//!
//! Each workload runs on a fixed Barabási–Albert base graph (its dataset,
//! generated from a constant seed, as the paper runs on fixed datasets);
//! `--seed` picks the update batches and the query pairs. The same seed
//! gives the same inputs, and the program under test only ever sees the
//! generated inputs.

use dspc::dynamic::GraphUpdate;
use dspc::policy::MaintenancePolicy;
use dspc_bench::workload::{churn_stream, hybrid_stream, sample_insertions};
use dspc_graph::generators::random::barabasi_albert;
use dspc_graph::{UndirectedGraph, VertexId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Rotations every workload runs at least: the 90th visibility percentile
/// then has 10 rotations beyond it. The deterministic-counter self-check
/// compares the counters at this rotation.
pub const MIN_ROTATIONS: usize = 100;
/// Journaled workloads checkpoint every this many rotations.
pub const CHECKPOINT_EVERY: usize = 64;
/// Sampled pairs checked against the live engine after every rotation.
pub const CHECK_PAIRS: usize = 16;
/// A reader thread refreshes its snapshot every this many queries.
pub const REFRESH_EVERY: usize = 256;
/// A reader thread times one query in this many.
pub const TIME_EVERY: usize = 8;
/// Queries the writer thread answers between rotations (inline readers).
pub const INLINE_QUERIES: usize = 256;
/// Pairs a recovered server must answer as the live one did.
pub const EQUIVALENCE_PAIRS: usize = 256;

/// Where the read side runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReadSide {
    /// One closed-loop reader thread beside the writer.
    Thread,
    /// Timed queries on the writer thread between rotations.
    Inline,
}

/// The shape of the update stream.
#[derive(Clone, Copy, Debug)]
pub enum Stream {
    /// Insertion-only batches of fresh non-edges.
    Insert,
    /// `hybrid_stream`: half fresh insertions, half deletions of original
    /// edges, shuffled.
    Hybrid,
    /// `churn_stream`: each epoch moves `moves` edges from the initially
    /// high-degree third to the initially low-degree third.
    Churn { moves: usize },
}

/// Seed of every workload's base graph.
pub const GRAPH_SEED: u64 = 0xD5BC_2024;

/// One workload.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    pub name: &'static str,
    pub vertices: usize,
    pub attach: usize,
    pub stream: Stream,
    /// Updates per rotation.
    pub batch: usize,
    /// Rotations every pass runs: the fixed amount of work, so what a pass
    /// does depends on the seed alone, never on how fast the program runs.
    pub rotations: usize,
    /// Passes an untraced run makes, one after another, each from a fresh
    /// set-up over the same inputs (see `report::end_to_end`).
    pub rounds: usize,
    pub shards: usize,
    pub read_side: ReadSide,
    pub journaled: bool,
    /// `Some` runs the engine behind `ManagedSpc` with this policy.
    pub policy: Option<MaintenancePolicy>,
    /// Set-ups per pass; `setup_s` is the median over every pass.
    pub setup_reps: usize,
    /// Recoveries per pass.
    pub recover_reps: usize,
    /// Epochs a journaled workload's timed recovery replays. The journal
    /// directory is copied after this many rotations, before the first
    /// periodic checkpoint, so a recovery decodes the set-up checkpoint
    /// (epoch 0) and replays every epoch since. Replaying many epochs
    /// averages out the few costly deletions a short stretch of the stream
    /// may or may not contain.
    pub recover_epochs: usize,
    /// Warm starts per pass.
    pub warm_reps: usize,
    /// Pairs `verify_sampled_pairs` checks on the final graph.
    pub verify_pairs: usize,
}

/// The tiered re-rank policy of the repository's churn smoke test.
fn tiered_policy() -> MaintenancePolicy {
    MaintenancePolicy {
        batched_swap_budget: 4096,
        ..MaintenancePolicy::tiered(0.02, 0.08, 0.95)
    }
}

pub const WORKLOADS: [&str; 3] = ["serve_insert", "delete_durable", "churn_rerank"];

/// The workload called `name`.
pub fn spec(name: &str) -> Option<Spec> {
    let spec = match name {
        "serve_insert" => Spec {
            name: "serve_insert",
            vertices: 4000,
            attach: 4,
            stream: Stream::Insert,
            batch: 32,
            rotations: 100,
            rounds: 5,
            shards: 2,
            read_side: ReadSide::Thread,
            journaled: false,
            policy: None,
            setup_reps: 1,
            recover_reps: 3,
            recover_epochs: 0,
            warm_reps: 5,
            verify_pairs: 200,
        },
        "delete_durable" => Spec {
            name: "delete_durable",
            vertices: 2000,
            attach: 3,
            stream: Stream::Hybrid,
            batch: 4,
            rotations: 100,
            rounds: 4,
            shards: 1,
            read_side: ReadSide::Inline,
            journaled: true,
            policy: None,
            setup_reps: 5,
            recover_reps: 1,
            recover_epochs: 48,
            warm_reps: 11,
            verify_pairs: 500,
        },
        "churn_rerank" => Spec {
            name: "churn_rerank",
            vertices: 1000,
            attach: 3,
            stream: Stream::Churn { moves: 4 },
            batch: 8,
            rotations: 100,
            rounds: 7,
            shards: 1,
            read_side: ReadSide::Thread,
            journaled: true,
            policy: Some(tiered_policy()),
            setup_reps: 10,
            recover_reps: 1,
            recover_epochs: 32,
            warm_reps: 11,
            verify_pairs: 500,
        },
        _ => return None,
    };
    assert!(spec.rotations >= MIN_ROTATIONS && spec.rounds >= 1);
    assert!(spec.recover_epochs < CHECKPOINT_EVERY && spec.recover_epochs <= spec.rotations);
    Some(spec)
}

impl Spec {
    /// The human-readable thread layout recorded with every result.
    pub fn thread_layout(&self) -> String {
        let readers = match self.read_side {
            ReadSide::Thread => "1 reader thread",
            ReadSide::Inline => "reads inline on the writer thread",
        };
        let busy = match self.read_side {
            ReadSide::Thread => 2,
            ReadSide::Inline => 1,
        };
        format!("writer on main thread, {readers}, maintenance Fixed(1), {busy} busy threads")
    }

    /// The flush policy recorded with every result.
    pub fn flush_policy(&self) -> &'static str {
        if self.journaled {
            "fsync per submit + per epoch marker"
        } else {
            "none (unjournaled)"
        }
    }
}

/// Everything a pass needs, generated from the seed.
pub struct Inputs {
    pub seed: u64,
    pub spec: Spec,
    /// One entry per rotation.
    pub batches: Vec<Vec<GraphUpdate>>,
    /// Query pairs the readers cycle through.
    pub pairs: Vec<(VertexId, VertexId)>,
}

const PAIR_RING: usize = 1 << 16;

fn base_graph(spec: &Spec) -> UndirectedGraph {
    let mut rng = StdRng::seed_from_u64(GRAPH_SEED);
    barabasi_albert(spec.vertices, spec.attach, &mut rng)
}

impl Inputs {
    /// Generates the update batches of `spec.rotations` rotations and the
    /// query pairs. A stream that runs dry yields fewer or shorter batches;
    /// [`Inputs::complete`] tells.
    pub fn generate(spec: Spec, seed: u64) -> Self {
        let g = base_graph(&spec);
        let mut rng = StdRng::seed_from_u64(seed);
        let rotations = spec.rotations;
        let batches = match spec.stream {
            Stream::Insert => sample_insertions(&g, rotations * spec.batch, &mut rng)
                .chunks(spec.batch)
                .map(|c| {
                    c.iter()
                        .map(|&(a, b)| GraphUpdate::InsertEdge(a, b))
                        .collect()
                })
                .collect(),
            Stream::Hybrid => {
                // Deletions come from the original edges, so cap them at
                // half of what the graph has.
                let per_side = (rotations * spec.batch / 2).min(g.num_edges() / 2);
                hybrid_stream(&g, per_side, per_side, &mut rng)
                    .chunks(spec.batch)
                    .map(<[GraphUpdate]>::to_vec)
                    .collect()
            }
            Stream::Churn { moves } => churn_stream(&g, rotations, moves, &mut rng),
        };
        let mut pair_rng = StdRng::seed_from_u64(seed ^ 0x9E37_79B9_7F4A_7C15);
        let n = spec.vertices as u32;
        let pairs = (0..PAIR_RING)
            .map(|_| {
                (
                    VertexId(pair_rng.gen_range(0..n)),
                    VertexId(pair_rng.gen_range(0..n)),
                )
            })
            .collect();
        Inputs {
            seed,
            spec,
            batches,
            pairs,
        }
    }

    /// Whether the input holds every rotation, each a full batch.
    pub fn complete(&self) -> bool {
        self.batches.len() == self.spec.rotations
            && self.batches.iter().all(|b| b.len() == self.spec.batch)
    }

    /// The base graph (regenerated: graph generation is part of set-up).
    pub fn graph(&self) -> UndirectedGraph {
        base_graph(&self.spec)
    }

    /// The `k`-th query pair of the ring (wrapping).
    pub fn pair(&self, k: usize) -> (VertexId, VertexId) {
        self.pairs[k % self.pairs.len()]
    }
}
