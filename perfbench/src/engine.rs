//! The engines a pass drives, and the traced newtype that times the
//! layers below `EpochServer::rotate` / `checkpoint` / `recover`.
//!
//! [`Traced`] implements the serving layer's `ServingEngine` and
//! `DurableEngine` by delegating to the engine it wraps, recording one
//! span per `apply_batch`, `FlatIndex::freeze`, `ShardedFlatIndex::from_flat`,
//! `encode_state` and `decode_state`. Its `freeze` copies the two steps of
//! the serving crate's `freeze` for `DynamicSpc` and `ManagedSpc`, so that it
//! can time them apart, and must track that code:
//! [`BenchEngine::freeze_copy_matches`] compares the copy with the engine's
//! own `freeze` after every traced loop, and a mismatch fails the run. Spans
//! go to a process-wide list that the traced pass drains when it ends.

use dspc::dynamic::GraphUpdate;
use dspc::order::degree_order_staleness;
use dspc::policy::{MaintenancePolicy, ManagedSpc};
use dspc::{DynamicSpc, FlatIndex, QueryResult, ShardedFlatIndex, UpdateStats};
use dspc_graph::VertexId;
use dspc_serve::{DurableEngine, JournalError, ServingEngine};
use std::sync::Mutex;
use std::time::Instant;

/// What the benchmark needs from an engine beyond the serving traits.
pub trait BenchEngine:
    DurableEngine<Snapshot = ShardedFlatIndex, Update = GraphUpdate> + Sized
{
    /// Wraps a freshly built facade (with the workload's policy, if any).
    fn wrap(d: DynamicSpc, policy: Option<MaintenancePolicy>) -> Self;
    /// The dynamic facade underneath.
    fn dynamic(&self) -> &DynamicSpc;
    /// Policy-triggered full rebuilds so far.
    fn rebuilds(&self) -> usize {
        0
    }
    /// Whether the timed copy of the engine's freeze (see [`Traced`]) builds
    /// the snapshot the engine's own `freeze` builds; `None` when there is
    /// no copy to compare.
    fn freeze_copy_matches(&self, _shards: usize) -> Option<bool> {
        None
    }
    /// Degree-order staleness of the current rank order.
    fn staleness(&self) -> f64 {
        let d = self.dynamic();
        degree_order_staleness(d.graph(), d.index().ranks())
    }
}

impl BenchEngine for DynamicSpc {
    fn wrap(d: DynamicSpc, policy: Option<MaintenancePolicy>) -> Self {
        assert!(policy.is_none(), "a policy needs the managed engine");
        d
    }

    fn dynamic(&self) -> &DynamicSpc {
        self
    }
}

impl BenchEngine for ManagedSpc {
    fn wrap(d: DynamicSpc, policy: Option<MaintenancePolicy>) -> Self {
        ManagedSpc::new(d, policy.expect("the managed engine needs a policy"))
    }

    fn dynamic(&self) -> &DynamicSpc {
        self.inner()
    }

    fn rebuilds(&self) -> usize {
        ManagedSpc::rebuilds(self)
    }

    fn staleness(&self) -> f64 {
        ManagedSpc::staleness(self)
    }
}

/// A layer below the server's public calls.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    Apply,
    Freeze,
    Split,
    EncodeState,
    DecodeState,
}

/// One recorded span. `detail` is the re-rank swap count for
/// [`Layer::Apply`] and the byte count for the codec layers.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub layer: Layer,
    pub start: Instant,
    pub end: Instant,
    pub detail: u64,
}

impl Span {
    pub fn ms(&self) -> f64 {
        crate::stats::ms(self.end - self.start)
    }

    /// Whether this span lies inside `[from, to]`.
    pub fn within(&self, from: Instant, to: Instant) -> bool {
        self.start >= from && self.end <= to
    }
}

static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());

fn record(layer: Layer, start: Instant, detail: u64) {
    let span = Span {
        layer,
        start,
        end: Instant::now(),
        detail,
    };
    SPANS.lock().expect("span list poisoned").push(span);
}

/// Takes every span recorded so far.
pub fn drain_spans() -> Vec<Span> {
    std::mem::take(&mut *SPANS.lock().expect("span list poisoned"))
}

/// An engine whose inner layers are timed.
pub struct Traced<E>(pub E);

impl<E: BenchEngine> ServingEngine for Traced<E> {
    type Snapshot = ShardedFlatIndex;
    type Update = GraphUpdate;

    fn apply_batch(&mut self, updates: &[GraphUpdate]) -> dspc_graph::Result<UpdateStats> {
        let start = Instant::now();
        let out = ServingEngine::apply_batch(&mut self.0, updates);
        let swaps = out.as_ref().map_or(0, |s| s.rerank_swaps as u64);
        record(Layer::Apply, start, swaps);
        out
    }

    /// A copy of the wrapped engine's `freeze`, timed step by step.
    fn freeze(&self, shards: usize) -> ShardedFlatIndex {
        let start = Instant::now();
        let flat = FlatIndex::freeze(self.0.dynamic().index());
        record(Layer::Freeze, start, 0);
        let start = Instant::now();
        let sharded = ShardedFlatIndex::from_flat(&flat, shards);
        record(Layer::Split, start, 0);
        sharded
    }

    fn query_live(&self, s: VertexId, t: VertexId) -> QueryResult {
        self.0.query_live(s, t)
    }
}

impl<E: BenchEngine> DurableEngine for Traced<E> {
    fn encode_state(&self) -> Vec<u8> {
        let start = Instant::now();
        let state = self.0.encode_state();
        record(Layer::EncodeState, start, state.len() as u64);
        state
    }

    fn decode_state(data: &[u8]) -> Result<Self, JournalError> {
        let start = Instant::now();
        let engine = E::decode_state(data).map(Traced);
        record(Layer::DecodeState, start, data.len() as u64);
        engine
    }
}

impl<E: BenchEngine> BenchEngine for Traced<E> {
    fn wrap(d: DynamicSpc, policy: Option<MaintenancePolicy>) -> Self {
        Traced(E::wrap(d, policy))
    }

    fn dynamic(&self) -> &DynamicSpc {
        self.0.dynamic()
    }

    fn rebuilds(&self) -> usize {
        self.0.rebuilds()
    }

    fn freeze_copy_matches(&self, shards: usize) -> Option<bool> {
        Some(ServingEngine::freeze(self, shards) == self.0.freeze(shards))
    }

    fn staleness(&self) -> f64 {
        self.0.staleness()
    }
}
