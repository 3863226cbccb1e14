//! One pass of a workload through the real serving stack.
//!
//! Set-up (repeated, timed), then the closed-loop writer: submit one update
//! at a time, rotate after every batch, checkpoint every
//! [`CHECKPOINT_EVERY`] rotations on journaled workloads. The program sets
//! the pace; no sleep or timer sits inside a measured interval. The writer
//! runs the workload's fixed number of rotations; a wall-clock cap only
//! fails a pass that would overrun it. After the
//! loop: a timed recovery, repeated timed warm starts, and a sampled
//! oracle check of the final graph. Every check lands in the pass's
//! [`Checks`] ledger.

use crate::engine::{drain_spans, BenchEngine, Span};
use crate::spec::*;
use crate::stats::*;
use dspc::serialize::{load_flat, save_flat};
use dspc::verify::verify_sampled_pairs;
use dspc::{
    DynamicSpc, FlatIndex, MaintenanceCounters, MaintenanceThreads, OrderingStrategy, QueryResult,
    ShardedFlatIndex,
};
use dspc_graph::io::{load_edge_list, save_edge_list};
use dspc_graph::UndirectedGraph;
use dspc_serve::{EpochServer, Reader, RecoveryReport, ServeConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

type SpcReader = Reader<ShardedFlatIndex>;

/// Counters that depend only on the seed, by name.
pub type Fingerprint = Vec<(&'static str, u64)>;

/// The writer's state at rotation [`MIN_ROTATIONS`].
pub struct Prefix {
    pub fingerprint: Fingerprint,
    pub updates: u64,
    pub busy_s: f64,
    pub visible_p50_ms: f64,
}

/// What a read side measured.
#[derive(Default)]
pub struct ReadLog {
    /// Per-query latencies of the timed queries.
    pub lat_ns: NsHistogram,
    pub queries: u64,
    /// Time spent answering queries.
    pub wall_s: f64,
    pub refresh_us: Vec<f64>,
    pub stale_reads: u64,
    pub merge_steps: u64,
    pub common_hubs: u64,
}

/// One timed recovery.
pub struct Recovery {
    pub start: Instant,
    pub end: Instant,
    pub report: RecoveryReport,
}

/// Everything one pass measured.
pub struct Pass {
    pub setup_s: Vec<f64>,
    pub build_s: Vec<f64>,
    pub built_entries: usize,
    pub loop_start: Instant,
    pub loop_end: Instant,
    pub rotations: usize,
    pub updates: u64,
    /// Writer time in submit, rotate and checkpoint calls, per rotation.
    pub rotation_busy_ms: Vec<f64>,
    pub visible_ms: Vec<f64>,
    pub rotate_spans: Vec<(Instant, Instant)>,
    pub submit_ms: Vec<f64>,
    pub checkpoint_ms: Vec<f64>,
    pub counters: MaintenanceCounters,
    pub journal_bytes: u64,
    pub prefix: Option<Prefix>,
    pub reads: ReadLog,
    pub recoveries: Vec<Recovery>,
    pub warm_s: Vec<f64>,
    pub save_flat_ms: f64,
    pub load_flat_ms: Vec<f64>,
    pub file_mb: f64,
    pub final_entries: usize,
    pub column_bytes: usize,
    pub staleness_end: f64,
    pub rebuilds: usize,
    pub final_graph: Option<UndirectedGraph>,
    pub peak_rss_mb: f64,
    pub checks: Checks,
    pub spans: Vec<Span>,
}

/// How far a pass goes.
#[derive(Clone, Copy)]
pub struct PassOptions {
    /// Wall-clock cap on the writer loop, in seconds. Reaching it fails the
    /// pass; it never shortens the work a pass measures.
    pub cap_s: f64,
    /// Stop at rotation [`MIN_ROTATIONS`] with one set-up and no phases
    /// after the loop (the untraced reference of a traced run).
    pub prefix_only: bool,
}

fn err(what: &str, e: impl std::fmt::Display) -> String {
    format!("{what}: {e}")
}

fn fingerprint<E: BenchEngine>(c: &MaintenanceCounters, server: &EpochServer<E>) -> Fingerprint {
    vec![
        ("renew_count", c.renew_count as u64),
        ("renew_dist", c.renew_dist as u64),
        ("inserted", c.inserted as u64),
        ("removed", c.removed as u64),
        ("hubs_processed", c.hubs_processed as u64),
        ("classify_sweeps", c.classify_sweeps as u64),
        ("multi_far_sweeps", c.multi_far_sweeps as u64),
        ("vertices_visited", c.vertices_visited as u64),
        ("agenda_hubs", c.agenda_hubs as u64),
        ("waves", c.waves as u64),
        ("max_wave_width", c.max_wave_width as u64),
        ("isolated_fast_path", c.isolated_fast_path as u64),
        ("rerank_swaps", c.rerank_swaps as u64),
        ("rerank_sweeps", c.rerank_sweeps as u64),
        ("journal_bytes", server.stats().journal_bytes),
        (
            "label_entries",
            server.engine().dynamic().index().num_entries() as u64,
        ),
        ("rebuilds", server.engine().rebuilds() as u64),
    ]
}

/// A closed-loop reader on its own thread: query, refresh every
/// [`REFRESH_EVERY`] queries, until `stop`.
fn read_loop(mut reader: SpcReader, inputs: &Inputs, stop: &AtomicBool) -> (ReadLog, Checks) {
    let mut log = ReadLog::default();
    let mut checks = Checks::default();
    let mut last = reader.epoch();
    let mut k = 0usize;
    let start = Instant::now();
    while !stop.load(Ordering::Acquire) {
        for _ in 0..REFRESH_EVERY {
            let (s, t) = inputs.pair(k);
            let (epoch, answer) = if k.is_multiple_of(TIME_EVERY) {
                let q0 = Instant::now();
                let out = reader.query(s, t);
                log.lat_ns.record(q0.elapsed());
                out
            } else {
                reader.query(s, t)
            };
            black_box(answer);
            checks.check(epoch >= last, || {
                format!("reader epoch went back from {last} to {epoch}")
            });
            last = epoch;
            k += 1;
        }
        let r0 = Instant::now();
        let epoch = reader.refresh();
        log.refresh_us.push(r0.elapsed().as_secs_f64() * 1e6);
        checks.check(epoch >= last, || {
            format!("refresh moved epoch back from {last} to {epoch}")
        });
        last = epoch;
    }
    log.wall_s = start.elapsed().as_secs_f64();
    log.queries = k as u64;
    finish_read_log(&mut log, &reader);
    (log, checks)
}

fn finish_read_log(log: &mut ReadLog, reader: &SpcReader) {
    log.stale_reads = reader.stale_epoch_reads();
    log.merge_steps = reader.shard_counters().iter().map(|c| c.merge_steps).sum();
    log.common_hubs = reader.shard_counters().iter().map(|c| c.common_hubs).sum();
}

/// Timed queries on the writer thread between rotations.
fn inline_reads(
    reader: &mut SpcReader,
    inputs: &Inputs,
    log: &mut ReadLog,
    checks: &mut Checks,
    k: &mut usize,
) {
    let before = reader.epoch();
    let r0 = Instant::now();
    let epoch = reader.refresh();
    log.refresh_us.push(r0.elapsed().as_secs_f64() * 1e6);
    checks.check(epoch >= before, || {
        format!("refresh moved epoch back from {before} to {epoch}")
    });
    let start = Instant::now();
    for _ in 0..INLINE_QUERIES {
        let (s, t) = inputs.pair(*k);
        *k += 1;
        let q0 = Instant::now();
        let (stamp, answer) = reader.query(s, t);
        log.lat_ns.record(q0.elapsed());
        black_box(answer);
        checks.check(stamp == epoch, || {
            format!("inline reader answered from epoch {stamp}, pinned {epoch}")
        });
    }
    log.wall_s += start.elapsed().as_secs_f64();
    log.queries += INLINE_QUERIES as u64;
}

/// The answers a reader gives to the [`EQUIVALENCE_PAIRS`] reference pairs.
fn reference_answers(reader: &mut SpcReader, inputs: &Inputs) -> Vec<QueryResult> {
    (0..EQUIVALENCE_PAIRS)
        .map(|i| {
            let (s, t) = inputs.pair(inputs.pairs.len() / 4 + i);
            reader.query(s, t).1
        })
        .collect()
}

/// Checks that `reader` gives the `expected` reference answers.
fn check_equivalent(
    checks: &mut Checks,
    expected: &[QueryResult],
    reader: &mut SpcReader,
    inputs: &Inputs,
    what: &str,
) {
    for (x, y) in expected.iter().zip(reference_answers(reader, inputs)) {
        checks.check(*x == y, || format!("{what} answered {y:?}, expected {x:?}"));
    }
}

/// Loads a saved edge list, padding the id space to `n` vertices (the
/// edge-list format drops trailing isolated vertices).
fn load_graph(path: &Path, n: usize) -> Result<UndirectedGraph, String> {
    let mut g = load_edge_list(path).map_err(|e| err("load edge list", e))?;
    while g.capacity() < n {
        g.add_vertex();
    }
    Ok(g)
}

/// Runs one pass of `inputs.spec` with engine type `E`.
pub fn run_pass<E: BenchEngine>(inputs: &Inputs, opts: PassOptions) -> Result<Pass, String> {
    let spec = inputs.spec;
    let scratch = ScratchDir::new().map_err(|e| err("scratch dir", e))?;
    let config = ServeConfig {
        shards: spec.shards,
    };
    let mut checks = Checks::default();
    checks.check(inputs.complete(), || {
        format!(
            "the input ran dry: {} of {} rotations of {} updates",
            inputs.batches.len(),
            spec.rotations,
            spec.batch
        )
    });

    // ---- Set-up, repeated: generate the graph, build, wrap, serve. ----
    let reps = if opts.prefix_only { 1 } else { spec.setup_reps };
    let (mut setup_s, mut build_s) = (Vec::new(), Vec::new());
    let mut built = None;
    for rep in 0..reps {
        drop(built.take()); // drop the previous set-up first
        let dir = scratch.join(&format!("journal-{rep}"));
        let start = Instant::now();
        let g = inputs.graph();
        let b0 = Instant::now();
        let mut d = DynamicSpc::build(g, OrderingStrategy::Degree);
        build_s.push(b0.elapsed().as_secs_f64());
        d.set_maintenance_threads(MaintenanceThreads::Fixed(1));
        let engine = E::wrap(d, spec.policy);
        let server = if spec.journaled {
            EpochServer::with_journal(engine, config, &dir).map_err(|e| err("with_journal", e))?
        } else {
            EpochServer::new(engine, config)
        };
        setup_s.push(start.elapsed().as_secs_f64());
        built = Some((server, dir));
    }
    let (mut server, journal_dir) = built.expect("at least one set-up");
    let built_entries = server.engine().dynamic().index().num_entries();

    // ---- The closed loop. ----
    let stop = AtomicBool::new(false);
    let mut checker = server.reader();
    // Only the reader in use is created: an idle one would pin every
    // snapshot published after its epoch.
    let mut inline_reader = (spec.read_side == ReadSide::Inline).then(|| server.reader());
    let thread_reader = (spec.read_side == ReadSide::Thread).then(|| server.reader());
    let mut reads = ReadLog::default();
    let mut inline_k = 0usize;
    let mut check_k = inputs.pairs.len() / 2;
    let mut visible_ms = Vec::new();
    let mut rotate_spans = Vec::new();
    let mut submit_ms = Vec::new();
    let mut checkpoint_ms = Vec::new();
    let mut rotation_busy_ms = Vec::new();
    let mut counters = MaintenanceCounters::default();
    let (mut rotations, mut updates, mut busy_s) = (0usize, 0u64, 0.0f64);
    let mut prefix = None;
    // Reference answers at `recover_epochs`, for the recovered server. (Keeping
    // a reader pinned there would keep every later snapshot alive.)
    let mut reference = None;
    let recover_dir = scratch.join("recover-source");
    let loop_start = Instant::now();
    std::thread::scope(|scope| {
        let handle = thread_reader.map(|r| scope.spawn(|| read_loop(r, inputs, &stop)));
        for batch in &inputs.batches {
            if opts.prefix_only && rotations >= MIN_ROTATIONS {
                break;
            }
            if loop_start.elapsed().as_secs_f64() >= opts.cap_s {
                checks.check(false, || {
                    format!(
                        "the {} s cap ran out after {rotations} of {} rotations",
                        opts.cap_s,
                        inputs.batches.len()
                    )
                });
                break;
            }
            let batch_start = Instant::now();
            let mut acks = Vec::with_capacity(batch.len());
            for &update in batch {
                let s0 = Instant::now();
                let submitted = server.submit([update]);
                let acked = Instant::now();
                submit_ms.push(ms(acked - s0));
                acks.push(acked);
                checks.check(submitted.is_ok(), || {
                    format!("submit failed: {submitted:?}")
                });
            }
            let r0 = Instant::now();
            let rotated = server.rotate();
            let r1 = Instant::now();
            let mut busy = r1 - batch_start;
            rotate_spans.push((r0, r1));
            if let Ok(Some(stats)) = rotated.as_ref().map(|r| r.applied) {
                counters.absorb(&stats);
            }
            checks.check(rotated.is_ok(), || format!("rotation failed: {rotated:?}"));
            visible_ms.extend(acks.iter().map(|&a| ms(r1 - a)));
            rotations += 1;
            updates += batch.len() as u64;
            if spec.journaled && rotations % CHECKPOINT_EVERY == 0 {
                let c0 = Instant::now();
                let done = server.checkpoint();
                let c = c0.elapsed();
                busy += c;
                checkpoint_ms.push(ms(c));
                checks.check(done.is_ok(), || format!("checkpoint failed: {done:?}"));
            }
            busy_s += busy.as_secs_f64();
            rotation_busy_ms.push(ms(busy));

            // ---- Unmeasured: bookkeeping and correctness checks. ----
            if rotations == MIN_ROTATIONS {
                prefix = Some(Prefix {
                    fingerprint: fingerprint(&counters, &server),
                    updates,
                    busy_s,
                    visible_p50_ms: median(&visible_ms),
                });
            }
            let before = checker.epoch();
            let epoch = checker.refresh();
            checks.check(epoch == server.epoch() && epoch > before, || {
                format!(
                    "checker at epoch {epoch} (was {before}), server at {}",
                    server.epoch()
                )
            });
            for _ in 0..CHECK_PAIRS {
                let (s, t) = inputs.pair(check_k);
                check_k += 1;
                let (_, got) = checker.query(s, t);
                let live = server.engine().query_live(s, t);
                checks.check(got == live, || {
                    format!("epoch {epoch}: {s:?}->{t:?} served {got:?}, live {live:?}")
                });
            }
            if spec.journaled && rotations == spec.recover_epochs && !opts.prefix_only {
                let copied = copy_dir(&journal_dir, &recover_dir);
                checks.check(copied.is_ok(), || {
                    format!("journal copy failed: {copied:?}")
                });
                reference = Some(reference_answers(&mut checker, inputs));
            }
            if let Some(inline_reader) = inline_reader.as_mut() {
                inline_reads(
                    inline_reader,
                    inputs,
                    &mut reads,
                    &mut checks,
                    &mut inline_k,
                );
            }
        }
        stop.store(true, Ordering::Release);
        if let Some(handle) = handle {
            let (log, reader_checks) = handle.join().expect("reader thread panicked");
            reads = log;
            checks.merge(reader_checks);
        }
    });
    let loop_end = Instant::now();
    if let Some(inline_reader) = &inline_reader {
        finish_read_log(&mut reads, inline_reader);
    }
    drop((checker, inline_reader));
    if let Some(same) = server.engine().freeze_copy_matches(spec.shards) {
        checks.check(same, || {
            "the traced freeze no longer builds what the engine's freeze builds".to_string()
        });
    }

    let mut pass = Pass {
        setup_s,
        build_s,
        built_entries,
        loop_start,
        loop_end,
        rotations,
        updates,
        rotation_busy_ms,
        visible_ms,
        rotate_spans,
        submit_ms,
        checkpoint_ms,
        counters,
        journal_bytes: server.stats().journal_bytes,
        prefix,
        reads,
        recoveries: Vec::new(),
        warm_s: Vec::new(),
        save_flat_ms: 0.0,
        load_flat_ms: Vec::new(),
        file_mb: 0.0,
        final_entries: 0,
        column_bytes: 0,
        staleness_end: 0.0,
        rebuilds: 0,
        final_graph: None,
        peak_rss_mb: 0.0,
        checks,
        spans: Vec::new(),
    };
    if opts.prefix_only {
        pass.spans = drain_spans();
        return Ok(pass);
    }

    // ---- Recovery, repeated on fresh copies of one journal directory.
    // Journaled: the copy taken at rotation `recover_epochs` replays that
    // many epochs onto the set-up checkpoint. Unjournaled: the final state
    // is checkpointed once and recovered with nothing to replay. ----
    let (source, reference, expect_epochs) = if spec.journaled {
        let reference = reference.ok_or_else(|| {
            format!(
                "the run never reached the recovery copy: {}",
                pass.checks.failures.join("; ")
            )
        })?;
        (recover_dir, reference, spec.recover_epochs as u64)
    } else {
        let reference = reference_answers(&mut server.reader(), inputs);
        let dir = scratch.join("final-journal");
        server = EpochServer::with_journal(server.into_engine(), config, &dir)
            .map_err(|e| err("with_journal (final state)", e))?;
        (dir, reference, 0)
    };
    for rep in 0..spec.recover_reps {
        let dir = scratch.join(&format!("recover-{rep}"));
        copy_dir(&source, &dir).map_err(|e| err("journal copy", e))?;
        let start = Instant::now();
        let recovered = EpochServer::<E>::recover(&dir, config);
        let end = Instant::now();
        match recovered {
            Ok((rec, report)) => {
                pass.checks.check(
                    report.replayed_rotations == expect_epochs
                        && (!spec.journaled || rec.epoch() == spec.recover_epochs as u64)
                        && report.restored_pending_updates == 0,
                    || format!("recovery replayed {report:?}, expected {expect_epochs} epochs"),
                );
                check_equivalent(
                    &mut pass.checks,
                    &reference,
                    &mut rec.reader(),
                    inputs,
                    "recovered server",
                );
                pass.recoveries.push(Recovery { start, end, report });
            }
            Err(e) => pass.checks.check(false, || format!("recovery failed: {e}")),
        }
    }

    // ---- Warm start from the saved final snapshot, repeated. ----
    let d = server.engine().dynamic();
    let flat = FlatIndex::freeze(d.index());
    let flat_path = scratch.join("final.flat");
    let graph_path = scratch.join("final.edges");
    let s0 = Instant::now();
    save_flat(&flat, &flat_path).map_err(|e| err("save_flat", e))?;
    pass.save_flat_ms = ms(s0.elapsed());
    save_edge_list(d.graph(), &graph_path).map_err(|e| err("save edge list", e))?;
    pass.file_mb = std::fs::metadata(&flat_path)
        .map_err(|e| err("flat file", e))?
        .len() as f64
        / 1e6;
    let (qs, qt) = inputs.pair(inputs.pairs.len() / 8);
    let expected = server.engine().query_live(qs, qt);
    for _ in 0..spec.warm_reps {
        let start = Instant::now();
        let loaded = load_flat(&flat_path).map_err(|e| err("load_flat", e))?;
        pass.load_flat_ms.push(ms(start.elapsed()));
        let g = load_graph(&graph_path, loaded.num_vertices())?;
        let mut d = DynamicSpc::from_parts(g, loaded.thaw(), OrderingStrategy::Degree);
        d.set_maintenance_threads(MaintenanceThreads::Fixed(1));
        let snapshot = ShardedFlatIndex::from_flat(&loaded, spec.shards);
        let warm = EpochServer::warm_start(E::wrap(d, spec.policy), snapshot, config);
        let mut reader = warm.reader();
        let (_, answer) = reader.query(qs, qt);
        pass.warm_s.push(start.elapsed().as_secs_f64());
        pass.checks.check(answer == expected, || {
            format!("warm start answered {answer:?}, live {expected:?}")
        });
    }

    // ---- Oracle spot-check of the final graph, and final index facts. ----
    let d = server.engine().dynamic();
    let mut rng = StdRng::seed_from_u64(inputs.seed ^ 0x0E1F_7A11);
    let verified = verify_sampled_pairs(d.graph(), d.index(), spec.verify_pairs, &mut rng);
    pass.checks.attempted += spec.verify_pairs as u64 - 1;
    pass.checks.check(verified.is_ok(), || {
        format!("verify_sampled_pairs: {verified:?}")
    });
    pass.final_entries = flat.num_entries();
    pass.column_bytes = flat.column_bytes();
    pass.staleness_end = server.engine().staleness();
    pass.rebuilds = server.engine().rebuilds();
    pass.final_graph = Some(d.graph().clone());
    pass.peak_rss_mb = peak_rss_mb();
    pass.spans = drain_spans();
    Ok(pass)
}
