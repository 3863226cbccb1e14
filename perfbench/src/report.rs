//! Turns a pass into named metrics: the end-to-end set (untraced runs)
//! and the per-layer set (traced runs), and prints the result line.

use crate::engine::{Layer, Span};
use crate::run::Pass;
use crate::spec::*;
use crate::stats::*;
use std::time::Instant;

/// One reported number.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Sample count and validity, printed beside the value.
    pub note: String,
}

fn metric(name: &'static str, value: f64, unit: &'static str, note: String) -> Metric {
    Metric {
        name,
        value,
        unit,
        note,
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// What one full pass contributes to the end-to-end metrics. The passes of
/// an untraced run repeat the same seeded work, so their per-rotation and
/// per-update samples line up index by index.
pub struct Round {
    pub setup_s: Vec<f64>,
    pub query_p50_us: f64,
    pub query_p99_us: f64,
    pub timed_queries: usize,
    pub queries: u64,
    pub read_wall_s: f64,
    pub updates: u64,
    pub rotation_busy_ms: Vec<f64>,
    pub visible_ms: Vec<f64>,
    pub recover_s: Vec<f64>,
    pub warm_s: Vec<f64>,
    pub replay_note: String,
    pub column_bytes: usize,
    pub final_entries: usize,
    pub peak_rss_mb: f64,
}

impl Round {
    pub fn of(pass: &Pass) -> Self {
        let lat = &pass.reads.lat_ns;
        let recover_s: Vec<f64> = pass
            .recoveries
            .iter()
            .map(|r| (r.end - r.start).as_secs_f64())
            .collect();
        Round {
            setup_s: pass.setup_s.clone(),
            query_p50_us: lat.quantile_ns(0.5) / 1e3,
            query_p99_us: lat.quantile_ns(0.99) / 1e3,
            timed_queries: lat.len(),
            queries: pass.reads.queries,
            read_wall_s: pass.reads.wall_s,
            updates: pass.updates,
            rotation_busy_ms: pass.rotation_busy_ms.clone(),
            visible_ms: pass.visible_ms.clone(),
            recover_s,
            warm_s: pass.warm_s.clone(),
            replay_note: pass.recoveries.first().map_or_else(
                || "recovery failed".to_string(),
                |r| {
                    format!(
                        "checkpoint epoch {} + {} replayed epochs",
                        r.report.checkpoint_epoch, r.report.replayed_rotations
                    )
                },
            ),
            column_bytes: pass.column_bytes,
            final_entries: pass.final_entries,
            peak_rss_mb: pass.peak_rss_mb,
        }
    }
}

/// The smallest value.
fn best_low(values: impl IntoIterator<Item = f64>) -> f64 {
    values.into_iter().fold(f64::INFINITY, f64::min)
}

/// Index by index, the smallest value any round recorded there.
fn best_low_each(series: impl Fn(&Round) -> &[f64], rounds: &[Round]) -> Vec<f64> {
    let len = rounds.iter().map(|r| series(r).len()).max().unwrap_or(0);
    (0..len)
        .map(|i| best_low(rounds.iter().filter_map(|r| series(r).get(i).copied())))
        .collect()
}

/// The twelve end-to-end metrics of an untraced run's rounds.
///
/// The rounds run one after another over the same inputs. Each timing is
/// the best the rounds recorded for the same work: per update for the
/// visibility latencies, per rotation for the writer time behind
/// `updates_per_s`, per round for the reads, and over every recovery and
/// every warm start of the run.
/// The host's speed swings by up to half for seconds to minutes at a time,
/// and only ever slows the program down, so the best of several rounds
/// spread over the run is the steadiest estimate of its speed. `setup_s`
/// is the median of every set-up of every round.
pub fn end_to_end(rounds: &[Round], checks: &Checks) -> Vec<Metric> {
    let n = rounds.len();
    let first = rounds.first().expect("at least one round");
    let last = rounds.last().expect("at least one round");
    let best = |f: fn(&Round) -> f64| best_low(rounds.iter().map(f));
    let of_rounds = |what: &str| match n {
        1 => format!("one round, {what}"),
        n => format!("best of {n} rounds, {what}"),
    };
    let all = |f: fn(&Round) -> &Vec<f64>| -> Vec<f64> {
        rounds.iter().flat_map(|r| f(r).iter().copied()).collect()
    };
    let (setup_s, recover_s, warm_s) = (
        all(|r| &r.setup_s),
        all(|r| &r.recover_s),
        all(|r| &r.warm_s),
    );
    let visible_ms = best_low_each(|r| &r.visible_ms, rounds);
    let busy_s = best_low_each(|r| &r.rotation_busy_ms, rounds)
        .iter()
        .sum::<f64>()
        / 1e3;
    let rot = first.rotation_busy_ms.len();
    let timed = first.timed_queries;
    let updates_note = format!("{} updates", first.updates);
    vec![
        metric(
            "setup_s",
            median(&setup_s),
            "s",
            format!("median of {} set-ups in {n} rounds", setup_s.len()),
        ),
        metric(
            "query_p50_us",
            best(|r| r.query_p50_us),
            "us",
            of_rounds(&sample_note(timed, 0.5, "timed queries")),
        ),
        metric(
            "query_p99_us",
            best(|r| r.query_p99_us),
            "us",
            of_rounds(&sample_note(timed, 0.99, "timed queries")),
        ),
        metric(
            "queries_per_s",
            rounds
                .iter()
                .map(|r| ratio(r.queries as f64, r.read_wall_s))
                .fold(0.0, f64::max),
            "1/s",
            of_rounds(&format!("{} queries", first.queries)),
        ),
        metric(
            "updates_per_s",
            ratio(first.updates as f64, busy_s),
            "1/s",
            of_rounds(&format!(
                "per rotation; {updates_note} in {rot} rotations, closed loop"
            )),
        ),
        metric(
            "visible_p50_ms",
            median(&visible_ms),
            "ms",
            of_rounds(&format!(
                "per update; {}, {updates_note}",
                sample_note(rot, 0.5, "rotations")
            )),
        ),
        metric(
            "visible_p90_ms",
            quantile(&visible_ms, 0.9),
            "ms",
            of_rounds(&format!(
                "per update; {}, {updates_note}",
                sample_note(rot, 0.9, "rotations")
            )),
        ),
        metric(
            "recover_s",
            best_low(recover_s.iter().copied()),
            "s",
            format!(
                "fastest of {} recoveries in {n} rounds, {}",
                recover_s.len(),
                first.replay_note
            ),
        ),
        metric(
            "warm_start_s",
            best_low(warm_s.iter().copied()),
            "s",
            format!("fastest of {} warm starts in {n} rounds", warm_s.len()),
        ),
        metric(
            "index_mb",
            first.column_bytes as f64 / 1e6,
            "MB",
            format!("{} entries", first.final_entries),
        ),
        metric(
            "peak_rss_mb",
            last.peak_rss_mb,
            "MB",
            "VmHWM at the end of the run".to_string(),
        ),
        metric(
            "ok_ratio",
            checks.ok_ratio(),
            "ratio",
            format!(
                "{} of {} checks passed",
                checks.attempted - checks.failed,
                checks.attempted
            ),
        ),
    ]
}

/// Whether every percentile of a full pass has enough samples beyond it.
pub fn percentiles_valid(pass: &Pass) -> bool {
    let timed = pass.reads.lat_ns.len();
    percentile_valid(timed, 0.99) && percentile_valid(pass.rotations, 0.9)
}

/// The wave-pool probe's result.
pub struct Probe {
    pub batches: usize,
    pub apply_ms_ratio: f64,
    pub waves_per_batch: f64,
    pub max_wave_width: f64,
}

/// Extra numbers a traced run computes beside the pass.
pub struct TraceExtras {
    /// Label entries of an index rebuilt fresh on the final graph.
    pub fresh_entries: usize,
    pub probe: Option<Probe>,
}

fn spans_of<'a>(
    spans: &'a [Span],
    layer: Layer,
    from: Instant,
    to: Instant,
) -> impl Iterator<Item = &'a Span> + 'a {
    spans
        .iter()
        .filter(move |s| s.layer == layer && s.within(from, to))
}

fn span_ms(spans: &[Span], layer: Layer, from: Instant, to: Instant) -> Vec<f64> {
    spans_of(spans, layer, from, to).map(Span::ms).collect()
}

/// The per-layer metrics of a traced full pass.
pub fn per_layer(spec: &Spec, pass: &Pass, extras: &TraceExtras) -> Vec<Metric> {
    let (from, to) = (pass.loop_start, pass.loop_end);
    let all = |layer| span_ms(&pass.spans, layer, from, to);
    let updates = pass.updates as f64;
    let rotations = pass.rotations as f64;
    let c = &pass.counters;
    let per_update = |x: usize| ratio(x as f64, updates);
    let apply = all(Layer::Apply);
    let rerank_apply: Vec<f64> = spans_of(&pass.spans, Layer::Apply, from, to)
        .filter(|s| s.detail > 0)
        .map(Span::ms)
        .collect();
    let rotate_self: Vec<f64> = pass
        .rotate_spans
        .iter()
        .map(|&(r0, r1)| {
            let children: f64 = pass
                .spans
                .iter()
                .filter(|s| s.within(r0, r1))
                .map(Span::ms)
                .sum();
            ms(r1 - r0) - children
        })
        .collect();
    // Checkpoint encodes: those in the loop, or the final-state checkpoint
    // of an unjournaled run; set-up encodes of the initial graph excluded.
    let encode: Vec<&Span> = pass
        .spans
        .iter()
        .filter(|s| s.layer == Layer::EncodeState && s.start >= from)
        .collect();
    let per_recovery = |layer| -> Vec<f64> {
        pass.recoveries
            .iter()
            .map(|r| span_ms(&pass.spans, layer, r.start, r.end).iter().sum())
            .collect()
    };
    let decode_ms = median(&per_recovery(Layer::DecodeState));
    let replay_s = median(&per_recovery(Layer::Apply)) / 1e3;
    let (replayed_batches, replayed_rotations) = pass.recoveries.first().map_or((0.0, 0.0), |r| {
        (
            r.report.replayed_batches as f64,
            r.report.replayed_rotations as f64,
        )
    });
    let fsyncs = if spec.journaled {
        ratio(updates + rotations, rotations)
    } else {
        0.0
    };
    let reads = &pass.reads;
    let queries = reads.queries as f64;
    let probe = extras.probe.as_ref();
    let n = String::new;
    vec![
        metric(
            "build.build_s",
            median(&pass.build_s),
            "s",
            format!("median of {}", pass.build_s.len()),
        ),
        metric(
            "build.label_entries",
            pass.built_entries as f64,
            "count",
            n(),
        ),
        metric(
            "engine.apply_ms_p50",
            median(&apply),
            "ms",
            sample_note(apply.len(), 0.5, "rotations"),
        ),
        metric(
            "engine.apply_ms_p90",
            quantile(&apply, 0.9),
            "ms",
            sample_note(apply.len(), 0.9, "rotations"),
        ),
        metric(
            "engine.apply_share",
            ratio(
                apply.iter().sum::<f64>(),
                pass.rotation_busy_ms.iter().sum::<f64>(),
            ),
            "ratio",
            "apply busy / writer busy".to_string(),
        ),
        metric(
            "engine.sweeps_per_update",
            per_update(c.total_sweeps()),
            "count/update",
            n(),
        ),
        metric(
            "engine.classify_sweeps_per_update",
            per_update(c.classify_sweeps),
            "count/update",
            n(),
        ),
        metric(
            "engine.multi_far_sweeps_per_update",
            per_update(c.multi_far_sweeps),
            "count/update",
            n(),
        ),
        metric(
            "engine.visits_per_update",
            per_update(c.vertices_visited),
            "count/update",
            n(),
        ),
        metric(
            "engine.agenda_hubs_per_update",
            per_update(c.agenda_hubs),
            "count/update",
            n(),
        ),
        metric(
            "engine.label_writes_per_update",
            per_update(c.total_ops()),
            "count/update",
            n(),
        ),
        metric(
            "engine.useful_ratio",
            ratio(c.total_ops() as f64, c.vertices_visited as f64),
            "ratio",
            "label writes / vertices visited".to_string(),
        ),
        metric(
            "reorder.swaps_per_rotation",
            ratio(c.rerank_swaps as f64, rotations),
            "count/rotation",
            n(),
        ),
        metric(
            "reorder.sweeps_per_rotation",
            ratio(c.rerank_sweeps as f64, rotations),
            "count/rotation",
            n(),
        ),
        metric("policy.rebuilds", pass.rebuilds as f64, "count", n()),
        metric("order.staleness_end", pass.staleness_end, "ratio", n()),
        metric(
            "reorder.entries_drift_pct",
            ratio(
                pass.final_entries as f64 - extras.fresh_entries as f64,
                extras.fresh_entries as f64,
            ) * 100.0,
            "%",
            format!(
                "{} vs {} rebuilt fresh",
                pass.final_entries, extras.fresh_entries
            ),
        ),
        metric(
            "policy.rerank_apply_ms_p50",
            median(&rerank_apply),
            "ms",
            format!("{} re-ranking applies", rerank_apply.len()),
        ),
        metric("flat.freeze_ms_p50", median(&all(Layer::Freeze)), "ms", n()),
        metric("shard.split_ms_p50", median(&all(Layer::Split)), "ms", n()),
        metric(
            "flat.bytes_per_entry",
            ratio(pass.column_bytes as f64, pass.final_entries as f64),
            "B/entry",
            n(),
        ),
        metric(
            "serve.rotate_self_ms_p50",
            median(&rotate_self),
            "ms",
            "rotate minus apply, freeze and split".to_string(),
        ),
        metric(
            "serve.refresh_us_p50",
            median(&reads.refresh_us),
            "us",
            format!("{} refreshes", reads.refresh_us.len()),
        ),
        metric(
            "serve.stale_read_ratio",
            ratio(reads.stale_reads as f64, queries),
            "ratio",
            n(),
        ),
        metric(
            "serve.merge_steps_per_query",
            ratio(reads.merge_steps as f64, queries),
            "count/query",
            n(),
        ),
        metric(
            "serve.common_hubs_per_query",
            ratio(reads.common_hubs as f64, queries),
            "count/query",
            n(),
        ),
        metric(
            "journal.submit_ms_p50",
            median(&pass.submit_ms),
            "ms",
            sample_note(pass.submit_ms.len(), 0.5, "submits"),
        ),
        metric(
            "journal.submit_ms_p90",
            quantile(&pass.submit_ms, 0.9),
            "ms",
            sample_note(pass.submit_ms.len(), 0.9, "submits"),
        ),
        metric(
            "journal.fsyncs_per_rotation",
            fsyncs,
            "count/rotation",
            "one per submit + one epoch marker".to_string(),
        ),
        metric(
            "journal.bytes_per_update",
            ratio(pass.journal_bytes as f64, updates),
            "B/update",
            n(),
        ),
        metric(
            "journal.checkpoint_ms",
            median(&pass.checkpoint_ms),
            "ms",
            format!("{} checkpoints", pass.checkpoint_ms.len()),
        ),
        metric(
            "journal.encode_state_ms",
            median(&encode.iter().map(|s| s.ms()).collect::<Vec<_>>()),
            "ms",
            format!("{} encodes", encode.len()),
        ),
        metric(
            "journal.checkpoint_mb",
            encode.last().map_or(0.0, |s| s.detail as f64 / 1e6),
            "MB",
            n(),
        ),
        metric("recover.decode_state_ms", decode_ms, "ms", n()),
        metric("recover.replay_apply_s", replay_s, "s", n()),
        metric("recover.replayed_batches", replayed_batches, "count", n()),
        metric(
            "recover.replayed_rotations",
            replayed_rotations,
            "count",
            n(),
        ),
        metric("serialize.save_flat_ms", pass.save_flat_ms, "ms", n()),
        metric(
            "serialize.load_flat_ms",
            median(&pass.load_flat_ms),
            "ms",
            format!("median of {}", pass.load_flat_ms.len()),
        ),
        metric("serialize.file_mb", pass.file_mb, "MB", n()),
        metric(
            "parallel.apply_ms_ratio_2t_1t",
            probe.map_or(0.0, |p| p.apply_ms_ratio),
            "ratio",
            probe.map_or("not run on this workload".to_string(), |p| {
                format!("{} batches, Fixed(2) / Fixed(1)", p.batches)
            }),
        ),
        metric(
            "parallel.waves_per_batch",
            probe.map_or(0.0, |p| p.waves_per_batch),
            "count/batch",
            n(),
        ),
        metric(
            "parallel.max_wave_width",
            probe.map_or(0.0, |p| p.max_wave_width),
            "count",
            n(),
        ),
    ]
}

/// Prints `name = value unit (note)` lines.
pub fn print_metrics(prefix: &str, metrics: &[Metric]) {
    for m in metrics {
        println!(
            "{prefix}{:<36} {:>14.4} {:<14} {}",
            m.name, m.value, m.unit, m.note
        );
    }
}

/// The result line: one JSON object, the last line of standard output.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}
