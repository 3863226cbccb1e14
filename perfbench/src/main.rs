//! `perfbench` — the DSPC benchmark: three seeded workloads through the
//! real serving stack (`EpochServer` over `DynamicSpc` / `ManagedSpc`).
//!
//! ```text
//! perfbench --workload <serve_insert|delete_durable|churn_rerank>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every workload runs a fixed number of rotations, so the work a run
//! measures depends on the seed alone. `--seconds` caps each pass's writer
//! loop: a pass that reaches the cap fails.
//!
//! `--trace 0` runs the workload's untraced passes ("rounds") one after
//! another over the same inputs and reports the end-to-end metrics, each
//! timing the best the rounds recorded (see `report::end_to_end`).
//! `--trace 1` runs an untraced reference pass up to the deterministic
//! prefix, then a traced pass of the same seed; it checks that the
//! seed-determined counters of the two passes are identical, prints the
//! tracing overhead, and reports the per-layer metrics. Every run prints a
//! record of the machine and layout, one line per metric, and, last, one
//! JSON result object. The exit code is 0 only when every check passed.

mod engine;
mod report;
mod run;
mod spec;
mod stats;

use dspc::policy::ManagedSpc;
use dspc::{DynamicSpc, MaintenanceThreads, OrderingStrategy};
use dspc_serve::ServingEngine;
use engine::Traced;
use report::{Metric, Probe, Round, TraceExtras};
use run::{Pass, PassOptions};
use spec::{Inputs, MIN_ROTATIONS};
use stats::{ms, Checks};
use std::time::Instant;

/// Delete batches the wave-pool probe replays.
const PROBE_BATCHES: usize = 16;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.unwrap_or(30.0),
        trace,
    })
}

fn pass(inputs: &Inputs, opts: PassOptions, traced: bool) -> Result<Pass, String> {
    match (inputs.spec.policy.is_some(), traced) {
        (false, false) => run::run_pass::<DynamicSpc>(inputs, opts),
        (true, false) => run::run_pass::<ManagedSpc>(inputs, opts),
        (false, true) => run::run_pass::<Traced<DynamicSpc>>(inputs, opts),
        (true, true) => run::run_pass::<Traced<ManagedSpc>>(inputs, opts),
    }
}

/// Replays the first delete batches on a `MaintenanceThreads::Fixed(1)`
/// twin and a `Fixed(2)` twin, batch by batch in turn, so both sides are
/// timed the same way, and compares their apply times. Recorded, never
/// gated.
fn wave_probe(inputs: &Inputs) -> Probe {
    let twin = |threads| {
        let mut d = DynamicSpc::build(inputs.graph(), OrderingStrategy::Degree);
        d.set_maintenance_threads(threads);
        d
    };
    let (mut one, mut two) = (
        twin(MaintenanceThreads::Fixed(1)),
        twin(MaintenanceThreads::Fixed(2)),
    );
    let batches = PROBE_BATCHES.min(inputs.batches.len());
    let (mut one_ms, mut two_ms, mut waves, mut widest) = (0.0, 0.0, 0usize, 0usize);
    for batch in &inputs.batches[..batches] {
        let start = Instant::now();
        ServingEngine::apply_batch(&mut one, batch).expect("recorded batch applies");
        one_ms += ms(start.elapsed());
        let start = Instant::now();
        let stats = ServingEngine::apply_batch(&mut two, batch).expect("recorded batch applies");
        two_ms += ms(start.elapsed());
        waves += stats.waves;
        widest = widest.max(stats.max_wave_width);
    }
    Probe {
        batches,
        apply_ms_ratio: if one_ms > 0.0 { two_ms / one_ms } else { 0.0 },
        waves_per_batch: waves as f64 / batches.max(1) as f64,
        max_wave_width: widest as f64,
    }
}

fn print_record(args: &Args, inputs: &Inputs) {
    let spec = &inputs.spec;
    println!(
        "perfbench workload={} seed={} seconds={} trace={}",
        spec.name, args.seed, args.seconds, args.trace as u8
    );
    println!(
        "record: nproc={} git_rev={} graph=BA(n={}, m={}) batch={} shards={} rotations={} cap={}s",
        stats::nproc(),
        stats::git_rev(),
        spec.vertices,
        spec.attach,
        spec.batch,
        spec.shards,
        spec.rotations,
        args.seconds
    );
    println!("record: threads: {}", spec.thread_layout());
    println!("record: flush: {}", spec.flush_policy());
}

fn print_pass_notes(pass: &Pass) {
    if !report::percentiles_valid(pass) {
        println!("warning: a percentile has fewer than 10 samples beyond it");
    }
    for failure in &pass.checks.failures {
        println!("check failed: {failure}");
    }
}

fn finish(correct: bool, checks: &Checks, metrics: &[Metric]) -> i32 {
    println!(
        "{}",
        report::result_json(correct, checks.attempted, checks.failed, metrics)
    );
    if correct {
        0
    } else {
        1
    }
}

/// Frees one block just under 32 MiB, the ceiling of glibc malloc's
/// adaptive mmap threshold, so the threshold sits there before anything is
/// timed. Otherwise it rises by steps as the run frees large blocks, and
/// whether a snapshot column of a given size is served from recycled heap
/// memory or from fresh, page-faulted mmap memory depends on how the seed's
/// column sizes compare with the largest block freed so far: that alone
/// moved `serve_insert`'s `warm_start_s` and `recover_s` by 20% between
/// seeds. A long-running process reaches the same state by itself.
fn settle_allocator() {
    drop(std::hint::black_box(Vec::<u8>::with_capacity(31 << 20)));
}

fn run(args: &Args) -> Result<i32, String> {
    settle_allocator();
    let spec = spec::spec(&args.workload).ok_or_else(|| {
        format!(
            "unknown workload {:?}; expected one of {:?}",
            args.workload,
            spec::WORKLOADS
        )
    })?;
    let inputs = Inputs::generate(spec, args.seed);
    print_record(args, &inputs);
    let full = PassOptions {
        cap_s: args.seconds,
        prefix_only: false,
    };

    if !args.trace {
        let mut checks = Checks::default();
        let mut rounds = Vec::new();
        let mut first_counters = None;
        for round in 0..spec.rounds {
            let pass = pass(&inputs, full, false)?;
            print_pass_notes(&pass);
            // Every round does the same seeded work.
            let counters = pass.prefix.as_ref().map(|p| p.fingerprint.clone());
            if round == 0 {
                first_counters = counters;
            } else {
                checks.check(counters == first_counters, || {
                    format!("round {round} counted {counters:?}, round 0 {first_counters:?}")
                });
            }
            rounds.push(Round::of(&pass));
            checks.merge(pass.checks);
        }
        let metrics = report::end_to_end(&rounds, &checks);
        report::print_metrics("", &metrics);
        let correct = checks.failed == 0 && checks.attempted > 0;
        return Ok(finish(correct, &checks, &metrics));
    }

    let reference = pass(
        &inputs,
        PassOptions {
            cap_s: args.seconds,
            prefix_only: true,
        },
        false,
    )?;
    let traced = pass(&inputs, full, true)?;
    print_pass_notes(&traced);
    let mut checks = Checks::default();
    checks.merge(reference.checks);
    let traced_checks = &traced.checks;
    checks.attempted += traced_checks.attempted;
    checks.failed += traced_checks.failed;

    // Deterministic-counter self-check at rotation MIN_ROTATIONS.
    match (&reference.prefix, &traced.prefix) {
        (Some(a), Some(b)) => {
            let mut differ = 0;
            for ((name, x), (_, y)) in a.fingerprint.iter().zip(&b.fingerprint) {
                differ += usize::from(x != y);
                checks.check(x == y, || {
                    format!("counter {name}: untraced {x}, traced {y}")
                });
            }
            println!(
                "self-check: {} seed-determined counters at rotation {MIN_ROTATIONS}, {differ} differ",
                a.fingerprint.len()
            );
            let rate = |p: &run::Prefix| p.updates as f64 / p.busy_s;
            println!(
                "trace overhead over the first {MIN_ROTATIONS} rotations: updates_per_s {:.4} -> {:.4} ({:+.2}%), visible_p50_ms {:.4} -> {:.4} ({:+.2}%)",
                rate(a),
                rate(b),
                (rate(b) / rate(a) - 1.0) * 100.0,
                a.visible_p50_ms,
                b.visible_p50_ms,
                (b.visible_p50_ms / a.visible_p50_ms - 1.0) * 100.0
            );
        }
        _ => checks.check(false, || {
            "a pass never reached the counter prefix".to_string()
        }),
    }
    for failure in &checks.failures {
        println!("check failed: {failure}");
    }
    report::print_metrics(
        "traced e2e: ",
        &report::end_to_end(&[Round::of(&traced)], traced_checks),
    );

    let final_graph = traced
        .final_graph
        .clone()
        .ok_or("traced pass kept no graph")?;
    let fresh_entries = DynamicSpc::build(final_graph, OrderingStrategy::Degree)
        .index()
        .num_entries();
    let probe = (spec.name == "delete_durable").then(|| wave_probe(&inputs));
    let metrics = report::per_layer(
        &spec,
        &traced,
        &TraceExtras {
            fresh_entries,
            probe,
        },
    );
    report::print_metrics("", &metrics);
    let correct = checks.failed == 0 && checks.attempted > 0;
    Ok(finish(correct, &checks, &metrics))
}

fn main() {
    let code = match parse_args().and_then(|args| run(&args)) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("perfbench: {e}");
            2
        }
    };
    std::process::exit(code);
}
