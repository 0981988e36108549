//! The repository benchmark. Runs one workload for a fixed host-time
//! budget and prints its metrics; see README.md.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload faulty_links --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off, host
//! times normalized for the host's drifting speed (`speed.rs`);
//! `--trace 1` makes the traced run and reports the per-layer metrics.
//! The last line of standard output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`. Any digest mismatch,
//! failed job or out-of-range outcome names its job on standard error,
//! sets `correct` to false and makes the exit code 1.

mod probe;
mod run;
mod speed;
mod stats;
mod workloads;

use std::fs;
use std::io::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use essat_harness::executor::SweepCell;

use crate::probe::{LayerProbe, POLICY_ACTIONS};
use crate::run::{Batch, Checker, TracedBatch};
use crate::stats::{median, node_seconds, percentile, ratio, tail_percentile};
use crate::workloads::Workload;

/// Upper bound on executor workers, so figures compare across hosts
/// with more cores and memory stays small at city scale.
const MAX_WORKERS: usize = 2;
/// Untraced passes a run makes at least (medians need several).
const MIN_PASSES: usize = 3;
/// Job samples the latency percentiles need at least (p75 and above
/// for the tail).
const MIN_JOB_SAMPLES: usize = 40;
/// Repetitions of the externally timed set-up phases.
const SETUP_REPS: usize = 3;
/// Where the traced run writes its per-job spans, relative to the
/// working directory.
const TRACE_DIR: &str = ".bench_trace";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str = "usage: essat-benchmark --workload <faulty_links|city_scale> \
                     --seed <u64> --seconds <1..=3600> --trace <0|1>";

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad("unknown workload"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("not a u64"))?),
            "--seconds" => {
                let s = value
                    .parse::<u64>()
                    .map_err(|_| bad("not a whole number"))?;
                if !(1..=3600).contains(&s) {
                    return Err(bad("outside 1..=3600"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("must be 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// One reported metric.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let cells = args.workload.cells(args.seed);
    let workers = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(MAX_WORKERS);
    eprintln!(
        "{}: {} jobs per pass, {workers} workers, seed {}, {} s{}",
        args.workload.name(),
        cells.len(),
        args.seed,
        args.seconds,
        if args.trace { ", traced" } else { "" }
    );
    let mut check = Checker::new(&cells);
    let metrics = if args.trace {
        per_layer(&args, &cells, workers, &mut check)
    } else {
        end_to_end(&args, &cells, workers, &mut check)
    };
    for m in &metrics {
        if !m.value.is_finite() {
            check
                .errors
                .push(format!("metric {} is {}", m.name, m.value));
        }
    }
    for e in &check.errors {
        eprintln!("error: {e}");
    }
    let correct = check.errors.is_empty();
    for m in &metrics {
        println!("{:<40} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!(
        "{}",
        result_json(correct, check.attempted, check.failed, &metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The result line. Non-finite values (already reported as errors)
/// print as 0 to keep the line valid JSON.
fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body = metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect::<Vec<_>>()
        .join(", ");
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{body}}}}}"
    )
}

/// True while another pass, at the mean pass time so far, still ends
/// within the budget.
fn budget_left(started: Instant, passes: usize, seconds: u64) -> bool {
    let spent = started.elapsed().as_secs_f64();
    passes == 0 || spent + spent / passes as f64 <= seconds as f64
}

/// Untraced passes while the time budget lasts, at least [`MIN_PASSES`]
/// and [`MIN_JOB_SAMPLES`] jobs.
fn untraced_passes(
    args: &Args,
    cells: &[SweepCell],
    workers: usize,
    check: &mut Checker,
) -> Vec<Batch> {
    let t0 = Instant::now();
    let mut batches: Vec<Batch> = Vec::new();
    while batches.len() < MIN_PASSES
        || batches.len() * cells.len() < MIN_JOB_SAMPLES
        || budget_left(t0, batches.len(), args.seconds)
    {
        check.pass();
        let first = batches.is_empty();
        let b = run::untraced(cells, workers, first, check);
        eprintln!(
            "pass {}: {:.3} s wall, {:.3} s set-up, {:.1} MB peak",
            batches.len() + 1,
            b.wall.as_secs_f64(),
            b.stats.timings.build.as_secs_f64(),
            b.peak_rss_mb.unwrap_or(f64::NAN)
        );
        batches.push(b);
    }
    batches
}

/// Job samples every run is sure to reach with `jobs` jobs per pass.
/// The tail percentile follows from this count, not from the samples a
/// run happened to take, so it does not change with how many passes fit.
fn guaranteed_samples(jobs: usize) -> usize {
    MIN_PASSES.max(MIN_JOB_SAMPLES.div_ceil(jobs)) * jobs
}

/// Model outcomes and range checks over the first pass's results (the
/// model is deterministic, so every pass gives the same values).
fn check_outcomes(cells: &[SweepCell], first: &Batch, check: &mut Checker) -> [f64; 3] {
    let mut sums = [0.0; 3];
    let mut n = 0.0;
    for (job, (cell, r)) in cells.iter().zip(&first.results).enumerate() {
        if let Some(r) = r {
            check.outcome(job, &cell.cfg, r);
            sums[0] += r.avg_duty_cycle_pct();
            sums[1] += r.avg_latency_s();
            sums[2] += r.delivery_ratio();
            n += 1.0;
        }
    }
    sums.map(|s| ratio(s, n))
}

fn end_to_end(
    args: &Args,
    cells: &[SweepCell],
    workers: usize,
    check: &mut Checker,
) -> Vec<Metric> {
    let (batches, speed) = speed::sampled(|| untraced_passes(args, cells, workers, check));
    let [duty, latency, delivery] = check_outcomes(cells, &batches[0], check);
    // One job, rotating with the seed, is rebuilt from scratch outside
    // the timed passes: pooled, cached construction must match it.
    let job = (args.seed % cells.len() as u64) as usize;
    check.reference(job, &cells[job].cfg);

    let node_s = node_seconds(
        cells
            .iter()
            .map(|c| (c.cfg.nodes, c.cfg.duration.as_secs_f64())),
    );
    let tail_p = tail_percentile(guaranteed_samples(cells.len()))
        .expect("MIN_JOB_SAMPLES leaves ten beyond p75");
    eprintln!(
        "job_s_tail is p{tail_p} of {} job samples ({} passes of {} jobs)",
        batches.iter().map(|b| b.profiles.len()).sum::<usize>(),
        batches.len(),
        cells.len()
    );
    let slowdown = |from, len| speed.slowdown(from, len).unwrap_or(f64::NAN);
    let [throughput, p50, tail, setup] = HostTimes::of(&batches, slowdown).metrics(node_s, tail_p);
    let raw = HostTimes::of(&batches, |_, _| 1.0).metrics(node_s, tail_p);
    eprintln!(
        "raw host time, not normalized: node_s_per_host_s {:.1}, job_s_p50 {:.4} s, \
         job_s_tail {:.4} s, setup_s {:.5} s; host slowdown vs the reference host: \
         median {:.3} over {} samples",
        raw[0],
        raw[1],
        raw[2],
        raw[3],
        speed.overall().unwrap_or(f64::NAN),
        speed.len()
    );
    let peaks: Option<Vec<f64>> = batches.iter().map(|b| b.peak_rss_mb).collect();
    let peak_rss = peaks.as_deref().and_then(median).unwrap_or_else(|| {
        check.errors.push(
            "no per-pass peak resident set (/proc/self/clear_refs or VmHWM unavailable)"
                .to_string(),
        );
        0.0
    });
    let ok = check.attempted - check.failed;
    vec![
        metric("node_s_per_host_s", throughput, "node_s/s"),
        metric("job_s_p50", p50, "s"),
        metric("job_s_tail", tail, "s"),
        metric("setup_s", setup, "s"),
        metric("peak_rss_mb", peak_rss, "MB"),
        metric(
            "job_success_ratio",
            ratio(ok as f64, check.attempted as f64),
            "ratio",
        ),
        metric("duty_cycle_pct", duty, "%"),
        metric("query_latency_s", latency, "sim_s"),
        metric("delivery_ratio", delivery, "ratio"),
    ]
}

/// Host times of a run's untraced passes, each divided by the host's
/// slowdown over the interval it covers.
struct HostTimes {
    /// Wall time per pass.
    passes: Vec<f64>,
    /// Wall time per job over every pass, ascending.
    jobs: Vec<f64>,
    /// Set-up time per pass (`RunTimings.build` summed over its jobs).
    setups: Vec<f64>,
}

impl HostTimes {
    fn of(batches: &[Batch], slowdown: impl Fn(Instant, Duration) -> f64) -> HostTimes {
        let mut t = HostTimes {
            passes: Vec::new(),
            jobs: Vec::new(),
            setups: Vec::new(),
        };
        for b in batches {
            let f = slowdown(b.started, b.wall);
            t.passes.push(b.wall.as_secs_f64() / f);
            t.setups.push(b.stats.timings.build.as_secs_f64() / f);
            t.jobs.extend(
                b.profiles
                    .iter()
                    .map(|p| p.wall.as_secs_f64() / slowdown(b.started + p.start, p.wall)),
            );
        }
        t.jobs.sort_by(f64::total_cmp);
        t
    }

    /// `node_s_per_host_s` (median over passes), `job_s_p50`,
    /// `job_s_tail` (percentile `tail_p`) and `setup_s` (median over
    /// passes).
    fn metrics(&self, node_s: f64, tail_p: f64) -> [f64; 4] {
        [
            median(&self.passes).map_or(0.0, |w| ratio(node_s, w)),
            percentile(&self.jobs, 50.0).unwrap_or(0.0),
            percentile(&self.jobs, tail_p).unwrap_or(0.0),
            median(&self.setups).unwrap_or(0.0),
        ]
    }
}

fn per_layer(args: &Args, cells: &[SweepCell], workers: usize, check: &mut Checker) -> Vec<Metric> {
    // Sampled like the end-to-end run, so the traced passes share the
    // cores with the same sampler; per-layer times stay raw.
    let (mut m, speed) = speed::sampled(|| layers(args, cells, workers, check));
    m.push(metric(
        "obs.host_slowdown",
        speed.overall().unwrap_or(f64::NAN),
        "ratio",
    ));
    m
}

fn layers(args: &Args, cells: &[SweepCell], workers: usize, check: &mut Checker) -> Vec<Metric> {
    let setups: Vec<run::SetupTimes> = (0..SETUP_REPS).map(|_| run::time_setup(cells)).collect();
    let setup = |f: fn(&run::SetupTimes) -> f64| {
        median(&setups.iter().map(f).collect::<Vec<_>>()).unwrap_or(0.0)
    };

    // Alternate untraced and traced passes over the same jobs while
    // the budget lasts (at least one pair).
    let t0 = Instant::now();
    let mut plain: Vec<Batch> = Vec::new();
    let mut traced: Vec<TracedBatch> = Vec::new();
    while budget_left(t0, plain.len(), args.seconds) {
        check.pass();
        let first = plain.is_empty();
        plain.push(run::untraced(cells, workers, first, check));
        check.pass();
        traced.push(run::traced(cells, workers, check));
    }
    check_outcomes(cells, &plain[0], check);

    // Per-job spans summed over the traced passes; layer totals.
    let mut jobs: Vec<LayerProbe> = vec![LayerProbe::default(); cells.len()];
    for t in &traced {
        for (acc, p) in jobs.iter_mut().zip(&t.probes) {
            if let Some(p) = p {
                acc.merge(p);
            }
        }
    }
    write_spans(args, cells, &jobs);
    let mut all = LayerProbe::default();
    for j in &jobs {
        all.merge(j);
    }
    let passes = traced.len() as f64;
    let mean_ns = |kinds: &[&str]| {
        let (n, ns) = kinds
            .iter()
            .map(|k| all.span(k))
            .fold((0, 0), |(n, ns), s| (n + s.count, ns + s.self_ns));
        ratio(ns as f64, n as f64)
    };
    // Counts per pass: the hooks are deterministic, so every traced
    // pass records the same counts.
    let per_pass = |c: u64| c as f64 / passes;
    let dispatches: u64 = all.kinds.iter().map(|(_, s)| s.count).sum();
    let dispatch_ns: u64 = all.kinds.iter().map(|(_, s)| s.self_ns).sum();

    let results: Vec<_> = plain[0].results.iter().flatten().collect();
    let sum = |f: fn(&essat_wsn::metrics::RunResult) -> u64| {
        results.iter().map(|r| f(r)).sum::<u64>() as f64
    };
    let med =
        |f: &dyn Fn(&Batch) -> f64| median(&plain.iter().map(f).collect::<Vec<_>>()).unwrap_or(0.0);
    let overhead = median(
        &plain
            .iter()
            .zip(&traced)
            .map(|(p, t)| t.wall.as_secs_f64() / p.wall.as_secs_f64())
            .collect::<Vec<_>>(),
    )
    .unwrap_or(0.0);
    let busy = |b: &Batch| {
        let busy: f64 = b.stats.workers.iter().map(|w| w.busy.as_secs_f64()).sum();
        ratio(busy, b.stats.workers.len() as f64 * b.wall.as_secs_f64())
    };
    let data_tx = sum(|r| r.mac.data_tx);

    let mut m = vec![
        metric("sim.events", sum(|r| r.events_processed), "count"),
        metric(
            "sim.peak_queue_depth",
            results
                .iter()
                .map(|r| r.peak_queue_depth)
                .max()
                .unwrap_or(0) as f64,
            "count",
        ),
        metric(
            "sim.dispatch_ns",
            ratio(dispatch_ns as f64, dispatches as f64),
            "ns",
        ),
        metric(
            "net.mac.timer_events",
            per_pass(all.span("mac_timer").count),
            "count",
        ),
        metric("net.mac.timer_self_ns", mean_ns(&["mac_timer"]), "ns"),
        metric("net.mac.data_tx", data_tx, "count"),
        metric("net.mac.retries", sum(|r| r.mac.retries), "count"),
        metric("net.mac.failed", sum(|r| r.mac.failed), "count"),
        metric(
            "net.mac.ack_ratio",
            ratio(sum(|r| r.mac.delivered), data_tx),
            "ratio",
        ),
        metric("net.channel.tx", sum(|r| r.channel_transmissions), "count"),
        metric("net.channel.tx_end_self_ns", mean_ns(&["tx_end"]), "ns"),
        metric(
            "net.channel.hearers_per_tx",
            ratio(
                (all.tx_clean + all.tx_corrupted) as f64,
                all.tx_ended as f64,
            ),
            "count",
        ),
        metric(
            "net.channel.clean_ratio",
            ratio(
                all.tx_clean as f64,
                (all.tx_clean + all.tx_corrupted) as f64,
            ),
            "ratio",
        ),
        metric(
            "net.channel.collisions",
            sum(|r| r.channel_collisions),
            "count",
        ),
        metric(
            "net.channel.adjacency_build_s",
            setup(|s| s.adjacency_s),
            "s",
        ),
        metric(
            "net.radio.transitions",
            per_pass(all.radio_transitions),
            "count",
        ),
        metric(
            "net.radio.self_ns",
            mean_ns(&["radio_done", "radio_wake"]),
            "ns",
        ),
        metric("net.topology.build_s", setup(|s| s.topology_s), "s"),
        metric("query.tree.build_s", setup(|s| s.tree_s), "s"),
        metric("query.tree.max_level", setups[0].max_level as f64, "count"),
        metric(
            "query.round.self_ns",
            mean_ns(&["round_start", "collection_timeout", "release_report"]),
            "ns",
        ),
        metric(
            "query.round.full_ratio",
            ratio(all.rounds_full as f64, all.rounds_sealed as f64),
            "ratio",
        ),
        metric(
            "query.round.missed_reports",
            sum(|r| r.missed_reports),
            "count",
        ),
        metric("policy.self_ns", mean_ns(&["policy"]), "ns"),
    ];
    for (i, a) in POLICY_ACTIONS.iter().enumerate() {
        m.push(metric(
            format!("policy.actions.{a}"),
            per_pass(all.policy_actions[i]),
            "count",
        ));
    }
    m.extend([
        metric(
            "policy.sleep_checkpoints",
            per_pass(all.sleep_checkpoints),
            "count",
        ),
        metric("scenario.compile_s", setup(|s| s.scenario_s), "s"),
        metric(
            "wsn.world.build_s",
            med(&|b| b.stats.timings.build.as_secs_f64()),
            "s",
        ),
        metric(
            "wsn.world.run_s",
            med(&|b| b.stats.timings.run.as_secs_f64()),
            "s",
        ),
        metric(
            "wsn.world.finalize_s",
            med(&|b| b.stats.timings.finalize.as_secs_f64()),
            "s",
        ),
        metric("wsn.repair.repairs", sum(|r| r.repairs), "count"),
        metric("wsn.repair.redispatches", sum(|r| r.redispatches), "count"),
        metric(
            "wsn.repair.orphan_node_s",
            results.iter().map(|r| r.orphan_node_seconds()).sum(),
            "node_s",
        ),
        metric(
            "wsn.repair.lifecycle_self_ns",
            mean_ns(&["node_fail", "node_recover", "battery_check"]),
            "ns",
        ),
        metric("harness.executor.worker_busy_ratio", med(&busy), "ratio"),
        metric(
            "harness.executor.build_cache_hit_ratio",
            1.0 - ratio(run::distinct_builds(cells) as f64, cells.len() as f64),
            "ratio",
        ),
        metric("obs.tracing_overhead_ratio", overhead, "ratio"),
    ]);
    m
}

/// Writes each job's per-kind dispatch spans (summed over the traced
/// passes) as JSON lines under [`TRACE_DIR`]. A write failure is
/// reported but does not fail the run.
fn write_spans(args: &Args, cells: &[SweepCell], jobs: &[LayerProbe]) {
    let path = format!(
        "{TRACE_DIR}/{}-seed{}.jsonl",
        args.workload.name(),
        args.seed
    );
    let mut out = String::new();
    for (i, (cell, p)) in cells.iter().zip(jobs).enumerate() {
        for (kind, s) in &p.kinds {
            out.push_str(&format!(
                "{{\"job\": {i}, \"name\": \"{}\", \"kind\": \"{kind}\", \"dispatches\": {}, \
                 \"self_ns\": {}}}\n",
                run::job_name(&cell.cfg),
                s.count,
                s.self_ns
            ));
        }
    }
    let written = fs::create_dir_all(TRACE_DIR)
        .and_then(|_| fs::File::create(&path))
        .and_then(|mut f| f.write_all(out.as_bytes()).and_then(|_| f.flush()));
    match written {
        Ok(()) => eprintln!("per-job spans written to {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = parse("--workload city_scale --seed 9 --seconds 20 --trace 1").expect("valid");
        assert_eq!(a.workload, Workload::CityScale);
        assert_eq!((a.seed, a.seconds, a.trace), (9, 20, true));
        assert!(parse("--workload city_scale --seed 9 --seconds 20").is_err());
        assert!(parse("--workload nope --seed 9 --seconds 20 --trace 0").is_err());
        assert!(parse("--workload city_scale --seed 9 --seconds 0 --trace 0").is_err());
        assert!(parse("--workload city_scale --seed 9 --seconds 5 --trace 2").is_err());
        assert!(parse("--workload city_scale --seed").is_err());
    }

    #[test]
    fn tail_percentile_is_fixed_per_workload() {
        let tail = |w: Workload| tail_percentile(guaranteed_samples(w.cells(1).len()));
        assert_eq!(guaranteed_samples(72), 216);
        assert_eq!(guaranteed_samples(10), 40);
        assert_eq!(guaranteed_samples(7), 42);
        assert_eq!(tail(Workload::FaultyLinks), Some(95.0));
        assert_eq!(tail(Workload::CityScale), Some(75.0));
    }

    #[test]
    fn result_line_is_the_contract_shape() {
        let m = [metric("a", 1.5, "s"), metric("b", f64::NAN, "ratio")];
        assert_eq!(
            result_json(true, 3, 0, &m),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"a\": {\"value\": 1.5, \"unit\": \"s\"}, \"b\": {\"value\": 0.0, \"unit\": \"ratio\"}}}"
        );
    }
}
