//! Running batches: untraced through `SweepExecutor::run_checked`,
//! traced through `World::run_instrumented` with the benchmark's probe,
//! and the correctness checks over both.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use essat_harness::executor::{ExecutorStats, JobProfile, SweepCell, SweepExecutor};
use essat_net::channel::ChannelAdjacency;
use essat_net::geometry::Area;
use essat_net::topology::Topology;
use essat_obs::profile::RunTimings;
use essat_query::tree::RoutingTree;
use essat_scenario::spec::Scenario;
use essat_sim::rng::SimRng;
use essat_wsn::config::{ExperimentConfig, Protocol};
use essat_wsn::metrics::RunResult;
use essat_wsn::sim::{BuildCache, World, WorldScratch};

use crate::probe::LayerProbe;

/// One untraced pass over the job list.
pub struct Batch {
    /// When the `run_checked` call started.
    pub started: Instant,
    /// Wall time of the `run_checked` call.
    pub wall: Duration,
    /// Per-job profiles, in job order (failed jobs included).
    pub profiles: Vec<JobProfile>,
    /// The executor's aggregate statistics for this pass.
    pub stats: ExecutorStats,
    /// Peak resident memory of the process during the pass, in MB
    /// (`VmHWM`, reset before the pass); `None` if it could not be read.
    pub peak_rss_mb: Option<f64>,
    /// Per job, its result (`None` if the job failed); empty unless
    /// asked for, so later passes retain no results and peak memory
    /// does not grow with the pass count.
    pub results: Vec<Option<RunResult>>,
}

/// Runs every cell once on `workers` executor threads, recording each
/// digest and failure in `check`; keeps the results if `keep`.
pub fn untraced(cells: &[SweepCell], workers: usize, keep: bool, check: &mut Checker) -> Batch {
    let mut ex = SweepExecutor::with_threads(workers);
    // Writing 5 resets the process's peak resident set to its current
    // size, so VmHWM afterwards covers this pass alone.
    let reset = std::fs::write("/proc/self/clear_refs", "5");
    let t0 = Instant::now();
    let out = ex.run_checked(cells);
    let wall = t0.elapsed();
    let peak_rss_mb = reset.ok().and_then(|()| vm_hwm_mb());
    for f in &out.failures {
        check.fail(f.cell, format!("failed in the executor: {}", f.reason));
    }
    let results: Vec<Option<RunResult>> = out
        .results
        .into_iter()
        .map(|mut rs| {
            assert!(rs.len() <= 1, "every cell holds one run");
            rs.pop()
        })
        .collect();
    for (job, r) in results.iter().enumerate() {
        if let Some(r) = r {
            check.digest(job, &r.digest(), "untraced");
        }
    }
    Batch {
        started: t0,
        wall,
        profiles: ex.profiles().to_vec(),
        stats: ex.stats(),
        peak_rss_mb,
        results: if keep { results } else { Vec::new() },
    }
}

/// Peak resident set of this process since its last reset, in MB, from
/// `/proc/self/status`.
fn vm_hwm_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    let kb: f64 = kb.trim().trim_end_matches("kB").trim().parse().ok()?;
    Some(kb / 1024.0)
}

/// One traced pass: what it cost and what each job's probe recorded.
pub struct TracedBatch {
    /// Wall time of the pass.
    pub wall: Duration,
    /// Per job, its probe (`None` if the job panicked).
    pub probes: Vec<Option<LayerProbe>>,
}

/// Runs every cell once with a [`LayerProbe`] attached, on `workers`
/// threads sharing one build cache and keeping one scratch each — the
/// executor's own arrangement, so the wall time compares with
/// [`untraced`]. Digests go to `check` under the label "traced".
pub fn traced(cells: &[SweepCell], workers: usize, check: &mut Checker) -> TracedBatch {
    let cursor = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<(RunResult, LayerProbe)>>> =
        cells.iter().map(|_| Mutex::new(None)).collect();
    let cache = BuildCache::new();
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..workers.min(cells.len()).max(1) {
            scope.spawn(|| {
                let mut scratch = WorldScratch::new();
                loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    let Some(cell) = cells.get(i) else { break };
                    let mut timings = RunTimings::default();
                    let job = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        World::run_instrumented(
                            &cell.cfg,
                            &Protocol::build_policy,
                            Some(&cache),
                            &mut scratch,
                            None,
                            LayerProbe::default(),
                            &mut timings,
                        )
                    }));
                    match job {
                        Ok((Some(r), p)) => {
                            *slots[i].lock().expect("slot lock poisoned") = Some((r, p));
                        }
                        // Leave the slot empty; a panic may have left
                        // the scratch inconsistent.
                        _ => scratch = WorldScratch::new(),
                    }
                }
            });
        }
    });
    let wall = t0.elapsed();
    let probes = slots
        .into_iter()
        .enumerate()
        .map(
            |(job, slot)| match slot.into_inner().expect("slot lock poisoned") {
                Some((r, p)) => {
                    check.digest(job, &r.digest(), "traced");
                    Some(p)
                }
                None => {
                    check.fail(job, "failed in the traced run".to_string());
                    None
                }
            },
        )
        .collect();
    TracedBatch { wall, probes }
}

/// Correctness bookkeeping: each job's digest must repeat across every
/// pass, traced or not, and no job may fail.
pub struct Checker {
    names: Vec<String>,
    digests: Vec<Option<(String, &'static str)>>,
    /// Every problem found, each naming its job.
    pub errors: Vec<String>,
    /// Jobs attempted so far.
    pub attempted: u64,
    /// Jobs that produced no result.
    pub failed: u64,
}

impl Checker {
    /// A checker for `cells`' job list.
    pub fn new(cells: &[SweepCell]) -> Checker {
        Checker {
            names: cells.iter().map(|c| job_name(&c.cfg)).collect(),
            digests: vec![None; cells.len()],
            errors: Vec::new(),
            attempted: 0,
            failed: 0,
        }
    }

    /// Counts one more pass over the job list.
    pub fn pass(&mut self) {
        self.attempted += self.names.len() as u64;
    }

    fn fail(&mut self, job: usize, what: String) {
        self.failed += 1;
        self.error(job, what);
    }

    fn error(&mut self, job: usize, what: String) {
        self.errors
            .push(format!("job {job} ({}): {what}", self.names[job]));
    }

    /// Records `digest` for `job`; a digest differing from the job's
    /// first one is an error.
    pub fn digest(&mut self, job: usize, digest: &str, source: &'static str) {
        match &self.digests[job] {
            None => self.digests[job] = Some((digest.to_string(), source)),
            Some((first, first_src)) if first != digest => {
                let msg = format!("digest {digest} ({source}) differs from {first} ({first_src})");
                self.error(job, msg);
            }
            Some(_) => {}
        }
    }

    /// Checks one job's outcomes are in range, and that a fault-free
    /// job never repaired its tree.
    pub fn outcome(&mut self, job: usize, cfg: &ExperimentConfig, r: &RunResult) {
        let duty = r.avg_duty_cycle_pct();
        let lat = r.avg_latency_s();
        let del = r.delivery_ratio();
        let mut bad = Vec::new();
        if !(0.0..=100.0).contains(&duty) {
            bad.push(format!("duty cycle {duty}%"));
        }
        if !(lat.is_finite() && lat >= 0.0) {
            bad.push(format!("latency {lat} s"));
        }
        if !(0.0..=1.0).contains(&del) {
            bad.push(format!("delivery ratio {del}"));
        }
        if r.events_processed == 0 || r.queries.is_empty() {
            bad.push("no events or no queries".to_string());
        }
        if r.measured_until.as_nanos() != cfg.duration.as_nanos() {
            bad.push(format!(
                "measured until {:?}, not {:?}",
                r.measured_until, cfg.duration
            ));
        }
        let faults =
            cfg.scenario.is_some() || cfg.drop_probability > 0.0 || !cfg.node_failures.is_empty();
        if !faults && r.repairs != 0 {
            bad.push(format!("{} repairs on a fault-free run", r.repairs));
        }
        for b in bad {
            self.error(job, b);
        }
    }

    /// Re-runs `job` through `runner::run_one` (fresh construction, no
    /// shared cache or recycled scratch) and compares its digest.
    pub fn reference(&mut self, job: usize, cfg: &ExperimentConfig) {
        let r = essat_wsn::runner::run_one(cfg);
        self.digest(job, &r.digest(), "fresh run_one");
    }
}

/// A job's description for error messages and trace records.
pub fn job_name(cfg: &ExperimentConfig) -> String {
    let scenario = cfg.scenario.as_ref().map_or("none", Scenario::name);
    format!(
        "{}, {} nodes, {} s, seed {}, scenario {scenario}",
        cfg.protocol,
        cfg.nodes,
        cfg.duration.as_secs_f64(),
        cfg.seed
    )
}

/// Set-up phases timed from outside, summed over a job list.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// `Topology::random` (plus root choice), once per distinct build.
    pub topology_s: f64,
    /// `RoutingTree::build`, once per distinct build.
    pub tree_s: f64,
    /// `ChannelAdjacency::build`, once per distinct build.
    pub adjacency_s: f64,
    /// `essat_scenario::compile::compile`, once per job with a scenario
    /// (worlds compile their scenario on every build).
    pub scenario_s: f64,
    /// Deepest tree level over the builds.
    pub max_level: u32,
}

/// The inputs the build cache keys on; jobs sharing them share one
/// topology, tree and adjacency.
fn build_key(cfg: &ExperimentConfig) -> (u32, u64, u64, Option<u64>, u64, u64) {
    (
        cfg.nodes,
        cfg.area_side.to_bits(),
        cfg.range.to_bits(),
        cfg.interference_range.map(f64::to_bits),
        cfg.tree_radius.to_bits(),
        cfg.seed,
    )
}

/// Distinct builds a batch of `cells` performs.
pub fn distinct_builds(cells: &[SweepCell]) -> usize {
    cells
        .iter()
        .map(|c| build_key(&c.cfg))
        .collect::<BTreeSet<_>>()
        .len()
}

/// Times the set-up layers at the exact inputs the worlds of `cells`
/// build from: the same RNG stream and call order as world
/// construction, once per distinct build (scenarios once per job).
pub fn time_setup(cells: &[SweepCell]) -> SetupTimes {
    let mut t = SetupTimes::default();
    let mut roots = BTreeMap::new();
    for cell in cells {
        let cfg = &cell.cfg;
        let root = *roots.entry(build_key(cfg)).or_insert_with(|| {
            let t0 = Instant::now();
            let mut rng = SimRng::seed_from_u64(cfg.seed).derive(1);
            let area = Area::new(cfg.area_side, cfg.area_side);
            let mut topo = Topology::random(cfg.nodes, area, cfg.range, &mut rng);
            if let Some(ir) = cfg.interference_range {
                topo = topo.with_interference_range(ir);
            }
            let root = topo.closest_to_center();
            let t1 = Instant::now();
            let tree = RoutingTree::build(&topo, root, Some(cfg.tree_radius));
            let t2 = Instant::now();
            let adj = ChannelAdjacency::build(&topo);
            let t3 = Instant::now();
            t.topology_s += (t1 - t0).as_secs_f64();
            t.tree_s += (t2 - t1).as_secs_f64();
            t.adjacency_s += (t3 - t2).as_secs_f64();
            t.max_level = t.max_level.max(tree.max_level());
            std::hint::black_box((&tree, &adj));
            root.as_u32()
        });
        if let Some(Scenario::Spec(spec)) = &cfg.scenario {
            let t0 = Instant::now();
            let c = essat_scenario::compile::compile(spec, cfg.nodes, root, cfg.duration, cfg.seed);
            t.scenario_s += t0.elapsed().as_secs_f64();
            std::hint::black_box(&c);
        }
    }
    t
}
