//! The benchmark's workloads: fixed job lists generated from the
//! workload seed. README.md says why each exists and which layers it
//! loads.

use essat_harness::executor::SweepCell;
use essat_scenario::presets;
use essat_scenario::spec::Scenario;
use essat_sim::rng::SimRng;
use essat_sim::time::SimDuration;
use essat_wsn::config::{ExperimentConfig, Protocol, WorkloadSpec};

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's network and six protocols under the churn and
    /// bursty-link presets, repair on.
    FaultyLinks = 1,
    /// Thousands of nodes at paper density, one ESSAT protocol and one
    /// baseline.
    CityScale = 2,
}

/// Topologies per faulty_links batch; each runs all six protocols
/// under one preset, alternating churn and bursty_links. Many
/// topologies keep the figures steady across seeds: tree depth and
/// contention, and so job costs and latencies, vary from one random
/// topology to the next.
const FAULTY_TOPOLOGIES: usize = 12;
/// Simulated length of a faulty_links job: half the paper's 200 s, so
/// twice as many topologies fit a pass.
const FAULTY_DURATION_S: u64 = 100;
/// Q1 rate of faulty_links, Hz (the self-healing figure's rate).
const FAULTY_RATE_HZ: f64 = 1.0;
/// Node count of a city_scale world.
const CITY_NODES: u32 = 2000;
/// Topologies per city_scale batch; each runs STS-SS and SYNC.
const CITY_TOPOLOGIES: usize = 5;
/// Simulated length of a city_scale job.
const CITY_DURATION_S: u64 = 8;
/// Query start times of city_scale are drawn from `[0, this]` seconds,
/// so every query runs rounds within the short run.
const CITY_PHASE_WINDOW_S: u64 = 2;
/// Q1 rate of city_scale, Hz.
const CITY_RATE_HZ: f64 = 0.5;

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 2] = [Workload::FaultyLinks, Workload::CityScale];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::FaultyLinks => "faulty_links",
            Workload::CityScale => "city_scale",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The job list of one batch: one [`SweepCell`] per job, each with
    /// a single run. The same `seed` gives the same list.
    pub fn cells(self, seed: u64) -> Vec<SweepCell> {
        // Salted per workload so one --seed draws unrelated topologies
        // on different workloads.
        let mut rng = SimRng::seed_from_u64(seed).derive(self as u64 + 1);
        let mut cells = Vec::new();
        match self {
            Workload::FaultyLinks => {
                for t in 0..FAULTY_TOPOLOGIES {
                    let s = rng.next_u64();
                    let preset = ["churn", "bursty_links"][t % 2];
                    for p in Protocol::paper_set() {
                        let mut cfg =
                            ExperimentConfig::paper(p, WorkloadSpec::paper(FAULTY_RATE_HZ), s);
                        cfg.duration = SimDuration::from_secs(FAULTY_DURATION_S);
                        let spec = presets::by_name(preset, cfg.duration).expect("known preset");
                        cfg.scenario = Some(Scenario::Spec(spec));
                        cells.push(SweepCell::new(cfg, 1));
                    }
                }
            }
            Workload::CityScale => {
                for _ in 0..CITY_TOPOLOGIES {
                    let s = rng.next_u64();
                    for p in [Protocol::StsSs, Protocol::Sync] {
                        cells.push(SweepCell::new(city_config(p, CITY_NODES, s), 1));
                    }
                }
            }
        }
        cells
    }
}

/// A paper-density world of `nodes` nodes: the area grows with the
/// node count so the mean neighbourhood stays the paper's, and the tree
/// radius covers the whole area.
fn city_config(p: Protocol, nodes: u32, seed: u64) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::paper(p, WorkloadSpec::paper(CITY_RATE_HZ), seed);
    let side = cfg.area_side * (nodes as f64 / cfg.nodes as f64).sqrt();
    cfg.nodes = nodes;
    cfg.area_side = side;
    cfg.tree_radius = side;
    cfg.duration = SimDuration::from_secs(CITY_DURATION_S);
    cfg.workload.phase_window = SimDuration::from_secs(CITY_PHASE_WINDOW_S);
    cfg
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_jobs_other_seed_other_topologies() {
        for w in Workload::ALL {
            let a = w.cells(7);
            let b = w.cells(7);
            let c = w.cells(8);
            assert!(!a.is_empty());
            assert!(a.iter().zip(&b).all(|(x, y)| x.cfg == y.cfg && x.runs == 1));
            assert!(a.iter().zip(&c).any(|(x, y)| x.cfg.seed != y.cfg.seed));
            for cell in &a {
                cell.cfg.validate();
            }
        }
    }

    #[test]
    fn city_scale_keeps_paper_density() {
        let paper = ExperimentConfig::paper(Protocol::Sync, WorkloadSpec::paper(1.0), 1);
        let density = |c: &ExperimentConfig| c.nodes as f64 / (c.area_side * c.area_side);
        for cell in Workload::CityScale.cells(3) {
            let rel = density(&cell.cfg) / density(&paper);
            assert!((rel - 1.0).abs() < 1e-9, "density off by {rel}");
            // Reaches every corner from the centre.
            assert!(cell.cfg.tree_radius >= cell.cfg.area_side * std::f64::consts::SQRT_2 / 2.0);
        }
    }

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }
}
