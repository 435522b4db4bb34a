//! Figure regeneration — Figs. 2–10 of the paper.

use rayon::prelude::*;

use hecmix_core::budget::{scaled_mixes, BudgetMix, PowerBudget};
use hecmix_core::config::ConfigSpace;
use hecmix_core::pareto::{ParetoFrontier, Region};
use hecmix_core::profile::WorkloadModel;
use hecmix_core::sweep::{homogeneous_frontier, sweep_space, EvaluatedConfig};
use hecmix_profile::characterize::fit_spi_mem;
use hecmix_profile::characterize::{spi_mem_grid, wpi_across_sizes, CharacterizeOptions, GridCell};
use hecmix_queueing::window_energy;
use hecmix_workloads::ep::Ep;
use hecmix_workloads::Workload;

use crate::lab::Lab;

// ---------------------------------------------------------------------
// Fig. 2 — WPI and SPI_core constant across problem sizes
// ---------------------------------------------------------------------

/// One Fig. 2 series point.
#[derive(Debug, Clone)]
pub struct Fig2Row {
    /// Platform name.
    pub platform: String,
    /// Problem-class letter (A/B/C).
    pub class: char,
    /// Problem size in work units.
    pub units: u64,
    /// Measured `WPI`.
    pub wpi: f64,
    /// Measured `SPI_core`.
    pub spi_core: f64,
}

/// Regenerate Fig. 2: EP classes A/B/C on both platforms.
///
/// The simulator's relative chunking makes counter ratios size-stable at
/// full NPB scales, but simulating 2³¹ units per class is still wasted
/// effort for a ratio measurement, so sizes are scaled down by a constant
/// factor (keeping their 1:4:8 relation).
#[must_use]
pub fn fig2(lab: &Lab) -> Vec<Fig2Row> {
    let classes = [
        (Ep::class_a(), 'A'),
        (Ep::class_b(), 'B'),
        (Ep::class_c(), 'C'),
    ];
    let scale = 1u64 << 12; // 2^28..2^31 → 2^16..2^19 units
    let mut rows = Vec::new();
    for (arch, pname) in [(&lab.amd, "AMD"), (&lab.arm, "ARM")] {
        let sizes: Vec<u64> = classes
            .iter()
            .map(|(ep, _)| ep.validation_units() / scale)
            .collect();
        let sweep = wpi_across_sizes(arch, &classes[0].0.trace(), &sizes);
        for (row, (ep, class)) in sweep.iter().zip(&classes) {
            rows.push(Fig2Row {
                platform: pname.to_owned(),
                class: *class,
                units: ep.validation_units(),
                wpi: row.wpi,
                spi_core: row.spi_core,
            });
        }
    }
    rows
}

// ---------------------------------------------------------------------
// Fig. 3 — SPI_mem regression over core frequency
// ---------------------------------------------------------------------

/// One platform's Fig. 3 data: the measured grid plus per-core-count fits.
#[derive(Debug, Clone)]
pub struct Fig3Series {
    /// Platform name.
    pub platform: String,
    /// Core counts plotted (1 and max, as in the paper).
    pub cores: Vec<u32>,
    /// Raw measured cells.
    pub cells: Vec<GridCell>,
    /// `r²` per plotted core count.
    pub r2: Vec<f64>,
}

/// Regenerate Fig. 3. The paper derives `SPI_mem` "by measuring the
/// memory stall cycles and instructions executed across different
/// frequencies and number of cores"; the memory-bound x264 workload
/// reproduces the figure's 0–8 cycles-per-instruction range.
#[must_use]
pub fn fig3(lab: &Lab) -> Vec<Fig3Series> {
    let trace = hecmix_workloads::x264::X264::demand();
    let trace = hecmix_sim::WorkloadTrace::batch("x264", trace);
    [(&lab.amd, "AMD"), (&lab.arm, "ARM")]
        .into_iter()
        .map(|(arch, name)| {
            let mut opts = CharacterizeOptions::for_trace(&trace);
            opts.seed = lab.seed();
            let grid = spi_mem_grid(arch, &trace, &opts);
            let cores = vec![1, arch.platform.cores];
            let fit = fit_spi_mem(&grid, &cores);
            let r2 = fit.per_cores.iter().map(|(_, f)| f.r2).collect();
            let cells = grid
                .into_iter()
                .filter(|c| cores.contains(&c.cores))
                .collect();
            Fig3Series {
                platform: name.to_owned(),
                cores,
                cells,
                r2,
            }
        })
        .collect()
}

// ---------------------------------------------------------------------
// Figs. 4/5 — full configuration space + Pareto frontier
// ---------------------------------------------------------------------

/// Data behind one Pareto-frontier figure.
#[derive(Debug, Clone)]
pub struct ParetoFigure {
    /// Workload name.
    pub workload: String,
    /// Every evaluated configuration (time, energy).
    pub all_points: Vec<(f64, f64, bool)>,
    /// The full frontier.
    pub frontier: ParetoFrontier,
    /// Best ARM-only configurations (frontier of the homogeneous subset).
    pub arm_only: ParetoFrontier,
    /// Best AMD-only configurations.
    pub amd_only: ParetoFrontier,
    /// Sweet region (heterogeneous run) if present.
    pub sweet: Option<Region>,
    /// Overlap region (homogeneous tail) if present.
    pub overlap: Option<Region>,
}

/// Regenerate Fig. 4 (EP) or Fig. 5 (memcached): evaluate the entire
/// 10 ARM + 10 AMD configuration space (36,380 points, §IV-B footnote 2).
#[must_use]
pub fn pareto_figure(lab: &Lab, w: &dyn Workload, max_arm: u32, max_amd: u32) -> ParetoFigure {
    let models = lab.models(w);
    let space = ConfigSpace::two_type(
        lab.arm.platform.clone(),
        max_arm,
        lab.amd.platform.clone(),
        max_amd,
    );
    let evaluated = sweep_space(&space, &models, w.analysis_units() as f64).expect("valid space");
    let all_points = evaluated
        .iter()
        .map(|e| {
            (
                e.outcome.time_s,
                e.outcome.energy_j,
                e.config.is_homogeneous(),
            )
        })
        .collect();
    let frontier = ParetoFrontier::from_points(
        evaluated
            .iter()
            .map(EvaluatedConfig::to_pareto_point)
            .collect(),
    );
    let arm_only = homogeneous_frontier(&evaluated, 0);
    let amd_only = homogeneous_frontier(&evaluated, 1);
    let sweet = frontier.sweet_region();
    let overlap = frontier.overlap_region();
    ParetoFigure {
        workload: w.name().to_owned(),
        all_points,
        frontier,
        arm_only,
        amd_only,
        sweet,
        overlap,
    }
}

// ---------------------------------------------------------------------
// Figs. 6/7 (budget mixes) and 8/9 (cluster scaling)
// ---------------------------------------------------------------------

/// A labelled frontier, one per mix in Figs. 6–9.
#[derive(Debug, Clone)]
pub struct MixSeries {
    /// Paper-style label, e.g. `ARM 16:AMD 14`.
    pub label: String,
    /// The mix.
    pub mix: BudgetMix,
    /// Its energy–deadline frontier.
    pub frontier: ParetoFrontier,
}

/// Evaluate the frontiers of a set of node-count mixes for one workload.
#[must_use]
pub fn mix_frontiers(lab: &Lab, w: &dyn Workload, mixes: &[BudgetMix]) -> Vec<MixSeries> {
    let models = lab.models(w);
    let units = w.analysis_units() as f64;
    mixes
        .par_iter()
        .map(|mix| {
            let label = mix.label(&lab.arm.platform, &lab.amd.platform);
            let frontier = mix_frontier(lab, &models, *mix, units);
            MixSeries {
                label,
                mix: *mix,
                frontier,
            }
        })
        .collect()
}

fn mix_frontier(lab: &Lab, models: &[WorkloadModel], mix: BudgetMix, units: f64) -> ParetoFrontier {
    // Streaming pruned sweep: the 128-node rungs cover hundreds of
    // thousands of configurations, which the rate-table engine folds
    // without materializing.
    let (frontier, _) = mix
        .frontier(&lab.arm.platform, &lab.amd.platform, models, units)
        .expect("valid mix space with a model per type");
    frontier
}

/// The paper's Fig. 6/7 mix ladder for a 1 kW budget:
/// `ARM 0:AMD 16` … `ARM 128:AMD 0` (§IV-C).
#[must_use]
pub fn paper_budget_mixes(lab: &Lab) -> Vec<BudgetMix> {
    let budget = PowerBudget::new(1000.0);
    let ladder = budget
        .substitution_ladder(&lab.arm.platform, &lab.amd.platform, 1)
        .expect("reference platforms fit the paper's budget");
    // The paper plots a subset of rungs.
    let published: [(u32, u32); 7] = [
        (0, 16),
        (16, 14),
        (32, 12),
        (48, 10),
        (88, 5),
        (112, 2),
        (128, 0),
    ];
    published
        .iter()
        .map(|&(low, high)| {
            *ladder
                .iter()
                .find(|m| m.low_nodes == low && m.high_nodes == high)
                .expect("published rung on the ladder")
        })
        .collect()
}

/// The paper's Fig. 8/9 scaling mixes: `ARM 8:AMD 1` … `ARM 128:AMD 16`.
#[must_use]
pub fn paper_scaling_mixes() -> Vec<BudgetMix> {
    scaled_mixes(8, 1, 4)
}

// ---------------------------------------------------------------------
// Fig. 10 — job queueing delay
// ---------------------------------------------------------------------

/// One point of a Fig. 10 utilization curve.
#[derive(Debug, Clone, Copy)]
pub struct Fig10Point {
    /// Mean response time per job, seconds.
    pub response_s: f64,
    /// Energy over the 20 s observation window, joules.
    pub energy_j: f64,
    /// Whether the configuration uses any AMD nodes.
    pub uses_amd: bool,
    /// Utilization of this configuration at the curve's arrival rate.
    pub utilization: f64,
}

/// One utilization curve of Fig. 10.
#[derive(Debug, Clone)]
pub struct Fig10Curve {
    /// Nominal utilization label (e.g. 0.05).
    pub nominal_utilization: f64,
    /// Arrival rate, jobs/s.
    pub lambda: f64,
    /// Points along the frontier configurations.
    pub points: Vec<Fig10Point>,
}

/// Regenerate Fig. 10: a 16 ARM + 14 AMD cluster servicing memcached jobs
/// (50 000 requests each) under M/D/1 arrivals, for a 20 s observation
/// window, at nominal utilizations 5 %, 25 % and 50 % (a tenfold arrival-
/// rate spread). Unused nodes are powered off; powered nodes idle between
/// jobs at their idle floor.
#[must_use]
pub fn fig10(lab: &Lab, w: &dyn Workload) -> Vec<Fig10Curve> {
    let models = lab.models(w);
    let mix = BudgetMix {
        low_nodes: 16,
        high_nodes: 14,
    };
    let frontier = mix_frontier(lab, &models, mix, w.analysis_units() as f64);
    assert!(!frontier.is_empty());
    // λ anchored to the fastest achievable service time, so the nominal
    // utilization is the fastest configuration's ρ; slower configs see
    // proportionally higher ρ and drop out when they saturate.
    let t_ref = frontier.min_time_s().expect("non-empty frontier");
    let window_s = 20.0;
    [0.05f64, 0.25, 0.5]
        .into_iter()
        .map(|u| {
            let lambda = u / t_ref;
            let points = frontier
                .points
                .iter()
                .filter_map(|p| {
                    let idle_w = powered_idle_w(p, &models);
                    window_energy(lambda, window_s, p.time_s, p.energy_j, idle_w)
                        .ok()
                        .map(|we| Fig10Point {
                            response_s: we.response_s,
                            energy_j: we.total_j(),
                            uses_amd: p.config.per_type[1].is_some(),
                            utilization: we.utilization,
                        })
                })
                .collect();
            Fig10Curve {
                nominal_utilization: u,
                lambda,
                points,
            }
        })
        .collect()
}

/// Idle power of the nodes a configuration powers (unused nodes are off).
fn powered_idle_w(p: &hecmix_core::pareto::ParetoPoint, models: &[WorkloadModel]) -> f64 {
    p.config
        .per_type
        .iter()
        .zip(models)
        .filter_map(|(cfg, m)| cfg.map(|c| f64::from(c.nodes) * m.power.idle_w))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hecmix_workloads::memcached::Memcached;

    #[test]
    fn fig2_ratios_stable() {
        let lab = Lab::new();
        let rows = fig2(&lab);
        assert_eq!(rows.len(), 6);
        for pname in ["AMD", "ARM"] {
            let series: Vec<&Fig2Row> = rows.iter().filter(|r| r.platform == pname).collect();
            assert_eq!(series.len(), 3);
            let max_wpi = series.iter().map(|r| r.wpi).fold(f64::MIN, f64::max);
            let min_wpi = series.iter().map(|r| r.wpi).fold(f64::MAX, f64::min);
            assert!((max_wpi - min_wpi) / min_wpi < 0.05, "{pname} WPI varies");
        }
        // Fig. 2 bands: AMD ≈ 0.6–0.7, ARM ≈ 0.85.
        let amd_wpi = rows.iter().find(|r| r.platform == "AMD").unwrap().wpi;
        let arm_wpi = rows.iter().find(|r| r.platform == "ARM").unwrap().wpi;
        assert!(arm_wpi > amd_wpi);
    }

    #[test]
    fn fig3_r2_meets_paper_bound() {
        let lab = Lab::new();
        for series in fig3(&lab) {
            for (c, r2) in series.cores.iter().zip(&series.r2) {
                assert!(*r2 >= 0.94, "{} cores={c}: r² {r2}", series.platform);
            }
        }
    }

    #[test]
    fn fig5_memcached_shape() {
        // A scaled-down memcached Pareto figure (3+3 nodes to keep the
        // sweep small in tests): heterogeneity must never lose to
        // homogeneity, and for an I/O-bound workload there is no overlap
        // tail.
        let lab = Lab::new();
        let fig = pareto_figure(&lab, &Memcached::default(), 3, 3);
        assert!(!fig.frontier.is_empty());
        for hp in &fig.amd_only.points {
            let best = fig.frontier.min_energy_for_deadline(hp.time_s).unwrap();
            assert!(best.energy_j <= hp.energy_j + 1e-9);
        }
        assert!(fig.sweet.is_some(), "memcached should show a sweet region");
    }

    #[test]
    fn fig10_shapes() {
        let lab = Lab::new();
        let curves = fig10(&lab, &Memcached::default());
        assert_eq!(curves.len(), 3);
        // Tenfold arrival-rate spread.
        assert!((curves[2].lambda / curves[0].lambda - 10.0).abs() < 1e-9);
        for c in &curves {
            assert!(
                !c.points.is_empty(),
                "U={} produced no feasible points",
                c.nominal_utilization
            );
        }
        // Observation 4: higher utilization costs more energy at the
        // fastest configuration.
        let first_energy = |c: &Fig10Curve| c.points.first().map(|p| p.energy_j).unwrap();
        assert!(first_energy(&curves[2]) > first_energy(&curves[0]));
    }
}
