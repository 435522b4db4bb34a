//! Peak-power budgets and the substitution ladder (§IV-C, §IV-D).
//!
//! Datacenters cap peak power. The paper asks: within a fixed budget (1 kW
//! in §IV-C), how many high-performance nodes should be *replaced* by
//! low-power nodes? Replacement preserves peak power using the
//! **substitution ratio** — with a 60 W AMD node, 5 W ARM nodes, and a
//! 20 W switch amortized over the ARM nodes it connects, one AMD node is
//! power-equivalent to 8 ARM nodes (footnote 5).
//!
//! [`PowerBudget::substitution_ladder`] generates the paper's mix sequence
//! (`ARM 0:AMD 16`, `16:14`, `32:12`, `48:10`, `88:5`, `112:2`, `128:0` for
//! 1 kW), and [`scaled_mixes`] the §IV-D cluster-size sweep (`8:1` → `128:16`).

use serde::{Deserialize, Serialize};

use crate::config::{ConfigSpace, TypeBounds};
use crate::error::{Error, Result};
use crate::pareto::ParetoFrontier;
use crate::profile::WorkloadModel;
use crate::rate_table::{fold_pruned, stream_frontier_pruned, validate_work, OptionCatalog};
use crate::sweep::PruneStats;
use crate::types::Platform;

/// Integer power-substitution ratio between a low-power and a
/// high-performance platform.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SubstitutionRatio {
    /// Low-power nodes gained per high-performance node removed.
    pub low_per_high: u32,
}

impl SubstitutionRatio {
    /// Derive the ratio from effective peak powers (node + amortized
    /// infrastructure), truncating to the integer number of low-power nodes
    /// that fit in one high-performance node's envelope.
    pub fn derive(high: &Platform, low: &Platform) -> Result<Self> {
        let hw = high.effective_peak_power_w();
        let lw = low.effective_peak_power_w();
        if !(hw > 0.0) || !(lw > 0.0) {
            return Err(Error::InvalidInput(
                "platforms must have positive peak power".into(),
            ));
        }
        let ratio = (hw / lw).floor();
        if ratio < 1.0 {
            return Err(Error::InvalidInput(format!(
                "`{}` ({hw} W) is not bigger than `{}` ({lw} W)",
                high.name, low.name
            )));
        }
        Ok(Self {
            low_per_high: ratio as u32,
        })
    }
}

/// One rung of the substitution ladder: a `(low, high)` node-count mix at
/// (approximately) constant peak power.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BudgetMix {
    /// Number of low-power nodes.
    pub low_nodes: u32,
    /// Number of high-performance nodes.
    pub high_nodes: u32,
}

impl BudgetMix {
    /// Peak power of the mix in watts (effective peaks).
    #[must_use]
    pub fn peak_power_w(&self, low: &Platform, high: &Platform) -> f64 {
        f64::from(self.low_nodes) * low.effective_peak_power_w()
            + f64::from(self.high_nodes) * high.effective_peak_power_w()
    }

    /// The node cap of each side, `[low, high]`, with a zero side left out
    /// (`None`). A mix of no nodes at all spans one high node.
    #[must_use]
    pub fn caps(&self) -> [Option<u32>; 2] {
        match (self.low_nodes, self.high_nodes) {
            (0, high) => [None, Some(high.max(1))],
            (low, 0) => [Some(low), None],
            (low, high) => [Some(low), Some(high)],
        }
    }

    /// The configuration space this mix spans: up to `low_nodes` low-power
    /// and `high_nodes` high-performance nodes with all their core/
    /// frequency knobs, over the sides of [`Self::caps`]. Type order:
    /// `[low, high]`.
    #[must_use]
    pub fn config_space(&self, low: &Platform, high: &Platform) -> ConfigSpace {
        let types = [low, high]
            .into_iter()
            .zip(self.caps())
            .filter_map(|(platform, cap)| {
                Some(TypeBounds {
                    platform: platform.clone(),
                    max_nodes: cap?,
                })
            })
            .collect();
        ConfigSpace::new(types)
    }

    /// Energy–deadline Pareto frontier of this mix for one workload, via
    /// the streaming pruned sweep — the path every substitution-ladder and
    /// cluster-scaling rung goes through. `models` is the `[low, high]`
    /// pair by position, as in [`Self::catalog_frontier`]; a dropped zero
    /// side's model goes unused, and anything but two models is an error.
    pub fn frontier(
        &self,
        low: &Platform,
        high: &Platform,
        models: &[WorkloadModel],
        w_units: f64,
    ) -> Result<(ParetoFrontier, PruneStats)> {
        if models.len() != 2 {
            return Err(Error::InvalidInput(format!(
                "a mix needs its [low, high] model pair, got {} models",
                models.len()
            )));
        }
        let space_models: Vec<WorkloadModel> = models
            .iter()
            .zip(self.caps())
            .filter_map(|(model, cap)| cap.map(|_| model.clone()))
            .collect();
        stream_frontier_pruned(&self.config_space(low, high), &space_models, w_units)
    }

    /// [`Self::frontier`] with the mix's pruned table sliced from
    /// `catalog`, whose types are this mix's `[low, high]` by position, so
    /// no model is evaluated or matched by name.
    pub fn catalog_frontier(
        &self,
        catalog: &OptionCatalog,
        w_units: f64,
    ) -> Result<(ParetoFrontier, PruneStats)> {
        validate_work(w_units)?;
        fold_pruned(&catalog.pruned(&self.caps())?, w_units)
    }

    /// Human-readable label in the paper's style, e.g. `ARM 16:AMD 14`.
    #[must_use]
    pub fn label(&self, low: &Platform, high: &Platform) -> String {
        let lname = low.name.split_whitespace().next().unwrap_or(&low.name);
        let hname = high.name.split_whitespace().next().unwrap_or(&high.name);
        format!("{lname} {}:{hname} {}", self.low_nodes, self.high_nodes)
    }
}

/// A peak-power budget in watts.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PowerBudget {
    /// Budget in watts.
    pub watts: f64,
}

impl PowerBudget {
    /// A budget of `watts`.
    #[must_use]
    pub fn new(watts: f64) -> Self {
        Self { watts }
    }

    /// Maximum number of `platform` nodes that fit in the budget.
    #[must_use]
    pub fn max_nodes(&self, platform: &Platform) -> u32 {
        (self.watts / platform.effective_peak_power_w()).floor() as u32
    }

    /// The substitution ladder (§IV-C): starting from the all-high mix that
    /// fills the budget, repeatedly replace `step_high` high nodes with
    /// `step_high × ratio` low nodes, ending at the all-low mix.
    ///
    /// With the reference platforms, 1 kW and `step_high = 2` this yields
    /// the paper's Fig. 6/7 series `(0,16) (16,14) (32,12) (48,10) … (128,0)`
    /// — the paper plots a subset of rungs; all rungs are generated and the
    /// experiment harness selects the published ones.
    pub fn substitution_ladder(
        &self,
        low: &Platform,
        high: &Platform,
        step_high: u32,
    ) -> Result<Vec<BudgetMix>> {
        if step_high == 0 {
            return Err(Error::InvalidInput("step_high must be >= 1".into()));
        }
        if !(self.watts > 0.0) || !self.watts.is_finite() {
            // A NaN budget would silently floor to zero nodes; reject it
            // with a typed error instead (the CLI accepts `--budget`).
            return Err(Error::InvalidInput(format!(
                "power budget must be finite and positive, got {} W",
                self.watts
            )));
        }
        let ratio = SubstitutionRatio::derive(high, low)?;
        let max_high = self.max_nodes(high);
        if max_high == 0 {
            return Err(Error::InvalidInput(format!(
                "budget {} W does not fit a single `{}` node",
                self.watts, high.name
            )));
        }
        // The all-low rung has the most low nodes; if its count fits, every
        // rung's does.
        if max_high.checked_mul(ratio.low_per_high).is_none() {
            return Err(Error::InvalidInput(format!(
                "budget {} W fits {max_high} `{}` nodes, and {} `{}` nodes each \
                 overflow the node count",
                self.watts, high.name, ratio.low_per_high, low.name
            )));
        }
        let mut mixes = Vec::new();
        let mut high_nodes = max_high;
        loop {
            let low_nodes = (max_high - high_nodes) * ratio.low_per_high;
            mixes.push(BudgetMix {
                low_nodes,
                high_nodes,
            });
            if high_nodes == 0 {
                break;
            }
            high_nodes = high_nodes.saturating_sub(step_high);
        }
        Ok(mixes)
    }
}

/// The §IV-D cluster-size sweep: mixes with a constant low:high ratio and
/// geometrically growing size, e.g. `8:1, 16:2, 32:4, 64:8, 128:16`.
#[must_use]
pub fn scaled_mixes(base_low: u32, base_high: u32, doublings: u32) -> Vec<BudgetMix> {
    (0..=doublings)
        .map(|d| BudgetMix {
            low_nodes: base_low << d,
            high_nodes: base_high << d,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn platforms() -> (Platform, Platform) {
        (Platform::reference_arm(), Platform::reference_amd())
    }

    #[test]
    fn paper_substitution_ratio() {
        let (arm, amd) = platforms();
        let r = SubstitutionRatio::derive(&amd, &arm).unwrap();
        assert_eq!(r.low_per_high, 8);
    }

    #[test]
    fn one_kw_ladder_matches_paper_series() {
        let (arm, amd) = platforms();
        let budget = PowerBudget::new(1000.0);
        assert_eq!(budget.max_nodes(&amd), 16);
        let ladder = budget.substitution_ladder(&arm, &amd, 2).unwrap();
        let pairs: Vec<(u32, u32)> = ladder.iter().map(|m| (m.low_nodes, m.high_nodes)).collect();
        // The paper's Fig. 6/7 legend is a subset of this ladder (the odd
        // (88, 5) rung needs the step-1 ladder, checked below).
        assert!(pairs.contains(&(0, 16)));
        assert!(pairs.contains(&(16, 14)));
        assert!(pairs.contains(&(32, 12)));
        assert!(pairs.contains(&(48, 10)));
        assert!(pairs.contains(&(112, 2)));
        assert!(pairs.contains(&(128, 0)));
        // Step 1 ladder also contains the (88, 5) rung.
        let fine = budget.substitution_ladder(&arm, &amd, 1).unwrap();
        let fine_pairs: Vec<(u32, u32)> =
            fine.iter().map(|m| (m.low_nodes, m.high_nodes)).collect();
        assert!(fine_pairs.contains(&(88, 5)));
    }

    #[test]
    fn huge_budgets_overflow_to_a_typed_error() {
        let (arm, amd) = platforms();
        // 1e11 W fits 1.67e9 AMD nodes; substituting all of them would need
        // 1.3e10 ARM nodes, past `u32`. No rung may wrap.
        for step in [1, 2, 64] {
            assert!(matches!(
                PowerBudget::new(1e11).substitution_ladder(&arm, &amd, step),
                Err(Error::InvalidInput(_))
            ));
        }
        // 1 kW still gives the paper's step-2 ladder, rung for rung.
        let pairs: Vec<(u32, u32)> = PowerBudget::new(1000.0)
            .substitution_ladder(&arm, &amd, 2)
            .unwrap()
            .iter()
            .map(|m| (m.low_nodes, m.high_nodes))
            .collect();
        assert_eq!(
            pairs,
            vec![
                (0, 16),
                (16, 14),
                (32, 12),
                (48, 10),
                (64, 8),
                (80, 6),
                (96, 4),
                (112, 2),
                (128, 0)
            ]
        );
    }

    #[test]
    fn ladder_preserves_peak_power() {
        let (arm, amd) = platforms();
        let budget = PowerBudget::new(1000.0);
        for mix in budget.substitution_ladder(&arm, &amd, 1).unwrap() {
            let p = mix.peak_power_w(&arm, &amd);
            assert!(
                p <= 1000.0 + 1e-9,
                "mix {:?} exceeds budget: {p} W",
                (mix.low_nodes, mix.high_nodes)
            );
            // Substitution keeps every rung at the full-budget envelope
            // (16 AMD × 60 W = 960 W for the reference platforms).
            assert!((p - 960.0).abs() < 1e-9);
        }
    }

    #[test]
    fn mix_config_space_drops_zero_sides() {
        let (arm, amd) = platforms();
        let all_amd = BudgetMix {
            low_nodes: 0,
            high_nodes: 4,
        };
        let space = all_amd.config_space(&arm, &amd);
        assert_eq!(space.types.len(), 1);
        assert_eq!(space.types[0].platform.name, "AMD K10");

        let mixed = BudgetMix {
            low_nodes: 8,
            high_nodes: 1,
        };
        let space = mixed.config_space(&arm, &amd);
        assert_eq!(space.types.len(), 2);
        assert_eq!(space.types[0].max_nodes, 8);
        assert_eq!(space.types[1].max_nodes, 1);
    }

    #[test]
    fn labels_follow_paper_style() {
        let (arm, amd) = platforms();
        let mix = BudgetMix {
            low_nodes: 16,
            high_nodes: 14,
        };
        assert_eq!(mix.label(&arm, &amd), "ARM 16:AMD 14");
    }

    #[test]
    fn scaled_mixes_double() {
        let mixes = scaled_mixes(8, 1, 4);
        let pairs: Vec<(u32, u32)> = mixes.iter().map(|m| (m.low_nodes, m.high_nodes)).collect();
        assert_eq!(pairs, vec![(8, 1), (16, 2), (32, 4), (64, 8), (128, 16)]);
    }

    #[test]
    fn mix_frontier_streams_the_pruned_space() {
        use crate::profile::WorkloadModel;

        let (arm, amd) = platforms();
        // Models are the `[low, high]` pair, by position.
        let models = vec![
            WorkloadModel::synthetic_cpu_bound(&arm, "ep", 60.0),
            WorkloadModel::synthetic_cpu_bound(&amd, "ep", 40.0),
        ];
        let mix = BudgetMix {
            low_nodes: 4,
            high_nodes: 3,
        };
        let (frontier, stats) = mix.frontier(&arm, &amd, &models, 1e6).unwrap();
        assert!(!frontier.is_empty());
        assert!(stats.evaluated_configs < stats.full_space);
        // A zero side drops its type, and its model goes unused.
        let arm_only = BudgetMix {
            low_nodes: 4,
            high_nodes: 0,
        };
        let (f, _) = arm_only.frontier(&arm, &amd, &models, 1e6).unwrap();
        assert!(f.points.iter().all(|p| p.config.types_used() == 1));
        // A missing model is an error, not a panic.
        assert!(mix.frontier(&arm, &amd, &models[..1], 1e6).is_err());
    }

    #[test]
    fn mix_frontier_takes_models_by_position_not_name() {
        use crate::pareto::ParetoFrontier;
        use crate::profile::WorkloadModel;

        fn bits(f: &ParetoFrontier) -> Vec<(u64, u64, String)> {
            f.points
                .iter()
                .map(|p| {
                    (
                        p.time_s.to_bits(),
                        p.energy_j.to_bits(),
                        format!("{:?}", p.config),
                    )
                })
                .collect()
        }
        let (arm, amd) = platforms();
        let models = [
            WorkloadModel::synthetic_cpu_bound(&arm, "ep", 60.0),
            WorkloadModel::synthetic_cpu_bound(&amd, "ep", 40.0),
        ];
        // The same pair, with both platforms under one name.
        let renamed: Vec<WorkloadModel> = models
            .iter()
            .map(|m| {
                let mut m = m.clone();
                m.platform.name = "twin".to_owned();
                m
            })
            .collect();
        let (twin_low, twin_high) = (&renamed[0].platform, &renamed[1].platform);
        for (low_nodes, high_nodes) in [(4, 3), (4, 0), (0, 3)] {
            let mix = BudgetMix {
                low_nodes,
                high_nodes,
            };
            let (want, _) = mix.frontier(&arm, &amd, &models, 1e6).unwrap();
            let (got, _) = mix.frontier(twin_low, twin_high, &renamed, 1e6).unwrap();
            assert_eq!(bits(&got), bits(&want), "mix {low_nodes}:{high_nodes}");
        }
        let mix = BudgetMix {
            low_nodes: 4,
            high_nodes: 3,
        };
        let three = [models[0].clone(), models[1].clone(), models[1].clone()];
        assert!(mix.frontier(&arm, &amd, &three, 1e6).is_err());
    }

    #[test]
    fn degenerate_budgets_rejected() {
        let (arm, amd) = platforms();
        let tiny = PowerBudget::new(10.0);
        assert!(tiny.substitution_ladder(&arm, &amd, 1).is_err());
        let budget = PowerBudget::new(1000.0);
        assert!(budget.substitution_ladder(&arm, &amd, 0).is_err());
        // Non-finite and non-positive budgets are typed errors, not a
        // silent zero-node ladder.
        for watts in [f64::NAN, f64::INFINITY, -100.0, 0.0] {
            assert!(matches!(
                PowerBudget::new(watts).substitution_ladder(&arm, &amd, 1),
                Err(Error::InvalidInput(_))
            ));
        }
        // Substituting the wrong way round fails.
        assert!(SubstitutionRatio::derive(&arm, &amd).is_err());
    }
}
