//! The shared heterogeneous pool: node inventory plus per-workload
//! placement options.
//!
//! A pool is `counts[t]` nodes of each platform type `t`. For every
//! workload class the scheduler needs the menu of ways one node of each
//! type can run that workload — one entry per (type, OPP) from the class's
//! ladder (a two-point model's lift has one OPP per P-state). Those menus
//! are exactly single-node rows of [`hecmix_core::rate_table::RateTable`],
//! so every `(rate, power)` pair here is bit-identical to what the offline
//! planner would compute for the same knob setting.

use hecmix_core::config::{ConfigSpace, TypeBounds};
use hecmix_core::error::{Error, Result};
use hecmix_core::profile::WorkloadModel;
use hecmix_core::rate_table::{RateOption, RateTable};
use hecmix_core::types::Platform;
use hecmix_queueing::SleepPolicy;

/// One workload class the pool can serve.
#[derive(Debug, Clone)]
pub struct WorkloadClass {
    /// Class name, resolved against trace files (e.g. `"memcached"`).
    pub name: String,
    /// Per-type models (same order as the pool's platform types).
    pub models: Vec<WorkloadModel>,
    /// Per-type single-node option menus: `options[t][k]` runs one
    /// full-cores node of type `t` at the `k`-th operating point.
    pub options: Vec<Vec<RateOption>>,
}

impl WorkloadClass {
    /// Fastest single-node rate across all types and operating points, in
    /// work units per second. Used to scale job sizes and deadlines.
    #[must_use]
    pub fn peak_rate(&self) -> f64 {
        self.options
            .iter()
            .flatten()
            .map(|o| o.rate)
            .fold(0.0, f64::max)
    }
}

/// A heterogeneous pool shared by every workload class.
#[derive(Debug, Clone)]
pub struct Pool {
    /// The platform of each node type (order fixed across all classes).
    pub platforms: Vec<Platform>,
    /// Number of nodes of each type.
    pub counts: Vec<u32>,
    /// Idle floor of one node of each type, watts.
    pub idle_w: Vec<f64>,
    /// Deep-sleep policy of one node of each type, from its model's
    /// power-domain tree. A lift's domain sleeps at the idle floor, so its
    /// gaps price at `idle_w`.
    pub sleep: Vec<SleepPolicy>,
    /// The workload classes jobs can belong to.
    pub classes: Vec<WorkloadClass>,
}

impl Pool {
    /// Build a pool from per-class model bundles and per-type node counts.
    ///
    /// Every class must carry one model per node type, all classes must
    /// agree on the platform order, and at least one node must exist. The
    /// per-class option menus are derived here, once.
    pub fn new(classes: Vec<(String, Vec<WorkloadModel>)>, counts: Vec<u32>) -> Result<Self> {
        if classes.is_empty() {
            return Err(Error::InvalidInput(
                "a pool needs at least one workload class".into(),
            ));
        }
        if counts.iter().all(|&c| c == 0) {
            return Err(Error::InvalidInput("a pool needs at least one node".into()));
        }
        let platforms: Vec<Platform> = classes[0].1.iter().map(|m| m.platform.clone()).collect();
        if platforms.len() != counts.len() {
            return Err(Error::InvalidInput(format!(
                "pool has {} node counts but models describe {} types",
                counts.len(),
                platforms.len()
            )));
        }
        let mut built = Vec::with_capacity(classes.len());
        for (name, models) in classes {
            if models.len() != platforms.len() {
                return Err(Error::InvalidInput(format!(
                    "class `{name}` has {} models, expected one per type ({})",
                    models.len(),
                    platforms.len()
                )));
            }
            for (m, p) in models.iter().zip(&platforms) {
                m.validate()?;
                if m.platform.name != p.name {
                    return Err(Error::InvalidInput(format!(
                        "class `{name}` orders platforms differently: `{}` vs `{}`",
                        m.platform.name, p.name
                    )));
                }
            }
            let options = single_node_options(&models)?;
            built.push(WorkloadClass {
                name,
                models,
                options,
            });
        }
        // Idle/sleep characterization comes from the first class; reject
        // pools whose classes disagree about the hardware floor, since
        // idle-gap pricing would otherwise depend on job mix.
        let first = &built[0];
        let idle_w: Vec<f64> = first.models.iter().map(|m| m.power.idle_w).collect();
        for c in &built[1..] {
            for (t, m) in c.models.iter().enumerate() {
                if (m.power.idle_w - idle_w[t]).abs() > 1e-9 {
                    return Err(Error::InvalidInput(format!(
                        "class `{}` disagrees with `{}` on type {t} idle power ({} vs {} W)",
                        c.name, first.name, m.power.idle_w, idle_w[t]
                    )));
                }
            }
        }
        let sleep = first
            .models
            .iter()
            .map(|m| SleepPolicy {
                sleep_power_w: m.dvfs.domain.asleep_w(),
                residency_s: m.dvfs.domain.residency_s,
            })
            .collect();
        Ok(Self {
            platforms,
            counts,
            idle_w,
            sleep,
            classes: built,
        })
    }

    /// Total number of nodes.
    #[must_use]
    pub fn nodes(&self) -> u32 {
        self.counts.iter().sum()
    }

    /// Class names in pool order, for trace resolution.
    #[must_use]
    pub fn class_names(&self) -> Vec<&str> {
        self.classes.iter().map(|c| c.name.as_str()).collect()
    }

    /// Position of a class by name.
    pub fn class_index(&self, name: &str) -> Result<usize> {
        self.classes
            .iter()
            .position(|c| c.name == name)
            .ok_or_else(|| {
                Error::InvalidInput(format!(
                    "unknown workload `{name}` (known: {})",
                    self.class_names().join(", ")
                ))
            })
    }
}

/// Single-node, full-cores option menu per type: build the rate table
/// over a `max_nodes = 1` space and keep the `nodes == 1, cores == all`
/// rows — one per OPP.
/// Partial-core options are dropped on purpose: a placed task owns its
/// node, and within a node the all-cores row dominates the menu the same
/// way it does in the paper's sweeps.
fn single_node_options(models: &[WorkloadModel]) -> Result<Vec<Vec<RateOption>>> {
    let space = ConfigSpace::new(
        models
            .iter()
            .map(|m| TypeBounds {
                platform: m.platform.clone(),
                max_nodes: 1,
            })
            .collect(),
    );
    let table = RateTable::build(&space, models)?;
    let menus: Vec<Vec<RateOption>> = table
        .options()
        .iter()
        .zip(models)
        .map(|(opts, m)| {
            opts.iter()
                .filter(|o| o.cfg.nodes == 1 && o.cfg.cores == m.platform.cores)
                .copied()
                .collect()
        })
        .collect();
    for (menu, m) in menus.iter().zip(models) {
        if menu.is_empty() {
            return Err(Error::InvalidInput(format!(
                "platform `{}` yields no single-node options",
                m.platform.name
            )));
        }
    }
    Ok(menus)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hecmix_core::dvfs::NodeDvfs;

    fn two_class_pool() -> Pool {
        let arm = Platform::reference_arm();
        let amd = Platform::reference_amd();
        let mk = |name: &str, i_arm: f64, i_amd: f64| {
            (
                name.to_owned(),
                vec![
                    WorkloadModel::synthetic_cpu_bound(&arm, name, i_arm),
                    WorkloadModel::synthetic_cpu_bound(&amd, name, i_amd),
                ],
            )
        };
        Pool::new(
            vec![mk("memcached", 60.0, 40.0), mk("julius", 30.0, 55.0)],
            vec![3, 2],
        )
        .unwrap()
    }

    #[test]
    fn menus_cover_every_operating_point_per_type() {
        let pool = two_class_pool();
        assert_eq!(pool.nodes(), 5);
        for class in &pool.classes {
            assert_eq!(class.options.len(), 2);
            for (t, menu) in class.options.iter().enumerate() {
                // Two-point models: one option per lifted P-state.
                assert_eq!(menu.len(), pool.platforms[t].freqs.len());
                for o in menu {
                    assert_eq!(o.cfg.nodes, 1);
                    assert_eq!(o.cfg.cores, pool.platforms[t].cores);
                    assert!(o.rate > 0.0 && o.power_w > 0.0);
                }
            }
            assert!(class.peak_rate() > 0.0);
        }
    }

    #[test]
    fn ladder_models_enumerate_per_opp() {
        let arm = Platform::reference_arm();
        let mut model = WorkloadModel::synthetic_cpu_bound(&arm, "ep", 60.0);
        let dvfs = NodeDvfs::synthetic_ladder(&model.power, arm.cores, 0.25);
        let opps = dvfs.ladder.len();
        model.dvfs = dvfs;
        let pool = Pool::new(vec![("ep".into(), vec![model])], vec![2]).unwrap();
        let menu = &pool.classes[0].options[0];
        assert_eq!(menu.len(), opps);
        assert!(menu.iter().enumerate().all(|(k, o)| o.opp == k));
        assert!(pool.sleep[0].sleep_power_w < pool.idle_w[0]);
    }

    #[test]
    fn rejects_inconsistent_pools() {
        let arm = Platform::reference_arm();
        let amd = Platform::reference_amd();
        let m_arm = WorkloadModel::synthetic_cpu_bound(&arm, "ep", 60.0);
        let m_amd = WorkloadModel::synthetic_cpu_bound(&amd, "ep", 40.0);
        // No classes / no nodes / count-type mismatch.
        assert!(Pool::new(vec![], vec![1]).is_err());
        assert!(Pool::new(vec![("ep".into(), vec![m_arm.clone()])], vec![0]).is_err());
        assert!(Pool::new(
            vec![("ep".into(), vec![m_arm.clone(), m_amd.clone()])],
            vec![1]
        )
        .is_err());
        // Classes disagreeing on platform order.
        assert!(Pool::new(
            vec![
                ("a".into(), vec![m_arm.clone(), m_amd.clone()]),
                ("b".into(), vec![m_amd.clone(), m_arm.clone()]),
            ],
            vec![1, 1]
        )
        .is_err());
        // Classes disagreeing on the idle floor.
        let mut warped = m_arm.clone();
        warped.power.idle_w += 1.0;
        assert!(Pool::new(
            vec![
                ("a".into(), vec![m_arm.clone(), m_amd.clone()]),
                ("b".into(), vec![warped, m_amd.clone()]),
            ],
            vec![1, 1]
        )
        .is_err());
    }

    #[test]
    fn class_lookup_by_name() {
        let pool = two_class_pool();
        assert_eq!(pool.class_index("julius").unwrap(), 1);
        assert!(pool.class_index("redis").is_err());
        assert_eq!(pool.class_names(), vec!["memcached", "julius"]);
    }
}
