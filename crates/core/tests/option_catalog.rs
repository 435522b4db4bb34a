//! Property tests: every table cut from an `OptionCatalog` is bit for bit
//! the table the one-shot constructors build over the capped space.
//!
//! Catalogs span 1–3 types over lifted two-point and synthetic-ladder
//! models, CPU- and I/O-bound, some with an instruction demand so small
//! that their larger options fail to evaluate. Caps are drawn at or below
//! the catalog's, with 0 and left-out types allowed, so slices hit empty
//! spaces and recorded failures as well as ordinary prefixes.

use proptest::collection::vec;
use proptest::prelude::*;

use hecmix_core::budget::BudgetMix;
use hecmix_core::config::{ConfigSpace, TypeBounds};
use hecmix_core::dvfs::{ladder_options, NodeDvfs};
use hecmix_core::pareto::ParetoFrontier;
use hecmix_core::profile::WorkloadModel;
use hecmix_core::rate_table::{OptionCatalog, RateTable};
use hecmix_core::resilience::{ResilientTable, TypeRate};
use hecmix_core::sweep::PruneStats;
use hecmix_core::types::Platform;
use hecmix_core::{Error, Result};

/// How one type of a drawn catalog is modelled.
#[derive(Debug, Clone, Copy)]
struct TypeDraw {
    /// AMD K10 instead of ARM Cortex-A9.
    amd: bool,
    /// A synthetic OPP ladder instead of the lifted P-states.
    ladder: bool,
    /// I/O-bound instead of CPU-bound.
    io_bound: bool,
    /// Instructions per work unit, or `None` for a CPU-bound demand of
    /// `tiny · 1e-297`: so small that every option from a few nodes on (2
    /// to 42 ARM nodes, 1 to 19 AMD nodes) runs in zero time and fails
    /// with an infinite rate.
    i_ps: Option<f64>,
    tiny: f64,
}

fn type_draw() -> impl Strategy<Value = TypeDraw> {
    (
        (any::<bool>(), any::<bool>(), any::<bool>()),
        proptest::option::of(20.0f64..200.0),
        0.05f64..1.0,
    )
        .prop_map(|((amd, ladder, io_bound), i_ps, tiny)| TypeDraw {
            amd,
            ladder,
            io_bound,
            i_ps,
            tiny,
        })
}

fn model(d: TypeDraw) -> WorkloadModel {
    let platform = if d.amd {
        Platform::reference_amd()
    } else {
        Platform::reference_arm()
    };
    let mut m = match d.i_ps {
        Some(i_ps) if d.io_bound => WorkloadModel::synthetic_io_bound(&platform, "kv", i_ps, 512.0),
        Some(i_ps) => WorkloadModel::synthetic_cpu_bound(&platform, "ep", i_ps),
        None => {
            let mut m = WorkloadModel::synthetic_cpu_bound(&platform, "ep", 60.0);
            m.profile.i_ps = d.tiny * 1e-297;
            m
        }
    };
    if d.ladder {
        let dvfs = NodeDvfs::synthetic_ladder(&m.power, platform.cores, 0.1);
        m = m.with_dvfs(dvfs);
    }
    m
}

fn space(models: &[WorkloadModel], caps: &[u32]) -> ConfigSpace {
    ConfigSpace::new(
        models
            .iter()
            .zip(caps)
            .map(|(m, &max_nodes)| TypeBounds {
                platform: m.platform.clone(),
                max_nodes,
            })
            .collect(),
    )
}

/// A catalog's models and caps, and a slice's caps: each at most the
/// catalog's, `None` leaving the type out.
type Draw = (Vec<WorkloadModel>, Vec<u32>, Vec<Option<u32>>);

fn catalog_and_slice(max_cap: u32) -> impl Strategy<Value = Draw> {
    (
        1usize..=3,
        vec((type_draw(), 1..=max_cap, 0.0f64..1.0, 0u32..8), 3),
    )
        .prop_map(|(ntypes, raw)| {
            let raw = &raw[..ntypes];
            let models = raw.iter().map(|r| model(r.0)).collect();
            let caps = raw.iter().map(|r| r.1).collect();
            let slice = raw
                .iter()
                .map(|&(_, cap, frac, pick)| {
                    // One in eight types left out, one in eight at 0.
                    match pick {
                        0 => None,
                        1 => Some(0),
                        _ => Some((frac * f64::from(cap + 1)) as u32),
                    }
                })
                .collect();
            (models, caps, slice)
        })
}

/// Everything a table is: per type, each option's knobs, OPP index and
/// rate and power bits in table order, plus its prune statistics.
type Fingerprint = (Vec<Vec<OptionBits>>, PruneStats);

fn fingerprint(table: Result<RateTable>) -> Result<Fingerprint> {
    table.map(|t| {
        let options = t
            .options()
            .iter()
            .map(|opts| {
                opts.iter()
                    .map(|o| {
                        (
                            o.cfg.nodes,
                            o.cfg.cores,
                            o.cfg.freq.hz().to_bits(),
                            o.opp,
                            o.rate.to_bits(),
                            o.power_w.to_bits(),
                        )
                    })
                    .collect()
            })
            .collect();
        (options, t.prune_stats())
    })
}

/// One option's fingerprint entry.
type OptionBits = (u32, u32, u64, usize, u64, u64);

/// The table of `slice` worked out option by option, without a catalog:
/// the capped space's emptiness first, then each kept type's options in
/// ladder order through their own lone runs until the first that fails.
/// Pruning is a stable sort by `(rate desc, power asc)` keeping each
/// option that strictly beats every earlier power.
fn reference(models: &[WorkloadModel], slice: &[Option<u32>], pruned: bool) -> Result<Fingerprint> {
    let (sub, kept) = capped(models, slice);
    if sub.types.is_empty() || sub.count() == 0 {
        return Err(Error::InvalidInput(
            "configuration space is empty (no node types or no deployable options)".into(),
        ));
    }
    let mut per_type: Vec<Vec<OptionBits>> = Vec::new();
    for (bounds, m) in sub.types.iter().zip(&kept) {
        let mut opts = Vec::new();
        for (cfg, opp) in ladder_options(bounds, &m.dvfs.ladder) {
            let lone = TypeRate::from_model(m, &cfg)?;
            opts.push((
                cfg.nodes,
                cfg.cores,
                cfg.freq.hz().to_bits(),
                opp,
                lone.rate.to_bits(),
                lone.power_w.to_bits(),
            ));
        }
        per_type.push(opts);
    }
    let radices = |t: &[Vec<OptionBits>]| t.iter().map(|o| o.len() + 1).collect::<Vec<_>>();
    let full = radices(&per_type);
    if pruned {
        for opts in &mut per_type {
            let key = |o: &OptionBits| (f64::from_bits(o.4), f64::from_bits(o.5));
            opts.sort_by(|a, b| {
                let ((ra, ba), (rb, bb)) = (key(a), key(b));
                rb.total_cmp(&ra).then(ba.total_cmp(&bb))
            });
            let mut best = f64::INFINITY;
            opts.retain(|o| {
                let keep = key(o).1 < best;
                best = best.min(key(o).1);
                keep
            });
        }
    }
    let kept_radices = radices(&per_type);
    let configs = |r: &[usize]| r.iter().map(|&r| r as u64).product::<u64>() - 1;
    let stats = PruneStats {
        total_options: full.iter().sum(),
        kept_options: kept_radices.iter().sum(),
        evaluated_configs: configs(&kept_radices),
        full_space: configs(&full),
    };
    Ok((per_type, stats))
}

fn frontier_bits(frontier: &ParetoFrontier) -> Vec<(u64, u64, String)> {
    frontier
        .points
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

/// The one-shot constructors' view of a slice: the space of the kept
/// types at their caps, with their models.
fn capped(models: &[WorkloadModel], slice: &[Option<u32>]) -> (ConfigSpace, Vec<WorkloadModel>) {
    let (kept, caps): (Vec<WorkloadModel>, Vec<u32>) = models
        .iter()
        .zip(slice)
        .filter_map(|(m, cap)| Some((m.clone(), (*cap)?)))
        .unzip();
    (space(&kept, &caps), kept)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The full and pruned slices equal `RateTable::build` and
    /// `RateTable::build_pruned` on the capped space, errors included, and
    /// both equal the table worked out option by option.
    #[test]
    fn slices_equal_fresh_builds((models, caps, slice) in catalog_and_slice(64)) {
        let catalog = OptionCatalog::build(&space(&models, &caps), &models).unwrap();
        let (sub, kept) = capped(&models, &slice);
        let full = reference(&models, &slice, false);
        prop_assert_eq!(&fingerprint(catalog.full(&slice)), &full);
        prop_assert_eq!(&fingerprint(RateTable::build(&sub, &kept)), &full);
        let pruned = reference(&models, &slice, true);
        prop_assert_eq!(&fingerprint(catalog.pruned(&slice)), &pruned);
        prop_assert_eq!(&fingerprint(RateTable::build_pruned(&sub, &kept)), &pruned);
        // The catalog at its own caps is the one-shot table itself.
        let own: Vec<Option<u32>> = caps.iter().copied().map(Some).collect();
        prop_assert_eq!(
            fingerprint(catalog.pruned(&catalog.caps())),
            reference(&models, &own, true)
        );
    }

    /// A resilient table cut from a catalog folds to the same k-degraded
    /// frontiers as `ResilientTable::build`.
    #[test]
    fn resilient_slices_match_fresh_builds((models, caps, slice) in catalog_and_slice(3)) {
        let catalog = OptionCatalog::build(&space(&models, &caps), &models).unwrap();
        let (sub, kept) = capped(&models, &slice);
        let (ours, fresh) = (
            ResilientTable::from_catalog(&catalog, &slice),
            ResilientTable::build(&sub, &kept),
        );
        prop_assert_eq!(
            fingerprint(ours.as_ref().map(|t| t.table().clone()).map_err(Clone::clone)),
            fingerprint(fresh.as_ref().map(|t| t.table().clone()).map_err(Clone::clone))
        );
        if let (Ok(ours), Ok(fresh)) = (ours, fresh) {
            for k in [1, 2] {
                prop_assert_eq!(
                    frontier_bits(&ours.frontier(2e6, k).unwrap()),
                    frontier_bits(&fresh.frontier(2e6, k).unwrap())
                );
            }
        }
    }

    /// Each `/whatif` rung, one-sided ones included, gets from a
    /// `[low, high]` catalog the table and frontier `BudgetMix::frontier`
    /// builds today.
    #[test]
    fn rungs_match_budget_mix_frontiers(
        (low, high) in (type_draw(), type_draw()),
        (cap_low, cap_high) in (1u32..=24, 1u32..=12),
        (take_low, take_high) in (0.0f64..1.0, 0.0f64..1.0),
    ) {
        let low = model(TypeDraw { amd: false, ..low });
        let high = model(TypeDraw { amd: true, ..high });
        let (arm, amd) = (low.platform.clone(), high.platform.clone());
        let models = vec![low, high];
        let catalog = OptionCatalog::build(&space(&models, &[cap_low, cap_high]), &models).unwrap();
        // Each side is 0 about a quarter of the time.
        let nodes = |take: f64, cap: u32| ((take * 1.33 - 0.33).max(0.0) * f64::from(cap)) as u32;
        let mix = BudgetMix {
            low_nodes: nodes(take_low, cap_low),
            high_nodes: nodes(take_high, cap_high),
        };
        // A rung's space drops a zero side, and a mix of no nodes spans
        // one high node.
        let rung = match (mix.low_nodes, mix.high_nodes) {
            (0, high) => [None, Some(high.max(1))],
            (low, 0) => [Some(low), None],
            (low, high) => [Some(low), Some(high)],
        };
        prop_assert_eq!(mix.config_space(&arm, &amd), capped(&models, &rung).0);
        prop_assert_eq!(
            fingerprint(catalog.pruned(&mix.caps())),
            reference(&models, &rung, true)
        );
        let ours = mix.catalog_frontier(&catalog, 2e6);
        let fresh = mix.frontier(&arm, &amd, &models, 2e6);
        match (ours, fresh) {
            (Ok((a, sa)), Ok((b, sb))) => {
                prop_assert_eq!(sa, sb);
                prop_assert_eq!(frontier_bits(&a), frontier_bits(&b));
            }
            (a, b) => prop_assert_eq!(a.err(), b.err()),
        }
    }
}
