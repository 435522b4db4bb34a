//! Pins the daemon's pruned catalog slices to the one-shot pruned build.
//!
//! For each of the six `Lab` bundles, every node cap `n` in `0..=512` on
//! both sides, and a few one-sided caps, the entry's
//! `catalog()?.pruned(caps)` must equal `RateTable::build_pruned` over the
//! capped space: the same options in the same order, with the same knobs,
//! OPP index, and rate and power bits, the same prune statistics, and the
//! same errors. The catalog slice walks its prefix-dominance index; the
//! one-shot build prunes its one prefix directly.

use hecmix_core::config::{ConfigSpace, TypeBounds};
use hecmix_core::profile::WorkloadModel;
use hecmix_core::rate_table::RateTable;
use hecmix_core::sweep::PruneStats;
use hecmix_experiments::Lab;
use hecmix_serve::ModelStore;

/// One option: node count, cores, frequency bits, OPP index, rate bits and
/// power bits.
type OptionBits = (u32, u32, u64, usize, u64, u64);

/// Everything a table is: per type, its options in table order, plus its
/// prune statistics.
type Fingerprint = (Vec<Vec<OptionBits>>, PruneStats);

fn fingerprint(table: hecmix_core::Result<RateTable>) -> hecmix_core::Result<Fingerprint> {
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

/// `RateTable::build_pruned` over the bundle's types capped at `caps`,
/// `None` leaving a type out.
fn one_shot(models: &[WorkloadModel], caps: &[Option<u32>]) -> hecmix_core::Result<RateTable> {
    let (types, kept): (Vec<TypeBounds>, Vec<WorkloadModel>) = models
        .iter()
        .zip(caps)
        .filter_map(|(m, cap)| {
            let bounds = TypeBounds {
                platform: m.platform.clone(),
                max_nodes: (*cap)?,
            };
            Some((bounds, m.clone()))
        })
        .unzip();
    RateTable::build_pruned(&ConfigSpace::new(types), &kept)
}

#[test]
fn indexed_slices_match_one_shot_pruned_builds_at_lab_scale() {
    let lab = Lab::new();
    let mut store = ModelStore::new();
    for w in hecmix_workloads::all_workloads() {
        store.insert(w.name(), lab.models(w.as_ref()).to_vec());
    }
    let names = store.names();
    assert_eq!(names.len(), 6);
    for name in &names {
        let entry = store.get(name).expect("loaded");
        let catalog = entry.catalog().expect("a Lab bundle has options");
        let both = (0..=512).map(|n| [Some(n), Some(n)]);
        let one_sided = [0, 1, 7, 41, 128, 333, 512]
            .into_iter()
            .flat_map(|n| [[Some(n), None], [None, Some(n)]]);
        for caps in both.chain(one_sided) {
            assert_eq!(
                fingerprint(catalog.pruned(&caps)),
                fingerprint(one_shot(&entry.models, &caps)),
                "{name} at caps {caps:?}"
            );
        }
    }
}
