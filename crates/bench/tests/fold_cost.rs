//! CI gate on the cost of the rate-table fold, of pruning and of slicing
//! an option catalog. Every check is a ratio between two code paths timed
//! alternately on the same machine, so runner speed cannot flap them:
//!
//! * `RateTable::frontier` (rows over columns, dominated blocks skipped
//!   whole, in-row dominance skips, hinted inserts) must take at most
//!   0.07× the per-point reference fold in `hecmix-check`, which evaluates
//!   and bisects every point;
//! * `ResilientTable::frontier` at `k = 1` on the unpruned 10 × 10 space
//!   (rows over columns, the row's degraded constants computed once per
//!   row) must take at most 0.5× the per-point degraded fold, which
//!   degrades, re-encodes and evaluates every point on its own;
//! * `RateTable::build_pruned` must take at most 1.5× `RateTable::build`
//!   on the same space: pruning may not cost more than half a build;
//! * the first pruned slice of a fresh 512 × 512 `OptionCatalog`, which
//!   also builds the catalog's prefix-dominance index, must take at most
//!   2× `build_pruned`: a daemon's first request on a model bundle may not
//!   cost much more than the one-shot build it replaces;
//! * once the catalog's prefix-dominance index is built, that pruned slice
//!   must take at most 0.3× the full slice at the same caps: it walks only
//!   the options some prefix keeps, while the full slice copies the whole
//!   prefix.
//!
//! One `#[test]` runs them in turn, so no other test times alongside them
//! on a two-core runner and reads as their noise.

use hecmix_bench::best_of;
use hecmix_check::reference::{per_point_degraded_fold, per_point_fold};
use hecmix_core::config::ConfigSpace;
use hecmix_core::profile::WorkloadModel;
use hecmix_core::rate_table::{OptionCatalog, RateTable};
use hecmix_core::resilience::ResilientTable;
use hecmix_core::types::Platform;

#[test]
fn row_fold_and_pruning_stay_cheap() {
    // The `/plan` shape at its largest caps: 512 ARM × 128 AMD nodes.
    let (arm, amd) = (Platform::reference_arm(), Platform::reference_amd());
    let models = vec![
        WorkloadModel::synthetic_cpu_bound(&arm, "gate", 40.0),
        WorkloadModel::synthetic_cpu_bound(&amd, "gate", 60.0),
    ];
    let space = ConfigSpace::two_type(arm, 512, amd, 128);

    let table = RateTable::build_pruned(&space, &models).unwrap();
    let w = 1e8;
    assert_eq!(
        table.frontier(w).unwrap().len(),
        per_point_fold(&table, w).len()
    );
    let (fold, reference) = best_of(5, || table.frontier(w), || per_point_fold(&table, w));
    assert!(
        fold.as_secs_f64() <= 0.07 * reference.as_secs_f64(),
        "the row fold took {fold:?}, the per-point fold {reference:?}"
    );

    // The `/frontier` `resilient_k` shape at its largest caps, 10 × 10,
    // whose table is unpruned.
    let (arm, amd) = (&space.types[0].platform, &space.types[1].platform);
    let small = ConfigSpace::two_type(arm.clone(), 10, amd.clone(), 10);
    let resilient = ResilientTable::build(&small, &models).unwrap();
    assert_eq!(
        resilient.frontier(w, 1).unwrap().len(),
        per_point_degraded_fold(&resilient, w, 1).len()
    );
    let (rows, points) = best_of(
        5,
        || resilient.frontier(w, 1),
        || per_point_degraded_fold(&resilient, w, 1),
    );
    assert!(
        rows.as_secs_f64() <= 0.5 * points.as_secs_f64(),
        "the k-degraded row fold took {rows:?}, the per-point degraded fold {points:?}"
    );

    let (pruned, full) = best_of(
        5,
        || RateTable::build_pruned(&space, &models),
        || RateTable::build(&space, &models),
    );
    assert!(
        pruned.as_secs_f64() <= 1.5 * full.as_secs_f64(),
        "build_pruned took {pruned:?}, build {full:?}"
    );

    let wide = ConfigSpace::two_type(arm.clone(), 512, amd.clone(), 512);
    let catalog = OptionCatalog::build(&wide, &models).unwrap();
    let caps = [Some(512), Some(128)];
    // One clone per round, taken before the index exists; cloning and
    // dropping them stay out of the timed calls.
    let mut fresh: Vec<OptionCatalog> = (0..5).map(|_| catalog.clone()).collect();
    let mut used = Vec::with_capacity(fresh.len());
    let (first, build) = best_of(
        5,
        || {
            let c = fresh.pop().unwrap();
            let slice = c.pruned(&caps);
            used.push(c);
            slice
        },
        || RateTable::build_pruned(&space, &models),
    );
    assert!(
        first.as_secs_f64() <= 2.0 * build.as_secs_f64(),
        "the first catalog slice took {first:?}, build_pruned {build:?}"
    );

    // Later pruned slices reuse the index; time only the walk.
    catalog.pruned(&caps).unwrap();
    let (walk, copy) = best_of(5, || catalog.pruned(&caps), || catalog.full(&caps));
    assert!(
        walk.as_secs_f64() <= 0.3 * copy.as_secs_f64(),
        "the indexed pruned slice took {walk:?}, the full slice {copy:?}"
    );
}
