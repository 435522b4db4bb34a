//! Fuzz-driver acceptance (ISSUE 4): a deliberately injected model
//! perturbation must be caught by the seeded fuzz loop and shrunk to the
//! minimal reproducing configuration, emitted as a one-line JSON
//! reproducer.

use hecmix_check::fuzz::{fuzz_with, FuzzConfig, Perturbation};
use hecmix_check::reference_scenario;
use hecmix_core::config::ClusterPoint;
use hecmix_core::mix_match::ClusterOutcome;

#[test]
fn injected_perturbation_is_caught_and_shrunk_to_minimal_config() {
    let (space, models, _) = reference_scenario();
    // Synthetic bug: whenever type 0 runs on at least two nodes, its share
    // is inflated by 1 % after the split — work-share conservation breaks.
    let bug = |point: &ClusterPoint, _w: f64, out: &mut ClusterOutcome| {
        if point.per_type[0].is_some_and(|c| c.nodes >= 2) {
            out.shares[0] *= 1.01;
        }
    };
    let perturb: Perturbation = &bug;

    let d = fuzz_with(&space, &models, &FuzzConfig::default(), Some(perturb))
        .expect("the injected bug must be caught within the default iteration budget");
    assert_eq!(d.check, "share-conservation", "detail: {}", d.detail);

    // Shrinking must land on the *boundary* of the bug's trigger
    // condition: two nodes (one no longer fails), one core, the lowest
    // P-state, the second type dropped, and a unit job.
    let cfg = d.point.per_type[0].expect("type 0 must survive shrinking");
    assert_eq!(cfg.nodes, 2, "nodes not minimal: {:?}", d.point);
    assert_eq!(cfg.cores, 1, "cores not minimal: {:?}", d.point);
    assert_eq!(
        cfg.freq, space.types[0].platform.freqs[0],
        "frequency not minimal: {:?}",
        d.point
    );
    assert_eq!(
        d.point.per_type[1], None,
        "type 1 not dropped: {:?}",
        d.point
    );
    assert_eq!(d.w_units, 1.0, "job size not minimal");

    let json = d.to_json(42);
    assert!(json.contains("\"check\":\"share-conservation\""), "{json}");
    assert!(json.contains("\"nodes\":2"), "{json}");
    assert!(json.contains("\"w_units\":1"), "{json}");
    assert!(!json.contains('\n'), "reproducer must be one line: {json}");
}

#[test]
fn clean_models_survive_a_long_fuzz_run() {
    let (space, models, _) = reference_scenario();
    let cfg = FuzzConfig {
        seed: 7,
        iters: 500,
    };
    assert!(
        fuzz_with(&space, &models, &cfg, None).is_none(),
        "unperturbed models must satisfy every law"
    );
}
