//! Shared fixtures for the hecmix Criterion benchmarks.
//!
//! The benches map onto the paper artifacts they power:
//!
//! | bench target | exercises | paper artifact |
//! |---|---|---|
//! | `model` | Eq. 1–19 evaluation, mix-and-match solve | every figure's inner loop |
//! | `sweep` | full configuration-space sweeps + Pareto frontiers | Figs. 4–9 |
//! | `sim` | discrete-event node/cluster simulation | Tables 3–4 measurements |
//! | `workload_kernels` | the real workload computations | workload ground truth |
//! | `queueing` | M/D/1 closed forms and DES | Fig. 10 |
//! | `pipeline` | characterization → model inputs | §II-D, Figs. 2–3 |

#![warn(missing_docs)]

use std::time::{Duration, Instant};

use hecmix_core::profile::WorkloadModel;
use hecmix_profile::characterize_pair;
use hecmix_sim::{reference_amd_arch, reference_arm_arch, NodeArch};
use hecmix_workloads::Workload;

/// The two reference archetypes, `[ARM, AMD]`.
#[must_use]
pub fn arches() -> [NodeArch; 2] {
    [reference_arm_arch(), reference_amd_arch()]
}

/// Characterized model bundles for a workload, `[ARM, AMD]` order.
#[must_use]
pub fn bundles(w: &dyn Workload) -> Vec<WorkloadModel> {
    let [arm, amd] = arches();
    characterize_pair(&arm, &amd, &w.trace(), 0xBE7C)
}

/// Best-of-`n` wall times of `a` and `b`, run alternately so a slow spell
/// of the machine hits both. Min (not mean) so a noisy CI neighbour cannot
/// fail a cost gate on its own. The CI cost gates compare the two times,
/// never either one against a constant, so runner speed cannot flap them.
pub fn best_of<A, B>(
    n: usize,
    mut a: impl FnMut() -> A,
    mut b: impl FnMut() -> B,
) -> (Duration, Duration) {
    fn time<T>(f: impl FnOnce() -> T) -> Duration {
        let t0 = Instant::now();
        std::hint::black_box(f());
        t0.elapsed()
    }
    (0..n)
        .map(|_| (time(&mut a), time(&mut b)))
        .fold((Duration::MAX, Duration::MAX), |(a, b), (ta, tb)| {
            (a.min(ta), b.min(tb))
        })
}
