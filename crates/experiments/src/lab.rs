//! The virtual laboratory: the two node archetypes plus cached
//! characterizations.
//!
//! The paper does its baseline measurements once per (workload, node type)
//! pair on one physical node of each type (§II-D, §III-A); `Lab` does the
//! same against the simulator and memoizes the resulting model inputs so
//! every experiment shares one characterization, exactly like the paper's
//! workflow.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;

use hecmix_core::profile::WorkloadModel;
use hecmix_core::types::Platform;
use hecmix_profile::{characterize_node, characterize_pair};
use hecmix_sim::{reference_a15_arch, reference_amd_arch, reference_arm_arch, NodeArch};
use hecmix_workloads::Workload;

/// The experiment laboratory.
pub struct Lab {
    /// Low-power archetype (ARM Cortex-A9).
    pub arm: NodeArch,
    /// High-performance archetype (AMD K10).
    pub amd: NodeArch,
    seed: u64,
    cache: Mutex<HashMap<String, Arc<Vec<WorkloadModel>>>>,
}

impl Lab {
    /// A lab over the reference testbed with the default seed.
    #[must_use]
    pub fn new() -> Self {
        Self::with_seed(0x1CC9_2014)
    }

    /// A lab with an explicit noise seed (repeated "lab sessions").
    #[must_use]
    pub fn with_seed(seed: u64) -> Self {
        Self::with_arches(reference_arm_arch(), reference_amd_arch(), seed)
    }

    /// A lab over custom archetypes — used by the sensitivity study to
    /// perturb the hidden hardware constants.
    #[must_use]
    pub fn with_arches(arm: NodeArch, amd: NodeArch, seed: u64) -> Self {
        Self {
            arm,
            amd,
            seed,
            cache: Mutex::new(HashMap::new()),
        }
    }

    /// The third node type of the extension study (§II-A's "generic mix"):
    /// an ARM Cortex-A15.
    #[must_use]
    pub fn a15(&self) -> NodeArch {
        reference_a15_arch()
    }

    /// Measurement bundles for the three-type extension, in
    /// `[A9, A15, AMD]` order. Not cached (the three-way study runs once).
    #[must_use]
    pub fn models3(&self, workload: &dyn Workload) -> Vec<WorkloadModel> {
        let trace = workload.trace();
        vec![
            characterize_node(&self.arm, &trace, self.seed),
            characterize_node(&self.a15(), &trace, self.seed ^ 0xA15),
            characterize_node(&self.amd, &trace, self.seed ^ 0xA11A),
        ]
    }

    /// The measurement bundles for a workload, `[ARM, AMD]` order,
    /// characterized once and cached.
    #[must_use]
    pub fn models(&self, workload: &dyn Workload) -> Arc<Vec<WorkloadModel>> {
        let key = workload.name().to_owned();
        if let Some(hit) = self.cache.lock().get(&key) {
            return Arc::clone(hit);
        }
        // Characterize outside the lock: runs take real time.
        let models = Arc::new(characterize_pair(
            &self.arm,
            &self.amd,
            &workload.trace(),
            self.seed,
        ));
        self.cache
            .lock()
            .entry(key)
            .or_insert_with(|| Arc::clone(&models));
        models
    }

    /// Platforms in `[ARM, AMD]` order (the order `models` uses).
    #[must_use]
    pub fn platforms(&self) -> [Platform; 2] {
        [self.arm.platform.clone(), self.amd.platform.clone()]
    }

    /// The lab seed.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Manifest lines `"<workload>-<platform>:<16-hex-fnv1a>"` for every
    /// model characterized so far, sorted. Feeds the reproducibility
    /// sidecars so an artifact records exactly which model contents
    /// produced it.
    #[must_use]
    pub fn model_hash_lines(&self) -> Vec<String> {
        let cache = self.cache.lock();
        let mut lines: Vec<String> = cache
            .iter()
            .flat_map(|(name, models)| {
                models.iter().map(move |m| {
                    let stem = hecmix_core::persist::bundle_stem(name, &m.platform);
                    format!("{stem}:{:016x}", m.content_hash())
                })
            })
            .collect();
        lines.sort();
        lines
    }
}

impl Default for Lab {
    fn default() -> Self {
        Self::new()
    }
}

/// Table 1 of the paper, rendered as rows of `(field, AMD, ARM)`.
#[must_use]
pub fn table1_rows(lab: &Lab) -> Vec<(String, String, String)> {
    let amd = &lab.amd.platform;
    let arm = &lab.arm.platform;
    let freq_range = |p: &Platform| format!("{:.1}–{:.1} GHz", p.fmin().ghz(), p.fmax().ghz());
    vec![
        ("ISA".into(), amd.isa.clone(), arm.isa.clone()),
        (
            "Cores/node".into(),
            amd.cores.to_string(),
            arm.cores.to_string(),
        ),
        ("Clock Freq".into(), freq_range(amd), freq_range(arm)),
        (
            "I/O bandwidth".into(),
            format!("{:.0} Mbps", amd.io_bandwidth_bps / 1e6),
            format!("{:.0} Mbps", arm.io_bandwidth_bps / 1e6),
        ),
        (
            "Peak power".into(),
            format!("{:.0} W", amd.peak_power_w),
            format!("{:.0} W", arm.peak_power_w),
        ),
        (
            "Idle power".into(),
            format!("{:.0} W", amd.idle_power_w),
            format!("{:.1} W", arm.idle_power_w),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use hecmix_workloads::ep::Ep;

    #[test]
    fn models_cached_and_ordered() {
        let lab = Lab::new();
        let ep = Ep::class_a();
        let a = lab.models(&ep);
        let b = lab.models(&ep);
        assert!(Arc::ptr_eq(&a, &b), "second lookup must hit the cache");
        assert_eq!(a.len(), 2);
        assert_eq!(a[0].platform.name, "ARM Cortex-A9");
        assert_eq!(a[1].platform.name, "AMD K10");
    }

    #[test]
    fn reference_lab_model_hashes_are_pinned() {
        // The bundles `hecmix serve` and perfbench load: their content
        // hashes key plan caches and gateway ring routes, so serialization
        // drift must fail here rather than silently re-key them.
        let lab = Lab::new();
        for w in hecmix_workloads::all_workloads() {
            let _ = lab.models(w.as_ref());
        }
        assert_eq!(
            lab.model_hash_lines(),
            [
                "blackscholes-cortex-a9:100eb537803722c2",
                "blackscholes-k10:391e615355c3cae1",
                "ep-cortex-a9:e352759c93a5c7d4",
                "ep-k10:ac2028910caf713d",
                "julius-cortex-a9:5898385fad68e6bb",
                "julius-k10:78483ea56b9dcd28",
                "memcached-cortex-a9:f8b8a5c508a28292",
                "memcached-k10:cdaf521aff29cfaf",
                "rsa-2048-cortex-a9:6db1e2b91f3642e8",
                "rsa-2048-k10:88e84238bbf27b07",
                "x264-cortex-a9:221e7ce1548262b6",
                "x264-k10:b35b96a41c163b76",
            ]
        );
    }

    #[test]
    fn table1_shape() {
        let lab = Lab::new();
        let rows = table1_rows(&lab);
        assert_eq!(rows.len(), 6);
        assert_eq!(rows[0].1, "x86_64");
        assert_eq!(rows[0].2, "ARMv7-A");
        assert!(rows[2].1.contains("0.8–2.1"));
    }
}
