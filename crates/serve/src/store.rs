//! The daemon's model inventory.
//!
//! A [`ModelStore`] maps workload names to characterization bundles —
//! `[low-power, high-performance]` pairs of [`WorkloadModel`]s, the same
//! shape every planner API in `hecmix-core` consumes. Bundles are loaded
//! from `.model` files (the `hecmix-core::persist` text format the
//! `experiments` harness writes) or inserted programmatically, and each
//! carries the FNV-1a content hash of its serialized form: the hash keys
//! the plan cache, names the bundle in `/statz`, and lands in run
//! manifests, so a silent model edit can never be mistaken for the run it
//! replaced.
//!
//! The store itself is immutable after construction; `POST /reload` swaps
//! a whole new store behind the server's `RwLock` rather than mutating in
//! place.

use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;

use hecmix_core::persist::{self, models_hash};
use hecmix_core::profile::WorkloadModel;
use hecmix_workloads::workload_by_name;

/// Platform file-name suffixes recognized by [`ModelStore::from_dir`], in
/// the `{workload}-{platform}.model` naming scheme the experiment harness
/// uses.
pub const PLATFORM_SUFFIXES: [&str; 2] = ["cortex-a9", "k10"];

/// Default job size when a workload is unknown to the registry (so a
/// hand-authored model file still serves).
const FALLBACK_UNITS: f64 = 1_000_000.0;

/// One workload's serving bundle.
#[derive(Debug)]
pub struct ModelEntry {
    /// Model pair in `[low-power, high-performance]` order (ascending
    /// effective peak power) — the order `ConfigSpace::two_type` and the
    /// split evaluators expect.
    pub models: Arc<Vec<WorkloadModel>>,
    /// Job size (`w_units`) used when a request does not specify one; the
    /// workload registry's analysis size where known.
    pub default_units: f64,
    /// Order-sensitive FNV-1a content hash of the serialized bundle.
    pub hash: u64,
}

/// Immutable map from workload name to serving bundle.
#[derive(Debug, Default)]
pub struct ModelStore {
    entries: HashMap<String, ModelEntry>,
}

impl ModelStore {
    /// An empty store.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Insert a bundle for `name`. `models` are sorted into
    /// `[low, high]` order by effective peak power; the default job size
    /// comes from the workload registry when `name` is a paper workload.
    pub fn insert(&mut self, name: &str, mut models: Vec<WorkloadModel>) {
        models.sort_by(|a, b| {
            a.platform
                .effective_peak_power_w()
                .total_cmp(&b.platform.effective_peak_power_w())
        });
        let hash = models_hash(&models);
        let default_units =
            workload_by_name(name).map_or(FALLBACK_UNITS, |w| w.analysis_units() as f64);
        self.entries.insert(
            name.to_owned(),
            ModelEntry {
                models: Arc::new(models),
                default_units,
                hash,
            },
        );
    }

    /// Load every complete `{workload}-{platform}.model` pair under `dir`.
    /// When `only` is non-empty, other workloads are skipped. Files with
    /// unrecognized platform suffixes are ignored; a workload with fewer
    /// than two platform models is an error (the planner needs a pair).
    ///
    /// # Errors
    /// I/O or parse failures, and incomplete pairs, as a human-readable
    /// message.
    pub fn from_dir(dir: &Path, only: &[String]) -> Result<Self, String> {
        let mut by_workload: HashMap<String, Vec<WorkloadModel>> = HashMap::new();
        let rd = std::fs::read_dir(dir).map_err(|e| format!("read {}: {e}", dir.display()))?;
        for dirent in rd {
            let dirent = dirent.map_err(|e| format!("read {}: {e}", dir.display()))?;
            let path = dirent.path();
            if path.extension().and_then(|e| e.to_str()) != Some("model") {
                continue;
            }
            let Some(stem) = path.file_stem().and_then(|s| s.to_str()) else {
                continue;
            };
            let Some(workload) = PLATFORM_SUFFIXES
                .iter()
                .find_map(|sfx| stem.strip_suffix(sfx).and_then(|p| p.strip_suffix('-')))
            else {
                continue;
            };
            if !only.is_empty() && !only.iter().any(|w| w == workload) {
                continue;
            }
            let model =
                persist::load(&path).map_err(|e| format!("load {}: {e}", path.display()))?;
            by_workload
                .entry(workload.to_owned())
                .or_default()
                .push(model);
        }
        let mut store = Self::new();
        for (workload, models) in by_workload {
            if models.len() < 2 {
                return Err(format!(
                    "workload `{workload}` has {} model file(s) in {}; a \
                     low/high pair is required",
                    models.len(),
                    dir.display()
                ));
            }
            store.insert(&workload, models);
        }
        Ok(store)
    }

    /// The bundle for `name`, if loaded.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<&ModelEntry> {
        self.entries.get(name)
    }

    /// Loaded workload names, sorted.
    #[must_use]
    pub fn names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.entries.keys().cloned().collect();
        names.sort();
        names
    }

    /// `"{workload}:{hash:016x}"` lines, sorted — the `/statz` and
    /// manifest rendering of the inventory.
    #[must_use]
    pub fn hashes(&self) -> Vec<String> {
        let mut out: Vec<String> = self
            .entries
            .iter()
            .map(|(name, entry)| format!("{name}:{:016x}", entry.hash))
            .collect();
        out.sort();
        out
    }

    /// Number of loaded workloads.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the store holds no workloads.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hecmix_core::types::Platform;

    fn pair() -> Vec<WorkloadModel> {
        let arm = Platform::reference_arm();
        let amd = Platform::reference_amd();
        vec![
            // Deliberately high-power first: insert() must reorder.
            WorkloadModel::synthetic_cpu_bound(&amd, "ep", 40.0),
            WorkloadModel::synthetic_cpu_bound(&arm, "ep", 60.0),
        ]
    }

    #[test]
    fn insert_orders_low_power_first_and_hashes() {
        let mut store = ModelStore::new();
        store.insert("ep", pair());
        let entry = store.get("ep").expect("entry");
        assert!(
            entry.models[0].platform.effective_peak_power_w()
                < entry.models[1].platform.effective_peak_power_w()
        );
        assert!(entry.default_units > 1.0, "ep is a registry workload");
        assert_ne!(entry.hash, 0);
        assert_eq!(store.names(), vec!["ep".to_owned()]);
        let hashes = store.hashes();
        assert_eq!(hashes.len(), 1);
        assert!(hashes[0].starts_with("ep:"), "{}", hashes[0]);
        assert_eq!(hashes[0].len(), "ep:".len() + 16);
    }

    #[test]
    fn ladder_bundles_load_and_hash_their_opp_tables() {
        use hecmix_core::dvfs::NodeDvfs;

        let mk = |sleep_frac: f64| {
            let models = pair();
            models
                .into_iter()
                .map(|m| {
                    let dvfs = NodeDvfs::synthetic_ladder(&m.power, m.platform.cores, sleep_frac);
                    m.with_dvfs(dvfs)
                })
                .collect::<Vec<_>>()
        };

        let dir = std::env::temp_dir().join(format!("hecmix-ladder-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let models = mk(0.1);
        persist::save(&models[1], &dir.join("ep-cortex-a9.model")).expect("save arm");
        persist::save(&models[0], &dir.join("ep-k10.model")).expect("save amd");
        let store = ModelStore::from_dir(&dir, &[]).expect("ladder bundle loads");
        let entry = store.get("ep").expect("ep loaded");
        assert!(
            entry
                .models
                .iter()
                .all(|m| m.dvfs.ladder.idle_states.len() == 2),
            "ladders must survive the round trip"
        );
        let _ = std::fs::remove_dir_all(&dir);

        // The content hash covers the OPP tables: a bundle that differs
        // only in its DVFS extension must hash differently.
        let mut plain = ModelStore::new();
        plain.insert("ep", pair());
        let mut laddered = ModelStore::new();
        laddered.insert("ep", mk(0.1));
        let mut laddered2 = ModelStore::new();
        laddered2.insert("ep", mk(0.2));
        let (h_plain, h_l1, h_l2) = (
            plain.get("ep").unwrap().hash,
            laddered.get("ep").unwrap().hash,
            laddered2.get("ep").unwrap().hash,
        );
        assert_ne!(h_plain, h_l1, "ladder must change the bundle hash");
        assert_ne!(h_l1, h_l2, "OPP/domain edits must change the hash");
        // And the file path reproduces the programmatic hash.
        assert_eq!(entry.hash, h_l1);
    }

    #[test]
    fn from_dir_round_trips_saved_pairs_and_rejects_singletons() {
        let dir = std::env::temp_dir().join(format!("hecmix-store-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let models = pair();
        persist::save(&models[1], &dir.join("ep-cortex-a9.model")).expect("save arm");
        persist::save(&models[0], &dir.join("ep-k10.model")).expect("save amd");
        std::fs::write(dir.join("notes.txt"), "ignored").expect("write");

        let store = ModelStore::from_dir(&dir, &[]).expect("load pair");
        assert_eq!(store.len(), 1);
        let entry = store.get("ep").expect("ep loaded");
        // Content hash matches the programmatic path for the same bundle.
        let mut direct = ModelStore::new();
        direct.insert("ep", pair());
        assert_eq!(entry.hash, direct.get("ep").expect("direct").hash);

        // Filter that excludes everything.
        let none = ModelStore::from_dir(&dir, &["memcached".to_owned()]).expect("filtered");
        assert!(none.is_empty());

        // A singleton pair is a hard error.
        std::fs::remove_file(dir.join("ep-k10.model")).expect("rm");
        let err = ModelStore::from_dir(&dir, &[]).expect_err("singleton must fail");
        assert!(err.contains("ep"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
