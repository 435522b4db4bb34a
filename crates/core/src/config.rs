//! Cluster configuration space (§IV-B).
//!
//! A *configuration* fixes, for every node type: how many nodes participate
//! (`n_t`), how many cores each of those nodes enables (`c_t`), and the
//! common core clock frequency (`f_t`). All nodes of a type are identical —
//! the paper distributes a type's share equally among them.
//!
//! The space enumerated here reproduces the paper's count exactly
//! (footnote 2 of §IV-B): with 10 ARM (5 frequencies × 4 core counts) and
//! 10 AMD nodes (3 × 6), there are `10·5·4·10·3·6 = 36 000` heterogeneous
//! mixes, plus `200` ARM-only and `180` AMD-only homogeneous configurations:
//! **36 380** in total. Generalized to `k` node types, the space is the sum
//! over all non-empty subsets `S` of types of `Π_{t∈S} n_t·|f_t|·|c_t|`.
//!
//! A type's options themselves come from its model's OPP ladder
//! ([`crate::dvfs::ladder_options`]), which for a two-point model is one
//! OPP per platform P-state, so [`ConfigSpace::count`] is the size of a
//! two-point space; [`crate::rate_table::RateTable::count`] is the size of
//! any space.

use serde::{Deserialize, Serialize};

use crate::types::{Frequency, Platform};

/// Per-type knobs of one configuration: node count, active cores per node,
/// and core clock frequency.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NodeConfig {
    /// Number of nodes of this type that participate (`n_t ≥ 1` when the
    /// type is used at all).
    pub nodes: u32,
    /// Cores enabled per node (`1 ..= platform.cores`).
    pub cores: u32,
    /// Effective frequency of the operating point: one of the model
    /// ladder's [`crate::dvfs::OppLadder::effective_freq`]s, which for a
    /// two-point model are the platform's P-states.
    pub freq: Frequency,
}

impl NodeConfig {
    /// Construct a per-type configuration.
    #[must_use]
    pub fn new(nodes: u32, cores: u32, freq: Frequency) -> Self {
        Self { nodes, cores, freq }
    }

    /// All nodes at all cores and maximum frequency.
    #[must_use]
    pub fn maxed(platform: &Platform, nodes: u32) -> Self {
        Self {
            nodes,
            cores: platform.cores,
            freq: platform.fmax(),
        }
    }
}

/// One point of the whole-cluster configuration space: an optional
/// [`NodeConfig`] per node type (in the same order as the platform list the
/// space was built from). `None` means the type is unused (its nodes are
/// idle or switched off, depending on the analysis).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterPoint {
    /// Per-type settings, `None` for unused types.
    pub per_type: Vec<Option<NodeConfig>>,
}

impl ClusterPoint {
    /// Number of node types actually used.
    #[must_use]
    pub fn types_used(&self) -> usize {
        self.per_type.iter().flatten().count()
    }

    /// True when at most one node type is used.
    #[must_use]
    pub fn is_homogeneous(&self) -> bool {
        self.types_used() <= 1
    }

    /// Total number of nodes deployed.
    #[must_use]
    pub fn total_nodes(&self) -> u32 {
        self.per_type.iter().flatten().map(|c| c.nodes).sum()
    }

    /// Compact human-readable label, e.g. `ARM 8(4c@1.40 GHz) + AMD 1(6c@2.10 GHz)`.
    #[must_use]
    pub fn label(&self, platforms: &[Platform]) -> String {
        let mut parts = Vec::new();
        for (p, cfg) in platforms.iter().zip(&self.per_type) {
            if let Some(c) = cfg {
                parts.push(format!("{} {}({}c@{})", p.name, c.nodes, c.cores, c.freq));
            }
        }
        if parts.is_empty() {
            "empty".to_owned()
        } else {
            parts.join(" + ")
        }
    }
}

/// Bounds for one node type inside a [`ConfigSpace`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TypeBounds {
    /// The platform.
    pub platform: Platform,
    /// Maximum number of nodes of this type available (`n_t^max`).
    pub max_nodes: u32,
}

/// The configuration space over a set of node types.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ConfigSpace {
    /// Per-type bounds, fixed order.
    pub types: Vec<TypeBounds>,
}

impl ConfigSpace {
    /// Build a space from `(platform, max nodes)` pairs.
    #[must_use]
    pub fn new(types: Vec<TypeBounds>) -> Self {
        Self { types }
    }

    /// Convenience: the paper's two-type space.
    #[must_use]
    pub fn two_type(a: Platform, max_a: u32, b: Platform, max_b: u32) -> Self {
        Self::new(vec![
            TypeBounds {
                platform: a,
                max_nodes: max_a,
            },
            TypeBounds {
                platform: b,
                max_nodes: max_b,
            },
        ])
    }

    /// Size of the space over the platforms' P-states: `Σ over non-empty
    /// subsets S of Π_{t∈S} n_t·|f_t|·|c_t|` — equivalently
    /// `Π (choices_t + 1) − 1`. A ladder with a different OPP count gives
    /// a different size; [`crate::rate_table::RateTable::count`] counts
    /// that.
    ///
    /// For the paper's 10 ARM + 10 AMD this is 36 380.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.types
            .iter()
            .map(|t| {
                let p = &t.platform;
                u64::from(t.max_nodes) * p.freqs.len() as u64 * u64::from(p.cores) + 1
            })
            .product::<u64>()
            .saturating_sub(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_space(max_arm: u32, max_amd: u32) -> ConfigSpace {
        ConfigSpace::two_type(
            Platform::reference_arm(),
            max_arm,
            Platform::reference_amd(),
            max_amd,
        )
    }

    #[test]
    fn paper_count_footnote2() {
        // §IV-B footnote 2: 36 000 mixed + 200 ARM-only + 180 AMD-only.
        let space = paper_space(10, 10);
        assert_eq!(space.count(), 36_380);
    }

    #[test]
    fn homogeneous_detection() {
        let arm = Platform::reference_arm();
        let amd = Platform::reference_amd();
        let hetero = ClusterPoint {
            per_type: vec![
                Some(NodeConfig::maxed(&arm, 2)),
                Some(NodeConfig::maxed(&amd, 1)),
            ],
        };
        assert!(!hetero.is_homogeneous());
        assert_eq!(hetero.total_nodes(), 3);
        let homo = ClusterPoint {
            per_type: vec![Some(NodeConfig::maxed(&arm, 2)), None],
        };
        assert!(homo.is_homogeneous());
        assert_eq!(homo.types_used(), 1);
    }

    #[test]
    fn label_is_readable() {
        let arm = Platform::reference_arm();
        let amd = Platform::reference_amd();
        let p = ClusterPoint {
            per_type: vec![
                Some(NodeConfig::new(8, 4, Frequency::from_ghz(1.4))),
                Some(NodeConfig::new(1, 6, Frequency::from_ghz(2.1))),
            ],
        };
        let label = p.label(&[arm, amd]);
        assert!(label.contains("ARM Cortex-A9 8(4c@1.40 GHz)"), "{label}");
        assert!(label.contains("AMD K10 1(6c@2.10 GHz)"), "{label}");
    }

    #[test]
    fn single_type_space() {
        let space = ConfigSpace::new(vec![TypeBounds {
            platform: Platform::reference_arm(),
            max_nodes: 10,
        }]);
        // 10 × 5 × 4 = 200 (paper footnote 2, ARM-only term).
        assert_eq!(space.count(), 200);
    }

    #[test]
    fn three_type_space_counts() {
        let arm = Platform::reference_arm();
        let space = ConfigSpace::new(vec![
            TypeBounds {
                platform: arm.clone(),
                max_nodes: 1,
            },
            TypeBounds {
                platform: arm.clone(),
                max_nodes: 1,
            },
            TypeBounds {
                platform: arm,
                max_nodes: 1,
            },
        ]);
        // choices per type: 1·5·4 = 20 → (20+1)^3 − 1 = 9260.
        assert_eq!(space.count(), 9260);
    }
}
