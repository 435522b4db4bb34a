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

use std::borrow::Cow;
use std::fmt::Write as _;
use std::ops::Range;

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

    /// Compact human-readable label, e.g. `ARM 8(4c@1.40 GHz) + AMD 1(6c@2.10 GHz)`:
    /// [`Labeler::label`] over the platforms' names.
    #[must_use]
    pub fn label(&self, platforms: &[Platform]) -> String {
        Labeler::new(platforms.iter().map(|p| p.name.as_str())).label(self)
    }
}

/// Writes [`ClusterPoint`] labels into a caller's buffer; the one
/// definition of the label format. Each used type reads
/// `{name} {nodes}({cores}c@{freq})`, types are joined by ` + `, and a
/// point that uses no type reads `empty`. The [`Frequency`] text
/// (`{:.2} GHz`) is the costliest part, so each distinct frequency is
/// formatted once per labeler, keyed by its bits; keep one labeler for
/// one answer or one menu.
#[derive(Debug)]
pub struct Labeler<'a> {
    /// Type names in type order, written as given.
    names: Vec<Cow<'a, str>>,
    /// Each formatted frequency's bits and its text's span in `texts`.
    freqs: Vec<(u64, Range<usize>)>,
    texts: String,
}

impl<'a> Labeler<'a> {
    /// A labeler naming the types `names`, in type order. A label names
    /// only as many types as both it and the point have, like a `zip`.
    /// Names are written verbatim, so a caller that embeds labels in
    /// another format passes them already escaped for it.
    #[must_use]
    pub fn new<S: Into<Cow<'a, str>>>(names: impl IntoIterator<Item = S>) -> Self {
        Self {
            names: names.into_iter().map(Into::into).collect(),
            freqs: Vec::new(),
            texts: String::new(),
        }
    }

    /// The label of `point` as a new string.
    #[must_use]
    pub fn label(&mut self, point: &ClusterPoint) -> String {
        let mut out = String::new();
        self.write(&mut out, point);
        out
    }

    /// Append the label of `point` to `out`.
    pub fn write(&mut self, out: &mut String, point: &ClusterPoint) {
        let mut first = true;
        for (name, cfg) in self.names.iter().zip(&point.per_type) {
            let Some(c) = cfg else { continue };
            if !first {
                out.push_str(" + ");
            }
            first = false;
            out.push_str(name);
            out.push(' ');
            push_decimal(out, c.nodes);
            out.push('(');
            push_decimal(out, c.cores);
            out.push_str("c@");
            let bits = c.freq.hz().to_bits();
            let span = match self.freqs.iter().find(|(b, _)| *b == bits) {
                Some((_, span)) => span.clone(),
                None => {
                    let start = self.texts.len();
                    let _ = write!(self.texts, "{}", c.freq);
                    let span = start..self.texts.len();
                    self.freqs.push((bits, span.clone()));
                    span
                }
            };
            out.push_str(&self.texts[span]);
            out.push(')');
        }
        if first {
            out.push_str("empty");
        }
    }
}

/// Append the decimal digits of `n` to `out`.
fn push_decimal(out: &mut String, mut n: u32) {
    let mut digits = [0u8; 10];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&digits[at..]).expect("ASCII digits"));
}

/// Bounds for one node type inside a [`ConfigSpace`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TypeBounds {
    /// The platform.
    pub platform: Platform,
    /// Maximum number of nodes of this type available (`n_t^max`).
    pub max_nodes: u32,
}

impl TypeBounds {
    /// The type's options over its platform's P-states, `n·|f|·|c|`: one
    /// factor of [`ConfigSpace::count`].
    #[must_use]
    pub(crate) fn choices(&self) -> u64 {
        u64::from(self.max_nodes)
            * self.platform.freqs.len() as u64
            * u64::from(self.platform.cores)
    }
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
            .map(|t| t.choices() + 1)
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

    /// SplitMix64, for seeded points.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// The label as one `format!` per used type, joined: the oracle for
    /// the labeler's direct writes and its frequency memo.
    fn oracle(point: &ClusterPoint, names: &[&str]) -> String {
        let mut parts = Vec::new();
        for (name, cfg) in names.iter().zip(&point.per_type) {
            if let Some(c) = cfg {
                parts.push(format!("{} {}({}c@{})", name, c.nodes, c.cores, c.freq));
            }
        }
        if parts.is_empty() {
            "empty".to_owned()
        } else {
            parts.join(" + ")
        }
    }

    #[test]
    fn labeler_writes_what_format_and_join_write() {
        let names = ["ARM Cortex-A9", "AMD \"K10\" \\ x86\nrev", "Ærø ⚡ 节点"];
        let freqs = [
            Frequency::from_ghz(0.2),
            Frequency::from_ghz(1.4),
            Frequency::from_ghz(2.1),
            Frequency::from_ghz(2.105),
            Frequency::from_ghz(1e-9),
            Frequency::from_ghz(123_456.789),
            Frequency::from_hz(1.4e9 * 0.75),
        ];
        let mut state = 0x1abe1;
        // One labeler over every point, so frequencies repeat within it.
        let mut labels = Labeler::new(names);
        let mut out = String::from("prefix|");
        let mut want = String::from("prefix|");
        for i in 0..3_000 {
            let types = 1 + (splitmix(&mut state) % 3) as usize;
            let per_type = (0..types)
                .map(|_| {
                    let r = splitmix(&mut state);
                    (!r.is_multiple_of(4)).then(|| {
                        let nodes = match r >> 8 & 7 {
                            0 => u32::MAX,
                            1 => 0,
                            _ => (r >> 16) as u32 % 1_000,
                        };
                        let cores = if r >> 40 & 3 == 0 {
                            u32::MAX
                        } else {
                            (r >> 42) as u32 % 64
                        };
                        NodeConfig::new(nodes, cores, freqs[(r >> 50) as usize % freqs.len()])
                    })
                })
                .collect();
            let point = ClusterPoint { per_type };
            let names = &names[..types.min(names.len())];
            let mut fresh = Labeler::new(names.iter().copied());
            assert_eq!(fresh.label(&point), oracle(&point, names), "point {i}");
            if i % 3 == 0 {
                // The long-lived labeler names all three types; the point
                // may have fewer, and the zip stops at the shorter.
                labels.write(&mut out, &point);
                want.push_str(&oracle(&point, names));
                out.push('|');
                want.push('|');
            }
        }
        assert_eq!(out, want);
        assert!(labels.freqs.len() <= freqs.len());

        let empty = ClusterPoint {
            per_type: vec![None, None],
        };
        assert_eq!(labels.label(&empty), "empty");
        assert_eq!(labels.label(&ClusterPoint { per_type: vec![] }), "empty");
        let platforms = [Platform::reference_arm(), Platform::reference_amd()];
        assert_eq!(empty.label(&platforms), "empty");
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
