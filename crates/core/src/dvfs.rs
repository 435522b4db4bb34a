//! Per-type DVFS ladders and hierarchical power domains.
//!
//! The paper prices each P-state with its own measured active/stall power
//! pair (Eq. 15–17, §II-D-2). Real heterogeneous parts expose the same
//! thing as an *operating-point ladder*: a short list of (frequency,
//! capacity, power) triples per core type, plus a ladder of idle states
//! (WFI, core sleep, cluster sleep) with minimum-residency costs, organised
//! under nested power domains — a cluster can only enter its deeper idle
//! state when every core inside it is idle. This module models that
//! structure, and it is the only node representation:
//!
//! - [`ActiveState`] — one OPP: real frequency, relative capacity, and
//!   per-core active/stall power at that point.
//! - [`IdleState`] — one per-core idle state with a residency cost.
//! - [`OppLadder`] — a validated, monotone list of active states plus the
//!   idle-state ladder.
//! - [`PowerDomain`] — a nested domain tree, as the model file format
//!   carries it; parking prices the root's [`PowerDomain::asleep_w`] and
//!   `residency_s`.
//! - [`NodeDvfs`] — the pair `(ladder, domain)` every
//!   [`WorkloadModel`](crate::profile::WorkloadModel) carries.
//!
//! # The two-point model is a lift
//!
//! A model measured as the paper's two-point table (a [`PowerProfile`]
//! over the platform's P-states) carries [`NodeDvfs::lift`]: one OPP per
//! P-state whose capacity is the P-state's clock in Hz and whose powers
//! are the profile's active/stall pair at that P-state, and one `node`
//! domain that is awake and asleep at `idle_w`. Every lifted OPP runs at
//! its P-state bit for bit (see below), so execution times, energies and
//! frontiers are exactly those of the two-point equations — checked by
//! the `ladder-lift-vs-two-point` oracle in `hecmix-check`.
//!
//! # Capacity and effective frequency
//!
//! The execution-time model divides instruction counts by a clock rate.
//! Ladder capacities are abstract throughput units (ARM convention: the
//! biggest OPP of the biggest core is 1024), and capacity is *not*
//! proportional to frequency across heterogeneous OPPs. We therefore map
//! OPP `j` to the *effective frequency* `cap_j · (f_top / cap_top)` and
//! feed that single scalar through the unchanged time model: the top OPP
//! runs at its real frequency and every lower OPP at a
//! capacity-proportional rate, which is the lisa/EAS interpretation of a
//! capacity table. With `cap_top` a power of two the division is exact,
//! so this rounds like `f_top · (cap_j / cap_top)`; for a lift the scale
//! is `f_top / f_top == 1.0`, so each OPP's effective frequency is its
//! capacity, the P-state itself. A configuration's frequency must be one
//! of the ladder's effective frequencies exactly.

use serde::{Deserialize, Serialize};

use crate::config::{NodeConfig, TypeBounds};
use crate::error::{Error, Result};
use crate::profile::PowerProfile;
use crate::types::{Frequency, Platform};

/// One operating performance point of a core type: the real clock
/// frequency, the relative compute capacity delivered at that point, and
/// the per-core active/stall power draw.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ActiveState {
    /// Real clock frequency of this OPP.
    pub freq: Frequency,
    /// Relative compute capacity at this OPP (dimensionless; by ARM
    /// convention the largest OPP of the largest core is 1024, but any
    /// positive scale works — only ratios matter).
    pub capacity: f64,
    /// Per-core power draw while retiring work at this OPP, in watts.
    pub power_w: f64,
    /// Per-core power draw while stalled (busy but not retiring) at this
    /// OPP, in watts.
    pub stall_w: f64,
}

/// One per-core idle state: WFI, core sleep, … ordered shallow → deep.
/// Deeper states draw less power but need a longer minimum residency
/// before entering them pays off.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IdleState {
    /// Human-readable name (`"WFI"`, `"core-sleep"`, …).
    pub name: String,
    /// Per-core power draw in this idle state, in watts.
    pub power_w: f64,
    /// Minimum idle-interval length for which entering this state saves
    /// energy (entry/exit cost amortisation), in seconds.
    pub residency_s: f64,
}

/// A validated per-type OPP ladder plus its per-core idle-state ladder.
///
/// Invariants (checked by [`OppLadder::validate`], enforced at the
/// persistence boundary by `persist::load`):
/// - at least one active state;
/// - frequencies strictly increasing, capacities strictly increasing;
/// - capacities finite and positive, powers finite and non-negative (the
///   rule `PowerProfile::validate` applies to a two-point table);
/// - idle states ordered shallow → deep: power non-increasing, residency
///   non-decreasing, all finite and non-negative.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OppLadder {
    /// Active states, ascending in frequency and capacity.
    pub states: Vec<ActiveState>,
    /// Per-core idle states, shallow → deep. May be empty (no idle
    /// ladder: the core idles at the model's `idle_w` floor).
    pub idle_states: Vec<IdleState>,
}

impl OppLadder {
    /// Build a ladder from active states with no idle ladder, validating
    /// the invariants.
    ///
    /// # Errors
    /// [`Error::InvalidInput`] when the states violate a ladder invariant.
    pub fn new(states: Vec<ActiveState>) -> Result<Self> {
        let ladder = Self {
            states,
            idle_states: Vec::new(),
        };
        ladder.validate()?;
        Ok(ladder)
    }

    /// Check every ladder invariant.
    ///
    /// # Errors
    /// [`Error::InvalidInput`] naming the first violated invariant.
    pub fn validate(&self) -> Result<()> {
        if self.states.is_empty() {
            return Err(Error::InvalidInput(
                "dvfs ladder must have at least one active state".into(),
            ));
        }
        for (i, s) in self.states.iter().enumerate() {
            if !s.capacity.is_finite() || !(s.capacity > 0.0) {
                return Err(Error::InvalidInput(format!(
                    "dvfs ladder state {i}: capacity must be finite and positive, got {}",
                    s.capacity
                )));
            }
            if !s.power_w.is_finite() || !(s.power_w >= 0.0) {
                return Err(Error::InvalidInput(format!(
                    "dvfs ladder state {i}: active power must be finite and non-negative, got {}",
                    s.power_w
                )));
            }
            if !s.stall_w.is_finite() || s.stall_w < 0.0 {
                return Err(Error::InvalidInput(format!(
                    "dvfs ladder state {i}: stall power must be finite and non-negative, got {}",
                    s.stall_w
                )));
            }
        }
        for (i, w) in self.states.windows(2).enumerate() {
            if !(w[1].freq.hz() > w[0].freq.hz()) {
                return Err(Error::InvalidInput(format!(
                    "dvfs ladder frequencies must be strictly increasing (state {} vs {})",
                    i,
                    i + 1
                )));
            }
            if !(w[1].capacity > w[0].capacity) {
                return Err(Error::InvalidInput(format!(
                    "dvfs ladder capacities must be strictly increasing (state {} vs {})",
                    i,
                    i + 1
                )));
            }
        }
        for (i, s) in self.idle_states.iter().enumerate() {
            if s.name.is_empty() || s.name.contains(char::is_whitespace) || s.name.contains(':') {
                return Err(Error::InvalidInput(format!(
                    "dvfs idle state {i}: name must be non-empty without whitespace or ':'"
                )));
            }
            if !s.power_w.is_finite() || s.power_w < 0.0 {
                return Err(Error::InvalidInput(format!(
                    "dvfs idle state {i}: power must be finite and non-negative, got {}",
                    s.power_w
                )));
            }
            if !s.residency_s.is_finite() || s.residency_s < 0.0 {
                return Err(Error::InvalidInput(format!(
                    "dvfs idle state {i}: residency must be finite and non-negative, got {}",
                    s.residency_s
                )));
            }
        }
        for (i, w) in self.idle_states.windows(2).enumerate() {
            if w[1].power_w > w[0].power_w {
                return Err(Error::InvalidInput(format!(
                    "dvfs idle-state powers must be non-increasing shallow→deep (state {} vs {})",
                    i,
                    i + 1
                )));
            }
            if w[1].residency_s < w[0].residency_s {
                return Err(Error::InvalidInput(format!(
                    "dvfs idle-state residencies must be non-decreasing shallow→deep (state {} vs {})",
                    i,
                    i + 1
                )));
            }
        }
        Ok(())
    }

    /// Number of active states (OPPs).
    #[must_use]
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// True when the ladder has no active states (never true for a
    /// validated ladder).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }

    /// Effective model frequency of OPP `opp`: the top OPP's own
    /// frequency, and `cap_j · (f_top / cap_top)` below it. A lift's scale
    /// is `f_top / f_top == 1.0`, so its OPPs run at their P-states bit for
    /// bit; with `cap_top` a power of two the scale is exact and the result
    /// rounds like `f_top · (cap_j / cap_top)`.
    ///
    /// # Panics
    /// When `opp` is out of range (caller bug).
    #[must_use]
    pub fn effective_freq(&self, opp: usize) -> Frequency {
        let top = self.states.last().expect("validated ladder is non-empty");
        if opp + 1 == self.states.len() {
            return top.freq;
        }
        Frequency::from_hz(self.states[opp].capacity * (top.freq.hz() / top.capacity))
    }

    /// Index of the OPP whose [`Self::effective_freq`] is nearest `freq`
    /// (ties break toward the lower OPP). Configurations produced by the
    /// ladder-aware sweep carry effective frequencies, so this recovers
    /// the OPP exactly; arbitrary frequencies snap to the closest point.
    #[must_use]
    pub fn nearest_opp(&self, freq: Frequency) -> usize {
        let mut best = 0usize;
        let mut best_d = f64::INFINITY;
        for j in 0..self.states.len() {
            let d = (self.effective_freq(j).hz() - freq.hz()).abs();
            if d < best_d {
                best_d = d;
                best = j;
            }
        }
        best
    }

    /// The active state powering `freq` (nearest effective frequency).
    #[must_use]
    pub fn state_for(&self, freq: Frequency) -> &ActiveState {
        &self.states[self.nearest_opp(freq)]
    }

    /// Whether `freq` is exactly one of the ladder's effective
    /// frequencies — the ladder analogue of
    /// `Platform::supports_frequency`.
    #[must_use]
    pub fn supports_effective_freq(&self, freq: Frequency) -> bool {
        (0..self.states.len()).any(|j| self.effective_freq(j).hz() == freq.hz())
    }
}

/// A node in the nested power-domain tree. Leaves are the smallest
/// power-gateable units (typically cores); interior nodes are clusters,
/// caches, or the whole package. A sleeping domain covers its whole
/// subtree, so a parked node draws the root's `sleep_w`
/// ([`PowerDomain::asleep_w`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PowerDomain {
    /// Domain name (`"cluster0"`, `"core0"`, …).
    pub name: String,
    /// This domain's own floor contribution while awake, in watts
    /// (children contribute separately).
    pub idle_w: f64,
    /// This domain's floor contribution in its deep idle state, in watts.
    /// Covers the entire subtree: sleeping children contribute nothing on
    /// top of it. Must not exceed `idle_w`.
    pub sleep_w: f64,
    /// Minimum idle-interval length for the deep state to pay off, in
    /// seconds.
    pub residency_s: f64,
    /// Child domains; empty for leaves.
    pub children: Vec<PowerDomain>,
}

impl PowerDomain {
    /// A leaf domain (no children).
    #[must_use]
    pub fn leaf(name: &str, idle_w: f64, sleep_w: f64, residency_s: f64) -> Self {
        Self {
            name: name.to_owned(),
            idle_w,
            sleep_w,
            residency_s,
            children: Vec::new(),
        }
    }

    /// An interior domain over `children`.
    #[must_use]
    pub fn cluster(
        name: &str,
        idle_w: f64,
        sleep_w: f64,
        residency_s: f64,
        children: Vec<PowerDomain>,
    ) -> Self {
        Self {
            name: name.to_owned(),
            idle_w,
            sleep_w,
            residency_s,
            children,
        }
    }

    /// Validate the subtree: finite non-negative powers with
    /// `sleep_w <= idle_w`, finite non-negative residencies, non-empty
    /// names.
    ///
    /// # Errors
    /// [`Error::InvalidInput`] naming the offending domain.
    pub fn validate(&self) -> Result<()> {
        if self.name.is_empty()
            || self.name.contains(char::is_whitespace)
            || self.name.contains(':')
        {
            return Err(Error::InvalidInput(
                "power domain name must be non-empty without whitespace or ':'".into(),
            ));
        }
        if !self.idle_w.is_finite() || self.idle_w < 0.0 {
            return Err(Error::InvalidInput(format!(
                "power domain {:?}: idle_w must be finite and non-negative, got {}",
                self.name, self.idle_w
            )));
        }
        if !self.sleep_w.is_finite() || self.sleep_w < 0.0 || self.sleep_w > self.idle_w {
            return Err(Error::InvalidInput(format!(
                "power domain {:?}: sleep_w must be finite, non-negative and <= idle_w, got {}",
                self.name, self.sleep_w
            )));
        }
        if !self.residency_s.is_finite() || self.residency_s < 0.0 {
            return Err(Error::InvalidInput(format!(
                "power domain {:?}: residency must be finite and non-negative, got {}",
                self.name, self.residency_s
            )));
        }
        for c in &self.children {
            c.validate()?;
        }
        Ok(())
    }

    /// Number of leaves in the subtree (a childless domain counts as one
    /// leaf).
    #[must_use]
    pub fn leaf_count(&self) -> usize {
        if self.children.is_empty() {
            1
        } else {
            self.children.iter().map(Self::leaf_count).sum()
        }
    }

    /// Floor power of the fully awake subtree: `idle_w` of every domain.
    #[must_use]
    pub fn awake_w(&self) -> f64 {
        self.idle_w + self.children.iter().map(Self::awake_w).sum::<f64>()
    }

    /// Floor power of the fully slept subtree: root `sleep_w` only (a
    /// sleeping domain covers its whole subtree).
    #[must_use]
    pub fn asleep_w(&self) -> f64 {
        self.sleep_w
    }
}

/// The node representation of a
/// [`WorkloadModel`](crate::profile::WorkloadModel): the per-type OPP
/// ladder plus the node's power-domain tree.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NodeDvfs {
    /// Operating-point and idle-state ladder of this node type's cores.
    pub ladder: OppLadder,
    /// Nested power domains of one node of this type.
    pub domain: PowerDomain,
}

impl NodeDvfs {
    /// Validate ladder and domain tree.
    ///
    /// # Errors
    /// [`Error::InvalidInput`] naming the violated invariant.
    pub fn validate(&self) -> Result<()> {
        self.ladder.validate()?;
        self.domain.validate()
    }

    /// The two-point model as a ladder: one OPP per platform P-state, in
    /// order, running at that P-state (capacity = its frequency in Hz;
    /// capacity is dimensionless and only ratios matter) and drawing
    /// `power`'s active/stall pair there, with no idle states and one
    /// `node` domain that is awake and asleep at `idle_w` (no deep state,
    /// so no sleep credit). `power` must be non-empty.
    #[must_use]
    pub fn lift(platform: &Platform, power: &PowerProfile) -> Self {
        let states = platform
            .freqs
            .iter()
            .map(|&freq| ActiveState {
                freq,
                capacity: freq.hz(),
                power_w: power.core_active_w(freq),
                stall_w: power.core_stall_w(freq),
            })
            .collect();
        Self {
            ladder: OppLadder {
                states,
                idle_states: Vec::new(),
            },
            domain: PowerDomain::leaf("node", power.idle_w, power.idle_w, 0.0),
        }
    }

    /// A synthetic multi-OPP ladder derived from `power`'s P-state table,
    /// with a two-level domain tree (node → cluster of `cores` cores) and
    /// a cluster-sleep state at `sleep_frac · idle_w`. Used by examples,
    /// experiments, and randomized oracles; measured ladders come from
    /// model files.
    #[must_use]
    pub fn synthetic_ladder(power: &PowerProfile, cores: u32, sleep_frac: f64) -> Self {
        let top = power
            .core_w
            .iter()
            .map(|(f, _, _)| *f)
            .fold(None::<Frequency>, |acc, f| match acc {
                Some(a) if a.hz() >= f.hz() => Some(a),
                _ => Some(f),
            })
            .expect("power profile has at least one P-state");
        let states = power
            .core_w
            .iter()
            .map(|&(f, act, stall)| ActiveState {
                freq: f,
                // Capacity proportional to frequency is the simplest
                // monotone choice for a synthetic single-ISA ladder.
                capacity: 1024.0 * (f.hz() / top.hz()),
                power_w: act,
                stall_w: stall,
            })
            .collect::<Vec<_>>();
        let idle_states = vec![
            IdleState {
                name: "WFI".into(),
                power_w: power.idle_w / f64::from(cores.max(1)) * 0.5,
                residency_s: 0.0,
            },
            IdleState {
                name: "core-sleep".into(),
                power_w: power.idle_w / f64::from(cores.max(1)) * 0.1,
                residency_s: 1e-3,
            },
        ];
        let per_core = power.idle_w / f64::from(cores.max(1)) * 0.5;
        let cluster_idle = power.idle_w - per_core * f64::from(cores.max(1));
        let children = (0..cores.max(1))
            .map(|c| PowerDomain::leaf(&format!("core{c}"), per_core, per_core * 0.1, 1e-3))
            .collect();
        Self {
            ladder: OppLadder {
                states,
                idle_states,
            },
            domain: PowerDomain::cluster(
                "cluster0",
                cluster_idle.max(0.0),
                (power.idle_w * sleep_frac).max(0.0),
                0.05,
                children,
            ),
        }
    }
}

/// A type's deployment options, the only enumeration of them: nodes
/// outermost, then OPP index, then cores. Returns `(cfg, opp)` pairs;
/// `cfg.freq` is the OPP's effective frequency. Option `i` of this list is
/// digit `i + 1` of the type in a [`crate::rate_table::RateTable`] flat
/// index, so consecutive node counts are `|OPPs| × cores` options apart.
#[must_use]
pub fn ladder_options(bounds: &TypeBounds, ladder: &OppLadder) -> Vec<(NodeConfig, usize)> {
    let mut out = Vec::with_capacity(
        bounds.max_nodes as usize * ladder.len() * bounds.platform.cores as usize,
    );
    for n in 1..=bounds.max_nodes {
        for opp in 0..ladder.len() {
            let freq = ladder.effective_freq(opp);
            for c in 1..=bounds.platform.cores {
                out.push((NodeConfig::new(n, c, freq), opp));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::WorkloadModel;

    fn arm_model() -> WorkloadModel {
        WorkloadModel::synthetic_cpu_bound(&Platform::reference_arm(), "ep", 60.0)
    }

    fn big_little_ladder() -> OppLadder {
        // hikey-flavoured shape: LITTLE-ish low OPPs, big-ish top.
        OppLadder {
            states: vec![
                ActiveState {
                    freq: Frequency::from_ghz(0.6),
                    capacity: 178.0,
                    power_w: 0.12,
                    stall_w: 0.07,
                },
                ActiveState {
                    freq: Frequency::from_ghz(1.0),
                    capacity: 476.0,
                    power_w: 0.33,
                    stall_w: 0.2,
                },
                ActiveState {
                    freq: Frequency::from_ghz(1.4),
                    capacity: 1024.0,
                    power_w: 0.8,
                    stall_w: 0.48,
                },
            ],
            idle_states: vec![
                IdleState {
                    name: "WFI".into(),
                    power_w: 0.05,
                    residency_s: 0.0,
                },
                IdleState {
                    name: "core-sleep".into(),
                    power_w: 0.01,
                    residency_s: 2e-3,
                },
            ],
        }
    }

    #[test]
    fn valid_ladder_passes() {
        big_little_ladder().validate().unwrap();
    }

    #[test]
    fn empty_ladder_rejected() {
        let err = OppLadder::new(Vec::new()).unwrap_err();
        assert!(matches!(err, Error::InvalidInput(_)));
    }

    #[test]
    fn non_monotone_capacity_rejected() {
        let mut l = big_little_ladder();
        l.states[1].capacity = 2000.0; // > top capacity, non-monotone at 1→2
        assert!(matches!(l.validate(), Err(Error::InvalidInput(_))));
    }

    #[test]
    fn non_monotone_frequency_rejected() {
        let mut l = big_little_ladder();
        l.states[0].freq = Frequency::from_ghz(1.2);
        l.states[1].freq = Frequency::from_ghz(1.1);
        assert!(matches!(l.validate(), Err(Error::InvalidInput(_))));
    }

    #[test]
    fn non_finite_power_rejected() {
        let mut l = big_little_ladder();
        l.states[2].power_w = f64::NAN;
        assert!(matches!(l.validate(), Err(Error::InvalidInput(_))));
        let mut l = big_little_ladder();
        l.states[0].capacity = f64::INFINITY;
        assert!(matches!(l.validate(), Err(Error::InvalidInput(_))));
    }

    #[test]
    fn idle_ladder_ordering_enforced() {
        let mut l = big_little_ladder();
        l.idle_states[1].power_w = 0.5; // deeper state draws more: invalid
        assert!(matches!(l.validate(), Err(Error::InvalidInput(_))));
        let mut l = big_little_ladder();
        l.idle_states[1].residency_s = -1.0;
        assert!(matches!(l.validate(), Err(Error::InvalidInput(_))));
    }

    #[test]
    fn effective_freq_top_is_exact_and_monotone() {
        let l = big_little_ladder();
        assert_eq!(l.effective_freq(2).hz(), Frequency::from_ghz(1.4).hz());
        let e0 = l.effective_freq(0).hz();
        let e1 = l.effective_freq(1).hz();
        let e2 = l.effective_freq(2).hz();
        assert!(e0 < e1 && e1 < e2);
        // capacity-proportional: 178/1024 of 1.4 GHz
        assert!((e0 - 1.4e9 * 178.0 / 1024.0).abs() < 1.0);
    }

    #[test]
    fn effective_freq_rounds_like_the_capacity_ratio_under_a_power_of_two_top() {
        let l = big_little_ladder();
        let top = &l.states[2];
        for (j, s) in l.states.iter().enumerate() {
            let ratio = top.freq.hz() * (s.capacity / top.capacity);
            assert_eq!(
                l.effective_freq(j).hz().to_bits(),
                ratio.to_bits(),
                "OPP {j}"
            );
        }
    }

    #[test]
    fn lift_runs_each_opp_at_its_pstate_and_copies_powers() {
        // 0.9 GHz under a 1.4 GHz top is one of the pairs where
        // `f_top · (f_j / f_top)` is an ulp off `f_j`.
        let ghz = [0.2, 0.9, 1.4];
        let p = Platform {
            freqs: ghz.iter().map(|&g| Frequency::from_ghz(g)).collect(),
            ..Platform::reference_arm()
        };
        let power = PowerProfile::synthetic(&p);
        let lift = NodeDvfs::lift(&p, &power);
        lift.validate().unwrap();
        assert_eq!(lift.ladder.len(), ghz.len());
        assert!(lift.ladder.idle_states.is_empty());
        assert_eq!(
            lift.domain,
            PowerDomain::leaf("node", power.idle_w, power.idle_w, 0.0)
        );
        let (mid, top) = (p.freqs[1].hz(), p.freqs[2].hz());
        assert_ne!((top * (mid / top)).to_bits(), mid.to_bits());
        for (j, (s, f)) in lift.ladder.states.iter().zip(&p.freqs).enumerate() {
            assert_eq!(
                lift.ladder.effective_freq(j).hz().to_bits(),
                f.hz().to_bits()
            );
            assert_eq!(s.freq, *f);
            assert_eq!(s.power_w.to_bits(), power.core_active_w(*f).to_bits());
            assert_eq!(s.stall_w.to_bits(), power.core_stall_w(*f).to_bits());
        }
    }

    #[test]
    fn nearest_opp_recovers_effective_freqs() {
        let l = big_little_ladder();
        for j in 0..l.len() {
            assert_eq!(l.nearest_opp(l.effective_freq(j)), j);
            assert!(l.supports_effective_freq(l.effective_freq(j)));
        }
        assert!(!l.supports_effective_freq(Frequency::from_ghz(0.123)));
    }

    fn two_core_domain() -> PowerDomain {
        PowerDomain::cluster(
            "cluster0",
            1.0,
            0.2,
            0.05,
            vec![
                PowerDomain::leaf("core0", 0.5, 0.05, 1e-3),
                PowerDomain::leaf("core1", 0.5, 0.05, 1e-3),
            ],
        )
    }

    #[test]
    fn domain_validate_rejects_sleep_above_idle() {
        let mut d = two_core_domain();
        d.sleep_w = 2.0;
        assert!(matches!(d.validate(), Err(Error::InvalidInput(_))));
    }

    #[test]
    fn synthetic_ladder_is_valid_and_covers_pstates() {
        let m = arm_model();
        let d = NodeDvfs::synthetic_ladder(&m.power, m.platform.cores, 0.1);
        d.validate().unwrap();
        assert_eq!(d.ladder.len(), m.power.core_w.len());
        assert_eq!(d.domain.leaf_count(), m.platform.cores as usize);
        assert!(d.domain.asleep_w() < d.domain.awake_w());
    }

    #[test]
    fn ladder_options_order_is_nodes_opp_cores() {
        let m = arm_model();
        let l = big_little_ladder();
        let b = TypeBounds {
            platform: m.platform.clone(),
            max_nodes: 2,
        };
        let opts = ladder_options(&b, &l);
        assert_eq!(opts.len(), 2 * 3 * m.platform.cores as usize);
        // First block: 1 node, OPP 0, cores 1..=C.
        assert_eq!(opts[0].0.nodes, 1);
        assert_eq!(opts[0].1, 0);
        assert_eq!(opts[0].0.cores, 1);
        let c = m.platform.cores as usize;
        assert_eq!(opts[c].1, 1); // next OPP after the core axis wraps
        assert_eq!(opts[3 * c].0.nodes, 2); // node axis outermost
    }
}
