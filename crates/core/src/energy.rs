//! Energy model — Eq. (12)–(19) of the paper (§II-C).
//!
//! Per node of a type, over the whole (matched) job duration `T`:
//!
//! * `E_idle = T · P_idle` (Eq. 14) — the node's always-on floor, charged
//!   for the entire job regardless of what the node is doing (cores stay in
//!   C-state 0; a common datacenter setting).
//! * `E_core = (P_core,act · T_act + P_core,stall · T_stall) · c_act`
//!   (Eq. 15–17) — incremental power of the active cores, split between
//!   work cycles and non-memory stall cycles.
//! * `E_mem = P_mem · T_mem` (Eq. 18) — incremental memory power while
//!   servicing requests.
//! * `E_I/O = P_I/O · T_I/O` (Eq. 19) — incremental network-device power.
//!   We charge the device for its *busy* (transfer) time; inter-arrival
//!   gaps leave it idle, which the idle floor already covers.
//!
//! The type's total is the per-node sum times `n_t` (Eq. 13); the cluster
//! total sums the types (Eq. 12).

use serde::{Deserialize, Serialize};

use crate::config::NodeConfig;
use crate::exec_time::TimeBreakdown;
use crate::profile::WorkloadModel;

/// Energy decomposition for one node *type* (already multiplied by the
/// node count). All values in joules.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct EnergyBreakdown {
    /// Core energy (`E_core · n`, Eq. 15).
    pub e_core: f64,
    /// Memory energy (`E_mem · n`, Eq. 18).
    pub e_mem: f64,
    /// I/O device energy (`E_I/O · n`, Eq. 19).
    pub e_io: f64,
    /// Idle-floor energy (`E_idle · n`, Eq. 14).
    pub e_idle: f64,
}

impl EnergyBreakdown {
    /// Total energy in joules.
    #[must_use]
    pub fn total(&self) -> f64 {
        self.e_core + self.e_mem + self.e_io + self.e_idle
    }

    /// Component-wise sum.
    #[must_use]
    pub fn add(&self, other: &EnergyBreakdown) -> EnergyBreakdown {
        EnergyBreakdown {
            e_core: self.e_core + other.e_core,
            e_mem: self.e_mem + other.e_mem,
            e_io: self.e_io + other.e_io,
            e_idle: self.e_idle + other.e_idle,
        }
    }
}

/// Powered-on accounting window for [`EnergyModel::energy_windowed`].
///
/// The paper charges the idle floor `P_idle · T` for the full job
/// duration, which is wrong for nodes a dispatcher has parked mid-window:
/// a parked node's domain sits in a deep sleep state, not at `idle_w`.
/// This window splits the duration into a powered-on interval (floor at
/// the model's `idle_w`) and a parked interval (floor at the domain's
/// sleep power).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PoweredWindow {
    /// Seconds the node is powered on (floor charged at `idle_w`).
    pub on_s: f64,
    /// Seconds the node is parked (floor charged at `off_floor_w`).
    pub off_s: f64,
    /// Floor power while parked, in watts — typically the power-domain
    /// tree's fully-slept floor ([`crate::dvfs::PowerDomain::asleep_w`]).
    pub off_floor_w: f64,
}

impl PoweredWindow {
    /// A window that is powered on for the whole duration — the legacy
    /// accounting. [`EnergyModel::energy`] is exactly this window.
    #[must_use]
    pub fn always_on(duration_s: f64) -> Self {
        Self {
            on_s: duration_s,
            off_s: 0.0,
            off_floor_w: 0.0,
        }
    }
}

/// The energy model for one node type, bound to its measurement bundle.
#[derive(Debug, Clone)]
pub struct EnergyModel<'a> {
    model: &'a WorkloadModel,
}

impl<'a> EnergyModel<'a> {
    /// Bind the model to a (workload, platform) measurement bundle.
    #[must_use]
    pub fn new(model: &'a WorkloadModel) -> Self {
        Self { model }
    }

    /// Energy consumed by `cfg.nodes` nodes of this type over a job that
    /// lasts `job_duration_s` in total, given the type's predicted time
    /// breakdown for its share of the work.
    ///
    /// `job_duration_s` is the *cluster* job time — with mix-and-match it
    /// equals the type's own time, but when evaluating deliberately
    /// unbalanced splits (e.g. the matching ablation) the idle floor must
    /// cover the full job, which is why it is passed separately.
    #[must_use]
    pub fn energy(
        &self,
        cfg: &NodeConfig,
        times: &TimeBreakdown,
        job_duration_s: f64,
    ) -> EnergyBreakdown {
        // Relative slack: at day-plus durations one f64 ulp exceeds any
        // fixed absolute epsilon, and the closed-form cluster time is only
        // equal to the per-type prediction up to rounding.
        debug_assert!(
            job_duration_s >= times.total - 1e-9 * times.total.max(1.0),
            "job shorter than type time"
        );
        self.energy_windowed(cfg, times, &PoweredWindow::always_on(job_duration_s))
    }

    /// Like [`Self::energy`], but with the idle floor integrated only
    /// over powered-on intervals: `idle_w · on_s + off_floor_w · off_s`.
    /// A fully powered-on window reproduces [`Self::energy`] bit-for-bit
    /// (`x + 0.0 · 0.0 == x`).
    #[must_use]
    pub fn energy_windowed(
        &self,
        cfg: &NodeConfig,
        times: &TimeBreakdown,
        window: &PoweredWindow,
    ) -> EnergyBreakdown {
        let n = f64::from(cfg.nodes);
        let power = &self.model.power;

        // Eq. 15–17, with one correction the simulated testbed exposes:
        // a core stalled on *memory* draws stall power just like one
        // stalled on the pipeline, so the stall term covers the whole
        // busy-but-not-working CPU time `T_CPU − T_act` rather than only
        // the `SPI_core` share (the literal Eq. 17 undercounts the energy
        // of memory-bound executions; see DESIGN.md). The core powers are
        // the active/stall pair of the ladder's OPP at `cfg.freq` — for a
        // two-point model, the lifted P-state's pair.
        let s = self.model.dvfs.ladder.state_for(cfg.freq);
        let (p_act, p_stall) = (s.power_w, s.stall_w);
        let t_stall_busy = (times.t_cpu - times.t_act).max(0.0);
        let e_core = (p_act * times.t_act + p_stall * t_stall_busy) * times.c_act;

        // Eq. 18: memory active during the memory response time.
        let e_mem = power.mem_w * times.t_mem;

        // Eq. 19: network device active during transfers.
        let e_io = power.io_w * times.t_io_busy;

        // Eq. 14, corrected: the always-on floor applies only while the
        // node is powered on; parked intervals cost the domain's sleep
        // floor instead.
        let e_idle = power.idle_w * window.on_s + window.off_floor_w * window.off_s;

        EnergyBreakdown {
            e_core: e_core * n,
            e_mem: e_mem * n,
            e_io: e_io * n,
            e_idle: e_idle * n,
        }
    }

    /// Average node-type power over the job: `E / T` (watts for all
    /// `cfg.nodes` nodes together). Returns the idle floor when the job has
    /// zero duration.
    #[must_use]
    pub fn average_power_w(
        &self,
        cfg: &NodeConfig,
        times: &TimeBreakdown,
        job_duration_s: f64,
    ) -> f64 {
        if job_duration_s <= 0.0 {
            return self.model.power.idle_w * f64::from(cfg.nodes);
        }
        self.energy(cfg, times, job_duration_s).total() / job_duration_s
    }

    /// The measurement bundle this model is bound to.
    #[must_use]
    pub fn model(&self) -> &'a WorkloadModel {
        self.model
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec_time::ExecTimeModel;
    use crate::types::{Frequency, Platform};

    fn arm_bundle() -> WorkloadModel {
        WorkloadModel::synthetic_cpu_bound(&Platform::reference_arm(), "ep", 60.0)
    }

    #[test]
    fn hand_computed_energy() {
        let m = arm_bundle();
        let em = ExecTimeModel::new(&m);
        let en = EnergyModel::new(&m);
        let cfg = NodeConfig::new(1, 4, Frequency::from_ghz(1.4));
        let tb = em.predict(&cfg, 1e6);
        let e = en.energy(&cfg, &tb, tb.total);

        // Synthetic ARM power at fmax: 0.8 W active, 0.48 W stall per core.
        let expect_core = (0.8 * tb.t_act + 0.48 * tb.t_stall) * 4.0;
        assert!((e.e_core - expect_core).abs() < 1e-12);
        // mem: 5 % of 5 W = 0.25 W over t_mem.
        assert!((e.e_mem - 0.25 * tb.t_mem).abs() < 1e-12);
        // no I/O for the CPU-bound bundle.
        assert_eq!(e.e_io, 0.0);
        // idle: 1.8 W over the job.
        assert!((e.e_idle - 1.8 * tb.total).abs() < 1e-12);
        assert!((e.total() - (e.e_core + e.e_mem + e.e_io + e.e_idle)).abs() < 1e-15);
    }

    #[test]
    fn energy_scales_with_node_count() {
        let m = arm_bundle();
        let em = ExecTimeModel::new(&m);
        let en = EnergyModel::new(&m);
        let one = NodeConfig::new(1, 4, Frequency::from_ghz(1.4));
        let two = NodeConfig::new(2, 4, Frequency::from_ghz(1.4));
        // Same share of work per node → same per-node times.
        let tb1 = em.predict(&one, 1e6);
        let tb2 = em.predict(&two, 2e6);
        assert!((tb1.total - tb2.total).abs() < 1e-12);
        let e1 = en.energy(&one, &tb1, tb1.total).total();
        let e2 = en.energy(&two, &tb2, tb2.total).total();
        assert!((e2 - 2.0 * e1).abs() < 1e-9);
    }

    #[test]
    fn idle_floor_covers_full_job_duration() {
        // A type that finishes early (unbalanced split) still idles until
        // the whole job completes.
        let m = arm_bundle();
        let em = ExecTimeModel::new(&m);
        let en = EnergyModel::new(&m);
        let cfg = NodeConfig::new(1, 4, Frequency::from_ghz(1.4));
        let tb = em.predict(&cfg, 1e6);
        let matched = en.energy(&cfg, &tb, tb.total);
        let unbalanced = en.energy(&cfg, &tb, tb.total * 2.0);
        assert!(unbalanced.total() > matched.total());
        assert!((unbalanced.e_idle - 2.0 * matched.e_idle).abs() < 1e-12);
        assert!((unbalanced.e_core - matched.e_core).abs() < 1e-15);
    }

    #[test]
    fn always_on_window_matches_legacy_energy_bitwise() {
        let m = arm_bundle();
        let em = ExecTimeModel::new(&m);
        let en = EnergyModel::new(&m);
        let cfg = NodeConfig::new(2, 3, Frequency::from_ghz(1.4));
        let tb = em.predict(&cfg, 1e6);
        let legacy = en.energy(&cfg, &tb, tb.total * 3.0);
        let windowed = en.energy_windowed(&cfg, &tb, &PoweredWindow::always_on(tb.total * 3.0));
        assert_eq!(legacy, windowed);
    }

    #[test]
    fn parked_window_costs_sleep_power_not_idle_w() {
        // Regression for the idle/park accounting bug: a node parked for
        // part of the window must cost its domain's sleep floor over the
        // parked interval, not the full `idle_w · T` floor.
        let m = arm_bundle();
        let em = ExecTimeModel::new(&m);
        let en = EnergyModel::new(&m);
        let cfg = NodeConfig::new(1, 4, Frequency::from_ghz(1.4));
        let tb = em.predict(&cfg, 1e6);
        let dvfs = crate::dvfs::NodeDvfs::synthetic_ladder(&m.power, m.platform.cores, 0.1);
        let sleep_w = dvfs.domain.asleep_w();
        assert!(sleep_w < m.power.idle_w);

        let window_s = 10.0 * tb.total;
        let parked_s = window_s - tb.total;
        let buggy = en.energy(&cfg, &tb, window_s);
        let fixed = en.energy_windowed(
            &cfg,
            &tb,
            &PoweredWindow {
                on_s: tb.total,
                off_s: parked_s,
                off_floor_w: sleep_w,
            },
        );
        let expect_floor = m.power.idle_w * tb.total + sleep_w * parked_s;
        assert!((fixed.e_idle - expect_floor).abs() < 1e-9 * expect_floor);
        assert!(fixed.e_idle < buggy.e_idle);
        // Busy components are untouched by the window.
        assert_eq!(fixed.e_core, buggy.e_core);
        assert_eq!(fixed.e_mem, buggy.e_mem);
        assert_eq!(fixed.e_io, buggy.e_io);
    }

    #[test]
    fn lower_frequency_uses_less_power_but_more_time() {
        let m = arm_bundle();
        let em = ExecTimeModel::new(&m);
        let en = EnergyModel::new(&m);
        let fast = NodeConfig::new(1, 4, Frequency::from_ghz(1.4));
        let slow = NodeConfig::new(1, 4, Frequency::from_ghz(0.5));
        let tb_f = em.predict(&fast, 1e6);
        let tb_s = em.predict(&slow, 1e6);
        assert!(tb_s.total > tb_f.total);
        let pf = en.average_power_w(&fast, &tb_f, tb_f.total);
        let ps = en.average_power_w(&slow, &tb_s, tb_s.total);
        assert!(ps < pf, "slow {ps} W should be below fast {pf} W");
    }

    #[test]
    fn average_power_at_zero_duration_is_idle() {
        let m = arm_bundle();
        let en = EnergyModel::new(&m);
        let cfg = NodeConfig::new(3, 4, Frequency::from_ghz(1.4));
        let p = en.average_power_w(&cfg, &TimeBreakdown::zero(), 0.0);
        assert!((p - 3.0 * 1.8).abs() < 1e-12);
    }

    #[test]
    fn breakdown_add() {
        let a = EnergyBreakdown {
            e_core: 1.0,
            e_mem: 2.0,
            e_io: 3.0,
            e_idle: 4.0,
        };
        let b = EnergyBreakdown {
            e_core: 0.5,
            e_mem: 0.5,
            e_io: 0.5,
            e_idle: 0.5,
        };
        let c = a.add(&b);
        assert!((c.total() - 12.0).abs() < 1e-12);
    }
}
