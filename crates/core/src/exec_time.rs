//! Execution-time model — Eq. (1)–(11) of the paper (§II-B).
//!
//! For one node *type* servicing its share `W_t` of the job, the model
//! accounts for three overlapping response times:
//!
//! * **core** — work cycles plus non-memory stalls: `T_core = I_core · (WPI +
//!   SPI_core) / f` (Eq. 7–8), with `I_core = W_t · I_Ps / (n · c_act)`
//!   (Eq. 5–6);
//! * **memory** — work plus memory stall cycles: `T_mem = I_core · (WPI +
//!   SPI_mem(f, c_act)) / f` (Eq. 9–10), where `SPI_mem` grows linearly with
//!   frequency and with contention from additional active cores;
//! * **I/O** — `T_I/O = W_t · max(transfer, 1/λ_I/O) / n` (Eq. 11).
//!
//! Because cores are out-of-order and I/O is DMA-driven, the slower of
//! `max(T_core, T_mem)` (the CPU response time, Eq. 3) and `T_I/O` hides the
//! faster one entirely: `T = max(T_CPU, T_I/O)` (Eq. 2).

use serde::{Deserialize, Serialize};

use crate::config::NodeConfig;
use crate::error::{Error, Result};
use crate::profile::WorkloadModel;

/// Which resource bounds the execution (the arg-max of Eq. 2–3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Bottleneck {
    /// Core work + non-memory stalls dominate.
    Core,
    /// Memory stalls dominate.
    Memory,
    /// The network device dominates.
    Io,
}

/// Full decomposition of the predicted execution time of one node type's
/// share of the job. All values in seconds.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TimeBreakdown {
    /// Core response time `T_core` (Eq. 8).
    pub t_core: f64,
    /// Memory response time `T_mem` (Eq. 10).
    pub t_mem: f64,
    /// CPU response time `T_CPU = max(T_core, T_mem)` (Eq. 3).
    pub t_cpu: f64,
    /// I/O response time `T_I/O` (Eq. 11).
    pub t_io: f64,
    /// Total time `T = max(T_CPU, T_I/O)` (Eq. 2).
    pub total: f64,
    /// Time a core spends on work cycles only (`T_act`, Eq. 16).
    pub t_act: f64,
    /// Time a core spends on non-memory stalls (`T_stall`, Eq. 17).
    pub t_stall: f64,
    /// I/O device busy time per node (transfer only; used for `E_I/O`).
    pub t_io_busy: f64,
    /// Instructions executed per core (`I_core`, Eq. 6).
    pub i_core: f64,
    /// Average active cores per node (`c_act = U_CPU · c`).
    pub c_act: f64,
    /// The binding resource.
    pub bottleneck: Bottleneck,
}

impl TimeBreakdown {
    /// A zero-work breakdown (the node type received no share of the job).
    #[must_use]
    pub fn zero() -> Self {
        Self {
            t_core: 0.0,
            t_mem: 0.0,
            t_cpu: 0.0,
            t_io: 0.0,
            total: 0.0,
            t_act: 0.0,
            t_stall: 0.0,
            t_io_busy: 0.0,
            i_core: 0.0,
            c_act: 0.0,
            bottleneck: Bottleneck::Core,
        }
    }
}

/// The execution-time model for one node type, bound to its measured
/// workload bundle.
#[derive(Debug, Clone)]
pub struct ExecTimeModel<'a> {
    model: &'a WorkloadModel,
}

impl<'a> ExecTimeModel<'a> {
    /// Bind the model to a (workload, platform) measurement bundle.
    #[must_use]
    pub fn new(model: &'a WorkloadModel) -> Self {
        Self { model }
    }

    /// Check that a node configuration is realizable on this platform.
    pub fn check_config(&self, cfg: &NodeConfig) -> Result<()> {
        let p = &self.model.platform;
        if cfg.cores == 0 || cfg.cores > p.cores {
            return Err(Error::InvalidCoreCount {
                platform: p.name.clone(),
                cores: cfg.cores,
            });
        }
        // The valid operating points are the ladder's effective
        // frequencies, matched exactly (a lift's are the P-states).
        if !self.model.dvfs.ladder.supports_effective_freq(cfg.freq) {
            return Err(Error::InvalidFrequency {
                platform: p.name.clone(),
                ghz: cfg.freq.ghz(),
            });
        }
        if cfg.nodes == 0 {
            return Err(Error::InvalidInput(format!(
                "node config for `{}` deploys zero nodes",
                p.name
            )));
        }
        Ok(())
    }

    /// Predict the execution-time breakdown for `w_units` work units spread
    /// over `cfg.nodes` identical nodes, each using `cfg.cores` cores at
    /// `cfg.freq` (Eq. 2–11). `w_units` may be fractional: the mix-and-match
    /// splitter treats work as a continuous quantity, as does the paper.
    ///
    /// # Panics
    /// Debug-asserts that the configuration was validated via
    /// [`Self::check_config`] (release builds compute with the given values).
    #[must_use]
    pub fn predict(&self, cfg: &NodeConfig, w_units: f64) -> TimeBreakdown {
        debug_assert!(self.check_config(cfg).is_ok(), "invalid node config");
        debug_assert!(w_units >= 0.0 && w_units.is_finite());
        if w_units == 0.0 {
            return TimeBreakdown::zero();
        }
        let prof = &self.model.profile;
        let p = &self.model.platform;
        let f_hz = cfg.freq.hz();
        let n = cfg.nodes as f64;

        // Eq. 5: instructions for this type's share.
        let instructions = w_units * prof.i_ps;
        // c_act = U_CPU · c (Table 2), measured at the baseline run and
        // rescaled to this configuration's frequency; Eq. 6: per-core
        // instruction share.
        let c_act = prof.c_act(cfg.cores, cfg.freq);
        let i_core = instructions / (n * c_act);

        // Eq. 7–8: core response time.
        let t_act = i_core * prof.wpi / f_hz;
        let t_stall = i_core * prof.spi_core / f_hz;
        let t_core = t_act + t_stall;

        // Eq. 9–10: memory response time, with SPI_mem measured at this
        // frequency and contention level.
        let spi_mem = prof.spi_mem.eval(c_act, cfg.freq);
        let t_mem = i_core * (prof.wpi + spi_mem) / f_hz;

        // Eq. 3: out-of-order overlap between core work and memory waits.
        let t_cpu = t_core.max(t_mem);

        // Eq. 11: DMA-driven I/O, overlapped with CPU activity.
        let t_io = w_units * prof.io.unit_service_s(p.io_bandwidth_bps) / n;
        let t_io_busy = w_units * prof.io.unit_busy_s(p.io_bandwidth_bps) / n;

        // Eq. 2.
        let total = t_cpu.max(t_io);
        // Near-ties go to I/O: for an I/O-bound workload the measured
        // U_CPU makes the predicted CPU response stretch to the I/O time
        // by construction (see `WorkloadProfile::active_cores`), so a CPU
        // time within a couple percent of the I/O time means the device,
        // not the cores, is the real constraint.
        let bottleneck = if t_io > 0.98 * t_cpu && t_io > 0.0 {
            Bottleneck::Io
        } else if t_mem > t_core {
            Bottleneck::Memory
        } else {
            Bottleneck::Core
        };

        TimeBreakdown {
            t_core,
            t_mem,
            t_cpu,
            t_io,
            total,
            t_act,
            t_stall,
            t_io_busy,
            i_core,
            c_act,
            bottleneck,
        }
    }

    /// Execution *rate* of the configured node type in work units per second
    /// (the reciprocal slope of `T(W)`), used by the closed-form matching
    /// path. Computed at one work unit; `T` is linear in `W` (both the CPU
    /// and the I/O terms scale with `W`), so the rate is exact.
    #[must_use]
    pub fn rate_units_per_s(&self, cfg: &NodeConfig) -> f64 {
        let t = self.predict(cfg, 1.0).total;
        if t > 0.0 {
            1.0 / t
        } else {
            f64::INFINITY
        }
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
    use crate::profile::{IoProfile, SpiMemFit};
    use crate::stats::LinearFit;
    use crate::types::{Frequency, Platform};

    fn cpu_bound_arm() -> WorkloadModel {
        WorkloadModel::synthetic_cpu_bound(&Platform::reference_arm(), "ep", 60.0)
    }

    #[test]
    fn hand_computed_cpu_bound() {
        // 1e6 units × 60 instr = 6e7 instructions on 1 node, 4 cores at
        // 1.4 GHz, U_CPU = 1 → i_core = 1.5e7.
        // t_core = 1.5e7 × (0.8 + 0.5) / 1.4e9 = 13.93 ms
        // t_mem  = 1.5e7 × (0.8 + 0.1) / 1.4e9 =  9.64 ms  (core-bound)
        let m = cpu_bound_arm();
        let em = ExecTimeModel::new(&m);
        let cfg = NodeConfig::new(1, 4, Frequency::from_ghz(1.4));
        let tb = em.predict(&cfg, 1e6);
        assert!((tb.i_core - 1.5e7).abs() < 1.0);
        assert!((tb.t_core - 1.5e7 * 1.3 / 1.4e9).abs() < 1e-12);
        assert!((tb.t_mem - 1.5e7 * 0.9 / 1.4e9).abs() < 1e-12);
        assert_eq!(tb.bottleneck, Bottleneck::Core);
        assert!((tb.total - tb.t_core).abs() < 1e-15);
        assert_eq!(tb.t_io, 0.0);
        // t_act + t_stall = t_core
        assert!((tb.t_act + tb.t_stall - tb.t_core).abs() < 1e-15);
    }

    #[test]
    fn scales_inversely_with_nodes_cores_freq() {
        let m = cpu_bound_arm();
        let em = ExecTimeModel::new(&m);
        let base = em
            .predict(&NodeConfig::new(1, 1, Frequency::from_ghz(0.2)), 1e6)
            .total;
        let two_nodes = em
            .predict(&NodeConfig::new(2, 1, Frequency::from_ghz(0.2)), 1e6)
            .total;
        let two_cores = em
            .predict(&NodeConfig::new(1, 2, Frequency::from_ghz(0.2)), 1e6)
            .total;
        let faster = em
            .predict(&NodeConfig::new(1, 1, Frequency::from_ghz(0.8)), 1e6)
            .total;
        assert!((two_nodes - base / 2.0).abs() < 1e-12);
        assert!((two_cores - base / 2.0).abs() < 1e-12);
        assert!((faster - base * 0.25).abs() < 1e-12);
    }

    #[test]
    fn linearity_in_work() {
        let m = cpu_bound_arm();
        let em = ExecTimeModel::new(&m);
        let cfg = NodeConfig::new(3, 2, Frequency::from_ghz(1.1));
        let t1 = em.predict(&cfg, 1e5).total;
        let t10 = em.predict(&cfg, 1e6).total;
        assert!((t10 - 10.0 * t1).abs() < 1e-12 * t10.max(1.0));
        // rate × T(W) == W
        let r = em.rate_units_per_s(&cfg);
        assert!((r * t10 - 1e6).abs() < 1e-3);
    }

    #[test]
    fn io_bound_dominated_by_network() {
        // 1 KiB/unit over ARM's 100 Mbps: 81.92 µs/unit; CPU demand tiny.
        let m = WorkloadModel::synthetic_io_bound(
            &Platform::reference_arm(),
            "memcached",
            100.0,
            1024.0,
        );
        let em = ExecTimeModel::new(&m);
        let cfg = NodeConfig::new(4, 4, Frequency::from_ghz(1.4));
        let tb = em.predict(&cfg, 50_000.0);
        assert_eq!(tb.bottleneck, Bottleneck::Io);
        assert!((tb.t_io - 50_000.0 * 8192.0 / 1e8 / 4.0).abs() < 1e-9);
        assert!((tb.total - tb.t_io).abs() < 1e-15);
        // Frequency changes don't matter when I/O-bound.
        let slow = em.predict(&NodeConfig::new(4, 4, Frequency::from_ghz(0.8)), 50_000.0);
        assert!((slow.total - tb.total).abs() < 1e-15);
    }

    #[test]
    fn memory_bound_when_spi_mem_large() {
        let platform = Platform::reference_amd();
        let mut m = WorkloadModel::synthetic_cpu_bound(&platform, "x264", 1000.0);
        m.profile.spi_mem = SpiMemFit::new(vec![(
            1,
            LinearFit {
                intercept: 0.5,
                slope: 2.0,
                r2: 1.0,
            },
        )]);
        let em = ExecTimeModel::new(&m);
        let cfg = NodeConfig::new(1, 6, Frequency::from_ghz(2.1));
        let tb = em.predict(&cfg, 1000.0);
        // SPI_mem = 0.5 + 2·2.1 = 4.7 > SPI_core = 0.5 → memory bound.
        assert_eq!(tb.bottleneck, Bottleneck::Memory);
        assert!(tb.t_mem > tb.t_core);
        assert!((tb.total - tb.t_mem).abs() < 1e-15);
    }

    #[test]
    fn u_cpu_reduces_active_cores() {
        let platform = Platform::reference_arm();
        let mut m = WorkloadModel::synthetic_cpu_bound(&platform, "w", 100.0);
        m.profile.active_cores = 2.0; // U_CPU = 0.5 at the 4-core baseline
        let em = ExecTimeModel::new(&m);
        let tb = em.predict(&NodeConfig::new(1, 4, Frequency::from_ghz(1.4)), 1e6);
        assert!((tb.c_act - 2.0).abs() < 1e-12);
        // Half the active cores → per-core instruction share doubles.
        assert!((tb.i_core - 1e8 / 2.0).abs() < 1e-3);
    }

    #[test]
    fn io_bound_prediction_stable_across_cores_and_freq() {
        // The regression the baseline-anchored c_act fixes: an I/O-bound
        // workload measured at (4 cores, fmax) with tiny utilization must
        // not be predicted CPU-bound at (1 core, fmin).
        let platform = Platform::reference_arm();
        let mut m = WorkloadModel::synthetic_io_bound(&platform, "kv", 2000.0, 1024.0);
        m.profile.active_cores = 0.1;
        let em = ExecTimeModel::new(&m);
        let at_max = em.predict(&NodeConfig::new(1, 4, Frequency::from_ghz(1.4)), 50_000.0);
        let at_min = em.predict(&NodeConfig::new(1, 1, Frequency::from_ghz(0.2)), 50_000.0);
        assert_eq!(at_max.bottleneck, Bottleneck::Io);
        assert_eq!(at_min.bottleneck, Bottleneck::Io);
        assert!((at_max.total - at_min.total).abs() < 1e-12);
    }

    #[test]
    fn zero_work_is_zero_time() {
        let m = cpu_bound_arm();
        let em = ExecTimeModel::new(&m);
        let tb = em.predict(&NodeConfig::new(2, 2, Frequency::from_ghz(0.5)), 0.0);
        assert_eq!(tb.total, 0.0);
        assert_eq!(tb.t_cpu, 0.0);
    }

    #[test]
    fn config_validation() {
        let m = cpu_bound_arm();
        let em = ExecTimeModel::new(&m);
        assert!(em
            .check_config(&NodeConfig::new(1, 5, Frequency::from_ghz(1.4)))
            .is_err());
        assert!(em
            .check_config(&NodeConfig::new(1, 4, Frequency::from_ghz(2.1)))
            .is_err());
        assert!(em
            .check_config(&NodeConfig::new(0, 4, Frequency::from_ghz(1.4)))
            .is_err());
        assert!(em
            .check_config(&NodeConfig::new(1, 4, Frequency::from_ghz(1.4)))
            .is_ok());
    }

    #[test]
    fn lambda_floor_binds_sparse_arrivals() {
        // λ = 100 req/s with trivial transfer: inter-arrival gap dominates.
        let platform = Platform::reference_amd();
        let mut m = WorkloadModel::synthetic_io_bound(&platform, "sparse", 10.0, 64.0);
        m.profile.io = IoProfile {
            bytes_per_unit: 64.0,
            lambda_io: 100.0,
        };
        m.profile.active_cores = 3.0;
        let em = ExecTimeModel::new(&m);
        let tb = em.predict(&NodeConfig::new(2, 6, Frequency::from_ghz(2.1)), 1000.0);
        // per-unit service = max(64·8/1e9, 1/100) = 10 ms → ×1000/2 = 5 s.
        assert!((tb.t_io - 5.0).abs() < 1e-9);
        // but the device is only busy for the transfers.
        assert!((tb.t_io_busy - 1000.0 * 512.0 / 1e9 / 2.0).abs() < 1e-12);
    }
}
