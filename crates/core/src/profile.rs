//! Trace-driven model inputs — the `+`-marked (measured) parameters of the
//! paper's Table 2.
//!
//! The model never looks at a workload's source code. Everything it knows
//! about a (workload, platform) pair is captured here:
//!
//! * [`WorkloadProfile`] — instructions per representative phase `Ps`
//!   (`IPs`), work cycles per instruction (`WPI`), non-memory stall cycles
//!   per instruction (`SPI_core`), the `SPI_mem(f, c)` fits, the CPU
//!   utilization `U_CPU` and the I/O demand.
//! * [`PowerProfile`] — per-frequency active/stall core power, memory and
//!   I/O device active power, and the node idle floor.
//!
//! In the paper these numbers come from `perf` hardware counters and a
//! Yokogawa WT210 power meter on single-node baseline runs (§II-D); in this
//! reproduction they come from the same procedure executed against the
//! `hecmix-sim` substrate by `hecmix-profile`. Synthetic constructors are
//! provided so the model can also be exercised standalone.

use serde::{Deserialize, Serialize};

pub use crate::stats::LinearFit;

use crate::dvfs::NodeDvfs;
use crate::error::{Error, Result};
use crate::types::{Frequency, Platform};

/// Fitted `SPI_mem` surface: for each measured active-core count, a linear
/// fit over core frequency in GHz (§III-C validates linearity, Fig. 3 shows
/// `r² ≥ 0.94`). Evaluation interpolates linearly between core counts.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpiMemFit {
    /// `(active cores, fit over f[GHz])`, ascending in cores, non-empty.
    pub per_cores: Vec<(u32, LinearFit)>,
}

impl SpiMemFit {
    /// Build from per-core-count fits. Sorts by core count.
    ///
    /// # Panics
    /// Panics if `per_cores` is empty. Use [`Self::try_new`] when the fits
    /// come from user input (e.g. a model file).
    #[must_use]
    pub fn new(per_cores: Vec<(u32, LinearFit)>) -> Self {
        Self::try_new(per_cores).expect("SpiMemFit needs at least one fit")
    }

    /// Fallible constructor for fits sourced from user input: an empty fit
    /// list is an [`Error::InvalidInput`], not a panic.
    ///
    /// # Errors
    /// [`Error::InvalidInput`] when `per_cores` is empty.
    pub fn try_new(mut per_cores: Vec<(u32, LinearFit)>) -> Result<Self> {
        if per_cores.is_empty() {
            return Err(Error::InvalidInput(
                "SpiMemFit needs at least one per-core fit".into(),
            ));
        }
        per_cores.sort_by_key(|(c, _)| *c);
        Ok(Self { per_cores })
    }

    /// A frequency-independent, contention-free constant `SPI_mem`.
    #[must_use]
    pub fn constant(spi_mem: f64) -> Self {
        Self::new(vec![(
            1,
            LinearFit {
                intercept: spi_mem,
                slope: 0.0,
                r2: 1.0,
            },
        )])
    }

    /// Evaluate at `cores` active cores (fractional allowed — the model uses
    /// the *average* active core count `c_act = U_CPU · c`) and frequency.
    /// Clamped extrapolation beyond the measured core-count range; negative
    /// fit values are clamped to zero (a stall count cannot be negative).
    #[must_use]
    pub fn eval(&self, cores: f64, f: Frequency) -> f64 {
        let ghz = f.ghz();
        let pts = &self.per_cores;
        let v = if cores <= pts[0].0 as f64 {
            pts[0].1.eval(ghz)
        } else if cores >= pts[pts.len() - 1].0 as f64 {
            pts[pts.len() - 1].1.eval(ghz)
        } else {
            // Linear interpolation between bracketing core counts.
            let hi = pts
                .iter()
                .position(|(c, _)| (*c as f64) >= cores)
                .expect("cores is within range");
            let (c1, fit1) = pts[hi - 1];
            let (c2, fit2) = pts[hi];
            let w = (cores - c1 as f64) / (c2 as f64 - c1 as f64);
            fit1.eval(ghz) * (1.0 - w) + fit2.eval(ghz) * w
        };
        v.max(0.0)
    }

    /// Minimum `r²` across the per-core fits (the paper's quality gate).
    #[must_use]
    pub fn min_r2(&self) -> f64 {
        self.per_cores
            .iter()
            .map(|(_, fit)| fit.r2)
            .fold(f64::INFINITY, f64::min)
    }
}

/// I/O service demand of a workload on one platform.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct IoProfile {
    /// Bytes transferred over the network per work unit.
    pub bytes_per_unit: f64,
    /// I/O request inter-arrival rate `λ_I/O` offered to one node, in
    /// requests per second. The per-unit I/O response floor is `1/λ_I/O`
    /// (Eq. 11); use `f64::INFINITY` when arrivals never limit the device.
    pub lambda_io: f64,
}

impl IoProfile {
    /// A workload with no network I/O at all.
    #[must_use]
    pub fn none() -> Self {
        Self {
            bytes_per_unit: 0.0,
            lambda_io: f64::INFINITY,
        }
    }

    /// Per-unit I/O service time on a platform with the given NIC bandwidth:
    /// `max(transfer time, 1/λ)` (inner term of Eq. 11).
    #[must_use]
    pub fn unit_service_s(&self, io_bandwidth_bps: f64) -> f64 {
        let transfer = self.bytes_per_unit * 8.0 / io_bandwidth_bps;
        let gap = if self.lambda_io.is_finite() {
            1.0 / self.lambda_io
        } else {
            0.0
        };
        transfer.max(gap)
    }

    /// Per-unit I/O *device busy* time (transfer only; inter-arrival gaps
    /// leave the device idle). Used by the energy model for `E_I/O`.
    #[must_use]
    pub fn unit_busy_s(&self, io_bandwidth_bps: f64) -> f64 {
        self.bytes_per_unit * 8.0 / io_bandwidth_bps
    }
}

/// Architectural service demand of a workload on one platform — the
/// `+`-marked rows of Table 2.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadProfile {
    /// Machine instructions required to execute one representative phase
    /// `Ps` (one work unit) on this platform's ISA (`IPs`).
    pub i_ps: f64,
    /// Work cycles per instruction (`WPI`). Constant as the workload scales
    /// from `Ps` to `P` (validated in §III-B, Fig. 2).
    pub wpi: f64,
    /// Non-memory stall cycles per instruction (`SPI_core`). Also constant
    /// across problem sizes.
    pub spi_core: f64,
    /// Memory stall cycles per instruction as a function of frequency and
    /// active cores (`SPI_mem`).
    pub spi_mem: SpiMemFit,
    /// Average number of *active* cores measured during the baseline run
    /// (`c_act = U_CPU · c` of Table 2, evaluated at the baseline
    /// configuration). For CPU-bound workloads this equals the baseline
    /// core count; for I/O-bound workloads it is small — cores serialize
    /// on the device.
    ///
    /// When the model predicts a *different* configuration `(c, f)` it
    /// rescales this measurement: busy time per instruction grows as `1/f`,
    /// so the active-core count scales with `f_baseline / f`, capped at the
    /// configured core count: `c_act(c, f) = min(c, active_cores ·
    /// f_baseline / f)`.
    pub active_cores: f64,
    /// Frequency of the baseline characterization run.
    pub baseline_freq: Frequency,
    /// Network I/O demand.
    pub io: IoProfile,
}

impl WorkloadProfile {
    /// Validate the parameter domain.
    pub fn validate(&self) -> Result<()> {
        let bad = |what: &str| Err(Error::InvalidInput(format!("WorkloadProfile: {what}")));
        if !(self.i_ps > 0.0) || !self.i_ps.is_finite() {
            return bad("IPs must be positive and finite");
        }
        if !(self.wpi > 0.0) || !self.wpi.is_finite() {
            return bad("WPI must be positive and finite");
        }
        if self.spi_core < 0.0 || !self.spi_core.is_finite() {
            return bad("SPI_core must be non-negative and finite");
        }
        if !(self.active_cores > 0.0) || !self.active_cores.is_finite() {
            return bad("active_cores must be positive and finite");
        }
        if self.spi_mem.per_cores.is_empty() {
            return bad("SPI_mem needs at least one per-core fit");
        }
        if self
            .spi_mem
            .per_cores
            .iter()
            .any(|(_, fit)| !fit.intercept.is_finite() || !fit.slope.is_finite())
        {
            return bad("SPI_mem fit coefficients must be finite");
        }
        if !(self.baseline_freq.hz() > 0.0) || !self.baseline_freq.hz().is_finite() {
            return bad("baseline frequency must be positive and finite");
        }
        if !(self.io.bytes_per_unit >= 0.0) || !self.io.bytes_per_unit.is_finite() {
            return bad("I/O bytes per unit must be non-negative and finite");
        }
        if !(self.io.lambda_io > 0.0) {
            return bad("lambda_io must be positive (use +inf for unconstrained)");
        }
        Ok(())
    }

    /// The model's average active-core count for a target configuration
    /// (`c_act`, see [`Self::active_cores`]).
    #[must_use]
    pub fn c_act(&self, cores: u32, freq: Frequency) -> f64 {
        let scaled = self.active_cores * self.baseline_freq.hz() / freq.hz();
        scaled.min(f64::from(cores))
    }
}

/// Power characterization of one platform (§II-D-2): per-frequency core
/// powers from the `cpumax` / `memstall` micro-benchmarks, device powers,
/// and the idle floor.
///
/// All core powers are **incremental watts per core** above the idle floor;
/// the idle floor covers the whole node (cores in C0, memory in standby,
/// NIC idle, and "the rest of the system").
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PowerProfile {
    /// `(frequency, active watts/core, stall watts/core)`, ascending in
    /// frequency; looked up by nearest frequency.
    pub core_w: Vec<(Frequency, f64, f64)>,
    /// Incremental memory power while servicing requests (`P_mem`), watts.
    pub mem_w: f64,
    /// Incremental network device power while transferring (`P_I/O`), watts.
    pub io_w: f64,
    /// Node idle power (`P_idle`), watts.
    pub idle_w: f64,
}

impl PowerProfile {
    /// Validate the parameter domain.
    pub fn validate(&self) -> Result<()> {
        if self.core_w.is_empty() {
            return Err(Error::InvalidInput(
                "PowerProfile: empty core power table".into(),
            ));
        }
        if self
            .core_w
            .iter()
            .any(|(f, _, _)| !(f.hz() > 0.0) || !f.hz().is_finite())
        {
            return Err(Error::InvalidInput(
                "PowerProfile: core power frequencies must be positive and finite".into(),
            ));
        }
        if self
            .core_w
            .iter()
            .any(|(_, a, s)| !(*a >= 0.0) || !a.is_finite() || !(*s >= 0.0) || !s.is_finite())
        {
            return Err(Error::InvalidInput(
                "PowerProfile: core powers must be non-negative and finite".into(),
            ));
        }
        if !(self.mem_w >= 0.0)
            || !self.mem_w.is_finite()
            || !(self.io_w >= 0.0)
            || !self.io_w.is_finite()
            || !(self.idle_w >= 0.0)
            || !self.idle_w.is_finite()
        {
            return Err(Error::InvalidInput(
                "PowerProfile: device/idle powers must be non-negative and finite".into(),
            ));
        }
        Ok(())
    }

    /// Active watts per core at frequency `f` (nearest measured P-state).
    #[must_use]
    pub fn core_active_w(&self, f: Frequency) -> f64 {
        self.nearest(f).1
    }

    /// Stall watts per core at frequency `f` (nearest measured P-state).
    #[must_use]
    pub fn core_stall_w(&self, f: Frequency) -> f64 {
        self.nearest(f).2
    }

    fn nearest(&self, f: Frequency) -> (Frequency, f64, f64) {
        // total_cmp keeps the lookup panic-free even if an unvalidated
        // profile carries a NaN frequency (validate() rejects those, but
        // the `core_w` field is public).
        *self
            .core_w
            .iter()
            .min_by(|a, b| {
                let da = (a.0.hz() - f.hz()).abs();
                let db = (b.0.hz() - f.hz()).abs();
                da.total_cmp(&db)
            })
            .expect("validated power profile is non-empty")
    }

    /// A synthetic power profile derived from a platform's envelope:
    /// per-core active power scales as `(f/fmax)^1.8` (dynamic power with
    /// DVFS-coupled voltage), stall power is 60 % of active, memory and I/O
    /// device powers are small fixed fractions of peak. Useful for
    /// model-only studies; the experiment pipeline uses measured profiles
    /// from `hecmix-profile` instead.
    #[must_use]
    pub fn synthetic(platform: &Platform) -> Self {
        let per_core_peak = (platform.peak_power_w - platform.idle_power_w) / platform.cores as f64;
        let fmax = platform.fmax().ghz();
        let core_w = platform
            .freqs
            .iter()
            .map(|&f| {
                let act = per_core_peak * (f.ghz() / fmax).powf(1.8);
                (f, act, act * 0.6)
            })
            .collect();
        Self {
            core_w,
            mem_w: platform.peak_power_w * 0.05,
            io_w: platform.peak_power_w * 0.03,
            idle_w: platform.idle_power_w,
        }
    }
}

/// Everything the model needs about one (workload, platform) pair: the
/// platform description plus its measured workload and power profiles.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadModel {
    /// Workload name (e.g. `"ep"`, `"memcached"`).
    pub workload: String,
    /// The node platform this bundle was characterized on.
    pub platform: Platform,
    /// Architectural service demands.
    pub profile: WorkloadProfile,
    /// Power characterization.
    pub power: PowerProfile,
    /// Per-type OPP ladder and power-domain tree, which price every
    /// operating point. A two-point model carries
    /// [`NodeDvfs::lift`]`(&platform, &power)`; lift again after editing
    /// `platform` or `power`, or the ladder keeps pricing the old values.
    pub dvfs: NodeDvfs,
}

impl WorkloadModel {
    /// Validate all components, and that the ladder's deep-sleep floor
    /// does not exceed the model's idle floor (parking a node must never
    /// cost more than idling it).
    pub fn validate(&self) -> Result<()> {
        self.platform.validate()?;
        self.profile.validate()?;
        self.power.validate()?;
        let d = &self.dvfs;
        d.validate()?;
        if d.domain.asleep_w() > self.power.idle_w {
            return Err(Error::InvalidInput(format!(
                "model {}/{}: deep-sleep floor {} W exceeds the idle floor {} W",
                self.workload,
                self.platform.name,
                d.domain.asleep_w(),
                self.power.idle_w
            )));
        }
        Ok(())
    }

    /// Builder-style replacement of the ladder.
    #[must_use]
    pub fn with_dvfs(mut self, dvfs: NodeDvfs) -> Self {
        self.dvfs = dvfs;
        self
    }

    /// Synthetic CPU-bound bundle: `i_ps` instructions per unit, a plausible
    /// WPI/SPI mix, negligible memory stalls and no I/O. Handy for examples
    /// and doc tests; experiments use measured profiles.
    #[must_use]
    pub fn synthetic_cpu_bound(platform: &Platform, workload: &str, i_ps: f64) -> Self {
        let power = PowerProfile::synthetic(platform);
        Self {
            workload: workload.to_owned(),
            platform: platform.clone(),
            dvfs: NodeDvfs::lift(platform, &power),
            profile: WorkloadProfile {
                i_ps,
                wpi: 0.8,
                spi_core: 0.5,
                spi_mem: SpiMemFit::constant(0.1),
                active_cores: f64::from(platform.cores),
                baseline_freq: platform.fmax(),
                io: IoProfile::none(),
            },
            power,
        }
    }

    /// Synthetic I/O-bound bundle: light CPU demand, `bytes_per_unit` of
    /// network traffic per unit.
    #[must_use]
    pub fn synthetic_io_bound(
        platform: &Platform,
        workload: &str,
        i_ps: f64,
        bytes_per_unit: f64,
    ) -> Self {
        let power = PowerProfile::synthetic(platform);
        Self {
            workload: workload.to_owned(),
            platform: platform.clone(),
            dvfs: NodeDvfs::lift(platform, &power),
            profile: WorkloadProfile {
                i_ps,
                wpi: 0.9,
                spi_core: 0.6,
                spi_mem: SpiMemFit::constant(0.3),
                active_cores: 0.6 * f64::from(platform.cores),
                baseline_freq: platform.fmax(),
                io: IoProfile {
                    bytes_per_unit,
                    lambda_io: f64::INFINITY,
                },
            },
            power,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arm() -> Platform {
        Platform::reference_arm()
    }

    #[test]
    fn spi_mem_constant_eval() {
        let fit = SpiMemFit::constant(0.42);
        assert!((fit.eval(1.0, Frequency::from_ghz(0.2)) - 0.42).abs() < 1e-12);
        assert!((fit.eval(7.5, Frequency::from_ghz(2.1)) - 0.42).abs() < 1e-12);
        assert!((fit.min_r2() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn spi_mem_interpolates_between_core_counts() {
        let fit = SpiMemFit::new(vec![
            (
                1,
                LinearFit {
                    intercept: 0.0,
                    slope: 1.0,
                    r2: 1.0,
                },
            ),
            (
                4,
                LinearFit {
                    intercept: 0.0,
                    slope: 4.0,
                    r2: 1.0,
                },
            ),
        ]);
        let f = Frequency::from_ghz(1.0);
        assert!((fit.eval(1.0, f) - 1.0).abs() < 1e-12);
        assert!((fit.eval(4.0, f) - 4.0).abs() < 1e-12);
        // midpoint between 1 and 4 cores: 1 + (4-1) * (2.5-1)/3 = 2.5
        assert!((fit.eval(2.5, f) - 2.5).abs() < 1e-12);
        // clamped extrapolation
        assert!((fit.eval(0.5, f) - 1.0).abs() < 1e-12);
        assert!((fit.eval(9.0, f) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn spi_mem_never_negative() {
        let fit = SpiMemFit::new(vec![(
            1,
            LinearFit {
                intercept: -0.5,
                slope: 0.1,
                r2: 0.9,
            },
        )]);
        assert_eq!(fit.eval(1.0, Frequency::from_ghz(1.0)), 0.0);
    }

    #[test]
    fn io_profile_service_times() {
        // 1 KiB per unit over 100 Mbps: 8192 bits / 1e8 bps = 81.92 µs.
        let io = IoProfile {
            bytes_per_unit: 1024.0,
            lambda_io: f64::INFINITY,
        };
        let t = io.unit_service_s(1e8);
        assert!((t - 8.192e-5).abs() < 1e-12);
        assert!((io.unit_busy_s(1e8) - 8.192e-5).abs() < 1e-12);

        // Sparse arrivals dominate: λ = 1000/s → 1 ms gap > transfer.
        let io = IoProfile {
            bytes_per_unit: 1024.0,
            lambda_io: 1000.0,
        };
        assert!((io.unit_service_s(1e8) - 1e-3).abs() < 1e-12);
        // ... but the device is only *busy* for the transfer.
        assert!((io.unit_busy_s(1e8) - 8.192e-5).abs() < 1e-12);
    }

    #[test]
    fn power_profile_nearest_lookup() {
        let p = PowerProfile::synthetic(&arm());
        let at_max = p.core_active_w(Frequency::from_ghz(1.4));
        // 4 cores spanning 5 - 1.8 = 3.2 W: 0.8 W/core at fmax.
        assert!((at_max - 0.8).abs() < 1e-9);
        assert!((p.core_stall_w(Frequency::from_ghz(1.4)) - 0.48).abs() < 1e-9);
        // Nearest lookup picks 1.4 GHz for 1.3 GHz queries.
        assert!((p.core_active_w(Frequency::from_ghz(1.3)) - at_max).abs() < 1e-12);
        // Lower frequency means strictly lower power.
        assert!(p.core_active_w(Frequency::from_ghz(0.2)) < at_max);
    }

    #[test]
    fn synthetic_bundles_validate() {
        WorkloadModel::synthetic_cpu_bound(&arm(), "ep", 60.0)
            .validate()
            .unwrap();
        WorkloadModel::synthetic_io_bound(&arm(), "memcached", 2000.0, 1024.0)
            .validate()
            .unwrap();
    }

    #[test]
    fn profile_domain_checks() {
        let mut wl = WorkloadModel::synthetic_cpu_bound(&arm(), "ep", 60.0).profile;
        wl.i_ps = 0.0;
        assert!(wl.validate().is_err());
        let mut wl = WorkloadModel::synthetic_cpu_bound(&arm(), "ep", 60.0).profile;
        wl.active_cores = 0.0;
        assert!(wl.validate().is_err());
        let mut wl = WorkloadModel::synthetic_cpu_bound(&arm(), "ep", 60.0).profile;
        wl.wpi = f64::NAN;
        assert!(wl.validate().is_err());
    }

    #[test]
    fn spi_mem_try_new_rejects_empty() {
        assert!(matches!(
            SpiMemFit::try_new(vec![]),
            Err(Error::InvalidInput(_))
        ));
        assert!(SpiMemFit::try_new(vec![(
            1,
            LinearFit {
                intercept: 0.1,
                slope: 0.0,
                r2: 1.0,
            },
        )])
        .is_ok());
    }

    #[test]
    fn validate_rejects_non_finite_profile_fields() {
        // NaN fit coefficients must not survive validation (pre-fix they
        // flowed into SPI_mem evaluation as NaN stall counts).
        let mut wl = WorkloadModel::synthetic_cpu_bound(&arm(), "ep", 60.0).profile;
        wl.spi_mem.per_cores[0].1.intercept = f64::NAN;
        assert!(wl.validate().is_err());
        let mut wl = WorkloadModel::synthetic_cpu_bound(&arm(), "ep", 60.0).profile;
        wl.io.bytes_per_unit = f64::NAN;
        assert!(wl.validate().is_err());
        // Frequencies themselves cannot be NaN: the fallible constructor
        // rejects them before a profile can ever hold one.
        assert!(Frequency::try_from_ghz(f64::NAN).is_err());
        assert!(Frequency::try_from_ghz(0.0).is_err());
        assert!(Frequency::try_from_ghz(f64::INFINITY).is_err());
        assert!(Frequency::try_from_ghz(1.4).is_ok());
    }

    #[test]
    fn validate_rejects_non_finite_power_fields() {
        let mut p = PowerProfile::synthetic(&arm());
        p.mem_w = f64::NAN;
        assert!(p.validate().is_err());
        let mut p = PowerProfile::synthetic(&arm());
        p.idle_w = f64::INFINITY;
        assert!(p.validate().is_err());
        let mut p = PowerProfile::synthetic(&arm());
        p.core_w[0].1 = f64::NAN;
        assert!(p.validate().is_err());
        let mut p = PowerProfile::synthetic(&arm());
        p.core_w[0].2 = f64::INFINITY;
        assert!(p.validate().is_err());
    }

    #[test]
    fn c_act_scaling() {
        let arm = arm();
        let mut wl = WorkloadModel::synthetic_cpu_bound(&arm, "ep", 60.0).profile;
        // CPU-bound baseline: 4 active cores at 1.4 GHz.
        let fmax = Frequency::from_ghz(1.4);
        assert!((wl.c_act(4, fmax) - 4.0).abs() < 1e-12);
        // Lower frequency cannot exceed the configured core count.
        assert!((wl.c_act(4, Frequency::from_ghz(0.2)) - 4.0).abs() < 1e-12);
        assert!((wl.c_act(2, fmax) - 2.0).abs() < 1e-12);

        // I/O-bound: 0.5 active cores at baseline. Slower clocks stretch
        // CPU busy time, so the active-core count scales up with 1/f...
        wl.active_cores = 0.5;
        assert!((wl.c_act(4, fmax) - 0.5).abs() < 1e-12);
        assert!((wl.c_act(4, Frequency::from_ghz(0.7)) - 1.0).abs() < 1e-12);
        // ...but saturates at the configured cores.
        assert!((wl.c_act(1, Frequency::from_ghz(0.2)) - 1.0).abs() < 1e-12);
    }
}
