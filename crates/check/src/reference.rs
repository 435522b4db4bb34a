//! Reference implementations that exist only to check a fast path.
//!
//! No production path calls anything here; the oracles, the fuzz driver,
//! tests, benchmarks and the `queueing_whatif` example do. Each item is
//! the plain, slow or general version of something production code does
//! cleverly or in closed form, kept so the clever version can be compared
//! with it:
//!
//! * [`per_point_fold`], [`per_point_degraded_fold`] and
//!   [`two_point_energy`] for the rate-table fold, the k-degraded fold and
//!   the ladder lift, bit for bit;
//! * [`match_two_numeric`], a bisection split, for the closed-form
//!   mix-and-match split;
//! * [`des`], a request-level simulation of the M/D/1 dispatcher queue,
//!   and [`MG1`], the Pollaczek–Khinchine mean wait for general service,
//!   for the exact M/D/1 waits;
//! * [`FrontierAnswer`], a `/frontier` answer rendered one object and one
//!   string per point, for the daemon's one-buffer rendering, byte for
//!   byte.

pub mod des;

use hecmix_core::config::{ClusterPoint, NodeConfig};
use hecmix_core::energy::EnergyBreakdown;
use hecmix_core::exec_time::TimeBreakdown;
use hecmix_core::pareto::ParetoFrontier;
use hecmix_core::profile::WorkloadModel;
use hecmix_core::rate_table::RateTable;
use hecmix_core::resilience::ResilientTable;
use hecmix_core::types::Platform;
use hecmix_core::{Error, Result};
use hecmix_obs::json::Object;

/// One frontier point of [`per_point_fold`]: its time and energy, and the
/// flat index of the configuration it came from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FoldPoint {
    /// Job service time in seconds.
    pub time_s: f64,
    /// Total energy in joules.
    pub energy_j: f64,
    /// Flat index into the table; [`RateTable::decode`] gives the
    /// configuration.
    pub flat: u64,
}

/// The energy–deadline frontier of `table` by the straightforward fold:
/// evaluate every flat index on its own with [`RateTable::outcome`] and
/// binary-search insert it into one sorted frontier.
///
/// Points are keyed by `(time, energy, flat)` in that order under
/// `f64::total_cmp`. A candidate is dropped when it is not finite or when
/// the entry keyed just below it has no more energy; otherwise it replaces
/// the entries keyed above it that it dominates. The result depends only
/// on the set of points, not on their order, so it is exactly what the row
/// fold, which walks and skips points in its own order, must produce.
#[must_use]
pub fn per_point_fold(table: &RateTable, w_units: f64) -> Vec<FoldPoint> {
    let mut entries = Vec::new();
    for flat in 1..=table.count() {
        let out = table.outcome(flat, w_units);
        insert(&mut entries, out.time_s, out.energy_j, flat);
    }
    entries
}

/// The `k`-failure resilient frontier of `table` by the straightforward
/// fold: degrade every flat index on its own with
/// [`ResilientTable::degraded_flat`], evaluate the degraded configuration
/// with [`RateTable::outcome`], and insert it under the deployed flat
/// index as [`per_point_fold`] does. Points that cannot tolerate `k`
/// losses are left out.
#[must_use]
pub fn per_point_degraded_fold(table: &ResilientTable, w_units: f64, k: u32) -> Vec<FoldPoint> {
    let mut entries = Vec::new();
    for flat in 1..=table.table().count() {
        if let Some(d) = table.degraded_flat(flat, k) {
            let out = table.table().outcome(d, w_units);
            insert(&mut entries, out.time_s, out.energy_j, flat);
        }
    }
    entries
}

/// Binary-search insert one point into a sorted frontier, by the rule
/// [`per_point_fold`] states.
fn insert(entries: &mut Vec<FoldPoint>, time_s: f64, energy_j: f64, flat: u64) {
    let c = FoldPoint {
        time_s,
        energy_j,
        flat,
    };
    if !c.time_s.is_finite() || !c.energy_j.is_finite() {
        return;
    }
    let i = entries.partition_point(|p| {
        p.time_s
            .total_cmp(&c.time_s)
            .then(p.energy_j.total_cmp(&c.energy_j))
            .then(p.flat.cmp(&c.flat))
            .is_lt()
    });
    if i > 0 && entries[i - 1].energy_j <= c.energy_j {
        return;
    }
    let k = entries[i..].partition_point(|p| p.energy_j >= c.energy_j);
    entries.splice(i..i + k, std::iter::once(c));
}

/// The fields of one `/frontier` answer of the planning daemon
/// (`hecmix-serve`), in wire order.
#[derive(Debug)]
pub struct FrontierAnswer<'a> {
    /// Workload name.
    pub workload: &'a str,
    /// Low-power node cap.
    pub arm: u32,
    /// High-performance node cap.
    pub amd: u32,
    /// Work units.
    pub units: f64,
    /// Degraded-frontier k, when requested.
    pub resilient_k: Option<u32>,
    /// The frontier to list.
    pub frontier: &'a ParetoFrontier,
    /// The bundle's platforms, in type order; the labels name them.
    pub platforms: &'a [Platform],
    /// Whether the answer came from the plan cache.
    pub cached: bool,
    /// Whether it was shared from another request's compute.
    pub coalesced: bool,
    /// Server-side compute time, µs.
    pub compute_us: u64,
}

impl FrontierAnswer<'_> {
    /// The answer's body, built the plain way: each point an [`Object`] of
    /// its own, each number and label a `String` of its own (a label is
    /// one `format!` per used type, joined), and the points array copied
    /// into the answer.
    #[must_use]
    pub fn render(&self) -> String {
        let number = |v: f64| {
            if v.is_finite() {
                format!("{v:?}")
            } else {
                "null".to_owned()
            }
        };
        let mut o = Object::new();
        o.str("workload", self.workload);
        o.u64("arm", u64::from(self.arm));
        o.u64("amd", u64::from(self.amd));
        o.raw("units", &number(self.units));
        if let Some(k) = self.resilient_k {
            o.u64("resilient_k", u64::from(k));
        }
        o.u64("count", self.frontier.len() as u64);
        let mut points = String::from("[");
        for (i, p) in self.frontier.points.iter().enumerate() {
            if i > 0 {
                points.push(',');
            }
            let mut po = Object::new();
            po.raw("time_ms", &number(p.time_s * 1e3));
            po.raw("energy_j", &number(p.energy_j));
            po.str("config", &joined_label(&p.config, self.platforms));
            points.push_str(&po.finish());
        }
        points.push(']');
        o.raw("points", &points);
        o.bool("cached", self.cached);
        o.bool("coalesced", self.coalesced);
        o.u64("compute_us", self.compute_us);
        o.finish()
    }
}

/// `point`'s label as one `format!` per used type joined by ` + `, or
/// `empty`.
fn joined_label(point: &ClusterPoint, platforms: &[Platform]) -> String {
    let parts: Vec<String> = platforms
        .iter()
        .zip(&point.per_type)
        .filter_map(|(p, cfg)| {
            cfg.map(|c| format!("{} {}({}c@{})", p.name, c.nodes, c.cores, c.freq))
        })
        .collect();
    if parts.is_empty() {
        "empty".to_owned()
    } else {
        parts.join(" + ")
    }
}

/// Energy of `cfg.nodes` nodes of `model`'s type over a job lasting
/// `job_duration_s`, by the paper's two-point table alone: Eq. 12–19 with
/// the `core_w` pair nearest `cfg.freq` (stall power over `T_CPU − T_act`,
/// as `EnergyModel` charges it). A lift must price exactly like this.
#[must_use]
pub fn two_point_energy(
    model: &WorkloadModel,
    cfg: &NodeConfig,
    times: &TimeBreakdown,
    job_duration_s: f64,
) -> EnergyBreakdown {
    let n = f64::from(cfg.nodes);
    let power = &model.power;
    let (p_act, p_stall) = (power.core_active_w(cfg.freq), power.core_stall_w(cfg.freq));
    let t_stall_busy = (times.t_cpu - times.t_act).max(0.0);
    let e_core = (p_act * times.t_act + p_stall * t_stall_busy) * times.c_act;
    EnergyBreakdown {
        e_core: e_core * n,
        e_mem: power.mem_w * times.t_mem * n,
        e_io: power.io_w * times.t_io_busy * n,
        e_idle: power.idle_w * job_duration_s * n,
    }
}

/// Two-way matching by bisection: given monotone non-decreasing time
/// functions `t_a(w)` and `t_b(w)` with `t(0) = 0`, find the split
/// `(w_a, w_b)` of `w` with `t_a(w_a) ≈ t_b(w_b)` to relative tolerance
/// `tol`. It works for time models that are not linear in work; on the
/// paper's linear model it must land on the closed-form split of
/// [`hecmix_core::mix_match::mix_and_match`].
///
/// # Errors
/// [`Error::InvalidInput`] when `w` or `tol` is non-positive or non-finite,
/// or a time function violates `t(0) = 0` (zero work must take zero time —
/// a non-zero offset would make the split depend on which side carries it).
/// [`Error::MatchingFailed`] when a time function returns a non-finite
/// value, or the bisection fails to bracket the root to `tol · w` within
/// its iteration budget.
pub fn match_two_numeric(
    t_a: impl Fn(f64) -> f64,
    t_b: impl Fn(f64) -> f64,
    w: f64,
    tol: f64,
) -> Result<(f64, f64)> {
    if !(w > 0.0) || !w.is_finite() {
        return Err(Error::InvalidInput(format!(
            "work must be positive, got {w}"
        )));
    }
    if !(tol > 0.0) || !tol.is_finite() {
        return Err(Error::InvalidInput(format!(
            "tolerance must be positive and finite, got {tol}"
        )));
    }
    // The bracketing below assumes t(0) = 0: a function with a non-zero
    // (or NaN) offset at zero work would silently shift the split.
    let (ta0, tb0) = (t_a(0.0), t_b(0.0));
    if ta0 != 0.0 || tb0 != 0.0 {
        return Err(Error::InvalidInput(format!(
            "time functions must satisfy t(0) = 0, got t_a(0)={ta0}, t_b(0)={tb0}"
        )));
    }
    // g(x) = t_a(x) - t_b(w - x) is monotone non-decreasing in x;
    // g(0) = -t_b(w) <= 0 and g(w) = t_a(w) >= 0, so a root exists.
    let g = |x: f64| t_a(x) - t_b(w - x);
    let (mut lo, mut hi) = (0.0_f64, w);
    let (glo, ghi) = (g(lo), g(hi));
    if !glo.is_finite() || !ghi.is_finite() {
        return Err(Error::MatchingFailed("non-finite time function".into()));
    }
    if glo > 0.0 {
        // Type A is slower even with all work on B: give everything to B.
        return Ok((0.0, w));
    }
    if ghi < 0.0 {
        return Ok((w, 0.0));
    }
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        if g(mid) <= 0.0 {
            lo = mid;
        } else {
            hi = mid;
        }
        if (hi - lo) <= tol * w {
            let x = 0.5 * (lo + hi);
            return Ok((x, w - x));
        }
    }
    Err(Error::MatchingFailed(format!(
        "bisection did not converge: bracket {:.3e} > tol·w {:.3e} after 200 iterations",
        hi - lo,
        tol * w
    )))
}

/// The M/G/1 queue: Poisson arrivals, generally distributed service with
/// mean `service_s` and squared coefficient of variation `scv`
/// (`Var[S]/E[S]²`). `scv = 0` recovers M/D/1, `scv = 1` recovers M/M/1 —
/// the full Pollaczek–Khinchine formula, which checks the simulator's
/// exponential-service runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MG1 {
    /// Job arrival rate, jobs/second.
    pub lambda: f64,
    /// Mean service time, seconds.
    pub service_s: f64,
    /// Squared coefficient of variation of the service time.
    pub scv: f64,
}

impl MG1 {
    /// Construct and validate.
    ///
    /// # Errors
    /// [`Error::InvalidInput`] unless `lambda` and `service_s` are
    /// positive and finite and `scv` is non-negative and finite.
    pub fn new(lambda: f64, service_s: f64, scv: f64) -> Result<Self> {
        if !(lambda > 0.0)
            || !lambda.is_finite()
            || !(service_s > 0.0)
            || !service_s.is_finite()
            || !(scv >= 0.0)
            || !scv.is_finite()
        {
            return Err(Error::InvalidInput(format!(
                "MG1 needs positive finite λ and E[S] and non-negative SCV, got λ={lambda}, T={service_s}, scv={scv}"
            )));
        }
        Ok(Self {
            lambda,
            service_s,
            scv,
        })
    }

    /// Pollaczek–Khinchine mean wait:
    /// `W_q = ρ·E[S]·(1 + scv) / (2(1 − ρ))` with `ρ = λ·E[S]`.
    ///
    /// # Errors
    /// [`Error::Saturated`] at or beyond `ρ = 1`.
    pub fn mean_wait_s(&self) -> Result<f64> {
        let rho = self.lambda * self.service_s;
        if rho >= 1.0 {
            return Err(Error::Saturated { utilization: rho });
        }
        Ok(rho * self.service_s * (1.0 + self.scv) / (2.0 * (1.0 - rho)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hecmix_core::config::ClusterPoint;
    use hecmix_core::exec_time::ExecTimeModel;
    use hecmix_core::mix_match::mix_and_match;
    use hecmix_core::types::Platform;
    use hecmix_queueing::MD1;

    #[test]
    fn md1_wait_is_half_of_mm1() {
        let lambda = 3.0;
        let t = 0.2;
        let wd = MD1::new(lambda, t).unwrap().mean_wait_s().unwrap();
        let wm = MG1::new(lambda, t, 1.0).unwrap().mean_wait_s().unwrap();
        assert!((wm / wd - 2.0).abs() < 1e-12);
    }

    #[test]
    fn mg1_interpolates_md1_and_mm1() {
        let (lambda, t) = (4.0, 0.1);
        let md1 = MD1::new(lambda, t).unwrap().mean_wait_s().unwrap();
        // M/M/1: W_q = ρ·T/(1 − ρ).
        let rho = lambda * t;
        let mm1 = rho * t / (1.0 - rho);
        let g0 = MG1::new(lambda, t, 0.0).unwrap().mean_wait_s().unwrap();
        let g1 = MG1::new(lambda, t, 1.0).unwrap().mean_wait_s().unwrap();
        assert!((g0 - md1).abs() < 1e-12, "scv=0 must equal M/D/1");
        assert!((g1 - mm1).abs() < 1e-12, "scv=1 must equal M/M/1");
        // Monotone in variance.
        let g_half = MG1::new(lambda, t, 0.5).unwrap().mean_wait_s().unwrap();
        assert!(md1 < g_half && g_half < mm1);
        // Domain checks.
        assert!(MG1::new(lambda, t, -0.1).is_err());
        assert!(MG1::new(20.0, t, 0.5).unwrap().mean_wait_s().is_err());
    }

    #[test]
    fn mg1_rejects_non_finite_rate_and_service() {
        // Pre-fix regression: `f64::INFINITY > 0.0` passed the positivity
        // guard, so an infinite λ or E[S] produced NaN waits downstream.
        assert!(MG1::new(f64::INFINITY, 0.1, 0.5).is_err());
        assert!(MG1::new(1.0, f64::INFINITY, 0.5).is_err());
        assert!(MG1::new(f64::NAN, 0.1, 0.5).is_err());
        assert!(MG1::new(1.0, f64::NAN, 0.5).is_err());
        assert!(MG1::new(1.0, 0.1, 0.5).is_ok());
    }

    #[test]
    fn numeric_matches_closed_form() {
        let (arm, amd) = (Platform::reference_arm(), Platform::reference_amd());
        let models = vec![
            WorkloadModel::synthetic_cpu_bound(&arm, "ep", 60.0),
            WorkloadModel::synthetic_cpu_bound(&amd, "ep", 40.0),
        ];
        let cfg_a = NodeConfig::maxed(&arm, 8);
        let cfg_b = NodeConfig::maxed(&amd, 2);
        let em_a = ExecTimeModel::new(&models[0]);
        let em_b = ExecTimeModel::new(&models[1]);
        let w = 5e7;
        let (wa, wb) = match_two_numeric(
            |x| em_a.predict(&cfg_a, x).total,
            |x| em_b.predict(&cfg_b, x).total,
            w,
            1e-12,
        )
        .unwrap();
        let point = ClusterPoint::new(vec![Some(cfg_a), Some(cfg_b)]);
        let split = mix_and_match(&point, &models, w).unwrap();
        assert!((wa - split.shares[0]).abs() < 1e-3 * w);
        assert!((wb - split.shares[1]).abs() < 1e-3 * w);
    }

    #[test]
    fn numeric_degenerate_one_sided() {
        // Type A infinitely slow → all work to B.
        let (wa, wb) =
            match_two_numeric(|x| x * f64::MAX.sqrt(), |x| x * 1e-9, 100.0, 1e-9).unwrap();
        assert!(wa < 1e-4);
        assert!((wb - 100.0).abs() < 1e-4);
    }

    #[test]
    fn numeric_reports_non_convergence() {
        // A tolerance below one ulp of the split point can never be met:
        // the bracket stalls at machine precision. Pre-fix this silently
        // returned the midpoint as if it had converged.
        let r = match_two_numeric(|x| x, |x| x, 100.0, 1e-30);
        assert!(
            matches!(r, Err(Error::MatchingFailed(_))),
            "expected MatchingFailed, got {r:?}"
        );
    }

    #[test]
    fn numeric_rejects_nonzero_origin() {
        // t(0) != 0 breaks the bracketing argument; pre-fix the solver
        // silently mis-split. Both offset and NaN-at-zero must be rejected.
        assert!(matches!(
            match_two_numeric(|x| x + 1.0, |x| x, 10.0, 1e-9),
            Err(Error::InvalidInput(_))
        ));
        assert!(matches!(
            match_two_numeric(|x| x, |x| x + 5.0, 10.0, 1e-9),
            Err(Error::InvalidInput(_))
        ));
        assert!(matches!(
            match_two_numeric(|x| x / x, |x| x, 10.0, 1e-9), // NaN at 0
            Err(Error::InvalidInput(_))
        ));
    }

    #[test]
    fn numeric_rejects_bad_tolerance() {
        for tol in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            assert!(matches!(
                match_two_numeric(|x| x, |x| x, 10.0, tol),
                Err(Error::InvalidInput(_))
            ));
        }
    }
}
