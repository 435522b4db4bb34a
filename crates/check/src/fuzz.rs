//! Seeded random-configuration fuzz driver with shrinking.
//!
//! The driver samples random cluster points and job sizes from a
//! [`ConfigSpace`], evaluates them through the analytical model, and
//! replays the cheap per-point laws (share conservation, energy
//! non-negativity and additivity, the simultaneous-finish property, and
//! the closed-form-vs-bisection split on two-type points). The first
//! failing input is *shrunk* — node counts, core counts, frequencies,
//! type count, and job size are reduced while the failure persists — and
//! reported as a [`Disagreement`] whose [`Disagreement::to_json`] is a
//! one-line machine-readable reproducer.
//!
//! A test-only perturbation hook lets the test suite inject a synthetic
//! model bug (mutating the evaluated outcome) to prove the driver both
//! catches and minimizes it.

use hecmix_core::config::{ClusterPoint, ConfigSpace, NodeConfig};
use hecmix_core::exec_time::ExecTimeModel;
use hecmix_core::mix_match::{evaluate, ClusterOutcome};
use hecmix_core::profile::WorkloadModel;
use hecmix_obs::json::Object;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::reference::match_two_numeric;

/// Fuzz-driver parameters.
#[derive(Debug, Clone, Copy)]
pub struct FuzzConfig {
    /// RNG seed; equal seeds replay the exact same input sequence.
    pub seed: u64,
    /// Random inputs to try.
    pub iters: u32,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        Self {
            seed: 42,
            iters: 200,
        }
    }
}

/// Job sizes sampled per input, in units.
const W_UNITS: std::ops::Range<f64> = 1e3..1e7;

/// A minimal reproducing input for one violated law.
#[derive(Debug, Clone)]
pub struct Disagreement {
    /// Stable name of the violated law.
    pub check: &'static str,
    /// Human-readable description of the violation on the shrunk input.
    pub detail: String,
    /// Shrunk cluster configuration.
    pub point: ClusterPoint,
    /// Shrunk job size, units.
    pub w_units: f64,
}

impl Disagreement {
    /// One-line JSON reproducer: seed, violated law, and the minimal
    /// `(config, w)` input, with `null` for each unused type.
    #[must_use]
    pub fn to_json(&self, seed: u64) -> String {
        let per_type: Vec<String> = self
            .point
            .per_type
            .iter()
            .map(|slot| match slot {
                None => "null".to_owned(),
                Some(c) => {
                    let mut o = Object::new();
                    o.u64("nodes", u64::from(c.nodes));
                    o.u64("cores", u64::from(c.cores));
                    o.f64("freq_ghz", c.freq.ghz());
                    o.finish()
                }
            })
            .collect();
        let mut o = Object::new();
        o.u64("seed", seed);
        o.str("check", self.check);
        o.str("detail", &self.detail);
        o.f64("w_units", self.w_units);
        o.raw("per_type", &format!("[{}]", per_type.join(",")));
        o.finish()
    }
}

/// Test-only outcome perturbation: mutates the evaluated [`ClusterOutcome`]
/// before the laws run, simulating a model bug the driver must catch.
pub type Perturbation<'a> = &'a dyn Fn(&ClusterPoint, f64, &mut ClusterOutcome);

/// Evaluate `point` at `w_units` and check every cheap per-point law.
/// Returns the first violated law, or `None` when all hold.
#[must_use]
pub fn check_point(
    point: &ClusterPoint,
    models: &[WorkloadModel],
    w_units: f64,
    perturb: Option<Perturbation<'_>>,
) -> Option<(&'static str, String)> {
    let mut out = match evaluate(point, models, w_units) {
        Ok(o) => o,
        Err(e) => return Some(("evaluate", format!("evaluation failed: {e}"))),
    };
    if let Some(f) = perturb {
        f(point, w_units, &mut out);
    }

    // Work-share conservation.
    let total: f64 = out.shares.iter().sum();
    if (total - w_units).abs() > 1e-9 * w_units {
        return Some((
            "share-conservation",
            format!("shares sum to {total:.12e}, not {w_units:.12e}"),
        ));
    }
    for (i, (share, cfg)) in out.shares.iter().zip(&point.per_type).enumerate() {
        if *share < 0.0 || !share.is_finite() {
            return Some(("share-domain", format!("share {i} is {share}")));
        }
        if cfg.is_none() && *share != 0.0 {
            return Some((
                "share-unused-type",
                format!("unused type {i} got {share} units"),
            ));
        }
    }

    // Energy non-negativity and additivity.
    for (name, joules) in [
        ("core", out.energy.e_core),
        ("mem", out.energy.e_mem),
        ("io", out.energy.e_io),
        ("idle", out.energy.e_idle),
    ] {
        if joules < 0.0 || !joules.is_finite() {
            return Some(("energy-domain", format!("{name} energy is {joules}")));
        }
    }
    if (out.energy_j - out.energy.total()).abs() > 1e-9 * out.energy_j.abs() {
        return Some((
            "energy-additivity",
            format!(
                "total {:.12e} J vs component sum {:.12e} J",
                out.energy_j,
                out.energy.total()
            ),
        ));
    }

    // Simultaneous finish: every used type with positive share finishes at
    // the common service time.
    for (i, times) in out.per_type_times.iter().enumerate() {
        if let Some(t) = times {
            if out.shares[i] > 0.0 && (t.total - out.time_s).abs() > 1e-6 * out.time_s {
                return Some((
                    "simultaneous-finish",
                    format!(
                        "type {i} finishes at {:.12e} s, cluster at {:.12e} s",
                        t.total, out.time_s
                    ),
                ));
            }
        }
    }

    // Two-type points: the closed-form split must agree with bisection.
    if let [Some(cfg_a), Some(cfg_b)] = point.per_type[..] {
        let em_a = ExecTimeModel::new(&models[0]);
        let em_b = ExecTimeModel::new(&models[1]);
        match match_two_numeric(
            |x| em_a.predict(&cfg_a, x).total,
            |x| em_b.predict(&cfg_b, x).total,
            w_units,
            1e-12,
        ) {
            Ok((wa, _)) => {
                if (wa - out.shares[0]).abs() > 1e-3 * w_units {
                    return Some((
                        "closed-form-vs-numeric",
                        format!(
                            "closed form gives {:.6e} units to type 0, bisection {wa:.6e}",
                            out.shares[0]
                        ),
                    ));
                }
            }
            Err(e) => {
                return Some(("closed-form-vs-numeric", format!("bisection failed: {e}")));
            }
        }
    }
    None
}

/// Draw a random valid cluster point from `space`: each type is dropped
/// with probability 1/4 (at least one kept), otherwise gets uniform
/// nodes/cores and a uniformly chosen P-state.
fn random_point(rng: &mut SmallRng, space: &ConfigSpace) -> ClusterPoint {
    loop {
        let per_type: Vec<Option<NodeConfig>> = space
            .types
            .iter()
            .map(|t| {
                if rng.gen_range(0u32..4) == 0 {
                    None
                } else {
                    let nodes = rng.gen_range(1..=t.max_nodes);
                    let cores = rng.gen_range(1..=t.platform.cores);
                    let freq = t.platform.freqs[rng.gen_range(0..t.platform.freqs.len())];
                    Some(NodeConfig::new(nodes, cores, freq))
                }
            })
            .collect();
        let point = ClusterPoint::new(per_type);
        if point.types_used() > 0 {
            return point;
        }
    }
}

/// Shrink candidates for one failing input, most aggressive first: drop a
/// type, halve/decrement node and core counts, drop to the lowest
/// P-state, halve the job size.
fn shrink_candidates(
    point: &ClusterPoint,
    w_units: f64,
    space: &ConfigSpace,
) -> Vec<(ClusterPoint, f64)> {
    let mut out = Vec::new();
    let used = point.types_used();
    for (i, slot) in point.per_type.iter().enumerate() {
        let Some(cfg) = slot else { continue };
        if used >= 2 {
            let mut p = point.clone();
            p.per_type[i] = None;
            out.push((p, w_units));
        }
        for nodes in [cfg.nodes / 2, cfg.nodes - 1] {
            if nodes >= 1 && nodes < cfg.nodes {
                let mut p = point.clone();
                p.per_type[i] = Some(NodeConfig::new(nodes, cfg.cores, cfg.freq));
                out.push((p, w_units));
            }
        }
        for cores in [cfg.cores / 2, cfg.cores - 1] {
            if cores >= 1 && cores < cfg.cores {
                let mut p = point.clone();
                p.per_type[i] = Some(NodeConfig::new(cfg.nodes, cores, cfg.freq));
                out.push((p, w_units));
            }
        }
        let fmin = space.types[i].platform.freqs[0];
        if cfg.freq != fmin {
            let mut p = point.clone();
            p.per_type[i] = Some(NodeConfig::new(cfg.nodes, cfg.cores, fmin));
            out.push((p, w_units));
        }
    }
    if w_units / 2.0 >= 1.0 {
        out.push((point.clone(), w_units / 2.0));
    } else if w_units > 1.0 {
        out.push((point.clone(), 1.0));
    }
    out
}

/// Greedily shrink a failing input: repeatedly take the first candidate
/// reduction that still violates *some* law, until none does.
fn shrink(
    point: ClusterPoint,
    w_units: f64,
    space: &ConfigSpace,
    models: &[WorkloadModel],
    perturb: Option<Perturbation<'_>>,
) -> (ClusterPoint, f64, (&'static str, String)) {
    let mut cur = (point, w_units);
    let mut failure =
        check_point(&cur.0, models, cur.1, perturb).expect("shrink starts from a failing input");
    // Bounded: every accepted step strictly reduces a count or the job
    // size, so 10k steps is far beyond any real shrink sequence.
    for _ in 0..10_000 {
        let mut reduced = false;
        for (p, w) in shrink_candidates(&cur.0, cur.1, space) {
            if let Some(f) = check_point(&p, models, w, perturb) {
                cur = (p, w);
                failure = f;
                reduced = true;
                break;
            }
        }
        if !reduced {
            break;
        }
    }
    (cur.0, cur.1, failure)
}

/// Run the fuzz driver: sample `cfg.iters` random inputs and return the
/// first violation, shrunk to a minimal reproducing configuration.
/// `None` means every sampled input satisfied every law.
#[must_use]
pub fn fuzz(
    space: &ConfigSpace,
    models: &[WorkloadModel],
    cfg: &FuzzConfig,
) -> Option<Disagreement> {
    fuzz_with(space, models, cfg, None)
}

/// [`fuzz`] with a test-only perturbation hook applied to every evaluated
/// outcome before the laws run.
#[must_use]
pub fn fuzz_with(
    space: &ConfigSpace,
    models: &[WorkloadModel],
    cfg: &FuzzConfig,
    perturb: Option<Perturbation<'_>>,
) -> Option<Disagreement> {
    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    for _ in 0..cfg.iters {
        let point = random_point(&mut rng, space);
        let w_units = rng.gen_range(W_UNITS);
        if check_point(&point, models, w_units, perturb).is_some() {
            let (point, w_units, (check, detail)) = shrink(point, w_units, space, models, perturb);
            return Some(Disagreement {
                check,
                detail,
                point,
                w_units,
            });
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference_scenario;
    use hecmix_obs::json::Value;

    #[test]
    fn clean_models_fuzz_clean() {
        let (space, models, _) = reference_scenario();
        let cfg = FuzzConfig {
            iters: 64,
            ..FuzzConfig::default()
        };
        assert!(fuzz(&space, &models, &cfg).is_none());
    }

    #[test]
    fn json_reproducer_is_one_escaped_line() {
        let d = Disagreement {
            check: "share-conservation",
            detail: "sum \"off\"\nby 1 \\ \t\u{1}".to_owned(),
            point: ClusterPoint::new(vec![
                Some(NodeConfig::new(
                    2,
                    1,
                    hecmix_core::types::Frequency::from_ghz(0.8),
                )),
                None,
            ]),
            w_units: 1.0,
        };
        let j = d.to_json(42);
        assert!(!j.contains('\n'), "{j}");
        assert!(j.contains("\"seed\":42"));
        assert!(j.contains("\\\"off\\\"\\nby 1 \\\\ \\t\\u0001"), "{j}");
        assert!(j.contains("{\"nodes\":2,\"cores\":1,\"freq_ghz\":0.8}"));
        assert!(j.ends_with("null]}"));

        // The line parses back to the same fields.
        let v = hecmix_obs::json::parse(&j).unwrap();
        assert_eq!(v.get("seed").and_then(Value::as_u64), Some(42));
        assert_eq!(v.get("check").and_then(Value::as_str), Some(d.check));
        assert_eq!(v.get("detail").and_then(Value::as_str), Some(&*d.detail));
        assert_eq!(v.get("w_units").and_then(Value::as_f64), Some(d.w_units));
        let per_type = v.get("per_type").and_then(Value::as_array).unwrap();
        assert_eq!(per_type.len(), 2);
        let c = &per_type[0];
        assert_eq!(c.get("nodes").and_then(Value::as_u64), Some(2));
        assert_eq!(c.get("cores").and_then(Value::as_u64), Some(1));
        assert_eq!(
            c.get("freq_ghz").and_then(Value::as_f64),
            Some(hecmix_core::types::Frequency::from_ghz(0.8).ghz())
        );
        assert_eq!(per_type[1], Value::Null);
    }
}
