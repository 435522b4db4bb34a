//! Degraded-mode analysis: what a configuration costs after losing nodes.
//!
//! The mix-and-match split (§III) assumes every node assigned a share
//! survives to the end of the run. This module answers two follow-up
//! questions a production deployment has to ask:
//!
//! * **Provisioning** — if up to `k` nodes can die mid-run, which
//!   configuration should be deployed? [`ResilientTable`] sweeps a
//!   configuration space under a worst-case `k`-node loss and produces the
//!   *resilient frontier*: the energy–deadline Pareto frontier of degraded
//!   outcomes, indexed by the **deployed** (pre-failure) configuration.
//! * **Prediction** — a specific node crashed at time `t`; when does the
//!   job now finish and at what energy? [`predict_crash_run`] extends the
//!   closed-form matching with a heartbeat-detection delay and a
//!   work-conserving redistribution of the dead node's leftover share,
//!   mirroring the recovery protocol of `hecmix-sim`'s fault injector so
//!   the two can be cross-validated (the resilience experiment tables).
//!
//! ## Worst-case `k`-loss semantics
//!
//! Execution rate is exactly linear in the node count (every term of
//! Eq. 2–11 divides by `n`), so each lost node of type `t` removes the same
//! per-node rate `ρ_t = r_t/n_t` from the cluster no matter how many died
//! before it. The adversary that maximizes degraded completion time
//! therefore kills the `k` individual nodes with the highest per-node
//! rates — a greedy choice that is exactly optimal, not a heuristic. The
//! degraded configuration is re-encoded as a flat index of the *same* rate
//! table, which makes every resilient-frontier point an ordinary point of
//! the `k = 0` sweep: degradation can never beat the nominal frontier, and
//! the property test in `tests/resilient_frontier.rs` checks this with
//! exact comparisons, no tolerance.
//!
//! Configurations with `k` or fewer total nodes cannot tolerate `k`
//! failures and are excluded from the `k`-failure frontier entirely.
//!
//! ## The `k`-failure fold
//!
//! [`ResilientTable::frontier`] walks the rate table row by row, as the
//! plain fold does. Within a row only type 0's option changes, and type 0
//! loses nodes before a row type exactly when its per-node rate is at
//! least that type's (ties go to the lower type index). So the row's own
//! lost nodes are always a prefix of its nodes in the adversary's order:
//! the row precomputes its degraded `(r, b)` for every count of lost row
//! nodes up to `min(k, row nodes)`, and each cell works out only type 0's
//! loss. The result is bit for bit the per-point degradation's
//! ([`ResilientTable::degraded_flat`] then [`RateTable::outcome`]).

use crate::config::{ConfigSpace, NodeConfig};
use crate::error::{Error, Result};
use crate::pareto::ParetoFrontier;
use crate::profile::WorkloadModel;
use crate::rate_table::{
    lone_run, stream_fold, validate_work, Entry, OptionCatalog, PartialFrontier, RateTable, Run,
    SweepOutcome,
};

/// A rate table plus the per-type digit strides needed to re-encode a
/// configuration with nodes removed.
///
/// Built on the **full** (unpruned) table: pruning reorders and drops
/// options, which breaks the arithmetic that maps "same `(c, f)`, one node
/// fewer" to "option index minus one node stride".
#[derive(Debug, Clone)]
pub struct ResilientTable {
    table: RateTable,
    /// Per type: distance between consecutive node counts in the option
    /// index (`|OPPs| × cores`, see [`crate::dvfs::ladder_options`]), so
    /// removing `j` nodes from digit `d` gives digit `d - j·stride` (or `0`
    /// when the type is wiped out).
    node_stride: Vec<u64>,
}

impl ResilientTable {
    /// Build the full rate table for `space` and record the node strides.
    pub fn build(space: &ConfigSpace, models: &[WorkloadModel]) -> Result<Self> {
        let catalog = OptionCatalog::build(space, models)?;
        Self::from_catalog(&catalog, &catalog.caps())
    }

    /// The full table of `catalog` sliced at `caps` (see
    /// [`OptionCatalog::full`]), with its node strides.
    pub fn from_catalog(catalog: &OptionCatalog, caps: &[Option<u32>]) -> Result<Self> {
        Ok(Self {
            table: catalog.full(caps)?,
            node_stride: catalog.node_strides(caps),
        })
    }

    /// The underlying nominal rate table.
    #[must_use]
    pub fn table(&self) -> &RateTable {
        &self.table
    }

    /// Flat index of the worst-case `k`-loss degradation of `flat`: the
    /// same configuration with the `k` highest-per-node-rate nodes removed.
    /// `None` when the configuration has `k` or fewer nodes in total.
    #[must_use]
    pub fn degraded_flat(&self, flat: u64, k: u32) -> Option<u64> {
        if k == 0 {
            return Some(flat);
        }
        let per_type = self.table.options();
        let mut digits = Vec::with_capacity(per_type.len());
        // Used types as `(per_node_rate, nodes, type_idx)`.
        let mut used = Vec::with_capacity(per_type.len());
        let mut rest = flat;
        let mut total_nodes: u64 = 0;
        for (t, opts) in per_type.iter().enumerate() {
            let radix = opts.len() as u64 + 1;
            let d = rest % radix;
            rest /= radix;
            digits.push(d);
            if d != 0 {
                let o = &opts[(d - 1) as usize];
                total_nodes += u64::from(o.cfg.nodes);
                used.push((o.rate / f64::from(o.cfg.nodes), o.cfg.nodes, t));
            }
        }
        if total_nodes <= u64::from(k) {
            return None;
        }
        // Highest per-node rate dies first; ties broken by type index so
        // the degradation is deterministic.
        used.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.2.cmp(&b.2)));
        let mut left = k;
        for (_, nodes, t) in used {
            if left == 0 {
                break;
            }
            let take = left.min(nodes);
            left -= take;
            digits[t] = if take == nodes {
                0
            } else {
                digits[t] - u64::from(take) * self.node_stride[t]
            };
        }
        let mut degraded = 0u64;
        for (t, opts) in per_type.iter().enumerate().rev() {
            degraded = degraded * (opts.len() as u64 + 1) + digits[t];
        }
        Some(degraded)
    }

    /// Degraded outcome of deploying `flat` and then losing the worst-case
    /// `k` nodes: the survivors re-split the *whole* job work-conservingly.
    /// `None` when the configuration is not `k`-tolerant.
    #[must_use]
    pub fn degraded_outcome(&self, flat: u64, k: u32, w_units: f64) -> Option<SweepOutcome> {
        self.degraded_flat(flat, k)
            .map(|d| self.table.outcome(d, w_units))
    }

    /// The `k`-failure resilient frontier: Pareto over worst-case degraded
    /// `(time, energy)`, with each point carrying the **deployed**
    /// configuration (what you must provision to get that degraded
    /// outcome). `k = 0` is the nominal frontier.
    pub fn frontier(&self, w_units: f64, k: u32) -> Result<ParetoFrontier> {
        validate_work(w_units)?;
        if k == 0 {
            return self.table.frontier(w_units);
        }
        let entries = stream_fold(self.table.count(), |partial| {
            self.fold_degraded_rows(w_units, k, partial);
        })?;
        Ok(self.table.frontier_of(entries))
    }

    /// Fold every flat index into `partial`, each with exactly
    /// [`Self::degraded_outcome`] and its own (deployed) flat index,
    /// skipping the points that cannot tolerate `k` losses.
    ///
    /// The fold walks the table's rows ([`RateTable::rows`]). The greedy
    /// adversary takes nodes in order of per-node rate, highest first, ties
    /// to the lower type index; type 0 goes ahead of a row type exactly
    /// when its per-node rate is at least that type's. So whatever the
    /// cell, the row's own lost nodes are a prefix of its nodes in that
    /// order, and the row's degraded `(r, b)` depend only on how many of
    /// its nodes are lost, `m ≤ min(k, row nodes)`: a row precomputes them
    /// for each `m`. A cell then works out only type 0's loss and its
    /// degraded digit, and sums from that digit in type order, which gives
    /// the bits of [`RateTable::outcome`] on [`Self::degraded_flat`]
    /// because `0.0 + x == x`. Nothing is sized by `k`. Inside a row the
    /// in-row run skip ([`Run`]) applies as in the plain fold.
    fn fold_degraded_rows(&self, w_units: f64, k: u32, partial: &mut PartialFrontier) {
        let (first, rest) = self
            .table
            .columns()
            .split_first()
            .expect("a table has at least one type");
        let (k, stride0) = (u64::from(k), self.node_stride[0] as usize);
        // The row's used types as `(per-node rate, nodes, type)`, in the
        // adversary's order; types count from 0 after the first.
        let mut used: Vec<(f64, u64, usize)> = Vec::with_capacity(rest.len());
        // The row's degraded `(r, b)` per type in type order, for `m` lost
        // nodes at `m·rest.len()`.
        let mut degraded: Vec<(f64, f64)> = Vec::new();
        // The row's digits after the losses counted so far.
        let mut row_digits = Vec::with_capacity(rest.len());
        let mut run = Run::FRESH;
        self.table.rows(|digits, cells, flat| {
            used.clear();
            for (t, (col, &d)) in rest.iter().zip(digits).enumerate() {
                if d != 0 {
                    used.push((col.node_rate[d], u64::from(col.nodes[d]), t));
                }
            }
            used.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.2.cmp(&b.2)));
            let row_nodes: u64 = used.iter().map(|u| u.1).sum();
            row_digits.clear();
            row_digits.extend_from_slice(digits);
            degraded.clear();
            degraded.extend(rest.iter().zip(&row_digits).map(|(c, &d)| c.at(d)));
            let mut m = 0;
            'lose: for &(_, nodes, t) in &used {
                for take in 1..=nodes {
                    if m == k {
                        break 'lose;
                    }
                    m += 1;
                    row_digits[t] = if take == nodes {
                        0
                    } else {
                        digits[t] - take as usize * self.node_stride[t + 1] as usize
                    };
                    degraded.extend(rest.iter().zip(&row_digits).map(|(c, &d)| c.at(d)));
                }
            }
            for d0 in cells.clone() {
                let n0 = u64::from(first.nodes[d0]);
                if n0 + row_nodes <= k {
                    continue;
                }
                let take0 = if n0 == 0 {
                    0
                } else {
                    let rho0 = first.node_rate[d0];
                    let ahead: u64 = used
                        .iter()
                        .take_while(|u| u.0.total_cmp(&rho0).is_gt())
                        .map(|u| u.1)
                        .sum();
                    k.saturating_sub(ahead).min(n0)
                };
                let d0_lost = if take0 == n0 {
                    0
                } else {
                    d0 - take0 as usize * stride0
                };
                let m = (k - take0) as usize;
                let (mut sum_r, mut sum_b) = first.at(d0_lost);
                for &(r, b) in &degraded[m * rest.len()..(m + 1) * rest.len()] {
                    sum_r += r;
                    sum_b += b;
                }
                let time_s = w_units / sum_r;
                let energy_j = time_s * sum_b;
                if run.admits(time_s, energy_j) {
                    partial.push(Entry {
                        time_s,
                        energy_j,
                        flat: flat + (d0 - cells.start) as u64,
                    });
                }
            }
        });
    }

    /// Frontiers for every tolerance level `0 ..= k_max`, sharing one table
    /// build. The `k`-th frontier may be empty when no configuration in the
    /// space has more than `k` nodes.
    pub fn frontiers(&self, w_units: f64, k_max: u32) -> Result<Vec<ParetoFrontier>> {
        (0..=k_max).map(|k| self.frontier(w_units, k)).collect()
    }
}

/// Per-type aggregates the crash predictor needs, for the node types of a
/// *specific deployed configuration* (cf. [`crate::rate_table::RateOption`],
/// which describes a candidate option during a sweep).
#[derive(Debug, Clone, Copy)]
pub struct TypeRate {
    /// Execution rate `r` of all `nodes` together, in work units/s.
    pub rate: f64,
    /// Lone-run average power `b = E_alone(1)·r` in watts (idle included).
    pub power_w: f64,
    /// Deployed node count.
    pub nodes: u32,
    /// Per-node idle power in watts.
    pub idle_w: f64,
}

impl TypeRate {
    /// Compute the aggregates for `cfg` under `model` with the rate table's
    /// own lone-run evaluation, so they match its options bit for bit.
    pub fn from_model(model: &WorkloadModel, cfg: &NodeConfig) -> Result<Self> {
        let (rate, power_w) = lone_run(model, cfg)?;
        Ok(Self {
            rate,
            power_w,
            nodes: cfg.nodes,
            idle_w: model.power.idle_w,
        })
    }

    /// Incremental busy energy per work unit, above the idle floor.
    fn busy_j_per_unit(&self) -> f64 {
        (self.power_w - f64::from(self.nodes) * self.idle_w) / self.rate
    }

    /// Per-node execution rate (rate is exactly linear in nodes).
    fn per_node_rate(&self) -> f64 {
        self.rate / f64::from(self.nodes)
    }
}

/// A single-node crash scenario plus the recovery-protocol timing, matching
/// `hecmix-sim`'s heartbeat/redistribution semantics.
#[derive(Debug, Clone, Copy)]
pub struct CrashPlan {
    /// Index (into the `TypeRate` slice) of the type losing a node.
    pub crash_type: usize,
    /// Crash time in seconds from job start.
    pub crash_s: f64,
    /// Heartbeat timeout: the crash is detected at `crash_s + timeout`.
    pub heartbeat_timeout_s: f64,
    /// Redistribution backoff: survivors receive the leftover share at
    /// `crash_s + timeout + backoff`.
    pub redistribute_backoff_s: f64,
}

/// Model-predicted outcome of a run that loses one node mid-flight.
#[derive(Debug, Clone, Copy)]
pub struct DegradedPrediction {
    /// Predicted completion time in seconds.
    pub time_s: f64,
    /// Predicted total energy in joules.
    pub energy_j: f64,
    /// Work units the dead node left unfinished (redistributed).
    pub lost_units: f64,
}

/// Closed-form degraded completion model.
///
/// Nominally every type finishes at `T₀ = W/R` with `R = Σr`. A node of
/// type `ct` (per-node rate `ρ`) crashing at `t_c < T₀` has completed
/// `ρ·t_c` of its `W·ρ/R` share; the difference `L` is redelivered to the
/// survivors (aggregate rate `R' = R − ρ`) at
/// `t_r = t_c + timeout + backoff`, so the job completes at
///
/// ```text
/// T̂ = max(T₀, t_r) + L/R'
/// ```
///
/// (survivors still have their own shares in flight until `T₀`; if
/// detection lands later than that they idle until `t_r`). Energy is
/// decomposed into per-unit busy energy plus idle floors: each surviving
/// type processes its nominal share plus its `r'/R'` fraction of `L` and
/// idles to `T̂`; the dead node pays busy energy for the units it did
/// finish and its idle floor only until the crash (a dead node draws no
/// power).
pub fn predict_crash_run(
    types: &[TypeRate],
    w_units: f64,
    plan: &CrashPlan,
) -> Result<DegradedPrediction> {
    validate_work(w_units)?;
    if plan.crash_type >= types.len() {
        return Err(Error::InvalidInput(format!(
            "crash_type {} out of range for {} types",
            plan.crash_type,
            types.len()
        )));
    }
    for v in [
        plan.crash_s,
        plan.heartbeat_timeout_s,
        plan.redistribute_backoff_s,
    ] {
        if !(v >= 0.0) || !v.is_finite() {
            return Err(Error::InvalidInput(format!(
                "crash plan times must be non-negative and finite, got {v}"
            )));
        }
    }
    let rate_sum: f64 = types.iter().map(|t| t.rate).sum();
    let ct = &types[plan.crash_type];
    let rho = ct.per_node_rate();
    let nominal_t = w_units / rate_sum;

    if plan.crash_s >= nominal_t {
        // Crash after completion: the run is the nominal one.
        let energy: f64 = types.iter().map(|t| t.power_w).sum::<f64>() * nominal_t;
        return Ok(DegradedPrediction {
            time_s: nominal_t,
            energy_j: energy,
            lost_units: 0.0,
        });
    }

    let survivor_rate = rate_sum - rho;
    if !(survivor_rate > 0.0) {
        return Err(Error::InvalidInput(
            "crash leaves no surviving capacity to finish the job".into(),
        ));
    }
    let done_dead = rho * plan.crash_s;
    let leftover = w_units * rho / rate_sum - done_dead;
    let redeliver_s = plan.crash_s + plan.heartbeat_timeout_s + plan.redistribute_backoff_s;
    let time_s = nominal_t.max(redeliver_s) + leftover / survivor_rate;

    let mut energy_j = 0.0;
    for (i, t) in types.iter().enumerate() {
        // Surviving rate/nodes of this type (the crashed type loses one).
        let (s_rate, s_nodes) = if i == plan.crash_type {
            (t.rate - rho, f64::from(t.nodes) - 1.0)
        } else {
            (t.rate, f64::from(t.nodes))
        };
        let units = w_units * s_rate / rate_sum + leftover * s_rate / survivor_rate;
        energy_j += t.busy_j_per_unit() * units + s_nodes * t.idle_w * time_s;
    }
    // The dead node: busy energy for what it finished, idle floor until the
    // crash, then dark.
    energy_j += ct.busy_j_per_unit() * done_dead + ct.idle_w * plan.crash_s;

    Ok(DegradedPrediction {
        time_s,
        energy_j,
        lost_units: leftover,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ClusterPoint, TypeBounds};
    use crate::exec_time::ExecTimeModel;
    use crate::types::Platform;

    fn setup() -> (ConfigSpace, Vec<WorkloadModel>) {
        let arm = Platform::reference_arm();
        let amd = Platform::reference_amd();
        let space = ConfigSpace::two_type(arm.clone(), 3, amd.clone(), 2);
        let models = vec![
            WorkloadModel::synthetic_cpu_bound(&arm, "ep", 60.0),
            WorkloadModel::synthetic_cpu_bound(&amd, "ep", 40.0),
        ];
        (space, models)
    }

    /// Brute force: enumerate every way to reduce node counts by exactly
    /// `k` in total and return the worst (max) completion time.
    fn brute_force_worst_time(
        rt: &ResilientTable,
        point: &ClusterPoint,
        k: u32,
        w: f64,
        models: &[WorkloadModel],
    ) -> Option<f64> {
        let used: Vec<(usize, NodeConfig)> = point
            .per_type
            .iter()
            .enumerate()
            .filter_map(|(i, c)| c.map(|c| (i, c)))
            .collect();
        let total: u32 = used.iter().map(|(_, c)| c.nodes).sum();
        if total <= k {
            return None;
        }
        let mut worst: f64 = 0.0;
        // Removal vectors over used types summing to k.
        fn rec(
            used: &[(usize, NodeConfig)],
            left: u32,
            removal: &mut Vec<u32>,
            out: &mut Vec<Vec<u32>>,
        ) {
            if removal.len() == used.len() {
                if left == 0 {
                    out.push(removal.clone());
                }
                return;
            }
            let cap = used[removal.len()].1.nodes.min(left);
            for take in 0..=cap {
                removal.push(take);
                rec(used, left - take, removal, out);
                removal.pop();
            }
        }
        let mut removals = Vec::new();
        rec(&used, k, &mut Vec::new(), &mut removals);
        for removal in removals {
            let mut rate = 0.0;
            for ((type_idx, cfg), take) in used.iter().zip(&removal) {
                if cfg.nodes > *take {
                    let reduced = NodeConfig {
                        nodes: cfg.nodes - take,
                        ..*cfg
                    };
                    rate += ExecTimeModel::new(&models[*type_idx]).rate_units_per_s(&reduced);
                }
            }
            if rate > 0.0 {
                worst = worst.max(w / rate);
            } else {
                return None; // some removal wipes the whole cluster
            }
        }
        let _ = rt;
        Some(worst)
    }

    #[test]
    fn degraded_flat_reencodes_the_reduced_config() {
        let (space, models) = setup();
        let rt = ResilientTable::build(&space, &models).unwrap();
        let w = 1e6;
        for flat in 1..=rt.table().count() {
            let point = rt.table().decode(flat);
            let total: u32 = point.per_type.iter().flatten().map(|c| c.nodes).sum();
            for k in 1..=2u32 {
                match rt.degraded_flat(flat, k) {
                    None => assert!(total <= k, "flat {flat} k {k}"),
                    Some(d) => {
                        assert!(total > k);
                        let degraded = rt.table().decode(d);
                        // Same (cores, freq) knobs, k fewer nodes in total.
                        let dtotal: u32 = degraded.per_type.iter().flatten().map(|c| c.nodes).sum();
                        assert_eq!(dtotal, total - k);
                        for (orig, deg) in point.per_type.iter().zip(&degraded.per_type) {
                            match (orig, deg) {
                                (Some(o), Some(d)) => {
                                    assert_eq!(o.cores, d.cores);
                                    assert_eq!(o.freq, d.freq);
                                    assert!(d.nodes <= o.nodes);
                                }
                                (Some(_), None) | (None, None) => {}
                                (None, Some(_)) => panic!("degradation added a type"),
                            }
                        }
                        // Outcome is bit-identical to evaluating the
                        // reduced config directly.
                        let direct = rt.table().outcome(d, w);
                        let via = rt.degraded_outcome(flat, k, w).unwrap();
                        assert_eq!(via.time_s, direct.time_s);
                        assert_eq!(via.energy_j, direct.energy_j);
                    }
                }
            }
        }
    }

    #[test]
    fn greedy_removal_is_worst_case() {
        let (space, models) = setup();
        let rt = ResilientTable::build(&space, &models).unwrap();
        let w = 5e5;
        for flat in 1..=rt.table().count() {
            let point = rt.table().decode(flat);
            for k in 1..=2u32 {
                let brute = brute_force_worst_time(&rt, &point, k, w, &models);
                let greedy = rt.degraded_outcome(flat, k, w).map(|o| o.time_s);
                match (brute, greedy) {
                    (None, None) => {}
                    (Some(b), Some(g)) => {
                        assert!(
                            (g - b).abs() <= 1e-9 * b,
                            "flat {flat} k {k}: greedy {g} vs brute {b}"
                        );
                    }
                    other => panic!("flat {flat} k {k}: tolerance mismatch {other:?}"),
                }
            }
        }
    }

    #[test]
    fn row_fold_breaks_per_node_rate_ties_like_degraded_flat() {
        // Types 0 and 1 share a model, so options with the same cores and
        // OPP tie on per-node rate, and the greedy order then goes by type
        // index. The frontier must be exactly the one that degrading each
        // point on its own gives: sorted by (time, energy, flat), keeping
        // each point that strictly lowers the energy.
        let arm = Platform::reference_arm();
        let amd = Platform::reference_amd();
        let ep = WorkloadModel::synthetic_cpu_bound(&arm, "ep", 60.0);
        let space = ConfigSpace::new(vec![
            TypeBounds {
                platform: arm.clone(),
                max_nodes: 3,
            },
            TypeBounds {
                platform: arm,
                max_nodes: 2,
            },
            TypeBounds {
                platform: amd.clone(),
                max_nodes: 1,
            },
        ]);
        let models = vec![
            ep.clone(),
            ep,
            WorkloadModel::synthetic_cpu_bound(&amd, "ep", 40.0),
        ];
        let rt = ResilientTable::build(&space, &models).unwrap();
        let w = 2e6;
        for k in 0..=6 {
            let mut points: Vec<(f64, f64, u64)> = (1..=rt.table().count())
                .filter_map(|flat| {
                    rt.degraded_outcome(flat, k, w)
                        .map(|o| (o.time_s, o.energy_j, flat))
                })
                .collect();
            points.sort_by(|a, b| {
                a.0.total_cmp(&b.0)
                    .then(a.1.total_cmp(&b.1))
                    .then(a.2.cmp(&b.2))
            });
            let mut best = f64::INFINITY;
            points.retain(|p| {
                let keep = p.1 < best;
                best = best.min(p.1);
                keep
            });
            let got = rt.frontier(w, k).unwrap();
            assert_eq!(got.len(), points.len(), "k = {k}");
            for (g, p) in got.points.iter().zip(&points) {
                assert_eq!(g.time_s.to_bits(), p.0.to_bits(), "k = {k}");
                assert_eq!(g.energy_j.to_bits(), p.1.to_bits(), "k = {k}");
                assert_eq!(g.config, rt.table().decode(p.2), "k = {k}");
            }
        }
    }

    #[test]
    fn k_frontier_excludes_small_clusters_and_keeps_invariant() {
        let (space, models) = setup();
        let rt = ResilientTable::build(&space, &models).unwrap();
        let fs = rt.frontiers(1e6, 2).unwrap();
        assert_eq!(fs.len(), 3);
        for (k, f) in fs.iter().enumerate() {
            assert!(!f.is_empty(), "k={k}");
            for p in &f.points {
                let total: u32 = p.config.per_type.iter().flatten().map(|c| c.nodes).sum();
                assert!(total > k as u32, "k={k} kept a {total}-node config");
            }
            assert!(f
                .points
                .windows(2)
                .all(|w| w[1].time_s > w[0].time_s && w[1].energy_j < w[0].energy_j));
        }
        // Tolerance is monotonically costly: the k+1 frontier never beats
        // the k frontier at any deadline.
        for k in 0..2 {
            for p in &fs[k + 1].points {
                let best = fs[k].min_energy_for_deadline(p.time_s).unwrap();
                assert!(best.energy_j <= p.energy_j);
            }
        }
    }

    #[test]
    fn crash_predictor_limits() {
        let (_, models) = setup();
        let arm =
            TypeRate::from_model(&models[0], &NodeConfig::maxed(&models[0].platform, 4)).unwrap();
        let amd =
            TypeRate::from_model(&models[1], &NodeConfig::maxed(&models[1].platform, 1)).unwrap();
        let types = [arm, amd];
        let w = 1e6;
        let rate_sum: f64 = types.iter().map(|t| t.rate).sum();
        let nominal_t = w / rate_sum;
        let nominal_e = types.iter().map(|t| t.power_w).sum::<f64>() * nominal_t;

        // Crash after completion → exactly nominal.
        let p = predict_crash_run(
            &types,
            w,
            &CrashPlan {
                crash_type: 0,
                crash_s: nominal_t * 2.0,
                heartbeat_timeout_s: 0.1,
                redistribute_backoff_s: 0.1,
            },
        )
        .unwrap();
        assert_eq!(p.time_s, nominal_t);
        assert_eq!(p.lost_units, 0.0);
        assert!((p.energy_j - nominal_e).abs() <= 1e-9 * nominal_e);

        // Crash at t=0 with instant detection → the (n-1)-node run.
        let p0 = predict_crash_run(
            &types,
            w,
            &CrashPlan {
                crash_type: 0,
                crash_s: 0.0,
                heartbeat_timeout_s: 0.0,
                redistribute_backoff_s: 0.0,
            },
        )
        .unwrap();
        let rho = types[0].rate / 4.0;
        let degraded_t = w / (rate_sum - rho);
        assert!((p0.time_s - degraded_t).abs() <= 1e-9 * degraded_t);

        // Mid-run crash: strictly between nominal and fully-degraded time,
        // and strictly costlier than nominal.
        let pm = predict_crash_run(
            &types,
            w,
            &CrashPlan {
                crash_type: 0,
                crash_s: nominal_t * 0.5,
                heartbeat_timeout_s: nominal_t * 0.01,
                redistribute_backoff_s: nominal_t * 0.01,
            },
        )
        .unwrap();
        assert!(pm.time_s > nominal_t && pm.time_s < degraded_t);
        assert!(pm.energy_j > nominal_e);
        assert!(pm.lost_units > 0.0);

        // Detection later than the nominal finish: survivors idle, so the
        // completion slips past detection by exactly leftover/R'.
        let late = predict_crash_run(
            &types,
            w,
            &CrashPlan {
                crash_type: 0,
                crash_s: nominal_t * 0.9,
                heartbeat_timeout_s: nominal_t * 0.5,
                redistribute_backoff_s: 0.0,
            },
        )
        .unwrap();
        let redeliver = nominal_t * 0.9 + nominal_t * 0.5;
        assert!((late.time_s - (redeliver + late.lost_units / (rate_sum - rho))).abs() < 1e-9);

        // Losing the only node of a single-type cluster is unrecoverable.
        let solo = [TypeRate {
            nodes: 1,
            ..types[0]
        }];
        assert!(predict_crash_run(
            &solo,
            w,
            &CrashPlan {
                crash_type: 0,
                crash_s: 0.0,
                heartbeat_timeout_s: 0.0,
                redistribute_backoff_s: 0.0,
            },
        )
        .is_err());
    }

    #[test]
    fn crash_predictor_input_validation() {
        let (_, models) = setup();
        let t =
            TypeRate::from_model(&models[0], &NodeConfig::maxed(&models[0].platform, 2)).unwrap();
        let plan = |crash_type, crash_s| CrashPlan {
            crash_type,
            crash_s,
            heartbeat_timeout_s: 0.0,
            redistribute_backoff_s: 0.0,
        };
        assert!(predict_crash_run(&[t], 0.0, &plan(0, 1.0)).is_err());
        assert!(predict_crash_run(&[t], 1e5, &plan(1, 1.0)).is_err());
        assert!(predict_crash_run(&[t], 1e5, &plan(0, -1.0)).is_err());
        assert!(predict_crash_run(&[t], 1e5, &plan(0, f64::NAN)).is_err());
    }
}
