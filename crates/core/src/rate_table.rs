//! Streaming, allocation-free sweep engine built on per-type rate tables.
//!
//! The exhaustive sweep in [`crate::sweep`] materializes every
//! [`ClusterPoint`] and runs the full mix-and-match evaluation
//! ([`crate::mix_match::evaluate`]) on each — a `Vec<Option<NodeConfig>>`
//! allocation plus several more per point. That is fine at the paper's
//! 36,380-point scale and untenable for the 128-node budget studies
//! (hundreds of thousands to millions of points).
//!
//! This module exploits the structure of the model instead:
//!
//! * **Rate table.** Under the paper's model every per-type option
//!   `(n, c, f)` contributes to a matched cluster through exactly two
//!   numbers: its execution rate `r = 1/T_alone(1)` (work units per
//!   second) and its lone-run average power `b = E_alone(1) · r` (watts).
//!   Both are computed **once per sweep** — `|options|` model evaluations
//!   instead of `|space|`.
//! * **Option catalog.** Since `(r, b)` depend only on the model and the
//!   option, an [`OptionCatalog`] evaluates every option up to a node cap
//!   once, and each table is a prefix of it: options are enumerated
//!   nodes-outermost, so a cap of `N` nodes keeps the first
//!   `N·|OPPs|·cores` of them. The one-shot constructors build a catalog at
//!   their own caps; the serving daemon keeps one per model bundle.
//! * **Prefix-dominance index.** Each type's `(max r, min b)` option set
//!   under every cap is fixed by the model, so a catalog lists once the
//!   options that some prefix keeps, each with the prefix lengths that keep
//!   it, and a pruned slice walks that list instead of pruning its prefix.
//! * **Lean kernel.** A matched cluster is then
//!   `T = W / Σr` and `E = T · Σb` ([`SweepOutcome`]) — a handful of adds
//!   and one divide per configuration, no allocation. The full
//!   [`crate::mix_match::ClusterOutcome`] path remains available for
//!   reports and validation.
//! * **Streaming fold.** Configurations are indexed by a flat mixed-radix
//!   integer (digit `0` = type unused, digit `d ≥ 1` = option `d − 1` of
//!   [`crate::dvfs::ladder_options`], type 0 fastest); the fold walks the
//!   index range on the caller's thread into one Pareto frontier. Peak
//!   memory is `O(frontier)`, independent of the space size, and only
//!   frontier survivors are ever decoded back into [`ClusterPoint`]s.
//! * **Rows over columns.** Each type's `r` and `b` live in their own
//!   columns with a `0.0` sentinel at digit 0, so a configuration's sums
//!   take no branch. The fold walks digit 0 along contiguous columns and
//!   carries the other digits like an odometer. A point that an earlier
//!   point of its run already dominates is skipped, and survivors enter
//!   the frontier through an insert that starts searching where the last
//!   one landed.
//! * **Dominated blocks.** Each column also keeps, per block of 16 digits,
//!   its largest rate and least power. Summed with the row's constants in
//!   the kernel's order, they bound every cell of the block from below in
//!   both time and energy, since rounding is monotone. When the partial
//!   frontier already holds an entry no slower than that time bound and
//!   strictly cheaper than that energy bound, it would reject every cell
//!   of the block, so the fold skips the block unwalked. The frontier is a
//!   thin staircase and most of a space lies far above it, so most blocks
//!   go this way; the result stays bit for bit the per-point fold's.
//!   The k-degraded fold of [`crate::resilience`] walks the same rows.
//!
//! ## Soundness of the `(r, b)` aggregation
//!
//! Mix-and-match gives type `t` the share `W_t = W·r_t/Σr`, so all types
//! finish at `T = W/Σr`. Every busy term of the time breakdown (Eq. 2–11)
//! is linear-homogeneous in the share, hence so is the busy energy
//! (Eq. 15–19), while the idle floor (Eq. 14) is `P_idle·n·T`. Writing the
//! lone-run energy at one work unit as `E_t(1) = busy_t(1) + idle_t/r_t`,
//! the type's energy in the mix is
//! `E_t = busy_t(W_t) + idle_t·T = T·(busy_t(1)·r_t + idle_t) = T·b_t`,
//! so the cluster total is `E = T·Σb = W·Σb/Σr` exactly. The streaming
//! kernel and the exhaustive path therefore agree up to floating-point
//! associativity — property-tested to 1e-9 relative tolerance in
//! `tests/streaming_equivalence.rs`.

use std::ops::Range;
use std::sync::OnceLock;

use crate::config::{ClusterPoint, ConfigSpace, NodeConfig, TypeBounds};
use crate::energy::EnergyModel;
use crate::error::{Error, Result};
use crate::exec_time::ExecTimeModel;
use crate::pareto::{ParetoFrontier, ParetoPoint};
use crate::profile::WorkloadModel;
use crate::sweep::PruneStats;

/// Lean per-configuration result of the streaming kernel: just the two
/// axes of the energy–deadline plane.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepOutcome {
    /// Job service time in seconds.
    pub time_s: f64,
    /// Total energy in joules.
    pub energy_j: f64,
}

/// One per-type option with its precomputed aggregates.
#[derive(Debug, Clone, Copy)]
pub struct RateOption {
    /// The `(n, c, f)` knobs; `cfg.freq` is the OPP's effective frequency.
    pub cfg: NodeConfig,
    /// Execution rate `r` in work units per second.
    pub rate: f64,
    /// Lone-run average power `b = E_alone(1)·r` in watts.
    pub power_w: f64,
    /// OPP index into the type's ladder.
    pub opp: usize,
}

/// Lone-run aggregates of one option at one work unit: the execution rate
/// `r` and the average power `b = E_alone(1)·r`, from a single `predict`
/// call. This is the single-type path of `mix_match::evaluate` bit for
/// bit: the job lasts `1/r` and the share is exactly 1.
pub(crate) fn lone_run(model: &WorkloadModel, cfg: &NodeConfig) -> Result<(f64, f64)> {
    let etm = ExecTimeModel::new(model);
    etm.check_config(cfg)?;
    let tb = etm.predict(cfg, 1.0);
    // `1/total`, as `rate_units_per_s` computes it; a non-positive or NaN
    // total fails the check below either way.
    let rate = 1.0 / tb.total;
    if !(rate > 0.0) || !rate.is_finite() {
        return Err(Error::MatchingFailed(format!(
            "option {cfg:?} of `{}` has execution rate {rate} units/s",
            model.platform.name
        )));
    }
    let power_w = EnergyModel::new(model).energy(cfg, &tb, 1.0 / rate).total() * rate;
    if !(power_w > 0.0) || !power_w.is_finite() {
        return Err(Error::InvalidInput(format!(
            "option {cfg:?} of `{}` has lone-run power {power_w} W",
            model.platform.name
        )));
    }
    Ok((rate, power_w))
}

/// Digits per block of a column: the row fold bounds a block's cells at
/// once and skips the block when the partial frontier beats the bound.
const BLOCK: usize = 16;

/// One type's options as columns indexed by digit: entry 0 is the `0.0`
/// sentinel for "type unused", entry `d ≥ 1` is option `d - 1`. Rates and
/// powers are positive, and `x + 0.0 == x` for every `x ≥ +0`, so summing
/// the sentinel leaves a configuration's `Σr` and `Σb` bit-unchanged.
#[derive(Debug, Clone)]
pub(crate) struct Column {
    rate: Vec<f64>,
    power: Vec<f64>,
    /// Per digit, the option's node count (`0` at the unused digit).
    pub(crate) nodes: Vec<u32>,
    /// Per digit, the option's per-node rate `rate / nodes` (`0.0` at the
    /// unused digit).
    pub(crate) node_rate: Vec<f64>,
    /// Per block of [`BLOCK`] digits, the largest rate and the least power.
    blocks: Vec<(f64, f64)>,
}

impl Column {
    fn new(opts: &[RateOption]) -> Self {
        let col =
            |f: fn(&RateOption) -> f64| std::iter::once(0.0).chain(opts.iter().map(f)).collect();
        let (rate, power): (Vec<f64>, Vec<f64>) = (col(|o| o.rate), col(|o| o.power_w));
        let blocks = rate
            .chunks(BLOCK)
            .zip(power.chunks(BLOCK))
            .map(|(r, b)| {
                let max = r.iter().copied().fold(0.0, f64::max);
                (max, b.iter().copied().fold(f64::INFINITY, f64::min))
            })
            .collect();
        Self {
            rate,
            power,
            nodes: std::iter::once(0)
                .chain(opts.iter().map(|o| o.cfg.nodes))
                .collect(),
            node_rate: col(|o| o.rate / f64::from(o.cfg.nodes)),
            blocks,
        }
    }

    /// The digit's radix: the options plus the unused digit.
    fn radix(&self) -> usize {
        self.rate.len()
    }

    /// Digit `d`'s rate and power.
    pub(crate) fn at(&self, d: usize) -> (f64, f64) {
        (self.rate[d], self.power[d])
    }
}

/// Per-type `(r, b)` tables over a configuration space, plus the flat
/// mixed-radix indexing that turns the space into a single integer range.
///
/// Digit `t` of a flat index selects type `t`'s option (`0` = unused,
/// `d ≥ 1` = `options[t][d-1]`); type 0 is the fastest-varying digit.
/// Flat index 0 is the empty cluster and is skipped, so valid indices are
/// `1 ..= count()`.
#[derive(Debug, Clone)]
pub struct RateTable {
    per_type: Vec<Vec<RateOption>>,
    /// The kernel's view of `per_type`, one column pair per type.
    columns: Vec<Column>,
    /// Per type, the option count plus the unused digit before any
    /// pruning, kept for [`PruneStats`] accounting.
    unpruned_radices: Vec<usize>,
}

impl RateTable {
    /// Build the full table: one entry per option, in
    /// [`crate::dvfs::ladder_options`] order, so flat index `k` decodes to
    /// the `k`-th configuration of the space with type 0 fastest.
    pub fn build(space: &ConfigSpace, models: &[WorkloadModel]) -> Result<Self> {
        let catalog = OptionCatalog::build(space, models)?;
        catalog.full(&catalog.caps())
    }

    /// Build a dominance-pruned table: within each type, keep only the
    /// `(max r, min b)` Pareto set of options. Because a configuration's
    /// outcome depends on its options only through `(Σr, Σb)`, swapping a
    /// within-type dominated option for its dominator never worsens either
    /// axis, so the pruned product preserves the frontier as an
    /// energy-per-deadline curve.
    ///
    /// One prefix per build, so this prunes it directly and builds no
    /// `PrefixIndex`; the result is bit for bit [`OptionCatalog::pruned`]'s.
    pub fn build_pruned(space: &ConfigSpace, models: &[WorkloadModel]) -> Result<Self> {
        let catalog = OptionCatalog::build(space, models)?;
        catalog.slice(&catalog.caps(), |t, len| {
            let prefix = &t.options[..len];
            pareto_order(prefix)
                .into_iter()
                .map(|i| prefix[i])
                .collect()
        })
    }

    fn from_options(per_type: Vec<Vec<RateOption>>, unpruned_radices: Vec<usize>) -> Self {
        let columns = per_type.iter().map(|o| Column::new(o)).collect();
        Self {
            per_type,
            columns,
            unpruned_radices,
        }
    }

    /// Per-type option lists (after pruning, if built pruned).
    #[must_use]
    pub fn options(&self) -> &[Vec<RateOption>] {
        &self.per_type
    }

    /// Number of valid configurations (flat indices `1 ..= count()`).
    #[must_use]
    pub fn count(&self) -> u64 {
        configs(self.columns.iter().map(Column::radix))
    }

    /// Prune statistics: options and configurations before and after
    /// pruning, both counted from this table's own options.
    #[must_use]
    pub fn prune_stats(&self) -> PruneStats {
        PruneStats {
            total_options: self.unpruned_radices.iter().sum(),
            kept_options: self.columns.iter().map(Column::radix).sum(),
            evaluated_configs: self.count(),
            full_space: configs(self.unpruned_radices.iter().copied()),
        }
    }

    /// Evaluate one flat index with the lean kernel. `flat` must be in
    /// `1 ..= count()` and `w_units` positive (checked by the public sweep
    /// entry points; this hot-path method only debug-asserts).
    #[must_use]
    pub fn outcome(&self, flat: u64, w_units: f64) -> SweepOutcome {
        debug_assert!(flat >= 1 && flat <= self.count());
        let mut rest = flat;
        let mut sum_r = 0.0;
        let mut sum_b = 0.0;
        for col in &self.columns {
            let radix = col.radix() as u64;
            let (r, b) = col.at((rest % radix) as usize);
            rest /= radix;
            sum_r += r;
            sum_b += b;
        }
        let time_s = w_units / sum_r;
        SweepOutcome {
            time_s,
            energy_j: time_s * sum_b,
        }
    }

    /// Decode a flat index back into a full [`ClusterPoint`] — done only
    /// for frontier survivors.
    #[must_use]
    pub fn decode(&self, flat: u64) -> ClusterPoint {
        let mut rest = flat;
        let per_type = self
            .per_type
            .iter()
            .map(|opts| {
                let radix = opts.len() as u64 + 1;
                let d = rest % radix;
                rest /= radix;
                if d == 0 {
                    None
                } else {
                    Some(opts[(d - 1) as usize].cfg)
                }
            })
            .collect();
        ClusterPoint { per_type }
    }

    /// Stream the whole table through the lean kernel and fold it into the
    /// energy–deadline Pareto frontier, without materializing the space.
    ///
    /// Deterministic: of two equal outcomes the smaller flat index wins, so
    /// the result is the per-point fold's, bit for bit.
    pub fn frontier(&self, w_units: f64) -> Result<ParetoFrontier> {
        validate_work(w_units)?;
        let entries = stream_fold(self.count(), |partial| self.fold_rows(w_units, partial))?;
        Ok(self.frontier_of(entries))
    }

    /// Decode folded entries into the frontier they stand for.
    pub(crate) fn frontier_of(&self, entries: Vec<Entry>) -> ParetoFrontier {
        ParetoFrontier {
            points: entries
                .into_iter()
                .map(|e| ParetoPoint {
                    time_s: e.time_s,
                    energy_j: e.energy_j,
                    config: self.decode(e.flat),
                })
                .collect(),
        }
    }

    /// The kernel's columns, one per type in type order.
    pub(crate) fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// Walk every flat index `1 ..= count()` row by row: `visit` gets each
    /// row's digits of the types after the first, the range of digit 0 it
    /// covers, and the flat index of that range's first cell. The digits
    /// carry like an odometer, with no per-point `%` or `/`.
    pub(crate) fn rows(&self, mut visit: impl FnMut(&[usize], Range<usize>, u64)) {
        let end = self.count();
        let radix0 = self.columns[0].radix();
        let mut digits = vec![0; self.columns.len() - 1];
        // Flat index 0, the empty cluster, is not a configuration.
        let (mut d0, mut flat) = (1, 1);
        while flat <= end {
            if d0 < radix0 {
                visit(&digits, d0..radix0, flat);
                flat += (radix0 - d0) as u64;
            }
            d0 = 0;
            for (d, col) in digits.iter_mut().zip(&self.columns[1..]) {
                *d += 1;
                if *d < col.radix() {
                    break;
                }
                *d = 0;
            }
        }
    }

    /// Fold every flat index into `partial`, with exactly the outcome of
    /// [`Self::outcome`] for every point.
    ///
    /// Digit 0 is the inner loop over contiguous columns; the other
    /// digits' `(r, b)` are row constants. A row's cells go in blocks of
    /// [`BLOCK`] digits. Before walking a block, the fold bounds its cells
    /// from below: `t_lo = W/(r_max + Σr_row)` and
    /// `e_lo = t_lo·(b_min + Σb_row)`, with the block's largest rate and
    /// least power summed in the kernel's order. Rounding is monotone, so
    /// every cell's computed time is at least `t_lo` and its energy at
    /// least `e_lo`. If `partial` holds an entry with time `≤ t_lo` and
    /// energy `< e_lo`, that entry keys below every cell of the block with
    /// strictly less energy, so `partial` would reject them all: the block
    /// is skipped, and the in-row run below restarts. The strict energy
    /// test never skips an exact tie, which a smaller flat index could
    /// win. A NaN bound never skips, and an infinite one only skips cells
    /// that are not finite. The bound holds for any option order, so full
    /// and pruned tables share it.
    ///
    /// Inside a walked block a point is skipped when an earlier point of
    /// its run dominates it ([`Run`]). In a pruned table digit 0 runs
    /// from the unused sentinel to ever slower options, so each row is two
    /// runs and most walked points cost two adds, a divide, a multiply and
    /// one predictable compare.
    fn fold_rows(&self, w_units: f64, partial: &mut PartialFrontier) {
        let (first, rest) = self
            .columns
            .split_first()
            .expect("a table has at least one type");
        // The row constants, per type after the first, in type order.
        let mut row: Vec<(f64, f64)> = Vec::with_capacity(rest.len());
        let mut run = Run::FRESH;
        self.rows(|digits, cells, flat| {
            row.clear();
            row.extend(rest.iter().zip(digits).map(|(c, &d)| c.at(d)));
            let outcome = |r: f64, b: f64| {
                let (mut sum_r, mut sum_b) = (r, b);
                for &(r, b) in &row {
                    sum_r += r;
                    sum_b += b;
                }
                let time_s = w_units / sum_r;
                (time_s, time_s * sum_b)
            };
            let mut lo = cells.start;
            while lo < cells.end {
                let hi = ((lo / BLOCK + 1) * BLOCK).min(cells.end);
                let (t_lo, e_lo) = {
                    let (r_max, b_min) = first.blocks[lo / BLOCK];
                    outcome(r_max, b_min)
                };
                if partial.beats(t_lo, e_lo) {
                    run = Run::FRESH;
                    lo = hi;
                    continue;
                }
                let block = first.rate[lo..hi].iter().zip(&first.power[lo..hi]);
                for (d, (&r, &b)) in (lo..).zip(block) {
                    let (time_s, energy_j) = outcome(r, b);
                    if run.admits(time_s, energy_j) {
                        partial.push(Entry {
                            time_s,
                            energy_j,
                            flat: flat + (d - cells.start) as u64,
                        });
                    }
                }
                lo = hi;
            }
        });
    }
}

/// The in-row dominance skip of a fold: the time of the previous finite
/// point and the least energy since time last decreased.
///
/// Every point of that run has a time no larger than the current one and
/// a smaller flat index, so a current energy at or above the run's least
/// means an earlier point keys below it with no more energy. That point
/// went into the partial frontier (or lost there to a point keyed lower
/// still with no more energy), so the partial would reject the current
/// point anyway and ends up exactly as if every point had been pushed.
/// Non-finite points never enter a run. A fold that skips points without
/// walking them restarts its run.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Run {
    last_t: f64,
    min_e: f64,
}

impl Run {
    /// A run with no point in it yet.
    pub(crate) const FRESH: Self = Self {
        last_t: f64::NEG_INFINITY,
        min_e: f64::INFINITY,
    };

    /// Extend the run by the next point in flat order; `false` when the
    /// point is not finite or an earlier point of the run dominates it.
    #[inline]
    pub(crate) fn admits(&mut self, time_s: f64, energy_j: f64) -> bool {
        if !(time_s.is_finite() && energy_j.is_finite()) {
            return false;
        }
        if time_s < self.last_t {
            self.min_e = f64::INFINITY;
        }
        self.last_t = time_s;
        if energy_j >= self.min_e {
            return false;
        }
        self.min_e = energy_j;
        true
    }
}

/// Every option of each type up to a node cap, with its lone-run `(r, b)`:
/// the model evaluations a table needs, done once and shared by every
/// table cut from it.
///
/// A type's options are kept in [`crate::dvfs::ladder_options`] order,
/// which enumerates node counts outermost, so the options under a cap of
/// `n ≤` the catalog's cap are exactly its first `n·|OPPs|·cores`. A slice
/// takes that prefix per type: [`Self::full`] as is, [`Self::pruned`] as
/// the options of each type's `PrefixIndex` that the prefix keeps. Either
/// is bit for bit the table the one-shot constructor builds over the capped
/// space, with no model evaluation.
///
/// A type stops at its first option whose lone run fails and records that
/// error. A slice whose prefix reaches the failing option returns it, so a
/// request fails exactly when building its own space would: the space's
/// emptiness first, then each type's first failing option in type order.
#[derive(Debug, Clone)]
pub struct OptionCatalog {
    types: Vec<TypeCatalog>,
}

/// One type's evaluated options.
#[derive(Debug, Clone)]
struct TypeCatalog {
    /// The platform and the node cap the catalog was built at.
    bounds: TypeBounds,
    /// Options per node count: the ladder's OPPs times the cores.
    per_node: usize,
    /// The options in ladder order, up to the first failing one.
    options: Vec<RateOption>,
    /// The lone-run error of option `options.len()`, when one failed.
    failure: Option<Error>,
    /// The options some prefix of `options` keeps, built on the first
    /// pruned slice.
    index: OnceLock<PrefixIndex>,
}

impl OptionCatalog {
    /// Evaluate every option of `space`, each type up to its own cap.
    ///
    /// # Errors
    /// A space with no configuration, or whose types do not match
    /// `models`. A failing option is not an error here; it is recorded for
    /// the slices that reach it.
    pub fn build(space: &ConfigSpace, models: &[WorkloadModel]) -> Result<Self> {
        let types = space_options(space, models)?
            .into_iter()
            .zip(&space.types)
            .zip(models)
            .map(|((opts, bounds), model)| {
                // Sized up front: regrowing ~10^4 options by doubling adds
                // about half again to the build's time.
                let mut options = Vec::with_capacity(opts.len());
                let mut failure = None;
                for (cfg, opp) in opts {
                    match lone_run(model, &cfg) {
                        Ok((rate, power_w)) => options.push(RateOption {
                            cfg,
                            rate,
                            power_w,
                            opp,
                        }),
                        Err(e) => {
                            failure = Some(e);
                            break;
                        }
                    }
                }
                TypeCatalog {
                    bounds: bounds.clone(),
                    per_node: model.dvfs.ladder.len() * bounds.platform.cores as usize,
                    options,
                    failure,
                    index: OnceLock::new(),
                }
            })
            .collect();
        Ok(Self { types })
    }

    /// The catalog's own caps: every type, at the node cap it was built at.
    #[must_use]
    pub fn caps(&self) -> Vec<Option<u32>> {
        self.types
            .iter()
            .map(|t| Some(t.bounds.max_nodes))
            .collect()
    }

    /// The full table over the catalog's types capped at `caps`, one entry
    /// per type: `Some(n)` keeps the type's options up to `n` nodes (none
    /// at `n = 0`, leaving only the unused digit), `None` leaves the type
    /// out of the table.
    ///
    /// # Errors
    /// An empty capped space, a cap above the catalog's, or a type's
    /// recorded lone-run failure inside its prefix.
    pub fn full(&self, caps: &[Option<u32>]) -> Result<RateTable> {
        self.slice(caps, |t, len| t.options[..len].to_vec())
    }

    /// The dominance-pruned table over the catalog's types capped at
    /// `caps` (as in [`Self::full`]), the one [`RateTable::build_pruned`]
    /// builds over the capped space. The first call builds each sliced
    /// type's `PrefixIndex`; every call then walks it.
    ///
    /// # Errors
    /// As [`Self::full`].
    pub fn pruned(&self, caps: &[Option<u32>]) -> Result<RateTable> {
        self.slice(caps, |t, len| {
            t.index
                .get_or_init(|| PrefixIndex::build(&t.options))
                .kept(len)
                .map(|i| t.options[i])
                .collect()
        })
    }

    /// Per kept type, the distance between consecutive node counts in its
    /// option order.
    pub(crate) fn node_strides(&self, caps: &[Option<u32>]) -> Vec<u64> {
        self.types
            .iter()
            .zip(caps)
            .filter(|(_, cap)| cap.is_some())
            .map(|(t, _)| t.per_node as u64)
            .collect()
    }

    /// The table whose type `t` holds `keep(t, len)`, where `len` is the
    /// length of `t`'s prefix under its cap, after the capped space's
    /// checks.
    fn slice(
        &self,
        caps: &[Option<u32>],
        keep: impl Fn(&TypeCatalog, usize) -> Vec<RateOption>,
    ) -> Result<RateTable> {
        let kept: Vec<(&TypeCatalog, u32)> = self
            .types
            .iter()
            .zip(caps)
            .filter_map(|(t, cap)| Some((t, (*cap)?)))
            .collect();
        // `space_options`' checks, in its order, on the capped space.
        if kept
            .iter()
            .all(|&(t, cap)| cap == 0 || t.bounds.choices() == 0)
        {
            return Err(empty_space());
        }
        if caps.len() != self.types.len() {
            return Err(Error::ProfileMismatch {
                deployments: caps.len(),
                profiles: self.types.len(),
            });
        }
        let mut prefixes = Vec::with_capacity(kept.len());
        for (t, cap) in kept {
            if cap > t.bounds.max_nodes {
                return Err(Error::InvalidInput(format!(
                    "a cap of {cap} `{}` nodes exceeds the catalog's {}",
                    t.bounds.platform.name, t.bounds.max_nodes
                )));
            }
            let len = cap as usize * t.per_node;
            if let Some(e) = t.failure.as_ref().filter(|_| len > t.options.len()) {
                return Err(e.clone());
            }
            prefixes.push((t, len));
        }
        let unpruned_radices = prefixes.iter().map(|&(_, len)| len + 1).collect();
        let per_type = prefixes.into_iter().map(|(t, len)| keep(t, len)).collect();
        Ok(RateTable::from_options(per_type, unpruned_radices))
    }
}

/// The options that some prefix of a type's option list keeps under
/// [`pareto_order`], in the order it keeps them, each with the prefix
/// lengths that keep it.
///
/// [`pareto_order`] keeps option `i` of a prefix of length `n` exactly
/// when no option `j < n` that sorts before `i` by (rate desc, power asc,
/// index asc) has power `≤ b_i`: call such a `j` a dominator of `i`. With
/// `d(i)` the least index of a dominator (`u32::MAX` when there is none),
/// `i` is kept exactly when `i < n ≤ d(i)`, and kept options come out in
/// key order whatever `n` is. So the index holds the options with
/// `d(i) > i`, the only ones any prefix keeps, in key order, as `(i, d(i))`
/// pairs, and a slice is one filtered walk over it.
#[derive(Debug, Clone)]
struct PrefixIndex(Vec<(u32, u32)>);

impl PrefixIndex {
    /// One pass over `opts` in list order, keeping the current prefix's
    /// staircase: its kept options in key order, powers strictly falling.
    /// Option `i` enters unless the member keyed just before it has power
    /// `≤ b_i`; on entry it evicts the members keyed after it with power
    /// `≥ b_i`, and each evicted member gets `d = i`.
    ///
    /// If any earlier option dominates `i`, so does some current member:
    /// domination is transitive, and an option leaves the staircase, or
    /// never enters it, only through a dominator that is, or becomes, a
    /// member. A member is not dominated by another member, so neither is
    /// any option that dominates a member: a member's first dominator
    /// enters and evicts it, which sets its `d` exactly.
    fn build(opts: &[RateOption]) -> Self {
        let idx = |i: usize| u32::try_from(i).expect("a catalog holds fewer than 2^32 options");
        // Rate descending, then power ascending.
        let key =
            |(ra, ba): (f64, f64), (rb, bb): (f64, f64)| rb.total_cmp(&ra).then(ba.total_cmp(&bb));
        let mut entries: Vec<(u32, u32)> = Vec::new();
        // Members as ((rate, power), position in `entries`), in key order.
        let mut stair: Vec<((f64, f64), usize)> = Vec::new();
        for (i, o) in opts.iter().enumerate() {
            let (r, b) = (o.rate, o.power_w);
            // Members before `at` key below `i`: they beat it on rate and
            // power, or tie both with a smaller index.
            let at = stair.partition_point(|&(m, _)| key(m, (r, b)).is_le());
            if at > 0 && stair[at - 1].0 .1 <= b {
                continue;
            }
            let evicted = stair[at..]
                .iter()
                .take_while(|&&((_, mb), _)| mb >= b)
                .count();
            for &(_, e) in &stair[at..at + evicted] {
                entries[e].1 = idx(i);
            }
            stair.splice(at..at + evicted, [((r, b), entries.len())]);
            entries.push((idx(i), u32::MAX));
        }
        let key_of = |i: u32| (opts[i as usize].rate, opts[i as usize].power_w);
        entries.sort_unstable_by(|&(a, _), &(b, _)| key(key_of(a), key_of(b)).then(a.cmp(&b)));
        Self(entries)
    }

    /// The options a prefix of `len` keeps, in key order.
    fn kept(&self, len: usize) -> impl Iterator<Item = usize> + '_ {
        self.0
            .iter()
            .filter(move |&&(i, d)| (i as usize) < len && len <= d as usize)
            .map(|&(i, _)| i as usize)
    }
}

/// Configurations of a mixed-radix space: every digit combination but the
/// empty cluster.
fn configs(radices: impl Iterator<Item = usize>) -> u64 {
    radices.map(|r| r as u64).product::<u64>().saturating_sub(1)
}

/// Kept options of one type as indices into `opts`, in rate-descending
/// order: the `(max r, min b)` Pareto set that a stable
/// sort by rate descending then power ascending, followed by a pass
/// keeping each option that strictly beats every earlier power, selects.
///
/// Most options fall before the sort. Rates are bucketed by
/// `((r − r_min)/width) as usize`, about one bucket per 8 options, a map
/// monotone in `r`. An option is dropped when an option of a strictly
/// higher bucket (hence strictly faster) matches or beats its power, or
/// when its own bucket's leader (max rate, then min power, then min index)
/// does. Either dominator sorts before it, so the pass would drop it too.
/// The pass keeps exactly the options whose power beats every option
/// sorted before them; those have no dominator of either kind and hold
/// every prefix minimum of power, so running the pass over the survivors
/// alone keeps the same options. The survivors are sorted by
/// `(rate desc, power asc, index asc)`, the order the stable sort gave.
fn pareto_order(opts: &[RateOption]) -> Vec<usize> {
    let (r_min, r_max) = opts
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), o| {
            (lo.min(o.rate), hi.max(o.rate))
        });
    let buckets = (opts.len() / 8).max(1);
    let width = (r_max - r_min) / buckets as f64;
    let bucket_of: Vec<usize> = opts
        .iter()
        .map(|o| {
            if width > 0.0 {
                (((o.rate - r_min) / width) as usize).min(buckets - 1)
            } else {
                0
            }
        })
        .collect();
    let mut leader = vec![usize::MAX; buckets];
    let mut min_power = vec![f64::INFINITY; buckets];
    for (
        i,
        (
            &RateOption {
                rate: r,
                power_w: b,
                ..
            },
            &k,
        ),
    ) in opts.iter().zip(&bucket_of).enumerate()
    {
        min_power[k] = min_power[k].min(b);
        let l = leader[k];
        if l == usize::MAX || r > opts[l].rate || (r == opts[l].rate && b < opts[l].power_w) {
            leader[k] = i;
        }
    }
    // Least power over every bucket strictly above `k`.
    let mut above = vec![f64::INFINITY; buckets];
    for k in (0..buckets - 1).rev() {
        above[k] = above[k + 1].min(min_power[k + 1]);
    }
    let mut survivors: Vec<(f64, f64, usize)> = opts
        .iter()
        .zip(&bucket_of)
        .enumerate()
        .filter(|&(i, (o, &k))| {
            o.power_w < above[k] && (i == leader[k] || o.power_w < opts[leader[k]].power_w)
        })
        .map(|(i, (o, _))| (o.rate, o.power_w, i))
        .collect();
    survivors.sort_unstable_by(|a, c| {
        c.0.total_cmp(&a.0)
            .then(a.1.total_cmp(&c.1))
            .then(a.2.cmp(&c.2))
    });
    let mut best_b = f64::INFINITY;
    survivors
        .into_iter()
        .filter(|&(_, b, _)| {
            let keep = b < best_b;
            best_b = best_b.min(b);
            keep
        })
        .map(|(_, _, i)| i)
        .collect()
}

/// Shared work-size validation for every public sweep entry point.
pub(crate) fn validate_work(w_units: f64) -> Result<()> {
    if !(w_units > 0.0) || !w_units.is_finite() {
        return Err(Error::InvalidInput(format!(
            "work must be positive and finite, got {w_units}"
        )));
    }
    Ok(())
}

/// Every type's `(cfg, opp)` options from its model's ladder
/// ([`crate::dvfs::ladder_options`]), after rejecting a space that cannot
/// produce a single configuration or whose types do not match `models`.
pub(crate) fn space_options(
    space: &ConfigSpace,
    models: &[WorkloadModel],
) -> Result<Vec<Vec<(NodeConfig, usize)>>> {
    if space.types.is_empty() || space.count() == 0 {
        return Err(empty_space());
    }
    if space.types.len() != models.len() {
        return Err(Error::ProfileMismatch {
            deployments: space.types.len(),
            profiles: models.len(),
        });
    }
    Ok(space
        .types
        .iter()
        .zip(models)
        .map(|(t, m)| crate::dvfs::ladder_options(t, &m.dvfs.ladder))
        .collect())
}

/// The error for a space with no configuration.
fn empty_space() -> Error {
    Error::InvalidInput(
        "configuration space is empty (no node types or no deployable options)".into(),
    )
}

/// Fold a table of `count` configurations into sorted frontier entries on
/// the caller's thread: the core shared by [`RateTable::frontier`] and the
/// k-degraded fold in [`crate::resilience`]. `fold` walks the table and
/// pushes its survivors into one partial frontier, skipping any index it
/// likes (e.g. a configuration that cannot tolerate the requested
/// failures).
///
/// A panic inside `fold` is captured and surfaced as
/// [`Error::WorkerPanic`] instead of unwinding through the caller, so a
/// serving thread survives a fold that fails.
pub(crate) fn stream_fold(
    count: u64,
    fold: impl FnOnce(&mut PartialFrontier),
) -> Result<Vec<Entry>> {
    if count == 0 {
        return Ok(Vec::new());
    }
    // Telemetry is one event at each end of the sweep, never per point; the
    // disabled cost of the whole fold is this flag read.
    let tracing = hecmix_obs::enabled();
    let sweep_t0 = tracing.then(std::time::Instant::now);
    if tracing {
        hecmix_obs::emit(|| hecmix_obs::Event::SweepStart { points: count });
    }
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let mut partial = PartialFrontier::default();
        fold(&mut partial);
        if tracing {
            emit_sweep_end(count, partial.entries.len(), sweep_t0);
        }
        partial.entries
    }))
    .map_err(|payload| Error::WorkerPanic(panic_message(&*payload)))
}

/// Emit the end-of-sweep summary (points in the table, frontier size, wall
/// time). `t0` is `Some` only when telemetry was enabled at sweep start.
fn emit_sweep_end(points: u64, frontier: usize, t0: Option<std::time::Instant>) {
    let wall_s = t0.map_or(0.0, |t| t.elapsed().as_secs_f64());
    hecmix_obs::emit(|| hecmix_obs::Event::SweepEnd {
        points,
        frontier,
        wall_s,
    });
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// Compact frontier candidate: no configuration, just the two axes and the
/// flat index it decodes from.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Entry {
    pub(crate) time_s: f64,
    pub(crate) energy_j: f64,
    pub(crate) flat: u64,
}

/// Lexicographic `(time, energy, flat)` order — a strict total order over
/// entries (flat indices are unique), which is what makes the streaming
/// fold deterministic.
fn key_lt(a: &Entry, b: &Entry) -> bool {
    a.time_s
        .total_cmp(&b.time_s)
        .then(a.energy_j.total_cmp(&b.energy_j))
        .then(a.flat.cmp(&b.flat))
        .is_lt()
}

/// A partial Pareto frontier maintained incrementally: entries sorted by
/// strictly increasing time and strictly decreasing energy (the same
/// invariant as [`ParetoFrontier::from_points`] output).
#[derive(Debug, Default)]
pub(crate) struct PartialFrontier {
    entries: Vec<Entry>,
    /// Where the last candidate landed: one past the last insertion, or a
    /// rejected candidate's position. A fold's consecutive survivors land
    /// close together, so each search starts here.
    hint: usize,
    /// Where the last [`Self::beats`] query's prefix ended; a row's blocks
    /// query nearby times, so each search starts here.
    probe: usize,
}

impl PartialFrontier {
    /// Whether an entry has time `≤ t` and energy `< e`. Such an entry
    /// keys below every point with time `≥ t` and energy `≥ e`, with
    /// strictly less energy, so [`Self::push`] would reject each of them.
    /// The entries with time `≤ t` are a prefix whose last entry has the
    /// least energy; the search for its end gallops forward from the last
    /// query's, or bisects below it. False when `t` or `e` is NaN.
    pub(crate) fn beats(&mut self, t: f64, e: f64) -> bool {
        let probe = self.probe.min(self.entries.len());
        let i = if probe == 0 || self.entries[probe - 1].time_s <= t {
            probe + gallop(&self.entries[probe..], |p| p.time_s <= t)
        } else {
            self.entries[..probe - 1].partition_point(|p| p.time_s <= t)
        };
        self.probe = i;
        i > 0 && self.entries[i - 1].energy_j < e
    }

    /// Insert `c` unless an entry keyed below it has no more energy, and
    /// drop the entries keyed above it that it dominates. The insertion
    /// index is `partition_point(key < c)`, found from the hint: if the
    /// entry before the hint keys below `c` the index is at or past the
    /// hint (and `c` is rejected in O(1) when that entry has no more
    /// energy), so the search gallops forward; otherwise it bisects below.
    pub(crate) fn push(&mut self, c: Entry) {
        if !c.time_s.is_finite() || !c.energy_j.is_finite() {
            return;
        }
        let hint = self.hint;
        let i = if hint == 0 || key_lt(&self.entries[hint - 1], &c) {
            if hint > 0 && self.entries[hint - 1].energy_j <= c.energy_j {
                return;
            }
            hint + gallop(&self.entries[hint..], |p| key_lt(p, &c))
        } else {
            self.entries[..hint - 1].partition_point(|p| key_lt(p, &c))
        };
        // Entries before `i` are keyed below `c`, so the one at `i-1` has
        // the minimum energy among them; `c` is dominated iff it does not
        // strictly beat that energy.
        if i > 0 && self.entries[i - 1].energy_j <= c.energy_j {
            self.hint = i;
            return;
        }
        // Entries from `i` on are keyed above `c`; the prefix with energy
        // ≥ `c`'s is dominated by `c`.
        let k = gallop(&self.entries[i..], |p| p.energy_j >= c.energy_j);
        if k == 0 {
            self.entries.insert(i, c);
        } else {
            self.entries[i] = c;
            self.entries.drain(i + 1..i + k);
        }
        self.hint = i + 1;
    }
}

/// `slice.partition_point(pred)` found by galloping from the front, in
/// `O(log k)` steps for an answer `k`.
fn gallop<T>(slice: &[T], pred: impl Fn(&T) -> bool) -> usize {
    let mut hi = 1;
    while hi <= slice.len() && pred(&slice[hi - 1]) {
        hi *= 2;
    }
    // `pred` holds on `slice[..hi/2]` and fails at `hi-1` if that exists.
    let lo = hi / 2;
    lo + slice[lo..hi.min(slice.len())].partition_point(pred)
}

/// Streaming frontier of the **full** space: build the complete rate table
/// and fold every configuration through the lean kernel. Agrees with the
/// exhaustive [`crate::sweep::sweep_frontier`] to floating-point
/// associativity; use this whenever only the frontier is needed.
pub fn stream_frontier(
    space: &ConfigSpace,
    models: &[WorkloadModel],
    w_units: f64,
) -> Result<ParetoFrontier> {
    validate_work(w_units)?;
    RateTable::build(space, models)?.frontier(w_units)
}

/// Streaming frontier of the **dominance-pruned** space, with prune
/// statistics — the configuration-space reduction the paper leaves open
/// ("An approach to reduce the configuration space is beyond the scope of
/// this paper", §IV-B). The production path for large sweeps: per-type
/// pruning (sound by [`RateTable::build_pruned`]'s argument) typically
/// shrinks the product by orders of magnitude before the kernel ever runs.
pub fn stream_frontier_pruned(
    space: &ConfigSpace,
    models: &[WorkloadModel],
    w_units: f64,
) -> Result<(ParetoFrontier, PruneStats)> {
    validate_work(w_units)?;
    fold_pruned(&RateTable::build_pruned(space, models)?, w_units)
}

/// Fold a pruned table into its frontier, with its prune statistics (also
/// emitted as `sweep_pruned`).
pub(crate) fn fold_pruned(table: &RateTable, w_units: f64) -> Result<(ParetoFrontier, PruneStats)> {
    let stats = table.prune_stats();
    hecmix_obs::emit(|| hecmix_obs::Event::SweepPruned {
        total_points: stats.full_space,
        kept_points: stats.evaluated_configs,
    });
    let frontier = table.frontier(w_units)?;
    Ok((frontier, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mix_match::evaluate;
    use crate::sweep::{sweep_frontier, sweep_space};
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

    #[test]
    fn full_table_enumerates_ladder_options_type_zero_fastest() {
        let (space, models) = setup();
        let table = RateTable::build(&space, &models).unwrap();
        // Two-point models: the lift's options are the P-state space.
        assert_eq!(table.count(), space.count());
        let opts: Vec<Vec<NodeConfig>> = space
            .types
            .iter()
            .zip(&models)
            .map(|(t, m)| {
                crate::dvfs::ladder_options(t, &m.dvfs.ladder)
                    .into_iter()
                    .map(|(cfg, _)| cfg)
                    .collect()
            })
            .collect();
        let mut seen = std::collections::HashSet::new();
        for flat in 1..=table.count() {
            let point = table.decode(flat);
            let (d0, d1) = (
                flat % (opts[0].len() as u64 + 1),
                flat / (opts[0].len() as u64 + 1),
            );
            let digit = |opts: &[NodeConfig], d: u64| (d > 0).then(|| opts[d as usize - 1]);
            assert_eq!(
                point.per_type,
                vec![digit(&opts[0], d0), digit(&opts[1], d1)]
            );
            assert!(point.types_used() >= 1);
            for (cfg, m) in point.per_type.iter().zip(&models) {
                if let Some(c) = cfg {
                    ExecTimeModel::new(m).check_config(c).unwrap();
                }
            }
            assert!(
                seen.insert(format!("{point:?}")),
                "flat {flat} repeats a point"
            );
        }
    }

    #[test]
    fn lean_kernel_matches_full_evaluation() {
        let (space, models) = setup();
        let table = RateTable::build(&space, &models).unwrap();
        let w = 1e6;
        for flat in 1..=table.count() {
            let point = table.decode(flat);
            let lean = table.outcome(flat, w);
            let full = evaluate(&point, &models, w).unwrap();
            assert_eq!(lean.time_s, full.time_s, "time must be bit-identical");
            assert!(
                (lean.energy_j - full.energy_j).abs() <= 1e-9 * full.energy_j,
                "flat {flat}: lean {} J vs full {} J",
                lean.energy_j,
                full.energy_j
            );
        }
    }

    #[test]
    fn streaming_frontier_matches_exhaustive() {
        let (space, models) = setup();
        let w = 1e6;
        let exhaustive = sweep_frontier(&space, &models, w).unwrap();
        let streamed = stream_frontier(&space, &models, w).unwrap();
        // Frontier *membership* can differ at exact ties (the lean kernel
        // and the full evaluator round energy differently in the last
        // bits), so compare the energy-per-deadline curves both ways.
        for p in &exhaustive.points {
            let got = streamed.min_energy_for_deadline(p.time_s).unwrap();
            assert!((got.energy_j - p.energy_j).abs() <= 1e-9 * p.energy_j);
        }
        for p in &streamed.points {
            let got = exhaustive.min_energy_for_deadline(p.time_s).unwrap();
            assert!(got.energy_j <= p.energy_j + 1e-9 * p.energy_j);
        }
        // Every streamed point must decode to a config whose full
        // evaluation reproduces the kernel numbers.
        for p in &streamed.points {
            let full = evaluate(&p.config, &models, w).unwrap();
            assert_eq!(p.time_s, full.time_s);
            assert!((p.energy_j - full.energy_j).abs() <= 1e-9 * full.energy_j);
        }
    }

    /// The per-point fold: every flat index evaluated on its own and pushed.
    fn per_point_entries(table: &RateTable, w: f64) -> Vec<Entry> {
        seeded_fold(table, w, &[], false)
    }

    /// Fold the whole table into a partial frontier that already holds
    /// `seed`: with the row fold, or point by point.
    fn seeded_fold(table: &RateTable, w: f64, seed: &[Entry], rows: bool) -> Vec<Entry> {
        let mut partial = PartialFrontier::default();
        for &e in seed {
            partial.push(e);
        }
        if rows {
            table.fold_rows(w, &mut partial);
        } else {
            for flat in 1..=table.count() {
                let out = table.outcome(flat, w);
                partial.push(Entry {
                    time_s: out.time_s,
                    energy_j: out.energy_j,
                    flat,
                });
            }
        }
        partial.entries
    }

    fn bits(entries: &[Entry]) -> Vec<(u64, u64, u64)> {
        entries
            .iter()
            .map(|e| (e.time_s.to_bits(), e.energy_j.to_bits(), e.flat))
            .collect()
    }

    #[test]
    fn row_fold_carries_like_per_point() {
        // Rows of the 3+2 table are 61 points long, and the three-type
        // tables also carry from the second digit into the third. Full and
        // pruned, each must fold like pushing every point.
        let (space, models) = setup();
        let mut third = space.types[0].clone();
        third.max_nodes = 1;
        let space3 = ConfigSpace::new(vec![space.types[0].clone(), space.types[1].clone(), third]);
        let models3 = vec![models[0].clone(), models[1].clone(), models[0].clone()];
        let w = 3e6;
        for table in [
            RateTable::build(&space, &models).unwrap(),
            RateTable::build_pruned(&space, &models).unwrap(),
            RateTable::build(&space3, &models3).unwrap(),
            RateTable::build_pruned(&space3, &models3).unwrap(),
        ] {
            assert_eq!(
                bits(&seeded_fold(&table, w, &[], true)),
                bits(&per_point_entries(&table, w))
            );
        }
    }

    #[test]
    fn block_bound_ties_are_walked() {
        let e = |time_s: f64, energy_j: f64, flat: u64| Entry {
            time_s,
            energy_j,
            flat,
        };
        let mut pf = PartialFrontier::default();
        for c in [e(1.0, 9.0, 1), e(2.0, 4.0, 2), e(3.0, 1.0, 3)] {
            pf.push(c);
        }
        // An entry exactly at the bound beats nothing. It beats a bound one
        // ulp above its energy, not one a ulp below its time.
        assert!(!pf.beats(2.0, 4.0));
        assert!(pf.beats(2.0, 4.0f64.next_up()));
        assert!(pf.beats(2.0, 9.0) && !pf.beats(2.0f64.next_down(), 9.0));
        assert!(pf.beats(2.5, 4.5) && pf.beats(10.0, 1.5) && !pf.beats(10.0, 1.0));
        assert!(pf.beats(1.0, 9.5) && !pf.beats(0.5, 100.0));
        assert!(!pf.beats(f64::NAN, 100.0) && !pf.beats(5.0, f64::NAN));

        // Seed the partial frontier with an entry at each block's bound,
        // under a flat index larger than any cell's. Where a block's
        // bound is one of its cells (a block holding only the unused
        // digit, or only one option), that cell ties the seed exactly and
        // must replace it, as a point-by-point fold does.
        let (arm, amd) = (Platform::reference_arm(), Platform::reference_amd());
        let (_, models) = setup();
        let w = 3e6;
        // Type 0 at cap 0 holds only the unused digit; at cap 4 its 81
        // digits end in a block of one option.
        for arm_cap in [0, 4] {
            let space = ConfigSpace::two_type(arm.clone(), arm_cap, amd.clone(), 2);
            let table = RateTable::build(&space, &models).unwrap();
            let (first, second) = (&table.columns[0], &table.columns[1]);
            let mut seed = Vec::new();
            for d1 in 0..second.radix() {
                let (r1, b1) = second.at(d1);
                for &(r_max, b_min) in &first.blocks {
                    let t_lo = w / (r_max + r1);
                    seed.push(e(t_lo, t_lo * (b_min + b1), u64::MAX - seed.len() as u64));
                }
            }
            let want = seeded_fold(&table, w, &seed, false);
            assert!(
                want.iter().any(|p| p.flat <= table.count()),
                "a cell replaced its tied seed"
            );
            assert_eq!(
                bits(&seeded_fold(&table, w, &seed, true)),
                bits(&want),
                "ARM cap {arm_cap}"
            );
        }
    }

    #[test]
    fn seeded_row_fold_skips_like_per_point() {
        // Seeded with the whole table's frontier, the fold skips nearly
        // every block, including the short last block of each row; it must
        // still match pushing every point.
        let (space, models) = setup();
        let w = 5e6;
        for table in [
            RateTable::build(&space, &models).unwrap(),
            RateTable::build_pruned(&space, &models).unwrap(),
        ] {
            let seed = per_point_entries(&table, w);
            assert_eq!(
                bits(&seeded_fold(&table, w, &seed, true)),
                bits(&seeded_fold(&table, w, &seed, false))
            );
        }
    }

    #[test]
    fn pruned_table_shrinks_and_preserves_curve() {
        let (space, models) = setup();
        let w = 1e6;
        let full = sweep_frontier(&space, &models, w).unwrap();
        let (pruned, stats) = stream_frontier_pruned(&space, &models, w).unwrap();
        assert!(stats.evaluated_configs < stats.full_space / 2, "{stats:?}");
        assert!(stats.kept_options < stats.total_options);
        for p in &full.points {
            let got = pruned.min_energy_for_deadline(p.time_s).unwrap();
            assert!((got.energy_j - p.energy_j).abs() <= 1e-9 * p.energy_j);
        }
        for p in &pruned.points {
            let got = full.min_energy_for_deadline(p.time_s).unwrap();
            assert!(got.energy_j <= p.energy_j + 1e-9 * p.energy_j);
        }
    }

    #[test]
    fn no_point_vectors_needed_for_large_space() {
        // A space far past what sweep_space would comfortably materialize
        // per-point: 64 + 8 nodes ≈ 187k configurations. The streaming fold
        // only ever holds one partial frontier.
        let arm = Platform::reference_arm();
        let amd = Platform::reference_amd();
        let space = ConfigSpace::two_type(arm.clone(), 64, amd.clone(), 8);
        let models = vec![
            WorkloadModel::synthetic_cpu_bound(&arm, "ep", 60.0),
            WorkloadModel::synthetic_cpu_bound(&amd, "ep", 40.0),
        ];
        let frontier = stream_frontier(&space, &models, 1e7).unwrap();
        assert!(!frontier.is_empty());
        assert!(frontier
            .points
            .windows(2)
            .all(|w| w[1].time_s > w[0].time_s && w[1].energy_j < w[0].energy_j));
    }

    #[test]
    fn kernel_outcome_vs_sweep_space_on_io_bound() {
        let arm = Platform::reference_arm();
        let amd = Platform::reference_amd();
        let space = ConfigSpace::two_type(arm.clone(), 2, amd.clone(), 2);
        let models = vec![
            WorkloadModel::synthetic_io_bound(&arm, "kv", 1000.0, 512.0),
            WorkloadModel::synthetic_io_bound(&amd, "kv", 700.0, 512.0),
        ];
        let table = RateTable::build(&space, &models).unwrap();
        let evaluated = sweep_space(&space, &models, 5e4).unwrap();
        for (k, e) in evaluated.iter().enumerate() {
            let lean = table.outcome(k as u64 + 1, 5e4);
            assert_eq!(lean.time_s, e.outcome.time_s);
            assert!((lean.energy_j - e.outcome.energy_j).abs() <= 1e-9 * e.outcome.energy_j);
        }
    }

    #[test]
    fn error_paths() {
        let (space, models) = setup();
        assert!(matches!(
            RateTable::build(&space, &models[..1]),
            Err(Error::ProfileMismatch { .. })
        ));
        let table = RateTable::build(&space, &models).unwrap();
        assert!(table.frontier(0.0).is_err());
        assert!(table.frontier(f64::NAN).is_err());
        assert!(stream_frontier(&space, &models, -1.0).is_err());
        assert!(stream_frontier(&space, &models, f64::INFINITY).is_err());
        assert!(stream_frontier_pruned(&space, &models, 0.0).is_err());
    }

    #[test]
    fn empty_spaces_rejected() {
        let empty = ConfigSpace::new(Vec::new());
        assert!(matches!(
            RateTable::build(&empty, &[]),
            Err(Error::InvalidInput(_))
        ));
        // A space whose only type deploys zero nodes has no configurations.
        let zero = ConfigSpace::new(vec![crate::config::TypeBounds {
            platform: Platform::reference_arm(),
            max_nodes: 0,
        }]);
        let models = vec![WorkloadModel::synthetic_cpu_bound(
            &Platform::reference_arm(),
            "ep",
            60.0,
        )];
        assert!(matches!(
            RateTable::build_pruned(&zero, &models),
            Err(Error::InvalidInput(_))
        ));
    }

    #[test]
    fn worker_panic_surfaces_as_error() {
        let got = stream_fold(16, |_| {
            for flat in 1..=16 {
                if flat == 7 {
                    panic!("boom at {flat}");
                }
            }
        });
        assert!(
            matches!(&got, Err(Error::WorkerPanic(msg)) if msg.contains("boom at 7")),
            "{got:?}"
        );
        // And a clean fold still works after the captured panic.
        let ok = stream_fold(8, |partial| {
            for flat in 1..=8 {
                partial.push(Entry {
                    time_s: flat as f64,
                    energy_j: -(flat as f64),
                    flat,
                });
            }
        })
        .unwrap();
        assert_eq!(ok.len(), 8);
    }

    #[test]
    fn partial_frontier_push_keeps_invariant() {
        let mut pf = PartialFrontier::default();
        let e = |t: f64, j: f64, flat: u64| Entry {
            time_s: t,
            energy_j: j,
            flat,
        };
        pf.push(e(2.0, 8.0, 10));
        pf.push(e(1.0, 10.0, 11)); // faster, pricier → kept before
        pf.push(e(2.5, 9.0, 12)); // dominated
        pf.push(e(2.0, 8.0, 9)); // duplicate, smaller flat wins
        pf.push(e(3.0, 1.0, 13)); // new relaxed optimum
        pf.push(e(f64::NAN, 1.0, 14)); // dropped
        let got: Vec<(f64, f64, u64)> = pf
            .entries
            .iter()
            .map(|p| (p.time_s, p.energy_j, p.flat))
            .collect();
        assert_eq!(got, vec![(1.0, 10.0, 11), (2.0, 8.0, 9), (3.0, 1.0, 13)]);
    }

    #[test]
    fn hinted_push_matches_plain_insert() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};

        // The plain insert: bisect the whole frontier for every candidate.
        fn plain_push(entries: &mut Vec<Entry>, c: Entry) {
            if !c.time_s.is_finite() || !c.energy_j.is_finite() {
                return;
            }
            let i = entries.partition_point(|p| key_lt(p, &c));
            if i > 0 && entries[i - 1].energy_j <= c.energy_j {
                return;
            }
            let k = entries[i..].partition_point(|p| p.energy_j >= c.energy_j);
            entries.splice(i..i + k, std::iter::once(c));
        }

        let mut rng = SmallRng::seed_from_u64(15);
        for case in 0..200 {
            // Coarse grids make equal times and equal energies common;
            // monotone stretches mimic a fold's runs.
            let grid: f64 = [4.0, 16.0, 1e3][case % 3];
            let mut hinted = PartialFrontier::default();
            let mut plain = Vec::new();
            let mut t = 0.0;
            for flat in 0..rng.gen_range(1..400u64) {
                t = if rng.gen_bool(0.7) {
                    t + rng.gen_range(0.0..grid).floor()
                } else {
                    rng.gen_range(0.0..grid * 8.0).floor()
                };
                let e = if rng.gen_bool(0.02) {
                    f64::NAN
                } else {
                    rng.gen_range(0.0..grid * 8.0).floor()
                };
                let c = Entry {
                    time_s: t,
                    energy_j: e,
                    flat: rng.gen_range(0..1000u64) * 1000 + flat,
                };
                hinted.push(c);
                plain_push(&mut plain, c);
                assert_eq!(bits(&hinted.entries), bits(&plain), "case {case}");
            }
        }
    }

    /// Options with these `(rate, power)` keys.
    fn options_of(keys: &[(f64, f64)]) -> Vec<RateOption> {
        keys.iter()
            .map(|&(rate, power_w)| RateOption {
                cfg: NodeConfig::new(1, 1, crate::types::Frequency::from_ghz(1.0)),
                rate,
                power_w,
                opp: 0,
            })
            .collect()
    }

    /// Pruning by a full stable sort by `(rate desc, power asc)`, keeping
    /// each option that strictly beats every earlier power.
    fn pareto_order_by_sort(keys: &[(f64, f64)]) -> Vec<usize> {
        let mut order: Vec<usize> = (0..keys.len()).collect();
        order.sort_by(|&a, &c| {
            keys[c]
                .0
                .total_cmp(&keys[a].0)
                .then(keys[a].1.total_cmp(&keys[c].1))
        });
        let mut best_b = f64::INFINITY;
        order.retain(|&i| {
            let keep = keys[i].1 < best_b;
            best_b = best_b.min(keys[i].1);
            keep
        });
        order
    }

    /// Crafted key lists with ties in rate, in power and in both, then 300
    /// seeded lists on grids of 3, 20 and 10^6 values per axis.
    fn key_lists() -> Vec<Vec<(f64, f64)>> {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};

        let mut lists: Vec<Vec<(f64, f64)>> = vec![
            // A single option.
            vec![(2.0, 3.0)],
            // All rates equal: zero bucket width, min power then index wins.
            vec![(1.0, 5.0), (1.0, 4.0), (1.0, 4.0), (1.0, 6.0)],
            (0..40).map(|i| (7.0, f64::from(40 - i % 7))).collect(),
            // Equal powers: only the fastest survives, first index on ties.
            vec![(1.0, 2.0), (3.0, 2.0), (3.0, 2.0), (2.0, 2.0)],
            (0..40).map(|i| (f64::from(i % 9), 1.0)).collect(),
            // Equal rates within buckets, powers tied across buckets.
            (0..64)
                .map(|i| (f64::from(i / 4), f64::from(100 - (i / 4) * 3 + i % 3)))
                .collect(),
            // A strict staircase keeps everything.
            (0..33)
                .map(|i| (f64::from(i), f64::from(i) * 2.0))
                .collect(),
            // Rates spread over many magnitudes, faster is hungrier.
            (0..50)
                .map(|i| (1e-3 * 1.4f64.powi(i), 1.0 + f64::from(i % 11)))
                .collect(),
        ];
        let mut rng = SmallRng::seed_from_u64(8);
        for case in 0..300 {
            let n = rng.gen_range(1..300usize);
            let grid: f64 = [3.0, 20.0, 1e6][case % 3];
            lists.push(
                (0..n)
                    .map(|_| {
                        (
                            1.0 + rng.gen_range(0.0..grid).floor(),
                            1.0 + rng.gen_range(0.0..grid).floor(),
                        )
                    })
                    .collect(),
            );
        }
        lists
    }

    #[test]
    fn prefiltered_pruning_matches_sort_and_retain() {
        for (case, keys) in key_lists().iter().enumerate() {
            assert_eq!(
                pareto_order(&options_of(keys)),
                pareto_order_by_sort(keys),
                "case {case}: {keys:?}"
            );
        }
    }

    #[test]
    fn prefix_index_matches_pareto_order_on_every_prefix() {
        for (case, keys) in key_lists().iter().enumerate() {
            let opts = options_of(keys);
            let index = PrefixIndex::build(&opts);
            for len in 0..=opts.len() {
                assert_eq!(
                    index.kept(len).collect::<Vec<_>>(),
                    pareto_order(&opts[..len]),
                    "case {case}, prefix {len}: {keys:?}"
                );
            }
        }
    }
}
