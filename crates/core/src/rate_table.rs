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
//! * **Lean kernel.** A matched cluster is then
//!   `T = W / Σr` and `E = T · Σb` ([`SweepOutcome`]) — a handful of adds
//!   and one divide per configuration, no allocation. The full
//!   [`crate::mix_match::ClusterOutcome`] path remains available for
//!   reports and validation.
//! * **Streaming fold.** Configurations are indexed by a flat mixed-radix
//!   integer (digit `0` = type unused, digit `d ≥ 1` = option `d − 1` of
//!   [`crate::dvfs::ladder_options`], type 0 fastest); worker threads
//!   claim chunks of the index
//!   range from an atomic cursor, fold each chunk into a small partial
//!   Pareto frontier, and the partials are merged `O(n + m)` at the end.
//!   Peak memory is `O(threads × frontier)`, independent of the space
//!   size, and only frontier survivors are ever decoded back into
//!   [`ClusterPoint`]s.
//! * **Rows over columns.** Each type's `r` and `b` live in their own
//!   columns with a `0.0` sentinel at digit 0, so a configuration's sums
//!   take no branch. A chunk is decoded once; the fold then walks digit 0
//!   along contiguous columns and carries the other digits like an
//!   odometer. Within a chunk it skips every point an earlier point of
//!   the same chunk already dominates, and survivors enter the partial
//!   frontier through an insert that starts searching where the last one
//!   landed.
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

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

use crate::config::{ClusterPoint, ConfigSpace, NodeConfig};
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

/// One type's options as columns indexed by digit: entry 0 is the `0.0`
/// sentinel for "type unused", entry `d ≥ 1` is option `d - 1`. Rates and
/// powers are positive, and `x + 0.0 == x` for every `x ≥ +0`, so summing
/// the sentinel leaves a configuration's `Σr` and `Σb` bit-unchanged.
#[derive(Debug, Clone)]
struct Column {
    rate: Vec<f64>,
    power: Vec<f64>,
}

impl Column {
    fn new(opts: &[RateOption]) -> Self {
        let col =
            |f: fn(&RateOption) -> f64| std::iter::once(0.0).chain(opts.iter().map(f)).collect();
        Self {
            rate: col(|o| o.rate),
            power: col(|o| o.power_w),
        }
    }

    /// The digit's radix: the options plus the unused digit.
    fn radix(&self) -> usize {
        self.rate.len()
    }

    fn at(&self, d: usize) -> (f64, f64) {
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
        let per_type = Self::type_options(space, models)?;
        let unpruned_radices = per_type.iter().map(|o| o.len() + 1).collect();
        Ok(Self::from_options(per_type, unpruned_radices))
    }

    /// Build a dominance-pruned table: within each type, keep only the
    /// `(max r, min b)` Pareto set of options. Because a configuration's
    /// outcome depends on its options only through `(Σr, Σb)`, swapping a
    /// within-type dominated option for its dominator never worsens either
    /// axis, so the pruned product preserves the frontier as an
    /// energy-per-deadline curve.
    pub fn build_pruned(space: &ConfigSpace, models: &[WorkloadModel]) -> Result<Self> {
        let per_type = Self::type_options(space, models)?;
        let unpruned_radices = per_type.iter().map(|o| o.len() + 1).collect();
        let per_type = per_type
            .iter()
            .map(|opts| {
                let keys: Vec<(f64, f64)> = opts.iter().map(|o| (o.rate, o.power_w)).collect();
                pareto_order(&keys).into_iter().map(|i| opts[i]).collect()
            })
            .collect();
        Ok(Self::from_options(per_type, unpruned_radices))
    }

    fn from_options(per_type: Vec<Vec<RateOption>>, unpruned_radices: Vec<usize>) -> Self {
        let columns = per_type.iter().map(|o| Column::new(o)).collect();
        Self {
            per_type,
            columns,
            unpruned_radices,
        }
    }

    fn type_options(space: &ConfigSpace, models: &[WorkloadModel]) -> Result<Vec<Vec<RateOption>>> {
        space_options(space, models)?
            .into_iter()
            .zip(models)
            .map(|(opts, model)| {
                // Sized up front: collecting through `?` cannot see the
                // length, and regrowing ~10^4 options by doubling added
                // about half again to the build's time.
                let mut out = Vec::with_capacity(opts.len());
                for (cfg, opp) in opts {
                    let (rate, power_w) = lone_run(model, &cfg)?;
                    out.push(RateOption {
                        cfg,
                        rate,
                        power_w,
                        opp,
                    });
                }
                Ok(out)
            })
            .collect()
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
    /// Deterministic: near-duplicate outcomes are tie-broken by the
    /// smallest flat index, so the result is independent of thread count
    /// and chunk scheduling.
    pub fn frontier(&self, w_units: f64) -> Result<ParetoFrontier> {
        validate_work(w_units)?;
        let entries = stream_fold(self.count(), |start, end, partial| {
            self.fold_rows(start, end, w_units, partial);
        })?;
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

    /// Fold flat indices `start ..= end` into `partial`, with exactly the
    /// outcome of [`Self::outcome`] for every point.
    ///
    /// `start` is decoded once. Digit 0 is the inner loop over contiguous
    /// columns; the other digits' `(r, b)` are row constants, refreshed
    /// only when a row ends and the odometer carries.
    ///
    /// A point is skipped when an earlier point of this chunk dominates it.
    /// The fold keeps the time of the previous finite point and the least
    /// energy since time last decreased: every point of that run has a time
    /// no larger than the current one and a smaller flat index, so a
    /// current energy at or above the run's least means an earlier point
    /// keys below it with no more energy. That point went into `partial`
    /// (or lost there to a point keyed lower still with no more energy), so
    /// `partial` would reject the skipped point anyway and ends up exactly
    /// as if every point had been pushed. Non-finite points never enter a
    /// run. In a pruned table digit 0 runs from the unused sentinel to
    /// ever slower options, so each row is two runs and most points cost
    /// two adds, a divide, a multiply and one predictable compare.
    fn fold_rows(&self, start: u64, end: u64, w_units: f64, partial: &mut PartialFrontier) {
        let (first, rest) = self
            .columns
            .split_first()
            .expect("a table has at least one type");
        let mut digits = Vec::with_capacity(self.columns.len());
        let mut left = start;
        for col in &self.columns {
            let radix = col.radix() as u64;
            digits.push((left % radix) as usize);
            left /= radix;
        }
        // The row constants, per type after the first, in type order.
        let mut row: Vec<(f64, f64)> = rest
            .iter()
            .zip(&digits[1..])
            .map(|(c, &d)| c.at(d))
            .collect();
        let (mut last_t, mut run_min_e) = (f64::NEG_INFINITY, f64::INFINITY);
        let mut flat = start;
        let mut d0 = digits[0];
        loop {
            // The rest of this row, or of the chunk if it ends first.
            let len = ((first.radix() - d0) as u64).min(end - flat + 1) as usize;
            let cells = first.rate[d0..d0 + len]
                .iter()
                .zip(&first.power[d0..d0 + len]);
            for (k, (&r, &b)) in cells.enumerate() {
                let (mut sum_r, mut sum_b) = (r, b);
                for &(r, b) in &row {
                    sum_r += r;
                    sum_b += b;
                }
                let time_s = w_units / sum_r;
                let energy_j = time_s * sum_b;
                if !(time_s.is_finite() && energy_j.is_finite()) {
                    continue;
                }
                if time_s < last_t {
                    run_min_e = f64::INFINITY;
                }
                last_t = time_s;
                if energy_j >= run_min_e {
                    continue;
                }
                run_min_e = energy_j;
                partial.push(Entry {
                    time_s,
                    energy_j,
                    flat: flat + k as u64,
                });
            }
            flat += len as u64;
            if flat > end {
                return;
            }
            d0 = 0;
            for ((d, col), cell) in digits[1..].iter_mut().zip(rest).zip(&mut row) {
                *d += 1;
                if *d < col.radix() {
                    *cell = col.at(*d);
                    break;
                }
                *d = 0;
                *cell = col.at(0);
            }
        }
    }
}

/// Configurations of a mixed-radix space: every digit combination but the
/// empty cluster.
fn configs(radices: impl Iterator<Item = usize>) -> u64 {
    radices.map(|r| r as u64).product::<u64>().saturating_sub(1)
}

/// Kept options of one type as indices into `keys = (rate, power)`, in
/// rate-descending order: the `(max r, min b)` Pareto set that a stable
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
fn pareto_order(keys: &[(f64, f64)]) -> Vec<usize> {
    let (r_min, r_max) = keys
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &(r, _)| {
            (lo.min(r), hi.max(r))
        });
    let buckets = (keys.len() / 8).max(1);
    let width = (r_max - r_min) / buckets as f64;
    let bucket_of: Vec<usize> = keys
        .iter()
        .map(|&(r, _)| {
            if width > 0.0 {
                (((r - r_min) / width) as usize).min(buckets - 1)
            } else {
                0
            }
        })
        .collect();
    let mut leader = vec![usize::MAX; buckets];
    let mut min_power = vec![f64::INFINITY; buckets];
    for (i, (&(r, b), &k)) in keys.iter().zip(&bucket_of).enumerate() {
        min_power[k] = min_power[k].min(b);
        let l = leader[k];
        if l == usize::MAX || r > keys[l].0 || (r == keys[l].0 && b < keys[l].1) {
            leader[k] = i;
        }
    }
    // Least power over every bucket strictly above `k`.
    let mut above = vec![f64::INFINITY; buckets];
    for k in (0..buckets - 1).rev() {
        above[k] = above[k + 1].min(min_power[k + 1]);
    }
    let mut survivors: Vec<(f64, f64, usize)> = keys
        .iter()
        .zip(&bucket_of)
        .enumerate()
        .filter(|&(i, (&(_, b), &k))| b < above[k] && (i == leader[k] || b < keys[leader[k]].1))
        .map(|(i, (&(r, b), _))| (r, b, i))
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

/// Below this many configurations per thread, spawning is not worth it.
const MIN_CHUNK: u64 = 4096;

/// Threads the fold may use, read once: `available_parallelism` reads
/// cgroup files on every call, which costs more than a small fold.
fn parallelism() -> usize {
    static CPUS: OnceLock<usize> = OnceLock::new();
    *CPUS.get_or_init(|| std::thread::available_parallelism().map_or(1, NonZeroUsize::get))
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
        return Err(Error::InvalidInput(
            "configuration space is empty (no node types or no deployable options)".into(),
        ));
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

/// Fold flat indices `1..=count` into sorted frontier entries — the
/// chunked parallel core shared by [`RateTable::frontier`] and the
/// degraded-mode sweeps in [`crate::resilience`]. Each chunk reaches
/// `fold` as `(start, end, partial)`: `fold` pushes the survivors among
/// `start ..= end` into its worker's partial frontier, skipping any index
/// it likes (e.g. a configuration that cannot tolerate the requested
/// failures).
///
/// Worker panics are captured and surfaced as [`Error::WorkerPanic`]
/// instead of aborting the caller's thread; every worker is still joined
/// before returning, so no detached thread outlives the call.
pub(crate) fn stream_fold<F>(count: u64, fold: F) -> Result<Vec<Entry>>
where
    F: Fn(u64, u64, &mut PartialFrontier) + Sync,
{
    if count == 0 {
        return Ok(Vec::new());
    }
    let threads = parallelism().min(count.div_ceil(MIN_CHUNK) as usize);
    // Telemetry granularity is per chunk / per worker, never per point:
    // the kernel stays untouched and the disabled cost of the whole fold
    // is this one flag read.
    let tracing = hecmix_obs::enabled();
    let sweep_t0 = tracing.then(std::time::Instant::now);
    if tracing {
        hecmix_obs::emit(|| hecmix_obs::Event::SweepStart {
            points: count,
            workers: threads.max(1),
        });
    }
    if threads <= 1 {
        // Same capture contract as the threaded path, so callers see
        // `WorkerPanic` regardless of how the fold was scheduled.
        return std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut partial = PartialFrontier::default();
            fold(1, count, &mut partial);
            if tracing {
                hecmix_obs::emit(|| hecmix_obs::Event::SweepWorker {
                    worker: 0,
                    chunks: 1,
                    scanned: count,
                    kept: partial.entries.len(),
                });
                emit_sweep_end(count, partial.entries.len(), sweep_t0);
            }
            partial.entries
        }))
        .map_err(|payload| Error::WorkerPanic(panic_message(&*payload)));
    }
    let chunk = (count / (threads as u64 * 8)).clamp(MIN_CHUNK, 1 << 16);
    let cursor = AtomicU64::new(1);
    std::thread::scope(|s| {
        let workers: Vec<_> = (0..threads)
            .map(|worker| {
                // Move only copies and references into the worker: `fold`
                // itself stays owned by the caller.
                let (fold, cursor) = (&fold, &cursor);
                s.spawn(move || {
                    let mut partial = PartialFrontier::default();
                    let (mut chunks, mut scanned) = (0u64, 0u64);
                    loop {
                        let start = cursor.fetch_add(chunk, Ordering::Relaxed);
                        if start > count {
                            break;
                        }
                        let end = count.min(start + chunk - 1);
                        fold(start, end, &mut partial);
                        if tracing {
                            chunks += 1;
                            scanned += end - start + 1;
                        }
                    }
                    if tracing {
                        hecmix_obs::emit(|| hecmix_obs::Event::SweepWorker {
                            worker,
                            chunks,
                            scanned,
                            kept: partial.entries.len(),
                        });
                    }
                    partial.entries
                })
            })
            .collect();
        // Join every worker even after a panic: leaving handles for the
        // scope to auto-join would re-raise the panic we mean to capture.
        let mut acc = Vec::new();
        let mut panic_msg: Option<String> = None;
        for w in workers {
            match w.join() {
                Ok(part) => {
                    let merged = merge_entries(&acc, &part);
                    if tracing {
                        hecmix_obs::emit(|| hecmix_obs::Event::SweepMerge {
                            left: acc.len(),
                            right: part.len(),
                            merged: merged.len(),
                        });
                    }
                    acc = merged;
                }
                Err(payload) => {
                    panic_msg.get_or_insert_with(|| panic_message(&*payload));
                }
            }
        }
        match panic_msg {
            Some(msg) => Err(Error::WorkerPanic(msg)),
            None => {
                if tracing {
                    emit_sweep_end(count, acc.len(), sweep_t0);
                }
                Ok(acc)
            }
        }
    })
}

/// Emit the end-of-sweep summary (points scanned, frontier size, wall
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
}

impl PartialFrontier {
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

/// Merge two partial frontiers in `O(n + m)`: a sorted merge by key with
/// the same strictly-improving-energy pass `from_points` uses.
fn merge_entries(a: &[Entry], b: &[Entry]) -> Vec<Entry> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    let mut best = f64::INFINITY;
    while i < a.len() || j < b.len() {
        let take_a = match (a.get(i), b.get(j)) {
            (Some(p), Some(q)) => key_lt(p, q),
            (Some(_), None) => true,
            _ => false,
        };
        let e = if take_a {
            i += 1;
            a[i - 1]
        } else {
            j += 1;
            b[j - 1]
        };
        if e.energy_j < best {
            best = e.energy_j;
            out.push(e);
        }
    }
    out
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
    let table = RateTable::build_pruned(space, models)?;
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
    fn per_point_entries(table: &RateTable, start: u64, end: u64, w: f64) -> Vec<Entry> {
        let mut partial = PartialFrontier::default();
        for flat in start..=end {
            let out = table.outcome(flat, w);
            partial.push(Entry {
                time_s: out.time_s,
                energy_j: out.energy_j,
                flat,
            });
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
    fn streaming_is_deterministic_across_chunkings() {
        // Force the sequential path (small count) and compare against the
        // same table folded through tiny hand-fed chunks.
        let (space, models) = setup();
        let table = RateTable::build(&space, &models).unwrap();
        let w = 2e6;
        let reference = table.frontier(w).unwrap();
        let mut parts: Vec<Vec<Entry>> = Vec::new();
        let mut flat = 1;
        while flat <= table.count() {
            parts.push(per_point_entries(
                &table,
                flat,
                table.count().min(flat + 96),
                w,
            ));
            flat += 97;
        }
        let merged = parts
            .into_iter()
            .fold(Vec::new(), |acc, p| merge_entries(&acc, &p));
        assert_eq!(merged.len(), reference.len());
        for (m, r) in merged.iter().zip(&reference.points) {
            assert_eq!(m.time_s, r.time_s);
            assert_eq!(m.energy_j, r.energy_j);
            assert_eq!(table.decode(m.flat), r.config);
        }
    }

    #[test]
    fn mid_row_chunks_fold_like_one_chunk() {
        // Rows of the 3+2 table are 61 points long; chunk lengths that are
        // not multiples of it start and end mid-row, and single points
        // exercise a carry after every row of one. The three-type table
        // also carries from its second digit into its third.
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
            let count = table.count();
            let whole = {
                let mut partial = PartialFrontier::default();
                table.fold_rows(1, count, w, &mut partial);
                partial.entries
            };
            assert_eq!(bits(&whole), bits(&per_point_entries(&table, 1, count, w)));
            for chunk in [1, 2, 7, 60, 61, 62, 97, 1000] {
                let mut merged = Vec::new();
                let mut start = 1;
                while start <= count {
                    let end = count.min(start + chunk - 1);
                    let mut partial = PartialFrontier::default();
                    table.fold_rows(start, end, w, &mut partial);
                    assert_eq!(
                        bits(&partial.entries),
                        bits(&per_point_entries(&table, start, end, w)),
                        "chunk {start}..={end}"
                    );
                    merged = merge_entries(&merged, &partial.entries);
                    start = end + 1;
                }
                assert_eq!(bits(&merged), bits(&whole), "chunk length {chunk}");
            }
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
        // only ever holds per-thread partial frontiers.
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
        // Sequential path (count below the spawn threshold).
        let got = stream_fold(16, |start, end, _| {
            for flat in start..=end {
                if flat == 7 {
                    panic!("boom at {flat}");
                }
            }
        });
        assert!(
            matches!(&got, Err(Error::WorkerPanic(msg)) if msg.contains("boom at 7")),
            "{got:?}"
        );
        // Threaded path: enough indices that workers are spawned (when the
        // host has more than one CPU; otherwise this re-checks sequential).
        let got = stream_fold(MIN_CHUNK * 64, |start, end, _| {
            if (start..=end).any(|flat| flat % (MIN_CHUNK + 1) == 0) {
                panic!("threaded boom");
            }
        });
        assert!(
            matches!(&got, Err(Error::WorkerPanic(msg)) if msg.contains("threaded boom")),
            "{got:?}"
        );
        // And a clean fold still works after the captured panics.
        let ok = stream_fold(8, |start, end, partial| {
            for flat in start..=end {
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

    #[test]
    fn prefiltered_pruning_matches_sort_and_retain() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};

        let crafted: Vec<Vec<(f64, f64)>> = vec![
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
        for keys in &crafted {
            assert_eq!(pareto_order(keys), pareto_order_by_sort(keys), "{keys:?}");
        }
        let mut rng = SmallRng::seed_from_u64(8);
        for case in 0..300 {
            let n = rng.gen_range(1..300usize);
            let grid: f64 = [3.0, 20.0, 1e6][case % 3];
            let keys: Vec<(f64, f64)> = (0..n)
                .map(|_| {
                    (
                        1.0 + rng.gen_range(0.0..grid).floor(),
                        1.0 + rng.gen_range(0.0..grid).floor(),
                    )
                })
                .collect();
            assert_eq!(
                pareto_order(&keys),
                pareto_order_by_sort(&keys),
                "case {case}"
            );
        }
    }
}
