//! Reference implementations that exist only to check a fast path.
//!
//! Nothing here is meant to be called outside tests and benchmarks: each
//! function is the plain, slow version of something production code does
//! cleverly, kept so the clever version can be compared with it bit for
//! bit.

use hecmix_core::rate_table::RateTable;

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
/// on the set of points, not on their order, so it is exactly what any
/// chunking of the same fold must produce.
#[must_use]
pub fn per_point_fold(table: &RateTable, w_units: f64) -> Vec<FoldPoint> {
    let mut entries: Vec<FoldPoint> = Vec::new();
    for flat in 1..=table.count() {
        let out = table.outcome(flat, w_units);
        let c = FoldPoint {
            time_s: out.time_s,
            energy_j: out.energy_j,
            flat,
        };
        if !c.time_s.is_finite() || !c.energy_j.is_finite() {
            continue;
        }
        let i = entries.partition_point(|p| {
            p.time_s
                .total_cmp(&c.time_s)
                .then(p.energy_j.total_cmp(&c.energy_j))
                .then(p.flat.cmp(&c.flat))
                .is_lt()
        });
        if i > 0 && entries[i - 1].energy_j <= c.energy_j {
            continue;
        }
        let k = entries[i..].partition_point(|p| p.energy_j >= c.energy_j);
        entries.splice(i..i + k, std::iter::once(c));
    }
    entries
}
