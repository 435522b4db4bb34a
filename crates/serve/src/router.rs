//! Consistent-hash routing for the replica fleet.
//!
//! The gateway partitions the plan-cache key space across N replicas with
//! a classic consistent-hash ring: each replica contributes `vnodes`
//! virtual points (FNV-1a of `"replica-{i}/vnode-{v}"`, see [`Ring::new`]),
//! the points are sorted, and a key is owned by the first point clockwise
//! from the key's own hash. Cache keys are already FNV-1a over
//! `models_hash` + query shape ([`crate::api::cache_key`]), so the ring
//! input is uniformly distributed and *identical* on the gateway and on
//! every replica — which is exactly what makes the partitioning a cache
//! partitioning: one key always lands on the same replica, so each
//! replica's LRU holds a disjoint shard of the hot set.
//!
//! The ring itself is static and health-blind: it depends only on the
//! replica count and vnode count, so every gateway instance (and every
//! test) computes the same ownership. Health filtering happens one level
//! up in [`crate::fleet`], by walking the [`Ring::preference`] list — the
//! distinct-replica order in which a key's attempts should cascade. When
//! a replica dies, its keys implicitly re-map to the next preference
//! entry; when it returns, they snap back (no rebalancing storm, only the
//! dead replica's range ever moves).

use hecmix_core::persist::fnv1a;

/// A static consistent-hash ring over `replicas` replicas.
pub struct Ring {
    replicas: usize,
    /// `(point_hash, replica_idx)`, sorted by hash.
    points: Vec<(u64, usize)>,
}

impl Ring {
    /// Build a ring of `replicas` replicas with `vnodes` virtual points
    /// each (more vnodes → smoother key distribution; 64 is plenty for
    /// single-digit fleets).
    ///
    /// # Panics
    /// Panics if `replicas` or `vnodes` is zero.
    #[must_use]
    pub fn new(replicas: usize, vnodes: usize) -> Self {
        assert!(replicas > 0, "ring needs at least one replica");
        assert!(vnodes > 0, "ring needs at least one vnode per replica");
        let mut points = Vec::with_capacity(replicas * vnodes);
        for replica in 0..replicas {
            for v in 0..vnodes {
                let label = format!("replica-{replica}/vnode-{v}");
                points.push((fnv1a(label.as_bytes()), replica));
            }
        }
        // Ties (hash collisions between labels) are broken by replica
        // index so the ring is deterministic regardless of build order.
        points.sort_unstable();
        Self { replicas, points }
    }

    /// The replica that owns `key`: the first ring point clockwise from
    /// the key's hash position (health-blind; see [`Ring::preference`]).
    #[must_use]
    pub fn owner(&self, key: u64) -> usize {
        let start = self.points.partition_point(|&(h, _)| h < key);
        self.points[start % self.points.len()].1
    }

    /// The first `n` *distinct* replicas clockwise from `key` — the order
    /// in which attempts for this key should cascade when owners are
    /// unhealthy. Always starts with [`Ring::owner`]; `n` is clamped to
    /// the replica count.
    #[must_use]
    pub fn preference(&self, key: u64, n: usize) -> Vec<usize> {
        let want = n.min(self.replicas);
        let mut out = Vec::with_capacity(want);
        let start = self.points.partition_point(|&(h, _)| h < key);
        for i in 0..self.points.len() {
            let replica = self.points[(start + i) % self.points.len()].1;
            if !out.contains(&replica) {
                out.push(replica);
                if out.len() == want {
                    break;
                }
            }
        }
        out
    }
}

/// SplitMix64: a tiny, high-quality 64-bit mixer. [`backoff_ms`] jitters
/// from it — data-dependent randomness with no RNG state to carry around.
#[must_use]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Milliseconds to wait before retry `attempt` (≥ 1): the fleet's retries
/// and loadgen's 503 retries. The base doubles from `base_ms` (at most 6
/// times) up to `cap_ms`; `Retry-After` floors it, capped at
/// `retry_after_cap_ms`; every step saturates. [`splitmix64`] of the
/// caller's `jitter` key spreads the wait over `[base/2, 1.5·base)`, so a
/// retry always waits the same time while clients rejected together fan
/// out.
#[must_use]
pub fn backoff_ms(
    base_ms: u64,
    cap_ms: u64,
    retry_after_cap_ms: u64,
    attempt: u32,
    retry_after_s: Option<u64>,
    jitter: u64,
) -> u64 {
    let exp = base_ms
        .saturating_mul(1 << attempt.saturating_sub(1).min(6))
        .min(cap_ms);
    let base = match retry_after_s {
        Some(s) => exp.max(s.saturating_mul(1000).min(retry_after_cap_ms)),
        None => exp,
    }
    .max(1);
    base / 2 + splitmix64(jitter) % base
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ownership_is_deterministic_and_total() {
        let a = Ring::new(3, 64);
        let b = Ring::new(3, 64);
        for key in (0..10_000u64).map(splitmix64) {
            let owner = a.owner(key);
            assert!(owner < 3);
            assert_eq!(owner, b.owner(key), "two identical rings must agree");
        }
    }

    #[test]
    fn keys_spread_across_all_replicas() {
        let ring = Ring::new(3, 64);
        let mut counts = [0usize; 3];
        for key in (0..30_000u64).map(splitmix64) {
            counts[ring.owner(key)] += 1;
        }
        for (replica, &c) in counts.iter().enumerate() {
            // With 64 vnodes the worst shard should still hold a healthy
            // fraction; this guards against a degenerate ring, not for
            // perfect balance.
            assert!(c > 30_000 / 10, "replica {replica} owns only {c} keys");
        }
    }

    #[test]
    fn preference_starts_at_owner_and_is_distinct() {
        let ring = Ring::new(5, 32);
        for key in (0..1000u64).map(splitmix64) {
            let pref = ring.preference(key, 5);
            assert_eq!(pref.len(), 5);
            assert_eq!(pref[0], ring.owner(key));
            let mut sorted = pref.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), 5, "preference must be distinct: {pref:?}");
        }
    }

    #[test]
    fn preference_clamps_to_replica_count() {
        let ring = Ring::new(2, 16);
        assert_eq!(ring.preference(42, 10).len(), 2);
    }

    #[test]
    fn single_replica_owns_everything() {
        let ring = Ring::new(1, 8);
        for key in 0..100u64 {
            assert_eq!(ring.owner(key), 0);
        }
    }

    #[test]
    fn removing_a_replica_only_moves_its_keys() {
        // Compare 3-replica ownership with the fleet-level failover rule
        // (next preference entry): keys owned by the survivors must not
        // move when replica 1 dies.
        let ring = Ring::new(3, 64);
        for key in (0..5000u64).map(splitmix64) {
            let pref = ring.preference(key, 3);
            let owner_with_1_dead = *pref.iter().find(|&&r| r != 1).expect("survivor");
            if pref[0] != 1 {
                assert_eq!(
                    owner_with_1_dead, pref[0],
                    "healthy owners must be stable across another replica's death"
                );
            }
        }
    }

    #[test]
    fn splitmix64_is_deterministic_and_mixing() {
        assert_eq!(splitmix64(1), splitmix64(1));
        assert_ne!(splitmix64(1), splitmix64(2));
        // Low bits must differ for adjacent inputs (jitter quality).
        assert_ne!(splitmix64(100) & 0xFF, splitmix64(101) & 0xFF);
    }
}
