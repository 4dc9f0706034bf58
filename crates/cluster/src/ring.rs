//! Consistent-hash ring with virtual nodes for trace-cache affinity.
//!
//! The gateway routes every cell batch by its `workload@scale` trace key
//! ([`mds_bench::grid::route_key`]), so every backend only ever emulates
//! the workloads for *its* shard of the key space: trace- and cell-cache
//! hit rates stay high as the fleet grows instead of every backend
//! re-deriving every trace.
//!
//! Each backend contributes `vnodes` points to the ring, hashed from its
//! name with SipHash (the `std` [`DefaultHasher`]); a key routes to the
//! backend owning the first point clockwise from the key's own hash.
//! Virtual nodes bound the load imbalance, and the successor walk that
//! yields failover [`replicas`](HashRing::replicas) gives each key a
//! stable, per-key ordering of distinct backends — the property tests in
//! `tests/ring_props.rs` pin both the imbalance bound and the
//! minimal-disruption guarantee (growing the fleet only remaps keys onto
//! the new backend).

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

/// SipHash of `bytes` under a fixed per-use `salt` (vnode index for ring
/// points, a reserved value for keys). [`DefaultHasher::new`] is keyed
/// with constants, so the ring layout is deterministic across processes
/// — a gateway restart routes every key exactly as before.
fn sip(bytes: &[u8], salt: u64) -> u64 {
    let mut h = DefaultHasher::new();
    salt.hash(&mut h);
    bytes.hash(&mut h);
    h.finish()
}

/// A consistent-hash ring over a fixed set of named backends.
#[derive(Debug, Clone)]
pub struct HashRing {
    names: Vec<String>,
    /// `(point hash, backend index)` sorted by hash: the ring, flattened.
    points: Vec<(u64, usize)>,
}

impl HashRing {
    /// Builds a ring where each of `names` contributes `vnodes` points.
    ///
    /// # Panics
    ///
    /// If `vnodes` is zero (a backend with no points can never be
    /// routed to).
    pub fn new(names: &[String], vnodes: usize) -> HashRing {
        assert!(vnodes >= 1, "a ring needs at least one vnode per backend");
        let mut points = Vec::with_capacity(names.len() * vnodes);
        for (idx, name) in names.iter().enumerate() {
            for vnode in 0..vnodes {
                points.push((sip(name.as_bytes(), vnode as u64), idx));
            }
        }
        points.sort_unstable();
        HashRing {
            names: names.to_vec(),
            points,
        }
    }

    /// Number of distinct backends on the ring.
    pub fn backends(&self) -> usize {
        self.names.len()
    }

    /// Total ring points (backends × vnodes).
    pub fn points(&self) -> usize {
        self.points.len()
    }

    /// The backend name at `idx` (as passed to [`HashRing::new`]).
    pub fn name(&self, idx: usize) -> &str {
        &self.names[idx]
    }

    /// The position a key occupies on the ring.
    pub fn key_hash(key: &str) -> u64 {
        // A salt outside the vnode range keeps key positions independent
        // of point positions even for adversarial names.
        sip(key.as_bytes(), u64::MAX)
    }

    /// The position of one virtual node on the ring. Exposed so tests
    /// can rebuild the ring with an independent reference model and
    /// compare routing decisions.
    pub fn point_hash(name: &str, vnode: usize) -> u64 {
        sip(name.as_bytes(), vnode as u64)
    }

    /// The backend index owning `key`, or `None` on an empty ring.
    pub fn primary(&self, key: &str) -> Option<usize> {
        self.replicas(key, 1).first().copied()
    }

    /// Up to `want` *distinct* backend indices for `key`, in failover
    /// order: the primary first, then each successor encountered walking
    /// the ring clockwise. The order is a pure function of the key and
    /// the membership, so every gateway worker fails over identically.
    pub fn replicas(&self, key: &str, want: usize) -> Vec<usize> {
        let want = want.min(self.names.len());
        if self.points.is_empty() || want == 0 {
            return Vec::new();
        }
        let hash = Self::key_hash(key);
        // First point at-or-after the key, wrapping at the top of the
        // hash space — the classic clockwise successor.
        let start = self.points.partition_point(|&(p, _)| p < hash) % self.points.len();
        let mut out = Vec::with_capacity(want);
        for offset in 0..self.points.len() {
            let (_, idx) = self.points[(start + offset) % self.points.len()];
            if !out.contains(&idx) {
                out.push(idx);
                if out.len() == want {
                    break;
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("127.0.0.1:{}", 9000 + i)).collect()
    }

    #[test]
    fn every_key_routes_and_replicas_are_distinct() {
        let ring = HashRing::new(&names(4), 32);
        assert_eq!(ring.backends(), 4);
        assert_eq!(ring.points(), 4 * 32);
        for i in 0..100 {
            let key = format!("fig{i}@tiny");
            let primary = ring.primary(&key).unwrap();
            let replicas = ring.replicas(&key, 3);
            assert_eq!(replicas[0], primary, "primary leads the failover order");
            assert_eq!(replicas.len(), 3);
            let mut sorted = replicas.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), 3, "replicas must be distinct backends");
        }
    }

    #[test]
    fn wanting_more_replicas_than_backends_returns_them_all() {
        let ring = HashRing::new(&names(2), 16);
        let replicas = ring.replicas("fig5@tiny", 8);
        assert_eq!(replicas.len(), 2);
    }

    #[test]
    fn routing_is_deterministic_across_ring_rebuilds() {
        let a = HashRing::new(&names(5), 64);
        let b = HashRing::new(&names(5), 64);
        for i in 0..64 {
            let key = format!("table{i}@small");
            assert_eq!(a.replicas(&key, 2), b.replicas(&key, 2));
        }
    }

    #[test]
    fn single_backend_owns_everything() {
        let ring = HashRing::new(&names(1), 8);
        assert_eq!(ring.primary("anything"), Some(0));
        assert_eq!(ring.name(0), "127.0.0.1:9000");
    }
}
