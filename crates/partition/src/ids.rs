//! Stable structural identifiers for partitions and tree nodes.
//!
//! The MPC embedding (Algorithm 2) lets every machine compute its
//! points' root-to-leaf paths independently; nodes discovered by
//! different machines must agree on an identifier without communication.
//! We derive 64-bit ids by hashing the *structure* (level, per-bucket
//! ball assignments, parent chain) with a fixed mixing function — any
//! machine hashing the same structure gets the same id.
//!
//! Collisions: with `≈ n·logΔ` distinct nodes and 64-bit ids the
//! collision probability is `≲ n²log²Δ / 2^64`, far below the
//! `1/poly(n)` failure budget Theorem 1 already tolerates.

use treeemb_linalg::random::mix2;

/// Running structural hash (Fowler–Noll–Vo-style chaining over the
/// SplitMix finalizer).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StructuralHash(pub u64);

impl StructuralHash {
    /// Seed hash for a new chain.
    pub fn root() -> Self {
        StructuralHash(0x7265_6562_6D48_5354) // "reebmHST"
    }

    /// Absorbs one 64-bit token.
    #[inline]
    pub fn absorb(self, token: u64) -> Self {
        StructuralHash(mix2(self.0, token))
    }

    /// Absorbs a signed lattice coordinate.
    #[inline]
    pub fn absorb_i64(self, token: i64) -> Self {
        self.absorb(token as u64)
    }

    /// The digest.
    #[must_use]
    pub fn value(self) -> u64 {
        self.0
    }
}

/// Root constant of the second (high) lane of [`PackedLevelKey`]. Any
/// constant other than [`StructuralHash::root`]'s works: the two SplitMix
/// chains start from different states, so their collisions are
/// independent for all practical purposes.
pub const PACKED_HI_ROOT: u64 = 0x5041_434B_4C4B_4559; // "PACKLKEY"

/// An allocation-free hybrid-partition key: two independent 64-bit
/// structural-hash lanes over the same token stream, giving ~128 bits of
/// collision resistance. Two points receive equal keys iff (w.h.p.)
/// their exact per-bucket ball assignments are equal, so grouping by
/// `PackedLevelKey` reproduces the exact
/// [`crate::fuzzing::LevelAssignment`] grouping without materializing
/// per-bucket `Vec<i64>` cells.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PackedLevelKey {
    /// Low lane: the [`StructuralHash::root`] chain.
    pub lo: u64,
    /// High lane: the [`PACKED_HI_ROOT`] chain.
    pub hi: u64,
}

/// Running two-lane hasher producing a [`PackedLevelKey`]. Absorbing the
/// same tokens as a [`StructuralHash`] chain keeps the low lane equal to
/// that chain's digest.
#[derive(Debug, Clone, Copy)]
pub struct PackedHasher {
    lo: StructuralHash,
    hi: StructuralHash,
}

impl Default for PackedHasher {
    fn default() -> Self {
        Self::new()
    }
}

impl PackedHasher {
    /// Seed hasher for a new key.
    #[must_use]
    pub fn new() -> Self {
        Self {
            lo: StructuralHash::root(),
            hi: StructuralHash(PACKED_HI_ROOT),
        }
    }

    /// Absorbs one 64-bit token into both lanes.
    #[inline]
    pub fn absorb(&mut self, token: u64) {
        self.lo = self.lo.absorb(token);
        self.hi = self.hi.absorb(token);
    }

    /// The 128-bit digest.
    #[must_use]
    pub fn key(&self) -> PackedLevelKey {
        PackedLevelKey {
            lo: self.lo.value(),
            hi: self.hi.value(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fuzzing::BallAssignment;

    fn asg(grid: u32, cell: &[i64]) -> BallAssignment {
        BallAssignment {
            grid_index: grid,
            cell: cell.to_vec(),
        }
    }

    #[test]
    fn equal_structures_hash_equal() {
        let a = asg(1, &[2, -5]).absorb_into(StructuralHash::root().absorb(3));
        let b = asg(1, &[2, -5]).absorb_into(StructuralHash::root().absorb(3));
        assert_eq!(a, b);
    }

    #[test]
    fn different_grid_indices_differ() {
        let a = asg(1, &[0]).absorb_into(StructuralHash::root());
        let b = asg(2, &[0]).absorb_into(StructuralHash::root());
        assert_ne!(a, b);
    }

    #[test]
    fn coordinate_order_matters() {
        let a = asg(0, &[1, 2]).absorb_into(StructuralHash::root());
        let b = asg(0, &[2, 1]).absorb_into(StructuralHash::root());
        assert_ne!(a, b);
    }

    #[test]
    fn chain_is_prefix_sensitive() {
        let a = StructuralHash::root().absorb(1).absorb(2);
        let b = StructuralHash::root().absorb(2).absorb(1);
        assert_ne!(a, b);
    }

    #[test]
    fn negative_coordinates_are_distinct() {
        let a = asg(0, &[-1]).absorb_into(StructuralHash::root());
        let b = asg(0, &[1]).absorb_into(StructuralHash::root());
        assert_ne!(a, b);
    }

    #[test]
    fn packed_low_lane_tracks_structural_chain() {
        let mut p = PackedHasher::new();
        p.absorb(0xBA11);
        p.absorb(7);
        p.absorb(-3i64 as u64);
        p.absorb(0xE4D);
        let single = StructuralHash::root()
            .absorb(0xBA11)
            .absorb(7)
            .absorb_i64(-3)
            .absorb(0xE4D);
        assert_eq!(p.key().lo, single.value());
    }

    #[test]
    fn packed_lanes_diverge() {
        let mut p = PackedHasher::new();
        p.absorb(1);
        let k = p.key();
        assert_ne!(k.lo, k.hi, "lanes must evolve independently");
    }

    #[test]
    fn no_trivial_length_extension_confusion() {
        // [1] followed by [2] vs [1, 2] in one assignment: the END marker
        // separates assignments.
        let a = asg(0, &[2]).absorb_into(asg(0, &[1]).absorb_into(StructuralHash::root()));
        let b = asg(0, &[1, 2]).absorb_into(StructuralHash::root());
        assert_ne!(a, b);
    }
}
