//! Hybrid sorted-set intersection kernels for triangle enumeration.
//!
//! Every triangle computation in this workspace reduces to intersecting
//! two sorted adjacency lists. Two kernels cover the pairs:
//!
//! * [`intersect_sorted_positions`](crate::primitives::intersect_sorted_positions)
//!   — the linear two-pointer **merge**, optimal when the lists have
//!   similar sizes (`O(|a| + |b|)`).
//! * [`intersect_bitset_positions`] — probes a pre-built packed-`u64`
//!   [`PackedBitset`] of the larger list, `O(s)` with one word load per
//!   probe. Wins when the larger side is a hub whose membership
//!   structure is reused across many intersections (the per-hub maps in
//!   `kcore_graph::dodg` are built lazily and amortized over the whole
//!   k-truss peel).
//!
//! [`choose`] picks per pair from the two list lengths; nothing
//! overrides it (the input decides, as in Shun & Tangwongsan,
//! "Multicore Triangle Computations Without Tuning", ICDE'15).
//! Kernel-choice tallies are recorded as `tri.kernel.{merge,bitset}`
//! counters through `kcore-obs`, live at `KCORE_TRACE=spans`.
//!
//! Both kernels enumerate the same matches of two lists in the same
//! order; `kcore_graph::dodg`'s tests drive each kernel through the
//! triangle dispatch and pin that equivalence.

use kcore_obs::counter;

/// Minimum larger-side length before [`choose`] considers the bitset
/// kernel: below this a hub map costs more to build than it saves.
/// The maps are rank-prefix structures built in `O(n/64 + d)`, so the
/// break-even is low; measured on the power-law benches, 32 captures
/// the whole hub tail without flooding tiny vertices with maps.
pub const BITSET_MIN_LEN: usize = 32;

/// Minimum size ratio (`larger / smaller`) before [`choose`] prefers
/// the bitset probe over merging: a probe costs ~3 ops (word load,
/// popcount, payload index) against the merge's ~1 op per element, so
/// the probe wins once the larger side is at least twice the smaller.
pub const BITSET_SKEW: usize = 2;

/// The kernel [`choose`] resolved for one pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChosenKernel {
    /// Linear two-pointer merge.
    Merge,
    /// Packed-bitset probe of the larger side's hub map.
    Bitset,
}

/// Resolves the kernel for one pair of list lengths and tallies the
/// choice (`tri.kernel.*` counters): the bitset probe when the larger
/// side is hub-sized (at least [`BITSET_MIN_LEN`]) and at least
/// [`BITSET_SKEW`] times the smaller, the merge otherwise. Symmetric
/// in its arguments.
#[inline]
pub fn choose(len_a: usize, len_b: usize) -> ChosenKernel {
    let (small, big) = (len_a.min(len_b).max(1), len_a.max(len_b));
    if big >= BITSET_MIN_LEN && big >= BITSET_SKEW * small {
        counter!("tri.kernel.bitset", 1);
        ChosenKernel::Bitset
    } else {
        counter!("tri.kernel.merge", 1);
        ChosenKernel::Merge
    }
}

/// A packed-`u64` membership bitset over a dense `u32` universe.
///
/// The probe side of the bitset intersection kernel: one word load and
/// a shift per candidate. `kcore_graph::dodg` builds one per hub
/// vertex (lazily) and reuses it across every intersection that hub
/// participates in.
#[derive(Debug, Clone)]
pub struct PackedBitset {
    words: Box<[u64]>,
}

impl PackedBitset {
    /// An empty bitset over `0..universe`.
    pub fn new(universe: usize) -> Self {
        Self { words: vec![0u64; universe.div_ceil(64)].into_boxed_slice() }
    }

    /// Inserts `x`.
    #[inline]
    pub fn set(&mut self, x: u32) {
        self.words[(x >> 6) as usize] |= 1u64 << (x & 63);
    }

    /// Membership probe.
    #[inline]
    pub fn contains(&self, x: u32) -> bool {
        (self.words[(x >> 6) as usize] >> (x & 63)) & 1 != 0
    }

    /// The packed words, little-endian within each `u64` — for
    /// rank/popcount structures layered on top (the hub maps resolve a
    /// member's position in the sorted source list from a per-word
    /// popcount prefix over exactly these words).
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.words
    }
}

/// Calls `f(i)` for every `a[i]` contained in `bits`, in increasing
/// position order. The caller resolves the larger side's payload (edge
/// ids) through whatever map accompanies the bitset.
#[inline]
pub fn intersect_bitset_positions<F>(a: &[u32], bits: &PackedBitset, mut f: F)
where
    F: FnMut(usize),
{
    for (i, &x) in a.iter().enumerate() {
        if bits.contains(x) {
            f(i);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::primitives::intersect_sorted_positions;

    fn merge_pairs(a: &[u32], b: &[u32]) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        intersect_sorted_positions(a, b, |i, j| out.push((i, j)));
        out
    }

    fn bitset_of(members: &[u32], universe: usize) -> PackedBitset {
        let mut bits = PackedBitset::new(universe);
        for &x in members {
            bits.set(x);
        }
        bits
    }

    #[test]
    fn bitset_probe_matches_merge() {
        let a: Vec<u32> = (0..500).filter(|x| x % 3 == 0).collect();
        let b: Vec<u32> = (0..500).filter(|x| x % 5 == 0).collect();
        let bits = bitset_of(&b, 500);
        let mut hits = Vec::new();
        intersect_bitset_positions(&a, &bits, |i| hits.push(i));
        let want: Vec<usize> = merge_pairs(&a, &b).into_iter().map(|(i, _)| i).collect();
        assert_eq!(hits, want);
        assert!(bits.contains(495));
        assert!(!bits.contains(496));
    }

    #[test]
    fn bitset_word_boundaries() {
        let members = [0u32, 63, 64, 127, 128, 191];
        let bits = bitset_of(&members, 192);
        for x in 0..192u32 {
            assert_eq!(bits.contains(x), members.contains(&x), "x = {x}");
        }
    }

    #[test]
    fn choose_auto_follows_the_size_ratio() {
        // Similar sizes: merge.
        assert_eq!(choose(100, 150), ChosenKernel::Merge);
        // Skewed but the big side is below the hub floor: merge.
        assert_eq!(choose(4, BITSET_MIN_LEN - 1), ChosenKernel::Merge);
        // Hub-sized big side with enough skew: bitset (symmetric in
        // argument order).
        assert_eq!(choose(4, BITSET_MIN_LEN), ChosenKernel::Bitset);
        assert_eq!(choose(1000, 4), ChosenKernel::Bitset);
        // Hub-sized but not skewed enough: merge.
        assert_eq!(choose(200, 300), ChosenKernel::Merge);
        // Empty driver still resolves (small clamps to 1).
        assert_eq!(choose(0, BITSET_MIN_LEN), ChosenKernel::Bitset);
    }
}
