//! Order-preserving parallel `pack`, prefix scans, and counting.
//!
//! `Pack` is the workhorse primitive of the paper's framework (Alg. 1
//! extracts frontiers and refines the active set with it, and Thm. 3.1's
//! work bound assumes it costs `O(|A|)`). The implementation here is the
//! textbook three-phase blocked pack: per-block count, exclusive scan
//! over block counts, per-block write — `O(n)` work, `O(log n)` span,
//! and stable (output preserves input order), which keeps every
//! algorithm in this workspace deterministic run-to-run.

use rayon::prelude::*;

/// Block size for the blocked pack/scan phases. Large enough that the
/// per-block bookkeeping vanishes, small enough to load-balance.
const BLOCK: usize = 4096;

/// Returns all elements of `input` satisfying `pred`, preserving order.
pub fn pack<T, F>(input: &[T], pred: F) -> Vec<T>
where
    T: Copy + Send + Sync,
    F: Fn(&T) -> bool + Sync,
{
    let n = input.len();
    if n <= BLOCK {
        return input.iter().copied().filter(|x| pred(x)).collect();
    }
    let blocks = n.div_ceil(BLOCK);
    let counts: Vec<usize> = (0..blocks)
        .into_par_iter()
        .map(|b| {
            let lo = b * BLOCK;
            let hi = (lo + BLOCK).min(n);
            input[lo..hi].iter().filter(|x| pred(x)).count()
        })
        .collect();
    let (offsets, total) = exclusive_scan(&counts);
    let mut out: Vec<T> = Vec::with_capacity(total);
    #[allow(clippy::uninit_vec)]
    // SAFETY: every slot in 0..total is written exactly once below —
    // block b writes the contiguous range offsets[b]..offsets[b]+counts[b],
    // and the scan guarantees those ranges tile 0..total.
    unsafe {
        out.set_len(total);
    }
    let out_ptr = SendPtr::new(out.as_mut_ptr());
    (0..blocks).into_par_iter().for_each(|b| {
        let lo = b * BLOCK;
        let hi = (lo + BLOCK).min(n);
        let mut pos = offsets[b];
        for x in &input[lo..hi] {
            if pred(x) {
                // SAFETY: disjoint ranges per block, see above.
                unsafe { out_ptr.slot(pos).write(*x) };
                pos += 1;
            }
        }
    });
    out
}

/// Returns the indices `i` in `0..n` for which `pred(i)` holds, in order.
///
/// This is the form used to extract frontiers ("all active vertices with
/// induced degree k") without materializing the candidate array first.
pub fn pack_index<F>(n: usize, pred: F) -> Vec<u32>
where
    F: Fn(usize) -> bool + Sync,
{
    if n <= BLOCK {
        return (0..n).filter(|&i| pred(i)).map(|i| i as u32).collect();
    }
    let blocks = n.div_ceil(BLOCK);
    let counts: Vec<usize> = (0..blocks)
        .into_par_iter()
        .map(|b| {
            let lo = b * BLOCK;
            let hi = (lo + BLOCK).min(n);
            (lo..hi).filter(|&i| pred(i)).count()
        })
        .collect();
    let (offsets, total) = exclusive_scan(&counts);
    let mut out: Vec<u32> = Vec::with_capacity(total);
    #[allow(clippy::uninit_vec)]
    // SAFETY: as in `pack`: block ranges tile 0..total exactly.
    unsafe {
        out.set_len(total);
    }
    let out_ptr = SendPtr::new(out.as_mut_ptr());
    (0..blocks).into_par_iter().for_each(|b| {
        let lo = b * BLOCK;
        let hi = (lo + BLOCK).min(n);
        let mut pos = offsets[b];
        for i in lo..hi {
            if pred(i) {
                // SAFETY: disjoint ranges per block.
                unsafe { out_ptr.slot(pos).write(i as u32) };
                pos += 1;
            }
        }
    });
    out
}

/// Raw pointer wrapper that lets disjoint-range writers share one
/// buffer across rayon tasks: the parallel fills of this crate and of
/// `kcore-graph` (CSR build, edge index, orientation).
///
/// # Safety contract
///
/// Every task touches only slots it owns — typically a per-vertex or
/// per-block range cut from an exclusive scan, so the ranges tile the
/// buffer without overlap — and the buffer is read through its owner
/// again only after the parallel phase has joined. The buffer must
/// outlive every task holding the wrapper. Each use site states which
/// slots its task owns.
#[derive(Clone, Copy)]
pub struct SendPtr<T>(*mut T);

impl<T> SendPtr<T> {
    /// Wraps the base pointer of a buffer about to be filled in
    /// parallel.
    #[inline]
    pub fn new(ptr: *mut T) -> Self {
        Self(ptr)
    }

    /// The raw slot at index `i`. Taking `self` by value makes closures
    /// capture the whole (`Send + Sync`) wrapper rather than the bare
    /// pointer field.
    ///
    /// # Safety
    ///
    /// `i` must be in bounds of the wrapped buffer, and the calling task
    /// must own slot `i` under the disjoint-write contract above.
    #[inline]
    pub unsafe fn slot(self, i: usize) -> *mut T {
        // SAFETY: `i` is in bounds of the allocation per the caller.
        unsafe { self.0.add(i) }
    }
}

// SAFETY: the one field is the buffer's base pointer, through which
// tasks only touch values of `T` in slots they own (the contract
// above), so moving or sharing the wrapper needs no more than `T: Send`.
unsafe impl<T: Send> Send for SendPtr<T> {}
unsafe impl<T: Send> Sync for SendPtr<T> {}

/// Exclusive prefix sum; returns `(prefix, total)`.
///
/// Sequential — callers only scan per-*block* aggregates (a few thousand
/// entries), never per-element arrays, so a parallel scan would cost
/// more in fork overhead than it saves.
pub fn exclusive_scan(counts: &[usize]) -> (Vec<usize>, usize) {
    let mut prefix = Vec::with_capacity(counts.len());
    let mut acc = 0usize;
    for &c in counts {
        prefix.push(acc);
        acc += c;
    }
    (prefix, acc)
}

/// Calls `f(i, j)` for every value present in both strictly increasing
/// slices, where `i` / `j` are the value's positions in `a` / `b`.
///
/// Linear two-pointer merge, `O(|a| + |b|)`. This is the sequential
/// kernel of triangle enumeration: callers parallelize *across* edges
/// (one intersection per edge) rather than within one intersection,
/// which matches the paper's flat fork–join model — intersections are
/// tiny compared to the edge set.
#[inline]
pub fn intersect_sorted_positions<F>(a: &[u32], b: &[u32], mut f: F)
where
    F: FnMut(usize, usize),
{
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                f(i, j);
                i += 1;
                j += 1;
            }
        }
    }
}

/// Parallel minimum of `f(i)` over `0..n`; `None` when `n == 0`. Short
/// ranges run sequentially, like [`pack`].
pub fn par_min_by<F, T>(n: usize, f: F) -> Option<T>
where
    F: Fn(usize) -> T + Sync,
    T: Ord + Send,
{
    if n <= BLOCK {
        return (0..n).map(f).min();
    }
    (0..n).into_par_iter().map(&f).min()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_small_and_large_agree_with_filter() {
        for n in [0usize, 1, 10, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 17] {
            let input: Vec<u64> = (0..n as u64).collect();
            let got = pack(&input, |&x| x % 3 == 0);
            let want: Vec<u64> = input.iter().copied().filter(|&x| x % 3 == 0).collect();
            assert_eq!(got, want, "n = {n}");
        }
    }

    #[test]
    fn pack_preserves_order() {
        let input: Vec<u32> = (0..(2 * BLOCK as u32 + 5)).rev().collect();
        let got = pack(&input, |&x| x % 2 == 1);
        let mut sorted = got.clone();
        sorted.sort_unstable_by(|a, b| b.cmp(a));
        assert_eq!(got, sorted, "descending input must stay descending");
    }

    #[test]
    fn pack_all_and_none() {
        let input: Vec<u32> = (0..10_000).collect();
        assert_eq!(pack(&input, |_| true), input);
        assert!(pack(&input, |_| false).is_empty());
    }

    #[test]
    fn pack_index_matches_pack() {
        let n = 2 * BLOCK + 123;
        let vals: Vec<u32> = (0..n as u32).map(|i| i.wrapping_mul(2654435761)).collect();
        let by_index = pack_index(n, |i| vals[i].is_multiple_of(7));
        let by_value: Vec<u32> =
            (0..n as u32).filter(|&i| vals[i as usize].is_multiple_of(7)).collect();
        assert_eq!(by_index, by_value);
    }

    #[test]
    fn exclusive_scan_basics() {
        let (p, t) = exclusive_scan(&[3, 0, 2, 5]);
        assert_eq!(p, vec![0, 3, 3, 5]);
        assert_eq!(t, 10);
        let (p, t) = exclusive_scan(&[]);
        assert!(p.is_empty());
        assert_eq!(t, 0);
    }

    #[test]
    fn intersection_matches_naive() {
        let a: Vec<u32> = (0..200).filter(|x| x % 3 == 0).collect();
        let b: Vec<u32> = (0..200).filter(|x| x % 5 == 0).collect();
        let mut hits = Vec::new();
        intersect_sorted_positions(&a, &b, |i, j| {
            assert_eq!(a[i], b[j]);
            hits.push(a[i]);
        });
        let want: Vec<u32> = (0..200).filter(|x| x % 15 == 0).collect();
        assert_eq!(hits, want);
        intersect_sorted_positions(&a, &[], |_, _| panic!("nothing to intersect"));
        intersect_sorted_positions(&[], &b, |_, _| panic!("nothing to intersect"));
    }

    #[test]
    fn par_min_matches_sequential_on_both_paths() {
        for n in [0usize, 1, BLOCK, 3 * BLOCK + 17] {
            let key = |i: usize| (i * 7919 + 13) % 10_007;
            assert_eq!(par_min_by(n, key), (0..n).map(key).min(), "n = {n}");
        }
    }
}
