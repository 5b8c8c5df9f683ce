//! Order-preserving parallel pack, prefix scans, and counting.
//!
//! `Pack` is the workhorse primitive of the paper's framework (Alg. 1
//! extracts frontiers and refines the active set with it, and Thm. 3.1's
//! work bound assumes it costs `O(|A|)`). [`pack_index`] is the
//! textbook three-phase blocked pack over an index range: per-block
//! count, exclusive scan over block counts, per-block write — `O(n)`
//! work, `O(log n)` span, and stable (output preserves input order),
//! which keeps every algorithm in this workspace deterministic
//! run-to-run. [`split_at_min`] fuses a flat-array round drain (refine,
//! find the smallest live key, take its frontier) into the same two
//! block passes.
//!
//! The block loops have one item per 4096 input items, so an input
//! under 2048 blocks (~8.4M items) gives them fewer items than the
//! rayon shim's inline cutoff. They set `with_max_len(1)`, as
//! ParlayLib's blocked filter forks per block, so an input of two or
//! more blocks forks across the pool.

use rayon::prelude::*;

/// Block size for the blocked pack/scan phases. Large enough that the
/// per-block bookkeeping vanishes, small enough to load-balance.
/// Inputs of at most one block run sequentially.
pub(crate) const BLOCK: usize = 4096;

/// The index range of block `b` of an `n`-item input.
fn block(b: usize, n: usize) -> std::ops::Range<usize> {
    let lo = b * BLOCK;
    lo..(lo + BLOCK).min(n)
}

/// The output of a blocked write phase. Block `b` owns the slots
/// `offsets[b]..offsets[b] + counts[b]`, cut from an exclusive scan of
/// the per-block counts, so the blocks' ranges tile the buffer.
struct BlockedOutput<T> {
    buf: Vec<T>,
    ptr: SendPtr<T>,
    offsets: Vec<usize>,
    counts: Vec<usize>,
    total: usize,
}

impl<T: Copy> BlockedOutput<T> {
    fn new(counts: Vec<usize>) -> Self {
        let (offsets, total) = exclusive_scan(&counts);
        let mut buf = Vec::with_capacity(total);
        let ptr = SendPtr::new(buf.as_mut_ptr());
        Self { buf, ptr, offsets, counts, total }
    }

    /// The writer of block `b`'s slots.
    fn block(&self, b: usize) -> BlockWriter<T> {
        let pos = self.offsets[b];
        BlockWriter { ptr: self.ptr, pos, end: pos + self.counts[b] }
    }

    /// The filled buffer.
    ///
    /// # Safety
    ///
    /// Every block's writer must have been finished
    /// ([`BlockWriter::finish`]), so that every slot is written.
    unsafe fn into_vec(mut self) -> Vec<T> {
        // SAFETY: the capacity is `total`, and the finished writers
        // wrote their whole ranges, which tile `0..total`.
        unsafe { self.buf.set_len(self.total) };
        self.buf
    }
}

/// Writes one block's slots of a [`BlockedOutput`] in order. The count
/// pass sized the range, so a predicate or key that answers differently
/// on the write pass panics instead of writing past the range or
/// leaving a slot unwritten.
struct BlockWriter<T> {
    ptr: SendPtr<T>,
    pos: usize,
    end: usize,
}

impl<T: Copy> BlockWriter<T> {
    fn push(&mut self, x: T) {
        assert!(self.pos < self.end, "a block wrote more items than its count pass found");
        // SAFETY: `pos` is inside this block's range, which lies in the
        // buffer's capacity and which no other block writes.
        unsafe { self.ptr.slot(self.pos).write(x) };
        self.pos += 1;
    }

    fn finish(self) {
        assert_eq!(self.pos, self.end, "a block wrote fewer items than its count pass found");
    }
}

/// Returns the indices `i` in `0..n` for which `pred(i)` holds, in order.
///
/// This is the form used to extract frontiers ("all active vertices with
/// induced degree k") without materializing the candidate array first.
/// Ranges of at most one block run sequentially; longer ones fork
/// across their blocks.
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
        .with_max_len(1)
        .map(|b| block(b, n).filter(|&i| pred(i)).count())
        .collect();
    let out = BlockedOutput::new(counts);
    (0..blocks).into_par_iter().with_max_len(1).for_each(|b| {
        let mut slots = out.block(b);
        block(b, n).filter(|&i| pred(i)).for_each(|i| slots.push(i as u32));
        slots.finish();
    });
    // SAFETY: every block's writer finished above.
    unsafe { out.into_vec() }
}

/// The live items of an input split at their smallest key, as
/// [`split_at_min`] returns them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MinSplit<T> {
    /// The smallest live key, or the cap when that is lower or nothing
    /// is live.
    pub key: u32,
    /// The live items of key `key`, in input order; empty when `key`
    /// is the cap.
    pub frontier: Vec<T>,
    /// Every other live item, in input order.
    pub rest: Vec<T>,
}

/// Splits the live items of `input` at their smallest key below `cap`:
/// the round drain of a flat active array (refine it, find the smallest
/// live key, take that key's frontier) fused into two passes.
///
/// `key(x)` is `Some(k)` for a live item of key `k` and `None` for one
/// to drop; it must give the same answer on both passes. Pass 1 counts,
/// per block, the live items, their smallest key and the items at that
/// key; pass 2 writes the frontier and the rest through offsets scanned
/// from those counts. `O(n)` work, and inputs of more than one block
/// fork across their blocks in both passes, like [`pack_index`].
pub fn split_at_min<T, F>(input: &[T], cap: u32, key: F) -> MinSplit<T>
where
    T: Copy + Send + Sync,
    F: Fn(&T) -> Option<u32> + Sync,
{
    let n = input.len();
    let blocks = n.div_ceil(BLOCK);
    // Per block: (live items, smallest live key, live items at it).
    let summaries: Vec<(usize, u32, usize)> = (0..blocks)
        .into_par_iter()
        .with_max_len(1)
        .map(|b| {
            let (mut live, mut min, mut at_min) = (0, u32::MAX, 0);
            for k in input[block(b, n)].iter().filter_map(&key) {
                live += 1;
                if k < min {
                    (min, at_min) = (k, 1);
                } else if k == min {
                    at_min += 1;
                }
            }
            (live, min, at_min)
        })
        .collect();
    let min = summaries.iter().map(|&(_, min, _)| min).min().unwrap_or(u32::MAX);
    let k = min.min(cap);
    let takes = |key: u32| key == k && k < cap;
    let (fronts, rests): (Vec<usize>, Vec<usize>) = summaries
        .iter()
        .map(|&(live, min, at_min)| {
            let front = if takes(min) { at_min } else { 0 };
            (front, live - front)
        })
        .unzip();
    let (frontier, rest) = (BlockedOutput::new(fronts), BlockedOutput::new(rests));
    (0..blocks).into_par_iter().with_max_len(1).for_each(|b| {
        let (mut f, mut r) = (frontier.block(b), rest.block(b));
        for &x in &input[block(b, n)] {
            match key(&x) {
                Some(kx) if takes(kx) => f.push(x),
                Some(_) => r.push(x),
                None => {}
            }
        }
        f.finish();
        r.finish();
    });
    // SAFETY: every block's writers finished above.
    let (frontier, rest) = unsafe { (frontier.into_vec(), rest.into_vec()) };
    MinSplit { key: k, frontier, rest }
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
/// Sequential. Most callers scan per-block or per-shard aggregates (a
/// few thousand entries at most), where a parallel scan would cost more
/// in fork overhead than it saves. Three scan per-vertex arrays: the
/// forward-arc and out-degree counts of `TriangleCtx::build` and the
/// forward-arc counts of `EdgeIndex::build` in `kcore-graph`, and the
/// deduped adjacency lengths of the CSR builder's recompact. Whether a
/// sequential scan is the right choice at those lengths (n = 490k on a
/// 700×700 road grid) has not been measured.
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

/// [`split_at_min`] computed sequentially, item by item: the reference
/// its tests compare against.
#[cfg(test)]
pub(crate) fn split_at_min_reference<T: Copy>(
    input: &[T],
    cap: u32,
    key: impl Fn(&T) -> Option<u32>,
) -> MinSplit<T> {
    let k = input.iter().filter_map(&key).min().map_or(cap, |min| min.min(cap));
    let live = input.iter().copied().filter(|x| key(x).is_some());
    let (frontier, rest) = live.partition(|x| k < cap && key(x) == Some(k));
    MinSplit { key: k, frontier, rest }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `pack_index` over a predicate that reads a value array, checked
    /// against the sequential filter of the same indices.
    fn pack_index_of_values(vals: &[u32], keep: impl Fn(u32) -> bool + Sync) -> Vec<u32> {
        let got = pack_index(vals.len(), |i| keep(vals[i]));
        let want: Vec<u32> = (0..vals.len() as u32).filter(|&i| keep(vals[i as usize])).collect();
        assert_eq!(got, want, "n = {}", vals.len());
        got
    }

    #[test]
    fn pack_small_and_large_agree_with_filter() {
        for n in [0usize, 1, 10, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 17] {
            let vals: Vec<u32> = (0..n as u32).collect();
            pack_index_of_values(&vals, |x| x % 3 == 0);
        }
    }

    #[test]
    fn pack_preserves_order() {
        let vals: Vec<u32> = (0..(2 * BLOCK as u32 + 5)).rev().collect();
        let kept: Vec<u32> =
            pack_index_of_values(&vals, |x| x % 2 == 1).iter().map(|&i| vals[i as usize]).collect();
        assert!(kept.windows(2).all(|w| w[0] > w[1]), "descending input must stay descending");
    }

    #[test]
    fn pack_all_and_none() {
        let n = 10_000;
        assert_eq!(pack_index(n, |_| true), (0..n as u32).collect::<Vec<_>>());
        assert!(pack_index(n, |_| false).is_empty());
    }

    #[test]
    fn pack_index_matches_pack() {
        let n = 2 * BLOCK + 123;
        let vals: Vec<u32> = (0..n as u32).map(|i| i.wrapping_mul(2654435761)).collect();
        pack_index_of_values(&vals, |x| x.is_multiple_of(7));
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
    #[should_panic(expected = "than its count pass found")]
    fn a_predicate_that_changes_between_passes_panics() {
        use kcore_check::sync::atomic::{AtomicUsize, Ordering};
        let n = 2 * BLOCK;
        // Keeps nothing on the count pass and everything on the write
        // pass, which must stop at its block's range.
        let calls = AtomicUsize::new(0);
        pack_index(n, |_| calls.fetch_add(1, Ordering::Relaxed) >= n);
    }

    /// Keys for the split tests: `None` marks a dead item.
    fn split_both_ways(keys: &[Option<u32>], cap: u32) -> MinSplit<u32> {
        let input: Vec<u32> = (0..keys.len() as u32).collect();
        let key = |&i: &u32| keys[i as usize];
        let want = split_at_min_reference(&input, cap, key);
        for threads in [1, 2] {
            let got = crate::pool::with_threads(threads, || split_at_min(&input, cap, key));
            assert_eq!(got, want, "{threads} threads, cap {cap}");
        }
        want
    }

    #[test]
    fn split_at_min_of_nothing_live_answers_the_cap() {
        let empty = split_both_ways(&[], 5);
        assert_eq!((empty.key, empty.frontier.len(), empty.rest.len()), (5, 0, 0));
        let dead = split_both_ways(&vec![None; 2 * BLOCK + 3], 5);
        assert_eq!((dead.key, dead.frontier.len(), dead.rest.len()), (5, 0, 0));
    }

    #[test]
    fn split_at_min_stops_at_a_cap_at_or_below_the_minimum() {
        let keys: Vec<Option<u32>> =
            (0..3 * BLOCK as u32 + 5).map(|i| (i % 5 != 0).then_some(10 + i % 7)).collect();
        let live = keys.iter().flatten().count();
        for cap in [7, 10] {
            let split = split_both_ways(&keys, cap);
            assert_eq!(split.key, cap);
            assert!(split.frontier.is_empty(), "cap {cap} drained");
            assert_eq!(split.rest.len(), live, "cap {cap} dropped a live item");
        }
        let split = split_both_ways(&keys, 11);
        assert_eq!(split.key, 10);
        assert_eq!(split.frontier.len() + split.rest.len(), live);
    }

    #[test]
    fn split_at_min_keeps_ties_across_block_boundaries_in_order() {
        let n = 3 * BLOCK + 17;
        let mut keys: Vec<Option<u32>> = (0..n).map(|i| Some(3 + (i % 11) as u32)).collect();
        let ties = [0, BLOCK - 1, BLOCK, 2 * BLOCK - 1, 2 * BLOCK, 3 * BLOCK, n - 1];
        for &i in &ties {
            keys[i] = Some(1);
        }
        // Dead items below the minimum must not count.
        keys[5] = None;
        keys[BLOCK + 1] = None;
        let split = split_both_ways(&keys, u32::MAX);
        assert_eq!(split.key, 1);
        assert_eq!(split.frontier, ties.map(|i| i as u32));
        assert_eq!(split.rest.len(), n - ties.len() - 2);
    }
}
