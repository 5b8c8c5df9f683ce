//! The `Histogram` primitive of the offline peeling strategy.
//!
//! Julienne's offline `Peel` (Alg. 2) gathers every neighbor of the
//! frontier into a list `L` with duplicates and counts occurrences per
//! vertex. The paper computes this with a parallel semisort (`O(n)` work
//! whp). We provide two implementations with the same interface:
//!
//! * [`histogram_sort`] — parallel sort + run-length encode:
//!   `O(n log n)` work but branch-cheap and deterministic.
//! * [`histogram_atomic`] — atomic counting into a dense `u32` domain:
//!   `O(n + domain)` work, matching the semisort bound when the domain is
//!   the vertex set (as it always is in peeling); used when the caller
//!   can afford the domain-sized counter array.
//!
//! Both return `(key, count)` pairs sorted by key, which is what the
//! offline peel consumes. [`histogram_auto`] picks between them by key
//! density; it is what the offline peel calls.

use kcore_check::sync::atomic::{AtomicU32, Ordering};
use rayon::prelude::*;

/// Counts occurrences of each key via parallel sort + run-length encode.
pub fn histogram_sort(mut keys: Vec<u32>) -> Vec<(u32, u32)> {
    if keys.is_empty() {
        return Vec::new();
    }
    keys.par_sort_unstable();
    // Run-length encode. Runs are found in parallel by marking run heads,
    // then each head counts its run.
    let n = keys.len();
    let heads: Vec<usize> =
        (0..n).into_par_iter().filter(|&i| i == 0 || keys[i] != keys[i - 1]).collect();
    heads
        .par_iter()
        .enumerate()
        .map(|(r, &start)| {
            let end = heads.get(r + 1).copied().unwrap_or(n);
            (keys[start], (end - start) as u32)
        })
        .collect()
}

/// Counts occurrences of each key (< `domain`) with atomic counters.
///
/// # Panics
///
/// Panics if any key is `>= domain`.
pub fn histogram_atomic(keys: &[u32], domain: usize) -> Vec<(u32, u32)> {
    let counters: Vec<AtomicU32> = (0..domain).map(|_| AtomicU32::new(0)).collect();
    keys.par_iter().for_each(|&k| {
        counters[k as usize].fetch_add(1, Ordering::Relaxed);
    });
    (0..domain as u32)
        .into_par_iter()
        .filter_map(|k| {
            let c = counters[k as usize].load(Ordering::Relaxed);
            (c > 0).then_some((k, c))
        })
        .collect()
}

/// Counts occurrences of each key (< `domain`), picking the cheaper
/// implementation: atomic counting when the key list is dense relative
/// to the domain (the `O(t + domain)` cost is dominated by `t`),
/// sort + run-length encode otherwise. The offline peel calls this.
pub fn histogram_auto(keys: Vec<u32>, domain: usize) -> Vec<(u32, u32)> {
    // Dense enough that the domain-sized counter scan is amortized.
    if keys.len() * 4 >= domain {
        histogram_atomic(&keys, domain)
    } else {
        histogram_sort(keys)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn reference(keys: &[u32]) -> Vec<(u32, u32)> {
        let mut m: HashMap<u32, u32> = HashMap::new();
        for &k in keys {
            *m.entry(k).or_default() += 1;
        }
        let mut v: Vec<(u32, u32)> = m.into_iter().collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn sort_histogram_matches_reference() {
        let keys: Vec<u32> = (0..50_000u32).map(|i| (i * i) % 997).collect();
        assert_eq!(histogram_sort(keys.clone()), reference(&keys));
    }

    #[test]
    fn atomic_histogram_matches_reference() {
        let keys: Vec<u32> = (0..50_000u32).map(|i| (i * 7 + 3) % 1000).collect();
        assert_eq!(histogram_atomic(&keys, 1000), reference(&keys));
    }

    #[test]
    fn histogram_of_empty_is_empty() {
        assert!(histogram_sort(Vec::new()).is_empty());
        assert!(histogram_atomic(&[], 10).is_empty());
    }

    #[test]
    fn histogram_single_key() {
        let keys = vec![5u32; 1234];
        assert_eq!(histogram_sort(keys.clone()), vec![(5, 1234)]);
        assert_eq!(histogram_atomic(&keys, 6), vec![(5, 1234)]);
    }

    #[test]
    fn auto_histogram_matches_reference_on_both_regimes() {
        // Dense: 50k keys over a domain of 1000 -> atomic path.
        let dense: Vec<u32> = (0..50_000u32).map(|i| (i * 13 + 1) % 1000).collect();
        assert_eq!(histogram_auto(dense.clone(), 1000), reference(&dense));
        // Sparse: 100 keys over a domain of 1M -> sort path.
        let sparse: Vec<u32> = (0..100u32).map(|i| i * 9973).collect();
        assert_eq!(histogram_auto(sparse.clone(), 1_000_000), reference(&sparse));
        // The cutoff itself: 250 keys over 1000 is atomic
        // (keys * 4 == domain), one key fewer sorts.
        let at: Vec<u32> = (0..250u32).map(|i| (i * 37) % 101).collect();
        assert_eq!(histogram_auto(at.clone(), 1000), reference(&at));
        assert_eq!(histogram_auto(at[..249].to_vec(), 1000), reference(&at[..249]));
    }

    #[test]
    fn histogram_all_distinct() {
        let keys: Vec<u32> = (0..1000).collect();
        let want: Vec<(u32, u32)> = (0..1000).map(|k| (k, 1)).collect();
        assert_eq!(histogram_sort(keys.clone()), want);
        assert_eq!(histogram_atomic(&keys, 1000), want);
    }
}
