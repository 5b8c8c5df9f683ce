//! Property-based tests for the parallel substrate: pack equals filter,
//! scan is a prefix sum, and the hash bag never loses or invents
//! elements under arbitrary insert/extract schedules.

use kcore_parallel::hashbag::HashBag;
use kcore_parallel::primitives::{exclusive_scan, pack_index};
use proptest::prelude::*;
use rayon::prelude::*;

proptest! {
    #[test]
    fn pack_equals_sequential_filter(input in proptest::collection::vec(any::<u32>(), 0..8192),
                                     modulus in 1u32..16) {
        // Random values make the kept indices irregular, across blocks.
        let got = pack_index(input.len(), |i| input[i] % modulus == 0);
        let want: Vec<u32> =
            (0..input.len() as u32).filter(|&i| input[i as usize] % modulus == 0).collect();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn pack_index_equals_sequential(n in 0usize..10_000, modulus in 1usize..16) {
        let got = pack_index(n, |i| i % modulus == 0);
        let want: Vec<u32> = (0..n).filter(|i| i % modulus == 0).map(|i| i as u32).collect();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn scan_is_prefix_sum(counts in proptest::collection::vec(0usize..100, 0..512)) {
        let (prefix, total) = exclusive_scan(&counts);
        prop_assert_eq!(prefix.len(), counts.len());
        let mut acc = 0usize;
        for (p, c) in prefix.iter().zip(&counts) {
            prop_assert_eq!(*p, acc);
            acc += c;
        }
        prop_assert_eq!(total, acc);
    }

    #[test]
    fn hashbag_preserves_multiset(values in proptest::collection::vec(0u32..1_000_000, 0..4096)) {
        let mut bag = HashBag::new(values.len());
        values.par_iter().for_each(|&v| bag.insert(v));
        let mut got = bag.extract_all();
        got.sort_unstable();
        let mut want = values.clone();
        want.sort_unstable();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn hashbag_round_robin_phases(batches in proptest::collection::vec(
        proptest::collection::vec(0u32..100_000, 0..512), 1..6))
    {
        // Multiple insert/extract phases against one bag: each phase must
        // return exactly its own batch.
        let cap = batches.iter().map(Vec::len).max().unwrap_or(1).max(1);
        let mut bag = HashBag::new(cap);
        for batch in &batches {
            batch.par_iter().for_each(|&v| bag.insert(v));
            let mut got = bag.extract_all();
            got.sort_unstable();
            let mut want = batch.clone();
            want.sort_unstable();
            prop_assert_eq!(got, want);
        }
    }
}
