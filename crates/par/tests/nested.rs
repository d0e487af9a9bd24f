//! A `map` made from inside a `map` worker or a pool job runs inline:
//! parallelism stays at one level, and the nested call spawns nothing.
//!
//! This file holds a single test on purpose: integration-test binaries
//! run their tests concurrently, and any other test spawning threads
//! alongside would move the process-wide count.

use alba_obs::Obs;
use alba_par::{map, threads_spawned, Pool};

#[test]
fn nested_map_spawns_no_threads() {
    let before = threads_spawned();
    let sums = map(2, 0..4u64, |i| map(4, 0..8u64, |j| i * j).into_iter().sum::<u64>());
    assert_eq!(sums, vec![0, 28, 56, 84]);
    assert_eq!(threads_spawned() - before, 2, "only the outer map may spawn");

    let mut pool: Pool<u64, Vec<u64>> =
        Pool::new(2, Obs::disabled(), |_w, i| map(4, 0..3u64, |j| i + j));
    let before = threads_spawned();
    let out: Vec<Vec<u64>> = pool.run_epoch(vec![0, 10]).into_iter().map(Result::unwrap).collect();
    assert_eq!(out, vec![vec![0, 1, 2], vec![10, 11, 12]]);
    assert_eq!(threads_spawned(), before, "a map inside a pool job must run inline");
}
