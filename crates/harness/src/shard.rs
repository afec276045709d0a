//! The job plan and its hash partition behind `tdc shard`, which runs
//! one deterministic slice of the full evaluation, for fleet-style
//! sweeps across machines.
//!
//! ```text
//! tdc shard 1/2 --scale 0.25 --cache-dir s1    # machine 1 of 2
//! tdc shard 2/2 --scale 0.25 --cache-dir s2    # machine 2 of 2
//! cp s1/cell-*.json s2/cell-*.json union/      # the union of stores
//! tdc all --scale 0.25 --cache-dir union       # executes 0 cells
//! ```
//!
//! Partitioning is **hash-based, not positional**: a job belongs to
//! shard `fnv1a(cache_key) % N + 1`. Membership depends only on the
//! job's own identity, so adding a new figure (new jobs) cannot
//! reshuffle which shard owns the existing cells — shards stay
//! individually cacheable across evaluation growth. The price is that
//! shard sizes are only statistically balanced, which is fine for a
//! work distribution and essential for stability.
//!
//! A shard writes its cells to the result store
//! ([`crate::store`], DESIGN.md §12) with the same code as `tdc all
//! --cache-dir`. Content addressing replaces a merge step: seed,
//! capacity and run lengths are in every key, the baseline fingerprint
//! is in every entry, and equal keys hold equal bytes, so a union of
//! stores needs no validation. A missing shard only means its cells
//! are simulated by the final `tdc all`.

use tdc_core::experiment::Job;
use tdc_core::RunConfig;
use tdc_util::shard_of;

use crate::figures::{jobs_for, ALL_IDS};

/// The full deduplicated job plan for one configuration: the union of
/// every figure's job list with exact duplicates (same cache key)
/// removed, sorted by cache key.
///
/// This is the set `tdc all` would simulate, expressed without running
/// anything — sharding derives from it, so "union of all shards == the
/// plan" is checkable cheaply.
pub fn plan(cfg: &RunConfig) -> Vec<Job> {
    let mut jobs: Vec<(String, Job)> = Vec::new();
    for id in ALL_IDS {
        for job in jobs_for(id, cfg).expect("ALL_IDS entries are known") {
            let key = job.cache_key();
            if !jobs.iter().any(|(k, _)| *k == key) {
                jobs.push((key, job));
            }
        }
    }
    jobs.sort_by(|a, b| a.0.cmp(&b.0));
    jobs.into_iter().map(|(_, j)| j).collect()
}

/// The subset of `plan` owned by shard `shard` of `total`, in plan
/// order.
pub fn shard_jobs(plan: &[Job], shard: u64, total: u64) -> Vec<Job> {
    plan.iter()
        .filter(|j| shard_of(&j.cache_key(), total) == shard)
        .cloned()
        .collect()
}

/// Parses `K/N` (both ≥ 1, K ≤ N).
pub(crate) fn parse_spec(spec: &str) -> Result<(u64, u64), String> {
    let bad = || format!("bad shard spec '{spec}' (expected K/N, e.g. 2/4)");
    let (k, n) = spec.split_once('/').ok_or_else(bad)?;
    let k = k.trim().parse::<u64>().map_err(|_| bad())?;
    let n = n.trim().parse::<u64>().map_err(|_| bad())?;
    if k == 0 || n == 0 {
        return Err(format!("shard spec '{spec}': K and N must be at least 1"));
    }
    if k > n {
        return Err(format!("shard spec '{spec}': K must not exceed N"));
    }
    Ok((k, n))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_parsing_accepts_k_of_n_and_rejects_nonsense() {
        assert_eq!(parse_spec("1/1").unwrap(), (1, 1));
        assert_eq!(parse_spec("3/8").unwrap(), (3, 8));
        for bad in ["", "3", "0/4", "4/0", "5/4", "a/b", "1/2/3"] {
            assert!(parse_spec(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn plan_is_deduplicated_and_sorted() {
        let cfg = RunConfig {
            seed: 2015,
            cache_bytes: 1 << 30,
            warmup_refs: 1_000,
            measured_refs: 2_000,
        };
        let p = plan(&cfg);
        let keys: Vec<String> = p.iter().map(Job::cache_key).collect();
        let mut sorted = keys.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(keys, sorted, "plan must be sorted and duplicate-free");
        assert!(!p.is_empty());
    }
}
