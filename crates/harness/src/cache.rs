//! The shared, keyed result cache.
//!
//! Every figure of the evaluation expresses itself as a set of
//! [`Job`](tdc_core::experiment::Job)s; many cells recur across figures
//! (every figure normalizes against the same No-L3 baseline, Fig. 8
//! reuses Fig. 7's SRAM/cTLB runs, Table 1 reuses Fig. 13's NC run, …).
//! The cache keys finished [`RunReport`]s by
//! [`Job::cache_key`](tdc_core::experiment::Job::cache_key) so each
//! distinct cell is simulated exactly once per harness, no matter how
//! many figures ask for it.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use tdc_core::RunReport;

/// A thread-safe `cache_key -> Arc<RunReport>` store. Hit and miss
/// counts live in [`HarnessStats`](crate::HarnessStats).
#[derive(Default)]
pub struct ResultCache {
    map: Mutex<BTreeMap<String, Arc<RunReport>>>,
}

impl ResultCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// The cached report for `key`, if any.
    pub fn get(&self, key: &str) -> Option<Arc<RunReport>> {
        self.map.lock().expect("cache poisoned").get(key).cloned()
    }

    /// Stores `report` under `key`, returning the canonical Arc (an
    /// earlier insert wins, so concurrent duplicate computations
    /// converge on one value).
    pub fn insert(&self, key: String, report: RunReport) -> Arc<RunReport> {
        let mut map = self.map.lock().expect("cache poisoned");
        map.entry(key).or_insert_with(|| Arc::new(report)).clone()
    }

    /// All cached `(key, report)` pairs, sorted by key — a deterministic
    /// order for artifact dumps (the map itself iterates in key order).
    pub fn snapshot(&self) -> Vec<(String, Arc<RunReport>)> {
        let map = self.map.lock().expect("cache poisoned");
        map.iter().map(|(k, v)| (k.clone(), v.clone())).collect()
    }
}
