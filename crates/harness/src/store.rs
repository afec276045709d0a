//! The content-addressed result store: the one way a [`RunReport`]
//! leaves a [`Harness`](crate::Harness) and comes back into one
//! (DESIGN.md §12).
//!
//! One JSON file per job cache key, named by the FNV-1a hash of the
//! key (the same [`tdc_util::fnv1a_64`] that `tdc shard` partitions
//! on), each wrapping the cell's report document in a versioned entry
//! whose fields are [`STORE_FIELDS`]:
//!
//! ```text
//! <cache-dir>/cell-<fnv64 hex>.json
//!   { "format_version": 2, "key": "<cache key>",
//!     "baseline_fingerprint": "fnv:<hex>", "report": { ... } }
//! ```
//!
//! Cache keys are injective over `(workload, org, seed, capacity, run
//! lengths)`, so entries written at one configuration never match
//! lookups from another. The key does not name the simulator's
//! version; the [`baseline_fingerprint`] does, because any model
//! change that moves a figure must also regenerate
//! `baselines/scale-0.25`. A store opened under one fingerprint skips
//! entries written under any other.
//!
//! Entries are immutable: the first write of a key wins, and two
//! writes of one key hold equal bytes. So the union of several stores
//! (one per `tdc shard`) is just every `cell-*.json` copied into one
//! directory.
//!
//! [`RunReport`]: tdc_core::RunReport

use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use tdc_util::{fnv1a_64, Json};

/// Version stamp of the on-disk entry wrapper; entries with any other
/// version are skipped on load (never silently reinterpreted).
pub const STORE_VERSION: u64 = 2;

/// Every field of one store entry, in serialization order. DESIGN.md
/// §12 documents this schema; the `schema-sync` lint rule keeps the
/// two in sync.
pub const STORE_FIELDS: [&str; 4] = ["format_version", "key", "baseline_fingerprint", "report"];

/// A directory of `cell-*.json` entries keyed by job cache key, read
/// and written under one baseline fingerprint.
pub struct ResultStore {
    dir: PathBuf,
    fingerprint: String,
}

impl ResultStore {
    /// Opens (creating if needed) the store at `dir`. Only entries
    /// stamped with `fingerprint` load; [`ResultStore::put`] stamps it.
    pub fn open(dir: impl Into<PathBuf>, fingerprint: &str) -> io::Result<Self> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(Self {
            dir,
            fingerprint: fingerprint.to_string(),
        })
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The entry path for a cache key.
    pub fn path_for(&self, key: &str) -> PathBuf {
        self.dir.join(format!("cell-{:016x}.json", fnv1a_64(key)))
    }

    /// Persists `report` under `key` and returns whether it wrote.
    /// Existing entries are left alone: the store is content-addressed,
    /// so an entry for a key can only ever hold one value and the
    /// first write wins.
    pub fn put(&self, key: &str, report: &Json) -> io::Result<bool> {
        let path = self.path_for(key);
        if path.exists() {
            return Ok(false);
        }
        let entry = Json::obj([
            ("format_version", Json::from(STORE_VERSION)),
            ("key", Json::from(key)),
            (
                "baseline_fingerprint",
                Json::from(self.fingerprint.as_str()),
            ),
            ("report", report.clone()),
        ]);
        // Write-then-rename so a concurrent reader never sees a torn
        // entry; the temporary name is per process so shards sharing
        // one directory never write into each other's file.
        let tmp = path.with_extension(format!("{}.tmp", std::process::id()));
        fs::write(&tmp, entry.pretty())?;
        fs::rename(&tmp, &path)?;
        Ok(true)
    }

    /// Validates one entry document read from `path` and extracts
    /// `(key, report)`: the version and fingerprint must match this
    /// store's, and the file name must be the one the key hashes to.
    fn unwrap_entry(&self, path: &Path, entry: &Json) -> Option<(String, Json)> {
        if entry.get("format_version").and_then(Json::as_u64) != Some(STORE_VERSION) {
            return None;
        }
        if entry.get("baseline_fingerprint").and_then(Json::as_str)
            != Some(self.fingerprint.as_str())
        {
            return None;
        }
        let key = entry.get("key").and_then(Json::as_str)?;
        if self.path_for(key) != path {
            return None;
        }
        Some((key.to_string(), entry.get("report")?.clone()))
    }

    /// Loads every valid entry, sorted by key, plus the number of
    /// `cell-*.json` files skipped. Unreadable, unparseable, foreign
    /// (other version or fingerprint) and misnamed entries are counted,
    /// not fatal: their cells are simulated again.
    pub fn load_all(&self) -> io::Result<(Vec<(String, Json)>, usize)> {
        let mut entries = Vec::new();
        let mut skipped = 0usize;
        for dirent in fs::read_dir(&self.dir)? {
            let path = dirent?.path();
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if !name.starts_with("cell-") || !name.ends_with(".json") {
                continue;
            }
            let entry = fs::read_to_string(&path)
                .ok()
                .and_then(|text| Json::parse(&text).ok())
                .and_then(|entry| self.unwrap_entry(&path, &entry));
            match entry {
                Some(pair) => entries.push(pair),
                None => skipped += 1,
            }
        }
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        Ok((entries, skipped))
    }
}

/// A stable fingerprint of the checked-in regression baseline, which
/// stands in for the simulator's version in every store entry. Walks
/// up from `start` looking for `baselines/scale-0.25` and hashes its
/// sorted file names and contents; `"none"` when no baseline directory
/// is found (e.g. when running outside a checkout).
pub fn baseline_fingerprint(start: &Path) -> String {
    let mut dir = Some(start);
    while let Some(d) = dir {
        let candidate = d.join("baselines").join("scale-0.25");
        if candidate.is_dir() {
            return fingerprint_dir(&candidate);
        }
        dir = d.parent();
    }
    "none".to_string()
}

fn fingerprint_dir(dir: &Path) -> String {
    let mut names: Vec<String> = match fs::read_dir(dir) {
        Ok(entries) => entries
            .filter_map(|e| e.ok())
            .filter(|e| e.path().is_file())
            .filter_map(|e| e.file_name().into_string().ok())
            .collect(),
        Err(_) => return "none".to_string(),
    };
    names.sort();
    let mut acc = String::new();
    for name in names {
        acc.push_str(&name);
        acc.push('\n');
        if let Ok(text) = fs::read_to_string(dir.join(&name)) {
            acc.push_str(&text);
        }
        acc.push('\n');
    }
    format!("fnv:{:016x}", fnv1a_64(&acc))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("tdc-store-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn tmp_store(tag: &str) -> ResultStore {
        ResultStore::open(tmp_dir(tag), "fnv:a").expect("store opens")
    }

    fn doc(v: u64) -> Json {
        Json::obj([("value", Json::from(v))])
    }

    fn loaded(store: &ResultStore) -> (Vec<(String, Json)>, usize) {
        store.load_all().expect("load")
    }

    #[test]
    fn put_load_round_trip() {
        let store = tmp_store("roundtrip");
        assert_eq!(loaded(&store), (Vec::new(), 0));
        assert!(store.put("k1", &doc(7)).expect("put"));
        assert_eq!(loaded(&store), (vec![("k1".to_string(), doc(7))], 0));
        let entry = Json::parse(&fs::read_to_string(store.path_for("k1")).expect("entry"))
            .expect("entry parses");
        let Json::Obj(pairs) = entry else {
            panic!("entry is not an object");
        };
        let names: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(names, STORE_FIELDS);
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn first_write_wins() {
        let store = tmp_store("firstwins");
        assert!(store.put("k", &doc(1)).expect("put"));
        assert!(!store.put("k", &doc(2)).expect("second put is a no-op"));
        assert_eq!(loaded(&store), (vec![("k".to_string(), doc(1))], 0));
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn load_all_skips_invalid_entries() {
        let store = tmp_store("loadall");
        store.put("b", &doc(2)).expect("put");
        store.put("a", &doc(1)).expect("put");
        // A version-mismatched entry and a junk file: both skipped.
        fs::write(
            store.dir().join("cell-0000000000000bad.json"),
            Json::obj([
                ("format_version", Json::from(99u64)),
                ("key", Json::from("zzz")),
                ("baseline_fingerprint", Json::from("fnv:a")),
                ("report", doc(9)),
            ])
            .pretty(),
        )
        .expect("write stale entry");
        fs::write(store.dir().join("cell-notjson.json"), "{oops").expect("write junk");
        fs::write(store.dir().join("README.txt"), "ignored").expect("write bystander");

        let (entries, skipped) = loaded(&store);
        let keys: Vec<&str> = entries.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, vec!["a", "b"], "sorted by key, stale/junk skipped");
        assert_eq!(skipped, 2);
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn key_mismatch_is_skipped_on_load() {
        let store = tmp_store("keymismatch");
        store.put("real-key", &doc(5)).expect("put");
        // Copy the entry to the filename another key hashes to: the
        // stored key no longer matches its name, so the copy must not
        // load (a colliding or corrupt file never masquerades as a
        // result).
        fs::copy(store.path_for("real-key"), store.path_for("other-key")).expect("copy");
        assert_eq!(loaded(&store), (vec![("real-key".to_string(), doc(5))], 1));
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn entries_from_another_baseline_are_skipped() {
        let dir = tmp_dir("fingerprint");
        let a = ResultStore::open(&dir, "fnv:a").expect("store opens");
        assert!(a.put("k", &doc(3)).expect("put"));
        assert_eq!(loaded(&a), (vec![("k".to_string(), doc(3))], 0));
        let b = ResultStore::open(&dir, "fnv:b").expect("store reopens");
        assert_eq!(
            loaded(&b),
            (Vec::new(), 1),
            "a foreign build's entry loaded"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn fingerprint_is_stable_and_content_sensitive() {
        let dir = tmp_dir("fp");
        let base = dir.join("baselines").join("scale-0.25");
        fs::create_dir_all(&base).expect("baseline dir");
        fs::write(base.join("figA.json"), "{\"a\": 1}").expect("write figure");
        let a = baseline_fingerprint(&dir);
        assert_eq!(a, baseline_fingerprint(&dir));
        assert!(a.starts_with("fnv:"), "{a}");
        fs::write(base.join("figA.json"), "{\"a\": 2}").expect("rewrite figure");
        assert_ne!(
            a,
            baseline_fingerprint(&dir),
            "content change must change it"
        );
        // Nested start dir walks up to the same baseline.
        assert_ne!(baseline_fingerprint(&base), "none");
        fs::remove_dir_all(&dir).expect("cleanup");
        assert_eq!(baseline_fingerprint(Path::new("/nonexistent-tdc")), "none");
    }
}
