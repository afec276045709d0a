//! Mini shard module: schema constants for the schema-sync rule.

pub const MANIFEST_VERSION: u64 = 1;

pub const MANIFEST_FIELDS: [&str; 2] = [
    "format_version",
    "shard",
];
