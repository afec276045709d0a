//! Mini result-store module: schema constants for the schema-sync rule.

pub const STORE_VERSION: u64 = 1;

pub const STORE_FIELDS: [&str; 2] = [
    "format_version",
    "key",
];
