//! Mini bench module: schema constants for the schema-sync rule.

pub const RECORD_VERSION: u64 = 1;

pub const RECORD_FIELDS: [&str; 2] = [
    "format_version",
    "benches",
];
