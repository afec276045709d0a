//! Mini graph module: schema constants for the schema-sync rule.

pub const GRAPH_VERSION: u64 = 1;

pub const GRAPH_FIELDS: [&str; 2] = [
    "format_version",
    "functions",
];
