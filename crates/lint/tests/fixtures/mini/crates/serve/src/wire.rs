//! Mini wire module: schema constants for the schema-sync rule.

pub const WIRE_VERSION: u64 = 1;

pub const WIRE_FIELDS: [&str; 2] = [
    "format_version",
    "status",
];
