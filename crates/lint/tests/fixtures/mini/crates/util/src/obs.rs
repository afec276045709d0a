//! Mini observability constants for the lint fixture.

pub const HIST_VERSION: u64 = 1;
pub const HIST_FIELDS: [&str; 2] = ["count", "p99"];

pub const POOL_VERSION: u64 = 1;
pub const POOL_FIELDS: [&str; 2] = ["format_version", "stolen"];
