//! The suite runner's determinism contract: the report depends only on
//! the root seed — not on worker count or scheduling order.

use csd_bench::suite::{run_suite, SuiteConfig};

#[test]
fn same_seed_same_bytes_regardless_of_jobs() {
    let a = run_suite(&SuiteConfig::quick(0xD5EE_D001, 1));
    let b = run_suite(&SuiteConfig::quick(0xD5EE_D001, 2));
    assert_eq!(
        a.json.pretty(),
        b.json.pretty(),
        "report must be byte-identical across --jobs settings"
    );
}

#[test]
fn different_seed_different_report() {
    let a = run_suite(&SuiteConfig::quick(1, 2));
    let b = run_suite(&SuiteConfig::quick(2, 2));
    // The seed feeds every security datapoint's plaintext stream; at
    // least the raw cycle counts must move.
    assert_ne!(a.json.pretty(), b.json.pretty());
}
