//! `suite --render` output is pinned: rendering the committed quick
//! report must reproduce `golden/quick_render.txt` byte for byte.
//! Regenerate with `UPDATE_GOLDEN=1 cargo test -p csd-bench --test
//! render_golden` after an intentional change.

use csd_bench::render::render;
use csd_bench::suite::{run_filtered, SuiteConfig};
use csd_telemetry::Json;

const REPORT: &str = include_str!("golden/quick_suite.json");
const GOLDEN: &str = include_str!("golden/quick_render.txt");

#[test]
fn quick_report_renders_to_the_golden_text() {
    let got = render(&Json::parse(REPORT).expect("golden report parses")).expect("renders");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/quick_render.txt");
        std::fs::write(path, &got).expect("write golden file");
        return;
    }
    assert_eq!(
        got, GOLDEN,
        "render output drifted from tests/golden/quick_render.txt; \
         if the change is intentional, regenerate the golden file"
    );
}

#[test]
fn a_filtered_report_is_rejected_without_panicking() {
    let doc = run_filtered(&SuiteConfig::quick(0xC5D_2018, 1), "table1", None).expect("runs");
    let err = render(&doc).expect_err("a --filter report has no figure sections");
    assert!(err.contains("filter"), "{err}");
    // Without its `filter` marker the document still fails cleanly, at
    // the first figure section it lacks.
    let Json::Obj(mut members) = doc else {
        panic!("a filtered report is an object")
    };
    members.retain(|(k, _)| k != "filter");
    let err = render(&Json::Obj(members)).expect_err("no figure sections");
    assert_eq!(err, "report has no member `attacks`");
}
