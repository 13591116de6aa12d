//! Property test: the leg JSON grammar round-trips exactly, and the
//! parser rejects every leg document the executor could not run.
//!
//! Seeded randomness only — a failure reproduces from the printed case
//! index.

use csd_exp::{Leg, LegMode, DEFAULT_WATCHDOG};
use csd_telemetry::{Json, SplitMix64, ToJson};

/// Draws a random but always-valid leg: every mode and override the
/// grammar can express, over the real policy names.
fn random_leg(rng: &mut SplitMix64) -> Leg {
    let policies = ["always-on", "conventional", "csd-devec"];
    let mode = match rng.range_u64(0, 2) {
        0 => LegMode::Base,
        1 => LegMode::Stealth {
            watchdog: rng.range_u64(1, 100_000),
        },
        _ => LegMode::Devec {
            policy: policies[rng.range_u64(0, 2) as usize].to_string(),
        },
    };
    Leg {
        mode,
        blocks: (rng.range_u64(0, 1) == 1).then(|| rng.range_u64(1, 10_000) as usize),
    }
}

#[test]
fn leg_json_round_trips_over_random_legs() {
    let mut rng = SplitMix64::new(0x5EED_5EED);
    for case in 0..500 {
        let leg = random_leg(&mut rng);
        let doc = leg.to_json();
        // Through the renderer too, not just the tree: corpus files
        // carry text, so the text must round-trip as well.
        let reparsed = Json::parse(&doc.pretty()).unwrap_or_else(|e| {
            panic!("case {case}: rendered leg does not re-parse: {e}\n{leg:?}")
        });
        let back = Leg::from_json(&reparsed)
            .unwrap_or_else(|e| panic!("case {case}: round-trip rejected: {e}\n{leg:?}"));
        assert_eq!(back, leg, "case {case}: round-trip changed the leg");
        assert_eq!(
            back.to_json().pretty(),
            doc.pretty(),
            "case {case}: re-serialization is not a fixpoint"
        );
    }
}

#[test]
fn stealth_without_watchdog_gets_the_default() {
    let doc = Json::parse("{\"mode\": \"stealth\"}").unwrap();
    assert_eq!(
        Leg::from_json(&doc),
        Ok(Leg::new(LegMode::Stealth {
            watchdog: DEFAULT_WATCHDOG
        }))
    );
}

#[test]
fn parser_rejects_malformed_legs() {
    let cases = [
        ("{\"mode\": \"warp\"}", "mode"),
        ("{\"blocks\": 2}", "mode"),
        ("{\"mode\": 3}", "mode"),
        ("{\"mode\": \"devec\"}", "policy"),
        (
            "{\"mode\": \"stealth\", \"watchdog\": \"soon\"}",
            "watchdog",
        ),
        ("{\"mode\": \"stealth\", \"watchdog\": -1}", "watchdog"),
        ("{\"mode\": \"base\", \"blocks\": 1.5}", "blocks"),
        ("{\"mode\": \"base\", \"blocks\": \"2\"}", "blocks"),
    ];
    for (body, needle) in cases {
        let doc = Json::parse(body).unwrap();
        let err = Leg::from_json(&doc).expect_err(&format!("{body} must be rejected"));
        assert!(
            err.contains(needle),
            "error for {body} should mention {needle:?}, got: {err}"
        );
    }
}
