//! `Json::parse` reads text from outside the program: reports passed to
//! `suite --render`, corpus metadata and benchmark goldens. Whatever the
//! input, it must return `Ok` or a `ParseError` whose offset lies inside
//! the input, never panic.
//!
//! Seeded randomness only — a failure reproduces from the printed case.

use csd_telemetry::{Json, SplitMix64};

/// A real report, as `suite --quick` writes it.
const REPORT: &str = include_str!("../../bench/tests/golden/quick_suite.json");

/// Parses `text` and checks the error contract. A panic inside the
/// parser fails the test with `case` in the message.
fn check(case: &str, text: &str) {
    let out = std::panic::catch_unwind(|| Json::parse(text))
        .unwrap_or_else(|_| panic!("{case}: Json::parse panicked on {text:?}"));
    if let Err(e) = out {
        assert!(
            e.offset <= text.len(),
            "{case}: error offset {} past the end of a {}-byte input",
            e.offset,
            text.len()
        );
    }
}

#[test]
fn random_byte_strings_never_panic() {
    let mut rng = SplitMix64::new(0x0015_0B0D);
    // JSON punctuation drawn often, so inputs get past the first byte.
    let alphabet = b"{}[]:,\"\\-+.eE0123456789tfnrulsa \n\t\x00\xff\xc3";
    for case in 0..20_000 {
        let len = rng.range_usize(0, 48);
        let bytes: Vec<u8> = (0..len)
            .map(|_| {
                if rng.next_bool() {
                    alphabet[rng.range_usize(0, alphabet.len())]
                } else {
                    rng.next_u8()
                }
            })
            .collect();
        check(
            &format!("random case {case}"),
            &String::from_utf8_lossy(&bytes),
        );
    }
}

#[test]
fn every_truncated_report_prefix_is_rejected_cleanly() {
    let head = &REPORT.as_bytes()[..400];
    for cut in 0..=head.len() {
        let text = String::from_utf8_lossy(&head[..cut]);
        check(&format!("prefix of {cut} bytes"), &text);
        assert!(Json::parse(&text).is_err(), "a {cut}-byte prefix parsed");
    }
    assert!(Json::parse(REPORT).is_ok(), "the whole report parses");
}

#[test]
fn single_byte_mutations_of_a_report_never_panic() {
    let mut rng = SplitMix64::new(0x0015_0B0E);
    let mut bytes = REPORT.as_bytes().to_vec();
    for case in 0..2_000 {
        let at = rng.range_usize(0, bytes.len());
        let old = bytes[at];
        bytes[at] = match rng.range_u64(0, 3) {
            0 => rng.next_u8(),
            1 => b"{}[]:,\"\\-.e0 x"[rng.range_usize(0, 14)],
            _ => old ^ (1 << rng.range_u64(0, 8)),
        };
        check(
            &format!("mutation case {case} at byte {at}"),
            &String::from_utf8_lossy(&bytes),
        );
        bytes[at] = old;
    }
}
