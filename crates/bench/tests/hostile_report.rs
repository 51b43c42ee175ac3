//! Hostile input for the PIMRUN01 reader: truncated, byte-flipped (still
//! valid UTF-8) and duplicated-member variants of the committed E1 run
//! report each validate to `Ok` or an error — never a panic — in time
//! linear in their length. Variants are drawn from a seeded generator,
//! so every run checks the same cases.

use pim_bench::report::validate_report;
use rand::{Rng, SeedableRng};
use std::time::{Duration, Instant};

/// The committed E1 run report.
const REPORT: &str = include_str!("../../../results/telemetry/e1_ambit_throughput.json");

/// Cases per property.
const CASES: usize = 64;

/// Validates `text` within a budget linear in its length: a fixed
/// allowance plus a per-byte rate far above the reader's, so only a
/// superlinear path can blow it.
fn validate(text: &str) -> Result<(), String> {
    let start = Instant::now();
    let out = validate_report(text);
    let budget = Duration::from_millis(250) + Duration::from_micros(20) * text.len() as u32;
    let took = start.elapsed();
    assert!(
        took < budget,
        "validating {} bytes took {took:?}",
        text.len()
    );
    out
}

fn rng() -> rand::rngs::StdRng {
    rand::rngs::StdRng::seed_from_u64(0x5EED_F00D)
}

/// A strict prefix of `text`'s JSON value, cut on a char boundary.
fn truncate(text: &str, cut: usize) -> &str {
    let mut cut = cut % text.trim_end().len();
    while !text.is_char_boundary(cut) {
        cut -= 1;
    }
    &text[..cut]
}

/// `text` with one low bit flipped in each ASCII byte at `flips`, so
/// it stays valid UTF-8.
fn flip(text: &str, flips: &[(usize, u8)]) -> String {
    let mut bytes = text.as_bytes().to_vec();
    let len = bytes.len();
    for &(pos, bit) in flips {
        let b = &mut bytes[pos % len];
        if b.is_ascii() {
            *b ^= 1 << bit;
        }
    }
    String::from_utf8(bytes).expect("ASCII flips keep UTF-8")
}

/// Values a duplicated member may carry instead of its own.
const HOSTILE: [&str; 8] = [
    "null",
    "-1",
    "0.5",
    "1e999",
    "18446744073709551616",
    "\"x\"",
    "{}",
    "[]",
];

/// `text` with its `pick`-th member line (one per line in the pretty
/// layout) repeated right after itself; the repeat carries `value`, or
/// the member's own value when `None`.
fn duplicate(text: &str, pick: usize, value: Option<&str>) -> String {
    let lines: Vec<&str> = text.lines().collect();
    let members: Vec<usize> = (0..lines.len())
        .filter(|&i| {
            let line = lines[i].trim_start();
            line.starts_with('"') && line.contains("\": ") && line.ends_with(',')
        })
        .collect();
    let at = members[pick % members.len()];
    let repeat = match value {
        None => lines[at].to_string(),
        Some(v) => {
            let key_end = lines[at].find("\": ").expect("a member line") + 3;
            format!("{}{v},", &lines[at][..key_end])
        }
    };
    let mut out: Vec<&str> = lines[..=at].to_vec();
    out.push(&repeat);
    out.extend(&lines[at + 1..]);
    out.join("\n")
}

#[test]
fn the_committed_report_validates() {
    validate(REPORT).expect("the committed report validates");
}

#[test]
fn truncated_reports_are_rejected() {
    let mut rng = rng();
    for _ in 0..CASES {
        let cut = rng.gen_range(0..1usize << 20);
        assert!(validate(truncate(REPORT, cut)).is_err(), "prefix of {cut}");
    }
}

/// Flipped bits anywhere — keys, values, punctuation — validate or fail.
#[test]
fn byte_flipped_reports_never_panic() {
    let mut rng = rng();
    for _ in 0..CASES {
        let flips: Vec<(usize, u8)> = (0..rng.gen_range(1..8))
            .map(|_| (rng.gen_range(0..1usize << 20), rng.gen_range(0..7u8)))
            .collect();
        let _ = validate(&flip(REPORT, &flips));
    }
}

/// A member repeated with its own value validates like the original (the
/// last occurrence wins); repeated with any other value it validates or
/// fails.
#[test]
fn duplicated_members_never_panic() {
    let mut rng = rng();
    for _ in 0..CASES {
        let pick = rng.gen_range(0..1usize << 20);
        let value = HOSTILE.get(rng.gen_range(0..9usize)).copied();
        let out = validate(&duplicate(REPORT, pick, value));
        if value.is_none() {
            assert_eq!(out, Ok(()), "member {pick} repeated with its own value");
        }
    }
}

/// Nesting far past the parser's depth cap is an error, not a stack
/// overflow.
#[test]
fn deeply_nested_reports_are_rejected() {
    let deep = "[".repeat(50_000) + &"]".repeat(50_000);
    assert!(validate(&deep).is_err());
    let open = REPORT.find('{').expect("an object report") + 1;
    let nested = format!("{}\"deep\": {deep},{}", &REPORT[..open], &REPORT[open..]);
    assert!(validate(&nested).is_err());
}
