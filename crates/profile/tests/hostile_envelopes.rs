//! Hostile input for the PIMTEL01 and PIMPROF01 decoders: truncated,
//! byte-flipped (still valid UTF-8) and duplicated-member variants of
//! the committed E1 envelopes — and ones padded with 50 000-deep nesting
//! or 100 000 extra members — each read to `Ok` or a typed
//! [`SnapshotFormatError`] / [`ProfileFormatError`] — never a panic or a
//! stack overflow — in time linear in their length. Each format has one
//! reader, which checks every schema rule as it decodes, so whatever it
//! accepts renders: a snapshot's table, and a profile's analytics
//! report.

use pim_profile::analytics::Report;
use pim_profile::{Profile, ProfileFormatError};
use pim_telemetry::{Snapshot, SnapshotFormatError};
use proptest::prelude::*;
use serde_json::Value;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// The committed E1 advised-placement profile.
const PROFILE: &str = include_str!("../../../results/profile/e1_ambit_throughput.json");

/// The PIMTEL01 snapshot embedded in the committed E1 run report.
fn snapshot_text() -> &'static str {
    static TEXT: OnceLock<String> = OnceLock::new();
    TEXT.get_or_init(|| {
        let report = include_str!("../../../results/telemetry/e1_ambit_throughput.json");
        let report: Value = serde_json::from_str(report).expect("the run report parses");
        let Value::Object(root) = report else {
            panic!("the run report is an object");
        };
        let Some(Value::Array(snapshots)) = root.get("telemetry") else {
            panic!("the run report embeds telemetry");
        };
        serde_json::to_string_pretty(&snapshots[0]).expect("the snapshot serializes")
    })
}

/// Calls `read` on `text` within a budget linear in its length: a fixed
/// allowance plus a per-byte rate far above the reader's, so only a
/// superlinear path can blow it.
fn timed<T>(text: &str, read: fn(&str) -> T) -> T {
    let start = Instant::now();
    let out = read(text);
    let budget = Duration::from_millis(250) + Duration::from_micros(20) * text.len() as u32;
    let took = start.elapsed();
    assert!(took < budget, "reading {} bytes took {took:?}", text.len());
    out
}

/// Reads a snapshot, rendering its table when it is accepted.
fn snapshot(text: &str) -> Result<Snapshot, SnapshotFormatError> {
    let snap = timed(text, Snapshot::from_json_str)?;
    snap.to_table_string();
    Ok(snap)
}

/// Reads a profile, running the analytics report when it is accepted.
fn profile(text: &str) -> Result<Profile, ProfileFormatError> {
    let prof = timed(text, Profile::from_json_str)?;
    Report::from_profile(&prof).to_table_string();
    Ok(prof)
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

/// `text` with its `pick`-th scalar member (one per line in the pretty
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

/// `text` with `members` spliced in ahead of its root object's own.
fn prepend_members(text: &str, members: &str) -> String {
    let open = text.find('{').expect("an object envelope") + 1;
    format!("{}{members},{}", &text[..open], &text[open..])
}

/// `n` distinct scalar members, comma-separated.
fn many_members(n: usize) -> String {
    (0..n)
        .map(|i| format!("\"m{i}\": {i}"))
        .collect::<Vec<_>>()
        .join(", ")
}

#[test]
fn the_committed_envelopes_read_back() {
    let snap = snapshot(snapshot_text()).expect("the snapshot reads");
    assert!(!snap.metrics.is_empty() && !snap.spans.is_empty());
    let prof = profile(PROFILE).expect("the profile reads");
    assert!(!prof.groups.is_empty() && !prof.jobs.is_empty());
}

/// Nesting far past the parser's depth cap fails with a typed error —
/// bare, and as the value of a member inside a real envelope.
#[test]
fn deeply_nested_envelopes_are_rejected() {
    let depth = 50_000;
    let arrays = "[".repeat(depth) + &"]".repeat(depth);
    let objects = "{\"a\": ".repeat(depth) + "0" + &"}".repeat(depth);
    for deep in [&arrays, &objects] {
        assert!(snapshot(deep).is_err());
        assert!(profile(deep).is_err());
        let member = format!("\"deep\": {deep}");
        assert!(snapshot(&prepend_members(snapshot_text(), &member)).is_err());
        assert!(profile(&prepend_members(PROFILE, &member)).is_err());
    }
}

/// 100 000 extra members — at the root, or as one nested object — read
/// or fail within the linear budget.
#[test]
fn envelopes_with_100k_members_read_in_linear_time() {
    let members = many_members(100_000);
    let nested = format!("\"wide\": {{{members}}}");
    for extra in [&members, &nested] {
        let _ = snapshot(&prepend_members(snapshot_text(), extra));
        let _ = profile(&prepend_members(PROFILE, extra));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every strict prefix is rejected.
    #[test]
    fn truncated_envelopes_are_rejected(cut in 0usize..1 << 20) {
        prop_assert!(snapshot(truncate(snapshot_text(), cut)).is_err());
        prop_assert!(profile(truncate(PROFILE, cut)).is_err());
    }

    /// Flipped bits anywhere — keys, values, punctuation — read or fail
    /// with a typed error.
    #[test]
    fn byte_flipped_envelopes_never_panic(
        flips in proptest::collection::vec((0usize..1 << 20, 0u8..7), 1..8),
    ) {
        let _ = snapshot(&flip(snapshot_text(), &flips));
        let _ = profile(&flip(PROFILE, &flips));
    }

    /// A member repeated with its own value reads as the original (the
    /// last occurrence wins); repeated with any other value it reads or
    /// fails with a typed error.
    #[test]
    fn duplicated_members_never_panic(pick in 0usize..1 << 20, hostile in 0usize..9) {
        let value = HOSTILE.get(hostile).copied();
        let snap = snapshot(&duplicate(snapshot_text(), pick, value));
        let prof = profile(&duplicate(PROFILE, pick, value));
        if value.is_none() {
            prop_assert_eq!(snap, snapshot(snapshot_text()));
            prop_assert_eq!(prof, profile(PROFILE));
        }
    }
}
