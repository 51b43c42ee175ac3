//! Cycle-domain trace events and the profiling sink.
//!
//! A [`TraceEvent`] is one interval (or instantaneous sample) on one
//! [`Lane`] of a timeline: a command occupying a bank, a vault running
//! a superstep slice, a job waiting in a queue. Producers fill a
//! [`ProfileSink`]: the DRAM device derives its occupancy slices from its
//! command observer at take time, the Tesseract executor and the
//! runtime push theirs directly.
//!
//! ## Capture order
//!
//! Captures are not time-major: the Ambit engine replays a program
//! instruction by instruction across banks, so events of different lanes
//! interleave out of cycle order. Consumers [`normalize`] before export:
//! a stable sort on [`TraceEvent::sort_key`]. Within one lane events are
//! already in capture order (lane occupancy serializes them), so the
//! result is a canonical global order that is *identical* for any
//! capture order that keeps each lane's events in order — the same
//! argument that makes `pim_dram::trace::normalize` canonical.

use crate::Cycle;
use std::borrow::Cow;
use std::fmt;

/// A timeline track inside one group (one engine or backend).
///
/// Lane indices are physical-position keys (flat bank index, channel
/// index, vault index), so the lane set — and therefore the export —
/// is independent of capture order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Lane {
    /// The backend's submission queue (depth counters, queue waits).
    Queue,
    /// Job lifecycle phases (queue-wait / stage / execute / drain).
    Jobs,
    /// One DRAM bank, by flat bank index.
    Bank(u32),
    /// One rank, by flat rank index (rank-scoped commands: REF, PREA).
    Rank(u32),
    /// One channel's command/data bus.
    Channel(u32),
    /// One 3D-stack vault.
    Vault(u32),
}

impl Lane {
    /// Canonical ordering key: lane class, then physical index.
    pub fn sort_key(&self) -> (u8, u32) {
        match *self {
            Lane::Queue => (0, 0),
            Lane::Jobs => (1, 0),
            Lane::Channel(i) => (2, i),
            Lane::Rank(i) => (3, i),
            Lane::Bank(i) => (4, i),
            Lane::Vault(i) => (5, i),
        }
    }

    /// The stable JSON/track label (`bank/7`, `vault/3`, `queue`, …);
    /// the lane's `Display` text.
    pub fn label(&self) -> String {
        self.to_string()
    }

    /// Parses a label produced by [`Lane::label`].
    pub fn from_label(label: &str) -> Option<Lane> {
        match label {
            "queue" => return Some(Lane::Queue),
            "jobs" => return Some(Lane::Jobs),
            _ => {}
        }
        let (class, idx) = label.split_once('/')?;
        let i: u32 = idx.parse().ok()?;
        match class {
            "bank" => Some(Lane::Bank(i)),
            "rank" => Some(Lane::Rank(i)),
            "channel" => Some(Lane::Channel(i)),
            "vault" => Some(Lane::Vault(i)),
            _ => None,
        }
    }
}

impl fmt::Display for Lane {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Lane::Queue => f.write_str("queue"),
            Lane::Jobs => f.write_str("jobs"),
            Lane::Bank(i) => write!(f, "bank/{i}"),
            Lane::Rank(i) => write!(f, "rank/{i}"),
            Lane::Channel(i) => write!(f, "channel/{i}"),
            Lane::Vault(i) => write!(f, "vault/{i}"),
        }
    }
}

/// One profiling event: a named interval `[start, end]` on a lane,
/// optionally attributed to a job and/or carrying a sampled value.
///
/// * interval events (`slice`) have `end >= start` and `value: None`;
/// * counter samples (`counter`) are instantaneous (`end == start`)
///   and carry the sampled magnitude in `value`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// The track this event renders on.
    pub lane: Lane,
    /// Event name (command mnemonic, phase name, counter name).
    pub name: Cow<'static, str>,
    /// Interval open, on the owning group's clock.
    pub start: Cycle,
    /// Interval close (`== start` for instantaneous samples).
    pub end: Cycle,
    /// Runtime job id this event is attributed to, where known.
    pub job: Option<u64>,
    /// Sampled magnitude for counter events.
    pub value: Option<u64>,
}

impl TraceEvent {
    /// Interval length in cycles.
    pub fn cycles(&self) -> Cycle {
        self.end.saturating_sub(self.start)
    }

    /// Canonical ordering key: lane, then time, then identity fields
    /// so ties break deterministically.
    #[allow(clippy::type_complexity)]
    pub fn sort_key(&self) -> ((u8, u32), Cycle, Cycle, &str, Option<u64>, Option<u64>) {
        (
            self.lane.sort_key(),
            self.start,
            self.end,
            &self.name,
            self.job,
            self.value,
        )
    }
}

/// Canonicalizes an event stream: stable sort by
/// [`TraceEvent::sort_key`].
///
/// Per-lane subsequences keep their capture order (stable sort), so any
/// two captures of the same run whose lanes agree normalize to
/// byte-identical streams.
pub fn normalize(events: &mut [TraceEvent]) {
    events.sort_by(|a, b| a.sort_key().cmp(&b.sort_key()));
}

/// An event buffer; consumers normalize it at export time.
#[derive(Debug, Clone, Default)]
pub struct ProfileSink {
    events: Vec<TraceEvent>,
}

impl ProfileSink {
    /// An empty sink.
    pub fn new() -> Self {
        ProfileSink::default()
    }

    /// Appends one interval event.
    #[inline]
    pub fn slice(
        &mut self,
        lane: Lane,
        name: impl Into<Cow<'static, str>>,
        start: Cycle,
        end: Cycle,
        job: Option<u64>,
    ) {
        self.events.push(TraceEvent {
            lane,
            name: name.into(),
            start,
            end,
            job,
            value: None,
        });
    }

    /// Appends one instantaneous counter sample.
    #[inline]
    pub fn counter(
        &mut self,
        lane: Lane,
        name: impl Into<Cow<'static, str>>,
        at: Cycle,
        value: u64,
    ) {
        self.events.push(TraceEvent {
            lane,
            name: name.into(),
            start: at,
            end: at,
            job: None,
            value: Some(value),
        });
    }

    /// Appends a pre-built event.
    #[inline]
    pub fn push(&mut self, event: TraceEvent) {
        self.events.push(event);
    }

    /// The events captured so far, in capture order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Number of captured events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` if nothing has been captured.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Consumes the sink, returning the raw (unnormalized) events.
    pub fn into_events(self) -> Vec<TraceEvent> {
        self.events
    }

    /// Consumes the sink, returning the canonically ordered events.
    pub fn into_normalized(self) -> Vec<TraceEvent> {
        let mut events = self.events;
        normalize(&mut events);
        events
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(lane: Lane, start: Cycle, end: Cycle) -> TraceEvent {
        TraceEvent {
            lane,
            name: "act".into(),
            start,
            end,
            job: None,
            value: None,
        }
    }

    #[test]
    fn lane_labels_roundtrip() {
        for lane in [
            Lane::Queue,
            Lane::Jobs,
            Lane::Bank(17),
            Lane::Rank(2),
            Lane::Channel(3),
            Lane::Vault(31),
        ] {
            assert_eq!(Lane::from_label(&lane.to_string()), Some(lane));
        }
        assert_eq!(Lane::from_label("bogus/1"), None);
        assert_eq!(Lane::from_label("bank/x"), None);
    }

    #[test]
    fn normalize_is_shard_order_independent() {
        let a = [ev(Lane::Bank(0), 0, 4), ev(Lane::Bank(0), 4, 8)];
        let b = [ev(Lane::Bank(1), 0, 4), ev(Lane::Bank(1), 4, 8)];

        let mut seq = ProfileSink::new();
        // Sequential capture interleaves banks in time order.
        seq.push(a[0].clone());
        seq.push(b[0].clone());
        seq.push(a[1].clone());
        seq.push(b[1].clone());

        // Shard-major concatenation, joined in the opposite order to
        // prove order independence.
        let mut sharded = ProfileSink::new();
        for e in b.iter().chain(&a) {
            sharded.push(e.clone());
        }

        assert_eq!(seq.into_normalized(), sharded.into_normalized());
    }

    #[test]
    fn counter_events_are_instantaneous() {
        let mut sink = ProfileSink::new();
        sink.counter(Lane::Queue, "depth", 10, 3);
        let e = &sink.events()[0];
        assert_eq!(e.start, e.end);
        assert_eq!(e.value, Some(3));
        assert_eq!(e.cycles(), 0);
    }
}
