//! Deterministic trace replay: re-executes a captured trace on a fresh
//! [`Device`] at the recorded cycles and proves the re-capture is
//! byte-identical to the input.
//!
//! Replay is the third leg of the cross-validation triangle: the device
//! validated the commands when they were first issued, the independent
//! [`Checker`](crate::Checker) validated the serialized trace, and replay
//! shows the trace is self-consistent — feeding it back through the device
//! reproduces exactly the same command stream (and deterministic
//! functional state, since every data-moving command is in the trace).

use crate::trace::Trace;
use pim_dram::{Device, DramError, Observer, Projection};
use std::fmt;

/// Why a replay failed.
#[derive(Debug, Clone, PartialEq)]
pub enum ReplayError {
    /// The device rejected a record (the trace is not device-legal).
    Rejected {
        /// Index of the rejected record.
        index: usize,
        /// The device's error.
        error: DramError,
    },
    /// The re-captured trace differs from the input (should be impossible
    /// for a trace captured from this device model; indicates corruption).
    Diverged {
        /// Index of the first differing record.
        index: usize,
    },
}

impl fmt::Display for ReplayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplayError::Rejected { index, error } => {
                write!(f, "replay: device rejected record {index}: {error}")
            }
            ReplayError::Diverged { index } => {
                write!(f, "replay: re-captured trace diverges at record {index}")
            }
        }
    }
}

impl std::error::Error for ReplayError {}

/// Replays `trace` on a fresh device, re-capturing as it goes, and checks
/// the re-capture is byte-identical to the input. Returns the device in
/// its final state (bank timing, counts, and functional rows) for further
/// inspection.
///
/// # Errors
///
/// [`ReplayError::Rejected`] if the device refuses any record, or
/// [`ReplayError::Diverged`] if the re-captured trace differs.
pub fn replay(trace: &Trace) -> Result<Device, ReplayError> {
    let mut device = Device::new(trace.spec.clone());
    device.observe(Projection::Trace, true);
    for (index, rec) in trace.records.iter().enumerate() {
        device
            .issue(rec.cmd, rec.at)
            .map_err(|error| ReplayError::Rejected { index, error })?;
    }
    let records = device.observer_mut().map(Observer::take_trace);
    let recapture = Trace::capture(trace.spec.clone(), records.unwrap_or_default());
    if let Some(index) = recapture
        .records
        .iter()
        .zip(&trace.records)
        .position(|(a, b)| a != b)
    {
        return Err(ReplayError::Diverged { index });
    }
    if recapture.records.len() != trace.records.len() {
        return Err(ReplayError::Diverged {
            index: recapture.records.len().min(trace.records.len()),
        });
    }
    debug_assert_eq!(recapture.to_bytes(), trace.to_bytes());
    Ok(device)
}
