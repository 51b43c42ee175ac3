//! Hostile input for the PIMTRC01 decoder: truncated, bit-flipped and
//! oversized-record-count encodings of a real Ambit capture (the seven
//! E1 bulk operations on DDR3) each decode to `Ok` or a typed
//! [`TraceFormatError`] — never a panic — in time linear in their length.

use pim_ambit::{AmbitConfig, AmbitSystem};
use pim_check::{Trace, TraceFormatError};
use pim_workloads::BulkOp;
use proptest::prelude::*;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// PIMTRC01 bytes of the seven bulk operations over one row per bank.
fn capture() -> &'static [u8] {
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| {
        let mut sys = AmbitSystem::new(AmbitConfig::ddr3());
        sys.set_trace(true);
        let bits = sys.row_bits() * sys.spec().org.total_banks() as usize;
        let [a, b, out] = [(); 3].map(|_| sys.alloc(bits).expect("alloc"));
        for op in BulkOp::ALL {
            let rhs = (!op.is_unary()).then_some(&b);
            sys.execute(op, &a, rhs, &out).expect("execute");
        }
        Trace::capture(sys.spec().clone(), sys.take_trace()).to_bytes()
    })
}

/// Decodes `bytes` within a budget linear in their length: a fixed
/// allowance plus a per-byte rate far above the decoder's, so only a
/// superlinear path (or a huge up-front allocation) can blow it.
fn decode(bytes: &[u8]) -> Result<Trace, TraceFormatError> {
    let start = Instant::now();
    let res = Trace::from_bytes(bytes);
    let budget = Duration::from_millis(250) + Duration::from_micros(20) * bytes.len() as u32;
    let took = start.elapsed();
    assert!(
        took < budget,
        "decoding {} bytes took {took:?}",
        bytes.len()
    );
    res
}

#[test]
fn the_capture_roundtrips() {
    let trace = decode(capture()).expect("the capture decodes");
    assert!(trace.records.len() > 100, "a real multi-op capture");
    assert_eq!(trace.to_bytes(), capture());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every strict prefix is rejected as truncated.
    #[test]
    fn truncated_encodings_are_rejected(cut in 0usize..1 << 20) {
        let bytes = capture();
        let cut = cut % bytes.len();
        prop_assert!(decode(&bytes[..cut]).is_err(), "prefix of {} bytes decoded", cut);
    }

    /// Flipped bits anywhere — magic, spec header, count, records —
    /// decode or fail with a typed error.
    #[test]
    fn bit_flipped_encodings_never_panic(
        flips in proptest::collection::vec((0usize..1 << 20, 0u8..8), 1..8),
    ) {
        let mut bytes = capture().to_vec();
        for (pos, bit) in flips {
            let pos = pos % bytes.len();
            bytes[pos] ^= 1 << bit;
        }
        let _ = decode(&bytes);
    }

    /// A record count beyond the records present is rejected, however
    /// large, without reserving room for the claimed records.
    #[test]
    fn oversized_record_counts_are_rejected(extra in 1u64..=u64::MAX) {
        let mut bytes = capture().to_vec();
        // The count follows the magic, the spec length and the spec.
        let spec_len = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
        let at = 12 + spec_len as usize;
        let count = u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8 bytes"));
        bytes[at..at + 8].copy_from_slice(&count.saturating_add(extra).to_le_bytes());
        prop_assert!(decode(&bytes).is_err());
    }
}
