//! Physical-address to DRAM-coordinate mapping schemes.
//!
//! Scheme names follow the Ramulator convention: coordinates listed from
//! most-significant to least-significant bit field. For example
//! [`AddressMapping::RoBaRaCoCh`] places the channel bits at the bottom
//! (burst-granularity channel interleaving, maximum channel parallelism)
//! and the row bits at the top.

use crate::spec::Organization;
use crate::types::{DramAddr, PhysAddr};
use std::fmt;

/// An address-mapping scheme.
///
/// # Examples
///
/// ```
/// use pim_dram::{AddressMapping, DramSpec, PhysAddr};
/// let org = DramSpec::ddr3_1600().org;
/// let m = AddressMapping::RoBaRaCoCh;
/// let d = m.decode(PhysAddr::new(0x1234_5678), &org);
/// assert_eq!(m.encode(d, &org).as_u64(), 0x1234_5640); // burst aligned
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, Default, serde::Serialize, serde::Deserialize,
)]
pub enum AddressMapping {
    /// Row : Bank : Rank : Column : Channel (MSB→LSB). Default; interleaves
    /// consecutive bursts across channels, then columns.
    #[default]
    RoBaRaCoCh,
    /// Row : Rank : Bank : Column : Channel. Consecutive bursts hit the same
    /// bank row, banks rotate at row granularity.
    RoRaBaCoCh,
    /// Row : Column : Rank : Bank : Channel. Consecutive bursts rotate over
    /// banks (bank-interleaved streaming).
    RoCoRaBaCh,
    /// Channel : Rank : Bank : Row : Column. Fully contiguous rows within a
    /// bank; a linear sweep stays in one bank and walks rows sequentially.
    ChRaBaRoCo,
}

/// The coordinate fields, used internally to describe bit order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Field {
    Ch,
    Ra,
    Ba,
    Ro,
    Co,
}

impl AddressMapping {
    /// All supported schemes.
    pub const ALL: [AddressMapping; 4] = [
        AddressMapping::RoBaRaCoCh,
        AddressMapping::RoRaBaCoCh,
        AddressMapping::RoCoRaBaCh,
        AddressMapping::ChRaBaRoCo,
    ];

    /// Fields from least significant to most significant.
    fn fields_lsb_first(self) -> [Field; 5] {
        match self {
            AddressMapping::RoBaRaCoCh => [Field::Ch, Field::Co, Field::Ra, Field::Ba, Field::Ro],
            AddressMapping::RoRaBaCoCh => [Field::Ch, Field::Co, Field::Ba, Field::Ra, Field::Ro],
            AddressMapping::RoCoRaBaCh => [Field::Ch, Field::Ba, Field::Ra, Field::Co, Field::Ro],
            AddressMapping::ChRaBaRoCo => [Field::Co, Field::Ro, Field::Ba, Field::Ra, Field::Ch],
        }
    }

    /// Decodes a physical byte address into DRAM coordinates.
    ///
    /// The low `log2(burst_bytes)` bits (the offset within a burst) are
    /// discarded; addresses map at burst granularity.
    pub fn decode(self, addr: PhysAddr, org: &Organization) -> DramAddr {
        let mut bits = addr.as_u64() >> org.burst_bytes().trailing_zeros();
        let mut out = DramAddr::default();
        for field in self.fields_lsb_first() {
            let (width, slot): (u32, &mut u32) = match field {
                Field::Ch => (org.channels.trailing_zeros(), &mut out.channel),
                Field::Ra => (org.ranks.trailing_zeros(), &mut out.rank),
                Field::Ba => (org.banks.trailing_zeros(), &mut out.bank),
                Field::Ro => (org.rows.trailing_zeros(), &mut out.row),
                Field::Co => (org.columns.trailing_zeros(), &mut out.column),
            };
            *slot = (bits & ((1u64 << width) - 1)) as u32;
            bits >>= width;
        }
        out
    }

    /// Encodes DRAM coordinates back to the (burst-aligned) physical address.
    pub fn encode(self, addr: DramAddr, org: &Organization) -> PhysAddr {
        let mut bits: u64 = 0;
        let mut shift = 0u32;
        for field in self.fields_lsb_first() {
            let (width, value) = match field {
                Field::Ch => (org.channels.trailing_zeros(), addr.channel),
                Field::Ra => (org.ranks.trailing_zeros(), addr.rank),
                Field::Ba => (org.banks.trailing_zeros(), addr.bank),
                Field::Ro => (org.rows.trailing_zeros(), addr.row),
                Field::Co => (org.columns.trailing_zeros(), addr.column),
            };
            bits |= (value as u64) << shift;
            shift += width;
        }
        PhysAddr::new(bits << org.burst_bytes().trailing_zeros())
    }
}

impl fmt::Display for AddressMapping {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AddressMapping::RoBaRaCoCh => "RoBaRaCoCh",
            AddressMapping::RoRaBaCoCh => "RoRaBaCoCh",
            AddressMapping::RoCoRaBaCh => "RoCoRaBaCh",
            AddressMapping::ChRaBaRoCo => "ChRaBaRoCo",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::DramSpec;

    #[test]
    fn roundtrip_all_schemes() {
        let org = DramSpec::ddr3_1600().org;
        for scheme in AddressMapping::ALL {
            for raw in [0u64, 64, 4096, 0x00de_adc0, 0x7fff_ffc0, 0x1234_5640] {
                let aligned = PhysAddr::new(raw).align_down(org.burst_bytes());
                let d = scheme.decode(aligned, &org);
                assert_eq!(scheme.encode(d, &org), aligned, "{scheme} addr {raw:#x}");
            }
        }
    }

    #[test]
    fn decode_respects_bounds() {
        let org = DramSpec::ddr3_1600().org;
        for scheme in AddressMapping::ALL {
            for raw in (0..10_000u64).step_by(777) {
                let d = scheme.decode(PhysAddr::new(raw * 64), &org);
                assert!(d.channel < org.channels);
                assert!(d.rank < org.ranks);
                assert!(d.bank < org.banks);
                assert!(d.row < org.rows);
                assert!(d.column < org.columns);
            }
        }
    }

    #[test]
    fn row_contiguous_scheme_keeps_stream_in_one_row() {
        let org = DramSpec::ddr3_1600().org;
        let m = AddressMapping::ChRaBaRoCo;
        let base = 1u64 << 20;
        let first = m.decode(PhysAddr::new(base), &org);
        // The next 127 bursts stay in the same row.
        for i in 1..(org.columns as u64) {
            let d = m.decode(PhysAddr::new(base + i * 64), &org);
            assert_eq!(d.row_id(), first.row_id(), "burst {i}");
        }
        let next = m.decode(PhysAddr::new(base + org.row_bytes()), &org);
        assert_ne!(next.row_id(), first.row_id());
    }

    #[test]
    fn bank_interleaved_scheme_rotates_banks() {
        let org = DramSpec::ddr3_1600().org;
        let m = AddressMapping::RoCoRaBaCh;
        let d0 = m.decode(PhysAddr::new(0), &org);
        let d1 = m.decode(PhysAddr::new(64), &org);
        assert_ne!(d0.bank, d1.bank);
    }

    #[test]
    fn default_scheme_interleaves_columns_next_after_channel() {
        let org = DramSpec::ddr3_1600().org; // 1 channel -> 0 channel bits
        let m = AddressMapping::RoBaRaCoCh;
        let d0 = m.decode(PhysAddr::new(0), &org);
        let d1 = m.decode(PhysAddr::new(64), &org);
        assert_eq!(d0.column + 1, d1.column);
        assert_eq!(d0.row_id(), d1.row_id());
    }

    #[test]
    fn multi_channel_interleave() {
        let org = DramSpec::ddr3_1600().with_channels(2).org;
        let m = AddressMapping::RoBaRaCoCh;
        let d0 = m.decode(PhysAddr::new(0), &org);
        let d1 = m.decode(PhysAddr::new(64), &org);
        assert_ne!(d0.channel, d1.channel);
    }

    #[test]
    fn display_names() {
        for scheme in AddressMapping::ALL {
            assert_eq!(format!("{scheme}").len(), 10);
        }
    }
}
