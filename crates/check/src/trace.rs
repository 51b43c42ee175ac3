//! The portable trace container: a [`DramSpec`] header plus the
//! canonically-ordered command records, with a compact binary format and a
//! human-readable JSON format.
//!
//! ## Binary layout (`to_bytes` / `from_bytes`)
//!
//! ```text
//! magic   8 B   b"PIMTRC01"
//! len     4 B   little-endian u32, byte length of the JSON-encoded spec
//! spec    len B JSON DramSpec (same encoding as the JSON format's header)
//! count   8 B   little-endian u64 record count
//! records count x 44 B, each:
//!     at      8 B  u64  issue cycle
//!     kind    1 B  CommandKind index
//!     flags   1 B  bit 0 = invert (AAP / TRA-AAP)
//!     pad     2 B  zero
//!     channel 4 B  u32
//!     rank    4 B  u32
//!     bank    4 B  u32
//!     row0    4 B  u32  first/only row (or 0)
//!     row1    4 B  u32  second TRA row (or AAP destination row)
//!     row2    4 B  u32  third TRA row
//!     dst     4 B  u32  TRA-AAP destination row
//!     column  4 B  u32  column of RD/WR commands
//! ```
//!
//! ## JSON layout (`to_json_string` / `from_json_str`)
//!
//! ```json
//! { "format": "pim-trace", "version": 1,
//!   "spec": { ... DramSpec ... },
//!   "records": [[at, kind, channel, rank, bank, row0, row1, row2, dst,
//!                column, flags], ...] }
//! ```

use pim_dram::{Command, CommandKind, Cycle, DramAddr, DramSpec, RowId, TraceRecord};
use serde_json::Value;
use std::fmt;

const MAGIC: &[u8; 8] = b"PIMTRC01";
const RECORD_BYTES: usize = 44;
const FLAG_INVERT: u8 = 1;

/// A malformed trace file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceFormatError(String);

impl TraceFormatError {
    fn new(msg: impl Into<String>) -> Self {
        TraceFormatError(msg.into())
    }
}

impl fmt::Display for TraceFormatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "malformed trace: {}", self.0)
    }
}

impl std::error::Error for TraceFormatError {}

/// A captured command trace: the device specification it ran against plus
/// the canonically-ordered records.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    /// The specification of the device that produced the trace. The
    /// checker derives every timing table from this header.
    pub spec: DramSpec,
    /// Command records in canonical order (see
    /// [`pim_dram::trace::normalize`]).
    pub records: Vec<TraceRecord>,
}

impl Trace {
    /// Builds a trace from raw captured records, normalizing them into
    /// canonical order. Use this on anything taken from a device sink —
    /// Ambit replays interleave chunk timelines out of cycle order.
    pub fn capture(spec: DramSpec, mut records: Vec<TraceRecord>) -> Self {
        pim_dram::trace::normalize(&mut records);
        Trace { spec, records }
    }

    /// Total cycles spanned, from 0 through the last issue cycle.
    pub fn span(&self) -> Cycle {
        self.records.last().map_or(0, |r| r.at)
    }

    /// Serializes to the compact binary format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let spec_json =
            serde_json::to_string(&self.spec).expect("DramSpec serialization is infallible");
        let mut out = Vec::with_capacity(
            MAGIC.len() + 4 + spec_json.len() + 8 + self.records.len() * RECORD_BYTES,
        );
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&(spec_json.len() as u32).to_le_bytes());
        out.extend_from_slice(spec_json.as_bytes());
        out.extend_from_slice(&(self.records.len() as u64).to_le_bytes());
        for r in &self.records {
            let f = FlatCmd::flatten(&r.cmd);
            out.extend_from_slice(&r.at.to_le_bytes());
            out.push(f.kind.index() as u8);
            out.push(f.flags);
            out.extend_from_slice(&[0, 0]);
            for v in [
                f.channel, f.rank, f.bank, f.rows[0], f.rows[1], f.rows[2], f.dst, f.column,
            ] {
                out.extend_from_slice(&v.to_le_bytes());
            }
        }
        out
    }

    /// Parses the compact binary format.
    ///
    /// # Errors
    ///
    /// Returns [`TraceFormatError`] on any truncation, bad magic, unknown
    /// command kind, or malformed spec header.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, TraceFormatError> {
        let mut cur = Cursor { bytes, pos: 0 };
        if cur.take(8)? != MAGIC {
            return Err(TraceFormatError::new("bad magic"));
        }
        let spec_len = u32::from_le_bytes(cur.take(4)?.try_into().unwrap()) as usize;
        let spec_json = std::str::from_utf8(cur.take(spec_len)?)
            .map_err(|_| TraceFormatError::new("spec header is not UTF-8"))?;
        let spec: DramSpec = serde_json::from_str(spec_json)
            .map_err(|e| TraceFormatError::new(format!("bad spec header: {e}")))?;
        let count = u64::from_le_bytes(cur.take(8)?.try_into().unwrap()) as usize;
        // Reserve only what the remaining bytes can hold: the count is
        // untrusted, and a huge one must fail as truncated, not allocate.
        let mut records = Vec::with_capacity(count.min(cur.remaining() / RECORD_BYTES));
        for i in 0..count {
            let rec = cur.take(RECORD_BYTES)?;
            let at = u64::from_le_bytes(rec[0..8].try_into().unwrap());
            let kind = kind_from_index(rec[8])
                .ok_or_else(|| TraceFormatError::new(format!("record {i}: bad kind {}", rec[8])))?;
            let word =
                |j: usize| u32::from_le_bytes(rec[12 + 4 * j..16 + 4 * j].try_into().unwrap());
            let f = FlatCmd {
                kind,
                flags: rec[9],
                channel: word(0),
                rank: word(1),
                bank: word(2),
                rows: [word(3), word(4), word(5)],
                dst: word(6),
                column: word(7),
            };
            records.push(TraceRecord {
                at,
                cmd: f.unflatten(),
            });
        }
        if cur.pos != bytes.len() {
            return Err(TraceFormatError::new("trailing bytes after records"));
        }
        Ok(Trace { spec, records })
    }

    /// Serializes to the JSON format.
    pub fn to_json_string(&self) -> String {
        let mut root = serde_json::Map::new();
        root.insert("format", Value::Str("pim-trace".into()));
        root.insert("version", Value::Num(1.0));
        root.insert(
            "spec",
            serde_json::to_value(&self.spec).expect("DramSpec serialization is infallible"),
        );
        let records: Vec<Value> = self
            .records
            .iter()
            .map(|r| {
                let f = FlatCmd::flatten(&r.cmd);
                Value::Array(
                    [
                        r.at,
                        f.kind.index() as u64,
                        f.channel as u64,
                        f.rank as u64,
                        f.bank as u64,
                        f.rows[0] as u64,
                        f.rows[1] as u64,
                        f.rows[2] as u64,
                        f.dst as u64,
                        f.column as u64,
                        f.flags as u64,
                    ]
                    .iter()
                    .map(|&v| Value::Num(v as f64))
                    .collect(),
                )
            })
            .collect();
        root.insert("records", Value::Array(records));
        serde_json::to_string(&Value::Object(root)).expect("value tree is always serializable")
    }

    /// Parses the JSON format.
    ///
    /// # Errors
    ///
    /// Returns [`TraceFormatError`] on syntax errors or schema mismatches.
    pub fn from_json_str(s: &str) -> Result<Self, TraceFormatError> {
        let root: Value = serde_json::from_str(s)
            .map_err(|e| TraceFormatError::new(format!("JSON syntax: {e}")))?;
        if root["format"].as_str() != Some("pim-trace") {
            return Err(TraceFormatError::new("missing pim-trace format tag"));
        }
        if root["version"].as_u64() != Some(1) {
            return Err(TraceFormatError::new("unsupported trace version"));
        }
        let spec: DramSpec = serde_json::from_value(root["spec"].clone())
            .map_err(|e| TraceFormatError::new(format!("bad spec header: {e}")))?;
        let Value::Array(rows) = &root["records"] else {
            return Err(TraceFormatError::new("records must be an array"));
        };
        let mut records = Vec::with_capacity(rows.len());
        for (i, row) in rows.iter().enumerate() {
            let Value::Array(vals) = row else {
                return Err(TraceFormatError::new(format!(
                    "record {i} must be an array"
                )));
            };
            let get = |j: usize| -> Result<u64, TraceFormatError> {
                vals.get(j)
                    .and_then(Value::as_u64)
                    .ok_or_else(|| TraceFormatError::new(format!("record {i}: bad field {j}")))
            };
            let kind = kind_from_index(get(1)? as u8)
                .ok_or_else(|| TraceFormatError::new(format!("record {i}: bad kind")))?;
            let f = FlatCmd {
                kind,
                flags: get(10)? as u8,
                channel: get(2)? as u32,
                rank: get(3)? as u32,
                bank: get(4)? as u32,
                rows: [get(5)? as u32, get(6)? as u32, get(7)? as u32],
                dst: get(8)? as u32,
                column: get(9)? as u32,
            };
            records.push(TraceRecord {
                at: get(0)?,
                cmd: f.unflatten(),
            });
        }
        Ok(Trace { spec, records })
    }
}

struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], TraceFormatError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or_else(|| TraceFormatError::new("truncated trace"))?;
        let s = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(s)
    }
}

fn kind_from_index(i: u8) -> Option<CommandKind> {
    CommandKind::ALL.get(i as usize).copied()
}

/// A [`Command`] flattened into fixed-width fields for serialization.
struct FlatCmd {
    kind: CommandKind,
    flags: u8,
    channel: u32,
    rank: u32,
    bank: u32,
    rows: [u32; 3],
    dst: u32,
    column: u32,
}

impl FlatCmd {
    fn flatten(cmd: &Command) -> FlatCmd {
        let (channel, rank) = cmd.rank();
        let bank = cmd.bank().map_or(0, |b| b.bank);
        let mut f = FlatCmd {
            kind: cmd.kind(),
            flags: 0,
            channel,
            rank,
            bank,
            rows: [0; 3],
            dst: 0,
            column: 0,
        };
        match *cmd {
            Command::Act(row) | Command::Ap(row) => f.rows[0] = row.row,
            Command::Pre(_) | Command::PreAll { .. } | Command::Ref { .. } => {}
            Command::Rd(a) | Command::RdA(a) | Command::Wr(a) | Command::WrA(a) => {
                f.rows[0] = a.row;
                f.column = a.column;
            }
            Command::Aap { src, dst, invert } => {
                f.rows[0] = src.row;
                f.rows[1] = dst.row;
                f.flags = if invert { FLAG_INVERT } else { 0 };
            }
            Command::Tra { rows, .. } => f.rows = rows,
            Command::TraAap {
                rows, dst, invert, ..
            } => {
                f.rows = rows;
                f.dst = dst;
                f.flags = if invert { FLAG_INVERT } else { 0 };
            }
        }
        f
    }

    fn unflatten(&self) -> Command {
        let row = |r: u32| RowId::new(self.channel, self.rank, self.bank, r);
        let bank = row(0).bank_id();
        let addr = DramAddr::new(
            self.channel,
            self.rank,
            self.bank,
            self.rows[0],
            self.column,
        );
        let invert = self.flags & FLAG_INVERT != 0;
        match self.kind {
            CommandKind::Act => Command::Act(row(self.rows[0])),
            CommandKind::Pre => Command::Pre(bank),
            CommandKind::PreAll => Command::PreAll {
                channel: self.channel,
                rank: self.rank,
            },
            CommandKind::Rd => Command::Rd(addr),
            CommandKind::RdA => Command::RdA(addr),
            CommandKind::Wr => Command::Wr(addr),
            CommandKind::WrA => Command::WrA(addr),
            CommandKind::Ref => Command::Ref {
                channel: self.channel,
                rank: self.rank,
            },
            CommandKind::Aap => Command::Aap {
                src: row(self.rows[0]),
                dst: row(self.rows[1]),
                invert,
            },
            CommandKind::Ap => Command::Ap(row(self.rows[0])),
            CommandKind::Tra => Command::Tra {
                bank,
                rows: self.rows,
            },
            CommandKind::TraAap => Command::TraAap {
                bank,
                rows: self.rows,
                dst: self.dst,
                invert,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_dram::BankId;

    fn sample() -> Trace {
        let spec = DramSpec::ddr3_1600();
        let b = BankId::new(0, 0, 2);
        let records = vec![
            TraceRecord {
                at: 0,
                cmd: Command::Act(RowId::new(0, 0, 2, 7)),
            },
            TraceRecord {
                at: 11,
                cmd: Command::Rd(DramAddr::new(0, 0, 2, 7, 3)),
            },
            TraceRecord {
                at: 30,
                cmd: Command::Pre(b),
            },
            TraceRecord {
                at: 41,
                cmd: Command::Aap {
                    src: RowId::new(0, 0, 2, 7),
                    dst: RowId::new(0, 0, 2, 9),
                    invert: true,
                },
            },
            TraceRecord {
                at: 200,
                cmd: Command::TraAap {
                    bank: b,
                    rows: [4, 5, 6],
                    dst: 8,
                    invert: false,
                },
            },
            TraceRecord {
                at: 6240,
                cmd: Command::Ref {
                    channel: 0,
                    rank: 0,
                },
            },
        ];
        Trace::capture(spec, records)
    }

    #[test]
    fn binary_roundtrip_is_identity() {
        let t = sample();
        let bytes = t.to_bytes();
        let back = Trace::from_bytes(&bytes).expect("roundtrip");
        assert_eq!(t, back);
        // Deterministic bytes: serialize twice, compare.
        assert_eq!(bytes, back.to_bytes());
    }

    #[test]
    fn json_roundtrip_is_identity() {
        let t = sample();
        let s = t.to_json_string();
        let back = Trace::from_json_str(&s).expect("roundtrip");
        assert_eq!(t, back);
    }

    #[test]
    fn truncation_and_bad_magic_are_rejected() {
        let t = sample();
        let bytes = t.to_bytes();
        assert!(Trace::from_bytes(&bytes[..bytes.len() - 1]).is_err());
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert!(Trace::from_bytes(&bad).is_err());
        assert!(Trace::from_json_str("{}").is_err());
        assert!(Trace::from_json_str("not json").is_err());
    }

    #[test]
    fn capture_normalizes_out_of_order_records() {
        let spec = DramSpec::ddr3_1600();
        let r1 = TraceRecord {
            at: 100,
            cmd: Command::Ap(RowId::new(0, 0, 1, 0)),
        };
        let r0 = TraceRecord {
            at: 5,
            cmd: Command::Ap(RowId::new(0, 0, 0, 0)),
        };
        let t = Trace::capture(spec, vec![r1, r0]);
        assert_eq!(t.records, vec![r0, r1]);
        assert_eq!(t.span(), 100);
    }
}
