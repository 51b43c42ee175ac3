//! E1 — bulk bitwise throughput across platforms (paper §2).
//!
//! Reproduces: *"Ambit with 8 DRAM banks improves bulk bitwise operation
//! throughput by 44× compared to an Intel Skylake processor, and 32×
//! compared to the NVIDIA GTX 745 GPU"* and the Ambit-in-HMC comparison.
//!
//! Every measurement dispatches through the [`pim_runtime`] job runtime:
//! each platform is a [`Backend`](pim_runtime::Backend) and each op is a
//! [`Job`] forced onto it, so the numbers here exercise the exact
//! submit/drain path the advisor-driven experiments use.

use pim_ambit::{AmbitConfig, AmbitSystem};
use pim_core::{geomean, Objective, Table, Value};
use pim_dram::{DramSpec, SpecError};
use pim_host::{CpuConfig, CpuModel, GpuConfig, GpuModel, HmcLogicConfig, HmcLogicModel};
use pim_runtime::{AmbitBackend, CpuBackend, GpuBackend, HmcLogicBackend, Job, Placement, Runtime};
use pim_workloads::{BitVec, BulkOp};
use rand::SeedableRng;
use std::fmt;
use std::sync::Arc;

/// Why the `--banks N` / `--org CHxRAxBA` flags were rejected. Returned
/// (not panicked) so the bin can print the problem and exit nonzero —
/// bank sweeps feed shell loops, and a loop should see a clean error for
/// the shapes the DRAM spec rules out, not a backtrace.
#[derive(Debug, PartialEq, Eq)]
pub enum OrgArgError {
    /// The flag was given without a following value.
    MissingValue(&'static str),
    /// The value did not parse (`--banks` wants an integer, `--org` a
    /// `CHxRAxBA` triple such as `4x4x16`).
    Malformed(&'static str, String),
    /// The shape parsed but violates the DRAM organization limits
    /// (nonzero powers of two), as validated by [`DramSpec::with_org`].
    Spec(String),
}

impl fmt::Display for OrgArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OrgArgError::MissingValue(flag) => write!(f, "{flag} needs a value"),
            OrgArgError::Malformed(flag, v) => match *flag {
                "--org" => write!(f, "--org wants CHxRAxBA (e.g. 4x4x16), got `{v}`"),
                _ => write!(f, "{flag} wants an integer, got `{v}`"),
            },
            OrgArgError::Spec(e) => write!(f, "organization rejected: {e}"),
        }
    }
}

impl From<SpecError> for OrgArgError {
    fn from(e: SpecError) -> Self {
        OrgArgError::Spec(e.to_string())
    }
}

/// Parses the E1 bin's sweep flags into a DDR3 spec override:
/// `--banks N` is shorthand for a single-channel, single-rank device with
/// `N` banks, and `--org CHxRAxBA` gives the full shape (so `--org 4x4x16`
/// is the 256-bank HMC-scale machine). Returns `Ok(None)` when neither
/// flag is present; the last occurrence wins when both are.
///
/// # Errors
///
/// [`OrgArgError`] when a flag is missing its value, the value does not
/// parse, or the shape fails [`DramSpec::with_org`] validation.
pub fn org_from_args(args: &[String]) -> Result<Option<DramSpec>, OrgArgError> {
    let mut spec = None;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let (ch, ra, ba) = match arg.as_str() {
            "--banks" => {
                let v = iter.next().ok_or(OrgArgError::MissingValue("--banks"))?;
                let banks: u32 = v
                    .parse()
                    .map_err(|_| OrgArgError::Malformed("--banks", v.clone()))?;
                (1, 1, banks)
            }
            "--org" => {
                let v = iter.next().ok_or(OrgArgError::MissingValue("--org"))?;
                let parts: Vec<u32> = v
                    .split(['x', 'X'])
                    .map(str::parse)
                    .collect::<Result<_, _>>()
                    .map_err(|_| OrgArgError::Malformed("--org", v.clone()))?;
                let [ch, ra, ba] = parts[..] else {
                    return Err(OrgArgError::Malformed("--org", v.clone()));
                };
                (ch, ra, ba)
            }
            _ => continue,
        };
        spec = Some(DramSpec::ddr3_1600().with_org(ch, ra, ba)?);
    }
    Ok(spec)
}

/// Rounds of the row-round workload for a swept organization: large
/// machines get fewer rounds so a 256-bank sweep costs about as much as
/// the default 8-bank × 8-round measurement.
fn rounds_for(spec: &DramSpec) -> usize {
    (64 / spec.org.total_banks() as usize).clamp(1, 8)
}

/// Measured throughput table for a swept organization (`--banks`/`--org`)
/// next to the default 8-bank DDR3 device, with the per-op scaling ratio.
pub fn custom_org_table(spec: DramSpec) -> Table {
    let org = spec.org;
    let rounds = rounds_for(&spec);
    let custom = measure_ambit(
        AmbitConfig {
            spec,
            ..AmbitConfig::ddr3()
        },
        rounds,
    );
    let base = measure_ambit(AmbitConfig::ddr3(), 8);
    let mut t = Table::new(
        format!(
            "E1 swept organization: {}ch x {}ra x {}ba ({} banks) vs ddr3-8banks (GB/s of output)",
            org.channels,
            org.ranks,
            org.banks,
            org.total_banks()
        ),
        &["op", "swept", "ddr3-8banks", "scaling"],
    );
    let mut ratios = Vec::new();
    for (i, op) in BulkOp::ALL.iter().enumerate() {
        ratios.push(custom[i] / base[i]);
        t.row(vec![
            op.to_string().into(),
            Value::Num(custom[i]),
            Value::Num(base[i]),
            Value::Ratio(custom[i] / base[i]),
        ]);
    }
    t.row(vec![
        "geomean".into(),
        "".into(),
        "".into(),
        Value::Ratio(geomean(&ratios).expect("throughputs are positive")),
    ]);
    t
}

/// Measured throughputs (GB/s of output) for one platform across all ops.
#[derive(Debug, Clone)]
pub struct PlatformThroughput {
    /// Platform name.
    pub name: &'static str,
    /// GB/s per [`BulkOp::ALL`] entry.
    pub gbps: Vec<f64>,
}

/// Submits one job per [`BulkOp::ALL`] entry forced onto `backend`,
/// drains, and returns the per-op throughputs in op order.
fn measure_ops(rt: &mut Runtime, backend: &str, a: &Arc<BitVec>, b: &Arc<BitVec>) -> Vec<f64> {
    for &op in BulkOp::ALL.iter() {
        let rhs = if op.is_unary() { None } else { Some(b.clone()) };
        rt.submit(
            Job::bulk(op, a.clone(), rhs),
            Placement::Forced(backend.to_string()),
        )
        .expect("submit");
    }
    rt.drain()
        .expect("drain")
        .into_iter()
        .map(|c| c.report.throughput_gbps())
        .collect()
}

/// Deterministic patterned operands sized for the host platforms.
/// Roofline pricing depends only on the operand length, so cheap
/// repeating words stand in for multi-hundred-megabit random draws.
fn host_operands(out_bytes: u64) -> (Arc<BitVec>, Arc<BitVec>) {
    let bits = (out_bytes * 8) as usize;
    let words = bits.div_ceil(64);
    (
        Arc::new(BitVec::from_words(vec![0x5555_AAAA_0F0F_3C3C; words], bits)),
        Arc::new(BitVec::from_words(vec![0x3333_CCCC_00FF_55AA; words], bits)),
    )
}

/// Seed-11 random operands covering `rounds` full row-rounds of the
/// Ambit device — the historical E1 workload.
fn ambit_operands(sys: &AmbitSystem, rounds: usize) -> (Arc<BitVec>, Arc<BitVec>) {
    let bits = sys.row_bits() * sys.spec().org.total_banks() as usize * rounds;
    let mut rng = rand::rngs::StdRng::seed_from_u64(11);
    let a = BitVec::random(bits, 0.5, &mut rng);
    let b = BitVec::random(bits, 0.5, &mut rng);
    (Arc::new(a), Arc::new(b))
}

fn measure_ambit(config: AmbitConfig, rounds: usize) -> Vec<f64> {
    let backend = AmbitBackend::new("ambit", config);
    let (a, b) = ambit_operands(backend.system(), rounds);
    let mut rt = Runtime::new().with(Box::new(backend));
    measure_ops(&mut rt, "ambit", &a, &b)
}

/// Runs the Ambit measurement workload (the exact loop [`run`] prices)
/// through the runtime with command tracing enabled; returns the spec
/// and the raw records.
pub fn captured_trace(
    config: AmbitConfig,
    rounds: usize,
) -> (DramSpec, Vec<pim_dram::TraceRecord>) {
    let backend = AmbitBackend::new("ambit", config);
    let (a, b) = ambit_operands(backend.system(), rounds);
    let mut rt = Runtime::new().with(Box::new(backend));
    rt.set_trace(true);
    let _ = measure_ops(&mut rt, "ambit", &a, &b);
    let (_, spec, records) = rt.take_traces().pop().expect("ambit trace");
    (spec, records)
}

/// Runs the Ambit measurement workload with telemetry **and** command
/// tracing enabled on the same run, returning the frozen snapshot plus
/// the raw trace: the snapshot's `ambit.dram.cmd.*` counters and the
/// oracle-validated trace must count the identical command stream (the
/// reconciliation `tests/telemetry.rs` enforces).
pub fn telemetry_capture(
    config: AmbitConfig,
    rounds: usize,
) -> (
    pim_telemetry::Snapshot,
    DramSpec,
    Vec<pim_dram::TraceRecord>,
) {
    let backend = AmbitBackend::new("ambit", config);
    let (a, b) = ambit_operands(backend.system(), rounds);
    let mut rt = Runtime::new().with(Box::new(backend));
    rt.set_trace(true);
    rt.set_telemetry(true);
    let _ = measure_ops(&mut rt, "ambit", &a, &b);
    let sink = rt.take_telemetry().expect("telemetry is enabled");
    let (_, spec, records) = rt.take_traces().pop().expect("ambit trace");
    let snap = pim_telemetry::Snapshot::from_sink(sink)
        .with_meta("experiment", "e1")
        .with_meta("backend", "ambit")
        .with_meta("rounds", rounds.to_string());
    (snap, spec, records)
}

/// The E1 telemetry snapshot (DDR3, 8 rounds — the headline config).
pub fn telemetry_snapshot() -> pim_telemetry::Snapshot {
    telemetry_capture(AmbitConfig::ddr3(), 8).0
}

/// Runs the experiment; `out_bytes` sizes the host-side kernels.
///
/// The five platform measurements are independent (each task builds its
/// own runtime), so they run concurrently on a multi-thread pool.
pub fn run(out_bytes: u64) -> Vec<PlatformThroughput> {
    // Ambit inside an HMC: 32 vaults modeled as 32 channels of the vault
    // organization (512 banks computing on 512 B rows).
    let hmc_ambit = AmbitConfig {
        spec: DramSpec::hmc_vault().with_channels(32),
        ..AmbitConfig::hmc_vault()
    };
    let tasks: Vec<Box<dyn FnOnce() -> PlatformThroughput + Send>> = vec![
        Box::new(move || PlatformThroughput {
            name: "skylake-cpu",
            gbps: {
                let mut rt = Runtime::new().with(Box::new(CpuBackend::new(
                    "cpu",
                    CpuModel::new(CpuConfig::skylake_ddr3()),
                )));
                let (a, b) = host_operands(out_bytes);
                measure_ops(&mut rt, "cpu", &a, &b)
            },
        }),
        Box::new(move || PlatformThroughput {
            name: "gtx745-gpu",
            gbps: {
                let mut rt = Runtime::new().with(Box::new(GpuBackend::gpu(
                    "gpu",
                    GpuModel::new(GpuConfig::gtx745()),
                )));
                let (a, b) = host_operands(out_bytes);
                measure_ops(&mut rt, "gpu", &a, &b)
            },
        }),
        Box::new(move || PlatformThroughput {
            name: "hmc-logic-layer",
            gbps: {
                let mut rt = Runtime::new().with(Box::new(HmcLogicBackend::hmc_logic(
                    "hmc-logic",
                    HmcLogicModel::new(HmcLogicConfig::hmc2()),
                )));
                let (a, b) = host_operands(out_bytes);
                measure_ops(&mut rt, "hmc-logic", &a, &b)
            },
        }),
        Box::new(|| PlatformThroughput {
            name: "ambit-ddr3-8banks",
            gbps: measure_ambit(AmbitConfig::ddr3(), 8),
        }),
        Box::new(move || PlatformThroughput {
            name: "ambit-hmc",
            gbps: measure_ambit(hmc_ambit, 4),
        }),
    ];
    crate::run_tasks(tasks)
}

/// Geomean ratio of two platforms' per-op throughputs.
pub fn avg_ratio(num: &PlatformThroughput, den: &PlatformThroughput) -> f64 {
    let ratios: Vec<f64> = num
        .gbps
        .iter()
        .zip(den.gbps.iter())
        .map(|(a, b)| a / b)
        .collect();
    geomean(&ratios).expect("platform throughputs are positive")
}

/// Renders the result table.
pub fn table() -> Table {
    let results = run(32 << 20);
    let mut cols: Vec<&str> = vec!["op"];
    for p in &results {
        cols.push(p.name);
    }
    let mut t = Table::new(
        "E1: bulk bitwise throughput (GB/s of output) — paper: Ambit-DDR3 = 44x CPU, 32x GPU",
        &cols,
    );
    for (i, op) in BulkOp::ALL.iter().enumerate() {
        let mut row: Vec<Value> = vec![op.to_string().into()];
        for p in &results {
            row.push(Value::Num(p.gbps[i]));
        }
        t.row(row);
    }
    let ambit = results
        .iter()
        .find(|p| p.name == "ambit-ddr3-8banks")
        .expect("ambit row");
    let mut ratio_row: Vec<Value> = vec!["geomean vs ambit-ddr3".into()];
    for p in &results {
        ratio_row.push(Value::Ratio(avg_ratio(ambit, p)));
    }
    t.row(ratio_row);
    t
}

/// A/B counterpart to the forced-placement table: submits each op as an
/// advised job to a runtime holding all four platforms and tabulates
/// which backend the offload advisor picked, with its cost estimates.
pub fn placement_table(objective: Objective) -> Table {
    let ambit = AmbitBackend::new("ambit-ddr3-8banks", AmbitConfig::ddr3());
    let bits = ambit.system().row_bits() * ambit.system().spec().org.total_banks() as usize;
    let mut rt = Runtime::new()
        .with(Box::new(CpuBackend::new(
            "skylake-cpu",
            CpuModel::new(CpuConfig::skylake_ddr3()),
        )))
        .with(Box::new(GpuBackend::gpu(
            "gtx745-gpu",
            GpuModel::new(GpuConfig::gtx745()),
        )))
        .with(Box::new(HmcLogicBackend::hmc_logic(
            "hmc-logic-layer",
            HmcLogicModel::new(HmcLogicConfig::hmc2()),
        )))
        .with(Box::new(ambit));
    let (a, b) = host_operands((bits / 8) as u64);
    let mut t = Table::new(
        "E1 advisor placement (--placement advised)",
        &["op", "chosen backend", "host ns", "pim ns"],
    );
    for &op in BulkOp::ALL.iter() {
        let rhs = if op.is_unary() { None } else { Some(b.clone()) };
        let id = rt
            .submit(Job::bulk(op, a.clone(), rhs), Placement::Advised(objective))
            .expect("submit");
        let d = rt.decision(id).expect("decision").clone();
        let (host_ns, pim_ns) = d
            .advised
            .map(|o| (Value::Num(o.host_time_ns), Value::Num(o.pim_time_ns)))
            .unwrap_or(("-".into(), "-".into()));
        t.row(vec![
            op.to_string().into(),
            d.backend.into(),
            host_ns,
            pim_ns,
        ]);
    }
    rt.drain().expect("drain");
    t
}

/// Cycle-domain profile of the advised E1 workload: the exact
/// submissions of [`placement_table`] rerun with profiling enabled, so
/// the exported `PIMPROF01` capture carries one timeline group per
/// backend the advisor used (queue/jobs lanes plus the Ambit device's
/// per-bank command lanes) and one [`JobRecord`](pim_profile::JobRecord)
/// per op with the advisor's estimates for calibration.
pub fn profile_capture(objective: Objective) -> pim_profile::Profile {
    let ambit = AmbitBackend::new("ambit-ddr3-8banks", AmbitConfig::ddr3());
    let bits = ambit.system().row_bits() * ambit.system().spec().org.total_banks() as usize;
    let mut rt = Runtime::new()
        .with(Box::new(CpuBackend::new(
            "skylake-cpu",
            CpuModel::new(CpuConfig::skylake_ddr3()),
        )))
        .with(Box::new(GpuBackend::gpu(
            "gtx745-gpu",
            GpuModel::new(GpuConfig::gtx745()),
        )))
        .with(Box::new(HmcLogicBackend::hmc_logic(
            "hmc-logic-layer",
            HmcLogicModel::new(HmcLogicConfig::hmc2()),
        )))
        .with(Box::new(ambit));
    rt.set_profile(true);
    let (a, b) = host_operands((bits / 8) as u64);
    for &op in BulkOp::ALL.iter() {
        let rhs = if op.is_unary() { None } else { Some(b.clone()) };
        rt.submit(Job::bulk(op, a.clone(), rhs), Placement::Advised(objective))
            .expect("submit");
    }
    rt.drain().expect("drain");
    rt.take_profile()
        .expect("profiling is enabled")
        .with_meta("experiment", "e1")
        .with_meta("placement", "advised")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn headline_ratios_land_near_the_paper() {
        let results = run(32 << 20);
        let by_name = |n: &str| results.iter().find(|p| p.name == n).unwrap();
        let ambit = by_name("ambit-ddr3-8banks");
        let cpu = by_name("skylake-cpu");
        let gpu = by_name("gtx745-gpu");
        let logic = by_name("hmc-logic-layer");
        let hmc_ambit = by_name("ambit-hmc");

        let vs_cpu = avg_ratio(ambit, cpu);
        assert!(
            (30.0..60.0).contains(&vs_cpu),
            "Ambit vs CPU {vs_cpu} (paper: 44x)"
        );
        let vs_gpu = avg_ratio(ambit, gpu);
        assert!(
            (20.0..45.0).contains(&vs_gpu),
            "Ambit vs GPU {vs_gpu} (paper: 32x)"
        );
        let hmc_ratio = avg_ratio(hmc_ambit, logic);
        assert!(
            (5.0..16.0).contains(&hmc_ratio),
            "Ambit-HMC vs logic {hmc_ratio} (paper: 9.7x)"
        );
        // Ordering: Ambit-HMC > Ambit-DDR3 > HMC-logic > GPU > CPU (geomean).
        let gm = |p: &PlatformThroughput| geomean(&p.gbps).unwrap();
        assert!(gm(hmc_ambit) > gm(ambit));
        assert!(gm(ambit) > gm(logic));
        assert!(gm(logic) > gm(gpu));
        assert!(gm(gpu) > gm(cpu));
    }

    #[test]
    fn table_renders() {
        let t = table();
        let md = t.to_markdown();
        assert!(md.contains("ambit-ddr3-8banks"));
        assert!(md.contains("xnor"));
    }

    #[test]
    fn org_flags_parse_and_reject_bad_shapes() {
        let args = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert_eq!(org_from_args(&args(&[])).unwrap(), None);
        assert_eq!(org_from_args(&args(&["--quietish"])).unwrap(), None);

        let spec = org_from_args(&args(&["--banks", "16"])).unwrap().unwrap();
        assert_eq!(spec.org.total_banks(), 16);
        let spec = org_from_args(&args(&["--org", "4x4x16"])).unwrap().unwrap();
        assert_eq!(
            (spec.org.channels, spec.org.ranks, spec.org.banks),
            (4, 4, 16)
        );
        assert_eq!(spec.org.total_banks(), 256);
        // Last flag wins.
        let spec = org_from_args(&args(&["--org", "4x4x16", "--banks", "8"]))
            .unwrap()
            .unwrap();
        assert_eq!(spec.org.total_banks(), 8);

        assert_eq!(
            org_from_args(&args(&["--banks"])),
            Err(OrgArgError::MissingValue("--banks"))
        );
        assert_eq!(
            org_from_args(&args(&["--banks", "lots"])),
            Err(OrgArgError::Malformed("--banks", "lots".into()))
        );
        assert_eq!(
            org_from_args(&args(&["--org", "4x4"])),
            Err(OrgArgError::Malformed("--org", "4x4".into()))
        );
        // A parseable but illegal shape surfaces the spec's own error,
        // typed, instead of panicking.
        assert!(matches!(
            org_from_args(&args(&["--org", "3x1x8"])),
            Err(OrgArgError::Spec(_))
        ));
        assert!(matches!(
            org_from_args(&args(&["--banks", "0"])),
            Err(OrgArgError::Spec(_))
        ));
    }

    #[test]
    fn swept_org_scales_throughput_with_bank_count() {
        let spec = org_from_args(&["--org".to_string(), "2x2x8".to_string()])
            .unwrap()
            .unwrap();
        let t = custom_org_table(spec);
        let md = t.to_markdown();
        assert!(md.contains("2ch x 2ra x 8ba (32 banks)"), "{md}");
        // 4x the banks of the default device: every op's throughput must
        // scale well past 2x.
        let last = t.rows().last().unwrap();
        let geomean_ratio = match last[3] {
            Value::Ratio(v) => v,
            ref other => panic!("unexpected cell {other:?}"),
        };
        assert!(geomean_ratio > 2.0, "32-bank scaling {geomean_ratio}");
    }

    #[test]
    fn advisor_offloads_bulk_bitwise_to_a_pim_backend() {
        let t = placement_table(Objective::Time);
        let md = t.to_markdown();
        // A row-sized bulk bitwise kernel is exactly the workload the
        // paper builds Ambit for; the advisor must not keep it on host.
        assert!(md.contains("ambit") || md.contains("hmc"), "{md}");
    }
}
