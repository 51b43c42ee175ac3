//! Bit-for-bit pins of every roofline site's pricing.
//!
//! Each host-side site (CPU, graph-enabled CPU, GPU, HMC logic layer,
//! and the E6 stream sites) is crossed with each job kind. For every
//! pair the table below pins `supports`, the advisor `estimate` (ns and
//! per-component energy as `f64::to_bits`), and the drained report (ns,
//! energy, `bytes_out`). Every drained output must also equal the
//! functional oracle computed from the job alone (`eval_cpu_multi`,
//! `eval_reference`, the hashed-partition graph kernel), whatever site
//! ran it.

use pim_core::{ConsumerSystemConfig, PimSite};
use pim_host::{CpuConfig, CpuModel, GpuConfig, GpuModel, HmcLogicConfig, HmcLogicModel};
use pim_runtime::{
    Backend, CpuBackend, GpuBackend, HmcLogicBackend, Job, JobOutput, RuntimeError,
    StreamSiteBackend, StreamSiteConfig,
};
use pim_simd::{Compiler, OpGraph};
use pim_tesseract::{engine::run_kernel, HostGraphConfig, VertexPartition};
use pim_workloads::{BitSlicedIntVec, BitVec, BulkOp, Graph, KernelKind, PlanBuilder};
use std::fmt::Write;
use std::sync::Arc;

const VAULTS: u32 = 16;

fn sites() -> Vec<Box<dyn Backend>> {
    let cpu = || CpuModel::new(CpuConfig::skylake_ddr3());
    let soc = ConsumerSystemConfig::mobile_soc();
    vec![
        Box::new(CpuBackend::new("cpu", cpu())),
        Box::new(
            CpuBackend::new("cpu-graph", cpu()).with_graph(HostGraphConfig::ddr3_ooo(), VAULTS),
        ),
        Box::new(GpuBackend::gpu("gpu", GpuModel::new(GpuConfig::gtx745()))),
        Box::new(HmcLogicBackend::hmc_logic(
            "hmc-logic",
            HmcLogicModel::new(HmcLogicConfig::hmc2()),
        )),
        Box::new(StreamSiteBackend::new(
            "stream-host",
            StreamSiteConfig::host(&soc),
            true,
        )),
        Box::new(StreamSiteBackend::new(
            "stream-core",
            StreamSiteConfig::pim(&soc, PimSite::Core),
            false,
        )),
        Box::new(StreamSiteBackend::new(
            "stream-accel",
            StreamSiteConfig::pim(&soc, PimSite::Accelerator),
            false,
        )),
    ]
}

fn patterned(bits: usize, salt: u64) -> Arc<BitVec> {
    Arc::new(BitVec::from_fn(bits, |i| {
        (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15 ^ salt) & 4 != 0
    }))
}

/// One job of every kind, with lengths that are not word multiples.
fn jobs() -> Vec<(&'static str, Job)> {
    let bits = 4099;
    let single = Job::bulk(BulkOp::Xor, patterned(bits, 1), Some(patterned(bits, 2)));

    let mut pb = PlanBuilder::new(3);
    let (a, b, c) = (pb.input(0), pb.input(1), pb.input(2));
    let x = pb.binary(BulkOp::And, a, b);
    let m = pb.maj(x, b, c);
    let k = pb.constant(true);
    let y = pb.binary(BulkOp::Xor, m, k);
    let n = pb.not(y);
    let multi = Job::Bitwise {
        plan: pb.finish_multi(vec![n, x]),
        inputs: vec![patterned(bits, 3), patterned(bits, 4), patterned(bits, 5)],
    };

    let edges: Vec<(u32, u32)> = (0..40u32)
        .flat_map(|i| [(i, (i + 1) % 40), (i, (i * 7 + 3) % 40)])
        .collect();
    let graph = Job::GraphBatch {
        kernel: KernelKind::PageRank,
        graph: Arc::new(Graph::from_edges(40, &edges)),
    };

    let mut g = OpGraph::builder();
    let a = g.input(8);
    let b = g.input(8);
    let sum = g.add(a, b);
    let lt = g.lt(a, b);
    g.output(sum);
    g.output(lt);
    let program = Arc::new(Compiler::new().compile(&g.finish()).expect("compile"));
    let av: Vec<u64> = (0..300u64).map(|i| i.wrapping_mul(37) & 0xFF).collect();
    let bv: Vec<u64> = (0..300u64).map(|i| i.wrapping_mul(101) & 0xFF).collect();
    let simd = Job::SimdProgram {
        program,
        inputs: vec![
            Arc::new(BitSlicedIntVec::from_values(&av, 8)),
            Arc::new(BitSlicedIntVec::from_values(&bv, 8)),
        ],
    };

    vec![
        ("bitwise-op", single),
        ("bitwise-plan", multi),
        (
            "row-copy",
            Job::RowCopy {
                data: patterned(5000, 6),
                psm: false,
            },
        ),
        (
            "row-init",
            Job::RowInit {
                bits: 777,
                ones: true,
            },
        ),
        (
            "stream",
            Job::Stream {
                bytes: 1.5e6,
                ops: 2.5e5,
            },
        ),
        ("graph", graph),
        ("simd", simd),
    ]
}

/// The functional result of `job`, computed from the job alone.
fn oracle(job: &Job) -> JobOutput {
    match job {
        Job::Bitwise { plan, inputs } => {
            let refs: Vec<&BitVec> = inputs.iter().map(|v| v.as_ref()).collect();
            let mut outs = plan.eval_cpu_multi(&refs);
            if outs.len() == 1 {
                JobOutput::Bits(outs.swap_remove(0))
            } else {
                JobOutput::MultiBits(outs)
            }
        }
        Job::RowCopy { data, .. } => JobOutput::Bits(data.as_ref().clone()),
        Job::RowInit { bits, ones } => JobOutput::Bits(if *ones {
            BitVec::ones(*bits)
        } else {
            BitVec::zeros(*bits)
        }),
        Job::Stream { .. } => JobOutput::None,
        Job::GraphBatch { kernel, graph } => {
            let (output, trace) = run_kernel(*kernel, graph, &VertexPartition::hashed(VAULTS));
            JobOutput::Graph(Box::new(pim_runtime::GraphRun { output, trace }))
        }
        Job::SimdProgram { program, inputs } => {
            let values: Vec<Vec<u64>> = inputs.iter().map(|v| v.to_values()).collect();
            let refs: Vec<&[u64]> = values.iter().map(|v| v.as_slice()).collect();
            let graph = program.source_graph();
            let outs = graph.eval_reference(&refs);
            JobOutput::Sliced(
                outs.iter()
                    .zip(graph.output_widths())
                    .map(|(vals, w)| BitSlicedIntVec::from_values(vals, w))
                    .collect(),
            )
        }
    }
}

fn energy_bits(e: &pim_energy::EnergyBreakdown) -> String {
    let parts: Vec<String> = e
        .iter()
        .filter(|(_, nj)| *nj != 0.0)
        .map(|(c, nj)| format!("{c}={:016x}", nj.to_bits()))
        .collect();
    format!("[{}]", parts.join(" "))
}

/// Runs `job` on a fresh `site` and renders one pin line, checking the
/// output against the oracle on the way.
fn pin(site: &mut dyn Backend, kind: &str, job: &Job) -> String {
    let name = site.name().to_string();
    let mut line = format!("{name} {kind}:");
    if !site.supports(job) {
        let unsupported = RuntimeError::Unsupported {
            backend: name.clone(),
            job: job.kind(),
        };
        assert_eq!(site.estimate(job).unwrap_err(), unsupported);
        assert_eq!(site.submit(0, job.clone()).unwrap_err(), unsupported);
        line.push_str(" unsupported");
        return line;
    }
    let est = site.estimate(job).expect("supported jobs have an estimate");
    write!(
        line,
        " est {:016x} {}",
        est.ns.to_bits(),
        energy_bits(&est.energy)
    )
    .unwrap();

    site.submit(7, job.clone()).expect("supported jobs submit");
    site.drain().expect("roofline sites never fail a drain");
    let mut done = site.poll();
    assert_eq!(done.len(), 1, "{name} {kind}");
    let c = done.remove(0);
    assert_eq!(c.id, 7);
    assert_eq!(c.report.backend, name);
    assert_eq!(c.report.commands, None, "{name} {kind}");
    assert_eq!(c.output, oracle(job), "{name} {kind} output");
    write!(
        line,
        " run {:016x} {} out {}",
        c.report.ns.to_bits(),
        energy_bits(&c.report.energy),
        c.report.bytes_out
    )
    .unwrap();
    line
}

#[test]
fn roofline_pricing_is_pinned_bit_for_bit() {
    let jobs = jobs();
    let mut actual = Vec::new();
    for probe in sites() {
        actual.push(format!(
            "{} host={} domains={}",
            probe.name(),
            probe.is_host(),
            probe.channel_domains()
        ));
        for (kind, job) in &jobs {
            let mut site = sites()
                .into_iter()
                .find(|s| s.name() == probe.name())
                .expect("same site list");
            actual.push(pin(site.as_mut(), kind, job));
        }
    }
    let expected: Vec<&str> = EXPECTED
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty())
        .collect();
    assert!(
        actual == expected,
        "roofline pricing moved; actual table:\n{}",
        actual.join("\n")
    );
}

const EXPECTED: &str = "
cpu host=true domains=1
cpu bitwise-op: est 4062dc3c3c3c3c3d [other=40534e872b020c49] run 4061ae7878787878 [dram-act=3fe33ccccccccccd dram-col=403530f999999999 dram-io=40480c0000000000 cache=4041666666666666 core=4040000000000000] out 513
cpu bitwise-plan: est 40846e9696969697 [other=40756045a1cac083] run 408327ad2d2d2d2d [dram-act=4004d73333333334 dram-col=4056f50e66666667 dram-io=406a0d0000000000 cache=4062d99999999999 core=4070800000000000] out 2565
cpu row-copy: est 405efafafafafafc [other=404e889374bc6a7f] run 405d0b4b4b4b4b4b [dram-act=3fdf99999999999a dram-col=4031679999999999 dram-io=4043c00000000000 cache=403b8ccccccccccc core=4033800000000000] out 632
cpu row-init: est 4023373737373738 [other=401505604189374b] run 402203c3c3c3c3c3 [dram-act=3fa399999999999a dram-col=3ff5973333333333 dram-io=4008800000000000 cache=3ff7333333333333 core=4008000000000000] out 98
cpu stream: est 4101f39696969697 [other=40fa1f8000000000] run 4100d45d2d2d2d2d [dram-act=40824f8000000000 dram-col=40d42b9300000000 dram-io=40e6e36000000000 cache=40e097f4cccccccd core=40fe848000000000] out 0
cpu graph: unsupported
cpu simd: est 40558da5a5a5a5a5 [dram-act=3fd7733333333334 dram-col=4029d4e666666666 dram-io=403d500000000000 cache=40344ccccccccccd core=4062c00000000000] run 40558da5a5a5a5a5 [dram-act=3fd7733333333334 dram-col=4029d4e666666666 dram-io=403d500000000000 cache=40344ccccccccccd core=4062c00000000000] out 338
cpu-graph host=true domains=1
cpu-graph bitwise-op: est 4062dc3c3c3c3c3d [other=40534e872b020c49] run 4061ae7878787878 [dram-act=3fe33ccccccccccd dram-col=403530f999999999 dram-io=40480c0000000000 cache=4041666666666666 core=4040000000000000] out 513
cpu-graph bitwise-plan: est 40846e9696969697 [other=40756045a1cac083] run 408327ad2d2d2d2d [dram-act=4004d73333333334 dram-col=4056f50e66666667 dram-io=406a0d0000000000 cache=4062d99999999999 core=4070800000000000] out 2565
cpu-graph row-copy: est 405efafafafafafc [other=404e889374bc6a7f] run 405d0b4b4b4b4b4b [dram-act=3fdf99999999999a dram-col=4031679999999999 dram-io=4043c00000000000 cache=403b8ccccccccccc core=4033800000000000] out 632
cpu-graph row-init: est 4023373737373738 [other=401505604189374b] run 402203c3c3c3c3c3 [dram-act=3fa399999999999a dram-col=3ff5973333333333 dram-io=4008800000000000 cache=3ff7333333333333 core=4008000000000000] out 98
cpu-graph stream: est 4101f39696969697 [other=40fa1f8000000000] run 4100d45d2d2d2d2d [dram-act=40824f8000000000 dram-col=40d42b9300000000 dram-io=40e6e36000000000 cache=40e097f4cccccccd core=40fe848000000000] out 0
cpu-graph graph: est 405f5f5f5f5f5f60 [other=4052dc28f5c28f5c] run 4066536db6db6db9 [dram-act=4014000000000000 dram-col=4065b80000000000 dram-io=4079000000000000 cache=4064a00000000000 core=40b4500000000000] out 0
cpu-graph simd: est 40558da5a5a5a5a5 [dram-act=3fd7733333333334 dram-col=4029d4e666666666 dram-io=403d500000000000 cache=40344ccccccccccd core=4062c00000000000] run 40558da5a5a5a5a5 [dram-act=3fd7733333333334 dram-col=4029d4e666666666 dram-io=403d500000000000 cache=40344ccccccccccd core=4062c00000000000] out 338
gpu host=false domains=1
gpu bitwise-op: est 404e0f0000000000 [other=4048b5c28f5c28f6] run 40584a2e8ba2e8b9 [dram-act=40033ccccccccccd dram-col=403530f999999999 dram-io=40480c0000000000 core=40447ae147ae147b] out 513
gpu bitwise-plan: unsupported
gpu row-copy: unsupported
gpu row-init: unsupported
gpu stream: unsupported
gpu graph: unsupported
gpu simd: unsupported
hmc-logic host=false domains=1
hmc-logic bitwise-op: est 40133ccccccccccd [other=402b395810624dd3] run 4015600000000000 [dram-act=4015a46666666667 dram-col=4028f2d99999999a dram-io=40180c0000000000 core=400eb851eb851eb8 tsv=4013b2fec56d5cfb] out 513
hmc-logic bitwise-plan: unsupported
hmc-logic row-copy: unsupported
hmc-logic row-init: unsupported
hmc-logic stream: unsupported
hmc-logic graph: unsupported
hmc-logic simd: unsupported
stream-host host=true domains=1
stream-host bitwise-op: unsupported
stream-host bitwise-plan: unsupported
stream-host row-copy: unsupported
stream-host row-init: unsupported
stream-host stream: est 4101f39696969697 [dram-io=40ef7e8000000001 cache=40d4c08000000000 core=40d4c08000000000] run 4101f39696969697 [dram-io=40ef7e8000000001 cache=40d4c08000000000 core=40d4c08000000000] out 1500000
stream-host graph: unsupported
stream-host simd: unsupported
stream-core host=false domains=1
stream-core bitwise-op: unsupported
stream-core bitwise-plan: unsupported
stream-core row-copy: unsupported
stream-core row-init: unsupported
stream-core stream: est 40e6e36000000000 [cache=40ad4c0000000000 core=40c86a0000000000 tsv=40d30b0000000000] run 40e6e36000000000 [cache=40ad4c0000000000 core=40c86a0000000000 tsv=40d30b0000000000] out 1500000
stream-core graph: unsupported
stream-core simd: unsupported
stream-accel host=false domains=1
stream-accel bitwise-op: unsupported
stream-accel bitwise-plan: unsupported
stream-accel row-copy: unsupported
stream-accel row-init: unsupported
stream-accel stream: est 40e6e36000000000 [cache=40ad4c0000000000 core=40a7700000000000 tsv=40d30b0000000000] run 40e6e36000000000 [cache=40ad4c0000000000 core=40a7700000000000 tsv=40d30b0000000000] out 1500000
stream-accel graph: unsupported
stream-accel simd: unsupported
";
