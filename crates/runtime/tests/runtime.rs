//! Integration tests for the batching runtime: coalescing identity,
//! advised placement, forced placement, backpressure, and graph jobs.

use pim_core::{ConsumerSystemConfig, Objective, PimSite};
use pim_energy::Component;
use pim_host::{CpuConfig, CpuModel, GpuConfig, GpuModel};
use pim_runtime::{
    AmbitBackend, Backend, CpuBackend, GpuBackend, Job, JobOutput, Placement, Runtime,
    RuntimeError, StreamSiteBackend, StreamSiteConfig, TesseractBackend,
};
use pim_tesseract::{HostGraphConfig, TesseractConfig, TesseractSim};
use pim_workloads::{BitVec, BulkOp, Graph, KernelKind, PlanBuilder};
use std::sync::Arc;

use pim_ambit::{AmbitConfig, AmbitSystem};

fn ambit_runtime(config: AmbitConfig) -> Runtime {
    Runtime::new().with(Box::new(AmbitBackend::new("ambit", config)))
}

fn patterned(bits: usize, salt: u64) -> Arc<BitVec> {
    Arc::new(BitVec::from_fn(bits, |i| {
        (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15 ^ salt) & 4 != 0
    }))
}

/// A mixed batch of jobs exercising every Ambit dispatch path.
fn mixed_jobs(row_bits: usize) -> Vec<Job> {
    let mut jobs = Vec::new();
    // Coalescible: same-op small jobs, including non-row and non-word
    // aligned lengths.
    for (i, bits) in [row_bits, 1000, row_bits * 2, 77, row_bits / 2]
        .iter()
        .enumerate()
    {
        let a = patterned(*bits, i as u64);
        let b = patterned(*bits, 100 + i as u64);
        jobs.push(Job::bulk(BulkOp::And, a, Some(b)));
    }
    // A different op — separate group.
    jobs.push(Job::bulk(
        BulkOp::Or,
        patterned(2000, 7),
        Some(patterned(2000, 8)),
    ));
    // Unary.
    jobs.push(Job::bulk(BulkOp::Not, patterned(row_bits, 9), None));
    // Multi-step plan — individual dispatch.
    let mut pb = PlanBuilder::new(2);
    let x = pb.binary(BulkOp::Xor, pb.input(0), pb.input(1));
    let y = pb.not(x);
    jobs.push(Job::Bitwise {
        plan: pb.finish(y),
        inputs: vec![patterned(row_bits, 10), patterned(row_bits, 11)],
    });
    // RowClone jobs — individual dispatch.
    jobs.push(Job::RowCopy {
        data: patterned(3 * row_bits / 2, 12),
        psm: false,
    });
    jobs.push(Job::RowInit {
        bits: 500,
        ones: true,
    });
    jobs
}

/// The tentpole invariant: a batched (coalesced) drain produces
/// byte-identical outputs *and reports* to one-job-at-a-time dispatch.
#[test]
fn batched_dispatch_matches_sequential() {
    let row_bits = AmbitSystem::new(AmbitConfig::ddr3()).row_bits();
    let jobs = mixed_jobs(row_bits);

    let mut batched = ambit_runtime(AmbitConfig::ddr3());
    for job in &jobs {
        batched
            .submit(job.clone(), Placement::Forced("ambit".into()))
            .unwrap();
    }
    let batched_done = batched.drain().unwrap();

    let mut sequential = ambit_runtime(AmbitConfig::ddr3());
    let mut sequential_done = Vec::new();
    for job in &jobs {
        sequential
            .submit(job.clone(), Placement::Forced("ambit".into()))
            .unwrap();
        sequential_done.extend(sequential.drain().unwrap());
    }

    assert_eq!(batched_done.len(), jobs.len());
    assert_eq!(batched_done, sequential_done);
}

/// Coalesced members are written straight into rows a previous group left
/// dirty: a first drain stages ones-dense payloads, a second stages shorter
/// ragged members over those freed rows. Outputs and reports must match
/// one-job-per-drain dispatch and the CPU datapath.
#[test]
fn coalesced_staging_over_dirty_rows_matches_sequential() {
    let row_bits = AmbitSystem::new(AmbitConfig::ddr3()).row_bits();
    let ones = |bits| Arc::new(BitVec::ones(bits));
    let dense: Vec<Job> = [row_bits * 2, row_bits, 3 * row_bits / 2]
        .into_iter()
        .map(|bits| Job::bulk(BulkOp::Or, ones(bits), Some(ones(bits))))
        .chain([Job::bulk(BulkOp::Not, ones(row_bits), None)])
        .collect();
    let ragged: Vec<Job> = [77, 1000, row_bits / 2 + 3, 65]
        .into_iter()
        .enumerate()
        .map(|(i, bits)| {
            let a = patterned(bits, i as u64);
            let b = patterned(bits, 20 + i as u64);
            Job::bulk(BulkOp::Or, a, Some(b))
        })
        .chain([Job::bulk(BulkOp::Not, patterned(333, 9), None)])
        .collect();

    let mut batched = ambit_runtime(AmbitConfig::ddr3());
    let mut batched_done = Vec::new();
    for phase in [&dense, &ragged] {
        for job in phase {
            batched
                .submit(job.clone(), Placement::Forced("ambit".into()))
                .unwrap();
        }
        batched_done.extend(batched.drain().unwrap());
    }

    let mut sequential = ambit_runtime(AmbitConfig::ddr3());
    let mut sequential_done = Vec::new();
    for job in dense.iter().chain(&ragged) {
        sequential
            .submit(job.clone(), Placement::Forced("ambit".into()))
            .unwrap();
        sequential_done.extend(sequential.drain().unwrap());
    }

    assert_eq!(batched_done, sequential_done);
    for (c, job) in batched_done.iter().zip(dense.iter().chain(&ragged)) {
        let Job::Bitwise { plan, inputs } = job else {
            unreachable!("bulk jobs are bitwise")
        };
        let refs: Vec<&BitVec> = inputs.iter().map(|v| v.as_ref()).collect();
        assert_eq!(
            c.output.bits().unwrap(),
            &plan.eval_cpu(&refs),
            "job {}",
            c.id
        );
    }
}

/// Functional correctness of the coalesced path against the CPU datapath.
#[test]
fn coalesced_outputs_match_cpu_eval() {
    let mut rt = ambit_runtime(AmbitConfig::ddr3());
    let pairs: Vec<_> = (0..6)
        .map(|i| {
            (
                patterned(1000 + 37 * i, i as u64),
                patterned(1000 + 37 * i, 50 + i as u64),
            )
        })
        .collect();
    for (a, b) in &pairs {
        rt.submit(
            Job::bulk(BulkOp::Xor, a.clone(), Some(b.clone())),
            Placement::Forced("ambit".into()),
        )
        .unwrap();
    }
    let done = rt.drain().unwrap();
    for (c, (a, b)) in done.iter().zip(&pairs) {
        assert_eq!(
            c.output.bits().unwrap(),
            &a.binary(BulkOp::Xor, b),
            "job {}",
            c.id
        );
    }
}

/// A coalesced-path (group of one) report equals the engine's own direct
/// execute report: same cycles-derived ns, commands, energy, bytes.
#[test]
fn group_of_one_report_matches_direct_execute() {
    let bits = 3000;
    let a = patterned(bits, 1);
    let b = patterned(bits, 2);

    let mut rt = ambit_runtime(AmbitConfig::ddr3());
    let id = rt
        .submit(
            Job::bulk(BulkOp::And, a.clone(), Some(b.clone())),
            Placement::Forced("ambit".into()),
        )
        .unwrap();
    let done = rt.drain().unwrap();
    let c = &done[0];
    assert_eq!(c.id, id);

    let mut sys = AmbitSystem::new(AmbitConfig::ddr3());
    let va = sys.alloc(bits).unwrap();
    let vb = sys.alloc(bits).unwrap();
    let vo = sys.alloc(bits).unwrap();
    sys.write(&va, &a).unwrap();
    sys.write(&vb, &b).unwrap();
    let direct = sys.execute(BulkOp::And, &va, Some(&vb), &vo).unwrap();

    assert_eq!(c.output.bits().unwrap(), &sys.read(&vo));
    assert_eq!(c.report.ns, direct.ns);
    assert_eq!(c.report.bytes_out, direct.bytes_out);
    assert_eq!(c.report.energy, direct.energy);
    assert_eq!(
        c.report.commands.as_ref().unwrap().total(),
        direct.commands.total()
    );
}

/// Fault-injecting devices skip coalescing but batched and sequential
/// dispatch still agree (the fault RNG is keyed on absolute chunk
/// indices, which the individual path reproduces).
#[test]
fn faulty_device_still_deterministic() {
    let config = || {
        let mut c = AmbitConfig::ddr3();
        c.tra_failure_rate = 0.2;
        c.fault_seed = 99;
        c
    };
    let jobs: Vec<_> = (0..4)
        .map(|i| Job::bulk(BulkOp::And, patterned(900, i), Some(patterned(900, 10 + i))))
        .collect();

    let mut batched = ambit_runtime(config());
    for job in &jobs {
        batched
            .submit(job.clone(), Placement::Forced("ambit".into()))
            .unwrap();
    }
    let batched_done = batched.drain().unwrap();

    let mut sequential = ambit_runtime(config());
    let mut sequential_done = Vec::new();
    for job in &jobs {
        sequential
            .submit(job.clone(), Placement::Forced("ambit".into()))
            .unwrap();
        sequential_done.extend(sequential.drain().unwrap());
    }
    assert_eq!(batched_done, sequential_done);
}

/// Backpressure: QueueFull at capacity, accepted again after a drain.
#[test]
fn queue_full_is_not_sticky_through_runtime() {
    let mut rt = Runtime::new().with(Box::new(AmbitBackend::with_capacity(
        "ambit",
        AmbitConfig::ddr3(),
        2,
    )));
    let job = || Job::RowInit {
        bits: 128,
        ones: false,
    };
    rt.submit(job(), Placement::Forced("ambit".into())).unwrap();
    rt.submit(job(), Placement::Forced("ambit".into())).unwrap();
    let err = rt
        .submit(job(), Placement::Forced("ambit".into()))
        .unwrap_err();
    assert_eq!(
        err,
        RuntimeError::QueueFull {
            backend: "ambit".into(),
            capacity: 2
        }
    );
    assert_eq!(rt.drain().unwrap().len(), 2);
    rt.submit(job(), Placement::Forced("ambit".into()))
        .expect("accepts again after drain");
    let stats = rt.stats();
    assert_eq!(stats[0].submitted, 3);
    assert_eq!(stats[0].completed, 2);
    assert_eq!(stats[0].queue_depth, 1);
}

/// RowClone jobs round-trip through the Ambit backend.
#[test]
fn rowclone_jobs_round_trip() {
    let mut rt = ambit_runtime(AmbitConfig::ddr3());
    let data = patterned(5000, 3);
    let copy = rt
        .submit(
            Job::RowCopy {
                data: data.clone(),
                psm: true,
            },
            Placement::Forced("ambit".into()),
        )
        .unwrap();
    let init = rt
        .submit(
            Job::RowInit {
                bits: 777,
                ones: true,
            },
            Placement::Forced("ambit".into()),
        )
        .unwrap();
    let done = rt.drain().unwrap();
    assert_eq!(done[0].id, copy);
    assert_eq!(done[0].output.bits().unwrap(), data.as_ref());
    assert_eq!(done[1].id, init);
    assert_eq!(done[1].output.bits().unwrap(), &BitVec::ones(777));
    assert!(done[1].report.ns > 0.0);
}

/// A job that runs out of rows gives its staged rows back: on a device
/// with eight data rows, a five-row copy fails (its destination does not
/// fit next to its source), and a four-row copy that needs all eight
/// rows runs afterwards.
#[test]
fn out_of_rows_job_leaves_the_device_usable() {
    let mut config = AmbitConfig::ddr3();
    config.spec.org.channels = 1;
    config.spec.org.banks = 1;
    config.spec.org.subarrays = 1;
    config.spec.org.rows = 16;
    let row_bits = config.spec.org.row_bits() as usize;
    let mut rt = ambit_runtime(config);
    let copy = |data: Arc<BitVec>| Job::RowCopy { data, psm: false };

    rt.submit(
        copy(patterned(5 * row_bits, 1)),
        Placement::Forced("ambit".into()),
    )
    .unwrap();
    let err = rt.drain().unwrap_err();
    assert!(
        matches!(&err, RuntimeError::Engine { message, .. } if message.contains("rows exhausted")),
        "{err}"
    );

    let data = patterned(4 * row_bits, 2);
    rt.submit(copy(data.clone()), Placement::Forced("ambit".into()))
        .unwrap();
    let done = rt.drain().expect("the fitting job runs");
    assert_eq!(done[0].output.bits().unwrap(), data.as_ref());
}

/// A multi-step plan that runs out of rows gives back every register it
/// held: on the same eight-row device, two inputs and seven live `a ^ b`
/// registers do not fit, and a three-row plan runs afterwards.
#[test]
fn out_of_rows_plan_leaves_the_device_usable() {
    let mut config = AmbitConfig::ddr3();
    config.spec.org.channels = 1;
    config.spec.org.banks = 1;
    config.spec.org.subarrays = 1;
    config.spec.org.rows = 16;
    let row_bits = config.spec.org.row_bits() as usize;
    let mut rt = ambit_runtime(config);
    let (a, b) = (patterned(row_bits, 1), patterned(row_bits, 2));

    let mut pb = PlanBuilder::new(2);
    let live: Vec<_> = (0..7)
        .map(|_| pb.binary(BulkOp::Xor, pb.input(0), pb.input(1)))
        .collect();
    let folded = live[1..]
        .iter()
        .fold(live[0], |acc, &r| pb.binary(BulkOp::And, acc, r));
    let too_wide = Job::Bitwise {
        plan: pb.finish(folded),
        inputs: vec![a.clone(), b.clone()],
    };
    rt.submit(too_wide, Placement::Forced("ambit".into()))
        .unwrap();
    let err = rt.drain().unwrap_err();
    assert!(
        matches!(&err, RuntimeError::Engine { message, .. } if message.contains("rows exhausted")),
        "{err}"
    );

    let mut pb = PlanBuilder::new(2);
    let x = pb.binary(BulkOp::Xor, pb.input(0), pb.input(1));
    let y = pb.not(x);
    rt.submit(
        Job::Bitwise {
            plan: pb.finish(y),
            inputs: vec![a.clone(), b.clone()],
        },
        Placement::Forced("ambit".into()),
    )
    .unwrap();
    let done = rt.drain().expect("the fitting plan runs");
    assert_eq!(
        done[0].output.bits().unwrap(),
        &a.binary(BulkOp::Xor, &b).not()
    );
}

/// Advised placement offloads memory-bound work and keeps compute-bound
/// work on the host.
#[test]
fn advisor_places_both_directions() {
    let consumer = ConsumerSystemConfig::mobile_soc();
    // A deliberately weak PIM compute site: plenty of bandwidth, almost
    // no compute, so ops-heavy jobs stay home.
    let weak_pim = StreamSiteConfig {
        gops: 0.5,
        ..StreamSiteConfig::pim(&consumer, PimSite::Core)
    };
    let mut rt = Runtime::new()
        .with(Box::new(StreamSiteBackend::new(
            "host",
            StreamSiteConfig::host(&consumer),
            true,
        )))
        .with(Box::new(StreamSiteBackend::new("pim", weak_pim, false)));

    // Memory-bound: 1 MB moved, 1 Kop — PIM's 32 GB/s wins.
    let mem = rt
        .submit(
            Job::Stream {
                bytes: 1e6,
                ops: 1e3,
            },
            Placement::Advised(Objective::Time),
        )
        .unwrap();
    // Compute-bound: 1 KB moved, 1 Gop — the weak PIM core loses.
    let cpu = rt
        .submit(
            Job::Stream {
                bytes: 1e3,
                ops: 1e9,
            },
            Placement::Advised(Objective::Time),
        )
        .unwrap();
    let mem_decision = rt.decision(mem).unwrap().clone();
    let cpu_decision = rt.decision(cpu).unwrap().clone();
    assert_eq!(mem_decision.backend, "pim");
    assert!(mem_decision.advised.unwrap().offload);
    assert_eq!(cpu_decision.backend, "host");
    assert!(cpu_decision.advised.is_none());

    let done = rt.drain().unwrap();
    assert_eq!(done[0].report.backend, "pim");
    assert_eq!(done[1].report.backend, "host");
    // Stream sites resolve energy per component.
    assert!(done[0].report.energy.get(Component::Tsv) > 0.0);
    assert!(done[1].report.energy.get(Component::DramIo) > 0.0);
}

/// Channel-domain capacity is advisor-visible: BackendStats and
/// PlacementDecision report each backend's shard-domain count (DRAM
/// channels for Ambit, stacks for Tesseract, 1 for unsharded backends).
#[test]
fn channel_domains_surface_in_stats_and_decisions() {
    let mut four_ch = AmbitConfig::ddr3();
    four_ch.spec = four_ch.spec.with_channels(4);
    let mut rt = Runtime::new()
        .with(Box::new(AmbitBackend::new("ambit", four_ch)))
        .with(Box::new(TesseractBackend::new(
            "tesseract",
            TesseractConfig::isca2015(),
        )))
        .with(Box::new(CpuBackend::new(
            "cpu",
            CpuModel::new(CpuConfig::skylake_ddr3()),
        )));

    let stats = rt.stats();
    let domains: Vec<(&str, usize)> = stats
        .iter()
        .map(|s| (s.name.as_str(), s.channel_domains))
        .collect();
    assert_eq!(
        domains,
        [("ambit", 4), ("tesseract", 16), ("cpu", 1)],
        "channel domains must mirror spec channels / config stacks"
    );

    // A forced placement records the capacity the decision bought.
    let row_bits = AmbitSystem::new(AmbitConfig::ddr3()).row_bits();
    let id = rt
        .submit(
            Job::bulk(
                BulkOp::And,
                patterned(row_bits, 1),
                Some(patterned(row_bits, 2)),
            ),
            Placement::Forced("ambit".into()),
        )
        .unwrap();
    assert_eq!(rt.decision(id).unwrap().channel_domains, 4);
    rt.drain().unwrap();
}

/// Placement errors: unknown names, unsupported jobs, no backend at all.
#[test]
fn placement_errors() {
    let mut rt = Runtime::new().with(Box::new(CpuBackend::new(
        "cpu",
        CpuModel::new(CpuConfig::skylake_ddr3()),
    )));
    let stream = Job::Stream {
        bytes: 1e6,
        ops: 1e3,
    };
    assert_eq!(
        rt.submit(stream.clone(), Placement::Forced("gpu".into()))
            .unwrap_err(),
        RuntimeError::UnknownBackend { name: "gpu".into() }
    );
    let graph = Job::GraphBatch {
        kernel: KernelKind::PageRank,
        graph: Arc::new(Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)])),
    };
    // The CPU backend only accepts graph jobs when configured with a
    // cache-hierarchy baseline.
    assert_eq!(
        rt.submit(graph.clone(), Placement::Forced("cpu".into()))
            .unwrap_err(),
        RuntimeError::Unsupported {
            backend: "cpu".into(),
            job: "graph-batch"
        }
    );
    assert_eq!(
        rt.submit(graph, Placement::Advised(Objective::Time))
            .unwrap_err(),
        RuntimeError::NoBackend { job: "graph-batch" }
    );
}

/// Malformed bitwise jobs — inputs of unequal length, or fewer inputs
/// than the plan takes — are rejected at submission with a typed error
/// on every bitwise backend, and nothing reaches the queue.
#[test]
fn invalid_bitwise_jobs_are_rejected_at_submission() {
    let and = |inputs: Vec<Arc<BitVec>>| {
        let mut pb = PlanBuilder::new(2);
        let dst = pb.binary(BulkOp::And, pb.input(0), pb.input(1));
        Job::Bitwise {
            plan: pb.finish(dst),
            inputs,
        }
    };
    let bad = [
        (
            "lengths differ",
            and(vec![patterned(64, 1), patterned(128, 2)]),
        ),
        ("plan takes 2 inputs", and(vec![patterned(64, 1)])),
    ];
    let backends: Vec<Box<dyn Backend>> = vec![
        Box::new(AmbitBackend::new("ambit", AmbitConfig::ddr3())),
        Box::new(CpuBackend::new(
            "cpu",
            CpuModel::new(CpuConfig::skylake_ddr3()),
        )),
        Box::new(GpuBackend::gpu("gpu", GpuModel::new(GpuConfig::gtx745()))),
    ];
    for backend in backends {
        let name = backend.name().to_string();
        let mut rt = Runtime::new().with(backend);
        for (want, job) in &bad {
            match rt.submit(job.clone(), Placement::Forced(name.clone())) {
                Err(RuntimeError::InvalidJob {
                    backend,
                    job: "bitwise",
                    reason,
                }) => {
                    assert_eq!(backend, name);
                    assert!(reason.contains(want), "{name}: {reason}");
                }
                other => panic!("{name} accepted a malformed job: {other:?}"),
            }
        }
        assert_eq!(rt.stats()[0].queue_depth, 0, "{name}");
        assert!(rt.drain().expect("drain").is_empty(), "{name}");
    }
}

/// Compiled SIMD programs ride the runtime: forced onto the Ambit
/// backend they produce the same sliced outputs as a direct engine run,
/// and the host backend executes the same program as a vectorized
/// scalar loop with bit-identical outputs (the advisor's fallback site).
#[test]
fn simd_program_jobs_round_trip() {
    use pim_simd::{Compiler, OpGraph};
    use pim_workloads::BitSlicedIntVec;

    let mut g = OpGraph::builder();
    let a = g.input(8);
    let b = g.input(8);
    let sum = g.add(a, b);
    let lt = g.lt(a, b);
    g.output(sum);
    g.output(lt);
    let graph = g.finish();
    let program = Arc::new(Compiler::new().compile(&graph).expect("compile"));

    let av: Vec<u64> = (0..512u64).map(|i| i.wrapping_mul(37) & 0xFF).collect();
    let bv: Vec<u64> = (0..512u64).map(|i| i.wrapping_mul(101) & 0xFF).collect();
    let inputs = vec![
        Arc::new(BitSlicedIntVec::from_values(&av, 8)),
        Arc::new(BitSlicedIntVec::from_values(&bv, 8)),
    ];
    let job = Job::SimdProgram {
        program: program.clone(),
        inputs: inputs.clone(),
    };

    // The host backend runs the same program functionally (reference
    // interpreter over the source graph) and prices it as a stream.
    let mut host_rt = Runtime::new().with(Box::new(CpuBackend::new(
        "cpu",
        CpuModel::new(CpuConfig::skylake_ddr3()),
    )));
    let host_id = host_rt
        .submit(job.clone(), Placement::Forced("cpu".into()))
        .expect("host accepts simd programs");
    let host_done = host_rt.drain().unwrap();
    assert_eq!(host_done.len(), 1);
    assert_eq!(host_done[0].id, host_id);
    assert_eq!(host_done[0].report.backend, "cpu");
    assert!(host_done[0].report.ns > 0.0);
    assert_eq!(host_done[0].report.commands, None);

    let mut rt = ambit_runtime(AmbitConfig::ddr3());
    let id = rt
        .submit(job, Placement::Forced("ambit".into()))
        .expect("ambit accepts simd programs");
    let done = rt.drain().unwrap();
    assert_eq!(done.len(), 1);
    assert_eq!(done[0].id, id);

    // Direct engine run for the reference report and outputs.
    let mut sys = AmbitSystem::new(AmbitConfig::ddr3());
    let refs: Vec<&BitSlicedIntVec> = inputs.iter().map(|v| v.as_ref()).collect();
    let (direct_outs, direct) = program.execute(&mut sys, &refs).expect("direct execute");

    match &done[0].output {
        JobOutput::Sliced(outs) => {
            assert_eq!(outs.len(), 2);
            assert_eq!(outs[0].to_values(), direct_outs[0].to_values());
            assert_eq!(outs[1].to_values(), direct_outs[1].to_values());
            for (i, (x, y)) in av.iter().zip(&bv).enumerate() {
                assert_eq!(outs[0].to_values()[i], (x + y) & 0xFF);
                assert_eq!(outs[1].to_values()[i], u64::from(x < y));
            }
        }
        other => panic!("expected sliced output, got {other:?}"),
    }
    // The host's reference-interpreter run is bit-identical to in-DRAM.
    assert_eq!(host_done[0].output, done[0].output);
    assert_eq!(done[0].report.ns, direct.ns);
    assert_eq!(done[0].report.energy, direct.energy);
    assert_eq!(
        done[0].report.commands.as_ref().unwrap().total(),
        direct.commands.total()
    );
}

/// The E11 honesty regression: advised placement for compiled programs
/// compares backend estimates (compiled AAP/TRA sequence vs vectorized
/// host loop), so linear-cost ops offload to DRAM while wide multiplies
/// — whose bit-serial command count is quadratic in width — route to
/// the host by default. `--placement forced` remains the A/B override.
#[test]
fn simd_mul_routes_to_host() {
    use pim_simd::{Compiler, OpGraph};
    use pim_workloads::BitSlicedIntVec;

    let build = |op: &str, w: u32| {
        let mut g = OpGraph::builder();
        let a = g.input(w);
        let b = g.input(w);
        let r = match op {
            "add" => g.add(a, b),
            "mul" => g.mul(a, b),
            _ => unreachable!(),
        };
        g.output(r);
        g.finish()
    };
    let job = |op: &str, w: u32, lanes: u64| {
        let graph = build(op, w);
        let program = Arc::new(Compiler::new().compile(&graph).expect("compile"));
        let mask = if w == 64 { u64::MAX } else { (1 << w) - 1 };
        let vals: Vec<u64> = (0..lanes).map(|i| i.wrapping_mul(37) & mask).collect();
        let inputs = vec![
            Arc::new(BitSlicedIntVec::from_values(&vals, w)),
            Arc::new(BitSlicedIntVec::from_values(&vals, w)),
        ];
        Job::SimdProgram { program, inputs }
    };

    let mut rt = Runtime::new()
        .with(Box::new(CpuBackend::new(
            "cpu",
            CpuModel::new(CpuConfig::skylake_ddr3()),
        )))
        .with(Box::new(AmbitBackend::new("ambit", AmbitConfig::ddr3())));

    let placed = |rt: &mut Runtime, j: Job| {
        let id = rt.submit(j, Placement::Advised(Objective::Time)).unwrap();
        rt.decision(id).unwrap().clone()
    };

    // Linear-command ops win in DRAM at scale: massive lane parallelism
    // against a per-lane host loop.
    let lanes = 1 << 16;
    let d = placed(&mut rt, job("add", 32, lanes));
    assert_eq!(d.backend, "ambit", "wide add should offload");
    let adv = d.advised.expect("advised verdict recorded");
    assert!(adv.offload && adv.pim_time_ns < adv.host_time_ns);

    // Quadratic-command multiplies at >= 16 bits lose to the host loop.
    for w in [16, 32] {
        let d = placed(&mut rt, job("mul", w, lanes));
        assert_eq!(d.backend, "cpu", "mul{w} should stay on the host");
        assert!(d.advised.is_none(), "host placement records no offload");
    }

    // Everything placed still executes correctly where it landed.
    let done = rt.drain().unwrap();
    assert_eq!(done.len(), 3);
    for c in &done {
        assert!(matches!(c.output, JobOutput::Sliced(_)));
    }

    // The estimates the advisor compared are reachable directly and
    // reproduce the verdicts.
    let wide_mul = job("mul", 32, lanes);
    let host_est = rt.estimate_on("cpu", &wide_mul).unwrap();
    let pim_est = rt.estimate_on("ambit", &wide_mul).unwrap();
    assert!(
        host_est.ns < pim_est.ns,
        "host {} ns should beat pim {} ns on mul32",
        host_est.ns,
        pim_est.ns
    );
}

/// Graph jobs through the Tesseract backend equal a direct simulator run;
/// a graph-enabled host backend also executes them.
#[test]
fn graph_jobs_match_direct_simulation() {
    let config = TesseractConfig::single_cube();
    let graph = Arc::new(Graph::from_edges(
        64,
        &(0..63u32).map(|i| (i, i + 1)).collect::<Vec<_>>(),
    ));
    let mut rt = Runtime::new()
        .with(Box::new(
            CpuBackend::new("cpu", CpuModel::new(CpuConfig::skylake_ddr3()))
                .with_graph(HostGraphConfig::ddr3_ooo(), config.stack.vaults),
        ))
        .with(Box::new(TesseractBackend::new("tesseract", config.clone())));

    let advised = rt
        .submit(
            Job::GraphBatch {
                kernel: KernelKind::PageRank,
                graph: graph.clone(),
            },
            Placement::Advised(Objective::Time),
        )
        .unwrap();
    let forced_host = rt
        .submit(
            Job::GraphBatch {
                kernel: KernelKind::PageRank,
                graph: graph.clone(),
            },
            Placement::Forced("cpu".into()),
        )
        .unwrap();
    let done = rt.drain().unwrap();
    assert_eq!(done.len(), 2);

    // Graph traffic is memory-bound, so the advisor offloads.
    assert_eq!(rt.decision(advised).unwrap().backend, "tesseract");
    assert_eq!(done[0].report.backend, "tesseract");

    let sim = TesseractSim::new(config);
    let (output, trace, report) = sim.run(KernelKind::PageRank, &graph);
    match &done[0].output {
        JobOutput::Graph(run) => {
            assert_eq!(run.output, output);
            assert_eq!(run.trace, trace);
        }
        other => panic!("expected graph output, got {other:?}"),
    }
    assert_eq!(done[0].report.ns, report.ns);

    // The forced host run produces the same functional output.
    assert_eq!(done[1].id, forced_host);
    match &done[1].output {
        JobOutput::Graph(run) => assert_eq!(run.output, output),
        other => panic!("expected graph output, got {other:?}"),
    }
    assert!(done[1].report.ns > 0.0);
}
