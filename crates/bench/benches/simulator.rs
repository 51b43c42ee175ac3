//! Criterion benches of the simulator itself: how fast the models run on
//! the host machine (not the simulated metrics — those come from the
//! `e*` binaries).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use pim_ambit::{AmbitConfig, AmbitSystem};
use pim_dram::{Controller, DramSpec, PhysAddr, Request};
use pim_host::{CacheHierarchy, HierarchyConfig};
use pim_tesseract::{TesseractConfig, TesseractSim};
use pim_workloads::{BitVec, BulkOp, Graph, KernelKind};
use rand::SeedableRng;

fn bench_dram_controller(c: &mut Criterion) {
    let mut group = c.benchmark_group("dram_controller");
    for &pattern in &["sequential", "random"] {
        group.throughput(Throughput::Elements(512));
        group.bench_with_input(BenchmarkId::new("512_reads", pattern), &pattern, |b, &p| {
            let mut rng = rand::rngs::StdRng::seed_from_u64(1);
            let addrs = if p == "random" {
                pim_workloads::streams::random_uniform(1 << 30, 64, 512, &mut rng)
            } else {
                pim_workloads::streams::sequential(0, 64, 512)
            };
            let reqs: Vec<Request> = addrs
                .iter()
                .map(|&a| Request::read(PhysAddr::new(a)))
                .collect();
            b.iter(|| {
                let mut mc = Controller::new(DramSpec::ddr3_1600());
                mc.run_batch(&reqs).expect("batch")
            });
        });
    }
    group.finish();
}

fn bench_ambit_ops(c: &mut Criterion) {
    let mut group = c.benchmark_group("ambit_engine");
    for op in [BulkOp::And, BulkOp::Xor] {
        group.bench_with_input(
            BenchmarkId::new("bulk_op_8rows", op.to_string()),
            &op,
            |b, &op| {
                let mut sys = AmbitSystem::new(AmbitConfig::ddr3());
                let bits = sys.row_bits() * 8;
                let mut rng = rand::rngs::StdRng::seed_from_u64(2);
                let a = sys.alloc(bits).unwrap();
                let bb = sys.alloc(bits).unwrap();
                let out = sys.alloc(bits).unwrap();
                sys.write(&a, &BitVec::random(bits, 0.5, &mut rng)).unwrap();
                sys.write(&bb, &BitVec::random(bits, 0.5, &mut rng))
                    .unwrap();
                b.iter(|| sys.execute(op, &a, Some(&bb), &out).expect("execute"));
            },
        );
    }
    group.finish();
}

fn bench_cache_hierarchy(c: &mut Criterion) {
    c.bench_function("cache_hierarchy/10k_random_accesses", |b| {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let addrs = pim_workloads::streams::random_uniform(64 << 20, 64, 10_000, &mut rng);
        b.iter(|| {
            let mut h = CacheHierarchy::new(HierarchyConfig::server());
            for &a in &addrs {
                h.access(a, false);
            }
            h.stats().memory_miss_rate()
        });
    });
}

fn bench_tesseract(c: &mut Criterion) {
    let mut group = c.benchmark_group("tesseract");
    group.sample_size(10);
    let mut rng = rand::rngs::StdRng::seed_from_u64(4);
    let g = Graph::rmat(14, 8, &mut rng);
    let sim = TesseractSim::new(TesseractConfig::isca2015());
    group.bench_function("pagerank_rmat14", |b| {
        b.iter(|| sim.run(KernelKind::PageRank, &g));
    });
    group.finish();
}

fn bench_bitvec(c: &mut Criterion) {
    let mut group = c.benchmark_group("bitvec_reference");
    let mut rng = rand::rngs::StdRng::seed_from_u64(5);
    let a = BitVec::random(1 << 20, 0.5, &mut rng);
    let b2 = BitVec::random(1 << 20, 0.5, &mut rng);
    group.throughput(Throughput::Bytes((1 << 20) / 8));
    group.bench_function("xor_1mbit", |bch| {
        bch.iter(|| a.binary(BulkOp::Xor, &b2));
    });
    group.bench_function("popcount_1mbit", |bch| {
        bch.iter(|| a.count_ones());
    });
    group.finish();
}

fn bench_in_dram_adder(c: &mut Criterion) {
    let mut group = c.benchmark_group("in_dram_adder");
    group.sample_size(10);
    group.bench_function("add_8bit_one_row", |b| {
        use pim_workloads::arith::{ripple_add_plan, BitSlicedIntVec};
        let plan = ripple_add_plan(8);
        let mut rng = rand::rngs::StdRng::seed_from_u64(6);
        let sys0 = AmbitSystem::new(AmbitConfig::ddr3());
        let len = sys0.row_bits();
        let av = BitSlicedIntVec::random(len, 8, &mut rng);
        let bv = BitSlicedIntVec::random(len, 8, &mut rng);
        b.iter(|| {
            let mut sys = AmbitSystem::new(AmbitConfig::ddr3());
            let mut inputs: Vec<&BitVec> = av.planes().iter().collect();
            inputs.extend(bv.planes().iter());
            sys.run_plan_multi(&plan, &inputs).expect("plan runs")
        });
    });
    group.finish();
}

fn bench_graph_generation(c: &mut Criterion) {
    c.bench_function("rmat_scale14", |b| {
        b.iter(|| {
            let mut rng = rand::rngs::StdRng::seed_from_u64(7);
            Graph::rmat(14, 8, &mut rng)
        });
    });
}

criterion_group!(
    benches,
    bench_dram_controller,
    bench_ambit_ops,
    bench_cache_hierarchy,
    bench_tesseract,
    bench_bitvec,
    bench_in_dram_adder,
    bench_graph_generation
);
criterion_main!(benches);
