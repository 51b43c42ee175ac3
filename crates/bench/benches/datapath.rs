//! Functional-datapath microbenchmarks: the arena-backed [`DataStore`]
//! against the HashMap-of-boxed-rows datapath it replaced.
//!
//! The baseline below is a self-contained copy of the seed store's bulk-op
//! semantics (row clones + per-call `Vec` temporaries + one hash lookup per
//! row touch), so the comparison survives even though the old code is gone.
//! Besides the criterion timings printed to stdout, `main` re-measures both
//! stores with a plain wall-clock loop and writes the words/s table to
//! `results/BENCH_datapath.json`, which E-series tooling and CI pick up.

use criterion::{criterion_group, BenchmarkId, Criterion, Throughput};
use pim_dram::{Command, DataStore, Device, DramSpec, Projection, RowId};
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// 8 KiB rows, matching `DramSpec::ddr3_1600()`.
const ROW_BYTES: u64 = 8192;
const ROW_WORDS: usize = ROW_BYTES as usize / 8;
const BANK_COUNTS: [u32; 4] = [1, 2, 4, 8];

/// Per-op regression bands against the seed store: the compute ops must
/// hold the paper-level raw-speed win; the memset/memcpy-bound stores
/// (fill, aap) are physically capped near slice-primitive speed, so the
/// band there is "never regress below the seed".
fn speedup_target(op: &str) -> f64 {
    match op {
        "tra" | "bulk_and" => 5.0,
        _ => 1.0,
    }
}

/// Overall raw-speed bar: geometric-mean speedup across every (op, bank
/// count) cell.
const GEOMEAN_TARGET: f64 = 5.0;

// ---------------------------------------------------------------------------
// Seed baseline: verbatim port of the pre-arena DataStore (commit fa5c9f7) —
// `HashMap<RowId, Box<[u64]>>` with per-word `read_word` hashing inside
// `majority3` and a fresh `Vec` per bulk op.
// ---------------------------------------------------------------------------

struct SeedStore {
    rows: HashMap<RowId, Box<[u64]>>,
    row_words: usize,
}

impl SeedStore {
    fn new(row_bytes: u64) -> Self {
        SeedStore {
            rows: HashMap::new(),
            row_words: row_bytes as usize / 8,
        }
    }

    fn row_mut(&mut self, row: RowId) -> &mut [u64] {
        let words = self.row_words;
        self.rows
            .entry(row)
            .or_insert_with(|| vec![0u64; words].into_boxed_slice())
    }

    fn read_word(&self, row: RowId, idx: usize) -> u64 {
        self.rows.get(&row).map_or(0, |r| r[idx])
    }

    fn write_row(&mut self, row: RowId, data: &[u64]) {
        self.row_mut(row).copy_from_slice(data);
    }

    fn copy_row(&mut self, src: RowId, dst: RowId) {
        if src == dst {
            return;
        }
        match self.rows.get(&src).cloned() {
            Some(data) => {
                self.rows.insert(dst, data);
            }
            None => {
                self.rows.remove(&dst);
            }
        }
    }

    fn fill_row(&mut self, row: RowId, word: u64) {
        if word == 0 {
            self.rows.remove(&row);
        } else {
            self.row_mut(row).fill(word);
        }
    }

    fn majority3(&mut self, a: RowId, b: RowId, c: RowId) -> Vec<u64> {
        let words = self.row_words;
        let mut out = vec![0u64; words];
        for (i, slot) in out.iter_mut().enumerate() {
            let (x, y, z) = (
                self.read_word(a, i),
                self.read_word(b, i),
                self.read_word(c, i),
            );
            *slot = (x & y) | (y & z) | (x & z);
        }
        for row in [a, b, c] {
            self.row_mut(row).copy_from_slice(&out);
        }
        out
    }
}

// ---------------------------------------------------------------------------
// A common face over both stores so the workloads are written once.
// ---------------------------------------------------------------------------

trait Datapath {
    fn write(&mut self, row: RowId, data: &[u64]);
    fn copy(&mut self, src: RowId, dst: RowId);
    fn fill(&mut self, row: RowId, word: u64);
    fn maj(&mut self, a: RowId, b: RowId, c: RowId);
}

impl Datapath for DataStore {
    fn write(&mut self, row: RowId, data: &[u64]) {
        self.write_row_from(row, data);
    }
    fn copy(&mut self, src: RowId, dst: RowId) {
        self.copy_row(src, dst);
    }
    fn fill(&mut self, row: RowId, word: u64) {
        self.fill_row(row, word);
    }
    fn maj(&mut self, a: RowId, b: RowId, c: RowId) {
        self.majority3(a, b, c);
    }
}

impl Datapath for SeedStore {
    fn write(&mut self, row: RowId, data: &[u64]) {
        self.write_row(row, data);
    }
    fn copy(&mut self, src: RowId, dst: RowId) {
        self.copy_row(src, dst);
    }
    fn fill(&mut self, row: RowId, word: u64) {
        self.fill_row(row, word);
    }
    fn maj(&mut self, a: RowId, b: RowId, c: RowId) {
        let _ = self.majority3(a, b, c);
    }
}

fn rid(bank: u32, row: u32) -> RowId {
    RowId::new(0, 0, bank, row)
}

/// Seeds rows 0 (operand A) and 1 (operand B) of each bank with a
/// deterministic pattern so every op runs on materialized data.
fn seed_operands<S: Datapath>(store: &mut S, banks: u32) {
    let mut pattern = [0u64; ROW_WORDS];
    for (i, w) in pattern.iter_mut().enumerate() {
        *w = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xA5A5_A5A5_5A5A_5A5A;
    }
    for bank in 0..banks {
        store.write(rid(bank, 0), &pattern);
        for w in pattern.iter_mut() {
            *w = w.rotate_left(7) ^ u64::from(bank);
        }
        store.write(rid(bank, 1), &pattern);
    }
}

/// One TRA per bank: rows 2/3/4 hold the triple (pre-seeded by the caller
/// loop via copies, as Ambit's execute path does).
fn tra_all_banks<S: Datapath>(store: &mut S, banks: u32) {
    for bank in 0..banks {
        store.maj(rid(bank, 2), rid(bank, 3), rid(bank, 4));
    }
}

/// One AAP (row copy) per bank.
fn aap_all_banks<S: Datapath>(store: &mut S, banks: u32) {
    for bank in 0..banks {
        store.copy(rid(bank, 0), rid(bank, 5));
    }
}

/// One row fill per bank (the C1 control-row pattern).
fn fill_all_banks<S: Datapath>(store: &mut S, banks: u32) {
    for bank in 0..banks {
        store.fill(rid(bank, 6), u64::MAX);
    }
}

/// A full Ambit bulk AND across `banks` banks, exactly the command
/// sequence `AmbitSystem::execute` lowers to per chunk:
/// copy A and B into the compute triple, fill the third row with the
/// AND control pattern (zeros), TRA, copy the result out.
fn bulk_and<S: Datapath>(store: &mut S, banks: u32) {
    for bank in 0..banks {
        store.copy(rid(bank, 0), rid(bank, 2));
        store.copy(rid(bank, 1), rid(bank, 3));
        store.fill(rid(bank, 4), 0);
        store.maj(rid(bank, 2), rid(bank, 3), rid(bank, 4));
        store.copy(rid(bank, 2), rid(bank, 5));
    }
}

// ---------------------------------------------------------------------------
// Criterion registration (human-readable numbers on stdout).
// ---------------------------------------------------------------------------

fn bench_datapath(c: &mut Criterion) {
    let mut group = c.benchmark_group("datapath");
    group.sample_size(30);
    for &banks in &BANK_COUNTS {
        let words = banks as u64 * ROW_WORDS as u64;
        group.throughput(Throughput::Elements(words));
        group.bench_with_input(BenchmarkId::new("tra_arena", banks), &banks, |b, &n| {
            let mut s = DataStore::new(ROW_BYTES);
            seed_operands(&mut s, n);
            bulk_and(&mut s, n);
            b.iter(|| tra_all_banks(&mut s, n));
        });
        group.bench_with_input(BenchmarkId::new("tra_seed", banks), &banks, |b, &n| {
            let mut s = SeedStore::new(ROW_BYTES);
            seed_operands(&mut s, n);
            bulk_and(&mut s, n);
            b.iter(|| tra_all_banks(&mut s, n));
        });
        group.bench_with_input(BenchmarkId::new("aap_arena", banks), &banks, |b, &n| {
            let mut s = DataStore::new(ROW_BYTES);
            seed_operands(&mut s, n);
            b.iter(|| aap_all_banks(&mut s, n));
        });
        group.bench_with_input(BenchmarkId::new("aap_seed", banks), &banks, |b, &n| {
            let mut s = SeedStore::new(ROW_BYTES);
            seed_operands(&mut s, n);
            b.iter(|| aap_all_banks(&mut s, n));
        });
        group.bench_with_input(BenchmarkId::new("fill_arena", banks), &banks, |b, &n| {
            let mut s = DataStore::new(ROW_BYTES);
            seed_operands(&mut s, n);
            b.iter(|| fill_all_banks(&mut s, n));
        });
        group.bench_with_input(BenchmarkId::new("fill_seed", banks), &banks, |b, &n| {
            let mut s = SeedStore::new(ROW_BYTES);
            seed_operands(&mut s, n);
            b.iter(|| fill_all_banks(&mut s, n));
        });
        group.bench_with_input(
            BenchmarkId::new("bulk_and_arena", banks),
            &banks,
            |b, &n| {
                let mut s = DataStore::new(ROW_BYTES);
                seed_operands(&mut s, n);
                b.iter(|| bulk_and(&mut s, n));
            },
        );
        group.bench_with_input(BenchmarkId::new("bulk_and_seed", banks), &banks, |b, &n| {
            let mut s = SeedStore::new(ROW_BYTES);
            seed_operands(&mut s, n);
            b.iter(|| bulk_and(&mut s, n));
        });
    }
    group.finish();
}

// ---------------------------------------------------------------------------
// Observer zero-overhead gate: the device's command-issue hot loop with the
// observer off must run at least as fast as with it on — disabling
// observation recovers its full capture cost, so it is pay-for-use.
// ---------------------------------------------------------------------------

/// A cross-bank AAP run (the engine's steady-state shape). AAP leaves the
/// bank precharged, so the same run stays legal indefinitely.
fn observer_gate_run(banks: u32) -> (Vec<Command>, Vec<u64>) {
    let cmds: Vec<Command> = (0..banks)
        .map(|bank| Command::Aap {
            src: RowId::new(0, 0, bank, 0),
            dst: RowId::new(0, 0, bank, 1),
            invert: false,
        })
        .collect();
    let not_before = vec![0u64; cmds.len()];
    (cmds, not_before)
}

/// A device with every projection of the observer on, or none.
fn observer_gate_device(observe: bool) -> Device {
    let mut dev = Device::new(DramSpec::ddr3_1600());
    for projection in [
        Projection::Trace,
        Projection::Telemetry,
        Projection::Profile,
    ] {
        dev.observe(projection, observe);
    }
    let pattern: Vec<u64> = (0..ROW_WORDS)
        .map(|i| (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .collect();
    for bank in 0..dev.spec().org.banks {
        dev.store_mut().write_row(rid(bank, 0), &pattern);
    }
    dev
}

fn bench_observer_gate(c: &mut Criterion) {
    let banks = DramSpec::ddr3_1600().org.banks;
    let (cmds, not_before) = observer_gate_run(banks);
    let mut group = c.benchmark_group("observer_gate");
    group.throughput(Throughput::Elements(cmds.len() as u64));
    for (label, observe) in [
        ("issue_run_observer_off", false),
        ("issue_run_observer_on", true),
    ] {
        group.bench_function(label, |b| {
            let mut dev = observer_gate_device(observe);
            let mut done = Vec::new();
            b.iter(|| {
                dev.issue_run(&cmds, &not_before, &mut done)
                    .expect("legal run")
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_datapath, bench_observer_gate);

// ---------------------------------------------------------------------------
// JSON emission (machine-readable words/s, used by EXPERIMENTS.md and CI).
// ---------------------------------------------------------------------------

/// Wall-clock words/s of `op`, warmed up once, then run for at least
/// `MIN_ITERS` iterations and 120 ms.
fn words_per_sec(words_per_iter: u64, mut op: impl FnMut()) -> f64 {
    const MIN_ITERS: u64 = 8;
    op();
    let start = Instant::now();
    let mut iters = 0u64;
    while iters < MIN_ITERS || start.elapsed() < Duration::from_millis(120) {
        op();
        iters += 1;
    }
    (iters * words_per_iter) as f64 / start.elapsed().as_secs_f64()
}

struct OpRecord {
    op: &'static str,
    banks: u32,
    arena: f64,
    seed: f64,
}

fn measure_pair(
    op: &'static str,
    banks: u32,
    work: fn(&mut dyn DatapathDyn, u32),
    words_per_iter: u64,
) -> OpRecord {
    let mut arena_store = DataStore::new(ROW_BYTES);
    seed_operands(&mut arena_store, banks);
    bulk_and(&mut arena_store, banks);
    let arena = words_per_sec(words_per_iter, || work(&mut arena_store, banks));

    let mut seed_store = SeedStore::new(ROW_BYTES);
    seed_operands(&mut seed_store, banks);
    bulk_and(&mut seed_store, banks);
    let seed = words_per_sec(words_per_iter, || work(&mut seed_store, banks));

    OpRecord {
        op,
        banks,
        arena,
        seed,
    }
}

/// Object-safe shim so `measure_pair` can take a plain fn pointer.
trait DatapathDyn {
    fn run_tra(&mut self, banks: u32);
    fn run_aap(&mut self, banks: u32);
    fn run_fill(&mut self, banks: u32);
    fn run_bulk_and(&mut self, banks: u32);
}

impl<S: Datapath> DatapathDyn for S {
    fn run_tra(&mut self, banks: u32) {
        tra_all_banks(self, banks);
    }
    fn run_aap(&mut self, banks: u32) {
        aap_all_banks(self, banks);
    }
    fn run_fill(&mut self, banks: u32) {
        fill_all_banks(self, banks);
    }
    fn run_bulk_and(&mut self, banks: u32) {
        bulk_and(self, banks);
    }
}

/// Worst-case (minimum) speedup of `op` over every bank count, with its
/// band and verdict.
struct OpVerdict {
    op: &'static str,
    target: f64,
    min_speedup: f64,
    meets: bool,
}

fn per_op_verdicts(records: &[OpRecord]) -> Vec<OpVerdict> {
    let mut verdicts: Vec<OpVerdict> = Vec::new();
    for r in records {
        let speedup = r.arena / r.seed;
        match verdicts.iter_mut().find(|v| v.op == r.op) {
            Some(v) => v.min_speedup = v.min_speedup.min(speedup),
            None => verdicts.push(OpVerdict {
                op: r.op,
                target: speedup_target(r.op),
                min_speedup: speedup,
                meets: true,
            }),
        }
    }
    for v in &mut verdicts {
        v.meets = v.min_speedup >= v.target;
    }
    verdicts
}

fn geomean_speedup(records: &[OpRecord]) -> f64 {
    let ln_sum: f64 = records.iter().map(|r| (r.arena / r.seed).ln()).sum();
    (ln_sum / records.len() as f64).exp()
}

/// Wall-clock observation-overhead probe: the batched issue loop with the
/// observer off vs on, in commands/s.
struct ObserverGate {
    off_cmds_per_sec: f64,
    on_cmds_per_sec: f64,
}

impl ObserverGate {
    /// Disabling the observer must recover its full capture cost: the
    /// off-rate at least matches the on-rate, modulo 5% wall-clock noise.
    fn meets(&self) -> bool {
        self.off_cmds_per_sec >= self.on_cmds_per_sec * 0.95
    }
}

fn measure_observer_gate() -> ObserverGate {
    let banks = DramSpec::ddr3_1600().org.banks;
    let (cmds, not_before) = observer_gate_run(banks);
    let rate = |observe: bool| {
        let mut dev = observer_gate_device(observe);
        let mut done = Vec::new();
        words_per_sec(cmds.len() as u64, || {
            dev.issue_run(&cmds, &not_before, &mut done)
                .expect("legal run");
        })
    };
    ObserverGate {
        off_cmds_per_sec: rate(false),
        on_cmds_per_sec: rate(true),
    }
}

fn write_json(records: &[OpRecord], verdicts: &[OpVerdict], geomean: f64, gate: &ObserverGate) {
    let results_dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results");
    let all_meet = verdicts.iter().all(|v| v.meets);
    let mut out = String::from("{\n");
    out.push_str("  \"bench\": \"datapath\",\n");
    out.push_str(&format!("  \"row_words\": {ROW_WORDS},\n"));
    out.push_str("  \"unit\": \"words_per_second\",\n");
    out.push_str("  \"ops\": [\n");
    for (i, r) in records.iter().enumerate() {
        let sep = if i + 1 == records.len() { "" } else { "," };
        out.push_str(&format!(
            "    {{\"op\": \"{}\", \"banks\": {}, \"arena\": {:.0}, \
             \"seed_hashmap\": {:.0}, \"speedup\": {:.2}}}{}\n",
            r.op,
            r.banks,
            r.arena,
            r.seed,
            r.arena / r.seed,
            sep
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"per_op\": [\n");
    for (i, v) in verdicts.iter().enumerate() {
        let sep = if i + 1 == verdicts.len() { "" } else { "," };
        out.push_str(&format!(
            "    {{\"op\": \"{}\", \"target\": {:.1}, \"min_speedup\": {:.2}, \
             \"meets_target\": {}}}{}\n",
            v.op, v.target, v.min_speedup, v.meets, sep
        ));
    }
    out.push_str("  ],\n");
    out.push_str(&format!(
        "  \"observer_gate\": {{\"observer_off_cmds_per_sec\": {:.0}, \
         \"observer_on_cmds_per_sec\": {:.0}, \"disabled_recovers_cost\": {}}},\n",
        gate.off_cmds_per_sec,
        gate.on_cmds_per_sec,
        gate.meets()
    ));
    out.push_str(&format!(
        "  \"geomean_speedup\": {:.2},\n  \"meets_5x_target\": {}\n}}\n",
        geomean,
        all_meet && geomean >= GEOMEAN_TARGET
    ));
    std::fs::create_dir_all(results_dir).expect("results dir");
    let path = format!("{results_dir}/BENCH_datapath.json");
    std::fs::write(&path, out).expect("write BENCH_datapath.json");
    println!("wrote {path}");
}

fn main() {
    benches();
    let mut records = Vec::new();
    for &banks in &BANK_COUNTS {
        let words = banks as u64 * ROW_WORDS as u64;
        records.push(measure_pair("tra", banks, |s, n| s.run_tra(n), words));
        records.push(measure_pair("aap", banks, |s, n| s.run_aap(n), words));
        records.push(measure_pair("fill", banks, |s, n| s.run_fill(n), words));
        records.push(measure_pair(
            "bulk_and",
            banks,
            |s, n| s.run_bulk_and(n),
            words,
        ));
    }
    for r in &records {
        println!(
            "datapath/{}/{}banks  arena {:>12.3e} w/s  seed {:>12.3e} w/s  speedup {:>6.2}x",
            r.op,
            r.banks,
            r.arena,
            r.seed,
            r.arena / r.seed
        );
    }

    let verdicts = per_op_verdicts(&records);
    let geomean = geomean_speedup(&records);
    let gate = measure_observer_gate();
    for v in &verdicts {
        println!(
            "datapath/{:<8} min speedup {:>6.2}x  (target {:.1}x)  {}",
            v.op,
            v.min_speedup,
            v.target,
            if v.meets { "ok" } else { "REGRESSED" }
        );
    }
    println!(
        "datapath geomean {:>6.2}x (target {GEOMEAN_TARGET:.1}x); observer off {:>10.3e} cmd/s vs on {:>10.3e} cmd/s ({})",
        geomean,
        gate.off_cmds_per_sec,
        gate.on_cmds_per_sec,
        if gate.meets() { "ok" } else { "OVERHEAD" }
    );
    write_json(&records, &verdicts, geomean, &gate);

    // Regression gate: any op below its band, a sub-target geomean, or
    // observation overhead with the observer off fails the bench run.
    let mut failures: Vec<String> = verdicts
        .iter()
        .filter(|v| !v.meets)
        .map(|v| {
            format!(
                "{} at {:.2}x (target {:.1}x)",
                v.op, v.min_speedup, v.target
            )
        })
        .collect();
    if geomean < GEOMEAN_TARGET {
        failures.push(format!(
            "geomean {geomean:.2}x (target {GEOMEAN_TARGET:.1}x)"
        ));
    }
    if !gate.meets() {
        failures.push(format!(
            "the disabled observer costs throughput (off {:.3e} vs on {:.3e} cmd/s)",
            gate.off_cmds_per_sec, gate.on_cmds_per_sec
        ));
    }
    if !failures.is_empty() {
        eprintln!("datapath regression gate FAILED: {}", failures.join("; "));
        std::process::exit(1);
    }
}
