//! Allocator accounting under exhaustion: an allocation that runs out of
//! rows part-way gives back every row it took for earlier chunks, so a
//! long-lived engine keeps its full capacity after `OutOfRows`.

use pim_ambit::{AmbitConfig, AmbitError, AmbitSystem};
use pim_workloads::{BitVec, BulkOp, PlanBuilder};

/// How many `bits`-long vectors fit, freeing them all again.
fn capacity(sys: &mut AmbitSystem, bits: usize) -> usize {
    let held: Vec<_> = std::iter::from_fn(|| sys.alloc(bits).ok()).collect();
    let fits = held.len();
    held.into_iter().for_each(|v| sys.free(v));
    fits
}

#[test]
fn failed_allocations_give_back_the_rows_they_took() {
    let mut sys = AmbitSystem::new(AmbitConfig::ddr3());
    let org = sys.spec().org;
    // One row in every (bank, subarray) arena.
    let one_per_arena = sys.row_bits() * (org.total_banks() * org.subarrays) as usize;
    let fits = capacity(&mut sys, one_per_arena);
    assert!(fits > 1, "every arena holds several data rows");

    for shift in [0, 5] {
        // Pin the arena of bank 0 / subarray 0 down to one free row. Two
        // rows per arena then take one row everywhere — the pinned
        // arena's last one included — before the pinned arena runs dry.
        let pins: Vec<_> = (1..fits).map(|_| sys.alloc(1).expect("fits")).collect();
        let err = sys.alloc_shifted(2 * one_per_arena, shift).unwrap_err();
        assert!(matches!(err, AmbitError::OutOfRows { .. }), "{err}");
        pins.into_iter().for_each(|v| sys.free(v));
        let after = capacity(&mut sys, one_per_arena);
        assert_eq!(
            after, fits,
            "the failed allocation (shift {shift}) kept rows"
        );
    }
}

#[test]
fn failed_plans_give_back_every_register() {
    let mut sys = AmbitSystem::new(AmbitConfig::ddr3());
    let org = sys.spec().org;
    let one_per_arena = sys.row_bits() * (org.total_banks() * org.subarrays) as usize;
    let fits = capacity(&mut sys, one_per_arena);

    // Two inputs and `fits` simultaneously live `a ^ b` registers, folded
    // with AND: the last register's allocation runs out of rows.
    let mut pb = PlanBuilder::new(2);
    let (a, b) = (pb.input(0), pb.input(1));
    let live: Vec<_> = (0..fits).map(|_| pb.binary(BulkOp::Xor, a, b)).collect();
    let folded = live[1..]
        .iter()
        .fold(live[0], |acc, &r| pb.binary(BulkOp::And, acc, r));
    let plan = pb.finish(folded);
    let x = BitVec::from_fn(one_per_arena, |i| i % 3 == 0);
    let y = BitVec::from_fn(one_per_arena, |i| i % 5 == 0);
    let err = sys.run_plan(&plan, &[&x, &y]).unwrap_err();
    assert!(matches!(err, AmbitError::OutOfRows { .. }), "{err}");
    assert_eq!(
        capacity(&mut sys, one_per_arena),
        fits,
        "the failed plan kept rows"
    );
}
