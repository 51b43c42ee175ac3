//! # pim-bench — the experiment harness
//!
//! One module per experiment of the paper's evaluation (see DESIGN.md §4);
//! each has a `run()` returning structured results and a `table()`
//! rendering the rows EXPERIMENTS.md records. The `e*` binaries are thin
//! wrappers that print the tables; the criterion benches under `benches/`
//! measure the simulator itself.

/// Runs a list of independent measurement tasks, returning their results
/// in task order. With more than one rayon thread, tasks run concurrently;
/// each task must own all its state (every experiment builds its own
/// simulator instances), so results do not depend on the thread count.
pub(crate) fn run_tasks<'a, T: Send>(tasks: Vec<Box<dyn FnOnce() -> T + Send + 'a>>) -> Vec<T> {
    if rayon::current_num_threads() > 1 {
        use rayon::prelude::*;
        return tasks.into_par_iter().map(|t| t()).collect();
    }
    tasks.into_iter().map(|t| t()).collect()
}

pub mod ablations;
pub mod e1;
pub mod e10;
pub mod e11;
pub mod e12;
pub mod e2;
pub mod e3;
pub mod e4;
pub mod e5;
pub mod e6;
pub mod e7;
pub mod e8;
pub mod e9;
pub mod report;
pub mod scaling;
pub mod tracecap;
