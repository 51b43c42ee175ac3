//! What the load generator needs from each workload.
//!
//! A workload owns its generated inputs and the independent references
//! its outputs are checked against; the program objects it builds are
//! what a request runs on. Traced runs additionally re-issue calls the
//! program makes internally on twin objects, since those calls cannot be
//! wrapped from outside.

/// Sizes a workload runs at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The measured configuration.
    Full,
    /// A few-second configuration for tests: an 8-bank device, a
    /// scale-10 graph, a few thousand lanes.
    Smoke,
}

/// Deterministic facts about one request's result: they must repeat
/// exactly for the same request of the mix, run after run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tally {
    /// Work done, in the workload's unit (simulated DRAM commands, lanes
    /// evaluated, edges scanned).
    pub work: u64,
    /// Modeled time of the simulated machine, ns (not host time).
    pub modeled_ns: f64,
}

/// One benchmark workload.
pub trait Workload {
    /// The program objects requests run on (runtime, backends, session).
    type Program;
    /// What one request returns.
    type Output;

    /// Requests in one round of the workload's request mix.
    fn round_len(&self) -> usize;

    /// Builds the program's objects; `traced` hands the runtime
    /// span-recording backend shims instead of the bare backends.
    fn build(&self, traced: bool) -> Self::Program;

    /// Issues request `i`, the `i % round_len()`-th of the mix.
    ///
    /// # Errors
    ///
    /// Any error the program returned, as text.
    fn request(&self, program: &mut Self::Program, i: usize) -> Result<Self::Output, String>;

    /// Checks a request's output against its independent reference.
    ///
    /// # Errors
    ///
    /// What did not match.
    fn check(&self, i: usize, out: &Self::Output) -> Result<Tally, String>;

    /// Traced runs only: re-issues the calls request `i` made internally
    /// on twin objects with identical inputs, each in its own span, and
    /// returns how many twins did not reproduce the request's output bit
    /// for bit (their spans are dropped).
    fn twins(&mut self, program: &mut Self::Program, i: usize, out: &Self::Output) -> u64;

    /// Traced runs only: derived per-layer values gathered by
    /// [`Workload::twins`] and the program shims, by metric name.
    fn layer_values(&self) -> Vec<(&'static str, f64)>;
}
