//! Execution: a [`CompiledProgram`] over bit-sliced operands on an
//! [`AmbitSystem`].
//!
//! The executor materializes the program's plane table as ordinary bulk
//! vectors — input planes (written from the operands), output planes,
//! and scratch rows — all chunk-by-chunk co-located by the engine's
//! striped allocator, then hands the instruction sequence to
//! [`AmbitSystem::execute_row_program`]. Nothing about the program
//! changes per run: the same command sequence rides the engine's batched
//! issue fast path, gets traced and telemetered like any built-in bulk
//! operation, and frees every row it allocated before returning.

use crate::emit::CompiledProgram;
use crate::error::{Result, SimdError};
use pim_ambit::{AmbitSystem, BulkVec, ExecReport};
use pim_workloads::{BitSlicedIntVec, BitVec};

impl CompiledProgram {
    /// Runs the program on `sys` over `inputs` (one bit-sliced vector per
    /// graph input; equal lane counts; at least one input, which fixes
    /// the lane count). Returns one bit-sliced vector per graph output
    /// plus the engine's execution report (`bytes_out` attributed to the
    /// output planes).
    ///
    /// # Errors
    ///
    /// * [`SimdError::InputMismatch`] / [`SimdError::WidthMismatch`] for
    ///   operand shape errors.
    /// * [`SimdError::Ambit`] if the engine cannot place the plane table
    ///   (e.g. out of rows) or rejects the program.
    pub fn execute(
        &self,
        sys: &mut AmbitSystem,
        inputs: &[&BitSlicedIntVec],
    ) -> Result<(Vec<BitSlicedIntVec>, ExecReport)> {
        if inputs.len() != self.input_widths.len() || inputs.is_empty() {
            return Err(SimdError::InputMismatch {
                expected: self.input_widths.len().max(1),
                got: inputs.len(),
            });
        }
        for (i, v) in inputs.iter().enumerate() {
            if v.bits() != self.input_widths[i] {
                return Err(SimdError::WidthMismatch {
                    input: i,
                    expected: self.input_widths[i],
                    got: v.bits(),
                });
            }
        }
        let lanes = inputs[0].len();
        for v in inputs.iter().skip(1) {
            if v.len() != lanes {
                return Err(SimdError::InputMismatch {
                    expected: lanes,
                    got: v.len(),
                });
            }
        }

        let mut planes: Vec<BulkVec> = Vec::with_capacity(self.total_planes() as usize);
        let result = self.run_on_planes(sys, inputs, lanes, &mut planes);
        // Free every plane the run materialized, success or not — a
        // long-lived engine must not leak rows across program runs.
        for v in planes {
            sys.free(v);
        }
        let (out_bits, report) = result?;
        let mut outputs = Vec::with_capacity(self.output_widths.len());
        let mut it = out_bits.into_iter();
        for &w in &self.output_widths {
            let group: Vec<BitVec> = it.by_ref().take(w as usize).collect();
            outputs.push(BitSlicedIntVec::from_planes(group));
        }
        Ok((outputs, report))
    }

    /// Materializes the plane table in emission order (inputs, outputs,
    /// scratch — the striped allocator co-locates equal-length vectors
    /// chunk by chunk, which is exactly what `execute_row_program`
    /// requires), runs the program, and reads back the output planes.
    fn run_on_planes(
        &self,
        sys: &mut AmbitSystem,
        inputs: &[&BitSlicedIntVec],
        lanes: usize,
        planes: &mut Vec<BulkVec>,
    ) -> Result<(Vec<BitVec>, ExecReport)> {
        for input in inputs {
            for bits in input.planes() {
                let v = sys.alloc(lanes)?;
                sys.write(&v, bits)?;
                planes.push(v);
            }
        }
        for _ in 0..self.n_output_planes + self.scratch_rows {
            planes.push(sys.alloc(lanes)?);
        }
        let refs: Vec<&BulkVec> = planes.iter().collect();
        let mut report = sys.execute_row_program(&self.insts, &refs)?;
        report.bytes_out = (self.n_output_planes as u64 * lanes as u64).div_ceil(8);
        let out_base = self.n_input_planes as usize;
        let out_bits = planes[out_base..out_base + self.n_output_planes as usize]
            .iter()
            .map(|v| sys.read(v))
            .collect();
        Ok((out_bits, report))
    }
}
