//! # vlsi-core — the VLSI processor
//!
//! This crate is the paper's headline artifact: a chip of replicated
//! clusters whose resources are *gathered* into adaptive processors of any
//! scale at run time, and released again — "up- or down-scaling is simply
//! to chain or unchain between the segmented interconnection networks"
//! (§6). There is no scaling instruction anywhere: scaling is wormhole
//! routing plus stores to programmable switches, exactly as §3.3 insists.
//!
//! * [`state`] — the four-state processor lifecycle of Figure 6(e):
//!   release / inactive / active / sleep, with read-write protection rules;
//! * [`chip`] — [`VlsiChip`]: the cluster grid, switch fabric, and NoC;
//!   gathering ([`VlsiChip::gather`]), splitting, fusing, releasing, and
//!   defect tolerance;
//! * [`scaled`] — [`ScaledProcessor`]: one gathered region with its folded
//!   stack, its adaptive processor, and its lifecycle state;
//! * [`staged`] — the mailbox executor: [`StagedProgram`]s, one processor
//!   per stage, live values passed by mailbox memory writes and
//!   activation (Figure 7(d)). Compiler-emitted dataflow stages and
//!   basic-block programs ([`StagedProgram::from_program`], branches as
//!   guarded stages) run through the same sequential walk and pipelined
//!   wavefront, with placement-directed deployment;
//! * [`region`] — the SoA region executor behind
//!   [`VlsiChip::execute_batch`]: whole regions of APs advanced in one
//!   cache-friendly sweep per tick, row-striped across a worker pool,
//!   bit-identical to running each AP alone.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod chip;
pub mod error;
pub mod region;
pub mod scaled;
pub mod staged;
pub mod state;

pub use chip::{ChipMetrics, ConfigStrategy, GatherOutcome, VlsiChip};
pub use error::CoreError;
pub use scaled::{ProcessorId, ScaledProcessor};
pub use staged::{PipelineRunStats, StagedExecutor, StagedProgram, StagedRunStats, StagedStage};
pub use state::ProcState;
