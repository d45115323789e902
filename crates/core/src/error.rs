//! Errors of the chip layer.

use crate::scaled::ProcessorId;
use crate::state::ProcState;
use std::fmt;
use vlsi_ap::ApError;
use vlsi_noc::NocError;
use vlsi_object::ObjectError;
use vlsi_topology::{Coord, TopologyError};

/// Errors raised by the VLSI chip.
#[derive(Clone, PartialEq, Debug)]
pub enum CoreError {
    /// The topology layer rejected the operation.
    Topology(TopologyError),
    /// The NoC rejected or timed out on a configuration worm.
    Noc(NocError),
    /// The adaptive processor rejected the operation.
    Ap(ApError),
    /// The object model rejected the operation.
    Object(ObjectError),
    /// A region referenced a cluster outside the chip.
    OutOfGrid(Coord),
    /// A region included a cluster marked defective.
    DefectiveCluster(Coord),
    /// The processor ID is not allocated.
    UnknownProcessor(ProcessorId),
    /// An operation required a different lifecycle state.
    BadState {
        /// The processor involved.
        id: ProcessorId,
        /// Its current state.
        current: ProcState,
        /// The state the operation required.
        required: ProcState,
    },
    /// An illegal lifecycle transition was requested.
    BadTransition {
        /// The processor involved.
        id: ProcessorId,
        /// Its current state.
        from: ProcState,
        /// The requested state.
        to: ProcState,
    },
    /// A read/write touched a protected processor's memory.
    ProtectionViolation {
        /// The processor whose memory was touched.
        id: ProcessorId,
        /// Its state at the time.
        state: ProcState,
    },
    /// A batch execution named the same processor twice.
    DuplicateInBatch(ProcessorId),
    /// Fusing requires the two regions to be disjoint and their union
    /// connected.
    CannotFuse,
    /// Splitting requires the parts to partition the region exactly.
    BadSplit,
    /// A block program's terminator named a block it does not have.
    UnknownBlock(usize),
    /// A block program walked more blocks than it has: a back edge
    /// (partitioned programs are acyclic).
    BlockCycle {
        /// The block the walk would have entered again.
        block: usize,
    },
    /// A branching block produced no condition value.
    MissingCondition {
        /// The branching block.
        block: usize,
    },
    /// A placed deployment got a different number of regions than the
    /// program has stages.
    RegionCountMismatch {
        /// Regions supplied.
        regions: usize,
        /// Stages in the program.
        stages: usize,
    },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Topology(e) => write!(f, "topology: {e}"),
            CoreError::Noc(e) => write!(f, "noc: {e}"),
            CoreError::Ap(e) => write!(f, "processor: {e}"),
            CoreError::Object(e) => write!(f, "object: {e}"),
            CoreError::OutOfGrid(c) => write!(f, "cluster {c} outside the chip"),
            CoreError::DefectiveCluster(c) => write!(f, "cluster {c} is defective"),
            CoreError::UnknownProcessor(id) => write!(f, "unknown processor {id}"),
            CoreError::BadState {
                id,
                current,
                required,
            } => write!(f, "{id} is {current}, operation requires {required}"),
            CoreError::BadTransition { id, from, to } => {
                write!(f, "{id}: illegal transition {from} -> {to}")
            }
            CoreError::ProtectionViolation { id, state } => {
                write!(f, "{id} is {state}: memory is protected")
            }
            CoreError::DuplicateInBatch(id) => {
                write!(f, "processor {id} named twice in one batch")
            }
            CoreError::CannotFuse => write!(f, "regions cannot fuse"),
            CoreError::BadSplit => write!(f, "parts do not partition the region"),
            CoreError::UnknownBlock(b) => write!(f, "no block {b} in the program"),
            CoreError::BlockCycle { block } => {
                write!(f, "block program loops back into block {block}")
            }
            CoreError::MissingCondition { block } => {
                write!(f, "branching block {block} computed no condition")
            }
            CoreError::RegionCountMismatch { regions, stages } => {
                write!(f, "{regions} regions for {stages} stages")
            }
        }
    }
}

impl std::error::Error for CoreError {}

impl From<TopologyError> for CoreError {
    fn from(e: TopologyError) -> CoreError {
        CoreError::Topology(e)
    }
}

impl From<NocError> for CoreError {
    fn from(e: NocError) -> CoreError {
        CoreError::Noc(e)
    }
}

impl From<ApError> for CoreError {
    fn from(e: ApError) -> CoreError {
        CoreError::Ap(e)
    }
}

impl From<ObjectError> for CoreError {
    fn from(e: ObjectError) -> CoreError {
        CoreError::Object(e)
    }
}
