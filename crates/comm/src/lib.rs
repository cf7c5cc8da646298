//! # msc-comm — the MSC communication library
//!
//! The paper's communication library (§4.4) has three parts: domain
//! decomposition, asynchronous halo exchange, and performance
//! auto-tuning (the tuner lives in `msc-tune`). This crate implements the
//! first two against a *real message-passing runtime*: ranks are OS
//! threads, `isend`/`irecv` are non-blocking operations over channels,
//! and the halo data genuinely travels between rank-local grids. Nothing
//! is shared — every access a rank makes to remote data must have been
//! received through a message, exactly as in MPI.
//!
//! * [`region`] — rectangular sub-regions of a padded grid (pack/unpack);
//! * [`decomp`] — Cartesian domain decomposition: sub-grids, neighbour
//!   ranks, inner (send) and outer (receive) halo regions, with
//!   dimension-ordered exchange so box-stencil corners propagate;
//! * [`runtime`] — the message-passing world: `isend`, `irecv`,
//!   `wait`, tags, out-of-order delivery buffering, plus the
//!   ack/retransmit reliability protocol and typed [`CommError`]s;
//! * [`halo`] — the halo-exchange operation built from the above;
//! * [`fault`] — deterministic seed-driven chaos injection (drops,
//!   duplicates, reordering, bit corruption, rank kills);
//! * [`checkpoint`] — periodic window-ring snapshots the resilient
//!   driver restarts from after a rank failure;
//! * [`backend`] — the pluggable halo libraries behind one trait;
//! * [`distributed`] — the full multi-rank stencil driver. Its one entry
//!   point is [`run_distributed_resilient`]: every capability (halo
//!   library, SPM staging, tier, chaos, checkpoints, spares) is a field
//!   of [`RunOptions`], and every run passes the lint gate before a rank
//!   spawns. Large-scale execution is bit-identical to single-node runs,
//!   even under injected faults.

pub mod backend;
pub mod checkpoint;
pub mod collectives;
pub mod decomp;
pub mod distributed;
pub mod error;
pub mod fault;
pub mod halo;
pub mod region;
pub mod runtime;

pub use backend::{Backend, FullNeighborExchange, HaloBackend};
pub use checkpoint::{ring_to_wire, wire_to_ring, BuddySnapshots, CheckpointStore};
pub use collectives::{allreduce, barrier, broadcast, ReduceOp};
pub use decomp::CartDecomp;
pub use distributed::{run_distributed_resilient, CommStats, RunOptions};
pub use error::CommError;
pub use fault::{FaultAction, FaultPlan, KillSpec};
pub use halo::HaloExchange;
pub use region::Region;
pub use runtime::{
    FailureOutcome, FailureRecord, HeartbeatConfig, Membership, RankCtx, RecoverySource,
    RecvRequest, ReliabilityConfig, Wire, World, WorldConfig,
};
