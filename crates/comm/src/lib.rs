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
//! * [`msc_core::halo`] (re-exported here) — the pure-data half:
//!   Cartesian domain decomposition ([`CartDecomp`]), boxes of a padded
//!   grid ([`Region`]) and the per-rank message table ([`HaloPlan`]:
//!   peer, inner-halo box to send, outer-halo box to receive, tags,
//!   grouped into ordered phases; [`Backend`] only chooses how the table
//!   is filled — dimension-ordered faces whose phase order carries the
//!   corners, or GCL-style explicit messages to all `3^n − 1`
//!   neighbours). The emitted MPI C and the simulator read the same table;
//! * [`runtime`] — the message-passing world over a reliable channel:
//!   `isend`, `irecv`, `wait`, tags, out-of-order delivery buffering,
//!   dead-source detection, one wait deadline, and typed [`CommError`]s;
//! * [`plan`] — the one loop that runs a rank's [`HaloPlan`]: pack,
//!   `isend` / `irecv`, wait, unpack, phase by phase;
//! * [`fault`] — deterministic seed-driven chaos injection (reordering
//!   by delay, rank kills);
//! * [`checkpoint`] — periodic window-ring snapshots the resilient
//!   driver restarts from after a rank failure;
//! * [`distributed`] — the full multi-rank stencil driver: every rank
//!   drives the single node's time loop (`msc_exec::TimeLoop`) over its
//!   sub-grid with the halo exchange hooked into each step. Its one entry
//!   point is [`run_distributed_resilient`]: every capability (halo
//!   layout, SPM staging, tier, chaos, checkpoints, spares) is a field
//!   of [`RunOptions`], and a program is checked once, before a rank
//!   spawns. Large-scale execution is bit-identical to single-node runs,
//!   even under injected faults.

pub mod checkpoint;
pub mod distributed;
pub mod error;
pub mod fault;
pub mod plan;
pub mod runtime;

pub use checkpoint::{BuddySnapshots, CheckpointStore, CHECKPOINT_KEEP};
pub use distributed::{run_distributed_resilient, CommStats, RunOptions};
pub use error::CommError;
pub use fault::{FaultPlan, KillSpec};
pub use msc_core::halo::{Backend, CartDecomp, HaloPlan, Region};
pub use runtime::{RankCtx, RecoverySource, RecvRequest, World, WorldConfig};
