//! Schedule layer: the optimization primitives of the paper (§4.3) and the
//! lowering from a scheduled kernel to an execution plan.
//!
//! * [`primitives`] — `tile`, `reorder`, `parallel`, `cache_read`,
//!   `cache_write`, `compute_at` (all rewrite the IR, paper Table 2).
//! * [`plan`] — [`ExecPlan`], the flat execution plan consumed by the
//!   functional executor, the C code generators and the timing simulator.
//! * [`legality`] — schedule validation.
//! * [`window`] — the sliding-time-window planner (paper Figure 5).
//! * [`presets`] — the paper's Table 5 parameter settings.

pub mod legality;
pub mod plan;
pub mod presets;
pub mod primitives;
pub mod window;

pub use plan::ExecPlan;
pub use presets::{
    effective_schedule, preset_for, preset_for_grid, table5_reorder, table5_tile, Target,
};
pub use primitives::{BufferScope, Schedule};
pub use window::WindowPlan;
