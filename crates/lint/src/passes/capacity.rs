//! Capacity and decomposition lints (MSC-L401..L404): SPM staging
//! buffers versus the target's scratchpad size, DMA row granularity, and
//! the MPI process grid versus the global extents.

use crate::code::LintCode;
use crate::diag::{Diagnostic, Report};
use msc_core::dsl::{proc_grid_defects, ProcGridDefect, StencilProgram};
use msc_core::footprint::Footprint;
use msc_core::schedule::plan::{spm_buffer_elems, spm_staging_bytes, ExecPlan};
use msc_core::schedule::Target;
use msc_machine::{matrix_processor, sunway_cg, xeon_server, MachineModel};

/// DMA transfers below this row size are dominated by the engine's
/// startup latency (paper §5.2: short innermost tiles waste DMA
/// bandwidth).
pub const DMA_MIN_ROW_BYTES: usize = 128;

fn machine_for(target: Target) -> MachineModel {
    match target {
        Target::SunwayCG => sunway_cg(),
        Target::Matrix => matrix_processor(),
        Target::Cpu => xeon_server(),
    }
}

pub fn run(
    program: &StencilProgram,
    fp: &Footprint,
    target: Option<Target>,
    report: &mut Report,
) {
    let grid = &program.grid;

    // The process-grid rule `CartDecomp::new` enforces at run entry,
    // reported before any rank spawns.
    if let Some(mpi) = &program.mpi_grid {
        for defect in proc_grid_defects(&grid.shape, mpi, &fp.required_halo()) {
            let (code, message, help) = match defect {
                ProcGridDefect::Indivisible { dim, extent, procs } => (
                    LintCode::MpiGridIndivisible,
                    format!(
                        "global extent {extent} in dim {dim} is not divisible by the \
                         {procs}-way process grid"
                    ),
                    "choose a process count that divides the extent",
                ),
                ProcGridDefect::TooNarrow { dim, sub, reach } => (
                    LintCode::MpiSubgridTooNarrow,
                    format!(
                        "per-rank sub-extent {sub} in dim {dim} is smaller than the \
                         halo exchange depth {reach}"
                    ),
                    "use fewer ranks along this dimension",
                ),
            };
            report.push(Diagnostic::new(
                code,
                message,
                format!("mpi grid of `{}`", program.name),
                help.to_string(),
            ));
        }
    }

    let Some(target) = target else { return };
    run_target(program, target, report);
}

/// The lints that depend on the target: SPM staging capacity, only
/// meaningful on a cache-less one. `spm_staging_bytes` is the function
/// `msc-exec`'s SPM staging checks its capacity with, so a program that
/// passes here cannot hit the runtime "SPM buffers need N bytes" error.
pub fn run_target(program: &StencilProgram, target: Target, report: &mut Report) {
    let grid = &program.grid;
    let machine = machine_for(target);
    let Some(spm) = machine.spm_bytes() else { return };
    let elem = grid.dtype.size_bytes();
    let reach = program.stencil.reach();

    for kernel in &program.stencil.kernels {
        let sched = &kernel.schedule;
        if !sched.uses_spm() {
            continue;
        }
        // Illegal schedules are the legality layer's report, not ours.
        let Ok(plan) = ExecPlan::lower(sched, grid.ndim(), &grid.shape) else {
            continue;
        };
        let (read, write) = spm_buffer_elems(&plan.tile, &reach);
        let needed = spm_staging_bytes(&plan.tile, &reach, elem, plan.double_buffer);
        let ctx = format!("kernel `{}` schedule", kernel.name);
        if needed > spm {
            report.push(Diagnostic::new(
                LintCode::SpmOverflow,
                format!(
                    "staging buffers need {needed} B ({read}+{write} elements{}) \
                     but `{}` has {spm} B of SPM per core",
                    if plan.double_buffer {
                        ", double-buffered"
                    } else {
                        ""
                    },
                    machine.name
                ),
                ctx,
                "shrink the tile factors (see the Table 5 presets) or drop \
                 stream()"
                    .to_string(),
            ));
        } else {
            let last = grid.ndim() - 1;
            let row_bytes = (plan.tile[last] + 2 * reach[last]) * elem;
            if row_bytes < DMA_MIN_ROW_BYTES {
                report.push(Diagnostic::new(
                    LintCode::DmaRowTooShort,
                    format!(
                        "innermost DMA rows are {row_bytes} B; transfers below \
                         {DMA_MIN_ROW_BYTES} B are startup-dominated on `{}`",
                        machine.name
                    ),
                    ctx,
                    "widen the innermost tile factor".to_string(),
                ));
            }
        }
    }
}
