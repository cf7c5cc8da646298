//! `compile_many`: what someone compiling or lifting waits for. One
//! pass takes the 24 committed sources (the eight Table-4 stencils at
//! 4096^2 / 256^3, each for cpu, matrix and sunway with its Table-5
//! schedule) from text to a C package, auto-schedules two of them, and
//! lifts and validates the four C files. No executor runs except inside
//! lift validation, on toy grids.

use crate::common::{Ctx, Reps, Tally, INPUT_DIR};
use crate::front::front;
use crate::layers::{self, Own};
use crate::spans::Recorder;
use crate::stats::quiet;
use std::path::Path;
use std::time::Instant;

/// The two programs a pass auto-schedules: one 3D star on the
/// scratchpad target (tile sweep, streaming and temporal phases all
/// run) and one 2D box on the cache target.
const TUNED: [&str; 2] = ["3d7pt_star.sunway.msc", "2d9pt_box.matrix.msc"];

pub struct Inputs {
    /// `(file name, text)`, sorted by name so a pass is the same walk
    /// on every run.
    pub sources: Vec<(String, String)>,
    pub c_files: Vec<(String, String)>,
}

fn read_dir(dir: &Path, ext: &str) -> Result<Vec<(String, String)>, String> {
    let mut out = Vec::new();
    for entry in
        std::fs::read_dir(dir).map_err(|e| format!("cannot list {}: {e}", dir.display()))?
    {
        let path = entry.map_err(|e| e.to_string())?.path();
        if path.extension().is_some_and(|e| e == ext) {
            let name = path
                .file_name()
                .and_then(|n| n.to_str())
                .ok_or("input file name is not UTF-8")?
                .to_string();
            let text = std::fs::read_to_string(&path)
                .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
            out.push((name, text));
        }
    }
    out.sort();
    Ok(out)
}

impl Inputs {
    pub fn load() -> Result<Inputs, String> {
        let inputs = Inputs {
            sources: read_dir(&Path::new(INPUT_DIR).join("compile"), "msc")?,
            c_files: read_dir(&Path::new(INPUT_DIR).join("lift"), "c")?,
        };
        if inputs.sources.len() != 24 || inputs.c_files.len() != 4 {
            return Err(format!(
                "expected 24 sources and 4 C files, found {} and {}",
                inputs.sources.len(),
                inputs.c_files.len()
            ));
        }
        Ok(inputs)
    }

    pub fn texts(&self) -> Vec<String> {
        self.sources.iter().map(|(_, t)| t.clone()).collect()
    }
}

/// FNV-1a over a package's files: passes must emit the same bytes.
fn package_hash(pkg: &msc_codegen::CodePackage) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for name in pkg.file_names() {
        for b in name.bytes().chain(pkg.file(name).unwrap_or("").bytes()) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// The compile half: 24 x (parse -> lint -> lower -> emit) and the two
/// auto-schedule calls. Returns what was attempted and what failed, and
/// the hash of everything emitted.
pub fn compile_part(rec: &Recorder, op: u64, inputs: &Inputs) -> Result<(Tally, u64), String> {
    let mut tally = Tally::default();
    let mut all = 0u64;
    for (_, source) in &inputs.sources {
        let f = front(rec, op, source);
        let pkg = f.and_then(|f| {
            let _s = rec.span("codegen.emit", op);
            msc_codegen::compile_to_source(&f.program, f.target).map_err(|e| format!("emit: {e}"))
        });
        tally.note(pkg.as_ref().is_ok_and(|p| p.total_loc() > 0));
        if let Ok(pkg) = pkg {
            all = all.rotate_left(7) ^ package_hash(&pkg);
        }
    }
    for name in TUNED {
        let source = &inputs
            .sources
            .iter()
            .find(|(n, _)| n == name)
            .ok_or_else(|| format!("no input {name}"))?
            .1;
        tally.note(
            front(rec, op, source)
                .and_then(|f| layers::auto_schedule(rec, op, &f))
                .is_ok(),
        );
    }
    Ok((tally, all))
}

pub struct Lifted {
    pub tally: Tally,
    pub lift_s: Vec<f64>,
    pub validate_s: Vec<f64>,
}

/// The lift half: each C file lifted, then validated bit for bit against
/// direct interpretation of the C nest on three seeds and all three
/// execution tiers (`validate` does that itself). A lift that is denied
/// or not validated is a failed operation.
pub fn lift_part(rec: &Recorder, op: u64, inputs: &Inputs, seed: u64) -> Result<Lifted, String> {
    let mut out = Lifted {
        tally: Tally::default(),
        lift_s: vec![],
        validate_s: vec![],
    };
    let seeds = [seed, seed.wrapping_add(1), seed.wrapping_add(2)];
    for (name, text) in &inputs.c_files {
        let stem = name.trim_end_matches(".c");
        let t0 = Instant::now();
        let outcome = {
            let _s = rec.span("lift.lift", op);
            msc_lift::lift_source(text, stem)
        };
        out.lift_s.push(t0.elapsed().as_secs_f64());
        let t0 = Instant::now();
        let validated = match (&outcome.lifted, outcome.report.has_deny()) {
            (Some(lifted), false) => {
                let _s = rec.span("lift.validate", op);
                msc_lift::validate(lifted, &seeds).is_ok_and(|v| v.tiers == 3 && v.seeds.len() == 3)
            }
            _ => false,
        };
        out.validate_s.push(t0.elapsed().as_secs_f64());
        out.tally.note(validated);
    }
    Ok(out)
}

struct Pass {
    op_s: f64,
    compile_s: f64,
}

fn pass(ctx: &mut Ctx, op: u64, inputs: &Inputs, expect_hash: u64) -> Result<Pass, String> {
    let t0 = Instant::now();
    let _op = ctx.rec.span("op.pass", op);
    let (tally, hash) = compile_part(&ctx.rec, op, inputs)?;
    let compile_s = t0.elapsed().as_secs_f64();
    let lifted = lift_part(&ctx.rec, op, inputs, ctx.args.seed)?;
    let op_s = t0.elapsed().as_secs_f64();
    ctx.tally.merge(tally);
    ctx.tally.merge(lifted.tally);
    // Emission is deterministic: every pass writes the set-up pass's bytes.
    ctx.tally.note(hash == expect_hash);
    Ok(Pass { op_s, compile_s })
}

pub fn run(ctx: &mut Ctx) -> Result<(), String> {
    let setups = if ctx.args.smoke || ctx.args.trace {
        1
    } else {
        15
    };
    let mut setup_s = vec![];
    let mut first = None;
    for _ in 0..setups {
        let t0 = Instant::now();
        let inputs = Inputs::load()?;
        let (tally, hash) = compile_part(&ctx.rec, 0, &inputs)?;
        let lifted = lift_part(&ctx.rec, 0, &inputs, ctx.args.seed)?;
        setup_s.push(t0.elapsed().as_secs_f64());
        ctx.tally.merge(tally);
        ctx.tally.merge(lifted.tally);
        first.get_or_insert((inputs, hash));
    }
    let (inputs, hash) = first.expect("at least one set-up ran");
    let est = pass(ctx, 0, &inputs, hash)?.op_s;

    if ctx.args.trace {
        let pairs = if ctx.args.smoke {
            2
        } else {
            ((ctx.args.seconds / (2.0 * est)) as usize).clamp(5, 50)
        };
        let main = layers::traced_pairs(ctx, pairs, |ctx, op| {
            let p = pass(ctx, op, &inputs, hash)?;
            Ok((p.op_s, p.compile_s))
        })?;
        let texts = inputs.texts();
        return layers::account(ctx, "compile_many", &main, Own::probe_only(&texts));
    }

    let reps = Reps::new(&ctx.args, 50, 5);
    let mut passes: Vec<Pass> = vec![];
    while reps.more(passes.len()) {
        passes.push(pass(ctx, passes.len() as u64, &inputs, hash)?);
    }
    let op_s: Vec<f64> = passes.iter().map(|p| p.op_s).collect();
    ctx.info(
        "compile_pass_ms",
        quiet(&passes.iter().map(|p| p.compile_s).collect::<Vec<_>>()) * 1e3,
        "ms",
    );
    ctx.info(
        "lift_pass_ms",
        quiet(
            &passes
                .iter()
                .map(|p| p.op_s - p.compile_s)
                .collect::<Vec<_>>(),
        ) * 1e3,
        "ms",
    );

    ctx.info_tail("pass_p95_ms", &op_s, 0.95);
    // Work items of a pass: the 24 sources and the 4 C files.
    let items = (inputs.sources.len() + inputs.c_files.len()) as f64;
    ctx.set_end_to_end(&setup_s, &op_s, items / quiet(&op_s));
    Ok(())
}
