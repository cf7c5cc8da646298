//! MPI variant: wraps the single-node kernel with domain decomposition
//! and the asynchronous halo exchange of the communication library
//! (paper §4.4) — pack, `MPI_Isend`/`MPI_Irecv`, `MPI_Waitall`, unpack,
//! dimension-ordered so box-stencil corners propagate. Which box goes to
//! which neighbour under which tag is not derived here: the driver prints
//! the rows of the halo plan `msc-comm` runs ([`msc_core::halo`]).

use crate::ir_to_c::Layout;
use msc_core::error::Result;
use msc_core::halo::{Backend, CartDecomp, HaloMsg, HaloPlan};
use msc_core::schedule::Target;
use msc_lint::Checked;

const DIMS: [&str; 3] = ["X", "Y", "Z"];

/// `{ a, b, c }`.
fn c_list<T: std::fmt::Display>(items: impl IntoIterator<Item = T>) -> String {
    let items: Vec<String> = items.into_iter().map(|i| i.to_string()).collect();
    format!("{{ {} }}", items.join(", "))
}

/// The dimension-ordered plan for the program's decomposition with every
/// row in it. Rows do not depend on the rank (the decomposition is even),
/// so they are read off a rank of the all-periodic twin, which has both
/// faces of every phase; in the emitted C `MPI_Cart_shift` decides which
/// rows a rank uses. The halo width is the layout's, so the boxes index
/// the buffers the kernel reads.
fn torus_plan(layout: &Layout, procs: &[usize]) -> Result<HaloPlan> {
    let torus = CartDecomp::new(&layout.shape, procs, &layout.halo)?
        .with_periodicity(&vec![true; layout.ndim])?;
    Ok(HaloPlan::new(&torus, 0, Backend::DimOrdered))
}

/// Emit the sub-grid geometry of the generated MPI driver: local
/// extents, strides and the region odometer copy.
fn geometry(layout: &Layout, elem: &str) -> String {
    let ndim = layout.ndim;
    let mut c = String::new();

    // Local (per-rank) geometry. The kernel object linked next to this
    // driver must be generated for the sub-grid shape.
    for d in &DIMS[..ndim] {
        c += &format!("#define L{d} (N{d} / PROCS{d})\n");
        c += &format!("#define PL{d} (L{d} + 2 * H{d})\n");
    }
    c += &format!(
        "static const long LPAD[{ndim}] = {};\n",
        c_list(DIMS[..ndim].iter().map(|d| format!("PL{d}")))
    );
    c += &format!("static long LSTRIDE[{ndim}];\nstatic long LPAD_LEN;\n\n");

    c += &format!(
        "static void init_geometry(void) {{\n\
         \x20   LSTRIDE[{last}] = 1;\n\
         \x20   for (int d = {last}; d > 0; d--) LSTRIDE[d - 1] = LSTRIDE[d] * LPAD[d];\n\
         \x20   LPAD_LEN = LSTRIDE[0] * LPAD[0];\n\
         }}\n\n",
        last = ndim - 1
    );

    // Row-wise odometer copy, shared by pack (pack=1) and unpack.
    c += &format!(
        "static long copy_region({elem}* g, const long start[{ndim}], const long ext[{ndim}], {elem}* buf, int pack) {{\n\
         \x20   long c[{ndim}] = {{ 0 }};\n\
         \x20   long off = 0;\n\
         \x20   long row = ext[{last}];\n\
         \x20   for (;;) {{\n\
         \x20       long lin = 0;\n\
         \x20       for (int dd = 0; dd < {ndim}; dd++) lin += (start[dd] + c[dd]) * LSTRIDE[dd];\n\
         \x20       if (pack) for (long i = 0; i < row; i++) buf[off + i] = g[lin + i];\n\
         \x20       else      for (long i = 0; i < row; i++) g[lin + i] = buf[off + i];\n\
         \x20       off += row;\n\
         \x20       int d = {ndim} - 1;\n\
         \x20       for (;;) {{\n\
         \x20           if (d == 0) return off;\n\
         \x20           d--;\n\
         \x20           if (++c[d] < ext[d]) break;\n\
         \x20           c[d] = 0;\n\
         \x20       }}\n\
         \x20   }}\n\
         }}\n\n",
        last = ndim - 1
    );
    c
}

/// Emit the halo exchange in two pieces: the plan's rows as a static
/// table with one send and one receive buffer per row, and the loop that
/// runs the phases in order, asynchronous inside a phase. A stencil that
/// reaches into no dimension has no rows and exchanges nothing.
fn halo_section(rows: &[Vec<HaloMsg>], ndim: usize, elem: &str) -> (String, String) {
    if rows.is_empty() {
        return (
            "static void alloc_halo_buffers(void) {}\n\n".into(),
            format!("static void halo_exchange({elem}* g) {{ (void)g; }}\n\n"),
        );
    }
    let mpi_ty = if elem == "float" { "MPI_FLOAT" } else { "MPI_DOUBLE" };
    let mut table = String::new();
    table += "/* The halo plan, one phase per exchanged dimension: its -1 and +1 face,\n\
         \x20  boxes in local padded coordinates. The same rows on every rank. */\n";
    table += &format!("#define N_PHASES {}\n", rows.len());
    table += &format!(
        "static const struct halo_face {{\n\
         \x20   int dim;\n\
         \x20   long send[{ndim}], recv[{ndim}], ext[{ndim}], count;\n\
         \x20   int send_tag, recv_tag;\n\
         }} HALO[N_PHASES][2] = {{\n"
    );
    let row = |m: &HaloMsg| {
        let dim = m
            .offset
            .iter()
            .position(|&o| o != 0)
            .expect("a face has a direction");
        format!(
            "{{ {dim}, {}, {}, {}, {}, {}, {} }}",
            c_list(&m.send.start),
            c_list(&m.recv.start),
            c_list(&m.send.extent),
            m.send.len(),
            m.send_tag,
            m.recv_tag
        )
    };
    for phase in rows {
        table += &format!("    {{ {},\n      {} }},\n", row(&phase[0]), row(&phase[1]));
    }
    table += "};\n";
    table += &format!(
        "static {elem}* send_buf[N_PHASES][2];\nstatic {elem}* recv_buf[N_PHASES][2];\n\n"
    );

    table += &format!(
        "static void alloc_halo_buffers(void) {{\n\
         \x20   for (int p = 0; p < N_PHASES; p++)\n\
         \x20       for (int dir = 0; dir < 2; dir++) {{\n\
         \x20           send_buf[p][dir] = ({elem}*)malloc(sizeof({elem}) * HALO[p][dir].count);\n\
         \x20           recv_buf[p][dir] = ({elem}*)malloc(sizeof({elem}) * HALO[p][dir].count);\n\
         \x20       }}\n\
         }}\n\n"
    );

    // Halo exchange: dimension-ordered, asynchronous per phase.
    let mut c = format!("static void halo_exchange({elem}* g) {{\n");
    c += "    for (int p = 0; p < N_PHASES; p++) {\n";
    c += "        MPI_Request reqs[4];\n";
    c += "        int nreq = 0;\n";
    c += "        for (int dir = 0; dir < 2; dir++) {\n";
    c += "            const struct halo_face* f = &HALO[p][dir];\n";
    c += "            if (nbr[f->dim][dir] == MPI_PROC_NULL) continue;\n";
    c += "            copy_region(g, f->send, f->ext, send_buf[p][dir], 1);\n";
    c += &format!(
        "            MPI_Isend(send_buf[p][dir], f->count, {mpi_ty}, nbr[f->dim][dir], f->send_tag, cart, &reqs[nreq++]);\n"
    );
    c += &format!(
        "            MPI_Irecv(recv_buf[p][dir], f->count, {mpi_ty}, nbr[f->dim][dir], f->recv_tag, cart, &reqs[nreq++]);\n"
    );
    c += "        }\n";
    c += "        MPI_Waitall(nreq, reqs, MPI_STATUSES_IGNORE);\n";
    c += "        for (int dir = 0; dir < 2; dir++) {\n";
    c += "            const struct halo_face* f = &HALO[p][dir];\n";
    c += "            if (nbr[f->dim][dir] != MPI_PROC_NULL) copy_region(g, f->recv, f->ext, recv_buf[p][dir], 0);\n";
    c += "        }\n";
    c += "    }\n";
    c += "}\n\n";
    (table, c)
}

/// Emit buffer allocation and deterministic input loading.
fn buffers_and_input(elem: &str) -> String {
    format!(
        "static void alloc_buffers(void) {{\n\
         \x20   init_geometry();\n\
         \x20   for (int s = 0; s < WINDOW; s++)\n\
         \x20       state[s] = ({elem}*)malloc(sizeof({elem}) * LPAD_LEN);\n\
         \x20   alloc_halo_buffers();\n\
         }}\n\n\
         /* Deterministic input, standing in for /data/rand.data; a path\n\
         \x20  argument overrides it with binary doubles. */\n\
         static void load_input(const char* path) {{\n\
         \x20   if (path) {{\n\
         \x20       FILE* f = fopen(path, \"rb\");\n\
         \x20       if (f) {{\n\
         \x20           for (int s = 0; s < WINDOW; s++)\n\
         \x20               if (fread(state[s], sizeof({elem}), LPAD_LEN, f) != (size_t)LPAD_LEN) break;\n\
         \x20           fclose(f);\n\
         \x20           return;\n\
         \x20       }}\n\
         \x20   }}\n\
         \x20   for (int s = 0; s < WINDOW; s++)\n\
         \x20       for (long i = 0; i < LPAD_LEN; i++) {{\n\
         \x20           unsigned int x = (unsigned int)((unsigned long)i * 2654435761u + 12345u);\n\
         \x20           state[s][i] = ({elem})((double)x / 4294967296.0);\n\
         \x20       }}\n\
         }}\n\n"
    )
}

/// Generate the MPI main translation unit. The kernel itself is the
/// target's single-node `msc_step` (linked from `main.c`/`slave.c`).
pub fn generate(program: &Checked<'_>, target: Target) -> Result<String> {
    let layout = Layout::of(program)?;
    let elem = layout.elem_c;
    let mpi = program
        .mpi_grid
        .clone()
        .unwrap_or_else(|| vec![1; layout.ndim]);
    let ndim = layout.ndim;
    let plan = torus_plan(&layout, &mpi)?;
    let max_dt = program.stencil.max_dt();

    let mut c = String::new();
    c += &format!(
        "/* Generated by MSC (MPI driver, target `{}`) — stencil `{}`. */\n",
        target.as_str(),
        program.name
    );
    c += "#include <mpi.h>\n#include <stdio.h>\n#include <stdlib.h>\n#include <string.h>\n\n";
    c += &layout.defines();
    c += &format!("#define STEPS {}\n#define MAXDT {}\n", program.timesteps, max_dt);
    for (d, procs) in DIMS.iter().zip(&mpi) {
        c += &format!("#define PROCS{d} {procs}\n");
    }
    c += &format!(
        "#define N_PROCS {}\n\n",
        mpi.iter().product::<usize>()
    );
    c += &format!("extern void msc_step(const {elem}* in[MAXDT], {elem}* out);\n\n");
    c += &format!("static {elem}* state[WINDOW];\n\n");

    // Neighbour computation from the Cartesian communicator.
    c += "static MPI_Comm cart;\nstatic int my_rank;\nstatic int nbr[";
    c += &format!("{}][2];\n\n", ndim);

    let (halo_table, halo_exchange) = halo_section(plan.phases(), ndim, elem);
    c += &geometry(&layout, elem);
    c += &halo_table;
    c += &buffers_and_input(elem);

    c += "static void setup_cart(void) {\n";
    c += &format!(
        "    int dims[{ndim}] = {};\n",
        c_list(DIMS[..ndim].iter().map(|d| format!("PROCS{d}")))
    );
    c += &format!("    int periods[{ndim}] = {{ 0 }};\n");
    c += &format!("    MPI_Cart_create(MPI_COMM_WORLD, {ndim}, dims, periods, 0, &cart);\n");
    c += "    MPI_Comm_rank(cart, &my_rank);\n";
    c += &format!("    for (int d = 0; d < {ndim}; d++)\n");
    c += "        MPI_Cart_shift(cart, d, 1, &nbr[d][0], &nbr[d][1]);\n";
    c += "}\n\n";

    c += &halo_exchange;

    c += "int main(int argc, char** argv) {\n";
    c += "    MPI_Init(&argc, &argv);\n";
    c += "    setup_cart();\n";
    c += "    alloc_buffers();\n";
    c += "    load_input(argv[1]);\n";
    c += "    double t0 = MPI_Wtime();\n";
    c += "    for (int s = 0; s < STEPS; s++) {\n";
    c += "        int t = MAXDT + s;\n";
    c += &format!("        const {elem}* in[MAXDT];\n");
    for dt in 1..=max_dt {
        c += &format!("        in[{}] = state[(t - {dt}) % WINDOW];\n", dt - 1);
    }
    c += "        msc_step(in, state[t % WINDOW]);\n";
    c += "        if (s + 1 < STEPS) halo_exchange(state[t % WINDOW]);\n";
    c += "    }\n";
    c += "    double t1 = MPI_Wtime();\n";
    c += "    if (my_rank == 0) printf(\"elapsed_s %.6f\\n\", t1 - t0);\n";
    c += "    MPI_Finalize();\n";
    c += "    return 0;\n";
    c += "}\n";
    Ok(c)
}

#[cfg(test)]
mod tests {
    use super::*;
    use msc_core::catalog::{benchmark, BenchmarkId};
    use msc_core::prelude::*;

    fn gen() -> String {
        let b = benchmark(BenchmarkId::S3d7ptStar);
        let mut p = b.program(&[256, 256, 256], DType::F64, 10).unwrap();
        p.mpi_grid = Some(vec![4, 4, 4]);
        generate(
            &msc_lint::check(&p, Some(Target::SunwayCG)).unwrap(),
            Target::SunwayCG,
        )
        .unwrap()
    }

    #[test]
    fn uses_async_mpi_primitives() {
        let c = gen();
        assert!(c.contains("MPI_Isend"));
        assert!(c.contains("MPI_Irecv"));
        assert!(c.contains("MPI_Waitall"));
        assert!(c.contains("MPI_Cart_create"));
    }

    #[test]
    fn process_grid_constants_match_program() {
        let c = gen();
        assert!(c.contains("#define PROCSX 4"));
        assert!(c.contains("#define N_PROCS 64"));
    }

    #[test]
    fn exchange_is_interleaved_with_compute() {
        // The exchange happens after each step's compute and is skipped
        // on the final step.
        let c = gen();
        assert!(c.contains("if (s + 1 < STEPS) halo_exchange"));
    }

    #[test]
    fn braces_balanced() {
        let c = gen();
        assert_eq!(c.matches('{').count(), c.matches('}').count());
    }

    #[test]
    fn every_referenced_helper_is_defined() {
        let c = gen();
        for helper in [
            "alloc_halo_buffers",
            "alloc_buffers",
            "load_input",
            "copy_region",
            "halo_exchange",
        ] {
            assert!(
                c.contains(&format!("static long {helper}("))
                    || c.contains(&format!("static void {helper}(")),
                "helper `{helper}` referenced but not generated"
            );
        }
    }

    #[test]
    fn local_geometry_divides_global_by_process_grid() {
        let c = gen();
        assert!(c.contains("#define LX (NX / PROCSX)"));
        assert!(c.contains("#define PLX (LX + 2 * HX)"));
    }

    #[test]
    fn the_table_is_the_plan_of_every_rank() {
        // 256^3 over 4x4x4: an interior rank's plan, row for row.
        let c = gen();
        let d = CartDecomp::new(&[256; 3], &[4; 3], &[1; 3]).unwrap();
        let interior = d.rank_of(&[1, 1, 1]);
        let plan = HaloPlan::new(&d, interior, Backend::DimOrdered);
        assert_eq!(plan.volume().0, 6);
        for m in plan.phases().iter().flatten() {
            let row = format!(
                "{}, {}, {}, {}, {}, {} }}",
                c_list(&m.send.start),
                c_list(&m.recv.start),
                c_list(&m.send.extent),
                m.send.len(),
                m.send_tag,
                m.recv_tag
            );
            assert!(c.contains(&row), "no row `{row}` in\n{c}");
        }
        assert!(c.contains("#define N_PHASES 3"));
    }

    /// A stub `mpi.h` for one rank on a torus: `MPI_Cart_shift` reports
    /// the rank itself on both sides, `MPI_Isend` parks the buffer under
    /// its tag, `MPI_Waitall` delivers it to the `MPI_Irecv` posted under
    /// the same tag. A datatype is its size in bytes.
    const LOOPBACK_MPI_H: &str = r#"
#ifndef MSC_MPI_STUB
#define MSC_MPI_STUB
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
typedef int MPI_Comm, MPI_Request, MPI_Datatype;
#define MPI_COMM_WORLD 0
#define MPI_PROC_NULL (-1)
#define MPI_DOUBLE 8
#define MPI_FLOAT 4
#define MPI_STATUSES_IGNORE ((void*)0)
static struct msc_msg { void* buf; long bytes; int tag; } msc_sent[8], msc_wanted[8];
static int msc_n_sent, msc_n_wanted;
static int MPI_Init(int* a, char*** b) { (void)a; (void)b; return 0; }
static int MPI_Finalize(void) { return 0; }
static int MPI_Cart_create(MPI_Comm c, int n, int* d, int* p, int r, MPI_Comm* o) { (void)c;(void)n;(void)d;(void)p;(void)r;*o=0; return 0; }
static int MPI_Comm_rank(MPI_Comm c, int* r) { (void)c; *r = 0; return 0; }
static int MPI_Cart_shift(MPI_Comm c, int d, int s, int* lo, int* hi) { (void)c;(void)d;(void)s;*lo=0;*hi=0; return 0; }
static int MPI_Isend(void* b, long n, MPI_Datatype t, int d, int tg, MPI_Comm c, MPI_Request* r) {
    (void)d;(void)c; *r = 0;
    msc_sent[msc_n_sent++] = (struct msc_msg){ b, n * t, tg };
    return 0;
}
static int MPI_Irecv(void* b, long n, MPI_Datatype t, int s, int tg, MPI_Comm c, MPI_Request* r) {
    (void)s;(void)c; *r = 0;
    msc_wanted[msc_n_wanted++] = (struct msc_msg){ b, n * t, tg };
    return 0;
}
static int MPI_Waitall(int n, MPI_Request* r, void* st) {
    (void)n;(void)r;(void)st;
    for (int w = 0; w < msc_n_wanted; w++) {
        int s = 0;
        while (s < msc_n_sent && msc_sent[s].tag != msc_wanted[w].tag) s++;
        if (s == msc_n_sent || msc_sent[s].bytes != msc_wanted[w].bytes) {
            fprintf(stderr, "no send matches the receive under tag %d\n", msc_wanted[w].tag);
            exit(2);
        }
        memcpy(msc_wanted[w].buf, msc_sent[s].buf, msc_sent[s].bytes);
    }
    msc_n_sent = msc_n_wanted = 0;
    return 0;
}
static double MPI_Wtime(void) { return 0.0; }
#endif
"#;

    /// Compile the generated driver (strict C99, so it is also the proof
    /// that it is self-contained, valid C) into a harness that runs its
    /// `halo_exchange` once on the loop-back torus: the interior holds a
    /// function of the cell's coordinate, the halo NaN, and afterwards
    /// every padded cell must hold the value of the interior cell it wraps
    /// onto. Returns `(padded cells, cells that do not)`; `None` without a
    /// host `cc`.
    fn run_loopback_exchange(program: &StencilProgram, tag: &str) -> Option<(usize, usize)> {
        let out = std::process::Command::new("cc")
            .arg("--version")
            .output()
            .ok()?;
        if !out.status.success() {
            return None;
        }
        let layout = Layout::of(program).unwrap();
        let (ndim, elem) = (layout.ndim, layout.elem_c);
        let per_dim = |prefix: &str| c_list(DIMS[..ndim].iter().map(|d| format!("{prefix}{d}")));
        let harness = format!(
            r#"#define main msc_generated_main
#include "mpi_main.c"
#undef main
#include <math.h>
void msc_step(const {elem}* in[MAXDT], {elem}* out) {{ (void)in; (void)out; }}
static const long HW[{ndim}] = {halo}, LD[{ndim}] = {local};
/* What padded cell `i` holds once its halo is filled: a function of the
   interior coordinate it wraps onto. */
static {elem} wrapped(long i, int* interior) {{
    {elem} v = 1;
    *interior = 1;
    for (int d = 0; d < {ndim}; d++) {{
        long c = i / LSTRIDE[d] % LPAD[d] - HW[d];
        if (c < 0 || c >= LD[d]) *interior = 0;
        v = v * 31 + ({elem})((c + LD[d]) % LD[d]);
    }}
    return v;
}}
int main(void) {{
    int interior;
    setup_cart();
    alloc_buffers();
    {elem}* g = state[0];
    for (long i = 0; i < LPAD_LEN; i++) {{
        {elem} v = wrapped(i, &interior);
        g[i] = interior ? v : ({elem})NAN;
    }}
    halo_exchange(g);
    long bad = 0;
    for (long i = 0; i < LPAD_LEN; i++) bad += !(g[i] == wrapped(i, &interior));
    printf("%ld %ld\n", LPAD_LEN, bad);
    return 0;
}}
"#,
            halo = per_dim("H"),
            local = per_dim("L"),
        );
        let dir =
            std::env::temp_dir().join(format!("msc_mpi_loopback_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let c = generate(
            &msc_lint::check(program, Some(Target::Cpu)).unwrap(),
            Target::Cpu,
        )
        .unwrap();
        std::fs::write(dir.join("mpi_main.c"), c).unwrap();
        std::fs::write(dir.join("mpi.h"), LOOPBACK_MPI_H).unwrap();
        std::fs::write(dir.join("harness.c"), harness).unwrap();
        let exe = dir.join("harness");
        let out = std::process::Command::new("cc")
            .args(["-O1", "-std=c99", "-I"])
            .arg(&dir)
            .arg("-o")
            .arg(&exe)
            .arg(dir.join("harness.c"))
            .output()
            .expect("cc invocation");
        assert!(
            out.status.success(),
            "generated MPI driver failed to compile:\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let out = std::process::Command::new(&exe)
            .output()
            .expect("harness runs");
        assert!(
            out.status.success(),
            "{tag}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let _ = std::fs::remove_dir_all(&dir);
        let stdout = String::from_utf8(out.stdout).unwrap();
        let mut counts = stdout.split_whitespace().map(|n| n.parse().unwrap());
        Some((counts.next().unwrap(), counts.next().unwrap()))
    }

    #[test]
    fn the_printed_exchange_fills_every_halo_cell_on_a_loopback_torus() {
        // The runtime's `exchange_on_a_torus_with_self_messages`, for the
        // C we print. A 2-D box stencil of reach 2 needs its corners; the
        // 3-D star is the driver the golden file pins.
        let boxed = StencilProgram::builder("box2")
            .grid_2d("B", DType::F64, [12, 8], 2, 2)
            .kernel(Kernel::boxed("K", 2, 2, 0.5).unwrap())
            .mpi_grid(&[1, 1])
            .build()
            .unwrap();
        let mut star = benchmark(BenchmarkId::S3d7ptStar)
            .program(&[32, 16, 16], DType::F32, 4)
            .unwrap();
        star.mpi_grid = Some(vec![2, 1, 2]);
        for (program, tag, padded) in [(boxed, "box2", 16 * 12), (star, "star3", 18 * 18 * 10)] {
            let Some(counts) = run_loopback_exchange(&program, tag) else {
                return;
            };
            assert_eq!(counts, (padded, 0), "{tag}: (padded cells, wrong cells)");
        }
    }

    #[test]
    fn a_dimension_nothing_reaches_into_has_no_rows() {
        // Reach [1, 0], the surface syntax cannot say it: the halo is as
        // wide as the reach, so dimension 1 has no halo to fill and the
        // plan no phase for it (the runtime drops it the same way).
        let mut grid = SpNode::new("B", DType::F64, &[8, 8], 1, 2).unwrap();
        grid.halo = vec![1, 0];
        let column = Expr::at("B", &[-1, 0]) + Expr::at("B", &[0, 0]) + Expr::at("B", &[1, 0]);
        let program = StencilProgram::builder("column")
            .grid(grid)
            .kernel(Kernel::new("K", 2, column).unwrap())
            .mpi_grid(&[2, 2])
            .build()
            .unwrap();
        let c = generate(
            &msc_lint::check(&program, Some(Target::Cpu)).unwrap(),
            Target::Cpu,
        )
        .unwrap();
        assert!(c.contains("#define N_PHASES 1"));
        assert!(c.contains("{ 0, { 1, 0 }, { 0, 0 }, { 1, 4 }, 4, 0, 1 }"));
        if let Some(counts) = run_loopback_exchange(&program, "column") {
            assert_eq!(counts, (6 * 4, 0));
        }
        // Nothing reached at all: nothing to exchange, still valid C.
        let mut grid = SpNode::new("B", DType::F64, &[8, 8], 0, 2).unwrap();
        grid.halo = vec![0, 0];
        let program = StencilProgram::builder("pointwise")
            .grid(grid)
            .kernel(Kernel::new("K", 2, 0.5 * Expr::at("B", &[0, 0])).unwrap())
            .mpi_grid(&[2, 2])
            .build()
            .unwrap();
        let c = generate(
            &msc_lint::check(&program, Some(Target::Cpu)).unwrap(),
            Target::Cpu,
        )
        .unwrap();
        assert!(!c.contains("HALO"));
        if let Some(counts) = run_loopback_exchange(&program, "pointwise") {
            assert_eq!(counts, (4 * 4, 0));
        }
    }
}
