//! The bytes `compile_many` emits, pinned: every source under
//! `benchmark/inputs/compile/` is emitted for its own target and the
//! package hashed the way the benchmark hashes it (FNV-1a over file
//! names and contents). The table was generated at the parent of the PR
//! that made emission linearize and format each kernel once, so an
//! emitter change that moves one byte of these 24 packages fails here
//! and names the package. On a deliberate change, paste the table the
//! failure prints.

use msc_codegen::{compile_to_source, CodePackage};
use msc_core::parse::parse_unchecked;
use msc_core::schedule::Target;
use std::path::PathBuf;

const PINNED: [(&str, u64); 24] = [
    ("2d121pt_box.cpu.msc", 0x79e2e7d8db83e942),
    ("2d121pt_box.matrix.msc", 0x7ddf249f2c3cf9b3),
    ("2d121pt_box.sunway.msc", 0x253b7587164fcea3),
    ("2d169pt_box.cpu.msc", 0xd7164ae3a78d0603),
    ("2d169pt_box.matrix.msc", 0x4d6b2702fbb63790),
    ("2d169pt_box.sunway.msc", 0x53f5bf44f6f0228b),
    ("2d9pt_box.cpu.msc", 0x1ff4de24e578a2ff),
    ("2d9pt_box.matrix.msc", 0x6592b3ee1725a056),
    ("2d9pt_box.sunway.msc", 0x0012920e08e46a59),
    ("2d9pt_star.cpu.msc", 0x9b630ead1b03f04e),
    ("2d9pt_star.matrix.msc", 0xb945236aef2c8e0f),
    ("2d9pt_star.sunway.msc", 0x4106cc56054c553d),
    ("3d13pt_star.cpu.msc", 0xe6c7bd729fd811d3),
    ("3d13pt_star.matrix.msc", 0xfea72192bc67426a),
    ("3d13pt_star.sunway.msc", 0x26585c17192b241a),
    ("3d25pt_star.cpu.msc", 0x192a96cf5f36eec6),
    ("3d25pt_star.matrix.msc", 0x5f1b7eb0e8db04db),
    ("3d25pt_star.sunway.msc", 0x7180404ef0263408),
    ("3d31pt_star.cpu.msc", 0x6520598fe3932aa3),
    ("3d31pt_star.matrix.msc", 0xc97344598d542c22),
    ("3d31pt_star.sunway.msc", 0x5455382cc2c5dbb7),
    ("3d7pt_star.cpu.msc", 0xf3b5845750c65d9e),
    ("3d7pt_star.matrix.msc", 0x93112a1a85dfdf97),
    ("3d7pt_star.sunway.msc", 0x6c454160a67a668e),
];

fn package_hash(pkg: &CodePackage) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for name in pkg.file_names() {
        for b in name.bytes().chain(pkg.file(name).unwrap_or("").bytes()) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

#[test]
fn the_24_benchmark_packages_emit_the_pinned_bytes() {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../benchmark/inputs/compile");
    let mut names: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .filter(|n| n.ends_with(".msc"))
        .collect();
    names.sort();
    let got: Vec<(String, u64)> = names
        .into_iter()
        .map(|name| {
            let parsed = parse_unchecked(&std::fs::read_to_string(dir.join(&name)).unwrap())
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            let target = parsed.target.unwrap_or(Target::Cpu);
            let pkg = compile_to_source(&parsed.program, target)
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            (name, package_hash(&pkg))
        })
        .collect();
    let moved: Vec<&str> = got
        .iter()
        .filter(|(n, h)| !PINNED.contains(&(n.as_str(), *h)))
        .map(|(n, _)| n.as_str())
        .collect();
    let table: String = got
        .iter()
        .map(|(n, h)| format!("    (\"{n}\", {h:#018x}),\n"))
        .collect();
    assert!(
        moved.is_empty() && got.len() == PINNED.len(),
        "emitted bytes moved for {moved:?}; the table now reads:\n{table}"
    );
}

/// The eight Table-4 programs of the catalog at the paper's grids, over a
/// 2-way-per-axis process grid, emitted for each target under the
/// schedule that target runs them with, hashed as above. Captured before
/// the emitters read the kernels' tap tables instead of linearizing.
const CATALOG_PINNED: [(&str, &str, u64); 24] = [
    ("2d9pt_star", "cpu", 0x60b7b9430750d4a0),
    ("2d9pt_star", "matrix", 0x220f2239f7dfd0d2),
    ("2d9pt_star", "sunway", 0x2c9e80f48ade4435),
    ("2d9pt_box", "cpu", 0x62f7c79bac55b58d),
    ("2d9pt_box", "matrix", 0xaa678a458ae56fd5),
    ("2d9pt_box", "sunway", 0xc2885f3039a745a5),
    ("2d121pt_box", "cpu", 0x12e608a3b7b93644),
    ("2d121pt_box", "matrix", 0xb0813ae94488ce60),
    ("2d121pt_box", "sunway", 0xf052196fbc8399e5),
    ("2d169pt_box", "cpu", 0x8f842d8ba4cb4bf4),
    ("2d169pt_box", "matrix", 0x06099870085fb9ae),
    ("2d169pt_box", "sunway", 0x5ff58e53eedd517e),
    ("3d7pt_star", "cpu", 0x285f7e7a3ce8d188),
    ("3d7pt_star", "matrix", 0x3a62550bec2ac364),
    ("3d7pt_star", "sunway", 0x9966eba33ff98306),
    ("3d13pt_star", "cpu", 0x4104384d89f7ee8e),
    ("3d13pt_star", "matrix", 0x746591df927ce412),
    ("3d13pt_star", "sunway", 0x5cd82fd650c9774f),
    ("3d25pt_star", "cpu", 0xc4579c68beabbcc3),
    ("3d25pt_star", "matrix", 0x3544c6b95b13cd17),
    ("3d25pt_star", "sunway", 0xbd4c5bfaf1ab7b27),
    ("3d31pt_star", "cpu", 0x5db5514e1b488874),
    ("3d31pt_star", "matrix", 0xd64423cc96a1ccec),
    ("3d31pt_star", "sunway", 0x5147b6484b0bb922),
];

#[test]
fn the_catalog_programs_emit_the_pinned_bytes_on_every_target() {
    use msc_core::catalog::all_benchmarks;
    use msc_core::dtype::DType;
    use msc_core::schedule::presets::effective_schedule;
    let mut got = Vec::new();
    for b in all_benchmarks() {
        let grid = b.default_grid();
        for target in [Target::Cpu, Target::Matrix, Target::SunwayCG] {
            let mut p = b.program(&grid, DType::F64, 10).unwrap();
            p.mpi_grid = Some(vec![2; grid.len()]);
            *p.stencil.kernels[0].sched() = effective_schedule(&p, target);
            let pkg = compile_to_source(&p, target)
                .unwrap_or_else(|e| panic!("{} on {target:?}: {e}", b.name));
            got.push((b.name, target.as_str(), package_hash(&pkg)));
        }
    }
    let table: String = got
        .iter()
        .map(|(n, t, h)| format!("    (\"{n}\", \"{t}\", {h:#018x}),\n"))
        .collect();
    assert_eq!(got, CATALOG_PINNED, "the table now reads:\n{table}");
}
