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
