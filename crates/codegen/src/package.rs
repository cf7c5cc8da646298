//! A generated source package: named files plus helpers to write them to
//! disk (the output of `compile_to_source_code`, paper Listing 1).

use msc_core::schedule::Target;
use std::io::Write;
use std::path::Path;

/// A set of generated source files for one program/target.
#[derive(Debug, Clone)]
pub struct CodePackage {
    pub program: String,
    pub target: Target,
    files: Vec<(String, String)>,
    loc: usize,
}

impl CodePackage {
    pub fn new(program: &str, target: Target) -> CodePackage {
        CodePackage {
            program: program.to_string(),
            target,
            files: Vec::new(),
            loc: 0,
        }
    }

    pub fn add_file(&mut self, name: &str, contents: String) {
        self.loc += crate::loc::count_loc(&contents);
        self.files.push((name.to_string(), contents));
    }

    /// Look up a file by name.
    pub fn file(&self, name: &str) -> Option<&str> {
        self.files
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, c)| c.as_str())
    }

    /// All file names.
    pub fn file_names(&self) -> Vec<&str> {
        self.files.iter().map(|(n, _)| n.as_str()).collect()
    }

    /// Total generated lines of code over all files (Table 6's "manually
    /// optimized code" comparison side), counted as each file is added.
    pub fn total_loc(&self) -> usize {
        self.loc
    }

    /// Write every file into `dir` (created if missing).
    pub fn write_to(&self, dir: &Path) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        for (name, contents) in &self.files {
            let mut f = std::fs::File::create(dir.join(name))?;
            f.write_all(contents.as_bytes())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn file_lookup_and_names() {
        let mut p = CodePackage::new("x", Target::Cpu);
        p.add_file("main.c", "int main(void){return 0;}\n".into());
        assert!(p.file("main.c").is_some());
        assert!(p.file("nope.c").is_none());
        assert_eq!(p.file_names(), vec!["main.c"]);
    }

    #[test]
    fn total_loc_is_the_sum_over_the_files_added() {
        let mut p = CodePackage::new("x", Target::Cpu);
        assert_eq!(p.total_loc(), 0);
        p.add_file(
            "a.c",
            "// header\nint a;\n\n#define N 4\n#include <stdio.h>\nint b;\n".into(),
        );
        p.add_file("Makefile", "all:\n\tcc a.c\n".into());
        let scanned: usize = p
            .file_names()
            .iter()
            .map(|n| crate::loc::count_loc(p.file(n).unwrap()))
            .sum();
        assert_eq!((p.total_loc(), scanned), (5, 5));
    }

    #[test]
    fn write_to_disk() {
        let dir = std::env::temp_dir().join("msc_codegen_test_pkg");
        let _ = std::fs::remove_dir_all(&dir);
        let mut p = CodePackage::new("x", Target::Cpu);
        p.add_file("a.c", "// a\n".into());
        p.add_file("Makefile", "all:\n".into());
        p.write_to(&dir).unwrap();
        assert!(dir.join("a.c").exists());
        assert!(dir.join("Makefile").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
