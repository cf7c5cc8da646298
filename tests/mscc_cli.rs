//! Integration tests of the `mscc` compiler driver binary.

use std::process::Command;

fn mscc() -> Command {
    Command::new(env!("CARGO_BIN_EXE_mscc"))
}

fn dsl(name: &str) -> String {
    format!("{}/examples/dsl/{name}", env!("CARGO_MANIFEST_DIR"))
}

#[test]
fn compiles_run_verifies_and_emits() {
    let dir = std::env::temp_dir().join("mscc_cli_test");
    let _ = std::fs::remove_dir_all(&dir);
    let out = mscc()
        .arg(dsl("wave2d.msc"))
        .arg("-o")
        .arg(&dir)
        .args(["--run", "--stats", "--simulate"])
        .output()
        .expect("mscc runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    assert!(stdout.contains("compiled `wave2d`"));
    // The banner names what evaluated the rows and how often; a grid this
    // small is cache-resident, so the row kernel does not prefetch, and
    // the leapfrog's two terms are two kernels, so no image serves both
    // and no block of rows either.
    assert!(stdout.contains(" tiles, specialized tier, "), "{stdout}");
    assert!(
        stdout.contains(
            ", prefetch off, rows one at a time (2 terms), \
             kernel recomputed (terms name different kernels)); interior checksum"
        ),
        "{stdout}"
    );
    assert!(stdout.contains("verified vs serial reference: bit-identical"));
    assert!(stdout.contains("simulated on"));
    assert!(dir.join("main.c").exists());
    assert!(dir.join("Makefile").exists());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn autoschedule_reports_decisions() {
    let dir = std::env::temp_dir().join("mscc_cli_auto");
    let out = mscc()
        .arg(dsl("3d7pt.msc"))
        .arg("-o")
        .arg(&dir)
        .arg("--autoschedule")
        .output()
        .expect("mscc runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    assert!(stdout.contains("autoschedule: tile sweep"));
    assert!(stdout.contains("autoschedule: selected tile"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn target_override_switches_output_files() {
    let dir = std::env::temp_dir().join("mscc_cli_target");
    let out = mscc()
        .arg(dsl("3d7pt.msc"))
        .arg("-o")
        .arg(&dir)
        .args(["--target", "cpu"])
        .output()
        .expect("mscc runs");
    assert!(out.status.success());
    assert!(dir.join("main.c").exists(), "cpu target emits main.c");
    assert!(!dir.join("slave.c").exists(), "no athread slave for cpu");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn dump_writes_loadable_grid() {
    let dir = std::env::temp_dir().join("mscc_cli_dump");
    let _ = std::fs::create_dir_all(&dir);
    let grid_path = dir.join("out.grid");
    let out = mscc()
        .arg(dsl("wave2d.msc"))
        .arg("-o")
        .arg(&dir)
        .args(["--run", "--dump"])
        .arg(&grid_path)
        .output()
        .expect("mscc runs");
    assert!(out.status.success());
    let g: msc::prelude::Grid<f64> = msc::exec::io::load(&grid_path).unwrap();
    assert_eq!(g.shape, vec![128, 128]);
    assert!(g.interior_sum().is_finite());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn chaos_run_heals_and_verifies_bit_exactly() {
    let dir = std::env::temp_dir().join("mscc_cli_chaos");
    let _ = std::fs::remove_dir_all(&dir);
    let out = mscc()
        .arg(dsl("wave2d.msc"))
        .arg("-o")
        .arg(&dir)
        .args(["--procs", "2x2", "--chaos", "42:delay=0.1,kill=1@3"])
        .output()
        .expect("mscc runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    assert!(
        stdout.contains("distributed run over 4 ranks [2, 2]: "),
        "{stdout}"
    );
    // The kill cost one attempt; reordering cost nothing.
    assert!(stdout.contains(" 1 restarts, "), "{stdout}");
    assert!(!stdout.contains(" 0 faults injected, "), "{stdout}");
    // And what evaluated each rank's rows, as the serial banner does.
    assert!(
        stdout.contains(
            ", prefetch off, rows one at a time (2 terms), \
             kernel recomputed (terms name different kernels)); "
        ),
        "{stdout}"
    );
    assert!(
        stdout.contains("verified vs serial reference: bit-identical"),
        "{stdout}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn ranks_reuse_kernel_images_and_the_banner_says_so() {
    let dir = std::env::temp_dir().join("mscc_cli_rank_images");
    let _ = std::fs::remove_dir_all(&dir);
    let out = mscc()
        .arg(dsl("3d7pt.msc"))
        .arg("-o")
        .arg(&dir)
        .args(["--run", "--procs", "2x1x1"])
        .output()
        .expect("mscc runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    // One kernel over `t-1` and `t-2`: a rank's time loop is the single
    // node's, so it keeps kernel images too.
    assert!(
        stdout.contains(" ms (specialized tier, ") && stdout.contains(", kernel image reused); "),
        "{stdout}"
    );
    assert!(
        stdout.contains("verified vs serial reference: bit-identical"),
        "{stdout}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn the_run_banner_and_profile_say_whether_kernel_images_are_reused() {
    let dir = std::env::temp_dir().join("mscc_cli_kernel_image");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    // The shape of benchmark/inputs/dense2d.msc: one box kernel combined
    // over two time dependencies.
    let taps: Vec<String> = (-2..=2)
        .flat_map(|y| (-2..=2).map(move |x| format!("0.04*B[{y},{x}]")))
        .collect();
    let source = |combine: &str, window: usize| {
        format!(
            "stencil boxed {{
                grid B: f64[64, 64] halo 2 window {window};
                kernel K = {};
                combine res[t] = {combine};
                schedule {{ tile 16 64; reorder xo yo xi yi; parallel xo 2; }}
                run 5;
                target cpu;
            }}",
            taps.join(" + ")
        )
    };
    for (combine, window, said) in [
        ("0.6*K[t-1] + 0.4*K[t-2]", 3, "kernel image reused"),
        ("1.0*K[t-1]", 2, "kernel recomputed (one time dependency)"),
    ] {
        let path = dir.join("boxed.msc");
        std::fs::write(&path, source(combine, window)).unwrap();
        let out = mscc()
            .arg(&path)
            .arg("-o")
            .arg(&dir)
            .args(["--run", "--profile"])
            .output()
            .expect("mscc runs");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(out.status.success(), "{stdout}");
        // 5 x 5 taps: four rows share the 10 of each row's taps in its
        // middle row, too few for a block.
        let banner = format!(
            ", rows one at a time ({}), {said}); interior checksum",
            rows_of(&stdout, 10, 25)
        );
        assert!(
            stdout.contains(", prefetch off, ") && stdout.contains(&banner),
            "{stdout}"
        );
        let header = stdout.lines().find(|l| l.starts_with("== profile: boxed ("));
        assert!(header.is_some_and(|l| l.ends_with(&format!(", {said}) =="))), "{stdout}");
        // One run in the process: each window slot was allocated.
        let fresh = stdout.lines().find(|l| l.starts_with("fresh_slots "));
        let slots = fresh.and_then(|l| l.split_whitespace().nth(1));
        assert_eq!(slots, Some(window.to_string().as_str()), "{stdout}");
        assert!(
            stdout.contains("verified vs serial reference: bit-identical"),
            "{stdout}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Why a `--run` banner says rows go one at a time when four rows share
/// `shared` of `taps` taps: that, unless the row kernel was built for the
/// baseline ISA, whose block rows are narrower than a cache line.
fn rows_of(stdout: &str, shared: usize, taps: usize) -> String {
    match stdout.contains("specialized tier, baseline, ") {
        true => "32 B block rows".to_string(),
        false => format!("4 rows share {shared} of {taps} taps"),
    }
}

#[test]
fn the_run_banner_says_whether_rows_go_four_at_a_time() {
    let dir = std::env::temp_dir().join(format!("mscc_cli_row_blocks_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let run = |source: &std::path::Path| {
        let out = mscc()
            .arg(source)
            .arg("-o")
            .arg(&dir)
            .arg("--run")
            .output()
            .expect("mscc runs");
        let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
        assert!(out.status.success(), "{stdout}");
        assert!(
            stdout.contains("verified vs serial reference: bit-identical"),
            "{stdout}"
        );
        stdout
    };
    // The 121-point box of Table 4 over two time dependencies: its image
    // step sweeps the kernel four rows at a time.
    let taps: Vec<String> = (-5..=5)
        .flat_map(|y| (-5..=5).map(move |x| format!("0.008*B[{y},{x}]")))
        .collect();
    let source = dir.join("box121.msc");
    std::fs::write(
        &source,
        format!(
            "stencil box121 {{
                grid B: f64[30, 64] halo 5 window 3;
                kernel K = {};
                combine res[t] = 0.6*K[t-1] + 0.4*K[t-2];
                schedule {{ tile 10 64; reorder xo yo xi yi; parallel xo 2; }}
                run 3;
                target cpu;
            }}",
            taps.join(" + ")
        ),
    )
    .unwrap();
    let stdout = run(&source);
    let rows = match stdout.contains("specialized tier, baseline, ") {
        true => "rows one at a time (32 B block rows)",
        false => "rows 4 at a time",
    };
    assert!(
        stdout.contains(&format!(
            ", prefetch off, {rows}, kernel image reused); interior checksum"
        )),
        "{stdout}"
    );
    // The paper's 3d7pt over its `mpi 2 2 2` ranks: four rows of a rank
    // share none of the seven taps.
    let stdout = run(std::path::Path::new(&dsl("3d7pt.msc")));
    let rows = format!("rows one at a time ({})", rows_of(&stdout, 0, 7));
    assert!(
        stdout.contains("distributed run over 8 ranks")
            && stdout.contains(&format!(", prefetch off, {rows}, kernel image reused); ")),
        "{stdout}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_source_naming_an_mpi_grid_runs_over_it_under_its_own_schedule() {
    let dir = std::env::temp_dir().join("mscc_cli_mpi_clause");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let source = dir.join("two_ranks.msc");
    std::fs::write(
        &source,
        "stencil two_ranks {
            grid B: f64[32, 16] halo 1 window 2;
            kernel S = 0.2*B[-1,0] + 0.2*B[1,0] + 0.2*B[0,-1] + 0.2*B[0,1] + 0.2*B[0,0];
            combine res[t] = 1.0*S[t-1];
            schedule { tile 8 16; reorder xo yo xi yi; parallel xo 1; }
            mpi 2 1;
            run 6;
            target cpu;
        }",
    )
    .unwrap();
    let run = |extra: &[&str]| {
        let out = mscc()
            .arg(&source)
            .arg("-o")
            .arg(&dir)
            .arg("--run")
            .args(extra)
            .output()
            .expect("mscc runs");
        let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
        assert!(out.status.success(), "{stdout}");
        assert!(
            stdout.contains("verified vs serial reference: bit-identical"),
            "{stdout}"
        );
        stdout
    };
    // No --procs: the `mpi 2 1` clause is the process grid, and `tile 8
    // 16` lowers over the 16x16 sub-grid, so no fallback note.
    let stdout = run(&[]);
    assert!(
        stdout.contains("distributed run over 2 ranks [2, 1]: "),
        "{stdout}"
    );
    assert!(
        !stdout.contains("note: the schedule does not lower"),
        "{stdout}"
    );
    // --procs overrides the clause; on 8x8 sub-grids `tile 8 16` does not
    // lower, which the run says before falling back.
    let stdout = run(&["--procs", "4x2"]);
    assert!(
        stdout.contains("distributed run over 8 ranks [4, 2]"),
        "{stdout}"
    );
    assert!(
        stdout.contains("note: the schedule does not lower over the [8, 8] sub-grid"),
        "{stdout}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn killed_rank_restarts_from_checkpoint_via_cli() {
    let dir = std::env::temp_dir().join("mscc_cli_kill");
    let ckpt = std::env::temp_dir().join("mscc_cli_kill_ckpt");
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&ckpt);
    let out = mscc()
        .arg(dsl("wave2d.msc"))
        .arg("-o")
        .arg(&dir)
        .args([
            "--procs",
            "2x1",
            "--chaos",
            "1:kill=1@3",
            "--checkpoint-every",
            "2",
        ])
        .arg("--checkpoint-dir")
        .arg(&ckpt)
        .arg("--profile")
        .output()
        .expect("mscc runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    assert!(stdout.contains("1 restarts"), "{stdout}");
    assert!(
        stdout.contains("verified vs serial reference: bit-identical"),
        "{stdout}"
    );
    // Checkpoint activity must surface in the profile table.
    assert!(stdout.contains("checkpoint_bytes"), "{stdout}");
    // So must pack and unpack: they are in the ranks' own account.
    for row in ["pack_hist ", "unpack_hist "] {
        assert!(stdout.lines().any(|l| l.starts_with(row)), "{stdout}");
    }
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&ckpt);
}

#[test]
fn concurrent_runs_of_one_program_keep_their_checkpoints_apart() {
    // Without --checkpoint-dir each invocation checkpoints into a
    // directory of its own: two runs of the same source at once used to
    // share one, wipe each other's snapshots and even resume them.
    let dir = std::env::temp_dir().join("mscc_cli_ckpt_apart");
    let _ = std::fs::remove_dir_all(&dir);
    for round in 0..3 {
        let runs: Vec<_> = [("2x1", "1:kill=1@3"), ("2x2", "5:kill=1@4")]
            .into_iter()
            .enumerate()
            .map(|(i, (procs, chaos))| {
                mscc()
                    .arg(dsl("wave2d.msc"))
                    .arg("-o")
                    .arg(dir.join(format!("out{i}")))
                    .args(["--procs", procs, "--chaos", chaos])
                    .args(["--checkpoint-every", "2"])
                    .stdout(std::process::Stdio::piped())
                    .stderr(std::process::Stdio::piped())
                    .spawn()
                    .expect("mscc starts")
            })
            .collect();
        for run in runs {
            let out = run.wait_with_output().expect("mscc runs");
            let stdout = String::from_utf8_lossy(&out.stdout);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(out.status.success(), "round {round}: {stdout}\n{stderr}");
            assert!(stdout.contains("1 restarts"), "{stdout}");
            assert!(
                stdout.contains("verified vs serial reference: bit-identical"),
                "{stdout}"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn killed_rank_heals_online_with_a_spare_via_cli() {
    // The online-recovery path end to end: with a hot spare the same
    // kill that forces a restart above is instead healed in place — zero
    // restarts, one recovery, and the resolved resilience policy echoed
    // before the run banner.
    let dir = std::env::temp_dir().join("mscc_cli_spare");
    let _ = std::fs::remove_dir_all(&dir);
    let out = mscc()
        .arg(dsl("wave2d.msc"))
        .arg("-o")
        .arg(&dir)
        .args([
            "--procs",
            "2x2",
            "--chaos",
            "5:kill=1@4",
            "--checkpoint-every",
            "2",
            "--spare-ranks",
            "1",
            "--profile",
        ])
        .output()
        .expect("mscc runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    assert!(
        stdout.contains("resilience policy: 1 spare rank(s)"),
        "{stdout}"
    );
    // 4 logical + 1 spare physical ranks; the banner reports logical.
    assert!(stdout.contains("distributed run over 4 ranks"), "{stdout}");
    assert!(stdout.contains("0 restarts"), "{stdout}");
    assert!(stdout.contains("1 recoveries"), "{stdout}");
    assert!(
        stdout.contains("verified vs serial reference: bit-identical"),
        "{stdout}"
    );
    // The new counters must surface in the profile table.
    assert!(stdout.contains("rank_recoveries"), "{stdout}");
    assert!(stdout.contains("buddy_bytes"), "{stdout}");
    assert!(stdout.contains("detect_latency"), "{stdout}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bad_chaos_spec_is_a_clean_error() {
    let out = mscc()
        .arg(dsl("wave2d.msc"))
        .args(["--chaos", "not-a-spec"])
        .output()
        .expect("mscc runs");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("chaos spec"), "{err}");
}

#[test]
fn chaos_refuses_message_faults_by_name() {
    // The channel is reliable: a spec naming a message fault is refused
    // with the key it named, before any rank runs.
    let out = mscc()
        .arg(dsl("wave2d.msc"))
        .args(["--chaos", "1:drop=0.1"])
        .output()
        .expect("mscc runs");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("`drop`"), "{err}");
    assert!(err.contains("reliable"), "{err}");
}

#[test]
fn bad_input_fails_with_diagnostic() {
    let dir = std::env::temp_dir().join("mscc_cli_bad");
    let _ = std::fs::create_dir_all(&dir);
    let bad = dir.join("bad.msc");
    std::fs::write(&bad, "stencil x { grid B f64[8]; }").unwrap();
    let out = mscc().arg(&bad).output().expect("mscc runs");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("line 1"), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn missing_file_reports_cleanly() {
    let out = mscc().arg("/nonexistent.msc").output().expect("mscc runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot read"));
}

#[test]
fn help_documents_every_flag() {
    // The help screen is generated from the flag table (the unit tests in
    // src/bin/mscc.rs check it row by row); here, that the binary prints
    // it, exits 0, and keeps its grouped layout.
    let out = mscc().arg("--help").output().expect("mscc runs");
    assert!(out.status.success(), "--help must exit 0");
    let help = String::from_utf8_lossy(&out.stdout);
    for section in [
        "input / output:",
        "execution:",
        "distributed:",
        "observability:",
        "check subcommand",
        "lift subcommand",
        "top subcommand",
        "serve subcommand",
        "submit subcommand",
    ] {
        assert!(
            help.contains(section),
            "missing section `{section}`:\n{help}"
        );
    }
    // After a subcommand and its arguments it is the same screen.
    let sub = mscc()
        .args(["submit", "--ping", "-h"])
        .output()
        .expect("mscc runs");
    assert!(sub.status.success());
    assert_eq!(String::from_utf8_lossy(&sub.stdout), help);
}

#[test]
fn help_flag_set_is_the_one_before_the_table_minus_the_retired_recorder() {
    // The `--flags` of `mscc --help` at the commit before the table
    // (PR 18), minus the six only the retired trajectory recorder had
    // (--quick --validate --diff --threshold --counts-only --doctor; its
    // seventh, --out, lives on as the compile flag) and minus the beacon
    // interval, which went when a rank's exit became its death notice. A
    // flag that appears or disappears fails here, whichever row it came
    // from.
    let before = "--autoschedule --chaos --checkpoint-dir --checkpoint-every --dump --emit-msc \
                  --exec-tier --flight-dir --help --interval-ms --json --max-queue \
                  --metrics-dir --metrics-file --metrics-interval-ms --once --out --ping \
                  --pool-threads --procs --profile --run --shutdown --simulate --sleep-ms --socket \
                  --spare-ranks --stats --strict --target --tenant --tenant-quota --trace --workers";
    let want: std::collections::BTreeSet<&str> = before.split_whitespace().collect();
    let out = mscc().arg("--help").output().expect("mscc runs");
    let help = String::from_utf8_lossy(&out.stdout);
    let got: std::collections::BTreeSet<&str> = help
        .split(|c: char| !(c.is_ascii_lowercase() || c == '-'))
        .filter(|w| w.starts_with("--") && w.len() > 2)
        .collect();
    assert_eq!(got, want);
}

fn lint_fixture(name: &str) -> String {
    format!("{}/crates/lint/fixtures/{name}", env!("CARGO_MANIFEST_DIR"))
}

#[test]
fn check_passes_clean_example() {
    let out = mscc()
        .args(["check"])
        .arg(dsl("3d7pt.msc"))
        .output()
        .expect("mscc runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    assert!(stdout.contains("lint clean"), "{stdout}");
    assert!(stdout.contains("target sunway"), "{stdout}");
}

#[test]
fn check_denies_narrow_halo_with_stable_code() {
    let out = mscc()
        .args(["check"])
        .arg(lint_fixture("halo_narrow.deny.msc"))
        .output()
        .expect("mscc runs");
    assert!(!out.status.success(), "deny-level lint must exit nonzero");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("MSC-L101"), "{stdout}");
    assert!(stdout.contains("[deny]"), "{stdout}");
    // The fixed twin of the same fixture passes.
    let fixed = mscc()
        .args(["check"])
        .arg(lint_fixture("halo_narrow.fixed.msc"))
        .output()
        .expect("mscc runs");
    assert!(fixed.status.success());
}

#[test]
fn check_json_is_machine_readable() {
    let out = mscc()
        .args(["check", "--json"])
        .arg(lint_fixture("window_shallow.deny.msc"))
        .output()
        .expect("mscc runs");
    assert!(!out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    let doc = msc::trace::Json::parse(&stdout).expect("valid JSON on stdout");
    assert_eq!(doc.get("tool").and_then(|v| v.as_str()), Some("msc-lint"));
    assert!(doc.get("deny_count").and_then(|v| v.as_f64()).unwrap() >= 1.0);
    let diags = match doc.get("diagnostics") {
        Some(msc::trace::Json::Arr(items)) => items,
        other => panic!("diagnostics must be an array, got {other:?}"),
    };
    assert!(diags.iter().any(|d| {
        d.get("code").and_then(|v| v.as_str()) == Some("MSC-L201")
            && d.get("severity").and_then(|v| v.as_str()) == Some("deny")
    }));
}

#[test]
fn check_json_of_a_deny_fixture_is_pinned_byte_for_byte() {
    let out = mscc()
        .args(["check", "--json"])
        .arg(lint_fixture("mpi_indivisible.deny.msc"))
        .output()
        .expect("mscc runs");
    assert!(!out.status.success());
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        concat!(
            r#"{"tool":"msc-lint","program":"mpi_indivisible","diagnostics":[{"code":"MSC-L403","#,
            r#""severity":"deny","family":"capacity","message":"global extent 64 in dim 0 is not "#,
            r#"divisible by the 7-way process grid","context":"mpi grid of `mpi_indivisible`","#,
            r#""help":"choose a process count that divides the extent"}],"deny_count":1,"#,
            r#""warn_count":0}"#,
            "\n"
        )
    );
}

fn lift_example(name: &str) -> String {
    format!("{}/examples/lift/{name}", env!("CARGO_MANIFEST_DIR"))
}

fn lift_fixture(name: &str) -> String {
    format!("{}/crates/lift/fixtures/{name}", env!("CARGO_MANIFEST_DIR"))
}

#[test]
fn lift_validates_corpus_kernel_and_emits_msc() {
    // A legacy C nest lifts clean, reports the bit-exact validation
    // line, and --emit-msc prints DSL source the compiler re-accepts.
    let out = mscc()
        .args(["lift", "--emit-msc"])
        .arg(lift_example("jacobi2d.c"))
        .output()
        .expect("mscc runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    assert!(stdout.contains("lift clean: `jacobi2d`"), "{stdout}");
    assert!(stdout.contains("validated bit-for-bit"), "{stdout}");
    assert!(stdout.contains("3 seed(s) x 3 tier(s)"), "{stdout}");
    assert!(stdout.contains("stencil jacobi2d {"), "{stdout}");
    // The emitted source must re-parse through the DSL front end.
    let msc_src = &stdout[stdout.find("stencil jacobi2d").unwrap()..];
    msc::core::parse::parse_unchecked(msc_src).expect("emitted .msc re-parses");
}

#[test]
fn lift_run_executes_the_lifted_program() {
    let out = mscc()
        .args(["lift", "--run"])
        .arg(lift_example("jacobi3d.c"))
        .output()
        .expect("mscc runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    assert!(stdout.contains("ran `jacobi3d`: 4 step(s)"), "{stdout}");
}

#[test]
fn lift_denies_inplace_nest_through_the_lint_gate() {
    // An in-place Gauss–Seidel sweep lifts structurally but must exit
    // nonzero with the same race diagnostics a DSL program would get.
    let out = mscc()
        .args(["lift"])
        .arg(lift_fixture("inplace_race.deny.c"))
        .output()
        .expect("mscc runs");
    assert!(!out.status.success(), "deny-level lift must exit nonzero");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("MSC-L201"), "{stdout}");
    assert!(stdout.contains("MSC-L302"), "{stdout}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("deny-level lint(s) lifting"), "{err}");
}

#[test]
fn lift_json_reports_structured_l5xx_diagnostics() {
    // Unsupported input never panics: it exits nonzero with a typed
    // MSC-L5xx diagnostic in the same JSON schema `mscc check` emits.
    let out = mscc()
        .args(["lift", "--json"])
        .arg(lift_fixture("nonaffine.deny.c"))
        .output()
        .expect("mscc runs");
    assert!(!out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    let doc = msc::trace::Json::parse(&stdout).expect("valid JSON on stdout");
    assert_eq!(doc.get("tool").and_then(|v| v.as_str()), Some("msc-lint"));
    let diags = match doc.get("diagnostics") {
        Some(msc::trace::Json::Arr(items)) => items,
        other => panic!("diagnostics must be an array, got {other:?}"),
    };
    assert!(diags.iter().any(|d| {
        d.get("code").and_then(|v| v.as_str()) == Some("MSC-L502")
            && d.get("severity").and_then(|v| v.as_str()) == Some("deny")
            && d.get("family").and_then(|v| v.as_str()) == Some("lift")
    }));
}

#[test]
fn lift_syntax_garbage_is_a_typed_diagnostic_not_a_panic() {
    let dir = std::env::temp_dir().join("mscc_cli_lift_garbage");
    let _ = std::fs::create_dir_all(&dir);
    let bad = dir.join("garbage.c");
    std::fs::write(&bad, "int main() { while (1) malloc(8); }").unwrap();
    let out = mscc().args(["lift"]).arg(&bad).output().expect("mscc runs");
    assert!(!out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("MSC-L5"), "{stdout}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn compile_path_is_gated_by_the_linter() {
    // Plain `mscc file.msc` (no subcommand) must refuse to emit code for
    // a program the verifier denies, and name the lint code.
    let dir = std::env::temp_dir().join("mscc_cli_lint_gate");
    let _ = std::fs::remove_dir_all(&dir);
    let out = mscc()
        .arg(lint_fixture("race_parallel.deny.msc"))
        .arg("-o")
        .arg(&dir)
        .output()
        .expect("mscc runs");
    assert!(!out.status.success(), "lint deny must block compilation");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("lint rejected"), "{err}");
    assert!(err.contains("MSC-L301"), "{err}");
    assert!(!dir.join("main.c").exists(), "no code may be emitted");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn denied_program_never_reaches_the_vm() {
    // The one check runs before any execution tier is set up, so a
    // deny-level program asked to run on the bytecode VM must die at the
    // lint stage: no "compiled" banner, no run line, and certainly no
    // bytecode compilation.
    let dir = std::env::temp_dir().join("mscc_cli_vm_lint_gate");
    let _ = std::fs::remove_dir_all(&dir);
    let out = mscc()
        .arg(lint_fixture("spm_overflow.deny.msc"))
        .arg("-o")
        .arg(&dir)
        .args(["--run", "--exec-tier", "vm"])
        .output()
        .expect("mscc runs");
    assert!(
        !out.status.success(),
        "denied program must not run on any tier"
    );
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("lint rejected"), "{err}");
    assert!(err.contains("[deny]"), "{err}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        !stdout.contains("compiled"),
        "lint must fire pre-compile: {stdout}"
    );
    assert!(!stdout.contains("ran"), "lint must fire pre-run: {stdout}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn autoschedule_is_checked_after_it_rewrites_the_schedule() {
    // The deny fixture's hand-written whole-grid tile overflows the SPM,
    // but `--autoschedule` replaces it: the check is of the program that
    // is emitted, so the package is the fixed twin's, byte for byte.
    let root = std::env::temp_dir().join(format!("mscc_cli_autoschedule_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let emit = |fixture: &str, extra: &[&str]| {
        let dir = root.join(format!("{fixture}{}", extra.concat()));
        let out = mscc()
            .arg(lint_fixture(fixture))
            .args(["--target", "sunway", "-o"])
            .arg(&dir)
            .args(extra)
            .output()
            .expect("mscc runs");
        (out, dir)
    };
    let read = |dir: &std::path::Path| {
        ["master.c", "slave.c", "Makefile"].map(|f| std::fs::read(dir.join(f)).unwrap())
    };
    let (deny, deny_dir) = emit("spm_overflow.deny.msc", &["--autoschedule"]);
    assert!(
        deny.status.success(),
        "{}",
        String::from_utf8_lossy(&deny.stderr)
    );
    let (fixed, fixed_dir) = emit("spm_overflow.fixed.msc", &["--autoschedule"]);
    assert!(
        fixed.status.success(),
        "{}",
        String::from_utf8_lossy(&fixed.stderr)
    );
    assert!(read(&deny_dir) == read(&fixed_dir), "the packages differ");

    let (plain, plain_dir) = emit("spm_overflow.deny.msc", &[]);
    assert!(
        !plain.status.success(),
        "the hand-written tile must still be refused"
    );
    let err = String::from_utf8_lossy(&plain.stderr);
    assert!(err.contains("MSC-L401"), "{err}");
    assert!(!plain_dir.exists(), "no code may be emitted");
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn exec_tier_selects_the_vm_and_reports_it() {
    // --exec-tier vm routes the functional run through the bytecode VM
    // (visible in the run banner) and stays bit-identical to the serial
    // reference, which --stats verifies in-process.
    let dir = std::env::temp_dir().join("mscc_cli_vm_tier");
    let _ = std::fs::remove_dir_all(&dir);
    let out = mscc()
        .arg(dsl("wave2d.msc"))
        .arg("-o")
        .arg(&dir)
        .args(["--run", "--stats", "--exec-tier", "vm"])
        .output()
        .expect("mscc runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    assert!(stdout.contains("vm tier"), "{stdout}");
    assert!(
        stdout.contains("verified vs serial reference: bit-identical"),
        "{stdout}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bad_run_option_values_are_clean_errors() {
    for (flag, value, want) in [
        ("--exec-tier", "warp", "bad TIER `warp` after --exec-tier"),
        // There is one scheduler; 0 no longer means "respawn per step".
        ("--pool-threads", "0", "bad N `0` after --pool-threads"),
    ] {
        let out = mscc()
            .arg(dsl("wave2d.msc"))
            .args(["--run", flag, value])
            .output()
            .expect("mscc runs");
        assert!(!out.status.success(), "{flag} {value}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(want), "{flag} {value}: {err}");
    }
}

#[test]
fn distributed_trace_stitches_all_ranks_with_flows() {
    // The tentpole end-to-end: a 2x2 distributed run under --trace must
    // write one merged chrome://tracing document with span rows from all
    // four ranks and matched send->recv flow arrows, and print the
    // per-step straggler report to stdout.
    let dir = std::env::temp_dir().join("mscc_cli_stitch");
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::create_dir_all(&dir);
    let trace_path = dir.join("stitched.json");
    let out = mscc()
        .arg(dsl("wave2d.msc"))
        .arg("-o")
        .arg(&dir)
        .args(["--procs", "2x2", "--trace"])
        .arg(&trace_path)
        .output()
        .expect("mscc runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    assert!(stdout.contains("critical path: rank"), "{stdout}");
    assert!(stdout.contains("slowest"), "{stdout}");
    assert!(
        stdout.contains("wrote stitched chrome://tracing profile (4 ranks)"),
        "{stdout}"
    );

    let json = std::fs::read_to_string(&trace_path).unwrap();
    let summary = msc::trace::validate_chrome_json(&json).expect("structurally valid");
    assert_eq!(summary.ranks, vec![0, 1, 2, 3], "spans from all four ranks");
    assert!(
        summary.flow_pairs > 0,
        "halo send->recv flow arrows present"
    );
    assert_eq!(summary.unmatched_flows, 0, "every flow id pairs up");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn flight_dir_captures_comm_fault_dump() {
    // --flight-dir wires the always-on flight recorder: a chaos kill
    // must leave a structured JSON dump naming the failure.
    let dir = std::env::temp_dir().join("mscc_cli_flight");
    let flight = std::env::temp_dir().join("mscc_cli_flight_dumps");
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&flight);
    let out = mscc()
        .arg(dsl("wave2d.msc"))
        .arg("-o")
        .arg(&dir)
        .args([
            "--procs",
            "2x1",
            "--chaos",
            "1:kill=1@3",
            "--checkpoint-every",
            "2",
        ])
        .arg("--flight-dir")
        .arg(&flight)
        .output()
        .expect("mscc runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    let dumps: Vec<_> = std::fs::read_dir(&flight)
        .expect("flight dir exists")
        .filter_map(|e| e.ok())
        .filter(|e| {
            let n = e.file_name();
            let n = n.to_string_lossy().into_owned();
            n.starts_with("flight_") && n.ends_with(".json")
        })
        .collect();
    assert!(!dumps.is_empty(), "kill must dump the flight recorder");
    let body = std::fs::read_to_string(dumps[0].path()).unwrap();
    assert!(body.contains("\"flight_recorder\""), "{body}");
    assert!(body.contains("\"reason\""), "{body}");
    assert!(body.contains("\"kind\""), "{body}");
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&flight);
}

#[test]
fn serve_and_submit_round_trip_through_the_binaries() {
    // The daemon end to end through the real binaries: start `mscc
    // serve`, submit the same program twice (second is a cache hit),
    // bounce a deny fixture off the lint front door without killing the
    // daemon, then shut down gracefully over the wire.
    let dir = std::env::temp_dir().join(format!("mscc_cli_serve_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let socket = dir.join("mscd.sock");

    let mut daemon = mscc()
        .args(["serve", "--workers", "2", "--socket"])
        .arg(&socket)
        .arg("--metrics-dir")
        .arg(dir.join("metrics"))
        .spawn()
        .expect("mscd starts");
    // Wait for the socket to appear.
    for _ in 0..200 {
        if socket.exists() {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(25));
    }
    assert!(socket.exists(), "daemon never bound its socket");

    let submit = |extra: &[&str], file: &str| {
        let mut cmd = mscc();
        cmd.args(["submit", "--socket"]).arg(&socket);
        cmd.args(extra);
        if !file.is_empty() {
            cmd.arg(file);
        }
        cmd.output().expect("mscc submit runs")
    };

    let first = submit(&["--run"], &dsl("wave2d.msc"));
    let stdout = String::from_utf8_lossy(&first.stdout);
    assert!(first.status.success(), "{stdout}");
    assert!(stdout.contains("compiled `wave2d`"), "{stdout}");
    assert!(!stdout.contains("[cache hit]"), "{stdout}");
    assert!(stdout.contains("counters"), "{stdout}");
    assert!(stdout.contains("metrics stream"), "{stdout}");

    let second = submit(&[], &dsl("wave2d.msc"));
    let stdout = String::from_utf8_lossy(&second.stdout);
    assert!(second.status.success(), "{stdout}");
    assert!(stdout.contains("[cache hit]"), "{stdout}");

    // A deny-level program comes back as structured diagnostics with a
    // nonzero exit — and the daemon survives it.
    let denied = submit(&[], &lint_fixture("halo_narrow.deny.msc"));
    assert!(!denied.status.success(), "deny must exit nonzero");
    let err = String::from_utf8_lossy(&denied.stderr);
    assert!(err.contains("MSC-L101"), "{err}");
    assert!(err.contains("denied"), "{err}");

    let ping = submit(&["--ping"], "");
    assert!(ping.status.success());
    let stdout = String::from_utf8_lossy(&ping.stdout);
    assert!(stdout.contains("mscd alive"), "{stdout}");

    let stats = submit(&["--stats"], "");
    let stdout = String::from_utf8_lossy(&stats.stdout);
    assert!(stats.status.success(), "{stdout}");
    assert!(stdout.contains("2 done, 1 denied"), "{stdout}");
    assert!(stdout.contains("1 hit(s)"), "{stdout}");

    let down = submit(&["--shutdown"], "");
    assert!(down.status.success());
    let code = daemon.wait().expect("daemon exits");
    assert!(code.success(), "daemon must exit cleanly after shutdown");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A one-kernel 2-D program over `shape`.
fn sized_source(shape: &str) -> String {
    format!(
        "stencil sized {{
            grid B: f64[{shape}] halo 1 window 2;
            kernel S = 0.5*B[0,0] + 0.125*B[-1,0] + 0.125*B[1,0] + 0.125*B[0,-1] + 0.125*B[0,1];
            combine res[t] = 1.0*S[t-1];
            run 2;
            target cpu;
        }}"
    )
}

/// A padded size that overflows `usize`, and 8 TB, more than a capped
/// address space (`capped_mscc`) can hold.
const OVERFLOWING: &str = "4294967296, 4294967296";
const EIGHT_TB: &str = "1000000, 1000000";

/// `mscc ARGS` in `dir`, its address space capped at 4 GB: how an 8 TB
/// grid is ever asked for.
fn capped_mscc(dir: &std::path::Path, args: &[&std::ffi::OsStr]) -> Command {
    let mut cmd = Command::new("sh");
    cmd.current_dir(dir)
        .args(["-c", "ulimit -v 4000000 && exec \"$0\" \"$@\""])
        .arg(env!("CARGO_BIN_EXE_mscc"))
        .args(args);
    cmd
}

#[test]
fn a_grid_that_does_not_fit_is_a_typed_error_not_an_abort() {
    let dir = std::env::temp_dir().join(format!("mscc_cli_too_large_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let write = |name: &str, shape: &str| {
        let path = dir.join(name);
        std::fs::write(&path, sized_source(shape)).unwrap();
        path
    };
    let (overflowing, eight_tb) = (write("overflowing.msc", OVERFLOWING), write("8tb.msc", EIGHT_TB));
    let check = mscc().arg("check").arg(&overflowing).output().unwrap();
    let overflow = mscc().current_dir(&dir).arg(&overflowing).arg("--run").output().unwrap();
    let refused = capped_mscc(&dir, &[eight_tb.as_os_str(), "--run".as_ref()]).output().unwrap();
    for (out, why) in [
        (check, "with halo [1, 1] is larger than the address space"),
        (overflow, "with halo [1, 1] is larger than the address space"),
        (refused, "needs 8000032000032 bytes, which could not be allocated"),
    ] {
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{stderr}");
        assert!(stderr.contains("a grid of [") && stderr.contains(why), "{stderr}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A daemon process, killed if a test ends before it shut down.
struct Serving(std::process::Child);

impl Drop for Serving {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// `mscc serve` with one worker on `dir/mscd.sock`, its address space
/// capped at 4 GB, once it listens; and `mscc submit` to it.
fn one_worker_daemon(dir: &std::path::Path) -> (Serving, impl Fn(&[&str]) -> std::process::Output) {
    let socket = dir.join("mscd.sock");
    let args = ["serve".as_ref(), "--workers".as_ref(), "1".as_ref(), "--socket".as_ref(), socket.as_os_str()];
    let daemon = Serving(capped_mscc(dir, &args).spawn().expect("mscd starts"));
    for _ in 0..200 {
        if socket.exists() {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(25));
    }
    assert!(socket.exists(), "daemon never bound its socket");
    let submit = move |args: &[&str]| {
        mscc().arg("submit").arg("--socket").arg(&socket).args(args).output().unwrap()
    };
    (daemon, submit)
}

#[test]
fn mscd_answers_a_run_it_cannot_provision_with_an_error_and_serves_the_next() {
    let dir = std::env::temp_dir().join(format!("mscc_cli_mscd_too_large_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let (mut daemon, submit) = one_worker_daemon(&dir);
    for (shape, why) in [
        (OVERFLOWING, "is larger than the address space"),
        (EIGHT_TB, "which could not be allocated"),
    ] {
        let path = dir.join("sized.msc");
        std::fs::write(&path, sized_source(shape)).unwrap();
        let out = submit(&["--run", path.to_str().unwrap()]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success() && stderr.contains(why), "{stderr}");
        let next = submit(&["--run", &dsl("wave2d.msc")]);
        assert!(next.status.success(), "{}", String::from_utf8_lossy(&next.stderr));
    }
    assert!(submit(&["--shutdown"]).status.success());
    assert!(daemon.0.wait().expect("daemon exits").success());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn mscd_reports_the_slots_a_run_allocated_and_a_repeated_run_allocates_none() {
    let dir = std::env::temp_dir().join(format!("mscc_cli_fresh_slots_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let (mut daemon, submit) = one_worker_daemon(&dir);
    let fresh = || {
        let out = submit(&["--run", &dsl("wave2d.msc")]);
        let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
        assert!(out.status.success(), "{stdout}");
        let counter = stdout.split_whitespace().find_map(|kv| kv.strip_prefix("fresh_slots="));
        counter.map_or(0, |n| n.parse::<u64>().unwrap())
    };
    // wave2d: two kernels, window 3, every slot written.
    assert_eq!(fresh(), 3);
    assert_eq!(fresh(), 0);
    assert!(submit(&["--shutdown"]).status.success());
    assert!(daemon.0.wait().expect("daemon exits").success());
    let _ = std::fs::remove_dir_all(&dir);
}
