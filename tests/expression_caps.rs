//! The expression caps both front ends keep. An input whose tree could
//! exhaust a thread's stack in a recursive pass is a typed error before
//! any such pass runs, and the largest expression the caps let through
//! runs every pass on a 2 MiB stack, the default of a spawned thread.

use msc::core::expr::MAX_EXPR_NODES;
use msc::core::parse::parse;
use msc::core::schedule::{ExecPlan, Schedule};
use msc::lift::lift_source;
use msc::prelude::*;

fn on_a_2_mib_stack<R: Send + 'static>(f: impl FnOnce() -> R + Send + 'static) -> R {
    std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(f)
        .unwrap()
        .join()
        .unwrap()
}

/// Three hostile right-hand sides over one access `at`: a long chain of
/// terms, deep parentheses and a deep unary minus.
fn hostile(at: &str) -> [(&'static str, String); 3] {
    let n = 50_000;
    [
        (
            "a 20 000-term chain",
            vec![format!("0.5*{at}"); 20_000].join(" + "),
        ),
        (
            "deep parentheses",
            format!("{}{at}{}", "(".repeat(n), ")".repeat(n)),
        ),
        ("a deep unary minus", format!("{}{at}", "- ".repeat(n))),
    ]
}

fn msc_source(rhs: &str) -> String {
    format!(
        "stencil deep {{\n    grid B: f64[16, 16] halo 1 window 2;\n    kernel S = {rhs};\n    \
         combine res[t] = 1.0*S[t-1];\n    run 2;\n}}\n"
    )
}

fn c_source(rhs: &str) -> String {
    format!(
        "double A[32][32];\ndouble B[32][32];\nfor (int i = 6; i < 26; i++)\n  \
         for (int j = 6; j < 26; j++)\n    B[i][j] = {rhs};\n"
    )
}

#[test]
fn hostile_expressions_are_typed_errors_in_both_front_ends() {
    on_a_2_mib_stack(|| {
        for (what, rhs) in hostile("B[0,0]") {
            let err = parse(&msc_source(&rhs)).unwrap_err();
            assert!(
                matches!(&err, MscError::InvalidConfig(why)
                    if why.contains("nodes") || why.contains("depth cap")),
                "{what}: {err}"
            );
        }
        for (what, rhs) in hostile("A[i][j]") {
            let out = lift_source(&c_source(&rhs), "deep");
            assert!(out.lifted.is_none(), "{what}");
            let codes: Vec<LintCode> = out.report.diagnostics().iter().map(|d| d.code).collect();
            assert_eq!(codes, [LintCode::LiftNestTooDeep], "{what}");
        }
    });
}

#[test]
fn the_largest_accepted_expression_runs_every_pass_on_a_2_mib_stack() {
    on_a_2_mib_stack(|| {
        // Bare accesses give the deepest tree per node: n terms are 2n - 1
        // nodes and n - 1 additions deep.
        let widest = MAX_EXPR_NODES.div_ceil(2);
        let chain = |n: usize| msc_source(&vec!["B[0,0]"; n].join(" + "));
        assert!(parse(&chain(widest + 1)).is_err(), "one more term is over");
        let p = parse(&chain(widest)).unwrap().program;
        assert!(!lint_program(&p, None).has_deny());
        for target in [Target::SunwayCG, Target::Matrix, Target::Cpu] {
            compile_to_source(&p, target).unwrap();
        }
        let init: Grid<f64> = Grid::random(&p.grid.shape, &p.grid.halo, 3);
        let (reference, _) = run_program(&p, &Executor::Reference, &init).unwrap();
        let plan = ExecPlan::lower(&Schedule::default(), 2, &p.grid.shape).unwrap();
        let tiled = Executor::Tiled(plan);
        let (tiered, _) =
            run_program_tier(&p, &tiled, &init, Boundary::Dirichlet, ExecTier::Auto).unwrap();
        assert!(msc::exec::verify::same_bits(&reference, &tiered));

        // The lifter wants distinct taps and counts index nodes too:
        // `A[i+a][j+b]` is seven nodes, each `+` one more, the store's
        // target two.
        let taps: Vec<String> = (-6i64..=6)
            .flat_map(|a| (-6i64..=6).map(move |b| format!("A[i{a:+}][j{b:+}]")))
            .collect();
        let widest = (MAX_EXPR_NODES - 1) / 8;
        let chain = |n: usize| c_source(&taps[..n].join(" + "));
        let over = lift_source(&chain(widest + 1), "wide");
        assert!(over.report.has_code(LintCode::LiftNestTooDeep));
        let out = lift_source(&chain(widest), "wide");
        assert!(out.lifted.is_some(), "{}", out.report.render());
        // The deepest tree it admits, bare accesses, is walked and then
        // refused for its repeated tap.
        let bare = vec!["A[i][j]"; (MAX_EXPR_NODES - 1) / 4].join(" + ");
        let out = lift_source(&c_source(&bare), "deep");
        assert!(out.report.has_code(LintCode::LiftUnsupportedConstruct));
    });
}
