//! Machine-readable experiment output, used by `all_experiments --json`
//! so downstream tooling can diff reproduction runs.

use msc_trace::Json;

/// Dump every speedup-style experiment as one JSON document.
pub fn experiments_json() -> msc_core::error::Result<Json> {
    use crate::figures;
    use msc_machine::model::Precision;

    let speedups = |rows: &[figures::SpeedupRow]| {
        Json::Arr(
            rows.iter()
                .map(|r| {
                    Json::obj(vec![
                        ("benchmark", Json::s(r.name)),
                        ("speedup", Json::n(r.speedup)),
                    ])
                })
                .collect(),
        )
    };

    let fig10 = |mode: figures::scaling::Mode| -> msc_core::error::Result<Json> {
        use figures::scaling::*;
        let mut out = Vec::new();
        for platform in [Platform::Sunway, Platform::Tianhe3] {
            for dim in [2usize, 3] {
                let pts = series(dim, mode, platform)?;
                out.push(Json::obj(vec![
                    ("platform", Json::s(format!("{platform:?}"))),
                    ("dim", Json::n(dim as f64)),
                    (
                        "points",
                        Json::Arr(
                            pts.iter()
                                .map(|p| {
                                    Json::obj(vec![
                                        ("cores", Json::n(p.cores as f64)),
                                        ("gflops", Json::n(p.gflops)),
                                        ("ideal", Json::n(p.ideal_gflops)),
                                    ])
                                })
                                .collect(),
                        ),
                    ),
                ]));
            }
        }
        Ok(Json::Arr(out))
    };

    Ok(Json::obj(vec![
        ("fig7_fp64", speedups(&figures::fig7_rows(Precision::Fp64)?)),
        ("fig7_fp32", speedups(&figures::fig7_rows(Precision::Fp32)?)),
        ("fig8_fp64", speedups(&figures::fig8_rows(Precision::Fp64)?)),
        ("fig10_strong", fig10(figures::scaling::Mode::Strong)?),
        ("fig10_weak", fig10(figures::scaling::Mode::Weak)?),
        (
            "fig12",
            Json::Arr(
                figures::fig12_rows()?
                    .iter()
                    .map(|(aot, msc)| {
                        Json::obj(vec![
                            ("benchmark", Json::s(aot.name)),
                            ("halide_aot", Json::n(aot.speedup)),
                            ("msc", Json::n(msc.speedup)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("fig13", speedups(&figures::fig13_rows()?)),
        ("fig14", speedups(&figures::fig14_rows()?)),
    ]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn experiments_document_builds() {
        let j = experiments_json().unwrap();
        let s = j.to_string();
        assert!(s.contains("fig7_fp64"));
        assert!(s.contains("fig13"));
        assert!(s.contains("2d169pt_box"));
        // Must be parseable by a strict reader: balanced braces.
        assert_eq!(s.matches('{').count(), s.matches('}').count());
        assert_eq!(s.matches('[').count(), s.matches(']').count());
    }
}
