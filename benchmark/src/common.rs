//! What every workload shares: the parsed command line, the metric
//! table read from `BENCHMARK.json`, the seeded generator, the failure
//! tally and the report that ends in the one-line JSON result.

use crate::json::Json;
use crate::spans::Recorder;
use crate::stats::{quantile_sorted, quiet, samples_beyond, sorted, summarize, Better};
use msc_exec::Grid;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

pub const WORKLOADS: [&str; 5] = ["stream3d", "dense2d", "halo2r", "compile_many", "mscd_mix"];

/// Everything the benchmark reads lies here, relative to the checkout
/// root the command is run from; everything it writes goes to `OUT_DIR`.
pub const INPUT_DIR: &str = "benchmark/inputs";
pub const OUT_DIR: &str = "benchmark/out";

#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Toy sizes and fixed small rep counts: checks the output schema and
    /// correctness, says nothing about speed.
    pub smoke: bool,
    /// Also append the result, tagged with workload, seed and mode, to
    /// this JSON-lines file (what `compare` reads).
    pub out: Option<PathBuf>,
}

#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    pub better: Better,
    /// Only end-to-end metrics carry a bound.
    pub bound: Option<f64>,
}

/// The parts of `BENCHMARK.json` the program itself needs. Reading the
/// names and units from the file keeps the code and the contract from
/// drifting apart: a run whose metric set differs from the file fails.
#[derive(Debug, Clone)]
pub struct Spec {
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

impl Spec {
    pub fn load(path: &Path) -> Result<Spec, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        Spec::parse(&text)
    }

    pub fn parse(text: &str) -> Result<Spec, String> {
        let doc = Json::parse(text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        let list = |key: &str| {
            doc.get(key)
                .and_then(Json::as_arr)
                .ok_or_else(|| format!("BENCHMARK.json: no `{key}` list"))
        };
        let str_of = |item: &Json, key: &str| {
            item.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("BENCHMARK.json: entry without `{key}`"))
        };
        let metrics = |key: &str| -> Result<Vec<MetricSpec>, String> {
            list(key)?
                .iter()
                .map(|m| {
                    Ok(MetricSpec {
                        name: str_of(m, "name")?,
                        unit: str_of(m, "unit")?,
                        better: match str_of(m, "better")?.as_str() {
                            "lower" => Better::Lower,
                            "higher" => Better::Higher,
                            other => return Err(format!("BENCHMARK.json: better `{other}`")),
                        },
                        bound: m.get("bound").and_then(Json::as_f64),
                    })
                })
                .collect()
        };
        Ok(Spec {
            workloads: list("workloads")?
                .iter()
                .map(|w| str_of(w, "name"))
                .collect::<Result<_, _>>()?,
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        })
    }
}

/// SplitMix64: the benchmark's own generator, so that inputs depend on
/// `--seed` and on nothing inside the program under test.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Initial values for a grid, halo included, drawn from `seed`.
pub fn seeded_grid(shape: &[usize], halo: &[usize], seed: u64) -> Grid<f64> {
    let mut g: Grid<f64> = Grid::zeros(shape, halo);
    let mut rng = Rng::new(seed);
    for v in g.as_mut_slice() {
        *v = rng.next_f64();
    }
    g
}

/// An input file; with `smoke`, its toy-size twin where one exists.
pub fn read_input(smoke: bool, name: &str) -> Result<String, String> {
    let twin = Path::new(INPUT_DIR).join("smoke").join(name);
    let path = if smoke && twin.exists() {
        twin
    } else {
        Path::new(INPUT_DIR).join(name)
    };
    std::fs::read_to_string(&path).map_err(|e| format!("cannot read {}: {e}", path.display()))
}

/// Operations attempted and failed. Failed means: result bits differ
/// from the oracle, a call returned `Err`, a response was of another
/// kind than the input calls for, or a lift was not validated.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn note(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    pub fn failed_share(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    /// Any failure makes the run exit non-zero.
    pub fn exit_code(&self) -> u8 {
        if self.failed > 0 || self.attempted == 0 {
            1
        } else {
            0
        }
    }
}

/// How many reps a tracing-off run makes: exactly `smoke` at toy sizes,
/// else at least `min` and then as many more as fit `--seconds`.
pub struct Reps {
    deadline: Instant,
    min: usize,
    max: usize,
}

impl Reps {
    pub fn new(args: &Args, min: usize, smoke: usize) -> Reps {
        let (min, max) = if args.smoke {
            (smoke, smoke)
        } else {
            (min, usize::MAX)
        };
        Reps {
            deadline: Instant::now() + Duration::from_secs_f64(args.seconds),
            min,
            max,
        }
    }

    pub fn more(&self, done: usize) -> bool {
        done < self.min || (done < self.max && Instant::now() < self.deadline)
    }
}

pub struct Ctx {
    pub args: Args,
    pub rec: Recorder,
    pub tally: Tally,
    values: Vec<(String, f64)>,
}

impl Ctx {
    pub fn new(args: Args) -> Ctx {
        Ctx {
            args,
            rec: Recorder::new(),
            tally: Tally::default(),
            values: Vec::new(),
        }
    }

    /// Record a metric of the contract (end-to-end with tracing off,
    /// per-layer in the traced pass).
    pub fn set(&mut self, name: &str, value: f64) {
        match self.values.iter_mut().find(|(n, _)| n == name) {
            Some(slot) => slot.1 = value,
            None => self.values.push((name.to_string(), value)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// The four end-to-end metrics of a tracing-off run. `setup_s` is the
    /// median of the run's set-ups; `op_p10_ms` the lower decile of its
    /// operation times (see `stats::quiet`); `work_per_s` the caller's
    /// work items over the lower-decile time they took; `peak_rss_mb`
    /// this process's `VmHWM` now. Medians, quartiles and counts are
    /// printed beside them.
    pub fn set_end_to_end(&mut self, setup_s: &[f64], op_s: &[f64], work_per_s: f64) {
        let (setup, op) = (summarize(setup_s), summarize(op_s));
        println!(
            "  setup_s: quartiles {:.6} .. {:.6}, n={}",
            setup.q1, setup.q3, setup.n
        );
        println!(
            "  op_p10_ms: median {:.6}, quartiles {:.6} .. {:.6}, n={}",
            op.median * 1e3,
            op.q1 * 1e3,
            op.q3 * 1e3,
            op.n
        );
        self.set("setup_s", setup.median);
        self.set("op_p10_ms", quiet(op_s) * 1e3);
        self.set("work_per_s", work_per_s);
        self.set("peak_rss_mb", crate::host::peak_rss_mb());
    }

    /// Something worth printing that is not a metric of the contract.
    pub fn info(&self, name: &str, value: f64, unit: &str) {
        println!("info {name} {value:.6} {unit}");
    }

    /// A high percentile, in ms, printed with how many samples lie beyond
    /// it: worth reading only where that is ten or more.
    pub fn info_tail(&self, name: &str, samples_s: &[f64], q: f64) {
        let tail = sorted(samples_s);
        println!(
            "info {name} {:.6} ms ({} beyond it of {})",
            quantile_sorted(&tail, q) * 1e3,
            samples_beyond(tail.len(), q),
            tail.len()
        );
    }

    /// Print every metric by name with its unit, then the result line.
    /// Fails when the metrics recorded are not exactly those the
    /// contract lists for this mode.
    pub fn finish(&self, spec: &Spec) -> Result<String, String> {
        let wanted = if self.args.trace {
            &spec.per_layer
        } else {
            &spec.end_to_end
        };
        let mut fields = Vec::new();
        for m in wanted {
            let v = self
                .get(&m.name)
                .ok_or_else(|| format!("metric `{}` was not measured", m.name))?;
            if !v.is_finite() {
                return Err(format!("metric `{}` is not a number", m.name));
            }
            println!("{:<34} {:>18.6} {}", m.name, v, m.unit);
            fields.push((
                m.name.as_str(),
                Json::obj(vec![("value", Json::Num(v)), ("unit", Json::s(&m.unit))]),
            ));
        }
        if let Some((extra, _)) = self
            .values
            .iter()
            .find(|(n, _)| !wanted.iter().any(|m| &m.name == n))
        {
            return Err(format!("metric `{extra}` is not in BENCHMARK.json"));
        }
        println!(
            "{:<34} {:>18.6} ratio ({} of {})",
            "failed_share",
            self.tally.failed_share(),
            self.tally.failed,
            self.tally.attempted
        );
        Ok(Json::obj(vec![
            (
                "correct",
                Json::Bool(self.tally.failed == 0 && self.tally.attempted > 0),
            ),
            ("attempted", Json::Num(self.tally.attempted as f64)),
            ("failed", Json::Num(self.tally.failed as f64)),
            ("metrics", Json::obj(fields)),
        ])
        .to_line())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_repeat_and_differ() {
        let a = seeded_grid(&[6, 6], &[1, 1], 42);
        assert_eq!(a.as_slice(), seeded_grid(&[6, 6], &[1, 1], 42).as_slice());
        assert_ne!(a.as_slice(), seeded_grid(&[6, 6], &[1, 1], 43).as_slice());
        assert!(a.as_slice().iter().all(|v| (0.0..1.0).contains(v)));
    }

    #[test]
    fn a_failure_shows_in_share_and_exit_code() {
        let mut t = Tally::default();
        t.note(true);
        assert_eq!((t.failed_share(), t.exit_code()), (0.0, 0));
        t.note(false);
        assert_eq!(t.failed_share(), 0.5);
        assert_ne!(t.exit_code(), 0);
        // Nothing attempted is not a pass either.
        assert_ne!(Tally::default().exit_code(), 0);
    }

    #[test]
    fn the_committed_contract_parses_and_names_the_five_workloads() {
        let spec = Spec::load(Path::new(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../BENCHMARK.json"
        )))
        .unwrap();
        assert_eq!(spec.workloads, WORKLOADS);
        assert!(spec
            .end_to_end
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Better::Lower));
        assert!(spec
            .end_to_end
            .iter()
            .all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        assert!(!spec.per_layer.is_empty() && spec.per_layer.len() <= 128);
        let mut names: Vec<&str> = spec
            .end_to_end
            .iter()
            .chain(&spec.per_layer)
            .map(|m| m.name.as_str())
            .collect();
        names.sort_unstable();
        assert!(
            names.windows(2).all(|w| w[0] != w[1]),
            "a metric name is used twice"
        );
    }
}
