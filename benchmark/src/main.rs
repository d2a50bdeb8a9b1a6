//! The repo benchmark. One invocation runs one workload:
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     --workload write_skew --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
//! ones; the last line of standard output is the result as one JSON object.
//! `--print-manifest` prints `BENCHMARK.json`; `--check-manifest` fails unless
//! the checked-in file is exactly that. See `README.md`.

mod end_to_end;
mod engine;
mod gen;
mod layered;
mod metrics;
mod os;
mod run;
mod summary;
mod trace;
mod workload;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use workload::Workload;

/// One run, as the command line asked for it.
pub struct Plan {
    pub workload: &'static Workload,
    pub seed: u64,
    pub seconds: u64,
    /// `benchmark/out`: everything a run writes goes under it.
    pub out: PathBuf,
}

impl Plan {
    pub fn db_dir(&self) -> PathBuf {
        self.out.join(format!("db-{}-{}", self.workload.name, std::process::id()))
    }
}

/// What one run found.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64)>,
    /// Lines for the reader: fingerprint, sample counts, warnings.
    pub notes: Vec<String>,
}

/// The benchmark's directory: where cargo says the package is when run
/// through `cargo run`, else where it was when compiled.
fn package_dir() -> PathBuf {
    std::env::var_os("CARGO_MANIFEST_DIR")
        .map_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")), PathBuf::from)
}

const USAGE: &str =
    "usage: triad-benchmark --workload <name> --seed <n> --seconds <n> --trace <0|1>
       triad-benchmark --print-manifest | --check-manifest";

fn flag<'a>(args: &'a [String], name: &str) -> Result<&'a str, String> {
    let at = args.iter().position(|a| a == name).ok_or(format!("missing {name}\n{USAGE}"))?;
    args.get(at + 1).map(String::as_str).ok_or(format!("{name} needs a value\n{USAGE}"))
}

fn number(args: &[String], name: &str) -> Result<u64, String> {
    let text = flag(args, name)?;
    text.parse().map_err(|_| format!("{name} takes a whole number, not {text:?}"))
}

fn check_manifest(package: &Path) -> Result<(), String> {
    metrics::check_tables()?;
    let path = package.join("..").join("BENCHMARK.json");
    let on_disk =
        std::fs::read_to_string(&path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    if on_disk != metrics::manifest_json() {
        return Err(format!(
            "{} differs from the runner's tables; regenerate it with --print-manifest",
            path.display()
        ));
    }
    Ok(())
}

fn run(args: &[String]) -> Result<bool, String> {
    let package = package_dir();
    if args.iter().any(|a| a == "--print-manifest") {
        metrics::check_tables()?;
        print!("{}", metrics::manifest_json());
        return Ok(true);
    }
    if args.iter().any(|a| a == "--check-manifest") {
        check_manifest(&package)?;
        println!("BENCHMARK.json matches the runner");
        return Ok(true);
    }
    let name = flag(args, "--workload")?;
    let plan = Plan {
        workload: Workload::by_name(name).ok_or(format!("unknown workload {name:?}"))?,
        // Any integer is a seed; a negative one is reinterpreted.
        seed: flag(args, "--seed")?
            .parse::<i128>()
            .map(|seed| seed as u64)
            .map_err(|_| "--seed takes a whole number".to_string())?,
        seconds: number(args, "--seconds")?,
        out: package.join("out"),
    };
    if plan.seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    engine::clear_env_overrides();
    let (outcome, units): (Outcome, Vec<(&str, &str)>) = match number(args, "--trace")? {
        0 => (
            end_to_end::measure(&plan)?,
            metrics::END_TO_END.iter().map(|m| (m.name, m.unit)).collect(),
        ),
        1 => (
            layered::measure(&plan)?,
            metrics::PER_LAYER.iter().map(|m| (m.name, m.unit)).collect(),
        ),
        other => return Err(format!("--trace takes 0 or 1, not {other}")),
    };
    metrics::check_emitted(&outcome.metrics, units.iter().map(|(name, _)| *name))?;

    let correct = outcome.failed == 0;
    println!("workload {} seed {} seconds {}", plan.workload.name, plan.seed, plan.seconds);
    for note in &outcome.notes {
        println!("{note}");
    }
    let unit_of = |name: &str| units.iter().find(|(n, _)| *n == name).expect("checked above").1;
    for (name, value) in &outcome.metrics {
        println!("{name:<44} {value:>16.4} {}", unit_of(name));
    }
    println!("attempted {} failed {}", outcome.attempted, outcome.failed);
    let body: Vec<String> = outcome
        .metrics
        .iter()
        .map(|(name, value)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{}\"}}", unit_of(name))
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted,
        outcome.failed,
        body.join(", ")
    );
    Ok(correct)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        // The result line is printed and says `correct: false`.
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::from(2)
        }
    }
}
