//! Repeated-run benchmark of the SoCCAR pipeline.
//!
//! ```text
//! soccar-perfbench --workload <x10-full|x10-coverage|serve-mix>
//!                  [--seed <n>] [--seconds <n>] [--trace <0|1>]
//!                  [--trace-out <path>]
//! ```
//!
//! Each run generates its inputs from `--seed`, measures for at least
//! `--seconds`, checks every output, prints a table of metrics and, as
//! its last line, one JSON object `{"correct", "attempted", "failed",
//! "metrics"}`. `--trace 0` reports the end-to-end metrics; `--trace 1`
//! also attaches a `soccar_obs::Recorder` to one extra analysis, writes
//! its NDJSON trace, and reports the per-layer metrics instead. A
//! failed output check makes the exit code non-zero. See `README.md`.

mod layers;
mod serving;
mod stats;
mod sys;
mod x10;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

/// Worker threads for every analysis and for the server: the benchmark
/// is sized for a 2-core machine.
pub const JOBS: usize = 2;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Seed for generated designs and the edit order.
    pub seed: u64,
    /// Minimum measured time.
    pub seconds: Duration,
    /// Report per-layer metrics from a traced run.
    pub trace: bool,
    /// Where the traced run writes its NDJSON trace.
    pub trace_out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 11;
    let mut seconds = 15;
    let mut trace = false;
    let mut trace_out = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got `{other}`")),
                }
            }
            "--trace-out" => trace_out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let trace_out = trace_out
        .unwrap_or_else(|| sys::state_dir().join(format!("trace-{workload}-{seed}.ndjson")));
    Ok(Args {
        workload,
        seed,
        seconds: Duration::from_secs(seconds),
        trace,
        trace_out,
    })
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Sample count and percentile label, for the printed table.
    pub note: String,
}

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Analyses or requests attempted in the measured phase.
    pub attempted: u64,
    /// Of which errored, were shed, or failed an output check.
    pub failed: u64,
    /// Named output-check failures (empty when correct).
    pub problems: Vec<String>,
    /// End-to-end metrics (`--trace 0`).
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics (`--trace 1`).
    pub per_layer: Vec<Metric>,
    /// Printed-only figures: metrics the JSON line cannot carry because
    /// they are zero on a healthy run, or that have no bound.
    pub extra: Vec<Metric>,
}

impl Outcome {
    /// Records a metric with a note.
    pub fn push(list: &mut Vec<Metric>, name: &str, value: f64, unit: &'static str, note: String) {
        list.push(Metric {
            name: name.to_owned(),
            value,
            unit,
            note,
        });
    }

    /// Records one output-check failure.
    pub fn fail(&mut self, problem: String) {
        self.failed += 1;
        self.problems.push(problem);
    }
}

/// Median-and-tail summary of a timing sample, pushed as two metrics
/// (`<base>_p50_<unit>` and `<base>_tail_<unit>`).
pub fn push_latency(list: &mut Vec<Metric>, base: &str, samples_ms: &[f64]) {
    let n = samples_ms.len();
    let p50 = stats::median(samples_ms).unwrap_or(0.0);
    let (level, tail) = stats::tail(samples_ms).unwrap_or((100.0, 0.0));
    let iqr = stats::quartiles(samples_ms)
        .map(|(q1, q3)| format!(", q1 {q1:.1} q3 {q3:.1}"))
        .unwrap_or_default();
    Outcome::push(
        list,
        &format!("{base}_p50_ms"),
        p50,
        "ms",
        format!("p50, n={n}{iqr}"),
    );
    Outcome::push(
        list,
        &format!("{base}_tail_ms"),
        tail,
        "ms",
        format!("p{level}, n={n}"),
    );
}

fn print_table(title: &str, metrics: &[Metric]) {
    println!("{title}");
    for m in metrics {
        println!(
            "  {:<34} {:>16} {:<6} {}",
            m.name,
            format!("{:.6}", m.value),
            m.unit,
            m.note
        );
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("soccar-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match args.workload.as_str() {
        "x10-full" => x10::run(&args, false),
        "x10-coverage" => x10::run(&args, true),
        "serve-mix" => serving::run(&args),
        other => {
            eprintln!(
                "soccar-perfbench: unknown workload `{other}` (x10-full, x10-coverage, serve-mix)"
            );
            return ExitCode::from(2);
        }
    };
    let mut outcome = match outcome {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("soccar-perfbench: {}: {e}", args.workload);
            return ExitCode::from(1);
        }
    };

    let reported = if args.trace {
        outcome.per_layer.clone()
    } else {
        outcome.end_to_end.clone()
    };
    // A metric that could not be computed (a zero denominator) fails the
    // run; it is printed as `null`.
    for m in reported.iter().filter(|m| !m.value.is_finite()) {
        outcome.fail(format!("metric {} is {}", m.name, m.value));
    }

    let cores = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    println!(
        "workload {} seed {} on {cores} cores, jobs {JOBS} ({} attempted, {} failed)",
        args.workload, args.seed, outcome.attempted, outcome.failed
    );
    print_table("end-to-end:", &outcome.end_to_end);
    print_table("checks and unbounded figures:", &outcome.extra);
    if args.trace {
        print_table("per-layer:", &outcome.per_layer);
        println!("trace: {}", args.trace_out.display());
    }
    for p in &outcome.problems {
        println!("CHECK FAILED: {p}");
    }
    let correct = outcome.problems.is_empty() && outcome.failed == 0 && outcome.attempted > 0;
    let metrics: Vec<String> = reported
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                if m.value.is_finite() {
                    format!("{:?}", m.value)
                } else {
                    "null".to_owned()
                },
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted,
        // Run-level check failures (a digest mismatch, say) can outnumber
        // the operations attempted; the count stays a share of them.
        outcome.failed.min(outcome.attempted),
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
