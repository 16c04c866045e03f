//! The `x10-full` and `x10-coverage` workloads: `gen:<seed>:15` (169
//! modules) analysed end to end at the CLI defaults, with or without the
//! reset sweep.

use std::time::Instant;

use soccar::{score_generated, SoccarConfig};
use soccar_concolic::{ConcolicConfig, SecurityProperty};
use soccar_obs::Recorder;
use soccar_soc::GenSpec;

use crate::layers::{self, Subject};
use crate::{serving, stats, sys, Args, Outcome, JOBS};

/// Cluster count of the x10 design: 11 · 15 + 4 = 169 modules.
const SCALE: u32 = 15;

/// Set-up repetitions: generating the design takes well under a
/// millisecond, so many repetitions keep the median steady.
const SETUP_REPS: usize = 101;

/// Traced runs on `x10-full` must attribute at least this share of the
/// analysis to named layer spans.
const MIN_ATTRIBUTED: f64 = 0.95;

/// The x10 analysis configuration: the CLI defaults (cycles 24, rounds
/// 12, sweep stride 1) at `jobs = 2`.
fn config(symbolic: Vec<String>, skip_sweep: bool) -> SoccarConfig {
    SoccarConfig {
        concolic: ConcolicConfig {
            cycles: 24,
            max_rounds: 12,
            sweep_stride: 1,
            symbolic_inputs: symbolic,
            skip_sweep,
            ..ConcolicConfig::default()
        },
        jobs: JOBS,
        ..SoccarConfig::default()
    }
}

/// Runs one x10 workload.
///
/// # Errors
///
/// On a pipeline error (an analysis that did not finish at all).
pub fn run(args: &Args, skip_sweep: bool) -> Result<Outcome, String> {
    let spec = GenSpec {
        seed: args.seed,
        scale: SCALE,
    };
    let name = if skip_sweep {
        "x10-coverage"
    } else {
        "x10-full"
    };

    // Set-up: generate the design source and its manifest.
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut generated = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let gen = soccar_soc::generate::generate(&spec);
        let properties: Vec<SecurityProperty> =
            gen.checks.iter().map(soccar::property_of).collect();
        setup_s.push(t.elapsed().as_secs_f64());
        generated = Some((gen, properties));
    }
    let (gen, properties) = generated.ok_or("no set-up repetitions")?;
    let subject = Subject {
        file: format!("{}.v", gen.slug),
        source: gen.source.clone(),
        top: gen.top.clone(),
        properties,
        config: config(gen.symbolic.clone(), skip_sweep),
    };

    let mut out = Outcome::default();
    let mut digests = Vec::new();
    let mut check = |out: &mut Outcome, report: &soccar::AnalysisReport| -> Result<(), String> {
        let recall = score_generated(&gen.manifest, report);
        if recall.detected != recall.total {
            out.fail(format!(
                "recall {}/{}: missed {:?}",
                recall.detected, recall.total, recall.missed
            ));
        } else if recall.false_alarms > 0 {
            out.fail(format!("{} false alarm(s)", recall.false_alarms));
        } else if report.is_degraded() {
            out.fail(format!("degraded run: {:?}", report.health().reasons()));
        }
        let json = report.canonical_json().map_err(|e| e.to_string())?;
        digests.push(sys::digest(json.as_bytes()));
        Ok(())
    };

    // Measured phase: whole analyses until the time is up (at least one).
    let mut analysis_s = Vec::new();
    let cpu_before = sys::cpu_seconds();
    let started = Instant::now();
    let last = loop {
        let t = Instant::now();
        let report = subject.analyze()?;
        analysis_s.push(t.elapsed().as_secs_f64());
        out.attempted += 1;
        check(&mut out, &report)?;
        if started.elapsed() >= args.seconds {
            break report;
        }
    };
    let cpu_per_wall = (sys::cpu_seconds() - cpu_before) / analysis_s.iter().sum::<f64>();
    let analysis_p50 = stats::median(&analysis_s).unwrap_or(0.0);
    let recall = score_generated(&gen.manifest, &last);

    let e2e = &mut out.end_to_end;
    let n = analysis_s.len();
    Outcome::push(
        e2e,
        "setup_s",
        stats::median(&setup_s).unwrap_or(0.0),
        "s",
        format!("p50, n={SETUP_REPS}"),
    );
    let (level, tail) = stats::tail(&analysis_s).unwrap_or((100.0, 0.0));
    let note = format!("p50, n={n}; tail p{level} {tail:.3} s");
    Outcome::push(e2e, "analysis_s", analysis_p50, "s", note);
    Outcome::push(
        e2e,
        "peak_rss_mb",
        sys::peak_rss_mb(),
        "MiB",
        "VmHWM".into(),
    );
    Outcome::push(
        e2e,
        "coverage",
        last.concolic.targets_covered as f64 / last.concolic.targets_total.max(1) as f64,
        "frac",
        "AR_CFG targets covered / total".into(),
    );
    let recall_frac = recall.detected as f64 / recall.total.max(1) as f64;
    Outcome::push(
        e2e,
        "recall",
        recall_frac,
        "frac",
        format!("{}/{} seeded bugs", recall.detected, recall.total),
    );

    if args.trace {
        let recorder = Recorder::enabled();
        let t = Instant::now();
        let report = subject.analyze_with(recorder.clone())?;
        let traced_s = t.elapsed().as_secs_f64();
        check(&mut out, &report)?;
        let snap = recorder.snapshot();

        let layer = &mut out.per_layer;
        let sim_round_ms = layers::probe(&subject, &recorder, layer)?;
        layers::from_trace(&snap, sim_round_ms, layer);
        sys::write_trace(&args.trace_out, &recorder.snapshot())?;
        Outcome::push(
            layer,
            "exec.cpu_per_wall",
            cpu_per_wall,
            "ratio",
            String::new(),
        );
        Outcome::push(
            layer,
            "obs.trace_overhead_frac",
            traced_s / analysis_p50 - 1.0,
            "frac",
            format!("traced {traced_s:.3} s vs untraced p50 {analysis_p50:.3} s"),
        );
        let attributed = layers::attributed_frac(&snap);
        if !skip_sweep && attributed < MIN_ATTRIBUTED {
            out.fail(format!(
                "named layer spans cover {:.1}% of the traced analysis (< {:.0}%)",
                attributed * 100.0,
                MIN_ATTRIBUTED * 100.0
            ));
        }
        // The serving layer is measured on its own request mix (the
        // Table IV variants), which does not depend on this workload.
        serving::probe(args, &mut out)?;
    }

    // Every analysis of this design — untraced, traced, and those of
    // earlier runs of this binary — must produce the same canonical JSON.
    if digests.windows(2).any(|w| w[0] != w[1]) {
        out.fail(format!(
            "canonical JSON differs between analyses: {digests:?}"
        ));
    }
    if let Some(first) = digests.first() {
        let key = format!("{name}-{}", spec.slug());
        if let Some(earlier) = sys::check_recorded_digest(&key, first) {
            out.fail(format!(
                "canonical JSON digest {first} differs from an earlier run's {earlier}"
            ));
        }
    }
    Outcome::push(
        &mut out.extra,
        "false_alarms",
        recall.false_alarms as f64,
        "count",
        String::new(),
    );
    let failed_frac = out.failed as f64 / out.attempted.max(1) as f64;
    Outcome::push(
        &mut out.extra,
        "failed_frac",
        failed_frac,
        "frac",
        String::new(),
    );
    Ok(out)
}
