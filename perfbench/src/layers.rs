//! Per-layer measurements of one design, taken from outside: each layer's
//! public entry point is timed directly, and one traced analysis supplies
//! the spans, counters, gauges and histograms the program already emits.

use soccar::{AnalysisReport, Soccar, SoccarConfig};
use soccar_concolic::{ConcolicEngine, SecurityProperty};
use soccar_lint::Linter;
use soccar_obs::{Recorder, TraceSnapshot};
use soccar_rtl::{elaborate::elaborate, parser::parse, span::SourceMap, LogicVec};
use soccar_sim::{InitPolicy, Simulator};

use crate::{stats, Metric, Outcome, JOBS};

/// Repetitions of each timed probe; the median is reported.
const PROBE_REPS: usize = 3;

/// Flip candidates solved by the smt probe (the last `FLIP_CAP`
/// observations of the round-1 flip workload).
const FLIP_CAP: usize = 512;

/// One design plus the configuration it is analysed under.
#[derive(Debug, Clone)]
pub struct Subject {
    /// File name the pipeline reports.
    pub file: String,
    /// Verilog source.
    pub source: String,
    /// Top module.
    pub top: String,
    /// Security properties checked.
    pub properties: Vec<SecurityProperty>,
    /// Pipeline configuration (`jobs` already set).
    pub config: SoccarConfig,
}

impl Subject {
    /// One untraced batch analysis.
    ///
    /// # Errors
    ///
    /// Propagates pipeline failures as text.
    pub fn analyze(&self) -> Result<AnalysisReport, String> {
        self.analyze_with(Recorder::disabled())
    }

    /// One batch analysis reporting into `recorder`.
    ///
    /// # Errors
    ///
    /// Propagates pipeline failures as text.
    pub fn analyze_with(&self, recorder: Recorder) -> Result<AnalysisReport, String> {
        Soccar::new(self.config.clone())
            .with_recorder(recorder)
            .analyze(&self.file, &self.source, &self.top, self.properties.clone())
            .map_err(|e| e.to_string())
    }
}

/// Runs `f` [`PROBE_REPS`] times, each under a `span` of `recorder`;
/// returns the last result and the median wall time in ms.
fn timed<R>(
    recorder: &Recorder,
    span: &str,
    mut f: impl FnMut() -> Result<R, String>,
) -> Result<(R, f64), String> {
    let mut times = Vec::with_capacity(PROBE_REPS);
    let mut last = None;
    for _ in 0..PROBE_REPS {
        let (result, elapsed) = recorder.time(span, &mut f);
        last = Some(result?);
        times.push(elapsed.as_secs_f64() * 1e3);
    }
    let value = last.ok_or("no probe repetitions")?;
    Ok((value, stats::median(&times).unwrap_or(0.0)))
}

fn push(out: &mut Vec<Metric>, name: &str, value: f64, unit: &'static str) {
    Outcome::push(out, name, value, unit, String::new());
}

/// Times each layer's public entry point on `subject`, each call under a
/// `bench.<layer>` span of `recorder`, and pushes the `rtl.*`, `lint.*`,
/// `cfg.*`, `sim.*`, `concolic.engine_new_ms` and
/// `smt.solve_us_per_candidate` metrics. Returns `sim.round_ms`.
///
/// # Errors
///
/// Propagates any layer failure as text.
pub fn probe(subject: &Subject, recorder: &Recorder, out: &mut Vec<Metric>) -> Result<f64, String> {
    let config = &subject.config;
    let mut map = SourceMap::new();
    let file = map.add_file(&subject.file, &subject.source);
    let ((unit, design), frontend_ms) = timed(recorder, "bench.rtl.frontend", || {
        let unit = parse(file, &subject.source).map_err(|e| e.to_string())?;
        let design = elaborate(&unit, &subject.top).map_err(|e| e.to_string())?;
        Ok((unit, design))
    })?;
    push(out, "rtl.frontend_ms", frontend_ms, "ms");

    let (_, lint_ms) = timed(recorder, "bench.lint", || {
        Ok(Linter::new()
            .with_naming(config.naming.clone())
            .with_config(config.lint.clone())
            .lint_unit(&unit, &map))
    })?;
    push(out, "lint.ms", lint_ms, "ms");

    let ((soc, bound), cfg_ms) = timed(recorder, "bench.cfg", || {
        let (soc, _) = soccar_cfg::compose_soc_jobs(
            &unit,
            &subject.top,
            &config.naming,
            config.analysis,
            JOBS,
        )?;
        let bound = soccar_cfg::bind_events(&design, &soc).map_err(|e| e.to_string())?;
        Ok((soc, bound))
    })?;
    push(out, "cfg.ms", cfg_ms, "ms");
    push(out, "cfg.ar_events", soc.event_count() as f64, "count");
    push(
        out,
        "cfg.reset_domains",
        soc.reset_domains.len() as f64,
        "count",
    );

    let (_, init_ms) = timed(recorder, "bench.sim.init", || {
        Ok(Simulator::concrete(&design, InitPolicy::Ones))
    })?;
    let cycles = config.concolic.cycles;
    let (_, round_ms) = timed(recorder, "bench.sim.round", || {
        simulate_round(&design, cycles)
    })?;
    push(out, "sim.init_ms", init_ms, "ms");
    push(
        out,
        "sim.tick_us",
        (round_ms - init_ms) * 1e3 / cycles.max(1) as f64,
        "us",
    );
    push(out, "sim.round_ms", round_ms, "ms");

    let mut concolic = config.concolic.clone();
    concolic.jobs = JOBS;
    let (mut engine, engine_new_ms) = timed(recorder, "bench.concolic.engine_new", || {
        ConcolicEngine::new(
            &design,
            &bound,
            subject.properties.clone(),
            concolic.clone(),
        )
    })?;
    push(out, "concolic.engine_new_ms", engine_new_ms, "ms");

    let workload = engine.flip_workload().map_err(|e| e.to_string())?;
    let candidates = workload.candidates(FLIP_CAP);
    let (_, solve_ms) = timed(recorder, "bench.smt.solve_incremental", || {
        Ok(workload.solve_incremental(FLIP_CAP, &Recorder::disabled()))
    })?;
    push(
        out,
        "smt.solve_us_per_candidate",
        solve_ms * 1e3 / candidates.max(1) as f64,
        "us",
    );
    Ok(round_ms)
}

/// A concrete simulator built and run for one horizon: resets held
/// deasserted, clocks parked low, every other input zero, then `cycles`
/// ticks of the first clock.
fn simulate_round(design: &soccar_rtl::Design, cycles: u64) -> Result<(), String> {
    let mut sim = Simulator::concrete(design, InitPolicy::Ones);
    let mut clock = None;
    for net in design.top_inputs() {
        let n = design.net(net);
        let leaf = n.name.rsplit('.').next().unwrap_or(&n.name);
        let value = if leaf.contains("clk") {
            clock.get_or_insert(net);
            LogicVec::zeros(n.width)
        } else if leaf.contains("rst") {
            LogicVec::from_u64(n.width, u64::from(leaf.ends_with("_n")))
        } else {
            LogicVec::zeros(n.width)
        };
        sim.write_input(net, value).map_err(|e| e.to_string())?;
    }
    sim.settle().map_err(|e| e.to_string())?;
    let clock = clock.ok_or("design has no clock input")?;
    for _ in 0..cycles {
        sim.tick(clock).map_err(|e| e.to_string())?;
    }
    Ok(())
}

fn span_secs(snap: &TraceSnapshot, names: &[&str]) -> f64 {
    snap.spans
        .iter()
        .filter(|s| names.contains(&s.name.as_str()))
        .filter_map(|s| s.elapsed)
        .fold(0.0, |total, d| total + d.as_secs_f64())
}

fn span_field_sum(snap: &TraceSnapshot, names: &[&str], field: &str) -> u64 {
    snap.spans
        .iter()
        .filter(|s| names.contains(&s.name.as_str()))
        .flat_map(|s| &s.fields)
        .filter_map(|(k, v)| match v {
            soccar_obs::Value::U64(n) if k == field => Some(*n),
            _ => None,
        })
        .sum()
}

const SWEEP_SPANS: [&str; 2] = ["concolic.sweep", "concolic.sweep_high"];

/// Share of the traced `pipeline.analyze` span covered by the named layer
/// spans: frontend, lint, AR_CFG, the phase-1 rounds and the sweeps.
#[must_use]
pub fn attributed_frac(snap: &TraceSnapshot) -> f64 {
    let total = span_secs(snap, &["pipeline.analyze"]);
    let named = span_secs(
        snap,
        &[
            "pipeline.frontend",
            "pipeline.lint",
            "pipeline.ar_cfg",
            "concolic.round",
            "concolic.sweep",
            "concolic.sweep_high",
        ],
    );
    if total > 0.0 {
        named / total
    } else {
        0.0
    }
}

/// Pushes the metrics read from one traced analysis: counters, gauges,
/// histogram sums and span-derived concolic timings. `sim_round_ms` comes
/// from [`probe`] and anchors `concolic.shadow_overhead_ms`.
pub fn from_trace(snap: &TraceSnapshot, sim_round_ms: f64, out: &mut Vec<Metric>) {
    let counter = |name: &str| snap.counters.get(name).copied().unwrap_or(0) as f64;
    let gauge = |name: &str| snap.gauges.get(name).copied().unwrap_or(0.0);
    let hist_sum = |name: &str| snap.histograms.get(name).map_or(0.0, |h| h.sum as f64);

    push(out, "rtl.tokens", counter("rtl.tokens"), "count");
    push(out, "rtl.processes", counter("rtl.processes"), "count");
    push(
        out,
        "lint.diagnostics",
        counter("lint.diagnostics"),
        "count",
    );

    let phase1_s = span_secs(snap, &["concolic.round"]);
    let sweep_s = span_secs(snap, &SWEEP_SPANS);
    let sweep_rounds = span_field_sum(snap, &SWEEP_SPANS, "rounds");
    let sweep_round_ms = if sweep_rounds > 0 {
        sweep_s * 1e3 / sweep_rounds as f64
    } else {
        0.0
    };
    let shadow_ms = if sweep_rounds > 0 {
        sweep_round_ms - sim_round_ms
    } else {
        0.0
    };
    let candidates = counter("concolic.flip_candidates");
    push(out, "concolic.phase1_s", phase1_s, "s");
    push(out, "concolic.sweep_s", sweep_s, "s");
    push(out, "concolic.sweep_round_ms", sweep_round_ms, "ms");
    push(out, "concolic.shadow_overhead_ms", shadow_ms, "ms");
    push(out, "concolic.rounds", counter("concolic.rounds"), "count");
    push(
        out,
        "concolic.stale_round_frac",
        stats::stale_round_frac(&snap.spans),
        "frac",
    );
    push(out, "concolic.flip_candidates", candidates, "count");
    push(
        out,
        "concolic.flip_yield",
        if candidates > 0.0 {
            counter("concolic.flip_sat") / candidates
        } else {
            0.0
        },
        "frac",
    );

    push(out, "smt.queries", counter("smt.queries"), "count");
    push(out, "smt.sat", counter("smt.sat"), "count");
    push(out, "smt.unsat", counter("smt.unsat"), "count");
    push(out, "smt.conflicts_sum", hist_sum("smt.conflicts"), "count");
    push(
        out,
        "smt.propagations_sum",
        hist_sum("smt.propagations"),
        "count",
    );
    push(
        out,
        "smt.sat_clauses_sum",
        hist_sum("smt.sat_clauses"),
        "count",
    );

    push(
        out,
        "exec.flips.utilization",
        gauge("exec.flips.utilization"),
        "frac",
    );
    push(
        out,
        "exec.extract.utilization",
        gauge("exec.extract.utilization"),
        "frac",
    );
    push(out, "obs.attributed_frac", attributed_frac(snap), "frac");
}
