//! The concolic testing engine — the paper's **Algorithm 3**.
//!
//! Each *round* is one concrete simulation of the SoC with a symbolic
//! shadow riding along ([`crate::coalg::CoAlgebra`]):
//!
//! 1. Round 1 drives random inputs with registers initialized to all-ones
//!    (so un-cleared registers are visible), and a power-on pulse on every
//!    controllable reset domain.
//! 2. During the run, every branch whose condition depends on a symbolic
//!    input (reset lines and selected data inputs are symbolic, fresh
//!    variables per cycle) is logged; security properties ("Restricts")
//!    are checked every cycle and produce *invalidation messages* naming
//!    the violating module.
//! 3. After a round, if a target event of the AR_CFG is still uncovered,
//!    the engine picks one of its branch occurrences, conjoins the path
//!    prefix with the flipped condition — clock edges and reset tests are
//!    already equivalences over per-cycle input variables, exactly the
//!    transformation the paper describes — and asks the solver for a new
//!    input schedule.
//! 4. Once coverage saturates (or no flip is solvable), a systematic
//!    *reset sweep* moves an asynchronous pulse across every cycle of
//!    every domain, exploring the reset-timing space the paper calls
//!    "prohibitive" for plain dynamic validation — here it is tractable
//!    because the AR_CFG restricts attention to reset-governed logic.
//!    Each sweep position starts from the same base schedule, so the
//!    positions run on the worker pool and are merged back in round
//!    order. At one position every domain's round drives the same
//!    inputs until its pulse, so those cycles are simulated once and
//!    forked per domain. No flip is planned from a sweep round, so it
//!    drives its inputs concretely and builds no symbolic shadow.
//!
//! Every round starts from one cached power-on state (time-zero inputs
//! settled, monitors resolved) instead of building a simulator afresh.

use std::collections::{BTreeSet, HashMap, HashSet};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use soccar_cfg::bind::BoundEvent;
use soccar_cfg::extract::EventArm;
use soccar_exec::{FailurePolicy, FaultPlan, TaskOutcome};
use soccar_rtl::design::{BranchSiteId, Design, NetId, ProcessId};
use soccar_rtl::value::LogicVec;
use soccar_sim::{InitPolicy, SimResult, Simulator};
use soccar_smt::{CheckResult, SolveBudget, Solver, Term, TermGraph, TermId};

use crate::coalg::{from_bv, BranchObservation, CoAlgebra, CoValue};
use crate::property::{PropertyMonitor, SecurityProperty, Violation};
use crate::schedule::TestSchedule;

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct ConcolicConfig {
    /// Simulation horizon per round, in cycles.
    pub cycles: u64,
    /// Maximum concolic rounds before the sweep phase.
    pub max_rounds: usize,
    /// Seed for the round-1 random schedule.
    pub seed: u64,
    /// Register initialization policy (the paper uses all-ones).
    pub init: InitPolicy,
    /// Hierarchical names of top-level data inputs to treat symbolically.
    pub symbolic_inputs: Vec<String>,
    /// Stride of the reset sweep (1 = try every cycle).
    pub sweep_stride: u64,
    /// Flip attempts per uncovered target per round.
    pub max_flip_attempts: usize,
    /// Maximum path-prefix observations conjoined per flip query.
    pub max_prefix: usize,
    /// Skip the sweep phase (coverage-only mode, used by ablations).
    pub skip_sweep: bool,
    /// Additional 1-bit asynchronous event lines (hierarchical names of
    /// top-level inputs) to sweep like reset domains — the paper's
    /// future-work extension to "other asynchronous events" (IRQs,
    /// AMS comparator outputs, sensor strobes). Pulsed active-high.
    pub async_events: Vec<String>,
    /// Worker threads for the per-round fan-out of uncovered-event flip
    /// solves (`0` = auto via [`soccar_exec::resolve_jobs`]). Every job
    /// count produces bit-identical reports: candidates are read-only
    /// queries on the round's term graph and are consumed in stable
    /// target order, never completion order.
    pub jobs: usize,
    /// Resource budget for each flip solve. An exhausted budget yields
    /// [`CheckResult::Unknown`], which the engine records as a *skipped*
    /// flip (degrading the round) instead of aborting. Defaults to
    /// unlimited — the classic run-to-completion behavior.
    pub solver_budget: SolveBudget,
    /// Per-round cap on flip attempts across all uncovered targets
    /// (`0` = unlimited). Candidates beyond the cap are dropped in stable
    /// order and the round is counted degraded.
    pub max_round_flips: usize,
    /// Monotonic wall-clock deadline per concolic round. When a round
    /// exceeds it, flip planning is skipped and the engine falls through
    /// to the systematic sweep. `None` (default) disables the deadline.
    /// A wall-clock deadline is inherently nondeterministic; runs that
    /// need byte-identical reports should leave it off (the
    /// `round_timeout` fault point exercises the same path
    /// deterministically).
    pub round_deadline: Option<Duration>,
    /// What a panicking flip-solve task does to the run.
    /// [`FailurePolicy::FailFast`] (default) rethrows the panic;
    /// [`FailurePolicy::KeepGoing`] records the flip as failed, degrades
    /// the round, and continues — the CLI's `--keep-going`.
    pub failure_policy: FailurePolicy,
    /// Deterministic fault-injection plan (chaos testing). The engine
    /// consults the points `solver_unknown`, `task_panic:flips`, and
    /// `round_timeout`; see `soccar_exec::FaultPlan`.
    pub fault_plan: FaultPlan,
    /// Cap on symbolic security-check obligations recorded by the
    /// [`ConcolicEngine::flip_workload`] round and folded into
    /// [`FlipWorkload::solve_incremental`]'s window preblast (most recent
    /// first, deduplicated by term). The obligations are blast-only —
    /// Tseitin-encoded but never assumed or asserted, so answers and
    /// reports are untouched. Analysis rounds never record them. `0`
    /// disables the recording.
    pub max_window_checks: usize,
    /// Bounded variable elimination during solver inprocessing: gate
    /// variables introduced by bit-blasting (carries, comparator
    /// intermediates) are resolved away when the clause database does
    /// not grow, with model reconstruction keeping answers and extracted
    /// models identical. Reaches only [`FlipWorkload`]'s solvers: the
    /// engine's one-shot flip solves never run inprocessing. Defaults to
    /// on; `SOCCAR_BVE=0` is the escape hatch.
    pub bve: bool,
    /// Trail reuse between `check_assuming` calls: a new call keeps the
    /// longest common prefix of the previous call's assumption trail
    /// instead of backtracking to the assumption floor and
    /// re-propagating it. Answers are unchanged. Reaches only
    /// [`FlipWorkload::solve_incremental`]: the engine's one-shot flip
    /// solves never call `check_assuming`. Defaults to on;
    /// `SOCCAR_TRAIL_REUSE=0` is the escape hatch.
    pub trail_reuse: bool,
}

impl Default for ConcolicConfig {
    fn default() -> ConcolicConfig {
        ConcolicConfig {
            cycles: 24,
            max_rounds: 48,
            seed: 0xC0FFEE,
            init: InitPolicy::Ones,
            symbolic_inputs: Vec::new(),
            sweep_stride: 1,
            max_flip_attempts: 4,
            max_prefix: 256,
            skip_sweep: false,
            async_events: Vec::new(),
            jobs: 1,
            solver_budget: SolveBudget::UNLIMITED,
            max_round_flips: 0,
            round_deadline: None,
            failure_policy: FailurePolicy::FailFast,
            fault_plan: FaultPlan::default(),
            max_window_checks: 4,
            bve: soccar_smt::sat::bve_default(),
            trail_reuse: soccar_smt::sat::trail_reuse_default(),
        }
    }
}

/// What one coverage target demands.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum TargetGoal {
    /// A branch site must be observed taking direction `dir`.
    Site { site: BranchSiteId, dir: bool },
    /// A process (whole-block implicit event) must execute.
    Process(ProcessId),
}

/// A coverage target derived from the AR_CFG.
#[derive(Debug, Clone)]
struct Target {
    goal: TargetGoal,
    /// Index of the controllable domain to pulse, when direct reset
    /// scheduling can reach the target.
    domain_idx: Option<usize>,
    /// Human-readable description (kept for Debug output and diagnostics).
    #[allow(dead_code)]
    desc: String,
}

/// A property violation together with the schedule that produced it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Witness {
    /// Violated property name.
    pub property: String,
    /// The reproducing schedule.
    pub schedule: TestSchedule,
    /// Round (1-based) at which the violation was first observed.
    pub round: usize,
}

/// The outcome of a full engine run.
#[derive(Debug, Clone)]
pub struct ConcolicReport {
    /// Rounds executed (concolic + sweep).
    pub rounds: usize,
    /// Total coverage targets derived from the AR_CFG.
    pub targets_total: usize,
    /// Targets covered.
    pub targets_covered: usize,
    /// Targets the coverage loop gave up on: no controllable domain
    /// reaches them, or `cycles` reset-pulse attempts never covered them.
    /// Nothing is proved; the name is kept for report compatibility.
    pub targets_unreachable: usize,
    /// All distinct invalidation messages.
    pub violations: Vec<Violation>,
    /// Round (1-based) at which the first violation was observed.
    pub first_violation_round: Option<usize>,
    /// One witness schedule per violated property.
    pub witnesses: Vec<Witness>,
    /// Solver invocations: every issued flip query, consumed or
    /// speculative (the candidate set is fixed before the fan-out, so the
    /// count is job-count invariant).
    pub solver_calls: usize,
    /// Of which SAT.
    pub solver_sat: usize,
    /// Consumed flip attempts the solver gave up on (budget exhaustion or
    /// an injected `solver_unknown` fault). Each is a skipped flip, not a
    /// failure; job-count invariant.
    pub solver_unknown: usize,
    /// Flip-solve worker tasks that panicked (kept going under
    /// `FailurePolicy::KeepGoing`); job-count invariant.
    pub flips_failed: usize,
    /// Rounds whose flip planning was degraded (skipped flips, failed
    /// workers, a hit deadline, or a capped candidate list).
    pub degraded_rounds: usize,
    /// Sorted, deduplicated human-readable degradation reasons. Empty on
    /// a healthy run.
    pub degraded_reasons: Vec<String>,
    /// Wall-clock time.
    pub elapsed: Duration,
    /// Utilization counters of the flip-solve worker pool (wall-clock
    /// measurements; excluded from canonical report serializations).
    pub flip_exec: soccar_exec::PoolStats,
    /// Utilization counters of the reset-sweep worker pool, summed over
    /// every domain's fan-out (wall-clock measurements; excluded from
    /// canonical report serializations).
    pub sweep_exec: soccar_exec::PoolStats,
}

impl ConcolicReport {
    /// `true` if any property was violated.
    #[must_use]
    pub fn has_violations(&self) -> bool {
        !self.violations.is_empty()
    }

    /// `true` if the named property was violated.
    #[must_use]
    pub fn violated(&self, property: &str) -> bool {
        self.violations.iter().any(|v| v.property == property)
    }

    /// `true` if any part of the run was degraded (budget-skipped flips,
    /// failed workers, capped rounds, dropped monitors). A degraded run's
    /// results are honest but partial: absence of violations is *not*
    /// evidence of cleanliness.
    #[must_use]
    pub fn is_degraded(&self) -> bool {
        !self.degraded_reasons.is_empty()
    }

    /// Coverage ratio over reachable targets.
    #[must_use]
    pub fn coverage(&self) -> f64 {
        let reachable = self.targets_total - self.targets_unreachable;
        if reachable == 0 {
            1.0
        } else {
            self.targets_covered as f64 / reachable as f64
        }
    }
}

/// A round in progress, or finished: the simulator it runs on (phase 1
/// plans the next schedule from its observations), its property
/// monitors, the violations they saw, and the degradation reasons it
/// hit. Cloning it forks the round.
#[derive(Debug, Clone)]
struct RoundState<'d> {
    sim: Simulator<'d, CoAlgebra>,
    monitors: Vec<PropertyMonitor>,
    violations: Vec<Violation>,
    reasons: Vec<String>,
}

/// How much of the symbolic shadow a round builds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RoundKind {
    /// A reset-sweep round. Nothing plans flips from it, so inputs are
    /// driven concretely: no term is built and no per-cycle variable
    /// wakes level-sensitive processes. Coverage, process runs and the
    /// concrete monitors see the same values as a symbolic round.
    Sweep,
    /// A phase-1 round: reset and data inputs are fresh per-cycle
    /// variables, so branch observations can be flipped.
    Analysis,
    /// The [`ConcolicEngine::flip_workload`] round: an analysis round
    /// that also records the security-check obligations (when
    /// `max_window_checks > 0`).
    FlipWorkload,
}

impl RoundKind {
    /// The value to drive onto an input: a variable named `name()` with
    /// concrete interpretation `value`, or just `value` on a sweep round.
    fn input(self, alg: &mut CoAlgebra, name: impl FnOnce() -> String, value: LogicVec) -> CoValue {
        match self {
            RoundKind::Sweep => CoValue::concrete(value),
            RoundKind::Analysis | RoundKind::FlipWorkload => alg.symbolic_input(&name(), value),
        }
    }
}

/// What a sweep round hands back across the worker pool: only what the
/// serial merge folds into the run.
struct SweptRound {
    hits: Vec<usize>,
    violations: Vec<Violation>,
    reasons: Vec<String>,
}

/// The violations of a run so far, each with its first-wins witness.
#[derive(Default)]
struct Findings {
    violations: Vec<Violation>,
    witnesses: Vec<Witness>,
    first_violation_round: Option<usize>,
}

impl Findings {
    /// Folds round `round`'s violations in. A property that already has a
    /// witness keeps it, so merging rounds in order keeps the earliest.
    fn merge(&mut self, round: usize, schedule: &TestSchedule, fresh: Vec<Violation>) {
        for v in fresh {
            if self.violations.iter().any(|e| e.property == v.property) {
                continue;
            }
            self.witnesses.push(Witness {
                property: v.property.clone(),
                schedule: schedule.clone(),
                round,
            });
            self.violations.push(v);
        }
        if self.first_violation_round.is_none() && !self.violations.is_empty() {
            self.first_violation_round = Some(round);
        }
    }
}

/// The reset-aware concolic engine. See the [module docs](self).
#[derive(Debug)]
pub struct ConcolicEngine<'d> {
    design: &'d Design,
    properties: Vec<SecurityProperty>,
    config: ConcolicConfig,
    clocks: Vec<NetId>,
    plain_inputs: Vec<NetId>,
    domains: Vec<(String, NetId, bool)>,
    inputs: Vec<(String, NetId, u32)>,
    targets: Vec<Target>,
    covered: Vec<bool>,
    unreachable: Vec<bool>,
    pulse_attempts: HashMap<usize, u64>,
    flip_stats: soccar_exec::PoolStats,
    sweep_stats: soccar_exec::PoolStats,
    /// Global flip-candidate sequence number — assigned serially in
    /// Phase A order, so it is the deterministic index the fault plan
    /// keys on.
    flip_seq: u64,
    solver_unknown: usize,
    flips_failed: usize,
    degraded_rounds: usize,
    degraded_reasons: BTreeSet<String>,
    /// Rounds (phase 1 and sweep) that covered no new target, counted in
    /// serial merge order so the count is job-count invariant.
    stale_rounds: usize,
    recorder: soccar_obs::Recorder,
    domain_polarity: Vec<(String, bool)>,
    /// Domains owning at least one clock-composed implicit governor
    /// (Refined analysis only); these also get a high-phase sweep.
    clock_composed: Vec<bool>,
    /// The state every round starts from, computed on first use (see
    /// [`ConcolicEngine::power_on`]).
    power_on: OnceLock<SimResult<RoundState<'d>>>,
}

impl<'d> ConcolicEngine<'d> {
    /// Builds an engine from bound AR_CFG events.
    ///
    /// # Errors
    ///
    /// Returns a message if a configured symbolic input does not exist or
    /// is not a top-level input, or if `sweep_stride` is zero.
    pub fn new(
        design: &'d Design,
        events: &[BoundEvent],
        properties: Vec<SecurityProperty>,
        config: ConcolicConfig,
    ) -> Result<ConcolicEngine<'d>, String> {
        if config.sweep_stride == 0 {
            return Err("sweep stride must be at least 1".into());
        }
        // Clocks & leftover inputs, by name.
        let naming = soccar_cfg::ResetNaming::new();
        let mut clocks = Vec::new();
        let mut plain_inputs = Vec::new();
        // Controllable domains (unique, ordered by name).
        let mut domains: Vec<(String, NetId, bool)> = Vec::new();
        for ev in events {
            if !ev.domain_top_level {
                continue;
            }
            let Some(net) = ev.domain_net else { continue };
            if !design.net(net).is_top_input {
                continue;
            }
            if !domains.iter().any(|(s, _, _)| *s == ev.domain_source) {
                domains.push((ev.domain_source.clone(), net, ev.domain_active_low));
            }
        }
        domains.sort_by(|a, b| a.0.cmp(&b.0));
        // Extra asynchronous event lines become pseudo-domains: swept and
        // randomized like resets, but asserted active-high and carrying no
        // AR_CFG events of their own.
        for name in &config.async_events {
            let net = design
                .find_net(name)
                .ok_or_else(|| format!("async event `{name}` not found"))?;
            let info = design.net(net);
            if !info.is_top_input || info.width != 1 {
                return Err(format!("async event `{name}` must be a 1-bit top input"));
            }
            if !domains.iter().any(|(s, _, _)| s == name) {
                domains.push((name.clone(), net, false));
            }
        }
        // Symbolic data inputs.
        let mut inputs = Vec::new();
        for name in &config.symbolic_inputs {
            let net = design
                .find_net(name)
                .ok_or_else(|| format!("symbolic input `{name}` not found"))?;
            if !design.net(net).is_top_input {
                return Err(format!("symbolic input `{name}` is not a top-level input"));
            }
            inputs.push((name.clone(), net, design.net(net).width));
        }
        for net in design.top_inputs() {
            let info = design.net(net);
            let is_domain = domains.iter().any(|(_, n, _)| *n == net);
            let is_symbolic = inputs.iter().any(|(_, n, _)| *n == net);
            if is_domain || is_symbolic {
                continue;
            }
            if naming.is_clock_name(&info.local_name) {
                clocks.push(net);
            } else {
                plain_inputs.push(net);
            }
        }
        // Targets.
        let mut targets = Vec::new();
        let mut seen = HashSet::new();
        for ev in events {
            let domain_idx = domains.iter().position(|(s, _, _)| *s == ev.domain_source);
            if ev.event.arm == EventArm::WholeBlock {
                let goal = TargetGoal::Process(ev.process);
                if seen.insert(goal) {
                    targets.push(Target {
                        goal,
                        domain_idx,
                        desc: format!(
                            "whole-block reset event in `{}` (always #{})",
                            ev.instance, ev.event.always_index
                        ),
                    });
                }
                continue;
            }
            // Explicit event: its own site both ways, plus every nested
            // site of the process (the subCFGs of the reset-governed
            // block), both ways.
            let mut sites: Vec<BranchSiteId> = design
                .sites()
                .iter()
                .enumerate()
                .filter(|(_, s)| s.process == ev.process)
                .map(|(i, _)| BranchSiteId(i as u32))
                .collect();
            sites.sort_unstable();
            for site in sites {
                for dir in [true, false] {
                    let goal = TargetGoal::Site { site, dir };
                    if seen.insert(goal) {
                        targets.push(Target {
                            goal,
                            domain_idx,
                            desc: format!(
                                "site {} dir {dir} in `{}` (always #{})",
                                site.0, ev.instance, ev.event.always_index
                            ),
                        });
                    }
                }
            }
        }
        let n = targets.len();
        let domain_polarity = domains.iter().map(|(s, _, al)| (s.clone(), *al)).collect();
        let mut clock_composed = vec![false; domains.len()];
        for ev in events {
            let composed = ev
                .event
                .governor
                .as_ref()
                .is_some_and(|g| g.composed_with_clock);
            if composed {
                if let Some(di) = domains.iter().position(|(s, _, _)| *s == ev.domain_source) {
                    clock_composed[di] = true;
                }
            }
        }
        Ok(ConcolicEngine {
            design,
            properties,
            config,
            clocks,
            plain_inputs,
            domains,
            inputs,
            targets,
            covered: vec![false; n],
            unreachable: vec![false; n],
            pulse_attempts: HashMap::new(),
            flip_stats: soccar_exec::PoolStats::default(),
            sweep_stats: soccar_exec::PoolStats::default(),
            flip_seq: 0,
            solver_unknown: 0,
            flips_failed: 0,
            degraded_rounds: 0,
            degraded_reasons: BTreeSet::new(),
            stale_rounds: 0,
            recorder: soccar_obs::Recorder::disabled(),
            domain_polarity,
            clock_composed,
            power_on: OnceLock::new(),
        })
    }

    /// Attaches an observability recorder: each concolic round gets a
    /// `concolic.round` span (each sweep phase gets one `concolic.sweep`
    /// / `concolic.sweep_high` span with fields `domains` and `rounds`),
    /// flip planning feeds the
    /// `concolic.flip_candidates` / `concolic.flip_consumed` /
    /// `concolic.flip_discarded` / `concolic.flip_sat` counters, rounds
    /// that cover no new target feed `concolic.stale_rounds`, and every
    /// flip solve — including the speculative ones — reports through
    /// [`Solver::check_traced`]. Flip planning gets a `concolic.plan`
    /// span (fields `candidates` and `consumed`) with one
    /// `concolic.solve` child around the worker-pool fan-out; both are
    /// opened on the calling thread, never on a worker.
    ///
    /// Because `plan_next` always solves *all* collected candidates, the
    /// solver metrics are identical for every job count even though the
    /// solves run on worker threads.
    #[must_use]
    pub fn with_recorder(mut self, recorder: soccar_obs::Recorder) -> Self {
        self.recorder = recorder;
        self
    }

    /// Controllable reset domains `(source, net, active_low)`.
    #[must_use]
    pub fn domains(&self) -> &[(String, NetId, bool)] {
        &self.domains
    }

    /// Number of coverage targets.
    #[must_use]
    pub fn target_count(&self) -> usize {
        self.targets.len()
    }

    /// Runs Algorithm 3 to completion.
    ///
    /// # Errors
    ///
    /// Propagates simulator errors (e.g. an unstable design).
    pub fn run(&mut self) -> SimResult<ConcolicReport> {
        let start = Instant::now();
        let mut schedule = self.base_schedule();
        schedule.randomize(self.config.seed);
        let mut findings = Findings::default();
        let mut rounds = 0usize;
        let mut solver_calls = 0usize;
        let mut solver_sat = 0usize;

        // Phase 1: concolic coverage loop.
        while rounds < self.config.max_rounds {
            rounds += 1;
            let round_started = Instant::now();
            let mut round_span = soccar_obs::span!(self.recorder, "concolic.round", round = rounds);
            let RoundState {
                mut sim,
                violations,
                reasons,
                ..
            } = self.run_round(&schedule, RoundKind::Analysis)?;
            self.degraded_reasons.extend(reasons);
            self.cover(self.target_hits(&sim));
            findings.merge(rounds, &schedule, violations);
            round_span.record("covered", self.covered.iter().filter(|c| **c).count());
            round_span.record("violations", findings.violations.len());
            if self.all_covered() {
                break;
            }
            if self.round_deadline_hit(round_started, rounds) {
                self.degraded_rounds += 1;
                self.degraded_reasons.insert(format!(
                    "round {rounds}: round deadline exceeded; flip planning skipped, continuing with sweep"
                ));
                break;
            }
            match self.plan_next(
                &mut sim,
                &schedule,
                rounds,
                &mut solver_calls,
                &mut solver_sat,
            ) {
                Some(next) => schedule = next,
                None => break,
            }
        }

        // Phases 2 and 3: the reset sweeps.
        if !self.config.skip_sweep {
            for (span, per_domain) in self.sweep_phases() {
                self.sweep(span, &per_domain, &mut rounds, &mut findings)?;
            }
        }

        let covered = self.covered.iter().filter(|c| **c).count();
        let unreachable = self.unreachable.iter().filter(|u| **u).count();
        self.recorder.counter_add("concolic.rounds", rounds as u64);
        self.recorder
            .counter_add("concolic.stale_rounds", self.stale_rounds as u64);
        // Resilience counters are only bumped when degradation actually
        // happened, keeping healthy-run traces byte-identical to before.
        if self.solver_unknown > 0 {
            self.recorder
                .counter_add("resilience.solver_unknown", self.solver_unknown as u64);
        }
        if self.flips_failed > 0 {
            self.recorder
                .counter_add("resilience.flips_failed", self.flips_failed as u64);
        }
        if self.degraded_rounds > 0 {
            self.recorder
                .counter_add("resilience.degraded_rounds", self.degraded_rounds as u64);
        }
        Ok(ConcolicReport {
            rounds,
            targets_total: self.targets.len(),
            targets_covered: covered,
            targets_unreachable: unreachable,
            violations: findings.violations,
            first_violation_round: findings.first_violation_round,
            witnesses: findings.witnesses,
            solver_calls,
            solver_sat,
            solver_unknown: self.solver_unknown,
            flips_failed: self.flips_failed,
            degraded_rounds: self.degraded_rounds,
            degraded_reasons: self.degraded_reasons.iter().cloned().collect(),
            elapsed: start.elapsed(),
            flip_exec: self.flip_stats,
            sweep_exec: self.sweep_stats,
        })
    }

    /// `true` if the round's wall-clock deadline is exceeded, or the fault
    /// plan injects a deterministic `round_timeout` for this round.
    fn round_deadline_hit(&self, round_started: Instant, round: usize) -> bool {
        if self
            .config
            .fault_plan
            .should_inject("round_timeout", round as u64)
        {
            return true;
        }
        self.config
            .round_deadline
            .is_some_and(|d| round_started.elapsed() >= d)
    }

    fn base_schedule(&self) -> TestSchedule {
        TestSchedule::quiet(
            self.config.cycles,
            self.domains.clone(),
            self.inputs.clone(),
        )
    }

    /// The sweep schedules of one domain, one per pulse position
    /// `1, 1 + stride, …` below the horizon, in `at` order. `shape` turns
    /// the quiet base schedule into the round for position `at`.
    fn sweep_schedules(&self, shape: impl Fn(&mut TestSchedule, u64)) -> Vec<TestSchedule> {
        let mut schedules = Vec::new();
        let mut at = 1;
        while at < self.config.cycles {
            let mut s = self.base_schedule();
            shape(&mut s, at);
            schedules.push(s);
            at += self.config.sweep_stride;
        }
        schedules
    }

    /// The sweep phases, each as its span name and its swept domains'
    /// schedules (see [`ConcolicEngine::sweep_schedules`]).
    ///
    /// Phase 2 (`concolic.sweep`) asserts each domain at each cycle
    /// position; it catches state-dependent payloads. Phase 3
    /// (`concolic.sweep_high`) sweeps the clock-high phase of the domains
    /// that the Refined analysis flagged as having clock-composed
    /// implicit governors. The Explicit analysis never flags any, so
    /// Phase 3 is empty there — which is precisely why the published tool
    /// misses the AutoSoC #2 SHA256 bug.
    fn sweep_phases(&self) -> [(&'static str, Vec<Vec<TestSchedule>>); 2] {
        let seed = self.config.seed;
        let sweep = (0..self.domains.len())
            .map(|di| {
                self.sweep_schedules(|s, at| {
                    s.randomize(seed.wrapping_add(at));
                    s.power_on_only();
                    s.add_pulse(di, at, 1);
                })
            })
            .collect();
        let sweep_high = (0..self.domains.len())
            .filter(|&di| self.clock_composed[di])
            .map(|di| {
                self.sweep_schedules(|s, at| {
                    s.randomize(seed.wrapping_add(0x9E37 + at));
                    s.power_on_only();
                    s.add_high_phase_pulse(di, at);
                })
            })
            .collect();
        [
            ("concolic.sweep", sweep),
            ("concolic.sweep_high", sweep_high),
        ]
    }

    /// Runs one sweep phase. `per_domain` holds each swept domain's
    /// schedules in `at` order. The schedules are grouped by pulse
    /// position, and each position is one task on the worker pool (see
    /// [`ConcolicEngine::run_position`]). The results are then folded
    /// into the run serially, domain by domain and each domain in `at`
    /// order. Every task reads only engine state the fan-out never
    /// writes, so round numbers, first-wins witnesses,
    /// `first_violation_round` and coverage come out exactly as a serial
    /// sweep would leave them.
    fn sweep(
        &mut self,
        span: &'static str,
        per_domain: &[Vec<TestSchedule>],
        rounds: &mut usize,
        findings: &mut Findings,
    ) -> SimResult<()> {
        let Some(first) = per_domain.first() else {
            return Ok(());
        };
        let mut sweep_span = soccar_obs::span!(self.recorder, span, domains = per_domain.len());
        let positions: Vec<Vec<&TestSchedule>> = (0..first.len())
            .map(|p| per_domain.iter().map(|d| &d[p]).collect())
            .collect();
        let (results, stats) =
            soccar_exec::parallel_map_stats(self.config.jobs, &positions, |g| self.run_position(g));
        self.sweep_stats.absorb(&stats);
        let mut columns: Vec<_> = results.into_iter().map(Vec::into_iter).collect();
        for schedules in per_domain {
            for (schedule, column) in schedules.iter().zip(&mut columns) {
                let swept = column.next().expect("one result per domain")?;
                *rounds += 1;
                self.degraded_reasons.extend(swept.reasons);
                self.cover(swept.hits);
                findings.merge(*rounds, schedule, swept.violations);
            }
        }
        sweep_span.record("rounds", per_domain.len() * first.len());
        Ok(())
    }

    /// Runs the sweep rounds of one pulse position, one per schedule of
    /// `group`, and returns what `run_round` would give for each, in
    /// `group` order. The leading cycles all of them drive alike
    /// ([`common_prefix`]) are simulated once as a trunk; each schedule
    /// then runs its own remaining cycles on a fork of the trunk. A
    /// trunk error is every round's error.
    fn run_position(&self, group: &[&TestSchedule]) -> Vec<SimResult<SweptRound>> {
        let split = common_prefix(group);
        let trunk = self.power_on().and_then(|mut state| {
            self.run_cycles(&mut state, group[0], RoundKind::Sweep, 0, split)?;
            Ok(state)
        });
        let branch = |state: SimResult<RoundState<'d>>, schedule: &TestSchedule| {
            let mut state = state?;
            self.run_cycles(
                &mut state,
                schedule,
                RoundKind::Sweep,
                split,
                schedule.cycles,
            )?;
            Ok(SweptRound {
                hits: self.target_hits(&state.sim),
                violations: state.violations,
                reasons: state.reasons,
            })
        };
        // The last round takes the trunk instead of forking it.
        let (last, rest) = group.split_last().expect("a sweep position has rounds");
        let mut out: Vec<_> = rest.iter().map(|s| branch(trunk.clone(), s)).collect();
        out.push(branch(trunk, last));
        out
    }

    /// One `Simulate(Input, Restricts)` call of Algorithm 3: the cached
    /// power-on state, then every cycle of `schedule`.
    ///
    /// Monitors that fail to resolve (or error mid-check) come back as
    /// degraded reasons instead of being silently ignored or panicking:
    /// the analysis continues, visibly partial. Takes `&self` so rounds
    /// can run side by side on the worker pool. `kind` sets how much of
    /// the symbolic shadow the round builds (see [`RoundKind`]).
    fn run_round(&self, schedule: &TestSchedule, kind: RoundKind) -> SimResult<RoundState<'d>> {
        let mut state = self.power_on()?;
        self.run_cycles(&mut state, schedule, kind, 0, schedule.cycles)?;
        Ok(state)
    }

    /// A copy of the state every round starts from: resets deasserted,
    /// clocks parked and uncontrolled inputs zeroed at time zero, then
    /// settled, with the property monitors resolved. No schedule input
    /// has been driven yet, so it is the same for every schedule and
    /// [`RoundKind`]; it is computed once per engine and cloned.
    fn power_on(&self) -> SimResult<RoundState<'d>> {
        self.power_on
            .get_or_init(|| {
                let mut sim =
                    Simulator::with_algebra(self.design, CoAlgebra::new(), self.config.init);
                let mut reasons = Vec::new();
                let mut monitors: Vec<PropertyMonitor> = Vec::new();
                for p in &self.properties {
                    match PropertyMonitor::resolve(self.design, p.clone(), &self.domain_polarity) {
                        Ok(m) => monitors.push(m),
                        Err(e) => reasons.push(format!("property monitor dropped: {e}")),
                    }
                }
                for (_, net, active_low) in &self.domains {
                    sim.write_input(*net, LogicVec::from_u64(1, u64::from(*active_low)))?;
                }
                for clk in &self.clocks {
                    sim.write_input(*clk, LogicVec::from_u64(1, 0))?;
                }
                for net in &self.plain_inputs {
                    let w = self.design.net(*net).width;
                    sim.write_input(*net, LogicVec::zeros(w))?;
                }
                sim.settle()?;
                Ok(RoundState {
                    sim,
                    monitors,
                    violations: Vec::new(),
                    reasons,
                })
            })
            .clone()
    }

    /// Drives cycles `from..to` of `schedule` on `state`, checking the
    /// property monitors after each.
    fn run_cycles(
        &self,
        state: &mut RoundState<'d>,
        schedule: &TestSchedule,
        kind: RoundKind,
        from: u64,
        to: u64,
    ) -> SimResult<()> {
        let RoundState {
            sim,
            monitors,
            violations,
            reasons,
        } = state;
        for cycle in from..to {
            for (i, track) in schedule.inputs.iter().enumerate() {
                let v = kind.input(
                    sim.algebra_mut(),
                    || format!("in_{i}_{cycle}"),
                    track.values[cycle as usize].clone(),
                );
                sim.write_input_value(track.net, v)?;
            }
            // Asynchronous reset lines change before the clock edge —
            // except high-phase pulses, which assert after the rise.
            for (d, track) in schedule.resets.iter().enumerate() {
                let hp = track
                    .high_phase
                    .get(cycle as usize)
                    .copied()
                    .unwrap_or(false);
                let value = if hp {
                    LogicVec::from_u64(1, u64::from(track.active_low))
                } else {
                    track.value_at(cycle)
                };
                let v = kind.input(sim.algebra_mut(), || format!("rst_{d}_{cycle}"), value);
                sim.write_input_value(track.net, v)?;
            }
            sim.settle()?;
            for clk in &self.clocks {
                sim.write_input(*clk, LogicVec::from_u64(1, 1))?;
            }
            sim.settle()?;
            // High-phase assertion: the reset edge lands while the clock
            // is high (excites clock-composed implicit governors).
            for (d, track) in schedule.resets.iter().enumerate() {
                if track
                    .high_phase
                    .get(cycle as usize)
                    .copied()
                    .unwrap_or(false)
                {
                    let v = kind.input(
                        sim.algebra_mut(),
                        || format!("rsthi_{d}_{cycle}"),
                        track.value_at(cycle),
                    );
                    sim.write_input_value(track.net, v)?;
                    sim.settle()?;
                }
            }
            sim.advance_time(1);
            for clk in &self.clocks {
                sim.write_input(*clk, LogicVec::from_u64(1, 0))?;
            }
            sim.settle()?;
            sim.advance_time(1);
            for mon in monitors.iter_mut() {
                match mon.check_cycle(sim, cycle) {
                    Ok(found) => violations.extend(found),
                    Err(e) => reasons.push(format!("property check skipped: {e}")),
                }
            }
            // Shadow the concrete checks with symbolic proof obligations:
            // whenever a monitored net carries a term, record the 1-bit
            // "property holds" formula so `FlipWorkload::solve_incremental`
            // can pre-blast it (blast-only, never assumed — see
            // `ConcolicConfig::max_window_checks`). Serial and in monitor
            // order, so the observation log stays deterministic.
            if kind == RoundKind::FlipWorkload && self.config.max_window_checks > 0 {
                for mon in monitors.iter() {
                    if let Some(t) = mon.symbolic_obligation(sim) {
                        sim.algebra_mut().record_check(t);
                    }
                }
            }
        }
        Ok(())
    }

    /// Indices of the still-uncovered targets that `sim`'s round hit.
    fn target_hits(&self, sim: &Simulator<'d, CoAlgebra>) -> Vec<usize> {
        let site_cov = sim.algebra().coverage();
        let runs = sim.process_run_counts();
        self.targets
            .iter()
            .enumerate()
            .filter(|(i, t)| {
                !self.covered[*i]
                    && match &t.goal {
                        TargetGoal::Site { site, dir } => site_cov.contains(&(*site, *dir)),
                        TargetGoal::Process(p) => runs[p.0 as usize] > 0,
                    }
            })
            .map(|(i, _)| i)
            .collect()
    }

    /// Marks a round's hit targets covered, counting the round stale when
    /// none of them is new. Sweep hits are taken before their phase's
    /// merge, so some may already be covered by an earlier round of it.
    fn cover(&mut self, hits: Vec<usize>) {
        let mut fresh = false;
        for i in hits {
            fresh |= !self.covered[i];
            self.covered[i] = true;
        }
        if !fresh {
            self.stale_rounds += 1;
        }
    }

    fn all_covered(&self) -> bool {
        self.covered
            .iter()
            .zip(&self.unreachable)
            .all(|(c, u)| *c || *u)
    }

    /// Picks an uncovered target and produces the next schedule, either by
    /// solver-driven branch flipping or by direct reset scheduling.
    ///
    /// The flip solves — the expensive part of a round — fan out over the
    /// worker pool: every uncovered target's candidate occurrences are
    /// collected up front in stable `(target index, occurrence index)`
    /// order, solved speculatively as read-only queries on the round's
    /// own term graph, and then *consumed* by a serial decision walk
    /// identical to the original single-threaded loop. Because each solve
    /// depends only on its own candidate (never on a sibling's outcome or
    /// scheduling), the chosen schedule, the solver counters, and thus the
    /// whole report are bit-identical for every job count.
    ///
    /// The only write to the graph is the serial interning of the negated
    /// conditions before the fan-out. The round's simulator is dropped
    /// after planning, so those nodes never reach a later round.
    fn plan_next(
        &mut self,
        sim: &mut Simulator<'d, CoAlgebra>,
        schedule: &TestSchedule,
        round: usize,
        solver_calls: &mut usize,
        solver_sat: &mut usize,
    ) -> Option<TestSchedule> {
        let mut plan_span = soccar_obs::span!(self.recorder, "concolic.plan");
        let neg = sim.algebra_mut().negated_conditions();
        let alg = sim.algebra();
        let (obs, graph) = (alg.observations(), &alg.graph);
        // Goals are `Copy` ids interned at construction time, so the
        // per-round bookkeeping copies `(index, goal, domain)` triples
        // instead of deep-cloning `Target`s.
        let targets: Vec<(usize, TargetGoal, Option<usize>)> = self
            .targets
            .iter()
            .enumerate()
            .filter(|(i, _)| !self.covered[*i] && !self.unreachable[*i])
            .map(|(i, t)| (i, t.goal, t.domain_idx))
            .collect();
        let mut round_degraded = false;

        // Phase A: collect flip candidates in deterministic order. The
        // occurrences of each site are indexed once, in log order, instead
        // of scanning the whole log per target.
        let mut occurrences: HashMap<BranchSiteId, Vec<usize>> = HashMap::new();
        for (k, o) in obs.iter().enumerate() {
            occurrences.entry(o.site).or_default().push(k);
        }
        let mut picks: Vec<(usize, usize, bool)> = Vec::new(); // (target, obs index, dir)
        for (ti, goal, _) in &targets {
            if let TargetGoal::Site { site, dir } = goal {
                picks.extend(
                    occurrences
                        .get(site)
                        .into_iter()
                        .flatten()
                        .filter(|&&k| obs[k].taken != *dir)
                        .take(self.config.max_flip_attempts)
                        .map(|&k| (*ti, k, *dir)),
                );
            }
        }
        // Per-round cap: drop the tail in stable order, and say so.
        if self.config.max_round_flips > 0 && picks.len() > self.config.max_round_flips {
            let dropped = picks.len() - self.config.max_round_flips;
            picks.truncate(self.config.max_round_flips);
            round_degraded = true;
            self.degraded_reasons.insert(format!(
                "round {round}: flip attempts capped at {} ({dropped} dropped)",
                self.config.max_round_flips
            ));
        }
        // Sequence numbers are assigned serially here — they are the
        // deterministic per-analysis index the fault plan keys on.
        let candidates: Vec<FlipCandidate> = picks
            .into_iter()
            .map(|(target, obs_index, dir)| {
                self.flip_seq += 1;
                FlipCandidate {
                    target,
                    obs_index,
                    dir,
                    seq: self.flip_seq,
                }
            })
            .collect();

        // Phase B: solve all candidates on the pool. Some solves are
        // speculative (a candidate after the consumed SAT one, or after a
        // target that pulses instead) — wasted CPU at worst, never a
        // behavior change, because only consumed results are counted.
        // Solver metrics recorded inside the workers stay deterministic
        // for the same reason: the candidate set never depends on jobs.
        // KeepGoing turns a panicking flip task into an index-ordered
        // Failed slot, so one bad solve degrades the round, not the run.
        plan_span.record("candidates", candidates.len());
        self.recorder
            .counter_add("concolic.flip_candidates", candidates.len() as u64);
        // Every issued query counts, consumed or speculative — the old
        // consumed-only count read 0 whenever the decision walk stopped
        // before its first site target. Still job-count invariant: the
        // candidate set is fixed before the fan-out.
        *solver_calls += candidates.len();
        let max_prefix = self.config.max_prefix;
        let tuning = SolverTuning::of(&self.config);
        let plan = &self.config.fault_plan;
        let recorder = &self.recorder;
        // Opened here, on the calling thread: worker solves only report
        // metrics, which commute across threads.
        let solve_span = soccar_obs::span!(recorder, "concolic.solve");
        let (solved, stats) = soccar_exec::parallel_map_policy(
            self.config.jobs,
            &candidates,
            self.config.failure_policy,
            |c| {
                if plan.should_inject("task_panic:flips", c.seq) {
                    panic!("injected fault: task_panic@flips:{}", c.seq);
                }
                if plan.should_inject("solver_unknown", c.seq) {
                    return FlipOutcome::Unknown(format!(
                        "injected fault: solver_unknown@{}",
                        c.seq
                    ));
                }
                solve_flip(
                    graph,
                    obs,
                    &neg,
                    schedule,
                    c.obs_index,
                    c.dir,
                    max_prefix,
                    tuning,
                    recorder,
                )
            },
        );
        drop(solve_span);
        self.flip_stats.absorb(&stats);

        // Degradation accounting covers EVERY candidate, consumed or
        // speculative — the candidate set and the index-ordered outcome
        // vector are pure functions of the serial round state, so this
        // stays deterministic. A lost flip is a lost flip even when the
        // decision walk below would have skipped past it.
        for (outcome, cand) in solved.iter().zip(&candidates) {
            match outcome {
                TaskOutcome::Ok(FlipOutcome::Sat(_) | FlipOutcome::Unsat) => {}
                TaskOutcome::Ok(FlipOutcome::Unknown(reason)) => {
                    self.solver_unknown += 1;
                    round_degraded = true;
                    self.degraded_reasons.insert(format!(
                        "round {round}: flip {} skipped: {reason}",
                        cand.seq
                    ));
                }
                TaskOutcome::Failed { panic } => {
                    self.flips_failed += 1;
                    round_degraded = true;
                    self.degraded_reasons.insert(format!(
                        "round {round}: flip {} worker panicked: {panic}",
                        cand.seq
                    ));
                }
            }
        }

        // Phase C: the serial decision walk, consuming solver results in
        // candidate order instead of invoking the solver inline. Unknown
        // and panicked slots are *skipped* flips: already recorded above,
        // never fatal, never consumed as answers.
        let mut chosen: Option<TestSchedule> = None;
        let mut ci = 0usize;
        let mut consumed = 0usize;
        'targets: for (ti, goal, domain_idx) in targets {
            match goal {
                TargetGoal::Site { .. } => {
                    let mine = candidates[ci..]
                        .iter()
                        .take_while(|c| c.target == ti)
                        .count();
                    if mine > 0 {
                        for outcome in &solved[ci..ci + mine] {
                            consumed += 1;
                            self.recorder.counter_add("concolic.flip_consumed", 1);
                            match outcome {
                                TaskOutcome::Ok(FlipOutcome::Sat(next)) => {
                                    *solver_sat += 1;
                                    self.recorder.counter_add("concolic.flip_sat", 1);
                                    chosen = Some(next.clone());
                                    break 'targets;
                                }
                                TaskOutcome::Ok(FlipOutcome::Unsat | FlipOutcome::Unknown(_))
                                | TaskOutcome::Failed { .. } => {}
                            }
                        }
                        // No flip solved: keep the target for the sweep.
                        ci += mine;
                        continue;
                    }
                    // Site never ran with a symbolic condition: schedule a
                    // pulse so the process (and its governor test) runs.
                    if let Some(next) = self.schedule_pulse(ti, domain_idx, schedule) {
                        chosen = Some(next);
                        break 'targets;
                    }
                }
                TargetGoal::Process(_) => {
                    if let Some(next) = self.schedule_pulse(ti, domain_idx, schedule) {
                        chosen = Some(next);
                        break 'targets;
                    }
                }
            }
        }
        plan_span.record("consumed", consumed);
        // Waste: candidates solved on the pool that the walk never reached.
        self.recorder.counter_add(
            "concolic.flip_discarded",
            (candidates.len() - consumed) as u64,
        );
        if round_degraded {
            self.degraded_rounds += 1;
        }
        chosen
    }

    /// Direct reset scheduling: assert the target's domain at a rotating
    /// cycle position.
    fn schedule_pulse(
        &mut self,
        target_idx: usize,
        domain_idx: Option<usize>,
        schedule: &TestSchedule,
    ) -> Option<TestSchedule> {
        let Some(di) = domain_idx else {
            // No controllable domain reaches this target.
            self.unreachable[target_idx] = true;
            return None;
        };
        let attempt = self.pulse_attempts.entry(target_idx).or_insert(0);
        *attempt += 1;
        if *attempt >= self.config.cycles {
            self.unreachable[target_idx] = true;
            return None;
        }
        let at = *attempt; // cycles 1, 2, 3, ...
        let mut next = schedule.clone();
        next.add_pulse(di, at, 1);
        Some(next)
    }

    /// Runs one concrete round and freezes its symbolic state into a
    /// [`FlipWorkload`], so the one-shot and incremental flip-solving
    /// strategies can be compared on identical inputs (the `flip_solving`
    /// benchmark). Does not advance engine coverage state.
    ///
    /// # Errors
    ///
    /// Propagates simulator errors, as [`ConcolicEngine::run`].
    pub fn flip_workload(&mut self) -> SimResult<FlipWorkload> {
        let mut schedule = self.base_schedule();
        schedule.randomize(self.config.seed);
        let mut sim = self.run_round(&schedule, RoundKind::FlipWorkload)?.sim;
        let neg = sim.algebra_mut().negated_conditions();
        let observations = sim.algebra().observations().to_vec();
        let checks = recent_check_terms(
            sim.algebra().check_observations(),
            self.config.max_window_checks,
        );
        Ok(FlipWorkload {
            graph: std::mem::take(&mut sim.algebra_mut().graph),
            neg,
            observations,
            checks,
            schedule,
            max_prefix: self.config.max_prefix,
            tuning: SolverTuning::of(&self.config),
        })
    }
}

/// One round's frozen symbolic state, packaged for the `flip_solving`
/// benchmark: the term graph, branch observations, pre-interned negated
/// conditions, and the schedule they were produced under. Both solve
/// strategies flip each candidate observation towards its untaken
/// direction, so their answers — and SAT counts — must agree.
#[derive(Debug, Clone)]
pub struct FlipWorkload {
    graph: TermGraph,
    neg: Vec<TermId>,
    observations: Vec<BranchObservation>,
    /// Deduplicated, capped symbolic security-check obligations of the
    /// round, folded into the incremental window preblast (blast-only).
    checks: Vec<TermId>,
    schedule: TestSchedule,
    max_prefix: usize,
    tuning: SolverTuning,
}

impl FlipWorkload {
    /// Overrides the trail-reuse knob for this workload's solvers — the
    /// `flip_trail_reuse_q` benchmark control, which re-times the
    /// incremental pass with reuse disabled on otherwise identical
    /// inputs.
    #[must_use]
    pub fn with_trail_reuse(mut self, on: bool) -> Self {
        self.tuning.trail_reuse = on;
        self
    }
    /// Number of flip candidates a `cap`-limited pass solves (the last
    /// `cap` observations of the round, longest path prefixes first-class).
    #[must_use]
    pub fn candidates(&self, cap: usize) -> usize {
        self.observations.len().min(cap)
    }

    /// Solves the candidates one-shot: each blasts its own prefix from
    /// scratch as a read-only query on the shared term graph, as the
    /// engine's flip fan-out does. Returns the SAT count.
    #[must_use]
    pub fn solve_oneshot(&self, cap: usize, recorder: &soccar_obs::Recorder) -> usize {
        let n = self.candidates(cap);
        let len = self.observations.len();
        let mut sat = 0;
        for k in len - n..len {
            let dir = !self.observations[k].taken;
            let outcome = solve_flip(
                &self.graph,
                &self.observations,
                &self.neg,
                &self.schedule,
                k,
                dir,
                self.max_prefix,
                self.tuning,
                recorder,
            );
            sat += usize::from(matches!(outcome, FlipOutcome::Sat(_)));
        }
        sat
    }

    /// Solves the same candidates incrementally: the shared window is
    /// blasted once into a base solver, and each candidate runs
    /// `check_assuming` on that one context. Returns the SAT count, which
    /// must equal [`FlipWorkload::solve_oneshot`]'s.
    #[must_use]
    pub fn solve_incremental(&self, cap: usize, recorder: &soccar_obs::Recorder) -> usize {
        let n = self.candidates(cap);
        let len = self.observations.len();
        let mut base = self.tuning.build();
        let window_start = (len - n).saturating_sub(self.max_prefix);
        let mut window = Vec::with_capacity(2 * (len - window_start) + self.checks.len());
        for i in window_start..len {
            window.push(self.observations[i].cond);
            window.push(self.neg[i]);
        }
        window.extend_from_slice(&self.checks);
        base.preblast(&self.graph, &window);
        let hits = base.blast_cache_hits();
        if hits > 0 {
            recorder.counter_add("smt.blast_cache_hits", hits);
        }
        let mut sat = 0;
        for k in len - n..len {
            let dir = !self.observations[k].taken;
            // Serial, so no per-candidate clone: one context answers every
            // candidate and keeps its learnt clauses between them.
            let outcome = solve_flip_on(
                &mut base,
                &self.graph,
                &self.observations,
                &self.neg,
                &self.schedule,
                k,
                dir,
                self.max_prefix,
                recorder,
            );
            sat += usize::from(matches!(outcome, FlipOutcome::Sat(_)));
        }
        sat
    }
}

/// One speculative flip attempt: flip observation `obs_index` towards
/// `dir` on behalf of uncovered target `target`. `seq` is the 1-based
/// serial flip-candidate number across the whole analysis — the index
/// the fault plan's `solver_unknown@N` / `task_panic@flips:N` points
/// key on.
#[derive(Debug, Clone, Copy)]
struct FlipCandidate {
    target: usize,
    obs_index: usize,
    dir: bool,
    seq: u64,
}

/// Result of one flip solve: a new schedule, a definite "no", or a
/// budget-exhausted "don't know" the engine records and skips.
#[derive(Debug, Clone, PartialEq)]
enum FlipOutcome {
    Sat(TestSchedule),
    Unsat,
    Unknown(String),
}

/// Solver construction parameters a flip solve inherits from the engine
/// config: the per-query budget plus the solver-speed knobs (BVE, trail
/// reuse). Bundled so the engine's one-shot workers and both
/// [`FlipWorkload`] strategies build identically tuned solvers.
#[derive(Debug, Clone, Copy)]
struct SolverTuning {
    budget: SolveBudget,
    bve: bool,
    trail_reuse: bool,
}

impl SolverTuning {
    /// The tuning `config` asks for.
    fn of(config: &ConcolicConfig) -> SolverTuning {
        SolverTuning {
            budget: config.solver_budget,
            bve: config.bve,
            trail_reuse: config.trail_reuse,
        }
    }

    /// A fresh [`Solver`] with this tuning applied.
    fn build(self) -> Solver {
        let mut s = Solver::with_budget(self.budget);
        s.set_bve(self.bve);
        s.set_trail_reuse(self.trail_reuse);
        s
    }
}

/// The constraint of one flip query: the path prefix of observation `k`
/// as taken (at most `max_prefix` observations), then observation `k`
/// towards `dir`. `neg[i]` holds the interned negation of `obs[i].cond`.
fn flip_constraint(
    obs: &[BranchObservation],
    neg: &[TermId],
    k: usize,
    dir: bool,
    max_prefix: usize,
) -> Vec<TermId> {
    let prefix_start = k.saturating_sub(max_prefix);
    let literal = |i: usize, positive: bool| if positive { obs[i].cond } else { neg[i] };
    (prefix_start..k)
        .map(|i| literal(i, obs[i].taken))
        .chain([literal(k, dir)])
        .collect()
}

/// Attempts to flip observation `k` towards `dir`, conjoining the path
/// prefix, and rebuilds the schedule from the model.
///
/// A read-only query on the round's term graph, which every worker
/// shares: the caller interned the negations `neg` beforehand. So the
/// result is a pure function of `(graph, obs, schedule, k, dir,
/// max_prefix, budget)` — the determinism anchor of the parallel round.
#[allow(clippy::too_many_arguments)]
fn solve_flip(
    graph: &TermGraph,
    obs: &[BranchObservation],
    neg: &[TermId],
    schedule: &TestSchedule,
    k: usize,
    dir: bool,
    max_prefix: usize,
    tuning: SolverTuning,
    recorder: &soccar_obs::Recorder,
) -> FlipOutcome {
    let mut solver = tuning.build();
    for t in flip_constraint(obs, neg, k, dir, max_prefix) {
        solver.assert(t);
    }
    match solver.check_traced(graph, recorder) {
        CheckResult::Unsat => FlipOutcome::Unsat,
        CheckResult::Unknown { reason } => FlipOutcome::Unknown(reason),
        CheckResult::Sat(model) => FlipOutcome::Sat(schedule_from_model(
            graph,
            schedule,
            solver.assertions(),
            &model,
        )),
    }
}

/// The incremental counterpart of [`solve_flip`], kept for the
/// `flip_solving` comparison: discharges the same prefix-plus-goal
/// constraint as *retractable assumptions* via
/// [`Solver::check_assuming`] on a pre-blasted `solver`, so a serial
/// caller accumulates learnt clauses across candidates on one context.
#[allow(clippy::too_many_arguments)]
fn solve_flip_on(
    solver: &mut Solver,
    graph: &TermGraph,
    obs: &[BranchObservation],
    neg: &[TermId],
    schedule: &TestSchedule,
    k: usize,
    dir: bool,
    max_prefix: usize,
    recorder: &soccar_obs::Recorder,
) -> FlipOutcome {
    let assumptions = flip_constraint(obs, neg, k, dir, max_prefix);
    match solver.check_assuming_traced(graph, &assumptions, recorder) {
        CheckResult::Unsat => FlipOutcome::Unsat,
        CheckResult::Unknown { reason } => FlipOutcome::Unknown(reason),
        CheckResult::Sat(model) => {
            FlipOutcome::Sat(schedule_from_model(graph, schedule, &assumptions, &model))
        }
    }
}

/// The most recent `cap` distinct symbolic check-obligation terms, in
/// chronological order — the deterministic selection folded into
/// [`FlipWorkload::solve_incremental`]'s window preblast.
fn recent_check_terms(checks: &[crate::coalg::CheckObservation], cap: usize) -> Vec<TermId> {
    let mut seen = HashSet::new();
    let mut out = Vec::new();
    for c in checks.iter().rev() {
        if out.len() >= cap {
            break;
        }
        if seen.insert(c.term) {
            out.push(c.term);
        }
    }
    out.reverse();
    out
}

/// Rebuilds a schedule from a flip model. Only variables in the support
/// of the solved constraints are updated; everything else keeps its
/// previous schedule value.
fn schedule_from_model(
    graph: &TermGraph,
    schedule: &TestSchedule,
    constraints: &[TermId],
    model: &soccar_smt::Model,
) -> TestSchedule {
    let mut support = HashSet::new();
    for t in constraints {
        collect_vars(graph, *t, &mut support);
    }
    let mut next = schedule.clone();
    for var in support {
        let Term::Var(name) = graph.term(var) else {
            continue;
        };
        let Some(value) = model.value(var) else {
            continue;
        };
        if let Some((d, c)) = parse_slot(name, "rst_") {
            if d < next.resets.len() && c < next.cycles {
                let track = &mut next.resets[d];
                let line_high = value.to_u64() == Some(1);
                track.asserted[c as usize] = line_high != track.active_low;
            }
        } else if let Some((i, c)) = parse_slot(name, "in_") {
            if i < next.inputs.len() && c < next.cycles {
                next.inputs[i].values[c as usize] = from_bv(value);
            }
        }
    }
    next
}

/// The number of leading cycles on which every schedule of `group` drives
/// the same reset assertions, high-phase flags and input values: rounds
/// of any of them are identical up to that cycle. The schedules share one
/// shape (tracks in the same order, from the engine's base schedule). A
/// group of one gives its whole horizon.
fn common_prefix(group: &[&TestSchedule]) -> u64 {
    let Some((first, rest)) = group.split_first() else {
        return 0;
    };
    let same_at = |other: &TestSchedule, c: usize| {
        first.resets.iter().zip(&other.resets).all(|(a, b)| {
            a.asserted.get(c) == b.asserted.get(c) && a.high_phase.get(c) == b.high_phase.get(c)
        }) && first
            .inputs
            .iter()
            .zip(&other.inputs)
            .all(|(a, b)| a.values.get(c) == b.values.get(c))
    };
    (0..first.cycles)
        .find(|&c| rest.iter().any(|s| !same_at(s, c as usize)))
        .unwrap_or(first.cycles)
}

/// Parses `prefix{index}_{cycle}` variable names.
fn parse_slot(name: &str, prefix: &str) -> Option<(usize, u64)> {
    let rest = name.strip_prefix(prefix)?;
    let (idx, cycle) = rest.split_once('_')?;
    Some((idx.parse().ok()?, cycle.parse().ok()?))
}

/// Collects variable terms reachable from `t`.
fn collect_vars(graph: &TermGraph, t: TermId, out: &mut HashSet<TermId>) {
    let mut stack = vec![t];
    let mut seen = HashSet::new();
    while let Some(id) = stack.pop() {
        if !seen.insert(id) {
            continue;
        }
        match graph.term(id) {
            Term::Var(_) => {
                out.insert(id);
            }
            Term::Const(_) => {}
            Term::Not(a) | Term::RedAnd(a) | Term::RedOr(a) | Term::RedXor(a) => stack.push(*a),
            Term::Extract { arg, .. } | Term::ZExt { arg, .. } => stack.push(*arg),
            Term::And(a, b)
            | Term::Or(a, b)
            | Term::Xor(a, b)
            | Term::Add(a, b)
            | Term::Sub(a, b)
            | Term::Mul(a, b)
            | Term::Udiv(a, b)
            | Term::Urem(a, b)
            | Term::Shl(a, b)
            | Term::Lshr(a, b)
            | Term::Ashr(a, b)
            | Term::Eq(a, b)
            | Term::Ult(a, b)
            | Term::Ule(a, b)
            | Term::Concat(a, b) => {
                stack.push(*a);
                stack.push(*b);
            }
            Term::Ite(c, a, b) => {
                stack.push(*c);
                stack.push(*a);
                stack.push(*b);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::property::PropertyKind;
    use soccar_cfg::{bind_events, compose_soc, GovernorAnalysis, ResetNaming};
    use soccar_rtl::parser::parse;
    use soccar_rtl::span::FileId;

    fn setup(
        src: &str,
        props: Vec<SecurityProperty>,
        analysis: GovernorAnalysis,
        config: ConcolicConfig,
    ) -> ConcolicReport {
        let unit = parse(FileId(0), src).expect("parse");
        let design = soccar_rtl::elaborate::elaborate(&unit, "top").expect("elaborate");
        let soc = compose_soc(&unit, "top", &ResetNaming::new(), analysis).expect("compose");
        let bound = bind_events(&design, &soc).expect("bind");
        let mut engine = ConcolicEngine::new(&design, &bound, props, config).expect("engine");
        engine.run().expect("run")
    }

    const LEAKY_CRYPTO: &str = "
        module aes(input clk, input rst_n, input load, input [7:0] key_in,
                   output reg [7:0] key_reg, output reg [7:0] busy_ctr);
          always @(posedge clk or negedge rst_n)
            if (!rst_n) begin
              busy_ctr <= 8'd0;          // BUG: key_reg not cleared
            end else begin
              if (load) key_reg <= key_in;
              busy_ctr <= busy_ctr + 8'd1;
            end
        endmodule
        module top(input clk, input crypto_rst_n, input load, input [7:0] key_in,
                   output [7:0] key_reg, output [7:0] busy);
          aes u_aes (.clk(clk), .rst_n(crypto_rst_n), .load(load),
                     .key_in(key_in), .key_reg(key_reg), .busy_ctr(busy));
        endmodule";

    fn leak_property() -> SecurityProperty {
        SecurityProperty {
            name: "aes-key-cleared".into(),
            module: "aes".into(),
            kind: PropertyKind::ClearedAfterReset {
                domain: "top.crypto_rst_n".into(),
                signal: "top.u_aes.key_reg".into(),
                expected: LogicVec::zeros(8),
                window: 0,
            },
        }
    }

    #[test]
    fn engine_detects_uncleaned_key_register() {
        let report = setup(
            LEAKY_CRYPTO,
            vec![leak_property()],
            GovernorAnalysis::Explicit,
            ConcolicConfig {
                cycles: 12,
                max_rounds: 8,
                symbolic_inputs: vec!["top.load".into(), "top.key_in".into()],
                ..ConcolicConfig::default()
            },
        );
        assert!(report.violated("aes-key-cleared"), "report: {report:?}");
        assert!(!report.witnesses.is_empty());
        assert!(report.targets_covered > 0);
    }

    #[test]
    fn clean_design_produces_no_violations() {
        let clean = LEAKY_CRYPTO.replace(
            "busy_ctr <= 8'd0;          // BUG: key_reg not cleared",
            "busy_ctr <= 8'd0; key_reg <= 8'd0;",
        );
        let report = setup(
            &clean,
            vec![leak_property()],
            GovernorAnalysis::Explicit,
            ConcolicConfig {
                cycles: 12,
                max_rounds: 16,
                symbolic_inputs: vec!["top.load".into(), "top.key_in".into()],
                ..ConcolicConfig::default()
            },
        );
        assert!(!report.has_violations(), "report: {report:?}");
        assert_eq!(report.coverage(), 1.0, "all targets coverable: {report:?}");
    }

    #[test]
    fn solver_flip_reaches_data_guarded_branch() {
        // The reset arm contains a branch guarded by a *data* condition
        // (magic == 8'h5A) that random inputs are unlikely to hit; the
        // solver must construct it.
        let src = "
            module ip(input clk, input rst_n, input [7:0] magic,
                      output reg flag, output reg [7:0] ctr);
              always @(posedge clk or negedge rst_n)
                if (!rst_n) begin
                  if (magic == 8'h5A) flag <= 1'b1;
                  ctr <= 8'd0;
                end else ctr <= ctr + 8'd1;
            endmodule
            module top(input clk, input dom_rst_n, input [7:0] magic,
                       output flag, output [7:0] ctr);
              ip u (.clk(clk), .rst_n(dom_rst_n), .magic(magic),
                    .flag(flag), .ctr(ctr));
            endmodule";
        let report = setup(
            src,
            vec![],
            GovernorAnalysis::Explicit,
            ConcolicConfig {
                cycles: 10,
                max_rounds: 16,
                seed: 7,
                symbolic_inputs: vec!["top.magic".into()],
                skip_sweep: true,
                ..ConcolicConfig::default()
            },
        );
        // Full coverage requires taking the magic branch both ways.
        assert_eq!(
            report.targets_covered, report.targets_total,
            "solver must reach the magic-guarded branch: {report:?}"
        );
        assert!(
            report.solver_sat > 0,
            "at least one flip solved: {report:?}"
        );
    }

    #[test]
    fn flip_waste_counters_partition_the_candidates() {
        // Every solved candidate is either consumed by the decision walk
        // or counted as discarded, so the trace shows speculative waste.
        let recorder = soccar_obs::Recorder::enabled();
        let unit = parse(FileId(0), MAGIC_BRANCH).expect("parse");
        let design = soccar_rtl::elaborate::elaborate(&unit, "top").expect("elaborate");
        let soc = compose_soc(
            &unit,
            "top",
            &ResetNaming::new(),
            GovernorAnalysis::Explicit,
        )
        .expect("compose");
        let bound = bind_events(&design, &soc).expect("bind");
        let config = ConcolicConfig {
            cycles: 10,
            max_rounds: 16,
            seed: 7,
            symbolic_inputs: vec!["top.magic".into()],
            skip_sweep: true,
            ..ConcolicConfig::default()
        };
        let mut engine = ConcolicEngine::new(&design, &bound, vec![], config)
            .expect("engine")
            .with_recorder(recorder.clone());
        let report = engine.run().expect("run");
        let snap = recorder.snapshot();
        let counter = |name: &str| snap.counters.get(name).copied().unwrap_or(0);
        assert_eq!(
            counter("concolic.flip_candidates"),
            report.solver_calls as u64
        );
        assert_eq!(
            counter("concolic.flip_consumed") + counter("concolic.flip_discarded"),
            counter("concolic.flip_candidates"),
            "{:?}",
            snap.counters
        );
        assert!(snap.counters.contains_key("concolic.flip_discarded"));
    }

    #[test]
    fn shared_graph_flips_match_solves_on_a_fresh_clone() {
        // Every flip of round 1, solved as a read-only query on the one
        // shared round graph, answers exactly as the same query on its own
        // clone of the graph, with the negations interned per query.
        let leaky_config = ConcolicConfig {
            cycles: 12,
            symbolic_inputs: vec!["top.load".into(), "top.key_in".into()],
            ..ConcolicConfig::default()
        };
        for (src, props, config) in [
            (MAGIC_BRANCH, vec![], magic_config()),
            (LEAKY_CRYPTO, vec![leak_property()], leaky_config),
        ] {
            let unit = parse(FileId(0), src).expect("parse");
            let design = soccar_rtl::elaborate::elaborate(&unit, "top").expect("elaborate");
            let soc = compose_soc(
                &unit,
                "top",
                &ResetNaming::new(),
                GovernorAnalysis::Explicit,
            )
            .expect("compose");
            let bound = bind_events(&design, &soc).expect("bind");
            let engine = ConcolicEngine::new(&design, &bound, props, config).expect("engine");
            let mut schedule = engine.base_schedule();
            schedule.randomize(engine.config.seed);
            let mut sim = engine
                .run_round(&schedule, RoundKind::Analysis)
                .expect("round 1")
                .sim;
            let pristine = sim.algebra().graph.clone();
            let neg = sim.algebra_mut().negated_conditions();
            let (obs, graph) = (sim.algebra().observations(), &sim.algebra().graph);
            assert!(!obs.is_empty(), "round 1 logged no symbolic branch");
            let max_prefix = engine.config.max_prefix;
            let tuning = SolverTuning::of(&engine.config);
            let off = soccar_obs::Recorder::disabled();
            let mut sat = 0;
            // Every candidate flips an observation away from its taken
            // direction; flipping all of them covers every target's.
            for (k, flipped) in obs.iter().enumerate() {
                let dir = !flipped.taken;
                let shared = solve_flip(
                    graph, obs, &neg, &schedule, k, dir, max_prefix, tuning, &off,
                );
                let mut g = pristine.clone();
                let mut solver = tuning.build();
                for o in &obs[k.saturating_sub(max_prefix)..k] {
                    let c = if o.taken { o.cond } else { g.not(o.cond) };
                    solver.assert(c);
                }
                let goal = if dir {
                    flipped.cond
                } else {
                    g.not(flipped.cond)
                };
                solver.assert(goal);
                let reference = match solver.check(&g) {
                    CheckResult::Unsat => FlipOutcome::Unsat,
                    CheckResult::Unknown { reason } => FlipOutcome::Unknown(reason),
                    CheckResult::Sat(model) => FlipOutcome::Sat(schedule_from_model(
                        &g,
                        &schedule,
                        solver.assertions(),
                        &model,
                    )),
                };
                sat += usize::from(matches!(reference, FlipOutcome::Sat(_)));
                assert_eq!(shared, reference, "candidate {k}");
            }
            assert!(sat > 0, "no flip of round 1 was satisfiable");
        }
    }

    #[test]
    fn flip_workload_strategies_agree() {
        // The benchmark harness relies on this: one-shot and incremental
        // flip solving answer identically (in sat-ness) per candidate.
        let unit = parse(FileId(0), MAGIC_BRANCH).expect("parse");
        let design = soccar_rtl::elaborate::elaborate(&unit, "top").expect("elaborate");
        let soc = compose_soc(
            &unit,
            "top",
            &ResetNaming::new(),
            GovernorAnalysis::Explicit,
        )
        .expect("compose");
        let bound = bind_events(&design, &soc).expect("bind");
        let config = ConcolicConfig {
            cycles: 8,
            seed: 7,
            symbolic_inputs: vec!["top.magic".into()],
            ..ConcolicConfig::default()
        };
        let mut engine = ConcolicEngine::new(&design, &bound, vec![], config).expect("engine");
        let workload = engine.flip_workload().expect("workload");
        let cap = 16;
        assert!(workload.candidates(cap) > 0, "round produced no branches");
        let recorder = soccar_obs::Recorder::enabled();
        let oneshot = workload.solve_oneshot(cap, &soccar_obs::Recorder::disabled());
        let incremental = workload.solve_incremental(cap, &recorder);
        assert_eq!(oneshot, incremental, "strategies disagreed on SAT count");
        // The incremental pass actually reused blasting work and went
        // through check_assuming.
        let snap = recorder.snapshot();
        let counter = |name: &str| snap.counters.get(name).copied().unwrap_or(0);
        assert_eq!(
            counter("smt.incremental_calls"),
            workload.candidates(cap) as u64
        );
        assert!(counter("smt.blast_cache_hits") > 0);
        assert!(counter("smt.clauses_reused") > 0);
    }

    #[test]
    fn explicit_analysis_misses_implicit_governor_refined_catches() {
        // The Section V-C scenario as a minimal engine test.
        let src = "
            module sha(input clk, input sec_rst_n, input [7:0] pt,
                       output reg [7:0] ct);
              always @(negedge sec_rst_n)
                if (clk) ct <= pt;      // implicit governor construct
            endmodule
            module top(input clk, input sec_rst_n, input [7:0] pt, output [7:0] ct);
              sha u (.clk(clk), .sec_rst_n(sec_rst_n), .pt(pt), .ct(ct));
            endmodule";
        let prop = SecurityProperty {
            name: "sha-ct-cleared".into(),
            module: "sha".into(),
            kind: PropertyKind::NeverEqual {
                a: "top.u.ct".into(),
                b: "top.u.pt".into(),
                enable: None,
            },
        };
        // Explicit: no AR_CFG events → no reset domains → reset never
        // pulsed → bug not excited.
        let explicit = setup(
            src,
            vec![prop.clone()],
            GovernorAnalysis::Explicit,
            ConcolicConfig {
                cycles: 10,
                max_rounds: 4,
                symbolic_inputs: vec!["top.pt".into()],
                ..ConcolicConfig::default()
            },
        );
        assert_eq!(explicit.targets_total, 0);
        assert!(!explicit.has_violations(), "{explicit:?}");
        // Refined: the whole block is an event; the domain is pulsed and
        // the leak becomes visible.
        let refined = setup(
            src,
            vec![prop],
            GovernorAnalysis::Refined,
            ConcolicConfig {
                cycles: 10,
                max_rounds: 8,
                symbolic_inputs: vec!["top.pt".into()],
                ..ConcolicConfig::default()
            },
        );
        assert!(refined.targets_total > 0);
        assert!(refined.violated("sha-ct-cleared"), "{refined:?}");
    }

    #[test]
    fn flip_fanout_is_job_count_invariant() {
        // The solver-heavy magic-branch design: the round outcome hinges
        // on which flip result is consumed, so any completion-order
        // dependence would show up immediately.
        let src = "
            module ip(input clk, input rst_n, input [7:0] magic,
                      output reg flag, output reg [7:0] ctr);
              always @(posedge clk or negedge rst_n)
                if (!rst_n) begin
                  if (magic == 8'h5A) flag <= 1'b1;
                  ctr <= 8'd0;
                end else ctr <= ctr + 8'd1;
            endmodule
            module top(input clk, input dom_rst_n, input [7:0] magic,
                       output flag, output [7:0] ctr);
              ip u (.clk(clk), .rst_n(dom_rst_n), .magic(magic),
                    .flag(flag), .ctr(ctr));
            endmodule";
        let run = |jobs: usize| {
            setup(
                src,
                vec![],
                GovernorAnalysis::Explicit,
                ConcolicConfig {
                    cycles: 10,
                    max_rounds: 16,
                    seed: 7,
                    symbolic_inputs: vec!["top.magic".into()],
                    jobs,
                    ..ConcolicConfig::default()
                },
            )
        };
        let serial = run(1);
        let parallel = run(4);
        assert_eq!(serial.rounds, parallel.rounds);
        assert_eq!(serial.targets_covered, parallel.targets_covered);
        assert_eq!(serial.targets_unreachable, parallel.targets_unreachable);
        assert_eq!(serial.solver_calls, parallel.solver_calls);
        assert_eq!(serial.solver_sat, parallel.solver_sat);
        assert_eq!(serial.violations, parallel.violations);
        assert_eq!(serial.witnesses, parallel.witnesses);
        assert_eq!(serial.first_violation_round, parallel.first_violation_round);
        assert_eq!(parallel.flip_exec.tasks, serial.flip_exec.tasks);
        assert!(parallel.flip_exec.jobs >= 1);
        assert_eq!(serial.solver_unknown, parallel.solver_unknown);
        assert_eq!(serial.flips_failed, parallel.flips_failed);
        assert_eq!(serial.degraded_rounds, parallel.degraded_rounds);
        assert_eq!(serial.degraded_reasons, parallel.degraded_reasons);
    }

    #[test]
    fn sweep_witness_names_the_earliest_round_at_every_job_count() {
        // The leaky key register is never scrubbed, so every sweep
        // position trips the property; the merged witness must still be
        // the first position's, however the rounds land on workers.
        let unit = parse(FileId(0), LEAKY_CRYPTO).expect("parse");
        let design = soccar_rtl::elaborate::elaborate(&unit, "top").expect("elaborate");
        let soc = compose_soc(
            &unit,
            "top",
            &ResetNaming::new(),
            GovernorAnalysis::Explicit,
        )
        .expect("compose");
        let bound = bind_events(&design, &soc).expect("bind");
        let engine = |jobs: usize| {
            let config = ConcolicConfig {
                cycles: 8,
                max_rounds: 0,
                jobs,
                ..ConcolicConfig::default()
            };
            ConcolicEngine::new(&design, &bound, vec![leak_property()], config).expect("engine")
        };
        let probe = engine(1);
        let schedules = probe.sweep_schedules(|s, at| {
            s.randomize(probe.config.seed.wrapping_add(at));
            s.power_on_only();
            s.add_pulse(0, at, 1);
        });
        for s in &schedules[..2] {
            let run = probe.run_round(s, RoundKind::Sweep).expect("round");
            assert!(
                run.violations
                    .iter()
                    .any(|v| v.property == "aes-key-cleared"),
                "each of the first two positions trips the property"
            );
        }
        for jobs in [1, 2, 4] {
            let report = engine(jobs).run().expect("run");
            assert_eq!(report.rounds, schedules.len(), "jobs={jobs}");
            assert_eq!(report.first_violation_round, Some(1), "jobs={jobs}");
            assert_eq!(report.witnesses.len(), 1, "jobs={jobs}");
            assert_eq!(report.witnesses[0].round, 1, "jobs={jobs}");
            assert_eq!(report.witnesses[0].schedule, schedules[0], "jobs={jobs}");
            assert_eq!(report.sweep_exec.tasks, schedules.len(), "jobs={jobs}");
        }
    }

    #[test]
    fn concrete_sweep_rounds_match_symbolic_rounds() {
        // Sweep rounds drive their inputs concretely. Everything the sweep
        // merge reads must come out as it would from a symbolic round,
        // while the shadow builds no term at all.
        let fixtures = [
            (MAGIC_BRANCH, magic_config(), vec![]),
            (
                LEAKY_CRYPTO,
                ConcolicConfig {
                    cycles: 10,
                    symbolic_inputs: vec!["top.load".into(), "top.key_in".into()],
                    ..ConcolicConfig::default()
                },
                vec![leak_property()],
            ),
        ];
        for (src, config, props) in fixtures {
            let unit = parse(FileId(0), src).expect("parse");
            let design = soccar_rtl::elaborate::elaborate(&unit, "top").expect("elaborate");
            let soc = compose_soc(
                &unit,
                "top",
                &ResetNaming::new(),
                GovernorAnalysis::Explicit,
            )
            .expect("compose");
            let bound = bind_events(&design, &soc).expect("bind");
            let engine = ConcolicEngine::new(&design, &bound, props, config).expect("engine");
            let schedules = engine.sweep_schedules(|s, at| {
                s.randomize(engine.config.seed.wrapping_add(at));
                s.power_on_only();
                s.add_pulse(0, at, 1);
            });
            for s in &schedules {
                let concrete = engine.run_round(s, RoundKind::Sweep).expect("sweep round");
                let symbolic = engine
                    .run_round(s, RoundKind::Analysis)
                    .expect("analysis round");
                assert!(
                    !symbolic.sim.algebra().graph.is_empty(),
                    "fixture is symbolic"
                );
                assert!(concrete.sim.algebra().graph.is_empty());
                assert!(concrete.sim.algebra().observations().is_empty());
                assert_eq!(
                    engine.target_hits(&concrete.sim),
                    engine.target_hits(&symbolic.sim)
                );
                assert_eq!(
                    concrete.sim.algebra().coverage(),
                    symbolic.sim.algebra().coverage()
                );
                assert_eq!(concrete.violations, symbolic.violations);
                assert_eq!(concrete.reasons, symbolic.reasons);
            }
        }
    }

    #[test]
    fn stale_rounds_are_counted_in_merge_order() {
        // Rounds that cover nothing new are counted in the serial merge
        // order, so the trace-only counter is the same at every job count.
        let unit = parse(FileId(0), LEAKY_CRYPTO).expect("parse");
        let design = soccar_rtl::elaborate::elaborate(&unit, "top").expect("elaborate");
        let soc = compose_soc(
            &unit,
            "top",
            &ResetNaming::new(),
            GovernorAnalysis::Explicit,
        )
        .expect("compose");
        let bound = bind_events(&design, &soc).expect("bind");
        let run = |jobs: usize| {
            let recorder = soccar_obs::Recorder::enabled();
            let config = ConcolicConfig {
                cycles: 8,
                max_rounds: 4,
                jobs,
                ..ConcolicConfig::default()
            };
            let report = ConcolicEngine::new(&design, &bound, vec![leak_property()], config)
                .expect("engine")
                .with_recorder(recorder.clone())
                .run()
                .expect("run");
            let stale = recorder.snapshot().counters["concolic.stale_rounds"];
            (report, stale)
        };
        let (report, stale) = run(1);
        let fresh = report.rounds as u64 - stale;
        assert!(stale > 0, "sweep positions repeat coverage");
        assert!((1..=report.targets_covered as u64).contains(&fresh));
        for jobs in [2, 4] {
            assert_eq!(run(jobs).1, stale, "jobs={jobs}");
        }
    }

    const MAGIC_BRANCH: &str = "
        module ip(input clk, input rst_n, input [7:0] magic,
                  output reg flag, output reg [7:0] ctr);
          always @(posedge clk or negedge rst_n)
            if (!rst_n) begin
              if (magic == 8'h5A) flag <= 1'b1;
              ctr <= 8'd0;
            end else ctr <= ctr + 8'd1;
        endmodule
        module top(input clk, input dom_rst_n, input [7:0] magic,
                   output flag, output [7:0] ctr);
          ip u (.clk(clk), .rst_n(dom_rst_n), .magic(magic),
                .flag(flag), .ctr(ctr));
        endmodule";

    fn magic_config() -> ConcolicConfig {
        ConcolicConfig {
            cycles: 10,
            max_rounds: 16,
            seed: 7,
            symbolic_inputs: vec!["top.magic".into()],
            skip_sweep: true,
            ..ConcolicConfig::default()
        }
    }

    #[test]
    fn solver_budget_exhaustion_degrades_instead_of_aborting() {
        // A zero-decision budget makes every flip solve that needs a
        // branching decision return Unknown (a solve that unit
        // propagation settles still answers); the engine must record the
        // skips and still finish the run.
        let report = setup(
            MAGIC_BRANCH,
            vec![],
            GovernorAnalysis::Explicit,
            ConcolicConfig {
                solver_budget: SolveBudget {
                    max_conflicts: None,
                    max_decisions: Some(0),
                },
                ..magic_config()
            },
        );
        assert!(report.solver_unknown > 0, "report: {report:?}");
        assert!(report.is_degraded(), "report: {report:?}");
        assert!(report.degraded_rounds > 0, "report: {report:?}");
        assert!(
            report
                .degraded_reasons
                .iter()
                .any(|r| r.contains("budget exhausted")),
            "report: {report:?}"
        );
        // Pinned for this deterministic design: of the four flip solves,
        // one needs a decision and comes back Unknown (skipped, never
        // consumed as SAT), one is settled SAT without any decision,
        // and two are UNSAT.
        assert_eq!(
            (
                report.solver_calls,
                report.solver_sat,
                report.solver_unknown
            ),
            (4, 1, 1),
            "report: {report:?}"
        );
    }

    #[test]
    fn injected_solver_unknown_skips_one_flip() {
        let report = setup(
            MAGIC_BRANCH,
            vec![],
            GovernorAnalysis::Explicit,
            ConcolicConfig {
                fault_plan: FaultPlan::parse("solver_unknown@1").expect("plan"),
                ..magic_config()
            },
        );
        assert_eq!(report.solver_unknown, 1, "report: {report:?}");
        assert!(report.is_degraded());
        assert!(report
            .degraded_reasons
            .iter()
            .any(|r| r.contains("injected fault: solver_unknown@1")));
        // Later flips still run: the branch is eventually covered.
        assert_eq!(report.targets_covered, report.targets_total);
    }

    #[test]
    fn injected_flip_panic_degrades_round_and_continues() {
        let report = setup(
            MAGIC_BRANCH,
            vec![],
            GovernorAnalysis::Explicit,
            ConcolicConfig {
                fault_plan: FaultPlan::parse("task_panic@flips:1").expect("plan"),
                failure_policy: FailurePolicy::KeepGoing,
                ..magic_config()
            },
        );
        assert_eq!(report.flips_failed, 1, "report: {report:?}");
        assert!(report.is_degraded());
        assert!(report
            .degraded_reasons
            .iter()
            .any(|r| r.contains("worker panicked") && r.contains("task_panic@flips:1")));
        assert_eq!(report.targets_covered, report.targets_total);
    }

    #[test]
    fn injected_round_timeout_skips_flip_planning() {
        let report = setup(
            MAGIC_BRANCH,
            vec![],
            GovernorAnalysis::Explicit,
            ConcolicConfig {
                fault_plan: FaultPlan::parse("round_timeout@1").expect("plan"),
                ..magic_config()
            },
        );
        assert!(report.is_degraded(), "report: {report:?}");
        assert!(report.degraded_rounds >= 1);
        assert!(report
            .degraded_reasons
            .iter()
            .any(|r| r.contains("round deadline exceeded")));
    }

    #[test]
    fn per_round_flip_cap_drops_tail_candidates() {
        let report = setup(
            MAGIC_BRANCH,
            vec![],
            GovernorAnalysis::Explicit,
            ConcolicConfig {
                max_round_flips: 1,
                ..magic_config()
            },
        );
        // The magic design produces several candidates per round; with a
        // cap of 1 at least one round must have dropped candidates.
        assert!(
            report
                .degraded_reasons
                .iter()
                .any(|r| r.contains("flip attempts capped at 1")),
            "report: {report:?}"
        );
        assert!(report.is_degraded());
    }

    #[test]
    fn faulted_runs_are_deterministic_across_job_counts() {
        let run = |jobs: usize| {
            setup(
                MAGIC_BRANCH,
                vec![],
                GovernorAnalysis::Explicit,
                ConcolicConfig {
                    jobs,
                    fault_plan: FaultPlan::parse("solver_unknown@1,task_panic@flips:2")
                        .expect("plan"),
                    failure_policy: FailurePolicy::KeepGoing,
                    ..magic_config()
                },
            )
        };
        let serial = run(1);
        let parallel = run(4);
        assert_eq!(serial.solver_unknown, parallel.solver_unknown);
        assert_eq!(serial.flips_failed, parallel.flips_failed);
        assert_eq!(serial.degraded_rounds, parallel.degraded_rounds);
        assert_eq!(serial.degraded_reasons, parallel.degraded_reasons);
        assert_eq!(serial.rounds, parallel.rounds);
        assert_eq!(serial.targets_covered, parallel.targets_covered);
        assert_eq!(serial.solver_calls, parallel.solver_calls);
        assert_eq!(serial.solver_sat, parallel.solver_sat);
    }

    #[test]
    fn report_accessors() {
        let report = setup(
            LEAKY_CRYPTO,
            vec![],
            GovernorAnalysis::Explicit,
            ConcolicConfig {
                cycles: 6,
                max_rounds: 2,
                ..ConcolicConfig::default()
            },
        );
        assert!(!report.violated("nonexistent"));
        assert!(report.rounds >= 1);
        assert!(report.elapsed.as_nanos() > 0);
    }

    /// Two reset domains and two symbolic inputs: the crypto domain leaks
    /// its key register, the DMA domain scrubs its buffer.
    const TWO_DOMAIN: &str = "
        module aes(input clk, input rst_n, input load, input [7:0] key_in,
                   output reg [7:0] key_reg, output reg [7:0] busy_ctr);
          always @(posedge clk or negedge rst_n)
            if (!rst_n) begin
              busy_ctr <= 8'd0;          // BUG: key_reg not cleared
            end else begin
              if (load) key_reg <= key_in;
              busy_ctr <= busy_ctr + 8'd1;
            end
        endmodule
        module dma(input clk, input rst_n, input [7:0] din, output reg [7:0] buf_q);
          always @(posedge clk or negedge rst_n)
            if (!rst_n) buf_q <= 8'd0;
            else if (din[0]) buf_q <= din;
        endmodule
        module top(input clk, input crypto_rst_n, input dma_rst_n, input load,
                   input [7:0] key_in, output [7:0] key_reg, output [7:0] busy,
                   output [7:0] buf_q);
          aes u_aes (.clk(clk), .rst_n(crypto_rst_n), .load(load),
                     .key_in(key_in), .key_reg(key_reg), .busy_ctr(busy));
          dma u_dma (.clk(clk), .rst_n(dma_rst_n), .din(key_in), .buf_q(buf_q));
        endmodule";

    /// The Section V-C implicit-governor construct (see
    /// `explicit_analysis_misses_implicit_governor_refined_catches`).
    const SHA_LEAK: &str = "
        module sha(input clk, input sec_rst_n, input [7:0] pt,
                   output reg [7:0] ct);
          always @(negedge sec_rst_n)
            if (clk) ct <= pt;
        endmodule
        module top(input clk, input sec_rst_n, input [7:0] pt, output [7:0] ct);
          sha u (.clk(clk), .sec_rst_n(sec_rst_n), .pt(pt), .ct(ct));
        endmodule";

    #[test]
    fn grouped_sweep_rounds_match_rounds_from_scratch() {
        let two_domain_props = vec![
            leak_property(),
            SecurityProperty {
                name: "dma-buf-cleared".into(),
                module: "dma".into(),
                kind: PropertyKind::ClearedAfterReset {
                    domain: "top.dma_rst_n".into(),
                    signal: "top.u_dma.buf_q".into(),
                    expected: LogicVec::zeros(8),
                    window: 0,
                },
            },
        ];
        let sha_prop = SecurityProperty {
            name: "sha-ct-cleared".into(),
            module: "sha".into(),
            kind: PropertyKind::NeverEqual {
                a: "top.u.ct".into(),
                b: "top.u.pt".into(),
                enable: None,
            },
        };
        let fixtures = [
            (
                TWO_DOMAIN,
                GovernorAnalysis::Explicit,
                vec!["top.load", "top.key_in"],
                two_domain_props,
                [2, 0],
            ),
            (
                SHA_LEAK,
                GovernorAnalysis::Refined,
                vec!["top.pt"],
                vec![sha_prop],
                [1, 1],
            ),
        ];
        // `swept` is each phase's number of swept domains.
        for (src, analysis, symbolic, props, swept) in fixtures {
            let unit = parse(FileId(0), src).expect("parse");
            let design = soccar_rtl::elaborate::elaborate(&unit, "top").expect("elaborate");
            let soc = compose_soc(&unit, "top", &ResetNaming::new(), analysis).expect("compose");
            let bound = bind_events(&design, &soc).expect("bind");
            let engine = |jobs: usize| {
                let config = ConcolicConfig {
                    cycles: 10,
                    max_rounds: 3,
                    symbolic_inputs: symbolic.iter().map(|n| n.to_string()).collect(),
                    jobs,
                    ..ConcolicConfig::default()
                };
                ConcolicEngine::new(&design, &bound, props.clone(), config).expect("engine")
            };
            let probe = engine(1);
            let phases = probe.sweep_phases();
            assert_eq!([phases[0].1.len(), phases[1].1.len()], swept);
            let mut violations = 0;
            for (_, per_domain) in &phases {
                for p in 0..per_domain.first().map_or(0, Vec::len) {
                    let group: Vec<&TestSchedule> = per_domain.iter().map(|d| &d[p]).collect();
                    let split = common_prefix(&group);
                    if group.len() == 1 {
                        assert_eq!(split, probe.config.cycles);
                    } else {
                        assert_eq!(split, p as u64 + 1, "diverges at the pulse");
                    }
                    for (schedule, grouped) in group.iter().zip(probe.run_position(&group)) {
                        let grouped = grouped.expect("grouped round");
                        let scratch = probe
                            .run_round(schedule, RoundKind::Sweep)
                            .expect("round from scratch");
                        assert_eq!(grouped.hits, probe.target_hits(&scratch.sim));
                        assert_eq!(grouped.violations, scratch.violations);
                        assert_eq!(grouped.reasons, scratch.reasons);
                        violations += grouped.violations.len();
                    }
                }
            }
            assert!(violations > 0, "the fixture trips its property");
            let serial = engine(1).run().expect("run");
            for jobs in [2, 4] {
                let parallel = engine(jobs).run().expect("run");
                assert_eq!(serial.rounds, parallel.rounds, "jobs={jobs}");
                assert_eq!(serial.targets_covered, parallel.targets_covered);
                assert_eq!(serial.violations, parallel.violations);
                assert_eq!(serial.witnesses, parallel.witnesses);
                assert_eq!(serial.first_violation_round, parallel.first_violation_round);
                assert_eq!(serial.degraded_reasons, parallel.degraded_reasons);
                assert_eq!(serial.sweep_exec.tasks, parallel.sweep_exec.tasks);
            }
        }
    }

    #[test]
    fn common_prefix_stops_at_the_first_divergent_cycle() {
        let base = TestSchedule::quiet(
            8,
            vec![("a".into(), NetId(0), true), ("b".into(), NetId(1), false)],
            vec![("in".into(), NetId(2), 4)],
        );
        let mut input = base.clone();
        input.inputs[0].values[5] = LogicVec::from_u64(4, 3);
        let mut reset = base.clone();
        reset.add_pulse(1, 3, 1);
        let mut high = base.clone();
        high.resets[0].high_phase[6] = true;
        assert_eq!(common_prefix(&[&base]), 8);
        assert_eq!(common_prefix(&[&base, &base.clone()]), 8);
        assert_eq!(common_prefix(&[&base, &input]), 5);
        assert_eq!(common_prefix(&[&base, &reset]), 3);
        assert_eq!(common_prefix(&[&base, &high]), 6);
        assert_eq!(common_prefix(&[&input, &base, &high, &reset]), 3);
    }

    #[test]
    fn zero_sweep_stride_is_rejected() {
        let unit = parse(FileId(0), LEAKY_CRYPTO).expect("parse");
        let design = soccar_rtl::elaborate::elaborate(&unit, "top").expect("elaborate");
        let soc = compose_soc(
            &unit,
            "top",
            &ResetNaming::new(),
            GovernorAnalysis::Explicit,
        )
        .expect("compose");
        let bound = bind_events(&design, &soc).expect("bind");
        let config = ConcolicConfig {
            sweep_stride: 0,
            ..ConcolicConfig::default()
        };
        let err = ConcolicEngine::new(&design, &bound, vec![], config).expect_err("stride 0");
        assert!(err.contains("stride"), "{err}");
    }

    #[test]
    fn parse_slot_names() {
        assert_eq!(parse_slot("rst_0_12", "rst_"), Some((0, 12)));
        assert_eq!(parse_slot("in_3_7", "in_"), Some((3, 7)));
        assert_eq!(parse_slot("rst_x_7", "rst_"), None);
        assert_eq!(parse_slot("other", "rst_"), None);
    }
}
