//! Word-level solver front-end: assert 1-bit terms, check, extract models.

use std::collections::HashMap;
use std::fmt;

use crate::bitblast::BitBlaster;
use crate::bv::BvVal;
use crate::sat::{SatOutcome, SolveBudget, SolverProfile};
use crate::term::{Term, TermGraph, TermId};

/// Clause-database growth (in clauses ever added) between two bounded
/// inprocessing passes on an incremental context.
const INPROCESS_GROWTH: u64 = 512;

/// A satisfying assignment for the asserted formula.
///
/// Every variable term of the graph gets a value, so models can be
/// replayed deterministically as concrete stimuli. Unconstrained bits are
/// zero, and so is every variable outside the support of the assertions:
/// a one-shot [`Solver::check`] never encodes those.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Model {
    values: HashMap<TermId, BvVal>,
}

impl Model {
    /// The value assigned to variable term `var`.
    #[must_use]
    pub fn value(&self, var: TermId) -> Option<&BvVal> {
        self.values.get(&var)
    }

    /// Iterates over `(variable term, value)` pairs (unspecified order).
    pub fn iter(&self) -> impl Iterator<Item = (TermId, &BvVal)> {
        self.values.iter().map(|(k, v)| (*k, v))
    }

    /// Number of assigned variables.
    #[must_use]
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// `true` if the model assigns no variables.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }
}

/// Result of [`Solver::check`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckResult {
    /// Satisfiable, with a full model.
    Sat(Model),
    /// Unsatisfiable.
    Unsat,
    /// The solver's [`SolveBudget`] ran out before the search finished.
    /// Sound but incomplete: callers must treat this as "no answer", not
    /// as either Sat or Unsat. Only produced when a budget is configured.
    Unknown {
        /// Human-readable cause (`budget exhausted: 512 conflicts`),
        /// surfaced in degraded-health reports.
        reason: String,
    },
}

impl CheckResult {
    /// The model if satisfiable.
    #[must_use]
    pub fn model(&self) -> Option<&Model> {
        match self {
            CheckResult::Sat(m) => Some(m),
            CheckResult::Unsat | CheckResult::Unknown { .. } => None,
        }
    }

    /// `true` if satisfiable.
    #[must_use]
    pub fn is_sat(&self) -> bool {
        matches!(self, CheckResult::Sat(_))
    }

    /// `true` if the budget ran out before an answer was reached.
    #[must_use]
    pub fn is_unknown(&self) -> bool {
        matches!(self, CheckResult::Unknown { .. })
    }
}

/// Statistics from one `check` call.
///
/// For [`Solver::check_assuming`] the `conflicts`, `decisions`,
/// `propagations`, and `learnt_literals` fields are per-call deltas
/// (budgets meter per call), while `sat_vars` / `sat_clauses` report the
/// live size of the shared incremental state.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolveStats {
    /// SAT variables created by bit-blasting.
    pub sat_vars: usize,
    /// CNF clauses created.
    pub sat_clauses: usize,
    /// CDCL conflicts.
    pub conflicts: u64,
    /// CDCL branching decisions.
    pub decisions: u64,
    /// Literals assigned by unit propagation.
    pub propagations: u64,
    /// Total literals across learnt clauses.
    pub learnt_literals: u64,
    /// Restarts performed.
    pub restarts: u64,
    /// Learnt clauses deleted by two-tier database reduction.
    pub learnt_deleted: u64,
    /// Learnt clauses retained, summed over reduction passes.
    pub learnt_kept: u64,
    /// Clauses removed by subsumption plus literals removed by
    /// self-subsuming resolution.
    pub subsumed: u64,
    /// Trail literals kept across `check_assuming` calls via
    /// assumption-prefix reuse instead of being re-propagated.
    pub trail_reused: u64,
}

/// Blasted solver state kept alive across [`Solver::check_assuming`]
/// calls: the CNF-level [`BitBlaster`] (term → literal cache plus the
/// incremental CDCL solver underneath) and high-water marks recording how
/// much of the word-level state has been lowered into it.
///
/// The context is only valid for the [`TermGraph`] it was built against,
/// and relies on the graph being append-only: existing `TermId`s never
/// change meaning, so cached literal vectors stay correct as the graph
/// grows. Cloning a `Solver` clones the context too — clones share no
/// state.
#[derive(Debug, Clone)]
pub struct BlastContext {
    bb: BitBlaster,
    synced_assertions: usize,
    blasted_vars: usize,
    // High-water mark for the `smt.clauses_reused` counter: clauses below
    // it were already credited by an earlier traced call, so each
    // carried-over clause is counted exactly once per context (clones
    // inherit the mark and re-count only what they inherited uncredited).
    // Measured in `SatSolver::clauses_added` units — a monotonic count
    // that learnt-DB reduction and inprocessing never lower, so deletion
    // cannot corrupt the accounting.
    counted_clauses: u64,
    // `clauses_added` at the last bounded inprocessing pass; the next
    // pass runs once the database has grown by `INPROCESS_GROWTH`.
    inprocessed_at: u64,
}

impl BlastContext {
    fn new() -> BlastContext {
        BlastContext {
            bb: BitBlaster::new(),
            synced_assertions: 0,
            blasted_vars: 0,
            counted_clauses: 0,
            inprocessed_at: 0,
        }
    }
}

/// A one-shot bit-vector solver over a [`TermGraph`].
///
/// # Examples
///
/// ```
/// use soccar_smt::{CheckResult, Solver, TermGraph};
///
/// let mut g = TermGraph::new();
/// let x = g.var("x", 8);
/// let c = g.const_u64(8, 5);
/// let sum = g.add(x, c);
/// let target = g.const_u64(8, 42);
/// let eq = g.eq(sum, target);
///
/// let mut solver = Solver::new();
/// solver.assert(eq);
/// match solver.check(&g) {
///     CheckResult::Sat(model) => {
///         assert_eq!(model.value(x).and_then(|v| v.to_u64()), Some(37));
///     }
///     other => unreachable!("{other:?}"),
/// }
/// ```
#[derive(Debug, Clone)]
pub struct Solver {
    assertions: Vec<TermId>,
    budget: SolveBudget,
    last_stats: SolveStats,
    ctx: Option<BlastContext>,
    profile: SolverProfile,
    bve: bool,
    trail_reuse: bool,
}

impl Default for Solver {
    /// An empty solver with the environment-default solver-speed knobs
    /// (`SOCCAR_BVE`, `SOCCAR_TRAIL_REUSE`).
    fn default() -> Solver {
        Solver {
            assertions: Vec::new(),
            budget: SolveBudget::default(),
            last_stats: SolveStats::default(),
            ctx: None,
            profile: SolverProfile::default(),
            bve: crate::sat::bve_default(),
            trail_reuse: crate::sat::trail_reuse_default(),
        }
    }
}

impl Solver {
    /// Creates a solver with no assertions and an unlimited budget.
    #[must_use]
    pub fn new() -> Solver {
        Solver::default()
    }

    /// Creates a solver with no assertions and the given [`SolveBudget`].
    /// An exhausted budget makes [`Solver::check`] return
    /// [`CheckResult::Unknown`] instead of searching forever.
    #[must_use]
    pub fn with_budget(budget: SolveBudget) -> Solver {
        Solver {
            budget,
            ..Solver::default()
        }
    }

    /// The configured budget.
    #[must_use]
    pub fn budget(&self) -> SolveBudget {
        self.budget
    }

    /// Replaces the budget for subsequent checks.
    pub fn set_budget(&mut self, budget: SolveBudget) {
        self.budget = budget;
    }

    /// The active [`SolverProfile`].
    #[must_use]
    pub fn profile(&self) -> SolverProfile {
        self.profile
    }

    /// Installs a [`SolverProfile`] on this solver (and on its live
    /// incremental context, if any). Profiles steer the search, never
    /// the Sat/Unsat answer.
    pub fn set_profile(&mut self, profile: SolverProfile) {
        self.profile = profile;
        if let Some(ctx) = self.ctx.as_mut() {
            ctx.bb.solver.set_profile(profile);
        }
    }

    /// Pins bounded variable elimination on or off for this solver (and
    /// its live incremental context), overriding the `SOCCAR_BVE`
    /// environment default.
    pub fn set_bve(&mut self, on: bool) {
        self.bve = on;
        if let Some(ctx) = self.ctx.as_mut() {
            ctx.bb.solver.set_bve(on);
        }
    }

    /// Pins assumption-trail reuse on or off for this solver (and its
    /// live incremental context), overriding `SOCCAR_TRAIL_REUSE`.
    pub fn set_trail_reuse(&mut self, on: bool) {
        self.trail_reuse = on;
        if let Some(ctx) = self.ctx.as_mut() {
            ctx.bb.solver.set_trail_reuse(on);
        }
    }

    /// Adds a 1-bit assertion.
    pub fn assert(&mut self, t: TermId) {
        self.assertions.push(t);
    }

    /// Current assertions.
    #[must_use]
    pub fn assertions(&self) -> &[TermId] {
        &self.assertions
    }

    /// Statistics of the most recent [`Solver::check`].
    #[must_use]
    pub fn stats(&self) -> SolveStats {
        self.last_stats
    }

    /// Decides the conjunction of all assertions.
    ///
    /// # Panics
    ///
    /// Panics if any assertion is not a 1-bit term of `graph`.
    pub fn check(&mut self, graph: &TermGraph) -> CheckResult {
        self.check_traced(graph, &soccar_obs::Recorder::disabled())
    }

    /// Like [`Solver::check`] under an observability recorder: bumps the
    /// `smt.queries` counter and one of `smt.sat` / `smt.unsat` /
    /// `smt.unknown`, and feeds the query's [`SolveStats`] into the
    /// `smt.sat_vars`, `smt.sat_clauses`, and `smt.conflicts` histograms.
    ///
    /// Metrics only — no span is opened, so this is safe to call from
    /// worker threads: counter increments and histogram merges commute,
    /// and the concolic engine solves the same query set regardless of
    /// job count, keeping traces deterministic.
    ///
    /// # Panics
    ///
    /// As [`Solver::check`].
    pub fn check_traced(
        &mut self,
        graph: &TermGraph,
        recorder: &soccar_obs::Recorder,
    ) -> CheckResult {
        let result = self.check_inner(graph);
        recorder.counter_add("smt.queries", 1);
        recorder.counter_add(
            match &result {
                CheckResult::Sat(_) => "smt.sat",
                CheckResult::Unsat => "smt.unsat",
                CheckResult::Unknown { .. } => "smt.unknown",
            },
            1,
        );
        self.record_solve_metrics(recorder);
        result
    }

    /// Histograms plus the only-when-nonzero CDCL-dynamics counters
    /// (`smt.restarts`, `smt.learnt_kept`, `smt.learnt_deleted`,
    /// `smt.subsumed`) for the most recent call's [`SolveStats`].
    fn record_solve_metrics(&self, recorder: &soccar_obs::Recorder) {
        let st = self.last_stats;
        recorder.histogram_record("smt.sat_vars", st.sat_vars as u64);
        recorder.histogram_record("smt.sat_clauses", st.sat_clauses as u64);
        recorder.histogram_record("smt.conflicts", st.conflicts);
        recorder.histogram_record("smt.propagations", st.propagations);
        recorder.histogram_record("smt.learnt_literals", st.learnt_literals);
        if st.restarts > 0 {
            recorder.counter_add("smt.restarts", st.restarts);
        }
        if st.learnt_kept > 0 {
            recorder.counter_add("smt.learnt_kept", st.learnt_kept);
        }
        if st.learnt_deleted > 0 {
            recorder.counter_add("smt.learnt_deleted", st.learnt_deleted);
        }
        if st.subsumed > 0 {
            recorder.counter_add("smt.subsumed", st.subsumed);
        }
        if st.trail_reused > 0 {
            recorder.counter_add("smt.trail_reused", st.trail_reused);
        }
    }

    fn check_inner(&mut self, graph: &TermGraph) -> CheckResult {
        // Fast path: constant assertions.
        if self
            .assertions
            .iter()
            .any(|t| graph.as_const(*t).is_some_and(BvVal::is_zero))
        {
            self.last_stats = SolveStats::default();
            return CheckResult::Unsat;
        }
        let mut bb = BitBlaster::new();
        bb.solver.set_profile(self.profile);
        // One-shot solves never inprocess or re-solve, so BVE and trail
        // reuse have nothing to do here; the flags are still applied for
        // uniformity with the incremental context.
        bb.solver.set_bve(self.bve);
        bb.solver.set_trail_reuse(self.trail_reuse);
        // Only the assertions' cone is encoded: a variable outside it
        // cannot affect the answer.
        for t in &self.assertions {
            bb.assert_true(graph, *t);
        }
        let outcome = bb.solver.solve_budgeted(self.budget);
        self.last_stats = SolveStats {
            sat_vars: bb.solver.num_vars(),
            sat_clauses: bb.solver.num_clauses(),
            conflicts: bb.solver.conflicts(),
            decisions: bb.solver.decisions(),
            propagations: bb.solver.propagations(),
            learnt_literals: bb.solver.learnt_literals(),
            restarts: bb.solver.restarts(),
            learnt_deleted: bb.solver.learnt_deleted(),
            learnt_kept: bb.solver.learnt_kept(),
            subsumed: bb.solver.subsumed(),
            trail_reused: 0,
        };
        match outcome {
            SatOutcome::Unsat => CheckResult::Unsat,
            SatOutcome::Sat => {
                // The model stays total: a variable that was never
                // blasted reads zero, as an unassigned bit does.
                let values = graph
                    .vars()
                    .iter()
                    .map(|&v| {
                        let value = bb.model_bits(v).map_or_else(
                            || BvVal::zeros(graph.width(v)),
                            |bits| BvVal::from_bits(&bits),
                        );
                        (v, value)
                    })
                    .collect();
                CheckResult::Sat(Model { values })
            }
            SatOutcome::Unknown => CheckResult::Unknown {
                reason: format!(
                    "solver budget exhausted ({} conflicts, {} decisions)",
                    self.last_stats.conflicts, self.last_stats.decisions
                ),
            },
        }
    }

    /// Cache hits of the incremental blast context so far (0 before the
    /// first [`Solver::check_assuming`] / [`Solver::preblast`] call).
    #[must_use]
    pub fn blast_cache_hits(&self) -> u64 {
        self.ctx.as_ref().map_or(0, |c| c.bb.cache_hits())
    }

    /// Lowers `terms` (and all pending assertions / graph variables) into
    /// the incremental blast context ahead of time, so that subsequent
    /// [`Solver::check_assuming`] calls — or calls on *clones* of this
    /// solver — find everything already encoded and only pay for the
    /// search.
    ///
    /// # Panics
    ///
    /// As [`Solver::check_assuming`].
    pub fn preblast(&mut self, graph: &TermGraph, terms: &[TermId]) {
        self.sync_ctx(graph);
        let ctx = self.ctx.as_mut().expect("context just synced");
        for t in terms {
            ctx.bb.blast(graph, *t);
        }
    }

    /// Brings the blast context up to date with the word-level state:
    /// assertions added since the last call become hard (non-retractable)
    /// clauses, and new graph variables are blasted so models stay total.
    fn sync_ctx(&mut self, graph: &TermGraph) {
        if self.ctx.is_none() {
            let mut ctx = BlastContext::new();
            ctx.bb.solver.set_profile(self.profile);
            ctx.bb.solver.set_bve(self.bve);
            ctx.bb.solver.set_trail_reuse(self.trail_reuse);
            self.ctx = Some(ctx);
        }
        let ctx = self.ctx.as_mut().expect("context just created");
        while ctx.synced_assertions < self.assertions.len() {
            let t = self.assertions[ctx.synced_assertions];
            ctx.bb.assert_true(graph, t);
            ctx.synced_assertions += 1;
        }
        let vars = graph.vars();
        while ctx.blasted_vars < vars.len() {
            ctx.bb.blast(graph, vars[ctx.blasted_vars]);
            ctx.blasted_vars += 1;
        }
    }

    /// Decides the assertions conjoined with retractable `assumptions`
    /// (1-bit terms), reusing the blasted CNF, learnt clauses, variable
    /// activities, and saved phases of every previous `check_assuming`
    /// call on this solver.
    ///
    /// Unlike [`Solver::assert`] + [`Solver::check`], the assumptions are
    /// not part of the formula afterwards: `Unsat` means "unsat under
    /// these assumptions" unless the hard assertions alone are
    /// contradictory (a level-0 conflict), which is permanent. The
    /// [`SolveBudget`] meters each call separately; an `Unknown` answer
    /// keeps everything learnt, so re-solving resumes rather than
    /// restarts.
    ///
    /// The context assumes `graph` only grows between calls (append-only
    /// `TermId`s); see `docs/SOLVER.md` for the reuse invariants.
    ///
    /// # Panics
    ///
    /// Panics if any assertion or assumption is not a 1-bit term of
    /// `graph`.
    pub fn check_assuming(&mut self, graph: &TermGraph, assumptions: &[TermId]) -> CheckResult {
        self.check_assuming_traced(graph, assumptions, &soccar_obs::Recorder::disabled())
    }

    /// Like [`Solver::check_assuming`] under an observability recorder.
    ///
    /// On top of the [`Solver::check_traced`] metrics it bumps
    /// `smt.incremental_calls`, `smt.blast_cache_hits` (terms answered
    /// from the blast cache during this call), and `smt.clauses_reused`
    /// (clauses a call finds already present — blasted or learnt by an
    /// earlier call — with each clause credited only once per context,
    /// so the counter tracks the clause database's size, not the call
    /// count), and feeds the new
    /// `smt.propagations` / `smt.learnt_literals` histograms. Metrics
    /// only — no span — so it is worker-thread safe like `check_traced`.
    ///
    /// # Panics
    ///
    /// As [`Solver::check_assuming`].
    pub fn check_assuming_traced(
        &mut self,
        graph: &TermGraph,
        assumptions: &[TermId],
        recorder: &soccar_obs::Recorder,
    ) -> CheckResult {
        let hits_at_entry = self.blast_cache_hits();
        let (added_at_entry, counted_at_entry) = self
            .ctx
            .as_ref()
            .map_or((0, 0), |c| (c.bb.solver.clauses_added(), c.counted_clauses));
        let result = self.check_assuming_inner(graph, assumptions);
        recorder.counter_add("smt.queries", 1);
        recorder.counter_add("smt.incremental_calls", 1);
        recorder.counter_add(
            match result {
                CheckResult::Sat(_) => "smt.sat",
                CheckResult::Unsat => "smt.unsat",
                CheckResult::Unknown { .. } => "smt.unknown",
            },
            1,
        );
        let hits = self.blast_cache_hits() - hits_at_entry;
        if hits > 0 {
            recorder.counter_add("smt.blast_cache_hits", hits);
        }
        let reused = added_at_entry.saturating_sub(counted_at_entry);
        if reused > 0 {
            recorder.counter_add("smt.clauses_reused", reused);
        }
        if let Some(ctx) = self.ctx.as_mut() {
            ctx.counted_clauses = ctx.counted_clauses.max(added_at_entry);
        }
        self.record_solve_metrics(recorder);
        self.maintain_ctx(recorder);
        result
    }

    /// Bounded inprocessing between `check_assuming` calls, triggered by
    /// clause-database growth against the context's high-water mark. The
    /// trigger depends only on the call sequence, never on wall clock,
    /// so runs stay deterministic; the pass happens after the call's
    /// model was extracted, so it only ever touches a retracted trail.
    fn maintain_ctx(&mut self, recorder: &soccar_obs::Recorder) {
        let Some(ctx) = self.ctx.as_mut() else {
            return;
        };
        let added = ctx.bb.solver.clauses_added();
        if added.saturating_sub(ctx.inprocessed_at) < INPROCESS_GROWTH {
            return;
        }
        let subsumed_before = ctx.bb.solver.subsumed();
        let deleted_before = ctx.bb.solver.learnt_deleted();
        let kept_before = ctx.bb.solver.learnt_kept();
        let eliminated_before = ctx.bb.solver.eliminated_vars();
        ctx.bb.solver.inprocess();
        ctx.inprocessed_at = added;
        let subsumed = ctx.bb.solver.subsumed() - subsumed_before;
        if subsumed > 0 {
            recorder.counter_add("smt.subsumed", subsumed);
        }
        let deleted = ctx.bb.solver.learnt_deleted() - deleted_before;
        if deleted > 0 {
            recorder.counter_add("smt.learnt_deleted", deleted);
        }
        let kept = ctx.bb.solver.learnt_kept() - kept_before;
        if kept > 0 {
            recorder.counter_add("smt.learnt_kept", kept);
        }
        let eliminated = ctx.bb.solver.eliminated_vars() - eliminated_before;
        if eliminated > 0 {
            recorder.counter_add("smt.eliminated_vars", eliminated);
        }
    }

    fn check_assuming_inner(&mut self, graph: &TermGraph, assumptions: &[TermId]) -> CheckResult {
        // Fast path: a constant-false assertion or assumption.
        if self
            .assertions
            .iter()
            .chain(assumptions)
            .any(|t| graph.as_const(*t).is_some_and(BvVal::is_zero))
        {
            self.last_stats = SolveStats::default();
            return CheckResult::Unsat;
        }
        self.sync_ctx(graph);
        let ctx = self.ctx.as_mut().expect("context just synced");
        let mut lits = Vec::with_capacity(assumptions.len());
        for t in assumptions {
            assert_eq!(graph.width(*t), 1, "assumptions must be 1-bit terms");
            lits.push(ctx.bb.blast(graph, *t)[0]);
        }
        let conflicts_at_entry = ctx.bb.solver.conflicts();
        let decisions_at_entry = ctx.bb.solver.decisions();
        let propagations_at_entry = ctx.bb.solver.propagations();
        let learnt_at_entry = ctx.bb.solver.learnt_literals();
        let restarts_at_entry = ctx.bb.solver.restarts();
        let deleted_at_entry = ctx.bb.solver.learnt_deleted();
        let kept_at_entry = ctx.bb.solver.learnt_kept();
        let subsumed_at_entry = ctx.bb.solver.subsumed();
        let reused_at_entry = ctx.bb.solver.trail_reused_lits();
        let outcome = ctx.bb.solver.solve_assuming(&lits, self.budget);
        self.last_stats = SolveStats {
            sat_vars: ctx.bb.solver.num_vars(),
            sat_clauses: ctx.bb.solver.num_clauses(),
            conflicts: ctx.bb.solver.conflicts() - conflicts_at_entry,
            decisions: ctx.bb.solver.decisions() - decisions_at_entry,
            propagations: ctx.bb.solver.propagations() - propagations_at_entry,
            learnt_literals: ctx.bb.solver.learnt_literals() - learnt_at_entry,
            restarts: ctx.bb.solver.restarts() - restarts_at_entry,
            learnt_deleted: ctx.bb.solver.learnt_deleted() - deleted_at_entry,
            learnt_kept: ctx.bb.solver.learnt_kept() - kept_at_entry,
            subsumed: ctx.bb.solver.subsumed() - subsumed_at_entry,
            trail_reused: ctx.bb.solver.trail_reused_lits() - reused_at_entry,
        };
        match outcome {
            SatOutcome::Unsat => CheckResult::Unsat,
            SatOutcome::Sat => {
                let mut values = HashMap::new();
                for v in graph.vars() {
                    let bits = ctx.bb.model_bits(*v).expect("variable was blasted");
                    values.insert(*v, BvVal::from_bits(&bits));
                }
                CheckResult::Sat(Model { values })
            }
            SatOutcome::Unknown => CheckResult::Unknown {
                reason: format!(
                    "solver budget exhausted ({} conflicts, {} decisions)",
                    self.last_stats.conflicts, self.last_stats.decisions
                ),
            },
        }
    }
}

impl fmt::Display for Model {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut entries: Vec<_> = self.values.iter().collect();
        entries.sort_by_key(|(id, _)| id.0);
        for (id, v) in entries {
            writeln!(f, "{id} = {v}")?;
        }
        Ok(())
    }
}

/// Validates a model against the assertions using the reference evaluator
/// (used by tests and the concolic engine's self-checks).
#[must_use]
pub fn model_satisfies(graph: &TermGraph, assertions: &[TermId], model: &Model) -> bool {
    let env: HashMap<TermId, BvVal> = model.iter().map(|(k, v)| (k, v.clone())).collect();
    assertions.iter().all(|t| {
        // Any variable not in the model (created after check) defaults 0.
        let mut env = env.clone();
        collect_missing_vars(graph, *t, &mut env);
        !graph.eval(*t, &env).is_zero()
    })
}

fn collect_missing_vars(graph: &TermGraph, t: TermId, env: &mut HashMap<TermId, BvVal>) {
    match graph.term(t) {
        Term::Var(_) => {
            env.entry(t).or_insert_with(|| BvVal::zeros(graph.width(t)));
        }
        Term::Const(_) => {}
        Term::Not(a) | Term::RedAnd(a) | Term::RedOr(a) | Term::RedXor(a) => {
            collect_missing_vars(graph, *a, env);
        }
        Term::Extract { arg, .. } | Term::ZExt { arg, .. } => {
            collect_missing_vars(graph, *arg, env);
        }
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
            collect_missing_vars(graph, *a, env);
            collect_missing_vars(graph, *b, env);
        }
        Term::Ite(c, t2, e) => {
            collect_missing_vars(graph, *c, env);
            collect_missing_vars(graph, *t2, env);
            collect_missing_vars(graph, *e, env);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sat_with_model() {
        let mut g = TermGraph::new();
        let x = g.var("x", 16);
        let y = g.var("y", 16);
        let sum = g.add(x, y);
        let c = g.const_u64(16, 1000);
        let eq = g.eq(sum, c);
        let c400 = g.const_u64(16, 400);
        let xeq = g.eq(x, c400);
        let mut s = Solver::new();
        s.assert(eq);
        s.assert(xeq);
        let r = s.check(&g);
        let m = r.model().expect("sat");
        assert_eq!(m.value(x).and_then(BvVal::to_u64), Some(400));
        assert_eq!(m.value(y).and_then(BvVal::to_u64), Some(600));
        assert!(model_satisfies(&g, s.assertions(), m));
        assert!(s.stats().sat_vars > 0);
    }

    #[test]
    fn unsat_contradiction() {
        let mut g = TermGraph::new();
        let x = g.var("x", 8);
        let c1 = g.const_u64(8, 1);
        let c2 = g.const_u64(8, 2);
        let e1 = g.eq(x, c1);
        let e2 = g.eq(x, c2);
        let mut s = Solver::new();
        s.assert(e1);
        s.assert(e2);
        assert_eq!(s.check(&g), CheckResult::Unsat);
    }

    #[test]
    fn constant_false_fast_path() {
        let mut g = TermGraph::new();
        let f = g.fls();
        let mut s = Solver::new();
        s.assert(f);
        assert_eq!(s.check(&g), CheckResult::Unsat);
        assert_eq!(s.stats().sat_vars, 0);
    }

    #[test]
    fn unconstrained_variables_get_defaults() {
        let mut g = TermGraph::new();
        let x = g.var("x", 8);
        let _unused = g.var("unused", 4);
        let c = g.const_u64(8, 3);
        let eq = g.eq(x, c);
        let mut s = Solver::new();
        s.assert(eq);
        let r = s.check(&g);
        let m = r.model().expect("sat");
        assert_eq!(m.len(), 2);
        assert!(m.value(_unused).is_some());
    }

    #[test]
    fn check_blasts_only_the_assertion_support() {
        // Pin x = 0x5A bit by bit: a bit of a variable is its own literal,
        // so the query needs no gate variables at all.
        let mut g = TermGraph::new();
        let x = g.var("x", 8);
        let unrelated = g.var("unrelated", 64);
        let mut s = Solver::new();
        for i in 0..8 {
            let bit = g.extract(i, i, x);
            s.assert(if (0x5A >> i) & 1 == 1 {
                bit
            } else {
                g.not(bit)
            });
        }
        let r = s.check(&g);
        assert_eq!(s.stats().sat_vars, 8 + 1, "x's bits plus constant-true");
        let m = r.model().expect("sat");
        assert_eq!(m.len(), 2, "the model still holds every variable");
        assert_eq!(m.value(x).and_then(BvVal::to_u64), Some(0x5A));
        assert_eq!(m.value(unrelated), Some(&BvVal::zeros(64)));
    }

    #[test]
    fn budget_exhaustion_reports_unknown() {
        let mut g = TermGraph::new();
        let x = g.var("x", 16);
        let y = g.var("y", 16);
        let sum = g.add(x, y);
        let c = g.const_u64(16, 1000);
        let eq = g.eq(sum, c);
        // A zero-decision budget forces Unknown on anything propagation
        // alone cannot decide.
        let mut s = Solver::with_budget(SolveBudget {
            max_conflicts: None,
            max_decisions: Some(0),
        });
        s.assert(eq);
        let r = s.check(&g);
        assert!(r.is_unknown());
        assert!(r.model().is_none());
        match &r {
            CheckResult::Unknown { reason } => assert!(reason.contains("budget exhausted")),
            other => unreachable!("{other:?}"),
        }
        // Lifting the budget recovers the definite answer.
        s.set_budget(SolveBudget::UNLIMITED);
        assert!(s.check(&g).is_sat());
    }

    #[test]
    fn unsat_is_still_definite_under_a_budget() {
        // The level-0/fast-path Unsat answers do not consume budget.
        let mut g = TermGraph::new();
        let x = g.var("x", 8);
        let c1 = g.const_u64(8, 1);
        let c2 = g.const_u64(8, 2);
        let e1 = g.eq(x, c1);
        let e2 = g.eq(x, c2);
        let mut s = Solver::with_budget(SolveBudget::conflicts(1));
        s.assert(e1);
        s.assert(e2);
        assert_eq!(s.check(&g), CheckResult::Unsat);
        assert_eq!(s.budget(), SolveBudget::conflicts(1));
    }

    #[test]
    fn check_assuming_flips_without_reasserting() {
        let mut g = TermGraph::new();
        let x = g.var("x", 8);
        let c1 = g.const_u64(8, 1);
        let c2 = g.const_u64(8, 2);
        let e1 = g.eq(x, c1);
        let e2 = g.eq(x, c2);
        let mut s = Solver::new();
        // No hard assertions: each call decides one retractable goal.
        let r1 = s.check_assuming(&g, &[e1]);
        assert_eq!(
            r1.model().and_then(|m| m.value(x)).and_then(BvVal::to_u64),
            Some(1)
        );
        let r2 = s.check_assuming(&g, &[e2]);
        assert_eq!(
            r2.model().and_then(|m| m.value(x)).and_then(BvVal::to_u64),
            Some(2)
        );
        // Contradictory assumptions: unsat under them, not permanently.
        assert_eq!(s.check_assuming(&g, &[e1, e2]), CheckResult::Unsat);
        assert!(s.check_assuming(&g, &[e1]).is_sat());
        // The second blast of e1/e2 came from the cache.
        assert!(s.blast_cache_hits() > 0);
    }

    #[test]
    fn check_assuming_with_hard_assertions_and_graph_growth() {
        let mut g = TermGraph::new();
        let x = g.var("x", 8);
        let y = g.var("y", 8);
        let sum = g.add(x, y);
        let c10 = g.const_u64(8, 10);
        let eq10 = g.eq(sum, c10);
        let mut s = Solver::new();
        s.assert(eq10);
        let c3 = g.const_u64(8, 3);
        let xeq3 = g.eq(x, c3);
        let r = s.check_assuming(&g, &[xeq3]);
        let m = r.model().expect("sat");
        assert_eq!(m.value(y).and_then(BvVal::to_u64), Some(7));
        assert!(model_satisfies(&g, &[eq10, xeq3], m));
        // Grow the graph after the context exists: new terms blast on
        // demand, new variables join the model.
        let z = g.var("z", 4);
        let c9 = g.const_u64(4, 9);
        let zeq9 = g.eq(z, c9);
        let r = s.check_assuming(&g, &[zeq9]);
        let m = r.model().expect("sat");
        assert_eq!(m.value(z).and_then(BvVal::to_u64), Some(9));
        assert_eq!(m.value(x).map(|v| v.width()), Some(8));
        // A contradictory assumption pair is retractable...
        let c200 = g.const_u64(8, 200);
        let xeq200 = g.eq(x, c200);
        assert_eq!(s.check_assuming(&g, &[xeq3, xeq200]), CheckResult::Unsat);
        // ...and the solver still answers Sat afterwards.
        assert!(s.check_assuming(&g, &[xeq3]).is_sat());
    }

    #[test]
    fn assertions_added_between_assumption_calls_are_kept() {
        // Regression: the unit clause for a new assertion used to be
        // enqueued on the previous call's stale Sat trail and then
        // silently discarded by the next solve's entry backtrack.
        let mut g = TermGraph::new();
        let x = g.var("x", 8);
        let c0 = g.const_u64(8, 0);
        let c1 = g.const_u64(8, 1);
        let xeq0 = g.eq(x, c0);
        let xeq1 = g.eq(x, c1);
        let mut s = Solver::new();
        // Leave a Sat trail (x = 1) on the shared context...
        assert!(s.check_assuming(&g, &[xeq1]).is_sat());
        // ...then land a hard assertion while that trail is still up.
        s.assert(xeq0);
        let r = s.check_assuming(&g, &[]);
        let m = r.model().expect("x == 0 is satisfiable");
        assert_eq!(m.value(x).and_then(BvVal::to_u64), Some(0));
        assert!(model_satisfies(&g, s.assertions(), m));
        // The assertion is a real hard clause now, not a lost enqueue...
        assert_eq!(s.check_assuming(&g, &[xeq1]), CheckResult::Unsat);
        // ...and that Unsat was assumption-level, not permanent.
        assert!(s.check_assuming(&g, &[xeq0]).is_sat());
    }

    #[test]
    fn assertion_falsified_by_stale_model_is_not_permanent_unsat() {
        // Regression: when the stale Sat trail falsified a new hard
        // unit, the failed enqueue wrongly latched the solver
        // permanently unsat.
        let mut g = TermGraph::new();
        let x = g.var("x", 8);
        let c1 = g.const_u64(8, 1);
        let xeq1 = g.eq(x, c1);
        let xne1 = g.not(xeq1);
        let mut s = Solver::new();
        // Sat trail with x = 1, so the blasted literal of `xeq1` is true.
        assert!(s.check_assuming(&g, &[xeq1]).is_sat());
        // `not` reuses that cached literal negated — false on the trail.
        s.assert(xne1);
        let r = s.check_assuming(&g, &[]);
        let m = r.model().expect("x != 1 is satisfiable");
        assert_ne!(m.value(x).and_then(BvVal::to_u64), Some(1));
        assert!(model_satisfies(&g, s.assertions(), m));
    }

    #[test]
    fn clauses_reused_counts_each_clause_once() {
        // The counter credits a carried-over clause the first time a call
        // finds it already present — repeating the same call must not
        // keep re-adding the whole clause database (quadratic growth).
        let mut g = TermGraph::new();
        let x = g.var("x", 8);
        let y = g.var("y", 8);
        let sum = g.add(x, y);
        let c10 = g.const_u64(8, 10);
        let eq10 = g.eq(sum, c10);
        let c3 = g.const_u64(8, 3);
        let xeq3 = g.eq(x, c3);
        let mut s = Solver::new();
        s.assert(eq10);
        let recorder = soccar_obs::Recorder::enabled();
        let reused = |r: &soccar_obs::Recorder| {
            r.snapshot()
                .counters
                .get("smt.clauses_reused")
                .copied()
                .unwrap_or(0)
        };
        for _ in 0..5 {
            assert!(s.check_assuming_traced(&g, &[xeq3], &recorder).is_sat());
        }
        // Every clause is credited at most once, so the counter is
        // bounded by the database size no matter how many calls ran
        // (the old per-call accumulation would be ~5x the database).
        let total = reused(&recorder);
        assert!(total > 0, "the repeated calls reused blasted clauses");
        assert!(
            total <= s.stats().sat_clauses as u64,
            "reused {total} > {} live clauses",
            s.stats().sat_clauses
        );
    }

    #[test]
    fn check_assuming_permanent_unsat_from_hard_assertions() {
        let mut g = TermGraph::new();
        let x = g.var("x", 8);
        let c1 = g.const_u64(8, 1);
        let c2 = g.const_u64(8, 2);
        let e1 = g.eq(x, c1);
        let e2 = g.eq(x, c2);
        let mut s = Solver::new();
        s.assert(e1);
        s.assert(e2);
        assert_eq!(s.check_assuming(&g, &[]), CheckResult::Unsat);
        assert_eq!(s.check_assuming(&g, &[e1]), CheckResult::Unsat);
    }

    #[test]
    fn check_assuming_budget_unknown_with_deltas() {
        let mut g = TermGraph::new();
        let x = g.var("x", 16);
        let y = g.var("y", 16);
        let sum = g.add(x, y);
        let c = g.const_u64(16, 1000);
        let eq = g.eq(sum, c);
        let mut s = Solver::with_budget(SolveBudget {
            max_conflicts: None,
            max_decisions: Some(0),
        });
        let r = s.check_assuming(&g, &[eq]);
        assert!(r.is_unknown());
        match &r {
            CheckResult::Unknown { reason } => assert!(reason.contains("budget exhausted")),
            other => unreachable!("{other:?}"),
        }
        // Budgets meter per call: lifting it resumes to a definite answer
        // on the same context.
        s.set_budget(SolveBudget::UNLIMITED);
        let r = s.check_assuming(&g, &[eq]);
        let m = r.model().expect("sat");
        assert!(model_satisfies(&g, &[eq], m));
        assert_eq!(s.stats().decisions, s.stats().decisions); // per-call delta
    }

    #[test]
    fn cloned_solver_shares_no_state_with_original() {
        let mut g = TermGraph::new();
        let x = g.var("x", 8);
        let c5 = g.const_u64(8, 5);
        let c6 = g.const_u64(8, 6);
        let e5 = g.eq(x, c5);
        let e6 = g.eq(x, c6);
        let mut base = Solver::new();
        base.preblast(&g, &[e5, e6]);
        let clauses = base.blast_cache_hits();
        let mut a = base.clone();
        let mut b = base.clone();
        assert!(a.check_assuming(&g, &[e5]).is_sat());
        assert_eq!(b.check_assuming(&g, &[e5, e6]), CheckResult::Unsat);
        // Both clones hit the preblasted cache; the base is untouched.
        assert!(a.blast_cache_hits() > clauses);
        assert_eq!(base.blast_cache_hits(), clauses);
    }

    #[test]
    fn reset_style_constraint() {
        // The shape Algorithm 3 solves: clock-edge and reset equivalences.
        // (clk == 1) ∧ (rst_n == 0) ∧ (state == BUSY)
        let mut g = TermGraph::new();
        let clk = g.var("clk", 1);
        let rst_n = g.var("rst_n", 1);
        let state = g.var("state", 2);
        let one = g.tru();
        let zero = g.fls();
        let busy = g.const_u64(2, 2);
        let c1 = g.eq(clk, one);
        let c2 = g.eq(rst_n, zero);
        let c3 = g.eq(state, busy);
        let mut s = Solver::new();
        s.assert(c1);
        s.assert(c2);
        s.assert(c3);
        let r = s.check(&g);
        let m = r.model().expect("sat");
        assert_eq!(m.value(clk).and_then(BvVal::to_u64), Some(1));
        assert_eq!(m.value(rst_n).and_then(BvVal::to_u64), Some(0));
        assert_eq!(m.value(state).and_then(BvVal::to_u64), Some(2));
    }
}
