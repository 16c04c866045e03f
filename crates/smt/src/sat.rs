//! A CDCL SAT solver.
//!
//! Standard modern architecture, sized for the formulas the concolic engine
//! produces (thousands of variables, tens of thousands of clauses):
//!
//! * two-watched-literal unit propagation;
//! * first-UIP conflict analysis with clause learning and
//!   non-chronological backjumping;
//! * EVSIDS variable activities with a lazy max-heap;
//! * phase saving;
//! * Luby-sequence restarts (profile-scheduled, assumption-trail aware);
//! * LBD ("glue") scoring of learnt clauses with two-tier learnt-database
//!   reduction (glue clauses are permanent, the worse half of the rest is
//!   dropped once the database crosses its growth threshold);
//! * bounded inprocessing at decision level 0: level-0 clause
//!   simplification, forward subsumption, self-subsuming resolution, and
//!   bounded variable elimination with model reconstruction
//!   (see [`SatSolver::inprocess`]);
//! * trail reuse between assumption solves: a new [`SatSolver::solve_assuming`]
//!   call keeps the longest common prefix of the previous call's
//!   assumption trail instead of re-propagating it from scratch
//!   (`SOCCAR_TRAIL_REUSE=0` disables);
//! * deterministic [`SolverProfile`]s (branching seed, phase polarity,
//!   restart schedule) that steer the search without changing answers.

use std::fmt;

/// Reads the `SOCCAR_BVE` escape hatch: `0`/`false`/`off` disable bounded
/// variable elimination in the inprocessing pass, anything else (or
/// unset) enables it.
#[must_use]
pub fn bve_default() -> bool {
    !matches!(
        std::env::var("SOCCAR_BVE").as_deref(),
        Ok("0") | Ok("false") | Ok("off")
    )
}

/// Reads the `SOCCAR_TRAIL_REUSE` escape hatch: `0`/`false`/`off` disable
/// assumption-trail reuse between `solve_assuming` calls, anything else
/// (or unset) enables it.
#[must_use]
pub fn trail_reuse_default() -> bool {
    !matches!(
        std::env::var("SOCCAR_TRAIL_REUSE").as_deref(),
        Ok("0") | Ok("false") | Ok("off")
    )
}

/// A propositional variable, numbered from 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Var(pub u32);

/// A literal: variable plus polarity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Lit(u32);

impl Lit {
    /// Positive literal of `v`.
    #[must_use]
    pub fn pos(v: Var) -> Lit {
        Lit(v.0 << 1)
    }

    /// Negative literal of `v`.
    #[must_use]
    pub fn neg(v: Var) -> Lit {
        Lit((v.0 << 1) | 1)
    }

    /// Literal of `v` with the given sign (`true` = positive).
    #[must_use]
    pub fn new(v: Var, positive: bool) -> Lit {
        if positive {
            Lit::pos(v)
        } else {
            Lit::neg(v)
        }
    }

    /// The underlying variable.
    #[must_use]
    pub fn var(self) -> Var {
        Var(self.0 >> 1)
    }

    /// `true` if this is the positive literal.
    #[must_use]
    pub fn is_pos(self) -> bool {
        self.0 & 1 == 0
    }

    /// The complementary literal.
    #[must_use]
    pub fn negate(self) -> Lit {
        Lit(self.0 ^ 1)
    }

    fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_pos() {
            write!(f, "x{}", self.var().0)
        } else {
            write!(f, "¬x{}", self.var().0)
        }
    }
}

/// Result of a satisfiability check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SatOutcome {
    /// Satisfiable; query assignments via [`SatSolver::value`].
    Sat,
    /// Unsatisfiable.
    Unsat,
    /// The [`SolveBudget`] ran out before the search reached an answer.
    /// The solver state is mid-search; only restarting gives a definite
    /// answer.
    Unknown,
}

/// A resource budget for one [`SatSolver::solve_budgeted`] call.
///
/// Both limits count work done *within the call* (not over the solver's
/// lifetime); `None` means unlimited. The default budget is unlimited,
/// which makes [`SatSolver::solve`] the classic run-to-completion CDCL.
///
/// A budgeted solve is *sound but incomplete*: when it answers
/// [`SatOutcome::Sat`] or [`SatOutcome::Unsat`] the answer is exactly
/// what the unbudgeted solve would return; when the budget runs out it
/// answers [`SatOutcome::Unknown`] instead of looping on.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolveBudget {
    /// Maximum CDCL conflicts before giving up.
    pub max_conflicts: Option<u64>,
    /// Maximum branching decisions before giving up.
    pub max_decisions: Option<u64>,
}

impl SolveBudget {
    /// The unlimited budget (run to completion).
    pub const UNLIMITED: SolveBudget = SolveBudget {
        max_conflicts: None,
        max_decisions: None,
    };

    /// A budget capping only conflicts.
    #[must_use]
    pub fn conflicts(max: u64) -> SolveBudget {
        SolveBudget {
            max_conflicts: Some(max),
            max_decisions: None,
        }
    }

    /// `true` if no limit is set (the production default).
    #[must_use]
    pub fn is_unlimited(&self) -> bool {
        self.max_conflicts.is_none() && self.max_decisions.is_none()
    }
}

/// A deterministic solver configuration: everything that may vary
/// between searches of the same clauses without changing *answers*.
///
/// Two solvers over the same clauses always agree on Sat/Unsat whatever
/// their profiles; profiles only steer *which* model a Sat search finds
/// and how fast either answer arrives. The default profile is the
/// canonical single-solver configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SolverProfile {
    /// Branching tie-break seed. `0` keeps the canonical first-maximum
    /// scan; any other value perturbs ties among equal activities
    /// deterministically (splitmix64 ranking).
    pub seed: u64,
    /// Start every variable with saved phase `true` instead of `false`.
    pub invert_phase: bool,
    /// Luby restart multiplier (conflicts before the first restart).
    pub restart_base: u64,
    /// Learnt clauses accumulated before the first two-tier database
    /// reduction; the threshold then grows by 1.5x per reduction.
    pub reduce_base: u64,
}

impl Default for SolverProfile {
    fn default() -> SolverProfile {
        SolverProfile {
            seed: 0,
            invert_phase: false,
            restart_base: 100,
            reduce_base: 2000,
        }
    }
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Assign {
    Unset,
    True,
    False,
}

#[derive(Debug, Clone)]
struct Clause {
    lits: Vec<Lit>,
    /// Learnt (eligible for reduction) vs. original (permanent).
    learnt: bool,
    /// Literal-block distance at learn time (0 for originals).
    lbd: u32,
}

/// The CDCL solver.
///
/// # Examples
///
/// ```
/// use soccar_smt::sat::{Lit, SatOutcome, SatSolver, Var};
///
/// let mut s = SatSolver::new();
/// let a = s.new_var();
/// let b = s.new_var();
/// s.add_clause(&[Lit::pos(a), Lit::pos(b)]);
/// s.add_clause(&[Lit::neg(a)]);
/// assert_eq!(s.solve(), SatOutcome::Sat);
/// assert_eq!(s.value(a), Some(false));
/// assert_eq!(s.value(b), Some(true));
/// ```
#[derive(Debug, Clone, Default)]
pub struct SatSolver {
    clauses: Vec<Clause>,
    watches: Vec<Vec<u32>>, // per literal index: clause indices
    assigns: Vec<Assign>,
    levels: Vec<u32>,
    reasons: Vec<Option<u32>>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    prop_head: usize,
    activity: Vec<f64>,
    var_inc: f64,
    phase: Vec<bool>,
    occurs: Vec<bool>, // var appears in at least one clause
    order: Vec<Var>,   // lazy heap (sorted occasionally)
    unsat: bool,
    conflicts: u64,
    decisions: u64,
    propagations: u64,
    learnt_literals: u64,
    profile: SolverProfile,
    /// Monotonic count of clauses ever pushed into the database. Unlike
    /// `num_clauses()` this never decreases when reduction or
    /// inprocessing deletes clauses, so it is the safe basis for
    /// high-water-mark accounting (the blast context's reuse counter).
    clauses_added: u64,
    /// Live learnt clauses (maintained across learning and deletion).
    num_learnts: usize,
    /// Learnt count that triggers the next reduction (0 = use the
    /// profile's `reduce_base`).
    reduce_threshold: u64,
    restarts: u64,
    learnt_deleted: u64,
    learnt_kept: u64,
    subsumed: u64,
    /// Vars that bounded variable elimination must never touch: every
    /// var visible outside the solver (blast-cache bits, assumption
    /// vars, obligation vars). Fresh internal gate vars stay unfrozen.
    frozen: Vec<bool>,
    /// Vars removed from the clause database by BVE. Their model values
    /// come from `elim_values` (reconstructed on every Sat answer).
    eliminated: Vec<bool>,
    /// Reconstructed model values for eliminated vars (valid after Sat).
    elim_values: Vec<bool>,
    /// Elimination stack: per eliminated var, the original clauses it
    /// occurred in, replayed in reverse on Sat to rebuild its value.
    elim_stack: Vec<(Var, Vec<Vec<Lit>>)>,
    eliminated_vars: u64,
    /// Bounded variable elimination enabled (SOCCAR_BVE).
    bve: bool,
    /// Assumption-trail reuse enabled (SOCCAR_TRAIL_REUSE).
    trail_reuse: bool,
    /// Assumptions of the most recent `search` call, kept so the next
    /// call can reuse the longest common prefix of the trail.
    last_assumptions: Vec<Lit>,
    /// Trail literals kept (not re-propagated) thanks to prefix reuse.
    trail_reused_lits: u64,
}

const VAR_DECAY: f64 = 0.95;
const ACTIVITY_RESCALE: f64 = 1e100;

impl SatSolver {
    /// Creates an empty solver. The `SOCCAR_BVE` and `SOCCAR_TRAIL_REUSE`
    /// escape hatches set the initial feature flags; use
    /// [`SatSolver::set_bve`] / [`SatSolver::set_trail_reuse`] to pin
    /// them regardless of the environment.
    #[must_use]
    pub fn new() -> SatSolver {
        SatSolver {
            var_inc: 1.0,
            bve: bve_default(),
            trail_reuse: trail_reuse_default(),
            ..SatSolver::default()
        }
    }

    /// Number of variables.
    #[must_use]
    pub fn num_vars(&self) -> usize {
        self.assigns.len()
    }

    /// Number of clauses (original + learnt).
    #[must_use]
    pub fn num_clauses(&self) -> usize {
        self.clauses.len()
    }

    /// Conflicts encountered so far (diagnostics).
    #[must_use]
    pub fn conflicts(&self) -> u64 {
        self.conflicts
    }

    /// Branching decisions made so far (diagnostics).
    #[must_use]
    pub fn decisions(&self) -> u64 {
        self.decisions
    }

    /// Literals propagated by unit propagation so far (diagnostics).
    #[must_use]
    pub fn propagations(&self) -> u64 {
        self.propagations
    }

    /// Total literals across all learnt clauses so far (diagnostics).
    #[must_use]
    pub fn learnt_literals(&self) -> u64 {
        self.learnt_literals
    }

    /// Monotonic count of clauses ever added (original + learnt). Never
    /// decreases, even when reduction or inprocessing deletes clauses —
    /// use this (not [`SatSolver::num_clauses`]) for high-water marks.
    #[must_use]
    pub fn clauses_added(&self) -> u64 {
        self.clauses_added
    }

    /// Live learnt clauses currently in the database.
    #[must_use]
    pub fn num_learnts(&self) -> usize {
        self.num_learnts
    }

    /// Restarts performed so far (diagnostics).
    #[must_use]
    pub fn restarts(&self) -> u64 {
        self.restarts
    }

    /// Learnt clauses deleted by two-tier database reduction so far.
    #[must_use]
    pub fn learnt_deleted(&self) -> u64 {
        self.learnt_deleted
    }

    /// Learnt clauses retained, summed over reduction passes.
    #[must_use]
    pub fn learnt_kept(&self) -> u64 {
        self.learnt_kept
    }

    /// Clauses removed by subsumption plus literals removed by
    /// self-subsuming resolution, so far.
    #[must_use]
    pub fn subsumed(&self) -> u64 {
        self.subsumed
    }

    /// Variables removed by bounded variable elimination so far.
    #[must_use]
    pub fn eliminated_vars(&self) -> u64 {
        self.eliminated_vars
    }

    /// Trail literals kept across `solve_assuming` calls via
    /// assumption-prefix reuse (instead of being re-propagated), so far.
    #[must_use]
    pub fn trail_reused_lits(&self) -> u64 {
        self.trail_reused_lits
    }

    /// Enables or disables bounded variable elimination in
    /// [`SatSolver::inprocess`]. Already-eliminated vars stay eliminated;
    /// disabling only stops future passes.
    pub fn set_bve(&mut self, on: bool) {
        self.bve = on;
    }

    /// Enables or disables assumption-trail reuse between
    /// [`SatSolver::solve_assuming`] calls.
    pub fn set_trail_reuse(&mut self, on: bool) {
        self.trail_reuse = on;
    }

    /// Marks `v` untouchable by bounded variable elimination. Every var
    /// the caller will ever mention again — in a clause, an assumption,
    /// or a model query whose exact clause-implied value matters — must
    /// be frozen; only internal gate vars should stay unfrozen.
    pub fn freeze_var(&mut self, v: Var) {
        self.frozen[v.0 as usize] = true;
    }

    /// The active [`SolverProfile`].
    #[must_use]
    pub fn profile(&self) -> SolverProfile {
        self.profile
    }

    /// Installs a profile. Switching `invert_phase` flips every saved
    /// phase once (idempotent: re-installing the same profile is a
    /// no-op), so a cloned solver explores the complementary polarity
    /// space.
    pub fn set_profile(&mut self, profile: SolverProfile) {
        if profile.invert_phase != self.profile.invert_phase {
            for ph in &mut self.phase {
                *ph = !*ph;
            }
        }
        self.profile = profile;
    }

    fn reduce_limit(&self) -> u64 {
        if self.reduce_threshold == 0 {
            self.profile.reduce_base.max(8)
        } else {
            self.reduce_threshold
        }
    }

    /// Allocates a fresh variable.
    pub fn new_var(&mut self) -> Var {
        let v = Var(self.assigns.len() as u32);
        self.assigns.push(Assign::Unset);
        self.levels.push(0);
        self.reasons.push(None);
        self.activity.push(0.0);
        self.phase.push(self.profile.invert_phase);
        self.occurs.push(false);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        self.order.push(v);
        self.frozen.push(false);
        self.eliminated.push(false);
        self.elim_values.push(false);
        v
    }

    /// Adds a clause. An empty clause makes the instance trivially unsat.
    ///
    /// Adding a clause invalidates the model of a previous solve: the
    /// trail is retracted to decision level 0 first, so the clause is
    /// simplified against (and any unit enqueued on) level-0 state only.
    /// A unit landed on a stale search trail would be popped — and
    /// silently lost — by the next solve's entry backtrack.
    pub fn add_clause(&mut self, lits: &[Lit]) {
        if self.unsat {
            return;
        }
        debug_assert!(
            lits.iter().all(|l| !self.eliminated[l.var().0 as usize]),
            "clause mentions a BVE-eliminated var; freeze vars that get new clauses"
        );
        self.backtrack(0);
        // Every mentioned variable gets a defined model value, even if the
        // clause itself is dropped below (tautology / already satisfied).
        for l in lits {
            self.occurs[l.var().0 as usize] = true;
        }
        // Deduplicate and check for tautology.
        let mut ls: Vec<Lit> = lits.to_vec();
        ls.sort_unstable();
        ls.dedup();
        if ls.windows(2).any(|w| w[0].var() == w[1].var()) {
            return; // x ∨ ¬x: tautology
        }
        // Drop literals already false at level 0; satisfied clauses vanish.
        ls.retain(|l| !(self.value_lit(*l) == Some(false) && self.levels[l.var().0 as usize] == 0));
        if ls
            .iter()
            .any(|l| self.value_lit(*l) == Some(true) && self.levels[l.var().0 as usize] == 0)
        {
            return;
        }
        match ls.len() {
            0 => self.unsat = true,
            1 => {
                if !self.enqueue(ls[0], None) {
                    self.unsat = true;
                }
            }
            _ => {
                let idx = self.clauses.len() as u32;
                self.watches[ls[0].negate().index()].push(idx);
                self.watches[ls[1].negate().index()].push(idx);
                self.clauses.push(Clause {
                    lits: ls,
                    learnt: false,
                    lbd: 0,
                });
                self.clauses_added += 1;
            }
        }
    }

    /// The model value of `v` after [`SatSolver::solve`] returned `Sat`.
    ///
    /// `Sat` models are *partial* over variables that occur in no clause:
    /// such variables are never branched on (see `pick_branch`) and stay
    /// `None`. Callers needing a total assignment pick their own default
    /// — the bit-blaster's `model_bits` defaults unconstrained bits to
    /// `false`, matching what the one-shot solver's models contain.
    /// BVE-eliminated variables report their reconstructed value (the
    /// elimination stack is replayed on every `Sat` answer), so models
    /// stay total over eliminated vars exactly as if they had never been
    /// eliminated.
    #[must_use]
    pub fn value(&self, v: Var) -> Option<bool> {
        if self.eliminated[v.0 as usize] {
            return Some(self.elim_values[v.0 as usize]);
        }
        match self.assigns[v.0 as usize] {
            Assign::Unset => None,
            Assign::True => Some(true),
            Assign::False => Some(false),
        }
    }

    fn value_lit(&self, l: Lit) -> Option<bool> {
        self.value(l.var()).map(|b| b == l.is_pos())
    }

    fn enqueue(&mut self, l: Lit, reason: Option<u32>) -> bool {
        match self.value_lit(l) {
            Some(true) => true,
            Some(false) => false,
            None => {
                let v = l.var().0 as usize;
                self.assigns[v] = if l.is_pos() {
                    Assign::True
                } else {
                    Assign::False
                };
                self.levels[v] = self.decision_level();
                self.reasons[v] = reason;
                self.phase[v] = l.is_pos();
                self.trail.push(l);
                true
            }
        }
    }

    fn decision_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    fn propagate(&mut self) -> Option<u32> {
        while self.prop_head < self.trail.len() {
            let l = self.trail[self.prop_head];
            self.prop_head += 1;
            self.propagations += 1;
            // Clauses watching ¬l need a new watch or produce units.
            let mut watch_list = std::mem::take(&mut self.watches[l.index()]);
            let mut keep = Vec::with_capacity(watch_list.len());
            let mut conflict = None;
            let mut i = 0;
            while i < watch_list.len() {
                let ci = watch_list[i];
                i += 1;
                let false_lit = l.negate();
                // Normalize: watched literal in position 1.
                {
                    let c = &mut self.clauses[ci as usize];
                    if c.lits[0] == false_lit {
                        c.lits.swap(0, 1);
                    }
                }
                let first = self.clauses[ci as usize].lits[0];
                if self.value_lit(first) == Some(true) {
                    keep.push(ci);
                    continue;
                }
                // Find a new watch.
                let mut found = None;
                {
                    let c = &self.clauses[ci as usize];
                    for (k, cand) in c.lits.iter().enumerate().skip(2) {
                        if self.value_lit(*cand) != Some(false) {
                            found = Some(k);
                            break;
                        }
                    }
                }
                if let Some(k) = found {
                    let c = &mut self.clauses[ci as usize];
                    c.lits.swap(1, k);
                    let new_watch = c.lits[1];
                    self.watches[new_watch.negate().index()].push(ci);
                    continue;
                }
                // No new watch: clause is unit or conflicting.
                keep.push(ci);
                if !self.enqueue(first, Some(ci)) {
                    conflict = Some(ci);
                    // Keep the remaining watchers.
                    keep.extend_from_slice(&watch_list[i..]);
                    break;
                }
            }
            watch_list.clear();
            debug_assert!(self.watches[l.index()].is_empty());
            self.watches[l.index()] = keep;
            if let Some(c) = conflict {
                return Some(c);
            }
        }
        None
    }

    fn bump_var(&mut self, v: Var) {
        let a = &mut self.activity[v.0 as usize];
        *a += self.var_inc;
        if *a > ACTIVITY_RESCALE {
            for act in &mut self.activity {
                *act /= ACTIVITY_RESCALE;
            }
            self.var_inc /= ACTIVITY_RESCALE;
        }
    }

    fn analyze(&mut self, mut conflict: u32) -> (Vec<Lit>, u32, u32) {
        let mut learnt: Vec<Lit> = vec![Lit(0)]; // slot 0 reserved for UIP
        let mut seen = vec![false; self.num_vars()];
        let mut counter = 0u32;
        let mut p: Option<Lit> = None;
        let mut trail_idx = self.trail.len();
        loop {
            // Visit the reason clause.
            let start = usize::from(p.is_some());
            let lits: Vec<Lit> = self.clauses[conflict as usize].lits[start..].to_vec();
            for q in lits {
                let v = q.var().0 as usize;
                if !seen[v] && self.levels[v] > 0 {
                    seen[v] = true;
                    self.bump_var(q.var());
                    if self.levels[v] == self.decision_level() {
                        counter += 1;
                    } else {
                        learnt.push(q);
                    }
                }
            }
            // Select the next trail literal to resolve on.
            loop {
                trail_idx -= 1;
                let l = self.trail[trail_idx];
                if seen[l.var().0 as usize] {
                    p = Some(l);
                    break;
                }
            }
            let pv = p.expect("resolvent literal").var().0 as usize;
            seen[pv] = false;
            counter -= 1;
            if counter == 0 {
                learnt[0] = p.expect("uip").negate();
                break;
            }
            conflict = self.reasons[pv].expect("non-decision has a reason");
        }
        // Backjump level: second-highest level in the learnt clause.
        let bt = learnt[1..]
            .iter()
            .map(|l| self.levels[l.var().0 as usize])
            .max()
            .unwrap_or(0);
        // Put a literal of the backjump level in position 1 for watching.
        if learnt.len() > 1 {
            let pos = 1 + learnt[1..]
                .iter()
                .position(|l| self.levels[l.var().0 as usize] == bt)
                .expect("literal at backjump level");
            learnt.swap(1, pos);
        }
        // LBD ("glue"): distinct decision levels across the learnt
        // clause, computed before backtracking unassigns the UIP.
        let mut lvls: Vec<u32> = learnt
            .iter()
            .map(|l| self.levels[l.var().0 as usize])
            .collect();
        lvls.sort_unstable();
        lvls.dedup();
        let lbd = lvls.len() as u32;
        (learnt, bt, lbd)
    }

    fn backtrack(&mut self, level: u32) {
        while self.decision_level() > level {
            let lim = self.trail_lim.pop().expect("level to pop");
            while self.trail.len() > lim {
                let l = self.trail.pop().expect("trail entry");
                let v = l.var().0 as usize;
                self.assigns[v] = Assign::Unset;
                self.reasons[v] = None;
            }
        }
        // Clamp only: literals enqueued at the target level but not yet
        // propagated (units from `add_clause`) must stay queued, or their
        // consequences — including level-0 conflicts — are missed.
        self.prop_head = self.trail.len().min(self.prop_head);
    }

    fn pick_branch(&mut self) -> Option<Lit> {
        // Lazy max-activity scan (instances are small enough). Variables
        // in no clause are never branched on: they cannot contribute to a
        // conflict, so the model is simply left partial over them (see
        // `value`) and callers choose the default.
        let mut best: Option<Var> = None;
        let mut best_act = -1.0;
        let seed = self.profile.seed;
        for v in 0..self.num_vars() {
            if self.occurs[v] && self.assigns[v] == Assign::Unset {
                let act = self.activity[v];
                // Seed 0 keeps the canonical first-maximum scan; other
                // seeds break activity ties by a deterministic rank so
                // differently seeded solvers branch differently from move
                // one.
                let better = act > best_act
                    || (seed != 0
                        && act == best_act
                        && best.is_some_and(|b| {
                            splitmix64(seed ^ v as u64) > splitmix64(seed ^ u64::from(b.0))
                        }));
                if better {
                    best_act = act;
                    best = Some(Var(v as u32));
                }
            }
        }
        best.map(|v| Lit::new(v, self.phase[v.0 as usize]))
    }

    /// Decides satisfiability of the accumulated clauses, running the
    /// search to completion (an unlimited [`SolveBudget`]).
    pub fn solve(&mut self) -> SatOutcome {
        self.solve_budgeted(SolveBudget::UNLIMITED)
    }

    /// Like [`SatSolver::solve`], but gives up with [`SatOutcome::Unknown`]
    /// once the budget's conflict or decision limit is reached. Limits
    /// count work done within this call, so re-invoking with a fresh
    /// budget continues the search (learnt clauses are kept).
    pub fn solve_budgeted(&mut self, budget: SolveBudget) -> SatOutcome {
        self.search(&[], budget)
    }

    /// Solves under retractable *assumption* literals.
    ///
    /// Assumptions are enqueued as pseudo-decisions at successive levels
    /// (MiniSat style), so everything the solver accumulates — clause
    /// database, watches, activities, phases, and learnt clauses — stays
    /// alive across calls and the next call benefits from the last one's
    /// work. Outcomes:
    ///
    /// * [`SatOutcome::Sat`]: a model consistent with every assumption is
    ///   on the trail (query via [`SatSolver::value`]).
    /// * [`SatOutcome::Unsat`]: unsatisfiable *under these assumptions*.
    ///   Only a conflict at decision level 0 marks the instance
    ///   permanently unsat; an assumption-level conflict is retracted by
    ///   backtracking and later calls may still answer `Sat`.
    /// * [`SatOutcome::Unknown`]: the per-call `budget` ran out. Learnt
    ///   clauses are kept, so a re-solve resumes rather than restarts.
    ///
    /// Learnt clauses never resolve on assumption literals (assumptions
    /// carry no reason clause), so everything learnt is implied by the
    /// clause database alone and remains valid once the assumptions are
    /// retracted.
    pub fn solve_assuming(&mut self, assumptions: &[Lit], budget: SolveBudget) -> SatOutcome {
        self.search(assumptions, budget)
    }

    /// Decision levels whose pseudo-decisions can be kept from the
    /// previous `search` call: the longest common prefix of the old and
    /// new assumption lists, capped by the levels actually still on the
    /// trail. Level k (1-based) holds `last_assumptions[k-1]`, an
    /// invariant every exit path of `search` maintains.
    fn reusable_prefix(&self, assumptions: &[Lit]) -> u32 {
        if !self.trail_reuse || self.unsat {
            return 0;
        }
        let max = (self.decision_level() as usize)
            .min(self.last_assumptions.len())
            .min(assumptions.len());
        let mut k = 0;
        while k < max && assumptions[k] == self.last_assumptions[k] {
            k += 1;
        }
        k as u32
    }

    /// The CDCL main loop shared by plain and assumption solving.
    fn search(&mut self, assumptions: &[Lit], budget: SolveBudget) -> SatOutcome {
        debug_assert!(
            assumptions
                .iter()
                .all(|l| !self.eliminated[l.var().0 as usize]),
            "assumption on a BVE-eliminated var; freeze assumption vars"
        );
        // Retract whatever a previous call left on the trail — wholly,
        // or (with trail reuse on) only past the longest common prefix
        // of retractable assumptions, skipping re-propagation of the
        // shared prefix. The kept prefix was a propagation fixpoint when
        // the previous call left it and the clause database is unchanged
        // since (`add_clause`/`inprocess` both retract to level 0, which
        // empties the reusable prefix), so it still is one.
        let keep = self.reusable_prefix(assumptions);
        self.backtrack(keep);
        if self.unsat {
            return SatOutcome::Unsat;
        }
        if keep == 0 {
            if self.propagate().is_some() {
                self.unsat = true;
                return SatOutcome::Unsat;
            }
        } else {
            self.trail_reused_lits += self.trail.len() as u64;
        }
        self.last_assumptions.clear();
        self.last_assumptions.extend_from_slice(assumptions);
        let n_assumps = assumptions.len() as u32;
        let conflicts_at_entry = self.conflicts;
        let decisions_at_entry = self.decisions;
        let restart_base = self.profile.restart_base.max(1);
        let mut luby_idx = 1u64;
        let mut conflicts_until_restart = restart_base * luby(luby_idx);
        loop {
            match self.propagate() {
                Some(conflict) => {
                    self.conflicts += 1;
                    if self.decision_level() == 0 {
                        self.unsat = true;
                        return SatOutcome::Unsat;
                    }
                    if self.decision_level() <= n_assumps {
                        // The conflict is forced by the assumptions alone:
                        // unsat under them, but not permanently. With
                        // trail reuse, keep the consistent prefix below
                        // the conflicting assumption level for the next
                        // call; the conflicting level itself is popped.
                        let floor = if self.trail_reuse {
                            self.decision_level() - 1
                        } else {
                            0
                        };
                        self.backtrack(floor);
                        return SatOutcome::Unsat;
                    }
                    let (learnt, bt, lbd) = self.analyze(conflict);
                    self.learnt_literals += learnt.len() as u64;
                    self.backtrack(bt);
                    if learnt.len() == 1 {
                        let ok = self.enqueue(learnt[0], None);
                        debug_assert!(ok, "learnt unit must be enqueueable");
                    } else {
                        let idx = self.clauses.len() as u32;
                        self.watches[learnt[0].negate().index()].push(idx);
                        self.watches[learnt[1].negate().index()].push(idx);
                        let first = learnt[0];
                        self.clauses.push(Clause {
                            lits: learnt,
                            learnt: true,
                            lbd,
                        });
                        self.clauses_added += 1;
                        self.num_learnts += 1;
                        let ok = self.enqueue(first, Some(idx));
                        debug_assert!(ok, "uip literal must be enqueueable");
                    }
                    self.var_inc /= VAR_DECAY;
                    // Budget check sits after clause learning so an
                    // interrupted search still keeps what it learnt.
                    if budget
                        .max_conflicts
                        .is_some_and(|max| self.conflicts - conflicts_at_entry >= max)
                    {
                        self.backtrack(self.unknown_floor(n_assumps));
                        return SatOutcome::Unknown;
                    }
                    conflicts_until_restart = conflicts_until_restart.saturating_sub(1);
                    if conflicts_until_restart == 0 {
                        luby_idx += 1;
                        conflicts_until_restart = restart_base * luby(luby_idx);
                        self.restarts += 1;
                        if self.num_learnts as u64 >= self.reduce_limit() {
                            // Full restart with a two-tier learnt-DB
                            // reduction; assumptions are re-enqueued by
                            // the level check below.
                            self.backtrack(0);
                            self.maintain(true, false);
                            if self.unsat {
                                return SatOutcome::Unsat;
                            }
                        } else {
                            // Restart to the assumption floor: the
                            // retractable assumption trail survives.
                            self.backtrack(n_assumps.min(self.decision_level()));
                        }
                    }
                }
                None => {
                    if (self.decision_level() as usize) < assumptions.len() {
                        let a = assumptions[self.decision_level() as usize];
                        match self.value_lit(a) {
                            Some(true) => {
                                // Already implied: push a dummy level to
                                // keep level ↔ assumption-index in step.
                                self.trail_lim.push(self.trail.len());
                            }
                            Some(false) => {
                                // The assumption is falsified by the
                                // prefix below; with trail reuse the
                                // consistent prefix levels stay put.
                                if !self.trail_reuse {
                                    self.backtrack(0);
                                }
                                return SatOutcome::Unsat;
                            }
                            None => {
                                self.trail_lim.push(self.trail.len());
                                let ok = self.enqueue(a, None);
                                debug_assert!(ok, "assumption literal was unset");
                            }
                        }
                    } else {
                        match self.pick_branch() {
                            None => {
                                self.reconstruct_eliminated();
                                return SatOutcome::Sat;
                            }
                            Some(decision) => {
                                if budget
                                    .max_decisions
                                    .is_some_and(|max| self.decisions - decisions_at_entry >= max)
                                {
                                    self.backtrack(self.unknown_floor(n_assumps));
                                    return SatOutcome::Unknown;
                                }
                                self.decisions += 1;
                                self.trail_lim.push(self.trail.len());
                                let ok = self.enqueue(decision, None);
                                debug_assert!(ok, "decision variable was unset");
                            }
                        }
                    }
                }
            }
        }
    }

    /// The backtrack floor for a budget-exhausted (`Unknown`) exit: with
    /// trail reuse the assumption levels stay on the trail so a re-solve
    /// under the same (or prefix-sharing) assumptions resumes without
    /// re-propagating them; without it, the classic full retraction.
    fn unknown_floor(&self, n_assumps: u32) -> u32 {
        if self.trail_reuse {
            n_assumps.min(self.decision_level())
        } else {
            0
        }
    }

    /// Replays the elimination stack in reverse to give every
    /// BVE-eliminated variable a value consistent with the clauses it
    /// was resolved out of. Runs on every `Sat` exit; afterwards
    /// [`SatSolver::value`] is total over eliminated vars and satisfies
    /// the original (pre-elimination) clause set.
    fn reconstruct_eliminated(&mut self) {
        if self.elim_stack.is_empty() {
            return;
        }
        let stack = std::mem::take(&mut self.elim_stack);
        for (v, stored) in stack.iter().rev() {
            let vi = v.0 as usize;
            // A var's stored clauses only mention vars that are either
            // still live (assigned or defaulted like any model read) or
            // eliminated *later* — already reconstructed by this reverse
            // walk. Default to the saved phase; flip only if some stored
            // clause is otherwise unsatisfied.
            let mut val = self.phase[vi];
            for clause in stored {
                let needs_v = !clause
                    .iter()
                    .any(|&l| l.var() != *v && self.recon_lit_true(l));
                if needs_v {
                    let polarity = clause
                        .iter()
                        .find(|l| l.var() == *v)
                        .expect("stored clause mentions its eliminated var")
                        .is_pos();
                    val = polarity;
                }
            }
            self.elim_values[vi] = val;
            debug_assert!(
                stored.iter().all(|clause| clause.iter().any(|&l| {
                    if l.var() == *v {
                        val == l.is_pos()
                    } else {
                        self.recon_lit_true(l)
                    }
                })),
                "reconstruction left a resolved-away clause unsatisfied"
            );
        }
        self.elim_stack = stack;
    }

    /// Truth of `l` during model reconstruction: live vars read the
    /// trail (unassigned defaults to `false`, the same default callers
    /// apply to partial models), already-reconstructed vars read
    /// `elim_values`.
    fn recon_lit_true(&self, l: Lit) -> bool {
        let vi = l.var().0 as usize;
        let val = if self.eliminated[vi] {
            self.elim_values[vi]
        } else {
            matches!(self.assigns[vi], Assign::True)
        };
        val == l.is_pos()
    }

    /// Runs bounded inprocessing at decision level 0: level-0 clause
    /// simplification, forward subsumption, self-subsuming resolution,
    /// bounded variable elimination (unless disabled), and — when the
    /// learnt database has outgrown its threshold — two-tier LBD-based
    /// reduction. Any active trail is retracted
    /// first, so call it *between* solves (the word-level solver does so
    /// between `check_assuming` calls). Satisfiability over the frozen
    /// variables, all future solve answers, and variable numbering are
    /// preserved; only clause indices are compacted.
    pub fn inprocess(&mut self) {
        if self.unsat {
            return;
        }
        self.backtrack(0);
        let reduce = self.num_learnts as u64 >= self.reduce_limit();
        self.maintain(reduce, true);
    }

    /// Level-0 maintenance: simplify, optionally reduce/subsume, then
    /// compact the clause database and rebuild the watch lists.
    fn maintain(&mut self, reduce: bool, subsume: bool) {
        debug_assert_eq!(self.decision_level(), 0);
        if self.unsat {
            return;
        }
        // Close the level-0 assignment first (valid watches required).
        if self.propagate().is_some() {
            self.unsat = true;
            return;
        }
        let mut deleted = vec![false; self.clauses.len()];
        if !self.simplify_pass(&mut deleted) {
            return;
        }
        if reduce {
            self.reduce_learnts(&mut deleted);
        }
        if subsume {
            self.subsume_pass(&mut deleted);
            // Strengthening can surface new units; re-simplify so no
            // surviving clause mentions an assigned variable.
            if self.unsat || !self.simplify_pass(&mut deleted) {
                return;
            }
            if self.bve {
                self.bve_pass(&mut deleted);
                // Unit resolvents assign vars; re-simplify so the
                // compaction precondition (no clause mentions an
                // assigned var) holds for the resolvents too.
                if self.unsat || !self.simplify_pass(&mut deleted) {
                    return;
                }
            }
        }
        self.compact(&deleted);
    }

    /// Bounded variable elimination (SatELite-style, NiVER-bounded):
    /// resolves an unfrozen, unassigned variable out of the database
    /// when the non-tautological resolvents of its positive × negative
    /// occurrences do not outnumber the clauses they replace. Learnt
    /// clauses mentioning the variable are simply deleted (they are
    /// consequences, never needed for equisatisfiability); the replaced
    /// *original* clauses go onto the elimination stack so
    /// `reconstruct_eliminated` can rebuild the var's model value on
    /// Sat. Work is capped by occurrence-count, resolvent-length, and
    /// literal-visit budgets so the pass stays a bounded pause.
    ///
    /// Resolvents deliberately do **not** bump `clauses_added`: that
    /// counter feeds the blast context's reuse accounting and the
    /// inprocessing cadence, both of which must not drift between
    /// `SOCCAR_BVE` on/off runs.
    fn bve_pass(&mut self, deleted: &mut Vec<bool>) {
        const BVE_MAX_OCC: usize = 10;
        const BVE_MAX_RESOLVENT: usize = 16;
        const BVE_BUDGET: u64 = 200_000;

        // Occurrence lists over the live clauses, maintained as
        // resolvents are appended so later candidates see them.
        let mut occ: Vec<Vec<u32>> = vec![Vec::new(); self.num_vars() * 2];
        for (ci, clause) in self.clauses.iter().enumerate() {
            if deleted[ci] {
                continue;
            }
            for &l in &clause.lits {
                occ[l.index()].push(ci as u32);
            }
        }
        let mut budget = BVE_BUDGET;
        for v in 0..self.num_vars() {
            if budget == 0 {
                break;
            }
            if self.frozen[v] || self.eliminated[v] || self.assigns[v] != Assign::Unset {
                continue;
            }
            let pos_lit = Lit::pos(Var(v as u32));
            let neg_lit = Lit::neg(Var(v as u32));
            let live = |list: &[u32], deleted: &[bool], clauses: &[Clause], learnt: bool| {
                list.iter()
                    .copied()
                    .filter(|&c| !deleted[c as usize] && clauses[c as usize].learnt == learnt)
                    .collect::<Vec<u32>>()
            };
            let pos_cls = live(&occ[pos_lit.index()], deleted, &self.clauses, false);
            let neg_cls = live(&occ[neg_lit.index()], deleted, &self.clauses, false);
            if pos_cls.len() > BVE_MAX_OCC || neg_cls.len() > BVE_MAX_OCC {
                continue;
            }
            // Build all non-tautological resolvents; abort the candidate
            // if any grows too long or the visit budget runs dry.
            let mut resolvents: Vec<Vec<Lit>> = Vec::new();
            let mut aborted = false;
            'outer: for &pi in &pos_cls {
                for &ni in &neg_cls {
                    let pc = &self.clauses[pi as usize].lits;
                    let nc = &self.clauses[ni as usize].lits;
                    let cost = (pc.len() + nc.len()) as u64;
                    if budget < cost {
                        budget = 0;
                        aborted = true;
                        break 'outer;
                    }
                    budget -= cost;
                    if let Some(r) = resolve_on(pc, nc, Var(v as u32)) {
                        if r.len() > BVE_MAX_RESOLVENT {
                            aborted = true;
                            break 'outer;
                        }
                        resolvents.push(r);
                    }
                }
            }
            // NiVER growth bound: never let elimination grow the database.
            if aborted || resolvents.len() > pos_cls.len() + neg_cls.len() {
                continue;
            }
            // Commit. Store the replaced originals for reconstruction,
            // drop every clause mentioning v (learnt ones outright), and
            // append the resolvents.
            let mut stored: Vec<Vec<Lit>> = Vec::with_capacity(pos_cls.len() + neg_cls.len());
            for &ci in pos_cls.iter().chain(neg_cls.iter()) {
                stored.push(self.clauses[ci as usize].lits.clone());
                self.unlink(ci as usize, deleted);
            }
            for lit in [pos_lit, neg_lit] {
                let learnt_with_v = live(&occ[lit.index()], deleted, &self.clauses, true);
                for ci in learnt_with_v {
                    self.unlink(ci as usize, deleted);
                }
            }
            self.eliminated[v] = true;
            self.occurs[v] = false;
            self.eliminated_vars += 1;
            self.elim_stack.push((Var(v as u32), stored));
            for r in resolvents {
                match r.len() {
                    0 => unreachable!("both parents of an empty resolvent would be units"),
                    1 => {
                        if !self.enqueue(r[0], None) {
                            self.unsat = true;
                            return;
                        }
                    }
                    _ => {
                        let idx = self.clauses.len() as u32;
                        for &l in &r {
                            occ[l.index()].push(idx);
                        }
                        deleted.push(false);
                        self.clauses.push(Clause {
                            lits: r,
                            learnt: false,
                            lbd: 0,
                        });
                    }
                }
            }
        }
    }

    fn unlink(&mut self, ci: usize, deleted: &mut [bool]) {
        if deleted[ci] {
            return;
        }
        deleted[ci] = true;
        if self.clauses[ci].learnt {
            self.num_learnts -= 1;
        }
    }

    /// Simplifies every clause against the (permanent) level-0
    /// assignment to fixpoint: satisfied clauses are dropped, false
    /// literals stripped, new units enqueued directly. Scanning every
    /// clause per pass is complete unit propagation, so the stale watch
    /// lists are never consulted. Returns `false` on a level-0 conflict
    /// (the solver is latched unsat).
    fn simplify_pass(&mut self, deleted: &mut [bool]) -> bool {
        loop {
            let trail_before = self.trail.len();
            for ci in 0..self.clauses.len() {
                if deleted[ci] {
                    continue;
                }
                let mut satisfied = false;
                let mut has_false = false;
                for &l in &self.clauses[ci].lits {
                    match self.value_lit(l) {
                        Some(true) => {
                            satisfied = true;
                            break;
                        }
                        Some(false) => has_false = true,
                        None => {}
                    }
                }
                if satisfied {
                    self.unlink(ci, deleted);
                    continue;
                }
                if !has_false {
                    continue;
                }
                let mut lits = std::mem::take(&mut self.clauses[ci].lits);
                lits.retain(|&l| self.value_lit(l) != Some(false));
                match lits.len() {
                    0 => {
                        self.unsat = true;
                        return false;
                    }
                    1 => {
                        let unit = lits[0];
                        self.clauses[ci].lits = lits;
                        self.unlink(ci, deleted);
                        if !self.enqueue(unit, None) {
                            self.unsat = true;
                            return false;
                        }
                    }
                    _ => self.clauses[ci].lits = lits,
                }
            }
            if self.trail.len() == trail_before {
                return true;
            }
        }
    }

    /// Two-tier learnt reduction: glue clauses (LBD ≤ 2) are permanent;
    /// of the rest, the worse half (highest LBD first, oldest first
    /// among equals) is deleted.
    fn reduce_learnts(&mut self, deleted: &mut [bool]) {
        let mut cands: Vec<usize> = (0..self.clauses.len())
            .filter(|&i| !deleted[i] && self.clauses[i].learnt && self.clauses[i].lbd > 2)
            .collect();
        cands.sort_by(|&a, &b| {
            self.clauses[b]
                .lbd
                .cmp(&self.clauses[a].lbd)
                .then(a.cmp(&b))
        });
        let drop_n = cands.len() / 2;
        for &ci in &cands[..drop_n] {
            self.unlink(ci, deleted);
            self.learnt_deleted += 1;
        }
        self.learnt_kept += self.num_learnts as u64;
        let lim = self.reduce_limit();
        self.reduce_threshold = lim + lim / 2;
    }

    /// Bounded forward subsumption and self-subsuming resolution over
    /// the live clauses. Work is capped by a literal-comparison budget
    /// so inprocessing stays a bounded pause, never a second search.
    fn subsume_pass(&mut self, deleted: &mut [bool]) {
        const MAX_CLAUSE_LEN: usize = 16;
        const CHECK_BUDGET: u64 = 200_000;
        let n = self.clauses.len();
        let mut sigs: Vec<u64> = self.clauses.iter().map(|c| clause_sig(&c.lits)).collect();
        let mut occ: Vec<Vec<u32>> = vec![Vec::new(); self.num_vars() * 2];
        for (ci, dead) in deleted.iter().enumerate().take(n) {
            if *dead || self.clauses[ci].lits.len() > MAX_CLAUSE_LEN {
                continue;
            }
            for &l in &self.clauses[ci].lits {
                occ[l.index()].push(ci as u32);
            }
        }
        let mut order: Vec<usize> = (0..n)
            .filter(|&i| !deleted[i] && self.clauses[i].lits.len() <= MAX_CLAUSE_LEN)
            .collect();
        order.sort_by_key(|&i| (self.clauses[i].lits.len(), i));
        let mut budget = CHECK_BUDGET;
        for ci in order {
            if deleted[ci] {
                continue;
            }
            if budget == 0 {
                break;
            }
            let lits = self.clauses[ci].lits.clone();
            let Some(&pivot) = lits.iter().min_by_key(|l| occ[l.index()].len()) else {
                continue;
            };
            // Forward subsumption: ci ⊆ cj deletes cj. Candidates are
            // found through ci's rarest literal.
            for &cand in &occ[pivot.index()] {
                let cj = cand as usize;
                if cj == ci || deleted[cj] || self.clauses[cj].lits.len() < lits.len() {
                    continue;
                }
                budget = budget.saturating_sub(lits.len() as u64);
                if budget == 0 {
                    break;
                }
                if sigs[ci] & !sigs[cj] != 0 {
                    continue;
                }
                if is_subset(&lits, &self.clauses[cj].lits) {
                    self.unlink(cj, deleted);
                    self.subsumed += 1;
                }
            }
            // Self-subsuming resolution: if (ci \ {l}) ∪ {¬l} ⊆ cj,
            // resolving on l shows cj can drop ¬l.
            for &l in &lits {
                if budget == 0 {
                    break;
                }
                for &cand in &occ[l.negate().index()] {
                    let cj = cand as usize;
                    if cj == ci || deleted[cj] || self.clauses[cj].lits.len() < lits.len() {
                        continue;
                    }
                    budget = budget.saturating_sub(lits.len() as u64);
                    if budget == 0 {
                        break;
                    }
                    if sigs[ci] & !sigs[cj] != 0 {
                        continue;
                    }
                    if subsumes_with_flip(&lits, l, &self.clauses[cj].lits) {
                        let neg = l.negate();
                        self.clauses[cj].lits.retain(|&x| x != neg);
                        sigs[cj] = clause_sig(&self.clauses[cj].lits);
                        self.subsumed += 1;
                        if self.clauses[cj].lits.len() == 1 {
                            let unit = self.clauses[cj].lits[0];
                            self.unlink(cj, deleted);
                            if !self.enqueue(unit, None) {
                                self.unsat = true;
                                return;
                            }
                        }
                    }
                }
            }
        }
    }

    /// Drops deleted clauses and rebuilds the watch lists from scratch.
    /// Precondition (established by `simplify_pass`): no surviving
    /// clause mentions an assigned variable, so watching the first two
    /// literals is sound. Level-0 reasons are cleared — conflict
    /// analysis only dereferences reasons above level 0, so no dangling
    /// clause index survives the compaction.
    fn compact(&mut self, deleted: &[bool]) {
        debug_assert_eq!(self.decision_level(), 0);
        let old = std::mem::take(&mut self.clauses);
        for w in &mut self.watches {
            w.clear();
        }
        for (i, c) in old.into_iter().enumerate() {
            if deleted[i] {
                continue;
            }
            debug_assert!(c.lits.len() >= 2, "unit/empty clause survived simplify");
            let idx = self.clauses.len() as u32;
            self.watches[c.lits[0].negate().index()].push(idx);
            self.watches[c.lits[1].negate().index()].push(idx);
            self.clauses.push(c);
        }
        for i in 0..self.trail.len() {
            let v = self.trail[i].var().0 as usize;
            self.reasons[v] = None;
        }
    }
}

fn clause_sig(lits: &[Lit]) -> u64 {
    lits.iter().fold(0u64, |s, l| s | 1u64 << (l.var().0 % 64))
}

/// The resolvent of `pc` (containing `v` positively) and `nc`
/// (containing `v` negatively) on `v`, or `None` if it is a tautology.
/// The result is sorted and deduplicated.
fn resolve_on(pc: &[Lit], nc: &[Lit], v: Var) -> Option<Vec<Lit>> {
    let mut r: Vec<Lit> = pc
        .iter()
        .chain(nc.iter())
        .copied()
        .filter(|l| l.var() != v)
        .collect();
    r.sort_unstable();
    r.dedup();
    if r.windows(2).any(|w| w[0].var() == w[1].var()) {
        return None; // x ∨ ¬x: tautology
    }
    Some(r)
}

fn is_subset(small: &[Lit], big: &[Lit]) -> bool {
    small.iter().all(|l| big.contains(l))
}

/// `true` if `small` with `flip` negated is a subset of `big` — the
/// self-subsuming-resolution condition.
fn subsumes_with_flip(small: &[Lit], flip: Lit, big: &[Lit]) -> bool {
    small.iter().all(|&l| {
        if l == flip {
            big.contains(&l.negate())
        } else {
            big.contains(&l)
        }
    })
}

/// The Luby restart sequence: 1,1,2,1,1,2,4,1,1,2,1,1,2,4,8,...
fn luby(mut i: u64) -> u64 {
    loop {
        // Find k with 2^k - 1 >= i.
        let mut k = 1u32;
        while (1u64 << k) - 1 < i {
            k += 1;
        }
        if (1u64 << k) - 1 == i {
            return 1u64 << (k - 1);
        }
        i -= (1u64 << (k - 1)) - 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn luby_sequence() {
        let seq: Vec<u64> = (1..=15).map(luby).collect();
        assert_eq!(seq, vec![1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8]);
    }

    #[test]
    fn trivially_sat_and_unsat() {
        let mut s = SatSolver::new();
        let a = s.new_var();
        s.add_clause(&[Lit::pos(a)]);
        assert_eq!(s.solve(), SatOutcome::Sat);
        assert_eq!(s.value(a), Some(true));

        let mut s = SatSolver::new();
        let a = s.new_var();
        s.add_clause(&[Lit::pos(a)]);
        s.add_clause(&[Lit::neg(a)]);
        assert_eq!(s.solve(), SatOutcome::Unsat);
    }

    #[test]
    fn empty_clause_unsat() {
        let mut s = SatSolver::new();
        s.new_var();
        s.add_clause(&[]);
        assert_eq!(s.solve(), SatOutcome::Unsat);
    }

    #[test]
    fn tautologies_ignored() {
        let mut s = SatSolver::new();
        let a = s.new_var();
        s.add_clause(&[Lit::pos(a), Lit::neg(a)]);
        assert_eq!(s.solve(), SatOutcome::Sat);
    }

    #[test]
    fn chain_propagation() {
        // a ∧ (¬a∨b) ∧ (¬b∨c) ∧ (¬c∨d) forces all true.
        let mut s = SatSolver::new();
        let vs: Vec<Var> = (0..4).map(|_| s.new_var()).collect();
        s.add_clause(&[Lit::pos(vs[0])]);
        for w in vs.windows(2) {
            s.add_clause(&[Lit::neg(w[0]), Lit::pos(w[1])]);
        }
        assert_eq!(s.solve(), SatOutcome::Sat);
        for v in vs {
            assert_eq!(s.value(v), Some(true));
        }
    }

    #[test]
    fn pigeonhole_3_into_2_unsat() {
        // 3 pigeons, 2 holes: classic small UNSAT requiring real search.
        let mut s = SatSolver::new();
        let mut p = [[Var(0); 2]; 3];
        for row in &mut p {
            for cell in row.iter_mut() {
                *cell = s.new_var();
            }
        }
        for row in &p {
            s.add_clause(&[Lit::pos(row[0]), Lit::pos(row[1])]);
        }
        #[allow(clippy::needless_range_loop)]
        for hole in 0..2 {
            for i in 0..3 {
                for j in (i + 1)..3 {
                    s.add_clause(&[Lit::neg(p[i][hole]), Lit::neg(p[j][hole])]);
                }
            }
        }
        assert_eq!(s.solve(), SatOutcome::Unsat);
    }

    #[test]
    fn xor_chain_sat_with_model() {
        // (a⊕b)=1, (b⊕c)=1, a=1 → b=0, c=1.
        let mut s = SatSolver::new();
        let a = s.new_var();
        let b = s.new_var();
        let c = s.new_var();
        let xor = |s: &mut SatSolver, x: Var, y: Var| {
            s.add_clause(&[Lit::pos(x), Lit::pos(y)]);
            s.add_clause(&[Lit::neg(x), Lit::neg(y)]);
        };
        xor(&mut s, a, b);
        xor(&mut s, b, c);
        s.add_clause(&[Lit::pos(a)]);
        assert_eq!(s.solve(), SatOutcome::Sat);
        assert_eq!(s.value(a), Some(true));
        assert_eq!(s.value(b), Some(false));
        assert_eq!(s.value(c), Some(true));
    }

    fn pigeonhole(pigeons: usize, holes: usize) -> SatSolver {
        let mut s = SatSolver::new();
        let vars: Vec<Vec<Var>> = (0..pigeons)
            .map(|_| (0..holes).map(|_| s.new_var()).collect())
            .collect();
        for row in &vars {
            let lits: Vec<Lit> = row.iter().map(|v| Lit::pos(*v)).collect();
            s.add_clause(&lits);
        }
        for (i, row_i) in vars.iter().enumerate() {
            for row_j in &vars[i + 1..] {
                for (vi, vj) in row_i.iter().zip(row_j) {
                    s.add_clause(&[Lit::neg(*vi), Lit::neg(*vj)]);
                }
            }
        }
        s
    }

    #[test]
    fn conflict_budget_yields_unknown_on_hard_unsat() {
        let mut s = pigeonhole(6, 5);
        assert_eq!(
            s.solve_budgeted(SolveBudget::conflicts(1)),
            SatOutcome::Unknown
        );
        assert!(s.conflicts() >= 1);
        // Resuming with no budget still reaches the right answer — the
        // interrupted search kept its learnt clauses.
        assert_eq!(s.solve(), SatOutcome::Unsat);
    }

    #[test]
    fn decision_budget_yields_unknown() {
        let mut s = pigeonhole(6, 5);
        let budget = SolveBudget {
            max_conflicts: None,
            max_decisions: Some(1),
        };
        assert_eq!(s.solve_budgeted(budget), SatOutcome::Unknown);
        assert_eq!(s.decisions(), 1);
    }

    #[test]
    fn generous_budget_agrees_with_unbudgeted() {
        let mut a = pigeonhole(4, 3);
        let mut b = pigeonhole(4, 3);
        let budget = SolveBudget {
            max_conflicts: Some(1_000_000),
            max_decisions: Some(1_000_000),
        };
        assert_eq!(a.solve_budgeted(budget), b.solve());
        assert!(SolveBudget::default().is_unlimited());
        assert!(!SolveBudget::conflicts(5).is_unlimited());
    }

    #[test]
    fn assumptions_flip_between_calls() {
        // (a ∨ b) with assumption ¬a forces b; assumption ¬b forces a.
        let mut s = SatSolver::new();
        let a = s.new_var();
        let b = s.new_var();
        s.add_clause(&[Lit::pos(a), Lit::pos(b)]);
        assert_eq!(
            s.solve_assuming(&[Lit::neg(a)], SolveBudget::UNLIMITED),
            SatOutcome::Sat
        );
        assert_eq!(s.value(b), Some(true));
        assert_eq!(
            s.solve_assuming(&[Lit::neg(b)], SolveBudget::UNLIMITED),
            SatOutcome::Sat
        );
        assert_eq!(s.value(a), Some(true));
    }

    #[test]
    fn unsat_under_assumptions_is_retractable() {
        let mut s = SatSolver::new();
        let a = s.new_var();
        let b = s.new_var();
        s.add_clause(&[Lit::pos(a), Lit::pos(b)]);
        // ¬a ∧ ¬b contradicts the clause — but only under assumptions.
        assert_eq!(
            s.solve_assuming(&[Lit::neg(a), Lit::neg(b)], SolveBudget::UNLIMITED),
            SatOutcome::Unsat
        );
        // The instance itself is still satisfiable.
        assert_eq!(s.solve(), SatOutcome::Sat);
        assert_eq!(
            s.solve_assuming(&[Lit::pos(a)], SolveBudget::UNLIMITED),
            SatOutcome::Sat
        );
    }

    #[test]
    fn contradictory_assumptions_unsat_without_poisoning() {
        let mut s = SatSolver::new();
        let a = s.new_var();
        assert_eq!(
            s.solve_assuming(&[Lit::pos(a), Lit::neg(a)], SolveBudget::UNLIMITED),
            SatOutcome::Unsat
        );
        assert_eq!(s.solve(), SatOutcome::Sat);
    }

    #[test]
    fn permanent_unsat_survives_assumption_calls() {
        let mut s = SatSolver::new();
        let a = s.new_var();
        let b = s.new_var();
        s.add_clause(&[Lit::pos(a)]);
        s.add_clause(&[Lit::neg(a)]);
        assert_eq!(
            s.solve_assuming(&[Lit::pos(b)], SolveBudget::UNLIMITED),
            SatOutcome::Unsat
        );
        // A level-0 conflict is permanent: every later call stays Unsat.
        assert_eq!(
            s.solve_assuming(&[], SolveBudget::UNLIMITED),
            SatOutcome::Unsat
        );
        assert_eq!(s.solve(), SatOutcome::Unsat);
    }

    #[test]
    fn assumption_budget_unknown_then_resume() {
        let mut s = pigeonhole(6, 5);
        let extra = s.new_var();
        assert_eq!(
            s.solve_assuming(&[Lit::pos(extra)], SolveBudget::conflicts(1)),
            SatOutcome::Unknown
        );
        let learnt_after_budget = s.num_clauses();
        // Re-solving under the same assumptions resumes with the learnt
        // clauses intact and reaches the definite answer.
        assert_eq!(
            s.solve_assuming(&[Lit::pos(extra)], SolveBudget::UNLIMITED),
            SatOutcome::Unsat
        );
        assert!(s.num_clauses() >= learnt_after_budget);
    }

    #[test]
    fn units_added_after_a_sat_assumption_call_stick() {
        // add_clause used to enqueue new units on the previous call's
        // stale Sat trail; solve_assuming's entry backtrack then dropped
        // them (or, if the trail falsified the unit, the instance was
        // wrongly latched permanently unsat).
        let mut s = SatSolver::new();
        let a = s.new_var();
        let b = s.new_var();
        s.add_clause(&[Lit::pos(a), Lit::pos(b)]);
        assert_eq!(
            s.solve_assuming(&[Lit::pos(a)], SolveBudget::UNLIMITED),
            SatOutcome::Sat
        );
        // The stale trail has a = true, which falsifies this new unit.
        s.add_clause(&[Lit::neg(a)]);
        assert_eq!(
            s.solve_assuming(&[], SolveBudget::UNLIMITED),
            SatOutcome::Sat
        );
        assert_eq!(s.value(a), Some(false));
        assert_eq!(s.value(b), Some(true));
        // And the unit is a real hard clause, not a lost enqueue.
        assert_eq!(
            s.solve_assuming(&[Lit::pos(a)], SolveBudget::UNLIMITED),
            SatOutcome::Unsat
        );
    }

    #[test]
    fn pending_level0_units_propagate_at_assumption_solve_entry() {
        // The entry backtrack(0) of solve_assuming must not advance the
        // propagation head past units that add_clause enqueued at level 0
        // but nothing has propagated yet — skipping them here leaves the
        // binary clause below with both watches false and unscanned,
        // turning this Unsat instance into a wrong Sat.
        let mut s = SatSolver::new();
        let a = s.new_var();
        let b = s.new_var();
        s.add_clause(&[Lit::neg(a), Lit::neg(b)]);
        s.add_clause(&[Lit::pos(a)]);
        s.add_clause(&[Lit::pos(b)]);
        assert_eq!(
            s.solve_assuming(&[], SolveBudget::UNLIMITED),
            SatOutcome::Unsat
        );
    }

    #[test]
    fn models_are_partial_over_nonoccurring_vars() {
        let mut s = SatSolver::new();
        let a = s.new_var();
        let lonely = s.new_var();
        s.add_clause(&[Lit::pos(a)]);
        assert_eq!(s.solve(), SatOutcome::Sat);
        assert_eq!(s.value(a), Some(true));
        // `lonely` occurs in no clause: never branched on, stays unset.
        assert_eq!(s.value(lonely), None);
    }

    #[test]
    fn assumptions_agree_with_hard_units() {
        // Random instances: solve_assuming(lits) must agree with a fresh
        // solver where the same lits are added as unit clauses.
        let mut seed = 0x9E3779B97F4A7C15u64;
        let mut rng = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for round in 0..30 {
            let n_vars = 4 + (rng() % 7) as usize;
            let n_clauses = 2 + (rng() % (3 * n_vars as u64)) as usize;
            let mut clauses = Vec::new();
            for _ in 0..n_clauses {
                let c: Vec<Lit> = (0..3)
                    .map(|_| Lit::new(Var((rng() % n_vars as u64) as u32), rng() % 2 == 0))
                    .collect();
                clauses.push(c);
            }
            let mut inc = SatSolver::new();
            for _ in 0..n_vars {
                inc.new_var();
            }
            for c in &clauses {
                inc.add_clause(c);
            }
            // Three assumption sets against the SAME incremental solver.
            for set in 0..3 {
                let n_assumps = (rng() % (n_vars as u64).min(3)) as usize;
                let assumps: Vec<Lit> = (0..n_assumps)
                    .map(|_| Lit::new(Var((rng() % n_vars as u64) as u32), rng() % 2 == 0))
                    .collect();
                let mut fresh = SatSolver::new();
                for _ in 0..n_vars {
                    fresh.new_var();
                }
                for c in &clauses {
                    fresh.add_clause(c);
                }
                for a in &assumps {
                    fresh.add_clause(&[*a]);
                }
                let want = fresh.solve();
                let got = inc.solve_assuming(&assumps, SolveBudget::UNLIMITED);
                assert_eq!(got, want, "round {round} set {set} disagreed");
                if got == SatOutcome::Sat {
                    for c in &clauses {
                        assert!(
                            c.iter().any(|l| inc.value(l.var()) == Some(l.is_pos())),
                            "model violates clause in round {round}"
                        );
                    }
                    for a in &assumps {
                        assert_eq!(inc.value_lit(*a), Some(true), "assumption not honored");
                    }
                }
            }
        }
    }

    #[test]
    fn profiles_agree_on_answers() {
        // Diverse profiles steer the search, never the answer.
        let profiles = [
            SolverProfile::default(),
            SolverProfile {
                seed: 0x9E37_79B9,
                invert_phase: true,
                restart_base: 3,
                reduce_base: 8,
            },
            SolverProfile {
                seed: 0xD1B5_4A32,
                invert_phase: false,
                restart_base: 7,
                reduce_base: 16,
            },
        ];
        let mut seed = 0xDEAD_BEEF_u64;
        let mut rng = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for round in 0..25 {
            let n_vars = 4 + (rng() % 8) as usize;
            let n_clauses = 2 + (rng() % (4 * n_vars as u64)) as usize;
            let clauses: Vec<Vec<Lit>> = (0..n_clauses)
                .map(|_| {
                    (0..3)
                        .map(|_| Lit::new(Var((rng() % n_vars as u64) as u32), rng() % 2 == 0))
                        .collect()
                })
                .collect();
            let mut want = None;
            for p in profiles {
                let mut s = SatSolver::new();
                s.set_profile(p);
                for _ in 0..n_vars {
                    s.new_var();
                }
                for c in &clauses {
                    s.add_clause(c);
                }
                let got = s.solve();
                if got == SatOutcome::Sat {
                    for c in &clauses {
                        assert!(
                            c.iter().any(|l| s.value(l.var()) == Some(l.is_pos())),
                            "model violates clause in round {round} under {p:?}"
                        );
                    }
                }
                match &want {
                    None => want = Some(got),
                    Some(w) => assert_eq!(&got, w, "round {round}: {p:?} disagreed"),
                }
            }
        }
    }

    #[test]
    fn aggressive_reduction_keeps_correctness() {
        // A tiny reduce_base + restart_base forces restarts and learnt-DB
        // reductions mid-search on a hard UNSAT instance.
        let mut s = pigeonhole(6, 5);
        s.set_profile(SolverProfile {
            seed: 0,
            invert_phase: false,
            restart_base: 2,
            reduce_base: 8,
        });
        assert_eq!(s.solve(), SatOutcome::Unsat);
        assert!(s.restarts() > 0, "expected restarts under base 2");
        assert!(s.learnt_deleted() > 0, "expected learnt-DB reductions");
        assert!(s.clauses_added() >= s.num_clauses() as u64);
    }

    #[test]
    fn reduction_during_assumption_solving_is_sound() {
        // Same forcing profile, but through the retractable-assumption
        // path: answers must match a fresh untouched solver.
        let mut s = pigeonhole(6, 5);
        let extra = s.new_var();
        s.set_profile(SolverProfile {
            seed: 0,
            invert_phase: false,
            restart_base: 2,
            reduce_base: 8,
        });
        assert_eq!(
            s.solve_assuming(&[Lit::pos(extra)], SolveBudget::UNLIMITED),
            SatOutcome::Unsat
        );
        assert_eq!(
            s.solve_assuming(&[], SolveBudget::UNLIMITED),
            SatOutcome::Unsat
        );
    }

    #[test]
    fn subsumption_removes_redundant_clauses() {
        let mut s = SatSolver::new();
        let a = s.new_var();
        let b = s.new_var();
        let c = s.new_var();
        s.add_clause(&[Lit::pos(a), Lit::pos(b)]);
        s.add_clause(&[Lit::pos(a), Lit::pos(b), Lit::pos(c)]);
        let before = s.num_clauses();
        s.inprocess();
        assert!(
            s.subsumed() >= 1,
            "the 3-clause is subsumed by the 2-clause"
        );
        assert!(s.num_clauses() < before);
        assert_eq!(s.solve(), SatOutcome::Sat);
        // clauses_added is a high-water mark: deletion never lowers it.
        assert_eq!(s.clauses_added(), before as u64);
    }

    #[test]
    fn self_subsuming_resolution_strengthens_to_unit() {
        // (a ∨ b) and (¬a ∨ b): resolving on a strengthens the second
        // clause to the unit b.
        let mut s = SatSolver::new();
        let a = s.new_var();
        let b = s.new_var();
        s.add_clause(&[Lit::pos(a), Lit::pos(b)]);
        s.add_clause(&[Lit::neg(a), Lit::pos(b)]);
        s.inprocess();
        assert!(s.subsumed() >= 1);
        assert_eq!(s.solve(), SatOutcome::Sat);
        assert_eq!(s.value(b), Some(true));
    }

    #[test]
    fn inprocess_between_assumption_calls_preserves_answers() {
        let mut seed = 0x1234_5678_9ABC_DEF0_u64;
        let mut rng = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for round in 0..20 {
            let n_vars = 4 + (rng() % 7) as usize;
            let n_clauses = 2 + (rng() % (3 * n_vars as u64)) as usize;
            let clauses: Vec<Vec<Lit>> = (0..n_clauses)
                .map(|_| {
                    (0..3)
                        .map(|_| Lit::new(Var((rng() % n_vars as u64) as u32), rng() % 2 == 0))
                        .collect()
                })
                .collect();
            let mut inc = SatSolver::new();
            for _ in 0..n_vars {
                let v = inc.new_var();
                // Assumptions below land on arbitrary vars, so all vars
                // must be frozen against BVE (the freeze contract);
                // bve_agrees_with_unsimplified covers the unfrozen case.
                inc.freeze_var(v);
            }
            for c in &clauses {
                inc.add_clause(c);
            }
            for set in 0..3 {
                // Inprocess between every call: answers must still match
                // a fresh solver with the assumptions as hard units.
                inc.inprocess();
                let n_assumps = (rng() % (n_vars as u64).min(3)) as usize;
                let assumps: Vec<Lit> = (0..n_assumps)
                    .map(|_| Lit::new(Var((rng() % n_vars as u64) as u32), rng() % 2 == 0))
                    .collect();
                let mut fresh = SatSolver::new();
                for _ in 0..n_vars {
                    fresh.new_var();
                }
                for c in &clauses {
                    fresh.add_clause(c);
                }
                for a in &assumps {
                    fresh.add_clause(&[*a]);
                }
                let want = fresh.solve();
                let got = inc.solve_assuming(&assumps, SolveBudget::UNLIMITED);
                assert_eq!(got, want, "round {round} set {set} disagreed");
            }
        }
    }

    #[test]
    fn bve_eliminates_internal_var_and_reconstructs_model() {
        // x is internal (unfrozen): (a ∨ x) ∧ (¬x ∨ b) resolves to
        // (a ∨ b), so x is eliminated with zero growth.
        let mut s = SatSolver::new();
        let a = s.new_var();
        let x = s.new_var();
        let b = s.new_var();
        s.freeze_var(a);
        s.freeze_var(b);
        s.set_bve(true);
        s.add_clause(&[Lit::pos(a), Lit::pos(x)]);
        s.add_clause(&[Lit::neg(x), Lit::pos(b)]);
        s.inprocess();
        assert_eq!(s.eliminated_vars(), 1);
        assert_eq!(s.solve(), SatOutcome::Sat);
        // The reconstructed model must satisfy the *original* clauses.
        let av = s.value(a).unwrap_or(false);
        let xv = s
            .value(x)
            .expect("eliminated var has a reconstructed value");
        let bv = s.value(b).unwrap_or(false);
        assert!(av || xv, "model violates (a ∨ x)");
        assert!(!xv || bv, "model violates (¬x ∨ b)");
        // The resolvent still constrains the frozen vars: ¬a ∧ ¬b is
        // unsat exactly as in the unsimplified formula.
        assert_eq!(
            s.solve_assuming(&[Lit::neg(a), Lit::neg(b)], SolveBudget::UNLIMITED),
            SatOutcome::Unsat
        );
    }

    #[test]
    fn bve_agrees_with_unsimplified() {
        // Random instances with a frozen interface half and an unfrozen
        // internal half: inprocessing (with BVE) between assumption
        // calls must preserve every answer, and Sat models must satisfy
        // every original clause — including via reconstructed values of
        // eliminated internal vars.
        let mut seed = 0xB7E1_5162_8AED_2A6B_u64;
        let mut rng = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        let mut total_eliminated = 0u64;
        for round in 0..30 {
            let n_frozen = 3 + (rng() % 4) as usize;
            let n_internal = 3 + (rng() % 4) as usize;
            let n_vars = n_frozen + n_internal;
            let n_clauses = 3 + (rng() % (3 * n_vars as u64)) as usize;
            let clauses: Vec<Vec<Lit>> = (0..n_clauses)
                .map(|_| {
                    (0..3)
                        .map(|_| Lit::new(Var((rng() % n_vars as u64) as u32), rng() % 2 == 0))
                        .collect()
                })
                .collect();
            let mut inc = SatSolver::new();
            inc.set_bve(true);
            for i in 0..n_vars {
                let v = inc.new_var();
                if i < n_frozen {
                    inc.freeze_var(v);
                }
            }
            for c in &clauses {
                inc.add_clause(c);
            }
            for set in 0..3 {
                inc.inprocess();
                total_eliminated += inc.eliminated_vars();
                // Assumptions only over the frozen interface.
                let n_assumps = (rng() % 3) as usize;
                let assumps: Vec<Lit> = (0..n_assumps)
                    .map(|_| Lit::new(Var((rng() % n_frozen as u64) as u32), rng() % 2 == 0))
                    .collect();
                let mut fresh = SatSolver::new();
                fresh.set_bve(false);
                for _ in 0..n_vars {
                    fresh.new_var();
                }
                for c in &clauses {
                    fresh.add_clause(c);
                }
                for a in &assumps {
                    fresh.add_clause(&[*a]);
                }
                let want = fresh.solve();
                let got = inc.solve_assuming(&assumps, SolveBudget::UNLIMITED);
                assert_eq!(got, want, "round {round} set {set} disagreed");
                if got == SatOutcome::Sat {
                    for c in &clauses {
                        assert!(
                            c.iter().any(|l| inc.value(l.var()) == Some(l.is_pos())),
                            "round {round} set {set}: model violates an original clause"
                        );
                    }
                }
            }
        }
        assert!(
            total_eliminated > 0,
            "the unfrozen internal half should yield at least one elimination"
        );
    }

    #[test]
    fn bve_budgeted_unknown_stays_sound() {
        // A budget-starved solve after BVE inprocessing must answer
        // Unknown (never a wrong definite) and resume to the right one.
        let mut s = pigeonhole(6, 5);
        s.set_bve(true);
        let extra = s.new_var();
        // Only the assumption var is frozen; the pigeonhole vars are
        // fair game for elimination, which must stay equisatisfiable.
        s.freeze_var(extra);
        s.inprocess();
        assert_eq!(
            s.solve_assuming(&[Lit::pos(extra)], SolveBudget::conflicts(1)),
            SatOutcome::Unknown
        );
        assert_eq!(
            s.solve_assuming(&[Lit::pos(extra)], SolveBudget::UNLIMITED),
            SatOutcome::Unsat
        );
    }

    #[test]
    fn trail_reuse_agrees_with_floor_backtracking() {
        // Two incremental solvers over the same instance, one with trail
        // reuse and one with classic full retraction, driven through
        // randomized assumption sequences with divergent prefixes: every
        // answer must agree, and Sat models must satisfy the formula and
        // the assumptions in both.
        let mut seed = 0x0DDB_1A5E_5BAD_5EED_u64;
        let mut rng = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for round in 0..25 {
            let n_vars = 5 + (rng() % 8) as usize;
            let n_clauses = 3 + (rng() % (3 * n_vars as u64)) as usize;
            let clauses: Vec<Vec<Lit>> = (0..n_clauses)
                .map(|_| {
                    (0..3)
                        .map(|_| Lit::new(Var((rng() % n_vars as u64) as u32), rng() % 2 == 0))
                        .collect()
                })
                .collect();
            let mut reusing = SatSolver::new();
            reusing.set_trail_reuse(true);
            let mut classic = SatSolver::new();
            classic.set_trail_reuse(false);
            for _ in 0..n_vars {
                reusing.new_var();
                classic.new_var();
            }
            for c in &clauses {
                reusing.add_clause(c);
                classic.add_clause(c);
            }
            // A shared prefix that mutates gradually: flip one position
            // per call so consecutive calls share long prefixes — the
            // production flip-loop shape.
            let mut prefix: Vec<Lit> = (0..4)
                .map(|i| Lit::new(Var(i % n_vars as u32), rng() % 2 == 0))
                .collect();
            for call in 0..8 {
                let slot = (rng() % prefix.len() as u64) as usize;
                prefix[slot] = Lit::new(Var((rng() % n_vars as u64) as u32), rng() % 2 == 0);
                let got = reusing.solve_assuming(&prefix, SolveBudget::UNLIMITED);
                let want = classic.solve_assuming(&prefix, SolveBudget::UNLIMITED);
                assert_eq!(got, want, "round {round} call {call} disagreed");
                if got == SatOutcome::Sat {
                    for (s, tag) in [(&reusing, "reusing"), (&classic, "classic")] {
                        for c in &clauses {
                            assert!(
                                c.iter().any(|l| s.value(l.var()) == Some(l.is_pos())),
                                "round {round} call {call}: {tag} model violates a clause"
                            );
                        }
                        for a in &prefix {
                            assert_eq!(
                                s.value(a.var()),
                                Some(a.is_pos()),
                                "round {round} call {call}: {tag} dropped an assumption"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn trail_reuse_skips_repropagation_on_shared_prefixes() {
        // An easily-implied chain: reusing the prefix must cut the
        // propagation count versus classic floor-backtracking.
        let n = 40usize;
        let build = || {
            let mut s = SatSolver::new();
            let vs: Vec<Var> = (0..n).map(|_| s.new_var()).collect();
            for w in vs.windows(2) {
                s.add_clause(&[Lit::neg(w[0]), Lit::pos(w[1])]);
            }
            (s, vs)
        };
        let (mut reusing, vs) = build();
        reusing.set_trail_reuse(true);
        let (mut classic, _) = build();
        classic.set_trail_reuse(false);
        // Same assumption prefix, different final literal per call.
        for k in 1..5 {
            let assumps = vec![Lit::pos(vs[0]), Lit::pos(vs[k])];
            assert_eq!(
                reusing.solve_assuming(&assumps, SolveBudget::UNLIMITED),
                SatOutcome::Sat
            );
            assert_eq!(
                classic.solve_assuming(&assumps, SolveBudget::UNLIMITED),
                SatOutcome::Sat
            );
        }
        assert!(
            reusing.trail_reused_lits() > 0,
            "shared prefixes should be reused"
        );
        assert!(
            reusing.propagations() < classic.propagations(),
            "reuse should re-propagate less: {} vs {}",
            reusing.propagations(),
            classic.propagations()
        );
    }

    #[test]
    fn random_3sat_brute_force_agreement() {
        // Deterministic pseudo-random instances cross-checked against
        // exhaustive enumeration (≤ 12 vars).
        let mut seed = 0x2545F491_4F6CDD1Du64;
        let mut rng = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for round in 0..40 {
            let n_vars = 4 + (rng() % 9) as usize; // 4..=12
            let n_clauses = 2 + (rng() % (3 * n_vars as u64 + 1)) as usize;
            let mut clauses = Vec::new();
            for _ in 0..n_clauses {
                let mut c = Vec::new();
                for _ in 0..3 {
                    let v = (rng() % n_vars as u64) as u32;
                    let pos = rng() % 2 == 0;
                    c.push(Lit::new(Var(v), pos));
                }
                clauses.push(c);
            }
            // Brute force.
            let mut brute_sat = false;
            'outer: for m in 0u64..(1 << n_vars) {
                for c in &clauses {
                    if !c.iter().any(|l| ((m >> l.var().0) & 1 == 1) == l.is_pos()) {
                        continue 'outer;
                    }
                }
                brute_sat = true;
                break;
            }
            // CDCL.
            let mut s = SatSolver::new();
            for _ in 0..n_vars {
                s.new_var();
            }
            for c in &clauses {
                s.add_clause(c);
            }
            let got = s.solve() == SatOutcome::Sat;
            assert_eq!(got, brute_sat, "round {round} disagreed");
            if got {
                // Verify the model satisfies every clause.
                for c in &clauses {
                    assert!(
                        c.iter().any(|l| s.value(l.var()) == Some(l.is_pos())),
                        "model violates clause in round {round}"
                    );
                }
            }
        }
    }
}
