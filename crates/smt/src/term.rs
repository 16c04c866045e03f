//! Hash-consed bit-vector term graph with constructor-time rewriting.
//!
//! Terms are immutable and structurally deduplicated: building the same
//! expression twice yields the same [`TermId`]. Constructors apply local
//! rewrite rules (constant folding, identity/annihilator elimination,
//! double negation, `x ⊕ x = 0`, `ite` collapsing, …) so the formulas the
//! concolic engine accumulates stay small before they ever reach the
//! bit-blaster. The corresponding ablation is measured by the paper-bench
//! `bench_solver`.

use std::collections::HashMap;
use std::fmt;

use crate::bv::BvVal;

/// Identifies a term in a [`TermGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TermId(pub u32);

/// Term node. Widths live in the graph, parallel to the nodes.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Term {
    /// Free variable (deduplicated by name).
    Var(String),
    /// Constant.
    Const(BvVal),
    /// Bitwise NOT.
    Not(TermId),
    /// Bitwise AND (equal widths).
    And(TermId, TermId),
    /// Bitwise OR (equal widths).
    Or(TermId, TermId),
    /// Bitwise XOR (equal widths).
    Xor(TermId, TermId),
    /// Two's-complement addition.
    Add(TermId, TermId),
    /// Two's-complement subtraction.
    Sub(TermId, TermId),
    /// Multiplication (low half).
    Mul(TermId, TermId),
    /// Unsigned division (fixed semantics: `x/0 = ones`).
    Udiv(TermId, TermId),
    /// Unsigned remainder (fixed semantics: `x%0 = x`).
    Urem(TermId, TermId),
    /// Logical shift left by a (possibly wider/narrower) amount.
    Shl(TermId, TermId),
    /// Logical shift right.
    Lshr(TermId, TermId),
    /// Arithmetic shift right.
    Ashr(TermId, TermId),
    /// Equality; 1-bit result.
    Eq(TermId, TermId),
    /// Unsigned less-than; 1-bit result.
    Ult(TermId, TermId),
    /// Unsigned less-or-equal; 1-bit result.
    Ule(TermId, TermId),
    /// If-then-else on a 1-bit condition.
    Ite(TermId, TermId, TermId),
    /// Concatenation; first operand is the high part.
    Concat(TermId, TermId),
    /// Bit range `[lo ..= hi]`.
    Extract {
        /// High bit (inclusive).
        hi: u32,
        /// Low bit (inclusive).
        lo: u32,
        /// Extracted term.
        arg: TermId,
    },
    /// Zero-extension to a wider width.
    ZExt {
        /// New width.
        width: u32,
        /// Extended term.
        arg: TermId,
    },
    /// Reduction AND; 1-bit result.
    RedAnd(TermId),
    /// Reduction OR; 1-bit result.
    RedOr(TermId),
    /// Reduction XOR; 1-bit result.
    RedXor(TermId),
}

/// The arena of hash-consed terms.
///
/// # Examples
///
/// ```
/// use soccar_smt::{BvVal, TermGraph};
///
/// let mut g = TermGraph::new();
/// let x = g.var("x", 8);
/// let zero = g.constant(BvVal::zeros(8));
/// // x + 0 rewrites to x at construction.
/// assert_eq!(g.add(x, zero), x);
/// ```
#[derive(Debug, Clone, Default)]
pub struct TermGraph {
    terms: Vec<Term>,
    widths: Vec<u32>,
    dedup: HashMap<Term, TermId>,
    vars: Vec<TermId>,
}

impl TermGraph {
    /// Creates an empty graph.
    #[must_use]
    pub fn new() -> TermGraph {
        TermGraph::default()
    }

    /// Number of nodes in the graph.
    #[must_use]
    pub fn len(&self) -> usize {
        self.terms.len()
    }

    /// `true` if no terms have been created.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }

    /// The node for `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not from this graph.
    #[must_use]
    pub fn term(&self, id: TermId) -> &Term {
        &self.terms[id.0 as usize]
    }

    /// The width of `id` in bits.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not from this graph.
    #[must_use]
    pub fn width(&self, id: TermId) -> u32 {
        self.widths[id.0 as usize]
    }

    /// All variable terms created so far, in creation order.
    #[must_use]
    pub fn vars(&self) -> &[TermId] {
        &self.vars
    }

    /// The constant value of `id`, if it is a constant node.
    #[must_use]
    pub fn as_const(&self, id: TermId) -> Option<&BvVal> {
        match self.term(id) {
            Term::Const(c) => Some(c),
            _ => None,
        }
    }

    fn intern(&mut self, t: Term, width: u32) -> TermId {
        if let Some(id) = self.dedup.get(&t) {
            return *id;
        }
        let id = TermId(self.terms.len() as u32);
        self.dedup.insert(t.clone(), id);
        if matches!(t, Term::Var(_)) {
            self.vars.push(id);
        }
        self.terms.push(t);
        self.widths.push(width);
        id
    }

    /// Creates (or retrieves) a variable.
    ///
    /// # Panics
    ///
    /// Panics if the same name was previously created with a different
    /// width, or `width` is zero.
    pub fn var(&mut self, name: impl Into<String>, width: u32) -> TermId {
        assert!(width > 0, "zero-width variable");
        let t = Term::Var(name.into());
        if let Some(id) = self.dedup.get(&t) {
            assert_eq!(
                self.widths[id.0 as usize], width,
                "variable recreated with different width"
            );
            return *id;
        }
        self.intern(t, width)
    }

    /// Creates a constant term.
    pub fn constant(&mut self, v: BvVal) -> TermId {
        let w = v.width();
        self.intern(Term::Const(v), w)
    }

    /// Shorthand: `width`-bit constant from a `u64`.
    pub fn const_u64(&mut self, width: u32, x: u64) -> TermId {
        self.constant(BvVal::from_u64(width, x))
    }

    /// The 1-bit constant `1`.
    pub fn tru(&mut self) -> TermId {
        self.const_u64(1, 1)
    }

    /// The 1-bit constant `0`.
    pub fn fls(&mut self) -> TermId {
        self.const_u64(1, 0)
    }

    /// Bitwise NOT.
    pub fn not(&mut self, a: TermId) -> TermId {
        let w = self.width(a);
        if let Some(c) = self.as_const(a) {
            let v = c.not();
            return self.constant(v);
        }
        if let Term::Not(inner) = *self.term(a) {
            return inner;
        }
        self.intern(Term::Not(a), w)
    }

    /// Bitwise AND.
    ///
    /// # Panics
    ///
    /// Panics if widths differ.
    pub fn and(&mut self, a: TermId, b: TermId) -> TermId {
        let w = self.binop_width(a, b);
        if a == b {
            return a;
        }
        let (a, b) = sort_pair(a, b);
        if let (Some(x), Some(y)) = (self.as_const(a), self.as_const(b)) {
            let v = x.and(y);
            return self.constant(v);
        }
        if let Some(c) = self.as_const(a).or_else(|| self.as_const(b)) {
            let (c, other) = if self.as_const(a).is_some() {
                (c.clone(), b)
            } else {
                (c.clone(), a)
            };
            if c.is_zero() {
                return self.constant(BvVal::zeros(w));
            }
            if c == BvVal::ones(w) {
                return other;
            }
        }
        self.intern(Term::And(a, b), w)
    }

    /// Bitwise OR.
    ///
    /// # Panics
    ///
    /// Panics if widths differ.
    pub fn or(&mut self, a: TermId, b: TermId) -> TermId {
        let w = self.binop_width(a, b);
        if a == b {
            return a;
        }
        let (a, b) = sort_pair(a, b);
        if let (Some(x), Some(y)) = (self.as_const(a), self.as_const(b)) {
            let v = x.or(y);
            return self.constant(v);
        }
        if let Some(c) = self.as_const(a).or_else(|| self.as_const(b)) {
            let (c, other) = if self.as_const(a).is_some() {
                (c.clone(), b)
            } else {
                (c.clone(), a)
            };
            if c.is_zero() {
                return other;
            }
            if c == BvVal::ones(w) {
                return self.constant(BvVal::ones(w));
            }
        }
        self.intern(Term::Or(a, b), w)
    }

    /// Bitwise XOR.
    ///
    /// # Panics
    ///
    /// Panics if widths differ.
    pub fn xor(&mut self, a: TermId, b: TermId) -> TermId {
        let w = self.binop_width(a, b);
        if a == b {
            return self.constant(BvVal::zeros(w));
        }
        let (a, b) = sort_pair(a, b);
        if let (Some(x), Some(y)) = (self.as_const(a), self.as_const(b)) {
            let v = x.xor(y);
            return self.constant(v);
        }
        if let Some(c) = self.as_const(a).or_else(|| self.as_const(b)) {
            let (c, other) = if self.as_const(a).is_some() {
                (c.clone(), b)
            } else {
                (c.clone(), a)
            };
            if c.is_zero() {
                return other;
            }
            if c == BvVal::ones(w) {
                return self.not(other);
            }
        }
        self.intern(Term::Xor(a, b), w)
    }

    /// Addition.
    ///
    /// # Panics
    ///
    /// Panics if widths differ.
    pub fn add(&mut self, a: TermId, b: TermId) -> TermId {
        let w = self.binop_width(a, b);
        let (a, b) = sort_pair(a, b);
        if let (Some(x), Some(y)) = (self.as_const(a), self.as_const(b)) {
            let v = x.add(y);
            return self.constant(v);
        }
        if self.as_const(a).is_some_and(BvVal::is_zero) {
            return b;
        }
        if self.as_const(b).is_some_and(BvVal::is_zero) {
            return a;
        }
        let _ = w;
        self.intern(Term::Add(a, b), w)
    }

    /// Subtraction.
    ///
    /// # Panics
    ///
    /// Panics if widths differ.
    pub fn sub(&mut self, a: TermId, b: TermId) -> TermId {
        let w = self.binop_width(a, b);
        if a == b {
            return self.constant(BvVal::zeros(w));
        }
        if let (Some(x), Some(y)) = (self.as_const(a), self.as_const(b)) {
            let v = x.sub(y);
            return self.constant(v);
        }
        if self.as_const(b).is_some_and(BvVal::is_zero) {
            return a;
        }
        self.intern(Term::Sub(a, b), w)
    }

    /// Multiplication.
    ///
    /// # Panics
    ///
    /// Panics if widths differ.
    pub fn mul(&mut self, a: TermId, b: TermId) -> TermId {
        let w = self.binop_width(a, b);
        let (a, b) = sort_pair(a, b);
        if let (Some(x), Some(y)) = (self.as_const(a), self.as_const(b)) {
            let v = x.mul(y);
            return self.constant(v);
        }
        if let Some(c) = self.as_const(a).or_else(|| self.as_const(b)) {
            let (c, other) = if self.as_const(a).is_some() {
                (c.clone(), b)
            } else {
                (c.clone(), a)
            };
            if c.is_zero() {
                return self.constant(BvVal::zeros(w));
            }
            if c.to_u64() == Some(1) {
                return other;
            }
        }
        self.intern(Term::Mul(a, b), w)
    }

    /// Unsigned division (`x/0 = ones` fixed semantics).
    ///
    /// # Panics
    ///
    /// Panics if widths differ.
    pub fn udiv(&mut self, a: TermId, b: TermId) -> TermId {
        let w = self.binop_width(a, b);
        if let (Some(x), Some(y)) = (self.as_const(a), self.as_const(b)) {
            let v = x.udivrem(y).0;
            return self.constant(v);
        }
        self.intern(Term::Udiv(a, b), w)
    }

    /// Unsigned remainder (`x%0 = x` fixed semantics).
    ///
    /// # Panics
    ///
    /// Panics if widths differ.
    pub fn urem(&mut self, a: TermId, b: TermId) -> TermId {
        let w = self.binop_width(a, b);
        if let (Some(x), Some(y)) = (self.as_const(a), self.as_const(b)) {
            let v = x.udivrem(y).1;
            return self.constant(v);
        }
        self.intern(Term::Urem(a, b), w)
    }

    fn shift(
        &mut self,
        mk: fn(TermId, TermId) -> Term,
        f: fn(&BvVal, u32) -> BvVal,
        a: TermId,
        b: TermId,
    ) -> TermId {
        let w = self.width(a);
        if let (Some(x), Some(y)) = (self.as_const(a), self.as_const(b)) {
            let amt = y.to_u64().unwrap_or(u64::from(w)).min(u64::from(w)) as u32;
            let v = f(x, amt);
            return self.constant(v);
        }
        if self.as_const(b).is_some_and(BvVal::is_zero) {
            return a;
        }
        self.intern(mk(a, b), w)
    }

    /// Logical shift left (amount width is independent).
    pub fn shl(&mut self, a: TermId, b: TermId) -> TermId {
        self.shift(Term::Shl, BvVal::shl, a, b)
    }

    /// Logical shift right.
    pub fn lshr(&mut self, a: TermId, b: TermId) -> TermId {
        self.shift(Term::Lshr, BvVal::lshr, a, b)
    }

    /// Arithmetic shift right.
    pub fn ashr(&mut self, a: TermId, b: TermId) -> TermId {
        self.shift(Term::Ashr, BvVal::ashr, a, b)
    }

    /// Equality (1-bit result).
    ///
    /// # Panics
    ///
    /// Panics if widths differ.
    pub fn eq(&mut self, a: TermId, b: TermId) -> TermId {
        self.binop_width(a, b);
        if a == b {
            return self.tru();
        }
        let (a, b) = sort_pair(a, b);
        if let (Some(x), Some(y)) = (self.as_const(a), self.as_const(b)) {
            let v = u64::from(x == y);
            return self.const_u64(1, v);
        }
        self.intern(Term::Eq(a, b), 1)
    }

    /// Logical negation of a 1-bit term (alias of [`TermGraph::not`]).
    pub fn not1(&mut self, a: TermId) -> TermId {
        debug_assert_eq!(self.width(a), 1);
        self.not(a)
    }

    /// Inequality (1-bit result).
    ///
    /// # Panics
    ///
    /// Panics if widths differ.
    pub fn ne(&mut self, a: TermId, b: TermId) -> TermId {
        let e = self.eq(a, b);
        self.not(e)
    }

    /// Unsigned less-than (1-bit result).
    ///
    /// # Panics
    ///
    /// Panics if widths differ.
    pub fn ult(&mut self, a: TermId, b: TermId) -> TermId {
        self.binop_width(a, b);
        if a == b {
            return self.fls();
        }
        if let (Some(x), Some(y)) = (self.as_const(a), self.as_const(b)) {
            let v = u64::from(x.ult(y));
            return self.const_u64(1, v);
        }
        self.intern(Term::Ult(a, b), 1)
    }

    /// Unsigned less-or-equal (1-bit result).
    ///
    /// # Panics
    ///
    /// Panics if widths differ.
    pub fn ule(&mut self, a: TermId, b: TermId) -> TermId {
        self.binop_width(a, b);
        if a == b {
            return self.tru();
        }
        if let (Some(x), Some(y)) = (self.as_const(a), self.as_const(b)) {
            let v = u64::from(!y.ult(x));
            return self.const_u64(1, v);
        }
        self.intern(Term::Ule(a, b), 1)
    }

    /// If-then-else.
    ///
    /// # Panics
    ///
    /// Panics if `cond` is not 1 bit wide or arm widths differ.
    pub fn ite(&mut self, cond: TermId, t: TermId, e: TermId) -> TermId {
        assert_eq!(self.width(cond), 1, "ite condition must be 1 bit");
        let w = self.binop_width(t, e);
        if t == e {
            return t;
        }
        if let Some(c) = self.as_const(cond) {
            return if c.is_zero() { e } else { t };
        }
        self.intern(Term::Ite(cond, t, e), w)
    }

    /// Concatenation (`hi` takes the upper bits).
    pub fn concat(&mut self, hi: TermId, lo: TermId) -> TermId {
        let w = self.width(hi) + self.width(lo);
        if let (Some(x), Some(y)) = (self.as_const(hi), self.as_const(lo)) {
            let v = x.concat(y);
            return self.constant(v);
        }
        self.intern(Term::Concat(hi, lo), w)
    }

    /// Extraction of bits `[lo ..= hi]`.
    ///
    /// # Panics
    ///
    /// Panics if the range is invalid for the operand width.
    pub fn extract(&mut self, hi: u32, lo: u32, arg: TermId) -> TermId {
        let w = self.width(arg);
        assert!(
            hi >= lo && hi < w,
            "bad extract [{hi}:{lo}] of {w}-bit term"
        );
        if lo == 0 && hi == w - 1 {
            return arg;
        }
        if let Some(c) = self.as_const(arg) {
            let v = c.extract(hi, lo);
            return self.constant(v);
        }
        // extract(extract(x)) → single extract
        if let Term::Extract {
            hi: _,
            lo: ilo,
            arg: inner,
        } = *self.term(arg)
        {
            return self.extract(ilo + hi, ilo + lo, inner);
        }
        self.intern(Term::Extract { hi, lo, arg }, hi - lo + 1)
    }

    /// Zero-extension (or identity when `width` equals the operand width).
    ///
    /// # Panics
    ///
    /// Panics if `width` is smaller than the operand width.
    pub fn zext(&mut self, arg: TermId, width: u32) -> TermId {
        let w = self.width(arg);
        assert!(width >= w, "zext cannot narrow");
        if width == w {
            return arg;
        }
        if let Some(c) = self.as_const(arg) {
            let v = c.resize(width);
            return self.constant(v);
        }
        self.intern(Term::ZExt { width, arg }, width)
    }

    /// Zero-extend or extract to reach exactly `width`.
    pub fn resize(&mut self, arg: TermId, width: u32) -> TermId {
        let w = self.width(arg);
        if width == w {
            arg
        } else if width > w {
            self.zext(arg, width)
        } else {
            self.extract(width - 1, 0, arg)
        }
    }

    /// Reduction AND.
    pub fn red_and(&mut self, a: TermId) -> TermId {
        if self.width(a) == 1 {
            return a;
        }
        if let Some(c) = self.as_const(a) {
            let v = u64::from(*c == BvVal::ones(c.width()));
            return self.const_u64(1, v);
        }
        self.intern(Term::RedAnd(a), 1)
    }

    /// Reduction OR.
    pub fn red_or(&mut self, a: TermId) -> TermId {
        if self.width(a) == 1 {
            return a;
        }
        if let Some(c) = self.as_const(a) {
            let v = u64::from(!c.is_zero());
            return self.const_u64(1, v);
        }
        self.intern(Term::RedOr(a), 1)
    }

    /// Reduction XOR.
    pub fn red_xor(&mut self, a: TermId) -> TermId {
        if self.width(a) == 1 {
            return a;
        }
        if let Some(c) = self.as_const(a) {
            let v = u64::from(c.iter_bits().filter(|b| *b).count() % 2 == 1);
            return self.const_u64(1, v);
        }
        self.intern(Term::RedXor(a), 1)
    }

    /// 1-bit AND convenience for path constraints.
    pub fn and1(&mut self, a: TermId, b: TermId) -> TermId {
        self.and(a, b)
    }

    fn binop_width(&self, a: TermId, b: TermId) -> u32 {
        let (wa, wb) = (self.width(a), self.width(b));
        assert_eq!(wa, wb, "operand width mismatch: {wa} vs {wb}");
        wa
    }

    /// Evaluates `id` under `env` (variable term → value). The reference
    /// semantics the bit-blaster is tested against.
    ///
    /// # Panics
    ///
    /// Panics if a variable is missing from `env` or widths disagree.
    #[must_use]
    pub fn eval(&self, id: TermId, env: &HashMap<TermId, BvVal>) -> BvVal {
        let shift_amt =
            |v: &BvVal, w: u32| v.to_u64().unwrap_or(u64::from(w)).min(u64::from(w)) as u32;
        match self.term(id) {
            Term::Var(name) => {
                let v = env
                    .get(&id)
                    .unwrap_or_else(|| panic!("variable `{name}` not in environment"));
                assert_eq!(v.width(), self.width(id), "env width mismatch for {name}");
                v.clone()
            }
            Term::Const(c) => c.clone(),
            Term::Not(a) => self.eval(*a, env).not(),
            Term::And(a, b) => self.eval(*a, env).and(&self.eval(*b, env)),
            Term::Or(a, b) => self.eval(*a, env).or(&self.eval(*b, env)),
            Term::Xor(a, b) => self.eval(*a, env).xor(&self.eval(*b, env)),
            Term::Add(a, b) => self.eval(*a, env).add(&self.eval(*b, env)),
            Term::Sub(a, b) => self.eval(*a, env).sub(&self.eval(*b, env)),
            Term::Mul(a, b) => self.eval(*a, env).mul(&self.eval(*b, env)),
            Term::Udiv(a, b) => self.eval(*a, env).udivrem(&self.eval(*b, env)).0,
            Term::Urem(a, b) => self.eval(*a, env).udivrem(&self.eval(*b, env)).1,
            Term::Shl(a, b) => {
                let x = self.eval(*a, env);
                let y = self.eval(*b, env);
                let w = x.width();
                x.shl(shift_amt(&y, w))
            }
            Term::Lshr(a, b) => {
                let x = self.eval(*a, env);
                let y = self.eval(*b, env);
                let w = x.width();
                x.lshr(shift_amt(&y, w))
            }
            Term::Ashr(a, b) => {
                let x = self.eval(*a, env);
                let y = self.eval(*b, env);
                let w = x.width();
                x.ashr(shift_amt(&y, w))
            }
            Term::Eq(a, b) => {
                BvVal::from_u64(1, u64::from(self.eval(*a, env) == self.eval(*b, env)))
            }
            Term::Ult(a, b) => {
                BvVal::from_u64(1, u64::from(self.eval(*a, env).ult(&self.eval(*b, env))))
            }
            Term::Ule(a, b) => {
                BvVal::from_u64(1, u64::from(!self.eval(*b, env).ult(&self.eval(*a, env))))
            }
            Term::Ite(c, t, e) => {
                if self.eval(*c, env).is_zero() {
                    self.eval(*e, env)
                } else {
                    self.eval(*t, env)
                }
            }
            Term::Concat(hi, lo) => self.eval(*hi, env).concat(&self.eval(*lo, env)),
            Term::Extract { hi, lo, arg } => self.eval(*arg, env).extract(*hi, *lo),
            Term::ZExt { width, arg } => self.eval(*arg, env).resize(*width),
            Term::RedAnd(a) => {
                let v = self.eval(*a, env);
                BvVal::from_u64(1, u64::from(v == BvVal::ones(v.width())))
            }
            Term::RedOr(a) => BvVal::from_u64(1, u64::from(!self.eval(*a, env).is_zero())),
            Term::RedXor(a) => BvVal::from_u64(
                1,
                u64::from(self.eval(*a, env).iter_bits().filter(|b| *b).count() % 2 == 1),
            ),
        }
    }
}

/// Commutative operands are ordered for better structural sharing.
fn sort_pair(a: TermId, b: TermId) -> (TermId, TermId) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

impl fmt::Display for TermId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_consing_dedups() {
        let mut g = TermGraph::new();
        let x = g.var("x", 8);
        let y = g.var("y", 8);
        let a = g.add(x, y);
        let b = g.add(y, x); // commutative normalization
        assert_eq!(a, b);
        assert_eq!(g.var("x", 8), x);
    }

    #[test]
    #[should_panic(expected = "different width")]
    fn var_width_conflict_panics() {
        let mut g = TermGraph::new();
        g.var("x", 8);
        g.var("x", 4);
    }

    #[test]
    fn constant_folding() {
        let mut g = TermGraph::new();
        let a = g.const_u64(8, 12);
        let b = g.const_u64(8, 30);
        let s = g.add(a, b);
        assert_eq!(g.as_const(s).and_then(BvVal::to_u64), Some(42));
        let p = g.mul(a, b);
        assert_eq!(
            g.as_const(p).and_then(BvVal::to_u64),
            Some((12 * 30) & 0xFF)
        );
        let lt = g.ult(a, b);
        assert_eq!(g.as_const(lt).and_then(BvVal::to_u64), Some(1));
    }

    #[test]
    fn identity_rules() {
        let mut g = TermGraph::new();
        let x = g.var("x", 8);
        let zero = g.constant(BvVal::zeros(8));
        let ones = g.constant(BvVal::ones(8));
        assert_eq!(g.add(x, zero), x);
        assert_eq!(g.sub(x, zero), x);
        assert_eq!(g.and(x, ones), x);
        assert_eq!(g.and(x, zero), zero);
        assert_eq!(g.or(x, zero), x);
        assert_eq!(g.or(x, ones), ones);
        assert_eq!(g.xor(x, zero), x);
        let xx = g.xor(x, x);
        assert_eq!(g.as_const(xx).map(BvVal::is_zero), Some(true));
        let nn = g.not(x);
        assert_eq!(g.not(nn), x);
        let sx = g.sub(x, x);
        assert!(g.as_const(sx).is_some());
    }

    #[test]
    fn ite_collapsing() {
        let mut g = TermGraph::new();
        let c = g.var("c", 1);
        let x = g.var("x", 4);
        let y = g.var("y", 4);
        assert_eq!(g.ite(c, x, x), x);
        let t = g.tru();
        assert_eq!(g.ite(t, x, y), x);
        let f = g.fls();
        assert_eq!(g.ite(f, x, y), y);
    }

    #[test]
    fn extract_of_extract_fuses() {
        let mut g = TermGraph::new();
        let x = g.var("x", 16);
        let a = g.extract(11, 4, x); // 8 bits
        let b = g.extract(5, 2, a); // bits 6..=9 of x
        match *g.term(b) {
            Term::Extract { hi, lo, arg } => {
                assert_eq!((hi, lo), (9, 6));
                assert_eq!(arg, x);
            }
            ref other => panic!("{other:?}"),
        }
        assert_eq!(g.extract(15, 0, x), x);
    }

    #[test]
    fn eval_matches_ops() {
        let mut g = TermGraph::new();
        let x = g.var("x", 8);
        let y = g.var("y", 8);
        let e1 = g.add(x, y);
        let e2 = g.mul(e1, x);
        let c = g.ult(e2, y);
        let mut env = HashMap::new();
        env.insert(x, BvVal::from_u64(8, 3));
        env.insert(y, BvVal::from_u64(8, 100));
        // (3+100)*3 = 309 & 0xFF = 53; 53 < 100 → 1
        assert_eq!(g.eval(e2, &env).to_u64(), Some(53));
        assert_eq!(g.eval(c, &env).to_u64(), Some(1));
    }

    #[test]
    fn resize_both_directions() {
        let mut g = TermGraph::new();
        let x = g.var("x", 8);
        let widened = g.resize(x, 12);
        assert_eq!(g.width(widened), 12);
        let narrowed = g.resize(x, 4);
        assert_eq!(g.width(narrowed), 4);
        assert_eq!(g.resize(x, 8), x);
    }
}
