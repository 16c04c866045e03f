//! Four-state logic values with Verilog operator semantics.
//!
//! [`LogicVec`] is the value type used throughout the reproduction: by the
//! RTL interpreter, the waveform writer, the synthesis estimator and (for the
//! concrete half) the concolic engine. Each bit is one of `0`, `1`, `X`
//! (unknown) or `Z` (high impedance), encoded with a value plane and an XZ
//! plane exactly like classic EDA kernels:
//!
//! | `xz` | `val` | meaning |
//! |------|-------|---------|
//! | 0    | 0     | `0`     |
//! | 0    | 1     | `1`     |
//! | 1    | 0     | `X`     |
//! | 1    | 1     | `Z`     |
//!
//! Operator semantics follow IEEE 1364: bitwise operators use the
//! three-valued truth tables (`Z` inputs behave as `X`), arithmetic and
//! relational operators are fully pessimistic (any `X`/`Z` input poisons the
//! whole result), and case-equality (`===`) compares all four states.
//!
//! # Examples
//!
//! ```
//! use soccar_rtl::value::LogicVec;
//!
//! let a = LogicVec::from_u64(8, 0xA5);
//! let b = LogicVec::from_u64(8, 0x0F);
//! assert_eq!((a.and(&b)).to_u64(), Some(0x05));
//! assert_eq!(a.add(&b).to_u64(), Some(0xB4));
//!
//! let x = LogicVec::xes(8);
//! assert!(a.add(&x).is_all_x());
//! ```

use std::fmt;

/// A single four-state logic bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Bit {
    /// Logic low.
    Zero,
    /// Logic high.
    One,
    /// Unknown.
    X,
    /// High impedance.
    Z,
}

impl Bit {
    /// Returns `true` for [`Bit::X`] and [`Bit::Z`] (the "unknown" states).
    #[must_use]
    pub fn is_unknown(self) -> bool {
        matches!(self, Bit::X | Bit::Z)
    }

    /// Converts a known bit to `bool`; `X`/`Z` map to `None`.
    #[must_use]
    pub fn to_bool(self) -> Option<bool> {
        match self {
            Bit::Zero => Some(false),
            Bit::One => Some(true),
            _ => None,
        }
    }

    fn planes(self) -> (bool, bool) {
        match self {
            Bit::Zero => (false, false),
            Bit::One => (false, true),
            Bit::X => (true, false),
            Bit::Z => (true, true),
        }
    }

    fn from_planes(xz: bool, val: bool) -> Bit {
        match (xz, val) {
            (false, false) => Bit::Zero,
            (false, true) => Bit::One,
            (true, false) => Bit::X,
            (true, true) => Bit::Z,
        }
    }
}

impl From<bool> for Bit {
    fn from(b: bool) -> Bit {
        if b {
            Bit::One
        } else {
            Bit::Zero
        }
    }
}

impl fmt::Display for Bit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let c = match self {
            Bit::Zero => '0',
            Bit::One => '1',
            Bit::X => 'x',
            Bit::Z => 'z',
        };
        write!(f, "{c}")
    }
}

/// A fixed-width vector of four-state logic bits.
///
/// Widths are arbitrary (not limited to 64 bits). All binary operations
/// extend the narrower operand with zeros first, mirroring the unsigned
/// expression semantics used by the synthesizable subset in this
/// reproduction, and produce a result whose width is the maximum operand
/// width (relational and reduction operators produce one bit).
///
/// Vectors up to 64 bits wide keep both planes inline, so creating,
/// cloning and combining them never allocates; wider vectors box their
/// words. Equality and hashing see only the width and the bits.
#[derive(Clone)]
pub struct LogicVec {
    width: u32,
    planes: Planes,
}

/// Bit-plane storage: little-endian 64-bit words, bits above `width` zero.
/// `Inline` exactly when `width <= 64`.
#[derive(Clone)]
enum Planes {
    /// The value word and the XZ word of a vector of at most 64 bits.
    Inline { val: u64, xz: u64 },
    /// `n` value words followed by `n` XZ words.
    Heap(Box<[u64]>),
}

fn words_for(width: u32) -> usize {
    (width as usize).div_ceil(64)
}

/// Mask of the valid bits in the top word of a `width`-bit vector.
fn top_mask(width: u32) -> u64 {
    match width % 64 {
        0 => u64::MAX,
        rem => (1u64 << rem) - 1,
    }
}

impl PartialEq for LogicVec {
    fn eq(&self, other: &LogicVec) -> bool {
        self.width == other.width && self.val() == other.val() && self.xz() == other.xz()
    }
}

impl Eq for LogicVec {}

impl std::hash::Hash for LogicVec {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.width.hash(state);
        self.val().hash(state);
        self.xz().hash(state);
    }
}

impl LogicVec {
    /// Creates an all-zero vector of the given width.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero.
    #[must_use]
    pub fn zeros(width: u32) -> LogicVec {
        assert!(width > 0, "LogicVec width must be non-zero");
        let planes = if width <= 64 {
            Planes::Inline { val: 0, xz: 0 }
        } else {
            Planes::Heap(vec![0; 2 * words_for(width)].into_boxed_slice())
        };
        LogicVec { width, planes }
    }

    /// Builds a `width`-bit vector word by word: `f(i)` yields the value
    /// and XZ words `i`, in increasing `i`. Bits above `width` are masked.
    fn from_words(width: u32, mut f: impl FnMut(usize) -> (u64, u64)) -> LogicVec {
        let mut out = LogicVec::zeros(width);
        let mask = top_mask(width);
        match &mut out.planes {
            Planes::Inline { val, xz } => {
                let (v, x) = f(0);
                (*val, *xz) = (v & mask, x & mask);
            }
            Planes::Heap(w) => {
                let n = w.len() / 2;
                for i in 0..n {
                    (w[i], w[n + i]) = f(i);
                }
                w[n - 1] &= mask;
                w[2 * n - 1] &= mask;
            }
        }
        out
    }

    fn val(&self) -> &[u64] {
        match &self.planes {
            Planes::Inline { val, .. } => std::slice::from_ref(val),
            Planes::Heap(w) => &w[..w.len() / 2],
        }
    }

    fn xz(&self) -> &[u64] {
        match &self.planes {
            Planes::Inline { xz, .. } => std::slice::from_ref(xz),
            Planes::Heap(w) => &w[w.len() / 2..],
        }
    }

    fn planes_mut(&mut self) -> (&mut [u64], &mut [u64]) {
        match &mut self.planes {
            Planes::Inline { val, xz } => (std::slice::from_mut(val), std::slice::from_mut(xz)),
            Planes::Heap(w) => {
                let n = w.len() / 2;
                w.split_at_mut(n)
            }
        }
    }

    /// Value and XZ words `i`; words past the top read as zero (zero
    /// extension).
    fn word(&self, i: usize) -> (u64, u64) {
        match &self.planes {
            Planes::Inline { val, xz } => {
                if i == 0 {
                    (*val, *xz)
                } else {
                    (0, 0)
                }
            }
            Planes::Heap(w) => {
                let n = w.len() / 2;
                if i < n {
                    (w[i], w[n + i])
                } else {
                    (0, 0)
                }
            }
        }
    }

    /// The 64 value and XZ bits starting at bit `lo`, zero past the top.
    fn bits_at(&self, lo: u64) -> (u64, u64) {
        let w = usize::try_from(lo / 64).unwrap_or(usize::MAX);
        let b = lo % 64;
        let (v0, x0) = self.word(w);
        if b == 0 {
            return (v0, x0);
        }
        let (v1, x1) = self.word(w.saturating_add(1));
        ((v0 >> b) | (v1 << (64 - b)), (x0 >> b) | (x1 << (64 - b)))
    }

    /// ORs `src`'s planes into `self` starting at bit `at`; bits landing
    /// above the top word are dropped (callers re-mask the top word).
    fn or_shifted(&mut self, src: &LogicVec, at: u32) {
        let (val, xz) = self.planes_mut();
        let n = val.len();
        let w0 = (at / 64) as usize;
        let b = at % 64;
        for i in 0..words_for(src.width) {
            let (sv, sx) = src.word(i);
            let j = w0 + i;
            if j >= n {
                break;
            }
            val[j] |= sv << b;
            xz[j] |= sx << b;
            if b != 0 && j + 1 < n {
                val[j + 1] |= sv >> (64 - b);
                xz[j + 1] |= sx >> (64 - b);
            }
        }
    }

    /// Creates an all-ones vector of the given width.
    ///
    /// This is the register initialization policy of SoCCAR's Algorithm 3
    /// ("we assign all the registers with ones instead of zeros").
    #[must_use]
    pub fn ones(width: u32) -> LogicVec {
        LogicVec::from_words(width, |_| (u64::MAX, 0))
    }

    /// Creates an all-`X` vector of the given width.
    #[must_use]
    pub fn xes(width: u32) -> LogicVec {
        LogicVec::from_words(width, |_| (0, u64::MAX))
    }

    /// Creates an all-`Z` vector of the given width.
    #[must_use]
    pub fn zeds(width: u32) -> LogicVec {
        LogicVec::from_words(width, |_| (u64::MAX, u64::MAX))
    }

    /// Creates a vector from the low bits of `value`, zero-extended or
    /// truncated to `width`.
    #[must_use]
    pub fn from_u64(width: u32, value: u64) -> LogicVec {
        LogicVec::from_words(width, |i| (if i == 0 { value } else { 0 }, 0))
    }

    /// Creates a one-bit vector from a `bool`.
    #[must_use]
    pub fn from_bool(b: bool) -> LogicVec {
        LogicVec::from_u64(1, u64::from(b))
    }

    /// Creates a vector from a slice of bits, index 0 being the LSB.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is empty.
    #[must_use]
    pub fn from_bits(bits: &[Bit]) -> LogicVec {
        assert!(!bits.is_empty(), "from_bits requires at least one bit");
        let mut v = LogicVec::zeros(bits.len() as u32);
        for (i, b) in bits.iter().enumerate() {
            v.set_bit(i as u32, *b);
        }
        v
    }

    /// Parses a binary string such as `"10x1"` (MSB first) into a vector.
    ///
    /// Underscores are ignored. Returns `None` on empty or invalid input.
    #[must_use]
    pub fn from_bin_str(s: &str) -> Option<LogicVec> {
        let mut bits = Vec::new();
        for c in s.chars().rev() {
            match c {
                '0' => bits.push(Bit::Zero),
                '1' => bits.push(Bit::One),
                'x' | 'X' => bits.push(Bit::X),
                'z' | 'Z' | '?' => bits.push(Bit::Z),
                '_' => {}
                _ => return None,
            }
        }
        if bits.is_empty() {
            None
        } else {
            Some(LogicVec::from_bits(&bits))
        }
    }

    /// The width in bits.
    #[must_use]
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Returns the bit at `index` (0 = LSB).
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.width()`.
    #[must_use]
    pub fn bit(&self, index: u32) -> Bit {
        assert!(index < self.width, "bit index {index} out of range");
        let (val, xz) = self.word((index / 64) as usize);
        let b = index % 64;
        Bit::from_planes((xz >> b) & 1 == 1, (val >> b) & 1 == 1)
    }

    /// Sets the bit at `index` (0 = LSB).
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.width()`.
    pub fn set_bit(&mut self, index: u32, bit: Bit) {
        assert!(index < self.width, "bit index {index} out of range");
        let w = (index / 64) as usize;
        let b = index % 64;
        let (xz_bit, val_bit) = bit.planes();
        let (val, xz) = self.planes_mut();
        val[w] = (val[w] & !(1 << b)) | (u64::from(val_bit) << b);
        xz[w] = (xz[w] & !(1 << b)) | (u64::from(xz_bit) << b);
    }

    /// Iterates over the bits, LSB first.
    pub fn iter_bits(&self) -> impl Iterator<Item = Bit> + '_ {
        (0..self.width).map(move |i| self.bit(i))
    }

    /// `true` if any bit is `X` or `Z`.
    #[must_use]
    pub fn has_unknown(&self) -> bool {
        self.xz().iter().any(|w| *w != 0)
    }

    /// `true` if every bit of `plane` is set and every bit of the other
    /// plane is clear.
    fn is_filled(&self, plane: &[u64], other: &[u64]) -> bool {
        let (top, low) = plane.split_last().expect("non-empty planes");
        other.iter().all(|w| *w == 0)
            && low.iter().all(|w| *w == u64::MAX)
            && *top == top_mask(self.width)
    }

    /// `true` if every bit is `X`.
    #[must_use]
    pub fn is_all_x(&self) -> bool {
        self.is_filled(self.xz(), self.val())
    }

    /// `true` if every bit is `0` (no unknowns).
    #[must_use]
    pub fn is_all_zero(&self) -> bool {
        !self.has_unknown() && self.val().iter().all(|w| *w == 0)
    }

    /// `true` if every bit is `1` (no unknowns).
    #[must_use]
    pub fn is_all_ones(&self) -> bool {
        self.is_filled(self.val(), self.xz())
    }

    /// Converts to `u64` if the value fits in 64 bits and has no unknowns.
    #[must_use]
    pub fn to_u64(&self) -> Option<u64> {
        if self.has_unknown() {
            return None;
        }
        let (low, high) = self.val().split_first().expect("non-empty planes");
        if high.iter().any(|w| *w != 0) {
            return None;
        }
        Some(*low)
    }

    /// Verilog truthiness: `Some(true)` if any bit is `1`, `Some(false)` if
    /// all bits are `0`, `None` if neither (unknowns present, no `1`s).
    #[must_use]
    pub fn truthy(&self) -> Option<bool> {
        // A '1' bit anywhere makes the value true regardless of unknowns.
        for (v, x) in self.val().iter().zip(self.xz()) {
            if *v & !*x != 0 {
                return Some(true);
            }
        }
        if self.has_unknown() {
            None
        } else {
            Some(false)
        }
    }

    /// Zero-extends or truncates to `width`.
    #[must_use]
    pub fn resize(&self, width: u32) -> LogicVec {
        LogicVec::from_words(width, |i| self.word(i))
    }

    /// Sign-extends or truncates to `width` (MSB of `self` is the sign).
    #[must_use]
    pub fn sign_extend(&self, width: u32) -> LogicVec {
        if width <= self.width {
            return self.resize(width);
        }
        let msb = self.bit(self.width - 1);
        let mut out = self.resize(width);
        for i in self.width..width {
            out.set_bit(i, msb);
        }
        out
    }

    fn mask_top(&mut self) {
        let mask = top_mask(self.width);
        let (val, xz) = self.planes_mut();
        if let Some(w) = val.last_mut() {
            *w &= mask;
        }
        if let Some(w) = xz.last_mut() {
            *w &= mask;
        }
    }

    /// Bitwise NOT. `X`/`Z` bits stay `X`.
    #[must_use]
    pub fn not(&self) -> LogicVec {
        // X/Z both become X: val plane cleared where xz set.
        LogicVec::from_words(self.width, |i| {
            let (v, x) = self.word(i);
            (!v & !x, x)
        })
    }

    /// Bitwise AND with IEEE 1364 three-valued semantics.
    #[must_use]
    pub fn and(&self, other: &LogicVec) -> LogicVec {
        // A known 0 on either side dominates; otherwise unknowns give X.
        self.bitwise(other, |(av, ax), (bv, bx)| {
            let one = av & !ax & bv & !bx;
            let zero = (!av & !ax) | (!bv & !bx);
            (one, !(one | zero))
        })
    }

    /// Bitwise OR with IEEE 1364 three-valued semantics.
    #[must_use]
    pub fn or(&self, other: &LogicVec) -> LogicVec {
        // A known 1 on either side dominates; otherwise unknowns give X.
        self.bitwise(other, |(av, ax), (bv, bx)| {
            let one = (av & !ax) | (bv & !bx);
            let zero = !av & !ax & !bv & !bx;
            (one, !(one | zero))
        })
    }

    /// Bitwise XOR with IEEE 1364 three-valued semantics.
    #[must_use]
    pub fn xor(&self, other: &LogicVec) -> LogicVec {
        self.bitwise(other, |(av, ax), (bv, bx)| {
            let unknown = ax | bx;
            ((av ^ bv) & !unknown, unknown)
        })
    }

    /// Applies a word-level `(val, xz)` operator to the zero-extended
    /// operands; the result has the wider operand's width.
    fn bitwise(
        &self,
        other: &LogicVec,
        f: impl Fn((u64, u64), (u64, u64)) -> (u64, u64),
    ) -> LogicVec {
        let width = self.width.max(other.width);
        LogicVec::from_words(width, |i| f(self.word(i), other.word(i)))
    }

    /// Mask of the in-range bits of word `i`.
    fn word_mask(&self, i: usize) -> u64 {
        if i + 1 == words_for(self.width) {
            top_mask(self.width)
        } else {
            u64::MAX
        }
    }

    /// `true` if any in-range bit is a known `0`.
    fn has_known_zero(&self) -> bool {
        self.val()
            .iter()
            .zip(self.xz())
            .enumerate()
            .any(|(i, (v, x))| !v & !x & self.word_mask(i) != 0)
    }

    /// Reduction AND (`&v`): one bit.
    #[must_use]
    pub fn reduce_and(&self) -> LogicVec {
        if self.has_known_zero() {
            LogicVec::from_bool(false)
        } else if self.has_unknown() {
            LogicVec::xes(1)
        } else {
            LogicVec::from_bool(true)
        }
    }

    /// Reduction OR (`|v`): one bit.
    #[must_use]
    pub fn reduce_or(&self) -> LogicVec {
        match self.truthy() {
            Some(b) => LogicVec::from_bool(b),
            None => LogicVec::xes(1),
        }
    }

    /// Reduction XOR (`^v`): one bit.
    #[must_use]
    pub fn reduce_xor(&self) -> LogicVec {
        if self.has_unknown() {
            return LogicVec::xes(1);
        }
        let ones: u32 = self.val().iter().map(|w| w.count_ones()).sum();
        LogicVec::from_bool(ones % 2 == 1)
    }

    /// Logical negation (`!v`): one bit.
    #[must_use]
    pub fn logical_not(&self) -> LogicVec {
        match self.truthy() {
            Some(b) => LogicVec::from_bool(!b),
            None => LogicVec::xes(1),
        }
    }

    /// Logical AND (`&&`): one bit.
    #[must_use]
    pub fn logical_and(&self, other: &LogicVec) -> LogicVec {
        match (self.truthy(), other.truthy()) {
            (Some(false), _) | (_, Some(false)) => LogicVec::from_bool(false),
            (Some(true), Some(true)) => LogicVec::from_bool(true),
            _ => LogicVec::xes(1),
        }
    }

    /// Logical OR (`||`): one bit.
    #[must_use]
    pub fn logical_or(&self, other: &LogicVec) -> LogicVec {
        match (self.truthy(), other.truthy()) {
            (Some(true), _) | (_, Some(true)) => LogicVec::from_bool(true),
            (Some(false), Some(false)) => LogicVec::from_bool(false),
            _ => LogicVec::xes(1),
        }
    }

    fn arith_poisoned(&self, other: &LogicVec, width: u32) -> Option<LogicVec> {
        if self.has_unknown() || other.has_unknown() {
            Some(LogicVec::xes(width))
        } else {
            None
        }
    }

    /// Addition, result width = max operand width, carry-out discarded.
    /// Any unknown input bit makes the whole result `X` (IEEE 1364).
    #[must_use]
    pub fn add(&self, other: &LogicVec) -> LogicVec {
        let width = self.width.max(other.width);
        if let Some(p) = self.arith_poisoned(other, width) {
            return p;
        }
        let mut carry = false;
        LogicVec::from_words(width, |i| {
            let (s1, c1) = self.word(i).0.overflowing_add(other.word(i).0);
            let (s2, c2) = s1.overflowing_add(u64::from(carry));
            carry = c1 || c2;
            (s2, 0)
        })
    }

    /// Subtraction (`self - other`), two's complement, width = max.
    #[must_use]
    pub fn sub(&self, other: &LogicVec) -> LogicVec {
        let width = self.width.max(other.width);
        if let Some(p) = self.arith_poisoned(other, width) {
            return p;
        }
        let mut borrow = false;
        LogicVec::from_words(width, |i| {
            let (d1, b1) = self.word(i).0.overflowing_sub(other.word(i).0);
            let (d2, b2) = d1.overflowing_sub(u64::from(borrow));
            borrow = b1 || b2;
            (d2, 0)
        })
    }

    /// Two's-complement negation.
    #[must_use]
    pub fn neg(&self) -> LogicVec {
        LogicVec::zeros(self.width).sub(self)
    }

    /// Multiplication, result width = max operand width (truncated).
    #[must_use]
    pub fn mul(&self, other: &LogicVec) -> LogicVec {
        let width = self.width.max(other.width);
        if let Some(p) = self.arith_poisoned(other, width) {
            return p;
        }
        if width <= 64 {
            return LogicVec::from_u64(width, self.word(0).0.wrapping_mul(other.word(0).0));
        }
        let n = words_for(width);
        let mut acc = vec![0u64; n];
        for i in 0..n {
            let a = self.word(i).0;
            let mut carry = 0u128;
            for j in 0..n - i {
                let cur =
                    u128::from(acc[i + j]) + u128::from(a) * u128::from(other.word(j).0) + carry;
                acc[i + j] = cur as u64;
                carry = cur >> 64;
            }
        }
        LogicVec::from_words(width, |i| (acc[i], 0))
    }

    /// Unsigned division; division by zero yields all-`X` (IEEE 1364).
    #[must_use]
    pub fn udiv(&self, other: &LogicVec) -> LogicVec {
        let width = self.width.max(other.width);
        if let Some(p) = self.arith_poisoned(other, width) {
            return p;
        }
        if other.is_all_zero() {
            return LogicVec::xes(width);
        }
        if width <= 64 {
            return LogicVec::from_u64(width, self.word(0).0 / other.word(0).0);
        }
        let (q, _r) = self.resize(width).udivrem(&other.resize(width));
        q
    }

    /// Unsigned remainder; modulo zero yields all-`X` (IEEE 1364).
    #[must_use]
    pub fn urem(&self, other: &LogicVec) -> LogicVec {
        let width = self.width.max(other.width);
        if let Some(p) = self.arith_poisoned(other, width) {
            return p;
        }
        if other.is_all_zero() {
            return LogicVec::xes(width);
        }
        if width <= 64 {
            return LogicVec::from_u64(width, self.word(0).0 % other.word(0).0);
        }
        let (_q, r) = self.resize(width).udivrem(&other.resize(width));
        r
    }

    /// Schoolbook restoring division on equal-width two-state operands.
    fn udivrem(&self, other: &LogicVec) -> (LogicVec, LogicVec) {
        let width = self.width;
        let mut quo = LogicVec::zeros(width);
        let mut rem = LogicVec::zeros(width);
        for i in (0..width).rev() {
            rem = rem.shl_const(1);
            rem.set_bit(0, self.bit(i));
            if rem.ucmp(other) != std::cmp::Ordering::Less {
                rem = rem.sub(other);
                quo.set_bit(i, Bit::One);
            }
        }
        (quo, rem)
    }

    /// Unsigned comparison of two-state values, zero-extended to the wider
    /// width.
    ///
    /// # Panics
    ///
    /// Panics if either value has unknowns.
    fn ucmp(&self, other: &LogicVec) -> std::cmp::Ordering {
        assert!(!self.has_unknown() && !other.has_unknown());
        let n = words_for(self.width.max(other.width));
        (0..n)
            .rev()
            .map(|i| self.word(i).0.cmp(&other.word(i).0))
            .find(|o| o.is_ne())
            .unwrap_or(std::cmp::Ordering::Equal)
    }

    /// Logical shift left by a constant amount; result keeps `self`'s width.
    #[must_use]
    pub fn shl_const(&self, amount: u32) -> LogicVec {
        let mut out = LogicVec::zeros(self.width);
        if amount < self.width {
            out.or_shifted(self, amount);
            out.mask_top();
        }
        out
    }

    /// Logical shift right by a constant amount; result keeps `self`'s width.
    #[must_use]
    pub fn lshr_const(&self, amount: u32) -> LogicVec {
        LogicVec::from_words(self.width, |i| {
            self.bits_at(u64::from(amount) + 64 * i as u64)
        })
    }

    /// Arithmetic shift right by a constant amount (sign bit replicated).
    #[must_use]
    pub fn ashr_const(&self, amount: u32) -> LogicVec {
        let msb = self.bit(self.width - 1);
        let mut out = self.lshr_const(amount);
        let start = self.width.saturating_sub(amount);
        for i in start..self.width {
            out.set_bit(i, msb);
        }
        out
    }

    /// Logical shift left by a (possibly unknown) vector amount.
    #[must_use]
    pub fn shl(&self, amount: &LogicVec) -> LogicVec {
        match amount.to_u64() {
            Some(a) => self.shl_const(a.min(u64::from(self.width)) as u32),
            None => LogicVec::xes(self.width),
        }
    }

    /// Logical shift right by a (possibly unknown) vector amount.
    #[must_use]
    pub fn lshr(&self, amount: &LogicVec) -> LogicVec {
        match amount.to_u64() {
            Some(a) => self.lshr_const(a.min(u64::from(self.width)) as u32),
            None => LogicVec::xes(self.width),
        }
    }

    /// Arithmetic shift right by a (possibly unknown) vector amount.
    #[must_use]
    pub fn ashr(&self, amount: &LogicVec) -> LogicVec {
        match amount.to_u64() {
            Some(a) => self.ashr_const(a.min(u64::from(self.width)) as u32),
            None => LogicVec::xes(self.width),
        }
    }

    /// `true` if every zero-extended word pair satisfies `f`.
    fn words_match(&self, other: &LogicVec, f: impl Fn((u64, u64), (u64, u64)) -> bool) -> bool {
        let n = words_for(self.width.max(other.width));
        (0..n).all(|i| f(self.word(i), other.word(i)))
    }

    /// Logical equality (`==`): one bit, `X` if any input bit is unknown.
    #[must_use]
    pub fn eq_logic(&self, other: &LogicVec) -> LogicVec {
        if self.has_unknown() || other.has_unknown() {
            return LogicVec::xes(1);
        }
        LogicVec::from_bool(self.words_match(other, |(a, _), (b, _)| a == b))
    }

    /// Logical inequality (`!=`).
    #[must_use]
    pub fn ne_logic(&self, other: &LogicVec) -> LogicVec {
        self.eq_logic(other).logical_not()
    }

    /// Case equality (`===`): compares all four states, always 0 or 1.
    #[must_use]
    pub fn case_eq(&self, other: &LogicVec) -> LogicVec {
        LogicVec::from_bool(self.words_match(other, |a, b| a == b))
    }

    /// Unsigned less-than (`<`): one bit, `X` on unknowns.
    #[must_use]
    pub fn ult(&self, other: &LogicVec) -> LogicVec {
        if self.has_unknown() || other.has_unknown() {
            return LogicVec::xes(1);
        }
        LogicVec::from_bool(self.ucmp(other) == std::cmp::Ordering::Less)
    }

    /// Unsigned less-or-equal (`<=` as comparison).
    #[must_use]
    pub fn ule(&self, other: &LogicVec) -> LogicVec {
        if self.has_unknown() || other.has_unknown() {
            return LogicVec::xes(1);
        }
        LogicVec::from_bool(self.ucmp(other) != std::cmp::Ordering::Greater)
    }

    /// Concatenation: `self` becomes the *high* part (Verilog `{self, low}`).
    #[must_use]
    pub fn concat(&self, low: &LogicVec) -> LogicVec {
        let mut out = low.resize(self.width + low.width);
        out.or_shifted(self, low.width);
        out
    }

    /// Replication: `{count{self}}`.
    ///
    /// # Panics
    ///
    /// Panics if `count` is zero.
    #[must_use]
    pub fn replicate(&self, count: u32) -> LogicVec {
        assert!(count > 0, "replication count must be non-zero");
        let mut out = self.clone();
        for _ in 1..count {
            out = out.concat(self);
        }
        out
    }

    /// Extracts bits `[lo .. lo+width)`; bits beyond `self` read as `X`
    /// (out-of-range part-selects yield `X` in Verilog).
    #[must_use]
    pub fn slice(&self, lo: u32, width: u32) -> LogicVec {
        let mut out = LogicVec::from_words(width, |i| self.bits_at(u64::from(lo) + 64 * i as u64));
        for i in self.width.saturating_sub(lo)..width {
            out.set_bit(i, Bit::X);
        }
        out
    }

    /// Dynamic bit-select; an unknown index yields `X` (IEEE 1364).
    #[must_use]
    pub fn select_bit(&self, index: &LogicVec) -> LogicVec {
        match index.to_u64() {
            Some(i) if i < u64::from(self.width) => LogicVec::from_bits(&[self.bit(i as u32)]),
            _ => LogicVec::xes(1),
        }
    }

    /// Counts `1` bits (unknown bits count as zero).
    #[must_use]
    pub fn count_ones(&self) -> u32 {
        self.val()
            .iter()
            .zip(self.xz())
            .map(|(v, x)| (v & !x).count_ones())
            .sum()
    }
}

impl fmt::Debug for LogicVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}'b", self.width)?;
        for i in (0..self.width).rev() {
            write!(f, "{}", self.bit(i))?;
        }
        Ok(())
    }
}

impl fmt::Display for LogicVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(v) = self.to_u64() {
            write!(f, "{}'h{:x}", self.width, v)
        } else {
            write!(f, "{self:?}")
        }
    }
}

impl fmt::LowerHex for LogicVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in (0..self.width.div_ceil(4)).rev() {
            let nib = self.slice(i * 4, 4.min(self.width - i * 4));
            match nib.to_u64() {
                Some(v) => write!(f, "{v:x}")?,
                None => write!(f, "{}", if nib.is_all_x() { 'x' } else { 'X' })?,
            }
        }
        Ok(())
    }
}

impl fmt::Binary for LogicVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in (0..self.width).rev() {
            write!(f, "{}", self.bit(i))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let v = LogicVec::from_u64(8, 0xA5);
        assert_eq!(v.width(), 8);
        assert_eq!(v.bit(0), Bit::One);
        assert_eq!(v.bit(1), Bit::Zero);
        assert_eq!(v.bit(7), Bit::One);
        assert_eq!(v.to_u64(), Some(0xA5));
    }

    #[test]
    fn ones_and_xes() {
        assert!(LogicVec::ones(70).is_all_ones());
        assert!(LogicVec::xes(70).is_all_x());
        assert!(LogicVec::zeros(70).is_all_zero());
        assert_eq!(LogicVec::ones(70).to_u64(), None);
    }

    #[test]
    #[should_panic(expected = "width must be non-zero")]
    fn zero_width_panics() {
        let _ = LogicVec::zeros(0);
    }

    #[test]
    fn from_bin_str_roundtrip() {
        let v = LogicVec::from_bin_str("10x1_z0").expect("parse");
        assert_eq!(v.width(), 6);
        assert_eq!(v.bit(0), Bit::Zero);
        assert_eq!(v.bit(1), Bit::Z);
        assert_eq!(v.bit(2), Bit::One);
        assert_eq!(v.bit(3), Bit::X);
        assert_eq!(v.bit(5), Bit::One);
        assert_eq!(format!("{v:b}"), "10x1z0");
        assert!(LogicVec::from_bin_str("").is_none());
        assert!(LogicVec::from_bin_str("12").is_none());
    }

    #[test]
    fn bitwise_truth_tables() {
        let zero = LogicVec::zeros(1);
        let one = LogicVec::ones(1);
        let x = LogicVec::xes(1);
        let z = LogicVec::zeds(1);
        // AND: 0 dominates.
        assert!(zero.and(&x).is_all_zero());
        assert!(x.and(&zero).is_all_zero());
        assert!(one.and(&x).is_all_x());
        assert!(z.and(&one).is_all_x());
        assert!(one.and(&one).is_all_ones());
        // OR: 1 dominates.
        assert!(one.or(&x).is_all_ones());
        assert!(x.or(&one).is_all_ones());
        assert!(zero.or(&x).is_all_x());
        assert!(zero.or(&zero).is_all_zero());
        // XOR: any unknown poisons.
        assert!(one.xor(&x).is_all_x());
        assert!(one.xor(&zero).is_all_ones());
        assert!(one.xor(&one).is_all_zero());
    }

    #[test]
    fn not_maps_z_to_x() {
        let v = LogicVec::from_bin_str("01xz").expect("parse");
        assert_eq!(format!("{:b}", v.not()), "10xx");
    }

    #[test]
    fn arithmetic_known() {
        let a = LogicVec::from_u64(16, 300);
        let b = LogicVec::from_u64(16, 77);
        assert_eq!(a.add(&b).to_u64(), Some(377));
        assert_eq!(a.sub(&b).to_u64(), Some(223));
        assert_eq!(b.sub(&a).to_u64(), Some((77u64.wrapping_sub(300)) & 0xFFFF));
        assert_eq!(a.mul(&b).to_u64(), Some(300 * 77));
        assert_eq!(a.udiv(&b).to_u64(), Some(300 / 77));
        assert_eq!(a.urem(&b).to_u64(), Some(300 % 77));
    }

    #[test]
    fn arithmetic_overflow_wraps() {
        let a = LogicVec::from_u64(8, 0xFF);
        let b = LogicVec::from_u64(8, 2);
        assert_eq!(a.add(&b).to_u64(), Some(1));
        assert_eq!(a.mul(&b).to_u64(), Some(0xFE));
    }

    #[test]
    fn wide_arithmetic() {
        let a = LogicVec::ones(128);
        let one = LogicVec::from_u64(128, 1);
        assert!(a.add(&one).is_all_zero());
        let b = a.sub(&one);
        assert_eq!(b.bit(0), Bit::Zero);
        assert_eq!(b.bit(127), Bit::One);
    }

    #[test]
    fn arithmetic_poisoned_by_x() {
        let a = LogicVec::from_u64(8, 5);
        let mut b = LogicVec::from_u64(8, 3);
        b.set_bit(2, Bit::X);
        assert!(a.add(&b).is_all_x());
        assert!(a.mul(&b).is_all_x());
        assert!(a.sub(&b).is_all_x());
        assert!(b.neg().is_all_x());
    }

    #[test]
    fn division_by_zero_is_x() {
        let a = LogicVec::from_u64(8, 5);
        let z = LogicVec::zeros(8);
        assert!(a.udiv(&z).is_all_x());
        assert!(a.urem(&z).is_all_x());
    }

    #[test]
    fn shifts() {
        let a = LogicVec::from_u64(8, 0b1001_0110);
        assert_eq!(a.shl_const(2).to_u64(), Some(0b0101_1000));
        assert_eq!(a.lshr_const(2).to_u64(), Some(0b0010_0101));
        assert_eq!(a.ashr_const(2).to_u64(), Some(0b1110_0101));
        assert_eq!(a.shl(&LogicVec::from_u64(4, 9)).to_u64(), Some(0));
        assert!(a.shl(&LogicVec::xes(3)).is_all_x());
    }

    #[test]
    fn comparisons() {
        let a = LogicVec::from_u64(8, 5);
        let b = LogicVec::from_u64(8, 7);
        assert!(a.ult(&b).is_all_ones());
        assert!(b.ult(&a).is_all_zero());
        assert!(a.ule(&a).is_all_ones());
        assert!(a.eq_logic(&a).is_all_ones());
        assert!(a.ne_logic(&b).is_all_ones());
        let x = LogicVec::xes(8);
        assert!(a.eq_logic(&x).is_all_x());
        assert!(a.ult(&x).is_all_x());
    }

    #[test]
    fn comparison_mixed_width_zero_extends() {
        let a = LogicVec::from_u64(4, 0xF);
        let b = LogicVec::from_u64(8, 0x0F);
        assert!(a.eq_logic(&b).is_all_ones());
        let c = LogicVec::from_u64(8, 0x1F);
        assert!(a.ult(&c).is_all_ones());
    }

    #[test]
    fn case_equality_sees_four_states() {
        let x = LogicVec::xes(4);
        assert!(x.case_eq(&x).is_all_ones());
        assert!(x.case_eq(&LogicVec::zeds(4)).is_all_zero());
        let a = LogicVec::from_u64(4, 3);
        assert!(a.case_eq(&x).is_all_zero());
    }

    #[test]
    fn concat_replicate_slice() {
        let hi = LogicVec::from_u64(4, 0xA);
        let lo = LogicVec::from_u64(4, 0x5);
        let v = hi.concat(&lo);
        assert_eq!(v.to_u64(), Some(0xA5));
        assert_eq!(lo.replicate(3).to_u64(), Some(0x555));
        assert_eq!(v.slice(4, 4).to_u64(), Some(0xA));
        assert_eq!(v.slice(0, 4).to_u64(), Some(0x5));
        // Out-of-range slice bits read X.
        assert!(v.slice(6, 4).has_unknown());
    }

    #[test]
    fn select_bit_dynamic() {
        let v = LogicVec::from_u64(8, 0b0000_0100);
        assert!(v.select_bit(&LogicVec::from_u64(3, 2)).is_all_ones());
        assert!(v.select_bit(&LogicVec::from_u64(3, 3)).is_all_zero());
        assert!(v.select_bit(&LogicVec::xes(3)).is_all_x());
        assert!(v.select_bit(&LogicVec::from_u64(8, 200)).is_all_x());
    }

    #[test]
    fn truthiness() {
        assert_eq!(LogicVec::from_u64(4, 0).truthy(), Some(false));
        assert_eq!(LogicVec::from_u64(4, 2).truthy(), Some(true));
        assert_eq!(LogicVec::xes(4).truthy(), None);
        // A 1 anywhere wins even with Xs around.
        let mut v = LogicVec::xes(4);
        v.set_bit(1, Bit::One);
        assert_eq!(v.truthy(), Some(true));
    }

    #[test]
    fn logical_ops() {
        let t = LogicVec::from_u64(4, 3);
        let f = LogicVec::zeros(4);
        let x = LogicVec::xes(4);
        assert!(t.logical_and(&t).is_all_ones());
        assert!(t.logical_and(&f).is_all_zero());
        assert!(f.logical_and(&x).is_all_zero());
        assert!(t.logical_and(&x).is_all_x());
        assert!(t.logical_or(&x).is_all_ones());
        assert!(f.logical_or(&f).is_all_zero());
        assert!(f.logical_or(&x).is_all_x());
        assert!(t.logical_not().is_all_zero());
        assert!(f.logical_not().is_all_ones());
        assert!(x.logical_not().is_all_x());
    }

    #[test]
    fn reductions() {
        assert!(LogicVec::ones(5).reduce_and().is_all_ones());
        assert!(LogicVec::from_u64(5, 0b11101).reduce_and().is_all_zero());
        assert!(LogicVec::zeros(5).reduce_or().is_all_zero());
        assert!(LogicVec::from_u64(5, 0b00100).reduce_or().is_all_ones());
        assert!(LogicVec::from_u64(5, 0b00111).reduce_xor().is_all_ones());
        assert!(LogicVec::from_u64(5, 0b00110).reduce_xor().is_all_zero());
        assert!(LogicVec::xes(2).reduce_xor().is_all_x());
        // 0 dominates reduce_and even with X present.
        let mut v = LogicVec::xes(4);
        v.set_bit(0, Bit::Zero);
        assert!(v.reduce_and().is_all_zero());
    }

    #[test]
    fn resize_and_sign_extend() {
        let v = LogicVec::from_u64(4, 0b1010);
        assert_eq!(v.resize(8).to_u64(), Some(0b0000_1010));
        assert_eq!(v.sign_extend(8).to_u64(), Some(0b1111_1010));
        assert_eq!(v.resize(2).to_u64(), Some(0b10));
        let x = LogicVec::xes(4);
        assert_eq!(x.resize(8).slice(4, 4).to_u64(), Some(0));
    }

    #[test]
    fn display_formats() {
        let v = LogicVec::from_u64(12, 0xABC);
        assert_eq!(format!("{v}"), "12'habc");
        assert_eq!(format!("{v:x}"), "abc");
        let x = LogicVec::from_bin_str("1x0z").expect("parse");
        assert_eq!(format!("{x:b}"), "1x0z");
        assert_eq!(format!("{x:?}"), "4'b1x0z");
    }

    #[test]
    fn count_ones_ignores_unknowns() {
        let v = LogicVec::from_bin_str("1x1z1").expect("parse");
        assert_eq!(v.count_ones(), 3);
    }
}
