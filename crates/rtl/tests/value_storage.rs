//! `LogicVec` storage boundary tests.
//!
//! Vectors up to 64 bits keep their planes inline, wider ones box them.
//! These properties pin that the switch is invisible: resizing across it
//! round-trips, width-64 arithmetic equals width-65 arithmetic truncated
//! back, equal bits give equal values and equal hashes whatever built
//! them, and the word-level operators agree with a bit-by-bit model of
//! the IEEE 1364 truth tables at every boundary width.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use proptest::prelude::*;
use soccar_rtl::value::{Bit, LogicVec};

/// Widths on both sides of each storage and word boundary.
const WIDTHS: [u32; 6] = [1, 63, 64, 65, 128, 129];

/// Enough random 4-state bits for the widest vector.
fn bits() -> impl Strategy<Value = Vec<Bit>> {
    proptest::collection::vec(0u8..4, 129).prop_map(|raw| {
        raw.iter()
            .map(|b| match b {
                0 => Bit::Zero,
                1 => Bit::One,
                2 => Bit::X,
                _ => Bit::Z,
            })
            .collect()
    })
}

/// The first `width` bits, with unknowns forced to known values when
/// `two_state` is set.
fn vec_of(bits: &[Bit], width: u32, two_state: bool) -> LogicVec {
    let bs: Vec<Bit> = bits[..width as usize]
        .iter()
        .map(|b| match b {
            Bit::X if two_state => Bit::Zero,
            Bit::Z if two_state => Bit::One,
            other => *other,
        })
        .collect();
    LogicVec::from_bits(&bs)
}

fn hash_of(v: &LogicVec) -> u64 {
    let mut h = DefaultHasher::new();
    v.hash(&mut h);
    h.finish()
}

/// Bit `i` of `v`, reading `0` past its width (zero extension).
fn ext(v: &LogicVec, i: u32) -> Bit {
    if i < v.width() {
        v.bit(i)
    } else {
        Bit::Zero
    }
}

/// Bit-by-bit reference of a binary bitwise operator.
fn reference(a: &LogicVec, b: &LogicVec, f: impl Fn(Bit, Bit) -> Bit) -> LogicVec {
    let width = a.width().max(b.width());
    let bits: Vec<Bit> = (0..width).map(|i| f(ext(a, i), ext(b, i))).collect();
    LogicVec::from_bits(&bits)
}

fn ref_and(a: Bit, b: Bit) -> Bit {
    match (a, b) {
        (Bit::Zero, _) | (_, Bit::Zero) => Bit::Zero,
        (Bit::One, Bit::One) => Bit::One,
        _ => Bit::X,
    }
}

fn ref_or(a: Bit, b: Bit) -> Bit {
    match (a, b) {
        (Bit::One, _) | (_, Bit::One) => Bit::One,
        (Bit::Zero, Bit::Zero) => Bit::Zero,
        _ => Bit::X,
    }
}

fn ref_xor(a: Bit, b: Bit) -> Bit {
    if a.is_unknown() || b.is_unknown() {
        Bit::X
    } else {
        Bit::from(a != b)
    }
}

/// The low 128 bits of a two-state vector.
fn to_u128(v: &LogicVec) -> u128 {
    (0..v.width().min(128))
        .filter(|i| v.bit(*i) == Bit::One)
        .fold(0, |acc, i| acc | (1u128 << i))
}

fn mask128(width: u32) -> u128 {
    if width >= 128 {
        u128::MAX
    } else {
        (1u128 << width) - 1
    }
}

#[test]
fn logic_vec_is_no_larger_than_two_vec_planes() {
    assert!(std::mem::size_of::<LogicVec>() <= 56);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn resize_round_trips_across_the_boundary(src in bits(), wi in 0usize..6, wj in 0usize..6) {
        let (w, w2) = (WIDTHS[wi], WIDTHS[wj]);
        let v = vec_of(&src, w, false);
        let there = v.resize(w2);
        prop_assert_eq!(there.width(), w2);
        for i in 0..w2 {
            prop_assert_eq!(there.bit(i), ext(&v, i));
        }
        if w2 >= w {
            prop_assert_eq!(there.resize(w), v);
        } else {
            prop_assert_eq!(there, vec_of(&src, w2, false));
        }
    }

    #[test]
    fn narrow_results_equal_wide_results_truncated(
        sa in bits(), sb in bits(), pair in 0usize..3, two_state in 0u8..2
    ) {
        let (narrow, wide) = [(63, 64), (64, 65), (128, 129)][pair];
        let a = vec_of(&sa, narrow, two_state == 1);
        let b = vec_of(&sb, narrow, two_state == 1);
        let (aw, bw) = (a.resize(wide), b.resize(wide));
        let binary: [fn(&LogicVec, &LogicVec) -> LogicVec; 8] = [
            LogicVec::add,
            LogicVec::sub,
            LogicVec::mul,
            LogicVec::udiv,
            LogicVec::urem,
            LogicVec::and,
            LogicVec::or,
            LogicVec::xor,
        ];
        for op in binary {
            prop_assert_eq!(op(&a, &b), op(&aw, &bw).resize(narrow));
        }
        prop_assert_eq!(a.not(), aw.not().resize(narrow));
        prop_assert_eq!(a.neg(), aw.neg().resize(narrow));
        let relational: [fn(&LogicVec, &LogicVec) -> LogicVec; 5] = [
            LogicVec::ult,
            LogicVec::ule,
            LogicVec::eq_logic,
            LogicVec::ne_logic,
            LogicVec::case_eq,
        ];
        for op in relational {
            prop_assert_eq!(op(&a, &b), op(&aw, &bw));
            prop_assert_eq!(op(&b, &a), op(&bw, &aw));
        }
    }

    #[test]
    fn equal_bits_mean_equal_values_and_hashes(src in bits(), extra in bits(), wi in 0usize..6) {
        let w = WIDTHS[wi];
        let from_bits = vec_of(&src, w, false);
        let text: String = (0..w).rev().map(|i| from_bits.bit(i).to_string()).collect();
        let from_str = LogicVec::from_bin_str(&text).expect("parse");
        let mut longer: Vec<Bit> = src[..w as usize].to_vec();
        longer.extend_from_slice(&extra);
        let truncated = LogicVec::from_bits(&longer).resize(w);
        let extended = vec_of(&src, w.min(63), false).resize(w);
        let mut padded = src[..w.min(63) as usize].to_vec();
        padded.resize(w as usize, Bit::Zero);
        let built = [from_str, truncated];
        for v in &built {
            prop_assert_eq!(v, &from_bits);
            prop_assert_eq!(hash_of(v), hash_of(&from_bits));
        }
        let padded = LogicVec::from_bits(&padded);
        prop_assert_eq!(&extended, &padded);
        prop_assert_eq!(hash_of(&extended), hash_of(&padded));
        let two_state = vec_of(&src, w, true);
        let low = to_u128(&two_state.resize(w.min(64))) as u64;
        let from_u64 = LogicVec::from_u64(w, low);
        let low_only = two_state.resize(w.min(64)).resize(w);
        prop_assert_eq!(&from_u64, &low_only);
        prop_assert_eq!(hash_of(&from_u64), hash_of(&low_only));
    }

    #[test]
    fn word_operators_match_the_bitwise_model(
        sa in bits(), sb in bits(), wa in 0usize..6, wb in 0usize..6, shift in 0u32..140
    ) {
        let a = vec_of(&sa, WIDTHS[wa], false);
        let b = vec_of(&sb, WIDTHS[wb], false);
        prop_assert_eq!(a.and(&b), reference(&a, &b, ref_and));
        prop_assert_eq!(a.or(&b), reference(&a, &b, ref_or));
        prop_assert_eq!(a.xor(&b), reference(&a, &b, ref_xor));
        let not: Vec<Bit> = a.iter_bits().map(|x| ref_xor(x, Bit::One)).collect();
        prop_assert_eq!(a.not(), LogicVec::from_bits(&not));
        let fold = |f: fn(Bit, Bit) -> Bit, init: Bit| a.iter_bits().fold(init, f);
        prop_assert_eq!(a.reduce_and(), LogicVec::from_bits(&[fold(ref_and, Bit::One)]));
        prop_assert_eq!(a.reduce_or(), LogicVec::from_bits(&[fold(ref_or, Bit::Zero)]));
        prop_assert_eq!(a.reduce_xor(), LogicVec::from_bits(&[fold(ref_xor, Bit::Zero)]));
        let ones = a.iter_bits().filter(|x| *x == Bit::One).count() as u32;
        prop_assert_eq!(a.count_ones(), ones);
        prop_assert_eq!(a.is_all_x(), a.iter_bits().all(|x| x == Bit::X));
        prop_assert_eq!(a.is_all_ones(), a.iter_bits().all(|x| x == Bit::One));
        prop_assert_eq!(a.is_all_zero(), a.iter_bits().all(|x| x == Bit::Zero));
        let w = a.width();
        let shl: Vec<Bit> = (0..w)
            .map(|i| if i >= shift { a.bit(i - shift) } else { Bit::Zero })
            .collect();
        prop_assert_eq!(a.shl_const(shift), LogicVec::from_bits(&shl));
        let lshr: Vec<Bit> = (0..w).map(|i| ext(&a, i + shift)).collect();
        prop_assert_eq!(a.lshr_const(shift), LogicVec::from_bits(&lshr));
        let cat: Vec<Bit> = b.iter_bits().chain(a.iter_bits()).collect();
        prop_assert_eq!(a.concat(&b), LogicVec::from_bits(&cat));
        let part: Vec<Bit> = (0..b.width())
            .map(|i| if shift + i < w { a.bit(shift + i) } else { Bit::X })
            .collect();
        prop_assert_eq!(a.slice(shift, b.width()), LogicVec::from_bits(&part));
        let same = (0..w.max(b.width())).all(|i| ext(&a, i) == ext(&b, i));
        prop_assert_eq!(a.case_eq(&b).is_all_ones(), same);
    }

    #[test]
    fn arithmetic_matches_u128_up_to_128_bits(sa in bits(), sb in bits(), wa in 0usize..5, wb in 0usize..5) {
        let a = vec_of(&sa, WIDTHS[wa], true);
        let b = vec_of(&sb, WIDTHS[wb], true);
        let w = a.width().max(b.width());
        let (x, y) = (to_u128(&a), to_u128(&b));
        prop_assert_eq!(to_u128(&a.add(&b)), x.wrapping_add(y) & mask128(w));
        prop_assert_eq!(to_u128(&a.sub(&b)), x.wrapping_sub(y) & mask128(w));
        prop_assert_eq!(to_u128(&a.mul(&b)), x.wrapping_mul(y) & mask128(w));
        if let (Some(q), Some(r)) = (x.checked_div(y), x.checked_rem(y)) {
            prop_assert_eq!(to_u128(&a.udiv(&b)), q);
            prop_assert_eq!(to_u128(&a.urem(&b)), r);
        }
        prop_assert_eq!(a.ult(&b).is_all_ones(), x < y);
        prop_assert_eq!(a.ule(&b).is_all_ones(), x <= y);
        prop_assert_eq!(a.eq_logic(&b).is_all_ones(), x == y);
    }
}
