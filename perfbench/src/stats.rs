//! The benchmark's statistics: medians, quartiles, the tail rule, and
//! the two derived per-layer figures computed from trace data.

use soccar_obs::{SpanData, Value};

/// Percentile levels the tail rule may pick from, lowest first. A fixed
/// ladder keeps the reported level stable when the sample count moves a
/// little between runs.
pub const TAIL_LEVELS: [f64; 6] = [50.0, 75.0, 90.0, 95.0, 99.0, 99.9];

/// Samples that must lie beyond a percentile before it may be reported
/// as the tail.
pub const TAIL_MIN_BEYOND: usize = 10;

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the two middle values for an even count). `None` when
/// there are no samples.
#[must_use]
pub fn median(samples: &[f64]) -> Option<f64> {
    let v = sorted(samples);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// First and third quartile, computed like Python's
/// `statistics.quantiles(samples, n=4)` (the default "exclusive"
/// method). `None` for fewer than two samples.
#[must_use]
pub fn quartiles(samples: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(samples);
    let ld = v.len();
    if ld < 2 {
        return None;
    }
    // Exact integer arithmetic as in CPython; `delta` goes negative when
    // the cut point is clamped, which extrapolates like Python does.
    let (n, m) = (4i64, ld as i64 + 1);
    let cut = |i: i64| {
        let j = (i * m / n).clamp(1, ld as i64 - 1);
        let delta = (i * m - j * n) as f64;
        let j = j as usize;
        (v[j - 1] * (n as f64 - delta) + v[j] * delta) / n as f64
    };
    Some((cut(1), cut(3)))
}

/// Percentile `p` of sorted samples, interpolating linearly between the
/// two nearest ranks (so p50 is the median).
fn percentile(v: &[f64], p: f64) -> f64 {
    let pos = p / 100.0 * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (pos - lo as f64) * (v[hi] - v[lo])
}

/// The tail of a latency sample: the highest level of [`TAIL_LEVELS`]
/// with at least [`TAIL_MIN_BEYOND`] samples above it, as
/// `(level, value)`. With too few samples for any level (fewer than 20)
/// the maximum is reported as level 100.
#[must_use]
pub fn tail(samples: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(samples);
    let max = *v.last()?;
    let picked = TAIL_LEVELS.iter().rev().find_map(|&p| {
        let value = percentile(&v, p);
        let beyond = v.iter().filter(|x| **x > value).count();
        (beyond >= TAIL_MIN_BEYOND).then_some((p, value))
    });
    Some(picked.unwrap_or((100.0, max)))
}

/// Share of phase-1 concolic rounds that added no coverage: a round is
/// stale when its `concolic.round` span's `covered` field did not rise
/// above the previous round's (round 1 is compared with zero).
#[must_use]
pub fn stale_round_frac(spans: &[SpanData]) -> f64 {
    let covered: Vec<u64> = spans
        .iter()
        .filter(|s| s.name == "concolic.round")
        .filter_map(|s| {
            s.fields.iter().find_map(|(k, v)| match (k.as_str(), v) {
                ("covered", Value::U64(n)) => Some(*n),
                ("covered", Value::I64(n)) => Some((*n).max(0) as u64),
                _ => None,
            })
        })
        .collect();
    if covered.is_empty() {
        return 0.0;
    }
    let mut previous = 0;
    let mut stale = 0;
    for c in &covered {
        if *c <= previous {
            stale += 1;
        }
        previous = previous.max(*c);
    }
    stale as f64 / covered.len() as f64
}

/// Time a repeat request spends queued behind concurrent work: the
/// loaded repeat median minus the idle repeat median, in ms.
#[must_use]
pub fn lock_wait_ms(repeat_p50_ms: f64, repeat_idle_ms: f64) -> f64 {
    repeat_p50_ms - repeat_idle_ms
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-9
    }

    #[test]
    fn median_of_odd_even_and_empty_samples() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[4.0]), Some(4.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // Values from `statistics.quantiles(data, n=4)`.
        let (q1, q3) = quartiles(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]).unwrap();
        assert!(close(q1, 2.75) && close(q3, 8.25), "{q1} {q3}");
        let (q1, q3) = quartiles(&[10.0, 1.0, 4.0, 7.0]).unwrap();
        assert!(close(q1, 1.75) && close(q3, 9.25), "{q1} {q3}");
        let (q1, q3) = quartiles(&[2.0, 9.0]).unwrap();
        assert!(close(q1, 0.25) && close(q3, 10.75), "{q1} {q3}");
        let (q1, q3) = quartiles(&[5.0, 1.0, 3.0]).unwrap();
        assert!(close(q1, 1.0) && close(q3, 5.0), "{q1} {q3}");
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn tail_picks_the_highest_level_with_ten_samples_beyond() {
        let ramp = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<_>>();
        let check = |n: usize, level: f64, value: f64| {
            let (l, v) = tail(&ramp(n)).unwrap();
            assert!(l == level && close(v, value), "n={n}: got p{l} = {v}");
        };
        // 19 samples: p50 = 10 has only 9 above it, so the maximum.
        check(19, 100.0, 19.0);
        // 20 samples: p50 is the median, 10.5, with 10 above it.
        check(20, 50.0, 10.5);
        // 40 samples: p75 = 30.25 has 10 above it; p90 only 4.
        check(40, 75.0, 30.25);
        check(1000, 99.0, 990.01);
        check(10_000, 99.9, 9990.001);
        assert_eq!(tail(&[]), None);
    }

    fn round(covered: u64) -> SpanData {
        SpanData {
            name: "concolic.round".into(),
            parent: None,
            fields: vec![
                ("round".into(), Value::U64(1)),
                ("covered".into(), Value::U64(covered)),
            ],
            start: Duration::ZERO,
            elapsed: Some(Duration::from_millis(1)),
        }
    }

    #[test]
    fn stale_rounds_are_those_without_new_coverage() {
        let mut spans = vec![round(5), round(7), round(7), round(7), round(9)];
        // Sweep spans are not phase-1 rounds and must be ignored.
        spans.push(SpanData {
            name: "concolic.sweep".into(),
            ..round(100)
        });
        assert!(close(stale_round_frac(&spans), 2.0 / 5.0));
        assert!(close(stale_round_frac(&[round(0)]), 1.0));
        assert!(close(stale_round_frac(&[]), 0.0));
    }

    #[test]
    fn lock_wait_is_loaded_minus_idle_repeat_latency() {
        assert!(close(lock_wait_ms(350.0, 2.0), 348.0));
        assert!(close(lock_wait_ms(2.0, 2.0), 0.0));
    }
}
