//! Order statistics used by every report: medians, quartiles and the tail
//! rule ("the highest percentile with at least ten samples beyond it").

/// Samples a tail percentile must leave strictly beyond itself.
pub const TAIL_BEYOND: usize = 10;

/// Median of `xs` (mean of the two middle values for an even count);
/// `None` when empty.
pub fn median(xs: &[f64]) -> Option<f64> {
    quantile(xs, 0.5)
}

/// Arithmetic mean of `xs`, or 0 for none. Used for per-unit times over a
/// whole measured window: on a shared host whose speed drifts over
/// seconds, the window mean varies less from run to run than the median
/// of a handful of units.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Linear-interpolation quantile (`q` in 0..=1) of `xs`; `None` when
/// empty.
pub fn quantile(xs: &[f64], q: f64) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(v[lo] + (v[hi] - v[lo]) * (pos - lo as f64))
}

/// A tail percentile chosen by [`tail`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile, e.g. `99.0`.
    pub pct: f64,
    /// Its value (nearest rank).
    pub value: f64,
    /// Samples strictly beyond the rank the value was read at.
    pub beyond: usize,
    /// Sample count.
    pub n: usize,
}

/// The highest percentile of `xs` that leaves at least [`TAIL_BEYOND`]
/// samples beyond its nearest rank, searched over 99.9 and then the whole
/// percents 99 down to 50. `None` when even the median leaves fewer (fewer
/// than 20 samples).
pub fn tail(xs: &[f64]) -> Option<Tail> {
    let n = xs.len();
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    // Percentiles in tenths, so ranks are exact integer arithmetic.
    let ladder = std::iter::once(999).chain((50..=99).rev().map(|p| p * 10));
    for tenths in ladder {
        // Nearest rank, 1-based: the smallest k with k/n >= tenths/1000.
        let rank = (tenths * n).div_ceil(1000);
        if rank == 0 {
            continue;
        }
        let beyond = n - rank;
        if beyond >= TAIL_BEYOND {
            return Some(Tail {
                pct: tenths as f64 / 10.0,
                value: v[rank - 1],
                beyond,
                n,
            });
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quartiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0, 5.0], 0.25), Some(2.0));
        assert_eq!(median(&[]), None);
    }
}
