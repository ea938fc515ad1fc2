//! Order statistics and ratios the benchmark reports.

/// Median of `samples` (mean of the two middle values for an even
/// count); `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// Median over groups of each group's median. A sweep mixes cells whose
/// times differ tenfold, with gaps between clusters; the median of all
/// cell times pooled can sit in such a gap and jump between clusters as
/// the host's speed moves, whereas the median cell's own median moves
/// with the host's speed only.
pub fn median_of_medians<'a>(groups: impl IntoIterator<Item = &'a [f64]>) -> Option<f64> {
    let medians: Vec<f64> = groups.into_iter().filter_map(median).collect();
    median(&medians)
}

/// Samples that must lie strictly beyond a reported tail value.
pub const TAIL_BEYOND: usize = 10;

/// The tail of `samples`: the highest percentile that still has at least
/// [`TAIL_BEYOND`] samples beyond it, i.e. the value at ascending rank
/// `n - 11`. With ten or fewer samples no percentile qualifies and the
/// maximum is reported instead. Returns `(value, percentile)`, the
/// percentile being the share of samples at or below the value.
pub fn tail(samples: &[f64]) -> Option<(f64, f64)> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return None;
    }
    let i = if n > TAIL_BEYOND {
        n - TAIL_BEYOND - 1
    } else {
        n - 1
    };
    Some((v[i], (i + 1) as f64 / n as f64))
}

/// Tail of a long latency record, computed per consecutive window of
/// `window` samples and summarised by the median over windows. A single
/// tail over hundreds of thousands of requests would be the eleventh
/// slowest request of the run, which measures scheduler noise rather
/// than the server; a per-window tail keeps the percentile fixed
/// (`1 - 11/window`) however long the run is. A trailing partial window
/// is dropped unless it is the only one.
pub fn windowed_tail(samples: &[f64], window: usize) -> Option<(f64, f64)> {
    let window = window.max(TAIL_BEYOND + 1);
    if samples.len() < window {
        return tail(samples);
    }
    let tails: Vec<(f64, f64)> = samples.chunks_exact(window).filter_map(tail).collect();
    let value = median(&tails.iter().map(|t| t.0).collect::<Vec<_>>())?;
    Some((value, tails[0].1))
}

/// `num / den`, or 0 when nothing was attempted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Share of attempted operations that failed.
pub fn failed_frac(failed: u64, attempted: u64) -> f64 {
    ratio(failed as f64, attempted as f64)
}

/// Parallel efficiency of a sweep: busy time summed over cells divided
/// by the capacity the worker threads had over the sweep's wall time.
pub fn parallel_eff(busy_ns: f64, threads: usize, wall_ns: f64) -> f64 {
    ratio(busy_ns, threads as f64 * wall_ns)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Shuffled on purpose: the functions must sort.
        (0..n).map(|i| ((i * 7919) % n) as f64).collect()
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn median_of_medians_picks_the_median_group() {
        assert_eq!(median_of_medians(Vec::<&[f64]>::new()), None);
        // Two fast kinds, one medium, two slow; the pooled median would
        // be 10.5, in the gap between the medium and the slow cluster.
        let groups: [&[f64]; 5] = [
            &[1.0, 2.0, 1.5],
            &[1.0, 1.2],
            &[5.0, 6.0, 7.0],
            &[100.0, 110.0, 120.0, 130.0],
            &[200.0, 90.0, 300.0],
        ];
        assert_eq!(median_of_medians(groups), Some(6.0));
        assert_eq!(median_of_medians([&[][..], &[4.0, 2.0]]), Some(3.0));
    }

    #[test]
    fn tail_keeps_exactly_ten_samples_beyond() {
        let v = ramp(1000);
        let (value, pct) = tail(&v).unwrap();
        assert_eq!(v.iter().filter(|&&x| x > value).count(), TAIL_BEYOND);
        assert_eq!(value, 989.0);
        assert!((pct - 0.990).abs() < 1e-12);
        // 11 samples: the minimum is the only value with ten beyond it.
        assert_eq!(tail(&ramp(11)), Some((0.0, 1.0 / 11.0)));
        // 40 samples (a sweep run): rank 29, about the 75th percentile.
        assert_eq!(tail(&ramp(40)).unwrap().0, 29.0);
    }

    #[test]
    fn tail_of_ten_or_fewer_samples_is_the_maximum() {
        assert_eq!(tail(&[]), None);
        assert_eq!(tail(&[5.0]), Some((5.0, 1.0)));
        assert_eq!(tail(&ramp(10)), Some((9.0, 1.0)));
    }

    #[test]
    fn tail_counts_ties_as_not_beyond() {
        // Twelve equal maxima: nothing is strictly beyond the maximum,
        // but the rank rule still picks rank n - 11.
        let mut v = vec![1.0; 12];
        v.extend([0.5; 8]);
        assert_eq!(tail(&v).unwrap().0, 1.0);
    }

    #[test]
    fn windowed_tail_is_the_median_of_per_window_tails() {
        // Three windows of 100 whose tails are 89, 189 and 289.
        let v: Vec<f64> = (0..300).map(|i| i as f64).collect();
        let (value, pct) = windowed_tail(&v, 100).unwrap();
        assert_eq!(value, 189.0);
        assert!((pct - 0.90).abs() < 1e-12);
        // The partial trailing window (50 samples) is dropped.
        let v: Vec<f64> = (0..250).map(|i| i as f64).collect();
        assert_eq!(windowed_tail(&v, 100).unwrap().0, (89.0 + 189.0) / 2.0);
        // Fewer samples than one window: the plain tail.
        assert_eq!(windowed_tail(&ramp(50), 100), tail(&ramp(50)));
    }

    #[test]
    fn ratios_guard_empty_denominators() {
        assert_eq!(failed_frac(0, 0), 0.0);
        assert_eq!(failed_frac(1, 4), 0.25);
        assert_eq!(parallel_eff(150.0, 2, 100.0), 0.75);
        assert_eq!(parallel_eff(1.0, 2, 0.0), 0.0);
    }
}
