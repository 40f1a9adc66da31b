//! Order statistics and the unit conversions every workload shares.

/// Integration step of every workload, ps (`EngineConfig::paper`).
pub const DT_PS: f64 = 0.002;

/// Simulated nanoseconds per host day: `steps × dt` over `wall_s`.
pub fn ns_per_day(steps: u64, dt_ps: f64, wall_s: f64) -> f64 {
    let simulated_ns = steps as f64 * dt_ps * 1e-3;
    simulated_ns / (wall_s / 86_400.0)
}

/// Largest share of the guest's CPU time the hypervisor may steal
/// during a sample for it to count as calm.
pub const CALM_STEAL: f64 = 0.05;

/// Indices of the calm samples, given each sample's steal share: those
/// at or below [`CALM_STEAL`], or, when fewer than half the samples are
/// calm, the least-stolen half (rounded up), in sample order.
///
/// On a shared host, other guests take 20-35% of this guest's CPU time
/// for stretches of about a minute, and a stolen CPU slows a step or a
/// served job by up to 2x, far more than the time stolen: the pool and
/// the metered kernel wait on their slowest thread. Timing only the
/// calm samples measures the program rather than its neighbours.
pub fn calm(steal: &[f64]) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..steal.len()).collect();
    let calm: Vec<usize> = idx
        .iter()
        .copied()
        .filter(|&i| steal[i] <= CALM_STEAL)
        .collect();
    if 2 * calm.len() >= steal.len() {
        return calm;
    }
    idx.sort_by(|&a, &b| steal[a].total_cmp(&steal[b]).then(a.cmp(&b)));
    idx.truncate(steal.len().div_ceil(2));
    idx.sort_unstable();
    idx
}

/// Median of `xs` (mean of the middle two for an even count).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// Median of the calm samples' values, given `(value, steal share)`
/// pairs.
pub fn calm_median(samples: &[(f64, f64)]) -> f64 {
    let steal: Vec<f64> = samples.iter().map(|s| s.1).collect();
    let values: Vec<f64> = calm(&steal).into_iter().map(|i| samples[i].0).collect();
    median(&values)
}

/// Nearest-rank percentile `q` (0–100) of an ascending-sorted slice.
pub fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = ((q / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Samples strictly above the nearest-rank percentile `q`.
pub fn beyond(sorted: &[f64], q: f64) -> usize {
    let v = nearest_rank(sorted, q);
    sorted.iter().filter(|&&x| x > v).count()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ns_per_day_is_steps_times_dt_over_wall_time() {
        // 500 steps of 2 fs = 1 ps = 1e-3 ns, in 10 s of host time:
        // 8640 intervals of 10 s per day -> 8.64 ns/day.
        let got = ns_per_day(500, DT_PS, 10.0);
        assert!((got - 8.64).abs() < 1e-9, "{got}");
        // Twice the steps in the same time doubles it; twice the time halves it.
        assert!((ns_per_day(1000, DT_PS, 10.0) - 2.0 * got).abs() < 1e-9);
        assert!((ns_per_day(500, DT_PS, 20.0) - 0.5 * got).abs() < 1e-9);
    }

    #[test]
    fn calm_keeps_unstolen_samples_or_the_least_stolen_half() {
        // Mostly calm: every calm sample, in order.
        assert_eq!(calm(&[0.0, 0.3, 0.01, 0.05]), vec![0, 2, 3]);
        // Mostly stolen: the least-stolen half, rounded up.
        assert_eq!(calm(&[0.3, 0.2, 0.25, 0.1, 0.4]), vec![1, 2, 3]);
        // No steal column (or no neighbours): everything.
        assert_eq!(calm(&[0.0; 4]), vec![0, 1, 2, 3]);
        assert_eq!(calm(&[0.5]), vec![0]);
    }

    #[test]
    fn median_and_percentiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let sorted: Vec<f64> = (1..=240).map(f64::from).collect();
        assert_eq!(nearest_rank(&sorted, 50.0), 120.0);
        assert_eq!(nearest_rank(&sorted, 95.0), 228.0);
        // p95 of 240 samples leaves 12 beyond it: at least ten, as the
        // reported tail percentile requires.
        assert_eq!(beyond(&sorted, 95.0), 12);
        assert_eq!(nearest_rank(&sorted, 100.0), 240.0);
    }
}
