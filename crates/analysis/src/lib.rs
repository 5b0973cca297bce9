//! # lob-analysis — the paper's §5 logging-cost model
//!
//! The paper analyses how often a flush requires extra (Iw/oF) logging when
//! a backup runs in `N` equal steps over a database of uniformly-updated
//! pages. At step `m` (1-based):
//!
//! * `Prob{Done(X)} = (m−1)/N`
//! * `Prob{Pend(X)} = 1 − m/N`
//! * `Prob{Doubt(X)} = 1/N`
//!
//! **General operations (§5.1):** extra logging whenever the flushed object
//! is not pending:
//!
//! ```text
//! Prob_m{log} = m/N
//! Prob{log}   = (1/2)(1 + 1/N)
//! ```
//!
//! **Tree operations (§5.2, |S(X)| = 1):** extra logging when
//! `¬Pend(X) & ¬Done(S(X))`, minus the Doubt/Doubt cases saved by †
//! (`Prob{#S(X) < #X} = 1/2` within the doubt square):
//!
//! ```text
//! Prob_m{log} = (m/N)(1 − (m−1)/N) − 1/(2N²)
//! Prob{log}   = 1/6 + 1/(2N) − 1/(6N²)
//! ```
//!
//! Asymptotically general operations need extra logging for one flush in
//! two, tree operations for one flush in six, and ≈90 % of the achievable
//! reduction is reached by `N = 8` (§5.3) — [`steps_for_reduction`]
//! verifies that claim. These closed forms are the reference curves the
//! `fig5_logging_probability` experiment plots against measurement.

#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::todo,
        clippy::unimplemented,
        clippy::unreachable,
        clippy::indexing_slicing
    )
)]

/// §5.1, per-step: probability a *general*-operation flush at step `m`
/// (1-based) of an `N`-step backup needs Iw/oF logging.
pub fn general_prob_at_step(n: u32, m: u32) -> f64 {
    assert!(n >= 1 && (1..=n).contains(&m), "1 <= m <= n required");
    m as f64 / n as f64
}

/// §5.1, averaged over all steps: `(1/2)(1 + 1/N)`.
pub fn general_prob(n: u32) -> f64 {
    assert!(n >= 1);
    0.5 * (1.0 + 1.0 / n as f64)
}

/// §5.2, per-step: probability a *tree*-operation flush at step `m` needs
/// Iw/oF logging (single-successor model).
pub fn tree_prob_at_step(n: u32, m: u32) -> f64 {
    assert!(n >= 1 && (1..=n).contains(&m), "1 <= m <= n required");
    let n = n as f64;
    let m = m as f64;
    (m / n) * (1.0 - (m - 1.0) / n) - 1.0 / (2.0 * n * n)
}

/// §5.2, averaged over all steps: `1/6 + 1/(2N) − 1/(6N²)`.
pub fn tree_prob(n: u32) -> f64 {
    assert!(n >= 1);
    let n = n as f64;
    1.0 / 6.0 + 1.0 / (2.0 * n) - 1.0 / (6.0 * n * n)
}

/// Asymptotic probabilities as `N → ∞`: general `1/2`, tree `1/6`.
pub const GENERAL_ASYMPTOTE: f64 = 0.5;
/// See [`GENERAL_ASYMPTOTE`].
pub const TREE_ASYMPTOTE: f64 = 1.0 / 6.0;

/// The Figure 5 series: `(N, general, tree)` for each requested `N`.
pub fn figure5_series(ns: &[u32]) -> Vec<(u32, f64, f64)> {
    ns.iter()
        .map(|&n| (n, general_prob(n), tree_prob(n)))
        .collect()
}

/// Fraction of the achievable reduction (from the `N = 1` cost down to the
/// asymptote) realised at `n` steps, for the given cost curve.
pub fn reduction_fraction(cost: impl Fn(u32) -> f64, asymptote: f64, n: u32) -> f64 {
    let full = cost(1) - asymptote;
    if full <= 0.0 {
        return 1.0;
    }
    (cost(1) - cost(n)) / full
}

/// Smallest `N` achieving at least `fraction` of the possible reduction —
/// the paper's "most of the reduction in logging (almost 90 %) has been
/// achieved with an eight step backup".
pub fn steps_for_reduction(cost: impl Fn(u32) -> f64, asymptote: f64, fraction: f64) -> u32 {
    let mut n = 1;
    while reduction_fraction(&cost, asymptote, n) < fraction {
        n += 1;
        if n > 1 << 20 {
            break;
        }
    }
    n
}

/// §5.3 amortization: extra-logging probability averaged over total time
/// when backups are active a `duty` fraction of the time.
pub fn amortized_prob(prob_during_backup: f64, duty: f64) -> f64 {
    assert!((0.0..=1.0).contains(&duty));
    prob_during_backup * duty
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-12
    }

    #[test]
    fn general_matches_paper_endpoints() {
        // N = 1: "we must always do the extra logging".
        assert!(close(general_prob(1), 1.0));
        // High N → 1/2.
        assert!((general_prob(1_000_000) - GENERAL_ASYMPTOTE).abs() < 1e-5);
        // N = 8 from the figure: 0.5 * (1 + 1/8) = 0.5625.
        assert!(close(general_prob(8), 0.5625));
    }

    #[test]
    fn general_average_equals_mean_of_steps() {
        for n in [1u32, 2, 3, 8, 17] {
            let mean: f64 = (1..=n).map(|m| general_prob_at_step(n, m)).sum::<f64>() / n as f64;
            assert!(close(mean, general_prob(n)), "n={n}");
        }
    }

    #[test]
    fn tree_matches_paper_endpoints() {
        // N = 1: 1/6 + 1/2 - 1/6 = 1/2.
        assert!(close(tree_prob(1), 0.5));
        // High N → 1/6: "only one flush in six needs extra logging".
        assert!((tree_prob(1_000_000) - TREE_ASYMPTOTE).abs() < 1e-5);
    }

    #[test]
    fn tree_average_equals_mean_of_steps() {
        // The paper averages Prob_m over m = 1..N (its summation bound
        // "m=0" is a typo: the m=0 term would be negative and the closed
        // form matches the 1..N mean).
        for n in [1u32, 2, 4, 8, 33] {
            let mean: f64 = (1..=n).map(|m| tree_prob_at_step(n, m)).sum::<f64>() / n as f64;
            assert!(
                (mean - tree_prob(n)).abs() < 1e-9,
                "n={n}: mean {mean} vs closed form {}",
                tree_prob(n)
            );
        }
    }

    #[test]
    fn tree_always_cheaper_than_general() {
        for n in 1..=128 {
            assert!(tree_prob(n) <= general_prob(n), "n={n}");
        }
    }

    #[test]
    fn costs_decrease_with_more_steps() {
        for n in 1..128 {
            assert!(general_prob(n + 1) < general_prob(n));
            assert!(tree_prob(n + 1) < tree_prob(n));
        }
    }

    #[test]
    fn ninety_percent_reduction_by_eight_steps() {
        // §5.3: "most of the reduction in logging (almost 90%) has been
        // achieved with an eight step backup". Exactly: the general curve
        // reaches 87.5% at N=8; the tree curve reaches 82% — "almost 90%"
        // is the paper rounding up.
        let g = reduction_fraction(general_prob, GENERAL_ASYMPTOTE, 8);
        let t = reduction_fraction(tree_prob, TREE_ASYMPTOTE, 8);
        assert!((g - 0.875).abs() < 1e-9, "general reduction at N=8: {g}");
        assert!(t >= 0.80, "tree reduction at N=8: {t}");
        assert!(steps_for_reduction(general_prob, GENERAL_ASYMPTOTE, 0.875) <= 8);
    }

    #[test]
    fn figure5_series_shape() {
        let s = figure5_series(&[1, 2, 4, 8, 16, 32, 64]);
        assert_eq!(s.len(), 7);
        assert!(s.windows(2).all(|w| w[1].1 < w[0].1 && w[1].2 < w[0].2));
        // Tree saves between half and two thirds relative to general
        // (§5.3) for large N.
        let (_, g64, t64) = s[6];
        let saving = 1.0 - t64 / g64;
        assert!(saving > 0.5 && saving < 0.7, "saving {saving}");
    }

    #[test]
    fn amortization_scales_linearly() {
        assert!(close(amortized_prob(0.5, 0.1), 0.05));
        assert!(close(amortized_prob(0.5, 1.0), 0.5));
        assert!(close(amortized_prob(0.5, 0.0), 0.0));
    }

    #[test]
    #[should_panic]
    fn step_bounds_are_checked() {
        general_prob_at_step(4, 5);
    }
}
