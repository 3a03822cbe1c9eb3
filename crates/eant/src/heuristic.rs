//! The locality/fairness heuristic η of Eq. 7.
//!
//! ```text
//!            ⎧ ∞                                   if the task has local data
//! η_{t+1}(j) = ⎨      1
//!            ⎩ ─────────────────────────          otherwise
//!              1 − (S_min^j − S_occ^j) / S_pool
//! ```
//!
//! `S_min` is the job's fair share of slots, `S_occ` the slots it currently
//! occupies and `S_pool` the user's pool (the whole cluster for a
//! single-user system, with `Σ_j S_min^j = S_pool`). The heuristic enters
//! the assignment probability as `η^β` (Eq. 8):
//!
//! * a job at its fair share has η = 1 (no effect);
//! * a starved job (`S_occ < S_min`) has η > 1, raising its priority;
//! * a job over its share has η < 1, lowering it.

/// The fairness branch of Eq. 7.
///
/// Returns the η value for a job holding `occupied` slots out of a fair
/// share of `min_share`, in a pool of `pool` slots.
///
/// **Deviation from the paper's normalization (documented in DESIGN.md):**
/// Eq. 7 divides the share deficit by `S_pool`, under which η can never
/// stray from 1 by more than `S_min / S_pool` — about 1 % with tens of
/// concurrent jobs — making the β sweep of Fig. 12(a) flat. We normalize by
/// the job's own `S_min` instead, so a fully starved job gets a strong
/// boost and a hogging job a real damp, reproducing the published
/// fairness-vs-β sensitivity.
///
/// The formula has a pole at full normalized deficit; inputs are clamped so
/// the result is always finite and positive.
///
/// # Panics
///
/// Panics if `pool` is zero.
///
/// # Examples
///
/// ```
/// use eant::heuristic::fairness;
///
/// // At fair share: neutral.
/// assert_eq!(fairness(10.0, 10, 96), 1.0);
/// // Starved: boosted.
/// assert!(fairness(10.0, 2, 96) > 1.0);
/// // Hogging: damped.
/// assert!(fairness(10.0, 30, 96) < 1.0);
/// ```
pub fn fairness(min_share: f64, occupied: u32, pool: usize) -> f64 {
    assert!(pool > 0, "slot pool must be positive");
    let scale = min_share.max(1.0);
    let deficit = (min_share - occupied as f64) / scale;
    // Clamp the deficit away from the η pole at deficit = 1 and keep η
    // positive for extreme over-use.
    let deficit = deficit.clamp(-10.0, 0.9);
    1.0 / (1.0 - deficit)
}

/// The full Eq. 8 weight factor `η^β`, folding in the node-local branch of
/// Eq. 7 as a finite boost.
///
/// With `beta == 0` the heuristic is disabled entirely (η^0 = 1 and no
/// locality boost), matching the paper's observation that β = 0 makes
/// E-Ant locality-oblivious (Fig. 12(a) discussion).
///
/// # Examples
///
/// ```
/// use eant::heuristic::weight_factor;
///
/// // Disabled heuristic.
/// assert_eq!(weight_factor(true, 5.0, 0, 96, 0.0, 1000.0), 1.0);
/// // Local data dominates when beta > 0.
/// let local = weight_factor(true, 5.0, 5, 96, 0.1, 1000.0);
/// let remote = weight_factor(false, 5.0, 5, 96, 0.1, 1000.0);
/// assert!(local > 100.0 * remote);
/// ```
pub fn weight_factor(
    has_local_data: bool,
    min_share: f64,
    occupied: u32,
    pool: usize,
    beta: f64,
    local_boost: f64,
) -> f64 {
    fairness_factor(min_share, occupied, pool, beta)
        * locality_factor(has_local_data, beta, local_boost)
}

/// The fairness component of [`weight_factor`]: `η^β`, or 1 with the
/// heuristic disabled (`beta == 0`). Decision tracing reports it apart
/// from [`locality_factor`] so a trace reader can tell *why* a candidate
/// was boosted. It depends on the job only through `occupied`, which lets
/// a decision memoise it per occupancy.
pub fn fairness_factor(min_share: f64, occupied: u32, pool: usize, beta: f64) -> f64 {
    if beta == 0.0 {
        return 1.0;
    }
    fairness(min_share, occupied, pool).powf(beta)
}

/// The locality component of [`weight_factor`]: the node-local boost, or 1
/// without local data or with the heuristic disabled (`beta == 0`).
pub fn locality_factor(has_local_data: bool, beta: f64, local_boost: f64) -> f64 {
    if beta != 0.0 && has_local_data {
        local_boost
    } else {
        1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn neutral_at_fair_share() {
        assert!((fairness(16.0, 16, 96) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn starved_jobs_boosted_monotonically() {
        let slight = fairness(16.0, 12, 96);
        let severe = fairness(16.0, 0, 96);
        assert!(slight > 1.0);
        assert!(severe > slight);
    }

    #[test]
    fn greedy_jobs_damped_monotonically() {
        let slight = fairness(16.0, 20, 96);
        let severe = fairness(16.0, 96, 96);
        assert!(slight < 1.0);
        assert!(severe < slight);
        assert!(severe > 0.0);
    }

    #[test]
    fn pole_is_clamped() {
        // Deficit equal to the whole pool would divide by zero unclamped.
        let eta = fairness(96.0, 0, 96);
        assert!(eta.is_finite());
        assert!(eta > 1.0);
    }

    #[test]
    fn extreme_overuse_stays_positive() {
        let eta = fairness(0.0, 10_000, 10);
        assert!(eta > 0.0 && eta < 1.0);
    }

    #[test]
    fn beta_zero_disables_everything() {
        assert_eq!(weight_factor(true, 0.0, 50, 96, 0.0, 1e6), 1.0);
    }

    #[test]
    fn larger_beta_amplifies_fairness() {
        let starved_low = weight_factor(false, 16.0, 0, 96, 0.1, 1e3);
        let starved_high = weight_factor(false, 16.0, 0, 96, 0.4, 1e3);
        assert!(starved_high > starved_low);
        assert!(starved_low > 1.0);
    }

    #[test]
    fn split_product_equals_weight_factor() {
        for local in [false, true] {
            for occupied in [0u32, 8, 16, 40] {
                for beta in [0.0, 0.1, 0.4] {
                    let full = weight_factor(local, 16.0, occupied, 96, beta, 1e3);
                    let f = fairness_factor(16.0, occupied, 96, beta);
                    let l = locality_factor(local, beta, 1e3);
                    assert_eq!(
                        full,
                        f * l,
                        "split diverged at local={local} occ={occupied} beta={beta}"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "slot pool must be positive")]
    fn zero_pool_rejected() {
        fairness(1.0, 0, 0);
    }
}
