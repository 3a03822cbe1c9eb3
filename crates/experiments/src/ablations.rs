//! Ablation study of E-Ant's design choices (DESIGN.md §7).
//!
//! Each row disables or perturbs one mechanism and reports the multi-seed
//! mean energy saving against the Fair Scheduler on the moderate-concurrency
//! MSD workload, plus the mean makespan ratio. This quantifies how much each
//! piece of the design contributes.

use eant::{EAntConfig, ExchangeStrategy};
use metrics::report::Table;

use crate::common::{fig8_spec, SchedulerKind};

const SEEDS: [u64; 8] = [2015, 7, 99, 42, 1234, 3, 17, 555];

struct Outcome {
    saving_pct: f64,
    makespan_ratio: f64,
}

fn evaluate(cfg: EAntConfig, seeds: &[u64]) -> Outcome {
    let mut fair_e = 0.0;
    let mut fair_m = 0.0;
    let mut eant_e = 0.0;
    let mut eant_m = 0.0;
    let spec = fig8_spec();
    for &seed in seeds {
        let fair = spec.execute(&SchedulerKind::Fair, seed, true);
        fair_e += fair.total_energy_joules();
        fair_m += fair.makespan.as_secs_f64();
        let eant = spec.execute(&SchedulerKind::EAnt(cfg), seed, true);
        eant_e += eant.total_energy_joules();
        eant_m += eant.makespan.as_secs_f64();
    }
    Outcome {
        saving_pct: (fair_e - eant_e) / fair_e * 100.0,
        makespan_ratio: eant_m / fair_m,
    }
}

/// Runs the ablation table. `fast` halves the seed set.
pub fn run(fast: bool) -> String {
    let default = EAntConfig::paper_default();
    let variants: Vec<(&str, EAntConfig)> = vec![
        ("full E-Ant (default)", default),
        (
            "no negative feedback (Eq. 6 off)",
            EAntConfig {
                negative_feedback: false,
                ..default
            },
        ),
        (
            "no exchange (§IV-D off)",
            EAntConfig {
                exchange: ExchangeStrategy::None,
                ..default
            },
        ),
        (
            "no heuristic (beta = 0: locality + fairness off)",
            EAntConfig {
                beta: 0.0,
                ..default
            },
        ),
        (
            "no share cap",
            EAntConfig {
                share_cap: 1.0e9,
                ..default
            },
        ),
        (
            "slow evaporation (rho = 0.1)",
            EAntConfig {
                rho: 0.1,
                ..default
            },
        ),
        (
            "full evaporation (rho = 1.0)",
            EAntConfig {
                rho: 1.0,
                ..default
            },
        ),
        (
            "tight tau bounds (ratio 50)",
            EAntConfig {
                tau_min: 0.2,
                tau_max: 10.0,
                ..default
            },
        ),
    ];

    // Fast mode halves the seed set for CI speed.
    let seeds = if fast {
        &SEEDS[..SEEDS.len() / 2]
    } else {
        &SEEDS[..]
    };
    let mut t = Table::new(
        format!(
            "Ablation — E-Ant design choices ({} seeds vs Fair)",
            seeds.len()
        ),
        &["variant", "energy saving (%)", "makespan / Fair"],
    );
    for (name, cfg) in variants {
        let outcome = evaluate(cfg, seeds);
        t.row(&[
            name.to_owned(),
            format!("{:+.1}", outcome.saving_pct),
            format!("{:.2}", outcome.makespan_ratio),
        ]);
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_all_variants() {
        let s = run(true);
        for label in [
            "full E-Ant",
            "no negative feedback",
            "no exchange",
            "no heuristic",
            "no share cap",
            "slow evaporation",
            "full evaporation",
            "tight tau bounds",
        ] {
            assert!(s.contains(label), "missing {label}");
        }
    }
}
