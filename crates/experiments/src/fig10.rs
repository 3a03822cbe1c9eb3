//! Fig. 10: effectiveness of the information-exchange strategies.
//!
//! Energy savings of E-Ant over the default heterogeneity-agnostic Hadoop
//! (FIFO), measured at fixed wall-clock points as the jobs progress, for
//! the four exchange configurations, averaged over several seeds. The
//! paper reports machine-level +7 %, job-level +10 % and both +15 %
//! relative to no exchange.

use eant::{EAntConfig, ExchangeStrategy};
use hadoop_sim::NoiseConfig;
use metrics::report::render_series;
use simcore::SimTime;

use crate::common::{fig8_spec, SchedulerKind};

const STRATEGIES: [ExchangeStrategy; 4] = [
    ExchangeStrategy::None,
    ExchangeStrategy::MachineLevel,
    ExchangeStrategy::JobLevel,
    ExchangeStrategy::Both,
];

/// Runs the exchange-strategy ablation.
pub fn run(fast: bool) -> String {
    // The exchange ablation uses the moderate-concurrency scenario at both
    // scales (tail variance at the 87-job scale would need dozens of seeds
    // to resolve the ±7-15 point differences the paper reports); full mode
    // adds seeds instead of jobs.
    let seeds: &[u64] = if fast {
        &[1010, 7, 99]
    } else {
        &[1010, 7, 99, 2015, 42, 1234, 3, 17, 555, 808, 4096, 31]
    };
    // The ablation runs with the paper-default system noise (§IV-D): enough
    // stragglers and reading jitter to corrupt per-task energy evidence,
    // which is the hazard the exchange strategies exist to average away.
    let spec = fig8_spec();
    debug_assert!(spec.engine.noise == NoiseConfig::paper_default());
    // Sample savings at fixed minutes so curves from different seeds align.
    let minutes: Vec<f64> = (1..=9).map(|i| i as f64 * 10.0).collect();

    let mut curves: Vec<Vec<f64>> = vec![vec![0.0; minutes.len()]; STRATEGIES.len()];
    let mut finals = vec![0.0; STRATEGIES.len()];

    for &seed in seeds {
        let baseline = spec.execute(&SchedulerKind::Fifo, seed, true);
        for (si, strategy) in STRATEGIES.iter().enumerate() {
            let cfg = EAntConfig {
                exchange: *strategy,
                ..EAntConfig::paper_default()
            };
            let run = spec.execute(&SchedulerKind::EAnt(cfg), seed, true);
            for (mi, &minute) in minutes.iter().enumerate() {
                let at = SimTime::from_secs((minute * 60.0) as u64);
                let base = baseline.energy_series.value_at(at).unwrap_or(0.0);
                let cand = run.energy_series.value_at(at).unwrap_or(0.0);
                curves[si][mi] += (base - cand) / 1000.0 / seeds.len() as f64;
            }
            finals[si] += (baseline.total_energy_joules() - run.total_energy_joules())
                / 1000.0
                / seeds.len() as f64;
        }
    }

    let named: Vec<(&str, Vec<f64>)> = STRATEGIES
        .iter()
        .zip(&curves)
        .map(|(s, c)| (s.label(), c.clone()))
        .collect();
    let mut out = render_series(
        "Fig. 10 — energy saving over time by exchange strategy (kJ vs default Hadoop)",
        "time (min)",
        &minutes,
        &named,
        1,
    );
    out.push_str("final savings vs default Hadoop (kJ): ");
    out.push_str(
        &STRATEGIES
            .iter()
            .zip(&finals)
            .map(|(s, f)| format!("{}: {f:.0}", s.label()))
            .collect::<Vec<_>>()
            .join("  "),
    );
    out.push('\n');
    // Improvements reported in percentage points of the baseline total, so
    // a near-zero non-exchange saving cannot blow the denominator up.
    let mut fifo_total = 0.0;
    for &seed in seeds {
        fifo_total += spec
            .execute(&SchedulerKind::Fifo, seed, true)
            .total_energy_joules()
            / 1000.0
            / seeds.len() as f64;
    }
    let base_pct = finals[0] / fifo_total * 100.0;
    for (s, f) in STRATEGIES.iter().zip(&finals).skip(1) {
        out.push_str(&format!(
            "{} saving: {:.1}% of baseline ({:+.1} points over Non-exchange's {:.1}%)\n",
            s.label(),
            f / fifo_total * 100.0,
            (f - finals[0]) / fifo_total * 100.0,
            base_pct,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_all_strategies() {
        let s = run(true);
        for label in ["Non-exchange", "+Machine-level", "+Job-level", "+Both"] {
            assert!(s.contains(label), "missing {label} in:\n{s}");
        }
        assert!(s.contains("final savings"));
    }
}
