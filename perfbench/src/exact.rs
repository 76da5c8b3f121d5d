//! Brute-force agreement: how often the one-pass algorithm's delay
//! impact equals the exhaustive optimum.
//!
//! The sweep is fixed (it does not follow `--seed`) so the tracked count
//! and its base mean the same thing on every run and every commit:
//! ten seeded 12-gate circuits with 10 couplings, k = 1, 2, 3, both
//! modes, 60 cases.

use dna_netlist::generator::{generate, GeneratorConfig};
use dna_topk::{brute_force, BruteForceConfig, Mode, TopKAnalysis, TopKConfig};

const CIRCUITS: u64 = 10;
const MAX_K: usize = 3;

pub struct Agreement {
    pub exact: usize,
    pub total: usize,
}

pub fn measure() -> Result<Agreement, String> {
    let mut agreement = Agreement { exact: 0, total: 0 };
    for seed in 0..CIRCUITS {
        let circuit = generate(&GeneratorConfig::new(12, 10).with_seed(seed))
            .map_err(|e| format!("exact sweep circuit {seed}: {e}"))?;
        let engine = TopKAnalysis::new(&circuit, TopKConfig { threads: 1, ..TopKConfig::exact() });
        for mode in [Mode::Addition, Mode::Elimination] {
            for k in 1..=MAX_K {
                let brute = brute_force(&circuit, &BruteForceConfig::default(), mode, k)
                    .map_err(|e| format!("brute force seed {seed} k {k}: {e}"))?;
                let (_, optimum) = brute
                    .completed()
                    .ok_or_else(|| format!("brute force seed {seed} k {k} timed out"))?;
                let result = match mode {
                    Mode::Addition => engine.addition_set(k),
                    Mode::Elimination => engine.elimination_set(k),
                }
                .map_err(|e| format!("top-k seed {seed} k {k}: {e}"))?;
                agreement.total += 1;
                if (result.delay_after() - optimum).abs() < 1e-6 {
                    agreement.exact += 1;
                }
            }
        }
    }
    Ok(agreement)
}
