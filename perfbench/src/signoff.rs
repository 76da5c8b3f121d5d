//! `signoff`: cold full-design top-k queries, one at a time.
//!
//! Every query builds a fresh `TopKAnalysis` on one of the run's seeded
//! circuits and asks for k = 10 couplings by addition, elimination or
//! peeled elimination at two analysis threads. Nearly all of the time
//! goes to enumeration, the waveform kernels, dominance and the
//! scheduler; sessions, persistence and the daemon are never touched.

use dna_netlist::{suite, Circuit};
use dna_topk::{TopKAnalysis, TopKConfig, TopKError, TopKResult};

use crate::layers::{record_query, Class};
use crate::speed::{self, Timings};
use crate::stats::Samples;
use crate::{mix, peak_rss_mb, reset_peak_rss, timed, Ctx, Metric, Outcome, Tally};

/// Circuit class of the workload. Small circuits, many of them: the
/// between-circuit spread of query time, not the host, dominates a
/// run's spread, and per second of querying i1 circuits average it out
/// about five times better than i3 circuits do (see the README).
pub const SPEC: &str = "i1";
pub const K: usize = 10;
/// Couplings committed per peeling round (k / 2, so two rounds).
pub const PEEL_STEP: usize = 5;
const THREADS: usize = 2;
/// Circuits per second of `--seconds`; each gets one query per class.
const CIRCUITS_PER_SECOND: f64 = 1.6;
/// Full set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 15;
/// One query in this many is repeated at one thread as its reference.
const CHECK_EVERY: u64 = 8;

pub fn circuits(seed: u64, n: usize) -> Result<Vec<Circuit>, String> {
    (0..n as u64)
        .map(|j| suite::benchmark(SPEC, mix(seed, j)).map_err(|e| format!("generate {SPEC}: {e}")))
        .collect()
}

pub fn query(engine: &TopKAnalysis<'_>, class: Class) -> Result<TopKResult, TopKError> {
    match class {
        Class::Add => engine.addition_set(K),
        Class::Elim => engine.elimination_set(K),
        Class::Peel => engine.elimination_set_peeled(K, PEEL_STEP),
    }
}

pub fn run(ctx: &mut Ctx) -> Result<Outcome, String> {
    let n = ((ctx.seconds as f64 * CIRCUITS_PER_SECOND).ceil() as usize).max(2);
    let mut setups = Timings::default();
    let mut set = Vec::new();
    for _ in 0..SETUP_REPS {
        let before = speed::sample(1);
        let (made, ms) = timed(&mut ctx.tr, "netlist.generate", 0, || circuits(ctx.seed, n));
        setups.push(ms, before, speed::sample(1));
        ctx.tr.count("netlist.circuits", n as f64);
        set = made?;
    }
    let config = TopKConfig { threads: THREADS, ..TopKConfig::default() };

    let mut tally = Tally::default();
    let mut lat = [Timings::default(), Timings::default(), Timings::default()];
    let mut answers = Vec::new();
    let mut rss = Samples::default();
    for (j, circuit) in set.iter().enumerate() {
        reset_peak_rss()?;
        for class in Class::ALL {
            let req = answers.len() as u64;
            let before = speed::sample(THREADS);
            let (result, ms) = timed(&mut ctx.tr, class.span(), req, || {
                query(&TopKAnalysis::new(circuit, config), class)
            });
            lat[class as usize].push(ms, before, speed::sample(THREADS));
            let fingerprint = match &result {
                Ok(r) => {
                    record_query(&mut ctx.tr, class, r, PEEL_STEP);
                    let i = tally
                        .attempt(!r.is_degraded(), || format!("{class:?} on circuit {j} degraded"));
                    (i, Some(r.identity_fingerprint()))
                }
                Err(e) => (tally.attempt(false, || format!("{class:?} on circuit {j}: {e}")), None),
            };
            answers.push((j, class, fingerprint));
        }
        rss.push(peak_rss_mb()?);
    }

    // Answer checks, outside the timed window: the first query and a
    // seeded sample of the rest are repeated at one thread, which must
    // give the same bits.
    let reference = TopKConfig { threads: 1, ..config };
    let mut checked = 0;
    for (i, &(j, class, (op, got))) in answers.iter().enumerate() {
        if i > 0 && !mix(ctx.seed, i as u64 + 1000).is_multiple_of(CHECK_EVERY) {
            continue;
        }
        checked += 1;
        let want =
            query(&TopKAnalysis::new(&set[j], reference), class).map(|r| r.identity_fingerprint());
        check_fingerprint(&mut tally, op, got, want.ok(), || format!("{class:?} on circuit {j}"));
    }

    println!(
        "signoff: {n} {SPEC} circuits x {{add, elim, peel}} at k={K}, threads {THREADS}; {checked} checked against threads 1"
    );
    let mut metrics = vec![
        Metric::new(
            "setup_s",
            "generate the run's circuits (median of 15, scaled)",
            setups.scaled.median() / 1e3,
            "s",
            SETUP_REPS,
        ),
        Metric::new(
            "peak_rss_mb",
            "peak RSS while querying one circuit (median)",
            rss.median(),
            "MiB",
            rss.len(),
        ),
    ];
    for (key, class, t) in [
        ("op_a_ms", "topk_add", &lat[0]),
        ("op_b_ms", "topk_elim", &lat[1]),
        ("op_c_ms", "topk_peel", &lat[2]),
    ] {
        metrics.push(Metric::new(key, class, t.scaled.trimmed_mean(), "ms", t.len()));
        metrics.push(Metric::new(
            "",
            "  unscaled trimmed mean",
            t.wall.trimmed_mean(),
            "ms",
            t.len(),
        ));
        metrics.push(Metric::new("", "  unscaled median", t.wall.median(), "ms", t.len()));
    }
    Ok(Outcome { tally, metrics })
}

/// Fails operation `op` unless it produced a fingerprint equal to the
/// reference one.
pub fn check_fingerprint(
    tally: &mut Tally,
    op: usize,
    got: Option<u64>,
    want: Option<u64>,
    what: impl FnOnce() -> String,
) {
    if got.is_none() || got != want {
        tally.fail(op, format!("{}: fingerprint {got:x?} != reference {want:x?}", what()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_wrong_reference_drives_ok_share_below_one() {
        let circuit = suite::benchmark("i1", 3).unwrap();
        let engine =
            TopKAnalysis::new(&circuit, TopKConfig { threads: 1, ..TopKConfig::default() });
        let mut tally = Tally::default();
        for class in Class::ALL {
            let got = query(&engine, class).unwrap().identity_fingerprint();
            let op = tally.attempt(true, String::new);
            check_fingerprint(&mut tally, op, Some(got), Some(got), String::new);
            let op = tally.attempt(true, String::new);
            check_fingerprint(&mut tally, op, Some(got), Some(got ^ 1), || "tampered".into());
        }
        assert_eq!(tally.attempted(), 6);
        assert_eq!(tally.failed(), 3);
        assert!(tally.ok_share() < 1.0);
    }
}
