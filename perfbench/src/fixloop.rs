//! `fixloop`: designers' ECO loops on small circuits at one analysis
//! thread.
//!
//! Each loop opens a what-if session, then applies a seeded sequence of
//! single-coupling removals and restores, committing every step to an
//! artifact chain on disk. Removed couplings are drawn uniformly within
//! quartiles of their structural dirty-closure size, visited in turn, so
//! every run holds the same mix of small and large closures (from a few
//! victims to most of the circuit) rather than a random one; a restore
//! re-enables a seeded choice among the couplings the loop removed so
//! far. Every few steps it evaluates a batch of alternative fixes, and it
//! ends by resuming the chain tip from disk several times. Session,
//! bounds, batch and persistence do the work; at one thread the
//! scheduler is bypassed.

use std::path::Path;

use dna_netlist::{suite, Circuit, CouplingId};
use dna_topk::{
    commit_chain, CommitOptions, MaskDelta, Mode, SaveKind, TopKAnalysis, TopKConfig, WhatIfBatch,
    WhatIfSession,
};

use crate::speed::{self, Timings};
use crate::stats::Samples;
use crate::{mix, peak_rss_mb, reset_peak_rss, timed, Ctx, Metric, Outcome, Rng, Tally};

const SPEC: &str = "i1";
const K: usize = 5;
const THREADS: usize = 1;
/// Loops per second of `--seconds`, alternating addition and elimination.
const LOOPS_PER_SECOND: f64 = 1.2;
/// Closure-size groups the couplings are drawn from in turn.
const STRATA: usize = 4;

/// Shape of one loop.
#[derive(Clone, Copy)]
struct Plan {
    steps: usize,
    /// Every this-many-th step restores a coupling instead of removing one.
    restore_every: usize,
    batch_every: usize,
    resumes: usize,
    /// One step in this many is compared against a from-scratch run.
    check_every: u64,
}

/// Short loops, many of them: the between-circuit spread of step time
/// dominates a run's spread, so circuits count more than steps.
const PLAN: Plan = Plan { steps: 4, restore_every: 4, batch_every: 3, resumes: 4, check_every: 8 };
const PROBE_PLAN: Plan =
    Plan { steps: 4, restore_every: 2, batch_every: 2, resumes: 2, check_every: 2 };

#[derive(Default)]
struct Acc {
    setup: Timings,
    fix: Timings,
    batch_per_scenario: Timings,
    /// Not speed-scaled: a resume is short and partly file I/O, and
    /// scaling did not narrow its spread.
    resume: Samples,
    restores: usize,
    rss: Samples,
    tally: Tally,
}

pub fn run(ctx: &mut Ctx) -> Result<Outcome, String> {
    let loops = ((ctx.seconds as f64 * LOOPS_PER_SECOND).ceil() as usize).max(2);
    let mut acc = Acc::default();
    for i in 0..loops {
        run_loop(ctx, i, PLAN, &mut acc)?;
    }
    println!(
        "fixloop: {loops} loops on {SPEC} circuits (k={K}, threads {THREADS}), {} steps ({} restores), {} batches, {} resumes",
        acc.fix.len(),
        acc.restores,
        acc.batch_per_scenario.len(),
        acc.resume.len()
    );
    let mut metrics = vec![
        Metric::new(
            "setup_s",
            "generate + session start + first checkpoint (trimmed mean per loop, scaled)",
            acc.setup.scaled.trimmed_mean() / 1e3,
            "s",
            acc.setup.len(),
        ),
        Metric::new(
            "peak_rss_mb",
            "peak RSS during one loop (trimmed mean)",
            acc.rss.trimmed_mean(),
            "MiB",
            acc.rss.len(),
        ),
    ];
    for (key, label, t) in [
        ("op_a_ms", "fix: apply + commit of one step", &acc.fix),
        ("op_b_ms", "batch_ms_per_scenario", &acc.batch_per_scenario),
    ] {
        metrics.push(Metric::new(key, label, t.scaled.trimmed_mean(), "ms", t.len()));
        metrics.push(Metric::new(
            "",
            "  unscaled trimmed mean",
            t.wall.trimmed_mean(),
            "ms",
            t.len(),
        ));
    }
    metrics.push(Metric::new(
        "op_c_ms",
        "resume: read chain + resume_at tip (unscaled trimmed mean)",
        acc.resume.trimmed_mean(),
        "ms",
        acc.resume.len(),
    ));
    metrics.push(Metric::new("", "  unscaled fix_p50", acc.fix.wall.median(), "ms", acc.fix.len()));
    if let Some(p90) = acc.fix.wall.p90() {
        metrics.push(Metric::new("", "  unscaled fix_p90", p90, "ms", acc.fix.len()));
    }
    Ok(Outcome { metrics, tally: acc.tally })
}

/// A single short loop, for traced runs of workloads that never call the
/// session, batch or persistence layers.
pub fn probe(ctx: &mut Ctx) -> Result<(), String> {
    run_loop(ctx, 0, PROBE_PLAN, &mut Acc::default())
}

fn run_loop(ctx: &mut Ctx, index: usize, plan: Plan, acc: &mut Acc) -> Result<(), String> {
    let mode = if index.is_multiple_of(2) { Mode::Addition } else { Mode::Elimination };
    let seed = mix(ctx.seed, 0xf1c5 + index as u64);
    let chain = ctx.work.join(format!("loop-{index}.dnawifa"));
    let _ = std::fs::remove_file(&chain);
    let config = TopKConfig { threads: THREADS, ..TopKConfig::default() };

    reset_peak_rss()?;
    let before = speed::sample(THREADS);
    let setup = ctx.tr.begin("op.setup", index as u64);
    let start = std::time::Instant::now();
    let (circuit, _) =
        timed(&mut ctx.tr, "netlist.generate", index as u64, || suite::benchmark(SPEC, seed));
    ctx.tr.count("netlist.circuits", 1.0);
    let circuit = circuit.map_err(|e| format!("generate {SPEC}: {e}"))?;
    let analysis = TopKAnalysis::new(&circuit, config);
    let (session, _) = timed(&mut ctx.tr, "session.open", index as u64, || {
        WhatIfSession::start(&analysis, mode, K)
    });
    let mut session = session.map_err(|e| format!("session start: {e}"))?;
    commit_chain(&mut session, &chain, &CommitOptions::default())
        .map_err(|e| format!("first commit: {e}"))?;
    ctx.tr.end(setup);
    acc.setup.push(start.elapsed().as_secs_f64() * 1e3, before, speed::sample(THREADS));

    let mut rng = Rng::new(seed);
    let strata = strata(&circuit);
    let mut removed: Vec<CouplingId> = Vec::new();
    for step in 0..plan.steps {
        let req = (index * 1000 + step) as u64;
        let delta = if (step + 1) % plan.restore_every == 0 && !removed.is_empty() {
            acc.restores += 1;
            MaskDelta::add(&[removed.swap_remove(rng.below(removed.len()))])
        } else {
            let group = &strata[(index + step) % strata.len()];
            let coupling = group[rng.below(group.len())];
            removed.push(coupling);
            MaskDelta::remove(&[coupling])
        };
        let before = speed::sample(THREADS);
        let op = ctx.tr.begin("op.fix", req);
        let (outcome, apply_ms) =
            timed(&mut ctx.tr, "session.apply", req, || session.apply(&delta));
        let (report, commit_ms) = timed(&mut ctx.tr, "persist.commit", req, || {
            commit_chain(&mut session, &chain, &CommitOptions::default())
        });
        ctx.tr.end(op);
        acc.fix.push(apply_ms + commit_ms, before, speed::sample(THREADS));
        let ok = match (&outcome, &report) {
            (Ok(o), Ok(_)) => !o.result().is_degraded(),
            _ => false,
        };
        let id =
            acc.tally.attempt(ok, || format!("fix step {step} of loop {index} failed or degraded"));
        if let (Ok(o), Ok(r)) = (&outcome, &report) {
            record_apply(ctx, o);
            ctx.tr.count("persist.commit_bytes", r.bytes_written as f64);
            if matches!(r.kind, SaveKind::Delta(_)) {
                ctx.tr.count("persist.delta_commits", 1.0);
            }
            if rng.next_u64().is_multiple_of(plan.check_every) {
                let scratch = analysis
                    .run_with_mask(mode, K, session.mask())
                    .map(|r| r.identity_fingerprint());
                if scratch.ok() != Some(o.result().identity_fingerprint()) {
                    acc.tally.fail(
                        id,
                        format!("fix step {step} of loop {index} != from-scratch run_with_mask"),
                    );
                }
            }
        }
        if (step + 1) % plan.batch_every == 0 {
            // The batch draws from alternate closure-size groups;
            // consecutive loop pairs take the other two groups, so both
            // modes see all four.
            let groups: Vec<_> =
                strata.iter().skip((index / 2 + step) % 2).step_by(2).cloned().collect();
            run_batch(ctx, &analysis, &session, &groups, &mut rng, req, acc);
        }
    }

    let tip = session.generation();
    let live = session.result().identity_fingerprint();
    for r in 0..plan.resumes {
        let req = (index * 1000 + r) as u64;
        let (resumed, ms) =
            timed(&mut ctx.tr, "persist.resume", req, || resume_tip(&analysis, &chain, tip));
        acc.resume.push(ms);
        let ok = resumed.as_ref().is_ok_and(|&fp| fp == live);
        acc.tally
            .attempt(ok, || format!("resume {r} of loop {index}: {resumed:x?} != live {live:x}"));
    }
    acc.rss.push(peak_rss_mb()?);
    let chain_bytes = std::fs::metadata(&chain).map(|m| m.len()).unwrap_or(0);
    ctx.tr.count("persist.chain_bytes", chain_bytes as f64);
    ctx.tr.count("persist.chains", 1.0);
    let _ = std::fs::remove_file(&chain);
    Ok(())
}

fn record_apply(ctx: &mut Ctx, o: &dna_topk::WhatIfOutcome) {
    ctx.tr.count("session.recomputed", o.recomputed_victims() as f64);
    ctx.tr.count("session.cached", o.cached_victims() as f64);
    ctx.tr.count("session.victims", o.total_victims() as f64);
    ctx.tr.count("bounds.proven_clean", o.proven_clean_victims() as f64);
    ctx.tr.count("bounds.structural_dirty", o.structural_dirty_victims() as f64);
}

/// Reads the chain file and replays it to generation `tip`.
fn resume_tip(analysis: &TopKAnalysis<'_>, chain: &Path, tip: u64) -> Result<u64, String> {
    let bytes = std::fs::read(chain).map_err(|e| e.to_string())?;
    let session = WhatIfSession::resume_at(analysis, &bytes, tip).map_err(|e| e.to_string())?;
    Ok(session.result().identity_fingerprint())
}

/// Couplings in `STRATA` equal groups by the size of their structural
/// dirty closure, smallest first.
fn strata(circuit: &Circuit) -> Vec<Vec<CouplingId>> {
    let mut by_size: Vec<(usize, CouplingId)> = circuit
        .coupling_ids()
        .map(|id| {
            let c = circuit.coupling(id);
            (circuit.dirty_closure(&[c.a(), c.b()]).iter().filter(|&&d| d).count(), id)
        })
        .collect();
    by_size.sort_unstable();
    by_size
        .chunks(by_size.len().div_ceil(STRATA))
        .map(|g| g.iter().map(|&(_, id)| id).collect())
        .collect()
}

/// Evaluates alternative fixes against the current session: removing
/// the lowest-numbered of one enabled coupling per given closure-size
/// group alone, and removing all of them. The scenarios share the first
/// fix's closure as a prefix. The first scenario is checked from scratch.
fn run_batch(
    ctx: &mut Ctx,
    analysis: &TopKAnalysis<'_>,
    session: &WhatIfSession<'_, '_>,
    strata: &[Vec<CouplingId>],
    rng: &mut Rng,
    req: u64,
    acc: &mut Acc,
) {
    let mask = session.mask();
    let mut removals: Vec<CouplingId> = strata
        .iter()
        .filter_map(|group| {
            let enabled: Vec<CouplingId> =
                group.iter().copied().filter(|&c| mask.is_enabled(c)).collect();
            (!enabled.is_empty()).then(|| enabled[rng.below(enabled.len())])
        })
        .collect();
    removals.sort_unstable();
    removals.dedup();
    if removals.is_empty() {
        return;
    }
    let mut deltas = vec![MaskDelta::remove(&removals[..1])];
    if removals.len() > 1 {
        deltas.push(MaskDelta::remove(&removals));
    }
    let size = deltas.len();
    let batch = WhatIfBatch::from_deltas(deltas);
    let before = speed::sample(THREADS);
    let (outcome, ms) = timed(&mut ctx.tr, "batch.apply", req, || session.apply_batch(&batch));
    acc.batch_per_scenario.push(ms / size as f64, before, speed::sample(THREADS));
    let ok =
        outcome.as_ref().is_ok_and(|b| b.scenarios().iter().all(|s| !s.result().is_degraded()));
    let id = acc.tally.attempt(ok, || format!("batch at request {req} failed or degraded"));
    let Ok(outcome) = outcome else { return };
    let stats = outcome.stats();
    ctx.tr.count("batch.scenarios", stats.scenarios() as f64);
    ctx.tr.count("batch.frames_shared", stats.closure_frames_shared() as f64);
    ctx.tr.count("batch.frames_built", stats.closure_frames_built() as f64);
    ctx.tr.count("batch.dirty_victims", stats.dirty_victims() as f64);
    let mask = session.mask().clone().without(&removals[..1]);
    let scratch = analysis
        .run_with_mask(session.mode(), session.k(), &mask)
        .map(|r| r.identity_fingerprint());
    if scratch.ok() != outcome.scenarios().first().map(|s| s.result().identity_fingerprint()) {
        acc.tally
            .fail(id, format!("batch at request {req}: scenario 0 != from-scratch run_with_mask"));
    }
}
