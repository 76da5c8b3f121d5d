//! Per-layer metrics of a traced run.
//!
//! Workloads record spans and counters around their own calls into each
//! layer. A traced run must report every layer, so layers its workload
//! never calls are exercised by a small fixed probe (`complete`); the
//! probe's numbers describe that layer, not the workload, and their
//! `metric` lines say so.

use std::hint::black_box;
use std::time::Instant;

use dna_netlist::suite;
use dna_noise::envelope_calc::victim_envelopes;
use dna_noise::{NoiseAnalysis, NoiseConfig};
use dna_topk::{TopKAnalysis, TopKConfig, TopKResult};
use dna_waveform::Envelope;

use crate::stats::Samples;
use crate::trace::{span_cost_ns, Tracer};
use crate::{mix, signoff, timed, Ctx, Metric};

/// Kinds of cold top-k query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    Add = 0,
    Elim = 1,
    Peel = 2,
}

impl Class {
    pub const ALL: [Class; 3] = [Class::Add, Class::Elim, Class::Peel];

    pub fn span(self) -> &'static str {
        match self {
            Class::Add => "enum.add",
            Class::Elim => "enum.elim",
            Class::Peel => "enum.peel",
        }
    }
}

/// Enumeration and scheduler counters of one finished query.
pub fn record_query(tr: &mut Tracer, class: Class, r: &TopKResult, peel_step: usize) {
    if !tr.enabled() {
        return;
    }
    tr.count("enum.queries", 1.0);
    tr.count("enum.generated", r.generated_candidates() as f64);
    tr.count("enum.materialized", r.sweep_stats().materialized as f64);
    tr.count("enum.peak_list_width", r.peak_list_width() as f64);
    if class == Class::Peel {
        tr.count("enum.peel_queries", 1.0);
        tr.count("enum.peel_rounds", r.couplings().len().div_ceil(peel_step) as f64);
    }
    let s = r.scheduler_stats();
    let wall_ns = r.runtime().as_nanos() as f64;
    if s.threads() > 0 && wall_ns > 0.0 {
        tr.count("sched.queries", 1.0);
        tr.count("sched.busy_ns", s.busy_ns() as f64);
        tr.count("sched.capacity_ns", s.threads() as f64 * wall_ns);
        let imbalance = if s.max_busy_ns() > 0 {
            1.0 - s.min_busy_ns() as f64 / s.max_busy_ns() as f64
        } else {
            0.0
        };
        tr.count("sched.imbalance", imbalance);
        tr.count("sched.steals", s.steals() as f64);
        tr.count("sched.tail_task_share", s.tail_task_share());
    }
}

/// Runs the probes for every layer the workload left unmeasured and
/// returns the metric-name prefixes of the probed layers.
pub fn complete(ctx: &mut Ctx) -> Result<Vec<&'static str>, String> {
    // The noise analysis, the waveform kernels and serving are never
    // called by a tracked workload's operations.
    let mut probed = vec!["noise.", "waveform.", "serve.", "gen."];
    let circuit = suite::benchmark(signoff::SPEC, mix(ctx.seed, 0)).map_err(|e| e.to_string())?;
    if !ctx.tr.has("netlist.generate") {
        probed.push("netlist.");
        for j in 0..5 {
            let (c, _) = timed(&mut ctx.tr, "netlist.generate", j, || {
                suite::benchmark(signoff::SPEC, mix(ctx.seed, j))
            });
            c.map_err(|e| e.to_string())?;
            ctx.tr.count("netlist.circuits", 1.0);
        }
    }
    if !ctx.tr.has("noise.run") {
        for req in 0..3 {
            let analysis = NoiseAnalysis::new(&circuit, NoiseConfig::default());
            let (report, _) = timed(&mut ctx.tr, "noise.run", req, || analysis.run());
            let report = report.map_err(|e| format!("noise run: {e}"))?;
            ctx.tr.count("noise.iterations", report.iterations() as f64);
        }
    }
    waveform_kernels(&mut ctx.tr, &circuit)?;
    if !ctx.tr.has("enum.add") {
        probed.extend(["enum.", "sched."]);
        let small = suite::benchmark("i1", mix(ctx.seed, 1)).map_err(|e| e.to_string())?;
        let config = TopKConfig { threads: 2, ..TopKConfig::default() };
        for class in Class::ALL {
            let (r, _) = timed(&mut ctx.tr, class.span(), 0, || {
                signoff::query(&TopKAnalysis::new(&small, config), class)
            });
            let r = r.map_err(|e| format!("probe query: {e}"))?;
            record_query(&mut ctx.tr, class, &r, signoff::PEEL_STEP);
        }
    }
    if !ctx.tr.has("session.apply") {
        probed.extend(["session.", "bounds.", "batch.", "persist."]);
        crate::fixloop::probe(ctx)?;
    }
    crate::serve::probe(ctx)?;
    Ok(probed)
}

/// Times the three envelope kernels on per-coupling envelopes of the
/// signoff circuit: the sum and clamped difference the enumeration
/// builds candidates with, and the encapsulation test of dominance.
fn waveform_kernels(tr: &mut Tracer, circuit: &dna_netlist::Circuit) -> Result<(), String> {
    let config = NoiseConfig::default();
    let report =
        NoiseAnalysis::new(circuit, config).run().map_err(|e| format!("noise run: {e}"))?;
    let timings = report.noisy_timing().timings();
    let mut pairs: Vec<(Envelope, Envelope)> = Vec::new();
    let mut points = Samples::default();
    for net in circuit.net_ids() {
        let envs = victim_envelopes(circuit, &config, net, timings, |_| true);
        for w in envs.windows(2) {
            points.push(w[0].1.as_pwl().points().len() as f64);
            pairs.push((w[0].1.clone(), w[1].1.clone()));
        }
        if pairs.len() >= 512 {
            break;
        }
    }
    if pairs.is_empty() {
        return Err("signoff circuit has no coupled victims".into());
    }
    let sums: Vec<Envelope> = pairs.iter().map(|(a, b)| a.sum(b)).collect();
    let per_call_ns = |f: &dyn Fn(usize) -> usize| {
        let mut batches = Samples::default();
        for _ in 0..5 {
            let start = Instant::now();
            let mut sink = 0usize;
            for _ in 0..20 {
                for i in 0..pairs.len() {
                    sink = sink.wrapping_add(f(i));
                }
            }
            black_box(sink);
            batches.push(start.elapsed().as_nanos() as f64 / (20 * pairs.len()) as f64);
        }
        batches.median()
    };
    let sum_ns = per_call_ns(&|i| black_box(pairs[i].0.sum(&pairs[i].1)).as_pwl().points().len());
    let sub_ns =
        per_call_ns(&|i| black_box(sums[i].saturating_sub(&pairs[i].0)).as_pwl().points().len());
    let enc_ns = per_call_ns(&|i| {
        let (a, b) = &pairs[i];
        usize::from(black_box(sums[i].encapsulates(b, a.span().hull(b.span()))))
    });
    tr.count("waveform.sum_ns", sum_ns);
    tr.count("waveform.sub_ns", sub_ns);
    tr.count("waveform.encapsulates_ns", enc_ns);
    tr.count("waveform.points_mean", points.mean());
    tr.count("waveform.pairs", pairs.len() as f64);
    Ok(())
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The per-layer table, in `BENCHMARK.json` order; metrics of the
/// `probed` layers are labelled as probe numbers.
pub fn metrics(tr: &Tracer, probed: &[&str]) -> Vec<Metric> {
    let c = |name: &str| tr.counter(name);
    let d = |name: &str| tr.durations_ms(name);
    let enum_ns: f64 = Class::ALL.iter().map(|k| d(k.span()).sum() * 1e6).sum();
    let requests = c("serve.client_requests");
    // Tracing overhead: spans recorded times what one span costs, over
    // the wall time the top-level spans cover.
    let overhead = ratio(tr.span_count() as f64 * span_cost_ns() / 1e6, tr.top_level_ms());
    let m = |key: &'static str, value: f64, unit: &'static str, n: usize| {
        let probe = probed.iter().any(|p| key.starts_with(p));
        Metric::new(key, if probe { "probe, not this workload" } else { "" }, value, unit, n)
    };
    vec![
        m(
            "netlist.generate_ms",
            ratio(d("netlist.generate").sum(), c("netlist.circuits")),
            "ms",
            c("netlist.circuits") as usize,
        ),
        m("noise.run_ms", d("noise.run").median(), "ms", d("noise.run").len()),
        m(
            "noise.iterations",
            ratio(c("noise.iterations"), d("noise.run").len() as f64),
            "count",
            d("noise.run").len(),
        ),
        m("waveform.sum_ns", c("waveform.sum_ns"), "ns", c("waveform.pairs") as usize),
        m("waveform.sub_ns", c("waveform.sub_ns"), "ns", c("waveform.pairs") as usize),
        m(
            "waveform.encapsulates_ns",
            c("waveform.encapsulates_ns"),
            "ns",
            c("waveform.pairs") as usize,
        ),
        m("waveform.points_mean", c("waveform.points_mean"), "count", c("waveform.pairs") as usize),
        m("enum.add_ms", d("enum.add").median(), "ms", d("enum.add").len()),
        m("enum.elim_ms", d("enum.elim").median(), "ms", d("enum.elim").len()),
        m("enum.peel_ms", d("enum.peel").median(), "ms", d("enum.peel").len()),
        m(
            "enum.generated",
            ratio(c("enum.generated"), c("enum.queries")),
            "count",
            c("enum.queries") as usize,
        ),
        m(
            "enum.materialized_share",
            ratio(c("enum.materialized"), c("enum.generated")),
            "share",
            c("enum.queries") as usize,
        ),
        m(
            "enum.ns_per_candidate",
            ratio(enum_ns, c("enum.generated")),
            "ns",
            c("enum.queries") as usize,
        ),
        m(
            "enum.peak_list_width",
            ratio(c("enum.peak_list_width"), c("enum.queries")),
            "count",
            c("enum.queries") as usize,
        ),
        m(
            "enum.peel_rounds",
            ratio(c("enum.peel_rounds"), c("enum.peel_queries")),
            "count",
            c("enum.peel_queries") as usize,
        ),
        m(
            "sched.busy_share",
            ratio(c("sched.busy_ns"), c("sched.capacity_ns")),
            "share",
            c("sched.queries") as usize,
        ),
        m(
            "sched.imbalance",
            ratio(c("sched.imbalance"), c("sched.queries")),
            "share",
            c("sched.queries") as usize,
        ),
        m(
            "sched.steals",
            ratio(c("sched.steals"), c("sched.queries")),
            "count",
            c("sched.queries") as usize,
        ),
        m(
            "sched.tail_task_share",
            ratio(c("sched.tail_task_share"), c("sched.queries")),
            "share",
            c("sched.queries") as usize,
        ),
        m("session.open_ms", d("session.open").median(), "ms", d("session.open").len()),
        m("session.apply_ms", d("session.apply").median(), "ms", d("session.apply").len()),
        m(
            "session.reswept_share",
            ratio(c("session.recomputed"), c("session.victims")),
            "share",
            d("session.apply").len(),
        ),
        m(
            "session.cached_share",
            ratio(c("session.cached"), c("session.victims")),
            "share",
            d("session.apply").len(),
        ),
        m(
            "bounds.proven_clean_share",
            ratio(c("bounds.proven_clean"), c("bounds.structural_dirty")),
            "share",
            d("session.apply").len(),
        ),
        m(
            "batch.ms_per_scenario",
            ratio(d("batch.apply").sum(), c("batch.scenarios")),
            "ms",
            c("batch.scenarios") as usize,
        ),
        m(
            "batch.frames_shared_share",
            ratio(c("batch.frames_shared"), c("batch.frames_built")),
            "share",
            d("batch.apply").len(),
        ),
        m(
            "batch.dirty_victims",
            ratio(c("batch.dirty_victims"), c("batch.scenarios")),
            "count",
            c("batch.scenarios") as usize,
        ),
        m("persist.commit_ms", d("persist.commit").median(), "ms", d("persist.commit").len()),
        m(
            "persist.commit_bytes",
            ratio(c("persist.commit_bytes"), d("persist.commit").len() as f64),
            "bytes",
            d("persist.commit").len(),
        ),
        m(
            "persist.delta_share",
            ratio(c("persist.delta_commits"), d("persist.commit").len() as f64),
            "share",
            d("persist.commit").len(),
        ),
        m("persist.resume_ms", d("persist.resume").median(), "ms", d("persist.resume").len()),
        m(
            "persist.chain_mb",
            ratio(c("persist.chain_bytes"), c("persist.chains")) / (1024.0 * 1024.0),
            "MiB",
            c("persist.chains") as usize,
        ),
        m("serve.service_ms", ratio(c("serve.service_ms"), requests), "ms", requests as usize),
        m(
            "serve.wait_ms",
            ratio(c("serve.client_ms") - c("serve.service_ms"), requests),
            "ms",
            requests as usize,
        ),
        m(
            "serve.coalesced_share",
            ratio(c("serve.coalesced"), c("serve.scenario_jobs")),
            "share",
            c("serve.scenario_jobs") as usize,
        ),
        m("serve.reloads", c("serve.reloads"), "count", 1),
        m("serve.reload_fallbacks", c("serve.reload_fallbacks"), "count", 1),
        m("serve.overloaded", c("serve.overloaded"), "count", requests as usize),
        m("gen.late_ms", c("gen.late_ms"), "ms", c("gen.sends") as usize),
        m("trace.overhead_share", overhead, "share", tr.span_count()),
    ]
}
