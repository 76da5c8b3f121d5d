//! End-to-end and per-layer benchmark of the top-k aggressor engine.
//!
//! ```text
//! perfbench --workload signoff|fixloop --seed N --seconds S --trace 0|1 [--work DIR]
//! ```
//!
//! Each workload issues a fixed operation sequence generated from the
//! seed; `--seconds` scales the operation counts by a fixed factor, the
//! clock never bounds them. Every metric is printed as a `metric` line
//! with its unit and sample count, and the last line of standard output
//! is one JSON object: the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1`. See `perfbench/README.md`.

mod exact;
mod fixloop;
mod layers;
mod serve;
mod signoff;
mod speed;
mod stats;
mod trace;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use trace::Tracer;

/// Everything a workload needs from the command line.
pub struct Ctx {
    pub seed: u64,
    pub seconds: u64,
    /// Scratch directory for artifact chains.
    pub work: PathBuf,
    pub tr: Tracer,
}

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name in `BENCHMARK.json`; empty for numbers printed only.
    pub key: &'static str,
    /// What the number is on this workload.
    pub label: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the value.
    pub n: usize,
}

impl Metric {
    pub fn new(
        key: &'static str,
        label: &'static str,
        value: f64,
        unit: &'static str,
        n: usize,
    ) -> Self {
        Self { key, label, value, unit, n }
    }
}

/// Per-operation verdicts behind `ok_share`: an operation counts as ok
/// only when it completed, was not degraded, and every check run on its
/// answer agreed.
#[derive(Debug, Default)]
pub struct Tally {
    ok: Vec<bool>,
    notes: Vec<String>,
}

impl Tally {
    /// Registers an attempted operation and returns its index.
    pub fn attempt(&mut self, ok: bool, why: impl FnOnce() -> String) -> usize {
        self.ok.push(ok);
        if !ok {
            self.notes.push(why());
        }
        self.ok.len() - 1
    }

    /// Marks an already registered operation as failed.
    pub fn fail(&mut self, op: usize, why: String) {
        if std::mem::replace(&mut self.ok[op], false) {
            self.notes.push(why);
        }
    }

    pub fn attempted(&self) -> usize {
        self.ok.len()
    }

    pub fn failed(&self) -> usize {
        self.ok.iter().filter(|&&ok| !ok).count()
    }

    pub fn ok_share(&self) -> f64 {
        if self.ok.is_empty() {
            0.0
        } else {
            (self.attempted() - self.failed()) as f64 / self.attempted() as f64
        }
    }

    pub fn notes(&self) -> &[String] {
        &self.notes
    }
}

/// What a workload hands back.
pub struct Outcome {
    pub tally: Tally,
    /// End-to-end numbers; every `BENCHMARK.json` key except
    /// `exact_share` and `ok_share`, which `main` adds.
    pub metrics: Vec<Metric>,
}

/// End-to-end keys every workload reports, in `BENCHMARK.json` order.
const END_TO_END: [&str; 7] =
    ["setup_s", "peak_rss_mb", "ok_share", "exact_share", "op_a_ms", "op_b_ms", "op_c_ms"];

/// Runs `f` and returns its value with the elapsed milliseconds, inside
/// a span when tracing.
pub fn timed<T>(
    tr: &mut Tracer,
    name: &'static str,
    request: u64,
    f: impl FnOnce() -> T,
) -> (T, f64) {
    let span = tr.begin(name, request);
    let start = Instant::now();
    let value = f();
    let ms = start.elapsed().as_secs_f64() * 1e3;
    tr.end(span);
    (value, ms)
}

/// Deterministic 64-bit mix (splitmix64) for deriving sub-seeds.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Small seeded generator for operation sequences.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(mix(seed, 0x5eed))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0, 0)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Resets this process's peak resident set (Linux `clear_refs`), so the
/// next `peak_rss_mb()` covers only what runs after it.
pub fn reset_peak_rss() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5").map_err(|e| format!("cannot reset peak RSS: {e}"))
}

/// Peak resident set of this process, in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let path = "/proc/self/status";
    let status = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| format!("no VmHWM in {path}"))?;
    Ok(kb / 1024.0)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    work: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut work = PathBuf::from(".bench_work");
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || value.parse::<u64>().map_err(|e| format!("{flag} {value}: {e}"));
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?.max(1)),
            "--trace" => trace = Some(num()? != 0),
            "--work" => work = PathBuf::from(&value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        work,
    })
}

fn run(args: Args) -> Result<String, String> {
    let work = args.work.join(format!("{}-{}-{}", args.workload, args.seed, std::process::id()));
    std::fs::create_dir_all(&work).map_err(|e| format!("cannot create {}: {e}", work.display()))?;
    let mut ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        work: work.clone(),
        tr: Tracer::new(args.trace),
    };
    let outcome = match args.workload.as_str() {
        "signoff" => signoff::run(&mut ctx),
        "fixloop" => fixloop::run(&mut ctx),
        other => Err(format!("unknown workload `{other}` (signoff, fixloop)")),
    };
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            let _ = std::fs::remove_dir_all(&work);
            return Err(e);
        }
    };
    let mut metrics = outcome.metrics;
    metrics.push(Metric::new(
        "ok_share",
        "verified operations / attempted",
        outcome.tally.ok_share(),
        "share",
        outcome.tally.attempted(),
    ));
    let metrics = if args.trace {
        let probed = layers::complete(&mut ctx)?;
        let trace_file = args.work.join(format!("trace-{}-{}.jsonl", args.workload, args.seed));
        ctx.tr.write_jsonl(&trace_file).map_err(|e| format!("cannot write trace: {e}"))?;
        println!("trace: {} spans written to {}", ctx.tr.span_count(), trace_file.display());
        print_metrics(&metrics);
        layers::metrics(&ctx.tr, &probed)
    } else {
        let start = Instant::now();
        let agreement = exact::measure()?;
        println!(
            "exact_share: {}/{} one-pass answers equal the brute-force optimum ({:.1} s)",
            agreement.exact,
            agreement.total,
            start.elapsed().as_secs_f64()
        );
        metrics.push(Metric::new(
            "exact_share",
            "one-pass impact == brute-force optimum (fixed 12-gate sweep)",
            agreement.exact as f64 / agreement.total as f64,
            "share",
            agreement.total,
        ));
        for key in END_TO_END {
            if !metrics.iter().any(|m| m.key == key) {
                return Err(format!("workload `{}` did not report `{key}`", args.workload));
            }
        }
        metrics
    };
    let _ = std::fs::remove_dir_all(&work);
    print_metrics(&metrics);
    for note in outcome.tally.notes() {
        println!("FAILED: {note}");
    }
    let tally = &outcome.tally;
    let mut json = String::new();
    let _ = write!(
        json,
        r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {{"#,
        tally.failed() == 0,
        tally.attempted(),
        tally.failed()
    );
    let mut first = true;
    for m in metrics.iter().filter(|m| !m.key.is_empty()) {
        if !m.value.is_finite() {
            return Err(format!("metric {} is not finite", m.key));
        }
        let sep = if first { "" } else { ", " };
        first = false;
        let _ = write!(json, r#"{sep}"{}": {{"value": {}, "unit": "{}"}}"#, m.key, m.value, m.unit);
    }
    json.push_str("}}");
    Ok(json)
}

fn print_metrics(metrics: &[Metric]) {
    for m in metrics {
        let key = if m.key.is_empty() { "-" } else { m.key };
        println!("metric {key:<26} {:>14.4} {:<6} n={:<5} {}", m.value, m.unit, m.n, m.label);
    }
}

fn main() -> ExitCode {
    let result = parse_args().and_then(run);
    match result {
        Ok(json) => {
            println!("{json}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
