//! In-process probe of the serving layer, for traced runs.
//!
//! Seeded small circuits are opened as tenants of one `SessionManager`
//! whose LRU capacity is below the tenant count, so tenants spill and
//! reload. Two generator threads of this process send a fixed seeded mix
//! of reads (`query` pages) and writes (`scenario`, `batch`, `commit`)
//! open loop at a fixed rate; each request is timed from when it was due.
//! Two threads can have one tenant's jobs queued at once, so scenario
//! jobs can coalesce. No workload in `BENCHMARK.json` serves, so these
//! numbers describe the layer, not a tracked workload.

use std::time::{Duration, Instant};

use dna_netlist::generator::{generate as generate_circuit, GeneratorConfig};
use dna_netlist::{Circuit, CouplingId};
use dna_topk::serve::{Response, ServeConfig, SessionManager};
use dna_topk::{MaskDelta, Mode, TopKConfig};

use crate::stats::Samples;
use crate::{mix, Ctx, Rng};

/// Tenant circuit size: small, so a write costs tens of milliseconds.
const TENANT_GATES: usize = 40;
const TENANT_COUPLINGS: usize = 150;
const TENANTS: usize = 3;
const CAPACITY: usize = 1;
const K: usize = 5;
const THREADS: usize = 1;
/// Generator threads, each one client.
const CLIENTS: usize = 2;
const RATE_PER_S: f64 = 6.0;
const BLOCKS: usize = 2;

#[derive(Debug, Clone, PartialEq)]
enum Op {
    Query { start_after: Option<usize>, limit: usize },
    Scenario(Vec<u32>),
    Batch(Vec<u32>),
    Commit { remove: Vec<u32>, add: Vec<u32> },
}

#[derive(Debug, Clone, PartialEq)]
struct Req {
    tenant: usize,
    op: Op,
    /// Due time from the start of the run.
    due_ms: f64,
    /// Client that sends it: a tenant's commits always share one
    /// client, so they stay in order; everything else alternates.
    client: usize,
}

impl Req {
    fn call(&self, manager: &SessionManager) -> Response {
        let ids = |v: &[u32]| v.iter().map(|&c| CouplingId::new(c)).collect::<Vec<_>>();
        let t = tenant_name(self.tenant);
        match &self.op {
            Op::Query { start_after, limit } => manager.query(&t, *start_after, *limit),
            Op::Scenario(r) => manager.scenario(&t, MaskDelta::remove(&ids(r))),
            Op::Batch(r) => {
                manager.batch(&t, r.iter().map(|&c| MaskDelta::remove(&ids(&[c]))).collect())
            }
            Op::Commit { remove, add } => {
                manager.commit(&t, MaskDelta::new(&ids(remove), &ids(add)))
            }
        }
    }
}

fn tenant_name(i: usize) -> String {
    format!("t{i}")
}

fn mode_of(i: usize) -> Mode {
    if i.is_multiple_of(2) {
        Mode::Addition
    } else {
        Mode::Elimination
    }
}

/// Request kinds of one block of the mix, shuffled per block: five
/// reads, four scenarios, one batch of three alternatives and two
/// commits that remove or restore one coupling.
const BLOCK: [u8; 12] = [0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 3, 3];

/// The seeded request sequence: `blocks` whole blocks at `rate` per second.
fn generate(seed: u64, couplings: &[usize], blocks: usize, rate: f64) -> Vec<Req> {
    let mut rng = Rng::new(mix(seed, 0x5e7e));
    let mut removed: Vec<Vec<u32>> = vec![Vec::new(); couplings.len()];
    let mut out = Vec::with_capacity(blocks * BLOCK.len());
    for _ in 0..blocks {
        let mut kinds = BLOCK;
        for i in (1..kinds.len()).rev() {
            kinds.swap(i, rng.below(i + 1));
        }
        for kind in kinds {
            let tenant = rng.below(couplings.len());
            let n = couplings[tenant];
            let pick = |rng: &mut Rng| rng.below(n) as u32;
            let op = match kind {
                0 => Op::Query { start_after: (rng.below(2) == 0).then(|| rng.below(n)), limit: 4 },
                1 => Op::Scenario(vec![pick(&mut rng)]),
                2 => Op::Batch((0..3).map(|_| pick(&mut rng)).collect()),
                _ => {
                    let r = &mut removed[tenant];
                    if !r.is_empty() && rng.below(2) == 0 {
                        let c = r.swap_remove(rng.below(r.len()));
                        Op::Commit { remove: Vec::new(), add: vec![c] }
                    } else {
                        let c = pick(&mut rng);
                        if !r.contains(&c) {
                            r.push(c);
                        }
                        Op::Commit { remove: vec![c], add: Vec::new() }
                    }
                }
            };
            let client = if let Op::Commit { .. } = op { tenant } else { out.len() } % CLIENTS;
            let due_ms = out.len() as f64 * 1e3 / rate;
            out.push(Req { tenant, op, due_ms, client });
        }
    }
    out
}

/// The tenants' circuits.
fn tenants(seed: u64) -> Result<Vec<Circuit>, String> {
    (0..TENANTS as u64)
        .map(|i| {
            let config = GeneratorConfig::new(TENANT_GATES, TENANT_COUPLINGS)
                .with_seed(mix(seed, 0x7e4 + i));
            generate_circuit(&config).map_err(|e| format!("generate tenant: {e}"))
        })
        .collect()
}

fn open_local(circuits: &[Circuit]) -> Result<SessionManager, String> {
    let manager = SessionManager::new(ServeConfig { capacity: CAPACITY, ..ServeConfig::default() });
    let config = TopKConfig { threads: THREADS, ..TopKConfig::default() };
    for (i, c) in circuits.iter().enumerate() {
        match manager.open(&tenant_name(i), c.clone(), mode_of(i), K, config) {
            Response::Opened { .. } => {}
            other => return Err(format!("open tenant {i}: {other:?}")),
        }
    }
    Ok(manager)
}

/// What one client saw for one request.
struct Sent {
    service_ms: f64,
    client_ms: f64,
    late_ms: f64,
    response: Response,
}

/// Drives the seeded mix open loop from `CLIENTS` threads and records
/// the serve and generator counters.
pub fn probe(ctx: &mut Ctx) -> Result<(), String> {
    let circuits = tenants(ctx.seed)?;
    let manager = open_local(&circuits)?;
    let couplings: Vec<usize> = circuits.iter().map(Circuit::num_couplings).collect();
    let reqs = generate(ctx.seed, &couplings, BLOCKS, RATE_PER_S);
    let start = Instant::now() + Duration::from_millis(20);
    let sent = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let (reqs, manager) = (&reqs, &manager);
                s.spawn(move || {
                    let mut out = Vec::new();
                    for q in reqs.iter().filter(|q| q.client == c) {
                        let due = start + Duration::from_secs_f64(q.due_ms / 1e3);
                        let now = Instant::now();
                        let late_ms = if now < due {
                            std::thread::sleep(due - now);
                            due.elapsed().as_secs_f64() * 1e3
                        } else {
                            (now - due).as_secs_f64() * 1e3
                        };
                        let sent = Instant::now();
                        let response = q.call(manager);
                        let service_ms = sent.elapsed().as_secs_f64() * 1e3;
                        let client_ms = due.elapsed().as_secs_f64() * 1e3;
                        out.push(Sent { service_ms, client_ms, late_ms, response });
                    }
                    out
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join()).collect::<Result<Vec<_>, _>>()
    })
    .map_err(|_| "serve probe client panicked".to_owned())?;
    let mut late = Samples::default();
    let tr = &mut ctx.tr;
    for r in sent.iter().flatten() {
        late.push(r.late_ms);
        tr.count("serve.service_ms", r.service_ms);
        tr.count("serve.client_ms", r.client_ms);
        tr.count("serve.client_requests", 1.0);
        match &r.response {
            Response::Scenario { coalesced, .. } | Response::Batch { coalesced, .. } => {
                tr.count("serve.scenario_jobs", 1.0);
                tr.count("serve.coalesced", f64::from(u8::from(*coalesced > 1)));
            }
            Response::Error(e) if e.code.as_str() == "overloaded" => {
                tr.count("serve.overloaded", 1.0)
            }
            _ => {}
        }
    }
    if let Response::Stats(s) = manager.stats() {
        tr.count("serve.reloads", s.reloads as f64);
        tr.count("serve.reload_fallbacks", s.reload_fallbacks as f64);
    }
    tr.count("gen.late_ms", late.quantile(1.0));
    tr.count("gen.sends", late.len() as f64);
    let _ = manager.shutdown();
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_mix_is_seeded() {
        let a = generate(7, &[40, 50], 3, 10.0);
        assert_eq!(a.iter().filter(|q| matches!(q.op, Op::Query { .. })).count(), 15);
        assert_eq!(a, generate(7, &[40, 50], 3, 10.0));
        assert_ne!(a, generate(8, &[40, 50], 3, 10.0));
    }
}
