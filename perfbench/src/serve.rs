//! The server part of a traced run: `crimson-server` over loopback,
//! serving one small gold tree that fits in the pool, driven for half a
//! second on two connections.
//!
//! * Connection A keeps a pipeline of 16 short reads in flight (lca,
//!   is_ancestor, spanning clade, uniform sample, in turn).
//! * Connection B sends the same kind of reads one at a time, and after
//!   every 32 reads a `Sync` tree load; every 4th load is followed by a
//!   `WaitDurable` barrier.
//!
//! Engine work is a few µs per read, so framing, dispatch, coalescing and
//! thread hops dominate what this measures. After the drive the same reads
//! run in-process, one pin each, on an identically built repository: the
//! served answers must equal those embedded answers, and their latency is
//! `serve.embedded_us`. Every op is traced; the figures fill the `client.*`,
//! `server.*` and `serve.*` per-layer metrics.

use std::collections::HashMap;
use std::num::NonZeroU32;
use std::path::Path;
use std::sync::Barrier;
use std::time::{Duration, Instant};

use crimson::prelude::*;
use crimson_server::msg::WireStats;
use crimson_server::{Client, Request, Response, Server, ServerConfig, WireDurability};

use crate::common::{derive, Outcome, Rng, WorkDir};
use crate::inputs::{gold, topology, GoldText};
use crate::layers::Layers;
use crate::oracle::Oracle;
use crate::trace::{Phase, Span, Tracer};
use crate::Args;

const LEAVES: usize = 256;
const PIPELINE: usize = 16;
const READS_PER_WRITE: u64 = 32;
const WRITES_PER_BARRIER: u64 = 4;
const WRITE_LEAVES: usize = 16;
const WRITE_TEXTS: usize = 64;
const CLADE_NODES: usize = 3;
const SAMPLE_K: u32 = 8;
/// Length of the drive.
const DRIVE: Duration = Duration::from_millis(500);
const PINGS: u64 = 200;
const TENANT: &str = "bench";
/// The tenant's buffer pool: the gold tree's pages fit many times over.
const TENANT_POOL_PAGES: usize = 256;
/// Seed streams of the two connections' read sequences.
const CONN_A_STREAM: u64 = 710;
const CONN_B_STREAM: u64 = 720;

/// The inputs both connections draw from.
struct Plan {
    gold_newick: String,
    oracle: Oracle,
    leaves: Vec<StoredNodeId>,
    writes: Vec<String>,
}

/// Start a server and load the plan's gold tree into its tenant.
fn start_server(root: &Path, plan: &Plan) -> Result<Server, String> {
    std::fs::create_dir_all(root).map_err(|e| e.to_string())?;
    let server = Server::start(server_config(), root).map_err(|e| format!("start server: {e}"))?;
    let mut client = Client::connect(server.addr()).map_err(|e| format!("connect: {e}"))?;
    client.attach(TENANT).map_err(|e| format!("attach: {e}"))?;
    let gold = match client.load_tree("gold", &plan.gold_newick, WireDurability::Sync) {
        Ok(Response::TreeLoaded { tree, .. }) => tree,
        other => return Err(format!("load gold: {other:?}")),
    };
    if gold != plan.oracle.handle.0 {
        return Err(format!(
            "gold stored as tree {gold}, expected {}",
            plan.oracle.handle.0
        ));
    }
    match client.call(&Request::Leaves { tree: gold }) {
        Ok(Response::Nodes(mut ids)) => {
            ids.sort_unstable();
            let mut want: Vec<u64> = plan.leaves.iter().map(|l| l.0).collect();
            want.sort_unstable();
            if ids != want {
                return Err("served leaf ids differ from the oracle's".into());
            }
        }
        other => return Err(format!("leaves: {other:?}")),
    }
    Ok(server)
}

fn server_config() -> ServerConfig {
    let mut config = ServerConfig::default();
    config.tenants.buffer_pool_pages = TENANT_POOL_PAGES;
    config
}

fn plan(seed: u64) -> Plan {
    // The tree is loaded as Newick (the wire carries no sequences), so the
    // oracle parses that same text.
    let g: GoldText = gold(LEAVES, 0, derive(seed, 700));
    let tree = phylo::newick::parse(&g.newick).expect("written Newick parses");
    let oracle = Oracle::new(TreeHandle(1), tree);
    let leaves = oracle.leaves();
    let writes = (0..WRITE_TEXTS)
        .map(|i| topology(WRITE_LEAVES, derive(seed, 800 + i as u64)))
        .collect();
    Plan {
        gold_newick: g.newick,
        oracle,
        leaves,
        writes,
    }
}

/// The `n`-th read of a connection.
fn read_request(n: u64, rng: &mut Rng, plan: &Plan) -> Request {
    let leaf = |rng: &mut Rng| plan.leaves[rng.below(plan.leaves.len())].0;
    match n % 4 {
        0 => Request::Lca {
            a: leaf(rng),
            b: leaf(rng),
        },
        1 => Request::IsAncestor {
            ancestor: plan
                .oracle
                .stored(phylo::NodeId(
                    rng.below(plan.oracle.tree.node_count()) as u32
                ))
                .0,
            node: leaf(rng),
        },
        2 => Request::SpanningClade {
            nodes: (0..CLADE_NODES).map(|_| leaf(rng)).collect(),
        },
        _ => Request::SampleUniform {
            tree: plan.oracle.handle.0,
            k: SAMPLE_K,
            seed: rng.next_u64(),
        },
    }
}

/// The 4-byte form of a digest the connection logs keep.
fn short(digest: u64) -> NonZeroU32 {
    NonZeroU32::new((digest as u32) | 1).expect("odd, so non-zero")
}

fn fnv(tag: u8, values: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = (0xcbf2_9ce4_8422_2325u64 ^ tag as u64).wrapping_mul(0x0100_0000_01b3);
    for v in values {
        for b in v.to_le_bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// Digest of a served read answer; errors (including `Overloaded` sheds)
/// are failures.
fn served_digest(resp: &Response) -> Result<u64, String> {
    match resp {
        Response::Node(n) => Ok(fnv(1, [*n])),
        Response::Flag(f) => Ok(fnv(2, [*f as u64])),
        Response::Nodes(ids) => Ok(fnv(3, ids.iter().copied())),
        Response::Error(e) => Err(format!("served error {:?}: {}", e.code, e.message)),
        other => Err(format!("unexpected response {other:?}")),
    }
}

/// The same read, answered in-process.
fn embedded_digest(pinned: &PinnedReader<'_>, req: &Request) -> Result<u64, String> {
    let ids = |v: Vec<StoredNodeId>| v.into_iter().map(|n| n.0);
    let e = |err: CrimsonError| err.to_string();
    match req {
        Request::Lca { a, b } => Ok(fnv(
            1,
            [pinned.lca(StoredNodeId(*a), StoredNodeId(*b)).map_err(e)?.0],
        )),
        Request::IsAncestor { ancestor, node } => Ok(fnv(
            2,
            [pinned
                .is_ancestor(StoredNodeId(*ancestor), StoredNodeId(*node))
                .map_err(e)? as u64],
        )),
        Request::SpanningClade { nodes } => {
            let nodes: Vec<StoredNodeId> = nodes.iter().map(|&n| StoredNodeId(n)).collect();
            Ok(fnv(
                3,
                ids(pinned.minimal_spanning_clade(&nodes).map_err(e)?),
            ))
        }
        Request::SampleUniform { tree, k, seed } => Ok(fnv(
            3,
            ids(pinned
                .sample_uniform(TreeHandle(*tree), *k as usize, *seed)
                .map_err(e)?),
        )),
        other => Err(format!("not a logged read: {other:?}")),
    }
}

/// What one connection did in the drive.
struct ConnLog {
    /// Short digest of each read's answer, in send order (`None` on
    /// failure): 4 bytes per read.
    reads: Vec<Option<NonZeroU32>>,
    op_ms: Vec<f64>,
    failures: Vec<String>,
    spans: Vec<Span>,
}

impl ConnLog {
    fn new() -> ConnLog {
        ConnLog {
            reads: Vec::new(),
            op_ms: Vec::new(),
            failures: Vec::new(),
            spans: Vec::new(),
        }
    }
}

struct Drive<'a> {
    addr: std::net::SocketAddr,
    plan: &'a Plan,
    seed: u64,
    seconds: Duration,
}

/// Connection A: a fixed pipeline of reads.
fn conn_a(d: &Drive<'_>, barrier: &Barrier, tracer: &Tracer) -> ConnLog {
    let mut log = ConnLog::new();
    let mut rng = Rng::new(derive(d.seed, CONN_A_STREAM));
    let client = Client::connect(d.addr).and_then(|mut c| c.attach(TENANT).map(|_| c));
    barrier.wait();
    let mut client = match client {
        Ok(c) => c,
        Err(e) => {
            log.failures.push(format!("connection A: {e}"));
            return log;
        }
    };
    let mut n = 0u64;
    let mut inflight: HashMap<u64, (usize, crate::trace::OpScope<'_>)> = HashMap::new();
    let deadline = Instant::now() + d.seconds;
    loop {
        while Instant::now() < deadline && inflight.len() < PIPELINE {
            let req = read_request(n, &mut rng, d.plan);
            let op = tracer.op(Phase::Probe, (1 << 40) | n, true);
            let t0 = Instant::now();
            match client.send(&req) {
                Ok(corr) => {
                    op.record("client.send", t0, Instant::now());
                    log.reads.push(None);
                    inflight.insert(corr, (log.reads.len() - 1, op));
                }
                Err(e) => {
                    log.failures.push(format!("connection A send: {e}"));
                    return log;
                }
            }
            n += 1;
        }
        if inflight.is_empty() {
            break;
        }
        let t0 = Instant::now();
        let (corr, resp) = match client.recv() {
            Ok(r) => r,
            Err(e) => {
                log.failures.push(format!("connection A recv: {e}"));
                return log;
            }
        };
        let t1 = Instant::now();
        let Some((slot, op)) = inflight.remove(&corr) else {
            log.failures
                .push(format!("connection A: unknown correlation {corr}"));
            return log;
        };
        op.record("client.recv_wait", t0, t1);
        log.op_ms.push(op.finish());
        match served_digest(&resp) {
            Ok(digest) => log.reads[slot] = Some(short(digest)),
            Err(e) => log.failures.push(e),
        }
    }
    log
}

/// Connection B: reads one at a time, with `Sync` loads and barriers.
fn conn_b(d: &Drive<'_>, barrier: &Barrier, tracer: &Tracer) -> ConnLog {
    let mut log = ConnLog::new();
    let mut rng = Rng::new(derive(d.seed, CONN_B_STREAM));
    let client = Client::connect(d.addr).and_then(|mut c| c.attach(TENANT).map(|_| c));
    barrier.wait();
    let mut client = match client {
        Ok(c) => c,
        Err(e) => {
            log.failures.push(format!("connection B: {e}"));
            return log;
        }
    };
    let (mut n, mut step, mut writes) = (0u64, 0u64, 0u64);
    let deadline = Instant::now() + d.seconds;
    while Instant::now() < deadline {
        if step % (READS_PER_WRITE + 1) == READS_PER_WRITE {
            let text = &d.plan.writes[(writes as usize) % d.plan.writes.len()];
            let name = format!("w{writes}");
            writes += 1;
            match client.load_tree(&name, text, WireDurability::Sync) {
                Ok(Response::TreeLoaded { leaves, .. }) if leaves == WRITE_LEAVES as u64 => {}
                other => log.failures.push(format!("load {name}: {other:?}")),
            }
            if writes % WRITES_PER_BARRIER == 0 {
                match client.wait_durable() {
                    Ok(Response::Durable { .. }) => {}
                    other => log.failures.push(format!("barrier: {other:?}")),
                }
            }
        } else {
            let req = read_request(n, &mut rng, d.plan);
            let op = tracer.op(Phase::Probe, (2 << 40) | n, true);
            let t0 = Instant::now();
            let sent = client.send(&req);
            let t1 = Instant::now();
            op.record("client.send", t0, t1);
            let resp = sent.and_then(|corr| client.recv_matching(corr));
            op.record("client.recv_wait", t1, Instant::now());
            log.op_ms.push(op.finish());
            n += 1;
            match resp
                .map_err(|e| e.to_string())
                .and_then(|r| served_digest(&r))
            {
                Ok(digest) => log.reads.push(Some(short(digest))),
                Err(e) => {
                    log.reads.push(None);
                    log.failures.push(e);
                }
            }
        }
        step += 1;
    }
    log
}

fn stats(client: &mut Client) -> Result<WireStats, String> {
    match client.call(&Request::Stats) {
        Ok(Response::Stats(s)) => Ok(s),
        other => Err(format!("stats: {other:?}")),
    }
}

/// Run both connections for the drive's length; returns their logs and
/// the server's counters before and after.
fn drive(d: &Drive<'_>) -> Result<([ConnLog; 2], WireStats, WireStats), String> {
    let origin = crate::origin();
    let mut admin = Client::connect(d.addr).map_err(|e| format!("admin connect: {e}"))?;
    let before = stats(&mut admin)?;
    let barrier = Barrier::new(2);
    let logs = std::thread::scope(|scope| {
        let a = scope.spawn(|| {
            let tracer = Tracer::new(true, origin, 3);
            let mut log = conn_a(d, &barrier, &tracer);
            log.spans = tracer.into_spans().0;
            log
        });
        let b = scope.spawn(|| {
            let tracer = Tracer::new(true, origin, 4);
            let mut log = conn_b(d, &barrier, &tracer);
            log.spans = tracer.into_spans().0;
            log
        });
        [
            a.join().expect("connection A thread panicked"),
            b.join().expect("connection B thread panicked"),
        ]
    });
    let after = stats(&mut admin)?;
    Ok((logs, before, after))
}

/// Regenerate every read of each connection from its seed, run it
/// in-process on an identically built repository and compare answers.
/// Returns the per-read embedded latencies (µs); mismatches go to
/// `failures`.
fn replay(
    work: &Path,
    plan: &Plan,
    seed: u64,
    logs: &[ConnLog; 2],
    tracer: &Tracer,
    failures: &mut Vec<String>,
) -> Result<Vec<f64>, String> {
    let path = work.join("embedded.crimson");
    let mut repo = Repository::create(&path, RepositoryOptions::default())
        .map_err(|e| format!("embedded create: {e}"))?;
    let report = repo
        .load_newick("gold", &plan.gold_newick)
        .map_err(|e| format!("embedded load: {e}"))?;
    if report.handle != plan.oracle.handle {
        return Err(format!("embedded gold stored as {:?}", report.handle));
    }
    let reader = repo.reader().map_err(|e| e.to_string())?;
    let mut us = Vec::new();
    for (log, stream) in logs.iter().zip([CONN_A_STREAM, CONN_B_STREAM]) {
        let mut rng = Rng::new(derive(seed, stream));
        for (k, served) in log.reads.iter().enumerate() {
            let req = read_request(k as u64, &mut rng, plan);
            let req = &req;
            let op = tracer.op(Phase::Probe, (3 << 40) | us.len() as u64, true);
            let got = op.call("serve.embedded", || {
                reader
                    .pin()
                    .map_err(|e| e.to_string())
                    .and_then(|p| embedded_digest(&p, req))
            });
            us.push(op.finish() * 1e3);
            match (got, served) {
                (Ok(e), Some(s)) if short(e) == *s => {}
                (Ok(_), Some(_)) => {
                    failures.push(format!("served answer differs from embedded for {req:?}"))
                }
                (Err(e), _) => failures.push(format!("embedded {req:?}: {e}")),
                (Ok(_), None) => {} // already counted as a served failure
            }
        }
    }
    Ok(us)
}

fn pings(addr: std::net::SocketAddr, tracer: &Tracer) -> Result<(), String> {
    let mut client = Client::connect(addr).map_err(|e| format!("ping connect: {e}"))?;
    for i in 0..PINGS {
        let op = tracer.op(Phase::Probe, (4 << 40) | i, true);
        match op.call("client.ping", || client.call(&Request::Ping)) {
            Ok(Response::Pong { .. }) => {}
            other => return Err(format!("ping: {other:?}")),
        }
        op.finish();
    }
    Ok(())
}

fn server_counters(
    layers: &mut Layers,
    source: &'static str,
    before: &WireStats,
    after: &WireStats,
) {
    let reads = (after.reads - before.reads) as f64;
    let batches = (after.read_batches - before.read_batches) as f64;
    let coalesced = (after.coalesced_reads - before.coalesced_reads) as f64;
    layers.ratio("server.reads_per_batch", source, reads, batches);
    layers.ratio("server.coalesced_ratio", source, coalesced, reads);
    layers.value(
        "server.overloaded",
        source,
        (after.overloaded - before.overloaded) as f64,
    );
    layers.value(
        "server.protocol_rejects",
        source,
        (after.protocol_rejects - before.protocol_rejects) as f64,
    );
}

/// The server part of a traced run's probe: a short drive on a fresh
/// server, every op traced, with every served answer compared with the
/// embedded answer to the same request. Each served read counts as an
/// attempt; errors, sheds and mismatches count as failures.
pub fn probe(args: &Args, tracer: &Tracer, layers: &mut Layers, out: &mut Outcome) {
    let mut failures = Vec::new();
    let attempted = match probe_inner(args, tracer, layers, &mut failures) {
        Ok(n) => n,
        Err(e) => {
            failures.push(format!("serve probe: {e}"));
            0
        }
    };
    out.attempted += attempted.max(failures.len() as u64);
    for f in failures {
        out.fail(f);
    }
}

fn probe_inner(
    args: &Args,
    tracer: &Tracer,
    layers: &mut Layers,
    failures: &mut Vec<String>,
) -> Result<u64, String> {
    let work = WorkDir::new("serve-probe").map_err(|e| e.to_string())?;
    let plan = plan(args.seed);
    let root = work.path().join("server");
    let server = start_server(&root, &plan)?;
    let d = Drive {
        addr: server.addr(),
        plan: &plan,
        seed: args.seed,
        seconds: DRIVE,
    };
    let driven = drive(&d);
    let pinged = pings(server.addr(), tracer);
    server.shutdown();
    let (mut logs, before, after) = driven?;
    pinged?;
    let embedded_us = replay(work.path(), &plan, args.seed, &logs, tracer, failures)?;
    let mut op_ms = Vec::new();
    let mut reads = 0u64;
    for log in &mut logs {
        failures.append(&mut log.failures);
        reads += log.reads.len() as u64;
        op_ms.append(&mut log.op_ms);
        tracer.adopt(std::mem::take(&mut log.spans));
    }
    server_counters(layers, "probe", &before, &after);
    let served_us = crate::common::median(&op_ms) * 1e3;
    layers.value(
        "serve.tax_us",
        "probe",
        served_us - crate::common::median(&embedded_us),
    );
    Ok(reads)
}
