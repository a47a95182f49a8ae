//! `query`: an embedded closed loop on two `RepositoryReader` threads over
//! a repository of many co-resident gold trees, several times larger than
//! the buffer pool.
//!
//! Why: the engine read path (pool, B+tree, heap, epoch pins) dominates,
//! with no server and no writes, and any query whose cost grows with trees
//! it does not touch shows up here.
//!
//! Mix, per thread, a seeded shuffle of a fixed 4,000-op cycle: 2,174
//! `lca`, 1,700 `is_ancestor`, 60 spanning clades, 50 uniform samples
//! projected, 14 pattern matches, one time frontier and one time-respecting
//! sample. Trees are picked with a Zipf-like skew; leaves uniformly. The
//! 66 slowest ops of a cycle (projections, pattern matches, frontiers) make
//! up 1.65% of it, so the p99 tail falls inside the projections rather
//! than on the edge between two kinds of op.
//!
//! The window runs in 7 equal segments. In the pauses between them,
//! outside the measured time, the set-up is repeated on a spare copy and
//! discarded, so `setup_s` and the set-up loads sample the host across the
//! run instead of in its first seconds.

use std::sync::Barrier;
use std::time::{Duration, Instant};

use crimson::prelude::*;
use phylo::Tree;

use crate::common::{derive, repository_bytes, Outcome, Reservoir, Rng, WorkDir};
use crate::ingest::{set_up, LoadTally};
use crate::inputs::{gold, GoldText};
use crate::layers::{stats_delta, Layers};
use crate::oracle::Oracle;
use crate::trace::{Phase, Tracer};
use crate::Args;

const TREES: usize = 8;
const LEAVES: usize = 400;
const SITES: usize = 200;
const POOL_PAGES: usize = 128;
const SETUPS: usize = 7;
const THREADS: usize = 2;
const WARMUP: Duration = Duration::from_millis(500);
const CYCLE: [(Kind, usize); 7] = [
    (Kind::Lca, 2174),
    (Kind::IsAncestor, 1700),
    (Kind::Clade, 60),
    (Kind::Project, 50),
    (Kind::Pattern, 14),
    (Kind::Frontier, 1),
    (Kind::ByTime, 1),
];
const CLADE_NODES: usize = 3;
const SAMPLE_K: usize = 16;
const PATTERN_LEAVES: usize = 12;
const PATTERNS_PER_TREE: usize = 8;
/// Share of lca, is_ancestor, clade and project answers kept for checking
/// (frontier and time-sampling answers are all kept; pattern answers are
/// checked as they arrive).
const CHECK_ONE_IN: usize = 16;
/// Most lca, is_ancestor, clade and project answers a thread keeps, so
/// memory does not grow with throughput.
const KEEP_CAP: usize = 2048;
/// Latencies a thread keeps (a uniform sample of its ops).
const LATENCY_SAMPLE: usize = 100_000;
/// Share of kept answers also re-run on the `*_reference` paths.
const REFERENCE_ONE_IN: usize = 8;

#[derive(Clone, Copy, Debug, PartialEq)]
enum Kind {
    Lca,
    IsAncestor,
    Clade,
    Project,
    Pattern,
    Frontier,
    ByTime,
}

/// An answer kept for checking after the window.
enum Kept {
    Lca(usize, StoredNodeId, StoredNodeId, StoredNodeId),
    IsAncestor(usize, StoredNodeId, StoredNodeId, bool),
    Clade(usize, Vec<StoredNodeId>, Vec<StoredNodeId>),
    Project(usize, Vec<StoredNodeId>, Tree),
    Frontier(usize, f64, Vec<StoredNodeId>),
    ByTime(usize, f64, Vec<StoredNodeId>),
}

/// Everything the reader threads share, read-only.
struct Data {
    oracles: Vec<Oracle>,
    leaves: Vec<Vec<StoredNodeId>>,
    patterns: Vec<Vec<Tree>>,
    /// Frontier time per tree: a third of the tree's height.
    times: Vec<f64>,
}

struct ThreadResult {
    /// Ops completed in the window.
    ops: u64,
    op_ms: Reservoir,
    traced_ms: Reservoir,
    untraced_ms: Reservoir,
    kept: Vec<Kept>,
    failed: u64,
    /// The first few failure descriptions.
    failures: Vec<String>,
    spans: Vec<crate::trace::Span>,
    dropped: u64,
}

/// The window's options: a pool several times smaller than the data.
fn options() -> RepositoryOptions {
    RepositoryOptions {
        buffer_pool_pages: POOL_PAGES,
        ..RepositoryOptions::default()
    }
}

pub fn run(args: &Args, tracer: &Tracer) -> Result<(Outcome, Vec<crate::trace::Span>), String> {
    let mut out = Outcome {
        op_tail_pct: 99.0,
        ..Outcome::default()
    };
    let work = WorkDir::new("query").map_err(|e| e.to_string())?;
    let golds: Vec<GoldText> = (0..TREES)
        .map(|i| gold(LEAVES, SITES, derive(args.seed, 200 + i as u64)))
        .collect();
    let user_bytes: u64 = golds.iter().map(|g| g.user_bytes).sum();

    // Set-up 0 builds the repository the window reads; the others build a
    // spare copy in the pauses between the window's segments and discard
    // it. Built with the default pool; the window reopens it with the
    // small one.
    let path = work.path().join("db").join("query.crimson");
    let spare = work.path().join("spare").join("query.crimson");
    let mut tally = LoadTally::default();
    let mut set_up_k = |k: usize, out: &mut Outcome| -> Result<Vec<TreeHandle>, String> {
        let file = if k == 0 { &path } else { &spare };
        let built = set_up(
            k,
            file,
            RepositoryOptions::default(),
            &golds,
            tracer,
            out,
            &mut tally,
        )
        .map(|(repo, handles)| {
            if k == 0 {
                out.wal_bytes = repo.buffer_stats().wal_bytes as f64;
            }
            handles
        });
        if k > 0 {
            let _ = std::fs::remove_dir_all(spare.parent().expect("in a directory"));
        }
        built
    };
    let handles = set_up_k(0, &mut out)?;
    let repo = Repository::open(&path, options()).map_err(|e| format!("reopen: {e}"))?;
    out.wal_user_bytes = user_bytes as f64;
    out.file_bytes = repository_bytes(&path) as f64;
    out.file_user_bytes = user_bytes as f64;

    let data = prepare(args.seed, &golds, &handles);
    let barrier = Barrier::new(THREADS + 1);
    let segment = Duration::from_secs_f64(args.seconds / SETUPS as f64);
    let mut readers = Vec::new();
    for _ in 0..THREADS {
        readers.push(repo.reader().map_err(|e| e.to_string())?);
    }
    let (before, after, results, window_s, setup_error) = std::thread::scope(|scope| {
        let joins: Vec<_> = readers
            .into_iter()
            .enumerate()
            .map(|(t, reader)| {
                let data = &data;
                let barrier = &barrier;
                scope.spawn(move || {
                    let tracer = Tracer::new(args.trace, crate::origin(), 1 + t as u64);
                    let r = reader_loop(args, t, &reader, data, barrier, segment, &tracer);
                    let (spans, dropped) = tracer.into_spans();
                    ThreadResult {
                        spans,
                        dropped,
                        ..r
                    }
                })
            })
            .collect();
        barrier.wait(); // warm-up done
        let before = repo.buffer_stats();
        let mut window = Duration::ZERO;
        let mut setup_error = None;
        for k in 1..=SETUPS {
            barrier.wait(); // segment starts
            let started = Instant::now();
            barrier.wait(); // segment ends
            window += started.elapsed();
            if k < SETUPS && setup_error.is_none() {
                setup_error = set_up_k(k, &mut out).err();
            }
        }
        let after = repo.buffer_stats();
        let results: Vec<ThreadResult> = joins
            .into_iter()
            .map(|j| j.join().expect("reader thread panicked"))
            .collect();
        (before, after, results, window.as_secs_f64(), setup_error)
    });
    if let Some(e) = setup_error {
        return Err(e);
    }
    out.window_s = window_s;

    let mut spans = Vec::new();
    let mut kept = Vec::new();
    for r in results {
        out.attempted += r.ops;
        out.completed += r.ops;
        out.op_ms.extend(r.op_ms.values());
        out.traced_op_ms.extend(r.traced_ms.values());
        out.untraced_op_ms.extend(r.untraced_ms.values());
        out.failed += r.failed - r.failures.len() as u64;
        for f in r.failures {
            out.fail(f);
        }
        kept.extend(r.kept);
        spans.extend(r.spans);
        if r.dropped > 0 {
            out.config("spans_dropped", r.dropped.to_string());
        }
    }
    let checked = kept.len();
    let reader = repo.reader().map_err(|e| e.to_string())?;
    for (n, k) in kept.into_iter().enumerate() {
        if let Err(e) = verify(&reader, &data, k, n % REFERENCE_ONE_IN == 0) {
            out.fail(e);
        }
    }
    drop(reader);
    out.config("checked_answers", checked.to_string());

    let delta = stats_delta(&before, &after);
    let mut layers = Layers::default();
    tally.report(&mut layers, "setup");
    layers.storage("window", &delta, out.attempted as f64);
    let file_pages = out.file_bytes / storage::page::PAGE_SIZE as f64;
    out.config("buffer_pool_pages", POOL_PAGES.to_string());
    out.config("resident_trees", TREES.to_string());
    out.config("resident_pages", format!("{file_pages:.0}"));
    out.config(
        "pages_over_pool",
        format!("{:.3}", file_pages / POOL_PAGES as f64),
    );
    out.config(
        "trees",
        format!("{{\"leaves\":{LEAVES},\"sites\":{SITES}}}"),
    );
    out.config(
        "mix_per_4000_ops",
        "{\"lca\":2174,\"is_ancestor\":1700,\"clade\":60,\"project\":50,\"pattern\":14,\"frontier\":1,\"by_time\":1}"
            .to_string(),
    );
    out.config("threads", THREADS.to_string());
    out.config("durability", "\"no writes in the window\"".to_string());

    if args.trace {
        let mut repo = repo;
        let target = handles[0];
        crate::probe::engine(
            &mut repo,
            Some(target),
            &golds[TREES - 1],
            SAMPLE_K,
            tracer,
            &mut layers,
            &mut out,
        );
        drop(repo);
        crate::serve::probe(args, tracer, &mut layers, &mut out);
    }
    out.layers = layers;
    Ok((out, spans))
}

/// The oracles, per-tree leaf lists, pattern trees and frontier times,
/// built outside the timed set-up.
fn prepare(seed: u64, golds: &[GoldText], handles: &[TreeHandle]) -> Data {
    let mut rng = Rng::new(derive(seed, 9));
    let oracles: Vec<Oracle> = golds
        .iter()
        .zip(handles)
        .map(|(g, &h)| Oracle::new(h, g.tree.clone()))
        .collect();
    let leaves: Vec<Vec<StoredNodeId>> = oracles.iter().map(Oracle::leaves).collect();
    let patterns = oracles
        .iter()
        .map(|o| {
            let ids: Vec<phylo::NodeId> = o.tree.leaf_ids().collect();
            (0..PATTERNS_PER_TREE)
                .map(|_| {
                    let mut pick = ids.clone();
                    rng.shuffle(&mut pick);
                    pick.truncate(PATTERN_LEAVES);
                    phylo::ops::project(&o.tree, &pick).expect("leaves of this tree")
                })
                .collect()
        })
        .collect();
    let times = oracles.iter().map(|o| o.height() / 3.0).collect();
    Data {
        oracles,
        leaves,
        patterns,
        times,
    }
}

fn reader_loop(
    args: &Args,
    thread: usize,
    reader: &RepositoryReader,
    data: &Data,
    barrier: &Barrier,
    segment: Duration,
    tracer: &Tracer,
) -> ThreadResult {
    let mut rng = Rng::new(derive(args.seed, 300 + thread as u64));
    let mut keep_rng = Rng::new(derive(args.seed, 310 + thread as u64));
    let mut sampled = 0usize;
    let mut cycle: Vec<Kind> = CYCLE
        .iter()
        .flat_map(|&(k, n)| std::iter::repeat_n(k, n))
        .collect();
    rng.shuffle(&mut cycle);
    let mut r = ThreadResult {
        ops: 0,
        op_ms: Reservoir::new(LATENCY_SAMPLE, derive(args.seed, 320 + thread as u64)),
        traced_ms: Reservoir::new(LATENCY_SAMPLE / 2, derive(args.seed, 330 + thread as u64)),
        untraced_ms: Reservoir::new(LATENCY_SAMPLE / 2, derive(args.seed, 340 + thread as u64)),
        kept: Vec::new(),
        failed: 0,
        failures: Vec::new(),
        spans: Vec::new(),
        dropped: 0,
    };
    let mut i = 0usize;
    let warm_end = Instant::now() + WARMUP;
    while Instant::now() < warm_end {
        let op = tracer.op(Phase::Window, 0, false);
        let _ = one_op(cycle[i % cycle.len()], &mut rng, reader, data, &op);
        op.finish();
        i += 1;
    }
    barrier.wait();
    let mut n = 0u64;
    // The window runs in segments; set-up copies run in the pauses.
    for _ in 0..SETUPS {
        barrier.wait();
        let started = Instant::now();
        while started.elapsed() < segment {
            let kind = cycle[i % cycle.len()];
            let traced = args.trace && n.is_multiple_of(2);
            let op_id = ((thread as u64) << 40) | n;
            let op = tracer.op(Phase::Window, op_id, traced);
            let res = one_op(kind, &mut rng, reader, data, &op);
            let latency = op.finish();
            r.ops += 1;
            r.op_ms.push(latency);
            if traced {
                r.traced_ms.push(latency);
            } else if args.trace {
                r.untraced_ms.push(latency);
            }
            match res {
                Ok(Some(kept)) => {
                    if matches!(kept, Kept::Frontier(..) | Kept::ByTime(..)) {
                        r.kept.push(kept);
                    } else if sampled < KEEP_CAP && keep_rng.below(CHECK_ONE_IN) == 0 {
                        sampled += 1;
                        r.kept.push(kept);
                    }
                }
                Ok(None) => {}
                Err(e) => {
                    r.failed += 1;
                    if r.failures.len() < 8 {
                        r.failures.push(e);
                    }
                }
            }
            i += 1;
            n += 1;
        }
        barrier.wait();
    }
    r
}

fn pick(rng: &mut Rng, from: &[StoredNodeId]) -> StoredNodeId {
    from[rng.below(from.len())]
}

/// Run one op; its calls are spanned when `op` is traced.
fn one_op(
    kind: Kind,
    rng: &mut Rng,
    reader: &RepositoryReader,
    data: &Data,
    op: &crate::trace::OpScope<'_>,
) -> Result<Option<Kept>, String> {
    let t = rng.skewed(data.oracles.len());
    let handle = data.oracles[t].handle;
    let leaves = &data.leaves[t];
    let e = |what: &'static str| move |err: CrimsonError| format!("{what}: {err}");
    match kind {
        Kind::Frontier => {
            let time = data.times[t];
            let got = op
                .call("sampling.frontier", || reader.time_frontier(handle, time))
                .map_err(e("time_frontier"))?;
            Ok(Some(Kept::Frontier(t, time, got)))
        }
        Kind::ByTime => {
            let time = data.times[t];
            let seed = rng.next_u64();
            let got = op
                .call("sampling.by_time", || {
                    reader.sample_by_time(handle, time, SAMPLE_K, seed)
                })
                .map_err(e("sample_by_time"))?;
            Ok(Some(Kept::ByTime(t, time, got)))
        }
        _ => {
            let pinned = op.call("reader.pin", || reader.pin()).map_err(e("pin"))?;
            match kind {
                Kind::Lca => {
                    let (a, b) = (pick(rng, leaves), pick(rng, leaves));
                    let got = op
                        .call("query.lca", || pinned.lca(a, b))
                        .map_err(e("lca"))?;
                    Ok(Some(Kept::Lca(t, a, b, got)))
                }
                Kind::IsAncestor => {
                    // Any node against a leaf: true for the leaf's
                    // ancestors, false elsewhere.
                    let o = &data.oracles[t];
                    let a = o.stored(phylo::NodeId(rng.below(o.tree.node_count()) as u32));
                    let b = pick(rng, leaves);
                    let got = op
                        .call("query.is_ancestor", || pinned.is_ancestor(a, b))
                        .map_err(e("is_ancestor"))?;
                    Ok(Some(Kept::IsAncestor(t, a, b, got)))
                }
                Kind::Clade => {
                    let nodes: Vec<StoredNodeId> =
                        (0..CLADE_NODES).map(|_| pick(rng, leaves)).collect();
                    let got = op
                        .call("query.clade", || pinned.minimal_spanning_clade(&nodes))
                        .map_err(e("clade"))?;
                    Ok(Some(Kept::Clade(t, nodes, got)))
                }
                Kind::Project => {
                    let seed = rng.next_u64();
                    let sample = op
                        .call("sampling.uniform", || {
                            pinned.sample_uniform(handle, SAMPLE_K, seed)
                        })
                        .map_err(e("sample_uniform"))?;
                    let got = op
                        .call("query.project", || pinned.project(handle, &sample))
                        .map_err(e("project"))?;
                    Ok(Some(Kept::Project(t, sample, got)))
                }
                Kind::Pattern => {
                    let patterns = &data.patterns[t];
                    let pattern = &patterns[rng.below(patterns.len())];
                    let got = op
                        .call("query.pattern", || pinned.pattern_match(handle, pattern))
                        .map_err(e("pattern_match"))?;
                    if got.exact_topology && got.rf.distance == 0 {
                        Ok(None)
                    } else {
                        Err(format!(
                            "pattern_match on tree {t}: a projection of the tree did not match (rf {})",
                            got.rf.distance
                        ))
                    }
                }
                Kind::Frontier | Kind::ByTime => unreachable!("handled above"),
            }
        }
    }
}

/// Check one kept answer against the oracle and, when `reference`, the
/// repository's `*_reference` path.
fn verify(
    reader: &RepositoryReader,
    data: &Data,
    kept: Kept,
    reference: bool,
) -> Result<(), String> {
    let wrong = |what: &str, detail: String| Err(format!("wrong {what}: {detail}"));
    match kept {
        Kept::Lca(t, a, b, got) => {
            let want = data.oracles[t].lca(a, b);
            if want != Some(got) {
                return wrong("lca", format!("{a}/{b} gave {got}, oracle {want:?}"));
            }
            if reference {
                let r = reader.lca_label_walk(a, b).map_err(|e| e.to_string())?;
                if r != got {
                    return wrong("lca", format!("{a}/{b} gave {got}, label walk {r}"));
                }
            }
        }
        Kept::IsAncestor(t, a, b, got) => {
            let want = data.oracles[t].is_ancestor(a, b);
            if want != Some(got) {
                return wrong(
                    "is_ancestor",
                    format!("{a}/{b} gave {got}, oracle {want:?}"),
                );
            }
        }
        Kept::Clade(t, nodes, got) => {
            let want = data.oracles[t].clade(&nodes);
            if want.as_ref() != Some(&got) {
                return wrong("clade", format!("{nodes:?}: {} nodes", got.len()));
            }
            if reference {
                // The reference walks breadth-first: compare as sets.
                let mut r = reader
                    .minimal_spanning_clade_reference(&nodes)
                    .map_err(|e| e.to_string())?;
                let mut sorted = got;
                r.sort();
                sorted.sort();
                if r != sorted {
                    return wrong("clade", format!("{nodes:?}: reference differs"));
                }
            }
        }
        Kept::Project(t, sample, got) => {
            let form = phylo::ops::canonical_form(&got);
            let want = data.oracles[t].projection_form(&sample);
            if want.as_deref() != Some(form.as_str()) {
                return wrong("projection", format!("tree {t}, {} leaves", sample.len()));
            }
            if reference {
                let handle = data.oracles[t].handle;
                let r = reader
                    .project_reference(handle, &sample)
                    .map_err(|e| e.to_string())?;
                if phylo::ops::canonical_form(&r) != form {
                    return wrong("projection", format!("tree {t}: reference differs"));
                }
            }
        }
        Kept::Frontier(t, time, mut got) => {
            got.sort();
            let want = data.oracles[t].time_frontier(time);
            if got != want {
                return wrong(
                    "time_frontier",
                    format!(
                        "tree {t} at {time}: {} nodes, oracle {}",
                        got.len(),
                        want.len()
                    ),
                );
            }
        }
        Kept::ByTime(t, time, got) => {
            let o = &data.oracles[t];
            let mut distinct = got.clone();
            distinct.sort();
            distinct.dedup();
            let leaves_ok = got
                .iter()
                .all(|&n| o.local(n).is_some_and(|l| o.tree.is_leaf(l)));
            if got.len() != SAMPLE_K || distinct.len() != got.len() || !leaves_ok {
                return wrong(
                    "sample_by_time",
                    format!(
                        "tree {t} at {time}: {} picks, {} distinct",
                        got.len(),
                        distinct.len()
                    ),
                );
            }
        }
    }
    Ok(())
}
