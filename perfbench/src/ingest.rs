//! `ingest`: an embedded single writer bulk-loads a seeded stream of gold
//! standards into a repository already holding co-resident trees.
//!
//! Why: parsing, the loader, index maintenance, the WAL and checkpoints do
//! the work here. Loading into an empty file is an order of magnitude
//! cheaper and would hide the steady-state cost, so set-up pre-fills the
//! repository with trees over the same taxon names.
//!
//! The window runs in rounds. Each round opens a fresh copy of the
//! pre-filled repository and submits 32 ops, so every round sees the same
//! 8 to 40 resident trees and the figures do not drift with run length.
//! Of every 8 ops, 6 load a NEXUS gold standard (tree plus sequences), one
//! resubmits a tree the round already loaded through `store_tree_dedup`
//! (expected hit) and one submits a new topology through it (expected
//! miss). Durability is `Sync`; there is no background checkpointer, and
//! one full load in every 8 ops (the 7th) ends with an explicit
//! `Repository::flush` (checkpoint), timed as part of that op, so
//! checkpoint cost lands in the op tail. After each round (outside the
//! measured time) the repository is checkpointed and reopened, and every
//! acknowledged tree must be found; the last round is also
//! integrity-checked. The set-up is repeated on a spare copy between
//! rounds, spread over the run, and the median of its times is `setup_s`.

use std::path::Path;
use std::time::{Duration, Instant};

use crimson::prelude::*;

use crate::common::{
    copy_repository, derive, repository_bytes, Outcome, Rng, SetupSchedule, WorkDir,
};
use crate::inputs::{gold, topology, GoldText};
use crate::layers::{stats_delta, stats_sum, Layers};
use crate::trace::{Phase, Tracer};
use crate::Args;

const PREFILL_TREES: usize = 8;
const PREFILL_LEAVES: usize = 400;
const STREAM_LEAVES: usize = 80;
const SITES: usize = 200;
/// Distinct gold standards the load stream cycles through (under fresh
/// names, so every load stores a new tree).
const STREAM_POOL: usize = 24;
/// Distinct topologies for the dedup-miss slot (each round's repository
/// is fresh, so a topology is new again in the next round).
const NEW_TOPOLOGIES: usize = 64;
/// Ops per checkpoint: op `i` ends with a flush when `i % FLUSH_EVERY` is
/// `FLUSH_AT`, a full load. One flushed load in 8 ops (12.5%) puts the
/// p95 tail inside the flushed loads rather than at the edge of a class
/// less than a twentieth of the ops, where host preemption decides it.
const FLUSH_EVERY: u64 = 8;
const FLUSH_AT: u64 = 6;
const ROUND_OPS: u64 = 32;
const SETUPS: usize = 7;
const POOL_PAGES: usize = 1024;

fn options() -> RepositoryOptions {
    RepositoryOptions {
        buffer_pool_pages: POOL_PAGES,
        durability: Durability::Sync,
        checkpoint: None,
        ..RepositoryOptions::default()
    }
}

/// Rows (nodes plus sequences) loaded and the milliseconds the loads took.
#[derive(Debug, Default, Clone, Copy)]
pub struct LoadTally {
    pub rows: u64,
    pub ms: f64,
}

impl LoadTally {
    pub fn add(&mut self, report: &crimson::loader::LoadReport, ms: f64) {
        self.rows += (report.nodes_loaded + report.species_loaded) as u64;
        self.ms += ms;
    }

    pub fn report(&self, layers: &mut Layers, source: &'static str) {
        layers.ratio("loader.rows_per_s", source, self.rows as f64, self.ms / 1e3);
    }
}

/// Set-up `k` of a run, timed into `out.setup_s`: create a repository at
/// `file` (its directory emptied first), load `golds` into it through the
/// NEXUS path and checkpoint it. Returns the repository and, per tree, its
/// handle.
#[allow(clippy::too_many_arguments)]
pub fn set_up(
    k: usize,
    file: &Path,
    options: RepositoryOptions,
    golds: &[GoldText],
    tracer: &Tracer,
    out: &mut Outcome,
    tally: &mut LoadTally,
) -> Result<(Repository, Vec<TreeHandle>), String> {
    let dir = file.parent().ok_or("repository path has no directory")?;
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    let start = Instant::now();
    let mut repo = Repository::create(file, options).map_err(|e| format!("create: {e}"))?;
    let mut handles = Vec::with_capacity(golds.len());
    for (i, g) in golds.iter().enumerate() {
        let op = tracer.op(
            Phase::Setup,
            crate::SETUP_OP + (k * golds.len() + i) as u64,
            true,
        );
        let doc = op
            .call("phylo.parse", || phylo::nexus::parse(&g.nexus))
            .map_err(|e| format!("parse gold {i}: {e}"))?;
        let load_start = Instant::now();
        let report = op
            .call("loader.load", || {
                repo.load_nexus(&format!("gold{i}"), &doc, LoadMode::TreeWithSpecies)
            })
            .map_err(|e| format!("load gold {i}: {e}"))?;
        let took = crate::common::ms(load_start.elapsed());
        tally.add(&report, took);
        op.finish();
        handles.push(report.handle);
    }
    let op = tracer.op(Phase::Setup, crate::SETUP_OP + (1 << 20) + k as u64, true);
    op.call("checkpoint.flush", || repo.flush())
        .map_err(|e| format!("flush: {e}"))?;
    op.finish();
    out.setup_s.push(start.elapsed().as_secs_f64());
    Ok((repo, handles))
}

#[derive(Clone, Copy)]
enum Kind {
    Load,
    DedupResubmit,
    DedupNew,
}

/// A tree an acknowledged op stored.
struct Acked {
    name: String,
    handle: TreeHandle,
    leaves: u64,
    /// The stream input a full load came from (`None` for a topology).
    input: Option<usize>,
    user_bytes: u64,
}

/// The run's inputs, generated before set-up.
struct Inputs {
    prefill: Vec<GoldText>,
    stream: Vec<GoldText>,
    topologies: Vec<String>,
}

/// Counters summed over rounds.
#[derive(Default)]
struct Totals {
    stats: storage::buffer::BufferStats,
    tally: LoadTally,
    user_bytes: u64,
    dedup_attempts: u64,
    dedup_hits: u64,
}

pub fn run(args: &Args, tracer: &Tracer) -> Result<Outcome, String> {
    let mut out = Outcome {
        op_tail_pct: 95.0,
        ..Outcome::default()
    };
    let work = WorkDir::new("ingest").map_err(|e| e.to_string())?;
    let inputs = Inputs {
        prefill: (0..PREFILL_TREES)
            .map(|i| gold(PREFILL_LEAVES, SITES, derive(args.seed, 100 + i as u64)))
            .collect(),
        stream: (0..STREAM_POOL)
            .map(|i| gold(STREAM_LEAVES, SITES, derive(args.seed, 1000 + i as u64)))
            .collect(),
        topologies: (0..NEW_TOPOLOGIES)
            .map(|i| topology(STREAM_LEAVES, derive(args.seed, 5000 + i as u64)))
            .collect(),
    };
    let prefill_user: u64 = inputs.prefill.iter().map(|g| g.user_bytes).sum();

    // Set-up 0 builds the template every round copies; the others build a
    // spare copy between rounds and discard it.
    let window = Duration::from_secs_f64(args.seconds);
    let mut setups = SetupSchedule::new(SETUPS, window);
    let template_file = work.path().join("template").join("ingest.crimson");
    let spare_file = work.path().join("spare").join("ingest.crimson");
    let set_up_k = |k: usize, out: &mut Outcome| -> Result<(), String> {
        let file = if k == 0 { &template_file } else { &spare_file };
        let built = set_up(
            k,
            file,
            options(),
            &inputs.prefill,
            tracer,
            out,
            &mut LoadTally::default(),
        )
        .map(|_| ());
        if k > 0 {
            let _ = std::fs::remove_dir_all(spare_file.parent().expect("in a directory"));
        }
        built
    };

    let mut rng = Rng::new(derive(args.seed, 7));
    let mut totals = Totals::default();
    let mut measured = Duration::ZERO;
    let mut content = ContentStats::default();
    let mut i = 0u64;
    let mut round = 0u64;
    let mut round_rates = Vec::new();
    while measured < window {
        while let Some(k) = setups.next_due(measured) {
            set_up_k(k, &mut out)?;
        }
        let dir = work.path().join(format!("round{round}"));
        std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
        let path = dir.join("ingest.crimson");
        copy_repository(&template_file, &path).map_err(|e| format!("copy template: {e}"))?;
        let mut repo = Repository::open(&path, options()).map_err(|e| format!("open: {e}"))?;
        // Whole rounds are traced or not, so both see the same work.
        let traced = args.trace && round.is_multiple_of(2);
        let before = repo.buffer_stats();
        let started = Instant::now();
        let mut acked = Vec::new();
        for _ in 0..ROUND_OPS {
            let op = tracer.op(Phase::Window, i, traced);
            out.attempted += 1;
            let result = one_op(
                i,
                &mut repo,
                &inputs,
                &op,
                &mut rng,
                &mut acked,
                &mut totals,
            );
            if i % FLUSH_EVERY == FLUSH_AT {
                if let Err(e) = op.call("checkpoint.flush", || repo.flush()) {
                    out.fail(format!("flush after op {i}: {e}"));
                }
            }
            let latency = op.finish();
            out.op_ms.push(latency);
            if traced {
                out.traced_op_ms.push(latency);
            } else if args.trace {
                out.untraced_op_ms.push(latency);
            }
            if let Err(e) = result {
                out.fail(e);
            }
            i += 1;
        }
        let took = started.elapsed();
        measured += took;
        round_rates.push(ROUND_OPS as f64 / took.as_secs_f64());
        totals.stats = stats_sum(&totals.stats, &stats_delta(&before, &repo.buffer_stats()));

        // After the window's last round: checkpoint, then space, content
        // and a full integrity check. After every round: reopen and find
        // every acknowledged tree.
        repo.flush().map_err(|e| format!("final flush: {e}"))?;
        if measured >= window {
            out.file_bytes = repository_bytes(&path) as f64;
            out.file_user_bytes =
                (prefill_user + acked.iter().map(|a| a.user_bytes).sum::<u64>()) as f64;
            content = repo.content_stats().map_err(|e| e.to_string())?;
            check_integrity(&mut out, &repo, &acked);
        }
        check_reopen(&mut out, repo, &path, &acked);
        let _ = std::fs::remove_dir_all(&dir);
        round += 1;
    }
    while let Some(k) = setups.next_due(window) {
        set_up_k(k, &mut out)?;
    }
    out.window_s = measured.as_secs_f64();
    out.completed = out.op_ms.len() as u64;
    out.wal_bytes = totals.stats.wal_bytes as f64;
    out.wal_user_bytes = totals.user_bytes as f64;

    let mut layers = Layers::default();
    layers.storage("window", &totals.stats, out.op_ms.len() as f64);
    layers.ratio(
        "content.dedup_hit_ratio",
        "window",
        totals.dedup_hits as f64,
        totals.dedup_attempts as f64,
    );
    totals.tally.report(&mut layers, "window");
    layers.ratio(
        "content.stored_node_ratio",
        "window",
        content.stored_nodes as f64,
        content.logical_nodes as f64,
    );
    out.config("buffer_pool_pages", POOL_PAGES.to_string());
    out.config("rounds", round.to_string());
    out.config(
        "round_ops_per_s",
        format!(
            "[{}]",
            round_rates
                .iter()
                .map(|r| crate::report::num(*r))
                .collect::<Vec<_>>()
                .join(",")
        ),
    );
    out.config(
        "resident_trees_per_round",
        format!("[{PREFILL_TREES},{}]", content.trees),
    );
    out.config(
        "trees",
        format!(
            "{{\"prefill_leaves\":{PREFILL_LEAVES},\"stream_leaves\":{STREAM_LEAVES},\"sites\":{SITES}}}"
        ),
    );
    out.config(
        "durability",
        "\"Sync; no background checkpointer; Repository::flush after op i when i % 8 == 6 (a full load)\"".to_string(),
    );
    out.config(
        "dedup",
        format!(
            "{{\"attempts\":{},\"hits\":{}}}",
            totals.dedup_attempts, totals.dedup_hits
        ),
    );

    if args.trace {
        let opened = Repository::open(&template_file, options())
            .map_err(|e| e.to_string())
            .and_then(|repo| match repo.find_tree("gold0") {
                Ok(Some(rec)) => Ok((repo, rec.handle)),
                other => Err(format!("gold0: {other:?}")),
            });
        match opened {
            Ok((mut repo, target)) => crate::probe::engine(
                &mut repo,
                Some(target),
                &inputs.prefill[0],
                16,
                tracer,
                &mut layers,
                &mut out,
            ),
            Err(e) => {
                out.attempted += 1;
                out.fail(format!("probe: reopen the pre-filled repository: {e}"));
            }
        }
        crate::serve::probe(args, tracer, &mut layers, &mut out);
    }
    out.layers = layers;
    Ok(out)
}

/// Op `i` of the stream; trees it stores are appended to `acked`.
fn one_op(
    i: u64,
    repo: &mut Repository,
    inputs: &Inputs,
    op: &crate::trace::OpScope<'_>,
    rng: &mut Rng,
    acked: &mut Vec<Acked>,
    totals: &mut Totals,
) -> Result<(), String> {
    let name = format!("in{i}");
    let kind = match i % 8 {
        3 => Kind::DedupNew,
        7 => Kind::DedupResubmit,
        _ => Kind::Load,
    };
    match kind {
        Kind::Load => {
            let input = (i as usize) % STREAM_POOL;
            let g = &inputs.stream[input];
            totals.user_bytes += g.user_bytes;
            let doc = op
                .call("phylo.parse", || phylo::nexus::parse(&g.nexus))
                .map_err(|e| format!("parse: {e}"))?;
            let start = Instant::now();
            let report = op
                .call("loader.load", || {
                    repo.load_nexus(&name, &doc, LoadMode::TreeWithSpecies)
                })
                .map_err(|e| format!("load {name}: {e}"))?;
            let took = crate::common::ms(start.elapsed());
            totals.tally.add(&report, took);
            if report.nodes_loaded != g.tree.node_count() {
                return Err(format!(
                    "{name}: loaded {} nodes of {}",
                    report.nodes_loaded,
                    g.tree.node_count()
                ));
            }
            acked.push(Acked {
                name,
                handle: report.handle,
                leaves: g.tree.leaf_count() as u64,
                input: Some(input),
                user_bytes: g.user_bytes,
            });
            Ok(())
        }
        Kind::DedupResubmit => {
            // A full load of this round, resubmitted as Newick.
            let loads: Vec<usize> = acked.iter().filter_map(|a| a.input).collect();
            if loads.is_empty() {
                return Err(format!("{name}: nothing acknowledged to resubmit"));
            }
            let input = loads[rng.below(loads.len())];
            let g = &inputs.stream[input];
            totals.user_bytes += g.newick.len() as u64;
            totals.dedup_attempts += 1;
            let tree = op
                .call("phylo.parse", || phylo::newick::parse(&g.newick))
                .map_err(|e| format!("parse: {e}"))?;
            let (handle, hit) = op
                .call("content.dedup", || repo.store_tree_dedup(&name, &tree))
                .map_err(|e| format!("dedup {name}: {e}"))?;
            totals.dedup_hits += u64::from(hit);
            // Any acknowledged load of the same input is a correct hit.
            if hit
                && acked
                    .iter()
                    .any(|a| a.input == Some(input) && a.handle == handle)
            {
                Ok(())
            } else {
                Err(format!(
                    "{name}: resubmit of input {input} gave {handle:?} hit={hit}"
                ))
            }
        }
        Kind::DedupNew => {
            let text = &inputs.topologies[(i / 8) as usize % NEW_TOPOLOGIES];
            totals.user_bytes += text.len() as u64;
            totals.dedup_attempts += 1;
            let tree = op
                .call("phylo.parse", || phylo::newick::parse(text))
                .map_err(|e| format!("parse: {e}"))?;
            let (handle, hit) = op
                .call("content.dedup", || repo.store_tree_dedup(&name, &tree))
                .map_err(|e| format!("dedup {name}: {e}"))?;
            totals.dedup_hits += u64::from(hit);
            if hit {
                return Err(format!("{name}: a new topology hit {handle:?}"));
            }
            acked.push(Acked {
                name,
                handle,
                leaves: tree.leaf_count() as u64,
                input: None,
                user_bytes: text.len() as u64,
            });
            Ok(())
        }
    }
}

/// `integrity_check` must pass and count the pre-filled and acknowledged
/// trees.
fn check_integrity(out: &mut Outcome, repo: &Repository, acked: &[Acked]) {
    let expected_trees = (PREFILL_TREES + acked.len()) as u64;
    match repo.integrity_check() {
        Ok(report) if report.trees == expected_trees => {}
        Ok(report) => out.fail(format!(
            "integrity: {} trees, expected {expected_trees}",
            report.trees
        )),
        Err(e) => out.fail(format!("integrity: {e}")),
    }
}

/// Close the repository, reopen it and find every acknowledged tree.
fn check_reopen(out: &mut Outcome, repo: Repository, path: &Path, acked: &[Acked]) {
    drop(repo);
    let reopened = match Repository::open(path, options()) {
        Ok(r) => r,
        Err(e) => {
            out.fail(format!("reopen: {e}"));
            return;
        }
    };
    for a in acked {
        match reopened.find_tree(&a.name) {
            Ok(Some(rec)) if rec.handle == a.handle && rec.leaf_count == a.leaves => {}
            other => out.fail(format!("after reopen, {}: {other:?}", a.name)),
        }
    }
}
