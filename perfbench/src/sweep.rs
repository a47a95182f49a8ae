//! `sweep`: the paper's Benchmark Manager. Persisted `ExperimentRunner::run`
//! grids on one gold tree among several co-resident ones.
//!
//! Why: this is what users come for. Distances, reconstruction, comparison
//! and small-tree persistence do the work; no server is involved.
//!
//! Each op is one sweep: NJ and UPGMA × uniform and time-respecting
//! sampling × 2 replicates, Jukes–Cantor sequence distances, 2 workers,
//! one `Sync` transaction. Sweep `i` uses spec seed `i mod 4`, so every
//! seed class repeats and its RF digest must repeat with it. The window
//! runs in rounds of 32 sweeps, each on a fresh copy of the set-up
//! repository; checks run after each round, outside the measured time. The
//! set-up is repeated on a spare copy between rounds, spread over the run,
//! and the median of its times is `setup_s`.
//!
//! The checks do not trust the sweep path: in every round the first sweep
//! of each seed class is rebuilt cell by cell from the public calls
//! (`sample_*`, `sequences_for`) and the `reconstruction` functions, with
//! the truth projected from an in-memory copy of the gold tree, and the
//! persisted RF figures, reconstructions and stored comparisons must equal
//! the rebuilt ones. A run of a seed whose combined RF digest is recorded
//! in [`KNOWN_DIGESTS`] must also reproduce it.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use crimson::experiment::cell_seed;
use crimson::prelude::*;
use phylo::Tree;
use reconstruction::compare::{robinson_foulds, rooted_robinson_foulds};
use reconstruction::distance::jc_corrected_matrix;
use reconstruction::nj::neighbor_joining;
use reconstruction::upgma::upgma;

use crate::common::{copy_repository, derive, repository_bytes, Outcome, SetupSchedule, WorkDir};
use crate::ingest::{set_up, LoadTally};
use crate::inputs::{gold, GoldText};
use crate::layers::{stats_delta, stats_sum, Layers, MS, US};
use crate::oracle::Oracle;
use crate::trace::{OpScope, Phase, Tracer};
use crate::Args;

const TREES: usize = 6;
const LEAVES: usize = 300;
const SITES: usize = 300;
/// Which of the co-resident trees the sweeps evaluate.
const GOLD: usize = 2;
const K: usize = 24;
const REPLICATES: usize = 2;
const WORKERS: usize = 2;
const SEED_CLASSES: u64 = 4;
/// Sweeps per round; each round runs on a fresh copy of the set-up
/// repository, so the repository does not grow with run length.
const ROUND_SWEEPS: u64 = 32;
const SETUPS: usize = 7;
const POOL_PAGES: usize = 1024;
/// Combined RF digest (`rf_digest` in the report) of seeds 0 to 20 and of
/// the hold-out seed 4242, recorded from runs against the program as it
/// stood when the benchmark was written. A run of a listed seed that gives
/// another digest counts a failure, so a change that alters NJ, UPGMA or
/// RF results the same way in the sweep and in the rebuild still shows.
const KNOWN_DIGESTS: &[(u64, u64)] = &[
    (0, 0xa2fe_7c34_b913_ef5c),
    (1, 0x2cd1_eb36_88e7_212b),
    (2, 0x19ff_7675_5534_80e4),
    (3, 0xe1c5_8806_2dae_b896),
    (4, 0x35f6_76f4_99d1_8d33),
    (5, 0xa1ce_37e5_71b6_bfbe),
    (6, 0xa3e4_1bcc_92e1_c923),
    (7, 0xfdb8_327d_46b5_ac61),
    (8, 0xa255_f010_aa8e_5100),
    (9, 0x3d96_a21e_6058_7f9f),
    (10, 0x5e9a_aa55_8b2a_dd57),
    (11, 0xa132_ffcc_898f_91b6),
    (12, 0xc7e5_f705_5865_19b5),
    (13, 0x4a0b_d10f_9081_f553),
    (14, 0x0256_be0d_9a65_7f42),
    (15, 0x72ac_ada6_b384_3189),
    (16, 0x3e7d_1d00_73d7_6702),
    (17, 0xd354_ead2_db22_3dff),
    (18, 0x64b7_cbd3_7b9d_a709),
    (19, 0xe4e5_3a8e_3542_33df),
    (20, 0xc646_103c_8aa9_a2ed),
    (4242, 0xc59c_6323_98d6_b109),
];

fn options() -> RepositoryOptions {
    RepositoryOptions {
        buffer_pool_pages: POOL_PAGES,
        durability: Durability::Sync,
        checkpoint: None,
        ..RepositoryOptions::default()
    }
}

fn spec(i: u64, seed: u64, time: f64) -> ExperimentSpec {
    ExperimentSpec {
        name: format!("sweep{i}"),
        methods: vec![Method::NeighborJoining, Method::Upgma],
        strategies: vec![
            SamplingStrategy::Uniform { k: K },
            SamplingStrategy::TimeRespecting { time, k: K },
        ],
        replicates: REPLICATES,
        distance_source: DistanceSource::SequencesJc,
        compute_triplets: false,
        seed: derive(seed, 400 + i % SEED_CLASSES),
        workers: WORKERS,
        cell_commits: false,
    }
}

/// FNV-1a over the RF figures of a sweep's cells, in grid order.
fn digest(results: &[ExperimentResult]) -> u64 {
    let mut cells: Vec<&ExperimentResult> = results.iter().collect();
    cells.sort_by_key(|r| (r.method.name(), r.strategy_index, r.replicate));
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for r in cells {
        for v in [
            r.rf.distance as u64,
            r.rooted_rf.distance as u64,
            r.sample_size as u64,
            r.cell_seed,
        ] {
            for b in v.to_le_bytes() {
                h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
            }
        }
    }
    h
}

pub fn run(args: &Args, tracer: &Tracer) -> Result<Outcome, String> {
    let mut out = Outcome {
        op_tail_pct: 95.0,
        ..Outcome::default()
    };
    let work = WorkDir::new("sweep").map_err(|e| e.to_string())?;
    let golds: Vec<GoldText> = (0..TREES)
        .map(|i| gold(LEAVES, SITES, derive(args.seed, 600 + i as u64)))
        .collect();
    let setup_user: u64 = golds.iter().map(|g| g.user_bytes).sum();
    // Set-up 0 builds the template every round copies; the others build a
    // spare copy between rounds and discard it.
    let window = Duration::from_secs_f64(args.seconds);
    let mut setups = SetupSchedule::new(SETUPS, window);
    let template_file = work.path().join("template").join("sweep.crimson");
    let spare_file = work.path().join("spare").join("sweep.crimson");
    let mut tally = LoadTally::default();
    let mut set_up_k = |k: usize, out: &mut Outcome| -> Result<Vec<TreeHandle>, String> {
        let file = if k == 0 { &template_file } else { &spare_file };
        let built =
            set_up(k, file, options(), &golds, tracer, out, &mut tally).map(|(_, handles)| handles);
        if k > 0 {
            let _ = std::fs::remove_dir_all(spare_file.parent().expect("in a directory"));
        }
        built
    };
    let k = setups
        .next_due(Duration::ZERO)
        .expect("set-up 0 is due at once");
    let handles = set_up_k(k, &mut out)?;
    let gold_handle = handles[GOLD];
    let oracle = Oracle::new(gold_handle, golds[GOLD].tree.clone());
    let time = oracle.height() / 3.0;

    let mut checks = Checks {
        gold: &golds[GOLD],
        oracle: &oracle,
        class_digest: HashMap::new(),
        class_bytes: HashMap::new(),
        program: ProgramTimings::default(),
        rebuilt: 0,
    };
    let mut stats = storage::buffer::BufferStats::default();
    let mut round_rates = Vec::new();
    let mut measured = Duration::ZERO;
    let mut i = 0u64;
    let mut round = 0u64;
    let mut recon_bytes = 0u64;
    let mut round_recon_bytes = 0u64;
    while measured < window {
        while let Some(k) = setups.next_due(measured) {
            set_up_k(k, &mut out)?;
        }
        let dir = work.path().join(format!("round{round}"));
        std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
        let path = dir.join("sweep.crimson");
        copy_repository(&template_file, &path).map_err(|e| format!("copy template: {e}"))?;
        let mut repo = Repository::open(&path, options()).map_err(|e| format!("open: {e}"))?;
        // Whole rounds are traced or not, so both see the same work.
        let traced = args.trace && round.is_multiple_of(2);
        let before = repo.buffer_stats();
        let started = Instant::now();
        let mut records = Vec::new();
        for _ in 0..ROUND_SWEEPS {
            let s = spec(i, args.seed, time);
            let op = tracer.op(Phase::Window, i, traced);
            out.attempted += 1;
            let result = op.call("experiment.run", || {
                ExperimentRunner::new(&mut repo, gold_handle).run(&s)
            });
            let latency = op.finish();
            out.op_ms.push(latency);
            if traced {
                out.traced_op_ms.push(latency);
            } else if args.trace {
                out.untraced_op_ms.push(latency);
            }
            match result {
                Ok(record) if record.runs == (4 * REPLICATES) as u64 => {
                    records.push((i, record.id))
                }
                Ok(record) => out.fail(format!("sweep {i}: {} cells persisted", record.runs)),
                Err(e) => out.fail(format!("sweep {i}: {e}")),
            }
            i += 1;
        }
        let took = started.elapsed();
        measured += took;
        round_rates.push(ROUND_SWEEPS as f64 / took.as_secs_f64());
        stats = stats_sum(&stats, &stats_delta(&before, &repo.buffer_stats()));

        round_recon_bytes = 0;
        let mut rebuilt_class = [false; SEED_CLASSES as usize];
        for (i, id) in records {
            let class = (i % SEED_CLASSES) as usize;
            let rebuild = !std::mem::replace(&mut rebuilt_class[class], true);
            let op = tracer.op(Phase::Check, crate::CHECK_OP + i, args.trace);
            let bytes = checks.check(
                &mut out,
                &repo,
                &spec(i, args.seed, time),
                i,
                id,
                rebuild.then_some(&op),
            );
            op.finish();
            round_recon_bytes += bytes;
        }
        recon_bytes += round_recon_bytes;
        repo.flush().map_err(|e| format!("final flush: {e}"))?;
        out.file_bytes = repository_bytes(&path) as f64;
        drop(repo);
        let _ = std::fs::remove_dir_all(&dir);
        round += 1;
    }
    while let Some(k) = setups.next_due(window) {
        set_up_k(k, &mut out)?;
    }
    out.window_s = measured.as_secs_f64();
    out.completed = out.op_ms.len() as u64;
    out.wal_bytes = stats.wal_bytes as f64;
    out.wal_user_bytes = recon_bytes as f64;
    out.file_user_bytes = (setup_user + round_recon_bytes) as f64;

    let mut all: Vec<(u64, u64)> = checks.class_digest.iter().map(|(&c, &d)| (c, d)).collect();
    all.sort();
    let combined = all
        .iter()
        .fold(0u64, |h, &(c, d)| crate::common::mix(h ^ d ^ c));
    out.config("rf_digest", format!("\"{combined:016x}\""));
    out.config("rebuilt_sweeps", checks.rebuilt.to_string());
    if let Some(&(_, want)) = KNOWN_DIGESTS.iter().find(|(seed, _)| *seed == args.seed) {
        out.attempted += 1;
        if combined != want {
            out.fail(format!(
                "rf_digest {combined:016x}, but seed {} is recorded with {want:016x}",
                args.seed
            ));
        }
    }
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
    out.config("resident_trees_at_round_start", TREES.to_string());
    out.config(
        "trees",
        format!("{{\"leaves\":{LEAVES},\"sites\":{SITES},\"gold\":{GOLD}}}"),
    );
    out.config(
        "grid",
        format!(
            "\"NJ,UPGMA x uniform(k={K}),time(t=height/3,k={K}) x {REPLICATES} replicates, JC, {WORKERS} workers\""
        ),
    );
    out.config(
        "durability",
        "\"Sync; one transaction per sweep; no background checkpointer\"".to_string(),
    );

    let mut layers = Layers::default();
    tally.report(&mut layers, "setup");
    layers.storage("window", &stats, out.op_ms.len() as f64);
    checks.program.report(&mut layers);
    if args.trace {
        match Repository::open(&template_file, options()) {
            Ok(mut repo) => crate::probe::engine(
                &mut repo,
                Some(gold_handle),
                &golds[0],
                K,
                tracer,
                &mut layers,
                &mut out,
            ),
            Err(e) => {
                out.attempted += 1;
                out.fail(format!("probe: reopen the set-up repository: {e}"));
            }
        }
        crate::serve::probe(args, tracer, &mut layers, &mut out);
    }
    out.layers = layers;
    Ok(out)
}

/// The program's own stage timings of every window cell (ms), as
/// `ExperimentResult` reports them.
#[derive(Default)]
struct ProgramTimings {
    uniform: Vec<f64>,
    by_time: Vec<f64>,
    project: Vec<f64>,
    distances: Vec<f64>,
    nj: Vec<f64>,
    upgma: Vec<f64>,
    compare: Vec<f64>,
    persist: Vec<f64>,
}

impl ProgramTimings {
    fn add(&mut self, r: &ExperimentResult) {
        let t = &r.timings;
        match r.strategy {
            SamplingStrategy::Uniform { .. } => self.uniform.push(t.sampling_ms),
            _ => self.by_time.push(t.sampling_ms),
        }
        self.project.push(t.projection_ms);
        self.distances.push(t.distances_ms);
        match r.method {
            Method::NeighborJoining => self.nj.push(t.reconstruction_ms),
            Method::Upgma => self.upgma.push(t.reconstruction_ms),
        }
        self.compare.push(t.comparison_ms);
        self.persist.push(r.persist_ms);
    }

    /// The window's per-layer figures. `distances` covers the program's
    /// whole distance stage (the sample's names and sequences, then the
    /// Jukes–Cantor matrix); `compare` its one streaming pass for both RF
    /// flavours and the per-clade agreement.
    fn report(&self, layers: &mut Layers) {
        let src = "program";
        layers.median("sampling.uniform_us", src, &self.uniform, US);
        layers.median("sampling.by_time_ms", src, &self.by_time, MS);
        layers.median("query.project_us", src, &self.project, US);
        layers.median("reconstruction.distance_ms", src, &self.distances, MS);
        layers.median("reconstruction.nj_ms", src, &self.nj, MS);
        layers.median("reconstruction.upgma_ms", src, &self.upgma, MS);
        layers.median("reconstruction.rf_ms", src, &self.compare, MS);
        layers.median("experiment.persist_ms", src, &self.persist, MS);
    }
}

/// What the post-round checks carry from round to round.
struct Checks<'a> {
    gold: &'a GoldText,
    oracle: &'a Oracle,
    /// RF digest of each seed class, from its first sweep.
    class_digest: HashMap<u64, u64>,
    /// Newick bytes of each seed class's reconstructions.
    class_bytes: HashMap<u64, u64>,
    program: ProgramTimings,
    /// Sweeps rebuilt cell by cell.
    rebuilt: u64,
}

impl Checks<'_> {
    /// Check sweep `i` (experiment `id`): every cell's figures are in
    /// range and its RF digest equals its seed class's; with `rebuild`,
    /// every cell is also rebuilt outside the sweep path (its calls spanned
    /// in that op) and compared. Returns the Newick bytes of the sweep's
    /// reconstructions.
    fn check(
        &mut self,
        out: &mut Outcome,
        repo: &Repository,
        spec: &ExperimentSpec,
        i: u64,
        id: u64,
        rebuild: Option<&OpScope<'_>>,
    ) -> u64 {
        let results = match repo.experiment_results(id) {
            Ok(r) => r,
            Err(e) => {
                out.fail(format!("sweep {i}: results: {e}"));
                return 0;
            }
        };
        for r in &results {
            self.program.add(r);
        }
        let class = i % SEED_CLASSES;
        let d = digest(&results);
        let bad_cell = results.iter().find(|r| {
            r.rf.distance > r.rf.max_distance
                || r.rooted_rf.distance > r.rooted_rf.max_distance
                || r.sample_size != K
        });
        match (self.class_digest.get(&class), bad_cell) {
            (_, Some(r)) => out.fail(format!("sweep {i}: cell {r:?} out of range")),
            (Some(&first), None) if first != d => out.fail(format!(
                "sweep {i}: RF digest {d:x} differs from its seed class's {first:x}"
            )),
            (Some(_), None) => {}
            (None, None) => {
                self.class_digest.insert(class, d);
                self.class_bytes.insert(class, newick_bytes(repo, &results));
            }
        }
        if let Some(op) = rebuild {
            self.rebuilt += 1;
            if let Err(e) = rebuild_cells(repo, self.gold, self.oracle, spec, &results, op) {
                out.fail(format!("sweep {i}: {e}"));
            }
        }
        self.class_bytes.get(&class).copied().unwrap_or(0)
    }
}

/// Bytes of the Newick text of the reconstructions a sweep persisted.
fn newick_bytes(repo: &Repository, results: &[ExperimentResult]) -> u64 {
    results
        .iter()
        .filter_map(|r| repo.tree_record(r.recon).ok())
        .filter_map(|rec| repo.export_nexus(&rec.name).ok())
        .filter_map(|doc| {
            doc.trees
                .first()
                .map(|t| phylo::newick::write(&t.tree).len() as u64)
        })
        .sum()
}

/// Rebuild every cell of a sweep without the sweep path and compare with
/// what it persisted. The sample comes from the public sampling call with
/// the cell's seed; its names come from the in-memory gold tree and its
/// sequences from the loaded text (`sequences_for` must return the same);
/// distances, reconstruction and RF come from the `reconstruction`
/// functions, against the projection of the in-memory tree. The persisted
/// RF figures and reconstruction must equal the rebuilt ones, and the
/// stored comparison of each cell's NJ and UPGMA trees must equal the RF
/// of the rebuilt pair.
fn rebuild_cells(
    repo: &Repository,
    gold: &GoldText,
    oracle: &Oracle,
    spec: &ExperimentSpec,
    results: &[ExperimentResult],
    op: &OpScope<'_>,
) -> Result<(), String> {
    let e = |what: &'static str| move |err: CrimsonError| format!("{what}: {err}");
    let c = |what: &'static str| {
        move |err: reconstruction::compare::CompareError| format!("{what}: {err}")
    };
    let handle = oracle.handle;
    let reader = repo.reader().map_err(e("reader"))?;
    let mut leaves = op
        .call("repository.leaves", || reader.leaves(handle))
        .map_err(e("leaves"))?;
    let mut want = oracle.leaves();
    leaves.sort();
    want.sort();
    if leaves != want {
        return Err("the gold tree's stored leaves differ from its text's".into());
    }
    let mut pairs: HashMap<(usize, usize), Vec<(TreeHandle, Tree)>> = HashMap::new();
    for r in results {
        let cell = format!(
            "{} cell {}/{}",
            r.method.name(),
            r.strategy_index,
            r.replicate
        );
        let seed = cell_seed(spec.seed, r.strategy_index, r.replicate);
        let sample = match r.strategy {
            SamplingStrategy::Uniform { k } => op.call("sampling.uniform", || {
                reader.sample_uniform(handle, k, seed)
            }),
            SamplingStrategy::TimeRespecting { time, k } => op.call("sampling.by_time", || {
                reader.sample_by_time(handle, time, k, seed)
            }),
            ref other => return Err(format!("{cell}: unexpected strategy {other:?}")),
        }
        .map_err(e("sample"))?;
        let local: Vec<phylo::NodeId> = sample
            .iter()
            .map(|&n| oracle.local(n).filter(|&l| oracle.tree.is_leaf(l)))
            .collect::<Option<_>>()
            .ok_or_else(|| format!("{cell}: the sample holds a node that is no gold leaf"))?;
        let names: Vec<String> = local
            .iter()
            .map(|&l| oracle.tree.node(l).name.clone().unwrap_or_default())
            .collect();
        let sequences: HashMap<String, String> = names
            .iter()
            .map(|n| {
                (
                    n.clone(),
                    gold.sequences.get(n).cloned().unwrap_or_default(),
                )
            })
            .collect();
        let stored = op
            .call("repository.sequences", || {
                reader.sequences_for(handle, &names)
            })
            .map_err(e("sequences_for"))?;
        if stored != sequences {
            return Err(format!(
                "{cell}: sequences_for differs from the loaded sequences"
            ));
        }
        let matrix = op
            .call("reconstruction.distance", || {
                jc_corrected_matrix(&sequences)
            })
            .map_err(|err| format!("{cell}: distances: {err}"))?;
        let tree = match r.method {
            Method::NeighborJoining => op.call("reconstruction.nj", || neighbor_joining(&matrix)),
            Method::Upgma => op.call("reconstruction.upgma", || upgma(&matrix)),
        }
        .map_err(|err| format!("{cell}: reconstruct: {err}"))?;
        let truth = phylo::ops::project(&oracle.tree, &local)
            .map_err(|err| format!("{cell}: project: {err}"))?;
        let rf = op
            .call("reconstruction.rf", || robinson_foulds(&truth, &tree))
            .map_err(c("rf"))?;
        let rooted = rooted_robinson_foulds(&truth, &tree).map_err(c("rooted rf"))?;
        if rf != r.rf || rooted != r.rooted_rf {
            return Err(format!(
                "{cell}: persisted RF {}/{} (rooted {}/{}), rebuilt {}/{} (rooted {}/{})",
                r.rf.distance,
                r.rf.max_distance,
                r.rooted_rf.distance,
                r.rooted_rf.max_distance,
                rf.distance,
                rf.max_distance,
                rooted.distance,
                rooted.max_distance
            ));
        }
        let recon_leaves = reader.leaves(r.recon).map_err(e("recon leaves"))?;
        let persisted = reader
            .project(r.recon, &recon_leaves)
            .map_err(e("recon tree"))?;
        if rooted_robinson_foulds(&persisted, &tree)
            .map_err(c("persisted vs rebuilt"))?
            .distance
            != 0
        {
            return Err(format!(
                "{cell}: the persisted reconstruction differs from the rebuilt one"
            ));
        }
        pairs
            .entry((r.strategy_index, r.replicate))
            .or_default()
            .push((r.recon, tree));
    }
    for ((s, rep), pair) in &pairs {
        let [(ha, ta), (hb, tb)] = pair.as_slice() else {
            return Err(format!("cell {s}/{rep}: {} methods persisted", pair.len()));
        };
        let stored = op
            .call("compare.stored_rf", || repo.compare_stored(*ha, *hb, false))
            .map_err(e("compare_stored"))?;
        let want = robinson_foulds(ta, tb).map_err(c("rf of the rebuilt pair"))?;
        if stored.rf != want {
            return Err(format!(
                "cell {s}/{rep}: stored comparison RF {}, rebuilt pair {}",
                stored.rf.distance, want.distance
            ));
        }
    }
    Ok(())
}
