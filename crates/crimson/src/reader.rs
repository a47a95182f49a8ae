//! Concurrent snapshot readers for the repository.
//!
//! Crimson is pitched as a shared service: many researchers query the same
//! repository while new gold standards keep loading. [`RepositoryReader`]
//! is the handle that makes that concurrent: it is `Send + Sync`, shares
//! the writer's buffer pool, and serves every read from a **pinned
//! committed snapshot** — the storage layer's per-page version chains make
//! the writer's in-flight transaction (and every commit that lands after
//! the pin) invisible, so readers never block behind a load and never
//! observe a half-loaded tree.
//!
//! ## The snapshot-read rule
//!
//! A single page read is always committed-consistent, but a multi-page
//! operation (an LCA walk, a clade scan, a projection) must not straddle a
//! commit — the first pages read pre-commit, the rest post-commit. Every
//! public operation therefore **pins a snapshot epoch** before its first
//! page touch ([`storage::db::DbReader::pin_epoch`]) and runs entirely
//! against that epoch's view ([`storage::EpochView`]): the pool keeps the
//! last `K = `[`storage::buffer::VERSION_CHAIN_CAP`] committed versions of
//! every recently-written page, and the pinned read resolves each page to
//! the newest version at or below its epoch. Commits landing mid-operation
//! are simply never seen — the operation completes against a frozen state
//! without retrying, however fast the writer commits.
//!
//! The one residual failure is [`storage::StorageError::SnapshotRetired`]:
//! the version chain is bounded, so a read that holds its pin while the
//! writer commits more than K new versions of a page the read then touches
//! finds its epoch garbage-collected. The reader handles it by re-pinning
//! a fresh epoch and re-running the operation, bounded by [`ReadRetry`];
//! exhausting that budget surfaces
//! [`CrimsonError::Busy`](crate::error::CrimsonError::Busy). The
//! concurrency stress harness drives a group-commit-cadence writer against
//! four readers and observes zero retirements at K = 4, so the fallback is
//! cold in practice — kept only so the contract degrades loudly instead of
//! serving a torn view if a future workload breaks the bound.
//!
//! Each reader carries its own record/interval caches (sharded, see
//! [`crate::cache::ShardedCache`]). Cached rows are immutable once loaded
//! and readers only ever observe committed rows, so the caches never need
//! invalidation — exactly the same argument the writer's caches rely on.

use crate::cache::ShardedCache;
use crate::error::{CrimsonError, CrimsonResult};
use crate::ops::ReadOps;
use crate::repository::{
    NodeRecord, ReadCtx, Repository, StoredNodeId, Tables, ENTRY_CACHE_GEN, RECORD_CACHE_GEN,
};
use labeling::interval::IntervalEntry;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;
use storage::db::DbReader;
use storage::EpochView;

/// Monotone id source for per-reader backoff salts: every reader gets its
/// own splitmix64-whitened seed, so concurrent readers that do hit the
/// (cold) re-pin path sleep *different* jittered intervals instead of
/// phase-locking to each other.
static READER_SEQ: AtomicU64 = AtomicU64::new(0);

/// splitmix64 — cheap, seedable, good enough to decorrelate readers.
fn splitmix64(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Retry/backoff policy for the **cold** snapshot-retired fallback: a
/// bounded number of attempts with **jittered exponential backoff** between
/// them. Under versioned reads an attempt only fails when the writer
/// committed more than [`storage::buffer::VERSION_CHAIN_CAP`] versions of a
/// touched page while the read held its pin; backing off with per-reader
/// jitter desynchronises the re-pin from the commit cadence (and from other
/// readers) so the retry lands inside the version window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadRetry {
    /// Maximum pin attempts before giving up with
    /// [`CrimsonError::Busy`](crate::error::CrimsonError::Busy).
    pub attempts: usize,
    /// Backoff before the second attempt; doubles per retry. Zero disables
    /// sleeping entirely (pure spin).
    pub base_delay: Duration,
    /// Backoff ceiling.
    pub max_delay: Duration,
}

impl Default for ReadRetry {
    fn default() -> Self {
        ReadRetry {
            attempts: 64,
            base_delay: Duration::from_micros(20),
            max_delay: Duration::from_millis(2),
        }
    }
}

impl ReadRetry {
    /// Sleep before retry number `attempt` (1-based): exponential in the
    /// attempt, with deterministic jitter drawn from `salt` spreading
    /// concurrent readers over `[delay/2, delay]`.
    fn backoff(&self, attempt: usize, salt: u64) {
        if self.base_delay.is_zero() {
            return;
        }
        let shift = (attempt - 1).min(16) as u32;
        let ceiling = self.max_delay.max(self.base_delay);
        let delay = self
            .base_delay
            .saturating_mul(1u32 << shift.min(31))
            .min(ceiling);
        let nanos = delay.as_nanos() as u64;
        let z = splitmix64(salt.wrapping_add(attempt as u64));
        let jittered = nanos / 2 + z % (nanos / 2 + 1);
        std::thread::sleep(Duration::from_nanos(jittered));
    }
}

/// A concurrent snapshot reader over a [`Repository`], created by
/// [`Repository::reader`]. All methods take `&self`; share one reader
/// across threads or create one per thread — both are supported, the
/// former shares its caches, the latter isolates them.
pub struct RepositoryReader {
    db: DbReader,
    tables: Tables,
    records: ShardedCache<StoredNodeId, Arc<NodeRecord>>,
    entries: ShardedCache<u64, IntervalEntry>,
    retry: ReadRetry,
    /// Per-reader backoff salt (whitened instance counter): distinct per
    /// reader by construction, so the jittered backoffs of concurrent
    /// readers are decorrelated even when they retire at the same instant.
    salt: u64,
}

impl std::fmt::Debug for RepositoryReader {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RepositoryReader")
            .field("generation", &self.db.generation())
            .finish()
    }
}

impl RepositoryReader {
    pub(crate) fn new(repo: &Repository) -> CrimsonResult<RepositoryReader> {
        Ok(RepositoryReader {
            db: repo.db.reader()?,
            tables: repo.tables,
            records: ShardedCache::new(RECORD_CACHE_GEN),
            entries: ShardedCache::new(ENTRY_CACHE_GEN),
            retry: ReadRetry::default(),
            salt: splitmix64(READER_SEQ.fetch_add(1, Ordering::Relaxed)),
        })
    }

    /// The storage read generation this reader currently observes (advances
    /// with every commit or rollback).
    pub fn generation(&self) -> u64 {
        self.db.generation()
    }

    /// Block until the write-ahead log is durable up to `lsn` (leading or
    /// following a group fsync as needed). This is the durability *barrier*
    /// side of [`crate::repository::Durability::Async`]: it does not need —
    /// and must not hold — the single writer, so a server session can
    /// release the writer after an asynchronous commit and wait here while
    /// other sessions' commits ride the same fsync round.
    pub fn wait_durable(&self, lsn: storage::wal::Lsn) -> CrimsonResult<()> {
        self.db.wait_durable(lsn)?;
        Ok(())
    }

    /// Absolute LSN up to which the write-ahead log is known durable.
    pub fn durable_lsn(&self) -> storage::wal::Lsn {
        self.db.durable_lsn()
    }

    /// Replace the retry/backoff policy for this reader's (cold)
    /// snapshot-retired fallback.
    pub fn set_read_retry(&mut self, retry: ReadRetry) {
        self.retry = ReadRetry {
            attempts: retry.attempts.max(1),
            ..retry
        };
    }

    /// This reader's retry/backoff policy.
    pub fn read_retry(&self) -> ReadRetry {
        self.retry
    }

    /// Pin a snapshot of the current committed state. Every query method on
    /// the returned [`PinnedReader`] evaluates against this one frozen
    /// epoch — commits landing after the pin are invisible until the pin is
    /// dropped. Use it to make a *group* of reads mutually consistent (the
    /// batch executor pins one epoch per batch) or to hold a stable view
    /// open across writer activity.
    pub fn pin(&self) -> CrimsonResult<PinnedReader<'_>> {
        let pin = self.db.pin_epoch();
        let view = self.db.at_epoch(&pin)?;
        Ok(PinnedReader {
            reader: self,
            _pin: pin,
            view,
        })
    }
}

impl crate::ops::sealed::Sealed for RepositoryReader {}

/// Each read pins a fresh committed epoch: pin, resolve the epoch view,
/// run, unpin. The operation never races the writer — its epoch's page
/// versions are immutable — so the only reason to loop is the cold
/// [`storage::StorageError::SnapshotRetired`] fallback (the writer
/// committed past the bounded version chain mid-operation), in which case
/// the reader re-pins a fresh epoch after a jittered backoff, bounded by
/// its [`ReadRetry`]. This is the workspace's only re-pin loop.
impl ReadOps for RepositoryReader {
    type Db<'v> = EpochView<'v>;

    #[allow(private_bounds)]
    fn with_ctx<R, F>(&self, f: F) -> CrimsonResult<R>
    where
        F: Fn(&ReadCtx<'_, EpochView<'_>>) -> CrimsonResult<R>,
    {
        let attempts = self.retry.attempts.max(1);
        let mut last = String::new();
        for attempt in 0..attempts {
            if attempt > 0 {
                // Count the re-pin in the pool's shared statistics: the
                // concurrency harnesses assert this stays flat (zero) under
                // a continuously committing writer.
                self.db.note_snapshot_retry();
                // Back off before re-pinning so the fresh epoch has a full
                // version window ahead of it; per-reader salt keeps
                // concurrent readers from phase-locking on the same
                // schedule.
                self.retry.backoff(attempt, self.salt);
            }
            let pin = self.db.pin_epoch();
            let out = self
                .db
                .at_epoch(&pin)
                .map_err(CrimsonError::from)
                .and_then(|view| {
                    let ctx = ReadCtx {
                        db: &view,
                        tables: self.tables,
                        records: &self.records,
                        entries: &self.entries,
                    };
                    f(&ctx)
                });
            match out {
                Err(e) if e.is_snapshot_retired() => last = e.to_string(),
                other => return other,
            }
        }
        // Every pinned attempt outlived its version chain — the writer
        // committed more than the chain capacity of versions of some page
        // this operation touches, every time. Report Busy rather than
        // serving a possibly-torn value; the stress harness shows this is
        // unreachable at the current chain depth.
        self.db.note_snapshot_retry();
        Err(CrimsonError::Busy(format!(
            "read re-pinned {attempts} times against a continuously committing writer; \
             the last attempt failed with: {last}"
        )))
    }
}

/// A [`RepositoryReader`] frozen at one snapshot epoch, created by
/// [`RepositoryReader::pin`]. Every query evaluates against the same
/// committed state however many commits land while the pin is held, which
/// makes a *group* of reads mutually consistent — the property the batch
/// executor and the experiment sweep rely on. Shares the parent reader's
/// row caches.
///
/// Holding the pin keeps the epoch's page versions alive in the pool, so
/// drop it promptly when done. A query can still fail with
/// [`storage::StorageError::SnapshotRetired`] if the writer commits more
/// versions of a touched page than the bounded chain keeps (unreachable in
/// the stress harness at the current depth); callers who need to absorb
/// even that re-run the read on the parent reader.
pub struct PinnedReader<'a> {
    reader: &'a RepositoryReader,
    _pin: storage::EpochPin,
    view: EpochView<'a>,
}

impl std::fmt::Debug for PinnedReader<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PinnedReader")
            .field("epoch", &self.view.epoch())
            .finish()
    }
}

impl PinnedReader<'_> {
    /// The pinned snapshot epoch (the commit sequence this view reads as
    /// of).
    pub fn epoch(&self) -> u64 {
        self.view.epoch()
    }
}

impl crate::ops::sealed::Sealed for PinnedReader<'_> {}

/// Every read runs against the pinned epoch view with the parent reader's
/// caches; a retired epoch surfaces as `SnapshotRetired`.
impl ReadOps for PinnedReader<'_> {
    type Db<'v> = EpochView<'v>;

    #[allow(private_bounds)]
    fn with_ctx<R, F>(&self, f: F) -> CrimsonResult<R>
    where
        F: Fn(&ReadCtx<'_, EpochView<'_>>) -> CrimsonResult<R>,
    {
        f(&ReadCtx {
            db: &self.view,
            tables: self.reader.tables,
            records: &self.reader.records,
            entries: &self.reader.entries,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::{DistanceSource, ExperimentRunner, ExperimentSpec, Method};
    use crate::history::QueryKind;
    use crate::repository::{RepositoryOptions, TreeHandle};
    use crate::sampling::SamplingStrategy;
    use phylo::builder::figure1_tree;
    use phylo::Tree;
    use simulation::gold::GoldStandardBuilder;
    use std::collections::BTreeMap;
    use tempfile::tempdir;

    /// Arguments for [`every_read`], drawn from the writer once.
    struct Fixture {
        gold: TreeHandle,
        cold: TreeHandle,
        root: StoredNodeId,
        inner: StoredNodeId,
        leaves: Vec<StoredNodeId>,
        names: Vec<String>,
        pattern: Tree,
        tree: Tree,
        time: f64,
        experiment: u64,
        result: u64,
        history: u64,
    }

    /// Call every [`ReadOps`] method once on `r` and render each answer
    /// with `{:?}`, so the three implementors can be compared line by line.
    fn every_read<R: ReadOps>(r: &R, fx: &Fixture) -> Vec<String> {
        macro_rules! answers {
            ($($call:expr),* $(,)?) => {
                vec![$(format!("{} = {:?}", stringify!($call), $call)),*]
            };
        }
        let (g, a, b) = (fx.gold, fx.leaves[0], fx.leaves[fx.leaves.len() - 1]);
        let name = fx.names[0].as_str();
        let some: Vec<&str> = fx.names.iter().take(5).map(String::as_str).collect();
        let root_hash = r.tree_stats(g).unwrap().unwrap().root_hash;
        let frame = r.node_record(fx.inner).unwrap().frame;
        answers![
            r.find_tree("gold"),
            r.tree_by_name("gold"),
            r.tree_record(g),
            r.list_trees(),
            r.node_record(fx.inner),
            r.node_record_arc(fx.inner),
            r.node_record_uncached(fx.inner),
            r.frame_record(frame),
            r.children(fx.root),
            r.species_node(g, name),
            r.require_species_node(g, name),
            r.leaves(g),
            r.sequences_for(g, &fx.names)
                .map(|m| m.into_iter().collect::<BTreeMap<_, _>>()),
            r.species_count(g),
            r.interval_of(fx.inner),
            r.lca(a, b),
            r.is_ancestor(fx.inner, a),
            r.lca_label_walk(a, b),
            r.minimal_spanning_clade(&[a, b]),
            r.minimal_spanning_clade_reference(&[a, b]),
            r.project(g, &fx.leaves[..6]),
            r.project_reference(g, &fx.leaves[..6]),
            r.project_species(g, &some),
            r.pattern_match(g, &fx.pattern),
            r.sample(g, &SamplingStrategy::Uniform { k: 5 }, 3),
            r.sample_uniform(g, 5, 3),
            r.sample_by_time(g, fx.time, 5, 3),
            r.time_frontier(g, fx.time),
            r.root_distance_frontier(g, fx.time),
            r.leaves_under(fx.inner),
            r.sample_by_names(g, &some),
            r.names_of(&fx.leaves[..6]),
            r.compare_stored(g, fx.cold, true),
            r.compare_stored_with_tree(g, &fx.tree, false),
            r.tree_stats(fx.cold),
            r.trees_equal(g, fx.cold),
            r.subtrees_equal(a, b),
            r.subtree_hash(fx.root),
            r.trees_with_root_hash(root_hash),
            r.subtrees_with_hash(root_hash),
            r.clade_refs_of(fx.cold),
            r.content_stats(),
            r.list_experiments(),
            r.find_experiment("exp"),
            r.experiment_by_name("exp"),
            r.experiment_results(fx.experiment),
            r.experiment_clades(fx.result),
            r.query_history(),
            r.history_entry(fx.history),
            r.history_of_kind(QueryKind::Experiment),
            r.integrity_check(),
        ]
    }

    #[test]
    fn reader_matches_writer_on_quiet_repository() {
        let dir = tempdir().unwrap();
        let mut repo = Repository::create(
            dir.path().join("r.crimson"),
            RepositoryOptions {
                frame_depth: 2,
                buffer_pool_pages: 256,
                ..Default::default()
            },
        )
        .unwrap();
        let gold = GoldStandardBuilder::new()
            .leaves(24)
            .sequence_length(40)
            .seed(5)
            .build()
            .unwrap();
        let handle = repo.load_gold_standard("gold", &gold).unwrap();
        let cold = repo.store_tree_shared("cold", &gold.tree, 1).unwrap();
        let record = ExperimentRunner::new(&mut repo, handle)
            .run(&ExperimentSpec {
                name: "exp".into(),
                methods: vec![Method::NeighborJoining],
                strategies: vec![SamplingStrategy::Uniform { k: 8 }],
                replicates: 1,
                distance_source: DistanceSource::TruePatristic,
                compute_triplets: false,
                seed: 1,
                workers: 1,
                cell_commits: false,
            })
            .unwrap();

        let root = repo.tree_record(handle).unwrap().root;
        let leaves = repo.leaves(handle).unwrap();
        let names = repo.names_of(&leaves).unwrap();
        let some: Vec<&str> = names.iter().take(5).map(String::as_str).collect();
        let fx = Fixture {
            gold: handle,
            cold,
            root,
            inner: repo.lca(leaves[0], leaves[1]).unwrap(),
            pattern: repo.project_species(handle, &some).unwrap(),
            tree: gold.tree.clone(),
            time: repo.node_record(root).unwrap().subtree_height / 2.0,
            experiment: record.id,
            result: repo.experiment_results(record.id).unwrap()[0].id,
            history: repo.history_of_kind(QueryKind::Experiment).unwrap()[0].id,
            leaves,
            names: names.clone(),
        };

        let writer = every_read(&repo, &fx);
        for answer in &writer {
            assert!(!answer.contains(" = Err("), "{answer}");
        }
        let reader = repo.reader().unwrap();
        let pinned = reader.pin().unwrap();
        for (who, answers) in [
            ("reader", every_read(&reader, &fx)),
            ("pinned", every_read(&pinned, &fx)),
        ] {
            assert_eq!(answers.len(), writer.len());
            for (got, want) in answers.iter().zip(&writer) {
                assert_eq!(got, want, "{who} and writer disagree");
            }
        }

        // Spot checks that the shared answers are the right ones.
        assert_eq!(reader.leaves(handle).unwrap().len(), 24);
        let (a, b) = (fx.leaves[0], fx.leaves[1]);
        assert_eq!(
            reader.lca(a, b).unwrap(),
            reader.lca_label_walk(a, b).unwrap()
        );
        assert_eq!(
            pinned
                .project_species(handle, &some[..3])
                .unwrap()
                .leaf_count(),
            3
        );
        assert!(reader.trees_equal(handle, cold).unwrap());
        assert!(!reader.clade_refs_of(cold).unwrap().is_empty());
        assert!(!pinned
            .subtrees_with_hash(pinned.subtree_hash(root).unwrap())
            .unwrap()
            .is_empty());
    }

    #[test]
    fn reader_does_not_see_uncommitted_tree() {
        let dir = tempdir().unwrap();
        let mut repo = Repository::create(
            dir.path().join("r.crimson"),
            RepositoryOptions {
                frame_depth: 2,
                buffer_pool_pages: 256,
                ..Default::default()
            },
        )
        .unwrap();
        repo.load_tree("first", &figure1_tree()).unwrap();
        let reader = repo.reader().unwrap();
        assert_eq!(reader.list_trees().unwrap().len(), 1);

        // Open a transaction by hand and load inside it: the reader must
        // keep seeing exactly one tree until the commit.
        repo.db.begin().unwrap();
        repo.load_tree("second", &figure1_tree()).unwrap();
        assert_eq!(repo.list_trees().unwrap().len(), 2, "writer sees its load");
        assert_eq!(
            reader.list_trees().unwrap().len(),
            1,
            "reader must not see the in-flight load"
        );
        assert!(reader.find_tree("second").unwrap().is_none());
        repo.db.commit().unwrap();
        assert_eq!(reader.list_trees().unwrap().len(), 2);
        assert!(reader.find_tree("second").unwrap().is_some());
    }
}
