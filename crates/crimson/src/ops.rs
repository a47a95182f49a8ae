//! The one read surface: [`ReadOps`].
//!
//! Every pure read — catalog lookups, node and species fetches, the
//! structure queries, sampling, index-native comparison, content
//! addresses, experiments and history — is implemented once on the crate's
//! read engine and exposed once, as a provided method of [`ReadOps`]. The
//! three handles that can read implement only the trait's required method,
//! which says *which state* a read sees:
//!
//! | implementor | reads against |
//! |---|---|
//! | [`Repository`] | the writer's live view, including its own uncommitted transaction |
//! | [`RepositoryReader`] | a fresh committed snapshot per call; a call whose epoch is retired re-pins under its [`crate::ReadRetry`] and reports [`CrimsonError::Busy`](crate::CrimsonError::Busy) when the budget runs out |
//! | [`PinnedReader`] | the one epoch it pinned; every call sees the same committed state, and a retired epoch surfaces as `SnapshotRetired` |
//!
//! The trait is sealed: only this crate's handles implement it. Import it
//! (or `crimson::prelude::*`) to call the read methods.
//!
//! [`Repository`]: crate::Repository
//! [`RepositoryReader`]: crate::RepositoryReader
//! [`PinnedReader`]: crate::PinnedReader

use crate::content::ContentStats;
use crate::error::CrimsonResult;
use crate::experiment::{CladeRow, ExperimentRecord, ExperimentResult};
use crate::history::{HistoryEntry, QueryKind};
use crate::query::PatternMatch;
use crate::repository::{
    FrameRecord, IntegrityReport, NodeRecord, ReadCtx, StoredFrameId, StoredNodeId, TreeHandle,
    TreeRecord, TreeStatsRecord,
};
use crate::sampling::SamplingStrategy;
use labeling::{CladeHash, CladeRef};
use phylo::Tree;
use reconstruction::compare::SourceComparison;
use std::collections::HashMap;
use std::sync::Arc;
use storage::DbRead;

pub(crate) mod sealed {
    /// Keeps [`super::ReadOps`] implementable only inside this crate.
    pub trait Sealed {}
}

/// The read operations shared by [`crate::Repository`],
/// [`crate::RepositoryReader`] and [`crate::PinnedReader`] (see the
/// [module docs](self) for what state each one reads).
pub trait ReadOps: sealed::Sealed {
    /// The storage view a read runs against.
    #[doc(hidden)]
    type Db<'v>: DbRead;

    /// Run `f` against this handle's read engine. Every provided method is
    /// one call of this; `f` may run more than once when a snapshot reader
    /// re-pins.
    #[doc(hidden)]
    #[allow(private_bounds)]
    fn with_ctx<R, F>(&self, f: F) -> CrimsonResult<R>
    where
        F: Fn(&ReadCtx<'_, Self::Db<'_>>) -> CrimsonResult<R>;

    // ------------------------------------------------------------------
    // Catalog
    // ------------------------------------------------------------------

    /// Look up a tree by name.
    fn find_tree(&self, name: &str) -> CrimsonResult<Option<TreeRecord>> {
        self.with_ctx(|ctx| ctx.find_tree(name))
    }

    /// Look up a tree by name, failing when absent.
    fn tree_by_name(&self, name: &str) -> CrimsonResult<TreeRecord> {
        self.with_ctx(|ctx| ctx.tree_by_name(name))
    }

    /// Look up a tree by handle.
    fn tree_record(&self, handle: TreeHandle) -> CrimsonResult<TreeRecord> {
        self.with_ctx(|ctx| ctx.tree_record(handle))
    }

    /// All trees stored.
    fn list_trees(&self) -> CrimsonResult<Vec<TreeRecord>> {
        self.with_ctx(|ctx| ctx.list_trees())
    }

    // ------------------------------------------------------------------
    // Nodes, frames, species
    // ------------------------------------------------------------------

    /// Fetch a node row (served from the handle's record cache when warm;
    /// node rows are immutable once loaded, so cached entries never go
    /// stale).
    fn node_record(&self, id: StoredNodeId) -> CrimsonResult<NodeRecord> {
        self.with_ctx(|ctx| ctx.node_record(id))
    }

    /// Fetch a node row as a shared handle — the zero-copy variant the query
    /// engine uses internally.
    fn node_record_arc(&self, id: StoredNodeId) -> CrimsonResult<Arc<NodeRecord>> {
        self.with_ctx(|ctx| ctx.node_record_arc(id))
    }

    /// Fetch a node row straight from the node table, bypassing the record
    /// cache. Reference path for the cache-effectiveness assertions.
    fn node_record_uncached(&self, id: StoredNodeId) -> CrimsonResult<NodeRecord> {
        self.with_ctx(|ctx| ctx.node_record_uncached(id))
    }

    /// Fetch a frame row.
    fn frame_record(&self, id: StoredFrameId) -> CrimsonResult<FrameRecord> {
        self.with_ctx(|ctx| ctx.frame_record(id))
    }

    /// Children of a stored node (via the parent index).
    fn children(&self, id: StoredNodeId) -> CrimsonResult<Vec<StoredNodeId>> {
        self.with_ctx(|ctx| ctx.children(id))
    }

    /// The leaf node a species name maps to in the given tree, if any.
    fn species_node(&self, handle: TreeHandle, name: &str) -> CrimsonResult<Option<StoredNodeId>> {
        self.with_ctx(|ctx| ctx.species_node(handle, name))
    }

    /// The leaf node a species name maps to, failing when absent.
    fn require_species_node(&self, handle: TreeHandle, name: &str) -> CrimsonResult<StoredNodeId> {
        self.with_ctx(|ctx| ctx.require_species_node(handle, name))
    }

    /// All leaf node ids of a tree (via the `leaf_of_tree` index).
    fn leaves(&self, handle: TreeHandle) -> CrimsonResult<Vec<StoredNodeId>> {
        self.with_ctx(|ctx| ctx.leaves(handle))
    }

    /// Sequences stored for the given species names.
    fn sequences_for(
        &self,
        handle: TreeHandle,
        names: &[String],
    ) -> CrimsonResult<HashMap<String, String>> {
        self.with_ctx(|ctx| ctx.sequences_for(handle, names))
    }

    /// Number of species rows stored for a tree.
    fn species_count(&self, handle: TreeHandle) -> CrimsonResult<usize> {
        self.with_ctx(|ctx| ctx.species_count(handle))
    }

    // ------------------------------------------------------------------
    // Structure queries
    // ------------------------------------------------------------------

    /// The packed `[pre, end]` interval of a stored node: one point lookup
    /// in the `ivl_by_node` raw index, no row decode.
    fn interval_of(&self, id: StoredNodeId) -> CrimsonResult<(u32, u32)> {
        self.with_ctx(|ctx| ctx.interval_of(id))
    }

    /// Least common ancestor of two stored nodes, computed entirely inside
    /// the interval index.
    ///
    /// The enclosing-interval tests resolve the ancestor cases in O(1) after
    /// two point lookups. Otherwise the walk lifts the lower-ranked node
    /// through its stored `parent_pre` chain until its interval covers the
    /// higher rank; every ancestor of one node that covers the other node's
    /// rank is a common ancestor, and the first (deepest) one reached is the
    /// LCA. Each step is one probe of the compact covering index — no node
    /// row is fetched or decoded on this path.
    fn lca(&self, a: StoredNodeId, b: StoredNodeId) -> CrimsonResult<StoredNodeId> {
        self.with_ctx(|ctx| ctx.lca(a, b))
    }

    /// `true` when `ancestor` is an ancestor-or-self of `node`: two interval
    /// lookups and two integer comparisons (§2.2's LCA test, at the cost the
    /// XML-indexing literature promises for interval labels).
    fn is_ancestor(&self, ancestor: StoredNodeId, node: StoredNodeId) -> CrimsonResult<bool> {
        self.with_ctx(|ctx| ctx.is_ancestor(ancestor, node))
    }

    /// Least common ancestor computed from the stored hierarchical Dewey
    /// labels (local prefix within a frame; source-node hops across frames),
    /// exactly as §2.1 describes.
    ///
    /// This is the pre-interval-index implementation, kept as the reference
    /// the property tests and the concurrency stress harness cross-validate
    /// [`ReadOps::lca`] against, and as the baseline for the page-read
    /// comparisons. It pays one full row decode per node visited.
    fn lca_label_walk(&self, a: StoredNodeId, b: StoredNodeId) -> CrimsonResult<StoredNodeId> {
        self.with_ctx(|ctx| ctx.lca_label_walk(a, b))
    }

    /// Minimal spanning clade of a set of nodes: all nodes in the subtree
    /// rooted at their least common ancestor (§2.2), in pre-order.
    ///
    /// Each input node's interval is fetched exactly once; the LCA of the
    /// whole set is the LCA of its minimum- and maximum-rank members; and
    /// the clade itself is **one contiguous range scan** over the interval
    /// index — no per-node row fetch, no breadth-first search.
    fn minimal_spanning_clade(&self, nodes: &[StoredNodeId]) -> CrimsonResult<Vec<StoredNodeId>> {
        self.with_ctx(|ctx| ctx.minimal_spanning_clade(nodes))
    }

    /// Reference implementation of the minimal spanning clade from before
    /// the interval index: fold pairwise label-walk LCAs, then breadth-first
    /// collection through the parent index with one row fetch per node.
    /// Kept for cross-validation and as the page-read baseline.
    fn minimal_spanning_clade_reference(
        &self,
        nodes: &[StoredNodeId],
    ) -> CrimsonResult<Vec<StoredNodeId>> {
        self.with_ctx(|ctx| ctx.minimal_spanning_clade_reference(nodes))
    }

    /// Project the stored tree onto a set of leaf nodes, following the
    /// paper's algorithm: sort the leaves by pre-order, insert them left to
    /// right, and determine each insertion point from the LCA of consecutive
    /// leaves along the rightmost path of the partial tree. Unary nodes
    /// never arise; edge weights are differences of stored cumulative root
    /// distances.
    ///
    /// The consecutive-pair LCAs come from the interval index: a **single
    /// range scan** over `[pre(lca), end(lca)]` with an ancestor stack when
    /// the selection is dense in its clade, or per-pair interval walks when
    /// it is sparse. Node rows are fetched (through the record cache) only
    /// for nodes that appear in the output — ~2k rows for k selected leaves,
    /// independent of tree size.
    ///
    /// The result is an in-memory [`Tree`] whose leaves carry the stored
    /// species names.
    fn project(&self, handle: TreeHandle, leaves: &[StoredNodeId]) -> CrimsonResult<Tree> {
        self.with_ctx(|ctx| ctx.project(handle, leaves))
    }

    /// Reference implementation of projection from before the interval
    /// index: per-pair label-walk LCAs and uncached row fetches. Kept for
    /// cross-validation and as the page-read baseline.
    fn project_reference(
        &self,
        handle: TreeHandle,
        leaves: &[StoredNodeId],
    ) -> CrimsonResult<Tree> {
        self.with_ctx(|ctx| ctx.project_reference(handle, leaves))
    }

    /// Project by species names (§3 "user input" selection).
    fn project_species(&self, handle: TreeHandle, names: &[&str]) -> CrimsonResult<Tree> {
        self.with_ctx(|ctx| ctx.project_species(handle, names))
    }

    /// Tree pattern match (§2.2): project the stored tree onto the pattern's
    /// leaves and compare the projection with the pattern — exactly for an
    /// exact match, by Robinson–Foulds distance for an approximate one.
    fn pattern_match(&self, handle: TreeHandle, pattern: &Tree) -> CrimsonResult<PatternMatch> {
        self.with_ctx(|ctx| ctx.pattern_match(handle, pattern))
    }

    // ------------------------------------------------------------------
    // Sampling (deterministic per seed: every implementor draws the same
    // sample from the same state)
    // ------------------------------------------------------------------

    /// Execute a sampling strategy, returning the selected leaf nodes.
    fn sample(
        &self,
        handle: TreeHandle,
        strategy: &SamplingStrategy,
        seed: u64,
    ) -> CrimsonResult<Vec<StoredNodeId>> {
        self.with_ctx(|ctx| ctx.sample(handle, strategy, seed))
    }

    /// Uniformly sample `k` distinct species from the tree.
    fn sample_uniform(
        &self,
        handle: TreeHandle,
        k: usize,
        seed: u64,
    ) -> CrimsonResult<Vec<StoredNodeId>> {
        self.with_ctx(|ctx| ctx.sample_uniform(handle, k, seed))
    }

    /// Sample `k` species with respect to evolutionary time `time` (§2.2):
    /// draw round-robin from the subtrees under [`ReadOps::time_frontier`].
    fn sample_by_time(
        &self,
        handle: TreeHandle,
        time: f64,
        k: usize,
        seed: u64,
    ) -> CrimsonResult<Vec<StoredNodeId>> {
        self.with_ctx(|ctx| ctx.sample_by_time(handle, time, k, seed))
    }

    /// The evolutionary-time frontier used by [`ReadOps::sample_by_time`]:
    /// the maximal nodes whose clade age (subtree height) is at most `time`.
    fn time_frontier(&self, handle: TreeHandle, time: f64) -> CrimsonResult<Vec<StoredNodeId>> {
        self.with_ctx(|ctx| ctx.time_frontier(handle, time))
    }

    /// The literal frontier from the paper's prose: the minimal nodes whose
    /// cumulative distance from the root is at least `time`.
    fn root_distance_frontier(
        &self,
        handle: TreeHandle,
        time: f64,
    ) -> CrimsonResult<Vec<StoredNodeId>> {
        self.with_ctx(|ctx| ctx.root_distance_frontier(handle, time))
    }

    /// All leaves in the subtree rooted at `node`.
    fn leaves_under(&self, node: StoredNodeId) -> CrimsonResult<Vec<StoredNodeId>> {
        self.with_ctx(|ctx| ctx.leaves_under(node))
    }

    /// Resolve an explicit list of species names to leaf nodes.
    fn sample_by_names(
        &self,
        handle: TreeHandle,
        names: &[&str],
    ) -> CrimsonResult<Vec<StoredNodeId>> {
        self.with_ctx(|ctx| ctx.sample_by_names(handle, names))
    }

    /// Convenience: the names of a set of stored leaf nodes.
    fn names_of(&self, nodes: &[StoredNodeId]) -> CrimsonResult<Vec<String>> {
        self.with_ctx(|ctx| ctx.names_of(nodes))
    }

    // ------------------------------------------------------------------
    // Index-native tree comparison
    // ------------------------------------------------------------------

    /// Robinson–Foulds (rooted and unrooted), per-clade agreement and —
    /// when `triplets` is set — triplet distance between two stored trees,
    /// computed inside the interval index: one range scan per tree, leaf
    /// rows only, no tree materialization.
    fn compare_stored(
        &self,
        a: TreeHandle,
        b: TreeHandle,
        triplets: bool,
    ) -> CrimsonResult<SourceComparison> {
        self.with_ctx(|ctx| ctx.compare_stored(a, b, triplets))
    }

    /// Compare a stored tree (reference side) against an in-memory tree.
    fn compare_stored_with_tree(
        &self,
        a: TreeHandle,
        b: &Tree,
        triplets: bool,
    ) -> CrimsonResult<SourceComparison> {
        self.with_ctx(|ctx| ctx.compare_stored_with_tree(a, b, triplets))
    }

    // ------------------------------------------------------------------
    // Content addresses
    // ------------------------------------------------------------------

    /// The content-address summary row of a tree, `None` when absent
    /// (pre-hash file awaiting
    /// [`Repository::backfill_clade_hashes`](crate::Repository::backfill_clade_hashes)).
    fn tree_stats(&self, handle: TreeHandle) -> CrimsonResult<Option<TreeStatsRecord>> {
        self.with_ctx(|ctx| ctx.tree_stats(handle))
    }

    /// O(1) whole-tree equality via stored root hashes.
    fn trees_equal(&self, a: TreeHandle, b: TreeHandle) -> CrimsonResult<bool> {
        self.with_ctx(|ctx| ctx.trees_equal(a, b))
    }

    /// O(1) subtree equality between two stored nodes.
    fn subtrees_equal(&self, a: StoredNodeId, b: StoredNodeId) -> CrimsonResult<bool> {
        self.with_ctx(|ctx| ctx.subtrees_equal(a, b))
    }

    /// The canonical clade hash of the subtree rooted at a stored node.
    fn subtree_hash(&self, id: StoredNodeId) -> CrimsonResult<CladeHash> {
        self.with_ctx(|ctx| ctx.node_content_hash(id))
    }

    /// Stored trees whose content address equals `hash` (no-scan lookup).
    fn trees_with_root_hash(&self, hash: CladeHash) -> CrimsonResult<Vec<TreeHandle>> {
        self.with_ctx(|ctx| ctx.trees_with_root_hash(hash))
    }

    /// Every published stored subtree whose content address equals `hash`,
    /// as `(tree, pre, end)` spans.
    fn subtrees_with_hash(&self, hash: CladeHash) -> CrimsonResult<Vec<(TreeHandle, u32, u32)>> {
        self.with_ctx(|ctx| ctx.subtrees_with_hash(hash))
    }

    /// The structural-sharing reference rows of a cold tree.
    fn clade_refs_of(&self, handle: TreeHandle) -> CrimsonResult<Vec<CladeRef>> {
        self.with_ctx(|ctx| ctx.clade_refs_of(handle))
    }

    /// Aggregate sharing statistics across the repository.
    fn content_stats(&self) -> CrimsonResult<ContentStats> {
        self.with_ctx(|ctx| ctx.content_stats())
    }

    // ------------------------------------------------------------------
    // Experiments
    // ------------------------------------------------------------------

    /// All persisted experiments, in id order.
    fn list_experiments(&self) -> CrimsonResult<Vec<ExperimentRecord>> {
        self.with_ctx(|ctx| ctx.list_experiments())
    }

    /// Look up an experiment by name.
    fn find_experiment(&self, name: &str) -> CrimsonResult<Option<ExperimentRecord>> {
        self.with_ctx(|ctx| ctx.find_experiment(name))
    }

    /// Look up an experiment by name, failing when absent.
    fn experiment_by_name(&self, name: &str) -> CrimsonResult<ExperimentRecord> {
        self.with_ctx(|ctx| ctx.experiment_by_name(name))
    }

    /// All result rows of an experiment, in grid-cell order.
    fn experiment_results(&self, experiment: u64) -> CrimsonResult<Vec<ExperimentResult>> {
        self.with_ctx(|ctx| ctx.experiment_results(experiment))
    }

    /// The per-clade agreement rows of one result.
    fn experiment_clades(&self, result: u64) -> CrimsonResult<Vec<CladeRow>> {
        self.with_ctx(|ctx| ctx.experiment_clades(result))
    }

    // ------------------------------------------------------------------
    // History and integrity
    // ------------------------------------------------------------------

    /// All recorded queries in execution order.
    fn query_history(&self) -> CrimsonResult<Vec<HistoryEntry>> {
        self.with_ctx(|ctx| ctx.query_history())
    }

    /// Fetch one history entry by id.
    fn history_entry(&self, id: u64) -> CrimsonResult<HistoryEntry> {
        self.with_ctx(|ctx| ctx.history_entry(id))
    }

    /// Entries of a given kind, in execution order.
    fn history_of_kind(&self, kind: QueryKind) -> CrimsonResult<Vec<HistoryEntry>> {
        self.with_ctx(|ctx| ctx.history_of_kind(kind))
    }

    /// Verify cross-table invariants: every node, frame and species row
    /// belongs to a tree in the catalog; per-tree node and leaf counts
    /// match the tree row; both interval indexes hold exactly one entry per
    /// node; every species row points at a leaf of its tree; the query
    /// history parses in full. Violations — orphan rows from an interrupted
    /// load, say — surface as
    /// [`CrimsonError::CorruptRepository`](crate::CrimsonError::CorruptRepository).
    fn integrity_check(&self) -> CrimsonResult<IntegrityReport> {
        self.with_ctx(|ctx| ctx.integrity_check())
    }
}
