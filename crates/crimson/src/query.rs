//! Structure queries over the stored tree: minimal spanning clade, tree
//! projection and tree pattern match (§2.2 of the paper).
//!
//! All queries run against the disk-resident repository; none of them
//! materialize the full stored tree in memory — only the index entries and
//! rows a query touches are read, which is the paper's central argument for
//! a database-backed design.
//!
//! ## Access paths
//!
//! The engine runs on the persistent **interval index** (see
//! [`labeling::interval`] for the layout): a node's subtree is the
//! contiguous key range `[(tree, pre), (tree, end)]`, so
//!
//! * `minimal_spanning_clade` is one LCA plus **one range scan** — no
//!   breadth-first search, no per-node row fetch;
//! * `project` resolves the consecutive-leaf LCAs the paper's insertion
//!   algorithm needs either from a **single range scan** over the clade
//!   (dense selections: a stack over the pre-ordered entries yields every
//!   pair LCA in one pass) or via per-pair interval walks (sparse
//!   selections), and fetches node rows only for the ~2k nodes that appear
//!   in the output;
//! * `pattern_match` rides on `project`.
//!
//! The pre-index implementations (label walks + BFS) are kept as
//! `*_reference` methods: the property tests cross-validate against them and
//! the benchmark suite uses them as the page-read baseline.
//!
//! Everything here is implemented on the shared [`ReadCtx`] engine and
//! exposed through [`crate::ReadOps`], so the same code serves the writer's
//! `Repository` (current view) and concurrent readers (committed-snapshot
//! view); all of it takes `&self`.

use crate::error::{CrimsonError, CrimsonResult};
use crate::repository::{NodeRecord, ReadCtx, StoredNodeId, TreeHandle, TREE_SHIFT};
use labeling::interval::{interval_key_prefix, interval_range_end, IntervalEntry};
use phylo::ops;
use phylo::{NodeId, Tree};
use reconstruction::compare::{robinson_foulds, RfResult};
use std::collections::VecDeque;
use std::sync::Arc;
use storage::db::DbRead;

/// When the clade span exceeds `SPARSE_FACTOR * selection size`, projection
/// resolves pair LCAs by per-pair interval walks instead of scanning the
/// whole clade range.
const SPARSE_FACTOR: u64 = 64;

/// Result of a tree pattern match query.
#[derive(Debug, Clone)]
pub struct PatternMatch {
    /// `true` when the projected subtree and the pattern are isomorphic as
    /// leaf-labelled topologies (the paper's exact match).
    pub exact_topology: bool,
    /// `true` when, additionally, branch lengths agree within `1e-6`.
    pub exact_with_lengths: bool,
    /// Robinson–Foulds comparison between the projection and the pattern —
    /// the "measure of similarity" for approximate matches.
    pub rf: RfResult,
    /// The projected subtree the pattern was compared against.
    pub projection: Tree,
}

impl<'a, D: DbRead> ReadCtx<'a, D> {
    // ------------------------------------------------------------------
    // Minimal spanning clade
    // ------------------------------------------------------------------

    pub fn minimal_spanning_clade(
        &self,
        nodes: &[StoredNodeId],
    ) -> CrimsonResult<Vec<StoredNodeId>> {
        if nodes.is_empty() {
            return Err(CrimsonError::InvalidSample("empty node set".to_string()));
        }
        let tree = nodes[0].0 >> TREE_SHIFT;
        let mut min: Option<(u32, StoredNodeId)> = None;
        let mut max: Option<(u32, StoredNodeId)> = None;
        for &n in nodes {
            if n.0 >> TREE_SHIFT != tree {
                return Err(CrimsonError::InvalidSample(
                    "spanning clade spans multiple trees".to_string(),
                ));
            }
            let (pre, _) = self.interval_of(n)?;
            if min.is_none_or(|(p, _)| pre < p) {
                min = Some((pre, n));
            }
            if max.is_none_or(|(p, _)| pre > p) {
                max = Some((pre, n));
            }
        }
        let (min, max) = (
            min.expect("nodes is non-empty"),
            max.expect("nodes is non-empty"),
        );
        let lca = self.lca(min.1, max.1)?;
        let (lp, le) = self.interval_of(lca)?;
        let low = interval_key_prefix(tree, lp);
        let high = interval_range_end(tree, le);
        let mut out = Vec::with_capacity((le - lp + 1) as usize);
        let mut malformed = false;
        self.db.raw_scan(
            self.tables.ivl_by_pre,
            Some(&low),
            Some(&high),
            &mut |key, _| match IntervalEntry::decode_key(key) {
                Some((_, entry)) => {
                    out.push(StoredNodeId((tree << TREE_SHIFT) | entry.node as u64));
                    Ok(true)
                }
                None => {
                    malformed = true;
                    Ok(false)
                }
            },
        )?;
        if malformed {
            return Err(CrimsonError::CorruptRepository(
                "malformed interval-index key".to_string(),
            ));
        }
        Ok(out)
    }

    pub fn minimal_spanning_clade_reference(
        &self,
        nodes: &[StoredNodeId],
    ) -> CrimsonResult<Vec<StoredNodeId>> {
        if nodes.is_empty() {
            return Err(CrimsonError::InvalidSample("empty node set".to_string()));
        }
        let mut lca = nodes[0];
        for &n in &nodes[1..] {
            lca = self.lca_label_walk(lca, n)?;
        }
        let mut out = Vec::new();
        let mut queue = VecDeque::from([lca]);
        while let Some(node) = queue.pop_front() {
            out.push(node);
            for child in self.children(node)? {
                queue.push_back(child);
            }
        }
        Ok(out)
    }

    // ------------------------------------------------------------------
    // Tree projection
    // ------------------------------------------------------------------

    pub fn project(&self, handle: TreeHandle, leaves: &[StoredNodeId]) -> CrimsonResult<Tree> {
        if leaves.is_empty() {
            return Err(CrimsonError::InvalidSample("empty leaf set".to_string()));
        }
        let tree = handle.0;
        // One interval fetch per input node: validates membership and gives
        // the pre-order rank to sort by.
        let mut sel: Vec<(u32, StoredNodeId)> = Vec::with_capacity(leaves.len());
        for &leaf in leaves {
            if leaf.0 >> TREE_SHIFT != tree {
                return Err(CrimsonError::InvalidSample(format!(
                    "node {leaf} does not belong to tree #{}",
                    handle.0
                )));
            }
            let (pre, _) = self.interval_of(leaf)?;
            sel.push((pre, leaf));
        }
        sel.sort_by_key(|(pre, _)| *pre);
        sel.dedup_by_key(|(pre, _)| *pre);

        if sel.len() == 1 {
            let rec = self.node_record_arc(sel[0].1)?;
            let mut out = Tree::new();
            let only = out.add_node();
            if let Some(name) = &rec.name {
                out.set_name(only, name.clone())?;
            }
            return Ok(out);
        }

        // Consecutive-pair LCAs through the interval index, then row fetches
        // for output nodes only. The dense path's scan also yields every
        // node's heap locator, so each row costs a single page read instead
        // of an index descent.
        let lca_all = self.lca(sel[0].1, sel[sel.len() - 1].1)?;
        let (lp, le) = self.interval_of(lca_all)?;
        let span = (le - lp) as u64 + 1;
        let (records, lca_records) = if span <= SPARSE_FACTOR * sel.len() as u64 {
            let (sel_locs, lca_locs) = self.pair_lcas_by_scan(tree, &sel, lp, le)?;
            let mut records = Vec::with_capacity(sel_locs.len());
            for (sid, rid) in sel_locs {
                records.push(self.node_record_by_locator(sid, rid)?);
            }
            let mut lca_records = Vec::with_capacity(lca_locs.len());
            for (sid, rid) in lca_locs {
                lca_records.push(self.node_record_by_locator(sid, rid)?);
            }
            (records, lca_records)
        } else {
            let mut records = Vec::with_capacity(sel.len());
            for &(_, sid) in &sel {
                records.push(self.node_record_arc(sid)?);
            }
            let mut lca_records = Vec::with_capacity(sel.len() - 1);
            for pair in sel.windows(2) {
                let sid = self.lca(pair[0].1, pair[1].1)?;
                lca_records.push(self.node_record_arc(sid)?);
            }
            (records, lca_records)
        };
        assemble_projection(&records, &lca_records)
    }

    /// For consecutive selected ranks, the selected nodes' and pair-LCAs'
    /// `(stored id, heap locator)` pairs harvested from one pre-order range
    /// scan over the clade `[lo, hi_end]` of `tree`.
    ///
    /// The scan keeps the current root path on a stack (pop everything whose
    /// interval closed before the incoming entry); when the next selected
    /// rank arrives, the LCA with the previous selected rank is the deepest
    /// stack entry whose rank does not exceed it.
    #[allow(clippy::type_complexity)]
    fn pair_lcas_by_scan(
        &self,
        tree: u64,
        sel: &[(u32, StoredNodeId)],
        lo: u32,
        hi_end: u32,
    ) -> CrimsonResult<(
        Vec<(StoredNodeId, storage::RecordId)>,
        Vec<(StoredNodeId, storage::RecordId)>,
    )> {
        let sid_of = |entry: &IntervalEntry| StoredNodeId((tree << TREE_SHIFT) | entry.node as u64);
        let low = interval_key_prefix(tree, lo);
        let high = interval_range_end(tree, hi_end);
        let mut stack: Vec<(IntervalEntry, storage::RecordId)> = Vec::new();
        let mut selected = Vec::with_capacity(sel.len());
        let mut lcas = Vec::with_capacity(sel.len() - 1);
        let mut next_sel = 0usize;
        let mut prev_pre: Option<u32> = None;
        let mut fail: Option<CrimsonError> = None;
        let mut complete = false;
        self.db.raw_scan(
            self.tables.ivl_by_pre,
            Some(&low),
            Some(&high),
            &mut |key, rid_raw| {
                let rid = storage::RecordId::from_u64(rid_raw);
                let Some((_, entry)) = IntervalEntry::decode_key(key) else {
                    fail = Some(CrimsonError::CorruptRepository(
                        "malformed interval-index key".to_string(),
                    ));
                    return Ok(false);
                };
                while stack.last().is_some_and(|(top, _)| top.end < entry.pre) {
                    stack.pop();
                }
                if next_sel < sel.len() && entry.pre == sel[next_sel].0 {
                    if let Some(prev) = prev_pre {
                        // Stack ranks ascend; every stack entry covers the
                        // current rank, so the deepest one with pre <= prev
                        // also covers prev — the pair LCA.
                        let idx = stack.partition_point(|(e, _)| e.pre <= prev);
                        match idx.checked_sub(1).and_then(|i| stack.get(i)) {
                            Some((anc, anc_rid)) => lcas.push((sid_of(anc), *anc_rid)),
                            None => {
                                fail = Some(CrimsonError::CorruptRepository(format!(
                                    "no common ancestor on the scan stack for ranks {prev} and {}",
                                    entry.pre
                                )));
                                return Ok(false);
                            }
                        }
                    }
                    selected.push((sid_of(&entry), rid));
                    prev_pre = Some(entry.pre);
                    next_sel += 1;
                    if next_sel == sel.len() {
                        complete = true;
                        return Ok(false);
                    }
                }
                stack.push((entry, rid));
                Ok(true)
            },
        )?;
        if let Some(e) = fail {
            return Err(e);
        }
        if complete {
            return Ok((selected, lcas));
        }
        Err(CrimsonError::CorruptRepository(format!(
            "interval scan found {next_sel} of {} selected ranks in [{lo}, {hi_end}]",
            sel.len()
        )))
    }

    pub fn project_reference(
        &self,
        handle: TreeHandle,
        leaves: &[StoredNodeId],
    ) -> CrimsonResult<Tree> {
        if leaves.is_empty() {
            return Err(CrimsonError::InvalidSample("empty leaf set".to_string()));
        }
        let mut records = Vec::with_capacity(leaves.len());
        for &leaf in leaves {
            let rec = self.node_record_uncached(leaf)?;
            if rec.tree != handle {
                return Err(CrimsonError::InvalidSample(format!(
                    "node {leaf} does not belong to tree #{}",
                    handle.0
                )));
            }
            records.push(rec);
        }
        records.sort_by_key(|r| r.preorder);
        records.dedup_by_key(|r| r.id);
        let records: Vec<Arc<NodeRecord>> = records.into_iter().map(Arc::new).collect();

        if records.len() == 1 {
            let mut out = Tree::new();
            let only = out.add_node();
            if let Some(name) = &records[0].name {
                out.set_name(only, name.clone())?;
            }
            return Ok(out);
        }
        let mut lca_records = Vec::with_capacity(records.len() - 1);
        for pair in records.windows(2) {
            let lca_id = self.lca_label_walk(pair[0].id, pair[1].id)?;
            lca_records.push(Arc::new(self.node_record_uncached(lca_id)?));
        }
        assemble_projection(&records, &lca_records)
    }

    pub fn project_species(&self, handle: TreeHandle, names: &[&str]) -> CrimsonResult<Tree> {
        let mut leaves = Vec::with_capacity(names.len());
        for name in names {
            leaves.push(self.require_species_node(handle, name)?);
        }
        self.project(handle, &leaves)
    }

    // ------------------------------------------------------------------
    // Tree pattern match
    // ------------------------------------------------------------------

    pub fn pattern_match(&self, handle: TreeHandle, pattern: &Tree) -> CrimsonResult<PatternMatch> {
        let names: Vec<String> = pattern.leaf_names();
        if names.is_empty() {
            return Err(CrimsonError::InvalidSample(
                "pattern has no named leaves".to_string(),
            ));
        }
        let refs: Vec<&str> = names.iter().map(|s| s.as_str()).collect();
        let projection = self.project_species(handle, &refs)?;
        let exact_topology = ops::isomorphic(&projection, pattern);
        let exact_with_lengths = ops::isomorphic_with_lengths(&projection, pattern, 1e-6);
        let rf = if names.len() >= 2 {
            robinson_foulds(&projection, pattern)?
        } else {
            RfResult {
                distance: 0,
                max_distance: 0,
                normalized: 0.0,
                shared: 0,
            }
        };
        Ok(PatternMatch {
            exact_topology,
            exact_with_lengths,
            rf,
            projection,
        })
    }
}

/// The paper's left-to-right insertion algorithm, decoupled from how the
/// consecutive-pair LCAs were resolved: `records` are the selected nodes in
/// pre-order and `lca_records[i]` is the LCA of `records[i]` and
/// `records[i + 1]`. Maintains the rightmost path of the partial projection;
/// unary nodes never arise; edge weights are differences of stored
/// cumulative root distances.
pub(crate) fn assemble_projection(
    records: &[Arc<NodeRecord>],
    lca_records: &[Arc<NodeRecord>],
) -> CrimsonResult<Tree> {
    debug_assert_eq!(lca_records.len() + 1, records.len());
    let mut out = Tree::new();
    // Rightmost path of the partial projection: (stored record, new node).
    let mut path: Vec<(Arc<NodeRecord>, NodeId)> = Vec::new();
    for (i, rec) in records.iter().enumerate() {
        if path.is_empty() {
            let node = out.add_node();
            if let Some(name) = &rec.name {
                out.set_name(node, name.clone())?;
            }
            path.push((Arc::clone(rec), node));
            continue;
        }
        // LCA of the new leaf and the current rightmost leaf.
        let lca_rec = &lca_records[i - 1];

        // Pop rightmost-path entries deeper than the LCA.
        let mut last_popped: Option<(Arc<NodeRecord>, NodeId)> = None;
        while path.last().is_some_and(|(r, _)| r.depth > lca_rec.depth) {
            last_popped = path.pop();
        }

        let top_is_lca = path.last().is_some_and(|(r, _)| r.id == lca_rec.id);
        let attach_under = if top_is_lca {
            path.last().expect("checked above").1
        } else {
            // The LCA is a new node on the path: splice it in between the
            // popped child (if any) and the current top.
            let parent_info = path.last().map(|(r, n)| (r.root_distance, *n));
            let lca_node = out.add_node();
            if let Some(name) = &lca_rec.name {
                out.set_name(lca_node, name.clone())?;
            }
            if let Some((child_rec, child_node)) = last_popped {
                out.attach(lca_node, child_node)?;
                out.set_branch_length(child_node, child_rec.root_distance - lca_rec.root_distance)?;
            }
            if let Some((parent_dist, parent_node)) = parent_info {
                out.attach(parent_node, lca_node)?;
                out.set_branch_length(lca_node, lca_rec.root_distance - parent_dist)?;
            }
            path.push((Arc::clone(lca_rec), lca_node));
            lca_node
        };

        let leaf_node = out.add_node();
        if let Some(name) = &rec.name {
            out.set_name(leaf_node, name.clone())?;
        }
        out.attach(attach_under, leaf_node)?;
        let parent_dist = path
            .last()
            .expect("attach target is on the path")
            .0
            .root_distance;
        out.set_branch_length(leaf_node, rec.root_distance - parent_dist)?;
        path.push((Arc::clone(rec), leaf_node));
    }

    // The bottom of the path is the projection root.
    let root_node = path.first().expect("at least one node was inserted").1;
    let mut top = root_node;
    while let Some(p) = out.parent(top) {
        top = p;
    }
    out.set_root(top)?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::repository::{Repository, RepositoryOptions};
    use crate::ReadOps;
    use phylo::builder::{balanced_binary, figure1_tree};
    use phylo::ops::{is_unary_free, project_by_names};
    use simulation::birth_death::yule_tree;
    use tempfile::tempdir;

    fn repo_with(tree: &Tree, f: usize) -> (tempfile::TempDir, Repository, TreeHandle) {
        let dir = tempdir().unwrap();
        let mut repo = Repository::create(
            dir.path().join("repo.crimson"),
            RepositoryOptions {
                frame_depth: f,
                buffer_pool_pages: 512,
                ..Default::default()
            },
        )
        .unwrap();
        let handle = repo.load_tree("t", tree).unwrap();
        (dir, repo, handle)
    }

    #[test]
    fn figure2_projection_from_repository() {
        let tree = figure1_tree();
        let (_d, repo, handle) = repo_with(&tree, 2);
        let projection = repo
            .project_species(handle, &["Bha", "Lla", "Syn"])
            .unwrap();
        // Must equal the in-memory projection (the paper's Figure 2).
        let expected = project_by_names(&tree, &["Bha", "Lla", "Syn"]).unwrap();
        assert!(
            ops::isomorphic_with_lengths(&projection, &expected, 1e-9),
            "stored projection:\n{}\nexpected:\n{}",
            phylo::render::ascii(&projection),
            phylo::render::ascii(&expected)
        );
        // Lla's merged edge weight is 1.5 as in the paper.
        let lla = projection.find_leaf_by_name("Lla").unwrap();
        assert!((projection.branch_length(lla).unwrap() - 1.5).abs() < 1e-9);
        assert!(is_unary_free(&projection));
    }

    #[test]
    fn projection_matches_in_memory_on_many_subsets() {
        let tree = balanced_binary(5, 0.5); // 32 leaves
        let (_d, repo, handle) = repo_with(&tree, 3);
        let names = tree.leaf_names();
        for (skip, take) in [(0usize, 2usize), (1, 3), (3, 7), (5, 16), (0, 32)] {
            let subset: Vec<&str> = names
                .iter()
                .skip(skip)
                .step_by(2)
                .take(take)
                .map(|s| s.as_str())
                .collect();
            if subset.len() < 2 {
                continue;
            }
            let stored = repo.project_species(handle, &subset).unwrap();
            let expected = project_by_names(&tree, &subset).unwrap();
            assert!(
                ops::isomorphic_with_lengths(&stored, &expected, 1e-9),
                "subset {subset:?}\nstored:\n{}\nexpected:\n{}",
                phylo::render::ascii(&stored),
                phylo::render::ascii(&expected)
            );
        }
    }

    #[test]
    fn projection_on_simulated_tree_matches() {
        let tree = yule_tree(200, 1.0, 17);
        let (_d, repo, handle) = repo_with(&tree, 8);
        let names = tree.leaf_names();
        let subset: Vec<&str> = names.iter().step_by(9).map(|s| s.as_str()).collect();
        let stored = repo.project_species(handle, &subset).unwrap();
        let expected = project_by_names(&tree, &subset).unwrap();
        assert!(ops::isomorphic_with_lengths(&stored, &expected, 1e-9));
    }

    #[test]
    fn projection_single_leaf_and_errors() {
        let tree = figure1_tree();
        let (_d, repo, handle) = repo_with(&tree, 2);
        let syn = repo.require_species_node(handle, "Syn").unwrap();
        let p = repo.project(handle, &[syn]).unwrap();
        assert_eq!(p.node_count(), 1);
        assert_eq!(p.name(p.root_unchecked()), Some("Syn"));
        assert!(repo.project(handle, &[]).is_err());
        assert!(repo.project_species(handle, &["Ghost"]).is_err());
    }

    #[test]
    fn projection_rejects_foreign_nodes() {
        let tree = figure1_tree();
        let (_d, mut repo, handle) = {
            let dir = tempdir().unwrap();
            let mut repo = Repository::create(
                dir.path().join("repo.crimson"),
                RepositoryOptions {
                    frame_depth: 2,
                    buffer_pool_pages: 256,
                    ..Default::default()
                },
            )
            .unwrap();
            let handle = repo.load_tree("t", &tree).unwrap();
            (dir, repo, handle)
        };
        let other = repo.load_tree("other", &balanced_binary(3, 1.0)).unwrap();
        let foreign = repo.require_species_node(other, "T0").unwrap();
        assert!(repo.project(handle, &[foreign]).is_err());
    }

    #[test]
    fn minimal_spanning_clade_figure1() {
        let tree = figure1_tree();
        let (_d, repo, handle) = repo_with(&tree, 2);
        let lla = repo.require_species_node(handle, "Lla").unwrap();
        let spy = repo.require_species_node(handle, "Spy").unwrap();
        let clade = repo.minimal_spanning_clade(&[lla, spy]).unwrap();
        // LCA is their parent; the clade is {parent, Lla, Spy}.
        assert_eq!(clade.len(), 3);
        let bha = repo.require_species_node(handle, "Bha").unwrap();
        let clade = repo.minimal_spanning_clade(&[lla, bha]).unwrap();
        // LCA is the interior node i1; its subtree has 5 nodes.
        assert_eq!(clade.len(), 5);
        let syn = repo.require_species_node(handle, "Syn").unwrap();
        let clade = repo.minimal_spanning_clade(&[lla, syn]).unwrap();
        assert_eq!(
            clade.len(),
            8,
            "spanning clade of distant leaves is the whole tree"
        );
        assert!(repo.minimal_spanning_clade(&[]).is_err());
    }

    #[test]
    fn pattern_match_exact_and_swapped() {
        let tree = figure1_tree();
        let (_d, repo, handle) = repo_with(&tree, 2);
        // The Figure 2 pattern matches exactly.
        let pattern = phylo::newick::parse("((Bha:0.75,Lla:1.5):1.5,Syn:2.5);").unwrap();
        let result = repo.pattern_match(handle, &pattern).unwrap();
        assert!(result.exact_topology);
        assert!(result.exact_with_lengths);
        assert_eq!(result.rf.distance, 0);
        // Swapping Bha and Lla (the paper's counter-example) breaks the
        // weighted match.
        let swapped = phylo::newick::parse("((Lla:0.75,Bha:1.5):1.5,Syn:2.5);").unwrap();
        let result = repo.pattern_match(handle, &swapped).unwrap();
        assert!(!result.exact_with_lengths);
        // A topologically different pattern is not even an approximate match:
        // the pattern groups {Bha,Lla} and {Spy,Syn}, while the stored tree
        // groups {Lla,Spy}, so the RF distance is positive.
        let wrong = phylo::newick::parse("((Bha,Lla),(Spy,Syn));").unwrap();
        let result = repo.pattern_match(handle, &wrong).unwrap();
        assert!(!result.exact_topology);
        assert!(result.rf.distance > 0);
        // Three-leaf patterns carry no non-trivial unrooted splits, so RF
        // cannot discriminate them — only the exact check does.
        let wrong3 = phylo::newick::parse("((Bha,Syn),Lla);").unwrap();
        let result = repo.pattern_match(handle, &wrong3).unwrap();
        assert!(!result.exact_topology);
        assert_eq!(result.rf.distance, 0);
    }

    #[test]
    fn pattern_match_unknown_species_errors() {
        let tree = figure1_tree();
        let (_d, repo, handle) = repo_with(&tree, 2);
        let pattern = phylo::newick::parse("((Bha,Ghost),Syn);").unwrap();
        assert!(repo.pattern_match(handle, &pattern).is_err());
    }
}
