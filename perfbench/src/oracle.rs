//! In-memory answers to check the repository's structure queries against.
//!
//! A stored node id is `(tree id << 32) | index`, where `index` is the node's
//! position in the tree as parsed from the loaded text, so the oracle parses
//! the same text and answers with the same ids.

use crimson::{StoredNodeId, TreeHandle};
use phylo::traverse::Traverse;
use phylo::{NodeId, Tree};

pub struct Oracle {
    pub handle: TreeHandle,
    pub tree: Tree,
    /// Largest branch-length sum from each node down to a leaf.
    heights: Vec<f64>,
}

impl Oracle {
    pub fn new(handle: TreeHandle, tree: Tree) -> Oracle {
        let mut heights = vec![0.0f64; tree.node_count()];
        for node in tree.postorder() {
            let mut h = 0.0f64;
            for &c in tree.children(node) {
                h = h.max(heights[c.index()] + tree.node(c).branch_length_or_zero());
            }
            heights[node.index()] = h;
        }
        Oracle {
            handle,
            tree,
            heights,
        }
    }

    pub fn stored(&self, n: NodeId) -> StoredNodeId {
        StoredNodeId((self.handle.0 << 32) | n.0 as u64)
    }

    pub fn local(&self, id: StoredNodeId) -> Option<NodeId> {
        let index = id.0 & 0xFFFF_FFFF;
        (id.0 >> 32 == self.handle.0 && (index as usize) < self.tree.node_count())
            .then_some(NodeId(index as u32))
    }

    pub fn leaves(&self) -> Vec<StoredNodeId> {
        self.tree.leaf_ids().map(|n| self.stored(n)).collect()
    }

    pub fn lca(&self, a: StoredNodeId, b: StoredNodeId) -> Option<StoredNodeId> {
        Some(self.stored(self.tree.lca(self.local(a)?, self.local(b)?)))
    }

    pub fn is_ancestor(&self, ancestor: StoredNodeId, node: StoredNodeId) -> Option<bool> {
        Some(
            self.tree
                .is_ancestor(self.local(ancestor)?, self.local(node)?),
        )
    }

    /// The subtree under the nodes' LCA, in pre-order.
    pub fn clade(&self, nodes: &[StoredNodeId]) -> Option<Vec<StoredNodeId>> {
        let mut top = self.local(*nodes.first()?)?;
        for &n in &nodes[1..] {
            top = self.tree.lca(top, self.local(n)?);
        }
        Some(
            self.tree
                .preorder_from(top)
                .map(|n| self.stored(n))
                .collect(),
        )
    }

    /// Canonical form of the projection onto `leaves`.
    pub fn projection_form(&self, leaves: &[StoredNodeId]) -> Option<String> {
        let local: Option<Vec<NodeId>> = leaves.iter().map(|&l| self.local(l)).collect();
        let projected = phylo::ops::project(&self.tree, &local?).ok()?;
        Some(phylo::ops::canonical_form(&projected))
    }

    /// Nodes whose subtree height is at most `time` while their parent's
    /// exceeds it (the root qualifies on its own), sorted by id.
    pub fn time_frontier(&self, time: f64) -> Vec<StoredNodeId> {
        let mut out: Vec<StoredNodeId> = self
            .tree
            .node_ids()
            .filter(|&n| {
                self.heights[n.index()] <= time
                    && self
                        .tree
                        .parent(n)
                        .is_none_or(|p| self.heights[p.index()] > time)
            })
            .map(|n| self.stored(n))
            .collect();
        out.sort_by_key(|s| s.0);
        out
    }

    /// Height of the whole tree (the root's subtree height).
    pub fn height(&self) -> f64 {
        self.tree.root().map_or(0.0, |r| self.heights[r.index()])
    }
}
