//! Disk-resident B+tree over order-preserving byte keys.
//!
//! The tree stores `(key: Vec<u8>, value: u64)` pairs. Keys are produced by
//! [`crate::value::Value::encode_key`] (possibly with a record-id suffix for
//! non-unique indexes), values are packed [`crate::heap::RecordId`]s or
//! application integers. Leaves are chained left-to-right so range scans —
//! the access path behind Crimson's "all nodes whose cumulative time exceeds
//! t" sampling query — are sequential leaf walks.
//!
//! Duplicate keys are permitted; uniqueness is enforced one level up (in
//! [`crate::db::Database`]) where the semantics of the index are known.
//! Deletion removes entries without rebalancing: the Crimson workload is
//! load-once/query-many, so space reclamation is not worth the complexity.
//! The cost of that trade-off is under-full pages after deletes, which
//! range scans still walk.

use crate::buffer::{BufferPool, PageSource, PinnedPage};
use crate::error::{StorageError, StorageResult};
use crate::page::{Page, PageId, PAGE_SIZE};

const TYPE_LEAF: u8 = 0;
const TYPE_INTERNAL: u8 = 1;

// Serialized layout:
//   0       node type (u8)
//   1..3    key count (u16)
//   3..11   leaf: next leaf page id / internal: leftmost child page id
//   11..    entries
// Leaf entry:      key_len u16 | key bytes | value u64
// Internal entry:  key_len u16 | key bytes | child u64
const NODE_HEADER: usize = 11;

/// Maximum key length accepted by the tree. Chosen so that even pathological
/// keys leave room for a handful of entries per node.
pub const MAX_KEY_SIZE: usize = 1024;

#[derive(Debug, Clone)]
enum Node {
    Leaf {
        keys: Vec<Vec<u8>>,
        values: Vec<u64>,
        next: PageId,
    },
    Internal {
        keys: Vec<Vec<u8>>,
        children: Vec<PageId>,
    },
}

impl Node {
    fn serialized_size(&self) -> usize {
        match self {
            Node::Leaf { keys, .. } => {
                NODE_HEADER + keys.iter().map(|k| 2 + k.len() + 8).sum::<usize>()
            }
            Node::Internal { keys, .. } => {
                NODE_HEADER + keys.iter().map(|k| 2 + k.len() + 8).sum::<usize>()
            }
        }
    }

    fn key_count(&self) -> usize {
        match self {
            Node::Leaf { keys, .. } => keys.len(),
            Node::Internal { keys, .. } => keys.len(),
        }
    }

    fn write_to(&self, page: &mut Page) {
        match self {
            Node::Leaf { keys, values, next } => {
                page.bytes_mut()[0] = TYPE_LEAF;
                page.write_u16(1, keys.len() as u16);
                page.write_u64(3, next.0);
                let mut off = NODE_HEADER;
                for (k, v) in keys.iter().zip(values) {
                    page.write_u16(off, k.len() as u16);
                    off += 2;
                    page.write_bytes(off, k);
                    off += k.len();
                    page.write_u64(off, *v);
                    off += 8;
                }
            }
            Node::Internal { keys, children } => {
                page.bytes_mut()[0] = TYPE_INTERNAL;
                page.write_u16(1, keys.len() as u16);
                page.write_u64(3, children[0].0);
                let mut off = NODE_HEADER;
                for (k, c) in keys.iter().zip(children.iter().skip(1)) {
                    page.write_u16(off, k.len() as u16);
                    off += 2;
                    page.write_bytes(off, k);
                    off += k.len();
                    page.write_u64(off, c.0);
                    off += 8;
                }
            }
        }
    }

    fn read_from(page: &Page) -> StorageResult<Node> {
        let node_type = page.bytes()[0];
        let count = page.read_u16(1) as usize;
        let mut off = NODE_HEADER;
        match node_type {
            TYPE_LEAF => {
                let next = PageId(page.read_u64(3));
                let mut keys = Vec::with_capacity(count);
                let mut values = Vec::with_capacity(count);
                for _ in 0..count {
                    let klen = page.read_u16(off) as usize;
                    off += 2;
                    if off + klen + 8 > PAGE_SIZE {
                        return Err(StorageError::Corrupted("leaf entry overruns page".into()));
                    }
                    keys.push(page.read_bytes(off, klen).to_vec());
                    off += klen;
                    values.push(page.read_u64(off));
                    off += 8;
                }
                Ok(Node::Leaf { keys, values, next })
            }
            TYPE_INTERNAL => {
                let mut children = Vec::with_capacity(count + 1);
                children.push(PageId(page.read_u64(3)));
                let mut keys = Vec::with_capacity(count);
                for _ in 0..count {
                    let klen = page.read_u16(off) as usize;
                    off += 2;
                    if off + klen + 8 > PAGE_SIZE {
                        return Err(StorageError::Corrupted(
                            "internal entry overruns page".into(),
                        ));
                    }
                    keys.push(page.read_bytes(off, klen).to_vec());
                    off += klen;
                    children.push(PageId(page.read_u64(off)));
                    off += 8;
                }
                Ok(Node::Internal { keys, children })
            }
            other => Err(StorageError::Corrupted(format!(
                "unknown B+tree node type {other}"
            ))),
        }
    }
}

/// A B+tree rooted at a page in the database file.
#[derive(Debug, Clone)]
pub struct BTree {
    root: PageId,
}

/// Result of inserting into a subtree: `Split` carries the separator key and
/// the page id of the newly created right sibling.
enum InsertResult {
    Done,
    Split(Vec<u8>, PageId),
}

impl BTree {
    /// Create an empty tree (a single empty leaf).
    pub fn create(pool: &BufferPool) -> StorageResult<Self> {
        let root = pool.allocate_page()?;
        let node = Node::Leaf {
            keys: Vec::new(),
            values: Vec::new(),
            next: PageId::NULL,
        };
        write_node(pool, root, &node)?;
        Ok(BTree { root })
    }

    /// Open an existing tree given its root page (as stored in the catalog).
    pub fn open(root: PageId) -> Self {
        BTree { root }
    }

    /// The current root page id (persist this in the catalog; it changes when
    /// the root splits).
    pub fn root(&self) -> PageId {
        self.root
    }

    /// Insert a key/value pair. Duplicate keys are allowed and kept in
    /// insertion order among equals.
    pub fn insert(&mut self, pool: &BufferPool, key: &[u8], value: u64) -> StorageResult<()> {
        if key.len() > MAX_KEY_SIZE {
            return Err(StorageError::RecordTooLarge(key.len()));
        }
        match self.insert_rec(pool, self.root, key, value)? {
            InsertResult::Done => Ok(()),
            InsertResult::Split(sep, right) => {
                // Grow the tree by one level.
                let new_root = pool.allocate_page()?;
                let node = Node::Internal {
                    keys: vec![sep],
                    children: vec![self.root, right],
                };
                write_node(pool, new_root, &node)?;
                self.root = new_root;
                Ok(())
            }
        }
    }

    fn insert_rec(
        &self,
        pool: &BufferPool,
        page: PageId,
        key: &[u8],
        value: u64,
    ) -> StorageResult<InsertResult> {
        match read_node(pool, page)? {
            Node::Leaf {
                mut keys,
                mut values,
                next,
            } => {
                // Upper bound keeps equal keys in insertion order.
                let pos = keys.partition_point(|k| k.as_slice() <= key);
                keys.insert(pos, key.to_vec());
                values.insert(pos, value);
                let node = Node::Leaf { keys, values, next };
                if node.serialized_size() <= PAGE_SIZE {
                    write_node(pool, page, &node)?;
                    return Ok(InsertResult::Done);
                }
                // Split: move the upper half to a new right sibling.
                let (keys, values, next) = match node {
                    Node::Leaf { keys, values, next } => (keys, values, next),
                    Node::Internal { .. } => unreachable!("node was constructed as a leaf"),
                };
                let mid = keys.len() / 2;
                let right_keys = keys[mid..].to_vec();
                let right_values = values[mid..].to_vec();
                let left_keys = keys[..mid].to_vec();
                let left_values = values[..mid].to_vec();
                let right_page = pool.allocate_page()?;
                let sep = right_keys[0].clone();
                let right_node = Node::Leaf {
                    keys: right_keys,
                    values: right_values,
                    next,
                };
                let left_node = Node::Leaf {
                    keys: left_keys,
                    values: left_values,
                    next: right_page,
                };
                write_node(pool, right_page, &right_node)?;
                write_node(pool, page, &left_node)?;
                Ok(InsertResult::Split(sep, right_page))
            }
            Node::Internal {
                mut keys,
                mut children,
            } => {
                let idx = keys.partition_point(|k| k.as_slice() <= key);
                let child = children[idx];
                match self.insert_rec(pool, child, key, value)? {
                    InsertResult::Done => Ok(InsertResult::Done),
                    InsertResult::Split(sep, right) => {
                        keys.insert(idx, sep);
                        children.insert(idx + 1, right);
                        let node = Node::Internal { keys, children };
                        if node.serialized_size() <= PAGE_SIZE {
                            write_node(pool, page, &node)?;
                            return Ok(InsertResult::Done);
                        }
                        let (keys, children) = match node {
                            Node::Internal { keys, children } => (keys, children),
                            Node::Leaf { .. } => unreachable!("node was constructed as internal"),
                        };
                        let mid = keys.len() / 2;
                        let promote = keys[mid].clone();
                        let right_keys = keys[mid + 1..].to_vec();
                        let right_children = children[mid + 1..].to_vec();
                        let left_keys = keys[..mid].to_vec();
                        let left_children = children[..mid + 1].to_vec();
                        let right_page = pool.allocate_page()?;
                        write_node(
                            pool,
                            right_page,
                            &Node::Internal {
                                keys: right_keys,
                                children: right_children,
                            },
                        )?;
                        write_node(
                            pool,
                            page,
                            &Node::Internal {
                                keys: left_keys,
                                children: left_children,
                            },
                        )?;
                        Ok(InsertResult::Split(promote, right_page))
                    }
                }
            }
        }
    }

    /// Look up the first value stored under exactly `key`.
    ///
    /// The descent and the leaf probe both read entries in place through the
    /// page source — no node is materialized and no key bytes are copied.
    /// Generic over [`PageSource`], so the same descent serves the writer's
    /// current view and concurrent snapshot readers.
    pub fn get<S: PageSource>(&self, pool: S, key: &[u8]) -> StorageResult<Option<u64>> {
        let leaf = self.descend_in_place(pool, key, false)?;
        pool.with_page(leaf, |p| {
            let count = p.read_u16(1) as usize;
            let mut off = NODE_HEADER;
            for _ in 0..count {
                let klen = p.read_u16(off) as usize;
                off += 2;
                if off + klen + 8 > PAGE_SIZE {
                    return Err(StorageError::Corrupted("leaf entry overruns page".into()));
                }
                let entry_key = p.read_bytes(off, klen);
                if entry_key == key {
                    return Ok(Some(p.read_u64(off + klen)));
                }
                if entry_key > key {
                    return Ok(None);
                }
                off += klen + 8;
            }
            Ok(None)
        })?
    }

    /// Collect every value stored under exactly `key`.
    pub fn get_all<S: PageSource>(&self, pool: S, key: &[u8]) -> StorageResult<Vec<u64>> {
        let mut out = Vec::new();
        let upper = {
            let mut k = key.to_vec();
            k.push(0x00);
            k
        };
        // Equal keys are contiguous, so a bounded range scan collects them.
        for item in self.range(pool, Some(key), Some(&upper))? {
            let (k, v) = item?;
            if k == key {
                out.push(v);
            }
        }
        Ok(out)
    }

    /// `true` if at least one entry has exactly `key`.
    pub fn contains<S: PageSource>(&self, pool: S, key: &[u8]) -> StorageResult<bool> {
        Ok(self.get(pool, key)?.is_some())
    }

    /// Remove *one* entry matching `key` (and `value`, when given). Returns
    /// `true` if an entry was removed. Nodes are not rebalanced.
    pub fn delete(&self, pool: &BufferPool, key: &[u8], value: Option<u64>) -> StorageResult<bool> {
        // Walk to the leaf, tracking the path (root never shrinks here).
        let mut page = self.root;
        loop {
            let node = read_node(pool, page)?;
            match node {
                Node::Internal { keys, children } => {
                    let idx = keys.partition_point(|k| k.as_slice() <= key);
                    page = children[idx];
                }
                Node::Leaf {
                    mut keys,
                    mut values,
                    next,
                } => {
                    let start = keys.partition_point(|k| k.as_slice() < key);
                    let mut found = None;
                    for i in start..keys.len() {
                        if keys[i] != key {
                            break;
                        }
                        if value.is_none() || value == Some(values[i]) {
                            found = Some(i);
                            break;
                        }
                    }
                    let Some(i) = found else { return Ok(false) };
                    keys.remove(i);
                    values.remove(i);
                    write_node(pool, page, &Node::Leaf { keys, values, next })?;
                    return Ok(true);
                }
            }
        }
    }

    /// Visit the first entry with `low ≤ key < high`, calling `f` on the
    /// borrowed in-page key bytes and the value. `None` when the range is
    /// empty. The allocation-free point probe for covering-key indexes:
    /// nothing is pinned beyond the call and no key bytes are copied.
    pub fn first_in_range<S: PageSource, R>(
        &self,
        pool: S,
        low: &[u8],
        high: &[u8],
        f: impl FnOnce(&[u8], u64) -> R,
    ) -> StorageResult<Option<R>> {
        let mut page = self.descend_in_place(pool, low, true)?;
        let mut f = Some(f);
        loop {
            enum Step<R> {
                Found(Option<R>),
                Next(PageId),
            }
            let step = pool.with_page(page, |p| -> StorageResult<Step<R>> {
                if p.bytes()[0] != TYPE_LEAF {
                    return Err(StorageError::Corrupted(
                        "leaf chain contains an internal node".into(),
                    ));
                }
                let count = p.read_u16(1) as usize;
                let next = PageId(p.read_u64(3));
                let mut off = NODE_HEADER;
                for _ in 0..count {
                    let klen = p.read_u16(off) as usize;
                    off += 2;
                    if off + klen + 8 > PAGE_SIZE {
                        return Err(StorageError::Corrupted("leaf entry overruns page".into()));
                    }
                    let key = p.read_bytes(off, klen);
                    if key >= low {
                        if key >= high {
                            return Ok(Step::Found(None));
                        }
                        let value = p.read_u64(off + klen);
                        let f = f.take().expect("first_in_range visits at most one entry");
                        return Ok(Step::Found(Some(f(key, value))));
                    }
                    off += klen + 8;
                }
                if next.is_null() {
                    Ok(Step::Found(None))
                } else {
                    Ok(Step::Next(next))
                }
            })??;
            match step {
                Step::Found(result) => return Ok(result),
                Step::Next(next) => page = next,
            }
        }
    }

    /// Range scan over `low..high` (byte-wise, low inclusive, high exclusive).
    /// `None` bounds mean unbounded.
    ///
    /// The iterator pins one leaf frame at a time and decodes entries lazily
    /// from the pinned page: no leaf is ever materialized into a key vector,
    /// entries before `low` are compared in place without allocating, and
    /// the scan stops at the first key past `high` without touching the rest
    /// of the leaf chain.
    pub fn range<S: PageSource>(
        &self,
        pool: S,
        low: Option<&[u8]>,
        high: Option<&[u8]>,
    ) -> StorageResult<RangeIter<S>> {
        let start_page = match low {
            // Lower-bound descent: when duplicates of `low` straddle a split,
            // the leftmost leaf that can contain `low` must be visited.
            Some(key) => self.descend_in_place(pool, key, true)?,
            None => self.leftmost_leaf(pool)?,
        };
        let cursor = LeafCursor::pin(pool, start_page)?;
        Ok(RangeIter {
            pool,
            cursor: Some(cursor),
            low: low.map(|k| k.to_vec()),
            high: high.map(|k| k.to_vec()),
            exhausted: false,
        })
    }

    /// Number of entries in the tree (full scan).
    pub fn len<S: PageSource>(&self, pool: S) -> StorageResult<usize> {
        let mut count = 0usize;
        for item in self.range(pool, None, None)? {
            item?;
            count += 1;
        }
        Ok(count)
    }

    /// `true` when the tree holds no entries.
    pub fn is_empty<S: PageSource>(&self, pool: S) -> StorageResult<bool> {
        Ok(self.len(pool)? == 0)
    }

    /// Height of the tree (1 = a single leaf). Used by the labeling ablation
    /// to report index depth.
    pub fn height<S: PageSource>(&self, pool: S) -> StorageResult<usize> {
        let mut h = 1usize;
        let mut page = self.root;
        loop {
            match read_node(pool, page)? {
                Node::Leaf { .. } => return Ok(h),
                Node::Internal { children, .. } => {
                    page = children[0];
                    h += 1;
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Bulk loading
    // ------------------------------------------------------------------

    /// Build a tree from a strictly ascending run of `(key, value)` entries,
    /// packing leaves bottom-up at the given fill factor. Equivalent to
    /// [`BTree::create`] followed by [`BTree::bulk_append`].
    pub fn bulk_build<K, I>(pool: &BufferPool, fill: f64, entries: I) -> StorageResult<Self>
    where
        K: AsRef<[u8]>,
        I: IntoIterator<Item = (K, u64)>,
    {
        let mut tree = BTree::create(pool)?;
        tree.bulk_append(pool, fill, entries)?;
        Ok(tree)
    }

    /// Append a sorted run of `(key, value)` entries bottom-up.
    ///
    /// Keys must be strictly ascending and sort after every key already in
    /// the tree; violations return [`StorageError::BulkOutOfOrder`] /
    /// [`StorageError::DuplicateKey`]. A violation at the *first* entry is
    /// detected before any page is written, but a mid-run violation aborts
    /// an append that has already rewritten pages — run inside a
    /// transaction (as every [`crate::db::Database`] bulk path does) so the
    /// error rolls the partial run back. Instead of one root-to-leaf
    /// descent and a whole-node rewrite per entry, the
    /// run is packed into fresh leaves at `fill` × the page's entry capacity
    /// and the internal levels are stitched together bottom-up; only the
    /// rightmost spine of the existing tree is rewritten, and every other
    /// page is dirtied exactly once, freshly packed. On an empty tree this
    /// is a full bulk build. Returns the number of entries appended.
    pub fn bulk_append<K, I>(
        &mut self,
        pool: &BufferPool,
        fill: f64,
        entries: I,
    ) -> StorageResult<usize>
    where
        K: AsRef<[u8]>,
        I: IntoIterator<Item = (K, u64)>,
    {
        let mut loader = BulkLoader::seed(pool, self.root)?;
        loader.set_fill(fill);
        for (key, value) in entries {
            loader.push(key.as_ref(), value)?;
        }
        let (root, pushed) = loader.finish()?;
        self.root = root;
        Ok(pushed)
    }

    /// The largest key currently in the tree (a rightmost-spine walk), or
    /// `None` when the tree is empty. Used to decide whether a sorted run
    /// can be bulk-appended.
    pub fn last_key<S: PageSource>(&self, pool: S) -> StorageResult<Option<Vec<u8>>> {
        let mut page = self.root;
        loop {
            enum Step {
                Leaf(Option<Vec<u8>>),
                Child(PageId),
            }
            let step = pool.with_page(page, |p| -> StorageResult<Step> {
                let count = p.read_u16(1) as usize;
                let is_leaf = p.bytes()[0] == TYPE_LEAF;
                let mut off = NODE_HEADER;
                let mut last_key = None;
                let mut last_child = PageId(p.read_u64(3));
                for _ in 0..count {
                    let klen = p.read_u16(off) as usize;
                    off += 2;
                    if off + klen + 8 > PAGE_SIZE {
                        return Err(StorageError::Corrupted("entry overruns page".into()));
                    }
                    if is_leaf {
                        last_key = Some(p.read_bytes(off, klen).to_vec());
                    } else {
                        last_child = PageId(p.read_u64(off + klen));
                    }
                    off += klen + 8;
                }
                if is_leaf {
                    Ok(Step::Leaf(last_key))
                } else {
                    Ok(Step::Child(last_child))
                }
            })??;
            match step {
                Step::Leaf(key) => return Ok(key),
                Step::Child(child) => page = child,
            }
        }
    }

    /// Walk from the root to the leaf responsible for `key`, scanning
    /// internal entries in place (no per-level key materialization).
    ///
    /// With `lower = false` the child chosen follows `partition_point(k <=
    /// key)` (point lookups); with `lower = true` it follows
    /// `partition_point(k < key)`, landing on the leftmost leaf that can
    /// contain `key` — required when duplicates of `key` straddle a split.
    fn descend_in_place<S: PageSource>(
        &self,
        pool: S,
        key: &[u8],
        lower: bool,
    ) -> StorageResult<PageId> {
        let mut page = self.root;
        loop {
            let next = pool.with_page(page, |p| -> StorageResult<Option<PageId>> {
                match p.bytes()[0] {
                    TYPE_LEAF => Ok(None),
                    TYPE_INTERNAL => {
                        let count = p.read_u16(1) as usize;
                        let mut child = PageId(p.read_u64(3));
                        let mut off = NODE_HEADER;
                        for _ in 0..count {
                            let klen = p.read_u16(off) as usize;
                            off += 2;
                            if off + klen + 8 > PAGE_SIZE {
                                return Err(StorageError::Corrupted(
                                    "internal entry overruns page".into(),
                                ));
                            }
                            let entry_key = p.read_bytes(off, klen);
                            let descend_right = if lower {
                                entry_key < key
                            } else {
                                entry_key <= key
                            };
                            if !descend_right {
                                break;
                            }
                            child = PageId(p.read_u64(off + klen));
                            off += klen + 8;
                        }
                        Ok(Some(child))
                    }
                    other => Err(StorageError::Corrupted(format!(
                        "unknown B+tree node type {other}"
                    ))),
                }
            })??;
            match next {
                None => return Ok(page),
                Some(child) => page = child,
            }
        }
    }

    fn leftmost_leaf<S: PageSource>(&self, pool: S) -> StorageResult<PageId> {
        let mut page = self.root;
        loop {
            match read_node(pool, page)? {
                Node::Leaf { .. } => return Ok(page),
                Node::Internal { children, .. } => page = children[0],
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Bottom-up bulk loader
// ---------------------------------------------------------------------------

/// One level of the bottom-up bulk builder: the page currently being packed
/// at that height. Entries are accumulated in the exact on-page byte layout
/// (`key_len u16 | key | u64`), so finalizing a page is a single block copy.
struct BulkLevel {
    /// Page the pending entries will be written to (already allocated).
    page: PageId,
    /// Serialized entries, identical to the on-page layout.
    buf: Vec<u8>,
    /// Entries in `buf`.
    count: usize,
    /// Internal levels: the node's leftmost child (the header pointer).
    /// Unused (NULL) at the leaf level, where the header pointer chains
    /// siblings instead.
    leftmost: PageId,
}

/// Bottom-up builder packing a sorted run into B+tree pages.
///
/// `levels[0]` is the leaf level. Seeding loads the rightmost spine of the
/// existing tree into the level builders, so an append continues exactly
/// where the tree ends: the spine pages are rewritten in place (their left
/// siblings keep pointing at them) and every other page is written exactly
/// once, when it is full or at `finish`.
struct BulkLoader<'a> {
    pool: &'a BufferPool,
    levels: Vec<BulkLevel>,
    /// Per-page entry-byte budget: `fill × (PAGE_SIZE - NODE_HEADER)`.
    budget: usize,
    /// Last key admitted (strict-order validation); starts as the largest
    /// key already in the tree.
    last_key: Vec<u8>,
    have_last: bool,
    /// Entries pushed so far.
    pushed: usize,
    /// Root of the seeded tree (returned unchanged when nothing is pushed).
    seed_root: PageId,
}

impl<'a> BulkLoader<'a> {
    /// Minimum accepted fill factor; lower values would degenerate into one
    /// entry per page.
    const MIN_FILL: f64 = 0.1;

    fn seed(pool: &'a BufferPool, root: PageId) -> StorageResult<BulkLoader<'a>> {
        // Walk the rightmost spine top-down, then reverse so levels[0] is
        // the leaf level.
        let mut spine: Vec<(PageId, BulkLevel, bool)> = Vec::new();
        let mut last_key = Vec::new();
        let mut have_last = false;
        let mut page = root;
        loop {
            let (level, is_leaf, next_child) =
                pool.with_page(page, |p| -> StorageResult<(BulkLevel, bool, PageId)> {
                    let is_leaf = match p.bytes()[0] {
                        TYPE_LEAF => true,
                        TYPE_INTERNAL => false,
                        other => {
                            return Err(StorageError::Corrupted(format!(
                                "unknown B+tree node type {other}"
                            )))
                        }
                    };
                    let count = p.read_u16(1) as usize;
                    let header_ptr = PageId(p.read_u64(3));
                    let mut off = NODE_HEADER;
                    let mut last_child = header_ptr;
                    for _ in 0..count {
                        let klen = p.read_u16(off) as usize;
                        off += 2;
                        if off + klen + 8 > PAGE_SIZE {
                            return Err(StorageError::Corrupted("entry overruns page".into()));
                        }
                        if is_leaf {
                            last_key.clear();
                            last_key.extend_from_slice(p.read_bytes(off, klen));
                            have_last = true;
                        } else {
                            last_child = PageId(p.read_u64(off + klen));
                        }
                        off += klen + 8;
                    }
                    if is_leaf && !header_ptr.is_null() {
                        return Err(StorageError::Corrupted(
                            "rightmost leaf has a right sibling".into(),
                        ));
                    }
                    let level = BulkLevel {
                        page: PageId::NULL, // patched below
                        buf: p.read_bytes(NODE_HEADER, off - NODE_HEADER).to_vec(),
                        count,
                        leftmost: if is_leaf { PageId::NULL } else { header_ptr },
                    };
                    Ok((level, is_leaf, last_child))
                })??;
            let mut level = level;
            level.page = page;
            spine.push((page, level, is_leaf));
            if is_leaf {
                break;
            }
            page = next_child;
        }
        let levels: Vec<BulkLevel> = spine.into_iter().rev().map(|(_, l, _)| l).collect();
        Ok(BulkLoader {
            pool,
            levels,
            budget: PAGE_SIZE - NODE_HEADER, // patched by `with_fill`
            last_key,
            have_last,
            pushed: 0,
            seed_root: root,
        })
    }

    fn set_fill(&mut self, fill: f64) {
        let fill = fill.clamp(Self::MIN_FILL, 1.0);
        self.budget = ((PAGE_SIZE - NODE_HEADER) as f64 * fill) as usize;
    }

    fn push(&mut self, key: &[u8], value: u64) -> StorageResult<()> {
        if key.len() > MAX_KEY_SIZE {
            return Err(StorageError::RecordTooLarge(key.len()));
        }
        if self.have_last {
            match self.last_key.as_slice().cmp(key) {
                std::cmp::Ordering::Less => {}
                std::cmp::Ordering::Equal => {
                    return Err(StorageError::DuplicateKey(format!(
                        "bulk load repeats key {key:?}"
                    )));
                }
                std::cmp::Ordering::Greater => {
                    return Err(StorageError::BulkOutOfOrder(format!(
                        "key {key:?} sorts before the previous key {:?}",
                        self.last_key
                    )));
                }
            }
        }
        let entry_size = 2 + key.len() + 8;
        if self.levels[0].count > 0 && self.levels[0].buf.len() + entry_size > self.budget {
            self.roll_leaf(key)?;
        }
        let leaf = &mut self.levels[0];
        leaf.buf
            .extend_from_slice(&(key.len() as u16).to_le_bytes());
        leaf.buf.extend_from_slice(key);
        leaf.buf.extend_from_slice(&value.to_le_bytes());
        leaf.count += 1;
        self.last_key.clear();
        self.last_key.extend_from_slice(key);
        self.have_last = true;
        self.pushed += 1;
        Ok(())
    }

    /// Finalize the full leaf, start its successor (chained via the leaf's
    /// next pointer) and promote the separator — the first key of the new
    /// leaf — one level up.
    fn roll_leaf(&mut self, first_key: &[u8]) -> StorageResult<()> {
        let new_page = self.pool.allocate_page()?;
        let old_page = self.levels[0].page;
        self.flush_page(0, new_page)?;
        let leaf = &mut self.levels[0];
        leaf.page = new_page;
        leaf.buf.clear();
        leaf.count = 0;
        self.promote(1, old_page, first_key, new_page)
    }

    /// Register a page split at `level - 1` with its parent: `old_page` kept
    /// its entries, `new_page` continues them, `sep` is the smallest key in
    /// `new_page`'s subtree.
    fn promote(
        &mut self,
        level: usize,
        old_page: PageId,
        sep: &[u8],
        new_page: PageId,
    ) -> StorageResult<()> {
        if self.levels.len() == level {
            // The child level outgrew a single page for the first time: a
            // new top level whose leftmost child is the page everything so
            // far was packed into.
            let page = self.pool.allocate_page()?;
            self.levels.push(BulkLevel {
                page,
                buf: Vec::new(),
                count: 0,
                leftmost: old_page,
            });
        }
        let entry_size = 2 + sep.len() + 8;
        if self.levels[level].count > 0 && self.levels[level].buf.len() + entry_size > self.budget {
            // This internal page is full too: finalize it, start a fresh one
            // whose leftmost child is `new_page`, and promote the separator
            // further up (it moves up, exactly as in a top-down split).
            let fresh = self.pool.allocate_page()?;
            let old_internal = self.levels[level].page;
            let leftmost = self.levels[level].leftmost;
            self.flush_page(level, leftmost)?;
            let node = &mut self.levels[level];
            node.page = fresh;
            node.buf.clear();
            node.count = 0;
            node.leftmost = new_page;
            return self.promote(level + 1, old_internal, sep, fresh);
        }
        let node = &mut self.levels[level];
        node.buf
            .extend_from_slice(&(sep.len() as u16).to_le_bytes());
        node.buf.extend_from_slice(sep);
        node.buf.extend_from_slice(&new_page.0.to_le_bytes());
        node.count += 1;
        Ok(())
    }

    /// Write the level's pending page: type byte, count, header pointer
    /// (next sibling for leaves, leftmost child for internal nodes) and the
    /// accumulated entry bytes, in one page mutation.
    fn flush_page(&self, level: usize, header_ptr: PageId) -> StorageResult<()> {
        let l = &self.levels[level];
        debug_assert!(NODE_HEADER + l.buf.len() <= PAGE_SIZE);
        debug_assert!(l.count < u16::MAX as usize);
        self.pool.with_page_mut(l.page, |p| {
            p.bytes_mut()[0] = if level == 0 { TYPE_LEAF } else { TYPE_INTERNAL };
            p.write_u16(1, l.count as u16);
            p.write_u64(3, header_ptr.0);
            p.write_bytes(NODE_HEADER, &l.buf);
        })?;
        // Bulk-packed pages are write-once: hint the clock hand that they
        // can be evicted without a second chance, so a load larger than the
        // pool streams through it instead of flushing the working set.
        self.pool.hint_cold(l.page);
        Ok(())
    }

    /// Finalize every level bottom-up and return the new root and the
    /// number of entries appended. When nothing was pushed, no page was (or
    /// is) touched and the seeded root is returned unchanged.
    fn finish(self) -> StorageResult<(PageId, usize)> {
        if self.pushed == 0 {
            return Ok((self.seed_root, 0));
        }
        for level in 0..self.levels.len() {
            let header_ptr = if level == 0 {
                PageId::NULL
            } else {
                self.levels[level].leftmost
            };
            self.flush_page(level, header_ptr)?;
        }
        let root = self.levels.last().expect("at least the leaf level").page;
        Ok((root, self.pushed))
    }
}

/// Position within one pinned leaf page. [`PinnedPage`] is an owned guard,
/// so the cursor carries no borrow of the pool.
struct LeafCursor {
    page: PinnedPage,
    /// Total entries in the leaf.
    count: usize,
    /// Index of the next entry to decode.
    index: usize,
    /// Byte offset of the next entry.
    offset: usize,
    /// Right sibling in the leaf chain.
    next: PageId,
}

impl LeafCursor {
    fn pin<S: PageSource>(pool: S, pid: PageId) -> StorageResult<LeafCursor> {
        let page = pool.pin_page(pid)?;
        if page.bytes()[0] != TYPE_LEAF {
            return Err(StorageError::Corrupted(
                "leaf chain contains an internal node".into(),
            ));
        }
        let count = page.read_u16(1) as usize;
        let next = PageId(page.read_u64(3));
        Ok(LeafCursor {
            page,
            count,
            index: 0,
            offset: NODE_HEADER,
            next,
        })
    }

    /// Borrow the next entry's key and value without copying, advancing the
    /// cursor. `None` when the leaf is exhausted.
    fn advance(&mut self) -> StorageResult<Option<(&[u8], u64)>> {
        if self.index >= self.count {
            return Ok(None);
        }
        let klen = self.page.read_u16(self.offset) as usize;
        let key_off = self.offset + 2;
        if key_off + klen + 8 > PAGE_SIZE {
            return Err(StorageError::Corrupted("leaf entry overruns page".into()));
        }
        let value = self.page.read_u64(key_off + klen);
        self.index += 1;
        self.offset = key_off + klen + 8;
        Ok(Some((self.page.read_bytes(key_off, klen), value)))
    }
}

/// Iterator over a key range, walking the leaf chain one pinned frame at a
/// time. Only yielded keys are copied out of the page. Generic over the
/// [`PageSource`], so the same scan serves the writer's current view and
/// concurrent snapshot readers.
pub struct RangeIter<S: PageSource> {
    pool: S,
    cursor: Option<LeafCursor>,
    low: Option<Vec<u8>>,
    high: Option<Vec<u8>>,
    exhausted: bool,
}

impl<S: PageSource> RangeIter<S> {
    fn step(&mut self) -> StorageResult<Option<(Vec<u8>, u64)>> {
        loop {
            let Some(cursor) = self.cursor.as_mut() else {
                self.exhausted = true;
                return Ok(None);
            };
            match cursor.advance()? {
                None => {
                    // Leaf exhausted: move to the right sibling (unpinning
                    // the current leaf by replacing the cursor).
                    let next = cursor.next;
                    self.cursor = if next.is_null() {
                        None
                    } else {
                        Some(LeafCursor::pin(self.pool, next)?)
                    };
                }
                Some((key, value)) => {
                    if let Some(low) = &self.low {
                        if key < low.as_slice() {
                            continue;
                        }
                    }
                    if let Some(high) = &self.high {
                        if key >= high.as_slice() {
                            self.exhausted = true;
                            let item = None;
                            // Drop the pin before returning.
                            self.cursor = None;
                            return Ok(item);
                        }
                    }
                    let item = (key.to_vec(), value);
                    // Keys are sorted: once one passes `low`, all later ones
                    // do; skip the comparison from here on.
                    self.low = None;
                    return Ok(Some(item));
                }
            }
        }
    }
}

impl<S: PageSource> Iterator for RangeIter<S> {
    type Item = StorageResult<(Vec<u8>, u64)>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.exhausted {
            return None;
        }
        match self.step() {
            Ok(Some(item)) => Some(Ok(item)),
            Ok(None) => None,
            Err(e) => {
                self.exhausted = true;
                self.cursor = None;
                Some(Err(e))
            }
        }
    }
}

fn read_node<S: PageSource>(pool: S, page: PageId) -> StorageResult<Node> {
    pool.with_page(page, Node::read_from)?
}

fn write_node(pool: &BufferPool, page: PageId, node: &Node) -> StorageResult<()> {
    debug_assert!(
        node.serialized_size() <= PAGE_SIZE,
        "node does not fit in a page"
    );
    debug_assert!(node.key_count() < u16::MAX as usize);
    pool.with_page_mut(page, |p| node.write_to(p))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pager::Pager;
    use crate::value::Value;
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::SeedableRng;
    use tempfile::tempdir;

    fn pool() -> (tempfile::TempDir, BufferPool) {
        let dir = tempdir().unwrap();
        let pager = Pager::create(dir.path().join("t.crdb")).unwrap();
        (dir, BufferPool::with_capacity(pager, 256).unwrap())
    }

    #[test]
    fn empty_tree() {
        let (_d, pool) = pool();
        let tree = BTree::create(&pool).unwrap();
        assert!(tree.is_empty(&pool).unwrap());
        assert_eq!(tree.get(&pool, b"anything").unwrap(), None);
        assert_eq!(tree.height(&pool).unwrap(), 1);
    }

    #[test]
    fn insert_and_get_small() {
        let (_d, pool) = pool();
        let mut tree = BTree::create(&pool).unwrap();
        for (i, key) in ["delta", "alpha", "charlie", "bravo"].iter().enumerate() {
            tree.insert(&pool, key.as_bytes(), i as u64).unwrap();
        }
        assert_eq!(tree.get(&pool, b"alpha").unwrap(), Some(1));
        assert_eq!(tree.get(&pool, b"delta").unwrap(), Some(0));
        assert_eq!(tree.get(&pool, b"echo").unwrap(), None);
        assert_eq!(tree.len(&pool).unwrap(), 4);
    }

    #[test]
    fn insert_many_causes_splits_and_stays_sorted() {
        let (_d, pool) = pool();
        let mut tree = BTree::create(&pool).unwrap();
        let mut keys: Vec<u64> = (0..5000).collect();
        let mut rng = StdRng::seed_from_u64(7);
        keys.shuffle(&mut rng);
        for &k in &keys {
            tree.insert(&pool, &Value::Int(k as i64).key_bytes(), k)
                .unwrap();
        }
        assert!(
            tree.height(&pool).unwrap() > 1,
            "5000 keys must split the root"
        );
        assert_eq!(tree.len(&pool).unwrap(), 5000);
        // Point lookups.
        for k in [0u64, 1, 777, 2500, 4999] {
            assert_eq!(
                tree.get(&pool, &Value::Int(k as i64).key_bytes()).unwrap(),
                Some(k)
            );
        }
        // Full scan is sorted.
        let all: Vec<(Vec<u8>, u64)> = tree
            .range(&pool, None, None)
            .unwrap()
            .collect::<StorageResult<_>>()
            .unwrap();
        assert_eq!(all.len(), 5000);
        for w in all.windows(2) {
            assert!(w[0].0 <= w[1].0);
        }
        // Values follow the key order (keys encode the value).
        for (i, (_, v)) in all.iter().enumerate() {
            assert_eq!(*v, i as u64);
        }
    }

    #[test]
    fn range_scan_bounds() {
        let (_d, pool) = pool();
        let mut tree = BTree::create(&pool).unwrap();
        for k in 0..1000i64 {
            tree.insert(&pool, &Value::Int(k).key_bytes(), k as u64)
                .unwrap();
        }
        let low = Value::Int(100).key_bytes();
        let high = Value::Int(200).key_bytes();
        let hits: Vec<u64> = tree
            .range(&pool, Some(&low), Some(&high))
            .unwrap()
            .map(|r| r.unwrap().1)
            .collect();
        assert_eq!(hits, (100..200).map(|v| v as u64).collect::<Vec<_>>());
        // Unbounded low.
        let hits: Vec<u64> = tree
            .range(&pool, None, Some(&Value::Int(5).key_bytes()))
            .unwrap()
            .map(|r| r.unwrap().1)
            .collect();
        assert_eq!(hits, vec![0, 1, 2, 3, 4]);
        // Unbounded high.
        let hits: Vec<u64> = tree
            .range(&pool, Some(&Value::Int(995).key_bytes()), None)
            .unwrap()
            .map(|r| r.unwrap().1)
            .collect();
        assert_eq!(hits, vec![995, 996, 997, 998, 999]);
        // Empty range.
        let hits: Vec<u64> = tree
            .range(
                &pool,
                Some(&Value::Int(500).key_bytes()),
                Some(&Value::Int(500).key_bytes()),
            )
            .unwrap()
            .map(|r| r.unwrap().1)
            .collect();
        assert!(hits.is_empty());
    }

    #[test]
    fn duplicate_keys_all_retrievable() {
        let (_d, pool) = pool();
        let mut tree = BTree::create(&pool).unwrap();
        for v in 0..50u64 {
            tree.insert(&pool, b"same-key", v).unwrap();
        }
        tree.insert(&pool, b"other", 99).unwrap();
        let all = tree.get_all(&pool, b"same-key").unwrap();
        assert_eq!(all.len(), 50);
        let mut sorted = all.clone();
        sorted.sort();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_eq!(tree.get_all(&pool, b"other").unwrap(), vec![99]);
        assert_eq!(tree.get_all(&pool, b"missing").unwrap(), Vec::<u64>::new());
    }

    #[test]
    fn float_keys_range_scan_matches_numeric_order() {
        let (_d, pool) = pool();
        let mut tree = BTree::create(&pool).unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        let mut times: Vec<f64> = (0..2000).map(|i| i as f64 * 0.01).collect();
        times.shuffle(&mut rng);
        for (i, t) in times.iter().enumerate() {
            tree.insert(&pool, &Value::Float(*t).key_bytes(), i as u64)
                .unwrap();
        }
        // "All nodes with time >= 15.0" — the paper's sampling predicate.
        let low = Value::Float(15.0).key_bytes();
        let count = tree.range(&pool, Some(&low), None).unwrap().count();
        assert_eq!(count, 500); // times 15.00..19.99
    }

    #[test]
    fn delete_removes_single_entry() {
        let (_d, pool) = pool();
        let mut tree = BTree::create(&pool).unwrap();
        for k in 0..100i64 {
            tree.insert(&pool, &Value::Int(k).key_bytes(), k as u64)
                .unwrap();
        }
        assert!(tree
            .delete(&pool, &Value::Int(42).key_bytes(), None)
            .unwrap());
        assert_eq!(tree.get(&pool, &Value::Int(42).key_bytes()).unwrap(), None);
        assert!(!tree
            .delete(&pool, &Value::Int(42).key_bytes(), None)
            .unwrap());
        assert_eq!(tree.len(&pool).unwrap(), 99);
        // Delete by (key, value) pair among duplicates.
        tree.insert(&pool, b"dup", 1).unwrap();
        tree.insert(&pool, b"dup", 2).unwrap();
        assert!(tree.delete(&pool, b"dup", Some(2)).unwrap());
        assert_eq!(tree.get_all(&pool, b"dup").unwrap(), vec![1]);
    }

    #[test]
    fn oversized_key_rejected() {
        let (_d, pool) = pool();
        let mut tree = BTree::create(&pool).unwrap();
        let big = vec![1u8; MAX_KEY_SIZE + 1];
        assert!(tree.insert(&pool, &big, 0).is_err());
    }

    #[test]
    fn persists_across_reopen() {
        let dir = tempdir().unwrap();
        let path = dir.path().join("t.crdb");
        let root;
        {
            let pager = Pager::create(&path).unwrap();
            let pool = BufferPool::with_capacity(pager, 64).unwrap();
            let mut tree = BTree::create(&pool).unwrap();
            for k in 0..3000i64 {
                tree.insert(&pool, &Value::Int(k).key_bytes(), (k * 2) as u64)
                    .unwrap();
            }
            root = tree.root();
            pool.flush().unwrap();
        }
        let pager = Pager::open(&path).unwrap();
        let pool = BufferPool::with_capacity(pager, 64).unwrap();
        let tree = BTree::open(root);
        assert_eq!(
            tree.get(&pool, &Value::Int(1234).key_bytes()).unwrap(),
            Some(2468)
        );
        assert_eq!(tree.len(&pool).unwrap(), 3000);
    }

    #[test]
    fn long_string_keys() {
        let (_d, pool) = pool();
        let mut tree = BTree::create(&pool).unwrap();
        for i in 0..200 {
            let key = format!("{}{:04}", "x".repeat(300), i);
            tree.insert(&pool, key.as_bytes(), i as u64).unwrap();
        }
        assert_eq!(tree.len(&pool).unwrap(), 200);
        let key = format!("{}{:04}", "x".repeat(300), 150);
        assert_eq!(tree.get(&pool, key.as_bytes()).unwrap(), Some(150));
        assert!(tree.height(&pool).unwrap() >= 2);
    }

    // ------------------------------------------------------------------
    // Bulk loading
    // ------------------------------------------------------------------

    fn int_entries(range: std::ops::Range<i64>) -> Vec<(Vec<u8>, u64)> {
        range
            .map(|k| (Value::Int(k).key_bytes(), k as u64))
            .collect()
    }

    fn assert_full_scan(pool: &BufferPool, tree: &BTree, expected: &[(Vec<u8>, u64)]) {
        let all: Vec<(Vec<u8>, u64)> = tree
            .range(pool, None, None)
            .unwrap()
            .collect::<StorageResult<_>>()
            .unwrap();
        assert_eq!(all, expected);
    }

    #[test]
    fn bulk_build_empty_input() {
        let (_d, pool) = pool();
        let before = pool.page_count();
        let tree = BTree::bulk_build(&pool, 1.0, Vec::<(Vec<u8>, u64)>::new()).unwrap();
        assert!(tree.is_empty(&pool).unwrap());
        assert_eq!(tree.height(&pool).unwrap(), 1);
        assert_eq!(tree.last_key(&pool).unwrap(), None);
        // Only the (empty) root leaf was allocated.
        assert_eq!(pool.page_count(), before + 1);
    }

    #[test]
    fn bulk_build_single_key() {
        let (_d, pool) = pool();
        let tree = BTree::bulk_build(&pool, 1.0, vec![(b"only".to_vec(), 7u64)]).unwrap();
        assert_eq!(tree.get(&pool, b"only").unwrap(), Some(7));
        assert_eq!(tree.len(&pool).unwrap(), 1);
        assert_eq!(tree.height(&pool).unwrap(), 1);
        assert_eq!(tree.last_key(&pool).unwrap(), Some(b"only".to_vec()));
    }

    #[test]
    fn bulk_build_matches_insert_built_tree() {
        let (_d, pool) = pool();
        let entries = int_entries(0..5000);
        let bulk = BTree::bulk_build(&pool, 1.0, entries.clone()).unwrap();
        let mut inserted = BTree::create(&pool).unwrap();
        for (k, v) in &entries {
            inserted.insert(&pool, k, *v).unwrap();
        }
        let from_bulk: Vec<(Vec<u8>, u64)> = bulk
            .range(&pool, None, None)
            .unwrap()
            .collect::<StorageResult<_>>()
            .unwrap();
        let from_insert: Vec<(Vec<u8>, u64)> = inserted
            .range(&pool, None, None)
            .unwrap()
            .collect::<StorageResult<_>>()
            .unwrap();
        assert_eq!(from_bulk, from_insert);
        // Point lookups and bounded ranges behave identically.
        for probe in [0i64, 1, 2499, 4999] {
            assert_eq!(
                bulk.get(&pool, &Value::Int(probe).key_bytes()).unwrap(),
                Some(probe as u64)
            );
        }
        assert_eq!(
            bulk.get(&pool, &Value::Int(5000).key_bytes()).unwrap(),
            None
        );
        let low = Value::Int(100).key_bytes();
        let high = Value::Int(200).key_bytes();
        let hits: Vec<u64> = bulk
            .range(&pool, Some(&low), Some(&high))
            .unwrap()
            .map(|r| r.unwrap().1)
            .collect();
        assert_eq!(hits, (100..200u64).collect::<Vec<_>>());
    }

    #[test]
    fn bulk_build_exact_leaf_capacity_boundaries() {
        // Entries sized so an exact number fit per leaf: key 12 bytes + 2
        // length + 8 value = 22 bytes; (PAGE_SIZE - NODE_HEADER) / 22 = 371.
        let per_leaf = (PAGE_SIZE - NODE_HEADER) / 22;
        for n in [
            per_leaf - 1,
            per_leaf,
            per_leaf + 1,
            2 * per_leaf,
            2 * per_leaf + 1,
        ] {
            let (_d, pool) = pool();
            let entries: Vec<(Vec<u8>, u64)> = (0..n)
                .map(|i| (format!("key-{i:08}").into_bytes(), i as u64))
                .collect();
            let tree = BTree::bulk_build(&pool, 1.0, entries.clone()).unwrap();
            assert_full_scan(&pool, &tree, &entries);
            let expected_height = if n <= per_leaf { 1 } else { 2 };
            assert_eq!(tree.height(&pool).unwrap(), expected_height, "n = {n}");
        }
    }

    #[test]
    fn bulk_build_fill_factors_change_page_count() {
        let mut heights = Vec::new();
        let mut pages = Vec::new();
        for fill in [0.5, 0.75, 1.0] {
            let (_d, pool) = pool();
            let before = pool.page_count();
            let entries = int_entries(0..20_000);
            let tree = BTree::bulk_build(&pool, fill, entries.clone()).unwrap();
            assert_eq!(tree.len(&pool).unwrap(), 20_000, "fill {fill}");
            assert_full_scan(&pool, &tree, &entries);
            heights.push(tree.height(&pool).unwrap());
            pages.push(pool.page_count() - before);
        }
        // Lower fill factors spread the same entries over more pages.
        assert!(pages[0] > pages[1], "0.5 must use more pages than 0.75");
        assert!(pages[1] > pages[2], "0.75 must use more pages than 1.0");
        // Half-full leaves need roughly twice the pages of packed ones.
        assert!(pages[0] as f64 >= 1.8 * pages[2] as f64);
        assert!(heights.iter().all(|&h| h >= 2));
    }

    #[test]
    fn bulk_build_rejects_unsorted_and_duplicates() {
        let (_d, pool) = pool();
        let unsorted = vec![(b"b".to_vec(), 1u64), (b"a".to_vec(), 2u64)];
        assert!(matches!(
            BTree::bulk_build(&pool, 1.0, unsorted),
            Err(StorageError::BulkOutOfOrder(_))
        ));
        let dup = vec![(b"a".to_vec(), 1u64), (b"a".to_vec(), 2u64)];
        assert!(matches!(
            BTree::bulk_build(&pool, 1.0, dup),
            Err(StorageError::DuplicateKey(_))
        ));
        // Oversized keys are rejected like on the insert path.
        let big = vec![(vec![1u8; MAX_KEY_SIZE + 1], 1u64)];
        assert!(matches!(
            BTree::bulk_build(&pool, 1.0, big),
            Err(StorageError::RecordTooLarge(_))
        ));
    }

    #[test]
    fn bulk_append_extends_existing_tree() {
        let (_d, pool) = pool();
        let mut tree = BTree::bulk_build(&pool, 0.9, int_entries(0..3000)).unwrap();
        let appended = tree
            .bulk_append(&pool, 0.9, int_entries(3000..6000))
            .unwrap();
        assert_eq!(appended, 3000);
        assert_full_scan(&pool, &tree, &int_entries(0..6000));
        assert_eq!(
            tree.last_key(&pool).unwrap(),
            Some(Value::Int(5999).key_bytes())
        );
        // A run whose first entry does not sort after the existing keys is
        // rejected before any page is touched.
        assert!(matches!(
            tree.bulk_append(&pool, 0.9, int_entries(100..200)),
            Err(StorageError::BulkOutOfOrder(_))
        ));
        assert!(matches!(
            tree.bulk_append(&pool, 0.9, int_entries(5999..6001)),
            Err(StorageError::DuplicateKey(_))
        ));
        assert_full_scan(&pool, &tree, &int_entries(0..6000));
        // Ordinary inserts still work on a bulk-built tree.
        tree.insert(&pool, &Value::Int(-1).key_bytes(), 999)
            .unwrap();
        assert_eq!(
            tree.get(&pool, &Value::Int(-1).key_bytes()).unwrap(),
            Some(999)
        );
        assert_eq!(tree.len(&pool).unwrap(), 6001);
    }

    #[test]
    fn bulk_append_onto_insert_built_tree() {
        let (_d, pool) = pool();
        let mut tree = BTree::create(&pool).unwrap();
        // Insert in shuffled order so the spine is a realistic split product.
        let mut keys: Vec<i64> = (0..2000).collect();
        let mut rng = StdRng::seed_from_u64(3);
        keys.shuffle(&mut rng);
        for &k in &keys {
            tree.insert(&pool, &Value::Int(k).key_bytes(), k as u64)
                .unwrap();
        }
        tree.bulk_append(&pool, 1.0, int_entries(2000..4000))
            .unwrap();
        assert_full_scan(&pool, &tree, &int_entries(0..4000));
        assert!(tree.height(&pool).unwrap() >= 2);
    }

    #[test]
    fn bulk_build_persists_across_reopen() {
        let dir = tempdir().unwrap();
        let path = dir.path().join("t.crdb");
        let root;
        {
            let pager = Pager::create(&path).unwrap();
            let pool = BufferPool::with_capacity(pager, 64).unwrap();
            let tree = BTree::bulk_build(&pool, 0.8, int_entries(0..10_000)).unwrap();
            root = tree.root();
            pool.flush().unwrap();
        }
        let pager = Pager::open(&path).unwrap();
        let pool = BufferPool::with_capacity(pager, 64).unwrap();
        let tree = BTree::open(root);
        assert_eq!(tree.len(&pool).unwrap(), 10_000);
        assert_eq!(
            tree.get(&pool, &Value::Int(1234).key_bytes()).unwrap(),
            Some(1234)
        );
    }

    #[test]
    fn bulk_build_under_eviction_pressure() {
        // A pool far smaller than the output forces constant eviction while
        // packing; the cold hints must not break correctness.
        let dir = tempdir().unwrap();
        let pager = Pager::create(dir.path().join("t.crdb")).unwrap();
        let pool = BufferPool::with_capacity(pager, 8).unwrap();
        let entries = int_entries(0..20_000);
        let tree = BTree::bulk_build(&pool, 1.0, entries.clone()).unwrap();
        assert!(pool.stats().evictions > 0);
        assert_full_scan(&pool, &tree, &entries);
    }

    #[test]
    fn small_buffer_pool_still_correct() {
        // Forces constant eviction during index build.
        let dir = tempdir().unwrap();
        let pager = Pager::create(dir.path().join("t.crdb")).unwrap();
        let pool = BufferPool::with_capacity(pager, 8).unwrap();
        let mut tree = BTree::create(&pool).unwrap();
        for k in 0..2000i64 {
            tree.insert(&pool, &Value::Int(k).key_bytes(), k as u64)
                .unwrap();
        }
        for k in [0i64, 999, 1500, 1999] {
            assert_eq!(
                tree.get(&pool, &Value::Int(k).key_bytes()).unwrap(),
                Some(k as u64)
            );
        }
        assert!(pool.stats().evictions > 0);
    }
}
