//! Seeded inputs: simulated gold standards as the text users load.
//!
//! Every tree is drawn with the simulator's default taxon prefix, so all
//! trees of a run share taxon names, as collections over one taxon set do.

use std::collections::HashMap;

use phylo::Tree;
use simulation::gold::GoldStandardBuilder;
use simulation::seqevo::Model;

/// One gold standard as loadable text, plus the tree parsed from that
/// same text (the in-memory oracle shares its node numbering with the
/// stored copy).
pub struct GoldText {
    /// NEXUS document: TAXA, DATA (sequences) and TREES blocks.
    pub nexus: String,
    /// The tree alone, as Newick.
    pub newick: String,
    /// Newick bytes plus sequence bytes: what the user hands over.
    pub user_bytes: u64,
    pub tree: Tree,
    /// Sequence of each taxon, as parsed from the NEXUS text.
    pub sequences: HashMap<String, String>,
}

/// Simulate a gold standard with `leaves` taxa and `sites` sequence sites.
///
/// The substitution rate stays low so the deepest pairs of a Yule tree of
/// a few hundred taxa stay below Jukes–Cantor saturation.
pub fn gold(leaves: usize, sites: usize, seed: u64) -> GoldText {
    let g = GoldStandardBuilder::new()
        .leaves(leaves)
        .sequence_length(sites)
        .model(Model::Jc69 { rate: 0.02 })
        .seed(seed)
        .build()
        .expect("simulation parameters are valid");
    let nexus = phylo::nexus::write(&g.to_nexus());
    let doc = phylo::nexus::parse(&nexus).expect("simulated NEXUS parses");
    let tree = doc.trees[0].tree.clone();
    let newick = phylo::newick::write(&tree);
    let seq_bytes: usize = doc.sequences.values().map(String::len).sum();
    GoldText {
        user_bytes: (newick.len() + seq_bytes) as u64,
        nexus,
        newick,
        tree,
        sequences: doc.sequences,
    }
}

/// A tree topology without sequences, as Newick text.
pub fn topology(leaves: usize, seed: u64) -> String {
    phylo::newick::write(&simulation::birth_death::yule_tree(leaves, 1.0, seed))
}
