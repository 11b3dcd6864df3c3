//! RFC 6962-style Merkle hash trees.
//!
//! Certificate Transparency's verifiability rests on one data structure: a
//! binary Merkle tree over the log's entries, hashed with domain separation
//! (`0x00` for leaves, `0x01` for interior nodes) so a leaf can never be
//! confused with a node. From the tree, three artifacts follow:
//!
//! * the **tree head** (root hash at a given size), which the log signs;
//! * **inclusion proofs** — logarithmic evidence that entry `i` is under
//!   the root of a tree of size `n`;
//! * **consistency proofs** — logarithmic evidence that the tree of size
//!   `m` is a prefix of the tree of size `n` (append-only-ness).
//!
//! The proof *generators* live on [`MerkleTree`]; the *verifiers*
//! ([`verify_inclusion`], [`verify_consistency`]) are standalone functions
//! that see only hashes, sizes and proof paths — exactly what a CT monitor
//! or auditor gets over the wire. The verification algorithms follow
//! RFC 9162 §2.1.3.2 / §2.1.4.2.

use pinning_crypto::{sha256, Sha256};
use pinning_pki::cache::CacheCounter;

/// Telemetry for batched proof generation: a **miss** is one authenticator
/// pass (hashing every interior node of a tree state once), a **hit** is an
/// inclusion proof served from those precomputed nodes without hashing.
pub static PROOF_BATCH: CacheCounter = CacheCounter::new("merkle-proof-batch");

/// Domain-separation prefix for leaf hashes.
pub const LEAF_PREFIX: u8 = 0x00;
/// Domain-separation prefix for interior-node hashes.
pub const NODE_PREFIX: u8 = 0x01;

/// `sha256(0x00 || data)` — the Merkle leaf hash of an entry.
pub fn leaf_hash(data: &[u8]) -> [u8; 32] {
    let mut h = Sha256::new();
    h.update(&[LEAF_PREFIX]);
    h.update(data);
    h.finalize()
}

/// `sha256(0x01 || left || right)` — the Merkle interior-node hash.
fn node_hash(left: &[u8; 32], right: &[u8; 32]) -> [u8; 32] {
    let mut buf = [0u8; 65];
    buf[0] = NODE_PREFIX;
    buf[1..33].copy_from_slice(left);
    buf[33..].copy_from_slice(right);
    sha256(&buf)
}

/// The hash of the empty tree (`sha256("")`, per RFC 6962).
fn empty_root() -> [u8; 32] {
    sha256(&[])
}

/// Largest power of two strictly less than `n` (requires `n > 1`).
fn split_point(n: usize) -> usize {
    let mut k = 1;
    while k * 2 < n {
        k *= 2;
    }
    k
}

/// An append-only Merkle tree over opaque leaf data.
///
/// Stores the leaf hashes plus the tree's RFC 6962 *compact range*: the
/// roots of the perfect subtrees the current leaves decompose into, one
/// per set bit of the size, largest (leftmost) first. `push` merges equal
/// sized subtrees as a binary counter carries, so it hashes one interior
/// node per leaf amortized, and the current head folds those roots right
/// to left: [`MerkleTree::root`], [`MerkleTree::root_at`] at the current
/// size and the signed tree head cost O(log n). Roots of older sizes and
/// single proofs are recomputed from the leaf hashes in O(n); batches of
/// proofs go through a [`TreeAuthenticator`]. The verifiers stay
/// logarithmic either way.
#[derive(Debug, Clone, Default)]
pub struct MerkleTree {
    leaves: Vec<[u8; 32]>,
    /// Perfect-subtree roots covering `leaves`, sizes descending.
    compact: Vec<[u8; 32]>,
}

impl MerkleTree {
    /// Creates an empty tree.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a leaf; returns its index.
    pub fn push(&mut self, leaf_data: &[u8]) -> u64 {
        let index = self.leaves.len() as u64;
        let mut node = leaf_hash(leaf_data);
        self.leaves.push(node);
        // Each trailing one bit of the old size is a subtree as large as
        // the one being carried: merge them, as a binary increment carries.
        let mut carries = index;
        while carries & 1 == 1 {
            let left = self.compact.pop().expect("one subtree per set bit");
            node = node_hash(&left, &node);
            carries >>= 1;
        }
        self.compact.push(node);
        index
    }

    /// Number of leaves.
    pub fn len(&self) -> u64 {
        self.leaves.len() as u64
    }

    /// Whether the tree has no leaves.
    pub fn is_empty(&self) -> bool {
        self.leaves.is_empty()
    }

    /// The leaf hash at `index`.
    pub fn leaf(&self, index: u64) -> Option<[u8; 32]> {
        self.leaves.get(index as usize).copied()
    }

    /// Root over the current tree: the compact range folded right to left.
    pub fn root(&self) -> [u8; 32] {
        let mut subtrees = self.compact.iter().rev();
        let Some(&last) = subtrees.next() else {
            return empty_root();
        };
        subtrees.fold(last, |right, left| node_hash(left, &right))
    }

    /// Root of the historical tree holding the first `size` leaves.
    pub fn root_at(&self, size: u64) -> Option<[u8; 32]> {
        match size.cmp(&self.len()) {
            std::cmp::Ordering::Greater => None,
            std::cmp::Ordering::Equal => Some(self.root()),
            std::cmp::Ordering::Less => Some(subtree_hash(&self.leaves[..size as usize])),
        }
    }

    /// Inclusion proof for leaf `index` in the tree of the first `size`
    /// leaves (RFC 6962 `PATH(m, D[n])`).
    pub fn inclusion_proof(&self, index: u64, size: u64) -> Option<Vec<[u8; 32]>> {
        if index >= size || size > self.len() {
            return None;
        }
        Some(path(index as usize, &self.leaves[..size as usize]))
    }

    /// Consistency proof from the tree of size `old` to the tree of size
    /// `new` (RFC 6962 `PROOF(m, D[n])`).
    pub fn consistency_proof(&self, old: u64, new: u64) -> Option<Vec<[u8; 32]>> {
        if old > new || new > self.len() {
            return None;
        }
        if old == 0 || old == new {
            // Consistency with the empty tree (or with itself) is vacuous.
            return Some(Vec::new());
        }
        Some(subproof(old as usize, &self.leaves[..new as usize], true))
    }

    /// Builds a [`TreeAuthenticator`] over the historical tree of the first
    /// `size` leaves: one O(n) hashing pass, then O(log n) *hash-free*
    /// inclusion proofs for every index. Use it whenever more than one
    /// proof is needed for the same tree state (monitors batch-verifying a
    /// new STH, resolvers proving a pin's log entries).
    pub fn authenticator(&self, size: u64) -> Option<TreeAuthenticator> {
        if size > self.len() {
            return None;
        }
        Some(TreeAuthenticator::new(&self.leaves[..size as usize]))
    }
}

/// Precomputed interior-node hashes for one fixed tree state.
///
/// [`MerkleTree::inclusion_proof`] rehashes O(n) subtree nodes per proof;
/// auditing a batch of `k` new entries that way costs O(k·n). An
/// authenticator hashes every interior node exactly once and then assembles
/// each audit path by lookup. The node layout pairs adjacent nodes per
/// level and promotes an unpaired tail node unchanged, which reproduces the
/// RFC 6962 largest-power-of-two split exactly (the promoted node *is* the
/// right subtree's root at that level), so proofs are byte-identical to the
/// recursive generator's.
#[derive(Debug, Clone)]
pub struct TreeAuthenticator {
    /// `levels[0]` = leaf hashes; `levels[k+1][i]` = hash of the subtree
    /// covering `levels[k][2i..2i+2]` (or the promoted `levels[k][2i]`).
    levels: Vec<Vec<[u8; 32]>>,
}

impl TreeAuthenticator {
    /// One pass over `leaves`: hashes all `n - 1` interior nodes.
    pub fn new(leaves: &[[u8; 32]]) -> Self {
        PROOF_BATCH.miss();
        let mut levels = vec![leaves.to_vec()];
        while levels.last().expect("non-empty").len() > 1 {
            let below = levels.last().expect("non-empty");
            let mut above = Vec::with_capacity(below.len().div_ceil(2));
            let mut pairs = below.chunks_exact(2);
            for pair in &mut pairs {
                above.push(node_hash(&pair[0], &pair[1]));
            }
            if let [odd] = pairs.remainder() {
                above.push(*odd);
            }
            levels.push(above);
        }
        TreeAuthenticator { levels }
    }

    /// Number of leaves in the covered tree state.
    pub fn size(&self) -> u64 {
        self.levels[0].len() as u64
    }

    /// Root of the covered tree state.
    pub fn root(&self) -> [u8; 32] {
        match self.levels.last() {
            Some(top) if !top.is_empty() => top[0],
            _ => empty_root(),
        }
    }

    /// Inclusion proof for leaf `index` — identical bytes to
    /// [`MerkleTree::inclusion_proof`] at this tree size, but assembled
    /// from precomputed nodes without any hashing.
    pub fn inclusion_proof(&self, index: u64) -> Option<Vec<[u8; 32]>> {
        let mut idx = index as usize;
        if idx >= self.levels[0].len() {
            return None;
        }
        PROOF_BATCH.hit();
        let mut proof = Vec::new();
        for level in &self.levels[..self.levels.len().saturating_sub(1)] {
            let sibling = idx ^ 1;
            if let Some(h) = level.get(sibling) {
                proof.push(*h);
            }
            // No sibling: this node was promoted unchanged, nothing to add.
            idx >>= 1;
        }
        Some(proof)
    }
}

fn subtree_hash(leaves: &[[u8; 32]]) -> [u8; 32] {
    match leaves.len() {
        0 => empty_root(),
        1 => leaves[0],
        n => {
            let k = split_point(n);
            node_hash(&subtree_hash(&leaves[..k]), &subtree_hash(&leaves[k..]))
        }
    }
}

fn path(m: usize, leaves: &[[u8; 32]]) -> Vec<[u8; 32]> {
    let n = leaves.len();
    if n <= 1 {
        return Vec::new();
    }
    let k = split_point(n);
    let mut proof;
    if m < k {
        proof = path(m, &leaves[..k]);
        proof.push(subtree_hash(&leaves[k..]));
    } else {
        proof = path(m - k, &leaves[k..]);
        proof.push(subtree_hash(&leaves[..k]));
    }
    proof
}

fn subproof(m: usize, leaves: &[[u8; 32]], whole_subtree: bool) -> Vec<[u8; 32]> {
    let n = leaves.len();
    if m == n {
        return if whole_subtree {
            Vec::new()
        } else {
            vec![subtree_hash(leaves)]
        };
    }
    let k = split_point(n);
    let mut proof;
    if m <= k {
        proof = subproof(m, &leaves[..k], whole_subtree);
        proof.push(subtree_hash(&leaves[k..]));
    } else {
        proof = subproof(m - k, &leaves[k..], false);
        proof.push(subtree_hash(&leaves[..k]));
    }
    proof
}

/// Verifies an inclusion proof: does `leaf` sit at `index` under `root`,
/// the head of a tree of `size` leaves? (RFC 9162 §2.1.3.2.)
pub fn verify_inclusion(
    leaf: &[u8; 32],
    index: u64,
    size: u64,
    proof: &[[u8; 32]],
    root: &[u8; 32],
) -> bool {
    if index >= size {
        return false;
    }
    let mut fnode = index;
    let mut snode = size - 1;
    let mut r = *leaf;
    for p in proof {
        if snode == 0 {
            return false; // proof longer than the path to the root
        }
        if fnode & 1 == 1 || fnode == snode {
            r = node_hash(p, &r);
            if fnode & 1 == 0 {
                while fnode & 1 == 0 {
                    if fnode == 0 {
                        return false;
                    }
                    fnode >>= 1;
                    snode >>= 1;
                }
            }
        } else {
            r = node_hash(&r, p);
        }
        fnode >>= 1;
        snode >>= 1;
    }
    snode == 0 && r == *root
}

/// Verifies a consistency proof: is the tree with head `old_root` at size
/// `old_size` a prefix of the tree with head `new_root` at size
/// `new_size`? (RFC 9162 §2.1.4.2.)
pub fn verify_consistency(
    old_size: u64,
    new_size: u64,
    old_root: &[u8; 32],
    new_root: &[u8; 32],
    proof: &[[u8; 32]],
) -> bool {
    if old_size > new_size {
        return false;
    }
    if old_size == new_size {
        return proof.is_empty() && old_root == new_root;
    }
    if old_size == 0 {
        // Any tree is consistent with the empty tree.
        return proof.is_empty() && *old_root == empty_root();
    }
    let mut proof = proof.to_vec();
    if proof.is_empty() {
        return false;
    }
    // An old size that is an exact power of two is itself a complete
    // subtree of the new tree; its root seeds the recomputation.
    if old_size.is_power_of_two() {
        proof.insert(0, *old_root);
    }
    let mut fnode = old_size - 1;
    let mut snode = new_size - 1;
    while fnode & 1 == 1 {
        fnode >>= 1;
        snode >>= 1;
    }
    let mut fr = proof[0];
    let mut sr = proof[0];
    for c in &proof[1..] {
        if snode == 0 {
            return false;
        }
        if fnode & 1 == 1 || fnode == snode {
            fr = node_hash(c, &fr);
            sr = node_hash(c, &sr);
            if fnode & 1 == 0 {
                while fnode != 0 && fnode & 1 == 0 {
                    fnode >>= 1;
                    snode >>= 1;
                }
            }
        } else {
            sr = node_hash(&sr, c);
        }
        fnode >>= 1;
        snode >>= 1;
    }
    fr == *old_root && sr == *new_root && snode == 0
}

#[cfg(test)]
mod tests {
    use super::*;
    use pinning_crypto::{hex_encode, SplitMix64};

    fn tree_of(n: u64) -> MerkleTree {
        let mut t = MerkleTree::new();
        for i in 0..n {
            t.push(format!("entry-{i}").as_bytes());
        }
        t
    }

    #[test]
    fn empty_tree_root_is_sha256_of_nothing() {
        assert_eq!(MerkleTree::new().root(), sha256(&[]));
    }

    #[test]
    fn single_leaf_root_is_leaf_hash() {
        let mut t = MerkleTree::new();
        t.push(b"only");
        assert_eq!(t.root(), leaf_hash(b"only"));
    }

    #[test]
    fn rfc6962_seven_leaf_structure() {
        // For 7 leaves the split points are 4, then 2 — re-derive the root
        // by hand and compare.
        let t = tree_of(7);
        let l: Vec<[u8; 32]> = (0..7)
            .map(|i| leaf_hash(format!("entry-{i}").as_bytes()))
            .collect();
        let left = node_hash(&node_hash(&l[0], &l[1]), &node_hash(&l[2], &l[3]));
        let right = node_hash(&node_hash(&l[4], &l[5]), &l[6]);
        assert_eq!(t.root(), node_hash(&left, &right));
    }

    #[test]
    fn inclusion_proofs_verify_for_every_entry_at_every_size() {
        let t = tree_of(33);
        for size in 1..=t.len() {
            let root = t.root_at(size).unwrap();
            for index in 0..size {
                let proof = t.inclusion_proof(index, size).unwrap();
                let leaf = t.leaf(index).unwrap();
                assert!(
                    verify_inclusion(&leaf, index, size, &proof, &root),
                    "inclusion failed at index {index} size {size}"
                );
            }
        }
    }

    #[test]
    fn consistency_proofs_verify_across_all_growth_pairs() {
        let t = tree_of(20);
        for old in 0..=t.len() {
            for new in old..=t.len() {
                let proof = t.consistency_proof(old, new).unwrap();
                assert!(
                    verify_consistency(
                        old,
                        new,
                        &t.root_at(old).unwrap(),
                        &t.root_at(new).unwrap(),
                        &proof,
                    ),
                    "consistency failed {old} -> {new}"
                );
            }
        }
    }

    #[test]
    fn tampered_inclusion_proof_fails() {
        let t = tree_of(12);
        let size = t.len();
        let root = t.root();
        let mut rng = SplitMix64::new(0x7a);
        for index in 0..size {
            let proof = t.inclusion_proof(index, size).unwrap();
            let leaf = t.leaf(index).unwrap();
            // Flip one random bit in the leaf.
            let mut bad_leaf = leaf;
            let bit = rng.next_below(256) as usize;
            bad_leaf[bit / 8] ^= 1 << (bit % 8);
            assert!(!verify_inclusion(&bad_leaf, index, size, &proof, &root));
            // Flip one random bit in one proof node.
            if !proof.is_empty() {
                let mut bad = proof.clone();
                let node = rng.next_below(bad.len() as u64) as usize;
                let bit = rng.next_below(256) as usize;
                bad[node][bit / 8] ^= 1 << (bit % 8);
                assert!(!verify_inclusion(&leaf, index, size, &bad, &root));
            }
            // Wrong index.
            assert!(!verify_inclusion(&leaf, (index + 1) % size, size, &proof, &root) || size == 1);
        }
    }

    #[test]
    fn wrong_size_or_root_fails() {
        let t = tree_of(9);
        let proof = t.inclusion_proof(3, 9).unwrap();
        let leaf = t.leaf(3).unwrap();
        let root = t.root();
        // A smaller claimed size means a shorter path: the proof is too long.
        assert!(!verify_inclusion(&leaf, 3, 8, &proof, &root));
        // (Size *over*-claims against the same root are caught at the STH
        // layer, which binds size to root under the log signature.)
        let mut bad_root = root;
        bad_root[0] ^= 0x80;
        assert!(!verify_inclusion(&leaf, 3, 9, &proof, &bad_root));
    }

    #[test]
    fn forged_consistency_rejected() {
        let t = tree_of(16);
        let proof = t.consistency_proof(5, 16).unwrap();
        let old = t.root_at(5).unwrap();
        let new = t.root();
        assert!(verify_consistency(5, 16, &old, &new, &proof));
        // A different "old root" claims a different history.
        let mut other = MerkleTree::new();
        for i in 0..5 {
            other.push(format!("forged-{i}").as_bytes());
        }
        assert!(!verify_consistency(5, 16, &other.root(), &new, &proof));
        // Tampered proof node.
        let mut bad = proof.clone();
        bad[0][31] ^= 1;
        assert!(!verify_consistency(5, 16, &old, &new, &bad));
        // Truncated proof.
        assert!(!verify_consistency(
            5,
            16,
            &old,
            &new,
            &proof[..proof.len() - 1]
        ));
    }

    #[test]
    fn out_of_range_requests_return_none() {
        let t = tree_of(4);
        assert!(t.inclusion_proof(4, 4).is_none());
        assert!(t.inclusion_proof(0, 5).is_none());
        assert!(t.consistency_proof(3, 2).is_none());
        assert!(t.consistency_proof(0, 5).is_none());
        assert!(t.root_at(5).is_none());
    }

    #[test]
    fn authenticator_proofs_match_recursive_generator() {
        let t = tree_of(33);
        for size in 0..=t.len() {
            let auth = t.authenticator(size).unwrap();
            assert_eq!(auth.size(), size);
            assert_eq!(auth.root(), t.root_at(size).unwrap());
            for index in 0..size {
                assert_eq!(
                    auth.inclusion_proof(index).unwrap(),
                    t.inclusion_proof(index, size).unwrap(),
                    "proof mismatch at index {index} size {size}"
                );
            }
            assert!(auth.inclusion_proof(size).is_none());
        }
        assert!(t.authenticator(34).is_none());
    }

    #[test]
    fn compact_head_matches_recursive_root_after_every_push() {
        // 300 leaves cross the powers of two up to 256 and their ±1
        // neighbours, where the compact range collapses to one subtree
        // and then grows again.
        let mut t = MerkleTree::new();
        assert_eq!(t.root(), empty_root());
        for i in 0..300u64 {
            t.push(format!("entry-{i}").as_bytes());
            let recursive = subtree_hash(&t.leaves);
            assert_eq!(t.root(), recursive, "root after {} pushes", i + 1);
            assert_eq!(t.root_at(t.len()), Some(recursive));
            assert_eq!(TreeAuthenticator::new(&t.leaves).root(), recursive);
            assert_eq!(t.compact.len(), t.len().count_ones() as usize);
        }
    }

    #[test]
    fn golden_root_of_a_thousand_leaves() {
        // Pinned from the recursive root before the compact head existed.
        let mut t = MerkleTree::new();
        for i in 0..1000 {
            t.push(format!("golden-{i}").as_bytes());
        }
        assert_eq!(
            hex_encode(&t.root()),
            "d17d93b49d140ce0d0d7564692389fcce9bda4b537f79f2b7e127c14de409dc3"
        );
        assert_eq!(
            hex_encode(&t.root_at(999).unwrap()),
            "790e7a67d44d38c8ea3060fd69d07318b4ce263d996ff2530d3074acb40ddd4e"
        );
    }

    #[test]
    fn domain_separation_distinguishes_leaf_and_node() {
        let a = [1u8; 32];
        let b = [2u8; 32];
        let mut concat = Vec::new();
        concat.extend_from_slice(&a);
        concat.extend_from_slice(&b);
        assert_ne!(node_hash(&a, &b), leaf_hash(&concat));
    }
}
