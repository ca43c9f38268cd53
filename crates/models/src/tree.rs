//! CART decision trees (classification via Gini, regression via variance).
//!
//! The tree exposes its full structure — children, thresholds, per-node
//! cover and values — because three different explainers consume it
//! directly: TreeSHAP (§2.1.2) walks the node arrays, the logic-based
//! methods (§2.2.2) extract prime implicants from root-to-leaf paths, and
//! LeafInfluence (§2.3.2) re-weights leaf values.

use crate::traits::{Classifier, Model, Regressor};
use xai_rand::rngs::StdRng;
use xai_rand::seq::SliceRandom;
use xai_linalg::Matrix;

/// Split quality criterion.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SplitCriterion {
    /// Gini impurity for 0/1 classification.
    Gini,
    /// Variance reduction for regression (also used for GBDT residual fits).
    Variance,
}

/// Configuration for [`DecisionTree::fit`].
#[derive(Clone, Copy, Debug)]
pub struct TreeConfig {
    /// Maximum tree depth (root is depth 0).
    pub max_depth: usize,
    /// Minimum examples required to consider splitting a node.
    pub min_samples_split: usize,
    /// Minimum examples each child must retain.
    pub min_samples_leaf: usize,
    /// Split criterion.
    pub criterion: SplitCriterion,
    /// When set, each split considers only this many randomly chosen
    /// features (random-forest mode; requires an RNG at fit time).
    pub max_features: Option<usize>,
}

impl Default for TreeConfig {
    fn default() -> Self {
        Self {
            max_depth: 6,
            min_samples_split: 2,
            min_samples_leaf: 1,
            criterion: SplitCriterion::Gini,
            max_features: None,
        }
    }
}

/// A node in the flattened tree. Leaves have `left == None`.
#[derive(Clone, Debug)]
pub struct TreeNode {
    /// Split feature (meaningless for leaves).
    pub feature: usize,
    /// Split threshold; examples with `x[feature] <= threshold` go left.
    pub threshold: f64,
    /// Left child index.
    pub left: Option<usize>,
    /// Right child index.
    pub right: Option<usize>,
    /// Node prediction: mean target (variance) or positive fraction (gini).
    pub value: f64,
    /// Number of training examples that reached this node ("cover").
    pub cover: f64,
}

impl TreeNode {
    /// True for leaf nodes.
    pub fn is_leaf(&self) -> bool {
        self.left.is_none()
    }
}

/// A fitted CART tree.
#[derive(Clone, Debug)]
pub struct DecisionTree {
    nodes: Vec<TreeNode>,
    n_features: usize,
    criterion: SplitCriterion,
}

struct Builder<'a> {
    x: &'a Matrix,
    y: &'a [f64],
    config: TreeConfig,
    nodes: Vec<TreeNode>,
    rng: Option<&'a mut StdRng>,
}

fn impurity(criterion: SplitCriterion, sum: f64, sum_sq: f64, n: f64) -> f64 {
    if n == 0.0 {
        return 0.0;
    }
    match criterion {
        SplitCriterion::Gini => {
            let p = sum / n;
            2.0 * p * (1.0 - p)
        }
        SplitCriterion::Variance => (sum_sq / n - (sum / n).powi(2)).max(0.0),
    }
}

impl<'a> Builder<'a> {
    /// Builds the subtree over `idx`, returning its node index.
    fn build(&mut self, idx: &mut [usize], depth: usize) -> usize {
        let n = idx.len() as f64;
        let sum: f64 = idx.iter().map(|&i| self.y[i]).sum();
        let sum_sq: f64 = idx.iter().map(|&i| self.y[i] * self.y[i]).sum();
        let node_impurity = impurity(self.config.criterion, sum, sum_sq, n);
        let value = sum / n;

        let node_id = self.nodes.len();
        self.nodes.push(TreeNode {
            feature: 0,
            threshold: 0.0,
            left: None,
            right: None,
            value,
            cover: n,
        });

        if depth >= self.config.max_depth
            || idx.len() < self.config.min_samples_split
            || node_impurity <= 1e-12
        {
            return node_id;
        }

        let Some((feature, threshold)) = self.best_split(idx, node_impurity) else {
            return node_id;
        };

        // Partition in place.
        let mut lo = 0;
        let mut hi = idx.len();
        while lo < hi {
            if self.x[(idx[lo], feature)] <= threshold {
                lo += 1;
            } else {
                hi -= 1;
                idx.swap(lo, hi);
            }
        }
        debug_assert!(lo > 0 && lo < idx.len(), "degenerate split survived screening");
        let (left_idx, right_idx) = idx.split_at_mut(lo);
        let left = self.build(left_idx, depth + 1);
        let right = self.build(right_idx, depth + 1);
        self.nodes[node_id].feature = feature;
        self.nodes[node_id].threshold = threshold;
        self.nodes[node_id].left = Some(left);
        self.nodes[node_id].right = Some(right);
        node_id
    }

    /// Finds the impurity-minimizing (feature, threshold) pair, or `None`
    /// when no valid split improves on the parent.
    fn best_split(&mut self, idx: &[usize], parent_impurity: f64) -> Option<(usize, f64)> {
        let n = idx.len() as f64;
        let d = self.x.cols();
        let mut candidates: Vec<usize> = (0..d).collect();
        if let Some(k) = self.config.max_features {
            let rng = self
                .rng
                .as_deref_mut()
                .expect("max_features requires an RNG at fit time");
            candidates.shuffle(rng);
            candidates.truncate(k.max(1).min(d));
        }

        let min_leaf = self.config.min_samples_leaf as f64;
        let mut best: Option<(f64, usize, f64)> = None; // (weighted child impurity, feature, threshold)
        let mut order: Vec<usize> = Vec::with_capacity(idx.len());
        for &feature in &candidates {
            order.clear();
            order.extend_from_slice(idx);
            // total_cmp: a NaN feature value sorts last (and `xnext <= xv`
            // then refuses to split on it) instead of panicking mid-fit.
            order.sort_by(|&a, &b| self.x[(a, feature)].total_cmp(&self.x[(b, feature)]));
            let mut lsum = 0.0;
            let mut lsq = 0.0;
            let total_sum: f64 = order.iter().map(|&i| self.y[i]).sum();
            let total_sq: f64 = order.iter().map(|&i| self.y[i] * self.y[i]).sum();
            for (pos, &i) in order.iter().enumerate().take(order.len() - 1) {
                let yi = self.y[i];
                lsum += yi;
                lsq += yi * yi;
                let nl = (pos + 1) as f64;
                let nr = n - nl;
                if nl < min_leaf || nr < min_leaf {
                    continue;
                }
                let xv = self.x[(i, feature)];
                let xnext = self.x[(order[pos + 1], feature)];
                if xnext <= xv {
                    continue; // no threshold separates equal values
                }
                let wi = (nl / n) * impurity(self.config.criterion, lsum, lsq, nl)
                    + (nr / n) * impurity(self.config.criterion, total_sum - lsum, total_sq - lsq, nr);
                // Accept zero-improvement splits (XOR-style targets need a
                // "useless" first split before the informative second one);
                // pure nodes never reach this point.
                if best.map_or(wi <= parent_impurity + 1e-12, |(b, _, _)| wi < b - 1e-15) {
                    best = Some((wi, feature, 0.5 * (xv + xnext)));
                }
            }
        }
        best.map(|(_, f, t)| (f, t))
    }
}

impl DecisionTree {
    /// Fits a tree; pass an RNG when `config.max_features` is set.
    pub fn fit_with(x: &Matrix, y: &[f64], config: TreeConfig, rng: Option<&mut StdRng>) -> Self {
        assert_eq!(x.rows(), y.len(), "row/target mismatch");
        assert!(x.rows() > 0, "cannot fit on an empty dataset");
        let mut idx: Vec<usize> = (0..x.rows()).collect();
        let mut builder = Builder { x, y, config, nodes: Vec::new(), rng };
        builder.build(&mut idx, 0);
        DecisionTree { nodes: builder.nodes, n_features: x.cols(), criterion: config.criterion }
    }

    /// Reconstructs a tree from raw parts (used by persistence). Callers
    /// are responsible for child-index validity; prefer
    /// `xai_models::Persist::load`, which validates.
    pub fn from_parts(nodes: Vec<TreeNode>, n_features: usize, criterion: SplitCriterion) -> Self {
        assert!(!nodes.is_empty(), "a tree needs at least a root");
        Self { nodes, n_features, criterion }
    }

    /// Fits a deterministic tree (all features considered at every split).
    pub fn fit(x: &Matrix, y: &[f64], config: TreeConfig) -> Self {
        assert!(config.max_features.is_none(), "use fit_with for random-feature mode");
        Self::fit_with(x, y, config, None)
    }

    /// The flattened nodes; index 0 is the root.
    pub fn nodes(&self) -> &[TreeNode] {
        &self.nodes
    }

    /// Mutable node access (used by LeafInfluence-style re-weighting).
    pub fn nodes_mut(&mut self) -> &mut [TreeNode] {
        &mut self.nodes
    }

    /// Number of leaves.
    pub fn n_leaves(&self) -> usize {
        self.nodes.iter().filter(|n| n.is_leaf()).count()
    }

    /// Maximum depth actually reached.
    pub fn depth(&self) -> usize {
        fn rec(nodes: &[TreeNode], id: usize) -> usize {
            match (nodes[id].left, nodes[id].right) {
                (Some(l), Some(r)) => 1 + rec(nodes, l).max(rec(nodes, r)),
                _ => 0,
            }
        }
        if self.nodes.is_empty() {
            0
        } else {
            rec(&self.nodes, 0)
        }
    }

    /// The split criterion the tree was fitted with.
    pub fn criterion(&self) -> SplitCriterion {
        self.criterion
    }

    /// Index of the leaf that `x` falls into.
    pub fn leaf_of(&self, x: &[f64]) -> usize {
        let mut id = 0;
        loop {
            let node = &self.nodes[id];
            match (node.left, node.right) {
                (Some(l), Some(r)) => {
                    id = if x[node.feature] <= node.threshold { l } else { r };
                }
                _ => return id,
            }
        }
    }

    /// Root-to-leaf node index path for `x`.
    pub fn decision_path(&self, x: &[f64]) -> Vec<usize> {
        let mut path = vec![0];
        let mut id = 0;
        loop {
            let node = &self.nodes[id];
            match (node.left, node.right) {
                (Some(l), Some(r)) => {
                    id = if x[node.feature] <= node.threshold { l } else { r };
                    path.push(id);
                }
                _ => return path,
            }
        }
    }

    /// Raw value prediction (mean target / positive fraction at the leaf).
    pub fn predict_value(&self, x: &[f64]) -> f64 {
        self.nodes[self.leaf_of(x)].value
    }

    /// Raw value prediction for a coalition view (zero-copy, DESIGN.md
    /// §12): each split reads `instance[f]` when bit `f` of `mask` is set
    /// and `row[f]` otherwise — the same comparisons [`DecisionTree::leaf_of`]
    /// would make on the materialized mixture, so the leaf (and its value)
    /// is identical without building the mixed row.
    pub fn predict_value_masked(&self, instance: &[f64], row: &[f64], mask: u64) -> f64 {
        let mut id = 0;
        loop {
            let node = &self.nodes[id];
            match (node.left, node.right) {
                (Some(l), Some(r)) => {
                    let f = node.feature;
                    let xv = if mask >> f & 1 == 1 { instance[f] } else { row[f] };
                    id = if xv <= node.threshold { l } else { r };
                }
                _ => return node.value,
            }
        }
    }

    /// Raw value predictions for every row through the batch tree kernel
    /// (DESIGN.md §5): bit-identical to [`DecisionTree::predict_value`]
    /// per row.
    pub fn predict_values(&self, x: &Matrix) -> Vec<f64> {
        let mut out = Vec::new();
        batch_round(std::slice::from_ref(self), x, &mut out, |o, v| *o = v);
        out
    }
}

/// One node of [`batch_round`]'s flattened walk table. A leaf is its own
/// child on both sides and keeps an in-range `feature`, so a walk that
/// reaches it early stays put for the remaining steps.
#[derive(Clone, Copy)]
struct WalkNode {
    threshold: f64,
    feature: u32,
    left: u32,
    right: u32,
}

/// Batched tree-ensemble prediction: for every row of `x` and every tree,
/// finds the leaf the tree assigns the row and calls
/// `apply(&mut out[row], leaf value)`, trees in slice order. `out` is
/// first reset to `x.rows()` zeros.
///
/// Each tree is flattened into a walk table whose leaves loop to
/// themselves, so every row takes exactly `depth()` steps, and the walk
/// goes level by level over the whole batch: one pass over the rows per
/// level, with no per-node allocation.
///
/// Bit-identity: each step makes the comparison `x[f] <= t` that
/// [`DecisionTree::leaf_of`] makes, so every row lands in the same leaf,
/// and each output slot receives its trees' values in slice order — so an
/// accumulating `apply` sums in boosting/tree order, as the per-row walk
/// does.
pub(crate) fn batch_round(
    trees: &[DecisionTree],
    x: &Matrix,
    out: &mut Vec<f64>,
    mut apply: impl FnMut(&mut f64, f64),
) {
    let (n, d) = x.shape();
    out.clear();
    out.resize(n, 0.0);
    let mut table = Vec::new();
    let mut at = vec![0u32; n];
    let data = x.as_slice();
    for tree in trees {
        table.clear();
        for (id, node) in tree.nodes.iter().enumerate() {
            table.push(match (node.left, node.right) {
                (Some(l), Some(r)) => {
                    let f = node.feature;
                    assert!(f < d, "split feature {f} out of range for {d} columns");
                    let (feature, left, right) = (f as u32, l as u32, r as u32);
                    WalkNode { threshold: node.threshold, feature, left, right }
                }
                _ => WalkNode { threshold: 0.0, feature: 0, left: id as u32, right: id as u32 },
            });
        }
        at.fill(0);
        for _ in 0..tree.depth() {
            for (i, a) in at.iter_mut().enumerate() {
                let node = table[*a as usize];
                *a = if data[i * d + node.feature as usize] <= node.threshold {
                    node.left
                } else {
                    node.right
                };
            }
        }
        for (o, &a) in out.iter_mut().zip(&at) {
            apply(o, tree.nodes[a as usize].value);
        }
    }
}

/// Child index marking a leaf in the flattened routing table.
const LEAF: u32 = u32::MAX;

/// One node of [`masked_round`]'s flattened routing table: children are
/// absolute indices across all trees, and `inst` is the child the
/// explained instance takes.
#[derive(Clone, Copy)]
struct RouteNode {
    feature: u32,
    left: u32,
    right: u32,
    inst: u32,
    value: f64,
}

/// Whole-round masked routing over a tree ensemble (DESIGN.md §12): for
/// every mask in `masks`, every background row's coalition view and every
/// tree, finds the leaf the tree assigns the view and calls
/// `apply(&mut out[mask · b + row], leaf value)`, trees in slice order.
/// `out` is first reset to `masks.len() × background.rows()` zeros.
///
/// This is TreeSHAP's path trick applied to coalitions. Every split
/// decision is computed once per call: one bit per background row, packed
/// into 64-row words, plus the instance's branch. A tree is then routed
/// once per distinct coalition restricted to its own split features, and
/// each routing moves whole row sets: a node whose split feature is in
/// the coalition sends the entire set down the instance's branch, and
/// only splits on features outside it partition the rows. The leaf values
/// of that routing serve every mask with the same restriction.
///
/// Bit-identity: the comparisons are exactly those
/// [`DecisionTree::predict_value_masked`] makes, so every row lands in the
/// same leaf, and each output slot receives its trees' values in slice
/// order — so an accumulating `apply` sums in boosting/tree order, as the
/// per-row walk does.
///
/// # Panics
/// Panics when arities disagree or `background.cols() > 64`.
pub(crate) fn masked_round(
    trees: &[DecisionTree],
    instance: &[f64],
    background: &Matrix,
    masks: &[u64],
    out: &mut Vec<f64>,
    mut apply: impl FnMut(&mut f64, f64),
) {
    let (b, d) = background.shape();
    assert_eq!(instance.len(), d, "masked routing instance arity mismatch");
    assert!(d <= 64, "masked routing supports at most 64 features, got {d}");
    out.clear();
    out.resize(masks.len() * b, 0.0);
    let total: usize = trees.iter().map(|t| t.nodes.len()).sum();
    assert!(total < LEAF as usize, "ensemble too large for masked routing");

    let mut nodes = Vec::with_capacity(total);
    // (root, features the tree splits on) per tree.
    let mut roots = Vec::with_capacity(trees.len());
    // Bit `r % 64` of `left_bits[(r / 64) * total + g]` is set when
    // background row `r` goes left at node `g`.
    let mut left_bits = vec![0u64; b.div_ceil(64) * total];
    for tree in trees {
        let base = nodes.len();
        let mut used = 0u64;
        for node in &tree.nodes {
            let g = nodes.len();
            let (left, right, inst) = match (node.left, node.right) {
                (Some(l), Some(r)) => {
                    let (l, r) = ((base + l) as u32, (base + r) as u32);
                    let f = node.feature;
                    used |= 1 << f;
                    for (ri, row) in background.iter_rows().enumerate() {
                        let goes_left = (row[f] <= node.threshold) as u64;
                        left_bits[(ri / 64) * total + g] |= goes_left << (ri % 64);
                    }
                    (l, r, if instance[f] <= node.threshold { l } else { r })
                }
                _ => (LEAF, LEAF, LEAF),
            };
            let (feature, value) = (node.feature as u32, node.value);
            nodes.push(RouteNode { feature, left, right, inst, value });
        }
        roots.push((base as u32, used));
    }

    let mut leaf_values = vec![0.0; b];
    let mut pending = Vec::new();
    let mut by_coalition: Vec<(u64, usize)> = Vec::with_capacity(masks.len());
    for &(root, used) in &roots {
        by_coalition.clear();
        by_coalition.extend(masks.iter().enumerate().map(|(i, &mask)| (mask & used, i)));
        by_coalition.sort_unstable();
        for group in by_coalition.chunk_by(|x, y| x.0 == y.0) {
            for (w, rows) in leaf_values.chunks_mut(64).enumerate() {
                let bits = &left_bits[w * total..(w + 1) * total];
                route_rows(&nodes, bits, root, group[0].0, rows, &mut pending);
            }
            for &(_, i) in group {
                for (o, &v) in out[i * b..(i + 1) * b].iter_mut().zip(&leaf_values) {
                    apply(o, v);
                }
            }
        }
    }
}

/// Routes one word's rows (`rows.len() <= 64`) through the tree at
/// `root` for coalition `mask`, writing each row's leaf value. `pending`
/// holds the right halves of partitioned sets; it is empty on return.
fn route_rows(
    nodes: &[RouteNode],
    left_bits: &[u64],
    root: u32,
    mask: u64,
    rows: &mut [f64],
    pending: &mut Vec<(u32, u64)>,
) {
    let (mut id, mut set) = (root, u64::MAX >> (64 - rows.len()));
    loop {
        let node = nodes[id as usize];
        if node.left == LEAF {
            let mut s = set;
            while s != 0 {
                rows[s.trailing_zeros() as usize] = node.value;
                s &= s - 1;
            }
            match pending.pop() {
                Some(next) => (id, set) = next,
                None => return,
            }
        } else if mask >> node.feature & 1 == 1 {
            id = node.inst;
        } else {
            let left = set & left_bits[id as usize];
            let right = set ^ left;
            if left == 0 {
                id = node.right;
            } else {
                if right != 0 {
                    pending.push((node.right, right));
                }
                (id, set) = (node.left, left);
            }
        }
    }
}

impl Model for DecisionTree {
    fn n_features(&self) -> usize {
        self.n_features
    }
}

impl Regressor for DecisionTree {
    fn predict_one(&self, x: &[f64]) -> f64 {
        self.predict_value(x)
    }

    fn predict_batch(&self, x: &Matrix) -> Vec<f64> {
        self.predict_values(x)
    }
}

impl Classifier for DecisionTree {
    fn proba_one(&self, x: &[f64]) -> f64 {
        self.predict_value(x)
    }

    fn proba_batch(&self, x: &Matrix) -> Vec<f64> {
        self.predict_values(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xai_data::metrics::accuracy;
    use xai_data::synth::{circles, friedman1};
    use xai_linalg::r_squared;

    #[test]
    fn fits_xor_perfectly() {
        // XOR needs depth 2; a linear model cannot represent it at all.
        let x = Matrix::from_rows(&[
            vec![0.0, 0.0],
            vec![0.0, 1.0],
            vec![1.0, 0.0],
            vec![1.0, 1.0],
        ]);
        let y = vec![0.0, 1.0, 1.0, 0.0];
        let tree = DecisionTree::fit(&x, &y, TreeConfig::default());
        for i in 0..4 {
            assert_eq!(tree.predict_value(x.row(i)), y[i]);
        }
        assert!(tree.depth() >= 2);
    }

    #[test]
    fn classification_on_rings() {
        let data = circles(600, 4, 0.1);
        let tree = DecisionTree::fit(
            data.x(),
            data.y(),
            TreeConfig { max_depth: 8, ..TreeConfig::default() },
        );
        let preds = Classifier::predict(&tree, data.x());
        assert!(accuracy(data.y(), &preds) > 0.95);
    }

    #[test]
    fn regression_on_friedman() {
        let data = friedman1(800, 5, 0.2);
        let tree = DecisionTree::fit(
            data.x(),
            data.y(),
            TreeConfig {
                max_depth: 8,
                criterion: SplitCriterion::Variance,
                min_samples_leaf: 3,
                ..TreeConfig::default()
            },
        );
        let preds = Regressor::predict(&tree, data.x());
        assert!(r_squared(data.y(), &preds) > 0.7);
    }

    #[test]
    fn depth_limit_respected() {
        let data = circles(500, 6, 0.15);
        for d in [1, 2, 3] {
            let tree = DecisionTree::fit(
                data.x(),
                data.y(),
                TreeConfig { max_depth: d, ..TreeConfig::default() },
            );
            assert!(tree.depth() <= d);
        }
    }

    #[test]
    fn min_samples_leaf_respected() {
        let data = circles(300, 8, 0.2);
        let tree = DecisionTree::fit(
            data.x(),
            data.y(),
            TreeConfig { max_depth: 10, min_samples_leaf: 20, ..TreeConfig::default() },
        );
        for node in tree.nodes() {
            if node.is_leaf() {
                assert!(node.cover >= 20.0, "leaf cover {}", node.cover);
            }
        }
    }

    #[test]
    fn covers_are_consistent() {
        let data = circles(400, 9, 0.2);
        let tree = DecisionTree::fit(data.x(), data.y(), TreeConfig::default());
        assert_eq!(tree.nodes()[0].cover, 400.0);
        for node in tree.nodes() {
            if let (Some(l), Some(r)) = (node.left, node.right) {
                assert_eq!(node.cover, tree.nodes()[l].cover + tree.nodes()[r].cover);
            }
        }
    }

    #[test]
    fn decision_path_is_connected_and_ends_at_leaf() {
        let data = circles(300, 10, 0.2);
        let tree = DecisionTree::fit(data.x(), data.y(), TreeConfig::default());
        let path = tree.decision_path(data.row(5));
        assert_eq!(path[0], 0);
        assert!(tree.nodes()[*path.last().unwrap()].is_leaf());
        for w in path.windows(2) {
            let parent = &tree.nodes()[w[0]];
            assert!(parent.left == Some(w[1]) || parent.right == Some(w[1]));
        }
        assert_eq!(*path.last().unwrap(), tree.leaf_of(data.row(5)));
    }

    #[test]
    fn constant_targets_give_single_leaf() {
        let x = Matrix::from_fn(20, 3, |i, j| (i + j) as f64);
        let y = vec![1.0; 20];
        let tree = DecisionTree::fit(&x, &y, TreeConfig::default());
        assert_eq!(tree.n_leaves(), 1);
        assert_eq!(tree.predict_value(&[0.0, 0.0, 0.0]), 1.0);
    }

    #[test]
    fn random_feature_mode_needs_rng() {
        use xai_rand::SeedableRng;
        let data = circles(200, 11, 0.2);
        let mut rng = StdRng::seed_from_u64(1);
        let tree = DecisionTree::fit_with(
            data.x(),
            data.y(),
            TreeConfig { max_features: Some(1), ..TreeConfig::default() },
            Some(&mut rng),
        );
        assert!(tree.n_leaves() >= 2);
    }
}
