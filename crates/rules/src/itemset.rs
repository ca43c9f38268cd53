//! Transactions, items and dataset discretization for rule mining (§2.2.1).
//!
//! Rule-based explainers work over *items* — boolean predicates of the form
//! "feature j falls in bin b" or "feature j = category c". This module
//! turns a tabular [`Dataset`] into transactions over a stable item
//! vocabulary, and maps items back to readable [`Condition`]s.

use xai_core::{Condition, Op};
use xai_data::{Dataset, FeatureKind};
use xai_linalg::stats::quantile;

/// An item id into an [`ItemVocabulary`].
pub type Item = usize;

/// The predicate behind one item.
#[derive(Clone, Debug, PartialEq)]
pub enum ItemPredicate {
    /// Numeric feature falls in `(lo, hi]` (quartile bin; half-open on the
    /// left so it renders exactly as `feature > lo AND feature <= hi`).
    NumericBin {
        /// Feature column.
        feature: usize,
        /// Bin index (0-based).
        bin: usize,
        /// Exclusive lower edge (−∞ for the first bin).
        lo: f64,
        /// Inclusive upper edge (+∞ for the last bin).
        hi: f64,
    },
    /// Categorical feature equals a category code.
    Category {
        /// Feature column.
        feature: usize,
        /// Category code.
        code: usize,
    },
}

impl ItemPredicate {
    /// Feature column this item constrains.
    pub fn feature(&self) -> usize {
        match self {
            ItemPredicate::NumericBin { feature, .. } => *feature,
            ItemPredicate::Category { feature, .. } => *feature,
        }
    }

    /// Whether a raw row satisfies the predicate.
    pub fn matches(&self, row: &[f64]) -> bool {
        self.matches_value(row[self.feature()])
    }

    /// Whether a value of [`ItemPredicate::feature`] satisfies the
    /// predicate — the comparison [`ItemPredicate::matches`] makes on
    /// `row[feature]`.
    pub fn matches_value(&self, v: f64) -> bool {
        match self {
            ItemPredicate::NumericBin { lo, hi, .. } => v > *lo && v <= *hi,
            ItemPredicate::Category { code, .. } => v.round() as usize == *code,
        }
    }
}

/// A stable mapping between items and predicates for one dataset.
#[derive(Clone, Debug)]
pub struct ItemVocabulary {
    predicates: Vec<ItemPredicate>,
    feature_names: Vec<String>,
}

impl ItemVocabulary {
    /// Builds the vocabulary: quartile bins for numeric features (4 items
    /// each), one item per category for categorical features.
    pub fn build(data: &Dataset) -> Self {
        let mut predicates = Vec::new();
        for (j, feature) in data.schema().features().iter().enumerate() {
            match &feature.kind {
                FeatureKind::Numeric { .. } => {
                    let col = data.x().col(j);
                    let q1 = quantile(&col, 0.25);
                    let q2 = quantile(&col, 0.5);
                    let q3 = quantile(&col, 0.75);
                    let edges = [f64::NEG_INFINITY, q1, q2, q3, f64::INFINITY];
                    for b in 0..4 {
                        // Skip degenerate bins from ties in the quantiles.
                        if edges[b] < edges[b + 1] {
                            predicates.push(ItemPredicate::NumericBin {
                                feature: j,
                                bin: b,
                                lo: edges[b],
                                hi: edges[b + 1],
                            });
                        }
                    }
                }
                FeatureKind::Categorical { categories } => {
                    for code in 0..categories.len() {
                        predicates.push(ItemPredicate::Category { feature: j, code });
                    }
                }
            }
        }
        Self {
            predicates,
            feature_names: data.schema().names().iter().map(|s| s.to_string()).collect(),
        }
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        self.predicates.len()
    }

    /// True when there are no items.
    pub fn is_empty(&self) -> bool {
        self.predicates.is_empty()
    }

    /// The predicate behind an item.
    pub fn predicate(&self, item: Item) -> &ItemPredicate {
        &self.predicates[item]
    }

    /// Converts one raw row into its (sorted) transaction.
    pub fn transaction(&self, row: &[f64]) -> Vec<Item> {
        self.predicates
            .iter()
            .enumerate()
            .filter(|(_, p)| p.matches(row))
            .map(|(i, _)| i)
            .collect()
    }

    /// Converts the whole dataset into transactions.
    pub fn transactions(&self, data: &Dataset) -> Vec<Vec<Item>> {
        (0..data.n_rows()).map(|i| self.transaction(data.row(i))).collect()
    }

    /// Renders an item as displayable [`Condition`]s (numeric bins need up
    /// to two clauses; categories need one).
    pub fn conditions(&self, item: Item) -> Vec<Condition> {
        let name = |f: usize| self.feature_names[f].clone();
        match self.predicate(item) {
            ItemPredicate::NumericBin { feature, lo, hi, .. } => {
                let mut cs = Vec::new();
                if lo.is_finite() {
                    cs.push(Condition {
                        feature: *feature,
                        feature_name: name(*feature),
                        op: Op::Gt,
                        value: *lo,
                    });
                }
                if hi.is_finite() {
                    cs.push(Condition {
                        feature: *feature,
                        feature_name: name(*feature),
                        op: Op::Le,
                        value: *hi,
                    });
                }
                cs
            }
            ItemPredicate::Category { feature, code } => vec![Condition {
                feature: *feature,
                feature_name: name(*feature),
                op: Op::Eq,
                value: *code as f64,
            }],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xai_data::synth::german_credit;

    #[test]
    fn every_row_gets_one_item_per_feature() {
        let data = german_credit(300, 5);
        let vocab = ItemVocabulary::build(&data);
        for i in 0..data.n_rows() {
            let t = vocab.transaction(data.row(i));
            assert_eq!(
                t.len(),
                data.n_features(),
                "each feature contributes exactly one item"
            );
            // Items must cover distinct features.
            let feats: std::collections::HashSet<usize> =
                t.iter().map(|&it| vocab.predicate(it).feature()).collect();
            assert_eq!(feats.len(), data.n_features());
        }
    }

    #[test]
    fn numeric_bins_partition_the_line() {
        let data = german_credit(500, 6);
        let vocab = ItemVocabulary::build(&data);
        // For feature 0 (age): bins must tile (-inf, inf) without overlap.
        let bins: Vec<&ItemPredicate> = (0..vocab.len())
            .map(|i| vocab.predicate(i))
            .filter(|p| p.feature() == 0)
            .collect();
        for probe in [-1e9, 18.0, 35.0, 50.0, 1e9] {
            let row = {
                let mut r = data.row(0).to_vec();
                r[0] = probe;
                r
            };
            let hits = bins.iter().filter(|p| p.matches(&row)).count();
            assert_eq!(hits, 1, "value {probe} must land in exactly one bin");
        }
    }

    #[test]
    fn conditions_render_readably() {
        let data = german_credit(200, 7);
        let vocab = ItemVocabulary::build(&data);
        let t = vocab.transaction(data.row(0));
        for &item in &t {
            let cs = vocab.conditions(item);
            assert!(!cs.is_empty());
            for c in &cs {
                assert!(c.matches(data.row(0)), "rendered condition must hold on the source row: {c}");
            }
        }
    }
}
