//! Samarati's k-minimal generalization search (cited as \[15\] in the
//! paper).
//!
//! Exploits the monotonicity of k-anonymity along generalization chains:
//! if any node at lattice height `h` satisfies the constraint (with
//! suppression within budget), then some node at every height above `h`
//! does too. A binary search over heights finds the minimal satisfying
//! height `h*`; the *k-minimal generalizations* are the satisfying nodes at
//! `h*`, and "an optimal generalization can be chosen based on certain
//! preference information" — here, minimal total loss under a configurable
//! metric.

use std::sync::Arc;

use anoncmp_microdata::loss::LossMetric;
use anoncmp_microdata::prelude::{AnonymizedTable, ChunkedCodec, Dataset, Lattice, LevelVector};

use crate::algorithms::{validate_common, Anonymizer};
use crate::constraint::Constraint;
use crate::error::{AnonymizeError, Result};

/// Samarati's binary search over lattice heights.
#[derive(Debug, Clone)]
pub struct Samarati {
    /// Preference metric used to choose among the k-minimal nodes.
    pub preference: LossMetric,
}

impl Default for Samarati {
    fn default() -> Self {
        Samarati {
            preference: LossMetric::classic(),
        }
    }
}

/// The outcome of the search: the chosen release plus the full k-minimal
/// frontier it was chosen from.
#[derive(Debug)]
pub struct SamaratiOutcome {
    /// The minimal satisfying height.
    pub height: usize,
    /// All satisfying level vectors at that height.
    pub k_minimal: Vec<LevelVector>,
    /// The chosen (loss-minimal) release, already suppressed/enforced.
    pub table: AnonymizedTable,
    /// The chosen level vector.
    pub levels: LevelVector,
}

impl Samarati {
    /// Finds a satisfying node at `height`, returning every satisfying
    /// level vector (paired with its enforced table). Tables are decoded
    /// through the codec — byte-identical to [`Lattice::apply`].
    fn satisfying_at_height(
        lattice: &Lattice,
        codec: &ChunkedCodec,
        dataset: &Arc<Dataset>,
        constraint: &Constraint,
        height: usize,
    ) -> Result<Vec<(LevelVector, AnonymizedTable)>> {
        let mut out = Vec::new();
        for levels in lattice.nodes_at_height(height) {
            let table = lattice.apply_encoded(codec, dataset, &levels, "samarati")?;
            if let Some(enforced) = constraint.enforce(&table) {
                out.push((levels, enforced));
            }
        }
        Ok(out)
    }

    /// Whether any node at `height` satisfies the constraint. For pure
    /// frequency-set constraints this decides each node from its encoded
    /// class sizes alone — no table is materialized during the binary
    /// search, only for the final frontier.
    fn any_satisfying_at_height(
        lattice: &Lattice,
        codec: &ChunkedCodec,
        dataset: &Arc<Dataset>,
        constraint: &Constraint,
        height: usize,
    ) -> Result<bool> {
        if constraint.is_frequency_only() {
            for levels in lattice.nodes_at_height(height) {
                if constraint.feasible_partition(&lattice.evaluate_node(codec, &levels)?) {
                    return Ok(true);
                }
            }
            return Ok(false);
        }
        Ok(!Self::satisfying_at_height(lattice, codec, dataset, constraint, height)?.is_empty())
    }

    /// Runs the full search, exposing the k-minimal frontier.
    pub fn run(&self, dataset: &Arc<Dataset>, constraint: &Constraint) -> Result<SamaratiOutcome> {
        validate_common(dataset, constraint)?;
        let lattice = Lattice::new(dataset.schema().clone())?;
        let codec = ChunkedCodec::resident(dataset)?;

        // The top must satisfy, or nothing does (monotone constraint).
        if !Self::any_satisfying_at_height(
            &lattice,
            &codec,
            dataset,
            constraint,
            lattice.max_height(),
        )? {
            return Err(AnonymizeError::Unsatisfiable(format!(
                "even the fully generalized release violates {}",
                constraint.describe()
            )));
        }

        // Binary search for the minimal satisfying height.
        let (mut lo, mut hi) = (0usize, lattice.max_height());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if Self::any_satisfying_at_height(&lattice, &codec, dataset, constraint, mid)? {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        let height = lo;
        let frontier = Self::satisfying_at_height(&lattice, &codec, dataset, constraint, height)?;
        debug_assert!(!frontier.is_empty());

        // Preference: minimal total loss.
        let (best_idx, _) = frontier
            .iter()
            .enumerate()
            .map(|(i, (_, t))| (i, self.preference.total_loss(t)))
            .min_by(|a, b| a.1.partial_cmp(&b.1).expect("losses are not NaN"))
            .expect("frontier is non-empty");
        let k_minimal: Vec<LevelVector> = frontier.iter().map(|(l, _)| l.clone()).collect();
        let (levels, table) = frontier.into_iter().nth(best_idx).expect("index valid");
        let table = table.renamed("samarati");
        Ok(SamaratiOutcome {
            height,
            k_minimal,
            table,
            levels,
        })
    }
}

impl Anonymizer for Samarati {
    fn name(&self) -> String {
        "samarati".into()
    }

    fn anonymize(
        &self,
        dataset: &Arc<Dataset>,
        constraint: &Constraint,
    ) -> Result<AnonymizedTable> {
        self.run(dataset, constraint).map(|o| o.table)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::algorithms::test_support::small_census;

    #[test]
    fn finds_minimal_height() {
        let ds = small_census();
        let c = Constraint::k_anonymity(3).with_suppression(6);
        let outcome = Samarati::default().run(&ds, &c).unwrap();
        assert!(c.satisfied(&outcome.table));
        // No node strictly below the reported height satisfies.
        let lattice = Lattice::new(ds.schema().clone()).unwrap();
        if outcome.height > 0 {
            for levels in lattice.nodes_at_height(outcome.height - 1) {
                let t = lattice.apply(&ds, &levels, "x").unwrap();
                assert!(c.enforce(&t).is_none(), "height is not minimal");
            }
        }
        assert!(outcome.k_minimal.contains(&outcome.levels));
    }

    #[test]
    fn chosen_node_minimizes_preference_loss() {
        let ds = small_census();
        let c = Constraint::k_anonymity(4).with_suppression(6);
        let s = Samarati::default();
        let outcome = s.run(&ds, &c).unwrap();
        let lattice = Lattice::new(ds.schema().clone()).unwrap();
        let chosen_loss = s.preference.total_loss(&outcome.table);
        for levels in &outcome.k_minimal {
            let t = lattice.apply(&ds, levels, "x").unwrap();
            let t = c.enforce(&t).expect("frontier nodes satisfy");
            assert!(
                chosen_loss <= s.preference.total_loss(&t) + 1e-9,
                "a frontier node has lower loss than the chosen one"
            );
        }
    }

    #[test]
    fn heights_shrink_with_larger_budget() {
        let ds = small_census();
        let tight = Samarati::default()
            .run(&ds, &Constraint::k_anonymity(5))
            .unwrap();
        let loose = Samarati::default()
            .run(
                &ds,
                &Constraint::k_anonymity(5).with_suppression(ds.len() / 5),
            )
            .unwrap();
        assert!(loose.height <= tight.height);
    }

    #[test]
    fn unsatisfiable_reported() {
        let ds = small_census();
        let c = Constraint::k_anonymity(ds.len() + 1);
        assert!(matches!(
            Samarati::default().anonymize(&ds, &c),
            Err(AnonymizeError::Unsatisfiable(_))
        ));
    }

    #[test]
    fn k_equals_one_is_the_bottom() {
        let ds = small_census();
        let outcome = Samarati::default()
            .run(&ds, &Constraint::k_anonymity(1))
            .unwrap();
        assert_eq!(outcome.height, 0, "raw release is 1-anonymous");
    }
}
