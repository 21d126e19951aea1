//! The partition a lattice node induces, as the lattice searches and
//! property kernels consume it.
//!
//! [`NodePartition`] reduces a node's equivalence classes to class sizes
//! plus one representative row per class (for incremental coarsening), in
//! first-appearance order. It is produced by
//! [`ChunkedCodec`](crate::chunked::ChunkedCodec) — the dictionary-encoded
//! substrate every search evaluates nodes on — and caches the per-row
//! class ids on first request.

use std::sync::OnceLock;

use crate::chunked::ChunkedCodec;
use crate::error::Result;
use crate::lattice::LevelVector;

/// Bit-shift layout for packing one row's per-column codes into a `u64`,
/// if the per-column code widths fit: `shifts[i]` is the bit offset of
/// column `i`. Widths derive from the **global** dictionary sizes, so the
/// layout — and therefore every packed key — is independent of how rows
/// are chunked.
pub(crate) fn packing_shifts(dict_sizes: &[u32]) -> Option<Vec<u32>> {
    let mut shifts = Vec::with_capacity(dict_sizes.len());
    let mut used = 0u32;
    for &size in dict_sizes {
        let bits = u32::BITS - size.max(1).saturating_sub(1).leading_zeros();
        let bits = bits.max(1);
        if used + bits > 64 {
            return None;
        }
        shifts.push(used);
        used += bits;
    }
    Some(shifts)
}

/// The partition a lattice node induces, reduced to what frequency-set
/// constraint checks need: class sizes plus one representative row per
/// class (for incremental re-keying).
#[derive(Debug, Clone)]
pub struct NodePartition {
    levels: LevelVector,
    sizes: Vec<u32>,
    reps: Vec<u32>,
    /// Per-row class ids, materialized on first request and shared by
    /// every property extractor that asks (cloning a partition clones the
    /// cached assignment along with it).
    assignments: OnceLock<Vec<u32>>,
}

impl NodePartition {
    /// Assembles a partition from the codec's grouping pass. Callers must
    /// supply sizes and representatives in first-appearance order.
    pub(crate) fn from_parts(levels: LevelVector, sizes: Vec<u32>, reps: Vec<u32>) -> Self {
        NodePartition {
            levels,
            sizes,
            reps,
            assignments: OnceLock::new(),
        }
    }

    /// The level vector this partition belongs to.
    pub fn levels(&self) -> &[usize] {
        &self.levels
    }

    /// Number of equivalence classes.
    pub fn class_count(&self) -> usize {
        self.sizes.len()
    }

    /// Class sizes, in first-appearance order.
    pub fn sizes(&self) -> &[u32] {
        &self.sizes
    }

    /// One representative row per class, aligned with
    /// [`NodePartition::sizes`].
    pub fn representatives(&self) -> &[u32] {
        &self.reps
    }

    /// The size of the smallest class, or 0 when empty.
    pub fn min_class_size(&self) -> usize {
        self.sizes.iter().copied().min().unwrap_or(0) as usize
    }

    /// The class id of every row under this partition's levels (first-
    /// appearance numbering, aligned with [`NodePartition::sizes`]),
    /// computed from `codec` on first use and cached. `codec` must be the
    /// codec this partition was derived from. The per-row ids are the one
    /// deliberate O(rows) state of the chunked path.
    ///
    /// # Errors
    /// As [`ChunkedCodec::validate`] when the partition's levels do not fit
    /// `codec`; propagates spill-file I/O errors.
    pub fn class_ids(&self, codec: &ChunkedCodec) -> Result<&[u32]> {
        if let Some(ids) = self.assignments.get() {
            return Ok(ids);
        }
        let ids = codec.class_ids(&self.levels)?;
        Ok(self.assignments.get_or_init(|| ids))
    }

    /// Number of tuples in classes smaller than `k` — the tuples a
    /// k-anonymity constraint would have to suppress. This is Incognito's
    /// frequency-set check, computed on class sizes alone.
    pub fn tuples_below(&self, k: usize) -> usize {
        self.sizes
            .iter()
            .filter(|&&s| (s as usize) < k)
            .map(|&s| s as usize)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use crate::dataset::Dataset;
    use crate::intervals::IntervalLadder;
    use crate::schema::{Attribute, Role, Schema};
    use crate::taxonomy::Taxonomy;
    use crate::value::Value;

    fn dataset() -> Arc<Dataset> {
        let schema = Schema::new(vec![
            Attribute::from_taxonomy(
                "city",
                Role::QuasiIdentifier,
                Taxonomy::flat(["a", "b", "c"]).unwrap(),
            ),
            Attribute::integer("age", Role::QuasiIdentifier, 0, 100)
                .with_hierarchy(IntervalLadder::uniform(0, &[10, 20]).unwrap().into())
                .unwrap(),
            Attribute::categorical("d", Role::Sensitive, ["s1", "s2"]),
        ])
        .unwrap();
        Dataset::new(
            schema,
            vec![
                vec![Value::Cat(0), Value::Int(15), Value::Cat(0)],
                vec![Value::Cat(1), Value::Int(25), Value::Cat(1)],
                vec![Value::Cat(0), Value::Int(18), Value::Cat(1)],
                vec![Value::Cat(2), Value::Int(33), Value::Cat(0)],
                vec![Value::Cat(0), Value::Int(15), Value::Cat(1)],
            ],
        )
        .unwrap()
    }

    #[test]
    fn packing_shifts_fit_or_refuse() {
        // Widths: 1 bit (size 2), 3 bits (size 5), 1 bit (size 1 or 0).
        assert_eq!(packing_shifts(&[2, 5, 1, 0]), Some(vec![0, 1, 4, 5]));
        assert_eq!(packing_shifts(&[u32::MAX, u32::MAX]), Some(vec![0, 32]));
        assert_eq!(packing_shifts(&[u32::MAX, u32::MAX, 2]), None);
    }

    #[test]
    fn empty_dataset() {
        let ds = Dataset::new(dataset().schema().clone(), vec![]).unwrap();
        let codec = ChunkedCodec::resident(&ds).unwrap();
        let part = codec.partition(&[0, 0]).unwrap();
        assert_eq!(part.class_count(), 0);
        assert_eq!(part.min_class_size(), 0);
        assert_eq!(part.tuples_below(5), 0);
        assert!(part.class_ids(&codec).unwrap().is_empty());
    }

    #[test]
    fn tuples_below_counts_violators() {
        let codec = ChunkedCodec::resident(&dataset()).unwrap();
        // Raw node: rows 0 and 4 share (city a, age 15); others singletons.
        let part = codec.partition(&[0, 0]).unwrap();
        assert_eq!(part.class_count(), 4);
        assert_eq!(part.tuples_below(2), 3, "three singletons");
        assert_eq!(part.tuples_below(3), 5, "every tuple sits below 3");
        assert_eq!(part.tuples_below(1), 0);
    }

    #[test]
    fn class_ids_are_cached_and_validated() {
        let ds = dataset();
        let codec = ChunkedCodec::resident(&ds).unwrap();
        let part = codec.partition(&[0, 0]).unwrap();
        let ids = part.class_ids(&codec).unwrap();
        assert_eq!(ids, &[0, 1, 2, 3, 0]);
        // The cached assignment is served without touching the codec, and
        // clones carry it along.
        assert!(std::ptr::eq(ids, part.class_ids(&codec).unwrap()));
        assert_eq!(part.clone().class_ids(&codec).unwrap(), ids);
        // A partition whose levels do not fit the codec is rejected.
        let other = ChunkedCodec::resident(
            &Dataset::new(
                Schema::new(vec![Attribute::from_taxonomy(
                    "city",
                    Role::QuasiIdentifier,
                    Taxonomy::flat(["a"]).unwrap(),
                )])
                .unwrap(),
                vec![vec![Value::Cat(0)]],
            )
            .unwrap(),
        )
        .unwrap();
        assert!(codec.partition(&[0, 0]).unwrap().class_ids(&other).is_err());
    }
}
