//! Anonymized tables and equivalence classes.
//!
//! Every disclosure control algorithm in this workspace — whether it does
//! full-domain recoding, multidimensional partitioning, or tuple
//! suppression — emits the same [`AnonymizedTable`] representation: one
//! generalized record per original tuple, in original tuple order.
//! Suppressed tuples remain present with fully suppressed quasi-identifier
//! cells, following the paper's §3 convention ("we assume that they still
//! exist in the anonymized data set in an overly generalized form"), so the
//! original and anonymized tables always have the same size `N`.

use std::collections::HashMap;
use std::sync::Arc;

use crate::dataset::Dataset;
use crate::error::{Error, Result};
use crate::value::GenValue;

/// The equivalence-class structure induced by an anonymization: tuples are
/// equivalent when their generalized quasi-identifier signatures coincide.
#[derive(Debug, Clone)]
pub struct EquivalenceClasses {
    /// `class_of[tuple]` is the class index of that tuple.
    class_of: Vec<u32>,
    /// `members[class]` lists the tuple ids of that class, ascending.
    members: Vec<Vec<u32>>,
}

impl EquivalenceClasses {
    /// Groups `records` by their projection onto `qi_cols`, using a hash
    /// map over signatures. O(N · |QI|).
    pub fn group_by_hash(records: &[Vec<GenValue>], qi_cols: &[usize]) -> Self {
        let mut index: HashMap<Vec<GenValue>, u32> = HashMap::new();
        let mut class_of = Vec::with_capacity(records.len());
        let mut members: Vec<Vec<u32>> = Vec::new();
        for (tuple, rec) in records.iter().enumerate() {
            let sig: Vec<GenValue> = qi_cols.iter().map(|&c| rec[c]).collect();
            let next = members.len() as u32;
            let class = *index.entry(sig).or_insert(next);
            if class == next {
                members.push(Vec::new());
            }
            class_of.push(class);
            members[class as usize].push(tuple as u32);
        }
        EquivalenceClasses { class_of, members }
    }

    /// Groups `records` by sorting tuple indices on their signatures.
    /// O(N log N · |QI|); kept as the ablation baseline for
    /// [`group_by_hash`](Self::group_by_hash) (see `bench grouping`).
    ///
    /// Class numbering differs from the hash variant (sorted signature
    /// order vs. first-appearance order) but the induced partition is
    /// identical.
    pub fn group_by_sort(records: &[Vec<GenValue>], qi_cols: &[usize]) -> Self {
        let mut order: Vec<u32> = (0..records.len() as u32).collect();
        let sig =
            |t: u32| -> Vec<GenValue> { qi_cols.iter().map(|&c| records[t as usize][c]).collect() };
        order.sort_by_key(|&a| sig(a));
        let mut class_of = vec![0u32; records.len()];
        let mut members: Vec<Vec<u32>> = Vec::new();
        let mut prev: Option<Vec<GenValue>> = None;
        for &t in &order {
            let s = sig(t);
            if prev.as_ref() != Some(&s) {
                members.push(Vec::new());
                prev = Some(s);
            }
            let class = (members.len() - 1) as u32;
            class_of[t as usize] = class;
            members[class as usize].push(t);
        }
        for m in &mut members {
            m.sort_unstable();
        }
        EquivalenceClasses { class_of, members }
    }

    /// Number of equivalence classes.
    pub fn class_count(&self) -> usize {
        self.members.len()
    }

    /// The class index of `tuple`.
    pub fn class_of(&self, tuple: usize) -> usize {
        self.class_of[tuple] as usize
    }

    /// Tuple ids belonging to class `class`, ascending.
    pub fn members(&self, class: usize) -> &[u32] {
        &self.members[class]
    }

    /// Size of the class containing `tuple`.
    pub fn class_size_of(&self, tuple: usize) -> usize {
        self.members[self.class_of[tuple] as usize].len()
    }

    /// Iterates `(class_index, members)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &[u32])> {
        self.members
            .iter()
            .enumerate()
            .map(|(i, m)| (i, m.as_slice()))
    }

    /// The size of the smallest class, or 0 for an empty table. This is the
    /// classical scalar `k` of k-anonymity.
    pub fn min_class_size(&self) -> usize {
        self.members.iter().map(Vec::len).min().unwrap_or(0)
    }

    /// Whether the partitions of two groupings coincide (class numbering
    /// may differ).
    ///
    /// Early-exits on tuple count and on [`class_count`](Self::class_count)
    /// before examining any assignments, so the common "differently sized
    /// partitions" case allocates nothing.
    pub fn same_partition(&self, other: &EquivalenceClasses) -> bool {
        if self.class_of.len() != other.class_of.len() || self.class_count() != other.class_count()
        {
            return false;
        }
        // Equal class counts: the partitions coincide iff mapping our
        // class ids to theirs is a consistent function (equal counts make
        // a consistent function automatically a bijection). Class ids are
        // dense 0..m, so a Vec replaces the old per-call HashMap.
        const UNSET: u32 = u32::MAX;
        let mut mapping: Vec<u32> = vec![UNSET; self.class_count()];
        for t in 0..self.class_of.len() {
            let a = self.class_of[t] as usize;
            let b = other.class_of[t];
            if mapping[a] == UNSET {
                mapping[a] = b;
            } else if mapping[a] != b {
                return false;
            }
        }
        true
    }
}

/// An anonymized release of a dataset: generalized records in original
/// tuple order plus the induced equivalence classes.
///
/// Record suppression is tracked as an explicit per-tuple flag rather than
/// inferred from the cells: a *suppressed* tuple and a tuple of a fully
/// generalized release render identically (all quasi-identifier cells
/// `*`), but only the former counts against an algorithm's suppression
/// budget.
#[derive(Debug, Clone)]
pub struct AnonymizedTable {
    dataset: Arc<Dataset>,
    records: Vec<Vec<GenValue>>,
    classes: EquivalenceClasses,
    suppressed: Vec<bool>,
    name: String,
}

impl AnonymizedTable {
    /// Wraps generalized `records` (one per dataset tuple, full schema
    /// arity) and induces equivalence classes over the quasi-identifier
    /// columns. No tuple is marked suppressed; use
    /// [`AnonymizedTable::with_suppressed`] for releases that suppress
    /// records.
    ///
    /// # Errors
    /// [`Error::InvalidDataset`] if the record count differs from the
    /// dataset size; [`Error::ArityMismatch`] if a record's arity differs
    /// from the schema.
    pub fn new(
        dataset: Arc<Dataset>,
        records: Vec<Vec<GenValue>>,
        name: impl Into<String>,
    ) -> Result<Self> {
        let n = dataset.len();
        Self::with_suppressed(dataset, records, vec![false; n], name)
    }

    /// Like [`AnonymizedTable::new`], with an explicit suppression mask.
    /// Suppressed tuples must carry fully suppressed quasi-identifier
    /// cells (the paper's §3 "overly generalized form" convention).
    ///
    /// # Errors
    /// As [`AnonymizedTable::new`]; additionally
    /// [`Error::InvalidDataset`] when the mask length differs from the
    /// record count or a masked tuple has an unsuppressed QI cell.
    pub fn with_suppressed(
        dataset: Arc<Dataset>,
        records: Vec<Vec<GenValue>>,
        suppressed: Vec<bool>,
        name: impl Into<String>,
    ) -> Result<Self> {
        if records.len() != dataset.len() {
            return Err(Error::InvalidDataset(format!(
                "anonymization has {} records but the dataset has {} tuples",
                records.len(),
                dataset.len()
            )));
        }
        if suppressed.len() != records.len() {
            return Err(Error::InvalidDataset(format!(
                "suppression mask covers {} tuples but there are {} records",
                suppressed.len(),
                records.len()
            )));
        }
        let arity = dataset.schema().len();
        for r in &records {
            if r.len() != arity {
                return Err(Error::ArityMismatch {
                    expected: arity,
                    actual: r.len(),
                });
            }
        }
        for (t, &sup) in suppressed.iter().enumerate() {
            if sup
                && !dataset
                    .schema()
                    .quasi_identifiers()
                    .iter()
                    .all(|&c| records[t][c].is_suppressed())
            {
                return Err(Error::InvalidDataset(format!(
                    "tuple {t} is marked suppressed but has unsuppressed QI cells"
                )));
            }
        }
        let classes =
            EquivalenceClasses::group_by_hash(&records, dataset.schema().quasi_identifiers());
        Ok(AnonymizedTable {
            dataset,
            records,
            classes,
            suppressed,
            name: name.into(),
        })
    }

    /// The original dataset this table anonymizes.
    pub fn dataset(&self) -> &Arc<Dataset> {
        &self.dataset
    }

    /// Number of tuples `N` (same as the original dataset).
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the table has no tuples.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Display label for this anonymization (e.g. `"T3a"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The generalized record of `tuple`.
    pub fn record(&self, tuple: usize) -> &[GenValue] {
        &self.records[tuple]
    }

    /// All generalized records, in tuple order.
    pub fn records(&self) -> &[Vec<GenValue>] {
        &self.records
    }

    /// The generalized cell at (`tuple`, `col`).
    pub fn cell(&self, tuple: usize, col: usize) -> &GenValue {
        &self.records[tuple][col]
    }

    /// The induced equivalence classes.
    pub fn classes(&self) -> &EquivalenceClasses {
        &self.classes
    }

    /// Whether `tuple` was record-suppressed by the producing algorithm.
    ///
    /// Note that a tuple of a *fully generalized* release renders the same
    /// way (all QI cells `*`) but is **not** suppressed — see the type
    /// documentation.
    pub fn is_tuple_suppressed(&self, tuple: usize) -> bool {
        self.suppressed[tuple]
    }

    /// The suppression mask, one flag per tuple.
    pub fn suppression_mask(&self) -> &[bool] {
        &self.suppressed
    }

    /// Number of suppressed tuples.
    pub fn suppressed_count(&self) -> usize {
        self.suppressed.iter().filter(|&&s| s).count()
    }

    /// Renders the cell at (`tuple`, `col`) with attribute context:
    /// taxonomy nodes render their labels, categorical leaves their
    /// category labels, intervals as `(lo,hi]`, suppression as `*`.
    pub fn render_cell(&self, tuple: usize, col: usize) -> String {
        let attr = self.dataset.schema().attribute(col);
        match &self.records[tuple][col] {
            GenValue::Int(v) => v.to_string(),
            GenValue::Interval { lo, hi } => format!("({lo},{hi}]"),
            GenValue::Cat(c) => attr
                .category_label(*c)
                .map(str::to_owned)
                .unwrap_or_else(|| format!("<cat {c}>")),
            GenValue::Node(n) => attr
                .hierarchy()
                .and_then(|h| h.as_taxonomy())
                .map(|t| t.label(*n).to_owned())
                .unwrap_or_else(|| format!("<node {n}>")),
            GenValue::Suppressed => "*".to_owned(),
        }
    }

    /// The trivially "anonymized" table that releases every value raw.
    /// Useful as the utility-maximal reference anonymization.
    pub fn identity(dataset: Arc<Dataset>, name: impl Into<String>) -> Self {
        let records = dataset
            .rows()
            .iter()
            .map(|row| row.iter().map(|v| GenValue::raw(*v)).collect())
            .collect();
        AnonymizedTable::new(dataset, records, name).expect("identity records are well-formed")
    }

    /// The fully suppressed table (every QI cell `*`, every tuple marked
    /// suppressed): the privacy-maximal, utility-minimal reference
    /// anonymization.
    pub fn fully_suppressed(dataset: Arc<Dataset>, name: impl Into<String>) -> Self {
        let qi: Vec<usize> = dataset.schema().quasi_identifiers().to_vec();
        let records = dataset
            .rows()
            .iter()
            .map(|row| {
                row.iter()
                    .enumerate()
                    .map(|(c, v)| {
                        if qi.contains(&c) {
                            GenValue::Suppressed
                        } else {
                            GenValue::raw(*v)
                        }
                    })
                    .collect()
            })
            .collect();
        let n = dataset.len();
        AnonymizedTable::with_suppressed(dataset, records, vec![true; n], name)
            .expect("suppressed records are well-formed")
    }

    /// This table under a new display name (mask and records preserved).
    pub fn renamed(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// A copy of this table with the given tuples additionally suppressed:
    /// their quasi-identifier cells are replaced by `*` and their mask
    /// flags set.
    pub fn suppress_tuples(&self, tuples: impl IntoIterator<Item = usize>) -> Self {
        let qi: Vec<usize> = self.dataset.schema().quasi_identifiers().to_vec();
        let mut records = self.records.clone();
        let mut suppressed = self.suppressed.clone();
        for t in tuples {
            for &c in &qi {
                records[t][c] = GenValue::Suppressed;
            }
            suppressed[t] = true;
        }
        AnonymizedTable::with_suppressed(
            self.dataset.clone(),
            records,
            suppressed,
            self.name.clone(),
        )
        .expect("suppression preserves record shape")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Attribute, Role, Schema};
    use crate::value::Value;

    fn tiny() -> Arc<Dataset> {
        let schema = Schema::new(vec![
            Attribute::integer("age", Role::QuasiIdentifier, 0, 100),
            Attribute::categorical("d", Role::Sensitive, ["x", "y"]),
        ])
        .unwrap();
        Dataset::new(
            schema,
            vec![
                vec![Value::Int(10), Value::Cat(0)],
                vec![Value::Int(20), Value::Cat(1)],
                vec![Value::Int(12), Value::Cat(0)],
                vec![Value::Int(20), Value::Cat(0)],
            ],
        )
        .unwrap()
    }

    fn table(records: Vec<Vec<GenValue>>) -> AnonymizedTable {
        AnonymizedTable::new(tiny(), records, "t").unwrap()
    }

    #[test]
    fn grouping_by_interval_signature() {
        let iv = |lo, hi| GenValue::Interval { lo, hi };
        let t = table(vec![
            vec![iv(0, 15), GenValue::Cat(0)],
            vec![iv(15, 30), GenValue::Cat(1)],
            vec![iv(0, 15), GenValue::Cat(0)],
            vec![iv(15, 30), GenValue::Cat(0)],
        ]);
        let c = t.classes();
        assert_eq!(c.class_count(), 2);
        assert_eq!(c.class_of(0), c.class_of(2));
        assert_eq!(c.class_of(1), c.class_of(3));
        assert_ne!(c.class_of(0), c.class_of(1));
        assert_eq!(c.class_size_of(0), 2);
        assert_eq!(c.min_class_size(), 2);
        assert_eq!(c.members(c.class_of(1)), &[1, 3]);
    }

    #[test]
    fn sensitive_column_does_not_split_classes() {
        // Both tuples share the QI signature; differing sensitive values
        // must not separate them.
        let t = table(vec![
            vec![GenValue::Suppressed, GenValue::Cat(0)],
            vec![GenValue::Suppressed, GenValue::Cat(1)],
            vec![GenValue::Suppressed, GenValue::Cat(0)],
            vec![GenValue::Suppressed, GenValue::Cat(1)],
        ]);
        assert_eq!(t.classes().class_count(), 1);
        assert_eq!(t.classes().class_size_of(0), 4);
    }

    #[test]
    fn hash_and_sort_groupings_agree() {
        let iv = |lo, hi| GenValue::Interval { lo, hi };
        let records = vec![
            vec![iv(0, 15), GenValue::Cat(0)],
            vec![iv(15, 30), GenValue::Cat(1)],
            vec![iv(0, 15), GenValue::Cat(0)],
            vec![GenValue::Suppressed, GenValue::Cat(0)],
        ];
        let h = EquivalenceClasses::group_by_hash(&records, &[0]);
        let s = EquivalenceClasses::group_by_sort(&records, &[0]);
        assert!(h.same_partition(&s));
        assert_eq!(h.class_count(), 3);
    }

    /// Groups one integer column, one tuple per code.
    fn grouped(codes: &[i64]) -> EquivalenceClasses {
        let records: Vec<Vec<GenValue>> = codes.iter().map(|&c| vec![GenValue::Int(c)]).collect();
        EquivalenceClasses::group_by_hash(&records, &[0])
    }

    #[test]
    fn same_partition_class_count_shortcut() {
        // 3 tuples: {0,1},{2} vs {0},{1},{2} — same tuple count, different
        // class counts. The shortcut must reject before comparing any
        // assignment (and must agree with the full comparison).
        let a = grouped(&[0, 0, 1]);
        let b = grouped(&[0, 1, 2]);
        assert_ne!(a.class_count(), b.class_count());
        assert!(!a.same_partition(&b));
        assert!(!b.same_partition(&a));
        // Different tuple counts also short-circuit.
        let c = grouped(&[0, 1]);
        assert!(!b.same_partition(&c));
        // Equal class counts with permuted numbering still match…
        let p = grouped(&[5, 2, 2]);
        let q = grouped(&[1, 9, 9]);
        assert!(p.same_partition(&q));
        // …but equal counts with different groupings do not.
        let r = grouped(&[1, 1, 2]);
        let s = grouped(&[1, 2, 2]);
        assert_eq!(r.class_count(), s.class_count());
        assert!(!r.same_partition(&s));
    }

    #[test]
    fn same_partition_detects_differences() {
        let a = grouped(&[1, 1, 2]);
        let b = grouped(&[1, 2, 2]);
        assert!(a.same_partition(&a));
        assert!(!a.same_partition(&b));
    }

    #[test]
    fn suppression_is_explicit_not_inferred() {
        // A table whose cells are all-* is NOT suppressed unless flagged.
        let coarse = table(vec![
            vec![GenValue::Suppressed, GenValue::Cat(0)],
            vec![GenValue::Int(20), GenValue::Cat(1)],
            vec![GenValue::Suppressed, GenValue::Cat(0)],
            vec![GenValue::Int(20), GenValue::Cat(0)],
        ]);
        assert_eq!(coarse.suppressed_count(), 0);
        assert!(!coarse.is_tuple_suppressed(0));

        // suppress_tuples flags and rewrites cells.
        let sup = coarse.suppress_tuples([1]);
        assert!(sup.is_tuple_suppressed(1));
        assert_eq!(sup.suppressed_count(), 1);
        assert_eq!(sup.cell(1, 0), &GenValue::Suppressed);
        assert_eq!(sup.cell(1, 1), &GenValue::Cat(1), "sensitive cell kept");
        assert_eq!(sup.suppression_mask(), &[false, true, false, false]);
    }

    #[test]
    fn with_suppressed_validates_mask() {
        let ds = tiny();
        // Mask length mismatch.
        let records: Vec<Vec<GenValue>> = (0..4)
            .map(|_| vec![GenValue::Suppressed, GenValue::Cat(0)])
            .collect();
        let r = AnonymizedTable::with_suppressed(ds.clone(), records.clone(), vec![true], "t");
        assert!(matches!(r, Err(Error::InvalidDataset(_))));
        // Marked suppressed but QI cell not suppressed.
        let mut bad = records;
        bad[0][0] = GenValue::Int(10);
        let r = AnonymizedTable::with_suppressed(ds, bad, vec![true, true, true, true], "t");
        assert!(matches!(r, Err(Error::InvalidDataset(_))));
    }

    #[test]
    fn identity_and_fully_suppressed() {
        let ds = tiny();
        let id = AnonymizedTable::identity(ds.clone(), "id");
        assert_eq!(id.len(), 4);
        assert_eq!(id.cell(0, 0), &GenValue::Int(10));
        // Ages 10, 20, 12, 20 → three classes (tuples 1 and 3 share age 20).
        assert_eq!(id.classes().class_count(), 3);

        let sup = AnonymizedTable::fully_suppressed(ds, "sup");
        assert_eq!(sup.classes().class_count(), 1);
        assert_eq!(sup.suppressed_count(), 4);
        // Sensitive values stay raw.
        assert_eq!(sup.cell(0, 1), &GenValue::Cat(0));
    }

    #[test]
    fn validation_errors() {
        let ds = tiny();
        let r = AnonymizedTable::new(ds.clone(), vec![], "t");
        assert!(matches!(r, Err(Error::InvalidDataset(_))));
        let r = AnonymizedTable::new(
            ds,
            vec![
                vec![GenValue::Int(1)],
                vec![GenValue::Int(1)],
                vec![GenValue::Int(1)],
                vec![GenValue::Int(1)],
            ],
            "t",
        );
        assert!(matches!(r, Err(Error::ArityMismatch { .. })));
    }

    #[test]
    fn render_cells() {
        let t = table(vec![
            vec![GenValue::Interval { lo: 0, hi: 15 }, GenValue::Cat(0)],
            vec![GenValue::Suppressed, GenValue::Cat(1)],
            vec![GenValue::Int(12), GenValue::Cat(0)],
            vec![GenValue::Int(20), GenValue::Cat(0)],
        ]);
        assert_eq!(t.render_cell(0, 0), "(0,15]");
        assert_eq!(t.render_cell(0, 1), "x");
        assert_eq!(t.render_cell(1, 0), "*");
        assert_eq!(t.render_cell(2, 0), "12");
    }

    #[test]
    fn empty_partition_properties() {
        let c = EquivalenceClasses::group_by_hash(&[], &[0]);
        assert_eq!(c.class_count(), 0);
        assert_eq!(c.min_class_size(), 0);
    }
}
