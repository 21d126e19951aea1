//! Datasets: immutable row-major microdata tables.

use std::collections::BTreeSet;
use std::sync::Arc;

use crate::error::{Error, Result};
use crate::schema::{Domain, Schema};
use crate::value::Value;

/// Per-attribute summary of the values actually present in a dataset.
///
/// The paper's loss convention (§5.5 worked example, reverse-engineered in
/// DESIGN.md) normalizes coverage by the *distinct values present in the
/// dataset*, not the declared domain, so this is computed once at
/// construction.
#[derive(Debug, Clone)]
pub enum DistinctValues {
    /// Sorted distinct integers present in the dataset column.
    Integers(Vec<i64>),
    /// Category ids present in the dataset column (sorted).
    Categories(Vec<u32>),
}

impl DistinctValues {
    /// Number of distinct values present.
    pub fn count(&self) -> usize {
        match self {
            DistinctValues::Integers(v) => v.len(),
            DistinctValues::Categories(v) => v.len(),
        }
    }

    /// Number of distinct present integers within the half-open interval
    /// `(lo, hi]`. Zero for categorical columns.
    pub fn count_in_interval(&self, lo: i64, hi: i64) -> usize {
        match self {
            DistinctValues::Integers(v) => {
                let start = v.partition_point(|&x| x <= lo);
                let end = v.partition_point(|&x| x <= hi);
                end - start
            }
            DistinctValues::Categories(_) => 0,
        }
    }

    /// Whether category `cat` occurs in the column. False for integer
    /// columns.
    pub fn contains_category(&self, cat: u32) -> bool {
        match self {
            DistinctValues::Categories(v) => v.binary_search(&cat).is_ok(),
            DistinctValues::Integers(_) => false,
        }
    }

    /// Minimum and maximum present integer, if an integer column with data.
    pub fn int_range(&self) -> Option<(i64, i64)> {
        match self {
            DistinctValues::Integers(v) if !v.is_empty() => Some((v[0], v[v.len() - 1])),
            _ => None,
        }
    }

    /// The distinct values present, ascending, as raw [`Value`]s.
    pub fn values(&self) -> Vec<Value> {
        match self {
            DistinctValues::Integers(v) => v.iter().map(|&x| Value::Int(x)).collect(),
            DistinctValues::Categories(v) => v.iter().map(|&c| Value::Cat(c)).collect(),
        }
    }

    /// The dense code of `value`: its index among the sorted distinct
    /// values, if present in the column. This is the raw-code assignment
    /// the [`ChunkedCodec`](crate::chunked::ChunkedCodec) dictionary
    /// encoding is built on.
    pub fn code_of(&self, value: &Value) -> Option<u32> {
        match (self, value) {
            (DistinctValues::Integers(v), Value::Int(x)) => {
                v.binary_search(x).ok().map(|i| i as u32)
            }
            (DistinctValues::Categories(v), Value::Cat(c)) => {
                v.binary_search(c).ok().map(|i| i as u32)
            }
            _ => None,
        }
    }
}

/// An immutable microdata table: a schema plus `N` rows.
///
/// Row order is significant: property vectors (paper §3, Definition 1) are
/// indexed by tuple position, and anonymizations of the same dataset are
/// compared component-wise.
#[derive(Debug, Clone)]
pub struct Dataset {
    schema: Arc<Schema>,
    rows: Vec<Vec<Value>>,
    distinct: Vec<DistinctValues>,
}

impl Dataset {
    /// Builds a dataset, validating every row against the schema.
    ///
    /// # Errors
    /// [`Error::ArityMismatch`] if a row's length differs from the schema;
    /// [`Error::ValueOutOfDomain`] / [`Error::KindMismatch`] if a value does
    /// not belong to its attribute's domain.
    pub fn new(schema: Arc<Schema>, rows: Vec<Vec<Value>>) -> Result<Arc<Self>> {
        for row in &rows {
            if row.len() != schema.len() {
                return Err(Error::ArityMismatch {
                    expected: schema.len(),
                    actual: row.len(),
                });
            }
            for (i, v) in row.iter().enumerate() {
                let attr = schema.attribute(i);
                if !attr.domain().contains(v) {
                    // Distinguish a kind mismatch from a genuine range error.
                    let kind_ok = matches!(
                        (attr.domain(), v),
                        (Domain::Integer { .. }, Value::Int(_))
                            | (Domain::Categorical { .. }, Value::Cat(_))
                    );
                    if kind_ok {
                        return Err(Error::ValueOutOfDomain {
                            attribute: attr.name().to_owned(),
                            value: attr.render(v),
                        });
                    }
                    return Err(Error::KindMismatch {
                        attribute: attr.name().to_owned(),
                        detail: format!("value {v:?} does not match the attribute domain kind"),
                    });
                }
            }
        }
        let distinct = Self::compute_distinct(&schema, &rows);
        Ok(Arc::new(Dataset {
            schema,
            rows,
            distinct,
        }))
    }

    fn compute_distinct(schema: &Schema, rows: &[Vec<Value>]) -> Vec<DistinctValues> {
        (0..schema.len())
            .map(|col| match schema.attribute(col).domain() {
                Domain::Integer { .. } => {
                    let set: BTreeSet<i64> = rows.iter().filter_map(|r| r[col].as_int()).collect();
                    DistinctValues::Integers(set.into_iter().collect())
                }
                Domain::Categorical { .. } => {
                    let set: BTreeSet<u32> = rows.iter().filter_map(|r| r[col].as_cat()).collect();
                    DistinctValues::Categories(set.into_iter().collect())
                }
            })
            .collect()
    }

    /// The dataset schema.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// Number of tuples `N`.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the dataset has no tuples.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The tuple at `row` (panics if out of range, like slice indexing).
    pub fn row(&self, row: usize) -> &[Value] {
        &self.rows[row]
    }

    /// All rows.
    pub fn rows(&self) -> &[Vec<Value>] {
        &self.rows
    }

    /// The value at (`row`, `col`).
    pub fn value(&self, row: usize, col: usize) -> &Value {
        &self.rows[row][col]
    }

    /// Distinct-value summary for column `col`.
    pub fn distinct(&self, col: usize) -> &DistinctValues {
        &self.distinct[col]
    }

    /// Renders the raw value at (`row`, `col`) for display.
    pub fn render(&self, row: usize, col: usize) -> String {
        self.schema.attribute(col).render(&self.rows[row][col])
    }
}

/// Incremental dataset builder useful for generators and CSV import.
pub struct DatasetBuilder {
    schema: Arc<Schema>,
    rows: Vec<Vec<Value>>,
}

impl DatasetBuilder {
    /// Starts a builder for `schema`, reserving space for `capacity` rows.
    pub fn with_capacity(schema: Arc<Schema>, capacity: usize) -> Self {
        DatasetBuilder {
            schema,
            rows: Vec::with_capacity(capacity),
        }
    }

    /// Appends a row of raw values.
    pub fn push_row(&mut self, row: Vec<Value>) -> &mut Self {
        self.rows.push(row);
        self
    }

    /// Appends a row given as display strings, resolving categorical labels
    /// and parsing integers per the schema.
    ///
    /// # Errors
    /// [`Error::ArityMismatch`], [`Error::ValueOutOfDomain`], or
    /// [`Error::Parse`]-style kind errors when a cell cannot be resolved.
    pub fn push_labels<S: AsRef<str>>(&mut self, cells: &[S]) -> Result<&mut Self> {
        if cells.len() != self.schema.len() {
            return Err(Error::ArityMismatch {
                expected: self.schema.len(),
                actual: cells.len(),
            });
        }
        let mut row = Vec::with_capacity(cells.len());
        for (i, cell) in cells.iter().enumerate() {
            let attr = self.schema.attribute(i);
            let cell = cell.as_ref();
            let v =
                match attr.domain() {
                    Domain::Integer { .. } => Value::Int(cell.trim().parse::<i64>().map_err(
                        |e| Error::KindMismatch {
                            attribute: attr.name().to_owned(),
                            detail: format!("cannot parse '{cell}' as integer: {e}"),
                        },
                    )?),
                    Domain::Categorical { .. } => {
                        Value::Cat(attr.category_id(cell).ok_or_else(|| {
                            Error::ValueOutOfDomain {
                                attribute: attr.name().to_owned(),
                                value: cell.to_owned(),
                            }
                        })?)
                    }
                };
            row.push(v);
        }
        self.rows.push(row);
        Ok(self)
    }

    /// Finalizes the dataset (validates all rows).
    ///
    /// # Errors
    /// As [`Dataset::new`].
    pub fn build(self) -> Result<Arc<Dataset>> {
        Dataset::new(self.schema, self.rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Attribute, Role};

    fn schema() -> Arc<Schema> {
        Schema::new(vec![
            Attribute::integer("age", Role::QuasiIdentifier, 0, 120),
            Attribute::categorical("color", Role::Sensitive, ["red", "green", "blue"]),
        ])
        .unwrap()
    }

    #[test]
    fn build_and_access() {
        let ds = Dataset::new(
            schema(),
            vec![
                vec![Value::Int(30), Value::Cat(0)],
                vec![Value::Int(41), Value::Cat(2)],
                vec![Value::Int(30), Value::Cat(1)],
            ],
        )
        .unwrap();
        assert_eq!(ds.len(), 3);
        assert!(!ds.is_empty());
        assert_eq!(ds.value(1, 0), &Value::Int(41));
        assert_eq!(ds.render(1, 1), "blue");
        assert_eq!(ds.row(0).len(), 2);
        assert_eq!(ds.rows().len(), 3);
    }

    #[test]
    fn distinct_summaries() {
        let ds = Dataset::new(
            schema(),
            vec![
                vec![Value::Int(30), Value::Cat(0)],
                vec![Value::Int(41), Value::Cat(2)],
                vec![Value::Int(30), Value::Cat(0)],
            ],
        )
        .unwrap();
        assert_eq!(ds.distinct(0).count(), 2);
        assert_eq!(ds.distinct(1).count(), 2);
        assert_eq!(ds.distinct(0).int_range(), Some((30, 41)));
        assert!(ds.distinct(1).contains_category(2));
        assert!(!ds.distinct(1).contains_category(1));
        // (29, 41] contains 30 and 41.
        assert_eq!(ds.distinct(0).count_in_interval(29, 41), 2);
        // (30, 41] contains only 41 (lower bound exclusive).
        assert_eq!(ds.distinct(0).count_in_interval(30, 41), 1);
        // (41, 99] contains nothing.
        assert_eq!(ds.distinct(0).count_in_interval(41, 99), 0);
        // Cross-kind queries are inert.
        assert_eq!(ds.distinct(1).count_in_interval(0, 10), 0);
        assert!(!ds.distinct(0).contains_category(0));
        assert_eq!(ds.distinct(1).int_range(), None);
    }

    #[test]
    fn code_of_indexes_sorted_distinct_values() {
        let ds = Dataset::new(
            schema(),
            vec![
                vec![Value::Int(41), Value::Cat(2)],
                vec![Value::Int(30), Value::Cat(0)],
                vec![Value::Int(30), Value::Cat(2)],
            ],
        )
        .unwrap();
        // Distinct ages sorted: [30, 41]; colors: [0, 2].
        assert_eq!(ds.distinct(0).code_of(&Value::Int(30)), Some(0));
        assert_eq!(ds.distinct(0).code_of(&Value::Int(41)), Some(1));
        assert_eq!(ds.distinct(0).code_of(&Value::Int(99)), None);
        assert_eq!(ds.distinct(1).code_of(&Value::Cat(2)), Some(1));
        assert_eq!(ds.distinct(1).code_of(&Value::Cat(1)), None);
        // Cross-kind lookups are inert.
        assert_eq!(ds.distinct(0).code_of(&Value::Cat(0)), None);
        assert_eq!(ds.distinct(1).code_of(&Value::Int(0)), None);
        // values() round-trips through code_of.
        for (col, n) in [(0, 2), (1, 2)] {
            let values = ds.distinct(col).values();
            assert_eq!(values.len(), n);
            for (i, v) in values.iter().enumerate() {
                assert_eq!(ds.distinct(col).code_of(v), Some(i as u32));
            }
        }
    }

    #[test]
    fn arity_and_domain_validation() {
        let r = Dataset::new(schema(), vec![vec![Value::Int(30)]]);
        assert!(matches!(r, Err(Error::ArityMismatch { .. })));

        let r = Dataset::new(schema(), vec![vec![Value::Int(300), Value::Cat(0)]]);
        assert!(matches!(r, Err(Error::ValueOutOfDomain { .. })));

        let r = Dataset::new(schema(), vec![vec![Value::Cat(0), Value::Cat(0)]]);
        assert!(matches!(r, Err(Error::KindMismatch { .. })));

        let r = Dataset::new(schema(), vec![vec![Value::Int(30), Value::Cat(9)]]);
        assert!(matches!(r, Err(Error::ValueOutOfDomain { .. })));
    }

    #[test]
    fn builder_from_labels() {
        let mut b = DatasetBuilder::with_capacity(schema(), 2);
        b.push_labels(&["28", "red"]).unwrap();
        b.push_labels(&["55", "blue"]).unwrap();
        let ds = b.build().unwrap();
        assert_eq!(ds.len(), 2);
        assert_eq!(ds.value(0, 0), &Value::Int(28));
        assert_eq!(ds.value(1, 1), &Value::Cat(2));
    }

    #[test]
    fn builder_label_errors() {
        let mut b = DatasetBuilder::with_capacity(schema(), 1);
        assert!(b.push_labels(&["28"]).is_err());
        assert!(b.push_labels(&["x", "red"]).is_err());
        assert!(b.push_labels(&["28", "mauve"]).is_err());
        // Valid rows still accepted after errors.
        b.push_labels(&["28", "red"]).unwrap();
        assert_eq!(b.build().unwrap().len(), 1);
    }

    #[test]
    fn empty_dataset_is_valid() {
        let ds = Dataset::new(schema(), vec![]).unwrap();
        assert!(ds.is_empty());
        assert_eq!(ds.distinct(0).count(), 0);
        assert_eq!(ds.distinct(0).int_range(), None);
    }
}
