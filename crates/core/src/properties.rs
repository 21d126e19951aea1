//! Property extractors: from an anonymized table to a property vector.
//!
//! Each [`Property`] measures one scalar per tuple (paper §3): the size of
//! the tuple's equivalence class, the count of its sensitive value inside
//! the class, its contribution to information loss, and so on. Extractors
//! emit vectors in the **higher-is-better** orientation assumed by the
//! paper's comparators (§5); lower-is-better measurements are negated and
//! the raw (un-negated) variant is available separately where useful.

use anoncmp_microdata::loss::{
    discernibility_vector, discernibility_vector_chunked, precision_vector,
    precision_vector_chunked, LossMetric,
};
use anoncmp_microdata::parallel as chunk_parallel;
use anoncmp_microdata::prelude::{AnonymizedTable, ChunkedCodec, NodePartition, Schema, Value};

use crate::vector::{PropertySet, PropertyVector};

/// A per-tuple measurable property of an anonymization.
pub trait Property {
    /// The property's display name (becomes the vector name).
    fn name(&self) -> String;

    /// Measures the property on every tuple, in the higher-is-better
    /// orientation.
    fn extract(&self, table: &AnonymizedTable) -> PropertyVector;

    /// Measures the property directly from a codec partition — no table
    /// materialization, and no materialized dataset needed at all —
    /// returning a vector **bit-identical** to [`Property::extract`] on
    /// the decoded node (same values, same order, same name), or `None`
    /// when the property has no codec kernel.
    ///
    /// The default returns `None`: a custom property opts in by
    /// overriding this, and otherwise callers holding the dataset fall
    /// back to [`Property::extract`] on
    /// [`ChunkedCodec::decode`]`(dataset, partition.levels(), ..)`. All
    /// nine built-ins override it with kernels that stream the chunked
    /// columns; their only O(rows) state is the per-row class-id vector
    /// (cached on the partition) and the output vector itself.
    ///
    /// # Panics
    /// If `partition` does not fit `codec` (mismatched levels or dataset),
    /// consistent with the comparators' panics on mismatched dimensions.
    fn extract_chunked(
        &self,
        codec: &ChunkedCodec,
        partition: &NodePartition,
    ) -> Option<PropertyVector> {
        let _ = (codec, partition);
        None
    }
}

/// Per-row class ids from the chunked store (cached on the partition) —
/// the shared entry point of the chunked extractors.
fn chunked_class_ids<'a>(codec: &ChunkedCodec, partition: &'a NodePartition) -> &'a [u32] {
    partition
        .class_ids(codec)
        .expect("partition levels fit the codec")
}

/// Per-`(class, sensitive code)` occurrence counts by streaming the
/// sensitive column chunk-at-a-time. Codes index the column's
/// distinct-value summary; the code ↔ value mapping is a bijection over
/// the values present, so counts keyed by code equal counts keyed by
/// [`Value`].
fn chunked_sensitive_counts(
    codec: &ChunkedCodec,
    ids: &[u32],
    col: usize,
) -> std::collections::HashMap<(u32, u32), usize> {
    // Workers tally per-chunk partial counts; merging integer tallies is
    // key-wise commutative, so the folded map is deterministic at every
    // thread count (and the reduce runs in chunk order regardless).
    let mut counts: std::collections::HashMap<(u32, u32), usize> = std::collections::HashMap::new();
    codec
        .map_raw_chunks(
            col,
            || (),
            |(), base, codes| {
                let mut partial: std::collections::HashMap<(u32, u32), usize> =
                    std::collections::HashMap::new();
                for (i, &code) in codes.iter().enumerate() {
                    *partial.entry((ids[base + i], code)).or_insert(0) += 1;
                }
                Ok(partial)
            },
            |_, partial| {
                for (key, n) in partial {
                    *counts.entry(key).or_insert(0) += n;
                }
                Ok(())
            },
        )
        .expect("chunked column streams");
    counts
}

/// The explicit sensitive column, or the schema's first sensitive
/// attribute.
fn resolve_sensitive_column(schema: &Schema, column: Option<usize>) -> usize {
    column.unwrap_or_else(|| {
        *schema
            .sensitive()
            .first()
            .expect("schema declares at least one sensitive attribute")
    })
}

/// Size of the equivalence class a tuple belongs to — the property behind
/// k-anonymity and the paper's running example (`s = (3,3,3,3,4,4,4,3,3,4)`
/// for T3a).
#[derive(Debug, Clone, Copy, Default)]
pub struct EqClassSize;

impl Property for EqClassSize {
    fn name(&self) -> String {
        "eq-class-size".into()
    }

    fn extract(&self, table: &AnonymizedTable) -> PropertyVector {
        let sizes: Vec<usize> = (0..table.len())
            .map(|t| table.classes().class_size_of(t))
            .collect();
        PropertyVector::from_usizes(self.name(), &sizes)
    }

    fn extract_chunked(
        &self,
        codec: &ChunkedCodec,
        partition: &NodePartition,
    ) -> Option<PropertyVector> {
        let ids = chunked_class_ids(codec, partition);
        let class_sizes = partition.sizes();
        let mut sizes: Vec<usize> = vec![0; ids.len()];
        chunk_parallel::fill_spans(&mut sizes, codec.threads(), |base, span| {
            for (i, s) in span.iter_mut().enumerate() {
                *s = class_sizes[ids[base + i] as usize] as usize;
            }
        });
        Some(PropertyVector::from_usizes(self.name(), &sizes))
    }
}

/// Per-tuple probability of a privacy breach under the equivalence-class
/// re-identification model: `1 / |EC(t)|` (§1: "every tuple has at most a
/// 1/3 probability of privacy breach"). Extracted negated so that higher
/// (less negative) is better.
#[derive(Debug, Clone, Copy, Default)]
pub struct BreachProbability;

impl BreachProbability {
    /// The raw probabilities (lower is better), for reporting.
    pub fn raw(&self, table: &AnonymizedTable) -> PropertyVector {
        let v: Vec<f64> = (0..table.len())
            .map(|t| 1.0 / table.classes().class_size_of(t) as f64)
            .collect();
        PropertyVector::new("breach-probability", v)
    }
}

impl Property for BreachProbability {
    fn name(&self) -> String {
        "-breach-probability".into()
    }

    fn extract(&self, table: &AnonymizedTable) -> PropertyVector {
        self.raw(table).negated().renamed(self.name())
    }

    fn extract_chunked(
        &self,
        codec: &ChunkedCodec,
        partition: &NodePartition,
    ) -> Option<PropertyVector> {
        let ids = chunked_class_ids(codec, partition);
        let sizes = partition.sizes();
        let mut v: Vec<f64> = vec![0.0; ids.len()];
        chunk_parallel::fill_spans(&mut v, codec.threads(), |base, span| {
            for (i, p) in span.iter_mut().enumerate() {
                *p = -(1.0 / sizes[ids[base + i] as usize] as f64);
            }
        });
        Some(PropertyVector::new(self.name(), v))
    }
}

/// Number of times a tuple's sensitive value appears within its equivalence
/// class — the property the paper uses for ℓ-diversity
/// (`(2,2,1,2,2,1,2,1,2,1)` for T3a with Marital Status sensitive).
///
/// Counts are taken on the **original** sensitive values, which the data
/// publisher performing the comparison has access to even when the release
/// generalizes or suppresses the sensitive column.
#[derive(Debug, Clone, Copy, Default)]
pub struct SensitiveValueCount {
    /// Column of the sensitive attribute; `None` selects the schema's first
    /// sensitive attribute.
    pub column: Option<usize>,
}

impl Property for SensitiveValueCount {
    fn name(&self) -> String {
        "sensitive-value-count".into()
    }

    fn extract(&self, table: &AnonymizedTable) -> PropertyVector {
        let col = resolve_sensitive_column(table.dataset().schema(), self.column);
        let ds = table.dataset();
        let counts: Vec<usize> = (0..table.len())
            .map(|t| {
                let class = table.classes().class_of(t);
                let own: &Value = ds.value(t, col);
                table
                    .classes()
                    .members(class)
                    .iter()
                    .filter(|&&m| ds.value(m as usize, col) == own)
                    .count()
            })
            .collect();
        PropertyVector::from_usizes(self.name(), &counts)
    }

    fn extract_chunked(
        &self,
        codec: &ChunkedCodec,
        partition: &NodePartition,
    ) -> Option<PropertyVector> {
        let col = resolve_sensitive_column(codec.schema(), self.column);
        let ids = chunked_class_ids(codec, partition);
        let counts = chunked_sensitive_counts(codec, ids, col);
        let mut v: Vec<usize> = Vec::with_capacity(codec.rows());
        codec
            .map_raw_chunks(
                col,
                || (),
                |(), base, codes| {
                    Ok(codes
                        .iter()
                        .enumerate()
                        .map(|(i, &code)| counts[&(ids[base + i], code)])
                        .collect::<Vec<usize>>())
                },
                |_, chunk_counts| {
                    v.extend_from_slice(&chunk_counts);
                    Ok(())
                },
            )
            .expect("chunked column streams");
        Some(PropertyVector::from_usizes(self.name(), &v))
    }
}

/// Number of *distinct* sensitive values in a tuple's equivalence class —
/// the per-tuple decomposition of distinct ℓ-diversity (Machanavajjhala et
/// al., cited in §6). Higher is better.
#[derive(Debug, Clone, Copy, Default)]
pub struct DistinctSensitiveCount {
    /// Column of the sensitive attribute; `None` selects the schema's first
    /// sensitive attribute.
    pub column: Option<usize>,
}

impl Property for DistinctSensitiveCount {
    fn name(&self) -> String {
        "distinct-sensitive-count".into()
    }

    fn extract(&self, table: &AnonymizedTable) -> PropertyVector {
        let col = resolve_sensitive_column(table.dataset().schema(), self.column);
        let ds = table.dataset();
        // Compute per class once, then scatter to tuples.
        let mut per_class: Vec<usize> = Vec::with_capacity(table.classes().class_count());
        for (_, members) in table.classes().iter() {
            let mut vals: Vec<&Value> =
                members.iter().map(|&m| ds.value(m as usize, col)).collect();
            vals.sort_unstable();
            vals.dedup();
            per_class.push(vals.len());
        }
        let counts: Vec<usize> = (0..table.len())
            .map(|t| per_class[table.classes().class_of(t)])
            .collect();
        PropertyVector::from_usizes(self.name(), &counts)
    }

    fn extract_chunked(
        &self,
        codec: &ChunkedCodec,
        partition: &NodePartition,
    ) -> Option<PropertyVector> {
        let col = resolve_sensitive_column(codec.schema(), self.column);
        let ids = chunked_class_ids(codec, partition);
        // Each `(class, code)` key occurs once per distinct sensitive value
        // present in that class, so counting keys counts distinct values.
        let counts = chunked_sensitive_counts(codec, ids, col);
        let mut distinct: Vec<usize> = vec![0; partition.class_count()];
        for &(class, _) in counts.keys() {
            distinct[class as usize] += 1;
        }
        let mut v: Vec<usize> = vec![0; ids.len()];
        chunk_parallel::fill_spans(&mut v, codec.threads(), |base, span| {
            for (i, d) in span.iter_mut().enumerate() {
                *d = distinct[ids[base + i] as usize];
            }
        });
        Some(PropertyVector::from_usizes(self.name(), &v))
    }
}

/// Per-tuple t-closeness distance: the total variation distance between the
/// sensitive-value distribution of the tuple's equivalence class and the
/// global distribution (Li et al., cited in §6). Lower raw distance is
/// better, so the property extracts negated.
#[derive(Debug, Clone, Copy, Default)]
pub struct TClosenessDistance {
    /// Column of the sensitive attribute; `None` selects the schema's first
    /// sensitive attribute.
    pub column: Option<usize>,
}

impl TClosenessDistance {
    /// Raw per-tuple distances in `[0, 1]` (lower is better).
    pub fn raw(&self, table: &AnonymizedTable) -> PropertyVector {
        let col = resolve_sensitive_column(table.dataset().schema(), self.column);
        let ds = table.dataset();
        let n = table.len() as f64;
        // Global distribution over observed sensitive values.
        let mut global: Vec<(Value, f64)> = Vec::new();
        for t in 0..table.len() {
            let v = *ds.value(t, col);
            match global.iter_mut().find(|(g, _)| *g == v) {
                Some((_, c)) => *c += 1.0,
                None => global.push((v, 1.0)),
            }
        }
        for (_, c) in &mut global {
            *c /= n;
        }
        // Per-class total variation distance.
        let mut per_class: Vec<f64> = Vec::with_capacity(table.classes().class_count());
        for (_, members) in table.classes().iter() {
            let m = members.len() as f64;
            let mut tv = 0.0;
            for (gv, gp) in &global {
                let local = members
                    .iter()
                    .filter(|&&t| ds.value(t as usize, col) == gv)
                    .count() as f64
                    / m;
                tv += (local - gp).abs();
            }
            per_class.push(tv / 2.0);
        }
        let v: Vec<f64> = (0..table.len())
            .map(|t| per_class[table.classes().class_of(t)])
            .collect();
        PropertyVector::new("t-closeness-distance", v)
    }
}

impl Property for TClosenessDistance {
    fn name(&self) -> String {
        "-t-closeness-distance".into()
    }

    fn extract(&self, table: &AnonymizedTable) -> PropertyVector {
        self.raw(table).negated().renamed(self.name())
    }

    fn extract_chunked(
        &self,
        codec: &ChunkedCodec,
        partition: &NodePartition,
    ) -> Option<PropertyVector> {
        let col = resolve_sensitive_column(codec.schema(), self.column);
        let n = codec.rows() as f64;
        // Global distribution over sensitive codes, in row-stream
        // first-appearance order. The code ↔ value bijection preserves the
        // materialized path's ordering, so the TV sum accumulates in the
        // same order and the distances match bit-for-bit. Parallel chunks
        // tally chunk-local first-appearance lists; merging them in chunk
        // order reproduces the global first-appearance order, and the
        // tallies are exact integers in f64, so the sums are too.
        let mut global: Vec<(u32, f64)> = Vec::new();
        codec
            .map_raw_chunks(
                col,
                || (),
                |(), _, codes| {
                    let mut partial: Vec<(u32, f64)> = Vec::new();
                    for &code in codes {
                        match partial.iter_mut().find(|(g, _)| *g == code) {
                            Some((_, c)) => *c += 1.0,
                            None => partial.push((code, 1.0)),
                        }
                    }
                    Ok(partial)
                },
                |_, partial| {
                    for (code, count) in partial {
                        match global.iter_mut().find(|(g, _)| *g == code) {
                            Some((_, c)) => *c += count,
                            None => global.push((code, count)),
                        }
                    }
                    Ok(())
                },
            )
            .expect("chunked column streams");
        for (_, c) in &mut global {
            *c /= n;
        }
        let ids = chunked_class_ids(codec, partition);
        let counts = chunked_sensitive_counts(codec, ids, col);
        let sizes = partition.sizes();
        // Per-class TV distances are independent; the within-class sum
        // runs over `global` in its fixed order either way.
        let mut per_class: Vec<f64> = vec![0.0; sizes.len()];
        chunk_parallel::fill_spans(&mut per_class, codec.threads(), |base, span| {
            for (i, out) in span.iter_mut().enumerate() {
                let class = base + i;
                let m = sizes[class] as f64;
                let mut tv = 0.0;
                for &(code, gp) in &global {
                    let local = counts.get(&(class as u32, code)).copied().unwrap_or(0) as f64 / m;
                    tv += (local - gp).abs();
                }
                *out = tv / 2.0;
            }
        });
        let mut v: Vec<f64> = vec![0.0; ids.len()];
        chunk_parallel::fill_spans(&mut v, codec.threads(), |base, span| {
            for (i, out) in span.iter_mut().enumerate() {
                *out = -per_class[ids[base + i] as usize];
            }
        });
        Some(PropertyVector::new(self.name(), v))
    }
}

/// Per-tuple data utility under a configurable loss metric:
/// `utility(t) = a − Σ_col loss(t, col)` with `a` the number of columns the
/// metric sums over — the convention that reproduces the paper's §5.5
/// Iyengar-utility vectors `u_a`/`u_b` exactly (see DESIGN.md).
#[derive(Debug, Clone)]
pub struct IyengarUtility {
    metric: LossMetric,
}

impl IyengarUtility {
    /// Utility under the paper's §5.5 configuration
    /// ([`LossMetric::paper_ratio`]).
    pub fn paper() -> Self {
        IyengarUtility {
            metric: LossMetric::paper_ratio(),
        }
    }

    /// Utility under a custom loss metric.
    pub fn with_metric(metric: LossMetric) -> Self {
        IyengarUtility { metric }
    }
}

impl Default for IyengarUtility {
    fn default() -> Self {
        IyengarUtility::paper()
    }
}

impl Property for IyengarUtility {
    fn name(&self) -> String {
        "iyengar-utility".into()
    }

    fn extract(&self, table: &AnonymizedTable) -> PropertyVector {
        PropertyVector::new(self.name(), self.metric.utility_vector(table))
    }

    fn extract_chunked(
        &self,
        codec: &ChunkedCodec,
        partition: &NodePartition,
    ) -> Option<PropertyVector> {
        let v = self
            .metric
            .utility_vector_chunked(codec, partition.levels())
            .expect("partition levels fit the codec");
        Some(PropertyVector::new(self.name(), v))
    }
}

/// Per-tuple generalization loss (lower is better; extracted negated).
#[derive(Debug, Clone)]
pub struct GeneralizationLoss {
    metric: LossMetric,
}

impl GeneralizationLoss {
    /// Loss under Iyengar's classic LM over quasi-identifiers.
    pub fn classic() -> Self {
        GeneralizationLoss {
            metric: LossMetric::classic(),
        }
    }

    /// Loss under a custom metric.
    pub fn with_metric(metric: LossMetric) -> Self {
        GeneralizationLoss { metric }
    }

    /// Raw per-tuple losses (lower is better).
    pub fn raw(&self, table: &AnonymizedTable) -> PropertyVector {
        PropertyVector::new("generalization-loss", self.metric.loss_vector(table))
    }
}

impl Property for GeneralizationLoss {
    fn name(&self) -> String {
        "-generalization-loss".into()
    }

    fn extract(&self, table: &AnonymizedTable) -> PropertyVector {
        self.raw(table).negated().renamed(self.name())
    }

    fn extract_chunked(
        &self,
        codec: &ChunkedCodec,
        partition: &NodePartition,
    ) -> Option<PropertyVector> {
        let v: Vec<f64> = self
            .metric
            .loss_vector_chunked(codec, partition.levels())
            .expect("partition levels fit the codec")
            .into_iter()
            .map(|l| -l)
            .collect();
        Some(PropertyVector::new(self.name(), v))
    }
}

/// Per-tuple precision (Sweeney's Prec decomposed by tuple; higher is
/// better).
#[derive(Debug, Clone, Copy, Default)]
pub struct Precision;

impl Property for Precision {
    fn name(&self) -> String {
        "precision".into()
    }

    fn extract(&self, table: &AnonymizedTable) -> PropertyVector {
        PropertyVector::new(self.name(), precision_vector(table))
    }

    fn extract_chunked(
        &self,
        codec: &ChunkedCodec,
        partition: &NodePartition,
    ) -> Option<PropertyVector> {
        let v = precision_vector_chunked(codec, partition.levels())
            .expect("partition levels fit the codec");
        Some(PropertyVector::new(self.name(), v))
    }
}

/// Per-tuple discernibility penalty (Bayardo–Agrawal DM decomposed by
/// tuple; lower is better, extracted negated).
#[derive(Debug, Clone, Copy, Default)]
pub struct Discernibility;

impl Discernibility {
    /// Raw penalties (lower is better).
    pub fn raw(&self, table: &AnonymizedTable) -> PropertyVector {
        PropertyVector::new("discernibility", discernibility_vector(table))
    }
}

impl Property for Discernibility {
    fn name(&self) -> String {
        "-discernibility".into()
    }

    fn extract(&self, table: &AnonymizedTable) -> PropertyVector {
        self.raw(table).negated().renamed(self.name())
    }

    fn extract_chunked(
        &self,
        codec: &ChunkedCodec,
        partition: &NodePartition,
    ) -> Option<PropertyVector> {
        let v: Vec<f64> = discernibility_vector_chunked(codec, partition)
            .expect("partition levels fit the codec")
            .into_iter()
            .map(|d| -d)
            .collect();
        Some(PropertyVector::new(self.name(), v))
    }
}

/// Induces the [`PropertySet`] of an r-property anonymization (paper
/// Definition 2): applies each property in order to the same table.
pub fn induce_property_set(table: &AnonymizedTable, properties: &[&dyn Property]) -> PropertySet {
    PropertySet::new(
        table.name().to_owned(),
        properties.iter().map(|p| p.extract(table)).collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    use anoncmp_microdata::prelude::*;

    /// A 6-tuple dataset with ages grouped into two classes under a width-10
    /// bucketing: {10,12,15} and {25,27,25}, sensitive values x,y,x / y,y,x.
    fn fixture() -> AnonymizedTable {
        let schema = Schema::new(vec![
            Attribute::integer("age", Role::QuasiIdentifier, 0, 100)
                .with_hierarchy(IntervalLadder::uniform(10, &[10]).unwrap().into())
                .unwrap(),
            Attribute::categorical("d", Role::Sensitive, ["x", "y"]),
        ])
        .unwrap();
        let ds = Dataset::new(
            schema.clone(),
            vec![
                vec![Value::Int(11), Value::Cat(0)],
                vec![Value::Int(12), Value::Cat(1)],
                vec![Value::Int(15), Value::Cat(0)],
                vec![Value::Int(25), Value::Cat(1)],
                vec![Value::Int(27), Value::Cat(1)],
                vec![Value::Int(25), Value::Cat(0)],
            ],
        )
        .unwrap();
        let lattice = Lattice::new(schema).unwrap();
        lattice.apply(&ds, &[1], "fixture").unwrap()
    }

    #[test]
    fn eq_class_size_vector() {
        let t = fixture();
        let v = EqClassSize.extract(&t);
        assert_eq!(v.values(), &[3.0; 6]);
        assert_eq!(v.name(), "eq-class-size");
    }

    #[test]
    fn breach_probability_is_negated_inverse_class_size() {
        let t = fixture();
        let raw = BreachProbability.raw(&t);
        for p in raw.iter() {
            assert!((p - 1.0 / 3.0).abs() < 1e-12);
        }
        let oriented = BreachProbability.extract(&t);
        for p in oriented.iter() {
            assert!((p + 1.0 / 3.0).abs() < 1e-12);
        }
    }

    #[test]
    fn sensitive_value_count() {
        let t = fixture();
        let v = SensitiveValueCount::default().extract(&t);
        // Class 1 {11,12,15}: x,y,x → counts 2,1,2.
        // Class 2 {25,27,25}: y,y,x → counts 2,2,1.
        assert_eq!(v.values(), &[2.0, 1.0, 2.0, 2.0, 2.0, 1.0]);
    }

    #[test]
    fn distinct_sensitive_count() {
        let t = fixture();
        let v = DistinctSensitiveCount::default().extract(&t);
        assert_eq!(v.values(), &[2.0; 6]);
    }

    #[test]
    fn t_closeness_distance_bounds_and_uniform_case() {
        let t = fixture();
        let raw = TClosenessDistance::default().raw(&t);
        // Global distribution: x 3/6, y 3/6. Class 1: x 2/3 → TV = |2/3-1/2| = 1/6.
        for d in raw.iter() {
            assert!((d - 1.0 / 6.0).abs() < 1e-12);
        }
        let oriented = TClosenessDistance::default().extract(&t);
        for d in oriented.iter() {
            assert!(d <= 0.0);
        }
    }

    #[test]
    fn utility_and_loss_are_consistent() {
        let t = fixture();
        let metric = LossMetric::paper_ratio();
        let u = IyengarUtility::with_metric(metric.clone()).extract(&t);
        let l = GeneralizationLoss::with_metric(metric).raw(&t);
        let a = 2.0; // two columns in ColumnSet::All
        for (uu, ll) in u.iter().zip(l.iter()) {
            assert!((uu + ll - a).abs() < 1e-12);
        }
    }

    #[test]
    fn precision_and_discernibility() {
        let t = fixture();
        let p = Precision.extract(&t);
        // age at level 1 of 2 → cell ratio 0.5 → precision 0.5 (only one
        // hierarchy-bearing column).
        for x in p.iter() {
            assert!((x - 0.5).abs() < 1e-12);
        }
        let d = Discernibility.raw(&t);
        assert_eq!(d.values(), &[3.0; 6]);
        let dn = Discernibility.extract(&t);
        assert_eq!(dn.values(), &[-3.0; 6]);
    }

    #[test]
    fn chunked_extraction_is_bit_identical_to_table_extraction() {
        let t = fixture();
        let props: Vec<Box<dyn Property>> = vec![
            Box::new(EqClassSize),
            Box::new(BreachProbability),
            Box::new(SensitiveValueCount::default()),
            Box::new(DistinctSensitiveCount::default()),
            Box::new(TClosenessDistance::default()),
            Box::new(IyengarUtility::with_metric(LossMetric::paper_ratio())),
            Box::new(GeneralizationLoss::classic()),
            Box::new(Precision),
            Box::new(Discernibility),
        ];
        for chunk_rows in [1, 2, 4, 6, 64] {
            let codec = ChunkedCodec::from_dataset(t.dataset(), chunk_rows).unwrap();
            let partition = codec.partition(&[1]).unwrap();
            for p in &props {
                let from_table = p.extract(&t);
                let from_chunks = p
                    .extract_chunked(&codec, &partition)
                    .expect("built-ins have chunked kernels");
                assert_eq!(
                    from_table.name(),
                    from_chunks.name(),
                    "{} @ chunk_rows={chunk_rows}",
                    p.name()
                );
                assert_eq!(
                    from_table.values(),
                    from_chunks.values(),
                    "{} @ chunk_rows={chunk_rows}",
                    p.name()
                );
            }
        }
    }

    #[test]
    fn custom_properties_default_to_no_chunked_kernel() {
        struct RowIndex;
        impl Property for RowIndex {
            fn name(&self) -> String {
                "row-index".into()
            }
            fn extract(&self, table: &AnonymizedTable) -> PropertyVector {
                PropertyVector::new(self.name(), (0..table.len()).map(|i| i as f64).collect())
            }
        }
        let t = fixture();
        let codec = ChunkedCodec::from_dataset(t.dataset(), 3).unwrap();
        let partition = codec.partition(&[1]).unwrap();
        assert!(RowIndex.extract_chunked(&codec, &partition).is_none());
    }

    #[test]
    fn induce_property_set_preserves_order() {
        let t = fixture();
        let props: Vec<&dyn Property> = vec![&EqClassSize, &Precision];
        let set = induce_property_set(&t, &props);
        assert_eq!(set.r(), 2);
        assert_eq!(set.anonymization(), "fixture");
        assert_eq!(set.vector(0).name(), "eq-class-size");
        assert_eq!(set.vector(1).name(), "precision");
    }

    #[test]
    fn explicit_sensitive_column_selection() {
        let t = fixture();
        let v = SensitiveValueCount { column: Some(1) }.extract(&t);
        assert_eq!(v.len(), 6);
        let w = SensitiveValueCount::default().extract(&t);
        assert_eq!(v.values(), w.values());
    }

    #[test]
    fn suppressed_release_has_full_class() {
        let t = fixture();
        let ds = t.dataset().clone();
        let sup = AnonymizedTable::fully_suppressed(ds, "sup");
        assert_eq!(EqClassSize.extract(&sup).values(), &[6.0; 6]);
        // t-closeness distance of the single full class is 0.
        let d = TClosenessDistance::default().raw(&sup);
        for x in d.iter() {
            assert!(x.abs() < 1e-12);
        }
    }
}
