//! Property-based equivalence for the codec kernels: on arbitrary tables,
//! lattice nodes, chunk sizes (degenerate, non-dividing, oversized, one
//! resident block), and worker thread counts {1, 2, 8},
//! `Property::extract_chunked` must reproduce the materialized
//! `Property::extract` bit for bit for all nine built-in properties, and
//! custom properties fall back to extracting from the decoded node.
//! Thread count must never be observable in any extracted vector. The
//! batched [`ComparisonMatrix`] kernel must likewise reproduce the scalar
//! `Comparator::compare` sweep on every comparator.

use std::sync::Arc;

use proptest::prelude::*;

use anoncmp_core::prelude::*;
use anoncmp_microdata::loss::LossMetric;
use anoncmp_microdata::prelude::{
    AnonymizedTable, Attribute, ChunkedCodec, Dataset, IntervalLadder, Lattice, Role, Schema,
    Taxonomy, Value,
};

fn small_schema() -> Arc<Schema> {
    Schema::new(vec![
        Attribute::integer("age", Role::QuasiIdentifier, 0, 99)
            .with_hierarchy(IntervalLadder::uniform(0, &[10, 30]).unwrap().into())
            .unwrap(),
        Attribute::from_taxonomy(
            "city",
            Role::QuasiIdentifier,
            Taxonomy::masking(&["aa", "ab", "ba", "bb"], &[1]).unwrap(),
        ),
        Attribute::categorical("d", Role::Sensitive, ["x", "y", "z"]),
    ])
    .unwrap()
}

fn arb_rows() -> impl Strategy<Value = Vec<Vec<Value>>> {
    proptest::collection::vec(
        (0i64..100, 0u32..4, 0u32..3)
            .prop_map(|(a, c, d)| vec![Value::Int(a), Value::Cat(c), Value::Cat(d)]),
        1..40,
    )
}

fn all_properties() -> Vec<Box<dyn Property>> {
    vec![
        Box::new(EqClassSize),
        Box::new(BreachProbability),
        Box::new(SensitiveValueCount::default()),
        Box::new(DistinctSensitiveCount::default()),
        Box::new(TClosenessDistance::default()),
        Box::new(IyengarUtility::with_metric(LossMetric::paper_ratio())),
        Box::new(IyengarUtility::with_metric(LossMetric::classic())),
        Box::new(GeneralizationLoss::classic()),
        Box::new(Precision),
        Box::new(Discernibility),
    ]
}

proptest! {
    #[test]
    fn chunked_extraction_matches_table_extraction(
        rows in arb_rows(),
        l0 in 0usize..4,
        l1 in 0usize..3,
    ) {
        let schema = small_schema();
        let ds = Dataset::new(schema.clone(), rows).expect("rows are in-domain");
        let lattice = Lattice::new(schema).expect("lattice");
        let table = lattice.apply(&ds, &[l0, l1], "t").expect("valid levels");
        for chunk_rows in [1, 7, 4096, ds.len() + 1] {
            let codec = ChunkedCodec::from_dataset(&ds, chunk_rows).expect("chunked build");
            for threads in [1usize, 2, 8] {
                codec.set_threads(threads);
                let partition = codec.partition(&[l0, l1]).expect("valid levels");
                for p in all_properties() {
                    let from_table = p.extract(&table);
                    let from_chunks = p
                        .extract_chunked(&codec, &partition)
                        .expect("built-ins have chunked kernels");
                    prop_assert_eq!(from_table.name(), from_chunks.name(), "{}", p.name());
                    prop_assert_eq!(from_table.len(), from_chunks.len(), "{}", p.name());
                    // Bit-level equality, stricter than `==` (distinguishes ±0.0).
                    for (a, b) in from_table.iter().zip(from_chunks.iter()) {
                        prop_assert_eq!(
                            a.to_bits(),
                            b.to_bits(),
                            "{} @ chunk_rows={} threads={}: {} vs {}",
                            p.name(),
                            chunk_rows,
                            threads,
                            a,
                            b
                        );
                    }
                }
            }
        }
    }
}

proptest! {
    #[test]
    fn custom_properties_fall_back_to_the_decoded_node(
        rows in arb_rows(),
        l0 in 0usize..4,
        l1 in 0usize..3,
    ) {
        // A property without a codec kernel: the per-tuple class count.
        struct ClassCount;
        impl Property for ClassCount {
            fn name(&self) -> String {
                "class-count".into()
            }
            fn extract(&self, table: &AnonymizedTable) -> PropertyVector {
                let n = table.classes().class_count() as f64;
                PropertyVector::new(self.name(), vec![n; table.len()])
            }
        }
        let schema = small_schema();
        let ds = Dataset::new(schema.clone(), rows).expect("rows are in-domain");
        let lattice = Lattice::new(schema).expect("lattice");
        let table = lattice.apply(&ds, &[l0, l1], "t").expect("valid levels");
        let codec = ChunkedCodec::resident(&ds).expect("resident build");
        let partition = codec.partition(&[l0, l1]).expect("valid levels");
        prop_assert!(ClassCount.extract_chunked(&codec, &partition).is_none());
        let decoded = codec.decode(&ds, partition.levels(), "t").expect("decode");
        prop_assert_eq!(ClassCount.extract(&decoded), ClassCount.extract(&table));
    }
}

fn arb_pool() -> impl Strategy<Value = Vec<PropertyVector>> {
    (2usize..7, 1usize..9).prop_flat_map(|(m, n)| {
        proptest::collection::vec(
            proptest::collection::vec(0.1f64..10.0, n..=n)
                .prop_map(|values| PropertyVector::new("p", values)),
            m..=m,
        )
    })
}

proptest! {
    #[test]
    fn matrix_kernel_matches_scalar_sweep(pool in arb_pool()) {
        let names: Vec<String> = (0..pool.len()).map(|i| i.to_string()).collect();
        let name_refs: Vec<&str> = names.iter().map(String::as_str).collect();
        let refs: Vec<&PropertyVector> = pool.iter().collect();
        let comparators: Vec<Box<dyn Comparator>> = vec![
            Box::new(CoverageComparator),
            Box::new(SpreadComparator),
            Box::new(RankComparator::toward_ideal_of(&refs)),
            Box::new(RankComparator::toward_ideal_of(&refs).with_epsilon(0.5)),
            Box::new(HypervolumeComparator::with_mode(HvMode::Exact)),
            Box::new(HypervolumeComparator::with_mode(HvMode::Log)),
            Box::new(EpsilonComparator::default()),
            Box::new(EpsilonComparator { kind: EpsilonKind::Multiplicative }),
            Box::new(DominanceComparator),
        ];
        for c in &comparators {
            let matrix = ComparisonMatrix::of_vectors(&name_refs, &pool, c.as_ref());
            for i in 0..pool.len() {
                for j in 0..pool.len() {
                    let expected = if i == j {
                        Preference::Tie
                    } else {
                        c.compare(&pool[i], &pool[j])
                    };
                    prop_assert_eq!(
                        matrix.outcome(i, j),
                        expected,
                        "{} diverges at ({}, {})",
                        c.name(),
                        i,
                        j
                    );
                }
            }
        }
    }

    #[test]
    fn parallel_matrix_matches_sequential(pool in arb_pool(), threads in 1usize..5) {
        let names: Vec<String> = (0..pool.len()).map(|i| i.to_string()).collect();
        let name_refs: Vec<&str> = names.iter().map(String::as_str).collect();
        let sequential = ComparisonMatrix::of_vectors(&name_refs, &pool, &CoverageComparator);
        let parallel =
            ComparisonMatrix::of_vectors_parallel(&name_refs, &pool, &CoverageComparator, threads);
        for i in 0..pool.len() {
            for j in 0..pool.len() {
                prop_assert_eq!(sequential.outcome(i, j), parallel.outcome(i, j));
            }
        }
    }
}
