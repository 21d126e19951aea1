//! Property-based equivalence between the chunked codec and the
//! materialized reference path (`Lattice::apply` plus hash grouping): on
//! arbitrary datasets, hierarchies, lattice nodes, chunk sizes — including
//! size 1, sizes that do not divide the row count, and sizes larger than
//! it — and worker thread counts {1, 2, 8}, partitions, class ids,
//! coarsening, decoding, and the loss kernels must match bit for bit.
//! Thread count must never be observable in any output.

use std::sync::Arc;

use proptest::prelude::*;

use anoncmp_microdata::loss::LossMetric;
use anoncmp_microdata::prelude::*;

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

/// The ISSUE's chunk-size gauntlet: degenerate (1), non-dividing (7),
/// oversized block (4096), and one past the row count.
fn chunk_sizes(rows: usize) -> [usize; 4] {
    [1, 7, 4096, rows + 1]
}

/// The thread gauntlet: sequential, minimal parallelism, and more
/// workers than this container has cores (oversubscribed).
const THREADS: [usize; 3] = [1, 2, 8];

/// The materialized reference partition of `levels`: class sizes and
/// representatives in first-appearance order (a class's representative
/// is its smallest member), plus every row's class id.
fn reference_partition(ds: &Arc<Dataset>, levels: &[usize]) -> (Vec<u32>, Vec<u32>, Vec<u32>) {
    let lattice = Lattice::new(ds.schema().clone()).expect("lattice");
    let table = lattice.apply(ds, levels, "t").expect("valid levels");
    let classes = table.classes();
    let sizes = (0..classes.class_count())
        .map(|c| classes.members(c).len() as u32)
        .collect();
    let reps = (0..classes.class_count())
        .map(|c| classes.members(c)[0])
        .collect();
    let ids = (0..ds.len()).map(|t| classes.class_of(t) as u32).collect();
    (sizes, reps, ids)
}

proptest! {
    #[test]
    fn chunked_partitions_match_materialized(
        rows in arb_rows(),
        l0 in 0usize..4,
        l1 in 0usize..3,
    ) {
        let schema = small_schema();
        let ds = Dataset::new(schema.clone(), rows).expect("rows are in-domain");
        let (sizes, reps, ids) = reference_partition(&ds, &[l0, l1]);
        let table = Lattice::new(schema)
            .expect("lattice")
            .apply(&ds, &[l0, l1], "t")
            .expect("valid levels");
        for chunk_rows in chunk_sizes(ds.len()) {
            let chunked = ChunkedCodec::from_dataset(&ds, chunk_rows).expect("chunked build");
            for threads in THREADS {
                chunked.set_threads(threads);
                let got = chunked.partition(&[l0, l1]).expect("valid levels");
                prop_assert_eq!(
                    got.sizes(),
                    &sizes[..],
                    "sizes @ chunk_rows={} threads={}",
                    chunk_rows,
                    threads
                );
                prop_assert_eq!(
                    got.representatives(),
                    &reps[..],
                    "reps @ chunk_rows={} threads={}",
                    chunk_rows,
                    threads
                );
                let got_ids = chunked.class_ids(&[l0, l1]).expect("ids");
                prop_assert_eq!(
                    &got_ids,
                    &ids,
                    "ids @ chunk_rows={} threads={}",
                    chunk_rows,
                    threads
                );
                let decoded = chunked.decode(&ds, &[l0, l1], "t").expect("decode");
                prop_assert_eq!(decoded.records(), table.records());
            }
        }
    }

    #[test]
    fn chunked_coarsen_matches_materialized(
        rows in arb_rows(),
        pl0 in 0usize..3,
        pl1 in 0usize..2,
        d0 in 0usize..2,
        d1 in 0usize..2,
    ) {
        let schema = small_schema();
        let ds = Dataset::new(schema, rows).expect("rows are in-domain");
        let child = [pl0 + d0, pl1 + d1];
        let (sizes, reps, _) = reference_partition(&ds, &child);
        for chunk_rows in chunk_sizes(ds.len()) {
            let chunked = ChunkedCodec::from_dataset(&ds, chunk_rows).expect("chunked build");
            for threads in THREADS {
                chunked.set_threads(threads);
                let parent = chunked.partition(&[pl0, pl1]).expect("parent");
                let got = chunked.coarsen(&parent, &child).expect("coarsen");
                prop_assert_eq!(
                    got.sizes(),
                    &sizes[..],
                    "sizes @ chunk_rows={} threads={}",
                    chunk_rows,
                    threads
                );
                prop_assert_eq!(
                    got.representatives(),
                    &reps[..],
                    "reps @ chunk_rows={} threads={}",
                    chunk_rows,
                    threads
                );
            }
        }
    }

    #[test]
    fn chunked_loss_kernels_match_materialized(
        rows in arb_rows(),
        l0 in 0usize..4,
        l1 in 0usize..3,
    ) {
        let schema = small_schema();
        let ds = Dataset::new(schema.clone(), rows).expect("rows are in-domain");
        let levels = [l0, l1];
        let table = Lattice::new(schema)
            .expect("lattice")
            .apply(&ds, &levels, "t")
            .expect("valid levels");
        for chunk_rows in chunk_sizes(ds.len()) {
            let chunked = ChunkedCodec::from_dataset(&ds, chunk_rows).expect("chunked build");
            for threads in THREADS {
                chunked.set_threads(threads);
                let tag = (chunk_rows, threads);
                let chunked_partition = chunked.partition(&levels).expect("partition");
                for metric in [LossMetric::classic(), LossMetric::paper_ratio()] {
                    let a = metric.loss_vector(&table);
                    let b = metric.loss_vector_chunked(&chunked, &levels).expect("chunked");
                    prop_assert_eq!(bits(&a), bits(&b), "loss @ {:?}", tag);
                    let ua = metric.utility_vector(&table);
                    let ub = metric.utility_vector_chunked(&chunked, &levels).expect("chunked");
                    prop_assert_eq!(bits(&ua), bits(&ub), "utility @ {:?}", tag);
                }
                let pa = precision_vector(&table);
                let pb = precision_vector_chunked(&chunked, &levels).expect("chunked");
                prop_assert_eq!(bits(&pa), bits(&pb), "precision @ {:?}", tag);
                let da = discernibility_vector(&table);
                let db =
                    discernibility_vector_chunked(&chunked, &chunked_partition).expect("chunked");
                prop_assert_eq!(bits(&da), bits(&db), "discernibility @ {:?}", tag);
            }
        }
    }

    /// The parallel streaming build must produce a codec indistinguishable
    /// from the sequential one: same class ids, same losses, regardless of
    /// build thread count or backing store.
    #[test]
    fn parallel_build_matches_sequential(
        rows in arb_rows(),
        l0 in 0usize..4,
        l1 in 0usize..3,
    ) {
        let schema = small_schema();
        let ds = Dataset::new(schema.clone(), rows).expect("rows are in-domain");
        let levels = [l0, l1];
        let sequential = ChunkedCodec::from_dataset(&ds, 7).expect("sequential build");
        let expected_ids = sequential.class_ids(&levels).expect("ids");
        let expected_loss = LossMetric::classic()
            .loss_vector_chunked(&sequential, &levels)
            .expect("loss");
        for threads in THREADS {
            let built = ChunkedCodec::from_rows_parallel(
                schema.clone(),
                || ds.rows().iter().cloned(),
                7,
                ChunkStore::Memory,
                threads,
            )
            .expect("parallel build");
            built.set_threads(1);
            let ids = built.class_ids(&levels).expect("ids");
            prop_assert_eq!(&ids, &expected_ids, "ids @ build threads={}", threads);
            let loss = LossMetric::classic()
                .loss_vector_chunked(&built, &levels)
                .expect("loss");
            prop_assert_eq!(bits(&loss), bits(&expected_loss), "loss @ build threads={}", threads);
        }
    }

    /// The disk-backed store (prefetching I/O thread, reused read
    /// buffers) must agree with the in-memory store at every thread
    /// count.
    #[test]
    fn disk_store_matches_memory_store(
        rows in arb_rows(),
        l0 in 0usize..4,
        l1 in 0usize..3,
    ) {
        let schema = small_schema();
        let ds = Dataset::new(schema, rows).expect("rows are in-domain");
        let levels = [l0, l1];
        let in_memory = ChunkedCodec::from_dataset(&ds, 7).expect("memory build");
        let expected_ids = in_memory.class_ids(&levels).expect("ids");
        let dir = std::env::temp_dir().join(format!(
            "anoncmp-eqv-{}-{}",
            std::process::id(),
            ds.len()
        ));
        let on_disk = ChunkedCodec::from_dataset_in(&ds, 7, ChunkStore::Disk(dir.clone()))
            .expect("disk build");
        for threads in THREADS {
            on_disk.set_threads(threads);
            let ids = on_disk.class_ids(&levels).expect("ids");
            prop_assert_eq!(&ids, &expected_ids, "ids @ threads={}", threads);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Bit-level view for equality stricter than `==` (distinguishes ±0.0).
fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}
