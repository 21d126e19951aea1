//! Streaming-generator determinism: the iterator row sources must yield
//! exactly the rows the monolithic generators materialize, and feeding
//! them to the chunked codec must reproduce the partitions of the
//! materialized dataset's resident codec at every chunk size (including
//! sizes that do not divide the row count and sizes larger than it).

use anoncmp_datagen::{
    census_schema, generate, generate_hospital, hospital_schema, CensusConfig, CensusRows,
    HospitalConfig, HospitalRows,
};
use anoncmp_microdata::prelude::*;

#[test]
fn census_stream_matches_monolithic_generation() {
    for (rows, seed, zip_pool) in [(0, 5, 20), (1, 5, 20), (257, 11, 10), (500, 42, 40)] {
        let cfg = CensusConfig {
            rows,
            seed,
            zip_pool,
        };
        let ds = generate(&cfg);
        let streamed: Vec<Vec<Value>> = CensusRows::new(&cfg).collect();
        assert_eq!(streamed.len(), ds.len(), "rows={rows} seed={seed}");
        for (t, row) in streamed.iter().enumerate() {
            assert_eq!(row.as_slice(), ds.row(t), "row {t} (seed {seed})");
        }
    }
}

#[test]
fn hospital_stream_matches_monolithic_generation() {
    for (rows, seed) in [(0, 7), (1, 7), (300, 5), (401, 13)] {
        let cfg = HospitalConfig { rows, seed };
        let ds = generate_hospital(&cfg);
        let streamed: Vec<Vec<Value>> = HospitalRows::new(&cfg).collect();
        assert_eq!(streamed.len(), ds.len(), "rows={rows} seed={seed}");
        for (t, row) in streamed.iter().enumerate() {
            assert_eq!(row.as_slice(), ds.row(t), "row {t} (seed {seed})");
        }
    }
}

#[test]
fn restarted_streams_are_identical() {
    let cfg = CensusConfig {
        rows: 100,
        seed: 9,
        zip_pool: 20,
    };
    let a: Vec<Vec<Value>> = CensusRows::new(&cfg).collect();
    let b: Vec<Vec<Value>> = CensusRows::new(&cfg).collect();
    assert_eq!(a, b, "the row factory must be deterministic");
}

#[test]
fn chunked_codec_over_census_stream_matches_in_memory_codec() {
    let cfg = CensusConfig {
        rows: 250,
        seed: 5,
        zip_pool: 20,
    };
    let ds = generate(&cfg);
    let codec = ChunkedCodec::resident(&ds).unwrap();
    let node = [2usize, 2, 1, 1, 1, 0];
    let expected = codec.partition(&node).unwrap();
    for chunk_rows in [1, 7, 64, 251] {
        let chunked = ChunkedCodec::from_rows(
            census_schema(cfg.zip_pool),
            || CensusRows::new(&cfg),
            chunk_rows,
            ChunkStore::Memory,
        )
        .unwrap();
        let got = chunked.partition(&node).unwrap();
        assert_eq!(got.sizes(), expected.sizes(), "chunk_rows={chunk_rows}");
        assert_eq!(
            got.representatives(),
            expected.representatives(),
            "chunk_rows={chunk_rows}"
        );
    }
}

#[test]
fn chunked_codec_over_hospital_stream_matches_in_memory_codec() {
    let cfg = HospitalConfig { rows: 180, seed: 3 };
    let ds = generate_hospital(&cfg);
    let codec = ChunkedCodec::resident(&ds).unwrap();
    let node = [2usize, 2, 1, 1];
    let expected = codec.partition(&node).unwrap();
    for chunk_rows in [1, 7, 64, 181] {
        let chunked = ChunkedCodec::from_rows(
            hospital_schema(),
            || HospitalRows::new(&cfg),
            chunk_rows,
            ChunkStore::Memory,
        )
        .unwrap();
        let got = chunked.partition(&node).unwrap();
        assert_eq!(got.sizes(), expected.sizes(), "chunk_rows={chunk_rows}");
        assert_eq!(
            got.representatives(),
            expected.representatives(),
            "chunk_rows={chunk_rows}"
        );
    }
}
