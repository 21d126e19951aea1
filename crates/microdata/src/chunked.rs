//! The dictionary-encoded, chunked generalization codec — the one
//! encoded substrate every lattice search, property kernel and loss
//! kernel runs on.
//!
//! Evaluating a lattice node through
//! [`Lattice::apply`](crate::lattice::Lattice::apply) materializes a
//! complete `Vec<Vec<GenValue>>` table and re-hashes every tuple
//! signature. Under full-domain recoding almost all of that work is
//! redundant: the generalized value of a cell depends only on `(column,
//! raw value, level)`, and a column holds few distinct raw values compared
//! to its row count. [`ChunkedCodec`] therefore interns, per
//! quasi-identifier column:
//!
//! * a **raw code** per row (`u32`, an index into the column's sorted
//!   distinct values, the order of [`Dataset::distinct`]);
//! * per generalization level, a `Vec<u32>` **code map** from raw code to
//!   *generalized code*, plus the interned dictionary `Vec<GenValue>` those
//!   generalized codes index.
//!
//! Raw codes live as fixed-size `chunk_rows` blocks, either resident in
//! memory or spilled to a simple on-disk column file (little-endian `u32`s,
//! nothing else). Grouping a node streams those blocks, packs each row's
//! generalized codes into one `u64` key (or a code tuple when the widths
//! exceed 64 bits) and numbers classes in first-appearance order. Peak
//! memory beyond the store is O(chunk + classes), never O(rows), unless
//! per-row class ids are explicitly requested. A dataset that fits in
//! memory is encoded as a single resident chunk
//! ([`ChunkedCodec::resident`]); its blocks are borrowed, never copied.
//!
//! Decoding back to a displayable [`AnonymizedTable`] happens only for the
//! node a search actually releases ([`ChunkedCodec::decode`]).
//!
//! ## Bit-identity across chunkings and thread counts
//!
//! - **Dictionaries** are interned in ascending raw-code order, so codes
//!   and dictionary order do not depend on how rows were chunked or
//!   streamed.
//! - **Packed keys** shift by the *global* dictionary sizes (not per-chunk
//!   maxima), so equal rows key equal regardless of which chunk holds them.
//! - **Class numbering** stays first-appearance: chunks are merged in row
//!   order, so the k-th new key is assigned id k — exactly the numbering
//!   [`EquivalenceClasses::group_by_hash`] gives the materialized table.
//!
//! Proptests in `tests/chunked_equivalence.rs` pin this against the
//! materialized table across chunk sizes, including sizes that do not
//! divide the row count.
//!
//! ## The class-merge invariant
//!
//! Stepping up one level in a *nested* hierarchy (a
//! [`Taxonomy`](crate::taxonomy::Taxonomy), or an
//! [`IntervalLadder`](crate::intervals::IntervalLadder) built with
//! [`new_nested`](crate::intervals::IntervalLadder::new_nested)) can only
//! **merge** equivalence classes, never split them. When that invariant
//! holds for a dimension ([`ChunkedCodec::is_monotone`]), a successor
//! node's partition can be derived from its parent's by re-keying one
//! *representative row per parent class* — O(#classes) instead of
//! O(#rows) — via [`ChunkedCodec::coarsen`]. Ladders built with
//! [`new_unchecked`](crate::intervals::IntervalLadder::new_unchecked) may
//! violate it (the paper's T3a/T3b/T4 ladders shift origins between
//! levels); the codec detects this at construction and refuses to coarsen
//! across a non-nested column, so callers fall back to
//! [`ChunkedCodec::partition`].
//!
//! [`EquivalenceClasses::group_by_hash`]: crate::anonymized::EquivalenceClasses::group_by_hash

use std::collections::{BTreeSet, HashMap};
use std::fs::{self, File};
use std::io::{BufWriter, Read, Seek, SeekFrom, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use crate::anonymized::AnonymizedTable;
use crate::codec::{packing_shifts, NodePartition};
use crate::dataset::{Dataset, DistinctValues};
use crate::error::{Error, Result};
use crate::hash::FxMap;
use crate::kernels;
use crate::parallel::{
    self, process_chunks_ordered, process_stream_ordered, Queue, PREFETCH_DEPTH,
};
use crate::schema::{Domain, Schema};
use crate::value::{GenValue, Value};

/// Classes re-keyed per parallel [`ChunkedCodec::coarsen`] work item —
/// large enough to amortize the per-batch key vectors, small enough that
/// short lattices still fan out.
const COARSEN_BATCH: usize = 4096;

/// Optional receiver of a grouping pass's per-row class ids, handed over
/// one chunk at a time in row order.
type IdSink<'a> = Option<&'a mut dyn FnMut(&[u32])>;

/// Where a [`ChunkedCodec`] keeps its column blocks.
#[derive(Debug, Clone)]
pub enum ChunkStore {
    /// Blocks stay in memory (`Vec<Vec<u32>>` per column) and are
    /// borrowed in place. Peak memory is O(rows). A single-block store
    /// ([`ChunkedCodec::resident`]) additionally caches each
    /// `(dimension, level)`'s generalized codes on first use, so lattice
    /// searches over in-memory data re-key each level once.
    Memory,
    /// Blocks spill to one raw little-endian `u32` file per column inside
    /// this directory (created if absent). Peak memory is O(chunk +
    /// classes). The caller owns the directory's lifecycle; nothing is
    /// deleted on drop.
    Disk(PathBuf),
}

fn io_err(what: &str, e: &std::io::Error) -> Error {
    Error::Io(format!("{what}: {e}"))
}

/// A single column of `u32` codes stored as fixed-size blocks, in memory
/// or in an on-disk column file.
#[derive(Debug)]
pub struct ChunkedColumn {
    rows: usize,
    chunk_rows: usize,
    storage: Storage,
}

#[derive(Debug)]
enum Storage {
    Memory(Vec<Vec<u32>>),
    Disk(PathBuf),
}

impl ChunkedColumn {
    /// Total rows in the column.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Rows per block (the last block may be shorter).
    pub fn chunk_rows(&self) -> usize {
        self.chunk_rows
    }

    /// Number of blocks.
    pub fn chunk_count(&self) -> usize {
        self.rows.div_ceil(self.chunk_rows)
    }

    fn chunk_len(&self, chunk: usize) -> usize {
        let start = chunk * self.chunk_rows;
        self.chunk_rows.min(self.rows - start)
    }

    /// A sequential chunk-at-a-time reader, starting at the first block.
    pub fn cursor(&self) -> ChunkCursor<'_> {
        ChunkCursor {
            reader: self.chunk_reader(),
            next_chunk: 0,
        }
    }

    /// A random-access block reader. Each reader owns one file handle and
    /// one byte buffer for its whole lifetime — parallel workers hold one
    /// reader per column and recycle both across every chunk they read.
    pub fn chunk_reader(&self) -> ChunkReader<'_> {
        ChunkReader {
            column: self,
            file: None,
            bytes: Vec::new(),
            alloc_events: 0,
        }
    }

    /// A random-access single-row reader (used to re-key one
    /// representative per class during coarsening).
    pub fn reader(&self) -> ColumnReader<'_> {
        ColumnReader {
            column: self,
            file: None,
        }
    }

    /// Block `chunk` borrowed in place, for columns resident in memory;
    /// `None` for spilled columns.
    fn resident_chunk(&self, chunk: usize) -> Option<&[u32]> {
        match &self.storage {
            Storage::Memory(chunks) => Some(&chunks[chunk]),
            Storage::Disk(_) => None,
        }
    }

    fn open(&self, path: &PathBuf) -> Result<File> {
        File::open(path).map_err(|e| io_err(&format!("open {}", path.display()), &e))
    }
}

/// Random-access block reader over a [`ChunkedColumn`] with a reusable
/// byte buffer and one lazily opened file handle. One `read_into` call
/// allocates only if the buffer must grow — which happens at most once,
/// on the first full-size block — so steady-state reads are
/// allocation-free; [`ChunkReader::alloc_events`] counts growth events
/// and a regression test pins the count.
#[derive(Debug)]
pub struct ChunkReader<'a> {
    column: &'a ChunkedColumn,
    file: Option<File>,
    bytes: Vec<u8>,
    alloc_events: usize,
}

impl ChunkReader<'_> {
    /// Reads block `chunk` into `buf` (cleared first) and returns its row
    /// count; 0 when `chunk` is past the last block.
    ///
    /// # Errors
    /// [`Error::Io`] on spill-file read failures.
    pub fn read_into(&mut self, chunk: usize, buf: &mut Vec<u32>) -> Result<usize> {
        buf.clear();
        if chunk >= self.column.chunk_count() {
            return Ok(0);
        }
        let len = self.column.chunk_len(chunk);
        match &self.column.storage {
            Storage::Memory(chunks) => buf.extend_from_slice(&chunks[chunk]),
            Storage::Disk(path) => {
                if self.file.is_none() {
                    self.file = Some(self.column.open(path)?);
                }
                let file = self.file.as_mut().expect("opened above");
                if self.bytes.capacity() < len * 4 {
                    self.alloc_events += 1;
                }
                self.bytes.resize(len * 4, 0);
                file.seek(SeekFrom::Start(
                    chunk as u64 * self.column.chunk_rows as u64 * 4,
                ))
                .map_err(|e| io_err(&format!("seek {}", path.display()), &e))?;
                file.read_exact(&mut self.bytes)
                    .map_err(|e| io_err(&format!("read {}", path.display()), &e))?;
                buf.extend(
                    self.bytes
                        .chunks_exact(4)
                        .map(|b| u32::from_le_bytes([b[0], b[1], b[2], b[3]])),
                );
            }
        }
        Ok(len)
    }

    /// Byte-buffer growth events since creation. After the first
    /// full-size block this stays flat; the buffer-reuse test pins it.
    pub fn alloc_events(&self) -> usize {
        self.alloc_events
    }
}

/// Sequential block reader over a [`ChunkedColumn`] — a [`ChunkReader`]
/// that advances one block per call.
#[derive(Debug)]
pub struct ChunkCursor<'a> {
    reader: ChunkReader<'a>,
    next_chunk: usize,
}

impl ChunkCursor<'_> {
    /// Reads the next block into `buf` (cleared first) and returns its row
    /// count; 0 when the column is exhausted.
    ///
    /// # Errors
    /// [`Error::Io`] on spill-file read failures.
    pub fn next_into(&mut self, buf: &mut Vec<u32>) -> Result<usize> {
        let n = self.reader.read_into(self.next_chunk, buf)?;
        if n > 0 {
            self.next_chunk += 1;
        }
        Ok(n)
    }

    /// Byte-buffer growth events of the underlying reader.
    pub fn alloc_events(&self) -> usize {
        self.reader.alloc_events()
    }
}

/// Random-access single-row reader over a [`ChunkedColumn`].
#[derive(Debug)]
pub struct ColumnReader<'a> {
    column: &'a ChunkedColumn,
    file: Option<File>,
}

impl ColumnReader<'_> {
    /// The code stored at `row`.
    ///
    /// # Errors
    /// [`Error::Io`] on spill-file read failures; `row` must be in range.
    pub fn get(&mut self, row: usize) -> Result<u32> {
        assert!(row < self.column.rows, "row {row} out of range");
        match &self.column.storage {
            Storage::Memory(chunks) => {
                Ok(chunks[row / self.column.chunk_rows][row % self.column.chunk_rows])
            }
            Storage::Disk(path) => {
                if self.file.is_none() {
                    self.file = Some(self.column.open(path)?);
                }
                let file = self.file.as_mut().expect("opened above");
                file.seek(SeekFrom::Start(row as u64 * 4))
                    .map_err(|e| io_err(&format!("seek {}", path.display()), &e))?;
                let mut b = [0u8; 4];
                file.read_exact(&mut b)
                    .map_err(|e| io_err(&format!("read {}", path.display()), &e))?;
                Ok(u32::from_le_bytes(b))
            }
        }
    }
}

/// Incremental writer that produces a [`ChunkedColumn`] one code at a
/// time, flushing fixed-size blocks as they fill.
#[derive(Debug)]
struct ColumnWriter {
    chunk_rows: usize,
    rows: usize,
    dest: WriterDest,
}

#[derive(Debug)]
enum WriterDest {
    Memory {
        done: Vec<Vec<u32>>,
        current: Vec<u32>,
    },
    Disk {
        writer: BufWriter<File>,
        path: PathBuf,
    },
}

impl ColumnWriter {
    fn new(chunk_rows: usize, store: &ChunkStore, name: &str) -> Result<Self> {
        let dest = match store {
            ChunkStore::Memory => WriterDest::Memory {
                done: Vec::new(),
                current: Vec::with_capacity(chunk_rows),
            },
            ChunkStore::Disk(dir) => {
                fs::create_dir_all(dir)
                    .map_err(|e| io_err(&format!("create {}", dir.display()), &e))?;
                let path = dir.join(format!("{name}.u32"));
                let file = File::create(&path)
                    .map_err(|e| io_err(&format!("create {}", path.display()), &e))?;
                WriterDest::Disk {
                    writer: BufWriter::new(file),
                    path,
                }
            }
        };
        Ok(ColumnWriter {
            chunk_rows,
            rows: 0,
            dest,
        })
    }

    fn push(&mut self, code: u32) -> Result<()> {
        match &mut self.dest {
            WriterDest::Memory { done, current } => {
                current.push(code);
                if current.len() == self.chunk_rows {
                    done.push(std::mem::replace(
                        current,
                        Vec::with_capacity(self.chunk_rows),
                    ));
                }
            }
            WriterDest::Disk { writer, path } => {
                writer
                    .write_all(&code.to_le_bytes())
                    .map_err(|e| io_err(&format!("write {}", path.display()), &e))?;
            }
        }
        self.rows += 1;
        Ok(())
    }

    /// Appends a run of codes — the bulk entry point of the pipelined
    /// builder's in-order writer stage.
    fn push_chunk(&mut self, codes: &[u32]) -> Result<()> {
        for &code in codes {
            self.push(code)?;
        }
        Ok(())
    }

    fn finish(self) -> Result<ChunkedColumn> {
        let storage = match self.dest {
            WriterDest::Memory { mut done, current } => {
                if !current.is_empty() {
                    done.push(current);
                }
                Storage::Memory(done)
            }
            WriterDest::Disk { mut writer, path } => {
                writer
                    .flush()
                    .map_err(|e| io_err(&format!("flush {}", path.display()), &e))?;
                Storage::Disk(path)
            }
        };
        Ok(ChunkedColumn {
            rows: self.rows,
            chunk_rows: self.chunk_rows,
            storage,
        })
    }
}

/// One quasi-identifier dimension of a [`ChunkedCodec`]: raw codes as a
/// chunked column plus the per-level code maps and dictionaries.
#[derive(Debug)]
struct ChunkedDim {
    col: usize,
    monotone: bool,
    raw: ChunkedColumn,
    levels: Vec<ChunkLevel>,
}

/// Per-level interned dictionary of one quasi-identifier dimension.
#[derive(Debug)]
struct ChunkLevel {
    /// `code_map[raw_code]` is the generalized code at this level.
    code_map: Vec<u32>,
    /// `dict[gen_code]` is the generalized value (first-appearance order
    /// over ascending raw codes).
    dict: Vec<GenValue>,
    /// Every row's generalized code, gathered on first use when the raw
    /// column is one resident block and shared by every node that
    /// generalizes this dimension to this level. Spilled and multi-block
    /// columns never fill it; they gather chunk-at-a-time instead.
    resident: OnceLock<Vec<u32>>,
}

/// A non-quasi-identifier column (sensitive or insensitive), stored as
/// raw codes into the column's distinct-value summary — what the
/// sensitive-attribute property extractors stream.
#[derive(Debug)]
struct ChunkedExtra {
    col: usize,
    codes: ChunkedColumn,
}

/// The dictionary-encoded columnar view of a dataset under full-domain
/// generalization: per-dimension chunked raw-code columns plus interned
/// per-level dictionaries, with a streaming grouping pass whose results
/// are bit-identical to grouping the materialized table (see the module
/// docs).
///
/// Built either [from a materialized dataset](ChunkedCodec::from_dataset)
/// or [from a deterministic row stream](ChunkedCodec::from_rows) — the
/// latter never holds more than one chunk of any column in memory. Build
/// one per `(dataset, schema)` pair and share it across an entire lattice
/// search.
///
/// ```
/// use anoncmp_microdata::prelude::*;
///
/// let schema = Schema::new(vec![
///     Attribute::integer("age", Role::QuasiIdentifier, 0, 100)
///         .with_hierarchy(IntervalLadder::uniform(0, &[10, 20]).unwrap().into())
///         .unwrap(),
///     Attribute::categorical("d", Role::Sensitive, ["x", "y"]),
/// ])
/// .unwrap();
/// let ds = Dataset::new(
///     schema,
///     vec![
///         vec![Value::Int(15), Value::Cat(0)],
///         vec![Value::Int(18), Value::Cat(1)],
///         vec![Value::Int(25), Value::Cat(0)],
///     ],
/// )
/// .unwrap();
/// let codec = ChunkedCodec::resident(&ds).unwrap();
/// // 15 and 18 share the (10,20] bucket at level 1.
/// let part = codec.partition(&[1]).unwrap();
/// assert_eq!(part.class_count(), 2);
/// assert_eq!(part.min_class_size(), 1);
/// // The decoded table matches Lattice::apply exactly.
/// let table = codec.decode(&ds, &[1], "demo").unwrap();
/// assert_eq!(table.cell(0, 0), &GenValue::Interval { lo: 10, hi: 20 });
/// ```
#[derive(Debug)]
pub struct ChunkedCodec {
    schema: Arc<Schema>,
    rows: usize,
    chunk_rows: usize,
    on_disk: bool,
    /// Intra-node thread budget (0 = one per available CPU). Every
    /// chunked pass — partition, coarsen, class ids, the extraction and
    /// loss kernels — consults this; results are bit-identical at every
    /// setting (the merges run in chunk order on the calling thread).
    threads: AtomicUsize,
    distinct: Vec<DistinctValues>,
    dims: Vec<ChunkedDim>,
    extras: Vec<ChunkedExtra>,
}

enum DistinctSet {
    Ints(BTreeSet<i64>),
    Cats(BTreeSet<u32>),
}

impl ChunkedCodec {
    /// Builds the codec of a materialized dataset as **one resident
    /// chunk** — the substrate every lattice search runs on. Grouping
    /// borrows the single block in place and runs on the calling thread.
    ///
    /// # Errors
    /// As [`ChunkedCodec::from_dataset_in`].
    pub fn resident(dataset: &Arc<Dataset>) -> Result<Self> {
        Self::from_dataset(dataset, dataset.len().max(1))
    }

    /// Builds an in-memory chunked codec over a materialized dataset.
    ///
    /// # Errors
    /// As [`ChunkedCodec::from_dataset_in`].
    pub fn from_dataset(dataset: &Arc<Dataset>, chunk_rows: usize) -> Result<Self> {
        Self::from_dataset_in(dataset, chunk_rows, ChunkStore::Memory)
    }

    /// Builds a chunked codec over a materialized dataset with an explicit
    /// backing store. The dataset's own distinct-value summaries supply
    /// the dictionaries, so the result is identical to
    /// [`ChunkedCodec::from_rows`] over the dataset's rows without a
    /// second validation pass.
    ///
    /// # Errors
    /// `chunk_rows` must be ≥ 1 ([`Error::InvalidDataset`]); a
    /// quasi-identifier without a hierarchy is [`Error::MissingHierarchy`];
    /// spill-file failures are [`Error::Io`].
    pub fn from_dataset_in(
        dataset: &Arc<Dataset>,
        chunk_rows: usize,
        store: ChunkStore,
    ) -> Result<Self> {
        Self::check_chunk_rows(chunk_rows)?;
        let schema = dataset.schema().clone();
        let distinct: Vec<DistinctValues> = (0..schema.len())
            .map(|col| dataset.distinct(col).clone())
            .collect();
        let columns = (0..schema.len())
            .map(|col| {
                let mut writer = ColumnWriter::new(chunk_rows, &store, &format!("col{col}"))?;
                for row in dataset.rows() {
                    writer.push(
                        distinct[col]
                            .code_of(&row[col])
                            .expect("dataset values appear in their own distinct summary"),
                    )?;
                }
                writer.finish()
            })
            .collect::<Result<Vec<_>>>()?;
        Self::assemble(
            schema,
            dataset.len(),
            chunk_rows,
            &store,
            1,
            distinct,
            columns,
        )
    }

    /// Builds a chunked codec from a **deterministic** row stream, without
    /// ever materializing the full table. `make_rows` is called twice and
    /// must yield the identical sequence both times: pass 1 collects the
    /// per-column distinct-value summaries (the same `BTreeSet` summaries
    /// [`Dataset::new`] computes), pass 2 re-streams the rows assigning
    /// dense codes and writing fixed-size blocks.
    ///
    /// Peak memory with a [`ChunkStore::Disk`] store is O(chunk + distinct
    /// values); row data never accumulates.
    ///
    /// # Errors
    /// `chunk_rows` must be ≥ 1 ([`Error::InvalidDataset`]); rows are
    /// validated against the schema exactly as [`Dataset::new`] validates
    /// them; a quasi-identifier without a hierarchy is
    /// [`Error::MissingHierarchy`]; a non-deterministic stream (pass 2
    /// yields a value or row count pass 1 never saw) is
    /// [`Error::InvalidDataset`]; spill-file failures are [`Error::Io`].
    pub fn from_rows<I>(
        schema: Arc<Schema>,
        make_rows: impl Fn() -> I,
        chunk_rows: usize,
        store: ChunkStore,
    ) -> Result<Self>
    where
        I: Iterator<Item = Vec<Value>>,
    {
        Self::from_rows_parallel(schema, make_rows, chunk_rows, store, 1)
    }

    /// [`ChunkedCodec::from_rows`] with an explicit build thread budget
    /// (`0` = one per available CPU). Both passes become chunk-granular
    /// pipelines: the caller's thread buffers rows into fixed-size work
    /// items, workers validate (pass 1) or encode (pass 2) them, and
    /// results — distinct-set unions, block writes — are merged back on
    /// the caller's thread strictly in item order. Dictionaries, column
    /// files, and any validation error are therefore identical to the
    /// sequential build at every thread count. The returned codec keeps
    /// `threads` as its intra-node budget ([`ChunkedCodec::set_threads`]).
    ///
    /// # Errors
    /// As [`ChunkedCodec::from_rows`].
    pub fn from_rows_parallel<I>(
        schema: Arc<Schema>,
        make_rows: impl Fn() -> I,
        chunk_rows: usize,
        store: ChunkStore,
        threads: usize,
    ) -> Result<Self>
    where
        I: Iterator<Item = Vec<Value>>,
    {
        Self::check_chunk_rows(chunk_rows)?;
        let build_threads = parallel::resolve_threads(threads);
        // Work-item granularity: one column block, capped so the bounded
        // pipeline window never buffers more than a few MiB of row data
        // even when chunk_rows is huge.
        let item_rows = chunk_rows.clamp(1, 8192);

        // Pass 1: per-column distinct summaries + row count, validating
        // every value against the schema as Dataset::new would. Workers
        // build per-item partial summaries; the in-order merge unions
        // them, so the summaries (sets) and the first validation error
        // (first failing row in stream order) match the sequential pass.
        let mut sets: Vec<DistinctSet> = Self::empty_sets(&schema);
        let mut rows = 0usize;
        {
            let mut iter = make_rows();
            process_stream_ordered(
                build_threads,
                || {
                    let chunk: Vec<Vec<Value>> = iter.by_ref().take(item_rows).collect();
                    if chunk.is_empty() {
                        Ok(None)
                    } else {
                        rows += chunk.len();
                        Ok(Some(chunk))
                    }
                },
                || (),
                |_, _, chunk: Vec<Vec<Value>>| {
                    let mut local = Self::empty_sets(&schema);
                    for row in &chunk {
                        Self::collect_row(&schema, &mut local, row)?;
                    }
                    Ok(local)
                },
                |_, local| {
                    for (global, partial) in sets.iter_mut().zip(local) {
                        match (global, partial) {
                            (DistinctSet::Ints(g), DistinctSet::Ints(p)) => g.extend(p),
                            (DistinctSet::Cats(g), DistinctSet::Cats(p)) => g.extend(p),
                            _ => unreachable!("set kinds are fixed by the schema"),
                        }
                    }
                    Ok(())
                },
            )?;
        }
        let distinct: Vec<DistinctValues> = sets
            .into_iter()
            .map(|s| match s {
                DistinctSet::Ints(s) => DistinctValues::Integers(s.into_iter().collect()),
                DistinctSet::Cats(s) => DistinctValues::Categories(s.into_iter().collect()),
            })
            .collect();

        // Pass 2: re-stream, assigning dense raw codes (index into the
        // sorted distinct values, as `from_dataset_in` assigns them) and
        // writing fixed-size blocks. Workers encode whole items; the
        // in-order merge appends each item's per-column codes to the
        // writers, so the column files are byte-identical to the
        // sequential build.
        let mut writers: Vec<ColumnWriter> = (0..schema.len())
            .map(|col| ColumnWriter::new(chunk_rows, &store, &format!("col{col}")))
            .collect::<Result<_>>()?;
        let mut seen = 0usize;
        {
            let mut iter = make_rows();
            process_stream_ordered(
                build_threads,
                || {
                    let chunk: Vec<Vec<Value>> = iter.by_ref().take(item_rows).collect();
                    if chunk.is_empty() {
                        return Ok(None);
                    }
                    if seen + chunk.len() > rows {
                        return Err(Self::nondeterministic_stream());
                    }
                    seen += chunk.len();
                    Ok(Some(chunk))
                },
                || (),
                |_, _, chunk: Vec<Vec<Value>>| {
                    let mut cols: Vec<Vec<u32>> = (0..schema.len())
                        .map(|_| Vec::with_capacity(chunk.len()))
                        .collect();
                    for row in &chunk {
                        if row.len() != schema.len() {
                            return Err(Self::nondeterministic_stream());
                        }
                        for (col, v) in row.iter().enumerate() {
                            let code = distinct[col]
                                .code_of(v)
                                .ok_or_else(Self::nondeterministic_stream)?;
                            cols[col].push(code);
                        }
                    }
                    Ok(cols)
                },
                |_, cols: Vec<Vec<u32>>| {
                    for (writer, codes) in writers.iter_mut().zip(&cols) {
                        writer.push_chunk(codes)?;
                    }
                    Ok(())
                },
            )?;
        }
        if seen != rows {
            return Err(Self::nondeterministic_stream());
        }

        let columns = writers
            .into_iter()
            .map(ColumnWriter::finish)
            .collect::<Result<Vec<_>>>()?;
        Self::assemble(schema, rows, chunk_rows, &store, threads, distinct, columns)
    }

    fn check_chunk_rows(chunk_rows: usize) -> Result<()> {
        if chunk_rows == 0 {
            return Err(Error::InvalidDataset(
                "chunk_rows must be at least 1".into(),
            ));
        }
        Ok(())
    }

    /// Interns the per-level dictionaries of every quasi-identifier over
    /// its distinct values (ascending raw codes, so dictionary order is
    /// independent of how the rows arrived) and files the encoded schema
    /// columns as dimensions or extras.
    fn assemble(
        schema: Arc<Schema>,
        rows: usize,
        chunk_rows: usize,
        store: &ChunkStore,
        threads: usize,
        distinct: Vec<DistinctValues>,
        columns: Vec<ChunkedColumn>,
    ) -> Result<Self> {
        let mut dims = Vec::with_capacity(schema.quasi_identifiers().len());
        let mut extras = Vec::new();
        let mut columns: Vec<Option<ChunkedColumn>> = columns.into_iter().map(Some).collect();
        for &col in schema.quasi_identifiers() {
            let attr = schema.attribute(col);
            let hierarchy = attr
                .hierarchy()
                .ok_or_else(|| Error::MissingHierarchy(attr.name().to_owned()))?;
            let raw_values = distinct[col].values();
            let mut levels = Vec::with_capacity(hierarchy.max_level() + 1);
            for level in 0..=hierarchy.max_level() {
                let mut dict: Vec<GenValue> = Vec::new();
                let mut intern: HashMap<GenValue, u32> = HashMap::new();
                let mut code_map = Vec::with_capacity(raw_values.len());
                for value in &raw_values {
                    let gv = hierarchy.generalize(value, level)?;
                    let next = dict.len() as u32;
                    let code = *intern.entry(gv).or_insert(next);
                    if code == next {
                        dict.push(gv);
                    }
                    code_map.push(code);
                }
                levels.push(ChunkLevel {
                    code_map,
                    dict,
                    resident: OnceLock::new(),
                });
            }
            // Class-merge invariant: each level map must be a function of
            // the previous level's map (same code at level l ⇒ same code
            // at level l+1).
            let monotone = levels.windows(2).all(|w| {
                let (finer, coarser) = (&w[0], &w[1]);
                let mut parent: Vec<Option<u32>> = vec![None; finer.dict.len()];
                finer
                    .code_map
                    .iter()
                    .zip(&coarser.code_map)
                    .all(|(&f, &c)| match parent[f as usize] {
                        Some(seen) => seen == c,
                        None => {
                            parent[f as usize] = Some(c);
                            true
                        }
                    })
            });
            dims.push(ChunkedDim {
                col,
                monotone,
                raw: columns[col].take().expect("each column consumed once"),
                levels,
            });
        }
        for (col, slot) in columns.iter_mut().enumerate() {
            if let Some(codes) = slot.take() {
                extras.push(ChunkedExtra { col, codes });
            }
        }

        Ok(ChunkedCodec {
            schema,
            rows,
            chunk_rows,
            on_disk: matches!(store, ChunkStore::Disk(_)),
            threads: AtomicUsize::new(threads),
            distinct,
            dims,
            extras,
        })
    }

    fn empty_sets(schema: &Schema) -> Vec<DistinctSet> {
        schema
            .attributes()
            .iter()
            .map(|a| match a.domain() {
                Domain::Integer { .. } => DistinctSet::Ints(BTreeSet::new()),
                Domain::Categorical { .. } => DistinctSet::Cats(BTreeSet::new()),
            })
            .collect()
    }

    /// Validates one row against `schema` (exactly as [`Dataset::new`]
    /// does) and folds its values into the distinct-set summaries.
    fn collect_row(schema: &Schema, sets: &mut [DistinctSet], row: &[Value]) -> Result<()> {
        if row.len() != schema.len() {
            return Err(Error::ArityMismatch {
                expected: schema.len(),
                actual: row.len(),
            });
        }
        for (col, v) in row.iter().enumerate() {
            let attr = schema.attribute(col);
            if !attr.domain().contains(v) {
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
            match (&mut sets[col], v) {
                (DistinctSet::Ints(s), Value::Int(x)) => {
                    s.insert(*x);
                }
                (DistinctSet::Cats(s), Value::Cat(c)) => {
                    s.insert(*c);
                }
                _ => unreachable!("domain kind checked above"),
            }
        }
        Ok(())
    }

    fn nondeterministic_stream() -> Error {
        Error::InvalidDataset(
            "row stream changed between passes — the row factory must be deterministic".into(),
        )
    }

    /// Sets the intra-node thread budget (`0` = one per available CPU).
    /// Takes `&self` so a shared codec can be tuned after construction;
    /// results are bit-identical at every setting.
    pub fn set_threads(&self, threads: usize) {
        self.threads.store(threads, Ordering::Relaxed);
    }

    /// The resolved intra-node thread budget (always ≥ 1).
    pub fn threads(&self) -> usize {
        parallel::resolve_threads(self.threads.load(Ordering::Relaxed))
    }

    /// Number of fixed-size blocks every column is stored as.
    pub fn chunk_count(&self) -> usize {
        self.rows.div_ceil(self.chunk_rows)
    }

    /// The schema this codec encodes.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Rows per block.
    pub fn chunk_rows(&self) -> usize {
        self.chunk_rows
    }

    /// Whether the column blocks live in spill files rather than memory.
    pub fn is_on_disk(&self) -> bool {
        self.on_disk
    }

    /// Number of quasi-identifier columns (lattice dimensions).
    pub fn dims(&self) -> usize {
        self.dims.len()
    }

    /// Maximum generalization level of dimension `dim`.
    pub fn max_level(&self, dim: usize) -> usize {
        self.dims[dim].levels.len() - 1
    }

    /// The schema column index dimension `dim` encodes.
    pub fn column_of(&self, dim: usize) -> usize {
        self.dims[dim].col
    }

    /// Whether dimension `dim` satisfies the class-merge invariant.
    pub fn is_monotone(&self, dim: usize) -> bool {
        self.dims[dim].monotone
    }

    /// Whether every dimension satisfies the class-merge invariant.
    pub fn monotone(&self) -> bool {
        self.dims.iter().all(|d| d.monotone)
    }

    /// Number of distinct generalized values of dimension `dim` at
    /// `level` — `O(1)`, no scan.
    pub fn distinct_at(&self, dim: usize, level: usize) -> usize {
        self.dims[dim].levels[level].dict.len()
    }

    /// The interned dictionary of dimension `dim` at `level`.
    pub fn dict(&self, dim: usize, level: usize) -> &[GenValue] {
        &self.dims[dim].levels[level].dict
    }

    /// The distinct-value summary of schema column `col` (same summary
    /// [`Dataset::distinct`] holds).
    pub fn distinct(&self, col: usize) -> &DistinctValues {
        &self.distinct[col]
    }

    /// Validates a full-dimensional level vector.
    ///
    /// # Errors
    /// [`Error::ArityMismatch`] / [`Error::LevelOutOfRange`], as
    /// [`Lattice::validate`](crate::lattice::Lattice::validate).
    pub fn validate(&self, levels: &[usize]) -> Result<()> {
        if levels.len() != self.dims.len() {
            return Err(Error::ArityMismatch {
                expected: self.dims.len(),
                actual: levels.len(),
            });
        }
        self.validate_levels(0..self.dims.len(), levels)
    }

    /// Range-checks `levels` against the dimensions they generalize.
    fn validate_levels(
        &self,
        dims: impl IntoIterator<Item = usize>,
        levels: &[usize],
    ) -> Result<()> {
        for (dim, &level) in dims.into_iter().zip(levels) {
            let max = self.max_level(dim);
            if level > max {
                let attr = self.schema.attribute(self.dims[dim].col);
                return Err(Error::LevelOutOfRange {
                    attribute: attr.name().to_owned(),
                    level,
                    max,
                });
            }
        }
        Ok(())
    }

    /// The raw-code → generalized-code map of dimension `dim` at `level`.
    fn code_map(&self, dim: usize, level: usize) -> &[u32] {
        &self.dims[dim].levels[level].code_map
    }

    /// Bit layout for packing the generalized codes of `dims` at `levels`
    /// into one `u64` key (see [`packing_shifts`]).
    fn shifts(&self, dims: &[usize], levels: &[usize]) -> Option<Vec<u32>> {
        let dict_sizes: Vec<u32> = dims
            .iter()
            .zip(levels)
            .map(|(&dim, &level)| self.distinct_at(dim, level) as u32)
            .collect();
        packing_shifts(&dict_sizes)
    }

    /// Streams the raw blocks of `columns` strictly in chunk order,
    /// calling `f(chunk, row_base, &raws)` with `raws[i]` holding column
    /// `i`'s codes. Resident blocks are borrowed in place. For on-disk
    /// stores the blocks are read ahead on a **dedicated I/O thread**
    /// through a bounded double buffer ([`PREFETCH_DEPTH`] blocks deep),
    /// so decode/group compute overlaps the reads; consumption order — and
    /// therefore every downstream merge — is unchanged.
    fn stream_blocks<F>(&self, columns: &[&ChunkedColumn], mut f: F) -> Result<()>
    where
        F: FnMut(usize, usize, &[&[u32]]) -> Result<()>,
    {
        let chunk_count = self.chunk_count();
        if columns.is_empty() || chunk_count == 0 {
            return Ok(());
        }
        if !self.on_disk {
            let mut raws: Vec<&[u32]> = Vec::with_capacity(columns.len());
            for chunk in 0..chunk_count {
                raws.clear();
                raws.extend(
                    columns
                        .iter()
                        .map(|c| c.resident_chunk(chunk).expect("memory store")),
                );
                f(chunk, chunk * self.chunk_rows, &raws)?;
            }
            return Ok(());
        }
        // Disk: one prefetching I/O thread, buffers recycled through a
        // bounded queue. At most PREFETCH_DEPTH + 2 block sets ever exist
        // (the reader only allocates when the recycle queue is empty, at
        // which point the others are in `filled` or the consumer's hands),
        // so a recycle queue of that capacity can never block the
        // consumer's give-back push.
        let filled: Queue<(usize, Result<Vec<Vec<u32>>>)> = Queue::bounded(PREFETCH_DEPTH);
        let recycled: Queue<Vec<Vec<u32>>> = Queue::bounded(PREFETCH_DEPTH + 2);
        let mut outcome: Result<()> = Ok(());
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let mut readers: Vec<ChunkReader<'_>> =
                    columns.iter().map(|c| c.chunk_reader()).collect();
                for chunk in 0..chunk_count {
                    let mut raws = recycled
                        .try_pop()
                        .unwrap_or_else(|| vec![Vec::new(); columns.len()]);
                    let mut read: Result<()> = Ok(());
                    for (i, reader) in readers.iter_mut().enumerate() {
                        if let Err(e) = reader.read_into(chunk, &mut raws[i]) {
                            read = Err(e);
                            break;
                        }
                    }
                    let failed = read.is_err();
                    let delivered = match read {
                        Ok(()) => filled.push((chunk, Ok(raws))),
                        Err(e) => filled.push((chunk, Err(e))),
                    };
                    if failed || !delivered {
                        break;
                    }
                }
                filled.close();
            });
            for _ in 0..chunk_count {
                let Some((chunk, read)) = filled.pop() else {
                    break;
                };
                match read {
                    Ok(raws) => {
                        let views: Vec<&[u32]> = raws.iter().map(Vec::as_slice).collect();
                        if let Err(e) = f(chunk, chunk * self.chunk_rows, &views) {
                            outcome = Err(e);
                        }
                        recycled.push(raws);
                    }
                    Err(e) => outcome = Err(e),
                }
                if outcome.is_err() {
                    break;
                }
            }
            filled.close();
            recycled.close();
        });
        outcome
    }

    /// Dimension `dim`'s generalized codes at `level` for every row,
    /// gathered once and cached — only when the raw column is one
    /// resident block; `None` for spilled or multi-block columns.
    fn resident_level(&self, dim: usize, level: usize) -> Option<&[u32]> {
        let column = &self.dims[dim].raw;
        if column.chunk_count() != 1 {
            return None;
        }
        let raw = column.resident_chunk(0)?;
        let lc = &self.dims[dim].levels[level];
        Some(lc.resident.get_or_init(|| {
            let mut codes = vec![0; raw.len()];
            kernels::gather_u32(&mut codes, raw, &lc.code_map);
            codes
        }))
    }

    /// Streams the generalized codes of `dims` at `levels` (aligned)
    /// chunk-at-a-time: `f(row_base, codes)` where `codes[i]` holds the
    /// chunk's codes of `dims[i]`. Single-block resident columns are
    /// served whole from the per-level cache; otherwise raw blocks stream
    /// (prefetched from disk, see [`ChunkedCodec::stream_blocks`]) and are
    /// re-keyed through the branch-free
    /// [`gather_u32`](crate::kernels::gather_u32) kernel.
    fn stream_levels<F>(&self, dims: &[usize], levels: &[usize], mut f: F) -> Result<()>
    where
        F: FnMut(usize, &[&[u32]]) -> Result<()>,
    {
        let resident: Option<Vec<&[u32]>> = dims
            .iter()
            .zip(levels)
            .map(|(&dim, &level)| self.resident_level(dim, level))
            .collect();
        if let Some(codes) = resident {
            return f(0, &codes);
        }
        let columns: Vec<&ChunkedColumn> = dims.iter().map(|&d| &self.dims[d].raw).collect();
        let mut bufs: Vec<Vec<u32>> = vec![Vec::new(); dims.len()];
        self.stream_blocks(&columns, |_, row_base, raws| {
            for (((buf, raw), &dim), &level) in bufs.iter_mut().zip(raws).zip(dims).zip(levels) {
                buf.clear();
                buf.resize(raw.len(), 0);
                kernels::gather_u32(buf, raw, self.code_map(dim, level));
            }
            let codes: Vec<&[u32]> = bufs.iter().map(Vec::as_slice).collect();
            f(row_base, &codes)
        })
    }

    /// The grouping pass over the projection onto `dims` at `levels`
    /// (aligned with `dims`): class sizes plus one representative row per
    /// class, in first-appearance order. With `ids`, each chunk's rows'
    /// **global** class ids are handed over as the chunk completes;
    /// without, the pass stays O(chunk + classes).
    fn stream_partition(
        &self,
        dims: &[usize],
        levels: &[usize],
        mut ids: IdSink<'_>,
    ) -> Result<(Vec<u32>, Vec<u32>)> {
        if dims.is_empty() {
            // No columns: every row shares the empty signature.
            if let Some(emit) = ids {
                emit(&vec![0; self.rows]);
            }
            return Ok(if self.rows == 0 {
                (Vec::new(), Vec::new())
            } else {
                (vec![self.rows as u32], vec![0])
            });
        }
        let shifts = self.shifts(dims, levels);
        let threads = self.threads().min(self.chunk_count());
        if threads > 1 {
            return self.stream_partition_parallel(dims, levels, shifts.as_deref(), threads, ids);
        }
        let mut classes = Classes::default();
        classes.packed.reserve(1024.min(self.rows));
        let mut keys: Vec<u64> = Vec::new();
        let mut flat: Vec<u32> = Vec::new();
        let mut chunk_ids: Vec<u32> = Vec::new();
        self.stream_levels(dims, levels, |row_base, codes| {
            chunk_ids.clear();
            let keep_ids = ids.is_some();
            match &shifts {
                Some(shifts) => {
                    pack_keys(codes, shifts, &mut keys);
                    for (r, &key) in keys.iter().enumerate() {
                        let class = classes.offer_packed(key, (row_base + r) as u32, 1);
                        if keep_ids {
                            chunk_ids.push(class);
                        }
                    }
                }
                None => {
                    flat_keys(codes, &mut flat);
                    for (r, key) in flat.chunks_exact(codes.len()).enumerate() {
                        let class = classes.offer_wide(key, (row_base + r) as u32, 1);
                        if keep_ids {
                            chunk_ids.push(class);
                        }
                    }
                }
            }
            if let Some(emit) = ids.as_mut() {
                emit(&chunk_ids);
            }
            Ok(())
        })?;
        Ok((classes.sizes, classes.reps))
    }

    /// Parallel arm of [`ChunkedCodec::stream_partition`]: workers build
    /// per-chunk **partial frequency sets** (first-appearance keys, sizes,
    /// representatives, and within-chunk local ids) with worker-local
    /// readers and buffers; the caller's thread folds the partials into
    /// the global numbering **strictly in chunk-index order**. The k-th new
    /// key globally is therefore assigned id k regardless of which worker
    /// hashed it first — class numbering, sizes, and representatives are
    /// bit-identical to the sequential pass at every thread count.
    fn stream_partition_parallel(
        &self,
        dims: &[usize],
        levels: &[usize],
        shifts: Option<&[u32]>,
        threads: usize,
        mut ids: IdSink<'_>,
    ) -> Result<(Vec<u32>, Vec<u32>)> {
        struct Partial {
            /// Local classes' packed keys, or their code tuples laid out
            /// row-major (`width` codes per class).
            packed: Vec<u64>,
            wide: Vec<u32>,
            sizes: Vec<u32>,
            reps: Vec<u32>,
            ids: Vec<u32>,
        }
        struct Scratch<'a> {
            readers: Vec<ChunkReader<'a>>,
            raw: Vec<u32>,
            codes: Vec<Vec<u32>>,
            keys: Vec<u64>,
            flat: Vec<u32>,
        }
        let width = dims.len();
        let map = |scratch: &mut Scratch<'_>, chunk: usize| -> Result<Partial> {
            let row_base = chunk * self.chunk_rows;
            let Scratch {
                readers,
                raw,
                codes,
                keys,
                flat,
            } = scratch;
            for (((reader, buf), &dim), &level) in readers
                .iter_mut()
                .zip(codes.iter_mut())
                .zip(dims)
                .zip(levels)
            {
                reader.read_into(chunk, raw)?;
                buf.clear();
                buf.resize(raw.len(), 0);
                kernels::gather_u32(buf, raw, self.code_map(dim, level));
            }
            let codes: Vec<&[u32]> = codes.iter().map(Vec::as_slice).collect();
            let mut local = Classes::default();
            let mut local_ids: Vec<u32> = Vec::with_capacity(codes[0].len());
            let (mut packed, mut wide) = (Vec::new(), Vec::new());
            match shifts {
                Some(shifts) => {
                    pack_keys(&codes, shifts, keys);
                    for (r, &key) in keys.iter().enumerate() {
                        local_ids.push(local.offer_packed(key, (row_base + r) as u32, 1));
                    }
                    packed = local
                        .reps
                        .iter()
                        .map(|&rep| keys[rep as usize - row_base])
                        .collect();
                }
                None => {
                    flat_keys(&codes, flat);
                    for (r, key) in flat.chunks_exact(width).enumerate() {
                        local_ids.push(local.offer_wide(key, (row_base + r) as u32, 1));
                    }
                    for &rep in &local.reps {
                        let r = rep as usize - row_base;
                        wide.extend_from_slice(&flat[r * width..(r + 1) * width]);
                    }
                }
            }
            Ok(Partial {
                packed,
                wide,
                sizes: local.sizes,
                reps: local.reps,
                ids: local_ids,
            })
        };

        let mut classes = Classes::default();
        if shifts.is_some() {
            classes.packed.reserve(1024.min(self.rows));
        }
        let mut local_to_global: Vec<u32> = Vec::new();
        process_chunks_ordered(
            self.chunk_count(),
            threads,
            || Scratch {
                readers: dims
                    .iter()
                    .map(|&d| self.dims[d].raw.chunk_reader())
                    .collect(),
                raw: Vec::with_capacity(self.chunk_rows),
                codes: vec![Vec::new(); width],
                keys: Vec::new(),
                flat: Vec::new(),
            },
            map,
            |_, mut partial: Partial| {
                // Merge in local first-appearance order: partials arrive
                // in chunk order, so global numbering stays
                // first-appearance over the whole table.
                local_to_global.clear();
                for (lc, (&size, &rep)) in partial.sizes.iter().zip(&partial.reps).enumerate() {
                    local_to_global.push(if shifts.is_some() {
                        classes.offer_packed(partial.packed[lc], rep, size)
                    } else {
                        classes.offer_wide(&partial.wide[lc * width..(lc + 1) * width], rep, size)
                    });
                }
                if let Some(emit) = ids.as_mut() {
                    for id in partial.ids.iter_mut() {
                        *id = local_to_global[*id as usize];
                    }
                    emit(&partial.ids);
                }
                Ok(())
            },
        )?;
        Ok((classes.sizes, classes.reps))
    }

    /// Groups the node `levels` by streaming the chunked columns — class
    /// sizes plus one representative row per class, in first-appearance
    /// order, the same numbering [`EquivalenceClasses::group_by_hash`]
    /// gives the decoded table. This is the evaluation kernel of the
    /// lattice searches. Peak memory is O(chunk + classes); per-row class
    /// ids are never held.
    ///
    /// [`EquivalenceClasses::group_by_hash`]: crate::anonymized::EquivalenceClasses::group_by_hash
    ///
    /// # Errors
    /// As [`ChunkedCodec::validate`]; propagates spill-file I/O errors.
    pub fn partition(&self, levels: &[usize]) -> Result<NodePartition> {
        self.validate(levels)?;
        let dims: Vec<usize> = (0..self.dims()).collect();
        let (sizes, reps) = self.stream_partition(&dims, levels, None)?;
        Ok(NodePartition::from_parts(levels.to_vec(), sizes, reps))
    }

    /// Groups the **projection** onto the listed dimensions, generalized
    /// to `levels` (aligned with `dims`) — the evaluation kernel of the
    /// subset phases of Incognito. The returned partition's
    /// [`levels`](NodePartition::levels) are the projected ones, so it
    /// answers class-size queries such as
    /// [`tuples_below`](NodePartition::tuples_below) but is not a node
    /// [`ChunkedCodec::coarsen`] or [`NodePartition::class_ids`] accept.
    ///
    /// # Errors
    /// [`Error::ArityMismatch`] if `dims` and `levels` differ in length;
    /// [`Error::LevelOutOfRange`] for an out-of-range pair; propagates
    /// spill-file I/O errors.
    pub fn partition_subset(&self, dims: &[usize], levels: &[usize]) -> Result<NodePartition> {
        if dims.len() != levels.len() {
            return Err(Error::ArityMismatch {
                expected: dims.len(),
                actual: levels.len(),
            });
        }
        self.validate_levels(dims.iter().copied(), levels)?;
        let (sizes, reps) = self.stream_partition(dims, levels, None)?;
        Ok(NodePartition::from_parts(levels.to_vec(), sizes, reps))
    }

    /// The class id of every row under `levels`, in the first-appearance
    /// numbering [`ChunkedCodec::partition`] assigns. This is the one
    /// chunked entry point that materializes O(rows) state — property
    /// extractors that need per-row ids opt into it explicitly.
    ///
    /// # Errors
    /// As [`ChunkedCodec::validate`]; propagates spill-file I/O errors.
    pub fn class_ids(&self, levels: &[usize]) -> Result<Vec<u32>> {
        self.validate(levels)?;
        let dims: Vec<usize> = (0..self.dims()).collect();
        let mut ids: Vec<u32> = Vec::with_capacity(self.rows);
        self.stream_partition(
            &dims,
            levels,
            Some(&mut |chunk_ids: &[u32]| ids.extend_from_slice(chunk_ids)),
        )?;
        Ok(ids)
    }

    /// Derives the partition of a coarser node from `parent` by re-keying
    /// one representative per parent class — O(#classes · dims) reads
    /// instead of a full streaming pass, exploiting that generalization
    /// along nested hierarchies only merges classes (see the module docs).
    /// The result is bit-identical to [`ChunkedCodec::partition`] of
    /// `levels`.
    ///
    /// # Errors
    /// [`Error::InvalidHierarchy`] when `levels` is not component-wise ≥
    /// the parent's, or when a dimension whose level changes violates the
    /// class-merge invariant (non-nested ladder); also as
    /// [`ChunkedCodec::validate`]; propagates spill-file I/O errors.
    pub fn coarsen(&self, parent: &NodePartition, levels: &[usize]) -> Result<NodePartition> {
        self.validate(levels)?;
        for (dim, (&pl, &cl)) in parent.levels().iter().zip(levels).enumerate() {
            if cl < pl {
                return Err(Error::InvalidHierarchy(format!(
                    "coarsen requires levels ≥ the parent's, but dimension {dim} steps {pl} → {cl}"
                )));
            }
            if cl > pl && !self.is_monotone(dim) {
                return Err(Error::InvalidHierarchy(format!(
                    "dimension {dim} violates the class-merge invariant (non-nested ladder); \
                     use partition() instead"
                )));
            }
        }
        let width = self.dims();
        let dims: Vec<usize> = (0..width).collect();
        let shifts = self.shifts(&dims, levels);

        // Parent classes are merged strictly in class order — the same
        // first-appearance sequence from-scratch grouping produces.
        let reps = parent.representatives();
        let mut classes = Classes::default();
        let batch_count = reps.len().div_ceil(COARSEN_BATCH);
        let threads = self.threads().min(batch_count);
        let resident: Option<Vec<&[u32]>> = levels
            .iter()
            .enumerate()
            .map(|(dim, &level)| self.resident_level(dim, level))
            .collect();
        if let (Some(columns), Some(shifts), true) = (&resident, &shifts, threads <= 1) {
            // Resident codec: re-key straight from the cached level columns.
            for (&rep, &size) in reps.iter().zip(parent.sizes()) {
                let key = columns
                    .iter()
                    .zip(shifts)
                    .fold(0u64, |key, (column, &shift)| {
                        key | (u64::from(column[rep as usize]) << shift)
                    });
                classes.offer_packed(key, rep, size);
            }
            return Ok(NodePartition::from_parts(
                levels.to_vec(),
                classes.sizes,
                classes.reps,
            ));
        }
        // Otherwise workers look up key batches through their own
        // random-access readers and the caller's thread merges the batches
        // in order.
        process_chunks_ordered(
            batch_count,
            threads,
            || -> (Vec<ColumnReader<'_>>, Vec<u32>) {
                let readers = self.dims.iter().map(|d| d.raw.reader()).collect();
                (readers, Vec::with_capacity(width))
            },
            |(readers, key), batch| {
                let lo = batch * COARSEN_BATCH;
                let (mut packed, mut wide) = (Vec::new(), Vec::new());
                for &rep in &reps[lo..(lo + COARSEN_BATCH).min(reps.len())] {
                    key.clear();
                    for (dim, reader) in readers.iter_mut().enumerate() {
                        let raw = reader.get(rep as usize)?;
                        key.push(self.code_map(dim, levels[dim])[raw as usize]);
                    }
                    match &shifts {
                        Some(shifts) => packed.push(
                            key.iter().zip(shifts).fold(0u64, |acc, (&code, &shift)| {
                                acc | (u64::from(code) << shift)
                            }),
                        ),
                        None => wide.extend_from_slice(key),
                    }
                }
                Ok((packed, wide))
            },
            |batch, (packed, wide): (Vec<u64>, Vec<u32>)| {
                let lo = batch * COARSEN_BATCH;
                let hi = (lo + COARSEN_BATCH).min(reps.len());
                for (offset, class) in (lo..hi).enumerate() {
                    let (rep, size) = (reps[class], parent.sizes()[class]);
                    match &shifts {
                        Some(_) => classes.offer_packed(packed[offset], rep, size),
                        None => classes.offer_wide(
                            &wide[offset * width..(offset + 1) * width],
                            rep,
                            size,
                        ),
                    };
                }
                Ok(())
            },
        )?;
        Ok(NodePartition::from_parts(
            levels.to_vec(),
            classes.sizes,
            classes.reps,
        ))
    }

    /// Decodes the node `levels` into a full [`AnonymizedTable`] over
    /// `dataset`, which must be the dataset this codec encodes — the
    /// result is byte-identical to
    /// [`Lattice::apply`](crate::lattice::Lattice::apply) with the same
    /// levels. Searches call this only for the nodes they actually
    /// release.
    ///
    /// # Errors
    /// As [`ChunkedCodec::validate`]; [`Error::InvalidDataset`] when
    /// `dataset`'s shape differs from the codec's; propagates spill-file
    /// I/O and table-construction errors.
    pub fn decode(
        &self,
        dataset: &Arc<Dataset>,
        levels: &[usize],
        name: impl Into<String>,
    ) -> Result<AnonymizedTable> {
        self.validate(levels)?;
        if dataset.len() != self.rows || dataset.schema().len() != self.schema.len() {
            return Err(Error::InvalidDataset(format!(
                "the codec encodes {} rows of {} columns, the dataset has {} rows of {}",
                self.rows,
                self.schema.len(),
                dataset.len(),
                dataset.schema().len()
            )));
        }
        // col → (dictionary, per-row codes) for quasi-identifier columns;
        // every other column decodes to its raw value.
        let mut qi_source: Vec<Option<(&[GenValue], Vec<u32>)>> =
            (0..self.schema.len()).map(|_| None).collect();
        for (dim, &level) in levels.iter().enumerate() {
            qi_source[self.column_of(dim)] =
                Some((self.dict(dim, level), self.level_column(dim, level)?));
        }
        let records: Vec<Vec<GenValue>> = dataset
            .rows()
            .iter()
            .enumerate()
            .map(|(t, row)| {
                row.iter()
                    .zip(&qi_source)
                    .map(|(value, source)| match source {
                        Some((dict, codes)) => dict[codes[t] as usize],
                        None => GenValue::raw(*value),
                    })
                    .collect()
            })
            .collect();
        AnonymizedTable::new(dataset.clone(), records, name)
    }

    /// Streams dimension `dim`'s generalized codes at `level`
    /// chunk-at-a-time: `f(row_base, codes)`. Used by the chunked loss /
    /// precision kernels.
    ///
    /// # Errors
    /// Propagates spill-file I/O errors and `f`'s errors.
    pub fn for_each_level_chunk(
        &self,
        dim: usize,
        level: usize,
        mut f: impl FnMut(usize, &[u32]) -> Result<()>,
    ) -> Result<()> {
        self.stream_levels(&[dim], &[level], |row_base, codes| f(row_base, codes[0]))
    }

    /// Dimension `dim`'s generalized codes at `level` for every row, as
    /// one vector indexing [`ChunkedCodec::dict`]`(dim, level)` — O(rows);
    /// [`ChunkedCodec::decode`] is built on it.
    ///
    /// # Errors
    /// Propagates spill-file I/O errors.
    pub fn level_column(&self, dim: usize, level: usize) -> Result<Vec<u32>> {
        let mut codes: Vec<u32> = Vec::with_capacity(self.rows);
        self.for_each_level_chunk(dim, level, |_, chunk| {
            codes.extend_from_slice(chunk);
            Ok(())
        })?;
        Ok(codes)
    }

    /// Streams schema column `col`'s **raw** codes (indices into
    /// [`ChunkedCodec::distinct`]`(col)`) chunk-at-a-time: `f(row_base,
    /// codes)`. Works for every column — quasi-identifier or not; the
    /// sensitive-attribute extractors stream their column through this.
    ///
    /// # Errors
    /// Propagates spill-file I/O errors and `f`'s errors.
    pub fn for_each_raw_chunk(
        &self,
        col: usize,
        mut f: impl FnMut(usize, &[u32]) -> Result<()>,
    ) -> Result<()> {
        self.stream_blocks(&[self.raw_column(col)], |_, row_base, raws| {
            f(row_base, raws[0])
        })
    }

    /// The backing raw-code column of schema column `col` (dimension or
    /// extra). Panics if the column is out of range.
    fn raw_column(&self, col: usize) -> &ChunkedColumn {
        self.dims
            .iter()
            .find(|d| d.col == col)
            .map(|d| &d.raw)
            .or_else(|| self.extras.iter().find(|e| e.col == col).map(|e| &e.codes))
            .unwrap_or_else(|| panic!("column {col} out of range"))
    }

    /// Maps schema column `col`'s raw-code chunks through `map` on up to
    /// [`ChunkedCodec::threads`] workers (each with its own reader, open
    /// file handle, and reused buffer) and folds the per-chunk partials
    /// through `reduce` on the caller's thread **strictly in chunk
    /// order** — the parallel counterpart of
    /// [`ChunkedCodec::for_each_raw_chunk`] for consumers that build
    /// per-chunk accumulators (sensitive-value counts, distribution
    /// tallies). `map` receives `(scratch, row_base, codes)`.
    ///
    /// # Errors
    /// Propagates spill-file I/O errors and the first `map`/`reduce`
    /// error in chunk order.
    pub fn map_raw_chunks<S, T: Send>(
        &self,
        col: usize,
        make_scratch: impl Fn() -> S + Sync,
        map: impl Fn(&mut S, usize, &[u32]) -> Result<T> + Sync,
        mut reduce: impl FnMut(usize, T) -> Result<()>,
    ) -> Result<()> {
        let column = self.raw_column(col);
        let threads = self.threads().min(self.chunk_count());
        if threads <= 1 {
            let mut scratch = make_scratch();
            return self.stream_blocks(&[column], |chunk, row_base, raws| {
                let partial = map(&mut scratch, row_base, raws[0])?;
                reduce(chunk, partial)
            });
        }
        process_chunks_ordered(
            self.chunk_count(),
            threads,
            || (column.chunk_reader(), Vec::<u32>::new(), make_scratch()),
            |(reader, buf, scratch), chunk| {
                reader.read_into(chunk, buf)?;
                map(scratch, chunk * self.chunk_rows, buf)
            },
            reduce,
        )
    }

    /// Per-row accumulation of per-code term tables over several columns:
    /// for every row, adds `spec.terms[code(row)]` for each spec **in spec
    /// order** into `out` (which callers pass zero-filled). This is the
    /// engine behind the chunked loss / precision kernels.
    ///
    /// Sequentially the columns stream one after another
    /// (column-outer); in parallel each chunk computes all of its specs'
    /// contributions locally (chunk-outer) and the finished spans are
    /// copied into place. Both orders add each row's terms in spec order
    /// starting from zero, so the per-element f64 operation sequence —
    /// and therefore the result — is bit-identical.
    ///
    /// # Errors
    /// Propagates spill-file I/O errors.
    pub fn scatter_term_columns(&self, specs: &[TermColumn], out: &mut [f64]) -> Result<()> {
        let threads = self.threads().min(self.chunk_count());
        if threads <= 1 || specs.is_empty() {
            for spec in specs {
                match spec {
                    TermColumn::Level { dim, level, terms } => {
                        self.for_each_level_chunk(*dim, *level, |base, codes| {
                            kernels::gather_add_f64(
                                &mut out[base..base + codes.len()],
                                codes,
                                terms,
                            );
                            Ok(())
                        })?;
                    }
                    TermColumn::Raw { col, terms } => {
                        self.for_each_raw_chunk(*col, |base, codes| {
                            kernels::gather_add_f64(
                                &mut out[base..base + codes.len()],
                                codes,
                                terms,
                            );
                            Ok(())
                        })?;
                    }
                }
            }
            return Ok(());
        }
        let columns: Vec<&ChunkedColumn> = specs
            .iter()
            .map(|spec| match spec {
                TermColumn::Level { dim, .. } => &self.dims[*dim].raw,
                TermColumn::Raw { col, .. } => self.raw_column(*col),
            })
            .collect();
        process_chunks_ordered(
            self.chunk_count(),
            threads,
            || {
                let readers: Vec<ChunkReader<'_>> =
                    columns.iter().map(|c| c.chunk_reader()).collect();
                (readers, Vec::<u32>::new(), Vec::<u32>::new())
            },
            |(readers, raw, codes), chunk| {
                let mut acc: Vec<f64> = Vec::new();
                for (s, spec) in specs.iter().enumerate() {
                    let len = readers[s].read_into(chunk, raw)?;
                    if acc.is_empty() {
                        acc.resize(len, 0.0);
                    }
                    match spec {
                        TermColumn::Level { dim, level, terms } => {
                            let code_map = &self.dims[*dim].levels[*level].code_map;
                            codes.clear();
                            codes.resize(len, 0);
                            kernels::gather_u32(codes, raw, code_map);
                            kernels::gather_add_f64(&mut acc, codes, terms);
                        }
                        TermColumn::Raw { terms, .. } => {
                            kernels::gather_add_f64(&mut acc, raw, terms);
                        }
                    }
                }
                Ok(acc)
            },
            |chunk, acc| {
                let base = chunk * self.chunk_rows;
                out[base..base + acc.len()].copy_from_slice(&acc);
                Ok(())
            },
        )
    }
}

/// First-appearance class numbering: the k-th distinct key offered
/// becomes class k, represented by the row that offered it. Every
/// grouping pass — the sequential scan, the parallel merge and
/// coarsening — numbers classes through this one type.
#[derive(Default)]
struct Classes {
    packed: FxMap<u64, u32>,
    wide: FxMap<Vec<u32>, u32>,
    sizes: Vec<u32>,
    reps: Vec<u32>,
}

impl Classes {
    /// Counts `count` rows under the packed `key` (represented by `rep`
    /// if the key is new) and returns its class id.
    fn offer_packed(&mut self, key: u64, rep: u32, count: u32) -> u32 {
        let next = self.sizes.len() as u32;
        let class = *self.packed.entry(key).or_insert(next);
        self.tally(class, rep, count)
    }

    /// [`Classes::offer_packed`] for a code-tuple key; the tuple is copied
    /// only when it opens a new class.
    fn offer_wide(&mut self, key: &[u32], rep: u32, count: u32) -> u32 {
        let class = match self.wide.get(key) {
            Some(&class) => class,
            None => {
                let next = self.sizes.len() as u32;
                self.wide.insert(key.to_vec(), next);
                next
            }
        };
        self.tally(class, rep, count)
    }

    fn tally(&mut self, class: u32, rep: u32, count: u32) -> u32 {
        if class as usize == self.sizes.len() {
            self.sizes.push(0);
            self.reps.push(rep);
        }
        self.sizes[class as usize] += count;
        class
    }
}

/// Packs each row's generalized codes into one `u64` key: `keys[r]` ORs
/// `codes[d][r] << shifts[d]` over every dimension `d`.
fn pack_keys(codes: &[&[u32]], shifts: &[u32], keys: &mut Vec<u64>) {
    keys.clear();
    keys.resize(codes.first().map_or(0, |c| c.len()), 0);
    for (column, &shift) in codes.iter().zip(shifts) {
        for (key, &code) in keys.iter_mut().zip(column.iter()) {
            *key |= u64::from(code) << shift;
        }
    }
}

/// Lays each row's generalized codes out row-major in `flat`
/// (`codes.len()` codes per row) — the keys of the wide fallback, used
/// when the code widths exceed 64 bits.
fn flat_keys(codes: &[&[u32]], flat: &mut Vec<u32>) {
    let width = codes.len();
    flat.clear();
    flat.resize(codes.first().map_or(0, |c| c.len()) * width, 0);
    for (d, column) in codes.iter().enumerate() {
        for (r, &code) in column.iter().enumerate() {
            flat[r * width + d] = code;
        }
    }
}

/// One column's per-code term table for
/// [`ChunkedCodec::scatter_term_columns`]: which codes to stream and the
/// per-code f64 contribution of each.
pub enum TermColumn {
    /// Dimension `dim`'s generalized codes at `level`; `terms` is indexed
    /// by the level's dictionary codes.
    Level {
        /// Codec dimension index.
        dim: usize,
        /// Generalization level within the dimension.
        level: usize,
        /// Per-dictionary-code contribution.
        terms: Vec<f64>,
    },
    /// Schema column `col`'s raw codes; `terms` is indexed by the
    /// column's distinct-value codes.
    Raw {
        /// Schema column index.
        col: usize,
        /// Per-distinct-value contribution.
        terms: Vec<f64>,
    },
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::intervals::{IntervalLadder, IntervalLevel};
    use crate::lattice::Lattice;
    use crate::schema::{Attribute, Role};
    use crate::taxonomy::Taxonomy;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn schema() -> Arc<Schema> {
        Schema::new(vec![
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
        .unwrap()
    }

    fn dataset() -> Arc<Dataset> {
        Dataset::new(
            schema(),
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

    fn temp_dir(tag: &str) -> PathBuf {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("anoncmp-chunked-{tag}-{}-{n}", std::process::id()))
    }

    fn stores(tag: &str) -> Vec<ChunkStore> {
        vec![ChunkStore::Memory, ChunkStore::Disk(temp_dir(tag))]
    }

    fn cleanup(store: &ChunkStore) {
        if let ChunkStore::Disk(dir) = store {
            let _ = fs::remove_dir_all(dir);
        }
    }

    /// Every chunking the equivalence tests sweep: one resident block,
    /// plus block sizes that do and do not divide the row count.
    fn codecs(ds: &Arc<Dataset>, store: &ChunkStore) -> Vec<ChunkedCodec> {
        let mut out = vec![ChunkedCodec::resident(ds).unwrap()];
        for chunk_rows in [1, 2, 3, 5, 7] {
            out.push(ChunkedCodec::from_dataset_in(ds, chunk_rows, store.clone()).unwrap());
        }
        out
    }

    #[test]
    fn partitions_match_materialized_on_every_node_and_chunk_size() {
        let ds = dataset();
        let lattice = Lattice::new(ds.schema().clone()).unwrap();
        for store in stores("part") {
            for chunked in codecs(&ds, &store) {
                for levels in lattice.iter_all() {
                    let table = lattice.apply(&ds, &levels, "t").unwrap();
                    let classes = table.classes();
                    let part = chunked.partition(&levels).unwrap();
                    // First-appearance numbering: class c's representative
                    // is its smallest member.
                    let sizes: Vec<u32> = (0..classes.class_count())
                        .map(|c| classes.members(c).len() as u32)
                        .collect();
                    let reps: Vec<u32> = (0..classes.class_count())
                        .map(|c| classes.members(c)[0])
                        .collect();
                    assert_eq!(part.sizes(), &sizes[..], "sizes at {levels:?}");
                    assert_eq!(part.representatives(), &reps[..], "reps at {levels:?}");
                    let ids: Vec<u32> = (0..ds.len()).map(|t| classes.class_of(t) as u32).collect();
                    assert_eq!(
                        chunked.class_ids(&levels).unwrap(),
                        ids,
                        "ids at {levels:?}"
                    );
                    assert_eq!(part.class_ids(&chunked).unwrap(), &ids[..]);
                    let decoded = chunked.decode(&ds, &levels, "t").unwrap();
                    assert_eq!(decoded.records(), table.records(), "records at {levels:?}");
                    assert!(decoded.classes().same_partition(classes));
                }
            }
            cleanup(&store);
        }
    }

    #[test]
    fn coarsen_agrees_with_partition_from_scratch() {
        let ds = dataset();
        let lattice = Lattice::new(ds.schema().clone()).unwrap();
        for store in stores("coarsen") {
            for chunked in codecs(&ds, &store) {
                assert!(chunked.monotone(), "uniform ladders are nested");
                for levels in lattice.iter_all() {
                    let parent = chunked.partition(&levels).unwrap();
                    for succ in lattice.successors(&levels) {
                        let stepped = chunked.coarsen(&parent, &succ).unwrap();
                        let fresh = chunked.partition(&succ).unwrap();
                        assert_eq!(stepped.sizes(), fresh.sizes(), "{levels:?} → {succ:?}");
                        assert_eq!(stepped.representatives(), fresh.representatives());
                        assert_eq!(
                            stepped.class_ids(&chunked).unwrap(),
                            fresh.class_ids(&chunked).unwrap()
                        );
                    }
                }
            }
            cleanup(&store);
        }
    }

    #[test]
    fn coarsen_rejects_finer_levels() {
        let codec = ChunkedCodec::resident(&dataset()).unwrap();
        let parent = codec.partition(&[1, 1]).unwrap();
        assert!(matches!(
            codec.coarsen(&parent, &[0, 1]),
            Err(Error::InvalidHierarchy(_))
        ));
    }

    #[test]
    fn non_nested_ladder_detected_and_coarsen_refused() {
        // Level 1 (origin 0, width 10) puts 5 and 6 in (0,10] together;
        // level 2 (origin 5, width 20) separates them into (-15,5] and
        // (5,25] — a level-1 class *splits* when stepping up, violating
        // the class-merge invariant.
        let ladder = IntervalLadder::new_unchecked(vec![
            IntervalLevel {
                origin: 0,
                width: 10,
            },
            IntervalLevel {
                origin: 5,
                width: 20,
            },
        ])
        .unwrap();
        let schema = Schema::new(vec![Attribute::integer(
            "age",
            Role::QuasiIdentifier,
            0,
            100,
        )
        .with_hierarchy(ladder.into())
        .unwrap()])
        .unwrap();
        let ds = Dataset::new(schema, vec![vec![Value::Int(5)], vec![Value::Int(6)]]).unwrap();
        let codec = ChunkedCodec::resident(&ds).unwrap();
        assert!(
            !codec.is_monotone(0),
            "origin-shifted ladder splits classes"
        );
        let parent = codec.partition(&[1]).unwrap();
        assert_eq!(parent.class_count(), 1, "5 and 6 share (0,10]");
        assert!(codec.coarsen(&parent, &[2]).is_err());
        // From-scratch partition is still correct: they split at level 2.
        assert_eq!(codec.partition(&[2]).unwrap().class_count(), 2);
    }

    #[test]
    fn partition_subset_projects() {
        let ds = dataset();
        for chunked in codecs(&ds, &ChunkStore::Memory) {
            // Project onto the city column only, raw: 3 distinct cities.
            let part = chunked.partition_subset(&[0], &[0]).unwrap();
            assert_eq!(part.sizes(), &[3, 1, 1]);
            assert_eq!(part.representatives(), &[0, 1, 3]);
            // Fully generalized projection: one class.
            let part = chunked.partition_subset(&[0], &[1]).unwrap();
            assert_eq!(part.sizes(), &[ds.len() as u32]);
            // The full projection is the node itself.
            let full = chunked.partition_subset(&[0, 1], &[0, 1]).unwrap();
            assert_eq!(full.sizes(), chunked.partition(&[0, 1]).unwrap().sizes());
            // Arity and range validation.
            assert!(matches!(
                chunked.partition_subset(&[0], &[0, 1]),
                Err(Error::ArityMismatch { .. })
            ));
            assert!(matches!(
                chunked.partition_subset(&[0], &[9]),
                Err(Error::LevelOutOfRange { .. })
            ));
        }
    }

    #[test]
    fn distinct_at_counts_present_generalizations() {
        let codec = ChunkedCodec::resident(&dataset()).unwrap();
        // Ages 15, 25, 18, 33, 15 → 4 distinct raw, 3 level-1 buckets
        // ((10,20], (20,30], (30,40]), 2 level-2 buckets ((0,20], (20,40]).
        assert_eq!(codec.distinct_at(1, 0), 4);
        assert_eq!(codec.distinct_at(1, 1), 3);
        assert_eq!(codec.distinct_at(1, 2), 2);
        assert_eq!(codec.distinct_at(1, 3), 1, "suppression: one value");
    }

    #[test]
    fn validate_errors() {
        let ds = dataset();
        let codec = ChunkedCodec::resident(&ds).unwrap();
        assert!(matches!(
            codec.partition(&[0]),
            Err(Error::ArityMismatch { .. })
        ));
        assert!(matches!(
            codec.partition(&[0, 9]),
            Err(Error::LevelOutOfRange { .. })
        ));
        assert!(matches!(
            codec.decode(&ds, &[0], "t"),
            Err(Error::ArityMismatch { .. })
        ));
        // Decoding over a dataset of another shape is refused.
        let shorter = Dataset::new(schema(), ds.rows()[..2].to_vec()).unwrap();
        assert!(matches!(
            codec.decode(&shorter, &[0, 0], "t"),
            Err(Error::InvalidDataset(_))
        ));
    }

    #[test]
    fn missing_hierarchy_rejected() {
        let s = Schema::new(vec![Attribute::integer("age", Role::QuasiIdentifier, 0, 9)]).unwrap();
        let ds = Dataset::new(s.clone(), vec![vec![Value::Int(1)]]).unwrap();
        assert!(matches!(
            ChunkedCodec::resident(&ds),
            Err(Error::MissingHierarchy(_))
        ));
        assert!(matches!(
            ChunkedCodec::from_rows(
                s,
                || std::iter::once(vec![Value::Int(1)]),
                1,
                ChunkStore::Memory
            ),
            Err(Error::MissingHierarchy(_))
        ));
    }

    #[test]
    fn streaming_build_matches_dataset_build() {
        let ds = dataset();
        let rows: Vec<Vec<Value>> = ds.rows().to_vec();
        for store in stores("stream") {
            let streamed =
                ChunkedCodec::from_rows(schema(), || rows.iter().cloned(), 2, store.clone())
                    .unwrap();
            let from_ds = ChunkedCodec::from_dataset(&ds, 2).unwrap();
            assert_eq!(streamed.rows(), from_ds.rows());
            for dim in 0..from_ds.dims() {
                for level in 0..=from_ds.max_level(dim) {
                    assert_eq!(streamed.dict(dim, level), from_ds.dict(dim, level));
                }
            }
            let a = streamed.partition(&[1, 1]).unwrap();
            let b = from_ds.partition(&[1, 1]).unwrap();
            assert_eq!(a.sizes(), b.sizes());
            assert_eq!(a.representatives(), b.representatives());
            cleanup(&store);
        }
    }

    #[test]
    fn disk_and_memory_columns_agree() {
        let dir = temp_dir("col");
        let store = ChunkStore::Disk(dir.clone());
        let codes: Vec<u32> = (0..23).map(|i| i * 3 % 11).collect();
        let mut mem = ColumnWriter::new(4, &ChunkStore::Memory, "m").unwrap();
        let mut dsk = ColumnWriter::new(4, &store, "d").unwrap();
        for &c in &codes {
            mem.push(c).unwrap();
            dsk.push(c).unwrap();
        }
        let mem = mem.finish().unwrap();
        let dsk = dsk.finish().unwrap();
        assert_eq!(mem.chunk_count(), 6);
        assert_eq!(dsk.chunk_count(), 6);
        let (mut mc, mut dc) = (mem.cursor(), dsk.cursor());
        let (mut mb, mut db) = (Vec::new(), Vec::new());
        let mut seen: Vec<u32> = Vec::new();
        loop {
            let n = mc.next_into(&mut mb).unwrap();
            let m = dc.next_into(&mut db).unwrap();
            assert_eq!(n, m);
            assert_eq!(mb, db);
            if n == 0 {
                break;
            }
            seen.extend_from_slice(&mb);
        }
        assert_eq!(seen, codes);
        let mut reader = dsk.reader();
        for (row, &c) in codes.iter().enumerate() {
            assert_eq!(reader.get(row).unwrap(), c);
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn zero_chunk_rows_is_rejected() {
        let ds = dataset();
        assert!(matches!(
            ChunkedCodec::from_dataset(&ds, 0),
            Err(Error::InvalidDataset(_))
        ));
    }

    #[test]
    fn nondeterministic_stream_is_rejected() {
        use std::cell::Cell;
        let calls = Cell::new(0);
        let err = ChunkedCodec::from_rows(
            schema(),
            || {
                let pass = calls.get();
                calls.set(pass + 1);
                // Second pass yields a value the first never produced.
                let age = if pass == 0 { 15 } else { 16 };
                std::iter::once(vec![Value::Cat(0), Value::Int(age), Value::Cat(0)])
            },
            2,
            ChunkStore::Memory,
        )
        .unwrap_err();
        assert!(matches!(err, Error::InvalidDataset(_)), "{err}");
    }

    #[test]
    fn oversized_chunks_degenerate_to_one_block() {
        let ds = dataset();
        let chunked = ChunkedCodec::from_dataset(&ds, 1_000_000).unwrap();
        assert_eq!(chunked.chunk_count(), 1);
        let resident = ChunkedCodec::resident(&ds).unwrap();
        assert_eq!(resident.chunk_count(), 1);
        assert_eq!(resident.chunk_rows(), ds.len());
        let a = chunked.partition(&[1, 1]).unwrap();
        let b = resident.partition(&[1, 1]).unwrap();
        assert_eq!(a.sizes(), b.sizes());
        assert_eq!(a.sizes(), &[3, 1, 1]);
    }

    #[test]
    fn disk_reader_reuses_one_buffer_across_all_chunks() {
        let dir = temp_dir("alloc");
        let store = ChunkStore::Disk(dir.clone());
        let mut writer = ColumnWriter::new(8, &store, "a").unwrap();
        for i in 0..100u32 {
            writer.push(i).unwrap();
        }
        let column = writer.finish().unwrap();
        let mut reader = column.chunk_reader();
        let mut buf = Vec::new();
        // Two full passes over all 13 blocks: the byte buffer grows once,
        // on the first full-size block, and every later read — including
        // the short tail block — reuses it.
        for _ in 0..2 {
            for chunk in 0..column.chunk_count() {
                reader.read_into(chunk, &mut buf).unwrap();
            }
        }
        assert_eq!(reader.alloc_events(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn parallel_partition_and_coarsen_match_sequential() {
        let ds = dataset();
        for store in stores("par") {
            let chunked = ChunkedCodec::from_dataset_in(&ds, 2, store.clone()).unwrap();
            chunked.set_threads(1);
            let seq = chunked.partition(&[1, 1]).unwrap();
            let seq_ids = chunked.class_ids(&[1, 1]).unwrap();
            let parent_seq = chunked.partition(&[0, 0]).unwrap();
            let coarsened_seq = chunked.coarsen(&parent_seq, &[1, 1]).unwrap();
            for threads in [2, 8] {
                chunked.set_threads(threads);
                let par = chunked.partition(&[1, 1]).unwrap();
                assert_eq!(par.sizes(), seq.sizes(), "sizes @ threads={threads}");
                assert_eq!(par.representatives(), seq.representatives());
                assert_eq!(chunked.class_ids(&[1, 1]).unwrap(), seq_ids);
                let parent = chunked.partition(&[0, 0]).unwrap();
                let coarsened = chunked.coarsen(&parent, &[1, 1]).unwrap();
                assert_eq!(coarsened.sizes(), coarsened_seq.sizes());
                assert_eq!(coarsened.representatives(), coarsened_seq.representatives());
            }
            cleanup(&store);
        }
    }
}
