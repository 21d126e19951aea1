//! Codec-vs-materialized equivalence: the search algorithms, which
//! evaluate every node on the chunked codec, must return **bit-identical**
//! winning nodes and releases to reference reimplementations that
//! materialize a table at every lattice node (the pre-codec evaluation
//! strategy).
//!
//! The references below deliberately re-state each search in its naive
//! form — `Lattice::apply` + `Constraint::enforce` per node — so any
//! divergence introduced by the frequency-set fast path, incremental
//! coarsening, or decode-only-the-winner routing shows up as a failed
//! equality, not a subtle loss delta. CI runs this as the perf-smoke
//! equivalence gate.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use anoncmp_anonymize::prelude::*;
use anoncmp_datagen::census::{generate, CensusConfig};
use anoncmp_datagen::paper::{paper_schema_t3, paper_table1};
use anoncmp_microdata::loss::LossMetric;
use anoncmp_microdata::prelude::*;

// ----------------------------------------------------------------------
// Reference implementations (materialize every evaluated node).
// ----------------------------------------------------------------------

fn ref_satisfying_at_height(
    lattice: &Lattice,
    ds: &Arc<Dataset>,
    constraint: &Constraint,
    height: usize,
) -> Vec<(LevelVector, AnonymizedTable)> {
    let mut out = Vec::new();
    for levels in lattice.nodes_at_height(height) {
        let table = lattice.apply(ds, &levels, "samarati").expect("valid node");
        if let Some(enforced) = constraint.enforce(&table) {
            out.push((levels, enforced));
        }
    }
    out
}

/// Samarati's binary search, evaluating every node through a full table.
fn ref_samarati(
    ds: &Arc<Dataset>,
    constraint: &Constraint,
) -> Option<(LevelVector, AnonymizedTable)> {
    let lattice = Lattice::new(ds.schema().clone()).unwrap();
    if ref_satisfying_at_height(&lattice, ds, constraint, lattice.max_height()).is_empty() {
        return None;
    }
    let (mut lo, mut hi) = (0usize, lattice.max_height());
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if ref_satisfying_at_height(&lattice, ds, constraint, mid).is_empty() {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    let frontier = ref_satisfying_at_height(&lattice, ds, constraint, lo);
    let metric = LossMetric::classic();
    frontier
        .into_iter()
        .min_by(|a, b| {
            metric
                .total_loss(&a.1)
                .partial_cmp(&metric.total_loss(&b.1))
                .unwrap()
        })
        .map(|(l, t)| (l, t.renamed("samarati")))
}

/// Incognito's BFS with anti-monotone pruning, one table per evaluation.
fn ref_incognito(
    ds: &Arc<Dataset>,
    constraint: &Constraint,
) -> Option<(LevelVector, AnonymizedTable)> {
    let lattice = Lattice::new(ds.schema().clone()).unwrap();
    let mut status: HashMap<LevelVector, bool> = HashMap::new();
    let mut frontier: Vec<(LevelVector, AnonymizedTable)> = Vec::new();
    let mut queue: VecDeque<LevelVector> = VecDeque::new();
    queue.push_back(lattice.bottom());
    while let Some(levels) = queue.pop_front() {
        if status.contains_key(&levels) {
            continue;
        }
        let dominated = frontier.iter().any(|(f, _)| Lattice::leq(f, &levels));
        let sat = dominated || {
            let table = lattice.apply(ds, &levels, "incognito").expect("valid node");
            match constraint.enforce(&table) {
                Some(t) => {
                    frontier.push((levels.clone(), t));
                    true
                }
                None => false,
            }
        };
        status.insert(levels.clone(), sat);
        if !sat {
            for s in lattice.successors(&levels) {
                queue.push_back(s);
            }
        }
    }
    let minimal: Vec<(LevelVector, AnonymizedTable)> = frontier
        .iter()
        .filter(|(cand, _)| {
            !frontier
                .iter()
                .any(|(l, _)| l != cand && Lattice::leq(l, cand))
        })
        .cloned()
        .collect();
    let metric = LossMetric::classic();
    minimal
        .into_iter()
        .min_by(|a, b| {
            metric
                .total_loss(&a.1)
                .partial_cmp(&metric.total_loss(&b.1))
                .unwrap()
        })
        .map(|(l, t)| (l, t.renamed("incognito")))
}

/// Exhaustive search, one table per lattice node.
fn ref_optimal(
    ds: &Arc<Dataset>,
    constraint: &Constraint,
) -> Option<(LevelVector, AnonymizedTable)> {
    let lattice = Lattice::new(ds.schema().clone()).unwrap();
    let metric = LossMetric::classic();
    let mut best: Option<(f64, LevelVector, AnonymizedTable)> = None;
    for levels in lattice.iter_all() {
        let table = lattice.apply(ds, &levels, "optimal").expect("valid node");
        let Some(enforced) = constraint.enforce(&table) else {
            continue;
        };
        let loss = metric.total_loss(&enforced);
        if best.as_ref().is_none_or(|(l, ..)| loss < *l) {
            best = Some((loss, levels, enforced));
        }
    }
    best.map(|(_, l, t)| (l, t))
}

// ----------------------------------------------------------------------
// Equality assertions.
// ----------------------------------------------------------------------

/// Bit-identical releases: same cells, same suppression mask, same name.
fn assert_identical(context: &str, a: &AnonymizedTable, b: &AnonymizedTable) {
    assert_eq!(a.name(), b.name(), "{context}: names differ");
    assert_eq!(
        a.suppression_mask(),
        b.suppression_mask(),
        "{context}: suppression masks differ"
    );
    assert_eq!(a.records(), b.records(), "{context}: cells differ");
}

fn datasets() -> Vec<(&'static str, Arc<Dataset>)> {
    vec![
        ("paper_table1", paper_table1(paper_schema_t3())),
        (
            "census",
            generate(&CensusConfig {
                rows: 120,
                seed: 99,
                zip_pool: 12,
            }),
        ),
    ]
}

fn constraints(n: usize) -> Vec<Constraint> {
    vec![
        Constraint::k_anonymity(2),
        Constraint::k_anonymity(3).with_suppression(n / 10),
        Constraint::k_anonymity(5).with_suppression(n / 5),
    ]
}

#[test]
fn samarati_matches_materialized_reference() {
    for (label, ds) in datasets() {
        for c in constraints(ds.len()) {
            let reference = ref_samarati(&ds, &c).expect("satisfiable on seed data");
            let outcome = Samarati::default().run(&ds, &c).expect("satisfiable");
            let ctx = format!("samarati/{label}/{}", c.describe());
            assert_eq!(outcome.levels, reference.0, "{ctx}: winning node differs");
            assert_identical(&ctx, &outcome.table, &reference.1);
        }
    }
}

#[test]
fn incognito_matches_materialized_reference() {
    for (label, ds) in datasets() {
        for c in constraints(ds.len()) {
            let reference = ref_incognito(&ds, &c).expect("satisfiable on seed data");
            let outcome = Incognito::default().run(&ds, &c).expect("satisfiable");
            let ctx = format!("incognito/{label}/{}", c.describe());
            assert_eq!(outcome.levels, reference.0, "{ctx}: winning node differs");
            assert_identical(&ctx, &outcome.table, &reference.1);
        }
    }
}

#[test]
fn optimal_matches_materialized_reference() {
    for (label, ds) in datasets() {
        for c in constraints(ds.len()) {
            let reference = ref_optimal(&ds, &c).expect("satisfiable on seed data");
            let (table, levels, _) = OptimalLattice::default().run(&ds, &c).expect("satisfiable");
            let ctx = format!("optimal/{label}/{}", c.describe());
            assert_eq!(levels, reference.0, "{ctx}: winning node differs");
            assert_identical(&ctx, &table, &reference.1);
        }
    }
}

#[test]
fn datafly_matches_materialized_reference() {
    // Datafly's greedy path must be unchanged too: replay the loop with
    // materialized tables and a HashSet distinct count per dimension.
    use std::collections::HashSet;
    for (label, ds) in datasets() {
        for c in constraints(ds.len()) {
            let lattice = Lattice::new(ds.schema().clone()).unwrap();
            let qi: Vec<usize> = ds.schema().quasi_identifiers().to_vec();
            let mut levels = lattice.bottom();
            let reference = loop {
                let table = lattice.apply(&ds, &levels, "datafly").expect("valid node");
                if let Some(done) = c.enforce(&table) {
                    break (levels.clone(), done);
                }
                let mut best: Option<(usize, usize)> = None;
                for (dim, &col) in qi.iter().enumerate() {
                    if levels[dim] >= lattice.max_levels()[dim] {
                        continue;
                    }
                    let distinct = table
                        .records()
                        .iter()
                        .map(|r| r[col])
                        .collect::<HashSet<_>>()
                        .len();
                    if best.is_none_or(|(_, d)| distinct > d) {
                        best = Some((dim, distinct));
                    }
                }
                let (dim, _) = best.expect("satisfiable on seed data");
                levels[dim] += 1;
            };
            let (table, levels) = Datafly.run(&ds, &c).expect("satisfiable");
            let ctx = format!("datafly/{label}/{}", c.describe());
            assert_eq!(levels, reference.0, "{ctx}: final node differs");
            assert_identical(&ctx, &table, &reference.1);
        }
    }
}
