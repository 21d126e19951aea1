//! Layer-by-layer replay of a job list, for the traced run.
//!
//! Each job is re-executed in-process the way the engine executes it —
//! synthesize → anonymize/perturb → digest → extract → total loss →
//! journal append — with one span around each call into a layer, and the
//! tournaments of the study afterwards. Per-job seeds come from the
//! untraced run, and every replayed release digest must equal the one
//! the untraced run recorded, so the replay times the same work.

use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;

use anoncmp_core::prelude::{BoundedDistanceLoss, PropertyVector};
use anoncmp_engine::fingerprint::{hex_id, release_digest};
use anoncmp_engine::{DatasetSpec, EvalJob, EvalRecord, Journal};
use anoncmp_microdata::numeric::{NumericBase, Release};
use anoncmp_microdata::prelude::{Dataset, LossMetric};

use crate::trace::Tracer;

/// One job to replay: the job, the seed the engine derived for it, and
/// the release digest the untraced run recorded (`None` for a job that
/// did not produce a release).
pub struct ReplayJob {
    pub job: EvalJob,
    pub seed: u64,
    pub digest: Option<String>,
    /// The untraced run's record, appended to the journal when one is
    /// attached.
    pub record: Option<EvalRecord>,
}

impl ReplayJob {
    pub fn from_record(job: &EvalJob, record: &EvalRecord) -> ReplayJob {
        ReplayJob {
            job: job.clone(),
            seed: record.seed,
            digest: record.release_digest.clone(),
            record: Some(record.clone()),
        }
    }
}

#[derive(Default)]
pub struct ReplayReport {
    pub journal_appends: u64,
    pub journal_bytes: u64,
    /// Successful jobs' first property vector, keyed by `k`, in job
    /// order: the input of the study's tournaments.
    pub vectors: Vec<(usize, String, PropertyVector)>,
}

/// Replays `jobs` under the span `parent`. `journal`: append each record
/// to a fresh fsync'd journal at this path. Fails on the first digest
/// that differs from the untraced run's.
pub fn replay(
    tracer: &Tracer,
    parent: u64,
    jobs: &[ReplayJob],
    journal: Option<&Path>,
) -> Result<ReplayReport, String> {
    let mut datasets: Vec<(DatasetSpec, Arc<Dataset>)> = Vec::new();
    let mut vector_cache: HashMap<(u64, &'static str), PropertyVector> = HashMap::new();
    let mut journal = match journal {
        Some(path) => Some(Journal::create(path).map_err(|e| format!("journal: {e}"))?),
        None => None,
    };
    let mut report = ReplayReport::default();
    for (index, rj) in jobs.iter().enumerate() {
        let req = index as u64;
        let job_span = tracer.open("job", Some(parent), req);
        let pid = job_span.id();
        let job = &rj.job;

        let dataset = match datasets.iter().find(|(spec, _)| *spec == job.dataset) {
            Some((_, dataset)) => dataset.clone(),
            None => {
                let dataset =
                    tracer.time("datagen.synth_ms", pid, req, || job.dataset.materialize());
                datasets.push((job.dataset.clone(), dataset.clone()));
                dataset
            }
        };

        let release: Option<Release> = match job.algorithm.perturb() {
            Some(spec) => {
                let base = tracer.time("microdata.numeric_base_ms", pid, req, || {
                    NumericBase::of(&dataset)
                });
                base.map(|base| {
                    let name = format!("anonymize.perturb_ms.{}", job.algorithm.name());
                    tracer.time(&name, pid, req, || {
                        Release::Numeric(spec.apply(&base, rj.seed))
                    })
                })
            }
            None => {
                let name = format!("anonymize.search_ms.{}", job.algorithm.name());
                tracer
                    .time(&name, pid, req, || {
                        job.algorithm
                            .instantiate(rj.seed)
                            .anonymize(&dataset, &job.constraint())
                    })
                    .ok()
                    .map(Release::Generalized)
            }
        };

        let digest = release
            .as_ref()
            .map(|r| tracer.time("engine.digest_ms", pid, req, || release_digest(r)));
        let replayed = digest.map(hex_id);
        // A classic property on a numeric release fails the job before any
        // extraction, so such a job's record carries no digest either.
        let classic_on_numeric = matches!(release, Some(Release::Numeric(_)))
            && job.properties.iter().any(|p| !p.is_numeric());
        let expected_ok = rj.digest.is_some();
        if expected_ok && replayed != rj.digest {
            return Err(format!(
                "replayed release digest {:?} of {} k={} differs from the untraced run's {:?}",
                replayed,
                job.algorithm.label(),
                job.k,
                rj.digest
            ));
        }

        if let (true, Some(release), Some(digest)) =
            (expected_ok && !classic_on_numeric, &release, digest)
        {
            if let Release::Generalized(table) = release {
                if job.properties.iter().any(|p| p.is_numeric()) {
                    tracer.time("microdata.numeric_base_ms", pid, req, || {
                        NumericBase::of(table.dataset())
                    });
                }
            }
            let mut first: Option<PropertyVector> = None;
            for p in &job.properties {
                let tag = p.tag();
                let vector = match vector_cache.get(&(digest, tag)) {
                    Some(v) => v.clone(),
                    None => {
                        let v = tracer.time(&format!("core.extract_ms.{tag}"), pid, req, || {
                            match release {
                                Release::Numeric(n) => {
                                    p.extract_numeric(n).expect("numeric property")
                                }
                                Release::Generalized(t) => p.instantiate().extract(t),
                            }
                        });
                        vector_cache.insert((digest, tag), v.clone());
                        v
                    }
                };
                first.get_or_insert(vector);
            }
            tracer.time("microdata.total_loss_ms", pid, req, || match release {
                Release::Generalized(t) => LossMetric::classic().total_loss(t),
                Release::Numeric(n) => BoundedDistanceLoss
                    .extract_numeric(n)
                    .values()
                    .iter()
                    .map(|v| -v)
                    .sum(),
            });
            if let Some(vector) = first {
                report.vectors.push((job.k, job.algorithm.label(), vector));
            }
        }

        if let (Some(journal), Some(record)) = (journal.as_mut(), rj.record.as_ref()) {
            tracer
                .time("engine.journal.append_ms", pid, req, || {
                    journal.append(job.job_fingerprint(), record)
                })
                .map_err(|e| format!("journal append: {e}"))?;
            report.journal_appends += 1;
        }
        tracer.close(job_span);
    }
    if let Some(journal) = journal {
        report.journal_bytes = std::fs::metadata(journal.path()).map_or(0, |m| m.len());
    }
    Ok(report)
}
