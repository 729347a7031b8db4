//! The streaming disguise + estimation pipeline (`optrr-pipeline`).
//!
//! The serving layer of PR 2 answers *which matrix to use*; this module
//! closes the paper's end-to-end loop by also *using* it. A client streams
//! categorical responses for a registered key: raw responses are disguised
//! server-side through the warm matrix selected for the stream's privacy
//! bound, pre-counted batches (already disguised client-side) land
//! directly. Batches accumulate in the key's [`IngestCounts`], one count
//! set behind one lock, and `Estimate` reconstructs the original
//! distribution from the accumulated counts: matrix inversion (Theorem 1)
//! when the pinned matrix is invertible, with automatic fallback to the
//! iterative Bayesian estimator (Equation 3) otherwise. Re-estimates warm-start the iterative
//! estimator from the previous posterior, so streaming re-estimation after
//! new batches costs a handful of iterations, not a cold converge.
//!
//! Estimation is also the service's first *telemetry-driven refresh
//! trigger*: when the estimated distribution drifts from the registered
//! prior beyond the configured MSE threshold, the key is marked stale and
//! (by default) one refresh engine run is scheduled on the worker pool —
//! the matrices were optimized for a prior the population no longer
//! follows.
//!
//! Determinism contract: the matrix pinned at the first ingest comes from
//! the deterministic warm store; a batch's disguise RNG seed defaults to a
//! fingerprint of the batch payload (so it does not depend on stream
//! interleaving); and count accumulation commutes. Together these make
//! concurrent ingest bitwise-equal to a single-stream run over the same
//! batches — the end-to-end tests assert it.

use crate::counts::IngestCounts;
use crate::lifecycle::StaleReason;
use crate::registry::KeyEntry;
use crate::service::{Result, ServeError, Service};
use crate::telemetry::ServeEvent;
use optrr::Evaluation;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rr::estimate::{
    estimate_from_disguised_frequencies, iterative_estimate_from_frequencies,
    iterative_estimate_warm,
};
use rr::{ColumnSamplers, RrMatrix};
use serde::{Deserialize, Serialize};
use stats::divergence::mean_squared_error;
use stats::{Categorical, CountSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// The per-key streaming state: the pinned disguise matrix, the response
/// accumulator, and the warm-start posterior carried between estimates.
#[derive(Debug)]
pub struct KeyPipeline {
    matrix: RrMatrix,
    /// The pinned matrix's Walker/Vose alias tables, built once beside
    /// the pin. Building them is the O(n²) part of a disguise call;
    /// caching them here means a stream of small raw batches pays O(n²)
    /// once per pin, not once per batch. The tables are a deterministic
    /// function of the matrix and consume no RNG, so the cached path is
    /// bitwise-identical to a per-batch rebuild (asserted in
    /// `rr::disguise`).
    samplers: ColumnSamplers,
    evaluation: Evaluation,
    min_privacy: f64,
    counts: IngestCounts,
    raw_records: AtomicU64,
    estimates: AtomicU64,
    posterior: Mutex<Option<Categorical>>,
}

impl KeyPipeline {
    pub(crate) fn new(
        matrix: RrMatrix,
        evaluation: Evaluation,
        min_privacy: f64,
    ) -> std::result::Result<Self, String> {
        let num_categories = matrix.num_categories();
        let samplers = ColumnSamplers::new(&matrix)
            .map_err(|e| format!("pinned matrix rejected by the sampler build: {e}"))?;
        Ok(Self {
            matrix,
            samplers,
            evaluation,
            min_privacy,
            counts: IngestCounts::new(num_categories),
            raw_records: AtomicU64::new(0),
            estimates: AtomicU64::new(0),
            posterior: Mutex::new(None),
        })
    }

    /// The disguise matrix pinned at the first ingest. Every batch of the
    /// key's stream goes through this one matrix, so the estimators can
    /// invert a single known channel.
    pub fn matrix(&self) -> &RrMatrix {
        &self.matrix
    }

    /// The pinned matrix's cached alias tables (see the field docs).
    pub fn samplers(&self) -> &ColumnSamplers {
        &self.samplers
    }

    /// The pinned matrix's evaluation (privacy, closed-form MSE) at
    /// selection time.
    pub fn evaluation(&self) -> &Evaluation {
        &self.evaluation
    }

    /// The privacy bound that selected the pinned matrix.
    pub fn min_privacy(&self) -> f64 {
        self.min_privacy
    }

    /// The response accumulator.
    pub fn counts(&self) -> &IngestCounts {
        &self.counts
    }

    /// Raw records disguised server-side (pre-counted batches excluded).
    pub fn raw_records(&self) -> u64 {
        self.raw_records.load(Ordering::SeqCst)
    }

    /// Estimates computed for this key.
    pub fn estimates(&self) -> u64 {
        self.estimates.load(Ordering::SeqCst)
    }

    /// The previous estimate, used to warm-start the iterative estimator
    /// — and, under drift-driven re-optimization, as the refresh run's
    /// optimization target.
    ///
    /// Every write under this lock is a whole-value replacement
    /// (`*guard = Some(..)`), so a holder that panicked mid-store cannot
    /// have left a torn posterior behind — the lock recovers from
    /// poisoning instead of cascading the panic into later estimates.
    pub fn posterior(&self) -> Option<Categorical> {
        self.posterior
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clone()
    }

    /// Approximate resident heap bytes: the pinned matrix, the
    /// accumulator's count vector plus a fixed allowance for its counters
    /// and lock, and the stored posterior.
    pub fn approx_bytes(&self) -> u64 {
        let n = self.matrix.num_categories() as u64;
        n * n * 8 + (n * 8 + 64) + n * 8 + 64
    }

    /// The pipeline's persisted form: pinned channel, accumulated counts,
    /// counters, and posterior — everything a restart needs to resume the
    /// estimation stream bitwise.
    pub fn snapshot(&self) -> PipelineSnapshot {
        PipelineSnapshot {
            matrix: self.matrix.clone(),
            evaluation: self.evaluation,
            min_privacy: self.min_privacy,
            counts: self.counts.merge(),
            raw_records: self.raw_records(),
            estimates: self.estimates(),
            posterior: self.posterior(),
        }
    }

    /// Rebuilds a pipeline from its persisted form. Accumulation
    /// commutes, so later batches land on top of the restored counts
    /// exactly as they would have on the live accumulator.
    pub fn restore(snapshot: &PipelineSnapshot) -> std::result::Result<Self, String> {
        let n = snapshot.matrix.num_categories();
        if snapshot.counts.num_categories() != n {
            return Err(format!(
                "pipeline snapshot counts cover {} categories, the pinned matrix {}",
                snapshot.counts.num_categories(),
                n
            ));
        }
        let pipeline = Self::new(
            snapshot.matrix.clone(),
            snapshot.evaluation,
            snapshot.min_privacy,
        )?;
        if !snapshot.counts.is_empty() {
            pipeline
                .counts
                .absorb(&snapshot.counts)
                .map_err(|e| format!("pipeline snapshot counts rejected: {e}"))?;
        }
        pipeline
            .raw_records
            .store(snapshot.raw_records, Ordering::SeqCst);
        pipeline
            .estimates
            .store(snapshot.estimates, Ordering::SeqCst);
        if let Some(posterior) = &snapshot.posterior {
            if posterior.num_categories() != n {
                return Err(format!(
                    "pipeline snapshot posterior covers {} categories, the pinned matrix {n}",
                    posterior.num_categories()
                ));
            }
            // The serialized Categorical restores its exact bit pattern,
            // so warm-started re-estimates resume identically. (Whole-value
            // replacement: poison recovery is safe, see `posterior`.)
            *pipeline
                .posterior
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner) = Some(posterior.clone());
        }
        Ok(pipeline)
    }
}

/// The persisted form of a [`KeyPipeline`] (pipeline persistence phase 2):
/// enough for a restarted server to resume the in-flight estimation
/// stream — the pinned channel, the accumulated counts, and the posterior
/// the next estimate warm-starts from. The key's drift history lives in
/// [`crate::KeySnapshot::drift_events`]; older snapshots that also carry
/// a pipeline `drift_events` field still decode (unknown fields are
/// ignored).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PipelineSnapshot {
    /// The disguise matrix pinned at first ingest.
    pub matrix: RrMatrix,
    /// The pinned matrix's evaluation at selection time.
    pub evaluation: Evaluation,
    /// The privacy bound that selected the pinned matrix.
    pub min_privacy: f64,
    /// The accumulated responses (counts, total, batch counter).
    pub counts: CountSet,
    /// Raw records disguised server-side before the snapshot.
    pub raw_records: u64,
    /// Estimates computed before the snapshot.
    pub estimates: u64,
    /// The warm-start posterior, when an estimate has run (serialized
    /// bit-exact so resumed re-estimates match the live service).
    pub posterior: Option<Categorical>,
}

/// How an estimate reconstructed the distribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EstimateMethod {
    /// Matrix inversion (Theorem 1): `P̂ = M⁻¹ P̂*`, simplex-projected.
    Inversion,
    /// The iterative Bayesian estimator (Equation 3), used when the pinned
    /// matrix is singular, warm-started from the previous posterior.
    Iterative,
}

impl std::fmt::Display for EstimateMethod {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            EstimateMethod::Inversion => "inversion",
            EstimateMethod::Iterative => "iterative",
        })
    }
}

/// The outcome of one ingest batch.
#[derive(Debug, Clone, PartialEq)]
pub struct IngestOutcome {
    /// The key the batch landed on.
    pub key: u64,
    /// Responses accepted from this batch.
    pub accepted: u64,
    /// Of the accepted raw responses, how many kept their original value
    /// through the disguise (0 for pre-counted batches).
    pub retained: u64,
    /// Total responses accumulated for the key so far.
    pub total: u64,
    /// Total batches accumulated for the key so far.
    pub batches: u64,
    /// Privacy of the pinned disguise matrix.
    pub privacy: f64,
}

/// The outcome of one estimate.
#[derive(Debug, Clone, PartialEq)]
pub struct EstimateOutcome {
    /// The key that was estimated.
    pub key: u64,
    /// Which estimator produced the distribution.
    pub method: EstimateMethod,
    /// The reconstructed original distribution.
    pub distribution: Categorical,
    /// Iterations the iterative estimator performed (0 for inversion).
    pub iterations: u64,
    /// Convergence residual of the iterative estimator (0 for inversion).
    pub residual: f64,
    /// MSE between the reconstruction and the registered prior — the
    /// drift signal.
    pub mse_vs_prior: f64,
    /// Total responses the estimate is based on.
    pub total_responses: u64,
    /// Batches the estimate is based on.
    pub batches: u64,
    /// Whether the estimate exceeded the drift threshold (the key was
    /// marked stale and, if configured, a refresh run was scheduled).
    pub drifted: bool,
    /// Whether the key was stale when the estimate returned (a drift
    /// refresh that already landed clears it again).
    pub stale: bool,
}

/// Deterministic default seed for a batch's disguise RNG: an FNV-1a
/// fingerprint ([`optrr::fnv1a_64`]) of the payload mixed with the key and
/// the service's base seed. Depending only on *what* is ingested — never
/// on when or on which stream — it makes concurrent ingest reproduce a
/// single-stream run bit for bit even when no explicit seed is supplied.
///
/// The flip side of that determinism: byte-identical batches reuse
/// byte-identical disguise draws, so a client replaying one payload many
/// times accumulates perfectly correlated noise instead of fresh
/// randomness (and its estimate will not converge with the repeat count).
/// Streams that legitimately repeat payloads should pass distinct
/// explicit `seed`s per batch.
pub fn payload_seed(base_seed: u64, key: u64, records: &[usize]) -> u64 {
    optrr::fnv1a_64(
        [base_seed, key, records.len() as u64]
            .into_iter()
            .chain(records.iter().map(|&r| r as u64)),
    )
}

impl Service {
    /// The pipeline of a key, installing one on first use: the disguise
    /// matrix is selected from the warm store as the best matrix with
    /// privacy ≥ `min_privacy` (waiting for warm-up like any point query)
    /// and pinned for the life of the stream. Later calls reuse the pinned
    /// pipeline whatever bound they pass, so one key is always one channel.
    pub fn pipeline_for(
        self: &Arc<Self>,
        entry: &Arc<KeyEntry>,
        min_privacy: f64,
    ) -> Result<Arc<KeyPipeline>> {
        if let Some(pipeline) = entry.pipeline() {
            return Ok(pipeline);
        }
        let found = self.best_for_privacy(entry, min_privacy).ok_or_else(|| {
            ServeError::InvalidRequest(format!(
                "no stored matrix with privacy >= {min_privacy} to pin for ingest"
            ))
        })?;
        let pipeline = KeyPipeline::new(found.matrix, found.evaluation, min_privacy)
            .map_err(ServeError::InvalidRequest)?;
        self.obs()
            .emit(ServeEvent::SamplerRebuild { key: entry.key() });
        // A concurrent first ingest may have won the race; install returns
        // the pipeline that ended up pinned either way.
        Ok(entry.install_pipeline(pipeline))
    }

    /// Stateless one-shot disguise: selects the best warm matrix for the
    /// privacy bound and returns the disguised records without
    /// accumulating anything. The seed defaults to the payload
    /// fingerprint, so equal requests give equal answers.
    pub fn disguise(
        self: &Arc<Self>,
        entry: &Arc<KeyEntry>,
        min_privacy: f64,
        records: &[usize],
        seed: Option<u64>,
    ) -> Result<(Evaluation, Vec<usize>, u64)> {
        let found = self.best_for_privacy(entry, min_privacy).ok_or_else(|| {
            ServeError::InvalidRequest(format!(
                "no stored matrix with privacy >= {min_privacy} to disguise through"
            ))
        })?;
        let (disguised, retained) =
            self.disguise_batch(&found.matrix, None, entry.key(), records, seed)?;
        Ok((found.evaluation, disguised, retained))
    }

    /// The one disguise path shared by `disguise` and `ingest`: applies
    /// the matrix to one batch under the explicit seed or its
    /// payload-fingerprint default, returning the disguised records and
    /// how many kept their original value. `samplers` carries the pinned
    /// pipeline's cached alias tables; the stateless `Disguise` verb has
    /// no pipeline to cache in and passes `None`, paying the build per
    /// call. The two paths are bitwise-identical for the same seed.
    fn disguise_batch(
        &self,
        matrix: &RrMatrix,
        samplers: Option<&ColumnSamplers>,
        key: u64,
        records: &[usize],
        seed: Option<u64>,
    ) -> Result<(Vec<usize>, u64)> {
        if records.is_empty() {
            return Err(ServeError::InvalidRequest(
                "a disguise batch needs at least one record".into(),
            ));
        }
        let dataset = datagen::CategoricalDataset::new(matrix.num_categories(), records.to_vec())
            .map_err(|e| ServeError::InvalidRequest(format!("invalid records: {e}")))?;
        let seed = seed.unwrap_or_else(|| payload_seed(self.config().base.seed, key, records));
        let mut rng = StdRng::seed_from_u64(seed);
        let outcome = match samplers {
            Some(samplers) => rr::disguise_dataset_with(samplers, &dataset, &mut rng),
            None => {
                self.obs().emit(ServeEvent::SamplerRebuild { key });
                rr::disguise_dataset(matrix, &dataset, &mut rng)
            }
        }
        .map_err(|e| ServeError::InvalidRequest(format!("disguise failed: {e}")))?;
        Ok((
            outcome.disguised.records().to_vec(),
            outcome.retained as u64,
        ))
    }

    /// Ingests one batch of responses for a key. Exactly one of `records`
    /// (raw, disguised server-side through the pinned matrix) or `counts`
    /// (pre-counted responses already disguised client-side) must be
    /// given. The reply's running total and batch count come from the
    /// lock hold that added the batch.
    pub fn ingest(
        self: &Arc<Self>,
        entry: &Arc<KeyEntry>,
        min_privacy: Option<f64>,
        records: Option<&[usize]>,
        counts: Option<&[u64]>,
        seed: Option<u64>,
    ) -> Result<IngestOutcome> {
        /// A validated ingest batch: one source of truth for the shape.
        enum Batch<'a> {
            Raw(&'a [usize]),
            Counted(&'a [u64], u64),
        }
        // Validate the batch BEFORE pinning a pipeline: a malformed first
        // ingest must not pin the key's matrix at whatever privacy floor
        // it happened to carry.
        let n = entry.prior().num_categories();
        let batch = match (records, counts) {
            (Some(records), None) => {
                stats::CountSet::validate_records(n, records)
                    .map_err(|e| ServeError::InvalidRequest(format!("invalid batch: {e}")))?;
                Batch::Raw(records)
            }
            (None, Some(counts)) => {
                let total = stats::CountSet::validate_counts(n, counts)
                    .map_err(|e| ServeError::InvalidRequest(format!("invalid batch: {e}")))?;
                Batch::Counted(counts, total)
            }
            _ => {
                return Err(ServeError::InvalidRequest(
                    "an ingest batch needs exactly one of `records` or `counts`".into(),
                ))
            }
        };
        let pipeline = self.pipeline_for(entry, min_privacy.unwrap_or(0.0))?;
        let (accepted, retained, (total, batches)) = match batch {
            Batch::Raw(records) => {
                // The cached alias tables make a small raw batch cost
                // O(batch), not O(n²) + O(batch).
                let (disguised, retained) = self.disguise_batch(
                    pipeline.matrix(),
                    Some(pipeline.samplers()),
                    entry.key(),
                    records,
                    seed,
                )?;
                let running = pipeline
                    .counts()
                    .ingest_records(&disguised)
                    .map_err(|e| ServeError::InvalidRequest(format!("invalid batch: {e}")))?;
                pipeline
                    .raw_records
                    .fetch_add(records.len() as u64, Ordering::SeqCst);
                (records.len() as u64, retained, running)
            }
            Batch::Counted(counts, accepted) => {
                let running = pipeline
                    .counts()
                    .ingest_counts(counts)
                    .map_err(|e| ServeError::InvalidRequest(format!("invalid batch: {e}")))?;
                (accepted, 0, running)
            }
        };
        entry.touch(self.now_ms());
        self.obs().emit(ServeEvent::Ingest {
            key: entry.key(),
            accepted,
            total,
        });
        Ok(IngestOutcome {
            key: entry.key(),
            accepted,
            retained,
            total,
            batches,
            privacy: pipeline.evaluation().privacy,
        })
    }

    /// Reconstructs the original distribution from a key's accumulated
    /// responses: inversion first, iterative fallback (warm-started from
    /// the previous posterior) when the pinned matrix is singular. Updates
    /// the warm-start posterior, and on drift beyond the configured MSE
    /// threshold marks the key stale and (if configured) schedules one
    /// refresh engine run — the telemetry-driven refresh trigger.
    pub fn estimate(self: &Arc<Self>, entry: &Arc<KeyEntry>) -> Result<EstimateOutcome> {
        // An evicted key re-warms first (restoring its persisted pipeline
        // when a sidecar exists), so estimation is as eviction-transparent
        // as the point queries.
        self.ensure_live(entry);
        let pipeline = entry.pipeline().ok_or_else(|| {
            ServeError::InvalidRequest("no responses ingested for this key yet".into())
        })?;
        let merged = pipeline.counts().merge();
        let p_star = merged.empirical_distribution().map_err(|_| {
            ServeError::InvalidRequest("no responses ingested for this key yet".into())
        })?;
        let (method, distribution, iterations, residual) =
            match estimate_from_disguised_frequencies(pipeline.matrix(), &p_star) {
                Ok(inverted) => (EstimateMethod::Inversion, inverted.distribution, 0, 0.0),
                Err(_) => {
                    // Singular (or otherwise non-invertible) channel: fall
                    // back to the iterative estimator, resuming from the
                    // previous posterior when one exists.
                    let config = self.config().iterative;
                    let out = match pipeline.posterior() {
                        Some(start) => {
                            iterative_estimate_warm(pipeline.matrix(), &p_star, &start, &config)
                        }
                        None => {
                            iterative_estimate_from_frequencies(pipeline.matrix(), &p_star, &config)
                        }
                    }
                    .map_err(|e| ServeError::InvalidRequest(format!("estimation failed: {e}")))?;
                    (
                        EstimateMethod::Iterative,
                        out.distribution,
                        out.iterations as u64,
                        out.residual,
                    )
                }
            };
        // Whole-value replacement: poison recovery is safe, see `posterior`.
        *pipeline
            .posterior
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner) = Some(distribution.clone());
        pipeline.estimates.fetch_add(1, Ordering::SeqCst);
        let mse_vs_prior = mean_squared_error(&distribution, entry.prior())
            .expect("estimate and prior share one domain");
        let drifted = mse_vs_prior > self.config().drift_mse_threshold;
        if drifted {
            entry.count_drift_event();
            self.obs().emit(ServeEvent::Drift {
                key: entry.key(),
                mse: mse_vs_prior,
            });
            // The population no longer follows the registered prior. The
            // lifecycle's compare-exchange makes concurrent drift
            // observations schedule exactly one refresh between them —
            // and records *why* the key is stale, so the scheduled run
            // re-optimizes against this posterior instead of the prior.
            if entry.lifecycle().try_mark_stale(StaleReason::Drift)
                && self.config().refresh_on_drift
            {
                self.submit(entry, crate::refresh::Job::Run);
            }
        }
        entry.touch(self.now_ms());
        Ok(EstimateOutcome {
            key: entry.key(),
            method,
            distribution,
            iterations,
            residual,
            mse_vs_prior,
            total_responses: merged.total(),
            batches: merged.batches(),
            drifted,
            stale: entry.is_stale(),
        })
    }

    /// Estimates every key that has accumulated responses, in ascending
    /// key order. Returns the outcomes, the number of registered keys
    /// skipped for having no responses, and the number whose estimate
    /// failed (a genuinely broken channel — reported separately so a
    /// sweep never hides one behind "no data").
    pub fn estimate_all(self: &Arc<Self>) -> (Vec<EstimateOutcome>, usize, usize) {
        let mut entries = self.registry().entries();
        entries.sort_by_key(|e| e.key());
        let mut outcomes = Vec::new();
        let mut skipped = 0usize;
        let mut failed = 0usize;
        for entry in &entries {
            let has_data = entry
                .pipeline()
                .map(|p| !p.counts().is_empty())
                .unwrap_or(false);
            if !has_data {
                skipped += 1;
                continue;
            }
            match self.estimate(entry) {
                Ok(outcome) => outcomes.push(outcome),
                Err(_) => failed += 1,
            }
        }
        (outcomes, skipped, failed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::ServiceConfig;

    fn smoke_service() -> Arc<Service> {
        Arc::new(Service::new(ServiceConfig::smoke(404)))
    }

    const PRIOR: [f64; 4] = [0.4, 0.3, 0.2, 0.1];

    #[test]
    fn payload_seed_depends_on_payload_key_and_base() {
        let a = payload_seed(1, 2, &[0, 1, 2]);
        assert_eq!(a, payload_seed(1, 2, &[0, 1, 2]));
        assert_ne!(a, payload_seed(1, 2, &[0, 1, 3]));
        assert_ne!(a, payload_seed(1, 3, &[0, 1, 2]));
        assert_ne!(a, payload_seed(9, 2, &[0, 1, 2]));
        assert_ne!(a, payload_seed(1, 2, &[0, 1, 2, 0]));
    }

    #[test]
    fn first_ingest_pins_the_matrix_and_later_bounds_are_ignored() {
        let service = smoke_service();
        let entry = service.register(None, &PRIOR, 0.8, None, true).unwrap();
        let a = service.pipeline_for(&entry, 0.05).unwrap();
        let b = service.pipeline_for(&entry, 0.5).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(a.min_privacy(), 0.05);
        assert!(a.evaluation().privacy >= 0.05);
        assert_eq!(a.matrix().num_categories(), PRIOR.len());
        // An impossible bound on a fresh key has nothing to pin.
        let other = service.register(None, &PRIOR, 0.75, None, true).unwrap();
        assert!(service.pipeline_for(&other, 0.999).is_err());
    }

    #[test]
    fn ingest_validates_its_batch_shape() {
        let service = smoke_service();
        let entry = service.register(None, &PRIOR, 0.8, None, true).unwrap();
        // Exactly one of records/counts.
        assert!(service.ingest(&entry, None, None, None, None).is_err());
        assert!(service
            .ingest(&entry, None, Some(&[0, 1]), Some(&[1, 0, 0, 0]), None)
            .is_err());
        // Bad payloads.
        assert!(service.ingest(&entry, None, Some(&[]), None, None).is_err());
        assert!(service
            .ingest(&entry, None, Some(&[9]), None, None)
            .is_err());
        assert!(service
            .ingest(&entry, None, None, Some(&[0, 0, 0, 0]), None)
            .is_err());
        assert!(service
            .ingest(&entry, None, None, Some(&[1, 2]), None)
            .is_err());
        // None of the malformed batches pinned a pipeline: a later first
        // ingest still chooses the matrix for ITS privacy bound.
        assert!(entry.pipeline().is_none());
        // Estimating before any batch landed is an error.
        assert!(service.estimate(&entry).is_err());
        // A good raw batch lands and reports.
        let out = service
            .ingest(&entry, Some(0.0), Some(&[0, 0, 1, 2, 3]), None, Some(7))
            .unwrap();
        assert_eq!(out.accepted, 5);
        assert_eq!(out.total, 5);
        assert_eq!(out.batches, 1);
        assert!(out.retained <= 5);
        // A pre-counted batch adds on top.
        let out = service
            .ingest(&entry, None, None, Some(&[2, 0, 0, 1]), None)
            .unwrap();
        assert_eq!(out.accepted, 3);
        assert_eq!(out.total, 8);
        assert_eq!(out.batches, 2);
        assert_eq!(out.retained, 0);
    }

    #[test]
    fn ingest_default_seed_is_payload_deterministic() {
        let service = smoke_service();
        let entry = service.register(None, &PRIOR, 0.8, None, true).unwrap();
        let records: Vec<usize> = (0..200).map(|i| i % 4).collect();
        let (eval_a, disguised_a, retained_a) =
            service.disguise(&entry, 0.0, &records, None).unwrap();
        let (eval_b, disguised_b, retained_b) =
            service.disguise(&entry, 0.0, &records, None).unwrap();
        assert_eq!(disguised_a, disguised_b);
        assert_eq!(retained_a, retained_b);
        assert_eq!(eval_a.privacy.to_bits(), eval_b.privacy.to_bits());
        // An explicit seed overrides the payload default.
        let (_, disguised_c, _) = service.disguise(&entry, 0.0, &records, Some(1)).unwrap();
        let (_, disguised_d, _) = service.disguise(&entry, 0.0, &records, Some(2)).unwrap();
        assert_ne!(disguised_c, disguised_d);
    }

    #[test]
    fn estimate_recovers_the_prior_and_does_not_drift() {
        let service = smoke_service();
        let entry = service.register(None, &PRIOR, 0.8, None, true).unwrap();
        let prior = entry.prior().clone();
        let mut rng = StdRng::seed_from_u64(99);
        let records = prior.sample_many(&mut rng, 20_000);
        service
            .ingest(&entry, Some(0.0), Some(&records), None, Some(5))
            .unwrap();
        let out = service.estimate(&entry).unwrap();
        assert_eq!(out.method, EstimateMethod::Inversion);
        assert_eq!(out.total_responses, 20_000);
        assert!(!out.drifted, "mse {}", out.mse_vs_prior);
        assert!(out.mse_vs_prior < service.config().drift_mse_threshold);
        assert!(!entry.is_stale());
        assert_eq!(
            entry.engine_runs(),
            1,
            "estimation never re-runs the engine"
        );
        // The posterior was recorded for future warm starts.
        assert!(entry.pipeline().unwrap().posterior().is_some());
        assert_eq!(entry.pipeline().unwrap().estimates(), 1);
    }

    #[test]
    fn drift_marks_stale_and_schedules_one_refresh() {
        let service = smoke_service();
        let entry = service.register(None, &PRIOR, 0.8, None, true).unwrap();
        assert_eq!(entry.engine_runs(), 1);
        // A pre-counted stream violently different from the prior: the
        // estimate lands far away and trips the drift threshold.
        service
            .ingest(&entry, Some(0.0), None, Some(&[10_000, 0, 0, 0]), None)
            .unwrap();
        let out = service.estimate(&entry).unwrap();
        assert!(out.drifted, "mse {}", out.mse_vs_prior);
        assert!(entry.is_stale() || entry.engine_runs() > 1);
        assert_eq!(entry.drift_events(), 1);
        service.wait_idle();
        // The scheduled refresh ran and cleared the staleness flag.
        assert_eq!(entry.engine_runs(), 2);
        assert!(!entry.is_stale());
    }

    #[test]
    fn singular_pinned_matrix_falls_back_to_the_warm_started_iterative_estimator() {
        let service = smoke_service();
        let entry = service.register(None, &PRIOR, 0.8, None, true).unwrap();
        // Pin a singular channel directly (two identical columns): the
        // inversion estimator must refuse it and the service must fall
        // back to the iterative estimator.
        let shared = linalg::Vector::from_vec(vec![0.4, 0.3, 0.2, 0.1]);
        let distinct = linalg::Vector::from_vec(vec![0.1, 0.1, 0.2, 0.6]);
        let singular =
            RrMatrix::from_columns(&[shared.clone(), shared, distinct.clone(), distinct]).unwrap();
        assert!(!singular.is_invertible());
        let evaluation = service.best_for_privacy(&entry, 0.0).unwrap().evaluation;
        entry.install_pipeline(KeyPipeline::new(singular, evaluation, 0.0).unwrap());

        // Counts proportional to M·q for q = (0.4, 0.3, 0.2, 0.1): an
        // exactly explainable disguised distribution, so the EM fixed
        // point is interior and convergence is linear even though the
        // channel is singular.
        service
            .ingest(
                &entry,
                None,
                None,
                Some(&[3_100, 2_400, 2_000, 2_500]),
                None,
            )
            .unwrap();
        let first = service.estimate(&entry).unwrap();
        assert_eq!(first.method, EstimateMethod::Iterative);
        assert!(first.iterations > 0);
        assert!(first.residual <= service.config().iterative.tolerance);

        // A second estimate after one more batch warm-starts from the
        // stored posterior and converges in (weakly) fewer iterations.
        service
            .ingest(&entry, None, None, Some(&[310, 240, 200, 250]), None)
            .unwrap();
        let second = service.estimate(&entry).unwrap();
        assert_eq!(second.method, EstimateMethod::Iterative);
        assert!(
            second.iterations <= first.iterations,
            "warm {} vs cold {}",
            second.iterations,
            first.iterations
        );
    }

    #[test]
    fn estimate_all_sweeps_keys_with_data_and_skips_the_rest() {
        let service = smoke_service();
        let a = service
            .register(Some("a"), &PRIOR, 0.8, None, true)
            .unwrap();
        let _b = service
            .register(Some("b"), &PRIOR, 0.7, None, true)
            .unwrap();
        service
            .ingest(&a, Some(0.0), Some(&[0, 1, 2, 3, 0, 0]), None, Some(3))
            .unwrap();
        let (outcomes, skipped, failed) = service.estimate_all();
        assert_eq!(outcomes.len(), 1);
        assert_eq!(skipped, 1);
        assert_eq!(failed, 0);
        assert_eq!(outcomes[0].key, a.key());
    }
}
