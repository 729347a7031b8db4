//! Protocol dispatch: [`Service::handle`] maps one [`Request`] onto the
//! library API and its outcome onto one [`Response`], with library errors
//! carrying the stable [`crate::ServeError::code`] taxonomy.
//!
//! Inside the crate the outcome is a [`Reply`]: a point query's hit
//! keeps the stored Ω entry, so a session writes its `Matrix` frame
//! ([`crate::wire::encode_matrix_reply`]) or JSON line
//! ([`crate::protocol::encode_matrix_hit`]) straight from the stored
//! matrix and never builds the [`MatrixDto`]. [`Service::handle`]
//! converts it with [`Reply::into_response`].

use crate::protocol::{
    EstimateDto, HistogramDto, MatrixDto, MetricValueDto, Request, Response, TraceEventDto,
};
use crate::registry::KeyEntry;
use crate::service::{Result, Service};
use std::sync::Arc;

/// One request's outcome before it meets a codec.
pub(crate) enum Reply {
    /// Any response but a point query's hit.
    Response(Response),
    /// A point query's hit: the stored entry, cloned under the store's
    /// read lock.
    Matrix {
        /// The key queried.
        key: u64,
        /// The stored matrix and its evaluation.
        found: optrr::OmegaEntry,
        /// Whether the key is degraded.
        degraded: bool,
    },
}

impl Reply {
    /// The protocol form: a hit's matrix becomes a [`MatrixDto`].
    pub(crate) fn into_response(self) -> Response {
        match self {
            Reply::Response(response) => response,
            Reply::Matrix {
                key,
                found,
                degraded,
            } => Response::Matrix {
                key,
                privacy: found.evaluation.privacy,
                mse: found.evaluation.mse,
                max_posterior: found.evaluation.max_posterior,
                matrix: MatrixDto::from_matrix(&found.matrix),
                degraded,
            },
        }
    }
}

impl Service {
    /// Converts an estimate outcome into its transport form.
    fn estimate_dto(outcome: crate::pipeline::EstimateOutcome, degraded: bool) -> EstimateDto {
        EstimateDto {
            key: outcome.key,
            method: outcome.method.to_string(),
            distribution: outcome.distribution.probs().to_vec(),
            iterations: outcome.iterations,
            residual: outcome.residual,
            mse_vs_prior: outcome.mse_vs_prior,
            total_responses: outcome.total_responses,
            batches: outcome.batches,
            drifted: outcome.drifted,
            stale: outcome.stale,
            degraded,
        }
    }

    /// Handles one protocol request, mapping library errors to
    /// [`Response::Error`] with the stable error-code taxonomy.
    pub fn handle(self: &Arc<Self>, request: Request) -> Response {
        self.reply(request).into_response()
    }

    /// [`Service::handle`] before the codec: the sessions' entry point.
    pub(crate) fn reply(self: &Arc<Self>, request: Request) -> Reply {
        self.try_handle(request).unwrap_or_else(|error| {
            Reply::Response(Response::Error {
                reason: error.to_string(),
                code: error.code().to_string(),
            })
        })
    }

    fn try_handle(self: &Arc<Self>, request: Request) -> Result<Reply> {
        let response = match request {
            Request::Register {
                name,
                prior,
                delta,
                slots,
                lazy,
            } => {
                let block = !lazy.unwrap_or(false);
                let entry = self.register(name.as_deref(), &prior, delta, slots, block)?;
                Response::Registered {
                    key: entry.key(),
                    warm: entry.is_warm(),
                    filled_slots: entry.store().len(),
                    engine_runs: entry.engine_runs(),
                }
            }
            Request::RegisterBatch {
                names,
                priors,
                delta,
                slots,
            } => {
                let (entries, warmed) =
                    self.register_batch(names.as_deref(), &priors, delta, slots)?;
                Response::RegisteredBatch {
                    keys: entries.iter().map(|e| e.key()).collect(),
                    warmed,
                }
            }
            Request::BestForPrivacy {
                key,
                name,
                min_privacy,
            } => {
                let entry = self.resolve(key, name.as_deref())?;
                match self.best_for_privacy(&entry, min_privacy) {
                    Some(found) => return Ok(Self::matrix_reply(&entry, found)),
                    None => Response::NoMatch {
                        key: entry.key(),
                        reason: format!("no stored matrix with privacy >= {min_privacy}"),
                        degraded: entry.state().is_degraded(),
                    },
                }
            }
            Request::BestForMse { key, name, max_mse } => {
                let entry = self.resolve(key, name.as_deref())?;
                match self.best_for_mse(&entry, max_mse) {
                    Some(found) => return Ok(Self::matrix_reply(&entry, found)),
                    None => Response::NoMatch {
                        key: entry.key(),
                        reason: format!("no stored matrix with mse <= {max_mse}"),
                        degraded: entry.state().is_degraded(),
                    },
                }
            }
            Request::Front { key, name } => {
                let entry = self.resolve(key, name.as_deref())?;
                Response::Front {
                    key: entry.key(),
                    points: self.front(&entry),
                    degraded: entry.state().is_degraded(),
                }
            }
            Request::Ingest {
                key,
                name,
                min_privacy,
                records,
                counts,
                seed,
            } => {
                let entry = self.resolve(key, name.as_deref())?;
                let outcome = self.ingest(
                    &entry,
                    min_privacy,
                    records.as_deref(),
                    counts.as_deref(),
                    seed,
                )?;
                Response::Ingested {
                    key: outcome.key,
                    accepted: outcome.accepted,
                    retained: outcome.retained,
                    total: outcome.total,
                    batches: outcome.batches,
                    privacy: outcome.privacy,
                }
            }
            Request::Disguise {
                key,
                name,
                min_privacy,
                records,
                seed,
            } => {
                let entry = self.resolve(key, name.as_deref())?;
                let (evaluation, disguised, retained) =
                    self.disguise(&entry, min_privacy, &records, seed)?;
                Response::Disguised {
                    key: entry.key(),
                    privacy: evaluation.privacy,
                    mse: evaluation.mse,
                    retained,
                    records: disguised,
                }
            }
            Request::Estimate { key, name } => {
                let entry = self.resolve(key, name.as_deref())?;
                let outcome = self.estimate(&entry)?;
                let degraded = entry.state().is_degraded();
                Response::Estimated {
                    stats: Self::estimate_dto(outcome, degraded),
                }
            }
            Request::EstimateAll => {
                let (outcomes, skipped, failed) = self.estimate_all();
                Response::EstimatedAll {
                    estimates: outcomes
                        .into_iter()
                        .map(|outcome| {
                            let degraded = self
                                .registry
                                .resolve(Some(outcome.key), None)
                                .is_some_and(|e| e.state().is_degraded());
                            Self::estimate_dto(outcome, degraded)
                        })
                        .collect(),
                    skipped,
                    failed,
                }
            }
            Request::Save { path } => {
                let keys = self.save_snapshot(&path)?;
                Response::Saved { path, keys }
            }
            Request::Load { path } => {
                let (created, merged) = self.load_snapshot(&path)?;
                Response::Loaded {
                    path,
                    created,
                    merged,
                }
            }
            Request::Refresh { key, name, runs } => {
                let entry = self.resolve(key, name.as_deref())?;
                let scheduled = self.refresh(&entry, runs.unwrap_or(1));
                Response::Scheduled {
                    key: entry.key(),
                    runs: scheduled,
                }
            }
            Request::Evict { key, name } => {
                let entry = self.resolve(key, name.as_deref())?;
                let freed = self.evict_key(&entry);
                Response::Evicted {
                    key: entry.key(),
                    evicted: freed.is_some(),
                    bytes_freed: freed.unwrap_or(0),
                }
            }
            Request::Sync => {
                self.wait_idle();
                // Autosave before the TTL sweep: the full snapshot then
                // carries the expiring keys' complete state (a sweep-first
                // order would persist them as already-empty).
                self.autosave();
                self.sweep_ttl();
                Response::Synced
            }
            Request::Stats { key, name } => {
                if key.is_none() && name.is_none() {
                    let totals = self.totals();
                    Response::ServiceStats {
                        keys: totals.keys,
                        engine_runs: totals.engine_runs,
                        queries: totals.queries,
                        warm_hits: totals.warm_hits,
                        resident_bytes: totals.resident_bytes,
                        budget_bytes: totals.budget_bytes,
                        evictions: totals.evictions,
                        rewarms: totals.rewarms,
                        refresh_failures: totals.refresh_failures,
                        retries: totals.retries,
                        degraded: totals.degraded,
                    }
                } else {
                    let entry = self.resolve(key, name.as_deref())?;
                    Response::KeyStats {
                        stats: self.key_stats(&entry),
                    }
                }
            }
            Request::Metrics => self.metrics_response(),
            Request::Trace { limit } => {
                let (entries, dropped) = self.obs.trace_snapshot(limit);
                Response::Trace {
                    enabled: self.obs.enabled() && self.obs.trace_capacity() > 0,
                    dropped,
                    events: entries
                        .into_iter()
                        .map(|entry| TraceEventDto {
                            seq: entry.seq,
                            at_ns: entry.at_ns,
                            kind: entry.event.kind().to_string(),
                            key: entry.event.key(),
                            detail: entry.event.detail(),
                        })
                        .collect(),
                }
            }
            Request::Shutdown => {
                self.wait_idle();
                self.autosave();
                Response::Bye
            }
        };
        Ok(Reply::Response(response))
    }

    /// A point query's answer: the stored matrix with its evaluation.
    fn matrix_reply(entry: &KeyEntry, found: optrr::OmegaEntry) -> Reply {
        Reply::Matrix {
            key: entry.key(),
            found,
            degraded: entry.state().is_degraded(),
        }
    }

    /// Answers the `Metrics` verb: publishes the service totals (the
    /// registered-keys and resident-bytes gauges and the view counters)
    /// and the worker-pool gauges, then ships one snapshot as DTOs plus
    /// its Prometheus-style rendering.
    fn metrics_response(&self) -> Response {
        self.obs.publish_totals(&self.totals());
        self.obs
            .set_gauge("serve_worker_jobs_submitted", self.pool.jobs_submitted());
        self.obs
            .set_gauge("serve_worker_jobs_executed", self.pool.jobs_executed());
        self.obs
            .set_gauge("serve_worker_jobs_panicked", self.pool.jobs_panicked());
        // One snapshot feeds both halves of the reply, so the DTO lists
        // and the Prometheus text agree even while other threads record.
        let snapshot = self.obs.metrics_snapshot();
        let prometheus = snapshot.render_prometheus();
        let value_dto = |(name, value): (String, u64)| MetricValueDto { name, value };
        Response::Metrics {
            enabled: self.obs.enabled(),
            counters: snapshot.counters.into_iter().map(value_dto).collect(),
            gauges: snapshot.gauges.into_iter().map(value_dto).collect(),
            histograms: snapshot
                .histograms
                .into_iter()
                .map(|h| HistogramDto {
                    name: h.name,
                    count: h.count,
                    sum: h.sum,
                    max: h.max,
                    p50: h.p50,
                    p90: h.p90,
                    p99: h.p99,
                })
                .collect(),
            prometheus,
        }
    }
}
