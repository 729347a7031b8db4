//! Persistence: the crash-safe snapshot file, whole-service `Save`/`Load`,
//! per-key eviction sidecars, and the one installer of a persisted key.
//!
//! Files are written atomically (tmp → fsync → rename) under a version +
//! checksum header and read back verified. `Load` checks every key before
//! it installs any, through the same [`Service::install`] as a sidecar.

use crate::pipeline::{KeyPipeline, PipelineSnapshot};
use crate::registry::KeyEntry;
use crate::service::{Result, ServeError, Service};
use crate::telemetry::ServeEvent;
use optrr::OmegaSet;
use serde::{Deserialize, Serialize};
use stats::Categorical;
use std::sync::Arc;

/// One key's persisted state: enough to re-register it and refill its
/// warm store — and resume its in-flight estimation stream — without an
/// engine run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KeySnapshot {
    /// The registered prior's probabilities.
    pub prior: Vec<f64>,
    /// The privacy bound δ.
    pub delta: f64,
    /// The Ω resolution.
    pub slots: usize,
    /// Engine runs completed before the snapshot (restored so refresh
    /// seeds continue the sequence).
    pub engine_runs: u64,
    /// Drift events observed before the snapshot (restored so `Stats`
    /// keeps reporting the stream's history across restarts). Optional so
    /// older snapshots still decode.
    pub drift_events: Option<u64>,
    /// Aliases bound to the key, sorted.
    pub names: Vec<String>,
    /// The warm Ω.
    pub omega: OmegaSet,
    /// The warm-start seed set (the last run's archive), so a refresh
    /// after restore warm-starts exactly like a refresh on the live
    /// service would have. Optional so snapshots written before this
    /// field existed still decode.
    pub warm_seeds: Option<Vec<rr::RrMatrix>>,
    /// The streaming pipeline (pinned channel, accumulated counts,
    /// posterior), when one was pinned. Absent in snapshots written
    /// before pipeline persistence phase 2.
    pub pipeline: Option<PipelineSnapshot>,
}

impl KeySnapshot {
    /// Checks that this persisted state fits the registration it lands
    /// on — the Ω resolution, and the category count of every stored
    /// matrix and of the pinned pipeline's matrix — and rebuilds the
    /// pinned pipeline, whose [`KeyPipeline::restore`] checks its counts
    /// and posterior against that matrix. `Load` and the sidecar re-warm
    /// both run it before installing anything, so state of the wrong
    /// shape is never served (a wrong-sized pinned channel would
    /// otherwise fail estimation on a dimension mismatch).
    fn check_shape(
        &self,
        prior: &Categorical,
        slots: usize,
    ) -> std::result::Result<Option<KeyPipeline>, String> {
        if self.omega.num_slots() != slots {
            return Err(format!(
                "key omega has {} slots, registration says {slots}",
                self.omega.num_slots()
            ));
        }
        let categories = prior.num_categories();
        if let Some(entry) = self
            .omega
            .entries()
            .find(|e| e.matrix.num_categories() != categories)
        {
            return Err(format!(
                "key omega holds a {}-category matrix for a {categories}-category prior",
                entry.matrix.num_categories()
            ));
        }
        let Some(pipeline) = &self.pipeline else {
            return Ok(None);
        };
        if pipeline.matrix.num_categories() != categories {
            return Err(format!(
                "key pipeline pins a {}-category matrix for a {categories}-category prior",
                pipeline.matrix.num_categories()
            ));
        }
        KeyPipeline::restore(pipeline).map(Some)
    }
}

/// A whole-service snapshot: every registered key in ascending key order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServiceSnapshot {
    /// The persisted keys.
    pub keys: Vec<KeySnapshot>,
}

/// Magic prefix of the crash-safe snapshot header. The full header line is
/// `OPTRR-SNAP v1 crc=<fnv64-hex> len=<payload bytes>`, followed by the
/// JSON payload on the next line(s); files without the magic are legacy
/// headerless snapshots and load unverified.
pub(crate) const SNAPSHOT_MAGIC: &str = "OPTRR-SNAP v1 ";

/// Builds the header line for a snapshot payload.
fn snapshot_header(payload: &str) -> String {
    format!(
        "{SNAPSHOT_MAGIC}crc={:016x} len={}",
        crate::faults::fingerprint(payload),
        payload.len()
    )
}

/// Verifies a snapshot header against the payload that followed it:
/// length first (a torn tail fails fast), then the checksum (bit rot and
/// mid-payload tears).
fn verify_snapshot_header(header: &str, payload: &str) -> std::result::Result<(), String> {
    let expected = snapshot_header(payload);
    if header == expected {
        return Ok(());
    }
    let want_len = header
        .split(" len=")
        .nth(1)
        .and_then(|v| v.parse::<usize>().ok());
    match want_len {
        Some(len) if len != payload.len() => Err(format!(
            "is torn: header promises {len} payload bytes, found {}",
            payload.len()
        )),
        _ => Err("fails its checksum".to_string()),
    }
}

/// Outcome of reading one snapshot/sidecar file.
enum SnapshotRead {
    /// No file at the path — the normal "nothing persisted yet" case.
    Missing,
    /// The read itself failed (OS error or injected fault).
    Io(String),
    /// The file exists but is torn, fails its checksum, or has a mangled
    /// header — its contents must not be served.
    Corrupt(String),
    /// The verified payload.
    Ok(String),
}

impl Service {
    /// The per-key eviction sidecar next to the configured snapshot path.
    pub(crate) fn sidecar_path(base: &str, key: u64) -> String {
        format!("{base}.key-{key:016x}.json")
    }

    /// Writes one snapshot/sidecar payload crash-safely: a version +
    /// checksum header is prepended, the whole file goes to `<path>.tmp`,
    /// is fsynced, and only then renamed over `path` — so a crash (or an
    /// injected torn write) at any point leaves either the previous
    /// generation or a complete new one at `path`, never a torn file.
    fn write_snapshot_file(&self, path: &str, payload: &str) -> Result<()> {
        if let Some(injector) = &self.faults {
            if injector.snapshot_write_error(path) {
                return Err(ServeError::Snapshot(format!(
                    "injected write fault for {path:?}"
                )));
            }
        }
        let header = snapshot_header(payload);
        let full = format!("{header}\n{payload}\n");
        let tmp = format!("{path}.tmp");
        let bytes = full.as_bytes();
        let torn = self
            .faults
            .as_ref()
            .and_then(|injector| injector.torn_write(path, bytes.len()));
        if let Some(cut) = torn {
            // Simulated crash mid-write: a truncated prefix reaches the
            // temporary file and the rename never happens — the previous
            // generation at `path` stays intact.
            let _ = std::fs::write(&tmp, &bytes[..cut]);
            return Err(ServeError::Snapshot(format!(
                "injected torn write for {path:?} (cut at byte {cut} of {})",
                bytes.len()
            )));
        }
        let write = || -> std::io::Result<()> {
            let mut file = std::fs::File::create(&tmp)?;
            std::io::Write::write_all(&mut file, bytes)?;
            file.sync_all()?;
            std::fs::rename(&tmp, path)
        };
        write().map_err(|e| ServeError::Snapshot(format!("write {path:?} failed: {e}")))
    }

    /// Reads one snapshot/sidecar file back, verifying the crash-safety
    /// header when present. Files written before the header existed
    /// (no `OPTRR-SNAP` magic) are accepted as-is, so old snapshots keep
    /// loading.
    fn read_snapshot_file(&self, path: &str) -> SnapshotRead {
        if let Some(injector) = &self.faults {
            if injector.snapshot_read_error(path) {
                return SnapshotRead::Io(format!("injected read fault for {path:?}"));
            }
        }
        let text = match std::fs::read_to_string(path) {
            Ok(text) => text,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return SnapshotRead::Missing,
            Err(e) => return SnapshotRead::Io(format!("read {path:?} failed: {e}")),
        };
        if !text.starts_with(SNAPSHOT_MAGIC) {
            // Legacy headerless file: nothing to verify.
            return SnapshotRead::Ok(text.trim().to_string());
        }
        let Some((header, rest)) = text.split_once('\n') else {
            return SnapshotRead::Corrupt(format!("{path:?} is truncated inside its header"));
        };
        let payload = rest.strip_suffix('\n').unwrap_or(rest);
        match verify_snapshot_header(header, payload) {
            Ok(()) => SnapshotRead::Ok(payload.to_string()),
            Err(reason) => SnapshotRead::Corrupt(format!("{path:?} {reason}")),
        }
    }

    /// Installs a persisted key's state into its entry: the one installer
    /// `Load` and the eviction-sidecar re-warm share. Ω is absorbed (it
    /// only ever improves the store), seeds restore only where none are
    /// held (a live service's own, newer archive wins), and the pipeline
    /// — built by [`KeySnapshot::check_shape`] — is pinned only where none is.
    /// The caller holds the key's run claim.
    fn install(&self, entry: &KeyEntry, snapshot: &KeySnapshot, pipeline: Option<KeyPipeline>) {
        entry.store().absorb(&snapshot.omega);
        if let Some(seeds) = &snapshot.warm_seeds {
            if !seeds.is_empty() && entry.take_warm_seeds().is_empty() {
                entry.put_warm_seeds(seeds.clone());
            }
        }
        if let Some(pipeline) = pipeline.filter(|_| entry.pipeline().is_none()) {
            self.obs
                .emit(ServeEvent::SamplerRebuild { key: entry.key() });
            entry.install_pipeline(pipeline);
        }
    }

    /// Writes an evicting key's sidecar when persistence is configured.
    /// A failed write degrades the eviction to replay-on-rewarm, it never
    /// blocks it: the key's state is still recoverable deterministically.
    pub(crate) fn write_sidecar(&self, entry: &KeyEntry) {
        let Some(base) = &self.config.snapshot_path else {
            return;
        };
        let snapshot = self.key_snapshot(entry, self.registry.names_of(entry.key()));
        let path = Self::sidecar_path(base, entry.key());
        let encoded = serde_json::to_string(&snapshot).expect("snapshots serialize");
        if let Err(error) = self.write_snapshot_file(&path, &encoded) {
            eprintln!("optrr-serve: eviction sidecar {path:?} failed: {error}");
        }
    }

    /// Restores an evicted key from its eviction sidecar, when persistence
    /// is configured and the sidecar decodes and fits the key. Returns
    /// whether it did; any failure other than "no sidecar exists" emits a
    /// typed [`ServeEvent::SnapshotLoadFailed`] (bumping
    /// `serve_snapshot_load_failures_total`) and leaves the caller to the
    /// deterministic engine replay — a torn, unreadable or mis-shaped
    /// sidecar is never served and never silently ignored.
    pub(crate) fn restore_from_sidecar(&self, entry: &KeyEntry) -> bool {
        let Some(base) = &self.config.snapshot_path else {
            return false;
        };
        let path = Self::sidecar_path(base, entry.key());
        let failed = |reason: String| {
            eprintln!("optrr-serve: eviction sidecar {path:?} unusable ({reason}); replaying runs");
            self.obs.emit(ServeEvent::SnapshotLoadFailed {
                path: path.clone(),
                reason,
            });
            false
        };
        let text = match self.read_snapshot_file(&path) {
            SnapshotRead::Missing => return false,
            SnapshotRead::Io(reason) | SnapshotRead::Corrupt(reason) => return failed(reason),
            SnapshotRead::Ok(text) => text,
        };
        let snapshot = match serde_json::from_str::<KeySnapshot>(text.trim()) {
            Ok(snapshot) => snapshot,
            Err(e) => return failed(format!("did not decode: {e}")),
        };
        match snapshot.check_shape(entry.prior(), entry.num_slots()) {
            Ok(pipeline) => {
                self.install(entry, &snapshot, pipeline);
                true
            }
            Err(reason) => failed(reason),
        }
    }

    /// One key's snapshot under the given aliases, including its pinned
    /// pipeline when any.
    fn key_snapshot(&self, entry: &KeyEntry, names: Vec<String>) -> KeySnapshot {
        KeySnapshot {
            prior: entry.prior().probs().to_vec(),
            delta: entry.delta(),
            slots: entry.num_slots(),
            engine_runs: entry.engine_runs(),
            drift_events: Some(entry.drift_events()),
            names,
            omega: entry.store().merge(),
            warm_seeds: Some(entry.take_warm_seeds()),
            pipeline: entry.pipeline().map(|p| p.snapshot()),
        }
    }

    /// Serializable snapshot of the whole registry: every key's
    /// registration metadata, run counter, aliases, warm Ω, and
    /// pinned pipeline, in ascending key order. Scheduled engine runs are
    /// drained first so the snapshot is consistent.
    pub fn snapshot(&self) -> ServiceSnapshot {
        self.wait_idle();
        let mut entries = self.registry.entries();
        entries.sort_by_key(|e| e.key());
        let mut names = self.registry.names_by_key();
        ServiceSnapshot {
            keys: entries
                .iter()
                .map(|entry| {
                    self.key_snapshot(entry, names.remove(&entry.key()).unwrap_or_default())
                })
                .collect(),
        }
    }

    /// Writes a snapshot of the warm stores to `path`. Returns the number
    /// of keys saved.
    pub fn save_snapshot(&self, path: &str) -> Result<usize> {
        let snapshot = self.snapshot();
        let encoded = serde_json::to_string(&snapshot)
            .map_err(|e| ServeError::Snapshot(format!("encode failed: {e}")))?;
        self.write_snapshot_file(path, &encoded)?;
        self.obs.emit(ServeEvent::SnapshotSaved {
            keys: snapshot.keys.len() as u64,
        });
        Ok(snapshot.keys.len())
    }

    /// Writes the configured snapshot automatically (on `Sync`, shutdown,
    /// and library callers that want the same behavior). A failure is
    /// reported on stderr, never escalated — an autosave must not take the
    /// serving loop down.
    pub fn autosave(&self) {
        let Some(path) = self.config.snapshot_path.clone() else {
            return;
        };
        if let Err(error) = self.save_snapshot(&path) {
            eprintln!("optrr-serve: autosave to {path:?} failed: {error}");
        }
    }

    /// Loads a snapshot file into the registry: missing keys are created
    /// *warm* (no engine run — the whole point of persistence), existing
    /// keys absorb the snapshot's Ω, which only ever improves them.
    /// Pipeline snapshots resume in-flight estimation streams on keys that
    /// have none pinned yet. Returns `(created, merged)`.
    ///
    /// The load is all-or-nothing: every key is validated and built
    /// first, so a file with one bad key changes nothing. A key whose
    /// state does not fit its registration is bad content, answered
    /// [`ServeError::SnapshotCorrupt`] like a file that does not decode.
    pub fn load_snapshot(self: &Arc<Self>, path: &str) -> Result<(usize, usize)> {
        let corrupt = |reason: String| {
            self.obs.emit(ServeEvent::SnapshotLoadFailed {
                path: path.to_string(),
                reason: reason.clone(),
            });
            ServeError::SnapshotCorrupt(reason)
        };
        let text = match self.read_snapshot_file(path) {
            SnapshotRead::Missing => {
                return Err(ServeError::Snapshot(format!(
                    "read {path:?} failed: not found"
                )))
            }
            SnapshotRead::Io(reason) => return Err(ServeError::Snapshot(reason)),
            SnapshotRead::Corrupt(reason) => return Err(corrupt(reason)),
            SnapshotRead::Ok(text) => text,
        };
        let snapshot: ServiceSnapshot = serde_json::from_str(text.trim())
            .map_err(|e| corrupt(format!("decode {path:?} failed: {e}")))?;
        let mut built = Vec::with_capacity(snapshot.keys.len());
        for (index, key) in snapshot.keys.iter().enumerate() {
            let (prior, slots) = self.check_registration(&key.prior, key.delta, Some(key.slots))?;
            let pipeline = key
                .check_shape(&prior, slots)
                .map_err(|reason| corrupt(format!("{path:?} key {index}: {reason}")))?;
            built.push((key, prior, slots, pipeline));
        }
        let mut created_count = 0;
        let now = self.now_ms();
        for (key, prior, slots, pipeline) in built {
            let names = key.names.iter().map(String::as_str);
            let (entry, created) = self.admit(&prior, key.delta, slots, names);
            entry.touch(now);
            created_count += usize::from(created);
            // A key persisted with engine runs behind it but an *empty* Ω
            // was evicted before the snapshot was written; restoring it
            // "warm" would pin it empty forever (warm keys never re-warm).
            // Restore it evicted instead: the next query re-warms it from
            // its eviction sidecar or by engine replay.
            if key.omega.is_empty() && key.engine_runs > 0 {
                if created {
                    entry.restore_engine_runs(key.engine_runs);
                    entry.restore_drift_events(key.drift_events.unwrap_or(0));
                    entry.lifecycle().restore_evicted();
                }
                continue;
            }
            // Hold a run claim while the snapshot lands: a concurrent
            // budget/TTL eviction cannot interleave with the install
            // (try_evict refuses keys with runs in flight), and the claim
            // itself waits out any eviction already mid-drop — then
            // resolves the key Warm with the loaded data.
            let mut claim = entry.lifecycle().begin_run();
            self.install(&entry, key, pipeline);
            if created {
                entry.restore_engine_runs(key.engine_runs);
            }
            if let Some(drift_events) = key.drift_events {
                if drift_events > entry.drift_events() {
                    entry.restore_drift_events(drift_events);
                }
            }
            claim.land();
        }
        self.enforce_memory(u64::MAX);
        let merged_count = snapshot.keys.len() - created_count;
        self.obs.emit(ServeEvent::SnapshotLoaded {
            created: created_count as u64,
            merged: merged_count as u64,
        });
        Ok((created_count, merged_count))
    }
}
