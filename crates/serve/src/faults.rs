//! Deterministic fault injection for chaos-testing the serve stack.
//!
//! A [`FaultPlan`] is parsed from the `OPTRR_SERVE_FAULTS` environment
//! variable (see the grammar below) and compiled into a [`FaultInjector`]
//! the service consults at its failure points: snapshot reads and
//! writes, torn (truncated) writes, refresh-run panics, and worker
//! stalls. Every decision is a pure hash of `(plan seed, fault site,
//! caller context, sequence number)` — no wall clock, no OS RNG — so a
//! chaos run is reproducible bit-for-bit from its seed, and the refresh
//! sites (keyed by key fingerprint + run index) are deterministic even
//! under arbitrary worker-thread interleaving.
//!
//! When the variable is unset the service holds no injector at all
//! (`Option::None`), so the production hot path pays exactly one
//! already-predicted branch per site and the serving behavior is
//! byte-identical to a build without this module.
//!
//! ## Grammar
//!
//! ```text
//! OPTRR_SERVE_FAULTS=seed=7,refresh_panic=1,budget=3
//!
//!   seed=N           base seed for every deterministic draw   (default 0)
//!   snapshot_io=p    shorthand: read and write error rate     (default 0)
//!   snapshot_read=p  snapshot read-error rate                 (default 0)
//!   snapshot_write=p snapshot write-error rate                (default 0)
//!   torn_write=p     rate of writes torn (truncated) mid-file (default 0)
//!   refresh_panic=p  rate of refresh runs that panic          (default 0)
//!   stall=p          rate of refresh runs that stall first    (default 0)
//!   stall_ms=N       stall duration in milliseconds           (default 10)
//!   conn_drop=p      rate of session requests whose client
//!                    connection is dropped mid-frame          (default 0)
//!   budget=N         total faults injected before the plan
//!                    goes quiet (unset = unbounded)
//! ```
//!
//! Rates are probabilities in `[0, 1]`. The budget is what lets a chaos
//! test assert convergence: once `budget` faults have fired, every later
//! operation is clean, so retries and recovery refreshes deterministically
//! succeed.

use std::sync::atomic::{AtomicU64, Ordering};

/// The parsed `OPTRR_SERVE_FAULTS` plan: per-site fault rates plus the
/// seed and budget that make an injection run reproducible and bounded.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Base seed folded into every deterministic draw.
    pub seed: u64,
    /// Probability a snapshot read fails with an I/O error.
    pub snapshot_read: f64,
    /// Probability a snapshot write fails before writing.
    pub snapshot_write: f64,
    /// Probability a snapshot write is torn: a truncated prefix
    /// reaches the temporary file and the rename never happens.
    pub torn_write: f64,
    /// Probability a refresh engine run panics mid-run.
    pub refresh_panic: f64,
    /// Probability a refresh engine run stalls for [`stall_ms`] first.
    ///
    /// [`stall_ms`]: FaultPlan::stall_ms
    pub stall: f64,
    /// Stall duration in milliseconds.
    pub stall_ms: u64,
    /// Probability a session's client connection is dropped abruptly
    /// mid-frame, exercising the torn-frame cleanup path (the session
    /// core consults this before handling each request; stdio is
    /// connection 0).
    pub conn_drop: f64,
    /// Total faults injected before the plan goes quiet; `None` is
    /// unbounded.
    pub budget: Option<u64>,
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self {
            seed: 0,
            snapshot_read: 0.0,
            snapshot_write: 0.0,
            torn_write: 0.0,
            refresh_panic: 0.0,
            stall: 0.0,
            stall_ms: 10,
            conn_drop: 0.0,
            budget: None,
        }
    }
}

impl FaultPlan {
    /// Parses the `OPTRR_SERVE_FAULTS` grammar (see the module docs).
    /// Unknown keys, non-numeric values, and rates outside `[0, 1]` are
    /// errors — a malformed plan must abort startup, not silently run a
    /// different chaos experiment.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut plan = Self::default();
        for part in text.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("fault clause {part:?} is not key=value"))?;
            let rate = |what: &str, v: &str| -> Result<f64, String> {
                let p: f64 = v
                    .parse()
                    .map_err(|_| format!("{what} rate {v:?} is not a number"))?;
                if !(0.0..=1.0).contains(&p) {
                    return Err(format!("{what} rate {v} is outside [0, 1]"));
                }
                Ok(p)
            };
            match key.trim() {
                "seed" => {
                    plan.seed = value
                        .parse()
                        .map_err(|_| format!("seed {value:?} is not an unsigned integer"))?;
                }
                "snapshot_io" => {
                    let p = rate("snapshot_io", value)?;
                    plan.snapshot_read = p;
                    plan.snapshot_write = p;
                }
                "snapshot_read" => plan.snapshot_read = rate("snapshot_read", value)?,
                "snapshot_write" => plan.snapshot_write = rate("snapshot_write", value)?,
                "torn_write" => plan.torn_write = rate("torn_write", value)?,
                "refresh_panic" => plan.refresh_panic = rate("refresh_panic", value)?,
                "stall" => plan.stall = rate("stall", value)?,
                "conn_drop" => plan.conn_drop = rate("conn_drop", value)?,
                "stall_ms" => {
                    plan.stall_ms = value
                        .parse()
                        .map_err(|_| format!("stall_ms {value:?} is not an unsigned integer"))?;
                }
                "budget" => {
                    plan.budget = Some(
                        value
                            .parse()
                            .map_err(|_| format!("budget {value:?} is not an unsigned integer"))?,
                    );
                }
                other => return Err(format!("unknown fault key {other:?}")),
            }
        }
        Ok(plan)
    }
}

/// Fault sites, folded into every draw so the same sequence number gives
/// independent verdicts per site.
#[derive(Debug, Clone, Copy)]
enum Site {
    SnapshotRead,
    SnapshotWrite,
    TornWrite,
    RefreshPanic,
    Stall,
    ConnDrop,
}

impl Site {
    fn salt(self) -> u64 {
        match self {
            Site::SnapshotRead => 0x01,
            Site::SnapshotWrite => 0x02,
            Site::TornWrite => 0x03,
            Site::RefreshPanic => 0x04,
            Site::Stall => 0x05,
            Site::ConnDrop => 0x06,
        }
    }
}

/// The live injector the service consults: a [`FaultPlan`] plus the
/// running fault budget and the per-path sequence counter for snapshot
/// sites.
#[derive(Debug)]
pub struct FaultInjector {
    plan: FaultPlan,
    /// Faults injected so far (compared against the plan budget).
    injected: AtomicU64,
    /// Sequence number for snapshot-site draws: refresh sites are keyed
    /// by `(key, run index)` and need no counter, but snapshot writes
    /// have no natural index, so each I/O operation advances this. It
    /// makes scripted (single-threaded) sessions deterministic; the
    /// chaos proptest drives faults through the refresh sites, which are
    /// deterministic under any interleaving.
    sequence: AtomicU64,
}

impl FaultInjector {
    /// Wraps a parsed plan.
    pub fn new(plan: FaultPlan) -> Self {
        Self {
            plan,
            injected: AtomicU64::new(0),
            sequence: AtomicU64::new(0),
        }
    }

    /// The plan this injector runs.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Faults injected so far.
    pub fn injected(&self) -> u64 {
        self.injected.load(Ordering::SeqCst)
    }

    /// One deterministic draw in `[0, 1)`: FNV-1a over the seed, site
    /// salt, and caller context, finished with a splitmix64-style mix so
    /// consecutive contexts decorrelate.
    fn draw(&self, site: Site, ctx: u64, n: u64) -> f64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for word in [self.plan.seed, site.salt(), ctx, n] {
            for byte in word.to_le_bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        let mut z = h.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        (z >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Decides one site: a positive verdict also spends one unit of the
    /// budget, and a spent budget silences the plan entirely — this is
    /// the "faults clear" guarantee chaos tests converge on.
    fn decide(&self, site: Site, ctx: u64, n: u64, p: f64) -> bool {
        if p <= 0.0 || self.draw(site, ctx, n) >= p {
            return false;
        }
        match self.plan.budget {
            None => {
                self.injected.fetch_add(1, Ordering::SeqCst);
                true
            }
            Some(budget) => {
                // Reserve a budget unit; back out on overdraw so at most
                // `budget` faults ever fire.
                let reserved = self.injected.fetch_add(1, Ordering::SeqCst);
                if reserved < budget {
                    true
                } else {
                    self.injected.fetch_sub(1, Ordering::SeqCst);
                    false
                }
            }
        }
    }

    fn next_sequence(&self) -> u64 {
        self.sequence.fetch_add(1, Ordering::SeqCst)
    }

    /// Should the refresh run `run_index` of `key` panic?
    pub fn refresh_panic(&self, key: u64, run_index: u64) -> bool {
        self.decide(Site::RefreshPanic, key, run_index, self.plan.refresh_panic)
    }

    /// Should the refresh run `run_index` of `key` stall first — and for
    /// how long?
    pub fn stall(&self, key: u64, run_index: u64) -> Option<std::time::Duration> {
        self.decide(Site::Stall, key, run_index, self.plan.stall)
            .then(|| std::time::Duration::from_millis(self.plan.stall_ms))
    }

    /// Should request `request_index` of session connection `conn_id`
    /// have its client connection dropped mid-frame? Keyed by
    /// `(connection, request)` like the refresh sites are keyed by
    /// `(key, run)`, so scripted single-connection sessions draw a
    /// deterministic verdict per request regardless of thread timing.
    pub fn conn_drop(&self, conn_id: u64, request_index: u64) -> bool {
        self.decide(Site::ConnDrop, conn_id, request_index, self.plan.conn_drop)
    }

    /// Should this snapshot read of `path` fail?
    pub fn snapshot_read_error(&self, path: &str) -> bool {
        self.decide(
            Site::SnapshotRead,
            fingerprint(path),
            self.next_sequence(),
            self.plan.snapshot_read,
        )
    }

    /// Should this snapshot write of `path` fail outright
    /// (before writing a byte)?
    pub fn snapshot_write_error(&self, path: &str) -> bool {
        self.decide(
            Site::SnapshotWrite,
            fingerprint(path),
            self.next_sequence(),
            self.plan.snapshot_write,
        )
    }

    /// Should this write of `len` payload bytes to `path` be torn — and
    /// after how many bytes? A torn write leaves a truncated prefix in
    /// the temporary file and never renames it, simulating a crash
    /// mid-write.
    pub fn torn_write(&self, path: &str, len: usize) -> Option<usize> {
        let seq = self.next_sequence();
        if !self.decide(
            Site::TornWrite,
            fingerprint(path),
            seq,
            self.plan.torn_write,
        ) {
            return None;
        }
        // A second draw (different sequence axis: !seq) picks the tear
        // offset, so repeated torn writes tear at different byte counts.
        let cut = self.draw(Site::TornWrite, fingerprint(path), !seq);
        Some(((len as f64) * cut) as usize)
    }
}

/// FNV-1a over a string — the context hash for path-keyed fault draws,
/// and the checksum the crash-safe snapshot header carries (collision
/// resistance is not the threat model; torn and truncated files are).
pub(crate) fn fingerprint(text: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in text.bytes() {
        h ^= u64::from(byte);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_parsing_covers_the_grammar_and_rejects_garbage() {
        assert_eq!(FaultPlan::parse("").unwrap(), FaultPlan::default());
        let plan =
            FaultPlan::parse("seed=7, refresh_panic=0.5, torn_write=1, stall_ms=3, budget=2")
                .unwrap();
        assert_eq!(plan.seed, 7);
        assert_eq!(plan.refresh_panic, 0.5);
        assert_eq!(plan.torn_write, 1.0);
        assert_eq!(plan.stall_ms, 3);
        assert_eq!(plan.budget, Some(2));

        let both = FaultPlan::parse("snapshot_io=0.25").unwrap();
        assert_eq!(both.snapshot_read, 0.25);
        assert_eq!(both.snapshot_write, 0.25);

        for bad in [
            "bogus=1",
            "refresh_panic",
            "refresh_panic=x",
            "refresh_panic=1.5",
            "refresh_panic=-0.1",
            "seed=abc",
            "budget=-1",
            "stall_ms=ten",
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn draws_are_deterministic_per_seed_and_site() {
        let plan = FaultPlan::parse("seed=42,refresh_panic=0.5").unwrap();
        let a = FaultInjector::new(plan.clone());
        let b = FaultInjector::new(plan);
        let verdicts =
            |inj: &FaultInjector| (0..64).map(|i| inj.refresh_panic(9, i)).collect::<Vec<_>>();
        assert_eq!(verdicts(&a), verdicts(&b), "same seed, same verdicts");
        assert!(verdicts(&a).iter().any(|&v| v), "p=0.5 fires sometimes");

        let other = FaultInjector::new(FaultPlan::parse("seed=43,refresh_panic=0.5").unwrap());
        assert_ne!(verdicts(&a), verdicts(&other), "different seed differs");
    }

    #[test]
    fn budget_bounds_total_injected_faults() {
        let inj = FaultInjector::new(FaultPlan::parse("refresh_panic=1,budget=3").unwrap());
        let fired = (0..100).filter(|&i| inj.refresh_panic(1, i)).count();
        assert_eq!(fired, 3, "exactly the budget fires, then the plan is quiet");
        assert_eq!(inj.injected(), 3);
        assert!(!inj.refresh_panic(2, 0), "still quiet on other keys");
    }

    #[test]
    fn zero_rates_never_fire_and_torn_writes_pick_an_offset() {
        let quiet = FaultInjector::new(FaultPlan::default());
        assert!(!quiet.refresh_panic(1, 0));
        assert!(!quiet.snapshot_read_error("x.json"));
        assert!(!quiet.snapshot_write_error("x.json"));
        assert!(quiet.torn_write("x.json", 100).is_none());
        assert!(quiet.stall(1, 0).is_none());

        let torn = FaultInjector::new(FaultPlan::parse("torn_write=1").unwrap());
        let cut = torn.torn_write("x.json", 1000).expect("p=1 always tears");
        assert!(cut < 1000, "the tear is a strict prefix");

        let stall = FaultInjector::new(FaultPlan::parse("stall=1,stall_ms=4").unwrap());
        assert_eq!(stall.stall(1, 0), Some(std::time::Duration::from_millis(4)));
    }

    #[test]
    fn conn_drop_site_is_deterministic_and_budgeted() {
        let plan = FaultPlan::parse("seed=9,conn_drop=0.5").unwrap();
        assert_eq!(plan.conn_drop, 0.5);
        let a = FaultInjector::new(plan.clone());
        let b = FaultInjector::new(plan);
        let verdicts =
            |inj: &FaultInjector| (0..64).map(|i| inj.conn_drop(3, i)).collect::<Vec<_>>();
        assert_eq!(verdicts(&a), verdicts(&b), "same seed, same drops");
        assert!(verdicts(&a).iter().any(|&v| v), "p=0.5 fires sometimes");
        assert!(verdicts(&a).iter().any(|&v| !v), "p=0.5 spares sometimes");

        // One budgeted drop, then the plan goes quiet — the shape the
        // disconnect-recovery test converges on.
        let once = FaultInjector::new(FaultPlan::parse("conn_drop=1,budget=1").unwrap());
        assert!(once.conn_drop(1, 0));
        assert!(!once.conn_drop(1, 1));
        assert!(!once.conn_drop(2, 0));

        let quiet = FaultInjector::new(FaultPlan::default());
        assert!(!quiet.conn_drop(1, 0), "default plan never drops");
    }
}
