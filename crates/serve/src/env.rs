//! Validated environment configuration for the `serve` binary.
//!
//! Earlier versions parsed `OPTRR_SERVE_*` variables permissively: an
//! unparsable or out-of-domain value silently fell back to the default,
//! which turns an operator typo (`OPTRR_SERVE_DRIFT=1e-3x`,
//! `OPTRR_SERVE_DRIFT=-1`) into a service running with a policy nobody
//! asked for. This module rejects such values with a startup error
//! instead: every variable is either absent, valid, or fatal.
//!
//! Recognized variables:
//!
//! | variable                   | domain                | configures |
//! |----------------------------|-----------------------|------------|
//! | `OPTRR_SERVE_SEED`         | u64                   | base RNG seed |
//! | `OPTRR_SERVE_WORKERS`      | integer ≥ 1           | refresh worker threads |
//! | `OPTRR_SERVE_SHARDS`       | integer ≥ 1           | shards per warm store |
//! | `OPTRR_SERVE_DRIFT`        | finite float > 0      | drift MSE threshold |
//! | `OPTRR_SERVE_COVERAGE`     | u64 (0 disables)      | coverage-miss threshold |
//! | `OPTRR_SERVE_BUDGET_BYTES` | u64 ≥ 1               | resident-memory budget |
//! | `OPTRR_SERVE_TTL_SECS`     | float > 0 that fits a `Duration` | idle-key TTL |
//! | `OPTRR_SERVE_SNAPSHOT`     | non-empty path        | snapshot/autosave path |
//! | `OPTRR_SERVE_METRICS`      | `0/1/true/false/on/off` | metrics + event trace recording |
//! | `OPTRR_SERVE_TRACE_CAP`    | u64 (0 disables)      | event-trace ring capacity |
//! | `OPTRR_SERVE_FAULTS`       | fault-plan grammar    | deterministic fault injection ([`crate::faults`]) |
//! | `OPTRR_SERVE_FAIL_BUDGET`  | integer ≥ 1           | consecutive refresh failures before Degraded |
//! | `OPTRR_SERVE_RETRY_BASE_MS`| u64 ≥ 1               | first retry backoff delay |
//! | `OPTRR_SERVE_RETRY_MAX_MS` | u64 ≥ 1               | backoff delay ceiling |
//! | `OPTRR_SERVE_LISTEN`       | `ip:port` or `unix:path` | network listen address ([`crate::net`]); absent = stdio |
//! | `OPTRR_SERVE_MAX_CONNS`    | integer ≥ 1           | connection-pool bound |
//! | `OPTRR_SERVE_DRAIN_MS`     | u64                   | drain grace before force-closing sessions |
//!
//! Removed variables ([`REMOVED`]) are fatal with any value, so a
//! leftover setting cannot silently stop applying.

use crate::net::{ListenAddr, NetConfig};
use crate::service::ServiceConfig;
use std::time::Duration;

/// A fatal configuration error: the variable name and what was wrong.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EnvError {
    /// The offending environment variable.
    pub name: &'static str,
    /// Why its value was rejected.
    pub reason: String,
}

impl std::fmt::Display for EnvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.name, self.reason)
    }
}

impl std::error::Error for EnvError {}

fn reject(name: &'static str, reason: String) -> EnvError {
    EnvError { name, reason }
}

/// Variables earlier versions read, each with why it went. Setting any of
/// them, to any value, is a startup error.
pub const REMOVED: &[(&str, &str)] = &[
    (
        "OPTRR_SERVE_CONN_QUEUE",
        "sessions buffer their own responses, with no queue to size",
    ),
    (
        "OPTRR_TUNE",
        "the parallel thresholds are fixed constants, with no probe to override",
    ),
];

/// Fails on the first [`REMOVED`] variable that is set.
fn reject_removed() -> Result<(), EnvError> {
    for &(name, why) in REMOVED {
        if std::env::var_os(name).is_some() {
            return Err(reject(name, format!("was removed: {why}")));
        }
    }
    Ok(())
}

/// Reads and validates one `u64` variable. `min` rejects values below it.
pub fn env_u64(name: &'static str, min: u64) -> Result<Option<u64>, EnvError> {
    let Ok(raw) = std::env::var(name) else {
        return Ok(None);
    };
    let value: u64 = raw
        .trim()
        .parse()
        .map_err(|_| reject(name, format!("{raw:?} is not an unsigned integer")))?;
    if value < min {
        return Err(reject(name, format!("{value} is below the minimum {min}")));
    }
    Ok(Some(value))
}

/// Reads and validates one `usize` variable with a lower bound.
pub fn env_usize(name: &'static str, min: usize) -> Result<Option<usize>, EnvError> {
    Ok(env_u64(name, min as u64)?.map(|v| v as usize))
}

/// Reads and validates one strictly positive, finite `f64` variable.
pub fn env_positive_f64(name: &'static str) -> Result<Option<f64>, EnvError> {
    let Ok(raw) = std::env::var(name) else {
        return Ok(None);
    };
    let value: f64 = raw
        .trim()
        .parse()
        .map_err(|_| reject(name, format!("{raw:?} is not a number")))?;
    if !value.is_finite() {
        return Err(reject(name, format!("{value} is not finite")));
    }
    if value <= 0.0 {
        return Err(reject(name, format!("{value} is not strictly positive")));
    }
    Ok(Some(value))
}

/// Reads one boolean variable. Accepted spellings (case-insensitive):
/// `1`/`0`, `true`/`false`, `on`/`off` — anything else is a startup
/// error, so `OPTRR_SERVE_METRICS=yes` fails loudly instead of silently
/// picking a default.
pub fn env_bool(name: &'static str) -> Result<Option<bool>, EnvError> {
    let Ok(raw) = std::env::var(name) else {
        return Ok(None);
    };
    match raw.trim().to_ascii_lowercase().as_str() {
        "1" | "true" | "on" => Ok(Some(true)),
        "0" | "false" | "off" => Ok(Some(false)),
        _ => Err(reject(
            name,
            format!("{raw:?} is not one of 1/0, true/false, on/off"),
        )),
    }
}

/// Reads one non-empty string variable (an empty value is an error — it
/// is always a quoting accident, never a meaningful path).
pub fn env_nonempty(name: &'static str) -> Result<Option<String>, EnvError> {
    let Ok(raw) = std::env::var(name) else {
        return Ok(None);
    };
    if raw.trim().is_empty() {
        return Err(reject(name, "value is empty".into()));
    }
    Ok(Some(raw))
}

/// Builds the `serve` binary's [`ServiceConfig`] from the environment:
/// the smoke profile by default, the full default budget with
/// `standard = true`, with every `OPTRR_SERVE_*` override validated and
/// every [`REMOVED`] variable fatal.
pub fn config_from_env(standard: bool) -> Result<ServiceConfig, EnvError> {
    reject_removed()?;
    let seed = env_u64("OPTRR_SERVE_SEED", 0)?.unwrap_or(2008);
    let mut config = if standard {
        ServiceConfig {
            base: optrr::OptrrConfig::fast(0.75, seed),
            ..ServiceConfig::default()
        }
    } else {
        ServiceConfig::smoke(seed)
    };
    if let Some(workers) = env_usize("OPTRR_SERVE_WORKERS", 1)? {
        config.workers = workers;
    }
    if let Some(shards) = env_usize("OPTRR_SERVE_SHARDS", 1)? {
        config.num_shards = shards;
    }
    if let Some(drift) = env_positive_f64("OPTRR_SERVE_DRIFT")? {
        config.drift_mse_threshold = drift;
    }
    if let Some(coverage) = env_u64("OPTRR_SERVE_COVERAGE", 0)? {
        config.coverage_miss_threshold = coverage;
    }
    if let Some(budget) = env_u64("OPTRR_SERVE_BUDGET_BYTES", 1)? {
        config.memory_budget_bytes = Some(budget);
    }
    if let Some(ttl) = env_positive_f64("OPTRR_SERVE_TTL_SECS")? {
        let ttl = Duration::try_from_secs_f64(ttl).map_err(|_| {
            reject(
                "OPTRR_SERVE_TTL_SECS",
                format!("{ttl:e} seconds is too long for a duration"),
            )
        })?;
        config.key_ttl = Some(ttl);
    }
    if let Some(path) = env_nonempty("OPTRR_SERVE_SNAPSHOT")? {
        config.snapshot_path = Some(path);
    }
    if let Some(metrics) = env_bool("OPTRR_SERVE_METRICS")? {
        config.metrics = metrics;
    }
    if let Some(cap) = env_u64("OPTRR_SERVE_TRACE_CAP", 0)? {
        config.trace_cap = cap as usize;
    }
    if let Some(spec) = env_nonempty("OPTRR_SERVE_FAULTS")? {
        let plan = crate::faults::FaultPlan::parse(&spec)
            .map_err(|reason| reject("OPTRR_SERVE_FAULTS", reason))?;
        config.faults = Some(plan);
    }
    if let Some(budget) = env_u64("OPTRR_SERVE_FAIL_BUDGET", 1)? {
        config.fail_budget = budget;
    }
    if let Some(base) = env_u64("OPTRR_SERVE_RETRY_BASE_MS", 1)? {
        config.retry_base_ms = base;
    }
    if let Some(max) = env_u64("OPTRR_SERVE_RETRY_MAX_MS", 1)? {
        config.retry_max_ms = max;
    }
    Ok(config)
}

/// Parses a listen address: `unix:<path>` (or any value containing a
/// `/`) is a Unix-domain socket path, anything else must parse as an
/// `ip:port` socket address.
pub fn parse_listen(text: &str) -> Result<ListenAddr, String> {
    let text = text.trim();
    if text.is_empty() {
        return Err("listen address is empty".into());
    }
    if let Some(path) = text.strip_prefix("unix:") {
        if path.is_empty() {
            return Err("unix: prefix with no path".into());
        }
        return Ok(ListenAddr::Unix(std::path::PathBuf::from(path)));
    }
    if let Ok(addr) = text.parse::<std::net::SocketAddr>() {
        return Ok(ListenAddr::Tcp(addr));
    }
    if text.contains('/') {
        return Ok(ListenAddr::Unix(std::path::PathBuf::from(text)));
    }
    Err(format!(
        "{text:?} is neither an ip:port socket address nor a unix:<path> socket"
    ))
}

/// Builds the network front door's [`NetConfig`] from the environment.
/// `Ok(None)` when `OPTRR_SERVE_LISTEN` is unset (the binary serves
/// stdio); any malformed `OPTRR_SERVE_*` network variable is a startup
/// error, same as the service knobs.
pub fn net_config_from_env() -> Result<Option<NetConfig>, EnvError> {
    let Some(listen) = env_nonempty("OPTRR_SERVE_LISTEN")? else {
        return Ok(None);
    };
    let listen = parse_listen(&listen).map_err(|reason| reject("OPTRR_SERVE_LISTEN", reason))?;
    let mut config = NetConfig::new(listen);
    if let Some(max_conns) = env_usize("OPTRR_SERVE_MAX_CONNS", 1)? {
        config.max_conns = max_conns;
    }
    if let Some(drain_ms) = env_u64("OPTRR_SERVE_DRAIN_MS", 0)? {
        config.drain_ms = drain_ms;
    }
    Ok(Some(config))
}

#[cfg(test)]
mod tests {
    use super::*;

    // Environment variables are process-global, and the test harness runs
    // tests on threads: everything touching the environment lives in this
    // one test function so no other test can race it.
    #[test]
    fn env_overrides_are_validated_not_silently_defaulted() {
        for (name, _) in REMOVED {
            std::env::remove_var(name);
        }
        // Absent variables are simply absent.
        std::env::remove_var("OPTRR_SERVE_DRIFT");
        assert_eq!(env_positive_f64("OPTRR_SERVE_DRIFT"), Ok(None));

        // Valid values land in the config.
        std::env::set_var("OPTRR_SERVE_DRIFT", "5e-2");
        std::env::set_var("OPTRR_SERVE_WORKERS", "3");
        std::env::set_var("OPTRR_SERVE_SHARDS", " 6 ");
        std::env::set_var("OPTRR_SERVE_SEED", "42");
        std::env::set_var("OPTRR_SERVE_COVERAGE", "0");
        std::env::set_var("OPTRR_SERVE_BUDGET_BYTES", "1048576");
        std::env::set_var("OPTRR_SERVE_TTL_SECS", "2.5");
        std::env::set_var("OPTRR_SERVE_SNAPSHOT", "warm.json");
        std::env::set_var("OPTRR_SERVE_METRICS", "Off");
        std::env::set_var("OPTRR_SERVE_TRACE_CAP", "256");
        std::env::set_var("OPTRR_SERVE_FAULTS", "seed=7,refresh_panic=0.5,budget=2");
        std::env::set_var("OPTRR_SERVE_FAIL_BUDGET", "2");
        std::env::set_var("OPTRR_SERVE_RETRY_BASE_MS", "5");
        std::env::set_var("OPTRR_SERVE_RETRY_MAX_MS", "40");
        let config = config_from_env(false).expect("all values valid");
        assert_eq!(config.drift_mse_threshold, 5e-2);
        assert_eq!(config.workers, 3);
        assert_eq!(config.num_shards, 6);
        assert_eq!(config.base.seed, 42);
        assert_eq!(config.coverage_miss_threshold, 0);
        assert_eq!(config.memory_budget_bytes, Some(1_048_576));
        assert_eq!(config.key_ttl, Some(Duration::from_secs_f64(2.5)));
        assert_eq!(config.snapshot_path.as_deref(), Some("warm.json"));
        assert!(!config.metrics);
        assert_eq!(config.trace_cap, 256);
        let plan = config.faults.as_ref().expect("fault plan parsed");
        assert_eq!(plan.seed, 7);
        assert_eq!(plan.refresh_panic, 0.5);
        assert_eq!(plan.budget, Some(2));
        assert_eq!(config.fail_budget, 2);
        assert_eq!(config.retry_base_ms, 5);
        assert_eq!(config.retry_max_ms, 40);
        // The standard profile applies the same overrides on the full
        // engine budget.
        let standard = config_from_env(true).expect("all values valid");
        assert_eq!(standard.base.seed, 42);
        assert_eq!(standard.memory_budget_bytes, Some(1_048_576));

        // Every malformed value is a startup error, never a default.
        for (name, bad) in [
            ("OPTRR_SERVE_DRIFT", "zero point one"),
            ("OPTRR_SERVE_DRIFT", "-1e-3"),
            ("OPTRR_SERVE_DRIFT", "0"),
            ("OPTRR_SERVE_DRIFT", "inf"),
            ("OPTRR_SERVE_DRIFT", "NaN"),
            ("OPTRR_SERVE_WORKERS", "0"),
            ("OPTRR_SERVE_WORKERS", "-2"),
            ("OPTRR_SERVE_WORKERS", "many"),
            ("OPTRR_SERVE_SHARDS", "0"),
            ("OPTRR_SERVE_SEED", "1.5"),
            ("OPTRR_SERVE_COVERAGE", "-1"),
            ("OPTRR_SERVE_BUDGET_BYTES", "0"),
            ("OPTRR_SERVE_BUDGET_BYTES", "1MB"),
            ("OPTRR_SERVE_TTL_SECS", "-5"),
            ("OPTRR_SERVE_TTL_SECS", "soon"),
            ("OPTRR_SERVE_TTL_SECS", "1e300"),
            ("OPTRR_SERVE_SNAPSHOT", "   "),
            ("OPTRR_SERVE_METRICS", "yes"),
            ("OPTRR_SERVE_METRICS", "2"),
            ("OPTRR_SERVE_TRACE_CAP", "-1"),
            ("OPTRR_SERVE_TRACE_CAP", "lots"),
            ("OPTRR_SERVE_FAULTS", "bogus=1"),
            ("OPTRR_SERVE_FAULTS", "refresh_panic=1.5"),
            ("OPTRR_SERVE_FAULTS", "refresh_panic"),
            ("OPTRR_SERVE_FAIL_BUDGET", "0"),
            ("OPTRR_SERVE_FAIL_BUDGET", "lots"),
            ("OPTRR_SERVE_RETRY_BASE_MS", "0"),
            ("OPTRR_SERVE_RETRY_MAX_MS", "soonish"),
        ] {
            std::env::set_var(name, bad);
            let error =
                config_from_env(false).expect_err(&format!("{name}={bad:?} must be rejected"));
            assert_eq!(error.name, name, "wrong variable blamed for {name}={bad:?}");
            assert!(!error.to_string().is_empty());
            // Restore a valid value before testing the next variable.
            match name {
                "OPTRR_SERVE_DRIFT" => std::env::set_var(name, "5e-2"),
                "OPTRR_SERVE_SNAPSHOT" => std::env::set_var(name, "warm.json"),
                "OPTRR_SERVE_METRICS" => std::env::set_var(name, "off"),
                "OPTRR_SERVE_TRACE_CAP" => std::env::set_var(name, "256"),
                "OPTRR_SERVE_TTL_SECS" => std::env::set_var(name, "2.5"),
                "OPTRR_SERVE_BUDGET_BYTES" => std::env::set_var(name, "1048576"),
                "OPTRR_SERVE_COVERAGE" => std::env::set_var(name, "0"),
                "OPTRR_SERVE_FAULTS" => {
                    std::env::set_var(name, "seed=7,refresh_panic=0.5,budget=2");
                }
                _ => std::env::set_var(name, "3"),
            }
        }

        // Network knobs: absent means stdio, valid values land in the
        // NetConfig, malformed values are fatal.
        std::env::remove_var("OPTRR_SERVE_LISTEN");
        assert_eq!(net_config_from_env(), Ok(None), "no listen means stdio");
        std::env::set_var("OPTRR_SERVE_LISTEN", "127.0.0.1:7171");
        std::env::set_var("OPTRR_SERVE_MAX_CONNS", "512");
        std::env::set_var("OPTRR_SERVE_DRAIN_MS", "250");
        let net = net_config_from_env()
            .expect("all network values valid")
            .expect("listen address set");
        assert_eq!(
            net.listen,
            ListenAddr::Tcp("127.0.0.1:7171".parse().unwrap())
        );
        assert_eq!(net.max_conns, 512);
        assert_eq!(net.drain_ms, 250);
        std::env::set_var("OPTRR_SERVE_LISTEN", "unix:/tmp/optrr.sock");
        let net = net_config_from_env().unwrap().unwrap();
        assert_eq!(
            net.listen,
            ListenAddr::Unix(std::path::PathBuf::from("/tmp/optrr.sock"))
        );
        for (name, bad) in [
            ("OPTRR_SERVE_LISTEN", "not-an-address"),
            ("OPTRR_SERVE_LISTEN", "unix:"),
            ("OPTRR_SERVE_LISTEN", "   "),
            ("OPTRR_SERVE_MAX_CONNS", "0"),
            ("OPTRR_SERVE_MAX_CONNS", "plenty"),
            ("OPTRR_SERVE_DRAIN_MS", "-1"),
        ] {
            std::env::set_var(name, bad);
            let error =
                net_config_from_env().expect_err(&format!("{name}={bad:?} must be rejected"));
            assert_eq!(error.name, name, "wrong variable blamed for {name}={bad:?}");
            match name {
                "OPTRR_SERVE_LISTEN" => std::env::set_var(name, "127.0.0.1:7171"),
                _ => std::env::set_var(name, "3"),
            }
        }

        // A removed variable is fatal with any value, before any other
        // variable is read, so it aborts stdio and socket startup alike.
        for name in ["OPTRR_SERVE_CONN_QUEUE", "OPTRR_TUNE"] {
            for value in ["64", "1", "off", "pairs=32768,work=400000", ""] {
                std::env::set_var(name, value);
                let error = config_from_env(false).expect_err("a removed variable is fatal");
                assert_eq!(
                    error.name, name,
                    "wrong variable blamed for {name}={value:?}"
                );
                assert!(error.reason.contains("removed"), "{error}");
            }
            std::env::remove_var(name);
        }

        for name in [
            "OPTRR_SERVE_LISTEN",
            "OPTRR_SERVE_MAX_CONNS",
            "OPTRR_SERVE_DRAIN_MS",
            "OPTRR_SERVE_DRIFT",
            "OPTRR_SERVE_WORKERS",
            "OPTRR_SERVE_SHARDS",
            "OPTRR_SERVE_SEED",
            "OPTRR_SERVE_COVERAGE",
            "OPTRR_SERVE_BUDGET_BYTES",
            "OPTRR_SERVE_TTL_SECS",
            "OPTRR_SERVE_SNAPSHOT",
            "OPTRR_SERVE_METRICS",
            "OPTRR_SERVE_TRACE_CAP",
            "OPTRR_SERVE_FAULTS",
            "OPTRR_SERVE_FAIL_BUDGET",
            "OPTRR_SERVE_RETRY_BASE_MS",
            "OPTRR_SERVE_RETRY_MAX_MS",
        ] {
            std::env::remove_var(name);
        }
        let config = config_from_env(false).expect("a clean environment is valid");
        assert_eq!(config.drift_mse_threshold, 1e-3);
        assert_eq!(config.memory_budget_bytes, None);
        assert_eq!(config.key_ttl, None);
        assert_eq!(config.snapshot_path, None);
        assert!(config.metrics);
        assert_eq!(config.trace_cap, crate::telemetry::DEFAULT_TRACE_CAP);
        assert_eq!(config.faults, None, "no plan means no injector at all");
        assert_eq!(config.fail_budget, 3);
        assert_eq!(config.retry_base_ms, 25);
        assert_eq!(config.retry_max_ms, 1000);
        assert_eq!(net_config_from_env(), Ok(None));
    }

    // `parse_listen` is pure — it never reads the environment, so it can
    // be tested outside the serialized env test above.
    #[test]
    fn listen_addresses_parse_both_transports() {
        assert_eq!(
            parse_listen("127.0.0.1:7171"),
            Ok(ListenAddr::Tcp("127.0.0.1:7171".parse().unwrap()))
        );
        assert_eq!(
            parse_listen(" [::1]:9000 "),
            Ok(ListenAddr::Tcp("[::1]:9000".parse().unwrap()))
        );
        assert_eq!(
            parse_listen("unix:/run/optrr.sock"),
            Ok(ListenAddr::Unix(std::path::PathBuf::from(
                "/run/optrr.sock"
            )))
        );
        // A bare path (contains '/') is accepted as a Unix socket too.
        assert_eq!(
            parse_listen("/tmp/door.sock"),
            Ok(ListenAddr::Unix(std::path::PathBuf::from("/tmp/door.sock")))
        );
        assert!(parse_listen("").is_err());
        assert!(parse_listen("unix:").is_err());
        assert!(parse_listen("localhost").is_err(), "no port, no path");
        assert!(parse_listen("127.0.0.1").is_err(), "ip without port");
    }
}
