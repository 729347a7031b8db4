//! The `serve` binary: the framed-JSON matrix-serving + pipeline front
//! door over stdin/stdout.
//!
//! One JSON request per input line, one JSON response per output line (see
//! `serve::protocol` for the frame shapes). Besides the matrix queries
//! (`Register`/`BestForPrivacy`/`BestForMse`/`Front`), the binary speaks
//! the streaming pipeline verbs — `Ingest`, `Disguise`, `Estimate`,
//! `EstimateAll` — the persistence verbs `Save`/`Load` (plus automatic
//! snapshots on `Sync`/shutdown when `OPTRR_SERVE_SNAPSHOT` is set), and
//! the multi-tenant lifecycle verbs `Evict`/`Stats`, and the
//! observability verbs `Metrics`/`Trace` (per-verb latency histograms,
//! lifecycle counters, and the structured event trace — pure readouts
//! that never influence serving). The engine budget
//! defaults to the smoke profile so offline smoke sessions warm up in
//! well under a second; `--standard` selects the full default budget.
//!
//! With `--listen ADDR` (or `OPTRR_SERVE_LISTEN`) the binary serves the
//! same protocol over TCP or a Unix-domain socket instead of stdio:
//! concurrent sessions over one shared service, per-connection codec
//! negotiation (JSON lines or the `OPTRR-WIRE v1` binary frames — see
//! `serve::net` and `serve::wire`), and graceful drain on `Shutdown`.
//!
//! Usage:
//! ```text
//! cargo run --release -p optrr-serve --bin serve [-- --standard] [--listen ADDR]
//! # ADDR: ip:port (127.0.0.1:7171) or unix:<path> (unix:/run/optrr.sock)
//! # environment overrides (invalid values abort startup, see serve::env):
//! #   OPTRR_SERVE_SEED          base RNG seed             (default 2008)
//! #   OPTRR_SERVE_WORKERS       refresh worker threads    (default 2/smoke, cores/standard)
//! #   OPTRR_SERVE_DRIFT         drift MSE threshold       (default 1e-3)
//! #   OPTRR_SERVE_COVERAGE      coverage-miss threshold   (default 8, 0 disables)
//! #   OPTRR_SERVE_BUDGET_BYTES  resident-memory budget    (default unbounded)
//! #   OPTRR_SERVE_TTL_SECS      idle-key TTL              (default none)
//! #   OPTRR_SERVE_SNAPSHOT      snapshot/autosave path    (default none)
//! #   OPTRR_SERVE_METRICS       metrics + trace recording (default on; 0/false/off disables)
//! #   OPTRR_SERVE_TRACE_CAP     event-trace ring capacity (default 1024, 0 disables the ring)
//! #   OPTRR_SERVE_FAULTS        deterministic fault plan  (default none; see serve::faults)
//! #   OPTRR_SERVE_FAIL_BUDGET   failures before Degraded  (default 3)
//! #   OPTRR_SERVE_RETRY_BASE_MS first retry backoff delay (default 25)
//! #   OPTRR_SERVE_RETRY_MAX_MS  backoff delay ceiling     (default 1000)
//! #   OPTRR_SERVE_LISTEN        network listen address    (default none: stdio)
//! #   OPTRR_SERVE_MAX_CONNS     connection-pool bound     (default 1024)
//! #   OPTRR_SERVE_DRAIN_MS      drain grace on shutdown   (default 5000)
//! # a removed variable is fatal if set, whatever its value;
//! # serve::env::REMOVED lists each one with the reason it went
//! ```

use serve::net::NetServer;
use serve::Service;
use std::io::{self, BufReader};
use std::sync::Arc;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let standard = args.iter().any(|a| a == "--standard");
    let listen_arg = args
        .iter()
        .position(|a| a == "--listen")
        .map(|i| match args.get(i + 1) {
            Some(addr) => addr.clone(),
            None => {
                eprintln!("optrr-serve: --listen requires an address (ip:port or unix:<path>)");
                std::process::exit(2);
            }
        });
    let config = match serve::env::config_from_env(standard) {
        Ok(config) => config,
        Err(error) => {
            eprintln!("optrr-serve: invalid environment configuration: {error}");
            std::process::exit(2);
        }
    };
    let mut net_config = match serve::env::net_config_from_env() {
        Ok(net_config) => net_config,
        Err(error) => {
            eprintln!("optrr-serve: invalid environment configuration: {error}");
            std::process::exit(2);
        }
    };
    if let Some(addr) = listen_arg {
        // The command line wins over OPTRR_SERVE_LISTEN; the pool knobs
        // from the environment still apply.
        match serve::env::parse_listen(&addr) {
            Ok(listen) => match net_config.take() {
                Some(mut net) => {
                    net.listen = listen;
                    net_config = Some(net);
                }
                None => net_config = Some(serve::net::NetConfig::new(listen)),
            },
            Err(reason) => {
                eprintln!("optrr-serve: invalid --listen address: {reason}");
                std::process::exit(2);
            }
        }
    }
    let service = Arc::new(Service::new(config));
    if let Some(net_config) = net_config {
        let server = match NetServer::start(service, net_config) {
            Ok(server) => server,
            Err(error) => {
                eprintln!("optrr-serve: cannot bind the listener: {error}");
                std::process::exit(1);
            }
        };
        eprintln!("optrr-serve: listening on {}", server.listen_addr());
        let sessions = server.wait();
        eprintln!("optrr-serve: drained after {sessions} sessions");
        return;
    }
    let stdin = io::stdin();
    let stdout = io::stdout();
    if let Err(error) = service.run_loop(BufReader::new(stdin.lock()), stdout.lock()) {
        eprintln!("optrr-serve: session failed: {error}");
        std::process::exit(1);
    }
}
