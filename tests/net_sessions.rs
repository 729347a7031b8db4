//! End-to-end sessions through the network front door ([`serve::net`]):
//! concurrent TCP and Unix-socket clients over one shared service, codec
//! negotiation (framed JSON vs the `OPTRR-WIRE v1` binary codec),
//! pipelining and backpressure, the bounded connection pool, graceful
//! drain on `Shutdown`, and the failure paths — a torn frame or an
//! injected mid-frame disconnect closes one session and leaves the
//! service fully usable.
//!
//! The determinism acceptance test is the load-bearing one: an identical
//! scripted session over JSON and over the binary codec, against
//! identically-seeded services, must produce byte-identical `Save`
//! snapshots and bitwise-equal matrices and estimates.

use serve::net::{ListenAddr, NetClient, NetConfig, NetServer};
use serve::wire::Codec;
use serve::{FaultPlan, Request, Response, Service, ServiceConfig};
use std::sync::Arc;

const PRIOR: [f64; 5] = [0.35, 0.25, 0.2, 0.12, 0.08];
const DELTA: f64 = 0.8;

fn tcp_server(config: ServiceConfig, net: impl FnOnce(NetConfig) -> NetConfig) -> NetServer {
    let service = Arc::new(Service::new(config));
    let base = NetConfig::new(ListenAddr::Tcp("127.0.0.1:0".parse().unwrap()));
    NetServer::start(service, net(base)).expect("binding an ephemeral loopback port succeeds")
}

fn register_request(name: &str) -> Request {
    Request::Register {
        name: Some(name.into()),
        prior: PRIOR.to_vec(),
        delta: DELTA,
        slots: Some(60),
        lazy: None,
    }
}

fn ingest_request(name: &str, records: Vec<usize>, seed: u64) -> Request {
    Request::Ingest {
        key: None,
        name: Some(name.into()),
        min_privacy: Some(0.05),
        records: Some(records),
        counts: None,
        seed: Some(seed),
    }
}

/// The scripted session both codecs replay in the determinism test.
fn scripted_session(client: &mut NetClient, snapshot_path: &str) -> Vec<Response> {
    let mut responses = Vec::new();
    let script = [
        register_request("demo"),
        ingest_request("demo", (0..400).map(|i| i % PRIOR.len()).collect(), 9),
        ingest_request(
            "demo",
            (0..400).map(|i| (i * 3) % PRIOR.len()).collect(),
            10,
        ),
        Request::BestForPrivacy {
            key: None,
            name: Some("demo".into()),
            min_privacy: 0.05,
        },
        Request::Estimate {
            key: None,
            name: Some("demo".into()),
        },
        Request::Save {
            path: snapshot_path.into(),
        },
    ];
    for request in script {
        responses.push(client.request(&request).expect("scripted request succeeds"));
    }
    responses
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("optrr_net_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn tcp_json_session_runs_the_full_verb_surface_and_drains() {
    let server = tcp_server(ServiceConfig::smoke(41), |net| net);
    let addr = server.listen_addr();

    let mut client = NetClient::connect(&addr, Codec::Json).unwrap();
    let Response::Registered { key, warm, .. } = client.request(&register_request("demo")).unwrap()
    else {
        panic!("expected Registered");
    };
    assert!(warm, "eager registration warms before responding");

    let response = client
        .request(&ingest_request("demo", vec![0, 1, 2, 3, 4, 0, 1, 0], 7))
        .unwrap();
    let Response::Ingested { accepted, .. } = response else {
        panic!("expected Ingested, got {response:?}");
    };
    assert_eq!(accepted, 8);

    let response = client
        .request(&Request::Estimate {
            key: Some(key),
            name: None,
        })
        .unwrap();
    assert!(matches!(response, Response::Estimated { .. }));

    assert_eq!(client.request(&Request::Shutdown).unwrap(), Response::Bye);
    assert!(server.is_draining(), "Shutdown drains the whole front door");
    server.wait();

    // The listener is gone after drain.
    let ListenAddr::Tcp(tcp) = addr else {
        unreachable!()
    };
    assert!(std::net::TcpStream::connect(tcp).is_err());
}

#[test]
fn unix_socket_sessions_speak_both_codecs_and_unlink_on_drain() {
    let dir = temp_dir("unix");
    let path = dir.join("door.sock");
    let service = Arc::new(Service::new(ServiceConfig::smoke(42)));
    let server = NetServer::start(service, NetConfig::new(ListenAddr::Unix(path.clone()))).unwrap();
    let addr = server.listen_addr();

    for codec in [Codec::Json, Codec::Binary] {
        let mut client = NetClient::connect(&addr, codec).unwrap();
        let response = client
            .request(&Request::BestForPrivacy {
                key: None,
                name: Some("missing".into()),
                min_privacy: 0.05,
            })
            .unwrap();
        assert!(
            matches!(response, Response::Error { .. }),
            "unknown name errors over {codec:?}"
        );
    }
    let mut client = NetClient::connect(&addr, Codec::Binary).unwrap();
    assert!(matches!(
        client.request(&register_request("u")).unwrap(),
        Response::Registered { .. }
    ));
    assert_eq!(client.request(&Request::Shutdown).unwrap(), Response::Bye);
    server.wait();
    assert!(!path.exists(), "socket file unlinked after drain");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn pipelined_requests_come_back_in_request_order() {
    let server = tcp_server(ServiceConfig::smoke(43), |net| net);
    let addr = server.listen_addr();

    for codec in [Codec::Json, Codec::Binary] {
        let mut client = NetClient::connect(&addr, codec).unwrap();
        assert!(matches!(
            client.request(&register_request("pipe")).unwrap(),
            Response::Registered { .. }
        ));
        // Fire a burst of distinguishable requests without reading a
        // single response, then collect: batch i must answer batch i.
        let depth = 16;
        for i in 1..=depth {
            client
                .send(&ingest_request("pipe", vec![0; i], i as u64))
                .unwrap();
        }
        for i in 1..=depth {
            let response = client.recv().unwrap();
            let Response::Ingested { accepted, .. } = response else {
                panic!("expected Ingested, got {response:?}");
            };
            assert_eq!(
                accepted, i as u64,
                "response order must match request order"
            );
        }
    }
    server.request_drain();
    server.wait();
}

#[test]
fn replies_larger_than_the_socket_buffers_come_back_in_order() {
    // Binary `BestForPrivacy` requests for a 64-category key: each request
    // frame is a few dozen bytes, each reply a ~32 KiB matrix. The client
    // sends the whole pipeline before reading one reply, so the session
    // blocks in `write` on full socket buffers while requests are still
    // queued behind it, and no reply may be lost, reordered or deadlocked.
    // The pipeline goes out in one write: on a Unix socket every write
    // holds a kernel buffer of its own, so hundreds of tiny writes would
    // fill the send buffer long before their bytes do.
    let categories = 64;
    let weights: Vec<f64> = (1..=categories).map(|i| 1.0 + (i % 7) as f64).collect();
    let total: f64 = weights.iter().sum();
    let prior: Vec<f64> = weights.iter().map(|w| w / total).collect();
    let query = |floor: f64| Request::BestForPrivacy {
        key: None,
        name: Some("wide".into()),
        min_privacy: floor,
    };
    let floors = [0.1, 0.5, 0.9];
    let depth = 384;

    let dir = temp_dir("wide");
    let unix = NetServer::start(
        Arc::new(Service::new(ServiceConfig::tiny(44))),
        NetConfig::new(ListenAddr::Unix(dir.join("wide.sock"))),
    )
    .unwrap();
    for server in [tcp_server(ServiceConfig::tiny(44), |net| net), unix] {
        let mut client = NetClient::connect(&server.listen_addr(), Codec::Binary).unwrap();
        let registered = client
            .request(&Request::Register {
                name: Some("wide".into()),
                prior: prior.clone(),
                delta: DELTA,
                slots: Some(64),
                lazy: None,
            })
            .unwrap();
        assert!(matches!(registered, Response::Registered { .. }));
        // Each floor's reply, asked one at a time; neighbours differ, so
        // a reordered reply cannot pass for the right one.
        let expected: Vec<Response> = floors
            .iter()
            .map(|&f| client.request(&query(f)).unwrap())
            .collect();
        for (a, b) in expected.iter().zip(expected.iter().cycle().skip(1)) {
            assert!(matches!(a, Response::Matrix { .. }), "{a:?}");
            assert_ne!(a, b, "distinct floors must get distinct matrices");
        }

        let mut pipeline = Vec::new();
        let mut replied = 0;
        for i in 0..depth {
            let k = i % floors.len();
            pipeline.extend(serve::wire::encode_request_frame(&query(floors[k])).unwrap());
            replied += serve::wire::encode_response_frame(&expected[k])
                .unwrap()
                .len();
        }
        let sent = pipeline.len();
        assert!(
            sent < 16 << 10,
            "{sent} request bytes fit the socket buffers"
        );
        assert!(replied > 4 << 20, "{replied} reply bytes overflow them");

        client.send_raw(&pipeline).unwrap();
        for i in 0..depth {
            let reply = client.recv().unwrap();
            assert!(
                reply == expected[i % floors.len()],
                "reply {i} is out of order"
            );
        }
        server.request_drain();
        server.wait();
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn the_connection_pool_bound_holds_and_queued_clients_get_served() {
    let server = tcp_server(ServiceConfig::smoke(45), |mut net| {
        net.max_conns = 1;
        net
    });
    let addr = server.listen_addr();

    let mut first = NetClient::connect(&addr, Codec::Json).unwrap();
    assert!(matches!(
        first.request(&register_request("pool")).unwrap(),
        Response::Registered { .. }
    ));

    // The second client connects (the OS backlog accepts the handshake)
    // and sends its request, but the pool must not serve it yet.
    let mut second = NetClient::connect(&addr, Codec::Json).unwrap();
    second
        .send(&Request::BestForPrivacy {
            key: None,
            name: Some("pool".into()),
            min_privacy: 0.05,
        })
        .unwrap();
    std::thread::sleep(std::time::Duration::from_millis(120));
    assert_eq!(
        server.active_connections(),
        1,
        "max_conns=1 admits one session at a time"
    );

    // Freeing the slot lets the queued client in; its buffered request
    // is answered.
    first.hang_up();
    drop(first);
    let response = second.recv().unwrap();
    assert!(matches!(response, Response::Matrix { .. }));
    server.request_drain();
    server.wait();
}

#[test]
fn torn_frames_close_one_session_and_leave_the_service_usable() {
    let server = tcp_server(ServiceConfig::smoke(46), |net| net);
    let addr = server.listen_addr();

    let mut setup = NetClient::connect(&addr, Codec::Json).unwrap();
    assert!(matches!(
        setup.request(&register_request("torn")).unwrap(),
        Response::Registered { .. }
    ));

    // A half-written JSON line: bytes, no newline, then hang-up.
    let mut torn = NetClient::connect(&addr, Codec::Json).unwrap();
    torn.send_raw(br#"{"Estimate":{"name":"to"#).unwrap();
    torn.hang_up();

    // A torn binary length prefix: the preamble, two of four length
    // bytes, then hang-up.
    let mut torn = NetClient::connect(&addr, Codec::Binary).unwrap();
    torn.send_raw(&[0x0f, 0x00]).unwrap();
    torn.hang_up();

    // A binary frame whose length promises more body than is sent.
    let mut torn = NetClient::connect(&addr, Codec::Binary).unwrap();
    torn.send_raw(&[0x20, 0x00, 0x00, 0x00, 0x03, 0x01])
        .unwrap();
    torn.hang_up();

    // The shared service is untouched: fresh sessions on both codecs
    // keep serving the key registered before the carnage.
    for codec in [Codec::Json, Codec::Binary] {
        let mut client = NetClient::connect(&addr, codec).unwrap();
        let response = client
            .request(&Request::BestForPrivacy {
                key: None,
                name: Some("torn".into()),
                min_privacy: 0.05,
            })
            .unwrap();
        assert!(matches!(response, Response::Matrix { .. }));
    }
    server.request_drain();
    server.wait();
}

#[test]
fn deeply_nested_and_incomplete_json_lines_get_invalid_request_and_the_session_goes_on() {
    // A 100,000-deep line is 100 KB, far under the frame cap; a reader
    // that recursed once per level overflowed the 512 KiB session stack
    // and aborted the whole process.
    let dir = temp_dir("deep");
    let tcp = tcp_server(ServiceConfig::smoke(50), |net| net);
    let service = Arc::new(Service::new(ServiceConfig::smoke(51)));
    let unix = NetServer::start(
        service,
        NetConfig::new(ListenAddr::Unix(dir.join("deep.sock"))),
    )
    .unwrap();
    let deep = "[".repeat(100_000);
    let bad_lines = [
        (deep.clone(), "unknown variant"),
        (
            format!(r#"{{"Stats":{{"skipped":{deep}"#),
            "nesting deeper than 128",
        ),
        // A required float left out is an error, not NaN.
        (
            r#"{"BestForPrivacy":{"name":"x"}}"#.to_string(),
            "missing field `min_privacy`",
        ),
    ];
    for server in [tcp, unix] {
        let mut client = NetClient::connect(&server.listen_addr(), Codec::Json).unwrap();
        for (line, reason_part) in &bad_lines {
            client.send_raw(format!("{line}\n").as_bytes()).unwrap();
            let response = client.recv().unwrap();
            let Response::Error { reason, code } = response else {
                panic!("expected an error, got {response:?}");
            };
            assert_eq!(code, "invalid_request");
            assert!(reason.contains(reason_part), "{reason}");
            let response = client
                .request(&Request::Stats {
                    key: None,
                    name: None,
                })
                .unwrap();
            assert!(matches!(response, Response::ServiceStats { .. }));
        }
        assert_eq!(client.request(&Request::Shutdown).unwrap(), Response::Bye);
        server.wait();
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupted_binary_frames_get_a_typed_error_and_the_service_survives() {
    let server = tcp_server(ServiceConfig::smoke(47), |net| net);
    let addr = server.listen_addr();
    let mut client = NetClient::connect(&addr, Codec::Binary).unwrap();
    assert!(matches!(
        client.request(&register_request("crc")).unwrap(),
        Response::Registered { .. }
    ));

    // Flip a payload byte inside a valid frame: the CRC check fails, the
    // session answers with a transport error and closes (a checksum
    // mismatch means the stream can no longer be trusted).
    let mut frame = serve::wire::encode_request_frame(&Request::Estimate {
        key: Some(1),
        name: None,
    })
    .unwrap();
    let last = frame.len() - 6;
    frame[last] ^= 0xFF;
    client.send_raw(&frame).unwrap();
    let response = client.recv().unwrap();
    let Response::Error { code, .. } = response else {
        panic!("expected a typed transport error, got {response:?}");
    };
    assert_eq!(code, "transport");
    let closed = client.recv().expect_err("the corrupted session is closed");
    assert_eq!(closed.kind(), std::io::ErrorKind::UnexpectedEof);

    // The service is fine: a fresh session still serves.
    let mut fresh = NetClient::connect(&addr, Codec::Binary).unwrap();
    assert!(matches!(
        fresh
            .request(&Request::BestForPrivacy {
                key: None,
                name: Some("crc".into()),
                min_privacy: 0.05,
            })
            .unwrap(),
        Response::Matrix { .. }
    ));
    server.request_drain();
    server.wait();
}

#[test]
fn injected_connection_drops_kill_one_session_not_the_service() {
    let config = ServiceConfig {
        faults: Some(FaultPlan::parse("seed=7,conn_drop=1,budget=1").unwrap()),
        ..ServiceConfig::smoke(48)
    };
    let server = tcp_server(config, |net| net);
    let addr = server.listen_addr();

    // The first request of the first connection hits the injected drop:
    // the server hangs up mid-frame and the client sees EOF, not a
    // response.
    let mut doomed = NetClient::connect(&addr, Codec::Json).unwrap();
    doomed.send(&register_request("chaos")).unwrap();
    assert!(
        doomed.recv().is_err(),
        "the injected drop must sever the first session"
    );

    // The budget is spent: the next session works end to end, and no
    // state leaked from the severed one (registration never happened).
    let mut survivor = NetClient::connect(&addr, Codec::Json).unwrap();
    let response = survivor
        .request(&Request::BestForPrivacy {
            key: None,
            name: Some("chaos".into()),
            min_privacy: 0.05,
        })
        .unwrap();
    assert!(
        matches!(response, Response::Error { .. }),
        "the dropped registration must not have happened"
    );
    assert!(matches!(
        survivor.request(&register_request("chaos")).unwrap(),
        Response::Registered { .. }
    ));
    server.request_drain();
    server.wait();
}

#[test]
fn json_and_binary_sessions_produce_byte_identical_snapshots() {
    let dir = temp_dir("xcodec");
    let json_snap = dir.join("json.snap");
    let binary_snap = dir.join("binary.snap");

    let seed = 2008;
    let json_server = tcp_server(ServiceConfig::smoke(seed), |net| net);
    let binary_server = tcp_server(ServiceConfig::smoke(seed), |net| net);

    let mut json_client = NetClient::connect(&json_server.listen_addr(), Codec::Json).unwrap();
    let mut binary_client =
        NetClient::connect(&binary_server.listen_addr(), Codec::Binary).unwrap();
    let json_responses = scripted_session(&mut json_client, json_snap.to_str().unwrap());
    let binary_responses = scripted_session(&mut binary_client, binary_snap.to_str().unwrap());

    // Every response — registration, ingest accounting, the served
    // matrix, the estimate — must be equal across codecs (the trailing
    // `Saved` responses carry each session's own snapshot path, so they
    // are compared on key count only)...
    assert_eq!(json_responses[..5], binary_responses[..5]);
    assert!(matches!(
        (&json_responses[5], &binary_responses[5]),
        (
            Response::Saved { keys: 1, .. },
            Response::Saved { keys: 1, .. }
        )
    ));

    // ...and bitwise so for the float-bearing ones: the binary codec's
    // raw f64 bits must match JSON's decimal round trip exactly.
    let Response::Matrix { matrix: jm, .. } = &json_responses[3] else {
        panic!("expected Matrix");
    };
    let Response::Matrix { matrix: bm, .. } = &binary_responses[3] else {
        panic!("expected Matrix");
    };
    for (jc, bc) in jm.columns.iter().zip(&bm.columns) {
        for (a, b) in jc.iter().zip(bc) {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "matrix cells must be bitwise equal"
            );
        }
    }
    let Response::Estimated { stats: js } = &json_responses[4] else {
        panic!("expected Estimated");
    };
    let Response::Estimated { stats: bs } = &binary_responses[4] else {
        panic!("expected Estimated");
    };
    for (a, b) in js.distribution.iter().zip(&bs.distribution) {
        assert_eq!(a.to_bits(), b.to_bits(), "estimates must be bitwise equal");
    }

    // The acceptance bar: the warm stores the two sessions built are
    // byte-identical on disk.
    let json_bytes = std::fs::read(&json_snap).unwrap();
    let binary_bytes = std::fs::read(&binary_snap).unwrap();
    assert!(!json_bytes.is_empty());
    assert_eq!(
        json_bytes, binary_bytes,
        "a binary session must build a byte-identical warm store to a JSON session"
    );

    for server in [json_server, binary_server] {
        server.request_drain();
        server.wait();
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn concurrent_sessions_share_one_service_without_interference() {
    let server = tcp_server(ServiceConfig::smoke(49), |net| net);
    let addr = server.listen_addr();

    let mut setup = NetClient::connect(&addr, Codec::Json).unwrap();
    assert!(matches!(
        setup.request(&register_request("shared")).unwrap(),
        Response::Registered { .. }
    ));

    let workers: Vec<_> = (0..8)
        .map(|i| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let codec = if i % 2 == 0 {
                    Codec::Json
                } else {
                    Codec::Binary
                };
                let mut client = NetClient::connect(&addr, codec).unwrap();
                for round in 0..10 {
                    let response = client
                        .request(&Request::BestForPrivacy {
                            key: None,
                            name: Some("shared".into()),
                            min_privacy: 0.05,
                        })
                        .unwrap();
                    assert!(
                        matches!(response, Response::Matrix { .. }),
                        "worker {i} round {round}"
                    );
                }
            })
        })
        .collect();
    for worker in workers {
        worker.join().unwrap();
    }

    // The load never re-ran the engine, and every query over either codec
    // was answered from the warm store.
    let Response::ServiceStats {
        engine_runs,
        queries,
        warm_hits,
        ..
    } = setup
        .request(&Request::Stats {
            key: None,
            name: None,
        })
        .unwrap()
    else {
        panic!("expected ServiceStats");
    };
    assert_eq!(engine_runs, 1, "only the registration ran the engine");
    assert_eq!(queries, 80);
    assert_eq!(warm_hits, 80, "every query is a warm hit");

    server.request_drain();
    server.wait();
}

/// `serve_connections_active` adds on every open and subtracts on every
/// close, so many sessions opening and closing at once leave it at zero
/// once the server has drained.
#[test]
fn connections_active_gauge_reads_zero_after_concurrent_hang_ups() {
    let service = Arc::new(Service::new(ServiceConfig {
        metrics: true,
        ..ServiceConfig::smoke(47)
    }));
    let base = NetConfig::new(ListenAddr::Tcp("127.0.0.1:0".parse().unwrap()));
    let server = NetServer::start(Arc::clone(&service), base).unwrap();
    let addr = server.listen_addr();
    std::thread::scope(|scope| {
        for _ in 0..8 {
            scope.spawn(|| {
                for round in 0..8 {
                    let mut client = NetClient::connect(&addr, Codec::Json).unwrap();
                    if round % 2 == 0 {
                        let stats = client.request(&Request::Stats {
                            key: None,
                            name: None,
                        });
                        assert!(matches!(stats, Ok(Response::ServiceStats { .. })));
                    }
                    client.hang_up();
                }
            });
        }
    });
    server.request_drain();
    server.wait();
    let Response::Metrics { gauges, .. } = service.handle(Request::Metrics) else {
        panic!("expected Metrics");
    };
    let active = gauges
        .iter()
        .find(|g| g.name == "serve_connections_active")
        .map(|g| g.value);
    assert_eq!(active, Some(0));
}
