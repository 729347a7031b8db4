//! The session core: the one request loop every transport runs (read a
//! frame, decode it, consult the `conn_drop` fault site, time the
//! dispatch, record the verb, encode and emit the reply) and the two
//! frame readers it shares with [`crate::net::NetClient`]. Stdio
//! ([`Service::run_loop`]) runs it as connection 0 with the JSON codec;
//! `serve::net` runs it per accepted socket with the negotiated codec.
//!
//! The loop dispatches through [`Service::reply`], the crate-private
//! form of [`Service::handle`]. A point query's hit stays the stored Ω
//! entry until it is encoded: a binary session writes its `Matrix` frame
//! straight from the stored matrix ([`wire::encode_matrix_reply`]), and a
//! JSON session converts it to the same [`Response`] `handle` returns.
//! Either way the bytes equal those of encoding `handle`'s response.
//!
//! One framing rule holds for every transport. A JSON line ends at `\n`;
//! a line that EOF cuts off is served if it decodes as a complete
//! request, and is a torn frame otherwise. A whole line that is not UTF-8
//! or not a request is answered `invalid_request` and the session goes
//! on. A JSON line (its `\n` included) and a binary body hold at most
//! [`wire::MAX_FRAME_LEN`] bytes, and a binary body is read as its bytes
//! arrive. A torn frame ends the session with a typed
//! [`ServeError::Transport`], counted in `serve_net_conn_errors_total`
//! and answered best-effort.

use crate::dispatch::Reply;
use crate::protocol::{self, Response};
use crate::service::{ServeError, Service};
use crate::wire::{self, Codec, MAX_FRAME_LEN};
use std::io::{self, BufRead, Read, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// The most a frame buffer reserves ahead of the bytes received, whatever
/// a binary header claims.
pub(crate) const FRAME_PREALLOC: usize = 64 * 1024;

/// Why a session's request loop stopped.
#[derive(Debug)]
pub(crate) enum SessionEnd {
    /// The client closed at a frame boundary or sent `Shutdown`, or
    /// drain was requested while the session was idle.
    Clean,
    /// The transport failed; the error was answered best-effort.
    Torn(ServeError),
    /// The `conn_drop` fault site fired: the transport hangs up without
    /// an answer.
    Dropped(ServeError),
}

impl Service {
    /// Drives a whole framed-JSON session: one request per input line,
    /// one response per output line, until `Shutdown` or end of input.
    /// Malformed lines produce `Error` responses and the session
    /// continues. A transport error (a torn final line, a failed read or
    /// write) is answered best-effort and returned as `InvalidData`.
    pub fn run_loop<R: BufRead, W: Write>(
        self: &Arc<Self>,
        mut reader: R,
        mut writer: W,
    ) -> io::Result<()> {
        let mut emit = |bytes: Vec<u8>| {
            writer.write_all(&bytes)?;
            writer.flush()
        };
        let draining = AtomicBool::new(false);
        match run_session(self, &mut reader, Codec::Json, 0, &draining, &mut emit) {
            SessionEnd::Torn(error) | SessionEnd::Dropped(error) => Err(invalid_data(error)),
            SessionEnd::Clean => Ok(()),
        }
    }
}

/// Runs one session over `reader` until it ends. `draining` is polled
/// whenever a read times out between frames, and raised by `Shutdown`;
/// `emit` delivers each encoded response to the transport.
pub(crate) fn run_session<R: BufRead>(
    service: &Arc<Service>,
    reader: &mut R,
    codec: Codec,
    conn_id: u64,
    draining: &AtomicBool,
    emit: &mut dyn FnMut(Vec<u8>) -> io::Result<()>,
) -> SessionEnd {
    let obs = service.obs();
    // Response bytes are counted once the transport accepts them: when a
    // socket session has buffered them, not when they reach the socket.
    let mut emit = |bytes: Vec<u8>| {
        let len = bytes.len() as u64;
        emit(bytes).map(|()| obs.add_net_bytes_out(len))
    };
    let end = request_loop(service, reader, codec, conn_id, draining, &mut emit);
    match &end {
        SessionEnd::Torn(error) => {
            obs.count_net_conn_error();
            // Best-effort: tell the client what happened, in its own
            // codec. After an abrupt disconnect the emit fails; the
            // session ends either way and the service is untouched.
            let response = Response::Error {
                reason: error.to_string(),
                code: error.code().to_string(),
            };
            let _ = emit(encode_reply(Reply::Response(response), codec));
        }
        SessionEnd::Dropped(_) => obs.count_net_conn_error(),
        SessionEnd::Clean => {}
    }
    end
}

fn request_loop<R: BufRead>(
    service: &Arc<Service>,
    reader: &mut R,
    codec: Codec,
    conn_id: u64,
    draining: &AtomicBool,
    emit: &mut dyn FnMut(Vec<u8>) -> io::Result<()>,
) -> SessionEnd {
    let obs = service.obs();
    let mut frame = Vec::new();
    let mut request_index: u64 = 0;
    loop {
        match read_frame(reader, codec, &mut frame, &|| {
            draining.load(Ordering::SeqCst)
        }) {
            Ok(true) => obs.add_net_bytes_in(frame.len() as u64),
            Ok(false) => return SessionEnd::Clean,
            Err(e) => return torn(e),
        }
        // `Err(reason)`: a whole frame that is no valid request, answered
        // `invalid_request` while the session goes on.
        let request = match codec {
            Codec::Binary => match wire::parse_body(&frame[4..]) {
                Ok((tag, payload)) => wire::decode_request_frame(tag, payload)
                    .map_err(|e| format!("bad request frame: {e}")),
                Err(e) => return torn(e),
            },
            Codec::Json => match std::str::from_utf8(&frame).map(str::trim) {
                Ok("") => continue,
                Ok(text) => {
                    protocol::decode_request(text).map_err(|e| format!("bad request line: {e}"))
                }
                Err(_) => Err("request line is not UTF-8".to_string()),
            },
        };
        if request.is_err() && codec == Codec::Json && !frame.ends_with(b"\n") {
            return torn(format!(
                "connection closed mid-line after {} bytes",
                frame.len()
            ));
        }
        // The deterministic disconnect fault: hang up instead of
        // handling, exercising the torn-frame cleanup end to end.
        if let Some(injector) = service.faults.as_ref() {
            if injector.conn_drop(conn_id, request_index) {
                return SessionEnd::Dropped(ServeError::Transport(format!(
                    "injected connection drop before request {request_index}"
                )));
            }
        }
        request_index += 1;
        let reply = match request {
            // The timing wraps the dispatch only when recording is on, so
            // a metrics-off session takes zero clock reads per request.
            Ok(request) if obs.enabled() => {
                let verb = request.verb();
                let start_ns = obs.now_ns();
                let reply = service.reply(request);
                let elapsed = obs.now_ns().saturating_sub(start_ns);
                obs.record_verb(verb, elapsed);
                obs.record_net_verb(verb, codec.label(), elapsed);
                reply
            }
            Ok(request) => service.reply(request),
            Err(reason) => Reply::Response(Response::Error {
                reason,
                code: "invalid_request".to_string(),
            }),
        };
        let bye = matches!(reply, Reply::Response(Response::Bye));
        if bye {
            // `Shutdown` drains the whole front door, before the client
            // can see its `Bye`.
            draining.store(true, Ordering::SeqCst);
        }
        if let Err(e) = emit(encode_reply(reply, codec)) {
            return torn(format!("writing a response: {e}"));
        }
        if bye {
            return SessionEnd::Clean;
        }
    }
}

fn torn(reason: impl std::fmt::Display) -> SessionEnd {
    SessionEnd::Torn(ServeError::Transport(reason.to_string()))
}

/// A reply's bytes in `codec`: a JSON line with its `\n`, or a binary
/// frame. Either way a hit's `Matrix` reply is written from the stored
/// matrix.
fn encode_reply(reply: Reply, codec: Codec) -> Vec<u8> {
    if codec == Codec::Json {
        let mut line = match reply {
            Reply::Matrix {
                key,
                found,
                degraded,
            } => protocol::encode_matrix_hit(key, &found, degraded),
            Reply::Response(response) => protocol::encode_response(&response),
        };
        line.push('\n');
        return line.into_bytes();
    }
    let frame = match reply {
        Reply::Matrix {
            key,
            found,
            degraded,
        } => wire::encode_matrix_reply(key, &found, degraded),
        Reply::Response(response) => wire::encode_response_frame(&response),
    };
    frame.unwrap_or_else(|e| {
        // Unencodable responses are bounded-size errors by construction,
        // so this fallback frame always encodes.
        wire::encode_response_frame(&Response::Error {
            reason: format!("response unencodable: {e}"),
            code: "transport".to_string(),
        })
        .expect("a small error frame always encodes")
    })
}

/// Whether a read error is a read timeout (or an interruption), after
/// which a session polls its drain flag and reads on.
pub(crate) fn is_poll_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut | io::ErrorKind::Interrupted
    )
}

/// Wraps a framing or decoding failure as an `InvalidData` I/O error.
pub(crate) fn invalid_data(e: impl std::fmt::Display) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, e.to_string())
}

/// Reads one frame of `codec` into `frame`: a JSON line through its `\n`
/// (or up to EOF), or a binary frame's 4-byte header and its body.
/// `Ok(false)`: the stream ended, or drain was requested, at a frame
/// boundary.
pub(crate) fn read_frame<R: BufRead>(
    reader: &mut R,
    codec: Codec,
    frame: &mut Vec<u8>,
    draining: &dyn Fn() -> bool,
) -> io::Result<bool> {
    frame.clear();
    // One large frame must not pin its buffer for the rest of a session.
    frame.shrink_to(FRAME_PREALLOC);
    // A JSON line reads at most one byte past the cap, which tells an
    // over-long line from one exactly at it.
    let first = match codec {
        Codec::Json => MAX_FRAME_LEN as usize + 1,
        Codec::Binary => 4,
    };
    read_to(reader, codec, frame, first, draining)?;
    match codec {
        _ if frame.is_empty() => Ok(false),
        Codec::Json if frame.len() == first => Err(invalid_data(format!(
            "line exceeds the {MAX_FRAME_LEN}-byte frame cap"
        ))),
        Codec::Json => Ok(true),
        Codec::Binary => {
            if frame.len() == 4 {
                let body_len = wire::parse_header([frame[0], frame[1], frame[2], frame[3]])
                    .map_err(invalid_data)?;
                frame.reserve(body_len.min(FRAME_PREALLOC));
                read_to(reader, codec, frame, 4 + body_len, draining)?;
                if frame.len() == 4 + body_len {
                    return Ok(true);
                }
            }
            Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                format!("connection closed mid-frame after {} bytes", frame.len()),
            ))
        }
    }
}

/// Appends bytes to `frame` until it holds `want` bytes, EOF, or (JSON)
/// the end of the line, retrying across poll timeouts; it stops early,
/// with `frame` still empty, when drain is requested before the first
/// byte. The buffer grows with the bytes received.
fn read_to<R: BufRead>(
    reader: &mut R,
    codec: Codec,
    frame: &mut Vec<u8>,
    want: usize,
    draining: &dyn Fn() -> bool,
) -> io::Result<()> {
    loop {
        let mut limited = Read::take(&mut *reader, (want - frame.len()) as u64);
        let read = match codec {
            Codec::Json => limited.read_until(b'\n', frame),
            Codec::Binary => limited.read_to_end(frame),
        };
        match read {
            Err(e) if is_poll_timeout(&e) => {
                if frame.is_empty() && draining() {
                    return Ok(());
                }
            }
            other => return other.map(drop),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::Request;
    use crate::service::ServiceConfig;

    fn service() -> Arc<Service> {
        Arc::new(Service::new(ServiceConfig::smoke(5)))
    }

    /// Runs the core over `input` and returns how it ended and what it
    /// emitted.
    fn session(
        service: &Arc<Service>,
        mut input: impl BufRead,
        codec: Codec,
    ) -> (SessionEnd, Vec<Vec<u8>>) {
        let mut emitted = Vec::new();
        let draining = AtomicBool::new(false);
        let end = run_session(service, &mut input, codec, 0, &draining, &mut |bytes| {
            emitted.push(bytes);
            Ok(())
        });
        (end, emitted)
    }

    fn conn_errors(service: &Service) -> u64 {
        let snapshot = service.obs().metrics_snapshot();
        snapshot
            .counters
            .iter()
            .find(|(name, _)| name == "serve_net_conn_errors_total")
            .map_or(0, |(_, value)| *value)
    }

    fn transport_error(bytes: &[u8], codec: Codec) -> String {
        let response = match codec {
            Codec::Json => protocol::decode_response(std::str::from_utf8(bytes).unwrap().trim())
                .expect("a JSON response"),
            Codec::Binary => {
                let (tag, payload) = wire::parse_body(&bytes[4..]).unwrap();
                wire::decode_response_frame(tag, payload).unwrap()
            }
        };
        let Response::Error { reason, code } = response else {
            panic!("expected an error response, got {response:?}");
        };
        assert_eq!(code, "transport");
        reason
    }

    #[test]
    fn json_lines_follow_the_eof_and_utf8_rules() {
        let service = service();
        // A blank line is skipped, a non-UTF-8 line is answered and the
        // session goes on, and an unterminated final request is served.
        let (end, emitted) = session(&service, &b"\n  \n\xff\xfe\n\"Shutdown\""[..], Codec::Json);
        assert!(matches!(end, SessionEnd::Clean), "{end:?}");
        assert_eq!(emitted.len(), 2);
        let first = String::from_utf8(emitted[0].clone()).unwrap();
        assert!(first.contains(r#""code":"invalid_request""#), "{first}");
        assert_eq!(emitted[1], b"\"Bye\"\n");

        // An unterminated line is served when it decodes; one that is no
        // request is a torn frame: one transport error, counted once.
        let (end, emitted) = session(&service, &br#"{"Stats":{}}"#[..], Codec::Json);
        assert!(matches!(end, SessionEnd::Clean), "{end:?}");
        assert_eq!(emitted.len(), 1);
        let (end, emitted) = session(&service, &br#"{"Stats":"#[..], Codec::Json);
        assert!(matches!(end, SessionEnd::Torn(_)), "{end:?}");
        assert_eq!(emitted.len(), 1);
        assert!(transport_error(&emitted[0], Codec::Json).contains("mid-line after 9 bytes"));
        assert_eq!(conn_errors(&service), 1);
    }

    #[test]
    fn an_endless_line_and_an_oversized_header_end_the_same_way() {
        let service = service();
        // A client that never sends `\n`: the line stops at the cap.
        let endless = io::BufReader::new(io::repeat(b'x'));
        let (end, emitted) = session(&service, endless, Codec::Json);
        let SessionEnd::Torn(ServeError::Transport(reason)) = end else {
            panic!("expected a torn session, got {end:?}");
        };
        assert!(reason.contains("frame cap"), "{reason}");
        assert_eq!(emitted.len(), 1);
        transport_error(&emitted[0], Codec::Json);

        // A binary header claiming one byte past the cap.
        let header = (MAX_FRAME_LEN + 1).to_le_bytes();
        let (end, emitted) = session(&service, &header[..], Codec::Binary);
        assert!(
            matches!(end, SessionEnd::Torn(ServeError::Transport(_))),
            "{end:?}"
        );
        assert!(transport_error(&emitted[0], Codec::Binary).contains("exceeds"));
        assert_eq!(conn_errors(&service), 2);
    }

    #[test]
    fn point_query_replies_equal_the_encoded_handle_responses_bitwise() {
        // The session writes a hit's frame from the stored matrix; a twin
        // service's `handle` response, encoded, must give the same bytes
        // for hits, misses and unknown keys, in both codecs.
        let (served, twin) = (service(), service());
        let register = Request::Register {
            name: Some("demo".into()),
            prior: vec![0.4, 0.3, 0.2, 0.1],
            delta: 0.8,
            slots: None,
            lazy: None,
        };
        let key = match (served.handle(register.clone()), twin.handle(register)) {
            (Response::Registered { key, .. }, Response::Registered { key: twin_key, .. }) => {
                assert_eq!(key, twin_key);
                key
            }
            other => panic!("registration failed: {other:?}"),
        };
        let privacy = |key, min_privacy| Request::BestForPrivacy {
            key: Some(key),
            name: None,
            min_privacy,
        };
        let mse = |key, max_mse| Request::BestForMse {
            key: Some(key),
            name: None,
            max_mse,
        };
        let requests = [
            privacy(key, 0.05),
            mse(key, 1.0),
            Request::BestForPrivacy {
                key: None,
                name: Some("demo".into()),
                min_privacy: 0.3,
            },
            privacy(key, 2.0),
            mse(key, -1.0),
            privacy(key ^ 1, 0.05),
            mse(key ^ 1, 1.0),
        ];
        for codec in [Codec::Binary, Codec::Json] {
            let input: Vec<u8> = requests
                .iter()
                .flat_map(|request| match codec {
                    Codec::Binary => wire::encode_request_frame(request).unwrap(),
                    Codec::Json => (protocol::encode_request(request) + "\n").into_bytes(),
                })
                .collect();
            let (end, emitted) = session(&served, &input[..], codec);
            assert!(matches!(end, SessionEnd::Clean), "{end:?}");
            assert_eq!(emitted.len(), requests.len());
            for (request, bytes) in requests.iter().zip(&emitted) {
                let response = twin.handle(request.clone());
                let expected = match codec {
                    Codec::Binary => wire::encode_response_frame(&response).unwrap(),
                    Codec::Json => (protocol::encode_response(&response) + "\n").into_bytes(),
                };
                assert_eq!(bytes, &expected, "{codec:?} {request:?}");
            }
            if codec == Codec::Binary {
                let tags: Vec<u8> = emitted.iter().map(|frame| frame[4]).collect();
                let (hit, miss, error) = (
                    wire::TAG_MATRIX,
                    wire::TAG_NO_MATCH,
                    wire::TAG_JSON_RESPONSE,
                );
                assert_eq!(tags, [hit, hit, hit, miss, miss, error, error]);
            }
        }
    }

    #[test]
    fn an_oversized_stored_matrix_answers_the_transport_error_frame() {
        let n = wire::MAX_WIRE_CATEGORIES as usize + 1;
        let found = optrr::OmegaEntry {
            matrix: rr::RrMatrix::uniform(n).unwrap(),
            evaluation: optrr::Evaluation {
                privacy: 1.0,
                mse: 1.0,
                max_posterior: 0.5,
                feasible: true,
            },
        };
        let expected = wire::encode_response_frame(&Response::Error {
            reason: format!("response unencodable: unencodable value: matrix of {n} categories"),
            code: "transport".to_string(),
        })
        .unwrap();
        let stored = Reply::Matrix {
            key: 1,
            found,
            degraded: false,
        };
        assert_eq!(encode_reply(stored, Codec::Binary), expected);
        // The `MatrixDto` path refuses on the category count before it
        // reads a cell, so an empty DTO of that count answers the same.
        let dto = Response::Matrix {
            key: 1,
            privacy: 1.0,
            mse: 1.0,
            max_posterior: 0.5,
            matrix: protocol::MatrixDto {
                num_categories: n,
                columns: vec![],
            },
            degraded: false,
        };
        assert_eq!(encode_reply(Reply::Response(dto), Codec::Binary), expected);
    }

    #[test]
    fn a_binary_body_grows_with_the_bytes_received() {
        // The header claims the full cap; five body bytes follow, then EOF.
        let mut input = MAX_FRAME_LEN.to_le_bytes().to_vec();
        input.extend_from_slice(&[1, 2, 3, 4, 5]);
        let mut frame = Vec::new();
        let error = read_frame(&mut &input[..], Codec::Binary, &mut frame, &|| false)
            .expect_err("a cut-off body is torn");
        assert_eq!(error.kind(), io::ErrorKind::UnexpectedEof);
        assert_eq!(frame.len(), 9, "header and body bytes received");
        assert!(
            frame.capacity() <= 2 * FRAME_PREALLOC,
            "reserved {} bytes on a {MAX_FRAME_LEN}-byte claim",
            frame.capacity()
        );

        // A whole frame still reads, and EOF at a frame boundary is clean.
        let whole = wire::encode_request_frame(&Request::Shutdown).unwrap();
        let mut reader = &whole[..];
        let read = read_frame(&mut reader, Codec::Binary, &mut frame, &|| false).unwrap();
        assert!(read && frame == whole);
        let read = read_frame(&mut reader, Codec::Binary, &mut frame, &|| false).unwrap();
        assert!(!read, "EOF at a frame boundary is clean");
    }
}
