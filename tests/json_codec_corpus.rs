//! The JSON codec's bytes and verdicts, pinned by a committed corpus
//! (`tests/fixtures/json_codec_corpus_v1.jsonl`).
//!
//! The corpus holds two sets of entries, one JSON object per line:
//!
//! * **Values.** Every [`Request`] and [`Response`] variant in three
//!   seeded rounds (ordinary values; NaN/±inf floats, `None`s and empty
//!   arrays; 4,096-long arrays), each with the exact line the codec writes
//!   for it. The test rebuilds the same values and checks that the codec
//!   still writes those bytes and decodes them back to the same line.
//! * **Mutations.** About 2,000 seeded edits of those lines (byte edits,
//!   truncations, reordered, duplicated, dropped and unknown keys,
//!   integers written as floats, extra whitespace, `\u` escapes, deep
//!   nesting, explicit `null`s, re-tagged variants), each with its
//!   verdict: the line the codec writes for its decode, or `null` when
//!   the line is rejected.
//!
//! The corpus was written by [`regenerate_the_corpus`] with the codec
//! that routed every value through an owned value tree, so it is the
//! oracle for the typed codec that replaced it. [`FIXED`] lists the only
//! entries whose verdict changed on purpose, each with the fix that
//! changed it: three from the typed codec itself, and two from the strict
//! reader that followed it (numbers and control characters; no corpus
//! line holds a malformed `\u` escape).

use optrr::FrontPoint;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use serve::protocol::{
    decode_request, decode_response, encode_request, encode_response, EstimateDto, HistogramDto,
    KeyStatsDto, MatrixDto, MetricValueDto, Request, Response, TraceEventDto,
};

const CORPUS: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../tests/fixtures/json_codec_corpus_v1.jsonl"
);

/// One corpus line.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Entry {
    /// `"request"` or `"response"`: which decoder reads `line`.
    kind: String,
    /// The protocol line.
    line: String,
    /// The line written for `line`'s decode, `None` when it is rejected.
    decoded: Option<String>,
}

/// Why an entry's verdict differs from the value-tree codec's.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Fix {
    /// A missing non-`Option` `f64` field decoded as NaN; it is now
    /// rejected as ``missing field `…` ``.
    MissingField,
    /// An escaped surrogate pair decoded as two U+FFFD; it now decodes as
    /// the one astral character it encodes (RFC 8259 §7).
    SurrogatePair,
    /// Nesting deeper than the reader's cap was accepted (and could
    /// overflow a session thread's stack); it is now rejected.
    Depth,
    /// A number RFC 8259 §6 forbids, a leading zero (`01`) or a bare
    /// point (`-2.e-9`), was accepted; it is now rejected.
    Number,
    /// A raw control character inside a string (RFC 8259 §7 requires
    /// U+0000–U+001F escaped) was accepted; it is now rejected.
    ControlCharacter,
}

/// The entries whose verdict changed on purpose, by fix (indices into
/// the corpus).
const FIXED: [(Fix, &[usize]); 5] = [
    (
        Fix::MissingField,
        &[
            141, 173, 234, 534, 539, 561, 603, 612, 676, 678, 965, 982, 1709, 1798, 1819,
        ],
    ),
    (
        Fix::SurrogatePair,
        &[
            132, 192, 199, 205, 208, 221, 227, 228, 262, 276, 313, 1197, 1200, 1201, 1208, 1580,
            1592, 1598, 1607, 1610, 1620, 1623, 1827, 1875, 1883, 2334,
        ],
    ),
    (
        Fix::Depth,
        &[
            125, 137, 240, 249, 274, 309, 324, 487, 532, 630, 658, 709, 861, 867, 1021, 1034, 1035,
            1040, 1049, 1089, 1168, 1319, 1338, 1360, 1365, 1375, 1401, 1469, 1501, 1566, 1663,
            1675, 1694, 1741, 1808, 1879, 1932, 1939, 1942, 1995, 2045, 2148, 2201, 2232, 2268,
            2317,
        ],
    ),
    (
        Fix::Number,
        &[214, 250, 257, 431, 575, 959, 1654, 1800, 1806, 1909, 2170],
    ),
    (Fix::ControlCharacter, &[439, 1145]),
];

fn fix_of(index: usize) -> Option<Fix> {
    FIXED
        .iter()
        .find(|(_, indices)| indices.contains(&index))
        .map(|&(fix, _)| fix)
}

// ---- seeded values ----------------------------------------------------------

const FLOAT_SPECIALS: [f64; 16] = [
    f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
    -0.0,
    0.0,
    1.0,
    3.0,
    0.1,
    5e-324,
    f64::MAX,
    f64::MIN_POSITIVE,
    1e-7,
    1e300,
    -2.5e-9,
    123_456_789.123_456_79,
    0.8,
];

const NAME_PIECES: [&str; 14] = [
    "demo",
    "",
    "tenant-ü",
    "✓ check",
    "😀",
    "quote\"d",
    "back\\slash",
    "line\nbreak",
    "tab\there",
    "\r",
    "\u{1}\u{1f}\u{7f}",
    "/slash",
    "mixed 😀 \"x\" \\",
    "日本語",
];

/// What a round draws: ordinary values, edge values, or long arrays.
#[derive(Clone, Copy, PartialEq)]
enum Round {
    Plain,
    Edge,
    Long,
}

struct Gen {
    rng: StdRng,
    round: Round,
}

impl Gen {
    fn float(&mut self) -> f64 {
        if self.round == Round::Long {
            // Short decimals keep the 4,096-long arrays small.
            return self.rng.gen_range(0..1000u32) as f64 / 1000.0;
        }
        if self.round == Round::Edge || self.rng.gen_bool(0.2) {
            FLOAT_SPECIALS[self.rng.gen_range(0..FLOAT_SPECIALS.len())]
        } else {
            let scale = 10f64.powi(self.rng.gen_range(-12i32..12));
            let sign = if self.rng.gen_bool(0.2) { -1.0 } else { 1.0 };
            sign * self.rng.gen::<f64>() * scale
        }
    }

    fn uint(&mut self) -> u64 {
        match self.round {
            Round::Plain => self.rng.gen::<u64>() >> self.rng.gen_range(0..64u32),
            Round::Edge => [0, 1, u64::MAX, i64::MAX as u64 + 1][self.rng.gen_range(0..4usize)],
            Round::Long => self.rng.gen_range(0..100_000u64),
        }
    }

    fn small(&mut self) -> usize {
        match self.round {
            Round::Edge => [0, usize::MAX][self.rng.gen_range(0..2usize)],
            _ => self.rng.gen_range(0..5000usize),
        }
    }

    fn flag(&mut self) -> bool {
        self.rng.gen_bool(0.5)
    }

    fn name(&mut self) -> String {
        let pieces = self.rng.gen_range(1..4usize);
        (0..pieces)
            .map(|_| NAME_PIECES[self.rng.gen_range(0..NAME_PIECES.len())])
            .collect()
    }

    fn maybe<T>(&mut self, draw: impl FnOnce(&mut Self) -> T) -> Option<T> {
        if self.round == Round::Edge || self.rng.gen_bool(0.3) {
            None
        } else {
            Some(draw(self))
        }
    }

    /// An array length: short, empty, or 4,096 (`long` arrays only).
    fn len(&mut self, long: bool) -> usize {
        match self.round {
            Round::Plain => self.rng.gen_range(1..9usize),
            Round::Edge => 0,
            Round::Long if long => 4096,
            Round::Long => 64,
        }
    }

    fn floats(&mut self, long: bool) -> Vec<f64> {
        let len = self.len(long);
        (0..len).map(|_| self.float()).collect()
    }

    fn uints(&mut self) -> Vec<u64> {
        let len = self.len(true);
        (0..len).map(|_| self.uint()).collect()
    }

    fn records(&mut self) -> Vec<usize> {
        let len = self.len(true);
        let n = self.rng.gen_range(2..40usize);
        (0..len).map(|_| self.rng.gen_range(0..n)).collect()
    }

    fn requests(&mut self) -> Vec<Request> {
        vec![
            Request::Register {
                name: self.maybe(Gen::name),
                prior: self.floats(true),
                delta: self.float(),
                slots: self.maybe(Gen::small),
                lazy: self.maybe(Gen::flag),
            },
            Request::RegisterBatch {
                names: self.maybe(|g| (0..g.len(false).min(8)).map(|_| g.name()).collect()),
                priors: (0..self.len(false).min(3))
                    .map(|_| self.floats(false))
                    .collect(),
                delta: self.float(),
                slots: self.maybe(Gen::small),
            },
            Request::BestForPrivacy {
                key: self.maybe(Gen::uint),
                name: self.maybe(Gen::name),
                min_privacy: self.float(),
            },
            Request::BestForMse {
                key: self.maybe(Gen::uint),
                name: self.maybe(Gen::name),
                max_mse: self.float(),
            },
            Request::Front {
                key: self.maybe(Gen::uint),
                name: self.maybe(Gen::name),
            },
            Request::Ingest {
                key: self.maybe(Gen::uint),
                name: self.maybe(Gen::name),
                min_privacy: self.maybe(Gen::float),
                records: self.maybe(Gen::records),
                counts: self.maybe(Gen::uints),
                seed: self.maybe(Gen::uint),
            },
            Request::Disguise {
                key: self.maybe(Gen::uint),
                name: self.maybe(Gen::name),
                min_privacy: self.float(),
                records: self.records(),
                seed: self.maybe(Gen::uint),
            },
            Request::Estimate {
                key: self.maybe(Gen::uint),
                name: self.maybe(Gen::name),
            },
            Request::EstimateAll,
            Request::Save { path: self.name() },
            Request::Load { path: self.name() },
            Request::Evict {
                key: self.maybe(Gen::uint),
                name: self.maybe(Gen::name),
            },
            Request::Refresh {
                key: self.maybe(Gen::uint),
                name: self.maybe(Gen::name),
                runs: self.maybe(Gen::small),
            },
            Request::Sync,
            Request::Stats {
                key: self.maybe(Gen::uint),
                name: self.maybe(Gen::name),
            },
            Request::Metrics,
            Request::Trace {
                limit: self.maybe(Gen::small),
            },
            Request::Shutdown,
        ]
    }

    fn estimate(&mut self) -> EstimateDto {
        EstimateDto {
            key: self.uint(),
            method: self.name(),
            distribution: self.floats(false),
            iterations: self.uint(),
            residual: self.float(),
            mse_vs_prior: self.float(),
            total_responses: self.uint(),
            batches: self.uint(),
            drifted: self.flag(),
            stale: self.flag(),
            degraded: self.flag(),
        }
    }

    fn matrix(&mut self) -> MatrixDto {
        let n = self.len(false).min(16);
        MatrixDto {
            num_categories: n,
            columns: (0..n)
                .map(|_| (0..n).map(|_| self.float()).collect())
                .collect(),
        }
    }

    fn metric(&mut self) -> MetricValueDto {
        MetricValueDto {
            name: self.name(),
            value: self.uint(),
        }
    }

    fn responses(&mut self) -> Vec<Response> {
        vec![
            Response::Registered {
                key: self.uint(),
                warm: self.flag(),
                filled_slots: self.small(),
                engine_runs: self.uint(),
            },
            Response::RegisteredBatch {
                keys: self.uints(),
                warmed: self.small(),
            },
            Response::Matrix {
                key: self.uint(),
                privacy: self.float(),
                mse: self.float(),
                max_posterior: self.float(),
                matrix: self.matrix(),
                degraded: self.flag(),
            },
            Response::NoMatch {
                key: self.uint(),
                reason: self.name(),
                degraded: self.flag(),
            },
            Response::Front {
                key: self.uint(),
                points: (0..self.len(false))
                    .map(|_| FrontPoint {
                        privacy: self.float(),
                        mse: self.float(),
                    })
                    .collect(),
                degraded: self.flag(),
            },
            Response::Ingested {
                key: self.uint(),
                accepted: self.uint(),
                retained: self.uint(),
                total: self.uint(),
                batches: self.uint(),
                privacy: self.float(),
            },
            Response::Disguised {
                key: self.uint(),
                privacy: self.float(),
                mse: self.float(),
                retained: self.uint(),
                records: self.records(),
            },
            Response::Estimated {
                stats: self.estimate(),
            },
            Response::EstimatedAll {
                estimates: (0..self.len(false).min(4))
                    .map(|_| self.estimate())
                    .collect(),
                skipped: self.small(),
                failed: self.small(),
            },
            Response::Saved {
                path: self.name(),
                keys: self.small(),
            },
            Response::Loaded {
                path: self.name(),
                created: self.small(),
                merged: self.small(),
            },
            Response::Evicted {
                key: self.uint(),
                evicted: self.flag(),
                bytes_freed: self.uint(),
            },
            Response::Scheduled {
                key: self.uint(),
                runs: self.small(),
            },
            Response::Synced,
            Response::KeyStats {
                stats: KeyStatsDto {
                    key: self.uint(),
                    warm: self.flag(),
                    stale: self.flag(),
                    filled_slots: self.small(),
                    num_slots: self.small(),
                    engine_runs: self.uint(),
                    queries: self.uint(),
                    warm_hits: self.uint(),
                    state: self.name(),
                    resident_bytes: self.uint(),
                    drift_events: self.uint(),
                    coverage_misses: self.uint(),
                    evictions: self.uint(),
                    rewarms: self.uint(),
                    privacy_lo: self.maybe(Gen::float),
                    privacy_hi: self.maybe(Gen::float),
                    fitness_pairs_reused: self.uint(),
                    fitness_pairs_computed: self.uint(),
                    refresh_failures: self.uint(),
                    retries: self.uint(),
                    degraded: self.flag(),
                },
            },
            Response::ServiceStats {
                keys: self.small(),
                engine_runs: self.uint(),
                queries: self.uint(),
                warm_hits: self.uint(),
                resident_bytes: self.uint(),
                budget_bytes: self.maybe(Gen::uint),
                evictions: self.uint(),
                rewarms: self.uint(),
                refresh_failures: self.uint(),
                retries: self.uint(),
                degraded: self.small(),
            },
            Response::Metrics {
                enabled: self.flag(),
                counters: (0..self.len(false).min(4)).map(|_| self.metric()).collect(),
                gauges: (0..self.len(false).min(4)).map(|_| self.metric()).collect(),
                histograms: (0..self.len(false).min(4))
                    .map(|_| HistogramDto {
                        name: self.name(),
                        count: self.uint(),
                        sum: self.uint(),
                        max: self.uint(),
                        p50: self.uint(),
                        p90: self.uint(),
                        p99: self.uint(),
                    })
                    .collect(),
                prometheus: self.name(),
            },
            Response::Trace {
                enabled: self.flag(),
                dropped: self.uint(),
                events: (0..self.len(false).min(4))
                    .map(|_| TraceEventDto {
                        seq: self.uint(),
                        at_ns: self.uint(),
                        kind: self.name(),
                        key: self.maybe(Gen::uint),
                        detail: self.name(),
                    })
                    .collect(),
            },
            Response::Error {
                reason: self.name(),
                code: self.name(),
            },
            Response::Bye,
        ]
    }
}

/// The seeded values, requests first, in corpus order.
fn values() -> (Vec<Request>, Vec<Response>) {
    let mut requests = Vec::new();
    let mut responses = Vec::new();
    for (seed, round) in [(1, Round::Plain), (2, Round::Edge), (3, Round::Long)] {
        let mut gen = Gen {
            rng: StdRng::seed_from_u64(seed),
            round,
        };
        requests.extend(gen.requests());
        responses.extend(gen.responses());
    }
    (requests, responses)
}

// ---- seeded mutations -------------------------------------------------------

/// Bytes a single-byte edit draws from: JSON's structural characters,
/// number and literal letters, whitespace and escapes.
const EDIT_BYTES: &[u8] = b"{}[]\",:-+.0123456789eEnultrfase \t\r\n\\/ux";

/// Lines longer than this are not mutated (the 4,096-long arrays).
const MUTATE_MAX_LEN: usize = 260;

/// Mutations drawn per mutated line.
const MUTATIONS_PER_LINE: usize = 24;

/// The byte offsets where `line` may be cut or edited without splitting a
/// UTF-8 sequence (edits only ever replace or insert ASCII bytes).
fn ascii_positions(line: &str) -> Vec<usize> {
    line.bytes()
        .enumerate()
        .filter(|(_, b)| b.is_ascii())
        .map(|(i, _)| i)
        .collect()
}

/// For each byte, whether it sits inside a string literal (quotes
/// included), so structural edits stay outside strings.
fn in_string(line: &str) -> Vec<bool> {
    let mut inside = false;
    let mut escaped = false;
    line.bytes()
        .map(|b| {
            let was = inside;
            if inside {
                if escaped {
                    escaped = false;
                } else if b == b'\\' {
                    escaped = true;
                } else if b == b'"' {
                    inside = false;
                }
            } else if b == b'"' {
                inside = true;
            }
            was || inside
        })
        .collect()
}

/// A struct variant's line split into `{"Tag":{`, its members, and `}}`.
fn members(line: &str) -> Option<(&str, Vec<&str>, &str)> {
    if !line.starts_with("{\"") || !line.ends_with("}}") {
        return None;
    }
    let open = line.find(":{")? + 2;
    let body = &line[open..line.len() - 2];
    let strings = in_string(body);
    let mut depth = 0i32;
    let mut start = 0;
    let mut parts = Vec::new();
    for (i, b) in body.bytes().enumerate() {
        if strings[i] {
            continue;
        }
        match b {
            b'{' | b'[' => depth += 1,
            b'}' | b']' => depth -= 1,
            b',' if depth == 0 => {
                parts.push(&body[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    if !body.is_empty() {
        parts.push(&body[start..]);
    }
    Some((&line[..open], parts, &line[line.len() - 2..]))
}

fn join(head: &str, parts: &[String], tail: &str) -> String {
    format!("{head}{}{tail}", parts.join(","))
}

/// Digit runs outside strings that form a whole number token.
fn integer_tokens(line: &str) -> Vec<(usize, usize)> {
    let bytes = line.as_bytes();
    let strings = in_string(line);
    let mut tokens = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        if !strings[i] && bytes[i].is_ascii_digit() && i > 0 && b"[:,".contains(&bytes[i - 1]) {
            let end = (i..bytes.len())
                .find(|&j| !bytes[j].is_ascii_digit())
                .unwrap_or(bytes.len());
            if end < bytes.len() && b",]}".contains(&bytes[end]) {
                tokens.push((i, end));
            }
            i = end;
        } else {
            i += 1;
        }
    }
    tokens
}

/// A random small JSON value, nested up to `depth` levels.
fn json_value(rng: &mut StdRng, depth: usize) -> String {
    match rng.gen_range(0..if depth == 0 { 5 } else { 7usize }) {
        0 => "null".to_string(),
        1 => ["true", "false"][rng.gen_range(0..2usize)].to_string(),
        2 => ["0", "-1", "2.5e3", "18446744073709551616", "-0.0"][rng.gen_range(0..5usize)]
            .to_string(),
        3 => ["\"\"", "\"x\\u00e9\\n\"", "\"😀\""][rng.gen_range(0..3usize)].to_string(),
        4 => "[]".to_string(),
        5 => format!(
            "[{},{}]",
            json_value(rng, depth - 1),
            json_value(rng, depth - 1)
        ),
        _ => format!("{{\"k\":{}}}", json_value(rng, depth - 1)),
    }
}

/// `s` with every non-ASCII character (and, with `ascii`, every letter)
/// written as `\u` escapes, UTF-16 surrogate pairs for astral ones.
fn escape_chars(s: &str, ascii: bool) -> String {
    let strings = in_string(s);
    let mut out = String::new();
    for (i, c) in s.char_indices() {
        if strings[i] && (!c.is_ascii() || (ascii && c.is_ascii_alphabetic())) {
            let mut units = [0u16; 2];
            for unit in c.encode_utf16(&mut units) {
                out.push_str(&format!("\\u{unit:04x}"));
            }
        } else {
            out.push(c);
        }
    }
    out
}

fn mutate(line: &str, rng: &mut StdRng) -> String {
    let ascii = ascii_positions(line);
    let pick = |rng: &mut StdRng| ascii[rng.gen_range(0..ascii.len())];
    let edit_byte = |rng: &mut StdRng| EDIT_BYTES[rng.gen_range(0..EDIT_BYTES.len())] as char;
    let parts = members(line);
    let kind = rng.gen_range(0..15usize);
    match (kind, parts) {
        (0, _) => {
            let at = pick(rng);
            let mut out = line.to_string();
            out.replace_range(at..at + 1, &edit_byte(rng).to_string());
            out
        }
        (1, _) => {
            let at = pick(rng);
            let mut out = line.to_string();
            out.remove(at);
            out
        }
        (2, _) => {
            let at = pick(rng);
            let mut out = line.to_string();
            out.insert(at, edit_byte(rng));
            out
        }
        (3, _) => line[..pick(rng)].to_string(),
        (4, Some((head, parts, tail))) if parts.len() > 1 => {
            let mut parts: Vec<String> = parts.iter().map(|p| p.to_string()).collect();
            for i in (1..parts.len()).rev() {
                parts.swap(i, rng.gen_range(0..i + 1));
            }
            join(head, &parts, tail)
        }
        (5, Some((head, parts, tail))) if !parts.is_empty() => {
            // A duplicate key, before or after the original, carrying the
            // value of another member.
            let mut out: Vec<String> = parts.iter().map(|p| p.to_string()).collect();
            let dup = parts[rng.gen_range(0..parts.len())];
            let donor = parts[rng.gen_range(0..parts.len())];
            let key = &dup[..dup.find(':').unwrap()];
            let value = &donor[donor.find(':').unwrap() + 1..];
            let at = rng.gen_range(0..out.len() + 1);
            out.insert(at, format!("{key}:{value}"));
            join(head, &out, tail)
        }
        (6, Some((head, parts, tail))) if !parts.is_empty() => {
            let mut out: Vec<String> = parts.iter().map(|p| p.to_string()).collect();
            out.remove(rng.gen_range(0..out.len()));
            join(head, &out, tail)
        }
        (7, Some((head, parts, tail))) => {
            let mut out: Vec<String> = parts.iter().map(|p| p.to_string()).collect();
            let value = json_value(rng, 3);
            out.insert(rng.gen_range(0..out.len() + 1), format!("\"zz\":{value}"));
            join(head, &out, tail)
        }
        (8, _) if !integer_tokens(line).is_empty() => {
            let tokens = integer_tokens(line);
            let (start, end) = tokens[rng.gen_range(0..tokens.len())];
            let digits = &line[start..end];
            let new = match rng.gen_range(0..8usize) {
                0 => format!("{digits}.0"),
                1 => format!("{digits}e0"),
                2 => format!("{digits}.5"),
                3 => format!("-{digits}"),
                4 => format!("{digits}E2"),
                5 => "-0".to_string(),
                6 => format!("0{digits}"),
                _ => format!("{digits}00000000000000000000"),
            };
            format!("{}{new}{}", &line[..start], &line[end..])
        }
        (9, _) => {
            let strings = in_string(line);
            let mut out = String::new();
            for (i, c) in line.char_indices() {
                if !strings[i] && "{[,:".contains(c) && rng.gen_bool(0.5) {
                    out.push(c);
                    out.push_str([" ", "\t", "\r\n", "  \t"][rng.gen_range(0..4usize)]);
                } else {
                    out.push(c);
                }
            }
            format!("\t {out} \r")
        }
        (10, _) => escape_chars(line, rng.gen_bool(0.3)),
        (11, Some((head, parts, tail))) => {
            // An unknown member nested `depth` arrays deep: the variant
            // object sits at depth 2.
            let depth = [1, 64, 125, 126, 127, 200][rng.gen_range(0..6usize)];
            let value = format!("{}{}", "[".repeat(depth), "]".repeat(depth));
            let mut out: Vec<String> = parts.iter().map(|p| p.to_string()).collect();
            out.insert(rng.gen_range(0..out.len() + 1), format!("\"deep\":{value}"));
            join(head, &out, tail)
        }
        (12, _) if line.contains("\":\"") => {
            // A lone surrogate escape at the start of some string value.
            let at = line.find("\":\"").unwrap() + 3;
            let lone = ["\\ud83d", "\\ude00", "\\udbff\\u0041"][rng.gen_range(0..3usize)];
            format!("{}{lone}{}", &line[..at], &line[at..])
        }
        (13, Some((head, parts, tail))) if !parts.is_empty() => {
            let mut out: Vec<String> = parts.iter().map(|p| p.to_string()).collect();
            let at = rng.gen_range(0..out.len());
            let key = out[at][..out[at].find(':').unwrap()].to_string();
            out[at] = format!("{key}:null");
            join(head, &out, tail)
        }
        (14, _) => {
            // Re-tag: a unit variant as an object, a struct variant as a
            // bare string, or a second top-level key.
            if let Some(tag) = line.strip_prefix('"').and_then(|l| l.strip_suffix('"')) {
                format!("{{\"{tag}\":{{}}}}")
            } else if let Some(end) = line.find(":{") {
                if rng.gen_bool(0.5) {
                    line[1..end].to_string()
                } else {
                    format!("{},\"Sync\":{{}}}}", &line[..line.len() - 1])
                }
            } else {
                line.to_string()
            }
        }
        // A shape this line does not have: one byte dropped instead.
        _ => {
            let at = pick(rng);
            let mut out = line.to_string();
            out.remove(at);
            out
        }
    }
}

/// The mutated lines of the value lines, in corpus order.
fn mutations(value_lines: &[(String, String)]) -> Vec<(String, String)> {
    let mut rng = StdRng::seed_from_u64(30);
    let mut out = Vec::new();
    for (kind, line) in value_lines {
        if line.len() > MUTATE_MAX_LEN {
            continue;
        }
        for _ in 0..MUTATIONS_PER_LINE {
            out.push((kind.clone(), mutate(line, &mut rng)));
        }
    }
    out
}

// ---- the corpus ---------------------------------------------------------------

/// Decodes `line` as `kind` and writes the decode back, or the error.
fn verdict(kind: &str, line: &str) -> Result<String, String> {
    match kind {
        "request" => decode_request(line)
            .map(|r| encode_request(&r))
            .map_err(|e| e.to_string()),
        _ => decode_response(line)
            .map(|r| encode_response(&r))
            .map_err(|e| e.to_string()),
    }
}

/// The corpus as the linked codec writes it.
fn build_corpus() -> Vec<Entry> {
    let (requests, responses) = values();
    let value_lines: Vec<(String, String)> = requests
        .iter()
        .map(|r| ("request".to_string(), encode_request(r)))
        .chain(
            responses
                .iter()
                .map(|r| ("response".to_string(), encode_response(r))),
        )
        .collect();
    let mutated = mutations(&value_lines);
    value_lines
        .into_iter()
        .chain(mutated)
        .map(|(kind, line)| Entry {
            decoded: verdict(&kind, &line).ok(),
            kind,
            line,
        })
        .collect()
}

fn committed_corpus() -> Vec<Entry> {
    let text = std::fs::read_to_string(CORPUS).expect("the committed corpus is readable");
    text.lines()
        .map(|line| serde_json::from_str(line).expect("corpus lines decode"))
        .collect()
}

#[test]
fn the_codec_writes_and_judges_every_corpus_line_as_committed() {
    let committed = committed_corpus();
    let built = build_corpus();
    assert_eq!(built.len(), committed.len(), "corpus size");
    let mut fixed_seen = Vec::new();
    for (index, (now, then)) in built.iter().zip(&committed).enumerate() {
        assert_eq!(now.kind, then.kind, "entry {index}");
        assert_eq!(now.line, then.line, "entry {index}: the line written");
        let Some(fix) = fix_of(index) else {
            assert_eq!(
                now.decoded, then.decoded,
                "entry {index}: verdict for {:?}",
                then.line
            );
            continue;
        };
        fixed_seen.push(index);
        assert_ne!(
            now.decoded, then.decoded,
            "entry {index} is listed as fixed"
        );
        let error = verdict(&now.kind, &now.line).err();
        match fix {
            Fix::MissingField => {
                let error = error.unwrap_or_default();
                assert!(error.contains("missing field"), "entry {index}: {error}");
                assert!(then.decoded.as_deref().unwrap().contains("null"));
            }
            Fix::Depth => {
                let error = error.unwrap_or_default();
                assert!(error.contains("nesting"), "entry {index}: {error}");
            }
            Fix::Number | Fix::ControlCharacter => {
                let error = error.unwrap_or_default();
                let reason = match fix {
                    Fix::Number => "invalid number",
                    _ => "unescaped control character",
                };
                assert!(error.contains(reason), "entry {index}: {error}");
                assert!(then.decoded.is_some(), "entry {index}");
            }
            Fix::SurrogatePair => {
                let (now, then) = (now.decoded.as_deref(), then.decoded.as_deref());
                let (now, then) = (now.unwrap(), then.unwrap());
                assert!(then.contains("\u{fffd}\u{fffd}"), "entry {index}");
                assert_eq!(now, then.replace("\u{fffd}\u{fffd}", "😀"), "entry {index}");
            }
        }
    }
    let listed: usize = FIXED.iter().map(|(_, indices)| indices.len()).sum();
    assert_eq!(fixed_seen.len(), listed, "every fixed entry exists");
}

#[test]
fn the_corpus_spans_every_variant_and_both_verdicts() {
    let corpus = committed_corpus();
    let (requests, responses) = values();
    assert_eq!(requests.len(), 3 * 18);
    assert_eq!(responses.len(), 3 * 20);
    let mutated = &corpus[requests.len() + responses.len()..];
    let rejected = mutated.iter().filter(|e| e.decoded.is_none()).count();
    assert!(mutated.len() >= 1900, "{} mutations", mutated.len());
    assert!(
        rejected > 400 && mutated.len() - rejected > 400,
        "{rejected} rejected"
    );
    // Both long rounds and escapes made it in.
    assert!(corpus.iter().any(|e| e.line.len() > 4096 * 2));
    assert!(corpus.iter().any(|e| e.line.contains("\\u0001")));
    assert!(corpus.iter().any(|e| e.line.contains("null")));
}

/// Rewrites the committed corpus with the linked codec's verdicts. Run it
/// only to re-baseline on purpose (`cargo test --test json_codec_corpus
/// -- --ignored`), then review the diff.
#[test]
#[ignore = "rewrites tests/fixtures/json_codec_corpus_v1.jsonl"]
fn regenerate_the_corpus() {
    let mut text = String::new();
    for entry in build_corpus() {
        text.push_str(&serde_json::to_string(&entry).unwrap());
        text.push('\n');
    }
    std::fs::write(CORPUS, text).unwrap();
}
