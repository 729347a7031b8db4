//! Offline stand-in for `serde_json`: thin wrappers over the JSON writer
//! and reader the vendored `serde` stub's traits carry.

#![forbid(unsafe_code)]

pub use serde::Error;
use serde::{Deserialize, Reader, Serialize};

/// Serializes a value to compact JSON.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    value.write_json(&mut out);
    Ok(out)
}

/// Parses JSON text into a deserializable type; only whitespace may
/// follow the value.
pub fn from_str<T: Deserialize>(text: &str) -> Result<T, Error> {
    let mut reader = Reader::new(text);
    let value = T::read_json(&mut reader)?;
    reader.finish()?;
    Ok(value)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, PartialEq, serde::Serialize, serde::Deserialize)]
    struct Inner {
        ratio: f64,
        label: Option<String>,
    }

    #[derive(Debug, PartialEq, serde::Serialize, serde::Deserialize)]
    enum Message {
        Ping,
        Data {
            name: String,
            count: u64,
            items: Vec<usize>,
            pairs: Vec<(f64, f64)>,
            inner: Inner,
            flag: bool,
        },
    }

    fn data() -> Message {
        Message::Data {
            name: "hello \"world\"\n\u{1}/ü😀".into(),
            count: 42,
            items: vec![1, 2, 3],
            pairs: vec![(0.25, 4.0)],
            inner: Inner {
                ratio: 1e-7,
                label: None,
            },
            flag: true,
        }
    }

    #[test]
    fn values_round_trip_through_text() {
        let text = to_string(&data()).unwrap();
        assert_eq!(
            text,
            "{\"Data\":{\"name\":\"hello \\\"world\\\"\\n\\u0001/ü😀\",\"count\":42,\
             \"items\":[1,2,3],\"pairs\":[[0.25,4.0]],\
             \"inner\":{\"ratio\":1e-7,\"label\":null},\"flag\":true}}"
        );
        assert_eq!(from_str::<Message>(&text).unwrap(), data());
        assert_eq!(to_string(&Message::Ping).unwrap(), "\"Ping\"");
        assert_eq!(from_str::<Message>(" \"Ping\"\r\n").unwrap(), Message::Ping);
        assert_eq!(to_string(&Vec::<u64>::new()).unwrap(), "[]");
        assert_eq!(to_string(&u64::MAX).unwrap(), "18446744073709551615");
    }

    #[test]
    fn floats_round_trip_exactly() {
        for x in [1.0_f64, 0.1, 1e300, 5e-324, -2.5e-9, 123_456_789.123_456_79] {
            let text = to_string(&x).unwrap();
            let back: f64 = from_str(&text).unwrap();
            assert_eq!(back, x, "text {text}");
        }
        assert_eq!(to_string(&f64::INFINITY).unwrap(), "null");
        assert!(from_str::<f64>("null").unwrap().is_nan());
    }

    #[test]
    fn numbers_coerce_across_representations() {
        assert_eq!(from_str::<usize>("3.0").unwrap(), 3);
        assert_eq!(from_str::<usize>("-0").unwrap(), 0);
        assert_eq!(
            from_str::<f64>("-0").unwrap().to_bits(),
            (-0.0f64).to_bits()
        );
        assert_eq!(from_str::<u64>("2e1").unwrap(), 20);
        assert_eq!(from_str::<f64>("7").unwrap(), 7.0);
        assert_eq!(from_str::<u64>("18446744073709551615").unwrap(), u64::MAX);
        assert!(from_str::<u64>("-1").is_err());
        assert!(from_str::<u64>("18446744073709551616").is_ok());
        assert!(from_str::<usize>("3.5").is_err());
        assert!(from_str::<usize>("null").is_err());
    }

    #[test]
    fn fields_read_in_any_order_first_key_wins_unknown_keys_skip() {
        let inner: Inner =
            from_str(r#"{"zz":[1,{"a":"é"}],"label":"a","ratio":2,"ratio":"x"}"#).unwrap();
        assert_eq!(
            inner,
            Inner {
                ratio: 2.0,
                label: Some("a".into())
            }
        );
        // A skipped value still has to be well-formed.
        assert!(from_str::<Inner>(r#"{"ratio":1,"zz":[1,]}"#).is_err());
        assert!(from_str::<Inner>(r#"{"ratio":1,"ratio":01.2.3}"#).is_err());
    }

    #[test]
    fn object_field_lookup() {
        let inner: Inner = from_str(r#"{"ratio":0.5}"#).unwrap();
        assert_eq!(inner.label, None);
        let error = from_str::<Inner>(r#"{"label":"a"}"#).unwrap_err();
        assert!(
            error.to_string().contains("missing field `ratio`"),
            "{error}"
        );
        // An explicit null still reads as NaN.
        assert!(from_str::<Inner>(r#"{"ratio":null}"#)
            .unwrap()
            .ratio
            .is_nan());
    }

    #[test]
    fn surrogate_pairs_combine_and_lone_surrogates_become_replacement_chars() {
        let grin = concat!(r#""\ud83d"#, r#"\ude00""#);
        let beam = concat!(r#""\ud83d"#, r#"\ude01x""#);
        assert_eq!(from_str::<String>(grin).unwrap(), "\u{1f600}");
        assert_eq!(from_str::<String>(beam).unwrap(), "\u{1f601}x");
        assert_eq!(from_str::<String>(r#""\ud83d""#).unwrap(), "\u{fffd}");
        assert_eq!(
            from_str::<String>(r#""\ude00\ud83d""#).unwrap(),
            "\u{fffd}\u{fffd}"
        );
        assert_eq!(from_str::<String>(r#""\ud83dAA""#).unwrap(), "\u{fffd}AA");
        assert_eq!(from_str::<String>(r#""\ud83dA""#).unwrap(), "\u{fffd}A");
        assert!(from_str::<String>(r#""\ud83d\uzzzz""#).is_err());
    }

    #[test]
    fn nesting_is_capped_at_max_depth() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        let within = format!(r#"{{"ratio":1,"zz":{}}}"#, nested(serde::MAX_DEPTH - 1));
        assert!(from_str::<Inner>(&within).is_ok());
        let beyond = format!(r#"{{"ratio":1,"zz":{}}}"#, nested(serde::MAX_DEPTH));
        let error = from_str::<Inner>(&beyond).unwrap_err();
        assert!(
            error.to_string().contains("nesting deeper than 128"),
            "{error}"
        );
    }

    #[test]
    fn a_hundred_thousand_brackets_fail_on_a_small_stack() {
        // Session threads run on 512 KiB stacks; a reader that recursed
        // once per level overflowed them and aborted the process.
        let deep = "[".repeat(100_000);
        let skipped = format!(r#"{{"ratio":1,"zz":{deep}"#);
        let results = std::thread::Builder::new()
            .stack_size(512 * 1024)
            .spawn(move || {
                (
                    from_str::<Vec<Vec<u64>>>(&deep).is_err(),
                    from_str::<Inner>(&skipped).is_err(),
                    from_str::<Message>(&deep).is_err(),
                )
            })
            .unwrap()
            .join()
            .expect("the reader returns instead of overflowing its stack");
        assert_eq!(results, (true, true, true));
    }

    #[test]
    fn long_strings_decode_in_linear_time() {
        // One MiB of mixed ASCII, multi-byte text and escapes. Decoding it
        // scalar by scalar while re-validating the rest of the input took
        // minutes; one pass takes milliseconds.
        let piece = "plain ascii, ünïcödé ✓, \"quoted\" \\ and \n newline; ";
        let long: String = piece.repeat((1 << 20) / piece.len() + 1);
        let text = to_string(&long).unwrap();
        let start = std::time::Instant::now();
        let back: String = from_str(&text).unwrap();
        let elapsed = start.elapsed();
        assert_eq!(back, long);
        assert!(elapsed.as_secs() < 5, "decoding 1 MiB took {elapsed:?}");
    }

    #[test]
    fn rejects_garbage() {
        assert!(from_str::<f64>("1.2.3").is_err());
        assert!(from_str::<Vec<f64>>("[1").is_err());
        assert!(from_str::<f64>("1 2").is_err());
        assert!(from_str::<String>("\"abc").is_err());
        assert!(from_str::<String>("\"a\\qb\"").is_err());
        assert!(from_str::<bool>("tru").is_err());
        assert!(from_str::<Message>(r#"{"Ping":{}}"#).is_err());
        assert!(from_str::<Message>(r#""Data""#).is_err());
        assert!(from_str::<Message>(r#"{"Data":{"name":"x"},"Ping":1}"#).is_err());
        assert!(from_str::<Message>("{}").is_err());
        assert!(from_str::<Inner>(r#"{"ratio":1,}"#).is_err());
    }

    #[test]
    fn rejects_what_rfc_8259_forbids_in_values_and_skipped_members() {
        let numbers = [
            "01", "-01", "00", "1.", "1.e1", "-.5", ".5", "1e", "1e+", "-",
        ];
        for number in numbers {
            assert!(from_str::<f64>(number).is_err(), "{number}");
            assert!(from_str::<u64>(number).is_err(), "{number}");
            let skipped = format!(r#"{{"zz":{number},"ratio":1}}"#);
            assert!(from_str::<Inner>(&skipped).is_err(), "{skipped}");
        }
        for string in [
            "\"a\u{1}b\"",
            "\"tab\there\"",
            "\"\n\"",
            "\"\\u+041\"",
            "\"\\u00g1\"",
        ] {
            assert!(from_str::<String>(string).is_err(), "{string:?}");
            let skipped = format!(r#"{{"zz":{string},"ratio":1}}"#);
            assert!(from_str::<Inner>(&skipped).is_err(), "{skipped:?}");
        }
        // The grammar's edges that stay accepted.
        for (number, value) in [
            ("0", 0.0),
            ("-0.0", -0.0),
            ("0.5", 0.5),
            ("1E+5", 1e5),
            ("1.5e-3", 1.5e-3),
        ] {
            assert_eq!(
                from_str::<f64>(number).unwrap().to_bits(),
                f64::to_bits(value)
            );
        }
        assert_eq!(
            from_str::<String>("\"\\u0041\\u0001\u{7f}\"").unwrap(),
            "A\u{1}\u{7f}"
        );
    }
}
