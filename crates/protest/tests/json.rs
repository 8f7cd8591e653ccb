//! JSON encoding: arbitrary strings round-trip through the encoder and
//! the parser, a request carrying a megabyte-sized netlist parses and
//! round-trips, the encoder matches the previous `Display`-based one
//! byte for byte on random trees, and the engine's record lines and
//! `results` answer are the bytes of the trees they replaced.

use dynmos_netlist::generate::ripple_adder_bench_text;
use dynmos_protest::{
    BackoffPolicy, EngineConfig, FaultPlan, JobEngine, JobRecord, JobStatus, Json, Parallelism,
};
use proptest::prelude::*;
use std::fmt;
use std::sync::Arc;

/// A char drawn from one of six classes, so every case mixes control
/// chars, ASCII, the characters JSON escapes, and 2-, 3- and 4-byte
/// UTF-8 scalars.
fn char_of(class: u32, raw: u32) -> char {
    let code = match class {
        0 => raw % 0x20,
        1 => 0x20 + raw % 0x5F,
        2 => ['"', '\\', '/'][(raw % 3) as usize] as u32,
        3 => 0x80 + raw % 0x780,
        // Three-byte scalars, skipping the surrogate gap.
        4 => match 0x800 + raw % 0xF000 {
            c @ 0xD800..=0xDFFF => c + 0x800,
            c => c,
        },
        _ => 0x1_0000 + raw % 0x10_0000,
    };
    char::from_u32(code).expect("code is a scalar value")
}

fn arb_string() -> impl Strategy<Value = String> {
    prop::collection::vec((0u32..6, any::<u32>()), 0..48).prop_map(|cs| {
        cs.into_iter()
            .map(|(class, raw)| char_of(class, raw))
            .collect()
    })
}

proptest! {
    /// A string value and an object key survive emit + parse unchanged,
    /// and the emitted line holds no raw control character.
    #[test]
    fn strings_round_trip(s in arb_string()) {
        let value = Json::Obj(vec![(s.clone(), Json::Str(s))]);
        let text = value.to_string();
        prop_assert!(!text.bytes().any(|b| b < 0x20), "raw control char in {text:?}");
        prop_assert_eq!(Json::parse(&text).expect("own output parses"), value);
    }
}

#[test]
fn megabyte_netlist_request_round_trips() {
    let mut netlist = String::new();
    while netlist.len() < 1 << 20 {
        netlist.push_str(&ripple_adder_bench_text(80));
        // Escapes and multibyte text between the copies.
        netlist.push_str("# \"quoted\" \\ back\tslash é € 😀\n");
    }
    let request = Json::Obj(vec![
        ("op".to_owned(), Json::str("submit")),
        ("netlist".to_owned(), Json::Str(netlist.clone())),
    ]);
    let line = request.to_string();
    let parsed = Json::parse(&line).expect("request parses");
    assert_eq!(
        parsed.get("netlist").and_then(Json::as_str),
        Some(netlist.as_str())
    );
    assert_eq!(parsed.to_string(), line);
}

/// The encoder as it was before [`Json::write_to`]: the `Display` body
/// with nested `write!` calls, kept as the reference the one encoder
/// must match byte for byte.
fn reference_encode(value: &Json) -> String {
    Reference(value).to_string()
}

struct Reference<'a>(&'a Json);

fn reference_escaped(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    // Start of the pending run of characters that need no escape.
    let mut run = 0;
    for (i, ch) in s.char_indices() {
        let escape = match ch {
            '"' => Some("\\\""),
            '\\' => Some("\\\\"),
            '\n' => Some("\\n"),
            '\r' => Some("\\r"),
            '\t' => Some("\\t"),
            c if (c as u32) < 0x20 => None,
            _ => continue,
        };
        f.write_str(&s[run..i])?;
        match escape {
            Some(e) => f.write_str(e)?,
            None => write!(f, "\\u{:04x}", ch as u32)?,
        }
        run = i + ch.len_utf8();
    }
    f.write_str(&s[run..])?;
    f.write_str("\"")
}

impl fmt::Display for Reference<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0 {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Num(n) => {
                if !n.is_finite() {
                    // JSON has no NaN/Infinity; null is the honest spelling.
                    f.write_str("null")
                } else if n.fract() == 0.0 && n.abs() < 9_007_199_254_740_992.0 {
                    write!(f, "{}", *n as i64)
                } else {
                    write!(f, "{n}")
                }
            }
            Json::Str(s) => reference_escaped(f, s),
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{}", Reference(item))?;
                }
                f.write_str("]")
            }
            Json::Obj(members) => {
                f.write_str("{")?;
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    reference_escaped(f, k)?;
                    f.write_str(":")?;
                    write!(f, "{}", Reference(v))?;
                }
                f.write_str("}")
            }
        }
    }
}

/// Numbers at the encoder's edges: signed zero, the non-finite values,
/// the `2^53` integer bound from both sides, subnormals, huge and tiny
/// magnitudes.
const EDGE_NUMBERS: [f64; 20] = [
    0.0,
    -0.0,
    f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
    9_007_199_254_740_991.0,
    9_007_199_254_740_992.0,
    9_007_199_254_740_994.0,
    -9_007_199_254_740_991.0,
    -9_007_199_254_740_992.0,
    -9_007_199_254_740_994.0,
    5e-324,
    -5e-324,
    2.225_073_858_507_201e-308,
    1e300,
    -1e300,
    1e-300,
    -1e-300,
    f64::MAX,
    f64::MIN_POSITIVE,
];

fn arb_number() -> impl Strategy<Value = f64> {
    prop_oneof![
        (0..EDGE_NUMBERS.len()).prop_map(|i| EDGE_NUMBERS[i]),
        // k/256 fractions: dyadic, short and exact, around zero.
        (0u64..200_000).prop_map(|k| (k as f64 - 100_000.0) / 256.0),
        // Integers on both sides of 2^53.
        (0u64..1 << 55).prop_map(|k| (k as i64 - (1i64 << 54)) as f64),
        // Any bit pattern: NaN payloads, subnormals, every exponent.
        any::<u64>().prop_map(f64::from_bits),
        // Probabilities, the service's most common number.
        (0u64..1 << 53).prop_map(|k| k as f64 / (1u64 << 53) as f64),
    ]
}

/// Random trees up to nesting 4, keys and strings from [`arb_string`].
fn arb_json() -> impl Strategy<Value = Json> {
    let leaf = prop_oneof![
        Just(Json::Null),
        any::<bool>().prop_map(Json::Bool),
        arb_number().prop_map(Json::Num),
        arb_string().prop_map(Json::Str),
    ];
    leaf.prop_recursive(4, 48, 6, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 0..6).prop_map(Json::Arr),
            prop::collection::vec((arb_string(), inner), 0..6).prop_map(Json::Obj),
        ]
    })
}

proptest! {
    /// The one encoder, through `write_to` and through `Display`, gives
    /// the reference encoder's bytes on every tree.
    #[test]
    fn encoder_matches_reference(value in arb_json()) {
        let expected = reference_encode(&value);
        let mut appended = String::from("prefix");
        value.write_to(&mut appended);
        prop_assert_eq!(&appended["prefix".len()..], expected.as_str());
        prop_assert_eq!(value.to_string(), expected);
    }
}

#[test]
fn edge_numbers_match_reference() {
    for n in EDGE_NUMBERS {
        let value = Json::Num(n);
        assert_eq!(value.to_string(), reference_encode(&value), "{n:e}");
    }
    assert_eq!(Json::Num(-0.0).to_string(), "0");
    assert_eq!(Json::Num(-3.0).to_string(), "-3");
    assert_eq!(
        Json::Num(9_007_199_254_740_991.0).to_string(),
        "9007199254740991"
    );
}

fn engine_config(fault_plan: Option<Arc<FaultPlan>>) -> EngineConfig {
    EngineConfig {
        backoff: BackoffPolicy {
            base_ms: 0,
            cap_ms: 0,
            seed: 0,
        },
        parallelism: Parallelism::Fixed(2),
        leg_patterns: Some(256),
        max_retries: 1,
        fault_plan,
        ..EngineConfig::default()
    }
}

fn submit(engine: &mut JobEngine, kind: &str, extra: &str) -> Json {
    let netlist = Json::str(ripple_adder_bench_text(3)).to_string();
    let request = format!(r#"{{"kind":"{kind}","format":"bench","netlist":{netlist}{extra}}}"#);
    engine.submit_json(&Json::parse(&request).expect("request parses"))
}

/// Every job kind on a 3-bit adder: the built-ins, `testability` in two
/// tiers, and `atpg`.
const KINDS: [(&str, &str); 9] = [
    (
        "fsim",
        r#","patterns":600,"seed":7,"probs":[0.3,0.5,0.7,0.1,0.9,0.6,0.45]"#,
    ),
    ("mc-detect", r#","samples":700,"seed":7"#),
    ("mc-signal", r#","samples":500,"seed":3,"output":3"#),
    ("detect", r#","probs":[0.3,0.5,0.7,0.1,0.9,0.6,0.45]"#),
    ("length", r#","confidence":0.99"#),
    ("optimize", r#","max_sweeps":1"#),
    (
        "testability",
        r#","mode":"bdd","node_budget":200,"tighten_samples":64"#,
    ),
    ("testability", r#","mode":"cutting","tighten_samples":64"#),
    ("atpg", r#","max_backtracks":20"#),
];

fn assert_line_is_tree(record: &JobRecord) {
    assert_eq!(
        record.line,
        record.to_json().to_string(),
        "{} record line",
        record.kind
    );
    assert_eq!(record.line, reference_encode(&record.to_json()));
}

/// The `results` answer as it was built before record lines: one tree
/// holding every record's tree, in id order.
fn results_from_trees(records: &[JobRecord]) -> String {
    let mut trees: Vec<(u64, Json)> = records.iter().map(|r| (r.id, r.to_json())).collect();
    trees.sort_by_key(|(id, _)| *id);
    Json::Obj(vec![
        ("ok".into(), Json::Bool(true)),
        ("op".into(), Json::str("results")),
        (
            "records".into(),
            Json::Arr(trees.into_iter().map(|(_, t)| t).collect()),
        ),
    ])
    .to_string()
}

#[test]
fn record_lines_and_results_equal_their_trees() {
    let mut engine = JobEngine::new(engine_config(None));
    dynmos_atpg::register_atpg(&mut engine);
    assert_eq!(
        engine.results_line(),
        results_from_trees(&[]),
        "empty results"
    );
    for (kind, extra) in KINDS {
        let verdict = submit(&mut engine, kind, extra);
        assert_eq!(verdict.get("ok"), Some(&Json::Bool(true)), "{verdict}");
    }
    let records = engine.drain();
    assert_eq!(records.len(), KINDS.len());
    for record in &records {
        assert_eq!(record.status, JobStatus::Completed, "{}", record.line);
        assert_line_is_tree(record);
    }
    assert_eq!(engine.results_line(), results_from_trees(&records));
}

/// A failed job's record carries the `error` header member; its line
/// still equals its tree.
#[test]
fn failed_record_line_equals_its_tree() {
    let plan = Arc::new(FaultPlan::new(5).leg_kill(1.0));
    let mut engine = JobEngine::new(engine_config(Some(plan)));
    let verdict = submit(&mut engine, "fsim", r#","patterns":600"#);
    assert_eq!(verdict.get("ok"), Some(&Json::Bool(true)), "{verdict}");
    let records = engine.drain();
    assert_eq!(records[0].status, JobStatus::Failed);
    assert!(records[0].error.is_some());
    assert!(
        records[0].line.contains(r#""error":"#),
        "{}",
        records[0].line
    );
    assert_line_is_tree(&records[0]);
    assert_eq!(engine.results_line(), results_from_trees(&records));
}

/// Integers from `2^53` up are not exact in an `f64`: the request text
/// `9007199254740993` parses to `2^53`. A seed there is refused, not
/// run as a different stream; `2^53 - 1` is admitted.
#[test]
fn seeds_from_two_pow_53_are_refused() {
    let mut engine = JobEngine::new(engine_config(None));
    for seed in ["9007199254740992", "9007199254740993"] {
        let verdict = submit(&mut engine, "fsim", &format!(r#","seed":{seed}"#));
        assert_eq!(verdict.get("ok"), Some(&Json::Bool(false)), "{verdict}");
        let error = verdict.get("error").and_then(Json::as_str).unwrap_or("");
        assert!(
            error.contains("\"seed\" must be a non-negative integer"),
            "{verdict}"
        );
    }
    let verdict = submit(&mut engine, "fsim", r#","seed":9007199254740991"#);
    assert_eq!(verdict.get("ok"), Some(&Json::Bool(true)), "{verdict}");
    assert_eq!(
        Json::parse("9007199254740991").unwrap().as_u64(),
        Some(9_007_199_254_740_991)
    );
}
