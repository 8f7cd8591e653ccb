//! JSON string handling: arbitrary strings round-trip through the
//! emitter and the parser, and a request carrying a megabyte-sized
//! netlist parses and round-trips.

use dynmos_netlist::generate::ripple_adder_bench_text;
use dynmos_protest::Json;
use proptest::prelude::*;

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
