//! Property test for the workspace's JSON module: whatever the writer
//! prints, the strict parser reads back as the same value — escapes,
//! control characters, nested empties and fixed-decimal numbers included.

use atomio::trace::json::{parse, Value};
use proptest::prelude::*;
use proptest::proptest;

/// Strings over the characters the escape has a case for, plus plain
/// ASCII, multi-byte UTF-8 and a character outside the BMP.
fn text() -> impl Strategy<Value = String> {
    let chars = "\"\\/\n\t\r\u{0}\u{8}\u{c}\u{1f} aZ7:,{]×é\u{fffd}\u{1f600}";
    let chars: Vec<char> = chars.chars().collect();
    prop::collection::vec(prop::sample::select(chars), 0..12)
        .prop_map(|cs| cs.into_iter().collect())
}

fn scalar() -> BoxedStrategy<Value> {
    prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::from),
        any::<u64>().prop_map(Value::from),
        (0usize..1 << 20).prop_map(Value::from),
        // What the benches print as ratios: a fixed number of decimals,
        // either sign, `-0.00` and whole numbers like `5.0` among them.
        (-2_000_000i64..2_000_000, 0usize..4)
            .prop_map(|(milli, decimals)| Value::fixed(milli as f64 / 1000.0, decimals)),
        text().prop_map(|s| Value::from(s.as_str())),
    ]
    .boxed()
}

/// Values nested up to `depth` containers deep; member and item counts
/// start at zero, so `{}`, `[]` and `[{}, []]` all come up.
fn value(depth: u32) -> BoxedStrategy<Value> {
    if depth == 0 {
        return scalar();
    }
    prop_oneof![
        2 => scalar(),
        1 => prop::collection::vec(value(depth - 1), 0..4).prop_map(Value::Array),
        // Duplicate keys are legal and kept (trace args repeat `lo`/`len`).
        1 => prop::collection::vec((text(), value(depth - 1)), 0..4).prop_map(Value::Object),
    ]
    .boxed()
}

proptest! {
    #[test]
    fn what_the_writer_prints_the_parser_reads_back(v in value(3)) {
        let printed = v.to_string();
        prop_assert!(!printed.contains('\n'), "the inline style is one line: {printed}");
        prop_assert_eq!(parse(&printed), Ok(v), "{}", printed);
    }
}
