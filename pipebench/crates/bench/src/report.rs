//! JSON rendering of a run's result line and detail line.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::metrics::Def;

/// A JSON string literal.
pub fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number with every digit Rust's shortest round-trip form gives;
/// non-finite values (never expected) render as `null`.
pub fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// A JSON object from already-rendered values, in the given order.
pub fn object<'a>(fields: impl IntoIterator<Item = (&'a str, String)>) -> String {
    let body: Vec<String> = fields
        .into_iter()
        .map(|(k, v)| format!("{}: {v}", string(k)))
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// A JSON array from already-rendered values.
pub fn array(items: impl IntoIterator<Item = String>) -> String {
    format!("[{}]", items.into_iter().collect::<Vec<_>>().join(", "))
}

/// The result line: `correct`, `attempted`, `failed`, and each metric of
/// `defs` with its value and unit.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    defs: &[Def],
    values: &BTreeMap<&'static str, f64>,
) -> String {
    let metrics = object(defs.iter().map(|d| {
        let v = values.get(d.name).copied().unwrap_or(0.0);
        (
            d.name,
            object([("value", number(v)), ("unit", string(d.unit))]),
        )
    }));
    object([
        ("correct", correct.to_string()),
        ("attempted", attempted.to_string()),
        ("failed", failed.to_string()),
        ("metrics", metrics),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{END_TO_END, PER_LAYER};
    use serde_json::Value;

    fn parse(line: &str) -> Value {
        serde_json::parse(line).unwrap_or_else(|e| panic!("{e:?}: {line}"))
    }

    #[test]
    fn result_line_parses_back_with_every_metric() {
        let mut values = BTreeMap::new();
        values.insert("setup_s", 0.812_734_5);
        values.insert("op_p50_ms", 1.25);
        let line = result_line(true, 1000, 0, END_TO_END, &values);
        let v = parse(&line);
        let Value::Object(top) = v else {
            panic!("not an object: {line}")
        };
        let keys: Vec<&str> = top.keys().map(String::as_str).collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(top["correct"], Value::Bool(true));
        assert_eq!(top["attempted"].as_u64(), Some(1000));
        let Value::Object(m) = &top["metrics"] else {
            panic!()
        };
        assert_eq!(m.len(), END_TO_END.len());
        let setup = m["setup_s"].as_object().expect("metric object");
        assert_eq!(setup["value"].as_f64(), Some(0.812_734_5));
        assert_eq!(setup["unit"], Value::String("s".into()));

        let layer = result_line(false, 3, 1, PER_LAYER, &BTreeMap::new());
        let Value::Object(top) = parse(&layer) else {
            panic!()
        };
        let Value::Object(m) = &top["metrics"] else {
            panic!()
        };
        assert_eq!(m.len(), PER_LAYER.len());
        assert_eq!(top["failed"].as_u64(), Some(1));
    }

    #[test]
    fn strings_escape_and_numbers_keep_their_digits() {
        let s = string("a\"b\\c\nd\u{1}");
        assert_eq!(s, "\"a\\\"b\\\\c\\nd\\u0001\"");
        assert_eq!(parse(&s), Value::String("a\"b\\c\nd\u{1}".into()));
        assert_eq!(number(0.1 + 0.2), "0.30000000000000004");
        assert_eq!(number(f64::NAN), "null");
        assert_eq!(number(3660.0), "3660");
    }
}
