//! The `BENCH_*.json` file layout, written in one place.
//!
//! Every sweep that leaves a trend-tracking artefact (`BENCH_fleet.json`,
//! `BENCH_resilience.json`) writes the same shape: one object of header
//! fields, the last of which is `"rows"`, an array with one single-line
//! object per measurement:
//!
//! ```text
//! {
//!   "experiment": "fleet",
//!   "machines": 4,
//!   "rows": [
//!     {"rate_rps": 25000.0, "offered": 512},
//!     {"rate_rps": 50000.0, "offered": 512}
//!   ]
//! }
//! ```
//!
//! Callers choose each number's rendering (integer, fixed or scientific
//! precision), so a file is bit-identical whenever the simulation is.
//! Hand-rolled: the workspace builds offline with no serde dependency.

use std::fmt::Write;

/// One scalar field value, already rendered.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// A JSON number, rendered by the caller.
    Number(String),
    /// A string, escaped when written.
    Text(String),
    /// `true` / `false`.
    Bool(bool),
}

impl Value {
    /// An integer.
    pub fn int(v: u64) -> Value {
        Value::Number(v.to_string())
    }

    /// A float with `decimals` digits after the point (`{:.N}`).
    pub fn fixed(v: f64, decimals: usize) -> Value {
        Value::Number(format!("{v:.decimals$}"))
    }

    /// A float in scientific notation with `decimals` mantissa digits
    /// after the point (`{:.Ne}`).
    pub fn sci(v: f64, decimals: usize) -> Value {
        Value::Number(format!("{v:.decimals$e}"))
    }

    /// A string.
    pub fn text(s: impl Into<String>) -> Value {
        Value::Text(s.into())
    }
}

/// An object's fields, in output order.
pub type Fields = Vec<(&'static str, Value)>;

/// Renders a BENCH document: the `header` fields, then `"rows"`.
pub fn document(header: &[(&'static str, Value)], rows: &[Fields]) -> String {
    let mut out = String::from("{\n");
    for (key, value) in header {
        out.push_str("  ");
        write_field(&mut out, key, value);
        out.push_str(",\n");
    }
    out.push_str("  \"rows\": [\n");
    for (i, row) in rows.iter().enumerate() {
        out.push_str("    {");
        for (j, (key, value)) in row.iter().enumerate() {
            if j > 0 {
                out.push_str(", ");
            }
            write_field(&mut out, key, value);
        }
        out.push('}');
        if i + 1 < rows.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("  ]\n}\n");
    out
}

fn write_field(out: &mut String, key: &str, value: &Value) {
    write_string(out, key);
    out.push_str(": ");
    match value {
        Value::Number(n) => out.push_str(n),
        Value::Text(s) => write_string(out, s),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
    }
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// What a BENCH field must parse back as.
#[cfg(test)]
#[derive(Clone, Copy, Debug)]
pub(crate) enum Kind {
    Number,
    Text,
    Bool,
}

/// The structural gate on a BENCH document: it parses as JSON, its
/// header holds exactly `header` plus `rows`, `rows` holds `rows` objects
/// and each of them holds exactly the keys of `row`, every value of the
/// kind declared for its key.
#[cfg(test)]
pub(crate) fn assert_shape(doc: &str, header: &[(&str, Kind)], row: &[(&str, Kind)], rows: usize) {
    use std::collections::BTreeMap;
    use swallow_testkit::json::{parse, Value as Json};

    fn check(map: &BTreeMap<String, Json>, fields: &[(&str, Kind)], what: &str) {
        for &(key, kind) in fields {
            let value = map
                .get(key)
                .unwrap_or_else(|| panic!("{what}: missing `{key}`"));
            let ok = match (kind, value) {
                (Kind::Number, Json::Number(n)) => n.is_finite(),
                (Kind::Text, Json::String(_)) | (Kind::Bool, Json::Bool(_)) => true,
                _ => false,
            };
            assert!(ok, "{what}: `{key}` is not a {kind:?}: {value:?}");
        }
    }
    fn keys<'a>(fields: impl Iterator<Item = &'a str>) -> Vec<&'a str> {
        let mut keys: Vec<&str> = fields.collect();
        keys.sort_unstable();
        keys
    }

    let parsed = parse(doc).unwrap_or_else(|e| panic!("{e}: {doc}"));
    let Json::Object(top) = &parsed else {
        panic!("not an object: {doc}")
    };
    let expected = keys(header.iter().map(|f| f.0).chain(["rows"]));
    assert_eq!(
        keys(top.keys().map(String::as_str)),
        expected,
        "header keys"
    );
    check(top, header, "header");
    let list = parsed
        .get("rows")
        .and_then(Json::as_array)
        .expect("rows is an array");
    assert_eq!(list.len(), rows, "row count");
    let expected = keys(row.iter().map(|f| f.0));
    for (i, r) in list.iter().enumerate() {
        let Json::Object(map) = r else {
            panic!("row {i} is not an object: {r:?}")
        };
        assert_eq!(
            keys(map.keys().map(String::as_str)),
            expected,
            "row {i} keys"
        );
        check(map, row, &format!("row {i}"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lays_out_header_and_rows() {
        let header = vec![("experiment", Value::text("demo")), ("n", Value::int(2))];
        let rows = vec![
            vec![("x", Value::fixed(1.0, 1)), ("ok", Value::Bool(true))],
            vec![("x", Value::sci(0.5, 3)), ("ok", Value::Bool(false))],
        ];
        assert_eq!(
            document(&header, &rows),
            "{\n  \"experiment\": \"demo\",\n  \"n\": 2,\n  \"rows\": [\n    \
             {\"x\": 1.0, \"ok\": true},\n    {\"x\": 5.000e-1, \"ok\": false}\n  ]\n}\n"
        );
        assert_eq!(document(&[], &[]), "{\n  \"rows\": [\n  ]\n}\n");
    }

    #[test]
    fn escapes_strings() {
        let header = vec![("label", Value::text("a\"b\\c\nd\u{1}"))];
        let doc = document(&header, &[]);
        assert!(doc.contains(r#""label": "a\"b\\c\nd\u0001""#), "{doc}");
        let parsed = swallow_testkit::json::parse(&doc).expect("parses");
        assert_eq!(
            parsed.get("label").and_then(|v| v.as_str()),
            Some("a\"b\\c\nd\u{1}")
        );
    }
}
