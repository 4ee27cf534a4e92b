//! A std-only JSON writer shared by every report the workspace emits
//! (execution and scheduler stats, the `BENCH_*.json` trajectory files).
//!
//! Values are rendered to `String` fragments and assembled with [`jobj`];
//! [`jstr`] is the one string escaper, so every label, model, device or
//! tenant name comes out as valid JSON whatever characters it holds.

use std::collections::BTreeMap;

/// Quotes and escapes a JSON string (`"`, `\` and every control character).
pub fn jstr(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Formats an `f64` as a JSON number with one decimal (non-finite values
/// become 0 — JSON has no NaN/Infinity).
pub fn jnum(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.1}")
    } else {
        "0.0".to_string()
    }
}

/// Builds one JSON object from pre-rendered `(key, value)` pairs (values
/// must already be valid JSON fragments).
pub fn jobj(fields: &[(&str, String)]) -> String {
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}:{v}", jstr(k)))
        .collect();
    format!("{{{}}}", body.join(","))
}

/// Builds one JSON object from a string-keyed map, rendering each value
/// with `render` (keys come out in the map's order).
pub fn jmap<V>(map: &BTreeMap<String, V>, render: impl Fn(&V) -> String) -> String {
    let fields: Vec<(&str, String)> = map.iter().map(|(k, v)| (k.as_str(), render(v))).collect();
    jobj(&fields)
}

/// A number the writer renders: integers as they are, `f64` through
/// [`jnum`]. Lets table-driven exports render a field without knowing its
/// type.
pub trait JsonNumber {
    /// The JSON fragment for this value.
    fn to_json(&self) -> String;
}

impl JsonNumber for u64 {
    fn to_json(&self) -> String {
        self.to_string()
    }
}

impl JsonNumber for usize {
    fn to_json(&self) -> String {
        self.to_string()
    }
}

impl JsonNumber for f64 {
    fn to_json(&self) -> String {
        jnum(*self)
    }
}
