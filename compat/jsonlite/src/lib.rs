//! A dependency-free JSON writer.
//!
//! The build environment has no crates.io access, so the workspace cannot
//! use `serde_json`. Its one JSON document is the report `governor_perf`
//! writes to `BENCH_governor.json`: the bin builds a [`Value`] tree and
//! [`Value::render`]s it as compact text. There is no parser; ioctl
//! payloads use the little-endian format of `ksim::wire`.

/// A JSON value to render.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `true` / `false`
    Bool(bool),
    /// A non-negative integer, rendered exactly.
    U64(u64),
    /// Any other number; a non-finite one renders as `null`.
    F64(f64),
    /// A string, escaped on output.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, in insertion order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Renders as compact JSON text.
    pub fn render(&self, out: &mut String) {
        match self {
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::U64(v) => out.push_str(&v.to_string()),
            Value::F64(v) => {
                if v.is_finite() {
                    out.push_str(&format!("{v:?}"))
                } else {
                    out.push_str("null")
                }
            }
            Value::Str(s) => render_string(s, out),
            Value::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render(out);
                }
                out.push(']');
            }
            Value::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    render_string(k, out);
                    out.push(':');
                    v.render(out);
                }
                out.push('}');
            }
        }
    }
}

fn render_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_escapes_floats_and_non_finite_as_null() {
        let doc = Value::Obj(vec![
            ("q\"\\\n\t\u{1}é".into(), Value::Str("a\rb".into())),
            ("n".into(), Value::U64(u64::MAX)),
            (
                "x".into(),
                Value::Arr(vec![
                    Value::F64(0.5),
                    Value::F64(-1.25e10),
                    Value::F64(f64::NAN),
                    Value::F64(f64::INFINITY),
                    Value::Bool(true),
                ]),
            ),
        ]);
        let mut out = String::new();
        doc.render(&mut out);
        assert_eq!(
            out,
            r#"{"q\"\\\n\t\u0001é":"a\rb","n":18446744073709551615,"x":[0.5,-12500000000.0,null,null,true]}"#
        );
    }
}
