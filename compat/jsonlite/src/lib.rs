//! Dependency-free JSON for the simulator's kernel/user payloads.
//!
//! The build environment has no crates.io access, so the workspace cannot
//! use `serde`/`serde_json`. The structs crossing the simulated ioctl
//! boundary are all flat records of integers, booleans, vectors and small
//! tuples, which this crate covers with a [`Value`] tree, a strict parser,
//! and the [`ToJson`]/[`FromJson`] traits. Struct impls are generated with
//! [`json_struct!`], keeping call sites as terse as a serde derive.
//!
//! Integers are kept exact: `u64`/`i64` payload fields never round-trip
//! through `f64`, so nanosecond timestamps above 2^53 survive.

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A non-negative integer that fits `u64`, kept exact.
    U64(u64),
    /// A negative integer that fits `i64`, kept exact.
    I64(i64),
    /// Any other number.
    F64(f64),
    /// A string (no escape sequences beyond the JSON basics).
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, in insertion order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Looks up a key in an object value.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The array items, if this is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    fn as_u64(&self) -> Option<u64> {
        match *self {
            Value::U64(v) => Some(v),
            Value::I64(v) => u64::try_from(v).ok(),
            Value::F64(v) if v >= 0.0 && v.fract() == 0.0 && v < 1.8e19 => Some(v as u64),
            _ => None,
        }
    }

    fn as_i64(&self) -> Option<i64> {
        match *self {
            Value::U64(v) => i64::try_from(v).ok(),
            Value::I64(v) => Some(v),
            Value::F64(v) if v.fract() == 0.0 && v.abs() < 9.3e18 => Some(v as i64),
            _ => None,
        }
    }

    /// Renders as compact JSON text.
    pub fn render(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::U64(v) => out.push_str(&v.to_string()),
            Value::I64(v) => out.push_str(&v.to_string()),
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

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> Option<()> {
        (self.peek() == Some(b)).then(|| self.pos += 1)
    }

    fn eat_literal(&mut self, lit: &str) -> Option<()> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Some(())
        } else {
            None
        }
    }

    fn value(&mut self) -> Option<Value> {
        self.skip_ws();
        match self.peek()? {
            b'n' => self.eat_literal("null").map(|()| Value::Null),
            b't' => self.eat_literal("true").map(|()| Value::Bool(true)),
            b'f' => self.eat_literal("false").map(|()| Value::Bool(false)),
            b'"' => self.string().map(Value::Str),
            b'[' => self.array(),
            b'{' => self.object(),
            _ => self.number(),
        }
    }

    fn string(&mut self) -> Option<String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek()? {
                b'"' => {
                    self.pos += 1;
                    return Some(out);
                }
                b'\\' => {
                    self.pos += 1;
                    match self.peek()? {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self.bytes.get(self.pos + 1..self.pos + 5)?;
                            let code =
                                u32::from_str_radix(std::str::from_utf8(hex).ok()?, 16).ok()?;
                            out.push(char::from_u32(code)?);
                            self.pos += 4;
                        }
                        _ => return None,
                    }
                    self.pos += 1;
                }
                _ => {
                    // Copy the run of plain bytes up to the next quote or
                    // backslash in one piece, validating only that run.
                    // Both stoppers are ASCII, so a run never splits a
                    // UTF-8 scalar; an unterminated string has no stopper.
                    let rest = &self.bytes[self.pos..];
                    let len = rest.iter().position(|&b| b == b'"' || b == b'\\')?;
                    out.push_str(std::str::from_utf8(&rest[..len]).ok()?);
                    self.pos += len;
                }
            }
        }
    }

    fn number(&mut self) -> Option<Value> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).ok()?;
        if text.is_empty() || text == "-" {
            return None;
        }
        if !is_float {
            if let Ok(v) = text.parse::<u64>() {
                return Some(Value::U64(v));
            }
            if let Ok(v) = text.parse::<i64>() {
                return Some(Value::I64(v));
            }
        }
        text.parse::<f64>().ok().map(Value::F64)
    }

    fn array(&mut self) -> Option<Value> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.eat(b']').is_some() {
            return Some(Value::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            if self.eat(b']').is_some() {
                return Some(Value::Arr(items));
            }
            self.eat(b',')?;
        }
    }

    fn object(&mut self) -> Option<Value> {
        self.eat(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.eat(b'}').is_some() {
            return Some(Value::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            fields.push((key, self.value()?));
            self.skip_ws();
            if self.eat(b'}').is_some() {
                return Some(Value::Obj(fields));
            }
            self.eat(b',')?;
        }
    }
}

/// Parses JSON text into a [`Value`]. Returns `None` on any syntax error
/// or trailing garbage.
pub fn parse(bytes: &[u8]) -> Option<Value> {
    let mut p = Parser { bytes, pos: 0 };
    let v = p.value()?;
    p.skip_ws();
    (p.pos == bytes.len()).then_some(v)
}

/// Types that render themselves to a JSON [`Value`].
pub trait ToJson {
    /// The JSON representation.
    fn to_json(&self) -> Value;
}

/// Types that reconstruct themselves from a JSON [`Value`].
pub trait FromJson: Sized {
    /// Rebuilds from JSON; `None` on shape or range mismatch.
    fn from_json(v: &Value) -> Option<Self>;
}

/// Codec failure: malformed JSON or a shape/range mismatch.
///
/// Mirrors `serde_json::Error`'s position in signatures so call sites
/// written against serde_json (`.ok()`, `.map_err(..)`, `.expect(..)`)
/// port without change.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Error;

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("invalid JSON payload")
    }
}

impl std::error::Error for Error {}

/// Serializes any [`ToJson`] type to compact JSON bytes (infallible, but
/// `Result` for serde_json signature parity).
pub fn to_vec<T: ToJson + ?Sized>(t: &T) -> Result<Vec<u8>, Error> {
    let mut out = String::new();
    t.to_json().render(&mut out);
    Ok(out.into_bytes())
}

/// Deserializes any [`FromJson`] type from JSON bytes.
pub fn from_slice<T: FromJson>(bytes: &[u8]) -> Result<T, Error> {
    parse(bytes).and_then(|v| T::from_json(&v)).ok_or(Error)
}

impl ToJson for bool {
    fn to_json(&self) -> Value {
        Value::Bool(*self)
    }
}

impl FromJson for bool {
    fn from_json(v: &Value) -> Option<Self> {
        match v {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

macro_rules! json_uint {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Value {
                Value::U64(*self as u64)
            }
        }
        impl FromJson for $t {
            fn from_json(v: &Value) -> Option<Self> {
                <$t>::try_from(v.as_u64()?).ok()
            }
        }
    )*};
}

json_uint!(u8, u16, u32, u64, usize);

macro_rules! json_int {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Value {
                let v = *self as i64;
                if v >= 0 { Value::U64(v as u64) } else { Value::I64(v) }
            }
        }
        impl FromJson for $t {
            fn from_json(v: &Value) -> Option<Self> {
                <$t>::try_from(v.as_i64()?).ok()
            }
        }
    )*};
}

json_int!(i8, i16, i32, i64, isize);

impl ToJson for f64 {
    fn to_json(&self) -> Value {
        Value::F64(*self)
    }
}

impl FromJson for f64 {
    fn from_json(v: &Value) -> Option<Self> {
        match *v {
            Value::U64(n) => Some(n as f64),
            Value::I64(n) => Some(n as f64),
            Value::F64(n) => Some(n),
            _ => None,
        }
    }
}

impl ToJson for String {
    fn to_json(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl FromJson for String {
    fn from_json(v: &Value) -> Option<Self> {
        match v {
            Value::Str(s) => Some(s.clone()),
            _ => None,
        }
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Value {
        Value::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(v: &Value) -> Option<Self> {
        v.as_arr()?.iter().map(T::from_json).collect()
    }
}

impl<T: ToJson, const N: usize> ToJson for [T; N] {
    fn to_json(&self) -> Value {
        Value::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: FromJson, const N: usize> FromJson for [T; N] {
    fn from_json(v: &Value) -> Option<Self> {
        let items = v.as_arr()?;
        let parsed: Vec<T> = items.iter().map(T::from_json).collect::<Option<_>>()?;
        parsed.try_into().ok()
    }
}

impl<A: ToJson, B: ToJson> ToJson for (A, B) {
    fn to_json(&self) -> Value {
        Value::Arr(vec![self.0.to_json(), self.1.to_json()])
    }
}

impl<A: FromJson, B: FromJson> FromJson for (A, B) {
    fn from_json(v: &Value) -> Option<Self> {
        match v.as_arr()? {
            [a, b] => Some((A::from_json(a)?, B::from_json(b)?)),
            _ => None,
        }
    }
}

/// Implements [`ToJson`]/[`FromJson`] for a plain struct, field-by-field —
/// the workspace's replacement for `#[derive(Serialize, Deserialize)]`.
///
/// ```
/// #[derive(Debug, PartialEq)]
/// struct Point { x: u64, y: i64 }
/// jsonlite::json_struct!(Point { x, y });
///
/// let p = Point { x: 3, y: -4 };
/// let bytes = jsonlite::to_vec(&p).unwrap();
/// assert_eq!(jsonlite::from_slice::<Point>(&bytes), Ok(p));
/// ```
#[macro_export]
macro_rules! json_struct {
    ($name:ident { $($field:ident),+ $(,)? }) => {
        impl $crate::ToJson for $name {
            fn to_json(&self) -> $crate::Value {
                $crate::Value::Obj(vec![
                    $( (stringify!($field).to_string(), $crate::ToJson::to_json(&self.$field)) ),+
                ])
            }
        }
        impl $crate::FromJson for $name {
            fn from_json(v: &$crate::Value) -> Option<Self> {
                Some(Self {
                    $( $field: $crate::FromJson::from_json(v.get(stringify!($field))?)? ),+
                })
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, PartialEq)]
    struct Sample {
        id: u32,
        pairs: Vec<(u8, u8)>,
        fixed: [u64; 3],
        on: bool,
        name: String,
    }
    json_struct!(Sample {
        id,
        pairs,
        fixed,
        on,
        name
    });

    #[test]
    fn struct_round_trips() {
        let s = Sample {
            id: 9,
            pairs: vec![(1, 2), (3, 4)],
            fixed: [u64::MAX, 0, 1 << 60],
            on: true,
            name: "quote\" slash\\ tab\t".into(),
        };
        let bytes = to_vec(&s).unwrap();
        assert_eq!(from_slice::<Sample>(&bytes), Ok(s));
    }

    #[test]
    fn big_u64_is_exact() {
        let v = u64::MAX - 3;
        let bytes = to_vec(&v).unwrap();
        assert_eq!(from_slice::<u64>(&bytes), Ok(v));
    }

    #[test]
    fn negative_ints_round_trip() {
        for v in [-1i64, i64::MIN, 0, 42] {
            assert_eq!(from_slice::<i64>(&to_vec(&v).unwrap()), Ok(v));
        }
    }

    #[test]
    fn malformed_inputs_are_none() {
        assert_eq!(parse(b"not json"), None);
        assert_eq!(parse(b"{"), None);
        assert_eq!(parse(b"[1,]"), None);
        assert_eq!(parse(b"{\"a\":1} trailing"), None);
        assert_eq!(parse(b""), None);
        assert_eq!(from_slice::<u32>(b"4294967296"), Err(Error), "out of range");
        assert_eq!(from_slice::<u64>(b"-1"), Err(Error));
        assert_eq!(parse(b"\"unterminated"), None);
        // Invalid UTF-8 inside a string: a stray byte, a lone continuation
        // byte, a truncated snowman and an overlong NUL, each also just
        // before an escape.
        for bad in [&b"\xFF"[..], b"\x80", b"\xE2\x98", b"\xC0\x80"] {
            for tail in [&b""[..], b"\\n"] {
                let text = [&b"[\"ok\", \"a"[..], bad, tail, b"b\"]"].concat();
                assert_eq!(parse(&text), None, "{text:?}");
            }
        }
        let good = [&b"[\"ok\", \"a"[..], "é".as_bytes(), b"\\n", b"b\"]"].concat();
        assert!(parse(&good).is_some());
    }

    #[test]
    fn whitespace_tolerated() {
        let v = parse(b" { \"a\" : [ 1 , 2 ] , \"b\" : true } ").unwrap();
        assert_eq!(v.get("b"), Some(&Value::Bool(true)));
        assert_eq!(Vec::<u64>::from_json(v.get("a").unwrap()), Some(vec![1, 2]));
    }

    #[test]
    fn floats_round_trip() {
        for v in [0.5f64, -1.25e10, 3.0] {
            assert_eq!(from_slice::<f64>(&to_vec(&v).unwrap()), Ok(v));
        }
    }

    #[test]
    fn unicode_strings_survive() {
        let s = "héllo ☃ \u{1}".to_string();
        assert_eq!(from_slice::<String>(&to_vec(&s).unwrap()), Ok(s));
        // 64 KiB of mixed one- to four-byte scalars and escaped characters,
        // which parses in time linear in its length.
        let long: String = "ab é ☃ 𝄞 \"q\" \\ \n"
            .chars()
            .cycle()
            .scan(0, |len, c| {
                *len += c.len_utf8();
                (*len <= 64 * 1024).then_some(c)
            })
            .collect();
        assert!(long.len() > 64 * 1024 - 4);
        assert_eq!(from_slice::<String>(&to_vec(&long).unwrap()), Ok(long));
    }
}
