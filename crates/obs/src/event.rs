//! Structured events serialised as JSON Lines into a pluggable sink.
//!
//! An event is a `kind` plus typed fields; the registry renders it as
//! one self-contained JSON object per line (`{"ts":..,"kind":..,...}`)
//! so logs can be tailed, grepped and parsed without a schema. JSON is
//! rendered by hand — this crate carries no dependencies — with the
//! escaping rules the serialisation needs and nothing more.

use std::fmt::Write as _;
use std::fs::File;
use std::io::Write as _;
use std::path::Path;
use std::sync::Mutex;

/// A typed event-field value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Floating point (non-finite values render as `null`).
    F64(f64),
    /// String (escaped on render).
    Str(String),
    /// Borrowed static string (escaped on render) — what `&'static
    /// str` literals convert into, so hot paths (the tracer's hop
    /// renderer, per-sample events) attach identifier fields without
    /// allocating.
    Ident(&'static str),
    /// Boolean.
    Bool(bool),
}

impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::U64(v)
    }
}
impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::U64(v as u64)
    }
}
impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::I64(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::F64(v)
    }
}
impl From<&'static str> for Value {
    fn from(v: &'static str) -> Self {
        Value::Ident(v)
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl Value {
    /// Renders the value as a JSON literal into `out`.
    pub fn render_into(&self, out: &mut String) {
        match self {
            Value::U64(v) => push_u64(out, *v),
            Value::I64(v) => {
                if *v < 0 {
                    out.push('-');
                    push_u64(out, v.unsigned_abs());
                } else {
                    push_u64(out, *v as u64);
                }
            }
            // fmt::Write to a String never errors; discard the Result.
            Value::F64(v) if v.is_finite() => {
                let _ = write!(out, "{v}");
            }
            Value::F64(_) => out.push_str("null"),
            Value::Str(s) => {
                out.push('"');
                json_escape(s, out);
                out.push('"');
            }
            Value::Ident(s) => {
                out.push('"');
                json_escape(s, out);
                out.push('"');
            }
            Value::Bool(v) => out.push_str(if *v { "true" } else { "false" }),
        }
    }
}

/// Appends `v` in decimal — the same bytes as `write!(out, "{v}")`
/// without the `core::fmt` machinery. Rendered on every event field
/// and trace hop, which is why it is hand-rolled: the digits fill a
/// stack buffer that lands in one `push_str`.
#[inline]
pub fn push_u64(out: &mut String, mut v: u64) {
    let mut buf = [0u8; 20];
    let mut i = buf.len();
    loop {
        i -= 1;
        buf[i] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    // The buffer holds ASCII digits only, so the conversion cannot fail.
    if let Ok(digits) = std::str::from_utf8(&buf[i..]) {
        out.push_str(digits);
    }
}

/// Appends `s` to `out` with JSON string escaping applied. Strings
/// with nothing to escape (every identifier and label this workspace
/// renders) are copied in one `push_str`.
#[inline]
pub fn json_escape(s: &str, out: &mut String) {
    if s.bytes().any(|b| b == b'"' || b == b'\\' || b < 0x20) {
        escape_chars(s, out);
    } else {
        out.push_str(s);
    }
}

/// The escaping loop behind [`json_escape`], one char at a time.
fn escape_chars(s: &str, out: &mut String) {
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
}

/// Appends `fields` as `,"key":value` pairs — the tail every event
/// line and trace hop shares.
pub fn push_fields(out: &mut String, fields: &[(&str, Value)]) {
    for (k, v) in fields {
        out.push_str(",\"");
        json_escape(k, out);
        out.push_str("\":");
        v.render_into(out);
    }
}

/// Renders one event as a JSON line (no trailing newline).
pub(crate) fn render_event(ts: u64, kind: &str, fields: &[(&str, Value)]) -> String {
    let mut line = String::with_capacity(64);
    line.push_str("{\"ts\":");
    push_u64(&mut line, ts);
    line.push_str(",\"kind\":\"");
    json_escape(kind, &mut line);
    line.push('"');
    push_fields(&mut line, fields);
    line.push('}');
    line
}

/// Receives rendered JSONL event lines.
pub trait EventSink: Send + Sync {
    /// Consumes one rendered line (no trailing newline).
    fn emit(&self, line: &str);
}

/// An in-memory sink capturing every line — for tests and determinism
/// assertions.
#[derive(Debug, Default)]
pub struct MemorySink {
    lines: Mutex<Vec<String>>,
}

impl MemorySink {
    /// An empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Every line emitted so far, in order.
    pub fn lines(&self) -> Vec<String> {
        self.lines.lock().unwrap_or_else(|e| e.into_inner()).clone()
    }

    /// Lines emitted so far.
    pub fn len(&self) -> usize {
        self.lines.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// True when nothing has been emitted.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl EventSink for MemorySink {
    fn emit(&self, line: &str) {
        self.lines.lock().unwrap_or_else(|e| e.into_inner()).push(line.to_string());
    }
}

/// A sink appending one line per event to a file (unbuffered writes —
/// event rates in this workspace are low and crash-safety matters more
/// than syscall counts).
#[derive(Debug)]
pub struct FileSink {
    file: Mutex<File>,
}

impl FileSink {
    /// Creates (truncating) the JSONL file at `path`.
    pub fn create(path: &Path) -> std::io::Result<Self> {
        Ok(Self { file: Mutex::new(File::create(path)?) })
    }
}

impl EventSink for FileSink {
    fn emit(&self, line: &str) {
        let mut f = self.file.lock().unwrap_or_else(|e| e.into_inner());
        // A failed log write must never take down the pipeline it
        // observes; the error is intentionally dropped.
        let _ = writeln!(f, "{line}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_typed_fields() {
        let line = render_event(
            7,
            "alarm",
            &[
                ("node", Value::from(3usize)),
                ("score", Value::from(0.5f64)),
                ("label", Value::from("memleak")),
                ("confirmed", Value::from(true)),
                ("delta", Value::from(-2i64)),
            ],
        );
        assert_eq!(
            line,
            r#"{"ts":7,"kind":"alarm","node":3,"score":0.5,"label":"memleak","confirmed":true,"delta":-2}"#
        );
    }

    #[test]
    fn escapes_strings_and_nulls_non_finite() {
        let line = render_event(
            0,
            "x",
            &[("s", Value::from("a\"b\\c\nd\u{1}")), ("nan", Value::from(f64::NAN))],
        );
        assert_eq!(line, r#"{"ts":0,"kind":"x","s":"a\"b\\c\nd\u0001","nan":null}"#);
    }

    #[test]
    fn escape_fast_path_matches_the_char_loop() {
        let cases = ["", "plain_ascii-42", "\"", "\\", "\n\r\t", "\u{1}", "\u{1f}", "naïve → ✓"];
        for s in cases {
            let (mut fast, mut slow) = (String::new(), String::new());
            json_escape(s, &mut fast);
            escape_chars(s, &mut slow);
            assert_eq!(fast, slow, "{s:?}");
        }
        let mut out = String::new();
        json_escape("a\"b\\c\n\r\t\u{1}\u{1f}é", &mut out);
        assert_eq!(out, r#"a\"b\\c\n\r\t\u0001\u001fé"#);
    }

    #[test]
    fn memory_sink_captures_in_order() {
        let sink = MemorySink::new();
        assert!(sink.is_empty());
        sink.emit("a");
        sink.emit("b");
        assert_eq!(sink.lines(), vec!["a", "b"]);
    }

    #[test]
    fn file_sink_writes_jsonl() {
        let path = std::env::temp_dir().join("alba_obs_file_sink_test.jsonl");
        let sink = FileSink::create(&path).unwrap();
        sink.emit(r#"{"ts":0,"kind":"a"}"#);
        sink.emit(r#"{"ts":1,"kind":"b"}"#);
        drop(sink);
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 2);
        std::fs::remove_file(&path).ok();
    }
}
