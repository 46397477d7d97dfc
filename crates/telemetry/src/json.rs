//! A hand-rolled JSON writer with correct escaping and nesting helpers.
//!
//! The workspace builds with zero external dependencies, so every JSON
//! document we emit — `BENCH_paper.json`, `METRICS.json`, Chrome
//! trace files — goes through this writer instead of ad-hoc
//! `String::push_str` formatting scattered across benches.
//!
//! Two container styles are supported and can be mixed freely:
//!
//! - **pretty**: each element on its own line, two-space indentation
//!   per pretty nesting level (the style of the existing bench JSON);
//! - **inline**: the whole container on one line, elements separated by
//!   `", "` (used for array-of-record rows such as the table rows in
//!   `BENCH_paper.json`, and for compact time-series arrays).
//!
//! Floats are written with an explicit fixed precision; non-finite
//! values (which JSON cannot represent) are written as `null`.

/// Append `s` to `out` with JSON string escaping.
///
/// Escapes `"` and `\`, the common control characters `\n`/`\r`/`\t`,
/// and any other control character as `\u00XX`. Everything else
/// (including non-ASCII) is passed through verbatim, which is valid
/// JSON as long as the document is UTF-8 — and Rust strings are.
pub fn json_escape(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Kind {
    Object,
    Array,
}

#[derive(Debug)]
struct Frame {
    kind: Kind,
    inline: bool,
    count: usize,
}

/// Incremental JSON document builder.
///
/// The writer tracks the container stack so callers only state intent
/// (`field_u64`, `begin_array`, …) and never hand-manage commas,
/// indentation or escaping. [`JsonWriter::finish`] asserts the document
/// is complete (all containers closed) and returns the string with a
/// trailing newline.
///
/// # Examples
///
/// ```
/// use cooprt_telemetry::JsonWriter;
///
/// let mut w = JsonWriter::new();
/// w.begin_object();
/// w.field_u64("cycles", 9162);
/// w.field_str("scene", "wknd");
/// w.end_object();
/// assert_eq!(w.finish(), "{\n  \"cycles\": 9162,\n  \"scene\": \"wknd\"\n}\n");
/// ```
#[derive(Debug, Default)]
pub struct JsonWriter {
    out: String,
    frames: Vec<Frame>,
}

impl JsonWriter {
    /// Create an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    fn pretty_depth(&self) -> usize {
        self.frames.iter().filter(|f| !f.inline).count()
    }

    /// Write the separator/indentation due before the next element of
    /// the current container, and count it.
    fn sep(&mut self) {
        let depth = self.pretty_depth();
        let Some(top) = self.frames.last_mut() else {
            return; // root value: no separator
        };
        if top.inline {
            if top.count > 0 {
                self.out.push_str(", ");
            }
        } else {
            if top.count > 0 {
                self.out.push(',');
            }
            self.out.push('\n');
            for _ in 0..depth {
                self.out.push_str("  ");
            }
        }
        top.count += 1;
    }

    /// Write `"key": ` (with separator) inside the current object.
    fn key(&mut self, key: &str) {
        debug_assert_eq!(
            self.frames.last().map(|f| f.kind),
            Some(Kind::Object),
            "key() outside an object"
        );
        self.sep();
        self.out.push('"');
        json_escape(&mut self.out, key);
        self.out.push_str("\": ");
    }

    fn open(&mut self, kind: Kind, inline: bool) {
        self.out.push(match kind {
            Kind::Object => '{',
            Kind::Array => '[',
        });
        self.frames.push(Frame {
            kind,
            inline,
            count: 0,
        });
    }

    fn close(&mut self, kind: Kind) {
        let f = self.frames.pop().expect("close() with no open container");
        assert_eq!(f.kind, kind, "mismatched container close");
        if !f.inline && f.count > 0 {
            self.out.push('\n');
            let depth = self.pretty_depth();
            for _ in 0..depth {
                self.out.push_str("  ");
            }
        }
        self.out.push(match kind {
            Kind::Object => '}',
            Kind::Array => ']',
        });
    }

    /// Open a pretty object in value position (document root or array
    /// element).
    pub fn begin_object(&mut self) {
        self.sep();
        self.open(Kind::Object, false);
    }

    /// Open a single-line object in value position (typically one
    /// record row of a pretty array).
    pub fn begin_inline_object(&mut self) {
        self.sep();
        self.open(Kind::Object, true);
    }

    /// Open a pretty object as the value of `key`.
    pub fn begin_object_field(&mut self, key: &str) {
        self.key(key);
        self.open(Kind::Object, false);
    }

    /// Open a single-line object as the value of `key` (e.g. the
    /// `args` object of a Chrome trace event row).
    pub fn begin_inline_object_field(&mut self, key: &str) {
        self.key(key);
        self.open(Kind::Object, true);
    }

    /// Close the innermost object.
    pub fn end_object(&mut self) {
        self.close(Kind::Object);
    }

    /// Open a pretty array as the value of `key`.
    pub fn begin_array(&mut self, key: &str) {
        self.key(key);
        self.open(Kind::Array, false);
    }

    /// Open a single-line array as the value of `key` (compact scalar
    /// series).
    pub fn begin_inline_array(&mut self, key: &str) {
        self.key(key);
        self.open(Kind::Array, true);
    }

    /// Close the innermost array.
    pub fn end_array(&mut self) {
        self.close(Kind::Array);
    }

    fn push_f64(&mut self, v: f64, decimals: usize) {
        if v.is_finite() {
            self.out.push_str(&format!("{v:.decimals$}"));
        } else {
            self.out.push_str("null");
        }
    }

    /// Write `"key": <v>` for an unsigned integer.
    pub fn field_u64(&mut self, key: &str, v: u64) {
        self.key(key);
        self.out.push_str(&v.to_string());
    }

    /// Write `"key": <v>` for a signed integer.
    pub fn field_i64(&mut self, key: &str, v: i64) {
        self.key(key);
        self.out.push_str(&v.to_string());
    }

    /// Write `"key": <v>` with `decimals` digits after the point.
    /// Non-finite values are written as `null`.
    pub fn field_f64(&mut self, key: &str, v: f64, decimals: usize) {
        self.key(key);
        self.push_f64(v, decimals);
    }

    /// Write `"key": "<v>"` with escaping.
    pub fn field_str(&mut self, key: &str, v: &str) {
        self.key(key);
        self.out.push('"');
        json_escape(&mut self.out, v);
        self.out.push('"');
    }

    /// Write `"key": true|false`.
    pub fn field_bool(&mut self, key: &str, v: bool) {
        self.key(key);
        self.out.push_str(if v { "true" } else { "false" });
    }

    /// Write `"key": <raw>` where `raw` is inserted **verbatim**.
    ///
    /// The caller guarantees `raw` is one complete, valid JSON value
    /// (object, array or scalar). Used to embed an already-serialized
    /// document — e.g. a cached `cooprt-serve` result payload — inside
    /// a wrapper object without re-parsing it, which keeps cached
    /// bytes bitwise identical to fresh ones.
    pub fn field_raw(&mut self, key: &str, raw: &str) {
        self.key(key);
        self.out.push_str(raw.trim_end_matches('\n'));
    }

    /// Write an unsigned-integer array element.
    pub fn item_u64(&mut self, v: u64) {
        self.sep();
        self.out.push_str(&v.to_string());
    }

    /// Write a float array element with `decimals` digits after the
    /// point (`null` if non-finite).
    pub fn item_f64(&mut self, v: f64, decimals: usize) {
        self.sep();
        self.push_f64(v, decimals);
    }

    /// Write a string array element with escaping.
    pub fn item_str(&mut self, v: &str) {
        self.sep();
        self.out.push('"');
        json_escape(&mut self.out, v);
        self.out.push('"');
    }

    /// Finish the document: assert every container was closed and
    /// return the text with a trailing newline.
    pub fn finish(mut self) -> String {
        assert!(
            self.frames.is_empty(),
            "finish() with {} unclosed container(s)",
            self.frames.len()
        );
        self.out.push('\n');
        self.out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escaping_covers_quotes_backslashes_and_controls() {
        let mut s = String::new();
        json_escape(&mut s, "a\"b\\c\nd\te\r\u{1}ü");
        assert_eq!(s, "a\\\"b\\\\c\\nd\\te\\r\\u0001ü");
    }

    #[test]
    fn empty_containers() {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.begin_array("xs");
        w.end_array();
        w.begin_object_field("o");
        w.end_object();
        w.end_object();
        assert_eq!(w.finish(), "{\n  \"xs\": [],\n  \"o\": {}\n}\n");
    }

    #[test]
    fn inline_rows_match_the_bench_layout() {
        // This pins the byte layout of the checked-in bench JSON
        // (pretty objects holding inline rows).
        let mut w = JsonWriter::new();
        w.begin_object();
        w.field_u64("resolution", 96);
        w.field_f64("sequential_secs", 1.5, 6);
        w.begin_array("thread_ladder");
        for (t, s, x) in [(1u64, 1.5f64, 1.0f64), (2, 0.8, 1.875)] {
            w.begin_inline_object();
            w.field_u64("threads", t);
            w.field_f64("secs", s, 6);
            w.field_f64("speedup", x, 4);
            w.end_object();
        }
        w.end_array();
        w.end_object();
        let expect = "{\n  \"resolution\": 96,\n  \"sequential_secs\": 1.500000,\n  \
                      \"thread_ladder\": [\n    \
                      {\"threads\": 1, \"secs\": 1.500000, \"speedup\": 1.0000},\n    \
                      {\"threads\": 2, \"secs\": 0.800000, \"speedup\": 1.8750}\n  ]\n}\n";
        assert_eq!(w.finish(), expect);
    }

    #[test]
    fn nested_pretty_objects_indent_per_level() {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.begin_object_field("mem");
        w.begin_object_field("l1");
        w.field_u64("hits", 10);
        w.end_object();
        w.end_object();
        w.end_object();
        assert_eq!(
            w.finish(),
            "{\n  \"mem\": {\n    \"l1\": {\n      \"hits\": 10\n    }\n  }\n}\n"
        );
    }

    #[test]
    fn inline_arrays_and_scalar_items() {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.begin_inline_array("cycles");
        w.item_u64(0);
        w.item_u64(500);
        w.end_array();
        w.begin_inline_array("rates");
        w.item_f64(0.25, 4);
        w.item_f64(f64::NAN, 4);
        w.end_array();
        w.begin_inline_array("names");
        w.item_str("a\"b");
        w.end_array();
        w.end_object();
        assert_eq!(
            w.finish(),
            "{\n  \"cycles\": [0, 500],\n  \"rates\": [0.2500, null],\n  \
             \"names\": [\"a\\\"b\"]\n}\n"
        );
    }

    #[test]
    fn raw_fields_embed_verbatim() {
        let mut inner = JsonWriter::new();
        inner.begin_object();
        inner.field_u64("cycles", 7);
        inner.end_object();
        let inner = inner.finish();

        let mut w = JsonWriter::new();
        w.begin_object();
        w.field_str("state", "done");
        w.field_raw("result", &inner);
        w.end_object();
        let doc = w.finish();
        let v = crate::validate::parse_json(&doc).unwrap();
        assert_eq!(
            v.get("result").and_then(|r| r.get("cycles")).unwrap(),
            &crate::validate::JsonValue::Number(7.0)
        );
    }

    #[test]
    fn non_finite_fields_become_null() {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.field_f64("x", f64::INFINITY, 3);
        w.end_object();
        assert_eq!(w.finish(), "{\n  \"x\": null\n}\n");
    }
}
