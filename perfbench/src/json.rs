//! A minimal JSON writer for the benchmark's two output lines.

/// A JSON value.
#[derive(Debug, Clone)]
pub enum J {
    /// A number, printed with every digit (shortest round-trip form).
    Num(f64),
    /// A whole number.
    Int(u64),
    /// A string.
    Str(String),
    /// A boolean.
    Bool(bool),
    /// An array.
    Arr(Vec<J>),
    /// An object, keys in insertion order.
    Obj(Vec<(String, J)>),
}

impl J {
    /// An object from `(key, value)` pairs.
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, J)>) -> J {
        J::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// A string value.
    pub fn str(s: impl Into<String>) -> J {
        J::Str(s.into())
    }

    /// Renders on one line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            J::Num(v) if v.is_finite() => out.push_str(&format!("{v}")),
            J::Num(_) => out.push_str("null"),
            J::Int(v) => out.push_str(&v.to_string()),
            J::Str(s) => write_str(s, out),
            J::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            J::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    item.write(out);
                }
                out.push(']');
            }
            J::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    write_str(k, out);
                    out.push_str(": ");
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

fn write_str(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
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
    fn renders_nested_values() {
        let v = J::obj([
            ("a", J::Num(1.25)),
            ("b", J::Arr(vec![J::Int(3), J::Bool(true)])),
            ("c", J::str("q\"x")),
            ("d", J::Num(f64::NAN)),
        ]);
        assert_eq!(
            v.render(),
            r#"{"a": 1.25, "b": [3, true], "c": "q\"x", "d": null}"#
        );
    }
}
