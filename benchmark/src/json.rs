//! Hand-rolled JSON emit (no parser, no dependency).
use std::fmt;

/// A JSON value to print. `Num` prints a non-finite value as `null`;
/// `Obj` keeps its keys in order (`J::obj` builds one from pairs).
pub enum J {
    Num(f64),
    Int(u64),
    Str(String),
    Bool(bool),
    Arr(Vec<J>),
    Obj(Vec<(String, J)>),
}

impl J {
    pub fn obj<K: Into<String>>(pairs: Vec<(K, J)>) -> J {
        J::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }
}

fn esc(s: &str, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    f.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    f.write_str("\"")
}

impl fmt::Display for J {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            J::Num(v) if v.is_finite() => write!(f, "{v}"),
            J::Num(_) => f.write_str("null"),
            J::Int(v) => write!(f, "{v}"),
            J::Str(s) => esc(s, f),
            J::Bool(b) => write!(f, "{b}"),
            J::Arr(a) => {
                f.write_str("[")?;
                for (i, v) in a.iter().enumerate() {
                    write!(f, "{}{v}", if i > 0 { ", " } else { "" })?;
                }
                f.write_str("]")
            }
            J::Obj(o) => {
                f.write_str("{")?;
                for (i, (k, v)) in o.iter().enumerate() {
                    f.write_str(if i > 0 { ", " } else { "" })?;
                    esc(k, f)?;
                    write!(f, ": {v}")?;
                }
                f.write_str("}")
            }
        }
    }
}
