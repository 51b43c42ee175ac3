//! Field readers over a parsed JSON tree, shared by the `PIMTEL01`
//! decoder here and the `PIMPROF01` decoder in `pim-profile`. Each
//! reader names what it found missing or mistyped in a [`FieldError`];
//! each format's error type wraps that message.

use serde_json::{Map, Value};
use std::collections::BTreeMap;
use std::fmt;

/// A JSON tree lacking the shape a reader asked for.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FieldError(pub String);

impl fmt::Display for FieldError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for FieldError {}

fn err<T>(msg: String) -> Result<T, FieldError> {
    Err(FieldError(msg))
}

/// `v` as an object; `what` names it in the error.
pub fn as_object<'a>(v: &'a Value, what: &str) -> Result<&'a Map, FieldError> {
    match v {
        Value::Object(m) => Ok(m),
        _ => err(format!("`{what}` is not an object")),
    }
}

/// `v` as an array; `what` names it in the error.
pub fn as_array<'a>(v: &'a Value, what: &str) -> Result<&'a [Value], FieldError> {
    match v {
        Value::Array(items) => Ok(items),
        _ => err(format!("`{what}` is not an array")),
    }
}

/// The member `name`, which must be present.
pub fn field<'a>(m: &'a Map, name: &str) -> Result<&'a Value, FieldError> {
    m.get(name)
        .ok_or_else(|| FieldError(format!("missing `{name}`")))
}

/// The string member `name`.
pub fn str_field<'a>(m: &'a Map, name: &str) -> Result<&'a str, FieldError> {
    m.get(name)
        .and_then(Value::as_str)
        .ok_or_else(|| FieldError(format!("missing string field `{name}`")))
}

/// The number member `name`.
pub fn f64_field(m: &Map, name: &str) -> Result<f64, FieldError> {
    m.get(name)
        .and_then(Value::as_f64)
        .ok_or_else(|| FieldError(format!("missing number field `{name}`")))
}

/// The non-negative integer member `name`.
pub fn u64_field(m: &Map, name: &str) -> Result<u64, FieldError> {
    m.get(name)
        .and_then(Value::as_u64)
        .ok_or_else(|| FieldError(format!("missing integer field `{name}`")))
}

/// The integer member `name`, which must fit in a `u32`.
pub fn u32_field(m: &Map, name: &str) -> Result<u32, FieldError> {
    let v = u64_field(m, name)?;
    u32::try_from(v).or_else(|_| err(format!("`{name}` {v} does not fit in 32 bits")))
}

/// The integer member `name` when present; a present member that is
/// not a non-negative integer is an error, not an absence.
pub fn opt_u64_field(m: &Map, name: &str) -> Result<Option<u64>, FieldError> {
    match m.get(name) {
        None => Ok(None),
        Some(v) => match v.as_u64() {
            Some(n) => Ok(Some(n)),
            None => err(format!("`{name}` is not an integer")),
        },
    }
}

/// The member `name` as a bool, or `None` for `null`; it must be
/// present.
pub fn opt_bool_field(m: &Map, name: &str) -> Result<Option<bool>, FieldError> {
    match m.get(name) {
        Some(Value::Bool(b)) => Ok(Some(*b)),
        Some(Value::Null) => Ok(None),
        _ => err(format!("`{name}` must be bool or null")),
    }
}

/// The member `name` as an object, or `None` when it is `null` or
/// absent.
pub fn opt_object_field<'a>(m: &'a Map, name: &str) -> Result<Option<&'a Map>, FieldError> {
    match m.get(name) {
        Some(Value::Object(x)) => Ok(Some(x)),
        Some(Value::Null) | None => Ok(None),
        _ => err(format!("`{name}` must be object or null")),
    }
}

/// The array member `name`, every element a non-negative integer.
pub fn u64_array(m: &Map, name: &str) -> Result<Vec<u64>, FieldError> {
    let Some(Value::Array(items)) = m.get(name) else {
        return err(format!("missing array field `{name}`"));
    };
    items
        .iter()
        .map(|v| {
            v.as_u64()
                .ok_or_else(|| FieldError(format!("`{name}` holds a non-integer")))
        })
        .collect()
}

/// Checks the envelope's `format` member against `tag`.
pub fn format_tag(root: &Map, tag: &str) -> Result<(), FieldError> {
    match root.get("format") {
        Some(Value::Str(t)) if t == tag => Ok(()),
        Some(Value::Str(t)) => err(format!("format tag `{t}`, expected `{tag}`")),
        _ => err("missing `format` tag".to_string()),
    }
}

/// The object member `name` as a string-to-string map (the envelopes'
/// `meta` labels).
pub fn string_map(m: &Map, name: &str) -> Result<BTreeMap<String, String>, FieldError> {
    as_object(field(m, name)?, name)?
        .iter()
        .map(|(k, v)| match v.as_str() {
            Some(s) => Ok((k.to_string(), s.to_string())),
            None => err(format!("{name} `{k}` is not a string")),
        })
        .collect()
}
