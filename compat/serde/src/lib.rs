//! Offline drop-in subset of `serde`.
//!
//! The growth container has no network access to crates.io, so this crate
//! provides the small slice of serde's surface the workspace actually uses:
//! `Serialize`/`Deserialize` traits (routed through an owned [`Value`] tree
//! rather than serde's zero-copy visitor machinery) plus derive macros that
//! understand `#[serde(default)]`, `#[serde(skip)]` and
//! `#[serde(from = "T", into = "T")]`. The JSON data model and field
//! ordering match what `serde_json` emits for the same types: struct fields
//! in declaration order, externally-tagged enums, newtype structs as their
//! inner value.

pub use serde_derive::{Deserialize, Serialize};

/// An owned JSON-like value tree — the intermediate representation between
/// typed data and text.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    /// Negative integers.
    Int(i64),
    /// Non-negative integers (kept apart from `Float` so 64-bit ids and
    /// seeds round-trip exactly).
    UInt(u64),
    Float(f64),
    Str(String),
    Arr(Vec<Value>),
    /// Key–value pairs in insertion (= struct declaration) order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    pub fn as_obj(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Obj(o) => Some(o),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(a) => Some(a),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// Look up a key in an object's pair list (linear scan; objects here are
/// struct-sized).
pub fn find<'a>(obj: &'a [(String, Value)], key: &str) -> Option<&'a Value> {
    obj.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

/// Deserialization error: a human-readable path/expectation message.
#[derive(Debug, Clone)]
pub struct DeError(pub String);

impl DeError {
    pub fn new(msg: impl Into<String>) -> Self {
        DeError(msg.into())
    }
}

impl std::fmt::Display for DeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for DeError {}

/// Types that can render themselves into a [`Value`] tree.
pub trait Serialize {
    fn to_value(&self) -> Value;
}

/// Types that can be rebuilt from a [`Value`] tree.
pub trait Deserialize: Sized {
    fn from_value(v: &Value) -> Result<Self, DeError>;
}

// ---------------------------------------------------------------------------
// Primitive impls
// ---------------------------------------------------------------------------

// Identity impls: a `Value` serializes to itself, so dynamically-shaped
// documents (benchmark reports, baselines) can round-trip through
// `serde_json::{to_string, from_str}` without a typed schema.
impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }
}

impl Deserialize for Value {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        Ok(v.clone())
    }
}

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Deserialize for bool {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Bool(b) => Ok(*b),
            _ => Err(DeError::new("expected bool")),
        }
    }
}

macro_rules! uint_impl {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::UInt(*self as u64)
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, DeError> {
                let u = match v {
                    Value::UInt(u) => *u,
                    Value::Int(i) if *i >= 0 => *i as u64,
                    _ => return Err(DeError::new(concat!("expected ", stringify!($t)))),
                };
                <$t>::try_from(u).map_err(|_| DeError::new(concat!(stringify!($t), " out of range")))
            }
        }
    )*};
}
uint_impl!(u8, u16, u32, u64, usize);

macro_rules! int_impl {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                let i = *self as i64;
                if i < 0 { Value::Int(i) } else { Value::UInt(i as u64) }
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, DeError> {
                let i = match v {
                    Value::Int(i) => *i,
                    Value::UInt(u) => i64::try_from(*u)
                        .map_err(|_| DeError::new("integer out of i64 range"))?,
                    _ => return Err(DeError::new(concat!("expected ", stringify!($t)))),
                };
                <$t>::try_from(i).map_err(|_| DeError::new(concat!(stringify!($t), " out of range")))
            }
        }
    )*};
}
int_impl!(i8, i16, i32, i64, isize);

macro_rules! float_impl {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::Float(*self as f64)
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, DeError> {
                match v {
                    Value::Float(f) => Ok(*f as $t),
                    Value::UInt(u) => Ok(*u as $t),
                    Value::Int(i) => Ok(*i as $t),
                    _ => Err(DeError::new(concat!("expected ", stringify!($t)))),
                }
            }
        }
    )*};
}
float_impl!(f32, f64);

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl Deserialize for String {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Str(s) => Ok(s.clone()),
            _ => Err(DeError::new("expected string")),
        }
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

// ---------------------------------------------------------------------------
// Container impls
// ---------------------------------------------------------------------------

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Arr(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        v.as_arr()
            .ok_or_else(|| DeError::new("expected array"))?
            .iter()
            .map(T::from_value)
            .collect()
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(t) => t.to_value(),
            None => Value::Null,
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Null => Ok(None),
            other => T::from_value(other).map(Some),
        }
    }
}

impl<T: Serialize + ?Sized> Serialize for Box<T> {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Serialize + ?Sized> Serialize for std::sync::Arc<T> {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Deserialize> Deserialize for Box<T> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        T::from_value(v).map(Box::new)
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<A: Serialize, B: Serialize> Serialize for (A, B) {
    fn to_value(&self) -> Value {
        Value::Arr(vec![self.0.to_value(), self.1.to_value()])
    }
}

impl<A: Deserialize, B: Deserialize> Deserialize for (A, B) {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let a = v.as_arr().ok_or_else(|| DeError::new("expected 2-tuple"))?;
        if a.len() != 2 {
            return Err(DeError::new("expected 2-tuple"));
        }
        Ok((A::from_value(&a[0])?, B::from_value(&a[1])?))
    }
}

impl<A: Serialize, B: Serialize, C: Serialize> Serialize for (A, B, C) {
    fn to_value(&self) -> Value {
        Value::Arr(vec![
            self.0.to_value(),
            self.1.to_value(),
            self.2.to_value(),
        ])
    }
}

impl<A: Deserialize, B: Deserialize, C: Deserialize> Deserialize for (A, B, C) {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let a = v.as_arr().ok_or_else(|| DeError::new("expected 3-tuple"))?;
        if a.len() != 3 {
            return Err(DeError::new("expected 3-tuple"));
        }
        Ok((
            A::from_value(&a[0])?,
            B::from_value(&a[1])?,
            C::from_value(&a[2])?,
        ))
    }
}

impl<V: Serialize> Serialize for std::collections::BTreeMap<String, V> {
    fn to_value(&self) -> Value {
        Value::Obj(
            self.iter()
                .map(|(k, v)| (k.clone(), v.to_value()))
                .collect(),
        )
    }
}

impl<V: Deserialize> Deserialize for std::collections::BTreeMap<String, V> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        v.as_obj()
            .ok_or_else(|| DeError::new("expected object (map)"))?
            .iter()
            .map(|(k, val)| Ok((k.clone(), V::from_value(val)?)))
            .collect()
    }
}
