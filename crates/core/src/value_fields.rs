//! Field (de)serialization helpers used by generated classes.
//!
//! Every field type usable inside [`obi_class!`](crate::obi_class) implements
//! [`FieldValue`]: conversion to/from [`ObiValue`], the typed codec that
//! writes and reads the same bytes without building one, and enumeration of
//! the object references it contains.

use crate::objref::ObjRef;
use bytes::Bytes;
use obiwan_util::{ObiError, Result};
use obiwan_wire::{Decoder, Encoder, ObiValue};

/// A type that can live in an OBIWAN object field.
pub trait FieldValue: Sized {
    /// Converts the field into a wire value.
    fn to_value(&self) -> ObiValue;

    /// Restores the field from a wire value.
    ///
    /// # Errors
    ///
    /// [`ObiError::Decode`] when the value's shape does not match.
    fn from_value(v: &ObiValue) -> Result<Self>;

    /// Writes the field as a tagged value: exactly the bytes
    /// `enc.put_value(&self.to_value())` writes.
    ///
    /// The default does just that; every impl in this module writes
    /// directly instead.
    fn encode_into(&self, enc: &mut Encoder) {
        enc.put_value(&self.to_value());
    }

    /// Reads a field written by [`encode_into`](FieldValue::encode_into).
    ///
    /// The default reads the tagged value and converts it with
    /// [`from_value`](FieldValue::from_value); every impl in this module
    /// reads directly instead.
    ///
    /// # Errors
    ///
    /// [`ObiError::Decode`] on malformed input or a mismatched shape.
    fn decode_from(dec: &mut Decoder<'_>) -> Result<Self> {
        Self::from_value(&dec.take_value()?)
    }

    /// Appends every [`ObjRef`] contained in the field to `out`.
    fn collect_obj_refs(&self, out: &mut Vec<ObjRef>) {
        let _ = out;
    }
}

fn mismatch(expected: &str, got: &ObiValue) -> ObiError {
    ObiError::Decode(format!("expected {expected}, got {}", got.kind()))
}

impl FieldValue for bool {
    fn to_value(&self) -> ObiValue {
        ObiValue::Bool(*self)
    }

    fn from_value(v: &ObiValue) -> Result<Self> {
        v.as_bool().ok_or_else(|| mismatch("bool", v))
    }

    fn encode_into(&self, enc: &mut Encoder) {
        enc.put_bool_value(*self);
    }

    fn decode_from(dec: &mut Decoder<'_>) -> Result<Self> {
        dec.take_bool_value()
    }
}

impl FieldValue for i64 {
    fn to_value(&self) -> ObiValue {
        ObiValue::I64(*self)
    }

    fn from_value(v: &ObiValue) -> Result<Self> {
        v.as_i64().ok_or_else(|| mismatch("i64", v))
    }

    fn encode_into(&self, enc: &mut Encoder) {
        enc.put_i64_value(*self);
    }

    fn decode_from(dec: &mut Decoder<'_>) -> Result<Self> {
        dec.take_i64_value()
    }
}

impl FieldValue for u64 {
    fn to_value(&self) -> ObiValue {
        ObiValue::I64(*self as i64)
    }

    fn from_value(v: &ObiValue) -> Result<Self> {
        v.as_i64()
            .map(|x| x as u64)
            .ok_or_else(|| mismatch("i64", v))
    }

    fn encode_into(&self, enc: &mut Encoder) {
        enc.put_i64_value(*self as i64);
    }

    fn decode_from(dec: &mut Decoder<'_>) -> Result<Self> {
        dec.take_i64_value().map(|x| x as u64)
    }
}

impl FieldValue for f64 {
    fn to_value(&self) -> ObiValue {
        ObiValue::F64(*self)
    }

    fn from_value(v: &ObiValue) -> Result<Self> {
        v.as_f64().ok_or_else(|| mismatch("f64", v))
    }

    fn encode_into(&self, enc: &mut Encoder) {
        enc.put_f64_value(*self);
    }

    fn decode_from(dec: &mut Decoder<'_>) -> Result<Self> {
        dec.take_f64_value()
    }
}

impl FieldValue for String {
    fn to_value(&self) -> ObiValue {
        ObiValue::Str(self.clone())
    }

    fn from_value(v: &ObiValue) -> Result<Self> {
        v.as_str().map(str::to_owned).ok_or_else(|| mismatch("str", v))
    }

    fn encode_into(&self, enc: &mut Encoder) {
        enc.put_str_value(self);
    }

    fn decode_from(dec: &mut Decoder<'_>) -> Result<Self> {
        dec.take_str_value().map(str::to_owned)
    }
}

impl FieldValue for Bytes {
    fn to_value(&self) -> ObiValue {
        ObiValue::Bytes(self.clone())
    }

    fn from_value(v: &ObiValue) -> Result<Self> {
        v.as_bytes().cloned().ok_or_else(|| mismatch("bytes", v))
    }

    fn encode_into(&self, enc: &mut Encoder) {
        enc.put_bytes_value(self);
    }

    fn decode_from(dec: &mut Decoder<'_>) -> Result<Self> {
        dec.take_bytes_value().map(Bytes::copy_from_slice)
    }
}

impl FieldValue for ObjRef {
    fn to_value(&self) -> ObiValue {
        ObiValue::Ref(self.id())
    }

    fn from_value(v: &ObiValue) -> Result<Self> {
        v.as_ref_id().map(ObjRef::new).ok_or_else(|| mismatch("ref", v))
    }

    fn encode_into(&self, enc: &mut Encoder) {
        enc.put_ref_value(self.id());
    }

    fn decode_from(dec: &mut Decoder<'_>) -> Result<Self> {
        dec.take_ref_value().map(ObjRef::new)
    }

    fn collect_obj_refs(&self, out: &mut Vec<ObjRef>) {
        out.push(*self);
    }
}

impl<T: FieldValue> FieldValue for Option<T> {
    fn to_value(&self) -> ObiValue {
        match self {
            None => ObiValue::Null,
            Some(inner) => inner.to_value(),
        }
    }

    fn from_value(v: &ObiValue) -> Result<Self> {
        if v.is_null() {
            Ok(None)
        } else {
            T::from_value(v).map(Some)
        }
    }

    fn encode_into(&self, enc: &mut Encoder) {
        match self {
            None => enc.put_null(),
            Some(inner) => inner.encode_into(enc),
        }
    }

    fn decode_from(dec: &mut Decoder<'_>) -> Result<Self> {
        if dec.take_null() {
            Ok(None)
        } else {
            T::decode_from(dec).map(Some)
        }
    }

    fn collect_obj_refs(&self, out: &mut Vec<ObjRef>) {
        if let Some(inner) = self {
            inner.collect_obj_refs(out);
        }
    }
}

impl<T: FieldValue> FieldValue for Vec<T> {
    fn to_value(&self) -> ObiValue {
        ObiValue::List(self.iter().map(FieldValue::to_value).collect())
    }

    fn from_value(v: &ObiValue) -> Result<Self> {
        match v {
            ObiValue::List(items) => items.iter().map(T::from_value).collect(),
            other => Err(mismatch("list", other)),
        }
    }

    fn encode_into(&self, enc: &mut Encoder) {
        enc.put_list_header(self.len());
        for item in self {
            item.encode_into(enc);
        }
    }

    fn decode_from(dec: &mut Decoder<'_>) -> Result<Self> {
        let len = dec.take_list_header()?;
        let mut items = Vec::with_capacity(len.min(1024));
        for _ in 0..len {
            items.push(T::decode_from(dec)?);
        }
        Ok(items)
    }

    fn collect_obj_refs(&self, out: &mut Vec<ObjRef>) {
        for item in self {
            item.collect_obj_refs(out);
        }
    }
}

impl FieldValue for ObiValue {
    fn to_value(&self) -> ObiValue {
        self.clone()
    }

    fn from_value(v: &ObiValue) -> Result<Self> {
        Ok(v.clone())
    }

    fn encode_into(&self, enc: &mut Encoder) {
        enc.put_value(self);
    }

    fn decode_from(dec: &mut Decoder<'_>) -> Result<Self> {
        dec.take_value()
    }

    fn collect_obj_refs(&self, out: &mut Vec<ObjRef>) {
        let mut ids = Vec::new();
        self.collect_refs(&mut ids);
        out.extend(ids.into_iter().map(ObjRef::new));
    }
}

/// Extracts a named field from an encoded state map.
///
/// # Errors
///
/// [`ObiError::Decode`] when the key is missing or the shape mismatches.
pub fn field_from_map<T: FieldValue>(state: &ObiValue, key: &str) -> Result<T> {
    let v = state
        .get(key)
        .ok_or_else(|| ObiError::Decode(format!("missing field `{key}`")))?;
    T::from_value(v)
}

/// Reads the next entry of an encoded state map, which must be the field
/// `key` — the typed counterpart of [`field_from_map`]. The key is compared
/// in place, never allocated.
///
/// # Errors
///
/// [`ObiError::Decode`] when the entry has another key, or its value is
/// malformed or mis-shaped.
pub fn field_from_decoder<T: FieldValue>(dec: &mut Decoder<'_>, key: &str) -> Result<T> {
    let found = dec.take_str_ref()?;
    if found != key {
        return Err(ObiError::Decode(format!(
            "expected field `{key}`, got `{found}`"
        )));
    }
    T::decode_from(dec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use obiwan_util::{ObjId, SiteId};

    fn rref(l: u64) -> ObjRef {
        ObjRef::new(ObjId::new(SiteId::new(1), l))
    }

    fn roundtrip<T: FieldValue + PartialEq + std::fmt::Debug>(v: T) {
        let wire = v.to_value();
        assert_eq!(T::from_value(&wire).unwrap(), v);
    }

    #[test]
    fn scalars_roundtrip() {
        roundtrip(true);
        roundtrip(-42i64);
        roundtrip(42u64);
        roundtrip(2.5f64);
        roundtrip("hi".to_string());
        roundtrip(Bytes::from_static(b"abc"));
        roundtrip(rref(9));
    }

    #[test]
    fn options_and_vectors_roundtrip() {
        roundtrip(Option::<ObjRef>::None);
        roundtrip(Some(rref(3)));
        roundtrip(vec![1i64, 2, 3]);
        roundtrip(vec![rref(1), rref(2)]);
        roundtrip(Vec::<String>::new());
        roundtrip(Some(vec![Some(rref(1)), None]));
    }

    #[test]
    fn ref_collection_covers_nesting() {
        let field = vec![Some(rref(1)), None, Some(rref(2))];
        let mut out = Vec::new();
        field.collect_obj_refs(&mut out);
        assert_eq!(out, vec![rref(1), rref(2)]);

        let raw = ObiValue::List(vec![ObiValue::Ref(rref(5).id())]);
        let mut out = Vec::new();
        raw.collect_obj_refs(&mut out);
        assert_eq!(out, vec![rref(5)]);

        let mut out = Vec::new();
        7i64.collect_obj_refs(&mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn shape_mismatch_is_a_decode_error() {
        assert!(i64::from_value(&ObiValue::Str("x".into())).is_err());
        assert!(String::from_value(&ObiValue::I64(1)).is_err());
        assert!(Vec::<i64>::from_value(&ObiValue::I64(1)).is_err());
        assert!(ObjRef::from_value(&ObiValue::Null).is_err());
        // But Option accepts Null.
        assert_eq!(Option::<ObjRef>::from_value(&ObiValue::Null).unwrap(), None);
    }

    #[test]
    fn field_from_map_reads_named_fields() {
        let state = ObiValue::Map(vec![
            ("a".into(), ObiValue::I64(1)),
            ("b".into(), ObiValue::Str("x".into())),
        ]);
        assert_eq!(field_from_map::<i64>(&state, "a").unwrap(), 1);
        assert_eq!(field_from_map::<String>(&state, "b").unwrap(), "x");
        assert!(field_from_map::<i64>(&state, "missing").is_err());
        assert!(field_from_map::<i64>(&state, "b").is_err());
    }
}
