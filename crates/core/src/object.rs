//! The object model: the [`ObiObject`] trait and the class registry.
//!
//! The original system used Java reflection plus the `obicomp` source
//! augmenter to make arbitrary classes replicable. In Rust, a class opts in
//! by implementing [`ObiObject`] — usually via the
//! [`obi_class!`](crate::obi_class) macro, which generates the entire impl
//! from a field/method declaration (the macro *is* our `obicomp`).

use crate::objref::ObjRef;
use crate::process::InvokeCtx;
use bytes::Bytes;
use obiwan_util::{ObiError, Result};
use obiwan_wire::{Encoder, ObiValue};
use obiwan_util::sync::RwLock;
use std::cell::Cell;
use std::collections::HashMap;
use std::sync::Arc;

/// A replicable, dynamically invocable OBIWAN object.
///
/// The contract mirrors what `obicomp` generated for Java classes:
///
/// * [`encode_state`](ObiObject::encode_state) / a registered decode
///   function — the serialization pair (Java serialization's role), with
///   [`state`](ObiObject::state) as the generic, tree-shaped view of the
///   same fields;
/// * [`refs`](ObiObject::refs) — the out-edges, which drive incremental
///   graph replication;
/// * [`invoke`](ObiObject::invoke) — dynamic dispatch, because objects may
///   only be manipulated through methods (paper §2.1: proxies share the
///   interface but not the implementation, so no direct field access).
pub trait ObiObject: Send + Sync {
    /// The class name, resolved against a [`ClassRegistry`] on the
    /// receiving site.
    fn class_name(&self) -> &'static str;

    /// A serializable snapshot of the object's fields.
    fn state(&self) -> ObiValue;

    /// Every object reference held in this object's fields, in field order.
    fn refs(&self) -> Vec<ObjRef>;

    /// Dynamically dispatches `method`.
    ///
    /// # Errors
    ///
    /// Implementations return [`ObiError::NoSuchMethod`] for unknown method
    /// names and [`ObiError::BadArguments`] for argument mismatches.
    fn invoke(
        &mut self,
        ctx: &mut InvokeCtx<'_>,
        method: &str,
        args: &ObiValue,
    ) -> Result<ObiValue>;

    /// Appends the serialized state to `enc`. The bytes must equal
    /// `enc.put_value(&self.state())`: the wire, WAL records and put-intent
    /// fingerprints all depend on it.
    ///
    /// The default does exactly that; [`obi_class!`](crate::obi_class)
    /// generates a direct encoder that builds no [`ObiValue`].
    fn encode_state(&self, enc: &mut Encoder) {
        enc.put_value(&self.state());
    }

    /// Size in bytes of the serialized state; used for cost accounting.
    fn payload_size(&self) -> usize {
        with_encoded_state(self, <[u8]>::len)
    }
}

/// Objects whose state encodes larger than this do not leave their buffer
/// behind as the thread's scratch encoder.
const SCRATCH_KEEP_BYTES: usize = 64 * 1024;

thread_local! {
    static SCRATCH: Cell<Encoder> = Cell::new(Encoder::new());
}

/// Runs `f` over `object`'s serialized state, encoded into this thread's
/// reusable scratch encoder — the one place replica state is serialized.
fn with_encoded_state<O, R>(object: &O, f: impl FnOnce(&[u8]) -> R) -> R
where
    O: ObiObject + ?Sized,
{
    SCRATCH.with(|cell| {
        // Taking the encoder out (not borrowing it) keeps a nested call —
        // an `encode_state` that serializes another object — safe: it
        // just gets a fresh encoder.
        let mut enc = cell.take();
        enc.clear();
        object.encode_state(&mut enc);
        let out = f(enc.as_slice());
        if enc.len() <= SCRATCH_KEEP_BYTES {
            cell.set(enc);
        }
        out
    })
}

/// `object`'s serialized state, copied out of the scratch encoder at exact
/// size.
pub fn encode_state(object: &dyn ObiObject) -> Bytes {
    with_encoded_state(object, Bytes::copy_from_slice)
}

/// A function materializing an object from its serialized state.
pub type DecodeFn = Arc<dyn Fn(&[u8]) -> Result<Box<dyn ObiObject>> + Send + Sync>;

/// Maps class names to decode functions — each site's "classpath".
///
/// A replica batch can only be materialized on a site whose registry knows
/// every class in the batch; unknown classes yield
/// [`ObiError::Decode`].
///
/// # Examples
///
/// ```
/// use obiwan_core::{ClassRegistry, demo::LinkedItem};
///
/// let registry = ClassRegistry::new();
/// LinkedItem::register(&registry);
/// assert!(registry.knows("LinkedItem"));
/// ```
#[derive(Clone, Default)]
pub struct ClassRegistry {
    classes: Arc<RwLock<HashMap<&'static str, DecodeFn>>>,
}

impl std::fmt::Debug for ClassRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut names: Vec<&str> = self.classes.read().keys().copied().collect();
        names.sort_unstable();
        f.debug_tuple("ClassRegistry").field(&names).finish()
    }
}

impl ClassRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        ClassRegistry::default()
    }

    /// Registers (or replaces) a class decoder.
    pub fn register(&self, class: &'static str, decode: DecodeFn) {
        self.classes.write().insert(class, decode);
    }

    /// True when `class` can be decoded.
    pub fn knows(&self, class: &str) -> bool {
        self.classes.read().contains_key(class)
    }

    /// Materializes an object of `class` from its serialized `state` — the
    /// one decode entry for replica state.
    ///
    /// # Errors
    ///
    /// [`ObiError::Decode`] when the class is unknown or the state does not
    /// match the class's fields.
    pub fn decode(&self, class: &str, state: &[u8]) -> Result<Box<dyn ObiObject>> {
        let decode = self
            .classes
            .read()
            .get(class)
            .cloned()
            .ok_or_else(|| ObiError::Decode(format!("unknown class `{class}`")))?;
        decode(state)
    }

    /// Number of registered classes.
    pub fn len(&self) -> usize {
        self.classes.read().len()
    }

    /// True when no classes are registered.
    pub fn is_empty(&self) -> bool {
        self.classes.read().is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::demo::{Counter, LinkedItem};

    #[test]
    fn registry_registers_and_decodes() {
        let reg = ClassRegistry::new();
        assert!(reg.is_empty());
        LinkedItem::register(&reg);
        Counter::register(&reg);
        assert_eq!(reg.len(), 2);
        assert!(reg.knows("LinkedItem"));
        assert!(!reg.knows("Nope"));

        let item = LinkedItem::new(7, "x");
        let decoded = reg.decode("LinkedItem", &encode_state(&item)).unwrap();
        assert_eq!(decoded.class_name(), "LinkedItem");
        assert_eq!(decoded.state(), item.state());
    }

    #[test]
    fn unknown_class_is_a_decode_error() {
        let reg = ClassRegistry::new();
        let err = match reg.decode("Ghost", &[0]) {
            Err(e) => e,
            Ok(_) => panic!("decoded an unknown class"),
        };
        assert!(matches!(err, ObiError::Decode(_)));
    }

    #[test]
    fn payload_size_tracks_state_size() {
        let small = LinkedItem::new(1, "a");
        let large = LinkedItem::new(1, "a".repeat(1000));
        assert!(large.payload_size() > small.payload_size() + 900);
    }

    #[test]
    fn registry_clones_share_registrations() {
        let reg = ClassRegistry::new();
        let reg2 = reg.clone();
        LinkedItem::register(&reg2);
        assert!(reg.knows("LinkedItem"));
    }
}
