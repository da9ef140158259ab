//! The `obi_class!` macro — our `obicomp`.
//!
//! The original OBIWAN shipped a compiler that augmented programmer-written
//! Java classes with the replication interfaces and generated the proxy
//! classes. Rust has no reflection, so the augmentation happens at macro
//! expansion time instead: the programmer declares fields and methods, and
//! the macro generates the struct, constructors, the full
//! [`ObiObject`](crate::ObiObject) implementation (a typed state codec,
//! out-edge enumeration, dynamic dispatch) and a registry hook.
//!
//! ```
//! use obiwan_core::{obi_class, ObjRef, ObiValue, ClassRegistry};
//!
//! obi_class! {
//!     /// A minimal replicable pair.
//!     pub class Pair {
//!         fields {
//!             left: i64,
//!             right: i64,
//!         }
//!         methods {
//!             fn sum(this, _ctx, _args) {
//!                 Ok(ObiValue::I64(this.left + this.right))
//!             }
//!         }
//!         mutating {
//!             fn set_left(this, _ctx, args) {
//!                 this.left = args.as_i64().ok_or_else(|| {
//!                     obiwan_core::ObiError::BadArguments("expected i64".into())
//!                 })?;
//!                 Ok(ObiValue::Null)
//!             }
//!         }
//!     }
//! }
//!
//! let registry = ClassRegistry::new();
//! Pair::register(&registry);
//! assert!(registry.knows("Pair"));
//! ```
//!
//! # The typed state codec
//!
//! Like obicomp's generated serializers, the macro emits per-class codec
//! code. [`ObiObject::encode_state`](crate::ObiObject::encode_state) writes
//! the state map header and then each field's name and tagged value, in
//! declaration order, straight into the [`Encoder`](crate::Encoder);
//! [`DecodableObject::decode_canonical`](crate::DecodableObject::decode_canonical)
//! reads that layout straight back, comparing keys in place. Neither builds
//! an [`ObiValue`](crate::ObiValue) tree.
//!
//! The generic path — [`ObiObject::state`](crate::ObiObject::state) plus
//! [`DecodableObject::decode_state`](crate::DecodableObject::decode_state) —
//! remains only as the fallback: on any non-canonical input (fields
//! reordered, extra, missing or oddly tagged) the registry's one decode
//! entry, [`DecodableObject::decode_bytes`](crate::DecodableObject::decode_bytes),
//! hands the bytes to it, so the outcome is always the generic one.
//!
//! The invariant: `encode_state` bytes equal `put_value(&state())` bytes.
//! Wire frames, WAL records and the state fingerprints that tie a put
//! intent to its state all rely on it.
//!
//! Method bodies receive three names chosen by the caller: the object
//! (`this` above), the [`InvokeCtx`](crate::InvokeCtx), and the argument
//! [`ObiValue`](crate::ObiValue). Methods in the `mutating` block
//! automatically call [`InvokeCtx::mark_modified`](crate::InvokeCtx::mark_modified)
//! before running, which is what bumps master versions and dirties replicas.

/// Declares a replicable OBIWAN class. See the [module docs](self) for the
/// grammar and an example.
#[macro_export]
macro_rules! obi_class {
    (
        $(#[$meta:meta])*
        pub class $name:ident {
            fields { $( $(#[$fmeta:meta])* $fname:ident : $fty:ty ),* $(,)? }
            $(methods { $( $(#[$mmeta:meta])* fn $mname:ident($mself:ident, $mctx:ident, $margs:ident) $mbody:block )* })?
            $(mutating { $( $(#[$umeta:meta])* fn $uname:ident($uself:ident, $uctx:ident, $uargs:ident) $ubody:block )* })?
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, PartialEq)]
        pub struct $name {
            $( $(#[$fmeta])* pub $fname : $fty, )*
        }

        impl $name {
            /// The class name used in registries and on the wire.
            pub const CLASS: &'static str = stringify!($name);

            /// Constructs an instance from all fields, in declaration order.
            #[allow(clippy::too_many_arguments)]
            pub fn from_fields($( $fname : $fty ),*) -> Self {
                Self { $( $fname ),* }
            }

            /// Registers this class's decoder with `registry` so replicas
            /// can be materialized on this site.
            pub fn register(registry: &$crate::ClassRegistry) {
                registry.register(
                    Self::CLASS,
                    ::std::sync::Arc::new(|state| {
                        let decoded =
                            <$name as $crate::DecodableObject>::decode_bytes(state)?;
                        Ok(Box::new(decoded) as Box<dyn $crate::ObiObject>)
                    }),
                );
            }
        }

        impl $crate::DecodableObject for $name {
            fn decode_state(state: &$crate::ObiValue) -> $crate::Result<Self> {
                Ok(Self {
                    $(
                        $fname: $crate::value_fields::field_from_map::<$fty>(
                            state,
                            stringify!($fname),
                        )?,
                    )*
                })
            }

            fn decode_canonical(dec: &mut $crate::Decoder<'_>) -> $crate::Result<Self> {
                const FIELDS: &[&str] = &[$( stringify!($fname) ),*];
                let len = dec.take_map_header()?;
                if len != FIELDS.len() {
                    return Err($crate::ObiError::Decode(format!(
                        "expected {} fields, got {len}",
                        FIELDS.len()
                    )));
                }
                // Struct-literal fields evaluate in the order written, which
                // is declaration order — the order `encode_state` wrote.
                Ok(Self {
                    $(
                        $fname: $crate::value_fields::field_from_decoder::<$fty>(
                            dec,
                            stringify!($fname),
                        )?,
                    )*
                })
            }
        }

        impl $crate::ObiObject for $name {
            fn class_name(&self) -> &'static str {
                Self::CLASS
            }

            fn state(&self) -> $crate::ObiValue {
                $crate::ObiValue::Map(vec![
                    $(
                        (
                            stringify!($fname).to_owned(),
                            $crate::value_fields::FieldValue::to_value(&self.$fname),
                        ),
                    )*
                ])
            }

            fn encode_state(&self, enc: &mut $crate::Encoder) {
                enc.put_map_header(<[&str]>::len(&[$( stringify!($fname) ),*]));
                $(
                    enc.put_str(stringify!($fname));
                    $crate::value_fields::FieldValue::encode_into(&self.$fname, enc);
                )*
            }

            fn refs(&self) -> Vec<$crate::ObjRef> {
                #[allow(unused_mut)]
                let mut out = Vec::new();
                $(
                    $crate::value_fields::FieldValue::collect_obj_refs(
                        &self.$fname,
                        &mut out,
                    );
                )*
                out
            }

            fn invoke(
                &mut self,
                ctx: &mut $crate::InvokeCtx<'_>,
                method: &str,
                args: &$crate::ObiValue,
            ) -> $crate::Result<$crate::ObiValue> {
                match method {
                    $($(
                        stringify!($mname) => {
                            #[allow(unused_variables)]
                            let $mself = &mut *self;
                            #[allow(unused_variables)]
                            let $mctx = &mut *ctx;
                            #[allow(unused_variables)]
                            let $margs = args;
                            $mbody
                        }
                    )*)?
                    $($(
                        stringify!($uname) => {
                            ctx.mark_modified();
                            #[allow(unused_variables)]
                            let $uself = &mut *self;
                            #[allow(unused_variables)]
                            let $uctx = &mut *ctx;
                            #[allow(unused_variables)]
                            let $uargs = args;
                            $ubody
                        }
                    )*)?
                    other => Err($crate::ObiError::NoSuchMethod {
                        object: ctx.self_id(),
                        method: other.to_owned(),
                    }),
                }
            }
        }
    };
}
