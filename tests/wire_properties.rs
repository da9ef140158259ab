//! Property-based tests of the wire format: arbitrary values and messages
//! round-trip exactly, the decoder never panics on arbitrary bytes, and the
//! typed replica-state codec `obi_class!` generates is byte-identical to the
//! generic `ObiValue` path and decodes exactly as it does.

use bytes::Bytes;
use obiwan::core::demo::{Counter, Document, LinkedItem, PayloadNode, TreeNode};
use obiwan::core::object::encode_state;
use obiwan::core::{ClassRegistry, DecodableObject, ObiObject, ObjRef};
use obiwan::util::{ObiError, ObjId, RequestId, SiteId};
use obiwan::wire::{Decoder, Encoder, FrontierEdge, Message, ObiValue, ReplicaBatch, ReplicaState, WireMode};
use proptest::prelude::*;

fn arb_obj_id() -> impl Strategy<Value = ObjId> {
    (0u32..1000, 0u64..100_000).prop_map(|(s, l)| ObjId::new(SiteId::new(s), l))
}

fn arb_value() -> impl Strategy<Value = ObiValue> {
    let leaf = prop_oneof![
        Just(ObiValue::Null),
        any::<bool>().prop_map(ObiValue::Bool),
        any::<i64>().prop_map(ObiValue::I64),
        // NaN breaks PartialEq-based comparison; use finite floats.
        (-1e300f64..1e300).prop_map(ObiValue::F64),
        ".{0,40}".prop_map(ObiValue::Str),
        proptest::collection::vec(any::<u8>(), 0..100)
            .prop_map(|v| ObiValue::Bytes(Bytes::from(v))),
        arb_obj_id().prop_map(ObiValue::Ref),
    ];
    leaf.prop_recursive(3, 64, 8, |inner| {
        prop_oneof![
            proptest::collection::vec(inner.clone(), 0..8).prop_map(ObiValue::List),
            proptest::collection::vec(("[a-z]{1,8}", inner), 0..8)
                .prop_map(ObiValue::Map),
        ]
    })
}

fn arb_replica_state() -> impl Strategy<Value = ReplicaState> {
    (
        arb_obj_id(),
        "[A-Za-z]{1,16}",
        any::<u64>(),
        proptest::collection::vec(any::<u8>(), 0..200),
    )
        .prop_map(|(id, class, version, state)| ReplicaState {
            id,
            class,
            version,
            state: Bytes::from(state),
        })
}

fn arb_mode() -> impl Strategy<Value = WireMode> {
    prop_oneof![
        (1u32..10_000).prop_map(|batch| WireMode::Incremental { batch }),
        (1u32..10_000).prop_map(|size| WireMode::Cluster { size }),
        Just(WireMode::Transitive),
    ]
}

fn arb_request_id() -> impl Strategy<Value = RequestId> {
    (0u32..100, any::<u64>()).prop_map(|(s, q)| RequestId::new(SiteId::new(s), q))
}

fn arb_message() -> impl Strategy<Value = Message> {
    prop_oneof![
        (arb_request_id(), arb_obj_id(), "[a-z_]{1,12}", arb_value()).prop_map(
            |(request, target, method, args)| Message::InvokeRequest {
                request,
                target,
                method,
                args
            }
        ),
        (arb_request_id(), arb_value())
            .prop_map(|(request, v)| Message::InvokeReply { request, result: Ok(v) }),
        (
            arb_request_id(),
            proptest::collection::vec(arb_obj_id(), 0..8),
            arb_mode(),
            0u32..64,
            0u32..16,
        )
            .prop_map(|(request, targets, mode, chunk, resume_from)| {
                Message::GetRequest {
                    request,
                    targets,
                    mode,
                    chunk,
                    resume_from,
                }
            }),
        (arb_request_id(), proptest::collection::vec(arb_replica_state(), 0..5))
            .prop_map(|(request, entries)| Message::PutRequest { request, entries }),
        (
            arb_request_id(),
            0u32..16,
            0u32..16,
            arb_obj_id(),
            proptest::collection::vec(arb_replica_state(), 0..5),
            proptest::collection::vec((arb_obj_id(), "[A-Z][a-z]{0,10}"), 0..5),
        )
            .prop_map(|(request, chunk_index, total, root, replicas, frontier)| {
                Message::GetChunk {
                    request,
                    chunk_index,
                    total,
                    result: Ok(ReplicaBatch {
                        root,
                        replicas,
                        frontier: frontier
                            .into_iter()
                            .map(|(target, class)| FrontierEdge { target, class })
                            .collect(),
                        cluster: None,
                    }),
                }
            }),
        (arb_request_id(), arb_obj_id()).prop_map(|(request, missing)| Message::GetChunk {
            request,
            chunk_index: 0,
            total: 0,
            result: Err(ObiError::NoSuchObject(missing)),
        }),
        proptest::collection::vec(arb_obj_id(), 0..10)
            .prop_map(|objects| Message::Invalidate { objects }),
        arb_request_id().prop_map(|request| Message::Ping { request }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn values_roundtrip(v in arb_value()) {
        let mut enc = Encoder::new();
        enc.put_value(&v);
        let bytes = enc.finish();
        let mut dec = Decoder::new(&bytes);
        let back = dec.take_value().unwrap();
        prop_assert!(dec.is_exhausted());
        prop_assert_eq!(back, v);
    }

    #[test]
    fn messages_roundtrip(m in arb_message()) {
        let frame = m.encode();
        let back = Message::decode(&frame).unwrap();
        prop_assert_eq!(back, m);
    }

    #[test]
    fn decoder_never_panics_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..300)) {
        // Whatever happens, it must be Ok or Err — never a panic.
        let _ = Message::decode(&bytes);
        let _ = Decoder::new(&bytes).take_value();
        let _ = Decoder::new(&bytes).take_error();
        let _ = Decoder::new(&bytes).take_str();
    }

    #[test]
    fn random_tag_and_payload_fail_only_with_decode_errors(
        tag in any::<u8>(),
        payload in proptest::collection::vec(any::<u8>(), 0..300),
    ) {
        // Every `unknown … tag` path in message.rs, plus every take_* length
        // check behind a *valid* tag, must surface as ObiError::Decode — any
        // panic or any other error variant means a malformed frame can take
        // down (or confuse) a server.
        let mut frame = Vec::with_capacity(payload.len() + 1);
        frame.push(tag);
        frame.extend_from_slice(&payload);
        if let Err(e) = Message::decode(&frame) {
            prop_assert!(
                matches!(e, ObiError::Decode(_)),
                "malformed frame yielded non-Decode error: {e:?}"
            );
        }
    }

    #[test]
    fn truncated_valid_messages_never_decode(m in arb_message(), cut_frac in 0.0f64..1.0) {
        let frame = m.encode();
        let cut = ((frame.len() as f64) * cut_frac) as usize;
        if cut < frame.len() {
            prop_assert!(Message::decode(&frame[..cut]).is_err());
        }
    }

    #[test]
    fn varints_roundtrip(v in any::<u64>()) {
        let mut enc = Encoder::new();
        enc.put_varint(v);
        let b = enc.finish();
        prop_assert_eq!(Decoder::new(&b).take_varint().unwrap(), v);
        // Encoding is minimal: at most 10 bytes, shorter for small values.
        prop_assert!(b.len() <= 10);
        if v < 128 {
            prop_assert_eq!(b.len(), 1);
        }
    }

    #[test]
    fn signed_varints_roundtrip(v in any::<i64>()) {
        let mut enc = Encoder::new();
        enc.put_i64(v);
        let b = enc.finish();
        prop_assert_eq!(Decoder::new(&b).take_i64().unwrap(), v);
    }
}

/// Deterministic sweep of all 256 tag bytes with no payload: the known tags
/// fail on truncation, the unknown ones on the tag itself — every one a
/// clean `ObiError::Decode`.
#[test]
fn every_bare_tag_byte_fails_with_a_decode_error() {
    for tag in 0u8..=255 {
        match Message::decode(&[tag]) {
            Ok(m) => panic!("bare tag {tag} decoded to {m:?}"),
            Err(ObiError::Decode(_)) => {}
            Err(e) => panic!("bare tag {tag} yielded non-Decode error {e:?}"),
        }
    }
}

// ---------------------------------------------------------------------------
// Typed replica-state codec
// ---------------------------------------------------------------------------

fn arb_ref() -> impl Strategy<Value = ObjRef> {
    arb_obj_id().prop_map(ObjRef::new)
}

fn arb_opt_ref() -> impl Strategy<Value = Option<ObjRef>> {
    (any::<bool>(), arb_ref()).prop_map(|(some, r)| some.then_some(r))
}

fn arb_linked_item() -> impl Strategy<Value = LinkedItem> {
    (
        any::<i64>(),
        ".{0,24}",
        arb_opt_ref(),
        proptest::collection::vec(arb_ref(), 0..6),
    )
        .prop_map(|(value, label, next, extra)| LinkedItem::from_fields(value, label, next, extra))
}

fn arb_payload_node() -> impl Strategy<Value = PayloadNode> {
    (
        any::<i64>(),
        proptest::collection::vec(any::<u8>(), 0..300),
        arb_opt_ref(),
    )
        .prop_map(|(index, payload, next)| {
            PayloadNode::from_fields(index, Bytes::from(payload), next)
        })
}

fn arb_counter() -> impl Strategy<Value = Counter> {
    any::<i64>().prop_map(Counter::from_fields)
}

fn arb_document() -> impl Strategy<Value = Document> {
    (".{0,24}", ".{0,80}").prop_map(|(title, content)| Document::from_fields(title, content))
}

fn arb_tree_node() -> impl Strategy<Value = TreeNode> {
    (".{0,24}", proptest::collection::vec(arb_ref(), 0..6))
        .prop_map(|(label, children)| TreeNode::from_fields(label, children))
}

/// The generic decode path: the whole `ObiValue` tree, then the field map.
fn generic_decode<T: DecodableObject>(bytes: &[u8]) -> obiwan::util::Result<T> {
    T::decode_state(&Decoder::new(bytes).take_value()?)
}

fn encode_value(v: &ObiValue) -> Vec<u8> {
    let mut enc = Encoder::new();
    enc.put_value(v);
    enc.as_slice().to_vec()
}

/// A value of a different kind than `v`, so a field holding it carries an
/// unexpected tag.
fn mistyped(v: &ObiValue) -> ObiValue {
    match v {
        ObiValue::Str(_) => ObiValue::I64(1),
        _ => ObiValue::Str("mistyped".into()),
    }
}

/// Non-canonical encodings of `obj`'s state: fields reordered, an extra
/// field, a duplicated field, each field missing, each field mistyped,
/// trailing bytes, a list in place of the map, and every truncation of the
/// canonical bytes.
fn non_canonical_inputs(state: &ObiValue, canonical: &[u8]) -> Vec<Vec<u8>> {
    let ObiValue::Map(entries) = state else {
        panic!("generated state is not a map: {state:?}");
    };
    let mut out = Vec::new();
    let mut reversed = entries.clone();
    reversed.reverse();
    out.push(encode_value(&ObiValue::Map(reversed)));
    let mut extra = entries.clone();
    extra.push(("extra_field".into(), ObiValue::I64(7)));
    out.push(encode_value(&ObiValue::Map(extra)));
    let mut duplicated = entries.clone();
    duplicated.insert(0, entries[0].clone());
    out.push(encode_value(&ObiValue::Map(duplicated)));
    for k in 0..entries.len() {
        let mut missing = entries.clone();
        missing.remove(k);
        out.push(encode_value(&ObiValue::Map(missing)));
        let mut wrong = entries.clone();
        wrong[k].1 = mistyped(&wrong[k].1);
        out.push(encode_value(&ObiValue::Map(wrong)));
    }
    let mut trailing = canonical.to_vec();
    trailing.push(0);
    out.push(trailing);
    out.push(encode_value(&ObiValue::List(
        entries.iter().map(|(_, v)| v.clone()).collect(),
    )));
    for cut in 0..canonical.len() {
        out.push(canonical[..cut].to_vec());
    }
    out
}

/// Every property of the typed codec, for one object of one class.
fn check_typed_codec<T>(obj: &T, register: fn(&ClassRegistry))
where
    T: ObiObject + DecodableObject + PartialEq + std::fmt::Debug,
{
    // Encode: byte-identical to the generic path.
    let generic = encode_value(&obj.state());
    let typed = encode_state(obj);
    assert_eq!(typed.as_slice(), generic.as_slice(), "{obj:?}");
    assert_eq!(obj.payload_size(), generic.len());

    // Decode: the canonical layout is read directly and agrees with the
    // generic path, and so does the registry's bytes entry.
    let mut dec = Decoder::new(&typed);
    assert_eq!(&T::decode_canonical(&mut dec).unwrap(), obj);
    assert!(dec.is_exhausted());
    assert_eq!(&T::decode_bytes(&typed).unwrap(), obj);
    assert_eq!(&generic_decode::<T>(&typed).unwrap(), obj);
    let registry = ClassRegistry::new();
    register(&registry);
    let materialized = registry.decode(obj.class_name(), &typed).unwrap();
    assert_eq!(materialized.state(), obj.state());

    // Fallback: any other input gives the generic path's object or error.
    for input in non_canonical_inputs(&obj.state(), &typed) {
        let fast = T::decode_bytes(&input);
        let slow = generic_decode::<T>(&input);
        match (&fast, &slow) {
            (Ok(a), Ok(b)) => assert_eq!(a, b, "input {input:?}"),
            (Err(a), Err(b)) => {
                assert!(matches!(a, ObiError::Decode(_)), "input {input:?}: {a:?}");
                assert_eq!(a, b, "input {input:?}");
            }
            _ => panic!("input {input:?}: typed {fast:?} vs generic {slow:?}"),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn linked_item_typed_codec_matches_generic(obj in arb_linked_item()) {
        check_typed_codec(&obj, LinkedItem::register);
    }

    #[test]
    fn payload_node_typed_codec_matches_generic(obj in arb_payload_node()) {
        check_typed_codec(&obj, PayloadNode::register);
    }

    #[test]
    fn counter_typed_codec_matches_generic(obj in arb_counter()) {
        check_typed_codec(&obj, Counter::register);
    }

    #[test]
    fn document_typed_codec_matches_generic(obj in arb_document()) {
        check_typed_codec(&obj, Document::register);
    }

    #[test]
    fn tree_node_typed_codec_matches_generic(obj in arb_tree_node()) {
        check_typed_codec(&obj, TreeNode::register);
    }
}
