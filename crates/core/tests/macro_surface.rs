//! Exhaustive surface tests of the `obi_class!` macro — our `obicomp`.
//!
//! Covers the full grammar: every supported field type, classes with only
//! read methods, only mutating methods, or neither; doc attributes on the
//! class, fields and methods; generated constructors, registry hooks and
//! dispatch behaviour (including automatic `mark_modified`).

use bytes::Bytes;
use obiwan_core::demo::Counter;
use obiwan_core::object::encode_state;
use obiwan_core::{
    obi_class, ClassRegistry, DecodableObject, ObiObject, ObiValue, ObiWorld, ObjRef,
    ReplicationMode,
};

obi_class! {
    /// A class exercising every supported field type.
    pub class Kitchen {
        fields {
            /// Doc comments on fields are allowed.
            flag: bool,
            count: i64,
            size: u64,
            ratio: f64,
            name: String,
            blob: Bytes,
            edge: ObjRef,
            maybe_edge: Option<ObjRef>,
            edges: Vec<ObjRef>,
            numbers: Vec<i64>,
            names: Vec<String>,
            nested: Option<Vec<ObjRef>>,
            raw: ObiValue,
        }
        methods {
            /// Doc comments on methods are allowed too.
            fn describe(this, _ctx, _args) {
                Ok(ObiValue::Str(format!("{}:{}", this.name, this.count)))
            }
        }
        mutating {
            fn rename(this, _ctx, args) {
                this.name = args.as_str().unwrap_or("?").to_owned();
                Ok(ObiValue::Null)
            }
        }
    }
}

obi_class! {
    /// Fields only: a pure data carrier.
    pub class Inert {
        fields {
            x: i64,
        }
    }
}

obi_class! {
    /// Only mutating methods.
    pub class WriteOnly {
        fields {
            x: i64,
        }
        mutating {
            fn bump(this, _ctx, _args) {
                this.x += 1;
                Ok(ObiValue::I64(this.x))
            }
        }
    }
}

fn sample_kitchen() -> Kitchen {
    use obiwan_util::{ObjId, SiteId};
    let r = |l: u64| ObjRef::new(ObjId::new(SiteId::new(9), l));
    Kitchen {
        flag: true,
        count: -5,
        size: 7,
        ratio: 1.25,
        name: "k".into(),
        blob: Bytes::from_static(b"\x01\x02"),
        edge: r(1),
        maybe_edge: Some(r(2)),
        edges: vec![r(3), r(4)],
        numbers: vec![1, 2, 3],
        names: vec!["a".into()],
        nested: Some(vec![r(5)]),
        raw: ObiValue::Map(vec![("inner".into(), ObiValue::Ref(r(6).id()))]),
    }
}

#[test]
fn every_field_type_roundtrips_through_state() {
    let k = sample_kitchen();
    let state = k.state();
    let back = Kitchen::decode_state(&state).unwrap();
    assert_eq!(back, k);
}

#[test]
fn every_field_type_has_a_byte_identical_typed_codec() {
    let k = sample_kitchen();
    let mut generic = obiwan_core::Encoder::new();
    generic.put_value(&k.state());
    let typed = encode_state(&k);
    assert_eq!(typed.as_slice(), generic.as_slice());
    let mut dec = obiwan_core::Decoder::new(&typed);
    assert_eq!(Kitchen::decode_canonical(&mut dec).unwrap(), k);
    assert!(dec.is_exhausted());
    assert_eq!(Kitchen::decode_bytes(&typed).unwrap(), k);
    // `None` in an `Option<Vec<_>>` and an empty `ObiValue` field.
    let sparse = Kitchen {
        nested: None,
        raw: ObiValue::Null,
        ..sample_kitchen()
    };
    assert_eq!(
        Kitchen::decode_bytes(&encode_state(&sparse)).unwrap(),
        sparse
    );
}

#[test]
fn fieldless_classes_encode_an_empty_map() {
    obi_class! {
        pub class Empty {
            fields {}
        }
    }
    let bytes = encode_state(&Empty {});
    let mut generic = obiwan_core::Encoder::new();
    generic.put_value(&ObiValue::Map(Vec::new()));
    assert_eq!(bytes.as_slice(), generic.as_slice());
    assert_eq!(Empty::decode_bytes(&bytes).unwrap(), Empty {});
}

#[test]
fn refs_cover_every_edge_bearing_field() {
    let k = sample_kitchen();
    let refs = k.refs();
    // edge, maybe_edge, edges×2, nested×1, raw×1 = 6 edges.
    assert_eq!(refs.len(), 6);
}

#[test]
fn registry_decode_through_generated_hook() {
    let reg = ClassRegistry::new();
    Kitchen::register(&reg);
    assert!(reg.knows(Kitchen::CLASS));
    assert_eq!(Kitchen::CLASS, "Kitchen");
    let k = sample_kitchen();
    let decoded = reg.decode("Kitchen", &encode_state(&k)).unwrap();
    assert_eq!(decoded.state(), k.state());
}

#[test]
fn decode_rejects_missing_and_mistyped_fields() {
    let k = sample_kitchen();
    // Drop one field.
    let ObiValue::Map(mut entries) = k.state() else {
        panic!()
    };
    entries.retain(|(name, _)| name != "count");
    assert!(Kitchen::decode_state(&ObiValue::Map(entries.clone())).is_err());
    // Mistype one field.
    for (name, v) in &mut entries {
        if name == "flag" {
            *v = ObiValue::Str("true".into());
        }
    }
    entries.push(("count".into(), ObiValue::I64(0)));
    assert!(Kitchen::decode_state(&ObiValue::Map(entries)).is_err());
}

#[test]
fn from_fields_constructor_follows_declaration_order() {
    let inert = Inert::from_fields(42);
    assert_eq!(inert.x, 42);
    assert_eq!(inert.class_name(), "Inert");
    assert!(inert.refs().is_empty());
}

#[test]
fn fieldless_method_class_rejects_all_methods() {
    let mut world = ObiWorld::loopback();
    let s = world.add_site("S");
    Inert::register(world.registry());
    let r = world.site(s).create(Inert::from_fields(1));
    let err = world.site(s).invoke(r, "anything", ObiValue::Null).unwrap_err();
    assert!(matches!(err, obiwan_core::ObiError::NoSuchMethod { .. }));
}

#[test]
fn mutating_methods_mark_modified_automatically() {
    let mut world = ObiWorld::loopback();
    let s1 = world.add_site("S1");
    let s2 = world.add_site("S2");
    WriteOnly::register(world.registry());
    let master = world.site(s2).create(WriteOnly::from_fields(0));
    world.site(s2).export(master, "w").unwrap();
    let remote = world.site(s1).lookup("w").unwrap();
    let replica = world
        .site(s1)
        .get(&remote, ReplicationMode::incremental(1))
        .unwrap();
    assert!(!world.site(s1).meta_of(replica).unwrap().dirty);
    world.site(s1).invoke(replica, "bump", ObiValue::Null).unwrap();
    assert!(world.site(s1).meta_of(replica).unwrap().dirty);
    // Master version bumps per mutation, too.
    world.site(s2).invoke(master, "bump", ObiValue::Null).unwrap();
    assert_eq!(world.site(s2).meta_of(master).unwrap().version, 2);
}

#[test]
fn read_methods_do_not_dirty() {
    let mut world = ObiWorld::loopback();
    let s1 = world.add_site("S1");
    let s2 = world.add_site("S2");
    Kitchen::register(world.registry());
    let master = world.site(s2).create(sample_kitchen());
    world.site(s2).export(master, "k").unwrap();
    let remote = world.site(s1).lookup("k").unwrap();
    let replica = world
        .site(s1)
        .get(&remote, ReplicationMode::incremental(1))
        .unwrap();
    world
        .site(s1)
        .invoke(replica, "describe", ObiValue::Null)
        .unwrap();
    assert!(!world.site(s1).meta_of(replica).unwrap().dirty);
    world
        .site(s1)
        .invoke(replica, "rename", ObiValue::from("renamed"))
        .unwrap();
    assert!(world.site(s1).meta_of(replica).unwrap().dirty);
}

#[test]
fn generated_classes_coexist_with_demo_classes_in_one_registry() {
    let reg = ClassRegistry::new();
    obiwan_core::demo::register_all(&reg);
    Kitchen::register(&reg);
    Inert::register(&reg);
    WriteOnly::register(&reg);
    assert_eq!(reg.len(), 8);
    // And a demo class still works.
    let c = Counter::new(2);
    assert_eq!(
        reg.decode("Counter", &encode_state(&c)).unwrap().state(),
        c.state()
    );
}

#[test]
fn payload_size_reflects_state() {
    let small = Inert::from_fields(1);
    let big = sample_kitchen();
    assert!(big.payload_size() > small.payload_size());
}
