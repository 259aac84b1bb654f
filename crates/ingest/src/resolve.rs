//! Records → [`Event`] resolution.
//!
//! A [`Resolver`] applies a [`FieldMapping`] to the [`RawRecord`]s the
//! format parsers produce, yielding monitor-ready [`Event`]s with monotone
//! sequence numbers. Sequence handling is strict: when the mapping names a
//! sequence key, mapped values must strictly increase (a regression is a
//! typed [`IngestError::NonMonotoneSequence`]); without one, the resolver
//! assigns its own counter.
//!
//! Service, actor, field and datastore ids come from small catalogs and
//! repeat on nearly every line, so the resolver interns them: each role has
//! a bounded `&str → id` map, and a repeated name resolves to a clone of
//! the id it resolved to before (a reference-count bump, not a copy).
//! User ids are high-cardinality and are not interned.

use crate::error::{snippet, IngestError, Role};
use crate::mapping::FieldMapping;
use crate::record::{RawRecord, RawValue};
use privacy_model::{ActorId, DatastoreId, FieldId, ServiceId, UserId};
use privacy_runtime::Event;
use std::borrow::{Borrow, Cow};
use std::collections::HashSet;
use std::hash::Hash;

/// Entries one intern map holds before it is cleared. Real catalogs have a
/// few dozen names per role; the bound only stops hostile input (a fresh
/// actor name on every line) from growing the maps without limit.
const INTERN_LIMIT: usize = 4096;

/// A bounded set of ids of one role, looked up by their text.
#[derive(Debug, Clone, Default)]
struct Interner<T> {
    ids: HashSet<T>,
}

impl<T> Interner<T>
where
    T: Borrow<str> + Clone + Eq + Hash + for<'s> From<&'s str>,
{
    /// The id spelled `text`: a clone of the interned one when present,
    /// else a new id, interned (after clearing the map if it is full).
    fn intern(&mut self, text: &str) -> T {
        if let Some(id) = self.ids.get(text) {
            return id.clone();
        }
        if self.ids.len() >= INTERN_LIMIT {
            self.ids.clear();
        }
        let id = T::from(text);
        self.ids.insert(id.clone());
        id
    }
}

/// Applies a [`FieldMapping`] to a stream of records.
#[derive(Debug, Clone)]
pub struct Resolver {
    mapping: FieldMapping,
    /// Next auto-assigned sequence.
    next_sequence: u64,
    /// The last accepted mapped sequence, for monotonicity enforcement.
    last_sequence: Option<u64>,
    services: Interner<ServiceId>,
    actors: Interner<ActorId>,
    fields: Interner<FieldId>,
    datastores: Interner<DatastoreId>,
}

impl Resolver {
    /// Creates a resolver over `mapping`; auto-assigned sequences start at 1.
    pub fn new(mapping: FieldMapping) -> Self {
        Resolver {
            mapping,
            next_sequence: 1,
            last_sequence: None,
            services: Interner::default(),
            actors: Interner::default(),
            fields: Interner::default(),
            datastores: Interner::default(),
        }
    }

    /// The mapping the resolver applies.
    pub fn mapping(&self) -> &FieldMapping {
        &self.mapping
    }

    /// The next sequence number the resolver would auto-assign.
    pub fn next_sequence(&self) -> u64 {
        self.next_sequence
    }

    /// Restores the sequence counters from a checkpoint: auto-assignment
    /// continues at `next_sequence`, and mapped sequences must exceed
    /// `next_sequence - 1` (the last accepted one).
    pub fn restore_sequences(&mut self, next_sequence: u64) {
        self.next_sequence = next_sequence.max(1);
        self.last_sequence = next_sequence.checked_sub(2).map(|previous| previous + 1);
    }

    /// Resolves one record into an event.
    ///
    /// # Errors
    ///
    /// Returns a typed, line-anchored [`IngestError`] when a mapped column
    /// is missing without a default, a value cannot be converted, or a
    /// mapped sequence fails to increase. A failed record does not advance
    /// the sequence state, so skipping it is sound.
    pub fn resolve(&mut self, record: &RawRecord<'_>) -> Result<Event, IngestError> {
        let line = record.line();
        let mapping = &self.mapping;

        let sequence = match &mapping.sequence_key {
            Some(key) => match record.get(key) {
                None | Some(RawValue::Null) => None,
                Some(value) => {
                    let text = text_of(value, line, Role::Sequence, key)?;
                    let parsed: u64 = text.trim().parse().map_err(|_| IngestError::BadValue {
                        line,
                        role: Role::Sequence,
                        key: key.clone(),
                        value: snippet(text),
                        message: "not a non-negative integer".to_owned(),
                    })?;
                    Some(parsed)
                }
            },
            None => None,
        };

        let user = required_id(record, line, Role::User, &mapping.user_key, None)?;
        let service = required_id(
            record,
            line,
            Role::Service,
            &mapping.service_key,
            mapping.service_default.as_deref(),
        )?;
        let actor = required_id(
            record,
            line,
            Role::Actor,
            &mapping.actor_key,
            mapping.actor_default.as_deref(),
        )?;

        let action_key = &mapping.action_key;
        let verb_value = record.get(action_key).ok_or_else(|| IngestError::MissingColumn {
            line,
            role: Role::Action,
            key: action_key.clone(),
        })?;
        let verb = text_of(verb_value, line, Role::Action, action_key)?;
        let action = mapping.action_for(verb).ok_or_else(|| IngestError::BadValue {
            line,
            role: Role::Action,
            key: action_key.clone(),
            value: snippet(verb),
            message: format!(
                "unknown action verb (known: {})",
                mapping.known_verbs().collect::<Vec<_>>().join(", ")
            ),
        })?;

        let fields = match &mapping.fields_key {
            None => ListItems::none(),
            Some(key) => match record.get(key) {
                None | Some(RawValue::Null) => ListItems::none(),
                Some(RawValue::List(items)) => ListItems::Items(items.iter()),
                Some(value) => {
                    let text = text_of(value, line, Role::Fields, key)?;
                    split_list(text, mapping.list_separator).map_err(|message| {
                        IngestError::BadValue {
                            line,
                            role: Role::Fields,
                            key: key.clone(),
                            value: snippet(text),
                            message,
                        }
                    })?
                }
            },
        };

        let datastore = match &mapping.datastore_key {
            None => None,
            Some(key) => match record.get(key) {
                None | Some(RawValue::Null) => None,
                Some(value) => {
                    let text = text_of(value, line, Role::Datastore, key)?;
                    (!text.is_empty()).then_some(text)
                }
            },
        };

        let permitted = match &mapping.permitted_key {
            None => mapping.permitted_default,
            Some(key) => match record.get(key) {
                None | Some(RawValue::Null) => mapping.permitted_default,
                Some(RawValue::Bool(flag)) => *flag,
                Some(value) => {
                    let text = text_of(value, line, Role::Permitted, key)?;
                    parse_bool(text).ok_or_else(|| IngestError::BadValue {
                        line,
                        role: Role::Permitted,
                        key: key.clone(),
                        value: snippet(text),
                        message: "expected true/false, yes/no or 1/0".to_owned(),
                    })?
                }
            },
        };

        // All fallible work is done: commit the sequence state.
        let sequence = match sequence {
            Some(mapped) => {
                if let Some(previous) = self.last_sequence {
                    if mapped <= previous {
                        return Err(IngestError::NonMonotoneSequence {
                            line,
                            sequence: mapped,
                            previous,
                        });
                    }
                }
                self.last_sequence = Some(mapped);
                self.next_sequence = mapped + 1;
                mapped
            }
            None => {
                let assigned = self.next_sequence;
                self.next_sequence += 1;
                self.last_sequence = Some(assigned);
                assigned
            }
        };

        let interned_fields = &mut self.fields;
        Ok(Event::new(
            sequence,
            UserId::from(user),
            self.services.intern(service),
            self.actors.intern(actor),
            action,
            fields.map(|field| interned_fields.intern(&field)),
            datastore.map(|store| self.datastores.intern(store)),
            permitted,
        ))
    }
}

/// A required textual id: mapped key, else default, else `MissingColumn`.
fn required_id<'r>(
    record: &'r RawRecord<'_>,
    line: u64,
    role: Role,
    key: &str,
    default: Option<&'r str>,
) -> Result<&'r str, IngestError> {
    match record.get(key) {
        None | Some(RawValue::Null) => match default {
            Some(default) => Ok(default),
            None => Err(IngestError::MissingColumn { line, role, key: key.to_owned() }),
        },
        Some(value) => {
            let text = text_of(value, line, role, key)?;
            if text.is_empty() {
                match default {
                    Some(default) => Ok(default),
                    None => Err(IngestError::BadValue {
                        line,
                        role,
                        key: key.to_owned(),
                        value: String::new(),
                        message: "empty id".to_owned(),
                    }),
                }
            } else {
                Ok(text)
            }
        }
    }
}

fn text_of<'v>(
    value: &'v RawValue<'_>,
    line: u64,
    role: Role,
    key: &str,
) -> Result<&'v str, IngestError> {
    value.as_text().ok_or_else(|| IngestError::BadValue {
        line,
        role,
        key: key.to_owned(),
        value: snippet(&value.to_string()),
        message: format!("expected text, found a {}", value.type_name()),
    })
}

/// The items of a list column: borrowed from the record, unless a `\`
/// escape in a separator-joined list had to be decoded.
#[derive(Debug)]
enum ListItems<'r> {
    Items(std::slice::Iter<'r, Cow<'r, str>>),
    Split(std::str::Split<'r, char>),
    Decoded(std::vec::IntoIter<String>),
}

impl ListItems<'_> {
    /// The empty list.
    fn none() -> Self {
        ListItems::Items([].iter())
    }
}

impl<'r> Iterator for ListItems<'r> {
    type Item = Cow<'r, str>;

    fn next(&mut self) -> Option<Cow<'r, str>> {
        match self {
            ListItems::Items(items) => items.next().map(|item| Cow::Borrowed(item.as_ref())),
            ListItems::Split(items) => items.next().map(Cow::Borrowed),
            ListItems::Decoded(items) => items.next().map(Cow::Owned),
        }
    }
}

/// Splits a separator-joined list, honouring `\<sep>` and `\\` escapes (the
/// emitter's inverse). An empty string is the empty list. Items borrow from
/// `text` unless it holds a `\`, which only an escaped list does.
fn split_list(text: &str, separator: char) -> Result<ListItems<'_>, String> {
    if text.is_empty() {
        return Ok(ListItems::none());
    }
    if !text.contains('\\') {
        return Ok(ListItems::Split(text.split(separator)));
    }
    let mut items = Vec::new();
    let mut current = String::new();
    let mut chars = text.chars();
    while let Some(ch) = chars.next() {
        if ch == '\\' {
            match chars.next() {
                Some(escaped) if escaped == separator || escaped == '\\' => current.push(escaped),
                Some(other) => return Err(format!("invalid escape `\\{other}` in list")),
                None => return Err("dangling `\\` at end of list".to_owned()),
            }
        } else if ch == separator {
            items.push(std::mem::take(&mut current));
        } else {
            current.push(ch);
        }
    }
    items.push(current);
    Ok(ListItems::Decoded(items.into_iter()))
}

fn parse_bool(text: &str) -> Option<bool> {
    let text = text.trim();
    let is = |words: [&str; 3]| words.iter().any(|word| text.eq_ignore_ascii_case(word));
    if is(["true", "1", "yes"]) {
        Some(true)
    } else if is(["false", "0", "no"]) {
        Some(false)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use privacy_lts::ActionKind;

    fn record<'a>(pairs: &[(&'a str, RawValue<'a>)]) -> RawRecord<'a> {
        let mut record = RawRecord::new(7);
        for (key, value) in pairs {
            record.push(*key, value.clone());
        }
        record
    }

    fn canonical(pairs: &[(&str, RawValue<'_>)]) -> Result<Event, IngestError> {
        Resolver::new(FieldMapping::canonical()).resolve(&record(pairs))
    }

    #[test]
    fn a_full_record_resolves_to_an_event() {
        let event = canonical(&[
            ("seq", RawValue::Number("42")),
            ("user", RawValue::Str("u-1".into())),
            ("service", RawValue::Str("portal".into())),
            ("actor", RawValue::Str("nurse".into())),
            ("action", RawValue::Str("read".into())),
            ("fields", RawValue::List(vec!["name".into(), "dob".into()])),
            ("store", RawValue::Str("records".into())),
            ("permitted", RawValue::Bool(false)),
        ])
        .unwrap();
        assert_eq!(event.sequence(), 42);
        assert_eq!(event.user().as_str(), "u-1");
        assert_eq!(event.action(), ActionKind::Read);
        assert_eq!(event.fields().len(), 2);
        assert_eq!(event.datastore().map(|d| d.as_str()), Some("records"));
        assert!(!event.permitted());
    }

    #[test]
    fn separator_joined_fields_unescape() {
        let event = canonical(&[
            ("user", RawValue::Str("u".into())),
            ("service", RawValue::Str("s".into())),
            ("actor", RawValue::Str("a".into())),
            ("action", RawValue::Str("collect".into())),
            ("fields", RawValue::Str(r"plain;with\;semi;back\\slash".into())),
        ])
        .unwrap();
        let fields: Vec<&str> = event.fields().iter().map(|f| f.as_str()).collect();
        assert_eq!(fields, ["back\\slash", "plain", "with;semi"]);
    }

    #[test]
    fn auto_sequences_count_up_and_mapped_sequences_must_increase() {
        let mut resolver = Resolver::new(FieldMapping::canonical());
        let base = |seq: Option<&'static str>| {
            let mut pairs = vec![
                ("user", RawValue::Str("u".into())),
                ("service", RawValue::Str("s".into())),
                ("actor", RawValue::Str("a".into())),
                ("action", RawValue::Str("read".into())),
            ];
            if let Some(seq) = seq {
                pairs.push(("seq", RawValue::Number(seq)));
            }
            record(&pairs)
        };
        assert_eq!(resolver.resolve(&base(None)).unwrap().sequence(), 1);
        assert_eq!(resolver.resolve(&base(None)).unwrap().sequence(), 2);
        assert_eq!(resolver.resolve(&base(Some("10"))).unwrap().sequence(), 10);
        // Auto-assignment continues past the mapped value.
        assert_eq!(resolver.resolve(&base(None)).unwrap().sequence(), 11);
        let error = resolver.resolve(&base(Some("5"))).unwrap_err();
        assert_eq!(error, IngestError::NonMonotoneSequence { line: 7, sequence: 5, previous: 11 });
        // The failed record did not corrupt state.
        assert_eq!(resolver.resolve(&base(Some("12"))).unwrap().sequence(), 12);
    }

    #[test]
    fn defaults_fill_missing_service_actor_and_permitted() {
        let mapping = FieldMapping::canonical()
            .with_service_default("portal")
            .with_actor_default("system")
            .with_permitted_default(false);
        let event = Resolver::new(mapping)
            .resolve(&record(&[
                ("user", RawValue::Str("u".into())),
                ("action", RawValue::Str("delete".into())),
            ]))
            .unwrap();
        assert_eq!(event.service().as_str(), "portal");
        assert_eq!(event.actor().as_str(), "system");
        assert!(!event.permitted());
    }

    #[test]
    fn each_bad_shape_is_a_distinct_typed_error() {
        // Missing user.
        assert!(matches!(
            canonical(&[("action", RawValue::Str("read".into()))]),
            Err(IngestError::MissingColumn { role: Role::User, .. })
        ));
        // Unknown verb.
        assert!(matches!(
            canonical(&[
                ("user", RawValue::Str("u".into())),
                ("service", RawValue::Str("s".into())),
                ("actor", RawValue::Str("a".into())),
                ("action", RawValue::Str("frobnicate".into())),
            ]),
            Err(IngestError::BadValue { role: Role::Action, .. })
        ));
        // Non-numeric sequence.
        assert!(matches!(
            canonical(&[
                ("seq", RawValue::Str("soon".into())),
                ("user", RawValue::Str("u".into())),
                ("service", RawValue::Str("s".into())),
                ("actor", RawValue::Str("a".into())),
                ("action", RawValue::Str("read".into())),
            ]),
            Err(IngestError::BadValue { role: Role::Sequence, .. })
        ));
        // Structured value where text is needed.
        assert!(matches!(
            canonical(&[
                ("user", RawValue::Complex),
                ("service", RawValue::Str("s".into())),
                ("actor", RawValue::Str("a".into())),
                ("action", RawValue::Str("read".into())),
            ]),
            Err(IngestError::BadValue { role: Role::User, .. })
        ));
        // Unparseable permitted flag.
        assert!(matches!(
            canonical(&[
                ("user", RawValue::Str("u".into())),
                ("service", RawValue::Str("s".into())),
                ("actor", RawValue::Str("a".into())),
                ("action", RawValue::Str("read".into())),
                ("permitted", RawValue::Str("maybe".into())),
            ]),
            Err(IngestError::BadValue { role: Role::Permitted, .. })
        ));
        // Bad list escape.
        assert!(matches!(
            canonical(&[
                ("user", RawValue::Str("u".into())),
                ("service", RawValue::Str("s".into())),
                ("actor", RawValue::Str("a".into())),
                ("action", RawValue::Str("read".into())),
                ("fields", RawValue::Str(r"a\q".into())),
            ]),
            Err(IngestError::BadValue { role: Role::Fields, .. })
        ));
    }

    #[test]
    fn empty_datastore_and_absent_fields_resolve_to_none() {
        let event = canonical(&[
            ("user", RawValue::Str("u".into())),
            ("service", RawValue::Str("s".into())),
            ("actor", RawValue::Str("a".into())),
            ("action", RawValue::Str("anon".into())),
            ("store", RawValue::Str("".into())),
        ])
        .unwrap();
        assert_eq!(event.datastore(), None);
        assert!(event.fields().is_empty());
    }

    #[test]
    fn repeated_names_share_one_interned_id() {
        let mut resolver = Resolver::new(FieldMapping::canonical());
        let line = |user: &'static str| {
            record(&[
                ("user", RawValue::Str(user.into())),
                ("service", RawValue::Str("portal".into())),
                ("actor", RawValue::Str("nurse".into())),
                ("action", RawValue::Str("read".into())),
                ("fields", RawValue::Str("name;dob".into())),
                ("store", RawValue::Str("records".into())),
            ])
        };
        let first = resolver.resolve(&line("u-1")).unwrap();
        let second = resolver.resolve(&line("u-2")).unwrap();
        let shared = |a: &str, b: &str| std::ptr::eq(a, b);
        assert!(shared(first.service().as_str(), second.service().as_str()));
        assert!(shared(first.actor().as_str(), second.actor().as_str()));
        assert!(shared(first.datastore().unwrap().as_str(), second.datastore().unwrap().as_str()));
        for (a, b) in first.fields().iter().zip(second.fields()) {
            assert!(shared(a.as_str(), b.as_str()));
        }
        assert!(!shared(first.user().as_str(), second.user().as_str()));
    }

    #[test]
    fn more_names_than_the_intern_bound_resolve_exactly_and_stay_bounded() {
        let mut resolver = Resolver::new(FieldMapping::canonical());
        let names = 2 * INTERN_LIMIT + 7;
        for i in 0..names {
            // Every actor is new; fields mix new names with a recurring one,
            // so hits and evictions interleave.
            let actor = format!("actor-{i}");
            let fields = format!("field-{i};shared;field-{}", i / 2);
            let store = format!("store-{}", i % 3);
            let event = resolver
                .resolve(&record(&[
                    ("user", RawValue::Str(format!("u-{i}").into())),
                    ("service", RawValue::Str("portal".into())),
                    ("actor", RawValue::Str(actor.as_str().into())),
                    ("action", RawValue::Str("read".into())),
                    ("fields", RawValue::Str(fields.as_str().into())),
                    ("store", RawValue::Str(store.as_str().into())),
                ]))
                .unwrap();
            let expected = Event::new(
                i as u64 + 1,
                format!("u-{i}"),
                "portal",
                actor.as_str(),
                ActionKind::Read,
                fields.split(';').map(FieldId::from),
                Some(DatastoreId::from(store.as_str())),
                true,
            );
            assert_eq!(event, expected);
            assert!(resolver.actors.ids.len() <= INTERN_LIMIT);
            assert!(resolver.fields.ids.len() <= INTERN_LIMIT);
        }
        assert_eq!(resolver.services.ids.len(), 1);
        assert_eq!(resolver.datastores.ids.len(), 3);
    }
}
