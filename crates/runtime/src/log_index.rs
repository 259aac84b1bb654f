//! The event-log index: the permitted events grouped by label.
//!
//! The operation-time compliance checker originally re-walked the whole
//! [`EventLog`] once **per policy statement**, re-evaluating string-keyed
//! matchers against every event each time. Every question a statement asks
//! of an event is a question about its **label** — its action, actor,
//! service and field set — and a log has few labels: the runtime_scaling
//! streams have 9 distinct permitted labels over 26,697 events
//! (healthcare) and 14 over 24,000 (`synth_8a_10f_3s`). So
//! [`EventLogIndex::build`], the runtime sibling of the LTS analysis index
//! ([`privacy_lts::LtsIndex`]), keeps
//!
//! * **Label groups** — per distinct label of the *permitted* events, in the
//!   order each label first appears, the ascending ids of its events
//!   (denied events never constitute behaviour, so no statement consults
//!   them and none is grouped);
//! * **Erasure timelines** — per `(user, field)`: when the field was first
//!   stored (`collect`/`create`/`anon`) and last deleted, the aggregation
//!   every right-to-erasure statement needs, built once instead of once per
//!   statement.
//!
//! `privacy_compliance::check_log` decides each statement once per group,
//! applying the scan checker's own per-event predicate to the group's first
//! event, and merges the selected groups in ascending event order
//! ([`privacy_lts::index::LabelMerge`]); `check_log_scan` retains the
//! original full-scan semantics and the differential property tests pin
//! the two identical.
//!
//! The index is **append-aware**: the event log is append-only, so
//! [`EventLogIndex::append`] extends the groups and erasure timelines in
//! place, and [`EventLogIndex::build`] is one append to an empty index. An
//! index appended segment by segment equals one built over the whole log
//! (`PartialEq` covers every group and timeline, and the
//! `appended_index_equals_from_scratch_build` property tests exercise random
//! cut points). Periodic audits exploit this through
//! `privacy_compliance::check_log_checkpointed`, which pays only for the
//! appended suffix.

use crate::event::{Event, EventLog};
use privacy_lts::ActionKind;
use privacy_model::{ActorId, FieldId, ServiceId, UserId};
use std::collections::hash_map::RandomState;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::hash::BuildHasher;

/// An event's label: everything a policy statement asks of the event.
type Label = (ActionKind, ActorId, ServiceId, BTreeSet<FieldId>);

/// When a `(user, field)` pair was first stored and last deleted in the
/// observed execution — the inputs of the right-to-erasure check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ErasureTimeline {
    first_stored: u64,
    last_deleted: Option<u64>,
}

impl ErasureTimeline {
    /// The sequence number of the first storing event.
    pub fn first_stored(&self) -> u64 {
        self.first_stored
    }

    /// The sequence number of the last delete covering the pair, if any.
    pub fn last_deleted(&self) -> Option<u64> {
        self.last_deleted
    }

    /// Returns `true` if the pair was stored but never deleted afterwards —
    /// a right-to-erasure violation. Pairs that were only ever deleted
    /// (`first_stored == u64::MAX`) never violate.
    pub fn violates_erasure(&self) -> bool {
        self.first_stored != u64::MAX
            && self.last_deleted.is_none_or(|deleted| deleted < self.first_stored)
    }
}

/// The label-group index over one [`EventLog`] snapshot.
///
/// # Examples
///
/// ```
/// use privacy_lts::ActionKind;
/// use privacy_model::{DatastoreId, FieldId};
/// use privacy_runtime::{Event, EventLog, EventLogIndex};
///
/// let mut log = EventLog::new();
/// for (sequence, actor) in [(0, "Doctor"), (1, "Nurse"), (2, "Doctor")] {
///     log.append(Event::new(
///         sequence, "alice", "MedicalService", actor, ActionKind::Read,
///         [FieldId::new("Diagnosis")], Some(DatastoreId::new("EHR")), true,
///     ));
/// }
/// let index = EventLogIndex::build(&log);
/// let groups: Vec<&[u32]> = index.groups().collect();
/// assert_eq!(groups, [&[0, 2][..], &[1][..]]);
/// ```
#[derive(Debug, Clone)]
pub struct EventLogIndex {
    event_count: usize,
    /// The distinct labels of the permitted events, in first-appearance
    /// order.
    labels: Vec<Label>,
    /// Per label hash, the labels that have it: a lookup hashes an event's
    /// parts and compares them in place, so only a new label is cloned.
    /// The hash is keyed per index, since labels come from the log.
    by_hash: HashMap<u64, Vec<u32>>,
    hasher: RandomState,
    /// Per interned label: the ids of its events, ascending.
    groups: Vec<Vec<u32>>,
    /// Erasure aggregation over every `(user, field)` pair a permitted
    /// storing or deleting event touched, in `(user, field)` order.
    erasure: BTreeMap<(UserId, FieldId), ErasureTimeline>,
}

impl EventLogIndex {
    /// Builds the index from one pass over the log.
    pub fn build(log: &EventLog) -> EventLogIndex {
        let mut index = EventLogIndex {
            event_count: 0,
            labels: Vec::new(),
            by_hash: HashMap::new(),
            hasher: RandomState::new(),
            groups: Vec::new(),
            erasure: BTreeMap::new(),
        };
        index.append(log.events());
        index
    }

    /// Extends the index in place with events appended to the log since it
    /// was built (or last appended to) — the log is append-only, so this is
    /// the maintenance operation a periodic audit needs: O(suffix) instead
    /// of an O(log) rebuild. The events must be exactly
    /// `log[self.event_count()..]` of the log the index describes; after the
    /// call the index equals a from-scratch [`EventLogIndex::build`] over
    /// the whole log (pinned by `PartialEq` in the
    /// `appended_index_equals_from_scratch_build` property tests).
    pub fn append(&mut self, events: &[Event]) {
        for event in events {
            let id = self.event_count as u32;
            self.event_count += 1;
            if !event.permitted() {
                continue;
            }
            let label = self.label_of(event);
            self.groups[label].push(id);
            match event.action() {
                ActionKind::Collect | ActionKind::Create | ActionKind::Anon => {
                    for field in event.fields() {
                        // The first storing event *in log order* wins, the
                        // exact semantics of the scan checker's
                        // `stored.entry(key).or_insert(sequence)`.
                        self.erasure
                            .entry((event.user().clone(), field.clone()))
                            .and_modify(|timeline| {
                                if timeline.first_stored == u64::MAX {
                                    timeline.first_stored = event.sequence();
                                }
                            })
                            .or_insert(ErasureTimeline {
                                first_stored: event.sequence(),
                                last_deleted: None,
                            });
                    }
                }
                ActionKind::Delete => {
                    for field in event.fields() {
                        self.erasure
                            .entry((event.user().clone(), field.clone()))
                            .and_modify(|timeline| {
                                timeline.last_deleted = Some(
                                    timeline.last_deleted.map_or(event.sequence(), |latest| {
                                        latest.max(event.sequence())
                                    }),
                                );
                            })
                            .or_insert(ErasureTimeline {
                                first_stored: u64::MAX,
                                last_deleted: Some(event.sequence()),
                            });
                    }
                }
                _ => {}
            }
        }
    }

    /// The id of `event`'s label, interning it (with an empty group) when it
    /// is new.
    fn label_of(&mut self, event: &Event) -> usize {
        let parts = (event.action(), event.actor(), event.service(), event.fields());
        let ids = self.by_hash.entry(self.hasher.hash_one(parts)).or_default();
        let labels = &self.labels;
        if let Some(&id) = ids.iter().find(|&&id| {
            let (action, actor, service, fields) = &labels[id as usize];
            (*action, actor, service, fields) == parts
        }) {
            return id as usize;
        }
        let id = self.labels.len();
        ids.push(u32::try_from(id).expect("fewer than 2^32 labels"));
        let (action, actor, service, fields) = parts;
        self.labels.push((action, actor.clone(), service.clone(), fields.clone()));
        self.groups.push(Vec::new());
        id
    }

    /// Number of events the index covers (the log's length at build time).
    pub fn event_count(&self) -> usize {
        self.event_count
    }

    /// The label groups: per distinct label (action, actor, service, field
    /// set) of the permitted events, in the order each label first appears,
    /// the ascending ids of its events. No group is empty and no two share
    /// an event, so a group's first event stands for its label.
    pub fn groups(&self) -> impl Iterator<Item = &[u32]> {
        self.groups.iter().map(Vec::as_slice)
    }

    /// The erasure timeline of every `(user, field)` pair a permitted
    /// storing or deleting event touched, in `(user, field)` order. Pairs
    /// that were only ever deleted report `u64::MAX` as their store time and
    /// never violate erasure.
    pub fn erasure_timelines(
        &self,
    ) -> impl Iterator<Item = (&(UserId, FieldId), &ErasureTimeline)> {
        self.erasure.iter()
    }
}

/// Equal indexes hold the same labels, groups and erasure timelines; the
/// lookup table is keyed per index and follows from the labels.
impl PartialEq for EventLogIndex {
    fn eq(&self, other: &Self) -> bool {
        (self.event_count, &self.labels, &self.groups, &self.erasure)
            == (other.event_count, &other.labels, &other.groups, &other.erasure)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Event;
    use privacy_lts::index::LabelMerge;
    use privacy_model::DatastoreId;

    fn event(
        sequence: u64,
        user: &str,
        actor: &str,
        action: ActionKind,
        fields: &[&str],
        permitted: bool,
    ) -> Event {
        Event::new(
            sequence,
            user,
            "MedicalService",
            actor,
            action,
            fields.iter().map(|f| FieldId::new(*f)),
            Some(DatastoreId::new("EHR")),
            permitted,
        )
    }

    fn sample_log() -> EventLog {
        let mut log = EventLog::new();
        log.append(event(0, "alice", "Doctor", ActionKind::Collect, &["Name", "Diagnosis"], true));
        log.append(event(1, "alice", "Doctor", ActionKind::Create, &["Diagnosis"], true));
        log.append(event(2, "alice", "Admin", ActionKind::Read, &["Diagnosis"], true));
        log.append(event(3, "alice", "Researcher", ActionKind::Read, &["Diagnosis"], false));
        log.append(event(4, "bob", "Doctor", ActionKind::Collect, &["Diagnosis"], true));
        log.append(event(5, "alice", "Admin", ActionKind::Delete, &["Diagnosis"], true));
        log.append(event(6, "bob", "Admin", ActionKind::Read, &["Diagnosis"], true));
        log
    }

    fn groups(index: &EventLogIndex) -> Vec<Vec<u32>> {
        index.groups().map(<[u32]>::to_vec).collect()
    }

    #[test]
    fn groups_cover_permitted_events_only_ascending() {
        let index = EventLogIndex::build(&sample_log());
        assert_eq!(index.event_count(), 7);
        // One group per label in first-appearance order; the user is not
        // part of the label, so both Admin reads share a group, and the
        // researcher's denied read is in none.
        assert_eq!(groups(&index), [vec![0], vec![1], vec![2, 6], vec![4], vec![5]]);
    }

    #[test]
    fn merged_selections_ascend_from_any_start() {
        // Three labels whose groups interleave: a, b, a, c, b, a, with a
        // denied event in the middle.
        let mut log = EventLog::new();
        for (sequence, actor, permitted) in [
            (0, "Doctor", true),
            (1, "Nurse", true),
            (2, "Doctor", true),
            (3, "Doctor", false),
            (4, "Admin", true),
            (5, "Nurse", true),
            (6, "Doctor", true),
        ] {
            log.append(event(
                sequence,
                "alice",
                actor,
                ActionKind::Read,
                &["Diagnosis"],
                permitted,
            ));
        }
        let index = EventLogIndex::build(&log);
        assert_eq!(groups(&index), [vec![0, 2, 6], vec![1, 5], vec![4]]);
        let mut merge = LabelMerge::<u32>::default();
        for keep in
            [[true, true, true], [true, true, false], [false, true, true], [true, false, true]]
        {
            for from in 0..=log.len() as u32 + 1 {
                let selected = index
                    .groups()
                    .zip(keep)
                    .filter(|(_, keep)| *keep)
                    .map(|(group, _)| &group[group.partition_point(|&id| id < from)..]);
                let merged: Vec<u32> = merge.merge(selected).collect();
                let expected: Vec<u32> = index
                    .groups()
                    .zip(keep)
                    .filter(|(_, keep)| *keep)
                    .flat_map(|(group, _)| group.iter().copied().filter(|&id| id >= from))
                    .collect::<BTreeSet<u32>>()
                    .into_iter()
                    .collect();
                assert_eq!(merged, expected, "groups {keep:?} from {from}");
            }
        }
    }

    #[test]
    fn erasure_timelines_aggregate_first_store_and_last_delete() {
        let index = EventLogIndex::build(&sample_log());
        let timelines: Vec<_> = index.erasure_timelines().collect();
        // (alice, Diagnosis), (alice, Name), (bob, Diagnosis) in order.
        assert_eq!(timelines.len(), 3);
        let alice_diagnosis = timelines[0];
        assert_eq!(alice_diagnosis.0, &(UserId::new("alice"), FieldId::new("Diagnosis")));
        assert_eq!(alice_diagnosis.1.first_stored(), 0);
        assert_eq!(alice_diagnosis.1.last_deleted(), Some(5));
        assert!(!alice_diagnosis.1.violates_erasure());
        // Alice's Name and Bob's Diagnosis were stored but never deleted.
        assert!(timelines[1].1.violates_erasure());
        assert!(timelines[2].1.violates_erasure());
    }

    #[test]
    fn delete_before_store_still_violates() {
        let mut log = EventLog::new();
        log.append(event(0, "alice", "Admin", ActionKind::Delete, &["Diagnosis"], true));
        log.append(event(1, "alice", "Doctor", ActionKind::Create, &["Diagnosis"], true));
        let index = EventLogIndex::build(&log);
        let (_, timeline) = index.erasure_timelines().next().unwrap();
        assert_eq!(timeline.first_stored(), 1);
        assert_eq!(timeline.last_deleted(), Some(0));
        assert!(timeline.violates_erasure());
    }

    #[test]
    fn empty_log_builds_an_empty_index() {
        let index = EventLogIndex::build(&EventLog::new());
        assert_eq!(index.event_count(), 0);
        assert!(index.groups().next().is_none());
        assert!(index.erasure_timelines().next().is_none());
    }

    #[test]
    fn append_at_every_cut_equals_the_from_scratch_build() {
        let log = sample_log();
        let full = EventLogIndex::build(&log);
        for cut in 0..=log.len() {
            let mut prefix_log = EventLog::new();
            prefix_log.extend(log.events()[..cut].iter().cloned());
            let mut index = EventLogIndex::build(&prefix_log);
            index.append(&log.events()[cut..]);
            assert_eq!(index, full, "append after cut {cut} diverges from build");
        }
    }

    #[test]
    fn seventy_new_labels_appended_equal_one_build() {
        // A tail of 70 events, each with a fresh actor and field and so a
        // fresh label.
        let mut log = sample_log();
        let cut = log.len();
        for i in 0..70u64 {
            log.append(Event::new(
                cut as u64 + i,
                "alice",
                "MedicalService",
                format!("LateActor{i}"),
                ActionKind::Read,
                [FieldId::new(format!("LateField{i}"))],
                Some(DatastoreId::new("EHR")),
                true,
            ));
        }
        let mut index = {
            let mut prefix = EventLog::new();
            prefix.extend(log.events()[..cut].iter().cloned());
            EventLogIndex::build(&prefix)
        };
        index.append(&log.events()[cut..]);
        let full = EventLogIndex::build(&log);
        assert_eq!(index, full);
        assert_eq!(index.groups().count(), 5 + 70);
        assert_eq!(index.groups().last(), Some(&[cut as u32 + 69][..]));
    }

    #[test]
    fn multi_segment_appends_equal_one_build() {
        let log = sample_log();
        let mut index = EventLogIndex::build(&EventLog::new());
        for event in log.iter() {
            index.append(std::slice::from_ref(event));
        }
        assert_eq!(index, EventLogIndex::build(&log));
        index.append(&[]);
        assert_eq!(index, EventLogIndex::build(&log));
    }
}
