//! Privacy events and the append-only event log.

use privacy_lts::ActionKind;
use privacy_model::{ActorId, DatastoreId, FieldId, ServiceId, UserId};
use std::collections::BTreeSet;
use std::fmt;

/// One privacy-relevant event observed while a service runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    sequence: u64,
    user: UserId,
    service: ServiceId,
    actor: ActorId,
    action: ActionKind,
    fields: BTreeSet<FieldId>,
    datastore: Option<DatastoreId>,
    permitted: bool,
}

impl Event {
    /// Creates an event.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        sequence: u64,
        user: impl Into<UserId>,
        service: impl Into<ServiceId>,
        actor: impl Into<ActorId>,
        action: ActionKind,
        fields: impl IntoIterator<Item = FieldId>,
        datastore: Option<DatastoreId>,
        permitted: bool,
    ) -> Self {
        // Inserted one by one: collecting a `BTreeSet` buffers and sorts
        // the items in a temporary `Vec` first, an allocation per event.
        let mut field_set = BTreeSet::new();
        field_set.extend(fields);
        Event {
            sequence,
            user: user.into(),
            service: service.into(),
            actor: actor.into(),
            action,
            fields: field_set,
            datastore,
            permitted,
        }
    }

    /// The monotonically increasing sequence number (logical time).
    pub fn sequence(&self) -> u64 {
        self.sequence
    }

    /// The data subject the event concerns.
    pub fn user(&self) -> &UserId {
        &self.user
    }

    /// The service in whose execution the event occurred.
    pub fn service(&self) -> &ServiceId {
        &self.service
    }

    /// The actor performing the action.
    pub fn actor(&self) -> &ActorId {
        &self.actor
    }

    /// The privacy action.
    pub fn action(&self) -> ActionKind {
        self.action
    }

    /// The fields involved.
    pub fn fields(&self) -> &BTreeSet<FieldId> {
        &self.fields
    }

    /// The datastore involved, if any.
    pub fn datastore(&self) -> Option<&DatastoreId> {
        self.datastore.as_ref()
    }

    /// Whether the access-control policy permitted the action. Denied events
    /// are still logged (they are exactly what an auditor wants to see) but
    /// have no effect on datastore contents or privacy state.
    pub fn permitted(&self) -> bool {
        self.permitted
    }
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let fields: Vec<&str> = self.fields.iter().map(FieldId::as_str).collect();
        write!(
            f,
            "#{} [{}] {} {} {{{}}}",
            self.sequence,
            self.service,
            self.actor,
            self.action,
            fields.join(", ")
        )?;
        if let Some(store) = &self.datastore {
            write!(f, " @ {store}")?;
        }
        write!(f, " (user {})", self.user)?;
        if !self.permitted {
            write!(f, " DENIED")?;
        }
        Ok(())
    }
}

/// An append-only log of events.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct EventLog {
    events: Vec<Event>,
}

impl EventLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        EventLog::default()
    }

    /// Appends an event.
    pub fn append(&mut self, event: Event) {
        self.events.push(event);
    }

    /// The events in append order.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Iterates over the events.
    pub fn iter(&self) -> impl Iterator<Item = &Event> {
        self.events.iter()
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Returns `true` if the log is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The next sequence number to use.
    pub fn next_sequence(&self) -> u64 {
        self.events.last().map(|e| e.sequence() + 1).unwrap_or(0)
    }

    /// The denied events (attempted accesses the policy blocked).
    pub fn denied(&self) -> Vec<&Event> {
        self.events.iter().filter(|e| !e.permitted()).collect()
    }
}

impl Extend<Event> for EventLog {
    fn extend<T: IntoIterator<Item = Event>>(&mut self, iter: T) {
        self.events.extend(iter);
    }
}

impl fmt::Display for EventLog {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "event log ({} events):", self.events.len())?;
        for event in &self.events {
            writeln!(f, "  {event}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(seq: u64, actor: &str, permitted: bool) -> Event {
        Event::new(
            seq,
            "alice",
            "MedicalService",
            actor,
            ActionKind::Read,
            [FieldId::new("Diagnosis")],
            Some(DatastoreId::new("EHR")),
            permitted,
        )
    }

    #[test]
    fn event_accessors_and_display() {
        let event = sample(3, "Doctor", true);
        assert_eq!(event.sequence(), 3);
        assert_eq!(event.user().as_str(), "alice");
        assert_eq!(event.service().as_str(), "MedicalService");
        assert_eq!(event.actor().as_str(), "Doctor");
        assert_eq!(event.action(), ActionKind::Read);
        assert_eq!(event.fields().len(), 1);
        assert_eq!(event.datastore().unwrap().as_str(), "EHR");
        assert!(event.permitted());
        let text = event.to_string();
        assert!(text.contains("#3"));
        assert!(text.contains("@ EHR"));
        assert!(!text.contains("DENIED"));
        assert!(sample(4, "Admin", false).to_string().contains("DENIED"));
    }

    #[test]
    fn log_appends_and_filters() {
        let mut log = EventLog::new();
        assert!(log.is_empty());
        assert_eq!(log.next_sequence(), 0);
        log.append(sample(0, "Doctor", true));
        log.append(sample(1, "Administrator", false));
        log.extend([sample(2, "Doctor", true)]);

        assert_eq!(log.len(), 3);
        assert_eq!(log.next_sequence(), 3);
        assert_eq!(log.denied().len(), 1);
        assert!(log.to_string().contains("event log (3 events)"));
        assert_eq!(log.iter().count(), 3);
        assert_eq!(log.events().len(), 3);
    }
}
