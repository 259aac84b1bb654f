//! The runtime [`Alert`], and the scan-path monitor kept as the
//! differential oracle.
//!
//! [`RuntimeMonitor`] consumes the engine's events and maintains, per user,
//! the current privacy state of the generated LTS (the same `has` / `could`
//! semantics the design-time generator uses). Whenever an event causes a
//! non-allowed actor to identify — or become able to identify — a field the
//! user is sensitive about, an [`Alert`] is raised with the risk level from
//! the risk matrix. This is the "monitor the privacy risks during the
//! lifetime of the service" path of the paper, written as directly as
//! possible: every event walks the variable space by name.
//!
//! It is not the monitor to run. [`IndexedMonitor`](crate::IndexedMonitor)
//! is, and is pinned to raise exactly this monitor's alerts and hold exactly
//! its per-user states (`tests/indexed_monitor_differential.rs`, the
//! `runtime_monitoring` example, the `runtime_scaling` bench). That is why
//! this one is kept, here rather than in the crate's root exports.

use crate::event::Event;
use privacy_access::{AccessPolicy, Permission};
use privacy_lts::{ActionKind, PrivacyState, VarSpace};
use privacy_model::{Catalog, RiskLevel, UserId, UserProfile};
use privacy_risk::{LikelihoodModel, RiskMatrix, SensitivityModel};
use std::collections::BTreeMap;
use std::fmt;

/// An alert raised by the monitor.
#[derive(Debug, Clone, PartialEq)]
pub struct Alert {
    sequence: u64,
    user: UserId,
    level: RiskLevel,
    message: String,
}

impl Alert {
    /// Raises an alert (shared by the scan-path [`RuntimeMonitor`] and the
    /// index-backed [`crate::indexed::IndexedMonitor`], whose alert streams
    /// are pinned identical by the differential property tests).
    pub(crate) fn raise(sequence: u64, user: UserId, level: RiskLevel, message: String) -> Alert {
        Alert { sequence, user, level, message }
    }

    /// Reconstructs an alert from its parts — the persistence/transport
    /// path: snapshot decoding and the distributed supervisor's ack frames
    /// rebuild alerts a monitor raised in another life (or another
    /// process). Monitors themselves only raise alerts internally.
    pub fn from_parts(sequence: u64, user: UserId, level: RiskLevel, message: String) -> Alert {
        Alert { sequence, user, level, message }
    }

    /// The sequence number of the event that triggered the alert.
    pub fn sequence(&self) -> u64 {
        self.sequence
    }

    /// The affected user.
    pub fn user(&self) -> &UserId {
        &self.user
    }

    /// The risk level of the alert.
    pub fn level(&self) -> RiskLevel {
        self.level
    }

    /// A human readable description.
    pub fn message(&self) -> &str {
        &self.message
    }
}

impl fmt::Display for Alert {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] event #{} user {}: {}", self.level, self.sequence, self.user, self.message)
    }
}

/// The scan-path runtime privacy monitor for a set of registered users:
/// the differential oracle of [`IndexedMonitor`](crate::IndexedMonitor).
#[derive(Debug, Clone)]
pub struct RuntimeMonitor {
    catalog: Catalog,
    policy: AccessPolicy,
    space: VarSpace,
    matrix: RiskMatrix,
    likelihood: LikelihoodModel,
    alert_threshold: RiskLevel,
    users: BTreeMap<UserId, (SensitivityModel, PrivacyState)>,
    alerts: Vec<Alert>,
}

impl RuntimeMonitor {
    /// Creates a monitor with the standard risk matrix and likelihood model.
    pub fn new(catalog: Catalog, policy: AccessPolicy) -> Self {
        let space = VarSpace::from_catalog(&catalog);
        RuntimeMonitor {
            catalog,
            policy,
            space,
            matrix: RiskMatrix::standard(),
            likelihood: LikelihoodModel::standard(),
            alert_threshold: RiskLevel::Medium,
            users: BTreeMap::new(),
            alerts: Vec::new(),
        }
    }

    /// Builder-style: only raise alerts at or above this level (default
    /// Medium).
    pub fn with_alert_threshold(mut self, threshold: RiskLevel) -> Self {
        self.alert_threshold = threshold;
        self
    }

    /// Builder-style: overrides the risk matrix.
    pub fn with_matrix(mut self, matrix: RiskMatrix) -> Self {
        self.matrix = matrix;
        self
    }

    /// Builder-style: overrides the likelihood model.
    pub fn with_likelihood(mut self, likelihood: LikelihoodModel) -> Self {
        self.likelihood = likelihood;
        self
    }

    /// Registers a user so their privacy state is tracked.
    pub fn register_user(&mut self, profile: &UserProfile) {
        let sensitivity = SensitivityModel::new(&self.catalog, profile);
        let state = PrivacyState::absolute(&self.space);
        self.users.insert(profile.id().clone(), (sensitivity, state));
    }

    /// The current privacy state of a registered user.
    pub fn state_of(&self, user: &UserId) -> Option<&PrivacyState> {
        self.users.get(user).map(|(_, state)| state)
    }

    /// The alerts raised so far.
    pub fn alerts(&self) -> &[Alert] {
        &self.alerts
    }

    /// The alerts concerning one user.
    pub fn alerts_for(&self, user: &UserId) -> Vec<&Alert> {
        self.alerts.iter().filter(|a| a.user() == user).collect()
    }

    /// Number of registered users.
    pub fn user_count(&self) -> usize {
        self.users.len()
    }

    /// Consumes one event, updating the affected user's privacy state and
    /// possibly raising alerts. Events for unregistered users and denied
    /// events are ignored (denied events never changed any data exposure).
    pub fn observe(&mut self, event: &Event) -> Vec<Alert> {
        if !event.permitted() {
            return Vec::new();
        }
        let Some((sensitivity, state)) = self.users.get_mut(&event.user().clone()) else {
            return Vec::new();
        };

        let before = state.clone();
        match event.action() {
            ActionKind::Collect | ActionKind::Disclose | ActionKind::Read => {
                for field in event.fields() {
                    state.set_has(&self.space, event.actor(), field, true);
                }
            }
            ActionKind::Create | ActionKind::Anon => {
                if let Some(store) = event.datastore() {
                    for field in event.fields() {
                        for reader in self.policy.actors_with(Permission::Read, store, field) {
                            state.set_could(&self.space, &reader, field, true);
                        }
                    }
                }
            }
            ActionKind::Delete => {
                if let Some(store) = event.datastore() {
                    for field in event.fields() {
                        for reader in self.policy.actors_with(Permission::Read, store, field) {
                            state.set_could(&self.space, &reader, field, false);
                        }
                    }
                }
            }
            // Future action kinds added to the (non-exhaustive) enum do not
            // change the tracked privacy state until modelled explicitly.
            _ => {}
        }

        // Raise alerts for newly exposed (actor, field) pairs involving
        // non-allowed actors.
        let mut raised = Vec::new();
        for (actor, field) in state.exposed_pairs(&self.space) {
            if before.has_or_could(&self.space, actor, field) {
                continue;
            }
            if sensitivity.is_allowed(actor) {
                continue;
            }
            let impact = sensitivity.relative_sensitivity(field, actor);
            let probability = match event.datastore() {
                Some(store) => self.likelihood.probability(actor, store),
                // Direct identification (collect/disclose/read event by the
                // actor itself) has certainty rather than scenario-based
                // likelihood.
                None => 1.0,
            };
            let probability = if state.has(&self.space, actor, field) { 1.0 } else { probability };
            let level = self.matrix.combine(impact, probability);
            if level.at_least(self.alert_threshold) {
                raised.push(Alert {
                    sequence: event.sequence(),
                    user: event.user().clone(),
                    level,
                    message: format!(
                        "non-allowed actor {actor} can now identify `{field}` \
                         (action {}, impact {:.2}, likelihood {:.2})",
                        event.action(),
                        impact.value(),
                        probability
                    ),
                });
            }
        }
        self.alerts.extend(raised.clone());
        raised
    }

    /// Convenience: observes a whole slice of events.
    pub fn observe_all(&mut self, events: &[Event]) -> Vec<Alert> {
        events.iter().flat_map(|e| self.observe(e)).collect()
    }
}

impl fmt::Display for RuntimeMonitor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "runtime monitor: {} users tracked, {} alerts raised",
            self.users.len(),
            self.alerts.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::ServiceEngine;
    use privacy_access::{AccessControlList, Grant, PolicyDelta};
    use privacy_dataflow::{DiagramBuilder, SystemDataFlows};
    use privacy_model::{
        Actor, ActorId, DataField, DataSchema, DatastoreDecl, FieldId, Record, SensitivityCategory,
        ServiceDecl, ServiceId,
    };

    fn fixture() -> (Catalog, SystemDataFlows, AccessPolicy) {
        let mut catalog = Catalog::new();
        catalog.add_actor(Actor::role("Doctor")).unwrap();
        catalog.add_actor(Actor::role("Administrator")).unwrap();
        catalog.add_field(DataField::identifier("Name")).unwrap();
        catalog.add_field(DataField::sensitive("Diagnosis")).unwrap();
        catalog
            .add_schema(DataSchema::new(
                "EHRSchema",
                [FieldId::new("Name"), FieldId::new("Diagnosis")],
            ))
            .unwrap();
        catalog.add_datastore(DatastoreDecl::new("EHR", "EHRSchema")).unwrap();
        catalog.add_service(ServiceDecl::new("MedicalService", [ActorId::new("Doctor")])).unwrap();

        let medical = DiagramBuilder::new("MedicalService")
            .collect("Doctor", ["Name", "Diagnosis"], "consultation", 1)
            .unwrap()
            .create("Doctor", "EHR", ["Name", "Diagnosis"], "record", 2)
            .unwrap()
            .build();
        let system = SystemDataFlows::new().with_diagram(medical).unwrap();

        let acl = AccessControlList::new()
            .with_grant(Grant::read_write_all("Doctor", "EHR"))
            .with_grant(Grant::read_all("Administrator", "EHR"));
        (catalog, system, AccessPolicy::from_parts(acl, Default::default()))
    }

    fn alice_profile() -> UserProfile {
        UserProfile::new("alice")
            .consents_to(ServiceId::new("MedicalService"))
            .with_category_sensitivity(FieldId::new("Diagnosis"), SensitivityCategory::High)
    }

    #[test]
    fn monitor_raises_a_medium_alert_when_the_admin_gains_access() {
        let (catalog, system, policy) = fixture();
        let mut engine = ServiceEngine::new(catalog.clone(), system, policy.clone());
        let mut monitor = RuntimeMonitor::new(catalog, policy);
        monitor.register_user(&alice_profile());
        assert_eq!(monitor.user_count(), 1);

        let outcome = engine
            .execute(
                &UserId::new("alice"),
                &ServiceId::new("MedicalService"),
                &Record::new().with("Name", "Alice").with("Diagnosis", "flu"),
            )
            .unwrap();
        let alerts = monitor.observe_all(outcome.events());

        // The create flow makes the administrator able to read the sensitive
        // diagnosis: one Medium alert, matching the design-time analysis.
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].level(), RiskLevel::Medium);
        assert!(alerts[0].message().contains("Administrator"));
        assert!(alerts[0].message().contains("Diagnosis"));
        assert_eq!(monitor.alerts_for(&UserId::new("alice")).len(), 1);

        // The tracked state reflects both the doctor's identification and the
        // administrator's potential access.
        let state = monitor.state_of(&UserId::new("alice")).unwrap();
        let space = VarSpace::from_catalog(monitor_catalog());
        assert!(state.has(&space, &ActorId::new("Doctor"), &FieldId::new("Diagnosis")));
        assert!(state.could(&space, &ActorId::new("Administrator"), &FieldId::new("Diagnosis")));
        assert!(monitor.to_string().contains("1 users"));
    }

    fn monitor_catalog() -> &'static Catalog {
        use std::sync::OnceLock;
        static CATALOG: OnceLock<Catalog> = OnceLock::new();
        CATALOG.get_or_init(|| fixture().0)
    }

    #[test]
    fn revised_policy_raises_no_alert() {
        let (catalog, system, policy) = fixture();
        let revised = policy.with_applied(&PolicyDelta::new().revoke(
            "Administrator",
            Permission::Read,
            "EHR",
        ));
        let mut engine = ServiceEngine::new(catalog.clone(), system, revised.clone());
        let mut monitor = RuntimeMonitor::new(catalog, revised);
        monitor.register_user(&alice_profile());

        let outcome = engine
            .execute(
                &UserId::new("alice"),
                &ServiceId::new("MedicalService"),
                &Record::new().with("Name", "Alice").with("Diagnosis", "flu"),
            )
            .unwrap();
        let alerts = monitor.observe_all(outcome.events());
        assert!(alerts.is_empty());
        assert!(monitor.alerts().is_empty());
    }

    #[test]
    fn unregistered_users_and_denied_events_are_ignored() {
        let (catalog, system, policy) = fixture();
        let mut engine = ServiceEngine::new(catalog.clone(), system, policy.clone());
        let mut monitor = RuntimeMonitor::new(catalog, policy);
        // No registration for bob.
        let outcome = engine
            .execute(
                &UserId::new("bob"),
                &ServiceId::new("MedicalService"),
                &Record::new().with("Diagnosis", "flu"),
            )
            .unwrap();
        assert!(monitor.observe_all(outcome.events()).is_empty());
        assert!(monitor.state_of(&UserId::new("bob")).is_none());
    }

    #[test]
    fn delete_events_clear_potential_access() {
        let (catalog, system, policy) = fixture();
        let mut engine = ServiceEngine::new(catalog.clone(), system, policy.clone());
        let mut monitor = RuntimeMonitor::new(catalog.clone(), policy);
        monitor.register_user(&alice_profile());
        let outcome = engine
            .execute(
                &UserId::new("alice"),
                &ServiceId::new("MedicalService"),
                &Record::new().with("Diagnosis", "flu"),
            )
            .unwrap();
        monitor.observe_all(outcome.events());

        let delete = Event::new(
            99,
            "alice",
            "MedicalService",
            "Doctor",
            ActionKind::Delete,
            [FieldId::new("Diagnosis")],
            Some(privacy_model::DatastoreId::new("EHR")),
            true,
        );
        monitor.observe(&delete);
        let state = monitor.state_of(&UserId::new("alice")).unwrap();
        let space = VarSpace::from_catalog(&catalog);
        assert!(!state.could(&space, &ActorId::new("Administrator"), &FieldId::new("Diagnosis")));
    }

    #[test]
    fn alert_threshold_filters_low_findings() {
        let (catalog, system, policy) = fixture();
        let mut engine = ServiceEngine::new(catalog.clone(), system, policy.clone());
        let mut monitor =
            RuntimeMonitor::new(catalog, policy).with_alert_threshold(RiskLevel::High);
        monitor.register_user(&alice_profile());
        let outcome = engine
            .execute(
                &UserId::new("alice"),
                &ServiceId::new("MedicalService"),
                &Record::new().with("Diagnosis", "flu"),
            )
            .unwrap();
        // The exposure is Medium, which the High threshold suppresses.
        assert!(monitor.observe_all(outcome.events()).is_empty());
    }
}
