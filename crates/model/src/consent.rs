//! Consent: which services a user has agreed to use.
//!
//! The paper's risk analysis assumes *"the user has explicitly agreed that
//! actors within the chosen services can handle their personal data for
//! particular purposes in the course of providing that service"*. Actors of
//! consented services are **allowed actors**; all other actors are
//! **non-allowed** and any access they have to the user's personal data is a
//! potential unwanted disclosure.

use crate::ids::ServiceId;
use std::collections::BTreeSet;
use std::fmt;

/// The set of services a user has agreed to use.
///
/// # Example
///
/// ```
/// use privacy_model::{Consent, ServiceId};
///
/// let consent = Consent::to([ServiceId::new("MedicalService")]);
/// assert!(consent.includes(&ServiceId::new("MedicalService")));
/// assert!(!consent.includes(&ServiceId::new("MedicalResearchService")));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Consent {
    services: BTreeSet<ServiceId>,
}

impl Consent {
    /// Creates an empty consent (the user has agreed to nothing).
    pub fn none() -> Self {
        Consent::default()
    }

    /// Creates a consent covering the given services.
    pub fn to(services: impl IntoIterator<Item = ServiceId>) -> Self {
        Consent { services: services.into_iter().collect() }
    }

    /// Records agreement to an additional service. Returns `true` if the
    /// service was newly added.
    pub fn grant(&mut self, service: ServiceId) -> bool {
        self.services.insert(service)
    }

    /// Withdraws agreement to a service. Returns `true` if the service had
    /// been agreed to.
    pub fn withdraw(&mut self, service: &ServiceId) -> bool {
        self.services.remove(service)
    }

    /// Returns `true` if the user has agreed to the given service.
    pub fn includes(&self, service: &ServiceId) -> bool {
        self.services.contains(service)
    }

    /// The agreed services in sorted order.
    pub fn services(&self) -> impl Iterator<Item = &ServiceId> {
        self.services.iter()
    }

    /// Number of agreed services.
    pub fn len(&self) -> usize {
        self.services.len()
    }

    /// Returns `true` if the user has agreed to no services.
    pub fn is_empty(&self) -> bool {
        self.services.is_empty()
    }
}

impl FromIterator<ServiceId> for Consent {
    fn from_iter<T: IntoIterator<Item = ServiceId>>(iter: T) -> Self {
        Consent::to(iter)
    }
}

impl Extend<ServiceId> for Consent {
    fn extend<T: IntoIterator<Item = ServiceId>>(&mut self, iter: T) {
        self.services.extend(iter);
    }
}

impl fmt::Display for Consent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.services.is_empty() {
            return f.write_str("consent{}");
        }
        f.write_str("consent{")?;
        for (i, service) in self.services.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{service}")?;
        }
        f.write_str("}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grant_and_withdraw_round_trip() {
        let mut consent = Consent::none();
        assert!(consent.is_empty());
        assert!(consent.grant(ServiceId::new("MedicalService")));
        assert!(!consent.grant(ServiceId::new("MedicalService")));
        assert!(consent.includes(&ServiceId::new("MedicalService")));
        assert_eq!(consent.len(), 1);
        assert!(consent.withdraw(&ServiceId::new("MedicalService")));
        assert!(!consent.withdraw(&ServiceId::new("MedicalService")));
        assert!(consent.is_empty());
    }

    #[test]
    fn collect_and_extend() {
        let mut consent: Consent = [ServiceId::new("A"), ServiceId::new("B")].into_iter().collect();
        consent.extend([ServiceId::new("C")]);
        assert_eq!(consent.len(), 3);
        let names: Vec<_> = consent.services().map(ServiceId::as_str).collect();
        assert_eq!(names, vec!["A", "B", "C"]);
    }

    #[test]
    fn display_lists_services_or_empty_braces() {
        assert_eq!(Consent::none().to_string(), "consent{}");
        let consent = Consent::to([ServiceId::new("B"), ServiceId::new("A")]);
        assert_eq!(consent.to_string(), "consent{A, B}");
    }
}
