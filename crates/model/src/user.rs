//! User profiles: the per-user inputs to risk analysis.
//!
//! Section III-A of the paper assumes two pieces of information about the
//! user: (1) which services they agree to use, and (2) their sensitivities
//! about particular fields. A [`UserProfile`] bundles both, together with the
//! user's identifier; risk analysis *"takes the user privacy control
//! requirements and annotates the model with their risk; hence there is an
//! instance for each user"*.

use crate::consent::Consent;
use crate::ids::{FieldId, ServiceId, UserId};
use crate::sensitivity::{Sensitivity, SensitivityCategory, SensitivityProfile};
use std::fmt;

/// The privacy-control requirements of one user of the system.
///
/// # Example
///
/// ```
/// use privacy_model::{FieldId, SensitivityCategory, ServiceId, UserProfile};
///
/// let user = UserProfile::new("patient-1")
///     .consents_to(ServiceId::new("MedicalService"))
///     .with_category_sensitivity(FieldId::new("Diagnosis"), SensitivityCategory::High);
///
/// assert!(user.consent().includes(&ServiceId::new("MedicalService")));
/// assert_eq!(
///     user.sensitivities().sensitivity(&FieldId::new("Diagnosis")).category(),
///     SensitivityCategory::High
/// );
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct UserProfile {
    id: UserId,
    consent: Consent,
    sensitivities: SensitivityProfile,
}

impl UserProfile {
    /// Creates a profile for the given user with no consent and no declared
    /// sensitivities.
    pub fn new(id: impl Into<UserId>) -> Self {
        UserProfile {
            id: id.into(),
            consent: Consent::none(),
            sensitivities: SensitivityProfile::new(),
        }
    }

    /// Builder-style: records consent to a service.
    pub fn consents_to(mut self, service: ServiceId) -> Self {
        self.consent.grant(service);
        self
    }

    /// Builder-style: sets a quantitative sensitivity for a field.
    pub fn with_sensitivity(mut self, field: FieldId, sensitivity: Sensitivity) -> Self {
        self.sensitivities.set(field, sensitivity);
        self
    }

    /// Builder-style: sets a categorical sensitivity for a field.
    pub fn with_category_sensitivity(
        mut self,
        field: FieldId,
        category: SensitivityCategory,
    ) -> Self {
        self.sensitivities.set_category(field, category);
        self
    }

    /// Builder-style: replaces the whole sensitivity profile.
    pub fn with_sensitivities(mut self, sensitivities: SensitivityProfile) -> Self {
        self.sensitivities = sensitivities;
        self
    }

    /// Builder-style: replaces the whole consent set.
    pub fn with_consent(mut self, consent: Consent) -> Self {
        self.consent = consent;
        self
    }

    /// The user's identifier.
    pub fn id(&self) -> &UserId {
        &self.id
    }

    /// The user's consent.
    pub fn consent(&self) -> &Consent {
        &self.consent
    }

    /// Mutable access to the user's consent (e.g. to model a user granting
    /// or withdrawing consent while the system is running).
    pub fn consent_mut(&mut self) -> &mut Consent {
        &mut self.consent
    }

    /// The user's sensitivity profile.
    pub fn sensitivities(&self) -> &SensitivityProfile {
        &self.sensitivities
    }

    /// Mutable access to the user's sensitivity profile.
    pub fn sensitivities_mut(&mut self) -> &mut SensitivityProfile {
        &mut self.sensitivities
    }
}

impl fmt::Display for UserProfile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "user {} ({} consented services, {} declared sensitivities)",
            self.id,
            self.consent.len(),
            self.sensitivities.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_accumulates_consent_and_sensitivities() {
        let user = UserProfile::new("u1")
            .consents_to(ServiceId::new("A"))
            .consents_to(ServiceId::new("B"))
            .with_sensitivity(FieldId::new("x"), Sensitivity::clamped(0.4))
            .with_category_sensitivity(FieldId::new("y"), SensitivityCategory::High);

        assert_eq!(user.id().as_str(), "u1");
        assert_eq!(user.consent().len(), 2);
        assert_eq!(user.sensitivities().len(), 2);
        assert_eq!(user.sensitivities().sensitivity(&FieldId::new("x")).value(), 0.4);
    }

    #[test]
    fn replacing_consent_and_profile_wholesale() {
        let consent = Consent::to([ServiceId::new("S")]);
        let mut profile = SensitivityProfile::new();
        profile.set(FieldId::new("f"), Sensitivity::MAX);

        let user = UserProfile::new("u2")
            .with_consent(consent.clone())
            .with_sensitivities(profile.clone());
        assert_eq!(user.consent(), &consent);
        assert_eq!(user.sensitivities(), &profile);
    }

    #[test]
    fn mutable_accessors_allow_runtime_changes() {
        let mut user = UserProfile::new("u3").consents_to(ServiceId::new("S"));
        user.consent_mut().withdraw(&ServiceId::new("S"));
        assert!(user.consent().is_empty());
        user.sensitivities_mut().set(FieldId::new("f"), Sensitivity::MAX);
        assert_eq!(user.sensitivities().sensitivity(&FieldId::new("f")), Sensitivity::MAX);
    }

    #[test]
    fn display_summarises_profile() {
        let user = UserProfile::new("u4").consents_to(ServiceId::new("S"));
        assert_eq!(user.to_string(), "user u4 (1 consented services, 0 declared sensitivities)");
    }
}
