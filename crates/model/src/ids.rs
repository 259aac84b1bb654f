//! Strongly typed identifiers.
//!
//! Every element of the system model is referred to by a newtype identifier
//! wrapping a string. The newtypes prevent, at compile time, an actor
//! identifier being used where a field identifier is expected — a class of
//! bug that is easy to hit when generating large formal models from design
//! artefacts.
//!
//! An identifier holds its text as a shared, immutable `Arc<str>`: cloning
//! one (which events, snapshots, indexes and alerts do constantly) bumps a
//! reference count instead of copying the string, and dropping a clone on
//! another thread only decrements it. Equality, ordering, hashing and
//! formatting are those of the text, exactly as for a `String`.

use std::borrow::Borrow;
use std::fmt;
use std::sync::Arc;

/// Declares a string-backed identifier newtype with the common trait set.
macro_rules! string_id {
    ($(#[$doc:meta])* $name:ident) => {
        $(#[$doc])*
        #[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
        pub struct $name(Arc<str>);

        impl $name {
            /// Creates a new identifier from anything convertible to a string.
            pub fn new(id: impl Into<String>) -> Self {
                Self(id.into().into())
            }

            /// Returns the identifier as a string slice.
            pub fn as_str(&self) -> &str {
                &self.0
            }

            /// Returns `true` if the identifier is the empty string.
            pub fn is_empty(&self) -> bool {
                self.0.is_empty()
            }

            /// Consumes the identifier, returning its text as a new `String`.
            pub fn into_string(self) -> String {
                self.0.as_ref().to_owned()
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str(&self.0)
            }
        }

        impl From<&str> for $name {
            fn from(value: &str) -> Self {
                Self(value.into())
            }
        }

        impl From<String> for $name {
            fn from(value: String) -> Self {
                Self(value.into())
            }
        }

        impl AsRef<str> for $name {
            fn as_ref(&self) -> &str {
                &self.0
            }
        }

        impl Borrow<str> for $name {
            fn borrow(&self) -> &str {
                &self.0
            }
        }
    };
}

string_id! {
    /// Identifies an actor (an individual or a role type that can identify
    /// the user's personal data), e.g. `Doctor` or `Researcher`.
    ActorId
}

string_id! {
    /// Identifies a personal-data field, e.g. `Name` or `Diagnosis`.
    FieldId
}

string_id! {
    /// Identifies a datastore, e.g. `EHR` or `Appointments`.
    DatastoreId
}

string_id! {
    /// Identifies a data schema describing the fields held by a datastore.
    SchemaId
}

string_id! {
    /// Identifies a service offered by the system, e.g. `MedicalService`.
    ServiceId
}

string_id! {
    /// Identifies a user (data subject) of the system.
    UserId
}

string_id! {
    /// Identifies a role used by role-based access control.
    RoleId
}

impl FieldId {
    /// Suffix appended to a field identifier to name its pseudonymised
    /// counterpart (the paper writes `weight_anon` for the anonymised
    /// version of `weight`).
    pub const ANON_SUFFIX: &'static str = "_anon";

    /// Returns the identifier of the pseudonymised version of this field.
    ///
    /// ```
    /// use privacy_model::FieldId;
    /// assert_eq!(FieldId::new("Weight").anonymised().as_str(), "Weight_anon");
    /// ```
    pub fn anonymised(&self) -> FieldId {
        FieldId::new(format!("{}{}", self.0, Self::ANON_SUFFIX))
    }

    /// Returns `true` if this identifier names a pseudonymised field.
    pub fn is_anonymised(&self) -> bool {
        self.0.ends_with(Self::ANON_SUFFIX)
    }

    /// Returns the identifier of the original field if this identifier names
    /// a pseudonymised field, or `None` otherwise.
    ///
    /// ```
    /// use privacy_model::FieldId;
    /// let anon = FieldId::new("Weight").anonymised();
    /// assert_eq!(anon.original(), Some(FieldId::new("Weight")));
    /// assert_eq!(FieldId::new("Weight").original(), None);
    /// ```
    pub fn original(&self) -> Option<FieldId> {
        self.0.strip_suffix(Self::ANON_SUFFIX).map(FieldId::from)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn display_round_trips() {
        let actor = ActorId::new("Doctor");
        assert_eq!(actor.to_string(), "Doctor");
        assert_eq!(actor.as_str(), "Doctor");
        assert_eq!(ActorId::from("Doctor"), actor);
        assert_eq!(ActorId::from(String::from("Doctor")), actor);
    }

    #[test]
    fn identifiers_are_ordered_and_hashable() {
        let mut set = BTreeSet::new();
        set.insert(FieldId::new("b"));
        set.insert(FieldId::new("a"));
        set.insert(FieldId::new("a"));
        let ordered: Vec<_> = set.iter().map(FieldId::as_str).collect();
        assert_eq!(ordered, vec!["a", "b"]);
    }

    #[test]
    fn empty_identifier_is_detectable() {
        assert!(ActorId::new("").is_empty());
        assert!(!ActorId::new("x").is_empty());
    }

    #[test]
    fn into_string_returns_inner_value() {
        assert_eq!(UserId::new("alice").into_string(), "alice");
    }

    #[test]
    fn anonymised_field_round_trip() {
        let weight = FieldId::new("Weight");
        let anon = weight.anonymised();
        assert!(anon.is_anonymised());
        assert!(!weight.is_anonymised());
        assert_eq!(anon.original(), Some(weight.clone()));
        assert_eq!(weight.original(), None);
    }

    #[test]
    fn borrow_allows_str_lookups() {
        use std::collections::HashMap;
        let mut map = HashMap::new();
        map.insert(DatastoreId::new("EHR"), 1usize);
        assert_eq!(map.get("EHR"), Some(&1));
    }

    #[test]
    fn clones_share_their_text() {
        let user = UserId::new("alice");
        let copy = user.clone();
        assert!(std::ptr::eq(user.as_str(), copy.as_str()));
        assert_eq!(format!("{copy:?}"), "UserId(\"alice\")");
    }

    #[test]
    fn default_is_empty() {
        assert!(ServiceId::default().is_empty());
        assert!(RoleId::default().is_empty());
        assert!(SchemaId::default().is_empty());
    }
}
