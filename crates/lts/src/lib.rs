//! # privacy-lts
//!
//! The formal model of user privacy described in Section II-B of
//! *"Identifying Privacy Risks in Distributed Data Services"* (Grace et al.,
//! ICDCS 2018): a **Labelled Transition System** whose states represent the
//! user's state of privacy and whose labelled transitions represent actions
//! performed by actors on the user's personal data.
//!
//! * [`space`] — the *variable space*: the ordered set of (actor, field)
//!   pairs; each pair contributes two Boolean state variables, `has` ("the
//!   actor has identified the field") and `could` ("the actor could identify
//!   the field"), giving the `2 × |actors| × |fields|` variables of the
//!   paper (60 for the healthcare example).
//! * [`state`] — a [`state::PrivacyState`]: a compact bit-set assignment of
//!   every state variable (Fig. 2).
//! * [`label`] — transition labels: the action (`collect`, `create`, `read`,
//!   `disclose`, `anon`, `delete`), the field set, the schema, the acting
//!   actor, an optional purpose and an optional risk annotation.
//! * [`lts`] — the LTS itself, frozen once built: interned states,
//!   transitions as columns over a table of distinct labels, outgoing lists
//!   as one CSR, reachability and path queries, statistics; and the
//!   append-only [`LtsBuilder`] every LTS outside generation is built with.
//! * [`generate`] — automatic generation of the LTS from the data-flow
//!   diagrams and the access-control policy using the extraction rules of
//!   Section II-B (Fig. 3). Generation compiles the artefacts to a
//!   dense-index flow program (the private `compile` module) and explores it
//!   with a breadth-first search over flat arenas on one core (the private
//!   `engine` module), whose id tables hash with [`hash`]; see
//!   `docs/PERFORMANCE.md` for the design.
//! * [`mod@reference`] — the retained pre-optimisation generator, used to
//!   differential-test and benchmark the engine.
//! * [`index`] — the analysis index ([`LtsIndex`]): a counting sort of a
//!   generated LTS's label-id column into one transitions-by-label CSR, plus
//!   per-state-variable reachability counts over the LTS's shared states, so
//!   the risk and compliance analyses decide once per label and probe
//!   instead of re-scanning the transition relation per question.
//! * [`query`] — privacy-specific queries used by the risk analyses; an
//!   [`LtsQuery`] answers each one from an [`LtsIndex`].
//! * [`dot`] — Graphviz export (Fig. 3 / Fig. 4 style, with risk transitions
//!   drawn dotted).
//!
//! # Example
//!
//! ```
//! use privacy_lts::{PrivacyState, VarSpace};
//! use privacy_model::{ActorId, FieldId};
//!
//! let space = VarSpace::new(
//!     [ActorId::new("Doctor"), ActorId::new("Researcher")],
//!     [FieldId::new("Name"), FieldId::new("Diagnosis")],
//! );
//! assert_eq!(space.variable_count(), 8);
//!
//! let mut state = PrivacyState::absolute(&space);
//! state.set_has(&space, &ActorId::new("Doctor"), &FieldId::new("Diagnosis"), true);
//! assert!(state.has(&space, &ActorId::new("Doctor"), &FieldId::new("Diagnosis")));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
mod compile;
pub mod dot;
mod engine;
pub mod generate;
pub mod hash;
pub mod index;
pub mod label;
pub mod lts;
pub mod query;
pub mod reference;
pub mod space;
pub mod state;

pub use generate::{generate_lts, GeneratorConfig};
pub use hash::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use index::LtsIndex;
pub use label::{ActionKind, RiskAnnotation, TransitionLabel};
pub use lts::{Lts, LtsBuilder, LtsStats, StateId, Transition, TransitionId};
pub use query::LtsQuery;
pub use reference::generate_lts_reference;
pub use space::VarSpace;
pub use state::PrivacyState;
