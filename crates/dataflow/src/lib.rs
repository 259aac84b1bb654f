//! # privacy-dataflow
//!
//! The data-flow modelling framework of Section II-A of *"Identifying
//! Privacy Risks in Distributed Data Services"* (Grace et al., ICDCS 2018).
//!
//! Developers describe each service of their system as a **purpose-driven
//! data-flow diagram**: a set of nodes (the data subject, actors and
//! datastores) connected by directed **flow arrows**, each labelled with the
//! set of data fields that flows, the purpose of the flow and a numeric
//! execution order.
//!
//! The crate provides:
//!
//! * the diagram metamodel ([`node`], [`flow`], [`diagram`]);
//! * a builder for constructing diagrams fluently ([`diagram::DiagramBuilder`]);
//! * composition of several per-service diagrams into a whole-system view
//!   ([`system::SystemDataFlows`]);
//! * validation against the shared [`privacy_model::Catalog`]
//!   ([`validate`]); and
//! * Graphviz DOT export for visualisation ([`dot`]), mirroring Fig. 1 of
//!   the paper.
//!
//! # Example
//!
//! ```
//! use privacy_dataflow::DiagramBuilder;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let diagram = DiagramBuilder::new("MedicalService")
//!     .collect("Receptionist", ["Name", "Date of Birth"], "book appointment", 1)?
//!     .create("Receptionist", "Appointments", ["Name", "Date of Birth", "Appointment"],
//!             "book appointment", 2)?
//!     .read("Doctor", "Appointments", ["Name", "Appointment"], "consultation", 3)?
//!     .build();
//! assert_eq!(diagram.flows().len(), 3);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod diagram;
pub mod dot;
pub mod flow;
pub mod node;
pub mod system;
pub mod validate;

pub use diagram::{DataFlowDiagram, DiagramBuilder};
pub use flow::{Flow, FlowKind};
pub use node::Node;
pub use system::SystemDataFlows;
pub use validate::{ValidationIssue, ValidationReport};
