//! # privacy-interchange
//!
//! A textual **model interchange format** for the privacy-system models of
//! *"Identifying Privacy Risks in Distributed Data Services"* (Grace et al.,
//! ICDCS 2018).
//!
//! The paper's pipeline starts from *"design artifacts curated during the
//! system design phase"* — data-flow diagrams, data schemas and access
//! policies.  In the authors' (closed) tooling these live in an MDE editor;
//! here they are concrete text files in the `.psm` ("privacy system model")
//! format so that models can be versioned, diffed, reviewed and fed to the
//! analysis pipeline without writing Rust:
//!
//! ```text
//! system "Clinic" {
//!     actor Doctor : role "treats patients"
//!     field Name : identifier
//!     field Diagnosis : sensitive anonymised
//!     schema EHRSchema { Name, Diagnosis }
//!     datastore EHR : EHRSchema
//!     service MedicalService { actors Doctor }
//!
//!     policy {
//!         allow Doctor read, create on EHR
//!     }
//!
//!     flows MedicalService {
//!         1: collect Doctor { Name, Diagnosis } for "consultation"
//!         2: create Doctor -> EHR { Name, Diagnosis } for "record keeping"
//!     }
//!
//!     user "patient-1" {
//!         consents MedicalService
//!         sensitivity Diagnosis = high
//!     }
//! }
//! ```
//!
//! The crate is organised as a classic front end:
//!
//! * [`span`] — source positions and spans used by every diagnostic;
//! * [`token`] / [`lexer`] — tokenisation with comment support;
//! * [`ast`] — the abstract syntax tree of a model document;
//! * [`parser`] — a recursive-descent parser producing the AST;
//! * [`resolve`] — semantic resolution of the AST into a
//!   [`privacy_core::PrivacySystem`] plus the declared user profiles;
//! * [`printer`] — the inverse direction: rendering an existing system (and
//!   users) back into canonical `.psm` text, which round-trips through the
//!   parser;
//! * [`error`] — parse/resolve diagnostics with source excerpts;
//! * [`binary`] — the framed, checksummed binary codec persistable runtime
//!   artefacts (monitor snapshots) are serialized through.
//!
//! # Example
//!
//! ```
//! use privacy_interchange::{parse_document, render_document};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let source = r#"
//! system "Demo" {
//!     actor Analyst : role
//!     field Email : identifier
//!     schema CrmSchema { Email }
//!     datastore Crm : CrmSchema
//!     service Marketing { actors Analyst }
//!     policy { allow Analyst read on Crm }
//!     flows Marketing {
//!         1: read Analyst <- Crm { Email } for "campaign"
//!     }
//! }
//! "#;
//! let document = parse_document(source)?;
//! assert_eq!(document.system.catalog().actor_count(), 1);
//! let rendered = render_document(&document);
//! let again = parse_document(&rendered)?;
//! assert_eq!(again.system.catalog().actor_count(), 1);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ast;
pub mod binary;
pub mod error;
pub mod lexer;
pub mod parser;
pub mod printer;
pub mod resolve;
pub mod span;
pub mod token;

pub use ast::ModelAst;
pub use binary::{read_frame, write_frame, CodecError, Decoder, Encoder, FrameIoError};
pub use error::{InterchangeError, InterchangeErrorKind};
pub use parser::parse_ast;
pub use printer::{render_document, render_system};
pub use resolve::{resolve_ast, ModelDocument};
pub use span::{Position, Span};
pub use token::{Token, TokenKind};

/// Parses `.psm` source text all the way to a resolved [`ModelDocument`].
///
/// This is the main entry point: it lexes, parses and resolves the source,
/// returning the built [`privacy_core::PrivacySystem`] together with any
/// declared user profiles.
///
/// # Errors
///
/// Returns an [`InterchangeError`] carrying the source location of the first
/// lexical, syntactic or semantic problem encountered.
pub fn parse_document(source: &str) -> Result<ModelDocument, InterchangeError> {
    let ast = parse_ast(source)?;
    resolve_ast(&ast)
}
