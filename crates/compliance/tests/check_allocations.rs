//! Heap allocations of `check_lts_indexed`, counted by a global allocator.
//!
//! A check allocates per report — its verdict list, its violation list and
//! a few probe scratch buffers — not per statement: a statement that holds
//! allocates nothing, a violation allocates only its own payload (an
//! exposure violation's actor list; a field or transition violation holds
//! shared handles), and no `Statement` is cloned into the report.

// The counting allocator needs `unsafe impl GlobalAlloc`; it only forwards
// to `System`.
#![allow(unsafe_code)]

use privacy_compliance::{
    check_lts_indexed, ActorMatcher, ComplianceReport, FieldMatcher, PrivacyPolicy, Statement,
};
use privacy_core::casestudy;
use privacy_lts::{ActionKind, Lts, LtsIndex};
use privacy_model::{ActorId, FieldId, Purpose, ServiceId};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeSet;

struct Counting;

thread_local! {
    /// Allocations (including reallocations) made by the current thread.
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn count_one() {
    // A const-initialised `Cell` has no destructor, so this neither
    // allocates nor fails during thread teardown.
    let _ = ALLOCATIONS.try_with(|count| count.set(count.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `System`'s guarantees are this allocator's; counting only bumps a
// thread-local `Cell`, which never re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: `ptr` was allocated by `System` with `layout`, and the
        // caller upholds `GlobalAlloc::realloc`'s contract for `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The report of one check and the allocations the check made.
fn counted_check(lts: &Lts, index: &LtsIndex, policy: &PrivacyPolicy) -> (ComplianceReport, usize) {
    let before = ALLOCATIONS.with(Cell::get);
    let report = check_lts_indexed(lts, index, policy);
    (report, ALLOCATIONS.with(Cell::get) - before)
}

/// `statements` repeated `times` times, in order.
fn repeated(statements: &[Statement], times: usize) -> PrivacyPolicy {
    (0..times).flat_map(|_| statements.iter().cloned()).collect()
}

/// Statements of every kind that hold on the plain healthcare LTS (the
/// service limit is skipped), several of which fill probe scratch buffers.
fn passing_statements(lts: &Lts) -> Vec<Statement> {
    let purposes: BTreeSet<Purpose> =
        lts.transitions().filter_map(|(_, t)| t.label().purpose().cloned()).collect();
    vec![
        Statement::forbid(
            "NO-RESEARCHER-RAW",
            "researchers never read raw records",
            ActorMatcher::only([casestudy::actors::researcher()]),
            Some(ActionKind::Read),
            FieldMatcher::only([
                casestudy::fields::diagnosis(),
                casestudy::fields::medical_issues(),
                casestudy::fields::treatment(),
            ]),
        ),
        Statement::forbid(
            "NO-GHOST",
            "a ghost does nothing",
            ActorMatcher::only([ActorId::new("Ghost")]),
            None,
            FieldMatcher::Any,
        ),
        Statement::forbid(
            "NO-DELETE",
            "nobody deletes",
            ActorMatcher::Any,
            Some(ActionKind::Delete),
            FieldMatcher::Any,
        ),
        Statement::purpose_limit("PURPOSES", "declared purposes only", FieldMatcher::Any, purposes),
        Statement::purpose_limit(
            "PURPOSE-GHOST",
            "a ghost field's purposes",
            FieldMatcher::only([FieldId::new("GhostField")]),
            [Purpose::new("nothing").unwrap()],
        ),
        Statement::require_erasure(
            "ERASE-GHOST",
            "a ghost field is erasable",
            FieldMatcher::only([FieldId::new("GhostField")]),
        ),
        Statement::max_exposure("EXPOSE-NAME", "a loose bound", casestudy::fields::name(), 10),
        Statement::service_limit(
            "SERVICE",
            "skipped on an LTS",
            FieldMatcher::Any,
            [ServiceId::new("MedicalService")],
        ),
    ]
}

#[test]
fn a_check_allocates_per_report_not_per_statement_or_violation() {
    let system = casestudy::healthcare().unwrap();
    let lts = system.generate_lts().unwrap();
    let index = LtsIndex::build(&lts);

    // Passing statements: eight copies of the policy cost what one does.
    let passing = passing_statements(&lts);
    let (once, once_allocations) = counted_check(&lts, &index, &repeated(&passing, 1));
    assert!(once.is_compliant() && once.skipped().count() == 1, "{once}");
    let (_, eight_allocations) = counted_check(&lts, &index, &repeated(&passing, 8));
    assert_eq!(eight_allocations, once_allocations, "a passing statement allocated");

    // Erasure violations hold a shared field id: 91 more violations cost
    // only the growth of the report's one violation list.
    let erase = [Statement::require_erasure("ERASE-ALL", "all erasable", FieldMatcher::Any)];
    let (once, once_allocations) = counted_check(&lts, &index, &repeated(&erase, 1));
    let (eight, eight_allocations) = counted_check(&lts, &index, &repeated(&erase, 8));
    assert_eq!(once.violation_count(), 13);
    assert_eq!(eight.violation_count(), 104);
    assert!(eight_allocations <= once_allocations + 4, "{once_allocations} -> {eight_allocations}");

    // An exposure violation allocates its actor list, and nothing else.
    let expose = [Statement::max_exposure("EXPOSE", "nobody", casestudy::fields::name(), 0)];
    let (once, once_allocations) = counted_check(&lts, &index, &repeated(&expose, 1));
    let (eight, eight_allocations) = counted_check(&lts, &index, &repeated(&expose, 8));
    assert_eq!((once.violation_count(), eight.violation_count()), (1, 8));
    assert!(
        eight_allocations <= once_allocations + 7 + 4,
        "{once_allocations} -> {eight_allocations}"
    );
}

#[test]
fn reports_share_the_policy_statements_instead_of_cloning_them() {
    let system = casestudy::healthcare().unwrap();
    let lts = system.generate_lts().unwrap();
    let index = LtsIndex::build(&lts);
    let policy = repeated(&passing_statements(&lts), 2);
    let report = check_lts_indexed(&lts, &index, &policy);
    assert!(std::ptr::eq(report.statements(), policy.statements()));
    assert!(report.outcomes().zip(policy.iter()).all(|(o, s)| std::ptr::eq(o.statement(), s)));
}
