//! Differential property tests: the indexed disclosure analysis against the
//! retained scan-path analysis, over seeded random `privacy-synth` system
//! models and user populations.
//!
//! The indexed strategy must agree with the scan strategy on everything:
//! identical reports (findings, violation sets, risk levels, exposed-state
//! counts, annotated-transition lists) *and* — for the annotating entry
//! points — identical annotated LTSs, including the ids and labels of the
//! potential-read risk transitions both paths add, while the input LTS
//! stays as it was.

use privacy_lts::{generate_lts, GeneratorConfig, LtsIndex};
use privacy_model::{FieldId, ServiceId, UserProfile};
use privacy_risk::{DisclosureAnalysis, DisclosureReport};
use privacy_synth::{random_model, random_profiles, ModelGeneratorConfig, ProfileGeneratorConfig};
use proptest::prelude::*;

/// A seeded user population matched to the generated model's vocabulary.
fn population(catalog: &privacy_model::Catalog, seed: u64, count: usize) -> Vec<UserProfile> {
    let services: Vec<ServiceId> = catalog.services().map(|s| s.id().clone()).collect();
    let fields: Vec<FieldId> = catalog.fields().map(|f| f.id().clone()).collect();
    random_profiles(&ProfileGeneratorConfig {
        count,
        seed,
        services,
        consent_probability: 0.5,
        fields,
        sensitivity_probability: 0.6,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    #[test]
    fn indexed_analyse_equals_scan_analyse_on_random_models(
        seed in 0u64..1_000_000,
        profile_seed in 0u64..1_000_000,
        actors in 1usize..5,
        fields in 1usize..5,
        potential_reads in proptest::bool::ANY,
    ) {
        let model_config = ModelGeneratorConfig {
            actors,
            fields,
            seed,
            ..ModelGeneratorConfig::default()
        };
        let (catalog, system, policy) =
            random_model(&model_config).expect("generated model is valid");
        let mut config = GeneratorConfig::default().with_max_states(20_000);
        config.explore_potential_reads = potential_reads;
        let lts =
            generate_lts(&catalog, &system, &policy, &config).expect("generation in bounds");

        let index = LtsIndex::build(&lts);
        let analysis = DisclosureAnalysis::new(&catalog, &policy);
        for user in population(&catalog, profile_seed, 3) {
            // Annotating strategies: reports and annotated LTSs must match.
            let (indexed, indexed_lts) = analysis.analyse(&lts, &index, &user);
            let (scanned, scan_lts) = analysis.analyse_scan(&lts, &user);
            prop_assert_eq!(&indexed, &scanned);
            prop_assert_eq!(&indexed_lts, &scan_lts);

            // Read-only strategies agree with each other.
            let assessed = analysis.assess(&index, &user);
            let assessed_scan = analysis.assess_scan(&lts, &user);
            prop_assert_eq!(&assessed, &assessed_scan);

            // The read-only view agrees with the annotating analysis on
            // every risk dimension.
            prop_assert_eq!(assessed.len(), indexed.len());
            for (a, b) in assessed.findings().iter().zip(indexed.findings()) {
                prop_assert_eq!(a.actor(), b.actor());
                prop_assert_eq!(a.field(), b.field());
                prop_assert_eq!(a.datastore(), b.datastore());
                prop_assert_eq!(a.level(), b.level());
                prop_assert_eq!(a.severity(), b.severity());
                prop_assert_eq!(a.likelihood(), b.likelihood());
                prop_assert_eq!(a.exposed_states(), b.exposed_states());
            }
        }
        // No analysis changed its input, and the index still describes it.
        prop_assert_eq!(&lts, &generate_lts(&catalog, &system, &policy, &config).unwrap());
        prop_assert_eq!(index.transition_count(), lts.transition_count());
    }

    /// The batch API over one shared index equals the per-user scan path,
    /// with or without potential reads. The batch runs first, so its 1–4
    /// threads fill the index's per-(actor, field) read memo concurrently;
    /// a second assessment on the now-warm index must repeat the cold one.
    #[test]
    fn batch_assessment_equals_per_user_scan_assessment(
        seed in 0u64..1_000_000,
        profile_seed in 0u64..1_000_000,
        threads in 1usize..5,
        potential_reads in proptest::bool::ANY,
    ) {
        let (catalog, system, policy) =
            random_model(&ModelGeneratorConfig::default().with_seed(seed))
                .expect("generated model is valid");
        let mut config = GeneratorConfig::default().with_max_states(20_000);
        config.explore_potential_reads = potential_reads;
        let lts =
            generate_lts(&catalog, &system, &policy, &config).expect("generation in bounds");
        let index = LtsIndex::build(&lts);
        let analysis = DisclosureAnalysis::new(&catalog, &policy);

        let users = population(&catalog, profile_seed, 6);
        let batch = analysis.analyse_users_batch(&index, &users, Some(threads));
        let expected: Vec<DisclosureReport> =
            users.iter().map(|user| analysis.assess_scan(&lts, user)).collect();
        prop_assert_eq!(&batch, &expected);
        let warm: Vec<DisclosureReport> =
            users.iter().map(|user| analysis.assess(&index, user)).collect();
        prop_assert_eq!(warm, batch);
    }
}
