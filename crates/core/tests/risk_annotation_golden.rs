//! Golden gate of the risk analyses' annotated LTS.
//!
//! The disclosure and pseudonymisation analyses annotate transitions and
//! append risk-transitions (the dotted edges of Fig. 4). This suite pins what
//! they produce, byte for byte:
//!
//! * the DOT export of Case A's annotated LTS (`Pipeline::analyse_user`) and
//!   of Case B's (`Pipeline::analyse_user_and_release`, where the
//!   pseudonymisation analysis runs over the disclosure's annotated LTS), as
//!   checked-in files under `tests/golden/`;
//! * an FNV-1a digest of the disclosure report plus the annotated LTS's DOT
//!   (state variables shown) over 20 seeded random models, with potential
//!   reads off and on.
//!
//! Node and transition numbering is part of the contract: states and
//! transitions keep their append order.

use privacy_anonymity::ValueRiskPolicy;
use privacy_core::{casestudy, Pipeline};
use privacy_lts::dot::{lts_to_dot, lts_to_dot_with, DotOptions};
use privacy_lts::{generate_lts, GeneratorConfig, LtsIndex};
use privacy_model::{FieldId, ServiceId};
use privacy_risk::DisclosureAnalysis;
use privacy_synth::{
    random_model, random_profiles, table1_release, ModelGeneratorConfig, ProfileGeneratorConfig,
};

/// FNV-1a over a byte string.
fn fnv64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[test]
fn case_a_annotated_lts_matches_its_dot_golden() {
    let system = casestudy::healthcare().unwrap();
    let outcome = Pipeline::new(&system).analyse_user(&casestudy::case_a_user()).unwrap();
    let stats = outcome.lts.stats();
    assert_eq!((stats.states, stats.transitions, stats.risk_transitions), (15, 14, 8));
    assert_eq!(lts_to_dot(&outcome.lts), include_str!("golden/case_a.dot"));
}

#[test]
fn case_b_annotated_lts_matches_its_dot_golden() {
    let system = casestudy::healthcare().unwrap();
    let pipeline =
        Pipeline::new(&system).with_generator(GeneratorConfig::default().with_max_states(500_000));
    let outcome = pipeline
        .analyse_user_and_release(
            &casestudy::case_a_user(),
            &casestudy::case_b_adversary(),
            &table1_release(),
            ValueRiskPolicy::weight_within_5kg_at_90_percent(),
            &casestudy::table1_visible_sets(),
            Some(0.5),
        )
        .unwrap();
    let stats = outcome.lts.stats();
    assert_eq!((stats.states, stats.transitions, stats.risk_transitions), (186, 203, 158));
    assert_eq!(lts_to_dot(&outcome.lts), include_str!("golden/case_b.dot"));
}

/// The digests of `random_model` seeds `0..20`, each with potential reads
/// off and then on.
const DIGESTS: [[u64; 2]; 20] = [
    [0x0263_8a13_5bce_3d75, 0xa8a6_2933_0613_e327],
    [0x1190_2e44_674f_97df, 0x2f7f_293b_e8f0_397d],
    [0xb85c_d25e_0e7f_6db1, 0x36e9_ec4f_72c8_3549],
    [0x950e_c59e_0e82_e888, 0x2bfc_6d7a_aae6_def4],
    [0x73c4_3728_d5e3_4a98, 0x6d13_0672_1b1a_2e28],
    [0x9f9d_0cc1_fd46_4921, 0x9f9d_0cc1_fd46_4921],
    [0x211e_4ba9_184e_5408, 0xf2d3_75cc_bb99_6d42],
    [0xda70_d65c_4076_c659, 0x5573_3a8c_d6af_af71],
    [0xfeff_00c6_0b82_26fb, 0xfeff_00c6_0b82_26fb],
    [0xe931_8268_a240_fbc0, 0xa7aa_ccf3_642b_a1bc],
    [0x38e9_3f06_a607_059c, 0x924e_7091_c2f2_219d],
    [0x1cb5_4273_4280_d1af, 0x1cb5_4273_4280_d1af],
    [0x3466_2651_efc7_2dec, 0xb9cc_4a7a_4606_a91c],
    [0x41cd_baa9_e8f2_36eb, 0xa733_3dd5_49da_8c80],
    [0x6d7a_1ab1_dbf9_8703, 0xc126_fd1e_a54f_a4ad],
    [0x55f8_c096_c5cf_dda0, 0x59af_029b_049f_d5b6],
    [0x9889_0904_0c2c_d089, 0x9e48_120c_8570_0dfb],
    [0xbd84_6cc0_b580_85de, 0xbd84_6cc0_b580_85de],
    [0xff66_8c63_bec1_cd37, 0xff66_8c63_bec1_cd37],
    [0xe423_5a70_f820_34fd, 0x3a88_1e30_9d64_e928],
];

/// The digest of one seeded user's disclosure report plus the annotated
/// LTS's DOT, and the number of risk-transitions the analysis added.
fn disclosure_digest(seed: u64, potential_reads: bool) -> (u64, usize) {
    let (catalog, system, policy) = random_model(&ModelGeneratorConfig {
        actors: 2 + seed as usize % 3,
        fields: 2 + (seed as usize / 3) % 3,
        grant_probability: 0.75,
        seed,
        ..ModelGeneratorConfig::default()
    })
    .expect("generated model is valid");
    let mut config = GeneratorConfig::default().with_max_states(20_000);
    config.explore_potential_reads = potential_reads;
    let lts = generate_lts(&catalog, &system, &policy, &config).expect("generation in bounds");
    let user = random_profiles(&ProfileGeneratorConfig {
        count: 1,
        seed: seed + 1_000,
        services: catalog.services().map(|s| s.id().clone()).collect::<Vec<ServiceId>>(),
        consent_probability: 0.2,
        fields: catalog.fields().map(|f| f.id().clone()).collect::<Vec<FieldId>>(),
        sensitivity_probability: 0.6,
    })
    .remove(0);
    let (report, lts) =
        DisclosureAnalysis::new(&catalog, &policy).analyse(&lts, &LtsIndex::build(&lts), &user);
    let options = DotOptions { show_state_variables: true, ..DotOptions::default() };
    let rendered = format!("{report:?}\n{}", lts_to_dot_with(&lts, &options));
    (fnv64(rendered.as_bytes()), lts.stats().risk_transitions)
}

#[test]
fn disclosure_reports_and_annotated_ltss_match_their_digests() {
    let runs: Vec<[(u64, usize); 2]> = (0..20u64)
        .map(|seed| [disclosure_digest(seed, false), disclosure_digest(seed, true)])
        .collect();
    // The seeds must exercise the annotation, not only empty reports.
    let annotating = runs.iter().flatten().filter(|(_, added)| *added > 0).count();
    assert!(annotating >= 20, "only {annotating} of 40 runs add risk-transitions");
    let actual: Vec<[u64; 2]> = runs.iter().map(|run| run.map(|(digest, _)| digest)).collect();
    assert_eq!(actual, DIGESTS, "{actual:#x?}");
}
