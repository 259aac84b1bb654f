//! Round-trip property tests: what the emitter renders, the ingester
//! parses back — exactly.
//!
//! Two oracles, per wire format (and the gzip wrapping):
//!
//! 1. **Event equality** — `render → ingest` returns a bit-identical
//!    `Vec<Event>`, including on adversarial ids stuffed with separators,
//!    quotes, escapes, unicode and embedded newlines;
//! 2. **Alert equality** — an [`IndexedMonitor`] fed the parsed events
//!    emits exactly the alerts of one fed the originals, over a realistic
//!    seeded healthcare workload.

use privacy_core::casestudy;
use privacy_ingest::{
    gunzip, gzip_compress_stored, ingest_bytes, FieldMapping, Format, IngestOptions,
};
use privacy_lts::{ActionKind, LtsIndex};
use privacy_model::{FieldId, Record, ServiceId, UserProfile};
use privacy_runtime::{Event, IndexedMonitor, ServiceEngine};
use privacy_synth::{
    random_profiles, random_workload, render_events, LogFormat, ProfileGeneratorConfig,
    WorkloadConfig, CSV_HEADER,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Id fragments chosen to stress every quoting/escaping path: separators,
/// quotes, backslashes, `=`, unicode, spaces, and embedded newlines.
const NASTY: &[&str] = &[
    "plain",
    "with space",
    "comma,inside",
    "semi;colon",
    "quo\"te",
    "back\\slash",
    "key=value",
    "tab\there",
    "new\nline",
    "Zürich",
    "東京",
    "emoji😀",
    "trailing ",
    " leading",
    "{brace}",
    "a;b;c",
    "\\;",
];

fn nasty_id(rng: &mut StdRng) -> String {
    let parts = rng.gen_range(1..=2usize);
    let mut id = String::new();
    for i in 0..parts {
        if i > 0 {
            id.push('-');
        }
        id.push_str(NASTY[rng.gen_range(0..NASTY.len())]);
    }
    id
}

fn arbitrary_events(seed: u64, count: usize) -> Vec<Event> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut sequence = 0u64;
    (0..count)
        .map(|_| {
            sequence += rng.gen_range(1..=3u64);
            let field_count = rng.gen_range(0..=4usize);
            let fields: Vec<FieldId> =
                (0..field_count).map(|_| FieldId::from(nasty_id(&mut rng).as_str())).collect();
            let datastore =
                if rng.gen_bool(0.5) { Some(nasty_id(&mut rng).as_str().into()) } else { None };
            let action = ActionKind::ALL[rng.gen_range(0..ActionKind::ALL.len())];
            Event::new(
                sequence,
                nasty_id(&mut rng).as_str(),
                nasty_id(&mut rng).as_str(),
                nasty_id(&mut rng).as_str(),
                action,
                fields,
                datastore,
                rng.gen_bool(0.8),
            )
        })
        .collect()
}

fn wire_format(format: LogFormat) -> Format {
    match format {
        LogFormat::Json => Format::Json,
        LogFormat::Logfmt => Format::Logfmt,
        LogFormat::Csv => Format::Csv,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Rendering then ingesting arbitrary adversarial events is lossless,
    /// in every format, with auto-detection and with the format declared.
    #[test]
    fn render_parse_is_identity(seed in 0u64..1 << 48, count in 1usize..40) {
        let events = arbitrary_events(seed, count);
        let mapping = FieldMapping::canonical();
        for format in LogFormat::ALL {
            let rendered = render_events(&events, format);
            for declared in [None, Some(wire_format(format))] {
                let options = IngestOptions { format: declared, ..IngestOptions::default() };
                let report = ingest_bytes(rendered.as_bytes(), &mapping, &options)
                    .unwrap_or_else(|e| panic!("{format} ingest failed: {e}\n{rendered}"));
                prop_assert_eq!(&report.events, &events);
                prop_assert_eq!(report.format, wire_format(format));
                prop_assert_eq!(report.stats.skipped, 0);
            }
        }
    }

    /// The gzip wrapping is transparent: compress → ingest equals plain
    /// ingest, and gunzip inverts the compressor exactly.
    #[test]
    fn gzip_wrapping_is_transparent(seed in 0u64..1 << 48, count in 1usize..24) {
        let events = arbitrary_events(seed, count);
        let mapping = FieldMapping::canonical();
        for format in LogFormat::ALL {
            let rendered = render_events(&events, format);
            let archive = gzip_compress_stored(rendered.as_bytes());
            prop_assert_eq!(gunzip(&archive).unwrap(), rendered.as_bytes());
            let report =
                ingest_bytes(&archive, &mapping, &IngestOptions::default()).unwrap();
            prop_assert_eq!(&report.events, &events);
        }
    }
}

/// A seeded healthcare event stream (the runtime benches' construction,
/// shrunk to test size).
fn healthcare_stream() -> (Vec<Event>, Vec<UserProfile>, privacy_core::PrivacySystem) {
    let system = casestudy::healthcare().expect("healthcare model builds");
    let catalog = system.catalog();
    let fields: Vec<FieldId> = catalog.fields().map(|f| f.id().clone()).collect();
    let services: Vec<(ServiceId, f64)> =
        catalog.services().map(|s| (s.id().clone(), 1.0)).collect();
    let users = random_profiles(&ProfileGeneratorConfig {
        count: 48,
        seed: 13,
        services: catalog.services().map(|s| s.id().clone()).collect(),
        consent_probability: 0.5,
        fields: fields.clone(),
        sensitivity_probability: 0.6,
    });
    let workload = random_workload(&WorkloadConfig {
        length: 600,
        seed: 17,
        users: users.iter().map(|u| u.id().clone()).collect(),
        services,
    });
    let mut engine =
        ServiceEngine::new(catalog.clone(), system.dataflows().clone(), system.policy().clone());
    for request in &workload {
        let record = fields
            .iter()
            .fold(Record::new(), |record, field| record.with(field.clone(), format!("v-{field}")));
        let _ = engine.execute(request.user(), request.service(), &record);
    }
    let events = engine.log().events().to_vec();
    (events, users, system)
}

#[test]
fn monitor_alerts_are_identical_through_every_wire_format() {
    let (events, users, system) = healthcare_stream();
    assert!(!events.is_empty());
    let lts = system.generate_lts().expect("LTS generates");
    let index = Arc::new(LtsIndex::build(&lts));
    let mut proto =
        IndexedMonitor::new(system.catalog().clone(), system.policy().clone(), Arc::clone(&index));
    for user in &users {
        proto.register_user(user);
    }
    let direct_alerts = proto.clone().ingest_batch(&events).to_vec();
    assert!(!direct_alerts.is_empty(), "the reference stream should raise alerts");

    let mapping = FieldMapping::canonical();
    for format in LogFormat::ALL {
        let rendered = render_events(&events, format);
        let report =
            ingest_bytes(rendered.as_bytes(), &mapping, &IngestOptions::default()).unwrap();
        assert_eq!(report.events, events, "{format} round trip");
        let parsed_alerts = proto.clone().ingest_batch(&report.events).to_vec();
        assert_eq!(parsed_alerts, direct_alerts, "{format} alert stream");
    }
    // And through the gzip wrapping.
    let archive = gzip_compress_stored(render_events(&events, LogFormat::Json).as_bytes());
    let report = ingest_bytes(&archive, &mapping, &IngestOptions::default()).unwrap();
    let parsed_alerts = proto.clone().ingest_batch(&report.events).to_vec();
    assert_eq!(parsed_alerts, direct_alerts, "json.gz alert stream");
}

#[test]
fn csv_header_matches_the_canonical_mapping() {
    // The emitter's header and the canonical mapping must agree on every
    // column name, or CSV round trips break silently.
    let events = arbitrary_events(5, 3);
    let rendered = render_events(&events, LogFormat::Csv);
    assert!(rendered.starts_with(CSV_HEADER));
    let report =
        ingest_bytes(rendered.as_bytes(), &FieldMapping::canonical(), &IngestOptions::default())
            .unwrap();
    assert_eq!(report.events, events);
}
