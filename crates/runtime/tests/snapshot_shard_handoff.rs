//! Edge cases of the shard-handoff primitives,
//! [`MonitorSnapshot::extract_shards`] and [`MonitorSnapshot::retain_shards`],
//! and of the decode-time guard against a user persisted twice.
//!
//! Extracts share encoded shard bodies, so a decoded snapshot re-grouped by
//! shard and serialized again reproduces its bytes exactly. A frame whose
//! shards disagree about who owns a user is a typed decode error, never a
//! last-writer-wins resume.

use privacy_interchange::binary::{put_f64_row, put_u64_row, Encoder};
use privacy_lts::LtsIndex;
use privacy_model::{FieldId, Record, ServiceId};
use privacy_runtime::snapshot::{SNAPSHOT_KIND, SNAPSHOT_VERSION};
use privacy_runtime::{IndexedMonitor, MonitorSnapshot, ServiceEngine, SnapshotError};
use privacy_synth::{
    random_model, random_profiles, random_workload, ModelGeneratorConfig, ProfileGeneratorConfig,
    WorkloadConfig,
};
use std::sync::Arc;

/// A populated monitor over a small synthetic model: registered users and
/// an engine-produced stream, so the snapshot has real multi-shard state.
fn populated_monitor() -> IndexedMonitor {
    let config = ModelGeneratorConfig {
        actors: 3,
        fields: 4,
        datastores: 1,
        services: 2,
        flows_per_service: 3,
        grant_probability: 0.7,
        seed: 5,
        ..ModelGeneratorConfig::default()
    };
    let (catalog, dataflows, policy) = random_model(&config).expect("synth model");
    let lts = privacy_core::PrivacySystem::new(catalog.clone(), dataflows.clone(), policy.clone())
        .generate_lts()
        .expect("tiny model generates");
    let index = Arc::new(LtsIndex::build(&lts));

    let services: Vec<ServiceId> = catalog.services().map(|s| s.id().clone()).collect();
    let fields: Vec<FieldId> = catalog.fields().map(|f| f.id().clone()).collect();
    let users = random_profiles(&ProfileGeneratorConfig {
        count: 20,
        seed: 23,
        services: services.clone(),
        consent_probability: 0.5,
        fields: fields.clone(),
        sensitivity_probability: 0.6,
    });
    let mut monitor = IndexedMonitor::new(catalog.clone(), policy.clone(), index);
    for user in &users {
        monitor.register_user(user);
    }
    let mut engine = ServiceEngine::new(catalog, dataflows, policy);
    let workload = random_workload(&WorkloadConfig {
        length: 300,
        seed: 29,
        users: users.iter().map(|u| u.id().clone()).collect(),
        services: services.iter().map(|s| (s.clone(), 1.0)).collect(),
    });
    for request in &workload {
        let record = fields
            .iter()
            .fold(Record::new(), |record, field| record.with(field.clone(), format!("v-{field}")));
        let _ = engine.execute(request.user(), request.service(), &record);
    }
    let _ = monitor.ingest_batch(engine.log().events());
    monitor
}

/// Hand-encodes a snapshot frame with the given `(shard, users)` layout and
/// fingerprint — the only way to reach the duplicate-user path from outside
/// the crate, since the public API never produces one.
fn crafted_snapshot_bytes(fingerprint: u64, shards: &[(u32, &[&str])]) -> Vec<u8> {
    let mut encoder = Encoder::new(SNAPSHOT_KIND, SNAPSHOT_VERSION);
    encoder.u64(fingerprint);
    encoder.u32(1); // state words
    encoder.u32(1); // allowed words
    encoder.u32(0); // field count
    encoder.varu(shards.len() as u64);
    for (shard, users) in shards {
        encoder.varu(u64::from(*shard));
        encoder.varu(users.len() as u64);
        for user in *users {
            encoder.str_var(user);
            let mut row = Vec::new();
            put_u64_row(&mut row, &[0]); // state words
            put_u64_row(&mut row, &[0]); // allowed words
            put_f64_row(&mut row, &[]); // sensitivities
            encoder.varu(row.len() as u64);
            encoder.raw(&row);
        }
    }
    encoder.varu(0); // pending alerts
    encoder.finish()
}

#[test]
fn extracts_move_rows_without_reencoding_across_a_serialize_cycle() {
    // Extracts operate on *encoded* rows: re-grouping a decoded snapshot by
    // shard and serializing again must reproduce the original bytes exactly
    // — any decode/encode round trip hiding in the path would have to be
    // byte-perfectly canonical by accident to pass this.
    let bytes = populated_monitor().snapshot().to_bytes();
    let decoded = MonitorSnapshot::from_bytes(&bytes).expect("snapshot decodes");
    assert_eq!(decoded.to_bytes(), bytes, "decode → encode must be byte-identical");
    assert!(decoded.shards().len() >= 2, "fixture must span shards");
    let mut shards = Vec::new();
    for shard in decoded.shards() {
        let part = decoded.extract_shards(&[shard.shard()]);
        let part_bytes = part.to_bytes();
        let round_tripped = MonitorSnapshot::from_bytes(&part_bytes).expect("part decodes");
        assert_eq!(round_tripped, part, "shard {} part diverged", shard.shard());
        assert_eq!(round_tripped.to_bytes(), part_bytes);
        shards.extend(round_tripped.shards().iter().cloned());
    }
    assert_eq!(shards, decoded.shards(), "per-shard extracts must concatenate to the snapshot");
}

#[test]
fn decoding_a_snapshot_that_persists_a_user_twice_is_a_typed_error() {
    // A single frame whose shards disagree about who owns a user is
    // rejected at decode time.
    let bytes = crafted_snapshot_bytes(42, &[(0, &["ada"]), (1, &["ada"])]);
    let error = MonitorSnapshot::from_bytes(&bytes).expect_err("duplicate user must not decode");
    assert!(
        matches!(&error, SnapshotError::Malformed { detail } if detail.contains("more than once")),
        "unexpected error: {error}"
    );
}

#[test]
fn extract_and_retain_shard_edge_cases() {
    let snapshot = populated_monitor().snapshot();
    // Extracting shards the snapshot does not contain yields empty state.
    let absent = snapshot.extract_shards(&[9999]);
    assert_eq!(absent.user_count(), 0);
    assert!(absent.shards().is_empty());
    // Extract never carries pending alerts; fingerprint is preserved so the
    // extract still resumes against the same index.
    assert!(absent.pending_alerts().is_empty());
    assert_eq!(absent.fingerprint(), snapshot.fingerprint());
    // Retaining the empty set empties the snapshot in place.
    let mut emptied = snapshot.clone();
    emptied.retain_shards(&[]);
    assert_eq!(emptied.user_count(), 0);
    // Retain + extract of complementary sets partition the users.
    let owned: Vec<u32> = snapshot.shards().iter().map(|s| s.shard()).step_by(2).collect();
    let kept = snapshot.extract_shards(&owned);
    let mut rest = snapshot.clone();
    rest.retain_shards(
        &snapshot
            .shards()
            .iter()
            .map(|s| s.shard())
            .filter(|shard| !owned.contains(shard))
            .collect::<Vec<_>>(),
    );
    assert_eq!(kept.user_count() + rest.user_count(), snapshot.user_count());
}
