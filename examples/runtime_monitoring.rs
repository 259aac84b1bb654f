//! Runtime monitoring: execute a synthetic workload against the healthcare
//! system and let the runtime privacy monitor raise alerts as the events
//! stream in — the paper's "monitor the privacy risks during the lifetime of
//! the service" scenario.
//!
//! Two monitors consume the same stream: the scan-path [`RuntimeMonitor`]
//! observing each request's events as the engine executes it, and the
//! [`IndexedMonitor`] replaying the log as one sharded batch over the same
//! columnar [`LtsIndex`] the design-time analyses probe. Their alert streams
//! are identical — the index only changes how fast the answer arrives.
//!
//! Run with `cargo run --example runtime_monitoring`.

use privacy_mde::core::casestudy;
use privacy_mde::lts::LtsIndex;
use privacy_mde::model::{Record, SensitivityCategory, UserId, UserProfile};
use privacy_mde::runtime::monitor::RuntimeMonitor;
use privacy_mde::runtime::{IndexedMonitor, ServiceEngine};
use privacy_mde::synth::{random_workload, WorkloadConfig};
use std::sync::Arc;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let system = casestudy::healthcare()?;
    let mut engine = ServiceEngine::new(
        system.catalog().clone(),
        system.dataflows().clone(),
        system.policy().clone(),
    );
    // The design-time model and its analysis index, shared with the
    // operation-time monitor.
    let index = Arc::new(LtsIndex::build(&system.generate_lts()?));
    let mut indexed =
        IndexedMonitor::new(system.catalog().clone(), system.policy().clone(), Arc::clone(&index))
            .with_threads(Some(4));
    let mut monitor = RuntimeMonitor::new(system.catalog().clone(), system.policy().clone());

    // Register twenty users who all consent to the Medical Service only and
    // are sensitive about their diagnosis (the Case Study A profile).
    let users: Vec<UserId> = (0..20).map(|i| UserId::new(format!("patient-{i:03}"))).collect();
    for user in &users {
        let profile = UserProfile::new(user.as_str())
            .consents_to(casestudy::medical_service())
            .with_category_sensitivity(casestudy::fields::diagnosis(), SensitivityCategory::High);
        monitor.register_user(&profile);
        indexed.register_user(&profile);
    }

    // A synthetic workload biased towards the medical service.
    let workload = random_workload(&WorkloadConfig {
        length: 60,
        seed: 2026,
        users: users.clone(),
        services: vec![(casestudy::medical_service(), 0.8), (casestudy::research_service(), 0.2)],
    });
    println!("replaying {} service requests...", workload.len());

    // Execute each request and let the scan monitor observe its events as
    // they happen; a request for an unknown service fails without events.
    let mut alerts = Vec::new();
    for request in &workload {
        let record = Record::new()
            .with("Name", request.user().as_str())
            .with("Medical Issues", "chest pain")
            .with("Diagnosis", "hypertension")
            .with("Treatment Information", "medication");
        if let Ok(outcome) = engine.execute(request.user(), request.service(), &record) {
            for event in outcome.events() {
                alerts.extend(monitor.observe(event));
            }
        }
    }

    println!("event log: {} events ({} denied)", engine.log().len(), engine.log().denied().len());
    println!("alerts raised: {}", alerts.len());
    for alert in alerts.iter().take(5) {
        println!("  {alert}");
    }
    if alerts.len() > 5 {
        println!("  ... and {} more", alerts.len() - 5);
    }
    println!(
        "EHR now holds {} patient records",
        engine.stores().record_count(&privacy_mde::model::DatastoreId::new("EHR"))
    );
    println!("{monitor}");

    // Replay the same log through the index-backed monitor: events resolve
    // once through the shared index's interners, per-user state shards over
    // four worker threads, and the alert stream comes out identical.
    let batch_alerts = indexed.ingest_batch(engine.log().events()).to_vec();
    println!("{indexed}");
    assert_eq!(batch_alerts.len(), monitor.alerts().len());
    assert_eq!(batch_alerts.len(), alerts.len());
    for (streamed, batched) in monitor.alerts().iter().zip(&batch_alerts) {
        assert_eq!(streamed.level(), batched.level());
        assert_eq!(streamed.message(), batched.message());
    }
    println!(
        "indexed batch ingestion raised the same {} alerts in the same order",
        batch_alerts.len()
    );

    // The design-time model predicted this exposure: the same index answers
    // the operation-time question and the design-time one.
    if let Some(alert) = indexed.drain_alerts().first() {
        let admin = casestudy::actors::administrator();
        let diagnosis = casestudy::fields::diagnosis();
        println!(
            "design-time cross-check for `{alert}`: model says administrator can identify \
             diagnosis = {}",
            index.can_actor_identify(&admin, &diagnosis)
        );
    }
    Ok(())
}
