//! Ablation / scaling benches (not in the paper, but probing its core claim):
//! how LTS generation scales with the number of actors and fields, and how
//! the potential-read exploration changes the cost. The runtime monitor's
//! scaling is the `runtime_scaling` bin's subject.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use privacy_bench::scaled_system;
use privacy_lts::GeneratorConfig;
use std::hint::black_box;

fn bench_lts_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_lts_scaling");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_secs(2));
    for (actors, fields) in [(2usize, 4usize), (4, 8), (6, 12), (8, 16)] {
        let system = scaled_system(actors, fields).expect("scaled system builds");
        let variables = 2 * actors * fields;
        group.bench_with_input(
            BenchmarkId::new("generate", format!("{actors}a_{fields}f_{variables}vars")),
            &system,
            |b, system| b.iter(|| black_box(system.generate_lts().expect("generates"))),
        );
    }
    // Ablation: the potential-read exploration on a mid-sized model.
    let system = scaled_system(4, 6).expect("scaled system builds");
    group.bench_function("generate_with_potential_reads_4a_6f", |b| {
        let config = GeneratorConfig::default().with_potential_reads().with_max_states(2_000_000);
        b.iter(|| black_box(system.generate_lts_with(&config).expect("generates")))
    });
    group.finish();
}

criterion_group!(benches, bench_lts_scaling);
criterion_main!(benches);
