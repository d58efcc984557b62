//! Criterion bench of the vertex-similarity kernel (§6.5): the seven
//! measures over a batch of vertex pairs, each scored by one fused
//! pass over the two CSR neighbour slices (merge/galloping).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gms_core::CancelToken;
use gms_learn::{similarity_batch, SimilarityMeasure};
use std::hint::black_box;

fn benches(c: &mut Criterion) {
    let graph = gms_gen::kronecker_default(12, 10, 3);
    let pairs: Vec<(u32, u32)> = (0..2_000u32)
        .map(|i| (i * 2 % 4096, (i * 7 + 1) % 4096))
        .collect();
    let none = CancelToken::none();
    let mut group = c.benchmark_group("similarity");
    for measure in SimilarityMeasure::ALL {
        group.bench_function(BenchmarkId::new(measure.label(), "kron12x2000"), |b| {
            b.iter(|| black_box(similarity_batch(&graph, measure, black_box(&pairs), &none)))
        });
    }
    group.finish();
}

criterion_group! {
    name = sim;
    config = Criterion::default().sample_size(10);
    targets = benches
}
criterion_main!(sim);
