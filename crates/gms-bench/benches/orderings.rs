//! Criterion bench of the preprocessing orderings (the Fig. 6
//! reordering costs): DEG vs DGR vs ADG at several ε. Each ADG ε is
//! timed twice: `ADG-ε` is the rank-only `OrderingKind::compute` that
//! kernels pay for, and `ADG-ε+diag` is `approx_degeneracy_order`
//! with the Table 5 diagnostics (rounds and the later-neighbor bound).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gms_order::{approx_degeneracy_order, degeneracy_order, degree_order, OrderingKind};
use std::hint::black_box;

fn benches(c: &mut Criterion) {
    let graph = gms_gen::kronecker_default(12, 8, 7);
    let mut group = c.benchmark_group("orderings");
    group.bench_function(BenchmarkId::new("DEG", "kron12"), |b| {
        b.iter(|| black_box(degree_order(black_box(&graph))))
    });
    group.bench_function(BenchmarkId::new("DGR", "kron12"), |b| {
        b.iter(|| black_box(degeneracy_order(black_box(&graph)).degeneracy))
    });
    for eps in [0.5, 0.1, 0.01] {
        group.bench_function(BenchmarkId::new(format!("ADG-{eps}"), "kron12"), |b| {
            b.iter(|| black_box(OrderingKind::ApproxDegeneracy(eps).compute(black_box(&graph))))
        });
        group.bench_function(BenchmarkId::new(format!("ADG-{eps}+diag"), "kron12"), |b| {
            b.iter(|| black_box(approx_degeneracy_order(black_box(&graph), eps).rounds))
        });
    }
    group.finish();
}

criterion_group! {
    name = orderings;
    config = Criterion::default().sample_size(10);
    targets = benches
}
criterion_main!(orderings);
