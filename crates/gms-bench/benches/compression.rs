//! Criterion bench of the compression schemes (Appendix B): encode
//! and decode throughput of gap/varint and the build and scan cost of
//! the compressed CSR against the raw one — the access-cost side of
//! the storage trade-off (§6.8).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gms_core::Graph;
use gms_graph::compress::gap;
use gms_graph::CompressedCsr;
use std::hint::black_box;

fn benches(c: &mut Criterion) {
    let graph = gms_gen::kronecker_default(12, 8, 5);
    let neighborhood: Vec<u32> = (0..4096u32).map(|i| i * 7).collect();

    let mut group = c.benchmark_group("compression");
    group.bench_function(BenchmarkId::new("gap_encode", "4096"), |b| {
        b.iter(|| black_box(gap::encode(black_box(&neighborhood))))
    });
    let encoded = gap::encode(&neighborhood);
    group.bench_function(BenchmarkId::new("gap_decode", "4096"), |b| {
        b.iter(|| black_box(gap::decode(black_box(&encoded), neighborhood.len())))
    });
    group.bench_function(BenchmarkId::new("compressed_csr_build", "kron12"), |b| {
        b.iter(|| black_box(CompressedCsr::from_csr(black_box(&graph))))
    });
    let compressed = CompressedCsr::from_csr(&graph);
    group.bench_function(BenchmarkId::new("compressed_csr_scan", "kron12"), |b| {
        b.iter(|| {
            let mut total = 0u64;
            for v in 0..graph.num_vertices() as u32 {
                total += compressed.neighbors(v).count() as u64;
            }
            black_box(total)
        })
    });
    group.bench_function(BenchmarkId::new("csr_scan", "kron12"), |b| {
        b.iter(|| {
            let mut total = 0u64;
            for v in 0..graph.num_vertices() as u32 {
                total += graph.neighbors_slice(v).len() as u64;
            }
            black_box(total)
        })
    });
    group.finish();
}

criterion_group! {
    name = compression;
    config = Criterion::default().sample_size(20);
    targets = benches
}
criterion_main!(compression);
