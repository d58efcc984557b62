//! Pattern-search scenario: subgraph isomorphism on a labeled target
//! (the §8.5 setup, scaled to laptop size), comparing the §6.4
//! optimizations — work splitting, work stealing, galloping set
//! algebra, candidate precompute.
//!
//! ```sh
//! cargo run --release --example subgraph_search
//! ```

use gms::matching::{
    count_embeddings, count_embeddings_parallel, IsoMode, IsoOptions, LabeledGraph,
    ParallelIsoConfig,
};
use std::time::Instant;

fn main() {
    // Labeled ER target (the original uses n=10000, p=0.2 on a 36-core
    // server; we scale to laptop size, preserving density and labels).
    let target = LabeledGraph::random_labels(gms::gen::gnp(250, 0.2, 5), 5, 5);
    // Induced query sampled from the target, so embeddings exist.
    let query = target.induced(&[3, 57, 101, 200, 211, 17]);
    println!(
        "target: n={}, labels=5; query: n={}",
        target.num_vertices(),
        query.num_vertices()
    );

    let t = Instant::now();
    let options = IsoOptions {
        mode: IsoMode::Induced,
        ..IsoOptions::default()
    };
    let expected = count_embeddings(&query, &target, &options);
    println!(
        "sequential VF2: {} embeddings in {:.2?}\n",
        expected,
        t.elapsed()
    );

    println!(
        "{:<34} {:>10} {:>12}",
        "configuration", "embeddings", "time"
    );
    // (label, pool width, config): each runs on an installed pool.
    let configs: [(&str, usize, ParallelIsoConfig); 4] = [
        (
            "1 thread (baseline)",
            1,
            ParallelIsoConfig {
                work_stealing: false,
                options,
            },
        ),
        (
            "4 threads, work splitting",
            4,
            ParallelIsoConfig {
                work_stealing: false,
                options,
            },
        ),
        (
            "4 threads, + work stealing",
            4,
            ParallelIsoConfig {
                work_stealing: true,
                options,
            },
        ),
        (
            "4 threads, stealing, no precompute",
            4,
            ParallelIsoConfig {
                work_stealing: true,
                options: IsoOptions {
                    precompute: false,
                    ..options
                },
            },
        ),
    ];
    for (label, threads, config) in configs {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("a pool of the configured width");
        let t = Instant::now();
        let found = pool.install(|| count_embeddings_parallel(&query, &target, &config));
        println!("{label:<34} {found:>10} {:>12.2?}", t.elapsed());
        assert_eq!(found, expected, "all drivers must agree");
    }
}
