//! The learn kernels' answers, pinned through the registry: the mean
//! `similarity` score bit for bit and every `jarvis-patrick`
//! assignment, for all seven measures, on two gallery graphs and a
//! triangle-free star. The values are those of the `SetGraph`-based
//! kernels that the CSR slice fold replaced.

use gms::platform::kernel::{execute, GraphView};
use gms::prelude::*;

const MEASURES: [&str; 7] = [
    "jaccard",
    "overlap",
    "adamic-adar",
    "resource-allocation",
    "common-neighbors",
    "total-neighbors",
    "preferential-attachment",
];

fn run(name: &str, graph: &CsrGraph, params: Params) -> Outcome {
    let registry = Registry::with_builtins();
    let kernel = registry.get(name).expect("built-in kernel");
    let cx = RunCx::new(GraphView::Raw(graph), &params, kernel.params());
    execute(kernel, &cx).unwrap_or_else(|e| panic!("{name}: {e}"))
}

/// The gallery's `social-kron` and `econ-dense`.
fn gallery() -> [CsrGraph; 2] {
    [
        gms::gen::kronecker_default(10, 12, 101),
        gms::gen::gnp(400, 0.12, 107),
    ]
}

fn mean_bits(graph: &CsrGraph, measure: &str) -> u64 {
    let out = run("similarity", graph, Params::new().with("measure", measure));
    match out.payload {
        Payload::Scalar(mean) => mean.to_bits(),
        other => panic!("similarity answered {other:?}"),
    }
}

/// FNV-1a over the assignment, with the cluster count beside it.
fn assignment_digest(graph: &CsrGraph, measure: &str) -> (u64, u64) {
    let out = run(
        "jarvis-patrick",
        graph,
        Params::new().with("measure", measure),
    );
    let Payload::Assignment(ids) = out.payload else {
        panic!("jarvis-patrick answered {:?}", out.payload);
    };
    let hash = ids.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &id| {
        id.to_le_bytes()
            .iter()
            .fold(h, |h, &b| (h ^ b as u64).wrapping_mul(0x0100_0000_01b3))
    });
    (out.patterns, hash)
}

#[test]
fn similarity_means_keep_their_bits() {
    let pinned: [[u64; 7]; 2] = [
        [
            0x3fbafa127556e0de,
            0x3fdd13e33ddedc70,
            0x4010061f2c7b0a7c,
            0x3fd2dc346ca6b958,
            0x403133ee1ca84b34,
            0x4062f7f7f7f7f7f8,
            0x40b4a7aab27464e1,
        ],
        [
            0x3faffad8add174ef,
            0x3fc025e0cb223800,
            0x3ff79cb18e468d47,
            0x3fbe161775919521,
            0x4016fc2344297223,
            0x40570263fdf9c463,
            0x40a2abdec2122a75,
        ],
    ];
    for (graph, pinned) in gallery().iter().zip(pinned) {
        assert_eq!(MEASURES.map(|m| mean_bits(graph, m)), pinned);
    }
}

#[test]
fn a_triangle_free_star_keeps_the_sign_of_its_empty_sums() {
    // No edge of a star has a common neighbour: the degree-weighted
    // sums are empty and read −0.0, the ratios read +0.0.
    let star = CsrGraph::from_undirected_edges(5, &[(0, 1), (0, 2), (0, 3), (0, 4)]);
    let bits = MEASURES.map(|m| mean_bits(&star, m));
    let zero = 0.0f64.to_bits();
    let neg = (-0.0f64).to_bits();
    let want = [
        zero,
        zero,
        neg,
        neg,
        zero,
        5.0f64.to_bits(),
        4.0f64.to_bits(),
    ];
    assert_eq!(bits, want);
}

#[test]
fn jarvis_patrick_assignments_are_pinned() {
    // `(clusters, FNV-1a of the assignment)` per measure.
    let pinned: [[(u64, u64); 7]; 2] = [
        [
            (982, 2798161109736766225),
            (986, 14416097577698304476),
            (1013, 5900911190641218818),
            (1010, 17907546236909292131),
            (1014, 14167509190103356626),
            (1013, 5900911190641218818),
            (1017, 13959981356204105155),
        ],
        [
            (369, 1189702667319496198),
            (370, 10794187083360817661),
            (371, 12855889921482690385),
            (370, 1293849336888346247),
            (364, 11615445313254146263),
            (394, 8257625862683683784),
            (390, 6830750599123314964),
        ],
    ];
    for (graph, pinned) in gallery().iter().zip(pinned) {
        assert_eq!(MEASURES.map(|m| assignment_digest(graph, m)), pinned);
    }
}
