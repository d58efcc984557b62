//! The greedy `coloring` kernel's answers, pinned through the
//! registry: the number of colors and a digest of every vertex's color
//! under each `ordering`, on two gallery graphs. The values are those
//! of the sort-and-dedup greedy coloring that the stamp array replaced.

use gms::platform::kernel::{execute, GraphView};
use gms::prelude::*;

const ORDERINGS: [&str; 5] = ["adg", "natural", "degree", "degeneracy", "triangle"];

/// The gallery's `social-kron` and `econ-dense`.
fn gallery() -> [CsrGraph; 2] {
    [
        gms::gen::kronecker_default(10, 12, 101),
        gms::gen::gnp(400, 0.12, 107),
    ]
}

/// `(colors used, FNV-1a of the colors)` of a greedy run.
fn coloring_digest(graph: &CsrGraph, ordering: &str) -> (u64, u64) {
    let registry = Registry::with_builtins();
    let kernel = registry.get("coloring").expect("built-in kernel");
    let params = Params::new().with("ordering", ordering);
    let cx = RunCx::new(GraphView::Raw(graph), &params, kernel.params());
    let out = execute(kernel, &cx).unwrap_or_else(|e| panic!("coloring: {e}"));
    let Payload::Assignment(colors) = out.payload else {
        panic!("coloring answered {:?}", out.payload);
    };
    let hash = colors.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &c| {
        c.to_le_bytes()
            .iter()
            .fold(h, |h, &b| (h ^ b as u64).wrapping_mul(0x0100_0000_01b3))
    });
    (out.patterns, hash)
}

#[test]
fn greedy_colors_are_pinned_under_every_ordering() {
    let pinned: [[(u64, u64); 5]; 2] = [
        [
            (33, 16310663064054552829),
            (26, 7457746190361646742),
            (35, 18238250365159623094),
            (36, 15694700700154561908),
            (35, 12993821553299589097),
        ],
        [
            (19, 15536360161923328972),
            (20, 179021626108408493),
            (22, 14009227360961037337),
            (20, 13016750318658257634),
            (20, 14108464169181712166),
        ],
    ];
    for (graph, pinned) in gallery().iter().zip(pinned) {
        assert_eq!(ORDERINGS.map(|o| coloring_digest(graph, o)), pinned);
    }
}
