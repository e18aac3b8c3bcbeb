//! A2 — checker ablation: branch-and-bound vs exhaustive grid enumeration
//! on identical P2 queries, plus the interval-screened arm (`screened` —
//! DESIGN.md §6). All variants are exact; the bench quantifies the gap
//! that motivates symbolic/abstraction-based checking (paper §III-B) and
//! the speedup the screening tier recovers.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fannet_bench::{paper_study, paper_test_inputs};
use fannet_verify::bab::{
    check_region_exhaustive, find_counterexample, find_counterexample_with, CheckerConfig,
};
use fannet_verify::noise::ExclusionSet;
use fannet_verify::region::NoiseRegion;
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let cs = paper_study();
    let inputs = paper_test_inputs();
    let labels = cs.test5.labels();
    let idx = 6; // robust input: both checkers must cover the whole grid

    let mut group = c.benchmark_group("checker_ablation");
    group.sample_size(10);

    // Exhaustive blows up as (2Δ+1)^5 — keep its range small.
    for delta in [1i64, 2, 3] {
        let region = NoiseRegion::symmetric(delta, 5);
        group.bench_with_input(
            BenchmarkId::new("exhaustive_grid", delta),
            &region,
            |b, region| {
                b.iter(|| {
                    black_box(
                        check_region_exhaustive(
                            &cs.exact_net,
                            &inputs[idx],
                            labels[idx],
                            region,
                            &ExclusionSet::new(),
                        )
                        .expect("widths match"),
                    )
                });
            },
        );
        group.bench_with_input(
            BenchmarkId::new("branch_and_bound", delta),
            &region,
            |b, region| {
                b.iter(|| {
                    black_box(
                        find_counterexample(&cs.exact_net, &inputs[idx], labels[idx], region)
                            .expect("widths match"),
                    )
                });
            },
        );
    }

    // Branch-and-bound keeps scaling where exhaustive cannot go at all
    // (±11% would be 23^5 ≈ 6.4M exact evaluations).
    for delta in [11i64, 25, 50] {
        let region = NoiseRegion::symmetric(delta, 5);
        group.bench_with_input(
            BenchmarkId::new("branch_and_bound_large", delta),
            &region,
            |b, region| {
                b.iter(|| {
                    black_box(
                        find_counterexample(&cs.exact_net, &inputs[idx], labels[idx], region)
                            .expect("widths match"),
                    )
                });
            },
        );
    }

    // The interval-screened arm on the same queries (identical outcomes;
    // only wall clock differs — cross-validated in the test suite).
    let screened = CheckerConfig::screened();
    for delta in [11i64, 15, 25, 50] {
        let region = NoiseRegion::symmetric(delta, 5);
        group.bench_with_input(BenchmarkId::new("screened", delta), &region, |b, region| {
            b.iter(|| {
                black_box(
                    find_counterexample_with(
                        &cs.exact_net,
                        &inputs[idx],
                        labels[idx],
                        region,
                        &screened,
                    )
                    .expect("widths match"),
                )
            });
        });
    }

    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
