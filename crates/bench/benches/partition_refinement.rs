//! Experiment E7: the three generalized-partitioning algorithms
//! (Lemma 3.2 naive, Kanellakis–Smolka both-halves and smaller-half) on the
//! same instances, as a scaling sweep over the number of states.

use std::time::Duration;

use ccs_bench::{standard_process, SCALING_SIZES};
use ccs_equiv::strong;
use ccs_partition::{solve, Algorithm};
use ccs_workloads::families;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn bench_random(c: &mut Criterion) {
    let mut group = c.benchmark_group("partition/random");
    for &n in &SCALING_SIZES {
        let fsp = standard_process(n, 42);
        let inst = strong::to_instance(&fsp);
        for alg in Algorithm::ALL {
            group.bench_with_input(BenchmarkId::new(alg.to_string(), n), &inst, |b, inst| {
                b.iter(|| solve(inst, alg));
            });
        }
    }
    group.finish();
}

fn bench_worst_case_chain(c: &mut Criterion) {
    // Chains force the maximal number of refinement rounds — the family on
    // which the naive method's O(n·m) bound is tight (Lemma 3.2).
    let mut group = c.benchmark_group("partition/chain");
    for &n in &SCALING_SIZES {
        let fsp = families::chain(n, "a");
        let inst = strong::to_instance(&fsp);
        for alg in Algorithm::ALL {
            group.bench_with_input(BenchmarkId::new(alg.to_string(), n), &inst, |b, inst| {
                b.iter(|| solve(inst, alg));
            });
        }
    }
    group.finish();
}

fn config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(150))
        .measurement_time(Duration::from_millis(400))
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_random, bench_worst_case_chain
}
criterion_main!(benches);
