//! The `partition_core` family: head-to-head solver comparison on the flat
//! CSR transition core, measuring the smaller-half Kanellakis–Smolka upgrade
//! against the both-halves production refiner, the naive method, and — on
//! the deterministic family — Hopcroft.
//!
//! Workloads come straight from `ccs_workloads::instances`, so the kernels
//! are measured without FSP construction or the Lemma 3.1 reduction in the
//! loop.

use std::time::Duration;

use ccs_bench::SCALING_SIZES;
use ccs_partition::{hopcroft, solve, Algorithm, Dfa, Instance};
use ccs_workloads::instances;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

/// Forces the lazy CSR build so measured iterations see only solver time.
fn prebuilt(inst: Instance) -> Instance {
    let _ = inst.num_edges();
    inst
}

fn bench_family(c: &mut Criterion, family: &str, make: impl Fn(usize) -> Instance) {
    let mut group = c.benchmark_group(format!("partition_core/{family}"));
    for &n in &SCALING_SIZES {
        let inst = prebuilt(make(n));
        for alg in Algorithm::ALL {
            group.bench_with_input(BenchmarkId::new(alg.to_string(), n), &inst, |b, inst| {
                b.iter(|| solve(inst, alg));
            });
        }
    }
    group.finish();
}

fn bench_chain(c: &mut Criterion) {
    bench_family(c, "chain", instances::chain);
}

fn bench_cycle(c: &mut Criterion) {
    bench_family(c, "cycle", instances::cycle);
}

fn bench_tree(c: &mut Criterion) {
    // Complete binary trees of depth 5..8 (63..511 nodes).
    let mut group = c.benchmark_group("partition_core/tree");
    for depth in [5usize, 6, 7, 8] {
        let inst = prebuilt(instances::binary_tree(depth));
        let n = inst.num_elements();
        for alg in Algorithm::ALL {
            group.bench_with_input(BenchmarkId::new(alg.to_string(), n), &inst, |b, inst| {
                b.iter(|| solve(inst, alg));
            });
        }
    }
    group.finish();
}

fn bench_random(c: &mut Criterion) {
    bench_family(c, "random", |n| instances::random(n, 2, 3 * n, 42));
}

fn bench_deterministic(c: &mut Criterion) {
    // The deterministic special case, where Hopcroft applies directly: the
    // same random complete transition structure as a DFA for Hopcroft and as
    // an Instance for the generalized solvers.
    let mut group = c.benchmark_group("partition_core/deterministic");
    for &n in &SCALING_SIZES {
        let mut dfa = Dfa::new(n, 2, 0);
        let inst = prebuilt(instances::complete_deterministic(n, 2, 7));
        for s in 0..n {
            dfa.set_class(s, inst.initial_blocks()[s] as usize);
            for l in 0..2 {
                dfa.set_transition(s, l, inst.successors(l, s)[0].index());
            }
        }
        group.bench_with_input(BenchmarkId::new("hopcroft", n), &dfa, |b, dfa| {
            b.iter(|| hopcroft::minimize(dfa));
        });
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
    targets = bench_chain, bench_cycle, bench_tree, bench_random, bench_deterministic
}
criterion_main!(benches);
