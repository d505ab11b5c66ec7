//! Experiment E14: the deterministic special case of Section 3 — Hopcroft
//! minimization (`O(k·n log n)`) and UNION-FIND equivalence (`O(k·n·α(n))`)
//! versus the generic both-halves Kanellakis–Smolka solver on the same
//! automata.

use std::time::Duration;

use ccs_bench::SCALING_SIZES;
use ccs_partition::{dfa_equiv, hopcroft, solve, Algorithm, Dfa};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_dfa(n: usize, k: usize, seed: u64) -> Dfa {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut d = Dfa::new(n, k, 0);
    for s in 0..n {
        d.set_accepting(s, rng.gen_bool(0.5));
        for l in 0..k {
            d.set_transition(s, l, rng.gen_range(0..n));
        }
    }
    d
}

fn bench_minimization(c: &mut Criterion) {
    let mut group = c.benchmark_group("dfa/minimize");
    for &n in &SCALING_SIZES {
        let dfa = random_dfa(n, 2, 5);
        group.bench_with_input(BenchmarkId::new("hopcroft", n), &dfa, |b, d| {
            b.iter(|| hopcroft::minimize(d));
        });
        let inst = dfa.to_instance();
        group.bench_with_input(BenchmarkId::new("ks-both-halves", n), &inst, |b, inst| {
            b.iter(|| solve(inst, Algorithm::KanellakisSmolkaBothHalves));
        });
        group.bench_with_input(BenchmarkId::new("naive", n), &inst, |b, inst| {
            b.iter(|| solve(inst, Algorithm::Naive));
        });
    }
    group.finish();
}

fn bench_union_find_equivalence(c: &mut Criterion) {
    let mut group = c.benchmark_group("dfa/equivalence");
    for &n in &SCALING_SIZES {
        let left = random_dfa(n, 2, 6);
        let right = random_dfa(n, 2, 7);
        group.bench_with_input(
            BenchmarkId::from_parameter(n),
            &(left, right),
            |b, (l, r)| {
                b.iter(|| dfa_equiv::equivalent(l, r));
            },
        );
    }
    group.finish();
}

fn config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(100))
        .measurement_time(Duration::from_millis(400))
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_minimization, bench_union_find_equivalence
}
criterion_main!(benches);
