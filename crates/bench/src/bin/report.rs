//! Wall-clock experiment runner: prints one scaling table per experiment
//! (the tracked ones are recorded in `crates/bench/baselines/`).
//!
//! Usage: `cargo run --release -p ccs-bench --bin report [experiment ...]
//! [--only <experiment>]... [--help]` (default: all).  The valid experiment
//! names are generated from the `TABLES` registry below — `--help` prints
//! the live list, so the help text cannot drift from the tables that
//! actually exist.  `--only` (repeatable, comma-separable) restricts the
//! run to the named sections so a single table — e.g. `det` — can be
//! regenerated without rerunning E7/WP; bare positional names behave the
//! same way.
//!
//! The E7, WP, DET, KOBS, OTF, DELTA and MEM tables are additionally
//! tracked for regressions:
//! the scheduled CI job diffs them against the committed snapshot under
//! `crates/bench/baselines/` with the `compare_report` binary.

use std::time::Instant;

use ccs_bench::{equivalent_pair, general_process, standard_process};
use ccs_equiv::determinize::{DetNotion, SubsetAutomaton};
use ccs_equiv::{failures, kobs, strong, weak, EquivSession, Equivalence};
use ccs_expr::{construct, parse};
use ccs_partition::kanellakis_smolka::{self, refine_both_halves};
use ccs_partition::{dfa_equiv, hopcroft, solve, Algorithm, Dfa, Instance, Partition};
use ccs_workloads::{families, instances, mutating_queries, queries, random, RandomConfig};

fn time_ms<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let value = f();
    (value, start.elapsed().as_secs_f64() * 1e3)
}

/// The fastest of `runs` timed calls, with the value of the last call.
fn best_of<T>(runs: usize, mut f: impl FnMut() -> T) -> (T, f64) {
    let (mut value, mut best) = time_ms(&mut f);
    for _ in 1..runs {
        let (next, t) = time_ms(&mut f);
        value = next;
        best = best.min(t);
    }
    (value, best)
}

/// A named generator of scaling instances for the E7 and SCALE tables.
type InstanceFamily = (&'static str, fn(usize) -> Instance);

/// A complete binary tree with roughly `n` nodes.
fn tree(n: usize) -> Instance {
    instances::binary_tree((n.ilog2() as usize).saturating_sub(1))
}

fn e7_partition_algorithms() {
    println!("\n== E7: generalized partitioning on the CSR core — solver matrix per family ==");
    println!("   (ks-both = both-halves, the production refiner; ks-small = smaller-half variant)");
    println!(
        "{:>8} {:>8} {:>10} {:>12} {:>12} {:>12}",
        "family", "states", "edges", "naive ms", "ks-both ms", "ks-small ms"
    );
    let families: [InstanceFamily; 4] = [
        ("random", |n| strong::to_instance(&standard_process(n, 42))),
        ("chain", instances::chain),
        ("cycle", instances::cycle),
        ("tree", tree),
    ];
    for (family, make) in families {
        for &n in &[64usize, 128, 256, 512, 1024] {
            let inst = make(n);
            // Force the lazy CSR build so the first timed solver does not
            // get charged for it.
            let _ = inst.num_edges();
            let (p_naive, t_naive) = time_ms(|| solve(&inst, Algorithm::Naive));
            let (p_both, t_both) = time_ms(|| solve(&inst, Algorithm::KanellakisSmolkaBothHalves));
            let (p_ks, t_ks) = time_ms(|| solve(&inst, Algorithm::KanellakisSmolka));
            assert_eq!(p_naive, p_both);
            assert_eq!(p_naive, p_ks);
            println!(
                "{:>8} {:>8} {:>10} {:>12.2} {:>12.2} {:>12.2}",
                family,
                inst.num_elements(),
                inst.num_edges(),
                t_naive,
                t_both,
                t_ks
            );
        }
    }
}

fn wp_weak_pipeline() {
    println!("\n== WP: weak pipeline — per-query free functions vs EquivSession batched ==");
    println!(
        "   (m pair queries: m full saturate+refine pipelines vs one shared pipeline; every\n    \
         verdict is checked, untimed, against naive refinement of the saturate() process)"
    );
    println!(
        "{:>8} {:>8} {:>8} {:>14} {:>12} {:>9}",
        "family", "states", "pairs", "per-query ms", "session ms", "speedup"
    );
    for &n in &[256usize, 512] {
        let batch = queries::weak_query_batch(n, 32, 29);
        let (per_query, t_loop) = time_ms(|| {
            batch
                .pairs
                .iter()
                .map(|&(p, q)| weak::observationally_equivalent_states(&batch.fsp, p, q))
                .collect::<Vec<bool>>()
        });
        let (batched, t_session) = time_ms(|| {
            let session = EquivSession::for_process(&batch.fsp);
            session.equivalent_pairs(Equivalence::Observational, &batch.pairs)
        });
        assert_eq!(per_query, batched, "session disagrees with per-query loop");
        let oracle = strong::strong_partition_with(
            &ccs_fsp::saturate::saturate(&batch.fsp).fsp,
            Algorithm::Naive,
        );
        for (&(p, q), &verdict) in batch.pairs.iter().zip(&batched) {
            assert_eq!(
                verdict,
                oracle.equivalent(p, q),
                "WP n={n}: the session's ≈ diverged from the saturate() oracle on {p} vs {q}"
            );
        }
        println!(
            "{:>8} {:>8} {:>8} {:>14.2} {:>12.2} {:>9.1}",
            "general",
            n,
            batch.pairs.len(),
            t_loop,
            t_session,
            t_loop / t_session
        );
    }
}

fn det_determinized_classification() {
    println!("\n== DET: PSPACE-notion classification — shared subset automaton vs representative scan ==");
    println!(
        "   (rep-scan = one on-the-fly subset construction per (state, representative) pair;\n    \
         det = one memoized subset arena + one product-DFA refinement; blowup window = 8)"
    );
    println!(
        "{:>8} {:>8} {:>9} {:>10} {:>13} {:>10} {:>9}",
        "family", "states", "subsets", "notion", "rep-scan ms", "det ms", "speedup"
    );
    let notions = [
        ("language", Equivalence::Language),
        ("trace", Equivalence::Trace),
        ("failure", Equivalence::Failure),
    ];
    for &n in &[64usize, 128, 256, 512] {
        let fsp = families::det_blowup(n, 8);
        for (name, notion) in notions {
            let scan_session = EquivSession::for_process(&fsp);
            let (scan, t_scan) = time_ms(|| scan_session.representative_scan_partition(notion));
            let det_session = EquivSession::for_process(&fsp);
            let (det, t_det) = time_ms(|| det_session.classify_all(notion));
            assert_eq!(
                det.as_ref(),
                &scan,
                "determinized engine diverged from the oracle"
            );
            println!(
                "{:>8} {:>8} {:>9} {:>10} {:>13.2} {:>10.2} {:>9.1}",
                "blowup",
                fsp.num_states(),
                det_session.subset_arena_size(),
                name,
                t_scan,
                t_det,
                t_scan / t_det
            );
        }
    }
}

fn kobs_one_arena_sweep() {
    println!(
        "\n== KOBS: exact ≈k hierarchy sweep — one-arena signature refinement vs per-pair BFS =="
    );
    println!(
        "   (sweep k = 1..=4 on the ≈k strictness ladder; rep-bfs = per-pair synchronized-BFS\n    \
         oracle re-run per level; one-arena = one shared subset arena, one signature\n    \
         refinement per level through a warm EquivSession)"
    );
    println!(
        "{:>8} {:>8} {:>9} {:>7} {:>12} {:>13} {:>9}",
        "family", "states", "subsets", "levels", "rep-bfs ms", "one-arena ms", "speedup"
    );
    const K: usize = 4;
    let module = families::kobs_ladder_module_size(K);
    for &copies in &[2usize, 5, 12] {
        let fsp = families::kobs_ladder(copies * module, K);
        let (oracle, t_bfs) = time_ms(|| {
            (1..=K)
                .map(|k| kobs::kobs_partition(&fsp, k))
                .collect::<Vec<_>>()
        });
        let session = EquivSession::for_process(&fsp);
        let (arena, t_arena) = time_ms(|| {
            (1..=K)
                .map(|k| session.classify_all(Equivalence::KObservational(k)))
                .collect::<Vec<_>>()
        });
        for (k, (expected, got)) in oracle.iter().zip(&arena).enumerate() {
            assert_eq!(
                got.as_ref(),
                expected,
                "one-arena ≈{} diverged from the per-pair oracle",
                k + 1
            );
        }
        println!(
            "{:>8} {:>8} {:>9} {:>7} {:>12.2} {:>13.2} {:>9.1}",
            "ladder",
            fsp.num_states(),
            session.subset_arena_size(),
            K,
            t_bfs,
            t_arena,
            t_bfs / t_arena
        );
    }
}

fn otf_protocol_corpus() {
    println!(
        "\n== OTF: on-the-fly equivalence on the protocol corpus — peak explored vs materialized =="
    );
    println!(
        "   (system vs spec per determinizable notion; otf = EquivSession::on_the_fly, a\n    \
         congruence-pruned synchronized BFS stopping at the first distinguishing pair;\n    \
         full = classify_all forcing the complete determinized partition; subsets = arena\n    \
         size after the run, the exploration footprint; product = component state-count\n    \
         product, the bound a compose-everything-first checker faces)"
    );
    println!(
        "{:>12} {:>9} {:>7} {:>8} {:>8} {:>12} {:>13} {:>9} {:>9}",
        "family",
        "product",
        "union",
        "notion",
        "verdict",
        "otf-subsets",
        "full-subsets",
        "otf ms",
        "full ms"
    );
    let notions = [
        ("trace", Equivalence::Trace),
        ("failure", Equivalence::Failure),
    ];
    for protocol in ccs_workloads::protocols::corpus() {
        let composed = protocol.composed();
        let union = ccs_fsp::ops::disjoint_union(&composed, &protocol.spec);
        let (p, q) = ccs_fsp::ops::union_starts(&union, &composed, &protocol.spec);
        for (name, notion) in notions {
            let otf_session = EquivSession::for_process(&union.fsp);
            let (outcome, t_otf) = time_ms(|| {
                otf_session
                    .on_the_fly(notion, p, q)
                    .expect("trace and failure are determinizable")
            });
            let full_session = EquivSession::for_process(&union.fsp);
            let (partition, t_full) = time_ms(|| full_session.classify_all(notion));
            assert_eq!(
                outcome.equivalent,
                partition.same_block(p.index(), q.index()),
                "on-the-fly diverged from the materialized checker on {}/{name}",
                protocol.name
            );
            let peak = outcome.stats.arena_subsets;
            let total = full_session.subset_arena_size();
            assert!(
                peak <= total,
                "on-the-fly explored more subsets than full materialization on {}/{name}",
                protocol.name
            );
            println!(
                "{:>12} {:>9} {:>7} {:>8} {:>8} {:>12} {:>13} {:>9.2} {:>9.2}",
                protocol.name,
                protocol.naive_product_states(),
                union.fsp.num_states(),
                name,
                if outcome.equivalent { "eq" } else { "neq" },
                peak,
                total,
                t_otf,
                t_full
            );
        }
    }
}

fn delta_mutation_path() {
    println!("\n== DELTA: mutation path — per-batch relayout + re-solve on the gadget stream ==");
    println!(
        "   (mutating_queries gadget stream, the session's path per batch: apply =\n    \
         Instance::apply_delta, one CSR relayout; re-solve = refine_both_halves on the\n    \
         edited instance; relayout % = apply / (apply + re-solve); every batch asserts\n    \
         block-for-block agreement with an untimed naive solve)"
    );
    println!(
        "{:>8} {:>8} {:>8} {:>10} {:>12} {:>11}",
        "family", "states", "edits/b", "apply ms", "re-solve ms", "relayout %"
    );
    const BATCHES: usize = 8;
    // Throwaway pass so the first timed row does not absorb the cold-start
    // cost (page faults, lazy allocator growth).
    {
        let (warm, _) = mutating_queries::mutating_instance(64, 0, 0, 42);
        let _ = refine_both_halves(&warm);
    }
    for &n in &[256usize, 1024, 4096] {
        for &edits in &[1usize, 4] {
            let copies = n / mutating_queries::GADGET_STATES;
            let (mut inst, batches) =
                mutating_queries::mutating_instance(copies, BATCHES, edits, 42);
            // Force the lazy CSR build so the first timed relayout does not
            // get charged for it.
            let _ = inst.num_edges();
            let (mut t_apply, mut t_resolve) = (0.0f64, 0.0f64);
            for batch in &batches {
                let (_, t) = time_ms(|| inst.apply_delta(&batch.additions, &batch.removals));
                t_apply += t;
                let (resolved, t) = time_ms(|| refine_both_halves(&inst));
                t_resolve += t;
                assert_eq!(
                    resolved,
                    solve(&inst, Algorithm::Naive),
                    "DELTA {n}/{edits}: the re-solved partition diverged from naive"
                );
            }
            println!(
                "{:>8} {:>8} {:>8} {:>10.2} {:>12.2} {:>11.1}",
                "gadgets",
                n,
                edits,
                t_apply,
                t_resolve,
                100.0 * t_apply / (t_apply + t_resolve)
            );
        }
    }
}

/// Times the solvers on one instance and prints its SOLVE row: naive once,
/// ks-both and ks-small best of three, and Hopcroft best of three when the
/// instance is `dfa`'s.  Every solver must return naive's blocks.
fn solve_row(family: &str, inst: &Instance, dfa: Option<&Dfa>) {
    let _ = inst.num_edges();
    let (reference, t_naive) = time_ms(|| solve(inst, Algorithm::Naive));
    let (both, t_both) = best_of(3, || refine_both_halves(inst));
    let (small, t_small) = best_of(3, || solve(inst, Algorithm::KanellakisSmolka));
    let n = inst.num_elements();
    assert_eq!(
        both, reference,
        "SOLVE {family}/{n}: ks-both diverged from naive"
    );
    assert_eq!(
        small, reference,
        "SOLVE {family}/{n}: ks-small diverged from naive"
    );
    let t_hopcroft = dfa.map_or_else(
        || "-".to_owned(),
        |d| {
            let (minimized, t) = best_of(3, || hopcroft::minimize(d));
            assert_eq!(
                minimized, reference,
                "SOLVE {family}/{n}: hopcroft diverged from naive"
            );
            format!("{t:.2}")
        },
    );
    println!(
        "{:>8} {:>8} {:>10} {:>12.2} {:>12.2} {:>12.2} {:>12}",
        family,
        n,
        inst.num_edges(),
        t_naive,
        t_both,
        t_small,
        t_hopcroft
    );
}

fn solve_production_instances() {
    println!("\n== SOLVE: every solver on the instances production refines ==");
    println!(
        "   (rnd = branching-shaped random_fsp, 2 transitions per state, τ ratio 0.3: the\n    \
         session's strong (-s) and weak (-w) instances; dfa = the language product DFA of\n    \
         det_blowup(1024, 10), (1024, 12) and (1536, 11); tau-w = the weak instance of\n    \
         tau_chain(n), dense and collapsing to 2 blocks; live = the 4096-state live-edit\n    \
         gadget session; naive runs once, the rest best of 3; ks-both is the production\n    \
         general refiner, hopcroft the production DFA minimizer ('-' off DFAs); every row\n    \
         asserts each solver's blocks equal naive's)"
    );
    println!(
        "{:>8} {:>8} {:>10} {:>12} {:>12} {:>12} {:>12}",
        "family", "states", "edges", "naive ms", "ks-both ms", "ks-small ms", "hopcroft ms"
    );
    for &n in &[512usize, 1024, 2048] {
        let fsp = random::random_fsp(&RandomConfig {
            states: n,
            transitions_per_state: 2.0,
            tau_ratio: 0.3,
            accept_ratio: 0.5,
            seed: 1,
            ..RandomConfig::default()
        });
        let session = EquivSession::for_process(&fsp);
        solve_row("rnd-s", session.strong_instance(), None);
        solve_row("rnd-w", session.weak_instance(), None);
    }
    for &n in &[512usize, 1024, 2048] {
        let session = EquivSession::for_process(&families::tau_chain(n));
        solve_row("tau-w", session.weak_instance(), None);
    }
    for &(n, window) in &[(1024usize, 10usize), (1024, 12), (1536, 11)] {
        let fsp = families::det_blowup(n, window);
        let session = EquivSession::for_process(&fsp);
        let view = session.saturated_view();
        let mut auto = SubsetAutomaton::new(&fsp);
        for s in fsp.state_ids() {
            auto.start(view, s);
        }
        auto.explore(view);
        let classes = auto.classes(view, DetNotion::Language);
        let dfa = Dfa::from_subset_automaton(
            auto.num_actions(),
            SubsetAutomaton::DEAD as usize,
            auto.transition_table(),
            &classes,
        );
        solve_row(&format!("dfa-w{window}"), &dfa.to_instance(), Some(&dfa));
    }
    let copies = 4096 / mutating_queries::GADGET_STATES;
    let live = mutating_queries::mutating_workload(copies, 0, 0, 0, 42);
    let session = EquivSession::for_process(&live.fsp);
    solve_row("live-s", session.strong_instance(), None);
    solve_row("live-w", session.weak_instance(), None);
}

/// The largest `t(65536) / t(4096)` a SCALE row may read: 16× the size,
/// where linear growth reads ~16 and quadratic growth ~256.
const SCALE_MAX_GROWTH: f64 = 40.0;

/// A chain DFA for Hopcroft: `n` states in a line whose last state alone
/// accepts, then a rejecting sink, so all `n + 1` states are distinct.
fn chain_dfa(n: usize) -> Dfa {
    let mut dfa = Dfa::new(n + 1, 1, 0);
    for s in 0..n {
        dfa.set_transition(s, 0, s + 1);
    }
    dfa.set_transition(n, 0, n);
    dfa.set_accepting(n - 1, true);
    dfa
}

/// Times `run` best of 3 on every input, asserts the first answer equals
/// `reference`, prints the SCALE row and asserts its growth bound.
fn scale_row<I>(
    family: &str,
    solver: &str,
    inputs: &[I],
    reference: &Partition,
    run: impl Fn(&I) -> Partition,
) {
    let runs: Vec<(Partition, f64)> = inputs.iter().map(|i| best_of(3, || run(i))).collect();
    assert_eq!(
        &runs[0].0, reference,
        "SCALE {family}: {solver} diverged from naive at the smallest size"
    );
    let times: Vec<f64> = runs.iter().map(|&(_, t)| t).collect();
    let growth = times[times.len() - 1] / times[0];
    print!("{family:>9} {solver:>9}");
    for t in &times {
        print!(" {t:>9.2}");
    }
    println!(" {growth:>7.1}");
    assert!(
        growth <= SCALE_MAX_GROWTH,
        "SCALE {family}/{solver}: t(65536)/t(4096) = {growth:.1} exceeds {SCALE_MAX_GROWTH}"
    );
}

fn scale_solver_growth() {
    println!("\n== SCALE: splitter refiners from 4096 to 65536 states ==");
    println!(
        "   (ms, best of 3; chain, cycle and tree = ccs_workloads::instances (tree: 2^k - 1\n    \
         nodes); dfa-chain = n chain states plus a sink, minimized by Hopcroft; each\n    \
         solver's blocks equal naive's at 4096; growth = t(65536)/t(4096), asserted\n    \
         <= {SCALE_MAX_GROWTH}: linear reads ~16, quadratic ~256)"
    );
    const SIZES: [usize; 5] = [4096, 8192, 16384, 32768, 65536];
    print!("{:>9} {:>9}", "family", "solver");
    for n in SIZES {
        print!(" {n:>9}");
    }
    println!(" {:>7}", "growth");
    let families: [InstanceFamily; 3] = [
        ("chain", instances::chain),
        ("cycle", instances::cycle),
        ("tree", tree),
    ];
    for (family, make) in families {
        let insts: Vec<Instance> = SIZES.iter().map(|&n| make(n)).collect();
        for inst in &insts {
            let _ = inst.num_edges();
        }
        let reference = solve(&insts[0], Algorithm::Naive);
        scale_row(family, "ks-both", &insts, &reference, refine_both_halves);
        scale_row(
            family,
            "ks-small",
            &insts,
            &reference,
            kanellakis_smolka::refine,
        );
    }
    let dfas: Vec<Dfa> = SIZES.iter().map(|&n| chain_dfa(n)).collect();
    let reference = solve(&dfas[0].to_instance(), Algorithm::Naive);
    scale_row(
        "dfa-chain",
        "hopcroft",
        &dfas,
        &reference,
        hopcroft::minimize,
    );
}

fn mem_resident_footprint() {
    println!("\n== MEM: resident bytes — honest capacity-based accounting per family ==");
    println!(
        "   (session = EquivSession::approx_resident_bytes after classify_all on all three\n    \
         PSPACE notions; arena = the subset-automaton share; csr = Instance CSR bytes;\n    \
         blowup window = 8)"
    );
    println!(
        "{:>8} {:>8} {:>9} {:>14} {:>14}",
        "family", "states", "subsets", "session B", "arena B"
    );
    for &n in &[64usize, 128, 256, 512] {
        let fsp = families::det_blowup(n, 8);
        let session = EquivSession::for_process(&fsp);
        for notion in [
            Equivalence::Language,
            Equivalence::Trace,
            Equivalence::Failure,
        ] {
            let _ = session.classify_all(notion);
        }
        println!(
            "{:>8} {:>8} {:>9} {:>14} {:>14}",
            "blowup",
            fsp.num_states(),
            session.subset_arena_size(),
            session.approx_resident_bytes(),
            session.subset_arena_bytes()
        );
    }
    println!(
        "{:>8} {:>8} {:>10} {:>14}",
        "family", "states", "edges", "csr B"
    );
    let families: [InstanceFamily; 2] = [
        ("random", |n| {
            ccs_workloads::instances::random(n, 2, 3 * n, 42)
        }),
        ("dense", |n| {
            ccs_workloads::instances::dense_random(n, 4, 8, 16, 42)
        }),
    ];
    for (family, make) in families {
        for &n in &[1024usize, 4096] {
            let inst = make(n);
            let _ = inst.num_edges();
            println!(
                "{:>8} {:>8} {:>10} {:>14}",
                family,
                inst.num_elements(),
                inst.num_edges(),
                inst.resident_bytes()
            );
        }
    }
}

fn e8_strong_equivalence() {
    println!("\n== E8: strong equivalence, equivalent pairs (Theorem 3.1) ==");
    println!("{:>8} {:>12} {:>12}", "states", "check ms", "classes");
    for &n in &[64usize, 128, 256, 512, 1024] {
        let (l, r) = equivalent_pair(n, 7);
        let union = ccs_fsp::ops::disjoint_union(&l, &r);
        let (partition, t) = time_ms(|| strong::strong_partition(&union.fsp));
        println!("{:>8} {:>12.2} {:>12}", n, t, partition.num_classes());
    }
}

fn e9_observational_equivalence() {
    println!("\n== E9: observational equivalence (Theorem 4.1a): the session's weak pipeline ==");
    println!("   (fresh session per size; asserts the saturate() → naive-solver oracle)");
    println!(
        "{:>8} {:>12} {:>12} {:>12} {:>12} {:>10}",
        "states", "closure ms", "instance ms", "refine ms", "weak edges", "classes"
    );
    for &n in &[64usize, 128, 256, 512] {
        let fsp = general_process(n, 13);
        let session = EquivSession::for_process(&fsp);
        let (_, t_closure) = time_ms(|| session.tau_closure());
        let (edges, t_inst) = time_ms(|| session.weak_instance().num_edges());
        let (partition, t_ref) = time_ms(|| session.classify_all(Equivalence::Observational));
        let oracle =
            strong::strong_partition_with(&ccs_fsp::saturate::saturate(&fsp).fsp, Algorithm::Naive);
        assert_eq!(
            partition.as_ref(),
            oracle.partition(),
            "E9 n={n}: the session's ≈ diverged from the saturate() oracle"
        );
        println!(
            "{:>8} {:>12.2} {:>12.2} {:>12.2} {:>12} {:>10}",
            n,
            t_closure,
            t_inst,
            t_ref,
            edges,
            partition.num_blocks()
        );
    }
}

fn e10_k_observational() {
    println!("\n== E10: exact ≈k (PSPACE-complete, Theorem 4.1b) vs polynomial ≈ ==");
    println!(
        "{:>8} {:>12} {:>12} {:>12}",
        "states", "≈2 ms", "≈3 ms", "≈ ms"
    );
    for &n in &[4usize, 6, 8, 10, 12] {
        let base = standard_process(n, 11);
        let other = ccs_workloads::random::bisimilar_variant(&base, 12);
        let (_, t2) = time_ms(|| kobs::kobs_equivalent(&base, &other, 2));
        let (_, t3) = time_ms(|| kobs::kobs_equivalent(&base, &other, 3));
        let (_, tw) = time_ms(|| weak::observationally_equivalent(&base, &other));
        println!("{:>8} {:>12.2} {:>12.2} {:>12.2}", n, t2, t3, tw);
    }
}

fn e13_failure_equivalence() {
    println!("\n== E13: failure equivalence (Theorem 5.1): general vs finite trees ==");
    println!("{:>10} {:>10} {:>14}", "family", "states", "check ms");
    for &n in &[8usize, 12, 16, 20, 24] {
        let (l, r) = equivalent_pair(n, 17);
        let (_, t) = time_ms(|| failures::failure_equivalent(&l, &r));
        println!("{:>10} {:>10} {:>14.2}", "random", n, t);
    }
    for depth in [4usize, 6, 8, 10] {
        let l = families::binary_tree(depth);
        let r = families::binary_tree(depth);
        let (_, t) = time_ms(|| failures::failure_equivalent(&l, &r));
        println!("{:>10} {:>10} {:>14.2}", "tree", l.num_states(), t);
    }
}

fn e14_deterministic() {
    println!("\n== E14: deterministic case — Hopcroft minimization and UNION-FIND equivalence ==");
    println!(
        "{:>8} {:>14} {:>14} {:>14}",
        "states", "hopcroft ms", "ks-both ms", "union-find ms"
    );
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    for &n in &[128usize, 256, 512, 1024, 2048] {
        let mut rng = StdRng::seed_from_u64(5);
        let mut build = |seed_shift: u64| {
            let _ = seed_shift;
            let mut d = Dfa::new(n, 2, 0);
            for s in 0..n {
                d.set_accepting(s, rng.gen_bool(0.5));
                for l in 0..2 {
                    d.set_transition(s, l, rng.gen_range(0..n));
                }
            }
            d
        };
        let left = build(0);
        let right = build(1);
        let (_, t_h) = time_ms(|| hopcroft::minimize(&left));
        let inst = left.to_instance();
        let (_, t_ks) = time_ms(|| solve(&inst, Algorithm::KanellakisSmolkaBothHalves));
        let (_, t_uf) = time_ms(|| dfa_equiv::equivalent(&left, &right));
        println!("{:>8} {:>14.2} {:>14.2} {:>14.2}", n, t_h, t_ks, t_uf);
    }
}

fn e4_ccs_construction() {
    println!("\n== E4: representative FSP construction (Lemma 2.3.1) ==");
    println!(
        "{:>10} {:>10} {:>14} {:>12}",
        "length", "states", "transitions", "build ms"
    );
    let mut text = String::from("a");
    for i in 0..48 {
        text = format!("({text} + b{i}).c{i}*");
        if i % 8 != 7 {
            continue;
        }
        let expr = parse(&text).unwrap();
        let (fsp, t) = time_ms(|| construct::representative(&expr));
        println!(
            "{:>10} {:>10} {:>14} {:>12.2}",
            expr.len(),
            fsp.num_states(),
            fsp.num_transitions(),
            t
        );
    }
}

/// The single source of truth for the experiment tables: name, one-line
/// description, runner.  The `--only` validation, the `--help` text and the
/// dispatch loop are all generated from this registry, so a new table (or a
/// rename) cannot leave the help text or the valid-name list behind.
const TABLES: &[(&str, &str, fn())] = &[
    (
        "e7",
        "generalized partitioning solver matrix per family",
        e7_partition_algorithms,
    ),
    (
        "wp",
        "weak pipeline: per-query loop vs batched session",
        wp_weak_pipeline,
    ),
    (
        "det",
        "PSPACE-notion classification: subset arena vs representative scan",
        det_determinized_classification,
    ),
    (
        "kobs",
        "exact ≈k sweep: one-arena refinement vs per-pair BFS",
        kobs_one_arena_sweep,
    ),
    (
        "otf",
        "on-the-fly protocol checks: peak explored vs materialized",
        otf_protocol_corpus,
    ),
    (
        "delta",
        "mutation path: per-batch relayout and re-solve",
        delta_mutation_path,
    ),
    (
        "solve",
        "every solver on the instances production refines",
        solve_production_instances,
    ),
    (
        "scale",
        "splitter refiners from 4096 to 65536 states: growth bound",
        scale_solver_growth,
    ),
    (
        "mem",
        "resident bytes per family/size (honest capacity accounting)",
        mem_resident_footprint,
    ),
    ("e8", "strong equivalence scaling", e8_strong_equivalence),
    (
        "e9",
        "observational equivalence: saturation + refinement",
        e9_observational_equivalence,
    ),
    ("e10", "exact ≈k vs polynomial ≈", e10_k_observational),
    (
        "e13",
        "failure equivalence: general vs finite trees",
        e13_failure_equivalence,
    ),
    (
        "e14",
        "deterministic case: Hopcroft and UNION-FIND",
        e14_deterministic,
    ),
    ("e4", "representative FSP construction", e4_ccs_construction),
];

fn print_usage() {
    println!("usage: report [experiment ...] [--only <experiment>[,<experiment>...]]... [--help]");
    println!("experiments (default: all):");
    for (name, description, _) in TABLES {
        println!("  {name:>4}  {description}");
    }
}

fn main() {
    // `--only <name>` (repeatable, comma-separable) and bare positional
    // names both restrict the run; `--only` exists so a single tracked
    // section can be regenerated explicitly, e.g. `report --only det`.
    let mut selected: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--help" || arg == "-h" {
            print_usage();
            return;
        }
        if arg == "--only" {
            let value = args
                .next()
                .expect("--only needs an experiment name (e.g. --only det)");
            selected.extend(value.split(',').map(|s| s.trim().to_lowercase()));
        } else {
            selected.push(arg.to_lowercase());
        }
    }
    // A typo must not silently produce an empty (but exit-0) report — the
    // snapshot-regeneration workflow pipes this straight into the baseline.
    let known: Vec<&str> = TABLES.iter().map(|&(name, _, _)| name).collect();
    for name in &selected {
        assert!(
            known.contains(&name.as_str()),
            "unknown experiment {name:?}; known: {known:?}"
        );
    }
    let want = |name: &str| selected.is_empty() || selected.iter().any(|a| a == name);
    println!("ccs-equiv experiment report (wall-clock, release recommended)");
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    println!("host: cores={cores}");
    for (name, _, run) in TABLES {
        if want(name) {
            run();
        }
    }
}
