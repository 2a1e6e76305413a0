//! Integration tests for the reusable, budgeted, multi-query [`RfcSolver`] API:
//!
//! * one preprocessing pass serving many queries across all three fairness models,
//!   checked against a model-native brute-force oracle on the fixture graphs;
//! * budgets (`time_limit` / `node_limit`) terminating early with
//!   `Termination::BudgetExhausted` and a *verified* best-so-far clique;
//! * cancellation, top-k objectives, serial determinism, and the
//!   `max_fair_clique` compatibility wrapper agreeing with the solver.

use std::time::Duration;

use rfc_core::baseline::brute_force_max_fair_clique_model;
use rfc_core::prelude::*;
use rfc_core::verify;
use rfc_datasets::synthetic::erdos_renyi;
use rfc_graph::fixtures;

fn fixture_graphs() -> Vec<AttributedGraph> {
    vec![
        fixtures::fig1_graph(),
        fixtures::fig2_graph(),
        fixtures::balanced_clique(7),
        fixtures::two_cliques_with_bridge(8, 6),
    ]
}

fn serial(query: Query) -> Query {
    let config = query.config.clone().with_threads(ThreadCount::Serial);
    query.with_config(config)
}

#[test]
fn weak_and_strong_fairness_match_the_brute_force_oracle() {
    for graph in fixture_graphs() {
        let solver = RfcSolver::new(graph);
        for k in 1..=4usize {
            for model in [FairnessModel::Weak { k }, FairnessModel::Strong { k }] {
                let solution = solver.solve(&serial(Query::new(model))).unwrap();
                let oracle = brute_force_max_fair_clique_model(solver.graph(), model);
                assert_eq!(
                    solution.best().map(|c| c.size()),
                    oracle.map(|c| c.size()),
                    "{model} on {:?}",
                    solver.graph().stats()
                );
                match solution.best() {
                    Some(best) => {
                        assert_eq!(solution.termination, Termination::Optimal);
                        assert!(verify::is_fair_clique_under(
                            solver.graph(),
                            &best.vertices,
                            model
                        ));
                        // A maximum fair clique is in particular a maximal one.
                        assert!(verify::is_maximal_fair_clique_under(
                            solver.graph(),
                            &best.vertices,
                            model
                        ));
                    }
                    None => assert_eq!(solution.termination, Termination::Infeasible),
                }
            }
        }
    }
}

#[test]
fn one_solver_serves_mixed_queries_off_shared_preprocessing() {
    let solver = RfcSolver::new(fixtures::fig1_graph());
    let queries = [
        Query::new(FairnessModel::Relative { k: 3, delta: 1 }),
        Query::new(FairnessModel::Strong { k: 3 }),
        Query::new(FairnessModel::Weak { k: 3 }),
        Query::new(FairnessModel::Relative { k: 3, delta: 2 }),
    ];
    let sizes: Vec<Option<usize>> = queries
        .iter()
        .map(|q| {
            solver
                .solve(q)
                .unwrap()
                .best()
                .map(rfc_core::FairClique::size)
        })
        .collect();
    assert_eq!(sizes, vec![Some(7), Some(6), Some(8), Some(8)]);
    // All four queries share k = 3, so exactly one reduction pipeline ran.
    assert_eq!(solver.preprocessing_runs(), 1);
}

#[test]
fn node_budget_exhaustion_returns_a_verified_best_so_far() {
    // Big enough that the exact search genuinely needs many nodes: without the
    // heuristic warm start nothing can prune the tree down to a handful of branches.
    let g = erdos_renyi(60, 0.5, 0.5, 11);
    let solver = RfcSolver::new(g);
    let model = FairnessModel::Relative { k: 2, delta: 1 };
    let unbudgeted = solver.solve(&serial(Query::new(model))).unwrap();
    assert_eq!(unbudgeted.termination, Termination::Optimal);
    assert!(unbudgeted.stats.branches > 50, "workload too easy");

    let budgeted = solver
        .solve(&serial(
            Query::new(model).with_budget(Budget::unlimited().with_node_limit(20)),
        ))
        .unwrap();
    assert_eq!(budgeted.termination, Termination::BudgetExhausted);
    assert!(!budgeted.termination.is_complete());
    assert!(budgeted.stats.branches <= 20);
    let best = budgeted.best().expect("warm start guarantees an incumbent");
    assert!(verify::is_fair_clique_under(
        solver.graph(),
        &best.vertices,
        model
    ));
    assert!(best.size() <= unbudgeted.best().unwrap().size());

    // Budget-limited serial runs are still deterministic.
    let again = solver
        .solve(&serial(
            Query::new(model).with_budget(Budget::unlimited().with_node_limit(20)),
        ))
        .unwrap();
    assert_eq!(again.cliques, budgeted.cliques);
    assert_eq!(again.stats.branches, budgeted.stats.branches);
}

#[test]
fn zero_time_budget_trips_on_the_first_node() {
    let solver = RfcSolver::new(erdos_renyi(60, 0.5, 0.5, 11));
    let model = FairnessModel::Relative { k: 2, delta: 1 };
    let solution = solver
        .solve(&serial(Query::new(model).with_budget(
            Budget::unlimited().with_time_limit(Duration::ZERO),
        )))
        .unwrap();
    assert_eq!(solution.termination, Termination::BudgetExhausted);
    if let Some(best) = solution.best() {
        assert!(verify::is_fair_clique_under(
            solver.graph(),
            &best.vertices,
            model
        ));
    }
}

#[test]
fn cancellation_stops_the_search_and_is_reported() {
    let solver = RfcSolver::new(erdos_renyi(60, 0.5, 0.5, 11));
    let token = CancelToken::new();
    token.cancel();
    let solution = solver
        .solve(&serial(Query::new(FairnessModel::Relative { k: 2, delta: 1 })).with_cancel(token))
        .unwrap();
    assert_eq!(solution.termination, Termination::Cancelled);
}

#[test]
fn top_k_objective_returns_distinct_verified_cliques_best_first() {
    let solver = RfcSolver::new(fixtures::fig1_graph());
    let model = FairnessModel::Relative { k: 3, delta: 1 };
    let solution = solver
        .solve(&serial(
            Query::new(model).with_objective(Objective::TopK(4)),
        ))
        .unwrap();
    assert_eq!(solution.termination, Termination::Optimal);
    let sizes: Vec<usize> = solution.cliques.iter().map(|c| c.size()).collect();
    // The planted 8-clique (5 a's, 3 b's) has five fair 7-subsets; the top 4 are all
    // of size 7.
    assert_eq!(sizes, vec![7, 7, 7, 7]);
    let mut sets: Vec<_> = solution
        .cliques
        .iter()
        .map(|c| c.vertices.clone())
        .collect();
    sets.sort();
    sets.dedup();
    assert_eq!(sets.len(), 4, "top-k cliques must be distinct");
    for clique in &solution.cliques {
        assert!(verify::is_fair_clique_under(
            solver.graph(),
            &clique.vertices,
            model
        ));
    }
}

#[test]
fn compatibility_wrapper_agrees_with_the_solver() {
    let g = fixtures::fig1_graph();
    let solver = RfcSolver::new(g.clone());
    for (k, delta) in [(1usize, 0usize), (2, 1), (3, 1), (3, 2), (4, 1)] {
        let params = FairCliqueParams::new(k, delta).unwrap();
        let config = SearchConfig::default().with_threads(ThreadCount::Serial);
        let wrapper = max_fair_clique(&g, params, &config);
        let solution = solver
            .solve(&serial(Query::new(FairnessModel::Relative { k, delta })))
            .unwrap();
        assert_eq!(
            wrapper.best.as_ref().map(|c| c.size()),
            solution.best().map(|c| c.size()),
            "(k={k}, δ={delta})"
        );
        // The serial wrapper returns the identical clique, not just the same size.
        assert_eq!(
            wrapper.best.map(|c| c.vertices),
            solution.best().map(|c| c.vertices.clone())
        );
    }
}

#[test]
fn serial_solver_runs_are_fully_reproducible() {
    let solver = RfcSolver::new(fixtures::fig2_graph());
    let query = serial(Query::new(FairnessModel::Relative { k: 2, delta: 1 }));
    let first = solver.solve(&query).unwrap();
    for _ in 0..2 {
        let again = solver.solve(&query).unwrap();
        assert_eq!(again.cliques, first.cliques);
        assert_eq!(again.termination, first.termination);
        assert_eq!(again.stats.branches, first.stats.branches);
        assert_eq!(again.stats.bound_prunes, first.stats.bound_prunes);
        assert_eq!(again.stats.incumbent_updates, first.stats.incumbent_updates);
    }
}

/// Satellite audit (PR 5): `Budget` / `CancelToken` state must not leak between
/// repeated solves on one solver instance.
///
/// Audit result: no leak exists by construction — every `solve`/`enumerate` call
/// builds a fresh `SearchControl` (its deadline is anchored at that call, its node
/// counter and sticky stop flag start at zero), and the only state that *is* shared
/// across queries is a `CancelToken` the caller explicitly clones into several
/// queries, whose stickiness is documented. This regression test pins all of that:
/// a budget-exhausted solve followed by an unlimited solve on the same solver must
/// be exact, reusing the same budgeted `Query` value must re-anchor its deadline
/// rather than inherit the tripped state, and enumeration after an exhausted solve
/// must run to completion.
#[test]
fn exhausted_budgets_do_not_leak_into_later_queries() {
    let solver = RfcSolver::new(fixtures::fig1_graph());
    let model = FairnessModel::Relative { k: 3, delta: 1 };

    // Query 1: node budget exhausted immediately. The heuristic is disabled so the
    // warm start can't meet the colorful upper bound (which would certify the
    // best-so-far as Optimal) — this query must stay genuinely exhausted.
    let mut no_heuristic = SearchConfig::default().with_threads(ThreadCount::Serial);
    no_heuristic.use_heuristic = false;
    let starved = Query::new(model)
        .with_config(no_heuristic)
        .with_budget(Budget::unlimited().with_node_limit(0));
    let first = solver.solve(&starved).unwrap();
    assert_eq!(first.termination, Termination::BudgetExhausted);
    // The reduction still ran, so the colorful bound gives a finite gap.
    assert_eq!(first.upper_bound, Some(7));
    assert_eq!(first.optimality_gap(), Some(7));

    // Query 2 (same solver, fresh unlimited query): must be exact, with a live
    // search — not an inherited sticky stop.
    let full = solver.solve(&serial(Query::new(model))).unwrap();
    assert_eq!(full.termination, Termination::Optimal);
    assert_eq!(full.best().unwrap().size(), 7);
    assert!(
        full.stats.branches > 0,
        "the second search must actually run"
    );

    // Re-running the *same* budgeted query value trips on its own fresh control
    // (deadline/node counter re-anchored per call), not on leftover state: a
    // generous time limit paired with the old zero-node budget still reports
    // exhaustion from the node limit alone, while a pure time limit that was
    // nowhere near expiring solves to optimality every time.
    let timed = serial(Query::new(model))
        .with_budget(Budget::unlimited().with_time_limit(Duration::from_secs(3600)));
    for _ in 0..3 {
        let again = solver.solve(&timed).unwrap();
        assert_eq!(again.termination, Termination::Optimal);
        assert_eq!(again.best().unwrap().size(), 7);
    }
    let starved_again = solver.solve(&starved).unwrap();
    assert_eq!(starved_again.termination, Termination::BudgetExhausted);

    // Enumeration after an exhausted solve runs to completion on the same solver.
    let mut sink = CollectSink::new();
    let outcome = solver
        .enumerate(
            &EnumQuery::new(model).with_threads(ThreadCount::Serial),
            &mut sink,
        )
        .unwrap();
    assert_eq!(outcome.termination, EnumTermination::Complete);
    assert_eq!(outcome.emitted, 5);

    // A cancelled token is sticky *for the queries that share it* (documented), but
    // a token-free query on the same solver is untouched.
    let token = CancelToken::new();
    let cancellable = serial(Query::new(model)).with_cancel(token.clone());
    token.cancel();
    assert_eq!(
        solver.solve(&cancellable).unwrap().termination,
        Termination::Cancelled
    );
    assert_eq!(
        solver.solve(&cancellable).unwrap().termination,
        Termination::Cancelled,
        "token stickiness is shared state by design"
    );
    let clean = solver.solve(&serial(Query::new(model))).unwrap();
    assert_eq!(clean.termination, Termination::Optimal);
}

/// Regression (PR 10 bugfix): the wall-clock budget is anchored at query entry, so a
/// query whose *reduction alone* outlives a tiny `time_limit` returns
/// `BudgetExhausted` promptly — it must not silently extend the budget by the
/// preprocessing time, and the aborted partial pipeline must never be cached.
#[test]
fn time_budget_covers_the_reduction_phase() {
    // Large enough that the reduction pipeline takes well over the budget below.
    let g = erdos_renyi(1500, 0.05, 0.5, 7);
    let solver = RfcSolver::new(g);
    let model = FairnessModel::Relative { k: 2, delta: 1 };

    let starved = serial(Query::new(model))
        .with_budget(Budget::unlimited().with_time_limit(Duration::from_micros(200)));
    let solution = solver.solve(&starved).unwrap();
    assert_eq!(solution.termination, Termination::BudgetExhausted);
    assert!(
        solution.stats.reduction.stages.len() < 3,
        "the pipeline must have been interrupted, got {:?}",
        solution.stats.reduction.stages
    );
    // Nothing sound was computed, so no bound (and no gap) can be reported.
    assert_eq!(solution.upper_bound, None);
    assert_eq!(solution.optimality_gap(), None);
    assert!(solution.best().is_none());
    // The partial pipeline was not cached: the next query runs it from scratch.
    assert_eq!(solver.preprocessing_runs(), 0);
    let full = solver.solve(&serial(Query::new(model))).unwrap();
    assert_eq!(full.termination, Termination::Optimal);
    assert!(!full.reduction_cache_hit);
    assert_eq!(full.stats.reduction.stages.len(), 3);
    assert_eq!(solver.preprocessing_runs(), 1);
}

/// Regression (PR 10 bugfix): a pre-cancelled query stops at entry, before any
/// reduction stage runs.
#[test]
fn pre_cancelled_query_skips_the_reduction() {
    let solver = RfcSolver::new(erdos_renyi(1500, 0.05, 0.5, 7));
    let token = CancelToken::new();
    token.cancel();
    let solution = solver
        .solve(&serial(Query::new(FairnessModel::Relative { k: 2, delta: 1 })).with_cancel(token))
        .unwrap();
    assert_eq!(solution.termination, Termination::Cancelled);
    assert!(solution.stats.reduction.stages.is_empty());
    assert_eq!(solution.upper_bound, None);
    assert_eq!(solver.preprocessing_runs(), 0);
}

/// A budget-starved solve whose warm start already meets the colorful upper bound is
/// *certified*: the solver upgrades the termination to `Optimal`, so a reported gap
/// of zero always means the answer is exact.
#[test]
fn bound_certified_exhaustion_upgrades_to_optimal() {
    let solver = RfcSolver::new(fixtures::fig1_graph());
    let model = FairnessModel::Relative { k: 3, delta: 1 };
    // Heuristic on (default config): it finds the size-7 optimum, which matches the
    // colorful bound of the reduced graph — zero branch nodes needed.
    let solution = solver
        .solve(&serial(Query::new(model)).with_budget(Budget::unlimited().with_node_limit(0)))
        .unwrap();
    assert_eq!(solution.termination, Termination::Optimal);
    assert_eq!(solution.best().unwrap().size(), 7);
    assert_eq!(solution.upper_bound, Some(7));
    assert_eq!(solution.optimality_gap(), Some(0));
    assert!(verify::is_fair_clique_under(
        solver.graph(),
        &solution.best().unwrap().vertices,
        model
    ));
}
