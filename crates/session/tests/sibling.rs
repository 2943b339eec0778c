//! Equivalence of the sibling-cache incremental path against full
//! re-execution.
//!
//! For randomized graph × query × modification sequences, every query in
//! the sibling family is executed two ways: through a default database
//! (sibling cache enabled — plans may be *derived* from a sibling's and
//! component results replayed from the cache) and through a database with
//! the sibling layer disabled (`sibling_cache_capacity(0)` — every
//! execution compiles and runs from scratch). Counts must agree exactly
//! (with and without limits — counts are enumeration-order independent),
//! unlimited enumerations must agree as canonical multisets (a derived
//! plan may enumerate in a different order than a fresh compile), and a
//! *replayed* execution must be bit-identical to the recomputed one it
//! replays. Both databases run the same execution loop, so the naive
//! reference matcher (`whyq_matcher::reference`) is checked as a third
//! side. The same equivalences are checked through the 4-thread
//! `Executor` batch entry points (the `WHYQ_THREADS=4` configuration,
//! pinned explicitly via [`ParallelOpts::with_threads`]), through the
//! sharded `count_par_opts`/`find_par_opts` interleaved with serial calls
//! (parallel and serial runs share cache entries in both directions), and
//! under mid-run Budget trips: a tripped partial is a lower bound and is
//! never cached, serial or parallel, so a complete re-run after a trip
//! still matches the oracle.

use proptest::prelude::*;
use whyq_graph::{PropertyGraph, Value};
use whyq_matcher::{
    count_matches_naive, find_matches_naive, Budget, MatchOptions, ResultGraph, Termination,
};
use whyq_query::{
    DirectionSet, GraphMod, Interval, PatternQuery, Predicate, QVid, QueryEdge, QueryVertex, Target,
};
use whyq_session::{Database, DatabaseConfig, Executor, ParallelOpts, WhyqError};

fn build_graph(n: usize, types: &[u8], pairs: &[(u8, u8, bool)]) -> PropertyGraph {
    let names = ["red", "green", "blue"];
    let mut g = PropertyGraph::new();
    let vs: Vec<_> = (0..n)
        .map(|i| {
            g.add_vertex([
                (
                    "type",
                    Value::str(names[types[i % types.len()] as usize % 3]),
                ),
                ("rank", Value::Int((i % 3) as i64)),
            ])
        })
        .collect();
    for &(a, b, t) in pairs {
        g.add_edge(
            vs[a as usize % n],
            vs[b as usize % n],
            if t { "link" } else { "flow" },
            [],
        );
    }
    g
}

fn build_query(len: usize, types: &[u8], etypes: &[bool], undirected: bool) -> PatternQuery {
    let names = ["red", "green", "blue"];
    let mut q = PatternQuery::new();
    let mut prev: Option<QVid> = None;
    for i in 0..len {
        let preds = vec![
            Predicate::eq("type", names[types[i % types.len()] as usize % 3]),
            Predicate::eq("rank", (i % 3) as i64),
        ];
        let v = q.add_vertex(QueryVertex::with(preds));
        if let Some(p) = prev {
            let mut e = QueryEdge::typed(
                p,
                v,
                if etypes[i % etypes.len()] {
                    "link"
                } else {
                    "flow"
                },
            );
            if undirected {
                e.directions = DirectionSet::BOTH;
            }
            q.add_edge(e);
        }
        prev = Some(v);
    }
    q
}

/// The sibling family of `q`: `q` itself plus the cumulative application
/// of a modification sequence decoded from `(op, elem)` pairs. The decoded
/// operations deliberately mix the delta classes the cache distinguishes:
/// `ReplaceInterval` (a `SingleInterval` delta — the plan-derivation and
/// unit-invalidation fast path), predicate/edge/vertex removal (coarse
/// relaxations — component-signature reuse), and type widening.
fn sibling_family(q: &PatternQuery, mods: &[(u8, u8)]) -> Vec<PatternQuery> {
    let names = ["red", "green", "blue"];
    let mut family = vec![q.clone()];
    let mut cur = q.clone();
    for &(op, elem) in mods {
        let vids: Vec<QVid> = cur.vertex_ids().collect();
        let eids: Vec<_> = cur.edge_ids().collect();
        if vids.is_empty() {
            break;
        }
        let v = vids[elem as usize % vids.len()];
        let m = match op % 5 {
            // widen one vertex's type label to a different constant — the
            // one-OneOf-constant sibling shape
            0 => GraphMod::ReplaceInterval {
                target: Target::Vertex(v),
                attr: "type".into(),
                interval: Interval::eq(names[(elem as usize + 1) % 3]),
            },
            // widen to a disjunction (OneOf with several constants)
            1 => GraphMod::ReplaceInterval {
                target: Target::Vertex(v),
                attr: "rank".into(),
                interval: Interval::one_of([(elem % 3) as i64, ((elem + 1) % 3) as i64]),
            },
            2 => GraphMod::RemovePredicate {
                target: Target::Vertex(v),
                attr: if elem % 2 == 0 { "rank" } else { "type" }.into(),
            },
            3 if !eids.is_empty() => GraphMod::RemoveEdge(eids[elem as usize % eids.len()]),
            _ if vids.len() > 1 => GraphMod::RemoveVertex(v),
            _ => continue,
        };
        if m.apply(&mut cur).is_ok() {
            family.push(cur.clone());
        }
    }
    family
}

/// One match in canonical (order-insensitive) form.
type CanonicalMatch = (Vec<(u32, u32)>, Vec<(u32, u32)>);

fn canonical(results: &[ResultGraph]) -> Vec<CanonicalMatch> {
    let mut out: Vec<_> = results
        .iter()
        .map(|r| {
            (
                r.vertex_bindings()
                    .iter()
                    .map(|&(qv, d)| (qv.0, d.0))
                    .collect::<Vec<_>>(),
                r.edge_bindings()
                    .iter()
                    .map(|&(qe, d)| (qe.0, d.0))
                    .collect::<Vec<_>>(),
            )
        })
        .collect();
    out.sort();
    out
}

fn open_pair(g: &PropertyGraph) -> (Database, Database) {
    let inc = Database::open(g.clone()).expect("open");
    let full = Database::open_with(
        g.clone(),
        DatabaseConfig::default().sibling_cache_capacity(0),
    )
    .expect("open");
    (inc, full)
}

/// Sharded single-query execution, interleaved with serial calls on both
/// databases: every `count_par_opts`/`find_par_opts` answer (threads ∈
/// {2, 4}, split floor ∈ {1, 3}) equals the serial one. On the cached
/// database a parallel call first fills the cold cache for the serial
/// call after it, and a parallel call after a serial call replays
/// (raising `hits`). Returns whether any query was satisfiable with the
/// cache on, i.e. whether the hit checks had anything to observe.
fn assert_parallel_agrees_and_shares_the_cache(
    inc: &Database,
    full: &Database,
    family: &[PatternQuery],
) -> bool {
    let (inc_session, full_session) = (inc.session(), full.session());
    let opts = MatchOptions::default;
    let mut observed = false;
    for q in family {
        let serial_count = full_session.count(q).unwrap();
        let serial_rows = canonical(&full_session.find(q).unwrap());
        let inc_prepared = inc_session.prepare(q).unwrap();
        let full_prepared = full_session.prepare(q).unwrap();
        let replays = inc.sibling_cache_enabled() && !inc_prepared.is_unsatisfiable();
        observed |= replays;
        for threads in [2usize, 4] {
            for split in [1usize, 3] {
                let par = ParallelOpts::with_threads(threads).min_seeds_per_split(split);
                inc.clear_sibling_cache();
                assert_eq!(
                    inc_prepared.count_par_opts(opts(), &par).unwrap(),
                    serial_count
                );
                assert_eq!(inc_prepared.count_opts(opts()).unwrap(), serial_count);
                let hits = inc.sibling_stats().hits;
                assert_eq!(
                    inc_prepared.count_par_opts(opts(), &par).unwrap(),
                    serial_count
                );
                assert!(!replays || inc.sibling_stats().hits > hits, "{q:?}");

                let rows = |r: Vec<ResultGraph>| canonical(&r);
                assert_eq!(
                    rows(inc_prepared.find_par_opts(opts(), &par).unwrap()),
                    serial_rows
                );
                assert_eq!(rows(inc_prepared.find_opts(opts()).unwrap()), serial_rows);
                let hits = inc.sibling_stats().hits;
                assert_eq!(
                    rows(inc_prepared.find_par_opts(opts(), &par).unwrap()),
                    serial_rows
                );
                assert!(!replays || inc.sibling_stats().hits > hits, "{q:?}");

                // the cache-off database executes every parallel call
                assert_eq!(
                    full_prepared.count_par_opts(opts(), &par).unwrap(),
                    serial_count
                );
                assert_eq!(
                    rows(full_prepared.find_par_opts(opts(), &par).unwrap()),
                    serial_rows
                );
            }
        }
    }
    observed
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Serial equivalence over randomized sibling families: counts exact
    /// (limited and unlimited), unlimited find canonical-equal, replays
    /// bit-identical to the runs that populated them.
    #[test]
    fn incremental_equals_full_reexecution_serial(
        n in 2usize..7,
        vtypes in prop::collection::vec(0u8..3, 6),
        pairs in prop::collection::vec((any::<u8>(), any::<u8>(), any::<bool>()), 1..12),
        qlen in 1usize..4,
        qtypes in prop::collection::vec(0u8..3, 4),
        qetypes in prop::collection::vec(any::<bool>(), 4),
        undirected in any::<bool>(),
        mods in prop::collection::vec((any::<u8>(), any::<u8>()), 1..6),
        limit_raw in 0usize..6,
    ) {
        // 5 encodes "no limit" (the shim has no option strategy)
        let limit = (limit_raw < 5).then_some(limit_raw);
        let g = build_graph(n, &vtypes, &pairs);
        let base = build_query(qlen, &qtypes, &qetypes, undirected);
        let family = sibling_family(&base, &mods);
        let (inc, full) = open_pair(&g);
        let inc_session = inc.session();
        let full_session = full.session();

        for q in &family {
            let oracle_count = full_session.count_governed(q, MatchOptions::default()).unwrap();
            let oracle_rows = full_session.find_governed(q, MatchOptions::default()).unwrap();
            prop_assert_eq!(oracle_count.termination, Termination::Complete);
            // the cache-off database runs the same loop as the cached one:
            // pin both to the naive reference matcher
            prop_assert_eq!(oracle_count.value, count_matches_naive(&g, q, MatchOptions::default()));
            prop_assert_eq!(
                canonical(&oracle_rows.value),
                canonical(&find_matches_naive(&g, q, MatchOptions::default()))
            );

            // first incremental run (misses fill the cache) …
            let first = inc_session.find_governed(q, MatchOptions::default()).unwrap();
            let count = inc_session.count_governed(q, MatchOptions::default()).unwrap();
            prop_assert_eq!(count.value, oracle_count.value);
            prop_assert_eq!(count.termination, Termination::Complete);
            prop_assert_eq!(canonical(&first.value), canonical(&oracle_rows.value));

            // … and the replayed run must be bit-identical to it
            let replay = inc_session.find_governed(q, MatchOptions::default()).unwrap();
            prop_assert_eq!(&replay.value, &first.value);
            let recount = inc_session.count_governed(q, MatchOptions::default()).unwrap();
            prop_assert_eq!(recount.value, oracle_count.value);

            // limited counts are enumeration-order independent, so they
            // must agree across the two databases even for derived plans
            if let Some(l) = limit {
                let opts = MatchOptions::limited(l);
                let a = inc_session.count_governed(q, opts.clone()).unwrap();
                let b = full_session.count_governed(q, opts.clone()).unwrap();
                prop_assert_eq!(a.value, b.value);
                prop_assert_eq!(b.value, count_matches_naive(&g, q, opts));
                // limited rows: replays must be bit-identical within the
                // incremental database (same plan, same prefix)
                let opts = MatchOptions::limited(l);
                let r1 = inc_session.find_governed(q, opts.clone()).unwrap();
                let r2 = inc_session.find_governed(q, opts).unwrap();
                prop_assert_eq!(r1.value.len(), r2.value.len());
                prop_assert_eq!(&r1.value, &r2.value);
            }
        }
        // when any family member was satisfiable the cache participated:
        // its components were inserted on the first run and replayed after
        // (an all-unsatisfiable family never reaches the engine at all;
        // under WHYQ_NO_SIBLING_CACHE=1 the layer is off and the whole
        // suite exercises the plain path instead)
        let stats = inc.sibling_stats();
        let any_satisfiable = family
            .iter()
            .any(|q| !inc_session.prepare(q).unwrap().is_unsatisfiable());
        prop_assert!(
            !inc.sibling_cache_enabled()
                || !any_satisfiable
                || (stats.insertions > 0 && stats.hits > 0)
        );
    }

    /// The 4-thread executor path (the `WHYQ_THREADS=4` configuration):
    /// batched counts and governed finds over the whole sibling family
    /// agree with serial full re-execution.
    #[test]
    fn incremental_equals_full_reexecution_batched(
        n in 2usize..6,
        vtypes in prop::collection::vec(0u8..3, 6),
        pairs in prop::collection::vec((any::<u8>(), any::<u8>(), any::<bool>()), 1..10),
        qlen in 1usize..4,
        qtypes in prop::collection::vec(0u8..3, 4),
        qetypes in prop::collection::vec(any::<bool>(), 4),
        mods in prop::collection::vec((any::<u8>(), any::<u8>()), 1..5),
    ) {
        let g = build_graph(n, &vtypes, &pairs);
        let base = build_query(qlen, &qtypes, &qetypes, false);
        let family = sibling_family(&base, &mods);
        let refs: Vec<&PatternQuery> = family.iter().collect();
        let (inc, full) = open_pair(&g);
        let full_session = full.session();
        let executor = Executor::new(ParallelOpts::with_threads(4));

        let batched = executor.count_batch(&inc, &refs, MatchOptions::default());
        // run the batch twice: the second pass replays what the first
        // inserted, across worker sessions (the cache is database state)
        let replayed = executor.count_batch(&inc, &refs, MatchOptions::default());
        for ((q, got), again) in family.iter().zip(&batched).zip(&replayed) {
            let oracle = full_session.count_governed(q, MatchOptions::default()).unwrap();
            prop_assert_eq!(got.as_ref().unwrap(), &oracle.value);
            prop_assert_eq!(again.as_ref().unwrap(), &oracle.value);
        }

        let requests: Vec<(&PatternQuery, MatchOptions)> = family
            .iter()
            .map(|q| (q, MatchOptions::default()))
            .collect();
        for (q, slot) in family.iter().zip(executor.find_batch(&inc, &requests)) {
            let governed = slot.unwrap();
            prop_assert_eq!(governed.termination, Termination::Complete);
            let oracle = full_session.find_governed(q, MatchOptions::default()).unwrap();
            prop_assert_eq!(canonical(&governed.value), canonical(&oracle.value));
        }

        assert_parallel_agrees_and_shares_the_cache(&inc, &full, &family);
    }

    /// Mid-run Budget trips: a tripped governed count is a lower bound of
    /// the true count, the tripped partial is never inserted into the
    /// sibling cache, and a subsequent unconstrained run — which would
    /// replay any poisoned entry — still equals full re-execution.
    #[test]
    fn tripped_partials_are_lower_bounds_and_never_cached(
        n in 3usize..7,
        vtypes in prop::collection::vec(0u8..3, 6),
        pairs in prop::collection::vec((any::<u8>(), any::<u8>(), any::<bool>()), 1..12),
        qlen in 1usize..4,
        qtypes in prop::collection::vec(0u8..3, 4),
        qetypes in prop::collection::vec(any::<bool>(), 4),
        mods in prop::collection::vec((any::<u8>(), any::<u8>()), 1..5),
        steps in 1u64..40,
    ) {
        let g = build_graph(n, &vtypes, &pairs);
        let base = build_query(qlen, &qtypes, &qetypes, false);
        let family = sibling_family(&base, &mods);
        let (inc, full) = open_pair(&g);
        let inc_session = inc.session();
        let full_session = full.session();

        for q in &family {
            let oracle = full_session.count_governed(q, MatchOptions::default()).unwrap();

            let before = inc.sibling_stats().insertions;
            let starved = MatchOptions::default().with_budget(Budget::steps(steps));
            let tripped = inc_session.count_governed(q, starved).unwrap();
            prop_assert!(tripped.value <= oracle.value);
            if tripped.termination != Termination::Complete {
                // only units that ran to completion before the trip may
                // have been cached; re-running unconstrained must not
                // replay any truncated component count
                let after = inc_session.count_governed(q, MatchOptions::default()).unwrap();
                prop_assert_eq!(after.value, oracle.value);
                prop_assert_eq!(after.termination, Termination::Complete);
            } else {
                prop_assert_eq!(tripped.value, oracle.value);
                let _ = before;
            }

            // a parallel run that trips is an error and memoizes nothing
            // (on a cold cache, so the run really executes; a connected
            // query is one component, so no earlier component completed)
            inc.clear_sibling_cache();
            let before = inc.sibling_stats().insertions;
            let par = ParallelOpts::with_threads(2).min_seeds_per_split(1);
            let starved = MatchOptions::default().with_budget(Budget::steps(steps));
            let prepared = inc_session.prepare(q).unwrap();
            match prepared.count_par_opts(starved, &par) {
                Ok(count) => prop_assert_eq!(count, oracle.value),
                Err(e) => {
                    prop_assert!(matches!(e, WhyqError::Interrupted { .. }));
                    if q.is_connected() {
                        prop_assert_eq!(inc.sibling_stats().insertions, before);
                    }
                    let after = prepared.count_par_opts(MatchOptions::default(), &par).unwrap();
                    prop_assert_eq!(after, oracle.value);
                }
            }

            // the row twin under the same starvation
            let starved = MatchOptions::default().with_budget(Budget::steps(steps));
            let rows = inc_session.find_governed(q, starved).unwrap();
            let oracle_rows = full_session.find_governed(q, MatchOptions::default()).unwrap();
            if rows.termination != Termination::Complete {
                let complete = inc_session.find_governed(q, MatchOptions::default()).unwrap();
                prop_assert_eq!(canonical(&complete.value), canonical(&oracle_rows.value));
            } else {
                prop_assert_eq!(canonical(&rows.value), canonical(&oracle_rows.value));
            }
        }
    }
}

/// An immediately-tripped budget never touches the cache at all: the
/// incremental path refuses up front exactly like the engine, and no
/// partial (here: empty) unit result is inserted.
#[test]
fn pre_tripped_budget_inserts_nothing() {
    let g = build_graph(4, &[0, 1, 2], &[(0, 1, true), (1, 2, false)]);
    let db = Database::open(g).expect("open");
    let session = db.session();
    let q = build_query(2, &[0, 1], &[true], false);

    let dead = Budget::steps(1);
    dead.trip(Termination::BudgetExhausted);
    let governed = session
        .count_governed(&q, MatchOptions::default().with_budget(dead))
        .unwrap();
    assert_ne!(governed.termination, Termination::Complete);
    assert_eq!(governed.value, 0);
    assert_eq!(db.sibling_stats().insertions, 0, "{:?}", db.sibling_stats());
}

/// `clear_sibling_cache` bumps the generation: stale entries stop
/// replaying (counted as invalidations) and results stay correct.
#[test]
fn generation_bump_invalidates_replays() {
    let g = build_graph(5, &[0, 1, 2], &[(0, 1, true), (1, 2, true), (2, 3, false)]);
    let db = Database::open(g).expect("open");
    let session = db.session();
    let q = build_query(2, &[0, 1], &[true], false);

    if !db.sibling_cache_enabled() {
        return; // WHYQ_NO_SIBLING_CACHE=1: nothing to invalidate
    }
    let first = session.count_governed(&q, MatchOptions::default()).unwrap();
    let replayed = session.count_governed(&q, MatchOptions::default()).unwrap();
    assert_eq!(first.value, replayed.value);
    let hits = db.sibling_stats().hits;
    assert!(hits > 0, "{:?}", db.sibling_stats());

    db.clear_sibling_cache();
    let invalidations = db.sibling_stats().invalidations;
    let again = session.count_governed(&q, MatchOptions::default()).unwrap();
    assert_eq!(again.value, first.value);
    assert!(
        db.sibling_stats().invalidations > invalidations,
        "stale-generation entries must be dropped and counted: {:?}",
        db.sibling_stats()
    );
}

/// The parallel/serial interleaving on a graph large enough that every
/// type bucket shards at both split floors (8 seeds per type), so the
/// parallel calls really run on workers rather than falling back to one
/// unit — and, with the cache on, replay what the serial calls memoized.
#[test]
fn sharded_parallel_calls_share_the_cache_with_serial_calls() {
    let pairs: Vec<(u8, u8, bool)> = (0u8..24)
        .flat_map(|i| [(i, (i * 7 + 3) % 24, true), (i, (i * 5 + 1) % 24, false)])
        .collect();
    let g = build_graph(24, &[0, 1, 2], &pairs);
    let base = build_query(3, &[0, 1, 2], &[true, false], false);
    let family = sibling_family(&base, &[(0, 1), (2, 0), (3, 0), (1, 2), (4, 1)]);
    let (inc, full) = open_pair(&g);
    let observed = assert_parallel_agrees_and_shares_the_cache(&inc, &full, &family);
    assert!(!inc.sibling_cache_enabled() || observed);
}
