//! Property tests of parallel evaluation: `find_par` equals `find` as an
//! unordered multiset and `count_par` equals `count` — on randomized
//! graphs and queries (multi-component and empty-component cases
//! included), for thread counts {1, 2, 8} and adversarial
//! `min_seeds_per_split` values (0 forces maximal sharding, a huge floor
//! forces the serial fallback).

use proptest::prelude::*;
use std::collections::BTreeMap;
use whyq_graph::{PropertyGraph, Value};
use whyq_matcher::{MatchOptions, ResultGraph};
use whyq_query::{DirectionSet, PatternQuery, Predicate, QueryEdge, QueryVertex};
use whyq_session::{Database, ParallelOpts};

fn build_graph(n: usize, types: &[u8], pairs: &[(u8, u8, bool)]) -> PropertyGraph {
    let names = ["red", "green", "blue"];
    let mut g = PropertyGraph::new();
    let vs: Vec<_> = (0..n)
        .map(|i| {
            g.add_vertex([(
                "type",
                Value::str(names[types[i % types.len()] as usize % 3]),
            )])
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

/// A random query shape: a path of `len` vertices with typed edges, plus
/// an optional disconnected extra vertex (a second component, possibly
/// matching nothing) and optional direction-agnostic edges.
fn build_query(
    len: usize,
    types: &[u8],
    etypes: &[bool],
    undirected: bool,
    extra_component: bool,
    extra_type: &str,
) -> PatternQuery {
    let names = ["red", "green", "blue"];
    let mut q = PatternQuery::new();
    let mut prev = None;
    for i in 0..len {
        let v = q.add_vertex(QueryVertex::with([Predicate::eq(
            "type",
            names[types[i % types.len()] as usize % 3],
        )]));
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
    if extra_component {
        q.add_vertex(QueryVertex::with([Predicate::eq("type", extra_type)]));
    }
    q
}

fn multiset(results: &[ResultGraph]) -> BTreeMap<String, usize> {
    let mut m = BTreeMap::new();
    for r in results {
        *m.entry(format!("{r:?}")).or_insert(0) += 1;
    }
    m
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// For every thread count and split floor, `find_par` returns the
    /// multiset `find` returns and `count_par` the number `count` returns.
    #[test]
    fn parallel_equals_serial(
        n in 2usize..7,
        vtypes in prop::collection::vec(0u8..3, 6),
        pairs in prop::collection::vec((any::<u8>(), any::<u8>(), any::<bool>()), 1..12),
        qlen in 1usize..4,
        qtypes in prop::collection::vec(0u8..3, 4),
        qetypes in prop::collection::vec(any::<bool>(), 4),
        undirected in any::<bool>(),
        extra_component in any::<bool>(),
        // "purple" is absent from every graph: an unsatisfiable second
        // component (the empty-component edge case)
        extra_matches in any::<bool>(),
        injective in any::<bool>(),
    ) {
        let g = build_graph(n, &vtypes, &pairs);
        let extra_type = if extra_matches { "red" } else { "purple" };
        let q = build_query(qlen, &qtypes, &qetypes, undirected, extra_component, extra_type);
        let opts = MatchOptions { injective, limit: None, ..Default::default() };

        let db = Database::open(g).expect("open");
        let session = db.session();
        let prepared = session.prepare(&q).expect("valid query");
        let serial = prepared.find_opts(opts.clone()).expect("find");
        let serial_count = prepared.count_opts(opts.clone()).expect("count");

        for threads in [1usize, 2, 8] {
            for min_split in [0usize, 1, 3, 1_000_000] {
                let par = ParallelOpts::with_threads(threads).min_seeds_per_split(min_split);
                // parallel calls read the sibling cache: drop what the
                // serial calls memoized so the shards execute
                db.clear_sibling_cache();
                let found = prepared.find_par_opts(opts.clone(), &par).expect("find_par");
                prop_assert_eq!(
                    multiset(&found),
                    multiset(&serial),
                    "find_par multiset (threads={}, min_split={})", threads, min_split
                );
                db.clear_sibling_cache();
                let counted = prepared.count_par_opts(opts.clone(), &par).expect("count_par");
                prop_assert_eq!(
                    counted, serial_count,
                    "count_par (threads={}, min_split={})", threads, min_split
                );
            }
        }
    }

    /// Under a result cap, a parallel count still reports
    /// `min(C(Q), limit)` and a parallel find returns exactly
    /// `min(C(Q), limit)` results, each of which is a genuine serial
    /// result (which ones survive the cap is unspecified).
    #[test]
    fn parallel_limits_agree_with_serial(
        n in 2usize..6,
        vtypes in prop::collection::vec(0u8..3, 6),
        pairs in prop::collection::vec((any::<u8>(), any::<u8>(), any::<bool>()), 1..10),
        qlen in 1usize..4,
        qtypes in prop::collection::vec(0u8..3, 4),
        qetypes in prop::collection::vec(any::<bool>(), 4),
        extra_component in any::<bool>(),
        limit in 0usize..6,
    ) {
        let g = build_graph(n, &vtypes, &pairs);
        let q = build_query(qlen, &qtypes, &qetypes, false, extra_component, "red");
        let opts = MatchOptions { injective: true, limit: Some(limit), ..Default::default() };

        let db = Database::open(g).expect("open");
        let session = db.session();
        let prepared = session.prepare(&q).expect("valid query");
        let all = prepared.find().expect("find");
        let serial_count = prepared.count_opts(opts.clone()).expect("count");
        let universe = multiset(&all);

        for threads in [2usize, 8] {
            let par = ParallelOpts::with_threads(threads).min_seeds_per_split(1);
            // parallel calls read the sibling cache: drop what the
            // serial calls memoized so the shards execute
            db.clear_sibling_cache();
            prop_assert_eq!(
                prepared.count_par_opts(opts.clone(), &par).expect("count_par"),
                serial_count
            );
            db.clear_sibling_cache();
            let found = prepared.find_par_opts(opts.clone(), &par).expect("find_par");
            prop_assert_eq!(found.len(), all.len().min(limit));
            for (key, count) in multiset(&found) {
                prop_assert!(
                    universe.get(&key).is_some_and(|&c| c >= count),
                    "capped parallel results are a sub-multiset of the serial results"
                );
            }
        }
    }
}
