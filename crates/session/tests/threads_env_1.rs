//! Parallel facade under `WHYQ_THREADS=1`: the serial fallback path.
//!
//! `ParallelOpts::from_env` memoizes the `WHYQ_THREADS` lookup per
//! process, so each env value gets its own test binary (this one sets the
//! variable before any facade call can trigger the memoization).

use whyq_graph::{PropertyGraph, Value};
use whyq_query::{Predicate, QueryBuilder};
use whyq_session::{Database, ParallelOpts};

fn social() -> PropertyGraph {
    let mut g = PropertyGraph::new();
    let mut people = Vec::new();
    for i in 0..12 {
        people.push(g.add_vertex([("type", Value::str("person")), ("rank", Value::Int(i % 3))]));
    }
    for i in 0..12 {
        for j in 0..12 {
            if i != j && (i + j) % 3 == 0 {
                g.add_edge(people[i], people[j], "knows", []);
            }
        }
    }
    g
}

#[test]
fn env_thread_count_preserves_results() {
    std::env::set_var("WHYQ_THREADS", "1");
    let g = social();
    let db = Database::open(g).expect("open");
    let session = db.session();
    let q = QueryBuilder::new("pairs")
        .vertex("a", [Predicate::eq("type", "person")])
        .vertex("b", [Predicate::eq("type", "person")])
        .edge("a", "b", "knows")
        .build();
    let prepared = session.prepare(&q).expect("valid");
    let serial = prepared.find().expect("find");
    let count = prepared.count().expect("count");

    // the env-configured pool (memoized from WHYQ_THREADS=1) must agree
    // with the serial engine as a multiset / exact count
    let par = ParallelOpts::from_env().min_seeds_per_split(1);
    // parallel calls read the sibling cache: drop what the serial calls
    // memoized so the shards execute
    db.clear_sibling_cache();
    let mut found = prepared
        .find_par_opts(Default::default(), &par)
        .expect("find_par");
    let mut expect = serial.clone();
    let key = |r: &whyq_matcher::ResultGraph| format!("{r:?}");
    found.sort_by_key(key);
    expect.sort_by_key(key);
    assert_eq!(found, expect);
    db.clear_sibling_cache();
    assert_eq!(
        prepared
            .count_par_opts(Default::default(), &par)
            .expect("count_par"),
        count
    );
}
