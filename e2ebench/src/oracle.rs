//! Output checks against `whyq_matcher::reference`, the naive matcher that
//! shares no planning, indexing or caching code with the engine. Run
//! outside every timed region; counts are memoized per query signature,
//! in a memo of bounded size, so the benchmark's own memory does not grow
//! with the operations a run completes.

use std::collections::HashMap;
use whyq_graph::PropertyGraph;
use whyq_matcher::{count_matches_naive, MatchOptions};
use whyq_query::PatternQuery;

/// Memo entries kept before the memo starts afresh.
const MEMO_LIMIT: usize = 4096;

/// Memoized naive counts for one graph.
pub struct Oracle<'g> {
    graph: &'g PropertyGraph,
    memo: HashMap<(String, Option<u64>), u64>,
}

impl<'g> Oracle<'g> {
    /// Oracle over `graph`.
    pub fn new(graph: &'g PropertyGraph) -> Self {
        Oracle {
            graph,
            memo: HashMap::new(),
        }
    }

    /// Injective result count of `q`, stopping at `cap` (the same capped
    /// semantics as the engine's counting entry points).
    pub fn count(&mut self, q: &PatternQuery, cap: Option<u64>) -> u64 {
        let graph = self.graph;
        if self.memo.len() >= MEMO_LIMIT {
            self.memo.clear();
        }
        *self
            .memo
            .entry((q.signature(), cap))
            .or_insert_with(|| count_matches_naive(graph, q, MatchOptions::counting(cap)))
    }
}
