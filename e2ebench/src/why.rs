//! The closed-loop why-query workloads, `why-empty` and `why-card`: one
//! analyst who types a pattern, states a goal and waits for the diagnosis
//! before the next question.
//!
//! The end-to-end run times `parse_query` → `WhyEngine::diagnose`, the
//! public entry point, with the engine's default caches and executor. The
//! traced run decomposes `diagnose` into the public calls it makes and
//! records a span around each, plus counter deltas from the stats APIs.

use crate::gen::{self, Dataset, WhyInput};
use crate::oracle::Oracle;
use crate::stats::{self, ratio};
use crate::trace::{self, Tracer};
use crate::{Args, DbCounts, Outcome, SetupProbe, SetupTimes};
use std::collections::HashMap;
use std::hint::black_box;
use std::time::{Duration, Instant};
use whyq_core::engine::Diagnosis;
use whyq_core::fine::TraverseSearchTree;
use whyq_core::relax::CoarseRewriter;
use whyq_core::{CardinalityGoal, Database, Session, Termination, WhyEngine, WhyProblem};
use whyq_matcher::MatchOptions;
use whyq_query::{parse_query, PatternQuery};

/// Inputs generated per run; more than any run consumes, so `why-empty`
/// never repeats a query.
const STREAM: usize = 20_000;

/// Per-workload parameters.
struct Spec {
    /// Graphs and their scale (persons for LDBC, entities for DBpedia).
    graphs: Vec<(Dataset, usize)>,
    /// Untimed operations before measuring, so lazy set-up and the caches
    /// reach their steady state.
    warmup: usize,
}

fn spec(workload: &str) -> Spec {
    match workload {
        "why-empty" => Spec {
            graphs: vec![(Dataset::Ldbc, 300), (Dataset::Dbpedia, 2000)],
            warmup: 200,
        },
        _ => Spec {
            graphs: vec![(Dataset::Ldbc, 1000)],
            warmup: 40,
        },
    }
}

/// What one diagnosis returned, kept for the oracle checks.
struct Explained {
    problem: WhyProblem,
    cardinality: u64,
    mcs: PatternQuery,
    mcs_cardinality: u64,
    rewrite: PatternQuery,
    rewrite_cardinality: u64,
}

/// One measured operation.
struct Record {
    input: usize,
    ns: u64,
    result: Result<Explained, String>,
}

/// A diagnosis is an explanation only with both kinds present and a
/// subgraph search that ran to completion.
fn explained(d: Diagnosis) -> Result<Explained, String> {
    let sub = d.subgraph.ok_or("no subgraph explanation")?;
    if sub.termination != Termination::Complete {
        return Err(format!("subgraph search ended {:?}", sub.termination));
    }
    let rw = d.rewrite.ok_or("no rewrite")?;
    Ok(Explained {
        problem: d.problem,
        cardinality: d.cardinality,
        mcs: sub.mcs,
        mcs_cardinality: sub.mcs_cardinality,
        rewrite: rw.query,
        rewrite_cardinality: rw.cardinality,
    })
}

/// The why-inputs of a run. `why-card` goals are stated relative to the
/// oracle count of each query, so its inputs need the graph.
fn inputs(args: &Args, dbs: &[(Dataset, Database)]) -> Vec<WhyInput> {
    if args.workload == "why-empty" {
        return gen::why_empty_inputs(args.seed, STREAM);
    }
    let family = gen::why_card_family();
    let mut oracle = Oracle::new(dbs[0].1.graph());
    let mut c1: HashMap<usize, u64> = HashMap::new();
    gen::why_card_draws(args.seed, STREAM)
        .into_iter()
        .filter_map(|(k, factor)| {
            let c = *c1.entry(k).or_insert_with(|| {
                let q = parse_query(&family[k]).expect("family parses");
                oracle.count(&q, None)
            });
            gen::card_goal(c, factor).map(|goal| WhyInput {
                dataset: Dataset::Ldbc,
                text: family[k].clone(),
                goal,
            })
        })
        .collect()
}

/// Counters the traced run reads from the outcomes of core calls.
#[derive(Default)]
struct CoreCounts {
    mcs_paths: u64,
    mcs_extensions: u64,
    relax_executed: u64,
    relax_generated: u64,
    relax_speculated: u64,
    relax_lookups: u64,
    relax_hits: u64,
    fine_executed: u64,
    fine_extensions: u64,
}

/// Databases, engines and sessions of one set-up.
struct Ctx<'a> {
    dbs: &'a [(Dataset, Database)],
    engines: Vec<WhyEngine<'a>>,
    sessions: Vec<Session<'a>>,
}

impl<'a> Ctx<'a> {
    fn new(dbs: &'a [(Dataset, Database)]) -> Self {
        Ctx {
            dbs,
            engines: dbs.iter().map(|(_, db)| WhyEngine::new(db)).collect(),
            sessions: dbs.iter().map(|(_, db)| db.session()).collect(),
        }
    }

    fn slot(&self, ds: Dataset) -> usize {
        self.dbs
            .iter()
            .position(|(d, _)| *d == ds)
            .expect("input dataset is set up")
    }

    /// `parse_query` → `WhyEngine::diagnose`, timed as one operation.
    fn diagnose(&self, input: &WhyInput) -> (u64, Result<Diagnosis, String>) {
        let engine = &self.engines[self.slot(input.dataset)];
        let t = Instant::now();
        let d = parse_query(&input.text)
            .map_err(|e| e.to_string())
            .and_then(|q| engine.diagnose(&q, input.goal).map_err(|e| e.to_string()));
        let ns = elapsed_ns(t);
        (ns, black_box(d))
    }

    /// The same operation decomposed into the public calls `diagnose`
    /// makes, each in its own span under one root span per operation.
    fn diagnose_traced(
        &self,
        input: &WhyInput,
        op: u64,
        tr: &mut Tracer,
        counts: &mut CoreCounts,
    ) -> Result<Explained, String> {
        let slot = self.slot(input.dataset);
        let (db, engine, session) = (&self.dbs[slot].1, &self.engines[slot], &self.sessions[slot]);
        let goal = input.goal;
        let root = tr.begin("op", op, None);
        let result = (|| {
            let s = tr.begin("query.parse", op, Some(root));
            let q = parse_query(&input.text).map_err(|e| e.to_string());
            tr.end(s);
            let q = q?;

            let s = tr.begin("session.prepare", op, Some(root));
            let prepared = session.prepare(&q).map_err(|e| e.to_string());
            tr.end(s);
            let prepared = prepared?;
            let before = db.sibling_stats();
            let s = tr.begin("session.count.exec", op, Some(root));
            let count = prepared.count_governed(MatchOptions::counting(Some(engine.count_cap)));
            tr.end(s);
            let after = db.sibling_stats();
            // a count that inserted into the sibling cache executed; one
            // that only hit it replayed
            if after.insertions == before.insertions && after.hits > before.hits {
                tr.rename(s, "session.count.replay");
            }
            drop(prepared);
            if !count.is_complete() {
                return Err(format!(
                    "classification count ended {:?}",
                    count.termination
                ));
            }
            let cardinality = count.value;
            let problem = goal.classify(cardinality);

            let s = tr.begin("core.mcs", op, Some(root));
            let sub = engine.subgraph_explanation(&q, goal);
            tr.end(s);
            let sub = sub.map_err(|e| e.to_string())?;
            counts.mcs_paths += sub.paths_tried as u64;
            counts.mcs_extensions += sub.extensions;

            // each span also covers dropping what its calls built
            let rewrite = if problem == WhyProblem::WhyEmpty && goal == CardinalityGoal::NonEmpty {
                let s = tr.begin("core.relax", op, Some(root));
                let explanation = {
                    let out = CoarseRewriter::new(db).rewrite(&q, &engine.relax_config);
                    counts.relax_executed += out.executed as u64;
                    counts.relax_generated += out.generated as u64;
                    counts.relax_speculated += out.speculated as u64;
                    counts.relax_lookups += out.cache.lookups;
                    counts.relax_hits += out.cache.hits;
                    out.explanation
                };
                tr.end(s);
                explanation
            } else {
                let s = tr.begin("core.fine_setup", op, Some(root));
                let fine = TraverseSearchTree::new(db).with_config(engine.fine_config.clone());
                tr.end(s);
                let s = tr.begin("core.fine", op, Some(root));
                let explanation = {
                    let out = fine.run(&q, goal);
                    drop(fine);
                    counts.fine_executed += out.executed as u64;
                    counts.fine_extensions += out.extensions;
                    out.explanation
                };
                tr.end(s);
                explanation
            };
            explained(Diagnosis {
                problem,
                cardinality,
                subgraph: Some(sub),
                rewrite,
            })
        })();
        tr.end(root);
        result
    }
}

fn elapsed_ns(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Untimed operations from the start of the stream.
fn warm_up(ctx: &Ctx<'_>, inputs: &[WhyInput], n: usize) {
    for input in inputs.iter().cycle().take(n) {
        let _ = black_box(ctx.diagnose(input));
    }
}

/// Operations between two rounds of oracle checks. The checks run outside
/// the measured time (as do the set-up probes), and the benchmark holds the
/// explanations of at most this many operations, so its own memory does
/// not grow with the number of operations a run completes.
const CHECK_EVERY: usize = 64;

/// The oracle checks of the records of one set-up, and the failures found.
struct Checker<'c, 'a> {
    ctx: &'c Ctx<'a>,
    inputs: &'c [WhyInput],
    oracles: Vec<Oracle<'a>>,
    /// Records that errored, lacked an explanation or failed a check.
    failed: u64,
    /// Records that failed an oracle check.
    mismatches: u64,
}

impl<'c, 'a> Checker<'c, 'a> {
    fn new(ctx: &'c Ctx<'a>, inputs: &'c [WhyInput]) -> Self {
        Checker {
            ctx,
            inputs,
            oracles: ctx
                .dbs
                .iter()
                .map(|(_, db)| Oracle::new(db.graph()))
                .collect(),
            failed: 0,
            mismatches: 0,
        }
    }

    /// Check one record against the oracle and count it if it failed;
    /// the first ten failures are printed.
    fn check(&mut self, r: Record) {
        let input = &self.inputs[r.input];
        let result = r.result.and_then(|ex| match self.mismatch(input, &ex) {
            Some(p) => {
                self.mismatches += 1;
                Err(format!("oracle: {p}"))
            }
            None => Ok(()),
        });
        if let Err(e) = result {
            if self.failed < 10 {
                eprintln!("e2ebench: failed {:?} ({:?}): {e}", input.text, input.goal);
            }
            self.failed += 1;
        }
    }

    /// What the oracle disagrees with in `ex`, if anything.
    fn mismatch(&mut self, input: &WhyInput, ex: &Explained) -> Option<String> {
        let slot = self.ctx.slot(input.dataset);
        let engine = &self.ctx.engines[slot];
        let oracle = &mut self.oracles[slot];
        let q = parse_query(&input.text).expect("generated inputs parse");
        let rewrite_cap = if input.goal == CardinalityGoal::NonEmpty {
            engine.relax_config.count_limit
        } else {
            engine.fine_config.count_cap
        };
        let c = oracle.count(&q, Some(engine.count_cap));
        let mcs = oracle.count(&ex.mcs, Some(engine.mcs_config.cardinality_limit));
        let rw = oracle.count(&ex.rewrite, Some(rewrite_cap));
        if c != ex.cardinality {
            Some(format!(
                "cardinality {} but the oracle counts {c}",
                ex.cardinality
            ))
        } else if input.goal.classify(c) != ex.problem {
            Some(format!(
                "classified {:?}, the oracle count {c} is {:?}",
                ex.problem,
                input.goal.classify(c)
            ))
        } else if mcs != ex.mcs_cardinality {
            Some(format!(
                "MCS cardinality {} but the oracle counts {mcs}",
                ex.mcs_cardinality
            ))
        } else if rw != ex.rewrite_cardinality {
            Some(format!(
                "rewrite cardinality {} but the oracle counts {rw}",
                ex.rewrite_cardinality
            ))
        } else if !input.goal.satisfied(rw) {
            Some(format!(
                "rewrite count {rw} misses the goal {:?}",
                input.goal
            ))
        } else {
            None
        }
    }
}

/// Run `op` on the inputs after the warm-up, in stream order, until
/// `budget` of measured time has passed; after every `CHECK_EVERY`
/// operations the clock stops while `between` takes their records.
/// Returns the completion rate: operations per measured second, over the
/// whole run.
fn measured_loop<T>(
    inputs: &[WhyInput],
    warmup: usize,
    budget: Duration,
    mut op: impl FnMut(usize) -> T,
    mut between: impl FnMut(&mut Vec<T>),
) -> f64 {
    let mut batch = Vec::with_capacity(CHECK_EVERY);
    let mut measured = Duration::ZERO;
    let mut i = warmup;
    let mut ops = 0;
    while measured < budget {
        let start = Instant::now();
        while batch.len() < CHECK_EVERY && measured + start.elapsed() < budget {
            batch.push(op(i % inputs.len()));
            i += 1;
        }
        measured += start.elapsed();
        ops += batch.len();
        between(&mut batch);
        batch.clear();
    }
    if i > inputs.len() {
        eprintln!(
            "e2ebench: the input stream wrapped around after {} inputs",
            inputs.len()
        );
    }
    ops as f64 / measured.as_secs_f64()
}

/// Generate and open the workload's graphs again and again for `seconds`.
fn setup(spec: &Spec, times: &mut SetupTimes, seconds: f64) -> Vec<(Dataset, Database)> {
    crate::setup_burst(times, seconds, |times| {
        crate::open_databases(&spec.graphs, times)
    })
}

/// The times of `args.seconds` of set-ups alone (a set-up probe).
pub fn setup_times(args: &Args) -> SetupTimes {
    let mut times = SetupTimes::default();
    drop(setup(&spec(&args.workload), &mut times, args.seconds));
    times
}

fn print_provenance(args: &Args, dbs: &[(Dataset, Database)], n_inputs: usize) {
    let refs: Vec<(Dataset, &Database)> = dbs.iter().map(|(d, db)| (*d, db)).collect();
    println!(
        "{{\"provenance\": {}}}",
        crate::provenance(args, &refs, &[("inputs", n_inputs.to_string())])
    );
}

/// Run `why-empty` or `why-card`.
pub fn run(args: &Args) -> Outcome {
    let spec = spec(&args.workload);
    let mut times = SetupTimes::default();
    let dbs = setup(&spec, &mut times, crate::SETUP_SECONDS);
    let inputs = inputs(args, &dbs);
    print_provenance(args, &dbs, inputs.len());
    let mut out = Outcome::default();
    let mut probe = SetupProbe::new(args, times);
    if args.trace {
        traced(args, &spec, &dbs, &inputs, &mut out, &mut probe);
    } else {
        measured(args, &spec, &dbs, &inputs, &mut out, &mut probe);
    }
    probe.probe();
    probe.times.report(&mut out.metrics);
    out
}

/// The end-to-end run: the closed loop on `dbs`.
fn measured(
    args: &Args,
    spec: &Spec,
    dbs: &[(Dataset, Database)],
    inputs: &[WhyInput],
    out: &mut Outcome,
    probe: &mut SetupProbe,
) {
    let ctx = Ctx::new(dbs);
    warm_up(&ctx, inputs, spec.warmup);
    let mut checker = Checker::new(&ctx, inputs);
    let mut lat = Vec::new();
    let rate = measured_loop(
        inputs,
        spec.warmup,
        Duration::from_secs_f64(args.seconds),
        |idx| {
            let (ns, d) = ctx.diagnose(&inputs[idx]);
            Record {
                input: idx,
                ns,
                result: d.and_then(explained),
            }
        },
        |batch| {
            for r in batch.drain(..) {
                lat.push(r.ns as f64 / 1e6);
                checker.check(r);
            }
            probe.due();
        },
    );
    out.metrics.insert("peak_rss_mb", crate::peak_rss_mb());
    out.mismatches = checker.mismatches;
    out.failed = checker.failed;
    out.attempted = lat.len() as u64;
    let lat = stats::sorted(&lat);
    eprintln!(
        "e2ebench: {} ops at {rate:.1}/s; p95 {:.3} ms, p99 {:.3} ms (highest supported \
         percentile p{:?})",
        lat.len(),
        stats::percentile(&lat, 95.0),
        stats::percentile(&lat, 99.0),
        stats::highest_supported(lat.len())
    );
    let m = &mut out.metrics;
    m.insert("p50_ms", stats::percentile(&lat, 50.0));
    m.insert("ops_per_s", rate);
    // a filler with no signal of its own: one closed-loop client sustains
    // exactly its own completion rate
    m.insert("max_rate_hz", rate);
    m.insert(
        "ok_frac",
        1.0 - ratio(out.failed as f64, out.attempted as f64),
    );
}

/// The per-layer run: every input runs untraced on `dbs` and then traced
/// on a second set-up, alternating, so host drift hits both alike and
/// their difference is the tracing overhead.
fn traced(
    args: &Args,
    spec: &Spec,
    dbs: &[(Dataset, Database)],
    inputs: &[WhyInput],
    out: &mut Outcome,
    probe: &mut SetupProbe,
) {
    let traced_dbs = crate::open_databases(&spec.graphs, &mut SetupTimes::default());
    let (plain, ctx) = (Ctx::new(dbs), Ctx::new(&traced_dbs));
    warm_up(&plain, inputs, spec.warmup);
    warm_up(&ctx, inputs, spec.warmup);
    let mut tr = Tracer::new(Instant::now());
    let mut core = CoreCounts::default();
    let before = DbCounts::of(traced_dbs.iter().map(|(_, db)| db));
    let (mut plain_checker, mut checker) =
        (Checker::new(&plain, inputs), Checker::new(&ctx, inputs));
    let mut untraced_lat = Vec::new();
    let mut n = 0u64;
    // each operation is a pair: the untraced run, then the traced one
    measured_loop(
        inputs,
        spec.warmup,
        Duration::from_secs_f64(args.seconds),
        |idx| {
            let (ns, d) = plain.diagnose(&inputs[idx]);
            let result = ctx.diagnose_traced(&inputs[idx], n, &mut tr, &mut core);
            n += 1;
            (
                Record {
                    input: idx,
                    ns,
                    result: d.and_then(explained),
                },
                Record {
                    input: idx,
                    ns: 0,
                    result,
                },
            )
        },
        |batch| {
            for (untraced, traced) in batch.drain(..) {
                untraced_lat.push(untraced.ns as f64 / 1e6);
                plain_checker.check(untraced);
                checker.check(traced);
            }
            probe.due();
        },
    );
    let after = DbCounts::of(traced_dbs.iter().map(|(_, db)| db));
    let spans = tr.spans();
    let roots: Vec<f64> = spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| (s.end - s.start) as f64 / 1e6)
        .collect();
    out.mismatches = plain_checker.mismatches + checker.mismatches;
    out.failed = plain_checker.failed + checker.failed;
    out.attempted = 2 * n;
    let untraced_lat = stats::sorted(&untraced_lat);
    let untraced_p50 = stats::percentile(&untraced_lat, 50.0);

    crate::write_spans(args, spans);

    let ops = n.max(1) as f64;
    let self_ns = trace::self_time_by_name(spans);
    let us = |name: &str| self_ns.get(name).copied().unwrap_or(0) as f64 / 1e3 / ops;
    let m = &mut out.metrics;
    m.insert("query.parse_us", us("query.parse"));
    m.insert("session.prepare_us", us("session.prepare"));
    m.insert("session.count_exec_us", us("session.count.exec"));
    m.insert("session.count_replay_us", us("session.count.replay"));
    m.insert("core.mcs_us", us("core.mcs"));
    m.insert("core.relax_us", us("core.relax"));
    m.insert("core.fine_setup_us", us("core.fine_setup"));
    m.insert("core.fine_us", us("core.fine"));
    m.insert("bench.self_us", us("op"));
    before.report_delta(&after, ops, m);
    m.insert("core.mcs_paths_per_op", core.mcs_paths as f64 / ops);
    m.insert(
        "core.mcs_extensions_per_op",
        core.mcs_extensions as f64 / ops,
    );
    m.insert(
        "core.relax_executed_per_op",
        core.relax_executed as f64 / ops,
    );
    m.insert(
        "core.relax_generated_per_op",
        core.relax_generated as f64 / ops,
    );
    m.insert(
        "core.relax_speculated_per_op",
        core.relax_speculated as f64 / ops,
    );
    m.insert(
        "core.relax_useful_ratio",
        ratio(
            core.relax_executed as f64,
            (core.relax_executed + core.relax_speculated) as f64,
        ),
    );
    m.insert(
        "core.relax_cache_hit_ratio",
        ratio(core.relax_hits as f64, core.relax_lookups as f64),
    );
    m.insert("core.fine_executed_per_op", core.fine_executed as f64 / ops);
    m.insert(
        "core.fine_extensions_per_op",
        core.fine_extensions as f64 / ops,
    );
    let traced_p50 = stats::percentile(&stats::sorted(&roots), 50.0);
    m.insert("e2e.p95_ms", stats::percentile(&untraced_lat, 95.0));
    m.insert("e2e.p99_ms", stats::percentile(&untraced_lat, 99.0));
    m.insert("trace.untraced_p50_ms", untraced_p50);
    m.insert("trace.traced_p50_ms", traced_p50);
    m.insert("trace.overhead_frac", ratio(traced_p50, untraced_p50) - 1.0);
    for name in [
        "server.rtt_us",
        "server.batched_ratio",
        "server.inflight_max",
        "server.shed_frac",
        "server.sibling_hit_ratio",
        "server.rows_per_reply",
        "server.lag_ms",
    ] {
        m.insert(name, 0.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn open(workload: &str) -> Vec<(Dataset, Database)> {
        crate::open_databases(&spec(workload).graphs, &mut SetupTimes::default())
    }

    #[test]
    fn generated_why_empty_inputs_are_empty() {
        let dbs = open("why-empty");
        let ctx = Ctx::new(&dbs);
        let mut oracles: Vec<Oracle<'_>> =
            dbs.iter().map(|(_, db)| Oracle::new(db.graph())).collect();
        for input in gen::why_empty_inputs(5, 300) {
            let q = parse_query(&input.text).expect("generated inputs parse");
            let c = oracles[ctx.slot(input.dataset)].count(&q, None);
            assert_eq!(c, 0, "{} is not empty", input.text);
        }
    }

    #[test]
    fn generated_why_card_goals_are_unmet() {
        let dbs = open("why-card");
        let args = Args {
            workload: "why-card".into(),
            seed: 5,
            seconds: 1.0,
            trace: false,
            setup_probe: false,
        };
        let inputs = inputs(&args, &dbs);
        let mut oracle = Oracle::new(dbs[0].1.graph());
        let cycle = gen::why_card_family().len() * gen::CARD_FACTORS.len();
        assert!(inputs.len() > STREAM / 2, "most goals can be stated");
        for input in inputs.iter().take(cycle) {
            let q = parse_query(&input.text).expect("family parses");
            let c = oracle.count(&q, None);
            assert!(c > 0, "{} is empty", input.text);
            assert!(
                !input.goal.satisfied(c),
                "{:?} already met by {c}",
                input.goal
            );
        }
    }
}
