//! `whyq` — the why-query command line.
//!
//! ```text
//! whyq generate <ldbc|dbpedia> [--scale N] [--seed S] [--out FILE]
//! whyq stats    <GRAPH>
//! whyq match    <GRAPH> <PATTERN> [--limit N]
//! whyq why      <GRAPH> <PATTERN> [--at-least N] [--at-most N] [--between LO HI]
//! whyq client   <ADDR> (<PATTERN> [--slo CLASS] | --stats | --shutdown)
//! ```
//!
//! Graphs use the text format of `whyq_graph::io`; patterns use the
//! `whyq_query::parser` syntax, e.g.
//! `'(p:person {name: "Anna"})-[:knows]->(q:person)'`. The `client`
//! subcommand speaks the `whyqd` wire protocol (`docs/wire-protocol.md`)
//! and exits nonzero on any protocol or transport error.

use std::io::{ErrorKind, Write};
use std::process::ExitCode;
use whyquery::core::engine::WhyEngine;
use whyquery::core::problem::CardinalityGoal;
use whyquery::datagen::{dbpedia_graph, ldbc_graph, DbpediaConfig, LdbcConfig};
use whyquery::graph::{io, PropertyGraph};
use whyquery::matcher::MatchOptions;
use whyquery::query::{parse_query, PatternQuery};
use whyquery::session::Database;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    match run(&args, &mut out).and_then(|()| Ok(out.flush()?)) {
        Ok(()) => ExitCode::SUCCESS,
        // the reader went away (`whyq stats g.txt | head -1`): nothing is
        // left to print to, which is not a failure of the command
        Err(CliError::Io(e)) if e.kind() == ErrorKind::BrokenPipe => ExitCode::SUCCESS,
        Err(CliError::Io(e)) => {
            eprintln!("whyq: writing output: {e}");
            ExitCode::FAILURE
        }
        Err(CliError::Usage(msg)) => {
            eprintln!("whyq: {msg}");
            eprintln!();
            eprintln!("usage:");
            eprintln!("  whyq generate <ldbc|dbpedia> [--scale N] [--seed S] [--out FILE]");
            eprintln!("  whyq stats    <GRAPH>");
            eprintln!("  whyq match    <GRAPH> <PATTERN> [--limit N]");
            eprintln!(
                "  whyq why      <GRAPH> <PATTERN> [--at-least N] [--at-most N] [--between LO HI]"
            );
            eprintln!("  whyq client   <ADDR> (<PATTERN> [--slo CLASS] | --stats | --shutdown)");
            ExitCode::FAILURE
        }
    }
}

/// Why a command stopped: a usage or input problem, reported with the
/// usage text, or a failed write to stdout.
enum CliError {
    Usage(String),
    Io(std::io::Error),
}

impl From<String> for CliError {
    fn from(msg: String) -> Self {
        CliError::Usage(msg)
    }
}

impl From<&str> for CliError {
    fn from(msg: &str) -> Self {
        CliError::Usage(msg.to_string())
    }
}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError::Io(e)
    }
}

/// Every subcommand writes its output to `out` (the one locked stdout).
type Out<'a> = &'a mut dyn Write;

fn run(args: &[String], out: Out<'_>) -> Result<(), CliError> {
    match args.first().map(String::as_str) {
        Some("generate") => generate(&args[1..], out),
        Some("stats") => stats(&args[1..], out),
        Some("match") => do_match(&args[1..], out),
        Some("why") => why(&args[1..], out),
        Some("client") => client(&args[1..], out),
        Some(other) => Err(format!("unknown command {other:?}").into()),
        None => Err("missing command".into()),
    }
}

fn flag_value<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn parse_num<T: std::str::FromStr>(s: &str, what: &str) -> Result<T, String> {
    s.parse().map_err(|_| format!("invalid {what}: {s:?}"))
}

fn generate(args: &[String], out: Out<'_>) -> Result<(), CliError> {
    let kind = args.first().ok_or("generate needs <ldbc|dbpedia>")?;
    let seed: u64 = match flag_value(args, "--seed") {
        Some(s) => parse_num(s, "seed")?,
        None => 42,
    };
    let g = match kind.as_str() {
        "ldbc" => {
            let persons: usize = match flag_value(args, "--scale") {
                Some(s) => parse_num(s, "scale")?,
                None => 300,
            };
            ldbc_graph(LdbcConfig { persons, seed })
        }
        "dbpedia" => {
            let entities: usize = match flag_value(args, "--scale") {
                Some(s) => parse_num(s, "scale")?,
                None => 2000,
            };
            dbpedia_graph(DbpediaConfig { entities, seed })
        }
        other => return Err(format!("unknown generator {other:?}").into()),
    };
    let text = io::write_graph(&g);
    match flag_value(args, "--out") {
        Some(path) => {
            std::fs::write(path, text).map_err(|e| format!("writing {path:?}: {e}"))?;
            eprintln!(
                "wrote {} vertices / {} edges to {path}",
                g.num_vertices(),
                g.num_edges()
            );
        }
        None => write!(out, "{text}")?,
    }
    Ok(())
}

fn load_graph(path: &str) -> Result<PropertyGraph, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path:?}: {e}"))?;
    io::read_graph(&text).map_err(|e| format!("parsing {path:?}: {e}"))
}

fn load_pattern(text: &str) -> Result<PatternQuery, String> {
    parse_query(text).map_err(|e| format!("pattern: {e}"))
}

fn stats(args: &[String], out: Out<'_>) -> Result<(), CliError> {
    let path = args.first().ok_or("stats needs <GRAPH>")?;
    let g = load_graph(path)?;
    writeln!(out, "vertices: {}", g.num_vertices())?;
    writeln!(out, "edges:    {}", g.num_edges())?;
    let d = whyquery::graph::stats::degree_summary(&g);
    writeln!(
        out,
        "degree:   min {} / mean {:.1} / max {}",
        d.min, d.mean, d.max
    )?;
    writeln!(out, "\nvertex types:")?;
    for (ty, c) in whyquery::graph::stats::vertex_attr_histogram(&g, "type") {
        writeln!(out, "  {ty:<24} {c}")?;
    }
    writeln!(out, "\nedge types:")?;
    for (ty, c) in whyquery::graph::stats::edge_type_histogram(&g) {
        writeln!(out, "  {ty:<24} {c}")?;
    }
    Ok(())
}

fn do_match(args: &[String], out: Out<'_>) -> Result<(), CliError> {
    let path = args.first().ok_or("match needs <GRAPH>")?;
    let pattern = args.get(1).ok_or("match needs <PATTERN>")?;
    let limit: usize = match flag_value(args, "--limit") {
        Some(s) => parse_num(s, "limit")?,
        None => 10,
    };
    let db = Database::open(load_graph(path)?).map_err(|e| e.to_string())?;
    let session = db.session();
    let q = load_pattern(pattern)?;
    let prepared = session.prepare(&q).map_err(|e| e.to_string())?;
    // stream lazily: a small --limit never enumerates the full result set
    let results: Vec<_> = prepared.stream_opts(MatchOptions::limited(limit)).collect();
    writeln!(out, "{} match(es) (showing up to {limit}):", results.len())?;
    for (i, r) in results.iter().enumerate() {
        let parts: Vec<String> = r
            .vertex_bindings()
            .iter()
            .map(|(qv, dv)| format!("{qv}={dv}"))
            .collect();
        writeln!(out, "  #{:<3} {}", i + 1, parts.join("  "))?;
    }
    Ok(())
}

fn client(args: &[String], out: Out<'_>) -> Result<(), CliError> {
    use whyquery::server::client::Client;
    let addr = args.first().ok_or("client needs <ADDR>")?;
    let mut client =
        Client::connect(addr.as_str()).map_err(|e| format!("connecting to {addr}: {e}"))?;
    if args.iter().any(|a| a == "--stats") {
        let stats = client.stats().map_err(|e| e.to_string())?;
        for (key, value) in stats.fields() {
            writeln!(out, "{key}={value}")?;
        }
        return Ok(());
    }
    if args.iter().any(|a| a == "--shutdown") {
        let detail = client.shutdown_server().map_err(|e| e.to_string())?;
        writeln!(out, "server {detail}")?;
        return Ok(());
    }
    let pattern = args
        .get(1)
        .filter(|a| !a.starts_with("--"))
        .ok_or("client needs <PATTERN> (or --stats / --shutdown)")?;
    let reply = client
        .query(pattern, flag_value(args, "--slo"))
        .map_err(|e| e.to_string())?;
    let capped = if reply.capped { " (capped)" } else { "" };
    writeln!(
        out,
        "{} row(s), termination {}{capped}:",
        reply.rows.len(),
        reply.termination
    )?;
    for (i, row) in reply.rows.iter().enumerate() {
        writeln!(out, "  #{:<3} {row}", i + 1)?;
    }
    Ok(())
}

fn why(args: &[String], out: Out<'_>) -> Result<(), CliError> {
    let path = args.first().ok_or("why needs <GRAPH>")?;
    let pattern = args.get(1).ok_or("why needs <PATTERN>")?;
    let goal = if let Some(s) = flag_value(args, "--at-least") {
        CardinalityGoal::AtLeast(parse_num(s, "threshold")?)
    } else if let Some(s) = flag_value(args, "--at-most") {
        CardinalityGoal::AtMost(parse_num(s, "threshold")?)
    } else if let Some(i) = args.iter().position(|a| a == "--between") {
        let lo = parse_num(args.get(i + 1).ok_or("--between needs LO HI")?, "lo")?;
        let hi = parse_num(args.get(i + 2).ok_or("--between needs LO HI")?, "hi")?;
        CardinalityGoal::Between(lo, hi)
    } else {
        CardinalityGoal::NonEmpty
    };

    let db = Database::open(load_graph(path)?).map_err(|e| e.to_string())?;
    let q = load_pattern(pattern)?;
    let engine = WhyEngine::new(&db);
    let d = engine.diagnose(&q, goal).map_err(|e| e.to_string())?;
    writeln!(out, "cardinality: {}", d.cardinality)?;
    writeln!(out, "problem:     {}", d.problem)?;
    if let Some(sub) = &d.subgraph {
        writeln!(out, "\nsubgraph-based explanation:")?;
        writeln!(
            out,
            "  largest conforming subquery: {} vertices, {} edges ({} results)",
            sub.mcs.num_vertices(),
            sub.mcs.num_edges(),
            sub.mcs_cardinality
        )?;
        writeln!(out, "  {}", sub.differential)?;
        if let Some(e) = sub.crossing_edge {
            writeln!(out, "  bound crossed at query edge {e}")?;
        }
    }
    if let Some(rw) = &d.rewrite {
        writeln!(out, "\nmodification-based explanation:")?;
        for m in &rw.mods {
            writeln!(out, "  * {m}")?;
        }
        writeln!(
            out,
            "  rewritten query delivers {} result(s), syntactic distance {:.3}",
            rw.cardinality, rw.syntactic_distance
        )?;
    }
    Ok(())
}
