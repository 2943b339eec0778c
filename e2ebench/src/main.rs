//! End-to-end why-query benchmark.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload <why-empty|why-card|serve> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Builds the generated graphs, opens the databases (and, for `serve`, an
//! in-process `whyqd` server), drives the workload for `--seconds`, checks
//! every output against the naive reference matcher outside the timed
//! region, and prints one JSON object as the last line of standard output:
//! the end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. `RATIONALE.md` explains the workloads and the metrics.
//!
//! With `--setup-probe` added, the program only sets up, for `--seconds`,
//! and prints the set-up times. A run starts itself this way while it
//! measures, to sample set-up time across the run (see [`SetupProbe`]).

#![forbid(unsafe_code)]

mod gen;
mod oracle;
mod serve;
mod stats;
mod trace;
mod why;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;
use whyq_session::Database;

/// End-to-end metrics, printed by every workload with `--trace 0`.
const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("p50_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("max_rate_hz", "Hz"),
    ("ok_frac", "fraction"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by every workload with `--trace 1`. A layer
/// a workload never calls reads 0 there (e.g. `core.*` on `serve`).
const PER_LAYER: [(&str, &str); 38] = [
    ("graph.build_ms", "ms"),
    ("session.open_ms", "ms"),
    ("query.parse_us", "us/op"),
    ("session.prepare_us", "us/op"),
    ("session.compiles_per_op", "count/op"),
    ("session.derived_plans_per_op", "count/op"),
    ("session.plan_hit_ratio", "ratio"),
    ("session.plan_evictions_per_op", "count/op"),
    ("session.count_exec_us", "us/op"),
    ("session.count_replay_us", "us/op"),
    ("session.sibling_hit_ratio", "ratio"),
    ("session.sibling_evictions_per_op", "count/op"),
    ("core.mcs_us", "us/op"),
    ("core.mcs_paths_per_op", "count/op"),
    ("core.mcs_extensions_per_op", "count/op"),
    ("core.relax_us", "us/op"),
    ("core.relax_executed_per_op", "count/op"),
    ("core.relax_generated_per_op", "count/op"),
    ("core.relax_speculated_per_op", "count/op"),
    ("core.relax_useful_ratio", "ratio"),
    ("core.relax_cache_hit_ratio", "ratio"),
    ("core.fine_setup_us", "us/op"),
    ("core.fine_us", "us/op"),
    ("core.fine_executed_per_op", "count/op"),
    ("core.fine_extensions_per_op", "count/op"),
    ("server.rtt_us", "us"),
    ("server.batched_ratio", "ratio"),
    ("server.inflight_max", "count"),
    ("server.shed_frac", "ratio"),
    ("server.sibling_hit_ratio", "ratio"),
    ("server.rows_per_reply", "count"),
    ("server.lag_ms", "ms"),
    ("bench.self_us", "us/op"),
    ("e2e.p95_ms", "ms"),
    ("e2e.p99_ms", "ms"),
    ("trace.untraced_p50_ms", "ms"),
    ("trace.traced_p50_ms", "ms"),
    ("trace.overhead_frac", "ratio"),
];

/// How long a run sets up before it measures. `setup_s` is the median of
/// these set-ups and of the probes' (see [`SetupProbe`]).
const SETUP_SECONDS: f64 = 0.3;
/// A burst of set-ups sets up at least this many times.
const SETUP_MIN_REPS: usize = 10;
/// Seconds between two set-up probes while a workload runs. One set-up
/// takes a few ms, while a shared host's speed shifts for a second or more
/// at a time (set-ups of one graph ran 4.7 ms in one second and 7.7 ms in
/// the next), so set-ups are sampled across the whole run, as the
/// workload's own operations are.
const PROBE_EVERY_SECONDS: f64 = 1.0;
/// How long one probe sets up.
const PROBE_SECONDS: f64 = 0.1;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// `why-empty`, `why-card` or `serve`.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Per-layer traced run instead of the end-to-end one.
    pub trace: bool,
    /// Only set up, for `seconds`, and print the set-up times (the child
    /// process of a [`SetupProbe`]).
    pub setup_probe: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let value = |name: &str| -> Result<&str, String> {
        argv.iter()
            .position(|a| a == name)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {name}"))
    };
    let workload = value("--workload")?.to_string();
    if !["why-empty", "why-card", "serve"].contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}"));
    }
    let seed = value("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds out of range: {seconds}"));
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        setup_probe: argv.iter().any(|a| a == "--setup-probe"),
    })
}

/// What a workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted in the measured region(s).
    pub attempted: u64,
    /// Operations that errored, were shed, degraded, lacked an
    /// explanation or failed an oracle check.
    pub failed: u64,
    /// Oracle mismatches (wrong outputs, as opposed to refused work).
    pub mismatches: u64,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
}

/// Plan- and sibling-cache counters of a run's databases, summed.
#[derive(Debug, Default, Clone, Copy)]
pub struct DbCounts {
    plan_hits: u64,
    plan_misses: u64,
    plan_evictions: u64,
    compiles: u64,
    sib_hits: u64,
    sib_insertions: u64,
    sib_evictions: u64,
    derived: u64,
}

impl DbCounts {
    /// Current counters of `dbs`.
    pub fn of<'a>(dbs: impl IntoIterator<Item = &'a Database>) -> Self {
        let mut c = DbCounts::default();
        for db in dbs {
            let (p, s) = (db.cache_stats(), db.sibling_stats());
            c.plan_hits += p.hits;
            c.plan_misses += p.misses;
            c.plan_evictions += p.evictions;
            c.compiles += db.compile_count();
            c.sib_hits += s.hits;
            c.sib_insertions += s.insertions;
            c.sib_evictions += s.evictions;
            c.derived += s.derived_plans;
        }
        c
    }

    /// The `session.*` counter metrics of the change from `self` to
    /// `after` over `ops` operations.
    pub fn report_delta(&self, after: &DbCounts, ops: f64, m: &mut BTreeMap<&'static str, f64>) {
        let d = |f: fn(&DbCounts) -> u64| (f(after) - f(self)) as f64;
        let (hits, misses) = (d(|c| c.plan_hits), d(|c| c.plan_misses));
        let (sib_hits, sib_ins) = (d(|c| c.sib_hits), d(|c| c.sib_insertions));
        m.insert("session.compiles_per_op", d(|c| c.compiles) / ops);
        m.insert("session.derived_plans_per_op", d(|c| c.derived) / ops);
        m.insert("session.plan_hit_ratio", stats::ratio(hits, hits + misses));
        m.insert(
            "session.plan_evictions_per_op",
            d(|c| c.plan_evictions) / ops,
        );
        m.insert(
            "session.sibling_hit_ratio",
            stats::ratio(sib_hits, sib_hits + sib_ins),
        );
        m.insert(
            "session.sibling_evictions_per_op",
            d(|c| c.sib_evictions) / ops,
        );
    }
}

/// Write a traced run's spans to `e2ebench/out/trace-<workload>-<seed>.jsonl`.
pub fn write_spans(args: &Args, spans: &[trace::Span]) {
    let path = std::path::Path::new("e2ebench/out")
        .join(format!("trace-{}-{}.jsonl", args.workload, args.seed));
    match trace::write_jsonl(&path, spans) {
        Ok(()) => eprintln!(
            "e2ebench: {} spans written to {}",
            spans.len(),
            path.display()
        ),
        Err(e) => eprintln!("e2ebench: could not write spans to {}: {e}", path.display()),
    }
}

/// Times of the set-ups of a run; their medians are reported.
#[derive(Debug, Default)]
pub struct SetupTimes {
    /// Whole set-up, seconds.
    pub total_s: Vec<f64>,
    /// Graph generation, ms.
    pub build_ms: Vec<f64>,
    /// `Database::open`, ms.
    pub open_ms: Vec<f64>,
}

impl SetupTimes {
    /// Add the medians to `metrics`.
    pub fn report(&self, metrics: &mut BTreeMap<&'static str, f64>) {
        metrics.insert("setup_s", stats::median(&self.total_s));
        metrics.insert("graph.build_ms", stats::median(&self.build_ms));
        metrics.insert("session.open_ms", stats::median(&self.open_ms));
    }
}

/// Generate `spec`'s graphs and open a database over each, timing both.
pub fn open_databases(
    spec: &[(gen::Dataset, usize)],
    times: &mut SetupTimes,
) -> Vec<(gen::Dataset, Database)> {
    let mut build = 0.0;
    let mut open = 0.0;
    let dbs = spec
        .iter()
        .map(|&(ds, scale)| {
            let t = Instant::now();
            let g = match ds {
                gen::Dataset::Ldbc => whyq_datagen::ldbc_graph(whyq_datagen::LdbcConfig {
                    persons: scale,
                    ..Default::default()
                }),
                gen::Dataset::Dbpedia => whyq_datagen::dbpedia_graph(whyq_datagen::DbpediaConfig {
                    entities: scale,
                    ..Default::default()
                }),
            };
            let t_open = Instant::now();
            let db = Database::open(g).expect("generated graphs open");
            build += (t_open - t).as_secs_f64() * 1e3;
            open += t_open.elapsed().as_secs_f64() * 1e3;
            (ds, db)
        })
        .collect();
    times.build_ms.push(build);
    times.open_ms.push(open);
    dbs
}

/// Set up with `f` (which records the times of its parts) again and
/// again, for at least `seconds` and `SETUP_MIN_REPS` times, adding the
/// time of each whole set-up to `times`; keep the last result.
pub fn setup_burst<T>(
    times: &mut SetupTimes,
    seconds: f64,
    mut f: impl FnMut(&mut SetupTimes) -> T,
) -> T {
    let mut last = None;
    let start = Instant::now();
    let mut reps = 0;
    while reps < SETUP_MIN_REPS || start.elapsed().as_secs_f64() < seconds {
        // release the previous set-up first, so memory is not held twice
        drop(last.take());
        let t = Instant::now();
        let v = f(times);
        times.total_s.push(t.elapsed().as_secs_f64());
        last = Some(v);
        reps += 1;
    }
    last.expect("SETUP_MIN_REPS > 0")
}

/// Set-up samples taken while a workload runs, outside its measured time:
/// this program, started again with `--setup-probe`, sets up for
/// `PROBE_SECONDS` and prints its times. A child process, so those
/// set-ups' memory stays out of this process's `peak_rss_mb`.
pub struct SetupProbe {
    args: Args,
    last: Instant,
    /// The run's set-up times so far, the probes' included.
    pub times: SetupTimes,
}

impl SetupProbe {
    /// Probes for the workload of `args`, after the set-ups of `times`;
    /// the first probe is due in `PROBE_EVERY_SECONDS`.
    pub fn new(args: &Args, times: SetupTimes) -> Self {
        SetupProbe {
            args: args.clone(),
            last: Instant::now(),
            times,
        }
    }

    /// Probe if the last probe is `PROBE_EVERY_SECONDS` ago.
    pub fn due(&mut self) {
        if self.last.elapsed().as_secs_f64() >= PROBE_EVERY_SECONDS {
            self.probe();
        }
    }

    /// Probe now.
    pub fn probe(&mut self) {
        let times = &mut self.times;
        let out = std::env::current_exe().and_then(|exe| {
            std::process::Command::new(exe)
                .args([
                    "--workload",
                    &self.args.workload,
                    "--seed",
                    "0",
                    "--trace",
                    "0",
                ])
                .args(["--seconds", &PROBE_SECONDS.to_string(), "--setup-probe"])
                .stderr(std::process::Stdio::inherit())
                .output()
        });
        match out {
            Ok(o) if o.status.success() => {
                for line in String::from_utf8_lossy(&o.stdout).lines() {
                    let mut words = line.split_whitespace();
                    let into = match words.next() {
                        Some("total_s") => &mut times.total_s,
                        Some("build_ms") => &mut times.build_ms,
                        Some("open_ms") => &mut times.open_ms,
                        _ => continue,
                    };
                    into.extend(words.filter_map(|w| w.parse::<f64>().ok()));
                }
            }
            Ok(o) => eprintln!("e2ebench: set-up probe exited with {}", o.status),
            Err(e) => eprintln!("e2ebench: set-up probe could not start: {e}"),
        }
        self.last = Instant::now();
    }
}

/// The child side of a [`SetupProbe`]: print `times`, one line per part.
pub fn print_setup_times(times: &SetupTimes) {
    for (name, values) in [
        ("total_s", &times.total_s),
        ("build_ms", &times.build_ms),
        ("open_ms", &times.open_ms),
    ] {
        let values: Vec<String> = values.iter().map(f64::to_string).collect();
        println!("{name} {}", values.join(" "));
    }
}

/// `VmHWM` of this process, in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The commit the checkout holds, read from `.git` in the working
/// directory only (a checkout without one reports `unknown`).
fn git_sha() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&format!(".git/{reference}"))
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(String::from))
        })
        .unwrap_or_else(|| "unknown".into())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".into(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        )
}

/// The machine, the inputs and the cache configuration a result was
/// measured under, as one JSON object. `extra` holds workload-specific
/// `"key": value` pairs.
pub fn provenance(
    args: &Args,
    dbs: &[(gen::Dataset, &Database)],
    extra: &[(&str, String)],
) -> String {
    let env = |k: &str| std::env::var(k).map_or("null".into(), |v| json_str(&v));
    let graphs: Vec<String> = dbs
        .iter()
        .map(|(ds, db)| {
            format!(
                "{{\"dataset\":\"{ds:?}\",\"vertices\":{},\"edges\":{},\"plan_cache_capacity\":{},\
                 \"sibling_cache_capacity\":{},\"sibling_cache_enabled\":{}}}",
                db.graph().num_vertices(),
                db.graph().num_edges(),
                db.cache_stats().capacity,
                db.sibling_stats().capacity,
                db.sibling_cache_enabled()
            )
        })
        .collect();
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let mut fields = vec![
        ("git_sha", json_str(&git_sha())),
        ("nproc", nproc.to_string()),
        ("cpu_model", json_str(&cpu_model())),
        ("rustc", json_str(&rustc_version())),
        ("workload", json_str(&args.workload)),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", args.trace.to_string()),
        ("graphs", format!("[{}]", graphs.join(","))),
        ("WHYQ_THREADS", env("WHYQ_THREADS")),
        ("WHYQ_NO_SIBLING_CACHE", env("WHYQ_NO_SIBLING_CACHE")),
        (
            "executor_threads",
            whyq_session::Executor::from_env().threads().to_string(),
        ),
    ];
    fields.extend(extra.iter().map(|(k, v)| (*k, v.clone())));
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}:{v}", json_str(k)))
        .collect();
    format!("{{{}}}", body.join(","))
}

/// Executor threads when the environment names none.
///
/// On a small shared VM, the default (one worker per vCPU) makes every
/// parallel batch wait for the other vCPU to be scheduled: two threads
/// swung `why-empty` between 104 and 259 ops/s over consecutive runs, one
/// thread between 250 and 290. Set `WHYQ_THREADS` to measure another
/// count; provenance records the value used.
const DEFAULT_THREADS: &str = "1";

fn run(args: &Args) -> Outcome {
    if std::env::var_os("WHYQ_THREADS").is_none() {
        // set before any engine, executor or server reads it
        std::env::set_var("WHYQ_THREADS", DEFAULT_THREADS);
    }
    match args.workload.as_str() {
        "serve" => serve::run(args),
        _ => why::run(args),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            eprintln!(
                "usage: e2ebench --workload <why-empty|why-card|serve> --seed <n> \
                 --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    if args.setup_probe {
        let times = match args.workload.as_str() {
            "serve" => serve::setup_times(&args),
            _ => why::setup_times(&args),
        };
        print_setup_times(&times);
        return ExitCode::SUCCESS;
    }
    let outcome = run(&args);
    let wanted: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let metrics: Vec<String> = wanted
        .iter()
        .map(|(name, unit)| {
            let v = outcome.metrics.get(name).copied().unwrap_or(0.0);
            let v = if v.is_finite() { v } else { 0.0 };
            format!(
                "{}: {{\"value\": {v}, \"unit\": {}}}",
                json_str(name),
                json_str(unit)
            )
        })
        .collect();
    for (name, _) in wanted {
        if !outcome.metrics.contains_key(name) {
            eprintln!(
                "e2ebench: {name} was not measured by {}; reported as 0",
                args.workload
            );
        }
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.mismatches == 0 && outcome.attempted > 0,
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}
