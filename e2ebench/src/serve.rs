//! The open-loop `serve` workload: pattern queries through an in-process
//! `whyqd` server (`whyq_server::Server::start`) over loopback TCP.
//!
//! Up to `nproc` pipelined connections each send `QUERY` frames on a fixed
//! schedule without waiting for replies, over a ladder of fixed total
//! rates. Every request is timed from its *scheduled* send, so a stall
//! shows in the requests queued behind it, and the generator's own
//! lateness is reported as `server.lag_ms`. This is the only workload that
//! goes through the protocol, admission control, the batcher and
//! `Executor::find_batch`; it never calls `core`.

use crate::gen;
use crate::oracle::Oracle;
use crate::stats::{self, ratio};
use crate::trace::{self, Span};
use crate::{Args, DbCounts, Outcome, SetupProbe, SetupTimes};
use std::collections::HashMap;
use std::io::BufWriter;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use whyq_server::client::Client;
use whyq_server::protocol::{
    parse_reply, write_frame, FrameReader, Reply, TermTag, DEFAULT_MAX_FRAME,
};
use whyq_server::{Server, ServerConfig, StatsSnapshot};
use whyq_session::Database;

/// Total offered rates of the ladder, in requests per second. The top
/// stays below the knee of a slow moment of a small shared VM: with four
/// in ten requests executing, 750 req/s saturated the server there while
/// 500 req/s kept p99 near 20 ms.
const LADDER_HZ: [f64; 4] = [250.0, 300.0, 400.0, 500.0];
/// Share of the measured time each rung gets.
const RUNG_SHARE: [f64; 4] = [0.4, 0.2, 0.2, 0.2];
/// The rung whose latencies are the end-to-end `p50_ms`/`p95_ms`/`p99_ms`:
/// the lowest, far enough below the knee that a slower host moves its
/// latencies rather than tipping it into a growing backlog.
const REFERENCE: usize = 0;
/// A rung counts towards `max_rate_hz` only with p99 at most this. Above
/// the noise floor of a small shared VM (scheduling stalls put p99 at
/// 10-50 ms at any rate) and below the hundreds of ms past the knee,
/// where the backlog grows.
const P99_LIMIT_MS: f64 = 100.0;
/// ... and with the generator's median lateness at most this, or it did
/// not really offer the rung's rate.
const LAG_LIMIT_MS: f64 = 1.0;
/// LDBC persons of the served graph.
const PERSONS: usize = 300;

/// A started server that shuts down (and joins) when dropped.
struct Running {
    server: Option<Server>,
    db: Arc<Database>,
}

impl Running {
    fn addr(&self) -> SocketAddr {
        self.server.as_ref().expect("running").local_addr()
    }
}

impl Drop for Running {
    fn drop(&mut self) {
        if let Some(s) = self.server.take() {
            s.shutdown();
        }
    }
}

/// Generate the graph, open it and start a server, again and again for
/// `seconds`.
fn setup(times: &mut SetupTimes, seconds: f64) -> Running {
    crate::setup_burst(times, seconds, |times| {
        let (_, db) = crate::open_databases(&[(gen::Dataset::Ldbc, PERSONS)], times)
            .pop()
            .expect("one graph");
        let db = Arc::new(db);
        let server = Server::start(Arc::clone(&db), ServerConfig::default())
            .expect("bind an ephemeral loopback port");
        Running {
            server: Some(server),
            db,
        }
    })
}

/// The times of `args.seconds` of set-ups alone (a set-up probe).
pub fn setup_times(args: &Args) -> SetupTimes {
    let mut times = SetupTimes::default();
    drop(setup(&mut times, args.seconds));
    times
}

/// One request as the connection's sender saw it (ns since the epoch).
#[derive(Clone, Copy)]
struct Sent {
    sched: u64,
    start: u64,
    end: u64,
}

/// One reply as the connection's receiver saw it.
struct Got {
    at: u64,
    /// Requests sent but not answered when this reply arrived.
    inflight: u64,
    reply: Result<(usize, bool, TermTag), String>,
}

/// One request, end to end.
struct Req {
    pattern: usize,
    sent: Sent,
    got: Got,
}

/// What one rung measured.
struct Rung {
    reqs: Vec<Req>,
    /// Wall time from the first scheduled send to the last reply, s.
    span_s: f64,
    stats: StatsSnapshot,
    /// Sibling-cache hits (replays) and insertions (executions) during
    /// the rung.
    replayed: u64,
    executed: u64,
}

impl Rung {
    fn latencies_ms(&self) -> Vec<f64> {
        stats::sorted(
            &self
                .reqs
                .iter()
                .map(|r| r.got.at.saturating_sub(r.sent.sched) as f64 / 1e6)
                .collect::<Vec<_>>(),
        )
    }

    fn lags_ms(&self) -> Vec<f64> {
        stats::sorted(
            &self
                .reqs
                .iter()
                .map(|r| r.sent.start.saturating_sub(r.sent.sched) as f64 / 1e6)
                .collect::<Vec<_>>(),
        )
    }

    fn shed(&self) -> usize {
        self.reqs
            .iter()
            .filter(|r| matches!(r.got.reply, Ok((_, _, TermTag::Shed))))
            .count()
    }

    /// The in-flight count trends upwards: the last quarter of the
    /// replies typically saw clearly more outstanding requests than the
    /// first. Medians, so one host stall, which queues requests briefly,
    /// is not taken for sustained growth.
    fn backlog_grows(&self) -> bool {
        let n = self.reqs.len();
        if n < 8 {
            return false;
        }
        let mut inflight: Vec<(u64, f64)> = self
            .reqs
            .iter()
            .map(|r| (r.got.at, r.got.inflight as f64))
            .collect();
        inflight.sort_by_key(|&(at, _)| at);
        let q = n / 4;
        let median =
            |xs: &[(u64, f64)]| stats::median(&xs.iter().map(|&(_, v)| v).collect::<Vec<_>>());
        let (first, last) = (median(&inflight[..q]), median(&inflight[n - q..]));
        last > 2.0 * first + 4.0
    }

    /// Achieved completion rate over the rung.
    fn achieved_hz(&self) -> f64 {
        ratio(self.reqs.len() as f64, self.span_s)
    }

    fn qualifies(&self) -> bool {
        let lat = self.latencies_ms();
        let errors = self.reqs.iter().filter(|r| r.got.reply.is_err()).count();
        stats::percentile(&lat, 99.0) <= P99_LIMIT_MS
            && self.shed() == 0
            && errors == 0
            && !self.backlog_grows()
            && stats::percentile(&self.lags_ms(), 50.0) <= LAG_LIMIT_MS
    }
}

/// Drive one connection for one rung: a sender thread on the schedule and
/// a receiver thread reading the pipelined replies in order.
fn drive_connection(
    addr: SocketAddr,
    epoch: Instant,
    first: Instant,
    period: Duration,
    payloads: &[(usize, String)],
) -> Vec<Req> {
    let n = payloads.len();
    let at = |t: Instant| {
        u64::try_from(t.saturating_duration_since(epoch).as_nanos()).unwrap_or(u64::MAX)
    };
    let failed_all = |why: String| -> Vec<Req> {
        payloads
            .iter()
            .map(|(p, _)| Req {
                pattern: *p,
                sent: Sent {
                    sched: 0,
                    start: 0,
                    end: 0,
                },
                got: Got {
                    at: 0,
                    inflight: 0,
                    reply: Err(why.clone()),
                },
            })
            .collect()
    };
    let stream = match TcpStream::connect(addr) {
        Ok(s) => s,
        Err(e) => return failed_all(format!("connect: {e}")),
    };
    let reader = match stream
        .set_nodelay(true)
        .and_then(|()| stream.set_read_timeout(Some(Duration::from_secs(10))))
        .and_then(|()| stream.try_clone())
    {
        Ok(r) => r,
        Err(e) => return failed_all(format!("socket: {e}")),
    };
    let sent_count = AtomicU64::new(0);
    let (sent, got) = std::thread::scope(|scope| {
        let sender = scope.spawn(|| {
            let mut w = BufWriter::new(&stream);
            let mut sent = Vec::with_capacity(n);
            for (j, (_, payload)) in payloads.iter().enumerate() {
                let sched = first + period.mul_f64(j as f64);
                if let Some(wait) = sched.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                let start = Instant::now();
                let ok = write_frame(&mut w, payload).is_ok();
                let end = Instant::now();
                sent_count.fetch_add(1, Ordering::Release);
                sent.push(Sent {
                    sched: at(sched),
                    start: at(start),
                    end: at(end),
                });
                if !ok {
                    break;
                }
            }
            sent
        });
        let receiver = scope.spawn(|| {
            let mut r = &reader;
            let mut frames = FrameReader::new(DEFAULT_MAX_FRAME);
            let mut got = Vec::with_capacity(n);
            for j in 0..n {
                let frame = frames.read_frame(&mut r);
                let now = Instant::now();
                let inflight = sent_count
                    .load(Ordering::Acquire)
                    .saturating_sub(j as u64 + 1);
                let reply = match frame {
                    Ok(Some(payload)) => match parse_reply(&payload) {
                        Ok(Reply::Rows {
                            rows,
                            termination,
                            capped,
                        }) => Ok((rows.len(), capped, termination)),
                        Ok(other) => Err(format!("unexpected reply {other:?}")),
                        Err(e) => Err(format!("malformed reply: {e}")),
                    },
                    Ok(None) => Err("server closed the connection".to_string()),
                    Err(e) => Err(format!("read: {e:?}")),
                };
                let broken = reply.is_err();
                got.push(Got {
                    at: at(now),
                    inflight,
                    reply,
                });
                if broken {
                    break;
                }
            }
            got
        });
        (
            sender.join().expect("sender thread"),
            receiver.join().expect("receiver thread"),
        )
    });
    let _ = stream.shutdown(std::net::Shutdown::Both);
    let mut got = got.into_iter();
    payloads
        .iter()
        .enumerate()
        .map(|(j, (p, _))| {
            let s = sent.get(j).copied().unwrap_or(Sent {
                sched: 0,
                start: 0,
                end: 0,
            });
            let g = got.next().unwrap_or(Got {
                at: s.start,
                inflight: 0,
                reply: Err("no reply".to_string()),
            });
            Req {
                pattern: *p,
                sent: s,
                got: g,
            }
        })
        .collect()
}

fn server_stats(addr: SocketAddr) -> StatsSnapshot {
    Client::connect(addr)
        .and_then(|mut c| c.stats().map_err(|e| std::io::Error::other(e.to_string())))
        .unwrap_or_else(|e| {
            eprintln!("e2ebench: STATS failed: {e}");
            StatsSnapshot::default()
        })
}

fn delta(a: &StatsSnapshot, b: &StatsSnapshot) -> StatsSnapshot {
    StatsSnapshot {
        admitted: b.admitted.saturating_sub(a.admitted),
        shed: b.shed.saturating_sub(a.shed),
        batched: b.batched.saturating_sub(a.batched),
        completed: b.completed.saturating_sub(a.completed),
        sibling_hits: b.sibling_hits.saturating_sub(a.sibling_hits),
        ..StatsSnapshot::default()
    }
}

/// Run the ladder for `seconds` in total against `running`; times are ns
/// since `epoch`.
fn ladder(
    running: &Running,
    streams: &[Vec<(usize, String)>],
    seconds: f64,
    epoch: Instant,
    probe: &mut SetupProbe,
) -> Vec<Rung> {
    let addr = running.addr();
    let conns = streams.len();
    let mut next = vec![0usize; conns];
    let mut rungs = Vec::new();
    for (&rate, share) in LADDER_HZ.iter().zip(RUNG_SHARE) {
        probe.due();
        let per_conn = rate / conns as f64;
        let period = Duration::from_secs_f64(1.0 / per_conn);
        let n = (seconds * share * per_conn).floor().max(1.0) as usize;
        let before = server_stats(addr);
        let counts = DbCounts::of([running.db.as_ref()]);
        let start = Instant::now() + Duration::from_millis(20);
        let per_conn_reqs: Vec<Vec<Req>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..conns)
                .map(|c| {
                    let payloads = &streams[c][next[c]..next[c] + n];
                    // stagger connections across one period
                    let first = start + Duration::from_secs_f64(c as f64 / rate);
                    scope.spawn(move || drive_connection(addr, epoch, first, period, payloads))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("connection thread"))
                .collect()
        });
        for c in &mut next {
            *c += n;
        }
        let after = server_stats(addr);
        let counts_after = DbCounts::of([running.db.as_ref()]);
        let reqs: Vec<Req> = per_conn_reqs.into_iter().flatten().collect();
        let t0 = reqs.iter().map(|r| r.sent.sched).min().unwrap_or(0);
        let t1 = reqs.iter().map(|r| r.got.at).max().unwrap_or(0);
        let rung = Rung {
            reqs,
            span_s: t1.saturating_sub(t0) as f64 / 1e9,
            stats: delta(&before, &after),
            replayed: counts_after.sib_hits - counts.sib_hits,
            executed: counts_after.sib_insertions - counts.sib_insertions,
        };
        let ok = rung.qualifies();
        eprintln!(
            "e2ebench: rung {rate} Hz: {} replies ({:.0} % executed, {:.0} % replayed), p50 {:.3} \
             ms, p99 {:.3} ms, lag p50 {:.3} ms, lag p99 {:.3} ms, shed {}, backlog growing {}, \
             qualifies {ok}",
            rung.reqs.len(),
            100.0 * ratio(rung.executed as f64, rung.reqs.len() as f64),
            100.0 * ratio(rung.replayed as f64, rung.reqs.len() as f64),
            stats::percentile(&rung.latencies_ms(), 50.0),
            stats::percentile(&rung.latencies_ms(), 99.0),
            stats::percentile(&rung.lags_ms(), 50.0),
            stats::percentile(&rung.lags_ms(), 99.0),
            rung.shed(),
            rung.backlog_grows()
        );
        rungs.push(rung);
    }
    rungs
}

/// Check every complete reply against the oracle: its row count is
/// min(oracle, `max_rows`) and `capped` says whether rows were cut.
/// Failed requests are printed; returns (failed, mismatches).
fn check(rungs: &[Rung], patterns: &[String], db: &Database) -> (u64, u64) {
    let max_rows = ServerConfig::default().max_rows;
    let cap = u64::try_from(max_rows + 1).expect("row cap fits u64");
    let mut oracle = Oracle::new(db.graph());
    let mut expected: HashMap<usize, u64> = HashMap::new();
    let (mut failed, mut mismatches) = (0u64, 0u64);
    for r in rungs.iter().flat_map(|rung| &rung.reqs) {
        let problem = match &r.got.reply {
            Err(e) => Some(e.clone()),
            Ok((_, _, tag)) if !tag.is_complete() => Some(format!("ended {}", tag.as_str())),
            Ok((rows, capped, _)) => {
                let c = *expected.entry(r.pattern).or_insert_with(|| {
                    let q = whyq_query::parse_query(&patterns[r.pattern]).expect("patterns parse");
                    oracle.count(&q, Some(cap))
                });
                let want = usize::try_from(c)
                    .expect("capped count fits usize")
                    .min(max_rows);
                let want_capped = c > max_rows as u64;
                if *rows != want || *capped != want_capped {
                    mismatches += 1;
                    Some(format!(
                        "oracle: {rows} rows (capped {capped}) but the oracle expects {want} \
                         (capped {want_capped})"
                    ))
                } else {
                    None
                }
            }
        };
        if let Some(p) = problem {
            if failed < 10 {
                eprintln!("e2ebench: failed {:?}: {p}", patterns[r.pattern]);
            }
            failed += 1;
        }
    }
    (failed, mismatches)
}

/// The distinct patterns of the run and, per connection, its requests as
/// (pattern index, `QUERY` frame payload).
fn inputs(seed: u64, conns: usize, seconds: f64) -> (Vec<String>, Vec<Vec<(usize, String)>>) {
    let per_conn: usize = LADDER_HZ
        .iter()
        .zip(RUNG_SHARE)
        .map(|(r, s)| (seconds * s * r / conns as f64).floor().max(1.0) as usize)
        .sum();
    let mut index: HashMap<String, usize> = HashMap::new();
    let mut patterns = Vec::new();
    let streams = (0..conns)
        .map(|c| {
            gen::serve_stream(seed, c, per_conn)
                .into_iter()
                .map(|p| {
                    let k = *index.entry(p.clone()).or_insert_with(|| {
                        patterns.push(p.clone());
                        patterns.len() - 1
                    });
                    (k, format!("QUERY {p}"))
                })
                .collect()
        })
        .collect();
    (patterns, streams)
}

/// Spans of every request, derived after the run from the timestamps
/// every run takes (so tracing adds nothing to the request path): the
/// request from its scheduled send to its reply, with the frame write and
/// the wait for the reply as children. The root's self time is the
/// generator's lateness.
fn spans(rungs: &[Rung]) -> Vec<Span> {
    let mut spans = Vec::new();
    for (op, r) in rungs.iter().flat_map(|rung| &rung.reqs).enumerate() {
        let (op, root) = (op as u64, spans.len());
        spans.push(Span {
            name: "op",
            op,
            parent: None,
            start: r.sent.sched,
            end: r.got.at.max(r.sent.sched),
        });
        spans.push(Span {
            name: "server.send",
            op,
            parent: Some(root),
            start: r.sent.start,
            end: r.sent.end,
        });
        spans.push(Span {
            name: "server.reply_wait",
            op,
            parent: Some(root),
            start: r.sent.end,
            end: r.got.at.max(r.sent.end),
        });
    }
    spans
}

/// Run `serve`.
pub fn run(args: &Args) -> Outcome {
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let conns = nproc.clamp(1, 4);
    let mut times = SetupTimes::default();
    let running = setup(&mut times, crate::SETUP_SECONDS);
    let (patterns, streams) = inputs(args.seed, conns, args.seconds);
    let config = ServerConfig::default();
    println!(
        "{{\"provenance\": {}}}",
        crate::provenance(
            args,
            &[(gen::Dataset::Ldbc, running.db.as_ref())],
            &[
                ("connections", conns.to_string()),
                ("ladder_hz", format!("{LADDER_HZ:?}")),
                (
                    "batch_window_us",
                    config.batch_window.as_micros().to_string()
                ),
                ("max_queue_depth", config.max_queue_depth.to_string()),
                ("max_rows", config.max_rows.to_string()),
                ("server_threads", config.threads.to_string()),
                ("distinct_patterns", patterns.len().to_string()),
            ],
        )
    );
    let mut out = Outcome::default();
    let before = DbCounts::of([running.db.as_ref()]);
    let mut probe = SetupProbe::new(args, times);
    let rungs = ladder(&running, &streams, args.seconds, Instant::now(), &mut probe);
    let after = DbCounts::of([running.db.as_ref()]);
    if !args.trace {
        out.metrics.insert("peak_rss_mb", crate::peak_rss_mb());
    }
    (out.failed, out.mismatches) = check(&rungs, &patterns, &running.db);
    out.attempted = rungs.iter().map(|r| r.reqs.len() as u64).sum();
    drop(running);
    probe.probe();
    probe.times.report(&mut out.metrics);
    let lat = rungs[REFERENCE].latencies_ms();
    let m = &mut out.metrics;
    if !args.trace {
        eprintln!(
            "e2ebench: reference rung {} samples; p95 {:.3} ms, p99 {:.3} ms (highest supported \
             percentile p{:?})",
            lat.len(),
            stats::percentile(&lat, 95.0),
            stats::percentile(&lat, 99.0),
            stats::highest_supported(lat.len())
        );
        m.insert("p50_ms", stats::percentile(&lat, 50.0));
        // a filler with no signal of its own: an open loop completes what
        // the schedule offers, so this is the ladder's weighted rate
        // unless requests fail, which `ok_frac` and `max_rate_hz` show
        let span: f64 = rungs.iter().map(|r| r.span_s).sum();
        m.insert("ops_per_s", ratio(out.attempted as f64, span));
        let best = rungs.iter().rev().find(|r| r.qualifies());
        m.insert("max_rate_hz", best.map_or(0.0, Rung::achieved_hz));
        m.insert(
            "ok_frac",
            1.0 - ratio(out.failed as f64, out.attempted as f64),
        );
        return out;
    }

    let spans = spans(&rungs);
    crate::write_spans(args, &spans);
    let reqs: Vec<&Req> = rungs.iter().flat_map(|r| &r.reqs).collect();
    let ops = reqs.len().max(1) as f64;
    let rtts = stats::sorted(
        &rungs[REFERENCE]
            .reqs
            .iter()
            .map(|q| q.got.at.saturating_sub(q.sent.start) as f64 / 1e3)
            .collect::<Vec<_>>(),
    );
    let lags = stats::sorted(
        &reqs
            .iter()
            .map(|r| r.sent.start.saturating_sub(r.sent.sched) as f64 / 1e6)
            .collect::<Vec<_>>(),
    );
    let total = rungs.iter().fold(StatsSnapshot::default(), |mut acc, r| {
        acc.admitted += r.stats.admitted;
        acc.shed += r.stats.shed;
        acc.batched += r.stats.batched;
        acc.sibling_hits += r.stats.sibling_hits;
        acc
    });
    let rows: usize = reqs
        .iter()
        .filter_map(|r| r.got.reply.as_ref().ok().map(|(n, _, _)| *n))
        .sum();
    before.report_delta(&after, ops, m);
    m.insert("server.rtt_us", stats::percentile(&rtts, 50.0));
    m.insert(
        "server.batched_ratio",
        ratio(total.batched as f64, total.admitted as f64),
    );
    m.insert(
        "server.inflight_max",
        reqs.iter().map(|r| r.got.inflight).max().unwrap_or(0) as f64,
    );
    m.insert(
        "server.shed_frac",
        ratio(total.shed as f64, (total.admitted + total.shed) as f64),
    );
    m.insert(
        "server.sibling_hit_ratio",
        ratio(total.sibling_hits as f64, total.admitted as f64),
    );
    m.insert("server.rows_per_reply", rows as f64 / ops);
    m.insert("server.lag_ms", stats::percentile(&lags, 50.0));
    let self_ns = trace::self_time_by_name(&spans);
    m.insert(
        "bench.self_us",
        self_ns.get("op").copied().unwrap_or(0) as f64 / 1e3 / ops,
    );
    m.insert("e2e.p95_ms", stats::percentile(&lat, 95.0));
    m.insert("e2e.p99_ms", stats::percentile(&lat, 99.0));
    // the spans come from timestamps every run takes: this run is its own
    // untraced baseline, and the overhead is zero by construction
    let p50 = stats::percentile(&lat, 50.0);
    m.insert("trace.untraced_p50_ms", p50);
    m.insert("trace.traced_p50_ms", p50);
    m.insert("trace.overhead_frac", 0.0);
    for name in [
        "query.parse_us",
        "session.prepare_us",
        "session.count_exec_us",
        "session.count_replay_us",
        "core.mcs_us",
        "core.mcs_paths_per_op",
        "core.mcs_extensions_per_op",
        "core.relax_us",
        "core.relax_executed_per_op",
        "core.relax_generated_per_op",
        "core.relax_speculated_per_op",
        "core.relax_useful_ratio",
        "core.relax_cache_hit_ratio",
        "core.fine_setup_us",
        "core.fine_us",
        "core.fine_executed_per_op",
        "core.fine_extensions_per_op",
    ] {
        m.insert(name, 0.0);
    }
    out
}
