//! `serve-churn`: reads beside writes against an in-process daemon.
//!
//! Set-up generates two `multi_component_graph(6, 200, c)` graphs with fixed
//! seeds `c`, draws two churn streams per graph (one confined to component 0,
//! one over every other vertex), relabels each graph and its streams by a seed
//! derived from the workload seed, starts a `Server` on loopback, loads both
//! graphs and warms them. Two client connections then run closed loops, each
//! on its own graph, window by window. A window opens, untimed, by loading the
//! client's graph afresh and warming it with one `solve` and one `enumerate`;
//! then come 16 pairs of cycles. A cycle is one `update` carrying the next
//! churn batch — batches alternate between the one-component and the
//! rest-of-graph stream — followed by seven reads: `solve`, `enumerate`
//! (limit 5), five `solve`. Only the first solve and enumerate after a write
//! can re-search; the rest are cache hits. Every window sends the same
//! requests from the same state, so the churn does not wear the graph down
//! over a run and windows can be compared request by request.
//!
//! The traced run replays one window three more ways: over TCP with tracing
//! on, through `LocalEngine::handle` in process, and directly on a
//! `DynamicRfcSolver`. Every answer of every phase is checked afterwards
//! against a reference replay that applies the same updates and solves with
//! a serial `SearchConfig::basic()` search.

use std::io::{BufRead, BufReader, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use rfc_bench::workloads::multi_component_graph;
use rfc_core::prelude::*;
use rfc_core::verify::{is_fair_clique_under, is_maximal_fair_clique_under};
use rfc_datasets::updates::churn_stream;
use rfc_graph::io::write_graph_to_path;
use rfc_graph::json::JsonValue;
use rfc_graph::UpdateOp;
use rfc_obs::trace::span;
use rfc_serve::server::{ServeConfig, Server};
use rfc_serve::{Counters, EngineConfig, Handler, LocalEngine, Request};

use crate::common::{self, Ctx, Outcome, Passes, Tally, Tracer, MIN_OPS, MIN_PASSES};
use crate::stats::{mean, percentile, ratio};

/// Client connections, one graph each.
const CLIENTS: usize = 2;
/// Components per graph and the size of the smallest one.
const BLOBS: usize = 6;
const BASE_N: usize = 200;
/// Ops per `update` request.
const BATCH: usize = 6;
/// Every query is relative (k=3, δ=1).
const MODEL: FairnessModel = FairnessModel::Relative { k: 3, delta: 1 };
/// Cliques an `enumerate` request asks for.
const LIMIT: usize = 5;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Write,
    Solve,
    Enumerate,
}

/// The reads that follow each write. Only the first solve and enumerate can
/// re-search, and not every write changes a reduced component, so about one
/// read in six re-searches: away from the 50% and 10% steps that would put
/// `read_ms` p50 or p90 on the edge between cache hits and re-searches. Solve
/// cache hits are about two thirds of all requests, so `latency_ms.p50` sits
/// among them, and `latency_ms.p90` among writes and re-searches.
const READS: [Kind; 7] = [
    Kind::Solve,
    Kind::Enumerate,
    Kind::Solve,
    Kind::Solve,
    Kind::Solve,
    Kind::Solve,
    Kind::Solve,
];
/// Requests per client cycle.
const CYCLE: usize = 1 + READS.len();
/// Cycle pairs (one per churn stream) in a window.
const WINDOW_PAIRS: usize = 16;
/// Requests in a window.
const WINDOW: usize = WINDOW_PAIRS * 2 * CYCLE;

/// One client's graph and the requests of its windows.
struct Script {
    name: String,
    base: AttributedGraph,
    path: PathBuf,
    kinds: Vec<Kind>,
    /// The ops of each write, by request index (empty for reads).
    batches: Vec<Vec<UpdateOp>>,
    lines: Vec<String>,
}

fn batches(ops: Vec<UpdateOp>) -> Vec<Vec<UpdateOp>> {
    ops.split(|op| *op == UpdateOp::Commit)
        .filter(|batch| !batch.is_empty())
        .map(<[UpdateOp]>::to_vec)
        .collect()
}

/// `op` with vertex `v` renamed `ids[v]`.
fn relabel_op(op: &UpdateOp, ids: &[VertexId]) -> UpdateOp {
    let id = |v: VertexId| ids[v as usize];
    match *op {
        UpdateOp::InsertEdge { u, v } => UpdateOp::InsertEdge { u: id(u), v: id(v) },
        UpdateOp::RemoveEdge { u, v } => UpdateOp::RemoveEdge { u: id(u), v: id(v) },
        UpdateOp::RestoreVertex { v, attr } => UpdateOp::RestoreVertex { v: id(v), attr },
        UpdateOp::RemoveVertex { v } => UpdateOp::RemoveVertex { v: id(v) },
        UpdateOp::InsertVertex { .. } | UpdateOp::Commit => *op,
    }
}

fn script(ctx: &Ctx, client: usize) -> Script {
    let name = format!("g{client}");
    let generated = multi_component_graph(BLOBS, BASE_N, client as u64);
    let n = generated.num_vertices();
    let ids = common::relabeling(n, ctx.derive(client as u64));
    let component0: Vec<VertexId> = (0..BASE_N as VertexId).collect();
    let rest: Vec<VertexId> = (BASE_N as VertexId..n as VertexId).collect();
    let stream = |pool: &[VertexId], t: u64| {
        let ops = churn_stream(&generated, pool, 2 * WINDOW_PAIRS * BATCH, BATCH, 16 + t);
        let drawn: Vec<Vec<UpdateOp>> = batches(ops)
            .into_iter()
            .take(WINDOW_PAIRS)
            .map(|batch| batch.iter().map(|op| relabel_op(op, &ids)).collect())
            .collect();
        assert_eq!(drawn.len(), WINDOW_PAIRS, "a churn stream fills a window");
        drawn
    };
    let (one, whole) = (stream(&component0, 1), stream(&rest, 2));
    let base = common::relabeled(&generated, &ids);
    let path = ctx.work_dir.join(format!("{name}.graph"));
    write_graph_to_path(&base, &path).expect("write the served graph");
    let query = |op: &str, extra: &str| {
        format!("{{\"op\":\"{op}\",\"graph\":\"{name}\",\"k\":3,\"delta\":1{extra}}}")
    };
    let solve = query("solve", "");
    let enumerate = query("enumerate", &format!(",\"limit\":{LIMIT}"));
    let mut script = Script {
        name: name.clone(),
        base,
        path,
        kinds: Vec::new(),
        batches: Vec::new(),
        lines: Vec::new(),
    };
    for (a, b) in one.into_iter().zip(whole) {
        for batch in [a, b] {
            let ops: Vec<String> = batch.iter().map(UpdateOp::to_jsonl).collect();
            script.lines.push(format!(
                "{{\"op\":\"update\",\"graph\":\"{name}\",\"ops\":[{}]}}",
                ops.join(",")
            ));
            script.kinds.push(Kind::Write);
            script.batches.push(batch);
            for kind in READS {
                script.kinds.push(kind);
                script.batches.push(Vec::new());
                script.lines.push(match kind {
                    Kind::Solve => solve.clone(),
                    _ => enumerate.clone(),
                });
            }
        }
    }
    script
}

/// The untimed requests that open a window: load the client's graph afresh,
/// then warm it with one solve and one enumerate.
fn opening(script: &Script) -> [String; 3] {
    let load = format!(
        "{{\"op\":\"load\",\"graph\":\"{}\",\"path\":\"{}\"}}",
        script.name,
        script.path.display()
    );
    [load, script.lines[1].clone(), script.lines[2].clone()]
}

/// What a request returned.
#[derive(Debug, Clone, Default, PartialEq)]
struct Answer {
    error: Option<String>,
    /// Solve: the returned cliques. Enumerate: the streamed cliques.
    cliques: Vec<Vec<VertexId>>,
    /// Solve: whether any component was searched afresh.
    researched: bool,
}

fn clique_ids(clique: &JsonValue) -> Vec<VertexId> {
    clique
        .get("vertices")
        .and_then(JsonValue::as_array)
        .unwrap_or(&[])
        .iter()
        .filter_map(|v| v.as_u64().map(|v| v as VertexId))
        .collect()
}

/// Reads a response from its lines (stream lines, then the terminal line).
fn answer(lines: &[String]) -> Answer {
    let mut out = Answer::default();
    for line in lines {
        let Ok(value) = JsonValue::parse(line) else {
            out.error = Some(format!("unparseable response {line}"));
            return out;
        };
        if let Some(clique) = value.get("clique") {
            out.cliques.push(clique_ids(clique));
            continue;
        }
        if value.get("ok").and_then(JsonValue::as_bool) != Some(true) {
            out.error = Some(line.clone());
            return out;
        }
        if let Some(cliques) = value.get("cliques").and_then(JsonValue::as_array) {
            out.cliques = cliques.iter().map(clique_ids).collect();
            out.researched = value.get("branches").and_then(JsonValue::as_u64) > Some(0);
        }
        let termination = value.get("termination").and_then(JsonValue::as_str);
        if !matches!(
            termination,
            None | Some("optimal" | "infeasible" | "complete" | "sink_stopped")
        ) {
            out.error = Some(format!("incomplete answer {line}"));
        }
    }
    out
}

/// One protocol connection.
struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: SocketAddr) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
        })
    }

    /// Sends `line` and returns every response line up to the terminal one.
    fn request(&mut self, line: &str) -> std::io::Result<Vec<String>> {
        self.writer.write_all(format!("{line}\n").as_bytes())?;
        let mut lines = Vec::new();
        loop {
            let mut raw = String::new();
            if self.reader.read_line(&mut raw)? == 0 {
                return Err(std::io::ErrorKind::UnexpectedEof.into());
            }
            let terminal = raw.contains("\"ok\":");
            lines.push(raw.trim_end().to_string());
            if terminal {
                return Ok(lines);
            }
        }
    }

    fn ok(&mut self, line: &str) {
        let lines = self.request(line).expect("daemon answers set-up requests");
        let answer = answer(&lines);
        assert!(answer.error.is_none(), "set-up request {line}: {answer:?}");
    }
}

/// An in-process daemon with every script's graph loaded and warm.
struct Daemon {
    addr: SocketAddr,
    control: Client,
    thread: Option<JoinHandle<std::io::Result<()>>>,
}

impl Daemon {
    fn start(scripts: &[Script]) -> Daemon {
        let server = Server::bind(ServeConfig {
            port: 0,
            max_active: CLIENTS,
            max_queue: 4 * CLIENTS,
            ..ServeConfig::default()
        })
        .expect("bind the daemon on loopback");
        let addr = server.local_addr().expect("bound address");
        let thread = std::thread::spawn(move || server.run());
        let mut control = Client::connect(addr).expect("connect to the daemon");
        for script in scripts {
            for line in &opening(script) {
                control.ok(line);
            }
        }
        Daemon {
            addr,
            control,
            thread: Some(thread),
        }
    }

    /// Requests the daemon refused as overloaded so far.
    fn overloaded(&mut self) -> u64 {
        let lines = self.control.request("{\"op\":\"stats\"}").expect("stats");
        JsonValue::parse(lines.last().expect("terminal line"))
            .ok()
            .and_then(|v| v.get("counters")?.get("overloaded")?.as_u64())
            .unwrap_or(u64::MAX) // an unreadable count fails the check
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.control.request("{\"op\":\"shutdown\"}");
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// A client's requests in one phase: kind, latency (ms) and answer. Repeated
/// answers share one allocation, so that what the benchmark keeps for the
/// later check adds little to the process's peak RSS.
type Trace = Vec<(Kind, f64, Arc<Answer>)>;

/// Shares `answer` with the previous answer of its kind if they are equal.
fn shared(last: &mut Option<Arc<Answer>>, answer: Answer) -> Arc<Answer> {
    match last {
        Some(prev) if **prev == answer => Arc::clone(prev),
        _ => Arc::clone(last.insert(Arc::new(answer))),
    }
}

/// Runs every client's script over TCP concurrently: whole windows until
/// `seconds` have passed and each client ran at least [`MIN_PASSES`] windows,
/// or exactly `fixed` windows. Returns each client's windows and the daemon's
/// overload count.
fn tcp_phase(
    scripts: &[Script],
    daemon: &mut Daemon,
    seconds: f64,
    fixed: Option<usize>,
) -> (Vec<Vec<Trace>>, u64) {
    let start = Instant::now();
    let addr = daemon.addr;
    let runs = std::thread::scope(|scope| {
        let handles: Vec<_> = scripts
            .iter()
            .map(|script| {
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect to the daemon");
                    let mut windows = Vec::new();
                    let mut last = [None, None, None];
                    loop {
                        let done = match fixed {
                            Some(n) => windows.len() >= n,
                            None => {
                                start.elapsed().as_secs_f64() >= seconds
                                    && windows.len() >= MIN_PASSES
                                    && windows.len() * WINDOW * CLIENTS >= MIN_OPS
                            }
                        };
                        if done {
                            return windows;
                        }
                        for line in &opening(script) {
                            client.ok(line);
                        }
                        let mut trace = Trace::with_capacity(WINDOW);
                        for (line, &kind) in script.lines.iter().zip(&script.kinds) {
                            let t = Instant::now();
                            let response = client.request(line);
                            let ms = t.elapsed().as_secs_f64() * 1e3;
                            let answer = match response {
                                Ok(lines) => answer(&lines),
                                Err(e) => Answer {
                                    error: Some(format!("transport: {e}")),
                                    ..Answer::default()
                                },
                            };
                            trace.push((kind, ms, shared(&mut last[kind as usize], answer)));
                        }
                        windows.push(trace);
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    (runs, daemon.overloaded())
}

/// A client's window latencies as closed-loop passes.
fn passes(windows: &[Trace]) -> Passes {
    Passes {
        latencies: windows
            .iter()
            .map(|trace| trace.iter().map(|(_, ms, _)| *ms).collect())
            .collect(),
    }
}

/// Replays one window of each script through an in-process `LocalEngine`,
/// with spans around `Request::parse` and `handle`.
fn engine_phase(scripts: &[Script]) -> Vec<Trace> {
    let engine = LocalEngine::new(EngineConfig::default(), Arc::new(Counters::default()));
    let run = |line: &str| {
        let mut lines = Vec::new();
        engine
            .handle(line, &mut |l| {
                lines.push(l.to_string());
                Ok(())
            })
            .expect("in-memory emit cannot fail");
        lines
    };
    scripts
        .iter()
        .map(|script| {
            for line in &opening(script) {
                assert!(answer(&run(line)).error.is_none(), "engine set-up {line}");
            }
            script
                .lines
                .iter()
                .zip(&script.kinds)
                .map(|(line, &kind)| {
                    let t = Instant::now();
                    {
                        let _span = span("bench/serve.parse");
                        std::hint::black_box(Request::parse(line).is_ok());
                    }
                    let lines = {
                        let _span = span(if kind == Kind::Write {
                            "bench/serve.handle.write"
                        } else {
                            "bench/serve.handle.read"
                        });
                        run(line)
                    };
                    (
                        kind,
                        t.elapsed().as_secs_f64() * 1e3,
                        Arc::new(answer(&lines)),
                    )
                })
                .collect()
        })
        .collect()
}

/// Counts from the direct `DynamicRfcSolver` replay.
#[derive(Default)]
struct DirectCounts {
    invalidated: Vec<f64>,
    emitted: Vec<f64>,
    /// Reads replayed, and those that searched a component afresh.
    reads: u64,
    researched: u64,
    hits: u64,
    misses: u64,
}

/// Replays one window of each script directly on a `DynamicRfcSolver`, with
/// the daemon's query settings.
fn direct_phase(scripts: &[Script], counts: &mut DirectCounts) -> Vec<Trace> {
    let query =
        Query::new(MODEL).with_config(SearchConfig::default().with_threads(ThreadCount::Serial));
    let enum_query = EnumQuery::new(MODEL).with_threads(ThreadCount::Serial);
    let enumerate = |solver: &mut DynamicRfcSolver| {
        let mut sink = CollectSink::new();
        let outcome = {
            let _span = span("bench/dynamic.enumerate");
            solver.enumerate(&enum_query, &mut LimitSink::new(&mut sink, LIMIT as u64))
        };
        (outcome, sink)
    };
    scripts
        .iter()
        .map(|script| {
            let mut solver = DynamicRfcSolver::new(script.base.clone());
            solver.solve(&query).expect("warm-up solve");
            let _ = enumerate(&mut solver);
            let before = solver.cache_stats().solve;
            let trace = (0..WINDOW)
                .map(|i| {
                    let kind = script.kinds[i];
                    let t = Instant::now();
                    let mut out = Answer::default();
                    match kind {
                        Kind::Write => {
                            for op in &script.batches[i] {
                                let _span = span("bench/dynamic.apply");
                                if let Err(e) = solver.apply_op(op) {
                                    out.error = Some(format!("apply {}: {e}", op.to_jsonl()));
                                }
                            }
                            let outcome = {
                                let _span = span("bench/dynamic.commit");
                                solver.commit()
                            };
                            counts
                                .invalidated
                                .push(outcome.reductions_invalidated as f64);
                        }
                        Kind::Solve => {
                            let misses = solver.cache_stats().solve.misses;
                            let result = {
                                let _span = span("bench/dynamic.solve");
                                solver.solve(&query)
                            };
                            out.researched = solver.cache_stats().solve.misses > misses;
                            counts.reads += 1;
                            counts.researched += u64::from(out.researched);
                            match result {
                                Ok(s) if s.termination.is_complete() => {
                                    out.cliques =
                                        s.cliques.into_iter().map(|c| c.vertices).collect();
                                }
                                Ok(s) => {
                                    out.error = Some(format!("incomplete {:?}", s.termination))
                                }
                                Err(e) => out.error = Some(e.to_string()),
                            }
                        }
                        Kind::Enumerate => match enumerate(&mut solver) {
                            (Ok(outcome), sink) => {
                                counts.reads += 1;
                                counts.researched +=
                                    u64::from(outcome.stats.components_searched > 0);
                                counts.emitted.push(outcome.emitted as f64);
                                out.cliques = sink
                                    .into_cliques()
                                    .into_iter()
                                    .map(|c| c.vertices)
                                    .collect();
                            }
                            (Err(e), _) => out.error = Some(e.to_string()),
                        },
                    }
                    (kind, t.elapsed().as_secs_f64() * 1e3, Arc::new(out))
                })
                .collect();
            let after = solver.cache_stats().solve;
            counts.hits += after.hits - before.hits;
            counts.misses += after.misses - before.misses;
            trace
        })
        .collect()
}

/// Checks the answers of every window of every phase for one script against
/// a reference replay of a window:
/// writes must succeed; a solve must return exactly the reference's clique
/// sizes (serial `SearchConfig::basic()` on the same graph version) and fair
/// cliques; an enumerate at most `LIMIT` maximal fair cliques.
fn verify(script: &Script, phases: &[&Trace]) -> Tally {
    let mut tally = Tally::default();
    let len = phases.iter().map(|t| t.len()).max().unwrap_or(0);
    let basic =
        Query::new(MODEL).with_config(SearchConfig::basic().with_threads(ThreadCount::Serial));
    let mut reference = DynamicRfcSolver::new(script.base.clone());
    let mut sizes: Option<Vec<usize>> = None;
    for i in 0..len {
        let kind = script.kinds[i];
        if kind == Kind::Write {
            for op in &script.batches[i] {
                reference
                    .apply_op(op)
                    .expect("reference applies the stream");
            }
            reference.commit();
            sizes = None;
        }
        if kind == Kind::Solve && sizes.is_none() {
            let solution = reference.solve(&basic).expect("reference solve");
            sizes = Some(solution.cliques.iter().map(FairClique::size).collect());
        }
        let expected = sizes.as_deref().unwrap_or(&[]);
        let graph = reference.graph();
        for trace in phases.iter().filter(|t| i < t.len()) {
            let answer = &trace[i].2;
            tally.record(match (&answer.error, kind) {
                (Some(e), _) => Err(format!("{} request {i}: {e}", script.name)),
                (None, Kind::Write) => Ok(()),
                (None, Kind::Solve) => {
                    let got: Vec<usize> = answer.cliques.iter().map(Vec::len).collect();
                    if got != expected {
                        Err(format!(
                            "{} solve {i}: sizes {got:?}, reference {expected:?}",
                            script.name
                        ))
                    } else if answer
                        .cliques
                        .iter()
                        .any(|c| !is_fair_clique_under(graph, c, MODEL))
                    {
                        Err(format!("{} solve {i}: not a fair clique", script.name))
                    } else {
                        Ok(())
                    }
                }
                (None, Kind::Enumerate) => {
                    if answer.cliques.len() > LIMIT
                        || answer
                            .cliques
                            .iter()
                            .any(|c| !is_maximal_fair_clique_under(graph, c, MODEL))
                    {
                        Err(format!(
                            "{} enumerate {i}: not maximal fair cliques",
                            script.name
                        ))
                    } else {
                        Ok(())
                    }
                }
            });
        }
    }
    // The last version once more, from scratch on a plain solver.
    let fresh = RfcSolver::new(reference.graph().clone());
    let fresh_sizes = common::reference_sizes(&fresh, MODEL, Objective::Maximum);
    if let Some(sizes) = sizes.filter(|s| *s != fresh_sizes) {
        tally.fail(format!(
            "{}: dynamic reference {sizes:?} disagrees with a fresh solve {fresh_sizes:?}",
            script.name
        ));
    }
    tally
}

fn latencies(traces: &[Trace], keep: impl Fn(Kind) -> bool) -> Vec<f64> {
    traces
        .iter()
        .flatten()
        .filter(|(kind, _, _)| keep(*kind))
        .map(|(_, ms, _)| *ms)
        .collect()
}

fn setup(ctx: &Ctx) -> (Vec<Script>, Daemon) {
    let scripts: Vec<Script> = (0..CLIENTS).map(|c| script(ctx, c)).collect();
    let daemon = Daemon::start(&scripts);
    (scripts, daemon)
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let ((scripts, mut daemon), setup_s) = common::timed_setup(|| setup(ctx));
    out.info
        .push(("requests_per_window".to_string(), WINDOW.to_string()));

    let seconds = if ctx.trace {
        ctx.seconds / 3.0
    } else {
        ctx.seconds
    };
    let (tcp, overloaded) = tcp_phase(&scripts, &mut daemon, seconds, None);
    drop(daemon);
    let solves: Vec<&Arc<Answer>> = tcp
        .iter()
        .flatten()
        .flatten()
        .filter(|(kind, _, _)| *kind == Kind::Solve)
        .map(|(_, _, a)| a)
        .collect();
    let researched = solves.iter().filter(|a| a.researched).count();
    out.info.push((
        "tcp_research_frac".to_string(),
        format!("{:.3}", ratio(researched as f64, solves.len() as f64)),
    ));
    out.require(
        researched > 0 && researched < solves.len(),
        "serve-churn needs both re-searching and cache-hit reads",
    );
    let mut overloads = vec![overloaded];

    // Each client's unstalled window; the clients run side by side, so their
    // rates add up.
    let passes: Vec<Passes> = tcp.iter().map(|windows| passes(windows)).collect();
    let unstalled: Vec<Vec<f64>> = passes.iter().map(Passes::unstalled).collect();
    let all: Vec<f64> = unstalled.concat();
    let samples = passes.iter().map(|p| p.all().len()).sum();
    let windows = tcp.iter().map(Vec::len).min().unwrap_or(0);
    common::end_to_end_values(
        &mut out,
        setup_s,
        [percentile(&all, 50.0), percentile(&all, 90.0)],
        passes.iter().map(Passes::throughput).sum(),
        samples,
        windows,
    );
    // Every trace of every phase, with the client that sent it.
    let by_client = |traces: Vec<Trace>| traces.into_iter().enumerate();
    let mut phases: Vec<(usize, Trace)> = tcp
        .into_iter()
        .enumerate()
        .flat_map(|(c, windows)| windows.into_iter().map(move |t| (c, t)))
        .collect();
    if ctx.trace {
        let by_kind = |keep: fn(Kind) -> bool| -> Vec<f64> {
            unstalled
                .iter()
                .zip(&scripts)
                .flat_map(|(pass, script)| {
                    pass.iter()
                        .zip(&script.kinds)
                        .filter(move |(_, kind)| keep(**kind))
                        .map(|(ms, _)| *ms)
                })
                .collect()
        };
        let reads = by_kind(|k| k != Kind::Write);
        let writes = by_kind(|k| k == Kind::Write);
        let v = &mut out.values;
        v.insert("serve.read_ms.p50", percentile(&reads, 50.0));
        v.insert("serve.read_ms.p90", percentile(&reads, 90.0));
        v.insert("serve.write_ms.p50", percentile(&writes, 50.0));
        v.insert("serve.write_ms.p90", percentile(&writes, 90.0));

        let mut daemon = Daemon::start(&scripts);
        let mut tracer = Tracer::install();
        let (traced, overloaded) = tcp_phase(&scripts, &mut daemon, 0.0, Some(1));
        let traced: Vec<Trace> = traced.into_iter().flatten().collect(); // one window each
        drop(daemon);
        overloads.push(overloaded);
        tracer.drain();
        let engine = engine_phase(&scripts);
        tracer.drain();
        let mut counts = DirectCounts::default();
        let direct = direct_phase(&scripts, &mut counts);
        let log = tracer.finish(&mut out);

        let traced_all = latencies(&traced, |_| true);
        common::trace_overhead(&mut out.values, &all, &traced_all);
        let handle = latencies(&engine, |_| true);
        let paired = |a: &[f64], b: &[f64]| {
            let diffs: Vec<f64> = a.iter().zip(b).map(|(a, b)| a - b).collect();
            crate::stats::median(&diffs)
        };
        let v = &mut out.values;
        v.insert(
            "serve.parse_us",
            log.stats("bench/serve.parse").total_ms() * 1e3,
        );
        v.insert(
            "serve.handle_ms.read",
            log.stats("bench/serve.handle.read").total_ms(),
        );
        v.insert(
            "serve.handle_ms.write",
            log.stats("bench/serve.handle.write").total_ms(),
        );
        v.insert("serve.transport_ms", paired(&traced_all, &handle));
        v.insert(
            "serve.overhead_ms",
            paired(&handle, &latencies(&direct, |_| true)),
        );
        v.insert(
            "dynamic.commit_ms",
            log.stats("bench/dynamic.commit").total_ms(),
        );
        v.insert(
            "dynamic.solve_ms",
            log.stats("bench/dynamic.solve").total_ms(),
        );
        v.insert(
            "dynamic.cache_hit_ratio",
            ratio(counts.hits as f64, (counts.hits + counts.misses) as f64),
        );
        v.insert("dynamic.reductions_invalidated", mean(&counts.invalidated));
        v.insert(
            "dynamic.research_frac",
            ratio(counts.researched as f64, counts.reads as f64),
        );
        v.insert(
            "enumerate.ms",
            log.stats("bench/dynamic.enumerate").total_ms(),
        );
        v.insert("enumerate.emitted", mean(&counts.emitted));
        phases.extend(
            by_client(traced)
                .chain(by_client(engine))
                .chain(by_client(direct)),
        );
    }
    let overloaded = overloads.iter().fold(0, |a: u64, &b| a.saturating_add(b));
    out.values.insert("serve.overloaded", overloaded as f64);
    out.require(overloaded == 0, "serve.overloaded must stay 0");
    // One reference replay per client, concurrently.
    let tallies: Vec<Tally> = std::thread::scope(|scope| {
        let phases = &phases;
        let handles: Vec<_> = scripts
            .iter()
            .enumerate()
            .map(|(c, script)| {
                scope.spawn(move || {
                    let traces: Vec<&Trace> = phases
                        .iter()
                        .filter(|(client, _)| *client == c)
                        .map(|(_, trace)| trace)
                        .collect();
                    verify(script, &traces)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("verification thread"))
            .collect()
    });
    for tally in tallies {
        out.tally.absorb(tally);
    }
    out
}
