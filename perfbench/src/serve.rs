//! The `serve-query` workload: a fresh query daemon per repetition,
//! driven in a closed loop over loopback TCP by two connections that
//! each wait for their reply.
//!
//! The daemon is this benchmark's own executable re-started with
//! `--serve-daemon`: it binds `sg_serve::server::Server` with the
//! production `ServerConfig::default()` on a free loopback port, serves
//! until its standard input closes, drains, and reports its peak RSS.
//!
//! The stream is generated from the seed over a fixed pool of distinct
//! queries across all 18 topology families (bound, certificate, search,
//! enumerate, execute). The seed sets the order, the search seeds and
//! the random-regular graphs' seeds, and picks which queries repeat (memo
//! hits) and which go out on both connections at once (single flight).

use crate::layers::{Layers, Traced};
use crate::report::{median, peak_rss_mib, percentile, Outcome, SplitMix};
use sg_bounds::pfun::Period;
use sg_delay::bound::BoundOpts;
use sg_exec::{DriverConfig, FaultPlan};
use sg_protocol::mode::Mode;
use sg_search::{EnumerateConfig, SearchConfig};
use sg_serve::engine::{EngineConfig, QueryEngine};
use sg_serve::protocol::{error_reply, ok_reply, Query, Request};
use sg_serve::server::{Server, ServerConfig};
use sg_serve::Client;
use std::collections::{BTreeMap, HashMap};
use std::io::{BufRead, BufReader, Write};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};
use systolic_gossip::{to_json_line, Network, Row};

/// Connections driving the daemon, each in a closed loop.
const CONNECTIONS: usize = 2;
/// Set-up samples per untraced run (one per repetition, topped up with
/// set-up-only daemons).
const SETUP_SAMPLES: usize = 11;
/// Repeats of earlier queries (memo hits) and single-flight pairs in
/// one stream.
const REPEATS: usize = 48;
const PAIRS: usize = 12;
/// How long the daemon waits after binding before announcing its
/// address (see `daemon_main`); under the server's 5 ms accept poll.
const ANNOUNCE_DELAY: Duration = Duration::from_millis(2);
/// Pings timed on a live daemon for `serve.socket_rtt_us`.
const RTT_PINGS: usize = 400;

fn net(spec: &str) -> Network {
    Network::from_spec(spec).unwrap_or_else(|e| panic!("pool spec `{spec}`: {e}"))
}

/// The distinct queries of one stream, before the seed shuffles them.
fn pool(rng: &mut SplitMix) -> Vec<Query> {
    let rr_seed = 1 + rng.next_u64() % 1_000_000;
    let undirected = [
        "path:16",
        "path:64",
        "path:256",
        "cycle:16",
        "cycle:64",
        "cycle:256",
        "complete:8",
        "complete:16",
        "complete:32",
        "tree:2,4",
        "tree:2,6",
        "tree:3,4",
        "grid:4x4",
        "grid:8x8",
        "grid:16x16",
        "torus:4x4",
        "torus:8x8",
        "torus:12x12",
        "q:4",
        "q:6",
        "q:8",
        "bf:2,3",
        "bf:2,4",
        "bf:2,5",
        "wbf:2,3",
        "wbf:2,4",
        "wbf:2,5",
        "db:2,5",
        "db:2,6",
        "db:2,7",
        "kautz:2,4",
        "kautz:2,5",
        "kautz:2,6",
        "se:5",
        "se:6",
        "se:7",
        "ccc:3",
        "ccc:4",
        "ccc:5",
        "knodel:4,16",
        "knodel:6,64",
        "knodel:8,256",
    ];
    // Random regular graphs drawn from the seed. Their certificates are
    // left out: the edge-coloring protocol's λ-search cost swings by
    // orders of magnitude from one graph to the next.
    let random: Vec<Network> = [(64, 3), (128, 4), (256, 3)]
        .iter()
        .map(|&(n, d)| Network::RandomRegular {
            n,
            d,
            seed: rr_seed,
        })
        .collect();
    let directed = [
        "wbfdir:2,3",
        "wbfdir:2,4",
        "wbfdir:2,5",
        "dbdir:2,5",
        "dbdir:2,6",
        "dbdir:2,7",
        "kautzdir:2,4",
        "kautzdir:2,5",
        "kautzdir:2,6",
    ];
    let mut v = Vec::new();
    let nets = undirected
        .iter()
        .map(|s| net(s))
        .chain(random.iter().copied());
    for n in nets {
        for mode in [Mode::HalfDuplex, Mode::FullDuplex] {
            for period in [
                Period::Systolic(3),
                Period::Systolic(4),
                Period::NonSystolic,
            ] {
                v.push(Query::Bound {
                    net: n,
                    mode,
                    period,
                });
            }
            if !random.contains(&n) {
                v.push(Query::Certificate { net: n, mode });
            }
            v.push(Query::Execute { net: n, mode });
        }
    }
    for spec in directed {
        let n = net(spec);
        for period in [
            Period::Systolic(3),
            Period::Systolic(4),
            Period::NonSystolic,
        ] {
            v.push(Query::Bound {
                net: n,
                mode: Mode::Directed,
                period,
            });
        }
        if n.reference_protocol().is_some() {
            v.push(Query::Certificate {
                net: n,
                mode: Mode::Directed,
            });
            v.push(Query::Execute {
                net: n,
                mode: Mode::Directed,
            });
        }
    }
    for spec in [
        "path:8",
        "cycle:8",
        "cycle:12",
        "complete:8",
        "grid:3x3",
        "torus:3x3",
        "q:3",
        "q:4",
        "knodel:3,8",
        "wbf:2,2",
        "db:2,3",
        "se:3",
        "tree:2,2",
    ] {
        let n = net(spec);
        for period in [3, 4] {
            v.push(Query::Search {
                net: n,
                mode: Mode::FullDuplex,
                period,
                seed: rng.next_u64() % 1_000_000,
                restarts: 4,
                iterations: 300,
            });
        }
    }
    for (spec, mode, periods) in [
        ("path:6", Mode::HalfDuplex, &[3, 4][..]),
        ("cycle:6", Mode::FullDuplex, &[2, 3]),
        ("cycle:8", Mode::FullDuplex, &[3]),
        ("q:3", Mode::FullDuplex, &[2, 3]),
        ("knodel:3,8", Mode::FullDuplex, &[2]),
        ("torus:3x3", Mode::FullDuplex, &[3]),
        ("dbdir:2,3", Mode::Directed, &[3]),
        ("complete:6", Mode::FullDuplex, &[2, 3]),
    ] {
        for &period in periods {
            v.push(Query::Enumerate {
                net: net(spec),
                mode,
                period,
            });
        }
    }
    v
}

/// One query of the stream with its id and its wire line.
struct Item {
    id: i64,
    query: Query,
    line: String,
}

/// The stream: single-flight pairs, sent first and together by both
/// connections, then the singles, which both connections take from one
/// shared cursor — each sends its next query as soon as its previous
/// reply arrives.
struct Stream {
    /// `pairs[k][c]`: pair `k` as connection `c` sends it (own id).
    pairs: Vec<Vec<Item>>,
    singles: Vec<Item>,
    distinct: Vec<Query>,
}

impl Stream {
    /// Every item, in the order one engine would see them sequentially.
    fn items(&self) -> impl Iterator<Item = &Item> {
        self.pairs.iter().flatten().chain(&self.singles)
    }

    fn total(&self) -> usize {
        self.pairs.len() * CONNECTIONS + self.singles.len()
    }
}

fn stream(seed: u64) -> Stream {
    let mut rng = SplitMix(seed);
    let mut cold = pool(&mut rng);
    rng.shuffle(&mut cold);
    let paired: Vec<Query> = cold.split_off(cold.len() - PAIRS);
    let mut order: Vec<Query> = cold.clone();
    for _ in 0..REPEATS {
        // A repeat lands after its original in stream order.
        let orig = rng.below(order.len() / 2);
        let at = orig + 1 + rng.below(order.len() - orig);
        let q = order[orig].clone();
        order.insert(at, q);
    }
    let mut id = 0i64;
    let mut item = |query: Query| {
        id += 1;
        let line = Request {
            id: Some(id),
            query: query.clone(),
        }
        .to_line();
        Item { id, query, line }
    };
    let pairs = paired
        .iter()
        .map(|q| (0..CONNECTIONS).map(|_| item(q.clone())).collect())
        .collect();
    let singles = order.into_iter().map(&mut item).collect();
    let mut distinct = cold;
    distinct.extend(paired);
    Stream {
        pairs,
        singles,
        distinct,
    }
}

/// `--serve-daemon`: the daemon process. Prints its address, serves
/// until standard input closes, drains, prints its peak RSS, and exits
/// 0 iff the drain finished.
pub fn daemon_main() -> ! {
    let server = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        ..ServerConfig::default()
    })
    .expect("bind a loopback port");
    // The accept loop polls every 5 ms. Announcing the address only after
    // its first poll has certainly happened means the first connection
    // always waits for a later poll, as any client arriving after start-up
    // does, instead of racing the first one: that race made the time to
    // the first reply flip between ~2 ms and ~7 ms from run to run. The
    // wait is shorter than one poll interval, so it adds no time to the
    // first reply.
    std::thread::sleep(ANNOUNCE_DELAY);
    println!("listening {}", server.local_addr());
    std::io::stdout().flush().expect("stdout is a pipe");
    let handle = server.handle();
    let watcher = std::thread::spawn(move || {
        let mut sink = String::new();
        let stdin = std::io::stdin();
        while stdin.lock().read_line(&mut sink).is_ok_and(|n| n > 0) {
            sink.clear();
        }
        handle.shutdown();
    });
    let report = server.join();
    watcher.join().expect("stdin watcher never panics");
    println!("peak_rss_mib {}", peak_rss_mib("self"));
    std::process::exit(if report.drained { 0 } else { 1 })
}

/// A running daemon: the child, its control pipe and its address.
struct Daemon {
    child: Child,
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
    addr: String,
}

impl Daemon {
    /// Spawns a daemon and waits for its first `ping` reply; returns it
    /// with the set-up time.
    fn start() -> (Daemon, Client, f64) {
        let t = Instant::now();
        let exe = std::env::current_exe().expect("own executable path");
        let mut child = Command::new(exe)
            .arg("--serve-daemon")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .expect("spawn the daemon");
        let stdin = child.stdin.take();
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut line = String::new();
        stdout.read_line(&mut line).expect("daemon address line");
        let addr = line
            .trim()
            .strip_prefix("listening ")
            .expect("daemon prints `listening <addr>`")
            .to_string();
        let mut client = Client::connect_retry(addr.as_str(), 50).expect("connect to the daemon");
        let pong = client.roundtrip(r#"{"op":"ping"}"#).expect("ping");
        assert!(pong.contains("\"ok\":true"), "ping reply {pong}");
        let setup = t.elapsed().as_secs_f64();
        (
            Daemon {
                child,
                stdin,
                stdout,
                addr,
            },
            client,
            setup,
        )
    }

    /// Closes the control pipe, waits for the drain, and returns the
    /// daemon's peak RSS in MiB and whether it drained cleanly.
    fn stop(mut self) -> (f64, bool) {
        drop(self.stdin.take());
        let mut rss = f64::NAN;
        let mut line = String::new();
        while self.stdout.read_line(&mut line).is_ok_and(|n| n > 0) {
            if let Some(v) = line.trim().strip_prefix("peak_rss_mib ") {
                rss = v.parse().unwrap_or(f64::NAN);
            }
            line.clear();
        }
        let ok = self.child.wait().is_ok_and(|s| s.success());
        (rss, ok)
    }
}

impl Drop for Daemon {
    /// On any early exit (a panic mid-stream included) the daemon still
    /// sees its control pipe close, drains, and is waited for.
    fn drop(&mut self) {
        drop(self.stdin.take());
        let _ = self.child.wait();
    }
}

/// Reads a numeric field out of a one-line JSON reply.
fn json_num(reply: &str, key: &str) -> Option<f64> {
    let v = sg_serve::json::parse(reply).ok()?;
    v.get(key)?.as_f64()
}

/// One repetition: a fresh daemon, the whole stream, the stats reply.
struct Rep {
    setup_s: f64,
    wall_s: f64,
    latencies_ms: Vec<f64>,
    replies: HashMap<i64, String>,
    /// Single-flight counters from the daemon's `stats` reply (`None`
    /// when the reply did not arrive).
    computes: Option<usize>,
    lookups: Option<usize>,
    rss_mib: f64,
    drained: bool,
}

fn drive(stream: &Stream) -> Rep {
    let (daemon, control, setup_s) = Daemon::start();
    drop(control);
    let barrier = Barrier::new(CONNECTIONS);
    let replies = Mutex::new(HashMap::new());
    let latencies = Mutex::new(Vec::new());
    let started = Instant::now();
    let cursor = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for conn in 0..CONNECTIONS {
            let (barrier, replies, latencies, cursor) = (&barrier, &replies, &latencies, &cursor);
            let addr = daemon.addr.as_str();
            scope.spawn(move || {
                let mut c = Client::connect(addr).expect("connect a load connection");
                let mut mine = Vec::new();
                let mut send = |item: &Item| {
                    let t = Instant::now();
                    let reply = c
                        .roundtrip(&item.line)
                        .unwrap_or_else(|e| error_reply(Some(item.id), &format!("transport: {e}")));
                    mine.push((item.id, reply, t.elapsed().as_secs_f64() * 1e3));
                };
                for pair in &stream.pairs {
                    barrier.wait();
                    send(&pair[conn]);
                }
                while let Some(item) = stream.singles.get(cursor.fetch_add(1, Ordering::Relaxed)) {
                    send(item);
                }
                let mut r = replies.lock().expect("reply map lock");
                let mut l = latencies.lock().expect("latency list lock");
                for (id, reply, ms) in mine {
                    r.insert(id, reply);
                    l.push(ms);
                }
            });
        }
    });
    let wall_s = started.elapsed().as_secs_f64();
    let stats = Client::connect(daemon.addr.as_str())
        .and_then(|mut c| c.roundtrip(r#"{"op":"stats"}"#))
        .unwrap_or_default();
    let (rss_mib, drained) = daemon.stop();
    Rep {
        setup_s,
        wall_s,
        latencies_ms: latencies.into_inner().expect("latency list"),
        replies: replies.into_inner().expect("reply map"),
        computes: json_num(&stats, "singleflight_computes").map(|v| v as usize),
        lookups: json_num(&stats, "singleflight_lookups").map(|v| v as usize),
        rss_mib,
        drained,
    }
}

/// The in-process reference: every distinct query answered by a fresh
/// `QueryEngine` on `threads` threads, then the reply each stream item
/// must get (`None` when the engine refused the query).
fn expected_replies(stream: &Stream, threads: usize) -> HashMap<i64, Option<String>> {
    let engine = QueryEngine::new(EngineConfig::default());
    let cursor = AtomicUsize::new(0);
    let rows = Mutex::new(HashMap::new());
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                while let Some(q) = stream.distinct.get(cursor.fetch_add(1, Ordering::Relaxed)) {
                    let row = engine.handle(q).ok();
                    let key = Request::new(q.clone()).to_line();
                    rows.lock().expect("reference lock").insert(key, row);
                }
            });
        }
    });
    let rows = rows.into_inner().expect("reference map");
    stream
        .items()
        .map(|item| {
            let row = &rows[&Request::new(item.query.clone()).to_line()];
            (item.id, row.as_ref().map(|r| ok_reply(Some(item.id), r)))
        })
        .collect()
}

/// Checks one repetition: every reply equal to `expected` (query id →
/// the reply an in-process engine gives; `None` when the engine refused
/// the query, which is a failure too), single flight and a clean drain.
fn check_rep(
    rep: &Rep,
    stream: &Stream,
    expected: &HashMap<i64, Option<String>>,
    out: &mut Outcome,
) {
    for item in stream.items() {
        let want = expected.get(&item.id).and_then(Option::as_deref);
        let got = rep.replies.get(&item.id).map(|s| s.trim_end());
        out.check(want.is_some() && got == want, || {
            format!(
                "query {}: `{}` replied {got:?}, in-process {want:?}",
                item.id, item.line
            )
        });
    }
    let distinct = stream.distinct.len();
    out.check(rep.computes.is_some_and(|c| c <= distinct), || {
        format!(
            "single flight: {:?} computes for {distinct} distinct queries",
            rep.computes
        )
    });
    out.check(rep.drained, || {
        "daemon did not drain on shutdown".to_string()
    });
}

/// One untraced run.
pub fn run(seed: u64, seconds: f64, threads: usize, out: &mut Outcome) {
    let stream = stream(seed);
    println!(
        "stream: {} queries ({} distinct, {REPEATS} repeats, {PAIRS} single-flight pairs) \
         over {CONNECTIONS} closed-loop connections",
        stream.total(),
        stream.distinct.len()
    );
    let mut reps = Vec::new();
    let started = Instant::now();
    loop {
        let rep = drive(&stream);
        println!(
            "rep {}: set-up {:.4} s, wall {:.4} s, computes {:?} / lookups {:?}, daemon peak {:.1} MiB",
            reps.len() + 1,
            rep.setup_s,
            rep.wall_s,
            rep.computes,
            rep.lookups,
            rep.rss_mib
        );
        reps.push(rep);
        let walls: Vec<f64> = reps.iter().map(|r| r.wall_s).collect();
        if started.elapsed().as_secs_f64() + median(&walls) > seconds {
            break;
        }
    }
    let mut setups: Vec<f64> = reps.iter().map(|r| r.setup_s).collect();
    while setups.len() < SETUP_SAMPLES {
        let (daemon, control, s) = Daemon::start();
        drop(control);
        daemon.stop();
        setups.push(s);
    }
    let expected = expected_replies(&stream, threads);
    for rep in &reps {
        check_rep(rep, &stream, &expected, out);
    }
    let walls: Vec<f64> = reps.iter().map(|r| r.wall_s).collect();
    let lat: Vec<f64> = reps.iter().flat_map(|r| r.latencies_ms.clone()).collect();
    let qps: Vec<f64> = reps
        .iter()
        .map(|r| stream.total() as f64 / r.wall_s)
        .collect();
    let rss: Vec<f64> = reps.iter().map(|r| r.rss_mib).collect();
    println!(
        "samples: {} set-ups, {} streams, {} query latencies",
        setups.len(),
        reps.len(),
        lat.len()
    );
    out.metric("setup_s", median(&setups), "s");
    out.metric("wall_s", median(&walls), "s");
    out.metric("peak_rss_mib", median(&rss), "MiB");
    out.metric("queries_per_s", median(&qps), "1/s");
    out.metric("query_p50_ms", percentile(&lat, 50.0), "ms");
    out.metric("query_p99_ms", percentile(&lat, 99.0), "ms");
}

/// Op name of a query, for the per-op cold handle times.
fn op(q: &Query) -> &'static str {
    match q {
        Query::Bound { .. } => "bound",
        Query::Certificate { .. } => "certificate",
        Query::Search { .. } => "search",
        Query::Enumerate { .. } => "enumerate",
        Query::Execute { .. } => "execute",
        _ => "other",
    }
}

/// One `QueryEngine::handle` call of the handle pass.
struct Handled {
    op: &'static str,
    secs: f64,
    /// The engine computed (its compute counter moved) rather than hit.
    cold: bool,
}

/// What the handle pass produced: the engine (for its cache counters),
/// every handle call, and the encoded reply of every query id.
struct HandlePass {
    engine: QueryEngine,
    calls: Vec<Handled>,
    /// Query id → encoded reply (`None` when the engine refused).
    lines: Vec<(i64, Option<String>)>,
}

/// The handle pass: every stream line parsed, handled by one in-process
/// engine and encoded, in stream order.
fn handle_pass(stream: &Stream, l: &Layers) -> HandlePass {
    let engine = QueryEngine::new(EngineConfig::default());
    let mut calls = Vec::new();
    let mut lines = Vec::new();
    for item in stream.items() {
        l.tr.set_unit(item.id as u64);
        let req =
            l.tr.span("serve.parse", || Request::parse(&item.line))
                .expect("stream lines parse");
        let before = engine.stats().computes;
        let t = Instant::now();
        let body = l.tr.span("serve.handle", || engine.handle(&req.query));
        calls.push(Handled {
            op: op(&req.query),
            secs: t.elapsed().as_secs_f64(),
            cold: engine.stats().computes > before,
        });
        // `ok_reply`'s framing, with `to_json_line` inside the span.
        let line = body.ok().map(|row| {
            let mut r = Row::new().with("ok", true);
            r.fields.extend(row.fields);
            let r = r.with("id", item.id);
            l.tr.span("serve.encode", || to_json_line(&r))
        });
        lines.push((item.id, line));
    }
    HandlePass {
        engine,
        calls,
        lines,
    }
}

/// The layer pass: every distinct query's compute path called layer by
/// layer on a fresh cache, so the serve workload's time splits into
/// graphs, oracle, protocol, delay, sim, search and exec.
fn layer_pass(distinct: &[Query], l: &Layers) {
    let cache = sg_scenario::BuildCache::new();
    let oracle = cache.oracle();
    for (i, q) in distinct.iter().enumerate() {
        l.tr.set_unit(i as u64);
        match q {
            Query::Bound { net, mode, period } => {
                let g = l.digraph(&cache, net);
                let d = l.diameter(&cache, net);
                l.bounds_on(oracle, net, &g, d, *mode, *period);
            }
            Query::Certificate { net, mode } => {
                let g = l.digraph(&cache, net);
                let d = l.diameter(&cache, net);
                let n = g.vertex_count();
                let Some((kind, sp)) = l.protocol(&cache, net, *mode) else {
                    continue;
                };
                if l.dense(&sp, n, 40 * n + 200).is_some() {
                    l.bounds_on(oracle, net, &g, d, *mode, Period::Systolic(sp.s()));
                    let dg = l.delay_digraph(&cache, net, kind, &sp);
                    l.thm41(&dg, n, BoundOpts::default());
                }
            }
            Query::Search {
                net,
                mode,
                period,
                seed,
                restarts,
                iterations,
            } => {
                let g = l.digraph(&cache, net);
                let d = l.diameter(&cache, net);
                let cfg = SearchConfig {
                    restarts: *restarts,
                    iterations: *iterations,
                    seed: *seed,
                    threads: 1,
                    ..SearchConfig::default()
                }
                .exact_period(*period);
                l.search(oracle, net, &g, d, *mode, &cfg);
            }
            Query::Enumerate { net, mode, period } => {
                let g = l.digraph(&cache, net);
                let d = l.diameter(&cache, net);
                let group = l.perm_group(&cache, net);
                let cfg = EnumerateConfig::default().exact_period(*period);
                l.enumerate(oracle, net, &g, d, *mode, &group, &cfg, false);
            }
            Query::Execute { net, mode } => {
                let g = l.digraph(&cache, net);
                let n = g.vertex_count();
                let Some((_, sp)) = l.protocol(&cache, net, *mode) else {
                    continue;
                };
                l.dense(&sp, n, 40 * n + 200);
                let cfg = DriverConfig {
                    max_rounds: (40 * n + 200) as u64,
                    ..DriverConfig::default()
                };
                l.execute(&sp, n, FaultPlan::fault_free(), cfg);
            }
            _ => {}
        }
    }
}

/// One traced run: a daemon repetition (for the single-flight counters,
/// the memo hit ratio and the socket round trip), then the handle and
/// layer passes with the tracer off and on.
pub fn run_traced(seed: u64, out: &mut Outcome) -> Traced {
    let stream = stream(seed);
    let rep = drive(&stream);
    let (daemon, mut control, _) = Daemon::start();
    let mut rtts = Vec::with_capacity(RTT_PINGS);
    for _ in 0..RTT_PINGS {
        let t = Instant::now();
        control.roundtrip(r#"{"op":"ping"}"#).expect("ping");
        rtts.push(t.elapsed().as_secs_f64() * 1e6);
    }
    drop(control);
    daemon.stop();

    let quiet = Layers::new(false);
    let t = Instant::now();
    let untraced = handle_pass(&stream, &quiet);
    layer_pass(&stream.distinct, &quiet);
    let untraced_s = t.elapsed().as_secs_f64();

    let layers = Layers::new(true);
    let t = Instant::now();
    let traced = handle_pass(&stream, &layers);
    layer_pass(&stream.distinct, &layers);
    let traced_s = t.elapsed().as_secs_f64();

    // The daemon's replies must match the in-process engine's, and the
    // tracer must not change an answer.
    let expected: HashMap<i64, Option<String>> = traced.lines.iter().cloned().collect();
    check_rep(&rep, &stream, &expected, out);
    out.check(traced.lines == untraced.lines, || {
        "traced and untraced replies differ".to_string()
    });

    let spans = layers.tr.spans();
    let durations = |name: &str| -> Vec<f64> {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_s())
            .collect()
    };
    let mut extra = BTreeMap::new();
    extra.insert("serve.parse_us", median(&durations("serve.parse")) * 1e6);
    extra.insert("serve.encode_us", median(&durations("serve.encode")) * 1e6);
    let hits: Vec<f64> = traced
        .calls
        .iter()
        .filter(|h| !h.cold)
        .map(|h| h.secs)
        .collect();
    extra.insert("serve.handle_hit_us", median(&hits) * 1e6);
    for (name, opname) in [
        ("serve.handle_cold_ms.bound", "bound"),
        ("serve.handle_cold_ms.certificate", "certificate"),
        ("serve.handle_cold_ms.search", "search"),
        ("serve.handle_cold_ms.enumerate", "enumerate"),
        ("serve.handle_cold_ms.execute", "execute"),
    ] {
        let cold: Vec<f64> = traced
            .calls
            .iter()
            .filter(|h| h.cold && h.op == opname)
            .map(|h| h.secs)
            .collect();
        extra.insert(name, median(&cold) * 1e3);
    }
    extra.insert("serve.socket_rtt_us", median(&rtts));
    let (computes, lookups) = (rep.computes.unwrap_or(0), rep.lookups.unwrap_or(0));
    extra.insert("serve.singleflight_computes", computes as f64);
    extra.insert(
        "serve.memo_hit_ratio",
        lookups.saturating_sub(computes) as f64 / lookups.max(1) as f64,
    );
    let c = traced.engine.cache().stats();
    extra.insert("oracle.computes", c.oracle.computes as f64);
    extra.insert("oracle.hits", (c.oracle.lookups - c.oracle.computes) as f64);
    extra.insert(
        "scenario.cache_builds",
        (c.graph_builds + c.diameter_builds + c.group_builds + c.protocol_builds) as f64,
    );
    extra.insert(
        "scenario.cache_hits",
        (c.graph_hits + c.diameter_hits + c.group_hits + c.protocol_hits) as f64,
    );
    Traced {
        layers,
        traced_s,
        untraced_s,
        extra,
    }
}
