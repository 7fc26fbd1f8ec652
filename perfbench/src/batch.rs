//! The three batch workloads — `paper-audit`, `gossip-scale` and
//! `prove-optimum` — all driven through `sg_scenario::run_batch` with
//! default `BatchOptions` apart from the thread budget.
//!
//! An untraced run sets up several times (median reported), then runs
//! the batch repeatedly for the requested seconds and checks every
//! report. A traced run replays the same scenarios unit by unit through
//! [`crate::layers::Layers`], once with the tracer off and once on.

use crate::layers::{Layers, Traced};
use crate::report::{fnv1a, median, peak_rss_mib, percentile, Outcome};
use sg_bounds::pfun::Period;
use sg_delay::bound::BoundOpts;
use sg_delay::weighted::weighted_diameter_bound;
use sg_exec::{Crash, DriverConfig, FaultPlan};
use sg_graphs::WeightedDigraph;
use sg_protocol::mode::Mode;
use sg_protocol::protocol::SystolicProtocol;
use sg_scenario::tables::{family_row, family_specs};
use sg_scenario::{
    find, run_batch, BatchOptions, BatchReport, BuildCache, EnumerateSpec, Scenario, Task,
    WeightScheme,
};
use sg_search::{EnumerateConfig, SearchConfig};
use sg_sim::random::{ActivationModel, RandomizedConfig};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::Instant;
use systolic_gossip::{ceil_log2, to_json_line, Network, Row, Value};

/// `BatchOptions::default()`'s large-simulation threshold and round
/// budget, and the runner's sparse row budget: the replay gates units
/// exactly as `run_batch` does.
const LARGE_SIM_MIN_N: usize = 50_000;
const SIM_BUDGET: usize = 1_000_000;
const LARGE_SIM_MEM_LIMIT: usize = 6 << 30;

/// Seed whose answers are pinned exactly; other seeds are checked
/// against invariants.
pub const DEFAULT_SEED: u64 = 1997;

/// Set-up repetitions per untraced run (the median is reported).
const SETUP_REPS: usize = 11;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BatchKind {
    PaperAudit,
    GossipScale,
    ProveOptimum,
}

/// The 20 paper, validation and execute scenarios with n < 50 000.
const PAPER_AUDIT: &[&str] = &[
    "fig4",
    "fig5",
    "fig5-highdeg",
    "fig6",
    "fig8",
    "fig-matrices",
    "curves",
    "diameter-bounds",
    "diameter-bounds-weighted",
    "validate",
    "torus-sweep",
    "ccc-tour",
    "shuffle-exchange",
    "random-regular",
    "knodel-family",
    "zoo-bounds",
    "exec-conformance",
    "exec-lossy",
    "exec-delayed",
    "exec-crash",
];

/// Timing-free digest of the `paper-audit` rows.
const PAPER_AUDIT_DIGEST: u64 = 0x0b38_7db8_0197_6a73;
/// Timing-free digest of the `gossip-scale` rows at [`DEFAULT_SEED`].
const GOSSIP_SCALE_DIGEST: u64 = 0x643c_c1e8_4c9f_3bd2;
/// Timing-free digest of the `prove-optimum` rows.
const PROVE_OPTIMUM_DIGEST: u64 = 0xde9f_ddf9_8871_a2d9;
/// Exact gossip times of the two large units at [`DEFAULT_SEED`]:
/// W(16,10⁵) full-duplex and RR(50 000,3) half-duplex.
const KNODEL_LARGE_ROUNDS: i64 = 17;
const RR_LARGE_ROUNDS_DEFAULT_SEED: i64 = 92;

/// Pinned enumeration results: (scenario, network, s) → (optimal
/// rounds or −1 for infeasible, enumerated, pruned, memo hits).
const PROVEN: &[(&str, &str, i64, [i64; 4])] = &[
    ("enum-hypercube", "Q_3", 2, [4, 7, 6, 4]),
    ("enum-cycle", "C_8", 3, [5, 1, 7, 2]),
    ("enum-cycle-directed", "C_6", 2, [6, 72, 0, 22]),
    ("enum-cycle-directed", "C_6", 3, [7, 1860, 0, 1370]),
    ("enum-path-directed", "P_6", 3, [-1, 4004, 0, 3424]),
    ("enum-path-directed", "P_6", 4, [8, 80008, 0, 81809]),
    ("enum-knodel", "W(3,8)", 2, [4, 4, 9, 4]),
    ("enum-knodel", "W(3,8)", 3, [3, 0, 0, 0]),
    ("enum-torus-3x3", "Torus(3x3)", 2, [9, 121, 0, 9]),
    ("enum-torus-3x3", "Torus(3x3)", 3, [5, 2167, 6287, 3039]),
    ("enum-debruijn-directed", "DB->(2,3)", 2, [8, 580, 0, 93]),
    (
        "enum-debruijn-directed",
        "DB->(2,3)",
        3,
        [9, 19656, 0, 11234],
    ),
    ("enum-knodel-w416", "W(4,16)", 2, [8, 257676, 0, 23248]),
    ("prove-cycle8-hd", "C_8", 3, [10, 55352, 0, 45387]),
    ("prove-cycle8-hd", "C_8", 4, [7, 1772957, 3535811, 5243675]),
    ("prove-q4-fd", "Q_4", 2, [8, 11139, 0, 1142]),
];

fn scenarios(kind: BatchKind, seed: u64, threads: usize) -> Vec<Scenario> {
    let named = |names: &[&str]| -> Vec<Scenario> {
        names
            .iter()
            .map(|n| find(n).unwrap_or_else(|| panic!("registry scenario `{n}` is missing")))
            .collect()
    };
    match kind {
        BatchKind::PaperAudit => named(PAPER_AUDIT),
        BatchKind::GossipScale => {
            let mut v = vec![
                Scenario::new(
                    "gossip-knodel-large",
                    "Knödel W(16,10⁵) full-duplex through the sparse engine",
                    Task::Simulate,
                    Mode::FullDuplex,
                )
                .networks([Network::Knodel {
                    delta: 16,
                    n: 100_000,
                }]),
                Scenario::new(
                    "gossip-rr-large",
                    "Random 3-regular graph, n = 50 000, half-duplex, seeded by the workload",
                    Task::Simulate,
                    Mode::HalfDuplex,
                )
                .networks([Network::RandomRegular {
                    n: 50_000,
                    d: 3,
                    seed,
                }]),
            ];
            v.extend(named(&["rand-cycle", "rand-hypercube", "rand-knodel"]));
            v
        }
        BatchKind::ProveOptimum => {
            let mut v: Vec<Scenario> = sg_scenario::registry()
                .into_iter()
                .filter(|s| s.name.starts_with("enum-") || s.name.starts_with("search-"))
                .collect();
            let spec = EnumerateSpec { threads };
            v.push(
                Scenario::new(
                    "prove-cycle8-hd",
                    "C_8 half-duplex at s = 3, 4 — proven 10 and 7",
                    Task::Enumerate,
                    Mode::HalfDuplex,
                )
                .networks([Network::Cycle { n: 8 }])
                .periods([Period::Systolic(3), Period::Systolic(4)])
                .enumerate_spec(spec),
            );
            v.push(
                Scenario::new(
                    "prove-q4-fd",
                    "Q_4 full-duplex at s = 2 — proven 8",
                    Task::Enumerate,
                    Mode::FullDuplex,
                )
                .networks([Network::Hypercube { k: 4 }])
                .periods([Period::Systolic(2)])
                .enumerate_spec(spec),
            );
            v
        }
    }
}

/// (scenario, network name) → the network and the protocol its unit runs.
type UnitProtocols = HashMap<(String, String), (Network, Option<Arc<SystolicProtocol>>)>;

/// What set-up builds: the scenarios, and through one `BuildCache` the
/// graphs and protocols the correctness checks replay against.
struct Setup {
    scenarios: Vec<Scenario>,
    cache: BuildCache,
    /// (scenario, network name) → (network, protocol) for every unit a
    /// check replays.
    protocols: UnitProtocols,
    /// (scenario, network name, period or 0) → exact gossip-time floor:
    /// `max(diameter, ⌈lg n⌉)`, and at a period also the oracle's exact
    /// floor there.
    floors: HashMap<(String, String, i64), i64>,
}

fn setup(kind: BatchKind, seed: u64, threads: usize) -> Setup {
    let scenarios = scenarios(kind, seed, threads);
    let cache = BuildCache::new();
    let mut protocols = HashMap::new();
    let mut floors = HashMap::new();
    for sc in &scenarios {
        for net in &sc.networks {
            let g = cache.digraph(net);
            let n = g.vertex_count();
            if kind != BatchKind::PaperAudit {
                let diameter = if n >= LARGE_SIM_MIN_N {
                    // All-pairs is Ω(n·m) here: one BFS eccentricity is a
                    // lower bound on the diameter and costs O(m).
                    sg_graphs::traversal::eccentricity(&g, 0)
                } else {
                    cache.diameter(net)
                };
                let base = i64::from(diameter.unwrap_or(0)).max(ceil_log2(n) as i64);
                let key = |s: i64| (sc.name.to_string(), net.name(), s);
                floors.insert(key(0), base);
                // Proofs and searches are also held to the oracle's
                // strongest exact floor at each period they settle.
                if matches!(sc.task, Task::Enumerate | Task::Search) {
                    for &p in &sc.periods {
                        let Period::Systolic(s) = p else { continue };
                        let ob = cache.oracle().bounds_on(net, &g, diameter, sc.mode, p);
                        floors.insert(key(s as i64), base.max(ob.floor_rounds as i64));
                    }
                    cache.perm_group(net);
                }
            }
            if matches!(sc.task, Task::Simulate | Task::Compare) && n < LARGE_SIM_MIN_N {
                let sp = cache.protocol(net, sc.mode).map(|(_, sp)| sp);
                protocols.insert((sc.name.to_string(), net.name()), (*net, sp));
            }
        }
    }
    Setup {
        scenarios,
        cache,
        protocols,
        floors,
    }
}

fn field<'a>(row: &'a Row, key: &str) -> Option<&'a Value> {
    row.get(key)
}

fn int(row: &Row, key: &str) -> Option<i64> {
    match field(row, key) {
        Some(Value::Int(v)) => Some(*v),
        _ => None,
    }
}

fn float(row: &Row, key: &str) -> Option<f64> {
    match field(row, key) {
        Some(Value::Float(v)) => Some(*v),
        Some(Value::Int(v)) => Some(*v as f64),
        _ => None,
    }
}

fn text<'a>(row: &'a Row, key: &str) -> &'a str {
    match field(row, key) {
        Some(Value::Text(t)) => t,
        _ => "",
    }
}

/// Digest of every row with its timing fields removed.
fn digest(report: &BatchReport) -> u64 {
    let mut all = String::new();
    for row in report.tagged_rows() {
        let mut r = row.clone();
        r.fields.retain(|(k, _)| k != "elapsed_ms");
        all.push_str(&to_json_line(&r));
        all.push('\n');
    }
    fnv1a(all.as_bytes())
}

/// Checks one batch report; every check is one attempted operation.
fn check_report(
    kind: BatchKind,
    report: &BatchReport,
    st: &Setup,
    seed: u64,
    expected_times: &mut HashMap<(String, String), Option<usize>>,
    out: &mut Outcome,
) {
    let pinned = kind != BatchKind::GossipScale || seed == DEFAULT_SEED;
    let d = digest(report);
    println!("rows digest {d:#018x}");
    let want = match kind {
        BatchKind::PaperAudit => PAPER_AUDIT_DIGEST,
        BatchKind::GossipScale => GOSSIP_SCALE_DIGEST,
        BatchKind::ProveOptimum => PROVE_OPTIMUM_DIGEST,
    };
    if pinned {
        out.check(d == want, || {
            format!("{kind:?}: rows digest {d:#018x}, pinned {want:#018x}")
        });
    }
    out.check(report.checks_ok(), || {
        format!("{kind:?}: a paper check mismatched")
    });
    for o in &report.outcomes {
        for row in &o.rows {
            let net = text(row, "network").to_string();
            let key = (o.name.clone(), net.clone());
            let floor_at = |s: i64| {
                let k = (o.name.clone(), net.clone(), s);
                st.floors.get(&k).copied().unwrap_or(0)
            };
            match text(row, "kind") {
                "audit" => {
                    out.check(field(row, "sound") == Some(&Value::Bool(true)), || {
                        format!("{}: audit of {net} is not sound", o.name)
                    });
                    // Re-derive the measured gossip time through the
                    // dense engine on the protocol set-up built.
                    let want = expected_times.entry(key.clone()).or_insert_with(|| {
                        let (net, sp) = &st.protocols[&key];
                        let g = st.cache.digraph(net);
                        let n = g.vertex_count();
                        sp.as_ref()
                            .filter(|sp| sp.validate(&g).is_ok())
                            .and_then(|sp| sg_sim::systolic_gossip_time(sp, n, SIM_BUDGET))
                    });
                    let got = int(row, "measured_rounds").map(|t| t as usize);
                    out.check(got == *want, || {
                        format!("{}: {net} measured {got:?}, dense replay {want:?}", o.name)
                    });
                }
                "large-sim" => {
                    let got = int(row, "measured_rounds");
                    let floor = floor_at(0);
                    let exact = if net.starts_with("W(") {
                        Some(KNODEL_LARGE_ROUNDS)
                    } else if seed == DEFAULT_SEED {
                        Some(RR_LARGE_ROUNDS_DEFAULT_SEED)
                    } else {
                        None
                    };
                    let ok = text(row, "verdict") == "completed"
                        && got.is_some_and(|t| t >= floor)
                        && exact.is_none_or(|e| got == Some(e));
                    out.check(ok, || {
                        format!(
                            "{}: {net} {} at {got:?} rounds (floor {floor}, pinned {exact:?})",
                            o.name,
                            text(row, "verdict")
                        )
                    });
                }
                "randomized" => {
                    let lower = floor_at(0) as f64;
                    let mean = float(row, "mean_rounds");
                    let ok = text(row, "verdict") == "completed"
                        && mean.is_some_and(|m| m + 1e-9 >= lower);
                    out.check(ok, || {
                        format!(
                            "{}: {net} {} mean {mean:?} vs floor {lower}",
                            o.name,
                            text(row, "model")
                        )
                    });
                }
                "enumerate" => {
                    let s = int(row, "s").unwrap_or(0);
                    let got = [
                        int(row, "optimal_rounds").unwrap_or(-1),
                        int(row, "enumerated").unwrap_or(-1),
                        int(row, "pruned").unwrap_or(-1),
                        int(row, "memo_hits").unwrap_or(-1),
                    ];
                    let pin = PROVEN
                        .iter()
                        .find(|p| p.0 == o.name && p.1 == net && p.2 == s)
                        .map(|p| p.3);
                    let verdict = text(row, "verdict");
                    let floor = floor_at(s);
                    let ok = pin == Some(got)
                        && (got[0] < 0 || got[0] >= floor)
                        && (verdict == "proven-optimal" || verdict == "infeasible");
                    out.check(ok, || {
                        format!(
                            "{}: {net} s = {s} got {got:?} ({verdict}), pinned {pin:?}, \
                             floor {floor}",
                            o.name
                        )
                    });
                }
                "search" => {
                    let found = int(row, "found_rounds");
                    let floor = floor_at(int(row, "s").unwrap_or(0));
                    out.check(found.is_some_and(|t| t >= floor), || {
                        format!(
                            "{}: {net} search found {found:?} under floor {floor}",
                            o.name
                        )
                    });
                }
                "execute" if text(row, "plan") == "fault-free" => {
                    out.check(text(row, "verdict") == "conformant", || {
                        format!("{}: {net} fault-free execution not conformant", o.name)
                    });
                }
                _ => {}
            }
        }
    }
}

/// Witness replay for `prove-optimum`: every enumeration is run again
/// through `enumerate_with_group`, its witness validated on the graph
/// and re-simulated by `systolic_gossip_time`, and its value and
/// counters compared with the batch rows.
fn check_witnesses(st: &Setup, report: &BatchReport, threads: usize, out: &mut Outcome) {
    for (sc, o) in st.scenarios.iter().zip(&report.outcomes) {
        if sc.task != Task::Enumerate {
            continue;
        }
        for net in &sc.networks {
            let g = st.cache.digraph(net);
            let diameter = st.cache.diameter(net);
            let group = st.cache.perm_group(net);
            for p in &sc.periods {
                let Period::Systolic(s) = *p else { continue };
                let cfg = EnumerateConfig::default().exact_period(s).threads(threads);
                let e = sg_search::enumerate_with_group(
                    st.cache.oracle(),
                    net,
                    &g,
                    diameter,
                    sc.mode,
                    &group,
                    &cfg,
                );
                let row = o
                    .rows
                    .iter()
                    .find(|r| text(r, "network") == net.name() && int(r, "s") == Some(s as i64));
                let same = row.is_some_and(|r| {
                    int(r, "optimal_rounds") == e.best_rounds.map(|t| t as i64)
                        && int(r, "enumerated") == Some(e.enumerated as i64)
                        && int(r, "pruned") == Some(e.pruned as i64)
                        && int(r, "memo_hits") == Some(e.memo_hits as i64)
                });
                let replay_ok = match (&e.best, e.best_rounds) {
                    (Some(w), Some(t)) => {
                        w.validate(&g).is_ok()
                            && sg_sim::systolic_gossip_time(w, g.vertex_count(), SIM_BUDGET)
                                == Some(t)
                    }
                    (None, None) => e.proven_infeasible,
                    _ => false,
                };
                out.check(same && replay_ok, || {
                    format!(
                        "{}: {} s = {s}: witness replay {replay_ok}, rows agree {same}",
                        sc.name,
                        net.name()
                    )
                });
            }
        }
    }
}

/// One untraced run: set-up ×[`SETUP_REPS`], then the batch repeated
/// for `seconds`.
pub fn run(kind: BatchKind, seed: u64, seconds: f64, threads: usize, out: &mut Outcome) {
    let mut setup_s = Vec::new();
    let mut st = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let s = setup(kind, seed, threads);
        setup_s.push(t.elapsed().as_secs_f64());
        st = Some(s);
    }
    let st = st.expect("at least one set-up");
    let opts = BatchOptions {
        threads,
        ..BatchOptions::default()
    };
    let mut expected_times = HashMap::new();
    let mut walls = Vec::new();
    let mut peak_rss = f64::NAN;
    let started = Instant::now();
    let report = loop {
        let t = Instant::now();
        let report = run_batch(&st.scenarios, &opts);
        let wall = t.elapsed().as_secs_f64();
        walls.push(wall);
        println!("rep {}: wall {wall:.4} s", walls.len());
        check_report(kind, &report, &st, seed, &mut expected_times, out);
        if walls.len() == 1 {
            // The high-water mark only grows: read it after the first
            // batch so it does not depend on how many batches fit.
            peak_rss = peak_rss_mib("self");
        }
        if started.elapsed().as_secs_f64() + median(&walls) > seconds {
            break report;
        }
    };
    if kind == BatchKind::ProveOptimum {
        check_witnesses(&st, &report, threads, out);
    }
    let c = report.cache;
    println!(
        "cache: graphs {}/{} diameters {}/{} delay {}/{} groups {}/{} protocols {}/{} (built/hit)",
        c.graph_builds,
        c.graph_hits,
        c.diameter_builds,
        c.diameter_hits,
        c.delay_builds,
        c.delay_hits,
        c.group_builds,
        c.group_hits,
        c.protocol_builds,
        c.protocol_hits
    );
    let total: f64 = walls.iter().sum();
    println!(
        "samples: {} set-ups, {} batches",
        setup_s.len(),
        walls.len()
    );
    out.metric("setup_s", median(&setup_s), "s");
    out.metric("wall_s", median(&walls), "s");
    out.metric("peak_rss_mib", peak_rss, "MiB");
    out.metric("queries_per_s", walls.len() as f64 / total, "1/s");
    out.metric("query_p50_ms", median(&walls) * 1e3, "ms");
    out.metric("query_p99_ms", percentile(&walls, 99.0) * 1e3, "ms");
}

/// Stable per-network seed, the runner's recipe for compare units'
/// greedy schedules.
fn net_seed(net: &Network) -> u64 {
    fnv1a(net.name().as_bytes()) ^ 1997
}

/// Replays one scenario unit by unit through the traced layer calls,
/// following `run_batch`'s per-task unit logic at one thread per unit
/// (the split `run_batch` makes when units outnumber the budget).
fn replay_scenario(
    sc: &Scenario,
    cache: &BuildCache,
    l: &Layers,
    budget: usize,
    out: &mut Outcome,
) {
    let opts = BoundOpts::default();
    let oracle = cache.oracle();
    let periods: Vec<usize> = sc
        .periods
        .iter()
        .filter_map(|p| match p {
            Period::Systolic(s) => Some(*s),
            Period::NonSystolic => None,
        })
        .collect();
    if sc.task == Task::Bound
        && !sc.periods.is_empty()
        && (!sc.degrees.is_empty() || sc.networks.is_empty())
    {
        for spec in family_specs(sc.mode, &sc.degrees) {
            l.tr.span("bounds.family_row", || {
                family_row(&spec, sc.mode, &sc.periods, oracle)
            });
        }
    }
    if !sc.checks.is_empty() {
        l.tr.span("bounds.paper_checks", || {
            for c in &sc.checks {
                std::hint::black_box((c.compute)());
            }
        });
    }
    for net in &sc.networks {
        let hinted_large = net.order_hint().filter(|&n| n >= LARGE_SIM_MIN_N);
        match sc.task {
            Task::Bound => {
                let g = l.digraph(cache, net);
                let d = l.diameter(cache, net);
                for &p in &sc.periods {
                    l.bounds_on(oracle, net, &g, d, sc.mode, p);
                }
            }
            Task::Simulate => {
                let n = match hinted_large {
                    Some(n) => n,
                    None => l.digraph(cache, net).vertex_count(),
                };
                if n >= LARGE_SIM_MIN_N {
                    if matches!(net, Network::RandomRegular { .. })
                        && (n / 8).saturating_mul(n) > LARGE_SIM_MEM_LIMIT
                    {
                        continue;
                    }
                    let Some(sp) = l.reference_protocol(net) else {
                        continue;
                    };
                    if sc.mode == Mode::FullDuplex && sp.mode() != Mode::FullDuplex {
                        continue;
                    }
                    let o = l.sparse(&sp, n, SIM_BUDGET, Some(LARGE_SIM_MEM_LIMIT));
                    out.check(o.result.completed_at.is_some(), || {
                        format!("replay {}: {} did not complete", sc.name, net.name())
                    });
                    continue;
                }
                let g = l.digraph(cache, net);
                let Some((kind, sp)) = l.protocol(cache, net, sc.mode) else {
                    continue;
                };
                if sp.validate(&g).is_err() {
                    continue;
                }
                let dg = l.delay_digraph(cache, net, kind, &sp);
                let d = l.diameter(cache, net);
                l.bounds_on(oracle, net, &g, d, sp.mode(), Period::Systolic(sp.s()));
                let t = l.dense(&sp, n, SIM_BUDGET);
                let b = l.thm41(&dg, n, opts);
                out.check(sound(t, b.map(|b| b.rounds)), || {
                    format!("replay {}: {} Thm 4.1 above measured", sc.name, net.name())
                });
            }
            Task::Compare => {
                if hinted_large.is_some() {
                    continue;
                }
                let g = l.digraph(cache, net);
                let n = g.vertex_count();
                if n >= LARGE_SIM_MIN_N {
                    continue;
                }
                match l.protocol(cache, net, sc.mode) {
                    Some((kind, sp)) => {
                        let dg = l.delay_digraph(cache, net, kind, &sp);
                        let t = if sp.validate(&g).is_ok() {
                            l.dense(&sp, n, SIM_BUDGET)
                        } else {
                            None
                        };
                        let b = l.thm41(&dg, n, opts);
                        out.check(sound(t, b.map(|b| b.rounds)), || {
                            format!("replay {}: {} Thm 4.1 above measured", sc.name, net.name())
                        });
                        if !net.is_directed() {
                            let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(
                                net_seed(net),
                            );
                            l.tr.span("sim.greedy", || {
                                sg_sim::greedy_gossip(&g, Mode::HalfDuplex, 200 * n, &mut rng)
                            });
                            l.diameter(cache, net);
                        }
                    }
                    None => {
                        let wg = match sc.weights {
                            WeightScheme::Unit => WeightedDigraph::unit_weights(&g),
                            WeightScheme::ParityOneThree => WeightedDigraph::from_arcs(
                                n,
                                g.arcs().map(|a| {
                                    let w = if a.to % 2 == 0 { 1 } else { 3 };
                                    (a.from as usize, a.to as usize, w)
                                }),
                            ),
                        };
                        l.tr.span("delay.weighted", || weighted_diameter_bound(&wg, opts));
                        l.tr.span("graphs.weighted_diameter", || wg.diameter());
                    }
                }
                if let Some(sep) = net.concrete_separator() {
                    l.tr.span("graphs.separator", || sep.measured_distance(&g));
                }
            }
            Task::Matrices => {}
            Task::Search => {
                let g = l.digraph(cache, net);
                let d = l.diameter(cache, net);
                for &s in &periods {
                    let cfg = SearchConfig {
                        min_period: s,
                        max_period: s,
                        restarts: sc.search.restarts,
                        iterations: sc.search.iterations,
                        seed: sc.search.seed,
                        threads: 1,
                        ..Default::default()
                    };
                    l.search(oracle, net, &g, d, sc.mode, &cfg);
                }
            }
            Task::Enumerate => {
                let g = l.digraph(cache, net);
                let d = l.diameter(cache, net);
                let group = l.perm_group(cache, net);
                for &s in &periods {
                    let run = |t: usize, baseline: bool| {
                        let cfg = EnumerateConfig::default().exact_period(s).threads(t);
                        l.enumerate(oracle, net, &g, d, sc.mode, &group, &cfg, baseline)
                    };
                    let one = run(1, true);
                    let two = run(budget.max(2), false);
                    let same = (one.best_rounds, one.enumerated, one.pruned, one.memo_hits)
                        == (two.best_rounds, two.enumerated, two.pruned, two.memo_hits);
                    let witness = match (&two.best, two.best_rounds) {
                        (Some(w), Some(t)) => l.dense(w, g.vertex_count(), SIM_BUDGET) == Some(t),
                        (None, None) => two.proven_infeasible,
                        _ => false,
                    };
                    out.check(same && witness, || {
                        format!(
                            "replay {}: {} s = {s}: 1- vs 2-thread counters equal {same}, \
                             witness replay {witness}",
                            sc.name,
                            net.name()
                        )
                    });
                }
            }
            Task::Execute => {
                if hinted_large.is_some() {
                    continue;
                }
                let g = l.digraph(cache, net);
                let n = g.vertex_count();
                let Some((_, sp)) = l.protocol(cache, net, sc.mode) else {
                    continue;
                };
                if n >= LARGE_SIM_MIN_N || sp.validate(&g).is_err() {
                    continue;
                }
                let optimum = l.dense(&sp, n, SIM_BUDGET);
                let spec = &sc.exec;
                let max_rounds = optimum.map_or(40 * n + 200, |t| 40 * t + 200).max(
                    spec.crashes.iter().filter_map(|c| c.2).max().unwrap_or(0) as usize + 40 * n,
                ) as u64;
                let cfg = DriverConfig {
                    threads: 1,
                    max_rounds,
                    record_events: false,
                };
                let clean = l.execute(&sp, n, FaultPlan::fault_free(), cfg);
                out.check(clean.completed_at == optimum.map(|t| t as u64), || {
                    format!(
                        "replay {}: {} fault-free execution diverged",
                        sc.name,
                        net.name()
                    )
                });
                let plan = FaultPlan {
                    seed: spec.seed,
                    drop_prob: spec.drop_prob,
                    max_delay: spec.max_delay,
                    crashes: spec
                        .crashes
                        .iter()
                        .map(|&(node, at_round, restart_round)| Crash {
                            node,
                            at_round,
                            restart_round,
                        })
                        .collect(),
                };
                if !plan.is_fault_free() {
                    l.execute(&sp, n, plan, cfg);
                }
            }
            Task::Randomized => {
                if net.is_directed() {
                    continue;
                }
                let g = l.digraph(cache, net);
                let n = g.vertex_count();
                if n >= LARGE_SIM_MIN_N && (n / 8).saturating_mul(n) > LARGE_SIM_MEM_LIMIT {
                    continue;
                }
                let mut floor = ceil_log2(n) as f64;
                if n < LARGE_SIM_MIN_N {
                    if let Some((_, sp)) = l.protocol(cache, net, sc.mode) {
                        if sp.validate(&g).is_ok() {
                            l.dense(&sp, n, SIM_BUDGET);
                            let d = l.diameter(cache, net);
                            let ob = l.bounds_on(
                                oracle,
                                net,
                                &g,
                                d,
                                sp.mode(),
                                Period::Systolic(sp.s()),
                            );
                            floor = ob.report.best_rounds;
                        }
                    }
                }
                for model in ActivationModel::ALL {
                    let cfg = RandomizedConfig {
                        model,
                        trials: sc.randomized.trials,
                        seed: sc.randomized.seed,
                        max_rounds: SIM_BUDGET,
                        threads: 1,
                        mem_limit: Some(LARGE_SIM_MEM_LIMIT),
                    };
                    let trials = l.randomized(&g, &cfg);
                    let ok = trials
                        .iter()
                        .all(|t| t.completed_at.is_some_and(|c| c as f64 + 1e-9 >= floor));
                    out.check(ok, || {
                        format!(
                            "replay {}: {} {model:?} trial under floor",
                            sc.name,
                            net.name()
                        )
                    });
                }
            }
        }
    }
}

/// Measured gossip time `t` against a Theorem 4.1 bound `b`.
fn sound(t: Option<usize>, b: Option<f64>) -> bool {
    match (t, b) {
        (Some(t), Some(b)) => b <= t as f64 + 1e-9,
        _ => true,
    }
}

/// Replays every scenario once; returns the wall and the slowest
/// scenario.
fn replay(st: &Setup, l: &Layers, budget: usize, out: &mut Outcome) -> (f64, f64, BuildCache) {
    let cache = BuildCache::new();
    let started = Instant::now();
    let mut slowest: f64 = 0.0;
    for (i, sc) in st.scenarios.iter().enumerate() {
        l.tr.set_unit(i as u64);
        let t = Instant::now();
        replay_scenario(sc, &cache, l, budget, out);
        slowest = slowest.max(t.elapsed().as_secs_f64());
    }
    (started.elapsed().as_secs_f64(), slowest, cache)
}

/// One traced run: the replay with the tracer off, then on. Returns the
/// traced layers, both walls and the workload's extra per-layer values.
pub fn run_traced(kind: BatchKind, seed: u64, threads: usize, out: &mut Outcome) -> Traced {
    let st = setup(kind, seed, threads);
    let mut scratch = Outcome::default();
    let (untraced_s, _, _) = replay(&st, &Layers::new(false), threads, &mut scratch);
    let layers = Layers::new(true);
    let (traced_s, slowest, cache) = replay(&st, &layers, threads, out);
    let c = cache.stats();
    let mut extra = BTreeMap::new();
    extra.insert("scenario.scenario_max_s", slowest);
    extra.insert(
        "scenario.cache_builds",
        (c.graph_builds + c.diameter_builds + c.delay_builds + c.group_builds + c.protocol_builds)
            as f64,
    );
    extra.insert(
        "scenario.cache_hits",
        (c.graph_hits + c.diameter_hits + c.delay_hits + c.group_hits + c.protocol_hits) as f64,
    );
    extra.insert("oracle.computes", c.oracle.computes as f64);
    extra.insert("oracle.hits", (c.oracle.lookups - c.oracle.computes) as f64);
    Traced {
        layers,
        traced_s,
        untraced_s,
        extra,
    }
}
