//! Traced calls into each layer's public functions, plus the counters
//! the per-layer metrics are built from.
//!
//! Every replay goes through these wrappers, so a span name always means
//! the same public function:
//!
//! | span | call |
//! |---|---|
//! | `graphs.build` | `BuildCache::digraph` |
//! | `graphs.diameter` | `BuildCache::diameter` |
//! | `graphs.aut_group` | `BuildCache::perm_group` |
//! | `protocol.build` | `BuildCache::protocol`, `Network::reference_protocol` |
//! | `delay.digraph` | `DelayDigraph::periodic` |
//! | `delay.thm41` | `theorem_4_1_bound_from_digraph` |
//! | `oracle.bounds` | `BoundOracle::bounds_on` |
//! | `sim.dense` | `sg_sim::systolic_gossip_time` |
//! | `sim.sparse` | `run_systolic_sparse_with_limit` |
//! | `sim.random` | `run_randomized` |
//! | `search.enumerate` | `enumerate_with_group` at the workload's thread count |
//! | `search.enumerate.t1` | the same enumeration again at 1 thread (prove-optimum) |
//! | `search.anneal` | `search_with_oracle` |
//! | `exec.run` | `execute_protocol` |
//! | `serve.parse` / `serve.handle` / `serve.encode` | `Request::parse` / `QueryEngine::handle` / `to_json_line` |

use crate::report::Outcome;
use crate::trace::{self, Tracer};
use sg_bounds::pfun::Period;
use sg_delay::bound::{theorem_4_1_bound_from_digraph, BoundOpts, ProtocolBound};
use sg_delay::digraph::DelayDigraph;
use sg_exec::{execute_protocol, DriverConfig, FaultPlan, RunReport};
use sg_graphs::{Digraph, PermGroup};
use sg_protocol::mode::Mode;
use sg_protocol::protocol::SystolicProtocol;
use sg_scenario::{BuildCache, ProtocolKind};
use sg_search::{
    enumerate_with_group, search_with_oracle, EnumerateConfig, EnumerateOutcome, SearchConfig,
    SearchOutcome,
};
use sg_sim::random::{run_randomized, RandomizedConfig, TrialResult};
use sg_sim::sparse::{run_systolic_sparse_with_limit, SparseOutcome};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::Arc;
use systolic_gossip::{BoundOracle, Network, OracleBounds};

/// Every per-layer metric a traced run reports, with its unit. Layers a
/// workload never calls report 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("delay.thm41_s", "s"),
    ("delay.thm41_max_s", "s"),
    ("delay.thm41_calls", "count"),
    ("delay.digraph_s", "s"),
    ("graphs.build_s", "s"),
    ("graphs.diameter_s", "s"),
    ("graphs.aut_group_s", "s"),
    ("protocol.build_s", "s"),
    ("oracle.bounds_s", "s"),
    ("oracle.computes", "count"),
    ("oracle.hits", "count"),
    ("sim.sparse_s", "s"),
    ("sim.sparse_rounds", "count"),
    ("sim.sparse_state_peak_mib", "MiB"),
    ("sim.random_s", "s"),
    ("sim.random_trials", "count"),
    ("sim.dense_s", "s"),
    ("sim.dense_words_per_round", "words"),
    ("sim.dense_gbps", "GB/s"),
    ("machine.copy_gbps", "GB/s"),
    ("search.enumerate_s", "s"),
    ("search.enumerated", "count"),
    ("search.pruned", "count"),
    ("search.memo_hits", "count"),
    ("search.speedup_2v1", "x"),
    ("search.anneal_s", "s"),
    ("search.evaluations", "count"),
    ("exec.run_s", "s"),
    ("exec.messages", "count"),
    ("exec.retransmissions", "count"),
    ("scenario.scenario_max_s", "s"),
    ("scenario.cache_builds", "count"),
    ("scenario.cache_hits", "count"),
    ("serve.parse_us", "us"),
    ("serve.handle_hit_us", "us"),
    ("serve.handle_cold_ms.bound", "ms"),
    ("serve.handle_cold_ms.certificate", "ms"),
    ("serve.handle_cold_ms.search", "ms"),
    ("serve.handle_cold_ms.enumerate", "ms"),
    ("serve.handle_cold_ms.execute", "ms"),
    ("serve.encode_us", "us"),
    ("serve.socket_rtt_us", "us"),
    ("serve.singleflight_computes", "count"),
    ("serve.memo_hit_ratio", "ratio"),
    ("trace.coverage", "ratio"),
    ("trace.overhead", "ratio"),
];

/// Span totals that map directly onto a `*_s` metric (self time).
const SELF_TIME: &[(&str, &str)] = &[
    ("delay.thm41", "delay.thm41_s"),
    ("delay.digraph", "delay.digraph_s"),
    ("graphs.build", "graphs.build_s"),
    ("graphs.diameter", "graphs.diameter_s"),
    ("graphs.aut_group", "graphs.aut_group_s"),
    ("protocol.build", "protocol.build_s"),
    ("oracle.bounds", "oracle.bounds_s"),
    ("sim.sparse", "sim.sparse_s"),
    ("sim.random", "sim.random_s"),
    ("sim.dense", "sim.dense_s"),
    ("search.enumerate", "search.enumerate_s"),
    ("search.anneal", "search.anneal_s"),
    ("exec.run", "exec.run_s"),
];

/// What a traced replay hands back to the report.
pub struct Traced {
    pub layers: Layers,
    pub traced_s: f64,
    pub untraced_s: f64,
    pub extra: BTreeMap<&'static str, f64>,
}

/// The tracer plus the work counters the layers report back.
pub struct Layers {
    pub tr: Tracer,
    counts: RefCell<BTreeMap<&'static str, f64>>,
}

impl Layers {
    pub fn new(enabled: bool) -> Self {
        Self {
            tr: Tracer::new(enabled),
            counts: RefCell::new(BTreeMap::new()),
        }
    }

    pub fn add(&self, name: &'static str, v: f64) {
        *self.counts.borrow_mut().entry(name).or_default() += v;
    }

    pub fn max(&self, name: &'static str, v: f64) {
        let mut c = self.counts.borrow_mut();
        let e = c.entry(name).or_default();
        *e = e.max(v);
    }

    pub fn count(&self, name: &str) -> f64 {
        self.counts.borrow().get(name).copied().unwrap_or(0.0)
    }

    pub fn digraph(&self, cache: &BuildCache, net: &Network) -> Arc<Digraph> {
        self.tr.span("graphs.build", || cache.digraph(net))
    }

    pub fn diameter(&self, cache: &BuildCache, net: &Network) -> Option<u32> {
        self.tr.span("graphs.diameter", || cache.diameter(net))
    }

    pub fn perm_group(&self, cache: &BuildCache, net: &Network) -> Arc<PermGroup> {
        self.tr.span("graphs.aut_group", || cache.perm_group(net))
    }

    pub fn protocol(
        &self,
        cache: &BuildCache,
        net: &Network,
        mode: Mode,
    ) -> Option<(ProtocolKind, Arc<SystolicProtocol>)> {
        self.tr.span("protocol.build", || cache.protocol(net, mode))
    }

    pub fn reference_protocol(&self, net: &Network) -> Option<SystolicProtocol> {
        self.tr.span("protocol.build", || net.reference_protocol())
    }

    pub fn delay_digraph(
        &self,
        cache: &BuildCache,
        net: &Network,
        kind: ProtocolKind,
        sp: &SystolicProtocol,
    ) -> Arc<DelayDigraph> {
        cache.delay_digraph(net, kind, || {
            self.tr.span("delay.digraph", || DelayDigraph::periodic(sp))
        })
    }

    pub fn thm41(&self, dg: &DelayDigraph, n: usize, opts: BoundOpts) -> Option<ProtocolBound> {
        self.tr.span("delay.thm41", || {
            theorem_4_1_bound_from_digraph(dg, n, opts)
        })
    }

    pub fn bounds_on(
        &self,
        oracle: &BoundOracle,
        net: &Network,
        g: &Digraph,
        diameter: Option<u32>,
        mode: Mode,
        period: Period,
    ) -> Arc<OracleBounds> {
        self.tr.span("oracle.bounds", || {
            oracle.bounds_on(net, g, diameter, mode, period)
        })
    }

    /// The dense compiled engine. Counts the words it moves: each arc of
    /// a round reads its source row and reads and writes its target row,
    /// `3·⌈n/64⌉` words per arc.
    pub fn dense(&self, sp: &SystolicProtocol, n: usize, max_rounds: usize) -> Option<usize> {
        let t = self.tr.span("sim.dense", || {
            sg_sim::systolic_gossip_time(sp, n, max_rounds)
        });
        let rounds = t.unwrap_or(max_rounds);
        let period = sp.period();
        let row_words = n.div_ceil(64);
        let words: usize = (0..rounds)
            .map(|r| period[r % period.len()].len() * 3 * row_words)
            .sum();
        self.add("dense.words", words as f64);
        self.add("dense.rounds", rounds as f64);
        t
    }

    pub fn sparse(
        &self,
        sp: &SystolicProtocol,
        n: usize,
        max_rounds: usize,
        mem_limit: Option<usize>,
    ) -> SparseOutcome {
        let out = self.tr.span("sim.sparse", || {
            run_systolic_sparse_with_limit(sp, n, max_rounds, true, mem_limit)
        });
        self.add("sim.sparse_rounds", out.rounds_run as f64);
        self.max(
            "sim.sparse_state_peak_mib",
            out.peak_bytes as f64 / (1u64 << 20) as f64,
        );
        out
    }

    pub fn randomized(&self, g: &Digraph, cfg: &RandomizedConfig) -> Vec<TrialResult> {
        let out = self.tr.span("sim.random", || run_randomized(g, cfg));
        self.add("sim.random_trials", out.len() as f64);
        out
    }

    /// `enumerate_with_group` at `cfg.threads` threads. A `baseline` call
    /// is the extra 1-thread replay `search.speedup_2v1` divides by: it
    /// feeds neither `search.enumerate_s` nor the work counters.
    #[allow(clippy::too_many_arguments)]
    pub fn enumerate(
        &self,
        oracle: &BoundOracle,
        net: &Network,
        g: &Digraph,
        diameter: Option<u32>,
        mode: Mode,
        group: &PermGroup,
        cfg: &EnumerateConfig,
        baseline: bool,
    ) -> EnumerateOutcome {
        let name = if baseline {
            "search.enumerate.t1"
        } else {
            "search.enumerate"
        };
        let out = self.tr.span(name, || {
            enumerate_with_group(oracle, net, g, diameter, mode, group, cfg)
        });
        if !baseline {
            self.add("search.enumerated", out.enumerated as f64);
            self.add("search.pruned", out.pruned as f64);
            self.add("search.memo_hits", out.memo_hits as f64);
        }
        out
    }

    pub fn search(
        &self,
        oracle: &BoundOracle,
        net: &Network,
        g: &Digraph,
        diameter: Option<u32>,
        mode: Mode,
        cfg: &SearchConfig,
    ) -> SearchOutcome {
        let out = self.tr.span("search.anneal", || {
            search_with_oracle(oracle, net, g, diameter, mode, cfg)
        });
        self.add("search.evaluations", out.evaluations as f64);
        out
    }

    pub fn execute(
        &self,
        sp: &SystolicProtocol,
        n: usize,
        plan: FaultPlan,
        cfg: DriverConfig,
    ) -> RunReport {
        let out = self
            .tr
            .span("exec.run", || execute_protocol(sp, n, plan, cfg));
        self.add("exec.messages", (out.gossip_sent + out.acks_sent) as f64);
        self.add("exec.retransmissions", out.retransmissions as f64);
        out
    }

    /// Fills every per-layer metric of `out` from this replay's spans and
    /// counters. `traced_s` / `untraced_s` are the replay's wall with the
    /// tracer on and off; `extra` holds workload-specific values.
    pub fn report(
        &self,
        out: &mut Outcome,
        traced_s: f64,
        untraced_s: f64,
        extra: &BTreeMap<&'static str, f64>,
    ) {
        let spans = self.tr.spans();
        let totals = trace::totals(&spans);
        let mut values: BTreeMap<&str, f64> = BTreeMap::new();
        for &(span, metric) in SELF_TIME {
            values.insert(metric, totals.get(span).map_or(0.0, |t| t.self_s));
        }
        if let Some(t) = totals.get("delay.thm41") {
            values.insert("delay.thm41_max_s", t.max_s);
            values.insert("delay.thm41_calls", t.calls as f64);
        }
        for (name, v) in self.counts.borrow().iter() {
            values.insert(name, *v);
        }
        let dense_s = values["sim.dense_s"];
        let (words, rounds) = (self.count("dense.words"), self.count("dense.rounds"));
        if rounds > 0.0 {
            values.insert("sim.dense_words_per_round", words / rounds);
        }
        if dense_s > 0.0 {
            values.insert("sim.dense_gbps", words * 8.0 / dense_s / 1e9);
        }
        let t1 = totals.get("search.enumerate.t1").map_or(0.0, |t| t.total_s);
        let t2 = totals.get("search.enumerate").map_or(0.0, |t| t.total_s);
        if t1 > 0.0 && t2 > 0.0 {
            values.insert("search.speedup_2v1", t1 / t2);
        }
        let self_sum: f64 = trace::self_times(&spans).iter().sum();
        values.insert("trace.coverage", self_sum / traced_s);
        values.insert("trace.overhead", traced_s / untraced_s);
        for (k, v) in extra {
            values.insert(k, *v);
        }
        for &(name, unit) in PER_LAYER {
            out.metric(name, values.get(name).copied().unwrap_or(0.0), unit);
        }
        println!(
            "trace: {} spans, traced replay {traced_s:.3} s, untraced replay {untraced_s:.3} s",
            spans.len()
        );
        println!(
            "{:<24} {:>7} {:>11} {:>11} {:>10}",
            "span", "calls", "total_s", "self_s", "max_s"
        );
        for (name, t) in &totals {
            println!(
                "{name:<24} {:>7} {:>11.6} {:>11.6} {:>10.6}",
                t.calls, t.total_s, t.self_s, t.max_s
            );
        }
    }
}
