//! Statistical conformance suite for the randomized-gossip engine.
//!
//! Everything here runs at a fixed seed, so the suite is deterministic:
//! the asserted intervals are Θ-bounds from the literature with
//! generous constants, not flaky confidence intervals. Three layers:
//!
//! 1. **Θ-laws** — Exchange (and push/pull) on the complete graph stops
//!    in Θ(lg n) rounds and on the cycle in Θ(n) rounds
//!    (Borokhovich–Avin–Lotker, arXiv:1001.3265). The lower ends of the
//!    asserted intervals are *universal* bounds (⌈lg n⌉ doubling,
//!    diameter), so they can never legitimately fail; the upper ends
//!    are 5× the leading term.
//! 2. **Soundness against proven optima** — on networks where the
//!    reference systolic schedule meets the universal floor (`Q₇`,
//!    `W(6,64)`), its measured time is *exactly* optimal, and no
//!    oblivious randomized mean may land under it. (On `C₆₄` the s = 4
//!    reference is an upper bound only — Exchange legitimately beats
//!    it — so no such assertion is made there.)
//! 3. **Batch-runner integration** — `run_batch` over the registry's
//!    `rand-*` scenarios reports sound `ratio_to_optimum` columns, and
//!    batches are bit-identical at 1/2/8 worker threads.

use sg_sim::engine::run_systolic;
use sg_sim::random::{run_randomized, summarize, ActivationModel, RandomizedConfig};
use systolic_gossip::{ceil_log2, Network, Value};

const SEED: u64 = 1997;
const TRIALS: usize = 200;

fn summary_on(
    net: Network,
    model: ActivationModel,
    threads: usize,
) -> sg_sim::random::RandomizedSummary {
    let g = net.build();
    let cfg = RandomizedConfig {
        model,
        trials: TRIALS,
        seed: SEED,
        max_rounds: 100_000,
        threads,
        mem_limit: None,
    };
    let trials = run_randomized(&g, &cfg);
    assert!(
        trials.iter().all(|t| t.completed_at.is_some()),
        "{} / {}: a trial failed to complete",
        net.name(),
        model.label()
    );
    summarize(&trials).expect("completed trials")
}

/// Exchange on `K₁₆` stops in Θ(lg n): the mean of 200 fixed-seed
/// trials sits between the universal doubling floor ⌈lg 16⌉ = 4 and a
/// generous 5 lg n. Push and pull obey the same Θ-law (their constant
/// is larger: ≈ lg n + ln n), so they are pinned to the same interval.
#[test]
fn complete_graph_stops_in_theta_log_n() {
    let floor = ceil_log2(16) as f64;
    for model in ActivationModel::ALL {
        let s = summary_on(Network::Complete { n: 16 }, model, 4);
        assert!(
            s.mean >= floor && s.mean <= 5.0 * floor,
            "{}: mean {:.2} outside Θ(lg n) interval [{floor}, {}]",
            model.label(),
            s.mean,
            5.0 * floor
        );
    }
}

/// Exchange on `C₃₂` stops in Θ(n): the mean sits between the diameter
/// n/2 = 16 (universal — an item must cross the cycle) and 1.5 n = 48.
/// Empirically Exchange lands near 0.75 n; push/pull near 1.2 n.
#[test]
fn cycle_stops_in_theta_n() {
    for model in ActivationModel::ALL {
        let s = summary_on(Network::Cycle { n: 32 }, model, 4);
        assert!(
            s.mean >= 16.0 && s.mean <= 48.0,
            "{}: mean {:.2} outside Θ(n) interval [16, 48]",
            model.label(),
            s.mean
        );
    }
}

/// Where the systolic reference schedule meets the universal doubling
/// floor it is provably optimal over *all* gossip protocols — so no
/// randomized mean (or even minimum) may land under its measured time.
#[test]
fn randomized_never_beats_a_proven_systolic_optimum() {
    for net in [
        Network::Hypercube { k: 7 },
        Network::Knodel { delta: 6, n: 64 },
    ] {
        let g = net.build();
        let n = g.vertex_count();
        let sp = net.reference_protocol().expect("reference protocol");
        let optimum = run_systolic(&sp, n, 40 * n + 200, false)
            .completed_at
            .expect("reference completes");
        assert_eq!(
            optimum,
            ceil_log2(n),
            "{}: reference no longer meets the doubling floor — the \
             optimality premise of this test broke",
            net.name()
        );
        for model in ActivationModel::ALL {
            let s = summary_on(net, model, 4);
            assert!(
                s.min >= optimum,
                "{} / {}: a trial stopped in {} rounds, beating the \
                 proven optimum {optimum}",
                net.name(),
                model.label(),
                s.min
            );
        }
    }
}

/// Reads a named numeric field off a batch row.
fn field_f64(row: &systolic_gossip::Row, name: &str) -> Option<f64> {
    row.fields.iter().find_map(|(k, v)| match v {
        _ if k != name => None,
        Value::Float(x) => Some(*x),
        Value::Int(i) => Some(*i as f64),
        _ => None,
    })
}

fn field_text<'a>(row: &'a systolic_gossip::Row, name: &str) -> Option<&'a str> {
    row.fields.iter().find_map(|(k, v)| match v {
        Value::Text(t) if k == name => Some(t.as_str()),
        _ => None,
    })
}

/// The registry's small `rand-*` scenarios through the production batch
/// runner: every row completes all trials, `rand-hypercube` and
/// `rand-knodel` (proven-optimal yardsticks) report `ratio_to_optimum`
/// ≥ 1, and `rand-cycle` means respect the diameter of `C₆₄`.
#[test]
fn batch_rows_report_sound_ratios() {
    use sg_scenario::{find, run_batch, BatchOptions};
    let scenarios: Vec<_> = ["rand-cycle", "rand-hypercube", "rand-knodel"]
        .iter()
        .map(|name| find(name).expect("registered scenario"))
        .collect();
    let opts = BatchOptions {
        threads: 2,
        ..BatchOptions::default()
    };
    let report = run_batch(&scenarios, &opts);
    for outcome in &report.outcomes {
        let rows: Vec<_> = outcome
            .rows
            .iter()
            .filter(|r| field_text(r, "kind") == Some("randomized"))
            .collect();
        assert_eq!(rows.len(), 3, "{}: one row per model", outcome.name);
        for row in rows {
            assert_eq!(
                field_text(row, "verdict"),
                Some("completed"),
                "{}: {:?}",
                outcome.name,
                row
            );
            let mean = field_f64(row, "mean_rounds").expect("mean_rounds");
            let ratio = field_f64(row, "ratio_to_optimum").expect("ratio_to_optimum");
            match outcome.name.as_str() {
                "rand-hypercube" | "rand-knodel" => {
                    // The yardstick is a proven optimum: randomized can
                    // slow down but never win.
                    assert!(
                        ratio >= 1.0,
                        "{}: ratio {ratio:.3} under a proven optimum",
                        outcome.name
                    );
                }
                "rand-cycle" => {
                    // C₆₄'s s = 4 reference is only an upper bound
                    // (Exchange beats it), but the diameter 32 binds
                    // every protocol.
                    assert!(
                        mean >= 32.0,
                        "rand-cycle: mean {mean:.2} under the diameter"
                    );
                }
                other => panic!("unexpected scenario {other}"),
            }
        }
    }
}

/// The full trial vectors — not just the summaries — are bit-identical
/// at 1, 2, and 8 worker threads.
#[test]
fn batches_are_bit_identical_at_1_2_and_8_threads() {
    let g = Network::Knodel { delta: 6, n: 64 }.build();
    for model in ActivationModel::ALL {
        let run = |threads: usize| {
            run_randomized(
                &g,
                &RandomizedConfig {
                    model,
                    trials: 48,
                    seed: SEED,
                    max_rounds: 10_000,
                    threads,
                    mem_limit: Some(sg_sim::sparse::LARGE_SIM_MEM_LIMIT),
                },
            )
        };
        let base = run(1);
        for threads in [2, 8] {
            assert_eq!(run(threads), base, "{} at {threads} threads", model.label());
        }
    }
}
