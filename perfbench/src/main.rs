//! `perfbench`: the end-to-end benchmark of the systolic-gossip
//! workspace.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <paper-audit|gossip-scale|prove-optimum|serve-query> \
//!     [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` replays the
//! workload's inputs layer by layer and reports the per-layer metrics,
//! writing every span to `.perfbench/trace-<workload>-<seed>.jsonl`.
//! Every answer is checked; the last line of standard output is one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`, and the exit
//! code is 1 when any answer was wrong. See `perfbench/README.md`.

mod batch;
mod layers;
mod report;
mod serve;
mod trace;

use batch::{BatchKind, DEFAULT_SEED};
use report::Outcome;

fn usage(msg: &str) -> ! {
    eprintln!(
        "perfbench: {msg}\nusage: perfbench --workload <paper-audit|gossip-scale|prove-optimum|\
         serve-query> [--seed N] [--seconds S] [--trace 0|1]"
    );
    std::process::exit(2)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--serve-daemon") {
        serve::daemon_main();
    }
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut traced = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        let bad = || -> ! { usage(&format!("bad value `{value}` for {flag}")) };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse::<u64>().unwrap_or_else(|_| bad()),
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0)
                    .unwrap_or_else(|| bad())
            }
            "--trace" => {
                traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => bad(),
                }
            }
            _ => usage(&format!("unknown flag `{flag}`")),
        }
    }
    let workload = workload.unwrap_or_else(|| usage("--workload is required"));
    let kind = match workload.as_str() {
        "paper-audit" => Some(BatchKind::PaperAudit),
        "gossip-scale" => Some(BatchKind::GossipScale),
        "prove-optimum" => Some(BatchKind::ProveOptimum),
        "serve-query" => None,
        other => usage(&format!("unknown workload `{other}`")),
    };
    // The thread budget: one per available core.
    let threads = std::thread::available_parallelism().map_or(2, |n| n.get());
    report::print_env(&workload, seed, threads, traced);

    let mut out = Outcome::default();
    if traced {
        let t = match kind {
            Some(k) => batch::run_traced(k, seed, threads, &mut out),
            None => serve::run_traced(seed, &mut out),
        };
        let (copy_gbps, llc, array) = report::copy_bandwidth();
        println!(
            "machine: copy {copy_gbps:.2} GB/s (read + write) over two {:.0} MiB arrays, \
             last-level cache {:.0} MiB",
            array as f64 / (1u64 << 20) as f64,
            llc as f64 / (1u64 << 20) as f64
        );
        let mut extra = t.extra;
        extra.insert("machine.copy_gbps", copy_gbps);
        let path = std::path::PathBuf::from(format!(".perfbench/trace-{workload}-{seed}.jsonl"));
        match trace::write_jsonl(&t.layers.tr.spans(), &path) {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(e) => println!("spans not written to {}: {e}", path.display()),
        }
        t.layers.report(&mut out, t.traced_s, t.untraced_s, &extra);
    } else {
        match kind {
            Some(k) => batch::run(k, seed, seconds, threads, &mut out),
            None => serve::run(seed, seconds, threads, &mut out),
        }
    }
    out.print();
    if !out.correct() {
        std::process::exit(1);
    }
}
