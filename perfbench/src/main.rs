//! Host-time benchmark of whole MD steps and served jobs.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!           [--scale full|smoke] [--inject none|flip-checksum|perturb-replica]
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
//! metrics of a traced replica; the last stdout line is one JSON
//! result object. Every output check gates the run: if one fails, no
//! metric is printed and the exit code is 1. `--scale smoke` shrinks
//! each workload to test size; `--inject` breaks one check on purpose,
//! for the benchmark's own tests.

mod host;
mod md;
mod replica;
mod report;
mod serve;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use md::MdSpec;
use serve::ServeSpec;

/// A deliberate fault, to show that a check fails the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Inject {
    /// No fault.
    None,
    /// Flip one bit of one delivered job's checksum.
    FlipChecksum,
    /// Flip one position bit of the replica after its first step.
    PerturbReplica,
}

#[derive(Debug, Clone, Copy)]
enum Workload {
    Md(MdSpec),
    Serve(ServeSpec),
}

const WORKLOADS: &[&str] = &["md24k_native", "md12k_pme_native", "serve240_chaos"];

fn workload(name: &str, smoke: bool) -> Option<Workload> {
    Some(match name {
        "md24k_native" => Workload::Md(MdSpec {
            n_mol: if smoke { 100 } else { 8_000 },
            pme_grid: None,
            cycle_s: if smoke { 1.0 } else { 2.0 },
        }),
        "md12k_pme_native" => Workload::Md(MdSpec {
            n_mol: if smoke { 100 } else { 4_000 },
            pme_grid: Some(if smoke { 16 } else { 64 }),
            cycle_s: if smoke { 1.0 } else { 1.8 },
        }),
        "serve240_chaos" => Workload::Serve(ServeSpec {
            n_jobs: if smoke { 12 } else { 240 },
            n_workers: 4,
            run_s: 6.0,
        }),
        _ => return None,
    })
}

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    inject: Inject,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 11,
        seconds: 25.0,
        trace: false,
        smoke: false,
        inject: Inject::None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| bad("expected an integer"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| bad("expected a positive number"))?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            "--scale" => {
                args.smoke = match value.as_str() {
                    "full" => false,
                    "smoke" => true,
                    _ => return Err(bad("expected full or smoke")),
                }
            }
            "--inject" => {
                args.inject = match value.as_str() {
                    "none" => Inject::None,
                    "flip-checksum" => Inject::FlipChecksum,
                    "perturb-replica" => Inject::PerturbReplica,
                    _ => return Err(bad("expected none, flip-checksum or perturb-replica")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if workload(&args.workload, false).is_none() {
        return Err(format!(
            "--workload must be one of {}, got {:?}",
            WORKLOADS.join(", "),
            args.workload
        ));
    }
    Ok(args)
}

/// Chaos-injected lane panics are expected events the runner recovers
/// from. As in the `swserve` CLI, their default-hook messages are
/// dropped; with `RUST_BACKTRACE` set, capturing a backtrace for each
/// would also add its cost to the timed served runs. Every other panic
/// goes to the default hook.
fn quiet_injected_panics() {
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let msg = info
            .payload()
            .downcast_ref::<&str>()
            .copied()
            .or_else(|| info.payload().downcast_ref::<String>().map(|s| s.as_str()));
        if msg.is_some_and(|m| {
            m.contains("injected pool worker panic") || m.contains("kernel lane panicked")
        }) {
            return;
        }
        prev(info);
    }));
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    quiet_injected_panics();
    let pool_threads = sw26010::NativePool::new().n_threads();
    print!("{}", host::header(&args.workload, args.seed, pool_threads));

    let out = PathBuf::from(".perfbench_out");
    let work = out.join(format!("work-{}", std::process::id()));
    let scale = if args.smoke { "-smoke" } else { "" };
    let spans = out.join(format!(
        "spans-{}{scale}-seed{}.json",
        args.workload, args.seed
    ));
    let result = match workload(&args.workload, args.smoke).expect("validated in parse_args") {
        Workload::Md(spec) if args.trace => {
            md::run_traced(spec, args.seed, args.seconds, args.inject, &spans)
        }
        Workload::Md(spec) => md::run_e2e(spec, args.seed, args.seconds),
        Workload::Serve(spec) if args.trace => {
            serve::run_traced(spec, args.seed, args.inject, &work, &spans)
        }
        Workload::Serve(spec) => serve::run_e2e(spec, args.seed, args.seconds, args.inject, &work),
    };
    let _ = std::fs::remove_dir_all(&work);
    match result {
        Ok(report) => {
            print!("{}", report.human());
            println!("{}", report.json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: CHECK FAILED: {e}");
            ExitCode::FAILURE
        }
    }
}
