//! `perfbench --workload <branching|linear-time|live-edit> --seed <n>
//!  --seconds <s> --trace <0|1> [--smoke]`
//!
//! Prints log lines, a `stamp` line, and as its last line the result object
//! `{"correct", "attempted", "failed", "metrics"}`.  Exits non-zero when a
//! reply fails its oracle check or the run cannot be made.

use std::process::{Command, ExitCode};

use perfbench::plan::{Size, Workload};
use perfbench::wire::{repo_root, KNOBS};
use perfbench::{run, Options};

fn usage() -> ExitCode {
    eprintln!(
        "usage: perfbench --workload <branching|linear-time|live-edit> --seed <n> \
         --seconds <s> --trace <0|1> [--smoke]"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut size = Size::Full;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let value = match arg.as_str() {
            "--smoke" => {
                size = Size::Smoke;
                continue;
            }
            _ => args.next(),
        };
        let Some(value) = value else { return usage() };
        match arg.as_str() {
            "--workload" => workload = Workload::from_name(&value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => trace = matches!(value.as_str(), "0" | "1").then(|| value == "1"),
            _ => return usage(),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        return usage();
    };

    // Pin the program: the knobs are recorded, then removed, so both the
    // server child and the in-process traced replay run their defaults.
    let knobs: Vec<String> = KNOBS
        .iter()
        .map(|k| {
            format!(
                "{k}={}",
                std::env::var(k).unwrap_or_else(|_| "unset".into())
            )
        })
        .collect();
    for knob in KNOBS {
        std::env::remove_var(knob);
    }
    let options = Options {
        workload,
        seed,
        seconds,
        trace,
        size,
        corrupt_oracle: false,
    };
    let report = match run(&options) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    for line in &report.log {
        println!("{line}");
    }
    let cores = std::thread::available_parallelism().map_or(0, usize::from);
    println!(
        "stamp workload={} seed={seed} seconds={seconds} trace={} cores={cores} rev={} \
         knobs(removed for the run)={}",
        workload.name(),
        u8::from(trace),
        revision(),
        knobs.join(",")
    );
    println!("{}", report.result_line());
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The git revision of the measured sources, when they are a git checkout.
fn revision() -> String {
    Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .current_dir(repo_root())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .unwrap_or_else(|| "unknown (not a git checkout)".to_owned())
}
