//! The `ccs-client` binary: drive a running `ccs-server`.
//!
//! ```text
//! ccs-client ADDR ping    # liveness check
//! ccs-client ADDR demo    # scripted end-to-end check; exit 1 on any mismatch
//! ccs-client ADDR stats   # print the server's counters
//! ```
//!
//! `demo` is the CI smoke test: it opens the paper's classic
//! `a.(b + c)` vs `a.b + a.c` pair plus a τ-absorption process, asks a fixed
//! battery of questions across notions, and verifies every answer against
//! the known truth — a wrong verdict, an unexpected error, or a transport
//! failure exits non-zero.

use std::process::ExitCode;

use ccs_server::{Client, ClientError};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (addr, command) = match args.as_slice() {
        [addr] => (addr.as_str(), "demo"),
        [addr, command] => (addr.as_str(), command.as_str()),
        _ => {
            eprintln!("usage: ccs-client ADDR [ping|demo|stats]");
            return ExitCode::FAILURE;
        }
    };
    let result = match command {
        "ping" => ping(addr),
        "demo" => demo(addr),
        "stats" => stats(addr),
        other => {
            eprintln!("ccs-client: unknown command {other:?} (expected ping, demo, or stats)");
            return ExitCode::FAILURE;
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("ccs-client: {e}");
            ExitCode::FAILURE
        }
    }
}

fn ping(addr: &str) -> Result<(), ClientError> {
    let mut client = Client::connect(addr)?;
    if client.ping()? {
        println!("pong");
        Ok(())
    } else {
        Err(ClientError::Protocol("ping did not pong".to_owned()))
    }
}

fn stats(addr: &str) -> Result<(), ClientError> {
    let mut client = Client::connect(addr)?;
    let stats = client.stats()?;
    println!(
        "sessions={} resident_bytes={} evictions={} refinements={} pair_queries={}",
        stats.sessions,
        stats.resident_bytes,
        stats.evictions,
        stats.refinements,
        stats.pair_queries,
    );
    Ok(())
}

/// One expected verdict of the scripted battery.
struct Expectation {
    notion: &'static str,
    left: &'static str,
    right: &'static str,
    equivalent: bool,
}

fn demo(addr: &str) -> Result<(), ClientError> {
    let mut client = Client::connect(addr)?;
    client.ping()?;

    // The classic pair: a.(b + c)  vs  a.b + a.c, as one disjoint process.
    let classic = client.open_fsp(
        "trans p a q\ntrans q b r\ntrans q c s\naccept p q r s\n\
         trans u a v\ntrans u a w\ntrans v b x\ntrans w c y\naccept u v w x y",
    )?;
    println!(
        "opened {} ({} states, {} transitions)",
        classic.session, classic.states, classic.transitions
    );
    let battery = [
        Expectation {
            notion: "language",
            left: "p",
            right: "u",
            equivalent: true,
        },
        Expectation {
            notion: "trace",
            left: "p",
            right: "u",
            equivalent: true,
        },
        Expectation {
            notion: "failure",
            left: "p",
            right: "u",
            equivalent: false,
        },
        Expectation {
            notion: "observational",
            left: "p",
            right: "u",
            equivalent: false,
        },
        Expectation {
            notion: "strong",
            left: "p",
            right: "u",
            equivalent: false,
        },
    ];
    for case in &battery {
        let got = client.pair(&classic.session, case.notion, case.left, case.right)?;
        println!(
            "  {} {} ~ {} -> {}",
            case.notion, case.left, case.right, got
        );
        if got != case.equivalent {
            return Err(ClientError::Protocol(format!(
                "{} verdict for {}/{} should be {}",
                case.notion, case.left, case.right, case.equivalent
            )));
        }
    }

    // τ-absorption: τ.a ≈ a but not ~.
    let tau = client.open_fsp("trans p tau q\ntrans q a r\ntrans s a t")?;
    if !client.pair(&tau.session, "observational", "p", "s")? {
        return Err(ClientError::Protocol(
            "tau prefix should be absorbed under observational equivalence".to_owned(),
        ));
    }
    if client.pair(&tau.session, "strong", "p", "s")? {
        return Err(ClientError::Protocol(
            "tau prefix should be visible under strong equivalence".to_owned(),
        ));
    }
    let classes = client.classify(&tau.session, "observational")?;
    println!("  observational classes of tau process: {classes:?}");
    if classes.len() != 2 {
        return Err(ClientError::Protocol(format!(
            "expected 2 observational classes, got {}",
            classes.len()
        )));
    }

    // Mutate the τ process in place: drop the τ prefix and wire p straight
    // to r by `a`.  Same handle, and the strong verdict flips — p and s now
    // both do exactly one `a` into a dead state.
    let (added, removed) = client.mutate(&tau.session, &[("p", "a", "r")], &[("p", "tau", "q")])?;
    println!("  mutate on {}: +{added} -{removed}", tau.session);
    if (added, removed) != (1, 1) {
        return Err(ClientError::Protocol(format!(
            "mutate should apply 1 addition and 1 removal, got +{added} -{removed}"
        )));
    }
    if !client.pair(&tau.session, "strong", "p", "s")? {
        return Err(ClientError::Protocol(
            "after the mutation p and s should be strongly equivalent".to_owned(),
        ));
    }
    match client.mutate(&tau.session, &[("p", "zap", "q")], &[]) {
        Err(ClientError::Server { code, .. }) if code == "bad-request" => {}
        other => {
            return Err(ClientError::Protocol(format!(
                "mutating an unknown action should be a bad-request, got {other:?}"
            )))
        }
    }

    // A CCS star expression through the representative construction; its
    // anonymous states answer to their reported `s<i>` labels.
    let expr = client.open_ccs("(a+b).c")?;
    if !client.pair(&expr.session, "strong", "s0", "s0")? {
        return Err(ClientError::Protocol(
            "reflexivity failed on the CCS representative".to_owned(),
        ));
    }

    // The error path keeps its stable code.
    match client.pair("s999999", "strong", "p", "q") {
        Err(ClientError::Server { code, .. }) if code == "unknown-session" => {}
        other => {
            return Err(ClientError::Protocol(format!(
                "expected unknown-session error, got {other:?}"
            )))
        }
    }

    let stats = client.stats()?;
    println!(
        "server stats: sessions={} refinements={} pair_queries={}",
        stats.sessions, stats.refinements, stats.pair_queries
    );
    println!("demo OK");
    Ok(())
}
