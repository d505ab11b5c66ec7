//! Equivalence-as-a-service: spin up an in-process `ccs-server`, connect a
//! client over real TCP, and answer equivalence queries over the wire.
//!
//! Run with `cargo run --example equiv_service`.
//!
//! The same protocol serves out-of-process use: start `cargo run --bin
//! ccs-server` in one terminal and drive it with `cargo run --bin
//! ccs-client -- 127.0.0.1:7878 demo` (or any line-oriented JSON client —
//! the README documents the wire shapes).

use ccs_server::{Client, Server, Service};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Bind an ephemeral port and move the accept loop to a background
    // thread; the handle tells us where it landed.
    let handle = Server::bind("127.0.0.1:0", Service::default())?.spawn()?;
    println!("server listening on {}", handle.addr());

    let mut client = Client::connect(handle.addr())?;

    // Open the vending machine pair: commit internally (τ) after the coin,
    // or offer the choice externally.
    let opened = client.open_fsp(
        "trans m0 coin m1\n\
         trans m1 tau m2\n\
         trans m1 tau m3\n\
         trans m2 tea m4\n\
         trans m3 coffee m5\n\
         trans e0 coin e1\n\
         trans e1 tea e2\n\
         trans e1 coffee e3",
    )?;
    println!(
        "opened session {} ({} states, {} transitions)",
        opened.session, opened.states, opened.transitions
    );

    // The classic verdicts, over the wire: same traces, different behaviour.
    for notion in ["trace", "observational", "failure"] {
        let verdict = client.pair(&opened.session, notion, "m0", "e0")?;
        println!(
            "  {notion:<14} internal ~ external  ->  {}",
            if verdict { "equivalent" } else { "DIFFERENT" }
        );
    }

    // Whole-space classification of the same session (served from the warm
    // caches the pair queries left behind).
    let classes = client.classify(&opened.session, "observational")?;
    println!("  observational classes: {}", classes.len());
    for block in &classes {
        println!("    {}", block.join(" "));
    }

    // A second, independent session from a CCS star expression.
    let expr = client.open_ccs("(a+b).c")?;
    println!(
        "CCS representative of (a+b).c: session {} with {} states",
        expr.session, expr.states
    );

    // The server keeps honest books: every refinement that ran and every
    // pair query answered.
    let stats = client.stats()?;
    println!(
        "server stats: sessions={} resident_bytes={} refinements={} pair_queries={}",
        stats.sessions, stats.resident_bytes, stats.refinements, stats.pair_queries
    );

    client.close_session(&opened.session)?;
    client.close_session(&expr.session)?;
    Ok(())
}
