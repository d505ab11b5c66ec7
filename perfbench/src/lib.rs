//! Service benchmark for `ccs-server`.
//!
//! One command, three request mixes (see `README.md` in this directory):
//!
//! * the **untraced run** starts the real `ccs-server` binary as a child,
//!   drives it with a single-threaded closed-loop generator over one
//!   loopback TCP connection, checks every reply against an independent
//!   oracle, and reports the end-to-end metrics;
//! * the **traced run** replays the same seeded requests in process through
//!   `Service::handle_line`, timing each layer from outside through its
//!   public functions, and reports the per-layer metrics.

pub mod json;
pub mod oracle;
pub mod plan;
pub mod stats;
pub mod traced;
pub mod wire;

use std::path::Path;
use std::time::{Duration, Instant};

use oracle::Record;
use plan::{Plan, Req, Size, Workload};
use wire::{Conn, Server};

/// What one invocation runs.
#[derive(Clone, Debug)]
pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub size: Size,
    /// Flip one expected answer (self-test of the oracle check).
    pub corrupt_oracle: bool,
}

/// One reported number.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// The result of a run: the contract's result line plus log lines.
#[derive(Debug, Default)]
pub struct Report {
    pub correct: bool,
    pub attempted: usize,
    pub failed: usize,
    pub metrics: Vec<Metric>,
    pub log: Vec<String>,
}

impl Report {
    fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// The result line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    r#""{}":{{"value":{},"unit":"{}"}}"#,
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            r#"{{"correct":{},"attempted":{},"failed":{},"metrics":{{{}}}}}"#,
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(",")
        )
    }
}

/// Set-ups per run; `setup_s` is their median.  About half run before the
/// timed phase and half after it, so the median spans the whole run rather
/// than one moment of the host's load.
fn setups(workload: Workload, size: Size) -> (usize, usize) {
    match (workload, size) {
        (_, Size::Smoke) => (1, 1),
        (Workload::LiveEdit, Size::Full) => (6, 5),
        (_, Size::Full) => (11, 10),
    }
}

/// Runs one invocation: builds the server, then the untraced or the traced
/// run.
pub fn run(options: &Options) -> Result<Report, String> {
    let plan = Plan::new(options.workload, options.seed, options.size);
    let binary = wire::build_server()?;
    if options.trace {
        traced::run(options, &plan, &binary)
    } else {
        untraced(options, &plan, &binary)
    }
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// The session handle an `open` reply carries.
fn session_of(reply: &str) -> Option<String> {
    json::parse(reply)
        .ok()?
        .get("session")?
        .as_str()
        .map(str::to_owned)
}

/// Sends `steps` in order on `conn`, recording each reply.  Stops at the
/// first transport error (the connection is gone).
fn send(
    plan: &Plan,
    conn: &mut Conn,
    session: &mut String,
    step: usize,
    setup: bool,
    records: &mut Vec<Record>,
) -> bool {
    let s = if setup {
        &plan.setup[step]
    } else {
        &plan.cycle[step]
    };
    let line = plan.line(s, session);
    let (reply, latency_ns) = match conn.call(&line) {
        Ok((reply, ns)) => (Ok(reply), ns),
        Err(e) => (Err(e.to_string()), 0),
    };
    if s.req == Req::Open {
        if let Ok(r) = &reply {
            *session = session_of(r).unwrap_or_default();
        }
    }
    let alive = reply.is_ok();
    records.push(Record {
        step,
        setup,
        latency_ns,
        reply,
    });
    alive
}

/// One set-up: spawn the server child, connect, first answered `ping`,
/// then the plan's set-up requests (open and warm the live-edit session).
fn set_up(
    plan: &Plan,
    binary: &Path,
    session: &mut String,
    records: &mut Vec<Record>,
) -> Result<(Server, Conn, f64), String> {
    let start = Instant::now();
    let server = Server::spawn(binary)?;
    let mut conn = Conn::connect(server.addr).map_err(|e| format!("connect: {e}"))?;
    let (pong, _) = conn
        .call(r#"{"op":"ping"}"#)
        .map_err(|e| format!("ping: {e}"))?;
    if !pong.contains(r#""pong":true"#) {
        return Err(format!("unexpected ping reply {pong}"));
    }
    for step in 0..plan.setup.len() {
        if !send(plan, &mut conn, session, step, true, records) {
            return Err("transport error during set-up".into());
        }
    }
    Ok((server, conn, start.elapsed().as_secs_f64()))
}

fn untraced(options: &Options, plan: &Plan, binary: &Path) -> Result<Report, String> {
    let mut report = Report::default();
    let mut records = Vec::new();
    let mut setup_s = Vec::new();
    let mut live: Option<(Server, Conn)> = None;
    let mut session = String::new();
    let (before, after) = setups(options.workload, options.size);
    for _ in 0..before {
        // The previous set-up's child is stopped before the next one starts.
        drop(live.take());
        let (server, conn, seconds) = set_up(plan, binary, &mut session, &mut records)?;
        setup_s.push(seconds);
        live = Some((server, conn));
    }
    let (server, mut conn) = live.expect("at least one set-up");
    let timed_from = records.len();

    let budget = Duration::from_secs_f64(options.seconds);
    let start = Instant::now();
    let mut passes = 0u32;
    'run: loop {
        for step in 0..plan.cycle.len() {
            if plan.workload == Workload::LiveEdit && start.elapsed() >= budget {
                break 'run;
            }
            if !send(plan, &mut conn, &mut session, step, false, &mut records) {
                break 'run;
            }
        }
        passes += 1;
        // Pool workloads: as many whole passes as the first one says fit.
        let pass = start.elapsed() / passes;
        if start.elapsed() + pass > budget {
            break;
        }
    }
    let wall = start.elapsed().as_secs_f64();
    let timed_to = records.len();
    let peak_rss_mb = server.peak_rss_mb()?;
    drop(conn);
    drop(server);
    for _ in 0..after {
        let mut scratch_session = String::new();
        let (_, _, seconds) = set_up(plan, binary, &mut scratch_session, &mut records)?;
        setup_s.push(seconds);
    }

    let checked = oracle::check(plan, &records, options.corrupt_oracle);
    let timed = &records[timed_from..timed_to];
    let timed_failed = checked
        .bad
        .iter()
        .filter(|&&i| (timed_from..timed_to).contains(&i))
        .count();

    // Latency samples per op; a model's turnaround runs from its `open` to
    // its `close` reply.
    let mut open = Vec::new();
    let mut classify = Vec::new();
    let mut pair = Vec::new();
    let mut mutate = Vec::new();
    let mut model = Vec::new();
    let mut model_ns = 0u64;
    for r in &records {
        let latency = ms(r.latency_ns);
        match r.step(plan).req {
            Req::Open => {
                open.push(latency);
                model_ns = 0;
            }
            Req::Classify(_) | Req::Partition(_) if !r.setup => classify.push(latency),
            Req::Pair(..) => pair.push(latency),
            Req::Mutate(_) => mutate.push(latency),
            Req::Close => model.push(ms(model_ns + r.latency_ns)),
            _ => {}
        }
        model_ns += r.latency_ns;
    }
    let med = |v: &[f64]| stats::median(v).unwrap_or(f64::NAN);
    let (pair_tail_p, pair_tail) = stats::tail(&pair).unwrap_or((f64::NAN, f64::NAN));

    report.attempted = records.len();
    report.failed = checked.failed;
    report.correct = checked.failed == 0;
    report.metric("setup_s", med(&setup_s), "s");
    report.metric(
        "requests_per_s",
        (timed.len() - timed_failed) as f64 / wall,
        "req/s",
    );
    report.metric("classify_p50_ms", med(&classify), "ms");
    report.metric("pair_p50_ms", med(&pair), "ms");
    report.metric("pair_tail_ms", pair_tail, "ms");
    if let Some(m) = report.metrics.iter().find(|m| !m.value.is_finite()) {
        return Err(format!(
            "{} has no samples: the run was too short for its workload",
            m.name
        ));
    }

    let log = &mut report.log;
    log.push(format!(
        "untraced {}: {} requests ({}) in {wall:.3} s after {} set-ups ({} set-up requests)",
        plan.workload.name(),
        timed.len(),
        if plan.workload == Workload::LiveEdit {
            "until the time was up".to_owned()
        } else {
            format!("{passes} whole passes")
        },
        setup_s.len(),
        records.len() - timed.len()
    ));
    log.push(format!(
        "samples: open {} classify {} pair {} mutate {} model {}",
        open.len(),
        classify.len(),
        pair.len(),
        mutate.len(),
        model.len()
    ));
    log.push(format!(
        "pair_tail_ms is p{pair_tail_p} of {} pair samples",
        pair.len()
    ));
    // Logged rather than bounded.  `open_p50_ms` on live-edit spreads over
    // 20% between runs: the open-line JSON parse of its one large model
    // varies by that much per call even in process.  `peak_rss_mb` moves in
    // ~1.7x steps, as the weak-instance builder's buffers double, and
    // spreads ~50% across branching seeds.
    log.push(format!(
        "open_p50_ms {:.3} ms over {} opens",
        med(&open),
        open.len()
    ));
    log.push(format!(
        "peak_rss_mb {peak_rss_mb:.3} MB (server VmHWM at the end of the run)"
    ));
    if !model.is_empty() {
        log.push(format!(
            "model_p50_ms {:.3} ms over {} models",
            med(&model),
            model.len()
        ));
    }
    if !mutate.is_empty() {
        let (p, t) = stats::tail(&mutate).unwrap_or((f64::NAN, f64::NAN));
        log.push(format!(
            "mutate_p50_ms {:.3} ms, mutate_tail_ms {t:.3} ms (p{p} of {} samples)",
            med(&mutate),
            mutate.len()
        ));
    }
    log.push(format!(
        "error_rate {} ({} of {} replies failed their check)",
        checked.failed as f64 / records.len().max(1) as f64,
        checked.failed,
        checked.checked
    ));
    log.extend(checked.errors.iter().map(|e| format!("check failed: {e}")));
    Ok(report)
}
