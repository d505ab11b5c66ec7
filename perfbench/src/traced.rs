//! The traced run: the same seeded requests, replayed in process through
//! `Service::handle_line`, with each layer timed from outside through its
//! public functions.
//!
//! Before each request the replay forces, in pipeline order, every lazy
//! layer the server would build for it on the registry's own session
//! (obtained through `Service::registry().get`), timing each call as a
//! span; the `handle_line` span that follows then holds only what the
//! server adds (dispatch, coalescer, serialization).  Two calls the server
//! repeats rather than memoizes cannot be forced that way and are timed on
//! a shadow fed the same call sequence instead: `on_the_fly` (a refuted
//! pair searches again to rebuild its witness) on a shadow `EquivSession`,
//! and `Registry::mutate` on a shadow `Registry`.
//!
//! Spans never nest, so a layer's time is its self time, and the traced
//! wall time not covered by any span is reported as `trace.unaccounted_pct`.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

use ccs_equiv::{EquivSession, Equivalence};
use ccs_fsp::{format, Fsp, Label, StateId};
use ccs_server::{Client, Registry, RegistryConfig, Service};

use crate::json;
use crate::oracle::{self, Record};
use crate::plan::{Format, Plan, Req, Step};
use crate::wire::{Conn, Server};
use crate::{Options, Report};

/// Every per-layer metric, in report order, with its unit.
pub const METRICS: [(&str, &str); 30] = [
    ("server.wire.ping_ms", "ms"),
    ("server.client.ping_ms", "ms"),
    ("server.json.parse_ms", "ms"),
    ("server.json.request_bytes", "bytes"),
    ("server.json.serialize_ms", "ms"),
    ("server.json.response_bytes", "bytes"),
    ("server.handle_ms", "ms"),
    ("server.registry.resident_bytes", "bytes"),
    ("fsp.parse_ms", "ms"),
    ("expr.parse_ms", "ms"),
    ("expr.construct_ms", "ms"),
    ("fsp.closure_ms", "ms"),
    ("fsp.view_ms", "ms"),
    ("fsp.weak_edges", "count"),
    ("partition.instance_ms", "ms"),
    ("partition.refine_ms", "ms"),
    ("partition.blocks", "count"),
    ("equiv.det_classify_ms", "ms"),
    ("equiv.arena_subsets", "count"),
    ("equiv.arena_steps", "count"),
    ("equiv.otf_ms", "ms"),
    ("equiv.otf_pairs_visited", "count"),
    ("equiv.otf_cache_hit_ratio", "ratio"),
    ("equiv.pair_ms", "ms"),
    ("equiv.apply_delta_ms", "ms"),
    ("equiv.weak_rows_changed", "count"),
    ("equiv.partitions_delta_refined", "count"),
    ("equiv.session_bytes", "bytes"),
    ("trace.overhead_pct", "%"),
    ("trace.unaccounted_pct", "%"),
];

/// Pair queries on determinizable notions go on the fly at this many
/// states: the server's default, which the benchmark pins by removing
/// `CCS_OTF_THRESHOLD` from the environment.
const OTF_THRESHOLD: usize = 512;

/// Round trips per wire probe.
const PINGS: usize = 25;

/// Span totals (ns) and counters, keyed by metric name.
#[derive(Debug, Default)]
struct Tracer {
    spans: BTreeMap<&'static str, u128>,
    values: BTreeMap<&'static str, f64>,
}

impl Tracer {
    fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = black_box(f());
        *self.spans.entry(name).or_default() += start.elapsed().as_nanos();
        out
    }

    fn add(&mut self, name: &'static str, value: f64) {
        *self.values.entry(name).or_default() += value;
    }

    fn peak(&mut self, name: &'static str, value: f64) {
        let slot = self.values.entry(name).or_default();
        *slot = slot.max(value);
    }

    fn covered_ns(&self) -> u128 {
        self.spans.values().sum()
    }
}

/// Per-replay state beyond the service itself.
#[derive(Default)]
struct Replay {
    session: String,
    /// Weak-edge counts already taken, once per session and artifact.
    counted: HashSet<(String, &'static str)>,
    /// Sessions that built a subset arena.
    det_sessions: HashSet<String>,
    /// Shadow sessions for `on_the_fly`, per session handle.
    otf_shadows: HashMap<String, EquivSession>,
    /// Shadow registry for `mutate`, and the shadow's handle per session.
    mutate_shadow: Option<(Registry, HashMap<String, String>)>,
    otf_calls: usize,
    otf_hits: usize,
    engine_mismatches: usize,
}

pub fn run(options: &Options, plan: &Plan, binary: &Path) -> Result<Report, String> {
    let mut t = Tracer::default();
    let traced_start = Instant::now();
    probe_wire(binary, &mut t)?;

    let service = Service::new(RegistryConfig::default());
    let mut replay = Replay::default();
    if !plan.batches.is_empty() {
        replay.mutate_shadow = Some((Registry::new(RegistryConfig::default()), HashMap::new()));
    }
    let mut records = Vec::new();
    let mut lines = Vec::new();
    let replay_start = Instant::now();
    let steps = plan
        .setup
        .iter()
        .enumerate()
        .map(|(i, s)| (i, true, s))
        .chain(plan.cycle.iter().enumerate().map(|(i, s)| (i, false, s)));
    let budget = Duration::from_secs_f64(options.seconds);
    for (index, setup, step) in steps {
        if !setup && replay_start.elapsed() >= budget {
            break;
        }
        let line = plan.line(step, &replay.session);
        let reply = traced_request(plan, step, &line, &service, &mut replay, &mut t);
        if step.req == Req::Open {
            replay.session = json::parse(&reply)
                .ok()
                .and_then(|v| v.get("session").and_then(|s| s.as_str().map(str::to_owned)))
                .unwrap_or_default();
            if let Some((_, handles)) = &mut replay.mutate_shadow {
                if let Some(shadow) = handles.remove("") {
                    handles.insert(replay.session.clone(), shadow);
                }
            }
        }
        records.push(Record {
            step: index,
            setup,
            latency_ns: 0,
            reply: Ok(reply),
        });
        lines.push(line);
    }
    let replay_ns = replay_start.elapsed().as_nanos();
    let traced_ns = traced_start.elapsed().as_nanos();

    // The same requests with nothing timed but the whole loop.
    let plain = Service::new(RegistryConfig::default());
    let plain_start = Instant::now();
    for line in &lines {
        black_box(plain.handle_line(line));
    }
    let plain_ns = plain_start.elapsed().as_nanos();

    let checked = oracle::check(plan, &records, options.corrupt_oracle);
    let mut report = Report {
        correct: checked.failed == 0,
        attempted: records.len(),
        failed: checked.failed,
        ..Report::default()
    };
    let calls = replay.otf_calls.max(1) as f64;
    t.values
        .insert("equiv.otf_cache_hit_ratio", replay.otf_hits as f64 / calls);
    let overhead = (replay_ns as f64 - plain_ns as f64) / plain_ns.max(1) as f64 * 100.0;
    let unaccounted = (traced_ns as f64 - t.covered_ns() as f64) / traced_ns.max(1) as f64 * 100.0;
    t.values.insert("trace.overhead_pct", overhead);
    t.values.insert("trace.unaccounted_pct", unaccounted);

    report.log.push(format!(
        "traced {}: {} requests replayed in {:.3} s (untraced in process: {:.3} s); traced wall {:.3} s",
        plan.workload.name(),
        records.len(),
        replay_ns as f64 / 1e9,
        plain_ns as f64 / 1e9,
        traced_ns as f64 / 1e9
    ));
    for (name, unit) in METRICS {
        let line = match t.spans.get(name) {
            Some(&ns) => {
                let value = ns as f64 / 1e6;
                report.metrics.push(crate::Metric { name, value, unit });
                format!(
                    "{name:<34} {value:>12.3} {unit:<6} {:>6.2}% of traced wall",
                    ns as f64 / traced_ns as f64 * 100.0
                )
            }
            None => {
                let value = t.values.get(name).copied().unwrap_or(0.0);
                report.metrics.push(crate::Metric { name, value, unit });
                format!("{name:<34} {value:>12.3} {unit}")
            }
        };
        report.log.push(line);
    }
    report.log.push(format!(
        "wire probes: {PINGS} pings each; on-the-fly calls {} (cache hits {}); engine mismatches {}",
        replay.otf_calls, replay.otf_hits, replay.engine_mismatches
    ));
    report.log.push(format!(
        "error_rate {} ({} of {} replies failed their check)",
        checked.failed as f64 / records.len().max(1) as f64,
        checked.failed,
        checked.checked
    ));
    report
        .log
        .extend(checked.errors.iter().map(|e| format!("check failed: {e}")));
    Ok(report)
}

/// `server.wire.ping_ms` (raw line round trips, `TCP_NODELAY`, one write
/// each) and `server.client.ping_ms` (`ccs_server::Client::ping`) against a
/// real server child.
fn probe_wire(binary: &Path, t: &mut Tracer) -> Result<(), String> {
    let server = Server::spawn(binary)?;
    let mut conn = Conn::connect(server.addr).map_err(|e| format!("connect: {e}"))?;
    let mut client = Client::connect(server.addr).map_err(|e| format!("connect: {e}"))?;
    // One untimed round trip each, so connection set-up is not counted.
    conn.call(r#"{"op":"ping"}"#).map_err(|e| e.to_string())?;
    client.ping().map_err(|e| e.to_string())?;
    for _ in 0..PINGS {
        let reply = t.span("server.wire.ping_ms", || conn.call(r#"{"op":"ping"}"#));
        reply.map_err(|e| format!("wire ping: {e}"))?;
    }
    for _ in 0..PINGS {
        let pong = t.span("server.client.ping_ms", || client.ping());
        if !pong.map_err(|e| format!("client ping: {e}"))? {
            return Err("client ping got no pong".into());
        }
    }
    Ok(())
}

/// One request: force the layers it needs, then `handle_line`.
fn traced_request(
    plan: &Plan,
    step: &Step,
    line: &str,
    service: &Service,
    replay: &mut Replay,
    t: &mut Tracer,
) -> String {
    t.add("server.json.request_bytes", line.len() as f64);
    let _ = t.span("server.json.parse_ms", || ccs_server::json::parse(line));
    match &step.req {
        Req::Open => open_layers(plan, step, replay, t),
        Req::Classify(notion) | Req::Partition(notion) => {
            if let Ok(session) = service.registry().get(&replay.session) {
                force(&session, *notion, true, replay, t);
            }
        }
        Req::Pair(notion, l, r) => pair_layers(service, *notion, l, r, replay, t),
        Req::Mutate(b) => mutate_shadow(plan, *b, replay, t),
        Req::Close => {
            if let Ok(session) = service.registry().get(&replay.session) {
                if replay.det_sessions.remove(&replay.session) {
                    t.add("equiv.arena_subsets", session.subset_arena_size() as f64);
                    t.add("equiv.arena_steps", session.subset_steps_computed() as f64);
                }
                t.peak(
                    "equiv.session_bytes",
                    session.approx_resident_bytes() as f64,
                );
            }
            replay.otf_shadows.remove(&replay.session);
        }
    }
    let reply = t.span("server.handle_ms", || service.handle_line(line));
    t.add("server.json.response_bytes", reply.len() as f64);
    if let Ok(value) = json::parse(&reply) {
        if let (Req::Pair(notion, ..), Some(engine)) =
            (&step.req, value.get("engine").and_then(|e| e.as_str()))
        {
            let predicted = if otf_route(*notion, &replay.session, service) {
                "on-the-fly"
            } else {
                "coalesced"
            };
            if engine != predicted {
                replay.engine_mismatches += 1;
            }
        }
        let value = value.to_server_json();
        t.span("server.json.serialize_ms", || value.to_string());
    }
    if !matches!(step.req, Req::Pair(..)) {
        let stats = service.registry().stats();
        t.peak(
            "server.registry.resident_bytes",
            stats.resident_bytes as f64,
        );
        if let Ok(session) = service.registry().get(&replay.session) {
            t.peak(
                "equiv.session_bytes",
                session.approx_resident_bytes() as f64,
            );
        }
    }
    reply
}

fn open_layers(plan: &Plan, step: &Step, replay: &mut Replay, t: &mut Tracer) {
    let model = &plan.models[step.model];
    let fsp: Option<Fsp> = match model.format {
        Format::Fsp => t.span("fsp.parse_ms", || format::parse(&model.text)).ok(),
        Format::Ccs => t
            .span("expr.parse_ms", || ccs_expr::parse(&model.text))
            .ok()
            .map(|e| {
                t.span("expr.construct_ms", || {
                    ccs_expr::construct::representative(&e)
                })
            }),
    };
    if let (Some((registry, handles)), Some(fsp)) = (&mut replay.mutate_shadow, fsp) {
        // Bound to the real handle once the open reply names it.
        let (id, _) = registry.open(fsp);
        handles.insert(String::new(), id);
    }
}

fn otf_route(notion: Equivalence, session: &str, service: &Service) -> bool {
    let determinizable = matches!(
        notion,
        Equivalence::Language | Equivalence::Trace | Equivalence::Failure
    );
    determinizable
        && service
            .registry()
            .get(session)
            .is_ok_and(|s| s.fsp().num_states() >= OTF_THRESHOLD)
}

/// Forces the lazy artifacts behind `notion` on `session`, in the order
/// the server builds them.  With `classify`, the notion's full partition
/// too (a determinizable `pair` on the on-the-fly route never builds it).
fn force(
    session: &EquivSession,
    notion: Equivalence,
    classify: bool,
    replay: &mut Replay,
    t: &mut Tracer,
) {
    let id = replay.session.clone();
    let before = session.refinements_run();
    match notion {
        Equivalence::Strong => {
            t.span("partition.instance_ms", || session.strong_instance());
            t.span("partition.refine_ms", || session.classify_all(notion));
        }
        Equivalence::Observational => {
            t.span("fsp.closure_ms", || session.tau_closure());
            // The server streams weak edges straight into the CSR instance;
            // it builds no saturated view for observational queries.
            let edges = t.span("partition.instance_ms", || {
                session.weak_instance().num_edges()
            });
            if replay.counted.insert((id.clone(), "weak_edges")) {
                t.add("fsp.weak_edges", edges as f64);
            }
            t.span("partition.refine_ms", || session.classify_all(notion));
        }
        _ => {
            t.span("fsp.closure_ms", || session.tau_closure());
            let edges = t.span("fsp.view_ms", || session.saturated_view().num_weak_edges());
            if replay.counted.insert((id.clone(), "view_edges")) {
                t.add("fsp.weak_edges", edges as f64);
            }
            if classify {
                t.span("equiv.det_classify_ms", || session.classify_all(notion));
            }
            replay.det_sessions.insert(id.clone());
        }
    }
    if session.refinements_run() > before {
        t.add(
            "partition.blocks",
            session.classify_all(notion).num_blocks() as f64,
        );
    }
    // Keep the mutate shadow's memo in step with the real session's.
    if let Some((registry, handles)) = &replay.mutate_shadow {
        if let Some(shadow) = handles.get(&id).and_then(|h| registry.get(h).ok()) {
            shadow.classify_all(notion);
        }
    }
}

fn pair_layers(
    service: &Service,
    notion: Equivalence,
    l: &str,
    r: &str,
    replay: &mut Replay,
    t: &mut Tracer,
) {
    let Ok(session) = service.registry().get(&replay.session) else {
        return;
    };
    let (Some(p), Some(q)) = (state(session.fsp(), l), state(session.fsp(), r)) else {
        return;
    };
    if otf_route(notion, &replay.session, service) {
        force(&session, notion, false, replay, t);
        let shadow = replay
            .otf_shadows
            .entry(replay.session.clone())
            .or_insert_with(|| {
                let shadow = EquivSession::new(session.fsp().clone());
                shadow.saturated_view();
                shadow
            });
        if let Ok(outcome) = t.span("equiv.otf_ms", || shadow.on_the_fly(notion, p, q)) {
            replay.otf_calls += 1;
            replay.otf_hits += usize::from(outcome.stats.cache_hit);
            t.add(
                "equiv.otf_pairs_visited",
                outcome.stats.pairs_visited as f64,
            );
        }
    } else {
        force(&session, notion, true, replay, t);
        t.span("equiv.pair_ms", || session.equivalent_states(p, q, notion));
    }
}

/// Times `Registry::mutate` on the shadow registry.  No `Arc` of the
/// shadow session is alive here, so the shadow takes the same in-place
/// path as the server's own registry (whose handle this replay has
/// already dropped).
fn mutate_shadow(plan: &Plan, batch: usize, replay: &mut Replay, t: &mut Tracer) {
    let Some((registry, handles)) = &replay.mutate_shadow else {
        return;
    };
    let Some(id) = handles.get(&replay.session) else {
        return;
    };
    let edges = {
        let Ok(shadow) = registry.get(id) else {
            return;
        };
        let fsp = shadow.fsp();
        let resolve = |list: &[(String, String, String)]| -> Vec<(StateId, Label, StateId)> {
            list.iter()
                .filter_map(|(f, a, to)| {
                    let label = match a.as_str() {
                        "tau" => Label::Tau,
                        name => Label::Act(fsp.action_id(name)?),
                    };
                    Some((state(fsp, f)?, label, state(fsp, to)?))
                })
                .collect()
        };
        let b = &plan.batches[batch];
        (resolve(&b.add), resolve(&b.remove))
    };
    if let Ok(outcome) = t.span("equiv.apply_delta_ms", || {
        registry.mutate(id, &edges.0, &edges.1)
    }) {
        t.add("equiv.weak_rows_changed", outcome.weak_rows_changed as f64);
        t.add(
            "equiv.partitions_delta_refined",
            outcome.partitions_delta_refined as f64,
        );
    }
}

fn state(fsp: &Fsp, name: &str) -> Option<StateId> {
    fsp.state_by_name(name).or_else(|| {
        let index: usize = name.strip_prefix('s')?.parse().ok()?;
        let id = StateId::from_index(index);
        (fsp.contains_state(id) && fsp.state_name(id).is_none()).then_some(id)
    })
}
