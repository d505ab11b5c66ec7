//! Request dispatch: one JSON object in, one JSON object out.
//!
//! Every request is a single-line JSON object with an `"op"` field; every
//! response is a single-line JSON object with `"ok": true` plus op-specific
//! fields, or `"ok": false` plus the stable error `"code"` (see
//! [`EquivError::code`]) and a human-readable `"message"`.  The full
//! request/response vocabulary is documented in `docs/PROTOCOL.md` at the
//! repository root.
//!
//! `pair`, `classify` and `partition` answer from the session's memoized
//! partition ([`EquivSession::classify_all`]).  The memo is single-flight,
//! so `m` concurrent queries on one session and notion run one refinement;
//! the `"coalesced"` engine value names this path.
//!
//! `pair` queries on determinizable notions (`language`, `trace`,
//! `failure`) against models of at least 512 states skip the partition and
//! run [`EquivSession::on_the_fly`] instead: the engine stops at the first
//! distinguishing pair instead of materializing the full determinized
//! partition, and refutations come back with a replayable witness.  The
//! response's `"engine"` field says which path answered.

use std::str::FromStr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use ccs_equiv::{EquivError, EquivSession, Equivalence};
use ccs_fsp::{format, Fsp, Label, StateId};

use crate::json::{self, Json};
use crate::registry::{Registry, RegistryConfig};

/// Model size (states) from which determinizable `pair` queries run on the
/// fly instead of forcing the whole determinized partition.
const OTF_THRESHOLD: usize = 512;

/// The `"ok": false` response line (without the trailing newline) that
/// reports `error` by its stable code and message.
pub(crate) fn error_line(error: &EquivError) -> String {
    Json::obj([
        ("ok", Json::Bool(false)),
        ("code", Json::str(error.code())),
        ("message", Json::str(error.to_string())),
    ])
    .to_string()
}

/// The shared, thread-safe request handler: a [`Registry`] of sessions plus
/// the routing between the session memo and the on-the-fly engine.  One
/// `Service` serves every connection of a server; it is also usable
/// directly (no socket) for in-process embedding and tests.
#[derive(Debug)]
pub struct Service {
    registry: Registry,
    otf_threshold: usize,
    /// Answered `pair` requests, whichever engine answered them.
    pair_queries: AtomicUsize,
}

impl Default for Service {
    fn default() -> Self {
        Service::new(RegistryConfig::default())
    }
}

impl Service {
    /// A service with the given registry limits; determinizable `pair`
    /// queries run on the fly from 512 states up.
    #[must_use]
    pub fn new(config: RegistryConfig) -> Self {
        Service::with_otf_threshold(config, OTF_THRESHOLD)
    }

    /// A service with an explicit on-the-fly threshold in states (`0` routes
    /// every eligible query on the fly; exposed so tests and embedders can
    /// force either `pair` path deterministically).
    #[must_use]
    pub fn with_otf_threshold(config: RegistryConfig, otf_threshold: usize) -> Self {
        Service {
            registry: Registry::new(config),
            otf_threshold,
            pair_queries: AtomicUsize::new(0),
        }
    }

    /// The session registry (exposed for embedding and tests).
    #[must_use]
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Handles one request line, returning exactly one response line
    /// (without the trailing newline).  Never panics on malformed input —
    /// every failure becomes an `"ok": false` response.
    #[must_use]
    pub fn handle_line(&self, line: &str) -> String {
        match self
            .parse_request(line)
            .and_then(|request| self.dispatch(&request))
        {
            Ok(response) => response.to_string(),
            Err(error) => error_line(&error),
        }
    }

    fn parse_request(&self, line: &str) -> Result<Json, EquivError> {
        let value = json::parse(line).map_err(EquivError::bad_request)?;
        if value.as_obj().is_none() {
            return Err(EquivError::bad_request("request must be a JSON object"));
        }
        Ok(value)
    }

    fn dispatch(&self, request: &Json) -> Result<Json, EquivError> {
        let op = str_field(request, "op")?;
        match op {
            "ping" => Ok(Json::obj([
                ("ok", Json::Bool(true)),
                ("pong", Json::Bool(true)),
            ])),
            "open" => self.op_open(request),
            "pair" => self.op_pair(request),
            "classify" => self.op_classify(request),
            "partition" => self.op_partition(request),
            "mutate" => self.op_mutate(request),
            "close" => self.op_close(request),
            "stats" => Ok(self.op_stats()),
            other => Err(EquivError::bad_request(format!(
                "unknown op {other:?} (expected one of: ping, open, pair, classify, \
                 partition, mutate, close, stats)"
            ))),
        }
    }

    fn op_open(&self, request: &Json) -> Result<Json, EquivError> {
        let text = str_field(request, "text")?;
        let fsp = match request.get("format").and_then(Json::as_str) {
            None | Some("fsp") => format::parse(text)?,
            Some("ccs") => {
                let expr = ccs_expr::parse(text).map_err(|e| EquivError::Expression {
                    message: e.to_string(),
                })?;
                ccs_expr::construct::representative(&expr)
            }
            Some(other) => {
                return Err(EquivError::bad_request(format!(
                    "unknown format {other:?} (expected \"fsp\" or \"ccs\")"
                )))
            }
        };
        let states = fsp.num_states();
        let transitions = fsp.num_transitions();
        let (id, _) = self.registry.open(fsp);
        Ok(Json::obj([
            ("ok", Json::Bool(true)),
            ("session", Json::Str(id)),
            ("states", as_num(states)),
            ("transitions", as_num(transitions)),
        ]))
    }

    fn op_pair(&self, request: &Json) -> Result<Json, EquivError> {
        let session = self.session_of(request)?;
        let notion = notion_field(request)?;
        let p = state_field(&session, request, "left")?;
        let q = state_field(&session, request, "right")?;
        // Oversize models on determinizable notions skip the partition: the
        // on-the-fly engine stops at the first distinguishing pair instead
        // of forcing the whole determinized partition, and everything it
        // learns still lands in the shared session caches.
        let determinizable = matches!(
            notion,
            Equivalence::Language | Equivalence::Trace | Equivalence::Failure
        );
        let reply = if determinizable && session.fsp().num_states() >= self.otf_threshold {
            let outcome = session.on_the_fly(notion, p, q)?;
            let mut fields = vec![
                ("ok", Json::Bool(true)),
                ("equivalent", Json::Bool(outcome.equivalent)),
                ("notion", Json::str(notion.to_string())),
                ("engine", Json::str("on-the-fly")),
                ("explored", as_num(outcome.stats.arena_subsets)),
            ];
            if let Some(witness) = outcome.witness {
                let trace = Json::Arr(witness.trace.iter().map(Json::str).collect());
                let refusal = witness.refusal.map_or(Json::Null, |set| {
                    Json::Arr(set.iter().map(Json::str).collect())
                });
                fields.push((
                    "witness",
                    Json::obj([("trace", trace), ("refusal", refusal)]),
                ));
            }
            Json::obj(fields)
        } else {
            // Always the whole partition, never the session's per-pair
            // cache: concurrent pairs share the one memoized refinement.
            let equivalent = session
                .classify_all(notion)
                .same_block(p.index(), q.index());
            Json::obj([
                ("ok", Json::Bool(true)),
                ("equivalent", Json::Bool(equivalent)),
                ("notion", Json::str(notion.to_string())),
                ("engine", Json::str("coalesced")),
            ])
        };
        self.pair_queries.fetch_add(1, Ordering::Relaxed);
        Ok(reply)
    }

    fn op_classify(&self, request: &Json) -> Result<Json, EquivError> {
        let session = self.session_of(request)?;
        let notion = notion_field(request)?;
        let partition = session.classify_all(notion);
        let fsp = session.fsp();
        let blocks: Vec<Json> = partition
            .blocks()
            .iter()
            .map(|block| {
                Json::Arr(
                    block
                        .iter()
                        .map(|&i| Json::str(state_label(fsp, i.index())))
                        .collect(),
                )
            })
            .collect();
        Ok(Json::obj([
            ("ok", Json::Bool(true)),
            ("classes", as_num(partition.num_blocks())),
            ("blocks", Json::Arr(blocks)),
            ("notion", Json::str(notion.to_string())),
        ]))
    }

    fn op_partition(&self, request: &Json) -> Result<Json, EquivError> {
        let session = self.session_of(request)?;
        let notion = notion_field(request)?;
        let partition = session.classify_all(notion);
        let fsp = session.fsp();
        let assignment = partition
            .assignment()
            .enumerate()
            .map(|(i, block)| (state_label(fsp, i), as_num(block)))
            .collect();
        Ok(Json::obj([
            ("ok", Json::Bool(true)),
            ("classes", as_num(partition.num_blocks())),
            ("assignment", Json::Obj(assignment)),
            ("notion", Json::str(notion.to_string())),
        ]))
    }

    fn op_mutate(&self, request: &Json) -> Result<Json, EquivError> {
        let id = str_field(request, "session")?.to_owned();
        let session = self.registry.get(&id)?;
        let additions = edge_list(&session, request, "add")?;
        let removals = edge_list(&session, request, "remove")?;
        // Unshare before mutating so the registry can apply the delta in
        // place instead of swapping in a rebuilt session.
        drop(session);
        let outcome = self.registry.mutate(&id, &additions, &removals)?;
        Ok(Json::obj([
            ("ok", Json::Bool(true)),
            ("added", as_num(outcome.effective_additions)),
            ("removed", as_num(outcome.effective_removals)),
            ("tau_touched", Json::Bool(outcome.tau_touched)),
            ("weak_rows_changed", as_num(outcome.weak_rows_changed)),
            ("view_patched", Json::Bool(outcome.view_patched)),
            ("arena_dropped", Json::Bool(outcome.arena_dropped)),
            (
                "partitions_delta_refined",
                as_num(outcome.partitions_delta_refined),
            ),
        ]))
    }

    fn op_close(&self, request: &Json) -> Result<Json, EquivError> {
        let id = str_field(request, "session")?;
        let closed = self.registry.close(id);
        Ok(Json::obj([
            ("ok", Json::Bool(true)),
            ("closed", Json::Bool(closed)),
        ]))
    }

    fn op_stats(&self) -> Json {
        let registry = self.registry.stats();
        Json::obj([
            ("ok", Json::Bool(true)),
            ("sessions", as_num(registry.sessions)),
            ("resident_bytes", as_num(registry.resident_bytes)),
            ("evictions", as_num(registry.evictions)),
            ("refinements", as_num(registry.refinements)),
            (
                "pair_queries",
                as_num(self.pair_queries.load(Ordering::Relaxed)),
            ),
        ])
    }

    fn session_of(&self, request: &Json) -> Result<Arc<EquivSession>, EquivError> {
        self.registry.get(str_field(request, "session")?)
    }
}

fn as_num(n: usize) -> Json {
    Json::Num(i64::try_from(n).unwrap_or(i64::MAX))
}

fn state_label(fsp: &Fsp, index: usize) -> String {
    let id = StateId::from_index(index);
    fsp.state_name(id)
        .map_or_else(|| fsp.state_label(id), str::to_owned)
}

fn str_field<'a>(request: &'a Json, key: &str) -> Result<&'a str, EquivError> {
    request
        .get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| EquivError::bad_request(format!("missing string field {key:?}")))
}

fn notion_field(request: &Json) -> Result<Equivalence, EquivError> {
    Equivalence::from_str(str_field(request, "notion")?)
}

fn state_field(session: &EquivSession, request: &Json, key: &str) -> Result<StateId, EquivError> {
    resolve_state(session.fsp(), str_field(request, key)?)
}

fn resolve_state(fsp: &Fsp, name: &str) -> Result<StateId, EquivError> {
    if let Some(id) = fsp.state_by_name(name) {
        return Ok(id);
    }
    // Anonymous states (e.g. from the CCS representative construction) are
    // addressed by the same `s<i>` label that `classify` reports for them.
    if let Some(index) = name.strip_prefix('s').and_then(|d| d.parse().ok()) {
        let id = StateId::from_index(index);
        if fsp.contains_state(id) && fsp.state_name(id).is_none() {
            return Ok(id);
        }
    }
    Err(EquivError::bad_request(format!(
        "process has no state named {name:?}"
    )))
}

/// Parses a `mutate` edge list: an array of `[from, label, to]` name
/// triples, where the label is an action name or `"tau"`.  A missing field
/// is an empty list; a mutation rewires the existing state space and
/// alphabet, so unknown names are rejected rather than interned.
fn edge_list(
    session: &EquivSession,
    request: &Json,
    key: &str,
) -> Result<Vec<(StateId, Label, StateId)>, EquivError> {
    let Some(value) = request.get(key) else {
        return Ok(Vec::new());
    };
    let shape = || {
        EquivError::bad_request(format!(
            "field {key:?} must be an array of [from, label, to] name triples"
        ))
    };
    let fsp = session.fsp();
    value
        .as_arr()
        .ok_or_else(shape)?
        .iter()
        .map(|item| {
            let triple = item.as_arr().filter(|t| t.len() == 3).ok_or_else(shape)?;
            let part = |i: usize| triple[i].as_str().ok_or_else(shape);
            let from = resolve_state(fsp, part(0)?)?;
            let to = resolve_state(fsp, part(2)?)?;
            let label = match part(1)? {
                "tau" => Label::Tau,
                name => Label::Act(fsp.action_id(name).ok_or_else(|| {
                    EquivError::bad_request(format!("process has no action named {name:?}"))
                })?),
            };
            Ok((from, label, to))
        })
        .collect()
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Four 100 000-deep request lines and the stable code each must get:
    /// nested JSON arrays, then nested parentheses and long `+` and `.`
    /// chains in a CCS expression.
    pub(crate) fn deep_request_lines() -> [(String, &'static str); 4] {
        const DEEP: usize = 100_000;
        let open = |text: String| format!(r#"{{"op":"open","format":"ccs","text":"{text}"}}"#);
        [
            (
                format!("{}{}", "[".repeat(DEEP), "]".repeat(DEEP)),
                "bad-request",
            ),
            (
                open(format!("{}0{}", "(".repeat(DEEP), ")".repeat(DEEP))),
                "expression",
            ),
            (open(vec!["a"; DEEP].join("+")), "expression"),
            (open(vec!["a"; DEEP].join(".")), "expression"),
        ]
    }

    fn open(service: &Service, text: &str) -> String {
        let escaped = Json::str(text).to_string();
        let response = service.handle_line(&format!(r#"{{"op":"open","text":{escaped}}}"#));
        let value = json::parse(&response).unwrap();
        assert_eq!(value.get("ok"), Some(&Json::Bool(true)), "{response}");
        value.get("session").unwrap().as_str().unwrap().to_owned()
    }

    #[test]
    fn open_pair_classify_close_round_trip() {
        let service = Service::default();
        let id = open(&service, "trans p tau q\ntrans q a r\ntrans s a t");

        let response = service.handle_line(&format!(
            r#"{{"op":"pair","session":"{id}","notion":"observational","left":"p","right":"s"}}"#
        ));
        let value = json::parse(&response).unwrap();
        assert_eq!(value.get("equivalent"), Some(&Json::Bool(true)));

        let response = service.handle_line(&format!(
            r#"{{"op":"classify","session":"{id}","notion":"observational"}}"#
        ));
        let value = json::parse(&response).unwrap();
        assert_eq!(value.get("classes").and_then(Json::as_i64), Some(2));

        let response = service.handle_line(&format!(
            r#"{{"op":"partition","session":"{id}","notion":"strong"}}"#
        ));
        let value = json::parse(&response).unwrap();
        let assignment = value.get("assignment").unwrap().as_obj().unwrap();
        assert_eq!(assignment.len(), 5);

        let response = service.handle_line(&format!(r#"{{"op":"close","session":"{id}"}}"#));
        let value = json::parse(&response).unwrap();
        assert_eq!(value.get("closed"), Some(&Json::Bool(true)));

        // The handle is now dead.
        let response = service.handle_line(&format!(
            r#"{{"op":"pair","session":"{id}","notion":"strong","left":"p","right":"q"}}"#
        ));
        let value = json::parse(&response).unwrap();
        assert_eq!(value.get("ok"), Some(&Json::Bool(false)));
        assert_eq!(
            value.get("code").and_then(Json::as_str),
            Some("unknown-session")
        );
    }

    #[test]
    fn mutate_rewires_a_live_session() {
        let service = Service::default();
        let id = open(
            &service,
            "trans p tau q\ntrans q a r\ntrans s a t\ntrans u a v",
        );
        // Before the edit, s and u are observationally equivalent to p.
        let pair = |left: &str, right: &str| {
            let value = json::parse(&service.handle_line(&format!(
                r#"{{"op":"pair","session":"{id}","notion":"observational","left":"{left}","right":"{right}"}}"#
            )))
            .unwrap();
            value.get("equivalent").and_then(Json::as_bool).unwrap()
        };
        assert!(pair("p", "s"));
        // Rewire: s loses its a-edge to t and instead τ-steps to u.
        let value = json::parse(&service.handle_line(&format!(
            r#"{{"op":"mutate","session":"{id}","add":[["s","tau","u"]],"remove":[["s","a","t"]]}}"#
        )))
        .unwrap();
        assert_eq!(value.get("ok"), Some(&Json::Bool(true)), "{value:?}");
        assert_eq!(value.get("added").and_then(Json::as_i64), Some(1));
        assert_eq!(value.get("removed").and_then(Json::as_i64), Some(1));
        assert_eq!(value.get("tau_touched"), Some(&Json::Bool(true)));
        // Same handle, new answers: s still weakly does `a`, via u.
        assert!(pair("p", "s"));
        assert!(pair("s", "u"));

        // Unknown names are rejected without touching the session.
        for bad in [
            format!(r#"{{"op":"mutate","session":"{id}","add":[["zz","a","p"]]}}"#),
            format!(r#"{{"op":"mutate","session":"{id}","add":[["p","zap","q"]]}}"#),
            format!(r#"{{"op":"mutate","session":"{id}","add":["p a q"]}}"#),
        ] {
            let value = json::parse(&service.handle_line(&bad)).unwrap();
            assert_eq!(value.get("ok"), Some(&Json::Bool(false)), "{bad}");
            assert_eq!(
                value.get("code").and_then(Json::as_str),
                Some("bad-request"),
                "{bad}"
            );
        }
        let value = json::parse(
            &service.handle_line(r#"{"op":"mutate","session":"s999","add":[["p","a","q"]]}"#),
        )
        .unwrap();
        assert_eq!(
            value.get("code").and_then(Json::as_str),
            Some("unknown-session")
        );
    }

    /// A deep `≈ₖ` request answers from the hierarchy's fixpoint on a
    /// default-sized thread stack, the stack a connection thread gets: the
    /// level walk's stack depth does not grow with `k`.
    #[test]
    fn deep_kobs_classify_answers_on_a_connection_sized_stack() {
        let service = Service::default();
        let id = open(&service, "trans p a q\ntrans q b r");
        let response = std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    service.handle_line(&format!(
                        r#"{{"op":"classify","session":"{id}","notion":"k-observational-5000"}}"#
                    ))
                })
                .join()
                .expect("the request thread survives")
        });
        let value = json::parse(&response).unwrap();
        assert_eq!(value.get("ok"), Some(&Json::Bool(true)), "{response}");
    }

    /// Lines nested 100 000 deep, in JSON or in a CCS expression, get their
    /// stable error codes on a connection-sized (2 MiB) stack instead of
    /// aborting the process, and the service answers afterwards.
    #[test]
    fn deep_request_lines_get_stable_codes_on_a_connection_sized_stack() {
        let cases = deep_request_lines();
        let service = Service::default();
        std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    for (line, code) in &cases {
                        let value = json::parse(&service.handle_line(line)).unwrap();
                        assert_eq!(value.get("code").and_then(Json::as_str), Some(*code));
                    }
                    let pong = json::parse(&service.handle_line(r#"{"op":"ping"}"#)).unwrap();
                    assert_eq!(pong.get("pong"), Some(&Json::Bool(true)));
                })
                .join()
                .expect("the request thread survives");
        });
    }

    #[test]
    fn ccs_expressions_open_via_the_representative_construction() {
        let service = Service::default();
        let response = service.handle_line(r#"{"op":"open","format":"ccs","text":"(a+b).c"}"#);
        let value = json::parse(&response).unwrap();
        assert_eq!(value.get("ok"), Some(&Json::Bool(true)), "{response}");
        assert!(value.get("states").and_then(Json::as_i64).unwrap() > 0);
    }

    #[test]
    fn every_failure_mode_has_its_stable_code() {
        let service = Service::default();
        let cases = [
            ("not json at all", "bad-request"),
            (r#"{"op":"warp"}"#, "bad-request"),
            (r#"{"op":"open","text":"trans"}"#, "process"),
            (r#"{"op":"open","format":"ccs","text":"((("}"#, "expression"),
            (
                r#"{"op":"pair","session":"s999","notion":"strong","left":"p","right":"q"}"#,
                "unknown-session",
            ),
        ];
        for (line, code) in cases {
            let value = json::parse(&service.handle_line(line)).unwrap();
            assert_eq!(value.get("ok"), Some(&Json::Bool(false)), "{line}");
            assert_eq!(
                value.get("code").and_then(Json::as_str),
                Some(code),
                "{line}"
            );
        }
        // Unknown notion and unknown state need a live session.
        let id = open(&service, "trans p a q");
        let value = json::parse(&service.handle_line(&format!(
            r#"{{"op":"pair","session":"{id}","notion":"telepathy","left":"p","right":"q"}}"#
        )))
        .unwrap();
        assert_eq!(
            value.get("code").and_then(Json::as_str),
            Some("unknown-notion")
        );
        let value = json::parse(&service.handle_line(&format!(
            r#"{{"op":"pair","session":"{id}","notion":"strong","left":"p","right":"zz"}}"#
        )))
        .unwrap();
        assert_eq!(
            value.get("code").and_then(Json::as_str),
            Some("bad-request")
        );
    }

    #[test]
    fn oversize_determinizable_pairs_route_on_the_fly() {
        // Threshold 0: every eligible pair query takes the on-the-fly path.
        let service = Service::with_otf_threshold(RegistryConfig::default(), 0);
        let id = open(
            &service,
            "trans p a q\ntrans p a r\ntrans q b s\ntrans r c s\n\
             trans u a v\ntrans v b w\ntrans v c w\naccept p q r s u v w",
        );
        // a.b + a.c vs a.(b + c): trace-equivalent…
        let value = json::parse(&service.handle_line(&format!(
            r#"{{"op":"pair","session":"{id}","notion":"trace","left":"p","right":"u"}}"#
        )))
        .unwrap();
        assert_eq!(value.get("equivalent"), Some(&Json::Bool(true)));
        assert_eq!(
            value.get("engine").and_then(Json::as_str),
            Some("on-the-fly")
        );
        assert!(value.get("witness").is_none());
        // …but failure-inequivalent, with a replayable witness in the
        // response: the trace "a" plus a non-empty refusal set.
        let value = json::parse(&service.handle_line(&format!(
            r#"{{"op":"pair","session":"{id}","notion":"failure","left":"p","right":"u"}}"#
        )))
        .unwrap();
        assert_eq!(value.get("equivalent"), Some(&Json::Bool(false)));
        let witness = value.get("witness").expect("refutation carries a witness");
        let trace = witness.get("trace").unwrap();
        assert_eq!(trace, &Json::Arr(vec![Json::str("a")]));
        assert!(matches!(witness.get("refusal"), Some(Json::Arr(set)) if !set.is_empty()));
        // Branching-time notions answer from the partition regardless of size.
        let value = json::parse(&service.handle_line(&format!(
            r#"{{"op":"pair","session":"{id}","notion":"observational","left":"p","right":"u"}}"#
        )))
        .unwrap();
        assert_eq!(
            value.get("engine").and_then(Json::as_str),
            Some("coalesced")
        );
    }

    #[test]
    fn undersize_models_stay_on_the_coalesced_path() {
        let service = Service::with_otf_threshold(RegistryConfig::default(), 1_000_000);
        let id = open(&service, "trans p a q\ntrans r a q\naccept p q r");
        let value = json::parse(&service.handle_line(&format!(
            r#"{{"op":"pair","session":"{id}","notion":"trace","left":"p","right":"r"}}"#
        )))
        .unwrap();
        assert_eq!(value.get("equivalent"), Some(&Json::Bool(true)));
        assert_eq!(
            value.get("engine").and_then(Json::as_str),
            Some("coalesced")
        );
    }

    #[test]
    fn stats_report_coalescing_counters() {
        let service = Service::default();
        let id = open(&service, "trans p a q\ntrans r a q");
        for _ in 0..3 {
            let _ = service.handle_line(&format!(
                r#"{{"op":"pair","session":"{id}","notion":"strong","left":"p","right":"r"}}"#
            ));
        }
        let value = json::parse(&service.handle_line(r#"{"op":"stats"}"#)).unwrap();
        assert_eq!(value.get("sessions").and_then(Json::as_i64), Some(1));
        assert_eq!(value.get("pair_queries").and_then(Json::as_i64), Some(3));
        // All three sequential queries hit the session cache after the
        // first: exactly one refinement ever ran.
        assert_eq!(value.get("refinements").and_then(Json::as_i64), Some(1));
        assert!(value.get("resident_bytes").and_then(Json::as_i64).unwrap() > 0);
    }
}
