//! Concurrent-serving integration test: a live TCP server, many client
//! threads issuing interleaved `pair` and `classify` queries, responses
//! byte-deterministic and identical to a direct [`EquivSession`] oracle —
//! and the coalescing evidence: one wave of concurrent pair queries on one
//! `(session, notion)` runs exactly one refinement of the session memo.

use std::collections::BTreeMap;
use std::sync::Barrier;
use std::time::Duration;

use ccs_equiv::{EquivSession, Equivalence, Query};
use ccs_fsp::format;
use ccs_server::{Client, Json, Server, Service};

/// The process every test serves: τ-absorption plus a dead tail, small
/// enough to enumerate all pairs, rich enough that notions disagree.
const PROCESS: &str = "trans p tau q\n\
                       trans q a r\n\
                       trans s a t\n\
                       trans u a v\n\
                       trans u b w\n\
                       accept r t\n";

const NOTIONS: [(&str, Equivalence); 4] = [
    ("strong", Equivalence::Strong),
    ("observational", Equivalence::Observational),
    ("language", Equivalence::Language),
    ("failure", Equivalence::Failure),
];

const STATES: [&str; 8] = ["p", "q", "r", "s", "t", "u", "v", "w"];

/// One verdict as a thread observed it: `((notion, left, right), answer)`.
type SeenVerdict = ((&'static str, &'static str, &'static str), bool);

fn spawn_server() -> ccs_server::ServerHandle {
    Server::bind("127.0.0.1:0", Service::default())
        .expect("bind ephemeral port")
        .spawn()
        .expect("spawn accept loop")
}

#[test]
fn eight_threads_agree_with_the_single_threaded_oracle() {
    let handle = spawn_server();

    // The oracle: the same process, queried directly through the library.
    let oracle_session = EquivSession::new(format::parse(PROCESS).unwrap());
    let fsp = oracle_session.fsp().clone();
    let mut oracle: BTreeMap<(&str, &str, &str), bool> = BTreeMap::new();
    for (name, notion) in NOTIONS {
        for l in STATES {
            for r in STATES {
                let p = fsp.state_by_name(l).unwrap();
                let q = fsp.state_by_name(r).unwrap();
                let verdict = Query::new(notion).pair(&oracle_session, p, q).unwrap();
                oracle.insert((name, l, r), verdict);
            }
        }
    }

    let session = {
        let mut client = Client::connect(handle.addr()).unwrap();
        client.open_fsp(PROCESS).unwrap().session
    };

    let threads = 8;
    let barrier = Barrier::new(threads);
    let results: Vec<Vec<SeenVerdict>> = std::thread::scope(|scope| {
        let mut workers = Vec::new();
        for t in 0..threads {
            let (barrier, session) = (&barrier, session.as_str());
            let addr = handle.addr();
            workers.push(scope.spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                barrier.wait();
                let mut seen = Vec::new();
                // Each thread walks the full battery in a different order so
                // queries interleave across notions and pairs.
                for step in 0..NOTIONS.len() {
                    let (name, _) = NOTIONS[(t + step) % NOTIONS.len()];
                    for (i, &l) in STATES.iter().enumerate() {
                        for (j, &r) in STATES.iter().enumerate() {
                            let (l, r) = if t % 2 == 0 { (l, r) } else { (r, l) };
                            let verdict = client.pair(session, name, l, r).unwrap();
                            seen.push(((name, l, r), verdict));
                            // Interleave whole-space classifications too.
                            if (i + j + t) % 13 == 0 {
                                let classes = client.classify(session, name).unwrap();
                                assert!(!classes.is_empty());
                            }
                        }
                    }
                }
                seen
            }));
        }
        workers.into_iter().map(|w| w.join().unwrap()).collect()
    });

    for thread_results in &results {
        for &((name, l, r), verdict) in thread_results {
            assert_eq!(
                verdict,
                oracle[&(name, l, r)],
                "{name} {l}~{r} must match the direct session oracle"
            );
        }
    }

    // Refinement accounting: Strong, Observational, Language and Failure
    // each cost exactly one refinement no matter how many threads asked.
    let mut client = Client::connect(handle.addr()).unwrap();
    let stats = client.stats().unwrap();
    assert_eq!(
        stats.refinements,
        NOTIONS.len(),
        "every notion must be classified exactly once across all threads"
    );
    assert_eq!(
        stats.pair_queries,
        threads * NOTIONS.len() * STATES.len() * STATES.len()
    );
}

#[test]
fn one_wave_of_concurrent_pairs_runs_one_refinement() {
    let handle = spawn_server();
    let session = {
        let mut client = Client::connect(handle.addr()).unwrap();
        client.open_fsp(PROCESS).unwrap().session
    };

    let threads = 8;
    let barrier = Barrier::new(threads);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            let (barrier, session) = (&barrier, session.as_str());
            let addr = handle.addr();
            scope.spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                barrier.wait();
                for _ in 0..25 {
                    assert!(client.pair(session, "observational", "p", "s").unwrap());
                    assert!(!client.pair(session, "observational", "p", "r").unwrap());
                }
            });
        }
    });

    let mut client = Client::connect(handle.addr()).unwrap();
    let stats = client.stats().unwrap();
    assert_eq!(stats.pair_queries, threads * 50);
    assert_eq!(
        stats.refinements, 1,
        "m concurrent pair queries on one (session, notion) must coalesce \
         into exactly one refinement"
    );
}

/// The `≈ₖ` hierarchy through the session memo: a wave of concurrent
/// `k-observational-2` queries shares one subset arena and runs exactly
/// one refinement per level (0, 1, 2) — the level memo is single-flight
/// just like the flat notions.
#[test]
fn concurrent_kobs_queries_coalesce_per_level() {
    // a.(b + c) vs a.b + a.c, all accepting: ≈₁-equivalent (same traces)
    // but ≈₂ tells the merged branch from the split one.
    let process = "trans p a q\ntrans q b r\ntrans q c s\n\
                   trans u a v\ntrans u a w\ntrans v b x\ntrans w c y\n\
                   accept p q r s u v w x y\n";
    let handle = spawn_server();
    let session = {
        let mut client = Client::connect(handle.addr()).unwrap();
        client.open_fsp(process).unwrap().session
    };

    let threads = 8;
    let barrier = Barrier::new(threads);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            let (barrier, session) = (&barrier, session.as_str());
            let addr = handle.addr();
            scope.spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                barrier.wait();
                for _ in 0..10 {
                    assert!(client.pair(session, "k-observational-1", "p", "u").unwrap());
                    assert!(!client.pair(session, "k-observational-2", "p", "u").unwrap());
                }
                let classes = client.classify(session, "k-observational-2").unwrap();
                assert!(!classes.is_empty());
            });
        }
    });

    let mut client = Client::connect(handle.addr()).unwrap();
    let stats = client.stats().unwrap();
    assert_eq!(stats.pair_queries, threads * 20);
    assert_eq!(
        stats.refinements, 3,
        "a k = 2 wave must run exactly one refinement per level 0..=2, \
         sharing the subset arena across threads and levels"
    );
}

#[test]
fn responses_are_byte_identical_across_connections() {
    let handle = spawn_server();
    let session = {
        let mut client = Client::connect(handle.addr()).unwrap();
        client.open_fsp(PROCESS).unwrap().session
    };
    // Raw request line, compared as raw response bytes across threads.
    let request = ccs_server::Json::obj([
        ("op", ccs_server::Json::str("classify")),
        ("session", ccs_server::Json::str(session)),
        ("notion", ccs_server::Json::str("observational")),
    ]);
    let responses: Vec<String> = std::thread::scope(|scope| {
        let mut workers = Vec::new();
        for _ in 0..8 {
            let (addr, request) = (handle.addr(), &request);
            workers.push(scope.spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                client.call(request).unwrap().to_string()
            }));
        }
        workers.into_iter().map(|w| w.join().unwrap()).collect()
    });
    for response in &responses {
        assert_eq!(response, &responses[0]);
    }
}

/// A window-`w` language blow-up core (`L(h) = Σ*aΣ^{w-1}`, a `2^w`-subset
/// arena, so classifying it is slow) plus `x →a y` with `y` accepting and
/// an isolated `z`: `x` and `z` differ in language until `x →a y` goes.
fn blowup_text(window: usize) -> String {
    let mut text = String::from("trans h a h\ntrans h b h\ntrans h a c1\n");
    for i in 1..window {
        text.push_str(&format!(
            "trans c{i} a c{}\ntrans c{i} b c{}\n",
            i + 1,
            i + 1
        ));
    }
    text.push_str(&format!("accept c{window} y\ntrans x a y\nstate z\n"));
    text
}

/// One in-process request/response round trip, parsed.
fn call(service: &Service, request: &Json) -> Json {
    ccs_server::json::parse(&service.handle_line(&request.to_string())).unwrap()
}

fn open_text(service: &Service, text: &str) -> String {
    let reply = call(
        service,
        &Json::obj([("op", Json::str("open")), ("text", Json::str(text))]),
    );
    reply
        .get("session")
        .and_then(Json::as_str)
        .unwrap()
        .to_owned()
}

fn classify_language(session: &str) -> Json {
    Json::obj([
        ("op", Json::str("classify")),
        ("session", Json::str(session)),
        ("notion", Json::str("language")),
    ])
}

/// A `classify` issued after an acknowledged `mutate` answers for the
/// mutated process, even while a `classify` on the pre-mutation session —
/// which the mutate had to replace, not patch, because that query still
/// held it — is running on another thread.
#[test]
fn classify_after_mutate_never_sees_the_replaced_session() {
    let service = Service::default();
    let id = open_text(&service, &blowup_text(11));
    let (before, after) = std::thread::scope(|scope| {
        let slow = scope.spawn(|| call(&service, &classify_language(&id)));
        // Wait until the old session's language refinement is under way.
        while service.registry().get(&id).unwrap().refinements_run() == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        let edge = Json::Arr(vec![Json::str("x"), Json::str("a"), Json::str("y")]);
        let mutated = call(
            &service,
            &Json::obj([
                ("op", Json::str("mutate")),
                ("session", Json::str(&id)),
                ("remove", Json::Arr(vec![edge])),
            ]),
        );
        assert_eq!(mutated.get("removed").and_then(Json::as_i64), Some(1));
        let after = call(&service, &classify_language(&id));
        (slow.join().unwrap(), after)
    });

    let mutated_text = format::to_text(service.registry().get(&id).unwrap().fsp());
    let fresh = Service::default();
    let fresh_id = open_text(&fresh, &mutated_text);
    let expected = call(&fresh, &classify_language(&fresh_id));
    assert_eq!(
        after, expected,
        "classify after mutate must answer for the mutated process"
    );
    assert_ne!(before, after, "the mutation changes the language classes");
}
