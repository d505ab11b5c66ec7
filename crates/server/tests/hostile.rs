//! Hostile-input suite: random byte lines and mangled copies of real
//! request lines go to `Service::handle_line` (and a handful over TCP to a
//! spawned `Server`).  Whatever arrives, the reply must be exactly one line
//! holding a JSON object with `"ok": true`, or `"ok": false` and one of the
//! stable error codes in `docs/PROTOCOL.md`; nothing may panic; and the
//! service must still answer `ping` with its `stats` consistent afterwards.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;

use ccs_server::{json, Json, RegistryConfig, Server, Service};
use proptest::prelude::*;

/// Well-formed request lines covering every op over both input formats.
/// Each case first opens the two sessions (`s1` from FSP text, `s2` from a
/// CCS expression) the later lines refer to.
const SEEDS: [&str; 11] = [
    r#"{"op":"open","format":"fsp","text":"trans p a q\ntrans q tau r\ntrans r b p\ntrans p b s\naccept q s"}"#,
    r#"{"op":"open","format":"ccs","text":"(a+b).c*+a.(b+c)"}"#,
    r#"{"op":"pair","session":"s1","notion":"failure","left":"p","right":"r"}"#,
    r#"{"op":"pair","session":"s2","notion":"limited-3","left":"s0","right":"s1"}"#,
    r#"{"op":"classify","session":"s1","notion":"k-observational-2"}"#,
    r#"{"op":"classify","session":"s2","notion":"language"}"#,
    r#"{"op":"partition","session":"s2","notion":"trace"}"#,
    r#"{"op":"mutate","session":"s1","add":[["p","b","r"]],"remove":[["q","tau","r"]]}"#,
    r#"{"op":"close","session":"s2"}"#,
    r#"{"op":"stats"}"#,
    r#"{"op":"ping"}"#,
];

/// Fragments spliced into seed lines: JSON punctuation, op and field
/// names, notions with extreme levels, process and expression text,
/// out-of-range or ill-typed values, and well-typed values that name real
/// states and notions.
const TOKENS: [&str; 40] = [
    "{",
    "}",
    "[",
    "]",
    "\"",
    ":",
    ",",
    "\\",
    r#""op""#,
    r#""open""#,
    r#""pair""#,
    r#""mutate""#,
    r#""classify""#,
    r#""session""#,
    r#""s1""#,
    r#""s9""#,
    r#""notion""#,
    r#""observational""#,
    r#""limited-999999999""#,
    r#""k-observational-64""#,
    r#""failure""#,
    r#""text""#,
    r#""trans p tau p\naccept p""#,
    r#""(a.b)*+0.c""#,
    r#""ccs""#,
    "null",
    "-1",
    "18446744073709551616",
    r#""\ud800""#,
    "((((",
    r#"[["p","tau","zz"]]"#,
    r#""left""#,
    r#""p""#,
    r#""s0""#,
    r#""s2""#,
    r#""strong""#,
    r#""trace""#,
    r#""limited-0""#,
    r#""k-observational-0""#,
    r#""tau""#,
];

/// The error codes of the table under `## Error codes` in `docs/PROTOCOL.md`.
fn documented_codes() -> Vec<String> {
    let doc = include_str!("../../../docs/PROTOCOL.md");
    let table = doc
        .split("## Error codes")
        .nth(1)
        .expect("PROTOCOL.md has an error-code section");
    let codes: Vec<String> = table
        .lines()
        .take_while(|line| !line.starts_with("## "))
        .filter_map(|line| line.strip_prefix("| `"))
        .filter_map(|rest| rest.split('`').next())
        .map(str::to_owned)
        .collect();
    assert!(codes.len() >= 7, "error-code table not found: {codes:?}");
    codes
}

/// Checks one reply: a single line holding a JSON object that is either
/// `"ok": true` or `"ok": false` with a documented code.
fn check_reply(reply: &str, codes: &[String]) -> Result<(), String> {
    if reply.contains('\n') {
        return Err(format!("reply spans several lines: {reply:?}"));
    }
    let value = json::parse(reply).map_err(|e| format!("reply is not JSON ({e}): {reply:?}"))?;
    if value.as_obj().is_none() {
        return Err(format!("reply is not an object: {reply:?}"));
    }
    match value.get("ok").and_then(Json::as_bool) {
        Some(true) => Ok(()),
        Some(false) => match value.get("code").and_then(Json::as_str) {
            Some(code) if codes.iter().any(|c| c == code) => Ok(()),
            _ => Err(format!("undocumented error code: {reply:?}")),
        },
        None => Err(format!("reply has no boolean \"ok\": {reply:?}")),
    }
}

/// One edit of a seed line, at `pos` (wrapping around the line):
/// 0 cuts the line there, 1 overwrites the byte with `byte`, 2 splices
/// `TOKENS[token]` in; 3 and 4 pick the `pos`-th string literal and replace
/// its contents with the token (escaped, so the JSON stays well-formed) or
/// the whole literal with the raw token (an ill-typed or broken value).
/// The strategy draws the two literal edits most often, since most of the
/// others already break the JSON and stop at the parser.
#[derive(Clone, Copy, Debug)]
struct Edit {
    kind: u8,
    pos: usize,
    byte: u8,
    token: usize,
}

fn edit_strategy() -> impl Strategy<Value = Edit> {
    (0u8..8, 0usize..512, 0u8..255, 0..TOKENS.len()).prop_map(|(kind, pos, byte, token)| Edit {
        kind: [0, 1, 2, 3, 3, 3, 4, 4][usize::from(kind)],
        pos,
        byte,
        token,
    })
}

/// The byte ranges of the line's string literals, quotes included.
fn string_literals(line: &[u8]) -> Vec<(usize, usize)> {
    let mut literals = Vec::new();
    let mut open = None;
    let mut escaped = false;
    for (i, &b) in line.iter().enumerate() {
        match (open, b) {
            (Some(_), b'\\') if !escaped => escaped = true,
            (Some(start), b'"') if !escaped => {
                literals.push((start, i + 1));
                open = None;
            }
            (None, b'"') => open = Some(i),
            _ => escaped = false,
        }
    }
    literals
}

fn apply(line: &mut Vec<u8>, edit: Edit) {
    let pos = edit.pos % (line.len() + 1);
    let token = TOKENS[edit.token].as_bytes();
    let literals = string_literals(line);
    match edit.kind {
        0 => line.truncate(pos),
        1 if pos < line.len() => line[pos] = edit.byte,
        1 => line.push(edit.byte),
        2 => {
            line.splice(pos..pos, token.iter().copied());
        }
        _ if literals.is_empty() => {}
        kind => {
            let (start, end) = literals[edit.pos % literals.len()];
            let replacement: Vec<u8> = if kind == 3 {
                let mut quoted = vec![b'"'];
                for &b in token {
                    if b == b'"' || b == b'\\' {
                        quoted.push(b'\\');
                    }
                    quoted.push(b);
                }
                quoted.push(b'"');
                quoted
            } else {
                token.to_vec()
            };
            line.splice(start..end, replacement);
        }
    }
}

/// A seed line with the edits applied, as raw bytes (possibly not UTF-8).
fn mangled(seed: usize, edits: &[Edit]) -> Vec<u8> {
    let mut line = SEEDS[seed].as_bytes().to_vec();
    for &edit in edits {
        apply(&mut line, edit);
    }
    line
}

/// A service with the two sessions the seed lines refer to already open.
fn service_with_sessions() -> Service {
    let service = Service::new(RegistryConfig::default());
    for seed in &SEEDS[..2] {
        assert!(service.handle_line(seed).contains(r#""ok":true"#));
    }
    service
}

/// Sends `line` through `handle_line` and checks the reply, then that the
/// service still pings and its `stats` agree with the registry.
fn survives(service: &Service, line: &[u8], codes: &[String]) -> Result<(), String> {
    // A request is one line: what a connection would never deliver as
    // one line is out of scope here.
    let text = String::from_utf8_lossy(line).replace(['\n', '\r'], " ");
    check_reply(&service.handle_line(&text), codes)?;
    let pong = service.handle_line(r#"{"op":"ping"}"#);
    if pong != r#"{"ok":true,"pong":true}"# {
        return Err(format!("ping after {text:?} answered {pong}"));
    }
    let stats =
        json::parse(&service.handle_line(r#"{"op":"stats"}"#)).map_err(|e| e.to_string())?;
    let sessions = stats.get("sessions").and_then(Json::as_i64);
    if sessions != Some(service.registry().len() as i64) {
        return Err(format!("stats.sessions {sessions:?} after {text:?}"));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn random_byte_lines_get_a_stable_reply(bytes in proptest::collection::vec(0u8..255, 0..160)) {
        let codes = documented_codes();
        let service = service_with_sessions();
        let outcome = survives(&service, &bytes, &codes);
        prop_assert!(outcome.is_ok(), "{}", outcome.unwrap_err());
    }

    #[test]
    fn mangled_request_lines_get_a_stable_reply(
        seed in 0..SEEDS.len(),
        edits in proptest::collection::vec(edit_strategy(), 0..3),
    ) {
        let codes = documented_codes();
        let service = service_with_sessions();
        let outcome = survives(&service, &mangled(seed, &edits), &codes);
        prop_assert!(outcome.is_ok(), "{}", outcome.unwrap_err());
    }
}

/// A handful of the same kinds of line, as raw bytes over one TCP
/// connection to a spawned server: one documented reply per line, and the
/// connection still serves a `ping` at the end.
#[test]
fn hostile_lines_over_tcp_get_one_stable_reply_each() {
    let codes = documented_codes();
    let handle = Server::bind("127.0.0.1:0", service_with_sessions())
        .expect("bind ephemeral port")
        .spawn()
        .expect("spawn accept loop");
    let mut lines: Vec<Vec<u8>> = vec![
        vec![0xff, 0xfe, b'{'],
        b"\x00\x01{\"op\"".to_vec(),
        b"[[[[".to_vec(),
    ];
    for seed in 0..SEEDS.len() {
        let at = |pos: usize| Edit {
            kind: (seed % 3) as u8,
            pos: pos + seed * 7,
            byte: 0x80 | seed as u8,
            token: (seed * 5) % TOKENS.len(),
        };
        lines.push(mangled(seed, &[at(3)]));
        lines.push(mangled(seed, &[at(17), at(40)]));
    }
    // Blank lines get no reply and embedded newlines split a line, so
    // neither belongs in a one-reply-per-line exchange.
    lines.retain(|l| !l.contains(&b'\n') && !l.iter().all(u8::is_ascii_whitespace));

    let stream = TcpStream::connect(handle.addr()).expect("connect");
    let mut writer = stream.try_clone().expect("clone stream");
    let mut reader = BufReader::new(stream);
    for line in &lines {
        writer.write_all(line).unwrap();
        writer.write_all(b"\n").unwrap();
        let mut reply = String::new();
        reader.read_line(&mut reply).expect("one reply line");
        let reply = reply.strip_suffix('\n').expect("reply ends in a newline");
        if let Err(message) = check_reply(reply, &codes) {
            panic!("{message} (request {:?})", String::from_utf8_lossy(line));
        }
    }
    writer.write_all(b"{\"op\":\"ping\"}\n").unwrap();
    let mut pong = String::new();
    reader.read_line(&mut pong).unwrap();
    assert_eq!(pong, "{\"ok\":true,\"pong\":true}\n");
    let service = handle.service();
    let stats = json::parse(&service.handle_line(r#"{"op":"stats"}"#)).unwrap();
    assert_eq!(
        stats.get("sessions").and_then(Json::as_i64),
        Some(service.registry().len() as i64)
    );
}
