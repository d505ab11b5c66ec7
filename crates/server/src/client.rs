//! A small blocking client for the wire protocol — the counterpart the
//! examples, the smoke binary and the integration tests drive.

use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};

use crate::json::{self, Json};

/// A client-side failure: transport, a malformed response, or a structured
/// error the server returned.
#[derive(Debug)]
pub enum ClientError {
    /// The TCP transport failed.
    Io(io::Error),
    /// The server's response line was not the JSON shape the client expects.
    Protocol(String),
    /// The server answered `"ok": false`.
    Server {
        /// The stable error code (`EquivError::code` on the server side).
        code: String,
        /// The human-readable message.
        message: String,
    },
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport error: {e}"),
            ClientError::Protocol(m) => write!(f, "malformed response: {m}"),
            ClientError::Server { code, message } => {
                write!(f, "server error [{code}]: {message}")
            }
        }
    }
}

impl Error for ClientError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ClientError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for ClientError {
    fn from(value: io::Error) -> Self {
        ClientError::Io(value)
    }
}

/// The response to a successful `open`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OpenedSession {
    /// The server-assigned handle to use in subsequent requests.
    pub session: String,
    /// Number of states in the opened process.
    pub states: usize,
    /// Number of transitions in the opened process.
    pub transitions: usize,
}

/// The response to a `stats` request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ServerStats {
    /// Live sessions in the registry.
    pub sessions: usize,
    /// Approximate resident bytes across sessions.
    pub resident_bytes: usize,
    /// Sessions evicted under pressure so far.
    pub evictions: usize,
    /// Partition refinements that actually executed across live sessions.
    pub refinements: usize,
    /// `pair` requests answered, by either engine.
    pub pair_queries: usize,
}

/// A blocking connection to a `ccs-server`.
#[derive(Debug)]
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Connects to a running server.
    ///
    /// # Errors
    ///
    /// Propagates connection failures.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        // Requests are small and answered before the next one is sent, so
        // Nagle's algorithm would only hold a request's tail back until the
        // server's delayed ACK.
        stream.set_nodelay(true)?;
        let writer = stream.try_clone()?;
        Ok(Client {
            reader: BufReader::new(stream),
            writer,
        })
    }

    /// One request/response round trip; returns the `"ok": true` response
    /// object.
    ///
    /// # Errors
    ///
    /// [`ClientError::Server`] for structured errors, [`ClientError::Io`] /
    /// [`ClientError::Protocol`] for transport problems.
    pub fn call(&mut self, request: &Json) -> Result<Json, ClientError> {
        // One write per request line: with `TCP_NODELAY` set, a separate
        // newline write would go out as a second segment.
        let mut request_line = request.to_string();
        request_line.push('\n');
        self.writer.write_all(request_line.as_bytes())?;
        self.writer.flush()?;
        let mut line = String::new();
        let read = self.reader.read_line(&mut line)?;
        if read == 0 {
            return Err(ClientError::Protocol(
                "server closed the connection".to_owned(),
            ));
        }
        let response = json::parse(line.trim_end()).map_err(ClientError::Protocol)?;
        match response.get("ok").and_then(Json::as_bool) {
            Some(true) => Ok(response),
            Some(false) => Err(ClientError::Server {
                code: field_str(&response, "code").unwrap_or_else(|_| "unknown".to_owned()),
                message: field_str(&response, "message").unwrap_or_default(),
            }),
            None => Err(ClientError::Protocol(format!(
                "response has no \"ok\" field: {response}"
            ))),
        }
    }

    /// Liveness check.
    ///
    /// # Errors
    ///
    /// See [`Client::call`].
    pub fn ping(&mut self) -> Result<bool, ClientError> {
        let response = self.call(&Json::obj([("op", Json::str("ping"))]))?;
        Ok(response.get("pong").and_then(Json::as_bool) == Some(true))
    }

    fn open(&mut self, format: &str, text: &str) -> Result<OpenedSession, ClientError> {
        let response = self.call(&Json::obj([
            ("op", Json::str("open")),
            ("format", Json::str(format)),
            ("text", Json::str(text)),
        ]))?;
        Ok(OpenedSession {
            session: field_str(&response, "session")?,
            states: field_usize(&response, "states")?,
            transitions: field_usize(&response, "transitions")?,
        })
    }

    /// Opens a session over a process in the `trans`/`accept` text format.
    ///
    /// # Errors
    ///
    /// See [`Client::call`]; parse failures arrive as code `process`.
    pub fn open_fsp(&mut self, text: &str) -> Result<OpenedSession, ClientError> {
        self.open("fsp", text)
    }

    /// Opens a session over a CCS star expression (via the paper's
    /// representative-process construction).
    ///
    /// # Errors
    ///
    /// See [`Client::call`]; parse failures arrive as code `expression`.
    pub fn open_ccs(&mut self, text: &str) -> Result<OpenedSession, ClientError> {
        self.open("ccs", text)
    }

    /// Whether states `left` and `right` are related under `notion`
    /// (`"strong"`, `"observational"`, `"limited-2"`, `"language"`, …).
    ///
    /// # Errors
    ///
    /// See [`Client::call`].
    pub fn pair(
        &mut self,
        session: &str,
        notion: &str,
        left: &str,
        right: &str,
    ) -> Result<bool, ClientError> {
        let response = self.call(&Json::obj([
            ("op", Json::str("pair")),
            ("session", Json::str(session)),
            ("notion", Json::str(notion)),
            ("left", Json::str(left)),
            ("right", Json::str(right)),
        ]))?;
        response
            .get("equivalent")
            .and_then(Json::as_bool)
            .ok_or_else(|| ClientError::Protocol("pair response lacks a verdict".to_owned()))
    }

    /// The equivalence classes of the whole state space under `notion`,
    /// as lists of state names.
    ///
    /// # Errors
    ///
    /// See [`Client::call`].
    pub fn classify(
        &mut self,
        session: &str,
        notion: &str,
    ) -> Result<Vec<Vec<String>>, ClientError> {
        let response = self.call(&Json::obj([
            ("op", Json::str("classify")),
            ("session", Json::str(session)),
            ("notion", Json::str(notion)),
        ]))?;
        let blocks = response
            .get("blocks")
            .and_then(Json::as_arr)
            .ok_or_else(|| ClientError::Protocol("classify response lacks blocks".to_owned()))?;
        blocks
            .iter()
            .map(|block| {
                block
                    .as_arr()
                    .ok_or_else(|| ClientError::Protocol("block is not an array".to_owned()))?
                    .iter()
                    .map(|name| {
                        name.as_str().map(str::to_owned).ok_or_else(|| {
                            ClientError::Protocol("state name is not a string".to_owned())
                        })
                    })
                    .collect()
            })
            .collect()
    }

    /// The `state name → class index` assignment under `notion`.
    ///
    /// # Errors
    ///
    /// See [`Client::call`].
    pub fn partition(
        &mut self,
        session: &str,
        notion: &str,
    ) -> Result<BTreeMap<String, usize>, ClientError> {
        let response = self.call(&Json::obj([
            ("op", Json::str("partition")),
            ("session", Json::str(session)),
            ("notion", Json::str(notion)),
        ]))?;
        let assignment = response
            .get("assignment")
            .and_then(Json::as_obj)
            .ok_or_else(|| {
                ClientError::Protocol("partition response lacks an assignment".to_owned())
            })?;
        assignment
            .iter()
            .map(|(name, block)| {
                let block = block
                    .as_i64()
                    .and_then(|n| usize::try_from(n).ok())
                    .ok_or_else(|| {
                        ClientError::Protocol("class index is not a natural number".to_owned())
                    })?;
                Ok((name.clone(), block))
            })
            .collect()
    }

    /// Applies an edge delta to a live session in place: each entry is a
    /// `(from, label, to)` name triple, with `"tau"` naming the silent
    /// action.  Returns `(added, removed)` — the edits that actually took
    /// effect.  The handle and every cache the delta does not invalidate
    /// survive on the server.
    ///
    /// # Errors
    ///
    /// See [`Client::call`]; unknown state or action names arrive as code
    /// `bad-request`.
    pub fn mutate(
        &mut self,
        session: &str,
        add: &[(&str, &str, &str)],
        remove: &[(&str, &str, &str)],
    ) -> Result<(usize, usize), ClientError> {
        let edges = |list: &[(&str, &str, &str)]| {
            Json::Arr(
                list.iter()
                    .map(|&(f, l, t)| Json::Arr(vec![Json::str(f), Json::str(l), Json::str(t)]))
                    .collect(),
            )
        };
        let response = self.call(&Json::obj([
            ("op", Json::str("mutate")),
            ("session", Json::str(session)),
            ("add", edges(add)),
            ("remove", edges(remove)),
        ]))?;
        Ok((
            field_usize(&response, "added")?,
            field_usize(&response, "removed")?,
        ))
    }

    /// Closes a session; `true` if the server still held it.
    ///
    /// # Errors
    ///
    /// See [`Client::call`].
    pub fn close_session(&mut self, session: &str) -> Result<bool, ClientError> {
        let response = self.call(&Json::obj([
            ("op", Json::str("close")),
            ("session", Json::str(session)),
        ]))?;
        Ok(response.get("closed").and_then(Json::as_bool) == Some(true))
    }

    /// The server's registry and query counters.
    ///
    /// # Errors
    ///
    /// See [`Client::call`].
    pub fn stats(&mut self) -> Result<ServerStats, ClientError> {
        let response = self.call(&Json::obj([("op", Json::str("stats"))]))?;
        Ok(ServerStats {
            sessions: field_usize(&response, "sessions")?,
            resident_bytes: field_usize(&response, "resident_bytes")?,
            evictions: field_usize(&response, "evictions")?,
            refinements: field_usize(&response, "refinements")?,
            pair_queries: field_usize(&response, "pair_queries")?,
        })
    }
}

fn field_str(response: &Json, key: &str) -> Result<String, ClientError> {
    response
        .get(key)
        .and_then(Json::as_str)
        .map(str::to_owned)
        .ok_or_else(|| ClientError::Protocol(format!("response lacks string field {key:?}")))
}

fn field_usize(response: &Json, key: &str) -> Result<usize, ClientError> {
    response
        .get(key)
        .and_then(Json::as_i64)
        .and_then(|n| usize::try_from(n).ok())
        .ok_or_else(|| ClientError::Protocol(format!("response lacks numeric field {key:?}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;
    use std::time::{Duration, Instant};

    /// A request split across two writes on a Nagle-enabled socket holds its
    /// second segment until the peer's delayed ACK (~40 ms on Linux), so 20
    /// round trips would take most of a second.  Against a peer that answers
    /// each request in a single write, they must take a few milliseconds.
    #[test]
    fn round_trips_do_not_wait_for_delayed_acks() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
        let addr = listener.local_addr().expect("local address");
        let peer = std::thread::spawn(move || {
            let (stream, _) = listener.accept().expect("accept the client");
            let mut writer = stream.try_clone().expect("clone the stream");
            for line in BufReader::new(stream).lines() {
                line.expect("read a request line");
                writer
                    .write_all(b"{\"ok\":true,\"pong\":true}\n")
                    .expect("answer in one write");
            }
        });
        let mut client = Client::connect(addr).expect("connect");
        let start = Instant::now();
        for _ in 0..20 {
            assert!(client.ping().expect("ping"));
        }
        let elapsed = start.elapsed();
        drop(client);
        peer.join().expect("peer thread");
        assert!(
            elapsed < Duration::from_millis(200),
            "20 pings took {elapsed:?}"
        );
    }
}
