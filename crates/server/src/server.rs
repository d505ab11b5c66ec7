//! The TCP front end: line-oriented JSON over `std::net`, one thread per
//! connection, all connections sharing one [`Service`].

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::Arc;
use std::thread::{self, JoinHandle};

use ccs_equiv::EquivError;

use crate::protocol::{error_line, Service};

/// A bound (but not yet serving) equivalence server.
#[derive(Debug)]
pub struct Server {
    listener: TcpListener,
    service: Arc<Service>,
}

/// A server running on a background thread (used by tests and in-process
/// embedding; the accept loop never returns, so the handle is detached on
/// drop).
#[derive(Debug)]
pub struct ServerHandle {
    addr: SocketAddr,
    service: Arc<Service>,
    _thread: JoinHandle<io::Result<()>>,
}

impl ServerHandle {
    /// The address clients should connect to.
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared service (for asserting on stats from outside).
    #[must_use]
    pub fn service(&self) -> &Arc<Service> {
        &self.service
    }
}

impl Server {
    /// Binds `addr` (use port 0 for an ephemeral port) in front of
    /// `service`.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn bind(addr: impl ToSocketAddrs, service: Service) -> io::Result<Self> {
        Ok(Server {
            listener: TcpListener::bind(addr)?,
            service: Arc::new(service),
        })
    }

    /// The bound local address (resolves ephemeral ports).
    ///
    /// # Errors
    ///
    /// Propagates the socket query failure.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// The shared service.
    #[must_use]
    pub fn service(&self) -> &Arc<Service> {
        &self.service
    }

    /// Serves forever on the calling thread: accepts connections and spawns
    /// one handler thread each.
    ///
    /// # Errors
    ///
    /// Returns the first accept error (transient per-connection I/O errors
    /// are swallowed by the per-connection threads).
    pub fn run(self) -> io::Result<()> {
        for stream in self.listener.incoming() {
            let stream = stream?;
            let service = Arc::clone(&self.service);
            thread::spawn(move || {
                // A torn-down client mid-response is not a server error.
                let _ = serve_connection(&service, stream);
            });
        }
        Ok(())
    }

    /// Moves the accept loop onto a background thread, returning the
    /// resolved address and shared service.
    ///
    /// # Errors
    ///
    /// Propagates the local-address query failure.
    pub fn spawn(self) -> io::Result<ServerHandle> {
        let addr = self.local_addr()?;
        let service = Arc::clone(&self.service);
        let thread = thread::spawn(move || self.run());
        Ok(ServerHandle {
            addr,
            service,
            _thread: thread,
        })
    }
}

/// The longest request line the server reads, in bytes, not counting the
/// line terminator.  A longer line gets one `bad-request` reply and the
/// connection is closed, so no client can make a connection thread buffer
/// more than this.
pub const MAX_LINE_BYTES: usize = 16 * 1024 * 1024;

fn serve_connection(service: &Service, stream: TcpStream) -> io::Result<()> {
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    let mut buf: Vec<u8> = Vec::new();
    loop {
        buf.clear();
        let limit = MAX_LINE_BYTES as u64 + 1;
        if (&mut reader).take(limit).read_until(b'\n', &mut buf)? == 0 {
            return Ok(());
        }
        let terminated = buf.last() == Some(&b'\n');
        if terminated {
            buf.pop();
            if buf.last() == Some(&b'\r') {
                buf.pop();
            }
        }
        let over_limit = !terminated && buf.len() > MAX_LINE_BYTES;
        let response = if over_limit {
            error_line(&EquivError::bad_request(format!(
                "request line exceeds {MAX_LINE_BYTES} bytes"
            )))
        } else {
            match std::str::from_utf8(&buf) {
                Ok(line) if line.trim().is_empty() => continue,
                Ok(line) => service.handle_line(line),
                Err(_) => error_line(&EquivError::bad_request("request line is not UTF-8")),
            }
        };
        writer.write_all(response.as_bytes())?;
        writer.write_all(b"\n")?;
        writer.flush()?;
        if over_limit {
            // The rest of the line is never read: the connection ends here.
            return Ok(());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Json};

    fn spawn() -> ServerHandle {
        Server::bind("127.0.0.1:0", Service::default())
            .unwrap()
            .spawn()
            .unwrap()
    }

    /// A raw connection: a line reader and a writer.
    fn connect(handle: &ServerHandle) -> (BufReader<TcpStream>, TcpStream) {
        let stream = TcpStream::connect(handle.addr()).unwrap();
        (BufReader::new(stream.try_clone().unwrap()), stream)
    }

    /// Reads one response line.
    fn reply(reader: &mut BufReader<TcpStream>) -> Json {
        let mut line = String::new();
        assert!(reader.read_line(&mut line).unwrap() > 0, "no reply");
        json::parse(line.trim_end()).unwrap()
    }

    fn code(value: &Json) -> Option<&str> {
        value.get("code").and_then(Json::as_str)
    }

    #[test]
    fn over_long_lines_get_one_bad_request_and_the_server_keeps_serving() {
        let handle = spawn();
        let (mut reader, mut writer) = connect(&handle);
        // Blank lines get no reply; a non-UTF-8 line is refused, and the
        // connection stays usable.
        writer.write_all(b"\n \r\n\xff\xfe\n").unwrap();
        let refusal = reply(&mut reader);
        assert_eq!(code(&refusal), Some("bad-request"));
        assert!(refusal.to_string().contains("UTF-8"), "{refusal}");
        // One byte over the limit, with no newline in sight.
        writer.write_all(&vec![b'x'; MAX_LINE_BYTES + 1]).unwrap();
        let refusal = reply(&mut reader);
        assert_eq!(code(&refusal), Some("bad-request"));
        let message = refusal.get("message").and_then(Json::as_str).unwrap();
        assert!(message.contains(&MAX_LINE_BYTES.to_string()), "{message}");
        // Exactly one reply, then the server closes the connection.
        let mut rest = String::new();
        assert_eq!(reader.read_line(&mut rest).unwrap(), 0, "{rest}");
        // A fresh connection is served as usual.
        let mut client = crate::client::Client::connect(handle.addr()).unwrap();
        assert!(client.ping().unwrap());
    }

    #[test]
    fn deep_lines_get_stable_codes_on_a_connection_thread() {
        let handle = spawn();
        let (mut reader, mut writer) = connect(&handle);
        for (line, expected) in crate::protocol::tests::deep_request_lines() {
            writer.write_all(line.as_bytes()).unwrap();
            writer.write_all(b"\n").unwrap();
            assert_eq!(code(&reply(&mut reader)), Some(expected));
        }
        writer.write_all(b"{\"op\":\"ping\"}\n").unwrap();
        assert_eq!(reply(&mut reader).get("pong"), Some(&Json::Bool(true)));
    }

    #[test]
    fn serves_a_round_trip_over_tcp() {
        let handle = spawn();
        let mut client = crate::client::Client::connect(handle.addr()).unwrap();
        assert!(client.ping().unwrap());
        let opened = client.open_fsp("trans p tau q\ntrans q a r").unwrap();
        assert_eq!(opened.states, 3);
        assert!(client
            .pair(&opened.session, "observational", "p", "q")
            .unwrap());
        assert!(client.close_session(&opened.session).unwrap());
    }

    #[test]
    fn blank_lines_are_ignored_and_connections_are_independent() {
        let handle = spawn();
        let mut a = crate::client::Client::connect(handle.addr()).unwrap();
        let opened = a.open_fsp("trans p a q").unwrap();
        // A second connection sees the same registry.
        let mut b = crate::client::Client::connect(handle.addr()).unwrap();
        assert!(b.pair(&opened.session, "strong", "p", "p").unwrap());
    }
}
