//! Equivalence-as-a-service for the Kanellakis–Smolka stack.
//!
//! `ccs-server` puts the [`ccs_equiv`] session engine behind a line-oriented
//! JSON protocol over TCP: clients `open` a process (the `trans`/`accept`
//! text format or a CCS star expression), receive a session handle, and ask
//! `pair` / `classify` / `partition` questions under any equivalence notion
//! the library supports.  The pieces compose as:
//!
//! * [`json`] — a dependency-free JSON value/parser/serializer (integers
//!   only; canonical key order, so responses are byte-deterministic).
//! * [`registry`] — named, shareable sessions (`Arc<EquivSession>`; the
//!   session engine is `Sync`) with LRU eviction under a resident-byte
//!   budget.
//! * [`protocol`] — the request/response vocabulary and dispatch
//!   ([`Service::handle_line`]: one JSON line in, one JSON line out).
//!   `pair`, `classify` and `partition` answer from the session's
//!   single-flight partition memo
//!   ([`EquivSession::classify_all`](ccs_equiv::EquivSession::classify_all)),
//!   so concurrent queries on one session and notion share one refinement.
//! * [`server`] — the `std::net` front end, one thread per connection.
//! * [`client`] — a blocking [`Client`] used by the examples, the smoke
//!   binary, and the concurrency tests.
//!
//! The wire protocol — request/response shapes, the stable error-code
//! table, eviction/coalescing/on-the-fly routing semantics, and a real
//! transcript — is specified in `docs/PROTOCOL.md` at the repository root;
//! `ARCHITECTURE.md` places the server in the workspace data flow.
//!
//! ```
//! use ccs_server::{Server, Service, Client};
//!
//! let server = Server::bind("127.0.0.1:0", Service::default())?;
//! let handle = server.spawn()?;
//! let mut client = Client::connect(handle.addr())?;
//! let opened = client.open_fsp("trans p tau q\ntrans q a r\ntrans s a t")?;
//! assert!(client.pair(&opened.session, "observational", "p", "s")?);
//! assert_eq!(client.classify(&opened.session, "observational")?.len(), 2);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod client;
pub mod json;
pub mod protocol;
pub mod registry;
pub mod server;

pub use client::{Client, ClientError, OpenedSession, ServerStats};
pub use json::Json;
pub use protocol::Service;
pub use registry::{Registry, RegistryConfig, RegistryStats};
pub use server::{Server, ServerHandle};
