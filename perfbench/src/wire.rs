//! The measured program: the real `ccs-server` binary as a child process,
//! driven over loopback TCP by a single-threaded closed-loop generator.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::Instant;

use crate::json;

/// Environment knobs that change what the server runs.  They are removed
/// from the child's environment so every run measures the defaults.
pub const KNOBS: [&str; 4] = [
    "CCS_THREADS",
    "CCS_PAR_THRESHOLD",
    "CCS_OTF_THRESHOLD",
    "CCS_DELTA_THRESHOLD",
];

/// The repository root: the parent of this package.
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark package sits inside the repository")
        .to_path_buf()
}

/// Builds the `ccs-server` binary from the repository's own manifest
/// (release profile) and returns its path, as cargo reports it.
pub fn build_server() -> Result<PathBuf, String> {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_owned());
    let manifest = repo_root().join("Cargo.toml");
    let output = Command::new(cargo)
        .args([
            "build",
            "--release",
            "--quiet",
            "--offline",
            "--message-format=json",
        ])
        .args(["-p", "ccs-server", "--bin", "ccs-server", "--manifest-path"])
        .arg(&manifest)
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !output.status.success() {
        return Err(format!("building ccs-server failed ({})", output.status));
    }
    String::from_utf8_lossy(&output.stdout)
        .lines()
        .filter_map(|line| json::parse(line).ok())
        .filter(|msg| msg.get("reason").and_then(|r| r.as_str()) == Some("compiler-artifact"))
        .find_map(|msg| {
            msg.get("executable")
                .and_then(|e| e.as_str())
                .map(PathBuf::from)
        })
        .ok_or_else(|| "cargo reported no ccs-server executable".to_owned())
}

/// A running server child; killed and reaped on drop.
#[derive(Debug)]
pub struct Server {
    child: Child,
    pub addr: SocketAddr,
}

impl Server {
    /// Spawns the server on an ephemeral loopback port and waits for its
    /// `listening on ADDR` line.
    pub fn spawn(binary: &Path) -> Result<Server, String> {
        let mut command = Command::new(binary);
        command
            .arg("127.0.0.1:0")
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        for knob in KNOBS {
            command.env_remove(knob);
        }
        let mut child = command
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", binary.display()))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut line = String::new();
        let read = BufReader::new(stdout).read_line(&mut line);
        let addr = line
            .trim()
            .strip_prefix("listening on ")
            .and_then(|a| a.parse().ok());
        match (read, addr) {
            (Ok(_), Some(addr)) => Ok(Server { child, addr }),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!("server did not announce its address: {line:?}"))
            }
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Peak resident set (`VmHWM`) of the child so far, in MB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.pid()))
            .map_err(|e| format!("cannot read the child's status: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| "no VmHWM line".to_owned())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// One generator connection: `TCP_NODELAY`, one `write` per request line.
#[derive(Debug)]
pub struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    buf: Vec<u8>,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Conn {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
            buf: Vec::new(),
        })
    }

    /// Sends `line` and waits for one reply line; returns the reply
    /// (without its newline) and the round-trip time in nanoseconds.
    pub fn call(&mut self, line: &str) -> io::Result<(String, u64)> {
        self.buf.clear();
        self.buf.extend_from_slice(line.as_bytes());
        self.buf.push(b'\n');
        let mut reply = String::new();
        let start = Instant::now();
        self.writer.write_all(&self.buf)?;
        let n = self.reader.read_line(&mut reply)?;
        let elapsed = start.elapsed().as_nanos() as u64;
        if n == 0 || !reply.ends_with('\n') {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        reply.pop();
        Ok((reply, elapsed))
    }
}
