//! The `gorder-serve` daemon as a child process, and a wire client.
//!
//! The benchmark re-runs its own executable with `daemon` as the first
//! argument ([`serve_main`]); that process binds a `gorder_serve::Server`
//! exactly as the `gorder-serve` binary does, so the program under test
//! is the serve library behind a real TCP socket. [`Daemon`] owns the
//! child: it stops it with the `shutdown` op and waits for the drain,
//! and kills it if the benchmark errors or unwinds, so no daemon is left
//! behind.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use gorder_serve::{parse_response, render_request, Request, Response, Server, ServerConfig};

/// Dataset scale the daemon pre-loads.
pub const SERVE_SCALE: f64 = 1.0;

/// `busy` replies a request may get before it counts as failed.
const MAX_RETRIES: u32 = 50;

/// A running daemon child.
pub struct Daemon {
    child: Option<Child>,
    addr: SocketAddr,
    trace_path: Option<PathBuf>,
}

impl Daemon {
    /// Starts a daemon with one worker and a fresh cache directory under
    /// `dir`, and waits until `health` answers. With `trace`, the daemon
    /// writes its JSONL trace to `dir/serve-trace.jsonl`.
    pub fn start(exe: &Path, dir: &Path, trace: bool) -> Result<Daemon, String> {
        let _ = std::fs::remove_dir_all(dir);
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        let addr_file = dir.join("addr");
        let trace_path = trace.then(|| dir.join("serve-trace.jsonl"));
        let mut cmd = Command::new(exe);
        cmd.arg("daemon")
            .arg("--addr-file")
            .arg(&addr_file)
            .arg("--cache-dir")
            .arg(dir.join("cache"));
        if let Some(p) = &trace_path {
            cmd.arg("--trace-out").arg(p);
        }
        let child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawning the serve daemon: {e}"))?;
        let mut d = Daemon {
            child: Some(child),
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            trace_path,
        };
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            if let Some(status) = d.child_mut().try_wait().map_err(|e| e.to_string())? {
                return Err(format!("serve daemon exited during start-up: {status}"));
            }
            if let Some(addr) = std::fs::read_to_string(&addr_file)
                .ok()
                .and_then(|s| s.trim().parse().ok())
            {
                d.addr = addr;
                break;
            }
            if Instant::now() > deadline {
                return Err("serve daemon did not bind within 60 s".into());
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        let mut conn = d.connect()?;
        let health = conn.call(&render_request(&Request::Health))?;
        if health.status != "ok" {
            return Err(format!(
                "health answered {}: {}",
                health.status, health.report
            ));
        }
        Ok(d)
    }

    fn child_mut(&mut self) -> &mut Child {
        self.child.as_mut().expect("child present until shutdown")
    }

    /// Opens a client connection.
    pub fn connect(&self) -> Result<Conn, String> {
        Conn::open(self.addr)
    }

    /// Peak resident set size of the daemon, in MB.
    pub fn peak_rss_mb(&self) -> Option<f64> {
        let pid = self.child.as_ref()?.id();
        crate::peak_rss_mb(&pid.to_string())
    }

    /// Sends `shutdown`, waits for the drain to finish and the process
    /// to exit, and returns the trace path (if tracing). A daemon that
    /// does not exit within 30 s is killed and reported as an error.
    pub fn shutdown(mut self) -> Result<Option<PathBuf>, String> {
        let reply = self
            .connect()
            .and_then(|mut c| c.call(&render_request(&Request::Shutdown)));
        let mut child = self.child.take().expect("child present until shutdown");
        let deadline = Instant::now() + Duration::from_secs(30);
        let status = loop {
            match child.try_wait().map_err(|e| e.to_string())? {
                Some(status) => break status,
                None if Instant::now() > deadline => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err("serve daemon did not drain within 30 s; killed".into());
                }
                None => std::thread::sleep(Duration::from_millis(5)),
            }
        };
        let reply = reply?;
        if reply.status != "ok" {
            return Err(format!(
                "shutdown answered {}: {}",
                reply.status, reply.report
            ));
        }
        if !status.success() {
            return Err(format!("serve daemon exited with {status}"));
        }
        Ok(self.trace_path.take())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// One client connection: one request line out, one reply line in.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

/// What one retried request produced.
#[derive(Debug)]
pub struct Exchange {
    /// The final reply.
    pub reply: Response,
    /// `busy` replies received before it.
    pub busy: u32,
}

impl Conn {
    fn open(addr: SocketAddr) -> Result<Conn, String> {
        let s = TcpStream::connect(addr).map_err(|e| format!("connecting to {addr}: {e}"))?;
        s.set_nodelay(true).map_err(|e| e.to_string())?;
        s.set_read_timeout(Some(Duration::from_secs(120)))
            .map_err(|e| e.to_string())?;
        let writer = s.try_clone().map_err(|e| e.to_string())?;
        Ok(Conn {
            reader: BufReader::new(s),
            writer,
        })
    }

    /// Sends one line and reads one reply; transport and parse errors
    /// are `Err`.
    pub fn call(&mut self, line: &str) -> Result<Response, String> {
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        let mut reply = String::new();
        match self.reader.read_line(&mut reply) {
            Ok(0) => Err("connection closed before the reply".into()),
            Ok(_) => parse_response(reply.trim_end()).map_err(|e| format!("bad reply: {e}")),
            Err(e) => Err(format!("receive: {e}")),
        }
    }

    /// Sends `line`, retrying `busy` replies after their hint; a request
    /// still busy after the retry limit is an error.
    pub fn call_retrying(&mut self, line: &str) -> Result<Exchange, String> {
        let mut busy = 0;
        loop {
            let reply = self.call(line)?;
            if reply.status != "busy" {
                return Ok(Exchange { reply, busy });
            }
            busy += 1;
            if busy > MAX_RETRIES {
                return Err(format!("still busy after {MAX_RETRIES} retries"));
            }
            std::thread::sleep(Duration::from_millis(reply.retry_after_ms.unwrap_or(50)));
        }
    }
}

/// Entry point of `perfbench daemon ...`: binds and runs a serve daemon
/// with one worker over the serve workload's datasets at
/// [`SERVE_SCALE`]. Returns the process exit code.
pub fn serve_main(args: &[String]) -> i32 {
    let mut cfg = ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        scale: SERVE_SCALE,
        datasets: crate::inputs::SERVE_DATASETS.map(str::to_string).to_vec(),
        ..ServerConfig::default()
    };
    let mut addr_file = None;
    for pair in args.chunks(2) {
        let [flag, value] = pair else {
            eprintln!("daemon: flag {} needs a value", pair[0]);
            return 2;
        };
        match flag.as_str() {
            "--addr-file" => addr_file = Some(PathBuf::from(value)),
            "--cache-dir" => cfg.cache_dir = Some(PathBuf::from(value)),
            "--trace-out" => cfg.trace_path = Some(PathBuf::from(value)),
            other => {
                eprintln!("daemon: unknown flag {other}");
                return 2;
            }
        }
    }
    let server = match Server::bind(cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("daemon: {e}");
            return 6;
        }
    };
    let written = server.local_addr().and_then(|a| match &addr_file {
        // Write then rename, so the benchmark never reads half an address.
        Some(path) => {
            let tmp = path.with_extension("tmp");
            std::fs::write(&tmp, a.to_string())?;
            std::fs::rename(&tmp, path)
        }
        None => Ok(()),
    });
    if let Err(e) = written {
        eprintln!("daemon: publishing the address: {e}");
        return 6;
    }
    // Orphan guard: the daemon normally stops through the `shutdown`
    // op; if the benchmark dies without sending it, drain and exit
    // rather than linger.
    let parent = std::os::unix::process::parent_id();
    let orphaned = AtomicBool::new(false);
    let done = AtomicBool::new(false);
    let outcome = std::thread::scope(|s| {
        s.spawn(|| {
            while !done.load(Ordering::Acquire) {
                std::thread::sleep(Duration::from_millis(100));
                if std::os::unix::process::parent_id() != parent {
                    orphaned.store(true, Ordering::Release);
                    return;
                }
            }
        });
        let outcome = server.run(&orphaned);
        done.store(true, Ordering::Release);
        outcome
    });
    match outcome {
        Ok(s) if s.answered >= s.accepted => 0,
        Ok(_) => {
            eprintln!("daemon: drain lost accepted requests");
            5
        }
        Err(e) => {
            eprintln!("daemon: {e}");
            6
        }
    }
}
