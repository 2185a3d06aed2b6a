//! Driving `parvc serve` over loopback TCP: the server handle, the
//! closed-loop client, and reply checking.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use parvc_bench::json::{self, Value};
use parvc_core::{is_vertex_cover, Algorithm, ExecutorSpec, TelemetrySnapshot};
use parvc_graph::CsrGraph;
use parvc_serve::{serve_listener, ServeConfig, Server};

use crate::common::{ms_since, OP_DEADLINE, SERVE_GRID_LIMIT, SERVE_WORKERS};

/// The server configuration every serve measurement uses: the Hybrid
/// policy with prep, one resident block per solve, a persisted cache.
pub fn serve_config(cache_capacity: usize, cache_path: PathBuf, telemetry: bool) -> ServeConfig {
    ServeConfig {
        algorithm: Algorithm::Hybrid,
        executor: ExecutorSpec::Serial,
        prep: true,
        grid_limit: Some(SERVE_GRID_LIMIT),
        high_water: ServeConfig::default().high_water,
        default_deadline: Some(OP_DEADLINE),
        cache_capacity,
        cache_path: Some(cache_path),
        telemetry,
    }
}

/// A running `serve_listener` on an ephemeral loopback port.
pub struct ServerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<Option<TelemetrySnapshot>>>,
}

impl ServerHandle {
    pub fn start(cfg: ServeConfig) -> std::io::Result<Self> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let thread = std::thread::spawn(move || {
            let server = Server::new(cfg);
            if let Err(e) = serve_listener(&server, &listener, SERVE_WORKERS, &stop_flag) {
                eprintln!("perfbench: serve_listener: {e}");
            }
            server.into_telemetry()
        });
        Ok(ServerHandle {
            addr,
            stop,
            thread: Some(thread),
        })
    }

    pub fn connect(&self) -> std::io::Result<Client> {
        Client::connect(self.addr)
    }

    /// Stops accepting, wakes the accept loop, and joins the server
    /// thread. Every client must be dropped first, or the pool waits
    /// for their connections to end.
    pub fn shutdown(mut self) -> Option<TelemetrySnapshot> {
        self.stop_and_join()
    }

    fn stop_and_join(&mut self) -> Option<TelemetrySnapshot> {
        let thread = self.thread.take()?;
        self.stop.store(true, Ordering::SeqCst);
        // The accept loop checks the flag when the next connection
        // arrives; this one only wakes it.
        let _ = TcpStream::connect(self.addr);
        thread.join().expect("server thread panicked")
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        let _ = self.stop_and_join();
    }
}

/// One persistent connection: a request line out, a reply line back.
pub struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    line: String,
}

impl Client {
    fn connect(addr: SocketAddr) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
            line: String::new(),
        })
    }

    /// Sends `request`, waits for its reply, and returns the reply with
    /// the send-to-reply time in milliseconds.
    pub fn request(&mut self, request: &str) -> std::io::Result<(f64, &str)> {
        self.line.clear();
        let framed = format!("{request}\n");
        let t = Instant::now();
        self.writer.write_all(framed.as_bytes())?;
        let n = self.reader.read_line(&mut self.line)?;
        let ms = ms_since(t);
        if n == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        Ok((ms, self.line.trim_end()))
    }
}

/// What a reply says, for checking.
#[derive(Debug, Default)]
pub struct Reply {
    pub ok: bool,
    pub cached: bool,
    pub degraded: bool,
    pub timed_out: bool,
    pub cost: Option<u64>,
    pub lower_bound: Option<u64>,
    pub cover: Option<Vec<u32>>,
    pub hash: Option<String>,
    pub value: Option<Value>,
}

impl Reply {
    pub fn parse(line: &str) -> Reply {
        let Ok(v) = json::parse(line) else {
            return Reply::default();
        };
        let flag = |k: &str| matches!(v.get(k), Some(Value::Bool(true)));
        Reply {
            ok: flag("ok"),
            cached: flag("cached"),
            degraded: flag("degraded"),
            timed_out: flag("timed_out"),
            cost: v.get("cost").and_then(Value::num),
            lower_bound: v.get("lower_bound").and_then(Value::num),
            cover: v.get("cover").and_then(Value::arr).map(|a| {
                a.iter()
                    .map(|x| x.num().map_or(u32::MAX, |n| n as u32))
                    .collect()
            }),
            hash: v.get("hash").and_then(Value::str).map(str::to_string),
            value: Some(v),
        }
    }

    /// An exact answer (SOLVE or RESOLVE): a valid cover whose cost the
    /// reply states, not degraded, not timed out. The optimum is
    /// checked separately against the reference.
    pub fn exact_ok(&self, g: &CsrGraph, weighted: bool) -> bool {
        self.ok
            && !self.degraded
            && !self.timed_out
            && self
                .cover_cost(g, weighted)
                .is_some_and(|c| Some(c) == self.cost)
    }

    /// A certificate answer: a valid cover with `cost ≤ 2·lower_bound`.
    /// `[OPT, 2·lower_bound]` is completed by the reference check.
    pub fn approx_ok(&self, g: &CsrGraph, weighted: bool) -> bool {
        match (self.cover_cost(g, weighted), self.cost, self.lower_bound) {
            (Some(c), Some(cost), Some(lb)) => self.ok && c == cost && cost <= 2 * lb,
            _ => false,
        }
    }

    fn cover_cost(&self, g: &CsrGraph, weighted: bool) -> Option<u64> {
        let cover = self.cover.as_ref()?;
        if !is_vertex_cover(g, cover) {
            return None;
        }
        Some(if weighted {
            g.cover_weight(cover)
        } else {
            cover.len() as u64
        })
    }
}
