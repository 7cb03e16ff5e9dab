//! The TCP front-end: `std::net` listener, a small thread pool, two wire
//! dialects over one dispatch.
//!
//! Zero async runtime, zero external dependencies: an accept thread hands
//! connections to a fixed pool of workers over the same [`BoundedQueue`]
//! the shards use (blocking policy — a connection is never shed). Each
//! worker speaks the [`crate::proto`] protocol against the shared
//! [`CdiService`], in whichever dialect the connection's first byte
//! selects: a client leading with [`crate::cdipack::WIRE_MAGIC`] gets
//! varint-length-prefixed binary frames ([`crate::cdipack`]); anything
//! else is served as JSON lines, so `nc`-style scripting keeps working
//! unchanged. Both dialects share request execution (`dispatch` is
//! dialect-blind), so answers are identical modulo encoding, and one reply
//! path: a reply leaves in one `write`, flushed before any read that would
//! block (`Conn`), on a socket with `TCP_NODELAY`.
//!
//! Shutdown is cooperative and clock-free: the `Shutdown` request (or
//! [`ServerHandle::stop`]) raises a flag and pokes the accept loop with a
//! loopback connection so it observes the flag without needing accept
//! timeouts.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use cdi_core::error::{CdiError, Result};
use cdi_core::time::Timestamp;
use simfleet::Fleet;

use crate::cdipack;
use crate::proto::{DrillOp, OutageSummary, Request, Response, TopEntry};
use crate::queue::BoundedQueue;
use crate::rollup::rollup;
use crate::service::CdiService;

/// A diagnosis layer attached to the server: observes every committed
/// watermark advance and answers `Diagnose` with the currently open
/// outage clusters. Implemented by `outage-diag`'s live tap; the server
/// stays decoupled from the diagnosis crate through this trait.
pub trait DiagProvider: Send + Sync {
    /// Called after each successful `Advance`, with the committed
    /// watermark — one diagnosis tick per advance.
    fn on_advance(&self, watermark: Timestamp);
    /// The currently open diagnosed outages, in deterministic order.
    fn active(&self) -> Vec<OutageSummary>;
}

impl std::fmt::Debug for dyn DiagProvider + '_ {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "DiagProvider")
    }
}

/// Shared context of every connection handler.
#[derive(Debug)]
struct ServerCtx {
    service: Arc<CdiService>,
    /// Topology for `Rollup` requests; without one, rollups answer with an
    /// error instead of a wrong empty aggregate.
    fleet: Option<Arc<Fleet>>,
    /// Diagnosis layer for `Diagnose` requests; without one, they answer
    /// with an error instead of a wrong empty cluster list.
    diag: Option<Arc<dyn DiagProvider>>,
    shutdown: AtomicBool,
    addr: SocketAddr,
}

/// A running server: join or stop it through this handle.
#[derive(Debug)]
pub struct ServerHandle {
    addr: SocketAddr,
    ctx: Arc<ServerCtx>,
    conns: Arc<BoundedQueue<TcpStream>>,
    accept_thread: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (resolves port 0 to the real port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Has a shutdown been requested (by `stop` or a `Shutdown` request)?
    pub fn is_shutting_down(&self) -> bool {
        self.ctx.shutdown.load(Ordering::SeqCst)
    }

    /// Request shutdown and wait for the accept loop and all workers to
    /// finish their current connections.
    pub fn stop(&mut self) {
        self.ctx.shutdown.store(true, Ordering::SeqCst);
        // Poke the blocking accept so it observes the flag.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept_thread.take() {
            let _ = h.join();
        }
        self.conns.close();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }

    /// Wait until the server shuts down on its own (a `Shutdown` request).
    pub fn join(mut self) {
        if let Some(h) = self.accept_thread.take() {
            let _ = h.join();
        }
        self.conns.close();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        if self.accept_thread.is_some() {
            self.stop();
        }
    }
}

/// Bind `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and serve the
/// protocol with `workers` handler threads.
pub fn serve(
    service: Arc<CdiService>,
    fleet: Option<Arc<Fleet>>,
    addr: &str,
    workers: usize,
) -> Result<ServerHandle> {
    serve_with_diag(service, fleet, None, addr, workers)
}

/// [`serve`], with a diagnosis layer attached: `diag` observes every
/// committed watermark advance and answers `Diagnose` requests.
pub fn serve_with_diag(
    service: Arc<CdiService>,
    fleet: Option<Arc<Fleet>>,
    diag: Option<Arc<dyn DiagProvider>>,
    addr: &str,
    workers: usize,
) -> Result<ServerHandle> {
    let listener = TcpListener::bind(addr)
        .map_err(|e| CdiError::invalid(format!("cannot bind {addr}: {e}")))?;
    let bound = listener
        .local_addr()
        .map_err(|e| CdiError::invalid(format!("cannot resolve bound address: {e}")))?;
    let ctx = Arc::new(ServerCtx {
        service,
        fleet,
        diag,
        shutdown: AtomicBool::new(false),
        addr: bound,
    });
    // A small connection backlog; blocking push means a flood of
    // connections waits in the kernel, it is not dropped.
    let conns = Arc::new(BoundedQueue::new(64));

    let accept_ctx = Arc::clone(&ctx);
    let accept_conns = Arc::clone(&conns);
    let accept_thread = std::thread::spawn(move || {
        for stream in listener.incoming() {
            if accept_ctx.shutdown.load(Ordering::SeqCst) {
                break;
            }
            if let Ok(stream) = stream {
                accept_conns.push_blocking(stream);
            }
        }
    });

    let worker_count = workers.max(1);
    let mut handles = Vec::with_capacity(worker_count);
    for _ in 0..worker_count {
        let worker_ctx = Arc::clone(&ctx);
        let worker_conns = Arc::clone(&conns);
        handles.push(std::thread::spawn(move || {
            while let Some(stream) = worker_conns.pop() {
                handle_connection(stream, &worker_ctx);
            }
        }));
    }

    Ok(ServerHandle { addr: bound, ctx, conns, accept_thread: Some(accept_thread), workers: handles })
}

/// Replies are written out once this many bytes are waiting, however much
/// pipelined input is still unread.
const REPLY_BUF_BYTES: usize = 64 * 1024;

/// One accepted connection. A reply — length prefix or newline included —
/// is queued in `out` and leaves in one `write`, and the `Read`/`BufRead`
/// impls flush `out` before any read that has to go to the socket: the
/// server never blocks in a read while it holds an unsent reply. So a
/// closed-loop client has its reply at once (two small writes would leave
/// the second waiting out the client's 40 ms delayed ACK), and a pipelining
/// client gets one write per burst of requests instead of one per reply.
struct Conn<R: Read, W: Write> {
    reader: BufReader<R>,
    writer: W,
    // bound: flushed at REPLY_BUF_BYTES, so that plus one reply at most
    out: Vec<u8>,
}

impl<R: Read, W: Write> Conn<R, W> {
    fn new(reader: R, writer: W) -> Self {
        Conn { reader: BufReader::new(reader), writer, out: Vec::new() }
    }

    /// Queue one framed reply.
    fn queue_frame(&mut self, response: &Response) -> std::io::Result<()> {
        cdipack::write_frame(&mut self.out, &cdipack::encode_response(response))?;
        self.spill()
    }

    /// Queue one JSON-line reply.
    fn queue_line(&mut self, response: &Response) -> std::io::Result<()> {
        let payload = serde_json::to_string(response).unwrap_or_else(|e| {
            format!("{{\"Error\":{{\"message\":\"response serialization failed: {e}\"}}}}")
        });
        self.out.extend_from_slice(payload.as_bytes());
        // bound: `spill` below writes the queue out at REPLY_BUF_BYTES
        self.out.push(b'\n');
        self.spill()
    }

    /// Write the queue out early if it has reached its bound.
    fn spill(&mut self) -> std::io::Result<()> {
        if self.out.len() >= REPLY_BUF_BYTES {
            self.flush()?;
        }
        Ok(())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        if self.out.is_empty() {
            return Ok(());
        }
        self.writer.write_all(&self.out)?;
        self.out.clear();
        // One oversized reply (a snapshot) must not pin its size for the
        // life of the connection.
        self.out.shrink_to(REPLY_BUF_BYTES);
        self.writer.flush()
    }

    fn flush_if_read_would_block(&mut self) -> std::io::Result<()> {
        if self.reader.buffer().is_empty() {
            self.flush()?;
        }
        Ok(())
    }
}

impl<R: Read, W: Write> Read for Conn<R, W> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.flush_if_read_would_block()?;
        self.reader.read(buf)
    }
}

impl<R: Read, W: Write> BufRead for Conn<R, W> {
    fn fill_buf(&mut self) -> std::io::Result<&[u8]> {
        self.flush_if_read_would_block()?;
        self.reader.fill_buf()
    }

    fn consume(&mut self, amt: usize) {
        self.reader.consume(amt);
    }
}

/// Serve one connection until EOF or a `Shutdown` request.
fn handle_connection(stream: TcpStream, ctx: &ServerCtx) {
    let Ok(write_half) = stream.try_clone() else { return };
    // Replies leave whole already; nodelay keeps one from waiting behind
    // an earlier reply the client has not acknowledged yet.
    if write_half.set_nodelay(true).is_err() {
        return;
    }
    if serve_stream(stream, write_half, ctx) {
        // Poke the accept loop awake so it exits.
        let _ = TcpStream::connect(ctx.addr);
    }
}

/// Speak whichever dialect the stream's first byte selects, until it ends.
/// Returns whether a `Shutdown` request ended it.
fn serve_stream(reader: impl Read, writer: impl Write, ctx: &ServerCtx) -> bool {
    let mut conn = Conn::new(reader, writer);
    // Dialect negotiation: peek one byte. `WIRE_MAGIC` starts with 0xCD,
    // which can never begin a JSON line (it is not even valid UTF-8 as a
    // leading byte), so the peek is unambiguous.
    let shutdown = match conn.fill_buf().map(|buf| buf.first().copied()) {
        Ok(Some(first)) if first == cdipack::WIRE_MAGIC[0] => serve_cdipack(&mut conn, ctx),
        Ok(_) => serve_json(&mut conn, ctx),
        Err(_) => false,
    };
    // The last reply — `ShuttingDown`, or the `Error` that explains the
    // close — leaves before the socket does.
    let _ = conn.flush();
    shutdown
}

/// Serve JSON lines: one request per line, one reply line each, until EOF,
/// a read error, or a `Shutdown` request.
fn serve_json<R: Read, W: Write>(conn: &mut Conn<R, W>, ctx: &ServerCtx) -> bool {
    let mut line = String::new();
    loop {
        line.clear();
        match conn.read_line(&mut line) {
            Ok(0) | Err(_) => return false,
            Ok(_) => {}
        }
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let (response, shutdown) = match serde_json::from_str::<Request>(line) {
            Ok(req) => dispatch(req, ctx),
            Err(e) => (Response::Error { message: format!("bad request: {e}") }, false),
        };
        if conn.queue_line(&response).is_err() || shutdown {
            return shutdown;
        }
    }
}

/// Serve one negotiated cdipack connection: verify the 4-byte magic, then
/// loop varint-framed request → dispatch → varint-framed response until
/// EOF, an unrecoverable framing error, or a `Shutdown` request.
///
/// Error handling is two-tier: a frame that *arrives* but does not decode
/// as a request gets a framed `Error` response and the connection
/// continues (the stream is still in sync); a framing-layer error
/// (truncated length, oversized declaration) means the stream position is
/// unknowable, so the server answers once and closes.
fn serve_cdipack<R: Read, W: Write>(conn: &mut Conn<R, W>, ctx: &ServerCtx) -> bool {
    let mut magic = [0u8; 4];
    if conn.read_exact(&mut magic).is_err() || magic != cdipack::WIRE_MAGIC {
        // Same leading byte but a different version: answer in the dialect
        // the client chose, then drop the connection.
        let resp = Response::Error {
            message: "unsupported cdipack wire version".to_string(),
        };
        let _ = conn.queue_frame(&resp);
        return false;
    }
    loop {
        let payload = match cdipack::read_frame(conn) {
            Ok(Some(payload)) => payload,
            // Clean EOF between frames: the client hung up.
            Ok(None) => return false,
            Err(e) => {
                let _ = conn.queue_frame(&Response::Error { message: e.to_string() });
                return false;
            }
        };
        let (response, shutdown) = match cdipack::decode_request(&payload) {
            Ok(req) => dispatch(req, ctx),
            Err(e) => (Response::Error { message: e.to_string() }, false),
        };
        if conn.queue_frame(&response).is_err() || shutdown {
            return shutdown;
        }
    }
}

/// Execute one request. Returns the response and whether the server
/// should shut down after sending it.
fn dispatch(req: Request, ctx: &ServerCtx) -> (Response, bool) {
    let service = &ctx.service;
    let response = match req {
        Request::Ingest { target, span } => {
            let report = service.ingest(target, span);
            Response::Ingested { accepted: report.accepted, shed: report.shed }
        }
        Request::IngestBatch { items } => {
            let report = service.ingest_batch(&items);
            Response::Ingested { accepted: report.accepted, shed: report.shed }
        }
        Request::Advance { watermark } => match service.advance_watermark(watermark) {
            Ok(()) => {
                // The diagnosis layer ticks on committed watermarks only,
                // so a rejected (regressing) advance never produces a tick.
                if let Some(diag) = &ctx.diag {
                    diag.on_advance(watermark);
                }
                Response::Ok
            }
            Err(e) => Response::Error { message: e.to_string() },
        },
        Request::Flush => {
            service.flush();
            Response::Ok
        }
        Request::Point { target } => match service.point(target) {
            Ok(found) => Response::Point { found },
            Err(e) => Response::Error { message: e.to_string() },
        },
        Request::TopK { k, category } => match service.top_k(k, category) {
            Ok(entries) => Response::TopK {
                entries: entries
                    .into_iter()
                    .map(|(target, score)| TopEntry { target, score })
                    .collect(),
            },
            Err(e) => Response::Error { message: e.to_string() },
        },
        Request::Rollup { scope } => match &ctx.fleet {
            Some(fleet) => match rollup(service, fleet, &scope) {
                Ok(r) => Response::Rollup { vm_count: r.vm_count, breakdown: r.breakdown },
                Err(e) => Response::Error { message: e.to_string() },
            },
            None => Response::Error {
                message: "server has no fleet topology; rollups unavailable".to_string(),
            },
        },
        Request::Diagnose => match &ctx.diag {
            Some(diag) => Response::Diagnoses { outages: diag.active() },
            None => Response::Error {
                message: "server has no diagnosis layer; Diagnose unavailable".to_string(),
            },
        },
        Request::Metrics => Response::Metrics { report: service.metrics() },
        Request::Snapshot => Response::Snapshot { snapshot: service.snapshot() },
        Request::Resize { shards } => match service.resize(shards) {
            Ok(outcome) => Response::Resized { outcome },
            Err(e) => Response::Error { message: e.to_string() },
        },
        Request::Drill { op } => match op {
            DrillOp::KillShard { shard } => {
                if service.kill_shard(shard) {
                    Response::Ok
                } else {
                    Response::Error { message: format!("no shard {shard}") }
                }
            }
            DrillOp::RollingRestart => match service.rolling_restart() {
                Ok(()) => Response::Ok,
                Err(e) => Response::Error { message: e.to_string() },
            },
            DrillOp::Supervise => Response::Supervised { respawned: service.supervise() },
        },
        Request::Shutdown => {
            // Raise the flag before the reply exists, so a client that has
            // read it observes the server as shutting down.
            ctx.shutdown.store(true, Ordering::SeqCst);
            return (Response::ShuttingDown, true);
        }
    };
    (response, false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::ServeConfig;
    use std::cell::RefCell;
    use std::collections::VecDeque;

    /// One call that reached the (scripted) socket.
    #[derive(Debug, PartialEq, Clone, Copy)]
    enum Io {
        Read(usize),
        Write(usize),
    }

    /// A socket whose peer sends `chunks` one `read` at a time, then hangs
    /// up; every read and write that reaches it is logged in order.
    struct Script {
        chunks: RefCell<VecDeque<Vec<u8>>>,
        sent: RefCell<Vec<u8>>,
        log: RefCell<Vec<Io>>,
    }

    impl Read for &Script {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let mut chunks = self.chunks.borrow_mut();
            let mut chunk = chunks.pop_front().unwrap_or_default();
            let n = chunk.len().min(buf.len());
            buf[..n].copy_from_slice(&chunk[..n]);
            if n < chunk.len() {
                chunks.push_front(chunk.split_off(n));
            }
            self.log.borrow_mut().push(Io::Read(n));
            Ok(n)
        }
    }

    impl Write for &Script {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.log.borrow_mut().push(Io::Write(buf.len()));
            self.sent.borrow_mut().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// Serve `chunks` as one connection; returns the socket calls in
    /// order, the bytes sent, and whether a `Shutdown` ended it.
    fn run(chunks: &[&[u8]]) -> (Vec<Io>, Vec<u8>, bool) {
        let ctx = ServerCtx {
            service: Arc::new(CdiService::new(ServeConfig::default()).unwrap()),
            fleet: None,
            diag: None,
            shutdown: AtomicBool::new(false),
            addr: "127.0.0.1:0".parse().unwrap(),
        };
        let socket = Script {
            chunks: RefCell::new(chunks.iter().map(|c| c.to_vec()).collect()),
            sent: RefCell::default(),
            log: RefCell::default(),
        };
        let shutdown = serve_stream(&socket, &socket, &ctx);
        assert_eq!(shutdown, ctx.shutdown.load(Ordering::SeqCst));
        (socket.log.into_inner(), socket.sent.into_inner(), shutdown)
    }

    fn frame(req: &Request) -> Vec<u8> {
        let mut out = Vec::new();
        cdipack::write_frame(&mut out, &cdipack::encode_request(req)).unwrap();
        out
    }

    fn frames(mut bytes: &[u8]) -> Vec<Response> {
        let mut out = Vec::new();
        while let Some(payload) = cdipack::read_frame(&mut bytes).unwrap() {
            out.push(cdipack::decode_response(&payload).unwrap());
        }
        out
    }

    fn lines(bytes: &[u8]) -> Vec<Response> {
        let text = std::str::from_utf8(bytes).unwrap();
        assert!(text.is_empty() || text.ends_with('\n'));
        text.lines().map(|l| serde_json::from_str(l).unwrap()).collect()
    }

    fn writes(log: &[Io]) -> Vec<usize> {
        log.iter().filter_map(|io| if let Io::Write(n) = io { Some(*n) } else { None }).collect()
    }

    #[test]
    fn a_burst_of_requests_is_answered_with_one_write_in_both_dialects() {
        let mut burst = cdipack::WIRE_MAGIC.to_vec();
        for req in [Request::Flush, Request::Metrics, Request::Diagnose] {
            burst.extend(frame(&req));
        }
        let (log, sent, _) = run(&[&burst]);
        assert_eq!(log, [Io::Read(burst.len()), Io::Write(sent.len()), Io::Read(0)]);
        assert!(matches!(
            frames(&sent)[..],
            [Response::Ok, Response::Metrics { .. }, Response::Error { .. }]
        ));

        let burst = b"\"Flush\"\n\n\"Metrics\"\nnot json\n";
        let (log, sent, _) = run(&[burst]);
        assert_eq!(log, [Io::Read(burst.len()), Io::Write(sent.len()), Io::Read(0)]);
        assert!(matches!(
            lines(&sent)[..],
            [Response::Ok, Response::Metrics { .. }, Response::Error { .. }]
        ));
    }

    #[test]
    fn a_reply_is_flushed_before_the_read_that_waits_for_the_rest_of_a_request() {
        let mut head = cdipack::WIRE_MAGIC.to_vec();
        head.extend(frame(&Request::Flush));
        let reply_len = head.len() - cdipack::WIRE_MAGIC.len();
        let next = frame(&Request::Advance { watermark: 60_000 });
        let (half, rest) = next.split_at(next.len() / 2);
        head.extend(half);
        let (log, sent, _) = run(&[&head, rest]);
        assert_eq!(
            log,
            [
                Io::Read(head.len()),
                Io::Write(reply_len),
                Io::Read(rest.len()),
                Io::Write(sent.len() - reply_len),
                Io::Read(0)
            ]
        );
        assert!(matches!(frames(&sent)[..], [Response::Ok, Response::Ok]));

        let (log, sent, _) = run(&[b"\"Flush\"\n\"Metr", b"ics\"\n"]);
        assert_eq!(log[..3], [Io::Read(13), Io::Write(5), Io::Read(5)]);
        assert!(matches!(lines(&sent)[..], [Response::Ok, Response::Metrics { .. }]));
    }

    #[test]
    fn the_reply_buffer_is_bounded_however_long_the_burst() {
        // One BufReader-full of tiny requests whose replies add up to
        // several times the bound.
        let one = frame(&Request::Metrics);
        let reply = frames(&run(&[&[&cdipack::WIRE_MAGIC[..], &one].concat()]).1);
        let reply_len = cdipack::encode_response(&reply[0]).len() + 10;
        let n = 8 * REPLY_BUF_BYTES / reply_len;
        let mut burst = cdipack::WIRE_MAGIC.to_vec();
        for _ in 0..n {
            burst.extend(&one);
        }
        let (log, sent, _) = run(&[&burst]);
        assert_eq!(frames(&sent).len(), n);
        let sizes = writes(&log);
        assert!(sizes.len() >= 4, "{sizes:?}");
        assert!(sizes.iter().all(|&w| w < REPLY_BUF_BYTES + reply_len), "{sizes:?}");
    }

    #[test]
    fn the_final_reply_leaves_before_the_close() {
        // Shutdown behind another request in the same burst.
        let mut burst = cdipack::WIRE_MAGIC.to_vec();
        burst.extend(frame(&Request::Flush));
        burst.extend(frame(&Request::Shutdown));
        burst.extend(frame(&Request::Flush));
        let (log, sent, shutdown) = run(&[&burst]);
        assert!(shutdown);
        assert_eq!(writes(&log), [sent.len()]);
        assert!(matches!(frames(&sent)[..], [Response::Ok, Response::ShuttingDown]));

        let (log, sent, shutdown) = run(&[b"\"Flush\"\n\"Shutdown\"\n\"Flush\"\n"]);
        assert!(shutdown);
        assert_eq!(writes(&log), [sent.len()]);
        assert!(matches!(lines(&sent)[..], [Response::Ok, Response::ShuttingDown]));

        // A framing fault (declared length over the cap) behind a good request.
        let mut burst = cdipack::WIRE_MAGIC.to_vec();
        burst.extend(frame(&Request::Flush));
        burst.extend([0xFF, 0xFF, 0xFF, 0xFF, 0x7F]);
        let (log, sent, shutdown) = run(&[&burst]);
        assert!(!shutdown);
        assert_eq!(writes(&log), [sent.len()]);
        assert!(matches!(frames(&sent)[..], [Response::Ok, Response::Error { .. }]));

        // A refused wire version.
        let (log, sent, _) = run(&[&[cdipack::WIRE_MAGIC[0], b'P', b'K', 0x7F]]);
        assert_eq!(writes(&log), [sent.len()]);
        assert!(matches!(frames(&sent)[..], [Response::Error { .. }]));
    }
}
