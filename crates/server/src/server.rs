//! The service loop: accept, admit, batch, reply, drain.
//!
//! Three kinds of threads cooperate:
//!
//! * **Acceptor** — polls the (nonblocking) listener, spawning one
//!   connection thread per peer; exits on shutdown.
//! * **Connection threads** — speak the frame protocol. `REGISTER` is
//!   handled inline (it is a control operation; compile cost belongs to
//!   the caller who changed the rules, not to other tenants' match
//!   traffic). `MATCH` is submitted to the bounded admission queue and
//!   the thread parks on its reply channel — so one connection has one
//!   request in flight, and concurrency comes from many connections.
//! * **Dispatcher** (one) — drains the queue in batches, groups jobs by
//!   tenant, and issues **one** batched scan per tenant per drain:
//!   simultaneous small requests from different connections flatten into
//!   a single `matches_batch` call that rides the interleaved lane
//!   kernels.
//!
//! Shutdown is graceful by construction: the queue closes (refusing new
//! admissions with `STATUS_RETRY`-style refusals turned into errors),
//! the dispatcher finishes every job it already accepted, acceptors stop,
//! and `Server::shutdown` joins both.

use crate::config::ServerConfig;
use crate::protocol::{
    read_frame, send_frame, write_frame, PayloadReader, PayloadWriter, OP_MATCH, OP_REGISTER,
    OP_SHUTDOWN, STATUS_ERROR, STATUS_OK, STATUS_RETRY,
};
use crate::queue::{Admission, Job, Refusal};
use crate::tenants::Tenants;
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::Duration;

/// How often acceptor threads poll for shutdown between accepts.
const ACCEPT_POLL: Duration = Duration::from_millis(5);

struct Shared {
    config: ServerConfig,
    tenants: Tenants,
    queue: Admission,
    shutdown: AtomicBool,
}

/// A running multi-tenant match service. Dropping the handle does **not**
/// stop the service; call [`shutdown`](Server::shutdown) to drain and
/// join.
pub struct Server {
    shared: Arc<Shared>,
    addr: Option<SocketAddr>,
    threads: Vec<JoinHandle<()>>,
    #[cfg(unix)]
    socket_path: Option<std::path::PathBuf>,
}

impl Server {
    /// Binds a TCP listener (use port 0 for an OS-assigned port, then
    /// read [`local_addr`](Server::local_addr)) and starts the service.
    pub fn bind_tcp(addr: &str, config: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local = listener.local_addr()?;
        let mut server = Server::start(config);
        server.addr = Some(local);
        let shared = Arc::clone(&server.shared);
        server.threads.push(std::thread::spawn(move || {
            accept_loop(&shared, || match listener.accept() {
                Ok((stream, _)) => {
                    stream.set_nonblocking(false).ok();
                    // Replies are small; Nagle would delay them into the
                    // peer's delayed-ACK window.
                    stream.set_nodelay(true).ok();
                    Some(Box::new(stream) as Box<dyn Conn>)
                }
                Err(_) => None,
            });
        }));
        Ok(server)
    }

    /// Binds a Unix-domain socket at `path` (removed on shutdown) and
    /// starts the service.
    #[cfg(unix)]
    pub fn bind_unix(
        path: impl AsRef<std::path::Path>,
        config: ServerConfig,
    ) -> io::Result<Server> {
        let path = path.as_ref().to_path_buf();
        // A stale socket file from a crashed predecessor would fail the
        // bind; remove it (connect errors, not data, live behind it).
        let _ = std::fs::remove_file(&path);
        let listener = std::os::unix::net::UnixListener::bind(&path)?;
        listener.set_nonblocking(true)?;
        let mut server = Server::start(config);
        server.socket_path = Some(path);
        let shared = Arc::clone(&server.shared);
        server.threads.push(std::thread::spawn(move || {
            accept_loop(&shared, || match listener.accept() {
                Ok((stream, _)) => {
                    stream.set_nonblocking(false).ok();
                    Some(Box::new(stream) as Box<dyn Conn>)
                }
                Err(_) => None,
            });
        }));
        Ok(server)
    }

    fn start(config: ServerConfig) -> Server {
        let shared = Arc::new(Shared {
            queue: Admission::new(config.queue_depth),
            tenants: Tenants::new(config.clone()),
            config,
            shutdown: AtomicBool::new(false),
        });
        let dispatcher = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || dispatch_loop(&shared))
        };
        Server {
            shared,
            addr: None,
            threads: vec![dispatcher],
            #[cfg(unix)]
            socket_path: None,
        }
    }

    /// The bound TCP address (None for Unix-socket servers).
    pub fn local_addr(&self) -> Option<SocketAddr> {
        self.addr
    }

    /// Bytes of encoded artifacts currently held by the compile cache.
    pub fn cache_bytes(&self) -> usize {
        self.shared.tenants.cache_bytes()
    }

    /// Match jobs currently waiting in the admission queue.
    pub fn queue_depth(&self) -> usize {
        self.shared.queue.depth()
    }

    /// Registers a tenant in-process (the wire `REGISTER` minus the
    /// socket) — handy for pre-warming namespaces before serving.
    pub fn register(
        &self,
        tenant: &str,
        patterns: &[String],
    ) -> Result<(usize, crate::RegisterSource), String> {
        self.shared.tenants.register(tenant, patterns)
    }

    /// Graceful drain: stop admitting, finish every accepted job, stop
    /// accepting connections, join all service threads.
    pub fn shutdown(mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.queue.close();
        for handle in self.threads.drain(..) {
            let _ = handle.join();
        }
        #[cfg(unix)]
        if let Some(path) = self.socket_path.take() {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// A connected peer: any bidirectional byte stream.
trait Conn: Read + Write + Send {}
impl<T: Read + Write + Send> Conn for T {}

fn accept_loop(shared: &Arc<Shared>, mut accept: impl FnMut() -> Option<Box<dyn Conn>>) {
    // Connection threads are detached: they exit on peer EOF, I/O error,
    // or when shutdown refuses their next request.
    while !shared.shutdown.load(Ordering::SeqCst) {
        match accept() {
            Some(stream) => {
                let shared = Arc::clone(shared);
                std::thread::spawn(move || serve_connection(&shared, stream));
            }
            None => std::thread::sleep(ACCEPT_POLL),
        }
    }
}

fn serve_connection(shared: &Arc<Shared>, mut stream: Box<dyn Conn>) {
    while let Ok(Some((opcode, payload))) = read_frame(&mut stream) {
        let result = handle_request(shared, opcode, payload, &mut stream);
        if result.is_err() {
            // The peer is gone or spoke garbage; drop the connection.
            break;
        }
    }
}

fn handle_request(
    shared: &Arc<Shared>,
    opcode: u8,
    payload: Vec<u8>,
    stream: &mut Box<dyn Conn>,
) -> io::Result<()> {
    match opcode {
        OP_REGISTER => {
            let (tenant, patterns) = match parse_register(&payload) {
                Ok(parts) => parts,
                Err(e) => return reply_error(stream, &e.to_string()),
            };
            match shared.tenants.register(&tenant, &patterns) {
                Ok((count, source)) => {
                    let frame =
                        PayloadWriter::new().u32(count as u32).u8(source as u8).frame(STATUS_OK);
                    send_frame(stream, &frame)
                }
                Err(message) => reply_error(stream, &message),
            }
        }
        OP_MATCH => {
            // The haystacks stay in the request payload; the job carries
            // the buffer plus ranges, so admission is copy-free.
            let (tenant, haystacks) = match parse_match(&payload) {
                Ok(parts) => parts,
                Err(e) => return reply_error(stream, &e.to_string()),
            };
            let (reply, verdicts) = mpsc::channel();
            match shared.queue.submit(Job { tenant, payload, haystacks, reply }) {
                Ok(()) => {}
                Err(Refusal::Full) => {
                    let frame =
                        PayloadWriter::new().u32(shared.config.retry_after_ms).frame(STATUS_RETRY);
                    return send_frame(stream, &frame);
                }
                Err(Refusal::Closed) => return reply_error(stream, "server is shutting down"),
            }
            match verdicts.recv() {
                Ok(Ok(per_haystack)) => {
                    let mut body = PayloadWriter::new().u32(per_haystack.len() as u32);
                    for ids in &per_haystack {
                        body = body.u32(ids.len() as u32);
                        for &id in ids {
                            body = body.u32(id);
                        }
                    }
                    send_frame(stream, &body.frame(STATUS_OK))
                }
                Ok(Err(err)) => reply_error(stream, &err.to_string()),
                Err(_) => reply_error(stream, "server dropped the request during shutdown"),
            }
        }
        OP_SHUTDOWN => {
            shared.shutdown.store(true, Ordering::SeqCst);
            shared.queue.close();
            write_frame(stream, STATUS_OK, &[])
        }
        other => reply_error(stream, &format!("unknown opcode {other}")),
    }
}

fn reply_error(stream: &mut Box<dyn Conn>, message: &str) -> io::Result<()> {
    send_frame(stream, &PayloadWriter::new().bytes(message.as_bytes()).frame(STATUS_ERROR))
}

fn parse_register(payload: &[u8]) -> io::Result<(String, Vec<String>)> {
    let mut r = PayloadReader::new(payload);
    let tenant = r.string()?;
    let n = r.u32()? as usize;
    let mut patterns = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        patterns.push(r.string()?);
    }
    r.finish()?;
    Ok((tenant, patterns))
}

fn parse_match(payload: &[u8]) -> io::Result<(String, Vec<std::ops::Range<usize>>)> {
    let mut r = PayloadReader::new(payload);
    let tenant = r.string()?;
    let n = r.u32()? as usize;
    let mut haystacks = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        haystacks.push(r.bytes_range()?);
    }
    r.finish()?;
    Ok((tenant, haystacks))
}

/// The batching heart: drain everything admitted, group by tenant, scan
/// each tenant's flattened haystacks in **one** `matches_batch` call,
/// then scatter the verdicts back to the waiting connections.
fn dispatch_loop(shared: &Arc<Shared>) {
    while let Some(jobs) = shared.queue.pop_batch() {
        let mut by_tenant: HashMap<String, Vec<Job>> = HashMap::new();
        for job in jobs {
            by_tenant.entry(job.tenant.clone()).or_default().push(job);
        }
        for (tenant, group) in by_tenant {
            let matcher = match shared.tenants.get(&tenant) {
                Ok(m) => m,
                Err(err) => {
                    for job in &group {
                        let _ = job.reply.send(Err(err.clone()));
                    }
                    continue;
                }
            };
            let flat: Vec<&[u8]> = group
                .iter()
                .flat_map(|j| (0..j.haystacks.len()).map(move |i| j.haystack(i)))
                .collect();
            // Scatter: each job takes its own haystacks' verdicts back off
            // the front of the flattened result.
            let mut rest = matcher.matches_batch(&flat).into_iter();
            for job in &group {
                let own: Vec<Vec<u32>> = rest.by_ref().take(job.haystacks.len()).collect();
                let _ = job.reply.send(Ok(own));
            }
        }
    }
}
