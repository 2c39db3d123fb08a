//! Std-only HTTP scrape endpoint for live engine runs.
//!
//! A [`ScrapeServer`] owns a loopback [`TcpListener`] on a dedicated std
//! thread, and every socket call happens there: the accept, the request
//! read under a deadline for the whole head, and the response write
//! under a deadline for the whole response. The simulation thread never
//! touches a socket. At snapshot boundaries it makes one relaxed atomic
//! load ([`wanted`](ScrapeServer::wanted)); only when a scraper is waiting does
//! it render the requested routes and [`publish`](ScrapeServer::publish)
//! them as immutable `Arc` bodies behind a `Mutex`/`Condvar`. The server
//! thread answers each request with the first body published after the
//! request arrived, or, once [`publish_final`](ScrapeServer::publish_final)
//! has run, with the final state at once. A slow, silent or flooding
//! client therefore costs the simulation nothing: it only occupies the
//! server thread, for at most the read deadline plus the write deadline
//! per connection.
//!
//! The listener is non-blocking. With nothing to accept, the server
//! thread waits on the board's condition variable for [`ACCEPT_POLL`],
//! so shutdown wakes it at once and never depends on a connection
//! getting through (a full backlog or an exhausted descriptor table
//! cannot wedge a drop): dropping the server joins its thread within
//! the two deadlines.
//!
//! The protocol is the minimum Prometheus and `curl` need: `GET` only,
//! one request per connection, `Connection: close`. Routing is the
//! caller's: the server is bound with its route table and asks the
//! caller to render a route by path, so it stays transport-only and unit
//! tests can drive it with a plain [`std::net::TcpStream`].

use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Largest request head read before the request is rejected.
const MAX_REQUEST_BYTES: usize = 8 * 1024;

/// How long one accepted connection may take to deliver its whole
/// request head before it is dropped (scrapers are local; this only
/// bounds how long a stuck or trickling peer can hold the server
/// thread).
const READ_TIMEOUT: Duration = Duration::from_millis(200);

/// How long one accepted connection may take to take its whole
/// response before it is dropped, however slowly the peer reads.
const WRITE_TIMEOUT: Duration = Duration::from_millis(200);

/// How long the server thread waits between accept attempts when none
/// is pending (shutdown cuts the wait short). Bounds the extra latency a
/// new scrape sees; costs the simulation nothing.
const ACCEPT_POLL: Duration = Duration::from_millis(5);

/// One response body with its content type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// The body.
    pub body: String,
}

impl Response {
    /// A Prometheus text-exposition response.
    pub fn prometheus(body: String) -> Self {
        Response {
            content_type: "text/plain; version=0.0.4; charset=utf-8",
            body,
        }
    }

    /// A JSON response.
    pub fn json(body: String) -> Self {
        Response {
            content_type: "application/json",
            body,
        }
    }
}

/// Counters of what the server answered, for the run report. Every
/// accepted connection lands in exactly one of them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Requests answered with `200 OK`.
    pub served: u64,
    /// Requests answered with `404 Not Found`.
    pub not_found: u64,
    /// Connections dropped or answered with an error status (bad
    /// request line, unsupported method, oversized or timed-out head,
    /// a response the peer did not take within the write deadline, a
    /// request still waiting when the server shut down).
    pub rejected: u64,
}

/// The latest rendered body of every route.
#[derive(Debug)]
struct Board {
    /// `(generation rendered at, body)` per route; `None` until first
    /// rendered.
    bodies: Vec<Option<(u64, Arc<Response>)>>,
    /// Publications so far.
    generation: u64,
    /// The run is over: every body is the final state.
    finished: bool,
    /// The server is shutting down: waiting requests give up and the
    /// accept loop ends.
    closed: bool,
}

/// State shared by the server thread and the simulation thread.
#[derive(Debug)]
struct Shared {
    routes: &'static [&'static str],
    /// Bit `i` set: a request for `routes[i]` waits for a fresh body.
    /// `Relaxed` throughout: the mask publishes no other data (bodies
    /// travel through `board`'s mutex), and a bit seen late only
    /// defers a render to the next boundary.
    wanted: AtomicU32,
    board: Mutex<Board>,
    published: Condvar,
    served: AtomicU64,
    not_found: AtomicU64,
    rejected: AtomicU64,
}

impl Shared {
    /// Wait up to `timeout`, returning early once the server closes.
    fn idle(&self, timeout: Duration) {
        let board = self.board();
        let _ = self
            .published
            .wait_timeout_while(board, timeout, |board| !board.closed);
    }

    /// Every update assigns whole fields, so a board left behind by a
    /// panicking holder is still valid and the guard is recovered.
    fn board(&self) -> MutexGuard<'_, Board> {
        self.board
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Block until `route` has a body rendered after this call, or the
    /// final state; `None` when the server shuts down first.
    fn await_body(&self, route: usize) -> Option<Arc<Response>> {
        let mut board = self.board();
        let asked_at = board.generation;
        if !board.finished {
            self.wanted.fetch_or(1 << route, Ordering::Relaxed);
        }
        loop {
            if let Some((rendered_at, body)) = &board.bodies[route] {
                if *rendered_at > asked_at || board.finished {
                    return Some(Arc::clone(body));
                }
            }
            if board.closed {
                return None;
            }
            board = self
                .published
                .wait(board)
                .unwrap_or_else(|poisoned| poisoned.into_inner());
        }
    }

    /// Render the routes in `mask` and publish them as one generation.
    fn publish(&self, mask: u32, finished: bool, render: &mut dyn FnMut(&str) -> Response) {
        let rendered: Vec<(usize, Arc<Response>)> = (0..self.routes.len())
            .filter(|route| mask & (1 << route) != 0)
            .map(|route| (route, Arc::new(render(self.routes[route]))))
            .collect();
        let mut board = self.board();
        board.generation += 1;
        let generation = board.generation;
        for (route, body) in rendered {
            board.bodies[route] = Some((generation, body));
        }
        board.finished |= finished;
        drop(board);
        self.published.notify_all();
    }

    fn stats(&self) -> ServeStats {
        ServeStats {
            served: self.served.load(Ordering::Relaxed),
            not_found: self.not_found.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
        }
    }
}

/// A loopback HTTP listener answering from its own thread with bodies
/// the simulation publishes at snapshot boundaries.
#[derive(Debug)]
pub struct ScrapeServer {
    addr: SocketAddr,
    shared: Arc<Shared>,
    thread: Option<JoinHandle<()>>,
}

impl ScrapeServer {
    /// Bind `127.0.0.1:port` (`port = 0` picks a free port; read the
    /// outcome back with [`port`](Self::port)) and start the server
    /// thread. `routes` are the paths the caller renders; any other path
    /// is answered `404` without involving the caller.
    ///
    /// # Panics
    ///
    /// Panics with more than 32 routes.
    pub fn bind(port: u16, routes: &'static [&'static str]) -> std::io::Result<Self> {
        assert!(routes.len() <= 32, "at most 32 routes");
        let listener = TcpListener::bind(("127.0.0.1", port))?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            routes,
            wanted: AtomicU32::new(0),
            board: Mutex::new(Board {
                bodies: vec![None; routes.len()],
                generation: 0,
                finished: false,
                closed: false,
            }),
            published: Condvar::new(),
            served: AtomicU64::new(0),
            not_found: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
        });
        let thread = std::thread::Builder::new()
            .name(format!("scrape-{}", addr.port()))
            .spawn({
                let shared = Arc::clone(&shared);
                move || serve(&listener, &shared)
            })?;
        Ok(ScrapeServer {
            addr,
            shared,
            thread: Some(thread),
        })
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The bound port.
    pub fn port(&self) -> u16 {
        self.addr.port()
    }

    /// What the server has answered so far (live: the server thread
    /// keeps counting until the server is dropped).
    pub fn stats(&self) -> ServeStats {
        self.shared.stats()
    }

    /// `true` when a request waits for a fresh body. One relaxed atomic
    /// load: the whole per-boundary cost of an idle server.
    #[inline]
    pub fn wanted(&self) -> bool {
        self.shared.wanted.load(Ordering::Relaxed) != 0
    }

    /// Render every route a request waits for and publish the bodies.
    /// `render` maps a route path to its response.
    pub fn publish(&self, render: &mut dyn FnMut(&str) -> Response) {
        let mask = self.shared.wanted.swap(0, Ordering::Relaxed);
        if mask != 0 {
            self.shared.publish(mask, false, render);
        }
    }

    /// Render every route once more as the final state: waiting and
    /// later requests are answered from it without further publishing.
    pub fn publish_final(&self, render: &mut dyn FnMut(&str) -> Response) {
        self.shared.wanted.store(0, Ordering::Relaxed);
        let all = ((1u64 << self.shared.routes.len()) - 1) as u32;
        self.shared.publish(all, true, render);
    }
}

impl Drop for ScrapeServer {
    /// Close the board and join the server thread: it wakes from its
    /// idle wait or its waiting request at once, and a connection it is
    /// reading or writing ends within that connection's deadline.
    /// Connections still in the backlog are never accepted (and so never
    /// counted); closing the listener resets them.
    fn drop(&mut self) {
        self.shared.board().closed = true;
        self.shared.published.notify_all();
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// The server thread: answer connections one at a time until shutdown.
fn serve(listener: &TcpListener, shared: &Shared) {
    while !shared.board().closed {
        match listener.accept() {
            Ok((mut stream, _)) => {
                let counter = match stream.set_nonblocking(false) {
                    Ok(()) => answer(shared, &mut stream),
                    Err(_) => &shared.rejected,
                };
                counter.fetch_add(1, Ordering::Relaxed);
                // The connection closes only now, so a client that has
                // read to EOF finds itself counted.
                drop(stream);
            }
            // Nothing pending, out of descriptors, or a connection reset
            // before accept: wait for the next attempt or shutdown.
            Err(_) => shared.idle(ACCEPT_POLL),
        }
    }
}

/// Answer one connection; returns the [`ServeStats`] counter it lands in.
fn answer<'s>(shared: &'s Shared, stream: &mut TcpStream) -> &'s AtomicU64 {
    let head = read_request_head(stream);
    let (reply, answered) = match head.as_deref().and_then(parse_request_line) {
        Some(("GET", path)) => match shared.routes.iter().position(|route| *route == path) {
            Some(route) => match shared.await_body(route) {
                Some(response) => (http_ok(&response), &shared.served),
                None => return &shared.rejected,
            },
            None => (http_error(404, "not found"), &shared.not_found),
        },
        Some(_) => (http_error(405, "method not allowed"), &shared.rejected),
        None => (http_error(400, "bad request"), &shared.rejected),
    };
    match write_response(stream, reply.as_bytes()) {
        Ok(()) => answered,
        Err(_) => &shared.rejected,
    }
}

/// Write all of `reply` within [`WRITE_TIMEOUT`] of the call, however the
/// peer paces its reads (a per-write timeout alone would let a reader
/// that takes a byte now and then hold the server thread indefinitely).
fn write_response(stream: &mut TcpStream, mut reply: &[u8]) -> std::io::Result<()> {
    let deadline = Instant::now() + WRITE_TIMEOUT;
    while !reply.is_empty() {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(std::io::ErrorKind::TimedOut.into());
        }
        stream.set_write_timeout(Some(left))?;
        match stream.write(reply) {
            Ok(0) => return Err(std::io::ErrorKind::WriteZero.into()),
            Ok(n) => reply = &reply[n..],
            Err(err) if err.kind() == std::io::ErrorKind::Interrupted => {}
            Err(err) => return Err(err),
        }
    }
    Ok(())
}

/// Read until the end of the request head (`\r\n\r\n`), the size bound,
/// or [`READ_TIMEOUT`] after the call, however the peer spaces its
/// bytes. Returns `None` on anything but a complete head.
fn read_request_head(stream: &mut TcpStream) -> Option<String> {
    let deadline = Instant::now() + READ_TIMEOUT;
    let mut buf = Vec::new();
    let mut chunk = [0u8; 1024];
    loop {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() || stream.set_read_timeout(Some(left)).is_err() {
            return None;
        }
        match stream.read(&mut chunk) {
            Ok(0) => return None,
            Ok(n) => {
                buf.extend_from_slice(&chunk[..n]);
                if buf.windows(4).any(|w| w == b"\r\n\r\n") {
                    return String::from_utf8(buf).ok();
                }
                if buf.len() > MAX_REQUEST_BYTES {
                    return None;
                }
            }
            Err(_) => return None,
        }
    }
}

/// Split the request line of an HTTP/1.x head into `(method, path)`.
/// The path is returned without any query string.
pub fn parse_request_line(head: &str) -> Option<(&str, &str)> {
    let line = head.lines().next()?;
    let mut parts = line.split_whitespace();
    let method = parts.next()?;
    let target = parts.next()?;
    let version = parts.next()?;
    if !version.starts_with("HTTP/1.") {
        return None;
    }
    let path = target.split('?').next().unwrap_or(target);
    Some((method, path))
}

fn http_ok(response: &Response) -> String {
    format!(
        "HTTP/1.1 200 OK\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{}",
        response.content_type,
        response.body.len(),
        response.body
    )
}

fn http_error(code: u16, reason: &str) -> String {
    let text = match code {
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        _ => "Error",
    };
    format!(
        "HTTP/1.1 {code} {text}\r\nContent-Type: text/plain\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{reason}",
        reason.len()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    const ROUTES: &[&str] = &["/metrics", "/health"];

    fn get(addr: SocketAddr, path: &str) -> String {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .write_all(format!("GET {path} HTTP/1.1\r\nHost: test\r\n\r\n").as_bytes())
            .expect("write request");
        let mut out = String::new();
        stream.read_to_string(&mut out).expect("read response");
        out
    }

    fn render(path: &str) -> Response {
        match path {
            "/metrics" => Response::prometheus("jobs_total 7\n".to_string()),
            _ => Response::json("{\"status\": \"ok\"}".to_string()),
        }
    }

    #[test]
    fn published_bodies_answer_waiting_requests() {
        let server = ScrapeServer::bind(0, ROUTES).expect("bind loopback");
        assert!(!server.wanted(), "no scraper yet");
        let addr = server.addr();
        let client = std::thread::spawn(move || get(addr, "/metrics"));
        // The request reaches the server thread asynchronously; publish
        // once it has raised the flag, as a snapshot boundary would.
        for _ in 0..2_000 {
            if server.wanted() {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(server.wanted(), "the waiting request raises the flag");
        let mut rendered = Vec::new();
        server.publish(&mut |path| {
            rendered.push(path.to_string());
            render(path)
        });
        assert_eq!(rendered, ["/metrics"], "only the requested route renders");
        assert!(!server.wanted());
        let reply = client.join().expect("client thread");
        assert!(reply.starts_with("HTTP/1.1 200 OK\r\n"), "{reply}");
        assert!(reply.contains("Content-Type: text/plain; version=0.0.4"));
        assert!(reply.ends_with("jobs_total 7\n"), "{reply}");
        assert_eq!(server.stats().served, 1);
    }

    #[test]
    fn the_final_state_answers_without_publishing() {
        let server = ScrapeServer::bind(0, ROUTES).expect("bind loopback");
        server.publish_final(&mut render);
        let addr = server.addr();
        let health = get(addr, "/health");
        assert!(health.ends_with("{\"status\": \"ok\"}"), "{health}");
        assert!(get(addr, "/metrics").ends_with("jobs_total 7\n"));
        assert!(!server.wanted(), "final bodies need no render");
        assert_eq!(server.stats().served, 2);
    }

    #[test]
    fn unknown_paths_get_404_and_non_get_405() {
        let server = ScrapeServer::bind(0, ROUTES).expect("bind loopback");
        let addr = server.addr();
        // Neither needs the simulation: both answer with nothing published.
        assert!(get(addr, "/nope").starts_with("HTTP/1.1 404"));
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .write_all(b"POST /metrics HTTP/1.1\r\nHost: t\r\n\r\n")
            .expect("write");
        let mut posted = String::new();
        stream.read_to_string(&mut posted).expect("read");
        assert!(posted.starts_with("HTTP/1.1 405"), "{posted}");
        let stats = server.stats();
        assert_eq!(stats.not_found, 1);
        assert_eq!(stats.rejected, 1);
        assert_eq!(stats.served, 0);
        assert!(!server.wanted());
    }

    #[test]
    fn a_trickled_head_is_cut_off_at_the_read_deadline() {
        let server = ScrapeServer::bind(0, ROUTES).expect("bind loopback");
        let mut stream = TcpStream::connect(server.addr()).expect("connect");
        let started = Instant::now();
        // One byte per 50 ms never finishes the head; each byte arrives
        // well inside a per-read timeout, so only a whole-head deadline
        // ends it.
        for byte in b"GET /metrics HTTP/1.1\r\n".iter().cycle() {
            if stream.write_all(&[*byte]).is_err() || started.elapsed() > Duration::from_secs(5) {
                break;
            }
            std::thread::sleep(Duration::from_millis(50));
        }
        // The server counts the connection before closing it, and the
        // writes fail only once it has closed.
        assert!(started.elapsed() < Duration::from_secs(2), "cut off late");
        assert_eq!(server.stats().rejected, 1);
    }

    #[test]
    fn dropping_the_server_releases_a_waiting_request() {
        let server = ScrapeServer::bind(0, ROUTES).expect("bind loopback");
        let addr = server.addr();
        let client = std::thread::spawn(move || {
            let mut stream = TcpStream::connect(addr).expect("connect");
            stream
                .write_all(b"GET /metrics HTTP/1.1\r\n\r\n")
                .expect("write");
            let mut out = String::new();
            let _ = stream.read_to_string(&mut out);
            out
        });
        while !server.wanted() {
            std::thread::sleep(Duration::from_millis(1));
        }
        drop(server);
        assert_eq!(client.join().expect("client thread"), "");
    }

    #[test]
    fn a_trickle_reader_is_cut_off_at_the_write_deadline() {
        // Far more than the loopback socket buffers hold, so the write
        // stalls on the reader.
        const BODY_BYTES: usize = 8 << 20;
        let server = ScrapeServer::bind(0, ROUTES).expect("bind loopback");
        server.publish_final(&mut |_| Response::prometheus("x".repeat(BODY_BYTES)));
        let mut stream = TcpStream::connect(server.addr()).expect("connect");
        stream
            .write_all(b"GET /metrics HTTP/1.1\r\n\r\n")
            .expect("write");
        let started = Instant::now();
        // 16 KB every 20 ms: each read lets a stalled write progress
        // within a per-write timeout, so only a whole-response deadline
        // ends it. The server counts the connection once it gives up (the
        // socket buffers still hold bytes for the reader then).
        let mut received = 0;
        let mut chunk = vec![0u8; 16 << 10];
        while server.stats().rejected == 0 && started.elapsed() < Duration::from_secs(10) {
            match stream.read(&mut chunk) {
                Ok(0) | Err(_) => break,
                Ok(n) => received += n,
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        assert!(started.elapsed() < Duration::from_secs(3), "cut off late");
        assert!(received < BODY_BYTES, "the reader took the whole body");
        assert_eq!(server.stats().rejected, 1);
        let dropping = Instant::now();
        drop(server);
        assert!(dropping.elapsed() < Duration::from_secs(1), "slow drop");
    }

    #[test]
    fn an_oversize_head_gets_400_and_the_server_keeps_answering() {
        let server = ScrapeServer::bind(0, ROUTES).expect("bind loopback");
        server.publish_final(&mut render);
        let addr = server.addr();
        // One byte past the bound and no blank line: the head can never
        // complete, so the server must give up on size, not on time.
        let mut stream = TcpStream::connect(addr).expect("connect");
        let started = Instant::now();
        stream
            .write_all(&vec![b'a'; MAX_REQUEST_BYTES + 1])
            .expect("write oversize head");
        let mut reply = String::new();
        stream.read_to_string(&mut reply).expect("read reply");
        assert!(reply.starts_with("HTTP/1.1 400 Bad Request\r\n"), "{reply}");
        assert!(
            started.elapsed() < READ_TIMEOUT,
            "rejected on size, not at the read deadline"
        );
        assert_eq!(server.stats().rejected, 1);
        assert!(get(addr, "/metrics").ends_with("jobs_total 7\n"));
        let stats = server.stats();
        assert_eq!((stats.served, stats.rejected), (1, 1));
    }

    #[test]
    fn a_half_closed_client_still_gets_the_whole_body() {
        const BODY_BYTES: usize = 256 << 10;
        let server = ScrapeServer::bind(0, ROUTES).expect("bind loopback");
        let addr = server.addr();
        let client = std::thread::spawn(move || {
            let mut stream = TcpStream::connect(addr).expect("connect");
            stream
                .write_all(b"GET /metrics HTTP/1.1\r\nHost: t\r\n\r\n")
                .expect("write request");
            // Done sending: the server sees EOF after the head.
            stream
                .shutdown(std::net::Shutdown::Write)
                .expect("half-close");
            let mut out = String::new();
            stream.read_to_string(&mut out).expect("read response");
            out
        });
        while !server.wanted() {
            std::thread::sleep(Duration::from_millis(1));
        }
        server.publish(&mut |_| Response::prometheus("y".repeat(BODY_BYTES)));
        let reply = client.join().expect("client thread");
        let (head, body) = reply.split_once("\r\n\r\n").expect("complete head");
        assert!(head.starts_with("HTTP/1.1 200 OK\r\n"), "{head}");
        assert!(head.contains(&format!("Content-Length: {BODY_BYTES}\r\n")));
        assert_eq!(body.len(), BODY_BYTES);
        assert!(body.bytes().all(|b| b == b'y'));
        assert_eq!(server.stats().served, 1);
    }

    #[test]
    fn dropping_the_server_during_a_flood_returns_promptly() {
        let server = ScrapeServer::bind(0, ROUTES).expect("bind loopback");
        let addr = server.addr();
        // Nothing is ever published, so the first request waits and the
        // rest queue behind it.
        let flood: Vec<std::thread::JoinHandle<()>> = (0..64)
            .map(|_| {
                std::thread::spawn(move || {
                    if let Ok(mut stream) = TcpStream::connect(addr) {
                        let _ = stream.write_all(b"GET /metrics HTTP/1.1\r\n\r\n");
                        let _ = stream.read_to_end(&mut Vec::new());
                    }
                })
            })
            .collect();
        while !server.wanted() {
            std::thread::sleep(Duration::from_millis(1));
        }
        let dropping = Instant::now();
        drop(server);
        assert!(dropping.elapsed() < Duration::from_secs(1), "slow drop");
        for client in flood {
            client.join().expect("every client returns");
        }
    }

    #[test]
    fn request_lines_parse_paths_and_strip_queries() {
        assert_eq!(
            parse_request_line("GET /metrics HTTP/1.1\r\n"),
            Some(("GET", "/metrics"))
        );
        assert_eq!(
            parse_request_line("GET /snapshot?n=3 HTTP/1.0\r\nHost: x\r\n"),
            Some(("GET", "/snapshot"))
        );
        assert_eq!(parse_request_line("SPEAK /x FTP/9"), None);
        assert_eq!(parse_request_line(""), None);
        assert_eq!(parse_request_line("GET /lonely"), None);
    }
}
