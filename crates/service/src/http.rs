//! A std-only HTTP/1.1 JSON front end for the sharded service.
//!
//! No framework, no async runtime, no dependencies beyond `std` and
//! the workspace shims: a `TcpListener`, a handful of acceptor
//! threads, and hand-rolled request parsing. The split of work is
//! deliberate — acceptor threads own the *I/O* (blocking reads and
//! writes, which the exec pool's phase model rightly excludes), while
//! every CPU-heavy step a request triggers (the cross-shard drain, the
//! shard sweeps it may cascade into) runs through the shared
//! [`alid_exec`] pool via the service's `ExecPolicy` — the same
//! substrate every other parallel phase in the workspace uses.
//!
//! Endpoints (all responses `application/json`):
//!
//! | method & path | body | effect |
//! |---|---|---|
//! | `GET /healthz` | — | liveness + per-shard depth metrics (queue depth, busy refusals) |
//! | `POST /ingest` | `{"items": [[f64,...],...]}` | admit a batch (bounded queues, `busy` verdicts; any refusal adds a `Retry-After` header + `retry_after_ms` hint derived from the fullest refusing queue), then drain; with a journal, answer only once the batch's frames are fsynced (`500` if they could not be) |
//! | `GET /assign?id=N` | — | placement + cluster of an admitted item |
//! | `POST /assign` | `{"vector": [f64,...]}` | read-only attachment probe |
//! | `GET /clusters?k=N` | — | top-k densest shard-local clusters (the raw fragment ranking) |
//! | `GET /clusters?view=merged&k=N` | — | top-k of the fully reduced view: cross-shard fragments joined by union re-detection (`Service::top_k_merged`), plus the reduction's cost telemetry |
//! | `POST /snapshot` | — | drain, then write a binary snapshot to the server's configured `--snapshot` path (never a client-supplied one) |
//! | `GET /metrics` | — | Prometheus text exposition (`text/plain`): the service's private registry, live per-shard depth gauges, and the process-global registry (exec pool, peeler, tracer) |
//!
//! Keep-alive is honoured (`Connection: close` to opt out); malformed
//! requests get `400`, unknown routes `404`, oversized bodies `413`.

use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use serde::{Json, Serialize};

use crate::service::Service;
use crate::snapshot::snapshot_bytes_with_meta;

/// Upper bound on request head (request line + headers).
const MAX_HEAD_BYTES: usize = 64 * 1024;
/// Upper bound on request bodies (a generous batch of vectors).
const MAX_BODY_BYTES: usize = 64 * 1024 * 1024;
/// Socket-level blocking-read timeout — the granularity at which a
/// blocked read wakes up to check its absolute deadline.
const READ_TIMEOUT: Duration = Duration::from_secs(5);
/// Absolute deadline for receiving one complete request head. A
/// slow-drip client (one byte per second, never a newline) defeats a
/// per-read timeout; it cannot defeat this. Also the idle keep-alive
/// window: the acceptor model is thread-per-connection, so a parked
/// idle connection holds an acceptor — after this long without a new
/// request it is closed and the acceptor returns to `accept()`.
const HEAD_DEADLINE: Duration = Duration::from_secs(10);
/// Absolute deadline for receiving one complete request body (64 MB
/// at loopback/LAN rates takes well under this).
const BODY_DEADLINE: Duration = Duration::from_secs(60);

/// Whether a read error is a per-read socket timeout (a stall to ride
/// out under an absolute deadline) rather than a dead connection.
fn stalled(e: &io::Error) -> bool {
    matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut)
}

/// The front end's write-side telemetry, registered into the served
/// service's private registry so one `GET /metrics` covers both.
struct HttpMetrics {
    accepts: Arc<alid_obs::Counter>,
    requests: Arc<alid_obs::Counter>,
    keepalive_reuses: Arc<alid_obs::Counter>,
    deadline_closes: Arc<alid_obs::Counter>,
    /// Per-endpoint request latency, one series per known route.
    by_path: Vec<(&'static str, Arc<alid_obs::Histogram>)>,
    other_path: Arc<alid_obs::Histogram>,
    snapshot_seconds: Arc<alid_obs::Histogram>,
    snapshot_bytes: Arc<alid_obs::Gauge>,
    /// Guards journal-triggered auto-compaction: at most one snapshot
    /// fold runs per server at a time; overlapping triggers are
    /// dropped (the journal simply keeps growing until the next one).
    compaction_guard: std::sync::atomic::AtomicBool,
}

impl HttpMetrics {
    fn new(r: &alid_obs::Registry) -> Self {
        const HELP: &str = "Request wall time from parsed head to written response";
        const ROUTES: [&str; 6] =
            ["/healthz", "/ingest", "/assign", "/clusters", "/snapshot", "/metrics"];
        Self {
            accepts: r.counter("alid_http_accepts_total", "Connections accepted", &[]),
            requests: r.counter("alid_http_requests_total", "Requests served", &[]),
            keepalive_reuses: r.counter(
                "alid_http_keepalive_reuses_total",
                "Requests served on an already-used keep-alive connection",
                &[],
            ),
            deadline_closes: r.counter(
                "alid_http_deadline_closes_total",
                "Connections closed by the head/body deadlines (incl. idle keep-alive expiry)",
                &[],
            ),
            by_path: ROUTES
                .iter()
                .map(|p| (*p, r.histogram("alid_http_request_seconds", HELP, &[("path", p)])))
                .collect(),
            other_path: r.histogram("alid_http_request_seconds", HELP, &[("path", "other")]),
            snapshot_seconds: r.histogram(
                "alid_service_snapshot_seconds",
                "Wall time of one POST /snapshot (drain + serialize + rename)",
                &[],
            ),
            snapshot_bytes: r.gauge(
                "alid_service_snapshot_bytes",
                "Size of the most recently written snapshot",
                &[],
            ),
            compaction_guard: std::sync::atomic::AtomicBool::new(false),
        }
    }

    /// A latency timer for the request's (normalized) route.
    fn request_timer(&self, path: &str) -> alid_obs::Timer<'_> {
        self.by_path
            .iter()
            .find(|(p, _)| *p == path)
            .map(|(_, h)| h)
            .unwrap_or(&self.other_path)
            .start_timer()
    }
}

/// Front-end options.
#[derive(Clone, Debug)]
pub struct HttpOptions {
    /// Acceptor thread count (each owns one connection at a time).
    pub http_workers: usize,
    /// The one path `POST /snapshot` may write (`--snapshot`); the
    /// endpoint is disabled when unset. Deliberately never taken from
    /// the request — that would be an arbitrary remote file write.
    pub snapshot_path: Option<PathBuf>,
}

impl Default for HttpOptions {
    fn default() -> Self {
        Self { http_workers: 4, snapshot_path: None }
    }
}

/// Live-connection registry: lets [`HttpServer::shutdown`] close
/// in-flight keep-alive connections instead of waiting out their read
/// timeouts.
#[derive(Default)]
struct Connections {
    live: Mutex<HashMap<u64, TcpStream>>,
    next_id: AtomicU64,
}

impl Connections {
    fn register(&self, stream: &TcpStream) -> Option<u64> {
        let clone = stream.try_clone().ok()?;
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.live.lock().expect("connection registry").insert(id, clone);
        Some(id)
    }

    fn unregister(&self, id: u64) {
        self.live.lock().expect("connection registry").remove(&id);
    }

    fn close_all(&self) {
        for stream in self.live.lock().expect("connection registry").values() {
            let _ = stream.shutdown(Shutdown::Both);
        }
    }
}

/// A running front end. Dropping the handle leaves the acceptors
/// serving; call [`HttpServer::shutdown`] for an orderly stop or
/// [`HttpServer::join`] to serve forever.
pub struct HttpServer {
    local: SocketAddr,
    stop: Arc<AtomicBool>,
    connections: Arc<Connections>,
    handles: Vec<JoinHandle<()>>,
}

/// Binds `addr` and starts serving `service` on
/// [`HttpOptions::http_workers`] acceptor threads.
pub fn start(
    service: Arc<Service>,
    addr: impl ToSocketAddrs,
    opts: HttpOptions,
) -> io::Result<HttpServer> {
    let listener = TcpListener::bind(addr)?;
    let local = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let connections = Arc::new(Connections::default());
    let metrics = Arc::new(HttpMetrics::new(service.metrics_registry()));
    let workers = opts.http_workers.max(1);
    let mut handles = Vec::with_capacity(workers);
    for t in 0..workers {
        let listener = listener.try_clone()?;
        let service = Arc::clone(&service);
        let stop = Arc::clone(&stop);
        let connections = Arc::clone(&connections);
        let metrics = Arc::clone(&metrics);
        let opts = opts.clone();
        handles.push(
            std::thread::Builder::new()
                .name(format!("alid-http-{t}"))
                .spawn(move || acceptor_loop(listener, service, opts, stop, connections, metrics))
                .expect("spawn http acceptor"),
        );
    }
    Ok(HttpServer { local, stop, connections, handles })
}

impl HttpServer {
    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.local
    }

    /// Stops the acceptors and joins them. In-flight requests finish
    /// their current response; idle keep-alive connections are closed;
    /// queued-but-unaccepted connections are dropped.
    pub fn shutdown(self) {
        self.stop.store(true, Ordering::SeqCst);
        // Unblock acceptors parked in blocking reads on idle
        // connections...
        self.connections.close_all();
        // ...and those parked in accept(), with one dummy connection
        // each.
        for _ in 0..self.handles.len() {
            let _ = TcpStream::connect(self.local);
        }
        for h in self.handles {
            let _ = h.join();
        }
    }

    /// Blocks forever serving (the `alid serve` main loop).
    pub fn join(self) {
        for h in self.handles {
            let _ = h.join();
        }
    }
}

fn acceptor_loop(
    listener: TcpListener,
    service: Arc<Service>,
    opts: HttpOptions,
    stop: Arc<AtomicBool>,
    connections: Arc<Connections>,
    metrics: Arc<HttpMetrics>,
) {
    loop {
        let conn = listener.accept();
        if stop.load(Ordering::SeqCst) {
            return;
        }
        match conn {
            Ok((stream, _)) => {
                metrics.accepts.inc();
                let id = connections.register(&stream);
                // Per-connection errors (resets, malformed requests)
                // must never take the acceptor down.
                let _ = handle_connection(stream, &service, &opts, &metrics);
                if let Some(id) = id {
                    connections.unregister(id);
                }
            }
            Err(_) => {
                if stop.load(Ordering::SeqCst) {
                    return;
                }
            }
        }
    }
}

struct Request {
    method: String,
    path: String,
    query: Vec<(String, String)>,
    body: Vec<u8>,
    keep_alive: bool,
}

/// A handler-level failure: status code + message for the JSON error
/// body.
struct HttpError {
    status: u16,
    message: String,
}

impl HttpError {
    fn new(status: u16, message: impl Into<String>) -> Self {
        Self { status, message: message.into() }
    }
}

fn handle_connection(
    stream: TcpStream,
    service: &Arc<Service>,
    opts: &HttpOptions,
    m: &HttpMetrics,
) -> io::Result<()> {
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(READ_TIMEOUT))?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = stream;
    let mut served = 0u64;
    loop {
        let request = match read_request(&mut reader, &mut writer, m) {
            Ok(Some(r)) => r,
            Ok(None) => return Ok(()), // clean EOF between requests
            Err(e) => {
                write_response(&mut writer, e.status, &Reply::from(error_body(&e.message)), false)?;
                return Ok(());
            }
        };
        m.requests.inc();
        if served > 0 {
            m.keepalive_reuses.inc();
        }
        served += 1;
        let _request_timer = m.request_timer(&request.path);
        let keep_alive = request.keep_alive;
        let (status, reply) = match dispatch(&request, service, opts, m) {
            Ok(reply) => (200, reply),
            Err(e) => (e.status, Reply::from(error_body(&e.message))),
        };
        write_response(&mut writer, status, &reply, keep_alive)?;
        if !keep_alive {
            return Ok(());
        }
    }
}

fn error_body(message: &str) -> Json {
    Json::object([("error", message.to_json())])
}

/// A response payload. Every route answers JSON except `GET /metrics`,
/// whose Prometheus exposition is plain text by spec.
enum Body {
    Json(Json),
    Text(String),
}

/// A handler's answer: the body plus any extra response headers
/// (today only `Retry-After` on backpressured ingests).
struct Reply {
    body: Body,
    headers: Vec<(&'static str, String)>,
}

impl From<Json> for Reply {
    fn from(body: Json) -> Self {
        Self { body: Body::Json(body), headers: Vec::new() }
    }
}

fn status_text(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        501 => "Not Implemented",
        _ => "Internal Server Error",
    }
}

fn write_response(
    w: &mut impl Write,
    status: u16,
    reply: &Reply,
    keep_alive: bool,
) -> io::Result<()> {
    let (rendered, content_type): (std::borrow::Cow<str>, &str) = match &reply.body {
        Body::Json(j) => (
            serde_json::to_string(j).expect("shim serialization is total").into(),
            "application/json",
        ),
        // version=0.0.4 is the Prometheus text exposition format tag.
        Body::Text(t) => (t.as_str().into(), "text/plain; version=0.0.4"),
    };
    // One buffer, one write: a head written separately would sit in
    // Nagle's queue waiting for the peer's delayed ACK (~40ms per
    // request) — the closed-loop latency killer.
    let mut response = format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: {}\r\n",
        status_text(status),
        rendered.len(),
        if keep_alive { "keep-alive" } else { "close" },
    );
    for (name, value) in &reply.headers {
        response.push_str(name);
        response.push_str(": ");
        response.push_str(value);
        response.push_str("\r\n");
    }
    response.push_str("\r\n");
    response.push_str(&rendered);
    w.write_all(response.as_bytes())?;
    w.flush()
}

/// Reads one line (up to `\n`) with a hard byte cap and an absolute
/// deadline, via the `BufRead` internals — `read_line` alone checks
/// nothing until a newline arrives, so a peer streaming an endless
/// header (or dripping one byte per second) could buffer unbounded
/// memory / hold the acceptor forever.
///
/// Returns `Ok(0)` on EOF before any byte. Errors: timeout/reset mid-
/// line, the cap, or the deadline.
fn bounded_line<R: BufRead>(
    reader: &mut R,
    line: &mut String,
    cap: usize,
    deadline: Instant,
) -> io::Result<usize> {
    // Bytes accumulate raw and are decoded *once* at the end: a
    // multibyte UTF-8 character can straddle two fill_buf chunks, and
    // per-chunk lossy decoding would corrupt each half into U+FFFD.
    let mut raw: Vec<u8> = Vec::new();
    loop {
        if Instant::now() > deadline {
            return Err(io::Error::new(io::ErrorKind::TimedOut, "request head deadline"));
        }
        let buf = match reader.fill_buf() {
            Ok(buf) => buf,
            // Per-read socket timeout = stall; the absolute deadline
            // above decides when to give up.
            Err(e) if stalled(&e) => continue,
            Err(e) => return Err(e),
        };
        if buf.is_empty() {
            break; // EOF
        }
        let (take, found_nl) = match buf.iter().position(|&b| b == b'\n') {
            Some(nl) => (nl + 1, true),
            None => (buf.len(), false),
        };
        if raw.len() + take > cap {
            return Err(io::Error::new(io::ErrorKind::InvalidData, "line exceeds head cap"));
        }
        raw.extend_from_slice(&buf[..take]);
        reader.consume(take);
        if found_nl {
            break;
        }
    }
    let total = raw.len();
    line.push_str(&String::from_utf8_lossy(&raw));
    Ok(total)
}

/// Reads one request head + body. `Ok(None)` on clean EOF before any
/// byte of a new request. `writer` is only touched for the interim
/// `100 Continue` response some clients (curl with bodies over ~1 KB)
/// wait for before transmitting their body — without it every large
/// ingest request stalls on the client's expect timeout (~1 s).
fn read_request<R: BufRead, W: Write>(
    reader: &mut R,
    writer: &mut W,
    m: &HttpMetrics,
) -> Result<Option<Request>, HttpError> {
    // The whole head must arrive within this window — a slow-drip
    // client cannot hold the acceptor past it (each blocking read is
    // additionally bounded by the socket read timeout).
    let deadline = Instant::now() + HEAD_DEADLINE;
    let mut line = String::new();
    match bounded_line(reader, &mut line, MAX_HEAD_BYTES, deadline) {
        Ok(0) => return Ok(None),
        Ok(_) => {}
        Err(e) if e.kind() == io::ErrorKind::InvalidData => {
            return Err(HttpError::new(400, "request head too large"))
        }
        Err(e) => {
            // Reset/timeout between requests; the timeout flavour is
            // the head deadline reaping an idle keep-alive connection.
            if e.kind() == io::ErrorKind::TimedOut {
                m.deadline_closes.inc();
            }
            return Ok(None);
        }
    }
    let mut parts = line.split_whitespace();
    let method = parts.next().unwrap_or("").to_ascii_uppercase();
    let target = parts.next().unwrap_or("").to_string();
    let version = parts.next().unwrap_or("");
    if method.is_empty() || target.is_empty() || !version.starts_with("HTTP/1.") {
        return Err(HttpError::new(400, "malformed request line"));
    }
    let mut content_length = 0usize;
    let mut keep_alive = true; // HTTP/1.1 default
    let mut expect_continue = false;
    let mut head_bytes = line.len();
    loop {
        let mut header = String::new();
        let remaining = MAX_HEAD_BYTES.saturating_sub(head_bytes).max(1);
        match bounded_line(reader, &mut header, remaining, deadline) {
            Ok(0) => return Err(HttpError::new(400, "connection dropped mid-headers")),
            Ok(_) => {}
            Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                return Err(HttpError::new(400, "request head too large"))
            }
            Err(e) => {
                if e.kind() == io::ErrorKind::TimedOut {
                    m.deadline_closes.inc();
                }
                return Err(HttpError::new(400, "connection dropped mid-headers"));
            }
        }
        head_bytes += header.len();
        if head_bytes > MAX_HEAD_BYTES {
            return Err(HttpError::new(400, "request head too large"));
        }
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        let Some((name, value)) = header.split_once(':') else {
            return Err(HttpError::new(400, "malformed header"));
        };
        let value = value.trim();
        match name.to_ascii_lowercase().as_str() {
            "content-length" => {
                content_length =
                    value.parse().map_err(|_| HttpError::new(400, "invalid Content-Length"))?;
            }
            "connection" => keep_alive = !value.eq_ignore_ascii_case("close"),
            "expect" => expect_continue = value.eq_ignore_ascii_case("100-continue"),
            "transfer-encoding" => {
                // No chunked decoder: silently misframing the chunk
                // stream as the next request would desync the whole
                // keep-alive connection, so refuse loudly (the
                // handler closes the connection on errors).
                return Err(HttpError::new(
                    501,
                    "Transfer-Encoding is not supported; send a Content-Length body",
                ));
            }
            _ => {}
        }
    }
    if content_length > MAX_BODY_BYTES {
        return Err(HttpError::new(413, "request body too large"));
    }
    // Same slow-drip defence as the head: an absolute deadline on the
    // whole body, not just the per-read socket timeout (a client
    // dripping one byte per READ_TIMEOUT would never trip that).
    if expect_continue && content_length > 0 {
        writer
            .write_all(b"HTTP/1.1 100 Continue\r\n\r\n")
            .and_then(|()| writer.flush())
            .map_err(|_| HttpError::new(400, "connection dropped before body"))?;
    }
    let body_deadline = Instant::now() + BODY_DEADLINE;
    let mut body = vec![0u8; content_length];
    let mut filled = 0usize;
    while filled < content_length {
        if Instant::now() > body_deadline {
            m.deadline_closes.inc();
            return Err(HttpError::new(400, "request body deadline exceeded"));
        }
        match reader.read(&mut body[filled..]) {
            Ok(0) => return Err(HttpError::new(400, "connection dropped mid-body")),
            Ok(n) => filled += n,
            // A per-read socket timeout is a *stall*, not a drop: keep
            // reading until the absolute deadline decides.
            Err(e) if stalled(&e) => {}
            Err(_) => return Err(HttpError::new(400, "connection dropped mid-body")),
        }
    }
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), parse_query(q)),
        None => (target, Vec::new()),
    };
    Ok(Some(Request { method, path, query, body, keep_alive }))
}

fn parse_query(q: &str) -> Vec<(String, String)> {
    q.split('&')
        .filter(|kv| !kv.is_empty())
        .map(|kv| match kv.split_once('=') {
            Some((k, v)) => (k.to_string(), v.to_string()),
            None => (kv.to_string(), String::new()),
        })
        .collect()
}

fn query_param<'a>(req: &'a Request, key: &str) -> Option<&'a str> {
    req.query.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
}

fn parse_body(req: &Request) -> Result<Json, HttpError> {
    if req.body.is_empty() {
        return Ok(Json::Null);
    }
    let text = std::str::from_utf8(&req.body)
        .map_err(|_| HttpError::new(400, "request body is not UTF-8"))?;
    serde_json::from_str(text).map_err(|e| HttpError::new(400, format!("invalid JSON body: {e}")))
}

fn dispatch(
    req: &Request,
    service: &Arc<Service>,
    opts: &HttpOptions,
    m: &HttpMetrics,
) -> Result<Reply, HttpError> {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => Ok(healthz(service).into()),
        ("GET", "/metrics") => Ok(metrics_text(service)),
        ("POST", "/ingest") => ingest(req, service, opts, m),
        ("GET", "/assign") => assign_by_id(req, service).map(Reply::from),
        ("POST", "/assign") => assign_by_vector(req, service).map(Reply::from),
        ("GET", "/clusters") => clusters(req, service).map(Reply::from),
        ("POST", "/snapshot") => snapshot(req, service, opts, m).map(Reply::from),
        ("GET" | "POST", _) => Err(HttpError::new(404, format!("no route {}", req.path))),
        _ => Err(HttpError::new(405, format!("method {} not allowed", req.method))),
    }
}

/// `GET /metrics`: the full Prometheus exposition, composed from three
/// sources — this service's private registry (admission, drain, reduce
/// and HTTP series), live per-shard depth gauges sampled at scrape
/// time from one [`Service::depths`] call, and the process-global
/// registry (exec pool, peeler, tracer).
fn metrics_text(service: &Service) -> Reply {
    use alid_obs::expo;
    // alid-lint: allow(no-metric-branching) -- this IS the exposition surface
    let mut out = service.metrics_registry().render_prometheus();
    let depths = service.depths();
    type DepthPick = fn(&crate::service::ShardDepth) -> f64;
    let gauges: [(&str, &str, DepthPick); 4] = [
        ("alid_service_shard_queued", "Admitted-but-unapplied items per shard", |d| {
            d.queued as f64
        }),
        ("alid_service_shard_pending", "Applied-but-unexplained items per shard", |d| {
            d.pending as f64
        }),
        ("alid_service_shard_items", "Applied items per shard", |d| d.items as f64),
        ("alid_service_shard_clusters", "Dominant clusters per shard", |d| d.clusters as f64),
    ];
    for (name, help, pick) in gauges {
        expo::write_header(&mut out, name, help, "gauge");
        for (s, d) in depths.iter().enumerate() {
            let labels = [("shard".to_string(), s.to_string())];
            expo::write_sample(&mut out, name, &labels, &format!("{}", pick(d)));
        }
    }
    // alid-lint: allow(no-metric-branching) -- this IS the exposition surface
    out.push_str(&alid_obs::global().render_prometheus());
    Reply { body: Body::Text(out), headers: Vec::new() }
}

fn healthz(service: &Service) -> Json {
    let depths = service.depths();
    let clusters: usize = depths.iter().map(|d| d.clusters).sum();
    let busy: u64 = depths.iter().map(|d| d.busy).sum();
    let mut fields = vec![
        ("status", "ok".to_json()),
        ("schema", "alid-service/1".to_json()),
        ("shards", service.shard_count().to_json()),
        ("items", service.len().to_json()),
        ("clusters", clusters.to_json()),
        ("busy_total", busy.to_json()),
        ("depths", depths.to_json()),
    ];
    if let Some(j) = service.journal() {
        fields.push((
            "journal",
            Json::object([
                ("appended", j.appended().to_json()),
                ("durable", j.durable().to_json()),
                ("lag", j.lag().to_json()),
            ]),
        ));
    }
    Json::object(fields)
}

fn vector_from_json(j: &Json, dim: usize) -> Result<Vec<f64>, HttpError> {
    let arr = j.as_arr().ok_or_else(|| HttpError::new(400, "vector must be an array"))?;
    if arr.len() != dim {
        return Err(HttpError::new(
            400,
            format!("vector has {} coordinates, service dimensionality is {dim}", arr.len()),
        ));
    }
    arr.iter()
        .map(|x| x.as_f64().ok_or_else(|| HttpError::new(400, "non-numeric vector coordinate")))
        .collect()
}

fn ingest(
    req: &Request,
    service: &Arc<Service>,
    opts: &HttpOptions,
    m: &HttpMetrics,
) -> Result<Reply, HttpError> {
    let body = parse_body(req)?;
    let items = body
        .get("items")
        .and_then(Json::as_arr)
        .ok_or_else(|| HttpError::new(400, "body must be {\"items\": [[..], ..]}"))?;
    let dim = service.config().dim;
    let mut vectors = Vec::with_capacity(items.len());
    for item in items {
        vectors.push(vector_from_json(item, dim)?);
    }
    let results = service.ingest_batch(vectors.iter().map(Vec::as_slice));
    let report = service.drain();
    if let Some(j) = service.journal() {
        // Group commit: acknowledge only once this request's frames are
        // on disk. Concurrent requests waiting here share one fsync.
        j.barrier()
            .map_err(|e| HttpError::new(500, format!("ingest applied but not durable: {e}")))?;
        if j.needs_compaction() {
            maybe_compact(service, opts, m);
        }
    }
    // Backpressure hint: the deepest refusing queue sets the backoff
    // (ROADMAP overload item (a), first slice). Clients that ignore
    // the header still see the per-item `busy` verdicts.
    let busiest = results
        .iter()
        .filter_map(|a| match a {
            crate::service::Admission::Busy { depth, .. } => Some(*depth),
            crate::service::Admission::Enqueued { .. } => None,
        })
        .max();
    let mut fields = vec![
        ("results", results.to_json()),
        ("report", report.to_json()),
        ("depths", service.depths().to_json()),
    ];
    let mut headers = Vec::new();
    if let Some(depth) = busiest {
        let ms = Service::retry_after_hint_ms(depth);
        fields.push(("retry_after_ms", ms.to_json()));
        // Retry-After is specified in whole seconds; round up so the
        // hint never undercuts itself.
        headers.push(("Retry-After", ms.div_ceil(1000).max(1).to_string()));
    }
    Ok(Reply { body: Body::Json(Json::object(fields)), headers })
}

fn assign_by_id(req: &Request, service: &Service) -> Result<Json, HttpError> {
    let id: u64 = query_param(req, "id")
        .ok_or_else(|| HttpError::new(400, "missing ?id="))?
        .parse()
        .map_err(|_| HttpError::new(400, "?id= must be an unsigned integer"))?;
    match service.assignment(id) {
        None => Err(HttpError::new(404, format!("unknown item id {id}"))),
        Some(assigned) => {
            let cluster = match assigned {
                Some(c) => {
                    Json::object([("shard", c.shard.to_json()), ("cluster", c.cluster.to_json())])
                }
                None => Json::Null,
            };
            Ok(Json::object([("id", id.to_json()), ("cluster", cluster)]))
        }
    }
}

fn assign_by_vector(req: &Request, service: &Service) -> Result<Json, HttpError> {
    let body = parse_body(req)?;
    let vector =
        body.get("vector").ok_or_else(|| HttpError::new(400, "body must be {\"vector\": [..]}"))?;
    let v = vector_from_json(vector, service.config().dim)?;
    let shard = service.route(&v);
    match service.probe(&v) {
        Some((cref, density)) => Ok(Json::object([
            ("shard", shard.to_json()),
            (
                "cluster",
                Json::object([
                    ("shard", cref.shard.to_json()),
                    ("cluster", cref.cluster.to_json()),
                    ("density", density.to_json()),
                ]),
            ),
        ])),
        None => Ok(Json::object([("shard", shard.to_json()), ("cluster", Json::Null)])),
    }
}

fn clusters(req: &Request, service: &Service) -> Result<Json, HttpError> {
    let k = match query_param(req, "k") {
        Some(k) => k
            .parse::<usize>()
            .map_err(|_| HttpError::new(400, "?k= must be an unsigned integer"))?,
        None => usize::MAX,
    };
    match query_param(req, "view") {
        // The raw fragment ranking stays the default: existing
        // clients (and the parity suites pinned to them) see
        // unchanged answers.
        None | Some("raw") => Ok(Json::object([("clusters", service.top_k(k).to_json())])),
        Some("merged") => {
            let view = service.merged_view();
            Ok(Json::object([
                ("view", "merged".to_json()),
                ("clusters", view.clusters[..k.min(view.clusters.len())].to_json()),
                ("reduce", view.stats.to_json()),
            ]))
        }
        Some(other) => {
            Err(HttpError::new(400, format!("unknown ?view= {other:?} (raw or merged)")))
        }
    }
}

/// Serialises the service, durably writes the snapshot to `path`
/// (write, fsync, rename, fsync the directory), and folds the journal:
/// after the snapshot is on disk, closed segments holding only frames
/// the snapshot already reflects are truncated. Returns
/// `(snapshot_bytes, journal_bytes_truncated)`.
fn write_snapshot_file(
    service: &Service,
    path: &std::path::Path,
    m: &HttpMetrics,
) -> std::io::Result<(usize, u64)> {
    let (bytes, cut) = snapshot_bytes_with_meta(service);
    m.snapshot_bytes.set(bytes.len() as f64);
    // Write-then-rename so the target is always a complete snapshot:
    // a crash mid-write (or a concurrent request) must never leave
    // the only snapshot torn — that is the durability the feature
    // exists for. The temp name is unique per request so concurrent
    // snapshots each rename a complete file (last one wins). The fsync
    // before the rename matters doubly now: journal segments are
    // truncated on the strength of this snapshot, so it must be
    // durable before any frame it replaces is dropped.
    static SNAP_SEQ: AtomicU64 = AtomicU64::new(0);
    let tmp = path.with_extension(format!(
        "tmp.{}.{}",
        std::process::id(),
        SNAP_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let write = || -> std::io::Result<()> {
        let mut f = std::fs::File::create(&tmp)?;
        std::io::Write::write_all(&mut f, &bytes)?;
        f.sync_all()
    };
    if let Err(e) = write().and_then(|()| std::fs::rename(&tmp, path)) {
        let _ = std::fs::remove_file(&tmp);
        return Err(e);
    }
    // The rename lives in the directory entry: fsync the directory
    // before truncating, or a power loss could keep the deletions of
    // the journal segments below while losing the snapshot that
    // replaces them.
    let dir = path.parent().filter(|d| !d.as_os_str().is_empty());
    crate::journal::sync_dir(dir.unwrap_or(std::path::Path::new(".")))?;
    let truncated = match service.journal() {
        Some(j) => {
            // The barrier performs the rotation the snapshot requested,
            // so the pre-snapshot segments are closed and eligible.
            j.barrier()?;
            j.truncate_below(cut)
        }
        None => 0,
    };
    Ok((bytes.len(), truncated))
}

/// Journal-growth-triggered compaction: folds the journal into the
/// snapshot exactly like `POST /snapshot`, but fired from the ingest
/// path once the journal has grown `--compact-every` bytes since the
/// last fold. At most one fold runs per server at a time; a failed
/// write is dropped (the journal keeps everything, so durability is
/// unaffected — the next trigger retries).
fn maybe_compact(service: &Arc<Service>, opts: &HttpOptions, m: &HttpMetrics) {
    let Some(path) = opts.snapshot_path.as_deref() else { return };
    if m.compaction_guard
        .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
        .is_err()
    {
        return;
    }
    let _snapshot_timer = m.snapshot_seconds.start_timer();
    let _ = write_snapshot_file(service, path, m);
    m.compaction_guard.store(false, Ordering::Release);
}

fn snapshot(
    req: &Request,
    service: &Arc<Service>,
    opts: &HttpOptions,
    m: &HttpMetrics,
) -> Result<Json, HttpError> {
    // The target path is fixed at server start (`--snapshot` /
    // `HttpOptions::snapshot_path`) and never taken from the request:
    // honouring a client-supplied path would hand every network peer
    // an arbitrary server-side file write.
    let _ = parse_body(req)?; // body, if any, must still be valid JSON
    let path: PathBuf = opts.snapshot_path.clone().ok_or_else(|| {
        HttpError::new(400, "snapshots disabled: server started without --snapshot")
    })?;
    // Quiesce the queues so the snapshot captures applied state, then
    // serialize and fold the journal.
    let _snapshot_timer = m.snapshot_seconds.start_timer();
    let started = std::time::Instant::now();
    service.drain();
    let (bytes, truncated) = write_snapshot_file(service, &path, m)
        .map_err(|e| HttpError::new(500, format!("writing {}: {e}", path.display())))?;
    Ok(Json::object([
        ("path", path.display().to_string().to_json()),
        ("bytes", bytes.to_json()),
        ("duration_ms", (started.elapsed().as_millis() as u64).to_json()),
        ("journal_truncated_bytes", truncated.to_json()),
    ]))
}

// --- client ------------------------------------------------------------

/// A minimal blocking keep-alive client for the front end, used by the
/// load generator, the CI smoke cycle and the integration tests.
pub struct Client {
    stream: BufReader<TcpStream>,
}

impl Client {
    /// Connects to a running front end.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        Ok(Self { stream: BufReader::new(stream) })
    }

    /// Sends one request and reads the JSON response. `body = None`
    /// sends no payload.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&Json>,
    ) -> io::Result<(u16, Json)> {
        let payload = body.map(|b| serde_json::to_string(b).expect("total")).unwrap_or_default();
        // Head + payload in one write (see write_response on Nagle).
        let mut request = format!(
            "{method} {path} HTTP/1.1\r\nHost: alid\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: keep-alive\r\n\r\n",
            payload.len(),
        );
        request.push_str(&payload);
        let w = self.stream.get_mut();
        w.write_all(request.as_bytes())?;
        w.flush()?;
        self.read_response()
    }

    /// Sends one bodyless request and returns the raw response text —
    /// for the non-JSON endpoint (`GET /metrics`).
    pub fn request_text(&mut self, method: &str, path: &str) -> io::Result<(u16, String)> {
        let request = format!(
            "{method} {path} HTTP/1.1\r\nHost: alid\r\nContent-Length: 0\r\nConnection: keep-alive\r\n\r\n",
        );
        let w = self.stream.get_mut();
        w.write_all(request.as_bytes())?;
        w.flush()?;
        self.read_raw()
    }

    fn read_response(&mut self) -> io::Result<(u16, Json)> {
        let (status, text) = self.read_raw()?;
        let json = serde_json::from_str(&text).map_err(|e| {
            io::Error::new(io::ErrorKind::InvalidData, format!("bad JSON body: {e}"))
        })?;
        Ok((status, json))
    }

    fn read_raw(&mut self) -> io::Result<(u16, String)> {
        let mut line = String::new();
        self.stream.read_line(&mut line)?;
        let status: u16 =
            line.split_whitespace().nth(1).and_then(|s| s.parse().ok()).ok_or_else(|| {
                io::Error::new(io::ErrorKind::InvalidData, format!("bad status line {line:?}"))
            })?;
        let mut content_length = 0usize;
        loop {
            let mut header = String::new();
            self.stream.read_line(&mut header)?;
            let header = header.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    content_length = value.trim().parse().map_err(|_| {
                        io::Error::new(io::ErrorKind::InvalidData, "bad Content-Length")
                    })?;
                }
            }
        }
        let mut body = vec![0u8; content_length];
        self.stream.read_exact(&mut body)?;
        let text = String::from_utf8(body)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "non-UTF-8 body"))?;
        Ok((status, text))
    }
}

/// Polls `GET /healthz` until the front end answers or the deadline
/// passes — the readiness gate external drivers (CI) need between
/// spawning `alid serve` and hammering it.
pub fn wait_ready(addr: &str, timeout: Duration) -> io::Result<()> {
    let deadline = std::time::Instant::now() + timeout;
    loop {
        match Client::connect(addr).and_then(|mut c| c.request("GET", "/healthz", None)) {
            Ok((200, _)) => return Ok(()),
            _ if std::time::Instant::now() >= deadline => {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    format!("{addr} not ready within {timeout:?}"),
                ))
            }
            _ => std::thread::sleep(Duration::from_millis(50)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::ServiceConfig;
    use alid_affinity::kernel::LaplacianKernel;
    use alid_core::AlidParams;

    fn test_service() -> Arc<Service> {
        let kernel = LaplacianKernel::l2(1.0);
        let mut p = AlidParams::new(kernel);
        p.first_roi_radius = kernel.distance_at(0.5);
        p.density_threshold = 0.7;
        p.min_cluster_size = 3;
        p.lsh.seed = 5;
        Arc::new(Service::new(ServiceConfig::new(1, 2, p).with_batch(8)))
    }

    fn start_test_server() -> (HttpServer, String) {
        let server = start(
            test_service(),
            "127.0.0.1:0",
            HttpOptions { http_workers: 2, snapshot_path: None },
        )
        .expect("bind loopback");
        let addr = server.addr().to_string();
        (server, addr)
    }

    #[test]
    fn full_cycle_over_loopback() {
        let (server, addr) = start_test_server();
        let mut client = Client::connect(&addr).unwrap();

        let (status, health) = client.request("GET", "/healthz", None).unwrap();
        assert_eq!(status, 200);
        assert_eq!(health.get("status").and_then(Json::as_str), Some("ok"));
        assert_eq!(health.get("shards").and_then(Json::as_u64), Some(2));

        // Ingest a tight run that must form one cluster.
        let items: Vec<Json> =
            (0..16).map(|i| Json::Arr(vec![Json::Num(i as f64 * 0.01)])).collect();
        let body = Json::object([("items", Json::Arr(items))]);
        let (status, resp) = client.request("POST", "/ingest", Some(&body)).unwrap();
        assert_eq!(status, 200, "{resp:?}");
        assert_eq!(resp.get("results").and_then(Json::as_arr).map(<[Json]>::len), Some(16));
        assert_eq!(
            resp.get("report").and_then(|r| r.get("applied")).and_then(Json::as_u64),
            Some(16)
        );

        let (status, c) = client.request("GET", "/clusters?k=5", None).unwrap();
        assert_eq!(status, 200);
        let clusters = c.get("clusters").and_then(Json::as_arr).unwrap();
        assert!(!clusters.is_empty(), "the tight run should be detected: {c:?}");

        let (status, a) = client.request("GET", "/assign?id=0", None).unwrap();
        assert_eq!(status, 200);
        assert!(!a.get("cluster").unwrap().is_null(), "item 0 should be explained: {a:?}");

        let probe = Json::object([("vector", Json::Arr(vec![Json::Num(0.05)]))]);
        let (status, p) = client.request("POST", "/assign", Some(&probe)).unwrap();
        assert_eq!(status, 200);
        assert!(!p.get("cluster").unwrap().is_null(), "{p:?}");

        let (status, e) = client.request("GET", "/assign?id=999", None).unwrap();
        assert_eq!(status, 404, "{e:?}");

        server.shutdown();
    }

    #[test]
    fn malformed_requests_get_400_not_a_crash() {
        let (server, addr) = start_test_server();
        let mut client = Client::connect(&addr).unwrap();
        // Unparseable body.
        let w = client.stream.get_mut();
        w.write_all(b"POST /ingest HTTP/1.1\r\nContent-Length: 3\r\n\r\n{{{").unwrap();
        w.flush().unwrap();
        let (status, _) = client.read_response().unwrap();
        assert_eq!(status, 400);
        // A number beyond f64's range is a parse error, not an
        // infinity admitted into a shard or probed against one.
        for (path, body) in
            [("/ingest", r#"{"items":[[1e999]]}"#), ("/assign", r#"{"vector":[1e999]}"#)]
        {
            let mut c = Client::connect(&addr).unwrap();
            let w = c.stream.get_mut();
            write!(w, "POST {path} HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}", body.len())
                .unwrap();
            w.flush().unwrap();
            let (status, resp) = c.read_response().unwrap();
            assert_eq!(status, 400, "{path} {body}: {resp:?}");
        }
        // The server survives for the next client.
        let mut c2 = Client::connect(&addr).unwrap();
        let (status, _) = c2.request("GET", "/healthz", None).unwrap();
        assert_eq!(status, 200);
        server.shutdown();
    }

    /// Regression: a request line streamed without a newline must hit
    /// the head cap (bounded memory, 400 or close) instead of growing
    /// a String until the process OOMs — `read_line` alone checks
    /// nothing until the newline arrives.
    #[test]
    fn endless_header_line_is_capped_not_buffered() {
        let (server, addr) = start_test_server();
        let mut raw = TcpStream::connect(&addr).unwrap();
        raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        // 4x the head cap, no newline anywhere.
        let flood = vec![b'a'; 4 * MAX_HEAD_BYTES];
        // The server may close mid-write once the cap trips; both a
        // successful send and a broken pipe are acceptable here.
        let _ = raw.write_all(&flood);
        let mut response = String::new();
        let _ = raw.read_to_string(&mut response);
        assert!(
            response.is_empty() || response.starts_with("HTTP/1.1 400"),
            "unexpected response: {response:?}"
        );
        // The acceptor survives for the next client.
        let mut c = Client::connect(&addr).unwrap();
        let (status, _) = c.request("GET", "/healthz", None).unwrap();
        assert_eq!(status, 200);
        server.shutdown();
    }

    #[test]
    fn merged_view_endpoint_serves_the_reduction_and_rejects_unknown_views() {
        let (server, addr) = start_test_server();
        let mut client = Client::connect(&addr).unwrap();
        let items: Vec<Json> =
            (0..16).map(|i| Json::Arr(vec![Json::Num(i as f64 * 0.01)])).collect();
        let body = Json::object([("items", Json::Arr(items))]);
        let (status, _) = client.request("POST", "/ingest", Some(&body)).unwrap();
        assert_eq!(status, 200);
        let (status, m) = client.request("GET", "/clusters?view=merged&k=5", None).unwrap();
        assert_eq!(status, 200, "{m:?}");
        assert_eq!(m.get("view").and_then(Json::as_str), Some("merged"));
        let clusters = m.get("clusters").and_then(Json::as_arr).unwrap();
        assert!(!clusters.is_empty(), "{m:?}");
        for c in clusters {
            assert!(c.get("fragments").and_then(Json::as_arr).is_some(), "{c:?}");
            assert!(c.get("density").and_then(Json::as_f64).is_some());
        }
        let reduce = m.get("reduce").expect("reduce stats");
        assert!(reduce.get("pairs_tested").and_then(Json::as_u64).is_some(), "{reduce:?}");
        // The raw view's shape is untouched.
        let (status, raw) = client.request("GET", "/clusters?view=raw", None).unwrap();
        assert_eq!(status, 200);
        assert!(raw.get("view").is_none(), "raw view keeps the original shape");
        let (status, e) = client.request("GET", "/clusters?view=bogus", None).unwrap();
        assert_eq!(status, 400, "{e:?}");
        server.shutdown();
    }

    #[test]
    fn busy_ingest_carries_a_retry_after_hint_and_healthz_counts_it() {
        let kernel = LaplacianKernel::l2(1.0);
        let mut p = AlidParams::new(kernel);
        p.lsh.seed = 5;
        let service = Arc::new(Service::new(ServiceConfig::new(1, 1, p).with_queue_capacity(2)));
        let server = start(service, "127.0.0.1:0", HttpOptions::default()).expect("bind");
        let addr = server.addr().to_string();
        // Six admissions into a two-slot queue, all admitted before the
        // request drains: four must be refused, and the response must
        // carry the hint both as JSON and as a Retry-After header
        // (checked on the raw bytes — the test client strips headers).
        let payload = r#"{"items":[[0.1],[0.2],[0.3],[0.4],[0.5],[0.6]]}"#;
        let request = format!(
            "POST /ingest HTTP/1.1\r\nHost: alid\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{payload}",
            payload.len()
        );
        let mut raw = TcpStream::connect(&addr).unwrap();
        raw.write_all(request.as_bytes()).unwrap();
        let mut response = String::new();
        raw.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.1 200"), "{response}");
        assert!(response.contains("\r\nRetry-After: 1\r\n"), "{response}");
        assert!(response.contains("\"retry_after_ms\":25"), "{response}");
        let mut client = Client::connect(&addr).unwrap();
        let (status, health) = client.request("GET", "/healthz", None).unwrap();
        assert_eq!(status, 200);
        assert_eq!(health.get("busy_total").and_then(Json::as_u64), Some(4), "{health:?}");
        let depths = health.get("depths").and_then(Json::as_arr).unwrap();
        assert_eq!(depths[0].get("busy").and_then(Json::as_u64), Some(4));
        assert_eq!(depths[0].get("items").and_then(Json::as_u64), Some(2));
        assert_eq!(depths[0].get("queued").and_then(Json::as_u64), Some(0));
        // A fully admitted batch carries no hint.
        let ok = Json::object([("items", Json::Arr(vec![]))]);
        let (status, resp) = client.request("POST", "/ingest", Some(&ok)).unwrap();
        assert_eq!(status, 200);
        assert!(resp.get("retry_after_ms").is_none(), "{resp:?}");
        server.shutdown();
    }

    /// An ingest whose journal flush fails answers 500, never 200.
    /// `journal-00000001` is a symlink to `/dev/full`, so the first
    /// rotation past `compact_every` fails with ENOSPC and stops the
    /// journal; every ingest answered 200 must have all of its frames
    /// durable.
    #[cfg(unix)]
    #[test]
    fn an_ingest_the_journal_cannot_flush_is_never_acknowledged() {
        let dir = std::env::temp_dir().join(format!("alid_http_full_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let kernel = LaplacianKernel::l2(1.0);
        let mut p = AlidParams::new(kernel);
        p.lsh.seed = 5;
        // One shard: each 4-item request journals 4 admits + 1 apply.
        let mut service = Service::new(ServiceConfig::new(1, 1, p).with_batch(8));
        let cfg = crate::journal::JournalConfig { dir: dir.clone(), compact_every: 64 };
        let journal = crate::journal::recover_and_open(cfg, &service, 0).expect("open journal");
        service.set_journal(journal);
        // Only after the open: recovery reads every segment, and a read
        // of /dev/full never ends.
        std::os::unix::fs::symlink("/dev/full", dir.join("journal-00000001")).expect("symlink");
        let server = start(
            Arc::new(service),
            "127.0.0.1:0",
            HttpOptions { http_workers: 1, snapshot_path: None },
        )
        .expect("bind loopback");
        let mut client = Client::connect(server.addr()).unwrap();
        let mut statuses = Vec::new();
        for r in 0..4 {
            let items: Vec<Json> =
                (0..4).map(|i| Json::Arr(vec![Json::Num((r * 4 + i) as f64 * 0.01)])).collect();
            let body = Json::object([("items", Json::Arr(items))]);
            let (status, resp) = client.request("POST", "/ingest", Some(&body)).unwrap();
            if status != 200 {
                assert_eq!(status, 500, "{resp:?}");
                let message = resp.get("error").and_then(Json::as_str).unwrap_or_default();
                assert!(message.contains("applied but not durable"), "{message}");
            }
            statuses.push(status);
        }
        let (status, health) = client.request("GET", "/healthz", None).unwrap();
        assert_eq!(status, 200);
        let journal = health.get("journal").expect("journal block");
        let durable = journal.get("durable").and_then(Json::as_u64).unwrap();
        assert_eq!(journal.get("appended").and_then(Json::as_u64), Some(20), "{health:?}");
        assert!(statuses.contains(&500), "the failed flush must surface: {statuses:?}");
        for (r, &status) in statuses.iter().enumerate() {
            if status == 200 {
                let frames_end = 5 * (r as u64 + 1);
                assert!(
                    durable >= frames_end,
                    "request {r} was acknowledged with {durable} of its first {frames_end} frames durable"
                );
            }
        }
        server.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unknown_route_and_method() {
        let (server, addr) = start_test_server();
        let mut client = Client::connect(&addr).unwrap();
        let (status, _) = client.request("GET", "/nope", None).unwrap();
        assert_eq!(status, 404);
        let (status, _) = client.request("PUT", "/ingest", None).unwrap();
        assert_eq!(status, 405);
        server.shutdown();
    }

    #[test]
    fn snapshot_endpoint_writes_a_restorable_file() {
        let path = std::env::temp_dir().join(format!("alid_snap_test_{}.bin", std::process::id()));
        let server = start(
            test_service(),
            "127.0.0.1:0",
            HttpOptions { http_workers: 2, snapshot_path: Some(path.clone()) },
        )
        .expect("bind loopback");
        let addr = server.addr().to_string();
        let mut client = Client::connect(&addr).unwrap();
        let items: Vec<Json> =
            (0..12).map(|i| Json::Arr(vec![Json::Num(i as f64 * 0.01)])).collect();
        let body = Json::object([("items", Json::Arr(items))]);
        client.request("POST", "/ingest", Some(&body)).unwrap();
        // A client-supplied path must be ignored: only the configured
        // path is written.
        let evil = std::env::temp_dir().join(format!("alid_evil_{}.bin", std::process::id()));
        let body = Json::object([("path", Json::Str(evil.display().to_string()))]);
        let (status, resp) = client.request("POST", "/snapshot", Some(&body)).unwrap();
        assert_eq!(status, 200, "{resp:?}");
        assert!(!evil.exists(), "client-supplied snapshot path must never be written");
        assert_eq!(
            resp.get("path").and_then(Json::as_str),
            Some(path.display().to_string().as_str())
        );
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(bytes.len() as u64, resp.get("bytes").and_then(Json::as_u64).unwrap());
        assert!(resp.get("duration_ms").and_then(Json::as_u64).is_some(), "{resp:?}");
        // No journal attached: nothing to truncate, but the field is
        // always present so clients can rely on the shape.
        assert_eq!(resp.get("journal_truncated_bytes").and_then(Json::as_u64), Some(0));
        let restored = crate::snapshot::restore(&bytes, alid_exec::ExecPolicy::sequential())
            .expect("snapshot restores");
        assert_eq!(restored.len(), 12);
        let _ = std::fs::remove_file(&path);
        server.shutdown();
    }

    /// The `/metrics` scrape: plain-text exposition with `HELP`/`TYPE`
    /// metadata, series from the HTTP and service layers, per-shard
    /// depth gauges, and cumulative (monotone) histogram buckets
    /// ending at `le="+Inf"`.
    #[test]
    fn metrics_scrape_is_valid_exposition() {
        let (server, addr) = start_test_server();
        let mut client = Client::connect(&addr).unwrap();
        let items: Vec<Json> =
            (0..16).map(|i| Json::Arr(vec![Json::Num(i as f64 * 0.01)])).collect();
        let body = Json::object([("items", Json::Arr(items))]);
        let (status, _) = client.request("POST", "/ingest", Some(&body)).unwrap();
        assert_eq!(status, 200);
        let (status, text) = client.request_text("GET", "/metrics").unwrap();
        assert_eq!(status, 200);
        for series in [
            "alid_http_accepts_total",
            "alid_http_requests_total",
            "alid_service_admitted_total 16",
            "alid_service_drains_total 1",
            "alid_service_shard_queued{shard=\"0\"} 0",
            "alid_service_shard_items{shard=\"1\"}",
        ] {
            assert!(text.contains(series), "missing `{series}` in scrape:\n{text}");
        }
        assert!(text.contains("# TYPE alid_http_requests_total counter"), "{text}");
        assert!(text.contains("# TYPE alid_service_shard_queued gauge"), "{text}");
        assert!(text.contains("# TYPE alid_http_request_seconds histogram"), "{text}");
        // The ingest served above is in its per-endpoint latency series.
        assert!(text.contains("alid_http_request_seconds_count{path=\"/ingest\"} 1"), "{text}");
        // Histogram buckets are cumulative (monotone nondecreasing) and
        // the family terminates at the +Inf bucket == _count.
        let prefix = "alid_http_request_seconds_bucket{path=\"/ingest\"";
        let buckets: Vec<u64> = text
            .lines()
            .filter(|l| l.starts_with(prefix))
            .map(|l| l.rsplit(' ').next().unwrap().parse().unwrap())
            .collect();
        assert!(buckets.len() > 8, "expected a full bucket ladder:\n{text}");
        assert!(buckets.windows(2).all(|w| w[0] <= w[1]), "non-cumulative buckets: {buckets:?}");
        let inf = text
            .lines()
            .find(|l| l.starts_with(prefix) && l.contains("le=\"+Inf\""))
            .expect("+Inf bucket present");
        assert!(inf.ends_with(" 1"), "{inf}");
        // Every non-comment line parses as `series value`.
        for line in text.lines().filter(|l| !l.is_empty() && !l.starts_with('#')) {
            let (series, value) = line.rsplit_once(' ').expect("sample shape");
            assert!(!series.is_empty() && value.parse::<f64>().is_ok(), "bad sample: {line}");
        }
        server.shutdown();
    }

    #[test]
    fn wait_ready_times_out_on_dead_port() {
        let err = wait_ready("127.0.0.1:1", Duration::from_millis(200)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::TimedOut);
    }

    /// A complete `POST /ingest` request, and its body.
    fn ingest_request() -> (Vec<u8>, Vec<u8>) {
        let body = br#"{"items":[[60.0,0.0],[60.1,0.2]]}"#.to_vec();
        let mut request = format!(
            "POST /ingest HTTP/1.1\r\nHost: localhost\r\nContent-Length: {}\r\n\r\n",
            body.len()
        )
        .into_bytes();
        request.extend_from_slice(&body);
        (request, body)
    }

    /// `read_request` over `bytes`, as a connection that sends them
    /// and then closes would feed it.
    fn read_bytes(mut bytes: &[u8]) -> Result<Option<Request>, HttpError> {
        let metrics = HttpMetrics::new(&alid_obs::Registry::new());
        read_request(&mut bytes, &mut Vec::new(), &metrics)
    }

    /// The outcomes a client may cause: no request, a request, or a
    /// 400, 413 or 501 refusal.
    fn expected_outcome(result: &Result<Option<Request>, HttpError>) -> Result<(), String> {
        match result {
            Ok(_) => Ok(()),
            Err(e) if matches!(e.status, 400 | 413 | 501) => Ok(()),
            Err(e) => Err(format!("status {} ({})", e.status, e.message)),
        }
    }

    /// Head fragments for byte soups that reach past the request line.
    const FRAGMENTS: [&str; 15] = [
        "POST ",
        "GET ",
        "/ingest",
        "?k=2",
        " HTTP/1.1",
        "\r\n",
        "\n",
        ": ",
        "Content-Length: ",
        "18446744073709551616",
        "99999999",
        "12",
        "Transfer-Encoding: chunked",
        "Expect: 100-continue",
        "Connection: close",
    ];

    #[test]
    fn the_unmutated_ingest_request_parses() {
        let (request, body) = ingest_request();
        let parsed = read_bytes(&request).ok().flatten().expect("a request");
        assert_eq!((parsed.method.as_str(), parsed.path.as_str()), ("POST", "/ingest"));
        assert_eq!(parsed.body, body);
        assert!(parsed.keep_alive);
        let oversized =
            format!("POST /ingest HTTP/1.1\r\nContent-Length: {}\r\n\r\n", MAX_BODY_BYTES + 1);
        let refused = read_bytes(oversized.as_bytes()).err().expect("refused");
        assert_eq!(refused.status, 413);
    }

    /// Every truncation and every one-byte mutation of a valid ingest
    /// request gets an expected outcome.
    #[test]
    fn damaged_ingest_requests_get_an_expected_outcome() {
        let (request, _) = ingest_request();
        let truncations = (0..request.len()).map(|cut| request[..cut].to_vec());
        let mutations = (0..request.len()).flat_map(|i| {
            let request = &request;
            (0..=255u8).map(move |byte| {
                let mut damaged = request.clone();
                damaged[i] = byte;
                damaged
            })
        });
        for bytes in truncations.chain(mutations) {
            let outcome = expected_outcome(&read_bytes(&bytes));
            assert!(outcome.is_ok(), "{:?}: {outcome:?}", String::from_utf8_lossy(&bytes));
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(512))]

        /// Arbitrary bytes never panic the head parser.
        #[test]
        fn arbitrary_bytes_get_an_expected_outcome(
            bytes in proptest::collection::vec(0u8..=255, 0..512)
        ) {
            let outcome = expected_outcome(&read_bytes(&bytes));
            proptest::prop_assert!(outcome.is_ok(), "{bytes:?}: {outcome:?}");
        }

        /// Soups of head fragments and stray bytes reach the header
        /// and body branches and still never panic.
        #[test]
        fn fragment_soups_get_an_expected_outcome(
            request_line in 0usize..2,
            picks in proptest::collection::vec(0usize..FRAGMENTS.len() + 1, 0..24),
            stray in 0u8..=255
        ) {
            let mut bytes = Vec::new();
            if request_line == 1 {
                bytes.extend_from_slice(b"POST /ingest HTTP/1.1\r\n");
            }
            for p in picks {
                match FRAGMENTS.get(p) {
                    Some(f) => bytes.extend_from_slice(f.as_bytes()),
                    None => bytes.push(stray),
                }
            }
            let outcome = expected_outcome(&read_bytes(&bytes));
            proptest::prop_assert!(outcome.is_ok(), "{:?}: {outcome:?}", String::from_utf8_lossy(&bytes));
        }
    }
}
