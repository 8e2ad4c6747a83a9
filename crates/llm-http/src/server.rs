//! Loopback scripted HTTP servers for integration tests.
//!
//! CI has no network, so HTTP behavior is tested against
//! `std::net::TcpListener`s bound to `127.0.0.1:0`:
//!
//! * [`TestServer`] — the original sequential server: scripts a sequence
//!   of [`Scripted`] responses, one connection per response;
//! * [`PoolServer`] — a concurrent keep-alive server for exercising the
//!   connection pool: every connection gets its own handler thread, each
//!   request is served after a fixed latency, and a [`PoolBehavior`] can
//!   gate a wave (prove requests overlap), release responses in reverse
//!   arrival order (prove submission-order delivery), and inject 429s
//!   (prove the shared governor throttles everyone). It also backs the
//!   `llm_stub` CI end-to-end fixture.

use crate::json::Json;
use std::io::{Read, Write};
use std::net::TcpListener;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// One scripted response, served to the next connection.
#[derive(Debug, Clone)]
pub enum Scripted {
    /// 200 with a well-formed chat-completions body carrying this content.
    Completion(String),
    /// An arbitrary status and raw body.
    Status(u16, String),
    /// 429 with a `Retry-After` header (seconds).
    RateLimited(u64),
    /// 200 declaring a large `Content-Length` but sending only this
    /// prefix before closing — a truncated body.
    Truncated(String),
}

/// One request as the server saw it.
#[derive(Debug, Clone)]
pub struct Received {
    /// Request line path (e.g. `/v1/chat/completions`).
    pub path: String,
    /// Headers in arrival order, names lowercased.
    pub headers: Vec<(String, String)>,
    /// The request body.
    pub body: String,
}

impl Received {
    /// Case-insensitive header lookup.
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| v.as_str())
    }
}

/// A scripted loopback server. The listener thread serves the script in
/// order and exits; it is detached, so an unfinished script simply stops
/// accepting when the test ends.
pub struct TestServer {
    port: u16,
    requests: Arc<Mutex<Vec<Received>>>,
}

impl TestServer {
    /// Binds `127.0.0.1:0` and starts serving `script`.
    pub fn start(script: Vec<Scripted>) -> Self {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let port = listener.local_addr().expect("local addr").port();
        let requests = Arc::new(Mutex::new(Vec::new()));
        let seen = Arc::clone(&requests);
        std::thread::spawn(move || {
            for response in script {
                let Ok((mut stream, _)) = listener.accept() else {
                    return;
                };
                let Some(received) = read_request(&mut stream) else {
                    continue;
                };
                seen.lock().expect("requests lock").push(received);
                let _ = stream.write_all(render_response(&response).as_bytes());
            }
        });
        Self { port, requests }
    }

    /// The base URL to hand to `HttpConfig::new`.
    pub fn base(&self) -> String {
        format!("http://127.0.0.1:{}/v1", self.port)
    }

    /// Every request served so far.
    pub fn requests(&self) -> Vec<Received> {
        self.requests.lock().expect("requests lock").clone()
    }
}

pub(crate) fn read_request(stream: &mut std::net::TcpStream) -> Option<Received> {
    let mut raw = Vec::new();
    let mut buf = [0u8; 4096];
    let header_end = loop {
        if let Some(pos) = raw.windows(4).position(|w| w == b"\r\n\r\n") {
            break pos;
        }
        match stream.read(&mut buf) {
            Ok(0) => return None,
            Ok(n) => raw.extend_from_slice(&buf[..n]),
            Err(_) => return None,
        }
    };
    let head = String::from_utf8_lossy(&raw[..header_end]).to_string();
    let mut lines = head.split("\r\n");
    let request_line = lines.next()?;
    let path = request_line.split(' ').nth(1)?.to_string();
    let headers: Vec<(String, String)> = lines
        .filter_map(|l| l.split_once(':'))
        .map(|(k, v)| (k.trim().to_ascii_lowercase(), v.trim().to_string()))
        .collect();
    let content_length: usize = headers
        .iter()
        .find(|(k, _)| k == "content-length")
        .and_then(|(_, v)| v.parse().ok())
        .unwrap_or(0);
    let mut body = raw[header_end + 4..].to_vec();
    while body.len() < content_length {
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => body.extend_from_slice(&buf[..n]),
            Err(_) => break,
        }
    }
    Some(Received {
        path,
        headers,
        body: String::from_utf8_lossy(&body).to_string(),
    })
}

/// A chat-completions 200 body for `content`, with an optional `usage`
/// object carrying `(prompt_tokens, completion_tokens)`.
fn chat_completion_body(content: &str, usage: Option<(u64, u64)>) -> String {
    let mut fields = vec![
        ("id".into(), Json::Str("cmpl-test".into())),
        ("object".into(), Json::Str("chat.completion".into())),
        (
            "choices".into(),
            Json::Arr(vec![Json::Obj(vec![
                ("index".into(), Json::Num(0.0)),
                (
                    "message".into(),
                    Json::Obj(vec![
                        ("role".into(), Json::Str("assistant".into())),
                        ("content".into(), Json::Str(content.to_string())),
                    ]),
                ),
                ("finish_reason".into(), Json::Str("stop".into())),
            ])]),
        ),
    ];
    if let Some((prompt, completion)) = usage {
        fields.push((
            "usage".into(),
            Json::Obj(vec![
                ("prompt_tokens".into(), Json::Num(prompt as f64)),
                ("completion_tokens".into(), Json::Num(completion as f64)),
                (
                    "total_tokens".into(),
                    Json::Num((prompt + completion) as f64),
                ),
            ]),
        ));
    }
    Json::Obj(fields).render()
}

fn render_response(scripted: &Scripted) -> String {
    match scripted {
        Scripted::Completion(content) => {
            let body = chat_completion_body(content, None);
            format!(
                "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n\
                 Content-Length: {}\r\nConnection: close\r\n\r\n{}",
                body.len(),
                body
            )
        }
        Scripted::Status(code, body) => format!(
            "HTTP/1.1 {code} X\r\nContent-Type: application/json\r\n\
             Content-Length: {}\r\nConnection: close\r\n\r\n{}",
            body.len(),
            body
        ),
        Scripted::RateLimited(retry_after) => {
            let body = r#"{"error":{"message":"rate limited"}}"#;
            format!(
                "HTTP/1.1 429 Too Many Requests\r\nRetry-After: {retry_after}\r\n\
                 Content-Length: {}\r\nConnection: close\r\n\r\n{}",
                body.len(),
                body
            )
        }
        Scripted::Truncated(prefix) => format!(
            "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n\
             Content-Length: {}\r\nConnection: close\r\n\r\n{}",
            prefix.len() + 10_000,
            prefix
        ),
    }
}

/// How a [`PoolServer`] treats each request.
#[derive(Debug, Clone)]
pub struct PoolBehavior {
    /// Service time per 200 response (after any gate), modeling a
    /// fixed-latency backend.
    pub latency: Duration,
    /// Completion content served on 200s. The literal `{slot}` is
    /// replaced with the request's `X-NADA-Slot` header (or the arrival
    /// index when absent) so waves produce distinguishable completions.
    pub content: String,
    /// `(prompt_tokens, completion_tokens)` reported in each 200's
    /// `usage` object.
    pub usage: Option<(u64, u64)>,
    /// Hold the first `gate` arrivals until all of them have arrived
    /// before responding — a serial client deadlocks into the 5s safety
    /// timeout, a pooled one sails through, so tests can prove requests
    /// were genuinely concurrent.
    pub gate: Option<usize>,
    /// With a gate: release the gated responses in *reverse* arrival
    /// order (latest-arrived answered first), so tests can prove
    /// submission-order delivery survives completion reordering.
    pub reverse_release: bool,
    /// Arrival indices (0-based, counting every request) answered 429.
    pub rate_limit_at: Vec<usize>,
    /// Additionally answer every k-th arrival 429 (indices k-1, 2k-1, …).
    pub rate_limit_every: Option<usize>,
    /// `Retry-After` (seconds) sent with every 429.
    pub retry_after: u64,
}

impl Default for PoolBehavior {
    fn default() -> Self {
        Self {
            latency: Duration::ZERO,
            content: "```\nstate s { input buffer_s: scalar; feature b = buffer_s / 10.0; }\n```"
                .into(),
            usage: None,
            gate: None,
            reverse_release: false,
            rate_limit_at: Vec::new(),
            rate_limit_every: None,
            retry_after: 0,
        }
    }
}

/// One request as the pool server saw it, with arrival metadata.
#[derive(Debug, Clone)]
pub struct PoolArrival {
    /// Global arrival index (0-based, every request counts).
    pub index: usize,
    /// When the request was read off the socket.
    pub at: Instant,
    /// The `X-NADA-Slot` header, when the client sent one.
    pub slot: Option<usize>,
    /// Status this request was answered with.
    pub status: u16,
    /// Request path.
    pub path: String,
    /// Request body.
    pub body: String,
}

struct PoolState {
    behavior: PoolBehavior,
    arrivals: Mutex<Vec<PoolArrival>>,
    gate_cv: Condvar,
    arrival_seq: AtomicUsize,
    in_flight: AtomicUsize,
    max_in_flight: AtomicUsize,
}

/// A concurrent keep-alive chat-completions server: one handler thread
/// per connection, unlimited requests per connection, behavior scripted
/// by [`PoolBehavior`]. Serves until the process exits (handler threads
/// are detached, like [`TestServer`]'s).
pub struct PoolServer {
    port: u16,
    state: Arc<PoolState>,
}

impl PoolServer {
    /// Binds `127.0.0.1:0` and starts serving.
    pub fn start(behavior: PoolBehavior) -> Self {
        Self::start_on(0, behavior).expect("bind loopback")
    }

    /// Binds `127.0.0.1:port` (0 = ephemeral) and starts serving.
    pub fn start_on(port: u16, behavior: PoolBehavior) -> std::io::Result<Self> {
        let listener = TcpListener::bind(("127.0.0.1", port))?;
        let port = listener.local_addr()?.port();
        let state = Arc::new(PoolState {
            behavior,
            arrivals: Mutex::new(Vec::new()),
            gate_cv: Condvar::new(),
            arrival_seq: AtomicUsize::new(0),
            in_flight: AtomicUsize::new(0),
            max_in_flight: AtomicUsize::new(0),
        });
        let accept_state = Arc::clone(&state);
        std::thread::spawn(move || {
            while let Ok((stream, _)) = listener.accept() {
                let state = Arc::clone(&accept_state);
                std::thread::spawn(move || serve_connection(stream, &state));
            }
        });
        Ok(Self { port, state })
    }

    /// The base URL to hand to `HttpConfig::new`.
    pub fn base(&self) -> String {
        format!("http://127.0.0.1:{}/v1", self.port)
    }

    /// The bound port.
    pub fn port(&self) -> u16 {
        self.port
    }

    /// Every request seen so far, in arrival-index order.
    pub fn arrivals(&self) -> Vec<PoolArrival> {
        let mut all = self.state.arrivals.lock().expect("arrivals lock").clone();
        all.sort_by_key(|a| a.index);
        all
    }

    /// The highest number of requests that were in flight simultaneously.
    pub fn max_in_flight(&self) -> usize {
        self.state.max_in_flight.load(Ordering::Relaxed)
    }
}

/// Gated handlers give up after this long so a serial client against a
/// gate of 2 stalls visibly but does not hang the test binary.
const GATE_TIMEOUT: Duration = Duration::from_secs(5);

fn serve_connection(mut stream: std::net::TcpStream, state: &Arc<PoolState>) {
    while let Some(received) = read_request(&mut stream) {
        let index = state.arrival_seq.fetch_add(1, Ordering::Relaxed);
        let live = state.in_flight.fetch_add(1, Ordering::Relaxed) + 1;
        state.max_in_flight.fetch_max(live, Ordering::Relaxed);

        let behavior = &state.behavior;
        let rate_limited = behavior.rate_limit_at.contains(&index)
            || behavior
                .rate_limit_every
                .is_some_and(|k| k > 0 && (index + 1).is_multiple_of(k));
        let status = if rate_limited { 429 } else { 200 };
        let slot = received
            .header(crate::client::SLOT_HEADER)
            .and_then(|v| v.parse::<usize>().ok());
        {
            let mut arrivals = state.arrivals.lock().expect("arrivals lock");
            arrivals.push(PoolArrival {
                index,
                at: Instant::now(),
                slot,
                status,
                path: received.path.clone(),
                body: received.body.clone(),
            });
            state.gate_cv.notify_all();
        }

        let response = if rate_limited {
            let body = r#"{"error":{"message":"rate limited"}}"#;
            format!(
                "HTTP/1.1 429 Too Many Requests\r\nRetry-After: {}\r\n\
                 Content-Length: {}\r\nConnection: keep-alive\r\n\r\n{}",
                behavior.retry_after,
                body.len(),
                body
            )
        } else {
            if let Some(gate) = behavior.gate.filter(|g| index < *g) {
                // Hold until the whole gated wave has arrived.
                let deadline = Instant::now() + GATE_TIMEOUT;
                let mut arrivals = state.arrivals.lock().expect("arrivals lock");
                while arrivals.len() < gate {
                    let Some(left) = deadline.checked_duration_since(Instant::now()) else {
                        break;
                    };
                    let (next, _) = state
                        .gate_cv
                        .wait_timeout(arrivals, left)
                        .expect("arrivals lock");
                    arrivals = next;
                }
                drop(arrivals);
                if behavior.reverse_release {
                    // Later arrivals answer first: position k in a gate of
                    // g sleeps (g-1-k) steps.
                    let steps = (gate - 1).saturating_sub(index) as u32;
                    std::thread::sleep(Duration::from_millis(20) * steps);
                }
            }
            std::thread::sleep(behavior.latency);
            let slot_text = slot.map_or_else(|| index.to_string(), |s| s.to_string());
            let content = behavior.content.replace("{slot}", &slot_text);
            let body = chat_completion_body(&content, behavior.usage);
            format!(
                "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n\
                 Content-Length: {}\r\nConnection: keep-alive\r\n\r\n{}",
                body.len(),
                body
            )
        };
        let write = stream.write_all(response.as_bytes());
        state.in_flight.fetch_sub(1, Ordering::Relaxed);
        if write.is_err() {
            break;
        }
    }
}
