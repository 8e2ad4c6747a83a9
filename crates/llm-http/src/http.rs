//! A dependency-free HTTP/1.1 client over `std::net::TcpStream`.
//!
//! The build environment is offline (no `reqwest`/`hyper`), so this is the
//! whole transport: [`Transport`], a persistent keep-alive connection that
//! reads exactly one response per request (incremental `Content-Length`
//! and chunked framing) and transparently reconnects once when a pooled
//! connection has gone stale between waves.
//!
//! Plain `http://` only — pointing the client at a TLS endpoint is a
//! configuration error (run a local proxy or an http-speaking gateway
//! instead).

use std::fmt;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Largest response head accepted: status line, headers and blank line.
/// The same cap bounds one chunk-size line and a chunked trailer section.
pub const MAX_HEADER_BYTES: usize = 64 * 1024;

/// Largest response body accepted, however it is framed. A completion is
/// kilobytes; the cap only stops a peer that never stops sending.
pub const MAX_BODY_BYTES: usize = 16 * 1024 * 1024;

/// Why a request failed at the transport level.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HttpError {
    /// A URL could not be understood (or used a scheme we cannot speak).
    BadUrl(String),
    /// The TCP connection could not be established.
    Connect(String),
    /// The connection died mid-request or mid-response.
    Io(String),
    /// The response bytes were not valid HTTP.
    Malformed(String),
    /// The body ended before the declared `Content-Length`.
    Truncated {
        /// Bytes the server declared.
        expected: usize,
        /// Bytes actually received.
        got: usize,
    },
    /// A non-success status after all retries (message is pre-redacted by
    /// the caller before it ever reaches this value).
    Status {
        /// The HTTP status code.
        code: u16,
        /// A short body snippet for diagnosis.
        body: String,
    },
}

impl fmt::Display for HttpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HttpError::BadUrl(m) => write!(f, "bad url: {m}"),
            HttpError::Connect(m) => write!(f, "connect failed: {m}"),
            HttpError::Io(m) => write!(f, "i/o error: {m}"),
            HttpError::Malformed(m) => write!(f, "malformed response: {m}"),
            HttpError::Truncated { expected, got } => {
                write!(f, "truncated body: declared {expected} bytes, got {got}")
            }
            HttpError::Status { code, body } => write!(f, "http status {code}: {body}"),
        }
    }
}

impl std::error::Error for HttpError {}

/// A parsed response.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// Status code from the status line.
    pub status: u16,
    /// Headers in arrival order, names lowercased.
    pub headers: Vec<(String, String)>,
    /// The decoded body.
    pub body: String,
}

impl Response {
    /// Case-insensitive header lookup.
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| v.as_str())
    }
}

/// An `http://host:port/path` base, split into its parts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Endpoint {
    /// Host name or address.
    pub host: String,
    /// TCP port (default 80).
    pub port: u16,
    /// Path prefix, no trailing slash (e.g. `/v1`).
    pub base_path: String,
}

impl Endpoint {
    /// Parses a base URL. Only `http://` is supported — the client is
    /// dependency-free and cannot speak TLS.
    pub fn parse(base: &str) -> Result<Self, HttpError> {
        let rest = base.strip_prefix("http://").ok_or_else(|| {
            HttpError::BadUrl(format!(
                "`{base}` — only http:// endpoints are supported (no TLS); \
                 point at a local proxy for hosted providers"
            ))
        })?;
        let (authority, path) = match rest.find('/') {
            Some(i) => (&rest[..i], rest[i..].trim_end_matches('/')),
            None => (rest, ""),
        };
        let (host, port) = match authority.rsplit_once(':') {
            Some((h, p)) => (
                h.to_string(),
                p.parse()
                    .map_err(|_| HttpError::BadUrl(format!("bad port in `{base}`")))?,
            ),
            None => (authority.to_string(), 80),
        };
        if host.is_empty() {
            return Err(HttpError::BadUrl(format!("no host in `{base}`")));
        }
        Ok(Self {
            host,
            port,
            base_path: path.to_string(),
        })
    }
}

/// A persistent keep-alive HTTP/1.1 connection to one endpoint.
///
/// A `Transport` keeps the socket open across requests and reads exactly
/// one framed response per request (`Content-Length` or chunked).
/// Connection pools hold one `Transport` per slot; connections are opened
/// lazily on first use and re-opened transparently (once per request) when
/// the server has closed an idle connection between waves.
#[derive(Debug)]
pub struct Transport {
    endpoint: Endpoint,
    timeout: Duration,
    stream: Option<TcpStream>,
    /// Unconsumed bytes read past the end of a previous response.
    pending: Vec<u8>,
    reused: u64,
    last_reused: bool,
}

impl Transport {
    /// A transport for `endpoint`. No connection is opened until the
    /// first request.
    pub fn new(endpoint: Endpoint, timeout: Duration) -> Self {
        Self {
            endpoint,
            timeout,
            stream: None,
            pending: Vec::new(),
            reused: 0,
            last_reused: false,
        }
    }

    /// The endpoint this transport speaks to.
    pub fn endpoint(&self) -> &Endpoint {
        &self.endpoint
    }

    /// How many requests rode an already-open connection.
    pub fn reuse_count(&self) -> u64 {
        self.reused
    }

    /// Whether the most recent request reused an open connection.
    pub fn last_reused(&self) -> bool {
        self.last_reused
    }

    /// Sends one `POST` with a JSON body and reads exactly one response,
    /// leaving the connection open for the next request unless the server
    /// asked to close it. A request that fails on a *reused* connection is
    /// retried once on a fresh one — an idle keep-alive socket the server
    /// has quietly closed is indistinguishable from a live one until the
    /// write or read fails.
    pub fn post_json(
        &mut self,
        path: &str,
        headers: &[(String, String)],
        body: &str,
    ) -> Result<Response, HttpError> {
        let reusing = self.stream.is_some();
        self.last_reused = reusing;
        match self.request_once(path, headers, body) {
            Ok(resp) => {
                if reusing {
                    self.reused += 1;
                }
                Ok(resp)
            }
            Err(e) if reusing && matches!(e, HttpError::Io(_) | HttpError::Truncated { .. }) => {
                // Stale keep-alive connection: reconnect once.
                self.disconnect();
                self.last_reused = false;
                self.request_once(path, headers, body)
            }
            Err(e) => {
                self.disconnect();
                Err(e)
            }
        }
    }

    /// Drops the connection (the next request reconnects).
    pub fn disconnect(&mut self) {
        self.stream = None;
        self.pending.clear();
    }

    fn request_once(
        &mut self,
        path: &str,
        headers: &[(String, String)],
        body: &str,
    ) -> Result<Response, HttpError> {
        if self.stream.is_none() {
            let addr = format!("{}:{}", self.endpoint.host, self.endpoint.port);
            let stream = TcpStream::connect(&addr)
                .map_err(|e| HttpError::Connect(format!("{addr}: {e}")))?;
            stream
                .set_read_timeout(Some(self.timeout))
                .map_err(|e| HttpError::Io(e.to_string()))?;
            stream
                .set_write_timeout(Some(self.timeout))
                .map_err(|e| HttpError::Io(e.to_string()))?;
            self.pending.clear();
            self.stream = Some(stream);
        }
        let full_path = format!("{}{}", self.endpoint.base_path, path);
        let mut req = format!(
            "POST {full_path} HTTP/1.1\r\nHost: {}\r\nContent-Type: application/json\r\n\
             Content-Length: {}\r\nConnection: keep-alive\r\n",
            self.endpoint.host,
            body.len()
        );
        for (k, v) in headers {
            req.push_str(&format!("{k}: {v}\r\n"));
        }
        req.push_str("\r\n");
        req.push_str(body);

        let result = {
            let stream = self.stream.as_mut().expect("connected above");
            stream
                .write_all(req.as_bytes())
                .map_err(|e| HttpError::Io(e.to_string()))
                .and_then(|()| read_one_response(stream, &mut self.pending))
        };
        match result {
            Ok(resp) => {
                let close = resp
                    .header("connection")
                    .is_some_and(|v| v.eq_ignore_ascii_case("close"));
                if close {
                    self.disconnect();
                }
                Ok(resp)
            }
            Err(e) => {
                self.disconnect();
                Err(e)
            }
        }
    }
}

fn body_too_large() -> HttpError {
    HttpError::Malformed(format!("response body exceeds {MAX_BODY_BYTES} bytes"))
}

/// Reads exactly one HTTP/1.1 response from an open stream. `pending`
/// holds bytes already read past the previous response; bytes past *this*
/// response are left in it. Heads over [`MAX_HEADER_BYTES`] and bodies
/// over [`MAX_BODY_BYTES`] are [`HttpError::Malformed`]: a declared length
/// or chunk size over the cap is refused before any of its bytes are
/// read, a body read to EOF one byte past the cap, and a head at most one
/// 4 KiB read past it.
fn read_one_response(stream: &mut TcpStream, pending: &mut Vec<u8>) -> Result<Response, HttpError> {
    let header_end = loop {
        if let Some(pos) = find_header_end(pending) {
            break pos;
        }
        if pending.len() >= MAX_HEADER_BYTES {
            return Err(HttpError::Malformed(format!(
                "response head exceeds {MAX_HEADER_BYTES} bytes"
            )));
        }
        fill(stream, pending, "connection closed before response headers")?;
    };
    let (status, headers) = parse_head(&pending[..header_end])?;
    pending.drain(..header_end + 4);

    let chunked = headers
        .iter()
        .any(|(k, v)| k == "transfer-encoding" && v.eq_ignore_ascii_case("chunked"));
    let body = if chunked {
        read_chunked_body(stream, pending)?
    } else if let Some(len) = headers
        .iter()
        .find(|(k, _)| k == "content-length")
        .and_then(|(_, v)| v.parse::<usize>().ok())
    {
        if len > MAX_BODY_BYTES {
            return Err(body_too_large());
        }
        take_exact(stream, pending, len)?
    } else {
        // No framing: the body runs to EOF (the server will close).
        let mut rest = std::mem::take(pending);
        let mut buf = [0u8; 4096];
        loop {
            // Never read more than one byte past the cap: enough to know
            // the body crossed it.
            let room = (MAX_BODY_BYTES + 1).saturating_sub(rest.len());
            if room == 0 {
                return Err(body_too_large());
            }
            let want = room.min(buf.len());
            match stream.read(&mut buf[..want]) {
                Ok(0) => break,
                Ok(n) => rest.extend_from_slice(&buf[..n]),
                Err(e) => return Err(HttpError::Io(e.to_string())),
            }
        }
        rest
    };
    let body = String::from_utf8(body).map_err(|_| HttpError::Malformed("non-utf8 body".into()))?;
    Ok(Response {
        status,
        headers,
        body,
    })
}

/// Reads more bytes into `pending`, failing on EOF.
fn fill(stream: &mut TcpStream, pending: &mut Vec<u8>, on_eof: &str) -> Result<(), HttpError> {
    let mut buf = [0u8; 4096];
    match stream.read(&mut buf) {
        Ok(0) => Err(HttpError::Io(on_eof.into())),
        Ok(n) => {
            pending.extend_from_slice(&buf[..n]);
            Ok(())
        }
        Err(e) => Err(HttpError::Io(e.to_string())),
    }
}

/// Takes exactly `n` bytes from `pending`, reading as needed.
fn take_exact(
    stream: &mut TcpStream,
    pending: &mut Vec<u8>,
    n: usize,
) -> Result<Vec<u8>, HttpError> {
    while pending.len() < n {
        fill(stream, pending, "connection closed mid-body").map_err(|e| match e {
            HttpError::Io(_) => HttpError::Truncated {
                expected: n,
                got: pending.len(),
            },
            other => other,
        })?;
    }
    Ok(pending.drain(..n).collect())
}

/// Takes one CRLF-terminated line (at most [`MAX_HEADER_BYTES`]) from
/// `pending`, reading as needed.
fn take_line(stream: &mut TcpStream, pending: &mut Vec<u8>) -> Result<String, HttpError> {
    let end = loop {
        if let Some(pos) = pending.windows(2).position(|w| w == b"\r\n") {
            break pos;
        }
        if pending.len() >= MAX_HEADER_BYTES {
            return Err(HttpError::Malformed(format!(
                "chunk line exceeds {MAX_HEADER_BYTES} bytes"
            )));
        }
        fill(stream, pending, "connection closed mid-chunk")?;
    };
    let line: Vec<u8> = pending.drain(..end + 2).collect();
    String::from_utf8(line[..end].to_vec())
        .map_err(|_| HttpError::Malformed("bad chunk line".into()))
}

/// Incrementally reads a chunked body until the terminal zero chunk.
fn read_chunked_body(stream: &mut TcpStream, pending: &mut Vec<u8>) -> Result<Vec<u8>, HttpError> {
    let mut out = Vec::new();
    loop {
        let size_text = take_line(stream, pending)?;
        let size = usize::from_str_radix(size_text.trim(), 16)
            .map_err(|_| HttpError::Malformed(format!("bad chunk size `{size_text}`")))?;
        if size == 0 {
            // Trailer section: discard lines up to the blank terminator.
            let mut trailer = 0;
            loop {
                let line = take_line(stream, pending)?;
                if line.is_empty() {
                    return Ok(out);
                }
                trailer += line.len() + 2;
                if trailer > MAX_HEADER_BYTES {
                    return Err(HttpError::Malformed(format!(
                        "chunked trailer exceeds {MAX_HEADER_BYTES} bytes"
                    )));
                }
            }
        }
        // `out` never exceeds the cap, so neither the subtraction nor the
        // CRLF arithmetic below can overflow.
        if size > MAX_BODY_BYTES - out.len() {
            return Err(body_too_large());
        }
        let chunk = take_exact(stream, pending, size + 2)?;
        out.extend_from_slice(&chunk[..size]);
    }
}

/// Parses the status line + header block (everything before the blank
/// line) of an HTTP/1.1 response.
fn parse_head(raw: &[u8]) -> Result<(u16, Vec<(String, String)>), HttpError> {
    let head =
        std::str::from_utf8(raw).map_err(|_| HttpError::Malformed("non-utf8 headers".into()))?;
    let mut lines = head.split("\r\n");
    let status_line = lines
        .next()
        .ok_or_else(|| HttpError::Malformed("empty response".into()))?;
    let mut parts = status_line.splitn(3, ' ');
    let version = parts.next().unwrap_or("");
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::Malformed(format!(
            "bad status line `{status_line}`"
        )));
    }
    let status: u16 = parts
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| HttpError::Malformed(format!("bad status line `{status_line}`")))?;
    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let (k, v) = line
            .split_once(':')
            .ok_or_else(|| HttpError::Malformed(format!("bad header `{line}`")))?;
        headers.push((k.trim().to_ascii_lowercase(), v.trim().to_string()));
    }
    Ok((status, headers))
}

fn find_header_end(raw: &[u8]) -> Option<usize> {
    raw.windows(4).position(|w| w == b"\r\n\r\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn endpoint_parsing() {
        let e = Endpoint::parse("http://127.0.0.1:8080/v1").unwrap();
        assert_eq!(
            e,
            Endpoint {
                host: "127.0.0.1".into(),
                port: 8080,
                base_path: "/v1".into()
            }
        );
        let bare = Endpoint::parse("http://api.local").unwrap();
        assert_eq!(bare.port, 80);
        assert_eq!(bare.base_path, "");
        assert!(matches!(
            Endpoint::parse("https://api.openai.com/v1"),
            Err(HttpError::BadUrl(_))
        ));
        assert!(Endpoint::parse("http://:80/v1").is_err());
    }

    use std::net::TcpListener;

    /// Serves `raw` as the response to one request on a fresh loopback
    /// connection, closes it, and returns what a [`Transport`] made of it.
    /// A client that hangs up before reading all of `raw` is not an error.
    fn respond_with(raw: impl AsRef<[u8]> + Send + 'static) -> Result<Response, HttpError> {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let port = listener.local_addr().unwrap().port();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            crate::server::read_request(&mut stream).expect("one request");
            let _ = stream.write_all(raw.as_ref());
        });
        let endpoint = Endpoint::parse(&format!("http://127.0.0.1:{port}/v1")).unwrap();
        let result = Transport::new(endpoint, Duration::from_secs(5)).post_json("/x", &[], "{}");
        server.join().unwrap();
        result
    }

    #[test]
    fn parses_content_length_response() {
        let raw =
            b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 5\r\n\r\nhello";
        let r = respond_with(raw).unwrap();
        assert_eq!(r.status, 200);
        assert_eq!(r.body, "hello");
        assert_eq!(r.header("Content-Type"), Some("application/json"));
    }

    #[test]
    fn truncated_bodies_are_detected() {
        let raw = b"HTTP/1.1 200 OK\r\nContent-Length: 50\r\n\r\nshort";
        assert_eq!(
            respond_with(raw),
            Err(HttpError::Truncated {
                expected: 50,
                got: 5
            })
        );
    }

    #[test]
    fn decodes_chunked_bodies() {
        // Upper-case hex sizes and a trailer section are legal framing.
        let raw = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n\
                    B\r\nhello world\r\n0\r\nX-Trailer: done\r\n\r\n";
        assert_eq!(respond_with(raw).unwrap().body, "hello world");
    }

    #[test]
    fn hostile_chunk_sizes_are_malformed() {
        // `size + 2` for this size line would overflow `usize`.
        let raw = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n\
                    ffffffffffffffff\r\nhello\r\n0\r\n\r\n";
        assert!(matches!(respond_with(raw), Err(HttpError::Malformed(_))));
    }

    #[test]
    fn oversized_responses_are_refused_before_they_are_read() {
        // 2^40 bytes declared, then a short body and a close: the cap, not
        // the truncation, must decide.
        let declared = b"HTTP/1.1 200 OK\r\nContent-Length: 1099511627776\r\n\r\nhello";
        assert!(matches!(
            respond_with(declared),
            Err(HttpError::Malformed(_))
        ));
        let chunk = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n\
                      10000000000\r\nhello\r\n0\r\n\r\n";
        assert!(matches!(respond_with(chunk), Err(HttpError::Malformed(_))));
        // A head that never ends: the client stops at the cap.
        let mut endless = b"HTTP/1.1 200 OK\r\n".to_vec();
        while endless.len() <= 16 * MAX_HEADER_BYTES {
            endless.extend_from_slice(b"X-Pad: aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa\r\n");
        }
        assert!(matches!(
            respond_with(endless),
            Err(HttpError::Malformed(_))
        ));
        // No framing: the body runs to EOF, and the cap is exact.
        let unframed = |len: usize| {
            let mut raw = b"HTTP/1.1 200 OK\r\n\r\n".to_vec();
            raw.resize(raw.len() + len, b'a');
            respond_with(raw)
        };
        assert_eq!(unframed(MAX_BODY_BYTES).unwrap().body.len(), MAX_BODY_BYTES);
        assert!(matches!(
            unframed(MAX_BODY_BYTES + 1),
            Err(HttpError::Malformed(_))
        ));
    }

    #[test]
    fn malformed_responses_error() {
        assert!(respond_with(b"not http at all").is_err());
        assert!(respond_with(b"HTTP/1.1 abc OK\r\n\r\n").is_err());
    }

    fn ok_response(body: &str) -> String {
        format!(
            "HTTP/1.1 200 OK\r\nContent-Length: {}\r\nConnection: keep-alive\r\n\r\n{}",
            body.len(),
            body
        )
    }

    #[test]
    fn transport_reuses_one_connection_across_requests() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let port = listener.local_addr().unwrap().port();
        let server = std::thread::spawn(move || {
            // One accepted connection serves both requests.
            let (mut stream, _) = listener.accept().unwrap();
            for i in 0..2 {
                let mut buf = [0u8; 4096];
                let mut raw = Vec::new();
                while find_header_end(&raw).is_none() {
                    let n = stream.read(&mut buf).unwrap();
                    assert!(n > 0, "client hung up early");
                    raw.extend_from_slice(&buf[..n]);
                }
                // Requests are tiny; headers+body arrive together here.
                stream
                    .write_all(ok_response(&format!("reply {i}")).as_bytes())
                    .unwrap();
            }
        });
        let endpoint = Endpoint::parse(&format!("http://127.0.0.1:{port}/v1")).unwrap();
        let mut t = Transport::new(endpoint, Duration::from_secs(5));
        let first = t.post_json("/x", &[], "{}").unwrap();
        assert_eq!(first.body, "reply 0");
        assert!(!t.last_reused());
        let second = t.post_json("/x", &[], "{}").unwrap();
        assert_eq!(second.body, "reply 1");
        assert!(t.last_reused());
        assert_eq!(t.reuse_count(), 1);
        server.join().unwrap();
    }

    #[test]
    fn transport_reconnects_when_the_idle_connection_went_stale() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let port = listener.local_addr().unwrap().port();
        let server = std::thread::spawn(move || {
            // Two separate connections: each serves one response, and the
            // first is closed immediately afterwards.
            for i in 0..2 {
                let (mut stream, _) = listener.accept().unwrap();
                let mut buf = [0u8; 4096];
                let mut raw = Vec::new();
                while find_header_end(&raw).is_none() {
                    let n = stream.read(&mut buf).unwrap();
                    if n == 0 {
                        return;
                    }
                    raw.extend_from_slice(&buf[..n]);
                }
                stream
                    .write_all(ok_response(&format!("reply {i}")).as_bytes())
                    .unwrap();
                drop(stream);
            }
        });
        let endpoint = Endpoint::parse(&format!("http://127.0.0.1:{port}/v1")).unwrap();
        let mut t = Transport::new(endpoint, Duration::from_secs(5));
        assert_eq!(t.post_json("/x", &[], "{}").unwrap().body, "reply 0");
        // Give the server's close time to land so the reuse attempt fails.
        std::thread::sleep(Duration::from_millis(50));
        let second = t.post_json("/x", &[], "{}").unwrap();
        assert_eq!(second.body, "reply 1");
        assert!(!t.last_reused(), "retry went over a fresh connection");
        server.join().unwrap();
    }

    #[test]
    fn transport_reads_chunked_keepalive_responses() {
        let raw = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n\
                    5\r\nhello\r\n6\r\n world\r\n0\r\n\r\n";
        assert_eq!(respond_with(raw).unwrap().body, "hello world");
    }
}
