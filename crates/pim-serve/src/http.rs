//! A minimal HTTP/1.1 layer over `std::net`, plus the matching blocking
//! client used by the load generator, the smoke binary, and the tests.
//!
//! Scope is deliberately small — exactly what the job API needs:
//! `Content-Length` bodies (no chunked encoding), `Connection: close` on
//! every response (one request per connection), hard limits on header
//! and body sizes, and one deadline for the whole request, so a
//! misbehaving client cannot pin a service thread.

use std::collections::HashMap;
use std::io::{self, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Upper bound on a request body (1 MiB — job specs are tiny).
pub const MAX_BODY_BYTES: usize = 1 << 20;
/// Upper bound on the header block.
const MAX_HEADER_BYTES: usize = 16 << 10;

/// A parsed HTTP request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Request method, uppercased (`GET`, `POST`, `DELETE`, …).
    pub method: String,
    /// Request path without the query string (e.g. `/v1/jobs/7`).
    pub path: String,
    /// Lowercased header name → value (last occurrence wins).
    pub headers: HashMap<String, String>,
    /// Request body (empty when no `Content-Length` was sent).
    pub body: Vec<u8>,
}

impl Request {
    /// The body as UTF-8, or an empty string if it is not valid UTF-8.
    pub fn body_str(&self) -> &str {
        std::str::from_utf8(&self.body).unwrap_or("")
    }

    /// Path segments, split on `/` with the empty leading segment dropped:
    /// `/v1/jobs/7` → `["v1", "jobs", "7"]`.
    pub fn segments(&self) -> Vec<&str> {
        self.path.split('/').filter(|s| !s.is_empty()).collect()
    }
}

/// Why a request could not be parsed (each maps to a response status).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// Connection closed before a full request arrived.
    Incomplete,
    /// The request deadline passed before a full request arrived (408).
    TimedOut,
    /// The request line or headers are malformed (400).
    Malformed(String),
    /// The declared body exceeds [`MAX_BODY_BYTES`] (413).
    BodyTooLarge(usize),
}

/// Reads and parses one request from `stream`. `timeout` is the deadline
/// for the whole request — request line, headers and body — so a client
/// that trickles bytes cannot pin the service thread any longer than one
/// that sends nothing.
pub fn read_request(stream: &TcpStream, timeout: Duration) -> Result<Request, ParseError> {
    let mut reader = BufReader::new(DeadlineReader {
        stream,
        deadline: Instant::now() + timeout,
    });

    let mut line = String::new();
    read_line_bounded(&mut reader, &mut line)?;
    let mut parts = line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| ParseError::Malformed("empty request line".into()))?
        .to_ascii_uppercase();
    let target = parts
        .next()
        .ok_or_else(|| ParseError::Malformed("missing request target".into()))?;
    let version = parts.next().unwrap_or("");
    if !version.starts_with("HTTP/1.") {
        return Err(ParseError::Malformed(format!("bad version {version:?}")));
    }
    // Strip the query string; the job API is path-addressed only.
    let path = target.split('?').next().unwrap_or("").to_string();

    let mut headers = HashMap::new();
    let mut header_bytes = 0usize;
    loop {
        let mut line = String::new();
        read_line_bounded(&mut reader, &mut line)?;
        if line.is_empty() {
            break;
        }
        header_bytes += line.len();
        if header_bytes > MAX_HEADER_BYTES {
            return Err(ParseError::Malformed("header block too large".into()));
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| ParseError::Malformed(format!("bad header {line:?}")))?;
        headers.insert(name.trim().to_ascii_lowercase(), value.trim().to_string());
    }

    let content_length: usize = match headers.get("content-length") {
        Some(raw) => raw
            .parse()
            .map_err(|_| ParseError::Malformed(format!("bad content-length {raw:?}")))?,
        None => 0,
    };
    if content_length > MAX_BODY_BYTES {
        return Err(ParseError::BodyTooLarge(content_length));
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).map_err(read_error)?;

    Ok(Request {
        method,
        path,
        headers,
        body,
    })
}

/// The socket under a request's `BufReader`: each refill first sets the
/// socket's read timeout to the time left before the deadline, so the
/// deadline bounds the whole request rather than each read.
struct DeadlineReader<'a> {
    stream: &'a TcpStream,
    deadline: Instant,
}

impl Read for DeadlineReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let left = self.deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(io::ErrorKind::TimedOut.into());
        }
        self.stream.set_read_timeout(Some(left))?;
        self.stream.read(buf)
    }
}

/// A failed socket read: the deadline passing (the socket reports its
/// read timeout as `WouldBlock` on Unix, `TimedOut` elsewhere) or the
/// client going away.
fn read_error(e: io::Error) -> ParseError {
    match e.kind() {
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => ParseError::TimedOut,
        _ => ParseError::Incomplete,
    }
}

/// Reads one CRLF- (or LF-) terminated line, rejecting unbounded lines.
fn read_line_bounded(
    reader: &mut BufReader<DeadlineReader<'_>>,
    line: &mut String,
) -> Result<(), ParseError> {
    let mut raw = Vec::new();
    let mut byte = [0u8; 1];
    loop {
        match reader.read(&mut byte) {
            Ok(0) => return Err(ParseError::Incomplete),
            Ok(_) => {
                if byte[0] == b'\n' {
                    break;
                }
                raw.push(byte[0]);
                if raw.len() > MAX_HEADER_BYTES {
                    return Err(ParseError::Malformed("line too long".into()));
                }
            }
            Err(e) => return Err(read_error(e)),
        }
    }
    if raw.last() == Some(&b'\r') {
        raw.pop();
    }
    *line = String::from_utf8(raw).map_err(|_| ParseError::Malformed("non-UTF-8 line".into()))?;
    Ok(())
}

/// A response under construction.
#[derive(Debug, Clone)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Extra headers beyond the standard set (name, value).
    pub headers: Vec<(String, String)>,
    /// Response body (JSON everywhere except the Prometheus exposition).
    pub body: String,
}

impl Response {
    /// A JSON response with the given status.
    pub fn json(status: u16, body: impl Into<String>) -> Self {
        Response {
            status,
            content_type: "application/json",
            headers: Vec::new(),
            body: body.into(),
        }
    }

    /// A Prometheus text-exposition response (version 0.0.4 of the
    /// format, the content type scrapers expect).
    pub fn prometheus(body: impl Into<String>) -> Self {
        Response {
            status: 200,
            content_type: "text/plain; version=0.0.4; charset=utf-8",
            headers: Vec::new(),
            body: body.into(),
        }
    }

    /// A newline-delimited JSON (`application/x-ndjson`) response, used
    /// by the structured event log.
    pub fn ndjson(body: impl Into<String>) -> Self {
        Response {
            status: 200,
            content_type: "application/x-ndjson",
            headers: Vec::new(),
            body: body.into(),
        }
    }

    /// A JSON error body `{"error": …}` with the given status.
    pub fn error(status: u16, message: &str) -> Self {
        Response::json(
            status,
            format!(
                "{{\"error\": {}}}",
                serde_json::to_string(&message).expect("string")
            ),
        )
    }

    /// Adds a header (builder style).
    pub fn header(mut self, name: &str, value: impl ToString) -> Self {
        self.headers.push((name.to_string(), value.to_string()));
        self
    }

    /// The standard reason phrase for the status codes this service emits.
    fn reason(&self) -> &'static str {
        match self.status {
            200 => "OK",
            202 => "Accepted",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            408 => "Request Timeout",
            409 => "Conflict",
            410 => "Gone",
            413 => "Payload Too Large",
            429 => "Too Many Requests",
            503 => "Service Unavailable",
            _ => "Unknown",
        }
    }

    /// Serializes the response and flushes it to `stream`.
    pub fn write_to(&self, stream: &mut TcpStream) -> std::io::Result<()> {
        let mut head = format!(
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n",
            self.status,
            self.reason(),
            self.content_type,
            self.body.len()
        );
        for (name, value) in &self.headers {
            head.push_str(name);
            head.push_str(": ");
            head.push_str(value);
            head.push_str("\r\n");
        }
        head.push_str("\r\n");
        stream.write_all(head.as_bytes())?;
        stream.write_all(self.body.as_bytes())?;
        stream.flush()
    }
}

/// A blocking one-shot HTTP client call: opens a connection, sends the
/// request, reads the full response. Returns `(status, headers, body)`.
pub fn client_request(
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> std::io::Result<(u16, HashMap<String, String>, String)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(30)))?;
    let payload = body.unwrap_or("");
    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{payload}",
        payload.len()
    );
    stream.write_all(request.as_bytes())?;
    stream.flush()?;

    let mut raw = String::new();
    BufReader::new(&stream).read_to_string(&mut raw)?;
    let (head, body) = raw
        .split_once("\r\n\r\n")
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidData, "no header break"))?;
    let mut lines = head.lines();
    let status_line = lines
        .next()
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidData, "empty response"))?;
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidData, "bad status line"))?;
    let mut headers = HashMap::new();
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            headers.insert(name.trim().to_ascii_lowercase(), value.trim().to_string());
        }
    }
    Ok((status, headers, body.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// Round-trips one raw request through a real socket pair.
    fn parse_raw(raw: &str) -> Result<Request, ParseError> {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let raw = raw.to_string();
        let writer = std::thread::spawn(move || {
            let mut stream = TcpStream::connect(addr).unwrap();
            stream.write_all(raw.as_bytes()).unwrap();
            stream.flush().unwrap();
            // Keep the connection open long enough for the read side; a
            // dropped stream mid-parse reads as Incomplete, which some
            // tests rely on, so only hold it when the request is whole.
            std::thread::sleep(Duration::from_millis(50));
        });
        let (stream, _) = listener.accept().unwrap();
        let parsed = read_request(&stream, Duration::from_millis(500));
        writer.join().unwrap();
        parsed
    }

    #[test]
    fn parses_a_post_with_body() {
        let request = parse_raw(
            "POST /v1/jobs?x=1 HTTP/1.1\r\nHost: h\r\nContent-Length: 7\r\nX-Ten: a\r\n\r\n{\"a\":1}",
        )
        .unwrap();
        assert_eq!(request.method, "POST");
        assert_eq!(request.path, "/v1/jobs", "query string stripped");
        assert_eq!(request.segments(), vec!["v1", "jobs"]);
        assert_eq!(request.body_str(), "{\"a\":1}");
        assert_eq!(request.headers.get("x-ten").map(String::as_str), Some("a"));
    }

    #[test]
    fn parses_a_bodyless_get() {
        let request = parse_raw("GET /v1/healthz HTTP/1.1\r\nHost: h\r\n\r\n").unwrap();
        assert_eq!(request.method, "GET");
        assert!(request.body.is_empty());
    }

    #[test]
    fn rejects_malformed_and_oversized_requests() {
        assert!(matches!(
            parse_raw("NOT-HTTP\r\n\r\n"),
            Err(ParseError::Malformed(_))
        ));
        assert!(matches!(
            parse_raw("GET / FTP/9\r\n\r\n"),
            Err(ParseError::Malformed(_))
        ));
        let oversized = format!(
            "POST /v1/jobs HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        assert!(matches!(
            parse_raw(&oversized),
            Err(ParseError::BodyTooLarge(_))
        ));
        // Truncated body: the client promised 50 bytes but sent none.
        assert_eq!(
            parse_raw("POST / HTTP/1.1\r\nContent-Length: 50\r\n\r\n"),
            Err(ParseError::Incomplete)
        );
    }

    #[test]
    fn a_trickled_request_misses_the_whole_request_deadline() {
        // One byte every 50 ms never idles a read for the 200 ms deadline,
        // but the whole request would take over 3 s to arrive.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let body = "{\"tenant\": \"trickle\"}";
        let raw = format!(
            "POST /v1/jobs HTTP/1.1\r\nHost: h\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        let writer = std::thread::spawn(move || {
            let mut stream = TcpStream::connect(addr).unwrap();
            for byte in raw.bytes() {
                if stream.write_all(&[byte]).is_err() {
                    return; // the reader hung up
                }
                std::thread::sleep(Duration::from_millis(50));
            }
        });
        let (stream, _) = listener.accept().unwrap();
        let start = Instant::now();
        let parsed = read_request(&stream, Duration::from_millis(200));
        let elapsed = start.elapsed();
        drop(stream);
        writer.join().unwrap();
        assert_eq!(parsed, Err(ParseError::TimedOut));
        assert!(elapsed < Duration::from_secs(1), "read took {elapsed:?}");
    }

    #[test]
    fn response_wire_format_and_client_agree() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let request = read_request(&stream, Duration::from_secs(1)).unwrap();
            assert_eq!(request.method, "GET");
            Response::json(200, "{\"ok\": true}")
                .header("Retry-After", 2)
                .write_to(&mut stream)
                .unwrap();
        });
        let (status, headers, body) = client_request(&addr, "GET", "/v1/healthz", None).unwrap();
        server.join().unwrap();
        assert_eq!(status, 200);
        assert_eq!(body, "{\"ok\": true}");
        assert_eq!(headers.get("retry-after").map(String::as_str), Some("2"));
        assert_eq!(headers.get("connection").map(String::as_str), Some("close"));
    }

    #[test]
    fn content_types_follow_the_constructor() {
        assert_eq!(Response::json(200, "{}").content_type, "application/json");
        let prom = Response::prometheus("# HELP x y\n");
        assert_eq!(prom.status, 200);
        assert!(prom.content_type.starts_with("text/plain; version=0.0.4"));
        assert_eq!(Response::ndjson("").content_type, "application/x-ndjson");
    }

    #[test]
    fn error_responses_are_json() {
        let response = Response::error(429, "tenant \"a\" over quota");
        assert_eq!(response.status, 429);
        assert_eq!(response.reason(), "Too Many Requests");
        assert!(response.body.contains("\"error\""));
        // The message round-trips through JSON escaping.
        assert!(response.body.contains("\\\"a\\\""));
    }
}
