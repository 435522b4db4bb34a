//! Minimal HTTP/1.1 framing: incremental parsing for the event loop,
//! blocking helpers for clients.
//!
//! This is not a general HTTP implementation — it is the smallest subset
//! the planning daemon and its load generator need: request-line + header
//! parsing, `Content-Length`-framed bodies, keep-alive by default with
//! `Connection: close` honored, and single-buffer responses (one write
//! per response makes responses atomic from the peer's perspective).
//! Chunked encoding, trailers, pipelining, and TLS are deliberately out
//! of scope.
//!
//! The server side parses **incrementally** via [`try_parse`]: the event
//! loop appends whatever the nonblocking socket yields to a per-connection
//! buffer and asks whether a complete request is in it yet — no thread
//! ever blocks on a slow or idle peer. The blocking client half
//! ([`read_response`]/[`format_request`]) is used by the load generator
//! and the gateway's upstream forwards.

use std::io::{self, Read, Write};
use std::net::TcpStream;

/// Upper bound on the request head (request line + headers).
pub const MAX_HEAD_BYTES: usize = 16 * 1024;
/// Upper bound on a request body.
pub const MAX_BODY_BYTES: usize = 1024 * 1024;

/// One parsed HTTP request.
#[derive(Debug)]
pub struct Request {
    /// Uppercase method, e.g. `GET`, `POST`.
    pub method: String,
    /// Request path (query strings are not split off; the API does not use
    /// them).
    pub path: String,
    /// Headers with lowercased names, in arrival order.
    pub headers: Vec<(String, String)>,
    /// Raw body bytes (empty when no `Content-Length`).
    pub body: Vec<u8>,
}

impl Request {
    /// First header value with lowercased name `name`.
    #[must_use]
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// Whether the connection should close after this request
    /// (`Connection: close`, or an HTTP/1.0 peer without keep-alive).
    #[must_use]
    pub fn wants_close(&self) -> bool {
        matches!(self.header("connection"), Some(v) if v.eq_ignore_ascii_case("close"))
    }
}

/// Try to parse one complete request from the front of `buf` (the event
/// loop's per-connection read buffer).
///
/// Returns `Ok(Some((request, consumed)))` when a full request (head +
/// body) is present — the caller drains `consumed` bytes and may call
/// again for a pipelined follow-up. Returns `Ok(None)` when more bytes
/// are needed.
///
/// # Errors
/// A message describing why the buffered bytes can never become a valid
/// request (malformed head, oversized head/body) — the connection should
/// answer 400 and close.
pub fn try_parse(buf: &[u8]) -> Result<Option<(Request, usize)>, String> {
    let Some(head_end) = find_head_end(buf) else {
        if buf.len() > MAX_HEAD_BYTES {
            return Err("request head too large".into());
        }
        return Ok(None);
    };
    let (method, path, headers) = parse_head(&buf[..head_end])?;
    let content_length = parse_content_length(&headers)?;
    let consumed = head_end + 4 + content_length;
    if buf.len() < consumed {
        return Ok(None);
    }
    let body = buf[head_end + 4..consumed].to_vec();
    Ok(Some((
        Request {
            method,
            path,
            headers,
            body,
        },
        consumed,
    )))
}

/// Parsed request head: `(method, path, lowercased headers)`.
type ParsedHead = (String, String, Vec<(String, String)>);

/// Parse a request head (everything before the `\r\n\r\n`).
fn parse_head(head: &[u8]) -> Result<ParsedHead, String> {
    let head = std::str::from_utf8(head).map_err(|_| "request head is not UTF-8".to_owned())?;
    let mut lines = head.split("\r\n");
    let request_line = lines.next().ok_or_else(|| "empty request".to_owned())?;
    let mut parts = request_line.split(' ');
    let (method, path, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(p), Some(v), None) if !m.is_empty() && p.starts_with('/') => (m, p, v),
        _ => return Err(format!("bad request line {request_line:?}")),
    };
    if !version.starts_with("HTTP/1.") {
        return Err(format!("bad version {version:?}"));
    }
    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let (k, v) = line
            .split_once(':')
            .ok_or_else(|| format!("bad header {line:?}"))?;
        headers.push((k.trim().to_ascii_lowercase(), v.trim().to_owned()));
    }
    Ok((method.to_owned(), path.to_owned(), headers))
}

fn parse_content_length(headers: &[(String, String)]) -> Result<usize, String> {
    let content_length = headers
        .iter()
        .find(|(k, _)| k == "content-length")
        .map(|(_, v)| {
            v.parse::<usize>()
                .map_err(|_| format!("bad content-length {v:?}"))
        })
        .transpose()?
        .unwrap_or(0);
    if content_length > MAX_BODY_BYTES {
        return Err("request body too large".into());
    }
    Ok(content_length)
}

fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// One response to write. Always JSON-bodied (the API speaks nothing
/// else). `Clone` so a single-flight error can answer every waiter.
#[derive(Debug, Clone)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// JSON body text.
    pub body: String,
    /// Optional `Retry-After` header (seconds) — set on 503 rejections.
    pub retry_after_s: Option<u64>,
    /// Whether to advertise and perform connection close.
    pub close: bool,
}

impl Response {
    /// A JSON response with `status`.
    #[must_use]
    pub fn json(status: u16, body: String) -> Self {
        Self {
            status,
            body,
            retry_after_s: None,
            close: false,
        }
    }

    /// A JSON error response `{"error": message}`.
    #[must_use]
    pub fn error(status: u16, message: &str) -> Self {
        let mut o = hecmix_obs::json::Object::new();
        o.str("error", message);
        Self::json(status, o.finish())
    }

    /// Serialize to one contiguous wire buffer (status line + headers +
    /// body). The event loop writes this incrementally as the socket
    /// accepts bytes.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = String::with_capacity(self.body.len() + 128);
        out.push_str(&format!(
            "HTTP/1.1 {} {}\r\n",
            self.status,
            status_text(self.status)
        ));
        out.push_str("Content-Type: application/json\r\n");
        out.push_str(&format!("Content-Length: {}\r\n", self.body.len()));
        if let Some(s) = self.retry_after_s {
            out.push_str(&format!("Retry-After: {s}\r\n"));
        }
        out.push_str(if self.close {
            "Connection: close\r\n"
        } else {
            "Connection: keep-alive\r\n"
        });
        out.push_str("\r\n");
        out.push_str(&self.body);
        out.into_bytes()
    }

    /// Serialize and send the whole response as a single `write_all`
    /// (blocking; used for admission rejections and by tests).
    ///
    /// # Errors
    /// Propagates the underlying socket error.
    pub fn write_to(&self, stream: &mut TcpStream) -> io::Result<()> {
        stream.write_all(&self.to_bytes())?;
        stream.flush()
    }
}

/// Reason phrase for the status codes the daemon emits.
#[must_use]
pub fn status_text(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        422 => "Unprocessable Entity",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// A parsed client-side response: status, lowercased headers, body.
pub type ClientResponse = (u16, Vec<(String, String)>, Vec<u8>);

/// Client-side half: read one response, returning `(status, headers,
/// body)`. Used by the load generator and the integration tests.
///
/// # Errors
/// I/O errors and malformed responses surface as `io::Error`.
pub fn read_response(stream: &mut TcpStream) -> io::Result<ClientResponse> {
    let bad = |m: &str| io::Error::new(io::ErrorKind::InvalidData, m.to_owned());
    let mut buf: Vec<u8> = Vec::with_capacity(1024);
    let mut chunk = [0u8; 4096];
    let head_end = loop {
        if let Some(pos) = find_head_end(&buf) {
            break pos;
        }
        if buf.len() > MAX_HEAD_BYTES {
            return Err(bad("response head too large"));
        }
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(bad("EOF inside response head"));
        }
        buf.extend_from_slice(&chunk[..n]);
    };
    let head =
        std::str::from_utf8(&buf[..head_end]).map_err(|_| bad("response head is not UTF-8"))?;
    let mut lines = head.split("\r\n");
    let status_line = lines.next().ok_or_else(|| bad("empty response"))?;
    let status: u16 = status_line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("bad status line"))?;
    let mut headers = Vec::new();
    for line in lines {
        if let Some((k, v)) = line.split_once(':') {
            headers.push((k.trim().to_ascii_lowercase(), v.trim().to_owned()));
        }
    }
    let content_length = headers
        .iter()
        .find(|(k, _)| k == "content-length")
        .and_then(|(_, v)| v.parse::<usize>().ok())
        .unwrap_or(0);
    let mut body = buf[head_end + 4..].to_vec();
    while body.len() < content_length {
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(bad("EOF inside response body"));
        }
        body.extend_from_slice(&chunk[..n]);
    }
    body.truncate(content_length);
    Ok((status, headers, body))
}

/// Format a request the way the load generator sends them.
#[must_use]
pub fn format_request(method: &str, path: &str, body: &str) -> String {
    format!(
        "{method} {path} HTTP/1.1\r\nHost: hecmix\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn try_parse_is_incremental_over_arbitrary_splits() {
        let wire = format_request("POST", "/plan", r#"{"workload":"ep"}"#).into_bytes();
        // Feeding any prefix must yield None; the full buffer must parse.
        for cut in 0..wire.len() {
            assert!(
                try_parse(&wire[..cut])
                    .expect("prefix never malformed")
                    .is_none(),
                "prefix of {cut} bytes parsed early"
            );
        }
        let (req, consumed) = try_parse(&wire)
            .expect("well-formed")
            .expect("complete request");
        assert_eq!(consumed, wire.len());
        assert_eq!((req.method.as_str(), req.path.as_str()), ("POST", "/plan"));
        assert_eq!(req.body, br#"{"workload":"ep"}"#);
    }

    #[test]
    fn try_parse_leaves_pipelined_bytes_for_the_next_call() {
        let mut wire = format_request("GET", "/healthz", "").into_bytes();
        let second = format_request("GET", "/statz", "").into_bytes();
        wire.extend_from_slice(&second);
        let (req, consumed) = try_parse(&wire).expect("ok").expect("first");
        assert_eq!(req.path, "/healthz");
        let (req2, consumed2) = try_parse(&wire[consumed..]).expect("ok").expect("second");
        assert_eq!(req2.path, "/statz");
        assert_eq!(consumed + consumed2, wire.len());
    }

    #[test]
    fn try_parse_rejects_hopeless_buffers() {
        assert!(
            try_parse(b"NOT A REQUEST\r\n\r\n").is_err(),
            "bad request line"
        );
        let oversized = vec![b'x'; MAX_HEAD_BYTES + 1];
        assert!(try_parse(&oversized).is_err(), "unbounded head");
        let huge_body = format!(
            "POST /plan HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        assert!(try_parse(huge_body.as_bytes()).is_err(), "oversized body");
    }

    #[test]
    fn response_bytes_round_trip_headers() {
        let mut resp = Response::error(503, "busy");
        resp.retry_after_s = Some(2);
        resp.close = true;
        let text = String::from_utf8(resp.to_bytes()).expect("ascii");
        assert!(text.starts_with("HTTP/1.1 503 Service Unavailable\r\n"));
        assert!(text.contains("Retry-After: 2\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.ends_with("{\"error\":\"busy\"}"));
    }
}
