//! The one HTTP/1.1 layer of the daemon, the gateway and their clients.
//!
//! Not a general HTTP implementation: `Content-Length`-framed bodies,
//! keep-alive unless `Connection: close` (or HTTP/1.0 without
//! `Connection: keep-alive`), and single-buffer responses, so a response
//! is atomic from the peer's perspective. Requests and responses share one
//! head framer: start line, lowercased headers, one `Content-Length` rule
//! and the [`MAX_HEAD_BYTES`]/[`MAX_BODY_BYTES`] caps. A head that breaks a
//! rule is an error on either side, never skipped.
//!
//! The server parses **incrementally** ([`try_parse`]): the event loop asks
//! whether its per-connection buffer holds a complete request yet, so no
//! thread blocks on a slow peer. Clients block: [`dial`] connects,
//! [`exchange`] sends a request and reads its [`Answer`], and
//! [`read_answer`] reads the answer to a request written earlier. The
//! gateway, the load generator and the integration tests all use them;
//! [`read_response`] is the same reader returning every header.

use std::fmt::Write as _;
use std::io::{self, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Upper bound on a message head (start line + headers + blank line).
pub const MAX_HEAD_BYTES: usize = 16 * 1024;
/// Upper bound on a message body.
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
    /// See [`Request::wants_close`].
    close: bool,
}

impl Request {
    /// Whether the connection should close after this request
    /// (`Connection: close`, or an HTTP/1.0 peer without keep-alive).
    #[must_use]
    pub fn wants_close(&self) -> bool {
        self.close
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
    let Some(((method, path), head)) = frame(buf, "request", request_line)? else {
        return Ok(None);
    };
    let consumed = head.len + head.body_len;
    if buf.len() < consumed {
        return Ok(None);
    }
    Ok(Some((
        Request {
            method: method.to_owned(),
            path: path.to_owned(),
            headers: head.headers,
            body: buf[head.len..consumed].to_vec(),
            close: head.close,
        },
        consumed,
    )))
}

/// A framed message head.
struct Head {
    /// Lowercased names, trimmed values, in arrival order.
    headers: Vec<(String, String)>,
    /// Bytes of the head, blank line included.
    len: usize,
    /// Bytes of the body, from `Content-Length`.
    body_len: usize,
    /// Whether the connection closes after this message.
    close: bool,
}

/// Frame the message head at the front of `buf`; `Ok(None)` until its
/// blank line has arrived. `start_line` splits the first line into what
/// the caller keeps and the version; `noun` names the message in errors.
/// However the bytes were split, a head past [`MAX_HEAD_BYTES`] or a body
/// past [`MAX_BODY_BYTES`] is an error, so a message never needs more.
fn frame<'a, T>(
    buf: &'a [u8],
    noun: &str,
    start_line: impl FnOnce(&'a str) -> Result<(T, &'a str), String>,
) -> Result<Option<(T, Head)>, String> {
    let scan = &buf[..buf.len().min(MAX_HEAD_BYTES)];
    let end = match scan.windows(4).position(|w| w == b"\r\n\r\n") {
        Some(end) => end,
        None if buf.len() < MAX_HEAD_BYTES => return Ok(None),
        None => return Err(format!("{noun} head too large")),
    };
    let text = std::str::from_utf8(&buf[..end]).map_err(|_| format!("{noun} head is not UTF-8"))?;
    let mut lines = text.split("\r\n");
    let (start, version) = start_line(lines.next().unwrap_or_default())?;
    if !version.starts_with("HTTP/1.") {
        return Err(format!("bad version {version:?}"));
    }
    let mut headers = Vec::new();
    for line in lines {
        let (k, v) = line
            .split_once(':')
            .ok_or_else(|| format!("bad header {line:?}"))?;
        headers.push((k.trim().to_ascii_lowercase(), v.trim().to_owned()));
    }
    let body_len = match header(&headers, "content-length") {
        Some(v) => v
            .parse::<usize>()
            .map_err(|_| format!("bad content-length {v:?}"))?,
        None => 0,
    };
    if body_len > MAX_BODY_BYTES {
        return Err(format!("{noun} body too large"));
    }
    let connection =
        |token: &str| header(&headers, "connection").is_some_and(|v| v.eq_ignore_ascii_case(token));
    let close = connection("close") || (version == "HTTP/1.0" && !connection("keep-alive"));
    let head = Head {
        len: end + 4,
        body_len,
        close,
        headers,
    };
    Ok(Some((start, head)))
}

/// `METHOD /path VERSION`, three fields split on single spaces.
fn request_line(line: &str) -> Result<((&str, &str), &str), String> {
    let mut parts = line.split(' ');
    match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(p), Some(v), None) if !m.is_empty() && p.starts_with('/') => Ok(((m, p), v)),
        _ => Err(format!("bad request line {line:?}")),
    }
}

/// `VERSION STATUS REASON`; the reason phrase may hold spaces.
fn status_line(line: &str) -> Result<(u16, &str), String> {
    let mut parts = line.splitn(3, ' ');
    match (parts.next(), parts.next().and_then(|s| s.parse().ok())) {
        (Some(version), Some(status)) => Ok((status, version)),
        _ => Err(format!("bad status line {line:?}")),
    }
}

/// First value of the header with lowercased name `name`.
fn header<'h>(headers: &'h [(String, String)], name: &str) -> Option<&'h str> {
    let (_, value) = headers.iter().find(|(k, _)| k == name)?;
    Some(value)
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
        let _ = write!(
            out,
            "HTTP/1.1 {} {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\n",
            self.status,
            status_text(self.status),
            self.body.len()
        );
        if let Some(s) = self.retry_after_s {
            let _ = write!(out, "Retry-After: {s}\r\n");
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

/// One response as a client acts on it, decoded once.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Answer {
    /// HTTP status code.
    pub status: u16,
    /// `Retry-After` in seconds, when present and numeric.
    pub retry_after_s: Option<u64>,
    /// Whether the peer closes the connection after this response.
    pub close: bool,
    /// Body bytes.
    pub body: Vec<u8>,
}

/// Connect to `addr` with Nagle off; connecting and each blocking read may
/// take at most `timeout` (at least 1 ms: the OS refuses a zero timeout).
///
/// # Errors
/// Resolution and connect errors (the last, if none of `addr`'s
/// addresses accepts).
pub fn dial(addr: impl ToSocketAddrs, timeout: Duration) -> io::Result<TcpStream> {
    let timeout = timeout.max(Duration::from_millis(1));
    let mut last = io::Error::new(io::ErrorKind::InvalidInput, "address resolves to nothing");
    for addr in addr.to_socket_addrs()? {
        match TcpStream::connect_timeout(&addr, timeout) {
            Ok(conn) => {
                conn.set_nodelay(true)?;
                conn.set_read_timeout(Some(timeout))?;
                return Ok(conn);
            }
            Err(e) => last = e,
        }
    }
    Err(last)
}

/// Send one request on `conn` and read its answer.
///
/// # Errors
/// Transport errors and malformed responses.
pub fn exchange(conn: &mut TcpStream, method: &str, path: &str, body: &str) -> io::Result<Answer> {
    conn.write_all(format_request(method, path, body).as_bytes())?;
    read_answer(conn)
}

/// Read one response from `stream` and decode it.
///
/// # Errors
/// Transport errors, and responses the framer rejects (`InvalidData`).
pub fn read_answer(stream: &mut impl Read) -> io::Result<Answer> {
    let (status, head, body) = read_message(stream)?;
    Ok(Answer {
        status,
        retry_after_s: header(&head.headers, "retry-after").and_then(|v| v.parse().ok()),
        close: head.close,
        body,
    })
}

/// A parsed client-side response: status, lowercased headers, body.
pub type ClientResponse = (u16, Vec<(String, String)>, Vec<u8>);

/// [`read_answer`]'s reader, returning `(status, headers, body)`.
///
/// # Errors
/// Transport errors, and responses the framer rejects (`InvalidData`).
pub fn read_response(stream: &mut TcpStream) -> io::Result<ClientResponse> {
    read_message(stream).map(|(status, head, body)| (status, head.headers, body))
}

/// Frame a response head from reads of at most 4 KiB, then read exactly the
/// rest of its body. Bytes past it are dropped: clients do not pipeline.
fn read_message(stream: &mut impl Read) -> io::Result<(u16, Head, Vec<u8>)> {
    let bad = |m: String| io::Error::new(io::ErrorKind::InvalidData, m);
    let mut buf = Vec::with_capacity(4096);
    let (status, head) = loop {
        if let Some(framed) = frame(&buf, "response", status_line).map_err(bad)? {
            break framed;
        }
        let len = buf.len();
        buf.resize((len + 4096).min(MAX_HEAD_BYTES), 0);
        let n = stream.read(&mut buf[len..])?;
        buf.truncate(len + n);
        if n == 0 {
            return Err(bad("EOF inside response head".into()));
        }
    };
    let end = head.len + head.body_len;
    let mut have = buf.len();
    buf.resize(end, 0);
    while have < end {
        match stream.read(&mut buf[have..])? {
            0 => return Err(bad("EOF inside response body".into())),
            n => have += n,
        }
    }
    buf.drain(..head.len);
    Ok((status, head, buf))
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
    use std::net::TcpListener;

    use super::*;
    use crate::router::splitmix64;

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

    #[test]
    fn try_parse_error_messages_are_pinned() {
        let huge = format!(
            "POST /plan HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        let long_head = format!(
            "GET / HTTP/1.1\r\nX: {}\r\n\r\n",
            "y".repeat(MAX_HEAD_BYTES)
        );
        let cases: [(&[u8], &str); 8] = [
            (&[b'x'; MAX_HEAD_BYTES], "request head too large"),
            (long_head.as_bytes(), "request head too large"),
            (b"GET /\xff HTTP/1.1\r\n\r\n", "request head is not UTF-8"),
            (
                b"GET  / HTTP/1.1\r\n\r\n",
                r#"bad request line "GET  / HTTP/1.1""#,
            ),
            (b"GET / HTTP/2\r\n\r\n", r#"bad version "HTTP/2""#),
            (
                b"GET / HTTP/1.1\r\nno colon\r\n\r\n",
                r#"bad header "no colon""#,
            ),
            (
                b"GET / HTTP/1.1\r\ncontent-length: -1\r\n\r\n",
                r#"bad content-length "-1""#,
            ),
            (huge.as_bytes(), "request body too large"),
        ];
        for (wire, message) in cases {
            assert_eq!(try_parse(wire).err().as_deref(), Some(message));
        }
    }

    #[test]
    fn http10_closes_unless_it_asks_for_keep_alive() {
        let close = |wire: &str| try_parse(wire.as_bytes()).unwrap().unwrap().0.wants_close();
        assert!(close("GET /healthz HTTP/1.0\r\n\r\n"));
        assert!(!close(
            "GET /healthz HTTP/1.0\r\nConnection: Keep-Alive\r\n\r\n"
        ));
        assert!(close("GET /healthz HTTP/1.0\r\nConnection: close\r\n\r\n"));
        assert!(!close("GET /healthz HTTP/1.1\r\n\r\n"));
        assert!(close("GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n"));
    }

    /// Requests as `format_request` sends them, and responses as the
    /// daemon writes them: reason phrases with spaces, `Retry-After`,
    /// close, and bodies that hold a blank line or multibyte text.
    fn corpus() -> (Vec<(&'static str, &'static str, String)>, Vec<Response>) {
        let requests = vec![
            (
                "POST",
                "/plan",
                r#"{"workload":"ep","arm":8,"amd":4,"deadline_ms":500}"#.to_owned(),
            ),
            ("GET", "/healthz", String::new()),
            (
                "POST",
                "/submit",
                format!(r#"{{"workload":"ep","note":"{}"}}"#, "é\r\n\r\n".repeat(40)),
            ),
        ];
        let mut shed = Response::error(503, "compute queue full");
        shed.retry_after_s = Some(7);
        shed.close = true;
        let responses = vec![
            Response::json(200, r#"{"ok":true,"workloads":1}"#.to_owned()),
            Response::error(405, "method not allowed"),
            Response::error(422, "deadline é\r\n\r\n"),
            Response::json(200, format!(r#"{{"text":"{}"}}"#, "ü\r\n\r\n".repeat(1500))),
            Response::json(299, String::new()),
            shed,
        ];
        (requests, responses)
    }

    fn answer_of(resp: &Response) -> Answer {
        Answer {
            status: resp.status,
            retry_after_s: resp.retry_after_s,
            close: resp.close,
            body: resp.body.clone().into_bytes(),
        }
    }

    #[test]
    fn every_message_round_trips_from_format_to_parse() {
        let (requests, responses) = corpus();
        for (method, path, body) in requests {
            let wire = format_request(method, path, &body).into_bytes();
            let (req, consumed) = try_parse(&wire).expect("well-formed").expect("complete");
            assert_eq!(consumed, wire.len());
            assert_eq!((req.method.as_str(), req.path.as_str()), (method, path));
            assert_eq!(req.body, body.as_bytes());
            assert_eq!(req.headers[0], ("host".to_owned(), "hecmix".to_owned()));
            assert!(!req.wants_close());
        }
        for resp in responses {
            let wire = resp.to_bytes();
            assert_eq!(
                read_answer(&mut wire.as_slice()).expect("answer"),
                answer_of(&resp)
            );
        }
    }

    #[test]
    fn a_response_is_read_only_once_complete_over_arbitrary_splits() {
        let (_, responses) = corpus();
        let resp = &responses[5];
        let wire = resp.to_bytes();
        for cut in 0..wire.len() {
            assert!(
                read_answer(&mut &wire[..cut]).is_err(),
                "a prefix of {cut} bytes was read as an answer"
            );
            let mut split = (&wire[..cut]).chain(&wire[cut..]);
            assert_eq!(
                read_answer(&mut split).expect("split answer"),
                answer_of(resp),
                "cut {cut}"
            );
        }
    }

    /// What [`read_response`] makes of `raw`, sent over loopback by a
    /// peer that keeps its end open.
    fn read_raw(raw: &[u8]) -> io::Result<ClientResponse> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let mut client = dial(listener.local_addr()?, Duration::from_secs(5))?;
        let (mut server, _) = listener.accept()?;
        server.write_all(raw)?;
        read_response(&mut client)
    }

    #[test]
    fn the_reader_rejects_what_the_framer_rejects() {
        let bad_length = read_raw(b"HTTP/1.1 200 OK\r\nContent-Length: abc\r\n\r\n{}");
        let no_colon = read_raw(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nno colon\r\n\r\n{}");
        let huge = format!(
            "HTTP/1.1 200 OK\r\nContent-Length: {}\r\n\r\n{{",
            MAX_BODY_BYTES + 1
        );
        let too_long = read_raw(huge.as_bytes());
        for (result, message) in [
            (bad_length, r#"bad content-length "abc""#),
            (no_colon, r#"bad header "no colon""#),
            (too_long, "response body too large"),
        ] {
            let err = result.expect_err(message);
            assert_eq!(
                (err.kind(), err.to_string()),
                (io::ErrorKind::InvalidData, message.to_owned())
            );
        }
        let (status, headers, body) = read_raw(
            b"HTTP/1.1 503 Service Unavailable\r\nRetry-After: 1\r\nContent-Length: 2\r\n\r\n{}",
        )
        .expect("well-formed");
        assert_eq!((status, body.as_slice()), (503, &b"{}"[..]));
        assert_eq!(headers[0], ("retry-after".to_owned(), "1".to_owned()));
    }

    #[test]
    fn mutated_messages_never_panic_or_outgrow_the_caps() {
        const CAP: usize = MAX_HEAD_BYTES + MAX_BODY_BYTES;
        let (requests, responses) = corpus();
        let seeds: Vec<Vec<u8>> = requests
            .iter()
            .map(|(m, p, b)| format_request(m, p, b).into_bytes())
            .chain(responses.iter().map(Response::to_bytes))
            .collect();
        let filler = vec![b'x'; CAP];
        let mut state = 0x4845_434d_4958_u64;
        let mut pick = |n: usize| {
            state = splitmix64(state);
            (state % n.max(1) as u64) as usize
        };
        for _ in 0..3000 {
            let mut bytes = seeds[pick(seeds.len())].clone();
            for _ in 0..=pick(3) {
                let at = pick(bytes.len() + 1);
                match pick(4) {
                    0 if at < bytes.len() => bytes[at] ^= 1 << pick(8),
                    1 => bytes.truncate(at),
                    2 => {
                        let donor = &seeds[pick(seeds.len())];
                        let from = pick(donor.len());
                        let to = from + pick(donor.len() - from + 1);
                        bytes.splice(at..at, donor[from..to].iter().copied());
                    }
                    _ => {
                        let digits = (splitmix64(at as u64) >> pick(64)).to_string();
                        bytes.splice(at..at, digits.bytes());
                    }
                }
            }
            // A request the framer still waits on completes or fails
            // within the caps.
            if let Ok(None) = try_parse(&bytes) {
                let mut padded = filler.clone();
                padded[..bytes.len()].copy_from_slice(&bytes);
                assert!(
                    !matches!(try_parse(&padded), Ok(None)),
                    "{:?} waits past the caps",
                    String::from_utf8_lossy(&bytes)
                );
            }
            // The response reader takes no byte past the caps, however
            // much its peer sends.
            let mut stream = bytes
                .as_slice()
                .chain(io::repeat(b'x'))
                .take(CAP as u64 + 1);
            let _ = read_answer(&mut stream);
            assert!(
                stream.limit() > 0,
                "{:?} read past the caps",
                String::from_utf8_lossy(&bytes)
            );
        }
    }
}
