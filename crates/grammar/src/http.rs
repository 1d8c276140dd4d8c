//! HTTP/1.1 message grammar.
//!
//! HTTP is a text protocol with an LL(1)-parsable line structure, so rather
//! than interpreting a binary unit grammar the FLICK framework ships a
//! specialised reusable codec (the paper notes that reusable grammars for
//! common protocols such as HTTP and Memcached are provided by the
//! framework). The codec parses both requests and responses, supports
//! incremental parsing (a partial header or body yields
//! [`ParseOutcome::Incomplete`]) and keeps the raw bytes of each message so
//! that the HTTP load balancer can forward traffic without re-serialisation.
//! Under a projection without `body`, a partial body does not hold the
//! message back: the complete head is reported with the body bytes still
//! unread ([`Message::unread_body`]), for the runtime to forward them
//! without reading them.

use crate::error::GrammarError;
use crate::limits::{MAX_BODY_BYTES, MAX_FIELDS, MAX_HEAD_BYTES};
use crate::message::{Message, MsgValue};
use crate::projection::Projection;
use crate::{ParseOutcome, WireCodec};
use bytes::Bytes;

/// Unit name used for parsed HTTP requests.
pub const REQUEST_UNIT: &str = "http_request";
/// Unit name used for parsed HTTP responses.
pub const RESPONSE_UNIT: &str = "http_response";

/// A [`WireCodec`] for HTTP/1.1 requests and responses.
#[derive(Debug, Clone, Default)]
pub struct HttpCodec;

impl HttpCodec {
    /// Creates the codec.
    pub fn new() -> Self {
        HttpCodec
    }
}

/// Headers that frame a message or route it; a `Connection` header that
/// names one is malformed.
const FRAMING_HEADERS: [&str; 3] = ["content-length", "transfer-encoding", "host"];

/// Finds the end of the header block (the index just past `\r\n\r\n`).
fn header_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n").map(|p| p + 4)
}

/// Validates one `Content-Length` value strictly: non-empty ASCII digits
/// only. `str::parse::<usize>` alone would accept a leading `+`, and
/// `trim` has already eaten surrounding whitespace — both shapes are
/// ambiguity vectors across parser implementations, so they are rejected
/// rather than normalised.
fn parse_content_length(value: &str) -> Result<usize, GrammarError> {
    if value.is_empty() || !value.bytes().all(|b| b.is_ascii_digit()) {
        return Err(GrammarError::malformed(
            "http",
            format!("invalid Content-Length {value:?}"),
        ));
    }
    value
        .parse()
        .map_err(|_| GrammarError::malformed("http", format!("invalid Content-Length {value:?}")))
}

/// Reads the header lines of `head` (its first line is the request or
/// status line), counting them against `MAX_FIELDS`. `connection` and
/// `content_length` are set whatever the projection — forwarding and
/// reuse read them, as they read the head's `version` — and the `headers`
/// text only when it is projected.
fn parse_headers(
    head: &str,
    message: &mut Message,
    projection: Option<&Projection>,
) -> Result<usize, GrammarError> {
    let mut content_length: Option<usize> = None;
    let (_, block) = head.split_once("\r\n").unwrap_or((head, ""));
    for (count, line) in block.split("\r\n").filter(|l| !l.is_empty()).enumerate() {
        if count >= MAX_FIELDS {
            return Err(GrammarError::malformed(
                "http",
                format!("more than {MAX_FIELDS} header lines"),
            ));
        }
        let (name, value) = line.split_once(':').ok_or_else(|| {
            GrammarError::malformed("http", format!("header line without colon: {line:?}"))
        })?;
        let name = name.trim();
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            // Duplicate Content-Length headers are the classic
            // request-smuggling ambiguity: two parsers that disagree on
            // which one wins see two different message boundaries. Reject
            // outright rather than pick one.
            if content_length.is_some() {
                return Err(GrammarError::malformed(
                    "http",
                    "duplicate Content-Length header",
                ));
            }
            let parsed = parse_content_length(value)?;
            if parsed > MAX_BODY_BYTES {
                return Err(GrammarError::malformed(
                    "http",
                    format!(
                        "Content-Length {parsed} exceeds the {MAX_BODY_BYTES}-byte parse limit"
                    ),
                ));
            }
            content_length = Some(parsed);
        }
        if name.eq_ignore_ascii_case("host") && projection.map_or(true, |p| p.requires("host")) {
            message.set_parsed("host", MsgValue::Str(value.to_string()));
        }
        // Whatever the projection: connection management is framing, like
        // `content_length` — forwarding strips the header and decides reuse
        // by it.
        if name.eq_ignore_ascii_case("connection") {
            // Forwarding strips every header `Connection` names. Naming a
            // framing header would strip it from the forwarded head while
            // the body still follows, and the next hop would frame the
            // stream differently (request smuggling). Reject outright.
            if let Some(framing) = value.split(',').map(str::trim).find(|option| {
                FRAMING_HEADERS
                    .iter()
                    .any(|h| h.eq_ignore_ascii_case(option))
            }) {
                return Err(GrammarError::malformed(
                    "http",
                    format!("Connection names the framing header {framing:?}"),
                ));
            }
            message.set_parsed("connection", MsgValue::Str(value.to_ascii_lowercase()));
        }
    }
    let content_length = content_length.unwrap_or(0);
    if projection.map_or(true, |p| p.requires("headers")) {
        // The block holds no empty line: the head ends at the first one.
        message.set_parsed("headers", MsgValue::Str(block.to_string()));
    }
    message.set_parsed("content_length", MsgValue::UInt(content_length as u64));
    Ok(content_length)
}

impl WireCodec for HttpCodec {
    fn name(&self) -> &str {
        "http"
    }

    /// The message's raw bytes and its body are slices of `buf`'s
    /// allocation — no copy on the ingest path.
    fn parse_bytes(
        &self,
        buf: &Bytes,
        projection: Option<&Projection>,
    ) -> Result<ParseOutcome, GrammarError> {
        let Some(head_len) = header_end(buf) else {
            // Without the blank-line terminator the head is incomplete —
            // but only up to the head limit. Past it the peer is either
            // broken or hostile (a slowloris trickling header bytes
            // forever), and the buffer must not keep growing.
            if buf.len() > MAX_HEAD_BYTES {
                return Err(GrammarError::malformed(
                    "http",
                    format!(
                        "header block exceeds the {MAX_HEAD_BYTES}-byte parse limit without \
                         terminating"
                    ),
                ));
            }
            return Ok(ParseOutcome::Incomplete);
        };
        if head_len > MAX_HEAD_BYTES {
            return Err(GrammarError::malformed(
                "http",
                format!("header block of {head_len} bytes exceeds the {MAX_HEAD_BYTES}-byte parse limit"),
            ));
        }
        let head = std::str::from_utf8(&buf[..head_len - 4])
            .map_err(|_| GrammarError::malformed("http", "header block is not valid UTF-8"))?;
        let first_line = head.split("\r\n").next().unwrap_or_default();
        let mut parts = first_line.split_whitespace();
        let is_response = first_line.starts_with("HTTP/");
        let mut message = Message::with_capacity(
            if is_response {
                RESPONSE_UNIT
            } else {
                REQUEST_UNIT
            },
            8,
        );
        if is_response {
            let version = parts.next().unwrap_or("HTTP/1.1");
            let status: u64 = parts
                .next()
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| GrammarError::malformed("http", "missing status code"))?;
            let reason = parts.collect::<Vec<_>>().join(" ");
            message.set_parsed("version", MsgValue::Str(version.to_string()));
            message.set_parsed("status", MsgValue::UInt(status));
            message.set_parsed("reason", MsgValue::Str(reason));
        } else {
            let method = parts
                .next()
                .ok_or_else(|| GrammarError::malformed("http", "missing request method"))?;
            let path = parts
                .next()
                .ok_or_else(|| GrammarError::malformed("http", "missing request path"))?;
            let version = parts.next().unwrap_or("HTTP/1.1");
            if !matches!(
                method,
                "GET" | "HEAD" | "POST" | "PUT" | "DELETE" | "OPTIONS" | "PATCH"
            ) {
                return Err(GrammarError::malformed(
                    "http",
                    format!("unknown method {method:?}"),
                ));
            }
            message.set_parsed("method", MsgValue::Str(method.to_string()));
            message.set_parsed("path", MsgValue::Str(path.to_string()));
            message.set_parsed("version", MsgValue::Str(version.to_string()));
        }
        let content_length = parse_headers(head, &mut message, projection)?;
        // checked: a Content-Length near usize::MAX would wrap this sum in
        // release builds and slice out of bounds.
        let total = head_len.checked_add(content_length).ok_or_else(|| {
            GrammarError::malformed("http", "Content-Length overflows the frame size")
        })?;
        let reads_body = || projection.map_or(true, |p| p.requires("body"));
        if buf.len() < total {
            if reads_body() {
                return Ok(ParseOutcome::Incomplete);
            }
            // Nobody reads this body, so nothing waits for it: the head is
            // the message, with the buffered body prefix as the tail of
            // its raw bytes and the rest left in the connection for the
            // forwarder to move (`Message::unread_body`).
            message.set_raw(buf.clone());
            message.set_unread_body((total - buf.len()) as u64);
            return Ok(ParseOutcome::Complete {
                message,
                consumed: buf.len(),
            });
        }
        if content_length > 0 && reads_body() {
            message.set_parsed("body", MsgValue::Bytes(buf.slice(head_len..total)));
        }
        message.set_raw(buf.slice(..total));
        Ok(ParseOutcome::Complete {
            message,
            consumed: total,
        })
    }

    /// Pass-through: the unmodified raw wire bytes leave as one shared
    /// segment — nothing appended, nothing copied (the LB forwarding path
    /// stays zero-copy all the way into `writev`). A request that names
    /// connection options leaves as its rewritten head plus its body,
    /// still shared. A built message's head is written to `out` and a
    /// non-empty byte body comes back as the shared tail.
    fn serialize_parts(
        &self,
        msg: &Message,
        out: &mut Vec<u8>,
    ) -> Result<Option<Bytes>, GrammarError> {
        if let Some(raw) = msg.raw() {
            return Ok(match strip_hop_by_hop(msg, raw, out) {
                Some(body) => Some(raw.slice(body..)).filter(|body| !body.is_empty()),
                None => Some(raw.clone()),
            });
        }
        match msg.get("body") {
            Some(MsgValue::Bytes(body)) if !body.is_empty() => {
                self.serialize_head(msg, out, body.len())?;
                Ok(Some(body.clone()))
            }
            body => {
                let body = body.and_then(MsgValue::as_bytes).unwrap_or(&[]);
                self.serialize_head(msg, out, body.len())?;
                out.extend_from_slice(body);
                Ok(None)
            }
        }
    }

    /// HTTP/1.1 on both messages and no `Connection: close` on the
    /// response. A request's own `Connection` header never reaches the
    /// back-end (see [`WireCodec::serialize`]), so only its version counts.
    fn keeps_alive(&self, msg: &Message) -> bool {
        msg.str_field("version") == Some("HTTP/1.1")
            && (msg.unit == REQUEST_UNIT || !wants_close(msg))
    }
}

/// The name of a header line (`Name: value`).
fn header_name(line: &str) -> &str {
    line.split(':').next().unwrap_or_default().trim()
}

/// The header lines of a head's header block that are forwarded. For a
/// request that is every line but `Connection` and the headers it names —
/// those are hop-by-hop (RFC 9110 §7.6.1) and belong to the client's
/// connection, not to the one the request is forwarded on. A response
/// keeps every line.
fn forwarded_headers(block: &str, request: bool) -> impl Iterator<Item = &str> {
    let lines = block.split("\r\n").filter(|line| !line.is_empty());
    let mut hop_by_hop: Vec<&str> = Vec::new();
    if request {
        for line in lines.clone() {
            if header_name(line).eq_ignore_ascii_case("connection") {
                let options = line.split_once(':').map_or("", |(_, value)| value);
                hop_by_hop.extend(options.split(',').map(str::trim));
                hop_by_hop.push("connection");
            }
        }
    }
    lines.filter(move |line| {
        let name = header_name(line);
        !hop_by_hop.iter().any(|hop| hop.eq_ignore_ascii_case(name))
    })
}

/// Writes a parsed request's head without its hop-by-hop headers to `out`
/// and returns where its body starts in `raw`. `None`, and nothing
/// written, for a response or a request without a `Connection` header:
/// those are forwarded as their raw bytes.
fn strip_hop_by_hop(msg: &Message, raw: &[u8], out: &mut Vec<u8>) -> Option<usize> {
    if msg.unit != REQUEST_UNIT || msg.get("connection").is_none() {
        return None;
    }
    let head_len = header_end(raw)?;
    // The parser accepted this head, so it is UTF-8 with a request line.
    let head = std::str::from_utf8(&raw[..head_len - 4]).ok()?;
    let (request_line, block) = head.split_once("\r\n").unwrap_or((head, ""));
    out.extend_from_slice(request_line.as_bytes());
    out.extend_from_slice(b"\r\n");
    for line in forwarded_headers(block, true) {
        out.extend_from_slice(line.as_bytes());
        out.extend_from_slice(b"\r\n");
    }
    out.extend_from_slice(b"\r\n");
    Some(head_len)
}

impl HttpCodec {
    /// Serialises everything up to (and including) the blank line — the
    /// status/request line and headers — leaving the body to
    /// [`WireCodec::serialize_parts`], which either appends it or ships it
    /// as a shared vectored segment.
    fn serialize_head(
        &self,
        msg: &Message,
        out: &mut Vec<u8>,
        body_len: usize,
    ) -> Result<(), GrammarError> {
        let version = msg.str_field("version").unwrap_or("HTTP/1.1");
        if msg.unit == RESPONSE_UNIT {
            let status = msg.uint_field("status").unwrap_or(200);
            let reason = msg.str_field("reason").unwrap_or("OK");
            out.extend_from_slice(format!("{version} {status} {reason}\r\n").as_bytes());
        } else {
            let method = msg
                .str_field("method")
                .ok_or_else(|| GrammarError::MissingField {
                    unit: REQUEST_UNIT.into(),
                    field: "method".into(),
                })?;
            let path = msg
                .str_field("path")
                .ok_or_else(|| GrammarError::MissingField {
                    unit: REQUEST_UNIT.into(),
                    field: "path".into(),
                })?;
            out.extend_from_slice(format!("{method} {path} {version}\r\n").as_bytes());
        }
        let mut wrote_content_length = false;
        if let Some(headers) = msg.str_field("headers") {
            for line in forwarded_headers(headers, msg.unit == REQUEST_UNIT) {
                if line.to_ascii_lowercase().starts_with("content-length") {
                    wrote_content_length = true;
                    out.extend_from_slice(format!("Content-Length: {body_len}\r\n").as_bytes());
                } else {
                    out.extend_from_slice(line.as_bytes());
                    out.extend_from_slice(b"\r\n");
                }
            }
        } else if let Some(host) = msg.str_field("host") {
            out.extend_from_slice(format!("Host: {host}\r\n").as_bytes());
        }
        if !wrote_content_length && body_len > 0 {
            out.extend_from_slice(format!("Content-Length: {body_len}\r\n").as_bytes());
        } else if !wrote_content_length && msg.unit == RESPONSE_UNIT {
            out.extend_from_slice(b"Content-Length: 0\r\n");
        }
        out.extend_from_slice(b"\r\n");
        Ok(())
    }
}

/// Builds an HTTP GET request message.
pub fn get_request(path: &str, host: &str) -> Message {
    let mut m = Message::with_capacity(REQUEST_UNIT, 6);
    m.set("method", MsgValue::Str("GET".into()));
    m.set("path", MsgValue::Str(path.into()));
    m.set("version", MsgValue::Str("HTTP/1.1".into()));
    m.set("host", MsgValue::Str(host.into()));
    m
}

/// Builds an HTTP response message with the given status and body.
pub fn response(status: u64, body: &[u8]) -> Message {
    let mut m = Message::with_capacity(RESPONSE_UNIT, 6);
    m.set("status", MsgValue::UInt(status));
    m.set("reason", MsgValue::Str(reason_phrase(status).into()));
    m.set("version", MsgValue::Str("HTTP/1.1".into()));
    m.set("body", MsgValue::Bytes(Bytes::copy_from_slice(body)));
    m
}

/// The standard reason phrase for a handful of status codes.
pub fn reason_phrase(status: u64) -> &'static str {
    match status {
        200 => "OK",
        201 => "Created",
        204 => "No Content",
        301 => "Moved Permanently",
        302 => "Found",
        400 => "Bad Request",
        404 => "Not Found",
        500 => "Internal Server Error",
        502 => "Bad Gateway",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Returns `true` if the message asks for the connection to be closed
/// (`Connection: close`, or HTTP/1.0 without keep-alive).
pub fn wants_close(msg: &Message) -> bool {
    match msg.str_field("connection") {
        Some(c) => c.contains("close"),
        None => msg.str_field("version") == Some("HTTP/1.0"),
    }
}

/// The projection used by the HTTP load balancer: only the request line and
/// the connection-management headers are needed, not the body.
pub fn load_balancer_projection() -> Projection {
    Projection::of([
        "method",
        "path",
        "version",
        "host",
        "connection",
        "content_length",
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_ok(codec: &HttpCodec, buf: &[u8]) -> (Message, usize) {
        match codec.parse(buf, None).unwrap() {
            ParseOutcome::Complete { message, consumed } => (message, consumed),
            other => panic!("unexpected {other:?}"),
        }
    }

    /// The provided `serialize` writes byte-for-byte `out ++ tail` of
    /// `serialize_parts` in every shape: constructed response with a
    /// shared body, raw pass-through, and bodyless request.
    #[test]
    fn serialize_parts_matches_serialize() {
        let codec = HttpCodec::new();
        let cases = [
            response(200, b"hello body"),
            response(204, b""),
            get_request("/x", "example.org"),
            parse_ok(&codec, b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nhello").0,
        ];
        for msg in cases {
            let mut scalar = Vec::new();
            codec.serialize(&msg, &mut scalar).unwrap();
            let mut head = Vec::new();
            let tail = codec.serialize_parts(&msg, &mut head).unwrap();
            if let Some(tail) = tail {
                head.extend_from_slice(&tail);
            }
            assert_eq!(head, scalar, "parts diverge for {msg}");
        }
    }

    /// The pass-through fast path keeps the raw bytes as one shared
    /// segment and appends nothing.
    #[test]
    fn serialize_parts_passes_raw_through_as_the_tail() {
        let codec = HttpCodec::new();
        let wire = b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nhello";
        let (msg, _) = parse_ok(&codec, wire);
        let mut head = Vec::new();
        let tail = codec.serialize_parts(&msg, &mut head).unwrap().unwrap();
        assert!(head.is_empty());
        assert_eq!(&tail[..], &wire[..]);
    }

    #[test]
    fn parses_simple_get_request() {
        let codec = HttpCodec::new();
        let wire = b"GET /index.html HTTP/1.1\r\nHost: example.org\r\n\r\n";
        let (msg, consumed) = parse_ok(&codec, wire);
        assert_eq!(consumed, wire.len());
        assert_eq!(msg.unit, REQUEST_UNIT);
        assert_eq!(msg.str_field("method"), Some("GET"));
        assert_eq!(msg.str_field("path"), Some("/index.html"));
        assert_eq!(msg.str_field("host"), Some("example.org"));
        assert_eq!(msg.uint_field("content_length"), Some(0));
    }

    #[test]
    fn parses_response_with_body() {
        let codec = HttpCodec::new();
        let wire = b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nhello";
        let (msg, consumed) = parse_ok(&codec, wire);
        assert_eq!(consumed, wire.len());
        assert_eq!(msg.unit, RESPONSE_UNIT);
        assert_eq!(msg.uint_field("status"), Some(200));
        assert_eq!(msg.bytes_field("body"), Some(&b"hello"[..]));
    }

    #[test]
    fn incomplete_header_and_body() {
        let codec = HttpCodec::new();
        assert!(matches!(
            codec.parse(b"GET / HTTP/1.1\r\nHost: a", None).unwrap(),
            ParseOutcome::Incomplete
        ));
        let partial_body = b"HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nabc";
        assert_eq!(
            codec.parse(partial_body, None).unwrap(),
            ParseOutcome::Incomplete
        );
    }

    #[test]
    fn serialisation_roundtrip_and_passthrough() {
        let codec = HttpCodec::new();
        for wire in [
            &b"GET /a HTTP/1.1\r\nHost: h\r\nX-Req: 7\r\n\r\n"[..],
            b"HTTP/1.1 200 OK\r\nConnection: keep-alive\r\nContent-Length: 2\r\n\r\nok",
        ] {
            let (msg, _) = parse_ok(&codec, wire);
            let mut out = Vec::new();
            codec.serialize(&msg, &mut out).unwrap();
            assert_eq!(
                out, wire,
                "unmodified messages must be forwarded byte-for-byte"
            );
        }
    }

    /// `Connection` is hop-by-hop: a forwarded request loses it and every
    /// header it names, on both serialisation paths, and keeps the rest.
    #[test]
    fn forwarded_requests_lose_their_connection_headers() {
        let codec = HttpCodec::new();
        let cases: [(&[u8], &[u8]); 2] = [
            (
                b"GET /a HTTP/1.1\r\nHost: h\r\nConnection: close\r\nX-Req: 1\r\n\r\n",
                b"GET /a HTTP/1.1\r\nHost: h\r\nX-Req: 1\r\n\r\n",
            ),
            (
                b"POST /b HTTP/1.1\r\nconnection: keep-alive, X-Foo\r\nX-Foo: bar\r\n\
                  Keep-Alive: timeout=5\r\nContent-Length: 4\r\n\r\nbody",
                b"POST /b HTTP/1.1\r\nContent-Length: 4\r\n\r\nbody",
            ),
        ];
        for (wire, forwarded) in cases {
            let (msg, _) = parse_ok(&codec, wire);
            let mut out = Vec::new();
            codec.serialize(&msg, &mut out).unwrap();
            assert_eq!(out, forwarded, "{}", String::from_utf8_lossy(wire));
            let mut head = Vec::new();
            if let Some(tail) = codec.serialize_parts(&msg, &mut head).unwrap() {
                head.extend_from_slice(&tail);
            }
            assert_eq!(head, forwarded);
        }
    }

    /// Stripping a framing header the `Connection` header names would
    /// leave the body to be read as a second request downstream, so such
    /// a message is malformed, whatever the case or position of the option.
    #[test]
    fn connection_naming_a_framing_header_is_malformed() {
        let codec = HttpCodec::new();
        for option in [
            "content-length",
            "close, Content-Length",
            "Transfer-Encoding",
            "keep-alive,  HOST ",
        ] {
            let wire = format!(
                "POST / HTTP/1.1\r\nHost: h\r\nConnection: {option}\r\nContent-Length: 26\r\n\r\n\
                 GET /smuggled HTTP/1.1\r\n\r\n"
            );
            assert!(
                matches!(
                    codec.parse(wire.as_bytes(), Some(&load_balancer_projection())),
                    Err(GrammarError::Malformed { .. })
                ),
                "Connection: {option}"
            );
        }
    }

    /// Without a `Connection` header a request still leaves as its raw
    /// bytes: the very segment the ingest buffer holds, nothing copied.
    #[test]
    fn a_request_without_connection_leaves_as_its_raw_segment() {
        let codec = HttpCodec::new();
        let wire = Bytes::from_static(b"GET /a HTTP/1.1\r\nHost: h\r\n\r\n");
        let ParseOutcome::Complete { message, .. } = codec.parse_bytes(&wire, None).unwrap() else {
            panic!("a complete request");
        };
        let mut head = Vec::new();
        let tail = codec.serialize_parts(&message, &mut head).unwrap().unwrap();
        assert!(head.is_empty());
        assert_eq!(tail.as_ptr(), wire.as_ptr());
        assert_eq!(tail.len(), wire.len());
    }

    /// Stripping rewrites the head only: a 1 MiB body still leaves as one
    /// shared segment of the ingest buffer.
    #[test]
    fn a_stripped_request_keeps_its_body_shared() {
        let codec = HttpCodec::new();
        let head = b"POST /up HTTP/1.1\r\nConnection: close\r\nContent-Length: 1048576\r\n\r\n";
        let mut wire = head.to_vec();
        wire.resize(head.len() + (1 << 20), b'b');
        let wire = Bytes::from(wire);
        let ParseOutcome::Complete { message, .. } = codec
            .parse_bytes(&wire, Some(&load_balancer_projection()))
            .unwrap()
        else {
            panic!("a complete request");
        };
        let mut out = Vec::new();
        let body = codec.serialize_parts(&message, &mut out).unwrap().unwrap();
        assert_eq!(out, b"POST /up HTTP/1.1\r\nContent-Length: 1048576\r\n\r\n");
        assert_eq!(body.len(), 1 << 20);
        assert_eq!(body.as_ptr(), wire[head.len()..].as_ptr());
    }

    /// Reuse needs HTTP/1.1 on both sides and no `Connection: close` on
    /// the response; a request's own `Connection` header is stripped, so
    /// it does not count.
    #[test]
    fn keep_alive_verdicts() {
        let codec = HttpCodec::new();
        let verdict = |wire: &[u8]| codec.keeps_alive(&parse_ok(&codec, wire).0);
        assert!(verdict(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n"));
        assert!(!verdict(b"GET / HTTP/1.0\r\n\r\n"));
        assert!(verdict(b"HTTP/1.1 200 OK\r\nContent-Length: 0\r\n\r\n"));
        assert!(!verdict(
            b"HTTP/1.1 200 OK\r\nConnection: close\r\nContent-Length: 0\r\n\r\n"
        ));
        assert!(!verdict(b"HTTP/1.0 200 OK\r\nContent-Length: 0\r\n\r\n"));
        let kv = crate::hadoop::HadoopKvCodec::new();
        assert!(
            !kv.keeps_alive(&response(200, b"")),
            "the default never reuses"
        );
    }

    #[test]
    fn built_response_serialises_with_content_length() {
        let codec = HttpCodec::new();
        let resp = response(200, b"0123456789");
        let mut out = Vec::new();
        codec.serialize(&resp, &mut out).unwrap();
        let text = String::from_utf8(out.clone()).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 10\r\n"));
        let (msg, consumed) = parse_ok(&codec, &out);
        assert_eq!(consumed, out.len());
        assert_eq!(msg.bytes_field("body"), Some(&b"0123456789"[..]));
    }

    #[test]
    fn pipelined_requests_parse_one_at_a_time() {
        let codec = HttpCodec::new();
        let mut wire = Vec::new();
        wire.extend_from_slice(b"GET /1 HTTP/1.1\r\nHost: h\r\n\r\n");
        let first = wire.len();
        wire.extend_from_slice(b"GET /2 HTTP/1.1\r\nHost: h\r\n\r\n");
        let (msg, consumed) = parse_ok(&codec, &wire);
        assert_eq!(consumed, first);
        assert_eq!(msg.str_field("path"), Some("/1"));
        let (msg2, _) = parse_ok(&codec, &wire[consumed..]);
        assert_eq!(msg2.str_field("path"), Some("/2"));
    }

    #[test]
    fn connection_close_detection() {
        let codec = HttpCodec::new();
        let (keep, _) = parse_ok(&codec, b"GET / HTTP/1.1\r\nHost: h\r\n\r\n");
        assert!(!wants_close(&keep));
        let (close, _) = parse_ok(&codec, b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n");
        assert!(wants_close(&close));
        let (old, _) = parse_ok(&codec, b"GET / HTTP/1.0\r\n\r\n");
        assert!(wants_close(&old));
    }

    #[test]
    fn projection_skips_body_but_keeps_raw() {
        let codec = HttpCodec::new();
        let wire = b"POST /submit HTTP/1.1\r\nHost: h\r\nContent-Length: 4\r\n\r\ndata";
        let projection = load_balancer_projection();
        match codec.parse(wire, Some(&projection)).unwrap() {
            ParseOutcome::Complete { message, .. } => {
                assert!(message.get("body").is_none());
                assert_eq!(message.raw().unwrap().len(), wire.len());
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    /// Under a projection without `body`, a complete head with a partial
    /// body is a message: its raw bytes are the head and the buffered
    /// prefix, and the rest of the body is reported unread. With `body`
    /// projected (or no projection) the same bytes stay incomplete.
    #[test]
    fn an_unprojected_body_does_not_hold_its_head_back() {
        let codec = HttpCodec::new();
        let wire = b"POST /up HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc";
        let projection = Projection::of(["path"]);
        match codec.parse(wire, Some(&projection)).unwrap() {
            ParseOutcome::Complete { message, consumed } => {
                assert_eq!(consumed, wire.len());
                assert_eq!(message.raw().map(|r| &r[..]), Some(&wire[..]));
                assert_eq!(message.unread_body(), 7);
                assert_eq!(message.str_field("path"), Some("/up"));
                assert_eq!(message.uint_field("content_length"), Some(10));
            }
            other => panic!("unexpected {other:?}"),
        }
        // The whole frame buffered: nothing unread, as before.
        let whole = b"POST /up HTTP/1.1\r\nContent-Length: 3\r\n\r\nabcGET";
        match codec.parse(whole, Some(&projection)).unwrap() {
            ParseOutcome::Complete { message, consumed } => {
                assert_eq!(consumed, whole.len() - 3);
                assert_eq!(message.unread_body(), 0);
            }
            other => panic!("unexpected {other:?}"),
        }
        for reads_body in [None, Some(projection.clone().with("body"))] {
            assert_eq!(
                codec.parse(wire, reads_body.as_ref()).unwrap(),
                ParseOutcome::Incomplete
            );
        }
        // The head alone, not one body byte buffered yet.
        let head = b"POST /up HTTP/1.1\r\nContent-Length: 10\r\n\r\n";
        match codec.parse(head, Some(&projection)).unwrap() {
            ParseOutcome::Complete { message, .. } => assert_eq!(message.unread_body(), 10),
            other => panic!("unexpected {other:?}"),
        }
    }

    /// `Content-Length` is checked against `MAX_BODY_BYTES` at the head,
    /// streamed or not: a streamed body is bounded in framing too.
    #[test]
    fn an_unprojected_body_over_the_limit_is_refused_at_its_head() {
        let codec = HttpCodec::new();
        let wire = format!(
            "POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\nab",
            MAX_BODY_BYTES + 1
        );
        let projection = Projection::of(["path"]);
        assert!(codec.parse(wire.as_bytes(), Some(&projection)).is_err());
    }

    #[test]
    fn rejects_garbage_method() {
        let codec = HttpCodec::new();
        let wire = b"NONSENSE / HTTP/1.1\r\n\r\n";
        assert!(codec.parse(wire, None).is_err());
    }

    #[test]
    fn rejects_bad_content_length() {
        let codec = HttpCodec::new();
        let wire = b"GET / HTTP/1.1\r\nContent-Length: banana\r\n\r\n";
        assert!(codec.parse(wire, None).is_err());
    }

    #[test]
    fn reason_phrases_cover_common_codes() {
        assert_eq!(reason_phrase(200), "OK");
        assert_eq!(reason_phrase(404), "Not Found");
        assert_eq!(reason_phrase(999), "Unknown");
    }

    /// Regression: a Content-Length near `usize::MAX` is malformed, never
    /// a `head_len + content_length` wrapped into a bogus `Complete` that
    /// slices out of bounds.
    #[test]
    fn huge_content_length_does_not_overflow() {
        let codec = HttpCodec::new();
        let wire = format!(
            "POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\nxx",
            usize::MAX
        );
        assert!(matches!(
            codec.parse(wire.as_bytes(), None),
            Err(GrammarError::Malformed { .. })
        ));
    }

    #[test]
    fn duplicate_content_length_is_rejected() {
        let codec = HttpCodec::new();
        let wire = b"POST / HTTP/1.1\r\nContent-Length: 4\r\nContent-Length: 40\r\n\r\ndata";
        assert!(codec.parse(wire, None).is_err());
        // Even two agreeing copies are ambiguous to downstream parsers.
        let wire = b"POST / HTTP/1.1\r\nContent-Length: 4\r\nContent-Length: 4\r\n\r\ndata";
        assert!(codec.parse(wire, None).is_err());
    }

    #[test]
    fn content_length_must_be_plain_digits() {
        let codec = HttpCodec::new();
        // `parse::<usize>` would quietly accept "+4"; other parsers read
        // hex or split on internal whitespace. All are rejected.
        for value in ["+4", "0x4", "4 4", "4+", ""] {
            let wire = format!("POST / HTTP/1.1\r\nContent-Length:{value}\r\n\r\ndata");
            assert!(
                codec.parse(wire.as_bytes(), None).is_err(),
                "Content-Length {value:?} should be rejected"
            );
        }
        // Optional whitespace around the value is legal HTTP and still
        // parses.
        let wire = b"POST / HTTP/1.1\r\nContent-Length:  4 \r\n\r\ndata";
        match codec.parse(wire, None).unwrap() {
            ParseOutcome::Complete { message, .. } => {
                assert_eq!(message.uint_field("content_length"), Some(4));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn content_length_over_body_limit_is_malformed() {
        let codec = HttpCodec::new();
        let head = |len: usize| format!("POST / HTTP/1.1\r\nContent-Length: {len}\r\n\r\n");
        assert!(codec
            .parse(head(MAX_BODY_BYTES + 1).as_bytes(), None)
            .is_err());
        // At the limit it is still a legal (incomplete) frame.
        assert_eq!(
            codec.parse(head(MAX_BODY_BYTES).as_bytes(), None).unwrap(),
            ParseOutcome::Incomplete
        );
    }

    /// A head that never terminates stops being `Incomplete` once it blows
    /// the head limit — the ingest buffer must not grow forever.
    #[test]
    fn unterminated_head_past_limit_is_malformed() {
        let codec = HttpCodec::new();
        let mut wire = b"GET / HTTP/1.1\r\nX-Pad: ".to_vec();
        wire.resize(MAX_HEAD_BYTES, b'a');
        assert_eq!(codec.parse(&wire, None).unwrap(), ParseOutcome::Incomplete);
        wire.push(b'a');
        assert!(codec.parse(&wire, None).is_err());
        // A *terminated* head over the limit is rejected too.
        wire.extend_from_slice(b"\r\n\r\n");
        assert!(codec.parse(&wire, None).is_err());
    }

    #[test]
    fn too_many_header_lines_is_malformed() {
        let codec = HttpCodec::new();
        let request = |lines: usize| {
            let mut wire = String::from("GET / HTTP/1.1\r\n");
            for i in 0..lines {
                wire.push_str(&format!("X-H{i}: v\r\n"));
            }
            wire + "\r\n"
        };
        assert!(codec.parse(request(MAX_FIELDS).as_bytes(), None).is_ok());
        assert!(codec
            .parse(request(MAX_FIELDS + 1).as_bytes(), None)
            .is_err());
    }
}
