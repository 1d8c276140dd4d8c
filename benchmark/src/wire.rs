//! The apparatus's own minimal HTTP/1.1 framing, used by the generator and
//! the back-end emulator. Deliberately not `flick_grammar`: the instrument
//! must not change when the thing it measures does.

use std::io::{self, IoSlice, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// The parsed start line and the three headers the apparatus cares about.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct Head {
    /// Bytes up to and including the blank line.
    pub len: usize,
    /// Request method, or empty for a response.
    pub method: String,
    /// Request path, or empty for a response.
    pub path: String,
    /// Response status, or 0 for a request.
    pub status: u16,
    pub content_length: usize,
    /// `X-Req: c<conn>-<seq>` — the identifier client and back-end spans
    /// share.
    pub req_id: Option<(u32, u32)>,
}

/// Parses a head from the front of `buf`; `None` until the blank line is in.
pub fn parse_head(buf: &[u8]) -> Option<io::Result<Head>> {
    let len = buf.windows(4).position(|w| w == b"\r\n\r\n")? + 4;
    Some(parse_complete_head(&buf[..len]).ok_or_else(|| bad("malformed head")))
}

fn parse_complete_head(head: &[u8]) -> Option<Head> {
    let text = std::str::from_utf8(head).ok()?;
    let mut lines = text.split("\r\n");
    let mut start = lines.next()?.split(' ');
    let first = start.next()?;
    let mut parsed = Head {
        len: head.len(),
        ..Head::default()
    };
    if first.starts_with("HTTP/") {
        parsed.status = start.next()?.parse().ok()?;
    } else {
        parsed.method = first.to_string();
        parsed.path = start.next()?.to_string();
    }
    for line in lines.filter(|l| !l.is_empty()) {
        let (name, value) = line.split_once(':')?;
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            parsed.content_length = value.parse().ok()?;
        } else if name.eq_ignore_ascii_case("x-req") {
            let (conn, seq) = value.strip_prefix('c')?.split_once('-')?;
            parsed.req_id = Some((conn.parse().ok()?, seq.parse().ok()?));
        }
    }
    Some(parsed)
}

pub fn bad(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what.to_string())
}

/// A reusable receive buffer for one connection's messages. Sized once for
/// the largest body the workload moves, so steady state neither allocates
/// nor zero-fills.
pub struct MsgBuf {
    buf: Vec<u8>,
}

const MAX_HEAD: usize = 64 * 1024;

impl MsgBuf {
    pub fn new(max_body: usize) -> MsgBuf {
        MsgBuf {
            buf: vec![0; MAX_HEAD + max_body],
        }
    }

    /// Reads one message: the head and exactly its declared body.
    /// `Ok(None)` is a clean EOF before any byte. A socket read timeout
    /// before the first byte is returned as the error it is (the caller is
    /// idle-polling); once a message has started, timeouts are retried
    /// until `patience` has passed since its first byte, so a stall in the
    /// middle of a large body is a slow op, not a torn one.
    pub fn read(&mut self, stream: &mut TcpStream, patience: Duration) -> io::Result<Option<Head>> {
        let mut filled = 0;
        let mut started: Option<Instant> = None;
        let mut head: Option<Head> = None;
        loop {
            // While the head is incomplete read at most up to MAX_HEAD, so
            // the body that follows it always fits.
            let limit = head.as_ref().map_or(MAX_HEAD, |h| h.len + h.content_length);
            if filled >= limit {
                return match head {
                    Some(head) if filled == limit => Ok(Some(head)),
                    // Closed loop: one message at a time per connection.
                    Some(_) => Err(bad("bytes beyond the declared length")),
                    None => Err(bad("head too large")),
                };
            }
            let n = match stream.read(&mut self.buf[filled..limit]) {
                Ok(0) if filled == 0 => return Ok(None),
                Ok(0) => return Err(bad("EOF inside a message")),
                Ok(n) => n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) if is_timeout(&e) => match started {
                    Some(t) if t.elapsed() < patience => continue,
                    _ => return Err(e),
                },
                Err(e) => return Err(e),
            };
            started.get_or_insert_with(Instant::now);
            filled += n;
            if head.is_none() {
                if let Some(parsed) = parse_head(&self.buf[..filled]) {
                    let parsed = parsed?;
                    if parsed.len + parsed.content_length > self.buf.len() {
                        return Err(bad("declared body too large"));
                    }
                    head = Some(parsed);
                }
            }
        }
    }

    pub fn body(&self, head: &Head) -> &[u8] {
        &self.buf[head.len..head.len + head.content_length]
    }
}

pub fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// `write_all` over two segments with `writev`, so a head and a window of
/// the shared filler leave together without being concatenated first.
pub fn write_all_two(stream: &mut TcpStream, head: &[u8], body: &[u8]) -> io::Result<()> {
    let (mut head, mut body) = (head, body);
    while !head.is_empty() || !body.is_empty() {
        let n = match stream.write_vectored(&[IoSlice::new(head), IoSlice::new(body)]) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        let from_head = n.min(head.len());
        head = &head[from_head..];
        body = &body[n - from_head..];
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_requests_and_responses() {
        let req = b"POST /u/abc HTTP/1.1\r\nHost: bench\r\nX-Req: c3-17\r\ncontent-length: 5\r\n\r\nhello";
        let head = parse_head(req).unwrap().unwrap();
        assert_eq!(head.method, "POST");
        assert_eq!(head.path, "/u/abc");
        assert_eq!(head.content_length, 5);
        assert_eq!(head.req_id, Some((3, 17)));
        assert_eq!(&req[head.len..], b"hello");

        let resp = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nb1";
        let head = parse_head(resp).unwrap().unwrap();
        assert_eq!((head.status, head.content_length), (200, 2));
        assert!(parse_head(b"HTTP/1.1 200 OK\r\nContent-").is_none());
    }
}
