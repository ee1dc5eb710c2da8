//! A deliberately small HTTP/1.1 surface over `std::net::TcpStream`:
//! enough to parse one request (method, path, `Content-Length` body)
//! and write one response, matching the repo's hermetic zero-dependency
//! style. Each connection carries exactly one exchange
//! (`Connection: close`); the progress stream writes an unframed body
//! and signals its end by closing the socket, which HTTP/1.1 permits
//! for close-delimited responses.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;

/// Largest request body accepted. The only bodies are job specs, well
/// under 1 KiB, so 64 KiB bounds what one connection can make the
/// server buffer with ample headroom.
const MAX_BODY: usize = 64 << 10;

/// Largest request head (request line + headers) accepted. The service's
/// own routes fit in a few hundred bytes; 64 KiB leaves room for any
/// reasonable proxy headers while bounding what one connection can make
/// the parser buffer.
const MAX_HEAD: usize = 64 << 10;

/// One parsed request.
#[derive(Debug)]
pub struct Request {
    /// Upper-case method (`GET`, `POST`, ...).
    pub method: String,
    /// Path without query string.
    pub path: String,
    /// Raw body bytes (empty when no `Content-Length`).
    pub body: Vec<u8>,
}

impl Request {
    /// The path split on `/`, empty segments dropped: `/jobs/x/report`
    /// → `["jobs", "x", "report"]`.
    pub fn segments(&self) -> Vec<&str> {
        self.path.split('/').filter(|s| !s.is_empty()).collect()
    }
}

/// Reads one head line against the remaining head budget. `Ok(None)`
/// when the line would exceed the budget — a request line or header
/// growing without bound is a malformation, not an I/O error.
fn read_head_line(
    reader: &mut BufReader<&mut TcpStream>,
    budget: &mut usize,
    line: &mut String,
) -> std::io::Result<Option<usize>> {
    line.clear();
    let n = reader.by_ref().take(*budget as u64).read_line(line)?;
    *budget -= n;
    if *budget == 0 && !line.ends_with('\n') {
        return Ok(None);
    }
    Ok(Some(n))
}

/// Reads one request from the stream. `Ok(None)` when the peer closed
/// without sending one, or on any malformation (the caller just drops
/// the connection — a malformed request line has no useful reply).
/// Malformation includes a head larger than 64 KiB (`MAX_HEAD`) or a
/// `Content-Length` beyond 64 KiB (`MAX_BODY`); the body is read
/// incrementally, so a peer that *claims* a large body but never sends it
/// costs no allocation beyond the bytes it actually delivered.
pub fn read_request(stream: &mut TcpStream) -> std::io::Result<Option<Request>> {
    let mut reader = BufReader::new(stream);
    let mut budget = MAX_HEAD;
    let mut line = String::new();
    match read_head_line(&mut reader, &mut budget, &mut line)? {
        None | Some(0) => return Ok(None),
        Some(_) => {}
    }
    let mut parts = line.split_whitespace();
    let (Some(method), Some(target)) = (parts.next(), parts.next()) else {
        return Ok(None);
    };
    let method = method.to_ascii_uppercase();
    let path = target.split('?').next().unwrap_or("").to_string();

    let mut content_length = 0usize;
    let mut header = String::new();
    loop {
        match read_head_line(&mut reader, &mut budget, &mut header)? {
            None | Some(0) => return Ok(None),
            Some(_) => {}
        }
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.trim().eq_ignore_ascii_case("content-length") {
                let Ok(n) = value.trim().parse::<usize>() else {
                    return Ok(None);
                };
                if n > MAX_BODY {
                    return Ok(None);
                }
                content_length = n;
            }
        }
    }
    // Grow the body as bytes arrive instead of trusting the header with
    // an upfront allocation; a short read (peer closed early) is a
    // malformed request like any other.
    let mut body = Vec::new();
    if content_length > 0 {
        reader
            .by_ref()
            .take(content_length as u64)
            .read_to_end(&mut body)?;
        if body.len() < content_length {
            return Ok(None);
        }
    }
    Ok(Some(Request { method, path, body }))
}

fn status_text(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        204 => "No Content",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Writes one complete response and flushes it.
pub fn respond(
    stream: &mut TcpStream,
    status: u16,
    content_type: &str,
    body: &[u8],
) -> std::io::Result<()> {
    write!(
        stream,
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        status_text(status),
        body.len()
    )?;
    stream.write_all(body)?;
    stream.flush()
}

/// Writes a JSON response.
pub fn respond_json(stream: &mut TcpStream, status: u16, json: &str) -> std::io::Result<()> {
    respond(stream, status, "application/json", json.as_bytes())
}

/// Starts a close-delimited streaming response (no `Content-Length`):
/// the caller writes body chunks directly and ends the body by dropping
/// the connection.
pub fn start_stream(stream: &mut TcpStream, content_type: &str) -> std::io::Result<()> {
    write!(
        stream,
        "HTTP/1.1 200 OK\r\nContent-Type: {content_type}\r\nConnection: close\r\n\r\n"
    )?;
    stream.flush()
}

/// Escapes a string for embedding in a JSON value.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};
    use std::thread;

    fn exchange(raw: &[u8]) -> Option<Request> {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let raw = raw.to_vec();
        let client = thread::spawn(move || {
            let mut s = TcpStream::connect(addr).expect("connect");
            // Over-limit requests make the server hang up mid-send;
            // the client shrugging at the broken pipe is part of the
            // contract under test.
            let _ = s.write_all(&raw);
            let _ = s.flush();
        });
        let (mut conn, _) = listener.accept().expect("accept");
        let req = read_request(&mut conn).expect("read");
        client.join().expect("client");
        req
    }

    #[test]
    fn parses_method_path_and_body() {
        let req = exchange(b"POST /jobs?x=1 HTTP/1.1\r\nHost: a\r\nContent-Length: 4\r\n\r\nabcd")
            .expect("a request");
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/jobs");
        assert_eq!(req.body, b"abcd");
        assert_eq!(req.segments(), vec!["jobs"]);
    }

    #[test]
    fn empty_and_malformed_requests_read_as_none() {
        assert!(exchange(b"").is_none());
        assert!(exchange(b"\r\n\r\n").is_none());
        assert!(
            exchange(b"GET / HTTP/1.1\r\nContent-Length: oops\r\n\r\n").is_none(),
            "unparseable length"
        );
    }

    #[test]
    fn oversized_heads_read_as_none() {
        // One header line past the head cap: the parser must stop
        // buffering and reject, not grow the line without bound.
        let mut raw = b"GET / HTTP/1.1\r\nX-Junk: ".to_vec();
        raw.extend(std::iter::repeat(b'a').take(MAX_HEAD));
        raw.extend_from_slice(b"\r\n\r\n");
        assert!(exchange(&raw).is_none(), "head over {MAX_HEAD} bytes");

        // Many small headers summing past the cap are rejected too.
        let mut raw = b"GET / HTTP/1.1\r\n".to_vec();
        for i in 0.. {
            raw.extend_from_slice(format!("X-H{i}: {:0>120}\r\n", i).as_bytes());
            if raw.len() > MAX_HEAD {
                break;
            }
        }
        raw.extend_from_slice(b"\r\n");
        assert!(exchange(&raw).is_none(), "cumulative head over the cap");
    }

    #[test]
    fn declared_lengths_past_the_cap_and_truncated_bodies_read_as_none() {
        let huge = format!(
            "POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY + 1
        );
        assert!(exchange(huge.as_bytes()).is_none(), "length over the cap");
        assert!(
            exchange(b"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc").is_none(),
            "peer closed before delivering the declared body"
        );
    }

    #[test]
    fn segments_split_nested_paths() {
        let req = exchange(b"GET /jobs/abc/events HTTP/1.1\r\n\r\n").expect("request");
        assert_eq!(req.segments(), vec!["jobs", "abc", "events"]);
    }

    #[test]
    fn json_escape_handles_specials() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }
}
