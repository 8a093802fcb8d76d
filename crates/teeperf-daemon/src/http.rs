//! A deliberately minimal HTTP/1.1 layer over [`std::net`] — no external
//! dependencies, no keep-alive, no chunked encoding. Every exchange is one
//! request, one `Content-Length` response, `Connection: close`. That is
//! all the daemon's wire contract needs: the payloads are the stable
//! snapshot text format, and the transfer framing stays too small to hide
//! bugs in.
//!
//! Both halves live here — the server side ([`read_request`] /
//! [`Response::write_to`]) used by `teeperfd`, and the client side
//! ([`get`]) used by `teeperf top` and the tests — so a framing change
//! cannot drift between them.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

/// Longest request head (request line + headers) the server will read;
/// the daemon's API has no legitimate request anywhere near this.
const MAX_HEAD_BYTES: usize = 8 * 1024;

/// One parsed request line. The daemon routes on method + target only;
/// headers are read (to drain the head) and discarded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// `GET`, `POST`, …
    pub method: String,
    /// The request target, e.g. `/snapshot` or `/flame.svg?pid=7`.
    pub target: String,
}

impl Request {
    /// The target's path without the query string.
    pub fn path(&self) -> &str {
        self.target.split('?').next().unwrap_or(&self.target)
    }

    /// The value of query parameter `key`, if present.
    pub fn query(&self, key: &str) -> Option<&str> {
        let (_, qs) = self.target.split_once('?')?;
        qs.split('&')
            .find_map(|pair| pair.split_once('=').filter(|(k, _)| *k == key))
            .map(|(_, v)| v)
    }

    /// The whole raw query string after `?`, if any — `/query` hands it
    /// verbatim to the window-spec parser, whose clause grammar *is* the
    /// query-string grammar.
    pub fn query_string(&self) -> Option<&str> {
        self.target.split_once('?').map(|(_, qs)| qs)
    }
}

/// A connection under one deadline for the whole exchange: each read and
/// write gets what is left of it as its timeout, so a peer trickling bytes
/// is cut off when it passes, not one timeout after its last byte.
#[derive(Debug)]
pub struct Deadline<'a>(pub &'a TcpStream, pub Instant);

impl Deadline<'_> {
    fn left(&self) -> io::Result<Option<Duration>> {
        match self.1.checked_duration_since(Instant::now()) {
            Some(left) if !left.is_zero() => Ok(Some(left)),
            _ => Err(io::ErrorKind::TimedOut.into()),
        }
    }
}

impl Read for Deadline<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.0.set_read_timeout(self.left()?)?;
        self.0.read(buf)
    }
}

impl Write for Deadline<'_> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0.set_write_timeout(self.left()?)?;
        self.0.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Read one request head off `stream` (through the blank line); the body,
/// if any, is ignored — every daemon endpoint is body-less.
///
/// # Errors
/// I/O failures, an over-long head, and a malformed request line all
/// surface as `InvalidData`-style errors; the caller drops the connection.
pub fn read_request(stream: &mut impl Read) -> io::Result<Request> {
    // The budget bounds the reads themselves, not a count taken after
    // them: a client streaming bytes without a newline makes `read_line`
    // buffer at most what is left of it.
    let mut reader = BufReader::new(stream.take(MAX_HEAD_BYTES as u64));
    let mut read_line = |line: &mut String| -> io::Result<usize> {
        let n = reader.read_line(line)?;
        if !line.ends_with('\n') && reader.get_ref().limit() == 0 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "request head too large",
            ));
        }
        Ok(n)
    };
    let mut line = String::new();
    read_line(&mut line)?;
    let mut parts = line.split_whitespace();
    let (method, target) = match (parts.next(), parts.next()) {
        (Some(m), Some(t)) => (m.to_string(), t.to_string()),
        _ => {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("malformed request line {line:?}"),
            ))
        }
    };
    loop {
        let mut header = String::new();
        let n = read_line(&mut header)?;
        if n == 0 || header == "\r\n" || header == "\n" {
            break;
        }
    }
    Ok(Request { method, target })
}

/// A complete response, written in one shot with `Connection: close`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Media type of the body.
    pub content_type: &'static str,
    /// The body bytes.
    pub body: Vec<u8>,
}

impl Response {
    /// A `200 OK` plain-text response.
    pub fn text(body: impl Into<String>) -> Response {
        Response {
            status: 200,
            content_type: "text/plain; charset=utf-8",
            body: body.into().into_bytes(),
        }
    }

    /// A `200 OK` SVG response.
    pub fn svg(body: String) -> Response {
        Response {
            status: 200,
            content_type: "image/svg+xml",
            body: body.into_bytes(),
        }
    }

    /// A `404 Not Found` with a one-line explanation.
    pub fn not_found(reason: impl Into<String>) -> Response {
        Response {
            status: 404,
            content_type: "text/plain; charset=utf-8",
            body: format!("{}\n", reason.into()).into_bytes(),
        }
    }

    /// A `400 Bad Request` with a one-line explanation — a malformed
    /// window-query spec is the client's fault, not a missing resource.
    pub fn bad_request(reason: impl Into<String>) -> Response {
        Response {
            status: 400,
            content_type: "text/plain; charset=utf-8",
            body: format!("{}\n", reason.into()).into_bytes(),
        }
    }

    /// The status line's reason phrase.
    fn reason(&self) -> &'static str {
        match self.status {
            200 => "OK",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            _ => "Error",
        }
    }

    /// Serialize status line, headers and body onto `stream` as one
    /// buffer: through a [`Deadline`] every write is a timeout set and a
    /// send, so the whole reply goes in one.
    ///
    /// # Errors
    /// Propagates socket write failures.
    pub fn write_to(&self, stream: &mut impl Write) -> io::Result<()> {
        let mut message = format!(
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
            self.status,
            self.reason(),
            self.content_type,
            self.body.len()
        )
        .into_bytes();
        message.extend_from_slice(&self.body);
        stream.write_all(&message)?;
        stream.flush()
    }
}

/// Blocking HTTP GET of `path` from `addr` (e.g. `127.0.0.1:7071`),
/// returning the status code and the body as text. The timeout bounds
/// connect, read and write individually.
///
/// # Errors
/// Connection or I/O failure, a non-HTTP reply, or a non-UTF-8 body.
pub fn get(addr: &str, path: &str, timeout: Duration) -> io::Result<(u16, String)> {
    let target = addr
        .to_socket_addrs()?
        .next()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "unresolvable address"))?;
    let mut stream = TcpStream::connect_timeout(&target, timeout)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    stream.write_all(
        format!("GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n").as_bytes(),
    )?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    let text = String::from_utf8(raw)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "non-UTF-8 response"))?;
    let (head, body) = text
        .split_once("\r\n\r\n")
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "no header/body split"))?;
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "malformed status line"))?;
    Ok((status, body.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::net::{Shutdown, SocketAddr, TcpListener};
    use std::time::Instant;

    /// One connection as `serve_pending` takes it — blocking, with `deadline`
    /// for the whole exchange (2 s there) — handed to `serve` while `client`
    /// plays the other end on a thread of its own.
    fn accept_from<T>(
        deadline: Duration,
        client: impl FnOnce(SocketAddr) + Send + 'static,
        serve: impl FnOnce(&mut Deadline<'_>) -> T,
    ) -> T {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = std::thread::spawn(move || client(addr));
        let (stream, _) = listener.accept().unwrap();
        let out = serve(&mut Deadline(&stream, Instant::now() + deadline));
        drop(stream);
        client.join().unwrap();
        out
    }

    #[test]
    fn request_target_splits_path_and_query() {
        let r = Request {
            method: "GET".into(),
            target: "/flame.svg?pid=7&x=1".into(),
        };
        assert_eq!(r.path(), "/flame.svg");
        assert_eq!(r.query("pid"), Some("7"));
        assert_eq!(r.query("x"), Some("1"));
        assert_eq!(r.query("absent"), None);
        let plain = Request {
            method: "GET".into(),
            target: "/healthz".into(),
        };
        assert_eq!(plain.path(), "/healthz");
        assert_eq!(plain.query("pid"), None);
    }

    #[test]
    fn client_and_server_speak_to_each_other() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let req = read_request(&mut stream).unwrap();
            assert_eq!(req.method, "GET");
            assert_eq!(req.path(), "/snapshot");
            Response::text("[live]\nepoch 0\n")
                .write_to(&mut stream)
                .unwrap();
        });
        let (status, body) = get(&addr.to_string(), "/snapshot", Duration::from_secs(5)).unwrap();
        assert_eq!(status, 200);
        assert_eq!(body, "[live]\nepoch 0\n");
        server.join().unwrap();
    }

    #[test]
    fn a_newline_less_request_line_is_refused_within_the_head_budget() {
        const SENT: usize = 1 << 20;
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let err = read_request(&mut stream).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
            // What `read_request` did not take off the socket is still
            // there to be counted: it buffered no more than its budget.
            let left = io::copy(&mut stream, &mut io::sink()).unwrap() as usize;
            assert!(left >= SENT - MAX_HEAD_BYTES, "only {left} bytes left");
            // The next, well-formed request is served as usual.
            let (mut stream, _) = listener.accept().unwrap();
            assert_eq!(read_request(&mut stream).unwrap().path(), "/healthz");
            Response::text("ok\n").write_to(&mut stream).unwrap();
        });
        let mut hostile = TcpStream::connect(addr).unwrap();
        hostile.write_all(&vec![b'A'; SENT]).unwrap();
        hostile.shutdown(std::net::Shutdown::Write).unwrap();
        let (status, body) = get(&addr.to_string(), "/healthz", Duration::from_secs(5)).unwrap();
        assert_eq!((status, body.as_str()), (200, "ok\n"));
        server.join().unwrap();
    }

    #[test]
    fn a_trickled_head_ends_within_one_deadline_of_its_first_byte() {
        let deadline = Duration::from_millis(300);
        let started = Instant::now();
        let err = accept_from(
            deadline,
            |addr| {
                // A byte at a time, well inside the budget, each much
                // sooner than the deadline, for ten deadlines — or until
                // the server has hung up.
                let mut loris = TcpStream::connect(addr).unwrap();
                for byte in b"GET /snapshot HTTP/1.1\r\nHost: teeperfd\r\nAccept: */*\r\n"
                    .iter()
                    .cycle()
                    .take(100)
                {
                    if loris.write_all(&[*byte]).is_err() {
                        break;
                    }
                    std::thread::sleep(Duration::from_millis(30));
                }
            },
            |stream| read_request(stream).unwrap_err(),
        );
        assert!(
            matches!(
                err.kind(),
                io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
            ),
            "{err}"
        );
        // One deadline in all, not one per byte: a timeout per read never
        // fires on this client, and would sit out all hundred bytes.
        assert!(started.elapsed() < deadline * 3, "{:?}", started.elapsed());
    }

    #[test]
    fn garbage_request_lines_are_refused_not_routed() {
        for garbage in [
            &b"\x00\xff\xfe\x80 not http\r\n\r\n"[..],
            b"ONEWORD\r\n\r\n",
            b"\r\n\r\n",
            b"   \t \r\nGET / HTTP/1.1\r\n\r\n",
            b"",
        ] {
            let err = accept_from(
                Duration::from_secs(2),
                move |addr| {
                    let mut client = TcpStream::connect(addr).unwrap();
                    client.write_all(garbage).unwrap();
                    client.shutdown(Shutdown::Write).unwrap();
                    // The server answers nothing: it drops the connection.
                    let mut reply = Vec::new();
                    let _ = client.read_to_end(&mut reply);
                    assert!(reply.is_empty(), "{reply:?}");
                },
                |stream| read_request(stream).unwrap_err(),
            );
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{garbage:?}: {err}");
        }
    }

    #[test]
    fn a_client_that_half_closes_after_the_head_is_still_answered() {
        accept_from(
            Duration::from_secs(2),
            |addr| {
                let mut client = TcpStream::connect(addr).unwrap();
                client.write_all(b"GET /healthz HTTP/1.1\r\n\r\n").unwrap();
                client.shutdown(Shutdown::Write).unwrap();
                let mut reply = String::new();
                client.read_to_string(&mut reply).unwrap();
                assert!(reply.starts_with("HTTP/1.1 200 OK\r\n"), "{reply}");
                assert!(reply.ends_with("\r\n\r\nok\n"), "{reply}");
            },
            |stream| {
                assert_eq!(read_request(stream).unwrap().path(), "/healthz");
                Response::text("ok\n").write_to(stream).unwrap();
            },
        );
    }

    #[test]
    fn a_client_gone_before_the_body_costs_an_error_not_the_server() {
        let started = Instant::now();
        accept_from(
            Duration::from_millis(500),
            |addr| {
                let mut client = TcpStream::connect(addr).unwrap();
                client.write_all(b"GET /snapshot HTTP/1.1\r\n\r\n").unwrap();
                // Closed with the whole reply unread.
            },
            |stream| {
                assert_eq!(read_request(stream).unwrap().path(), "/snapshot");
                // Far more than the socket buffers hold: the write meets
                // the reset (or the write deadline), whichever comes first,
                // and says so. It may not panic and may not hang.
                let big = Response::text("x".repeat(32 << 20));
                std::thread::sleep(Duration::from_millis(50));
                assert!(big.write_to(stream).is_err());
            },
        );
        assert!(started.elapsed() < Duration::from_secs(10));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn prop_read_request_never_panics_and_reads_no_more_than_its_budget(
            noise in proptest::collection::vec(any::<u8>(), 0..3 * MAX_HEAD_BYTES),
            line_breaks in proptest::collection::vec(0usize..3 * MAX_HEAD_BYTES, 0..12),
        ) {
            // Arbitrary bytes, some of them turned into line ends so that
            // heads of every shape come by: complete, endless, empty.
            let mut bytes = noise;
            for at in line_breaks {
                if let Some(b) = bytes.get_mut(at) {
                    *b = b'\n';
                }
            }
            let sent = bytes.len();
            let (outcome, left) = accept_from(
                Duration::from_secs(2),
                move |addr| {
                    let mut client = TcpStream::connect(addr).unwrap();
                    // The server may be gone before everything is written.
                    let _ = client.write_all(&bytes);
                    let _ = client.shutdown(Shutdown::Write);
                    let _ = client.read(&mut [0u8; 1]);
                },
                |stream| {
                    let outcome = read_request(stream);
                    let left = io::copy(stream, &mut io::sink()).unwrap_or(0) as usize;
                    (outcome, left)
                },
            );
            prop_assert!(sent - left <= MAX_HEAD_BYTES, "read {} of {}", sent - left, sent);
            match outcome {
                Ok(request) => {
                    prop_assert!(!request.method.is_empty() && !request.target.is_empty());
                    prop_assert!(!request.target.contains(char::is_whitespace));
                }
                Err(e) => prop_assert!(
                    e.kind() == io::ErrorKind::InvalidData,
                    "{}", e
                ),
            }
        }
    }
}
