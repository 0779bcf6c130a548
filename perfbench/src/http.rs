//! The browser-like HTTP/1.1 client side of `serve_explore`: request
//! encoding, reading one response per request, and `Content-Encoding`
//! decoding with the program's own inflater, so a server that starts compressing is
//! measured (and verified) without editing the benchmark.

use jedule_render::deflate::{inflate, zlib_decompress};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Request head the explorer page's `fetch` would send.
pub fn request(target: &str, if_none_match: Option<&str>) -> Vec<u8> {
    let mut head =
        format!("GET {target} HTTP/1.1\r\nHost: perfbench\r\nAccept-Encoding: gzip, deflate\r\n");
    if let Some(etag) = if_none_match {
        head.push_str("If-None-Match: ");
        head.push_str(etag);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    head.into_bytes()
}

/// One response, body already decoded.
#[derive(Debug)]
pub struct Reply {
    pub status: u16,
    pub etag: Option<String>,
    pub request_id: Option<u64>,
    /// `503`, or any response carrying `Retry-After`: the server turned
    /// the request away.
    pub refused: bool,
    pub body: Vec<u8>,
    /// Head plus body bytes as read off the socket.
    pub wire_bytes: u64,
    pub first_byte: Instant,
    pub last_byte: Instant,
}

struct Head {
    len: usize,
    status: u16,
    body_len: usize,
    etag: Option<String>,
    request_id: Option<u64>,
    encoding: Option<String>,
    refused: bool,
}

/// Cap on a response head; a longer one is a protocol error.
const MAX_HEAD: usize = 64 * 1024;

/// How long a response may take before the connection is given up.
const RESPONSE_TIMEOUT: Duration = Duration::from_secs(30);

/// Reads exactly one response: the head, then `Content-Length` body
/// bytes. The client never pipelines, so any byte past the body is a
/// protocol error. `buf` is scratch space kept across calls; `sent` is
/// when the request went out.
fn read_reply(
    r: &mut impl Read,
    buf: &mut Vec<u8>,
    chunk: &mut [u8],
    sent: Instant,
) -> Result<Reply, String> {
    buf.clear();
    let mut first_byte = None;
    let mut head: Option<Head> = None;
    loop {
        let n = match r.read(chunk) {
            Ok(0) => return Err("server closed the connection".into()),
            Ok(n) => n,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if sent.elapsed() > RESPONSE_TIMEOUT {
                    return Err(format!("no response within {RESPONSE_TIMEOUT:?}"));
                }
                continue;
            }
            Err(e) => return Err(format!("read: {e}")),
        };
        let now = Instant::now();
        let first_byte = *first_byte.get_or_insert(now);
        let scan_from = buf.len().saturating_sub(3);
        buf.extend_from_slice(&chunk[..n]);
        if head.is_none() {
            match buf[scan_from..].windows(4).position(|w| w == b"\r\n\r\n") {
                Some(at) => {
                    let h = parse_head(&buf[..scan_from + at + 4])?;
                    buf.reserve((h.len + h.body_len).saturating_sub(buf.len()));
                    head = Some(h);
                }
                None if buf.len() > MAX_HEAD => return Err("response head exceeds 64 KiB".into()),
                None => continue,
            }
        }
        let h = head.as_ref().expect("head parsed above");
        let total = h.len + h.body_len;
        if buf.len() < total {
            continue;
        }
        if buf.len() > total {
            return Err(format!(
                "{} unexpected bytes after a {} response",
                buf.len() - total,
                h.status
            ));
        }
        let h = head.take().expect("head parsed above");
        return Ok(Reply {
            status: h.status,
            etag: h.etag,
            request_id: h.request_id,
            refused: h.refused,
            body: decode(h.encoding.as_deref(), &buf[h.len..])?,
            wire_bytes: total as u64,
            first_byte,
            last_byte: now,
        });
    }
}

fn parse_head(bytes: &[u8]) -> Result<Head, String> {
    let text = std::str::from_utf8(bytes).map_err(|_| "response head is not UTF-8")?;
    let mut lines = text.split("\r\n");
    let status_line = lines.next().unwrap_or_default();
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("bad status line {status_line:?}"))?;
    let mut head = Head {
        len: bytes.len(),
        status,
        body_len: 0,
        etag: None,
        request_id: None,
        encoding: None,
        refused: status == 503,
    };
    let mut has_len = false;
    for line in lines.filter(|l| !l.is_empty()) {
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| format!("bad header line {line:?}"))?;
        let value = value.trim();
        match name.trim().to_ascii_lowercase().as_str() {
            "content-length" => {
                head.body_len = value
                    .parse()
                    .map_err(|_| format!("bad Content-Length {value:?}"))?;
                has_len = true;
            }
            "etag" => head.etag = Some(value.to_string()),
            "x-jedule-request-id" => head.request_id = value.parse().ok(),
            "content-encoding" => head.encoding = Some(value.to_ascii_lowercase()),
            "retry-after" => head.refused = true,
            "transfer-encoding" => {
                return Err(format!("unsupported Transfer-Encoding {value:?}"));
            }
            _ => {}
        }
    }
    if !has_len && status != 304 && status != 204 {
        return Err(format!("{status} response without Content-Length"));
    }
    Ok(head)
}

/// Undoes a `Content-Encoding`.
fn decode(encoding: Option<&str>, raw: &[u8]) -> Result<Vec<u8>, String> {
    match encoding {
        None | Some("identity") => Ok(raw.to_vec()),
        Some("gzip") | Some("x-gzip") => gunzip(raw),
        // RFC 9110 "deflate" is a zlib stream; some servers send raw
        // DEFLATE, which browsers accept too.
        Some("deflate") => zlib_decompress(raw).or_else(|zerr| {
            inflate(raw).map_err(|rerr| format!("deflate body: zlib: {zerr}; raw: {rerr}"))
        }),
        Some(other) => Err(format!("unsupported Content-Encoding {other:?}")),
    }
}

/// Decodes a gzip member (RFC 1952): header, DEFLATE body, CRC-32 and
/// length trailer, both checked.
fn gunzip(raw: &[u8]) -> Result<Vec<u8>, String> {
    const FHCRC: u8 = 2;
    const FEXTRA: u8 = 4;
    const FNAME: u8 = 8;
    const FCOMMENT: u8 = 16;
    if raw.len() < 18 || raw[0] != 0x1f || raw[1] != 0x8b || raw[2] != 8 {
        return Err("not a gzip stream".into());
    }
    let flags = raw[3];
    let mut at = 10;
    if flags & FEXTRA != 0 {
        let xlen = usize::from(raw[at]) | (usize::from(raw[at + 1]) << 8);
        at += 2 + xlen;
    }
    for flag in [FNAME, FCOMMENT] {
        if flags & flag != 0 {
            let nul = raw
                .get(at..)
                .and_then(|r| r.iter().position(|&b| b == 0))
                .ok_or("unterminated gzip header string")?;
            at += nul + 1;
        }
    }
    if flags & FHCRC != 0 {
        at += 2;
    }
    if at + 8 > raw.len() {
        return Err("truncated gzip stream".into());
    }
    let trailer = &raw[raw.len() - 8..];
    let out = inflate(&raw[at..raw.len() - 8])?;
    let crc = u32::from_le_bytes(trailer[..4].try_into().expect("4 bytes"));
    let size = u32::from_le_bytes(trailer[4..].try_into().expect("4 bytes"));
    if jedule_render::png::crc32(&out) != crc {
        return Err("gzip CRC-32 mismatch".into());
    }
    if out.len() as u32 != size {
        return Err("gzip length mismatch".into());
    }
    Ok(out)
}

/// One keep-alive connection used one request at a time, the way a
/// browser uses each connection of its pool.
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
    chunk: Vec<u8>,
}

impl Conn {
    pub fn open(addr: SocketAddr) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream
            .set_read_timeout(Some(Duration::from_secs(1)))
            .map_err(|e| e.to_string())?;
        Ok(Conn {
            stream,
            buf: Vec::new(),
            chunk: vec![0u8; 256 * 1024],
        })
    }

    /// Sends one GET and reads its response; returns when the request
    /// went out and the reply. Any error leaves the connection unusable.
    pub fn get(
        &mut self,
        target: &str,
        if_none_match: Option<&str>,
    ) -> Result<(Instant, Reply), String> {
        self.stream
            .write_all(&request(target, if_none_match))
            .map_err(|e| format!("send: {e}"))?;
        let sent = Instant::now();
        read_reply(&mut self.stream, &mut self.buf, &mut self.chunk, sent)
            .map(|r| (sent, r))
            .map_err(|e| format!("{target}: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jedule_render::deflate::{deflate_fixed, zlib_compress};

    fn gzip(data: &[u8], flags: u8, extra: &[u8]) -> Vec<u8> {
        let mut out = vec![0x1f, 0x8b, 8, flags, 0, 0, 0, 0, 0, 255];
        out.extend_from_slice(extra);
        out.extend_from_slice(&deflate_fixed(data));
        out.extend_from_slice(&jedule_render::png::crc32(data).to_le_bytes());
        out.extend_from_slice(&(data.len() as u32).to_le_bytes());
        out
    }

    const SAMPLE: &[u8] = b"<svg>jedule jedule jedule tiles and more tiles</svg>";

    #[test]
    fn decodes_gzip_with_and_without_header_fields() {
        assert_eq!(gunzip(&gzip(SAMPLE, 0, b"")).unwrap(), SAMPLE);
        // FEXTRA (2-byte length + payload), then FNAME.
        let extra = [3u8, 0, b'a', b'b', b'c', b'f', b'.', b's', 0];
        assert_eq!(gunzip(&gzip(SAMPLE, 4 | 8, &extra)).unwrap(), SAMPLE);
        assert_eq!(decode(Some("gzip"), &gzip(SAMPLE, 0, b"")).unwrap(), SAMPLE);
    }

    #[test]
    fn gzip_checksums_are_verified() {
        let mut bad = gzip(SAMPLE, 0, b"");
        let n = bad.len();
        bad[n - 8] ^= 1;
        assert!(gunzip(&bad).unwrap_err().contains("CRC"));
        let mut short = gzip(SAMPLE, 0, b"");
        let n = short.len();
        short[n - 4] ^= 1;
        assert!(gunzip(&short).unwrap_err().contains("length"));
        assert!(gunzip(b"plain text, not gzip at all").is_err());
    }

    #[test]
    fn decodes_zlib_and_raw_deflate() {
        assert_eq!(
            decode(Some("deflate"), &zlib_compress(SAMPLE)).unwrap(),
            SAMPLE
        );
        assert_eq!(
            decode(Some("deflate"), &deflate_fixed(SAMPLE)).unwrap(),
            SAMPLE
        );
        assert_eq!(decode(None, SAMPLE).unwrap(), SAMPLE);
        assert_eq!(decode(Some("identity"), SAMPLE).unwrap(), SAMPLE);
        assert!(decode(Some("br"), SAMPLE).is_err());
    }

    fn response(status: u16, extra: &str, body: &[u8]) -> Vec<u8> {
        let mut r = format!(
            "HTTP/1.1 {status} X\r\nContent-Length: {}\r\nX-Jedule-Request-Id: 7\r\n{extra}\r\n",
            body.len()
        )
        .into_bytes();
        r.extend_from_slice(body);
        r
    }

    /// Hands out a byte stream `step` bytes per read.
    struct Trickle<'a>(&'a [u8], usize);

    impl Read for Trickle<'_> {
        fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
            let n = self.1.min(self.0.len()).min(out.len());
            out[..n].copy_from_slice(&self.0[..n]);
            self.0 = &self.0[n..];
            Ok(n)
        }
    }

    fn read_all(stream: &[u8], step: usize) -> Result<Reply, String> {
        let mut chunk = vec![0u8; 1024];
        read_reply(
            &mut Trickle(stream, step),
            &mut Vec::new(),
            &mut chunk,
            Instant::now(),
        )
    }

    #[test]
    fn parses_one_response_split_anywhere() {
        let gz = gzip(SAMPLE, 0, b"");
        let plain = response(200, "ETag: \"a-b\"\r\n", b"hello");
        let zipped = response(200, "Content-Encoding: gzip\r\n", &gz);
        for step in 1..=zipped.len() {
            let r = read_all(&plain, step).unwrap();
            assert_eq!(r.body, b"hello", "step {step}");
            assert_eq!(r.etag.as_deref(), Some("\"a-b\""));
            assert_eq!(r.request_id, Some(7));
            assert!(!r.refused);
            let r = read_all(&zipped, step).unwrap();
            assert_eq!(r.body, SAMPLE, "step {step}");
            assert_eq!(r.wire_bytes as usize, zipped.len());
        }
        let not_modified = read_all(b"HTTP/1.1 304 Not Modified\r\nETag: \"a-b\"\r\n\r\n", 5);
        assert!(not_modified.unwrap().body.is_empty());
    }

    #[test]
    fn bytes_after_a_response_are_a_protocol_error() {
        let mut stream = response(200, "", b"hello");
        stream.extend(response(200, "", b"again"));
        let err = read_all(&stream, stream.len()).unwrap_err();
        assert!(err.contains("unexpected bytes"), "{err}");
        // A short body is a closed connection, not a reply.
        let short = response(200, "", b"hello");
        assert!(read_all(&short[..short.len() - 1], 4).is_err());
    }

    #[test]
    fn refusals_are_marked() {
        assert!(read_all(&response(503, "", b"busy"), 8).unwrap().refused);
        assert!(
            read_all(&response(429, "Retry-After: 2\r\n", b""), 8)
                .unwrap()
                .refused
        );
    }

    #[test]
    fn requests_advertise_compression_and_validators() {
        let r = String::from_utf8(request("/x?a=1", Some("\"e\""))).unwrap();
        assert!(r.starts_with("GET /x?a=1 HTTP/1.1\r\n"));
        assert!(r.contains("Accept-Encoding: gzip, deflate\r\n"));
        assert!(r.contains("If-None-Match: \"e\"\r\n"));
        assert!(r.ends_with("\r\n\r\n"));
    }
}
