//! A minimal blocking HTTP/1.1 client for exercising the service.
//!
//! Used by the CLI smoke test, perfbench's `serve_mixed` workload, and
//! the e2e tests — all of which need exactly this much: open a keep-alive
//! connection, send a request, read the status line, headers, and a
//! `Content-Length` body. It is *not* a general HTTP client (no
//! chunked bodies, no redirects) and stays inside the workspace's
//! zero-dependency rule.

use std::io::{Read, Write};
use std::net::TcpStream;

/// A response as the client sees it.
#[derive(Clone, Debug)]
pub struct ClientResponse {
    /// HTTP status code.
    pub status: u16,
    /// Header `(name, value)` pairs, names lowercased.
    pub headers: Vec<(String, String)>,
    /// The response body.
    pub body: Vec<u8>,
}

impl ClientResponse {
    /// First value of header `name` (lowercase), if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// The body as UTF-8 text (lossy).
    pub fn text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

/// A keep-alive connection to the server.
#[derive(Debug)]
pub struct HttpClient {
    stream: TcpStream,
    leftover: Vec<u8>,
}

impl HttpClient {
    /// Connects to `addr` (e.g. `127.0.0.1:8080`).
    pub fn connect(addr: &str) -> std::io::Result<HttpClient> {
        let stream = TcpStream::connect(addr)?;
        // Small request/response exchanges stall badly under Nagle's
        // algorithm; this is a latency-measuring client.
        stream.set_nodelay(true)?;
        Ok(HttpClient {
            stream,
            leftover: Vec::new(),
        })
    }

    /// Sends `GET target` and reads the response.
    pub fn get(&mut self, target: &str) -> std::io::Result<ClientResponse> {
        self.request("GET", target, None)
    }

    /// Sends `GET target` with an `Accept` header — how callers
    /// negotiate the Prometheus text format on `/metrics`.
    pub fn get_accept(&mut self, target: &str, accept: &str) -> std::io::Result<ClientResponse> {
        let wire = format!(
            "GET {target} HTTP/1.1\r\nHost: cooprt\r\nAccept: {accept}\r\nContent-Length: 0\r\n\r\n",
        )
        .into_bytes();
        self.stream.write_all(&wire)?;
        self.stream.flush()?;
        self.read_response()
    }

    /// Sends `POST target` with a JSON body and reads the response.
    pub fn post(&mut self, target: &str, body: &str) -> std::io::Result<ClientResponse> {
        self.request("POST", target, Some(body))
    }

    /// Sends one request on the keep-alive connection.
    pub fn request(
        &mut self,
        method: &str,
        target: &str,
        body: Option<&str>,
    ) -> std::io::Result<ClientResponse> {
        let body = body.unwrap_or("");
        // One write per request (see `Response::write_to` on why).
        let mut wire = format!(
            "{method} {target} HTTP/1.1\r\nHost: cooprt\r\nContent-Length: {}\r\nContent-Type: application/json\r\n\r\n",
            body.len()
        )
        .into_bytes();
        wire.extend_from_slice(body.as_bytes());
        self.stream.write_all(&wire)?;
        self.stream.flush()?;
        self.read_response()
    }

    fn read_response(&mut self) -> std::io::Result<ClientResponse> {
        let bad = |msg: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, msg.to_string());
        // Accumulate to the end of the header block.
        let header_end = loop {
            if let Some(pos) = self.leftover.windows(4).position(|w| w == b"\r\n\r\n") {
                break pos;
            }
            let mut chunk = [0u8; 4096];
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(bad("connection closed mid-response"));
            }
            self.leftover.extend_from_slice(&chunk[..n]);
        };
        let head = std::str::from_utf8(&self.leftover[..header_end])
            .map_err(|_| bad("response headers are not UTF-8"))?
            .to_string();
        let mut lines = head.split("\r\n");
        let status_line = lines.next().ok_or_else(|| bad("empty response"))?;
        let status: u16 = status_line
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("malformed status line"))?;
        let mut headers = Vec::new();
        let mut content_length = 0usize;
        for line in lines {
            if let Some((name, value)) = line.split_once(':') {
                let name = name.to_ascii_lowercase();
                let value = value.trim().to_string();
                if name == "content-length" {
                    content_length = value.parse().map_err(|_| bad("malformed Content-Length"))?;
                }
                headers.push((name, value));
            }
        }
        let body_start = header_end + 4;
        while self.leftover.len() < body_start + content_length {
            let mut chunk = [0u8; 4096];
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(bad("connection closed mid-body"));
            }
            self.leftover.extend_from_slice(&chunk[..n]);
        }
        let body = self.leftover[body_start..body_start + content_length].to_vec();
        self.leftover.drain(..body_start + content_length);
        Ok(ClientResponse {
            status,
            headers,
            body,
        })
    }
}
