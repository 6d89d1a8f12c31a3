//! A minimal HTTP/1.1 keep-alive client for the `nvp serve` JSON API.
//!
//! One [`Conn`] is one persistent TCP connection; requests on it are
//! serialized. A connection the daemon closed while idle is reopened once.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Socket timeout: a response slower than this is counted as a timeout.
const IO_TIMEOUT: Duration = Duration::from_secs(10);

pub struct Conn {
    addr: SocketAddr,
    stream: Option<BufReader<TcpStream>>,
}

pub struct Response {
    pub status: u16,
    pub body: String,
}

impl Conn {
    pub fn new(addr: SocketAddr) -> Conn {
        Conn { addr, stream: None }
    }

    pub fn get(&mut self, path: &str) -> io::Result<Response> {
        self.request("GET", path, None)
    }

    pub fn post(&mut self, path: &str, body: &str) -> io::Result<Response> {
        self.request("POST", path, Some(body))
    }

    fn request(&mut self, method: &str, path: &str, body: Option<&str>) -> io::Result<Response> {
        let mut raw = format!("{method} {path} HTTP/1.1\r\nhost: bench\r\n");
        if let Some(body) = body {
            raw.push_str("content-type: application/json\r\n");
            raw.push_str(&format!("content-length: {}\r\n\r\n{body}", body.len()));
        } else {
            raw.push_str("\r\n");
        }
        // A reused connection may have been closed by the daemon since the
        // last request; that shows as an error before any response byte,
        // and the request is sent again on a fresh connection.
        let reused = self.stream.is_some();
        match self.exchange(&raw) {
            Err(e) if reused && is_stale_connection(&e) => {
                self.stream = None;
                self.exchange(&raw)
            }
            other => other,
        }
    }

    fn exchange(&mut self, raw: &str) -> io::Result<Response> {
        if self.stream.is_none() {
            let stream = TcpStream::connect_timeout(&self.addr, IO_TIMEOUT)?;
            stream.set_nodelay(true)?;
            stream.set_read_timeout(Some(IO_TIMEOUT))?;
            stream.set_write_timeout(Some(IO_TIMEOUT))?;
            self.stream = Some(BufReader::new(stream));
        }
        let result = self.exchange_on_open(raw);
        if result.is_err() {
            self.stream = None;
        }
        result
    }

    fn exchange_on_open(&mut self, raw: &str) -> io::Result<Response> {
        let reader = self.stream.as_mut().expect("connection opened above");
        reader.get_mut().write_all(raw.as_bytes())?;
        let mut line = String::new();
        if reader.read_line(&mut line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed",
            ));
        }
        let status = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad(&format!("bad status line {line:?}")))?;
        let mut length = 0usize;
        let mut close = false;
        loop {
            line.clear();
            reader.read_line(&mut line)?;
            let header = line.trim_end();
            if header.is_empty() {
                break;
            }
            let (name, value) = header.split_once(':').ok_or_else(|| bad(header))?;
            match name.trim().to_ascii_lowercase().as_str() {
                "content-length" => {
                    length = value.trim().parse().map_err(|_| bad(header))?;
                }
                "connection" => close = value.trim().eq_ignore_ascii_case("close"),
                _ => {}
            }
        }
        let mut body = vec![0; length];
        reader.read_exact(&mut body)?;
        if close {
            self.stream = None;
        }
        let body = String::from_utf8(body).map_err(|_| bad("body is not UTF-8"))?;
        Ok(Response { status, body })
    }
}

fn is_stale_connection(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::UnexpectedEof
            | io::ErrorKind::ConnectionReset
            | io::ErrorKind::ConnectionAborted
            | io::ErrorKind::BrokenPipe
    )
}

fn bad(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what.to_owned())
}
