//! A minimal keep-alive HTTP/1.1 client for the in-process server.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};

pub struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    pub fn connect(addr: SocketAddr) -> std::io::Result<Client> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Client { writer, reader })
    }

    /// `POST /sparql` with the query text as body, for `tenant`.
    pub fn sparql(&mut self, tenant: &str, text: &str) -> std::io::Result<(u16, String)> {
        let request = format!(
            "POST /sparql HTTP/1.1\r\nHost: bench\r\nX-Tenant: {tenant}\r\n\
             Content-Length: {}\r\n\r\n{text}",
            text.len()
        );
        self.round_trip(request.as_bytes())
    }

    pub fn healthz(&mut self) -> std::io::Result<(u16, String)> {
        self.round_trip(b"GET /healthz HTTP/1.1\r\nHost: bench\r\n\r\n")
    }

    fn round_trip(&mut self, request: &[u8]) -> std::io::Result<(u16, String)> {
        self.writer.write_all(request)?;
        let mut line = String::new();
        self.reader.read_line(&mut line)?;
        let status: u16 = line
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad(format!("bad status line {line:?}")))?;
        let mut length = None;
        loop {
            line.clear();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(bad("connection closed in headers".into()));
            }
            let header = line.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((k, v)) = header.split_once(':') {
                if k.eq_ignore_ascii_case("content-length") {
                    length = v.trim().parse::<usize>().ok();
                }
            }
        }
        let length = length.ok_or_else(|| bad("response without Content-Length".into()))?;
        let mut body = vec![0u8; length];
        self.reader.read_exact(&mut body)?;
        let body = String::from_utf8(body).map_err(|e| bad(e.to_string()))?;
        Ok((status, body))
    }
}

fn bad(msg: String) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg)
}
