//! A minimal blocking HTTP client connection over the wire layer.
//!
//! The client bits every tier shares: the `mds-load` generator, the
//! cluster gateway's batch dispatch, and its health prober all speak to an
//! `mds-serve` backend through this one type, so connect timeouts,
//! socket options, and response parsing behave identically everywhere.
//!
//! A [`Connection`] owns one TCP stream plus the carry-buffer
//! [`ResponseReader`](crate::http::ResponseReader), so back-to-back
//! keep-alive requests on the same connection never lose pipelined
//! bytes. Connections are cheap to reopen; callers that pool them (the
//! gateway) must treat a send error on a *reused* connection as "the
//! server idled us out" and retry once on a fresh one before declaring
//! the backend unhealthy.

use crate::http::{self, ClientResponse, ReadError};
use std::io::{self, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// One client connection: TCP stream + response carry buffer.
#[derive(Debug)]
pub struct Connection {
    stream: TcpStream,
    reader: http::ResponseReader,
    requests_sent: u64,
}

impl Connection {
    /// Connects to `addr` (`host:port`), bounding the connect itself by
    /// `connect_timeout` and every subsequent read/write by `io_timeout`.
    pub fn connect(
        addr: &str,
        connect_timeout: Duration,
        io_timeout: Duration,
    ) -> io::Result<Connection> {
        let resolved = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "address resolved empty"))?;
        let stream = TcpStream::connect_timeout(&resolved, connect_timeout)?;
        stream.set_read_timeout(Some(io_timeout))?;
        stream.set_write_timeout(Some(io_timeout))?;
        stream.set_nodelay(true)?;
        Ok(Connection {
            stream,
            reader: http::ResponseReader::new(),
            requests_sent: 0,
        })
    }

    /// Whether this connection has carried at least one request already
    /// (a send failure on such a connection may just mean the server
    /// idled it out — retry once on a fresh connection).
    pub fn is_reused(&self) -> bool {
        self.requests_sent > 0
    }

    /// Sends one request and reads the full response.
    pub fn send(
        &mut self,
        method: &str,
        target: &str,
        body: &[u8],
    ) -> Result<ClientResponse, ReadError> {
        http::write_request(&mut self.stream, method, target, body).map_err(map_write_error)?;
        self.requests_sent += 1;
        self.reader.read_response(&mut self.stream)
    }

    /// Whether the server told us to close after the given response.
    pub fn must_close(response: &ClientResponse) -> bool {
        matches!(
            response.header("connection"),
            Some(v) if v.eq_ignore_ascii_case("close")
        )
    }

    /// The underlying stream (the load generator adjusts timeouts).
    pub fn stream_mut(&mut self) -> &mut TcpStream {
        &mut self.stream
    }
}

fn map_write_error(e: io::Error) -> ReadError {
    match e.kind() {
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => ReadError::TimedOut,
        io::ErrorKind::UnexpectedEof
        | io::ErrorKind::ConnectionReset
        | io::ErrorKind::BrokenPipe => ReadError::Closed,
        _ => ReadError::Io(e),
    }
}

/// One-shot request: connect, send, read, close. Health probes and tests.
pub fn request_once(
    addr: &str,
    method: &str,
    target: &str,
    body: &[u8],
    timeout: Duration,
) -> Result<ClientResponse, ReadError> {
    let mut conn = Connection::connect(addr, timeout, timeout).map_err(ReadError::Io)?;
    let response = conn.send(method, target, body)?;
    // Be a polite HTTP citizen on one-shots: half-close our side so the
    // server's reader sees EOF instead of a reset.
    let _ = conn.stream.shutdown(std::net::Shutdown::Write);
    Ok(response)
}

impl Write for Connection {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.stream.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.stream.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::{Limits, Response};
    use std::io::Read;
    use std::net::TcpListener;

    /// A tiny single-request echo server on an ephemeral port.
    fn one_shot_server(response: Response) -> (String, std::thread::JoinHandle<String>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let handle = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let request = http::read_request(&mut stream, Limits::default()).unwrap();
            response.write_to(&mut stream, false).unwrap();
            request.target
        });
        (addr, handle)
    }

    #[test]
    fn connection_round_trips_a_request() {
        let (addr, server) = one_shot_server(Response::json(200, r#"{"ok":true}"#));
        let mut conn =
            Connection::connect(&addr, Duration::from_secs(5), Duration::from_secs(5)).unwrap();
        assert!(!conn.is_reused());
        let response = conn.send("GET", "/ping", b"").unwrap();
        assert!(conn.is_reused());
        assert_eq!(response.status, 200);
        assert_eq!(response.body, br#"{"ok":true}"#);
        assert!(Connection::must_close(&response));
        assert_eq!(server.join().unwrap(), "/ping");
    }

    #[test]
    fn request_once_closes_cleanly() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let _ = http::read_request(&mut stream, Limits::default()).unwrap();
            Response::text(200, "pong")
                .write_to(&mut stream, false)
                .unwrap();
            // After our write-shutdown the server's next read sees EOF.
            let mut rest = Vec::new();
            stream.read_to_end(&mut rest).unwrap()
        });
        let response = request_once(&addr, "GET", "/x", b"", Duration::from_secs(5)).unwrap();
        assert_eq!(response.status, 200);
        assert_eq!(server.join().unwrap(), 0);
    }

    #[test]
    fn connect_to_a_dead_port_errors_fast() {
        // Bind-then-drop guarantees the port is closed.
        let addr = {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            listener.local_addr().unwrap().to_string()
        };
        let err = Connection::connect(
            &addr,
            Duration::from_millis(500),
            Duration::from_millis(500),
        );
        assert!(err.is_err());
    }
}
