//! A small blocking client for the daemon's framed protocol.
//!
//! Used by the `daemon` bench driver and the integration tests; thin enough
//! that any other implementation of the wire format (see `docs/PROTOCOL.md`)
//! interoperates.

use std::net::{TcpStream, ToSocketAddrs};

use crate::protocol::{encode_named, op, read_frame, write_frame};

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// The socket failed.
    Io(std::io::Error),
    /// The server replied with a `-` error line.
    Server(String),
    /// The server's reply violated the protocol (no `+`/`-` prefix, early
    /// close, non-UTF-8 text).
    Protocol(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "client I/O failed: {e}"),
            ClientError::Server(msg) => write!(f, "server error: {msg}"),
            ClientError::Protocol(msg) => write!(f, "protocol violation: {msg}"),
        }
    }
}

impl std::error::Error for ClientError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClientError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// A blocking connection to a daemon.
#[derive(Debug)]
pub struct Client {
    stream: TcpStream,
}

impl Client {
    /// Connects and, when `label` is non-empty, sends the hello frame naming
    /// this connection for metrics and access logs.
    ///
    /// # Errors
    ///
    /// Connection failure, or any error reply to the hello.
    pub fn connect(addr: impl ToSocketAddrs, label: &str) -> Result<Self, ClientError> {
        let stream = TcpStream::connect(addr)?;
        // A frame goes out as two writes (length, then payload); without
        // TCP_NODELAY the payload waits for the peer's delayed ACK.
        stream.set_nodelay(true)?;
        let mut client = Client { stream };
        if !label.is_empty() {
            let mut payload = vec![op::HELLO];
            payload.extend_from_slice(label.as_bytes());
            client.round_trip(&payload)?;
        }
        Ok(client)
    }

    fn send(&mut self, payload: &[u8]) -> Result<(), ClientError> {
        write_frame(&mut self.stream, payload)?;
        Ok(())
    }

    /// Sends `payload` and returns the text of the `+` reply (without the
    /// sign byte); a `-` reply becomes [`ClientError::Server`].
    fn round_trip(&mut self, payload: &[u8]) -> Result<String, ClientError> {
        self.send(payload)?;
        let reply = read_frame(&mut self.stream)?
            .ok_or_else(|| ClientError::Protocol("server closed before replying".into()))?;
        let text = String::from_utf8(reply)
            .map_err(|_| ClientError::Protocol("non-UTF-8 reply".into()))?;
        match text.as_bytes().first() {
            Some(b'+') => Ok(text[1..].to_string()),
            Some(b'-') => Err(ClientError::Server(text[1..].to_string())),
            _ => Err(ClientError::Protocol(format!("reply without sign byte: {text:?}"))),
        }
    }

    /// Begins a streaming session bound to `grammar` (pinning its current
    /// version); returns the server's `ok v=<version> g=<generation>` line.
    ///
    /// # Errors
    ///
    /// Unknown grammar names and wire failures.
    pub fn begin(&mut self, grammar: &str) -> Result<String, ClientError> {
        let mut payload = vec![op::BEGIN];
        payload.extend_from_slice(grammar.as_bytes());
        self.round_trip(&payload)
    }

    /// Streams one chunk of input bytes into the open session (no reply;
    /// chunks may split UTF-8 sequences anywhere).
    ///
    /// # Errors
    ///
    /// Wire failures.
    pub fn data(&mut self, chunk: &[u8]) -> Result<(), ClientError> {
        let mut payload = Vec::with_capacity(1 + chunk.len());
        payload.push(op::DATA);
        payload.extend_from_slice(chunk);
        self.send(&payload)
    }

    /// Ends the streamed input and returns the verdict. The session resets
    /// and stays bound to the same pinned grammar.
    ///
    /// # Errors
    ///
    /// Wire failures, or `-no-session` when nothing was begun.
    pub fn end(&mut self) -> Result<bool, ClientError> {
        let reply = self.round_trip(&[op::END])?;
        match reply.as_str() {
            "accept" => Ok(true),
            "reject" => Ok(false),
            other => Err(ClientError::Protocol(format!("unexpected verdict {other:?}"))),
        }
    }

    /// One-shot recognition of `input` against the current version of
    /// `grammar` (raw-input semantics: token-mode grammars tokenize).
    ///
    /// # Errors
    ///
    /// Unknown grammar names and wire failures.
    pub fn recognize(&mut self, grammar: &str, input: &str) -> Result<bool, ClientError> {
        let reply = self.round_trip(&encode_named(op::QUERY, grammar, input.as_bytes()))?;
        match reply.as_str() {
            "accept" => Ok(true),
            "reject" => Ok(false),
            other => Err(ClientError::Protocol(format!("unexpected verdict {other:?}"))),
        }
    }

    /// Fetches an admin endpoint (`/healthz`, `/metrics`, `/grammars`) and
    /// returns its body.
    ///
    /// # Errors
    ///
    /// Unknown endpoints and wire failures.
    pub fn admin(&mut self, path: &str) -> Result<String, ClientError> {
        let mut payload = vec![op::ADMIN];
        payload.extend_from_slice(path.as_bytes());
        self.round_trip(&payload)
    }

    /// Publishes (hot-reloads) an artifact document under `grammar`; returns
    /// the server's `ok v=<version> g=<generation>` line.
    ///
    /// # Errors
    ///
    /// Malformed artifacts ([`ClientError::Server`]), oversized documents
    /// (frames are capped at [`crate::MAX_FRAME_LEN`]), wire failures.
    pub fn publish(&mut self, grammar: &str, artifact_json: &str) -> Result<String, ClientError> {
        self.round_trip(&encode_named(op::PUBLISH, grammar, artifact_json.as_bytes()))
    }
}
