//! Unified, validated configuration for every networked component.
//!
//! Server, client, and doctor all construct a
//! [`NetOptions`] through the same builder, so there is exactly one
//! place where knobs are named, defaulted, and validated — no bare
//! positional flags drifting between binaries.
//!
//! Only what a deployment or a caller sets is a field. Socket read
//! chunks, the client's pipeline depth and the server's output-buffer
//! threshold are constants beside the code that uses them.

use clsm_util::error::{Error, Result};

/// Configuration shared by `clsm-server`, the client pool (the
/// `clsm-net` system under test and the benchmark's `net-open` sender)
/// and `clsm-doctor --connect`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetOptions {
    /// Address to bind (server) or connect to (client), e.g.
    /// `127.0.0.1:7878`. Port `0` asks the OS for a free port (the
    /// bound address is reported by the server handle).
    pub addr: String,
    /// Server: number of event-loop worker threads.
    pub workers: usize,
    /// Server: maximum simultaneously accepted connections; further
    /// accepts are refused (closed immediately).
    pub max_connections: usize,
    /// Client: number of pooled connections.
    pub connections: usize,
    /// Largest acceptable frame (length prefix value); larger frames
    /// are a protocol error and fail the connection closed.
    pub max_frame_bytes: usize,
}

impl Default for NetOptions {
    fn default() -> Self {
        NetOptions {
            addr: "127.0.0.1:7878".to_string(),
            workers: 2,
            max_connections: 1024,
            connections: 4,
            max_frame_bytes: 16 * 1024 * 1024,
        }
    }
}

impl NetOptions {
    /// Starts a builder from the defaults.
    pub fn builder() -> NetOptionsBuilder {
        NetOptionsBuilder {
            opts: NetOptions::default(),
        }
    }

    /// Rejects inconsistent configurations. Called by the builder and
    /// again by server/client entry points (options can be constructed
    /// literally).
    pub(crate) fn validate(&self) -> Result<()> {
        fn nonzero(name: &str, v: usize) -> Result<()> {
            if v == 0 {
                return Err(Error::invalid_argument(format!(
                    "NetOptions: {name} must be at least 1"
                )));
            }
            Ok(())
        }
        if self.addr.is_empty() {
            return Err(Error::invalid_argument("NetOptions: addr must be set"));
        }
        nonzero("workers", self.workers)?;
        nonzero("max_connections", self.max_connections)?;
        nonzero("connections", self.connections)?;
        // A frame must at least hold the request id + opcode, and the
        // u32 length prefix bounds it from above.
        if self.max_frame_bytes < crate::frame::MIN_FRAME_BYTES {
            return Err(Error::invalid_argument(format!(
                "NetOptions: max_frame_bytes must be at least {}",
                crate::frame::MIN_FRAME_BYTES
            )));
        }
        if self.max_frame_bytes > u32::MAX as usize {
            return Err(Error::invalid_argument(
                "NetOptions: max_frame_bytes cannot exceed the u32 length prefix",
            ));
        }
        Ok(())
    }
}

/// Validating builder for [`NetOptions`].
#[derive(Debug, Clone)]
pub struct NetOptionsBuilder {
    opts: NetOptions,
}

impl NetOptionsBuilder {
    /// Bind/connect address (`host:port`; port 0 = OS-assigned).
    pub fn addr(mut self, addr: impl Into<String>) -> Self {
        self.opts.addr = addr.into();
        self
    }

    /// Number of server event-loop workers.
    pub fn workers(mut self, n: usize) -> Self {
        self.opts.workers = n;
        self
    }

    /// Maximum simultaneously accepted connections.
    pub fn max_connections(mut self, n: usize) -> Self {
        self.opts.max_connections = n;
        self
    }

    /// Number of pooled client connections.
    pub fn connections(mut self, n: usize) -> Self {
        self.opts.connections = n;
        self
    }

    /// Largest acceptable frame, in bytes.
    pub fn max_frame_bytes(mut self, n: usize) -> Self {
        self.opts.max_frame_bytes = n;
        self
    }

    /// Validates and returns the finished configuration.
    pub fn build(self) -> Result<NetOptions> {
        self.opts.validate()?;
        Ok(self.opts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_round_trips_and_validates() {
        let opts = NetOptions::builder()
            .addr("127.0.0.1:0")
            .workers(3)
            .connections(8)
            .max_connections(16)
            .max_frame_bytes(1 << 20)
            .build()
            .unwrap();
        assert_eq!(opts.addr, "127.0.0.1:0");
        assert_eq!(opts.workers, 3);
        assert_eq!(opts.connections, 8);
        assert_eq!(opts.max_connections, 16);
        assert_eq!(opts.max_frame_bytes, 1 << 20);
    }

    #[test]
    fn invalid_configs_are_rejected() {
        assert!(NetOptions::builder().addr("").build().is_err());
        assert!(NetOptions::builder().workers(0).build().is_err());
        assert!(NetOptions::builder().connections(0).build().is_err());
        assert!(NetOptions::builder().max_connections(0).build().is_err());
        assert!(NetOptions::builder().max_frame_bytes(4).build().is_err());
        assert!(NetOptions::builder()
            .max_frame_bytes(u32::MAX as usize + 1)
            .build()
            .is_err());
        // Every rejection is the typed InvalidArgument kind.
        let err = NetOptions::builder().workers(0).build().unwrap_err();
        assert_eq!(err.kind(), clsm_util::error::ErrorKind::InvalidArgument);
    }
}
