//! Unified, validated configuration for every networked component.
//!
//! Server, client, and doctor all construct a
//! [`NetOptions`] through the same builder (mirroring
//! `clsm::Options::builder()`), so there is exactly one place where
//! knobs are named, defaulted, and validated — no bare positional
//! flags drifting between binaries.

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
    /// Client: per-connection cap on in-flight pipelined requests;
    /// senders block once the pipeline is this deep.
    pub pipeline_depth: usize,
    /// Per-connection read buffer chunk, in bytes.
    pub read_buffer_bytes: usize,
    /// Server: once a connection's already-sent response prefix passes
    /// this many bytes its output buffer is compacted, and a peer that
    /// lets 16x this much queue up unread is closed as a slow consumer.
    pub write_buffer_bytes: usize,
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
            pipeline_depth: 64,
            read_buffer_bytes: 64 * 1024,
            write_buffer_bytes: 256 * 1024,
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
    pub fn validate(&self) -> Result<()> {
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
        nonzero("pipeline_depth", self.pipeline_depth)?;
        nonzero("read_buffer_bytes", self.read_buffer_bytes)?;
        nonzero("write_buffer_bytes", self.write_buffer_bytes)?;
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

/// Builder for [`NetOptions`], mirroring `clsm::Options::builder()`.
#[derive(Debug, Clone)]
pub struct NetOptionsBuilder {
    opts: NetOptions,
}

impl NetOptionsBuilder {
    /// Starts from an existing configuration instead of the defaults.
    pub fn from_options(opts: NetOptions) -> Self {
        NetOptionsBuilder { opts }
    }

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

    /// Per-connection in-flight request cap.
    pub fn pipeline_depth(mut self, n: usize) -> Self {
        self.opts.pipeline_depth = n;
        self
    }

    /// Read buffer chunk size, in bytes.
    pub fn read_buffer_bytes(mut self, n: usize) -> Self {
        self.opts.read_buffer_bytes = n;
        self
    }

    /// Output-buffer compaction / slow-consumer threshold, in bytes.
    pub fn write_buffer_bytes(mut self, n: usize) -> Self {
        self.opts.write_buffer_bytes = n;
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
            .pipeline_depth(32)
            .build()
            .unwrap();
        assert_eq!(opts.addr, "127.0.0.1:0");
        assert_eq!(opts.workers, 3);
        assert_eq!(opts.connections, 8);
        assert_eq!(opts.pipeline_depth, 32);
        let same = NetOptionsBuilder::from_options(opts.clone())
            .build()
            .unwrap();
        assert_eq!(same, opts);
    }

    #[test]
    fn invalid_configs_are_rejected() {
        assert!(NetOptions::builder().addr("").build().is_err());
        assert!(NetOptions::builder().workers(0).build().is_err());
        assert!(NetOptions::builder().connections(0).build().is_err());
        assert!(NetOptions::builder().pipeline_depth(0).build().is_err());
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
