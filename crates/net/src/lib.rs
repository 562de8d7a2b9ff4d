//! TCP serving layer for the cLSM store.
//!
//! The paper's cLSM is embedded in-process; this crate puts it behind
//! the process boundary production LSM stores live behind. It has
//! three parts:
//!
//! - **Protocol** ([`frame`], [`proto`]): a length-prefixed, pipelined
//!   binary protocol. Every frame is `[u32 len][u64 request id]
//!   [u8 opcode][body]`; the request/response bodies are
//!   serializations of [`clsm_kv::api::Request`] /
//!   [`clsm_kv::api::Response`], so the wire format cannot drift from
//!   the in-process dispatch surface.
//! - **Server** ([`server`]): a poll(2)-based event loop
//!   (vendored-deps-only, so no `mio`) of N worker threads over
//!   nonblocking sockets; each worker accepts its own connections from
//!   the shared listener. Each worker tick drains every readable
//!   connection and dispatches the decoded requests one at a time, in
//!   per-connection order, so a wire put is the store's own put; only
//!   the responses are batched, one socket write per connection per
//!   tick.
//! - **Client** ([`Client`]): a pipelined connection pool and a
//!   [`RemoteStore`] that implements [`clsm_kv::KvStore`], so
//!   the workload driver, the history recorder, and `clsm-check` run
//!   unchanged over TCP and every measured latency is client-observed.
//!
//! Configuration for all of it — server, client, doctor — is one
//! validated [`NetOptions`] builder.

#![warn(missing_docs, unreachable_pub)]

mod client;
pub mod frame;
mod options;
mod poll;
pub mod proto;
pub mod server;

pub use client::{Client, RemoteStore};
pub use options::{NetOptions, NetOptionsBuilder};
pub use server::ServerHandle;
