//! Workload generators, back-end servers and measurement utilities.
//!
//! The paper's evaluation drives the FLICK middlebox with ApacheBench-style
//! HTTP clients, libmemcached clients and Hadoop mappers, against Apache
//! web-server back-ends and Memcached servers, and uses the same clients on
//! every transport stack it compares. This crate provides in-process
//! equivalents, each written once over `Endpoint`/`Listener` and run on a
//! [`Fabric`]: the simulated network or kernel sockets on loopback.
//!
//! * [`fabric`] — the transport handle every generator and back-end takes;
//! * [`backends`] — a static HTTP back-end, an in-memory Memcached back-end
//!   and a byte-sink reducer;
//! * [`http`] — a closed-loop HTTP client fleet with persistent and
//!   non-persistent connection modes, a one-shot fetch, and the c10k
//!   idle-plus-active run;
//! * [`memcached`] — a closed-loop Memcached binary-protocol client fleet;
//! * [`hadoop`] — mapper emitters producing wordcount key/value streams over
//!   rate-limited (1 Gbps) links;
//! * [`metrics`] — throughput/latency recorders (mean, p50/p90/p95/p99).

pub mod backends;
pub mod fabric;
pub mod hadoop;
pub mod http;
pub mod memcached;
pub mod metrics;

pub use fabric::Fabric;
pub use metrics::{LatencyRecorder, LatencyStats, RunStats};
