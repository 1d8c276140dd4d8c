//! Workload generators, back-end servers and measurement utilities.
//!
//! The paper's evaluation drives the FLICK middlebox with ApacheBench-style
//! HTTP clients, libmemcached clients and Hadoop mappers, against Apache
//! web-server back-ends and Memcached servers. This crate provides
//! in-process equivalents running over the simulated network substrate:
//!
//! * [`backends`] — a static HTTP back-end, an in-memory Memcached back-end
//!   and a byte-sink reducer;
//! * [`http`] — a closed-loop HTTP client fleet with persistent and
//!   non-persistent connection modes;
//! * [`memcached`] — a closed-loop Memcached binary-protocol client fleet;
//! * [`hadoop`] — mapper emitters producing wordcount key/value streams over
//!   rate-limited (1 Gbps) links;
//! * [`tcp`] — the same closed-loop HTTP fleet over **real** loopback
//!   sockets, for services deployed on the OS transport;
//! * [`metrics`] — throughput/latency recorders (mean, p50/p90/p95/p99).

pub mod backends;
pub mod hadoop;
pub mod http;
pub mod memcached;
pub mod metrics;
pub mod tcp;

pub use metrics::{LatencyRecorder, LatencyStats, RunStats};
