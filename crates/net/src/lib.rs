//! The FLICK network substrate.
//!
//! The paper evaluates FLICK on a 10 GbE testbed with two transport stacks:
//! the Linux kernel TCP stack and a modified mTCP user-space stack on DPDK.
//! Neither is available in this reproduction environment, so this crate
//! provides a *simulated* substrate with the properties that matter for the
//! evaluation (see `DESIGN.md` §3, substitution 1):
//!
//! * connections are in-memory full-duplex byte streams
//!   ([`conn::Endpoint`]) with the same non-blocking semantics as sockets;
//! * every socket operation is charged a cost taken from a
//!   [`costs::StackCosts`] model — [`costs::StackModel::Kernel`] and
//!   [`costs::StackModel::Mtcp`] are calibrated from the per-connection and
//!   per-request overhead ratios the paper reports;
//! * links can be rate-limited ([`ratelimit::TokenBucket`]) to model the
//!   1 Gbps client/back-end NICs of the testbed;
//! * [`SimNetwork`] plays the role of the switch fabric: listeners bind to
//!   ports and connects are routed to them;
//! * [`poller::Poller`] is the epoll stand-in: endpoints and listeners
//!   register wakeup slots so consumers block on readiness events instead
//!   of re-scanning idle connections.
//!
//! Compute inside the middlebox is real Rust running on real threads; only
//! the wire is synthetic.
//!
//! Since the OS transport landed the wire can also be real: [`tcp`]
//! provides kernel TCP sockets ([`TcpStack`], [`TcpListener`],
//! [`TcpConn`]) behind the *same* [`Endpoint`]/[`Listener`]/[`Poller`]
//! contract, driven by a process-wide epoll reactor (DESIGN.md §10).
//! Everything above the substrate is transport-blind.
//!
//! # Examples
//!
//! ```
//! use flick_net::{SimNetwork, StackModel};
//!
//! let net = SimNetwork::new(StackModel::Free);
//! let listener = net.listen(8080).unwrap();
//! let client = net.connect(8080).unwrap();
//! let server = listener.accept().unwrap();
//!
//! client.write(b"ping").unwrap();
//! let mut buf = [0u8; 16];
//! let n = server.read(&mut buf).unwrap();
//! assert_eq!(&buf[..n], b"ping");
//! ```

pub mod buf;
pub mod conn;
pub mod costs;
pub mod error;
pub mod listener;
pub mod pipe;
pub mod poller;
pub mod ratelimit;
pub mod rng;
pub mod stats;
mod sys;
pub mod tcp;

pub use buf::SharedBuf;
pub use conn::{Endpoint, SimEndpoint};
pub use costs::{StackCosts, StackModel};
pub use error::NetError;
pub use listener::{Listener, SimListener, SimNetwork};
pub use pipe::{BodyPipe, BODY_PIPE_BYTES};
pub use poller::{Event, Interest, Poller, Readiness, Token};
pub use ratelimit::TokenBucket;
pub use rng::SimRng;
pub use stats::{NetStats, StatsSnapshot};
pub use tcp::{TcpConn, TcpListener, TcpStack};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crate_example_roundtrip() {
        let net = SimNetwork::new(StackModel::Free);
        let listener = net.listen(9000).unwrap();
        let client = net.connect(9000).unwrap();
        let server = listener.accept().unwrap();
        client.write(b"hello").unwrap();
        let mut buf = [0u8; 8];
        let n = server.read(&mut buf).unwrap();
        assert_eq!(&buf[..n], b"hello");
    }
}
