//! The wire a harness's clients and back-ends use.
//!
//! The paper drives kernel TCP and mTCP with the same clients (§6); here
//! every generator and back-end is written once over [`Endpoint`] and
//! [`Listener`] and takes a [`Fabric`] to say which transport carries it.

use flick_net::listener::ConnectOptions;
use flick_net::{Endpoint, Listener, NetError, NetStats, SimNetwork, TcpStack};
use std::sync::Arc;

/// One transport for a harness's clients and back-ends: the simulated
/// network a platform is attached to, or kernel sockets on loopback.
///
/// A kernel fabric has a [`TcpStack`] of its own, never the platform's, so
/// the platform's [`NetStats`] count only the platform's own calls; a sim
/// fabric's stats count every endpoint on the network.
#[derive(Clone, Debug)]
pub enum Fabric {
    /// The simulated network, charged by its cost model.
    Sim(Arc<SimNetwork>),
    /// Kernel sockets on `127.0.0.1`, through the harness's own stack.
    Kernel(Arc<TcpStack>),
}

impl Fabric {
    /// Kernel sockets through a fresh stack.
    pub fn kernel() -> Fabric {
        Fabric::Kernel(TcpStack::new())
    }

    /// Connects to `port`.
    pub fn connect(&self, port: u16) -> Result<Endpoint, NetError> {
        self.connect_with(port, &ConnectOptions::default())
    }

    /// Connects to `port` over a link shaped by `options`. Link rates and
    /// buffer sizes are the sim's: a kernel socket's are the kernel's, and
    /// `options` leaves one unchanged.
    pub fn connect_with(&self, port: u16, options: &ConnectOptions) -> Result<Endpoint, NetError> {
        match self {
            Fabric::Sim(net) => net.connect_with(port, options),
            Fabric::Kernel(stack) => stack.connect(&loopback(port)),
        }
    }

    /// Binds a listener to `port`; on the kernel, port 0 picks an
    /// ephemeral port ([`Listener::port`] reads it back).
    pub fn listen(&self, port: u16) -> Result<Listener, NetError> {
        match self {
            Fabric::Sim(net) => net.listen(port).map(Listener::from),
            Fabric::Kernel(stack) => stack.listen(&loopback(port)).map(Listener::from),
        }
    }

    /// The counters of this fabric's endpoints.
    pub fn stats(&self) -> &Arc<NetStats> {
        match self {
            Fabric::Sim(net) => net.stats(),
            Fabric::Kernel(stack) => stack.stats(),
        }
    }

    /// `true` for kernel sockets.
    pub fn is_kernel(&self) -> bool {
        matches!(self, Fabric::Kernel(_))
    }
}

/// The loopback socket address of kernel port `port`.
pub fn loopback(port: u16) -> String {
    format!("127.0.0.1:{port}")
}

impl From<&Arc<SimNetwork>> for Fabric {
    fn from(net: &Arc<SimNetwork>) -> Self {
        Fabric::Sim(Arc::clone(net))
    }
}

impl From<&Fabric> for Fabric {
    fn from(fabric: &Fabric) -> Self {
        fabric.clone()
    }
}
