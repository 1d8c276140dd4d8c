//! The testbed every platform-driving experiment stands on.
//!
//! A [`Testbed`] is one simulated fabric on a chosen cost model with a FLICK
//! platform attached (or, for the baseline proxies, nothing attached), the
//! back-ends started behind it and the services deployed on it — on the
//! fabric, on real kernel sockets, or both at once for a within-run
//! tcp-vs-sim ratio. [`Testbed::http_load`] is the one closed-loop load
//! call of the HTTP family and [`HttpPoint`] its one parameter struct;
//! the experiment runners in [`crate::experiments`] differ only in what
//! they deploy and which counters they read back.

use flick_net::{SimNetwork, StackModel};
use flick_runtime::{GraphFactory, Platform, PlatformConfig, ServiceSpec};
use flick_services::baselines::BaselineHandle;
use flick_workload::backends::{
    start_http_backend, start_tcp_http_backend, BackendHandle, TcpBackendHandle,
};
use flick_workload::http::{run_http_load, HttpLoadConfig};
use flick_workload::tcp::{run_tcp_http_load, TcpHttpLoadConfig};
use flick_workload::RunStats;
use std::sync::Arc;
use std::time::Duration;

/// The response body of every HTTP experiment (the paper's 137 bytes).
pub const BODY: [u8; 137] = [b'x'; 137];

/// The fabric port HTTP services listen on.
pub const HTTP_PORT: u16 = 8080;

/// The first fabric port of a service's HTTP back-ends.
const HTTP_BACKEND_PORT: u16 = 8200;

/// Which wire a leg of an experiment crosses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transport {
    /// The simulated fabric, charged by its cost model.
    Sim,
    /// Real kernel sockets on loopback.
    Tcp,
}

/// Where clients reach a service on the testbed.
#[derive(Debug, Clone, Copy)]
pub struct Target {
    /// The wire the service listens on.
    pub transport: Transport,
    /// Its fabric port, or its loopback TCP port.
    pub port: u16,
}

impl Target {
    /// The loopback socket address of a [`Transport::Tcp`] target.
    pub fn addr(&self) -> String {
        format!("127.0.0.1:{}", self.port)
    }
}

/// One point of the closed-loop HTTP family: how the middlebox is sized
/// and how hard the client fleet drives it. Experiments that need a
/// further axis (an idle or stalled population) take it as an argument.
#[derive(Debug, Clone)]
pub struct HttpPoint {
    /// Closed-loop client connections, each with one request outstanding.
    pub concurrency: usize,
    /// Persistent (keep-alive) or one connection per request.
    pub persistent: bool,
    /// Measurement duration of one load run.
    pub duration: Duration,
    /// Worker threads / cores for the middlebox.
    pub workers: usize,
    /// Platform shards (`0` = auto, see [`PlatformConfig::shards`]).
    pub shards: usize,
    /// Back-end web servers behind a load balancer.
    pub backends: usize,
}

impl Default for HttpPoint {
    fn default() -> Self {
        HttpPoint {
            concurrency: 16,
            persistent: true,
            duration: Duration::from_millis(400),
            workers: 4,
            shards: 0,
            backends: 4,
        }
    }
}

impl HttpPoint {
    /// This point's fleet as a kernel-socket load configuration.
    pub fn tcp_load(&self, timeout: Duration) -> TcpHttpLoadConfig {
        TcpHttpLoadConfig {
            concurrency: self.concurrency,
            duration: self.duration,
            persistent: self.persistent,
            timeout,
        }
    }
}

/// Per-request patience of the closed-loop fleets.
const REQUEST_TIMEOUT: Duration = Duration::from_secs(5);

/// One fabric, the platform attached to it, and everything started on
/// either. Fields drop in declaration order: services stop before the
/// platform joins its dispatchers, and the back-ends outlive both.
pub struct Testbed {
    services: Vec<flick_runtime::DeployedService>,
    platform: Option<Platform>,
    proxy: Option<BaselineHandle>,
    sim_backends: Vec<BackendHandle>,
    tcp_backends: Vec<TcpBackendHandle>,
    net: Arc<SimNetwork>,
}

impl Testbed {
    /// A fabric on `model` with a FLICK platform of `workers` threads over
    /// `shards` shards attached.
    pub fn new(model: StackModel, workers: usize, shards: usize) -> Self {
        let mut bed = Testbed::baseline(model);
        bed.platform = Some(Platform::with_network(
            PlatformConfig { workers, shards },
            Arc::clone(&bed.net),
        ));
        bed
    }

    /// A fabric on `model` with no platform: the stage for a baseline
    /// proxy ([`Testbed::front_with`]), which brings its own threads.
    pub fn baseline(model: StackModel) -> Self {
        Testbed {
            services: Vec::new(),
            platform: None,
            proxy: None,
            sim_backends: Vec::new(),
            tcp_backends: Vec::new(),
            net: SimNetwork::new(model),
        }
    }

    /// The simulated fabric.
    pub fn net(&self) -> &Arc<SimNetwork> {
        &self.net
    }

    /// The FLICK platform.
    ///
    /// # Panics
    ///
    /// Panics on a [`Testbed::baseline`] testbed.
    pub fn platform(&self) -> &Platform {
        self.platform
            .as_ref()
            .expect("a baseline testbed runs no FLICK platform")
    }

    /// Starts `count` back-ends with `start` on consecutive fabric ports
    /// from `first_port` and returns their ports.
    pub fn sim_backends(
        &mut self,
        count: usize,
        first_port: u16,
        start: impl Fn(&Arc<SimNetwork>, u16) -> BackendHandle,
    ) -> Vec<u16> {
        let ports: Vec<u16> = (0..count).map(|i| first_port + i as u16).collect();
        self.sim_backends
            .extend(ports.iter().map(|port| start(&self.net, *port)));
        ports
    }

    /// Starts `count` HTTP back-ends serving [`BODY`] on the fabric.
    pub fn http_backends(&mut self, count: usize) -> Vec<u16> {
        self.sim_backends(count, HTTP_BACKEND_PORT, |net, port| {
            start_http_backend(net, port, &BODY)
        })
    }

    /// Requests each kernel-socket back-end has served (hash distribution
    /// sanity).
    pub fn tcp_backend_requests(&self) -> Vec<u64> {
        self.tcp_backends
            .iter()
            .map(|backend| backend.requests_served())
            .collect()
    }

    /// Deploys `spec` on `transport` (an ephemeral loopback port for
    /// [`Transport::Tcp`]) and keeps it running until the testbed drops.
    pub fn deploy(&mut self, transport: Transport, spec: ServiceSpec) -> Target {
        let name = spec.name.clone();
        let service = match transport {
            Transport::Sim => self.platform().deploy(spec),
            Transport::Tcp => self.platform().deploy_tcp(spec, "127.0.0.1:0"),
        }
        .unwrap_or_else(|e| panic!("deploy {name}: {e}"));
        let port = service.port();
        self.services.push(service);
        Target { transport, port }
    }

    /// Deploys an HTTP service on `transport` in front of `backends` fresh
    /// HTTP back-ends on the same transport: simulated clients reach
    /// simulated back-ends, and on [`Transport::Tcp`] every hop of
    /// `client → service → backend` crosses a real kernel socket.
    pub fn deploy_http(
        &mut self,
        transport: Transport,
        name: &str,
        factory: Arc<dyn GraphFactory>,
        backends: usize,
    ) -> Target {
        let spec = ServiceSpec::new(name, HTTP_PORT, factory);
        let spec = match transport {
            Transport::Sim => spec.with_backends(self.http_backends(backends)),
            Transport::Tcp => {
                let first = self.tcp_backends.len();
                self.tcp_backends
                    .extend((0..backends).map(|_| start_tcp_http_backend(&BODY)));
                let addrs = self.tcp_backends[first..].iter();
                spec.with_tcp_backends(addrs.map(|b| b.addr().to_string()).collect())
            }
        };
        self.deploy(transport, spec)
    }

    /// Fronts fabric port `port` with a baseline proxy, started by
    /// `start(net, port)`.
    pub fn front_with(
        &mut self,
        port: u16,
        start: impl FnOnce(&Arc<SimNetwork>, u16) -> BaselineHandle,
    ) -> Target {
        self.proxy = Some(start(&self.net, port));
        Target {
            transport: Transport::Sim,
            port,
        }
    }

    /// Runs the closed-loop HTTP fleet of `point` against `target`: each
    /// client keeps exactly one request outstanding, as ApacheBench does.
    pub fn http_load(&self, target: Target, point: &HttpPoint) -> RunStats {
        match target.transport {
            Transport::Sim => self.hostile_http_load(target.port, point, 0.0),
            Transport::Tcp => run_tcp_http_load(&target.addr(), &point.tcp_load(REQUEST_TIMEOUT)),
        }
    }

    /// [`Testbed::http_load`] against fabric port `port` with
    /// `hostile_ratio` of the fleet's requests replaced by malformed
    /// frames (only the fabric fleet sends them).
    pub fn hostile_http_load(&self, port: u16, point: &HttpPoint, hostile_ratio: f64) -> RunStats {
        run_http_load(
            &self.net,
            &HttpLoadConfig {
                port,
                concurrency: point.concurrency,
                duration: point.duration,
                persistent: point.persistent,
                timeout: REQUEST_TIMEOUT,
                hostile_ratio,
                ..Default::default()
            },
        )
    }
}
