//! The testbed every platform-driving experiment stands on.
//!
//! A [`Testbed`] is one simulated fabric on a chosen cost model with a FLICK
//! platform attached (or, for the baseline proxies, nothing attached), the
//! back-ends started behind it and the services deployed on it — on the
//! simulated fabric, on kernel sockets, or both at once for a within-run
//! tcp-vs-sim ratio. Clients and back-ends are the same programs on either
//! [`Fabric`]; the kernel ones share a stack of the testbed's own, so the
//! platform's counters keep counting only the platform.
//! [`Testbed::http_load`] is the one closed-loop load call of the HTTP
//! family and [`HttpPoint`] its one parameter struct; the experiment
//! runners in [`crate::experiments`] differ only in what they deploy and
//! which counters they read back.

use flick_net::{NetStats, SimNetwork, StackModel, TcpStack};
use flick_runtime::{GraphFactory, Platform, PlatformConfig, ServiceSpec};
use flick_services::baselines::BaselineHandle;
use flick_workload::backends::{start_http_backend, BackendHandle};
use flick_workload::fabric::loopback;
use flick_workload::http::{run_http_load, HttpLoadConfig};
use flick_workload::{Fabric, RunStats};
use std::sync::Arc;
use std::time::Duration;

/// The response body of every HTTP experiment (the paper's 137 bytes).
pub const BODY: [u8; 137] = [b'x'; 137];

/// The fabric port HTTP services listen on.
pub const HTTP_PORT: u16 = 8080;

/// The first fabric port of a service's HTTP back-ends.
const HTTP_BACKEND_PORT: u16 = 8200;

/// Where clients reach a service on the testbed.
#[derive(Debug, Clone)]
pub struct Target {
    /// The fabric the service listens on.
    pub fabric: Fabric,
    /// Its port there.
    pub port: u16,
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
    /// This point's fleet against `port`, each request given 5 s.
    pub fn load(&self, port: u16) -> HttpLoadConfig {
        HttpLoadConfig {
            port,
            concurrency: self.concurrency,
            duration: self.duration,
            persistent: self.persistent,
            timeout: Duration::from_secs(5),
            ..Default::default()
        }
    }
}

/// One fabric, the platform attached to it, and everything started on
/// either. Fields drop in declaration order: services stop before the
/// platform joins its dispatchers, and the back-ends outlive both.
pub struct Testbed {
    services: Vec<flick_runtime::DeployedService>,
    platform: Option<Platform>,
    proxy: Option<BaselineHandle>,
    backends: Vec<BackendHandle>,
    net: Arc<SimNetwork>,
    /// The stack of the kernel clients and back-ends.
    stack: Arc<TcpStack>,
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
            backends: Vec::new(),
            net: SimNetwork::new(model),
            stack: TcpStack::new(),
        }
    }

    /// The simulated fabric.
    pub fn sim(&self) -> Fabric {
        Fabric::Sim(Arc::clone(&self.net))
    }

    /// Kernel sockets, through the testbed's own stack.
    pub fn kernel(&self) -> Fabric {
        Fabric::Kernel(Arc::clone(&self.stack))
    }

    /// The simulated network.
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

    /// The counters of the platform's own sockets on `fabric`: on the sim
    /// they count every endpoint of the network, clients' and back-ends'
    /// too; on the kernel, the platform's stack alone.
    pub fn platform_stats(&self, fabric: &Fabric) -> Arc<NetStats> {
        match fabric {
            Fabric::Sim(net) => Arc::clone(net.stats()),
            Fabric::Kernel(_) => Arc::clone(self.platform().tcp_stack().stats()),
        }
    }

    /// Starts `count` back-ends with `start` on `fabric` and returns their
    /// ports: consecutive from `first_port` on the sim, ephemeral on the
    /// kernel.
    pub fn backends(
        &mut self,
        fabric: &Fabric,
        count: usize,
        first_port: u16,
        start: impl Fn(&Fabric, u16) -> BackendHandle,
    ) -> Vec<u16> {
        (0..count)
            .map(|i| {
                let port = if fabric.is_kernel() {
                    0
                } else {
                    first_port + i as u16
                };
                let backend = start(fabric, port);
                let port = backend.port();
                self.backends.push(backend);
                port
            })
            .collect()
    }

    /// Starts `count` HTTP back-ends serving [`BODY`] on `fabric`.
    pub fn http_backends(&mut self, fabric: &Fabric, count: usize) -> Vec<u16> {
        self.backends(fabric, count, HTTP_BACKEND_PORT, |fabric, port| {
            start_http_backend(fabric, port, &BODY)
        })
    }

    /// Requests each back-end has served, in start order (hash
    /// distribution sanity).
    pub fn backend_requests(&self) -> Vec<u64> {
        self.backends
            .iter()
            .map(|backend| backend.requests_served())
            .collect()
    }

    /// Deploys `spec` on `fabric` (an ephemeral port on the kernel) in
    /// front of `backends`, ports on the same fabric, and keeps it running
    /// until the testbed drops.
    pub fn deploy(&mut self, fabric: &Fabric, spec: ServiceSpec, backends: Vec<u16>) -> Target {
        let name = spec.name.clone();
        let service = match fabric {
            Fabric::Sim(_) => self.platform().deploy(spec.with_backends(backends)),
            Fabric::Kernel(_) => {
                let addrs = backends.into_iter().map(loopback).collect();
                let spec = spec.with_tcp_backends(addrs);
                self.platform().deploy_tcp(spec, &loopback(0))
            }
        }
        .unwrap_or_else(|e| panic!("deploy {name}: {e}"));
        let port = service.port();
        self.services.push(service);
        Target {
            fabric: fabric.clone(),
            port,
        }
    }

    /// Deploys an HTTP service on `fabric` in front of `backends` fresh
    /// HTTP back-ends on the same fabric: on the kernel every hop of
    /// `client → service → backend` crosses a real socket.
    pub fn deploy_http(
        &mut self,
        fabric: &Fabric,
        name: &str,
        factory: Arc<dyn GraphFactory>,
        backends: usize,
    ) -> Target {
        let ports = self.http_backends(fabric, backends);
        self.deploy(fabric, ServiceSpec::new(name, HTTP_PORT, factory), ports)
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
            fabric: self.sim(),
            port,
        }
    }

    /// Runs the closed-loop HTTP fleet of `point` against `target`: each
    /// client keeps exactly one request outstanding, as ApacheBench does.
    pub fn http_load(&self, target: &Target, point: &HttpPoint) -> RunStats {
        run_http_load(&target.fabric, &point.load(target.port))
    }
}
