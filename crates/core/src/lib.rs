//! The FLICK public facade.
//!
//! `flick-core` ties the front end, the compiler and the platform runtime
//! together behind one small API: write (or embed) a FLICK program, compile
//! it, deploy it on a [`Platform`], and drive it with traffic over the
//! simulated network substrate.
//!
//! # Examples
//!
//! ```
//! use flick_core::Flick;
//!
//! let source = r#"
//! type pkt: record
//!   tag : integer {signed=false, size=1}
//!   keylen : integer {signed=false, size=2}
//!   key : string {size=keylen}
//!
//! proc Echo: (pkt/pkt client)
//!   client => client
//! "#;
//!
//! let flick = Flick::new(Default::default());
//! let service = flick.compile(source, "Echo").unwrap();
//! let deployed = flick.deploy("echo", 9100, service, &[]).unwrap();
//! let client = flick.net().connect(9100).unwrap();
//! client.write_all(&[7, 0, 2, b'h', b'i']).unwrap();
//! let mut buf = [0u8; 5];
//! client.read_exact_timeout(&mut buf, std::time::Duration::from_secs(5)).unwrap();
//! assert_eq!(&buf, &[7, 0, 2, b'h', b'i']);
//! drop(deployed);
//! ```

pub use flick_compiler::{compile, compile_source, CompileError, CompileOptions, CompiledService};
pub use flick_grammar as grammar;
pub use flick_lang as lang;
pub use flick_net as net;
pub use flick_runtime as runtime;
pub use flick_runtime::{GraphFactory, Platform, PlatformConfig, RuntimeError, ServiceSpec};

use flick_net::{SimNetwork, StackModel};
use flick_runtime::dispatcher::DeployedService;
use std::sync::Arc;

/// Top-level error type of the facade.
#[derive(Debug)]
pub enum FlickError {
    /// The FLICK program failed to compile.
    Compile(CompileError),
    /// The platform rejected the deployment.
    Runtime(RuntimeError),
}

impl std::fmt::Display for FlickError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FlickError::Compile(e) => write!(f, "compile error: {e}"),
            FlickError::Runtime(e) => write!(f, "runtime error: {e}"),
        }
    }
}

impl std::error::Error for FlickError {}

impl From<CompileError> for FlickError {
    fn from(e: CompileError) -> Self {
        FlickError::Compile(e)
    }
}

impl From<RuntimeError> for FlickError {
    fn from(e: RuntimeError) -> Self {
        FlickError::Runtime(e)
    }
}

/// The FLICK framework: a running platform plus the compiler entry points.
pub struct Flick {
    platform: Platform,
}

impl std::fmt::Debug for Flick {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Flick")
            .field("platform", &self.platform)
            .finish()
    }
}

impl Flick {
    /// Starts a FLICK platform with the given configuration.
    pub fn new(config: PlatformConfig) -> Self {
        Flick {
            platform: Platform::new(config),
        }
    }

    /// Starts a FLICK platform attached to an existing simulated network
    /// (so that clients, back-ends and the middlebox share one fabric).
    pub fn with_network(config: PlatformConfig, net: Arc<SimNetwork>) -> Self {
        Flick {
            platform: Platform::with_network(config, net),
        }
    }

    /// The underlying platform.
    pub fn platform(&self) -> &Platform {
        &self.platform
    }

    /// The simulated network.
    pub fn net(&self) -> Arc<SimNetwork> {
        self.platform.net()
    }

    /// The transport-stack model in use.
    pub fn stack(&self) -> StackModel {
        self.platform.net().model()
    }

    /// Compiles FLICK source for the named process with the default
    /// [`CompileOptions`].
    pub fn compile(&self, source: &str, process: &str) -> Result<Arc<CompiledService>, FlickError> {
        Ok(compile_source(source, process, &CompileOptions::default())?)
    }

    /// Deploys any graph factory (compiled FLICK program or hand-written
    /// service) on `port` with the given back-end ports.
    pub fn deploy(
        &self,
        name: &str,
        port: u16,
        factory: Arc<dyn GraphFactory>,
        backends: &[u16],
    ) -> Result<DeployedService, FlickError> {
        let spec = ServiceSpec::new(name, port, factory).with_backends(backends.to_vec());
        Ok(self.platform.deploy(spec)?)
    }

    /// Compiles and deploys in one step.
    pub fn run_program(
        &self,
        source: &str,
        process: &str,
        port: u16,
        backends: &[u16],
    ) -> Result<DeployedService, FlickError> {
        let service = self.compile(source, process)?;
        self.deploy(process, port, service, backends)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    const ECHO: &str = r#"
type pkt: record
  tag : integer {signed=false, size=1}
  keylen : integer {signed=false, size=2}
  key : string {size=keylen}

proc Echo: (pkt/pkt client)
  client => client
"#;

    #[test]
    fn compile_and_deploy_roundtrip() {
        let flick = Flick::new(PlatformConfig::default());
        let deployed = flick.run_program(ECHO, "Echo", 9200, &[]).unwrap();
        let client = flick.net().connect(9200).unwrap();
        client.write_all(&[1, 0, 3, b'a', b'b', b'c']).unwrap();
        let mut buf = [0u8; 6];
        client
            .read_exact_timeout(&mut buf, Duration::from_secs(5))
            .unwrap();
        assert_eq!(&buf, &[1, 0, 3, b'a', b'b', b'c']);
        assert_eq!(deployed.connections_accepted(), 1);
    }

    #[test]
    fn compile_error_is_surfaced() {
        let flick = Flick::new(PlatformConfig::default());
        let err = flick
            .compile("fun f: (x: integer) -> (integer)\n  f(x)\n", "P")
            .unwrap_err();
        assert!(matches!(err, FlickError::Compile(_)));
        assert!(err.to_string().contains("recursion"));
    }

    #[test]
    fn stack_model_is_exposed() {
        let flick =
            Flick::with_network(PlatformConfig::default(), SimNetwork::new(StackModel::Mtcp));
        assert_eq!(flick.stack(), StackModel::Mtcp);
    }
}
