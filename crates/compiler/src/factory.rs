//! Assembling compiled FLICK programs into deployable graph factories.
//!
//! A [`CompiledService`] implements the runtime's `GraphFactory` trait. The
//! convention for binding a process signature to the network is:
//!
//! * the **first** channel parameter binds to the inbound client
//!   connection(s) accepted by the application dispatcher (a channel-array
//!   first parameter, as in the Hadoop aggregator, binds to
//!   [`CompileOptions::client_connections`] inbound connections per graph);
//! * every **subsequent** channel parameter binds to outbound back-end
//!   connections: an **array** parameter binds every member of the
//!   service's back-end pool by index (the program routes among them
//!   itself), and each member is opened on the first send to it — a graph
//!   build opens no array member, and a request opens the one it is routed
//!   to ([`flick_runtime::Link`]); a **scalar** parameter takes *one*
//!   routed, health-checked member at build, chosen by the pool's policy
//!   from a hash of the connection identity — the id of the graph's first
//!   client connection (§6.1) — so every message of that connection sticks
//!   to one back-end and an ejected or dead one is passed over. A process
//!   may declare at most one scalar back-end parameter (a second would be
//!   keyed to the same member; [`CompiledService::compile`] rejects it) —
//!   a service that talks to several back-ends declares them as an array.
//!
//! Either way the connection comes from the service's
//! [`flick_runtime::BackendPool`], which counts the checkout, hands out an
//! idle connection an earlier graph parked if it has one, and records a
//! fresh connect's outcome as passive health (DESIGN.md §14). A member that
//! fails to open closes the graph's client connections; requests routed to
//! the other members are unaffected.
//!
//! Every graph is one task per connection, bound with one
//! `GraphBuilder::bind` call. Every rule runs in the task of the
//! connection that parsed its message, with that task's own logic
//! instance, and writes to the graph's connections itself while they are
//! idle (DESIGN.md §5, "Rules run in the reading task"). A `global` is one
//! dictionary per service, shared by every logic instance of every graph.
//! A `foldt` is the same shape: each connection of the folded array runs
//! its own [`FoldtLogic`], and the graph's [`Fold`] merges them as they
//! end.
//!
//! Wire codecs are chosen per record type: synthesised from the type's
//! serialisation annotations when possible, otherwise the framework's
//! reusable Memcached, Hadoop or HTTP grammar, by the conventional record
//! type name (`cmd`, `kv`, `http`/`request`).

use crate::analysis;
use crate::bytecode::{self, CompiledProgram};
use crate::error::CompileError;
use crate::grammar_gen;
use crate::ir::{lower, ProgramIr};
use crate::logic::{
    ChannelBindings, CompiledGlobals, Fold, FoldtLogic, InterpreterLogic, ParamBinding,
};
use crate::vm::VmLogic;
use flick_grammar::{
    hadoop::HadoopKvCodec, http::HttpCodec, memcached::MemcachedCodec, Projection, WireCodec,
};
use flick_lang::TypedProgram;
use flick_net::Endpoint;
use flick_runtime::platform::BuiltGraph;
use flick_runtime::tasks::ExecMode;
use flick_runtime::{
    ComputeLogic, GraphBuilder, GraphFactory, Link, Peer, Reads, RuntimeError, ServiceEnv,
};
use std::sync::Arc;

/// Options controlling compilation and deployment binding.
#[derive(Debug, Clone)]
pub struct CompileOptions {
    /// Number of inbound client connections per graph when the first channel
    /// parameter is an array (e.g. the number of Hadoop mappers).
    pub client_connections: usize,
}

impl Default for CompileOptions {
    fn default() -> Self {
        CompileOptions {
            client_connections: 1,
        }
    }
}

impl CompileOptions {
    /// Sets the number of inbound connections per graph for array-typed
    /// client parameters.
    pub fn with_client_connections(mut self, n: usize) -> Self {
        self.client_connections = n.max(1);
        self
    }
}

/// The framework's reusable grammar for common protocols (§4.2) that the
/// conventional FLICK record type `name` maps onto, for a record without
/// serialisation annotations.
fn builtin_codec(name: &str) -> Option<Arc<dyn WireCodec>> {
    Some(match name {
        "cmd" => Arc::new(MemcachedCodec::new()),
        "kv" => Arc::new(HadoopKvCodec::new()),
        "http" | "request" => Arc::new(HttpCodec::new()),
        _ => return None,
    })
}

/// Per-parameter compiled artefacts.
struct ParamPlan {
    codec: Arc<dyn WireCodec>,
    projection: Projection,
}

/// A compiled FLICK service, deployable on the platform.
pub struct CompiledService {
    program: Arc<ProgramIr>,
    /// The bytecode lowering of `program`, executed when the deployment
    /// environment selects `ExecMode::Vm` (the default).
    compiled: Arc<CompiledProgram>,
    globals: Arc<CompiledGlobals>,
    plans: Vec<ParamPlan>,
    client_connections: usize,
}

impl std::fmt::Debug for CompiledService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompiledService")
            .field("process", &self.program.process.name)
            .finish()
    }
}

impl CompiledService {
    /// Compiles `proc_name` of the typed program.
    pub fn compile(
        typed: &TypedProgram,
        proc_name: &str,
        options: &CompileOptions,
    ) -> Result<Self, CompileError> {
        let program = Arc::new(lower(typed, proc_name)?);
        // One routed pick per graph: every scalar back-end parameter is
        // keyed by the same client id, so a second one would bind the
        // same pool member again instead of a distinct back-end.
        if let Some(second) = program
            .process
            .params
            .iter()
            .skip(1)
            .filter(|param| !param.is_array)
            .nth(1)
        {
            return Err(CompileError::Signature(format!(
                "process `{}` has more than one scalar back-end parameter (`{}`); \
                 declare the back-ends as one array",
                program.process.name, second.name
            )));
        }
        let globals = CompiledGlobals::for_process(&program.process);
        let mut plans = Vec::new();
        let mut layouts: Vec<(String, Vec<String>)> = Vec::new();
        for (idx, param) in program.process.params.iter().enumerate() {
            let record = typed
                .record(&param.record)
                .ok_or_else(|| CompileError::MissingCodec(param.record.clone()))?;
            let codec: Arc<dyn WireCodec> = if grammar_gen::can_synthesise(record) {
                Arc::new(grammar_gen::synthesise(record)?)
            } else if let Some(codec) = builtin_codec(&param.record) {
                codec
            } else {
                return Err(CompileError::MissingCodec(param.record.clone()));
            };
            let declared = record.fields.iter().filter_map(|f| f.name.clone());
            let proj = analysis::projection(&program, idx, declared.clone());
            if !layouts.iter().any(|(name, _)| *name == param.record) {
                // The grammar's field layout for this record, restricted
                // to the fields the projection materialises — the parse
                // order messages of this unit carry at run time. Seeds the
                // VM's field-offset sites (verified per message, so codecs
                // with a different emission order stay correct).
                let fields: Vec<String> = declared.filter(|name| proj.requires(name)).collect();
                layouts.push((param.record.clone(), fields));
            }
            plans.push(ParamPlan {
                codec,
                projection: proj,
            });
        }
        let compiled = Arc::new(bytecode::compile_with_layouts(&program, &layouts));
        Ok(CompiledService {
            program,
            compiled,
            globals,
            plans,
            client_connections: options.client_connections,
        })
    }

    /// This service with `body` in every input's projection, so every body
    /// is read into user space and forwarded from there instead of
    /// streaming through a kernel pipe. The oracle the streamed path is
    /// checked against byte for byte, not a deployment option.
    #[doc(hidden)]
    pub fn with_bodies_buffered(&self) -> Arc<CompiledService> {
        Arc::new(CompiledService {
            program: Arc::clone(&self.program),
            compiled: Arc::clone(&self.compiled),
            globals: CompiledGlobals::for_process(&self.program.process),
            plans: self
                .plans
                .iter()
                .map(|plan| ParamPlan {
                    codec: Arc::clone(&plan.codec),
                    projection: plan.projection.clone().with("body"),
                })
                .collect(),
            client_connections: self.client_connections,
        })
    }

    /// The logic of one input over `bindings`, on the engine `mode` selects
    /// (`ExecMode::Vm` bytecode by default, `ExecMode::Interp` tree-walking
    /// as the ablation baseline): the per-message rules, or one input's
    /// share of the graph's fold.
    fn logic(
        &self,
        bindings: &ChannelBindings,
        fold: Option<&(Arc<Fold>, usize)>,
        mode: ExecMode,
    ) -> Box<dyn ComputeLogic> {
        if let Some((fold, sink)) = fold {
            let program = Arc::clone(&self.program);
            let compiled = (mode == ExecMode::Vm).then(|| Arc::clone(&self.compiled));
            return Box::new(FoldtLogic::new(program, compiled, Arc::clone(fold), *sink));
        }
        match mode {
            ExecMode::Vm => Box::new(VmLogic::new(
                Arc::clone(&self.compiled),
                bindings.clone(),
                Arc::clone(&self.globals),
            )),
            ExecMode::Interp => Box::new(InterpreterLogic::new(
                Arc::clone(&self.program),
                bindings.clone(),
                Arc::clone(&self.globals),
            )),
        }
    }

    /// The projection each input parses its messages with, in parameter
    /// order.
    pub fn projections(&self) -> impl Iterator<Item = &Projection> {
        self.plans.iter().map(|plan| &plan.projection)
    }

    /// The name of the compiled process.
    pub fn process_name(&self) -> &str {
        &self.program.process.name
    }

    /// The lowered program (for inspection and tests).
    pub fn program(&self) -> &Arc<ProgramIr> {
        &self.program
    }

    /// The bytecode lowering of the program (for inspection, benches and
    /// tests).
    pub fn compiled(&self) -> &Arc<CompiledProgram> {
        &self.compiled
    }

    /// The per-service globals.
    pub fn globals(&self) -> &Arc<CompiledGlobals> {
        &self.globals
    }
}

impl GraphFactory for CompiledService {
    fn connections_per_graph(&self) -> usize {
        if self
            .program
            .process
            .params
            .first()
            .map(|p| p.is_array)
            .unwrap_or(false)
        {
            self.client_connections
        } else {
            1
        }
    }

    fn build(&self, clients: Vec<Endpoint>, env: &ServiceEnv) -> Result<BuiltGraph, RuntimeError> {
        let process = &self.program.process;
        // How many endpoints each parameter binds: one per accepted
        // connection (client), every member of the pool by index (back-end
        // array), or one routed healthy member (scalar back-end).
        let counts = process
            .params
            .iter()
            .enumerate()
            .map(|(idx, param)| match idx {
                0 => clients.len(),
                _ if param.is_array => env.backends.len(),
                _ => 1,
            })
            .collect::<Vec<_>>();
        if let Some(param) = process.params.iter().zip(&counts).find(|(_, n)| **n == 0) {
            return Err(RuntimeError::Config(format!(
                "process `{}` parameter `{}` needs more back-ends than configured",
                process.name, param.0.name
            )));
        }
        // The logic's inputs and outputs, numbered in binding order, the
        // inputs and the outputs each on their own count.
        let mut bindings = ChannelBindings::default();
        let (mut inputs, mut outputs) = (0, 0);
        for (param, count) in process.params.iter().zip(&counts) {
            let mut binding = ParamBinding::default();
            for _ in 0..*count {
                if param.dir.readable {
                    binding.inputs.push(inputs);
                    inputs += 1;
                }
                if param.dir.writable {
                    binding.outputs.push(outputs);
                    outputs += 1;
                }
            }
            bindings.params.push(binding);
        }

        let mut builder = GraphBuilder::new(process.name.clone(), &env.allocator);
        // Every rule runs in the task of the connection that parsed its
        // message (DESIGN.md §5); so does a fold, over the array it folds
        // alone (the lowering checked that), and into the one writable
        // channel the lowering checked its sink is.
        let fold = process.foldt.as_ref().map(|foldt| {
            let sink = bindings.params[foldt.sink_param].outputs[0];
            (Fold::new(counts[foldt.source_param]), sink)
        });
        // Shared with every array member: a failed open closes them, the
        // refusal a failed build gives.
        let clients: Arc<[Endpoint]> = Arc::from(clients);

        for (param_idx, (param, count)) in process.params.iter().zip(&counts).enumerate() {
            let plan = &self.plans[param_idx];
            let is_client = param_idx == 0;
            for i in 0..*count {
                let backend;
                let peer = if is_client {
                    Peer::Client(&clients[i])
                } else {
                    backend = if param.is_array {
                        // Opened on the first send to it (DESIGN.md §14).
                        Link::member(Arc::clone(&env.backends), i, Arc::clone(&clients))
                    } else {
                        // Keyed by the identity of the graph's first client
                        // connection, so the connection sticks to its pick.
                        let hint = clients.first().map(|client| client.id() as usize);
                        Link::checkout(Arc::clone(&env.backends), hint)?
                    };
                    Peer::Backend(&backend)
                };
                let reads = param.dir.readable.then(|| Reads {
                    projection: Some(plan.projection.clone()),
                    logic: self.logic(&bindings, fold.as_ref(), env.exec_mode),
                    input: bindings.params[param_idx].inputs[i],
                });
                let node = builder.declare_node();
                let output = builder.bind(
                    node,
                    format!("{}-{i}", param.name),
                    peer,
                    Arc::clone(&plan.codec),
                    reads,
                    param.dir.writable,
                );
                debug_assert_eq!(output, bindings.params[param_idx].outputs.get(i).copied());
            }
        }
        Ok(builder.build())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flick_runtime::{Platform, PlatformConfig, ServiceSpec};
    use std::time::Duration;

    const PROXY: &str = r#"
type cmd: record
  key : string

proc Memcached: (cmd/cmd client, [cmd/cmd] backends)
  backends => client
  client => target_backend(backends)

fun target_backend: ([-/cmd] backends, req: cmd) -> ()
  let target = hash(req.key) mod len(backends)
  req => backends[target]
"#;

    #[test]
    fn compiles_proxy_with_registry_codec() {
        let service =
            crate::compile_source(PROXY, "Memcached", &CompileOptions::default()).unwrap();
        assert_eq!(service.process_name(), "Memcached");
        assert!(service.program().process.foldt.is_none());
        assert_eq!(service.connections_per_graph(), 1);
    }

    #[test]
    fn missing_codec_is_reported() {
        let src = r#"
type custom: record
  key : string

proc P: (custom/custom client)
  client => client
"#;
        let err = crate::compile_source(src, "P", &CompileOptions::default()).unwrap_err();
        assert!(matches!(err, CompileError::MissingCodec(_)));
    }

    #[test]
    fn a_second_scalar_backend_parameter_is_rejected() {
        let src = r#"
type cmd: record
  key : string

proc Tee: (cmd/cmd client, -/cmd left, -/cmd right)
  client => left
  client => right
"#;
        let err = crate::compile_source(src, "Tee", &CompileOptions::default()).unwrap_err();
        assert!(matches!(err, CompileError::Signature(msg) if msg.contains("`right`")));
    }

    #[test]
    fn annotated_types_get_synthesised_codecs() {
        let src = r#"
type pkt: record
  tag : integer {signed=false, size=1}
  keylen : integer {signed=false, size=2}
  key : string {size=keylen}

proc Echo: (pkt/pkt client)
  client => client
"#;
        let service = crate::compile_source(src, "Echo", &CompileOptions::default()).unwrap();
        assert_eq!(service.process_name(), "Echo");
    }

    #[test]
    fn end_to_end_compiled_echo_service() {
        // A FLICK program with a synthesised wire format, deployed on the
        // platform and exercised over the simulated network.
        let src = r#"
type pkt: record
  tag : integer {signed=false, size=1}
  keylen : integer {signed=false, size=2}
  key : string {size=keylen}

proc Echo: (pkt/pkt client)
  client => client
"#;
        let service = crate::compile_source(src, "Echo", &CompileOptions::default()).unwrap();
        let platform = Platform::new(PlatformConfig::default());
        let deployed = platform
            .deploy(ServiceSpec::new("echo", 7100, service))
            .unwrap();
        let net = platform.net();
        let client = net.connect(7100).unwrap();
        // tag=9, key="ping".
        let wire = [9u8, 0, 4, b'p', b'i', b'n', b'g'];
        client.write_all(&wire).unwrap();
        let mut buf = [0u8; 16];
        client
            .read_exact_timeout(&mut buf[..7], Duration::from_secs(5))
            .unwrap();
        assert_eq!(&buf[..7], &wire);
        drop(deployed);
    }

    #[test]
    fn exec_mode_interp_still_serves_end_to_end() {
        // The ablation switch: the same program deployed with
        // `ExecMode::Interp` runs on the tree-walking interpreter and
        // behaves identically on the wire.
        let src = r#"
type pkt: record
  tag : integer {signed=false, size=1}
  keylen : integer {signed=false, size=2}
  key : string {size=keylen}

proc Echo: (pkt/pkt client)
  client => client
"#;
        let service = crate::compile_source(src, "Echo", &CompileOptions::default()).unwrap();
        let platform = Platform::new(PlatformConfig::default());
        let deployed = platform
            .deploy(ServiceSpec::new("echo-interp", 7150, service).with_exec_mode(ExecMode::Interp))
            .unwrap();
        let net = platform.net();
        let client = net.connect(7150).unwrap();
        let wire = [3u8, 0, 2, b'h', b'i'];
        client.write_all(&wire).unwrap();
        let mut buf = [0u8; 8];
        client
            .read_exact_timeout(&mut buf[..5], Duration::from_secs(5))
            .unwrap();
        assert_eq!(&buf[..5], &wire);
        drop(deployed);
    }

    #[test]
    fn vm_mode_service_still_closes_malformed_frames() {
        // §14 behaviour is a property of the parsing layer, not the
        // execution engine: a VM-mode service (the default) fed a hostile
        // length declaration must slam the connection and draw
        // `malformed_closes`, and a clean sibling connection must still be
        // served. The 4-byte length field lets the declaration exceed the
        // 16 MiB per-field parse limit.
        let src = r#"
type pkt: record
  tag : integer {signed=false, size=1}
  keylen : integer {signed=false, size=4}
  key : string {size=keylen}

proc Echo: (pkt/pkt client)
  client => client
"#;
        let service = crate::compile_source(src, "Echo", &CompileOptions::default()).unwrap();
        let platform = Platform::new(PlatformConfig::default());
        let deployed = platform
            .deploy(ServiceSpec::new("echo-vm-hostile", 7151, service))
            .unwrap();
        let net = platform.net();
        let hostile = net.connect(7151).unwrap();
        // tag=1, keylen=0xFFFFFFFF: a 4 GiB key against the 16 MiB cap.
        hostile.write_all(&[1u8, 0xFF, 0xFF, 0xFF, 0xFF]).unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while net.stats().snapshot().malformed_closes < 1 {
            assert!(
                std::time::Instant::now() < deadline,
                "malformed close never recorded in VM mode: {:?}",
                net.stats().snapshot()
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        // The service survives the poison: a well-formed frame on a fresh
        // connection still echoes.
        let clean = net.connect(7151).unwrap();
        let wire = [2u8, 0, 0, 0, 2, b'h', b'i'];
        clean.write_all(&wire).unwrap();
        let mut buf = [0u8; 8];
        clean
            .read_exact_timeout(&mut buf[..7], Duration::from_secs(5))
            .unwrap();
        assert_eq!(&buf[..7], &wire);
        drop(deployed);
    }

    /// An array back-end parameter binds every member of the pool, but a
    /// member is opened — one counted checkout, one connection — only when
    /// a request is first routed to it: a graph over three back-ends opens
    /// nothing at build, one request opens its member, and a second request
    /// to the same member opens nothing more.
    #[test]
    fn array_member_is_opened_on_first_send() {
        use flick_grammar::memcached;
        let service =
            crate::compile_source(PROXY, "Memcached", &CompileOptions::default()).unwrap();
        let platform = Platform::new(PlatformConfig::default());
        let net = platform.net();
        let ports = vec![7211u16, 7212, 7213];
        let listeners: Vec<_> = ports.iter().map(|p| net.listen(*p).unwrap()).collect();
        let deployed = platform
            .deploy(ServiceSpec::new("memcached", 7210, service).with_backends(ports))
            .unwrap();
        let client = net.connect(7210).unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while deployed.live_graphs() < 1 {
            assert!(std::time::Instant::now() < deadline, "graph never built");
            std::thread::sleep(Duration::from_millis(1));
        }
        let backlogs = || listeners.iter().map(|l| l.backlog()).sum::<usize>();
        let snap = platform.metrics().snapshot();
        assert_eq!(snap.backend_checkouts, 0, "{snap:?}");
        assert_eq!(backlogs(), 0, "no back-end connection at build");

        let codec = memcached::MemcachedCodec::new();
        let mut wire = Vec::new();
        let request = memcached::request(memcached::opcode::GETK, b"user:1", b"", b"");
        codec.serialize(&request, &mut wire).unwrap();
        let checkouts = |want: u64| {
            let deadline = std::time::Instant::now() + Duration::from_secs(5);
            while platform.metrics().snapshot().backend_checkouts < want {
                assert!(std::time::Instant::now() < deadline, "member never opened");
                std::thread::sleep(Duration::from_millis(1));
            }
        };
        client.write_all(&wire).unwrap();
        checkouts(1);
        let routed = listeners
            .iter()
            .position(|l| l.backlog() == 1)
            .expect("the routed member is connected");
        let backend = listeners[routed].accept().unwrap();
        let mut got = vec![0u8; wire.len()];
        backend
            .read_exact_timeout(&mut got, Duration::from_secs(5))
            .unwrap();
        // The same key routes to the same member, over the same connection.
        client.write_all(&wire).unwrap();
        backend
            .read_exact_timeout(&mut got, Duration::from_secs(5))
            .unwrap();
        let snap = platform.metrics().snapshot();
        assert_eq!(snap.backend_checkouts, 1, "{snap:?}");
        assert_eq!(snap.backend_retries, 0, "{snap:?}");
        assert_eq!(backlogs(), 0, "exactly one back-end connection");
    }

    #[test]
    fn end_to_end_compiled_memcached_proxy_routes_to_backend() {
        use flick_grammar::{memcached, ParseOutcome, WireCodec};
        let service =
            crate::compile_source(PROXY, "Memcached", &CompileOptions::default()).unwrap();
        let platform = Platform::new(PlatformConfig::default());
        let net = platform.net();
        // One fake backend that answers every request with a response echoing
        // the key.
        let backend_listener = net.listen(7201).unwrap();
        let backend_thread = std::thread::spawn(move || {
            let codec = memcached::MemcachedCodec::new();
            let conn = backend_listener
                .accept_timeout(Duration::from_secs(5))
                .unwrap();
            let mut buf = Vec::new();
            let mut chunk = [0u8; 4096];
            loop {
                match conn.read_timeout(&mut chunk, Duration::from_secs(5)) {
                    Ok(n) => {
                        buf.extend_from_slice(&chunk[..n]);
                        if let Ok(ParseOutcome::Complete { message, .. }) = codec.parse(&buf, None)
                        {
                            let key = message.str_field("key").unwrap_or("").as_bytes().to_vec();
                            let resp =
                                memcached::response(memcached::opcode::GETK, 0, &key, b"value!");
                            let mut out = Vec::new();
                            codec.serialize(&resp, &mut out).unwrap();
                            conn.write_all(&out).unwrap();
                            return;
                        }
                    }
                    Err(e) => panic!("backend read failed: {e}"),
                }
            }
        });
        let deployed = platform
            .deploy(ServiceSpec::new("memcached", 7200, service).with_backends(vec![7201]))
            .unwrap();

        let codec = memcached::MemcachedCodec::new();
        let client = net.connect(7200).unwrap();
        let request = memcached::request(memcached::opcode::GETK, b"user:1", b"", b"");
        let mut wire = Vec::new();
        codec.serialize(&request, &mut wire).unwrap();
        client.write_all(&wire).unwrap();

        // Read the proxied response.
        let mut buf = Vec::new();
        let mut chunk = [0u8; 4096];
        let response = loop {
            let n = client
                .read_timeout(&mut chunk, Duration::from_secs(5))
                .unwrap();
            buf.extend_from_slice(&chunk[..n]);
            if let Ok(ParseOutcome::Complete { message, .. }) = codec.parse(&buf, None) {
                break message;
            }
        };
        assert_eq!(response.str_field("key"), Some("user:1"));
        assert_eq!(response.bytes_field("value"), Some(&b"value!"[..]));
        backend_thread.join().unwrap();
        drop(deployed);
    }
}
