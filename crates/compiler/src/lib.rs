//! The FLICK compiler: typed AST → executable task-graph factories.
//!
//! The paper's compiler translates FLICK programs into C++ task graphs
//! linked against the platform runtime. This crate performs the same
//! translation against the Rust runtime (see `DESIGN.md` §3, substitution 2):
//!
//! * [`grammar_gen`] synthesises a wire-format grammar from the
//!   serialisation annotations of a FLICK `type` declaration (Listing 1,
//!   lines 1–9), so that input/output tasks get parsers specialised to the
//!   program's data types;
//! * [`ir`] lowers function and process bodies to a slot-resolved expression
//!   IR (all variable references are resolved to frame indices at compile
//!   time; no name lookups happen on the data path);
//! * [`analysis`] derives from that IR each input's field projection — the
//!   message fields the program reads, and `body` unless it forwards every
//!   message whole — so parsers skip everything else;
//! * [`bytecode`] lowers the IR once more into compact chunks of
//!   pre-decoded ops (constants pool, absolute jumps, grammar-seeded
//!   field-offset sites);
//! * [`vm`] executes those chunks with a direct-threaded dispatch loop —
//!   the default execution mode (`ExecMode::Vm`);
//! * [`interp`] evaluates the tree-shaped IR from a pre-sized frame of
//!   values — kept as the `ExecMode::Interp` ablation
//!   baseline and as the semantic reference the VM is tested against;
//! * [`logic`] wraps the interpreter in the runtime's `ComputeLogic` trait,
//!   including the specialised `foldt` merge logic;
//! * [`factory`] assembles everything into a `GraphFactory` the platform can
//!   deploy.
//!
//! # Examples
//!
//! ```
//! use flick_compiler::{compile_source, CompileOptions};
//!
//! let src = r#"
//! type cmd: record
//!   key : string
//!
//! proc Memcached: (cmd/cmd client, [cmd/cmd] backends)
//!   backends => client
//!   client => target_backend(backends)
//!
//! fun target_backend: ([-/cmd] backends, req: cmd) -> ()
//!   let target = hash(req.key) mod len(backends)
//!   req => backends[target]
//! "#;
//!
//! let service = compile_source(src, "Memcached", &CompileOptions::default()).unwrap();
//! assert_eq!(service.process_name(), "Memcached");
//! ```

pub mod analysis;
pub mod bytecode;
pub mod error;
pub mod factory;
pub mod grammar_gen;
pub mod interp;
pub mod ir;
pub mod logic;
pub mod vm;

pub use error::CompileError;
pub use factory::{CompileOptions, CompiledService};

use flick_lang::TypedProgram;
use std::sync::Arc;

/// Compiles FLICK source text into a deployable service for process `proc_name`.
pub fn compile_source(
    source: &str,
    proc_name: &str,
    options: &CompileOptions,
) -> Result<Arc<CompiledService>, CompileError> {
    let typed = flick_lang::compile_to_ast(source).map_err(CompileError::Lang)?;
    compile(&typed, proc_name, options)
}

/// Compiles an already type-checked program into a deployable service.
pub fn compile(
    typed: &TypedProgram,
    proc_name: &str,
    options: &CompileOptions,
) -> Result<Arc<CompiledService>, CompileError> {
    factory::CompiledService::compile(typed, proc_name, options).map(Arc::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compile_source_rejects_unknown_process() {
        let src = "type t: record\n  key : string\n\nproc P: (t/t c)\n  c => c\n";
        let err = compile_source(src, "Missing", &CompileOptions::default()).unwrap_err();
        assert!(err.to_string().contains("Missing"));
    }

    #[test]
    fn compile_source_rejects_invalid_program() {
        let err = compile_source(
            "fun f: (x: integer) -> (integer)\n  f(x)\n",
            "P",
            &CompileOptions::default(),
        );
        assert!(err.is_err());
    }
}
