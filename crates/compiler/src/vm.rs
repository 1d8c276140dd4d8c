//! The direct-threaded bytecode VM.
//!
//! Executes the [`Chunk`]s produced by [`crate::bytecode`] with a single
//! flat dispatch loop — `loop { match op }` over pre-decoded operands —
//! instead of the interpreter's recursive walk over boxed IR nodes. All
//! value semantics (operator coercions, equality, builtins, the
//! string-exploding `fold`/`map`/`filter` list coercion) are the
//! *interpreter's own* `pub(crate)` helpers, so the two execution modes
//! share one implementation of every observable behaviour and cannot
//! drift; the differential property test in `tests/language_properties.rs`
//! holds them to that.
//!
//! Field projections (`req.key`) execute through per-site inline caches:
//! each `Op::Field` / `Op::LoadField` carries a site id into a per-logic
//! offset table, seeded from the grammar's record layouts at compile time
//! and verified (name check) on every hit, so a projection is an index
//! read instead of a name scan once the first message of a shape has been
//! seen. `Op::LoadField` reads a frame slot's message in place, so a
//! projection of a parameter or binder copies only the field.
//!
//! Calls allocate nothing: a callee's frame is a window of the operand
//! stack (its arguments, already pushed, become its first slots), and an
//! `Op::Move` — a load the compiler proved is a slot's last use — takes
//! the value instead of copying it.
//!
//! Runtime logic errors are annotated `[at fn \`name\`, pc N]` via the
//! shared helpers in [`crate::error`], mirroring the interpreter's
//! `[at fn \`name\`, stmt N]` so diagnostics stay comparable.

use crate::bytecode::{Chunk, CompiledProgram, Op, NO_OFFSET};
use crate::error::{locate, locate_frame};
use crate::interp::{
    binary, dict_key, eval_builtin, list_items, to_msg_value, unary, EmitSink, RtVal,
};
use crate::logic::{message_for_rule, ChannelBindings, CompiledGlobals, OutputsSink};
use flick_grammar::{Message, MsgValue};
use flick_runtime::{ComputeLogic, Outputs, RuntimeError, Value};
use std::sync::Arc;

/// Pops the top of the operand stack. Compiled chunks are stack-balanced
/// by construction, so an underflow is a compiler bug, not a program
/// error.
fn pop(stack: &mut Vec<RtVal>) -> RtVal {
    stack.pop().expect("vm operand stack underflow")
}

fn msg_field_value(value: &MsgValue) -> Value {
    match value {
        MsgValue::UInt(v) => Value::Int(*v as i64),
        MsgValue::Int(v) => Value::Int(*v),
        MsgValue::Bool(b) => Value::Bool(*b),
        MsgValue::Str(s) => Value::Str(s.clone()),
        MsgValue::Bytes(b) => Value::Bytes(b.clone()),
    }
}

/// A bytecode executor borrowing the program and a mutable field-site
/// offset cache (owned by the logic instance so it warms up across
/// messages).
///
/// Frames live on the operand stack: a call's arguments, already on the
/// stack, become the first slots of its frame, the rest of the frame is
/// pushed above them, and the callee's operands go on top. A call
/// therefore allocates nothing once the stack has grown to the program's
/// depth, and returning is a truncation.
pub struct Vm<'p> {
    program: &'p CompiledProgram,
    field_cache: &'p mut [u32],
    /// The operand stack [`Vm::call_function`] runs on, kept across calls.
    stack: Vec<RtVal>,
}

impl<'p> Vm<'p> {
    /// Creates an executor. `field_cache` must have
    /// [`CompiledProgram::field_sites`] entries (start from a copy of
    /// [`CompiledProgram::field_offsets`]).
    pub fn new(program: &'p CompiledProgram, field_cache: &'p mut [u32]) -> Self {
        debug_assert_eq!(field_cache.len(), program.field_sites());
        Vm {
            program,
            field_cache,
            stack: Vec::new(),
        }
    }

    /// Calls function `index` with the given arguments, mirroring
    /// `Interpreter::call_function` (same arity errors, same `Unit`
    /// default).
    pub fn call_function(
        &mut self,
        index: usize,
        args: Vec<RtVal>,
        sink: &mut dyn EmitSink,
    ) -> Result<RtVal, RuntimeError> {
        let argc = args.len();
        let mut stack = std::mem::take(&mut self.stack);
        stack.extend(args);
        let result = self.call_indexed(index, argc, &mut stack, sink);
        self.stack = stack;
        result
    }

    /// Calls function `index` over the `argc` arguments on top of the
    /// stack, which become the first slots of its frame. The stack is back
    /// below the arguments when the call returns, also on error.
    fn call_indexed(
        &mut self,
        index: usize,
        argc: usize,
        stack: &mut Vec<RtVal>,
        sink: &mut dyn EmitSink,
    ) -> Result<RtVal, RuntimeError> {
        let fp = stack.len() - argc;
        let function = self
            .program
            .functions
            .get(index)
            .ok_or_else(|| RuntimeError::Logic(format!("unknown function index {index}")));
        let result = match function {
            Ok(function) if argc == function.params => self
                .run_chunk(&function.chunk, fp, stack, sink)
                .map_err(|e| locate_frame(e, &function.name)),
            Ok(function) => Err(RuntimeError::Logic(format!(
                "function `{}` expects {} arguments, got {}",
                function.name, function.params, argc
            ))),
            Err(e) => Err(e),
        };
        stack.truncate(fp);
        result
    }

    /// Runs one chunk to its `Return` over the frame at `stack[fp..]`:
    /// whatever the caller put there fills the first slots, and the rest
    /// of the chunk's frame is filled with `Unit`. The stack is left
    /// holding exactly the frame (also on error), so the caller decides
    /// what happens to it.
    pub fn run_chunk(
        &mut self,
        chunk: &Chunk,
        fp: usize,
        stack: &mut Vec<RtVal>,
        sink: &mut dyn EmitSink,
    ) -> Result<RtVal, RuntimeError> {
        let top = fp + chunk.frame_size;
        debug_assert!(stack.len() <= top, "a frame holds no operands");
        stack.resize(top, RtVal::Val(Value::Unit));
        let result = self.dispatch(chunk, fp, stack, sink);
        stack.truncate(top);
        result
    }

    /// The dispatch loop over the frame at `stack[fp..fp + frame_size]`.
    /// Failing ops annotate the error with the program counter (innermost
    /// location wins); the enclosing call adds the function name.
    fn dispatch(
        &mut self,
        chunk: &Chunk,
        fp: usize,
        stack: &mut Vec<RtVal>,
        sink: &mut dyn EmitSink,
    ) -> Result<RtVal, RuntimeError> {
        /// `?` with a pc-located error.
        macro_rules! vmtry {
            ($pc:expr, $e:expr) => {
                match $e {
                    Ok(v) => v,
                    Err(err) => return Err(locate(err, || format!("pc {}", $pc))),
                }
            };
        }
        let code = &chunk.code;
        let top = fp + chunk.frame_size;
        let mut pc = 0usize;
        loop {
            match &code[pc] {
                Op::Const(idx) => {
                    stack.push(RtVal::Val(self.program.consts[*idx as usize].clone()))
                }
                Op::Unit => stack.push(RtVal::Val(Value::Unit)),
                Op::Load(slot) => {
                    let value = stack[fp + *slot as usize].clone();
                    stack.push(value);
                }
                Op::Move(slot) => {
                    let value =
                        std::mem::replace(&mut stack[fp + *slot as usize], RtVal::Val(Value::Unit));
                    stack.push(value);
                }
                Op::Store(slot) => {
                    let value = pop(stack);
                    stack[fp + *slot as usize] = value;
                }
                Op::Pop => {
                    pop(stack);
                }
                Op::Field { name, site } => {
                    let base = pop(stack);
                    let name = self.program.names[*name as usize].as_str();
                    match base {
                        RtVal::Val(Value::Msg(msg)) => {
                            let value = self.project_field(&msg, name, *site as usize);
                            stack.push(RtVal::Val(value));
                        }
                        other => vmtry!(
                            pc,
                            Err(RuntimeError::Logic(format!(
                                "cannot read field `{name}` of {other:?}"
                            )))
                        ),
                    }
                }
                Op::LoadField { slot, name, site } => {
                    let name = self.program.names[*name as usize].as_str();
                    let value = match &stack[fp + *slot as usize] {
                        RtVal::Val(Value::Msg(msg)) => {
                            self.project_field(msg, name, *site as usize)
                        }
                        other => vmtry!(
                            pc,
                            Err(RuntimeError::Logic(format!(
                                "cannot read field `{name}` of {other:?}"
                            )))
                        ),
                    };
                    stack.push(RtVal::Val(value));
                }
                Op::Index => {
                    let index = pop(stack);
                    let base = pop(stack);
                    let value = vmtry!(pc, index_value(base, index));
                    stack.push(value);
                }
                Op::IndexAssign => {
                    let value = pop(stack);
                    let key = pop(stack);
                    let target = pop(stack);
                    let value = vmtry!(pc, value.into_value());
                    match target {
                        RtVal::Dict(dict) => {
                            dict.set(dict_key(vmtry!(pc, key.as_value())), value);
                        }
                        other => vmtry!(
                            pc,
                            Err(RuntimeError::Logic(format!(
                                "cannot index-assign into {other:?}"
                            )))
                        ),
                    }
                }
                Op::Binary(op) => {
                    let r = pop(stack);
                    let l = pop(stack);
                    let value = vmtry!(pc, (|| binary(*op, l.as_value()?, r.as_value()?))());
                    stack.push(RtVal::Val(value));
                }
                Op::Unary(op) => {
                    let v = pop(stack);
                    let value = vmtry!(pc, (|| unary(*op, v.as_value()?))());
                    stack.push(RtVal::Val(value));
                }
                Op::Call { function, argc } => {
                    let result = vmtry!(
                        pc,
                        self.call_indexed(*function as usize, *argc as usize, stack, sink)
                    );
                    stack.push(result);
                }
                Op::Builtin { builtin, argc } => {
                    let at = stack.len() - *argc as usize;
                    let result = vmtry!(pc, eval_builtin(*builtin, &stack[at..]));
                    stack.truncate(at);
                    stack.push(result);
                }
                Op::Record { record, argc } => {
                    let template = &self.program.records[*record as usize];
                    let at = stack.len() - *argc as usize;
                    let mut msg = Message::with_capacity(template.unit, template.fields.len());
                    for (name, value) in template.fields.iter().zip(stack.drain(at..)) {
                        let value = vmtry!(pc, value.into_value());
                        msg.set(*name, to_msg_value(value));
                    }
                    stack.push(RtVal::Val(Value::Msg(msg)));
                }
                Op::Fold { function } => {
                    let items = vmtry!(pc, list_items(pop(stack)));
                    let mut acc = pop(stack);
                    for item in items {
                        stack.push(acc);
                        stack.push(RtVal::Val(item));
                        acc = vmtry!(pc, self.call_indexed(*function as usize, 2, stack, sink));
                    }
                    stack.push(acc);
                }
                Op::Map { function } => {
                    let items = vmtry!(pc, list_items(pop(stack)));
                    let mut out = Vec::with_capacity(items.len());
                    for item in items {
                        stack.push(RtVal::Val(item));
                        let mapped =
                            vmtry!(pc, self.call_indexed(*function as usize, 1, stack, sink));
                        out.push(vmtry!(pc, mapped.into_value()));
                    }
                    stack.push(RtVal::Val(Value::List(out)));
                }
                Op::Filter { function } => {
                    let items = vmtry!(pc, list_items(pop(stack)));
                    let mut out = Vec::with_capacity(items.len());
                    for item in items {
                        stack.push(RtVal::Val(item.clone()));
                        let keep =
                            vmtry!(pc, self.call_indexed(*function as usize, 1, stack, sink));
                        if vmtry!(pc, keep.into_value()).truthy() {
                            out.push(item);
                        }
                    }
                    stack.push(RtVal::Val(Value::List(out)));
                }
                Op::Jump(target) => {
                    pc = *target as usize;
                    continue;
                }
                Op::JumpIfFalse(target) => {
                    let cond = vmtry!(pc, pop(stack).into_value());
                    if !cond.truthy() {
                        pc = *target as usize;
                        continue;
                    }
                }
                Op::JumpIfUnit(target) => {
                    if matches!(stack.last(), Some(RtVal::Val(Value::Unit))) {
                        pop(stack);
                        pc = *target as usize;
                        continue;
                    }
                }
                Op::ForPrep { list_slot } => match pop(stack) {
                    RtVal::Val(Value::List(mut items)) => {
                        items.reverse();
                        stack[fp + *list_slot as usize] = RtVal::Val(Value::List(items));
                    }
                    other => vmtry!(
                        pc,
                        Err(RuntimeError::Logic(format!(
                            "`for` expects a list, found {other:?}"
                        )))
                    ),
                },
                Op::ForNext {
                    list_slot,
                    var_slot,
                    exit,
                } => {
                    let item = match &mut stack[fp + *list_slot as usize] {
                        RtVal::Val(Value::List(items)) => items.pop(),
                        _ => None,
                    };
                    match item {
                        Some(item) => stack[fp + *var_slot as usize] = RtVal::Val(item),
                        None => {
                            pc = *exit as usize;
                            continue;
                        }
                    }
                }
                Op::Send => {
                    let chan = pop(stack);
                    let value = vmtry!(pc, pop(stack).into_value());
                    match chan {
                        RtVal::Channel(idx) => sink.send(idx, value),
                        RtVal::ChannelArray(ref idxs) if idxs.len() == 1 => {
                            sink.send(idxs[0], value)
                        }
                        other => vmtry!(
                            pc,
                            Err(RuntimeError::Logic(format!(
                                "pipeline destination is not a channel: {other:?}"
                            )))
                        ),
                    }
                }
                Op::SendRule => {
                    let chan = pop(stack);
                    let value = vmtry!(pc, pop(stack).into_value());
                    match chan {
                        RtVal::Channel(idx) => sink.send(idx, value),
                        RtVal::ChannelArray(idxs) if !idxs.is_empty() => sink.send(idxs[0], value),
                        _ => {}
                    }
                }
                Op::Return => {
                    return Ok(if stack.len() > top {
                        pop(stack)
                    } else {
                        RtVal::Val(Value::Unit)
                    })
                }
            }
            pc += 1;
        }
    }

    /// Reads a message field through the site's inline offset cache: a
    /// cached offset whose name still matches is an index read; otherwise
    /// fall back to the linear scan and re-seed the cache with the offset
    /// found.
    fn project_field(&mut self, msg: &Message, name: &str, site: usize) -> Value {
        let hint = self.field_cache[site];
        if hint != NO_OFFSET {
            if let Some((field, value)) = msg.field_at(hint as usize) {
                if field == name {
                    return msg_field_value(value);
                }
            }
        }
        for (idx, (field, value)) in msg.iter().enumerate() {
            if field == name {
                self.field_cache[site] = idx as u32;
                return msg_field_value(value);
            }
        }
        Value::None
    }
}

/// `Op::Index` semantics, shared with the interpreter's `IrExpr::Index`
/// arm (same coercions, same error strings).
fn index_value(base: RtVal, index: RtVal) -> Result<RtVal, RuntimeError> {
    Ok(match base {
        RtVal::ChannelArray(indices) => {
            let i = index.as_value()?.as_int().ok_or_else(|| {
                RuntimeError::Logic("channel-array index must be an integer".into())
            })? as usize;
            let idx = indices
                .get(i)
                .copied()
                .ok_or_else(|| RuntimeError::Logic(format!("channel index {i} out of range")))?;
            RtVal::Channel(idx)
        }
        RtVal::Dict(dict) => RtVal::Val(dict.get(&dict_key(index.as_value()?))),
        RtVal::Val(Value::List(items)) => {
            let i = index.as_value()?.as_int().unwrap_or(0) as usize;
            RtVal::Val(items.get(i).cloned().unwrap_or(Value::None))
        }
        other => return Err(RuntimeError::Logic(format!("cannot index into {other:?}"))),
    })
}

/// The VM-backed compute logic for compiled FLICK processes — the
/// drop-in [`ExecMode::Vm`](flick_runtime::ExecMode) counterpart of
/// `InterpreterLogic`, with identical rule dispatch: every rule whose
/// source parameter owns the arriving input runs over the process frame,
/// a unit-returning stage consumes the message, and the rule-level send
/// is lenient.
pub struct VmLogic {
    compiled: Arc<CompiledProgram>,
    bindings: ChannelBindings,
    globals: Arc<CompiledGlobals>,
    /// Per-site field offsets, seeded from the grammar layouts and warmed
    /// by execution.
    field_cache: Vec<u32>,
    /// The operand stack, reused across messages. Its bottom entries are
    /// the process frame (channel parameters, then globals), built once:
    /// a rule never writes them and never moves them out, so each rule
    /// runs its locals above them and is truncated back to them.
    stack: Vec<RtVal>,
}

impl VmLogic {
    /// Creates the VM logic for one graph instance.
    pub fn new(
        compiled: Arc<CompiledProgram>,
        bindings: ChannelBindings,
        globals: Arc<CompiledGlobals>,
    ) -> Self {
        let process = &compiled.process;
        let mut stack = Vec::with_capacity(process.frame_size + 16);
        for (idx, is_array) in process.param_is_array.iter().enumerate() {
            let binding = &bindings.params[idx];
            stack.push(if *is_array {
                RtVal::ChannelArray(binding.outputs.clone())
            } else {
                RtVal::Channel(binding.outputs.first().copied().unwrap_or(usize::MAX))
            });
        }
        for name in &process.globals {
            let dict = globals.dict(name).cloned().unwrap_or_default();
            stack.push(RtVal::Dict(dict));
        }
        stack.resize(process.frame_size.max(stack.len()), RtVal::Val(Value::Unit));
        let field_cache = compiled.field_offsets.clone();
        VmLogic {
            compiled,
            bindings,
            globals,
            field_cache,
            stack,
        }
    }

    /// The per-service globals.
    pub fn globals(&self) -> &Arc<CompiledGlobals> {
        &self.globals
    }
}

impl ComputeLogic for VmLogic {
    fn on_value(
        &mut self,
        input: usize,
        mut value: Value,
        out: &mut Outputs<'_>,
    ) -> Result<(), RuntimeError> {
        let Some(param) = self.bindings.param_of_input(input) else {
            return Ok(());
        };
        let compiled = Arc::clone(&self.compiled);
        let process_frame = self.stack.len();
        let mut sink = OutputsSink { outputs: out };
        let mut rules = compiled
            .rules
            .iter()
            .filter(|rule| rule.source_param == param)
            .peekable();
        while let Some(rule) = rules.next() {
            self.stack
                .resize(rule.chunk.frame_size, RtVal::Val(Value::Unit));
            self.stack[rule.msg_slot] =
                RtVal::Val(message_for_rule(&mut value, rules.peek().is_none()));
            let mut vm = Vm::new(&compiled, &mut self.field_cache);
            let result = vm.run_chunk(&rule.chunk, 0, &mut self.stack, &mut sink);
            self.stack.truncate(process_frame);
            result?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bytecode::compile;
    use crate::interp::{CollectSink, Interpreter};
    use crate::ir::{lower, ProgramIr};
    use crate::logic::ParamBinding;
    use flick_grammar::{Message, MsgValue};
    use flick_lang::compile_to_ast;
    use flick_runtime::channel::TaskChannel;
    use flick_runtime::task::{TaskId, NO_DEADLINE};
    use flick_runtime::{LogicHarness, RuntimeMetrics, TaskContext};

    fn program(src: &str, proc_name: &str) -> ProgramIr {
        lower(&compile_to_ast(src).unwrap(), proc_name).unwrap()
    }

    #[allow(clippy::type_complexity)]
    fn call_both(
        program: &ProgramIr,
        name: &str,
        args: Vec<RtVal>,
    ) -> (
        Result<RtVal, RuntimeError>,
        Result<RtVal, RuntimeError>,
        Vec<(usize, Value)>,
        Vec<(usize, Value)>,
    ) {
        let index = program
            .functions
            .iter()
            .position(|f| f.name == name)
            .unwrap();
        let interp = Interpreter::new(program);
        let mut interp_sink = CollectSink::default();
        let interp_result = interp.call_function(index, args.clone(), &mut interp_sink);
        let compiled = compile(program);
        let mut cache = compiled.field_offsets.clone();
        let mut vm = Vm::new(&compiled, &mut cache);
        let mut vm_sink = CollectSink::default();
        let vm_result = vm.call_function(index, args, &mut vm_sink);
        (interp_result, vm_result, interp_sink.sent, vm_sink.sent)
    }

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

    fn cmd_msg(key: &str) -> Value {
        let mut m = Message::new("cmd");
        m.set("key", MsgValue::Str(key.into()));
        Value::Msg(m)
    }

    #[test]
    fn vm_routes_like_the_interpreter() {
        let program = program(PROXY, "Memcached");
        for key in ["user:1", "user:2", "a", "zzz", ""] {
            let args = vec![RtVal::ChannelArray(vec![1, 2, 3]), RtVal::Val(cmd_msg(key))];
            let (i, v, i_sent, v_sent) = call_both(&program, "target_backend", args);
            assert!(i.is_ok() && v.is_ok());
            assert_eq!(i_sent, v_sent, "key {key:?} routed differently");
            assert_eq!(i_sent.len(), 1);
        }
    }

    #[test]
    fn vm_errors_match_interpreter_errors_with_comparable_locations() {
        let src = r#"
fun f: (x: integer) -> (integer)
  let y = 1
  x / (x - x)

type cmd: record
  key : string

proc P: (cmd/cmd c)
  c => c
"#;
        let program = program(src, "P");
        let (i, v, _, _) = call_both(&program, "f", vec![RtVal::Val(Value::Int(4))]);
        let RuntimeError::Logic(i_msg) = i.unwrap_err() else {
            panic!("logic error expected");
        };
        let RuntimeError::Logic(v_msg) = v.unwrap_err() else {
            panic!("logic error expected");
        };
        let (i_base, i_loc) = crate::error::split_located(&i_msg);
        let (v_base, v_loc) = crate::error::split_located(&v_msg);
        assert_eq!(i_base, "division by zero");
        assert_eq!(i_base, v_base);
        assert_eq!(i_loc, Some("fn `f`, stmt 1"));
        assert_eq!(v_loc, Some("fn `f`, pc 6"));
    }

    /// The fused slot-field read fails on a non-message exactly as the
    /// interpreter's `Field` does: same text, same kind of location.
    #[test]
    fn fused_field_read_of_a_non_message_keeps_the_error_text() {
        let program = program(PROXY, "Memcached");
        let args = vec![RtVal::ChannelArray(vec![1]), RtVal::Val(Value::Int(5))];
        let (i, v, _, _) = call_both(&program, "target_backend", args);
        let RuntimeError::Logic(i_msg) = i.unwrap_err() else {
            panic!("logic error expected");
        };
        let RuntimeError::Logic(v_msg) = v.unwrap_err() else {
            panic!("logic error expected");
        };
        let (i_base, _) = crate::error::split_located(&i_msg);
        let (v_base, v_loc) = crate::error::split_located(&v_msg);
        assert_eq!(i_base, "cannot read field `key` of Val(Int(5))");
        assert_eq!(v_base, i_base);
        assert!(
            v_loc.is_some_and(|loc| loc.starts_with("fn `target_backend`, pc ")),
            "{v_msg}"
        );
    }

    #[test]
    fn deep_loops_and_conditionals_agree() {
        let src = r#"
fun f: (xs: [integer]) -> (integer)
  let total = 0
  for x in xs:
    if x mod 2 = 0:
      let total = total + x
    else:
      let total = total - x
  total

type cmd: record
  key : string

proc P: (cmd/cmd c)
  c => c
"#;
        let program = program(src, "P");
        let xs: Vec<Value> = (0..100).map(Value::Int).collect();
        let (i, v, _, _) = call_both(&program, "f", vec![RtVal::Val(Value::List(xs))]);
        let i = i.unwrap().into_value().unwrap();
        let v = v.unwrap().into_value().unwrap();
        assert_eq!(i, v);
    }

    #[test]
    fn field_site_cache_survives_shape_changes() {
        // Same call site, messages with the field at different offsets:
        // the cache must verify and re-seed, never return a wrong field.
        let program = program(PROXY, "Memcached");
        let index = 0;
        let compiled = compile(&program);
        let mut cache = compiled.field_offsets.clone();
        let mut vm = Vm::new(&compiled, &mut cache);
        let mut sink = CollectSink::default();
        // First message: `key` is field 0.
        let args = vec![RtVal::ChannelArray(vec![1]), RtVal::Val(cmd_msg("a"))];
        vm.call_function(index, args, &mut sink).unwrap();
        // Second message: an extra field shifts `key` to offset 1.
        let mut shifted = Message::new("cmd");
        shifted.set("pad", MsgValue::Str("x".into()));
        shifted.set("key", MsgValue::Str("a".into()));
        let args = vec![
            RtVal::ChannelArray(vec![1]),
            RtVal::Val(Value::Msg(shifted)),
        ];
        vm.call_function(index, args, &mut sink).unwrap();
        // Both messages carried the same key, so despite the offset shift
        // both hash to the same backend channel.
        assert_eq!(sink.sent.len(), 2);
        assert_eq!(sink.sent[0].0, sink.sent[1].0);
    }

    #[test]
    fn vm_logic_drives_a_compute_task_like_interpreter_logic() {
        let typed = compile_to_ast(PROXY).unwrap();
        let program = Arc::new(lower(&typed, "Memcached").unwrap());
        let compiled = Arc::new(compile(&program));
        let bindings = ChannelBindings {
            params: vec![
                ParamBinding {
                    inputs: vec![0],
                    outputs: vec![0],
                },
                ParamBinding {
                    inputs: vec![1, 2, 3],
                    outputs: vec![1, 2, 3],
                },
            ],
        };
        let globals = CompiledGlobals::for_process(&program.process);
        let logic = VmLogic::new(compiled, bindings, globals);

        let (output_producers, output_consumers): (Vec<_>, Vec<_>) = (0..4)
            .map(|i| TaskChannel::bounded(64, TaskId(200 + i)))
            .unzip();
        let mut logic = LogicHarness::new(Box::new(logic), output_producers);
        let mut ctx = TaskContext::new(TaskId(0), NO_DEADLINE, RuntimeMetrics::new_shared());

        logic.on_value(0, cmd_msg("user:7"), &mut ctx).unwrap();
        let routed: Vec<usize> = (1..4).filter(|i| output_consumers[*i].len() == 1).collect();
        assert_eq!(routed.len(), 1, "exactly one backend gets the request");
        assert_eq!(output_consumers[0].len(), 0);

        logic
            .on_value(routed[0], cmd_msg("user:7"), &mut ctx)
            .unwrap();
        assert_eq!(
            output_consumers[0].len(),
            1,
            "the backend response returns to the client"
        );
    }

    #[test]
    fn unit_returning_stage_consumes_the_message_in_vm_mode() {
        let src = r#"
type cmd: record
  key : string

proc P: (cmd/cmd c)
  c => maybe_fwd() => c

fun maybe_fwd: (req: cmd) -> (cmd)
  if req.key = "go":
    req
"#;
        let typed = compile_to_ast(src).unwrap();
        let program = Arc::new(lower(&typed, "P").unwrap());
        let compiled = Arc::new(compile(&program));
        let bindings = ChannelBindings {
            params: vec![ParamBinding {
                inputs: vec![0],
                outputs: vec![0],
            }],
        };
        let globals = CompiledGlobals::for_process(&program.process);
        let logic = VmLogic::new(compiled, bindings, globals);
        let (out_tx, out_rx) = TaskChannel::bounded(8, TaskId(2));
        let mut logic = LogicHarness::new(Box::new(logic), vec![out_tx]);
        let mut ctx = TaskContext::new(TaskId(0), NO_DEADLINE, RuntimeMetrics::new_shared());
        logic.on_value(0, cmd_msg("stop"), &mut ctx).unwrap();
        assert_eq!(out_rx.len(), 0, "consumed messages must not be forwarded");
        logic.on_value(0, cmd_msg("go"), &mut ctx).unwrap();
        assert_eq!(out_rx.len(), 1, "matching messages pass the stage");
    }

    /// Two rules on one input: each gets the message. The last matching
    /// rule takes it by move, so the earlier one must have had its copy.
    #[test]
    fn two_rules_on_one_input_both_receive_the_message() {
        let src = r#"
type cmd: record
  key : string

proc Tee: (cmd/cmd client, -/cmd left, -/cmd right)
  client => left
  client => right
"#;
        let typed = compile_to_ast(src).unwrap();
        let program = Arc::new(lower(&typed, "Tee").unwrap());
        let bind = |inputs, outputs| ParamBinding { inputs, outputs };
        let bindings = ChannelBindings {
            params: vec![
                bind(vec![0], vec![0]),
                bind(vec![], vec![1]),
                bind(vec![], vec![2]),
            ],
        };
        let globals = CompiledGlobals::for_process(&program.process);
        let engines: [Box<dyn ComputeLogic>; 2] = [
            Box::new(VmLogic::new(
                Arc::new(compile(&program)),
                bindings.clone(),
                Arc::clone(&globals),
            )),
            Box::new(crate::logic::InterpreterLogic::new(
                Arc::clone(&program),
                bindings,
                globals,
            )),
        ];
        for logic in engines {
            let (outputs, sinks): (Vec<_>, Vec<_>) = (0..3)
                .map(|i| TaskChannel::bounded(8, TaskId(10 + i)))
                .unzip();
            let mut logic = LogicHarness::new(logic, outputs);
            let mut ctx = TaskContext::new(TaskId(0), NO_DEADLINE, RuntimeMetrics::new_shared());
            logic.on_value(0, cmd_msg("user:7"), &mut ctx).unwrap();
            assert_eq!(sinks[0].len(), 0);
            for sink in &sinks[1..] {
                let delivered = sink.pop(&mut ctx).unwrap().into_msg().unwrap();
                assert_eq!(delivered.str_field("key"), Some("user:7"));
            }
        }
    }

    /// Source of the last-use cases: each function reads some slot again
    /// after a load a careless last-use rule would turn into a move.
    const LAST_USES: &str = r#"
type cmd: record
  key : string

proc P: (cmd/cmd c)
  c => c

fun in_loop: (xs: [integer], k: string) -> (string)
  let acc = ""
  for x in xs:
    acc := acc + k
  acc

fun one_branch: (x: integer, s: string) -> (string)
  let t = s + "!"
  if x > 0:
    t + s
  else:
    t

fun after_join: (x: integer, s: string) -> (string)
  let r = ""
  if x > 0:
    r := s + "+"
  else:
    r := "-"
  r + s

fun twice: (s: string) -> (string)
  pair(s, s) + s

fun pair: (a: string, b: string) -> (string)
  a + b

fun then_field: (req: cmd) -> (string)
  let copy = req
  req.key + copy.key
"#;

    /// Runs `name` on both engines and returns the agreed result.
    fn agreed(program: &ProgramIr, name: &str, args: Vec<RtVal>) -> Value {
        let (i, v, i_sent, v_sent) = call_both(program, name, args);
        assert_eq!(i_sent, v_sent);
        let i = i.and_then(RtVal::into_value);
        let v = v.and_then(RtVal::into_value);
        let i = i.unwrap_or_else(|e| panic!("interp `{name}`: {e}"));
        let v = v.unwrap_or_else(|e| panic!("vm `{name}`: {e}"));
        assert_eq!(i, v, "`{name}` diverges");
        v
    }

    fn text(s: &str) -> RtVal {
        RtVal::Val(Value::Str(s.into()))
    }

    /// `k`'s only load is in the loop body, and every later iteration
    /// reads it again: it is live around the back edge.
    #[test]
    fn last_use_a_slot_read_again_by_a_later_iteration_is_copied() {
        let program = program(LAST_USES, "P");
        let xs = RtVal::Val(Value::List((0..3).map(Value::Int).collect()));
        let got = agreed(&program, "in_loop", vec![xs, text("ab")]);
        assert_eq!(got, Value::Str("ababab".into()));
        let empty = RtVal::Val(Value::List(Vec::new()));
        assert_eq!(
            agreed(&program, "in_loop", vec![empty, text("ab")]),
            Value::Str(String::new())
        );
    }

    /// A slot one branch reads and the other does not, and a slot read
    /// after the branches join, on either path.
    #[test]
    fn last_use_branches_agree_on_every_path() {
        let program = program(LAST_USES, "P");
        for x in [-1, 1] {
            let int = RtVal::Val(Value::Int(x));
            let one = agreed(&program, "one_branch", vec![int.clone(), text("s")]);
            assert_eq!(one, Value::Str(if x > 0 { "s!s" } else { "s!" }.into()));
            let join = agreed(&program, "after_join", vec![int, text("s")]);
            assert_eq!(join, Value::Str(if x > 0 { "s+s" } else { "-s" }.into()));
        }
    }

    /// A parameter loaded three times: copied twice, moved once.
    #[test]
    fn last_use_a_parameter_loaded_twice_is_copied_first() {
        let program = program(LAST_USES, "P");
        assert_eq!(
            agreed(&program, "twice", vec![text("xy")]),
            Value::Str("xyxyxy".into())
        );
        let compiled = compile(&program);
        let twice = &compiled.functions[3];
        assert_eq!(twice.name, "twice");
        let loads = |moved: bool| {
            twice
                .chunk
                .code
                .iter()
                .filter(|op| match op {
                    Op::Load(0) => !moved,
                    Op::Move(0) => moved,
                    _ => false,
                })
                .count()
        };
        assert_eq!((loads(false), loads(true)), (2, 1));
    }

    /// `copy = req` is not `req`'s last use: the fused field read after
    /// it reads the slot too.
    #[test]
    fn last_use_a_field_read_keeps_its_message() {
        let program = program(LAST_USES, "P");
        let got = agreed(&program, "then_field", vec![RtVal::Val(cmd_msg("k"))]);
        assert_eq!(got, Value::Str("kk".into()));
    }

    /// Listing 3 moves what it reads for the last time: both counters
    /// into `int`, and the key and the sum into the new record.
    #[test]
    fn last_use_the_wordcount_combine_moves_its_operands() {
        let src = r#"
type kv: record
  key : string
  value : string

proc hadoop: ([kv/-] mappers, -/kv reducer):
  if all_ready(mappers):
    let result = foldt on mappers ordering elem e1, e2 by elem.key as e_key:
      let v = combine(e1.value, e2.value)
      kv(e_key, v)
    result => reducer

fun combine: (v1: string, v2: string) -> (string)
  str(int(v1) + int(v2))
"#;
        let compiled = compile(&program(src, "hadoop"));
        let combine = &compiled.functions[0].chunk.code;
        assert!(combine.contains(&Op::Move(0)) && combine.contains(&Op::Move(1)));
        assert!(!combine.iter().any(|op| matches!(op, Op::Load(_))));
        let foldt = compiled.foldt.as_ref().unwrap();
        let (_, _, key) = foldt.binder_slots;
        let record = foldt
            .chunk
            .code
            .iter()
            .position(|op| matches!(op, Op::Record { .. }))
            .unwrap();
        assert!(matches!(
            foldt.chunk.code[record - 2..record],
            [Op::Move(k), Op::Move(_)] if k as usize == key
        ));
    }

    /// A rule never moves the process frame (its channel parameters and
    /// globals are kept across messages), but it hands the arriving
    /// message to its last reader instead of copying it.
    #[test]
    fn last_use_rules_keep_the_process_frame_and_move_the_message() {
        let program = program(PROXY, "Memcached");
        let compiled = compile(&program);
        let rule = &compiled.rules[1];
        assert!(rule.chunk.code.contains(&Op::Load(1)), "backends is copied");
        assert!(rule.chunk.code.contains(&Op::Move(rule.msg_slot as u32)));
        let bindings = ChannelBindings {
            params: vec![
                ParamBinding {
                    inputs: vec![0],
                    outputs: vec![0],
                },
                ParamBinding {
                    inputs: vec![],
                    outputs: vec![1, 2],
                },
            ],
        };
        let globals = CompiledGlobals::for_process(&program.process);
        let logic = VmLogic::new(Arc::new(compiled), bindings, globals);
        let (outputs, sinks): (Vec<_>, Vec<_>) = (0..3)
            .map(|i| TaskChannel::bounded(8, TaskId(10 + i)))
            .unzip();
        let mut logic = LogicHarness::new(Box::new(logic), outputs);
        let mut ctx = TaskContext::new(TaskId(0), NO_DEADLINE, RuntimeMetrics::new_shared());
        for key in ["a", "b", "c", "d"] {
            logic.on_value(0, cmd_msg(key), &mut ctx).unwrap();
        }
        assert_eq!(sinks[1].len() + sinks[2].len(), 4, "every message routed");
    }
}
