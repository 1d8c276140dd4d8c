//! Task logic generated from FLICK programs.
//!
//! [`InterpreterLogic`] implements the runtime's `ComputeLogic` trait by
//! dispatching arriving messages to the routing rules of the lowered
//! process and interpreting them. [`FoldtLogic`] is the specialised
//! implementation of the `foldt` primitive (the paper notes that `foldt` has
//! a custom platform implementation for performance), a two-level tree: the
//! task of each connection of the folded array folds its own stream
//! into a map ordered by key, combining values of equal keys with the
//! program's combine body, and merges that map into its graph's [`Fold`]
//! when its input ends; the last input to end emits the aggregated stream
//! in key order.

use crate::interp::{dict_key, field_value, EmitSink, Interpreter, RtVal};
use crate::ir::{ProcessIr, ProgramIr};
use flick_grammar::MsgValue;
use flick_runtime::{ComputeLogic, Outputs, RuntimeError, SharedDict, Value};
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// Describes how the process's channel parameters map onto the logic's
/// input and output indices.
#[derive(Debug, Clone, Default)]
pub struct ChannelBindings {
    /// One entry per process channel parameter.
    pub params: Vec<ParamBinding>,
}

/// The runtime binding of one channel parameter.
#[derive(Debug, Clone, Default)]
pub struct ParamBinding {
    /// Logic input indices delivering messages from this parameter
    /// (one per connection for array parameters; empty for write-only
    /// channels).
    pub inputs: Vec<usize>,
    /// Logic output indices for sends to this parameter (empty for
    /// read-only channels).
    pub outputs: Vec<usize>,
}

impl ChannelBindings {
    /// Finds the parameter owning a given logic input index.
    pub fn param_of_input(&self, input: usize) -> Option<usize> {
        self.params.iter().position(|p| p.inputs.contains(&input))
    }

    /// Builds the frame value for parameter `idx` (a channel, channel array
    /// or dictionary reference).
    fn frame_value(&self, process: &ProcessIr, idx: usize) -> RtVal {
        let binding = &self.params[idx];
        if process.params[idx].is_array {
            RtVal::ChannelArray(binding.outputs.clone())
        } else {
            RtVal::Channel(binding.outputs.first().copied().unwrap_or(usize::MAX))
        }
    }
}

/// Per-service global state shared by every graph instance (the paper's
/// key/value abstraction for long-term state).
#[derive(Debug, Clone, Default)]
pub struct CompiledGlobals {
    dicts: Vec<(String, SharedDict)>,
}

impl CompiledGlobals {
    /// Creates the globals for a lowered process.
    pub fn for_process(process: &ProcessIr) -> Arc<Self> {
        Arc::new(CompiledGlobals {
            dicts: process
                .globals
                .iter()
                .map(|name| (name.clone(), SharedDict::new()))
                .collect(),
        })
    }

    /// Looks up a global dictionary by name (used by tests and tooling).
    pub fn dict(&self, name: &str) -> Option<&SharedDict> {
        self.dicts.iter().find(|(n, _)| n == name).map(|(_, d)| d)
    }
}

pub(crate) struct OutputsSink<'a, 'c> {
    pub(crate) outputs: &'a mut Outputs<'c>,
}

impl EmitSink for OutputsSink<'_, '_> {
    fn send(&mut self, channel: usize, value: Value) {
        self.outputs.emit(channel, value);
    }
}

/// The arriving message as one matching rule sees it: the last rule takes
/// the message itself, so only a program with several rules on one input
/// pays for copies.
pub(crate) fn message_for_rule(message: &mut Value, last_rule: bool) -> Value {
    if last_rule {
        std::mem::replace(message, Value::Unit)
    } else {
        message.clone()
    }
}

/// The general compute logic for compiled FLICK processes.
pub struct InterpreterLogic {
    program: Arc<ProgramIr>,
    bindings: ChannelBindings,
    globals: Arc<CompiledGlobals>,
    /// The process frame: channel parameters followed by globals.
    base_frame: Vec<RtVal>,
}

impl InterpreterLogic {
    /// Creates the logic for one graph instance.
    pub fn new(
        program: Arc<ProgramIr>,
        bindings: ChannelBindings,
        globals: Arc<CompiledGlobals>,
    ) -> Self {
        let process = &program.process;
        let mut base_frame = Vec::with_capacity(process.frame_size);
        for idx in 0..process.params.len() {
            base_frame.push(bindings.frame_value(process, idx));
        }
        for name in &process.globals {
            let dict = globals.dict(name).cloned().unwrap_or_default();
            base_frame.push(RtVal::Dict(dict));
        }
        base_frame.resize(
            process.frame_size.max(base_frame.len()),
            RtVal::Val(Value::Unit),
        );
        InterpreterLogic {
            program,
            bindings,
            globals,
            base_frame,
        }
    }

    /// The per-service globals.
    pub fn globals(&self) -> &Arc<CompiledGlobals> {
        &self.globals
    }
}

impl ComputeLogic for InterpreterLogic {
    fn on_value(
        &mut self,
        input: usize,
        mut value: Value,
        out: &mut Outputs<'_>,
    ) -> Result<(), RuntimeError> {
        let Some(param) = self.bindings.param_of_input(input) else {
            return Ok(());
        };
        let interp = Interpreter::new(&self.program);
        let mut sink = OutputsSink { outputs: out };
        let mut rules = self
            .program
            .process
            .rules
            .iter()
            .filter(|rule| rule.source_param == param)
            .peekable();
        while let Some(rule) = rules.next() {
            let mut frame = self.base_frame.clone();
            // Thread the arriving message through the rule's stages.
            let mut current = RtVal::Val(message_for_rule(&mut value, rules.peek().is_none()));
            let mut failed = false;
            for stage in &rule.stages {
                let mut args = Vec::with_capacity(stage.args.len() + 1);
                for arg in &stage.args {
                    args.push(interp.eval(arg, &mut frame, &mut sink)?);
                }
                args.push(current);
                current = interp.call_function(stage.function, args, &mut sink)?;
                if matches!(current, RtVal::Val(Value::Unit)) {
                    // A unit-returning stage consumed the message.
                    failed = true;
                    break;
                }
            }
            if failed {
                continue;
            }
            match &rule.sink {
                crate::ir::IrSink::Channel(chan_expr) => {
                    let chan = interp.eval(chan_expr, &mut frame, &mut sink)?;
                    let value = current.into_value()?;
                    match chan {
                        RtVal::Channel(idx) => sink.send(idx, value),
                        RtVal::ChannelArray(idxs) if !idxs.is_empty() => sink.send(idxs[0], value),
                        _ => {}
                    }
                }
                crate::ir::IrSink::Call(call) => {
                    let mut args = Vec::with_capacity(call.args.len() + 1);
                    for arg in &call.args {
                        args.push(interp.eval(arg, &mut frame, &mut sink)?);
                    }
                    args.push(current);
                    interp.call_function(call.function, args, &mut sink)?;
                }
            }
        }
        Ok(())
    }
}

/// The specialised merge logic for `foldt` (Listing 3 / Figure 3c), one
/// instance per input of the folded array.
///
/// Each instance folds its own input's stream into its own map, with no
/// lock per record. When its input ends it merges that map into the
/// graph's [`Fold`], and the last input to end emits the merged elements
/// in key order. The combine sees the elements of one key in stream order
/// within an input, and across inputs in the order the inputs ended: a
/// combine that is not commutative yields an order-dependent aggregate, as
/// it would on any schedule of the streams.
pub struct FoldtLogic {
    program: Arc<ProgramIr>,
    /// When set, the combine body runs on the bytecode VM
    /// (`ExecMode::Vm`); otherwise the tree-walking interpreter runs it.
    vm: Option<VmCombine>,
    /// Output index of the reducer channel.
    sink_output: usize,
    /// This input's elements, ordered by key.
    merged: BTreeMap<String, Value>,
    fold: Arc<Fold>,
}

/// The fold of one graph: the elements of the inputs that have ended,
/// merged, and how many inputs are still open.
#[derive(Debug)]
pub struct Fold(Mutex<(BTreeMap<String, Value>, usize)>);

impl Fold {
    /// The fold of a graph whose folded array has `inputs` connections.
    pub fn new(inputs: usize) -> Arc<Self> {
        Arc::new(Fold(Mutex::new((BTreeMap::new(), inputs))))
    }
}

/// The VM's combine state: the compiled program, its field-site offset
/// cache, and the operand stack (the combine frame and every call's frame)
/// reused across combines.
struct VmCombine {
    compiled: Arc<crate::bytecode::CompiledProgram>,
    cache: Vec<u32>,
    stack: Vec<RtVal>,
}

/// The merge key of a `foldt` element — byte-identical to
/// `dict_key(&field_value(msg, field))`, but borrowed from the message when
/// the key field is text (or UTF-8 bytes), so a merge that hits an
/// existing key allocates no key at all.
fn merge_key<'v>(value: &'v Value, field: &str) -> Cow<'v, str> {
    match value {
        Value::Msg(msg) => match msg.get(field) {
            Some(MsgValue::Str(s)) => Cow::Borrowed(s),
            Some(MsgValue::Bytes(b)) => String::from_utf8_lossy(b),
            _ => Cow::Owned(dict_key(&field_value(msg, field))),
        },
        other => Cow::Owned(dict_key(other)),
    }
}

impl FoldtLogic {
    /// Creates the merge logic of one input of `fold`, emitting to output
    /// `sink_output`: the bytecode VM runs the combine body over
    /// `compiled` when it is given, the interpreter otherwise.
    pub fn new(
        program: Arc<ProgramIr>,
        compiled: Option<Arc<crate::bytecode::CompiledProgram>>,
        fold: Arc<Fold>,
        sink_output: usize,
    ) -> Self {
        FoldtLogic {
            program,
            vm: compiled.map(|compiled| VmCombine {
                cache: compiled.field_offsets.clone(),
                compiled,
                stack: Vec::new(),
            }),
            sink_output,
            merged: BTreeMap::new(),
            fold,
        }
    }

    /// Runs the combine body over two elements of one key (`key` is the
    /// key binder's value).
    fn combine(
        program: &ProgramIr,
        vm: Option<&mut VmCombine>,
        existing: Value,
        incoming: Value,
        key: Value,
    ) -> Result<Value, RuntimeError> {
        let no_foldt = || RuntimeError::Logic("process has no foldt".into());
        let no_element = || RuntimeError::Logic("foldt body produced no element".into());
        let mut sink = crate::interp::CollectSink::default();
        if let Some(VmCombine {
            compiled,
            cache,
            stack,
        }) = vm
        {
            let foldt = compiled.foldt.as_ref().ok_or_else(no_foldt)?;
            stack.resize(foldt.chunk.frame_size, RtVal::Val(Value::Unit));
            let (s1, s2, sk) = foldt.binder_slots;
            stack[s1] = RtVal::Val(existing);
            stack[s2] = RtVal::Val(incoming);
            stack[sk] = RtVal::Val(key);
            let mut vm = crate::vm::Vm::new(compiled, cache);
            let result = vm.run_chunk(&foldt.chunk, 0, stack, &mut sink);
            // Keep the capacity, not the elements (they pin ingest chunks).
            stack.clear();
            let result = result?;
            // In the chunk encoding a body whose tail is not an expression
            // yields `Unit`; a well-typed combine body always produces the
            // (non-unit) element, so `Unit` here is the interpreter's
            // "no element" defect.
            return match result {
                RtVal::Val(Value::Unit) => Err(no_element()),
                other => other.into_value(),
            };
        }
        let foldt = program.process.foldt.as_ref().ok_or_else(no_foldt)?;
        let interp = Interpreter::new(program);
        let mut frame = vec![RtVal::Val(Value::Unit); foldt.frame_size];
        let (s1, s2, sk) = foldt.binder_slots;
        frame[s1] = RtVal::Val(existing);
        frame[s2] = RtVal::Val(incoming);
        frame[sk] = RtVal::Val(key);
        let result = interp.exec_block(&foldt.body, &mut frame, &mut sink)?;
        result
            .map(RtVal::into_value)
            .transpose()?
            .ok_or_else(no_element)
    }
}

impl ComputeLogic for FoldtLogic {
    fn on_value(
        &mut self,
        _input: usize,
        mut value: Value,
        _out: &mut Outputs<'_>,
    ) -> Result<(), RuntimeError> {
        let Some(foldt) = self.program.process.foldt.as_ref() else {
            return Ok(());
        };
        // A stored element outlives its ingest chunk (a key seen once is
        // held until the job ends), so whatever is stored is compacted
        // first and pins no chunk, as `SharedDict::set` does. A combined
        // element the body built afresh has nothing to re-own. Nor does
        // a stored one keep its raw bytes: it is serialised from its
        // fields, as a combined one is, so the aggregate leaves in a few
        // coalesced writes instead of one per raw record.
        let key = merge_key(&value, &foldt.key_field);
        match self.merged.get_mut(key.as_ref()) {
            Some(slot) => {
                let key = Value::Str(key.into_owned());
                let existing = std::mem::replace(slot, Value::Unit);
                *slot = Self::combine(&self.program, self.vm.as_mut(), existing, value, key)?;
                slot.compact();
            }
            None => {
                let key = key.into_owned();
                if let Value::Msg(msg) = &mut value {
                    msg.forget_raw();
                }
                value.compact();
                self.merged.insert(key, value);
            }
        }
        Ok(())
    }

    /// Merges this input's elements into the graph's fold: the first input
    /// to end moves its map in whole; a later one combines each of its
    /// elements into the stored one of its key. The last to end emits the
    /// fold in key order.
    fn on_input_finished(
        &mut self,
        _input: usize,
        out: &mut Outputs<'_>,
    ) -> Result<(), RuntimeError> {
        let mut fold = self
            .fold
            .0
            .lock()
            .expect("no merge panics holding the fold");
        let (elements, open) = &mut *fold;
        if elements.is_empty() {
            std::mem::swap(elements, &mut self.merged);
        }
        for (key, incoming) in std::mem::take(&mut self.merged) {
            match elements.get_mut(&key) {
                Some(slot) => {
                    let existing = std::mem::replace(slot, Value::Unit);
                    let key = Value::Str(key);
                    *slot =
                        Self::combine(&self.program, self.vm.as_mut(), existing, incoming, key)?;
                    slot.compact();
                }
                None => {
                    elements.insert(key, incoming);
                }
            }
        }
        *open -= 1;
        if *open > 0 {
            return Ok(());
        }
        let elements = std::mem::take(elements);
        drop(fold);
        for value in elements.into_values() {
            out.emit(self.sink_output, value);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::lower;
    use bytes::Bytes;
    use flick_grammar::{Message, MsgValue};
    use flick_lang::compile_to_ast;
    use flick_runtime::channel::TaskChannel;
    use flick_runtime::task::{TaskId, NO_DEADLINE};
    use flick_runtime::{LogicHarness, RuntimeMetrics, TaskContext};

    fn ctx() -> TaskContext {
        TaskContext::new(TaskId(0), NO_DEADLINE, RuntimeMetrics::new_shared())
    }

    fn kv_msg(key: &str, value: &str) -> Value {
        let mut m = Message::new("kv");
        m.set("key", MsgValue::Str(key.into()));
        m.set("value", MsgValue::Str(value.into()));
        Value::Msg(m)
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

    fn proxy_logic(backends: usize) -> (Arc<ProgramIr>, InterpreterLogic) {
        let typed = compile_to_ast(PROXY).unwrap();
        let program = Arc::new(lower(&typed, "Memcached").unwrap());
        let bindings = ChannelBindings {
            params: vec![
                ParamBinding {
                    inputs: vec![0],
                    outputs: vec![0],
                },
                ParamBinding {
                    inputs: (1..=backends).collect(),
                    outputs: (1..=backends).collect(),
                },
            ],
        };
        let globals = CompiledGlobals::for_process(&program.process);
        let logic = InterpreterLogic::new(Arc::clone(&program), bindings, globals);
        (program, logic)
    }

    #[test]
    fn proxy_routes_requests_to_backends_and_responses_to_client() {
        let (_program, logic) = proxy_logic(3);
        // 4 inputs (client + 3 backends) and 4 matching outputs.
        let (output_producers, output_consumers): (Vec<_>, Vec<_>) = (0..4)
            .map(|i| TaskChannel::bounded(64, TaskId(200 + i)))
            .unzip();
        let mut logic = LogicHarness::new(Box::new(logic), output_producers);

        // A client request is routed to exactly one backend output (1..=3).
        let mut m = Message::new("cmd");
        m.set("key", MsgValue::Str("user:7".into()));
        logic.on_value(0, Value::Msg(m), &mut ctx()).unwrap();
        let routed: Vec<usize> = (1..4).filter(|i| output_consumers[*i].len() == 1).collect();
        assert_eq!(
            routed.len(),
            1,
            "exactly one backend should receive the request"
        );
        assert_eq!(output_consumers[0].len(), 0);

        // A backend response goes back to the client output 0.
        let mut resp = Message::new("cmd");
        resp.set("key", MsgValue::Str("user:7".into()));
        logic
            .on_value(routed[0], Value::Msg(resp), &mut ctx())
            .unwrap();
        assert_eq!(output_consumers[0].len(), 1);
    }

    #[test]
    fn globals_are_shared_across_logic_instances() {
        let src = r#"
type cmd: record
  opcode : integer {signed=false, size=1}
  keylen : integer {signed=false, size=2}
  key : string {size=keylen}

proc memcached: (cmd/cmd client, [cmd/cmd] backends)
  global cache := empty_dict
  backends => update_cache(cache) => client
  client => test_cache(client, backends, cache)

fun update_cache: (cache: ref dict<string*cmd>, resp: cmd) -> (cmd)
  if resp.opcode = 12:
    cache[resp.key] := resp
  resp

fun test_cache: (-/cmd client, [-/cmd] backends, cache: ref dict<string*cmd>, req: cmd) -> ()
  if cache[req.key] = None or req.opcode <> 12:
    let target = hash(req.key) mod len(backends)
    req => backends[target]
  else:
    cache[req.key] => client
"#;
        let typed = compile_to_ast(src).unwrap();
        let program = Arc::new(lower(&typed, "memcached").unwrap());
        let globals = CompiledGlobals::for_process(&program.process);
        let bindings = ChannelBindings {
            params: vec![
                ParamBinding {
                    inputs: vec![0],
                    outputs: vec![0],
                },
                ParamBinding {
                    inputs: vec![1],
                    outputs: vec![1],
                },
            ],
        };
        let a = InterpreterLogic::new(Arc::clone(&program), bindings.clone(), Arc::clone(&globals));
        let b = InterpreterLogic::new(program, bindings, Arc::clone(&globals));
        assert!(Arc::ptr_eq(a.globals(), b.globals()));
        assert!(globals.dict("cache").is_some());
        assert!(globals.dict("missing").is_none());
    }

    #[test]
    fn foldt_logic_merges_streams_by_key() {
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
  v1 + v2
"#;
        let typed = compile_to_ast(src).unwrap();
        let program = Arc::new(lower(&typed, "hadoop").unwrap());
        let fold = Fold::new(2);
        let (out_tx, out_rx) = TaskChannel::bounded(64, TaskId(400));
        let mut inputs: Vec<LogicHarness> = (0..2)
            .map(|_| {
                let logic = FoldtLogic::new(Arc::clone(&program), None, Arc::clone(&fold), 0);
                LogicHarness::new(Box::new(logic), vec![out_tx.clone()])
            })
            .collect();
        out_tx.close();

        inputs[0]
            .on_value(0, kv_msg("apple", "2"), &mut ctx())
            .unwrap();
        inputs[0]
            .on_value(0, kv_msg("pear", "1"), &mut ctx())
            .unwrap();
        inputs[1]
            .on_value(1, kv_msg("apple", "3"), &mut ctx())
            .unwrap();
        assert_eq!(
            out_rx.len(),
            0,
            "nothing is emitted until the inputs finish"
        );

        inputs[0].on_input_finished(0, &mut ctx()).unwrap();
        assert_eq!(out_rx.len(), 0, "nor until the last one does");
        inputs[1].on_input_finished(1, &mut ctx()).unwrap();
        inputs.iter().for_each(LogicHarness::close);
        // Two keys, in order: apple (combined "2"+"3" = "23"), pear.
        let first = out_rx.pop(&mut ctx()).unwrap().into_msg().unwrap();
        assert_eq!(first.str_field("key"), Some("apple"));
        assert_eq!(first.str_field("value"), Some("23"));
        let second = out_rx.pop(&mut ctx()).unwrap().into_msg().unwrap();
        assert_eq!(second.str_field("key"), Some("pear"));
        assert!(out_rx.is_finished());
    }

    /// The wordcount aggregator of Listing 3, as the services crate ships it.
    const WORDCOUNT: &str = r#"
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

    /// One input's share of a wordcount `fold`, its combine run on the VM
    /// or on the interpreter.
    fn wordcount_logic(vm: bool, fold: &Arc<Fold>) -> Box<dyn ComputeLogic> {
        let program = Arc::new(lower(&compile_to_ast(WORDCOUNT).unwrap(), "hadoop").unwrap());
        let compiled = vm.then(|| Arc::new(crate::bytecode::compile(&program)));
        Box::new(FoldtLogic::new(program, compiled, Arc::clone(fold), 0))
    }

    /// Folds each input's values in its own logic, ends the inputs in
    /// order, and returns what the last one emits.
    fn run_foldt(vm: bool, inputs: Vec<Vec<Value>>) -> Vec<Value> {
        let fold = Fold::new(inputs.len());
        let (out_tx, out_rx) = TaskChannel::bounded(64, TaskId(600));
        for (input, values) in inputs.into_iter().enumerate() {
            let logic = wordcount_logic(vm, &fold);
            let mut logic = LogicHarness::new(logic, vec![out_tx.clone()]);
            for value in values {
                logic.on_value(input, value, &mut ctx()).unwrap();
            }
            logic.on_input_finished(input, &mut ctx()).unwrap();
        }
        std::iter::from_fn(|| out_rx.pop(&mut ctx())).collect()
    }

    #[test]
    fn merge_keys_match_dict_key_of_the_field_value_for_every_kind() {
        let kinds = [
            MsgValue::Str("apple".into()),
            MsgValue::Bytes(Bytes::from_static(b"pear")),
            MsgValue::Bytes(Bytes::from_static(b"\xffnot utf-8\xfe")),
            MsgValue::UInt(42),
            MsgValue::UInt(u64::MAX),
            MsgValue::Int(-7),
            MsgValue::Bool(true),
        ];
        for kind in kinds {
            let mut msg = Message::new("kv");
            msg.set("key", kind.clone());
            let expected = dict_key(&field_value(&msg, "key"));
            assert_eq!(merge_key(&Value::Msg(msg), "key"), expected, "{kind:?}");
        }
        let missing = Value::Msg(Message::new("kv"));
        assert_eq!(merge_key(&missing, "key"), dict_key(&Value::None));
        assert_eq!(merge_key(&Value::Int(3), "key"), dict_key(&Value::Int(3)));
        // Text keys are read in place, not built.
        assert!(matches!(
            merge_key(&kv_msg("apple", "1"), "key"),
            Cow::Borrowed("apple")
        ));
    }

    #[test]
    fn foldt_output_is_identical_under_both_engines() {
        let words = ["fig", "apple", "pear", "apple", "kiwi", "fig", "apple"];
        let inputs = || {
            (0..3)
                .map(|m| {
                    words
                        .iter()
                        .enumerate()
                        .map(|(i, w)| kv_msg(w, &(i + m).to_string()))
                        .collect()
                })
                .collect()
        };
        let interp = run_foldt(false, inputs());
        let vm = run_foldt(true, inputs());
        assert_eq!(interp, vm);
        let apple = interp[0].as_msg().unwrap();
        assert_eq!(apple.str_field("key"), Some("apple"));
        // apple at 1, 3, 6 in each of three streams offset by 0, 1, 2.
        assert_eq!(apple.str_field("value"), Some("39"));
        assert_eq!(interp.len(), 4, "one record per distinct word");
    }

    /// A key seen once is held until the job ends, so the stored element
    /// must not pin its connection's ingest chunk (DESIGN.md §11) — the
    /// same rule `SharedDict::set` follows.
    #[test]
    fn foldt_compacts_stored_elements_off_the_ingest_chunk() {
        use flick_grammar::hadoop::{count_kv, HadoopKvCodec};
        use flick_grammar::{ParseOutcome, WireCodec};
        use flick_net::SharedBuf;

        for vm in [false, true] {
            let codec = HadoopKvCodec::new();
            let mut wire = Vec::new();
            codec.serialize(&count_kv("once", 1), &mut wire).unwrap();
            let mut buf = SharedBuf::new(64);
            let (tail, _) = buf.tail_mut(wire.len());
            tail[..wire.len()].copy_from_slice(&wire);
            buf.commit(wire.len());
            let view = buf.view();
            let ParseOutcome::Complete { message, consumed } =
                codec.parse_bytes(&view, None).unwrap()
            else {
                panic!("complete record expected");
            };
            drop(view);
            buf.consume(consumed);
            assert!(buf.is_shared(), "the parsed record pins the chunk");

            let (out_tx, out_rx) = TaskChannel::bounded(4, TaskId(2));
            let logic = wordcount_logic(vm, &Fold::new(1));
            let mut logic = LogicHarness::new(logic, vec![out_tx]);
            logic.on_value(0, Value::Msg(message), &mut ctx()).unwrap();
            assert!(
                !buf.is_shared(),
                "a stored element must be compacted off the ingest chunk"
            );
            logic.on_input_finished(0, &mut ctx()).unwrap();
            let out = out_rx.pop(&mut ctx()).unwrap().into_msg().unwrap();
            assert!(out.raw().is_none(), "serialised from its fields");
            assert_eq!(out.str_field("key"), Some("once"));
            assert_eq!(out.str_field("value"), Some("1"));
        }
    }
}
