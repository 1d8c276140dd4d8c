//! The IR interpreter, the `ExecMode::Interp` engine.
//!
//! The interpreter evaluates [`IrExpr`]/[`IrStmt`] over a pre-sized frame of
//! [`RtVal`] slots. Channel references are plain output indices into the
//! running task's outputs; sends are delivered through the
//! [`EmitSink`] callback so the interpreter itself has no dependency on the
//! task machinery.

use crate::error::{locate, locate_frame};
use crate::ir::{Builtin, FunctionIr, IrCall, IrExpr, IrSink, IrStmt, ProgramIr};
use flick_grammar::{Message, MsgValue};
use flick_lang::ast::{BinOp, UnOp};
use flick_runtime::{RuntimeError, SharedDict, Value};

/// A value manipulated by the interpreter: either an ordinary runtime value
/// or one of the reference kinds (channels, channel arrays, dictionaries).
#[derive(Debug, Clone)]
pub enum RtVal {
    /// An ordinary value.
    Val(Value),
    /// A single output channel, by output index.
    Channel(usize),
    /// An array of output channels.
    ChannelArray(Vec<usize>),
    /// A (shared) dictionary.
    Dict(SharedDict),
}

impl RtVal {
    /// Extracts the plain value, if this is one.
    pub fn into_value(self) -> Result<Value, RuntimeError> {
        match self {
            RtVal::Val(v) => Ok(v),
            other => Err(RuntimeError::Logic(format!(
                "expected a value, found {other:?}"
            ))),
        }
    }

    pub(crate) fn as_value(&self) -> Result<&Value, RuntimeError> {
        match self {
            RtVal::Val(v) => Ok(v),
            other => Err(RuntimeError::Logic(format!(
                "expected a value, found {other:?}"
            ))),
        }
    }
}

/// Receives values sent to output channels during interpretation.
pub trait EmitSink {
    /// Sends `value` to output channel `channel`.
    fn send(&mut self, channel: usize, value: Value);
}

/// An [`EmitSink`] that records sends into a vector (used by tests and by
/// the foldt logic which forwards them later).
#[derive(Debug, Default)]
pub struct CollectSink {
    /// The recorded `(channel, value)` pairs.
    pub sent: Vec<(usize, Value)>,
}

impl EmitSink for CollectSink {
    fn send(&mut self, channel: usize, value: Value) {
        self.sent.push((channel, value));
    }
}

/// The IR interpreter.
pub struct Interpreter<'a> {
    program: &'a ProgramIr,
}

impl<'a> Interpreter<'a> {
    /// Creates an interpreter over a lowered program.
    pub fn new(program: &'a ProgramIr) -> Self {
        Interpreter { program }
    }

    /// Calls function `index` with the given arguments.
    pub fn call_function(
        &self,
        index: usize,
        args: Vec<RtVal>,
        sink: &mut dyn EmitSink,
    ) -> Result<RtVal, RuntimeError> {
        let function: &FunctionIr = self
            .program
            .functions
            .get(index)
            .ok_or_else(|| RuntimeError::Logic(format!("unknown function index {index}")))?;
        if args.len() != function.params {
            return Err(RuntimeError::Logic(format!(
                "function `{}` expects {} arguments, got {}",
                function.name,
                function.params,
                args.len()
            )));
        }
        let mut frame = vec![RtVal::Val(Value::Unit); function.frame_size.max(args.len())];
        for (i, arg) in args.into_iter().enumerate() {
            frame[i] = arg;
        }
        let result = self
            .exec_block(&function.body, &mut frame, sink)
            .map_err(|e| locate_frame(e, &function.name))?;
        Ok(result.unwrap_or(RtVal::Val(Value::Unit)))
    }

    /// Executes a statement block, returning the value of its final
    /// expression statement (if any). Errors are annotated with the index
    /// of the failing statement (the innermost block wins), so interpreter
    /// diagnostics name the IR node like the VM's name its pc.
    pub fn exec_block(
        &self,
        stmts: &[IrStmt],
        frame: &mut Vec<RtVal>,
        sink: &mut dyn EmitSink,
    ) -> Result<Option<RtVal>, RuntimeError> {
        let mut last = None;
        for (i, stmt) in stmts.iter().enumerate() {
            last = self
                .exec_stmt(stmt, frame, sink)
                .map_err(|e| locate(e, || format!("stmt {i}")))?;
        }
        Ok(last)
    }

    fn exec_stmt(
        &self,
        stmt: &IrStmt,
        frame: &mut Vec<RtVal>,
        sink: &mut dyn EmitSink,
    ) -> Result<Option<RtVal>, RuntimeError> {
        match stmt {
            IrStmt::Store(slot, expr) => {
                let value = self.eval(expr, frame, sink)?;
                if *slot >= frame.len() {
                    frame.resize(slot + 1, RtVal::Val(Value::Unit));
                }
                frame[*slot] = value;
                Ok(None)
            }
            IrStmt::AssignIndex {
                target,
                index,
                value,
            } => {
                let target = self.eval(target, frame, sink)?;
                let key = self.eval(index, frame, sink)?;
                let value = self.eval(value, frame, sink)?.into_value()?;
                match target {
                    RtVal::Dict(dict) => {
                        dict.set(dict_key(key.as_value()?), value);
                        Ok(None)
                    }
                    other => Err(RuntimeError::Logic(format!(
                        "cannot index-assign into {other:?}"
                    ))),
                }
            }
            IrStmt::Pipeline {
                source,
                stages,
                sink: dest,
            } => {
                let mut value = self.eval(source, frame, sink)?;
                for stage in stages {
                    value = self.run_call(stage, Some(value), frame, sink)?;
                }
                match dest {
                    IrSink::Channel(chan) => {
                        let chan = self.eval(chan, frame, sink)?;
                        let value = value.into_value()?;
                        match chan {
                            RtVal::Channel(idx) => sink.send(idx, value),
                            RtVal::ChannelArray(ref idxs) if idxs.len() == 1 => {
                                sink.send(idxs[0], value)
                            }
                            other => {
                                return Err(RuntimeError::Logic(format!(
                                    "pipeline destination is not a channel: {other:?}"
                                )))
                            }
                        }
                        Ok(None)
                    }
                    IrSink::Call(call) => {
                        self.run_call(call, Some(value), frame, sink)?;
                        Ok(None)
                    }
                }
            }
            IrStmt::If { cond, then, els } => {
                let cond = self.eval(cond, frame, sink)?.into_value()?;
                if cond.truthy() {
                    self.exec_block(then, frame, sink)
                } else {
                    self.exec_block(els, frame, sink)
                }
            }
            IrStmt::For { slot, iter, body } => {
                let list = self.eval(iter, frame, sink)?;
                let items = match list {
                    RtVal::Val(Value::List(items)) => items,
                    other => {
                        return Err(RuntimeError::Logic(format!(
                            "`for` expects a list, found {other:?}"
                        )))
                    }
                };
                for item in items {
                    if *slot >= frame.len() {
                        frame.resize(slot + 1, RtVal::Val(Value::Unit));
                    }
                    frame[*slot] = RtVal::Val(item);
                    self.exec_block(body, frame, sink)?;
                }
                Ok(None)
            }
            IrStmt::Expr(expr) => Ok(Some(self.eval(expr, frame, sink)?)),
        }
    }

    fn run_call(
        &self,
        call: &IrCall,
        piped: Option<RtVal>,
        frame: &mut Vec<RtVal>,
        sink: &mut dyn EmitSink,
    ) -> Result<RtVal, RuntimeError> {
        let mut args = Vec::with_capacity(call.args.len() + 1);
        for arg in &call.args {
            args.push(self.eval(arg, frame, sink)?);
        }
        if let Some(piped) = piped {
            args.push(piped);
        }
        self.call_function(call.function, args, sink)
    }

    /// Evaluates an expression.
    pub fn eval(
        &self,
        expr: &IrExpr,
        frame: &mut Vec<RtVal>,
        sink: &mut dyn EmitSink,
    ) -> Result<RtVal, RuntimeError> {
        Ok(match expr {
            IrExpr::Int(v) => RtVal::Val(Value::Int(*v)),
            IrExpr::Str(s) => RtVal::Val(Value::Str(s.clone())),
            IrExpr::Bool(b) => RtVal::Val(Value::Bool(*b)),
            IrExpr::None => RtVal::Val(Value::None),
            IrExpr::Load(slot) => frame
                .get(*slot)
                .cloned()
                .ok_or_else(|| RuntimeError::Logic(format!("frame slot {slot} out of range")))?,
            IrExpr::Field(base, field) => {
                let base = self.eval(base, frame, sink)?;
                match base {
                    RtVal::Val(Value::Msg(msg)) => RtVal::Val(field_value(&msg, field)),
                    other => {
                        return Err(RuntimeError::Logic(format!(
                            "cannot read field `{field}` of {other:?}"
                        )))
                    }
                }
            }
            IrExpr::Index(base, index) => {
                let base = self.eval(base, frame, sink)?;
                let index = self.eval(index, frame, sink)?;
                match base {
                    RtVal::ChannelArray(indices) => {
                        let i = index.as_value()?.as_int().ok_or_else(|| {
                            RuntimeError::Logic("channel-array index must be an integer".into())
                        })? as usize;
                        let idx = indices.get(i).copied().ok_or_else(|| {
                            RuntimeError::Logic(format!("channel index {i} out of range"))
                        })?;
                        RtVal::Channel(idx)
                    }
                    RtVal::Dict(dict) => RtVal::Val(dict.get(&dict_key(index.as_value()?))),
                    RtVal::Val(Value::List(items)) => {
                        let i = index.as_value()?.as_int().unwrap_or(0) as usize;
                        RtVal::Val(items.get(i).cloned().unwrap_or(Value::None))
                    }
                    other => {
                        return Err(RuntimeError::Logic(format!("cannot index into {other:?}")))
                    }
                }
            }
            IrExpr::Binary(op, lhs, rhs) => {
                let l = self.eval(lhs, frame, sink)?;
                let r = self.eval(rhs, frame, sink)?;
                RtVal::Val(binary(*op, l.as_value()?, r.as_value()?)?)
            }
            IrExpr::Unary(op, operand) => {
                let v = self.eval(operand, frame, sink)?;
                RtVal::Val(unary(*op, v.as_value()?)?)
            }
            IrExpr::Call(call) => self.run_call(call, None, frame, sink)?,
            IrExpr::Builtin(builtin, args) => {
                let mut values = Vec::with_capacity(args.len());
                for a in args {
                    values.push(self.eval(a, frame, sink)?);
                }
                eval_builtin(*builtin, &values)?
            }
            IrExpr::MakeRecord(unit, fields, values) => {
                let mut msg = Message::with_capacity(unit.clone(), fields.len());
                for (name, value_expr) in fields.iter().zip(values.iter()) {
                    let value = self.eval(value_expr, frame, sink)?.into_value()?;
                    msg.set(name.clone(), to_msg_value(value));
                }
                RtVal::Val(Value::Msg(msg))
            }
            IrExpr::Fold {
                function,
                init,
                list,
            } => {
                let mut acc = self.eval(init, frame, sink)?;
                for item in self.eval_list(list, frame, sink)? {
                    acc = self.call_function(*function, vec![acc, RtVal::Val(item)], sink)?;
                }
                acc
            }
            IrExpr::Map { function, list } => {
                let mut out = Vec::new();
                for item in self.eval_list(list, frame, sink)? {
                    out.push(
                        self.call_function(*function, vec![RtVal::Val(item)], sink)?
                            .into_value()?,
                    );
                }
                RtVal::Val(Value::List(out))
            }
            IrExpr::Filter { function, list } => {
                let mut out = Vec::new();
                for item in self.eval_list(list, frame, sink)? {
                    let keep = self
                        .call_function(*function, vec![RtVal::Val(item.clone())], sink)?
                        .into_value()?
                        .truthy();
                    if keep {
                        out.push(item);
                    }
                }
                RtVal::Val(Value::List(out))
            }
        })
    }

    fn eval_list(
        &self,
        list: &IrExpr,
        frame: &mut Vec<RtVal>,
        sink: &mut dyn EmitSink,
    ) -> Result<Vec<Value>, RuntimeError> {
        list_items(self.eval(list, frame, sink)?)
    }
}

/// Coerces a value into the item list that `fold`/`map`/`filter` iterate
/// (strings explode into single-character strings). Shared by the
/// interpreter and the bytecode VM.
pub(crate) fn list_items(value: RtVal) -> Result<Vec<Value>, RuntimeError> {
    match value {
        RtVal::Val(Value::List(items)) => Ok(items),
        RtVal::Val(Value::Str(s)) => Ok(s.chars().map(|c| Value::Str(c.to_string())).collect()),
        other => Err(RuntimeError::Logic(format!(
            "expected a list, found {other:?}"
        ))),
    }
}

/// Evaluates a builtin over already-evaluated arguments. Shared by the
/// interpreter and the bytecode VM (which passes its operand stack's top
/// in place).
pub(crate) fn eval_builtin(builtin: Builtin, args: &[RtVal]) -> Result<RtVal, RuntimeError> {
    Ok(match builtin {
        Builtin::Hash => {
            let v = args
                .first()
                .ok_or_else(|| RuntimeError::Logic("`hash` needs an argument".into()))?;
            RtVal::Val(Value::Int(hash_value(v.as_value()?)))
        }
        Builtin::Len => {
            let v = args
                .first()
                .ok_or_else(|| RuntimeError::Logic("`len` needs an argument".into()))?;
            let len = match v {
                RtVal::ChannelArray(indices) => indices.len() as i64,
                RtVal::Dict(dict) => dict.len() as i64,
                RtVal::Val(Value::List(items)) => items.len() as i64,
                RtVal::Val(Value::Str(s)) => s.len() as i64,
                RtVal::Val(Value::Bytes(b)) => b.len() as i64,
                other => {
                    return Err(RuntimeError::Logic(format!(
                        "`len` of unsupported value {other:?}"
                    )))
                }
            };
            RtVal::Val(Value::Int(len))
        }
        Builtin::EmptyDict => RtVal::Dict(SharedDict::new()),
        Builtin::AllReady => RtVal::Val(Value::Bool(true)),
        Builtin::Str => {
            let v = args
                .first()
                .ok_or_else(|| RuntimeError::Logic("`str` needs an argument".into()))?;
            RtVal::Val(Value::Str(match v.as_value()? {
                Value::Str(s) => s.clone(),
                Value::Int(i) => i.to_string(),
                Value::Bool(b) => b.to_string(),
                other => other.to_string(),
            }))
        }
        Builtin::Int => {
            let v = args
                .first()
                .ok_or_else(|| RuntimeError::Logic("`int` needs an argument".into()))?;
            let value = match v.as_value()? {
                Value::Int(i) => *i,
                Value::Str(s) => s.trim().parse().unwrap_or(0),
                Value::Bool(b) => *b as i64,
                _ => 0,
            };
            RtVal::Val(Value::Int(value))
        }
    })
}

/// Converts a runtime value used as a dictionary key to its canonical string
/// form.
pub fn dict_key(value: &Value) -> String {
    match value {
        Value::Str(s) => s.clone(),
        Value::Bytes(b) => String::from_utf8_lossy(b).into_owned(),
        Value::Int(i) => i.to_string(),
        Value::Bool(b) => b.to_string(),
        other => other.to_string(),
    }
}

/// Reads a message field as a runtime value.
pub fn field_value(msg: &Message, field: &str) -> Value {
    match msg.get(field) {
        Some(MsgValue::UInt(v)) => Value::Int(*v as i64),
        Some(MsgValue::Int(v)) => Value::Int(*v),
        Some(MsgValue::Bool(b)) => Value::Bool(*b),
        Some(MsgValue::Str(s)) => Value::Str(s.clone()),
        Some(MsgValue::Bytes(b)) => Value::Bytes(b.clone()),
        None => Value::None,
    }
}

/// Converts a runtime value into a message field value.
pub fn to_msg_value(value: Value) -> MsgValue {
    match value {
        Value::Int(v) => {
            if v >= 0 {
                MsgValue::UInt(v as u64)
            } else {
                MsgValue::Int(v)
            }
        }
        Value::Bool(b) => MsgValue::Bool(b),
        Value::Str(s) => MsgValue::Str(s),
        Value::Bytes(b) => MsgValue::Bytes(b),
        Value::Msg(m) => MsgValue::Str(m.to_string()),
        other => MsgValue::Str(other.to_string()),
    }
}

/// A stable FNV-1a hash used by the `hash` builtin, truncated to a
/// non-negative `i64` so that `hash(x) mod len(backends)` is well defined.
pub fn hash_value(value: &Value) -> i64 {
    let mut hash: u64 = 0xcbf29ce484222325;
    let mut feed = |bytes: &[u8]| {
        for b in bytes {
            hash ^= *b as u64;
            hash = hash.wrapping_mul(0x100000001b3);
        }
    };
    match value {
        Value::Str(s) => feed(s.as_bytes()),
        Value::Bytes(b) => feed(b),
        Value::Int(i) => feed(&i.to_le_bytes()),
        Value::Bool(b) => feed(&[*b as u8]),
        Value::Msg(m) => feed(m.to_string().as_bytes()),
        other => feed(other.to_string().as_bytes()),
    }
    (hash >> 1) as i64
}

/// The value of an integer operation, or the error FLICK arithmetic
/// raises when the result does not fit an `i64` — in both build profiles,
/// so no operand a program can compute (or read off the wire) panics.
fn checked(result: Option<i64>) -> Result<Value, RuntimeError> {
    result
        .map(Value::Int)
        .ok_or_else(|| RuntimeError::Logic("integer overflow".into()))
}

/// Applies a binary operator with FLICK's coercion rules (`+` concatenates
/// strings, arithmetic coerces through [`int_of`]). Shared verbatim by the
/// interpreter and the bytecode VM so the two execution modes cannot drift.
pub(crate) fn binary(op: BinOp, l: &Value, r: &Value) -> Result<Value, RuntimeError> {
    use BinOp::*;
    Ok(match op {
        Add => match (l, r) {
            (Value::Str(a), Value::Str(b)) => Value::Str(format!("{a}{b}")),
            _ => checked(int_of(l).checked_add(int_of(r)))?,
        },
        Sub => checked(int_of(l).checked_sub(int_of(r)))?,
        Mul => checked(int_of(l).checked_mul(int_of(r)))?,
        Div => {
            let divisor = int_of(r);
            if divisor == 0 {
                return Err(RuntimeError::Logic("division by zero".into()));
            }
            checked(int_of(l).checked_div(divisor))?
        }
        Mod => {
            let divisor = int_of(r);
            if divisor == 0 {
                return Err(RuntimeError::Logic("modulo by zero".into()));
            }
            checked(int_of(l).checked_rem_euclid(divisor))?
        }
        Eq => Value::Bool(values_equal(l, r)),
        Neq => Value::Bool(!values_equal(l, r)),
        Lt => Value::Bool(compare(l, r).is_lt()),
        Gt => Value::Bool(compare(l, r).is_gt()),
        Le => Value::Bool(compare(l, r).is_le()),
        Ge => Value::Bool(compare(l, r).is_ge()),
        And => Value::Bool(l.truthy() && r.truthy()),
        Or => Value::Bool(l.truthy() || r.truthy()),
    })
}

/// Applies a unary operator; like [`binary`], the one implementation both
/// engines call.
pub(crate) fn unary(op: UnOp, v: &Value) -> Result<Value, RuntimeError> {
    match op {
        UnOp::Neg => checked(v.as_int().unwrap_or(0).checked_neg()),
        UnOp::Not => Ok(Value::Bool(!v.truthy())),
    }
}

pub(crate) fn int_of(v: &Value) -> i64 {
    match v {
        Value::Int(i) => *i,
        Value::Bool(b) => *b as i64,
        Value::Str(s) => s.parse().unwrap_or(0),
        _ => 0,
    }
}

pub(crate) fn values_equal(l: &Value, r: &Value) -> bool {
    match (l, r) {
        (Value::None, Value::None) => true,
        (Value::None, _) | (_, Value::None) => false,
        (Value::Str(a), Value::Bytes(b)) => a.as_bytes() == &b[..],
        (Value::Bytes(a), Value::Str(b)) => &a[..] == b.as_bytes(),
        (a, b) => a == b,
    }
}

pub(crate) fn compare(l: &Value, r: &Value) -> std::cmp::Ordering {
    match (l, r) {
        (Value::Str(a), Value::Str(b)) => a.cmp(b),
        _ => int_of(l).cmp(&int_of(r)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::lower;
    use flick_lang::compile_to_ast;

    fn program(src: &str, proc_name: &str) -> ProgramIr {
        lower(&compile_to_ast(src).unwrap(), proc_name).unwrap()
    }

    const ROUTER: &str = r#"
type cmd: record
  key : string

proc P: (cmd/cmd client, [cmd/cmd] backends)
  client => target_backend(backends)

fun target_backend: ([-/cmd] backends, req: cmd) -> ()
  let target = hash(req.key) mod len(backends)
  req => backends[target]
"#;

    fn cmd_msg(key: &str) -> Message {
        let mut m = Message::new("cmd");
        m.set("key", MsgValue::Str(key.into()));
        m
    }

    #[test]
    fn routing_function_picks_a_backend_deterministically() {
        let ir = program(ROUTER, "P");
        let interp = Interpreter::new(&ir);
        let mut sink = CollectSink::default();
        // backends as output channels 1..=4.
        let backends = RtVal::ChannelArray(vec![1, 2, 3, 4]);
        let req = RtVal::Val(Value::Msg(cmd_msg("user:42")));
        interp
            .call_function(0, vec![backends.clone(), req.clone()], &mut sink)
            .unwrap();
        assert_eq!(sink.sent.len(), 1);
        let (chan_a, _) = sink.sent[0];
        assert!((1..=4).contains(&chan_a));
        // Deterministic: the same key always picks the same backend.
        let mut sink2 = CollectSink::default();
        let interp2 = Interpreter::new(&ir);
        interp2
            .call_function(0, vec![backends, req], &mut sink2)
            .unwrap();
        assert_eq!(sink2.sent[0].0, chan_a);
    }

    #[test]
    fn different_keys_spread_over_backends() {
        let ir = program(ROUTER, "P");
        let interp = Interpreter::new(&ir);
        let mut chosen = std::collections::HashSet::new();
        for i in 0..64 {
            let mut sink = CollectSink::default();
            interp
                .call_function(
                    0,
                    vec![
                        RtVal::ChannelArray(vec![1, 2, 3, 4]),
                        RtVal::Val(Value::Msg(cmd_msg(&format!("key-{i}")))),
                    ],
                    &mut sink,
                )
                .unwrap();
            chosen.insert(sink.sent[0].0);
        }
        assert!(
            chosen.len() >= 3,
            "hash routing should use most backends, got {chosen:?}"
        );
    }

    #[test]
    fn cache_router_functions_update_and_hit_the_cache() {
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
        let ir = program(src, "memcached");
        let interp = Interpreter::new(&ir);
        let cache = SharedDict::new();
        let update_idx = ir
            .functions
            .iter()
            .position(|f| f.name == "update_cache")
            .unwrap();
        let test_idx = ir
            .functions
            .iter()
            .position(|f| f.name == "test_cache")
            .unwrap();

        let mut getk = cmd_msg("user:1");
        getk.set("opcode", MsgValue::UInt(12));

        // A miss goes to a backend (channels 1..=2), not to the client (0).
        let mut sink = CollectSink::default();
        interp
            .call_function(
                test_idx,
                vec![
                    RtVal::Channel(0),
                    RtVal::ChannelArray(vec![1, 2]),
                    RtVal::Dict(cache.clone()),
                    RtVal::Val(Value::Msg(getk.clone())),
                ],
                &mut sink,
            )
            .unwrap();
        assert_eq!(sink.sent.len(), 1);
        assert_ne!(sink.sent[0].0, 0);

        // A GETK response populates the cache and is returned.
        let mut sink = CollectSink::default();
        let result = interp
            .call_function(
                update_idx,
                vec![
                    RtVal::Dict(cache.clone()),
                    RtVal::Val(Value::Msg(getk.clone())),
                ],
                &mut sink,
            )
            .unwrap();
        assert!(matches!(result, RtVal::Val(Value::Msg(_))));
        assert!(cache.contains("user:1"));

        // The same request now hits the cache and is answered to the client.
        let mut sink = CollectSink::default();
        interp
            .call_function(
                test_idx,
                vec![
                    RtVal::Channel(0),
                    RtVal::ChannelArray(vec![1, 2]),
                    RtVal::Dict(cache),
                    RtVal::Val(Value::Msg(getk)),
                ],
                &mut sink,
            )
            .unwrap();
        assert_eq!(sink.sent.len(), 1);
        assert_eq!(
            sink.sent[0].0, 0,
            "cache hit must be sent back to the client"
        );
    }

    #[test]
    fn fold_map_filter_evaluate() {
        let src = r#"
fun add: (acc: integer, x: integer) -> (integer)
  acc + x

fun double: (x: integer) -> (integer)
  x * 2

fun is_big: (x: integer) -> (bool)
  x > 4

fun calc: (xs: [integer]) -> (integer)
  fold(add, 0, filter(is_big, map(double, xs)))

type t: record
  key : string

proc P: (t/t c)
  c => c
"#;
        let ir = program(src, "P");
        let interp = Interpreter::new(&ir);
        let calc = ir.functions.iter().position(|f| f.name == "calc").unwrap();
        let xs = RtVal::Val(Value::List(vec![
            Value::Int(1),
            Value::Int(2),
            Value::Int(3),
        ]));
        let mut sink = CollectSink::default();
        // doubles: [2,4,6]; filtered (>4): [6]; sum = 6.
        let result = interp.call_function(calc, vec![xs], &mut sink).unwrap();
        assert_eq!(result.into_value().unwrap(), Value::Int(6));
    }

    #[test]
    fn division_and_modulo_by_zero_are_errors() {
        assert!(binary(BinOp::Div, &Value::Int(1), &Value::Int(0)).is_err());
        assert!(binary(BinOp::Mod, &Value::Int(1), &Value::Int(0)).is_err());
        assert_eq!(
            binary(BinOp::Mod, &Value::Int(-3), &Value::Int(4)).unwrap(),
            Value::Int(1)
        );
    }

    /// Integer arithmetic is total: at the `i64` edges every operator
    /// either yields the exact result or raises `integer overflow` — no
    /// panic, no wrap-around, in either build profile.
    #[test]
    fn integer_arithmetic_is_total_at_the_i64_edges() {
        use BinOp::*;
        let eval = |op, l: i64, r: i64| {
            binary(op, &Value::Int(l), &Value::Int(r)).map_err(|e| e.to_string())
        };
        let overflow = Err(RuntimeError::Logic("integer overflow".into()).to_string());
        let (min, max) = (i64::MIN, i64::MAX);
        for (op, l, r) in [
            (Add, max, 1),
            (Add, min, -1),
            (Sub, min, 1),
            (Sub, max, -1),
            (Sub, 0, min),
            (Mul, max, 2),
            (Mul, min, -1),
            (Mul, min, 2),
            (Div, min, -1),
            (Mod, min, -1),
        ] {
            assert_eq!(eval(op, l, r), overflow, "{l} {op:?} {r}");
        }
        for (op, l, r, exact) in [
            (Add, max, 0, max),
            (Add, max, min, -1),
            (Sub, min, -1, min + 1),
            (Sub, -1, max, min),
            (Mul, min, 1, min),
            (Mul, max, -1, min + 1),
            (Div, min, 1, min),
            (Div, max, -1, min + 1),
            (Mod, min, 1, 0),
            (Mod, min, max, max - 1),
            (Mod, max, min, max),
        ] {
            assert_eq!(eval(op, l, r), Ok(Value::Int(exact)), "{l} {op:?} {r}");
        }
        assert_eq!(
            unary(UnOp::Neg, &Value::Int(min)).map_err(|e| e.to_string()),
            overflow
        );
        assert_eq!(unary(UnOp::Neg, &Value::Int(max)), Ok(Value::Int(min + 1)));
    }

    #[test]
    fn string_comparisons_and_concatenation() {
        assert_eq!(
            binary(
                BinOp::Add,
                &Value::Str("ab".into()),
                &Value::Str("cd".into())
            )
            .unwrap(),
            Value::Str("abcd".into())
        );
        assert_eq!(
            binary(BinOp::Lt, &Value::Str("a".into()), &Value::Str("b".into())).unwrap(),
            Value::Bool(true)
        );
        assert_eq!(
            binary(BinOp::Eq, &Value::None, &Value::Str("x".into())).unwrap(),
            Value::Bool(false)
        );
        assert_eq!(
            binary(BinOp::Eq, &Value::None, &Value::None).unwrap(),
            Value::Bool(true)
        );
    }

    #[test]
    fn hash_is_stable_and_non_negative() {
        let a = hash_value(&Value::Str("user:1".into()));
        let b = hash_value(&Value::Str("user:1".into()));
        let c = hash_value(&Value::Str("user:2".into()));
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a >= 0);
    }
}
