//! The slot-resolved intermediate representation and its lowering.
//!
//! Lowering resolves every variable reference to a frame slot index, every
//! function call to a function index and every channel reference to a
//! *binding* (the position of the channel parameter in the process
//! signature). The interpreter therefore performs no name lookups on the
//! data path, mirroring the static memory layout of the paper's generated
//! C++.

use crate::error::CompileError;
use flick_lang::ast::{BinOp, Block, Expr, ExprKind, Stmt, UnOp};
use flick_lang::types::Type;
use flick_lang::TypedProgram;
use std::collections::HashMap;

/// Builtin functions known to the interpreter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Builtin {
    /// `hash(x)` — a stable non-negative hash of a value.
    Hash,
    /// `len(x)` — length of a list, string, dictionary or channel array.
    Len,
    /// `empty_dict` — a fresh dictionary.
    EmptyDict,
    /// `all_ready(cs)` — whether all channels have data (treated as true).
    AllReady,
    /// `str(x)` — string conversion.
    Str,
    /// `int(x)` — integer conversion.
    Int,
}

/// A call to a user-defined function, with argument expressions.
#[derive(Debug, Clone, PartialEq)]
pub struct IrCall {
    /// Index into [`ProgramIr::functions`].
    pub function: usize,
    /// Explicit argument expressions (the piped value, if any, is appended
    /// by the caller at run time).
    pub args: Vec<IrExpr>,
}

/// An expression with all names resolved.
#[derive(Debug, Clone, PartialEq)]
pub enum IrExpr {
    /// Integer literal.
    Int(i64),
    /// String literal.
    Str(String),
    /// Boolean literal.
    Bool(bool),
    /// The `None` literal.
    None,
    /// Read a frame slot.
    Load(usize),
    /// Field access on a message value.
    Field(Box<IrExpr>, String),
    /// Indexing into a list, dictionary or channel array.
    Index(Box<IrExpr>, Box<IrExpr>),
    /// Binary operation.
    Binary(BinOp, Box<IrExpr>, Box<IrExpr>),
    /// Unary operation.
    Unary(UnOp, Box<IrExpr>),
    /// Call of a user-defined function.
    Call(IrCall),
    /// Call of a builtin.
    Builtin(Builtin, Vec<IrExpr>),
    /// Record construction: unit name, field names, field values.
    MakeRecord(String, Vec<String>, Vec<IrExpr>),
    /// `fold(f, init, list)`.
    Fold {
        /// Combining function index.
        function: usize,
        /// Initial accumulator.
        init: Box<IrExpr>,
        /// The list expression.
        list: Box<IrExpr>,
    },
    /// `map(f, list)`.
    Map {
        /// Mapping function index.
        function: usize,
        /// The list expression.
        list: Box<IrExpr>,
    },
    /// `filter(f, list)`.
    Filter {
        /// Predicate function index.
        function: usize,
        /// The list expression.
        list: Box<IrExpr>,
    },
}

/// A statement with all names resolved.
#[derive(Debug, Clone, PartialEq)]
pub enum IrStmt {
    /// Store the value of an expression into a frame slot (`let`, or
    /// assignment to a local).
    Store(usize, IrExpr),
    /// `dict[key] := value` (also used for list element assignment).
    AssignIndex {
        /// The dictionary/list expression.
        target: IrExpr,
        /// The key/index expression.
        index: IrExpr,
        /// The value to store.
        value: IrExpr,
    },
    /// A pipeline statement: evaluate the source, thread it through the
    /// stages, and deliver it to the sink.
    Pipeline {
        /// The source value.
        source: IrExpr,
        /// Intermediate function stages (the piped value becomes each call's
        /// final argument; the call's result is piped onwards).
        stages: Vec<IrCall>,
        /// Where the final value goes.
        sink: IrSink,
    },
    /// Conditional execution.
    If {
        /// Condition.
        cond: IrExpr,
        /// Then branch.
        then: Vec<IrStmt>,
        /// Else branch.
        els: Vec<IrStmt>,
    },
    /// Bounded iteration over a finite list.
    For {
        /// Frame slot of the loop variable.
        slot: usize,
        /// The iterated list.
        iter: IrExpr,
        /// Loop body.
        body: Vec<IrStmt>,
    },
    /// An expression evaluated for its value (the last one in a function
    /// body is the return value) or for its side effects.
    Expr(IrExpr),
}

/// Destination of a pipeline.
#[derive(Debug, Clone, PartialEq)]
pub enum IrSink {
    /// Send into a channel denoted by the expression (a channel parameter or
    /// an indexed channel array).
    Channel(IrExpr),
    /// A consuming function call (the piped value is its final argument).
    Call(IrCall),
}

/// A lowered user-defined function.
#[derive(Debug, Clone, PartialEq)]
pub struct FunctionIr {
    /// The function name.
    pub name: String,
    /// Number of parameters (occupying frame slots `0..params`).
    pub params: usize,
    /// Total frame size (parameters plus locals).
    pub frame_size: usize,
    /// The body.
    pub body: Vec<IrStmt>,
}

/// Direction of a process channel parameter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChannelDir {
    /// The program may read from the channel.
    pub readable: bool,
    /// The program may write to the channel.
    pub writable: bool,
}

/// A channel parameter of the process signature.
#[derive(Debug, Clone, PartialEq)]
pub struct ChannelParam {
    /// Parameter name.
    pub name: String,
    /// Whether this is an array of channels.
    pub is_array: bool,
    /// Channel direction.
    pub dir: ChannelDir,
    /// The record type carried by the channel.
    pub record: String,
}

/// A routing rule of the process body (`source => stages... => sink`).
#[derive(Debug, Clone, PartialEq)]
pub struct RouteRule {
    /// Index of the source channel parameter.
    pub source_param: usize,
    /// Intermediate stages.
    pub stages: Vec<IrCall>,
    /// Final destination.
    pub sink: IrSink,
}

/// The lowered `foldt` aggregation of a process body (Listing 3).
#[derive(Debug, Clone, PartialEq)]
pub struct FoldtIr {
    /// Index of the channel-array parameter aggregated over.
    pub source_param: usize,
    /// Index of the channel parameter receiving the aggregated stream.
    pub sink_param: usize,
    /// The message field used as the merge key (`elem.key`).
    pub key_field: String,
    /// Frame size of the combine body.
    pub frame_size: usize,
    /// Slots of the two element binders and the key binder.
    pub binder_slots: (usize, usize, usize),
    /// The combine body; its final expression is the merged element.
    pub body: Vec<IrStmt>,
}

/// The lowered process.
#[derive(Debug, Clone, PartialEq)]
pub struct ProcessIr {
    /// The process name.
    pub name: String,
    /// Channel parameters, in signature order.
    pub params: Vec<ChannelParam>,
    /// Globals declared with `global name := ...` (currently dictionaries).
    pub globals: Vec<String>,
    /// Frame layout for rule-stage argument expressions: slots `0..params`
    /// hold the channel parameters, followed by one slot per global.
    pub frame_size: usize,
    /// Routing rules, evaluated per arriving message.
    pub rules: Vec<RouteRule>,
    /// The `foldt` aggregation, if the body contains one.
    pub foldt: Option<FoldtIr>,
}

/// A fully lowered program: every function plus one process.
#[derive(Debug, Clone, PartialEq)]
pub struct ProgramIr {
    /// Lowered functions, indexed by [`IrCall::function`].
    pub functions: Vec<FunctionIr>,
    /// The lowered process.
    pub process: ProcessIr,
}

// ---------------------------------------------------------------------------
// Lowering
// ---------------------------------------------------------------------------

/// Lowers a typed program and one of its processes to IR.
pub fn lower(typed: &TypedProgram, proc_name: &str) -> Result<ProgramIr, CompileError> {
    let lowerer = Lowerer::new(typed);
    lowerer.lower(proc_name)
}

struct Lowerer<'a> {
    typed: &'a TypedProgram,
    fun_indices: HashMap<String, usize>,
}

struct Scope {
    slots: HashMap<String, usize>,
    next: usize,
}

impl Scope {
    fn new() -> Self {
        Scope {
            slots: HashMap::new(),
            next: 0,
        }
    }

    fn declare(&mut self, name: &str) -> usize {
        if let Some(slot) = self.slots.get(name) {
            return *slot;
        }
        let slot = self.next;
        self.next += 1;
        self.slots.insert(name.to_string(), slot);
        slot
    }

    fn lookup(&self, name: &str) -> Option<usize> {
        self.slots.get(name).copied()
    }
}

impl<'a> Lowerer<'a> {
    fn new(typed: &'a TypedProgram) -> Self {
        let fun_indices = typed
            .program
            .functions
            .iter()
            .enumerate()
            .map(|(i, f)| (f.name.clone(), i))
            .collect();
        Lowerer { typed, fun_indices }
    }

    fn lower(self, proc_name: &str) -> Result<ProgramIr, CompileError> {
        let functions = self
            .typed
            .program
            .functions
            .iter()
            .map(|f| self.lower_function(f))
            .collect::<Result<Vec<_>, _>>()?;
        let process = self.lower_process(proc_name)?;
        Ok(ProgramIr { functions, process })
    }

    fn lower_function(&self, decl: &flick_lang::ast::FunDecl) -> Result<FunctionIr, CompileError> {
        let mut scope = Scope::new();
        for p in &decl.params {
            scope.declare(&p.name);
        }
        let params = decl.params.len();
        let body = self.lower_block(&decl.body, &mut scope)?;
        Ok(FunctionIr {
            name: decl.name.clone(),
            params,
            frame_size: scope.next,
            body,
        })
    }

    fn lower_process(&self, proc_name: &str) -> Result<ProcessIr, CompileError> {
        let decl = self
            .typed
            .program
            .process(proc_name)
            .ok_or_else(|| CompileError::UnknownProcess(proc_name.to_string()))?;
        let sig = self
            .typed
            .process(proc_name)
            .ok_or_else(|| CompileError::UnknownProcess(proc_name.to_string()))?;
        let mut params = Vec::new();
        for (name, ty) in &sig.params {
            let (is_array, value, readable, writable) = match ty {
                Type::Channel {
                    value,
                    can_read,
                    can_write,
                } => (false, value, *can_read, *can_write),
                Type::ChannelArray {
                    value,
                    can_read,
                    can_write,
                } => (true, value, *can_read, *can_write),
                other => {
                    return Err(CompileError::Signature(format!(
                        "parameter `{name}` has non-channel type {other}"
                    )))
                }
            };
            let record = match value.as_ref() {
                Type::Record(r) => r.clone(),
                other => {
                    return Err(CompileError::Signature(format!(
                        "channel `{name}` carries {other}, which is not a declared record type"
                    )))
                }
            };
            params.push(ChannelParam {
                name: name.clone(),
                is_array,
                dir: ChannelDir { readable, writable },
                record,
            });
        }
        if params.is_empty() {
            return Err(CompileError::Signature(
                "a process needs at least one channel".into(),
            ));
        }

        let mut process = ProcessIr {
            name: decl.name.clone(),
            params,
            globals: Vec::new(),
            frame_size: 0,
            rules: Vec::new(),
            foldt: None,
        };
        // Frame: channel params first, then globals.
        let mut scope = Scope::new();
        for p in &process.params {
            scope.declare(&p.name);
        }
        self.lower_proc_block(&decl.body, false, &mut process, &mut scope)?;
        process.frame_size = scope.next;
        // A fold's task is fed by the array it folds alone: the messages of
        // any other input would be folded with it.
        if let Some(foldt) = &process.foldt {
            let folded = &process.params[foldt.source_param].name;
            if let Some(param) = process
                .params
                .iter()
                .enumerate()
                .find(|(idx, param)| *idx != foldt.source_param && param.dir.readable)
                .and_then(|(_, param)| decl.params.iter().find(|p| p.name == param.name))
            {
                return Err(CompileError::Unsupported(format!(
                    "{}: the process folds `{folded}` and also reads `{}`, whose messages \
                     the fold would take in; declare `{}` write-only",
                    param.span, param.name, param.name
                )));
            }
        }
        Ok(process)
    }

    /// Lowers the statements of a process body (`nested` inside an `if`)
    /// into `process`. A rule runs on every message of its channel, so one
    /// nested in an `if` or `else` would run unconditionally: it is
    /// rejected, as is every statement that would lower to nothing that
    /// runs. The one guard that compiles is Listing 3's: the `foldt`
    /// logic subsumes `all_ready(mappers)`, and routes the result itself
    /// to the channel its `result => channel` pipeline names. A process
    /// has at most one `foldt`, and its result must be sent. A process
    /// that folds runs the fold alone, so it has no rule either.
    fn lower_proc_block(
        &self,
        block: &Block,
        nested: bool,
        process: &mut ProcessIr,
        scope: &mut Scope,
    ) -> Result<(), CompileError> {
        // The `foldt` bound in this block and not yet sent: its name and
        // its value, lowered once its pipeline names the sink.
        let mut folded: Option<(&str, &Expr)> = None;
        for stmt in &block.stmts {
            let unsupported =
                |what: String| CompileError::Unsupported(format!("{}: {what}", stmt.span()));
            match stmt {
                Stmt::Global { name, .. } => {
                    scope.declare(name);
                    process.globals.push(name.clone());
                }
                Stmt::Pipeline { stages, .. } => {
                    let source = stages[0].as_ident().unwrap_or("an expression");
                    let folds = process.foldt.is_some() || folded.is_some();
                    match process.params.iter().position(|p| p.name == source) {
                        Some(_) if folds => {
                            return Err(unsupported(format!(
                                "the rule `{source} => …` is beside the process's `foldt`, \
                                 and a process that folds runs the fold alone"
                            )))
                        }
                        Some(param) if !nested => {
                            let rule = self.lower_rule(param, stages, scope)?;
                            process.rules.push(rule);
                        }
                        Some(_) => {
                            return Err(unsupported(format!(
                                "the rule `{source} => …` is inside a process-level `if` \
                                 or `else`, but a rule runs on every message of its channel"
                            )))
                        }
                        None if folded.is_some_and(|(name, _)| name == source) => {
                            if let Some(rule) = process.rules.first() {
                                return Err(unsupported(format!(
                                    "the `foldt` result `{source}` is sent beside the rule \
                                     `{} => …`, and a process that folds runs the fold alone",
                                    process.params[rule.source_param].name
                                )));
                            }
                            let (_, foldt) = folded.take().expect("matched above");
                            let sink = match stages.as_slice() {
                                [_, sink] => sink.as_ident(),
                                _ => None,
                            }
                            .and_then(|sink| process.params.iter().position(|p| p.name == sink))
                            .ok_or_else(|| {
                                unsupported(format!(
                                    "the `foldt` result `{source}` can only be sent \
                                     straight to a channel parameter"
                                ))
                            })?;
                            process.foldt = Some(self.lower_foldt(foldt, sink, &process.params)?);
                        }
                        None => {
                            return Err(unsupported(format!(
                                "the process-level pipeline from `{source}` starts from \
                                 neither a channel parameter nor the `foldt` result"
                            )))
                        }
                    }
                }
                Stmt::If { then, els, .. } => {
                    self.lower_proc_block(then, true, process, scope)?;
                    if let Some(els) = els {
                        self.lower_proc_block(els, true, process, scope)?;
                    }
                }
                Stmt::Let { name, value, .. } => {
                    if !matches!(value.kind, ExprKind::Foldt { .. }) {
                        return Err(unsupported(format!(
                            "the process-level `let {name}` binds no `foldt`, and nothing \
                             would store it; keep state in a `global`"
                        )));
                    }
                    if process.foldt.is_some() || folded.is_some() {
                        return Err(unsupported(format!(
                            "`let {name}` is a second `foldt`; a process aggregates once"
                        )));
                    }
                    folded = Some((name.as_str(), value));
                }
                other => {
                    return Err(CompileError::Unsupported(format!(
                        "process bodies support globals, pipelines, conditionals and foldt; found {other:?}"
                    )))
                }
            }
        }
        match folded {
            Some((name, value)) => Err(CompileError::Unsupported(format!(
                "{}: the `foldt` result `{name}` is never sent to a channel",
                value.span
            ))),
            None => Ok(()),
        }
    }

    fn lower_rule(
        &self,
        source_param: usize,
        stages: &[Expr],
        scope: &mut Scope,
    ) -> Result<RouteRule, CompileError> {
        let mut calls = Vec::new();
        for stage in &stages[1..stages.len() - 1] {
            calls.push(self.lower_stage_call(stage, scope)?);
        }
        let last = stages.last().expect("pipeline has at least two stages");
        let sink = match &last.kind {
            ExprKind::Call { .. } => IrSink::Call(self.lower_stage_call(last, scope)?),
            _ => IrSink::Channel(self.lower_expr(last, scope)?),
        };
        Ok(RouteRule {
            source_param,
            stages: calls,
            sink,
        })
    }

    fn lower_stage_call(&self, expr: &Expr, scope: &mut Scope) -> Result<IrCall, CompileError> {
        match &expr.kind {
            ExprKind::Call { name, args } => {
                let function = *self.fun_indices.get(name).ok_or_else(|| {
                    CompileError::Unsupported(format!("unknown function `{name}` in pipeline"))
                })?;
                let args = args
                    .iter()
                    .map(|a| self.lower_expr(a, scope))
                    .collect::<Result<_, _>>()?;
                Ok(IrCall { function, args })
            }
            _ => Err(CompileError::Unsupported(
                "pipeline stages must be function calls".into(),
            )),
        }
    }

    /// Lowers the `foldt` expression `value`, whose result goes to channel
    /// parameter `sink_param`.
    fn lower_foldt(
        &self,
        value: &Expr,
        sink_param: usize,
        params: &[ChannelParam],
    ) -> Result<FoldtIr, CompileError> {
        let ExprKind::Foldt {
            channels,
            order_key,
            binders,
            key_name,
            body,
            ..
        } = &value.kind
        else {
            unreachable!("only a `foldt` is lowered here");
        };
        if params[sink_param].is_array || !params[sink_param].dir.writable {
            return Err(CompileError::Signature(format!(
                "the foldt result goes to `{}`, which is not one writable channel",
                params[sink_param].name
            )));
        }
        let source_name = channels.as_ident().ok_or_else(|| {
            CompileError::Unsupported("foldt must aggregate over a channel-array parameter".into())
        })?;
        let source_param = params
            .iter()
            .position(|p| p.name == source_name)
            .ok_or_else(|| {
                CompileError::Unsupported(format!("unknown channel array `{source_name}`"))
            })?;
        let key_field = match &order_key.kind {
            ExprKind::Field(_, field) => field.clone(),
            _ => {
                return Err(CompileError::Unsupported(
                    "the foldt ordering key must be a field of the element".into(),
                ))
            }
        };
        // The combine body runs in its own frame: binders first, then key.
        let mut body_scope = Scope::new();
        let b1 = body_scope.declare(&binders.0);
        let b2 = body_scope.declare(&binders.1);
        let key = body_scope.declare(key_name);
        let body = self.lower_block(body, &mut body_scope)?;
        Ok(FoldtIr {
            source_param,
            sink_param,
            key_field,
            frame_size: body_scope.next,
            binder_slots: (b1, b2, key),
            body,
        })
    }

    fn lower_block(&self, block: &Block, scope: &mut Scope) -> Result<Vec<IrStmt>, CompileError> {
        let mut out = Vec::new();
        for stmt in &block.stmts {
            match stmt {
                Stmt::Global { .. } => {
                    return Err(CompileError::Unsupported(
                        "`global` declarations are only allowed directly in a process body".into(),
                    ))
                }
                Stmt::Let { name, value, .. } => {
                    let value = self.lower_expr(value, scope)?;
                    let slot = scope.declare(name);
                    out.push(IrStmt::Store(slot, value));
                }
                Stmt::Assign { target, value, .. } => match &target.kind {
                    ExprKind::Index(base, index) => out.push(IrStmt::AssignIndex {
                        target: self.lower_expr(base, scope)?,
                        index: self.lower_expr(index, scope)?,
                        value: self.lower_expr(value, scope)?,
                    }),
                    ExprKind::Ident(name) => {
                        let value = self.lower_expr(value, scope)?;
                        let slot = scope.declare(name);
                        out.push(IrStmt::Store(slot, value));
                    }
                    _ => {
                        return Err(CompileError::Unsupported(
                            "unsupported assignment target".into(),
                        ))
                    }
                },
                Stmt::Pipeline { stages, .. } => {
                    let source = self.lower_expr(&stages[0], scope)?;
                    let mut calls = Vec::new();
                    for stage in &stages[1..stages.len() - 1] {
                        calls.push(self.lower_stage_call(stage, scope)?);
                    }
                    let last = stages.last().expect("pipeline has at least two stages");
                    let sink = match &last.kind {
                        ExprKind::Call { .. } => IrSink::Call(self.lower_stage_call(last, scope)?),
                        _ => IrSink::Channel(self.lower_expr(last, scope)?),
                    };
                    out.push(IrStmt::Pipeline {
                        source,
                        stages: calls,
                        sink,
                    });
                }
                Stmt::If {
                    cond, then, els, ..
                } => {
                    let cond = self.lower_expr(cond, scope)?;
                    let then = self.lower_block(then, scope)?;
                    let els = match els {
                        Some(block) => self.lower_block(block, scope)?,
                        None => Vec::new(),
                    };
                    out.push(IrStmt::If { cond, then, els });
                }
                Stmt::For {
                    var, iter, body, ..
                } => {
                    let iter = self.lower_expr(iter, scope)?;
                    let slot = scope.declare(var);
                    let body = self.lower_block(body, scope)?;
                    out.push(IrStmt::For { slot, iter, body });
                }
                Stmt::Expr { expr, .. } => out.push(IrStmt::Expr(self.lower_expr(expr, scope)?)),
            }
        }
        Ok(out)
    }

    fn lower_expr(&self, expr: &Expr, scope: &mut Scope) -> Result<IrExpr, CompileError> {
        Ok(match &expr.kind {
            ExprKind::Int(v) => IrExpr::Int(*v),
            ExprKind::Str(s) => IrExpr::Str(s.clone()),
            ExprKind::Bool(b) => IrExpr::Bool(*b),
            ExprKind::None => IrExpr::None,
            ExprKind::Ident(name) => match scope.lookup(name) {
                Some(slot) => IrExpr::Load(slot),
                None if name == "empty_dict" => IrExpr::Builtin(Builtin::EmptyDict, vec![]),
                None => {
                    return Err(CompileError::Unsupported(format!(
                        "unresolved variable `{name}`"
                    )))
                }
            },
            ExprKind::Field(base, field) => {
                IrExpr::Field(Box::new(self.lower_expr(base, scope)?), field.clone())
            }
            ExprKind::Index(base, index) => IrExpr::Index(
                Box::new(self.lower_expr(base, scope)?),
                Box::new(self.lower_expr(index, scope)?),
            ),
            ExprKind::Binary { op, lhs, rhs } => IrExpr::Binary(
                *op,
                Box::new(self.lower_expr(lhs, scope)?),
                Box::new(self.lower_expr(rhs, scope)?),
            ),
            ExprKind::Unary { op, operand } => {
                IrExpr::Unary(*op, Box::new(self.lower_expr(operand, scope)?))
            }
            ExprKind::Call { name, args } => self.lower_call(name, args, scope)?,
            ExprKind::Foldt { .. } => {
                return Err(CompileError::Unsupported(
                    "foldt may only appear at the top level of a process body".into(),
                ))
            }
        })
    }

    fn lower_call(
        &self,
        name: &str,
        args: &[Expr],
        scope: &mut Scope,
    ) -> Result<IrExpr, CompileError> {
        // Record constructor.
        if let Some(record) = self.typed.record(name) {
            let field_names: Vec<String> = record
                .named_fields()
                .filter_map(|f| f.name.clone())
                .collect();
            let values = args
                .iter()
                .map(|a| self.lower_expr(a, scope))
                .collect::<Result<_, _>>()?;
            return Ok(IrExpr::MakeRecord(name.to_string(), field_names, values));
        }
        // Higher-order builtins take a function name first.
        if matches!(name, "fold" | "map" | "filter") {
            let fun_name = args[0].as_ident().ok_or_else(|| {
                CompileError::Unsupported(format!("`{name}` needs a function name"))
            })?;
            let function = *self.fun_indices.get(fun_name).ok_or_else(|| {
                CompileError::Unsupported(format!("unknown function `{fun_name}`"))
            })?;
            return Ok(match name {
                "fold" => IrExpr::Fold {
                    function,
                    init: Box::new(self.lower_expr(&args[1], scope)?),
                    list: Box::new(self.lower_expr(&args[2], scope)?),
                },
                "map" => IrExpr::Map {
                    function,
                    list: Box::new(self.lower_expr(&args[1], scope)?),
                },
                _ => IrExpr::Filter {
                    function,
                    list: Box::new(self.lower_expr(&args[1], scope)?),
                },
            });
        }
        let builtin = match name {
            "hash" => Some(Builtin::Hash),
            "len" | "size" => Some(Builtin::Len),
            "empty_dict" => Some(Builtin::EmptyDict),
            "all_ready" => Some(Builtin::AllReady),
            "str" => Some(Builtin::Str),
            "int" => Some(Builtin::Int),
            _ => None,
        };
        let lowered_args: Vec<IrExpr> = args
            .iter()
            .map(|a| self.lower_expr(a, scope))
            .collect::<Result<_, _>>()?;
        if let Some(builtin) = builtin {
            return Ok(IrExpr::Builtin(builtin, lowered_args));
        }
        let function = *self
            .fun_indices
            .get(name)
            .ok_or_else(|| CompileError::Unsupported(format!("unknown function `{name}`")))?;
        Ok(IrExpr::Call(IrCall {
            function,
            args: lowered_args,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flick_lang::compile_to_ast;

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
    fn lowers_memcached_proxy() {
        let typed = compile_to_ast(PROXY).unwrap();
        let ir = lower(&typed, "Memcached").unwrap();
        assert_eq!(ir.functions.len(), 1);
        assert_eq!(ir.process.params.len(), 2);
        assert!(ir.process.params[1].is_array);
        assert_eq!(ir.process.rules.len(), 2);
        // Rule 0: backends => client (no stages, channel sink).
        assert_eq!(ir.process.rules[0].source_param, 1);
        assert!(ir.process.rules[0].stages.is_empty());
        assert!(matches!(
            ir.process.rules[0].sink,
            IrSink::Channel(IrExpr::Load(0))
        ));
        // Rule 1: client => target_backend(backends) (call sink).
        assert_eq!(ir.process.rules[1].source_param, 0);
        assert!(matches!(ir.process.rules[1].sink, IrSink::Call(_)));
        // Function frame: 2 params + 1 local.
        let f = &ir.functions[0];
        assert_eq!(f.params, 2);
        assert_eq!(f.frame_size, 3);
        assert!(matches!(f.body[0], IrStmt::Store(2, _)));
        assert!(matches!(f.body[1], IrStmt::Pipeline { .. }));
    }

    #[test]
    fn lowers_cache_router_with_global() {
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
        let ir = lower(&typed, "memcached").unwrap();
        assert_eq!(ir.process.globals, vec!["cache".to_string()]);
        assert_eq!(ir.process.frame_size, 3, "client, backends, cache");
        assert_eq!(ir.process.rules.len(), 2);
        assert_eq!(ir.process.rules[0].stages.len(), 1, "update_cache stage");
        let update = ir
            .functions
            .iter()
            .find(|f| f.name == "update_cache")
            .unwrap();
        assert!(matches!(update.body[0], IrStmt::If { .. }));
        assert!(matches!(update.body[1], IrStmt::Expr(IrExpr::Load(1))));
    }

    #[test]
    fn lowers_hadoop_foldt() {
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
        let ir = lower(&typed, "hadoop").unwrap();
        let foldt = ir.process.foldt.as_ref().expect("foldt lowered");
        assert_eq!(foldt.source_param, 0);
        assert_eq!(foldt.sink_param, 1);
        assert_eq!(foldt.key_field, "key");
        assert_eq!(foldt.binder_slots, (0, 1, 2));
        assert!(matches!(
            foldt.body.last(),
            Some(IrStmt::Expr(IrExpr::MakeRecord(_, _, _)))
        ));
    }

    /// An aggregator with a writable channel ahead of its reducer: the
    /// result goes where `result => reducer` sends it, not to the first
    /// writable channel.
    #[test]
    fn a_foldt_result_goes_to_the_channel_its_pipeline_names() {
        let src = r#"
type kv: record
  key : string
  value : string

proc P: (-/kv out, [kv/-] mappers, -/kv reducer)
  if all_ready(mappers):
    let result = foldt on mappers ordering elem e1, e2 by elem.key as e_key:
      kv(e_key, e1.value)
    result => reducer
"#;
        let ir = lower(&compile_to_ast(src).unwrap(), "P").unwrap();
        let foldt = ir.process.foldt.expect("foldt lowered");
        assert_eq!((foldt.source_param, foldt.sink_param), (1, 2));
    }

    /// A second process-level `foldt` used to replace the first without a
    /// word; one whose result is never sent lowered to a sink nothing
    /// named.
    #[test]
    fn a_second_or_unsent_foldt_is_rejected() {
        let program = |block: &str| {
            format!(
                r#"
type kv: record
  key : string
  value : string

proc P: ([kv/-] mappers, -/kv reducer)
  if all_ready(mappers):
{block}
"#
            )
        };
        let fold = |name: &str| {
            format!(
                "    let {name} = foldt on mappers ordering elem e1, e2 by elem.key as e_key:\n      \
                 kv(e_key, e1.value)\n"
            )
        };
        let twice = program(&format!(
            "{}    first => reducer\n{}    second => reducer",
            fold("first"),
            fold("second")
        ));
        let err = rejected(&twice);
        assert!(err.contains("`let second` is a second `foldt`"), "{err}");
        let unsent = rejected(&program(&fold("result")));
        assert!(unsent.contains("`result` is never sent"), "{unsent}");
    }

    /// Listing 3's aggregator, with `signature`, and `before` and `after`
    /// its fold.
    fn aggregator(signature: &str, before: &str, after: &str) -> String {
        format!(
            r#"
type kv: record
  key : string
  value : string

proc P: ({signature})
{before}  if all_ready(mappers):
    let result = foldt on mappers ordering elem e1, e2 by elem.key as e_key:
      kv(e_key, e1.value)
    result => reducer
{after}"#
        )
    }

    /// A process that folds runs the fold alone in the reading tasks of its
    /// array: a channel rule beside it, on either side, would never run
    /// (the reducer gets only the aggregate).
    #[test]
    fn a_channel_rule_beside_a_foldt_is_rejected() {
        let signature = "[kv/-] mappers, -/kv reducer";
        let after = rejected(&aggregator(signature, "", "  mappers => reducer\n"));
        assert!(
            after.contains("the rule `mappers => …` is beside the process's `foldt`"),
            "{after}"
        );
        assert!(after.starts_with("unsupported construct: 11:3:"), "{after}");
        let before = rejected(&aggregator(signature, "  mappers => reducer\n", ""));
        assert!(
            before.contains("`result` is sent beside the rule `mappers => …`"),
            "{before}"
        );
        assert!(
            before.starts_with("unsupported construct: 11:5:"),
            "{before}"
        );
    }

    /// A fold's task is fed by the array it folds alone: a `kv/kv` reducer
    /// fed its own records into the fold (its `("a","10")` came back in
    /// the aggregate).
    #[test]
    fn a_foldt_process_that_reads_another_parameter_is_rejected() {
        let err = rejected(&aggregator("[kv/-] mappers, kv/kv reducer", "", ""));
        assert!(
            err.contains("folds `mappers` and also reads `reducer`"),
            "{err}"
        );
        assert!(err.starts_with("unsupported construct: 6:"), "{err}");
        lower(
            &compile_to_ast(&aggregator("[kv/-] mappers, -/kv reducer", "", "")).unwrap(),
            "P",
        )
        .expect("a write-only reducer compiles");
    }

    /// Lowers process `P` of `src`, whose body must be rejected, and
    /// returns the error message.
    fn rejected(src: &str) -> String {
        let typed = compile_to_ast(src).unwrap_or_else(|e| panic!("{e}\n{src}"));
        match lower(&typed, "P") {
            Err(err @ CompileError::Unsupported(_)) => err.to_string(),
            other => panic!("expected an unsupported construct, got {other:?}"),
        }
    }

    #[test]
    fn a_channel_rule_inside_a_process_level_if_is_rejected() {
        let err = rejected(
            r#"
type cmd: record
  key : string

proc P: (cmd/cmd client, [cmd/cmd] backends)
  if 1 = 2:
    client => backends[0]
  else:
    client => backends[1]
  backends => client
"#,
        );
        assert!(err.contains("the rule `client => …` is inside"), "{err}");
        assert!(err.starts_with("unsupported construct: 7:5:"), "{err}");
    }

    #[test]
    fn a_process_level_let_of_a_value_is_rejected() {
        let err = rejected(
            r#"
type cmd: record
  key : string

proc P: (cmd/cmd client, [cmd/cmd] backends)
  let n = 1
  client => backends[n]
  backends => client
"#,
        );
        assert!(err.contains("`let n` binds no `foldt`"), "{err}");
    }

    #[test]
    fn a_process_level_pipeline_from_a_global_is_rejected() {
        let err = rejected(
            r#"
type cmd: record
  key : string

proc P: (cmd/cmd client, [cmd/cmd] backends)
  global cache := empty_dict
  cache => flush(client)
  backends => client

fun flush: (-/cmd client, cache: ref dict<string*cmd>) -> ()
  cache["k"] => client
"#,
        );
        assert!(
            err.contains("pipeline from `cache` starts from neither"),
            "{err}"
        );
    }

    #[test]
    fn unknown_process_is_an_error() {
        let typed = compile_to_ast(PROXY).unwrap();
        assert!(matches!(
            lower(&typed, "nope"),
            Err(CompileError::UnknownProcess(_))
        ));
    }

    #[test]
    fn fold_map_filter_lower_to_dedicated_nodes() {
        let src = r#"
fun add: (acc: integer, x: integer) -> (integer)
  acc + x

fun double: (x: integer) -> (integer)
  x * 2

fun total: (xs: [integer]) -> (integer)
  fold(add, 0, map(double, xs))

type t: record
  key : string

proc P: (t/t c)
  c => c
"#;
        let typed = compile_to_ast(src).unwrap();
        let ir = lower(&typed, "P").unwrap();
        let total = ir.functions.iter().find(|f| f.name == "total").unwrap();
        match &total.body[0] {
            IrStmt::Expr(IrExpr::Fold { list, .. }) => {
                assert!(matches!(**list, IrExpr::Map { .. }));
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}
