//! Static type checking for FLICK programs.
//!
//! The checker resolves every declared type, verifies field-size
//! annotations, and checks process and function bodies: channel direction
//! misuse, pipeline stage compatibility, dictionary access, record
//! construction and the `foldt` aggregation form are all validated here.
//! The output is a [`TypedProgram`] consumed by the compiler crate.

use crate::ast::*;
use crate::error::{Diagnostic, LangError, Span, Stage};
use crate::semantics::{BUILTINS, HIGHER_ORDER_BUILTINS};
use crate::types::{resolve, Type};
use std::collections::HashMap;

/// Resolved information about one field of a record.
#[derive(Debug, Clone, PartialEq)]
pub struct FieldInfo {
    /// The field name, or `None` for anonymised padding fields.
    pub name: Option<String>,
    /// The resolved field type.
    pub ty: Type,
    /// The `size=` attribute expression, if present. The expression may
    /// reference earlier named fields of the same record.
    pub size: Option<Expr>,
    /// Whether an integer field is signed (`signed=` attribute, default true).
    pub signed: bool,
}

/// Resolved information about a record type.
#[derive(Debug, Clone, PartialEq)]
pub struct RecordInfo {
    /// The record name.
    pub name: String,
    /// The fields in wire order.
    pub fields: Vec<FieldInfo>,
}

impl RecordInfo {
    /// Looks up a named field.
    pub fn field(&self, name: &str) -> Option<&FieldInfo> {
        self.fields.iter().find(|f| f.name.as_deref() == Some(name))
    }

    /// Returns the named fields in declaration order.
    pub fn named_fields(&self) -> impl Iterator<Item = &FieldInfo> {
        self.fields.iter().filter(|f| f.name.is_some())
    }
}

/// The resolved signature of a user-defined function.
#[derive(Debug, Clone, PartialEq)]
pub struct FunSig {
    /// Parameter names and types, in order.
    pub params: Vec<(String, Type)>,
    /// The return type (`Type::Unit` when the function returns nothing).
    pub ret: Type,
}

/// The resolved signature of a process.
#[derive(Debug, Clone, PartialEq)]
pub struct ProcSig {
    /// Channel parameters of the process, in order.
    pub params: Vec<(String, Type)>,
    /// Global (shared, per-program) state declared in the body.
    pub globals: Vec<(String, Type)>,
}

/// A fully type-checked program: the AST plus every resolved signature.
#[derive(Debug, Clone, PartialEq)]
pub struct TypedProgram {
    /// The original AST.
    pub program: Program,
    /// Record layouts by name.
    pub records: HashMap<String, RecordInfo>,
    /// Function signatures by name.
    pub functions: HashMap<String, FunSig>,
    /// Process signatures by name.
    pub processes: HashMap<String, ProcSig>,
}

impl TypedProgram {
    /// Returns the record layout for `name`.
    pub fn record(&self, name: &str) -> Option<&RecordInfo> {
        self.records.get(name)
    }

    /// Returns the signature of function `name`.
    pub fn function(&self, name: &str) -> Option<&FunSig> {
        self.functions.get(name)
    }

    /// Returns the signature of process `name`.
    pub fn process(&self, name: &str) -> Option<&ProcSig> {
        self.processes.get(name)
    }
}

/// Type-checks a parsed program.
pub fn check(program: Program) -> Result<TypedProgram, LangError> {
    let mut checker = Checker::new(&program);
    checker.check_records();
    checker.collect_signatures();
    checker.check_functions();
    checker.check_processes();
    if checker.diagnostics.is_empty() {
        Ok(TypedProgram {
            records: checker.records,
            functions: checker.functions,
            processes: checker.processes,
            program,
        })
    } else {
        Err(LangError::from_diagnostics(checker.diagnostics))
    }
}

struct Checker<'a> {
    program: &'a Program,
    records: HashMap<String, RecordInfo>,
    functions: HashMap<String, FunSig>,
    processes: HashMap<String, ProcSig>,
    diagnostics: Vec<Diagnostic>,
}

type Scope = HashMap<String, Type>;

impl<'a> Checker<'a> {
    fn new(program: &'a Program) -> Self {
        Checker {
            program,
            records: HashMap::new(),
            functions: HashMap::new(),
            processes: HashMap::new(),
            diagnostics: Vec::new(),
        }
    }

    fn error(&mut self, message: impl Into<String>, span: Span) {
        self.diagnostics
            .push(Diagnostic::new(Stage::Type, message, span));
    }

    fn resolve(&mut self, expr: &TypeExpr, span: Span) -> Type {
        match resolve(expr, self.program, span) {
            Ok(t) => t,
            Err(e) => {
                self.diagnostics.extend(e.diagnostics);
                Type::NoneType
            }
        }
    }

    // ----- declarations -----------------------------------------------------

    fn check_records(&mut self) {
        for decl in &self.program.types {
            let mut fields = Vec::new();
            let mut seen_names: Vec<&str> = Vec::new();
            for field in &decl.fields {
                let ty = self.resolve(&field.ty, field.span);
                if !matches!(
                    ty.deref(),
                    Type::Int | Type::Str | Type::Bool | Type::Record(_)
                ) {
                    self.error(
                        format!("field type `{ty}` is not allowed in a record"),
                        field.span,
                    );
                }
                // Size expressions may only reference earlier named fields.
                if let Some(size) = field.attr("size") {
                    self.check_size_expr(size, &seen_names, field.span);
                }
                let signed = match field.attr("signed") {
                    Some(Expr {
                        kind: ExprKind::Bool(b),
                        ..
                    }) => *b,
                    Some(Expr {
                        kind: ExprKind::Ident(s),
                        ..
                    }) => s == "true",
                    _ => true,
                };
                if let Some(name) = &field.name {
                    if seen_names.contains(&name.as_str()) {
                        self.error(
                            format!("duplicate field `{name}` in record `{}`", decl.name),
                            field.span,
                        );
                    }
                    seen_names.push(name);
                }
                fields.push(FieldInfo {
                    name: field.name.clone(),
                    ty,
                    size: field.attr("size").cloned(),
                    signed,
                });
            }
            self.records.insert(
                decl.name.clone(),
                RecordInfo {
                    name: decl.name.clone(),
                    fields,
                },
            );
        }
    }

    fn check_size_expr(&mut self, expr: &Expr, earlier_fields: &[&str], span: Span) {
        match &expr.kind {
            ExprKind::Int(v) => {
                if *v < 0 {
                    self.error("field size must be non-negative", span);
                }
            }
            ExprKind::Ident(name) => {
                if !earlier_fields.contains(&name.as_str()) {
                    self.error(
                        format!(
                            "size expression references `{name}`, which is not an earlier field"
                        ),
                        span,
                    );
                }
            }
            ExprKind::Binary { lhs, rhs, op } => {
                if !matches!(op, BinOp::Add | BinOp::Sub | BinOp::Mul) {
                    self.error("size expressions may only use +, - and *", span);
                }
                self.check_size_expr(lhs, earlier_fields, span);
                self.check_size_expr(rhs, earlier_fields, span);
            }
            _ => self.error("unsupported size expression", span),
        }
    }

    fn collect_signatures(&mut self) {
        for f in &self.program.functions {
            let params: Vec<(String, Type)> = f
                .params
                .iter()
                .map(|p| (p.name.clone(), self.resolve(&p.ty, p.span)))
                .collect();
            let ret = match f.ret.len() {
                0 => Type::Unit,
                1 => self.resolve(&f.ret[0], f.span),
                _ => {
                    self.error("functions may return at most one value", f.span);
                    Type::Unit
                }
            };
            self.functions
                .insert(f.name.clone(), FunSig { params, ret });
        }
        for p in &self.program.processes {
            let params: Vec<(String, Type)> = p
                .params
                .iter()
                .map(|param| {
                    let ty = self.resolve(&param.ty, param.span);
                    if !ty.is_channel_like() {
                        self.error(
                            format!(
                                "process parameter `{}` must be a channel, found {ty}",
                                param.name
                            ),
                            param.span,
                        );
                    }
                    (param.name.clone(), ty)
                })
                .collect();
            self.processes.insert(
                p.name.clone(),
                ProcSig {
                    params,
                    globals: Vec::new(),
                },
            );
        }
    }

    // ----- bodies -------------------------------------------------------------

    fn check_functions(&mut self) {
        for f in &self.program.functions {
            let sig = self
                .functions
                .get(&f.name)
                .cloned()
                .expect("signature collected");
            let mut scope: Scope = sig.params.iter().cloned().collect();
            let last_ty = self.check_block(&f.body, &mut scope, Some(&f.name));
            if sig.ret != Type::Unit {
                if let Some(t) = last_ty {
                    if !sig.ret.accepts(&t) && t != Type::Unit {
                        self.error(
                            format!(
                                "function `{}` declares return type {} but its final expression has type {t}",
                                f.name, sig.ret
                            ),
                            f.span,
                        );
                    }
                }
            }
        }
    }

    fn check_processes(&mut self) {
        for p in &self.program.processes {
            let sig = self
                .processes
                .get(&p.name)
                .cloned()
                .expect("signature collected");
            let mut scope: Scope = sig.params.iter().cloned().collect();
            self.check_block(&p.body, &mut scope, None);
            // Collect globals declared in the body into the process signature.
            let mut globals = Vec::new();
            for stmt in &p.body.stmts {
                if let Stmt::Global { name, .. } = stmt {
                    if let Some(ty) = scope.get(name) {
                        globals.push((name.clone(), ty.clone()));
                    }
                }
            }
            if let Some(entry) = self.processes.get_mut(&p.name) {
                entry.globals = globals;
            }
        }
    }

    /// Checks a block and returns the type of its final expression statement,
    /// if the block ends in one.
    fn check_block(&mut self, block: &Block, scope: &mut Scope, fun: Option<&str>) -> Option<Type> {
        let mut last = None;
        for stmt in &block.stmts {
            last = self.check_stmt(stmt, scope, fun);
        }
        last
    }

    fn check_stmt(&mut self, stmt: &Stmt, scope: &mut Scope, fun: Option<&str>) -> Option<Type> {
        match stmt {
            Stmt::Global { name, init, span } => {
                if fun.is_some() {
                    self.error(
                        "`global` declarations are only allowed in process bodies",
                        *span,
                    );
                }
                let ty = self.check_expr(init, scope);
                scope.insert(name.clone(), ty);
                None
            }
            Stmt::Let {
                name,
                value,
                span: _,
            } => {
                let ty = self.check_expr(value, scope);
                scope.insert(name.clone(), ty);
                None
            }
            Stmt::Assign {
                target,
                value,
                span,
            } => {
                let value_ty = self.check_expr(value, scope);
                match &target.kind {
                    ExprKind::Index(base, key) => {
                        let base_ty = self.check_expr(base, scope);
                        let key_ty = self.check_expr(key, scope);
                        match base_ty.deref() {
                            Type::Dict(k, v) => {
                                if !k.accepts(&key_ty) {
                                    self.error(
                                        format!("dictionary key has type {key_ty}, expected {k}"),
                                        *span,
                                    );
                                }
                                if !v.accepts(&value_ty) {
                                    self.error(
                                        format!(
                                            "dictionary value has type {value_ty}, expected {v}"
                                        ),
                                        *span,
                                    );
                                }
                            }
                            Type::List(v) => {
                                if !v.accepts(&value_ty) {
                                    self.error(
                                        format!("list element has type {value_ty}, expected {v}"),
                                        *span,
                                    );
                                }
                            }
                            other => self.error(
                                format!("cannot index-assign into a value of type {other}"),
                                *span,
                            ),
                        }
                    }
                    ExprKind::Ident(name) => {
                        if let Some(existing) = scope.get(name).cloned() {
                            if !existing.accepts(&value_ty) {
                                self.error(
                                    format!(
                                        "cannot assign {value_ty} to `{name}` of type {existing}"
                                    ),
                                    *span,
                                );
                            }
                        } else {
                            scope.insert(name.clone(), value_ty);
                        }
                    }
                    _ => self.error("invalid assignment target", *span),
                }
                None
            }
            Stmt::Pipeline { stages, span } => {
                self.check_pipeline(stages, scope, *span, fun.is_some());
                None
            }
            Stmt::If {
                cond,
                then,
                els,
                span,
            } => {
                let cond_ty = self.check_expr(cond, scope);
                if !Type::Bool.accepts(&cond_ty) {
                    self.error(format!("if condition must be bool, found {cond_ty}"), *span);
                }
                let mut then_scope = scope.clone();
                let then_ty = self.check_block(then, &mut then_scope, fun);
                let els_ty = els.as_ref().and_then(|b| {
                    let mut els_scope = scope.clone();
                    self.check_block(b, &mut els_scope, fun)
                });
                match (then_ty, els_ty) {
                    (Some(a), Some(b)) if a.accepts(&b) || b.accepts(&a) => Some(a),
                    (Some(a), None) => Some(a),
                    (None, Some(b)) => Some(b),
                    (Some(a), Some(_)) => Some(a),
                    (None, None) => None,
                }
            }
            Stmt::For {
                var,
                iter,
                body,
                span,
            } => {
                let iter_ty = self.check_expr(iter, scope);
                let elem = match iter_ty.deref() {
                    Type::List(e) => (**e).clone(),
                    Type::ChannelArray { value, .. } => Type::Channel {
                        value: value.clone(),
                        can_read: true,
                        can_write: true,
                    },
                    Type::Str => Type::Str,
                    other => {
                        self.error(
                            format!("`for` may only iterate over finite lists, found {other}"),
                            *span,
                        );
                        Type::NoneType
                    }
                };
                let mut body_scope = scope.clone();
                body_scope.insert(var.clone(), elem);
                self.check_block(body, &mut body_scope, fun);
                None
            }
            Stmt::Expr { expr, .. } => Some(self.check_expr(expr, scope)),
        }
    }

    /// Checks a routing pipeline `src => f(args) => ... => sink`. Only a
    /// process-level rule receives from a channel: a function's pipeline
    /// runs over a value it was handed (`in_function`).
    fn check_pipeline(
        &mut self,
        stages: &[Expr],
        scope: &mut Scope,
        span: Span,
        in_function: bool,
    ) {
        if stages.len() < 2 {
            self.error("a pipeline needs a source and a destination", span);
            return;
        }
        // The value type flowing between stages.
        let mut flowing: Type = {
            let first = &stages[0];
            let ty = self.check_expr(first, scope);
            match ty.deref() {
                Type::Channel {
                    value, can_read, ..
                }
                | Type::ChannelArray {
                    value, can_read, ..
                } => {
                    let name = first.as_ident().unwrap_or("<expr>");
                    if !can_read {
                        self.error(
                            format!(
                                "channel `{name}` is write-only and cannot be a pipeline source"
                            ),
                            first.span,
                        );
                    } else if in_function {
                        self.error(
                            format!(
                                "a function cannot receive from channel `{name}`: \
                                 only a process-level rule reads a channel"
                            ),
                            first.span,
                        );
                    }
                    (**value).clone()
                }
                _ => ty,
            }
        };
        for stage in &stages[1..stages.len() - 1] {
            flowing = self.check_pipeline_function(stage, &flowing, scope);
        }
        // The final stage: a writable channel or a consuming function.
        let last = stages.last().expect("pipeline has at least two stages");
        match &last.kind {
            ExprKind::Call { .. } => {
                self.check_pipeline_function(last, &flowing, scope);
            }
            _ => {
                let ty = self.check_expr(last, scope);
                match ty.deref() {
                    Type::Channel {
                        value, can_write, ..
                    }
                    | Type::ChannelArray {
                        value, can_write, ..
                    } => {
                        if !can_write {
                            self.error(
                                format!(
                                    "channel `{}` is read-only and cannot be a pipeline destination",
                                    last.as_ident().unwrap_or("<expr>")
                                ),
                                last.span,
                            );
                        }
                        if !value.accepts(&flowing) {
                            self.error(
                                format!("pipeline sends {flowing} into a channel of {value}"),
                                last.span,
                            );
                        }
                    }
                    other => self.error(
                        format!(
                            "pipeline destination must be a channel or function, found {other}"
                        ),
                        last.span,
                    ),
                }
            }
        }
    }

    /// Checks one function stage of a pipeline: the piped value is passed as
    /// the function's final parameter. Returns the type produced by the stage.
    fn check_pipeline_function(
        &mut self,
        stage: &Expr,
        incoming: &Type,
        scope: &mut Scope,
    ) -> Type {
        match &stage.kind {
            ExprKind::Call { name, args } => {
                if let Some(sig) = self.functions.get(name).cloned() {
                    let expected = sig.params.len();
                    if args.len() + 1 != expected {
                        self.error(
                            format!(
                                "pipeline stage `{name}` expects {expected} arguments ({} explicit plus the piped value), found {}",
                                expected.saturating_sub(1),
                                args.len()
                            ),
                            stage.span,
                        );
                    } else {
                        for (arg, (pname, pty)) in args.iter().zip(sig.params.iter()) {
                            let aty = self.check_expr(arg, scope);
                            if !pty.accepts(&aty) {
                                self.error(
                                    format!(
                                        "argument `{pname}` of `{name}` expects {pty}, found {aty}"
                                    ),
                                    arg.span,
                                );
                            }
                        }
                        let (lname, lty) = &sig.params[expected - 1];
                        if !lty.accepts(incoming) {
                            self.error(
                                format!(
                                    "piped value has type {incoming} but `{name}` expects {lty} for parameter `{lname}`"
                                ),
                                stage.span,
                            );
                        }
                    }
                    sig.ret
                } else {
                    self.error(format!("unknown function `{name}` in pipeline"), stage.span);
                    Type::NoneType
                }
            }
            _ => {
                self.error(
                    "intermediate pipeline stages must be function calls",
                    stage.span,
                );
                Type::NoneType
            }
        }
    }

    // ----- expressions ----------------------------------------------------------

    fn check_expr(&mut self, expr: &Expr, scope: &mut Scope) -> Type {
        match &expr.kind {
            ExprKind::Int(_) => Type::Int,
            ExprKind::Str(_) => Type::Str,
            ExprKind::Bool(_) => Type::Bool,
            ExprKind::None => Type::NoneType,
            ExprKind::Ident(name) => {
                if let Some(t) = scope.get(name) {
                    t.clone()
                } else if name == "empty_dict" {
                    Type::Dict(Box::new(Type::NoneType), Box::new(Type::NoneType))
                } else {
                    self.error(format!("unknown variable `{name}`"), expr.span);
                    Type::NoneType
                }
            }
            ExprKind::Field(base, field) => {
                let base_ty = self.check_expr(base, scope);
                match base_ty.deref() {
                    Type::Record(record_name) => {
                        let info = self.records.get(record_name).cloned();
                        match info.as_ref().and_then(|r| r.field(field)) {
                            Some(f) => f.ty.clone(),
                            None => {
                                self.error(
                                    format!("record `{record_name}` has no field `{field}`"),
                                    expr.span,
                                );
                                Type::NoneType
                            }
                        }
                    }
                    Type::NoneType => Type::NoneType,
                    other => {
                        self.error(
                            format!("cannot access field `{field}` of {other}"),
                            expr.span,
                        );
                        Type::NoneType
                    }
                }
            }
            ExprKind::Index(base, index) => {
                let base_ty = self.check_expr(base, scope);
                let index_ty = self.check_expr(index, scope);
                match base_ty.deref() {
                    Type::List(e) => {
                        if !Type::Int.accepts(&index_ty) {
                            self.error(
                                format!("list index must be integer, found {index_ty}"),
                                expr.span,
                            );
                        }
                        (**e).clone()
                    }
                    Type::ChannelArray {
                        value,
                        can_read,
                        can_write,
                    } => {
                        if !Type::Int.accepts(&index_ty) {
                            self.error(
                                format!("channel-array index must be integer, found {index_ty}"),
                                expr.span,
                            );
                        }
                        Type::Channel {
                            value: value.clone(),
                            can_read: *can_read,
                            can_write: *can_write,
                        }
                    }
                    Type::Dict(k, v) => {
                        if !k.accepts(&index_ty) {
                            self.error(
                                format!("dictionary key must be {k}, found {index_ty}"),
                                expr.span,
                            );
                        }
                        (**v).clone()
                    }
                    Type::NoneType => Type::NoneType,
                    other => {
                        self.error(
                            format!("cannot index into a value of type {other}"),
                            expr.span,
                        );
                        Type::NoneType
                    }
                }
            }
            ExprKind::Call { name, args } => self.check_call(name, args, expr.span, scope),
            ExprKind::Binary { op, lhs, rhs } => {
                let lt = self.check_expr(lhs, scope);
                let rt = self.check_expr(rhs, scope);
                if op.is_comparison() {
                    if !(lt.accepts(&rt) || rt.accepts(&lt)) {
                        self.error(format!("cannot compare {lt} with {rt}"), expr.span);
                    }
                    Type::Bool
                } else if op.is_logical() {
                    if !Type::Bool.accepts(&lt) || !Type::Bool.accepts(&rt) {
                        self.error("logical operators require boolean operands", expr.span);
                    }
                    Type::Bool
                } else {
                    // Arithmetic; `+` also concatenates strings.
                    if *op == BinOp::Add && lt.deref() == &Type::Str && rt.deref() == &Type::Str {
                        Type::Str
                    } else {
                        if !Type::Int.accepts(&lt) || !Type::Int.accepts(&rt) {
                            self.error(
                                format!(
                                    "arithmetic requires integer operands, found {lt} and {rt}"
                                ),
                                expr.span,
                            );
                        }
                        Type::Int
                    }
                }
            }
            ExprKind::Unary { op, operand } => {
                let t = self.check_expr(operand, scope);
                match op {
                    UnOp::Neg => {
                        if !Type::Int.accepts(&t) {
                            self.error(
                                format!("negation requires an integer, found {t}"),
                                expr.span,
                            );
                        }
                        Type::Int
                    }
                    UnOp::Not => {
                        if !Type::Bool.accepts(&t) {
                            self.error(format!("`not` requires a boolean, found {t}"), expr.span);
                        }
                        Type::Bool
                    }
                }
            }
            ExprKind::Foldt {
                channels,
                binders,
                elem_name,
                order_key,
                key_name,
                body,
            } => {
                let chan_ty = self.check_expr(channels, scope);
                let elem_ty = match chan_ty.deref() {
                    Type::ChannelArray {
                        value, can_read, ..
                    } => {
                        if !can_read {
                            self.error("foldt requires readable channels", expr.span);
                        }
                        (**value).clone()
                    }
                    other => {
                        self.error(
                            format!("foldt operates on a channel array, found {other}"),
                            expr.span,
                        );
                        Type::NoneType
                    }
                };
                // The ordering key is typed with `elem_name` bound to the element type.
                let mut order_scope = scope.clone();
                order_scope.insert(elem_name.clone(), elem_ty.clone());
                let key_ty = self.check_expr(order_key, &mut order_scope);
                // The body sees both element binders and the shared key.
                let mut body_scope = scope.clone();
                body_scope.insert(binders.0.clone(), elem_ty.clone());
                body_scope.insert(binders.1.clone(), elem_ty.clone());
                body_scope.insert(key_name.clone(), key_ty);
                let body_ty = self.check_block(body, &mut body_scope, Some("foldt"));
                if let Some(bt) = &body_ty {
                    if !elem_ty.accepts(bt) {
                        self.error(
                            format!("foldt body must produce {elem_ty}, found {bt}"),
                            expr.span,
                        );
                    }
                }
                elem_ty
            }
        }
    }

    fn check_call(&mut self, name: &str, args: &[Expr], span: Span, scope: &mut Scope) -> Type {
        // Record constructor?
        if let Some(record) = self.records.get(name).cloned() {
            let named: Vec<&FieldInfo> = record.named_fields().collect();
            if args.len() != named.len() {
                self.error(
                    format!(
                        "constructor `{name}` expects {} arguments (one per named field), found {}",
                        named.len(),
                        args.len()
                    ),
                    span,
                );
            }
            for (arg, field) in args.iter().zip(named.iter()) {
                let at = self.check_expr(arg, scope);
                if !field.ty.accepts(&at) {
                    self.error(
                        format!(
                            "field `{}` of `{name}` expects {}, found {at}",
                            field.name.as_deref().unwrap_or("_"),
                            field.ty
                        ),
                        arg.span,
                    );
                }
            }
            return Type::Record(name.to_string());
        }
        // Builtins.
        if HIGHER_ORDER_BUILTINS.contains(&name) {
            return self.check_higher_order(name, args, span, scope);
        }
        match name {
            "hash" => {
                for a in args {
                    self.check_expr(a, scope);
                }
                if args.is_empty() {
                    self.error("`hash` expects at least one argument", span);
                }
                Type::Int
            }
            "len" | "size" => {
                if args.len() != 1 {
                    self.error(format!("`{name}` expects exactly one argument"), span);
                    return Type::Int;
                }
                let t = self.check_expr(&args[0], scope);
                if !matches!(
                    t.deref(),
                    Type::List(_)
                        | Type::ChannelArray { .. }
                        | Type::Str
                        | Type::Dict(_, _)
                        | Type::NoneType
                ) {
                    self.error(
                        format!("`{name}` expects a list, string or dictionary, found {t}"),
                        span,
                    );
                }
                Type::Int
            }
            "all_ready" => {
                if args.len() != 1 {
                    self.error("`all_ready` expects exactly one argument", span);
                } else {
                    let t = self.check_expr(&args[0], scope);
                    if !matches!(t.deref(), Type::ChannelArray { .. } | Type::Channel { .. }) {
                        self.error(format!("`all_ready` expects channels, found {t}"), span);
                    }
                }
                Type::Bool
            }
            "empty_dict" => Type::Dict(Box::new(Type::NoneType), Box::new(Type::NoneType)),
            "str" => {
                for a in args {
                    self.check_expr(a, scope);
                }
                Type::Str
            }
            "int" => {
                for a in args {
                    self.check_expr(a, scope);
                }
                Type::Int
            }
            _ => {
                // User-defined function call.
                if let Some(sig) = self.functions.get(name).cloned() {
                    if args.len() != sig.params.len() {
                        self.error(
                            format!(
                                "function `{name}` expects {} arguments, found {}",
                                sig.params.len(),
                                args.len()
                            ),
                            span,
                        );
                    }
                    for (arg, (pname, pty)) in args.iter().zip(sig.params.iter()) {
                        let at = self.check_expr(arg, scope);
                        if !pty.accepts(&at) {
                            self.error(
                                format!("argument `{pname}` of `{name}` expects {pty}, found {at}"),
                                arg.span,
                            );
                        }
                    }
                    sig.ret
                } else if BUILTINS.contains(&name) {
                    Type::NoneType
                } else {
                    self.error(format!("unknown function `{name}`"), span);
                    Type::NoneType
                }
            }
        }
    }

    /// Checks `fold(f, init, xs)`, `map(f, xs)` and `filter(f, xs)`.
    fn check_higher_order(
        &mut self,
        name: &str,
        args: &[Expr],
        span: Span,
        scope: &mut Scope,
    ) -> Type {
        let expected_args = if name == "fold" { 3 } else { 2 };
        if args.len() != expected_args {
            self.error(format!("`{name}` expects {expected_args} arguments"), span);
            return Type::NoneType;
        }
        let fname = match args[0].as_ident() {
            Some(f) => f.to_string(),
            None => {
                self.error(
                    format!("the first argument of `{name}` must be a function name"),
                    args[0].span,
                );
                return Type::NoneType;
            }
        };
        let Some(sig) = self.functions.get(&fname).cloned() else {
            self.error(
                format!("unknown function `{fname}` passed to `{name}`"),
                args[0].span,
            );
            return Type::NoneType;
        };
        let list_arg = &args[expected_args - 1];
        let list_ty = self.check_expr(list_arg, scope);
        let elem_ty = match list_ty.deref() {
            Type::List(e) => (**e).clone(),
            Type::Str => Type::Str,
            other => {
                self.error(
                    format!("`{name}` iterates over a finite list, found {other}"),
                    list_arg.span,
                );
                Type::NoneType
            }
        };
        match name {
            "fold" => {
                // fold(f, init, xs): f(acc, elem) -> acc
                let init_ty = self.check_expr(&args[1], scope);
                if sig.params.len() != 2 {
                    self.error(
                        format!("`{fname}` must take (accumulator, element) for fold"),
                        span,
                    );
                } else {
                    if !sig.params[0].1.accepts(&init_ty) {
                        self.error(
                            format!(
                                "fold initialiser has type {init_ty}, expected {}",
                                sig.params[0].1
                            ),
                            args[1].span,
                        );
                    }
                    if !sig.params[1].1.accepts(&elem_ty) {
                        self.error(
                            format!(
                                "fold element has type {elem_ty}, expected {}",
                                sig.params[1].1
                            ),
                            list_arg.span,
                        );
                    }
                }
                sig.ret
            }
            "map" => {
                if sig.params.len() != 1 {
                    self.error(
                        format!("`{fname}` must take a single element for map"),
                        span,
                    );
                } else if !sig.params[0].1.accepts(&elem_ty) {
                    self.error(
                        format!(
                            "map element has type {elem_ty}, expected {}",
                            sig.params[0].1
                        ),
                        list_arg.span,
                    );
                }
                Type::List(Box::new(sig.ret))
            }
            _ => {
                // filter
                if sig.params.len() != 1 {
                    self.error(
                        format!("`{fname}` must take a single element for filter"),
                        span,
                    );
                } else if !Type::Bool.accepts(&sig.ret) {
                    self.error(
                        format!("`{fname}` must return bool to be used with filter"),
                        span,
                    );
                }
                Type::List(Box::new(elem_ty))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile_to_ast;

    #[test]
    fn memcached_proxy_type_checks() {
        let src = r#"
type cmd: record
  key : string

proc Memcached: (cmd/cmd client, [cmd/cmd] backends)
  backends => client
  client => target_backend(backends)

fun target_backend: ([-/cmd] backends, req: cmd) -> ()
  let target = hash(req.key) mod len(backends)
  req => backends[target]
"#;
        let typed = compile_to_ast(src).unwrap();
        let sig = typed.function("target_backend").unwrap();
        assert_eq!(sig.ret, Type::Unit);
        assert_eq!(sig.params.len(), 2);
        let psig = typed.process("Memcached").unwrap();
        assert_eq!(psig.params.len(), 2);
    }

    #[test]
    fn cache_router_with_global_type_checks() {
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
        let psig = typed.process("memcached").unwrap();
        assert_eq!(psig.globals.len(), 1);
        assert_eq!(psig.globals[0].0, "cache");
    }

    #[test]
    fn hadoop_foldt_type_checks() {
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
        assert!(typed.record("kv").is_some());
    }

    #[test]
    fn rejects_read_from_write_only_channel() {
        let src = r#"
type cmd: record
  key : string

proc P: (-/cmd out, cmd/- inp)
  out => inp
"#;
        let err = compile_to_ast(src).unwrap_err();
        assert!(format!("{err}").contains("write-only"), "got {err}");
    }

    /// Only a process-level rule receives from a channel; a function's
    /// pipeline from one would fail on every message at run time.
    #[test]
    fn rejects_a_function_pipeline_from_a_channel() {
        let src = r#"
type cmd: record
  key : string

proc P: (cmd/cmd client, [cmd/cmd] backends)
  client => relay(client, backends)

fun relay: (cmd/cmd from, [-/cmd] backends, req: cmd) -> ()
  from => backends[0]
"#;
        let err = compile_to_ast(src).unwrap_err();
        assert!(
            format!("{err}").contains("cannot receive from channel `from`"),
            "got {err}"
        );
    }

    #[test]
    fn rejects_write_to_read_only_channel() {
        let src = r#"
type cmd: record
  key : string

proc P: (cmd/cmd client, cmd/- inp)
  client => inp
"#;
        let err = compile_to_ast(src).unwrap_err();
        assert!(format!("{err}").contains("read-only"), "got {err}");
    }

    #[test]
    fn rejects_unknown_field() {
        let src = r#"
type cmd: record
  key : string

fun f: (req: cmd) -> (string)
  req.missing
"#;
        let err = compile_to_ast(src).unwrap_err();
        assert!(format!("{err}").contains("no field"), "got {err}");
    }

    #[test]
    fn rejects_size_referencing_later_field() {
        let src = r#"
type cmd: record
  key : string {size=keylen}
  keylen : integer {size=2}

fun f: (req: cmd) -> (string)
  req.key
"#;
        let err = compile_to_ast(src).unwrap_err();
        assert!(format!("{err}").contains("earlier field"), "got {err}");
    }

    #[test]
    fn rejects_arity_mismatch_in_pipeline() {
        let src = r#"
type cmd: record
  key : string

proc P: (cmd/cmd client, [cmd/cmd] backends)
  client => route(backends, client)

fun route: ([-/cmd] backends, req: cmd) -> ()
  req => backends[0]
"#;
        let err = compile_to_ast(src).unwrap_err();
        assert!(format!("{err}").contains("piped value"), "got {err}");
    }

    #[test]
    fn rejects_non_channel_process_param() {
        let src = r#"
proc P: (x: integer)
  x
"#;
        let err = compile_to_ast(src).unwrap_err();
        assert!(format!("{err}").contains("must be a channel"), "got {err}");
    }

    #[test]
    fn fold_map_filter_are_typed() {
        let src = r#"
fun add: (acc: integer, x: integer) -> (integer)
  acc + x

fun double: (x: integer) -> (integer)
  x * 2

fun is_big: (x: integer) -> (bool)
  x > 10

fun pipeline_funcs: (xs: [integer]) -> (integer)
  let doubled = map(double, xs)
  let big = filter(is_big, doubled)
  fold(add, 0, big)
"#;
        let typed = compile_to_ast(src).unwrap();
        assert_eq!(typed.function("pipeline_funcs").unwrap().ret, Type::Int);
    }

    #[test]
    fn rejects_unknown_function_in_fold() {
        let src = r#"
fun total: (xs: [integer]) -> (integer)
  fold(nonexistent, 0, xs)
"#;
        let err = compile_to_ast(src).unwrap_err();
        assert!(format!("{err}").contains("unknown function"), "got {err}");
    }

    #[test]
    fn string_concatenation_is_string() {
        let src = r#"
fun cat: (a: string, b: string) -> (string)
  a + b
"#;
        let typed = compile_to_ast(src).unwrap();
        assert_eq!(typed.function("cat").unwrap().ret, Type::Str);
    }

    #[test]
    fn record_constructor_checks_field_types() {
        let src = r#"
type kv: record
  key : string
  value : string

fun make: (k: string) -> (kv)
  kv(k, 42)
"#;
        let err = compile_to_ast(src).unwrap_err();
        assert!(format!("{err}").contains("expects string"), "got {err}");
    }
}
