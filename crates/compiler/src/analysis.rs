//! What the program that runs reads of its messages.
//!
//! FLICK programs declare the data type with the fields they need and make
//! every other access explicit (§4.2), so an input's parser materialises
//! only its record's declared fields and the fields the program reads, and
//! `body` only if the input does not forward every message whole: a body
//! left out is never read into user space, but moved from the input's
//! connection to the one the message is sent on through a kernel pipe
//! (DESIGN.md §11, "pass-through bodies"). Both answers are read off the
//! slot-resolved IR that the interpreter and the VM execute, so a `let`
//! that rebinds a parameter's name is seen as the store into the
//! parameter's slot that it is.

use crate::ir::{IrCall, IrExpr, IrSink, IrStmt, ProgramIr};
use flick_grammar::Projection;

/// The projection input `param` of `program` parses its messages with:
/// the `declared` fields of its record, every field the program reads
/// (`.field` anywhere, and the `foldt` merge key), and `body` unless the
/// input [forwards every message whole](forwards_whole).
pub fn projection(
    program: &ProgramIr,
    param: usize,
    declared: impl IntoIterator<Item = String>,
) -> Projection {
    let process = &program.process;
    let mut fields: Vec<String> = declared.into_iter().collect();
    let mut read = |node: Node<'_>| {
        if let Node::Expr(IrExpr::Field(_, field)) = node {
            fields.push(field.clone());
        }
    };
    for function in &program.functions {
        walk_stmts(&function.body, &mut read);
    }
    for rule in &process.rules {
        walk_pipeline(&rule.stages, &rule.sink, &mut read);
    }
    if let Some(foldt) = &process.foldt {
        walk_stmts(&foldt.body, &mut read);
        fields.push(foldt.key_field.clone());
    }
    if !forwards_whole(program, param) {
        fields.push("body".into());
    }
    Projection::of(fields)
}

/// Whether every message arriving on input `param` is sent on exactly
/// once, unmodified, and kept nowhere. One rule reads the input, with no
/// stages, and no `foldt` aggregates it (the lowering makes rules and
/// `foldt` the only readers of a channel). The rule's sink is a channel,
/// or a function whose message parameter — its last — is sent to a
/// channel by one top-level statement and otherwise only has fields read.
/// Anything else that names the message — a second send, a send inside
/// `if` or `for`, a `let`, a global, an argument, a return value, a store
/// into its slot — makes the answer `false`. A message no rule consumes is
/// dropped, not forwarded whole.
pub fn forwards_whole(program: &ProgramIr, param: usize) -> bool {
    let process = &program.process;
    let mut rules = process
        .rules
        .iter()
        .filter(|rule| rule.source_param == param);
    let (Some(rule), None) = (rules.next(), rules.next()) else {
        return false;
    };
    if !rule.stages.is_empty()
        || process
            .foldt
            .as_ref()
            .is_some_and(|f| f.source_param == param)
    {
        return false;
    }
    match &rule.sink {
        IrSink::Channel(_) => true,
        IrSink::Call(call) => {
            let function = &program.functions[call.function];
            function.params == call.args.len() + 1
                && sends_once(&function.body, function.params - 1)
        }
    }
}

/// Whether `body` sends slot `msg` to a channel in one top-level pipeline
/// without stages, and otherwise only reads its fields. A store or a loop
/// into the slot counts twice, so that it can never pass for the send.
fn sends_once(body: &[IrStmt], msg: usize) -> bool {
    let sent = body.iter().any(|stmt| {
        matches!(stmt, IrStmt::Pipeline { source: IrExpr::Load(slot), stages, sink: IrSink::Channel(_) }
            if *slot == msg && stages.is_empty())
    });
    let mut uses = 0isize;
    walk_stmts(body, &mut |node| {
        uses += match node {
            Node::Expr(IrExpr::Load(slot)) if *slot == msg => 1,
            // `msg.field` reads a field; the message itself stays put.
            Node::Expr(IrExpr::Field(base, _)) if **base == IrExpr::Load(msg) => -1,
            Node::Stmt(IrStmt::Store(slot, _) | IrStmt::For { slot, .. }) if *slot == msg => 2,
            _ => 0,
        }
    });
    sent && uses == 1
}

/// A statement or an expression met by a walk.
enum Node<'a> {
    Stmt(&'a IrStmt),
    Expr(&'a IrExpr),
}

/// Visits every statement of `body` and every expression in it, nested
/// ones included, each before what it contains.
fn walk_stmts<'a>(body: &'a [IrStmt], visit: &mut dyn FnMut(Node<'a>)) {
    for stmt in body {
        visit(Node::Stmt(stmt));
        match stmt {
            IrStmt::Store(_, expr) | IrStmt::Expr(expr) => walk_expr(expr, visit),
            IrStmt::AssignIndex {
                target,
                index,
                value,
            } => [target, index, value]
                .into_iter()
                .for_each(|expr| walk_expr(expr, visit)),
            IrStmt::Pipeline {
                source,
                stages,
                sink,
            } => {
                walk_expr(source, visit);
                walk_pipeline(stages, sink, visit);
            }
            IrStmt::If { cond, then, els } => {
                walk_expr(cond, visit);
                walk_stmts(then, visit);
                walk_stmts(els, visit);
            }
            IrStmt::For { iter, body, .. } => {
                walk_expr(iter, visit);
                walk_stmts(body, visit);
            }
        }
    }
}

/// Visits the arguments of a pipeline's stages and its sink.
fn walk_pipeline<'a>(stages: &'a [IrCall], sink: &'a IrSink, visit: &mut dyn FnMut(Node<'a>)) {
    let sink_call = match sink {
        IrSink::Channel(channel) => {
            walk_expr(channel, visit);
            None
        }
        IrSink::Call(call) => Some(call),
    };
    for call in stages.iter().chain(sink_call) {
        call.args.iter().for_each(|arg| walk_expr(arg, visit));
    }
}

/// Visits `expr` and every expression nested in it, outermost first.
fn walk_expr<'a>(expr: &'a IrExpr, visit: &mut dyn FnMut(Node<'a>)) {
    visit(Node::Expr(expr));
    match expr {
        IrExpr::Field(inner, _)
        | IrExpr::Unary(_, inner)
        | IrExpr::Map { list: inner, .. }
        | IrExpr::Filter { list: inner, .. } => walk_expr(inner, visit),
        IrExpr::Index(a, b)
        | IrExpr::Binary(_, a, b)
        | IrExpr::Fold {
            init: a, list: b, ..
        } => {
            walk_expr(a, visit);
            walk_expr(b, visit);
        }
        IrExpr::Call(IrCall { args, .. })
        | IrExpr::Builtin(_, args)
        | IrExpr::MakeRecord(_, _, args) => args.iter().for_each(|arg| walk_expr(arg, visit)),
        IrExpr::Int(_) | IrExpr::Str(_) | IrExpr::Bool(_) | IrExpr::None | IrExpr::Load(_) => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::lower;
    use flick_lang::compile_to_ast;

    /// The lowered process `P` of `src`, and the index of its input `input`.
    fn lowered(src: &str, input: &str) -> (ProgramIr, usize) {
        let typed = compile_to_ast(src).unwrap_or_else(|e| panic!("{e}\n{src}"));
        let program = lower(&typed, "P").unwrap_or_else(|e| panic!("{e}\n{src}"));
        let param = program
            .process
            .params
            .iter()
            .position(|p| p.name == input)
            .unwrap();
        (program, param)
    }

    #[test]
    fn projection_includes_declared_and_accessed_fields() {
        let src = r#"
type cmd: record
  opcode : integer {size=1}
  key : string

proc P: (cmd/cmd client, [cmd/cmd] backends)
  client => route(backends)

fun route: ([-/cmd] backends, req: cmd) -> ()
  let target = hash(req.key) mod len(backends)
  req => backends[target]
"#;
        let (program, client) = lowered(src, "client");
        let projection = projection(&program, client, ["opcode".to_string()]);
        assert!(projection.requires("opcode"));
        assert!(projection.requires("key"));
        assert!(!projection.requires("value"));
        assert!(!projection.requires("cas"));
    }

    /// A balancer shaped like the bundled path-hashed one, with `route`
    /// as its routing function's body.
    fn balancer(route: &str) -> String {
        format!(
            r#"
type request: record
  path : string

proc P: (request/request client, [request/request] backends)
  global seen := empty_dict
  client => route(backends, seen)
  backends => client

fun route: ([-/request] backends, seen: ref dict<string*request>, req: request) -> ()
{route}
"#
        )
    }

    fn streams(src: &str, input: &str) -> bool {
        let (program, param) = lowered(src, input);
        let whole = forwards_whole(&program, param);
        assert_eq!(
            projection(&program, param, ["path".to_string()]).requires("body"),
            !whole
        );
        whole
    }

    #[test]
    fn a_message_sent_once_unmodified_streams_its_body() {
        let src =
            balancer("  let target = hash(req.path) mod len(backends)\n  req => backends[target]");
        assert!(streams(&src, "client"), "read a field, then sent once");
        assert!(streams(&src, "backends"), "forwarded straight to a channel");
        let sticky = r#"
type request: record
  path : string

proc P: (request/request client, request/request backend)
  client => backend
  backend => client
"#;
        assert!(streams(sticky, "client") && streams(sticky, "backend"));
    }

    #[test]
    fn a_message_duplicated_rewritten_retained_or_dropped_keeps_its_body() {
        for (what, route) in [
            ("sent twice", "  req => backends[0]\n  req => backends[1]"),
            // FLICK has no field assignment: a rewrite builds a new record
            // and drops the received one.
            ("rewritten", "  request(\"/x\") => backends[0]"),
            (
                "stored in a global",
                "  seen[req.path] := req\n  req => backends[0]",
            ),
            ("bound by a let", "  let kept = req\n  kept => backends[0]"),
            (
                "sent conditionally",
                "  if req.path = \"/\":\n    req => backends[0]",
            ),
            ("dropped", "  let target = hash(req.path) mod len(backends)"),
        ] {
            let src = balancer(route);
            assert!(!streams(&src, "client"), "{what}");
            assert!(
                streams(&src, "backends"),
                "{what}: the other input still streams"
            );
        }
    }

    /// `let req = ...` stores into the parameter's slot: the message sent
    /// is the rebuilt one, and the one received is dropped.
    #[test]
    fn a_let_that_shadows_the_message_parameter_keeps_its_body() {
        let src = balancer("  let req = request(\"/x\")\n  req => backends[0]");
        assert!(!streams(&src, "client"));
        assert!(streams(&src, "backends"));
    }

    #[test]
    fn an_input_read_twice_or_folded_keeps_its_body() {
        let twice = r#"
type request: record
  path : string

proc P: (request/request client, request/request backend, request/request mirror)
  client => backend
  client => mirror
  backend => client
"#;
        assert!(!streams(twice, "client"));
        let (program, mappers) = lowered(
            r#"
type kv: record
  key : string
  value : string

proc P: ([kv/-] mappers, -/kv reducer):
  if all_ready(mappers):
    let result = foldt on mappers ordering elem e1, e2 by elem.key as e_key:
      kv(e_key, e1.value)
    result => reducer
"#,
            "mappers",
        );
        assert!(!forwards_whole(&program, mappers));
    }

    #[test]
    fn unknown_record_still_collects_accesses() {
        let src = r#"
type kv: record
  key : string
  value : string

proc P: (kv/kv client)
  client => client
"#;
        let (program, client) = lowered(src, "client");
        let projection = projection(&program, client, []);
        // The program's own field names are still present via the kv decl uses.
        assert!(!projection.requires("cas"));
    }
}
