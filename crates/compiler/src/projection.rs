//! Field-projection derivation.
//!
//! FLICK programs declare the data type with exactly the fields they need
//! (§4.2: "FLICK programs make accesses to message fields explicit by
//! declaring a FLICK data type corresponding to the message"); the full wire
//! grammar may carry many more. The projection for a record type is
//! therefore the set of named fields in the program's `type` declaration,
//! plus any fields accessed via `.field` expressions in the program (for
//! robustness when a declaration is wider than its uses).

use flick_grammar::Projection;
use flick_lang::ast::{Block, Expr, ExprKind, Stmt};
use flick_lang::TypedProgram;
use std::collections::BTreeSet;

/// The projection an input of process `proc_name` parses its messages
/// with: [`derive`] for its record, plus `body` unless the program
/// forwards every message of that input whole ([`forwards_whole`]). A
/// body left out is never read into user space: the runtime moves it from
/// the input's connection to the one the message is sent on through a
/// kernel pipe (DESIGN.md §11, "pass-through bodies").
pub fn for_input(typed: &TypedProgram, proc_name: &str, input: &str, record: &str) -> Projection {
    let projection = derive(typed, record);
    if forwards_whole(typed, proc_name, input) {
        projection
    } else {
        projection.with("body")
    }
}

/// Whether every message arriving on `input` of process `proc_name` is
/// sent on exactly once, unmodified, and kept nowhere. The input must be
/// read by exactly one rule, a top-level `input => sink` (no other
/// pipeline, `foldt` or function reads the channel), and the sink must be
/// a channel, or a function whose message parameter is likewise sent to a
/// channel by exactly one top-level statement and otherwise only has its
/// fields read. Anything else that names the message — a second send, a
/// `let`, a global, a `foldt`, an argument, a return value, a field
/// assignment, a send inside `if` or `for` — makes the answer `false`. A
/// message no rule consumes is dropped, not forwarded whole.
pub fn forwards_whole(typed: &TypedProgram, proc_name: &str, input: &str) -> bool {
    let program = &typed.program;
    let Some(process) = program.process(proc_name) else {
        return false;
    };
    let mut rules = process.body.stmts.iter().filter_map(|stmt| match stmt {
        Stmt::Pipeline { stages, .. }
            if stages.len() == 2 && stages[0].as_ident() == Some(input) =>
        {
            Some(&stages[1])
        }
        _ => None,
    });
    let (Some(sink), None) = (rules.next(), rules.next()) else {
        return false;
    };
    if channel_reads(typed, &process.body, input, 0) != 1 {
        return false;
    }
    match &sink.kind {
        ExprKind::Ident(_) | ExprKind::Index(..) => true,
        ExprKind::Call { name, args } => program.function(name).is_some_and(|fun| {
            // The message is the function's last parameter.
            fun.params.len() == args.len() + 1
                && fun.params.last().is_some_and(|message| {
                    sole_send(&fun.body, &message.name).is_some_and(|sink| {
                        matches!(sink.kind, ExprKind::Ident(_) | ExprKind::Index(..))
                    })
                })
        }),
        _ => false,
    }
}

/// How many places in `block` read messages from the channel `name`: a
/// pipeline whose source names it, a `foldt` over it (counted twice), and
/// the reads of any function it is passed to, under that function's
/// parameter name. Past a few calls deep (recursion) it answers "many".
fn channel_reads(typed: &TypedProgram, block: &Block, name: &str, depth: usize) -> usize {
    if depth > 8 {
        return 2;
    }
    let reads = |e: &Expr| expr_channel_reads(typed, e, name, depth);
    let nested = |b: &Block| channel_reads(typed, b, name, depth);
    block
        .stmts
        .iter()
        .map(|stmt| match stmt {
            Stmt::Global { init: e, .. }
            | Stmt::Let { value: e, .. }
            | Stmt::Expr { expr: e, .. } => reads(e),
            Stmt::Assign { target, value, .. } => reads(target) + reads(value),
            Stmt::Pipeline { stages, .. } => {
                let source = stages
                    .first()
                    .is_some_and(|source| bare_uses(source, name) > 0);
                usize::from(source) + stages.iter().map(reads).sum::<usize>()
            }
            Stmt::If {
                cond, then, els, ..
            } => reads(cond) + nested(then) + els.as_ref().map_or(0, nested),
            Stmt::For { iter, body, .. } => reads(iter) + 2 * nested(body),
        })
        .sum()
}

fn expr_channel_reads(typed: &TypedProgram, expr: &Expr, name: &str, depth: usize) -> usize {
    let recurse = |e: &Expr| expr_channel_reads(typed, e, name, depth);
    match &expr.kind {
        ExprKind::Call { name: callee, args } => {
            let passed: usize = match typed.program.function(callee) {
                Some(fun) => args
                    .iter()
                    .zip(&fun.params)
                    .filter(|(arg, _)| arg.as_ident() == Some(name))
                    .map(|(_, param)| channel_reads(typed, &fun.body, &param.name, depth + 1))
                    .sum(),
                None => 0,
            };
            passed + args.iter().map(recurse).sum::<usize>()
        }
        ExprKind::Foldt { channels, body, .. } => {
            2 * bare_uses(channels, name) + channel_reads(typed, body, name, depth)
        }
        ExprKind::Field(base, _) | ExprKind::Unary { operand: base, .. } => recurse(base),
        ExprKind::Index(a, b) | ExprKind::Binary { lhs: a, rhs: b, .. } => recurse(a) + recurse(b),
        ExprKind::Ident(_)
        | ExprKind::Int(_)
        | ExprKind::Str(_)
        | ExprKind::Bool(_)
        | ExprKind::None => 0,
    }
}

/// The sink of the one top-level `name => sink` statement of `block`, if
/// that statement is the only place `name` appears other than as the base
/// of a field read, and no assignment targets it or its fields.
fn sole_send<'a>(block: &'a Block, name: &str) -> Option<&'a Expr> {
    let mut sink = None;
    for stmt in &block.stmts {
        if let Stmt::Pipeline { stages, .. } = stmt {
            if let [source, to] = stages.as_slice() {
                if source.as_ident() == Some(name) && sink.replace(to).is_some() {
                    return None;
                }
            }
        }
    }
    let sink = sink?;
    (bare_uses_block(block, name) == 1).then_some(sink)
}

/// Occurrences of `name` in `block` other than as the base of a field
/// read; an assignment whose target names it counts as two, so that it
/// can never pass for the one send.
fn bare_uses_block(block: &Block, name: &str) -> usize {
    block
        .stmts
        .iter()
        .map(|stmt| match stmt {
            Stmt::Global { init, .. } => bare_uses(init, name),
            Stmt::Let { value, .. } => bare_uses(value, name),
            Stmt::Assign { target, value, .. } => {
                let target_names_it =
                    bare_uses(target, name) > 0 || field_base(target) == Some(name);
                2 * usize::from(target_names_it) + bare_uses(value, name)
            }
            Stmt::Pipeline { stages, .. } => stages.iter().map(|s| bare_uses(s, name)).sum(),
            Stmt::If {
                cond, then, els, ..
            } => {
                bare_uses(cond, name)
                    + bare_uses_block(then, name)
                    + els.as_ref().map_or(0, |e| bare_uses_block(e, name))
            }
            // A send inside a loop may repeat, one inside `if` may not
            // happen: neither is exactly once, so both count twice.
            Stmt::For { iter, body, .. } => bare_uses(iter, name) + 2 * bare_uses_block(body, name),
            Stmt::Expr { expr, .. } => bare_uses(expr, name),
        })
        .sum()
}

/// The identifier at the root of a chain of field accesses.
fn field_base(expr: &Expr) -> Option<&str> {
    match &expr.kind {
        ExprKind::Field(base, _) => field_base(base),
        ExprKind::Ident(name) => Some(name),
        _ => None,
    }
}

fn bare_uses(expr: &Expr, name: &str) -> usize {
    match &expr.kind {
        ExprKind::Ident(ident) => usize::from(ident == name),
        // `name.field` reads a field; the message itself stays put.
        ExprKind::Field(base, _) if base.as_ident() == Some(name) => 0,
        ExprKind::Field(base, _) => bare_uses(base, name),
        ExprKind::Index(base, idx) => bare_uses(base, name) + bare_uses(idx, name),
        ExprKind::Call { args, .. } => args.iter().map(|a| bare_uses(a, name)).sum(),
        ExprKind::Binary { lhs, rhs, .. } => bare_uses(lhs, name) + bare_uses(rhs, name),
        ExprKind::Unary { operand, .. } => bare_uses(operand, name),
        ExprKind::Foldt {
            channels,
            order_key,
            body,
            ..
        } => {
            2 * (bare_uses(channels, name)
                + bare_uses(order_key, name)
                + bare_uses_block(body, name))
        }
        ExprKind::Int(_) | ExprKind::Str(_) | ExprKind::Bool(_) | ExprKind::None => 0,
    }
}

/// Derives the projection for record type `record_name`.
pub fn derive(typed: &TypedProgram, record_name: &str) -> Projection {
    let mut fields: BTreeSet<String> = BTreeSet::new();
    if let Some(record) = typed.record(record_name) {
        for field in record.named_fields() {
            if let Some(name) = &field.name {
                fields.insert(name.clone());
            }
        }
    }
    // Also collect every field access mentioned anywhere in the program.
    for f in &typed.program.functions {
        collect_block(&f.body, &mut fields);
    }
    for p in &typed.program.processes {
        collect_block(&p.body, &mut fields);
    }
    Projection::of(fields)
}

fn collect_block(block: &Block, out: &mut BTreeSet<String>) {
    for stmt in &block.stmts {
        match stmt {
            Stmt::Global { init, .. } => collect_expr(init, out),
            Stmt::Let { value, .. } => collect_expr(value, out),
            Stmt::Assign { target, value, .. } => {
                collect_expr(target, out);
                collect_expr(value, out);
            }
            Stmt::Pipeline { stages, .. } => stages.iter().for_each(|s| collect_expr(s, out)),
            Stmt::If {
                cond, then, els, ..
            } => {
                collect_expr(cond, out);
                collect_block(then, out);
                if let Some(e) = els {
                    collect_block(e, out);
                }
            }
            Stmt::For { iter, body, .. } => {
                collect_expr(iter, out);
                collect_block(body, out);
            }
            Stmt::Expr { expr, .. } => collect_expr(expr, out),
        }
    }
}

fn collect_expr(expr: &Expr, out: &mut BTreeSet<String>) {
    match &expr.kind {
        ExprKind::Field(base, field) => {
            out.insert(field.clone());
            collect_expr(base, out);
        }
        ExprKind::Index(base, idx) => {
            collect_expr(base, out);
            collect_expr(idx, out);
        }
        ExprKind::Call { args, .. } => args.iter().for_each(|a| collect_expr(a, out)),
        ExprKind::Binary { lhs, rhs, .. } => {
            collect_expr(lhs, out);
            collect_expr(rhs, out);
        }
        ExprKind::Unary { operand, .. } => collect_expr(operand, out),
        ExprKind::Foldt {
            channels,
            order_key,
            body,
            ..
        } => {
            collect_expr(channels, out);
            collect_expr(order_key, out);
            collect_block(body, out);
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flick_lang::compile_to_ast;

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
        let typed = compile_to_ast(src).unwrap();
        let projection = derive(&typed, "cmd");
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
        let typed = compile_to_ast(src).unwrap_or_else(|e| panic!("{e}\n{src}"));
        let whole = forwards_whole(&typed, "P", input);
        assert_eq!(
            for_input(&typed, "P", input, "request").requires("body"),
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
        let typed = compile_to_ast(
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
        )
        .unwrap();
        assert!(!forwards_whole(&typed, "P", "mappers"));
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
        let typed = compile_to_ast(src).unwrap();
        let projection = derive(&typed, "nonexistent");
        // The program's own field names are still present via the kv decl uses.
        assert!(!projection.requires("cas"));
    }
}
