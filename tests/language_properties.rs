//! Property-based tests over the FLICK front end and the grammar engine.

use flick::grammar::{hadoop, memcached, ParseOutcome, WireCodec};
use flick::lang::ast::{Block, Expr, ExprKind, Stmt};
use flick::lang::types::Type;
use proptest::prelude::*;

/// Counts statements of one construct kind anywhere in a block.
fn count_stmts(block: &Block, pred: &dyn Fn(&Stmt) -> bool) -> usize {
    let mut count = 0;
    for stmt in &block.stmts {
        if pred(stmt) {
            count += 1;
        }
        match stmt {
            Stmt::If { then, els, .. } => {
                count += count_stmts(then, pred);
                if let Some(els) = els {
                    count += count_stmts(els, pred);
                }
            }
            Stmt::For { body, .. } => {
                count += count_stmts(body, pred);
            }
            _ => {}
        }
    }
    count
}

/// Counts `Call` expressions anywhere inside an expression tree.
fn count_calls(expr: &Expr) -> usize {
    match &expr.kind {
        ExprKind::Call { args, .. } => 1 + args.iter().map(count_calls).sum::<usize>(),
        ExprKind::Binary { lhs, rhs, .. } => count_calls(lhs) + count_calls(rhs),
        ExprKind::Unary { operand, .. } => count_calls(operand),
        ExprKind::Field(inner, _) => count_calls(inner),
        ExprKind::Index(base, index) => count_calls(base) + count_calls(index),
        _ => 0,
    }
}

/// Counts `Call` expressions in every expression position of a block.
fn count_calls_in_block(block: &Block) -> usize {
    block
        .stmts
        .iter()
        .map(|stmt| match stmt {
            Stmt::Expr { expr, .. } => count_calls(expr),
            Stmt::Let { value, .. } => count_calls(value),
            Stmt::Assign { target, value, .. } => count_calls(target) + count_calls(value),
            _ => 0,
        })
        .sum()
}

/// Renders a chain of `depth` nested `if`/`else` statements, each arm one
/// indentation level deeper (the FLICK lexer is indentation-aware, so this
/// also exercises deep indent tracking).
fn nested_if_source(depth: usize) -> String {
    let mut src = String::from("fun f: (x: integer) -> (integer)\n");
    for level in 0..depth {
        let ind = "  ".repeat(level + 1);
        src.push_str(&format!("{ind}if x > {level}:\n"));
        if level + 1 == depth {
            src.push_str(&format!("{ind}  x + {depth}\n"));
        }
    }
    // Close every level with an else arm, innermost first.
    for level in (0..depth).rev() {
        let ind = "  ".repeat(level + 1);
        src.push_str(&format!("{ind}else:\n"));
        src.push_str(&format!("{ind}  x - {level}\n"));
    }
    src
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every generated Memcached request round-trips through the grammar
    /// engine: serialise → parse yields the same key/value/opcode.
    #[test]
    fn memcached_roundtrip(key in "[a-z0-9:]{0,40}", value in proptest::collection::vec(any::<u8>(), 0..200), op in 0u64..32) {
        let codec = memcached::MemcachedCodec::new();
        let msg = memcached::request(op, key.as_bytes(), b"", &value);
        let mut wire = Vec::new();
        codec.serialize(&msg, &mut wire).unwrap();
        match codec.parse(&wire, None).unwrap() {
            ParseOutcome::Complete { message, consumed } => {
                prop_assert_eq!(consumed, wire.len());
                prop_assert_eq!(message.str_field("key").unwrap_or(""), key.as_str());
                prop_assert_eq!(message.bytes_field("value").unwrap_or(&[]), &value[..]);
                prop_assert_eq!(message.uint_field("opcode"), Some(op));
            }
            other => prop_assert!(false, "unexpected {:?}", other),
        }
    }

    /// Truncating a valid message never produces a bogus Complete result:
    /// the parser reports Incomplete (or a malformed error for a damaged
    /// fixed header), never a wrong message.
    #[test]
    fn memcached_truncation_is_detected(key in "[a-z]{1,20}", cut in 1usize..20) {
        let codec = memcached::MemcachedCodec::new();
        let msg = memcached::request(memcached::opcode::GETK, key.as_bytes(), b"", b"value");
        let mut wire = Vec::new();
        codec.serialize(&msg, &mut wire).unwrap();
        let cut = cut.min(wire.len() - 1);
        let truncated = &wire[..wire.len() - cut];
        match codec.parse(truncated, None) {
            Ok(ParseOutcome::Incomplete) | Err(_) => {}
            Ok(ParseOutcome::Complete { consumed, .. }) => {
                prop_assert!(consumed <= truncated.len());
                // A complete parse of a truncated buffer can only happen if
                // the truncation removed a zero-length tail, which cannot
                // occur here because value is non-empty.
                prop_assert!(false, "truncated message parsed as complete");
            }
        }
    }

    /// Hadoop kv batches round-trip in order.
    #[test]
    fn hadoop_batch_roundtrip(words in proptest::collection::vec("[a-z]{1,16}", 1..20)) {
        let codec = hadoop::HadoopKvCodec::new();
        let records: Vec<_> = words.iter().enumerate().map(|(i, w)| hadoop::count_kv(w, i as u64 + 1)).collect();
        let wire = hadoop::serialize_batch(&codec, &records).unwrap();
        let parsed = hadoop::parse_batch(&codec, &wire).unwrap();
        prop_assert_eq!(parsed.len(), records.len());
        for (p, w) in parsed.iter().zip(words.iter()) {
            prop_assert_eq!(p.str_field("key").unwrap(), w.as_str());
        }
    }

    /// The FLICK front end never panics on arbitrary printable input.
    #[test]
    fn parser_never_panics(src in "[ -~\n]{0,200}") {
        let _ = flick::lang::parse(&src);
    }

    /// Construct coverage: `if`/`else` (Stmt::If). Arbitrarily deep
    /// nested conditionals parse, preserve their nesting depth in the
    /// AST, and type-check to the integer every arm produces.
    #[test]
    fn nested_if_else_typechecks_at_any_depth(depth in 1usize..9) {
        let src = nested_if_source(depth);
        let parsed = flick::lang::parse(&src).expect("nested if parses");
        let ifs = count_stmts(
            &parsed.functions[0].body,
            &|stmt| matches!(stmt, Stmt::If { .. }),
        );
        prop_assert_eq!(ifs, depth, "source:\n{}", src);
        let typed = flick::lang::compile_to_ast(&src).expect("nested if type-checks");
        prop_assert_eq!(&typed.function("f").unwrap().ret, &Type::Int);
    }

    /// Construct coverage: `for` loops (Stmt::For). A function with any
    /// number of bounded loops over a list parameter parses with the
    /// right loop count and type-checks (the loop variable is bound to
    /// the element type, the final `len` call returns an integer).
    #[test]
    fn for_loops_over_lists_typecheck(loops in 1usize..7) {
        let mut src = String::from("fun f: (xs: [integer]) -> (integer)\n");
        for i in 0..loops {
            src.push_str(&format!("  for x{i} in xs:\n    let y{i} = x{i} + 1\n"));
        }
        src.push_str("  len(xs)\n");
        let parsed = flick::lang::parse(&src).expect("for loops parse");
        let fors = count_stmts(
            &parsed.functions[0].body,
            &|stmt| matches!(stmt, Stmt::For { .. }),
        );
        prop_assert_eq!(fors, loops, "source:\n{}", src);
        let typed = flick::lang::compile_to_ast(&src).expect("for loops type-check");
        prop_assert_eq!(&typed.function("f").unwrap().ret, &Type::Int);
    }

    /// Construct coverage: nested function calls (ExprKind::Call). A call
    /// chain `inc(inc(...inc(x)...))` of any depth parses with the right
    /// call count and type-checks — the callee's return type feeds the
    /// next caller's parameter type at every level.
    #[test]
    fn nested_function_calls_typecheck_at_any_depth(depth in 1usize..10) {
        let mut call = String::from("x");
        for _ in 0..depth {
            call = format!("inc({call})");
        }
        let src = format!(
            "fun inc: (x: integer) -> (integer)\n  x + 1\n\n\
             fun apply: (x: integer) -> (integer)\n  {call}\n"
        );
        let parsed = flick::lang::parse(&src).expect("nested calls parse");
        let apply = parsed
            .functions
            .iter()
            .find(|f| f.name == "apply")
            .expect("apply parsed");
        prop_assert_eq!(count_calls_in_block(&apply.body), depth, "source:\n{}", src);
        let typed = flick::lang::compile_to_ast(&src).expect("nested calls type-check");
        prop_assert_eq!(&typed.function("apply").unwrap().ret, &Type::Int);
    }

    /// Construct coverage: `global` declarations (Stmt::Global) and
    /// dictionary assignment (Stmt::Assign through an Index target). A
    /// process threading any number of global dictionaries through a
    /// pipeline of cache-stash stages parses with the right global and
    /// assignment counts and type-checks.
    #[test]
    fn global_dicts_and_assignments_typecheck(n in 1usize..6) {
        let mut src = String::from("type cmd: record\n  key : string\n\nproc P: (cmd/cmd c)\n");
        for i in 0..n {
            src.push_str(&format!("  global g{i} := empty_dict\n"));
        }
        let stages: Vec<String> = (0..n).map(|i| format!("stash{i}(g{i})")).collect();
        src.push_str(&format!("  c => {} => c\n", stages.join(" => ")));
        for i in 0..n {
            src.push_str(&format!(
                "\nfun stash{i}: (cache: ref dict<string*cmd>, req: cmd) -> (cmd)\n  \
                 cache[req.key] := req\n  req\n"
            ));
        }
        let parsed = flick::lang::parse(&src).expect("globals parse");
        let proc_ = parsed.processes.first().expect("process parsed");
        let globals = count_stmts(&proc_.body, &|stmt| matches!(stmt, Stmt::Global { .. }));
        prop_assert_eq!(globals, n, "source:\n{}", src);
        for i in 0..n {
            let stash = parsed
                .functions
                .iter()
                .find(|f| f.name == format!("stash{i}"))
                .expect("stash parsed");
            let assigns = count_stmts(&stash.body, &|stmt| matches!(stmt, Stmt::Assign { .. }));
            prop_assert_eq!(assigns, 1, "stash{} source:\n{}", i, src);
        }
        flick::lang::compile_to_ast(&src).expect("globals type-check");
    }

    /// Valid programs with a varying number of fields type-check, and the
    /// field count is preserved in the typed output.
    #[test]
    fn typecheck_preserves_field_count(n in 1usize..8) {
        let mut src = String::from("type rec: record\n");
        for i in 0..n {
            src.push_str(&format!("  f{i} : integer\n"));
        }
        src.push_str("\nproc P: (rec/rec c)\n  c => c\n");
        let typed = flick::lang::compile_to_ast(&src).unwrap();
        prop_assert_eq!(typed.record("rec").unwrap().fields.len(), n);
    }
}

// ---------------------------------------------------------------------------
// Differential execution: tree-walking interpreter ≡ bytecode VM
// ---------------------------------------------------------------------------
//
// The proptest shim has no recursive combinator strategies (`prop_oneof`,
// `prop_recursive`), so differential programs are derived from
// proptest-supplied byte vectors through a small hand-rolled generator: the
// byte stream steers a grammar of type-correct integer expressions, and the
// generated function is executed under both engines with identical
// arguments. Results, emitted sends and errors (base message plus the
// located function name) must agree exactly.

use flick::compiler::bytecode;
use flick::compiler::error::split_located;
use flick::compiler::interp::{CollectSink, Interpreter, RtVal};
use flick::compiler::vm::Vm;
use flick::grammar::{Message, MsgValue};
use flick::runtime::Value;

/// One engine run: final value (or rendered error) plus every
/// `(channel, value)` send the function performed.
type EngineOutcome = (Result<Value, String>, Vec<(usize, Value)>);

/// Runs function `fn_name` of `src` under both the tree-walking
/// interpreter and the bytecode VM with identical arguments.
fn run_differential(src: &str, fn_name: &str, args: Vec<RtVal>) -> (EngineOutcome, EngineOutcome) {
    let typed = flick::lang::compile_to_ast(src)
        .unwrap_or_else(|e| panic!("generated program must type-check: {e}\nsource:\n{src}"));
    let program = flick::compiler::ir::lower(&typed, "P")
        .unwrap_or_else(|e| panic!("generated program must lower: {e}\nsource:\n{src}"));
    let compiled = bytecode::compile(&program);
    let index = program
        .functions
        .iter()
        .position(|f| f.name == fn_name)
        .unwrap_or_else(|| panic!("function `{fn_name}` not lowered\nsource:\n{src}"));

    let mut interp_sink = CollectSink::default();
    let interp_result = Interpreter::new(&program)
        .call_function(index, args.clone(), &mut interp_sink)
        .and_then(RtVal::into_value);

    let mut cache = compiled.field_offsets.clone();
    let mut vm_sink = CollectSink::default();
    let vm_result = Vm::new(&compiled, &mut cache)
        .call_function(index, args, &mut vm_sink)
        .and_then(RtVal::into_value);

    (
        (interp_result.map_err(|e| e.to_string()), interp_sink.sent),
        (vm_result.map_err(|e| e.to_string()), vm_sink.sent),
    )
}

/// Extracts the `fn `name`` prefix of a diagnostic location (the part
/// before the engine-specific `stmt N` / `pc N` cursor).
fn located_function(location: &str) -> &str {
    location.split(',').next().unwrap_or(location).trim()
}

/// Asserts both engines produced the same outcome: identical sends, and
/// either identical values or errors with the same base message whose
/// locations name the same innermost function.
fn assert_engines_agree(src: &str, fn_name: &str, args: Vec<RtVal>) {
    let ((interp, interp_sent), (vm, vm_sent)) = run_differential(src, fn_name, args);
    assert_eq!(interp_sent, vm_sent, "sends diverge\nsource:\n{src}");
    match (&interp, &vm) {
        (Ok(a), Ok(b)) => assert_eq!(a, b, "results diverge\nsource:\n{src}"),
        (Err(a), Err(b)) => {
            let (a_base, a_loc) = split_located(a);
            let (b_base, b_loc) = split_located(b);
            assert_eq!(a_base, b_base, "error bases diverge\nsource:\n{src}");
            let a_loc = a_loc
                .unwrap_or_else(|| panic!("interp error lacks a location: {a}\nsource:\n{src}"));
            let b_loc =
                b_loc.unwrap_or_else(|| panic!("vm error lacks a location: {b}\nsource:\n{src}"));
            assert!(
                a_loc.contains("fn `") && b_loc.contains("fn `"),
                "locations do not name a function: interp `{a_loc}` vm `{b_loc}`\nsource:\n{src}"
            );
            assert_eq!(
                located_function(a_loc),
                located_function(b_loc),
                "engines blame different functions\nsource:\n{src}"
            );
        }
        _ => panic!("engines disagree on success: interp={interp:?} vm={vm:?}\nsource:\n{src}"),
    }
}

/// A cursor over a proptest-supplied byte vector; exhausted streams repeat
/// a fixed byte so generation always terminates deterministically.
struct ByteGen<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl ByteGen<'_> {
    fn next(&mut self) -> u8 {
        let b = self.bytes.get(self.pos).copied().unwrap_or(7);
        self.pos += 1;
        b
    }
}

/// Renders a type-correct integer expression over `vars`, at most `depth`
/// operator levels deep.
fn gen_int_expr(g: &mut ByteGen, vars: &[&str], depth: usize) -> String {
    let choice = g.next();
    if depth == 0 || choice < 96 {
        return if choice % 2 == 0 {
            format!("{}", i64::from(g.next()) - 128)
        } else {
            vars[g.next() as usize % vars.len()].to_string()
        };
    }
    let op = match choice % 6 {
        0 => "+",
        1 => "-",
        2 => "*",
        3 => "/",
        4 => "mod",
        _ => {
            return format!("(-{})", gen_int_expr(g, vars, depth - 1));
        }
    };
    format!(
        "({} {} {})",
        gen_int_expr(g, vars, depth - 1),
        op,
        gen_int_expr(g, vars, depth - 1)
    )
}

/// Renders a boolean comparison between two shallow integer expressions.
fn gen_condition(g: &mut ByteGen, vars: &[&str]) -> String {
    let op = ["=", "<>", "<", ">", "<=", ">="][g.next() as usize % 6];
    format!(
        "{} {} {}",
        gen_int_expr(g, vars, 1),
        op,
        gen_int_expr(g, vars, 1)
    )
}

/// Builds a type-correct FLICK program whose `main_f` exercises
/// let-bindings, local reassignment, statement- and tail-position
/// `if`/`else`, a `for` accumulation loop, a nested helper call, and the
/// `/`, `mod` and overflow error arms — all shaped by the byte stream.
/// The local `k` is bound before the loop, read in every iteration and
/// after it: its textually last load in the body is not its last use.
fn gen_differential_program(bytes: &[u8]) -> String {
    let g = &mut ByteGen { bytes, pos: 0 };
    let helper_tail = gen_int_expr(g, &["a", "b"], 2);
    let keep = gen_int_expr(g, &["x", "y"], 1);
    let seed = gen_int_expr(g, &["x", "y", "k"], 2);
    let step = gen_int_expr(g, &["x", "y", "v", "acc", "k"], 2);
    let cond = gen_condition(g, &["x", "y", "acc", "k"]);
    let then_arg = gen_int_expr(g, &["x", "y", "acc", "k"], 2);
    let else_arg = gen_int_expr(g, &["x", "y", "acc"], 2);
    let tail_cond = gen_condition(g, &["x", "acc", "k"]);
    let tail_then = gen_int_expr(g, &["x", "y", "acc", "k"], 2);
    let tail_else = gen_int_expr(g, &["x", "y", "acc"], 2);
    format!(
        "type cmd: record\n  key : string\n\n\
         proc P: (cmd/cmd c)\n  c => c\n\n\
         fun helper: (a: integer, b: integer) -> (integer)\n  \
         if b = 0:\n    \
         a - 1\n  \
         else:\n    \
         (a / b) + {helper_tail}\n\n\
         fun main_f: (x: integer, y: integer, xs: [integer]) -> (integer)\n  \
         let k = {keep}\n  \
         let acc = {seed}\n  \
         for v in xs:\n    \
         acc := ((acc + {step}) - k)\n  \
         if {cond}:\n    \
         acc := (acc + helper({then_arg}, y))\n  \
         else:\n    \
         acc := (acc - helper(x, {else_arg}))\n  \
         if {tail_cond}:\n    \
         (acc * 3) + {tail_then}\n  \
         else:\n    \
         ((acc * 5) - {tail_else}) + k\n"
    )
}

/// The routing program used by the send-differential properties: the same
/// hash-and-forward shape as the paper's Memcached proxy, plus a raw-index
/// variant whose out-of-range arm exercises the channel error path.
const ROUTING_DIFFERENTIAL_SRC: &str = "\
type cmd: record
  key : string

proc P: (cmd/cmd client, [cmd/cmd] backends)
  client => target_backend(backends)

fun target_backend: ([-/cmd] backends, req: cmd) -> ()
  let target = hash(req.key) mod len(backends)
  req => backends[target]

fun direct: ([-/cmd] backends, req: cmd, k: integer) -> ()
  req => backends[k]
";

/// Builds a `cmd` message with the given key, as the wire parser would.
fn cmd_msg(key: &str) -> Value {
    let mut msg = Message::new("cmd");
    msg.set("key", MsgValue::Str(key.to_string()));
    Value::Msg(msg)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Differential: generated integer programs (arithmetic, control flow,
    /// nested calls, division/modulo/overflow error arms) produce identical
    /// results — or identical errors blaming the same function — under the
    /// interpreter and the VM. Operands are full-range `i64`s shifted
    /// right by a drawn amount, so every magnitude from 0 to the edges
    /// turns up and both the exact and the overflowing arms are reached.
    #[test]
    fn interp_and_vm_agree_on_generated_programs(
        bytes in proptest::collection::vec(any::<u8>(), 16..96),
        x in any::<i64>(),
        y in any::<i64>(),
        xs in proptest::collection::vec(any::<i64>(), 0..12),
        shift in 0u32..64,
    ) {
        let src = gen_differential_program(&bytes);
        let args = vec![
            RtVal::Val(Value::Int(x >> shift)),
            RtVal::Val(Value::Int(y >> (63 - shift))),
            RtVal::Val(Value::List(xs.iter().map(|v| Value::Int(v >> shift)).collect())),
        ];
        assert_engines_agree(&src, "main_f", args);
    }

    /// Differential: hash-based routing forwards every key to the same
    /// backend channel under both engines, for any key set and pool size.
    #[test]
    fn interp_and_vm_route_keys_identically(
        keys in proptest::collection::vec("[a-z0-9]{0,12}", 1..8),
        nbackends in 1usize..6,
    ) {
        for key in &keys {
            let args = vec![
                RtVal::ChannelArray((0..nbackends).collect()),
                RtVal::Val(cmd_msg(key)),
            ];
            assert_engines_agree(ROUTING_DIFFERENTIAL_SRC, "target_backend", args);
        }
    }

    /// Differential: raw channel indexing agrees between engines both when
    /// the index is valid (same send) and when it is out of range (same
    /// `channel index N out of range` error, same blamed function).
    #[test]
    fn interp_and_vm_agree_on_channel_index_errors(
        nbackends in 1usize..4,
        k in 0i64..8,
    ) {
        let args = vec![
            RtVal::ChannelArray((0..nbackends).collect()),
            RtVal::Val(cmd_msg("k")),
            RtVal::Val(Value::Int(k)),
        ];
        assert_engines_agree(ROUTING_DIFFERENTIAL_SRC, "direct", args);
    }

    /// Differential: deeply nested if/else chains (long forward-jump
    /// ladders in bytecode) pick the same arm at every depth.
    #[test]
    fn interp_and_vm_agree_on_nested_branches(depth in 1usize..9, x in -5i64..15) {
        let mut src = String::from("type cmd: record\n  key : string\n\nproc P: (cmd/cmd c)\n  c => c\n\n");
        src.push_str(&nested_if_source(depth));
        assert_engines_agree(&src, "f", vec![RtVal::Val(Value::Int(x))]);
    }

    /// Differential: division by zero raises the same base error in both
    /// engines, and both diagnostics blame `fn f` (interp with a statement
    /// index, VM with a pc).
    #[test]
    fn interp_and_vm_report_comparable_division_errors(x in -50i64..50, y in -2i64..3) {
        let src = "type cmd: record\n  key : string\n\nproc P: (cmd/cmd c)\n  c => c\n\n\
                   fun f: (x: integer, y: integer) -> (integer)\n  let d = x / y\n  d + 1\n";
        assert_engines_agree(src, "f", vec![RtVal::Val(Value::Int(x)), RtVal::Val(Value::Int(y))]);
    }
}

/// Differential: at the `i64` edges every operator overflows (or not)
/// identically in both engines, and an overflow is the same
/// `integer overflow` text blamed on the same function — `i64::MIN / -1`
/// and `i64::MIN mod -1` included, which used to panic in both.
#[test]
fn interp_and_vm_report_the_same_overflow_errors() {
    let edges = [i64::MIN, -1, 1, i64::MAX];
    for op in ["+", "-", "*", "/", "mod"] {
        let src = format!(
            "type cmd: record\n  key : string\n\nproc P: (cmd/cmd c)\n  c => c\n\n\
             fun f: (x: integer, y: integer) -> (integer)\n  let r = x {op} y\n  -r\n"
        );
        for x in edges {
            for y in edges {
                let args = vec![RtVal::Val(Value::Int(x)), RtVal::Val(Value::Int(y))];
                assert_engines_agree(&src, "f", args);
            }
        }
        if op == "/" || op == "mod" {
            let args = vec![RtVal::Val(Value::Int(i64::MIN)), RtVal::Val(Value::Int(-1))];
            let ((interp, _), (vm, _)) = run_differential(&src, "f", args);
            for error in [interp.unwrap_err(), vm.unwrap_err()] {
                let (base, location) = split_located(&error);
                assert_eq!(base, "service logic error: integer overflow");
                assert_eq!(located_function(location.unwrap()), "fn `f`");
            }
        }
    }
}

/// The codec contract: the provided borrowed-slice `parse` is `parse_bytes`
/// over a copy, so both return equal messages (fields, raw bytes, unread
/// body) and equal `consumed` — for every codec, a grammar synthesised from
/// a FLICK `type`, and HTTP with and without `body` projected; on a
/// complete frame followed by the next one, and on a proper prefix.
#[test]
fn provided_parse_agrees_with_parse_bytes_for_every_codec() {
    use flick::grammar::engine::GrammarCodec;
    use flick::grammar::http::{self, HttpCodec};
    use flick::grammar::model::{FieldKind, GrammarItem, LenExpr, UnitGrammar};
    use flick::grammar::{Message, MsgValue, Projection};

    fn wire_of(codec: &dyn WireCodec, messages: &[Message]) -> Vec<u8> {
        let mut wire = Vec::new();
        for message in messages {
            codec.serialize(message, &mut wire).unwrap();
        }
        wire
    }

    let signed = GrammarCodec::new(
        UnitGrammar::new("signed")
            .item(GrammarItem::field("delta", FieldKind::Int { width: 2 }))
            .item(GrammarItem::field("len", FieldKind::UInt { width: 1 }))
            .item(GrammarItem::variable(
                "twice",
                LenExpr::add(LenExpr::field("len"), LenExpr::field("len")),
            ))
            .item(GrammarItem::field(
                "body",
                FieldKind::Bytes {
                    length: LenExpr::field("len"),
                },
            ))
            .ser_rule("len", LenExpr::LenOf("body".into())),
    )
    .unwrap();
    // Two frames of `delta = -7` (sign-extended on parse), 3-byte body.
    let signed_wire = [0xff, 0xf9, 3, b'a', b'b', b'c'].repeat(2);

    let typed = flick::lang::compile_to_ast(
        "type cmd: record\n  opcode : integer {signed=false, size=1}\n  \
         keylen : integer {signed=false, size=2}\n  key : string {size=keylen}\n\n\
         fun touch: (c: cmd) -> (string)\n  c.key\n",
    )
    .unwrap();
    let synthesised =
        flick::compiler::grammar_gen::synthesise(typed.record("cmd").unwrap()).unwrap();
    let mut cmd = Message::new("cmd");
    cmd.set("opcode", MsgValue::UInt(12));
    cmd.set("key", MsgValue::Str("user:1".into()));
    let synthesised_wire = wire_of(&synthesised, &[cmd.clone(), cmd]);

    let memcached_codec = memcached::MemcachedCodec::new();
    let get = memcached::request(memcached::opcode::GETK, b"user:42", b"", b"");
    let set = memcached::request(memcached::opcode::SET, b"k", b"xtra", b"value");
    let memcached_wire = wire_of(&memcached_codec, &[get, set]);

    let kv_codec = hadoop::HadoopKvCodec::new();
    let kv_wire = wire_of(
        &kv_codec,
        &[hadoop::count_kv("word", 3), hadoop::kv("", "")],
    );

    let http_codec = HttpCodec::new();
    let http_wire = b"POST /up HTTP/1.1\r\nHost: h\r\nConnection: close\r\n\
                      Content-Length: 4\r\n\r\nbodyGET /next HTTP/1.1\r\n\r\n"
        .to_vec();
    let without_body = http::load_balancer_projection();
    let with_body = without_body.clone().with("body");

    type Case<'a> = (&'a str, &'a dyn WireCodec, &'a [u8], Option<&'a Projection>);
    let cases: [Case; 8] = [
        ("grammar", &signed, &signed_wire, None),
        ("grammar_gen", &synthesised, &synthesised_wire, None),
        ("memcached", &memcached_codec, &memcached_wire, None),
        (
            "memcached router",
            &memcached_codec,
            &memcached_wire,
            Some(&memcached::router_projection()),
        ),
        ("hadoop", &kv_codec, &kv_wire, None),
        ("http", &http_codec, &http_wire, None),
        ("http with body", &http_codec, &http_wire, Some(&with_body)),
        (
            "http without body",
            &http_codec,
            &http_wire,
            Some(&without_body),
        ),
    ];
    for (label, codec, wire, projection) in cases {
        // The whole stream (a frame and the next), half of it, a short
        // prefix, and (for HTTP) the head with half its body.
        for end in [wire.len(), wire.len() / 2, 20, 70].map(|end| end.min(wire.len())) {
            let slice = &wire[..end];
            let borrowed = codec.parse(slice, projection).unwrap();
            let shared = codec
                .parse_bytes(&bytes::Bytes::copy_from_slice(slice), projection)
                .unwrap();
            assert_eq!(borrowed, shared, "{label}, {end} bytes");
        }
        let ParseOutcome::Complete { consumed, .. } = codec.parse(wire, projection).unwrap() else {
            panic!("{label}: the whole stream holds a complete frame");
        };
        assert!(consumed < wire.len(), "{label}: two frames in the stream");
    }
}
