//! `flick-benchmark`: the repository's benchmark. See `README.md`.
//!
//! One executable, three roles:
//!
//! * **single workload** (`--workload W --seed N --seconds S --trace 0|1`,
//!   the shape `BENCHMARK.json`'s driver calls): measures W for S seconds
//!   and prints one JSON result object as the last line of stdout;
//! * **full run** (no `--workload`): R interleaved rounds of all four
//!   workloads, one traced round each and the probes, printed as tables;
//!   `--repeat-check` does it twice and compares, `--smoke` does it tiny;
//! * **child** (`--child …`, internal): one round in a fresh process, so
//!   every round pays its own set-up and has its own peak RSS.

mod backend;
mod hostprobe;
mod inputs;
mod load;
mod metrics;
mod probes;
mod procfs;
mod sut;
mod util;
mod wire;

use load::{RoundCfg, Workload};
use metrics::{Better, END_TO_END, PER_LAYER};
use std::collections::BTreeMap;
use std::io::Write as _;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, SystemTime, UNIX_EPOCH};
use util::{median, quartiles};

/// Seconds of unrecorded load before each measured interval.
const WARMUP_S: f64 = 1.0;
/// Measured seconds per round: a run of `--seconds S` is `S / 5` rounds.
const ROUND_S: f64 = 5.0;
/// Rounds of a full run.
const FULL_ROUNDS: usize = 6;

type RoundMap = BTreeMap<String, f64>;

#[derive(Default)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    repeat_check: bool,
    smoke: bool,
    trace_out: Option<String>,
    child: Option<String>,
    warmup: Option<f64>,
    /// Unix nanoseconds at which the parent spawned this child.
    spawned_at: Option<u64>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        seed: 1,
        ..Args::default()
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        let number = |v: String| {
            v.parse::<f64>()
                .map_err(|_| format!("{flag}: bad number {v}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => {
                let v = value()?;
                args.seed = v.parse().map_err(|_| format!("--seed: bad number {v}"))?;
            }
            "--seconds" => args.seconds = Some(number(value()?)?),
            "--warmup" => args.warmup = Some(number(value()?)?),
            "--spawned-at" => args.spawned_at = value()?.parse().ok(),
            "--trace" => args.trace = value()? == "1",
            "--trace-out" => args.trace_out = Some(value()?),
            "--child" => args.child = Some(value()?),
            "--repeat-check" => args.repeat_check = true,
            "--smoke" => args.smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let entered = SystemTime::now();
    let result = parse_args().and_then(|args| match args.child.as_deref() {
        Some(role) => child(role, &args, entered),
        None => match &args.workload {
            Some(name) => single(name, &args),
            None => full(&args),
        },
    });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("flick-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}

// -------------------------------------------------------------------- child

fn child(role: &str, args: &Args, entered: SystemTime) -> Result<(), String> {
    let out = if role == "probes" {
        probes::run_probes(args.seed)?
    } else {
        let name = args.workload.as_deref().ok_or("--child needs --workload")?;
        load::run_round(&RoundCfg {
            workload: Workload::from_name(name).ok_or(format!("unknown workload {name}"))?,
            seed: args.seed,
            seconds: args.seconds.unwrap_or(ROUND_S),
            warmup: args.warmup.unwrap_or(WARMUP_S),
            trace: args.trace,
            trace_out: args.trace_out.clone(),
            process_start: args
                .spawned_at
                .map_or(entered, |ns| UNIX_EPOCH + Duration::from_nanos(ns)),
        })?
    };
    let mut stdout = std::io::stdout().lock();
    for (name, value) in out {
        writeln!(stdout, "R {name} {value}").map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// How every round of a run is shaped.
struct Shape {
    seed: u64,
    seconds: f64,
    warmup: f64,
    trace_out: Option<String>,
}

/// Runs one child and collects its `R name value` lines. The child waits for
/// every thread it starts; this waits for the child.
fn spawn_child(
    role: &str,
    workload: Option<Workload>,
    shape: &Shape,
    trace: bool,
    tag: &str,
) -> Result<RoundMap, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let spawned_at = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_err(|e| format!("clock before 1970: {e}"))?
        .as_nanos();
    let mut command = Command::new(exe);
    command
        .args(["--spawned-at", &spawned_at.to_string()])
        .args(["--child", role, "--seed", &shape.seed.to_string()])
        .args(["--seconds", &shape.seconds.to_string()])
        .args(["--warmup", &shape.warmup.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if let Some(workload) = workload {
        command.args(["--workload", workload.name()]);
        if let (true, Some(prefix)) = (trace, &shape.trace_out) {
            command.args([
                "--trace-out",
                &format!("{prefix}{}-{tag}.jsonl", workload.name()),
            ]);
        }
    }
    let output = command
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("starting a child: {e}"))?;
    if !output.status.success() {
        return Err(format!("child `{role}` failed: {}", output.status));
    }
    Ok(String::from_utf8_lossy(&output.stdout)
        .lines()
        .filter_map(|line| {
            let mut parts = line.strip_prefix("R ")?.split(' ');
            Some((parts.next()?.to_string(), parts.next()?.parse().ok()?))
        })
        .collect())
}

// --------------------------------------------------------------- aggregation

/// The rounds one workload ran in one set.
#[derive(Default)]
struct Rounds {
    measured: Vec<RoundMap>,
    traced: Vec<RoundMap>,
}

impl Rounds {
    fn values(rounds: &[RoundMap], name: &str) -> Vec<f64> {
        rounds.iter().filter_map(|r| r.get(name).copied()).collect()
    }

    /// Sum over every round run, traced ones included: a failed op counts
    /// wherever it happened.
    fn total(&self, name: &str) -> f64 {
        Rounds::sum(&self.measured, name) + Rounds::sum(&self.traced, name)
    }

    fn sum(rounds: &[RoundMap], name: &str) -> f64 {
        Rounds::values(rounds, name).iter().sum()
    }

    /// Per-round values of an end-to-end metric (untraced rounds only).
    fn end_to_end_values(&self, name: &str) -> Vec<f64> {
        match name {
            "ok_share" => self
                .measured
                .iter()
                .map(|r| 1.0 - r["failed"] / r["attempted"].max(1.0))
                .collect(),
            _ => Rounds::values(&self.measured, name),
        }
    }

    fn end_to_end(&self, name: &str) -> f64 {
        match name {
            // Pooled over the untraced rounds, not a median of them: one bad
            // round must show.
            "ok_share" => {
                let sum = |name| Rounds::sum(&self.measured, name);
                1.0 - sum("failed") / sum("attempted").max(1.0)
            }
            _ => median(&self.end_to_end_values(name)),
        }
    }

    /// The per-layer ledger: counters from every round (tracing does not
    /// touch them), spans from the traced rounds, single-layer costs from
    /// the probes, and what is left of `lb_small`'s p50 once they are
    /// subtracted.
    fn per_layer(&self, workload: Workload, probes: &RoundMap) -> RoundMap {
        let every: Vec<RoundMap> = self.measured.iter().chain(&self.traced).cloned().collect();
        let mut layer = RoundMap::new();
        for (name, _, _) in &PER_LAYER {
            let value = if let Some(probe) = probes.get(*name) {
                *probe
            } else if name.starts_with("trace.") {
                median(&Rounds::values(&self.traced, name))
            } else {
                median(&Rounds::values(&every, name))
            };
            layer.insert(name.to_string(), value);
        }
        let rate = |rounds: &[RoundMap]| median(&Rounds::values(rounds, "ops_per_s"));
        if !self.traced.is_empty() && rate(&self.measured) > 0.0 {
            layer.insert(
                "trace.overhead_share".into(),
                1.0 - rate(&self.traced) / rate(&self.measured),
            );
        }
        if workload == Workload::LbSmall {
            let get = |name: &str| layer.get(name).copied().unwrap_or(0.0);
            let msgs = get("grammar.msgs_in_per_op");
            let parse_ns =
                (get("grammar.http_parse_req_ns") + get("grammar.http_parse_resp_ns")) / 2.0;
            let explained_us = get("trace.backend_us")
                + (msgs * (parse_ns + get("grammar.http_serialize_ns"))
                    + get("compiler.vm_route_ns"))
                    / 1e3
                + get("runtime.task_runs_per_op") * get("runtime.sched_wake_us");
            // Probe costs are as measured, so the p50 they are taken from
            // is the raw one, not the host-speed-corrected end-to-end value.
            layer.insert(
                "ledger.unexplained_us".into(),
                get("load.raw_p50_us") - explained_us,
            );
        }
        layer
    }
}

/// One set: `rounds` rounds of every workload in `workloads`, interleaved
/// (`a, b, c, d, a, b, …`) so that drift of the host hits all alike. Round
/// `i` is traced when `traced(i)`; end-to-end numbers never come from those.
fn run_set(
    workloads: &[Workload],
    rounds: usize,
    traced: impl Fn(usize) -> bool,
    shape: &Shape,
) -> Result<BTreeMap<&'static str, Rounds>, String> {
    let mut set: BTreeMap<&'static str, Rounds> = BTreeMap::new();
    for round in 0..rounds {
        for workload in workloads {
            let trace = traced(round);
            eprintln!(
                "  round {}/{rounds} {}{}",
                round + 1,
                workload.name(),
                if trace { " (traced)" } else { "" }
            );
            let result = spawn_child("round", Some(*workload), shape, trace, &format!("r{round}"))?;
            let entry = set.entry(workload.name()).or_default();
            if trace {
                entry.traced.push(result);
            } else {
                entry.measured.push(result);
            }
        }
    }
    Ok(set)
}

// ------------------------------------------------------------ single workload

fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".into()
    }
}

fn single(name: &str, args: &Args) -> Result<(), String> {
    let workload = Workload::from_name(name).ok_or(format!("unknown workload {name}"))?;
    let seconds = args.seconds.unwrap_or(4.0 * ROUND_S);
    // A traced run needs a round of each kind to tell the overhead.
    let min_rounds = if args.trace { 2 } else { 1 };
    let rounds = ((seconds / ROUND_S).round() as usize).max(min_rounds);
    let shape = Shape {
        seed: args.seed,
        seconds: seconds / rounds as f64,
        warmup: args.warmup.unwrap_or(WARMUP_S),
        trace_out: args.trace_out.clone(),
    };
    let trace = args.trace;
    let set = run_set(&[workload], rounds, |round| trace && round % 2 == 1, &shape)?;
    let rounds = &set[workload.name()];
    let metrics: Vec<(&str, f64, &str)> = if trace {
        let probes = spawn_child("probes", None, &shape, false, "")?;
        let layer = rounds.per_layer(workload, &probes);
        PER_LAYER
            .iter()
            .map(|(name, unit, _)| (*name, layer[*name], *unit))
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|m| (m.name, rounds.end_to_end(m.name), m.unit))
            .collect()
    };
    let (attempted, failed) = (rounds.total("attempted"), rounds.total("failed"));
    // For the reader who wants to undo the host-speed correction.
    let raw = |name| median(&Rounds::values(&rounds.measured, name));
    eprintln!(
        "  {name}: host_slowdown {:.4}, raw ops_per_s {:.4}, raw p50_us {:.4}",
        raw("load.host_slowdown"),
        raw("load.raw_ops_per_s"),
        raw("load.raw_p50_us")
    );
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                r#""{name}": {{"value": {}, "unit": "{unit}"}}"#,
                json_number(*value)
            )
        })
        .collect();
    println!(
        r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {{{}}}}}"#,
        failed == 0.0,
        attempted as u64,
        failed as u64,
        body.join(", ")
    );
    Ok(())
}

// ------------------------------------------------------------------ full run

struct FullResult {
    set: BTreeMap<&'static str, Rounds>,
    probes: RoundMap,
}

fn full_once(args: &Args, label: &str) -> Result<FullResult, String> {
    let (rounds, seconds, warmup) = if args.smoke {
        (1, 1.0, 0.3)
    } else {
        (FULL_ROUNDS, ROUND_S, WARMUP_S)
    };
    let shape = Shape {
        seed: args.seed,
        seconds: args.seconds.unwrap_or(seconds),
        warmup: args.warmup.unwrap_or(warmup),
        trace_out: args.trace_out.clone(),
    };
    eprintln!(
        "{label}: {rounds} interleaved rounds of {} s, then one traced round each",
        shape.seconds
    );
    // The extra, last round of the set is the traced one.
    let set = run_set(&Workload::ALL, rounds + 1, |round| round == rounds, &shape)?;
    eprintln!("  probes");
    let probes = spawn_child("probes", None, &shape, false, "")?;
    Ok(FullResult { set, probes })
}

fn print_full(result: &FullResult) {
    println!("\nEnd-to-end (median across untraced rounds; [first, third quartile]):");
    println!(
        "{:<20} {:>7} {:>26} {:>26} {:>26} {:>26}",
        "metric", "unit", "lb_small", "lb_bulk", "lb_churn", "hadoop_agg"
    );
    for m in &END_TO_END {
        print!("{:<20} {:>7}", m.name, m.unit);
        for workload in Workload::ALL {
            let rounds = &result.set[workload.name()];
            let (q1, q3) = quartiles(&rounds.end_to_end_values(m.name));
            print!(
                " {:>26}",
                format!("{:.4} [{:.4}, {:.4}]", rounds.end_to_end(m.name), q1, q3)
            );
        }
        println!();
    }
    println!("\nPer layer (counters: median across rounds; trace.*: the traced round; probes: one process):");
    println!(
        "{:<34} {:>6} {:>12} {:>12} {:>12} {:>12}",
        "metric", "unit", "lb_small", "lb_bulk", "lb_churn", "hadoop_agg"
    );
    let layers: Vec<RoundMap> = Workload::ALL
        .iter()
        .map(|w| result.set[w.name()].per_layer(*w, &result.probes))
        .collect();
    for (name, unit, _) in &PER_LAYER {
        print!("{name:<34} {unit:>6}");
        for layer in &layers {
            print!(" {:>12.3}", layer[*name]);
        }
        println!();
    }
    let small = &result.set["lb_small"];
    if let Some(traced) = small.traced.first() {
        let legs = traced["trace.request_leg_us"]
            + traced["trace.backend_us"]
            + traced["trace.response_leg_us"];
        println!(
            "\nlb_small traced round: request_leg + backend + response_leg = {legs:.1} us; that round's raw p50 = {:.1} us ({:+.1} %)",
            traced["load.raw_p50_us"],
            (legs / traced["load.raw_p50_us"] - 1.0) * 100.0
        );
    }
    for workload in Workload::ALL {
        let rounds = &result.set[workload.name()];
        println!(
            "{}: attempted {} failed {}",
            workload.name(),
            rounds.total("attempted"),
            rounds.total("failed")
        );
    }
}

/// Relative change of `second` against `first` in the direction that is
/// worse for the metric (negative: it got better).
fn worse_by(better: Better, first: f64, second: f64) -> f64 {
    let change = (second - first) / first.abs().max(f64::MIN_POSITIVE);
    match better {
        Better::Lower => change,
        Better::Higher => -change,
    }
}

fn print_repeat_check(first: &FullResult, second: &FullResult) {
    println!("\nRepeat check: two sets of the same code, back to back.");
    println!(
        "{:<11} {:<18} {:>12} {:>12} {:>8} {:>6} {:>8} {:>8}  verdict",
        "workload", "metric", "set 1", "set 2", "worse%", "bound%", "iqr1%", "iqr2%"
    );
    for workload in Workload::ALL {
        for m in &END_TO_END {
            let (a, b) = (&first.set[workload.name()], &second.set[workload.name()]);
            let (ma, mb) = (a.end_to_end(m.name), b.end_to_end(m.name));
            let spread = |rounds: &Rounds| {
                let (q1, q3) = quartiles(&rounds.end_to_end_values(m.name));
                (q3 - q1)
                    / median(&rounds.end_to_end_values(m.name))
                        .abs()
                        .max(f64::MIN_POSITIVE)
            };
            let worse = worse_by(m.better, ma, mb);
            // Identical code cannot regress: a difference beyond the bound
            // is noise the bound does not yet cover, hence "unresolved".
            let verdict = if worse.abs() <= m.bound {
                "PASS"
            } else {
                "UNRESOLVED"
            };
            println!(
                "{:<11} {:<18} {:>12.4} {:>12.4} {:>8.2} {:>6.1} {:>8.2} {:>8.2}  {verdict}",
                workload.name(),
                m.name,
                ma,
                mb,
                worse * 100.0,
                m.bound * 100.0,
                spread(a) * 100.0,
                spread(b) * 100.0
            );
        }
    }
    let counters = [
        "runtime.task_runs_per_op",
        "net.read_calls_per_op",
        "net.write_calls_per_op",
    ];
    for (label, result) in [("set 1", first), ("set 2", second)] {
        let layer = result.set["lb_small"].per_layer(Workload::LbSmall, &result.probes);
        let line: Vec<String> = counters
            .iter()
            .map(|c| format!("{c} {:.2}", layer[*c]))
            .collect();
        println!("lb_small {label}: {}", line.join(", "));
    }
}

fn full(args: &Args) -> Result<(), String> {
    let first = full_once(args, "set 1")?;
    print_full(&first);
    if args.repeat_check {
        let second = full_once(args, "set 2")?;
        print_full(&second);
        print_repeat_check(&first, &second);
    }
    let idle = Workload::ALL
        .iter()
        .find(|w| first.set[w.name()].total("attempted") == first.set[w.name()].total("failed"));
    match idle {
        Some(workload) => Err(format!("{} completed no op", workload.name())),
        None => Ok(()),
    }
}
