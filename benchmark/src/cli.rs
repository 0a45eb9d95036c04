//! The two entry points: the benchmark itself and its traced pass.
//!
//! `morpheus-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! sets the workload up, times untraced runs for `--seconds`, checks their
//! outputs and prints the metrics; its last stdout line is one JSON object.
//! With `--trace 1` it then starts `morpheus-benchmark-traced` — a separate
//! binary, the only one with the counting allocator — for the traced pass,
//! waits for it and prints the per-layer metrics instead.

use std::cell::RefCell;
use std::io::Write as _;
use std::process::{Command, Stdio};
use std::rc::Rc;
use std::time::Instant;

use morpheus_chat::ChatHistoryBinding;
use morpheus_testbed::{Runner, Scenario};

use crate::cpus::{allowed_cpus, pin};
use crate::measure::{first_difference, metric, Metric, RunOutcome};
use crate::probe::{run_probe, time_queue};
use crate::reference::{gauge, REFERENCE_S};
use crate::stats::{mean, median, relative_spread};
use crate::trace::{CountingAlloc, Spans, TracingBinding};
use crate::workload::{Workload, ROOM};

/// Set-ups measured before the first timed run — at least this many, and
/// more until they and their gauges fill [`SETUP_BUDGET_S`]; `setup_s` is
/// their median at the reference speed.
const MIN_SETUPS: usize = 5;

/// Wall time spent on repeated set-ups and their gauges, so a set-up of a
/// few milliseconds still gets enough samples for a steady median.
const SETUP_BUDGET_S: f64 = 1.0;

/// The spans the traced pass reports, each as a median, a tail, the tail's
/// percentile and a sample count.
const SPANS: [(&str, &str); 13] = [
    ("core.node_new_us", "us"),
    ("core.send_ns", "ns"),
    ("core.deliver_ns.data", "ns"),
    ("core.deliver_ns.control", "ns"),
    ("core.deliver_ns.context", "ns"),
    ("core.deliver_ns.repair", "ns"),
    ("core.timer_ns.data", "ns"),
    ("core.timer_ns.control", "ns"),
    ("netsim.queue_op_ns", "ns"),
    ("chat.compose_ns", "ns"),
    ("chat.deliver_ns", "ns"),
    ("chat.export_us", "us"),
    ("chat.install_us", "us"),
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let value = |flag: &str| -> Result<&str, String> {
        let at = args
            .iter()
            .position(|arg| arg == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        args.get(at + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let workload = value("--workload")?;
    let workload = Workload::from_name(workload).ok_or_else(|| {
        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        format!("unknown workload `{workload}`; one of {names:?}")
    })?;
    let number = |flag: &str| -> Result<u64, String> {
        value(flag)?
            .parse()
            .map_err(|_| format!("{flag} must be a whole number"))
    };
    let given = |flag: &str| args.iter().any(|arg| arg == flag);
    let seed = number("--seed")?;
    let seconds = if given("--seconds") {
        number("--seconds")? as f64
    } else {
        10.0
    };
    let trace = match if given("--trace") {
        value("--trace")?
    } else {
        "0"
    } {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not `{other}`")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// The benchmark's entry point; returns the process exit code.
pub fn main(args: &[String]) -> i32 {
    let args = match parse_args(args) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("morpheus-benchmark: {message}");
            return 2;
        }
    };
    let workload = args.workload;
    let scenarios: Vec<Scenario> = workload
        .scenario_seeds()
        .into_iter()
        .map(|seed| workload.scenario(seed))
        .collect();
    let first = workload.first_scenario(args.seed);
    let scenario = &scenarios[first];
    eprintln!(
        "workload {} (seed {}, {} scenario seeds, first {}): {} nodes, {} senders x {} messages, {} ms simulated",
        workload.name(),
        args.seed,
        scenarios.len(),
        scenario.seed,
        scenario.device_count(),
        scenario.workload.senders.len(),
        scenario.workload.messages_per_sender,
        scenario.end_time_ms()
    );

    // Set-up: build the scenario and the chat binding, and boot the whole
    // deployment to simulated time zero (nodes, stacks, the first flush, the
    // workload's sends on the event queue). Like a timed run, each set-up is
    // gauged right after, on its processor, and counted at the reference
    // speed. Every set-up and timed run is pinned to the next allowed
    // processor in turn (see `crate::cpus` for why).
    let processors = allowed_cpus();
    let pin_next = |turn: usize| {
        if !processors.is_empty() {
            pin(&processors[turn % processors.len()..][..1]);
        }
    };
    let mut setup_walls: Vec<f64> = Vec::new();
    let mut setups: Vec<f64> = Vec::new();
    let setting_up = Instant::now();
    while setups.len() < MIN_SETUPS || setting_up.elapsed().as_secs_f64() < SETUP_BUDGET_S {
        pin_next(setups.len());
        let started = Instant::now();
        let scenario = workload.scenario(scenario.seed);
        let mut binding = ChatHistoryBinding::new(ROOM);
        let boot = Runner { max_events: 1 }.run_with_binding(&scenario, &mut binding);
        std::hint::black_box(boot);
        let wall = started.elapsed().as_secs_f64();
        setup_walls.push(wall);
        setups.push(wall * REFERENCE_S / gauge(wall));
    }

    // Timed runs: the first scenario twice (the determinism gate's repeat),
    // then every other one, then round again while another turn of median
    // length still fits in `--seconds`. A turn is one run, the checks of its
    // outputs and two gauges of the processor's speed, right before and right
    // after the run on the same processor (see `crate::reference`).
    let order = |run: usize| (first + run.saturating_sub(1)) % scenarios.len();
    let mut walls = Vec::new();
    let mut gauges = Vec::new();
    let mut turns = Vec::new();
    let mut cpus = Vec::new();
    let mut violations: Vec<String> = Vec::new();
    let mut attempted = 0;
    let mut failed = 0;
    let mut firsts: Vec<Option<(RunOutcome, Vec<Metric>)>> = vec![None; scenarios.len()];
    let measuring = Instant::now();
    while walls.len() <= scenarios.len()
        || measuring.elapsed().as_secs_f64() + median(&turns) <= args.seconds
    {
        let turn = Instant::now();
        let index = order(walls.len());
        let scenario = &scenarios[index];
        pin_next(walls.len());
        let mut binding = ChatHistoryBinding::new(ROOM);
        let gauge_before = gauge(median(&walls));
        let cpu_before = cpu_seconds();
        let started = Instant::now();
        let report = Runner::new().run_with_binding(scenario, &mut binding);
        let wall = started.elapsed().as_secs_f64();
        let cpu = cpu_seconds() - cpu_before;
        let gauge_after = gauge(wall);
        let reference = (gauge_before + gauge_after) / 2.0;
        walls.push(wall);
        gauges.push(reference);
        cpus.push(cpu);
        let outcome = RunOutcome::new(scenario, report, &binding);
        attempted += outcome.attempted();
        failed += outcome.failed();
        let deterministic = outcome.deterministic(scenario);
        eprintln!(
            "  run {:>2} (scenario seed {:>4}): {:.4} s wall, {:.4} s cpu ({:.0}% of wall), {} events; reference task {:.4} s before, {:.4} s after",
            walls.len(),
            scenario.seed,
            wall,
            cpu,
            100.0 * cpu / wall,
            outcome.report.events_processed,
            gauge_before,
            gauge_after
        );
        match &firsts[index] {
            None => {
                violations.extend(
                    outcome
                        .violations(workload, scenario)
                        .into_iter()
                        .map(|violation| format!("scenario seed {}: {violation}", scenario.seed)),
                );
                firsts[index] = Some((outcome, deterministic));
            }
            Some((reference, expected)) => {
                let difference = first_difference(expected, &deterministic).or_else(|| {
                    (reference.report != outcome.report).then(|| "run_report".to_string())
                });
                if let Some(difference) = difference {
                    violations.push(format!(
                        "scenario seed {}: nondeterministic across repeats: {difference}",
                        scenario.seed
                    ));
                }
            }
        }
        turns.push(turn.elapsed().as_secs_f64());
    }
    if !processors.is_empty() {
        pin(&processors);
    }
    let firsts: Vec<(RunOutcome, Vec<Metric>)> = firsts.into_iter().flatten().collect();
    // `run_s`: each run's wall time at the reference speed, the median over
    // the runs.
    let paced: Vec<f64> = walls
        .iter()
        .zip(&gauges)
        .map(|(wall, reference)| wall * REFERENCE_S / reference)
        .collect();
    let run_s = median(&paced);
    let wall_s = median(&walls);
    eprintln!(
        "  {} timed runs: median {:.4} s wall (spread {:.3}), {:.4} s at reference speed (spread {:.3})",
        walls.len(),
        wall_s,
        relative_spread(&walls).unwrap_or(0.0),
        run_s,
        relative_spread(&paced).unwrap_or(0.0),
    );
    eprintln!(
        "  {} set-ups: median {:.5} s wall, {:.5} s at reference speed",
        setups.len(),
        median(&setup_walls),
        median(&setups)
    );
    let (outcome, deterministic) = &firsts[first];

    let metrics = if args.trace {
        match traced_pass(&args, deterministic) {
            Ok((mut layer, traced_violations)) => {
                violations.extend(traced_violations);
                let events = metric(deterministic, "testbed.events");
                let traced_run_s = metric(&layer, "trace.run_s");
                let cpu_s = median(&cpus);
                layer.extend([
                    Metric::new("testbed.events_per_s", events / wall_s, "1/s"),
                    Metric::new("proc.wall_s", wall_s, "s"),
                    Metric::new("proc.reference_s", median(&gauges), "s"),
                    Metric::new("proc.cpu_s", cpu_s, "s"),
                    Metric::new("proc.cpu_wall_ratio", cpu_s / wall_s, "ratio"),
                    Metric::new("trace.overhead_s", traced_run_s - wall_s, "s"),
                ]);
                layer.extend(outcome.layer_counters());
                layer
            }
            Err(message) => {
                violations.push(format!("traced pass failed: {message}"));
                Vec::new()
            }
        }
    } else {
        let mut metrics = vec![
            Metric::new("setup_s", median(&setups), "s"),
            Metric::new("run_s", run_s, "s"),
            Metric::new("peak_rss_mb", peak_rss_mb(), "MB"),
        ];
        // The simulated figures, averaged over the scenario seeds.
        let per_seed: Vec<Vec<Metric>> = firsts
            .iter()
            .zip(&scenarios)
            .map(|((outcome, _), scenario)| outcome.end_to_end(scenario))
            .collect();
        metrics.extend(per_seed[0].iter().map(|template| {
            let values: Vec<f64> = per_seed
                .iter()
                .map(|metrics| metric(metrics, &template.name))
                .collect();
            eprintln!("  {:<32} per scenario seed {values:?}", template.name);
            Metric::new(template.name.clone(), mean(&values), template.unit.clone())
        }));
        metrics
    };

    for metric in &metrics {
        eprintln!(
            "  {:<32} {:>16} {}",
            metric.name,
            format_value(metric.value),
            metric.unit
        );
    }
    for violation in &violations {
        eprintln!("  VIOLATION: {violation}");
    }
    let correct = violations.is_empty() && failed == 0;
    println!("{}", result_json(correct, attempted, failed, &metrics));
    let _ = std::io::stdout().flush();
    i32::from(!correct)
}

/// Runs the traced binary next to this one and reads its metrics back. The
/// traced run's deterministic metrics must equal the untraced ones.
fn traced_pass(args: &Args, untraced: &[Metric]) -> Result<(Vec<Metric>, Vec<String>), String> {
    let binary = std::env::current_exe()
        .map_err(|error| error.to_string())?
        .with_file_name("morpheus-benchmark-traced");
    let output = Command::new(&binary)
        .args([
            "--workload",
            args.workload.name(),
            "--seed",
            &args.seed.to_string(),
        ])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|error| format!("{}: {error}", binary.display()))?;
    if !output.status.success() {
        return Err(format!(
            "{} exited with {}",
            binary.display(),
            output.status
        ));
    }
    let mut layer = Vec::new();
    let mut traced = Vec::new();
    let mut violations = Vec::new();
    for line in String::from_utf8_lossy(&output.stdout).lines() {
        let fields: Vec<&str> = line.split('\t').collect();
        match fields.as_slice() {
            ["metric", name, value, unit] => layer.push(Metric::new(
                *name,
                value
                    .parse()
                    .map_err(|_| format!("bad value in `{line}`"))?,
                *unit,
            )),
            ["det", name, value] => traced.push(Metric::new(
                *name,
                value
                    .parse()
                    .map_err(|_| format!("bad value in `{line}`"))?,
                "",
            )),
            ["violation", text] => violations.push(format!("traced run: {text}")),
            _ => return Err(format!("unexpected line `{line}`")),
        }
    }
    if let Some(difference) = first_difference(untraced, &traced) {
        violations.push(format!("traced and untraced runs differ: {difference}"));
    }
    Ok((layer, violations))
}

/// The traced pass: one traced run of the workload, then the probe nodes and
/// the event-queue timing. Prints `metric`, `det` and `violation` lines.
pub fn traced_main(args: &[String], alloc: &CountingAlloc) -> i32 {
    let args = match parse_args(args) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("morpheus-benchmark-traced: {message}");
            return 2;
        }
    };
    let workload = args.workload;
    let scenario = workload.scenario(workload.scenario_seeds()[workload.first_scenario(args.seed)]);
    let spans = Rc::new(RefCell::new(Spans::default()));

    let mut binding = TracingBinding::new(ChatHistoryBinding::new(ROOM), spans.clone());
    let (allocs_before, bytes_before) = alloc.totals();
    let started = Instant::now();
    let report = Runner::new().run_with_binding(&scenario, &mut binding);
    let traced_run_s = started.elapsed().as_secs_f64();
    let (allocs_after, bytes_after) = alloc.totals();
    let outcome = RunOutcome::new(&scenario, report, &binding.inner);
    let events = outcome.report.events_processed.max(1) as f64;

    let probe = run_probe(workload, &scenario, &spans);
    time_queue(outcome.report.max_queue_depth, args.seed, &spans);
    eprintln!(
        "  traced pass: run {:.4} s; probe group of {} ran {} simulated ms ({} reconfigurations, {} rejected packets)",
        traced_run_s,
        scenario.device_count(),
        probe.sim_ms,
        probe.reconfigurations,
        probe.rejected
    );

    let mut out = String::new();
    let mut emit = |name: &str, value: f64, unit: &str| {
        out.push_str(&format!("metric\t{name}\t{value}\t{unit}\n"));
    };
    emit("trace.run_s", traced_run_s, "s");
    emit(
        "proc.allocs_per_event",
        (allocs_after - allocs_before) as f64 / events,
        "allocs/event",
    );
    emit(
        "proc.alloc_bytes_per_event",
        (bytes_after - bytes_before) as f64 / events,
        "B/event",
    );
    let spans = spans.borrow();
    for (name, unit) in SPANS {
        let summary = spans.summary(name);
        emit(name, summary.median, unit);
        emit(&format!("{name}.tail"), summary.tail, unit);
        emit(&format!("{name}.tail_pct"), summary.tail_pct, "%");
        emit(&format!("{name}.n"), summary.count as f64, "count");
    }
    for metric in outcome.deterministic(&scenario) {
        out.push_str(&format!("det\t{}\t{}\n", metric.name, metric.value));
    }
    for violation in outcome.violations(workload, &scenario) {
        out.push_str(&format!("violation\t{violation}\n"));
    }
    print!("{out}");
    let _ = std::io::stdout().flush();
    0
}

/// The result line: `correct`, `attempted`, `failed` and the metrics.
fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|metric| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                metric.name,
                format_value(metric.value),
                metric.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        body.join(", ")
    )
}

/// A value as JSON: every digit Rust needs to round-trip it; a non-finite
/// value (which JSON cannot carry) as `null`.
fn format_value(value: f64) -> String {
    if value.is_finite() {
        format!("{value:?}")
    } else {
        "null".to_string()
    }
}

/// CPU time this process has spent on a processor, in seconds (the
/// scheduler's nanosecond count; the benchmark is single-threaded).
fn cpu_seconds() -> f64 {
    std::fs::read_to_string("/proc/self/schedstat")
        .ok()
        .and_then(|text| text.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |ns| ns / 1e9)
}

/// The process's peak resident set (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|line| line.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
