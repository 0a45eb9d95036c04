//! Quick-mode control-plane scale measurement (membership scale).
//!
//! Runs the `large_group` scenario family — n fixed nodes whose adaptation
//! policy switches the data stack to epidemic multicast once the context
//! converges — and emits machine-readable results to
//! `BENCH_membership_scale.json`. The headline comparison is the control
//! plane at n = 100:
//!
//! * **baseline** (`control_fanout = 0`): all-to-all heartbeat multicast and
//!   full context-snapshot floods — `n · (n − 1)` control messages per
//!   heartbeat interval;
//! * **gossip** (`control_fanout = 3`): liveness-digest gossip and digest
//!   anti-entropy context dissemination — `n · fanout` messages per interval.
//!
//! The bench asserts the gossip plane cuts control messages per interval by
//! at least 10× at n = 100, that context dissemination still converges under
//! 10%/30% control loss *without* the legacy periodic full republish, that
//! no chat message is lost across the large-group reconfiguration, and that
//! the 250-node case finishes within a generous wall-clock budget (a CI trip
//! wire for O(n²) regressions).
//!
//! Every case also records the control and context bytes one node puts on
//! the wire per heartbeat interval. Point `BENCH_BEFORE` at a results file
//! written by an earlier build to carry its figures into the new file as
//! `before`, next to the fresh ones: the bytes (converted with the current
//! run's n and interval count, so only cases of the same name compare),
//! the wall time and the simulator throughput in events per second.
//!
//! Run with `cargo run --release -p morpheus-bench --bin
//! membership_scale_quick [output-path]`.

#![forbid(unsafe_code)]

use morpheus_testbed::{RunReport, Runner, Scenario, WireBytes};

struct CaseResult {
    name: String,
    n: usize,
    control_fanout: usize,
    control_loss: f64,
    /// Control-class (heartbeat/command plane) sends per heartbeat
    /// interval, across all nodes — what the gossip failure detector cuts
    /// from n·(n−1) to n·fanout.
    control_msgs_per_interval: f64,
    /// Control + context sends per heartbeat interval (the whole control
    /// plane, boot transient included).
    combined_msgs_per_interval: f64,
    control_sent_total: u64,
    context_sent_total: u64,
    /// Per-component bytes-on-wire breakdown across the whole run.
    wire: WireBytes,
    /// Heartbeat intervals the run lasted.
    intervals: f64,
    context_converged_ms: Option<u64>,
    reconfigurations: u64,
    rounds: usize,
    messages_lost: u64,
    deliveries: u64,
    events_processed: u64,
    wall_ms: f64,
    events_per_sec: f64,
}

fn run_case(name: &str, scenario: &Scenario) -> CaseResult {
    let started = std::time::Instant::now();
    let report: RunReport = Runner::new().run(scenario);
    let wall_ms = started.elapsed().as_secs_f64() * 1000.0;

    let control_sent_total: u64 = report.nodes.iter().map(|node| node.sent_control).sum();
    let context_sent_total: u64 = report.nodes.iter().map(|node| node.sent_context).sum();
    let intervals = (report.duration_ms as f64 / scenario.hb_interval_ms as f64).max(1.0);
    CaseResult {
        name: name.to_string(),
        n: scenario.device_count(),
        control_fanout: scenario.control_fanout,
        control_loss: scenario.control_loss,
        control_msgs_per_interval: control_sent_total as f64 / intervals,
        combined_msgs_per_interval: (control_sent_total + context_sent_total) as f64 / intervals,
        control_sent_total,
        context_sent_total,
        wire: report.wire_bytes_totals(),
        intervals,
        context_converged_ms: report.context_convergence_ms(),
        reconfigurations: report.total_reconfigurations(),
        rounds: report.completed_rounds().len(),
        messages_lost: report.messages_lost,
        deliveries: report.total_app_deliveries(),
        events_processed: report.events_processed,
        wall_ms,
        events_per_sec: report.events_processed as f64 / (wall_ms / 1000.0).max(1e-9),
    }
}

impl CaseResult {
    /// Converts run-total bytes into bytes per node per heartbeat interval.
    fn per_node_interval(&self, bytes: u64) -> f64 {
        bytes as f64 / self.n.max(1) as f64 / self.intervals
    }
}

/// One case of an earlier results file.
struct BeforeCase {
    name: String,
    /// Control and context wire-byte totals.
    control: u64,
    context: u64,
    wall_ms: f64,
    events_per_sec: f64,
}

/// Every case of an earlier results file, plus the commit it ran on. Reads
/// the one-line-per-case layout this binary writes; lines it does not
/// recognise are skipped.
struct Before {
    commit: String,
    cases: Vec<BeforeCase>,
}

fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let start = line.find(&format!("\"{key}\": "))? + key.len() + 4;
    let rest = &line[start..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(rest[..end].trim().trim_matches('"'))
}

fn read_before(path: &str) -> Before {
    let text = std::fs::read_to_string(path).expect("read BENCH_BEFORE results");
    let mut before = Before {
        commit: "unknown".to_string(),
        cases: Vec::new(),
    };
    for line in text.lines() {
        if let Some(commit) = field(line, "commit") {
            before.commit = commit.to_string();
        }
        let (Some(case), Some(wire)) = (field(line, "case"), line.find("\"wire_bytes\"")) else {
            continue;
        };
        // A case's own figures precede any `before` block on its line, so
        // the first match of each key is the case's.
        let bytes = |key| field(&line[wire..], key).and_then(|value| value.parse().ok());
        let number = |key| field(line, key).and_then(|value| value.parse().ok());
        if let (Some(control), Some(context), Some(wall_ms), Some(events_per_sec)) = (
            bytes("control"),
            bytes("context"),
            number("wall_ms"),
            number("events_per_sec"),
        ) {
            before.cases.push(BeforeCase {
                name: case.to_string(),
                control,
                context,
                wall_ms,
                events_per_sec,
            });
        }
    }
    before
}

/// The earlier file's figures for this case, if `BENCH_BEFORE` named a file
/// that has it.
fn before_of<'a>(before: &'a Option<Before>, result: &CaseResult) -> Option<&'a BeforeCase> {
    before
        .as_ref()?
        .cases
        .iter()
        .find(|case| case.name == result.name)
}

fn json_option(value: Option<u64>) -> String {
    value.map_or_else(|| "null".to_string(), |v| v.to_string())
}

fn main() {
    let output = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_membership_scale.json".into());
    // Generous wall-clock budget for the 250-node case: CI fails the job if
    // an O(n²) regression blows through it.
    let wall_budget_ms: f64 = std::env::var("BENCH_WALL_BUDGET_MS")
        .ok()
        .and_then(|raw| raw.parse().ok())
        .unwrap_or(60_000.0);
    let before = std::env::var("BENCH_BEFORE")
        .ok()
        .map(|path| read_before(&path));

    eprintln!("membership-scale quick mode (wall budget for n=250: {wall_budget_ms:.0} ms)");
    eprintln!(
        "{:>24}  {:>5}  {:>6}  {:>5}  {:>12}  {:>11}  {:>7}  {:>9}  {:>9}  {:>10}",
        "case",
        "n",
        "fanout",
        "loss",
        "ctrl/intvl",
        "converge-ms",
        "rounds",
        "data-lost",
        "wall-ms",
        "events/s"
    );

    let mut results = Vec::new();

    // The O(n²) baseline: all-to-all heartbeats + full context floods.
    results.push(run_case(
        "baseline-alltoall-n100",
        &Scenario::large_group(100).with_control_fanout(0),
    ));

    // The gossip plane across the membership scale.
    for n in [10usize, 50, 100, 250] {
        results.push(run_case(&format!("gossip-n{n}"), &Scenario::large_group(n)));
    }

    // Context convergence under control-plane loss, with digest anti-entropy
    // as the only repair mechanism (no periodic full republish in gossip
    // mode).
    for loss in [0.1f64, 0.3] {
        let name = format!("gossip-n100-loss{}pct", (loss * 100.0).round() as u64);
        results.push(run_case(
            &name,
            &Scenario::large_group(100).with_control_loss(loss),
        ));
    }

    for result in &results {
        eprintln!(
            "{:>24}  {:>5}  {:>6}  {:>5.2}  {:>12.1}  {:>11}  {:>7}  {:>9}  {:>9.1}  {:>10.0}",
            result.name,
            result.n,
            result.control_fanout,
            result.control_loss,
            result.combined_msgs_per_interval,
            json_option(result.context_converged_ms),
            result.rounds,
            result.messages_lost,
            result.wall_ms,
            result.events_per_sec,
        );
    }

    eprintln!("per-component bytes on the wire (data / control / context / repair / overlay):");
    for result in &results {
        eprintln!(
            "{:>24}  {:>10} / {:>10} / {:>10} / {:>9} / {:>8}  (total {})",
            result.name,
            result.wire.data,
            result.wire.control,
            result.wire.context,
            result.wire.repair,
            result.wire.overlay,
            result.wire.total(),
        );
    }

    eprintln!(
        "control / context bytes per node per heartbeat interval and events/s (before -> after):"
    );
    for result in &results {
        let control = result.per_node_interval(result.wire.control);
        let context = result.per_node_interval(result.wire.context);
        match before_of(&before, result) {
            Some(old) => eprintln!(
                "{:>24}  control {:>8.1} -> {control:>8.1}  context {:>8.1} -> {context:>8.1}  \
                 events/s {:>8.0} -> {:>8.0}",
                result.name,
                result.per_node_interval(old.control),
                result.per_node_interval(old.context),
                old.events_per_sec,
                result.events_per_sec,
            ),
            None => eprintln!(
                "{:>24}  control {control:>8.1}  context {context:>8.1}  events/s {:>8.0}",
                result.name, result.events_per_sec,
            ),
        }
    }

    let baseline = &results[0];
    let gossip_n100 = results
        .iter()
        .find(|result| result.name == "gossip-n100")
        .expect("gossip n=100 case ran");
    let reduction = baseline.control_msgs_per_interval / gossip_n100.control_msgs_per_interval;
    let combined_reduction =
        baseline.combined_msgs_per_interval / gossip_n100.combined_msgs_per_interval;
    eprintln!(
        "control messages per heartbeat interval at n=100: {:.0} (all-to-all) vs {:.0} (gossip) — \
         {reduction:.1}x reduction ({combined_reduction:.1}x with context dissemination included)",
        baseline.control_msgs_per_interval, gossip_n100.control_msgs_per_interval
    );

    // Metadata of the headline comparison case (gossip-n100 vs the
    // all-to-all baseline): the seed, n and loss must reconstruct a
    // scenario that actually ran.
    let meta = morpheus_bench::RunMeta {
        seed: Scenario::large_group(100).seed,
        n: 100,
        loss: 0.0,
    };

    // Hand-rolled JSON: the workspace builds offline, without serde_json.
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"bench\": \"membership-scale\",\n");
    json.push_str("  \"mode\": \"quick\",\n");
    json.push_str(&format!("  {},\n", morpheus_bench::metadata_json(&meta)));
    json.push_str(&format!(
        "  \"alltoall_vs_gossip_reduction_n100\": {reduction:.1},\n"
    ));
    json.push_str(&format!(
        "  \"combined_reduction_n100\": {combined_reduction:.1},\n"
    ));
    json.push_str(&format!("  \"wall_budget_ms\": {wall_budget_ms:.0},\n"));
    if let Some(before) = &before {
        json.push_str(&format!("  \"before_commit\": \"{}\",\n", before.commit));
    }
    json.push_str("  \"results\": [\n");
    for (index, result) in results.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"case\": \"{}\", \"n\": {}, \"control_fanout\": {}, \"control_loss\": {:.2}, \
             \"control_msgs_per_interval\": {:.1}, \"combined_msgs_per_interval\": {:.1}, \
             \"control_sent_total\": {}, \
             \"context_sent_total\": {}, \
             \"wire_bytes\": {{\"data\": {}, \"control\": {}, \"context\": {}, \
             \"repair\": {}, \"overlay\": {}, \"total\": {}}}, \
             \"control_bytes_per_node_interval\": {:.1}, \
             \"context_bytes_per_node_interval\": {:.1}, \
             \"context_converged_ms\": {}, \
             \"reconfigurations\": {}, \"rounds\": {}, \"messages_lost\": {}, \
             \"app_deliveries\": {}, \"events_processed\": {}, \"wall_ms\": {:.1}, \
             \"events_per_sec\": {:.0}{}}}{}\n",
            result.name,
            result.n,
            result.control_fanout,
            result.control_loss,
            result.control_msgs_per_interval,
            result.combined_msgs_per_interval,
            result.control_sent_total,
            result.context_sent_total,
            result.wire.data,
            result.wire.control,
            result.wire.context,
            result.wire.repair,
            result.wire.overlay,
            result.wire.total(),
            result.per_node_interval(result.wire.control),
            result.per_node_interval(result.wire.context),
            json_option(result.context_converged_ms),
            result.reconfigurations,
            result.rounds,
            result.messages_lost,
            result.deliveries,
            result.events_processed,
            result.wall_ms,
            result.events_per_sec,
            before_of(&before, result).map_or(String::new(), |old| format!(
                ", \"before\": {{\"control_bytes_per_node_interval\": {:.1}, \
                 \"context_bytes_per_node_interval\": {:.1}, \"wall_ms\": {:.1}, \
                 \"events_per_sec\": {:.0}}}",
                result.per_node_interval(old.control),
                result.per_node_interval(old.context),
                old.wall_ms,
                old.events_per_sec,
            )),
            if index + 1 == results.len() { "" } else { "," },
        ));
    }
    json.push_str("  ]\n}\n");

    std::fs::write(&output, json).expect("write benchmark results");
    eprintln!("wrote {output}");

    // --- Assertions: the acceptance criteria of the gossip control plane
    // (after the results file is written, so failed runs still record data).
    assert!(
        reduction >= 10.0,
        "gossip must cut heartbeat-plane traffic at n=100 by >= 10x (got {reduction:.1}x)"
    );
    assert!(
        combined_reduction > 1.0,
        "the whole control plane (context dissemination included) must be cheaper than \
         the all-to-all baseline (got {combined_reduction:.1}x)"
    );

    for result in &results {
        assert_eq!(
            result.messages_lost, 0,
            "no chat message may be lost across the reconfiguration ({})",
            result.name
        );
        if result.control_fanout > 0 {
            assert!(
                result.context_converged_ms.is_some(),
                "digest anti-entropy must converge the context store ({})",
                result.name
            );
            assert!(
                result.n < 16 || result.rounds > 0,
                "the large-group adaptation round must complete ({})",
                result.name
            );
        }
    }

    let n250 = results
        .iter()
        .find(|result| result.name == "gossip-n250")
        .expect("250-node case ran");
    assert!(
        n250.wall_ms <= wall_budget_ms,
        "the 250-node run must stay within the CI wall budget ({:.0} ms > {wall_budget_ms:.0} ms)",
        n250.wall_ms
    );
}
