//! What one run of a workload measured, and whether its outputs were right.

use morpheus_chat::ChatHistoryBinding;
use morpheus_testbed::{RunReport, Scenario};

use crate::coverage::{history_coverage, Coverage};
use crate::stats::per_node_per_s;
use crate::workload::{Workload, ROOM};

/// One named measurement with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as `BENCHMARK.json` declares it.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: String,
}

impl Metric {
    /// A metric.
    pub fn new(name: impl Into<String>, value: f64, unit: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            value,
            unit: unit.into(),
        }
    }
}

/// The outcome of one `run_with_binding` call.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// The runner's report.
    pub report: RunReport,
    /// Coverage of the members' final chat histories.
    pub coverage: Coverage,
    /// Deliveries the chat binding could not decode.
    pub decode_failures: u64,
}

impl RunOutcome {
    /// Reads a finished run.
    pub fn new(scenario: &Scenario, report: RunReport, binding: &ChatHistoryBinding) -> Self {
        let coverage = history_coverage(
            ROOM,
            &scenario.members(),
            &scenario.workload.senders,
            scenario.workload.messages_per_sender,
            |node| binding.history(node),
        );
        Self {
            report,
            coverage,
            decode_failures: binding.decode_failures(),
        }
    }

    /// Expected `(member, message)` pairs: the operations the run attempted.
    pub fn attempted(&self) -> u64 {
        self.coverage.expected
    }

    /// Failed operations: missing pairs (a wedged run's unsent remainder
    /// among them), phantom history entries and undecodable deliveries.
    pub fn failed(&self) -> u64 {
        self.coverage.missing() + self.coverage.unexpected + self.decode_failures
    }

    /// The end-to-end metrics the simulation fixes: every one but the wall
    /// times and memory.
    pub fn end_to_end(&self, scenario: &Scenario) -> Vec<Metric> {
        let report = &self.report;
        let n = report.devices;
        let wire = report.wire_bytes_totals().total() as f64;
        let energy_mj: f64 = report
            .nodes
            .iter()
            .map(|node| node.energy_joules)
            .sum::<f64>()
            * 1e3;
        let senders = &scenario.workload.senders;
        let sender_tx: u64 = report
            .nodes
            .iter()
            .filter(|node| senders.contains(&node.node))
            .map(|node| node.sent_total())
            .sum();
        let sent = senders.len() as u64 * scenario.workload.messages_per_sender;
        let longest_rejoin = report
            .rejoins()
            .iter()
            .map(|(_, rejoin)| rejoin.elapsed_ms)
            .max();
        let longest_round = report
            .completed_rounds()
            .iter()
            .map(|round| round.latency_ms)
            .max();
        let converge_ms = report.context_convergence_ms().unwrap_or(0);
        vec![
            Metric::new("coverage", self.coverage.fraction(), "fraction"),
            Metric::new(
                "wire_kb_per_node_s",
                per_node_per_s(wire / 1000.0, n, report.duration_ms),
                "KB/node/s",
            ),
            Metric::new(
                "energy_mj_per_delivery",
                energy_mj / self.coverage.delivered().max(1) as f64,
                "mJ/delivery",
            ),
            Metric::new(
                "sender_tx_per_msg",
                sender_tx as f64 / sent.max(1) as f64,
                "packets/msg",
            ),
            // A workload without a reconfiguration round reports its longest
            // rejoin — the only stack (re)deployment it makes — and one
            // without restarts reports its boot join (every member's context
            // covering the group), so neither metric is ever 0.
            Metric::new(
                "reconfig_ms",
                longest_round.or(longest_rejoin).unwrap_or(0) as f64,
                "sim_ms",
            ),
            Metric::new("converge_ms", converge_ms as f64, "sim_ms"),
            Metric::new(
                "rejoin_ms",
                longest_rejoin.unwrap_or(converge_ms) as f64,
                "sim_ms",
            ),
        ]
    }

    /// The per-layer counters of the run: deterministic, like
    /// [`RunOutcome::end_to_end`].
    pub fn layer_counters(&self) -> Vec<Metric> {
        let report = &self.report;
        let n = report.devices;
        let sim_ms = report.duration_ms;
        let gossip = report.gossip_totals();
        let wire = report.wire_bytes_totals();
        let sum = |f: fn(&morpheus_testbed::NodeReport) -> u64| -> f64 {
            report.nodes.iter().map(f).sum::<u64>() as f64
        };
        let rejoins = report.rejoins();
        let transfer = |f: fn(&morpheus_testbed::RejoinReport) -> u64| -> f64 {
            rejoins.iter().map(|(_, rejoin)| f(rejoin)).sum::<u64>() as f64
        };
        let kb = |bytes: u64| per_node_per_s(bytes as f64 / 1000.0, n, sim_ms);
        let pkts = |count: f64| per_node_per_s(count, n, sim_ms);
        vec![
            Metric::new("testbed.events", report.events_processed as f64, "count"),
            Metric::new("netsim.queue_max", report.max_queue_depth as f64, "count"),
            Metric::new("netsim.shed", report.shed_packets as f64, "count"),
            Metric::new(
                "core.rounds",
                report.completed_rounds().len() as f64,
                "count",
            ),
            Metric::new(
                "core.round_retransmits",
                report.total_retransmits() as f64,
                "count",
            ),
            Metric::new(
                "core.reconfigurations",
                report.total_reconfigurations() as f64,
                "count",
            ),
            Metric::new("gossip.forwarded", gossip.forwarded as f64, "count"),
            Metric::new(
                "gossip.dup_ratio",
                gossip.duplicates as f64 / report.total_app_deliveries().max(1) as f64,
                "ratio",
            ),
            Metric::new("gossip.repair_pulls", gossip.repair_pulls as f64, "count"),
            Metric::new("gossip.repair_pushes", gossip.repair_pushes as f64, "count"),
            Metric::new(
                "gossip.repaired",
                gossip.repaired_deliveries as f64,
                "count",
            ),
            Metric::new("gossip.deferred", gossip.deferred_pushes as f64, "count"),
            Metric::new("gossip.outbox_shed", gossip.outbox_shed as f64, "count"),
            Metric::new(
                "gossip.floor_escalations",
                gossip.floor_escalations as f64,
                "count",
            ),
            Metric::new("wire.data_kb_per_node_s", kb(wire.data), "KB/node/s"),
            Metric::new("wire.repair_kb_per_node_s", kb(wire.repair), "KB/node/s"),
            Metric::new("wire.control_kb_per_node_s", kb(wire.control), "KB/node/s"),
            Metric::new("wire.context_kb_per_node_s", kb(wire.context), "KB/node/s"),
            Metric::new(
                "wire.data_pkts_per_node_s",
                pkts(sum(|node| node.sent_data)),
                "pkts/node/s",
            ),
            Metric::new(
                "wire.repair_pkts_per_node_s",
                pkts(sum(|node| node.sent_repair)),
                "pkts/node/s",
            ),
            Metric::new(
                "wire.control_pkts_per_node_s",
                pkts(sum(|node| node.sent_control)),
                "pkts/node/s",
            ),
            Metric::new(
                "wire.context_pkts_per_node_s",
                pkts(sum(|node| node.sent_context)),
                "pkts/node/s",
            ),
            Metric::new("vsync.view_changes", sum(|node| node.view_changes), "count"),
            Metric::new("recovery.rejoins", rejoins.len() as f64, "count"),
            Metric::new(
                "recovery.transfer_kb",
                transfer(|rejoin| rejoin.bytes) / 1000.0,
                "KB",
            ),
            Metric::new(
                "recovery.chunks",
                transfer(|rejoin| u64::from(rejoin.chunks)),
                "count",
            ),
            Metric::new(
                "recovery.transfer_epochs",
                transfer(|rejoin| rejoin.transfer_epochs),
                "count",
            ),
            Metric::new("recovery.catchups", report.total_catchups() as f64, "count"),
            Metric::new("chat.decode_failures", self.decode_failures as f64, "count"),
        ]
    }

    /// Every metric the simulation fixes. The determinism gate requires each
    /// to be identical across repeats of a workload and between its traced
    /// and untraced runs.
    pub fn deterministic(&self, scenario: &Scenario) -> Vec<Metric> {
        let mut metrics = self.end_to_end(scenario);
        metrics.extend(self.layer_counters());
        metrics
    }

    /// The output checks; each violation is described in one line.
    pub fn violations(&self, workload: Workload, scenario: &Scenario) -> Vec<String> {
        let report = &self.report;
        let mut violations = Vec::new();
        let prefix = workload.expected_stack_prefix();
        let mut stacks: Vec<&str> = report
            .nodes
            .iter()
            .map(|node| node.final_stack.as_str())
            .collect();
        stacks.sort_unstable();
        stacks.dedup();
        if stacks.len() != 1 || !stacks[0].starts_with(prefix) {
            violations.push(format!(
                "members must all end on one `{prefix}*` stack, ended on {stacks:?}"
            ));
        }
        if workload == Workload::Fig3Paper {
            let tx = metric(&self.end_to_end(scenario), "sender_tx_per_msg");
            // Figure 3's non-adaptive stack costs the PDA ~8.3 packets per
            // message at 9 devices; the adapted one must stay far below.
            if tx > 2.0 {
                violations.push(format!("sender_tx_per_msg {tx} is not well under 8.3"));
            }
        }
        if report.messages_lost != 0 {
            violations.push(format!(
                "{} data packets lost on live links",
                report.messages_lost
            ));
        }
        if let Some(wedge) = &report.wedge {
            violations.push(format!("wedged at {} ms: {}", wedge.at_ms, wedge.reason));
        }
        if report.total_errors() != 0 {
            violations.push(format!(
                "{} packet or reconfiguration errors",
                report.total_errors()
            ));
        }
        for node in &report.nodes {
            if node.restarts > 0 && node.rejoin.is_none() {
                violations.push(format!("{} restarted and never rejoined", node.node));
            }
        }
        if report.context_convergence_ms().is_none() {
            violations.push("the context never covered every member".to_string());
        }
        if self.failed() != 0 {
            violations.push(format!(
                "{} of {} (member, message) pairs failed: {} missing, {} phantom, {} undecodable",
                self.failed(),
                self.attempted(),
                self.coverage.missing(),
                self.coverage.unexpected,
                self.decode_failures
            ));
        }
        violations
    }
}

/// The value of the named metric (`NaN` when absent).
pub fn metric(metrics: &[Metric], name: &str) -> f64 {
    metrics
        .iter()
        .find(|metric| metric.name == name)
        .map_or(f64::NAN, |metric| metric.value)
}

/// Compares the deterministic metrics of two runs and names the first one
/// that differs.
pub fn first_difference(expected: &[Metric], actual: &[Metric]) -> Option<String> {
    for want in expected {
        match actual.iter().find(|got| got.name == want.name) {
            Some(got) if got.value.to_bits() == want.value.to_bits() => {}
            Some(got) => {
                return Some(format!("{}: {} then {}", want.name, want.value, got.value));
            }
            None => return Some(format!("{}: missing", want.name)),
        }
    }
    None
}
