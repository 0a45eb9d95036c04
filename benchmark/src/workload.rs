//! The three workloads: fixed schedules in simulated time, each built from
//! a scenario seed alone.
//!
//! Senders fire on a timer whatever happens to delivery, so every workload
//! is an open loop in simulated time; a run is timed by wall clock.

use morpheus_appia::platform::NodeId;
use morpheus_core::rules::derived_gossip_ttl;
use morpheus_core::StackKind;
use morpheus_netsim::{FaultEvent, FaultSchedule};
use morpheus_testbed::Scenario;

/// Chat room every workload's messages are sent to.
pub const ROOM: &str = "icdcs";

/// Window of the runner's wedge detector, in simulated milliseconds. Armed on
/// every workload so a stalled run is caught and its unsent remainder counted
/// as failed, instead of silently running to the horizon.
const WEDGE_WINDOW_MS: u64 = 10_000;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's Figure 3 at full length: 1 PC and 8 PDAs in the hybrid
    /// cell, adaptive, 40,000 chat messages from the first PDA at 10 msg/s.
    Fig3Paper,
    /// Lossy many-to-many chat: 100 wired members, every member sends 12
    /// messages, 10% of data-channel transmissions dropped.
    FaninLoss,
    /// Control plane at n = 250 under one crash a second for 17 s.
    Churn250,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [Workload::Fig3Paper, Workload::FaninLoss, Workload::Churn250];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig3Paper => "fig3_paper",
            Workload::FaninLoss => "fanin_loss",
            Workload::Churn250 => "churn_250",
        }
    }

    /// Looks a workload up by its name.
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL
            .into_iter()
            .find(|workload| workload.name() == name)
    }

    /// The scenario seeds every invocation runs: a fixed set per workload,
    /// starting at its preset's own seed, so the simulated figures are
    /// constants of the code. Two commits are compared on the same simulated
    /// schedules and differ only where the code does.
    ///
    /// The set is fixed because those figures move from one scenario seed to
    /// the next by more than any useful bound: `fig3_paper`'s context
    /// converges in 12 ms on some seeds and 2,010 ms on others (one gossip
    /// target choice), and a steady average over seeds drawn afresh would take
    /// about 50 paper-length runs per invocation. `--seed` picks which one
    /// runs first ([`Workload::first_scenario`]).
    pub fn scenario_seeds(self) -> Vec<u64> {
        let (first, count) = match self {
            Workload::Fig3Paper => (Scenario::figure3(9, true, 1).seed, 8),
            Workload::FaninLoss => (Scenario::chat_fanin(100, 100).seed, 4),
            Workload::Churn250 => (Scenario::large_group(250).seed, 3),
        };
        (first..first + count).collect()
    }

    /// Index into [`Workload::scenario_seeds`] of the scenario `--seed`
    /// runs first: the one the determinism gate repeats and the traced pass
    /// runs.
    pub fn first_scenario(self, seed: u64) -> usize {
        (seed % self.scenario_seeds().len() as u64) as usize
    }

    /// The scenario this workload runs for the given scenario seed. The seed
    /// drives every random decision of the run: injected data loss, churn
    /// victims, protocol jitter.
    pub fn scenario(self, seed: u64) -> Scenario {
        let scenario = match self {
            Workload::Fig3Paper => Scenario::figure3(9, true, 40_000),
            Workload::FaninLoss => {
                let mut scenario = Scenario::chat_fanin(100, 100).with_data_loss(0.1);
                scenario.workload.messages_per_sender = 12;
                // The preset's 8 s leaves some seeds' repair tail unfinished
                // (up to 25 pairs short); coverage is measured at convergence.
                scenario.cooldown_ms = 16_000;
                scenario
            }
            Workload::Churn250 => {
                let mut scenario = Scenario::large_group(250);
                scenario.cooldown_ms = 40_000;
                // Boot on the stack the large-group rule picks for n = 250. A
                // member restarted after a reconfiguration round comes back on
                // the boot stack and is never moved onto the committed one, so
                // booting on best-effort would leave every churn victim there.
                scenario.initial_stack = Workload::Churn250.final_stack(&scenario);
                scenario.with_fault_schedule(FaultSchedule {
                    events: vec![FaultEvent::MassChurn {
                        start_ms: 10_000,
                        end_ms: 27_000,
                        per_second: 1,
                        down_ms: 4_000,
                    }],
                })
            }
        };
        scenario.with_seed(seed).with_wedge_window(WEDGE_WINDOW_MS)
    }

    /// Prefix every node's final stack name must carry.
    pub fn expected_stack_prefix(self) -> &'static str {
        match self {
            Workload::Fig3Paper => "hybrid-mecho-",
            Workload::FaninLoss | Workload::Churn250 => "gossip-",
        }
    }

    /// The stack the workload's group ends on, which the probe nodes of the
    /// traced pass run from the start.
    pub fn final_stack(self, scenario: &Scenario) -> StackKind {
        match self {
            Workload::Fig3Paper => StackKind::HybridMecho { relay: NodeId(0) },
            Workload::FaninLoss | Workload::Churn250 => StackKind::Gossip {
                fanout: 3,
                ttl: derived_gossip_ttl(scenario.device_count(), 3),
            },
        }
    }
}
