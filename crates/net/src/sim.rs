//! Seeded discrete-event simulation of the worker–switch–master fabric.
//!
//! The real deployment runs over DPDK UDP through a Tofino; here a
//! priority queue of timed message deliveries stands in for the wires,
//! with independent per-hop Bernoulli loss. The simulation is fully
//! deterministic given the seed, which is what the protocol property
//! tests rely on: *under any loss pattern, every entry is either pruned
//! (and switch-ACKed) or delivered to the master*.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::master::MasterRx;
use crate::switchnode::SwitchNode;
use crate::wire::Message;
use crate::worker::WorkerTx;

/// Simulation parameters.
#[derive(Debug, Clone, Copy)]
pub struct SimulationConfig {
    /// Per-hop packet loss probability (applied independently on every
    /// worker→switch, switch→master, and ACK hop).
    pub loss_rate: f64,
    /// Per-hop packet duplication probability: the message is delivered
    /// twice, the copy one extra latency later. Exercises the dedup
    /// paths (switch pass-through for `Y ≤ X`, master bitmap).
    pub dup_rate: f64,
    /// Per-hop reordering probability: the message picks up extra jitter
    /// of 1..3× the hop latency, letting later packets overtake it.
    /// Exercises the switch's in-order gate (`Y > X + 1` gap-drop).
    pub reorder_rate: f64,
    /// One-way per-hop latency in microseconds.
    pub latency_us: u64,
    /// Worker retransmission timeout in microseconds.
    pub rto_us: u64,
    /// Worker in-flight window (packets).
    pub window: u32,
    /// RNG seed for loss decisions.
    pub seed: u64,
    /// Safety cap on processed events (guards against configuration
    /// errors; generous for the test sizes used).
    pub max_events: u64,
}

impl Default for SimulationConfig {
    fn default() -> Self {
        SimulationConfig {
            loss_rate: 0.0,
            dup_rate: 0.0,
            reorder_rate: 0.0,
            latency_us: 5, // <1µs switch + wire, rounded up
            rto_us: 500,
            window: 32,
            seed: 0,
            max_events: 50_000_000,
        }
    }
}

/// Aggregate statistics of one simulation run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Total worker data transmissions (including retransmissions).
    pub transmissions: u64,
    /// Retransmissions only.
    pub retransmissions: u64,
    /// Packets pruned (and ACKed) by the switch.
    pub pruned: u64,
    /// Packets forwarded by the switch after processing.
    pub forwarded: u64,
    /// Retransmissions forwarded without processing (`Y ≤ X`).
    pub passed_through: u64,
    /// Out-of-order packets dropped by the switch (`Y > X + 1`).
    pub gap_drops: u64,
    /// Duplicate data packets discarded at the master.
    pub duplicates: u64,
    /// Messages lost on the simulated wires.
    pub losses: u64,
    /// Duplicate copies injected on the simulated wires.
    pub dup_injected: u64,
    /// Messages delayed by reordering jitter on the simulated wires.
    pub reordered: u64,
    /// FIN messages dropped by a scripted [`FaultPlan`].
    pub fin_drops: u64,
    /// Switch reboots injected by a scripted [`FaultPlan`].
    pub switch_reboots: u64,
    /// Worker crashes injected by a scripted [`FaultPlan`].
    pub worker_crashes: u64,
    /// Entries delivered to the master (unique).
    pub delivered: u64,
    /// Virtual completion time (µs) — when the last worker finished.
    pub completion_us: u64,
    /// Whether all flows completed within the event budget.
    pub completed: bool,
    /// Whether the session was abandoned at [`FaultPlan::deadline_us`].
    pub deadline_expired: bool,
}

/// Scripted faults injected into one [`Simulation::run_session`] call.
///
/// Worker indices refer to positions in the `workers` slice passed to
/// that session; times are virtual microseconds from session start. The
/// default plan injects nothing.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// `(worker index, time µs)`: fail-stop that worker at that time.
    /// Its flow never completes; recovery is the dispatcher's job
    /// (re-ship on a fresh flow id in a later session).
    pub worker_crashes: Vec<(usize, u64)>,
    /// Times (µs) at which the switch reboots with empty soft state —
    /// the §3 fault story (see `SwitchNode::reboot`).
    pub switch_reboots: Vec<u64>,
    /// Drop the first N FIN messages on the switch→master hop; the
    /// worker recovers by retransmitting the FIN after its RTO.
    pub drop_first_fins: u64,
    /// Abort the session as incomplete once virtual time passes this.
    pub deadline_us: Option<u64>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Site {
    Switch,
    Master,
    Worker(usize),
    Wake(usize),
    CrashWorker(usize),
    RebootSwitch,
}

#[derive(Debug, PartialEq, Eq)]
struct Event {
    time: u64,
    tiebreak: u64,
    site: Site,
    msg: Option<Message>,
}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.tiebreak).cmp(&(other.time, other.tiebreak))
    }
}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// The simulated wires: event heap, deterministic tiebreaking, and the
/// seeded loss/duplication/reordering decisions.
struct Wires {
    cfg: SimulationConfig,
    heap: BinaryHeap<Reverse<Event>>,
    tiebreak: u64,
    rng: StdRng,
}

impl Wires {
    fn enqueue(&mut self, time: u64, site: Site, msg: Option<Message>) {
        self.tiebreak += 1;
        self.heap.push(Reverse(Event {
            time,
            tiebreak: self.tiebreak,
            site,
            msg,
        }));
    }

    /// Put `msg` on a wire toward `site`: Bernoulli loss, then optional
    /// reordering jitter, then an optional duplicate copy one hop later.
    /// The `> 0.0` guards keep the RNG draw sequence identical to a
    /// loss-only configuration when the extra knobs are off.
    fn transmit(&mut self, stats: &mut NetStats, now: u64, site: Site, msg: Message) {
        if self.rng.gen::<f64>() < self.cfg.loss_rate {
            stats.losses += 1;
            return;
        }
        let lat = self.cfg.latency_us;
        let mut delay = lat;
        if self.cfg.reorder_rate > 0.0 && self.rng.gen::<f64>() < self.cfg.reorder_rate {
            delay += 1 + self.rng.gen::<u64>() % (3 * lat.max(1));
            stats.reordered += 1;
        }
        if self.cfg.dup_rate > 0.0 && self.rng.gen::<f64>() < self.cfg.dup_rate {
            stats.dup_injected += 1;
            self.enqueue(now + delay + lat, site, Some(msg.clone()));
        }
        self.enqueue(now + delay, site, Some(msg));
    }
}

/// One run of the three-party protocol over lossy wires.
#[derive(Debug)]
pub struct Simulation {
    config: SimulationConfig,
}

impl Simulation {
    /// A simulation with the given parameters.
    pub fn new(config: SimulationConfig) -> Self {
        Simulation { config }
    }

    /// Drive `workers` through `switch` to a fresh master until every flow
    /// completes (or the event budget runs out). Returns the master (with
    /// the delivered entries) and the run statistics.
    pub fn run(&self, mut workers: Vec<WorkerTx>, mut switch: SwitchNode) -> (MasterRx, NetStats) {
        let mut master = MasterRx::new();
        let stats = self.run_session(
            &mut workers,
            &mut switch,
            &mut master,
            &FaultPlan::default(),
        );
        (master, stats)
    }

    /// Drive `workers` through a *persistent* `switch` and `master` until
    /// every live flow completes, the fault deadline passes, or the event
    /// budget runs out, injecting the scripted `faults` along the way.
    ///
    /// Unlike [`Simulation::run`], the switch and master keep their state
    /// across calls, so a dispatcher can retry failed flows on fresh flow
    /// ids in a later session against the same receive state. The
    /// returned [`NetStats`] are deltas for this session only; crashed
    /// workers leave the session incomplete (`completed == false`) while
    /// live flows still finish.
    pub fn run_session(
        &self,
        workers: &mut [WorkerTx],
        switch: &mut SwitchNode,
        master: &mut MasterRx,
        faults: &FaultPlan,
    ) -> NetStats {
        let mut stats = NetStats::default();
        // Snapshot persistent counters so the stats report deltas.
        let tx0: u64 = workers.iter().map(|w| w.transmissions).sum();
        let rtx0: u64 = workers.iter().map(|w| w.retransmissions).sum();
        let (pruned0, forwarded0, passed0, gaps0) = (
            switch.pruned,
            switch.forwarded,
            switch.passed_through,
            switch.gap_drops,
        );
        let dup0 = master.duplicates;
        let del0 = master.delivered().len() as u64;

        let mut wires = Wires {
            cfg: self.config,
            heap: BinaryHeap::new(),
            tiebreak: 0,
            rng: StdRng::seed_from_u64(self.config.seed),
        };
        let fid_to_idx: HashMap<u16, usize> = workers
            .iter()
            .enumerate()
            .map(|(i, w)| (w.fid(), i))
            .collect();
        assert_eq!(fid_to_idx.len(), workers.len(), "duplicate fids");

        for &(i, t) in &faults.worker_crashes {
            wires.enqueue(t, Site::CrashWorker(i), None);
        }
        for &t in &faults.switch_reboots {
            wires.enqueue(t, Site::RebootSwitch, None);
        }
        for i in 0..workers.len() {
            wires.enqueue(0, Site::Wake(i), None);
        }

        let mut fin_drops_left = faults.drop_first_fins;
        let mut events = 0u64;
        let mut now = 0u64;
        let mut completed = false;
        while let Some(Reverse(ev)) = wires.heap.pop() {
            events += 1;
            if events > self.config.max_events {
                break;
            }
            now = ev.time;
            if faults.deadline_us.is_some_and(|d| now > d) {
                stats.deadline_expired = true;
                break;
            }
            match ev.site {
                Site::Wake(i) => {
                    let msgs = workers[i].pump(now);
                    for m in msgs {
                        wires.transmit(&mut stats, now, Site::Switch, m);
                    }
                    if let Some(t) = workers[i].next_deadline() {
                        wires.enqueue(t.max(now + 1), Site::Wake(i), None);
                    }
                }
                Site::Switch => match ev.msg.expect("switch events carry messages") {
                    Message::Data(d) => {
                        let out = switch.on_data(d);
                        if let Some(m) = out.to_master {
                            wires.transmit(&mut stats, now, Site::Master, m);
                        }
                        if let Some(Message::Ack(a)) = out.to_worker {
                            let idx = fid_to_idx[&a.fid];
                            wires.transmit(&mut stats, now, Site::Worker(idx), Message::Ack(a));
                        }
                    }
                    Message::Fin { fid, seq } => {
                        let m = switch.on_fin(fid, seq);
                        if fin_drops_left > 0 {
                            fin_drops_left -= 1;
                            stats.fin_drops += 1;
                        } else {
                            wires.transmit(&mut stats, now, Site::Master, m);
                        }
                    }
                    other => unreachable!("unexpected at switch: {other:?}"),
                },
                Site::Master => {
                    let reply = match ev.msg.expect("master events carry messages") {
                        Message::Data(d) => master.on_data(d),
                        Message::Fin { fid, .. } => master.on_fin(fid),
                        other => unreachable!("unexpected at master: {other:?}"),
                    };
                    let fid = match &reply {
                        Message::Ack(a) => a.fid,
                        Message::FinAck { fid } => *fid,
                        _ => unreachable!(),
                    };
                    let idx = fid_to_idx[&fid];
                    wires.transmit(&mut stats, now, Site::Worker(idx), reply);
                }
                Site::Worker(i) => {
                    match ev.msg.expect("worker events carry messages") {
                        Message::Ack(a) => workers[i].on_ack(a.seq),
                        Message::FinAck { .. } => workers[i].on_fin_ack(),
                        other => unreachable!("unexpected at worker: {other:?}"),
                    }
                    // State change may free the window or finish the flow.
                    if let Some(t) = workers[i].next_deadline() {
                        wires.enqueue(t.max(now), Site::Wake(i), None);
                    }
                }
                Site::CrashWorker(i) => {
                    if let Some(w) = workers.get_mut(i) {
                        if !w.is_crashed() {
                            w.crash();
                            stats.worker_crashes += 1;
                        }
                    }
                }
                Site::RebootSwitch => {
                    switch.reboot();
                    stats.switch_reboots += 1;
                }
            }
            if workers.iter().all(|w| w.is_crashed() || w.is_done()) {
                completed = workers.iter().all(|w| w.is_done());
                break;
            }
        }
        if wires.heap.is_empty() {
            completed = workers.iter().all(|w| w.is_done());
        }
        stats.completed = completed;

        stats.transmissions = workers.iter().map(|w| w.transmissions).sum::<u64>() - tx0;
        stats.retransmissions = workers.iter().map(|w| w.retransmissions).sum::<u64>() - rtx0;
        stats.pruned = switch.pruned - pruned0;
        stats.forwarded = switch.forwarded - forwarded0;
        stats.passed_through = switch.passed_through - passed0;
        stats.gap_drops = switch.gap_drops - gaps0;
        stats.duplicates = master.duplicates - dup0;
        stats.delivered = master.delivered().len() as u64 - del0;
        stats.completion_us = now;
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cheetah_core::Decision;
    use std::collections::HashSet;

    fn keyed_entries(fid: u16, n: u64) -> Vec<Vec<u64>> {
        (0..n)
            .map(|i| vec![u64::from(fid) * 1_000_000 + i % 50])
            .collect()
    }

    fn drop_even_switch() -> SwitchNode {
        SwitchNode::new(Box::new(|_, v| {
            if v[0] % 2 == 0 {
                Decision::Prune
            } else {
                Decision::Forward
            }
        }))
    }

    #[test]
    fn lossless_run_delivers_exactly_forwarded() {
        let cfg = SimulationConfig::default();
        let workers = vec![WorkerTx::new(1, keyed_entries(1, 500), 32, 500)];
        let (master, stats) = Simulation::new(cfg).run(workers, drop_even_switch());
        assert!(stats.completed);
        assert_eq!(stats.retransmissions, 0);
        assert_eq!(stats.pruned + stats.forwarded, 500);
        assert_eq!(stats.delivered, stats.forwarded);
        // All delivered values are odd (the forwarded ones).
        assert!(master.delivered().iter().all(|(_, _, v)| v[0] % 2 == 1));
    }

    #[test]
    fn lossy_run_completes_and_accounts_for_everything() {
        let cfg = SimulationConfig {
            loss_rate: 0.1,
            seed: 42,
            ..SimulationConfig::default()
        };
        let n = 300u64;
        let workers = vec![
            WorkerTx::new(1, keyed_entries(1, n), 16, 200),
            WorkerTx::new(2, keyed_entries(2, n), 16, 200),
        ];
        let (master, stats) = Simulation::new(cfg).run(workers, drop_even_switch());
        assert!(stats.completed, "protocol must finish under loss");
        assert!(stats.retransmissions > 0, "loss must cause retransmissions");
        assert!(stats.losses > 0);
        // Everything either pruned at the switch or delivered: for each
        // flow, each seq must be accounted. Delivered ∪ pruned ⊇ all seqs —
        // delivered seqs are recorded; pruning is per in-order processing,
        // so check the union covers all entries via the odd/even split:
        // every odd entry must be delivered.
        let delivered: HashSet<(u16, u32)> = master
            .delivered()
            .iter()
            .map(|(f, s, _)| (*f, *s))
            .collect();
        for fid in [1u16, 2] {
            for seq in 0..n as u32 {
                let key = u64::from(fid) * 1_000_000 + u64::from(seq) % 50;
                if key % 2 == 1 {
                    assert!(
                        delivered.contains(&(fid, seq)),
                        "odd entry fid={fid} seq={seq} lost"
                    );
                }
            }
        }
    }

    #[test]
    fn pruned_then_retransmitted_is_harmless_superset() {
        // With heavy ACK loss, some pruned packets get retransmitted and
        // reach the master (passed_through). The delivered set may then be
        // a superset of the forwarded set — never a subset of needed data.
        let cfg = SimulationConfig {
            loss_rate: 0.25,
            seed: 7,
            rto_us: 100,
            ..SimulationConfig::default()
        };
        let workers = vec![WorkerTx::new(1, keyed_entries(1, 200), 8, 100)];
        let (master, stats) = Simulation::new(cfg).run(workers, drop_even_switch());
        assert!(stats.completed);
        // Some even (pruned) entries may appear; all odd ones must.
        let odd_delivered = master
            .delivered()
            .iter()
            .filter(|(_, _, v)| v[0] % 2 == 1)
            .count();
        let odd_total = keyed_entries(1, 200)
            .iter()
            .filter(|v| v[0] % 2 == 1)
            .count();
        assert_eq!(odd_delivered, odd_total);
    }

    #[test]
    fn deterministic_given_seed() {
        let cfg = SimulationConfig {
            loss_rate: 0.15,
            seed: 99,
            ..SimulationConfig::default()
        };
        let run = || {
            let workers = vec![WorkerTx::new(1, keyed_entries(1, 100), 8, 200)];
            Simulation::new(cfg).run(workers, drop_even_switch()).1
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn switch_state_never_sees_entry_twice() {
        // Count pruner invocations: must equal the number of entries even
        // under loss (in-order processing + pass-through for Y ≤ X).
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::Arc;
        let count = Arc::new(AtomicU64::new(0));
        let c2 = Arc::clone(&count);
        let switch = SwitchNode::new(Box::new(move |_, _| {
            c2.fetch_add(1, Ordering::Relaxed);
            Decision::Forward
        }));
        let cfg = SimulationConfig {
            loss_rate: 0.2,
            seed: 5,
            rto_us: 100,
            ..SimulationConfig::default()
        };
        let workers = vec![WorkerTx::new(1, keyed_entries(1, 150), 8, 100)];
        let (_, stats) = Simulation::new(cfg).run(workers, switch);
        assert!(stats.completed);
        assert_eq!(
            count.load(Ordering::Relaxed),
            150,
            "each entry processed exactly once despite retransmissions"
        );
    }

    #[test]
    fn duplication_and_reordering_keep_exactly_once_processing() {
        // Under duplication + reordering + loss, the switch must still
        // process each entry exactly once (dups pass through `Y ≤ X`,
        // reordered overtakers gap-drop `Y > X + 1`) and the master's
        // result must stay exact: every forwarded (odd) entry delivered.
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::Arc;
        let count = Arc::new(AtomicU64::new(0));
        let c2 = Arc::clone(&count);
        let switch = SwitchNode::new(Box::new(move |_, v| {
            c2.fetch_add(1, Ordering::Relaxed);
            if v[0] % 2 == 0 {
                Decision::Prune
            } else {
                Decision::Forward
            }
        }));
        let cfg = SimulationConfig {
            loss_rate: 0.1,
            dup_rate: 0.25,
            reorder_rate: 0.25,
            seed: 11,
            rto_us: 200,
            ..SimulationConfig::default()
        };
        let n = 200u64;
        let workers = vec![WorkerTx::new(1, keyed_entries(1, n), 8, 200)];
        let (master, stats) = Simulation::new(cfg).run(workers, switch);
        assert!(stats.completed);
        assert!(stats.dup_injected > 0, "dup knob must fire");
        assert!(stats.reordered > 0, "reorder knob must fire");
        assert_eq!(
            count.load(Ordering::Relaxed),
            n,
            "each entry processed exactly once despite dup/reorder"
        );
        let delivered: HashSet<(u16, u32)> = master
            .delivered()
            .iter()
            .map(|(f, s, _)| (*f, *s))
            .collect();
        for seq in 0..n as u32 {
            if (1_000_000 + u64::from(seq) % 50) % 2 == 1 {
                assert!(delivered.contains(&(1, seq)), "odd entry seq={seq} lost");
            }
        }
    }

    #[test]
    fn worker_crash_halts_its_flow_but_not_the_session() {
        let sim = Simulation::new(SimulationConfig::default());
        let mut workers = vec![
            WorkerTx::new(1, keyed_entries(1, 300), 8, 500),
            WorkerTx::new(2, keyed_entries(2, 300), 8, 500),
        ];
        let mut switch = SwitchNode::transparent();
        let mut master = MasterRx::new();
        let faults = FaultPlan {
            worker_crashes: vec![(0, 40)],
            ..FaultPlan::default()
        };
        let stats = sim.run_session(&mut workers, &mut switch, &mut master, &faults);
        assert!(!stats.completed, "a crashed flow never completes");
        assert_eq!(stats.worker_crashes, 1);
        assert!(workers[0].is_crashed() && !workers[0].is_done());
        assert!(workers[1].is_done(), "the live flow still finishes");
        // Recovery: re-ship the dead worker's stream on a fresh flow id
        // against the same persistent switch and master.
        let mut retry = vec![WorkerTx::new(3, keyed_entries(1, 300), 8, 500)];
        let stats2 = sim.run_session(&mut retry, &mut switch, &mut master, &FaultPlan::default());
        assert!(stats2.completed);
        assert_eq!(stats2.delivered, 300, "delta stats cover only the retry");
        assert!(master.is_finished(2) && master.is_finished(3));
    }

    #[test]
    fn switch_reboot_mid_run_still_completes_exactly() {
        let cfg = SimulationConfig {
            loss_rate: 0.05,
            seed: 21,
            rto_us: 200,
            ..SimulationConfig::default()
        };
        let sim = Simulation::new(cfg);
        let mut workers = vec![WorkerTx::new(1, keyed_entries(1, 300), 8, 200)];
        let mut switch = SwitchNode::transparent();
        let mut master = MasterRx::new();
        let faults = FaultPlan {
            switch_reboots: vec![200],
            ..FaultPlan::default()
        };
        let stats = sim.run_session(&mut workers, &mut switch, &mut master, &faults);
        assert!(stats.completed, "flows survive a mid-run reboot");
        assert_eq!(stats.switch_reboots, 1);
        assert_eq!(switch.reboots, 1);
        let unique: HashSet<u32> = master.delivered().iter().map(|(_, s, _)| *s).collect();
        assert_eq!(unique.len(), 300, "every entry delivered despite reboot");
    }

    #[test]
    fn fin_loss_recovers_via_retransmission() {
        let sim = Simulation::new(SimulationConfig::default());
        let mut workers = vec![WorkerTx::new(1, keyed_entries(1, 50), 8, 500)];
        let mut switch = SwitchNode::transparent();
        let mut master = MasterRx::new();
        let faults = FaultPlan {
            drop_first_fins: 2,
            ..FaultPlan::default()
        };
        let stats = sim.run_session(&mut workers, &mut switch, &mut master, &faults);
        assert!(stats.completed);
        assert_eq!(stats.fin_drops, 2);
        assert!(master.is_finished(1));
    }

    #[test]
    fn deadline_bounds_a_doomed_session() {
        let cfg = SimulationConfig {
            loss_rate: 1.0,
            ..SimulationConfig::default()
        };
        let sim = Simulation::new(cfg);
        let mut workers = vec![WorkerTx::new(1, keyed_entries(1, 20), 4, 100)];
        let faults = FaultPlan {
            deadline_us: Some(2_000),
            ..FaultPlan::default()
        };
        let stats = sim.run_session(
            &mut workers,
            &mut SwitchNode::transparent(),
            &mut MasterRx::new(),
            &faults,
        );
        assert!(!stats.completed, "total loss cannot complete");
        assert!(stats.deadline_expired);
        assert!(stats.losses > 0);
    }

    #[test]
    fn completion_time_grows_with_loss() {
        let run = |loss| {
            let cfg = SimulationConfig {
                loss_rate: loss,
                seed: 3,
                ..SimulationConfig::default()
            };
            let workers = vec![WorkerTx::new(1, keyed_entries(1, 400), 16, 200)];
            Simulation::new(cfg)
                .run(workers, SwitchNode::transparent())
                .1
        };
        let clean = run(0.0);
        let lossy = run(0.2);
        assert!(clean.completed && lossy.completed);
        assert!(
            lossy.completion_us > clean.completion_us,
            "loss should delay completion ({} vs {})",
            lossy.completion_us,
            clean.completion_us
        );
    }
}
