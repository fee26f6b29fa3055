//! The synchronous lockstep engine.
//!
//! Executes `n` copies of a [`NodeProgram`] in rounds, enforcing the model of
//! §3 of the paper: per round, every ordered pair of nodes may exchange at
//! most `bandwidth` bits (default `⌈log₂ n⌉`), local computation is free, and
//! the complexity of a run is its number of communication rounds.
//!
//! # Execution strategy
//!
//! One round loop drives every run, on the thread that called
//! [`Engine::run`]. Each round it applies the fault plan's crashes and
//! rejoins, snapshots which nodes are active, steps every active node in
//! index order, closes the round's books, and — unless the run is over —
//! applies the wire passes (Byzantine rewrites → signing → forged tags →
//! link faults → verification) and checks the deadline and the cancel flag.
//! The paper prices a run in rounds, with local computation free, so the
//! engine spends no threads inside a run: parallelism comes from running
//! many runs at once (`cc-service`).
//!
//! Message delivery is **double-buffered** (see [`crate::delivery`]): a
//! per-sender edge list with a shared broadcast payload, read through a
//! receiver index. Nodes write sends into one buffer while reading the
//! previous round's through an inbox view, so delivery is a buffer swap (no
//! O(n²) transpose; rows are cleared in place, retaining capacity, and
//! persist across runs via [`DeliveryArena`]). Every row and column walk
//! visits messages only, so a round costs O(n + messages), not O(n²).

use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::auth::{AuthKeyring, AuthLedger};
use crate::bits::BitString;
use crate::byzantine::{ByzantinePlan, ByzantineReport, IndexedByzantinePlan};
use crate::coins::Coins;
use crate::delivery::{BufView, BufViewMut, DeliveryArena, SparseBuf, SparseRow};
use crate::fault::{FaultEvent, FaultPlan, FaultReport, IndexedFaultPlan};
use crate::node::{Inbox, NodeCtx, NodeId, NodeProgram, Outbox, Status};
use crate::stats::{EngineTiming, RunStats};
use crate::transcript::{RoundTranscript, Transcript};

/// Errors surfaced by a run. Bandwidth violations are *bugs in the algorithm
/// under test* — the engine's job is to catch them, not to work around them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// In broadcast mode, a node sent different messages to different
    /// peers in the same round.
    BroadcastViolated {
        /// Offending sender.
        from: NodeId,
        /// Round in which the violation happened.
        round: usize,
    },
    /// In CONGEST mode, a node addressed a non-neighbour.
    TopologyViolated {
        /// Offending sender.
        from: NodeId,
        /// Illegal recipient (not adjacent in the communication graph).
        to: NodeId,
        /// Round in which the violation happened.
        round: usize,
    },
    /// A node emitted a message wider than the model allows.
    BandwidthExceeded {
        /// Offending sender.
        from: NodeId,
        /// Intended recipient.
        to: NodeId,
        /// Round in which the violation happened.
        round: usize,
        /// Size of the offending message.
        bits: usize,
        /// The engine's per-message budget.
        limit: usize,
    },
    /// The run did not terminate within the configured round limit.
    RoundLimit {
        /// The configured limit.
        limit: usize,
    },
    /// `run` was called with the wrong number of programs.
    WrongProgramCount {
        /// Number of nodes in the clique.
        expected: usize,
        /// Number of programs supplied.
        got: usize,
    },
    /// A node program panicked during its step (a rejoin replay's included).
    /// The engine catches the panic and returns this structured error, so a
    /// buggy program cannot take its caller down — the engine stays
    /// reusable.
    NodeProgramPanicked {
        /// The panicking node.
        node: NodeId,
        /// Round in which the panic happened.
        round: usize,
        /// The panic payload, if it was a string.
        message: String,
    },
    /// The run exceeded the wall-clock budget set with
    /// [`Engine::with_deadline`]. Checked at round boundaries, so a single
    /// round's step phase can overshoot the limit before being caught.
    DeadlineExceeded {
        /// The configured budget.
        limit: Duration,
    },
    /// A node crash-stopped under a [`FaultPlan`], so [`Engine::run`] cannot
    /// produce an output for every node. Use [`Engine::run_faulted`] to
    /// observe the partial outputs of the surviving nodes instead.
    NodeCrashed {
        /// The crashed node.
        node: NodeId,
        /// Round at whose start it stopped participating.
        round: usize,
    },
    /// The run was aborted through the cooperative cancellation flag set
    /// with [`Engine::with_cancel`] (e.g. a batch service tearing down its
    /// in-flight jobs). Checked at round boundaries, like
    /// [`SimError::DeadlineExceeded`].
    Cancelled {
        /// Round after which the cancellation was observed.
        round: usize,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::BroadcastViolated { from, round } => write!(
                f,
                "broadcast mode violated in round {round}: node {} sent distinct messages",
                from.display()
            ),
            SimError::TopologyViolated { from, to, round } => write!(
                f,
                "CONGEST topology violated in round {round}: node {} sent to non-neighbour {}",
                from.display(),
                to.display()
            ),
            SimError::BandwidthExceeded { from, to, round, bits, limit } => write!(
                f,
                "bandwidth exceeded in round {round}: node {} sent {bits} bits to node {} (limit {limit})",
                from.display(),
                to.display()
            ),
            SimError::RoundLimit { limit } => {
                write!(f, "run exceeded the round limit of {limit}")
            }
            SimError::WrongProgramCount { expected, got } => {
                write!(f, "expected {expected} node programs, got {got}")
            }
            SimError::NodeProgramPanicked {
                node,
                round,
                message,
            } => write!(
                f,
                "node {} panicked in round {round}: {message}",
                node.display()
            ),
            SimError::DeadlineExceeded { limit } => {
                write!(f, "run exceeded the wall-clock deadline of {limit:?}")
            }
            SimError::NodeCrashed { node, round } => write!(
                f,
                "node {} crash-stopped in round {round} under the fault plan; \
                 use run_faulted to observe partial outputs",
                node.display()
            ),
            SimError::Cancelled { round } => {
                write!(f, "run cancelled cooperatively after round {round}")
            }
        }
    }
}

impl std::error::Error for SimError {}

/// Result of a completed run.
#[derive(Debug)]
pub struct RunOutcome<T> {
    /// Local output of each node, indexed by node.
    pub outputs: Vec<T>,
    /// Accounting for the run.
    pub stats: RunStats,
    /// Per-node communication transcripts, if recording was enabled.
    pub transcripts: Option<Vec<Transcript>>,
    /// Every fault the adversary applied (empty when no plan was attached —
    /// and for link-only plans in which no coin came up).
    pub faults: FaultReport,
}

impl<T: PartialEq> RunOutcome<T> {
    /// The common output if all nodes agree (the paper requires decision
    /// algorithms to be unanimous), `None` otherwise.
    pub fn unanimous(&self) -> Option<&T> {
        let first = self.outputs.first()?;
        self.outputs.iter().all(|o| o == first).then_some(first)
    }
}

/// Result of a run that tolerates crashed nodes ([`Engine::run_faulted`]):
/// crashed nodes have no output, so each slot is an `Option`, and the event
/// logs of both adversaries ride along.
///
/// Traitor nodes under a [`ByzantinePlan`] still run their (honest)
/// programs and still produce outputs — it is their *outbound messages*
/// the adversary rewrote — so agreement claims about Byzantine-tolerant
/// protocols should be stated over the honest nodes only: see
/// [`FaultedOutcome::honest_unanimous`].
#[derive(Debug, PartialEq)]
pub struct FaultedOutcome<T> {
    /// Local output of each node, indexed by node; `None` for nodes the
    /// fault plan crash-stopped before they halted.
    pub outputs: Vec<Option<T>>,
    /// Accounting for the run, including the fault and Byzantine counters.
    pub stats: RunStats,
    /// Per-node communication transcripts, if recording was enabled. A
    /// crashed node's transcript simply ends at its crash round.
    /// Transcripts record what each program *sent* — a traitor's lies are
    /// visible only in its recipients' inboxes and in the event log.
    pub transcripts: Option<Vec<Transcript>>,
    /// Every fault the [`FaultPlan`] applied, in deterministic order.
    pub faults: FaultReport,
    /// Every rewrite the [`ByzantinePlan`] applied, in deterministic order.
    pub byzantine: ByzantineReport,
}

/// The outcome of a run under a [`ByzantinePlan`]: the same type as
/// [`FaultedOutcome`]. The name is kept because the benchmark's adversary
/// workload (`ccbench/adversary.rs`) spells it.
pub type ByzantineOutcome<T> = FaultedOutcome<T>;

impl<T> FaultedOutcome<T> {
    /// The strict reading [`Engine::run`] returns: every node's output, or
    /// [`SimError::NodeCrashed`] for the lowest-indexed node without one.
    /// The Byzantine event log is dropped; its counters stay in `stats`.
    ///
    /// # Panics
    /// If an output slot is `None` without a crash event in `faults` —
    /// never the case for an outcome the engine produced.
    pub fn into_complete(self) -> Result<RunOutcome<T>, SimError> {
        let mut outputs = Vec::with_capacity(self.outputs.len());
        for (v, o) in self.outputs.into_iter().enumerate() {
            match o {
                Some(o) => outputs.push(o),
                None => {
                    let node = NodeId::from(v);
                    let round = match self.faults.crash_round(node) {
                        Some(r) => r,
                        // Every non-crashed node halts (with an output)
                        // before a run completes.
                        None => unreachable!("node without output must have crashed"),
                    };
                    return Err(SimError::NodeCrashed { node, round });
                }
            }
        }
        Ok(RunOutcome {
            outputs,
            stats: self.stats,
            transcripts: self.transcripts,
            faults: self.faults,
        })
    }
}

impl<T: PartialEq> FaultedOutcome<T> {
    /// Outputs of the nodes that survived to halt, with their ids.
    pub fn survivors(&self) -> impl Iterator<Item = (NodeId, &T)> + '_ {
        self.outputs
            .iter()
            .enumerate()
            .filter_map(|(v, o)| o.as_ref().map(|o| (NodeId::from(v), o)))
    }

    /// The common output if every *surviving* node agrees (and at least one
    /// node survived), `None` otherwise. Includes traitors — use
    /// [`FaultedOutcome::honest_unanimous`] for the guarantee
    /// Byzantine-tolerant protocols actually make.
    pub fn unanimous(&self) -> Option<&T> {
        let mut survivors = self.survivors().map(|(_, o)| o);
        let first = survivors.next()?;
        survivors.all(|o| o == first).then_some(first)
    }

    /// The common output if every surviving node *not marked as a traitor
    /// in `plan`* agrees (and at least one honest node survived), `None`
    /// otherwise. This is the agreement relation under which Bracha-style
    /// reliable broadcast is correct for `f < n/3`.
    pub fn honest_unanimous(&self, plan: &ByzantinePlan) -> Option<&T> {
        let mut honest = self
            .survivors()
            .filter(|(v, _)| !plan.is_traitor(*v))
            .map(|(_, o)| o);
        let first = honest.next()?;
        honest.all(|o| o == first).then_some(first)
    }
}

/// Engine configuration and entry point. Construct with [`Engine::new`] and
/// customise with the builder methods.
#[derive(Clone, Debug)]
pub struct Engine {
    n: usize,
    bandwidth: usize,
    max_rounds: usize,
    record_transcripts: bool,
    broadcast_only: bool,
    /// CONGEST mode: `topology[v*n + u]` = v may send to u. Empty = clique.
    topology: Arc<[bool]>,
    /// Adversary schedule; `None` (and the empty plan) leave runs
    /// byte-identical to the fault-free engine.
    fault_plan: Option<Arc<FaultPlan>>,
    /// Shift applied to the fault plan's round addressing: local round `r`
    /// consults plan round `fault_offset + r`. Lets multi-phase sessions
    /// run one continuous churn timeline even though each phase restarts
    /// its round count at 0.
    fault_offset: usize,
    /// Byzantine sender schedule; `None` (and the empty plan) leave runs
    /// byte-identical to the honest engine.
    byzantine_plan: Option<Arc<ByzantinePlan>>,
    /// Authenticated-envelope keyring; `None` leaves runs byte-identical
    /// to the unauthenticated engine (see [`crate::auth`]).
    auth: Option<Arc<AuthKeyring>>,
    /// Wall-clock budget for a whole run, checked at round boundaries.
    deadline: Option<Duration>,
    /// Cooperative cancellation flag, checked at round boundaries; shared
    /// with whoever may want to abort the run (see [`Engine::with_cancel`]).
    cancel: Option<Arc<AtomicBool>>,
}

/// Default cap on rounds; generous enough for every algorithm in this
/// workspace while still catching livelocks quickly.
const DEFAULT_MAX_ROUNDS: usize = 1 << 20;

impl Engine {
    /// An engine for an `n`-node clique with the standard bandwidth of
    /// `⌈log₂ n⌉` bits per ordered pair per round.
    pub fn new(n: usize) -> Self {
        assert!(n >= 1, "a clique needs at least one node");
        Self {
            n,
            bandwidth: BitString::width_for(n),
            max_rounds: DEFAULT_MAX_ROUNDS,
            record_transcripts: false,
            broadcast_only: false,
            topology: Arc::from(Vec::new().into_boxed_slice()),
            fault_plan: None,
            fault_offset: 0,
            byzantine_plan: None,
            auth: None,
            deadline: None,
            cancel: None,
        }
    }

    /// Restrict communication to the edges of a graph — the classic
    /// **CONGEST** model, of which the congested clique is the
    /// fully-connected special case (§3 of the paper). `adjacent[v*n+u]`
    /// must be true iff `{u, v}` is a communication link; sending to a
    /// non-neighbour becomes a runtime error. Used by the workbench to
    /// contrast bottlenecked topologies with the clique (§2).
    pub fn with_topology(mut self, adjacent: Vec<bool>) -> Self {
        assert_eq!(
            adjacent.len(),
            self.n * self.n,
            "need an n×n adjacency table"
        );
        for v in 0..self.n {
            for u in 0..self.n {
                assert_eq!(
                    adjacent[v * self.n + u],
                    adjacent[u * self.n + v],
                    "must be symmetric"
                );
            }
            assert!(!adjacent[v * self.n + v], "no self-loops");
        }
        self.topology = Arc::from(adjacent.into_boxed_slice());
        self
    }

    /// Attach a fault-injection adversary (see [`crate::fault`]). An empty
    /// plan is guaranteed byte-identical to no plan at all. Runs whose plan
    /// crashes nodes should use [`Engine::run_faulted`] to observe partial
    /// outputs — [`Engine::run`] turns a crash into
    /// [`SimError::NodeCrashed`].
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(Arc::new(plan));
        self
    }

    /// Shift the fault plan's round addressing: local round `r` consults
    /// plan round `offset + r` for crashes, rejoins, and link-fault coins,
    /// and [`crate::FaultReport`] events carry plan rounds. The default
    /// offset 0 is today's behaviour exactly. A multi-phase
    /// [`crate::Session`] advances the offset between phases (see
    /// `Session::align_fault_clock`) so one continuous churn timeline spans
    /// phases that each restart their round count at 0.
    pub fn with_fault_offset(mut self, offset: usize) -> Self {
        self.fault_offset = offset;
        self
    }

    /// The configured fault-clock offset (see
    /// [`Engine::with_fault_offset`]).
    pub fn fault_offset(&self) -> usize {
        self.fault_offset
    }

    /// Attach a Byzantine sender adversary (see [`crate::byzantine`]): the
    /// plan's traitor nodes get their outbound messages rewritten per
    /// recipient. An empty plan is guaranteed byte-identical to no plan at
    /// all. Composes with [`Engine::with_fault_plan`]: each round, traitors
    /// lie first, then link faults damage what was actually transmitted.
    /// Use [`Engine::run_faulted`] to observe the per-event rewrite log
    /// ([`FaultedOutcome::byzantine`]).
    pub fn with_byzantine_plan(mut self, plan: ByzantinePlan) -> Self {
        self.byzantine_plan = Some(Arc::new(plan));
        self
    }

    /// Attach an authenticated-message keyring (see [`crate::auth`]):
    /// every round the engine appends a [`crate::auth::TAG_BITS`]-bit tag
    /// to each non-empty outbound message after the Byzantine rewrites
    /// (lies are validly signed with the traitor's own key) and verifies
    /// every frame after the link faults, clearing the ones whose tag
    /// fails. Inboxes then hold `payload ‖ tag` frames. The envelope's
    /// work is charged to `RunStats.signed_messages` / `auth_bits` /
    /// `rejected_tags`; an engine without a keyring takes the exact
    /// unauthenticated path.
    pub fn with_auth(mut self, keyring: AuthKeyring) -> Self {
        assert_eq!(
            keyring.n(),
            self.n,
            "keyring covers {} identities but the clique has {} nodes",
            keyring.n(),
            self.n
        );
        self.auth = Some(Arc::new(keyring));
        self
    }

    /// The attached keyring, if any (see [`Engine::with_auth`]).
    pub fn auth_keyring(&self) -> Option<&AuthKeyring> {
        self.auth.as_deref()
    }

    /// Abort the run with [`SimError::DeadlineExceeded`] once `limit` of
    /// wall-clock time has elapsed (a watchdog for runaway protocols, e.g.
    /// in CI). The check runs at round boundaries, so granularity is one
    /// round's step phase. Complements [`Engine::with_max_rounds`], which
    /// bounds rounds rather than time.
    pub fn with_deadline(mut self, limit: Duration) -> Self {
        self.deadline = Some(limit);
        self
    }

    /// Share a cooperative cancellation flag with the run: once any holder
    /// stores `true`, the run aborts with [`SimError::Cancelled`] at the
    /// next round boundary. This is the hook a multi-run host (e.g. the
    /// `cc-service` batch scheduler) uses to tear down in-flight
    /// simulations without killing the worker thread they run on. The
    /// check sits next to the [`Engine::with_deadline`] watchdog, so
    /// granularity is one round's step phase.
    pub fn with_cancel(mut self, flag: Arc<AtomicBool>) -> Self {
        self.cancel = Some(flag);
        self
    }

    /// Restrict the engine to the **broadcast congested clique** (§2 of
    /// the paper): each round every node must send the *same* message to
    /// every other node (or nothing at all). Violations are runtime
    /// errors, so a unicast algorithm cannot silently pass as a broadcast
    /// one.
    pub fn broadcast_only(mut self, on: bool) -> Self {
        self.broadcast_only = on;
        self
    }

    /// Override the per-message bit budget.
    ///
    /// The paper normalises algorithms to exactly `⌈log₂ n⌉` bits by moving
    /// constant factors into the round count; passing a multiple of
    /// `⌈log₂ n⌉` here models an `O(log n)`-bandwidth algorithm directly.
    pub fn with_bandwidth(mut self, bits: usize) -> Self {
        assert!(bits >= 1, "bandwidth must be at least one bit");
        self.bandwidth = bits;
        self
    }

    /// Bandwidth `c · ⌈log₂ n⌉` for an algorithm using `O(log n)`-bit
    /// messages with constant `c`.
    pub fn with_bandwidth_multiplier(self, c: usize) -> Self {
        let b = BitString::width_for(self.n) * c;
        self.with_bandwidth(b)
    }

    /// Cap the number of communication rounds (defense against
    /// non-terminating programs).
    ///
    /// `with_max_rounds(L)` means *at most `L` communication rounds*: a
    /// program that has not halted by step index `L` fails with
    /// [`SimError::RoundLimit`] before any further exchange, so every
    /// successful run satisfies `stats.rounds <= L`. A program halting at
    /// exactly step `L` (i.e. using exactly `L` exchanges) succeeds.
    pub fn with_max_rounds(mut self, limit: usize) -> Self {
        self.max_rounds = limit;
        self
    }

    /// Record full per-node communication transcripts (memory-heavy; used
    /// by the Theorem 3 normal-form machinery and by debugging).
    pub fn with_transcripts(mut self, on: bool) -> Self {
        self.record_transcripts = on;
        self
    }

    /// Number of nodes.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Per-message bit budget.
    pub fn bandwidth(&self) -> usize {
        self.bandwidth
    }

    /// Run one program instance per node to completion.
    ///
    /// If the attached [`FaultPlan`] crash-stops a node, the run fails with
    /// [`SimError::NodeCrashed`] — this entry point promises an output for
    /// every node. Protocols meant to tolerate crashes use
    /// [`Engine::run_faulted`] instead.
    pub fn run<P: NodeProgram>(&self, programs: Vec<P>) -> Result<RunOutcome<P::Output>, SimError> {
        self.run_faulted(programs)?.into_complete()
    }

    /// Run one program instance per node under the attached [`FaultPlan`]
    /// and/or [`ByzantinePlan`] (or neither), reporting crashed nodes as
    /// `None` outputs instead of failing the run, and returning both
    /// adversaries' event logs. [`Engine::run`] is its strict reading.
    pub fn run_faulted<P: NodeProgram>(
        &self,
        programs: Vec<P>,
    ) -> Result<FaultedOutcome<P::Output>, SimError> {
        self.run_faulted_in(programs, &mut DeliveryArena::new())
    }

    /// Like [`Engine::run_faulted`], but checking the delivery buffers out
    /// of (and back into) `arena`, so repeated runs reuse allocations
    /// instead of re-allocating per run. [`crate::Session`] routes every
    /// phase through its own arena; stats are unaffected by reuse (all
    /// accounting is in logical messages, never retained capacity).
    pub(crate) fn run_faulted_in<P: NodeProgram>(
        &self,
        programs: Vec<P>,
        arena: &mut DeliveryArena,
    ) -> Result<FaultedOutcome<P::Output>, SimError> {
        // Validate before any buffer checkout: rejecting a wrong-sized
        // program vector must not cost 2·n rows and their index.
        if programs.len() != self.n {
            return Err(SimError::WrongProgramCount {
                expected: self.n,
                got: programs.len(),
            });
        }
        self.run_core(programs, arena)
    }

    /// Set up one run and drive it through [`Engine::round_loop`].
    fn run_core<P: NodeProgram>(
        &self,
        mut programs: Vec<P>,
        arena: &mut DeliveryArena,
    ) -> Result<FaultedOutcome<P::Output>, SimError> {
        let n = self.n;
        let ctxs: Vec<NodeCtx> = (0..n)
            .map(|v| NodeCtx {
                id: NodeId::from(v),
                n,
                bandwidth: self.bandwidth,
            })
            .collect();
        for (p, ctx) in programs.iter_mut().zip(&ctxs) {
            p.init(ctx);
        }

        // Double-buffered sender-major delivery buffers: in round r the
        // nodes write sender rows of buffer `r % 2` and read buffer
        // `1 - r % 2` (written in round r-1) through an Inbox view.
        // Delivery is the implicit swap; rows are cleared in place at the
        // start of the round that rewrites them. The pair comes out of the
        // arena, so repeated runs reuse the allocations.
        let mut bufs = arena.take(n);
        let mut halted = vec![false; n];
        let mut outputs: Vec<Option<P::Output>> = (0..n).map(|_| None).collect();
        let mut transcripts: Option<Vec<Transcript>> = self
            .record_transcripts
            .then(|| vec![Transcript::default(); n]);
        let mut stats = RunStats::default();
        let mut wire = Wire {
            offset: self.fault_offset,
            // An empty plan must be transparent: skip every hook it drives.
            faults: self
                .fault_plan
                .as_deref()
                .filter(|p| !p.is_empty())
                .map(FaultPlan::indexed),
            byzantine: self
                .byzantine_plan
                .as_deref()
                .filter(|p| !p.is_empty())
                .map(ByzantinePlan::indexed),
            auth: self.auth.as_deref(),
            coins: Coins::default(),
            fault_report: FaultReport::default(),
            byz_report: ByzantineReport::default(),
            auth_ledger: AuthLedger::default(),
        };
        let mut book = RoundBook::new(
            n,
            self.max_rounds,
            &mut stats,
            transcripts.as_mut(),
            wire.faults.as_ref().map(|f| f.plan),
            self.fault_offset,
        );
        let result = self.round_loop(
            &ctxs,
            &mut programs,
            &mut halted,
            &mut outputs,
            &mut bufs,
            &mut book,
            &mut wire,
        );
        // Return the buffers even on a failed run, so the next run through
        // the same arena still reuses the allocations.
        arena.put(bufs);
        result?;

        wire.fault_report.tally_into(&mut stats);
        wire.byz_report.tally_into(&mut stats);
        wire.auth_ledger.tally_into(&mut stats);
        Ok(FaultedOutcome {
            outputs,
            stats,
            transcripts,
            faults: wire.fault_report,
            byzantine: wire.byz_report,
        })
    }

    /// The round loop. Each round runs, in order: the crash and churn
    /// pre-step, the activity snapshot, the step phase (every active node
    /// in index order, so the lowest-indexed model violation is the one
    /// reported), [`RoundBook::close_round`], and — unless that ended the
    /// run — the wire passes and the deadline and cancel checks.
    #[allow(clippy::too_many_arguments)]
    fn round_loop<P: NodeProgram>(
        &self,
        ctxs: &[NodeCtx],
        programs: &mut [P],
        halted: &mut [bool],
        outputs: &mut [Option<P::Output>],
        bufs: &mut [SparseBuf; 2],
        book: &mut RoundBook<'_>,
        wire: &mut Wire<'_>,
    ) -> Result<(), SimError> {
        let n = self.n;
        let watchdog = self.deadline.map(|limit| (Instant::now(), limit));
        let mut active = vec![true; n];
        let mut round = 0usize;
        loop {
            let [a, b] = &mut *bufs;
            let (write, read) = parity([a, b], round);
            let inbound = read.view();
            if let Some(faults) = &wire.faults {
                // Crashes fire before the activity snapshot: a node crashing
                // in round r never steps in it, and the messages it was due
                // to read this round (written last round) are lost. Rejoins
                // fire right after: a node due back this round is replayed
                // over its missed window and steps again from this round on.
                let start = Instant::now();
                let report = &mut wire.fault_report;
                faults.apply_crashes(wire.offset + round, halted, &inbound, report);
                book.process_churn(
                    round,
                    faults.plan,
                    programs,
                    ctxs,
                    halted,
                    outputs,
                    &inbound,
                    report,
                )?;
                book.stats.timing.churn_ns += nanos(start, Instant::now());
            }
            for (a, h) in active.iter_mut().zip(halted.iter()) {
                *a = !*h;
            }

            // Every row is cleared first, so a halted node sends nothing.
            let step_start = Instant::now();
            let mut sent = Tally::default();
            for (v, row) in write.rows_mut().iter_mut().enumerate() {
                row.clear();
                if halted[v] {
                    continue;
                }
                let (status, tally) =
                    self.step_node(&mut programs[v], &ctxs[v], round, inbound, row)?;
                sent.fold(&tally);
                if let Status::Halt(out) = status {
                    halted[v] = true;
                    outputs[v] = Some(out);
                }
            }
            let step_end = Instant::now();

            let verdict = book.close_round(
                round, sent, write, inbound, halted, &active, step_start, step_end,
            );
            match verdict {
                Verdict::Continue => {}
                Verdict::Done => {
                    book.settle_churn();
                    return Ok(());
                }
                Verdict::Limit => {
                    return Err(SimError::RoundLimit {
                        limit: self.max_rounds,
                    })
                }
            }
            if wire.is_active() {
                let start = Instant::now();
                let timing = &mut book.stats.timing;
                wire.apply(round, &mut write.view_mut(), &inbound, timing);
                // The passes may have materialised damaged broadcast copies
                // as new entries: index what the next round reads.
                write.index_receivers();
                timing.passes_ns += nanos(start, Instant::now());
            }

            if let Some((start, limit)) = watchdog {
                if start.elapsed() >= limit {
                    return Err(SimError::DeadlineExceeded { limit });
                }
            }
            if let Some(flag) = &self.cancel {
                if flag.load(Ordering::Relaxed) {
                    return Err(SimError::Cancelled { round });
                }
            }
            round += 1;
        }
    }

    /// Step one node and check its sealed row against the model. `read` is
    /// the buffer written last round (the node reads it through an inbox
    /// view), `row` the node's cleared row of this round's buffer. Returns
    /// the node's status and what its row sends.
    fn step_node<P: NodeProgram>(
        &self,
        prog: &mut P,
        ctx: &NodeCtx,
        round: usize,
        read: BufView<'_>,
        row: &mut SparseRow,
    ) -> Result<(Status<P::Output>, Tally), SimError> {
        let n = ctx.n;
        let v = ctx.id.index();
        let inbox = Inbox::new(read, v);
        let status = {
            let mut outbox = Outbox::row(row, n, v);
            // A panicking program becomes a structured error: the engine
            // (and its caller) must stay usable after a buggy algorithm.
            catch_unwind(AssertUnwindSafe(|| {
                prog.step(ctx, round, &inbox, &mut outbox)
            }))
            .map_err(|payload| SimError::NodeProgramPanicked {
                node: ctx.id,
                round,
                message: panic_message(payload),
            })?
        };
        row.seal();
        let row: &SparseRow = row;
        if !self.topology.is_empty() {
            for (u, _m) in row.messages(n, v) {
                if !self.topology[v * n + u] {
                    return Err(SimError::TopologyViolated {
                        from: ctx.id,
                        to: NodeId::from(u),
                        round,
                    });
                }
            }
        }
        // One walk over the row's distinct payloads, each with the number
        // of recipients it reaches: a broadcast is one payload however many
        // copies it makes, so the checks and the tally cost O(1 +
        // overrides).
        let mut tally = Tally::default();
        let mut common: Option<&BitString> = None;
        let mut identical = true;
        for (copies, m) in row.payloads(n) {
            if self.broadcast_only {
                identical &= *common.get_or_insert(m) == m;
            }
            tally.messages += copies as u64;
            tally.bits += copies as u64 * m.len() as u64;
            tally.max_message_bits = tally.max_message_bits.max(m.len());
        }
        // Broadcast-only: all non-empty outgoing messages must be
        // identical, and a node addresses everyone or no one. The error
        // names no recipient, so the payloads decide it alone.
        if self.broadcast_only
            && (!identical || (tally.messages != 0 && tally.messages != n as u64 - 1))
        {
            return Err(SimError::BroadcastViolated {
                from: ctx.id,
                round,
            });
        }
        if tally.max_message_bits > self.bandwidth {
            // The error names the first oversized copy in recipient order.
            if let Some((u, m)) = row.messages(n, v).find(|(_, m)| m.len() > self.bandwidth) {
                return Err(SimError::BandwidthExceeded {
                    from: ctx.id,
                    to: NodeId::from(u),
                    round,
                    bits: m.len(),
                    limit: self.bandwidth,
                });
            }
        }
        Ok((status, tally))
    }
}

/// The adversary's wire passes over one run, with their event logs. Each
/// plan is `None` when absent or empty, so an empty plan runs no pass.
struct Wire<'a> {
    /// Fault-clock offset: local round `r` is plan round `offset + r`.
    offset: usize,
    faults: Option<IndexedFaultPlan<'a>>,
    byzantine: Option<IndexedByzantinePlan<'a>>,
    auth: Option<&'a AuthKeyring>,
    /// The primed coin streams of the row a pass is visiting.
    coins: Coins,
    fault_report: FaultReport,
    byz_report: ByzantineReport,
    /// The round book borrows `stats` for the whole loop, so the envelope
    /// passes charge a local ledger folded in afterwards.
    auth_ledger: AuthLedger,
}

impl Wire<'_> {
    /// Whether any wire pass runs.
    fn is_active(&self) -> bool {
        self.faults.is_some() || self.byzantine.is_some() || self.auth.is_some()
    }

    /// Apply the wire passes to the round's closed write buffer `sent`, in
    /// their one order: Byzantine rewrites → sign → forged tags → link
    /// faults → verify, each timed into its own `timing` total. Stats and
    /// transcripts already record what the programs sent; next round's
    /// inboxes see what survives the wire. `read` is the buffer the nodes
    /// read this round.
    fn apply(
        &mut self,
        round: usize,
        sent: &mut BufViewMut<'_>,
        read: &BufView<'_>,
        timing: &mut EngineTiming,
    ) {
        let coins = &mut self.coins;
        if let Some(byz) = &self.byzantine {
            // Traitors lie first; what they received this round (`read`) is
            // the adaptive-lying input.
            timed(&mut timing.rewrite_ns, || {
                byz.apply_rewrites(round, sent, read, coins, &mut self.byz_report)
            });
        }
        if let Some(keyring) = self.auth {
            // Signing runs after the payload rewrites: a traitor's lies are
            // validly signed with its own key (it owns it), while everything
            // downstream — forged tags, wire damage — breaks the tag.
            timed(&mut timing.sign_ns, || {
                keyring.sign_round(round, sent, coins, &mut self.auth_ledger)
            });
            if let Some(byz) = self
                .byzantine
                .as_ref()
                .filter(|b| b.plan.has_tag_forgeries())
            {
                timed(&mut timing.forge_ns, || {
                    byz.apply_tag_forgeries(round, sent, coins, &mut self.byz_report)
                });
            }
        }
        if let Some(faults) = self.faults.as_ref().filter(|f| f.plan.has_link_faults()) {
            let report = &mut self.fault_report;
            timed(&mut timing.faults_ns, || {
                faults.apply_link_faults(self.offset + round, sent, coins, report)
            });
        }
        if let Some(keyring) = self.auth {
            // Verification is the last word on the wire: any frame whose
            // tag fails (forged or damaged after signing) is cleared before
            // delivery.
            timed(&mut timing.verify_ns, || {
                keyring.verify_round(round, sent, coins, &mut self.auth_ledger)
            });
        }
    }
}

/// Run `pass`, adding its wall-clock nanoseconds to `total`.
fn timed(total: &mut u64, pass: impl FnOnce()) {
    let start = Instant::now();
    pass();
    *total += nanos(start, Instant::now());
}

/// Round `round`'s `(write, read)` halves of a double buffer: nodes write
/// `pair[round % 2]` and read the other half, which the previous round
/// wrote.
fn parity<T>(pair: [T; 2], round: usize) -> (T, T) {
    let [a, b] = pair;
    if round.is_multiple_of(2) {
        (a, b)
    } else {
        (b, a)
    }
}

/// What a round's nodes sent: the step phase's contribution to
/// [`RunStats`].
#[derive(Default, Clone, Copy)]
struct Tally {
    messages: u64,
    bits: u64,
    max_message_bits: usize,
}

impl Tally {
    fn fold(&mut self, other: &Tally) {
        self.messages += other.messages;
        self.bits += other.bits;
        self.max_message_bits = self.max_message_bits.max(other.max_message_bits);
    }
}

/// What the bookkeeper decided after a step phase.
enum Verdict {
    /// Run the next round.
    Continue,
    /// Every node halted; the run is complete.
    Done,
    /// The round limit was hit with nodes still active.
    Limit,
}

/// State-sync bookkeeping for one crash the plan will later rejoin.
struct PendingRejoin {
    /// Engine-local round the crash fired at the start of.
    crash_round: usize,
    /// Engine-local round the rejoin is due at the start of.
    rejoin_round: usize,
    /// Inbound columns for the missed rounds, recorded at each round start
    /// while the node is down: entry `j` is what the node would have read
    /// in round `crash_round + j` (entry 0 is the in-flight traffic at
    /// crash time).
    window: Vec<Vec<BitString>>,
    /// Per-round traffic sent *to* the node while down, keyed by the round
    /// it was written in — diverted from the undelivered counters until the
    /// rejoin settles whether the replay delivered it.
    diverted: Vec<(usize, u64, u64)>,
}

/// Churn bookkeeping: one pending slot per node, plus the fault-clock
/// offset. Only allocated when the plan schedules rejoins, so crash-only
/// plans take the exact pre-churn code path.
struct ChurnState {
    offset: usize,
    pending: Vec<Option<PendingRejoin>>,
}

/// Per-round bookkeeping of the round loop, between step phases.
struct RoundBook<'a> {
    n: usize,
    max_rounds: usize,
    stats: &'a mut RunStats,
    transcripts: Option<&'a mut Vec<Transcript>>,
    /// Payload bits written in the previous round, still live in the read
    /// buffer during this round's step phase.
    prev_round_bits: u64,
    /// Whether any node has halted so far; skips the undelivered scan on
    /// the all-active prefix of a run (the common case).
    any_halted: bool,
    /// Rejoin/state-sync bookkeeping; `None` for rejoin-free plans.
    churn: Option<ChurnState>,
}

impl<'a> RoundBook<'a> {
    fn new(
        n: usize,
        max_rounds: usize,
        stats: &'a mut RunStats,
        transcripts: Option<&'a mut Vec<Transcript>>,
        plan: Option<&FaultPlan>,
        fault_offset: usize,
    ) -> Self {
        let churn = plan.filter(|p| p.has_rejoins()).map(|_| ChurnState {
            offset: fault_offset,
            pending: (0..n).map(|_| None).collect(),
        });
        Self {
            n,
            max_rounds,
            stats,
            transcripts,
            prev_round_bits: 0,
            any_halted: false,
            churn,
        }
    }

    /// Round-start churn pass, called right after `apply_crashes` in the
    /// round loop's pre-step: register fresh crash victims the plan will
    /// rejoin, replay the missed window to nodes due back this round, and
    /// record the inbound column for every node still down.
    #[allow(clippy::too_many_arguments)]
    fn process_churn<P: NodeProgram>(
        &mut self,
        round: usize,
        plan: &FaultPlan,
        programs: &mut [P],
        ctxs: &[NodeCtx],
        halted: &mut [bool],
        outputs: &mut [Option<P::Output>],
        inbound: &BufView<'_>,
        report: &mut FaultReport,
    ) -> Result<(), SimError> {
        let n = self.n;
        let Self {
            churn,
            transcripts,
            stats,
            ..
        } = self;
        let Some(churn) = churn.as_mut() else {
            return Ok(());
        };
        let plan_round = churn.offset + round;
        // 1. Fresh crashes: `apply_crashes` just appended this round's
        // Crashed events at the report's tail. A victim with a scheduled
        // future rejoin gets a pending window; one without follows the
        // plain crash path untouched.
        for e in report.events.iter().rev() {
            let FaultEvent::Crashed { node, round: r, .. } = e else {
                break;
            };
            if *r != plan_round {
                break;
            }
            if let Some(pr) = plan.next_rejoin_after(*node, plan_round) {
                churn.pending[node.index()] = Some(PendingRejoin {
                    crash_round: round,
                    rejoin_round: round + (pr - plan_round),
                    window: Vec::new(),
                    diverted: Vec::new(),
                });
            }
        }
        // 2. Rejoins due at this round start, in node order.
        for v in 0..n {
            let due = churn.pending[v]
                .as_ref()
                .is_some_and(|p| p.rejoin_round == round);
            if !due {
                continue;
            }
            if let Some(p) = churn.pending[v].take() {
                replay_rejoin::<P>(
                    v,
                    plan_round,
                    p,
                    &mut programs[v],
                    &ctxs[v],
                    &mut halted[v],
                    &mut outputs[v],
                    transcripts.as_deref_mut(),
                    stats,
                    report,
                )?;
            }
        }
        // 3. Record the inbound column (what the node would have read this
        // round) for every node still awaiting its rejoin.
        for v in 0..n {
            if let Some(p) = churn.pending[v].as_mut() {
                let mut column = vec![BitString::new(); n];
                for (u, m) in inbound.column(v) {
                    column[u] = m.clone();
                }
                p.window.push(column);
            }
        }
        Ok(())
    }

    /// Charge the diverted traffic of nodes whose rejoin never fired (the
    /// run completed first): their windows were never replayed, so those
    /// payloads really were undelivered. Called once on [`Verdict::Done`].
    fn settle_churn(&mut self) {
        let Self { churn, stats, .. } = self;
        if let Some(churn) = churn.as_mut() {
            for slot in churn.pending.iter_mut() {
                if let Some(p) = slot.take() {
                    for (_, msgs, bits) in p.diverted {
                        stats.undelivered_messages += msgs;
                        stats.undelivered_bits += bits;
                    }
                }
            }
        }
    }

    /// Account for one completed step phase: `write` is the buffer the
    /// nodes just wrote, whose receivers this indexes first, `read` the one
    /// they read, `halted` the post-step halt flags, `active` the pre-step
    /// activity mask.
    #[allow(clippy::too_many_arguments)]
    fn close_round(
        &mut self,
        round: usize,
        sent: Tally,
        write: &mut SparseBuf,
        read: BufView<'_>,
        halted: &[bool],
        active: &[bool],
        step_start: Instant,
        step_end: Instant,
    ) -> Verdict {
        write.index_receivers();
        let cur = write.view();
        self.stats.messages += sent.messages;
        self.stats.bits += sent.bits;
        self.stats.max_message_bits = self.stats.max_message_bits.max(sent.max_message_bits);
        let live_bits = self.prev_round_bits + sent.bits;
        self.stats.peak_live_payload_bytes = self
            .stats
            .peak_live_payload_bytes
            .max((live_bits as usize).div_ceil(8));
        self.prev_round_bits = sent.bits;

        if let Some(ts) = self.transcripts.as_deref_mut() {
            record_round(ts, active, &read, &cur);
        }

        let mut all_halted = true;
        for h in halted {
            all_halted &= *h;
            self.any_halted |= *h;
        }
        // Sends towards nodes that will never step again are dead on the
        // wire; charge them to the undelivered counters (they remain part of
        // `messages`/`bits` — see stats module docs for the semantics). A
        // receiver with a pending rejoin is *not* charged yet: its traffic
        // is diverted into the pending ledger, and the rejoin (or the run's
        // end) settles whether the replay actually delivered it.
        if self.any_halted && sent.messages > 0 {
            let mut pending = self.churn.as_mut().map(|c| &mut c.pending);
            for (u, h) in halted.iter().enumerate() {
                if !*h {
                    continue;
                }
                let (msgs, bits) = cur
                    .column(u)
                    .fold((0u64, 0u64), |(c, b), (_, m)| (c + 1, b + m.len() as u64));
                if msgs == 0 {
                    continue;
                }
                match pending.as_mut().and_then(|p| p[u].as_mut()) {
                    Some(p) => p.diverted.push((round, msgs, bits)),
                    None => {
                        self.stats.undelivered_messages += msgs;
                        self.stats.undelivered_bits += bits;
                    }
                }
            }
        }

        let now = Instant::now();
        self.stats.timing.step_ns += nanos(step_start, step_end);
        self.stats.timing.delivery_ns += nanos(step_end, now);
        self.stats.timing.step_phases += 1;

        if all_halted {
            self.stats.rounds = round;
            return Verdict::Done;
        }
        if round >= self.max_rounds {
            return Verdict::Limit;
        }
        Verdict::Continue
    }
}

fn nanos(from: Instant, to: Instant) -> u64 {
    to.saturating_duration_since(from).as_nanos() as u64
}

/// Best-effort extraction of a panic payload's message (the payloads of
/// `panic!("…")` are `&str` or `String`; anything else is opaque).
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    match payload.downcast_ref::<&str>() {
        Some(s) => (*s).to_string(),
        None => match payload.downcast_ref::<String>() {
            Some(s) => s.clone(),
            None => "<non-string panic payload>".to_string(),
        },
    }
}

/// Replay a rejoining node's missed window as state-sync rounds.
///
/// Each recorded column is re-delivered through an [`Inbox`] with the
/// *original* round index, so the program observes exactly the rounds it
/// missed; its sends go into discarded scratch (a dead node put nothing on
/// the wire, and the live cluster already ran those rounds without it). The
/// replay's bandwidth is charged to the `sync_*` counters and its receives
/// are backfilled into the node's transcript as received-only rounds, so
/// cc-testkit's auditor can price and cross-check the sync protocol.
///
/// A program may legitimately halt (or panic) mid-replay; the rounds it
/// never re-read stay on the undelivered ledger via the diverted tuples.
#[allow(clippy::too_many_arguments)]
fn replay_rejoin<P: NodeProgram>(
    v: usize,
    rejoin_plan_round: usize,
    p: PendingRejoin,
    prog: &mut P,
    ctx: &NodeCtx,
    halted: &mut bool,
    output: &mut Option<P::Output>,
    mut transcripts: Option<&mut Vec<Transcript>>,
    stats: &mut RunStats,
    report: &mut FaultReport,
) -> Result<(), SimError> {
    let n = ctx.n;
    let PendingRejoin {
        crash_round,
        window,
        diverted,
        ..
    } = p;
    let mut scratch = vec![BitString::new(); n];
    let mut sync_rounds = 0u64;
    let mut sync_messages = 0u64;
    let mut sync_bits = 0u64;
    let mut halted_at: Option<usize> = None;
    for (j, column) in window.into_iter().enumerate() {
        let t = crash_round + j;
        sync_rounds += 1;
        for m in column.iter() {
            if !m.is_empty() {
                sync_messages += 1;
                sync_bits += m.len() as u64;
            }
        }
        if let Some(ts) = transcripts.as_deref_mut() {
            let mut rt = RoundTranscript::default();
            for (u, m) in column.iter().enumerate() {
                if !m.is_empty() {
                    rt.received.push((NodeId::from(u), m.clone()));
                }
            }
            ts[v].rounds.push(rt);
        }
        for s in scratch.iter_mut() {
            s.clear();
        }
        let inbox = Inbox::from_slots(&column, v);
        let status = {
            let mut outbox = Outbox::new(&mut scratch, v);
            catch_unwind(AssertUnwindSafe(|| prog.step(ctx, t, &inbox, &mut outbox))).map_err(
                |payload| SimError::NodeProgramPanicked {
                    node: NodeId::from(v),
                    round: t,
                    message: panic_message(payload),
                },
            )?
        };
        if let Status::Halt(out) = status {
            *output = Some(out);
            halted_at = Some(t);
            break;
        }
    }
    if halted_at.is_none() {
        *halted = false;
    }
    // Settle the diverted ledger: a full replay re-delivered everything, a
    // mid-replay halt leaves the rounds written at or after the halt unread
    // (the halt round itself read the column written one round earlier).
    if let Some(t) = halted_at {
        for (written, msgs, bits) in diverted {
            if written >= t {
                stats.undelivered_messages += msgs;
                stats.undelivered_bits += bits;
            }
        }
    }
    // The sync counters flow into `RunStats` when the run's report is
    // tallied (`FaultReport::tally_into`), exactly like the crash counters.
    report.events.push(FaultEvent::Rejoined {
        node: NodeId::from(v),
        round: rejoin_plan_round,
        sync_rounds,
        sync_messages,
        sync_bits,
    });
    Ok(())
}

/// Append this round's sends and receives to the transcripts of the nodes
/// that were active when the round started. Both views are sender-major:
/// this round node `v` received column `v` of `prev` and sent row `v` of
/// `cur`.
fn record_round(
    transcripts: &mut [Transcript],
    active: &[bool],
    prev: &BufView<'_>,
    cur: &BufView<'_>,
) {
    let entry = |(u, m): (usize, &BitString)| (NodeId::from(u), m.clone());
    for (v, ts) in transcripts.iter_mut().enumerate() {
        if !active[v] {
            continue;
        }
        ts.rounds.push(RoundTranscript {
            received: prev.column(v).map(entry).collect(),
            sent: cur.row(v).map(entry).collect(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::{Inbox, Outbox};

    /// Every node broadcasts its id, collects everyone else's, outputs the sum.
    struct SumIds {
        seen: u64,
    }

    impl NodeProgram for SumIds {
        type Output = u64;

        fn step(
            &mut self,
            ctx: &NodeCtx,
            round: usize,
            inbox: &Inbox<'_>,
            outbox: &mut Outbox<'_>,
        ) -> Status<u64> {
            match round {
                0 => {
                    let mut m = BitString::new();
                    m.push_uint(ctx.id.0 as u64, ctx.id_width());
                    outbox.broadcast(&m);
                    self.seen = ctx.id.0 as u64;
                    Status::Continue
                }
                _ => {
                    for (_, msg) in inbox.iter() {
                        self.seen += msg.reader().read_uint(ctx.id_width()).unwrap();
                    }
                    Status::Halt(self.seen)
                }
            }
        }
    }

    fn sum_ids(n: usize) -> Vec<SumIds> {
        (0..n).map(|_| SumIds { seen: 0 }).collect()
    }

    #[test]
    fn broadcast_sum_of_ids() {
        let n = 8;
        let out = Engine::new(n).run(sum_ids(n)).unwrap();
        let expect = (0..n as u64).sum::<u64>();
        assert_eq!(out.outputs, vec![expect; n]);
        assert_eq!(out.stats.rounds, 1);
        assert_eq!(out.stats.messages, (n * (n - 1)) as u64);
        assert_eq!(out.stats.max_message_bits, 3);
        assert_eq!(*out.unanimous().unwrap(), expect);
        // Nobody halts while payloads are in flight here.
        assert_eq!(out.stats.undelivered_messages, 0);
        assert_eq!(out.stats.undelivered_bits, 0);
        // 56 three-bit messages live at once: ceil(168/8) bytes.
        assert_eq!(out.stats.peak_live_payload_bytes, 21);
    }

    struct Silent;
    impl NodeProgram for Silent {
        type Output = ();
        fn step(&mut self, _: &NodeCtx, _: usize, _: &Inbox<'_>, _: &mut Outbox<'_>) -> Status<()> {
            Status::Halt(())
        }
    }

    #[test]
    fn zero_round_algorithm() {
        let out = Engine::new(5)
            .run(vec![Silent, Silent, Silent, Silent, Silent])
            .unwrap();
        assert_eq!(out.stats.rounds, 0);
        assert_eq!(out.stats.messages, 0);
    }

    struct TooWide;
    impl NodeProgram for TooWide {
        type Output = ();
        fn step(
            &mut self,
            ctx: &NodeCtx,
            _: usize,
            _: &Inbox<'_>,
            ob: &mut Outbox<'_>,
        ) -> Status<()> {
            if ctx.id.0 == 0 {
                ob.send(NodeId(1), BitString::zeros(ctx.bandwidth + 1));
            }
            Status::Halt(())
        }
    }

    #[test]
    fn bandwidth_violation_detected() {
        let err = Engine::new(4)
            .run(vec![TooWide, TooWide, TooWide, TooWide])
            .unwrap_err();
        match err {
            SimError::BandwidthExceeded {
                from,
                to,
                bits,
                limit,
                ..
            } => {
                assert_eq!(from, NodeId(0));
                assert_eq!(to, NodeId(1));
                assert_eq!(bits, limit + 1);
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    struct Forever;
    impl NodeProgram for Forever {
        type Output = ();
        fn step(&mut self, _: &NodeCtx, _: usize, _: &Inbox<'_>, _: &mut Outbox<'_>) -> Status<()> {
            Status::Continue
        }
    }

    #[test]
    fn round_limit_enforced() {
        for (n, limit) in [(2, 10), (8, 3)] {
            let err = Engine::new(n)
                .with_max_rounds(limit)
                .run((0..n).map(|_| Forever).collect::<Vec<_>>())
                .unwrap_err();
            assert_eq!(err, SimError::RoundLimit { limit });
        }
    }

    #[test]
    fn wrong_program_count_rejected() {
        let err = Engine::new(3).run(vec![Silent, Silent]).unwrap_err();
        assert_eq!(
            err,
            SimError::WrongProgramCount {
                expected: 3,
                got: 2
            }
        );
    }

    /// Two nodes ping-pong a counter for a fixed number of rounds; checks
    /// that messages cross exactly one round later.
    struct PingPong {
        rounds: usize,
    }
    impl NodeProgram for PingPong {
        type Output = u64;
        fn step(
            &mut self,
            ctx: &NodeCtx,
            round: usize,
            inbox: &Inbox<'_>,
            ob: &mut Outbox<'_>,
        ) -> Status<u64> {
            let peer = NodeId(1 - ctx.id.0);
            let got = if round == 0 {
                0
            } else {
                inbox
                    .from(peer)
                    .reader()
                    .read_uint(ctx.bandwidth.min(8))
                    .unwrap_or(0)
            };
            if round == self.rounds {
                return Status::Halt(got);
            }
            let mut m = BitString::new();
            m.push_uint((got + 1).min(255), 8.min(ctx.bandwidth));
            ob.send(peer, m);
            Status::Continue
        }
    }

    #[test]
    fn ping_pong_counts_rounds() {
        let n = 2;
        let out = Engine::new(n)
            .with_bandwidth(8)
            .run(vec![PingPong { rounds: 5 }, PingPong { rounds: 5 }])
            .unwrap();
        // After 5 exchanges each node has seen a counter of 5.
        assert_eq!(out.outputs, vec![5, 5]);
        assert_eq!(out.stats.rounds, 5);
    }

    #[test]
    fn max_rounds_boundary_is_exact() {
        // A program halting at step index 5 uses exactly 5 communication
        // rounds; a limit of 5 must admit it...
        let out = Engine::new(2)
            .with_bandwidth(8)
            .with_max_rounds(5)
            .run(vec![PingPong { rounds: 5 }, PingPong { rounds: 5 }])
            .unwrap();
        assert_eq!(out.stats.rounds, 5);
        // ...and a limit of 4 must reject it before a sixth exchange.
        let err = Engine::new(2)
            .with_bandwidth(8)
            .with_max_rounds(4)
            .run(vec![PingPong { rounds: 5 }, PingPong { rounds: 5 }])
            .unwrap_err();
        assert_eq!(err, SimError::RoundLimit { limit: 4 });
    }

    #[test]
    fn max_rounds_zero_admits_zero_round_algorithms() {
        let out = Engine::new(3)
            .with_max_rounds(0)
            .run(vec![Silent, Silent, Silent])
            .unwrap();
        assert_eq!(out.stats.rounds, 0);
        let err = Engine::new(2)
            .with_max_rounds(0)
            .run(vec![Forever, Forever])
            .unwrap_err();
        assert_eq!(err, SimError::RoundLimit { limit: 0 });
    }

    /// Node 0 halts immediately; node 1 sends it a 3-bit payload in round 0
    /// (accepted on the wire, never read) and halts one round later.
    struct EagerAndSender;
    impl NodeProgram for EagerAndSender {
        type Output = ();
        fn step(
            &mut self,
            ctx: &NodeCtx,
            round: usize,
            _: &Inbox<'_>,
            ob: &mut Outbox<'_>,
        ) -> Status<()> {
            if ctx.id.0 == 0 {
                return Status::Halt(());
            }
            if round == 0 {
                ob.send(NodeId(0), BitString::from_bits([true, false, true]));
                Status::Continue
            } else {
                Status::Halt(())
            }
        }
    }

    #[test]
    fn undelivered_payloads_are_accounted() {
        let out = Engine::new(2)
            .with_bandwidth(3)
            .run(vec![EagerAndSender, EagerAndSender])
            .unwrap();
        // The payload is charged at send time...
        assert_eq!(out.stats.messages, 1);
        assert_eq!(out.stats.bits, 3);
        // ...and also recognised as dead on the wire: its recipient halted
        // in the same round it was sent.
        assert_eq!(out.stats.undelivered_messages, 1);
        assert_eq!(out.stats.undelivered_bits, 3);
        assert_eq!(out.stats.rounds, 1);
    }

    /// Node v halts at step v, counting every message it received; active
    /// nodes broadcast every round. Staggered halting exercises undelivered
    /// accounting and the clearing of halted nodes' buffer rows.
    struct Staggered {
        received: u64,
    }
    impl NodeProgram for Staggered {
        type Output = u64;
        fn step(
            &mut self,
            ctx: &NodeCtx,
            round: usize,
            inbox: &Inbox<'_>,
            ob: &mut Outbox<'_>,
        ) -> Status<u64> {
            self.received += inbox.iter().count() as u64;
            if round >= ctx.id.index() {
                return Status::Halt(self.received);
            }
            let mut m = BitString::new();
            m.push_uint(round as u64 & 0xff, 8);
            ob.broadcast(&m);
            Status::Continue
        }
    }

    /// Expected receive count for node v: at step r (1 ≤ r ≤ v) it hears
    /// from every u ≠ v that was still sending in round r-1, i.e. u > r-1.
    fn staggered_expect(n: usize) -> Vec<u64> {
        (0..n)
            .map(|v| {
                (1..=v)
                    .map(|r| (r..n).filter(|u| *u != v).count() as u64)
                    .sum()
            })
            .collect()
    }

    /// A splitmix64 stream, seeded per node and round.
    struct Coin(u64);

    impl Coin {
        fn below(&mut self, k: u64) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) % k
        }

        fn payload(&mut self, bandwidth: usize) -> BitString {
            let len = 1 + self.below(bandwidth as u64) as usize;
            (0..len).map(|_| self.below(2) == 1).collect()
        }
    }

    /// Write `payload` to `to` one of four ways — an empty `send`, an
    /// empty `send_with`, a `send_with` that builds it in place, or a
    /// `send` — and mirror the write in the model row.
    fn scribble(
        ob: &mut Outbox<'_>,
        row: &mut [BitString],
        to: usize,
        payload: &BitString,
        how: u64,
    ) {
        let id = NodeId::from(to);
        row[to] = match how {
            0 => {
                ob.send(id, BitString::new());
                BitString::new()
            }
            1 => {
                ob.send_with(id, |_| ());
                BitString::new()
            }
            2..=4 => {
                ob.send_with(id, |slot| slot.extend_from(payload));
                payload.clone()
            }
            _ => {
                ob.send(id, payload.clone());
                payload.clone()
            }
        };
    }

    /// Seeded writes of every shape, halting at `halt_at`. Each round a
    /// node picks one plan: random sends and broadcasts; a broadcast
    /// overridden at a few recipients, some with empty messages; every
    /// recipient in descending order, then repeats into the full row; or
    /// an ascending sweep that sometimes writes a recipient twice. Every
    /// step checks the inbox walk against a lookup of every sender, and
    /// the output is what the node heard and what its model row held after
    /// each step, by round.
    struct Scribbler {
        halt_at: usize,
        heard: Vec<Vec<(usize, BitString)>>,
        wrote: Vec<Vec<(usize, BitString)>>,
    }

    type Scribbled = (Vec<Vec<(usize, BitString)>>, Vec<Vec<(usize, BitString)>>);

    impl NodeProgram for Scribbler {
        type Output = Scribbled;
        fn step(
            &mut self,
            ctx: &NodeCtx,
            round: usize,
            inbox: &Inbox<'_>,
            ob: &mut Outbox<'_>,
        ) -> Status<Scribbled> {
            let (n, me) = (ctx.n, ctx.id.index());
            let walked: Vec<(usize, BitString)> =
                inbox.iter().map(|(u, m)| (u.index(), m.clone())).collect();
            let scanned: Vec<(usize, BitString)> = (0..n)
                .map(|u| (u, inbox.from(NodeId::from(u)).clone()))
                .filter(|(_, m)| !m.is_empty())
                .collect();
            assert_eq!(walked, scanned, "node {me}, round {round}: inbox walk");
            self.heard.push(walked);
            if round == self.halt_at {
                let out = (
                    std::mem::take(&mut self.heard),
                    std::mem::take(&mut self.wrote),
                );
                return Status::Halt(out);
            }
            let mut coin = Coin((me as u64) << 32 | round as u64);
            let bw = ctx.bandwidth;
            let mut row = vec![BitString::new(); n];
            let other = |coin: &mut Coin| (me + 1 + coin.below(n as u64 - 1) as usize) % n;
            match coin.below(4) {
                0 => {
                    for _ in 0..1 + coin.below(12) {
                        let to = other(&mut coin);
                        let payload = coin.payload(bw);
                        if coin.below(10) == 0 {
                            ob.broadcast(&payload);
                            for (u, slot) in row.iter_mut().enumerate() {
                                if u != me {
                                    *slot = payload.clone();
                                }
                            }
                        } else {
                            let how = coin.below(10);
                            scribble(ob, &mut row, to, &payload, how);
                        }
                    }
                }
                1 => {
                    let payload = coin.payload(bw);
                    ob.broadcast(&payload);
                    for (u, slot) in row.iter_mut().enumerate() {
                        if u != me {
                            *slot = payload.clone();
                        }
                    }
                    for _ in 0..1 + coin.below(6) {
                        let to = other(&mut coin);
                        let payload = coin.payload(bw);
                        let how = coin.below(6);
                        scribble(ob, &mut row, to, &payload, how);
                    }
                }
                2 => {
                    for to in (0..n).rev().filter(|&u| u != me) {
                        let payload = coin.payload(bw);
                        scribble(ob, &mut row, to, &payload, 2 + coin.below(8));
                    }
                    for _ in 0..1 + coin.below(8) {
                        let to = other(&mut coin);
                        let payload = coin.payload(bw);
                        let how = coin.below(10);
                        scribble(ob, &mut row, to, &payload, how);
                    }
                }
                _ => {
                    for to in (0..n).filter(|&u| u != me) {
                        if coin.below(3) != 0 {
                            continue;
                        }
                        for _ in 0..1 + (coin.below(4) == 0) as usize {
                            let payload = coin.payload(bw);
                            let how = coin.below(10);
                            scribble(ob, &mut row, to, &payload, how);
                        }
                    }
                }
            }
            self.wrote.push(
                row.into_iter()
                    .enumerate()
                    .filter(|(_, m)| !m.is_empty())
                    .collect(),
            );
            Status::Continue
        }
    }

    #[test]
    fn buffer_walks_match_the_model_rows() {
        use crate::auth::AuthKeyring;
        use crate::byzantine::ByzantinePlan;
        let n = 70;
        let rounds = 12;
        let mk = || {
            (0..n)
                .map(|v| Scribbler {
                    // Node 5's row stays cleared from round 3 on, while
                    // the others keep sending to it.
                    halt_at: if v == 5 { 3 } else { rounds },
                    heard: Vec::new(),
                    wrote: Vec::new(),
                })
                .collect::<Vec<_>>()
        };
        // Link faults empty some messages (drops) and rewrite others in
        // place, traitors garble and silence single copies, broadcast ones
        // included, and verification clears the frames the wire broke:
        // every pass that can add an entry after the step phase.
        let plan = FaultPlan::new(77).drop_messages(0.3).corrupt_messages(0.2);
        let byz = ByzantinePlan::new(5)
            .with_random_traitors(n, 6, &[])
            .garble(0.3)
            .silence(0.2);
        let keyring = AuthKeyring::from_seed(n, 9);
        let out = Engine::new(n)
            .with_bandwidth(8)
            .with_transcripts(true)
            .with_fault_plan(plan)
            .with_byzantine_plan(byz)
            .with_auth(keyring)
            .run_faulted(mk())
            .unwrap();
        assert!(out.stats.dropped_messages > 0, "drops fired");
        assert!(out.stats.forged_messages > 0, "traitors lied");
        assert!(out.stats.silenced_messages > 0, "traitors went quiet");
        assert!(out.stats.rejected_tags > 0, "verification rejected frames");
        assert!(out.stats.undelivered_messages > 0, "halted row heard");
        // The row checks count exactly the non-empty messages each model
        // row held, and the transcripts record exactly those, and exactly
        // what each inbox walk met.
        let (mut messages, mut bits) = (0u64, 0u64);
        let transcripts = out.transcripts.as_ref().map_or(&[][..], |t| &t[..]);
        for (v, o) in out.outputs.iter().enumerate() {
            let Some((heard, wrote)) = o else {
                panic!("node {v} did not halt");
            };
            assert_eq!(transcripts[v].rounds.len(), heard.len());
            for (r, rt) in transcripts[v].rounds.iter().enumerate() {
                // The halting round writes nothing.
                let row = wrote.get(r).map_or(&[][..], |row| &row[..]);
                messages += row.len() as u64;
                bits += row.iter().map(|(_, m)| m.len() as u64).sum::<u64>();
                let sent: Vec<(usize, BitString)> = rt
                    .sent
                    .iter()
                    .map(|(u, m)| (u.index(), m.clone()))
                    .collect();
                assert_eq!(sent, row, "node {v}, round {r}: sent");
                let received: Vec<(usize, BitString)> = rt
                    .received
                    .iter()
                    .map(|(u, m)| (u.index(), m.clone()))
                    .collect();
                assert_eq!(received, heard[r], "node {v}, round {r}: received");
            }
        }
        assert_eq!(out.stats.messages, messages);
        assert_eq!(out.stats.bits, bits);
    }

    #[test]
    fn staggered_halts_neither_lose_nor_ghost_deliveries() {
        let n = 9;
        let out = Engine::new(n)
            .with_bandwidth(8)
            .run((0..n).map(|_| Staggered { received: 0 }).collect())
            .unwrap();
        assert_eq!(out.outputs, staggered_expect(n), "ghost or lost deliveries");
        assert!(out.stats.undelivered_messages > 0, "halted receivers exist");
    }

    #[test]
    fn timing_is_recorded_but_ignored_by_equality() {
        let out = Engine::new(8).run(sum_ids(8)).unwrap();
        // One timed step phase per round, plus the halting step.
        assert_eq!(out.stats.timing.step_phases, out.stats.rounds as u64 + 1);
        assert_eq!(
            out.stats.timing.total_ns(),
            out.stats.timing.step_ns + out.stats.timing.delivery_ns
        );
        let mut other = out.stats.clone();
        other.timing = Default::default();
        assert_eq!(out.stats, other);
    }

    struct Bomb;
    impl NodeProgram for Bomb {
        type Output = ();
        fn step(
            &mut self,
            ctx: &NodeCtx,
            round: usize,
            _: &Inbox<'_>,
            _: &mut Outbox<'_>,
        ) -> Status<()> {
            if round == 1 && ctx.id.0 == 7 {
                panic!("node exploded");
            }
            if round >= 2 {
                return Status::Halt(());
            }
            Status::Continue
        }
    }

    #[test]
    fn node_panic_is_a_structured_error_and_engine_stays_usable() {
        // The same engine value must survive a panicking program: run clean,
        // panic, then run clean again.
        let n = 16;
        let engine = Engine::new(n);
        engine.run(sum_ids(n)).unwrap();
        let err = engine
            .run((0..n).map(|_| Bomb).collect::<Vec<_>>())
            .unwrap_err();
        match &err {
            SimError::NodeProgramPanicked {
                node,
                round,
                message,
            } => {
                assert_eq!(*node, NodeId(7));
                assert_eq!(*round, 1);
                assert!(message.contains("node exploded"), "got {message:?}");
            }
            other => panic!("unexpected error {other:?}"),
        }
        let out = engine.run(sum_ids(n)).unwrap();
        assert_eq!(out.outputs, vec![(0..n as u64).sum::<u64>(); n]);
    }

    /// Spends real wall-clock every round and never halts.
    struct Sleeper;
    impl NodeProgram for Sleeper {
        type Output = ();
        fn step(&mut self, _: &NodeCtx, _: usize, _: &Inbox<'_>, _: &mut Outbox<'_>) -> Status<()> {
            std::thread::sleep(Duration::from_millis(2));
            Status::Continue
        }
    }

    #[test]
    fn deadline_aborts_runaway_programs() {
        let limit = Duration::from_millis(20);
        let err = Engine::new(8)
            .with_deadline(limit)
            .run((0..8).map(|_| Sleeper).collect::<Vec<_>>())
            .unwrap_err();
        assert_eq!(err, SimError::DeadlineExceeded { limit });
        // A fast run under a generous deadline is unaffected.
        Engine::new(8)
            .with_deadline(Duration::from_secs(60))
            .run(sum_ids(8))
            .unwrap();
    }

    #[test]
    fn cancel_flag_aborts_at_the_next_round_boundary() {
        // Pre-set flag: the run aborts after its very first round.
        let flag = Arc::new(AtomicBool::new(true));
        let err = Engine::new(8)
            .with_cancel(flag)
            .run((0..8).map(|_| Sleeper).collect::<Vec<_>>())
            .unwrap_err();
        assert_eq!(err, SimError::Cancelled { round: 0 });
        // An unset flag is transparent: the run completes normally.
        let flag = Arc::new(AtomicBool::new(false));
        let out = Engine::new(8).with_cancel(flag).run(sum_ids(8)).unwrap();
        assert_eq!(out.stats.rounds, 1);
    }

    #[test]
    fn cancel_flag_set_from_another_thread_stops_a_running_sim() {
        let flag = Arc::new(AtomicBool::new(false));
        let trigger = Arc::clone(&flag);
        let killer = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(10));
            trigger.store(true, Ordering::Relaxed);
        });
        let err = Engine::new(8)
            .with_cancel(flag)
            .run((0..8).map(|_| Sleeper).collect::<Vec<_>>())
            .unwrap_err();
        killer.join().unwrap();
        assert!(matches!(err, SimError::Cancelled { .. }), "got {err:?}");
    }

    #[test]
    fn empty_fault_plan_is_byte_identical_to_no_plan() {
        let n = 9;
        let mk = || {
            (0..n)
                .map(|_| Staggered { received: 0 })
                .collect::<Vec<_>>()
        };
        let base = Engine::new(n).with_bandwidth(8).with_transcripts(true);
        let plain = base.clone().run(mk()).unwrap();
        let planned = base
            .with_fault_plan(crate::fault::FaultPlan::new(99))
            .run(mk())
            .unwrap();
        assert_eq!(plain.outputs, planned.outputs);
        assert_eq!(plain.stats, planned.stats);
        assert_eq!(plain.transcripts, planned.transcripts);
        assert!(planned.faults.is_empty());
    }

    #[test]
    fn crashed_node_fails_run_but_not_run_faulted() {
        use crate::fault::FaultPlan;
        let n = 8;
        let mk = || {
            (0..n)
                .map(|_| Staggered { received: 0 })
                .collect::<Vec<_>>()
        };
        let engine = Engine::new(n)
            .with_bandwidth(8)
            .with_fault_plan(FaultPlan::new(1).crash(NodeId(6), 2));
        let err = engine.run(mk()).unwrap_err();
        assert_eq!(
            err,
            SimError::NodeCrashed {
                node: NodeId(6),
                round: 2
            }
        );
        let out = engine.run_faulted(mk()).unwrap();
        assert!(out.outputs[6].is_none(), "crashed node has no output");
        assert_eq!(out.outputs.iter().filter(|o| o.is_some()).count(), n - 1);
        assert_eq!(out.stats.dead_nodes, 1);
        assert_eq!(out.faults.crashed_nodes(), vec![NodeId(6)]);
        // The crash victim was still being broadcast to: its unread inbound
        // payloads are charged as undelivered.
        assert!(out.stats.undelivered_messages > 0);
    }

    #[test]
    fn dropping_every_message_silences_the_clique() {
        use crate::fault::FaultPlan;
        let n = 8;
        let out = Engine::new(n)
            .with_fault_plan(FaultPlan::new(3).drop_messages(1.0))
            .run(sum_ids(n))
            .unwrap();
        // Round-1 inboxes are empty, so every node only sees its own id.
        assert_eq!(out.outputs, (0..n as u64).collect::<Vec<_>>());
        assert_eq!(out.stats.dropped_messages, (n * (n - 1)) as u64);
        // Sent-based accounting still charges the wire for what was sent.
        assert_eq!(out.stats.messages, (n * (n - 1)) as u64);
    }

    #[test]
    fn faulted_run_drops_and_corrupts_under_a_mixed_plan() {
        use crate::fault::FaultPlan;
        let n = 12;
        let plan = FaultPlan::new(2024)
            .crash(NodeId(9), 3)
            .drop_messages(0.2)
            .corrupt_messages(0.1)
            .truncate_messages(0.1);
        let out = Engine::new(n)
            .with_bandwidth(8)
            .with_fault_plan(plan)
            .run_faulted((0..n).map(|_| Staggered { received: 0 }).collect())
            .unwrap();
        assert!(
            out.stats.dropped_messages > 0 && out.stats.corrupted_messages > 0,
            "plan too weak to exercise the sweeps: {:?}",
            out.stats
        );
    }

    /// Every node broadcasts an 8-bit payload each round and halts at a
    /// fixed round with its receive count — the probe for rejoin state
    /// sync: a full replay must leave the rejoiner's count equal to an
    /// uncrashed node's.
    struct Chatter {
        received: u64,
        halt_round: usize,
    }
    impl NodeProgram for Chatter {
        type Output = u64;
        fn step(
            &mut self,
            _ctx: &NodeCtx,
            round: usize,
            inbox: &Inbox<'_>,
            ob: &mut Outbox<'_>,
        ) -> Status<u64> {
            self.received += inbox.iter().count() as u64;
            if round >= self.halt_round {
                return Status::Halt(self.received);
            }
            let mut m = BitString::new();
            m.push_uint(round as u64 & 0xff, 8);
            ob.broadcast(&m);
            Status::Continue
        }
    }

    #[test]
    fn rejoined_node_is_state_synced_from_the_missed_window() {
        use crate::fault::FaultPlan;
        let n = 12;
        let halt_round = 6usize;
        let mk = || {
            (0..n)
                .map(|_| Chatter {
                    received: 0,
                    halt_round,
                })
                .collect::<Vec<_>>()
        };
        let plan = FaultPlan::new(7)
            .crash(NodeId(2), 2)
            .rejoin(NodeId(2), 4)
            .expect("crash precedes rejoin");
        let seq = Engine::new(n)
            .with_bandwidth(8)
            .with_transcripts(true)
            .with_fault_plan(plan)
            .run_faulted(mk())
            .unwrap();
        let peers = (n - 1) as u64;
        // The replay re-delivered rounds 2 and 3, so the rejoiner's count
        // matches a node that never crashed; everyone else is short exactly
        // the two broadcasts node 2 never put on the wire while down.
        assert_eq!(seq.outputs[2], Some(halt_round as u64 * peers));
        for v in (0..n).filter(|v| *v != 2) {
            assert_eq!(
                seq.outputs[v],
                Some(halt_round as u64 * peers - 2),
                "node {v}"
            );
        }
        assert_eq!(seq.stats.dead_nodes, 1);
        assert_eq!(seq.stats.rejoined_nodes, 1);
        assert_eq!(seq.stats.sync_rounds, 2);
        assert_eq!(seq.stats.sync_messages, 2 * peers);
        assert_eq!(seq.stats.sync_bits, 2 * peers * 8);
        // The in-flight column charged at crash time stays on the
        // undelivered ledger (see fault module docs); the diverted
        // down-window traffic was re-delivered by the replay and is not.
        assert_eq!(seq.stats.undelivered_messages, peers);
        assert_eq!(seq.stats.undelivered_bits, peers * 8);
        assert!(
            seq.faults.events.iter().any(|e| matches!(
                e,
                FaultEvent::Rejoined {
                    node: NodeId(2),
                    round: 4,
                    sync_rounds: 2,
                    ..
                }
            )),
            "missing Rejoined event: {:?}",
            seq.faults.events
        );
        // Transcript backfill: the rejoiner's missed rounds appear as
        // received-only entries, leaving every transcript the same length
        // and every index aligned with its round number.
        let ts = seq.transcripts.as_ref().unwrap();
        assert_eq!(ts[2].rounds.len(), ts[0].rounds.len());
        for r in [2usize, 3] {
            assert!(ts[2].rounds[r].sent.is_empty(), "round {r} was a replay");
            assert_eq!(ts[2].rounds[r].received.len(), n - 1, "round {r}");
        }
    }

    #[test]
    fn mid_replay_halt_keeps_unread_sync_traffic_undelivered() {
        use crate::fault::FaultPlan;
        // Node 5 halts at round 3, its peers at round 8. Crashing it at
        // round 1 with a rejoin at round 6 puts its halt round strictly
        // inside the replay window: the replay steps rounds 1, 2 and halts
        // at 3, so the columns written in rounds 3..6 are never read and
        // must land back on the undelivered ledger.
        let n = 8;
        let mk = || {
            (0..n)
                .map(|v| Chatter {
                    received: 0,
                    halt_round: if v == 5 { 3 } else { 8 },
                })
                .collect::<Vec<_>>()
        };
        let plan = FaultPlan::new(1)
            .crash(NodeId(5), 1)
            .rejoin(NodeId(5), 6)
            .expect("crash precedes rejoin");
        let out = Engine::new(n)
            .with_bandwidth(8)
            .with_fault_plan(plan)
            .run_faulted(mk())
            .unwrap();
        let peers = (n - 1) as u64;
        // The replay stepped rounds 1, 2, 3 and halted at 3 — the node
        // still produced an output (its three replayed inboxes) and counts
        // as rejoined; sync priced all three replayed rounds.
        assert_eq!(out.outputs[5], Some(3 * peers));
        assert_eq!(out.stats.rejoined_nodes, 1);
        assert_eq!(out.stats.sync_rounds, 3);
        // Undelivered: the in-flight column charged at crash time (written
        // round 0), the diverted columns written in rounds 3, 4, 5 the
        // replay never reached, and the post-halt columns written in rounds
        // 6 and 7 while the peers kept broadcasting — six peer-columns in
        // all. The diverted rounds 1 and 2 were re-read by the replay.
        assert_eq!(out.stats.undelivered_messages, 6 * peers);
        assert_eq!(out.stats.undelivered_bits, 6 * peers * 8);
    }

    /// A [`Chatter`] that panics when stepped in round `explode_at`.
    struct Fragile {
        chatter: Chatter,
        explode_at: Option<usize>,
    }
    impl NodeProgram for Fragile {
        type Output = u64;
        fn step(
            &mut self,
            ctx: &NodeCtx,
            round: usize,
            inbox: &Inbox<'_>,
            ob: &mut Outbox<'_>,
        ) -> Status<u64> {
            if self.explode_at == Some(round) {
                panic!("replayed round exploded");
            }
            self.chatter.step(ctx, round, inbox, ob)
        }
    }

    #[test]
    fn panic_during_rejoin_replay_is_a_structured_error() {
        use crate::fault::FaultPlan;
        // Node 2 is down for rounds 2..5 and panics when stepped in round 3.
        // Only the rejoin replay at round 5 steps it in round 3, so the
        // panic leaves the run from the churn pre-step, not a step phase.
        let n = 16;
        let plan = FaultPlan::new(5)
            .crash(NodeId(2), 2)
            .rejoin(NodeId(2), 5)
            .expect("crash precedes rejoin");
        let mk = |explode: bool| {
            (0..n)
                .map(|v| Fragile {
                    chatter: Chatter {
                        received: 0,
                        halt_round: 8,
                    },
                    explode_at: (explode && v == 2).then_some(3),
                })
                .collect::<Vec<_>>()
        };
        let engine = Engine::new(n).with_bandwidth(8).with_fault_plan(plan);
        let err = engine.run_faulted(mk(true)).unwrap_err();
        match &err {
            SimError::NodeProgramPanicked {
                node,
                round,
                message,
            } => {
                assert_eq!(*node, NodeId(2));
                assert_eq!(*round, 3);
                assert!(
                    message.contains("replayed round exploded"),
                    "got {message:?}"
                );
            }
            other => panic!("unexpected error {other:?}"),
        }
        // The same engine runs clean again.
        let out = engine.run_faulted(mk(false)).unwrap();
        assert_eq!(out.stats.rejoined_nodes, 1);
        assert!(out.outputs.iter().all(Option::is_some));
    }

    /// A [`Chatter`] that counts its steps and how many of them ran off
    /// the `caller` thread.
    struct OnCaller {
        chatter: Chatter,
        caller: std::thread::ThreadId,
        steps: usize,
        elsewhere: usize,
    }
    impl NodeProgram for OnCaller {
        type Output = (usize, usize);
        fn step(
            &mut self,
            ctx: &NodeCtx,
            round: usize,
            inbox: &Inbox<'_>,
            ob: &mut Outbox<'_>,
        ) -> Status<(usize, usize)> {
            self.steps += 1;
            if std::thread::current().id() != self.caller {
                self.elsewhere += 1;
            }
            match self.chatter.step(ctx, round, inbox, ob) {
                Status::Continue => Status::Continue,
                Status::Halt(_) => Status::Halt((self.steps, self.elsewhere)),
            }
        }
    }

    #[test]
    fn every_step_and_rejoin_replay_runs_on_the_calling_thread() {
        use crate::fault::FaultPlan;
        // A run stays on the thread that called it: cc-service runs one job
        // per worker thread, on that worker's own delivery arena.
        let n = 16;
        let halt_round = 8;
        let plan = FaultPlan::new(5)
            .crash(NodeId(2), 2)
            .rejoin(NodeId(2), 5)
            .expect("crash precedes rejoin");
        let caller = std::thread::current().id();
        let out = Engine::new(n)
            .with_bandwidth(8)
            .with_fault_plan(plan)
            .run_faulted(
                (0..n)
                    .map(|_| OnCaller {
                        chatter: Chatter {
                            received: 0,
                            halt_round,
                        },
                        caller,
                        steps: 0,
                        elsewhere: 0,
                    })
                    .collect(),
            )
            .unwrap();
        assert_eq!(out.stats.rejoined_nodes, 1);
        for (v, o) in out.outputs.iter().enumerate() {
            let Some((steps, elsewhere)) = o else {
                panic!("node {v} did not halt");
            };
            // Rounds 0..=8 each step every node once; node 2's rounds 2..5
            // are the replay at its rejoin.
            assert_eq!(*steps, halt_round + 1, "node {v}");
            assert_eq!(*elsewhere, 0, "node {v} stepped off the calling thread");
        }
    }

    #[test]
    fn churn_and_wire_passes_are_timed_outside_the_engine_total() {
        use crate::auth::AuthKeyring;
        use crate::byzantine::ByzantinePlan;
        use crate::fault::FaultPlan;
        let n = 12;
        let faults = FaultPlan::new(7)
            .crash(NodeId(2), 2)
            .rejoin(NodeId(2), 4)
            .expect("crash precedes rejoin")
            .drop_messages(0.1);
        let byz = ByzantinePlan::new(3)
            .traitor(NodeId(5))
            .garble(0.5)
            .forge(0.5);
        let out = Engine::new(n)
            .with_bandwidth(8)
            .with_fault_plan(faults)
            .with_byzantine_plan(byz)
            .with_auth(AuthKeyring::from_seed(n, 11))
            .run_faulted(
                (0..n)
                    .map(|_| Chatter {
                        received: 0,
                        halt_round: 6,
                    })
                    .collect::<Vec<_>>(),
            )
            .unwrap();
        assert_eq!(out.stats.rejoined_nodes, 1);
        let t = &out.stats.timing;
        assert!(t.churn_ns > 0, "churn pre-step untimed");
        assert!(t.passes_ns > 0, "wire passes untimed");
        // Every pass is active here, and each is timed inside the block
        // `passes_ns` covers.
        let split = [
            t.rewrite_ns,
            t.sign_ns,
            t.forge_ns,
            t.faults_ns,
            t.verify_ns,
        ];
        assert!(split.iter().all(|&ns| ns > 0), "{t:?}");
        assert!(split.iter().sum::<u64>() <= t.passes_ns, "{t:?}");
        assert_eq!(t.total_ns(), t.step_ns + t.delivery_ns);
    }

    #[test]
    fn faulted_unanimity_is_over_survivors() {
        use crate::fault::FaultPlan;
        let n = 6;
        let out = Engine::new(n)
            .with_fault_plan(FaultPlan::new(0).crash(NodeId(2), 1))
            .run_faulted(sum_ids(n))
            .unwrap();
        // Node 2 received round-0 broadcasts but crashed before reading
        // them; survivors all computed the full sum.
        let expect = (0..n as u64).sum::<u64>();
        assert_eq!(out.unanimous(), Some(&expect));
        assert_eq!(out.survivors().count(), n - 1);
    }

    #[test]
    fn transcripts_record_both_directions() {
        let n = 4;
        let out = Engine::new(n)
            .with_transcripts(true)
            .run(sum_ids(n))
            .unwrap();
        let ts = out.transcripts.unwrap();
        assert_eq!(ts.len(), n);
        for (v, t) in ts.iter().enumerate() {
            assert_eq!(t.rounds.len(), 2, "node {v} took part in 2 step phases");
            assert_eq!(t.rounds[0].sent.len(), n - 1);
            assert_eq!(t.rounds[0].received.len(), 0);
            assert_eq!(t.rounds[1].sent.len(), 0);
            assert_eq!(t.rounds[1].received.len(), n - 1);
        }
        // Sent/received must be symmetric across nodes.
        for v in 0..n {
            for (dst, msg) in &ts[v].rounds[0].sent {
                let got = ts[dst.index()].rounds[1]
                    .received
                    .iter()
                    .find(|(src, _)| src.index() == v)
                    .expect("matching receive");
                assert_eq!(&got.1, msg);
            }
        }
    }

    /// Broadcasts its id (legal in broadcast mode).
    struct Broadcaster;
    impl NodeProgram for Broadcaster {
        type Output = ();
        fn step(
            &mut self,
            ctx: &NodeCtx,
            round: usize,
            _: &Inbox<'_>,
            ob: &mut Outbox<'_>,
        ) -> Status<()> {
            if round == 0 {
                let mut m = BitString::new();
                m.push_uint(ctx.id.0 as u64, ctx.id_width());
                ob.broadcast(&m);
                Status::Continue
            } else {
                Status::Halt(())
            }
        }
    }

    /// Sends distinct messages (illegal in broadcast mode).
    struct Unicaster;
    impl NodeProgram for Unicaster {
        type Output = ();
        fn step(
            &mut self,
            ctx: &NodeCtx,
            _: usize,
            _: &Inbox<'_>,
            ob: &mut Outbox<'_>,
        ) -> Status<()> {
            for u in 0..ctx.n {
                if u != ctx.id.index() {
                    let mut m = BitString::new();
                    m.push_uint((u % 2) as u64, 1);
                    ob.send(NodeId::from(u), m);
                }
            }
            Status::Halt(())
        }
    }

    #[test]
    fn broadcast_mode_accepts_broadcasts() {
        let out = Engine::new(5)
            .broadcast_only(true)
            .run((0..5).map(|_| Broadcaster).collect::<Vec<_>>())
            .unwrap();
        assert_eq!(out.stats.rounds, 1);
    }

    #[test]
    fn broadcast_mode_rejects_unicasts() {
        let err = Engine::new(5)
            .broadcast_only(true)
            .run((0..5).map(|_| Unicaster).collect::<Vec<_>>())
            .unwrap_err();
        assert!(
            matches!(err, SimError::BroadcastViolated { .. }),
            "got {err:?}"
        );
        // The same program is fine in the unrestricted model.
        Engine::new(5)
            .run((0..5).map(|_| Unicaster).collect::<Vec<_>>())
            .unwrap();
    }

    #[test]
    fn congest_topology_enforced() {
        // A 4-path topology: node 0 may talk to 1 only.
        let n = 4;
        let mut adj = vec![false; n * n];
        for v in 1..n {
            adj[(v - 1) * n + v] = true;
            adj[v * n + (v - 1)] = true;
        }
        struct SendTo(u32);
        impl NodeProgram for SendTo {
            type Output = ();
            fn step(
                &mut self,
                ctx: &NodeCtx,
                _: usize,
                _: &Inbox<'_>,
                ob: &mut Outbox<'_>,
            ) -> Status<()> {
                if ctx.id.0 == 0 {
                    let mut m = BitString::new();
                    m.push(true);
                    ob.send(NodeId(self.0), m);
                }
                Status::Halt(())
            }
        }
        // Legal: 0 → 1.
        Engine::new(n)
            .with_topology(adj.clone())
            .run(vec![SendTo(1), SendTo(1), SendTo(1), SendTo(1)])
            .unwrap();
        // Illegal: 0 → 3 (not adjacent on the path).
        let err = Engine::new(n)
            .with_topology(adj)
            .run(vec![SendTo(3), SendTo(3), SendTo(3), SendTo(3)])
            .unwrap_err();
        assert!(matches!(
            err,
            SimError::TopologyViolated {
                from: NodeId(0),
                to: NodeId(3),
                ..
            }
        ));
    }

    #[test]
    fn broadcast_mode_rejects_partial_addressing() {
        struct Partial;
        impl NodeProgram for Partial {
            type Output = ();
            fn step(
                &mut self,
                ctx: &NodeCtx,
                _: usize,
                _: &Inbox<'_>,
                ob: &mut Outbox<'_>,
            ) -> Status<()> {
                if ctx.id.0 == 0 {
                    let mut m = BitString::new();
                    m.push(true);
                    ob.send(NodeId(1), m); // only one recipient
                }
                Status::Halt(())
            }
        }
        let err = Engine::new(4)
            .broadcast_only(true)
            .run((0..4).map(|_| Partial).collect::<Vec<_>>())
            .unwrap_err();
        assert!(matches!(
            err,
            SimError::BroadcastViolated {
                from: NodeId(0),
                ..
            }
        ));
    }

    #[test]
    fn mixed_rows_report_the_errors_of_the_copy_walk() {
        /// Node 3 of 8 sends one row in round 0: an optional broadcast, then
        /// its overrides in the order given; every node halts.
        #[derive(Clone)]
        struct MixedRow {
            bcast: Option<BitString>,
            overrides: Vec<(u32, BitString)>,
        }

        impl NodeProgram for MixedRow {
            type Output = ();
            fn step(
                &mut self,
                ctx: &NodeCtx,
                _: usize,
                _: &Inbox<'_>,
                ob: &mut Outbox<'_>,
            ) -> Status<()> {
                if ctx.id.0 == 3 {
                    if let Some(b) = &self.bcast {
                        ob.broadcast(b);
                    }
                    for (to, m) in &self.overrides {
                        ob.send(NodeId(*to), m.clone());
                    }
                }
                Status::Halt(())
            }
        }

        fn run_mixed(
            engine: Engine,
            bcast: Option<BitString>,
            overrides: Vec<(u32, BitString)>,
        ) -> Result<RunOutcome<()>, SimError> {
            engine.run(vec![MixedRow { bcast, overrides }; 8])
        }

        let ones = |len: usize| BitString::from_bits((0..len).map(|_| true));
        let oversized = |to: u32, bits: usize| SimError::BandwidthExceeded {
            from: NodeId(3),
            to: NodeId(to),
            round: 0,
            bits,
            limit: 4,
        };
        let clique = || Engine::new(8).with_bandwidth(4);
        // An oversized override below the first broadcast copy names its
        // own recipient and size, not the larger broadcast's.
        let err = run_mixed(clique(), Some(ones(6)), vec![(1, ones(5)), (0, ones(2))]).unwrap_err();
        assert_eq!(err, oversized(1, 5));
        // An oversized override above it does not: the broadcast copy to 4
        // comes first (2 is overridden empty, 3 is the sender).
        let err = run_mixed(
            clique(),
            Some(ones(6)),
            vec![
                (0, ones(1)),
                (1, ones(1)),
                (2, BitString::new()),
                (5, ones(9)),
            ],
        )
        .unwrap_err();
        assert_eq!(err, oversized(4, 6));
        // A legal broadcast with one oversized override.
        let err = run_mixed(clique(), Some(ones(3)), vec![(6, ones(7))]).unwrap_err();
        assert_eq!(err, oversized(6, 7));

        let broadcast_only = || Engine::new(8).broadcast_only(true);
        let violated = SimError::BroadcastViolated {
            from: NodeId(3),
            round: 0,
        };
        let b = BitString::from_bits([true, false, true]);
        let differing = BitString::from_bits([true, true, true]);
        for bad in [differing, BitString::new()] {
            let err =
                run_mixed(broadcast_only(), Some(b.clone()), vec![(5, bad.clone())]).unwrap_err();
            assert_eq!(err, violated, "override {bad:?}");
        }
        // An override equal to the broadcast is one more copy of it.
        let out = run_mixed(broadcast_only(), Some(b.clone()), vec![(5, b.clone())]).unwrap();
        assert_eq!(out.stats.messages, 7);
        assert_eq!(out.stats.bits, 21);
        assert_eq!(out.stats.max_message_bits, 3);
        // Broadcast-only and oversized: the first copy names the error.
        let err = run_mixed(
            broadcast_only().with_bandwidth(4),
            Some(ones(6)),
            vec![(0, ones(6))],
        )
        .unwrap_err();
        assert_eq!(err, oversized(0, 6));
    }

    #[test]
    fn single_node_clique_is_degenerate_but_legal() {
        struct Lonely;
        impl NodeProgram for Lonely {
            type Output = u32;
            fn step(
                &mut self,
                ctx: &NodeCtx,
                _: usize,
                _: &Inbox<'_>,
                _: &mut Outbox<'_>,
            ) -> Status<u32> {
                Status::Halt(ctx.id.0)
            }
        }
        let out = Engine::new(1).run(vec![Lonely]).unwrap();
        assert_eq!(out.outputs, vec![0]);
        assert_eq!(out.stats.rounds, 0);
    }

    #[test]
    fn empty_byzantine_plan_is_transparent() {
        use crate::byzantine::ByzantinePlan;
        let n = 9;
        let bare = Engine::new(n)
            .with_transcripts(true)
            .run(sum_ids(n))
            .unwrap();
        let planned = Engine::new(n)
            .with_transcripts(true)
            .with_byzantine_plan(ByzantinePlan::new(99))
            .run_faulted(sum_ids(n))
            .unwrap();
        assert_eq!(
            planned
                .outputs
                .iter()
                .flatten()
                .copied()
                .collect::<Vec<_>>(),
            bare.outputs
        );
        assert_eq!(planned.stats, bare.stats);
        assert_eq!(planned.transcripts, bare.transcripts);
        assert!(planned.byzantine.is_empty());
        assert_eq!(planned.stats.forged_messages, 0);
        assert_eq!(planned.stats.traitor_nodes, 0);
    }

    #[test]
    fn byzantine_garble_disrupts_recipients_not_the_traitor() {
        use crate::byzantine::ByzantinePlan;
        let n = 8;
        let honest = Engine::new(n).run(sum_ids(n)).unwrap();
        let expect = (0..n as u64).sum::<u64>();
        assert_eq!(honest.outputs, vec![expect; n]);

        let plan = ByzantinePlan::new(17).traitor(NodeId(2)).garble(1.0);
        let out = Engine::new(n)
            .with_byzantine_plan(plan.clone())
            .run_faulted(sum_ids(n))
            .unwrap();
        // Transcripts/stats still record the traitor's honest sends; the
        // rewrite log records the lies.
        assert_eq!(out.stats.messages, honest.stats.messages);
        assert_eq!(out.stats.forged_messages, (n - 1) as u64);
        assert_eq!(out.stats.traitor_nodes, 1);
        assert_eq!(out.byzantine.liars(), vec![NodeId(2)]);
        // The traitor itself read honest messages, so it still sums right.
        assert_eq!(out.outputs[2], Some(expect));
        // The paper's all-node unanimity fails; only honest agreement is a
        // meaningful question under this adversary.
        assert!(out.unanimous().is_none() || out.honest_unanimous(&plan).is_some());
    }

    #[test]
    fn byzantine_rewrites_are_logged_under_a_mixed_plan() {
        use crate::byzantine::ByzantinePlan;
        let n = 15;
        let plan = ByzantinePlan::new(31)
            .with_random_traitors(n, 4, &[])
            .garble(0.5)
            .replay(0.3)
            .silence(0.2);
        let out = Engine::new(n)
            .with_byzantine_plan(plan)
            .run_faulted(sum_ids(n))
            .unwrap();
        assert!(!out.byzantine.is_empty());
    }

    #[test]
    fn byzantine_composes_with_link_faults() {
        use crate::byzantine::ByzantinePlan;
        let n = 10;
        let byz = ByzantinePlan::new(1).traitor(NodeId(0)).garble(1.0);
        let faults = FaultPlan::new(2).drop_messages(0.3);
        let out = Engine::new(n)
            .with_byzantine_plan(byz)
            .with_fault_plan(faults)
            .run_faulted(sum_ids(n))
            .unwrap();
        assert_eq!(out.stats.forged_messages, (n - 1) as u64);
        assert!(out.stats.dropped_messages > 0, "both adversaries fired");
        assert!(!out.faults.is_empty());
        assert!(!out.byzantine.is_empty());
    }

    #[test]
    fn arena_reuse_leaves_run_stats_untouched() {
        // RunStats counts logical messages, so a warm arena (whatever
        // capacity the previous run left behind) must report exactly what a
        // cold one does.
        let n = 9;
        let mk = || {
            (0..n)
                .map(|_| Staggered { received: 0 })
                .collect::<Vec<_>>()
        };
        let engine = Engine::new(n).with_bandwidth(8).with_transcripts(true);
        let cold = engine.run(mk()).unwrap();
        let mut arena = DeliveryArena::new();
        let first = engine
            .run_faulted_in(mk(), &mut arena)
            .and_then(FaultedOutcome::into_complete)
            .unwrap();
        assert!(arena.slot_footprint() > 0, "arena retained the buffers");
        let warm = engine
            .run_faulted_in(mk(), &mut arena)
            .and_then(FaultedOutcome::into_complete)
            .unwrap();
        assert_eq!(cold.outputs, warm.outputs);
        assert_eq!(cold.stats, first.stats);
        assert_eq!(cold.stats, warm.stats);
        assert_eq!(cold.transcripts, warm.transcripts);
    }

    #[test]
    fn wrong_program_count_is_rejected_before_buffers_are_allocated() {
        // n = 2²¹ would need 2·n rows and their index, about 0.3 GB; this
        // only passes quickly because validation precedes the checkout.
        let n = 1 << 21;
        let err = Engine::new(n).run(vec![Silent, Silent]).unwrap_err();
        assert_eq!(
            err,
            SimError::WrongProgramCount {
                expected: n,
                got: 2
            }
        );
    }

    #[test]
    fn sparse_broadcast_footprint_is_linear_in_n() {
        let n = 256;
        let mut arena = DeliveryArena::new();
        Engine::new(n)
            .run_faulted_in(sum_ids(n), &mut arena)
            .and_then(FaultedOutcome::into_complete)
            .unwrap();
        // One broadcast payload per sender per buffer; no overrides.
        assert_eq!(arena.slot_footprint(), 2 * n);
    }

    #[test]
    fn damaged_broadcast_copies_keep_the_footprint_bounded() {
        use crate::session::Session;
        // Every node broadcasts every round, and the wire drops about one
        // copy in twenty. Each drop parks an override entry in its row;
        // rows must reuse those entries round after round instead of
        // growing by every drop ever made.
        let n = 64;
        let rounds = 1000;
        let mut s = Session::new(
            Engine::new(n)
                .with_bandwidth(8)
                .broadcast_only(true)
                .with_fault_plan(FaultPlan::new(11).drop_messages(0.05)),
        );
        let out = s
            .run(
                (0..n)
                    .map(|_| Chatter {
                        received: 0,
                        halt_round: rounds,
                    })
                    .collect(),
            )
            .unwrap();
        assert!(out.stats.dropped_messages > 100 * n as u64, "drops fired");
        let footprint = s.delivery_footprint();
        assert!(
            footprint <= 2 * n * n,
            "footprint {footprint} slots after {rounds} rounds, bound {}",
            2 * n * n
        );
    }
}
