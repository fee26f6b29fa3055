//! Execution accounting.
//!
//! Round counts are the paper's complexity measure; bit and message totals
//! let experiments check bandwidth-sensitive claims (e.g. Theorem 3's
//! certificate bound) without trusting the algorithm under test.
//!
//! # Accounting semantics
//!
//! `messages` and `bits` are **sent-based**: a payload is counted the moment
//! the engine accepts it onto the wire (at the end of the sender's step
//! phase, after bandwidth validation), not when a recipient reads it. This
//! matches the model — a message occupies its link for the round whether or
//! not anyone is listening. Payloads whose recipient halted in the same
//! round or earlier are therefore still charged; the `undelivered_*` fields
//! break out exactly that subset so experiments can distinguish useful from
//! wasted bandwidth.
//!
//! Every counter is **logical**: it measures messages and payload bits as
//! the model sees them, never the delivery buffers behind them. In
//! particular `peak_live_payload_bytes` tracks payload bits live on the
//! wire, not slot capacity, so a run on a warm, reused
//! [`crate::DeliveryArena`] (whatever capacity earlier runs left parked)
//! reports byte-identical stats to a run on a cold one — pinned by the
//! engine's arena-reuse regression test.

/// Totals for one run (or one session of composed runs).
///
/// Equality deliberately ignores [`RunStats::timing`]: wall-clock is
/// nondeterministic, while every other field is part of the engine's
/// bit-identity contract between sequential and parallel execution.
#[derive(Clone, Debug, Default)]
pub struct RunStats {
    /// Synchronous communication rounds. An algorithm that halts before any
    /// message exchange has `rounds == 0`.
    pub rounds: usize,
    /// Total messages accepted on the wire (non-empty payloads), counted at
    /// send time (see module docs).
    pub messages: u64,
    /// Total payload bits accepted on the wire, counted at send time.
    pub bits: u64,
    /// Largest single message observed, in bits.
    pub max_message_bits: usize,
    /// Messages whose recipient never stepped again (it halted in the
    /// sending round or earlier), so the payload was never read. A subset of
    /// `messages`.
    pub undelivered_messages: u64,
    /// Payload bits of the undelivered messages. A subset of `bits`.
    pub undelivered_bits: u64,
    /// Peak bytes of payload simultaneously live in the engine's two
    /// delivery buffers (this round's sends plus the previous round's
    /// not-yet-consumed deliveries), maximised over rounds.
    pub peak_live_payload_bytes: usize,
    /// Messages removed from the wire by a fault plan. Like all fault
    /// counters, this is disjoint from `undelivered_*`: a dropped message
    /// was destroyed by the adversary, not ignored by a halted recipient.
    pub dropped_messages: u64,
    /// Messages that had one payload bit flipped by a fault plan.
    pub corrupted_messages: u64,
    /// Messages cut to a strict prefix by a fault plan.
    pub truncated_messages: u64,
    /// Nodes that crash-stopped under a fault plan (never produced an
    /// output). In-flight payloads they never read are charged to
    /// `undelivered_*`.
    pub dead_nodes: u64,
    /// Crashed nodes a fault plan brought back via a rejoin, each
    /// state-synced over its missed window.
    pub rejoined_nodes: u64,
    /// Missed rounds replayed to rejoining nodes as out-of-band state-sync
    /// rounds. Not added to `rounds`: sync rides alongside the live clock.
    pub sync_rounds: u64,
    /// Messages re-delivered to rejoining nodes during state sync. Not
    /// added to `messages` — the originals were already counted at send
    /// time (sent-based accounting, see module docs), so the live totals
    /// stay transcript-exact; this counter is the price of the replay.
    pub sync_messages: u64,
    /// Payload bits of the re-delivered state-sync messages. Disjoint from
    /// `bits`, like `sync_messages`.
    pub sync_bits: u64,
    /// Messages whose content a Byzantine plan rewrote (garbled, inverted,
    /// or replayed). The payload still occupies the wire, so it stays in
    /// `messages`/`bits`; this counter marks it as a lie.
    pub forged_messages: u64,
    /// Messages a Byzantine traitor selectively withheld from a recipient.
    /// Like the link-fault counters, disjoint from `undelivered_*`.
    pub silenced_messages: u64,
    /// Distinct traitor nodes that actually rewrote at least one message
    /// under a Byzantine plan.
    pub traitor_nodes: u64,
    /// Message copies the authenticated envelope signed (one per delivered
    /// copy — a broadcast charges `n − 1` even though the delivery buffer
    /// stores one shared payload). Zero when no keyring is attached.
    pub signed_messages: u64,
    /// Tag bits the authenticated envelope appended, `TAG_BITS` per signed
    /// copy. Deliberately disjoint from `bits`: authentication is envelope
    /// overhead, not algorithm traffic.
    pub auth_bits: u64,
    /// Frames the verification pass cleared because their tag failed —
    /// forged-tag rewrites and post-signing wire damage. Honest traffic is
    /// never rejected.
    pub rejected_tags: u64,
    /// Wall-clock measurements; excluded from `==` (see type docs).
    pub timing: EngineTiming,
}

/// Wall-clock measurements for one run.
///
/// Timing is inherently nondeterministic, so it lives outside the
/// [`RunStats`] equality relation: asserting `seq.stats == par.stats` checks
/// the model-level fields only.
#[derive(Clone, Debug, Default)]
pub struct EngineTiming {
    /// Nanoseconds spent stepping nodes, summed over rounds. In parallel
    /// runs this is the wall-clock of the step phases, not CPU time.
    pub step_ns: u64,
    /// Nanoseconds spent in delivery bookkeeping between step phases
    /// (transcript recording, undelivered accounting, halt detection),
    /// summed over rounds.
    pub delivery_ns: u64,
    /// Nanoseconds spent in the round-start crash and churn pre-step
    /// (crash-stops, rejoin replay, missed-window recording), summed over
    /// rounds. Zero without a fault plan; not part of
    /// [`EngineTiming::total_ns`].
    pub churn_ns: u64,
    /// Nanoseconds spent in the wire passes (Byzantine rewrites, signing,
    /// forged tags, link faults, verification), summed over rounds. Not
    /// part of [`EngineTiming::total_ns`].
    pub passes_ns: u64,
    /// Step phases timed: one per round, plus the step in which every node
    /// halted.
    pub step_phases: u64,
}

impl EngineTiming {
    /// Wall-clock nanoseconds of the step phases and their delivery
    /// bookkeeping, summed over rounds. The churn pre-step and the wire
    /// passes are timed separately ([`EngineTiming::churn_ns`],
    /// [`EngineTiming::passes_ns`]).
    pub fn total_ns(&self) -> u64 {
        self.step_ns + self.delivery_ns
    }

    /// Fold another run's timing into this one (phases run back to back).
    pub fn absorb(&mut self, other: &EngineTiming) {
        self.step_ns += other.step_ns;
        self.delivery_ns += other.delivery_ns;
        self.churn_ns += other.churn_ns;
        self.passes_ns += other.passes_ns;
        self.step_phases += other.step_phases;
    }
}

impl PartialEq for RunStats {
    fn eq(&self, other: &Self) -> bool {
        // `timing` intentionally omitted: see type docs.
        self.rounds == other.rounds
            && self.messages == other.messages
            && self.bits == other.bits
            && self.max_message_bits == other.max_message_bits
            && self.undelivered_messages == other.undelivered_messages
            && self.undelivered_bits == other.undelivered_bits
            && self.peak_live_payload_bytes == other.peak_live_payload_bytes
            && self.dropped_messages == other.dropped_messages
            && self.corrupted_messages == other.corrupted_messages
            && self.truncated_messages == other.truncated_messages
            && self.dead_nodes == other.dead_nodes
            && self.rejoined_nodes == other.rejoined_nodes
            && self.sync_rounds == other.sync_rounds
            && self.sync_messages == other.sync_messages
            && self.sync_bits == other.sync_bits
            && self.forged_messages == other.forged_messages
            && self.silenced_messages == other.silenced_messages
            && self.traitor_nodes == other.traitor_nodes
            && self.signed_messages == other.signed_messages
            && self.auth_bits == other.auth_bits
            && self.rejected_tags == other.rejected_tags
    }
}

impl Eq for RunStats {}

impl RunStats {
    /// Fold another run's totals into this one; rounds add (sequential
    /// composition of phases is free synchronisation in this model), peak
    /// buffer residency maxes (phases reuse the buffers, they don't stack).
    pub fn absorb(&mut self, other: &RunStats) {
        self.rounds += other.rounds;
        self.messages += other.messages;
        self.bits += other.bits;
        self.max_message_bits = self.max_message_bits.max(other.max_message_bits);
        self.undelivered_messages += other.undelivered_messages;
        self.undelivered_bits += other.undelivered_bits;
        self.peak_live_payload_bytes = self
            .peak_live_payload_bytes
            .max(other.peak_live_payload_bytes);
        self.dropped_messages += other.dropped_messages;
        self.corrupted_messages += other.corrupted_messages;
        self.truncated_messages += other.truncated_messages;
        self.dead_nodes += other.dead_nodes;
        self.rejoined_nodes += other.rejoined_nodes;
        self.sync_rounds += other.sync_rounds;
        self.sync_messages += other.sync_messages;
        self.sync_bits += other.sync_bits;
        self.forged_messages += other.forged_messages;
        self.silenced_messages += other.silenced_messages;
        self.traitor_nodes += other.traitor_nodes;
        self.signed_messages += other.signed_messages;
        self.auth_bits += other.auth_bits;
        self.rejected_tags += other.rejected_tags;
        self.timing.absorb(&other.timing);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absorb_adds_rounds_and_maxes_width() {
        let mut a = RunStats {
            rounds: 3,
            messages: 10,
            bits: 50,
            max_message_bits: 5,
            undelivered_messages: 1,
            undelivered_bits: 4,
            peak_live_payload_bytes: 100,
            ..RunStats::default()
        };
        let b = RunStats {
            rounds: 2,
            messages: 1,
            bits: 3,
            max_message_bits: 9,
            undelivered_messages: 2,
            undelivered_bits: 5,
            peak_live_payload_bytes: 60,
            ..RunStats::default()
        };
        a.absorb(&b);
        assert_eq!(
            a,
            RunStats {
                rounds: 5,
                messages: 11,
                bits: 53,
                max_message_bits: 9,
                undelivered_messages: 3,
                undelivered_bits: 9,
                peak_live_payload_bytes: 100,
                ..RunStats::default()
            }
        );
    }

    #[test]
    fn absorb_adds_fault_counters() {
        let mut a = RunStats {
            dropped_messages: 1,
            corrupted_messages: 2,
            truncated_messages: 3,
            dead_nodes: 1,
            rejoined_nodes: 1,
            sync_rounds: 4,
            sync_messages: 7,
            sync_bits: 21,
            forged_messages: 4,
            silenced_messages: 5,
            traitor_nodes: 1,
            signed_messages: 9,
            auth_bits: 288,
            rejected_tags: 2,
            ..RunStats::default()
        };
        let b = a.clone();
        a.absorb(&b);
        assert_eq!(a.dropped_messages, 2);
        assert_eq!(a.corrupted_messages, 4);
        assert_eq!(a.truncated_messages, 6);
        assert_eq!(a.dead_nodes, 2);
        assert_eq!(a.rejoined_nodes, 2);
        assert_eq!(a.sync_rounds, 8);
        assert_eq!(a.sync_messages, 14);
        assert_eq!(a.sync_bits, 42);
        assert_eq!(a.forged_messages, 8);
        assert_eq!(a.silenced_messages, 10);
        assert_eq!(a.traitor_nodes, 2);
        assert_eq!(a.signed_messages, 18);
        assert_eq!(a.auth_bits, 576);
        assert_eq!(a.rejected_tags, 4);
        assert_ne!(a, b, "fault counters participate in equality");
    }

    #[test]
    fn equality_ignores_timing() {
        let mut a = RunStats {
            rounds: 1,
            ..RunStats::default()
        };
        let b = a.clone();
        a.timing.step_ns = 123;
        a.timing.churn_ns = 456;
        assert_eq!(a, b, "wall-clock must not break bit-identity checks");
    }

    #[test]
    fn timing_absorb_adds_totals() {
        let mut t = EngineTiming {
            step_ns: 10,
            delivery_ns: 5,
            churn_ns: 4,
            passes_ns: 6,
            step_phases: 2,
        };
        t.absorb(&EngineTiming {
            step_ns: 1,
            delivery_ns: 2,
            churn_ns: 1,
            passes_ns: 3,
            step_phases: 1,
        });
        assert_eq!(t.step_ns, 11);
        assert_eq!(t.delivery_ns, 7);
        assert_eq!(t.churn_ns, 5);
        assert_eq!(t.passes_ns, 9);
        assert_eq!(t.step_phases, 3);
        assert_eq!(t.total_ns(), 18);
    }
}
