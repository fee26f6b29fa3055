//! Per-worker arena pooling.
//!
//! Each service worker (and the serial oracle) owns one [`ArenaPool`]: a
//! small map from clique size to a parked [`DeliveryArena`]. A job checks
//! the arena for its `n` out, threads it through the session
//! ([`cliquesim::Session::with_arena`] / `into_arena`), and checks it back
//! in afterwards — so back-to-back jobs of the same shape allocate no
//! message slots, exactly like back-to-back phases within one session.
//!
//! Pool discipline, not cache: one arena is parked per clique size, and
//! the pool never grows with job *count*, only with the number of distinct
//! shapes a worker has seen. The stress suite checks this via
//! [`ArenaPool::retained_slots`].

use std::collections::HashMap;

use cliquesim::DeliveryArena;

/// Parked delivery arenas, keyed by clique size.
#[derive(Debug, Default)]
pub struct ArenaPool {
    parked: HashMap<usize, DeliveryArena>,
}

impl ArenaPool {
    /// An empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Take the parked arena for clique size `n`, or a fresh one if none
    /// is parked (first job of this shape, or a checkout while another
    /// job of the same shape is somehow in flight — the fresh arena just
    /// allocates lazily like any cold session).
    pub fn checkout(&mut self, n: usize) -> DeliveryArena {
        self.parked.remove(&n).unwrap_or_default()
    }

    /// Park an arena for reuse by the next job of clique size `n`.
    pub fn checkin(&mut self, n: usize, arena: DeliveryArena) {
        self.parked.insert(n, arena);
    }

    /// Number of distinct clique sizes with a parked arena.
    pub fn shapes(&self) -> usize {
        self.parked.len()
    }

    /// Total message slots currently parked across all shapes — the
    /// worker-side analogue of [`cliquesim::Session::delivery_footprint`].
    /// Steady state means this is a function of the distinct job shapes,
    /// never of how many jobs have run.
    pub fn retained_slots(&self) -> usize {
        self.parked.values().map(|a| a.slot_footprint()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cliquesim::{BitString, Engine, NodeId, Session};

    /// Sends one bit to its ring successor, and halts, in round 0.
    struct RingOnce;
    impl cliquesim::NodeProgram for RingOnce {
        type Output = ();
        fn step(
            &mut self,
            ctx: &cliquesim::NodeCtx,
            _round: usize,
            _inbox: &cliquesim::Inbox<'_>,
            outbox: &mut cliquesim::Outbox<'_>,
        ) -> cliquesim::Status<()> {
            let next = NodeId::from((ctx.id.index() + 1) % ctx.n);
            outbox.send(next, BitString::from_bits([true]));
            cliquesim::Status::Halt(())
        }
    }

    fn run_once(pool: &mut ArenaPool, n: usize) {
        let mut session = Session::with_arena(Engine::new(n), pool.checkout(n));
        session.run((0..n).map(|_| RingOnce).collect()).unwrap();
        pool.checkin(n, session.into_arena());
    }

    /// An arena after a ring round: a broadcast slot per sender row in
    /// each of its two buffers, plus the one entry each row of the written
    /// buffer held.
    fn parked(n: usize) -> usize {
        2 * n + n
    }

    #[test]
    fn pool_retains_one_arena_per_shape_not_per_job() {
        let mut pool = ArenaPool::new();
        for _ in 0..10 {
            run_once(&mut pool, 4);
        }
        assert_eq!(pool.shapes(), 1);
        assert_eq!(pool.retained_slots(), parked(4), "one pair for n=4");
        run_once(&mut pool, 6);
        assert_eq!(pool.shapes(), 2);
        assert_eq!(pool.retained_slots(), parked(4) + parked(6));
        // Another hundred n=4 jobs change nothing.
        let before = pool.retained_slots();
        for _ in 0..100 {
            run_once(&mut pool, 4);
        }
        assert_eq!(pool.retained_slots(), before, "steady state");
    }
}
