//! `broadcast-4096`: the engine-ablation gossip (every node broadcasts an
//! id-width value each round and folds what it hears) on a broadcast-only
//! engine, whose `Auto` delivery resolves to the sparse backend.
//!
//! Why: almost pure engine stepping on the sparse backend, with no driver
//! work — the opposite corner from `algebra-216` (broadcast and sparse
//! here, unicast and dense there).

use std::time::Instant;

use congested_clique::prelude::{BitString, Engine, NodeCtx, NodeProgram, Session, Status};
use congested_clique::sim::{Inbox, Outbox};

use crate::runner::{call, digest, seed_for, Ctx, Rep, Workload};

pub struct Broadcast {
    pub n: usize,
    pub rounds: usize,
    pub seed: u64,
}

/// Node program: in round `r < rounds` broadcast `(x + r) mod 2^w`, and
/// add `u xor value` for every message heard from node `u`.
struct Gossip {
    x: u64,
    rounds: usize,
    acc: u64,
}

impl NodeProgram for Gossip {
    type Output = u64;
    fn step(
        &mut self,
        ctx: &NodeCtx,
        round: usize,
        inbox: &Inbox<'_>,
        outbox: &mut Outbox<'_>,
    ) -> Status<u64> {
        let w = ctx.id_width();
        for (u, m) in inbox.iter() {
            let value = m.reader().read_uint(w).unwrap_or(0);
            self.acc = self.acc.wrapping_add(u.0 as u64 ^ value);
        }
        if round >= self.rounds {
            return Status::Halt(self.acc);
        }
        let mut m = BitString::new();
        m.push_uint((self.x + round as u64) & mask(w), w);
        outbox.broadcast(&m);
        Status::Continue
    }
}

fn mask(width: usize) -> u64 {
    (1u64 << width) - 1
}

pub struct Input {
    xs: Vec<u64>,
    programs: Vec<Gossip>,
    session: Session,
}

impl Broadcast {
    /// Each node's final accumulator in closed form, in `O(n · rounds)`:
    /// node `v` hears `u xor ((x_u + r) mod 2^w)` from every `u ≠ v` in
    /// each round `r < rounds`, so it holds the round's total over all
    /// senders minus its own term.
    fn expected(&self, xs: &[u64]) -> Vec<u64> {
        let m = mask(BitString::width_for(self.n));
        let term = |u: usize, r: usize| u as u64 ^ ((xs[u] + r as u64) & m);
        let totals: Vec<u64> = (0..self.rounds)
            .map(|r| (0..self.n).fold(0u64, |t, u| t.wrapping_add(term(u, r))))
            .collect();
        (0..self.n)
            .map(|v| {
                totals.iter().enumerate().fold(0u64, |acc, (r, t)| {
                    acc.wrapping_add(t.wrapping_sub(term(v, r)))
                })
            })
            .collect()
    }
}

impl Workload for Broadcast {
    type Input = Input;

    fn setup(&self) -> Input {
        let m = mask(BitString::width_for(self.n));
        let xs: Vec<u64> = (0..self.n as u64)
            .map(|v| seed_for(self.seed, v + 1) & m)
            .collect();
        Input {
            programs: xs
                .iter()
                .map(|&x| Gossip {
                    x,
                    rounds: self.rounds,
                    acc: 0,
                })
                .collect(),
            xs,
            session: Session::new(Engine::new(self.n).broadcast_only(true)),
        }
    }

    fn run(&self, input: Input, ctx: &Ctx, judge: bool) -> Rep {
        let Input {
            xs,
            programs,
            session,
        } = input;
        let root = ctx.trace.id();
        let start = Instant::now();
        let gossip = call("cliquesim.Session.run", session, |s| {
            s.run(programs)
                .map(|o| o.outputs)
                .map_err(|e| e.to_string())
        });
        let end = Instant::now();
        ctx.span(root, None, "rep", (start, end), None);
        let ops = vec![gossip.finish(ctx, root, |out: &Vec<u64>| digest(out.iter().copied()))];
        let mut judge_failures = Vec::new();
        if judge
            && gossip
                .out
                .as_ref()
                .is_ok_and(|out| *out != self.expected(&xs))
        {
            judge_failures.push((0, "accumulators differ from the closed form".to_string()));
        }
        Rep {
            wall: end - start,
            ops,
            judge_failures,
        }
    }
}
