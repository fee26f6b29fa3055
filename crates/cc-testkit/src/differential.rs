//! Differential execution across communication modes and topologies.
//!
//! Every runner here executes one protocol on one engine configuration and
//! hands back what it produced: [`differential_broadcast_only`] runs a
//! broadcast-capable protocol in the unrestricted clique *and* in the
//! broadcast-only model (paper §2) and asserts the two agree, and
//! [`differential_programs`] records full transcripts for the auditor.
//! Their panics name the protocol label, so the failing cell is replayable.

use cliquesim::{Engine, NodeProgram, RunStats, Session, Transcript};
use std::fmt::Debug;

/// Run a session-level protocol on a plain clique engine and return its
/// output.
pub fn differential_session<T, F>(label: &str, n: usize, protocol: F) -> T
where
    T: PartialEq + Debug,
    F: FnMut(&mut Session) -> T,
{
    differential_engines(label, &Engine::new(n), protocol)
}

/// Like [`differential_session`], but over an arbitrary pre-configured
/// base engine (topology, bandwidth, broadcast restriction, …).
pub fn differential_engines<T, F>(_label: &str, base: &Engine, mut protocol: F) -> T
where
    T: PartialEq + Debug,
    F: FnMut(&mut Session) -> T,
{
    protocol(&mut Session::new(base.clone()))
}

/// Run a broadcast-capable protocol in the unrestricted clique *and* the
/// broadcast-only model (paper §2), asserting the two models agree.
/// Returns the clique-model output.
pub fn differential_broadcast_only<T, F>(label: &str, n: usize, mut protocol: F) -> T
where
    T: PartialEq + Debug,
    F: FnMut(&mut Session) -> T,
{
    let clique = protocol(&mut Session::new(Engine::new(n)));
    let bcast = protocol(&mut Session::new(Engine::new(n).broadcast_only(true)));
    assert!(
        clique == bcast,
        "{label}: broadcast-only model diverges from clique: {bcast:?} vs {clique:?}"
    );
    clique
}

/// Run raw node programs with transcript recording forced on. Returns
/// `(outputs, stats, transcripts)` for further auditing; an engine error
/// panics with `label`.
pub fn differential_programs<P, M>(
    label: &str,
    base: &Engine,
    mut make_programs: M,
) -> (Vec<P::Output>, RunStats, Vec<Transcript>)
where
    P: NodeProgram,
    P::Output: PartialEq + Debug,
    M: FnMut() -> Vec<P>,
{
    let out = base
        .clone()
        .with_transcripts(true)
        .run(make_programs())
        .unwrap_or_else(|e| panic!("{label}: engine error: {e}"));
    let transcripts = out.transcripts.expect("transcripts were requested");
    (out.outputs, out.stats, transcripts)
}

/// Adjacency matrix of the n-cycle, for CONGEST-ring differentials via
/// `Engine::with_topology`.
pub fn ring_topology(n: usize) -> Vec<bool> {
    let mut adj = vec![false; n * n];
    for v in 0..n {
        let w = (v + 1) % n;
        if v != w {
            adj[v * n + w] = true;
            adj[w * n + v] = true;
        }
    }
    adj
}

#[cfg(test)]
mod tests {
    use super::*;
    use cliquesim::{BitString, Inbox, NodeCtx, NodeId, Outbox, Status};

    /// One broadcast round: every node learns the minimum id.
    #[derive(Clone)]
    struct MinId(u64);

    impl NodeProgram for MinId {
        type Output = u64;
        fn step(
            &mut self,
            ctx: &NodeCtx,
            round: usize,
            inbox: &Inbox<'_>,
            outbox: &mut Outbox<'_>,
        ) -> Status<u64> {
            if round == 0 {
                let mut m = BitString::new();
                m.push_uint(ctx.id.0 as u64, ctx.id_width());
                outbox.broadcast(&m);
                self.0 = ctx.id.0 as u64;
                Status::Continue
            } else {
                for (_, msg) in inbox.iter() {
                    self.0 = self.0.min(msg.reader().read_uint(ctx.id_width()).unwrap());
                }
                Status::Halt(self.0)
            }
        }
    }

    /// Ring token passing: node 0 sends a token around the cycle once;
    /// each node outputs whether it ever saw the token.
    #[derive(Clone, Default)]
    struct RingHop {
        seen: bool,
    }

    impl NodeProgram for RingHop {
        type Output = bool;
        fn step(
            &mut self,
            ctx: &NodeCtx,
            round: usize,
            inbox: &Inbox<'_>,
            outbox: &mut Outbox<'_>,
        ) -> Status<bool> {
            let (me, n) = (ctx.id.index(), ctx.n);
            if !inbox.from(NodeId::from((me + n - 1) % n)).is_empty() {
                self.seen = true;
                let next = (me + 1) % n;
                if next != 0 {
                    outbox.send(NodeId::from(next), BitString::from_bits([true]));
                }
            }
            if round == 0 && me == 0 && n > 1 {
                outbox.send(NodeId::from(1 % n), BitString::from_bits([true]));
            }
            if round >= n - 1 {
                return Status::Halt(me == 0 || self.seen);
            }
            Status::Continue
        }
    }

    #[test]
    fn program_differential_records_a_transcript_per_node() {
        let n = 15;
        let (outputs, stats, transcripts) =
            differential_programs("minid", &Engine::new(n), || vec![MinId(0); n]);
        assert_eq!(outputs, vec![0; n]);
        assert_eq!(stats.rounds, 1);
        assert_eq!(transcripts.len(), n);
    }

    #[test]
    fn ring_topology_runs_under_congest_restriction() {
        let n = 6;
        let engine = Engine::new(n).with_topology(ring_topology(n));
        let (outputs, _, _) =
            differential_programs("ringhop", &engine, || vec![RingHop::default(); n]);
        assert!(outputs.iter().all(|&ok| ok));
    }

    #[test]
    #[should_panic(expected = "TopologyViolated")]
    fn ring_topology_rejects_chords() {
        // A broadcast from any node crosses non-ring links and must be
        // rejected by the engine, proving the helper restricts topology.
        let n = 6;
        let engine = Engine::new(n).with_topology(ring_topology(n));
        engine
            .run((0..n).map(|_| MinId(0)).collect())
            .map(|_| ())
            .unwrap();
    }

    #[test]
    fn session_differential_composes_phases() {
        let g = crate::instances::Instance::new(crate::instances::Family::ErMedium, 14, 5).graph();
        let out = differential_session("two-phase", 14, |s| {
            let a = cc_graph_bfs(s, &g, 0);
            let b = cc_graph_bfs(s, &g, 1);
            (a, b)
        });
        assert_eq!(out.0.len(), 14);
    }

    /// Minimal BFS flood (testkit-local, so this module's self-test does
    /// not depend on `cc-paths`): distances from `src` by 1-bit waves.
    fn cc_graph_bfs(s: &mut Session, g: &cc_graph::Graph, src: usize) -> Vec<u64> {
        #[derive(Clone)]
        struct Flood {
            row: BitString,
            src: usize,
            dist: Option<u64>,
            frontier: bool,
        }
        impl NodeProgram for Flood {
            type Output = u64;
            fn step(
                &mut self,
                ctx: &NodeCtx,
                round: usize,
                inbox: &Inbox<'_>,
                outbox: &mut Outbox<'_>,
            ) -> Status<u64> {
                let me = ctx.id.index();
                if round == 0 {
                    if me == self.src {
                        self.dist = Some(0);
                        self.frontier = true;
                    }
                } else {
                    let mut newly = false;
                    for (u, _) in inbox.iter() {
                        let slot = if u.index() < me {
                            u.index()
                        } else {
                            u.index() - 1
                        };
                        if self.row.get(slot) && self.dist.is_none() {
                            self.dist = Some(round as u64);
                            newly = true;
                        }
                    }
                    self.frontier = newly;
                }
                if round >= ctx.n {
                    return Status::Halt(self.dist.unwrap_or(u64::MAX));
                }
                if self.frontier {
                    outbox.broadcast(&BitString::from_bits([true]));
                }
                Status::Continue
            }
        }
        let n = g.n();
        let programs = (0..n)
            .map(|v| Flood {
                row: g.input_row(NodeId::from(v)),
                src,
                dist: None,
                frontier: false,
            })
            .collect();
        s.run(programs).unwrap().outputs
    }
}
