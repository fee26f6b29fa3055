//! Simulating a larger clique on the clique at hand.
//!
//! Theorem 10's final step: "given an input graph G and a dominating set
//! algorithm A with running time O(n^δ), we can simulate in the congested
//! clique the execution of A on G′ in O(k^{2δ+4} n^δ) rounds" — each node
//! of the real clique impersonates the `O(k²)` gadget vertices it can
//! construct from its local view.
//!
//! Two layers:
//!
//! * [`run_virtual`] — a *packet-level* simulator: executes any
//!   [`NodeProgram`] written for an `n′`-node clique on an `n`-node host
//!   session, shipping every virtual message inside host messages. This is
//!   the constructive version of the theorem's argument.
//! * [`SimulationCost`] — the *accounting* version: converts the round
//!   count of an algorithm measured on an `n′`-node engine into the host
//!   cost the simulation argument guarantees (`⌈c²·B′/B⌉` host rounds per
//!   virtual round for per-host load `c`), which is how the theorem itself
//!   reasons. Phase-composed algorithms (like Theorem 9's, which uses the
//!   routing substrate) are costed this way.

use cc_routing::{RouteError, RoutePlan};
use cliquesim::{
    BitString, Inbox, NodeCtx, NodeId, NodeProgram, Outbox, RunStats, Session, Status,
};

/// Assignment of virtual nodes to host nodes.
#[derive(Clone, Debug)]
pub struct Assignment {
    /// `host_of[v′]` = host node index for virtual node `v′`.
    pub host_of: Vec<usize>,
    /// Number of host nodes.
    pub hosts: usize,
}

impl Assignment {
    /// Round-robin assignment of `n_virtual` nodes to `hosts` hosts.
    pub fn round_robin(n_virtual: usize, hosts: usize) -> Self {
        assert!(hosts >= 1);
        Self {
            host_of: (0..n_virtual).map(|v| v % hosts).collect(),
            hosts,
        }
    }

    /// Largest number of virtual nodes any host simulates.
    pub fn max_load(&self) -> usize {
        let mut load = vec![0usize; self.hosts];
        for &h in &self.host_of {
            load[h] += 1;
        }
        load.into_iter().max().unwrap_or(0)
    }
}

/// Accounting-level simulation cost (the theorem's own argument).
#[derive(Clone, Copy, Debug)]
pub struct SimulationCost {
    /// Host rounds charged per virtual round.
    pub factor: usize,
}

impl SimulationCost {
    /// One virtual round moves, per ordered host pair, at most `c²` virtual
    /// messages of `B′` bits; the host link carries `B` bits per round.
    pub fn per_round(c: usize, virtual_bandwidth: usize, host_bandwidth: usize) -> Self {
        let bits = c * c * virtual_bandwidth;
        Self {
            factor: bits.div_ceil(host_bandwidth).max(1),
        }
    }

    /// Host cost of a virtual run. Rounds scale by the factor; payload
    /// totals and the auxiliary counters carry over unchanged.
    pub fn apply(&self, virtual_stats: &RunStats) -> RunStats {
        RunStats {
            rounds: virtual_stats.rounds * self.factor,
            ..virtual_stats.clone()
        }
    }
}

/// Packet-level execution of an `n′`-node clique algorithm on an `n`-node
/// host session.
///
/// Every virtual message `v′ → u′` travels as a framed
/// `(src′, dst′, payload)` record from `host(v′)` to `host(u′)`; messages
/// between co-hosted virtual nodes are free local hand-offs. Virtual
/// bandwidth (`⌈log₂ n′⌉` by default) is enforced here, since the host
/// engine only checks host-message sizes.
pub fn run_virtual<P: NodeProgram>(
    host: &mut Session,
    assignment: &Assignment,
    mut programs: Vec<P>,
) -> Result<Vec<P::Output>, RouteError> {
    let nv = programs.len();
    assert_eq!(assignment.host_of.len(), nv);
    assert_eq!(assignment.hosts, host.n());
    let vb = BitString::width_for(nv); // virtual bandwidth
    let idw = BitString::width_for(nv);

    let ctxs: Vec<NodeCtx> = (0..nv)
        .map(|v| NodeCtx {
            id: NodeId::from(v),
            n: nv,
            bandwidth: vb,
        })
        .collect();
    for (p, ctx) in programs.iter_mut().zip(&ctxs) {
        p.init(ctx);
    }

    let mut inboxes: Vec<Vec<BitString>> = vec![vec![BitString::new(); nv]; nv];
    let mut halted = vec![false; nv];
    let mut outputs: Vec<Option<P::Output>> = (0..nv).map(|_| None).collect();
    let mut round = 0usize;
    loop {
        // Step all virtual nodes; collect their outboxes.
        let mut out_slots: Vec<Vec<BitString>> = vec![vec![BitString::new(); nv]; nv];
        for v in 0..nv {
            if halted[v] {
                continue;
            }
            let inbox = Inbox::from_slots(&inboxes[v], v);
            let mut outbox = Outbox::new(&mut out_slots[v], v);
            match programs[v].step(&ctxs[v], round, &inbox, &mut outbox) {
                Status::Continue => {}
                Status::Halt(out) => {
                    halted[v] = true;
                    outputs[v] = Some(out);
                }
            }
        }
        if halted.iter().all(|h| *h) {
            break;
        }

        // Clear virtual inboxes, then deliver.
        for row in &mut inboxes {
            for slot in row.iter_mut() {
                *slot = BitString::new();
            }
        }
        let mut demands: Vec<Vec<(NodeId, BitString)>> = vec![Vec::new(); assignment.hosts];
        for v in 0..nv {
            let hv = assignment.host_of[v];
            for u in 0..nv {
                let msg = &out_slots[v][u];
                if msg.is_empty() {
                    continue;
                }
                assert!(
                    msg.len() <= vb,
                    "virtual node {v} exceeded virtual bandwidth ({} > {vb})",
                    msg.len()
                );
                let hu = assignment.host_of[u];
                if hv == hu {
                    inboxes[u][v] = msg.clone();
                } else {
                    let mut rec = BitString::new();
                    rec.push_uint(v as u64, idw);
                    rec.push_uint(u as u64, idw);
                    rec.push_uint(msg.len() as u64, 8);
                    rec.extend_from(msg);
                    demands[hv].push((NodeId::from(hu), rec));
                }
            }
        }
        let delivered = RoutePlan::direct().run(host, demands)?;
        for per_host in delivered {
            for (_, rec) in per_host {
                let mut r = rec.reader();
                let v = r.read_uint(idw).expect("virtual src") as usize;
                let u = r.read_uint(idw).expect("virtual dst") as usize;
                let len = r.read_uint(8).expect("virtual len") as usize;
                let payload = r.read_bits(len).expect("virtual payload");
                inboxes[u][v] = payload;
            }
        }
        round += 1;
    }
    Ok(outputs
        .into_iter()
        .map(|o| o.expect("halted virtual node has output"))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use cliquesim::Engine;

    /// Every node broadcasts its id and outputs the sum of all ids.
    struct SumIds(u64);
    impl NodeProgram for SumIds {
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
                    self.0 += msg.reader().read_uint(ctx.id_width()).unwrap();
                }
                Status::Halt(self.0)
            }
        }
    }

    #[test]
    fn virtual_run_matches_direct_run() {
        let nv = 10;
        let direct = Engine::new(nv)
            .run((0..nv).map(|_| SumIds(0)).collect::<Vec<_>>())
            .unwrap();
        for hosts in [3usize, 5, 10] {
            let mut host = Session::new(Engine::new(hosts));
            let asg = Assignment::round_robin(nv, hosts);
            let out = run_virtual(&mut host, &asg, (0..nv).map(|_| SumIds(0)).collect()).unwrap();
            assert_eq!(out, direct.outputs, "hosts={hosts}");
            assert!(host.stats().rounds > 0);
        }
    }

    #[test]
    fn cohosted_messages_are_free() {
        // All virtual nodes on one host: zero host communication.
        let nv = 6;
        let mut host = Session::new(Engine::new(1));
        let asg = Assignment {
            host_of: vec![0; nv],
            hosts: 1,
        };
        let out = run_virtual(&mut host, &asg, (0..nv).map(|_| SumIds(0)).collect()).unwrap();
        assert_eq!(out, vec![15; 6]);
        assert_eq!(host.stats().messages, 0);
    }

    #[test]
    fn assignment_loads() {
        let a = Assignment::round_robin(10, 4);
        assert_eq!(a.max_load(), 3);
        assert_eq!(Assignment::round_robin(8, 4).max_load(), 2);
    }

    mod prop {
        use super::super::*;
        use super::SumIds;
        use cliquesim::Engine;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(12))]
            #[test]
            fn prop_virtual_matches_direct(nv in 3usize..12, hosts in 2usize..6, seed in any::<u64>()) {
                // Random (deterministically seeded) assignment of virtual
                // nodes to hosts.
                use rand::{Rng, SeedableRng};
                let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
                let host_of: Vec<usize> = (0..nv).map(|_| rng.gen_range(0..hosts)).collect();
                let asg = Assignment { host_of, hosts };
                let direct = Engine::new(nv)
                    .run((0..nv).map(|_| SumIds(0)).collect::<Vec<_>>())
                    .unwrap();
                let mut host = Session::new(Engine::new(hosts));
                let out = run_virtual(&mut host, &asg, (0..nv).map(|_| SumIds(0)).collect()).unwrap();
                prop_assert_eq!(out, direct.outputs);
            }
        }
    }

    #[test]
    fn cost_accounting() {
        let c = SimulationCost::per_round(3, 5, 4);
        assert_eq!(c.factor, (9 * 5usize).div_ceil(4));
        let vs = RunStats {
            rounds: 10,
            messages: 7,
            bits: 100,
            max_message_bits: 5,
            ..RunStats::default()
        };
        assert_eq!(c.apply(&vs).rounds, 10 * c.factor);
    }
}
