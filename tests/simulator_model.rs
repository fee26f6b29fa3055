//! Model-level invariants of the simulator, exercised through real
//! algorithms (not synthetic programs): bandwidth accounting, input
//! encodings, deterministic parallelism, phase composition.

use congested_clique::prelude::*;
use congested_clique::{graph, paths, routing};

#[test]
fn bandwidth_is_never_exceeded_by_any_algorithm() {
    // The engine would error out on a violation; additionally the recorded
    // max message width must respect the configured budget.
    let n = 24;
    let g = graph::gen::gnp(n, 0.3, 4);
    let mut s = Session::new(Engine::new(n));
    paths::bfs(&mut s, &g, 0).unwrap();
    assert!(s.stats().max_message_bits <= s.bandwidth());

    let wg = graph::gen::gnp_weighted(n, 0.3, 10, 4);
    let mut s2 = Session::new(Engine::new(n));
    paths::apsp_exact(&mut s2, &wg).unwrap();
    assert!(s2.stats().max_message_bits <= s2.bandwidth());
}

#[test]
fn parallel_engine_is_bit_identical_on_real_algorithms() {
    // Round counts and outputs are independent of host-thread count.
    let n = 20;
    let g = graph::gen::gnp(n, 0.25, 77);
    // BFS through a sequential engine...
    let mut s1 = Session::new(Engine::new(n));
    let d1 = paths::bfs(&mut s1, &g, 3).unwrap();
    // ...and a 4-worker pool (exact: not capped by host cores, so the
    // pooled path is exercised even on single-core CI).
    let mut s2 = Session::new(Engine::new(n).with_threads_exact(4));
    let d2 = paths::bfs(&mut s2, &g, 3).unwrap();
    assert_eq!(d1, d2);
    assert_eq!(s1.stats(), s2.stats());
}

#[test]
fn routing_respects_declared_costs() {
    // The direct schedule's round count equals the max framed per-link
    // stream divided by the bandwidth — measured, not assumed.
    let n = 10;
    let mut s = Session::new(Engine::new(n));
    let payload = cliquesim::BitString::zeros(100);
    let mut demands: Vec<Vec<(NodeId, cliquesim::BitString)>> = vec![Vec::new(); n];
    demands[0].push((NodeId(5), payload));
    routing::RoutePlan::direct().run(&mut s, demands).unwrap();
    let expected = (100 + routing::LEN_HEADER_BITS).div_ceil(s.bandwidth());
    assert_eq!(s.stats().rounds, expected);
}

#[test]
fn session_phases_sum_rounds() {
    let n = 12;
    let g = graph::gen::gnp(n, 0.3, 5);
    let mut s = Session::new(Engine::new(n));
    let r0 = s.stats().rounds;
    paths::bfs(&mut s, &g, 0).unwrap();
    let r1 = s.stats().rounds;
    paths::bfs(&mut s, &g, 1).unwrap();
    let r2 = s.stats().rounds;
    assert!(r1 > r0);
    assert!(r2 > r1, "second phase must add rounds on top");
    assert_eq!(s.phases(), 2);
}

#[test]
fn both_paper_input_encodings_reconstruct_the_graph() {
    let g = graph::gen::gnp(15, 0.4, 8);
    // Standard rows.
    for v in 0..15 {
        let row = g.input_row(NodeId::from(v));
        assert_eq!(row.len(), 14);
        for u in 0..15 {
            if u == v {
                continue;
            }
            let slot = if u < v { u } else { u - 1 };
            assert_eq!(row.get(slot), g.has_edge(u, v));
        }
    }
    // Balanced private split: partitions all pairs, each node ≥ ⌊(n−1)/2⌋.
    let total: usize = (0..15)
        .map(|v| graph::Graph::owned_slots(15, v).len())
        .sum();
    assert_eq!(total, 15 * 14 / 2);
    for v in 0..15 {
        assert!(graph::Graph::owned_slots(15, v).len() >= 7);
    }
}

#[test]
fn bfs_is_a_broadcast_congested_clique_algorithm() {
    // BFS flooding only ever broadcasts identical 1-bit announcements, so
    // it runs unchanged in the broadcast-restricted model (§2) — and the
    // engine would reject it if it ever unicast.
    let n = 20;
    let g = graph::gen::gnp(n, 0.2, 3);
    let mut s = Session::new(Engine::new(n).broadcast_only(true));
    let got = paths::bfs(&mut s, &g, 0).unwrap();
    assert_eq!(got, graph::reference::bfs_distances(&g, 0));
    // The routing layer, by contrast, is inherently unicast.
    let mut s2 = Session::new(Engine::new(4).broadcast_only(true));
    let mut demands: Vec<Vec<(NodeId, cliquesim::BitString)>> = vec![Vec::new(); 4];
    demands[0].push((NodeId(2), cliquesim::BitString::zeros(3)));
    assert!(routing::RoutePlan::direct().run(&mut s2, demands).is_err());
}

mod thread_count_identity {
    //! Property: the engine's outputs, transcripts, and every model-level
    //! stat are independent of the pool shape — across thread counts that
    //! divide `n` unevenly, in broadcast-only mode, and under a CONGEST
    //! ring topology.

    use cliquesim::{
        BitString, Engine, Inbox, NodeCtx, NodeId, NodeProgram, Outbox, RunStats, Status,
        Transcript,
    };
    use proptest::prelude::*;

    /// Deterministic message-mixing program: every round each node folds
    /// its inbox into an accumulator, then unicasts / broadcasts /
    /// ring-casts a bandwidth-wide digest of it. Nodes halt at staggered
    /// rounds, so late messages land on halted receivers and exercise the
    /// undelivered accounting too.
    #[derive(Clone)]
    struct Mixer {
        /// 0 = clique unicast, 1 = broadcast-only, 2 = CONGEST ring.
        mode: u8,
        halt_after: usize,
        acc: u64,
    }

    impl NodeProgram for Mixer {
        type Output = u64;

        fn step(
            &mut self,
            ctx: &NodeCtx,
            round: usize,
            inbox: &Inbox<'_>,
            ob: &mut Outbox<'_>,
        ) -> Status<u64> {
            for (u, m) in inbox.iter() {
                self.acc = self
                    .acc
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add(m.as_uint() ^ u.index() as u64);
            }
            if round >= self.halt_after {
                return Status::Halt(self.acc);
            }
            let (me, n) = (ctx.id.index(), ctx.n);
            let width = ctx.bandwidth.min(63);
            let digest = |salt: u64| {
                let mut m = BitString::new();
                m.push_uint(
                    (self.acc ^ round as u64 ^ salt) & ((1u64 << width) - 1),
                    width,
                );
                m
            };
            match self.mode {
                1 => ob.broadcast(&digest(7)),
                2 => {
                    for to in [(me + 1) % n, (me + n - 1) % n] {
                        if to != me {
                            ob.send(NodeId::from(to), digest(to as u64));
                        }
                    }
                }
                _ => {
                    // k ∈ [1, n-1], so the target is never `me`.
                    let to = (me + 1 + round % (n - 1)) % n;
                    ob.send(NodeId::from(to), digest(to as u64));
                }
            }
            Status::Continue
        }
    }

    fn ring(n: usize) -> Vec<bool> {
        let mut adj = vec![false; n * n];
        for v in 0..n {
            let w = (v + 1) % n;
            adj[v * n + w] = true;
            adj[w * n + v] = true;
        }
        adj
    }

    fn run(n: usize, mode: u8, k: usize, threads: usize) -> (Vec<u64>, RunStats, Vec<Transcript>) {
        let mut engine = Engine::new(n).with_transcripts(true);
        engine = match mode {
            1 => engine.broadcast_only(true),
            2 => engine.with_topology(ring(n)),
            _ => engine,
        };
        if threads > 1 {
            // Exact: the pooled path must run even when the host has
            // fewer cores than workers (single-core CI included).
            engine = engine.with_threads_exact(threads);
        }
        let programs = (0..n)
            .map(|v| Mixer {
                mode,
                halt_after: k + (v * 3 + 1) % 4,
                acc: v as u64,
            })
            .collect();
        let out = engine.run(programs).expect("mixer must run clean");
        (
            out.outputs,
            out.stats,
            out.transcripts.expect("recording on"),
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn engine_is_bit_identical_across_thread_counts(
            n in 5usize..24,       // includes primes: no thread count divides evenly
            mode in 0u8..3,
            k in 1usize..5,
        ) {
            let (out0, stats0, tr0) = run(n, mode, k, 1);
            prop_assert!(stats0.rounds >= k, "mixers run at least k rounds");
            for threads in [2usize, 3, 4, 7] {
                let (out, stats, tr) = run(n, mode, k, threads);
                prop_assert_eq!(&out0, &out, "outputs differ at {} threads", threads);
                prop_assert_eq!(&stats0, &stats, "stats differ at {} threads", threads);
                prop_assert_eq!(&tr0, &tr, "transcripts differ at {} threads", threads);
            }
        }
    }
}

#[test]
fn relay_broadcast_consistency_across_nodes() {
    let n = 12;
    let mut s = Session::new(Engine::new(n));
    let payload: cliquesim::BitString = (0..n * 7).map(|i| i % 3 == 1).collect();
    let views = routing::relay_broadcast(&mut s, NodeId(4), &payload).unwrap();
    for v in views {
        assert_eq!(v, payload);
    }
}
