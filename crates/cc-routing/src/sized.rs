//! Header-free ("sized") routing for patterns whose payload **sizes** are
//! global knowledge.
//!
//! [`crate::route`] frames every payload with a [`crate::LEN_HEADER_BITS`]
//! length header because receivers cannot otherwise split a link stream
//! back into payloads. But the balanced-routing legitimacy argument (see
//! [`crate::balanced`]) already assumes demand sizes are globally known —
//! either as pure functions of `n` and `k`, or *agreed in-model by a gossip
//! round*, as the sparse matrix-multiplication tier does with its
//! nonzero-count gossip. Under that assumption the headers are pure
//! overhead: every node can compute the exact split points itself.
//!
//! This module is the header-free rendering of both schedules:
//!
//! * [`route_sized`] — the direct schedule shipping raw concatenated
//!   payloads; receivers split by the globally known size list.
//! * [`route_balanced_sized`] — the two-phase balanced megastream with raw
//!   (unframed) per-destination streams; reassembly slices by layout.
//! * [`all_to_all_sized`] — broadcast collective on [`route_sized`].
//!
//! Every entry point has an **exact analytic twin** ([`route_sized_cost`],
//! [`route_balanced_sized_cost`], [`all_to_all_sized_cost`]) computing the
//! full [`RunStats`] ledger — rounds, messages, bits, max message width,
//! peak live payload bytes — from the demand sizes alone, asserted
//! field-for-field against simulation the way `dolev_strong_overhead` is.
//! The sparse matmul round-cost function is built on these twins.
//!
//! Sparse-payload caveat: a *zero-length* payload ships zero bits (and
//! zero messages) yet is still delivered — the receiver knows its size.
//! Framed routing would charge a full header for the same delivery.

use cliquesim::{BitString, NodeId, RunStats, Session};

use crate::balanced::{segment_range, BalancedPlan, Encoding, MegaLayout};
use crate::frames::rounds_for;
use crate::router::{check_schedule, make_programs, schedule_for, Delivered, RouteError};

/// One demand list per node, as routed by [`route_sized`].
type DemandMatrix = Vec<Vec<(NodeId, BitString)>>;

/// Demand **sizes** in the same shape as a demand matrix: per sender, the
/// `(destination, payload length in bits)` pairs in sending order. This is
/// the global knowledge the cost twins price.
pub type DemandSizes = Vec<Vec<(usize, usize)>>;

/// Extract the size shape of a demand matrix (what every node is assumed
/// to know globally).
pub fn demand_sizes(demands: &[Vec<(NodeId, BitString)>]) -> DemandSizes {
    demands
        .iter()
        .map(|list| {
            list.iter()
                .map(|(dst, payload)| (dst.index(), payload.len()))
                .collect()
        })
        .collect()
}

fn split_error(w: usize, wanted: usize, got: usize) -> RouteError {
    RouteError::Malformed(
        NodeId::from(w),
        cliquesim::DecodeError {
            at: got,
            wanted,
            len: got,
        },
    )
}

/// Route a demand set with the static direct schedule and **no frame
/// headers**: per link, payloads are concatenated raw and split back by
/// the globally known size list.
///
/// Semantics are identical to [`crate::route`] — per node, delivered
/// `(source, payload)` pairs with sources ascending and payloads per
/// source in sending order — except that zero-length payloads are also
/// delivered (for free). Only legitimate when every node knows every
/// payload's size; callers must establish that (size a pure function of
/// `n`/`k`, or agreed by a prior gossip round).
pub fn route_sized(
    session: &mut Session,
    demands: DemandMatrix,
) -> Result<Vec<Delivered>, RouteError> {
    let n = session.n();
    assert_eq!(demands.len(), n, "one demand list per node");
    let bandwidth = session.bandwidth();

    // Raw per-link streams plus the size lists needed to split them back.
    let mut sizes: Vec<Vec<Vec<usize>>> = vec![vec![Vec::new(); n]; n];
    let mut streams: Vec<Vec<BitString>> = vec![vec![BitString::new(); n]; n];
    for (v, list) in demands.into_iter().enumerate() {
        for (dst, payload) in list {
            assert_ne!(dst.index(), v, "demand from node {v} to itself");
            sizes[v][dst.index()].push(payload.len());
            streams[v][dst.index()].extend_from(&payload);
        }
    }

    let schedule = schedule_for(&streams, bandwidth);
    let programs = make_programs(n, streams, schedule);
    let outcome = session.run(programs)?;
    check_schedule(schedule, outcome.stats.rounds)?;

    let mut result = Vec::with_capacity(n);
    for (w, collected) in outcome.outputs.into_iter().enumerate() {
        let mut delivered: Delivered = Vec::new();
        for (src, stream) in collected.into_iter().enumerate() {
            let lens = &sizes[src][w];
            let want: usize = lens.iter().sum();
            if stream.len() != want {
                return Err(split_error(w, want, stream.len()));
            }
            let mut r = stream.reader();
            for &len in lens {
                let payload = r
                    .read_bits(len)
                    .map_err(|e| RouteError::Malformed(NodeId::from(w), e))?;
                delivered.push((NodeId::from(src), payload));
            }
        }
        result.push(delivered);
    }
    Ok(result)
}

/// All-to-all broadcast on [`route_sized`]: node `v` sends `payloads[v]`
/// to everyone; returns each node's view of all `n` payloads indexed by
/// source (its own copied locally for free). Payload sizes must be global
/// knowledge.
pub fn all_to_all_sized(
    session: &mut Session,
    payloads: Vec<BitString>,
) -> Result<Vec<Vec<BitString>>, RouteError> {
    let n = session.n();
    assert_eq!(payloads.len(), n);
    let demands: DemandMatrix = payloads
        .iter()
        .enumerate()
        .map(|(v, p)| {
            (0..n)
                .filter(|&w| w != v)
                .map(|w| (NodeId::from(w), p.clone()))
                .collect()
        })
        .collect();
    let delivered = route_sized(session, demands)?;
    let mut views = Vec::with_capacity(n);
    for (v, list) in delivered.into_iter().enumerate() {
        let mut view = vec![BitString::new(); n];
        view[v] = payloads[v].clone();
        for (src, payload) in list {
            view[src.index()] = payload;
        }
        views.push(view);
    }
    Ok(views)
}

/// The two-phase balanced megastream schedule, header-free.
///
/// Delivery semantics are identical to [`crate::route_balanced`] except
/// that zero-length payloads are also delivered (for free). Only
/// legitimate when payload sizes are global knowledge — the sparse matmul
/// tier earns this with its nonzero-count gossip.
pub fn route_balanced_sized(
    session: &mut Session,
    demands: DemandMatrix,
) -> Result<Vec<Delivered>, RouteError> {
    let n = session.n();
    assert_eq!(demands.len(), n);
    BalancedPlan::new(n, (0..n).collect(), demands, Encoding::Sized).execute(session, route_sized)
}

// ---------------------------------------------------------------------------
// Analytic cost twins
// ---------------------------------------------------------------------------

/// Exact [`RunStats`] of one engine run executing the direct schedule over
/// raw per-link loads `loads[v][w]` (bits, `v ≠ w`): mirrors `RouterNode`
/// chunking and the engine's `close_round` accounting bit-for-bit.
fn direct_cost_from_links(bandwidth: usize, loads: &[Vec<usize>]) -> RunStats {
    let mut stats = RunStats::default();
    let mut schedule = 0usize;
    for row in loads {
        for &len in row {
            if len == 0 {
                continue;
            }
            schedule = schedule.max(rounds_for(len, bandwidth));
            stats.messages += rounds_for(len, bandwidth) as u64;
            stats.bits += len as u64;
            stats.max_message_bits = stats.max_message_bits.max(bandwidth.min(len));
        }
    }
    stats.rounds = schedule;
    // Peak live payload: the engine tracks, per round boundary, the bits
    // still buffered from the previous round plus the bits sent this
    // round; the final (halting) round sends nothing.
    let mut prev = 0u64;
    let mut peak = 0usize;
    for r in 0..=schedule {
        let mut cur = 0u64;
        if r < schedule {
            for row in loads {
                for &len in row {
                    if len > r * bandwidth {
                        cur += bandwidth.min(len - r * bandwidth) as u64;
                    }
                }
            }
        }
        peak = peak.max(((prev + cur) as usize).div_ceil(8));
        prev = cur;
    }
    stats.peak_live_payload_bytes = peak;
    stats
}

/// Fold per-payload demand sizes into raw per-link bit loads.
fn link_loads(n: usize, sizes: &DemandSizes) -> Vec<Vec<usize>> {
    let mut loads = vec![vec![0usize; n]; n];
    for (v, list) in sizes.iter().enumerate() {
        for &(dst, len) in list {
            assert_ne!(dst, v, "demand from node {v} to itself");
            loads[v][dst] += len;
        }
    }
    loads
}

/// Analytic twin of [`route_sized`]: the exact [`RunStats`] of routing a
/// demand set with the given size shape (see [`demand_sizes`]).
pub fn route_sized_cost(n: usize, bandwidth: usize, sizes: &DemandSizes) -> RunStats {
    assert_eq!(sizes.len(), n, "one size list per node");
    direct_cost_from_links(bandwidth, &link_loads(n, sizes))
}

/// Analytic twin of [`all_to_all_sized`] for per-node payload lengths.
pub fn all_to_all_sized_cost(n: usize, bandwidth: usize, payload_lens: &[usize]) -> RunStats {
    assert_eq!(payload_lens.len(), n);
    let mut loads = vec![vec![0usize; n]; n];
    for v in 0..n {
        for w in 0..n {
            if w != v {
                loads[v][w] = payload_lens[v];
            }
        }
    }
    direct_cost_from_links(bandwidth, &loads)
}

/// Analytic twin of [`route_balanced_sized`]: prices both phases from the
/// size shape alone — megastream layouts, segment scatter, overlap slicing
/// — and combines them exactly as the session ledger does (rounds add,
/// max fields max).
pub fn route_balanced_sized_cost(n: usize, bandwidth: usize, sizes: &DemandSizes) -> RunStats {
    assert_eq!(sizes.len(), n, "one size list per node");
    // Megastream layouts from raw per-destination stream sizes.
    let layouts: Vec<MegaLayout> = link_loads(n, sizes)
        .into_iter()
        .map(MegaLayout::new)
        .collect();

    // Phase 1: scatter megastream segments (segment j of u → (j + u) % n;
    // the j = 0 segment stays local and is free).
    let mut loads1 = vec![vec![0usize; n]; n];
    for u in 0..n {
        for j in 1..n {
            let (a, b) = segment_range(layouts[u].total, n, j);
            loads1[u][(j + u) % n] += b - a;
        }
    }

    // Phase 2: slice held segments by destination range overlap; p holds
    // segment (p − u) mod n of u's megastream.
    let mut loads2 = vec![vec![0usize; n]; n];
    for p in 0..n {
        for u in 0..n {
            for (w, ia, ib) in layouts[u].segment_pieces(n, (p + n - u) % n) {
                if w != p {
                    loads2[p][w] += ib - ia;
                }
            }
        }
    }

    let mut stats = direct_cost_from_links(bandwidth, &loads1);
    stats.absorb(&direct_cost_from_links(bandwidth, &loads2));
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::router::route;
    use crate::{all_to_all_broadcast, route_balanced};
    use cliquesim::Engine;
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};

    fn session(n: usize) -> Session {
        Session::new(Engine::new(n))
    }

    fn normalise(d: Vec<Delivered>) -> Vec<Vec<(usize, Vec<bool>)>> {
        d.into_iter()
            .map(|list| {
                let mut v: Vec<(usize, Vec<bool>)> = list
                    .into_iter()
                    .map(|(s, p)| (s.index(), p.iter().collect()))
                    .collect();
                v.sort();
                v
            })
            .collect()
    }

    fn random_demands(n: usize, seed: u64, max_len: usize) -> DemandMatrix {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let mut demands: DemandMatrix = vec![Vec::new(); n];
        for v in 0..n {
            for _ in 0..rng.gen_range(0..4) {
                let dst = (v + rng.gen_range(1..n)) % n;
                let len = rng.gen_range(0..max_len);
                let payload: BitString = (0..len).map(|_| rng.gen_bool(0.5)).collect();
                demands[v].push((NodeId::from(dst), payload));
            }
        }
        demands
    }

    #[test]
    fn sized_matches_framed_deliveries() {
        let n = 6;
        for seed in 0..8 {
            let mut s1 = session(n);
            let framed = route(&mut s1, random_demands(n, seed, 30)).unwrap();
            let mut s2 = session(n);
            let sized = route_sized(&mut s2, random_demands(n, seed, 30)).unwrap();
            assert_eq!(normalise(framed), normalise(sized), "seed {seed}");
            assert!(
                s2.stats().bits <= s1.stats().bits,
                "seed {seed}: sized shipped more bits than framed"
            );
        }
    }

    #[test]
    fn sized_is_strictly_cheaper_when_demands_exist() {
        // Every payload saves exactly LEN_HEADER_BITS on the wire.
        let n = 5;
        let demands = random_demands(n, 3, 40);
        let payloads: u64 = demands.iter().map(|l| l.len() as u64).sum();
        assert!(payloads > 0, "seed produced no demands");
        let mut s1 = session(n);
        route(&mut s1, demands.clone()).unwrap();
        let mut s2 = session(n);
        route_sized(&mut s2, demands).unwrap();
        assert_eq!(
            s2.stats().bits + payloads * crate::LEN_HEADER_BITS as u64,
            s1.stats().bits
        );
        assert!(s2.stats().rounds <= s1.stats().rounds);
    }

    #[test]
    fn empty_payloads_are_delivered_for_free() {
        let n = 4;
        let mut demands: DemandMatrix = vec![Vec::new(); n];
        demands[1].push((NodeId::from(3), BitString::new()));
        demands[2].push((NodeId::from(0), BitString::from_bits([true, true])));
        let mut s = session(n);
        let got = route_sized(&mut s, demands).unwrap();
        assert_eq!(got[3], vec![(NodeId::from(1), BitString::new())]);
        assert_eq!(got[0].len(), 1);
        // The empty payload contributed no bits and no messages.
        assert_eq!(s.stats().bits, 2);
        assert_eq!(s.stats().messages, 1);
    }

    #[test]
    fn balanced_sized_matches_framed_balanced_deliveries() {
        for n in [4usize, 6, 9] {
            for seed in 0..4 {
                let mut s1 = session(n);
                let framed = route_balanced(&mut s1, random_demands(n, seed, 50)).unwrap();
                let mut s2 = session(n);
                let sized = route_balanced_sized(&mut s2, random_demands(n, seed, 50)).unwrap();
                // Framed balanced parses empty payloads out of headers too,
                // so deliveries agree exactly.
                assert_eq!(normalise(framed), normalise(sized), "n={n} seed {seed}");
                assert!(s2.stats().bits <= s1.stats().bits, "n={n} seed {seed}");
            }
        }
    }

    #[test]
    fn all_to_all_sized_matches_framed_views() {
        let n = 5;
        let payloads: Vec<BitString> = (0..n)
            .map(|v| BitString::from_bits((0..3 * v).map(|i| i % 2 == 0)))
            .collect();
        let mut s1 = session(n);
        let framed = all_to_all_broadcast(&mut s1, payloads.clone()).unwrap();
        let mut s2 = session(n);
        let sized = all_to_all_sized(&mut s2, payloads.clone()).unwrap();
        assert_eq!(framed, sized);
        assert!(s2.stats().bits < s1.stats().bits);
        let analytic = all_to_all_sized_cost(
            n,
            s2.bandwidth(),
            &payloads.iter().map(|p| p.len()).collect::<Vec<_>>(),
        );
        assert_eq!(analytic, s2.stats(), "analytic twin diverges");
    }

    #[test]
    fn cost_twin_matches_direct_simulation_exactly() {
        for n in [2usize, 4, 7] {
            for seed in 0..6 {
                let demands = random_demands(n, seed * 11 + n as u64, 70);
                let sizes = demand_sizes(&demands);
                let mut s = session(n);
                route_sized(&mut s, demands).unwrap();
                let analytic = route_sized_cost(n, s.bandwidth(), &sizes);
                assert_eq!(analytic, s.stats(), "n={n} seed={seed}");
            }
        }
    }

    #[test]
    fn cost_twin_matches_balanced_simulation_exactly() {
        for n in [3usize, 5, 8] {
            for seed in 0..6 {
                let demands = random_demands(n, seed * 7 + n as u64, 90);
                let sizes = demand_sizes(&demands);
                let mut s = session(n);
                route_balanced_sized(&mut s, demands).unwrap();
                let analytic = route_balanced_sized_cost(n, s.bandwidth(), &sizes);
                assert_eq!(analytic, s.stats(), "n={n} seed={seed}");
            }
        }
    }

    #[test]
    fn cost_twin_matches_balanced_simulation_at_scale() {
        // The twin walks only the non-empty overlaps, so it is cheap enough
        // to pin at realistic clique sizes too.
        for n in [27usize, 64] {
            let demands = random_demands(n, n as u64, 400);
            let sizes = demand_sizes(&demands);
            let mut s = session(n);
            route_balanced_sized(&mut s, demands).unwrap();
            let analytic = route_balanced_sized_cost(n, s.bandwidth(), &sizes);
            assert_eq!(analytic, s.stats(), "n={n}");
        }
    }

    #[test]
    fn empty_demand_set_costs_nothing() {
        let n = 5;
        let mut s = session(n);
        let got = route_balanced_sized(&mut s, vec![Vec::new(); n]).unwrap();
        assert!(got.iter().all(|d| d.is_empty()));
        assert_eq!(s.stats().rounds, 0);
        let analytic = route_balanced_sized_cost(n, s.bandwidth(), &vec![Vec::new(); n]);
        assert_eq!(analytic, s.stats());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        #[test]
        fn prop_sized_delivers_and_prices_exactly(seed in any::<u64>()) {
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
            let n = rng.gen_range(2..8);
            let demands = random_demands(n, seed.wrapping_add(1), 60);
            let sizes = demand_sizes(&demands);

            // Deliveries match the framed direct route (the semantics
            // oracle), modulo empty payloads being free either way.
            let mut s1 = session(n);
            let framed = route(&mut s1, demands.clone()).unwrap();
            let mut s2 = session(n);
            let sized = route_sized(&mut s2, demands.clone()).unwrap();
            prop_assert_eq!(normalise(framed), normalise(sized));

            // Both cost twins are exact.
            let direct = route_sized_cost(n, s2.bandwidth(), &sizes);
            prop_assert_eq!(direct, s2.stats());
            let mut s3 = session(n);
            route_balanced_sized(&mut s3, demands).unwrap();
            let balanced = route_balanced_sized_cost(n, s3.bandwidth(), &sizes);
            prop_assert_eq!(balanced, s3.stats());
        }
    }
}
