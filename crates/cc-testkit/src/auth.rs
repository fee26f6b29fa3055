//! Authenticated-tier conformance runners: the signed-message envelope
//! (`cliquesim::auth`) replays as deterministically as everything beneath
//! it. A tag is a pure function of `(key, round, sender, payload)`, so a
//! run with a keyring attached — even one where traitors forge tags — is
//! byte-identical every time it runs. This module mirrors
//! [`crate::byzantine`] for the top tier of the adversary ladder:
//! [`differential_authenticated`] runs a `(keyring, plan)` pair, and
//! [`AuthCase`] gives the acceptance sweep seed-addressed honest-majority
//! adversaries with replayable `auth[n=…, f=…, seed=…]` labels.
//!
//! The authenticated tier's extra obligations, pinned in
//! `tests/auth_suite.rs` at the workspace root:
//!
//! * **honest agreement past `n/3`** — Dolev–Strong delivers for every
//!   seeded `f < n/2` case here (and all `f < n` via the classic
//!   wrapper), on plans that defeat Bracha;
//! * **forgery accounting** — `RunStats.rejected_tags` counts exactly the
//!   adversary's forged or damaged signed frames, never honest traffic;
//! * **transparency** — an engine *without* a keyring reports every auth
//!   counter as zero and behaves bit-identically to one that never heard
//!   of signing.

use std::fmt;

use cliquesim::{AuthKeyring, ByzantinePlan, Engine, NodeId, NodeProgram};

use crate::byzantine::{differential_byzantine, ByzantineRun};

/// A seed-addressed authenticated-adversary case: `n` nodes, `f`
/// traitors (honest-majority regime, `f < n/2`), and one seed driving
/// *both* the keyring and the traitor plan — printing as
/// `auth[n=…, f=…, seed=…]`, the label every suite panic leads with.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AuthCase {
    /// Clique size.
    pub n: usize,
    /// Traitor count; construction asserts `f < n/2`.
    pub f: usize,
    /// Seed for the keyring and the adversary plan.
    pub seed: u64,
}

impl AuthCase {
    /// A new case; asserts the honest-majority regime `f < n/2` that
    /// [`differential_authenticated`] sweeps.
    pub fn new(n: usize, f: usize, seed: u64) -> Self {
        assert!(2 * f < n, "auth cases cover f < n/2 (got n={n}, f={f})");
        Self { n, f, seed }
    }

    /// The case's keyring: `AuthKeyring::from_seed(n, seed)`.
    pub fn keyring(&self) -> AuthKeyring {
        AuthKeyring::from_seed(self.n, self.seed)
    }

    /// The case's adversary: `f` seed-drawn traitors (never drafting
    /// `spare`, e.g. the broadcast source) that garble every payload,
    /// stay silent on a quarter of links, and forge tags on another
    /// quarter — each lie tier the authenticated envelope must absorb.
    pub fn plan(&self, spare: &[NodeId]) -> ByzantinePlan {
        ByzantinePlan::new(self.seed)
            .with_random_traitors(self.n, self.f, spare)
            .garble(1.0)
            .silence(0.25)
            .forge(0.25)
    }
}

impl fmt::Display for AuthCase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "auth[n={}, f={}, seed={}]", self.n, self.f, self.seed)
    }
}

/// The acceptance sweep's corpus: for each clique size, every rung of
/// the tolerated range — no traitors, the old `f < n/3` ceiling, and the
/// honest-majority maximum `⌈n/2⌉ − 1` — across a couple of seeds.
pub fn auth_corpus() -> Vec<AuthCase> {
    let mut cases = Vec::new();
    for n in [6usize, 9, 13] {
        let rungs = [0, n.div_ceil(3).saturating_sub(1), n.div_ceil(2) - 1];
        for f in rungs {
            for seed in [1, 2] {
                let case = AuthCase::new(n, f, seed);
                if !cases.contains(&case) {
                    cases.push(case);
                }
            }
        }
    }
    cases
}

/// Run node programs under `plan` with `keyring` attached — the same
/// contract as [`differential_byzantine`], one tier up. Returns the run for
/// further auditing (its `RunStats` carry the `signed_messages` /
/// `auth_bits` / `rejected_tags` counters the suite closes against the
/// adversary's event log).
pub fn differential_authenticated<P, M>(
    label: &str,
    base: &Engine,
    keyring: &AuthKeyring,
    plan: &ByzantinePlan,
    make_programs: M,
) -> ByzantineRun<P::Output>
where
    P: NodeProgram,
    P::Output: PartialEq + fmt::Debug,
    M: FnMut() -> Vec<P>,
{
    let authed = base.clone().with_auth(keyring.clone());
    differential_byzantine(&format!("{label} {keyring}"), &authed, plan, make_programs)
}

/// Shared `proptest` strategies over authenticated adversary cases.
pub mod strategies {
    use super::*;
    use proptest::strategy::Strategy;
    use proptest::test_runner::TestRng;

    /// Strategy drawing a random [`AuthCase`] for an `n`-node clique:
    /// any seed, any traitor count in the full honest-majority range
    /// `f ∈ [0, ⌈n/2⌉ − 1]`.
    #[derive(Clone, Debug)]
    pub struct ArbAuthCase {
        n: usize,
    }

    /// See [`ArbAuthCase`].
    pub fn arb_auth_case(n: usize) -> ArbAuthCase {
        assert!(n >= 3, "need n ≥ 3 for a non-trivial honest majority");
        ArbAuthCase { n }
    }

    impl Strategy for ArbAuthCase {
        type Value = AuthCase;
        fn sample(&self, rng: &mut TestRng) -> AuthCase {
            let max_f = self.n.div_ceil(2) - 1;
            let f = rng.below(max_f as u64 + 1) as usize;
            AuthCase::new(self.n, f, rng.next_u64() % 1_000_000)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cliquesim::{BitString, Inbox, NodeCtx, Outbox, Status};

    /// Three rounds of id gossip under the envelope: programs read the
    /// payload prefix and ignore the trailing tag, so the fixture works
    /// with and without a keyring.
    #[derive(Clone)]
    struct Gossip {
        heard: Vec<u64>,
    }

    impl NodeProgram for Gossip {
        type Output = Vec<u64>;
        fn step(
            &mut self,
            ctx: &NodeCtx,
            round: usize,
            inbox: &Inbox<'_>,
            outbox: &mut Outbox<'_>,
        ) -> Status<Vec<u64>> {
            for (u, m) in inbox.iter() {
                if let Ok(v) = m.reader().read_uint(ctx.id_width()) {
                    self.heard.push(u.0 as u64 * 1000 + v);
                }
            }
            if round < 3 {
                let mut m = BitString::new();
                m.push_uint(ctx.id.0 as u64, ctx.id_width());
                outbox.broadcast(&m);
                return Status::Continue;
            }
            Status::Halt(self.heard.clone())
        }
    }

    fn gossip(n: usize) -> Vec<Gossip> {
        (0..n).map(|_| Gossip { heard: Vec::new() }).collect()
    }

    #[test]
    fn authenticated_differential_signs_and_rejects() {
        let n = 15;
        let case = AuthCase::new(n, 5, 42);
        let plan = case.plan(&[]);
        let (outputs, stats, transcripts, _, byz) =
            differential_authenticated("gossip", &Engine::new(n), &case.keyring(), &plan, || {
                gossip(n)
            });
        assert!(outputs.iter().all(|o| o.is_some()), "no one crashes here");
        assert!(stats.signed_messages > 0, "{case}: nothing was signed");
        assert!(
            stats.rejected_tags > 0,
            "{case}: garbled+forged traffic must fail verification"
        );
        assert!(!byz.is_empty());
        assert_eq!(transcripts.len(), n);
    }

    #[test]
    fn corpus_cases_are_distinct_and_honest_majority() {
        let corpus = auth_corpus();
        assert!(corpus.len() >= 12, "the sweep covers all three rungs");
        for (i, case) in corpus.iter().enumerate() {
            assert!(2 * case.f < case.n, "{case}: not honest-majority");
            assert!(!corpus[i + 1..].contains(case), "{case}: duplicated");
        }
        assert_eq!(format!("{}", corpus[0]), "auth[n=6, f=0, seed=1]");
    }

    #[test]
    fn sampled_auth_cases_respect_the_bound() {
        use proptest::strategy::Strategy;
        use proptest::test_runner::TestRng;
        let strat = strategies::arb_auth_case(9);
        let mut rng = TestRng::deterministic("sampled_auth_cases_respect_the_bound");
        for _ in 0..50 {
            let case = strat.sample(&mut rng);
            assert!(2 * case.f < 9, "{case}: f too large");
            assert!(case.f <= 4, "⌈9/2⌉ - 1 = 4 is the cap");
        }
    }
}
