//! Authenticated-tier conformance: the signed-message envelope
//! (`cliquesim::auth`) replays as deterministically as everything beneath
//! it. A tag is a pure function of `(key, round, sender, payload)`, so a
//! run with a keyring attached — even one where traitors forge tags — is
//! byte-identical every time it runs. [`AuthCase`] gives the acceptance
//! sweep seed-addressed honest-majority adversaries with replayable
//! `auth[n=…, f=…, seed=…]` labels: suites attach the case's keyring and
//! plan to the engine and run it with [`crate::run_recorded`], whose
//! `RunStats` carry the `signed_messages` / `auth_bits` / `rejected_tags`
//! counters they close against the adversary's event log.
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

use cliquesim::{AuthKeyring, ByzantinePlan, NodeId};

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
    /// [`auth_corpus`] sweeps.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::differential::tests::gossip;
    use crate::run_recorded;
    use cliquesim::Engine;

    #[test]
    fn authenticated_run_signs_and_rejects() {
        let n = 15;
        let case = AuthCase::new(n, 5, 42);
        let (keyring, plan) = (case.keyring(), case.plan(&[]));
        let label = format!("gossip {keyring} under {plan}");
        let engine = Engine::new(n).with_auth(keyring).with_byzantine_plan(plan);
        let out = run_recorded(&label, &engine, gossip(n));
        assert!(
            out.outputs.iter().all(|o| o.is_some()),
            "no one crashes here"
        );
        assert!(out.stats.signed_messages > 0, "{case}: nothing was signed");
        assert!(
            out.stats.rejected_tags > 0,
            "{case}: garbled+forged traffic must fail verification"
        );
        assert!(!out.byzantine.is_empty());
        assert_eq!(out.transcripts.map(|t| t.len()), Some(n));
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
}
