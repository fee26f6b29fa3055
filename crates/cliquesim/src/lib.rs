//! # cliquesim — a bandwidth-exact congested clique simulator
//!
//! This crate is the execution substrate for the `congested-clique`
//! workspace, which reproduces Korhonen & Suomela, *"Towards a complexity
//! theory for the congested clique"* (SPAA 2018).
//!
//! The model (paper §3): `n` nodes form a fully connected synchronous
//! network. Each round, every node performs unlimited local computation and
//! sends a possibly different message of at most `⌈log₂ n⌉` bits to each
//! other node. The complexity of an algorithm is its number of rounds.
//!
//! The simulator makes that model *checkable*:
//!
//! * messages are [`BitString`]s and the engine rejects any message over the
//!   bit budget — an algorithm cannot quietly cheat on bandwidth;
//! * round counts, message counts and bit totals are measured, not claimed;
//! * full per-node communication [`Transcript`]s can be recorded — these are
//!   exactly the certificates used by the paper's Theorem 3 normal form;
//! * node steps are independent within a round, so the engine can use
//!   multiple OS threads with bit-identical results.
//!
//! ## Quick example
//!
//! ```
//! use cliquesim::{BitString, Engine, Inbox, NodeCtx, NodeProgram, Outbox, Status};
//!
//! /// Each node learns the maximum id in the clique (one broadcast round).
//! struct MaxId(u64);
//!
//! impl NodeProgram for MaxId {
//!     type Output = u64;
//!     fn step(&mut self, ctx: &NodeCtx, round: usize, inbox: &Inbox<'_>, outbox: &mut Outbox<'_>)
//!         -> Status<u64>
//!     {
//!         if round == 0 {
//!             let mut m = BitString::new();
//!             m.push_uint(ctx.id.0 as u64, ctx.id_width());
//!             outbox.broadcast(&m);
//!             self.0 = ctx.id.0 as u64;
//!             Status::Continue
//!         } else {
//!             for (_, msg) in inbox.iter() {
//!                 self.0 = self.0.max(msg.reader().read_uint(ctx.id_width()).unwrap());
//!             }
//!             Status::Halt(self.0)
//!         }
//!     }
//! }
//!
//! let outcome = Engine::new(8).run((0..8).map(|_| MaxId(0)).collect()).unwrap();
//! assert_eq!(outcome.outputs, vec![7; 8]);
//! assert_eq!(outcome.stats.rounds, 1);
//! ```

#![warn(missing_docs)]
// Fault paths must surface `SimError`, not panic: non-test code may not
// unwrap/expect. Test modules are exempt (asserting via unwrap is idiomatic).
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

pub mod auth;
pub mod bits;
pub mod byzantine;
mod coins;
pub mod delivery;
pub mod engine;
pub mod fault;
pub mod node;
pub mod session;
pub mod stats;
pub mod transcript;

pub use auth::{split_tagged, strip_tag, AuthKeyring, TAG_BITS};
pub use bits::{BitReader, BitString, DecodeError};
pub use byzantine::{ByzantineEvent, ByzantinePlan, ByzantineReport, ForcedLie, Lie};
pub use delivery::DeliveryArena;
pub use engine::{ByzantineOutcome, Engine, FaultedOutcome, RunOutcome, SimError};
pub use fault::{
    sync_overhead, ChurnError, FaultEvent, FaultKind, FaultPlan, FaultReport, ForcedFault,
    SyncOverhead,
};
pub use node::{Inbox, NodeCtx, NodeId, NodeProgram, Outbox, Status};
pub use session::Session;
pub use stats::{EngineTiming, RunStats};
pub use transcript::{RoundTranscript, Transcript};
