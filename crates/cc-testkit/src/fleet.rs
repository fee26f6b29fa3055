//! Fleet differentials: the `cc-service` scheduler must not be able to
//! change results.
//!
//! A [`FleetJob`] is a pure-data job descriptor — a seed-addressed
//! [`Instance`], a [`Workload`], and an optional seed-addressed
//! adversary — so a whole batch is reproducible from its printed labels,
//! exactly like the rest of this crate's corpus ([`fleet_batch`]
//! materialises it). [`assert_fleet_matches_serial`] runs any batch
//! through [`cc_service::Batch::run_serial`] (the serial oracle), then
//! through a [`cc_service::Service`] at every requested width, and
//! requires **byte-identical** outcomes: output bytes, error strings, skip
//! witnesses, and [`cliquesim::RunStats`]. Any divergence panics with the
//! job's label (a fleet job's is `family[n=…, seed=…]`); the fleet
//! examples print the wall times it returns.
//!
//! Dependencies are indices of *earlier* jobs, so every generated fleet
//! is a DAG by construction — the pathological shapes (cycles, dangling
//! edges) are exercised separately through `Batch::add_dependency` in the
//! service suite.

use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

use cc_service::{Batch, EngineSpec, JobId, JobOutcome, JobSpec, Service, TenantId};
use cliquesim::{
    BitString, ByzantinePlan, FaultPlan, Inbox, NodeCtx, NodeProgram, Outbox, Session, Status,
};

use crate::instances::Instance;

/// What the job's per-node programs compute. All workloads are pure
/// functions of the instance (and, for [`Workload::EchoDeps`], the
/// dependency bytes), so fleet outputs are comparable byte for byte.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// `rounds` rounds of id gossip; each node outputs everything it
    /// heard, sender-tagged (order-sensitive enough to catch any
    /// scheduling nondeterminism).
    Gossip {
        /// Number of broadcast rounds.
        rounds: usize,
    },
    /// One broadcast round; each node outputs the minimum id it heard.
    MinId,
    /// Each node broadcasts its degree in the instance graph; outputs are
    /// the heard degree multiset (ties the job to the materialised graph).
    DegreeSum,
    /// One gossip round plus an FNV-1a digest of the dependency outputs —
    /// the workload that makes dependency *values* part of the result.
    EchoDeps,
}

/// A seed-addressed adversary attached to the job's engine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Adversary {
    /// Clean run.
    None,
    /// `FaultPlan::new(seed)` with fixed drop/corrupt/truncate rates.
    Faults {
        /// Plan seed.
        seed: u64,
    },
    /// `ByzantinePlan::new(seed)` with `traitors` random traitors and
    /// fixed replay/silence rates. Requires `3·traitors < n`.
    Byzantine {
        /// Plan seed.
        seed: u64,
        /// Number of traitor nodes.
        traitors: usize,
    },
}

/// One pure-data fleet job: everything needed to rebuild the exact
/// [`JobSpec`] on any host.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FleetJob {
    /// Owning tenant (fairness bucket).
    pub tenant: u32,
    /// Seed-addressed input graph.
    pub instance: Instance,
    /// What to compute.
    pub workload: Workload,
    /// Optional seed-addressed adversary.
    pub adversary: Adversary,
    /// Indices of earlier jobs this one depends on.
    pub deps: Vec<usize>,
}

impl FleetJob {
    /// A clean, dependency-free job on the given instance.
    pub fn new(tenant: u32, instance: Instance, workload: Workload) -> Self {
        Self {
            tenant,
            instance,
            workload,
            adversary: Adversary::None,
            deps: Vec::new(),
        }
    }

    /// The replayable repro label, e.g. `er-medium[n=8, seed=11]+fault7` —
    /// instance label first, so a mismatch names the `family[n, seed]`
    /// cell that reproduces it.
    pub fn label(&self) -> String {
        self.to_string()
    }

    /// Materialise the service-side job spec.
    pub fn to_spec(&self) -> JobSpec {
        let mut engine = EngineSpec::new(self.instance.n);
        match self.adversary {
            Adversary::None => {}
            Adversary::Faults { seed } => {
                engine = engine.fault(
                    FaultPlan::new(seed)
                        .drop_messages(0.15)
                        .corrupt_messages(0.05)
                        .truncate_messages(0.05),
                );
            }
            Adversary::Byzantine { seed, traitors } => {
                engine = engine.byzantine(
                    ByzantinePlan::new(seed)
                        .with_random_traitors(self.instance.n, traitors, &[])
                        .replay(0.2)
                        .silence(0.2),
                );
            }
        }
        let job = self.clone();
        let mut spec = JobSpec::new(
            TenantId(self.tenant),
            self.label(),
            engine,
            Arc::new(
                move |session: &mut Session, deps: &cc_service::DepOutputs| {
                    job.execute(session, deps)
                },
            ),
        );
        spec.deps = self.deps.iter().map(|&d| JobId(d)).collect();
        spec
    }

    /// Run the workload in the given session and serialise the per-node
    /// outputs to bytes. Pure in `(self, dep bytes)` — the determinism
    /// contract `cc_service` jobs must honour.
    fn execute(
        &self,
        session: &mut Session,
        deps: &cc_service::DepOutputs,
    ) -> Result<Vec<u8>, String> {
        let n = self.instance.n;
        let (rounds, payloads): (usize, Vec<u64>) = match self.workload {
            Workload::Gossip { rounds } => (rounds, (0..n as u64).collect()),
            Workload::MinId | Workload::EchoDeps => (1, (0..n as u64).collect()),
            Workload::DegreeSum => {
                let g = self.instance.graph();
                (1, (0..n).map(|v| g.degree(v) as u64).collect())
            }
        };
        let programs: Vec<Broadcast> = payloads
            .into_iter()
            .map(|payload| Broadcast {
                payload,
                rounds,
                heard: Vec::new(),
            })
            .collect();
        // An adversarial job tolerates crashed nodes; either way the plan's
        // report counters land in the session stats.
        let outputs: Vec<Option<Vec<u64>>> = match self.adversary {
            Adversary::None => session
                .run(programs)
                .map_err(|e| e.to_string())?
                .outputs
                .into_iter()
                .map(Some)
                .collect(),
            Adversary::Faults { .. } | Adversary::Byzantine { .. } => {
                session
                    .run_faulted(programs)
                    .map_err(|e| e.to_string())?
                    .outputs
            }
        };
        let mut bytes = Vec::new();
        for slot in &outputs {
            match slot {
                None => bytes.push(0u8),
                Some(heard) => {
                    bytes.push(1u8);
                    let heard: Vec<u64> = match self.workload {
                        // MinId reduces to a single value per node.
                        Workload::MinId => {
                            vec![heard.iter().map(|h| h % TAG).min().unwrap_or(u64::MAX)]
                        }
                        _ => heard.clone(),
                    };
                    bytes.extend((heard.len() as u32).to_le_bytes());
                    for h in heard {
                        bytes.extend(h.to_le_bytes());
                    }
                }
            }
        }
        if self.workload == Workload::EchoDeps {
            bytes.extend(fnv1a(deps).to_le_bytes());
        }
        Ok(bytes)
    }
}

impl fmt::Display for FleetJob {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.instance)?;
        match self.adversary {
            Adversary::None => Ok(()),
            Adversary::Faults { seed } => write!(f, "+fault{seed}"),
            Adversary::Byzantine { seed, traitors } => write!(f, "+byz{seed}x{traitors}"),
        }
    }
}

/// Sender tag multiplier in heard entries: `sender·TAG + payload`.
/// Payloads are node ids or degrees, both `< n ≤ TAG`, so the encoding is
/// collision-free for every corpus size this crate generates.
const TAG: u64 = 1 << 20;

/// The shared per-node program: broadcast `payload` for `rounds` rounds,
/// record every `(sender, value)` heard.
struct Broadcast {
    payload: u64,
    rounds: usize,
    heard: Vec<u64>,
}

impl NodeProgram for Broadcast {
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
                self.heard.push(u.0 as u64 * TAG + v);
            }
        }
        if round < self.rounds {
            let mut m = BitString::new();
            m.push_uint(self.payload, ctx.id_width());
            outbox.broadcast(&m);
            Status::Continue
        } else {
            Status::Halt(std::mem::take(&mut self.heard))
        }
    }
}

/// 64-bit FNV-1a over the concatenated dependency outputs.
fn fnv1a(deps: &cc_service::DepOutputs) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for dep in deps {
        for &b in dep.iter() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Materialise a batch from fleet descriptors (job ids are the slice
/// indices).
pub fn fleet_batch(jobs: &[FleetJob]) -> Batch {
    let mut batch = Batch::new();
    for job in jobs {
        batch.push(job.to_spec());
    }
    batch
}

/// What [`assert_fleet_matches_serial`] hands back once every width has
/// matched the serial oracle. Prints as the footer the fleet examples
/// end with, e.g. `27 jobs: serial oracle 812.4 ms | width-4 fleet
/// 630.1 ms (byte-identical outcomes) on a 2-core host`.
pub struct FleetCheck {
    /// The serial oracle's outcomes, in job order.
    pub outcomes: Vec<JobOutcome>,
    /// Wall time of [`Batch::run_serial`].
    pub serial_wall: Duration,
    /// Wall time of each fleet run, `(width, wall)`, in the order asked.
    pub fleet_walls: Vec<(usize, Duration)>,
}

impl fmt::Display for FleetCheck {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ms = |d: Duration| d.as_secs_f64() * 1e3;
        let jobs = self.outcomes.len();
        write!(
            f,
            "{jobs} jobs: serial oracle {:.1} ms",
            ms(self.serial_wall)
        )?;
        for &(width, wall) in &self.fleet_walls {
            write!(f, " | width-{width} fleet {:.1} ms", ms(wall))?;
        }
        let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
        write!(f, " (byte-identical outcomes) on a {cores}-core host")
    }
}

/// The central fleet differential: run the batch through the serial
/// oracle, then through a fresh [`Service`] at every width, asserting
/// outcome-for-outcome byte identity. Panics with the diverging job's
/// repro label; returns the oracle outcomes for further judging, with the
/// wall time of every run (a fleet run is timed from submit to join).
pub fn assert_fleet_matches_serial(batch: &Batch, widths: &[usize]) -> FleetCheck {
    let start = Instant::now();
    let serial = batch
        .run_serial()
        .unwrap_or_else(|e| panic!("fleet batch rejected: {e}"));
    let serial_wall = start.elapsed();
    let mut fleet_walls = Vec::with_capacity(widths.len());
    for &width in widths {
        let service = Service::new(width);
        let start = Instant::now();
        let fleet = service
            .submit(batch.clone())
            .unwrap_or_else(|e| panic!("fleet batch rejected at width {width}: {e}"))
            .join();
        fleet_walls.push((width, start.elapsed()));
        assert_eq!(
            fleet.len(),
            serial.len(),
            "width {width}: outcome count diverged from serial oracle"
        );
        for (f, s) in fleet.iter().zip(serial.iter()) {
            assert!(
                f == s,
                "{}: width {width} diverged from serial oracle\n  fleet:  {:?}\n  serial: {:?}",
                s.label,
                f.status,
                s.status
            );
        }
    }
    FleetCheck {
        outcomes: serial,
        serial_wall,
        fleet_walls,
    }
}

/// `proptest` strategies over whole fleets.
pub mod strategies {
    use super::*;
    use crate::instances::Family;
    use proptest::strategy::Strategy;
    use proptest::test_runner::TestRng;

    /// Strategy drawing a DAG-by-construction fleet of up to `max_jobs`
    /// jobs across up to `tenants` tenants.
    #[derive(Clone, Debug)]
    pub struct ArbFleet {
        max_jobs: usize,
        tenants: u32,
    }

    /// Random fleets: mixed families, workloads, adversaries, and
    /// backward-only dependency edges.
    pub fn arb_fleet(max_jobs: usize, tenants: u32) -> ArbFleet {
        assert!(max_jobs >= 1 && tenants >= 1);
        ArbFleet { max_jobs, tenants }
    }

    impl Strategy for ArbFleet {
        type Value = Vec<FleetJob>;
        fn sample(&self, rng: &mut TestRng) -> Vec<FleetJob> {
            let count = 1 + rng.below(self.max_jobs as u64) as usize;
            (0..count)
                .map(|i| {
                    let family = Family::ALL[rng.below(Family::ALL.len() as u64) as usize];
                    // n ≥ 4 keeps one Byzantine traitor legal (3f < n).
                    let n = 4 + rng.below(9) as usize;
                    let instance = Instance::new(family, n, rng.next_u64() % 1_000_000);
                    let workload = match rng.below(4) {
                        0 => Workload::Gossip {
                            rounds: 1 + rng.below(3) as usize,
                        },
                        1 => Workload::MinId,
                        2 => Workload::DegreeSum,
                        _ => Workload::EchoDeps,
                    };
                    let adversary = match rng.below(4) {
                        0 | 1 => Adversary::None,
                        2 => Adversary::Faults {
                            seed: rng.next_u64() % 1_000_000,
                        },
                        _ => Adversary::Byzantine {
                            seed: rng.next_u64() % 1_000_000,
                            traitors: 1,
                        },
                    };
                    let mut deps = Vec::new();
                    if i > 0 {
                        for _ in 0..rng.below(3) {
                            let d = rng.below(i as u64) as usize;
                            if !deps.contains(&d) {
                                deps.push(d);
                            }
                        }
                    }
                    FleetJob {
                        tenant: rng.below(self.tenants as u64) as u32,
                        instance,
                        workload,
                        adversary,
                        deps,
                    }
                })
                .collect()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instances::Family;

    #[test]
    fn fleet_labels_carry_the_repro_cell() {
        let mut job = FleetJob::new(2, Instance::new(Family::ErMedium, 8, 11), Workload::MinId);
        job.adversary = Adversary::Faults { seed: 7 };
        assert_eq!(job.label(), "er-medium[n=8, seed=11]+fault7");
    }

    #[test]
    fn a_small_mixed_fleet_matches_serial_at_several_widths() {
        let base = Instance::new(Family::ErMedium, 6, 3);
        let mut jobs = vec![
            FleetJob::new(0, base, Workload::Gossip { rounds: 2 }),
            FleetJob::new(1, Instance::new(Family::Star, 5, 0), Workload::DegreeSum),
            FleetJob::new(0, Instance::new(Family::Cycle, 7, 0), Workload::MinId),
        ];
        let mut echo = FleetJob::new(1, base, Workload::EchoDeps);
        echo.deps = vec![0, 2];
        jobs.push(echo);
        let check = assert_fleet_matches_serial(&fleet_batch(&jobs), &[1, 2, 4]);
        assert!(check.outcomes.iter().all(|o| o.status.is_success()));
        let widths: Vec<usize> = check.fleet_walls.iter().map(|&(w, _)| w).collect();
        assert_eq!(widths, [1, 2, 4], "one wall time per width, in order");
        let footer = check.to_string();
        assert!(footer.starts_with("4 jobs: serial oracle "), "{footer}");
        assert!(footer.contains(" | width-4 fleet "), "{footer}");
    }

    #[test]
    fn adversarial_fleet_jobs_are_deterministic_too() {
        let mut faulted = FleetJob::new(
            0,
            Instance::new(Family::ErDense, 8, 5),
            Workload::Gossip { rounds: 2 },
        );
        faulted.adversary = Adversary::Faults { seed: 42 };
        let mut byz = FleetJob::new(1, Instance::new(Family::Complete, 7, 1), Workload::MinId);
        byz.adversary = Adversary::Byzantine {
            seed: 9,
            traitors: 2,
        };
        assert_fleet_matches_serial(&fleet_batch(&[faulted, byz]), &[1, 3]);
    }
}
