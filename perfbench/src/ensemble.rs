//! `ensemble`: a compile-once sweep of
//! `DistributedMultigridWorkload::manufactured` over n ∈ {17, 33} × six
//! seeded ω values, one V-cycle each, on 2-node leases of a 4-node park
//! with backfill and audit fraction 1.0. The service path: park admit,
//! lease and retire, the compile cache, certificate sealing and
//! verification, and small host-slab staging inside the members.
//!
//! Every iteration is a cold study: a fresh park over the shared session
//! and an emptied compile cache, both prepared outside the timed region.

use crate::outcome::{same_bits, Outcome, SimFigures};
use crate::trace::Tracer;
use crate::Bench;
use nsc_arch::HypercubeConfig;
use nsc_cert::{verify, Expected};
use nsc_cfd::diagrams::JacobiGeometry;
use nsc_cfd::{
    build_damped_jacobi_sweep_document_windows, BlockPartition, DistributedMultigridWorkload,
    GridShape, MultigridWorkload, Partition, SweepWindow,
};
use nsc_core::certify::machine_limits;
use nsc_core::{NscError, Session, Workload};
use nsc_diagram::Document;
use nsc_ensemble::Sweep;
use nsc_park::{Job, JobId, JobPayload, MachinePark, SchedPolicy};
use nsc_sim::{NscSystem, PerfCounters};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::Instant;

const SIZES: [f64; 2] = [17.0, 33.0];
const OMEGAS: usize = 6;
/// Damped-Jacobi smoothing weights the seed draws from.
const OMEGA_RANGE: std::ops::Range<f64> = 0.6..0.95;
const CYCLES: usize = 1;
const PARK_DIM: u32 = 2;
const LEASE_DIM: u32 = 1;
const TENANT: &str = "study";

pub struct Ensemble {
    session: Session,
    park: MachinePark,
    sweep: Sweep,
    /// One member per sweep point, in point order.
    payloads: Vec<Arc<DistributedMultigridWorkload>>,
    /// Per member: the serial solver's iterate and residual history.
    reference: Vec<(Vec<f64>, Vec<f64>)>,
}

fn fresh_park(session: &Session) -> MachinePark {
    MachinePark::new(session.clone(), PARK_DIM).with_audit_fraction(1.0)
}

impl Ensemble {
    /// Session, park, the seeded sweep and every member's problem.
    pub fn setup(seed: u64) -> Result<Self, NscError> {
        let session = Session::nsc_1988();
        let park = fresh_park(&session);
        let mut rng = StdRng::seed_from_u64(seed);
        let omegas: Vec<f64> = (0..OMEGAS).map(|_| rng.random_range(OMEGA_RANGE)).collect();
        let sweep = Sweep::new("perfbench ensemble").axis("n", SIZES).axis("omega", omegas);
        let payloads = sweep
            .points()
            .iter()
            .map(|p| {
                let n = p.value("n") as usize;
                Arc::new(DistributedMultigridWorkload::manufactured(
                    n,
                    p.value("omega"),
                    0.0,
                    CYCLES,
                ))
            })
            .collect();
        Ok(Ensemble { session, park, sweep, payloads, reference: Vec::new() })
    }

    /// The iteration's outputs and figures from the park's records: per
    /// member its job id, counter delta and error, plus the makespan.
    fn outcome(
        &self,
        members: impl Iterator<Item = (JobId, PerfCounters, Option<String>)>,
        makespan: f64,
    ) -> Outcome {
        let clock = self.session.kb().config().clock_hz as f64;
        let mut sim = SimFigures { sim_s: makespan, ..SimFigures::default() };
        let (mut outputs, mut member_errors, mut pairs, mut certs) = (Vec::new(), Vec::new(), 0, 0);
        for (id, counters, error) in members {
            sim.flops += counters.flops;
            sim.compute_s += counters.cycles as f64 / clock;
            sim.comm_s += counters.comm_ns as f64 * 1e-9;
            sim.hidden_s += counters.comm_hidden_ns as f64 * 1e-9;
            match self.park.outcome(id) {
                Some(o) => {
                    outputs.push(o.grid.clone());
                    outputs.push(o.history.clone());
                    pairs += o.history.len() as u64;
                    certs += o.certificates.len() as u64;
                    member_errors.push(None);
                }
                None => {
                    outputs.extend([Vec::new(), Vec::new()]);
                    member_errors.push(Some(error.unwrap_or_default()));
                }
            }
        }
        Outcome { outputs, sim, pairs, halo_words: None, certs, member_errors, resident_pages: 0 }
    }
}

impl Bench for Ensemble {
    fn session(&self) -> &Session {
        &self.session
    }

    fn members(&self) -> u64 {
        self.payloads.len() as u64
    }

    fn prepare_reference(&mut self) -> Result<(), NscError> {
        let session = Session::nsc_1988();
        self.reference = self
            .payloads
            .iter()
            .map(|w| {
                let serial = MultigridWorkload {
                    u0: w.u0.clone(),
                    f: w.f.clone(),
                    tol: w.tol,
                    max_cycles: w.max_cycles,
                    opts: w.opts,
                };
                let run = serial.execute(&session, &mut session.node())?;
                Ok((run.u.data, run.stats.residual_history))
            })
            .collect::<Result<_, NscError>>()?;
        Ok(())
    }

    fn check(&self, out: &Outcome) -> Vec<String> {
        let mut failures = Vec::new();
        for (i, ((u, history), error)) in self.reference.iter().zip(&out.member_errors).enumerate()
        {
            let verdict = match error {
                Some(e) => Err(e.clone()),
                None => same_bits("u", &out.outputs[2 * i], u)
                    .and_then(|()| same_bits("history", &out.outputs[2 * i + 1], history)),
            };
            if let Err(e) = verdict {
                failures.push(format!("member {i}: {e}"));
            }
        }
        failures
    }

    fn hidden_layers(&self) -> &'static [&'static str] {
        &["compile", "stage.scatter", "stage.gather", "exec", "halo", "reduce"]
    }

    fn next_iteration(&mut self) {
        self.park = fresh_park(&self.session);
        self.session.kernel_cache().clear();
    }

    fn run(&mut self) -> Result<Outcome, NscError> {
        let payloads = &self.payloads;
        let report = self.sweep.run(&mut self.park, SchedPolicy::Backfill, |p| {
            Ok(Job::from_shared(TENANT, LEASE_DIM, payloads[p.index].clone()))
        })?;
        let certs: usize = report.members.iter().map(|m| m.certificates.len()).sum();
        if report.audited_certs != certs {
            return Err(NscError::Workload(format!(
                "the park audited {} of {certs} certificates",
                report.audited_certs
            )));
        }
        let members = report.members.iter().map(|m| (m.job, m.counters, m.error.clone()));
        Ok(self.outcome(members, report.makespan))
    }

    /// `Sweep::run`, call for call, with every member's payload timed on
    /// its lease thread. The park's retire-time audit is switched off and
    /// the same `nsc_cert::verify` calls run after the park, in their own
    /// span, against the same machine limits.
    fn run_traced(&mut self, tr: &Arc<Tracer>) -> Result<Outcome, NscError> {
        self.park.set_audit_fraction(0.0);
        let (ids, report) = tr.span("park", || {
            let parent = tr.current();
            let jobs: Vec<Job> = self
                .sweep
                .points()
                .iter()
                .map(|p| {
                    let payload = Arc::clone(&self.payloads[p.index]);
                    let tr = Arc::clone(tr);
                    let run = move |s: &Session, sys: &mut NscSystem| {
                        let start = Instant::now();
                        let out = payload.run(s, sys);
                        tr.record("park.payload", parent, start, Instant::now());
                        out
                    };
                    Job::new(TENANT, LEASE_DIM, run)
                })
                .collect();
            let ids = self.park.submit_batch(jobs)?;
            let report = self.park.run(SchedPolicy::Backfill)?;
            Ok::<_, NscError>((ids, report))
        })?;
        tr.count("park.jobs", ids.len() as u64);
        tr.count("park.leases", 1 << (PARK_DIM - LEASE_DIM));
        let expected = Expected {
            machine: Some(machine_limits(self.session.kb().config())),
            ..Expected::default()
        };
        tr.span("audit", || {
            for &id in &ids {
                for cert in self.park.outcome(id).map_or(&[][..], |o| &o.certificates) {
                    let verdict = verify(cert, &expected).map_err(|v| {
                        NscError::Workload(format!("certificate audit failed for job {id}: {v}"))
                    })?;
                    tr.count("audit.certs", 1);
                    tr.count("audit.obligations", verdict.obligations as u64);
                }
            }
            Ok::<_, NscError>(())
        })?;
        let members = ids.iter().map(|&id| {
            let job = report.job(id).expect("every submitted job is reported");
            (id, job.counters, job.error.clone())
        });
        Ok(self.outcome(members, report.makespan))
    }

    /// The damped sweep documents of every V-cycle level, on the block
    /// partitions the public constructor builds for a 2-node lease, at
    /// the first ω (other ω values are rebinds of the same shapes).
    fn replay_documents(&self) -> Vec<Document> {
        let torus = HypercubeConfig::new(LEASE_DIM).torus2d_near_square();
        let omega = self.payloads[0].opts.omega;
        let mut docs = Vec::new();
        for n in SIZES.map(|n| n as usize) {
            let mut m = n;
            while m > 3 {
                let Ok(part) = BlockPartition::new(GridShape::volume3d(m, m, m), torus) else {
                    break;
                };
                for even in [true, false] {
                    for p in part.parts() {
                        let (nx, ny, nz) = p.local_shape();
                        docs.push(build_damped_jacobi_sweep_document_windows(
                            JacobiGeometry::slab(nx, ny, nz),
                            even,
                            omega,
                            &[SweepWindow::whole(nz)],
                        ));
                    }
                }
                m = m.div_ceil(2);
            }
        }
        crate::replay::distinct(docs)
    }
}
