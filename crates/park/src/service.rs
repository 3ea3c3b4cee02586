//! The machine park itself: one simulated NSC shared by many jobs.
//!
//! [`MachinePark`] owns the physical machine as a pool of node slots plus
//! a buddy [`SubCubeAllocator`] over them. [`MachinePark::run`] drives a
//! deterministic event loop on a simulated park clock:
//!
//! 1. **Admit** — the [`SchedPolicy`] picks which arrived jobs start on
//!    the free capacity (probed against a clone of the allocator).
//! 2. **Lease** — each admitted job gets its sub-cube: the matching node
//!    slots are taken from the pool and rebuilt as a fresh
//!    [`NscSystem`] of the job's dimension. Leased nodes are *wiped*
//!    (fresh planes and caches — tenant isolation, like any shared
//!    facility) but keep their cumulative counters, so machine-lifetime
//!    accounting survives across tenants.
//! 3. **Execute** — the admitted batch runs concurrently on host threads
//!    (at most one per core), all sharing one [`Session`] (and thus one
//!    compiled-kernel cache: the same sweep document compiles once no
//!    matter how many tenants submit it). The park snapshots each leased node's counters
//!    around the run and takes the *delta* as the job's usage — payloads
//!    cannot mis-report.
//! 4. **Advance** — each job's simulated duration is its critical-path
//!    node's compute-plus-unhidden-communication time; the park clock
//!    jumps to the next completion or arrival, completed leases return
//!    their nodes and free their sub-cubes, and admission runs again.
//!
//! Because an aligned sub-cube of a hypercube is itself a hypercube
//! (local address `i` is physical node `base | i`, and XOR distances
//! never touch the shared high bits), a job's sweep schedule, hop
//! counts, and router charges inside its lease are exactly those of a
//! standalone machine of the same size — park results are bit-identical
//! to standalone runs by construction, which the integration tests
//! assert workload by workload.

use nsc_arch::{HypercubeConfig, SubCube, SubCubeAllocator};
use nsc_cert::{verify, Expected, LeaseCert};
use nsc_core::{certify::machine_limits, NscError, Session};
use nsc_sim::{for_each_concurrent, NodeSim, NscSystem, PerfCounters};
use std::collections::HashMap;
use std::sync::Arc;

use crate::job::{Job, JobId, JobOutcome, JobPayload};

/// What one leased thread hands back: the advanced nodes plus the
/// payload's result.
type LeaseResult = (Vec<NodeSim>, Result<JobOutcome, NscError>);
use crate::queue::JobQueue;
use crate::report::{JobReport, ParkReport};
use crate::sched::{Candidate, SchedPolicy};

/// One job currently holding a lease, waiting for its simulated
/// completion time. The host execution already happened at admission;
/// what remains is returning the nodes when the park clock catches up.
struct RunningJob {
    id: JobId,
    subcube: SubCube,
    started_at: f64,
    end: f64,
    /// The leased nodes, counters advanced by the run, to put back.
    nodes: Vec<NodeSim>,
    /// Merged counter delta across the lease (parallel `absorb`).
    counters: PerfCounters,
    simulated_seconds: f64,
    outcome: Result<JobOutcome, NscError>,
}

/// A multi-tenant job service over one simulated NSC.
///
/// # Example
///
/// Two tenants share a 2-node machine; each job runs on a leased 1-node
/// sub-cube and the park reports per-job and aggregate figures:
///
/// ```
/// use nsc_core::Session;
/// use nsc_park::{Job, MachinePark, SchedPolicy};
///
/// let (u0, f, _) = nsc_cfd::grid::manufactured_problem(5);
/// let jacobi = nsc_cfd::DistributedJacobiWorkload {
///     u0,
///     f,
///     tol: 1e-3,
///     max_pairs: 50,
///     partition: nsc_cfd::PartitionSpec::Auto,
///     overlap: false,
/// };
///
/// let mut park = MachinePark::new(Session::nsc_1988(), 1); // 2 nodes
/// park.submit(Job::new("ada", 0, jacobi.clone()))?;
/// park.submit(Job::new("grace", 0, jacobi))?;
///
/// let report = park.run(SchedPolicy::Fifo)?;
/// assert_eq!(report.jobs.len(), 2);
/// assert_eq!(report.failed, 0);
/// // Both 1-node jobs fit at once, so neither waited in the queue.
/// assert!(report.jobs.iter().all(|j| j.queue_wait == 0.0));
/// assert!(report.utilization > 0.0 && report.utilization <= 1.0);
/// # Ok::<(), nsc_core::NscError>(())
/// ```
pub struct MachinePark {
    session: Session,
    cube: HypercubeConfig,
    /// Physical node slots; `None` while a lease holds the node.
    slots: Vec<Option<NodeSim>>,
    alloc: SubCubeAllocator,
    queue: JobQueue,
    clock_hz: u64,
    /// Completed jobs' solution bits, kept for identity audits.
    outcomes: HashMap<JobId, JobOutcome>,
    /// Fraction of retiring jobs whose certificates get re-verified.
    audit_fraction: f64,
}

impl MachinePark {
    /// A park over a fresh dimension-`dim` machine (`2^dim` nodes) for
    /// the session's machine description.
    pub fn new(session: Session, dim: u32) -> Self {
        let cube = HypercubeConfig::new(dim);
        let slots = (0..cube.nodes()).map(|_| Some(session.node())).collect();
        let alloc = SubCubeAllocator::new(&cube);
        let clock_hz = session.kb().config().clock_hz;
        MachinePark {
            session,
            cube,
            slots,
            alloc,
            queue: JobQueue::new(),
            clock_hz,
            outcomes: HashMap::new(),
            audit_fraction: 0.0,
        }
    }

    /// Spot-audit policy: re-verify the compile certificates of (roughly)
    /// this fraction of retiring jobs through `nsc_cert::verify`, pinned
    /// to this park's machine limits. `0.0` (the default) audits nothing,
    /// `1.0` audits every job. Selection is deterministic — job ids at a
    /// fixed stride of `round(1 / fraction)` — so the same submissions
    /// audit the same jobs on every run. Any rejected certificate fails
    /// the whole [`MachinePark::run`] with the verifier's violation: a
    /// bad certificate in a shared facility is an integrity event, not a
    /// per-job footnote.
    pub fn with_audit_fraction(mut self, fraction: f64) -> Self {
        self.set_audit_fraction(fraction);
        self
    }

    /// Set the spot-audit fraction (see [`MachinePark::with_audit_fraction`]).
    pub fn set_audit_fraction(&mut self, fraction: f64) {
        self.audit_fraction = fraction.clamp(0.0, 1.0);
    }

    /// The configured spot-audit fraction.
    pub fn audit_fraction(&self) -> f64 {
        self.audit_fraction
    }

    /// Whether the deterministic spot-audit policy selects this job.
    fn audits(&self, id: JobId) -> bool {
        if self.audit_fraction <= 0.0 {
            return false;
        }
        let stride = (1.0 / self.audit_fraction).round().max(1.0) as usize;
        id.is_multiple_of(stride)
    }

    /// The machine's node count.
    pub fn capacity_nodes(&self) -> usize {
        self.cube.nodes()
    }

    /// The session every job compiles through (shared kernel cache).
    pub fn session(&self) -> &Session {
        &self.session
    }

    /// Queue a job. Fails when the job asks for a bigger cube than the
    /// machine has.
    pub fn submit(&mut self, job: Job) -> Result<JobId, NscError> {
        if job.dim > self.cube.dimension {
            return Err(NscError::Workload(format!(
                "job wants a dimension-{} sub-cube but the park machine is dimension {}",
                job.dim, self.cube.dimension
            )));
        }
        Ok(self.queue.submit(job))
    }

    /// Queue a whole batch, in order, returning the ids in submission
    /// order. All-or-nothing: the first oversized job rejects the batch
    /// and nothing is queued — the batched path sweep engines use to
    /// place an ensemble's members atomically.
    pub fn submit_batch(
        &mut self,
        jobs: impl IntoIterator<Item = Job>,
    ) -> Result<Vec<JobId>, NscError> {
        let jobs: Vec<Job> = jobs.into_iter().collect();
        if let Some(bad) = jobs.iter().find(|j| j.dim > self.cube.dimension) {
            return Err(NscError::Workload(format!(
                "batch job '{}' wants a dimension-{} sub-cube but the park machine is \
                 dimension {}; nothing was queued",
                bad.name(),
                bad.dim,
                self.cube.dimension
            )));
        }
        Ok(jobs.into_iter().map(|j| self.queue.submit(j)).collect())
    }

    /// Run every queued job to completion under `policy` and report.
    ///
    /// Deterministic: the same submissions under the same policy produce
    /// bit-identical job results and figures, which is what lets the
    /// perf gate commit scheduler throughput and utilization baselines.
    pub fn run(&mut self, policy: SchedPolicy) -> Result<ParkReport, NscError> {
        let mut now = 0.0f64;
        let mut running: Vec<RunningJob> = Vec::new();
        // tenant -> node-seconds (the fair-share key).
        let mut share: HashMap<String, f64> = HashMap::new();
        // tenant -> (jobs completed, node-seconds) for the report.
        let mut usage: HashMap<String, (usize, f64)> = HashMap::new();
        let mut reports: Vec<JobReport> = Vec::new();
        // Spot-audit tally: (jobs audited, certificates verified).
        let mut audited = (0usize, 0usize);

        while !self.queue.all_done() {
            // 1. Admit: what starts on the free capacity right now?
            let candidates: Vec<Candidate> = self
                .queue
                .arrived_waiting(now)
                .into_iter()
                .map(|id| {
                    let job = self.queue.job(id);
                    Candidate { id, dim: job.dim, tenant: job.tenant.clone() }
                })
                .collect();
            let admitted = policy.admit(&candidates, &self.alloc, &share);

            if !admitted.is_empty() {
                // 2. Lease + 3. execute the admitted batch concurrently.
                for done in self.start_batch(&admitted, now) {
                    running.push(done);
                }
                // Re-enter admission: the policy saw the full waiting
                // list, so the next pass admits nothing further at this
                // instant and falls through to the clock advance.
                continue;
            }

            // 4. Advance the park clock to the next event.
            let next_end = running.iter().map(|r| r.end).fold(f64::INFINITY, f64::min);
            let next_arrival = self.queue.next_arrival_after(now).unwrap_or(f64::INFINITY);
            let next = next_end.min(next_arrival);
            if !next.is_finite() {
                // Arrived jobs that no policy can ever start (should be
                // unreachable: `submit` bounds every job by the machine).
                return Err(NscError::Workload(
                    "park wedged: jobs waiting, nothing running, no arrivals".into(),
                ));
            }
            now = next;

            // Retire every lease whose simulated end has been reached.
            let mut i = 0;
            while i < running.len() {
                if running[i].end <= now {
                    let done = running.swap_remove(i);
                    reports.push(self.finish(done, &mut share, &mut usage, &mut audited)?);
                } else {
                    i += 1;
                }
            }
        }

        Ok(ParkReport::assemble(policy.label(), self.cube.nodes(), reports, &usage, audited))
    }

    /// Lease sub-cubes for an admitted batch and host-execute all of its
    /// jobs concurrently on host threads sharing the park session.
    fn start_batch(&mut self, admitted: &[JobId], now: f64) -> Vec<RunningJob> {
        struct Lease {
            id: JobId,
            subcube: SubCube,
            cube: HypercubeConfig,
            payload: Arc<dyn JobPayload>,
            nodes: Vec<NodeSim>,
            before: Vec<PerfCounters>,
            /// The session clone this lease compiles through (shared
            /// kernel cache, private certificate log) and the log it
            /// records into — so certificates attribute to jobs even
            /// though the whole batch shares one compile cache.
            session: Session,
            certs: nsc_core::CertificateLog,
        }

        let mut leases: Vec<Lease> = admitted
            .iter()
            .map(|&id| {
                let job: &Job = self.queue.job(id);
                let subcube = self
                    .alloc
                    .allocate(job.dim)
                    .expect("the admission probe guaranteed this allocation fits");
                // The lease is a hypercube of the job's dimension with the
                // machine's router model. Nodes are wiped (fresh planes —
                // tenant isolation) but keep their lifetime counters.
                let cube = HypercubeConfig { dimension: job.dim, router: self.cube.router };
                let (nodes, before): (Vec<NodeSim>, Vec<PerfCounters>) = subcube
                    .members()
                    .map(|nid| {
                        let old = self.slots[nid.index()]
                            .take()
                            .expect("disjoint sub-cubes never share a slot");
                        let mut fresh = self.session.node();
                        fresh.counters = old.counters;
                        (fresh, old.counters)
                    })
                    .unzip();
                let payload = Arc::clone(job.payload());
                let (session, certs) = self.session.with_certificate_log();
                Lease { id, subcube, cube, payload, nodes, before, session, certs }
            })
            .collect();
        for lease in &leases {
            self.queue.mark_running(lease.id);
        }

        // Host-execute the whole batch concurrently; each lease owns its
        // leased nodes and compiles through its lease's session clone —
        // one shared kernel cache, one certificate log per job. A payload
        // panic propagates out of the runner, so every slot is filled
        // when it returns.
        let mut results: Vec<Option<LeaseResult>> = (0..leases.len()).map(|_| None).collect();
        for_each_concurrent(leases.iter_mut().zip(results.iter_mut()), |(lease, slot)| {
            let nodes = std::mem::take(&mut lease.nodes);
            let mut system = NscSystem::from_nodes(lease.cube, nodes);
            let outcome = lease.payload.run(&lease.session, &mut system);
            let (nodes, _comm_ns) = system.into_nodes();
            *slot = Some((nodes, outcome));
        });

        leases
            .into_iter()
            .zip(results)
            .map(|(lease, result)| {
                let (nodes, mut outcome) = result.expect("every spawned lease fills its slot");
                // Stamp every certificate the lease's compiles emitted
                // with the sub-cube it ran inside, so the verifier can
                // check route containment against the lease.
                if let Ok(o) = &mut outcome {
                    let stamp = LeaseCert {
                        base: lease.subcube.base.0 as u64,
                        dimension: lease.subcube.dimension,
                    };
                    o.certificates = lease
                        .certs
                        .drain()
                        .into_iter()
                        .map(|c| Arc::new(c.with_lease(stamp.clone())))
                        .collect();
                }
                // The job's usage is the counter delta the park measured on
                // its leased nodes; its simulated duration is the
                // critical-path node (compute + unhidden communication).
                let mut counters = PerfCounters::default();
                let mut simulated_seconds = 0.0f64;
                for (node, before) in nodes.iter().zip(&lease.before) {
                    let delta = node.counters.since(before);
                    counters.absorb(&delta);
                    simulated_seconds =
                        simulated_seconds.max(delta.seconds_with_comm(self.clock_hz));
                }
                RunningJob {
                    id: lease.id,
                    subcube: lease.subcube,
                    started_at: now,
                    end: now + simulated_seconds,
                    nodes,
                    counters,
                    simulated_seconds,
                    outcome,
                }
            })
            .collect()
    }

    /// Return a completed lease's nodes and sub-cube, spot-audit its
    /// certificates when the policy selects it, and write its report.
    /// A rejected certificate fails the whole run.
    fn finish(
        &mut self,
        done: RunningJob,
        share: &mut HashMap<String, f64>,
        usage: &mut HashMap<String, (usize, f64)>,
        audited: &mut (usize, usize),
    ) -> Result<JobReport, NscError> {
        for (nid, node) in done.subcube.members().zip(done.nodes) {
            debug_assert!(self.slots[nid.index()].is_none());
            self.slots[nid.index()] = Some(node);
        }
        self.alloc.free(done.subcube);
        self.queue.mark_done(done.id);

        let job = self.queue.job(done.id);
        let node_seconds = done.subcube.nodes() as f64 * done.simulated_seconds;
        *share.entry(job.tenant.clone()).or_insert(0.0) += node_seconds;
        let entry = usage.entry(job.tenant.clone()).or_insert((0, 0.0));
        entry.0 += 1;
        entry.1 += node_seconds;

        let (residual, error) = match done.outcome {
            Ok(outcome) => {
                if self.audits(done.id) {
                    // Independent re-check: only the certificate bytes and
                    // this park's machine limits go in — the engine's
                    // checker and codegen are never consulted.
                    let expected = Expected {
                        machine: Some(machine_limits(self.session.kb().config())),
                        ..Expected::default()
                    };
                    for cert in &outcome.certificates {
                        verify(cert, &expected).map_err(|v| {
                            NscError::Workload(format!(
                                "certificate audit failed for job {} ('{}', tenant {}): {v}",
                                done.id,
                                job.name(),
                                job.tenant,
                            ))
                        })?;
                        audited.1 += 1;
                    }
                    audited.0 += 1;
                }
                let residual = outcome.residual;
                self.outcomes.insert(done.id, outcome);
                (residual, None)
            }
            Err(e) => (f64::NAN, Some(e.to_string())),
        };
        Ok(JobReport {
            id: done.id,
            tenant: job.tenant.clone(),
            name: job.name(),
            subcube: done.subcube,
            nodes: done.subcube.nodes(),
            submitted_at: job.submit_at,
            started_at: done.started_at,
            finished_at: done.end,
            queue_wait: done.started_at - job.submit_at,
            simulated_seconds: done.simulated_seconds,
            counters: done.counters,
            mflops: done.counters.mflops(self.clock_hz),
            residual,
            error,
        })
    }

    /// The solution a completed job produced — the bits the identity
    /// audits compare against a standalone run of the same workload.
    /// `None` before the job completes, and for jobs that failed.
    pub fn outcome(&self, id: JobId) -> Option<&JobOutcome> {
        self.outcomes.get(&id)
    }
}
