//! `jacobi3d`: distributed Jacobi on the manufactured 64³ Poisson
//! problem, 8 nodes (dim 3), strip partition, synchronized, `tol = 0`,
//! four sweep pairs. The bandwidth-bound bulk path: scatter and plane
//! loads, pool kernels, plane-to-plane halo exchange, gather.

use crate::mirror::{self, Choreography};
use crate::outcome::{same_bits, Outcome, SimFigures};
use crate::trace::Tracer;
use crate::Bench;
use nsc_arch::HypercubeConfig;
use nsc_cfd::diagrams::{JacobiGeometry, PLANE_U0, PLANE_U1, RESIDUAL_CACHE};
use nsc_cfd::grid::manufactured_problem;
use nsc_cfd::{
    build_jacobi_sweep_document_windows, jacobi_sweep_host, load_problem, read_slabs,
    DistributedJacobiWorkload, Grid3, GridShape, HaloSpec, JacobiHostState, JacobiVariant, Part,
    PartitionSpec, SweepEngine, SweepWindow,
};
use nsc_core::{CertificateLog, NscError, Session, Workload};
use nsc_diagram::Document;
use nsc_sim::{NscSystem, RunOptions};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

const N: usize = 64;
const DIM: u32 = 3;
const PAIRS: u32 = 4;

/// The reference: the serial host mirror's iterate and per-pair residuals.
struct Reference {
    u: Vec<f64>,
    history: Vec<f64>,
}

pub struct Jacobi3d {
    session: Session,
    log: CertificateLog,
    system: NscSystem,
    work: DistributedJacobiWorkload,
    reference: Option<Reference>,
}

/// The windowed sweep document both the workload and the traced path
/// compile.
fn sweep_doc(even: bool) -> impl Fn(&Part, &[SweepWindow]) -> Document {
    move |p, windows| {
        let (nx, ny, nz) = p.local_shape();
        build_jacobi_sweep_document_windows(JacobiGeometry::slab(nx, ny, nz), even, windows)
    }
}

impl Jacobi3d {
    /// Session, 8-node machine, the seeded problem, and the solve's two
    /// sweep compiles (cold) through the public sweep engine.
    pub fn setup(seed: u64) -> Result<Self, NscError> {
        let (session, log) = Session::nsc_1988().with_certificate_log();
        let system = NscSystem::new(HypercubeConfig::new(DIM), session.kb());
        let (mut u0, f, _) = manufactured_problem(N);
        u0.randomize_interior(&mut StdRng::seed_from_u64(seed), -1.0, 1.0);
        let work = DistributedJacobiWorkload {
            u0,
            f,
            tol: 0.0,
            max_pairs: PAIRS,
            partition: PartitionSpec::Strip,
            overlap: false,
        };
        let part = work.partition.build(GridShape::volume3d(N, N, N), system.cube, false)?;
        let engine = SweepEngine::new(part.as_ref(), HaloSpec::stencil(), false);
        engine.compile(&session, sweep_doc(true))?;
        engine.compile(&session, sweep_doc(false))?;
        log.drain();
        Ok(Jacobi3d { session, log, system, work, reference: None })
    }
}

impl Bench for Jacobi3d {
    fn session(&self) -> &Session {
        &self.session
    }

    fn prepare_reference(&mut self) -> Result<(), NscError> {
        let mut host = JacobiHostState::new(&self.work.u0, &self.work.f);
        let mut history = Vec::new();
        for _ in 0..PAIRS {
            jacobi_sweep_host(&mut host);
            history.push(jacobi_sweep_host(&mut host));
        }
        self.reference = Some(Reference { u: host.current().data, history });
        Ok(())
    }

    fn check(&self, out: &Outcome) -> Vec<String> {
        let r = self.reference.as_ref().expect("reference prepared before the first check");
        same_bits("u", &out.outputs[0], &r.u)
            .and_then(|()| same_bits("residual history", &out.outputs[1], &r.history))
            .err()
            .into_iter()
            .collect()
    }

    fn run(&mut self) -> Result<Outcome, NscError> {
        let run = self.work.execute(&self.session, &mut self.system)?;
        Ok(Outcome {
            outputs: vec![run.u.data, run.residual_history],
            sim: SimFigures::from_nodes(&run.per_node, mirror::clock_hz(&self.system)),
            pairs: run.sweeps / 2,
            halo_words: None,
            certs: self.log.drain().len() as u64,
            member_errors: vec![None],
            resident_pages: mirror::resident_pages(&self.system),
        })
    }

    /// `DistributedJacobiWorkload::execute`, call for call.
    fn run_traced(&mut self, tr: &Arc<Tracer>) -> Result<Outcome, NscError> {
        let w = &self.work;
        let session = &self.session;
        let system = &mut self.system;
        let partition = w.partition.build(GridShape::volume3d(N, N, N), system.cube, false)?;
        let part = partition.as_ref();
        let parts = part.parts();
        let members = part.member_nodes();

        tr.span("stage.scatter", || {
            let us = part.scatter(&w.u0.data);
            let fs = part.scatter(&w.f.data);
            let mut words = 0;
            for (p, (lu, lf)) in parts.iter().zip(us.into_iter().zip(fs)) {
                let (nx, ny, nz) = p.local_shape();
                let wrap = |data| Grid3 { nx, ny, nz, h: w.u0.h, data };
                let state = JacobiHostState::new(&wrap(lu), &wrap(lf));
                load_problem(system.node_mut(p.node), &state, JacobiVariant::Full);
                words += state.u.words.len() + state.mask.words.len() + state.g.words.len();
            }
            tr.count("stage.words", words as u64);
        });
        let sweeps = Choreography::new(part, false);
        let even = sweeps.compile(tr, session, sweep_doc(true))?;
        let odd = sweeps.compile(tr, session, sweep_doc(false))?;

        let before = mirror::snapshot(system);
        let opts = RunOptions::default();
        let mut history = Vec::new();
        tr.span("solver", || {
            for pair in 0..PAIRS {
                sweeps.sweep(tr, system, &even, (PLANE_U0, PLANE_U1, pair == 0), &opts)?;
                sweeps.sweep(tr, system, &odd, (PLANE_U1, PLANE_U0, false), &opts)?;
                let (r, _) =
                    tr.span("reduce", || system.pool_max_cache_scalar(&members, RESIDUAL_CACHE, 0));
                history.push(r);
            }
            Ok::<_, NscError>(())
        })?;
        let u = tr.span("stage.gather", || {
            let locals = read_slabs(part, system, PLANE_U0);
            tr.count("stage.words", locals.iter().map(|l| l.len() as u64).sum());
            part.gather(&locals)
        });
        let per_node = mirror::deltas(system, &before);
        Ok(Outcome {
            outputs: vec![u, history],
            sim: SimFigures::from_nodes(&per_node, mirror::clock_hz(system)),
            pairs: u64::from(PAIRS),
            halo_words: Some(tr.profile().count("halo.words")),
            certs: self.log.drain().len() as u64,
            member_errors: vec![None],
            resident_pages: mirror::resident_pages(system),
        })
    }

    fn replay_documents(&self) -> Vec<Document> {
        let part = self
            .work
            .partition
            .build(GridShape::volume3d(N, N, N), self.system.cube, false)
            .expect("the setup already built this partition");
        let mut docs = Vec::new();
        for even in [true, false] {
            for p in part.parts() {
                docs.push(sweep_doc(even)(p, &[SweepWindow::whole(p.local_shape().2)]));
            }
        }
        crate::replay::distinct(docs)
    }
}
