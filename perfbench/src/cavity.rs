//! `cavity`: the lid-driven cavity on 17², 4 nodes (dim 2, 2x2 blocks),
//! overlapped ψ sweeps, `psi_tol = 1e-8`, four time steps. Each step is
//! hundreds of tiny ψ sweeps, so per-call costs dominate: the phased pool
//! runner, small face exchanges, per-pair reductions.

use crate::mirror::{self, Choreography, SweepPrograms};
use crate::outcome::{same_bits, Outcome, SimFigures};
use crate::trace::Tracer;
use crate::Bench;
use nsc_arch::HypercubeConfig;
use nsc_cfd::diagrams::{
    build_ftcs_transport_document, Jacobi2dGeometry, PLANE_G, PLANE_MASK, PLANE_U0, PLANE_U1,
    PLANE_W0, PLANE_W1, PLANE_WC, RESIDUAL_CACHE,
};
use nsc_cfd::host::FtcsCoeffs;
use nsc_cfd::{
    build_jacobi2d_sweep_document_windows, read_slabs, CavityWorkload, Grid2, GridShape,
    PaddedField, Part, Partition, Poisson2dSolver, SweepWindow, VorticityTransport,
};
use nsc_core::{
    run_compiled_on_pool, CertificateLog, CompiledProgram, NscError, Session, Workload,
};
use nsc_diagram::Document;
use nsc_sim::{NscSystem, RunOptions};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::sync::Arc;

const N: usize = 17;
const DIM: u32 = 2;
const STEPS: usize = 4;
/// The seed draws Re uniformly from this range. The default time step
/// keeps FTCS stable at any Re; the range is narrow so that the ψ-sweep
/// count (≈570 pairs) moves by less than 1% between seeds.
const RE_RANGE: std::ops::Range<f64> = 95.0..105.0;

/// The reference: a 1-node synchronized run of the same problem.
struct Reference {
    psi: Vec<f64>,
    omega: Vec<f64>,
    history: Vec<f64>,
    pairs: u64,
}

pub struct Cavity {
    session: Session,
    log: CertificateLog,
    system: NscSystem,
    work: CavityWorkload,
    reference: Option<Reference>,
}

fn psi_doc(even: bool) -> impl Fn(&Part, &[SweepWindow]) -> Document {
    move |p, windows| {
        let (nx, ny, _) = p.local_shape();
        build_jacobi2d_sweep_document_windows(Jacobi2dGeometry::new(nx, ny), even, windows)
    }
}

fn transport_doc(p: &Part, coeffs: FtcsCoeffs) -> Document {
    let (nx, ny, _) = p.local_shape();
    build_ftcs_transport_document(Jacobi2dGeometry::new(nx, ny), coeffs)
}

impl Cavity {
    /// Session, 4-node machine, the seeded Reynolds number, and the
    /// solve's compiles (cold) through the public solver constructors.
    pub fn setup(seed: u64) -> Result<Self, NscError> {
        let (session, log) = Session::nsc_1988().with_certificate_log();
        let mut system = NscSystem::new(HypercubeConfig::new(DIM), session.kb());
        let re = StdRng::seed_from_u64(seed).random_range(RE_RANGE);
        let mut work = CavityWorkload::new(N, re, STEPS);
        work.psi_tol = 1e-8;
        work.overlap = true;
        let solver =
            Poisson2dSolver::with_partition(&session, &mut system, N, N, work.partition, true)?;
        let coeffs = FtcsCoeffs::new(Grid2::new(N, N).h, work.re, work.dt);
        VorticityTransport::new(&session, solver.partition(), coeffs)?;
        log.drain();
        Ok(Cavity { session, log, system, work, reference: None })
    }

    fn compare(&self, out: &Outcome) -> Result<(), String> {
        let r = self.reference.as_ref().expect("reference prepared before the first check");
        same_bits("psi", &out.outputs[0], &r.psi)?;
        same_bits("omega", &out.outputs[1], &r.omega)?;
        same_bits("residual history", &out.outputs[4], &r.history)?;
        if out.pairs != r.pairs {
            return Err(format!("{} psi pairs, reference {}", out.pairs, r.pairs));
        }
        Ok(())
    }

    /// Thom's wall-vorticity update, as `CavityWorkload::execute` applies
    /// it between the ψ solve and the transport step (host work).
    fn wall_vorticity(work: &CavityWorkload, omega: &mut Grid2, psi: &Grid2) {
        let (n, h, lid) = (work.n, psi.h, work.lid);
        let h2 = h * h;
        for i in 0..n {
            *omega.at_mut(i, 0) = 2.0 * (psi.at(i, 0) - psi.at(i, 1)) / h2;
            *omega.at_mut(i, n - 1) =
                2.0 * (psi.at(i, n - 1) - psi.at(i, n - 2)) / h2 - 2.0 * lid / h;
        }
        for j in 0..n {
            *omega.at_mut(0, j) = 2.0 * (psi.at(0, j) - psi.at(1, j)) / h2;
            *omega.at_mut(n - 1, j) = 2.0 * (psi.at(n - 1, j) - psi.at(n - 2, j)) / h2;
        }
    }
}

/// The compiled ψ solver of one traced iteration.
struct Solver<'p> {
    sweeps: Choreography<'p>,
    even: SweepPrograms,
    odd: SweepPrograms,
}

impl Solver<'_> {
    /// `Poisson2dSolver::solve`, call for call: scatter, ping-pong pairs
    /// with a reduction per pair, gather. Returns (pairs, residual,
    /// converged).
    fn solve(
        &self,
        tr: &Tracer,
        system: &mut NscSystem,
        u: &mut Grid2,
        f: &Grid2,
        tol: f64,
        max_pairs: u32,
    ) -> Result<(u64, f64, bool), NscError> {
        let part = self.sweeps.part;
        let parts = part.parts();
        tr.span("stage.scatter", || {
            let h2 = u.h * u.h;
            let g: Vec<f64> = f.data.iter().map(|&v| -h2 * v).collect();
            let us = part.scatter(&u.data);
            let gs = part.scatter(&g);
            let mut words = 0;
            for (p, (lu, lg)) in parts.iter().zip(us.into_iter().zip(gs)) {
                let (nx, ny, _) = p.local_shape();
                let wrap = |data| Grid2 { nx, ny, h: u.h, data };
                let mem = &mut system.node_mut(p.node).mem;
                let padded_u = PaddedField::stencil2d(&wrap(lu));
                let padded_g = PaddedField::aligned2d(&wrap(lg));
                mem.plane_mut(PLANE_U0).write_slice(0, &padded_u.words);
                mem.plane_mut(PLANE_G).write_slice(0, &padded_g.words);
                mem.plane_mut(PLANE_U1).write_slice(0, &padded_u.words);
                words += 2 * padded_u.words.len() + padded_g.words.len();
            }
            tr.count("stage.words", words as u64);
        });
        let members = part.member_nodes();
        let opts = RunOptions::default();
        let (mut pairs, mut residual, mut converged) = (0u64, f64::INFINITY, false);
        while pairs < u64::from(max_pairs) && !converged {
            self.sweeps.sweep(tr, system, &self.even, (PLANE_U0, PLANE_U1, pairs == 0), &opts)?;
            self.sweeps.sweep(tr, system, &self.odd, (PLANE_U1, PLANE_U0, false), &opts)?;
            residual =
                tr.span("reduce", || system.pool_max_cache_scalar(&members, RESIDUAL_CACHE, 0)).0;
            pairs += 1;
            converged = residual < tol;
        }
        tr.span("stage.gather", || {
            let locals = read_slabs(part, system, PLANE_U0);
            tr.count("stage.words", locals.iter().map(|l| l.len() as u64).sum());
            u.data = part.gather(&locals);
        });
        Ok((pairs, residual, converged))
    }
}

/// `VorticityTransport::step`, call for call.
fn transport_step(
    tr: &Tracer,
    system: &mut NscSystem,
    part: &dyn Partition,
    programs: &[CompiledProgram],
    psi: &Grid2,
    omega: &mut Grid2,
) -> Result<(), NscError> {
    let parts = part.parts();
    tr.span("stage.scatter", || {
        let ps = part.scatter(&psi.data);
        let ws = part.scatter(&omega.data);
        let mut words = 0;
        for (p, (lp, lw)) in parts.iter().zip(ps.into_iter().zip(ws)) {
            let (nx, ny, _) = p.local_shape();
            let wrap = |data: Vec<f64>| Grid2 { nx, ny, h: psi.h, data };
            let mem = &mut system.node_mut(p.node).mem;
            let stencil_psi = PaddedField::stencil2d(&wrap(lp));
            let w = wrap(lw);
            let stencil_w = PaddedField::stencil2d(&w);
            let aligned_w = PaddedField::aligned2d(&w);
            mem.plane_mut(PLANE_U0).write_slice(0, &stencil_psi.words);
            mem.plane_mut(PLANE_W0).write_slice(0, &stencil_w.words);
            mem.plane_mut(PLANE_WC).write_slice(0, &aligned_w.words);
            words += stencil_psi.words.len() + stencil_w.words.len() + aligned_w.words.len();
        }
        tr.count("stage.words", words as u64);
    });
    let refs: Vec<&CompiledProgram> = programs.iter().collect();
    let pool = part.node_pool();
    mirror::exec(tr, system, |sys| {
        run_compiled_on_pool(&refs, sys.nodes_mut(), &pool, &RunOptions::default())
    })
    .map_err(|e| mirror::attribute_part(parts, e))?;
    tr.span("stage.gather", || {
        let locals = read_slabs(part, system, PLANE_W1);
        tr.count("stage.words", locals.iter().map(|l| l.len() as u64).sum());
        omega.data = part.gather(&locals);
    });
    Ok(())
}

impl Bench for Cavity {
    fn session(&self) -> &Session {
        &self.session
    }

    fn prepare_reference(&mut self) -> Result<(), NscError> {
        let session = Session::nsc_1988();
        let mut one = NscSystem::new(HypercubeConfig::new(0), session.kb());
        let serial = CavityWorkload { overlap: false, ..self.work.clone() };
        let run = serial.execute(&session, &mut one)?;
        self.reference = Some(Reference {
            psi: run.psi.data,
            omega: run.omega.data,
            history: run.residual_history,
            pairs: run.psi_pairs,
        });
        Ok(())
    }

    fn check(&self, out: &Outcome) -> Vec<String> {
        self.compare(out).err().into_iter().collect()
    }

    fn run(&mut self) -> Result<Outcome, NscError> {
        let run = self.work.execute(&self.session, &mut self.system)?;
        Ok(Outcome {
            outputs: vec![
                run.psi.data,
                run.omega.data,
                run.u.data,
                run.v.data,
                run.residual_history,
            ],
            sim: SimFigures::from_nodes(&run.per_node, mirror::clock_hz(&self.system)),
            pairs: run.psi_pairs,
            halo_words: None,
            certs: self.log.drain().len() as u64,
            member_errors: vec![None],
            resident_pages: mirror::resident_pages(&self.system),
        })
    }

    /// `CavityWorkload::execute` with the overlapped ψ solver, call for
    /// call.
    fn run_traced(&mut self, tr: &Arc<Tracer>) -> Result<Outcome, NscError> {
        let (n, session) = (self.work.n, &self.session);
        let partition =
            self.work.partition.build(GridShape::plane2d(n, n), self.system.cube, true)?;
        let part = partition.as_ref();
        let sweeps = Choreography::new(part, self.work.overlap);
        let even = sweeps.compile(tr, session, psi_doc(true))?;
        let odd = sweeps.compile(tr, session, psi_doc(false))?;
        let system = &mut self.system;
        tr.span("stage.scatter", || {
            let mut words = 0;
            for p in part.parts() {
                let (nx, ny, _) = p.local_shape();
                let local = Grid2 { nx, ny, h: 1.0, data: vec![0.0; nx * ny] };
                let mask = PaddedField::aligned2d(&local.interior_mask());
                system.node_mut(p.node).mem.plane_mut(PLANE_MASK).write_slice(0, &mask.words);
                words += mask.words.len();
            }
            tr.count("stage.words", words as u64);
        });
        let solver = Solver { sweeps, even, odd };
        let mut psi = Grid2::new(n, n);
        let mut omega = Grid2::new(n, n);
        let coeffs = FtcsCoeffs::new(psi.h, self.work.re, self.work.dt);
        let transport = tr.span("compile", || {
            let mut by_shape: HashMap<(usize, usize, usize), CompiledProgram> = HashMap::new();
            part.parts()
                .iter()
                .map(|p| match by_shape.get(&p.local_shape()) {
                    Some(prog) => Ok(prog.clone()),
                    None => {
                        let prog = session
                            .compile(&mut transport_doc(p, coeffs))
                            .map_err(|e| NscError::on_node(p.node, e))?;
                        by_shape.insert(p.local_shape(), prog.clone());
                        Ok(prog)
                    }
                })
                .collect::<Result<Vec<_>, NscError>>()
        })?;

        let before = mirror::snapshot(system);
        let (mut pairs, mut history) = (0u64, Vec::with_capacity(STEPS));
        for step in 0..STEPS {
            let (p, residual, converged) = tr.span("solver", || {
                solver.solve(
                    tr,
                    system,
                    &mut psi,
                    &omega,
                    self.work.psi_tol,
                    self.work.psi_max_pairs,
                )
            })?;
            pairs += p;
            history.push(residual);
            if !converged {
                return Err(NscError::Workload(format!("psi solve at step {step} stalled")));
            }
            Self::wall_vorticity(&self.work, &mut omega, &psi);
            tr.span("transport", || {
                transport_step(tr, system, part, &transport, &psi, &mut omega)
            })?;
            if !omega.linf().is_finite() {
                return Err(NscError::Workload("vorticity diverged".into()));
            }
        }
        let per_node = mirror::deltas(system, &before);
        let (u, v) = self.work.velocities(&psi);
        Ok(Outcome {
            outputs: vec![psi.data, omega.data, u.data, v.data, history],
            sim: SimFigures::from_nodes(&per_node, mirror::clock_hz(system)),
            pairs,
            halo_words: Some(tr.profile().count("halo.words")),
            certs: self.log.drain().len() as u64,
            member_errors: vec![None],
            resident_pages: mirror::resident_pages(system),
        })
    }

    fn replay_documents(&self) -> Vec<Document> {
        let n = self.work.n;
        let part = self
            .work
            .partition
            .build(GridShape::plane2d(n, n), self.system.cube, true)
            .expect("the setup already built this partition");
        let sweeps = Choreography::new(part.as_ref(), self.work.overlap);
        let coeffs = FtcsCoeffs::new(Grid2::new(n, n).h, self.work.re, self.work.dt);
        let mut docs = Vec::new();
        for even in [true, false] {
            for (p, split) in part.parts().iter().zip(&sweeps.splits) {
                docs.extend(split.interior.map(|w| psi_doc(even)(p, &[w])));
                let shells = split.shell_windows();
                if !shells.is_empty() {
                    docs.push(psi_doc(even)(p, &shells));
                }
            }
        }
        docs.extend(part.parts().iter().map(|p| transport_doc(p, coeffs)));
        crate::replay::distinct(docs)
    }
}
