//! Shared pieces of the traced path: the sweep compile and sweep step
//! of `nsc_cfd::SweepEngine`, rebuilt from the same public calls so each
//! call can sit in its own span.

use crate::trace::Tracer;
use nsc_arch::PlaneId;
use nsc_cfd::diagrams::RESIDUAL_CACHE;
use nsc_cfd::{halo_routes, window_coverage, HaloSpec, Part, Partition, SweepSplit, SweepWindow};
use nsc_core::{run_compiled_on_pool, run_compiled_phased, CompiledProgram, NscError, Session};
use nsc_diagram::Document;
use nsc_sim::{NscSystem, PerfCounters, RunOptions};
use std::collections::HashMap;
use std::sync::Arc;

/// A sweep compiled for one mode, as `SweepEngine::compile` compiles it.
pub struct SweepPrograms {
    /// Synchronized mode: the whole-slab program per part.
    fused: Vec<CompiledProgram>,
    /// Overlapped mode: interior and boundary-shell programs per part.
    interior: Vec<Option<CompiledProgram>>,
    shell: Vec<Option<CompiledProgram>>,
}

/// A halo spec with the words one exchange of it delivers.
struct Exchange {
    spec: HaloSpec,
    words: u64,
}

impl Exchange {
    fn new(part: &dyn Partition, spec: HaloSpec) -> Self {
        Exchange { spec, words: exchange_words(part, &spec) }
    }
}

/// The choreography of one partition, as `SweepEngine::new` sets it up:
/// the window split per part, the node pool, and the halo specs of the
/// synchronized mode (every face) and the overlapped mode (the overlap
/// axis's faces hidden, the rest exchanged first).
pub struct Choreography<'p> {
    pub part: &'p dyn Partition,
    pub overlap: bool,
    pub splits: Vec<SweepSplit>,
    pub pool: Vec<usize>,
    halo: Exchange,
    overlap_faces: Exchange,
    sync_faces: Exchange,
}

impl<'p> Choreography<'p> {
    pub fn new(part: &'p dyn Partition, overlap: bool) -> Self {
        let halo = HaloSpec::stencil();
        let axis = part.shape().overlap_axis();
        Choreography {
            part,
            overlap,
            splits: part.parts().iter().map(|p| p.overlap_split(axis, &halo)).collect(),
            pool: part.node_pool(),
            halo: Exchange::new(part, halo),
            overlap_faces: Exchange::new(part, halo.only_axis(axis)),
            sync_faces: Exchange::new(part, halo.without_axis(axis)),
        }
    }

    /// Compile one sweep: every part's documents through
    /// `Session::compile`, deduplicated by document digest, then the
    /// topology certificate stapled onto the first program and recorded.
    pub fn compile(
        &self,
        tr: &Tracer,
        session: &Session,
        build: impl Fn(&Part, &[SweepWindow]) -> Document,
    ) -> Result<SweepPrograms, NscError> {
        tr.span("compile", || {
            let mut seen: HashMap<u128, CompiledProgram> = HashMap::new();
            let mut compile = |p: &Part, windows: &[SweepWindow]| {
                let mut doc = build(p, windows);
                let key = doc.digest();
                if let Some(prog) = seen.get(&key) {
                    return Ok(prog.clone());
                }
                let prog = session.compile(&mut doc).map_err(|e| NscError::on_node(p.node, e))?;
                seen.insert(key, prog.clone());
                Ok::<_, NscError>(prog)
            };
            let axis = self.part.shape().overlap_axis();
            let mut out =
                SweepPrograms { fused: Vec::new(), interior: Vec::new(), shell: Vec::new() };
            for (p, split) in self.part.parts().iter().zip(&self.splits) {
                if self.overlap {
                    out.interior.push(split.interior.map(|w| compile(p, &[w])).transpose()?);
                    let shells = split.shell_windows();
                    let shell = if shells.is_empty() { None } else { Some(compile(p, &shells)?) };
                    out.shell.push(shell);
                } else {
                    out.fused.push(compile(p, &[SweepWindow::whole(p.spans[axis].local_len())])?);
                }
            }
            let base = if self.overlap {
                out.interior.iter().flatten().chain(out.shell.iter().flatten()).next()
            } else {
                out.fused.first()
            };
            if let Some(prog) = base {
                let cert = prog.certificate().with_topology(
                    halo_routes(self.part, &self.halo.spec),
                    window_coverage(self.part, &self.splits),
                );
                session.record_certificate(Arc::new(cert));
            }
            Ok(out)
        })
    }

    /// One halo exchange on `plane`, counted.
    fn exchange(&self, tr: &Tracer, system: &mut NscSystem, plane: PlaneId, x: &Exchange) {
        tr.span("halo", || self.part.halo_exchange(system, plane, 1, &x.spec));
        tr.count("halo.words", x.words);
    }

    /// One sweep step, as `SweepEngine::sweep` runs it. `read`/`write`
    /// are the plane roles; `fresh_ghosts` marks the first sweep after a
    /// scatter.
    pub fn sweep(
        &self,
        tr: &Tracer,
        system: &mut NscSystem,
        sweep: &SweepPrograms,
        (read, write, fresh_ghosts): (PlaneId, PlaneId, bool),
        opts: &RunOptions,
    ) -> Result<(), NscError> {
        let parts = self.part.parts();
        if !self.overlap {
            let refs: Vec<&CompiledProgram> = sweep.fused.iter().collect();
            exec(tr, system, |sys| run_compiled_on_pool(&refs, sys.nodes_mut(), &self.pool, opts))
                .map_err(|e| attribute_part(parts, e))?;
            self.exchange(tr, system, write, &self.halo);
            return Ok(());
        }
        if !fresh_ghosts && self.sync_faces.spec.wants_any() {
            self.exchange(tr, system, read, &self.sync_faces);
        }
        let interior: Vec<Option<&CompiledProgram>> =
            sweep.interior.iter().map(Option::as_ref).collect();
        let shell: Vec<Option<&CompiledProgram>> = sweep.shell.iter().map(Option::as_ref).collect();
        exec(tr, system, |sys| {
            run_compiled_phased(sys, &self.pool, &interior, &shell, opts, |s| {
                if !fresh_ghosts {
                    self.exchange(tr, s, read, &self.overlap_faces);
                }
            })
        })
        .map_err(|e| attribute_part(parts, e))?;
        self.combine_residuals(system);
        Ok(())
    }

    /// Fold each part's per-window residual slots into slot 0, as the
    /// engine's sequencer-local combine does.
    fn combine_residuals(&self, system: &mut NscSystem) {
        for (p, split) in self.part.parts().iter().zip(&self.splits) {
            let mut windows = split.windows();
            let first = windows.next();
            if windows.next().is_none() && first.is_some_and(|w| w.slot == 0) {
                continue;
            }
            let node = system.node_mut(p.node);
            let r = split
                .windows()
                .map(|w| node.mem.cache(RESIDUAL_CACHE).read(0, w.slot))
                .fold(f64::NEG_INFINITY, f64::max);
            node.mem.cache_mut(RESIDUAL_CACHE).write(0, 0, r);
        }
    }
}

/// Run one pool call inside an `exec` span, counting the simulated flops
/// it executed.
pub fn exec<T>(
    tr: &Tracer,
    system: &mut NscSystem,
    call: impl FnOnce(&mut NscSystem) -> Result<T, NscError>,
) -> Result<T, NscError> {
    let before = flops(system);
    let out = tr.span("exec", || call(system));
    tr.count("exec.flops", flops(system) - before);
    out
}

/// Words one exchange of `spec` delivers into ghost layers, summed over
/// every part.
fn exchange_words(part: &dyn Partition, spec: &HaloSpec) -> u64 {
    let mut words = 0u64;
    for p in part.parts() {
        for axis in 0..3 {
            let sp = p.spans[axis];
            for (side, ghosts, g) in
                [(0, sp.lo_ghost, sp.start.wrapping_sub(1)), (1, sp.hi_ghost, sp.start + sp.len)]
            {
                if spec.faces[axis][side] && ghosts > 0 {
                    let mut face = 0u64;
                    p.face_runs(axis, g, |_, len| face += len as u64);
                    words += face * spec.layers as u64;
                }
            }
        }
    }
    words
}

/// Re-attribute a pool failure to the node of the part it ran on.
pub fn attribute_part(parts: &[Part], e: NscError) -> NscError {
    match e {
        NscError::Batch { doc, source } => NscError::on_node(parts[doc].node, *source),
        other => other,
    }
}

/// Every node's counters, for per-run deltas.
pub fn snapshot(system: &NscSystem) -> Vec<PerfCounters> {
    system.nodes().iter().map(|n| n.counters).collect()
}

/// Per-node counter deltas since `before`.
pub fn deltas(system: &NscSystem, before: &[PerfCounters]) -> Vec<PerfCounters> {
    system.nodes().iter().zip(before).map(|(n, b)| n.counters.since(b)).collect()
}

fn flops(system: &NscSystem) -> u64 {
    system.nodes().iter().map(|n| n.counters.flops).sum()
}

/// Resident pages across every node's memory planes.
pub fn resident_pages(system: &NscSystem) -> u64 {
    system.nodes().iter().flat_map(|n| &n.mem.planes).map(|p| p.resident_pages() as u64).sum()
}

/// The machine's clock.
pub fn clock_hz(system: &NscSystem) -> u64 {
    system.nodes()[0].kb.config().clock_hz
}
