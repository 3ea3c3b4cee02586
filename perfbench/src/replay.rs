//! Compile-stage replay: the workload's documents, each pushed through
//! the stages `Session::compile` runs on a cache miss, one public call
//! per stage, timed call by call.

use nsc_cert::CompilePath;
use nsc_core::certify::build_certificate;
use nsc_core::{NscError, Session};
use nsc_diagram::Document;
use nsc_sim::CompiledKernel;
use std::collections::HashSet;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Mean host microseconds per document for each compile stage, and the
/// kernel coverage of the compiled documents.
#[derive(Debug, Clone, Copy, Default)]
pub struct StageCosts {
    pub bind_us: f64,
    pub digest_us: f64,
    pub check_us: f64,
    pub codegen_us: f64,
    pub specialize_us: f64,
    pub seal_us: f64,
    /// Specialized instructions over all instructions.
    pub specialized_frac: f64,
    pub documents: usize,
}

/// The documents with distinct digests, first occurrence kept.
pub fn distinct(docs: Vec<Document>) -> Vec<Document> {
    let mut seen = HashSet::new();
    docs.into_iter().filter(|d| seen.insert(d.digest())).collect()
}

/// Replay `docs` through bind, digest, check, codegen, kernel
/// specialization and certificate sealing, repeating the whole set until
/// `budget` has passed (at least three rounds).
pub fn replay(
    session: &Session,
    docs: &[Document],
    budget: Duration,
) -> Result<StageCosts, NscError> {
    let kb = session.kb();
    let mut ns = [0u128; 6];
    let (mut calls, mut rounds) = (0u32, 0u32);
    let (mut specialized, mut instructions) = (0usize, 0usize);
    let start = Instant::now();
    while rounds < 3 || start.elapsed() < budget {
        for doc in docs {
            let mut d = doc.clone();
            let t0 = Instant::now();
            session.auto_bind(&mut d)?;
            let t1 = Instant::now();
            let (digest, shape) = (black_box(d.digest()), black_box(d.shape_digest()));
            let t2 = Instant::now();
            black_box(session.check(&d)?);
            let t3 = Instant::now();
            let output = nsc_codegen::generate_prechecked(kb, &d)?;
            let t4 = Instant::now();
            let kernel = CompiledKernel::compile(kb, &output.program);
            let t5 = Instant::now();
            let path = CompilePath::Full;
            black_box(build_certificate(kb.config(), digest, shape, path, &output, Some(&kernel)));
            let t6 = Instant::now();
            for (slot, (a, b)) in
                ns.iter_mut().zip([(t0, t1), (t1, t2), (t2, t3), (t3, t4), (t4, t5), (t5, t6)])
            {
                *slot += (b - a).as_nanos();
            }
            calls += 1;
            if rounds == 0 {
                specialized += kernel.specialized();
                instructions += kernel.instructions();
            }
        }
        rounds += 1;
    }
    let us = |i: usize| ns[i] as f64 / 1e3 / f64::from(calls.max(1));
    Ok(StageCosts {
        bind_us: us(0),
        digest_us: us(1),
        check_us: us(2),
        codegen_us: us(3),
        specialize_us: us(4),
        seal_us: us(5),
        specialized_frac: specialized as f64 / instructions.max(1) as f64,
        documents: docs.len(),
    })
}
