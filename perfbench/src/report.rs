//! Output formats: JSON objects and the markdown layer table.

use crate::trace::Profile;
use serde::Value;
use std::fmt::Write as _;

/// A JSON object from `(key, value)` pairs, in order.
pub fn obj<'a>(fields: impl IntoIterator<Item = (&'a str, Value)>) -> Value {
    Value::Object(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// One row of the layer table: the span it reads, the module it covers
/// and the end-to-end metric (on which workload) it should move.
pub struct Layer {
    pub span: &'static str,
    pub module: &'static str,
    pub feeds: &'static str,
}

/// Every layer the traced path times, in table order.
pub const LAYERS: &[Layer] = &[
    Layer {
        span: "compile",
        module: "nsc-core::session, nsc-checker, nsc-codegen, nsc-sim::kernel, nsc-core::certify",
        feeds: "wall_s, members_per_s (ensemble); setup_s (jacobi3d, cavity)",
    },
    Layer {
        span: "stage.scatter",
        module: "nsc-cfd::partition scatter, load_problem, nsc-sim::memory",
        feeds: "wall_s, host_mflops (jacobi3d); peak_rss_mb",
    },
    Layer {
        span: "stage.gather",
        module: "nsc-cfd::partition read_slabs + gather, nsc-sim::memory",
        feeds: "wall_s, host_mflops (jacobi3d); peak_rss_mb",
    },
    Layer {
        span: "exec",
        module: "run_compiled_on_pool, run_compiled_phased, nsc-sim::kernel/exec",
        feeds: "host_mflops (jacobi3d); wall_s (cavity)",
    },
    Layer { span: "halo", module: "Partition::halo_exchange", feeds: "wall_s (jacobi3d, cavity)" },
    Layer { span: "reduce", module: "NscSystem::pool_max_cache_scalar", feeds: "wall_s (cavity)" },
    Layer {
        span: "solver",
        module: "Poisson2dSolver::solve, pair loop (self time)",
        feeds: "wall_s (cavity)",
    },
    Layer {
        span: "transport",
        module: "VorticityTransport::step (self time)",
        feeds: "wall_s (cavity)",
    },
    Layer {
        span: "park",
        module: "MachinePark::run admit, lease, retire (self time)",
        feeds: "members_per_s (ensemble)",
    },
    Layer {
        span: "park.payload",
        module: "member payloads on lease threads (summed, concurrent)",
        feeds: "members_per_s (ensemble)",
    },
    Layer { span: "audit", module: "nsc_cert::verify", feeds: "members_per_s (ensemble)" },
];

/// The markdown layer table of a run's traced iterations: per layer the
/// mean self time per iteration, its share of `wall_s` (the mean traced
/// wall-clock per iteration), calls, self time per call and the
/// end-to-end metric it feeds. The `hidden` layers, which the workload
/// runs only inside its park payloads, are labelled so, never estimated.
pub fn layer_table(profiles: &[Profile], wall_s: f64, hidden: &[&str]) -> String {
    let n = profiles.len().max(1) as f64;
    let mut md = String::from(
        "| layer | module | self ms/iter | share | calls/iter | self µs/call | feeds |\n\
         |---|---|---:|---:|---:|---:|---|\n",
    );
    for l in LAYERS {
        let (calls, self_ns) = profiles.iter().fold((0u64, 0u64), |(c, s), p| {
            let st = p.layer(l.span);
            (c + st.calls, s + st.self_ns)
        });
        if calls == 0 {
            let why =
                if hidden.contains(&l.span) { "inside park.payload" } else { "not exercised" };
            let _ = writeln!(md, "| {} | {} | {why} | | | | {} |", l.span, l.module, l.feeds);
            continue;
        }
        let self_s = self_ns as f64 * 1e-9 / n;
        let _ = writeln!(
            md,
            "| {} | {} | {:.3} | {:.1}% | {:.1} | {:.2} | {} |",
            l.span,
            l.module,
            self_s * 1e3,
            100.0 * self_s / wall_s,
            calls as f64 / n,
            self_ns as f64 * 1e-3 / calls as f64,
            l.feeds
        );
    }
    let top_s = profiles.iter().map(|p| p.top_ns as f64 * 1e-9).sum::<f64>() / n;
    let glue = (wall_s - top_s).max(0.0);
    let _ = writeln!(
        md,
        "| (outside spans) | benchmark glue | {:.3} | {:.1}% | | | trace.coverage |",
        glue * 1e3,
        100.0 * glue / wall_s
    );
    md
}
