//! perfbench: the host benchmark of the NSC stack.
//!
//! ```text
//! perfbench --workload <jacobi3d|cavity|ensemble> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One run sets the workload up several times (the median is `setup_s`),
//! computes an independent reference once, then runs a closed loop with
//! one client for `--seconds`: each iteration starts when the previous
//! one has finished, and its outputs are compared bit for bit with the
//! reference. The last line of standard output is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`. A results
//! file and a markdown layer table go to `perfbench/out/`.
//!
//! Untraced iterations call each workload's public entry point
//! (`Workload::execute`, `Sweep::run`). Traced iterations make the same
//! lower-level public calls themselves, each inside a span, and must
//! produce bit-identical outputs; `--trace 1` alternates the two kinds so
//! the tracing overhead is measured under the same conditions. See
//! `perfbench/README.md` for the metrics and the layer map.

mod cavity;
mod ensemble;
mod jacobi3d;
mod mirror;
mod outcome;
mod replay;
mod report;
mod stats;
mod trace;

use nsc_core::{NscError, Session};
use nsc_diagram::Document;
use outcome::{Fingerprint, Outcome, SimFigures};
use replay::StageCosts;
use serde::Value;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};
use trace::{Profile, Tracer};

/// A benchmark workload over the NSC stack.
pub trait Bench {
    /// The session every compile goes through.
    fn session(&self) -> &Session;
    /// Compute the independent reference, once, outside any timed region.
    fn prepare_reference(&mut self) -> Result<(), NscError>;
    /// One failure description per member whose output differs from the
    /// reference (or that errored).
    fn check(&self, out: &Outcome) -> Vec<String>;
    /// One iteration through the workload's public entry point.
    fn run(&mut self) -> Result<Outcome, NscError>;
    /// One iteration through the same lower-level public calls, each
    /// inside a span.
    fn run_traced(&mut self, tr: &Arc<Tracer>) -> Result<Outcome, NscError>;
    /// The documents the workload's document functions produce, for the
    /// compile-stage replay.
    fn replay_documents(&self) -> Vec<Document>;
    /// Members one iteration attempts.
    fn members(&self) -> u64 {
        1
    }
    /// Prepare the next iteration, outside the timed region.
    fn next_iteration(&mut self) {}
    /// Layers this workload runs only inside its park payloads, out of
    /// the traced path's reach; the layer table labels them.
    fn hidden_layers(&self) -> &'static [&'static str] {
        &[]
    }
}

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 11;
/// Iterations a run makes even when `--seconds` has already passed.
const MIN_ITERATIONS: usize = 3;
/// Samples the tail percentile keeps beyond it.
const TAIL_BEYOND: usize = 10;
/// Host time the compile-stage replay spends per traced run.
const REPLAY_BUDGET: Duration = Duration::from_millis(500);
/// Where results files and layer tables go, relative to the checkout.
const OUT_DIR: &str = "perfbench/out";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args { workload: String::new(), seed: 0, seconds: 10.0, trace: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} wants a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => args.trace = value != "0",
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(args)
}

/// Counts across a run: attempts, failures and the fingerprint every
/// iteration must repeat.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    fingerprint: Option<Fingerprint>,
    /// Whether any traced iteration's fingerprint was seen.
    traced_seen: bool,
    consistent: bool,
    /// Simulated flops and members of the timed untraced iterations.
    flops: u64,
    members_done: u64,
}

impl Tally {
    /// Account one iteration; returns its outcome when it ran, with the
    /// number of members that completed correctly.
    fn record<B: Bench>(
        &mut self,
        bench: &B,
        run: Result<Outcome, NscError>,
        traced: bool,
    ) -> Option<(Outcome, u64)> {
        let members = bench.members();
        self.attempted += members;
        let out = match run {
            Ok(out) => out,
            Err(e) => {
                self.failed += members;
                self.note(format!("iteration failed: {e}"));
                return None;
            }
        };
        let fails = bench.check(&out);
        let done = members.saturating_sub(fails.len() as u64);
        self.failed += members - done;
        fails.into_iter().for_each(|f| self.note(f));
        let fp = out.fingerprint();
        match &mut self.fingerprint {
            None => {
                self.fingerprint = Some(fp);
                self.consistent = true;
            }
            Some(first) if first.agrees(&fp) => {
                first.halo_words = first.halo_words.or(fp.halo_words);
            }
            Some(first) => {
                self.consistent = false;
                let msg = format!("fingerprint {fp:?} differs from the first {first:?}");
                self.note(msg);
            }
        }
        self.traced_seen |= traced;
        Some((out, done))
    }

    fn note(&mut self, failure: String) {
        if self.failures.len() < 20 {
            eprintln!("perfbench: {failure}");
            self.failures.push(failure);
        }
    }
}

/// One traced iteration's record (zero figures if it failed).
#[derive(Default)]
struct TracedSample {
    wall: f64,
    profile: Profile,
    /// Compile-cache hits, rebinds and misses during the iteration.
    cache: [u64; 3],
    sim: SimFigures,
    pairs: u64,
    resident_pages: u64,
}

fn traced_iteration<B: Bench>(bench: &mut B, tally: &mut Tally) -> TracedSample {
    let tr = Arc::new(Tracer::new());
    let before = bench.session().cache_stats();
    let start = Instant::now();
    let run = bench.run_traced(&tr);
    let wall = start.elapsed().as_secs_f64();
    let after = bench.session().cache_stats();
    let cache =
        [after.hits - before.hits, after.rebinds - before.rebinds, after.misses - before.misses];
    let mut sample = TracedSample { wall, profile: tr.profile(), cache, ..TracedSample::default() };
    if let Some((out, _)) = tally.record(bench, run, true) {
        (sample.sim, sample.pairs, sample.resident_pages) =
            (out.sim, out.pairs, out.resident_pages);
    }
    sample
}

/// The end-to-end metrics of a run: set-up times, untraced iteration
/// times, the run's tally and its simulated seconds per iteration.
fn end_to_end(
    setup_s: &[f64],
    walls: &[f64],
    tally: &Tally,
    sim_s: f64,
) -> Vec<(&'static str, f64)> {
    let host_s: f64 = walls.iter().sum();
    vec![
        ("setup_s", stats::median(setup_s)),
        ("wall_s", stats::median(walls)),
        ("wall_s_tail", stats::tail(walls, TAIL_BEYOND).1),
        ("host_mflops", tally.flops as f64 / host_s / 1e6),
        ("members_per_s", tally.members_done as f64 / host_s),
        ("sim_s", sim_s),
        ("ok_frac", 1.0 - tally.failed as f64 / tally.attempted.max(1) as f64),
        ("peak_rss_mb", stats::peak_rss_mb()),
    ]
}

/// The per-layer metrics of one traced iteration.
fn layer_metrics(s: &TracedSample, replay: &StageCosts) -> Vec<(&'static str, f64)> {
    let p = &s.profile;
    let secs = |name: &str| p.layer(name).self_ns as f64 * 1e-9;
    let total = |name: &str| p.layer(name).total_ns as f64 * 1e-9;
    let calls = |name: &str| p.layer(name).calls as f64;
    let count = |name: &str| p.count(name) as f64;
    let rate = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let per_call_us = |name: &str| rate(secs(name) * 1e6, calls(name));
    let sim = s.sim;
    let [hits, rebinds, misses] = s.cache.map(|c| c as f64);
    let stage_s = secs("stage.scatter") + secs("stage.gather");
    let (run_s, payload_s) = (total("park"), total("park.payload"));
    vec![
        ("compile.s", secs("compile")),
        ("compile.calls", hits + rebinds + misses),
        ("compile.hits", hits),
        ("compile.rebinds", rebinds),
        ("compile.misses", misses),
        ("compile.bind_us", replay.bind_us),
        ("compile.digest_us", replay.digest_us),
        ("compile.check_us", replay.check_us),
        ("compile.codegen_us", replay.codegen_us),
        ("compile.specialize_us", replay.specialize_us),
        ("compile.seal_us", replay.seal_us),
        ("kernel.specialized_frac", replay.specialized_frac),
        ("stage.scatter_s", secs("stage.scatter")),
        ("stage.gather_s", secs("stage.gather")),
        ("stage.words", count("stage.words")),
        ("stage.gbps", rate(count("stage.words") * 8.0, stage_s) / 1e9),
        ("mem.resident_pages", s.resident_pages as f64),
        ("exec.s", secs("exec")),
        ("exec.calls", calls("exec")),
        ("exec.us_per_call", per_call_us("exec")),
        ("exec.flops", count("exec.flops")),
        ("exec.host_mflops", rate(count("exec.flops"), secs("exec")) / 1e6),
        ("halo.s", secs("halo")),
        ("halo.calls", calls("halo")),
        ("halo.us_per_call", per_call_us("halo")),
        ("halo.words", count("halo.words")),
        ("reduce.s", secs("reduce")),
        ("reduce.calls", calls("reduce")),
        ("solver.pairs", s.pairs as f64),
        ("solver.solve_s", total("solver")),
        ("transport.s", total("transport")),
        ("park.run_s", run_s),
        ("park.payload_s", payload_s),
        ("park.serial_s", secs("park")),
        ("park.busy_frac", rate(payload_s, run_s * count("park.leases"))),
        ("park.jobs", count("park.jobs")),
        ("audit.s", total("audit")),
        ("audit.certs", count("audit.certs")),
        ("audit.obligations", count("audit.obligations")),
        ("audit.certs_per_s", rate(count("audit.certs"), total("audit"))),
        ("sim.compute_s", sim.compute_s),
        ("sim.comm_s", sim.comm_s),
        ("sim.hidden_s", sim.hidden_s),
        ("sim.flops", sim.flops as f64),
        ("trace.coverage", rate(p.top_ns as f64 * 1e-9, s.wall)),
    ]
}

/// Units of the metrics, by name prefix and suffix.
fn unit(name: &str) -> &'static str {
    match name {
        "setup_s" | "wall_s" | "wall_s_tail" => "s",
        "host_mflops" => "MFLOP/s",
        "members_per_s" => "1/s",
        "sim_s" => "sim_s",
        "ok_frac" => "ratio",
        "peak_rss_mb" => "MB",
        n if n.starts_with("sim.") && n.ends_with("_s") => "sim_s",
        n if n.ends_with("_us") || n.ends_with("us_per_call") => "us",
        n if n.ends_with("per_s") => "1/s",
        n if n.ends_with(".s") || n.ends_with("_s") => "s",
        n if n.ends_with("_frac") || n.starts_with("trace.") => "ratio",
        n if n.ends_with("gbps") => "GB/s",
        n if n.ends_with("mflops") => "MFLOP/s",
        n if n.ends_with("words") => "words",
        n if n.ends_with("pages") => "pages",
        n if n.ends_with("flops") => "flop",
        _ => "count",
    }
}

fn json(value: &Value) -> String {
    serde_json::to_string(value).expect("a JSON value always serializes")
}

fn metric_json(metrics: &[(&'static str, f64)]) -> Value {
    report::obj(metrics.iter().map(|&(name, value)| {
        (
            name,
            report::obj([("value", Value::Float(value)), ("unit", Value::Str(unit(name).into()))]),
        )
    }))
}

fn measure<B: Bench>(
    args: &Args,
    setup: impl Fn(u64) -> Result<B, NscError>,
) -> Result<String, String> {
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut bench = None;
    for _ in 0..SETUPS {
        drop(bench.take());
        let start = Instant::now();
        bench = Some(setup(args.seed).map_err(|e| format!("set-up failed: {e}"))?);
        setup_s.push(start.elapsed().as_secs_f64());
    }
    let mut bench = bench.expect("at least one set-up");
    bench.prepare_reference().map_err(|e| format!("reference run failed: {e}"))?;
    let replay = if args.trace {
        replay::replay(bench.session(), &bench.replay_documents(), REPLAY_BUDGET)
            .map_err(|e| format!("compile replay failed: {e}"))?
    } else {
        StageCosts::default()
    };

    let mut tally = Tally::default();
    let (mut walls, mut traced) = (Vec::new(), Vec::new());
    let budget = Duration::from_secs_f64(args.seconds);
    let start = Instant::now();
    while start.elapsed() < budget || walls.len() < MIN_ITERATIONS {
        if args.trace && walls.len() > traced.len() {
            traced.push(traced_iteration(&mut bench, &mut tally));
        } else {
            let t = Instant::now();
            let run = bench.run();
            walls.push(t.elapsed().as_secs_f64());
            if let Some((out, done)) = tally.record(&bench, run, false) {
                tally.flops += out.sim.flops;
                tally.members_done += done;
            }
        }
        bench.next_iteration();
    }
    if !args.trace {
        // Outside the timed loop: one traced iteration completes the
        // fingerprint (halo words) and checks traced ≡ untraced.
        traced.push(traced_iteration(&mut bench, &mut tally));
    }
    if !tally.traced_seen {
        tally.consistent = false;
        tally.note("no traced iteration completed".into());
    }

    let wall_s = stats::median(&walls);
    let (tail_pct, _, tail_beyond) = stats::tail(&walls, TAIL_BEYOND);
    let host_s: f64 = walls.iter().sum();
    let fp = tally.fingerprint.unwrap_or_default();
    let end_to_end = end_to_end(&setup_s, &walls, &tally, f64::from_bits(fp.sim_s_bits));
    let traced_wall = stats::median(&traced.iter().map(|s| s.wall).collect::<Vec<_>>());
    let mut per_layer: Vec<(&'static str, f64)> = Vec::new();
    let samples: Vec<Vec<(&'static str, f64)>> =
        traced.iter().map(|s| layer_metrics(s, &replay)).collect();
    if let Some(first) = samples.first() {
        for (i, &(name, _)) in first.iter().enumerate() {
            per_layer
                .push((name, stats::median(&samples.iter().map(|m| m[i].1).collect::<Vec<_>>())));
        }
    }
    per_layer.push(("trace.overhead", (traced_wall - wall_s) / wall_s));

    let correct = tally.failed == 0 && tally.consistent;
    let profiles: Vec<Profile> = traced.iter().map(|s| s.profile.clone()).collect();
    let traced_mean = traced.iter().map(|s| s.wall).sum::<f64>() / traced.len().max(1) as f64;
    let table = report::layer_table(&profiles, traced_mean, bench.hidden_layers());
    let summary = format!(
        "## perfbench `{}` seed {} (trace {})\n\n\
         {} untraced iterations in {:.1} s; wall_s_tail is p{tail_pct} with {tail_beyond} of {} \
         samples beyond it. {} traced iterations, median {:.4} s.\n\n\
         Fingerprint: {fp:?}\n\n{table}",
        args.workload,
        args.seed,
        u8::from(args.trace),
        walls.len(),
        host_s,
        walls.len(),
        traced.len(),
        traced_wall,
    );
    eprintln!("{summary}");
    let results = report::obj([
        ("workload", Value::Str(args.workload.clone())),
        ("seed", Value::UInt(args.seed)),
        ("trace", Value::Bool(args.trace)),
        ("correct", Value::Bool(correct)),
        ("attempted", Value::UInt(tally.attempted)),
        ("failed", Value::UInt(tally.failed)),
        ("failed_frac", Value::Float(tally.failed as f64 / tally.attempted.max(1) as f64)),
        ("failures", Value::Array(tally.failures.iter().cloned().map(Value::Str).collect())),
        ("end_to_end", metric_json(&end_to_end)),
        ("per_layer", metric_json(&per_layer)),
        (
            "wall_s_tail",
            report::obj([
                ("percentile", Value::UInt(u64::from(tail_pct))),
                ("samples", Value::UInt(walls.len() as u64)),
                ("beyond", Value::UInt(tail_beyond as u64)),
            ]),
        ),
        (
            "fingerprint",
            report::obj([
                ("sim.flops", Value::UInt(fp.flops)),
                ("sim_s_bits", Value::Str(format!("{:016x}", fp.sim_s_bits))),
                ("solver.pairs", Value::UInt(fp.pairs)),
                ("halo.words", Value::UInt(fp.halo_words.unwrap_or(0))),
                ("certs", Value::UInt(fp.certs)),
                ("checksum", Value::Str(format!("{:016x}", fp.checksum))),
            ]),
        ),
        ("replay_documents", Value::UInt(replay.documents as u64)),
        ("setup_samples_s", Value::Array(setup_s.iter().map(|&s| Value::Float(s)).collect())),
        ("wall_samples_s", Value::Array(walls.iter().map(|&s| Value::Float(s)).collect())),
    ]);
    let stem =
        format!("{OUT_DIR}/{}-seed{}-trace{}", args.workload, args.seed, u8::from(args.trace));
    std::fs::create_dir_all(OUT_DIR)
        .and_then(|()| std::fs::write(format!("{stem}.json"), json(&results) + "\n"))
        .and_then(|()| std::fs::write(format!("{stem}.md"), summary))
        .map_err(|e| format!("cannot write {stem}.*: {e}"))?;

    let metrics = if args.trace { per_layer } else { end_to_end };
    let line = report::obj([
        ("correct", Value::Bool(correct)),
        ("attempted", Value::UInt(tally.attempted)),
        ("failed", Value::UInt(tally.failed)),
        ("metrics", metric_json(&metrics)),
    ]);
    Ok(json(&line))
}

fn main() -> ExitCode {
    let result = parse_args().and_then(|args| match args.workload.as_str() {
        "jacobi3d" => measure(&args, jacobi3d::Jacobi3d::setup),
        "cavity" => measure(&args, cavity::Cavity::setup),
        "ensemble" => measure(&args, ensemble::Ensemble::setup),
        other => Err(format!("unknown workload '{other}' (jacobi3d, cavity, ensemble)")),
    });
    match result {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repository root names exactly the metrics
    /// this program prints, with the units it prints them in.
    #[test]
    fn benchmark_json_lists_every_printed_metric() {
        let spec = include_str!("../../BENCHMARK.json");
        let sample = TracedSample { wall: 1.0, ..TracedSample::default() };
        let mut names: Vec<&str> =
            end_to_end(&[], &[], &Tally::default(), 0.0).iter().map(|m| m.0).collect();
        names.extend(layer_metrics(&sample, &StageCosts::default()).iter().map(|m| m.0));
        names.push("trace.overhead");
        for name in &names {
            let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{}\"", unit(name));
            assert!(spec.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let workloads = ["jacobi3d", "cavity", "ensemble"];
        assert_eq!(spec.matches("{\"name\": ").count(), names.len() + workloads.len());
        for w in workloads {
            assert!(spec.contains(&format!("{{\"name\": \"{w}\", \"why\": ")), "{w}");
        }
    }
}
