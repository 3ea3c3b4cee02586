//! The pool driver: `Session::run_batch`, `run_compiled_on_pool` and
//! `run_compiled_phased` executing compiled documents across a pool of
//! nodes, with per-run reports, aggregated counters, lane-indexed
//! failures and typed errors for malformed pools.

use nsc::arch::{HypercubeConfig, NodeId, PlaneId};
use nsc::diagram::Document;
use nsc::env::{run_compiled_on_pool, run_compiled_phased, CompiledProgram, NscError, Session};
use nsc::sim::{NscSystem, PerfCounters, RunOptions};

mod common;
use common::scale_doc;

#[test]
fn five_documents_run_across_two_nodes_in_one_call() {
    let session = Session::nsc_1988();
    // Document i multiplies by (i+1) and writes to its own address.
    let mut docs: Vec<Document> =
        (0..5).map(|i| scale_doc((i + 1) as f64, 100 * i as u64)).collect();
    let mut nodes = vec![session.node(), session.node()];
    for node in &mut nodes {
        node.mem.plane_mut(PlaneId(0)).write_slice(0, &[1.0, 2.0, 3.0]);
    }

    let report = session.run_batch(&mut docs, &mut nodes, &RunOptions::default()).expect("batch");

    assert_eq!(report.runs.len(), 5, "one report per document, in order");
    assert_eq!(report.nodes_used, 2);
    // Round-robin: document i ran on node i % 2; its output is at its own
    // address on that node's plane 1.
    for i in 0..5u64 {
        let k = (i + 1) as f64;
        let plane = nodes[(i % 2) as usize].mem.plane(PlaneId(1));
        assert_eq!(plane.read_vec(100 * i, 3), vec![k, 2.0 * k, 3.0 * k], "document {i} output");
    }
    // Aggregation: work sums across all five runs; elapsed cycles are the
    // busiest node's sequential total, which is less than the grand sum.
    assert_eq!(report.total.instructions, 5);
    let work_sum: u64 = report.runs.iter().map(|r| r.counters.flops).sum();
    assert_eq!(report.total.flops, work_sum);
    let cycle_sum: u64 = report.runs.iter().map(|r| r.counters.cycles).sum();
    assert!(report.total.cycles < cycle_sum, "parallel nodes overlap in time");
    assert!(report.runs.iter().all(|r| r.counters.cycles > 0));
    assert!(report.mflops(session.kb().config().clock_hz) > 0.0);
}

#[test]
fn a_failing_document_aborts_the_batch_with_its_index() {
    let session = Session::nsc_1988();
    let mut docs = vec![scale_doc(1.0, 0), scale_doc(2.0, 100), Document::new("empty")];
    let mut nodes = vec![session.node(), session.node()];
    let err = session.run_batch(&mut docs, &mut nodes, &RunOptions::default()).unwrap_err();
    let NscError::Batch { doc, ref source } = err else {
        panic!("expected Batch, got {err:?}");
    };
    assert_eq!(doc, 2, "the empty document is the culprit");
    assert!(matches!(**source, NscError::Gen(_)));
}

#[test]
fn a_runtime_failure_reports_the_lowest_failing_document() {
    let session = Session::nsc_1988();
    let mut docs: Vec<Document> = (0..4).map(|i| scale_doc(1.0, 100 * i as u64)).collect();
    // One node makes the failure order deterministic: its queue runs in
    // submission order, document 0 trips the zero instruction budget, and
    // the cancellation skips the other three.
    let mut nodes = vec![session.node()];
    let opts = RunOptions { max_instructions: 0, ..Default::default() };
    let err = session.run_batch(&mut docs, &mut nodes, &opts).unwrap_err();
    let NscError::Batch { doc, ref source } = err else {
        panic!("expected Batch, got {err:?}");
    };
    assert_eq!(doc, 0);
    assert!(matches!(**source, NscError::MaxInstructions { .. }));
    assert_eq!(nodes[0].counters.instructions, 0, "nothing ran to completion");
}

#[test]
fn empty_inputs_are_handled_without_threads() {
    let session = Session::nsc_1988();
    let report = session
        .run_batch(&mut [], &mut [session.node()], &RunOptions::default())
        .expect("empty batch");
    assert!(report.runs.is_empty());
    assert_eq!(report.nodes_used, 0);

    let mut docs = vec![scale_doc(1.0, 0)];
    let err = session.run_batch(&mut docs, &mut [], &RunOptions::default()).unwrap_err();
    assert!(matches!(err, NscError::EmptyPool));
}

#[test]
fn an_explicit_pool_drives_only_its_own_nodes() {
    // The per-embedding shape: four nodes, a pool naming nodes 2 and 1 (in
    // that order) — program i runs on pool[i], the other nodes stay idle.
    let session = Session::nsc_1988();
    let compiled: Vec<_> = (0..2)
        .map(|i| {
            let mut doc = scale_doc((i + 2) as f64, 0);
            session.compile(&mut doc).expect("compiles")
        })
        .collect();
    let programs: Vec<_> = compiled.iter().collect();
    let mut nodes: Vec<_> = (0..4).map(|_| session.node()).collect();
    for node in &mut nodes {
        node.mem.plane_mut(PlaneId(0)).write_slice(0, &[1.0, 1.0, 1.0]);
    }
    let report =
        run_compiled_on_pool(&programs, &mut nodes, &[2, 1], &RunOptions::default()).expect("pool");
    assert_eq!(report.runs.len(), 2);
    assert_eq!(report.nodes_used, 2);
    assert_eq!(nodes[2].mem.plane(PlaneId(1)).read_vec(0, 3), vec![2.0, 2.0, 2.0]);
    assert_eq!(nodes[1].mem.plane(PlaneId(1)).read_vec(0, 3), vec![3.0, 3.0, 3.0]);
    assert_eq!(nodes[0].counters.instructions, 0, "outside the pool");
    assert_eq!(nodes[3].counters.instructions, 0, "outside the pool");

    // An empty pool with work to do is an error.
    let err = run_compiled_on_pool(&programs, &mut nodes, &[], &RunOptions::default()).unwrap_err();
    assert!(matches!(err, NscError::EmptyPool));
}

#[test]
fn more_lanes_than_host_cores_match_each_queue_run_serially() {
    // 8 nodes and 16 programs: more lanes than a small host has cores, so
    // threads claim several lanes each. Every program writes the same
    // address, so a node's memory shows the order its queue ran in.
    let session = Session::nsc_1988();
    let compiled: Vec<_> = (0..16)
        .map(|i| session.compile(&mut scale_doc((i + 2) as f64, 0)).expect("compiles"))
        .collect();
    let programs: Vec<_> = compiled.iter().collect();
    let pool = [5, 2, 7, 0, 3, 6, 1, 4];
    let fresh = |node: usize| {
        let mut n = session.node();
        n.mem.plane_mut(PlaneId(0)).write_slice(0, &[node as f64, 1.0, -2.5]);
        n
    };
    let opts = RunOptions::default();
    let mut nodes: Vec<_> = (0..8).map(fresh).collect();
    let report = run_compiled_on_pool(&programs, &mut nodes, &pool, &opts).expect("pool");
    assert_eq!((report.runs.len(), report.nodes_used), (16, 8));

    for (lane, &n) in pool.iter().enumerate() {
        let mut serial = fresh(n);
        for prog in programs.iter().skip(lane).step_by(pool.len()) {
            prog.run(&mut serial, &opts).expect("runs");
        }
        let plane = |node: &nsc::sim::NodeSim| node.mem.plane(PlaneId(1)).read_vec(0, 3);
        assert_eq!(plane(&nodes[n]), plane(&serial), "node {n} memory");
        assert_eq!(nodes[n].counters, serial.counters, "node {n} counters");
    }
}

#[test]
fn a_pool_larger_than_the_batch_leaves_spare_nodes_idle() {
    let session = Session::nsc_1988();
    let mut docs = vec![scale_doc(3.0, 0), scale_doc(4.0, 0)];
    let mut nodes: Vec<_> = (0..4).map(|_| session.node()).collect();
    for node in &mut nodes {
        node.mem.plane_mut(PlaneId(0)).write_slice(0, &[1.0, 1.0, 1.0]);
    }
    let report = session.run_batch(&mut docs, &mut nodes, &RunOptions::default()).expect("batch");
    assert_eq!(report.runs.len(), 2);
    assert_eq!(report.nodes_used, 2);
    assert_eq!(nodes[2].counters.instructions, 0, "spare nodes untouched");
    assert_eq!(nodes[3].counters.instructions, 0);
}

#[test]
fn malformed_pools_are_typed_errors_and_run_nothing() {
    let session = Session::nsc_1988();
    let compiled = session.compile(&mut scale_doc(2.0, 0)).expect("compiles");
    let opts = RunOptions::default();
    let mut nodes = vec![session.node(), session.node()];

    let err = run_compiled_on_pool(&[&compiled], &mut nodes, &[0, 2], &opts).unwrap_err();
    assert_eq!(err, NscError::PoolNodeOutOfRange { node: 2, nodes: 2 });
    let err = run_compiled_on_pool(&[&compiled], &mut nodes, &[1, 1], &opts).unwrap_err();
    assert_eq!(err, NscError::PoolNodeRepeated { node: 1 });
    assert!(nodes.iter().all(|n| n.counters.instructions == 0), "nothing ran");

    let mut system = NscSystem::new(HypercubeConfig::new(1), session.kb());
    let lanes = [Some(&compiled), None];
    let err = run_compiled_phased(&mut system, &[0], &lanes, &[None], &opts, |_| {}).unwrap_err();
    assert_eq!(err, NscError::LaneCountMismatch { lanes: 1, programs: 2 });
    let err = run_compiled_phased(&mut system, &[0, 1], &lanes, &[None], &opts, |_| {});
    assert_eq!(err.unwrap_err(), NscError::LaneCountMismatch { lanes: 2, programs: 1 });
    let err = run_compiled_phased(&mut system, &[0, 5], &lanes, &lanes, &opts, |_| {});
    assert_eq!(err.unwrap_err(), NscError::PoolNodeOutOfRange { node: 5, nodes: 2 });
    let err = run_compiled_phased(&mut system, &[1, 1], &lanes, &lanes, &opts, |_| {});
    assert_eq!(err.unwrap_err(), NscError::PoolNodeRepeated { node: 1 });
    assert!(system.nodes().iter().all(|n| n.counters == PerfCounters::default()));
}

#[test]
fn the_phased_driver_reports_lanes_skips_idle_ones_and_hides_up_to_each_budget() {
    let session = Session::nsc_1988();
    let short = session.compile(&mut scale_doc(3.0, 0)).expect("compiles");
    let mut two_step = scale_doc(2.0, 0);
    two_step.copy_pipeline(two_step.pipelines()[0].id).expect("copied");
    let two_step = session.compile(&mut two_step).expect("compiles");
    let mut long = scale_doc(4.0, 0);
    let pid = long.pipelines()[0].id;
    long.pipeline_mut(pid).unwrap().stream_len = 4096;
    let long = session.compile(&mut long).expect("compiles");
    let opts = RunOptions::default();

    // A failure on lane 2, behind two empty lanes and under a permuted
    // pool, is reported as lane 2 — not as its rank among the lanes that
    // had work, nor as its node.
    let mut system = NscSystem::new(HypercubeConfig::new(2), session.kb());
    let one_instruction = RunOptions { max_instructions: 1, ..Default::default() };
    let interior = [None, None, Some(&two_step), Some(&short)];
    let err = run_compiled_phased(
        &mut system,
        &[3, 1, 0, 2],
        &interior,
        &[None; 4],
        &one_instruction,
        |_| {},
    )
    .unwrap_err();
    let NscError::Batch { doc, ref source } = err else {
        panic!("expected Batch, got {err:?}");
    };
    assert_eq!(doc, 2);
    assert!(matches!(**source, NscError::MaxInstructions { .. }));

    // Lane 1 has no program in either phase; the exchange moves one
    // message between the nodes of lanes 0 and 2 inside the window.
    let clock = session.kb().config().clock_hz;
    let budget = |p: &CompiledProgram| {
        let cycles = p.run(&mut session.node(), &opts).expect("runs").counters.cycles;
        (cycles as u128 * 1_000_000_000 / clock as u128) as u64
    };
    let (long_budget, short_budget) = (budget(&long), budget(&short));
    let mut system = NscSystem::new(HypercubeConfig::new(2), session.kb());
    let interior = [Some(&long), None, Some(&short), None];
    let shell = [Some(&short), None, None, Some(&short)];
    let mut charged = 0;
    let hidden = run_compiled_phased(&mut system, &[0, 1, 2, 3], &interior, &shell, &opts, |sys| {
        charged = sys.exchange(NodeId(0), PlaneId(1), 0, NodeId(2), PlaneId(2), 0, 64);
    })
    .expect("runs");
    assert!(short_budget < charged && charged < long_budget, "the message fills one budget only");
    assert_eq!(hidden, charged.min(long_budget) + charged.min(short_budget));
    assert_eq!(system.node(NodeId(0)).counters.comm_hidden_ns, charged);
    assert_eq!(system.node(NodeId(2)).counters.comm_hidden_ns, short_budget);
    assert_eq!(system.node(NodeId(1)).counters, PerfCounters::default(), "idle lane untouched");
    assert_eq!(system.node(NodeId(3)).counters.instructions, 1, "shell-only lane ran");
}
