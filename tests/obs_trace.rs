//! Observability invariants: whatever graph we execute, the profile and the
//! exported Chrome/Perfetto trace must be internally consistent.
//!
//! Properties (random layered DAGs × random batch sizes):
//! - spans on every `(pid, tid)` track are well-nested (checked by the
//!   exporter's own validator),
//! - every scheduled node appears exactly `batch` times in the profile,
//! - per worker, busy time + recorded slack never exceeds the worker's wall
//!   span.
//!
//! Plus a golden end-to-end test: compile + four executor lanes onto one
//! trace, which must parse and reference only declared pids/tids.

use proptest::prelude::*;
use ramiel::obs::{validate_chrome_trace, Obs};
use ramiel_cluster::{cluster_graph, hypercluster, switched_hypercluster, StaticCost};
use ramiel_models::synthetic;
use ramiel_runtime::{run, synth_inputs, ProfileDb, RunOptions};
use ramiel_tensor::ExecCtx;

fn graph_strategy() -> impl Strategy<Value = ramiel_ir::Graph> {
    (any::<u64>(), 1usize..5, 1usize..4, 1usize..3).prop_map(|(seed, layers, width, lookback)| {
        synthetic::layered_random(seed, layers, width, lookback)
    })
}

fn profiled_hyper_run(g: &ramiel_ir::Graph, batch: usize, switched: bool, obs: &Obs) -> ProfileDb {
    let clustering = cluster_graph(g, &StaticCost);
    let hc = if switched {
        switched_hypercluster(&clustering, batch)
    } else {
        hypercluster(&clustering, batch)
    };
    let inputs: Vec<_> = (0..batch).map(|b| synth_inputs(g, b as u64)).collect();
    let opts = RunOptions::default().obs(obs.clone()).profile(true);
    let r = run(g, &hc, &inputs, &ExecCtx::sequential(), &opts);
    r.outputs.expect("hyper run succeeds");
    r.profile.expect("profiled run")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn every_node_appears_exactly_batch_times(
        g in graph_strategy(),
        batch in 1usize..4,
        switched in any::<bool>(),
    ) {
        let db = profiled_hyper_run(&g, batch, switched, &Obs::disabled());
        let mut seen = vec![0usize; g.num_nodes()];
        for r in db.records() {
            prop_assert!(r.node < g.num_nodes(), "record names unknown node {}", r.node);
            seen[r.node] += 1;
        }
        for (node, &count) in seen.iter().enumerate() {
            prop_assert_eq!(
                count, batch,
                "node {} recorded {} times, want batch {}", node, count, batch
            );
        }
    }

    #[test]
    fn busy_plus_slack_fits_in_the_worker_wall_span(
        g in graph_strategy(),
        batch in 1usize..4,
    ) {
        let db = profiled_hyper_run(&g, batch, false, &Obs::disabled());
        prop_assert_eq!(db.worker_spans().len(), db.workers());
        for span in db.worker_spans() {
            let wall = span.end_ns.saturating_sub(span.start_ns);
            let (mut busy, mut slack) = (0u64, 0u64);
            for r in db.records().iter().filter(|r| r.worker == span.worker) {
                prop_assert!(
                    r.start_ns >= span.start_ns && r.end_ns <= span.end_ns,
                    "op record [{}, {}] escapes worker {} span [{}, {}]",
                    r.start_ns, r.end_ns, span.worker, span.start_ns, span.end_ns
                );
                busy += r.end_ns.saturating_sub(r.start_ns);
                slack += r.slack_after_ns;
            }
            prop_assert!(
                busy + slack <= wall,
                "worker {}: busy {} + slack {} exceeds wall {}",
                span.worker, busy, slack, wall
            );
        }
    }

    #[test]
    fn exported_trace_is_well_nested_and_valid(
        g in graph_strategy(),
        batch in 1usize..3,
    ) {
        let obs = Obs::enabled();
        obs.name_process("hyper executor");
        let db = profiled_hyper_run(&g, batch, false, &obs);
        db.export_to_obs(&obs, &g);
        let stats = validate_chrome_trace(&obs.to_chrome_trace())
            .expect("trace must validate (well-nesting included)");
        // one span per op record, plus any slack slices the exporter adds
        prop_assert!(stats.complete_spans >= db.records().len());
    }
}

/// Golden path: compile stages + the sequential executor and two
/// channel-engine lanes (batch 1, hypercluster) merged onto one trace.
#[test]
fn full_profile_trace_parses_and_references_valid_tracks() {
    use ramiel::models::{build, ModelConfig, ModelKind};
    use ramiel::{schedule, PipelineOptions};
    use ramiel_runtime::run_sequential_profiled;

    let obs = Obs::enabled();
    obs.with_pid(1).name_process("compile pipeline");
    obs.with_pid(2).name_process("sequential executor");
    obs.with_pid(3).name_process("parallel executor");
    obs.with_pid(4).name_process("hypercluster executor");

    let g = build(ModelKind::Squeezenet, &ModelConfig::tiny());
    let opts = PipelineOptions {
        obs: obs.with_pid(1),
        ..Default::default()
    };
    let c = schedule(g, &opts).unwrap();
    c.emit(&opts.obs);
    let ctx = ExecCtx::sequential();
    let inputs = synth_inputs(&c.graph, 42);

    let (_, seq_db) = run_sequential_profiled(
        &c.graph,
        &inputs,
        &ctx,
        &RunOptions::default().obs(obs.with_pid(2)),
    )
    .unwrap();
    seq_db.export_to_obs(&obs.with_pid(2), &c.graph);

    let par_db = run(
        &c.graph,
        &c.clustering,
        std::slice::from_ref(&inputs),
        &ctx,
        &RunOptions::default().obs(obs.with_pid(3)).profile(true),
    )
    .profile
    .unwrap();
    par_db.export_to_obs(&obs.with_pid(3), &c.graph);

    let hc = hypercluster(&c.clustering, 2);
    let batch_inputs = vec![synth_inputs(&c.graph, 1), synth_inputs(&c.graph, 2)];
    let hyper_db = run(
        &c.graph,
        &hc,
        &batch_inputs,
        &ctx,
        &RunOptions::default().obs(obs.with_pid(4)).profile(true),
    )
    .profile
    .unwrap();
    hyper_db.export_to_obs(&obs.with_pid(4), &c.graph);

    let trace = obs.to_chrome_trace();
    let stats = validate_chrome_trace(&trace).expect("merged trace validates");
    assert!(stats.complete_spans > 0, "no spans in trace");
    assert!(stats.metadata > 0, "no track metadata in trace");
    assert!(
        stats.named_processes >= 4,
        "expected all four processes named, got {}",
        stats.named_processes
    );

    // Every executor's op records made it in: each executed node appears in
    // the JSON by name at least once per executor process.
    let n0 = &c.graph.nodes[0].name;
    assert!(
        trace.contains(n0.as_str()),
        "node `{n0}` missing from trace"
    );
}

/// `schedule` (and `prepare`, which runs it) stops at the schedule: its
/// trace has the clustering stages and no `codegen` span; `emit` adds
/// exactly that one.
#[test]
fn only_emit_records_a_codegen_span() {
    use ramiel::models::{build, ModelConfig, ModelKind};
    use ramiel::{prepare, schedule, PipelineOptions};

    let stage_names = |obs: &Obs| -> Vec<String> {
        obs.events()
            .iter()
            .filter(|e| e.cat == "compile")
            .map(|e| e.name.clone())
            .collect()
    };
    let g = build(ModelKind::Squeezenet, &ModelConfig::tiny());

    let traced = || PipelineOptions {
        obs: Obs::enabled(),
        ..Default::default()
    };

    let opts = traced();
    let s = schedule(g.clone(), &opts).unwrap();
    let scheduled = stage_names(&opts.obs);
    assert!(scheduled.iter().any(|n| n == "linear clustering"));
    assert!(!scheduled.iter().any(|n| n == "codegen"), "{scheduled:?}");
    s.emit(&opts.obs);
    let mut emitted = stage_names(&opts.obs);
    assert_eq!(emitted.iter().filter(|n| *n == "codegen").count(), 1);
    emitted.retain(|n| n != "codegen");
    assert_eq!(emitted, scheduled);

    let opts = traced();
    prepare(g, &opts).unwrap();
    assert_eq!(stage_names(&opts.obs), scheduled);
}

/// Injected faults surface as structured instant events on the trace.
#[test]
fn injected_faults_become_trace_instants() {
    use ramiel_runtime::{Fault, FaultInjector, FaultKind, FaultPlan};

    let g = synthetic::fork_join(3, 2, 2);
    let clustering = cluster_graph(&g, &StaticCost);
    let hc = hypercluster(&clustering, 1);
    let inj = FaultInjector::new(FaultPlan {
        seed: 0,
        faults: vec![Fault {
            node: 1,
            batch: 0,
            exec_index: 0,
            kind: FaultKind::RecvDelay { millis: 1 },
        }],
    });
    let obs = Obs::enabled();
    obs.name_process("hyper executor");
    let opts = RunOptions::with_injector(inj).obs(obs.clone());
    let inputs = vec![synth_inputs(&g, 7)];
    run(&g, &hc, &inputs, &ExecCtx::sequential(), &opts)
        .outputs
        .unwrap();

    let events = obs.events();
    assert!(
        events
            .iter()
            .any(|e| e.cat == "fault" && e.name == "fault:recv-delay"),
        "expected a fault:recv-delay instant, got {:?}",
        events.iter().map(|e| &e.name).collect::<Vec<_>>()
    );
    validate_chrome_trace(&obs.to_chrome_trace()).unwrap();
}

/// Disabled observability stays silent end-to-end — the near-zero-cost path.
#[test]
fn disabled_obs_records_nothing() {
    let g = synthetic::chain(5);
    let obs = Obs::disabled();
    let db = profiled_hyper_run(&g, 2, false, &obs);
    assert!(!db.records().is_empty(), "profiling still works");
    assert!(obs.is_empty(), "disabled obs must not record events");
    assert_eq!(obs.now_ns(), 0, "disabled obs has no timeline");
}
