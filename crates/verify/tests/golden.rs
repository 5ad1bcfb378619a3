//! Golden corruption tests: seeded schedule defects on a real model must
//! trip exactly the intended codes under [`analyze`], and the pristine
//! schedules of every built-in model must analyze clean of errors.

use ramiel_cluster::{cluster_graph, clustering_view, stealing_view, StaticCost};
use ramiel_models::{build, ModelConfig, ModelKind};
use ramiel_verify::{analyze, codes, Severity};

fn codes_of(report: &ramiel_verify::Report) -> Vec<&'static str> {
    report.diagnostics.iter().map(|d| d.code).collect()
}

#[test]
fn pristine_schedules_have_no_errors_on_any_model() {
    let cfg = ModelConfig::tiny();
    for kind in ModelKind::all() {
        let g = build(kind, &cfg);
        let view = clustering_view(&cluster_graph(&g, &StaticCost));
        let a = analyze(&g, &view);
        assert!(
            !a.report.has_errors(),
            "{}: pristine schedule reported errors: {}",
            kind.name(),
            a.report.render()
        );
    }
}

/// The work-stealing executor's analyze story: it has no static per-edge
/// channels, so its view must analyze as *estimate-only* — a sound (inexact)
/// first-ready memory bound and **zero** channel-shaped diagnostics
/// (coverage, RV0401 replay stalls, RA0401 capacity). Emitting those against a
/// schedule that has no channels would be vacuous noise; this test pins
/// their absence on every model, at batch 1 and batch 4.
#[test]
fn stealing_views_are_estimate_only_with_no_channel_lints() {
    let cfg = ModelConfig::tiny();
    let channel_codes = [
        codes::OP_MISSING,
        codes::OP_DUPLICATE,
        codes::CHANNEL_DEADLOCK,
        codes::CAPACITY_EXCEEDED,
    ];
    for kind in ModelKind::all() {
        for batch in [1usize, 4] {
            let g = build(kind, &cfg);
            let a = analyze(&g, &stealing_view(&g, batch));
            assert!(
                !a.memory.exact,
                "{} b{batch}: stealing memory bound must be estimate-only",
                kind.name()
            );
            assert!(
                a.memory.peak_bytes > 0,
                "{} b{batch}: estimate-only bound must still be a real bound",
                kind.name()
            );
            for d in &a.report.diagnostics {
                assert!(
                    !channel_codes.contains(&d.code),
                    "{} b{batch}: vacuous channel lint {} on the stealing view: {}",
                    kind.name(),
                    d.code,
                    d.message
                );
            }
            assert!(
                !a.report.has_errors(),
                "{} b{batch}: stealing view reported errors: {}",
                kind.name(),
                a.report.render()
            );
        }
    }
}

#[test]
fn dropping_a_producer_trips_recv_no_send() {
    let g = build(ModelKind::Squeezenet, &ModelConfig::tiny());
    let mut view = clustering_view(&cluster_graph(&g, &StaticCost));
    // Corrupt: delete the first scheduled op from the first non-empty
    // worker; its output is still consumed downstream but never produced.
    let w = view.workers.iter().position(|w| !w.is_empty()).unwrap();
    view.workers[w].remove(0);
    let a = analyze(&g, &view);
    assert_eq!(codes_of(&a.report), [codes::OP_MISSING]);
    assert!(a.report.has_errors());
}

#[test]
fn duplicating_an_instance_trips_write_write() {
    let g = build(ModelKind::Squeezenet, &ModelConfig::tiny());
    let mut view = clustering_view(&cluster_graph(&g, &StaticCost));
    // Corrupt: schedule the first op of worker 0 a second time on the
    // last worker — two writers race on the same tensor instance.
    let w = view.workers.iter().position(|w| !w.is_empty()).unwrap();
    let dup = view.workers[w][0];
    view.workers.push(vec![dup]);
    let a = analyze(&g, &view);
    assert_eq!(codes_of(&a.report), [codes::OP_DUPLICATE]);
    assert!(a.report.has_errors());
}

#[test]
fn reversing_a_worker_trips_hb_cycle_under_in_order_replay() {
    let g = build(ModelKind::Googlenet, &ModelConfig::tiny());
    let mut view = clustering_view(&cluster_graph(&g, &StaticCost));
    // Corrupt: reverse the longest worker's program order. Under strict
    // in-order replay a dependence now points against program order,
    // closing a wait-for cycle.
    let w = (0..view.workers.len())
        .max_by_key(|&w| view.workers[w].len())
        .unwrap();
    assert!(view.workers[w].len() >= 2, "need a multi-op worker");
    view.workers[w].reverse();
    let a = analyze(&g, &view);
    assert!(
        codes_of(&a.report).contains(&codes::CHANNEL_DEADLOCK),
        "expected {} after reversing a worker, got {:?}",
        codes::CHANNEL_DEADLOCK,
        codes_of(&a.report)
    );
}

#[test]
fn error_codes_carry_error_severity() {
    let g = build(ModelKind::Squeezenet, &ModelConfig::tiny());
    let mut view = clustering_view(&cluster_graph(&g, &StaticCost));
    let w = view.workers.iter().position(|w| !w.is_empty()).unwrap();
    view.workers[w].remove(0);
    let a = analyze(&g, &view);
    for d in &a.report.diagnostics {
        if d.code == codes::OP_MISSING {
            assert_eq!(d.severity, Severity::Error);
        }
    }
}
