//! Smoke-size runs of every workload, untraced and traced, against the real
//! server binary: every reply must pass its oracle check, and a corrupted
//! oracle answer must fail the run.

use perfbench::plan::{Size, Workload};
use perfbench::{run, Options};

fn smoke(workload: Workload, trace: bool, corrupt_oracle: bool) -> Options {
    Options {
        workload,
        seed: 7,
        seconds: 1.0,
        trace,
        size: Size::Smoke,
        corrupt_oracle,
    }
}

#[test]
fn every_workload_passes_its_oracle_untraced_and_traced() {
    for workload in Workload::ALL {
        for trace in [false, true] {
            let report = run(&smoke(workload, trace, false)).expect("smoke run completes");
            assert!(report.attempted > 0, "{workload:?} trace={trace}");
            assert_eq!(
                report.failed, 0,
                "{workload:?} trace={trace}: {:?}",
                report.log
            );
            assert!(report.correct);
            assert!(report.metrics.iter().all(|m| m.value.is_finite()));
        }
    }
}

#[test]
fn a_corrupted_oracle_answer_fails_the_run() {
    for workload in Workload::ALL {
        let report = run(&smoke(workload, false, true)).expect("smoke run completes");
        assert!(!report.correct, "{workload:?}");
        assert!(report.failed >= 1, "{workload:?}");
        assert!(report.result_line().starts_with(r#"{"correct":false,"#));
    }
}

#[test]
fn traced_runs_report_every_per_layer_metric() {
    let report = run(&smoke(Workload::LiveEdit, true, false)).expect("smoke run completes");
    let names: Vec<&str> = report.metrics.iter().map(|m| m.name).collect();
    let expected: Vec<&str> = perfbench::traced::METRICS.iter().map(|(n, _)| *n).collect();
    assert_eq!(names, expected);
    let value = |name: &str| {
        report
            .metrics
            .iter()
            .find(|m| m.name == name)
            .unwrap()
            .value
    };
    assert!(value("equiv.apply_delta_ms") > 0.0);
    assert!(value("server.wire.ping_ms") > 0.0);
    assert!(value("server.client.ping_ms") > 0.0);
}
