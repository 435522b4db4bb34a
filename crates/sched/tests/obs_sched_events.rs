//! Scheduler telemetry: runs a faulted, tick-enabled scenario with a
//! `JsonlSink` installed and asserts the JSONL stream carries all five
//! scheduler events — `job_submitted`, `task_placed`, `task_migrated`,
//! `deadline_miss`, `sched_tick` — and that every line matches
//! `Event::SCHEMA` (following `tests/obs_fleet_events.rs`).
//!
//! The obs sink is process-global, so this file holds exactly **one**
//! test in its own integration-test binary.

use std::sync::Arc;

use hecmix_core::profile::WorkloadModel;
use hecmix_core::types::Platform;
use hecmix_obs::json::{self, Value};
use hecmix_obs::{Event, JsonlSink};
use hecmix_sched::{JobSpec, Pool, SchedConfig, Scheduler};
use hecmix_sim::faults::FaultSchedule;

/// The `(kind, field)` pairs read one step looser than their schema type:
/// a job without a deadline submits `deadline_s = +inf`, encoded as `null`.
const LOOSE: &[(&str, &str)] = &[("job_submitted", "deadline_s")];

#[test]
fn scheduler_emits_schema_complete_jsonl_events() {
    let arm = Platform::reference_arm();
    let amd = Platform::reference_amd();
    let pool = Pool::new(
        vec![(
            "ep".to_owned(),
            vec![
                WorkloadModel::synthetic_cpu_bound(&arm, "ep", 60.0),
                WorkloadModel::synthetic_cpu_bound(&amd, "ep", 40.0),
            ],
        )],
        vec![2, 1],
    )
    .unwrap();
    let sched = Scheduler::new(
        pool,
        SchedConfig {
            alpha: 1.0,         // deterministic landing on the fastest slot
            max_outstanding: 2, // third simultaneous arrival is rejected
            tick_s: 1.0,
        },
    )
    .unwrap();
    let job = |id: u64, size: f64, arrival: f64, deadline: f64| JobSpec {
        id,
        workload: 0,
        size_units: size,
        arrival_s: arrival,
        deadline_s: deadline,
    };
    // Job 0 is big and mid-crash-migrated; job 1 has an impossible
    // deadline (recorded as a miss); job 2 overflows the admission bound.
    let jobs = vec![
        job(0, 2e5, 0.0, f64::INFINITY),
        job(1, 1e5, 0.0, 1e-3),
        job(2, 1e4, 0.0, f64::INFINITY),
    ];
    let clean = sched.run(&jobs).expect("clean run");
    let hit_type = clean.per_type_units.iter().position(|&u| u > 0.0).unwrap();
    let mid = clean.jobs[0].finish_s.unwrap() * 0.31;
    let faults = FaultSchedule::default().crash(hit_type, 0, mid);

    let dir = std::env::temp_dir().join(format!("hecmix-sched-obs-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("events.jsonl");
    hecmix_obs::install(Arc::new(JsonlSink::create(&path).expect("sink")));
    let out = sched.run_faulted(&jobs, &faults).expect("faulted run");
    hecmix_obs::uninstall();
    assert!(out.migrations >= 1, "crash must displace job 0");
    assert_eq!(out.rejected, 1);
    assert!(out.misses >= 1);

    let text = std::fs::read_to_string(&path).expect("events file");
    let mut kinds = std::collections::HashMap::<&str, u64>::new();
    let mut saw_rejected = false;
    for line in text.lines() {
        let v = json::parse(line).unwrap_or_else(|e| panic!("bad JSONL line ({e}): {line}"));
        let kind = Event::check_json(&v, LOOSE).unwrap_or_else(|e| panic!("{e}: {line}"));
        match kind {
            "job_submitted" if v.get("admitted").and_then(Value::as_bool) == Some(false) => {
                saw_rejected = true;
            }
            "task_migrated" => {
                assert_eq!(
                    v.get("reason").and_then(Value::as_str),
                    Some("crash"),
                    "{line}"
                );
            }
            _ => {}
        }
        *kinds.entry(kind).or_insert(0) += 1;
    }
    for required in [
        "job_submitted",
        "task_placed",
        "task_migrated",
        "deadline_miss",
        "sched_tick",
    ] {
        assert!(
            kinds.get(required).copied().unwrap_or(0) > 0,
            "missing event kind `{required}`; saw {kinds:?}"
        );
    }
    assert_eq!(kinds["job_submitted"], 3, "one per submission");
    assert!(saw_rejected, "the admission bound rejection must be logged");
    // Every migration re-placement also logs a fresh task_placed.
    assert!(kinds["task_placed"] >= 2 + out.migrations as u64 - 1);
    let _ = std::fs::remove_file(&path);
}
