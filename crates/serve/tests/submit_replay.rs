//! Live `/submit` placements replay through the offline engine bit for
//! bit.
//!
//! `OnlineSched` drives a live session of the same engine that
//! `Scheduler::run` replays a whole stream with, feeding each job at the
//! wall-clock time it arrives. Rebuilding the `JobSpec`s from the live
//! `job_submitted` events and running `Scheduler::run` over the same pool,
//! α and admission bound must then reproduce every `task_placed` event and
//! the live counters, which count each in-flight job as planned.
//!
//! The obs sink is process-global, so this file holds exactly **one**
//! test in its own integration-test binary.

use std::sync::Arc;
use std::time::Duration;

use hecmix_core::profile::WorkloadModel;
use hecmix_core::types::Platform;
use hecmix_obs::{json, Event, RingSink};
use hecmix_sched::{JobSpec, Pool, SchedConfig, Scheduler};
use hecmix_serve::{ModelStore, OnlineSched, SchedParams};

fn store() -> ModelStore {
    let (arm, amd) = (Platform::reference_arm(), Platform::reference_amd());
    let mut store = ModelStore::new();
    store.insert(
        "ep",
        vec![
            WorkloadModel::synthetic_cpu_bound(&arm, "ep", 2.0e9),
            WorkloadModel::synthetic_cpu_bound(&amd, "ep", 1.6e9),
        ],
    );
    store.insert(
        "kv",
        vec![
            WorkloadModel::synthetic_io_bound(&arm, "kv", 1.0e9, 512.0),
            WorkloadModel::synthetic_io_bound(&amd, "kv", 0.8e9, 512.0),
        ],
    );
    store
}

fn task_placed(events: &[Event]) -> Vec<String> {
    events
        .iter()
        .filter(|e| matches!(e, Event::TaskPlaced { .. }))
        .map(Event::to_json)
        .collect()
}

#[test]
fn live_submissions_replay_through_the_engine_bit_for_bit() {
    let store = store();
    let params = SchedParams {
        alpha: 0.5,
        max_outstanding: 6,
        counts: vec![2, 1],
    };
    // The pool `OnlineSched::from_store` builds: one class per store
    // entry, in name order.
    let classes = store
        .names()
        .into_iter()
        .map(|name| {
            let models = (*store.get(&name).expect("listed entry").models).clone();
            (name, models)
        })
        .collect();
    let pool = Pool::new(classes, params.counts.clone()).expect("pool builds");
    let live = OnlineSched::from_store(&store, &params).expect("live pool builds");

    let ring = Arc::new(RingSink::new(1 << 16));
    hecmix_obs::install(ring.clone());

    // Jobs of 0.5–1.7 ms on their class's fastest slot, submitted in
    // bursts of nine: each burst overruns the admission bound, and the
    // 1–4 ms pause after it lets some or all of the backlog finish. A
    // third of the jobs carry no deadline, a third one of 0.1 ms (always
    // missed) and a third one of 4 ms.
    let fastest: Vec<f64> = pool
        .classes
        .iter()
        .map(|c| {
            c.options
                .iter()
                .flatten()
                .map(|o| o.rate)
                .fold(0.0, f64::max)
        })
        .collect();
    for burst in 0..40u32 {
        for i in 0..9u32 {
            let class = ((burst + i) % 2) as usize;
            let units = fastest[class] * 1e-3 * (0.5 + 0.15 * f64::from(i));
            let deadline_s = match i % 3 {
                0 => None,
                1 => Some(1e-4),
                _ => Some(4e-3),
            };
            let status = live
                .submit(&pool.classes[class].name, units, deadline_s)
                .status;
            assert!(status == 200 || status == 429, "status {status}");
        }
        std::thread::sleep(Duration::from_millis(1 + u64::from(burst % 4)));
    }
    let live_events = ring.events();
    let stats = json::parse(&live.statz_object()).expect("statz parses");
    ring.clear();

    let jobs: Vec<JobSpec> = live_events
        .iter()
        .filter_map(|e| match e {
            Event::JobSubmitted {
                job,
                workload,
                size_units,
                arrival_s,
                deadline_s,
                ..
            } => Some(JobSpec {
                id: *job,
                workload: pool.class_index(workload).expect("known class"),
                size_units: *size_units,
                arrival_s: *arrival_s,
                deadline_s: *deadline_s,
            }),
            _ => None,
        })
        .collect();
    let cfg = SchedConfig {
        alpha: params.alpha,
        max_outstanding: params.max_outstanding,
        ..SchedConfig::default()
    };
    let outcome = Scheduler::new(pool, cfg)
        .expect("valid knobs")
        .run(&jobs)
        .expect("replay runs");
    let replay_events = ring.events();
    hecmix_obs::uninstall();

    let live_placed = task_placed(&live_events);
    assert_eq!(live_placed, task_placed(&replay_events));

    let counter = |k: &str| {
        stats
            .get(k)
            .and_then(json::Value::as_u64)
            .unwrap_or_else(|| panic!("statz lacks {k}")) as usize
    };
    assert_eq!(counter("submitted"), jobs.len());
    assert_eq!(outcome.submitted, jobs.len());
    assert_eq!(outcome.admitted, counter("admitted"));
    assert_eq!(outcome.rejected, counter("rejected"));
    assert_eq!(outcome.misses, counter("misses"));
    // The engine sums energy in completion order, the live path in
    // submission order.
    let live_energy = stats
        .get("active_energy_j")
        .and_then(json::Value::as_f64)
        .expect("statz has active_energy_j");
    assert!(
        (outcome.active_energy_j - live_energy).abs() <= 1e-12 * live_energy,
        "active energy {} vs live {live_energy}",
        outcome.active_energy_j
    );

    // The run exercised what it claims to: the bound both admitted past
    // its size (jobs completed between bursts) and rejected, deadlines
    // were missed, and some jobs queued behind a FIFO tail.
    assert!(outcome.admitted > 2 * params.max_outstanding);
    assert!(outcome.rejected > 0);
    assert!(outcome.misses > 0);
    let arrival: std::collections::HashMap<u64, f64> =
        jobs.iter().map(|j| (j.id, j.arrival_s)).collect();
    let queued = live_events
        .iter()
        .filter(|e| matches!(e, Event::TaskPlaced { job, start_s, .. } if *start_s > arrival[job]))
        .count();
    assert!(queued > 0, "no job waited behind a FIFO tail");
}
