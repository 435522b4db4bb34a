//! Concurrent `/submit`s replay through the offline engine.
//!
//! Four threads submit to one `OnlineSched`, as the daemon's I/O threads
//! do. Each submission reads the scheduler clock under the same lock that
//! numbers and places it, so arrivals are non-decreasing in id order, and
//! `Scheduler::run` over the logged `job_submitted` events must reproduce
//! every `task_placed` event and the admission counters.
//!
//! The obs sink is process-global, so this file holds exactly **one**
//! test in its own integration-test binary.

use std::sync::{Arc, Barrier};
use std::time::Duration;

use hecmix_core::profile::WorkloadModel;
use hecmix_core::types::Platform;
use hecmix_obs::{json, Event, RingSink};
use hecmix_sched::{JobSpec, Pool, SchedConfig, Scheduler};
use hecmix_serve::{ModelStore, OnlineSched, SchedParams};

const THREADS: u32 = 4;
const PER_THREAD: u32 = 100;

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
fn concurrent_submissions_arrive_in_id_order_and_replay() {
    let store = store();
    let params = SchedParams {
        alpha: 0.5,
        max_outstanding: 8,
        counts: vec![2, 1],
    };
    let classes = store
        .names()
        .into_iter()
        .map(|name| {
            let models = (*store.get(&name).expect("listed entry").models).clone();
            (name, models)
        })
        .collect();
    let pool = Pool::new(classes, params.counts.clone()).expect("pool builds");
    let live = Arc::new(OnlineSched::from_store(&store, &params).expect("live pool builds"));

    let ring = Arc::new(RingSink::new(1 << 12));
    hecmix_obs::install(ring.clone());
    // Jobs of 0.1–0.5 ms on their class's fastest slot, and a 0.3 ms
    // deadline on every third one.
    let work: Vec<(String, f64)> = pool
        .classes
        .iter()
        .map(|c| {
            let fastest = c
                .options
                .iter()
                .flatten()
                .map(|o| o.rate)
                .fold(0.0, f64::max);
            (c.name.clone(), fastest * 1e-4)
        })
        .collect();
    // The threads start together, so their submissions contend for the
    // lock from the first one on.
    let start = Arc::new(Barrier::new(THREADS as usize));
    let threads: Vec<_> = (0..THREADS)
        .map(|t| {
            let (live, work, start) = (live.clone(), work.clone(), start.clone());
            std::thread::spawn(move || {
                start.wait();
                for i in 0..PER_THREAD {
                    let (name, unit) = &work[((t + i) % 2) as usize];
                    let units = unit * f64::from(1 + i % 5);
                    let deadline_s = (i % 3 == 0).then_some(3e-4);
                    let status = live.submit(name, units, deadline_s).status;
                    assert!(status == 200 || status == 429, "status {status}");
                    std::thread::sleep(Duration::from_micros(50));
                }
            })
        })
        .collect();
    for t in threads {
        t.join().expect("submitter thread");
    }
    let live_events = ring.events();
    let stats = json::parse(&live.statz_object()).expect("statz parses");
    ring.clear();

    let mut jobs: Vec<JobSpec> = live_events
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
    assert_eq!(jobs.len(), (THREADS * PER_THREAD) as usize);
    jobs.sort_by_key(|j| j.id);
    let inversions = jobs
        .windows(2)
        .filter(|w| w[1].arrival_s < w[0].arrival_s)
        .count();
    assert_eq!(inversions, 0, "arrivals out of id order");

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

    assert_eq!(task_placed(&live_events), task_placed(&replay_events));
    let counter = |k: &str| {
        stats
            .get(k)
            .and_then(json::Value::as_u64)
            .unwrap_or_else(|| panic!("statz lacks {k}")) as usize
    };
    assert_eq!(outcome.admitted, counter("admitted"));
    assert_eq!(outcome.rejected, counter("rejected"));
    assert!(outcome.admitted > params.max_outstanding);
}
