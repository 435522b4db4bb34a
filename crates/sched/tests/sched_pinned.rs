//! `Scheduler::run_faulted` pinned to captured bits on the
//! `determinism.rs` pool: three (α, admission bound, tick, λ) settings,
//! each run clean and under two random crashes, two stragglers and a
//! power cap. The counts, the raw bits of the energy and makespan totals,
//! digests of the per-job results and of the unit histograms, and a
//! digest of every event line the run emits must all reproduce exactly.
//! Any change to event order, admission, placement, charge rollback or
//! idle pricing moves at least one of them.
//!
//! The obs sink is process-global, so this file holds exactly **one**
//! test in its own integration-test binary.

use std::sync::{Arc, Mutex};

use hecmix_core::persist::fnv1a;
use hecmix_core::profile::WorkloadModel;
use hecmix_core::types::Platform;
use hecmix_obs::{Event, Sink};
use hecmix_queueing::dispatch::DiurnalProfile;
use hecmix_sched::job::{merge_streams, DiurnalTraceSpec};
use hecmix_sched::{synthesize_diurnal, JobSpec, Pool, SchedConfig, SchedOutcome, Scheduler};
use hecmix_sim::faults::FaultSchedule;

fn pool() -> Pool {
    let arm = Platform::reference_arm();
    let amd = Platform::reference_amd();
    let mk = |name: &str, i_arm: f64, i_amd: f64| {
        (
            name.to_owned(),
            vec![
                WorkloadModel::synthetic_cpu_bound(&arm, name, i_arm),
                WorkloadModel::synthetic_cpu_bound(&amd, name, i_amd),
            ],
        )
    };
    Pool::new(
        vec![mk("memcached", 60.0, 40.0), mk("julius", 30.0, 55.0)],
        vec![4, 3],
    )
    .unwrap()
}

fn trace(pool: &Pool, base_lambda: f64, seed: u64) -> Vec<JobSpec> {
    let profile = DiurnalProfile {
        base_lambda,
        amplitude: 0.7,
        slots: 24,
        slot_s: 30.0,
    };
    let streams: Vec<Vec<JobSpec>> = (0..pool.classes.len())
        .map(|w| {
            synthesize_diurnal(&DiurnalTraceSpec {
                workload: w,
                profile,
                days: 1,
                mean_size_units: 8.0 * pool.classes[w].peak_rate(),
                size_spread: 0.4,
                service_ref_s: 8.0,
                deadline_slack: (2.0, 6.0),
                seed: seed ^ (w as u64) << 32,
            })
            .unwrap()
        })
        .collect();
    merge_streams(&streams)
}

/// Every event line a run emits, in emission order.
#[derive(Default)]
struct Lines(Mutex<Vec<u8>>);

impl Sink for Lines {
    fn record(&self, event: &Event) {
        let mut buf = self.0.lock().unwrap();
        buf.extend_from_slice(event.to_json().as_bytes());
        buf.push(b'\n');
    }
}

/// Every pinned value of a run, named; floats as raw bits.
fn fingerprint(out: &SchedOutcome, lines: &[u8]) -> Vec<(String, u64)> {
    let mut jobs = Vec::new();
    for j in &out.jobs {
        jobs.extend_from_slice(&j.finish_s.map_or(u64::MAX, f64::to_bits).to_le_bytes());
        jobs.push(u8::from(j.missed));
        jobs.extend_from_slice(&j.migrations.to_le_bytes());
    }
    let mut units = Vec::new();
    let per_option = out.units_by_option.iter().flatten().flatten();
    for u in out.per_type_units.iter().chain(per_option) {
        units.extend_from_slice(&u.to_bits().to_le_bytes());
    }
    [
        ("submitted", out.submitted as u64),
        ("admitted", out.admitted as u64),
        ("rejected", out.rejected as u64),
        ("completed", out.completed as u64),
        ("failed", out.failed as u64),
        ("misses", out.misses as u64),
        ("migrations", out.migrations as u64),
        ("active_energy_j", out.active_energy_j.to_bits()),
        ("idle_energy_j", out.idle_energy_j.to_bits()),
        ("makespan_s", out.makespan_s.to_bits()),
        ("jobs", fnv1a(&jobs)),
        ("units", fnv1a(&units)),
        ("lines", fnv1a(lines)),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_owned(), v))
    .collect()
}

#[test]
fn scheduler_runs_are_pinned() {
    let pool = pool();
    let faults = FaultSchedule::random_crashes(7, &pool.counts, 2, 500.0)
        .straggler(0, 1, 120.0, 2.0)
        .straggler(1, 2, 260.0, 1.5)
        .power_cap(1, 0, 200.0, 1.0);
    let sink = Arc::new(Lines::default());
    hecmix_obs::install(sink.clone());
    let mut got = Vec::new();
    for (i, &(alpha, max_outstanding, tick_s, lambda)) in SETTINGS.iter().enumerate() {
        let sched = Scheduler::new(
            pool.clone(),
            SchedConfig {
                alpha,
                max_outstanding,
                tick_s,
            },
        )
        .unwrap();
        let jobs = trace(&pool, lambda, 42 + i as u64);
        for (tag, f) in [
            ("clean", FaultSchedule::default()),
            ("faulted", faults.clone()),
        ] {
            let out = sched.run_faulted(&jobs, &f).unwrap();
            let lines = std::mem::take(&mut *sink.0.lock().unwrap());
            for (k, v) in fingerprint(&out, &lines) {
                got.push((format!("s{i}.{tag}.{k}"), v));
            }
        }
    }
    hecmix_obs::uninstall();
    let want: Vec<(String, u64)> = PINNED.iter().map(|&(k, v)| (k.to_owned(), v)).collect();
    assert_eq!(got, want);
}

/// `(α, admission bound, tick period in s, base λ per class in jobs/s)`.
const SETTINGS: [(f64, usize, f64, f64); 3] = [
    (0.5, 32, 60.0, 0.08),
    (0.0, 6, 25.0, 0.3),
    (1.0, 12, 45.0, 0.15),
];

const PINNED: &[(&str, u64)] = &[
    ("s0.clean.submitted", 0x0000000000000063),
    ("s0.clean.admitted", 0x0000000000000063),
    ("s0.clean.rejected", 0x0000000000000000),
    ("s0.clean.completed", 0x0000000000000063),
    ("s0.clean.failed", 0x0000000000000000),
    ("s0.clean.misses", 0x0000000000000000),
    ("s0.clean.migrations", 0x0000000000000000),
    ("s0.clean.active_energy_j", 0x40d299bbf4947da7),
    ("s0.clean.idle_energy_j", 0x40f5cd16750747e5),
    ("s0.clean.makespan_s", 0x4086575926b6e279),
    ("s0.clean.jobs", 0x44cd0c7b04bd0aed),
    ("s0.clean.units", 0xb8171c27679201e6),
    ("s0.clean.lines", 0x3bbacf22e7fe89e7),
    ("s0.faulted.submitted", 0x0000000000000063),
    ("s0.faulted.admitted", 0x0000000000000063),
    ("s0.faulted.rejected", 0x0000000000000000),
    ("s0.faulted.completed", 0x0000000000000063),
    ("s0.faulted.failed", 0x0000000000000000),
    ("s0.faulted.misses", 0x0000000000000000),
    ("s0.faulted.migrations", 0x0000000000000002),
    ("s0.faulted.active_energy_j", 0x40d528fcc459f292),
    ("s0.faulted.idle_energy_j", 0x40edb032a4e46d36),
    ("s0.faulted.makespan_s", 0x4086575926b6e279),
    ("s0.faulted.jobs", 0x7bb7ac7840dca8a6),
    ("s0.faulted.units", 0xf9e2f258a364a62c),
    ("s0.faulted.lines", 0xe835e94d70f175a4),
    ("s1.clean.submitted", 0x00000000000001a1),
    ("s1.clean.admitted", 0x00000000000000aa),
    ("s1.clean.rejected", 0x00000000000000f7),
    ("s1.clean.completed", 0x00000000000000aa),
    ("s1.clean.failed", 0x0000000000000000),
    ("s1.clean.misses", 0x0000000000000000),
    ("s1.clean.migrations", 0x0000000000000000),
    ("s1.clean.active_energy_j", 0x40dc605b3fd136d4),
    ("s1.clean.idle_energy_j", 0x40f5984c8971224d),
    ("s1.clean.makespan_s", 0x408772e470aa5405),
    ("s1.clean.jobs", 0x0452cbf096351b12),
    ("s1.clean.units", 0x739d21e7c26b0fb3),
    ("s1.clean.lines", 0x269760bd56a72c1a),
    ("s1.faulted.submitted", 0x00000000000001a1),
    ("s1.faulted.admitted", 0x00000000000000ab),
    ("s1.faulted.rejected", 0x00000000000000f6),
    ("s1.faulted.completed", 0x00000000000000ab),
    ("s1.faulted.failed", 0x0000000000000000),
    ("s1.faulted.misses", 0x0000000000000003),
    ("s1.faulted.migrations", 0x0000000000000002),
    ("s1.faulted.active_energy_j", 0x40e1b9ddf09cc00d),
    ("s1.faulted.idle_energy_j", 0x40eb191a5c858442),
    ("s1.faulted.makespan_s", 0x4087dc41cc23eae3),
    ("s1.faulted.jobs", 0x2b1956524180efce),
    ("s1.faulted.units", 0x2c0d99676123c631),
    ("s1.faulted.lines", 0x742801556e3f4953),
    ("s2.clean.submitted", 0x00000000000000d5),
    ("s2.clean.admitted", 0x00000000000000d5),
    ("s2.clean.rejected", 0x0000000000000000),
    ("s2.clean.completed", 0x00000000000000d5),
    ("s2.clean.failed", 0x0000000000000000),
    ("s2.clean.misses", 0x0000000000000000),
    ("s2.clean.migrations", 0x0000000000000000),
    ("s2.clean.active_energy_j", 0x40f4f07b81aaca6b),
    ("s2.clean.idle_energy_j", 0x40e3740ca2890067),
    ("s2.clean.makespan_s", 0x4086d07a8b52fc00),
    ("s2.clean.jobs", 0xb510222670cd69b9),
    ("s2.clean.units", 0x8afc2a4e4429e109),
    ("s2.clean.lines", 0xed830952695e1676),
    ("s2.faulted.submitted", 0x00000000000000d5),
    ("s2.faulted.admitted", 0x00000000000000c6),
    ("s2.faulted.rejected", 0x000000000000000f),
    ("s2.faulted.completed", 0x00000000000000c6),
    ("s2.faulted.failed", 0x0000000000000000),
    ("s2.faulted.misses", 0x0000000000000020),
    ("s2.faulted.migrations", 0x0000000000000007),
    ("s2.faulted.active_energy_j", 0x40f1892368d08a1e),
    ("s2.faulted.idle_energy_j", 0x40d5df2c4840c9ef),
    ("s2.faulted.makespan_s", 0x4086d446f55542a2),
    ("s2.faulted.jobs", 0x7182c8ac0103e12a),
    ("s2.faulted.units", 0xc8d6937c0e0d401f),
    ("s2.faulted.lines", 0xa4c15feaf93dd85c),
];
