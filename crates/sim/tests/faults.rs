//! Fault-injection acceptance tests: seeded crash runs are deterministic
//! (bit-identical), a crash after the job ends reproduces the plain
//! cluster run exactly, recovery is work-conserving, and each degradation
//! mode (straggler, NIC, power cap) bends the run the way it should.

use hecmix_sim::{
    reference_amd_arch, reference_arm_arch, run_cluster, run_cluster_faulted, run_node,
    run_node_faulted, ClusterMeasurement, ClusterSpec, FaultKind, FaultSchedule, NodeFault,
    NodeRunSpec, RecoveryPolicy, TypeAssignment, UnitDemand, WorkloadTrace,
};

fn demand() -> UnitDemand {
    UnitDemand {
        int_ops: 50.0,
        fp_ops: 20.0,
        simd_ops: 0.0,
        wide_mul_ops: 0.0,
        mem_ops: 10.0,
        llc_miss_rate: 0.01,
        branch_ops: 5.0,
        branch_miss_rate: 0.02,
        io_bytes: 200.0,
    }
}

/// Compute-bound variant: no NIC traffic, so cores (not the wire) are the
/// bottleneck and compute-side faults actually bite.
fn cpu_demand() -> UnitDemand {
    UnitDemand {
        io_bytes: 0.0,
        ..demand()
    }
}

/// A small heterogeneous cluster: 2 ARM + 1 AMD, split 2:1.
fn small_cluster(units: u64, seed: u64) -> ClusterSpec {
    let arm = reference_arm_arch();
    let amd = reference_amd_arch();
    ClusterSpec {
        trace: WorkloadTrace::batch("faulty", demand()),
        assignments: vec![
            TypeAssignment {
                arch: arm.clone(),
                nodes: 2,
                cores: 4,
                freq: arm.platform.fmax(),
                units: units / 3 * 2,
            },
            TypeAssignment {
                arch: amd.clone(),
                nodes: 1,
                cores: 6,
                freq: amd.platform.fmax(),
                units: units - units / 3 * 2,
            },
        ],
        seed,
    }
}

fn assert_bit_identical(a: &ClusterMeasurement, b: &ClusterMeasurement) {
    assert_eq!(a.duration_s.to_bits(), b.duration_s.to_bits());
    assert_eq!(a.measured_energy_j.to_bits(), b.measured_energy_j.to_bits());
    assert_eq!(a.true_energy_j.to_bits(), b.true_energy_j.to_bits());
    assert_eq!(a.completed_units.to_bits(), b.completed_units.to_bits());
    assert_eq!(a.abandoned_units, b.abandoned_units);
    assert_eq!(a.crashes.len(), b.crashes.len());
    for (ca, cb) in a.crashes.iter().zip(&b.crashes) {
        assert_eq!(ca.leftover_units, cb.leftover_units);
        assert_eq!(ca.lost_in_flight_units, cb.lost_in_flight_units);
        assert_eq!(ca.receivers, cb.receivers);
    }
    for (ta, tb) in a.per_type.iter().zip(&b.per_type) {
        assert_eq!(ta.duration_s.to_bits(), tb.duration_s.to_bits());
        assert_eq!(
            ta.measured_energy_j.to_bits(),
            tb.measured_energy_j.to_bits()
        );
        assert_eq!(ta.node_durations_s, tb.node_durations_s);
        for (ca, cb) in ta.counters.cores.iter().zip(&tb.counters.cores) {
            assert_eq!(ca.cycles.to_bits(), cb.cycles.to_bits());
            assert_eq!(ca.busy_s.to_bits(), cb.busy_s.to_bits());
            assert_eq!(ca.instructions.to_bits(), cb.instructions.to_bits());
            assert_eq!(ca.units_done.to_bits(), cb.units_done.to_bits());
        }
    }
}

#[test]
fn seeded_crash_run_is_deterministic() {
    let spec = small_cluster(24_000, 7);
    let nominal = run_cluster(&spec);
    let schedule = FaultSchedule::new().crash(0, 0, 0.4 * nominal.duration_s);
    let policy = RecoveryPolicy::default();
    let a = run_cluster_faulted(&spec, &schedule, &policy);
    let b = run_cluster_faulted(&spec, &schedule, &policy);
    assert_bit_identical(&a, &b);
    // The crash actually bit: something was redistributed.
    assert_eq!(a.crashes.len(), 1);
    assert!(a.crashes[0].leftover_units > 0, "crash should leave work");
    assert!(!a.crashes[0].receivers.is_empty());
}

#[test]
fn crash_recovery_conserves_work() {
    let mut spec = small_cluster(24_000, 3);
    // Compute-bound so cores are genuinely busy when the crash lands.
    spec.trace = WorkloadTrace::batch("faulty-cpu", cpu_demand());
    let total: u64 = spec.assignments.iter().map(|a| a.units).sum();
    let nominal = run_cluster(&spec);
    let schedule = FaultSchedule::new().crash(0, 1, 0.3 * nominal.duration_s);
    let m = run_cluster_faulted(&spec, &schedule, &RecoveryPolicy::default());
    assert_eq!(m.abandoned_units, 0);
    assert!(
        (m.completed_units - total as f64).abs() < 1e-6,
        "completed {} of {total} units",
        m.completed_units
    );
    // Redistribution extends the job past the nominal completion.
    assert!(m.duration_s > nominal.duration_s);
    // In-flight chunks were rolled back and re-delivered, not double-run.
    let redistributed: u64 = m.crashes[0].receivers.iter().map(|(_, _, u)| u).sum();
    assert_eq!(redistributed, m.crashes[0].leftover_units);
    assert!(
        m.crashes[0].lost_in_flight_units > 0,
        "cores were busy mid-run"
    );
    // Conservation law still holds on every merged core counter.
    for t in &m.per_type {
        for c in t.counters.cores.iter().filter(|c| c.instructions > 0.0) {
            assert!(c.is_conserved());
        }
    }
}

#[test]
fn straggler_stretches_the_run_and_keeps_counters_conserved() {
    let arch = reference_arm_arch();
    let trace = WorkloadTrace::batch("slowpoke", cpu_demand());
    let spec = NodeRunSpec::new(4, arch.platform.fmax(), 20_000, 5);
    let plain = run_node(&arch, &trace, &spec);
    let slow = run_node_faulted(
        &arch,
        &trace,
        &spec,
        &[NodeFault {
            at_s: 0.0,
            kind: FaultKind::Straggler { slowdown: 2.0 },
        }],
        &[],
    );
    let ratio = slow.work_end_s / plain.duration_s;
    assert!(
        (1.6..=2.4).contains(&ratio),
        "2x straggler should roughly double the run, got {ratio:.2}x"
    );
    assert!((slow.measurement.counters.units_done() - 20_000.0).abs() < 1e-6);
    for c in &slow.measurement.counters.cores {
        assert!(c.is_conserved(), "stretch cycles must land in stall time");
    }
    // The stretch burns stall energy: more total energy than the plain run.
    assert!(slow.measurement.energy.total_j() > plain.energy.total_j());
}

#[test]
fn nic_degradation_halves_wire_speed() {
    // NIC-bound node: a 100 kbps wire, so compute is negligible.
    let mut arch = reference_arm_arch();
    arch.platform.io_bandwidth_bps = 1e5;
    let trace = WorkloadTrace::batch("wire", demand());
    let spec = NodeRunSpec::new(2, arch.platform.fmax(), 500, 9);
    let plain = run_node(&arch, &trace, &spec);
    let degraded = run_node_faulted(
        &arch,
        &trace,
        &spec,
        &[NodeFault {
            at_s: 0.0,
            kind: FaultKind::NicDegrade {
                bandwidth_factor: 0.5,
            },
        }],
        &[],
    );
    let ratio = degraded.work_end_s / plain.duration_s;
    assert!(
        (1.8..=2.2).contains(&ratio),
        "half bandwidth should double a wire-bound run, got {ratio:.2}x"
    );
    assert!(
        (degraded.measurement.counters.io_bytes - 500.0 * 200.0).abs() < 1.0,
        "every byte still crosses the wire"
    );
}

#[test]
fn power_cap_slows_the_node_and_cuts_busy_power() {
    let arch = reference_arm_arch();
    let fmin = arch.platform.freqs[0];
    let trace = WorkloadTrace::batch("throttle", cpu_demand());
    let spec = NodeRunSpec::new(4, arch.platform.fmax(), 20_000, 13);
    let plain = run_node(&arch, &trace, &spec);
    let capped = run_node_faulted(
        &arch,
        &trace,
        &spec,
        &[NodeFault {
            at_s: 0.0,
            kind: FaultKind::PowerCap {
                max_freq_ghz: fmin.ghz(),
            },
        }],
        &[],
    );
    assert!(
        capped.work_end_s > plain.duration_s * 1.2,
        "cap to fmin must slow the run: {} vs {}",
        capped.work_end_s,
        plain.duration_s
    );
    // Busy power drops with the square-ish of frequency: mean active power
    // (excluding the idle floor, which scales with duration) must fall.
    let active = |e: &hecmix_sim::NodeMeasurement, t: f64| (e.energy.total_j()) / t;
    assert!(
        active(&capped.measurement, capped.work_end_s) < active(&plain, plain.duration_s),
        "capped node should draw less average power"
    );
}

#[test]
fn crash_after_completion_is_a_no_op() {
    // The crash turns fault mode on (chunk charges, work-end duration)
    // yet lands after the last work event: everything the plain run
    // measured must come back bit for bit.
    let spec = small_cluster(6_000, 21);
    let nominal = run_cluster(&spec);
    assert!(nominal.crashes.is_empty());
    let schedule = FaultSchedule::new().crash(1, 0, nominal.duration_s * 10.0);
    let mut m = run_cluster_faulted(&spec, &schedule, &RecoveryPolicy::default());
    assert_eq!(m.crashes.len(), 1);
    assert_eq!(m.crashes[0].leftover_units, 0);
    m.crashes.clear();
    assert_bit_identical(&m, &nominal);
}

#[test]
fn losing_every_node_abandons_the_leftover() {
    let arm = reference_arm_arch();
    let spec = ClusterSpec {
        trace: WorkloadTrace::batch("wipeout", demand()),
        assignments: vec![TypeAssignment {
            arch: arm.clone(),
            nodes: 2,
            cores: 4,
            freq: arm.platform.fmax(),
            units: 40_000,
        }],
        seed: 2,
    };
    // Both nodes die almost immediately — before either redistribution
    // could land on the other.
    let schedule = FaultSchedule::new().crash(0, 0, 1e-3).crash(0, 1, 2e-3);
    let m = run_cluster_faulted(&spec, &schedule, &RecoveryPolicy::default());
    assert!(m.abandoned_units > 0, "no survivor can absorb the work");
    assert!(m.completed_units < 40_000.0);
    let leftover: u64 = m.crashes.iter().map(|c| c.abandoned_units).sum();
    assert_eq!(leftover, m.abandoned_units);
}

#[test]
fn cascading_crashes_re_redistribute_transitively() {
    let spec = small_cluster(24_000, 17);
    let nominal = run_cluster(&spec);
    // First crash redistributes; one of its receivers dies later and its
    // leftover (own + injected share) is redistributed again.
    let schedule = FaultSchedule::new()
        .crash(0, 0, 0.25 * nominal.duration_s)
        .crash(0, 1, 0.75 * nominal.duration_s);
    let m = run_cluster_faulted(&spec, &schedule, &RecoveryPolicy::default());
    let total: u64 = spec.assignments.iter().map(|a| a.units).sum();
    assert_eq!(m.abandoned_units, 0);
    assert!(
        (m.completed_units - total as f64).abs() < 1e-6,
        "cascade must still conserve work: {} of {total}",
        m.completed_units
    );
    assert_eq!(m.crashes.len(), 2);
    // The second crash must not have been picked as a receiver of the
    // first (it dies before the job ends, after redelivery would land on
    // it only if it crashed later than the redistribution instant).
    for c in &m.crashes {
        for &(t, i, _) in &c.receivers {
            assert!(!(t == 0 && i == 0), "receiver crashed before redelivery");
        }
    }
}

#[test]
fn random_crash_schedules_are_seed_deterministic() {
    let a = FaultSchedule::random_crashes(42, &[2, 1], 2, 10.0);
    let b = FaultSchedule::random_crashes(42, &[2, 1], 2, 10.0);
    assert_eq!(a, b);
    let c = FaultSchedule::random_crashes(43, &[2, 1], 2, 10.0);
    assert_ne!(a, c, "different seeds should draw different schedules");
    // Distinct nodes, times inside the window.
    let mut targets: Vec<(usize, u32)> =
        a.events.iter().map(|e| (e.type_idx, e.node_idx)).collect();
    targets.sort_unstable();
    targets.dedup();
    assert_eq!(targets.len(), 2);
    for e in &a.events {
        assert!(e.fault.at_s > 0.0 && e.fault.at_s < 10.0);
    }
}

#[test]
#[should_panic(expected = "absent from the spec")]
fn fault_on_missing_node_is_rejected() {
    let spec = small_cluster(1_000, 1);
    let schedule = FaultSchedule::new().crash(0, 5, 0.1);
    let _ = run_cluster_faulted(&spec, &schedule, &RecoveryPolicy::default());
}
