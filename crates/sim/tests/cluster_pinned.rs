//! `run_cluster` pinned to captured bits: three fixed specs, one with a
//! zero-node type, one I/O-heavy and one with nodes left without work,
//! whose cluster totals, per-type aggregates, per-node durations and
//! per-core counters must reproduce exactly. Any change to node
//! flattening, seed derivation, idle top-up or aggregation order moves at
//! least one of these bits.

use hecmix_sim::{
    reference_a15_arch, reference_amd_arch, reference_arm_arch, run_cluster, ClusterMeasurement,
    ClusterSpec, TypeAssignment, UnitDemand, WorkloadTrace,
};

fn demand(io_bytes: f64) -> UnitDemand {
    UnitDemand {
        int_ops: 40.0,
        fp_ops: 12.0,
        simd_ops: 0.0,
        wide_mul_ops: 0.0,
        mem_ops: 9.0,
        llc_miss_rate: 0.01,
        branch_ops: 6.0,
        branch_miss_rate: 0.02,
        io_bytes,
    }
}

fn assignment(arch: hecmix_sim::NodeArch, nodes: u32, cores: u32, units: u64) -> TypeAssignment {
    let freq = arch.platform.fmax();
    TypeAssignment {
        arch,
        nodes,
        cores,
        freq,
        units,
    }
}

/// Three types, the middle one with no nodes; an odd unit count leaves a
/// remainder for the first ARM node.
fn three_type_spec() -> ClusterSpec {
    ClusterSpec {
        trace: WorkloadTrace::batch("pin-cpu", demand(0.0)),
        assignments: vec![
            assignment(reference_arm_arch(), 2, 2, 3_001),
            assignment(reference_amd_arch(), 0, 6, 0),
            assignment(reference_a15_arch(), 1, 2, 2_000),
        ],
        seed: 29,
    }
}

/// Two types whose NIC, not their cores, bounds the run.
fn io_heavy_spec() -> ClusterSpec {
    ClusterSpec {
        trace: WorkloadTrace::batch("pin-io", demand(2_048.0)),
        assignments: vec![
            assignment(reference_arm_arch(), 2, 2, 1_500),
            assignment(reference_amd_arch(), 1, 2, 1_200),
        ],
        seed: 5,
    }
}

/// Fewer units than nodes: the last node of each type gets no work and
/// only idles until the job ends.
fn workless_nodes_spec() -> ClusterSpec {
    ClusterSpec {
        trace: WorkloadTrace::batch("pin-sparse", demand(64.0)),
        assignments: vec![
            assignment(reference_arm_arch(), 4, 2, 3),
            assignment(reference_amd_arch(), 2, 1, 1),
        ],
        seed: 77,
    }
}

/// Every pinned value of a run, named, as raw `f64` bits.
fn fingerprint(m: &ClusterMeasurement) -> Vec<(String, u64)> {
    let mut out = vec![
        ("duration_s".to_owned(), m.duration_s.to_bits()),
        (
            "measured_energy_j".to_owned(),
            m.measured_energy_j.to_bits(),
        ),
        ("true_energy_j".to_owned(), m.true_energy_j.to_bits()),
        ("completed_units".to_owned(), m.completed_units.to_bits()),
    ];
    for (t, tm) in m.per_type.iter().enumerate() {
        out.push((format!("t{t}.duration_s"), tm.duration_s.to_bits()));
        out.push((
            format!("t{t}.measured_energy_j"),
            tm.measured_energy_j.to_bits(),
        ));
        out.push((format!("t{t}.energy_j"), tm.energy.total_j().to_bits()));
        for (n, d) in tm.node_durations_s.iter().enumerate() {
            out.push((format!("t{t}.n{n}.duration_s"), d.to_bits()));
        }
        for (c, core) in tm.counters.cores.iter().enumerate() {
            out.push((format!("t{t}.c{c}.cycles"), core.cycles.to_bits()));
            out.push((format!("t{t}.c{c}.busy_s"), core.busy_s.to_bits()));
            out.push((format!("t{t}.c{c}.units_done"), core.units_done.to_bits()));
        }
    }
    out
}

fn assert_pinned(m: &ClusterMeasurement, pinned: &[(&str, u64)]) {
    let want: Vec<(String, u64)> = pinned.iter().map(|&(k, v)| (k.to_owned(), v)).collect();
    assert_eq!(fingerprint(m), want);
    assert!(m.crashes.is_empty());
    assert_eq!(m.abandoned_units, 0);
}

#[test]
fn three_type_cluster_with_an_empty_type_is_pinned() {
    let m = run_cluster(&three_type_spec());
    assert_pinned(&m, THREE_TYPE);
}

#[test]
fn io_heavy_cluster_is_pinned() {
    let m = run_cluster(&io_heavy_spec());
    assert_pinned(&m, IO_HEAVY);
}

#[test]
fn cluster_with_workless_nodes_is_pinned() {
    let m = run_cluster(&workless_nodes_spec());
    assert_pinned(&m, WORKLESS_NODES);
}

const THREE_TYPE: &[(&str, u64)] = &[
    ("duration_s", 0x3f0f890941c99a4b),
    ("measured_energy_j", 0x3f48303dbb701ec2),
    ("true_energy_j", 0x3f4827f48558785c),
    ("completed_units", 0x40b3890000000000),
    ("t0.duration_s", 0x3f0f890941c99a4b),
    ("t0.measured_energy_j", 0x3f397a7f61d6620c),
    ("t0.energy_j", 0x3f38fda2cd52de4f),
    ("t0.n0.duration_s", 0x3f0f890941c99a4b),
    ("t0.n1.duration_s", 0x3f0f10e7aa0033b3),
    ("t0.c0.cycles", 0x410467dcbca2d57e),
    ("t0.c0.busy_s", 0x3f1f4cf875e4e6ff),
    ("t0.c0.units_done", 0x4097740000000000),
    ("t0.c1.cycles", 0x410463a80b90fc4b),
    ("t0.c1.busy_s", 0x3f1f4684e7ac340c),
    ("t0.c1.units_done", 0x4097700000000000),
    ("t1.duration_s", 0x0000000000000000),
    ("t1.measured_energy_j", 0x0000000000000000),
    ("t1.energy_j", 0x0000000000000000),
    ("t1.c0.cycles", 0x0000000000000000),
    ("t1.c0.busy_s", 0x0000000000000000),
    ("t1.c0.units_done", 0x0000000000000000),
    ("t1.c1.cycles", 0x0000000000000000),
    ("t1.c1.busy_s", 0x0000000000000000),
    ("t1.c1.units_done", 0x0000000000000000),
    ("t1.c2.cycles", 0x0000000000000000),
    ("t1.c2.busy_s", 0x0000000000000000),
    ("t1.c2.units_done", 0x0000000000000000),
    ("t1.c3.cycles", 0x0000000000000000),
    ("t1.c3.busy_s", 0x0000000000000000),
    ("t1.c3.units_done", 0x0000000000000000),
    ("t1.c4.cycles", 0x0000000000000000),
    ("t1.c4.busy_s", 0x0000000000000000),
    ("t1.c4.units_done", 0x0000000000000000),
    ("t1.c5.cycles", 0x0000000000000000),
    ("t1.c5.busy_s", 0x0000000000000000),
    ("t1.c5.units_done", 0x0000000000000000),
    ("t2.duration_s", 0x3f06e526f7497f81),
    ("t2.measured_energy_j", 0x3f36e5fc1509db79),
    ("t2.energy_j", 0x3f33ffcb80779668),
    ("t2.n0.duration_s", 0x3f06e526f7497f81),
    ("t2.c0.cycles", 0x40f54ca70974f30f),
    ("t2.c0.busy_s", 0x3f06debdb40572b8),
    ("t2.c0.units_done", 0x408f380000000000),
    ("t2.c1.cycles", 0x40f5529f94fdc6e6),
    ("t2.c1.busy_s", 0x3f06e526f7497f81),
    ("t2.c1.units_done", 0x408f480000000000),
];

const IO_HEAVY: &[(&str, u64)] = &[
    ("duration_s", 0x3fbf7511a0731fe5),
    ("measured_energy_j", 0x4017e19966315296),
    ("true_energy_j", 0x4017f2995e6945da),
    ("completed_units", 0x40a5180000000000),
    ("t0.duration_s", 0x3fbf7511a0731fe5),
    ("t0.measured_energy_j", 0x3fdad0f265999384),
    ("t0.energy_j", 0x3fdabeca237a5330),
    ("t0.n0.duration_s", 0x3fbf7511a0731fe5),
    ("t0.n1.duration_s", 0x3fbf75119af3388a),
    ("t0.c0.cycles", 0x40f43f676fb3209c),
    ("t0.c0.busy_s", 0x3f0f0ee938e7d3f8),
    ("t0.c0.units_done", 0x4087680000000000),
    ("t0.c1.cycles", 0x40f44d363d5daa5e),
    ("t0.c1.busy_s", 0x3f0f24175120b2a2),
    ("t0.c1.units_done", 0x4087780000000000),
    ("t1.duration_s", 0x3f9421fa9aaeb584),
    ("t1.measured_energy_j", 0x4016348a3fd7b95e),
    ("t1.energy_j", 0x3fed92ab2394bef6),
    ("t1.n0.duration_s", 0x3f9421fa9aaeb584),
    ("t1.c0.cycles", 0x40e5902ef948e5a3),
    ("t1.c0.busy_s", 0x3ef60d007602e628),
    ("t1.c0.units_done", 0x4082d00000000000),
    ("t1.c1.cycles", 0x40e56c6d3f6ab093),
    ("t1.c1.busy_s", 0x3ef5e86fc1f51fa9),
    ("t1.c1.units_done", 0x4082b00000000000),
];

const WORKLESS_NODES: &[(&str, u64)] = &[
    ("duration_s", 0x3ed5cef117ecfaea),
    ("measured_energy_j", 0x3f407f31be688a2c),
    ("true_energy_j", 0x3f407b4f494b1ac0),
    ("completed_units", 0x4010000000000000),
    ("t0.duration_s", 0x3ed5cef117ecfaea),
    ("t0.measured_energy_j", 0x3f01e5cd22092c4c),
    ("t0.energy_j", 0x3efbeef3f2818b00),
    ("t0.n0.duration_s", 0x3ed5cd23762edf7a),
    ("t0.n1.duration_s", 0x3ed5cef117ecfaea),
    ("t0.n2.duration_s", 0x3ed5cdc297e5b1ff),
    ("t0.n3.duration_s", 0x0000000000000000),
    ("t0.c0.cycles", 0x4074a174583eb257),
    ("t0.c0.busy_s", 0x3e8fa54fedfcf6c6),
    ("t0.c0.units_done", 0x4008000000000000),
    ("t0.c1.cycles", 0x0000000000000000),
    ("t0.c1.busy_s", 0x0000000000000000),
    ("t0.c1.units_done", 0x0000000000000000),
    ("t1.duration_s", 0x3ea25aed57f11349),
    ("t1.measured_energy_j", 0x3f3ec1a9d88feece),
    ("t1.energy_j", 0x3efaf78f58d3ee09),
    ("t1.n0.duration_s", 0x3ea25aed57f11349),
    ("t1.n1.duration_s", 0x0000000000000000),
    ("t1.c0.cycles", 0x405263a4ded1d66e),
    ("t1.c0.busy_s", 0x3e62ce16fca3cb3d),
    ("t1.c0.units_done", 0x3ff0000000000000),
];
