//! Pins the rate-table fold and pruning bit for bit.
//!
//! The expected values are `to_bits()` literals captured from the
//! straightforward per-point fold (decode every flat index, evaluate it,
//! binary-search insert into the partial frontier) and the stable-sort
//! pruning pass. Any change to the kernel's summation order, its
//! tie-breaking, its dominance skips or the pruned option order moves a
//! digest here.

use hecmix_core::config::{ClusterPoint, ConfigSpace, NodeConfig};
use hecmix_core::pareto::ParetoFrontier;
use hecmix_core::profile::WorkloadModel;
use hecmix_core::rate_table::RateTable;
use hecmix_core::types::{Frequency, Platform};

/// FNV-1a over little-endian 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn node(&mut self, c: &NodeConfig) {
        self.word(u64::from(c.nodes));
        self.word(u64::from(c.cores));
        self.word(c.freq.hz().to_bits());
    }

    fn config(&mut self, p: &ClusterPoint) {
        for slot in &p.per_type {
            match slot {
                None => self.word(0),
                Some(c) => {
                    self.word(1);
                    self.node(c);
                }
            }
        }
    }
}

/// What the pin records about one table and its frontier.
#[derive(Debug, PartialEq, Eq)]
struct Pin {
    /// Options kept per type.
    kept: Vec<usize>,
    /// FNV-1a over every kept option's knobs, rate and power bits, in
    /// table order.
    options: u64,
    /// `PruneStats` as `[total_options, kept_options, evaluated_configs,
    /// full_space]`.
    stats: [u64; 4],
    /// Frontier length.
    len: usize,
    /// `(time, energy)` bits of the first and last frontier points.
    first: (u64, u64),
    last: (u64, u64),
    /// FNV-1a over every frontier point's time bits, energy bits and
    /// decoded configuration, in frontier order.
    points: u64,
}

impl Pin {
    /// The pin as a Rust literal, for the failure message.
    fn literal(&self) -> String {
        let kept: Vec<String> = self.kept.iter().map(|k| k.to_string()).collect();
        format!(
            "Pin {{ kept: vec![{}], options: {:#018x}, stats: {:?}, len: {}, \
             first: ({:#018x}, {:#018x}), last: ({:#018x}, {:#018x}), points: {:#018x} }}",
            kept.join(", "),
            self.options,
            self.stats,
            self.len,
            self.first.0,
            self.first.1,
            self.last.0,
            self.last.1,
            self.points
        )
    }
}

fn pin(space: &ConfigSpace, models: &[WorkloadModel], w: f64, pruned: bool) -> Pin {
    let table = if pruned {
        RateTable::build_pruned(space, models).unwrap()
    } else {
        RateTable::build(space, models).unwrap()
    };
    let mut h = Fnv::new();
    for opts in table.options() {
        for o in opts {
            h.node(&o.cfg);
            h.word(o.rate.to_bits());
            h.word(o.power_w.to_bits());
        }
    }
    let stats = table.prune_stats();
    let frontier: ParetoFrontier = table.frontier(w).unwrap();
    let mut p = Fnv::new();
    for pt in &frontier.points {
        p.word(pt.time_s.to_bits());
        p.word(pt.energy_j.to_bits());
        p.config(&pt.config);
    }
    let bits = |i: usize| {
        let pt = &frontier.points[i];
        (pt.time_s.to_bits(), pt.energy_j.to_bits())
    };
    Pin {
        kept: table.options().iter().map(Vec::len).collect(),
        options: h.0,
        stats: [
            stats.total_options as u64,
            stats.kept_options as u64,
            stats.evaluated_configs,
            stats.full_space,
        ],
        len: frontier.len(),
        first: bits(0),
        last: bits(frontier.len() - 1),
        points: p.0,
    }
}

fn cpu_models(platforms: &[&Platform]) -> Vec<WorkloadModel> {
    platforms
        .iter()
        .enumerate()
        .map(|(i, p)| WorkloadModel::synthetic_cpu_bound(p, "pin", 40.0 + 20.0 * i as f64))
        .collect()
}

/// A third node type between the two reference platforms.
fn mid_platform() -> Platform {
    Platform {
        name: "ARM Cortex-A15".to_owned(),
        cores: 4,
        freqs: vec![
            Frequency::from_ghz(0.6),
            Frequency::from_ghz(1.2),
            Frequency::from_ghz(1.8),
        ],
        peak_power_w: 9.0,
        idle_power_w: 2.6,
        ..Platform::reference_arm()
    }
}

#[test]
fn pruned_cpu_bound_512x128() {
    let (arm, amd) = (Platform::reference_arm(), Platform::reference_amd());
    let models = cpu_models(&[&arm, &amd]);
    let space = ConfigSpace::two_type(arm, 512, amd, 128);
    let got = pin(&space, &models, 1e8, true);
    assert_eq!(
        got,
        Pin {
            kept: vec![571, 144],
            options: 0xca3170fcf4aacd81,
            stats: [12546, 717, 82939, 23605504],
            len: 142,
            first: (0x3f559c427e56710a, 0x402a80ff55c6d0ca),
            last: (0x3f5fb1fb1fb1fb1e, 0x401162be2be2be2a),
            points: 0x86ff9fb7da3e67e1
        },
        "got {}",
        got.literal()
    );
}

#[test]
fn pruned_io_bound_512x128() {
    let (arm, amd) = (Platform::reference_arm(), Platform::reference_amd());
    let models = vec![
        WorkloadModel::synthetic_io_bound(&arm, "pin", 1000.0, 512.0),
        WorkloadModel::synthetic_io_bound(&amd, "pin", 700.0, 512.0),
    ];
    let space = ConfigSpace::two_type(arm, 512, amd, 128);
    // The premise: the NIC bounds every option, so all (cores, freq)
    // options of one node count tie on rate.
    let table = RateTable::build(&space, &models).unwrap();
    for opts in table.options() {
        for same_nodes in opts.chunk_by(|a, b| a.cfg.nodes == b.cfg.nodes) {
            let rate = same_nodes[0].rate;
            assert!(same_nodes.iter().all(|o| o.rate == rate), "{same_nodes:?}");
        }
    }
    let got = pin(&space, &models, 5e6, true);
    assert_eq!(
        got,
        Pin {
            kept: vec![512, 128],
            options: 0x32e383a318165fca,
            stats: [12546, 642, 66176, 23605504],
            len: 132,
            first: (0x3fbd41d41d41d41d, 0x408917f260582f4c),
            last: (0x3fe5fdf0317b5c6f, 0x40791b09086d295f),
            points: 0x970372c14dc8d953
        },
        "got {}",
        got.literal()
    );
}

#[test]
fn unpruned_paper_space_10x10() {
    let (arm, amd) = (Platform::reference_arm(), Platform::reference_amd());
    let models = cpu_models(&[&arm, &amd]);
    let space = ConfigSpace::two_type(arm, 10, amd, 10);
    assert_eq!(space.count(), 36_380);
    let got = pin(&space, &models, 2e6, false);
    assert_eq!(
        got,
        Pin {
            kept: vec![200, 180],
            options: 0x4bac685309d34930,
            stats: [382, 382, 36380, 36380],
            len: 13,
            first: (0x3f485789912c8786, 0x3fdea430eafe4d97),
            last: (0x3f5e6d6bf577a967, 0x3fb640f36b5fabbd),
            points: 0x2bc911ce323bff81
        },
        "got {}",
        got.literal()
    );
}

#[test]
fn pruned_three_types() {
    let (arm, mid, amd) = (
        Platform::reference_arm(),
        mid_platform(),
        Platform::reference_amd(),
    );
    let models = cpu_models(&[&arm, &mid, &amd]);
    let space = ConfigSpace::new(
        [(arm, 32), (mid, 16), (amd, 8)]
            .into_iter()
            .map(|(platform, max_nodes)| hecmix_core::config::TypeBounds {
                platform,
                max_nodes,
            })
            .collect(),
    );
    let got = pin(&space, &models, 3e7, true);
    assert_eq!(
        got,
        Pin {
            kept: vec![73, 36, 24],
            options: 0x23b65288961b9474,
            stats: [979, 136, 68449, 17938384],
            len: 50,
            first: (0x3f74dab3ef6c6a69, 0x400f00d42de12575),
            last: (0x3f830463796ac9df, 0x3ff4dce434a9b100),
            points: 0x6f7859d5b94b563d
        },
        "got {}",
        got.literal()
    );
}

#[test]
fn pruned_one_type_arm_zero() {
    let (arm, amd) = (Platform::reference_arm(), Platform::reference_amd());
    let models = cpu_models(&[&arm, &amd]);
    let space = ConfigSpace::two_type(arm, 0, amd, 128);
    let got = pin(&space, &models, 1e8, true);
    assert_eq!(
        got,
        Pin {
            kept: vec![0, 144],
            options: 0x0d2f80e3d76ecbd4,
            stats: [2306, 146, 144, 2304],
            len: 2,
            first: (0x3f73cf3cf3cf3cf4, 0x4042800000000000),
            last: (0x3f7448f2a3a51b99, 0x40427fffffffffff),
            points: 0x429433d3c16ce788
        },
        "got {}",
        got.literal()
    );
}
