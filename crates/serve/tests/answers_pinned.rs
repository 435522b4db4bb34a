//! Pins every answer kind of the planning daemon bit for bit.
//!
//! A seeded set of requests per kind runs over the six `Lab` workloads
//! through `compute_plan` and `format_response`, as a fresh miss would:
//! not cached, not coalesced, `compute_us` 0. The kinds are `/plan` with
//! `deadline_ms`, the p99 `/plan`, `/frontier`, `/frontier` with
//! `resilient_k` 1 and 2, and `/whatif` with `step_high` 2 and 4. Node
//! caps follow the `cold` benchmark mix: 128–512 ARM × 32–128 AMD for the
//! plans and frontiers, 4–10 × 4–10 for the k-degraded frontiers (whose
//! table is unpruned), and each capped kind also answers once with either
//! side capped at 0. Each kind's status codes and bodies, in request order,
//! fold into one FNV-1a digest, so any change to a table, a fold, a
//! planner or the wire format moves a digest here.

use hecmix_core::persist::fnv1a;
use hecmix_experiments::Lab;
use hecmix_serve::api::{compute_plan, format_response, ComputeSpec, RespCtx};
use hecmix_serve::router::splitmix64;
use hecmix_serve::ModelStore;

/// SplitMix64 stream for the request parameters.
struct Rng(u64);

impl Rng {
    fn next_u64(&mut self) -> u64 {
        self.0 = splitmix64(self.0);
        self.0
    }

    /// Uniform integer in `lo..=hi`.
    fn range(&mut self, lo: u32, hi: u32) -> u32 {
        lo + (self.next_u64() % u64::from(hi - lo + 1)) as u32
    }

    /// Uniform in `[lo, hi)`.
    fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * ((self.next_u64() >> 11) as f64 / (1u64 << 53) as f64)
    }
}

/// The answer kinds, in pin order.
#[derive(Debug, Clone, Copy)]
enum Kind {
    Plan,
    TailPlan,
    Frontier,
    Resilient(u32),
    Whatif(u32),
}

const KINDS: [Kind; 7] = [
    Kind::Plan,
    Kind::TailPlan,
    Kind::Frontier,
    Kind::Resilient(1),
    Kind::Resilient(2),
    Kind::Whatif(2),
    Kind::Whatif(4),
];

/// One request as the daemon would derive it from a body.
fn request(
    kind: Kind,
    rng: &mut Rng,
    workload: &str,
    base_units: f64,
    zero_side: Option<usize>,
) -> (ComputeSpec, RespCtx) {
    let workload = workload.to_owned();
    let units = base_units * rng.uniform(0.5, 1.5);
    let (lo, hi) = match kind {
        Kind::Resilient(_) => ((4, 10), (4, 10)),
        _ => ((128, 512), (32, 128)),
    };
    let mut caps = [rng.range(lo.0, lo.1), rng.range(hi.0, hi.1)];
    if let Some(side) = zero_side {
        caps[side] = 0;
    }
    let [arm, amd] = caps;
    match kind {
        Kind::Plan => (
            ComputeSpec::Frontier {
                workload: workload.clone(),
                arm,
                amd,
                units,
            },
            RespCtx::Plan {
                workload,
                arm,
                amd,
                units,
                deadline_ms: rng.uniform(1e4, 3e5),
            },
        ),
        Kind::TailPlan => {
            let (lambda, p99_s, window_s) = (rng.uniform(0.05, 0.5), rng.uniform(10.0, 60.0), 20.0);
            (
                ComputeSpec::TailPlan {
                    workload: workload.clone(),
                    arm,
                    amd,
                    units,
                    lambda,
                    p99_s,
                    window_s,
                },
                RespCtx::TailPlan {
                    workload,
                    arm,
                    amd,
                    units,
                    lambda,
                    p99_s,
                    window_s,
                },
            )
        }
        Kind::Frontier | Kind::Resilient(_) => {
            let resilient_k = match kind {
                Kind::Resilient(k) => Some(k),
                _ => None,
            };
            let spec = match resilient_k {
                None => ComputeSpec::Frontier {
                    workload: workload.clone(),
                    arm,
                    amd,
                    units,
                },
                Some(k) => ComputeSpec::ResilientFrontier {
                    workload: workload.clone(),
                    arm,
                    amd,
                    units,
                    k,
                },
            };
            (
                spec,
                RespCtx::Frontier {
                    workload,
                    arm,
                    amd,
                    units,
                    resilient_k,
                },
            )
        }
        Kind::Whatif(step_high) => {
            let budget_w = rng.uniform(200.0, 1000.0);
            (
                ComputeSpec::Whatif {
                    workload: workload.clone(),
                    budget_w,
                    units,
                    step_high,
                },
                RespCtx::Whatif {
                    workload,
                    budget_w,
                    units,
                    step_high,
                    deadline_ms: Some(rng.uniform(1e4, 3e5)),
                },
            )
        }
    }
}

/// What the pin records about one kind's answers.
#[derive(Debug, PartialEq, Eq)]
struct Pin {
    /// Answers with status 200.
    ok: usize,
    /// Answers with any other status.
    rejected: usize,
    /// FNV-1a over every answer's status and body, in request order.
    digest: u64,
}

#[test]
fn every_answer_kind_is_pinned() {
    let lab = Lab::new();
    let mut store = ModelStore::new();
    for w in hecmix_workloads::all_workloads() {
        store.insert(w.name(), lab.models(w.as_ref()).to_vec());
    }
    let names = store.names();
    assert_eq!(names.len(), 6);

    let mut got = Vec::new();
    for (k, kind) in KINDS.into_iter().enumerate() {
        let mut rng = Rng(0x5eed_0000 + k as u64);
        let mut bytes = Vec::new();
        let (mut ok, mut rejected) = (0, 0);
        // One request per workload, then one per side capped at 0.
        let cases = names
            .iter()
            .map(|n| (n, None))
            .chain([(&names[0], Some(0)), (&names[1], Some(1))]);
        for (name, zero_side) in cases {
            let units = store.get(name).expect("loaded").default_units;
            let (spec, ctx) = request(kind, &mut rng, name, units, zero_side);
            let resp = match compute_plan(&spec, &store) {
                Ok((_, plan)) => format_response(&ctx, &store, &plan, false, false, 0),
                Err(resp) => resp,
            };
            if resp.status == 200 {
                ok += 1;
            } else {
                rejected += 1;
            }
            bytes.extend_from_slice(&resp.status.to_le_bytes());
            bytes.extend_from_slice(resp.body.as_bytes());
            bytes.push(b'\n');
        }
        got.push(Pin {
            ok,
            rejected,
            digest: fnv1a(&bytes),
        });
    }
    let literal: Vec<String> = got
        .iter()
        .map(|p| {
            format!(
                "Pin {{ ok: {}, rejected: {}, digest: {:#018x} }},",
                p.ok, p.rejected, p.digest
            )
        })
        .collect();
    let want = [
        Pin {
            ok: 8,
            rejected: 0,
            digest: 0xfb71d4a42ac417c7,
        },
        Pin {
            ok: 8,
            rejected: 0,
            digest: 0xb29d427b42f87ee8,
        },
        Pin {
            ok: 8,
            rejected: 0,
            digest: 0x1d59e945f1697be1,
        },
        Pin {
            ok: 8,
            rejected: 0,
            digest: 0xf5bb1c199d17c73f,
        },
        Pin {
            ok: 8,
            rejected: 0,
            digest: 0xbc73156b4ea895d7,
        },
        Pin {
            ok: 8,
            rejected: 0,
            digest: 0x22ad9f4eb6017f2e,
        },
        Pin {
            ok: 8,
            rejected: 0,
            digest: 0x5124435e3179b876,
        },
    ];
    assert_eq!(got, want, "got\n{}", literal.join("\n"));
}
