//! Answers for model bundles at the edges of what the daemon serves: a
//! bundle whose options stop evaluating past a node count, a bundle whose
//! two platforms share a name, and a bundle whose platform names need
//! escaping in JSON.

use hecmix_core::persist::fnv1a;
use hecmix_core::profile::WorkloadModel;
use hecmix_core::types::Platform;
use hecmix_obs::json::{self, Value};
use hecmix_serve::api::{
    compute_plan, format_response, CachedCompute, CachedPlan, ComputeSpec, RespCtx,
};
use hecmix_serve::ModelStore;

/// The synthetic `ep` pair, `[ARM, AMD]`.
fn ep_pair() -> Vec<WorkloadModel> {
    let (arm, amd) = (Platform::reference_arm(), Platform::reference_amd());
    vec![
        WorkloadModel::synthetic_cpu_bound(&arm, "ep", 60.0),
        WorkloadModel::synthetic_cpu_bound(&amd, "ep", 40.0),
    ]
}

/// Status and body of one freshly computed answer.
fn answer(store: &ModelStore, spec: &ComputeSpec, ctx: &RespCtx) -> (u16, String) {
    let resp = match compute_plan(spec, store) {
        Ok((_, plan)) => format_response(ctx, store, &plan, false, false, 0),
        Err(resp) => resp,
    };
    (resp.status, resp.body)
}

fn frontier(arm: u32, amd: u32, k: Option<u32>) -> (ComputeSpec, RespCtx) {
    let (workload, units) = ("ep".to_owned(), 2e6);
    let spec = match k {
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
    let ctx = RespCtx::Frontier {
        workload,
        arm,
        amd,
        units,
        resilient_k: k,
    };
    (spec, ctx)
}

fn whatif(budget_w: f64, step_high: u32) -> (ComputeSpec, RespCtx) {
    let (workload, units) = ("ep".to_owned(), 2e6);
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
            deadline_ms: Some(5e4),
        },
    )
}

/// With `i_ps` at 1e-297, ARM lone runs take so little time that 42 nodes
/// of 4 cores at 1.4 GHz have an infinite rate: that option fails to
/// evaluate, and every ARM cap from 42 on reaches it. Each request must
/// still be answered on its own caps: a space that stops short of the
/// failing option answers as always, and one that reaches it gets the 422
/// that names it, whatever was asked before.
#[test]
fn failing_options_reject_only_the_requests_that_reach_them() {
    let mut models = ep_pair();
    models[0].profile.i_ps = 1e-297;
    let mut store = ModelStore::new();
    store.insert("ep", models);

    // The first ARM option whose lone run fails, as every reaching
    // request names it.
    let option = "mix-and-match solver failed: option NodeConfig { nodes: 42, cores: 4, \
                  freq: Frequency { hz: 1400000000.0 } } of `ARM Cortex-A9` has execution \
                  rate inf units/s";
    let overflow = format!("{{\"error\":\"model rejected: {option}\"}}");
    let empty = "{\"error\":\"model rejected: invalid model input: configuration space is \
                 empty (no node types or no deployable options)\"}";
    // Failing, passing and empty requests interleaved, largest caps first.
    let rejected = [
        frontier(512, 128, None),
        frontier(42, 0, None),
        frontier(42, 3, Some(1)),
        frontier(100, 7, None),
    ];
    let mut bodies = Vec::new();
    for (round, (spec, ctx)) in rejected.iter().enumerate() {
        assert_eq!(
            answer(&store, spec, ctx),
            (422, overflow.clone()),
            "{round}"
        );
        for arm in [0, 1, 17, 41] {
            for (spec, ctx) in [
                frontier(arm, 5, None),
                frontier(arm, 64, None),
                frontier(arm.min(10), 3, Some(2)),
            ] {
                let (status, body) = answer(&store, &spec, &ctx);
                assert_eq!(status, 200, "arm {arm}: {body}");
                bodies.push(body);
            }
        }
        let (spec, ctx) = frontier(0, 0, None);
        assert_eq!(answer(&store, &spec, &ctx), (422, empty.to_owned()));
    }
    let rounds: Vec<&[String]> = bodies.chunks(bodies.len() / rejected.len()).collect();
    assert!(rounds.windows(2).all(|w| w[0] == w[1]));
    assert_eq!(
        fnv1a(rounds[0].concat().as_bytes()),
        0xd6de8cc4095e7d0c,
        "digest of the passing answers"
    );

    // A ladder whose all-low rung stays below 42 ARM nodes answers; one
    // that reaches it names the same option.
    let (spec, ctx) = whatif(300.0, 2);
    let (status, body) = answer(&store, &spec, &ctx);
    assert_eq!(status, 200, "{body}");
    assert_eq!(
        fnv1a(body.as_bytes()),
        0xde51306e3500b0d3,
        "digest of the small ladder"
    );
    let (spec, ctx) = whatif(1000.0, 2);
    let (status, body) = answer(&store, &spec, &ctx);
    assert_eq!(
        (status, body),
        (
            422,
            format!("{{\"error\":\"rung sweep failed: {option}\"}}")
        )
    );
}

/// `/whatif` takes each rung's models from the bundle by position, so a
/// bundle whose two platforms carry one name gets the same rungs, labels
/// aside, as the bundle it was renamed from.
#[test]
fn whatif_rungs_take_models_by_position() {
    let mut original = ModelStore::new();
    original.insert("ep", ep_pair());
    let mut models = ep_pair();
    models[1].platform.name = models[0].platform.name.clone();
    let mut renamed = ModelStore::new();
    renamed.insert("ep", models);

    for (budget_w, step_high) in [(400.0, 1), (1000.0, 2), (650.0, 4)] {
        let (spec, ctx) = whatif(budget_w, step_high);
        let rungs = |store: &ModelStore| {
            let (status, body) = answer(store, &spec, &ctx);
            assert_eq!(status, 200, "{body}");
            let v = hecmix_obs::json::parse(&body).expect("JSON answer");
            let rungs = v.get("rungs").and_then(|r| r.as_array()).expect("rungs");
            rungs
                .iter()
                .map(|r| {
                    [
                        "arm",
                        "amd",
                        "min_time_ms",
                        "min_energy_j",
                        "deadline_energy_j",
                    ]
                    .map(|k| r.get(k).and_then(|x| x.as_f64()).map(f64::to_bits))
                })
                .collect::<Vec<_>>()
        };
        let want = rungs(&original);
        assert!(want.len() >= 2);
        assert_eq!(
            rungs(&renamed),
            want,
            "budget {budget_w} W, step {step_high}"
        );
    }
}

/// Labels are written into answers with each platform name escaped once
/// per answer, so a bundle whose names hold a quote, a backslash, control
/// characters and non-ASCII characters still answers JSON that parses, and
/// every `config` reads back as the point's `ClusterPoint::label`.
#[test]
fn platform_names_needing_escapes_answer_valid_json() {
    let mut models = ep_pair();
    models[0].platform.name = "ARM \"big\\LITTLE\"\nrev é".to_owned();
    models[1].platform.name = "AMD\tK10 \u{1} ⚡ 节点".to_owned();
    let mut store = ModelStore::new();
    store.insert("ep", models);
    let entry = store.get("ep").expect("just inserted");
    let platforms: Vec<Platform> = entry.models.iter().map(|m| m.platform.clone()).collect();
    let parsed = |ctx: &RespCtx, plan: &CachedPlan| {
        let body = format_response(ctx, &store, plan, false, false, 0).body;
        json::parse(&body).unwrap_or_else(|e| panic!("{e}: {body}"))
    };

    let mut labels = 0;
    for (arm, amd, k) in [(16, 14, None), (0, 8, None), (40, 0, None), (6, 5, Some(1))] {
        let (spec, ctx) = frontier(arm, amd, k);
        let (_, plan) = compute_plan(&spec, &store).expect("ep plans");
        let CachedCompute::Frontier(f) = &plan.compute else {
            panic!("a /frontier spec computes a frontier");
        };
        let v = parsed(&ctx, &plan);
        let points = v.get("points").and_then(Value::as_array).expect("points");
        assert_eq!(points.len(), f.len());
        for (got, want) in points.iter().zip(&f.points) {
            let label = want.config.label(&platforms);
            assert_eq!(
                got.get("config").and_then(Value::as_str),
                Some(label.as_str())
            );
            labels += 1;
        }
        if k.is_some() {
            continue;
        }

        // `/plan` at the deadline of the frontier's middle point.
        let deadline_ms = f.points[f.len() / 2].time_s * 1e3;
        let chosen = f
            .min_energy_for_deadline(deadline_ms / 1e3)
            .expect("the middle point meets its own time");
        let ctx = RespCtx::Plan {
            workload: "ep".to_owned(),
            arm,
            amd,
            units: 2e6,
            deadline_ms,
        };
        let v = parsed(&ctx, &plan);
        assert_eq!(v.get("feasible").and_then(Value::as_bool), Some(true));
        let label = chosen.config.label(&platforms);
        assert_eq!(
            v.get("config").and_then(Value::as_str),
            Some(label.as_str())
        );
    }
    assert!(labels > 20, "{labels} labels checked");
}
