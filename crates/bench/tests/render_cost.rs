//! CI gate on the cost of rendering an answer. The planning daemon writes
//! a `/frontier` answer into one buffer: each number, label and point goes
//! straight into the answer, and one `Labeler` formats each distinct
//! frequency once. `hecmix_check::reference::FrontierAnswer` renders the
//! same answer the plain way, one `Object` and one `String` per point,
//! number and label. On the largest answer `cold` asks for, Lab `x264` at
//! 512 × 128 nodes (639 points), the two must give the same bytes, and the
//! daemon's render must take at most 0.5× the reference's in release
//! (read 0.21–0.25) and 0.6× in debug (read 0.41–0.49). A debug build
//! leaves the hand-written writers unoptimized but links std's float
//! formatting, which both paths share and the reference leans on,
//! optimized, so the ratio is higher there. Both are timed alternately on
//! the same machine, so runner speed cannot flap the gate.

use hecmix_bench::best_of;
use hecmix_check::reference::FrontierAnswer;
use hecmix_experiments::Lab;
use hecmix_serve::api::{compute_plan, format_response, CachedCompute, ComputeSpec, RespCtx};
use hecmix_serve::ModelStore;

/// Renders per timed call, so one call is long enough to time.
const RENDERS: usize = 20;

/// The largest ratio of the one-buffer render to the reference.
const BOUND: f64 = if cfg!(debug_assertions) { 0.6 } else { 0.5 };

#[test]
fn one_buffer_frontier_render_stays_cheap() {
    let lab = Lab::new();
    let x264 = hecmix_workloads::all_workloads()
        .into_iter()
        .find(|w| w.name() == "x264")
        .expect("x264 is a Lab workload");
    let mut store = ModelStore::new();
    store.insert("x264", lab.models(x264.as_ref()).to_vec());
    let entry = store.get("x264").expect("just inserted");
    let (workload, arm, amd, units) = ("x264".to_owned(), 512, 128, entry.default_units);
    let spec = ComputeSpec::Frontier {
        workload: workload.clone(),
        arm,
        amd,
        units,
    };
    let ctx = RespCtx::Frontier {
        workload: workload.clone(),
        arm,
        amd,
        units,
        resilient_k: None,
    };
    let (_, plan) = compute_plan(&spec, &store).expect("x264 plans at 512 × 128");
    let CachedCompute::Frontier(frontier) = &plan.compute else {
        panic!("a /frontier spec computes a frontier");
    };
    assert!(frontier.len() >= 300, "{} points", frontier.len());
    let platforms: Vec<_> = entry.models.iter().map(|m| m.platform.clone()).collect();
    let reference = FrontierAnswer {
        workload: &workload,
        arm,
        amd,
        units,
        resilient_k: None,
        frontier,
        platforms: &platforms,
        cached: false,
        coalesced: false,
        compute_us: plan.compute_us,
    };
    let render = || format_response(&ctx, &store, &plan, false, false, plan.compute_us).body;
    assert_eq!(render(), reference.render());

    let (one_buffer, per_point) = best_of(
        7,
        || (0..RENDERS).map(|_| render().len()).sum::<usize>(),
        || {
            (0..RENDERS)
                .map(|_| reference.render().len())
                .sum::<usize>()
        },
    );
    let ratio = one_buffer.as_secs_f64() / per_point.as_secs_f64();
    println!(
        "{} points: one buffer {:?}, per-point reference {:?} per answer ({ratio:.3}×)",
        frontier.len(),
        one_buffer / RENDERS as u32,
        per_point / RENDERS as u32
    );
    assert!(
        ratio <= BOUND,
        "the one-buffer render took {one_buffer:?}, the per-point reference {per_point:?}"
    );
}
