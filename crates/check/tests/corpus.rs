//! Pinned regression corpus (ISSUE 4, satellite 5): every numeric
//! edge-case bug fixed in this change set is pinned as a corpus file under
//! `tests/corpus/`, replayed here against the library. Each case fails on
//! the pre-fix code (with a panic, a hang, a silent wrong answer, or a
//! spurious debug assertion) and must stay fixed.

use std::collections::HashMap;
use std::path::PathBuf;

use hecmix_core::config::{ClusterPoint, NodeConfig};
use hecmix_core::error::Error;
use hecmix_core::mix_match::match_two_numeric;
use hecmix_core::pareto::{ParetoFrontier, ParetoPoint};
use hecmix_core::profile::WorkloadModel;
use hecmix_core::types::{Frequency, Platform};

fn corpus_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/corpus")
        .join(name)
}

/// Parse a corpus `.case` file: `key = value` lines, `#` comments.
fn parse_case(name: &str) -> HashMap<String, String> {
    let text = std::fs::read_to_string(corpus_path(name))
        .unwrap_or_else(|e| panic!("cannot read corpus file {name}: {e}"));
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| {
            let (k, v) = l
                .split_once('=')
                .unwrap_or_else(|| panic!("bad line {l:?}"));
            (k.trim().to_owned(), v.trim().to_owned())
        })
        .collect()
}

fn get_f64(case: &HashMap<String, String>, key: &str) -> f64 {
    case[key].parse().unwrap_or_else(|e| {
        panic!("corpus key {key} = {:?} is not a number: {e}", case[key]);
    })
}

/// Parse a whitespace-separated list of floats (accepts `nan`/`inf`).
fn f64_list(raw: &str) -> Vec<f64> {
    raw.split_whitespace()
        .map(|t| t.parse().unwrap_or_else(|e| panic!("bad float {t:?}: {e}")))
        .collect()
}

#[test]
fn bisection_stall_reports_non_convergence() {
    let case = parse_case("bisection_stall.case");
    let (w, tol) = (get_f64(&case, "w"), get_f64(&case, "tol"));
    match match_two_numeric(|x| x, |x| x, w, tol) {
        Err(Error::MatchingFailed(_)) => {}
        other => panic!("expected MatchingFailed, got {other:?}"),
    }
}

#[test]
fn nonzero_origin_is_rejected() {
    let case = parse_case("nonzero_origin.case");
    let (w, offset) = (get_f64(&case, "w"), get_f64(&case, "offset"));
    for (a_off, b_off) in [(offset, 0.0), (0.0, offset)] {
        match match_two_numeric(|x| x + a_off, |x| x + b_off, w, 1e-9) {
            Err(Error::InvalidInput(_)) => {}
            other => panic!("expected InvalidInput for offset curves, got {other:?}"),
        }
    }
}

#[test]
fn pareto_tie_keeps_the_canonical_config_in_both_orders() {
    let case = parse_case("pareto_tie.case");
    let (time_s, energy_j) = (get_f64(&case, "time_s"), get_f64(&case, "energy_j"));
    let mk = |nodes: f64| ParetoPoint {
        time_s,
        energy_j,
        config: ClusterPoint::new(vec![
            Some(NodeConfig::new(
                nodes as u32,
                1,
                Platform::reference_arm().fmax(),
            )),
            None,
        ]),
    };
    let a = mk(get_f64(&case, "nodes_a"));
    let b = mk(get_f64(&case, "nodes_b"));
    let expect = get_f64(&case, "expect_nodes") as u32;
    for pts in [vec![a.clone(), b.clone()], vec![b, a]] {
        let frontier = ParetoFrontier::from_points(pts);
        assert_eq!(frontier.len(), 1, "tied points must dedup to one");
        let survivor = frontier.points[0].config.per_type[0].expect("type used");
        assert_eq!(survivor.nodes, expect, "survivor must be canonical");
    }
}

#[test]
fn window_energy_rejects_every_nonfinite_input() {
    let case = parse_case("window_nonfinite.case");
    for (key, raw) in &case {
        let vals = f64_list(raw);
        assert_eq!(vals.len(), 3, "{key} must be (window_s, energy_j, power_w)");
        assert!(
            hecmix_queueing::window_energy(1.0, vals[0], 0.1, vals[1], vals[2]).is_err(),
            "{key} = {raw} must be rejected"
        );
    }
}

#[test]
fn diurnal_profile_rejects_every_nonfinite_input() {
    let case = parse_case("diurnal_nonfinite.case");
    for (key, raw) in &case {
        let vals = f64_list(raw);
        assert_eq!(vals.len(), 2, "{key} must be (base_lambda, slot_s)");
        assert!(
            hecmix_queueing::dispatch::DiurnalProfile::new(vals[0], 0.5, 24, vals[1]).is_err(),
            "{key} = {raw} must be rejected"
        );
    }
}

#[test]
fn power_budget_rejects_every_nonfinite_wattage() {
    let case = parse_case("budget_nonfinite.case");
    let arm = Platform::reference_arm();
    let amd = Platform::reference_amd();
    for watts in f64_list(&case["watts"]) {
        match hecmix_core::budget::PowerBudget::new(watts).substitution_ladder(&arm, &amd, 1) {
            Err(Error::InvalidInput(_)) => {}
            other => panic!("watts = {watts} must be InvalidInput, got {other:?}"),
        }
    }
}

#[test]
fn corrupt_model_files_fail_to_load_without_panicking() {
    for name in [
        "empty_spi_mem.model",
        "nan_frequency.model",
        "nonmonotone_opp.model",
        "sleep_above_idle.model",
        "negative_opp_power.model",
        "nan_opp_power.model",
    ] {
        match hecmix_core::persist::load(&corpus_path(name)) {
            Err(Error::InvalidInput(_)) => {}
            other => panic!("{name} must load as InvalidInput, got {other:?}"),
        }
    }
}

/// FNV-1a over the model's content hash, the bits of every option of its
/// single-type rate table, and its frontier's times, energies and
/// configurations; plus the frontier's length.
fn frontier_fingerprint(model: &WorkloadModel) -> (usize, u64) {
    use hecmix_core::config::{ConfigSpace, TypeBounds};
    let space = ConfigSpace::new(vec![TypeBounds {
        platform: model.platform.clone(),
        max_nodes: 4,
    }]);
    let models = std::slice::from_ref(model);
    let table = hecmix_core::rate_table::RateTable::build(&space, models).expect("valid space");
    let frontier = table.frontier(1e6).expect("valid work");
    let node = |c: &NodeConfig| {
        [
            u64::from(c.nodes),
            u64::from(c.cores),
            c.freq.hz().to_bits(),
        ]
    };
    let mut words = vec![model.content_hash()];
    for o in &table.options()[0] {
        words.extend(node(&o.cfg));
        words.extend([o.rate.to_bits(), o.power_w.to_bits()]);
    }
    for p in &frontier.points {
        words.extend([p.time_s.to_bits(), p.energy_j.to_bits()]);
        words.extend(node(&p.config.per_type[0].expect("one type")));
    }
    let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
    (frontier.len(), hecmix_core::persist::fnv1a(&bytes))
}

#[test]
fn two_point_model_with_a_zero_watt_pstate_prices_as_pinned() {
    // A `core_w` entry of 0 W active power, and one off its P-state: the
    // file loads, re-serializes byte for byte, and prices the frontier
    // captured before every model carried a ladder.
    let path = corpus_path("zero_watt_pstate.model");
    let model = hecmix_core::persist::load(&path).expect("two-point model loads");
    let text = std::fs::read_to_string(&path).unwrap();
    assert_eq!(hecmix_core::persist::to_string(&model), text);
    assert_eq!(frontier_fingerprint(&model), (1, 0x9670_fbf4_33de_0876));
}

#[test]
fn malformed_job_trace_is_rejected_not_scheduled() {
    let text = std::fs::read_to_string(corpus_path("malformed_trace.trace"))
        .expect("corpus trace readable");
    let known = ["memcached", "julius"];
    match hecmix_sched::parse_trace(&text, &known) {
        Err(Error::InvalidInput(msg)) => {
            assert!(
                msg.contains("deadline"),
                "rejection must name the deadline ordering, got: {msg}"
            );
        }
        other => panic!("malformed trace must be InvalidInput, got {other:?}"),
    }
    // The same trace with the poisoned entry repaired loads cleanly — the
    // loader rejects the entry, not the format.
    let repaired = text.replace("10.0 5.0", "10.0 50.0");
    let jobs = hecmix_sched::parse_trace(&repaired, &known).expect("repaired trace parses");
    assert_eq!(jobs.len(), 2);
    assert_eq!(jobs[1].workload, 1);
}

#[test]
fn energy_pricing_survives_ulp_scale_durations() {
    let case = parse_case("energy_ulp.case");
    let arm = Platform::reference_arm();
    let model = WorkloadModel::synthetic_cpu_bound(&arm, "corpus", get_f64(&case, "i_ps"));
    let point = ClusterPoint::new(vec![Some(NodeConfig::new(
        get_f64(&case, "nodes") as u32,
        get_f64(&case, "cores") as u32,
        Frequency::from_ghz(get_f64(&case, "freq_ghz")),
    ))]);
    let w = get_f64(&case, "w_units");
    // Pre-fix this tripped EnergyModel::energy's absolute-epsilon
    // debug_assert; now it must evaluate cleanly and satisfy every law.
    assert_eq!(
        hecmix_check::fuzz::check_point(&point, std::slice::from_ref(&model), w, None),
        None
    );
}
