//! `experiments` — regenerate the paper's tables and figures.
//!
//! ```text
//! experiments [--results-dir DIR] [--seed N] [--trace FILE] ARTIFACT...
//!   ARTIFACT: --table1 --table3 --table4 --table5
//!             --fig2 --fig3 --fig4 --fig5 --fig6 --fig7 --fig8 --fig9 --fig10
//!             --headline --tail-planning --all
//! ```
//!
//! Prints paper-style rows to stdout and writes CSV series under the
//! results directory (default `results/`), each with a
//! `<name>.manifest.json` reproducibility sidecar. `--trace FILE` streams
//! every telemetry event of the run (sweep counters, dispatch decisions,
//! fault lifecycle, CSV warnings) to `FILE` as JSONL.

use std::process::ExitCode;

use hecmix_core::budget::BudgetMix;
use hecmix_experiments::ablation::{
    matching_ablation, overlap_ablation, spimem_ablation, switching_ablation,
};
use hecmix_experiments::extensions::{
    diurnal_study, dvfs_ladder_study, fig10_des_crosscheck, governor_study, sensitivity,
    tail_planning_study, threeway,
};
use hecmix_experiments::figures::{
    fig10, fig2, fig3, mix_frontiers, paper_budget_mixes, paper_scaling_mixes, pareto_figure,
};
use hecmix_experiments::headline::headline;
use hecmix_experiments::lab::{table1_rows, Lab};
use hecmix_experiments::ppr::table5;
use hecmix_experiments::report::{ascii_scatter, fmt_f, render_table, CsvWriter, RunContext};
use hecmix_experiments::scheduler::{scheduler_pool, scheduler_study, FAULTED_CRASHES};
use hecmix_experiments::validation::{table3, table4};
use hecmix_queueing::dispatch::DiurnalProfile;
use hecmix_workloads::ep::Ep;
use hecmix_workloads::julius::Julius;
use hecmix_workloads::memcached::Memcached;
use hecmix_workloads::Workload;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        eprintln!("usage: experiments [--results-dir DIR] [--seed N] [--trace FILE] --table1|--table3|--table4|--table5|--fig2..--fig10|--headline|--tail-planning|--dvfs-ladder|--all ...");
        return ExitCode::FAILURE;
    }
    let mut results_dir = "results".to_owned();
    let mut seed = 0x1CC9_2014u64;
    let mut trace_path: Option<String> = None;
    let mut artifacts: Vec<String> = Vec::new();
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--results-dir" => match it.next() {
                Some(d) => results_dir = d,
                None => {
                    eprintln!("--results-dir needs a value");
                    return ExitCode::FAILURE;
                }
            },
            "--trace" => match it.next() {
                Some(p) => trace_path = Some(p),
                None => {
                    eprintln!("--trace needs a file path");
                    return ExitCode::FAILURE;
                }
            },
            "--seed" => match it.next().and_then(|s| s.parse().ok()) {
                Some(s) => seed = s,
                None => {
                    eprintln!("--seed needs an integer value");
                    return ExitCode::FAILURE;
                }
            },
            other if other.starts_with("--") => {
                artifacts.push(other.trim_start_matches("--").to_owned())
            }
            other => {
                eprintln!("unknown argument: {other}");
                return ExitCode::FAILURE;
            }
        }
    }
    if artifacts.iter().any(|a| a == "all") {
        artifacts = [
            "table1",
            "table3",
            "table4",
            "table5",
            "fig2",
            "fig3",
            "fig4",
            "fig5",
            "fig6",
            "fig7",
            "fig8",
            "fig9",
            "fig10",
            "headline",
            "ablations",
            "threeway",
            "diurnal",
            "sensitivity",
            "export-models",
            "governor",
            "fig10des",
            "tail-planning",
            "dvfs-ladder",
            "resilience",
            "scheduler",
            "selfcheck",
        ]
        .iter()
        .map(|s| (*s).to_owned())
        .collect();
    }

    if let Some(path) = &trace_path {
        match hecmix_obs::JsonlSink::create(std::path::Path::new(path)) {
            Ok(sink) => hecmix_obs::install(std::sync::Arc::new(sink)),
            Err(e) => {
                eprintln!("cannot create trace file {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    let lab = std::sync::Arc::new(Lab::with_seed(seed));
    let context = RunContext::capture(seed, std::path::Path::new("."));
    let csv = match CsvWriter::with_context(&results_dir, context) {
        Ok(w) => w,
        Err(e) => {
            eprintln!("cannot create results dir {results_dir}: {e}");
            return ExitCode::FAILURE;
        }
    };
    // Manifests attest the exact model contents behind each artifact; the
    // lab's cache is polled lazily because models are characterized on
    // first use, after this point.
    let hash_lab = std::sync::Arc::clone(&lab);
    csv.set_model_hash_source(Box::new(move || hash_lab.model_hash_lines()));

    for artifact in &artifacts {
        let started = std::time::Instant::now();
        match artifact.as_str() {
            "table1" => run_table1(&lab),
            "table3" => run_table3(&lab, &csv),
            "table4" => run_table4(&lab, &csv),
            "table5" => run_table5(&lab, &csv),
            "fig2" => run_fig2(&lab, &csv),
            "fig3" => run_fig3(&lab, &csv),
            "fig4" => run_pareto(&lab, &csv, &Ep::class_c(), "fig4"),
            "fig5" => run_pareto(&lab, &csv, &Memcached::default(), "fig5"),
            "fig6" => run_mixes(
                &lab,
                &csv,
                &Memcached::default(),
                "fig6",
                &paper_budget_mixes(&lab),
            ),
            "fig7" => run_mixes(
                &lab,
                &csv,
                &Ep::class_c(),
                "fig7",
                &paper_budget_mixes(&lab),
            ),
            "fig8" => run_mixes(
                &lab,
                &csv,
                &Memcached::default(),
                "fig8",
                &paper_scaling_mixes(),
            ),
            "fig9" => run_mixes(&lab, &csv, &Ep::class_c(), "fig9", &paper_scaling_mixes()),
            "fig10" => run_fig10(&lab, &csv),
            "headline" => run_headline(&lab, &csv),
            "ablations" => run_ablations(&lab, &csv),
            "threeway" => run_threeway(&lab, &csv),
            "export-models" => run_export_models(&lab, &results_dir),
            "diurnal" => run_diurnal(&lab, &csv),
            "sensitivity" => run_sensitivity(&csv),
            "governor" => run_governor(&lab, &csv),
            "fig10des" => run_fig10des(&lab, &csv),
            "tail-planning" => run_tail_planning(&lab, &csv),
            "dvfs-ladder" => run_dvfs_ladder(&lab, &csv),
            "resilience" => run_resilience(&lab, &csv),
            "scheduler" => run_scheduler(&lab, &csv),
            "selfcheck" => run_selfcheck(&lab, &csv),
            other => {
                eprintln!("unknown artifact: --{other}");
                return ExitCode::FAILURE;
            }
        }
        eprintln!(
            "[{artifact} done in {:.1}s]\n",
            started.elapsed().as_secs_f64()
        );
    }
    // Flush the JSONL trace (if any) before exiting.
    hecmix_obs::uninstall();
    ExitCode::SUCCESS
}

fn run_table1(lab: &Lab) {
    println!("== Table 1: Types of heterogeneous nodes ==");
    let rows: Vec<Vec<String>> = table1_rows(lab)
        .into_iter()
        .map(|(k, amd, arm)| vec![k, amd, arm])
        .collect();
    println!(
        "{}",
        render_table(&["Node", "AMD K10", "ARM Cortex-A9"], &rows)
    );
}

fn run_table3(lab: &Lab, csv: &CsvWriter) {
    println!("== Table 3: Single-node validation (model vs measurement, % error) ==");
    let rows = table3(lab);
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.workload.clone(),
                r.problem.clone(),
                r.bottleneck.to_owned(),
                format!("{:.0}", r.time_amd.mean),
                format!("{:.0}", r.time_amd.std_dev),
                format!("{:.0}", r.time_arm.mean),
                format!("{:.0}", r.time_arm.std_dev),
                format!("{:.0}", r.energy_amd.mean),
                format!("{:.0}", r.energy_amd.std_dev),
                format!("{:.0}", r.energy_arm.mean),
                format!("{:.0}", r.energy_arm.std_dev),
            ]
        })
        .collect();
    let header = [
        "Program",
        "Problem Size",
        "Bottleneck",
        "tAMD mean",
        "tAMD sd",
        "tARM mean",
        "tARM sd",
        "eAMD mean",
        "eAMD sd",
        "eARM mean",
        "eARM sd",
    ];
    println!("{}", render_table(&header, &table));
    let _ = csv.write("table3", &header, &table);
}

fn run_table4(lab: &Lab, csv: &CsvWriter) {
    println!("== Table 4: Cluster validation (8 ARM + {{1,0}} AMD, % error) ==");
    let rows = table4(lab);
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.workload.clone(),
                r.arm_nodes.to_string(),
                r.amd_nodes.to_string(),
                format!("{:.0}", r.time_err),
                format!("{:.0}", r.energy_err),
            ]
        })
        .collect();
    let header = [
        "Program",
        "ARM nodes",
        "AMD nodes",
        "time err %",
        "energy err %",
    ];
    println!("{}", render_table(&header, &table));
    let _ = csv.write("table4", &header, &table);
}

fn run_table5(lab: &Lab, csv: &CsvWriter) {
    println!("== Table 5: Performance-to-power ratio (best configuration) ==");
    let rows = table5(lab);
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.workload.clone(),
                r.unit.to_owned(),
                fmt_f(r.amd.ppr),
                fmt_f(r.arm.ppr),
                if r.arm.ppr > r.amd.ppr { "ARM" } else { "AMD" }.to_owned(),
            ]
        })
        .collect();
    let header = ["Program", "PPR unit", "AMD node", "ARM node", "winner"];
    println!("{}", render_table(&header, &table));
    let _ = csv.write("table5", &header, &table);
}

fn run_fig2(lab: &Lab, csv: &CsvWriter) {
    println!("== Fig. 2: WPI and SPI_core across problem size (EP A/B/C) ==");
    let rows = fig2(lab);
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.platform.clone(),
                r.class.to_string(),
                r.units.to_string(),
                format!("{:.3}", r.wpi),
                format!("{:.3}", r.spi_core),
            ]
        })
        .collect();
    let header = ["Platform", "Class", "Randoms", "WPI", "SPIcore"];
    println!("{}", render_table(&header, &table));
    let _ = csv.write("fig2", &header, &table);
}

fn run_fig3(lab: &Lab, csv: &CsvWriter) {
    println!("== Fig. 3: SPI_mem vs core frequency (stall micro-benchmark) ==");
    let mut table: Vec<Vec<String>> = Vec::new();
    for series in fig3(lab) {
        for cell in &series.cells {
            table.push(vec![
                series.platform.clone(),
                cell.cores.to_string(),
                format!("{:.2}", cell.freq.ghz()),
                format!("{:.3}", cell.spi_mem),
            ]);
        }
        for (c, r2) in series.cores.iter().zip(&series.r2) {
            println!("{} cores={c}: r² = {r2:.3}", series.platform);
        }
    }
    let header = ["Platform", "Cores", "f GHz", "SPImem"];
    println!("{}", render_table(&header, &table));
    let _ = csv.write("fig3", &header, &table);
}

fn run_pareto(lab: &Lab, csv: &CsvWriter, w: &dyn Workload, name: &str) {
    println!(
        "== {}: Pareto frontier for {} (10 ARM + 10 AMD, {} {}s/job) ==",
        name.to_uppercase(),
        w.name(),
        w.analysis_units(),
        w.unit_name()
    );
    let fig = pareto_figure(lab, w, 10, 10);
    println!("configurations evaluated: {}", fig.all_points.len());
    println!("frontier points: {}", fig.frontier.len());
    if let Some(s) = fig.sweet {
        println!(
            "sweet region: {} heterogeneous points, linearity r² = {:.3}",
            s.len(),
            fig.frontier.linearity_r2(s)
        );
    }
    match fig.overlap {
        Some(o) => println!(
            "overlap region: {} homogeneous points (compute-bound tail)",
            o.len()
        ),
        None => println!("overlap region: none (I/O-bound energy flattens instead)"),
    }
    // Console sketch: frontier (*), ARM-only (a), AMD-only (A).
    let mut pts: Vec<(f64, f64, char)> = fig
        .frontier
        .points
        .iter()
        .map(|p| (p.time_s * 1e3, p.energy_j, '*'))
        .collect();
    pts.extend(
        fig.arm_only
            .points
            .iter()
            .map(|p| (p.time_s * 1e3, p.energy_j, 'a')),
    );
    pts.extend(
        fig.amd_only
            .points
            .iter()
            .map(|p| (p.time_s * 1e3, p.energy_j, 'A')),
    );
    println!("{}", ascii_scatter(&pts, 72, 18, false));

    let header = ["series", "deadline_ms", "energy_j"];
    let mut rows: Vec<Vec<String>> = Vec::new();
    let push = |series: &str,
                frontier: &hecmix_core::pareto::ParetoFrontier,
                rows: &mut Vec<Vec<String>>| {
        for p in &frontier.points {
            rows.push(vec![
                series.to_owned(),
                fmt_f(p.time_s * 1e3),
                fmt_f(p.energy_j),
            ]);
        }
    };
    push("pareto", &fig.frontier, &mut rows);
    push("arm-only", &fig.arm_only, &mut rows);
    push("amd-only", &fig.amd_only, &mut rows);
    let _ = csv.write(name, &header, &rows);
    // Full point cloud for external plotting.
    let cloud: Vec<Vec<String>> = fig
        .all_points
        .iter()
        .map(|(t, e, homo)| {
            vec![
                fmt_f(t * 1e3),
                fmt_f(*e),
                if *homo { "homo" } else { "hetero" }.to_owned(),
            ]
        })
        .collect();
    let _ = csv.write(
        &format!("{name}_all_points"),
        &["deadline_ms", "energy_j", "kind"],
        &cloud,
    );
}

fn run_mixes(lab: &Lab, csv: &CsvWriter, w: &dyn Workload, name: &str, mixes: &[BudgetMix]) {
    println!(
        "== {}: heterogeneous mixes for {} ==",
        name.to_uppercase(),
        w.name()
    );
    let series = mix_frontiers(lab, w, mixes);
    let header = ["mix", "deadline_ms", "min_energy_j"];
    let mut rows: Vec<Vec<String>> = Vec::new();
    for s in &series {
        let min_t = s.frontier.min_time_s().unwrap_or(f64::NAN);
        let min_e = s.frontier.min_energy_j().unwrap_or(f64::NAN);
        println!(
            "{:<18} frontier: {:3} points, fastest deadline {:>8.1} ms, min energy {:>8.2} J",
            s.label,
            s.frontier.len(),
            min_t * 1e3,
            min_e
        );
        for p in &s.frontier.points {
            rows.push(vec![
                s.label.replace(':', "_"),
                fmt_f(p.time_s * 1e3),
                fmt_f(p.energy_j),
            ]);
        }
    }
    let _ = csv.write(name, &header, &rows);
}

fn run_fig10(lab: &Lab, csv: &CsvWriter) {
    println!("== Fig. 10: job queueing delay (16 ARM + 14 AMD, memcached, 20 s window) ==");
    let curves = fig10(lab, &Memcached::default());
    let header = [
        "utilization",
        "lambda_jobs_per_s",
        "response_ms",
        "energy_20s_j",
        "uses_amd",
    ];
    let mut rows: Vec<Vec<String>> = Vec::new();
    for c in &curves {
        let min_e = c
            .points
            .iter()
            .map(|p| p.energy_j)
            .fold(f64::INFINITY, f64::min);
        let max_e = c.points.iter().map(|p| p.energy_j).fold(0.0f64, f64::max);
        println!(
            "U = {:>4.0} % (λ = {:.2}/s): {} feasible configs, energy {:.0}–{:.0} J",
            c.nominal_utilization * 100.0,
            c.lambda,
            c.points.len(),
            min_e,
            max_e
        );
        for p in &c.points {
            rows.push(vec![
                format!("{:.2}", c.nominal_utilization),
                fmt_f(c.lambda),
                fmt_f(p.response_s * 1e3),
                fmt_f(p.energy_j),
                p.uses_amd.to_string(),
            ]);
        }
    }
    let _ = csv.write("fig10", &header, &rows);
}

fn run_headline(lab: &Lab, csv: &CsvWriter) {
    println!("== Headline: energy saving of ARM 16:AMD 14 vs ARM 0:AMD 16 ==");
    let mut rows: Vec<Vec<String>> = Vec::new();
    for w in [
        &Ep::class_c() as &dyn Workload,
        &Memcached::default() as &dyn Workload,
    ] {
        let r = headline(lab, w);
        println!(
            "{:<12} max saving {:>5.1} % at deadline {:>8.1} ms ({:.2} J -> {:.2} J)",
            r.workload,
            r.max_saving_pct,
            r.at_deadline_s * 1e3,
            r.amd_energy_j,
            r.mix_energy_j
        );
        rows.push(vec![
            r.workload.clone(),
            format!("{:.1}", r.max_saving_pct),
            fmt_f(r.at_deadline_s * 1e3),
            fmt_f(r.amd_energy_j),
            fmt_f(r.mix_energy_j),
        ]);
    }
    let _ = csv.write(
        "headline",
        &[
            "workload",
            "max_saving_pct",
            "deadline_ms",
            "amd_energy_j",
            "mix_energy_j",
        ],
        &rows,
    );
}

fn run_ablations(lab: &Lab, csv: &CsvWriter) {
    println!("== Ablations: what each modeling choice buys (DESIGN.md §4) ==");

    let o = overlap_ablation(lab, &Memcached::default(), 20_000);
    println!(
        "overlap (Eq. 2-3)   : max() model err {:>5.1} %  vs additive err {:>6.1} %  [memcached, ARM grid]",
        o.max_model_err_pct, o.additive_err_pct
    );

    for w in [
        &Ep::class_c() as &dyn Workload,
        &Memcached::default() as &dyn Workload,
    ] {
        let m = matching_ablation(lab, w);
        println!(
            "matching ({:<9}) : matched {:>7.2} J vs node-proportional {:>7.2} J (+{:>4.1} %) vs equal {:>7.2} J (+{:>5.1} %)",
            m.workload,
            m.matched_energy_j,
            m.node_proportional_energy_j,
            100.0 * (m.node_proportional_energy_j / m.matched_energy_j - 1.0),
            m.equal_split_energy_j,
            100.0 * (m.equal_split_energy_j / m.matched_energy_j - 1.0),
        );
    }

    let s = spimem_ablation(lab, &hecmix_workloads::x264::X264::default(), 600);
    println!(
        "SPI_mem linearity   : linear fit err {:>5.1} %  vs constant err {:>6.1} %  [x264, ARM frequencies]",
        s.linear_err_pct, s.constant_err_pct
    );

    let mut rows: Vec<Vec<String>> = Vec::new();
    for w in [
        &Ep::class_c() as &dyn Workload,
        &Memcached::default() as &dyn Workload,
    ] {
        let samples = switching_ablation(lab, w);
        let max_gap = samples
            .iter()
            .map(|x| 1.0 - x.mixing_energy_j / x.switching_energy_j)
            .fold(0.0f64, f64::max);
        println!(
            "switching vs mixing : {:<9} mixing saves up to {:>5.1} % over pool switching across {} deadlines",
            w.name(),
            max_gap * 100.0,
            samples.len()
        );
        for x in &samples {
            rows.push(vec![
                w.name().to_owned(),
                fmt_f(x.deadline_s * 1e3),
                fmt_f(x.switching_energy_j),
                fmt_f(x.mixing_energy_j),
            ]);
        }
    }
    let _ = csv.write(
        "ablation_switching",
        &[
            "workload",
            "deadline_ms",
            "switching_energy_j",
            "mixing_energy_j",
        ],
        &rows,
    );
}

fn run_threeway(lab: &Lab, csv: &CsvWriter) {
    println!("== Extension: three node types (6 A9 + 4 A15 + 4 K10) ==");
    let mut rows: Vec<Vec<String>> = Vec::new();
    for w in [
        &Ep::class_c() as &dyn Workload,
        &Memcached::default() as &dyn Workload,
    ] {
        let r = threeway(lab, w);
        println!(
            "{:<10} space {:>9} configs, pruned to {:>6} evals ({:.2} %); frontier {} points, {} use all three types",
            r.workload,
            r.stats.full_space,
            r.stats.evaluated_configs,
            100.0 * r.stats.evaluated_configs as f64 / r.stats.full_space as f64,
            r.frontier.len(),
            r.three_type_points
        );
        println!(
            "{:<10} min energy {:.2} J (best two-type subset: {:.2} J)",
            "", r.min_energy_j, r.best_two_type_min_energy_j
        );
        for p in &r.frontier.points {
            rows.push(vec![
                r.workload.clone(),
                fmt_f(p.time_s * 1e3),
                fmt_f(p.energy_j),
                p.config.types_used().to_string(),
            ]);
        }
    }
    let _ = csv.write(
        "threeway",
        &["workload", "deadline_ms", "energy_j", "types_used"],
        &rows,
    );
}

fn run_diurnal(lab: &Lab, csv: &CsvWriter) {
    println!("== Extension: dispatch policies under a diurnal day (memcached) ==");
    // Quiet hours fit the ARM pool (16 ARM serve a 50 k-request job in
    // ≈250 ms; at the trough's λ the queue stays comfortable), peak hours
    // do not — the regime where policy choice matters.
    let profile = DiurnalProfile::new(2.0, 0.8, 24, 3600.0).expect("valid profile");
    let slo = 0.45;
    println!(
        "profile: λ = 2·(1 + 0.8·sin) jobs/s over 24 × 1 h slots; SLO: mean response ≤ {} ms",
        slo * 1e3
    );
    let days = diurnal_study(lab, &Memcached::default(), &profile, slo);
    let mut rows: Vec<Vec<String>> = Vec::new();
    for d in &days {
        println!(
            "{:<14} energy {:>10.0} J/day, SLO violations {:>2}/24",
            d.policy, d.outcome.energy_j, d.outcome.violations
        );
        for s in &d.outcome.slots {
            rows.push(vec![
                d.policy.to_owned(),
                s.slot.to_string(),
                fmt_f(s.lambda),
                fmt_f(s.energy_j),
                fmt_f(s.response_s * 1e3),
                s.violated.to_string(),
            ]);
        }
    }
    let _ = csv.write(
        "diurnal",
        &[
            "policy",
            "slot",
            "lambda",
            "energy_j",
            "response_ms",
            "violated",
        ],
        &rows,
    );
}

fn run_dvfs_ladder(lab: &Lab, csv: &CsvWriter) {
    println!("== Extension: DVFS ladders — 1-OPP vs full-ladder frontiers, cluster parking ==");
    let profile = DiurnalProfile::new(2.0, 0.8, 24, 3600.0).expect("valid profile");
    let slo = 0.45;
    let r = dvfs_ladder_study(lab, &Memcached::default(), &profile, slo);
    println!(
        "frontier points: {} (1-OPP) vs {} (ladder); min energy {:.0} J vs {:.0} J; strictly richer: {}",
        r.one_opp_frontier.len(),
        r.ladder_frontier.len(),
        r.one_opp_frontier.min_energy_j().unwrap_or(f64::NAN),
        r.ladder_frontier.min_energy_j().unwrap_or(f64::NAN),
        r.ladder_is_strictly_richer(),
    );
    println!(
        "diurnal day from the ladder menu: {:.0} J always-on vs {:.0} J parked \
         (cluster-sleep credit {:.0} J, {:.1} %); SLO violations {}/{} vs {}/{}",
        r.plain_day.energy_j,
        r.parked_day.energy_j,
        r.parking_saving_j(),
        100.0 * r.parking_saving_j() / r.plain_day.energy_j,
        r.plain_day.violations,
        r.plain_day.slots.len(),
        r.parked_day.violations,
        r.parked_day.slots.len(),
    );
    let mut rows: Vec<Vec<String>> = Vec::new();
    for (series, frontier) in [
        ("frontier-1opp", &r.one_opp_frontier),
        ("frontier-ladder", &r.ladder_frontier),
    ] {
        for (i, p) in frontier.points.iter().enumerate() {
            rows.push(vec![
                series.to_owned(),
                i.to_string(),
                fmt_f(p.time_s),
                fmt_f(p.energy_j),
                String::new(),
            ]);
        }
    }
    for (series, day) in [
        ("day-always-on", &r.plain_day),
        ("day-parked", &r.parked_day),
    ] {
        for s in &day.slots {
            rows.push(vec![
                series.to_owned(),
                s.slot.to_string(),
                fmt_f(s.lambda),
                fmt_f(s.energy_j),
                s.violated.to_string(),
            ]);
        }
    }
    let _ = csv.write(
        "dvfs_ladder",
        &["series", "idx", "time_s_or_lambda", "energy_j", "violated"],
        &rows,
    );
}

fn run_sensitivity(csv: &CsvWriter) {
    println!("== Extension: calibration sensitivity (hidden constants ±20 %) ==");
    let rows = sensitivity(0.20);
    let mut table: Vec<Vec<String>> = Vec::new();
    let mut robust = 0;
    for r in &rows {
        let core_claims = r.ep_arm_wins && r.memcached_arm_wins && r.rsa_amd_wins && r.sweet_region;
        robust += i32::from(core_claims);
        table.push(vec![
            r.parameter.clone(),
            format!("{:+.0}%", r.delta * 100.0),
            r.ep_arm_wins.to_string(),
            r.memcached_arm_wins.to_string(),
            r.rsa_amd_wins.to_string(),
            r.x264_amd_wins.to_string(),
            r.sweet_region.to_string(),
            format!("{:.1}", r.memcached_crossover_ms),
        ]);
    }
    let header = [
        "parameter",
        "delta",
        "ep_ARM",
        "memcached_ARM",
        "rsa_AMD",
        "x264_AMD",
        "sweet",
        "crossover_ms",
    ];
    println!("{}", render_table(&header, &table));
    println!(
        "core qualitative claims (EP/memcached/RSA winners + sweet region) hold in {robust}/{} perturbations",
        rows.len()
    );
    let _ = csv.write("sensitivity", &header, &table);
}

fn run_export_models(lab: &Lab, results_dir: &str) {
    println!("== Export: characterized model bundles ==");
    let dir = std::path::Path::new(results_dir).join("models");
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("cannot create {}: {e}", dir.display());
        return;
    }
    for w in hecmix_workloads::all_workloads() {
        let models = lab.models(w.as_ref());
        for m in models.iter() {
            let stem = hecmix_core::persist::bundle_stem(w.name(), &m.platform);
            let path = dir.join(format!("{stem}.model"));
            match hecmix_core::persist::save(m, &path) {
                Ok(()) => {
                    // Round-trip verification before reporting success.
                    let back =
                        hecmix_core::persist::load(&path).expect("just-written bundle parses");
                    assert_eq!(&back, m, "round trip must be exact");
                    println!("wrote {}", path.display());
                }
                Err(e) => eprintln!("failed to write {}: {e}", path.display()),
            }
        }
    }
}

fn run_governor(lab: &Lab, csv: &CsvWriter) {
    println!(
        "== Extension: ondemand DVFS governor vs the fixed-P-state assumption (one ARM node) =="
    );
    let rows = governor_study(lab);
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.workload.clone(),
                fmt_f(r.pinned_s * 1e3),
                fmt_f(r.governed_s * 1e3),
                fmt_f(r.pinned_j),
                fmt_f(r.governed_j),
                format!("{:+.1}%", 100.0 * (r.governed_j / r.pinned_j - 1.0)),
            ]
        })
        .collect();
    let header = [
        "workload",
        "pinned_ms",
        "governed_ms",
        "pinned_J",
        "governed_J",
        "energy_delta",
    ];
    println!("{}", render_table(&header, &table));
    println!("(CPU-bound rows converge to the pinned behaviour — the model's assumption;");
    println!(" I/O-bound rows show the energy a governor saves that a pinned fmax would waste.)");
    let _ = csv.write("governor", &header, &table);
}

fn run_resilience(lab: &Lab, csv: &CsvWriter) {
    use hecmix_experiments::resilience::{
        crash_validation, resilient_dispatch, resilient_frontier_levels,
    };

    println!("== Extension: degraded-mode validation (crash at 35 % of nominal, 8 ARM + 1 AMD) ==");
    let rows = crash_validation(lab);
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.workload.clone(),
                r.units.to_string(),
                fmt_f(r.crash_s * 1e3),
                fmt_f(r.predicted_time_s * 1e3),
                fmt_f(r.measured_time_s * 1e3),
                format!("{:.1}", r.time_err_pct),
                fmt_f(r.predicted_energy_j),
                fmt_f(r.measured_energy_j),
                format!("{:.1}", r.energy_err_pct),
                format!("{:.0}", r.predicted_lost_units),
                r.measured_lost_units.to_string(),
            ]
        })
        .collect();
    let header = [
        "workload",
        "units",
        "crash_ms",
        "pred_ms",
        "meas_ms",
        "time_err_%",
        "pred_J",
        "meas_J",
        "energy_err_%",
        "pred_lost",
        "meas_lost",
    ];
    println!("{}", render_table(&header, &table));
    let _ = csv.write("resilience_validation", &header, &table);

    println!("== k-failure resilient frontiers (8 ARM + 2 AMD space, memcached) ==");
    let w = Memcached::default();
    let levels = resilient_frontier_levels(lab, &w, w.analysis_units() as f64, 2);
    let mut level_rows: Vec<Vec<String>> = Vec::new();
    for l in &levels {
        println!(
            "k = {}: {:>3} frontier points, fastest worst-case {:>8.1} ms, cheapest {:>8.2} J",
            l.k,
            l.points,
            l.min_time_s * 1e3,
            l.min_energy_j
        );
        level_rows.push(vec![
            l.k.to_string(),
            l.points.to_string(),
            fmt_f(l.min_time_s * 1e3),
            fmt_f(l.min_energy_j),
        ]);
    }
    let _ = csv.write(
        "resilience_frontiers",
        &["k", "points", "min_time_ms", "min_energy_j"],
        &level_rows,
    );

    println!("== Failure-aware dispatch premium (memcached diurnal day) ==");
    let profile = DiurnalProfile::new(1.0, 0.6, 24, 3600.0).expect("valid profile");
    let slo = 2.0;
    let cmp = resilient_dispatch(lab, &w, w.analysis_units() as f64, &profile, slo);
    println!(
        "naive     : {:>10.0} J/day, {:>2} violations",
        cmp.naive.energy_j, cmp.naive.violations
    );
    println!(
        "resilient : {:>10.0} J/day, {:>2} violations (1-failure SLO insurance)",
        cmp.resilient.energy_j, cmp.resilient.violations
    );
    println!("premium   : {:+.1} % fault-free energy", cmp.premium_pct);
    let _ = csv.write(
        "resilience_dispatch",
        &["policy", "energy_j", "violations"],
        &[
            vec![
                "naive".into(),
                fmt_f(cmp.naive.energy_j),
                cmp.naive.violations.to_string(),
            ],
            vec![
                "resilient".into(),
                fmt_f(cmp.resilient.energy_j),
                cmp.resilient.violations.to_string(),
            ],
        ],
    );
}

fn run_fig10des(lab: &Lab, csv: &CsvWriter) {
    println!("== Extension: Fig. 10 analytics vs full job-stream simulation (ρ = 0.4) ==");
    let rows = fig10_des_crosscheck(lab, &Memcached::default(), 0.4);
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.label.replace(',', ";"),
                fmt_f(r.analytic_response_s * 1e3),
                fmt_f(r.sim_response_s * 1e3),
                fmt_f(r.analytic_energy_j),
                fmt_f(r.sim_energy_j),
            ]
        })
        .collect();
    let header = [
        "config",
        "analytic_resp_ms",
        "sim_resp_ms",
        "analytic_J",
        "sim_J",
    ];
    println!("{}", render_table(&header, &table));
    let _ = csv.write("fig10des", &header, &table);
}

fn run_tail_planning(lab: &Lab, csv: &CsvWriter) {
    println!(
        "== Extension: percentile-deadline planning — exact M/D/1 p99 vs mean-SLO (16 ARM + 14 AMD, memcached) =="
    );
    let rows = tail_planning_study(lab, &Memcached::default());
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                fmt_f(r.lambda),
                fmt_f(r.deadline_s * 1e3),
                r.mean_label.replace(',', ";"),
                fmt_f(r.mean_energy_j),
                fmt_f(r.mean_response_s * 1e3),
                r.tail_label.replace(',', ";"),
                fmt_f(r.tail_energy_j),
                fmt_f(r.tail_mean_response_s * 1e3),
                fmt_f(r.tail_p99_s * 1e3),
                r.screened_out.to_string(),
                r.violated.to_string(),
            ]
        })
        .collect();
    let header = [
        "lambda",
        "deadline_ms",
        "mean_config",
        "mean_energy_j",
        "mean_response_ms",
        "p99_config",
        "p99_energy_j",
        "p99_mean_response_ms",
        "p99_response_ms",
        "screened_out",
        "violated",
    ];
    for r in &rows {
        let premium = 100.0 * (r.tail_energy_j / r.mean_energy_j - 1.0);
        println!(
            "λ {:>6.2}/s deadline {:>8.1} ms: mean-SLO pick {:>8.1} J, p99 pick {:>8.1} J ({premium:+.1} %){}  [{} screened]",
            r.lambda,
            r.deadline_s * 1e3,
            r.mean_energy_j,
            r.tail_energy_j,
            if r.violated { "  (p99 UNMET)" } else { "" },
            r.screened_out,
        );
    }
    let _ = csv.write("tail_planning", &header, &table);
}

fn run_scheduler(lab: &Lab, csv: &CsvWriter) {
    println!("== Extension: online α-scheduler vs static mix-and-match (DESIGN.md §16) ==");
    let pool = scheduler_pool(
        lab,
        &[&Memcached::default(), &Julius::default()],
        vec![6, 5],
    );
    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut push = |trace: &str,
                    policy: String,
                    jobs: usize,
                    admitted: usize,
                    rejected: usize,
                    misses: usize,
                    miss_rate: f64,
                    active_j: f64,
                    idle_j: f64,
                    energy_j: f64,
                    makespan_s: f64,
                    migrations: usize| {
        rows.push(vec![
            trace.to_owned(),
            policy,
            jobs.to_string(),
            admitted.to_string(),
            rejected.to_string(),
            misses.to_string(),
            fmt_f(miss_rate),
            fmt_f(active_j),
            fmt_f(idle_j),
            fmt_f(energy_j),
            fmt_f(makespan_s),
            migrations.to_string(),
        ]);
    };
    for dominant in 0..pool.classes.len() {
        let s = scheduler_study(&pool, dominant, 1, 0x5CED_2014);
        println!(
            "trace {:<10} {:>3} jobs — static mix-and-match: {:>8.0} J, miss rate {:.3}",
            s.trace,
            s.jobs,
            s.baseline.energy_j(),
            s.baseline.miss_rate()
        );
        push(
            &s.trace,
            "static".to_owned(),
            s.jobs,
            s.jobs,
            0,
            s.baseline.misses,
            s.baseline.miss_rate(),
            s.baseline.active_energy_j,
            s.baseline.idle_energy_j,
            s.baseline.energy_j(),
            s.baseline.makespan_s,
            0,
        );
        for a in &s.sweep {
            let o = &a.outcome;
            println!(
                "  α = {:>4.2}: {:>8.0} J ({:+5.1} % vs static), miss rate {:.3}",
                a.alpha,
                o.energy_j(),
                100.0 * (o.energy_j() - s.baseline.energy_j()) / s.baseline.energy_j(),
                o.miss_rate()
            );
            push(
                &s.trace,
                format!("alpha-{:.2}", a.alpha),
                s.jobs,
                o.admitted,
                o.rejected,
                o.misses,
                o.miss_rate(),
                o.active_energy_j,
                o.idle_energy_j,
                o.energy_j(),
                o.makespan_s,
                o.migrations,
            );
        }
        let f = &s.faulted;
        println!(
            "  α = 0.50 under {FAULTED_CRASHES} seeded crashes: {:>8.0} J, miss rate {:.3}, {} migrations",
            f.energy_j(),
            f.miss_rate(),
            f.migrations
        );
        push(
            &s.trace,
            "alpha-0.50+crashes".to_owned(),
            s.jobs,
            f.admitted,
            f.rejected,
            f.misses,
            f.miss_rate(),
            f.active_energy_j,
            f.idle_energy_j,
            f.energy_j(),
            f.makespan_s,
            f.migrations,
        );
        let winners = s.winning_alphas();
        println!("  α beating static outright (lower energy, miss rate no worse): {winners:?}");
        assert!(
            !winners.is_empty(),
            "scheduler artifact must beat the static baseline on every trace"
        );
    }
    let _ = csv.write(
        "scheduler",
        &[
            "trace",
            "policy",
            "jobs",
            "admitted",
            "rejected",
            "misses",
            "miss_rate",
            "active_j",
            "idle_j",
            "energy_j",
            "makespan_s",
            "migrations",
        ],
        &rows,
    );
}

fn run_selfcheck(lab: &Lab, csv: &CsvWriter) {
    println!("== Self-check: differential oracles, invariants, and fuzz ==");
    let report = hecmix_check::run_all(lab.seed());
    let (space, models, _) = hecmix_check::reference_scenario();
    let fuzz_cfg = hecmix_check::fuzz::FuzzConfig {
        seed: lab.seed(),
        ..hecmix_check::fuzz::FuzzConfig::default()
    };
    let fuzz_failure = hecmix_check::fuzz::fuzz(&space, &models, &fuzz_cfg);

    let mut table: Vec<Vec<String>> = report
        .results
        .iter()
        .map(|r| {
            vec![
                r.name.to_owned(),
                r.violations.len().to_string(),
                if r.passed() { "pass" } else { "FAIL" }.to_owned(),
            ]
        })
        .collect();
    table.push(vec![
        "fuzz".to_owned(),
        u64::from(fuzz_failure.is_some()).to_string(),
        if fuzz_failure.is_none() {
            "pass"
        } else {
            "FAIL"
        }
        .to_owned(),
    ]);
    let header = ["check", "violations", "status"];
    println!("{}", render_table(&header, &table));
    for r in &report.results {
        for v in &r.violations {
            println!("  {}: {v}", r.name);
        }
    }
    if let Some(d) = &fuzz_failure {
        println!("  fuzz reproducer: {}", d.to_json(lab.seed()));
    }
    // Recorded before writing so the CSV's manifest embeds the summary —
    // the artifact attests the oracles held when it was produced.
    csv.record_selfcheck(hecmix_obs::SelfCheckOutcome {
        checks: report.checks() + 1,
        violations: report.violation_count() + u64::from(fuzz_failure.is_some()),
    });
    let _ = csv.write("selfcheck", &header, &table);
}
