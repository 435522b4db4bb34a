//! `hecmix` — command-line front door to the heterogeneous-cluster
//! energy model.
//!
//! ```text
//! hecmix recommend    --workload memcached --deadline-ms 40 [--arm 10] [--amd 10]
//! hecmix frontier     --workload ep [--arm 10] [--amd 10] [--pruned]
//! hecmix evaluate     --workload ep --arm-nodes 8 --amd-nodes 1 [--units N]
//! hecmix characterize --out DIR [--workload NAME]
//! hecmix queueing     --workload memcached --lambda 2.0 --slo-ms 450 [--p99-ms 900]
//! hecmix selfcheck    [--seed 42] [--fuzz-iters 200]
//! hecmix serve        [--addr 127.0.0.1:7077] [--models DIR] [--workloads a,b]
//! hecmix loadgen      [--addr 127.0.0.1:7077] [--requests 500] [--concurrency 8]
//! ```
//!
//! Everything runs against the simulated reference testbed (see DESIGN.md);
//! `characterize` exports reusable `.model` bundles. `serve` keeps the
//! planner resident as an HTTP daemon (see `crates/serve`); `loadgen` is
//! its closed-loop benchmark client.

use std::collections::HashMap;
use std::process::ExitCode;

use hecmix_core::config::{ClusterPoint, ConfigSpace};
use hecmix_core::mix_match::{evaluate, mix_and_match, TypeDeployment};
use hecmix_core::pareto::ParetoFrontier;
use hecmix_core::rate_table::stream_frontier_pruned;
use hecmix_core::sweep::{sweep_space, EvaluatedConfig};
use hecmix_experiments::lab::Lab;
use hecmix_queueing::dispatch::{
    best_choice, best_choice_tail, menu_from_frontier, TailDesConfig, TailTarget,
};
use hecmix_workloads::{workload_by_name, Workload};

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let Some(cmd) = args.next() else {
        usage();
        return ExitCode::FAILURE;
    };
    let mut flags: HashMap<String, String> = HashMap::new();
    let mut key: Option<String> = None;
    for a in args {
        if let Some(stripped) = a.strip_prefix("--") {
            if let Some(k) = key.take() {
                flags.insert(k, "true".into()); // boolean flag
            }
            key = Some(stripped.to_owned());
        } else if let Some(k) = key.take() {
            flags.insert(k, a);
        } else {
            eprintln!("unexpected argument: {a}");
            return ExitCode::FAILURE;
        }
    }
    if let Some(k) = key.take() {
        flags.insert(k, "true".into());
    }

    match cmd.as_str() {
        "recommend" => cmd_recommend(&flags),
        "frontier" => cmd_frontier(&flags),
        "evaluate" => cmd_evaluate(&flags),
        "characterize" => cmd_characterize(&flags),
        "queueing" => cmd_queueing(&flags),
        "selfcheck" => cmd_selfcheck(&flags),
        "sched" => cmd_sched(&flags),
        "serve" => cmd_serve(&flags),
        "gateway" => cmd_gateway(&flags),
        "loadgen" => cmd_loadgen(&flags),
        "fleetbench" => cmd_fleetbench(&flags),
        "help" | "--help" | "-h" => {
            usage();
            ExitCode::SUCCESS
        }
        other => {
            eprintln!("unknown command: {other}");
            usage();
            ExitCode::FAILURE
        }
    }
}

fn usage() {
    eprintln!(
        "hecmix — energy-efficient heterogeneous cluster modeling (ICPP 2014 reproduction)

commands:
  recommend    --workload NAME --deadline-ms D [--arm N] [--amd N] [--models DIR]
  frontier     --workload NAME [--arm N] [--amd N] [--pruned]
  evaluate     --workload NAME --arm-nodes N --amd-nodes M [--units W]
  characterize --out DIR [--workload NAME]
  queueing     --workload NAME --lambda JOBS_PER_S --slo-ms R [--window-s S]
               [--p99-ms R]  (plan for a p99 deadline via DES instead of the mean SLO)
  selfcheck    [--seed N] [--fuzz-iters N]
  sched        [--workloads NAME,NAME,...] [--workload NAME (dominant)]
               [--alpha A] [--arm N] [--amd N] [--days N] [--seed N]
               [--crashes N] [--trace FILE] [--dump-trace FILE]
  serve        [--addr HOST:PORT] [--io-threads N] [--workers N] [--queue N]
               [--cache N] [--max-conns N] [--models DIR]
               [--workloads NAME,NAME,...] [--sched-alpha A]
               [--sched-arm N] [--sched-amd N] [--sched-queue N]
  gateway      --replicas HOST:PORT,HOST:PORT,... [--addr HOST:PORT]
               [--io-threads N] [--workers N] [--queue N] [--max-conns N]
               [--seed N] [--models DIR] [--workloads NAME,NAME,...]
  loadgen      [--addr HOST:PORT] [--requests N | --duration SECS]
               [--warmup SECS] [--open-loop RPS] [--concurrency N]
               [--mix P:F:W] [--workload NAME] [--arm N] [--arm-sweep N]
               [--amd N] [--budget W] [--deadline-ms D] [--bench-out FILE]
               [--gate-tail-ratio X] [--gate-min-ok N]
  fleetbench   [--replicas N] [--kill-replica I] [--kill-at SECS] [--seed N]
               [--duration SECS] [--warmup SECS] [--concurrency N]
               [--arm-sweep N] [--gate-tail-ratio X] [--gate-min-ok N]
               [--bench-out FILE]

workloads: ep memcached x264 blackscholes julius rsa-2048"
    );
}

fn get_workload(
    flags: &HashMap<String, String>,
) -> Result<Box<dyn Workload + Send + Sync>, ExitCode> {
    let name = flags.get("workload").map_or("memcached", String::as_str);
    workload_by_name(name).ok_or_else(|| {
        eprintln!(
            "unknown workload {name:?}; one of: ep memcached x264 blackscholes julius rsa-2048"
        );
        ExitCode::FAILURE
    })
}

/// Load `[ARM, AMD]` bundles for a workload from a `--models` directory
/// written by `hecmix characterize` (falls back to `None` when the flag is
/// absent, in which case callers characterize on the simulated testbed).
fn load_models(
    flags: &HashMap<String, String>,
    workload: &str,
) -> Result<Option<Vec<hecmix_core::profile::WorkloadModel>>, ExitCode> {
    let Some(dir) = flags.get("models") else {
        return Ok(None);
    };
    let dir = std::path::Path::new(dir);
    let mut out = Vec::new();
    for platform in ["cortex-a9", "k10"] {
        let path = dir.join(format!("{workload}-{platform}.model"));
        match hecmix_core::persist::load(&path) {
            Ok(m) => out.push(m),
            Err(e) => {
                eprintln!("cannot load {}: {e}", path.display());
                eprintln!(
                    "(generate bundles with: hecmix characterize --out {})",
                    dir.display()
                );
                return Err(ExitCode::FAILURE);
            }
        }
    }
    Ok(Some(out))
}

fn get_num<T: std::str::FromStr>(
    flags: &HashMap<String, String>,
    key: &str,
    default: T,
) -> Result<T, ExitCode> {
    match flags.get(key) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| {
            eprintln!("--{key} needs a number, got {v:?}");
            ExitCode::FAILURE
        }),
    }
}

fn cmd_recommend(flags: &HashMap<String, String>) -> ExitCode {
    let w = match get_workload(flags) {
        Ok(w) => w,
        Err(c) => return c,
    };
    let (Ok(deadline_ms), Ok(arm), Ok(amd)) = (
        get_num::<f64>(flags, "deadline-ms", 100.0),
        get_num::<u32>(flags, "arm", 10),
        get_num::<u32>(flags, "amd", 10),
    ) else {
        return ExitCode::FAILURE;
    };
    let lab = Lab::new();
    let models = match load_models(flags, w.name()) {
        Ok(Some(m)) => std::sync::Arc::new(m),
        Ok(None) => lab.models(w.as_ref()),
        Err(c) => return c,
    };
    let units = w.analysis_units() as f64;
    let space = ConfigSpace::two_type(lab.arm.platform.clone(), arm, lab.amd.platform.clone(), amd);
    let (frontier, stats) = match stream_frontier_pruned(&space, &models, units) {
        Ok(x) => x,
        Err(e) => {
            eprintln!("sweep failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "{}: searched {} of {} configurations (pruned), frontier has {} points",
        w.name(),
        stats.evaluated_configs,
        stats.full_space,
        frontier.len()
    );
    match frontier.min_energy_for_deadline(deadline_ms / 1e3) {
        None => {
            println!(
                "no configuration meets {deadline_ms} ms; fastest achievable is {:.1} ms",
                frontier.min_time_s().unwrap_or(f64::NAN) * 1e3
            );
            ExitCode::FAILURE
        }
        Some(best) => {
            println!("recommended: {}", best.config.label(&lab.platforms()));
            println!(
                "  service time {:.1} ms, energy {:.2} J/job",
                best.time_s * 1e3,
                best.energy_j
            );
            if let Ok(split) = mix_and_match(&best.config, &models, units) {
                for (share, m) in split.shares.iter().zip(models.iter()) {
                    if *share > 0.0 {
                        println!(
                            "  dispatch {:.1} % of the job to {}",
                            100.0 * share / units,
                            m.platform.name
                        );
                    }
                }
            }
            ExitCode::SUCCESS
        }
    }
}

fn cmd_frontier(flags: &HashMap<String, String>) -> ExitCode {
    let w = match get_workload(flags) {
        Ok(w) => w,
        Err(c) => return c,
    };
    let (Ok(arm), Ok(amd)) = (
        get_num::<u32>(flags, "arm", 10),
        get_num::<u32>(flags, "amd", 10),
    ) else {
        return ExitCode::FAILURE;
    };
    let pruned = flags.contains_key("pruned");
    let lab = Lab::new();
    let models = lab.models(w.as_ref());
    let units = w.analysis_units() as f64;
    let space = ConfigSpace::two_type(lab.arm.platform.clone(), arm, lab.amd.platform.clone(), amd);
    let frontier = if pruned {
        match stream_frontier_pruned(&space, &models, units) {
            Ok((f, stats)) => {
                eprintln!(
                    "pruned sweep: {} of {} configurations evaluated",
                    stats.evaluated_configs, stats.full_space
                );
                f
            }
            Err(e) => {
                eprintln!("sweep failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        match sweep_space(&space, &models, units) {
            Ok(evaluated) => ParetoFrontier::from_points(
                evaluated
                    .iter()
                    .map(EvaluatedConfig::to_pareto_point)
                    .collect(),
            ),
            Err(e) => {
                eprintln!("sweep failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    };
    println!("deadline_ms,energy_j,config");
    for p in &frontier.points {
        println!(
            "{:.3},{:.4},{}",
            p.time_s * 1e3,
            p.energy_j,
            p.config.label(&lab.platforms()).replace(',', ";")
        );
    }
    ExitCode::SUCCESS
}

fn cmd_evaluate(flags: &HashMap<String, String>) -> ExitCode {
    let w = match get_workload(flags) {
        Ok(w) => w,
        Err(c) => return c,
    };
    let (Ok(arm_nodes), Ok(amd_nodes)) = (
        get_num::<u32>(flags, "arm-nodes", 8),
        get_num::<u32>(flags, "amd-nodes", 1),
    ) else {
        return ExitCode::FAILURE;
    };
    let Ok(units) = get_num::<f64>(flags, "units", w.analysis_units() as f64) else {
        return ExitCode::FAILURE;
    };
    let lab = Lab::new();
    let models = lab.models(w.as_ref());
    let point = ClusterPoint::new(vec![
        TypeDeployment::maxed(&lab.arm.platform, arm_nodes),
        TypeDeployment::maxed(&lab.amd.platform, amd_nodes),
    ]);
    match evaluate(&point, &models, units) {
        Ok(out) => {
            println!(
                "{}: {} units on {}",
                w.name(),
                units,
                point.label(&lab.platforms())
            );
            println!("  time   {:.2} ms", out.time_s * 1e3);
            println!(
                "  energy {:.3} J  (core {:.3}, mem {:.3}, io {:.3}, idle {:.3})",
                out.energy_j,
                out.energy.e_core,
                out.energy.e_mem,
                out.energy.e_io,
                out.energy.e_idle
            );
            for (share, m) in out.shares.iter().zip(models.iter()) {
                if *share > 0.0 {
                    println!("  split  {:>12.0} units -> {}", share, m.platform.name);
                }
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("evaluation failed: {e}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_characterize(flags: &HashMap<String, String>) -> ExitCode {
    let Some(out_dir) = flags.get("out") else {
        eprintln!("characterize needs --out DIR");
        return ExitCode::FAILURE;
    };
    let dir = std::path::Path::new(out_dir);
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("cannot create {}: {e}", dir.display());
        return ExitCode::FAILURE;
    }
    let lab = Lab::new();
    let workloads: Vec<Box<dyn Workload + Send + Sync>> = match flags.get("workload") {
        Some(name) => match workload_by_name(name) {
            Some(w) => vec![w],
            None => {
                eprintln!("unknown workload {name:?}");
                return ExitCode::FAILURE;
            }
        },
        None => hecmix_workloads::all_workloads(),
    };
    for w in workloads {
        let models = lab.models(w.as_ref());
        for m in models.iter() {
            let short = m.platform.name.split_whitespace().last().unwrap_or("node");
            let path = dir.join(format!("{}-{}.model", w.name(), short.to_lowercase()));
            match hecmix_core::persist::save(m, &path) {
                Ok(()) => println!("wrote {}", path.display()),
                Err(e) => {
                    eprintln!("failed: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
    }
    ExitCode::SUCCESS
}

fn cmd_selfcheck(flags: &HashMap<String, String>) -> ExitCode {
    let (Ok(seed), Ok(fuzz_iters)) = (
        get_num::<u64>(flags, "seed", 42),
        get_num::<u32>(flags, "fuzz-iters", 200),
    ) else {
        return ExitCode::FAILURE;
    };
    println!("self-check (seed {seed})");
    let report = hecmix_check::run_all(seed);
    for r in &report.results {
        if r.passed() {
            println!("  PASS {}", r.name);
        } else {
            println!("  FAIL {} ({} violations)", r.name, r.violations.len());
            for v in &r.violations {
                println!("       {v}");
            }
        }
    }
    let (space, models, _) = hecmix_check::reference_scenario();
    let fuzz_cfg = hecmix_check::fuzz::FuzzConfig {
        seed,
        iters: fuzz_iters,
        ..hecmix_check::fuzz::FuzzConfig::default()
    };
    let fuzz_failure = hecmix_check::fuzz::fuzz(&space, &models, &fuzz_cfg);
    match &fuzz_failure {
        None => println!("  PASS fuzz ({fuzz_iters} random configurations)"),
        Some(d) => {
            println!("  FAIL fuzz: {} — {}", d.check, d.detail);
            println!("       minimal reproducer: {}", d.to_json(seed));
        }
    }
    println!(
        "{} checks, {} violations in {:.2} s",
        report.checks() + 1,
        report.violation_count() + u64::from(fuzz_failure.is_some()),
        report.wall_s
    );
    if report.is_clean() && fuzz_failure.is_none() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Build the daemon's model inventory plus the matching `/reload` closure.
/// `--models DIR` loads persisted bundles; otherwise the named workloads
/// (default: all) are characterized on the simulated testbed.
fn build_serve_store(
    flags: &HashMap<String, String>,
) -> Result<
    (
        hecmix_serve::ModelStore,
        std::sync::Arc<hecmix_serve::api::ReloadFn>,
    ),
    ExitCode,
> {
    let only: Vec<String> = flags
        .get("workloads")
        .map(|s| {
            s.split(',')
                .map(|w| w.trim().to_owned())
                .filter(|w| !w.is_empty())
                .collect()
        })
        .unwrap_or_default();

    if let Some(dir) = flags.get("models") {
        let dir = std::path::PathBuf::from(dir);
        let store = hecmix_serve::ModelStore::from_dir(&dir, &only).map_err(|e| {
            eprintln!("cannot load models from {}: {e}", dir.display());
            ExitCode::FAILURE
        })?;
        let reload: std::sync::Arc<hecmix_serve::api::ReloadFn> =
            std::sync::Arc::new(move || hecmix_serve::ModelStore::from_dir(&dir, &only));
        return Ok((store, reload));
    }

    let build = move |only: &[String]| -> Result<hecmix_serve::ModelStore, String> {
        let lab = Lab::new();
        let workloads: Vec<Box<dyn Workload + Send + Sync>> = if only.is_empty() {
            hecmix_workloads::all_workloads()
        } else {
            only.iter()
                .map(|name| {
                    workload_by_name(name).ok_or_else(|| format!("unknown workload {name:?}"))
                })
                .collect::<Result<_, _>>()?
        };
        let mut store = hecmix_serve::ModelStore::new();
        for w in workloads {
            store.insert(w.name(), lab.models(w.as_ref()).to_vec());
        }
        Ok(store)
    };
    let store = build(&only).map_err(|e| {
        eprintln!("{e}");
        ExitCode::FAILURE
    })?;
    let reload: std::sync::Arc<hecmix_serve::api::ReloadFn> =
        std::sync::Arc::new(move || build(&only));
    Ok((store, reload))
}

fn cmd_sched(flags: &HashMap<String, String>) -> ExitCode {
    use hecmix_experiments::scheduler::{scheduler_pool, scheduler_trace};
    use hecmix_sched::{run_static_mix_and_match, SchedConfig, Scheduler};

    let (Ok(alpha), Ok(arm), Ok(amd), Ok(days), Ok(seed), Ok(crashes)) = (
        get_num::<f64>(flags, "alpha", 0.5),
        get_num::<u32>(flags, "arm", 6),
        get_num::<u32>(flags, "amd", 5),
        get_num::<u32>(flags, "days", 1),
        get_num::<u64>(flags, "seed", 7),
        get_num::<usize>(flags, "crashes", 0),
    ) else {
        return ExitCode::FAILURE;
    };
    let class_list = flags
        .get("workloads")
        .map_or("memcached,julius", String::as_str);
    let mut workloads: Vec<Box<dyn Workload + Send + Sync>> = Vec::new();
    for name in class_list.split(',').filter(|s| !s.is_empty()) {
        let Some(w) = workload_by_name(name) else {
            eprintln!(
                "unknown workload {name:?}; one of: ep memcached x264 blackscholes julius rsa-2048"
            );
            return ExitCode::FAILURE;
        };
        workloads.push(w);
    }
    if workloads.is_empty() {
        eprintln!("--workloads needs at least one class");
        return ExitCode::FAILURE;
    }

    let lab = Lab::new();
    let refs: Vec<&dyn Workload> = workloads
        .iter()
        .map(|w| w.as_ref() as &dyn Workload)
        .collect();
    let pool = scheduler_pool(&lab, &refs, vec![arm, amd]);
    let dominant_name = flags
        .get("workload")
        .cloned()
        .unwrap_or_else(|| pool.classes[0].name.clone());
    let dominant = match pool.class_index(&dominant_name) {
        Ok(i) => i,
        Err(e) => {
            eprintln!("--workload must name one of the pool classes: {e}");
            return ExitCode::FAILURE;
        }
    };

    let jobs = if let Some(path) = flags.get("trace") {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("cannot read {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let names = pool.class_names();
        match hecmix_sched::parse_trace(&text, &names) {
            Ok(j) => j,
            Err(e) => {
                eprintln!("malformed trace {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        scheduler_trace(&pool, dominant, days, seed)
    };
    if jobs.is_empty() {
        eprintln!("trace has no jobs");
        return ExitCode::FAILURE;
    }
    if let Some(path) = flags.get("dump-trace") {
        let text = hecmix_sched::format_trace(&jobs, &pool.class_names());
        if let Err(e) = std::fs::write(path, text) {
            eprintln!("cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("trace ({} jobs) written to {path}", jobs.len());
    }

    let sched = match Scheduler::new(
        pool.clone(),
        SchedConfig {
            alpha,
            max_outstanding: jobs.len().max(1),
            ..SchedConfig::default()
        },
    ) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("bad scheduler config: {e}");
            return ExitCode::FAILURE;
        }
    };
    let run = if crashes > 0 {
        let horizon = jobs
            .iter()
            .map(|j| j.arrival_s)
            .fold(f64::from(days) * 24.0 * 60.0, f64::max);
        let faults = hecmix_sim::FaultSchedule::random_crashes(
            seed ^ 0xFA17,
            &pool.counts,
            crashes,
            horizon,
        );
        sched.run_faulted(&jobs, &faults)
    } else {
        sched.run(&jobs)
    };
    let out = match run {
        Ok(o) => o,
        Err(e) => {
            eprintln!("scheduler run failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let baseline = match run_static_mix_and_match(&pool, &jobs) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("baseline run failed: {e}");
            return ExitCode::FAILURE;
        }
    };

    let nodes: Vec<String> = pool
        .platforms
        .iter()
        .zip(&pool.counts)
        .map(|(p, c)| format!("{c}x {}", p.name))
        .collect();
    println!(
        "online scheduler: {} jobs ({} dominant) on {} — alpha {alpha:.2}, seed {seed}{}",
        jobs.len(),
        pool.classes[dominant].name,
        nodes.join(" + "),
        if crashes > 0 {
            format!(", {crashes} seeded crashes")
        } else {
            String::new()
        }
    );
    println!(
        "  admitted {}/{} (rejected {}), completed {}, failed {}, migrations {}",
        out.admitted, out.submitted, out.rejected, out.completed, out.failed, out.migrations
    );
    println!(
        "  energy {:.0} J (active {:.0} + idle {:.0}), misses {} (rate {:.4}), makespan {:.0} s",
        out.energy_j(),
        out.active_energy_j,
        out.idle_energy_j,
        out.misses,
        out.miss_rate(),
        out.makespan_s
    );
    println!(
        "static mix-and-match baseline: energy {:.0} J, misses {} (rate {:.4}), makespan {:.0} s",
        baseline.energy_j(),
        baseline.misses,
        baseline.miss_rate(),
        baseline.makespan_s
    );
    let delta = (out.energy_j() - baseline.energy_j()) / baseline.energy_j() * 100.0;
    println!(
        "  scheduler vs baseline: {delta:+.1}% energy at {} vs {} misses",
        out.misses, baseline.misses
    );
    ExitCode::SUCCESS
}

fn cmd_serve(flags: &HashMap<String, String>) -> ExitCode {
    let defaults = hecmix_serve::ServeConfig::default();
    let addr = flags
        .get("addr")
        .cloned()
        .unwrap_or_else(|| "127.0.0.1:7077".to_owned());
    let (Ok(io_threads), Ok(workers), Ok(queue), Ok(cache), Ok(max_conns)) = (
        get_num::<usize>(flags, "io-threads", defaults.io_threads),
        get_num::<usize>(flags, "workers", defaults.workers),
        get_num::<usize>(flags, "queue", defaults.queue_capacity),
        get_num::<usize>(flags, "cache", 256),
        get_num::<usize>(flags, "max-conns", defaults.max_connections),
    ) else {
        return ExitCode::FAILURE;
    };
    if io_threads == 0 || workers == 0 || queue == 0 || max_conns == 0 {
        eprintln!("--io-threads, --workers, --queue, and --max-conns must be >= 1");
        return ExitCode::FAILURE;
    }

    let sched_defaults = hecmix_serve::SchedParams::default();
    let (Ok(sched_alpha), Ok(sched_arm), Ok(sched_amd), Ok(sched_queue)) = (
        get_num::<f64>(flags, "sched-alpha", sched_defaults.alpha),
        get_num::<u32>(flags, "sched-arm", sched_defaults.counts[0]),
        get_num::<u32>(flags, "sched-amd", sched_defaults.counts[1]),
        get_num::<usize>(flags, "sched-queue", sched_defaults.max_outstanding),
    ) else {
        return ExitCode::FAILURE;
    };

    let (store, reload) = match build_serve_store(flags) {
        Ok(x) => x,
        Err(c) => return c,
    };
    let names = store.names().join(" ");
    let sched_params = hecmix_serve::SchedParams {
        alpha: sched_alpha,
        max_outstanding: sched_queue,
        counts: vec![sched_arm, sched_amd],
    };
    let sched = match hecmix_serve::OnlineSched::from_store(&store, &sched_params) {
        Ok(s) => Some(std::sync::Arc::new(s)),
        Err(e) => {
            eprintln!("live scheduler disabled ({e}); /submit and /jobz will answer 503");
            None
        }
    };
    let state = std::sync::Arc::new(hecmix_serve::AppState::new(store, io_threads, cache));
    state.set_reload(reload);
    if let Some(s) = sched {
        state.set_sched(s);
    }
    let config = hecmix_serve::ServeConfig {
        addr,
        io_threads,
        workers,
        queue_capacity: queue,
        max_connections: max_conns,
        ..defaults
    };
    let handle = match hecmix_serve::start(config, std::sync::Arc::clone(&state)) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("cannot start daemon: {e}");
            return ExitCode::FAILURE;
        }
    };

    hecmix_serve::signal::install();
    println!(
        "hecmix-serve listening on http://{} ({io_threads} io threads, {workers} workers, \
         queue {queue}, cache {cache}, max {max_conns} conns)",
        handle.addr()
    );
    println!("workloads: {names}");
    println!("endpoints: POST /plan /frontier /whatif /reload /submit — GET /healthz /statz /jobz");
    while !hecmix_serve::signal::interrupted() {
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
    eprintln!("signal received; draining in-flight requests");
    handle.shutdown();
    handle.join();
    eprintln!("drained; bye");
    ExitCode::SUCCESS
}

fn cmd_gateway(flags: &HashMap<String, String>) -> ExitCode {
    use hecmix_serve::fleet::{Fleet, FleetConfig};

    let Some(replica_list) = flags.get("replicas") else {
        eprintln!("gateway needs --replicas HOST:PORT,HOST:PORT,...");
        return ExitCode::FAILURE;
    };
    let replicas: Vec<String> = replica_list
        .split(',')
        .map(|a| a.trim().to_owned())
        .filter(|a| !a.is_empty())
        .collect();
    if replicas.is_empty() {
        eprintln!("--replicas needs at least one address");
        return ExitCode::FAILURE;
    }

    let defaults = hecmix_serve::ServeConfig::default();
    let fleet_defaults = FleetConfig::default();
    let addr = flags
        .get("addr")
        .cloned()
        .unwrap_or_else(|| "127.0.0.1:7078".to_owned());
    let (Ok(io_threads), Ok(workers), Ok(queue), Ok(max_conns), Ok(seed)) = (
        get_num::<usize>(flags, "io-threads", defaults.io_threads),
        get_num::<usize>(flags, "workers", defaults.workers),
        get_num::<usize>(flags, "queue", defaults.queue_capacity),
        get_num::<usize>(flags, "max-conns", defaults.max_connections),
        get_num::<u64>(flags, "seed", fleet_defaults.seed),
    ) else {
        return ExitCode::FAILURE;
    };
    if io_threads == 0 || workers == 0 || queue == 0 || max_conns == 0 {
        eprintln!("--io-threads, --workers, --queue, and --max-conns must be >= 1");
        return ExitCode::FAILURE;
    }

    // The gateway's store must come from the same model bundles the
    // replicas serve, so its routing keys equal their cache keys.
    let (store, reload) = match build_serve_store(flags) {
        Ok(x) => x,
        Err(c) => return c,
    };
    let replica_count = replicas.len();
    let fleet = match Fleet::new(FleetConfig {
        replicas,
        seed,
        ..fleet_defaults
    }) {
        Ok(f) => std::sync::Arc::new(f),
        Err(e) => {
            eprintln!("cannot build fleet: {e}");
            return ExitCode::FAILURE;
        }
    };
    fleet.start_probing();
    let state = std::sync::Arc::new(hecmix_serve::AppState::new_gateway(
        store,
        io_threads,
        std::sync::Arc::clone(&fleet),
    ));
    state.set_reload(reload);
    let config = hecmix_serve::ServeConfig {
        addr,
        io_threads,
        workers,
        queue_capacity: queue,
        max_connections: max_conns,
        ..defaults
    };
    let handle = match hecmix_serve::start(config, std::sync::Arc::clone(&state)) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("cannot start gateway: {e}");
            return ExitCode::FAILURE;
        }
    };

    hecmix_serve::signal::install();
    println!(
        "hecmix gateway listening on http://{} routing {replica_count} replicas \
         ({io_threads} io threads, {workers} forward workers, seed {seed})",
        handle.addr()
    );
    println!("endpoints: POST /plan /frontier /whatif /reload — GET /healthz /statz");
    while !hecmix_serve::signal::interrupted() {
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
    eprintln!("signal received; draining in-flight requests");
    handle.shutdown();
    handle.join();
    fleet.stop();
    eprintln!("drained; bye");
    ExitCode::SUCCESS
}

fn cmd_fleetbench(flags: &HashMap<String, String>) -> ExitCode {
    use hecmix_serve::fleetbench::{self, FleetBenchConfig};

    let d = FleetBenchConfig::default();
    let (Ok(replicas), Ok(kill_replica), Ok(concurrency), Ok(arm_sweep), Ok(seed)) = (
        get_num::<usize>(flags, "replicas", d.replicas),
        get_num::<usize>(flags, "kill-replica", d.kill_replica),
        get_num::<usize>(flags, "concurrency", d.concurrency),
        get_num::<u32>(flags, "arm-sweep", d.arm_sweep),
        get_num::<u64>(flags, "seed", d.seed),
    ) else {
        return ExitCode::FAILURE;
    };
    let (Ok(kill_at_s), Ok(duration_s), Ok(warmup_s), Ok(max_tail_ratio), Ok(min_ok)) = (
        get_num::<f64>(flags, "kill-at", d.kill_at_s),
        get_num::<f64>(flags, "duration", d.duration_s),
        get_num::<f64>(flags, "warmup", d.warmup_s),
        get_num::<f64>(flags, "gate-tail-ratio", d.max_tail_ratio),
        get_num::<u64>(flags, "gate-min-ok", d.min_ok),
    ) else {
        return ExitCode::FAILURE;
    };
    if replicas == 0 || concurrency == 0 || duration_s <= 0.0 {
        eprintln!("--replicas, --concurrency must be >= 1 and --duration positive");
        return ExitCode::FAILURE;
    }

    let (_store, build) = match build_serve_store(flags) {
        Ok(x) => x,
        Err(c) => return c,
    };
    let cfg = FleetBenchConfig {
        replicas,
        kill_replica,
        kill_at_s,
        seed,
        duration_s,
        warmup_s,
        concurrency,
        arm_sweep,
        max_tail_ratio,
        min_ok,
    };
    let outcome = match fleetbench::run(&cfg, build.as_ref()) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("fleetbench setup failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("{}", outcome.summary);
    if let Some(path) = flags.get("bench-out") {
        if let Err(e) = std::fs::write(path, &outcome.json) {
            eprintln!("cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("bench artifact written to {path}");
    }
    if let Err(why) = outcome.gate {
        eprintln!("fleetbench gate FAILED: {why}");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

fn cmd_loadgen(flags: &HashMap<String, String>) -> ExitCode {
    use hecmix_serve::loadgen::{self, LoadgenConfig, MixRatio};

    let d = LoadgenConfig::default();
    let mix = match flags.get("mix") {
        None => d.mix,
        Some(s) => match MixRatio::parse(s) {
            Ok(m) => m,
            Err(e) => {
                eprintln!("bad --mix: {e}");
                return ExitCode::FAILURE;
            }
        },
    };
    let (Ok(concurrency), Ok(requests), Ok(arm), Ok(amd)) = (
        get_num::<usize>(flags, "concurrency", d.concurrency),
        get_num::<u64>(flags, "requests", d.requests),
        get_num::<u32>(flags, "arm", d.arm),
        get_num::<u32>(flags, "amd", d.amd),
    ) else {
        return ExitCode::FAILURE;
    };
    let arm_sweep = match flags.get("arm-sweep").map(|v| v.parse::<u32>()) {
        None => None,
        Some(Ok(n)) if n >= 1 => Some(n),
        Some(_) => {
            eprintln!("--arm-sweep needs a count >= 1");
            return ExitCode::FAILURE;
        }
    };
    let (Ok(budget_w), Ok(deadline_ms), Ok(warmup_s)) = (
        get_num::<f64>(flags, "budget", d.budget_w),
        get_num::<f64>(flags, "deadline-ms", d.deadline_ms),
        get_num::<f64>(flags, "warmup", d.warmup_s),
    ) else {
        return ExitCode::FAILURE;
    };
    let duration_s = match flags.get("duration").map(|v| v.parse::<f64>()) {
        None => None,
        Some(Ok(v)) if v > 0.0 => Some(v),
        Some(_) => {
            eprintln!("--duration needs a positive number of seconds");
            return ExitCode::FAILURE;
        }
    };
    let open_loop_rps = match flags.get("open-loop").map(|v| v.parse::<f64>()) {
        None => None,
        Some(Ok(v)) if v > 0.0 => Some(v),
        Some(_) => {
            eprintln!("--open-loop needs a positive rate in requests/second");
            return ExitCode::FAILURE;
        }
    };
    let (Ok(gate_tail_ratio), Ok(gate_min_ok)) = (
        get_num::<f64>(flags, "gate-tail-ratio", 0.0),
        get_num::<u64>(flags, "gate-min-ok", 0),
    ) else {
        return ExitCode::FAILURE;
    };
    if concurrency == 0 || requests == 0 {
        eprintln!("--concurrency and --requests must be >= 1");
        return ExitCode::FAILURE;
    }
    if let Some(dur) = duration_s {
        if warmup_s >= dur {
            eprintln!("--warmup must be shorter than --duration");
            return ExitCode::FAILURE;
        }
    }
    let cfg = LoadgenConfig {
        addr: flags.get("addr").cloned().unwrap_or(d.addr),
        concurrency,
        requests,
        duration_s,
        warmup_s,
        open_loop_rps,
        mix,
        workload: flags.get("workload").cloned().unwrap_or(d.workload),
        arm,
        arm_sweep,
        amd,
        budget_w,
        deadline_ms,
    };

    let report = loadgen::run(&cfg);
    print!("{}", report.render());
    if let Some(path) = flags.get("bench-out") {
        if let Err(e) = std::fs::write(path, report.to_json(&cfg)) {
            eprintln!("cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("bench artifact written to {path}");
    }
    if let Err(why) = report.gate(gate_tail_ratio, gate_min_ok) {
        eprintln!("loadgen gate FAILED: {why}");
        return ExitCode::FAILURE;
    }
    if gate_tail_ratio > 0.0 || gate_min_ok > 0 {
        println!(
            "loadgen gate passed (tail ratio {:.1} <= {gate_tail_ratio:.1}, ok {} >= {gate_min_ok})",
            report.tail_ratio, report.ok
        );
    }
    ExitCode::SUCCESS
}

fn cmd_queueing(flags: &HashMap<String, String>) -> ExitCode {
    let w = match get_workload(flags) {
        Ok(w) => w,
        Err(c) => return c,
    };
    let (Ok(lambda), Ok(slo_ms), Ok(window_s), Ok(p99_ms)) = (
        get_num::<f64>(flags, "lambda", 2.0),
        get_num::<f64>(flags, "slo-ms", 450.0),
        get_num::<f64>(flags, "window-s", 20.0),
        get_num::<f64>(flags, "p99-ms", 0.0),
    ) else {
        return ExitCode::FAILURE;
    };
    let lab = Lab::new();
    let models = lab.models(w.as_ref());
    let units = w.analysis_units() as f64;
    let space = ConfigSpace::two_type(lab.arm.platform.clone(), 16, lab.amd.platform.clone(), 14);
    let (frontier, _) = match stream_frontier_pruned(&space, &models, units) {
        Ok(x) => x,
        Err(e) => {
            eprintln!("sweep failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let menu = menu_from_frontier(&frontier, &models);
    // A p99 deadline switches to the DES-scored tail planner: the menu is
    // screened analytically, then the survivors are simulated until one
    // meets the percentile deadline.
    if flags.contains_key("p99-ms") && !(p99_ms.is_finite() && p99_ms > 0.0) {
        eprintln!("invalid p99 deadline: --p99-ms must be a positive number of milliseconds");
        return ExitCode::FAILURE;
    }
    if p99_ms > 0.0 {
        let target = match TailTarget::new(0.99, p99_ms / 1e3) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("invalid p99 deadline: {e}");
                return ExitCode::FAILURE;
            }
        };
        return match best_choice_tail(&menu, lambda, window_s, target, &TailDesConfig::default()) {
            Err(e) => {
                eprintln!("invalid dispatch input: {e}");
                ExitCode::FAILURE
            }
            Ok(None) => {
                eprintln!("every configuration saturates at λ = {lambda} jobs/s");
                ExitCode::FAILURE
            }
            Ok(Some(out)) => {
                println!(
                    "{}: λ = {lambda} jobs/s over a {window_s} s window, p99 deadline {p99_ms} ms",
                    w.name()
                );
                println!("  best configuration : {}", menu[out.index].label);
                println!(
                    "  p99 response (DES) : {:.1} ms{}",
                    out.tail_response_s * 1e3,
                    if out.violated {
                        "  (DEADLINE MISSED)"
                    } else {
                        ""
                    }
                );
                println!("  mean response      : {:.1} ms", out.mean_response_s * 1e3);
                println!("  window energy      : {:.1} J", out.energy_j);
                println!(
                    "  planner effort     : {} screened analytically, {} DES runs",
                    out.screened_out, out.des_runs
                );
                if out.violated {
                    ExitCode::FAILURE
                } else {
                    ExitCode::SUCCESS
                }
            }
        };
    }
    match best_choice(&menu, lambda, window_s, slo_ms / 1e3) {
        Err(e) => {
            eprintln!("invalid dispatch input: {e}");
            ExitCode::FAILURE
        }
        Ok(None) => {
            eprintln!("every configuration saturates at λ = {lambda} jobs/s");
            ExitCode::FAILURE
        }
        Ok(Some((idx, energy, response, violated))) => {
            println!(
                "{}: λ = {lambda} jobs/s over a {window_s} s window, SLO {slo_ms} ms",
                w.name()
            );
            println!("  best configuration : {}", menu[idx].label);
            println!(
                "  mean response      : {:.1} ms{}",
                response * 1e3,
                if violated { "  (SLO MISSED)" } else { "" }
            );
            println!("  window energy      : {energy:.1} J");
            if violated {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }
    }
}
