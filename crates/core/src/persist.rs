//! Persistence for characterized model bundles.
//!
//! Characterization costs real measurement time (on the paper's testbed,
//! hours of baseline runs per workload). This module round-trips a
//! [`WorkloadModel`] through a small, self-contained, line-oriented text
//! format so a characterization can be shipped alongside a study and
//! reloaded without the testbed:
//!
//! ```text
//! hecmix-model v1
//! workload = ep
//! [platform]
//! name = ARM Cortex-A9
//! ...
//! [profile]
//! i_ps = 215.2
//! spi_mem = 1:0.01,0.1,0.99 4:0.02,0.3,0.97
//! ...
//! [power]
//! core_w = 0.2:0.01,0.005 ... 1.4:0.9,0.54
//! ...
//! ```
//!
//! The format is deliberately not a general serializer: every field is
//! written and read explicitly, unknown keys are rejected, and `f64`s
//! round-trip exactly via Rust's shortest-representation float printing.

use std::fmt::Write as _;

use crate::dvfs::NodeDvfs;
use crate::error::{Error, Result};
use crate::profile::{IoProfile, PowerProfile, SpiMemFit, WorkloadModel, WorkloadProfile};
use crate::stats::LinearFit;
use crate::types::{Frequency, Platform};

const MAGIC: &str = "hecmix-model v1";

/// Serialize a model bundle to the v1 text format.
#[must_use]
pub fn to_string(model: &WorkloadModel) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "{MAGIC}");
    let _ = writeln!(s, "workload = {}", model.workload);

    let p = &model.platform;
    let _ = writeln!(s, "[platform]");
    let _ = writeln!(s, "name = {}", p.name);
    let _ = writeln!(s, "isa = {}", p.isa);
    let _ = writeln!(s, "cores = {}", p.cores);
    let freqs: Vec<String> = p.freqs.iter().map(|f| fmt_f64(f.ghz())).collect();
    let _ = writeln!(s, "freqs_ghz = {}", freqs.join(" "));
    let _ = writeln!(s, "io_bandwidth_bps = {}", fmt_f64(p.io_bandwidth_bps));
    let _ = writeln!(s, "peak_power_w = {}", fmt_f64(p.peak_power_w));
    let _ = writeln!(s, "idle_power_w = {}", fmt_f64(p.idle_power_w));
    let _ = writeln!(s, "infra_power_w = {}", fmt_f64(p.infra_power_w));

    let pr = &model.profile;
    let _ = writeln!(s, "[profile]");
    let _ = writeln!(s, "i_ps = {}", fmt_f64(pr.i_ps));
    let _ = writeln!(s, "wpi = {}", fmt_f64(pr.wpi));
    let _ = writeln!(s, "spi_core = {}", fmt_f64(pr.spi_core));
    let fits: Vec<String> = pr
        .spi_mem
        .per_cores
        .iter()
        .map(|(c, fit)| {
            format!(
                "{c}:{},{},{}",
                fmt_f64(fit.intercept),
                fmt_f64(fit.slope),
                fmt_f64(fit.r2)
            )
        })
        .collect();
    let _ = writeln!(s, "spi_mem = {}", fits.join(" "));
    let _ = writeln!(s, "active_cores = {}", fmt_f64(pr.active_cores));
    let _ = writeln!(s, "baseline_freq_ghz = {}", fmt_f64(pr.baseline_freq.ghz()));
    let _ = writeln!(s, "io_bytes_per_unit = {}", fmt_f64(pr.io.bytes_per_unit));
    let _ = writeln!(s, "io_lambda = {}", fmt_f64(pr.io.lambda_io));

    let pw = &model.power;
    let _ = writeln!(s, "[power]");
    let entries: Vec<String> = pw
        .core_w
        .iter()
        .map(|(f, a, st)| format!("{}:{},{}", fmt_f64(f.ghz()), fmt_f64(*a), fmt_f64(*st)))
        .collect();
    let _ = writeln!(s, "core_w = {}", entries.join(" "));
    let _ = writeln!(s, "mem_w = {}", fmt_f64(pw.mem_w));
    let _ = writeln!(s, "io_w = {}", fmt_f64(pw.io_w));
    let _ = writeln!(s, "idle_w = {}", fmt_f64(pw.idle_w));

    // The ladder is written only when it is not the lift of `[power]`, so
    // two-point bundles serialize byte-identically (and keep their content
    // hashes), while ladder bundles get the OPP tables folded into the hash.
    let d = &model.dvfs;
    if *d != NodeDvfs::lift(&model.platform, &model.power) {
        let _ = writeln!(s, "[dvfs]");
        let opps: Vec<String> = d
            .ladder
            .states
            .iter()
            .map(|st| {
                format!(
                    "{}:{},{},{}",
                    fmt_f64(st.freq.ghz()),
                    fmt_f64(st.capacity),
                    fmt_f64(st.power_w),
                    fmt_f64(st.stall_w)
                )
            })
            .collect();
        let _ = writeln!(s, "opp = {}", opps.join(" "));
        let idles: Vec<String> = d
            .ladder
            .idle_states
            .iter()
            .map(|st| {
                format!(
                    "{}:{},{}",
                    st.name,
                    fmt_f64(st.power_w),
                    fmt_f64(st.residency_s)
                )
            })
            .collect();
        let _ = writeln!(s, "idle = {}", idles.join(" "));
        let mut doms: Vec<String> = Vec::new();
        fmt_domain(&d.domain, 0, &mut doms);
        let _ = writeln!(s, "domain = {}", doms.join(" "));
    }
    s
}

/// Preorder-DFS flattening of a power-domain tree: one
/// `depth:name:idle_w,sleep_w,residency_s` entry per domain.
fn fmt_domain(d: &crate::dvfs::PowerDomain, depth: usize, out: &mut Vec<String>) {
    out.push(format!(
        "{depth}:{}:{},{},{}",
        d.name,
        fmt_f64(d.idle_w),
        fmt_f64(d.sleep_w),
        fmt_f64(d.residency_s)
    ));
    for c in &d.children {
        fmt_domain(c, depth + 1, out);
    }
}

/// Parse a model bundle from the v1 text format. Strict: unknown keys,
/// missing fields and malformed numbers are all errors, and the resulting
/// bundle is validated before being returned.
pub fn from_str(text: &str) -> Result<WorkloadModel> {
    let mut lines = text.lines().map(str::trim).filter(|l| !l.is_empty());
    if lines.next() != Some(MAGIC) {
        return Err(bad("missing or unsupported header"));
    }

    #[derive(Default)]
    struct Raw {
        workload: Option<String>,
        fields: std::collections::HashMap<String, String>,
    }
    let mut raw = Raw::default();
    let mut section = String::new();
    for line in lines {
        if let Some(name) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
            section = name.to_owned();
            continue;
        }
        let (key, value) = line
            .split_once('=')
            .ok_or_else(|| bad(&format!("expected `key = value`, got {line:?}")))?;
        let key = key.trim();
        let value = value.trim();
        if section.is_empty() && key == "workload" {
            raw.workload = Some(value.to_owned());
        } else if section.is_empty() {
            return Err(bad(&format!("unknown top-level key {key:?}")));
        } else {
            let full = format!("{section}.{key}");
            if raw.fields.insert(full.clone(), value.to_owned()).is_some() {
                return Err(bad(&format!("duplicate key {full:?}")));
            }
        }
    }

    let take = |fields: &mut std::collections::HashMap<String, String>, key: &str| {
        fields
            .remove(key)
            .ok_or_else(|| bad(&format!("missing key {key:?}")))
    };
    let f = &mut raw.fields;

    let platform = Platform {
        name: take(f, "platform.name")?,
        isa: take(f, "platform.isa")?,
        cores: parse_u32(&take(f, "platform.cores")?)?,
        freqs: take(f, "platform.freqs_ghz")?
            .split_whitespace()
            .map(|x| Frequency::try_from_ghz(parse_f64(x)?))
            .collect::<Result<Vec<_>>>()?,
        io_bandwidth_bps: parse_f64(&take(f, "platform.io_bandwidth_bps")?)?,
        peak_power_w: parse_f64(&take(f, "platform.peak_power_w")?)?,
        idle_power_w: parse_f64(&take(f, "platform.idle_power_w")?)?,
        infra_power_w: parse_f64(&take(f, "platform.infra_power_w")?)?,
    };

    let spi_mem = SpiMemFit::try_new(
        take(f, "profile.spi_mem")?
            .split_whitespace()
            .map(|entry| {
                let (cores, fit) = entry
                    .split_once(':')
                    .ok_or_else(|| bad("malformed spi_mem entry"))?;
                let parts: Vec<&str> = fit.split(',').collect();
                if parts.len() != 3 {
                    return Err(bad("spi_mem fit needs intercept,slope,r2"));
                }
                Ok((
                    parse_u32(cores)?,
                    LinearFit {
                        intercept: parse_f64(parts[0])?,
                        slope: parse_f64(parts[1])?,
                        r2: parse_f64(parts[2])?,
                    },
                ))
            })
            .collect::<Result<Vec<_>>>()?,
    )?;

    let profile = WorkloadProfile {
        i_ps: parse_f64(&take(f, "profile.i_ps")?)?,
        wpi: parse_f64(&take(f, "profile.wpi")?)?,
        spi_core: parse_f64(&take(f, "profile.spi_core")?)?,
        spi_mem,
        active_cores: parse_f64(&take(f, "profile.active_cores")?)?,
        baseline_freq: Frequency::try_from_ghz(parse_f64(&take(f, "profile.baseline_freq_ghz")?)?)?,
        io: IoProfile {
            bytes_per_unit: parse_f64(&take(f, "profile.io_bytes_per_unit")?)?,
            lambda_io: parse_f64(&take(f, "profile.io_lambda")?)?,
        },
    };

    let power = PowerProfile {
        core_w: take(f, "power.core_w")?
            .split_whitespace()
            .map(|entry| {
                let (freq, rest) = entry
                    .split_once(':')
                    .ok_or_else(|| bad("malformed core_w entry"))?;
                let (act, stall) = rest
                    .split_once(',')
                    .ok_or_else(|| bad("core_w needs act,stall"))?;
                Ok((
                    Frequency::try_from_ghz(parse_f64(freq)?)?,
                    parse_f64(act)?,
                    parse_f64(stall)?,
                ))
            })
            .collect::<Result<Vec<_>>>()?,
        mem_w: parse_f64(&take(f, "power.mem_w")?)?,
        io_w: parse_f64(&take(f, "power.io_w")?)?,
        idle_w: parse_f64(&take(f, "power.idle_w")?)?,
    };

    // Optional [dvfs] section: all three keys or none; without it the
    // model is the lift of `[power]`. Ladder invariants (monotone OPP
    // tables, finite positive capacities, finite non-negative powers,
    // non-empty ladder) are enforced by `WorkloadModel::validate` below,
    // so a bad ladder is an `Error::InvalidInput` at load time, never a
    // NaN frontier downstream.
    let dvfs = if f.keys().any(|k| k.starts_with("dvfs.")) {
        let states = take(f, "dvfs.opp")?
            .split_whitespace()
            .map(|entry| {
                let (freq, rest) = entry
                    .split_once(':')
                    .ok_or_else(|| bad("malformed opp entry"))?;
                let parts: Vec<&str> = rest.split(',').collect();
                if parts.len() != 3 {
                    return Err(bad("opp needs capacity,power_w,stall_w"));
                }
                Ok(crate::dvfs::ActiveState {
                    freq: Frequency::try_from_ghz(parse_f64(freq)?)?,
                    capacity: parse_f64(parts[0])?,
                    power_w: parse_f64(parts[1])?,
                    stall_w: parse_f64(parts[2])?,
                })
            })
            .collect::<Result<Vec<_>>>()?;
        let idle_states = take(f, "dvfs.idle")?
            .split_whitespace()
            .map(|entry| {
                let (name, rest) = entry
                    .split_once(':')
                    .ok_or_else(|| bad("malformed idle entry"))?;
                let (power, residency) = rest
                    .split_once(',')
                    .ok_or_else(|| bad("idle needs power_w,residency_s"))?;
                Ok(crate::dvfs::IdleState {
                    name: name.to_owned(),
                    power_w: parse_f64(power)?,
                    residency_s: parse_f64(residency)?,
                })
            })
            .collect::<Result<Vec<_>>>()?;
        let domain = parse_domains(&take(f, "dvfs.domain")?)?;
        NodeDvfs {
            ladder: crate::dvfs::OppLadder {
                states,
                idle_states,
            },
            domain,
        }
    } else {
        // The lift reads the P-state table, which must not be empty.
        power.validate()?;
        NodeDvfs::lift(&platform, &power)
    };

    if let Some(stray) = f.keys().next() {
        return Err(bad(&format!("unknown key {stray:?}")));
    }

    let model = WorkloadModel {
        workload: raw.workload.ok_or_else(|| bad("missing `workload`"))?,
        platform,
        profile,
        power,
        dvfs,
    };
    model.validate()?;
    Ok(model)
}

/// Rebuild a power-domain tree from its preorder `depth:name:...` list.
fn parse_domains(value: &str) -> Result<crate::dvfs::PowerDomain> {
    let mut root: Option<crate::dvfs::PowerDomain> = None;
    // Ancestor chain: element `i` sits at depth `i`.
    let mut stack: Vec<crate::dvfs::PowerDomain> = Vec::new();
    let attach = |stack: &mut Vec<crate::dvfs::PowerDomain>,
                  root: &mut Option<crate::dvfs::PowerDomain>|
     -> Result<()> {
        let node = stack.pop().expect("attach called with non-empty stack");
        match stack.last_mut() {
            Some(parent) => parent.children.push(node),
            None => {
                if root.is_some() {
                    return Err(bad("power-domain tree has multiple roots"));
                }
                *root = Some(node);
            }
        }
        Ok(())
    };
    for entry in value.split_whitespace() {
        let (depth, rest) = entry
            .split_once(':')
            .ok_or_else(|| bad("malformed domain entry"))?;
        let depth: usize = depth.parse().map_err(|_| bad("malformed domain depth"))?;
        let (name, nums) = rest
            .split_once(':')
            .ok_or_else(|| bad("malformed domain entry"))?;
        let parts: Vec<&str> = nums.split(',').collect();
        if parts.len() != 3 {
            return Err(bad("domain needs idle_w,sleep_w,residency_s"));
        }
        let node = crate::dvfs::PowerDomain {
            name: name.to_owned(),
            idle_w: parse_f64(parts[0])?,
            sleep_w: parse_f64(parts[1])?,
            residency_s: parse_f64(parts[2])?,
            children: Vec::new(),
        };
        while stack.len() > depth {
            attach(&mut stack, &mut root)?;
        }
        if stack.len() != depth {
            return Err(bad("power-domain depth skips a level"));
        }
        stack.push(node);
    }
    while !stack.is_empty() {
        attach(&mut stack, &mut root)?;
    }
    root.ok_or_else(|| bad("power-domain tree is empty"))
}

/// FNV-1a over `bytes` — the workspace's canonical cheap content hash
/// (no cryptographic claims; collision resistance is "good enough to key
/// a cache and spot a changed file").
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(PRIME);
    }
    h
}

impl WorkloadModel {
    /// Content hash of the bundle: FNV-1a over the canonical v1 serialized
    /// form ([`to_string`]). Two models hash equal iff their persisted
    /// files are byte-identical, so the hash survives a save/load
    /// round-trip — which is what lets the `hecmix-serve` plan cache and
    /// experiment manifest sidecars both record it and be compared.
    #[must_use]
    pub fn content_hash(&self) -> u64 {
        fnv1a(to_string(self).as_bytes())
    }
}

/// Combined content hash of an ordered model set (e.g. the `[ARM, AMD]`
/// pair a sweep consumes). Order-sensitive by design: the sweep's type
/// order is part of the query shape.
#[must_use]
pub fn models_hash(models: &[WorkloadModel]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for m in models {
        // Mix each bundle hash in with one FNV round over its bytes.
        for b in m.content_hash().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Write a bundle to a file.
pub fn save(model: &WorkloadModel, path: &std::path::Path) -> Result<()> {
    std::fs::write(path, to_string(model))
        .map_err(|e| Error::InvalidInput(format!("cannot write {}: {e}", path.display())))
}

/// Read a bundle from a file.
pub fn load(path: &std::path::Path) -> Result<WorkloadModel> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| Error::InvalidInput(format!("cannot read {}: {e}", path.display())))?;
    from_str(&text)
}

fn bad(why: &str) -> Error {
    Error::InvalidInput(format!("hecmix-model parse: {why}"))
}

fn fmt_f64(v: f64) -> String {
    if v == f64::INFINITY {
        "inf".to_owned()
    } else {
        // Rust's shortest round-trip representation.
        format!("{v}")
    }
}

fn parse_f64(s: &str) -> Result<f64> {
    if s == "inf" {
        return Ok(f64::INFINITY);
    }
    s.parse().map_err(|_| bad(&format!("bad number {s:?}")))
}

fn parse_u32(s: &str) -> Result<u32> {
    s.parse().map_err(|_| bad(&format!("bad integer {s:?}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> WorkloadModel {
        let platform = Platform::reference_arm();
        let mut m = WorkloadModel::synthetic_io_bound(&platform, "memcached", 2240.7, 1000.25);
        // Exercise multi-fit SpiMem and odd floats.
        m.profile.spi_mem = SpiMemFit::new(vec![
            (
                1,
                LinearFit {
                    intercept: 0.017_345,
                    slope: 1.862_113,
                    r2: 0.996_2,
                },
            ),
            (
                4,
                LinearFit {
                    intercept: 0.051,
                    slope: 6.082_912_551,
                    r2: 0.991_7,
                },
            ),
        ]);
        m.profile.active_cores = 0.107_356_201;
        m
    }

    #[test]
    fn roundtrip_is_exact() {
        let m = sample();
        let text = to_string(&m);
        let back = from_str(&text).unwrap();
        assert_eq!(back, m, "round-trip must be bit-exact");
        // And idempotent through a second cycle.
        assert_eq!(to_string(&back), text);
    }

    #[test]
    fn roundtrip_infinite_lambda() {
        let mut m = sample();
        m.profile.io.lambda_io = f64::INFINITY;
        let back = from_str(&to_string(&m)).unwrap();
        assert_eq!(back.profile.io.lambda_io, f64::INFINITY);
    }

    #[test]
    fn file_roundtrip() {
        let m = sample();
        let path = std::env::temp_dir().join("hecmix-persist-test.model");
        save(&m, &path).unwrap();
        let back = load(&path).unwrap();
        assert_eq!(back, m);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn rejects_garbage() {
        assert!(from_str("").is_err());
        assert!(from_str("not-a-model").is_err());
        assert!(from_str("hecmix-model v2\n").is_err());
        // Missing fields.
        assert!(from_str("hecmix-model v1\nworkload = x\n[platform]\nname = n\n").is_err());
        // Unknown key.
        let mut text = to_string(&sample());
        text.push_str("\n[power]\nbogus = 1\n");
        assert!(from_str(&text).is_err());
        // Malformed number.
        let text = to_string(&sample()).replace("wpi = ", "wpi = abc ");
        assert!(from_str(&text).is_err());
    }

    #[test]
    fn rejects_empty_spi_mem_without_panicking() {
        // Pre-fix, an empty `spi_mem = ` line hit SpiMemFit::new's assert
        // and aborted the process instead of returning a parse error.
        let text = to_string(&sample());
        let broken = replace_line(&text, "spi_mem = ", "spi_mem = ");
        assert!(matches!(from_str(&broken), Err(Error::InvalidInput(_))));
    }

    #[test]
    fn rejects_bad_frequencies_without_panicking() {
        // Pre-fix, NaN/zero/negative frequencies in a model file hit
        // Frequency::from_ghz's assert — a panic reachable from user input.
        for bad_freq in ["NaN", "0", "-1.4", "inf"] {
            let text = to_string(&sample());
            let broken = replace_line(&text, "freqs_ghz = ", &format!("freqs_ghz = {bad_freq}"));
            assert!(
                matches!(from_str(&broken), Err(Error::InvalidInput(_))),
                "freqs_ghz = {bad_freq} must be a parse error"
            );
            let text = to_string(&sample());
            let broken = replace_line(
                &text,
                "baseline_freq_ghz = ",
                &format!("baseline_freq_ghz = {bad_freq}"),
            );
            assert!(matches!(from_str(&broken), Err(Error::InvalidInput(_))));
            let text = to_string(&sample());
            let broken = replace_line(&text, "core_w = ", &format!("core_w = {bad_freq}:0.1,0.05"));
            assert!(matches!(from_str(&broken), Err(Error::InvalidInput(_))));
        }
    }

    /// Replace the whole line starting with `prefix` by `replacement`.
    fn replace_line(text: &str, prefix: &str, replacement: &str) -> String {
        text.lines()
            .map(|l| {
                if l.starts_with(prefix) {
                    replacement.to_owned()
                } else {
                    l.to_owned()
                }
            })
            .collect::<Vec<_>>()
            .join("\n")
    }

    #[test]
    fn content_hash_survives_roundtrip_and_detects_change() {
        let m = sample();
        let h = m.content_hash();
        // Known FNV-1a vectors pin the hash function itself.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        // Round-trip through the v1 format preserves the hash exactly.
        let back = from_str(&to_string(&m)).unwrap();
        assert_eq!(back.content_hash(), h);
        // Any semantic change moves it.
        let mut changed = m.clone();
        changed.power.mem_w += 0.001;
        assert_ne!(changed.content_hash(), h);
        // The set hash is order-sensitive (type order is query shape).
        let a = sample();
        let mut b = sample();
        b.workload = "other".to_owned();
        assert_ne!(models_hash(&[a.clone(), b.clone()]), models_hash(&[b, a]));
    }

    #[test]
    fn rejects_duplicate_keys() {
        let mut text = to_string(&sample());
        text.push_str("[power]\nmem_w = 1\n");
        assert!(from_str(&text).is_err());
    }

    #[test]
    fn validated_on_load() {
        // A structurally valid file with an out-of-domain value must fail
        // model validation.
        let text = to_string(&sample());
        let broken = text.replace("i_ps = ", "i_ps = -");
        assert!(from_str(&broken).is_err());
    }

    fn sample_with_ladder() -> WorkloadModel {
        let m = sample();
        let dvfs = NodeDvfs::synthetic_ladder(&m.power, m.platform.cores, 0.1);
        m.with_dvfs(dvfs)
    }

    #[test]
    fn dvfs_section_round_trips() {
        let m = sample_with_ladder();
        let text = to_string(&m);
        assert!(text.contains("[dvfs]"));
        let back = from_str(&text).unwrap();
        assert_eq!(m, back);
        // Second round trip is byte-stable.
        assert_eq!(text, to_string(&back));
    }

    #[test]
    fn legacy_models_serialize_without_dvfs_section() {
        // A two-point bundle carries the lift of its `[power]`, which is
        // not written — its text (and therefore its content hash, plan-cache
        // keys and gateway routing keys) stays byte-identical, and loading
        // it lifts it again.
        let m = sample();
        assert_eq!(m.dvfs, NodeDvfs::lift(&m.platform, &m.power));
        let text = to_string(&m);
        assert!(!text.contains("[dvfs]"));
        assert_eq!(from_str(&text).unwrap().dvfs, m.dvfs);
    }

    #[test]
    fn opp_active_power_may_be_zero_but_not_negative_or_nan() {
        let mut m = sample_with_ladder();
        m.dvfs.ladder.states[0].power_w = 0.0;
        assert_eq!(from_str(&to_string(&m)).unwrap(), m);
        for bad in [-0.1, f64::NAN] {
            m.dvfs.ladder.states[0].power_w = bad;
            assert!(matches!(
                from_str(&to_string(&m)),
                Err(Error::InvalidInput(_))
            ));
        }
    }

    #[test]
    fn content_hash_covers_opp_tables() {
        let m = sample_with_ladder();
        let h = m.content_hash();
        assert_ne!(h, sample().content_hash());
        let mut perturbed = m.clone();
        perturbed.dvfs.ladder.states[0].power_w *= 1.5;
        assert_ne!(h, perturbed.content_hash());
    }

    #[test]
    fn load_rejects_invalid_ladders() {
        let good = to_string(&sample_with_ladder());
        // Empty ladder.
        let broken = good
            .lines()
            .map(|l| if l.starts_with("opp = ") { "opp =" } else { l })
            .collect::<Vec<_>>()
            .join("\n");
        assert!(matches!(from_str(&broken), Err(Error::InvalidInput(_))));
        // Non-finite capacity.
        let broken = good.replacen("1024,", "nan,", 1);
        assert!(matches!(from_str(&broken), Err(Error::InvalidInput(_))));
        // Non-monotone OPP table: swap the first two entries' capacities
        // by brute text surgery on the opp line.
        let opp_line = good
            .lines()
            .find(|l| l.starts_with("opp = "))
            .unwrap()
            .to_owned();
        let entries: Vec<&str> = opp_line.trim_start_matches("opp = ").split(' ').collect();
        assert!(entries.len() >= 2);
        let mut swapped = entries.clone();
        swapped.swap(0, 1);
        let broken = good.replace(opp_line.trim_start_matches("opp = "), &swapped.join(" "));
        assert!(matches!(from_str(&broken), Err(Error::InvalidInput(_))));
    }

    #[test]
    fn load_rejects_malformed_domain_trees() {
        let good = to_string(&sample_with_ladder());
        // Depth that skips a level.
        let broken = good.replacen("1:core0:", "2:core0:", 1);
        assert!(matches!(from_str(&broken), Err(Error::InvalidInput(_))));
        // sleep_w above idle_w fails validation.
        let m = {
            let mut m = sample_with_ladder();
            m.dvfs.domain.sleep_w = m.dvfs.domain.idle_w + 1.0;
            m
        };
        assert!(matches!(
            from_str(&to_string(&m)),
            Err(Error::InvalidInput(_))
        ));
    }
}
