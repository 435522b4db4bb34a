//! Named metrics with units, the human-readable report, and the one-line
//! JSON result.

use hecmix_obs::json::Object;

use crate::stats;

/// Endpoint classes the client tags each request with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Endpoint {
    /// `POST /plan` with `deadline_ms`.
    Plan = 0,
    /// `POST /plan` with `p99_s`.
    TailPlan = 1,
    /// `POST /frontier`.
    Frontier = 2,
    /// `POST /frontier` with `resilient_k`.
    Resilient = 3,
    /// `POST /whatif`.
    Whatif = 4,
    /// `POST /submit`.
    Submit = 5,
    /// `GET /jobz`.
    Jobz = 6,
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as registered in `BENCHMARK.json`.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Metrics in report order.
#[derive(Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    /// Record `name` = `value` `unit`, and print it.
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str, note: &str) {
        println!("  {name:<32} {value:>14.4} {unit:<6} {note}");
        self.0.push(Metric {
            name: name.to_owned(),
            value,
            unit,
        });
    }

    /// The median of `samples` scaled by `scale`, or a note when the
    /// sample is too small to support one.
    pub fn put_median(&mut self, name: &str, samples: &[f64], scale: f64, unit: &'static str) {
        let mut v = samples.to_vec();
        stats::sort(&mut v);
        match stats::median(&v) {
            Some(m) => {
                self.put(name, m * scale, unit, &format!("p50, n={}", v.len()));
            }
            None => {
                println!(
                    "  {name:<32} {:>14} {unit:<6} n={} (too few for a median)",
                    "n/a",
                    v.len()
                );
            }
        }
    }

    /// The highest percentile up to p99 that `samples` supports.
    pub fn put_tail(&mut self, name: &str, samples: &[f64], scale: f64, unit: &'static str) {
        let mut v = samples.to_vec();
        stats::sort(&mut v);
        match stats::tail(&v, 0.99) {
            Some((q, t)) => {
                self.put(
                    name,
                    t * scale,
                    unit,
                    &format!("p{:.1}, n={}", q * 100.0, v.len()),
                );
            }
            None => {
                println!(
                    "  {name:<32} {:>14} {unit:<6} n={} (too few for a tail)",
                    "n/a",
                    v.len()
                );
            }
        }
    }

    /// A metric this workload does not produce, printed for completeness.
    pub fn absent(name: &str, unit: &str, why: &str) {
        println!("  {name:<32} {:>14} {unit:<6} {why}", "n/a");
    }

    /// The value of `name`, if recorded.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.name == name).map(|m| m.value)
    }

    /// Keep only the metrics named in `names`, in that order; the names
    /// missing from this run are returned instead.
    ///
    /// # Errors
    /// The names no metric was recorded for.
    pub fn select(&self, names: &[&str]) -> Result<Vec<Metric>, Vec<String>> {
        let mut out = Vec::new();
        let mut missing = Vec::new();
        for n in names {
            match self.0.iter().find(|m| m.name == *n) {
                Some(m) => out.push(m.clone()),
                None => missing.push((*n).to_owned()),
            }
        }
        if missing.is_empty() {
            Ok(out)
        } else {
            Err(missing)
        }
    }
}

/// The result line: `correct`, `attempted`, `failed` and `metrics`.
#[must_use]
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut m = Object::new();
    for metric in metrics {
        let mut v = Object::new();
        v.f64("value", metric.value);
        v.str("unit", metric.unit);
        m.raw(&metric.name, &v.finish());
    }
    let mut o = Object::new();
    o.bool("correct", correct);
    o.u64("attempted", attempted);
    o.u64("failed", failed);
    o.raw("metrics", &m.finish());
    o.finish()
}

/// A ratio printed with its base.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}
