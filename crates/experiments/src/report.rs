//! Output helpers: aligned console tables, CSV series files and a small
//! ASCII scatter plot for eyeballing frontier shapes in a terminal.

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::time::Instant;

use hecmix_obs::RunManifest;

/// Render rows as an aligned console table. `header` supplies the column
/// names; every row must have the same arity.
#[must_use]
pub fn render_table(header: &[&str], rows: &[Vec<String>]) -> String {
    let cols = header.len();
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        assert_eq!(row.len(), cols, "row arity mismatch");
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let mut out = String::new();
    let line = |out: &mut String, cells: &[String]| {
        for (i, (cell, w)) in cells.iter().zip(&widths).enumerate() {
            if i > 0 {
                out.push_str("  ");
            }
            let _ = write!(out, "{cell:<w$}");
        }
        // Trim trailing padding.
        while out.ends_with(' ') {
            out.pop();
        }
        out.push('\n');
    };
    line(
        &mut out,
        &header.iter().map(|s| (*s).to_owned()).collect::<Vec<_>>(),
    );
    let rule: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
    out.push_str(&"-".repeat(rule));
    out.push('\n');
    for row in rows {
        line(&mut out, row);
    }
    out
}

/// Reproducibility context shared by every artifact a run writes: what
/// the manifest sidecars record besides per-artifact shape and timing.
#[derive(Debug, Clone)]
pub struct RunContext {
    /// Base RNG seed of the run.
    pub seed: u64,
    /// Full argv of the generating process.
    pub argv: Vec<String>,
    /// Git revision of the working tree, or `"unknown"`.
    pub git_rev: String,
    /// When the run started — manifests record the wall time from here to
    /// the moment their artifact was written.
    pub started: Instant,
}

impl RunContext {
    /// Capture the current process: argv, the git revision of `repo_dir`,
    /// and the run start time.
    #[must_use]
    pub fn capture(seed: u64, repo_dir: &Path) -> Self {
        Self {
            seed,
            argv: std::env::args().collect(),
            git_rev: hecmix_obs::manifest::git_rev(repo_dir),
            started: Instant::now(),
        }
    }
}

/// The sentinel written in place of a non-finite numeric cell. Bare `NaN`
/// or `inf` breaks downstream parsing of `results/*.csv`; `NA` is what R
/// and pandas both read as a missing value.
pub const NON_FINITE_SENTINEL: &str = "NA";

/// A CSV writer for result series. Writes under a results directory;
/// quoting is minimal (fields must not contain commas/newlines — ours are
/// numbers and simple labels, asserted). Non-finite numeric cells are
/// replaced by [`NON_FINITE_SENTINEL`] with a telemetry warning. With a
/// [`RunContext`] attached, every CSV gains a `<name>.manifest.json`
/// reproducibility sidecar.
pub struct CsvWriter {
    dir: PathBuf,
    context: Option<RunContext>,
    selfcheck: parking_lot::Mutex<Option<hecmix_obs::SelfCheckOutcome>>,
    model_hash_source: parking_lot::Mutex<Option<ModelHashSource>>,
}

/// Lazy supplier of model-hash manifest lines, polled at manifest write
/// time so each sidecar reflects every model characterized up to that
/// point (models are built on demand, after the writer is constructed).
pub type ModelHashSource = Box<dyn Fn() -> Vec<String> + Send + Sync>;

impl CsvWriter {
    /// Writer rooted at `dir` (created if missing), without manifests.
    pub fn new(dir: impl AsRef<Path>) -> io::Result<Self> {
        fs::create_dir_all(dir.as_ref())?;
        Ok(Self {
            dir: dir.as_ref().to_owned(),
            context: None,
            selfcheck: parking_lot::Mutex::new(None),
            model_hash_source: parking_lot::Mutex::new(None),
        })
    }

    /// Attach a lazy model-hash supplier (e.g. the lab's characterization
    /// cache) of lines `"<workload>-<platform>:<16-hex-fnv1a>"`. Every
    /// manifest written afterwards lists them, sorted and deduplicated,
    /// so an artifact attests exactly which characterizations produced it.
    pub fn set_model_hash_source(&self, source: ModelHashSource) {
        *self.model_hash_source.lock() = Some(source);
    }

    /// Attach a self-check outcome: every manifest written afterwards
    /// carries the summary, so artifacts can attest the differential
    /// oracles held for the run that produced them (DESIGN.md §10).
    pub fn record_selfcheck(&self, outcome: hecmix_obs::SelfCheckOutcome) {
        *self.selfcheck.lock() = Some(outcome);
    }

    /// Writer rooted at `dir` that writes a manifest sidecar next to every
    /// CSV, stamped from `context`.
    pub fn with_context(dir: impl AsRef<Path>, context: RunContext) -> io::Result<Self> {
        let mut w = Self::new(dir)?;
        w.context = Some(context);
        Ok(w)
    }

    /// Write `rows` with `header` to `<dir>/<name>.csv` (plus the manifest
    /// sidecar when a [`RunContext`] is attached). Returns the CSV path.
    pub fn write(&self, name: &str, header: &[&str], rows: &[Vec<String>]) -> io::Result<PathBuf> {
        let mut body = String::new();
        let check = |s: &str| {
            assert!(
                !s.contains(',') && !s.contains('\n') && !s.contains('"'),
                "CSV field needs quoting: {s:?}"
            );
        };
        header.iter().for_each(|h| check(h));
        body.push_str(&header.join(","));
        body.push('\n');
        for (row_idx, row) in rows.iter().enumerate() {
            assert_eq!(row.len(), header.len(), "row arity mismatch");
            for (col_idx, cell) in row.iter().enumerate() {
                check(cell);
                if col_idx > 0 {
                    body.push(',');
                }
                if cell_is_non_finite(cell) {
                    hecmix_obs::emit(|| hecmix_obs::Event::CsvNonFinite {
                        artifact: name.to_owned(),
                        row: row_idx,
                        column: header[col_idx].to_owned(),
                    });
                    body.push_str(NON_FINITE_SENTINEL);
                } else {
                    body.push_str(cell);
                }
            }
            body.push('\n');
        }
        let path = self.dir.join(format!("{name}.csv"));
        fs::write(&path, body)?;
        if let Some(ctx) = &self.context {
            let mut model_hashes = self
                .model_hash_source
                .lock()
                .as_ref()
                .map_or_else(Vec::new, |source| source());
            model_hashes.sort();
            model_hashes.dedup();
            RunManifest {
                artifact: name.to_owned(),
                seed: ctx.seed,
                argv: ctx.argv.clone(),
                git_rev: ctx.git_rev.clone(),
                wall_s: ctx.started.elapsed().as_secs_f64(),
                rows: rows.len(),
                columns: header.iter().map(|h| (*h).to_owned()).collect(),
                selfcheck: *self.selfcheck.lock(),
                model_hashes,
            }
            .write_beside(&path)?;
        }
        hecmix_obs::emit(|| hecmix_obs::Event::ArtifactWritten {
            artifact: name.to_owned(),
            rows: rows.len(),
        });
        Ok(path)
    }
}

/// Whether a cell holds a non-finite number. Matches only the values the
/// float formatter could have produced (`NaN`, `inf`, `-inf` and their
/// case variants) — labels like `infeasible` must pass through untouched.
fn cell_is_non_finite(cell: &str) -> bool {
    matches!(
        cell.trim(),
        "NaN"
            | "nan"
            | "NAN"
            | "inf"
            | "-inf"
            | "Inf"
            | "-Inf"
            | "infinity"
            | "-infinity"
            | "Infinity"
            | "-Infinity"
    )
}

/// A minimal ASCII scatter plot (log-x optional), for quick terminal
/// inspection of energy–deadline shapes.
#[must_use]
pub fn ascii_scatter(
    points: &[(f64, f64, char)],
    width: usize,
    height: usize,
    log_x: bool,
) -> String {
    if points.is_empty() {
        return "(no points)\n".to_owned();
    }
    let tx = |x: f64| if log_x { x.max(1e-12).log10() } else { x };
    let xs: Vec<f64> = points.iter().map(|p| tx(p.0)).collect();
    let ys: Vec<f64> = points.iter().map(|p| p.1).collect();
    let (xmin, xmax) = (
        xs.iter().cloned().fold(f64::INFINITY, f64::min),
        xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max),
    );
    let (ymin, ymax) = (
        ys.iter().cloned().fold(f64::INFINITY, f64::min),
        ys.iter().cloned().fold(f64::NEG_INFINITY, f64::max),
    );
    let xspan = (xmax - xmin).max(1e-12);
    let yspan = (ymax - ymin).max(1e-12);
    let mut grid = vec![vec![' '; width]; height];
    for (x, y, c) in points {
        let gx = (((tx(*x) - xmin) / xspan) * (width - 1) as f64).round() as usize;
        let gy = (((y - ymin) / yspan) * (height - 1) as f64).round() as usize;
        let row = height - 1 - gy;
        grid[row][gx.min(width - 1)] = *c;
    }
    let mut out = String::new();
    for row in &grid {
        out.push('|');
        out.extend(row.iter());
        out.push('\n');
    }
    out.push('+');
    out.push_str(&"-".repeat(width));
    out.push('\n');
    out
}

/// Format a float compactly for tables (3 significant-ish digits).
/// Non-finite values become [`NON_FINITE_SENTINEL`] — bare `NaN`/`inf`
/// must never reach a results file.
#[must_use]
pub fn fmt_f(v: f64) -> String {
    if !v.is_finite() {
        return NON_FINITE_SENTINEL.to_owned();
    }
    if v == 0.0 {
        return "0".to_owned();
    }
    let a = v.abs();
    if a >= 100.0 {
        format!("{v:.0}")
    } else if a >= 1.0 {
        format!("{v:.2}")
    } else if a >= 0.001 {
        format!("{v:.4}")
    } else {
        format!("{v:.3e}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_alignment() {
        let s = render_table(
            &["name", "value"],
            &[
                vec!["short".into(), "1".into()],
                vec!["a-much-longer-name".into(), "22".into()],
            ],
        );
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("name"));
        assert!(lines[1].chars().all(|c| c == '-'));
        // Values aligned under the same column start.
        let col = lines[0].find("value").unwrap();
        assert_eq!(&lines[2][col..col + 1], "1");
        assert_eq!(&lines[3][col..col + 2], "22");
    }

    #[test]
    #[should_panic(expected = "row arity mismatch")]
    fn table_rejects_ragged_rows() {
        let _ = render_table(&["a", "b"], &[vec!["1".into()]]);
    }

    #[test]
    fn csv_writes_file() {
        let dir = std::env::temp_dir().join("hecmix-report-test");
        let w = CsvWriter::new(&dir).unwrap();
        let path = w
            .write("t", &["x", "y"], &[vec!["1".into(), "2".into()]])
            .unwrap();
        let body = std::fs::read_to_string(path).unwrap();
        assert_eq!(body, "x,y\n1,2\n");
    }

    #[test]
    #[should_panic(expected = "needs quoting")]
    fn csv_rejects_commas() {
        let dir = std::env::temp_dir().join("hecmix-report-test2");
        let w = CsvWriter::new(&dir).unwrap();
        let _ = w.write("t", &["x"], &[vec!["a,b".into()]]);
    }

    #[test]
    fn scatter_contains_markers() {
        let s = ascii_scatter(&[(1.0, 1.0, 'A'), (100.0, 5.0, 'B')], 40, 10, true);
        assert!(s.contains('A'));
        assert!(s.contains('B'));
        assert_eq!(s.lines().count(), 11);
        assert_eq!(ascii_scatter(&[], 10, 5, false), "(no points)\n");
    }

    #[test]
    fn float_formats() {
        assert_eq!(fmt_f(0.0), "0");
        assert_eq!(fmt_f(1234.6), "1235");
        assert_eq!(fmt_f(12.345), "12.35");
        assert_eq!(fmt_f(0.0123), "0.0123");
        assert_eq!(fmt_f(0.0000123), "1.230e-5");
        assert_eq!(fmt_f(f64::NAN), "NA");
        assert_eq!(fmt_f(f64::INFINITY), "NA");
        assert_eq!(fmt_f(f64::NEG_INFINITY), "NA");
    }

    #[test]
    fn csv_replaces_non_finite_cells_with_sentinel() {
        let dir = std::env::temp_dir().join("hecmix-report-nonfinite");
        let w = CsvWriter::new(&dir).unwrap();
        let path = w
            .write(
                "t",
                &["x", "y"],
                &[
                    vec!["NaN".into(), "2".into()],
                    vec!["1".into(), "inf".into()],
                    vec!["infeasible".into(), "-inf".into()],
                ],
            )
            .unwrap();
        let body = std::fs::read_to_string(path).unwrap();
        assert_eq!(body, "x,y\nNA,2\n1,NA\ninfeasible,NA\n");
    }

    #[test]
    fn csv_with_context_writes_manifest_sidecar() {
        let dir = std::env::temp_dir().join("hecmix-report-manifest");
        let ctx = RunContext {
            seed: 7,
            argv: vec!["experiments".into(), "--all".into()],
            git_rev: "deadbee".into(),
            started: Instant::now(),
        };
        let w = CsvWriter::with_context(&dir, ctx).unwrap();
        w.write("m", &["a"], &[vec!["1".into()]]).unwrap();
        let side = std::fs::read_to_string(dir.join("m.manifest.json")).unwrap();
        assert!(side.contains("\"artifact\":\"m\""), "{side}");
        assert!(side.contains("\"seed\":7"));
        assert!(side.contains("\"git_rev\":\"deadbee\""));
        assert!(side.contains("\"columns\":[\"a\"]"));
        // No hashes recorded: the field is omitted entirely.
        assert!(!side.contains("model_hashes"), "{side}");

        // Sourced hashes appear sorted and deduplicated in later manifests.
        w.set_model_hash_source(Box::new(|| {
            vec![
                "ep-k10:00000000deadbeef".into(),
                "ep-cortex-a9:00000000cafef00d".into(),
                "ep-k10:00000000deadbeef".into(),
            ]
        }));
        w.write("m2", &["a"], &[vec!["1".into()]]).unwrap();
        let side2 = std::fs::read_to_string(dir.join("m2.manifest.json")).unwrap();
        assert!(
            side2.contains(
                "\"model_hashes\":[\"ep-cortex-a9:00000000cafef00d\",\"ep-k10:00000000deadbeef\"]"
            ),
            "{side2}"
        );
    }
}
