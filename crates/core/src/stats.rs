//! Small statistics toolbox: least-squares linear regression with its r²,
//! means and standard deviations.
//!
//! The paper's characterization step (§II-D, §III-C) fits `SPI_mem` linearly
//! over core frequency and reports the Pearson correlation (`r² ≥ 0.94` in
//! Fig. 3), which for a one-variable least-squares line is the fit's r².
//! These helpers are shared by the model (`SpiMemFit`) and by the
//! `hecmix-profile` measurement pipeline.

use serde::{Deserialize, Serialize};

/// Why [`LinearFit::try_fit`] could not produce a well-posed fit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FitError {
    /// The x and y slices have different lengths.
    LengthMismatch {
        /// Number of x samples.
        xs: usize,
        /// Number of y samples.
        ys: usize,
    },
    /// Fewer than two samples — a line is not identifiable.
    TooFewPoints {
        /// Number of samples provided.
        n: usize,
    },
    /// All x values are equal (zero variance in the predictor) while y
    /// varies: the slope is not identifiable and no line explains the data.
    Degenerate,
}

impl std::fmt::Display for FitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FitError::LengthMismatch { xs, ys } => {
                write!(f, "x/y length mismatch ({xs} vs {ys})")
            }
            FitError::TooFewPoints { n } => {
                write!(f, "need at least two points to fit a line, got {n}")
            }
            FitError::Degenerate => {
                write!(f, "degenerate fit: constant x with varying y")
            }
        }
    }
}

impl std::error::Error for FitError {}

/// An ordinary-least-squares fit `y ≈ intercept + slope · x` with its
/// coefficient of determination.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinearFit {
    /// Intercept `a` of `y = a + b x`.
    pub intercept: f64,
    /// Slope `b` of `y = a + b x`.
    pub slope: f64,
    /// Coefficient of determination `r²` of the fit, in `[0, 1]`.
    /// A degenerate constant-x fit over varying y has `r² = 0`: the
    /// mean-fallback line explains none of the variance.
    pub r2: f64,
}

impl LinearFit {
    /// Evaluate the fitted line at `x`.
    #[must_use]
    pub fn eval(&self, x: f64) -> f64 {
        self.intercept + self.slope * x
    }

    /// Fit `y = a + b x` by ordinary least squares.
    ///
    /// Production callers (the `hecmix-profile` characterization pipeline)
    /// should prefer this over [`LinearFit::fit`]: bad measurement input is
    /// reported as a [`FitError`] instead of panicking or silently claiming
    /// a perfect fit.
    ///
    /// # Errors
    /// [`FitError::LengthMismatch`] or [`FitError::TooFewPoints`] for
    /// ill-shaped input; [`FitError::Degenerate`] when all x are equal but
    /// y varies (the slope is unidentifiable).
    pub fn try_fit(xs: &[f64], ys: &[f64]) -> Result<Self, FitError> {
        if xs.len() != ys.len() {
            return Err(FitError::LengthMismatch {
                xs: xs.len(),
                ys: ys.len(),
            });
        }
        if xs.len() < 2 {
            return Err(FitError::TooFewPoints { n: xs.len() });
        }
        let mx = mean(xs);
        let my = mean(ys);
        let sxx: f64 = xs.iter().map(|x| (x - mx) * (x - mx)).sum();
        let sxy: f64 = xs.iter().zip(ys).map(|(x, y)| (x - mx) * (y - my)).sum();
        let syy: f64 = ys.iter().map(|y| (y - my) * (y - my)).sum();
        if sxx == 0.0 {
            return if syy == 0.0 {
                // All points coincide in x *and* y: the horizontal line
                // through the common y value reproduces every sample.
                Ok(Self {
                    intercept: my,
                    slope: 0.0,
                    r2: 1.0,
                })
            } else {
                Err(FitError::Degenerate)
            };
        }
        let slope = sxy / sxx;
        let intercept = my - slope * mx;
        let r2 = if syy == 0.0 {
            1.0 // perfectly flat data is perfectly explained by slope ≈ 0
        } else {
            let ss_res: f64 = xs
                .iter()
                .zip(ys)
                .map(|(x, y)| {
                    let e = y - (intercept + slope * x);
                    e * e
                })
                .sum();
            (1.0 - ss_res / syy).clamp(0.0, 1.0)
        };
        Ok(Self {
            intercept,
            slope,
            r2,
        })
    }

    /// Panicking convenience wrapper around [`LinearFit::try_fit`] for
    /// internal helpers and tests whose inputs are well-formed by
    /// construction. A degenerate constant-x input falls back to the mean
    /// with `r² = 0` (it used to claim `r² = 1`, which let broken
    /// characterization sweeps masquerade as perfect fits).
    ///
    /// # Panics
    /// Panics if the slices have different lengths or fewer than two points.
    #[must_use]
    pub fn fit(xs: &[f64], ys: &[f64]) -> Self {
        match Self::try_fit(xs, ys) {
            Ok(fit) => fit,
            Err(FitError::Degenerate) => Self {
                intercept: mean(ys),
                slope: 0.0,
                r2: 0.0,
            },
            Err(e) => panic!("{e}"),
        }
    }
}

/// Arithmetic mean. Returns 0 for an empty slice.
#[must_use]
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Population standard deviation. Returns 0 for fewer than two points.
#[must_use]
pub fn std_dev(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    (xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64).sqrt()
}

/// Relative error `|predicted - measured| / measured` as a percentage.
/// Returns 0 when `measured` is 0 and `predicted` is 0 too; infinite
/// otherwise (surfaced deliberately — a zero measurement with a non-zero
/// prediction is a real validation failure).
#[must_use]
pub fn relative_error_pct(predicted: f64, measured: f64) -> f64 {
    if measured == 0.0 {
        return if predicted == 0.0 { 0.0 } else { f64::INFINITY };
    }
    ((predicted - measured) / measured).abs() * 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fits_exact_line() {
        let xs = [0.2, 0.5, 0.8, 1.1, 1.4];
        let ys: Vec<f64> = xs.iter().map(|x| 1.5 + 2.0 * x).collect();
        let fit = LinearFit::fit(&xs, &ys);
        assert!((fit.intercept - 1.5).abs() < 1e-12);
        assert!((fit.slope - 2.0).abs() < 1e-12);
        assert!((fit.r2 - 1.0).abs() < 1e-12);
        assert!((fit.eval(1.0) - 3.5).abs() < 1e-12);
    }

    #[test]
    fn fit_noisy_line_has_high_r2() {
        let xs: Vec<f64> = (0..50).map(|i| i as f64 / 10.0).collect();
        // Deterministic pseudo-noise.
        let ys: Vec<f64> = xs
            .iter()
            .enumerate()
            .map(|(i, x)| 3.0 + 0.7 * x + 0.01 * ((i * 2654435761) % 100) as f64 / 100.0)
            .collect();
        let fit = LinearFit::fit(&xs, &ys);
        assert!((fit.slope - 0.7).abs() < 0.05);
        assert!(fit.r2 > 0.99, "r2 = {}", fit.r2);
    }

    #[test]
    fn degenerate_constant_x() {
        // Regression: constant x with varying y used to report r² = 1.0,
        // letting a broken frequency sweep pass for a perfect fit. The
        // panicking wrapper now falls back to the mean with r² = 0, and
        // `try_fit` reports the degeneracy explicitly.
        let fit = LinearFit::fit(&[1.0, 1.0, 1.0], &[2.0, 4.0, 6.0]);
        assert_eq!(fit.slope, 0.0);
        assert!((fit.intercept - 4.0).abs() < 1e-12);
        assert_eq!(fit.r2, 0.0);
        assert_eq!(
            LinearFit::try_fit(&[1.0, 1.0, 1.0], &[2.0, 4.0, 6.0]),
            Err(FitError::Degenerate)
        );
    }

    #[test]
    fn coincident_points_are_a_perfect_constant_fit() {
        // Constant x *and* constant y is not degenerate: the horizontal
        // line through the shared value reproduces every sample.
        let fit = LinearFit::try_fit(&[2.0, 2.0], &[5.0, 5.0]).unwrap();
        assert_eq!(fit.slope, 0.0);
        assert!((fit.intercept - 5.0).abs() < 1e-12);
        assert!((fit.r2 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn try_fit_rejects_ill_shaped_input() {
        assert_eq!(
            LinearFit::try_fit(&[1.0], &[2.0]),
            Err(FitError::TooFewPoints { n: 1 })
        );
        assert_eq!(
            LinearFit::try_fit(&[1.0, 2.0], &[2.0]),
            Err(FitError::LengthMismatch { xs: 2, ys: 1 })
        );
        assert!(LinearFit::try_fit(&[1.0, 2.0], &[3.0, 4.0]).is_ok());
    }

    #[test]
    fn flat_y_has_r2_one() {
        let fit = LinearFit::fit(&[1.0, 2.0, 3.0], &[5.0, 5.0, 5.0]);
        assert!((fit.slope).abs() < 1e-12);
        assert!((fit.r2 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn mean_and_std() {
        assert_eq!(mean(&[]), 0.0);
        assert!((mean(&[1.0, 2.0, 3.0]) - 2.0).abs() < 1e-12);
        assert_eq!(std_dev(&[1.0]), 0.0);
        let sd = std_dev(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert!((sd - 2.0).abs() < 1e-12);
    }

    #[test]
    fn relative_error_edge_cases() {
        assert!((relative_error_pct(110.0, 100.0) - 10.0).abs() < 1e-12);
        assert!((relative_error_pct(90.0, 100.0) - 10.0).abs() < 1e-12);
        assert_eq!(relative_error_pct(0.0, 0.0), 0.0);
        assert!(relative_error_pct(1.0, 0.0).is_infinite());
    }
}
