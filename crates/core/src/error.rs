//! Error type shared across the model crates.

use std::fmt;

/// Errors produced by model construction and evaluation.
#[derive(Debug, Clone, PartialEq)]
pub enum Error {
    /// A platform was configured with an empty frequency or core list.
    EmptyPlatform(String),
    /// A requested frequency is not one of the platform's P-states.
    InvalidFrequency {
        /// Platform name.
        platform: String,
        /// The offending frequency in GHz.
        ghz: f64,
    },
    /// A requested core count is outside `1..=cores`.
    InvalidCoreCount {
        /// Platform name.
        platform: String,
        /// The offending core count.
        cores: u32,
    },
    /// The workload split solver failed to bracket a solution.
    MatchingFailed(String),
    /// A cluster configuration has no nodes at all.
    EmptyCluster,
    /// Mismatched number of workload profiles vs. deployed node types.
    ProfileMismatch {
        /// Node types deployed.
        deployments: usize,
        /// Profiles supplied.
        profiles: usize,
    },
    /// A model input is out of its valid domain (negative demand, NaN, ...).
    InvalidInput(String),
    /// Queueing model driven at or beyond saturation (utilization >= 1).
    Saturated {
        /// Offered utilization.
        utilization: f64,
    },
    /// A sweep's fold panicked; the payload message is preserved so the
    /// caller's thread survives and can report the failure.
    WorkerPanic(String),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::EmptyPlatform(name) => {
                write!(f, "platform `{name}` has no frequencies or cores")
            }
            Error::InvalidFrequency { platform, ghz } => {
                write!(f, "{ghz} GHz is not a P-state of platform `{platform}`")
            }
            Error::InvalidCoreCount { platform, cores } => {
                write!(f, "{cores} cores is not valid for platform `{platform}`")
            }
            Error::MatchingFailed(why) => write!(f, "mix-and-match solver failed: {why}"),
            Error::EmptyCluster => write!(f, "cluster configuration deploys no nodes"),
            Error::ProfileMismatch { deployments, profiles } => write!(
                f,
                "cluster deploys {deployments} node types but {profiles} workload profiles were supplied"
            ),
            Error::InvalidInput(why) => write!(f, "invalid model input: {why}"),
            Error::Saturated { utilization } => {
                write!(f, "queueing system saturated: utilization {utilization} >= 1")
            }
            Error::WorkerPanic(msg) => write!(f, "sweep worker panicked: {msg}"),
        }
    }
}

impl std::error::Error for Error {}

/// Convenient result alias.
pub type Result<T> = std::result::Result<T, Error>;
