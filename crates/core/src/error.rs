//! Error type for the analytical model.

use std::fmt;

/// Errors produced by model construction and the numerical solvers.
#[derive(Clone, Debug, PartialEq)]
pub enum ModelError {
    /// A parameter was outside its mathematical domain.
    InvalidParameter {
        /// Parameter name, e.g. `"q"`.
        name: &'static str,
        /// Offending value.
        value: f64,
        /// Human-readable domain description, e.g. `"must lie in (0, 1]"`.
        requirement: &'static str,
    },
    /// An iterative solver did not reach its tolerance.
    NoConvergence {
        /// What was being solved, e.g. `"self-consistency u"`.
        what: &'static str,
        /// Iterations performed before giving up.
        iterations: usize,
    },
    /// The fanout distribution cannot support the requested computation
    /// (e.g. zero mean fanout — nobody ever gossips).
    Degenerate {
        /// Explanation of the degeneracy.
        why: &'static str,
    },
    /// The requested target cannot be achieved for any parameter value
    /// (e.g. a reliability target above what `q = 1` delivers).
    Unachievable {
        /// What was requested.
        what: &'static str,
    },
    /// A scenario feature is outside an evaluation backend's model
    /// (e.g. crash schedules under the analytic generating-function
    /// model, which is untimed).
    Unsupported {
        /// The backend that rejected the scenario.
        backend: &'static str,
        /// The unsupported feature.
        what: &'static str,
    },
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::InvalidParameter {
                name,
                value,
                requirement,
            } => write!(f, "invalid parameter {name} = {value}: {requirement}"),
            ModelError::NoConvergence { what, iterations } => {
                write!(
                    f,
                    "solver for {what} did not converge after {iterations} iterations"
                )
            }
            ModelError::Degenerate { why } => write!(f, "degenerate model: {why}"),
            ModelError::Unachievable { what } => write!(f, "unachievable target: {what}"),
            ModelError::Unsupported { backend, what } => {
                write!(f, "backend {backend} does not support {what}")
            }
        }
    }
}

impl std::error::Error for ModelError {}

/// Lossless: the topology, faults and traffic specs' one error is
/// field for field `ModelError::InvalidParameter`.
impl From<gossip_stats::ParamError> for ModelError {
    fn from(e: gossip_stats::ParamError) -> Self {
        let (name, value, requirement) = (e.name, e.value, e.requirement);
        ModelError::InvalidParameter {
            name,
            value,
            requirement,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats() {
        let e = ModelError::InvalidParameter {
            name: "q",
            value: 1.5,
            requirement: "must lie in (0, 1]",
        };
        assert!(e.to_string().contains("q = 1.5"));
        let e = ModelError::NoConvergence {
            what: "u",
            iterations: 99,
        };
        assert!(e.to_string().contains("99"));
        let e = ModelError::Degenerate { why: "zero mean" };
        assert!(e.to_string().contains("zero mean"));
        let e = ModelError::Unachievable { what: "R >= 1" };
        assert!(e.to_string().contains("R >= 1"));
    }

    #[test]
    fn error_trait_object() {
        let e: Box<dyn std::error::Error> = Box::new(ModelError::Degenerate { why: "x" });
        assert!(e.source().is_none());
    }
}
