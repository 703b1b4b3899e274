//! The one malformed-parameter error of the spec crates.

use std::fmt;

/// A parameter outside its domain. The topology, faults and traffic
/// specs validate into it, and the model layer maps it losslessly onto
/// its own `InvalidParameter`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ParamError {
    /// Parameter name, e.g. `"k"`.
    pub name: &'static str,
    /// Offending value.
    pub value: f64,
    /// Human-readable domain description.
    pub requirement: &'static str,
}

impl ParamError {
    /// The error for parameter `name` at `value`, which must meet
    /// `requirement`.
    pub fn new(name: &'static str, value: f64, requirement: &'static str) -> Self {
        Self {
            name,
            value,
            requirement,
        }
    }
}

impl fmt::Display for ParamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invalid parameter {} = {}: {}",
            self.name, self.value, self.requirement
        )
    }
}

impl std::error::Error for ParamError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_parameter_and_its_domain() {
        let e = ParamError::new("k", 0.0, "k-regular degree needs 1 <= k < n");
        assert_eq!(
            e.to_string(),
            "invalid parameter k = 0: k-regular degree needs 1 <= k < n"
        );
        let boxed: Box<dyn std::error::Error> = Box::new(e);
        assert!(boxed.source().is_none());
    }
}
