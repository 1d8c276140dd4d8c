//! Error type for grammar parsing and serialisation.

use std::fmt;

/// An error produced while parsing or serialising a message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GrammarError {
    /// The input bytes are not a valid message of the expected format.
    Malformed {
        /// The grammar/unit that was being parsed.
        unit: String,
        /// What went wrong.
        reason: String,
    },
    /// A message value was missing a field required for serialisation.
    MissingField {
        /// The grammar/unit being serialised.
        unit: String,
        /// The missing field.
        field: String,
    },
    /// A field value does not fit the wire representation (e.g. a length
    /// that exceeds the field's maximum, violating the bounded-size rule).
    FieldOverflow {
        /// The grammar/unit being serialised.
        unit: String,
        /// The offending field.
        field: String,
        /// The value that did not fit.
        value: i128,
        /// The minimum representable value.
        min: i128,
        /// The maximum representable value.
        max: i128,
    },
    /// A declared grammar is internally inconsistent (e.g. a length
    /// expression references an unknown field).
    InvalidGrammar {
        /// The grammar/unit with the problem.
        unit: String,
        /// What is inconsistent.
        reason: String,
    },
}

impl GrammarError {
    /// Convenience constructor for [`GrammarError::Malformed`].
    pub fn malformed(unit: impl Into<String>, reason: impl Into<String>) -> Self {
        GrammarError::Malformed {
            unit: unit.into(),
            reason: reason.into(),
        }
    }

    /// Convenience constructor for [`GrammarError::InvalidGrammar`].
    pub fn invalid(unit: impl Into<String>, reason: impl Into<String>) -> Self {
        GrammarError::InvalidGrammar {
            unit: unit.into(),
            reason: reason.into(),
        }
    }
}

impl fmt::Display for GrammarError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GrammarError::Malformed { unit, reason } => {
                write!(f, "malformed `{unit}` message: {reason}")
            }
            GrammarError::MissingField { unit, field } => {
                write!(f, "cannot serialise `{unit}`: missing field `{field}`")
            }
            GrammarError::FieldOverflow {
                unit,
                field,
                value,
                min,
                max,
            } => {
                write!(f, "field `{field}` of `{unit}` holds {value}, outside the wire range {min}..={max}")
            }
            GrammarError::InvalidGrammar { unit, reason } => {
                write!(f, "invalid grammar `{unit}`: {reason}")
            }
        }
    }
}

impl std::error::Error for GrammarError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = GrammarError::FieldOverflow {
            unit: "cmd".into(),
            field: "key_len".into(),
            value: 70000,
            min: 0,
            max: 65535,
        };
        let s = e.to_string();
        assert!(s.contains("key_len") && s.contains("65535"));
        let m = GrammarError::malformed("http", "truncated header");
        assert!(m.to_string().contains("truncated header"));
    }
}
