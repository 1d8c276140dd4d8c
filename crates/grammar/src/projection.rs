//! Field projections: the set of fields a FLICK program actually accesses.
//!
//! FLICK grammars aim to be reusable and therefore describe *all* fields of a
//! message format, but a given service usually touches only a few of them
//! (the Memcached router needs `opcode` and `key`, nothing else). The FLICK
//! compiler derives a [`Projection`] from the program's data-type
//! declarations and field accesses; parsers use it to skip materialising any
//! field outside the projection, keeping only the raw bytes for pass-through.

use std::collections::BTreeSet;

/// The set of message fields a service requires.
///
/// A codec given no projection (`None`) materialises every field.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Projection {
    fields: BTreeSet<String>,
}

impl Projection {
    /// Builds a projection from an iterator of field names.
    pub fn of<I, S>(names: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        Projection {
            fields: names.into_iter().map(Into::into).collect(),
        }
    }

    /// Adds a field to the projection.
    pub fn with(mut self, name: impl Into<String>) -> Self {
        self.fields.insert(name.into());
        self
    }

    /// Returns `true` if the named field must be materialised.
    pub fn requires(&self, name: &str) -> bool {
        self.fields.contains(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn explicit_projection_filters() {
        let p = Projection::of(["opcode", "key"]);
        assert!(p.requires("key"));
        assert!(!p.requires("value"));
        assert_eq!(p, Projection::of(["key", "opcode"]));
    }

    #[test]
    fn with_adds_fields() {
        let p = Projection::default().with("key");
        assert!(p.requires("key"));
        assert!(!p.requires("opcode"));
        assert_ne!(p, Projection::default());
    }

    /// The order and repeats of the names given do not matter.
    #[test]
    fn iter_is_sorted_and_deduplicated() {
        let p = Projection::of(["b", "a", "b"]);
        assert_eq!(p, Projection::of(["a", "b"]));
        assert!(p.requires("a") && p.requires("b"));
    }
}
