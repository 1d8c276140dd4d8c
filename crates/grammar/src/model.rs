//! The grammar model: units, fields, variables and length expressions.
//!
//! A [`UnitGrammar`] describes how one message type is laid out on the wire.
//! It mirrors the constructs of Listing 2 in the paper: fixed-size integer
//! fields, variable-size byte/string fields whose length is given by an
//! expression over earlier fields, computed variables, anonymous (skipped)
//! fields and a unit-wide byte order.

use crate::error::GrammarError;

/// Byte order of multi-byte integer fields.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ByteOrder {
    /// Network byte order (the default, as in Listing 2's `%byteorder = big`).
    #[default]
    Big,
    /// Little-endian byte order.
    Little,
}

/// An integer expression over previously parsed fields and variables.
///
/// Length expressions are evaluated during parsing to size variable-length
/// fields, and during serialisation to recompute length-bearing fields.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LenExpr {
    /// A constant number of bytes.
    Const(u64),
    /// The value of a previously parsed integer field or variable.
    Field(String),
    /// The serialised byte length of a (possibly later) byte/string field.
    ///
    /// Only meaningful during serialisation, where actual field sizes are
    /// known; using it during parsing is an [`GrammarError::InvalidGrammar`].
    LenOf(String),
    /// Sum of two expressions.
    Add(Box<LenExpr>, Box<LenExpr>),
    /// Difference of two expressions (saturating at zero is **not** applied;
    /// a negative result is a malformed-message error).
    Sub(Box<LenExpr>, Box<LenExpr>),
    /// Product of two expressions.
    Mul(Box<LenExpr>, Box<LenExpr>),
}

impl LenExpr {
    /// Convenience constructor: `a + b`.
    #[allow(clippy::should_implement_trait)]
    pub fn add(a: LenExpr, b: LenExpr) -> LenExpr {
        LenExpr::Add(Box::new(a), Box::new(b))
    }

    /// Convenience constructor: `a - b`.
    #[allow(clippy::should_implement_trait)]
    pub fn sub(a: LenExpr, b: LenExpr) -> LenExpr {
        LenExpr::Sub(Box::new(a), Box::new(b))
    }

    /// Convenience constructor: a field reference.
    pub fn field(name: impl Into<String>) -> LenExpr {
        LenExpr::Field(name.into())
    }

    /// Evaluates the expression against an environment of known values:
    /// an association list, latest binding last (it shadows earlier ones,
    /// as a map insert would), which the codec lends from its stack.
    ///
    /// `unit` is used for error reporting only.
    pub fn eval(&self, env: &[(&str, u64)], unit: &str) -> Result<u64, GrammarError> {
        match self {
            LenExpr::Const(v) => Ok(*v),
            LenExpr::Field(name) | LenExpr::LenOf(name) => lookup(env, name).ok_or_else(|| {
                GrammarError::invalid(
                    unit,
                    format!("length expression references unknown field `{name}`"),
                )
            }),
            LenExpr::Add(a, b) => Ok(a.eval(env, unit)?.saturating_add(b.eval(env, unit)?)),
            LenExpr::Sub(a, b) => {
                let (av, bv) = (a.eval(env, unit)?, b.eval(env, unit)?);
                if bv > av {
                    Err(GrammarError::malformed(
                        unit,
                        format!("length expression underflow: {av} - {bv}"),
                    ))
                } else {
                    Ok(av - bv)
                }
            }
            LenExpr::Mul(a, b) => Ok(a.eval(env, unit)?.saturating_mul(b.eval(env, unit)?)),
        }
    }

    /// Returns the names of fields referenced via [`LenExpr::LenOf`].
    pub fn len_of_refs(&self, out: &mut Vec<String>) {
        match self {
            LenExpr::LenOf(name) => out.push(name.clone()),
            LenExpr::Add(a, b) | LenExpr::Sub(a, b) | LenExpr::Mul(a, b) => {
                a.len_of_refs(out);
                b.len_of_refs(out);
            }
            _ => {}
        }
    }
}

/// The latest binding of `name` in an association list.
pub(crate) fn lookup(env: &[(&str, u64)], name: &str) -> Option<u64> {
    env.iter().rev().find(|(n, _)| *n == name).map(|(_, v)| *v)
}

/// The wire representation of a single field.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FieldKind {
    /// An unsigned integer of 1, 2, 4 or 8 bytes.
    UInt {
        /// Width in bytes.
        width: u8,
    },
    /// A signed (two's-complement) integer of 1, 2, 4 or 8 bytes.
    Int {
        /// Width in bytes.
        width: u8,
    },
    /// A raw byte field whose length is given by an expression.
    Bytes {
        /// The length in bytes.
        length: LenExpr,
    },
    /// A text field whose length is given by an expression.
    Str {
        /// The length in bytes.
        length: LenExpr,
    },
}

impl FieldKind {
    /// The fixed width of integer kinds, or `None` for variable-size fields.
    pub fn fixed_width(&self) -> Option<usize> {
        match self {
            FieldKind::UInt { width } | FieldKind::Int { width } => Some(*width as usize),
            _ => None,
        }
    }
}

/// One item of a unit grammar.
#[derive(Debug, Clone, PartialEq)]
pub enum GrammarItem {
    /// A wire field. An empty name marks an anonymous field that is parsed
    /// (to advance the cursor) but never exposed to programs.
    Field {
        /// Field name, or empty for anonymous fields.
        name: String,
        /// Wire representation.
        kind: FieldKind,
    },
    /// A computed variable: evaluated during parsing from earlier fields and
    /// usable in later length expressions, but occupying no wire bytes.
    Variable {
        /// Variable name.
        name: String,
        /// The parse-time expression (Listing 2's `&parse`).
        parse: LenExpr,
    },
}

impl GrammarItem {
    /// Convenience constructor for a named field.
    pub fn field(name: impl Into<String>, kind: FieldKind) -> Self {
        GrammarItem::Field {
            name: name.into(),
            kind,
        }
    }

    /// Convenience constructor for an anonymous (skipped) field.
    pub fn anonymous(kind: FieldKind) -> Self {
        GrammarItem::Field {
            name: String::new(),
            kind,
        }
    }

    /// Convenience constructor for a computed variable.
    pub fn variable(name: impl Into<String>, parse: LenExpr) -> Self {
        GrammarItem::Variable {
            name: name.into(),
            parse,
        }
    }
}

/// A serialisation rule: before writing the wire bytes, the named integer
/// field is recomputed from the expression (typically from `LenOf` terms).
///
/// This captures Listing 2's `&serialize` annotations, e.g.
/// `total_len = extras_len + key_len + value_len`.
#[derive(Debug, Clone, PartialEq)]
pub struct SerRule {
    /// The integer field to recompute.
    pub field: String,
    /// The expression producing its new value.
    pub expr: LenExpr,
}

/// A complete message grammar for one unit.
#[derive(Debug, Clone, PartialEq)]
pub struct UnitGrammar {
    /// The unit name (also used as the [`crate::Message::unit`] tag).
    pub name: String,
    /// Byte order for integer fields.
    pub byte_order: ByteOrder,
    /// The items, in wire order.
    pub items: Vec<GrammarItem>,
    /// Serialisation rules applied before writing (length recomputation).
    pub ser_rules: Vec<SerRule>,
}

impl UnitGrammar {
    /// Creates a new grammar with network byte order and no items.
    pub fn new(name: impl Into<String>) -> Self {
        UnitGrammar {
            name: name.into(),
            byte_order: ByteOrder::Big,
            items: Vec::new(),
            ser_rules: Vec::new(),
        }
    }

    /// Sets the byte order.
    pub fn byte_order(mut self, order: ByteOrder) -> Self {
        self.byte_order = order;
        self
    }

    /// Appends an item.
    pub fn item(mut self, item: GrammarItem) -> Self {
        self.items.push(item);
        self
    }

    /// Appends a serialisation rule.
    pub fn ser_rule(mut self, field: impl Into<String>, expr: LenExpr) -> Self {
        self.ser_rules.push(SerRule {
            field: field.into(),
            expr,
        });
        self
    }

    /// Returns the named wire fields (excluding anonymous fields and variables).
    pub fn named_fields(&self) -> impl Iterator<Item = (&str, &FieldKind)> {
        self.items.iter().filter_map(|item| match item {
            GrammarItem::Field { name, kind } if !name.is_empty() => Some((name.as_str(), kind)),
            _ => None,
        })
    }

    /// Validates internal consistency: every length expression must reference
    /// only earlier fields or variables (or `LenOf` a field that exists), and
    /// integer widths must be 1, 2, 4 or 8.
    pub fn validate(&self) -> Result<(), GrammarError> {
        let mut known: Vec<&str> = Vec::new();
        let all_fields: Vec<&str> = self
            .items
            .iter()
            .filter_map(|i| match i {
                GrammarItem::Field { name, .. } if !name.is_empty() => Some(name.as_str()),
                _ => None,
            })
            .collect();
        for item in &self.items {
            match item {
                GrammarItem::Field { name, kind } => {
                    match kind {
                        FieldKind::UInt { width } | FieldKind::Int { width } => {
                            if ![1, 2, 4, 8].contains(width) {
                                return Err(GrammarError::invalid(
                                    &self.name,
                                    format!("integer field `{name}` has unsupported width {width}"),
                                ));
                            }
                        }
                        FieldKind::Bytes { length } | FieldKind::Str { length } => {
                            self.check_expr(length, &known, &all_fields)?;
                        }
                    }
                    if !name.is_empty() {
                        known.push(name);
                    }
                }
                GrammarItem::Variable { name, parse } => {
                    self.check_expr(parse, &known, &all_fields)?;
                    known.push(name);
                }
            }
        }
        for rule in &self.ser_rules {
            if !all_fields.contains(&rule.field.as_str()) {
                return Err(GrammarError::invalid(
                    &self.name,
                    format!("serialisation rule targets unknown field `{}`", rule.field),
                ));
            }
            let mut refs = Vec::new();
            rule.expr.len_of_refs(&mut refs);
            for r in refs {
                if !all_fields.contains(&r.as_str()) {
                    return Err(GrammarError::invalid(
                        &self.name,
                        format!("serialisation rule references unknown field `{r}`"),
                    ));
                }
            }
        }
        Ok(())
    }

    fn check_expr(
        &self,
        expr: &LenExpr,
        known: &[&str],
        all_fields: &[&str],
    ) -> Result<(), GrammarError> {
        match expr {
            LenExpr::Const(_) => Ok(()),
            LenExpr::Field(name) => {
                if known.contains(&name.as_str()) {
                    Ok(())
                } else {
                    Err(GrammarError::invalid(
                        &self.name,
                        format!("length expression references `{name}` before it is parsed"),
                    ))
                }
            }
            LenExpr::LenOf(name) => {
                if all_fields.contains(&name.as_str()) {
                    Ok(())
                } else {
                    Err(GrammarError::invalid(
                        &self.name,
                        format!("`len of` references unknown field `{name}`"),
                    ))
                }
            }
            LenExpr::Add(a, b) | LenExpr::Sub(a, b) | LenExpr::Mul(a, b) => {
                self.check_expr(a, known, all_fields)?;
                self.check_expr(b, known, all_fields)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn len_expr_arithmetic() {
        let e = LenExpr::sub(
            LenExpr::field("total_len"),
            LenExpr::add(LenExpr::field("extras_len"), LenExpr::field("key_len")),
        );
        let v = e
            .eval(
                &[("total_len", 30), ("extras_len", 4), ("key_len", 6)],
                "cmd",
            )
            .unwrap();
        assert_eq!(v, 20);
    }

    #[test]
    fn len_expr_underflow_is_malformed() {
        let e = LenExpr::sub(LenExpr::field("a"), LenExpr::field("b"));
        let err = e.eval(&[("a", 1), ("b", 5)], "cmd").unwrap_err();
        assert!(matches!(err, GrammarError::Malformed { .. }));
    }

    #[test]
    fn len_expr_unknown_field() {
        let e = LenExpr::field("missing");
        assert!(matches!(
            e.eval(&[], "cmd"),
            Err(GrammarError::InvalidGrammar { .. })
        ));
    }

    #[test]
    fn validate_accepts_forward_only_references() {
        let g = UnitGrammar::new("t")
            .item(GrammarItem::field("len", FieldKind::UInt { width: 2 }))
            .item(GrammarItem::field(
                "body",
                FieldKind::Bytes {
                    length: LenExpr::field("len"),
                },
            ));
        assert!(g.validate().is_ok());
    }

    #[test]
    fn validate_rejects_reference_before_parse() {
        let g = UnitGrammar::new("t")
            .item(GrammarItem::field(
                "body",
                FieldKind::Bytes {
                    length: LenExpr::field("len"),
                },
            ))
            .item(GrammarItem::field("len", FieldKind::UInt { width: 2 }));
        assert!(g.validate().is_err());
    }

    #[test]
    fn validate_rejects_bad_width() {
        let g = UnitGrammar::new("t").item(GrammarItem::field("x", FieldKind::UInt { width: 3 }));
        assert!(g.validate().is_err());
    }

    #[test]
    fn validate_rejects_unknown_ser_rule_target() {
        let g = UnitGrammar::new("t")
            .item(GrammarItem::field("len", FieldKind::UInt { width: 2 }))
            .ser_rule("nope", LenExpr::Const(1));
        assert!(g.validate().is_err());
    }

    #[test]
    fn named_fields_excludes_anonymous_and_variables() {
        let g = UnitGrammar::new("t")
            .item(GrammarItem::field("a", FieldKind::UInt { width: 1 }))
            .item(GrammarItem::anonymous(FieldKind::UInt { width: 1 }))
            .item(GrammarItem::variable("v", LenExpr::Const(1)))
            .item(GrammarItem::field("b", FieldKind::UInt { width: 1 }));
        let names: Vec<&str> = g.named_fields().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["a", "b"]);
    }
}
