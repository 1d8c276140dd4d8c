//! The FLICK static type system.
//!
//! FLICK is strongly and statically typed (§4.3 of the paper). The type
//! language is deliberately small: primitives, records declared by the
//! program, finite lists, dictionaries used for per-program shared state,
//! references to such state, and channels. Channel types carry a direction:
//! a channel may be readable, writable or both, and misuse (for example
//! reading from a channel declared `-/cmd`) is a static error.

use crate::ast::{Program, TypeExpr};
use crate::error::{LangError, Span, Stage};
use std::fmt;

/// A resolved (semantic) FLICK type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Type {
    /// Signed integer (fixed maximum width; 64-bit in this implementation).
    Int,
    /// Boolean.
    Bool,
    /// A bounded string of bytes.
    Str,
    /// The unit type, returned by functions with no result.
    Unit,
    /// The type of the `None` literal; compatible with any value type in
    /// equality comparisons and dictionary lookups.
    NoneType,
    /// A record type declared in the program, referenced by name.
    Record(String),
    /// A finite list of elements.
    List(Box<Type>),
    /// A dictionary with the given key and value types.
    Dict(Box<Type>, Box<Type>),
    /// A mutable reference to shared state of the inner type.
    Ref(Box<Type>),
    /// A channel carrying values of the given type.
    Channel {
        /// The element type carried by the channel.
        value: Box<Type>,
        /// Whether the program may read from the channel.
        can_read: bool,
        /// Whether the program may write to the channel.
        can_write: bool,
    },
    /// An array of channels, all with the same element type and direction.
    ChannelArray {
        /// The element type carried by each channel.
        value: Box<Type>,
        /// Whether the program may read from the channels.
        can_read: bool,
        /// Whether the program may write to the channels.
        can_write: bool,
    },
}

impl Type {
    /// Returns `true` if a value of type `other` may be used where `self` is
    /// expected.
    ///
    /// The rules are intentionally simple: types must be equal, except that
    /// `NoneType` unifies with anything (it only arises in comparisons and
    /// dictionary lookups), references are transparent to reads, and channel
    /// capabilities may be narrowed (a bidirectional channel may be passed
    /// where a unidirectional one is expected, but not the reverse).
    pub fn accepts(&self, other: &Type) -> bool {
        use Type::*;
        match (self, other) {
            (NoneType, _) | (_, NoneType) => true,
            (Ref(a), b) => a.accepts(b),
            (a, Ref(b)) => a.accepts(b),
            (
                Channel {
                    value: va,
                    can_read: ra,
                    can_write: wa,
                },
                Channel {
                    value: vb,
                    can_read: rb,
                    can_write: wb,
                },
            ) => va.accepts(vb) && (!*ra || *rb) && (!*wa || *wb),
            (
                ChannelArray {
                    value: va,
                    can_read: ra,
                    can_write: wa,
                },
                ChannelArray {
                    value: vb,
                    can_read: rb,
                    can_write: wb,
                },
            ) => va.accepts(vb) && (!*ra || *rb) && (!*wa || *wb),
            (List(a), List(b)) => a.accepts(b),
            (Dict(ka, va), Dict(kb, vb)) => ka.accepts(kb) && va.accepts(vb),
            (a, b) => a == b,
        }
    }

    /// Returns `true` if this type is a channel or channel array.
    pub fn is_channel_like(&self) -> bool {
        matches!(self, Type::Channel { .. } | Type::ChannelArray { .. })
    }

    /// Strips any `ref` wrapper.
    #[allow(clippy::should_implement_trait)]
    pub fn deref(&self) -> &Type {
        match self {
            Type::Ref(inner) => inner.deref(),
            other => other,
        }
    }
}

impl fmt::Display for Type {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Type::Int => write!(f, "integer"),
            Type::Bool => write!(f, "bool"),
            Type::Str => write!(f, "string"),
            Type::Unit => write!(f, "()"),
            Type::NoneType => write!(f, "None"),
            Type::Record(name) => write!(f, "{name}"),
            Type::List(t) => write!(f, "[{t}]"),
            Type::Dict(k, v) => write!(f, "dict<{k}*{v}>"),
            Type::Ref(t) => write!(f, "ref {t}"),
            Type::Channel {
                value,
                can_read,
                can_write,
            } => {
                let r = if *can_read {
                    value.to_string()
                } else {
                    "-".to_string()
                };
                let w = if *can_write {
                    value.to_string()
                } else {
                    "-".to_string()
                };
                write!(f, "{r}/{w}")
            }
            Type::ChannelArray {
                value,
                can_read,
                can_write,
            } => {
                let r = if *can_read {
                    value.to_string()
                } else {
                    "-".to_string()
                };
                let w = if *can_write {
                    value.to_string()
                } else {
                    "-".to_string()
                };
                write!(f, "[{r}/{w}]")
            }
        }
    }
}

/// Resolves a syntactic [`TypeExpr`] to a semantic [`Type`].
///
/// `program` supplies the record declarations so that named types can be
/// validated; unknown names are rejected.
pub fn resolve(expr: &TypeExpr, program: &Program, span: Span) -> Result<Type, LangError> {
    match expr {
        TypeExpr::Named(name) => resolve_named(name, program, span),
        TypeExpr::Unit => Ok(Type::Unit),
        TypeExpr::List(inner) => Ok(Type::List(Box::new(resolve(inner, program, span)?))),
        TypeExpr::Dict(k, v) => Ok(Type::Dict(
            Box::new(resolve(k, program, span)?),
            Box::new(resolve(v, program, span)?),
        )),
        TypeExpr::Ref(inner) => Ok(Type::Ref(Box::new(resolve(inner, program, span)?))),
        TypeExpr::Channel { read, write } => {
            let read_ty = read
                .as_ref()
                .map(|t| resolve(t, program, span))
                .transpose()?;
            let write_ty = write
                .as_ref()
                .map(|t| resolve(t, program, span))
                .transpose()?;
            let value = match (&read_ty, &write_ty) {
                (Some(r), Some(w)) if r != w => {
                    return Err(LangError::single(
                        Stage::Type,
                        format!("channel sides must carry the same type, found {r} and {w}"),
                        span,
                    ))
                }
                (Some(r), _) => r.clone(),
                (None, Some(w)) => w.clone(),
                (None, None) => {
                    return Err(LangError::single(
                        Stage::Type,
                        "channel type must have at least one readable or writable side",
                        span,
                    ))
                }
            };
            Ok(Type::Channel {
                value: Box::new(value),
                can_read: read_ty.is_some(),
                can_write: write_ty.is_some(),
            })
        }
        TypeExpr::ChannelArray(inner) => {
            let inner_ty = resolve(inner, program, span)?;
            match inner_ty {
                Type::Channel {
                    value,
                    can_read,
                    can_write,
                } => Ok(Type::ChannelArray {
                    value,
                    can_read,
                    can_write,
                }),
                other => Err(LangError::single(
                    Stage::Type,
                    format!("expected a channel type inside `[...]`, found {other}"),
                    span,
                )),
            }
        }
    }
}

fn resolve_named(name: &str, program: &Program, span: Span) -> Result<Type, LangError> {
    match name {
        "integer" | "int" => Ok(Type::Int),
        "string" | "bytes" => Ok(Type::Str),
        "bool" | "boolean" => Ok(Type::Bool),
        _ => {
            if program.type_decl(name).is_some() {
                Ok(Type::Record(name.to_string()))
            } else {
                Err(LangError::single(
                    Stage::Type,
                    format!("unknown type `{name}`"),
                    span,
                ))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{FieldDecl, TypeDecl};

    fn program_with_cmd() -> Program {
        let mut p = Program::default();
        p.types.push(TypeDecl {
            name: "cmd".into(),
            fields: vec![FieldDecl {
                name: Some("key".into()),
                ty: TypeExpr::Named("string".into()),
                attrs: vec![],
                span: Span::default(),
            }],
            span: Span::default(),
        });
        p
    }

    #[test]
    fn resolves_primitives_and_records() {
        let p = program_with_cmd();
        assert_eq!(
            resolve(&TypeExpr::Named("integer".into()), &p, Span::default()).unwrap(),
            Type::Int
        );
        assert_eq!(
            resolve(&TypeExpr::Named("cmd".into()), &p, Span::default()).unwrap(),
            Type::Record("cmd".into())
        );
        assert!(resolve(&TypeExpr::Named("nope".into()), &p, Span::default()).is_err());
    }

    #[test]
    fn resolves_channel_directions() {
        let p = program_with_cmd();
        let write_only = TypeExpr::Channel {
            read: None,
            write: Some(Box::new(TypeExpr::Named("cmd".into()))),
        };
        let t = resolve(&write_only, &p, Span::default()).unwrap();
        match t {
            Type::Channel {
                can_read,
                can_write,
                ..
            } => {
                assert!(!can_read);
                assert!(can_write);
            }
            other => panic!("expected channel, got {other}"),
        }
    }

    #[test]
    fn rejects_mismatched_channel_sides() {
        let p = program_with_cmd();
        let bad = TypeExpr::Channel {
            read: Some(Box::new(TypeExpr::Named("cmd".into()))),
            write: Some(Box::new(TypeExpr::Named("string".into()))),
        };
        assert!(resolve(&bad, &p, Span::default()).is_err());
    }

    #[test]
    fn capability_narrowing_is_accepted_but_not_widening() {
        let bidir = Type::Channel {
            value: Box::new(Type::Record("cmd".into())),
            can_read: true,
            can_write: true,
        };
        let write_only = Type::Channel {
            value: Box::new(Type::Record("cmd".into())),
            can_read: false,
            can_write: true,
        };
        assert!(write_only.accepts(&bidir));
        assert!(!bidir.accepts(&write_only));
    }

    #[test]
    fn none_unifies_with_values() {
        assert!(Type::Record("cmd".into()).accepts(&Type::NoneType));
        assert!(Type::NoneType.accepts(&Type::Str));
    }

    #[test]
    fn display_round_trips_shape() {
        let t = Type::ChannelArray {
            value: Box::new(Type::Record("cmd".into())),
            can_read: false,
            can_write: true,
        };
        assert_eq!(t.to_string(), "[-/cmd]");
        assert_eq!(
            Type::Dict(Box::new(Type::Str), Box::new(Type::Str)).to_string(),
            "dict<string*string>"
        );
    }

    #[test]
    fn ref_is_transparent() {
        let r = Type::Ref(Box::new(Type::Str));
        assert!(r.accepts(&Type::Str));
        assert_eq!(r.deref(), &Type::Str);
    }
}
