//! Hard resource bounds for wire parsing.
//!
//! Every codec enforces these bounds unconditionally: they are parsing
//! *mechanism*, not a policy that routing or retry logic above may tune.
//! A frame that exceeds one is rejected as
//! [`GrammarError::Malformed`](crate::GrammarError) immediately — the
//! parser never asks the transport to buffer more bytes than a bound
//! allows, so a hostile length field cannot make an ingest buffer grow
//! without bound. The values are generous for the built-in workloads while
//! still finite: a garbled or adversarial frame fails fast instead of
//! accumulating.

/// Maximum size of a message head: for HTTP, the request/status line plus
/// headers including the blank-line terminator (binary grammars' fixed
/// prefixes are far below it). A buffer that grows past this without
/// completing a head is malformed.
pub const MAX_HEAD_BYTES: usize = 64 * 1024;

/// Maximum size any single variable-length field (or an HTTP body) may
/// declare. Length fields above this are malformed, even though the
/// declared length itself fit in the wire integer.
pub const MAX_BODY_BYTES: usize = 16 * 1024 * 1024;

/// Maximum number of fields (HTTP header lines, grammar items) one message
/// may carry.
pub const MAX_FIELDS: usize = 256;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_finite_and_generous() {
        assert_eq!(MAX_HEAD_BYTES, 64 * 1024);
        assert_eq!(MAX_BODY_BYTES, 16 * 1024 * 1024);
        assert_eq!(MAX_FIELDS, 256);
    }
}
