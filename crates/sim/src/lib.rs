//! # flick_sim — deterministic scenario harness
//!
//! Drives whole [`flick_runtime::Platform`] graphs through scripted fault
//! schedules over the simulated transport and checks global invariants
//! after every tick (DESIGN.md §12). A single `u64` seed derives every
//! random choice through order-stable [`flick_net::SimRng`] forks, so a
//! failing run replays bit-identically: every [`Violation`] carries the
//! seed, and the [`Trace`] hash is the replay witness the regression
//! tests pin.
//!
//! The harness is a test-and-debugging tool, not part of the data plane —
//! the facade crate does not re-export it; test suites depend on it
//! directly.

pub mod fault;
pub mod invariant;
pub mod message_mutator;
pub mod scenario;
pub mod stress;
pub mod trace;

pub use fault::{FaultOp, ScheduledFault};
pub use invariant::{check_tick, TickChecks, Violation};
pub use message_mutator::{Delivery, MessageMutator, MutatedFrame, MutationKind};
pub use scenario::{run_scenario, wait_until, ScenarioConfig, ScenarioReport};
pub use stress::run_stall_park_scenario;
pub use trace::Trace;
