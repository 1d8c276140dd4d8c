//! The FLICK benchmark harness.
//!
//! One experiment runner per figure of the paper's evaluation (§6), each a
//! shape stood up on the one [`Testbed`]. The `fig4`, `fig5`, `fig6`,
//! `fig7` and `fig_webserver` binaries call these runners at a
//! configurable scale and print the same series the paper reports, next
//! to the paper's reference values. `bench_guard` runs reduced versions
//! of them in CI and checks only within-run ratios and structural laws;
//! the two Criterion benches under `benches/` are the grammar-projection
//! and scheduling ablations (DESIGN.md §6).
//!
//! The figure experiments run on the simulated substrate, whose cost
//! model is the figures' axis; the `run_tcp_*` runners cross real kernel
//! sockets on loopback. Either way absolute numbers are not
//! comparable with the paper's 16-core 10 GbE testbed, but the *shape*
//! (which system wins, how throughput scales with cores or concurrency,
//! where the scheduling policies differ) is; DESIGN.md §6 records both.

pub mod experiments;
pub mod report;
pub mod testbed;

pub use experiments::*;
pub use report::{print_table, Row};
pub use testbed::{HttpPoint, Target, Testbed};
