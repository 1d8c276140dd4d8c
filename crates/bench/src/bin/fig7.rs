//! Regenerates Figure 7: completion times of "light" (1 KB items) and
//! "heavy" (16 KB items) task classes under the cooperative, non-cooperative
//! and round-robin scheduling policies.
//!
//! Paper shape: under FLICK's cooperative policy the light tasks finish well
//! before the heavy ones without increasing the overall runtime; round-robin
//! delays everything; non-cooperative makes completion order depend on
//! scheduling order (light and heavy finish together, late).

use flick_bench::{print_table, run_sharing_experiment, Row, SharingExperiment};
use flick_runtime::{NO_DEADLINE, TIMESLICE};
use std::time::Duration;

fn main() {
    let params = SharingExperiment {
        tasks_per_class: 100,
        items_per_task: 400,
        workers: 2,
    };
    let mut rows = Vec::new();
    // Each policy is a timeslice: FLICK's, none, and one item per dispatch.
    for (label, timeslice) in [
        ("Cooperative", TIMESLICE),
        ("Non cooperative", NO_DEADLINE),
        ("Round robin", Duration::ZERO),
    ] {
        let result = run_sharing_experiment(timeslice, &params);
        rows.push(Row::new(
            label,
            "Light",
            result.light_completion.as_secs_f64(),
            "s",
        ));
        rows.push(Row::new(
            label,
            "Heavy",
            result.heavy_completion.as_secs_f64(),
            "s",
        ));
    }
    print_table("Resource sharing micro-benchmark — Figure 7", &rows);
}
