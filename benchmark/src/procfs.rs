//! OS process accounting, read from outside the program under test.
//!
//! The platform names its threads `flick-os-reactor`, `flick-worker-S-W` and
//! `flick-dispatch-S`; every benchmark thread is named `bench-*`. Per-thread
//! on-CPU time from `/proc/self/task/*/schedstat` therefore splits the
//! process's CPU into system-under-test layers and apparatus without any
//! hook inside the program.

use std::fs;

/// On-CPU nanoseconds of the platform's three thread families.
#[derive(Debug, Clone, Copy, Default)]
pub struct SutCpu {
    pub reactor_ns: u64,
    pub worker_ns: u64,
    pub dispatch_ns: u64,
}

impl SutCpu {
    /// Sums the live `flick-*` threads. `comm` is truncated to 15 bytes by
    /// the kernel, so the match is on prefixes that survive truncation.
    pub fn read() -> SutCpu {
        let mut cpu = SutCpu::default();
        let Ok(tasks) = fs::read_dir("/proc/self/task") else {
            return cpu;
        };
        for task in tasks.flatten() {
            let dir = task.path();
            let Ok(comm) = fs::read_to_string(dir.join("comm")) else {
                continue; // the thread exited between readdir and read
            };
            let slot = if comm.starts_with("flick-os-react") {
                &mut cpu.reactor_ns
            } else if comm.starts_with("flick-worker") {
                &mut cpu.worker_ns
            } else if comm.starts_with("flick-dispatch") {
                &mut cpu.dispatch_ns
            } else {
                continue;
            };
            *slot += fs::read_to_string(dir.join("schedstat"))
                .ok()
                .and_then(|s| s.split_whitespace().next()?.parse::<u64>().ok())
                .unwrap_or(0);
        }
        cpu
    }

    pub fn total_ns(&self) -> u64 {
        self.reactor_ns + self.worker_ns + self.dispatch_ns
    }

    pub fn since(&self, earlier: &SutCpu) -> SutCpu {
        SutCpu {
            reactor_ns: self.reactor_ns.saturating_sub(earlier.reactor_ns),
            worker_ns: self.worker_ns.saturating_sub(earlier.worker_ns),
            dispatch_ns: self.dispatch_ns.saturating_sub(earlier.dispatch_ns),
        }
    }
}

/// Peak resident set of this process (`VmHWM`), in MB (10^6 bytes).
pub fn peak_rss_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib * 1024.0 / 1e6)
}
