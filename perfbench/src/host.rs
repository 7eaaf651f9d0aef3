//! Host conditions read from plain `/proc` files.
//!
//! Each measured iteration is tagged with the hypervisor steal time the
//! whole machine saw (`/proc/stat`) and the time the measuring thread
//! sat runnable but not running (`/proc/thread-self/schedstat`). An
//! iteration where either takes a noticeable share of its wall time is
//! flagged as contaminated and left out of the medians. Missing files
//! read as "unknown", never as contaminated.

use std::time::Instant;

/// Clock ticks per second of `/proc/stat` (`USER_HZ`, 100 on Linux).
const USER_HZ: f64 = 100.0;

/// Share of an iteration's wall time (per CPU for steal) above which
/// the iteration counts as contaminated.
pub const CONTAMINATION_SHARE: f64 = 0.10;

/// A point-in-time reading of the host counters.
#[derive(Debug, Clone, Copy)]
pub struct HostSample {
    at: Instant,
    steal_ticks: Option<u64>,
    runq_wait_ns: Option<u64>,
}

/// Host conditions over one measured interval.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct HostDelta {
    /// Wall seconds of the interval.
    pub wall_s: f64,
    /// Steal seconds summed over all CPUs (0 when unknown).
    pub steal_s: f64,
    /// Seconds the measuring thread waited on a run queue (0 when
    /// unknown).
    pub runq_wait_s: f64,
}

impl HostSample {
    /// Read the counters now.
    pub fn now() -> Self {
        Self {
            at: Instant::now(),
            steal_ticks: read_steal_ticks(),
            runq_wait_ns: read_runq_wait_ns(),
        }
    }

    /// Conditions between `self` and a later sample.
    pub fn until(&self, later: &HostSample) -> HostDelta {
        let diff = |a: Option<u64>, b: Option<u64>| match (a, b) {
            (Some(a), Some(b)) => b.saturating_sub(a),
            _ => 0,
        };
        HostDelta {
            wall_s: later.at.duration_since(self.at).as_secs_f64(),
            steal_s: diff(self.steal_ticks, later.steal_ticks) as f64 / USER_HZ,
            runq_wait_s: diff(self.runq_wait_ns, later.runq_wait_ns) as f64 * 1e-9,
        }
    }
}

impl HostDelta {
    /// Did steal or run-queue wait take more than
    /// [`CONTAMINATION_SHARE`] of the interval?
    pub fn contaminated(&self, cpus: usize) -> bool {
        if self.wall_s <= 0.0 {
            return false;
        }
        let steal_share = self.steal_s / (self.wall_s * cpus.max(1) as f64);
        let wait_share = self.runq_wait_s / self.wall_s;
        steal_share > CONTAMINATION_SHARE || wait_share > CONTAMINATION_SHARE
    }

    /// Accumulate another interval.
    pub fn add(&mut self, other: &HostDelta) {
        self.wall_s += other.wall_s;
        self.steal_s += other.steal_s;
        self.runq_wait_s += other.runq_wait_s;
    }
}

/// CPUs this process may run on.
pub fn cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set size of this process (`VmHWM`), MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    parse_vm_hwm_kb(&status).map(|kb| kb as f64 / 1024.0)
}

fn read_steal_ticks() -> Option<u64> {
    parse_steal_ticks(&std::fs::read_to_string("/proc/stat").ok()?)
}

fn read_runq_wait_ns() -> Option<u64> {
    parse_schedstat_wait_ns(&std::fs::read_to_string("/proc/thread-self/schedstat").ok()?)
}

/// The steal column (8th value) of the aggregate `cpu` line.
fn parse_steal_ticks(stat: &str) -> Option<u64> {
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    line.split_whitespace().nth(8)?.parse().ok()
}

/// The second field of `schedstat`: ns spent waiting on a run queue.
fn parse_schedstat_wait_ns(schedstat: &str) -> Option<u64> {
    schedstat.split_whitespace().nth(1)?.parse().ok()
}

fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_proc_formats() {
        let stat = "cpu  10 0 5 1000 2 0 1 37 0 0\ncpu0 5 0 2 500 1 0 0 20 0 0\n";
        assert_eq!(parse_steal_ticks(stat), Some(37));
        assert_eq!(parse_schedstat_wait_ns("123 456 7\n"), Some(456));
        let status = "Name:\tx\nVmPeak:\t  2000 kB\nVmHWM:\t  1536 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(1536));
        assert_eq!(parse_steal_ticks("intr 1 2\n"), None);
    }

    #[test]
    fn contamination_uses_shares_of_wall_time() {
        let clean = HostDelta {
            wall_s: 10.0,
            steal_s: 1.5,
            runq_wait_s: 0.5,
        };
        assert!(!clean.contaminated(2));
        let stolen = HostDelta {
            steal_s: 2.2,
            ..clean
        };
        assert!(stolen.contaminated(2));
        let waited = HostDelta {
            runq_wait_s: 1.1,
            ..clean
        };
        assert!(waited.contaminated(2));
        assert!(!HostDelta::default().contaminated(2));
    }
}
