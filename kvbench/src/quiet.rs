//! Which parts of a run the host left alone.
//!
//! On a shared VM, hypervisor steal comes in bursts of tens to hundreds
//! of milliseconds. Every op in flight during a burst waits it out, so a
//! whole run's latency quantiles follow the host's load more than the
//! code: on a 2-vCPU VM, 100 ms windows with no steal had a `kv-write`
//! p50 of 2.1-2.4 ms, and windows with 40-80 ms of steal one of 3-21 ms.
//! The generator therefore reads the host's steal time every
//! [`WINDOW_NS`], and the latency metrics pool the ops due in the quiet
//! windows only. A window's contention is the time stolen in it and in
//! the window before, whose backlog it inherits. The quiet windows are
//! every window as uncontended as the [`QUIET_SHARE`]-quantile one. On a
//! quiet host most windows read no steal at all and are all kept; on a
//! contended one, the least contended tenth of the run.
//!
//! The selection looks only at the host, never at latency, so a change
//! that slows the program itself slows the quiet windows as well.

use crate::procstat::{self, HostCpu};

/// Length of one contention window. `/proc/stat` counts in 10 ms
/// jiffies. In a `kv-write` run with 30% steal, the pooled p50 read
/// 2.8 ms with 50 ms windows and 3.2 ms with 100 ms ones; the whole run
/// read 6.4 ms, and quiet runs 1.9-2.2 ms.
pub const WINDOW_NS: u64 = 50_000_000;
/// The latency metrics pool at least this share of a run's windows.
/// In four `kv-write` runs with 11-26% steal (100 ms windows), pooling
/// a quarter read p50 0-13% above the quiet-host figure, and pooling a
/// tenth 0-6%.
pub const QUIET_SHARE: f64 = 0.1;

/// Reads the host's steal time at window boundaries.
pub struct Sampler {
    host: HostCpu,
    /// Stolen jiffies per elapsed window.
    windows: Vec<u64>,
}

impl Sampler {
    /// Starts the first window now.
    pub fn start() -> Sampler {
        Sampler {
            host: procstat::host_cpu(),
            windows: Vec::new(),
        }
    }

    /// Closes the windows that ended by `now_ns` (since the start). If
    /// the caller was held up past several boundaries, each window it
    /// missed is charged with the whole stretch's steal.
    pub fn tick(&mut self, now_ns: u64) {
        let ended = (now_ns / WINDOW_NS) as usize;
        if ended > self.windows.len() {
            self.close(ended);
        }
    }

    /// Closes the last, partial window and returns every window's
    /// stolen jiffies.
    pub fn finish(mut self, now_ns: u64) -> Vec<u64> {
        let windows = now_ns.div_ceil(WINDOW_NS) as usize;
        self.close(windows.max(self.windows.len() + 1));
        self.windows
    }

    fn close(&mut self, windows: usize) {
        let host = procstat::host_cpu();
        let stolen = host.steal.saturating_sub(self.host.steal);
        self.windows.resize(windows, stolen);
        self.host = host;
    }
}

/// Which windows are quiet, from each window's stolen jiffies.
pub fn quiet(stolen: &[u64]) -> Vec<bool> {
    let score: Vec<u64> = (0..stolen.len())
        .map(|i| stolen[i] + if i > 0 { stolen[i - 1] } else { 0 })
        .collect();
    let mut sorted = score.clone();
    sorted.sort_unstable();
    let Some(&threshold) = sorted.get(
        ((QUIET_SHARE * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len().max(1)) - 1,
    ) else {
        return Vec::new();
    };
    score.iter().map(|&s| s <= threshold).collect()
}

/// Whether an op due at `due_ns` fell in a quiet window.
pub fn in_quiet(quiet: &[bool], due_ns: u64) -> bool {
    let i = (due_ns / WINDOW_NS) as usize;
    quiet
        .get(i.min(quiet.len().saturating_sub(1)))
        .copied()
        .unwrap_or(true)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_quiet_host_keeps_every_window() {
        assert_eq!(quiet(&[0; 8]), vec![true; 8]);
    }

    #[test]
    fn bursts_and_the_window_after_them_are_left_out() {
        let c = [0, 0, 6, 0, 0, 0, 3, 0];
        assert_eq!(
            quiet(&c),
            vec![true, true, false, false, true, true, false, false]
        );
    }

    #[test]
    fn a_contended_run_keeps_its_least_contended_tenth() {
        let c = [
            5, 4, 9, 1, 1, 8, 7, 6, 6, 7, //
            3, 0, 8, 9, 7, 6, 5, 9, 8, 7,
        ];
        // Scores 5, 9, 13, 10, 2, 9, 15, 13, 12, 13, 10, 3, 8, ...: the
        // two lowest, windows 4 and 11, are kept.
        let q = quiet(&c);
        assert_eq!(q.iter().filter(|&&b| b).count(), 2);
        assert!(q[4] && q[11]);
    }

    #[test]
    fn ops_map_to_their_due_window() {
        let q = [false, true, false];
        assert!(!in_quiet(&q, 0));
        assert!(in_quiet(&q, WINDOW_NS + 1));
        // Ops due after the last sample count in the last window.
        assert!(!in_quiet(&q, 9 * WINDOW_NS));
    }
}
