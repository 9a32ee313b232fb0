//! CPU, steal and memory readings from `/proc`, taken at phase
//! boundaries. Process CPU comes in clock ticks of `USER_HZ` (100 per
//! second on every mainstream configuration) and includes exited
//! threads; per-thread CPU comes from `schedstat` in nanoseconds.

use std::collections::BTreeMap;

const USER_HZ: f64 = 100.0;

/// Thread groups the per-layer CPU split reports, in output order.
pub const GROUPS: [&str; 5] = ["client", "gateway", "server", "tcp.read", "tcp.write"];

/// Which group a thread belongs to, by the name its spawner gave it.
/// `main` is the process's first thread, which runs the generator.
pub fn group_of(comm: &str, main: bool) -> &'static str {
    if main || comm.starts_with("kv-pipe-reader") {
        "client"
    } else if comm.starts_with("kv-conn-") || comm.starts_with("kv-gateway") {
        "gateway"
    } else if comm.starts_with("kv-server-") {
        "server"
    } else if comm.starts_with("net-read-") {
        "tcp.read"
    } else if comm.starts_with("net-dial-")
        || comm.starts_with("net-hs-")
        || comm.starts_with("net-accept-")
    {
        "tcp.write"
    } else {
        "other"
    }
}

/// `(comm, utime + stime in seconds)` out of one `stat` file's contents.
fn parse_stat(s: &str) -> Option<(String, f64)> {
    let open = s.find('(')?;
    let close = s.rfind(')')?;
    let comm = s[open + 1..close].to_string();
    let f: Vec<&str> = s[close + 2..].split_whitespace().collect();
    // Fields after the comm start at `state` (field 3); utime and stime
    // are fields 14 and 15.
    let ticks: f64 = f.get(11)?.parse::<f64>().ok()? + f.get(12)?.parse::<f64>().ok()?;
    Some((comm, ticks / USER_HZ))
}

/// CPU seconds of the whole process, exited threads included.
pub fn process_cpu() -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| parse_stat(&s))
        .map(|(_, cpu)| cpu)
        .unwrap_or(0.0)
}

/// CPU seconds per live thread: `tid -> (group, seconds)`.
pub fn thread_cpu() -> BTreeMap<u64, (&'static str, f64)> {
    let me = std::process::id() as u64;
    let mut out = BTreeMap::new();
    let Ok(dir) = std::fs::read_dir("/proc/self/task") else {
        return out;
    };
    for entry in dir.flatten() {
        let Some(tid) = entry
            .file_name()
            .to_str()
            .and_then(|t| t.parse::<u64>().ok())
        else {
            continue;
        };
        // `stat` names the thread; `schedstat` gives its run time in ns.
        // Summed per-thread `stat` ticks fell 6-12% short of the process
        // total on a 2-vCPU VM, so they are not used.
        let (Ok(s), Ok(ss)) = (
            std::fs::read_to_string(entry.path().join("stat")),
            std::fs::read_to_string(entry.path().join("schedstat")),
        ) else {
            continue; // the thread exited between listing and reading
        };
        let ns = ss
            .split_whitespace()
            .next()
            .and_then(|v| v.parse::<f64>().ok());
        if let (Some((comm, _)), Some(ns)) = (parse_stat(&s), ns) {
            out.insert(tid, (group_of(&comm, tid == me), ns / 1e9));
        }
    }
    out
}

/// Per-group CPU over a phase, from [`thread_cpu`] samples. A thread
/// born in the phase counts from zero; one that exits counts up to its
/// last sample, so callers sample again wherever threads may end (the
/// process total still has the rest).
pub struct ThreadCpu {
    base: BTreeMap<u64, (&'static str, f64)>,
    last: BTreeMap<u64, (&'static str, f64)>,
}

impl ThreadCpu {
    pub fn start() -> ThreadCpu {
        let base = thread_cpu();
        ThreadCpu {
            last: base.clone(),
            base,
        }
    }

    pub fn sample(&mut self) {
        self.last.extend(thread_cpu());
    }

    /// CPU seconds per group since [`ThreadCpu::start`].
    pub fn groups(&self) -> BTreeMap<&'static str, f64> {
        let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
        for (tid, &(group, cpu)) in &self.last {
            let base = self.base.get(tid).map(|&(_, c)| c).unwrap_or(0.0);
            *out.entry(group).or_default() += (cpu - base).max(0.0);
        }
        out
    }
}

/// Host-wide CPU jiffies from the first line of `/proc/stat`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct HostCpu {
    /// Time the hypervisor ran something else while a vCPU wanted to run.
    pub steal: u64,
    pub total: u64,
}

pub fn host_cpu() -> HostCpu {
    let s = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    parse_host_cpu(s.lines().next().unwrap_or(""))
}

fn parse_host_cpu(line: &str) -> HostCpu {
    let v: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .filter_map(|x| x.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal guest guest_nice;
    // guest time is already counted in user, so it is left out of total.
    HostCpu {
        steal: v.get(7).copied().unwrap_or(0),
        total: v.iter().take(8).sum(),
    }
}

/// Steal share of host CPU time between two [`host_cpu`] readings.
pub fn steal_share(before: HostCpu, after: HostCpu) -> f64 {
    let total = after.total.saturating_sub(before.total);
    if total == 0 {
        return 0.0;
    }
    after.steal.saturating_sub(before.steal) as f64 / total as f64
}

/// Peak resident set size of this process, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let s = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    s.lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_parsing_survives_spaces_and_parens_in_comm() {
        let line = "42 (net-read-1) 2) S 1 2 3 4 5 6 7 8 9 10 250 50 0 0 20 0";
        let (comm, cpu) = parse_stat(line).expect("parses");
        assert_eq!(comm, "net-read-1) 2");
        assert!((cpu - 3.0).abs() < 1e-9);
    }

    #[test]
    fn host_cpu_reads_steal_and_total() {
        let h = parse_host_cpu("cpu  100 5 50 1000 20 3 2 40 7 0");
        assert_eq!(h.steal, 40);
        assert_eq!(h.total, 1220);
        let later = HostCpu {
            steal: 50,
            total: 1320,
        };
        assert!((steal_share(h, later) - 0.1).abs() < 1e-9);
    }

    #[test]
    fn thread_names_map_to_layers() {
        assert_eq!(group_of("kv-conn-17", false), "gateway");
        assert_eq!(group_of("net-hs-2", false), "tcp.write");
        assert_eq!(group_of("net-dial-1-3", false), "tcp.write");
        assert_eq!(group_of("net-read-1-2", false), "tcp.read");
        assert_eq!(group_of("kv-server-3", false), "server");
        assert_eq!(group_of("kvbench", true), "client");
        assert_eq!(group_of("something", false), "other");
    }
}
