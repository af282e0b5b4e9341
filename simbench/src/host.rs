//! Host-side measurements read from procfs (Linux, std only): process
//! CPU time, peak resident set, and per-thread scheduler statistics.
//!
//! Per-thread figures come from `/proc/self/task/<tid>/schedstat`
//! (nanoseconds on CPU, nanoseconds runnable but waiting for a CPU).
//! Threads that exit during a measured phase vanish from procfs, so a
//! [`ThreadLedger`] is fed by periodic samples and keeps each thread's
//! last reading; the figures of a short-lived thread are therefore
//! complete up to its last sample.

use std::collections::BTreeMap;
use std::fs;

/// `USER_HZ`: the unit of the CPU times in `/proc/<pid>/stat`. Linux
/// reports these in 1/100 s on every architecture it exports them for.
const USER_HZ: f64 = 100.0;

/// User plus system CPU seconds of the whole process, including threads
/// that have already exited (fields 14 and 15 of `/proc/self/stat`).
pub fn process_cpu_s() -> f64 {
    let stat = fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) may contain spaces; fields resume after
    // its closing parenthesis, with field 3 (state) at index 0.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|v| v.parse::<u64>().ok())
            .unwrap_or(0)
    };
    (ticks(11) + ticks(12)) as f64 / USER_HZ
}

/// Peak resident set size of the process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Seconds the hypervisor ran other guests while this machine's CPUs had
/// work (the `steal` column of `/proc/stat`, summed over CPUs).
pub fn host_steal_s() -> f64 {
    let stat = fs::read_to_string("/proc/stat").unwrap_or_default();
    stat.lines()
        .find(|l| l.starts_with("cpu "))
        .and_then(|l| l.split_whitespace().nth(8))
        .and_then(|v| v.parse::<u64>().ok())
        .map_or(0.0, |ticks| ticks as f64 / USER_HZ)
}

/// Milliseconds a fixed, cache-resident integer kernel takes on the
/// calling thread: a host-speed witness taken next to each round, so a
/// slow round on a slow host can be told apart from a slow program.
pub fn calibration_ms() -> f64 {
    let t0 = std::time::Instant::now();
    let mut x = 0x9E37_79B9_7F4A_7C15_u64;
    for _ in 0..20_000_000 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    std::hint::black_box(x);
    t0.elapsed().as_secs_f64() * 1e3
}

/// One thread's scheduler counters.
#[derive(Debug, Clone, Default, PartialEq)]
struct ThreadStat {
    /// Thread name (`/proc/self/task/<tid>/comm`).
    name: String,
    /// Nanoseconds spent on a CPU.
    cpu_ns: u64,
    /// Nanoseconds spent runnable on a run queue, waiting for a CPU.
    wait_ns: u64,
}

/// Reads every live thread's counters, keyed by thread id.
fn read_threads() -> BTreeMap<u32, ThreadStat> {
    let mut out = BTreeMap::new();
    let Ok(dir) = fs::read_dir("/proc/self/task") else {
        return out;
    };
    for entry in dir.flatten() {
        let Some(tid) = entry
            .file_name()
            .to_str()
            .and_then(|s| s.parse::<u32>().ok())
        else {
            continue;
        };
        let path = entry.path();
        let Ok(sched) = fs::read_to_string(path.join("schedstat")) else {
            continue;
        };
        let mut it = sched
            .split_whitespace()
            .map(|v| v.parse::<u64>().unwrap_or(0));
        let (cpu_ns, wait_ns) = (it.next().unwrap_or(0), it.next().unwrap_or(0));
        let name = fs::read_to_string(path.join("comm"))
            .unwrap_or_default()
            .trim()
            .to_string();
        out.insert(
            tid,
            ThreadStat {
                name,
                cpu_ns,
                wait_ns,
            },
        );
    }
    out
}

/// Per-thread counter deltas over a measured phase.
#[derive(Debug, Clone, Default)]
struct Track {
    name: String,
    base_cpu: u64,
    base_wait: u64,
    last_cpu: u64,
    last_wait: u64,
}

/// Accumulates per-thread CPU and run-queue wait over a phase from
/// periodic [`read_threads`] samples. Threads first seen after
/// [`ThreadLedger::start`] count from zero.
#[derive(Debug, Default)]
pub struct ThreadLedger {
    live: BTreeMap<u32, Track>,
    /// Threads whose id was reused (or vanished and came back): their
    /// final deltas, by name.
    retired: Vec<(String, u64, u64)>,
}

impl ThreadLedger {
    /// Opens a phase: every live thread's current counters become its
    /// baseline.
    pub fn start() -> Self {
        let mut ledger = Self::default();
        for (tid, s) in read_threads() {
            ledger.live.insert(
                tid,
                Track {
                    name: s.name,
                    base_cpu: s.cpu_ns,
                    base_wait: s.wait_ns,
                    last_cpu: s.cpu_ns,
                    last_wait: s.wait_ns,
                },
            );
        }
        ledger
    }

    /// Folds in one sample of every live thread.
    pub fn sample(&mut self) {
        for (tid, s) in read_threads() {
            let track = self.live.entry(tid).or_insert_with(|| Track {
                name: s.name.clone(),
                ..Track::default()
            });
            if s.cpu_ns < track.last_cpu || s.name != track.name {
                // The id now belongs to a new thread: retire the old one.
                self.retired.push((
                    track.name.clone(),
                    track.last_cpu - track.base_cpu,
                    track.last_wait - track.base_wait,
                ));
                *track = Track {
                    name: s.name.clone(),
                    ..Track::default()
                };
            }
            track.last_cpu = s.cpu_ns;
            track.last_wait = s.wait_ns;
        }
    }

    /// Per-thread `(name, cpu_s, wait_s)` over the phase, for threads with
    /// any activity, the main thread first.
    pub fn threads(&self) -> Vec<(String, f64, f64)> {
        let main = std::process::id();
        let mut rows: Vec<(bool, String, f64, f64)> = self
            .live
            .iter()
            .map(|(&tid, t)| {
                (
                    tid != main,
                    t.name.clone(),
                    (t.last_cpu - t.base_cpu) as f64 / 1e9,
                    (t.last_wait - t.base_wait) as f64 / 1e9,
                )
            })
            .chain(
                self.retired
                    .iter()
                    .map(|(n, c, w)| (true, n.clone(), *c as f64 / 1e9, *w as f64 / 1e9)),
            )
            .filter(|r| r.2 > 0.0 || r.3 > 0.0)
            .collect();
        rows.sort_by(|a, b| a.0.cmp(&b.0).then(b.2.total_cmp(&a.2)));
        rows.into_iter().map(|(_, n, c, w)| (n, c, w)).collect()
    }

    /// Total run-queue wait of every thread over the phase, in seconds.
    pub fn runqueue_wait_s(&self) -> f64 {
        self.threads().iter().map(|t| t.2).sum()
    }

    /// CPU seconds of every thread except the main one (the benchmark's
    /// orchestrating thread) over the phase.
    pub fn worker_cpu_s(&self) -> f64 {
        let main = std::process::id();
        let live: u64 = self
            .live
            .iter()
            .filter(|(&tid, _)| tid != main)
            .map(|(_, t)| t.last_cpu - t.base_cpu)
            .sum();
        let retired: u64 = self.retired.iter().map(|r| r.1).sum();
        (live + retired) as f64 / 1e9
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn procfs_readings_are_plausible() {
        let mut x = 0u64;
        for i in 0..2_000_000u64 {
            x = x.wrapping_mul(31).wrapping_add(i);
        }
        assert!(x != 1);
        assert!(process_cpu_s() >= 0.0);
        assert!(peak_rss_mb() > 0.0);
        assert!(read_threads().contains_key(&std::process::id()));
    }

    #[test]
    fn ledger_sees_short_lived_threads() {
        let mut ledger = ThreadLedger::start();
        std::thread::scope(|s| {
            let h = s.spawn(|| {
                let mut x = 0u64;
                for i in 0..20_000_000u64 {
                    x = x.wrapping_mul(7).wrapping_add(i);
                }
                std::hint::black_box(x);
                std::thread::sleep(std::time::Duration::from_millis(50));
            });
            while !h.is_finished() {
                ledger.sample();
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
        });
        assert!(ledger.worker_cpu_s() > 0.0, "{:?}", ledger.threads());
    }
}
