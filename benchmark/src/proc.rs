//! What the kernel says about this process: CPU time, peak resident
//! set, core count. Linux `/proc` only — the benchmark's host.

/// Scheduler ticks per second in `/proc/self/stat`. Linux has fixed
/// `USER_HZ` at 100 on every architecture this runs on; `sysconf` is
/// not reachable without a libc binding.
const TICKS_PER_SECOND: f64 = 100.0;

/// User + system CPU seconds this process (all threads) has consumed.
pub fn cpu_seconds() -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| parse_stat_cpu_ticks(&s))
        .map_or(0.0, |ticks| ticks as f64 / TICKS_PER_SECOND)
}

/// `utime + stime` (fields 14 and 15) of one `/proc/<pid>/stat` line.
/// The command name (field 2) may hold spaces and parentheses, so
/// fields are counted from the last `)`.
fn parse_stat_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace();
    // `rest` starts at field 3 (state); utime is field 14.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// Peak resident set size so far, MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_status_kib(&s, "VmHWM:"))
        .map_or(0.0, |kib| kib as f64 / 1024.0)
}

fn parse_status_kib(status: &str, key: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
}

/// Cores the scheduler will give this process.
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_line_parses_past_a_hostile_command_name() {
        let line = "4242 (a b) c) R 1 2 3 4 5 6 7 8 9 10 250 50 0 0 20 0 3 0 100 200 300";
        assert_eq!(parse_stat_cpu_ticks(line), Some(300));
        assert_eq!(parse_stat_cpu_ticks("garbage"), None);
    }

    #[test]
    fn status_block_yields_kib() {
        let status = "Name:\tx\nVmPeak:\t  900 kB\nVmHWM:\t  123456 kB\nVmRSS:\t 5 kB\n";
        assert_eq!(parse_status_kib(status, "VmHWM:"), Some(123_456));
        assert_eq!(parse_status_kib(status, "VmSwap:"), None);
    }

    #[test]
    fn live_readings_are_positive() {
        assert!(peak_rss_mib() > 0.0);
        assert!(host_cores() >= 1);
        assert!(cpu_seconds() >= 0.0);
    }
}
