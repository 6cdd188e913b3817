//! `/proc` readers and the host description stamped on every output.
//!
//! A reader that cannot find its file or field returns `None`: the metric
//! is then reported as absent, never as 0.

use std::path::Path;
use std::process::Command;

/// Linux reports `utime`/`stime` in `USER_HZ` ticks, fixed at 100 by the
/// user-space ABI whatever the kernel's own `HZ`.
const MS_PER_TICK: f64 = 10.0;

/// `utime + stime` ticks from the text of a `/proc/<pid>/stat` file. The
/// command name (field 2) may contain spaces and parentheses, so fields
/// are counted from the last `)`.
pub fn parse_stat_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace();
    // `rest` starts at field 3 (state); utime and stime are fields 14, 15.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// The kB value of `key` (e.g. `VmHWM`) in the text of a
/// `/proc/<pid>/status` file.
pub fn parse_status_kb(status: &str, key: &str) -> Option<u64> {
    status.lines().find_map(|line| {
        let value = line.strip_prefix(key)?.strip_prefix(':')?;
        value.trim().strip_suffix("kB")?.trim().parse().ok()
    })
}

fn proc_file(pid: Option<u32>, name: &str) -> Option<String> {
    let dir = pid.map_or_else(|| "self".to_string(), |p| p.to_string());
    std::fs::read_to_string(format!("/proc/{dir}/{name}")).ok()
}

/// CPU milliseconds (user + system) consumed so far by `pid` (`None` =
/// this process), all threads included.
pub fn cpu_ms(pid: Option<u32>) -> Option<f64> {
    parse_stat_cpu_ticks(&proc_file(pid, "stat")?).map(|t| t as f64 * MS_PER_TICK)
}

/// Peak resident set (`VmHWM`) of `pid` (`None` = this process) in MB.
pub fn peak_rss_mb(pid: Option<u32>) -> Option<f64> {
    parse_status_kb(&proc_file(pid, "status")?, "VmHWM").map(|kb| kb as f64 / 1024.0)
}

/// Where the numbers were taken.
#[derive(Debug, Clone)]
pub struct Host {
    pub nproc: usize,
    pub cpu_model: String,
    pub kernel: String,
    pub rustc: String,
    pub commit: String,
}

fn command_line(program: &str, args: &[&str], cwd: &Path) -> Option<String> {
    let out = Command::new(program)
        .args(args)
        .current_dir(cwd)
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

impl Host {
    pub fn probe(repo_root: &Path) -> Self {
        let unknown = || "unknown".to_string();
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|text| {
                text.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_string())
            })
            .unwrap_or_else(unknown);
        Self {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model,
            kernel: std::fs::read_to_string("/proc/sys/kernel/osrelease")
                .map_or_else(|_| unknown(), |s| s.trim().to_string()),
            rustc: command_line("rustc", &["-V"], repo_root).unwrap_or_else(unknown),
            // A source checkout without `.git` has no commit to name.
            commit: command_line("git", &["rev-parse", "--short=12", "HEAD"], repo_root)
                .unwrap_or_else(unknown),
        }
    }

    pub fn describe(&self) -> String {
        format!(
            "nproc={} cpu=\"{}\" kernel={} rustc=\"{}\" commit={}",
            self.nproc, self.cpu_model, self.kernel, self.rustc, self.commit
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_fields_are_counted_after_the_command_name() {
        let stat = "4242 (fair sqg) (x)) S 1 4242 4242 0 -1 4194560 100 0 0 0 \
                    37 5 0 0 20 0 3 0 12345 1000000 250 18446744073709551615";
        assert_eq!(parse_stat_cpu_ticks(stat), Some(42));
    }

    #[test]
    fn malformed_stat_is_absent_not_zero() {
        assert_eq!(parse_stat_cpu_ticks(""), None);
        assert_eq!(parse_stat_cpu_ticks("1 (x) S 1 2"), None);
        assert_eq!(
            parse_stat_cpu_ticks("1 (x) S 1 1 1 0 -1 0 0 0 0 0 many 5"),
            None
        );
    }

    #[test]
    fn status_key_is_matched_exactly() {
        let status = "Name:\tfairsqg\nVmPeak:\t  900 kB\nVmHWM:\t   2048 kB\nVmRSS:\t 1024 kB\n";
        assert_eq!(parse_status_kb(status, "VmHWM"), Some(2048));
        assert_eq!(parse_status_kb(status, "VmRSS"), Some(1024));
        assert_eq!(parse_status_kb(status, "VmSwap"), None);
        assert_eq!(parse_status_kb(status, "Vm"), None);
    }

    #[test]
    fn a_missing_process_reports_nothing() {
        // PIDs are capped well below u32::MAX.
        assert_eq!(cpu_ms(Some(u32::MAX)), None);
        assert_eq!(peak_rss_mb(Some(u32::MAX)), None);
    }

    #[test]
    fn this_process_is_readable_on_linux() {
        if Path::new("/proc/self/stat").exists() {
            assert!(cpu_ms(None).is_some());
            assert!(peak_rss_mb(None).is_some_and(|mb| mb > 0.0));
        }
    }
}
