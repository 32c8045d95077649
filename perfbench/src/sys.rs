//! Process figures read from Linux `/proc`: peak resident memory and
//! CPU time. Both return `None` where `/proc` is unavailable.

/// Clock ticks per second of the `/proc/self/stat` time fields
/// (`USER_HZ`, 100 on every mainstream Linux architecture).
const USER_HZ: f64 = 100.0;

/// Peak resident set size of this process (`VmHWM`), MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// User plus system CPU time consumed by this process so far, seconds
/// (10 ms resolution).
pub fn cpu_seconds() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, 12 and 13 after the name.
    let rest = &stat[stat.rfind(')')? + 2..];
    let mut fields = rest.split_whitespace().skip(11);
    let utime: f64 = fields.next()?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime + stime) / USER_HZ)
}

/// Cores this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_figures_are_positive_and_monotone() {
        let rss = peak_rss_mb().expect("VmHWM readable");
        assert!(rss > 0.0);
        let a = cpu_seconds().expect("stat readable");
        let mut x = 0u64;
        let t = std::time::Instant::now();
        while t.elapsed().as_millis() < 50 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(1));
        }
        let b = cpu_seconds().expect("stat readable");
        assert!(b >= a, "{a} -> {b}");
        assert!(nproc() >= 1);
    }
}
