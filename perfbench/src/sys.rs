//! Process-level helpers: peak memory, timestamps that know the
//! hypervisor's steal, a scratch directory inside the working directory
//! and a small ordered parallel map.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Peak resident set size of this process (`VmHWM`), in MiB.
///
/// # Errors
/// When `/proc/self/status` is unreadable or lacks the field.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// A point in wall time together with the hypervisor's steal counter.
#[derive(Debug, Clone, Copy)]
pub struct Stamp {
    at: Instant,
    /// Steal time summed over all CPUs, in clock ticks.
    steal_ticks: u64,
    cpus: u64,
}

impl Stamp {
    /// Read the clock and the steal counter of `/proc/stat`.
    ///
    /// # Errors
    /// When `/proc/stat` is unreadable or malformed.
    pub fn now() -> Result<Stamp, String> {
        let stat = std::fs::read_to_string("/proc/stat")
            .map_err(|e| format!("cannot read /proc/stat: {e}"))?;
        let at = Instant::now();
        let malformed = || "malformed /proc/stat".to_string();
        let total = stat.lines().next().ok_or_else(malformed)?;
        // cpu user nice system idle iowait irq softirq steal ...
        let steal_ticks = total
            .split_whitespace()
            .nth(8)
            .and_then(|f| f.parse().ok())
            .ok_or_else(malformed)?;
        let cpus = stat
            .lines()
            .filter(|l| l.starts_with("cpu") && l.as_bytes().get(3).is_some_and(u8::is_ascii_digit))
            .count() as u64;
        Ok(Stamp {
            at,
            steal_ticks,
            cpus: cpus.max(1),
        })
    }

    /// The share of the wall time since `earlier` that the hypervisor took
    /// from this machine's CPUs (steal time over CPUs × wall).
    pub fn steal_since(&self, earlier: &Stamp) -> f64 {
        let wall = self.at - earlier.at;
        // USER_HZ is 100 on every Linux architecture Rust targets.
        let steal_s = self.steal_ticks.saturating_sub(earlier.steal_ticks) as f64 / 100.0;
        let share = steal_s / (self.cpus as f64 * wall.as_secs_f64());
        share.clamp(0.0, 1.0)
    }
}

/// The directory, under the working directory, where runs keep their
/// temporary files.
pub fn scratch_root() -> PathBuf {
    PathBuf::from(".perfbench_tmp")
}

/// A fresh, empty scratch directory unique to this process and `tag`.
///
/// # Errors
/// Propagates filesystem errors.
pub fn scratch_dir(tag: &str) -> Result<PathBuf, String> {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = scratch_root().join(format!("{tag}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    Ok(dir)
}

/// Remove a scratch directory.
pub fn remove_scratch(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
}

/// Total size of the regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => dir_bytes(&e.path()),
            Ok(t) if t.is_file() => e.metadata().map_or(0, |m| m.len()),
            _ => 0,
        })
        .sum()
}

/// `items.map(f)` on `threads` scoped threads, results in input order.
pub fn par_map<T: Sync, R: Send>(
    items: &[T],
    threads: usize,
    f: impl Fn(&T) -> R + Sync,
) -> Vec<R> {
    let next = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<R>>> = Mutex::new((0..items.len()).map(|_| None).collect());
    std::thread::scope(|s| {
        for _ in 0..threads.max(1) {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else { break };
                let r = f(item);
                slots.lock().expect("no worker panicked holding the slots")[i] = Some(r);
            });
        }
    });
    slots
        .into_inner()
        .expect("no worker panicked holding the slots")
        .into_iter()
        .map(|r| r.expect("every item was mapped"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn par_map_keeps_input_order() {
        let items: Vec<u64> = (0..50).collect();
        assert_eq!(
            par_map(&items, 3, |x| x * 2),
            items.iter().map(|x| x * 2).collect::<Vec<_>>()
        );
    }

    #[test]
    fn steal_share_is_steal_over_cpu_time() {
        let at = Instant::now();
        let earlier = Stamp {
            at,
            steal_ticks: 1000,
            cpus: 2,
        };
        let later = Stamp {
            at: at + Duration::from_secs(2),
            steal_ticks: 1100,
            cpus: 2,
        };
        // One second stolen out of 2 CPUs x 2 s.
        assert_eq!(later.steal_since(&earlier), 0.25);
        assert!(Stamp::now().is_ok());
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mb().unwrap() > 0.0);
    }
}
