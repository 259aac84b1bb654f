//! Measurement helpers shared by every workload: percentiles, quartiles,
//! pooled rates, the open-loop schedule, the order-insensitive alert
//! digest, peak-memory reset and read, and the host-shape stamp.

use std::fmt::{self, Write as _};
use std::path::Path;
use std::time::{Duration, Instant};

/// Samples that must lie beyond a reported percentile.
pub(crate) const MIN_SAMPLES_BEYOND: usize = 10;

/// A nearest-rank percentile together with the sample count it came from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Percentile {
    pub(crate) value: f64,
    pub(crate) n: usize,
}

/// The nearest-rank `p`-th percentile (`0 < p < 100`) of `samples`.
///
/// Refuses a percentile with fewer than [`MIN_SAMPLES_BEYOND`] samples
/// beyond it: a p99 needs at least 1000 samples.
pub(crate) fn percentile(samples: &[f64], p: f64) -> Result<Percentile, String> {
    let n = samples.len();
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    if rank == 0 || n - rank.min(n) < MIN_SAMPLES_BEYOND {
        return Err(format!(
            "p{p} needs {MIN_SAMPLES_BEYOND} samples beyond it, but only {n} samples were taken"
        ));
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Ok(Percentile { value: sorted[rank - 1], n })
}

/// The median, over groups of samples taken at different times, of each
/// group's percentile, with the total sample count: a burst of host noise
/// that spoils one group cannot move it alone.
pub(crate) fn median_percentile(groups: &[Vec<f64>], p: f64) -> Result<Percentile, String> {
    let values = groups
        .iter()
        .map(|group| percentile(group, p).map(|q| q.value))
        .collect::<Result<Vec<f64>, String>>()?;
    Ok(Percentile { value: median(&values), n: groups.iter().map(Vec::len).sum() })
}

/// The median of `values` (the mean of the middle two for an even count).
pub(crate) fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// The rate over passes of equal work: total work over total time, which
/// is the harmonic mean of the passes' rates. Unlike a median, every pass
/// counts, in proportion to the time it took.
pub(crate) fn pooled_rate(rates: &[f64]) -> f64 {
    rates.len() as f64 / rates.iter().map(|rate| 1.0 / rate).sum::<f64>()
}

/// First and third quartiles by the "exclusive" method of Python's
/// `statistics.quantiles(values, n=4)`, so spreads computed here match the
/// ones computed from the printed results.
pub(crate) fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let len = data.len();
    match len {
        0 => return (f64::NAN, f64::NAN),
        1 => return (data[0], data[0]),
        _ => {}
    }
    let m = len + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// An open-loop arrival schedule: item `i` is due at `start + i / rate`,
/// whether or not the system kept up with item `i - 1`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Schedule {
    start: Instant,
    per_second: f64,
}

impl Schedule {
    pub(crate) fn new(start: Instant, per_second: f64) -> Self {
        Schedule { start, per_second }
    }

    /// When item `i` is due.
    pub(crate) fn due(&self, i: u64) -> Instant {
        self.start + Duration::from_secs_f64(i as f64 / self.per_second)
    }

    /// How many items are due at `now` (items `0..count`).
    pub(crate) fn due_by(&self, now: Instant) -> u64 {
        let elapsed = now.saturating_duration_since(self.start).as_secs_f64();
        (elapsed * self.per_second).floor() as u64 + 1
    }

    /// How late item `i` was when it was sent at `sent`; zero if early.
    pub(crate) fn lateness(&self, i: u64, sent: Instant) -> Duration {
        sent.saturating_duration_since(self.due(i))
    }
}

/// An order-insensitive digest of an alert stream: the alert count plus the
/// wrapping sum of a 64-bit hash of each alert's `Display` string. Two
/// streams holding the same alerts in any order have equal digests.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub(crate) struct AlertDigest {
    pub(crate) count: u64,
    pub(crate) sum: u64,
}

impl AlertDigest {
    /// Adds one alert, formatting it into `scratch` (reused across calls).
    pub(crate) fn add(&mut self, alert: &impl fmt::Display, scratch: &mut String) {
        scratch.clear();
        let _ = write!(scratch, "{alert}");
        self.count += 1;
        self.sum = self.sum.wrapping_add(fnv1a(scratch.as_bytes()));
    }
}

impl fmt::Display for AlertDigest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} alerts / {:016x}", self.count, self.sum)
    }
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |hash, &byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Resets this process's peak resident set (`VmHWM`) to its current
/// resident set, so the next read reports the peak of the phase that
/// follows.
pub(crate) fn reset_peak_rss() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", b"5")
        .map_err(|error| format!("resetting VmHWM via /proc/self/clear_refs: {error}"))
}

/// A `kB` field of `/proc/self/status`, in MiB.
pub(crate) fn status_mb(key: &str) -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|error| format!("reading /proc/self/status: {error}"))?;
    status_field_mb(&status, key).ok_or_else(|| format!("/proc/self/status has no {key} line"))
}

fn status_field_mb(status: &str, key: &str) -> Option<f64> {
    let line = status.lines().find(|line| line.split(':').next() == Some(key))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The shape of the host a report was measured on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Host {
    pub(crate) nproc: usize,
    pub(crate) cpu_model: String,
    pub(crate) checkpoint_fs: String,
}

impl Host {
    /// Stamps the current host, naming the filesystem that holds `dir`.
    pub(crate) fn detect(dir: &Path) -> Host {
        let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|info| {
                info.lines()
                    .find(|line| line.starts_with("model name"))
                    .and_then(|line| line.split_once(':'))
                    .map(|(_, model)| model.trim().to_owned())
            })
            .unwrap_or_else(|| "unknown".to_owned());
        let checkpoint_fs = std::fs::canonicalize(dir)
            .ok()
            .and_then(|dir| {
                let mounts = std::fs::read_to_string("/proc/self/mountinfo").ok()?;
                fs_type_of(&mounts, &dir)
            })
            .unwrap_or_else(|| "unknown".to_owned());
        Host { nproc, cpu_model, checkpoint_fs }
    }
}

impl fmt::Display for Host {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "nproc={} cpu=\"{}\" checkpoint_fs={}",
            self.nproc, self.cpu_model, self.checkpoint_fs
        )
    }
}

/// The filesystem type of the mount holding `path`, from the text of
/// `/proc/self/mountinfo`: the mount point that is the longest prefix of
/// `path` wins.
fn fs_type_of(mountinfo: &str, path: &Path) -> Option<String> {
    mountinfo
        .lines()
        .filter_map(|line| {
            let fields: Vec<&str> = line.split_whitespace().collect();
            let mount_point = Path::new(fields.get(4)?);
            let separator = fields.iter().position(|&field| field == "-")?;
            let fs_type = fields.get(separator + 1)?;
            path.starts_with(mount_point)
                .then(|| (mount_point.as_os_str().len(), (*fs_type).to_owned()))
        })
        .max_by_key(|(depth, _)| *depth)
        .map(|(_, fs_type)| fs_type)
}

/// Held by tests that reset or read this process's peak memory, which
/// tests running in parallel would otherwise disturb.
#[cfg(test)]
pub(crate) static PROCESS_MEMORY: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_nearest_rank_and_report_n() {
        let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&samples, 50.0), Ok(Percentile { value: 500.0, n: 1000 }));
        assert_eq!(percentile(&samples, 99.0), Ok(Percentile { value: 990.0, n: 1000 }));
        let reversed: Vec<f64> = samples.iter().rev().copied().collect();
        assert_eq!(percentile(&reversed, 99.0).map(|p| p.value), Ok(990.0));
    }

    #[test]
    fn percentiles_refuse_thin_tails() {
        let samples: Vec<f64> = (1..=999).map(f64::from).collect();
        assert!(percentile(&samples, 99.0).is_err(), "only 9 samples lie beyond p99");
        assert!(percentile(&samples, 50.0).is_ok());
        assert!(percentile(&[1.0; 19], 50.0).is_err(), "only 9 samples lie beyond p50");
        assert!(percentile(&[], 50.0).is_err());
    }

    #[test]
    fn median_percentiles_take_the_median_group() {
        // Five groups of 1000; one is ten times slower throughout.
        let mut groups: Vec<Vec<f64>> =
            (0..5).map(|_| (0..1000).map(|i| f64::from(i) / 1000.0).collect()).collect();
        for sample in &mut groups[2] {
            *sample *= 10.0;
        }
        assert_eq!(median_percentile(&groups, 99.0), Ok(Percentile { value: 0.989, n: 5000 }));
        groups[4].truncate(999);
        assert!(median_percentile(&groups, 99.0).is_err(), "one group is too thin for a p99");
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&values), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(median(&values), 5.5);
        assert_eq!(median(&[4.0, 1.0, 9.0]), 4.0);
    }

    #[test]
    fn pooled_rates_are_work_over_time() {
        // 300 items at 100/s and 300 at 300/s: 600 items in 4 s.
        assert_eq!(pooled_rate(&[100.0, 300.0]), 150.0);
        assert_eq!(pooled_rate(&[250.0; 3]), 250.0);
        assert!(pooled_rate(&[]).is_nan(), "no passes, no rate");
    }

    #[test]
    fn schedule_spaces_items_and_measures_lateness() {
        let start = Instant::now();
        let schedule = Schedule::new(start, 1000.0);
        assert_eq!(schedule.due(0), start);
        assert_eq!(schedule.due(250), start + Duration::from_millis(250));
        assert_eq!(schedule.due_by(start), 1);
        assert_eq!(schedule.due_by(start + Duration::from_micros(2500)), 3);
        let sent = start + Duration::from_millis(7);
        assert_eq!(schedule.lateness(5, sent), Duration::from_millis(2));
        assert_eq!(schedule.lateness(9, sent), Duration::ZERO, "early items are not late");
    }

    #[test]
    fn digests_ignore_order() {
        let mut scratch = String::new();
        let mut forward = AlertDigest::default();
        for alert in ["a", "b", "c"] {
            forward.add(&alert, &mut scratch);
        }
        let mut backward = AlertDigest::default();
        for alert in ["c", "a", "b"] {
            backward.add(&alert, &mut scratch);
        }
        assert_eq!(forward, backward);
        assert_eq!(forward.count, 3);

        let mut other = AlertDigest::default();
        for alert in ["a", "b", "d"] {
            other.add(&alert, &mut scratch);
        }
        assert_ne!(other, forward);
    }

    #[test]
    fn peak_rss_resets_and_reads() {
        let _serial = PROCESS_MEMORY.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        reset_peak_rss().expect("clear_refs is writable for this process");
        let before = status_mb("VmHWM").expect("VmHWM");
        let ballast = vec![1u8; 64 << 20];
        std::hint::black_box(&ballast);
        let after = status_mb("VmHWM").expect("VmHWM");
        assert!(after >= before + 60.0, "peak grew from {before} to {after} MiB");
        drop(ballast);
        reset_peak_rss().expect("reset");
        let reset = status_mb("VmHWM").expect("VmHWM");
        assert!(reset < after - 60.0, "reset brought the peak from {after} to {reset} MiB");
        assert_eq!(status_field_mb("VmHWM:\t  2048 kB\nVmRSS:\t 1024 kB\n", "VmRSS"), Some(1.0));
    }

    #[test]
    fn host_shape_names_cores_cpu_and_filesystem() {
        let mountinfo = "22 1 8:1 / / rw - ext4 /dev/vda rw\n\
                         30 22 0:5 / /tmp rw - tmpfs tmpfs rw\n\
                         31 22 0:6 / /srv/app/target rw - btrfs /dev/vdb rw\n";
        assert_eq!(fs_type_of(mountinfo, Path::new("/srv/app/target/x")).as_deref(), Some("btrfs"));
        assert_eq!(fs_type_of(mountinfo, Path::new("/tmp/ckpt")).as_deref(), Some("tmpfs"));
        assert_eq!(fs_type_of(mountinfo, Path::new("/home")).as_deref(), Some("ext4"));

        let host = Host::detect(Path::new("."));
        assert!(host.nproc >= 1);
        assert_ne!(host.checkpoint_fs, "unknown");
        assert!(host.to_string().starts_with("nproc="));
    }
}
