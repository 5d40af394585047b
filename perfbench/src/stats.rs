//! The benchmark's own statistics and host probes: the seeded generator,
//! percentile selection, and the `/proc` readers behind `peak_rss_mb` and
//! the host context block.

use std::fmt::Write as _;

/// SplitMix64: a small, fast generator whose whole state is the seed, so
/// an op stream is a pure function of `--seed`.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for stream `tag` of `seed`: distinct tags give
    /// independent streams from one seed.
    pub fn new(seed: u64, tag: u64) -> Rng {
        let mut rng = Rng(seed ^ tag.wrapping_mul(0xA076_1D64_78BD_642F));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() % (hi - lo + 1) as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

/// Fewest samples a reported percentile must have above it.
pub const MIN_BEYOND: usize = 10;

/// The nearest-rank `p`-quantile of `samples` (`0 < p < 1`). Refuses when
/// fewer than [`MIN_BEYOND`] samples lie beyond the selected rank: such a
/// tail would be set by a handful of samples and would not repeat.
pub fn percentile(samples: &[f64], p: f64) -> Result<f64, String> {
    assert!(p > 0.0 && p < 1.0, "percentile must lie in (0, 1)");
    let n = samples.len();
    let rank = ((p * n as f64).ceil() as usize).max(1);
    let beyond = n.saturating_sub(rank);
    if n == 0 || beyond < MIN_BEYOND {
        return Err(format!(
            "p{} of {n} samples has {beyond} beyond it; at least {MIN_BEYOND} are needed",
            p * 100.0
        ));
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Ok(sorted[rank - 1])
}

/// Median of `samples`, or 0 for none (per-layer metrics of a layer a run
/// did not call). Unlike [`percentile`] this accepts any count: per-layer
/// medians are diagnostics without a bound.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The `VmHWM` (peak resident set) line of a `/proc/<pid>/status` text,
/// in KiB.
pub fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut fields = line["VmHWM:".len()..].split_whitespace();
    let value: u64 = fields.next()?.parse().ok()?;
    match fields.next() {
        Some("kB") => Some(value),
        _ => None,
    }
}

/// This process's peak resident set so far, in MiB.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    parse_vm_hwm_kib(&status)
        .map(|kib| kib as f64 / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// Machine-wide CPU steal ticks from a `/proc/stat` text (the eighth
/// counter of the aggregate `cpu` line).
pub fn parse_steal_ticks(stat: &str) -> Option<u64> {
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    line.split_whitespace().nth(8)?.parse().ok()
}

/// Current steal ticks, or `None` where `/proc/stat` is unreadable.
pub fn steal_ticks() -> Option<u64> {
    parse_steal_ticks(&std::fs::read_to_string("/proc/stat").ok()?)
}

/// User plus system CPU ticks of all threads of this process, from a
/// `/proc/<pid>/stat` text (fields 14 and 15; the command name may hold
/// spaces, so fields are counted after its closing parenthesis).
pub fn parse_cpu_ticks(stat: &str) -> Option<u64> {
    let mut fields = stat[stat.rfind(')')? + 1..].split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// This process's CPU ticks so far, or `None` where unreadable.
pub fn cpu_ticks() -> Option<u64> {
    parse_cpu_ticks(&std::fs::read_to_string("/proc/self/stat").ok()?)
}

/// The commit of the checkout, read from `.git` without running git, or
/// `"unknown"` outside a git work tree.
pub fn commit() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(id) = read(&format!(".git/{reference}")) {
        return id.trim().to_string();
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|id| id.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// FNV-1a over everything written to it: digests a value's `Debug` text
/// without building the string. `Debug` prints every float in its
/// shortest round-trip form, so equal digests mean bit-identical values.
#[derive(Debug)]
pub struct Digest(u64);

impl Digest {
    pub fn of(value: &impl std::fmt::Debug) -> u64 {
        let mut d = Digest(0xcbf2_9ce4_8422_2325);
        write!(d, "{value:?}").expect("digest writer never fails");
        d.0
    }
}

impl std::fmt::Write for Digest {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        for b in s.bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_refuses_a_thin_tail() {
        let samples: Vec<f64> = (1..=99).map(f64::from).collect();
        // p90 of 99 samples leaves 9 beyond the rank: refused.
        assert!(percentile(&samples, 0.9).is_err());
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&samples, 0.9), Ok(90.0));
        assert_eq!(percentile(&samples, 0.5), Ok(50.0));
        assert!(percentile(&samples, 0.95).is_err());
        assert!(percentile(&[], 0.5).is_err());
        let few: Vec<f64> = (0..19).map(f64::from).collect();
        assert!(percentile(&few, 0.5).is_err());
    }

    #[test]
    fn percentile_ignores_input_order() {
        let mut rng = Rng::new(7, 0);
        let mut samples: Vec<f64> = (0..200).map(f64::from).collect();
        rng.shuffle(&mut samples);
        assert_eq!(percentile(&samples, 0.9), Ok(179.0));
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn vm_hwm_is_parsed_in_kib() {
        let status =
            "Name:\tperfbench\nVmPeak:\t  123456 kB\nVmHWM:\t   51200 kB\nVmRSS:\t 40000 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Some(51200));
        assert_eq!(parse_vm_hwm_kib("VmRSS:\t 1 kB\n"), None);
        assert_eq!(parse_vm_hwm_kib("VmHWM:\t 12 MB\n"), None);
        assert_eq!(parse_vm_hwm_kib("VmHWM:\t x kB\n"), None);
        assert!(peak_rss_mib().expect("linux exposes VmHWM") > 0.0);
    }

    #[test]
    fn steal_is_the_eighth_cpu_counter() {
        let stat = "cpu  10 20 30 40 50 60 70 80 90 100\ncpu0 1 2 3 4 5 6 7 8 9 10\n";
        assert_eq!(parse_steal_ticks(stat), Some(80));
        assert_eq!(parse_steal_ticks("intr 1 2\n"), None);
    }

    #[test]
    fn cpu_ticks_are_utime_plus_stime() {
        let stat = "4242 (perf bench) R 1 2 3 4 5 6 7 8 9 10 250 50 0 0 20 0 3";
        assert_eq!(parse_cpu_ticks(stat), Some(300));
        assert_eq!(parse_cpu_ticks("4242 (x) R 1"), None);
        assert!(cpu_ticks().is_some());
    }

    #[test]
    fn digest_separates_bitwise_different_floats() {
        assert_eq!(Digest::of(&(1.0f64, 2u64)), Digest::of(&(1.0f64, 2u64)));
        assert_ne!(Digest::of(&0.1f64), Digest::of(&(0.1f64 + f64::EPSILON)));
        assert_ne!(Digest::of(&0.0f64), Digest::of(&-0.0f64));
    }
}
