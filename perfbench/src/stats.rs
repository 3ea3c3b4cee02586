//! Sample statistics, process memory and output checksums.

/// Median of `xs` (mean of the middle pair for even counts); 0 when empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        0.5 * (v[m - 1] + v[m])
    }
}

/// The highest whole percentile of `xs` that still has at least
/// `beyond` samples above it, by nearest rank: `(percentile, value,
/// samples beyond it)`. With too few samples it is the maximum, and the
/// count beyond says so.
pub fn tail(xs: &[f64], beyond: usize) -> (u32, f64, usize) {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return (100, 0.0, 0);
    }
    if n <= beyond {
        return (100, v[n - 1], 0);
    }
    let pct = (100 * (n - beyond) / n) as u32;
    let rank = (pct as usize * n).div_ceil(100).max(1);
    (pct, v[rank - 1], n - rank)
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// FNV-1a over the bit patterns of a run's output values.
#[derive(Debug, Clone, Copy)]
pub struct Checksum(u64);

impl Checksum {
    pub fn new() -> Self {
        Checksum(0xcbf2_9ce4_8422_2325)
    }

    pub fn add(&mut self, values: &[f64]) {
        for v in values {
            for b in v.to_bits().to_le_bytes() {
                self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }

    pub fn value(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_keeps_the_requested_samples_beyond() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let (pct, v, beyond) = tail(&xs, 10);
        assert_eq!((pct, v, beyond), (90, 90.0, 10));
        let xs: Vec<f64> = (1..=37).map(f64::from).collect();
        let (pct, v, beyond) = tail(&xs, 10);
        assert_eq!(pct, 72);
        assert!(beyond >= 10 && v == 27.0, "{v} {beyond}");
        assert_eq!(tail(&[1.0, 2.0], 10), (100, 2.0, 0));
    }

    #[test]
    fn checksum_sees_every_bit() {
        let mut a = Checksum::new();
        a.add(&[0.0]);
        let mut b = Checksum::new();
        b.add(&[-0.0]);
        assert_ne!(a.value(), b.value());
    }
}
