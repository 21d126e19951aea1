//! Order statistics and process facts shared by every workload.

/// Linear-interpolated percentile (`p` in 0..=100) of `values`.
/// Returns 0 for an empty slice.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p / 100.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// Candidate tail percentiles, highest last.
const TAILS: [f64; 6] = [50.0, 75.0, 90.0, 95.0, 99.0, 99.9];

/// The highest percentile of [`TAILS`] with at least ten samples beyond
/// it, and its value: `(percentile, value)`.
pub fn tail(values: &[f64]) -> (f64, f64) {
    let n = values.len() as f64;
    let p = TAILS
        .iter()
        .copied()
        .rev()
        .find(|p| n * (1.0 - p / 100.0) >= 10.0)
        .unwrap_or(50.0);
    (p, percentile(values, p))
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    vm_hwm_kib(&std::fs::read_to_string("/proc/self/status").unwrap_or_default()) / 1024.0
}

/// The `VmHWM` line of a `/proc/<pid>/status` text, in KiB.
pub fn vm_hwm_kib(status: &str) -> f64 {
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kib| kib.parse().ok())
        .unwrap_or(0.0)
}

/// FNV-1a 64 of a byte string, as 16 hex digits.
pub fn digest(bytes: &[u8]) -> String {
    let mut f = anoncmp_engine::fingerprint::Fingerprinter::new();
    f.write_bytes(bytes);
    anoncmp_engine::fingerprint::hex_id(f.finish())
}

/// A small deterministic generator (splitmix64) for workload inputs, so
/// the inputs depend on `--seed` alone.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        SplitMix(seed ^ 0x005E_ED0F_BE4C)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let values: Vec<f64> = (0..200).map(f64::from).collect();
        assert_eq!(tail(&values).0, 95.0);
        let values: Vec<f64> = (0..40).map(f64::from).collect();
        assert_eq!(tail(&values).0, 75.0);
    }

    #[test]
    fn percentile_interpolates() {
        assert_eq!(percentile(&[1.0, 3.0], 50.0), 2.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
    }
}
