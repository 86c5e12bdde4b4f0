//! Order statistics, the tail-percentile rule, and host-memory readout.

/// Median of `xs` (mean of the middle two for an even count); `None`
/// when `xs` is empty.
pub fn median(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

/// Samples a tail percentile must leave beyond it.
pub const TAIL_BEYOND: usize = 10;

/// A tail latency under the benchmark's rule: the highest percentile
/// that still has at least [`TAIL_BEYOND`] samples beyond it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The sample at that percentile.
    pub value: f64,
    /// The percentile, as the share (in %) of samples at or below it.
    pub pct: f64,
    /// Samples the percentile was taken over.
    pub n: usize,
}

/// Apply the tail rule to `xs`. `None` when there are too few samples
/// for any percentile to have [`TAIL_BEYOND`] samples beyond it.
pub fn tail(xs: &[f64]) -> Option<Tail> {
    let n = xs.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let at = n - TAIL_BEYOND - 1;
    Some(Tail {
        value: v[at],
        pct: 100.0 * (at + 1) as f64 / n as f64,
        n,
    })
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn tail_leaves_exactly_ten_samples_beyond() {
        assert_eq!(tail(&[1.0; 10]), None, "ten samples leave none beyond");
        let xs: Vec<f64> = (1..=11).map(f64::from).collect();
        let t = tail(&xs).expect("eleven samples qualify");
        assert_eq!(t.value, 1.0);
        assert_eq!(t.n, 11);
        assert!((t.pct - 100.0 / 11.0).abs() < 1e-12);

        // 1000 samples: the 990th value, i.e. the 99th percentile.
        let xs: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        let t = tail(&xs).expect("plenty of samples");
        assert_eq!(t.value, 990.0);
        assert!((t.pct - 99.0).abs() < 1e-12);
        assert_eq!(xs.iter().filter(|&&x| x > t.value).count(), TAIL_BEYOND);
    }

    #[test]
    fn peak_rss_is_positive_on_linux() {
        if cfg!(target_os = "linux") {
            assert!(peak_rss_mb().expect("VmHWM readable") > 0.0);
        }
    }
}
