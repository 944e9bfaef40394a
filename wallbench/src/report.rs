//! Summary statistics and the metric report.

use std::collections::BTreeMap;

/// The `q`-quantile (0 ≤ q ≤ 1) by nearest rank; 0 for no samples.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Megabytes (10^6 bytes) per second; 0 when nothing was timed.
pub fn mb_per_s(bytes: u64, secs: f64) -> f64 {
    if secs > 0.0 {
        bytes as f64 / 1e6 / secs
    } else {
        0.0
    }
}

/// `num / den`, or 0 for an empty base.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// One named value with its unit and an optional note (base, sample
/// count, percentile).
#[derive(Clone, Debug)]
pub struct Metric {
    pub value: f64,
    pub unit: &'static str,
    pub note: String,
}

/// Named metrics of one run, kept in name order.
#[derive(Default)]
pub struct Report {
    metrics: BTreeMap<String, Metric>,
}

impl Report {
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        self.note(name, value, unit, String::new());
    }

    pub fn note(&mut self, name: &str, value: f64, unit: &'static str, note: String) {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.metrics
            .insert(name.to_string(), Metric { value, unit, note });
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.get(name).map(|m| m.value)
    }

    /// Prints every metric as `name  value unit  note`.
    pub fn print(&self, title: &str) {
        println!("## {title}");
        for (name, m) in &self.metrics {
            println!(
                "{name:<30} {:>16} {:<6} {}",
                fmt_value(m.value),
                m.unit,
                m.note
            );
        }
    }

    /// The JSON `metrics` object restricted to `names`, in that order.
    /// Panics if a name was never set — every required metric is
    /// produced on every workload.
    pub fn json_metrics(&self, names: &[&str]) -> String {
        let body: Vec<String> = names
            .iter()
            .map(|n| {
                let m = self
                    .metrics
                    .get(*n)
                    .unwrap_or_else(|| panic!("metric {n} was not measured"));
                format!(
                    "\"{n}\":{{\"value\":{},\"unit\":\"{}\"}}",
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!("{{{}}}", body.join(","))
    }
}

fn fmt_value(v: f64) -> String {
    if v != 0.0 && (v.abs() >= 1e7 || v.abs() < 1e-3) {
        format!("{v:.6e}")
    } else {
        format!("{v:.6}")
    }
}

/// A JSON number with every digit Rust's shortest round-trip form has.
pub fn json_number(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v:?}")
    }
}

/// Peak resident set (`VmHWM`) of this process in MiB.
pub fn rss_peak_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_by_nearest_rank() {
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 10.0);
        assert_eq!(quantile(&v, 0.95), 19.0);
        assert_eq!(quantile(&v, 1.0), 20.0);
        assert_eq!(median(&v), 10.5);
    }

    #[test]
    fn json_numbers_round_trip() {
        assert_eq!(json_number(3.0), "3.0");
        assert_eq!(json_number(0.1), "0.1");
        assert_eq!(json_number(1e20), "1e20");
        hybridgraph_obs::validate_json(&format!("[{}]", json_number(1.5e-7))).unwrap();
    }
}
