//! Medians, percentiles, metric records and their JSON rendering.

use serde::{Serialize, Value};

/// Median of `values` (mean of the middle two for even counts; 0 if empty).
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile `p` (0–100) of `values` (0 if empty).
#[must_use]
pub fn percentile(values: &[u64], p: f64) -> u64 {
    let mut sorted = values.to_vec();
    sorted.sort_unstable();
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Whether `name` is a valid metric name: it starts with a letter or a
/// digit and holds at most 64 letters, digits, `_`, `.` and `-`.
#[must_use]
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// An ordered list of named, unit-tagged measurements.
#[derive(Clone, Debug, Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    /// Appends one measurement.
    ///
    /// # Panics
    ///
    /// Panics on an invalid or repeated name (a bug in this benchmark).
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        assert!(valid_name(&name), "invalid metric name {name:?}");
        assert!(self.get(&name).is_none(), "metric {name:?} recorded twice");
        self.0.push((name, value, unit));
    }

    /// The value recorded under `name`.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _, _)| n == name).map(|&(_, v, _)| v)
    }

    /// Every name, in recording order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.0.iter().map(|(n, _, _)| n.as_str())
    }
}

/// Renders as `{"name": {"value": v, "unit": "u"}, ...}` in recording order;
/// a non-finite value (never produced by a sound run) becomes `null`.
impl Serialize for Metrics {
    fn to_value(&self) -> Value {
        let entry = |v: f64, unit: &str| {
            let value = if v.is_finite() { Value::Float(v) } else { Value::Null };
            Value::Object(vec![("value".into(), value), ("unit".into(), Value::Str(unit.into()))])
        };
        Value::Object(self.0.iter().map(|(n, v, u)| (n.clone(), entry(*v, u))).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn medians_and_percentiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), 50);
        assert_eq!(percentile(&v, 99.0), 99);
        assert_eq!(percentile(&[7], 99.0), 7);
    }

    #[test]
    fn metric_names_are_checked() {
        assert!(valid_name("learn_s.json"));
        assert!(valid_name("q_p99_us"));
        assert!(valid_name("0x-1"));
        assert!(!valid_name("_hidden"));
        assert!(!valid_name("a b"));
        assert!(!valid_name("a/b"));
        assert!(!valid_name(&"x".repeat(65)));
    }

    #[test]
    fn json_rendering() {
        let mut m = Metrics::default();
        m.push("a", 1.0, "s");
        m.push("b", 0.125, "1/s");
        m.push("c", f64::NAN, "MB");
        assert_eq!(
            serde_json::to_string(&m).unwrap(),
            "{\"a\":{\"value\":1.0,\"unit\":\"s\"},\"b\":{\"value\":0.125,\"unit\":\"1/s\"},\
             \"c\":{\"value\":null,\"unit\":\"MB\"}}"
        );
    }

    #[test]
    #[should_panic(expected = "recorded twice")]
    fn duplicate_metrics_are_a_bug() {
        let mut m = Metrics::default();
        m.push("a", 1.0, "s");
        m.push("a", 2.0, "s");
    }
}
