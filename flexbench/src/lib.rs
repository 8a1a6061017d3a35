//! Support library of the `flexbench` benchmark: order statistics, the
//! per-layer telemetry rollup, and the JSON result line.

pub mod rollup;
pub mod stats;

/// Named metrics with their units, in print order.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    /// Append a metric. Names are unique; a repeated name is a bug in the
    /// benchmark.
    pub fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        assert!(self.get(name).is_none(), "metric {name} reported twice");
        self.0.push((name.to_string(), value, unit));
    }

    /// Value of a metric, if reported.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, ..)| n == name).map(|(_, v, _)| *v)
    }

    /// Metrics in print order.
    pub fn iter(&self) -> impl Iterator<Item = &(String, f64, &'static str)> {
        self.0.iter()
    }
}

/// The result line: one JSON object with `correct`, `attempted`, `failed`
/// and every metric by name with its value and unit. A non-finite value
/// cannot be written as JSON; it is printed as 0 and makes the run
/// incorrect.
pub fn result_json(correct: bool, attempted: u64, failed: u64, m: &Metrics) -> String {
    let finite = m.iter().all(|(_, v, _)| v.is_finite());
    let body: Vec<String> = m
        .iter()
        .map(|(name, v, unit)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        correct && finite,
        body.join(", ")
    )
}
