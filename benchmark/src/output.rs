//! The result a run prints: a human-readable block, then — as the last
//! line of standard output — one JSON object with exactly the keys
//! `correct`, `attempted`, `failed` and `metrics`.

use crate::json::Json;

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name from [`crate::spec`].
    pub name: &'static str,
    /// Unit from [`crate::spec`].
    pub unit: &'static str,
    /// The value as measured, every digit.
    pub value: f64,
    /// Samples behind the value (1 for a single reading).
    pub samples: u64,
}

/// Everything one run reports.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Every correctness check passed.
    pub correct: bool,
    /// Operations attempted: sweep iterations and queries.
    pub attempted: u64,
    /// Operations that failed a check.
    pub failed: u64,
    /// The metrics of this run's mode, in spec order.
    pub metrics: Vec<Metric>,
}

impl RunResult {
    /// The final line.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("correct".into(), Json::Bool(self.correct)),
            ("attempted".into(), Json::Num(self.attempted as f64)),
            ("failed".into(), Json::Num(self.failed as f64)),
            (
                "metrics".into(),
                Json::Obj(
                    self.metrics
                        .iter()
                        .map(|m| {
                            (
                                m.name.to_string(),
                                Json::Obj(vec![
                                    ("value".into(), Json::Num(m.value)),
                                    ("unit".into(), Json::Str(m.unit.to_string())),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// The by-name table printed above the final line.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            out.push_str(&format!(
                "{:<34} {:>18.6} {:<6} n={}\n",
                m.name, m.value, m.unit, m.samples
            ));
        }
        out
    }
}

/// Checks a final line against the schema: exactly the four keys, whole
/// non-negative counts, `attempted ≥ 1`, and exactly the `expected`
/// metric names, each `{value: finite number, unit: expected unit}`.
/// Returns the parsed `(name, value)` pairs.
pub fn validate_result_line(
    line: &str,
    expected: &[(&str, &str)],
) -> Result<Vec<(String, f64)>, String> {
    let doc = Json::parse(line)?;
    let fields = doc.as_obj().ok_or("result is not an object")?;
    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    if keys != ["correct", "attempted", "failed", "metrics"] {
        return Err(format!("result keys are {keys:?}"));
    }
    if !matches!(doc.get("correct"), Some(Json::Bool(_))) {
        return Err("correct is not a boolean".into());
    }
    let whole = |key: &str| {
        doc.get(key)
            .and_then(Json::as_f64)
            .filter(|n| *n >= 0.0 && n.fract() == 0.0)
            .ok_or(format!("{key} is not a whole number"))
    };
    if whole("attempted")? < 1.0 {
        return Err("attempted is below 1".into());
    }
    whole("failed")?;
    let metrics = doc
        .get("metrics")
        .and_then(Json::as_obj)
        .ok_or("metrics is not an object")?;
    if metrics.len() != expected.len() {
        return Err(format!(
            "{} metrics reported, {} expected",
            metrics.len(),
            expected.len()
        ));
    }
    let mut out = Vec::with_capacity(metrics.len());
    for (name, unit) in expected {
        let m = metrics
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v)
            .ok_or(format!("metric {name} is missing"))?;
        let value = m
            .get("value")
            .and_then(Json::as_f64)
            .filter(|v| v.is_finite())
            .ok_or(format!("metric {name} has no finite value"))?;
        if m.get("unit").and_then(Json::as_str) != Some(unit) {
            return Err(format!("metric {name} is not in {unit}"));
        }
        if m.as_obj().map(<[_]>::len) != Some(2) {
            return Err(format!("metric {name} has extra keys"));
        }
        out.push((name.to_string(), value));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{END_TO_END, PER_LAYER};

    fn sample() -> RunResult {
        RunResult {
            correct: true,
            attempted: 1000,
            failed: 0,
            metrics: END_TO_END
                .iter()
                .enumerate()
                .map(|(i, m)| Metric {
                    name: m.name,
                    unit: m.unit,
                    value: 1.203_456_7 + i as f64,
                    samples: 3,
                })
                .collect(),
        }
    }

    #[test]
    fn final_line_round_trips_through_the_schema() {
        let expected: Vec<(&str, &str)> = END_TO_END.iter().map(|m| (m.name, m.unit)).collect();
        let line = sample().to_json().render();
        assert!(!line.contains('\n'));
        let parsed = validate_result_line(&line, &expected).expect("schema holds");
        assert_eq!(parsed.len(), END_TO_END.len());
        assert_eq!(parsed[0], ("setup_s".to_string(), 1.203_456_7));
        assert!(sample().render_table().contains("setup_s"));
    }

    #[test]
    fn schema_violations_are_named() {
        let expected: Vec<(&str, &str)> = END_TO_END.iter().map(|m| (m.name, m.unit)).collect();
        let per_layer: Vec<(&str, &str)> = PER_LAYER.iter().map(|m| (m.name, m.unit)).collect();
        let line = sample().to_json().render();
        // An end-to-end line is not a per-layer line.
        assert!(validate_result_line(&line, &per_layer).is_err());
        let mut zero = sample();
        zero.attempted = 0;
        assert!(validate_result_line(&zero.to_json().render(), &expected)
            .unwrap_err()
            .contains("attempted"));
        let mut nan = sample();
        nan.metrics[2].value = f64::NAN;
        assert!(validate_result_line(&nan.to_json().render(), &expected)
            .unwrap_err()
            .contains("sweep_cpu_s"));
        let mut short = sample();
        short.metrics.pop();
        assert!(validate_result_line(&short.to_json().render(), &expected).is_err());
        assert!(validate_result_line("{\"correct\":true}", &expected).is_err());
    }
}
