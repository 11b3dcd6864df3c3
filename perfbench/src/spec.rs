//! The benchmark's contract, read from `BENCHMARK.json`: which metrics a
//! run prints, with which units. Also the output digests recorded per
//! workload and seed in `digests.tsv`.

use std::collections::BTreeMap;

/// `BENCHMARK.json`, one metric object per line.
const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// `workload<TAB>seed<TAB>sha256` lines.
const DIGESTS: &str = include_str!("../digests.tsv");

/// Metric names and units, in file order.
pub struct Spec {
    pub end_to_end: Vec<(String, String)>,
    pub per_layer: Vec<(String, String)>,
}

/// The string value of `"key": "value"` on one line.
fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pattern = format!("\"{key}\": \"");
    let start = line.find(&pattern)? + pattern.len();
    let len = line[start..].find('"')?;
    Some(&line[start..start + len])
}

impl Spec {
    pub fn load() -> Spec {
        let mut spec = Spec {
            end_to_end: Vec::new(),
            per_layer: Vec::new(),
        };
        let mut section = "";
        for line in BENCHMARK_JSON.lines() {
            for key in ["workloads", "end_to_end", "per_layer"] {
                if line.contains(&format!("\"{key}\":")) {
                    section = key;
                }
            }
            let (Some(name), Some(unit)) = (field(line, "name"), field(line, "unit")) else {
                continue;
            };
            let metric = (name.to_string(), unit.to_string());
            match section {
                "end_to_end" => spec.end_to_end.push(metric),
                "per_layer" => spec.per_layer.push(metric),
                _ => {}
            }
        }
        assert!(
            !spec.end_to_end.is_empty() && !spec.per_layer.is_empty(),
            "BENCHMARK.json lists no metrics"
        );
        spec
    }
}

/// The output digest recorded for `workload` at `seed`, if any.
pub fn recorded_digest(workload: &str, seed: u64) -> Option<&'static str> {
    DIGESTS.lines().find_map(|line| {
        let mut cols = line.split('\t');
        let (w, s, d) = (cols.next()?, cols.next()?, cols.next()?);
        (w == workload && s.parse() == Ok(seed)).then_some(d)
    })
}

/// The result line: every metric of `section` with its unit. A metric
/// the run did not measure is an error when `required`, and otherwise
/// reads 0: the workload does not exercise that layer.
pub fn result_line(
    section: &[(String, String)],
    metrics: &BTreeMap<String, f64>,
    required: bool,
    correct: bool,
    attempted: u64,
    failed: u64,
) -> Result<String, String> {
    let mut entries = Vec::with_capacity(section.len());
    for (name, unit) in section {
        let value = match metrics.get(name) {
            Some(v) => *v,
            None if required => return Err(format!("metric {name} was not measured")),
            None => 0.0,
        };
        if !value.is_finite() {
            return Err(format!("metric {name} is not a finite number: {value}"));
        }
        entries.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        entries.join(", ")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_lists_both_sections() {
        let spec = Spec::load();
        assert!(spec
            .end_to_end
            .iter()
            .any(|(n, u)| n == "setup_s" && u == "s"));
        assert!(spec.per_layer.len() <= 128);
    }

    #[test]
    fn result_line_fills_unexercised_layers_with_zero() {
        let section = vec![
            ("a_s".to_string(), "s".to_string()),
            ("b".to_string(), "count".to_string()),
        ];
        let metrics = BTreeMap::from([("a_s".to_string(), 0.25)]);
        let line = result_line(&section, &metrics, false, true, 3, 0).unwrap();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"a_s\": {\"value\": 0.25, \"unit\": \"s\"}, \"b\": {\"value\": 0, \"unit\": \"count\"}}}"
        );
        assert!(result_line(&section, &metrics, true, true, 3, 0).is_err());
    }
}
