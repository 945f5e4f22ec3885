//! Metric definitions, order statistics and the result line.

use std::collections::BTreeMap;

/// Whether a larger value is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The `BENCHMARK.json` spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric: name, unit, direction.
#[derive(Debug, Clone, PartialEq)]
pub struct Def {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
}

fn def(name: impl Into<String>, unit: &'static str, better: Better) -> Def {
    Def {
        name: name.into(),
        unit,
        better,
    }
}

/// The end-to-end metrics, printed by every untraced run.
pub fn end_to_end() -> Vec<Def> {
    use Better::{Higher, Lower};
    vec![
        def("setup_s", "s", Lower),
        def("deploy_s", "s", Lower),
        def("deploy_ms_p50", "ms", Lower),
        def("audit_s", "s", Lower),
        def("deployed", "count", Higher),
        def("infer_ms_p50", "ms", Lower),
        def("infer_ms_p99", "ms", Lower),
        def("sim_latency_ms", "sim_ms", Lower),
        def("sim_energy_mj", "sim_mJ", Lower),
        def("peak_ram_kb", "KB", Lower),
        def("host_req_per_s", "req/s", Higher),
        def("p99_sojourn_ms", "sim_ms", Lower),
        def("shed_rate", "ratio", Lower),
    ]
}

/// Policy slugs, in `inputs::policies` order.
pub const POLICY_SLUGS: [&str; 7] = [
    "vmcu",
    "vmcu_fused",
    "vmcu_patched",
    "tinyengine",
    "hmcos",
    "vmcu_split",
    "vmcu_reorder",
];

/// Layer kind × policy/scheme classes of the single-layer deployments.
pub const MAC_CLASSES: [&str; 5] = [
    "ib.vmcu_sliding",
    "ib.vmcu_rowbuffer",
    "ib.tinyengine",
    "pointwise.vmcu_rowbuffer",
    "pointwise.tinyengine",
];

/// Workers of the serving fleet, as metric suffixes.
pub const WORKER_IDS: [&str; 2] = ["0", "1"];

/// The per-layer metrics, printed by every traced run.
pub fn per_layer() -> Vec<Def> {
    use Better::{Higher, Lower};
    let mut out = vec![];
    for pass in ["split", "fuse", "patch", "order", "graph", "chain"] {
        out.push(def(format!("plan.{pass}_ms"), "ms", Lower));
    }
    out.push(def("plan.calls", "count", Lower));
    out.push(def("deploy.self_ms", "ms", Lower));
    for p in POLICY_SLUGS {
        out.push(def(format!("verify.audit_ms.{p}"), "ms", Lower));
    }
    out.push(def("verify.nodes_checked", "count", Higher));
    out.push(def("verify.distances_checked", "count", Higher));
    for p in POLICY_SLUGS {
        out.push(def(format!("exec.infer_ms.{p}"), "ms", Lower));
    }
    out.push(def("exec.infer_chained_ms", "ms", Lower));
    for c in MAC_CLASSES {
        out.push(def(format!("exec.ns_per_mac.{c}"), "ns/MAC", Lower));
    }
    out.push(def("session.stage_ms", "ms", Lower));
    out.push(def("reference.ms", "ms", Lower));
    out.push(def("sim.cycles", "cycles", Lower));
    out.push(def("sim.macs", "count", Lower));
    for bytes in ["ram_read_bytes", "ram_write_bytes", "flash_read_bytes"] {
        out.push(def(format!("sim.{bytes}"), "B", Lower));
    }
    out.push(def("sim.modulo_ops", "count", Lower));
    out.push(def("sim.branches", "count", Lower));
    out.push(def("sim.table3_ratio", "ratio", Lower));
    out.push(def("serve.fleet_new_ms", "ms", Lower));
    out.push(def("serve.run_online_ms", "ms", Lower));
    for count in ["stagings", "swaps", "evictions"] {
        out.push(def(format!("serve.{count}"), "count", Lower));
    }
    out.push(def("serve.swap_ms", "sim_ms", Lower));
    for count in ["shed", "rejected", "slo_violations"] {
        out.push(def(format!("serve.{count}"), "count", Lower));
    }
    for w in WORKER_IDS {
        out.push(def(format!("serve.busy_ratio.{w}"), "ratio", Lower));
    }
    out.push(def("serve.p99_first_half_ms", "sim_ms", Lower));
    out.push(def("serve.p99_second_half_ms", "sim_ms", Lower));
    out.push(def("serve.plan_calls", "count", Lower));
    out.push(def("trace.overhead_ratio", "ratio", Lower));
    out
}

/// Median (mean of the middle two for even counts); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile `q` in `[0, 1]`; 0 when empty.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// A JSON number with every digit (Rust's shortest round-trip form).
///
/// # Panics
///
/// Panics on NaN or infinity, which JSON cannot carry.
pub fn num(v: f64) -> String {
    assert!(v.is_finite(), "metric value {v} is not finite");
    format!("{v}")
}

/// The last line of a run: correctness, operation counts and metrics in
/// definition order.
///
/// # Errors
///
/// Names the first metric in `defs` that `values` lacks.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    defs: &[Def],
    values: &BTreeMap<String, f64>,
) -> Result<String, String> {
    let mut fields = Vec::with_capacity(defs.len());
    for d in defs {
        let v = values
            .get(&d.name)
            .ok_or_else(|| format!("metric `{}` was not measured", d.name))?;
        fields.push(format!(
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            d.name,
            num(*v),
            d.unit
        ));
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        fields.join(", ")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 0.99), 99.0);
        assert_eq!(percentile(&hundred, 0.5), 50.0);
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut all: Vec<String> = end_to_end()
            .into_iter()
            .chain(per_layer())
            .map(|d| d.name)
            .collect();
        let n = all.len();
        all.sort();
        all.dedup();
        assert_eq!(all.len(), n, "metric names must be unique");
        for name in &all {
            assert!(name.len() <= 64, "{name}");
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
    }
}
