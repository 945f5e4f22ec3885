//! CI bench-regression gate.
//!
//! Compares a freshly emitted `BENCH_fleet.json` (from `fleet_throughput`)
//! with the committed baseline **exactly**: with the host-time fields
//! stripped (`planning_ms`, `host_wall_ms`, `host_requests_per_sec`),
//! every remaining number — batch admission and latency, online sojourn
//! percentiles, shed rates, swap counts, simulated energy, plan calls,
//! the report's own checks — is simulated device time or a deterministic
//! count, so an unchanged tree compares bit-identical and any change
//! fails the section it lands in. A change that moves a simulated number
//! commits a regenerated baseline and names the moved fields in
//! CHANGES.md.
//!
//! The gate also holds the plan-once contract by name: each planner's
//! `plan_calls_per_request` (serving-side planning amortization, 0 on
//! the deploy-once worker path) must not rise above the baseline — the
//! replanning win is gated, not just claimed.
//!
//! A second, standalone mode holds the bit-reproducibility contract
//! across *processes*: `bench_gate --identical A.json B.json` compares
//! two `fleet_throughput` reports the same way. CI runs
//! `fleet_throughput` twice and feeds both files through this mode.
//!
//! Usage:
//! `bench_gate [--current BENCH_fleet.json] [--baseline ci/bench_baseline.json]`
//! `bench_gate --identical A.json B.json`

use vmcu_bench::json::Json;

struct Args {
    current: String,
    baseline: String,
    /// `--identical A B`: standalone mode, compare two reports'
    /// simulated fields bit for bit instead of gating against the
    /// baseline.
    identical: Option<(String, String)>,
}

fn parse_args() -> Args {
    let mut args = Args {
        current: "BENCH_fleet.json".to_owned(),
        baseline: "ci/bench_baseline.json".to_owned(),
        identical: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut value = |name: &str| it.next().unwrap_or_else(|| panic!("{name} needs a value"));
        match a.as_str() {
            "--current" => args.current = value("--current"),
            "--baseline" => args.baseline = value("--baseline"),
            "--identical" => {
                let a = value("--identical");
                let b = value("--identical");
                args.identical = Some((a, b));
            }
            other => panic!("unknown flag `{other}`"),
        }
    }
    args
}

fn load(path: &str) -> Json {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("reading {path}: {e} (run fleet_throughput first?)"));
    Json::parse(&text).unwrap_or_else(|e| panic!("parsing {path}: {e}"))
}

struct PlannerRow {
    name: String,
    /// Serving-side planning amortization (`serve_plan_calls / offered`);
    /// `None` for baselines that predate the metric.
    plan_calls_per_request: Option<f64>,
}

fn planner_rows(doc: &Json, path: &str) -> Vec<PlannerRow> {
    doc.get("planners")
        .and_then(Json::as_array)
        .unwrap_or_else(|| panic!("{path}: missing `planners` array"))
        .iter()
        .map(|row| PlannerRow {
            name: row
                .get("planner")
                .and_then(Json::as_str)
                .unwrap_or_else(|| panic!("{path}: planner row missing `planner`"))
                .to_owned(),
            plan_calls_per_request: row.get("plan_calls_per_request").and_then(Json::as_f64),
        })
        .collect()
}

/// The plan-once contract: no planner's serve-side plan calls per
/// request may rise above the baseline's. Skipped for a planner whose
/// row in either file predates the metric.
fn gate_plan_calls(current: &[PlannerRow], baseline: &[PlannerRow]) -> bool {
    let mut ok = true;
    for base in baseline {
        let name = &base.name;
        let Some(cur) = current.iter().find(|r| r.name == *name) else {
            println!("  [FAIL] {name}: planner missing from current report");
            ok = false;
            continue;
        };
        if let (Some(b), Some(c)) = (base.plan_calls_per_request, cur.plan_calls_per_request) {
            let passed = c <= b;
            println!(
                "  [{}] {name} plan_calls_per_request: {c:.4} vs baseline {b:.4}",
                if passed { "PASS" } else { "FAIL" }
            );
            ok &= passed;
        }
    }
    ok
}

/// Host-side wall-clock fields: the only numbers in a report that are
/// allowed to differ between two runs of the same build.
const HOST_TIME_KEYS: &[&str] = &["planning_ms", "host_wall_ms", "host_requests_per_sec"];

/// Recursively drops the host-time fields, leaving only simulated (and
/// therefore bit-reproducible) content.
fn strip_host_time(json: &Json) -> Json {
    match json {
        Json::Object(fields) => Json::Object(
            fields
                .iter()
                .filter(|(k, _)| !HOST_TIME_KEYS.contains(&k.as_str()))
                .map(|(k, v)| (k.clone(), strip_host_time(v)))
                .collect(),
        ),
        Json::Array(items) => Json::Array(items.iter().map(strip_host_time).collect()),
        other => other.clone(),
    }
}

/// The cross-process bit-reproducibility gate: two `fleet_throughput`
/// reports must agree on every simulated field.
fn gate_identical(a_path: &str, b_path: &str) -> bool {
    let a = load(a_path);
    let b = load(b_path);
    println!("identical gate: {a_path} vs {b_path} (host-time fields excluded)");
    let mut ok = true;
    for section in ["planners", "online", "checks"] {
        let (sa, sb) = (a.get(section), b.get(section));
        let passed = match (sa, sb) {
            (Some(sa), Some(sb)) => {
                strip_host_time(sa).to_string_pretty() == strip_host_time(sb).to_string_pretty()
            }
            (None, None) => true,
            _ => false,
        };
        println!(
            "  [{}] section `{section}` compares bit-identical",
            if passed { "PASS" } else { "FAIL" }
        );
        ok &= passed;
    }
    let whole = strip_host_time(&a).to_string_pretty() == strip_host_time(&b).to_string_pretty();
    println!(
        "  [{}] whole report (minus host time) compares bit-identical",
        if whole { "PASS" } else { "FAIL" }
    );
    ok && whole
}

fn main() {
    let args = parse_args();
    if let Some((a, b)) = &args.identical {
        let ok = gate_identical(a, b);
        if !ok {
            println!(
                "simulated fields differ across processes — a nondeterminism bug, \
                 not a perf regression; bisect the fields above"
            );
        }
        std::process::exit(i32::from(!ok));
    }
    println!("bench gate: {} vs baseline {}", args.current, args.baseline);
    let mut ok = gate_identical(&args.baseline, &args.current);
    ok &= gate_plan_calls(
        &planner_rows(&load(&args.current), &args.current),
        &planner_rows(&load(&args.baseline), &args.baseline),
    );
    if !ok {
        println!(
            "regression gate failed — if the change is intentional, regenerate {} from \
             `cargo run --release --bin fleet_throughput -- --light`, commit it, and name \
             every moved field in CHANGES.md",
            args.baseline
        );
    }
    std::process::exit(i32::from(!ok));
}
