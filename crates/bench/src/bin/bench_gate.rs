//! CI bench-regression gate.
//!
//! Compares a freshly emitted `BENCH_fleet.json` (from `fleet_throughput`)
//! against the committed baseline and fails when requests/sec or the
//! admission rate drops more than the allowed fraction for any planner
//! present in both files. One direction-correctness carve-out: a
//! requests/sec drop that comes with *more admitted requests* is waived —
//! serving previously-rejected heavy models lengthens the makespan, and
//! punishing that would gate out genuine capacity improvements (rejecting
//! heavy work always looks "faster" per completed request).
//!
//! Fleet numbers are simulated device time, so on an unchanged tree
//! current == baseline exactly; the 20% margin only buys room for
//! intentional small trade-offs, not for machine noise.
//!
//! Online rows (the sustained serving simulator, keyed by
//! `(planner, profile)`) are gated on the two SLO-facing metrics:
//! `p99_sojourn_ms` and `shed_rate` must not rise more than the allowed
//! fraction above baseline (shed rate gets an extra 0.5-point absolute
//! slack so near-zero baselines don't gate on dust). A baseline online
//! row missing from the current report fails; a baseline that predates
//! the online section skips the online gate.
//!
//! The gate also holds the plan-once contract: each planner's
//! `plan_calls_per_request` (serving-side planning amortization, 0 on
//! the deploy-once worker path) must not rise above the baseline — the
//! replanning win is gated, not just claimed.
//!
//! The gate can additionally hold the SIMD kernel report: pass
//! `--simd-current BENCH_simd.json --simd-baseline ci/bench_simd_baseline.json`
//! and the whole report, host-time fields stripped, must equal the
//! committed baseline (every remaining number is simulated, so unchanged
//! code compares exactly), and every benchmark-internal check must pass.
//!
//! A second, standalone mode holds the bit-reproducibility contract
//! across *processes*: `bench_gate --identical A.json B.json` compares
//! two `fleet_throughput` reports field by field after stripping the
//! host-time fields (`planning_ms`, `host_wall_ms`,
//! `host_requests_per_sec`, `host_ns_per_mac`) — every remaining number
//! is simulated device time and must compare bit-identical, or the gate
//! fails. CI runs `fleet_throughput` twice and feeds both files through
//! this mode.
//!
//! Usage:
//! `bench_gate [--current BENCH_fleet.json] [--baseline ci/bench_baseline.json] [--max-drop 0.20] [--simd-current PATH --simd-baseline PATH]`
//! `bench_gate --identical A.json B.json`

use vmcu_bench::json::Json;

struct Args {
    current: String,
    baseline: String,
    max_drop: f64,
    simd_current: Option<String>,
    simd_baseline: Option<String>,
    /// `--identical A B`: standalone mode, compare two reports'
    /// simulated fields bit for bit instead of gating against the
    /// baseline.
    identical: Option<(String, String)>,
}

fn parse_args() -> Args {
    let mut args = Args {
        current: "BENCH_fleet.json".to_owned(),
        baseline: "ci/bench_baseline.json".to_owned(),
        max_drop: 0.20,
        simd_current: None,
        simd_baseline: None,
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
            "--simd-current" => args.simd_current = Some(value("--simd-current")),
            "--simd-baseline" => args.simd_baseline = Some(value("--simd-baseline")),
            "--max-drop" => {
                args.max_drop = value("--max-drop").parse().expect("--max-drop: fraction");
                assert!(
                    (0.0..1.0).contains(&args.max_drop),
                    "--max-drop must be in [0, 1)"
                );
            }
            other => panic!("unknown flag `{other}`"),
        }
    }
    assert_eq!(
        args.simd_current.is_some(),
        args.simd_baseline.is_some(),
        "--simd-current and --simd-baseline must be passed together"
    );
    args
}

fn load(path: &str) -> Json {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("reading {path}: {e} (run fleet_throughput first?)"));
    Json::parse(&text).unwrap_or_else(|e| panic!("parsing {path}: {e}"))
}

struct PlannerRow {
    name: String,
    requests_per_sec: f64,
    admission_rate: f64,
    admitted: f64,
    /// Serving-side planning amortization (`serve_plan_calls / offered`);
    /// `None` for baselines that predate the metric.
    plan_calls_per_request: Option<f64>,
}

fn planner_rows(doc: &Json, path: &str) -> Vec<PlannerRow> {
    doc.get("planners")
        .and_then(Json::as_array)
        .unwrap_or_else(|| panic!("{path}: missing `planners` array"))
        .iter()
        .map(|row| {
            let field = |key: &str| {
                row.get(key)
                    .and_then(Json::as_f64)
                    .unwrap_or_else(|| panic!("{path}: planner row missing number `{key}`"))
            };
            PlannerRow {
                name: row
                    .get("planner")
                    .and_then(Json::as_str)
                    .unwrap_or_else(|| panic!("{path}: planner row missing `planner`"))
                    .to_owned(),
                requests_per_sec: field("requests_per_sec"),
                admission_rate: field("admission_rate"),
                admitted: field("admitted"),
                plan_calls_per_request: row.get("plan_calls_per_request").and_then(Json::as_f64),
            }
        })
        .collect()
}

struct OnlineRow {
    planner: String,
    profile: String,
    p99_sojourn_ms: f64,
    shed_rate: f64,
}

/// Extracts the `online` rows; `None` when the file predates the
/// online serving section (pre-online baselines stay usable).
fn online_rows(doc: &Json, path: &str) -> Option<Vec<OnlineRow>> {
    Some(
        doc.get("online")?
            .as_array()
            .unwrap_or_else(|| panic!("{path}: `online` is not an array"))
            .iter()
            .map(|row| {
                let text = |key: &str| {
                    row.get(key)
                        .and_then(Json::as_str)
                        .unwrap_or_else(|| panic!("{path}: online row missing `{key}`"))
                        .to_owned()
                };
                let field = |key: &str| {
                    row.get(key)
                        .and_then(Json::as_f64)
                        .unwrap_or_else(|| panic!("{path}: online row missing number `{key}`"))
                };
                OnlineRow {
                    planner: text("planner"),
                    profile: text("profile"),
                    p99_sojourn_ms: field("p99_sojourn_ms"),
                    shed_rate: field("shed_rate"),
                }
            })
            .collect(),
    )
}

/// Gates the online serving rows: per `(planner, profile)` pair present
/// in the baseline, simulated p99 sojourn and shed rate must not rise
/// beyond the allowed margin. Both are simulated, so an unchanged tree
/// compares exactly.
fn gate_online(current: &[OnlineRow], baseline: &[OnlineRow], max_drop: f64) -> bool {
    let mut ok = true;
    for base in baseline {
        let key = format!("{}/{}", base.planner, base.profile);
        let Some(cur) = current
            .iter()
            .find(|r| r.planner == base.planner && r.profile == base.profile)
        else {
            println!("  [FAIL] online {key}: row missing from current report");
            ok = false;
            continue;
        };
        let p99_ceiling = base.p99_sojourn_ms * (1.0 + max_drop) + 1e-9;
        let p99_ok = cur.p99_sojourn_ms <= p99_ceiling;
        println!(
            "  [{}] online {key} p99_sojourn_ms: {:.3} vs baseline {:.3} (ceiling {:.3})",
            if p99_ok { "PASS" } else { "FAIL" },
            cur.p99_sojourn_ms,
            base.p99_sojourn_ms,
            p99_ceiling
        );
        // Relative margin plus half a percentage point of absolute slack:
        // a 0.1% -> 0.4% shed move is noise-scale churn in the queue
        // tail, but 10% -> 13% is a real capacity regression and fails.
        let shed_ceiling = base.shed_rate * (1.0 + max_drop) + 0.005;
        let shed_ok = cur.shed_rate <= shed_ceiling;
        println!(
            "  [{}] online {key} shed_rate: {:.4} vs baseline {:.4} (ceiling {:.4})",
            if shed_ok { "PASS" } else { "FAIL" },
            cur.shed_rate,
            base.shed_rate,
            shed_ceiling
        );
        ok &= p99_ok && shed_ok;
    }
    ok
}

/// Gates the SIMD kernel report: with host time stripped it must equal
/// the committed baseline (simulated numbers compare exactly on an
/// unchanged tree), and the report's own checks must all pass.
fn gate_simd(current_path: &str, baseline_path: &str) -> bool {
    let current = load(current_path);
    let baseline = load(baseline_path);
    println!("simd gate: {current_path} vs baseline {baseline_path}");
    let mut ok = strip_host_time(&current).to_string_pretty()
        == strip_host_time(&baseline).to_string_pretty();
    println!(
        "  [{}] report (minus host time) equals the baseline",
        if ok { "PASS" } else { "FAIL" }
    );
    for check in current
        .get("checks")
        .and_then(Json::as_array)
        .unwrap_or_else(|| panic!("{current_path}: missing `checks` array"))
    {
        let name = check.get("name").and_then(Json::as_str).unwrap_or("?");
        let passed = matches!(check.get("passed"), Some(Json::Bool(true)));
        println!(
            "  [{}] simd check {name}",
            if passed { "PASS" } else { "FAIL" }
        );
        ok &= passed;
    }
    ok
}

/// Host-side wall-clock fields: the only numbers in a report that are
/// allowed to differ between two runs of the same build.
const HOST_TIME_KEYS: &[&str] = &[
    "planning_ms",
    "host_wall_ms",
    "host_requests_per_sec",
    "host_ns_per_mac",
];

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
    let current_doc = load(&args.current);
    let baseline_doc = load(&args.baseline);
    let current = planner_rows(&current_doc, &args.current);
    let baseline = planner_rows(&baseline_doc, &args.baseline);

    let mut ok = true;
    let mut compared = 0usize;
    println!(
        "bench gate: {} vs baseline {} (max drop {:.0}%)",
        args.current,
        args.baseline,
        args.max_drop * 100.0
    );
    for base in &baseline {
        let name = &base.name;
        let Some(cur) = current.iter().find(|r| r.name == *name) else {
            println!("  [FAIL] {name}: planner missing from current report");
            ok = false;
            continue;
        };
        compared += 1;
        for (metric, b, c) in [
            (
                "requests_per_sec",
                base.requests_per_sec,
                cur.requests_per_sec,
            ),
            ("admission_rate", base.admission_rate, cur.admission_rate),
        ] {
            let floor = b * (1.0 - args.max_drop);
            let mut passed = c >= floor;
            // Direction-correctness: completed-per-makespan drops when
            // previously-rejected heavy models get served. More admitted
            // work excuses a requests/sec drop (never the reverse).
            let mut tag = if passed { "PASS" } else { "FAIL" };
            if !passed && metric == "requests_per_sec" && cur.admitted > base.admitted {
                passed = true;
                tag = "WAIVED";
            }
            let delta = if b > 0.0 { (c - b) / b * 100.0 } else { 0.0 };
            println!(
                "  [{tag}] {name} {metric}: {c:.3} vs baseline {b:.3} ({delta:+.1}%){}",
                if tag == "WAIVED" {
                    format!(" — admitted rose {} -> {}", base.admitted, cur.admitted)
                } else {
                    String::new()
                }
            );
            ok &= passed;
        }
        // Planning amortization gates the other direction: the serve-side
        // replanning win must not regress (a *rise* in plan calls per
        // request fails). Skipped when either file predates the metric.
        if let (Some(b), Some(c)) = (base.plan_calls_per_request, cur.plan_calls_per_request) {
            let ceiling = b * (1.0 + args.max_drop) + 1e-9;
            let passed = c <= ceiling;
            println!(
                "  [{}] {name} plan_calls_per_request: {c:.4} vs baseline {b:.4} (ceiling {ceiling:.4})",
                if passed { "PASS" } else { "FAIL" }
            );
            ok &= passed;
        }
    }
    if compared == 0 {
        println!("  [FAIL] no planners in common between current and baseline");
        ok = false;
    }
    // Online serving gate: only when the baseline has online rows (so
    // pre-online baselines remain usable); the current report must then
    // carry every baseline row.
    if let Some(base_online) = online_rows(&baseline_doc, &args.baseline) {
        if base_online.is_empty() {
            println!("  online gate: baseline has no online rows, skipping");
        } else {
            let cur_online = online_rows(&current_doc, &args.current).unwrap_or_default();
            ok &= gate_online(&cur_online, &base_online, args.max_drop);
        }
    }
    if let (Some(sc), Some(sb)) = (&args.simd_current, &args.simd_baseline) {
        ok &= gate_simd(sc, sb);
    }
    if !ok {
        println!(
            "regression gate failed — if the slowdown is intentional, regenerate {} from \
             `cargo run --release --bin fleet_throughput -- --light` and commit it",
            args.baseline
        );
    }
    std::process::exit(i32::from(!ok));
}
