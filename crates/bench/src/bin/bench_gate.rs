//! CI bench-regression gate: `bench_gate A.json B.json`.
//!
//! Compares two `fleet_throughput` reports **exactly**: with the
//! host-time fields stripped (`planning_ms`, `host_wall_ms`,
//! `host_requests_per_sec`), every remaining number — batch admission
//! and latency, online sojourn percentiles, shed rates, swap counts,
//! simulated energy, plan calls per request, the report's own checks —
//! is simulated device time or a deterministic count, so two runs of an
//! unchanged tree compare bit-identical and any change fails the section
//! it lands in.
//!
//! CI runs it twice: against the committed baseline
//! (`bench_gate ci/bench_baseline.json BENCH_fleet.json`), where a
//! change that moves a simulated number commits a regenerated baseline
//! and names the moved fields in CHANGES.md; and across two fresh
//! `fleet_throughput` processes
//! (`bench_gate BENCH_fleet.json BENCH_fleet_rerun.json`), the
//! bit-reproducibility contract.

use vmcu_bench::json::Json;

fn load(path: &str) -> Json {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("reading {path}: {e} (run fleet_throughput first?)"));
    Json::parse(&text).unwrap_or_else(|e| panic!("parsing {path}: {e}"))
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

/// Whether two `fleet_throughput` reports agree on every simulated
/// field, section by section and as a whole.
fn gate_identical(a_path: &str, b_path: &str) -> bool {
    let a = load(a_path);
    let b = load(b_path);
    println!("bench gate: {a_path} vs {b_path} (host-time fields excluded)");
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
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [a, b] = args.as_slice() else {
        eprintln!("usage: bench_gate A.json B.json");
        std::process::exit(2);
    };
    let ok = gate_identical(a, b);
    if !ok {
        println!(
            "simulated fields differ — a moved number against the baseline (regenerate it \
             with `cargo run --release --bin fleet_throughput -- --light`, commit it, and \
             name every moved field in CHANGES.md) or, across two runs of one build, a \
             nondeterminism bug; bisect the fields above"
        );
    }
    std::process::exit(i32::from(!ok));
}
