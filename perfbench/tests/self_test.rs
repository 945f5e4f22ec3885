//! Benchmark self-tests: determinism per seed, seed sensitivity of the
//! serving stream, and agreement between the metrics the code emits and
//! the ones `BENCHMARK.json` declares.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use perfbench::inputs::{self, Group, Suite};
use perfbench::metrics::{self, result_line};
use perfbench::phases::{self, Ops, SimRow};
use perfbench::run::Workload;
use perfbench::trace::Tracer;
use std::collections::{BTreeMap, HashMap};

/// A small slice of the infer_mix suite: Table 3 plus two zoo models.
fn small_mix(seed: u64) -> Suite {
    let mut suite = inputs::mix_suite(seed);
    let keep = ["demo-linear-net", "mbv2-residual-dag"];
    let models = suite.models.clone();
    suite.items.retain(|i| {
        let m = &models[i.model];
        matches!(m.group, Group::Table3(_)) || keep.contains(&m.graph.name.as_str())
    });
    suite
}

fn simulate(seed: u64) -> (Vec<SimRow>, Ops) {
    let suite = small_mix(seed);
    let mut tr = Tracer::new();
    let mut ops = Ops::default();
    let d = phases::deploy_all(&suite, &HashMap::new(), &mut tr, &mut ops);
    let mut prep = phases::prepare_infer(&suite, &d.deps, &mut tr);
    let pass = phases::infer_pass(&suite, &mut prep, &mut tr, &mut ops);
    (pass.sim, ops)
}

fn serve(seed: u64) -> vmcu_serve::OnlineStats {
    let mut tr = Tracer::new();
    let mut ops = Ops::default();
    let fleet = phases::new_fleet(&mut tr);
    let p = phases::serve_pass(&fleet, 2_000, seed, &mut tr, &mut ops);
    assert_eq!(ops.failed, 0);
    p.report.stats.simulated()
}

#[test]
fn same_seed_gives_bit_identical_simulated_metrics() {
    let (a, ops) = simulate(inputs::DEFAULT_SEED);
    let (b, _) = simulate(inputs::DEFAULT_SEED);
    assert_eq!(ops.failed, 0, "every output must match run_reference");
    assert!(ops.attempted > 0);
    assert_eq!(a, b);
    assert_eq!(serve(5), serve(5));
}

#[test]
fn different_seed_changes_the_serving_stream() {
    assert_ne!(serve(5), serve(6));
    let names = |seed| -> Vec<String> {
        inputs::zoo_models(seed)
            .into_iter()
            .map(|m| m.graph.name)
            .collect()
    };
    assert_ne!(
        names(inputs::DEFAULT_SEED),
        names(inputs::HELD_OUT_SEED),
        "the seeded zoo models must follow the seed"
    );
}

#[test]
fn benchmark_json_declares_every_metric_with_unit_and_direction() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
    for d in metrics::end_to_end() {
        let entry = format!(
            "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": ",
            d.name,
            d.unit,
            d.better.as_str()
        );
        assert!(text.contains(&entry), "end-to-end metric missing: {entry}");
    }
    for d in metrics::per_layer() {
        let entry = format!(
            "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
            d.name,
            d.unit,
            d.better.as_str()
        );
        assert!(text.contains(&entry), "per-layer metric missing: {entry}");
    }
    for w in Workload::ALL {
        assert!(text.contains(&format!("{{\"name\": \"{}\", ", w.name())));
    }
    let declared = text.matches("{\"name\": ").count();
    let known = metrics::end_to_end().len() + metrics::per_layer().len() + Workload::ALL.len();
    assert_eq!(declared, known, "BENCHMARK.json declares unknown entries");
}

#[test]
fn result_line_requires_every_metric() {
    let defs = metrics::end_to_end();
    let mut values: BTreeMap<String, f64> = defs.iter().map(|d| (d.name.clone(), 1.5)).collect();
    let line = result_line(true, 3, 0, &defs, &values).unwrap();
    assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {"));
    values.remove("setup_s");
    assert!(result_line(true, 3, 0, &defs, &values).is_err());
}
