//! Static certification sweep: `vmcu-verify` over zoo × planners × ladder.
//!
//! Every zoo model is deployed under every planner kind on every ladder
//! device; each deployment that resolves is audited by the static plan
//! verifier — no kernel executes, the plan arithmetic alone is proven
//! hazard-free. Combinations that do not fit a device are recorded as
//! `undeployable` (that is the planner's verdict, not a failure).
//!
//! Emits `BENCH_audit.json` with one row per combination, keyed by model,
//! device, planner and IB scheme (`null` for the tensor-level
//! baselines), and exits non-zero if any audited deployment reports a
//! violation, if nothing deployed at all (which would make the sweep
//! vacuous), or if two rows share a key (which would make them
//! indistinguishable in the certificate).
//!
//! Flags: `--out PATH` (default `BENCH_audit.json`).

use std::collections::HashSet;
use vmcu::prelude::*;
use vmcu_bench::json::Json;
use vmcu_graph::zoo;

fn planner_kinds() -> Vec<PlannerKind> {
    vec![
        PlannerKind::Vmcu(IbScheme::RowBuffer),
        PlannerKind::Vmcu(IbScheme::PixelWindow),
        PlannerKind::Vmcu(IbScheme::SlidingWindow),
        PlannerKind::VmcuFused(IbScheme::RowBuffer),
        PlannerKind::VmcuPatched(IbScheme::RowBuffer),
        PlannerKind::TinyEngine,
        PlannerKind::Hmcos,
        PlannerKind::VmcuSplit {
            devices: 4,
            scheme: IbScheme::RowBuffer,
        },
        PlannerKind::VmcuReorder(IbScheme::RowBuffer),
    ]
}

fn models() -> Vec<(String, vmcu_graph::Graph)> {
    let mut out: Vec<(String, vmcu_graph::Graph)> = vec![
        ("demo-linear".into(), zoo::demo_linear_net()),
        ("mbv2-block-unfused".into(), zoo::mbv2_block_unfused()),
        ("wide-expand-chain".into(), zoo::wide_expand_chain()),
        ("hires-front-stage".into(), zoo::hires_front_stage()),
        ("hires-split-only".into(), zoo::hires_split_only()),
        ("mbv2-residual-dag".into(), zoo::mbv2_residual_dag()),
        ("two-head-net".into(), zoo::two_head_net()),
        ("branchy-oom-net".into(), zoo::branchy_oom_net()),
    ];
    for seed in [11u64, 29, 47] {
        out.push((
            format!("random-linear-{seed}"),
            zoo::random_linear_net(seed, 6),
        ));
        out.push((format!("random-dag-{seed}"), zoo::random_dag_net(seed, 5)));
    }
    out
}

fn main() {
    let mut out_path = "BENCH_audit.json".to_owned();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--out" => out_path = args.next().expect("--out takes a path"),
            other => panic!("unknown flag {other}"),
        }
    }

    println!("audit: static hazard certification over zoo × planners × ladder");
    let mut rows = Vec::new();
    let mut audited = 0usize;
    let mut undeployable = 0usize;
    let mut violations = 0usize;
    let mut distances = 0usize;
    let mut keys = HashSet::new();
    let mut duplicates = 0usize;
    for (model_name, graph) in models() {
        let weights = graph.random_weights(0xA0D1);
        for device in Device::simd_ladder() {
            for kind in planner_kinds() {
                let scheme = kind.scheme();
                if !keys.insert((model_name.clone(), device.name.clone(), kind.name(), scheme)) {
                    duplicates += 1;
                    println!(
                        "DUPLICATE row key {model_name} × {} × {scheme:?} × {}",
                        kind.name(),
                        device.name
                    );
                }
                let mut row = vec![
                    ("model".into(), Json::str(&*model_name)),
                    ("device".into(), Json::str(&*device.name)),
                    ("planner".into(), Json::str(kind.name())),
                    (
                        "scheme".into(),
                        scheme.map_or(Json::Null, |s| Json::str(format!("{s:?}"))),
                    ),
                ];
                let engine = Engine::new(device.clone()).planner(kind);
                let Ok(dep) = engine.deploy(&graph, &weights) else {
                    undeployable += 1;
                    row.push(("deployed".into(), Json::Bool(false)));
                    rows.push(Json::Object(row));
                    continue;
                };
                let report = vmcu_verify::audit(&dep);
                audited += 1;
                violations += report.violations.len();
                distances += report.distances_checked;
                if !report.is_clean() {
                    println!(
                        "VIOLATIONS {model_name} × {} × {}:",
                        kind.name(),
                        device.name
                    );
                    for v in &report.violations {
                        println!("  - {v}");
                    }
                }
                row.extend([
                    ("deployed".into(), Json::Bool(true)),
                    ("clean".into(), Json::Bool(report.is_clean())),
                    (
                        "violations".into(),
                        Json::Num(report.violations.len() as f64),
                    ),
                    (
                        "nodes_checked".into(),
                        Json::Num(report.nodes_checked as f64),
                    ),
                    (
                        "distances_checked".into(),
                        Json::Num(report.distances_checked as f64),
                    ),
                ]);
                rows.push(Json::Object(row));
            }
        }
    }

    let doc = Json::Object(vec![
        ("suite".into(), Json::str("static-plan-audit")),
        ("audited".into(), Json::Num(audited as f64)),
        ("undeployable".into(), Json::Num(undeployable as f64)),
        ("violations".into(), Json::Num(violations as f64)),
        ("distances_checked".into(), Json::Num(distances as f64)),
        ("rows".into(), Json::Array(rows)),
    ]);
    std::fs::write(&out_path, doc.to_string_pretty() + "\n")
        .unwrap_or_else(|e| panic!("writing {out_path}: {e}"));
    println!(
        "wrote {out_path}: {audited} deployments audited ({undeployable} undeployable), \
         {distances} distances cross-checked, {violations} violations"
    );
    let ok = violations == 0 && audited > 0 && duplicates == 0;
    std::process::exit(i32::from(!ok));
}
