//! Fused-vs-unfused peak-RAM comparison: the paper's multi-layer case
//! (§5.2) measured per zoo model.
//!
//! For every chain-shaped zoo model this prices the multi-layer segment
//! fusion pipeline (`PlannerKind::VmcuFused`) against single-layer vMCU
//! and TinyEngine planning, reports which fit the 128 KB STM32-F411RE,
//! and emits `BENCH_fused.json`. Exit status is non-zero unless
//!
//! * the fused plan undercuts single-layer vMCU on the unfused
//!   MobileNetV2 block (the savings claim),
//! * the wide expand chain deploys **only** fused (the deployability
//!   claim),
//! * fusion never prices a model above single-layer vMCU (the admission
//!   monotonicity the fleet scheduler relies on).
//!
//! Flags: `--out PATH`.

use vmcu::prelude::*;
use vmcu_bench::json::Json;
use vmcu_graph::zoo;
use vmcu_plan::peak_demand_bytes;

fn parse_out() -> String {
    let mut out = "BENCH_fused.json".to_owned();
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--out" => out = it.next().expect("--out needs a value"),
            other => panic!("unknown flag `{other}`"),
        }
    }
    out
}

fn main() {
    let out_path = parse_out();
    let device = Device::stm32_f411re();
    let models = [
        ("mbv2-block-unfused", zoo::mbv2_block_unfused()),
        ("wide-expand-chain", zoo::wide_expand_chain()),
        ("demo-linear-net", zoo::demo_linear_net()),
    ];
    let fused_planner = VmcuPlanner::new(IbScheme::RowBuffer, VmcuPass::Fuse);
    let vmcu_planner = VmcuPlanner::default();

    println!("fused_pipeline: peak demand (bytes) on {device}");
    let mut rows = Vec::new();
    let mut demands = Vec::new();
    for (name, graph) in &models {
        let fused = peak_demand_bytes(&fused_planner, graph);
        let vmcu = peak_demand_bytes(&vmcu_planner, graph);
        let te = peak_demand_bytes(&TinyEnginePlanner, graph);
        let budget = device.usable_ram_bytes();
        let groups = vmcu_plan::fuse_graph(graph, IbScheme::RowBuffer).fused_groups();
        println!(
            "  {name:<22} fused {fused:>7}  vMCU {vmcu:>7}  TinyEngine {te:>7}  \
             ({groups} fused group{}, fused {} 128 KB)",
            if groups == 1 { "" } else { "s" },
            if fused <= budget { "fits" } else { "exceeds" },
        );
        rows.push(Json::Object(vec![
            ("model".into(), Json::str(*name)),
            ("fused_demand_bytes".into(), Json::from(fused)),
            ("vmcu_demand_bytes".into(), Json::from(vmcu)),
            ("tinyengine_demand_bytes".into(), Json::from(te)),
            ("fused_groups".into(), Json::from(groups)),
            ("fused_fits_128kb".into(), Json::Bool(fused <= budget)),
            ("vmcu_fits_128kb".into(), Json::Bool(vmcu <= budget)),
        ]));
        demands.push((*name, fused, vmcu));
    }

    let budget = device.usable_ram_bytes();
    let find = |wanted: &str| {
        demands
            .iter()
            .find(|(n, _, _)| *n == wanted)
            .expect("model priced")
    };
    let (_, mbv2_fused, mbv2_vmcu) = *find("mbv2-block-unfused");
    let (_, wide_fused, wide_vmcu) = *find("wide-expand-chain");
    let checks = [
        (
            "fused_undercuts_vmcu_on_mbv2_block",
            mbv2_fused < mbv2_vmcu,
            format!("fused {mbv2_fused} vs vMCU {mbv2_vmcu}"),
        ),
        (
            "wide_chain_fits_only_fused",
            wide_fused <= budget && wide_vmcu > budget,
            format!("fused {wide_fused} vs vMCU {wide_vmcu}, budget {budget}"),
        ),
        (
            "fusion_never_raises_demand",
            demands.iter().all(|(_, f, v)| f <= v),
            "fused demand <= vMCU demand on every model".to_owned(),
        ),
    ];

    let doc = Json::Object(vec![
        ("id".into(), Json::str("fused_pipeline")),
        ("device".into(), Json::str(device.name.clone())),
        ("models".into(), Json::Array(rows)),
        (
            "checks".into(),
            Json::Array(
                checks
                    .iter()
                    .map(|(name, passed, detail)| {
                        Json::Object(vec![
                            ("name".into(), Json::str(*name)),
                            ("passed".into(), Json::Bool(*passed)),
                            ("detail".into(), Json::str(detail.clone())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    std::fs::write(&out_path, doc.to_string_pretty() + "\n")
        .unwrap_or_else(|e| panic!("writing {out_path}: {e}"));
    println!("wrote {out_path}");

    let mut ok = true;
    for (name, passed, detail) in &checks {
        println!(
            "  [{}] {name} — {detail}",
            if *passed { "PASS" } else { "FAIL" }
        );
        ok &= *passed;
    }
    std::process::exit(i32::from(!ok));
}
