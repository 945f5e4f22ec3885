//! Patch-based front-stage comparison: the MCUNetV2-style spatial
//! bottleneck, measured per zoo model.
//!
//! For every chain-shaped zoo model this prices patch-based execution
//! (`PlannerKind::VmcuPatched`) against the fused pipeline, single-layer
//! vMCU, and TinyEngine planning, reports which fit the 128 KB
//! STM32-F411RE, measures the **halo recompute** of the patched front
//! (extra MACs from the accounting surface, extra cycles from actually
//! running the front patched vs unpatched on the simulated machine), and
//! emits `BENCH_patch.json`. Exit status is non-zero unless
//!
//! * `hires-front-stage` deploys **only** patched (the new-workload
//!   claim: its 147 KB input OOMs every whole-tensor policy),
//! * the patched output is bit-identical to the unpatched reference,
//! * patching never prices a model above the fused plan (the admission
//!   monotonicity the fleet scheduler relies on),
//! * the halo-recompute overhead stays under the planner's cap.
//!
//! Flags: `--out PATH`.

use vmcu::prelude::*;
use vmcu::vmcu_graph::exec;
use vmcu::vmcu_kernels::patched::{run_patched_front, PatchGrid, PatchedFront};
use vmcu::vmcu_sim::Machine;
use vmcu::vmcu_tensor::random;
use vmcu_bench::json::Json;
use vmcu_graph::zoo;
use vmcu_plan::patch::MAX_HALO_OVERHEAD;
use vmcu_plan::peak_demand_bytes;

fn parse_out() -> String {
    let mut out = "BENCH_patch.json".to_owned();
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--out" => out = it.next().expect("--out needs a value"),
            other => panic!("unknown flag `{other}`"),
        }
    }
    out
}

/// Cycles of running `front` over `input` on a fresh machine.
fn front_cycles(device: Device, front: &PatchedFront, g: &Graph, seed: u64) -> u64 {
    let weights = g.random_weights(seed);
    let input = random::tensor_i8(&g.in_shape(), seed ^ 0xF00);
    let mut m = Machine::new(device);
    let flash: Vec<usize> = weights
        .iter()
        .take(front.ops().len())
        .map(|w| {
            let bytes = match w {
                LayerWeights::Pointwise(t)
                | LayerWeights::Depthwise(t)
                | LayerWeights::Conv2d(t) => t.as_bytes(),
                _ => unreachable!("patchable front"),
            };
            m.host_program_flash(&bytes).expect("flash fits")
        })
        .collect();
    run_patched_front(&mut m, front, &input, &flash, &front.stage_distances()).expect("front runs");
    m.counters.cycles
}

fn main() {
    let out_path = parse_out();
    let device = Device::stm32_f411re();
    let budget = device.usable_ram_bytes();
    let models = [
        ("hires-front-stage", zoo::hires_front_stage()),
        ("mbv2-block-unfused", zoo::mbv2_block_unfused()),
        ("wide-expand-chain", zoo::wide_expand_chain()),
        ("demo-linear-net", zoo::demo_linear_net()),
    ];
    let patched_planner = PatchedPlanner::default();
    let fused_planner = VmcuPlanner::new(IbScheme::RowBuffer, VmcuPass::Fuse);

    println!("patched_pipeline: peak demand (bytes) on {device}");
    let mut rows = Vec::new();
    let mut demands = Vec::new();
    for (name, graph) in &models {
        let pplan = patched_planner.patch_plan(graph);
        let patched = pplan.peak_demand_bytes();
        let fused = peak_demand_bytes(&fused_planner, graph);
        let vmcu = peak_demand_bytes(&VmcuPlanner::default(), graph);
        let te = peak_demand_bytes(&TinyEnginePlanner, graph);
        println!(
            "  {name:<22} patched {patched:>7}  fused {fused:>7}  vMCU {vmcu:>7}  TinyEngine {te:>7}  \
             ({}, patched {} 128 KB)",
            if pplan.is_patched() {
                format!("front {} layers @ {}", pplan.front_len, pplan.grid())
            } else {
                "unpatched".to_owned()
            },
            if patched <= budget { "fits" } else { "exceeds" },
        );
        rows.push(Json::Object(vec![
            ("model".into(), Json::str(*name)),
            ("patched_demand_bytes".into(), Json::from(patched)),
            ("fused_demand_bytes".into(), Json::from(fused)),
            ("vmcu_demand_bytes".into(), Json::from(vmcu)),
            ("tinyengine_demand_bytes".into(), Json::from(te)),
            ("is_patched".into(), Json::Bool(pplan.is_patched())),
            ("front_len".into(), Json::from(pplan.front_len)),
            ("grid".into(), Json::str(pplan.grid().to_string())),
            ("halo_overhead".into(), Json::from(pplan.halo_overhead)),
            ("patched_fits_128kb".into(), Json::Bool(patched <= budget)),
            ("fused_fits_128kb".into(), Json::Bool(fused <= budget)),
            ("vmcu_fits_128kb".into(), Json::Bool(vmcu <= budget)),
        ]));
        demands.push((*name, patched, fused));
    }

    // Halo recompute, measured: the patched front vs the same front
    // unpatched (1x1 "grid"), both on the 512 KB device — the unpatched
    // slab cannot fit the 128 KB device, and the cost model must be the
    // same on both sides for the subtraction to isolate the halo.
    let hires = zoo::hires_front_stage();
    let pplan = patched_planner.patch_plan(&hires);
    let front = pplan.front.clone().expect("hires patches");
    let unpatched_front =
        PatchedFront::new(front.ops().to_vec(), PatchGrid { gy: 1, gx: 1 }).expect("1x1 grid");
    let patched_cycles = front_cycles(Device::stm32_f767zi(), &front, &hires, 131);
    let unpatched_cycles = front_cycles(Device::stm32_f767zi(), &unpatched_front, &hires, 131);
    let recompute_cycles = patched_cycles.saturating_sub(unpatched_cycles);
    let recompute_macs = front.patched_macs() - front.unpatched_macs();
    println!(
        "  hires front @ {}: {} cycles patched vs {} unpatched \
         (+{} halo cycles, +{} halo MACs, {:.1}% overhead)",
        front.grid(),
        patched_cycles,
        unpatched_cycles,
        recompute_cycles,
        recompute_macs,
        pplan.halo_overhead * 100.0
    );

    // Bit-exactness of the whole patched model on the small device.
    let weights = hires.random_weights(141);
    let input = random::tensor_i8(&hires.in_shape(), 142);
    let reference = exec::run_reference(&hires, &weights, &input);
    let report = Engine::new(device.clone())
        .planner(PlannerKind::VmcuPatched(IbScheme::RowBuffer))
        .deploy(&hires, &weights)
        .expect("patched hires deploys at 128 KB")
        .session()
        .infer(&input)
        .expect("patched hires runs at 128 KB");
    let bit_exact = &report.output == reference.last().expect("non-empty model");

    let find = |wanted: &str| {
        demands
            .iter()
            .find(|(n, _, _)| *n == wanted)
            .expect("model priced")
    };
    let (_, hires_patched, hires_fused) = *find("hires-front-stage");
    let checks = [
        (
            "hires_deploys_only_patched",
            hires_patched <= budget && hires_fused > budget,
            format!("patched {hires_patched} vs fused {hires_fused}, budget {budget}"),
        ),
        (
            "patched_output_bit_identical",
            bit_exact,
            "patched hires output equals the unpatched reference".to_owned(),
        ),
        (
            "patching_never_raises_demand",
            demands.iter().all(|(_, p, f)| p <= f),
            "patched demand <= fused demand on every model".to_owned(),
        ),
        (
            "halo_overhead_within_cap",
            pplan.halo_overhead <= MAX_HALO_OVERHEAD,
            format!("{:.3} <= {MAX_HALO_OVERHEAD:.2}", pplan.halo_overhead),
        ),
    ];

    let doc = Json::Object(vec![
        ("id".into(), Json::str("patched_pipeline")),
        ("device".into(), Json::str(device.name.clone())),
        ("models".into(), Json::Array(rows)),
        (
            "hires_front_halo".into(),
            Json::Object(vec![
                ("grid".into(), Json::str(front.grid().to_string())),
                ("patched_cycles".into(), Json::from(patched_cycles)),
                ("unpatched_cycles".into(), Json::from(unpatched_cycles)),
                ("recompute_cycles".into(), Json::from(recompute_cycles)),
                ("recompute_macs".into(), Json::from(recompute_macs)),
                ("overhead".into(), Json::from(pplan.halo_overhead)),
            ]),
        ),
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
