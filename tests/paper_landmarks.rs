//! The paper's quantitative landmarks, asserted as fast planning-only
//! integration tests. The full tables are `vmcu-bench`'s experiments:
//! `all_experiments` regenerates them, and its unit test
//! `every_experiment_shape_check_passes` runs their shape checks.

use vmcu::prelude::*;
use vmcu::vmcu_graph::zoo;
use vmcu::vmcu_plan::planner::{named_ib_layers, named_pointwise_layers};
use vmcu::vmcu_solver::{enumerate, FootprintProblem};

/// Figure 1(c): 7 segments instead of 10 for the FC example.
#[test]
fn figure1_motivation() {
    let sol = enumerate::solve(&FootprintProblem::gemm(2, 2, 3));
    assert_eq!(sol.footprint, 7);
    assert_eq!(sol.min_distance, 1);
}

/// §7.2 / Figure 7: reduction band 12%-49.5%, OOM cases 1, 2, 4.
#[test]
fn figure7_bands_and_oom() {
    let device = Device::stm32_f411re();
    let layers = named_pointwise_layers(&zoo::fig7_cases());
    let te = TinyEnginePlanner.plan(&layers, &device);
    let vm = VmcuPlanner::default().plan(&layers, &device);
    for (i, (t, v)) in te.layers.iter().zip(&vm.layers).enumerate() {
        let r = 1.0 - v.measured_bytes as f64 / t.measured_bytes as f64;
        assert!(
            (0.10..=0.52).contains(&r),
            "case {}: reduction {r:.3} outside the paper band",
            i + 1
        );
        assert!(v.fits, "vMCU must deploy case {}", i + 1);
    }
    assert!(!te.layers[0].fits && !te.layers[1].fits && !te.layers[3].fits);
    assert!(te.layers[2].fits);
}

/// §7.3 / Figure 9: bottlenecks 36.0 / 48.8 / 13.9 KB, reduction 61.5%.
#[test]
fn figure9_bottlenecks() {
    let device = Device::stm32_f411re();
    let layers = named_ib_layers(&zoo::mcunet_5fps_vww());
    let te = TinyEnginePlanner.plan(&layers, &device).bottleneck_bytes() as f64 / 1000.0;
    let hm = HmcosPlanner.plan(&layers, &device).bottleneck_bytes() as f64 / 1000.0;
    let vm = VmcuPlanner::default()
        .plan(&layers, &device)
        .bottleneck_bytes() as f64
        / 1000.0;
    assert!((32.4..=39.6).contains(&te), "TinyEngine {te:.1} KB");
    assert!((43.9..=53.7).contains(&hm), "HMCOS {hm:.1} KB");
    assert!((11.8..=16.0).contains(&vm), "vMCU {vm:.1} KB");
    let cut = 1.0 - vm / te;
    assert!((0.515..=0.715).contains(&cut), "reduction {cut:.3}");
}

/// §7.3 / Figure 10: TinyEngine bottleneck at B2 with A+B = 247,808 bytes;
/// vMCU ~102.7 KB at B1; only vMCU deploys on the 128 KB device.
#[test]
fn figure10_bottlenecks_and_deployability() {
    let layers = named_ib_layers(&zoo::mcunet_320kb_imagenet());
    let b2 = &zoo::mcunet_320kb_imagenet()[1].params;
    assert_eq!(b2.in_bytes() + b2.mid_bytes(), 247_808);

    let f767 = Device::stm32_f767zi();
    let te = TinyEnginePlanner.plan(&layers, &f767);
    assert_eq!(te.layers[te.bottleneck()].name, "B2");
    let vm = VmcuPlanner::default().plan(&layers, &f767);
    assert_eq!(vm.layers[vm.bottleneck()].name, "B1");
    let cut = 1.0 - vm.bottleneck_bytes() as f64 / te.bottleneck_bytes() as f64;
    assert!((0.486..=0.686).contains(&cut), "reduction {cut:.3}");

    let f411 = Device::stm32_f411re();
    assert!(VmcuPlanner::default().plan(&layers, &f411).deployable());
    assert!(!TinyEnginePlanner.plan(&layers, &f411).deployable());
    assert!(!HmcosPlanner.plan(&layers, &f411).deployable());
}

/// §7.4 / Figures 11-12: headroom above 1.05x for every module.
#[test]
fn figure11_12_headroom_positive() {
    use vmcu::vmcu_plan::headroom::{max_channel_scale, max_image_scale, tinyengine_budget};
    let planner = VmcuPlanner::default();
    for m in zoo::mcunet_5fps_vww() {
        let budget = tinyengine_budget(&m.params);
        assert!(
            max_image_scale(&m.params, &planner, budget) > 1.05,
            "{}",
            m.name
        );
        assert!(
            max_channel_scale(&m.params, &planner, budget) > 1.05,
            "{}",
            m.name
        );
    }
}

/// The single-layer benefit is bounded by 50% (§5.2) — the fused modules
/// are the only way past it.
#[test]
fn single_layer_reduction_bounded_by_half() {
    let device = Device::stm32_f767zi();
    let layers = named_pointwise_layers(&zoo::fig7_cases());
    let te = TinyEnginePlanner.plan(&layers, &device);
    let vm = VmcuPlanner::default().plan(&layers, &device);
    for (t, v) in te.layers.iter().zip(&vm.layers) {
        let r = 1.0 - v.planned_bytes() as f64 / t.planned_bytes() as f64;
        assert!(
            r < 0.52,
            "{}: single-layer reduction {r:.3} breaks the bound",
            t.name
        );
    }
    // Fused modules go beyond 50% (Figure 9's 61.5%): checked in
    // figure9_bottlenecks above via the bottleneck cut.
}
