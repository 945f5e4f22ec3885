//! The TinyEngine-policy planner (tensor-level management, §2.3).
//!
//! Tensors are allocated whole; input and output of a layer may overlap
//! only when the *entire* tensors can (in-place depthwise, in-place add).
//! Convolutions stage one im2col row; the in-place depthwise keeps a ring
//! of `R` original rows. For an inverted bottleneck the peak is taken over
//! the four stages with the residual input pinned for residual modules —
//! this reproduces the paper's landmarks: B2 = A + B = 247.8 KB and
//! S1 ≈ 36 KB on device.

use crate::planner::MemoryPlanner;
use vmcu_graph::LayerDesc;
use vmcu_kernels::tinyengine::dw_stages_whole_input;

/// Tensor-level planner with TinyEngine policies.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TinyEnginePlanner;

/// Rows the in-place depthwise buffers. At stride 1 TinyEngine's template
/// keeps the full `R`-row window of original values (this is what the
/// paper's measured S1/S7 RAM implies). At stride ≥ 2 the output pointer
/// falls behind the input pointer, so only the rows already overwritten
/// but still read — `max(0, pad + 1 − stride)` plus the working row —
/// need copies.
fn dw_ring_rows(r: usize, pad: usize, stride: usize, h: usize) -> usize {
    if stride == 1 {
        r.min(h)
    } else {
        (pad + 2).saturating_sub(stride).max(1).min(h)
    }
}

impl MemoryPlanner for TinyEnginePlanner {
    fn name(&self) -> &'static str {
        "TinyEngine"
    }

    fn plan_layer(&self, layer: &LayerDesc) -> (usize, usize) {
        match layer {
            LayerDesc::Pointwise(p) => {
                // Disjoint in/out + one staged im2col row.
                (p.in_bytes() + p.out_bytes(), p.w * p.c)
            }
            LayerDesc::Conv2d(p) => {
                // Disjoint in/out + im2col patch staging (R·S·C per pixel,
                // double-buffered).
                (p.in_bytes() + p.out_bytes(), 2 * p.r * p.s * p.c)
            }
            LayerDesc::Depthwise(p) => {
                // In-place + ring of R original rows, or of all of them
                // when padding lets the output outrun the staged rows.
                let rows = if dw_stages_whole_input(p) {
                    p.h
                } else {
                    dw_ring_rows(p.r, p.pad, p.stride, p.h)
                };
                (p.in_bytes().max(p.out_bytes()), rows * p.w * p.c)
            }
            LayerDesc::Dense(p) => (p.in_bytes() + p.out_bytes(), 0),
            LayerDesc::Ib(p) => {
                let (a, b, d) = (p.in_bytes(), p.mid_bytes(), p.out_bytes());
                let residual_pin = if p.has_residual() { a } else { 0 };
                // Stage peaks: expand | depthwise (in-place over B, ring)
                // | project (C shares B's allocation) | residual add.
                let im2col1 = p.hw * p.c_in;
                let ring = dw_ring_rows(p.rs, p.pad(), p.s2, p.hw1()) * p.hw1() * p.c_mid;
                let im2col2 = p.hw2() * p.c_mid;
                let expand = a + b + im2col1;
                let dw = residual_pin + b + ring;
                let project = residual_pin + b + d + im2col2;
                let add = if p.has_residual() { a + d } else { 0 };
                let peak = expand.max(dw).max(project).max(add);
                (peak, 0)
            }
            // In-place residual add: output overwrites one operand.
            LayerDesc::Add(p) => (p.in_bytes(), 0),
            // Concat copies into a fresh tensor: all three live.
            LayerDesc::Concat(p) => (p.in_bytes() + p.out_bytes(), 0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::{named_ib_layers, MemoryPlanner};
    use crate::vmcu_planner::VmcuPlanner;
    use vmcu_graph::zoo;
    use vmcu_sim::Device;

    #[test]
    fn imagenet_bottleneck_is_b2_at_247_8_kb() {
        // §7.3: "the bottleneck of TinyEngine is 247.8KB (B2)".
        let device = Device::stm32_f767zi();
        let plan = TinyEnginePlanner.plan(&named_ib_layers(&zoo::mcunet_320kb_imagenet()), &device);
        let b = plan.bottleneck();
        assert_eq!(plan.layers[b].name, "B2");
        let planned_kb = plan.layers[b].planned_bytes() as f64 / 1000.0;
        assert!(
            (247.0..=253.0).contains(&planned_kb),
            "TinyEngine B2 = {planned_kb:.1} KB, expected ~247.8-249"
        );
    }

    #[test]
    fn vww_bottleneck_is_s1_near_36_kb() {
        // Figure 9: TinyEngine bottleneck 36.0 KB at the first module.
        let device = Device::stm32_f411re();
        let plan = TinyEnginePlanner.plan(&named_ib_layers(&zoo::mcunet_5fps_vww()), &device);
        let b = plan.bottleneck();
        assert_eq!(plan.layers[b].name, "S1");
        let kb = plan.bottleneck_bytes() as f64 / 1000.0;
        assert!(
            (33.0..=39.0).contains(&kb),
            "TinyEngine VWW bottleneck {kb:.1} KB out of expected band"
        );
    }

    #[test]
    fn imagenet_does_not_fit_f411re_under_tinyengine() {
        // §7.3: HMCOS and TinyEngine cannot deploy MCUNet-320KB-ImageNet
        // on the 128 KB device; vMCU can.
        let device = Device::stm32_f411re();
        let layers = named_ib_layers(&zoo::mcunet_320kb_imagenet());
        assert!(!TinyEnginePlanner.plan(&layers, &device).deployable());
        assert!(VmcuPlanner::default().plan(&layers, &device).deployable());
    }

    #[test]
    fn vmcu_beats_tinyengine_on_every_module() {
        let device = Device::stm32_f411re();
        for zoo_set in [zoo::mcunet_5fps_vww(), zoo::mcunet_320kb_imagenet()] {
            let layers = named_ib_layers(&zoo_set);
            let te = TinyEnginePlanner.plan(&layers, &device);
            let vm = VmcuPlanner::default().plan(&layers, &device);
            for (t, v) in te.layers.iter().zip(&vm.layers) {
                assert!(
                    v.measured_bytes <= t.measured_bytes,
                    "{}: vMCU {} > TinyEngine {}",
                    t.name,
                    v.measured_bytes,
                    t.measured_bytes
                );
            }
        }
    }
}
