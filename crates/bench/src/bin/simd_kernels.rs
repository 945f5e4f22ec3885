//! SIMD-aware kernel benchmark: scalar vs vectorized cycles/MAC across
//! the device capability ladder, plus host-side ns/MAC.
//!
//! Three measurements per device of `Device::simd_ladder()`:
//!
//! * **dot microbenchmark** — the lane-blocked `dot_tile_lanes` GEMM
//!   micro-kernel priced at `lanes_used = 1` (the scalar lowering a
//!   capability-unaware compiler emits) and at the device's native width;
//!   reported as simulated cycles/MAC and the scalar/vectorized ratio;
//! * **conv2d direct cycles** — the segment-aware conv2d kernel on a
//!   representative 3×3 conv;
//! * **host ns/MAC** — wall-clock time of that kernel on this machine,
//!   which is what CI trends to catch host-side slowdowns of the
//!   simulator itself.
//!
//! Emits `BENCH_simd.json`. Exit status is non-zero unless the
//! vectorized GEMM beats scalar by ≥ 1.8× cycles/MAC on both DSP boards
//! (Cortex-M4 and M7).
//!
//! Flags: `--out PATH`.

use std::time::Instant;
use vmcu::vmcu_pool::SegmentPool;
use vmcu_bench::json::Json;
use vmcu_kernels::conv2d::run_conv2d;
use vmcu_kernels::intrinsics::{dot_tile_lanes, widen};
use vmcu_kernels::params::Conv2dParams;
use vmcu_kernels::trace::pool_window;
use vmcu_kernels::ChainOp;
use vmcu_sim::{Device, Machine};
use vmcu_tensor::{random, Requant};

fn parse_out() -> String {
    let mut out = "BENCH_simd.json".to_owned();
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--out" => out = it.next().expect("--out needs a value"),
            other => panic!("unknown flag `{other}`"),
        }
    }
    out
}

/// Simulated cycles/MAC of the GEMM micro-kernel at the given lane count:
/// 64 tiles of ki=64 × ni=8 (32 768 MACs).
fn dot_cycles_per_mac(device: &Device, lanes: u64) -> f64 {
    let mut m = Machine::new(device.clone());
    let a: Vec<u8> = (0..64u32).map(|i| (i * 37 + 11) as u8).collect();
    let b: Vec<u8> = (0..64 * 8u32).map(|i| (i * 91 + 5) as u8).collect();
    let b = widen(&b);
    let mut acc = [0i32; 8];
    for _ in 0..64 {
        dot_tile_lanes(&mut m, &a, &b, 8, &mut acc, true, lanes);
    }
    m.counters.cycles as f64 / m.counters.macs as f64
}

struct ConvRun {
    cycles: u64,
    macs: u64,
    wall_ns: u128,
}

fn conv_workload() -> Conv2dParams {
    Conv2dParams::new(12, 12, 8, 8, 3, 3, 1, 1, Requant::from_scale(1.0 / 64.0, 0))
}

/// Runs the direct conv2d kernel, returning its counters and wall time.
fn run_conv(device: &Device) -> ConvRun {
    let p = conv_workload();
    let mut m = Machine::new(device.clone());
    let input = random::tensor_i8(&[p.h, p.w, p.c], 31);
    let weight = random::tensor_i8(&[p.r, p.s, p.c, p.k], 32);
    let w_base = m.host_program_flash(&weight.as_bytes()).unwrap();
    let dist = ChainOp::Conv2d(p).exec_distance();
    let window = pool_window(p.in_bytes(), p.out_bytes(), dist);
    let mut pool = SegmentPool::new(&m, 0, window).unwrap();
    pool.host_fill_live(&mut m, 0, &input.as_bytes()).unwrap();
    let t0 = Instant::now();
    run_conv2d(&mut m, &mut pool, &p, 0, -dist, w_base).unwrap();
    let wall_ns = t0.elapsed().as_nanos();
    ConvRun {
        cycles: m.counters.cycles,
        macs: m.counters.macs,
        wall_ns,
    }
}

fn main() {
    let out_path = parse_out();
    println!("simd_kernels: scalar vs vectorized across the capability ladder");
    let mut rows = Vec::new();
    let mut dsp_ratios = Vec::new();
    for device in Device::simd_ladder() {
        let lanes = device.cost.simd.lanes;
        let scalar_cpm = dot_cycles_per_mac(&device, 1);
        let vector_cpm = dot_cycles_per_mac(&device, lanes);
        let ratio = scalar_cpm / vector_cpm;

        let direct = run_conv(&device);

        // Host ns/MAC from the fastest of a few direct-kernel repetitions
        // (minimum damps scheduler noise).
        let best_ns = (0..5).map(|_| run_conv(&device).wall_ns).min().unwrap();
        let host_ns_per_mac = best_ns as f64 / direct.macs as f64;

        if matches!(device.cost.simd.lanes, 2) {
            dsp_ratios.push((device.name.clone(), ratio));
        }
        println!(
            "  {:<14} lanes {lanes}  dot {scalar_cpm:.3} -> {vector_cpm:.3} cyc/MAC ({ratio:.2}x)  \
             conv2d direct {} cycles  host {host_ns_per_mac:.1} ns/MAC",
            device.name, direct.cycles
        );
        rows.push(Json::Object(vec![
            ("device".into(), Json::str(device.name.clone())),
            ("core".into(), Json::str(device.core.to_string())),
            ("lanes".into(), Json::from(lanes as usize)),
            ("dot_scalar_cycles_per_mac".into(), Json::from(scalar_cpm)),
            (
                "dot_vectorized_cycles_per_mac".into(),
                Json::from(vector_cpm),
            ),
            ("dot_speedup".into(), Json::from(ratio)),
            (
                "conv2d_direct_cycles".into(),
                Json::from(direct.cycles as usize),
            ),
            ("host_ns_per_mac".into(), Json::from(host_ns_per_mac)),
        ]));
    }

    let min_dsp_ratio = dsp_ratios
        .iter()
        .map(|(_, r)| *r)
        .fold(f64::INFINITY, f64::min);
    let checks = [(
        "dsp_vectorization_beats_1p8x",
        dsp_ratios.len() == 2 && min_dsp_ratio >= 1.8,
        format!(
            "scalar/vectorized cycles per MAC ratio {:.2} on {} DSP boards (need >= 1.80)",
            min_dsp_ratio,
            dsp_ratios.len()
        ),
    )];

    let doc = Json::Object(vec![
        ("id".into(), Json::str("simd_kernels")),
        ("devices".into(), Json::Array(rows)),
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
