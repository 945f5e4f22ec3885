//! # vmcu-bench — the experiment harness
//!
//! Regenerates every table and figure of the vMCU paper's evaluation (§7)
//! plus two ablations, as both human-readable tables and machine-checked
//! *shape criteria*. One binary per job: `all_experiments` runs every
//! experiment, writes `EXPERIMENTS.md` and `results/*.json`, and exits
//! non-zero if any shape check fails; `audit` certifies zoo × planners ×
//! ladder; `fleet_throughput` writes the fleet-serving report and
//! `bench_gate` compares two of them exactly. The unit test
//! `experiments::tests::every_experiment_shape_check_passes` holds the
//! same shape checks in `cargo test`.

pub mod experiments;
pub mod json;
pub mod result;
pub mod table;

use result::ExpResult;
use std::io::Write as _;
use std::path::Path;

/// Writes `EXPERIMENTS.md` from a set of results.
///
/// # Errors
///
/// Returns I/O errors from file creation.
pub fn write_experiments_md(path: &Path, results: &[ExpResult]) -> std::io::Result<()> {
    let mut f = std::fs::File::create(path)?;
    writeln!(
        f,
        "# EXPERIMENTS — paper vs. measured\n\n\
         Auto-generated by `cargo run -p vmcu-bench --release --bin all_experiments`.\n\n\
         Absolute RAM numbers are decimal KB (the paper's unit) and include the\n\
         4 KiB on-device runtime overhead (`Device::runtime_overhead_bytes`).\n\
         Latency and energy come from the simulator's calibrated cost/energy\n\
         models: absolute values are indicative, ratios are the reproduced result.\n"
    )?;
    let passed = results.iter().filter(|r| r.passed()).count();
    writeln!(
        f,
        "**Shape checks: {passed}/{} experiments fully green.**\n",
        results.len()
    )?;
    f.write_all(REPRODUCTION_MAP.as_bytes())?;
    for r in results {
        f.write_all(r.to_markdown().as_bytes())?;
    }
    Ok(())
}

/// The figure/claim → reproduction mapping emitted at the top of
/// `EXPERIMENTS.md`: for every paper claim, the exact command or test
/// that machine-checks it.
const REPRODUCTION_MAP: &str = "\
## Reproduction map — paper claim → command

Every paper table and figure below has its own section in this file,
regenerated by `cargo run -p vmcu-bench --release --bin all_experiments`;
`cargo test -p vmcu-bench every_experiment_shape_check_passes` runs the
same shape checks in the test suite. Every `--test` is a test file under
`tests/` at the repository root.

| Paper figure / claim | Reproduced by | Command |
|---|---|---|
| Table 1 (platform classes) | `table1` section | `cargo run --release --bin all_experiments` |
| Table 2 (module configurations) | `table2` section | `cargo run --release --bin all_experiments` |
| Fig. 1 (motivating footprint gap) | `fig1` section + landmark test | `cargo run --release --bin all_experiments`; `cargo test --test paper_landmarks figure1_motivation` |
| Fig. 7 (single-layer RAM, OOM cases) | `fig7` section + landmark and smoke tests | `cargo run --release --bin all_experiments`; `cargo test --test paper_landmarks figure7_bands_and_oom`; `cargo test --test workspace_smoke` |
| Fig. 8 (energy/latency parity) | `fig8` section | `cargo run --release --bin all_experiments` |
| Fig. 9 (VWW RAM bottleneck 13.9 KB) | `fig9` section + landmark test | `cargo run --release --bin all_experiments`; `cargo test --test paper_landmarks figure9_bottlenecks` |
| Fig. 10 (ImageNet RAM bottleneck 102.7 KB) | `fig10` section + landmark test | `cargo run --release --bin all_experiments`; `cargo test --test paper_landmarks figure10_bottlenecks_and_deployability` |
| Fig. 11/12 (NAS headroom scaling) | `fig11`, `fig12` sections + landmark test | `cargo run --release --bin all_experiments`; `cargo test --test paper_landmarks figure11_12_headroom_positive` |
| Table 3 (latency vs TinyEngine) | `table3` section | `cargo run --release --bin all_experiments` |
| Segment-size / IB-scheme ablations | `ablation-segment-size`, `ablation-ib-scheme` sections | `cargo run --release --bin all_experiments` |
| Every shape check above, in the test suite | `vmcu-bench` unit test | `cargo test -p vmcu-bench every_experiment_shape_check_passes` |
| §5.2 multi-layer case: fused chain peak RAM strictly below layer-at-a-time vMCU, and `wide_expand_chain` fits 128 KB only fused | `vmcu-plan` fusion tests + integration suite | `cargo test -p vmcu-plan fused_peak_is_strictly_below_vmcu_on_the_zoo_chain`; `cargo test -p vmcu-plan wide_chain_only_fits_fused`; `cargo test --test fused_pipeline` |
| §5.2 fused execution is bit-exact vs the reference executor | differential suites | `cargo test --test fused_pipeline --test differential_random_nets` |
| MCUNetV2-style front-stage peak reduction: patch-based execution deploys models whose input exceeds SRAM | `vmcu-plan` patch test + integration suite | `cargo test -p vmcu-plan hires_front_stage_patches_and_fits_128kb`; `cargo test --test patched_pipeline` |
| Patched execution is bit-exact and charges halo recompute honestly | differential suites | `cargo test --test patched_pipeline --test differential_random_nets` |
| Fusion and patching never raise peak demand (zoo chains and random nets) | `vmcu-plan` monotonicity tests | `cargo test -p vmcu-plan fused_demand_never_exceeds_single_layer_vmcu`; `cargo test -p vmcu-plan patched_demand_never_exceeds_fused_on_random_nets` |
| Peak demand per policy on the three zoo chains (`docs/PLANNERS.md`) and `hires_front_stage`'s halo recompute | table-driven test | `cargo test --test patched_pipeline zoo_chain_demands_and_halo_recompute_are_pinned` |
| RAM savings as fleet admission capacity | `fleet_throughput` + serve suite | `cargo run --release --bin fleet_throughput -- --light`; `cargo test --test serve_fleet` |
| RAM savings as online serving capacity: million-request seeded streams, SLO shedding, hot-swap priced at Flash-programming cost (`docs/SERVING.md`) | `fleet_throughput` online rows + online suite | `cargo run --release --bin fleet_throughput -- --online`; `cargo test --test serve_online` |
| Online serving is bit-reproducible across hosts (simulated clocks, libm-free arrival sampling) | `online_bit_reproducible` bench check + determinism tests | `cargo run --release --bin fleet_throughput -- --online`; `cargo test --test serve_online online_runs_are_bit_reproducible` |
| Fleet regression gate (CI): every simulated batch and online number equals the committed baseline | `bench_gate` vs `ci/bench_baseline.json`, host time stripped | `cargo run --release --bin bench_gate -- ci/bench_baseline.json BENCH_fleet.json` |
| Multi-device split: a model that OOMs every single-device policy deploys across 2–8 networked MCUs, bit-exact, every cut-edge transfer priced (`docs/SPLIT.md`) | `split_pipeline` + `split_props` suites + `split_serves_the_oversized_model` bench check | `cargo test --test split_pipeline --test split_props`; `cargo run --release --bin fleet_throughput -- --light` |
| Split execution is bit-exact vs the reference at 2/4/8-way cuts, and bit-identical across processes | differential suite + `bench_gate` (CI runs the fleet bench twice) | `cargo test --test differential_random_nets`; `cargo run --release --bin bench_gate -- BENCH_fleet.json BENCH_fleet_rerun.json` |

";

/// Writes one experiment's JSON next to the markdown (for downstream
/// tooling).
///
/// # Errors
///
/// Returns I/O errors from directory creation or the write.
pub fn write_json(dir: &Path, exp: &ExpResult) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{}.json", exp.id));
    std::fs::write(path, exp.to_json_pretty())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::result::Check;
    use crate::table::Table;

    fn tiny() -> ExpResult {
        ExpResult {
            id: "t".into(),
            title: "t".into(),
            paper_claim: "c".into(),
            table: Table::new(&["a"]),
            checks: vec![Check::new("x", true, "d")],
            notes: vec![],
        }
    }

    #[test]
    fn markdown_and_json_write() {
        let dir = std::env::temp_dir().join("vmcu-bench-test");
        std::fs::create_dir_all(&dir).unwrap();
        let md = dir.join("EXPERIMENTS.md");
        write_experiments_md(&md, &[tiny()]).unwrap();
        let text = std::fs::read_to_string(&md).unwrap();
        assert!(text.contains("## t"));
        assert!(
            text.contains("## Reproduction map"),
            "the claim→command map must precede the results"
        );
        write_json(&dir, &tiny()).unwrap();
        let json = std::fs::read_to_string(dir.join("t.json")).unwrap();
        assert!(json.contains("\"passed\": true"));
    }
}
