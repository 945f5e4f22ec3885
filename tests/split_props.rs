//! Property tests for the multi-device split partitioner: for random
//! linear nets and any device count, the partition is a true partition
//! (every layer in exactly one stage, in order), every stage respects
//! its own fused pricing, the transferred bytes are exactly the
//! cut-edge tensor sizes, and splitting never needs more RAM per device
//! than running the whole model on one device under vMCU. An oracle
//! partitioner that fuses every candidate sub-graph from scratch pins
//! `plan_split`'s memoized pricing to the same plan, stage for stage.

use proptest::prelude::*;
use vmcu::vmcu_graph::{zoo, Graph};
use vmcu::vmcu_kernels::IbScheme;
use vmcu::vmcu_plan::{
    fuse_graph, peak_demand_bytes, plan_split, SplitStage, VmcuPass, VmcuPlanner,
};

const SCHEMES: [IbScheme; 3] = [
    IbScheme::RowBuffer,
    IbScheme::PixelWindow,
    IbScheme::SlidingWindow,
];

/// Layers `[start, end)` of a chain as a graph of their own.
fn subgraph(g: &Graph, start: usize, end: usize) -> Graph {
    Graph::linear(
        format!("{}[{start}..{end}]", g.name),
        g.layers()[start..end].to_vec(),
    )
    .unwrap()
}

/// Oracle for `plan_split` on a non-empty chain: the same exact DP
/// (fewest stages, then earliest cuts), with every contiguous range
/// priced by running `fuse_graph` on its own sub-graph.
fn oracle_stages(g: &Graph, devices: u8, scheme: IbScheme) -> Vec<SplitStage> {
    let n = g.len();
    let max_stages = usize::from(devices.clamp(1, 8)).min(n);
    let mut demand = vec![vec![0usize; n + 1]; n];
    for (i, row) in demand.iter_mut().enumerate() {
        for (j, slot) in row.iter_mut().enumerate().skip(i + 1) {
            *slot = fuse_graph(&subgraph(g, i, j), scheme).peak_demand_bytes();
        }
    }
    let mut best = vec![vec![usize::MAX; n + 1]; max_stages + 1];
    let mut cut = vec![vec![0usize; n + 1]; max_stages + 1];
    best[0][0] = 0;
    for k in 1..=max_stages {
        for j in k..=n {
            for i in k - 1..j {
                if best[k - 1][i] == usize::MAX {
                    continue;
                }
                let cand = best[k - 1][i].max(demand[i][j]);
                if cand < best[k][j] {
                    best[k][j] = cand;
                    cut[k][j] = i;
                }
            }
        }
    }
    let mut stage_count = 1;
    for k in 2..=max_stages {
        if best[k][n] < best[stage_count][n] {
            stage_count = k;
        }
    }
    let mut bounds = vec![0usize; stage_count + 1];
    bounds[stage_count] = n;
    for k in (1..=stage_count).rev() {
        bounds[k - 1] = cut[k][bounds[k]];
    }
    (0..stage_count)
        .map(|k| {
            let (start, end) = (bounds[k], bounds[k + 1]);
            let graph = subgraph(g, start, end);
            let fusion = fuse_graph(&graph, scheme);
            SplitStage {
                device: k,
                start,
                end,
                demand_bytes: fusion.peak_demand_bytes(),
                cut_bytes: if k + 1 < stage_count {
                    g.layers()[end - 1].out_bytes()
                } else {
                    0
                },
                graph,
                fusion,
            }
        })
        .collect()
}

#[test]
fn hires_split_only_matches_the_oracle() {
    let g = zoo::hires_split_only();
    for devices in [1u8, 2, 4, 8] {
        let split = plan_split(&g, devices, IbScheme::RowBuffer);
        assert_eq!(
            split.stages(),
            &oracle_stages(&g, devices, IbScheme::RowBuffer)[..],
            "{devices} devices"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn plan_split_equals_the_from_scratch_oracle(
        seed in 0u64..1_000_000,
        layers in 1usize..15,
        devices in 1u8..9,
        scheme in 0usize..3,
    ) {
        let g = zoo::random_linear_net(seed, layers);
        let scheme = SCHEMES[scheme];
        let split = plan_split(&g, devices, scheme);
        prop_assert_eq!(split.stages(), &oracle_stages(&g, devices, scheme)[..]);
    }

    #[test]
    fn every_layer_lands_in_exactly_one_stage(
        seed in 0u64..1_000_000,
        layers in 1usize..14,
        devices in 1u8..9,
    ) {
        let g = zoo::random_linear_net(seed, layers);
        let split = plan_split(&g, devices, IbScheme::RowBuffer);
        // Stages tile [0, n) contiguously, in order, with no overlap
        // and no gap — the partition property.
        let mut next = 0usize;
        for stage in split.stages() {
            prop_assert_eq!(stage.start, next);
            prop_assert!(stage.end > stage.start, "stages must be non-empty");
            next = stage.end;
        }
        prop_assert_eq!(next, g.len());
        prop_assert!(split.device_count() >= 1);
        prop_assert!(
            split.device_count() <= usize::from(devices.clamp(1, 8)).min(g.len()),
            "stage count {} exceeds the device budget",
            split.device_count()
        );
    }

    #[test]
    fn stage_demands_match_their_own_fused_pricing(
        seed in 0u64..1_000_000,
        layers in 1usize..12,
        devices in 2u8..9,
    ) {
        let g = zoo::random_linear_net(seed, layers);
        let split = plan_split(&g, devices, IbScheme::RowBuffer);
        for stage in split.stages() {
            // Each stage's fusion plan is exactly the fusion pass's plan
            // of that stage's sub-graph, node for node in stage-local
            // indices, and its priced demand is that plan's peak — no
            // hidden slack.
            let fused = fuse_graph(&stage.graph, IbScheme::RowBuffer);
            prop_assert_eq!(&stage.fusion.nodes, &fused.nodes);
            prop_assert_eq!(stage.demand_bytes, fused.peak_demand_bytes());
        }
    }

    #[test]
    fn transferred_bytes_are_exactly_the_cut_edge_tensors(
        seed in 0u64..1_000_000,
        layers in 1usize..14,
        devices in 2u8..9,
    ) {
        let g = zoo::random_linear_net(seed, layers);
        let split = plan_split(&g, devices, IbScheme::RowBuffer);
        let stages = split.stages();
        let mut expected = 0usize;
        for (k, stage) in stages.iter().enumerate() {
            if k + 1 < stages.len() {
                // The wire carries the boundary activation: the output
                // tensor of the stage's last layer, nothing more.
                let boundary = g.layers()[stage.end - 1].out_bytes();
                prop_assert_eq!(stage.cut_bytes, boundary);
                expected += boundary;
            } else {
                prop_assert_eq!(stage.cut_bytes, 0);
            }
        }
        prop_assert_eq!(split.transfer_bytes(), expected);
    }

    #[test]
    fn splitting_never_needs_more_ram_per_device_than_single_device_vmcu(
        seed in 0u64..1_000_000,
        layers in 1usize..12,
        devices in 1u8..9,
    ) {
        let g = zoo::random_linear_net(seed, layers);
        let split = plan_split(&g, devices, IbScheme::RowBuffer);
        let single = peak_demand_bytes(
            &VmcuPlanner::new(IbScheme::RowBuffer, VmcuPass::Nodes),
            &g,
        );
        // The partitioner minimizes the max per-device peak; the trivial
        // one-stage partition already fuses the whole graph, which is
        // never worse than unfused single-device vMCU — so the optimum
        // cannot be either.
        prop_assert!(
            split.max_stage_demand_bytes() <= single,
            "split max-stage {} exceeds single-device vMCU peak {}",
            split.max_stage_demand_bytes(),
            single
        );
    }
}
