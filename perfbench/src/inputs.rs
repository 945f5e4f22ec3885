//! Seeded workload inputs: models, weights, inputs and deploy lists.
//!
//! Everything here is a pure function of the workload seed, so the same
//! seed gives bit-identical inputs. The program under test only ever sees
//! the generated graphs, weights and input tensors.

use vmcu::prelude::*;
use vmcu::vmcu_graph::zoo;
use vmcu::vmcu_tensor::random;

/// Seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 2024;
/// Seed held back for validating claims: never tune against it.
pub const HELD_OUT_SEED: u64 = 7919;

/// SplitMix64 finalizer: decorrelates derived seeds.
pub fn derive(seed: u64, tag: u64) -> u64 {
    let mut z = seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Where a model comes from; decides how its per-layer numbers are
/// grouped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Group {
    /// Table 3: VWW module S1–S8 (index 0–7).
    Table3(usize),
    /// Figures 7/8: one pointwise case.
    Fig7,
    /// Figures 9/10: one ImageNet module B1–B17.
    Fig9,
    /// A zoo model (fixed or seeded random).
    Zoo,
}

/// One model with its seeded weights and input.
#[derive(Debug, Clone)]
pub struct Model {
    /// The graph.
    pub graph: Graph,
    /// Seeded weights.
    pub weights: Vec<LayerWeights>,
    /// Seeded input tensor.
    pub input: Tensor<i8>,
    /// Provenance.
    pub group: Group,
}

/// One (model, policy, device) deployment to attempt.
#[derive(Debug, Clone)]
pub struct Item {
    /// Index into [`Suite::models`].
    pub model: usize,
    /// Planner/executor policy.
    pub kind: PlannerKind,
    /// Target device.
    pub device: Device,
}

/// Models plus the deployments to attempt on them.
#[derive(Debug, Clone)]
pub struct Suite {
    /// All models.
    pub models: Vec<Model>,
    /// Deploy list.
    pub items: Vec<Item>,
}

/// The seven planner policies, one `PlannerKind` each.
pub fn policies() -> [PlannerKind; 7] {
    [
        PlannerKind::Vmcu(IbScheme::RowBuffer),
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

/// Metric-name slug of a policy (schemes of one policy share a slug).
pub fn policy_slug(kind: PlannerKind) -> &'static str {
    match kind {
        PlannerKind::Vmcu(_) => "vmcu",
        PlannerKind::VmcuFused(_) => "vmcu_fused",
        PlannerKind::VmcuPatched(_) => "vmcu_patched",
        PlannerKind::TinyEngine => "tinyengine",
        PlannerKind::Hmcos => "hmcos",
        PlannerKind::VmcuSplit { .. } => "vmcu_split",
        PlannerKind::VmcuReorder(_) => "vmcu_reorder",
    }
}

fn model(graph: Graph, seed: u64, group: Group) -> Model {
    let weights = graph.random_weights(derive(seed, 1));
    let input = random::tensor_i8(&graph.in_shape(), derive(seed, 2));
    Model {
        graph,
        weights,
        input,
        group,
    }
}

fn single(name: &str, layer: LayerDesc, seed: u64, group: Group) -> Model {
    let graph = Graph::linear(name, vec![layer]).expect("a single layer always chains");
    model(graph, seed, group)
}

/// The zoo: the chain, DAG and fits-only-one-policy models plus one
/// seeded random chain and one seeded random DAG.
pub fn zoo_models(seed: u64) -> Vec<Model> {
    let fixed = [
        zoo::demo_linear_net(),
        zoo::mbv2_block_unfused(),
        zoo::wide_expand_chain(),
        zoo::hires_front_stage(),
        zoo::hires_split_only(),
        zoo::mbv2_residual_dag(),
        zoo::two_head_net(),
        zoo::branchy_oom_net(),
    ];
    let seeded = [
        zoo::random_linear_net(derive(seed, 10), 6),
        zoo::random_dag_net(derive(seed, 11), 5),
    ];
    fixed
        .into_iter()
        .chain(seeded)
        .enumerate()
        .map(|(i, g)| model(g, derive(seed, 100 + i as u64), Group::Zoo))
        .collect()
}

/// The paper's single-layer modules: Table 3 (S1–S8), Figures 7/8 (nine
/// pointwise cases) and Figures 9/10 (B1–B17).
pub fn paper_models(seed: u64) -> Vec<Model> {
    let mut out = Vec::new();
    for (i, m) in zoo::mcunet_5fps_vww().into_iter().enumerate() {
        let s = derive(seed, 200 + i as u64);
        out.push(single(m.name, LayerDesc::Ib(m.params), s, Group::Table3(i)));
    }
    for (i, c) in zoo::fig7_cases().into_iter().enumerate() {
        let s = derive(seed, 300 + i as u64);
        out.push(single(
            &c.name,
            LayerDesc::Pointwise(c.params),
            s,
            Group::Fig7,
        ));
    }
    for (i, m) in zoo::mcunet_320kb_imagenet().into_iter().enumerate() {
        let s = derive(seed, 400 + i as u64);
        out.push(single(m.name, LayerDesc::Ib(m.params), s, Group::Fig9));
    }
    out
}

/// `compile_sweep`: every zoo model under every policy on every device
/// of the SIMD ladder.
pub fn sweep_suite(seed: u64) -> Suite {
    let models = zoo_models(seed);
    let mut items = Vec::new();
    for device in Device::simd_ladder() {
        for (m, _) in models.iter().enumerate() {
            for kind in policies() {
                items.push(Item {
                    model: m,
                    kind,
                    device: device.clone(),
                });
            }
        }
    }
    Suite { models, items }
}

/// `infer_mix`: the paper modules on their paper devices and policies,
/// plus every zoo model under every policy on the F411RE.
pub fn mix_suite(seed: u64) -> Suite {
    let mut models = paper_models(seed);
    let paper = models.len();
    models.extend(zoo_models(seed));
    let (f411, f767) = (Device::stm32_f411re(), Device::stm32_f767zi());
    let vmcu_rb = PlannerKind::Vmcu(IbScheme::RowBuffer);
    let mut items = Vec::new();
    let mut push = |model: usize, kind: PlannerKind, device: &Device| {
        items.push(Item {
            model,
            kind,
            device: device.clone(),
        });
    };
    for (i, m) in models[..paper].iter().enumerate() {
        match m.group {
            Group::Table3(_) => {
                push(i, PlannerKind::Vmcu(IbScheme::SlidingWindow), &f411);
                push(i, PlannerKind::TinyEngine, &f411);
            }
            Group::Fig7 => {
                for dev in [&f411, &f767] {
                    push(i, vmcu_rb, dev);
                    push(i, PlannerKind::TinyEngine, dev);
                }
            }
            Group::Fig9 => {
                push(i, vmcu_rb, &f767);
                push(i, PlannerKind::TinyEngine, &f767);
            }
            Group::Zoo => unreachable!("paper models are single layers"),
        }
    }
    for i in paper..models.len() {
        for kind in policies() {
            push(i, kind, &f411);
        }
    }
    Suite { models, items }
}

/// Identity of a deployment across suites built from the same seed.
pub fn item_key(suite: &Suite, item: &Item) -> String {
    format!(
        "{}|{:?}|{}",
        suite.models[item.model].graph.name, item.kind, item.device.name
    )
}

/// Span id of a deployment: FNV-1a of its [`item_key`], so every span of
/// one deployment shares it whichever suite it runs in.
pub fn item_id(suite: &Suite, item: &Item) -> u64 {
    item_key(suite, item)
        .bytes()
        .fold(0xCBF2_9CE4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3)
        })
}
