//! The deploy-once/run-many contract, end to end: `Engine::deploy` →
//! `Deployment::session` → `Session::infer` must reproduce pinned
//! fingerprints of every plan row, output and counter for every policy,
//! be repeatable call after call (outputs AND execution counters), and
//! perform zero planning work after deploy — asserted via the
//! `vmcu_plan::telemetry` plan-call counter.

use vmcu::prelude::*;
use vmcu::vmcu_graph::zoo;
use vmcu::vmcu_tensor::random;

fn all_kinds() -> [PlannerKind; 5] {
    [
        PlannerKind::Vmcu(IbScheme::RowBuffer),
        PlannerKind::VmcuFused(IbScheme::RowBuffer),
        PlannerKind::VmcuPatched(IbScheme::RowBuffer),
        PlannerKind::TinyEngine,
        PlannerKind::Hmcos,
    ]
}

/// `(model, device, policies that deploy it)` — including the zoo models
/// that exist precisely because only one policy admits them.
fn matrix() -> Vec<(Graph, Device, Vec<PlannerKind>)> {
    vec![
        (
            zoo::demo_linear_net(),
            Device::stm32_f767zi(),
            all_kinds().to_vec(),
        ),
        (
            zoo::mbv2_block_unfused(),
            Device::stm32_f411re(),
            vec![
                PlannerKind::Vmcu(IbScheme::RowBuffer),
                PlannerKind::VmcuFused(IbScheme::RowBuffer),
                PlannerKind::VmcuPatched(IbScheme::RowBuffer),
            ],
        ),
        (
            zoo::wide_expand_chain(),
            Device::stm32_f411re(),
            vec![
                PlannerKind::VmcuFused(IbScheme::RowBuffer),
                PlannerKind::VmcuPatched(IbScheme::RowBuffer),
            ],
        ),
        (
            zoo::hires_front_stage(),
            Device::stm32_f411re(),
            vec![PlannerKind::VmcuPatched(IbScheme::RowBuffer)],
        ),
    ]
}

/// FNV-1a (64-bit) over everything a deployment reports.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    fn str(&mut self, s: &str) {
        self.usize(s.len());
        self.bytes(s.as_bytes());
    }

    fn row(&mut self, row: &vmcu::vmcu_plan::LayerPlan) {
        self.str(&row.name);
        self.str(row.kind);
        self.usize(row.activation_bytes);
        self.usize(row.workspace_bytes);
        self.usize(row.measured_bytes);
        self.u64(u64::from(row.fits));
    }

    fn report(&mut self, report: &InferenceReport) {
        self.bytes(&report.output.as_bytes());
        self.usize(report.layers.len());
        for layer in &report.layers {
            self.str(&layer.name);
            self.row(&layer.plan);
            let c = &layer.exec.counters;
            for v in [
                c.cycles,
                c.macs,
                c.ram_read_bytes,
                c.ram_write_bytes,
                c.flash_read_bytes,
                c.modulo_ops,
                c.branches,
            ] {
                self.u64(v);
            }
            self.u64(layer.exec.latency_ms.to_bits());
            self.u64(layer.exec.energy_mj.to_bits());
        }
        self.u64(report.latency_ms().to_bits());
        self.u64(report.energy_mj().to_bits());
        self.usize(report.peak_ram_bytes());
    }
}

/// The seven policies, named for the golden table.
fn golden_kinds() -> [(&'static str, PlannerKind); 7] {
    [
        ("vmcu", PlannerKind::Vmcu(IbScheme::RowBuffer)),
        ("fused", PlannerKind::VmcuFused(IbScheme::RowBuffer)),
        ("patched", PlannerKind::VmcuPatched(IbScheme::RowBuffer)),
        ("tinyengine", PlannerKind::TinyEngine),
        ("hmcos", PlannerKind::Hmcos),
        (
            "split",
            PlannerKind::VmcuSplit {
                devices: 4,
                scheme: IbScheme::RowBuffer,
            },
        ),
        ("reorder", PlannerKind::VmcuReorder(IbScheme::RowBuffer)),
    ]
}

/// The ten zoo models the repository benchmark deploys: eight fixed
/// models plus one seeded random chain and one seeded random DAG.
fn golden_models() -> Vec<(&'static str, Graph)> {
    vec![
        ("demo-linear", zoo::demo_linear_net()),
        ("mbv2-block-unfused", zoo::mbv2_block_unfused()),
        ("wide-expand-chain", zoo::wide_expand_chain()),
        ("hires-front-stage", zoo::hires_front_stage()),
        ("hires-split-only", zoo::hires_split_only()),
        ("mbv2-residual-dag", zoo::mbv2_residual_dag()),
        ("two-head-net", zoo::two_head_net()),
        ("branchy-oom-net", zoo::branchy_oom_net()),
        ("random-linear", zoo::random_linear_net(0x601D, 6)),
        ("random-dag", zoo::random_dag_net(0x601E, 5)),
    ]
}

/// Fingerprint of one (model, policy, device) deployment: the deploy
/// verdict, every memory-plan row, and one inference's output bytes,
/// per-row plans and counters and latency/energy bits — plus the
/// chained inference and its chain plan when the deployment has one.
fn fingerprint(g: &Graph, kind: PlannerKind, device: &Device) -> u64 {
    let weights = g.random_weights(0x601D_0001);
    let input = random::tensor_i8(&g.in_shape(), 0x601D_0002);
    let mut h = Fnv::new();
    let dep = match Engine::new(device.clone())
        .planner(kind)
        .deploy(g, &weights)
    {
        Ok(dep) => dep,
        Err(e) => {
            h.str(&e.to_string());
            return h.0;
        }
    };
    h.str(dep.plan().planner);
    h.usize(dep.plan().layers.len());
    for row in &dep.plan().layers {
        h.row(row);
    }
    h.usize(dep.peak_demand_bytes());
    let mut session = dep.session();
    match session.infer(&input) {
        Ok(report) => h.report(&report),
        Err(e) => h.str(&e.to_string()),
    }
    if dep.chain_plan().is_some() {
        match session.infer_chained(&input) {
            Ok((report, chain)) => {
                h.report(&report);
                h.usize(chain.window);
                h.usize(chain.workspace);
                h.usize(chain.peak_layer);
                for (&b, &d) in chain.bases.iter().zip(&chain.distances) {
                    h.u64(b as u64);
                    h.u64(d as u64);
                }
            }
            Err(e) => h.str(&e.to_string()),
        }
    }
    h.0
}

/// Pinned fingerprints: `(model, policy, device, fnv1a)`. Generated once
/// and never regenerated: a mismatch is a behaviour change in deploy,
/// planning or execution, not a table to refresh.
#[rustfmt::skip]
const GOLDEN: &[(&str, &str, &str, u64)] = &[
    ("demo-linear", "vmcu", "STM32-F411RE", 0xf5c389692ecdfca1),
    ("demo-linear", "fused", "STM32-F411RE", 0xf22cabbc07b57e54),
    ("demo-linear", "patched", "STM32-F411RE", 0x7d6dcd40d30a5282),
    ("demo-linear", "tinyengine", "STM32-F411RE", 0x873ae947396d0046),
    ("demo-linear", "hmcos", "STM32-F411RE", 0xe3b780259ff585c7),
    ("demo-linear", "split", "STM32-F411RE", 0x37ed355cab8aa001),
    ("demo-linear", "reorder", "STM32-F411RE", 0x077c91ec86907156),
    ("mbv2-block-unfused", "vmcu", "STM32-F411RE", 0x7052c2ab8db7707d),
    ("mbv2-block-unfused", "fused", "STM32-F411RE", 0x079c48ef16351807),
    ("mbv2-block-unfused", "patched", "STM32-F411RE", 0x46ceca6d0f6ac4c9),
    ("mbv2-block-unfused", "tinyengine", "STM32-F411RE", 0xac636fa97eff78d4),
    ("mbv2-block-unfused", "hmcos", "STM32-F411RE", 0x3176e0f3a3509175),
    ("mbv2-block-unfused", "split", "STM32-F411RE", 0x4dedf924d1f00ee2),
    ("mbv2-block-unfused", "reorder", "STM32-F411RE", 0x59e1dadfb39c1e82),
    ("wide-expand-chain", "vmcu", "STM32-F411RE", 0xb747b91d525dee6b),
    ("wide-expand-chain", "fused", "STM32-F411RE", 0x7502f94145279a26),
    ("wide-expand-chain", "patched", "STM32-F411RE", 0x9904889e04640111),
    ("wide-expand-chain", "tinyengine", "STM32-F411RE", 0xd7fea90524f9717f),
    ("wide-expand-chain", "hmcos", "STM32-F411RE", 0x6888323dffe3f9f5),
    ("wide-expand-chain", "split", "STM32-F411RE", 0x095e906fc5229507),
    ("wide-expand-chain", "reorder", "STM32-F411RE", 0xb747b91d525dee6b),
    ("hires-front-stage", "vmcu", "STM32-F411RE", 0x5d747d8acd9b2ef1),
    ("hires-front-stage", "fused", "STM32-F411RE", 0x5d747d8acd9b2ef1),
    ("hires-front-stage", "patched", "STM32-F411RE", 0xdf48ed4af3010f56),
    ("hires-front-stage", "tinyengine", "STM32-F411RE", 0xfde21dbfea6a82c3),
    ("hires-front-stage", "hmcos", "STM32-F411RE", 0xf4a711fa6f6d7874),
    ("hires-front-stage", "split", "STM32-F411RE", 0xb7c6f8fa442158ed),
    ("hires-front-stage", "reorder", "STM32-F411RE", 0x5d747d8acd9b2ef1),
    ("hires-split-only", "vmcu", "STM32-F411RE", 0xb2f48e1d616d96e2),
    ("hires-split-only", "fused", "STM32-F411RE", 0xddac876a71f9203f),
    ("hires-split-only", "patched", "STM32-F411RE", 0xddac876a71f9203f),
    ("hires-split-only", "tinyengine", "STM32-F411RE", 0x23663a13aaa325b0),
    ("hires-split-only", "hmcos", "STM32-F411RE", 0x9ccfabc99b88af30),
    ("hires-split-only", "split", "STM32-F411RE", 0x5c85e27b00ed6d80),
    ("hires-split-only", "reorder", "STM32-F411RE", 0xb2f48e1d616d96e2),
    ("mbv2-residual-dag", "vmcu", "STM32-F411RE", 0x7bca1670ecc943c8),
    ("mbv2-residual-dag", "fused", "STM32-F411RE", 0x735efcc9f8a64380),
    ("mbv2-residual-dag", "patched", "STM32-F411RE", 0xbbd23bc88133f5fe),
    ("mbv2-residual-dag", "tinyengine", "STM32-F411RE", 0x0a0f9d0929ef5dd7),
    ("mbv2-residual-dag", "hmcos", "STM32-F411RE", 0x16ee8e5b4489596e),
    ("mbv2-residual-dag", "split", "STM32-F411RE", 0x0a60aae14192362b),
    ("mbv2-residual-dag", "reorder", "STM32-F411RE", 0x64e8b8f9e9ef87a2),
    ("two-head-net", "vmcu", "STM32-F411RE", 0x6edcb67ea43be72a),
    ("two-head-net", "fused", "STM32-F411RE", 0xee1c45994208c6e2),
    ("two-head-net", "patched", "STM32-F411RE", 0x29e55eca46934634),
    ("two-head-net", "tinyengine", "STM32-F411RE", 0x7969863b7bc4801a),
    ("two-head-net", "hmcos", "STM32-F411RE", 0xf6982c832e00b839),
    ("two-head-net", "split", "STM32-F411RE", 0x2935ee83d4a88887),
    ("two-head-net", "reorder", "STM32-F411RE", 0x5590072c7e1fb8a8),
    ("branchy-oom-net", "vmcu", "STM32-F411RE", 0x5192e79ebdb88b5b),
    ("branchy-oom-net", "fused", "STM32-F411RE", 0x5192e79ebdb88b5b),
    ("branchy-oom-net", "patched", "STM32-F411RE", 0x5192e79ebdb88b5b),
    ("branchy-oom-net", "tinyengine", "STM32-F411RE", 0x7b88afb885fb6221),
    ("branchy-oom-net", "hmcos", "STM32-F411RE", 0x7b88afb885fb6221),
    ("branchy-oom-net", "split", "STM32-F411RE", 0x5192e79ebdb88b5b),
    ("branchy-oom-net", "reorder", "STM32-F411RE", 0x2aea51701c2575e7),
    ("random-linear", "vmcu", "STM32-F411RE", 0xe715c3a339ae6c52),
    ("random-linear", "fused", "STM32-F411RE", 0xbedadeba8bff9e95),
    ("random-linear", "patched", "STM32-F411RE", 0xcf7daf120bd5a72f),
    ("random-linear", "tinyengine", "STM32-F411RE", 0x69dff7f17cdd41c7),
    ("random-linear", "hmcos", "STM32-F411RE", 0x36961d63686449ea),
    ("random-linear", "split", "STM32-F411RE", 0x719f5a4bf0e27bce),
    ("random-linear", "reorder", "STM32-F411RE", 0xf8c78ed83960bddb),
    ("random-dag", "vmcu", "STM32-F411RE", 0xa396ef4b12537d1b),
    ("random-dag", "fused", "STM32-F411RE", 0x3db7074467bdfd03),
    ("random-dag", "patched", "STM32-F411RE", 0x0a698331d30f6fa9),
    ("random-dag", "tinyengine", "STM32-F411RE", 0x09c95e59470dd683),
    ("random-dag", "hmcos", "STM32-F411RE", 0x9c3a4705aa8a3444),
    ("random-dag", "split", "STM32-F411RE", 0x57ced94215b17926),
    ("random-dag", "reorder", "STM32-F411RE", 0x78ecf9ab77e61db5),
    ("demo-linear", "vmcu", "STM32-F767ZI", 0xd52b57de8bd8ca0d),
    ("demo-linear", "fused", "STM32-F767ZI", 0x4518d85b4cfef0e9),
    ("demo-linear", "patched", "STM32-F767ZI", 0x860763ce01394e27),
    ("demo-linear", "tinyengine", "STM32-F767ZI", 0x31ba4ef6773a7672),
    ("demo-linear", "hmcos", "STM32-F767ZI", 0x152a3e244dbef00f),
    ("demo-linear", "split", "STM32-F767ZI", 0xac66b3ca64b78d2c),
    ("demo-linear", "reorder", "STM32-F767ZI", 0x573fd38631d6f0f3),
    ("mbv2-block-unfused", "vmcu", "STM32-F767ZI", 0x506658001c8d1fcd),
    ("mbv2-block-unfused", "fused", "STM32-F767ZI", 0x17e8a2d426ea29f2),
    ("mbv2-block-unfused", "patched", "STM32-F767ZI", 0xe69ddf4e817d8c60),
    ("mbv2-block-unfused", "tinyengine", "STM32-F767ZI", 0x72e2c8afb1a2dd62),
    ("mbv2-block-unfused", "hmcos", "STM32-F767ZI", 0x94d17743af97e0ab),
    ("mbv2-block-unfused", "split", "STM32-F767ZI", 0x9368b5e582fd1f6f),
    ("mbv2-block-unfused", "reorder", "STM32-F767ZI", 0x55fad49915d90870),
    ("wide-expand-chain", "vmcu", "STM32-F767ZI", 0xeeda5f3d201b1e99),
    ("wide-expand-chain", "fused", "STM32-F767ZI", 0x749e8165db14741d),
    ("wide-expand-chain", "patched", "STM32-F767ZI", 0xf21d7bd422bc6882),
    ("wide-expand-chain", "tinyengine", "STM32-F767ZI", 0x694ec081f5027bd2),
    ("wide-expand-chain", "hmcos", "STM32-F767ZI", 0x9b5f48af7fc4815f),
    ("wide-expand-chain", "split", "STM32-F767ZI", 0x76d721ec3d2d3274),
    ("wide-expand-chain", "reorder", "STM32-F767ZI", 0x0c47dc9ff2513c66),
    ("hires-front-stage", "vmcu", "STM32-F767ZI", 0xaf026397372251fc),
    ("hires-front-stage", "fused", "STM32-F767ZI", 0xcd34a86ebc7d56e2),
    ("hires-front-stage", "patched", "STM32-F767ZI", 0xd4cdc8028dba2d71),
    ("hires-front-stage", "tinyengine", "STM32-F767ZI", 0x88193aca05fa7f31),
    ("hires-front-stage", "hmcos", "STM32-F767ZI", 0x92c4b6e997bf13f6),
    ("hires-front-stage", "split", "STM32-F767ZI", 0x88262c5b0bdd7ef7),
    ("hires-front-stage", "reorder", "STM32-F767ZI", 0x89375d10d1aaaa5e),
    ("hires-split-only", "vmcu", "STM32-F767ZI", 0x5028dfde98d5ef23),
    ("hires-split-only", "fused", "STM32-F767ZI", 0x0aabf6d05cfaed72),
    ("hires-split-only", "patched", "STM32-F767ZI", 0x591be48b406cea54),
    ("hires-split-only", "tinyengine", "STM32-F767ZI", 0xa772edf1e40589e7),
    ("hires-split-only", "hmcos", "STM32-F767ZI", 0x419c708b872ecfe4),
    ("hires-split-only", "split", "STM32-F767ZI", 0x25b4f0f20c571244),
    ("hires-split-only", "reorder", "STM32-F767ZI", 0x9102844e2c6978fe),
    ("mbv2-residual-dag", "vmcu", "STM32-F767ZI", 0x299df21906da5b96),
    ("mbv2-residual-dag", "fused", "STM32-F767ZI", 0xa194b36456f0e70e),
    ("mbv2-residual-dag", "patched", "STM32-F767ZI", 0xaf8b3411f2a6c654),
    ("mbv2-residual-dag", "tinyengine", "STM32-F767ZI", 0x241f7eaa129c374e),
    ("mbv2-residual-dag", "hmcos", "STM32-F767ZI", 0x4c8b8cfe58cfcf07),
    ("mbv2-residual-dag", "split", "STM32-F767ZI", 0x5a16be46fdbd194d),
    ("mbv2-residual-dag", "reorder", "STM32-F767ZI", 0x16614ef9cc24b710),
    ("two-head-net", "vmcu", "STM32-F767ZI", 0xbed38a42c35563c0),
    ("two-head-net", "fused", "STM32-F767ZI", 0xdd536d0e70dde288),
    ("two-head-net", "patched", "STM32-F767ZI", 0xbacbcf800a5cab52),
    ("two-head-net", "tinyengine", "STM32-F767ZI", 0x75ff7e16dcf9a8bf),
    ("two-head-net", "hmcos", "STM32-F767ZI", 0x40c6c1da01c77c68),
    ("two-head-net", "split", "STM32-F767ZI", 0x06deccd6ccde9bc9),
    ("two-head-net", "reorder", "STM32-F767ZI", 0xb52d5caba69e9706),
    ("branchy-oom-net", "vmcu", "STM32-F767ZI", 0x3d559efef84b47d8),
    ("branchy-oom-net", "fused", "STM32-F767ZI", 0x5fc8598c178700f0),
    ("branchy-oom-net", "patched", "STM32-F767ZI", 0xe48108d525345c3a),
    ("branchy-oom-net", "tinyengine", "STM32-F767ZI", 0x636a6ed9949757d7),
    ("branchy-oom-net", "hmcos", "STM32-F767ZI", 0x62ec2a0cd3d93eec),
    ("branchy-oom-net", "split", "STM32-F767ZI", 0xa32da290b361205d),
    ("branchy-oom-net", "reorder", "STM32-F767ZI", 0x3424cf09c4091ee6),
    ("random-linear", "vmcu", "STM32-F767ZI", 0x11f49a8ff8f973a0),
    ("random-linear", "fused", "STM32-F767ZI", 0xc2334fd82f9ac940),
    ("random-linear", "patched", "STM32-F767ZI", 0xfe427edb0681e0be),
    ("random-linear", "tinyengine", "STM32-F767ZI", 0x2b1dc8e1c2fe5884),
    ("random-linear", "hmcos", "STM32-F767ZI", 0xb24b570173af6625),
    ("random-linear", "split", "STM32-F767ZI", 0x7ee9a0281539c1e3),
    ("random-linear", "reorder", "STM32-F767ZI", 0xe7b147d709b349d2),
    ("random-dag", "vmcu", "STM32-F767ZI", 0x8e9806c4f177e1e5),
    ("random-dag", "fused", "STM32-F767ZI", 0x515b4a56679cc13d),
    ("random-dag", "patched", "STM32-F767ZI", 0x59ff6d9f518f5e0f),
    ("random-dag", "tinyengine", "STM32-F767ZI", 0x7cfdae2b81f67502),
    ("random-dag", "hmcos", "STM32-F767ZI", 0x99d2f1f6940895d1),
    ("random-dag", "split", "STM32-F767ZI", 0x97c4d89b5f11021c),
    ("random-dag", "reorder", "STM32-F767ZI", 0x94a8b6a872bb2463),
];

#[test]
fn golden_fingerprints_pin_every_policy_on_the_benchmark_zoo() {
    let mut actual = Vec::new();
    for device in [Device::stm32_f411re(), Device::stm32_f767zi()] {
        for (model, g) in golden_models() {
            for (name, kind) in golden_kinds() {
                actual.push((
                    model,
                    name,
                    device.name.clone(),
                    fingerprint(&g, kind, &device),
                ));
            }
        }
    }
    let table: String = actual
        .iter()
        .map(|(m, k, d, h)| format!("    (\"{m}\", \"{k}\", \"{d}\", 0x{h:016x}),\n"))
        .collect();
    assert_eq!(
        actual.len(),
        GOLDEN.len(),
        "golden table size; actual:\n{table}"
    );
    let drifted: Vec<String> = actual
        .iter()
        .zip(GOLDEN)
        .filter(|((m, k, d, h), (gm, gk, gd, gh))| (*m, *k, d.as_str(), *h) != (*gm, *gk, *gd, *gh))
        .map(|((m, k, d, h), (_, _, _, gh))| {
            format!("{m}/{k}/{d}: 0x{h:016x} != pinned 0x{gh:016x}")
        })
        .collect();
    assert!(
        drifted.is_empty(),
        "behaviour drifted:\n{}",
        drifted.join("\n")
    );
}

#[test]
fn repeated_infer_on_one_session_is_bit_identical_including_counters() {
    for (g, device, kinds) in matrix() {
        let weights = g.random_weights(0x5E55);
        let input = random::tensor_i8(&g.in_shape(), 0x10);
        for kind in kinds {
            let mut session = Engine::new(device.clone())
                .planner(kind)
                .deploy(&g, &weights)
                .unwrap()
                .session();
            let first = session.infer(&input).unwrap();
            let second = session.infer(&input).unwrap();
            assert_eq!(first.output, second.output, "{}/{kind:?}", g.name);
            for (a, b) in first.layers.iter().zip(&second.layers) {
                assert_eq!(
                    a.exec.counters, b.exec.counters,
                    "{}/{kind:?}/{}: the machine reset must not leak state \
                     between inferences",
                    g.name, a.name
                );
                assert_eq!(a.plan, b.plan);
            }
            assert_eq!(session.inferences(), 2);
        }
    }
}

#[test]
fn session_infer_performs_zero_planning_after_deploy() {
    // The acceptance criterion, per policy: every plan artifact is
    // memoized at deploy time; `infer` must not add a single planning
    // pass (the counter is thread-local, so concurrent tests cannot
    // interfere).
    let g = zoo::demo_linear_net();
    let weights = g.random_weights(0xAB5);
    let input = random::tensor_i8(&g.in_shape(), 2);
    for kind in all_kinds() {
        let mut session = Engine::new(Device::stm32_f767zi())
            .planner(kind)
            .deploy(&g, &weights)
            .unwrap()
            .session();
        let before = vmcu::vmcu_plan::telemetry::plan_calls();
        session.infer(&input).unwrap();
        session.infer(&input).unwrap();
        session.infer(&input).unwrap();
        assert_eq!(
            vmcu::vmcu_plan::telemetry::plan_calls(),
            before,
            "{kind:?}: infer must do zero planning work after deploy"
        );
    }
    // The chained mode executes the memoized chain plan too.
    let mut session = Engine::new(Device::stm32_f767zi())
        .deploy(&g, &weights)
        .unwrap()
        .session();
    let before = vmcu::vmcu_plan::telemetry::plan_calls();
    session.infer_chained(&input).unwrap();
    session.infer_chained(&input).unwrap();
    assert_eq!(vmcu::vmcu_plan::telemetry::plan_calls(), before);
}

#[test]
fn chained_session_matches_the_legacy_chained_path() {
    // The chained path deploys without the per-layer fit gate
    // (`deploy_unchecked`: the chain validates its own, smaller window);
    // a checked deployment must chain bit-identically.
    let g = zoo::demo_linear_net();
    let weights = g.random_weights(0xC4A1);
    let input = random::tensor_i8(&g.in_shape(), 0xC4A2);
    let engine = Engine::new(Device::stm32_f411re());
    let (unchecked, unchecked_plan) = engine
        .deploy_unchecked(&g, &weights)
        .unwrap()
        .session()
        .infer_chained(&input)
        .unwrap();
    let deployment = engine.deploy(&g, &weights).unwrap();
    let mut session = deployment.session();
    let (new, plan) = session.infer_chained(&input).unwrap();
    assert_eq!(unchecked.output, new.output);
    assert_eq!(unchecked_plan, plan);
    assert_eq!(unchecked.latency_ms(), new.latency_ms());
    // And a second chained inference repeats exactly.
    let (again, _) = session.infer_chained(&input).unwrap();
    assert_eq!(new.output, again.output);
    assert_eq!(new.latency_ms(), again.latency_ms());
}

#[test]
fn one_deployment_serves_many_sessions() {
    // The fleet pattern: one shared deployment, one session per device.
    let g = zoo::mbv2_block_unfused();
    let weights = g.random_weights(0xF1EE);
    let deployment = Engine::new(Device::stm32_f411re())
        .planner(PlannerKind::VmcuFused(IbScheme::RowBuffer))
        .deploy(&g, &weights)
        .unwrap();
    let shared = deployment.clone(); // Arc-backed: cloning shares the plans
    let input = random::tensor_i8(&g.in_shape(), 0xAB);
    let mut outputs = Vec::new();
    for _device in 0..3 {
        let mut session = shared.session();
        outputs.push(session.infer(&input).unwrap().output.clone());
    }
    assert!(outputs.windows(2).all(|w| w[0] == w[1]));
}

#[test]
fn deploy_rejects_what_the_planner_rejects() {
    // The deploy path carries the same typed fails-to-run outcome the
    // paper reports — and it matches `check_fit` exactly.
    let g = zoo::hires_front_stage();
    let weights = g.random_weights(1);
    let dev = Device::stm32_f411re();
    for kind in [
        PlannerKind::Vmcu(IbScheme::RowBuffer),
        PlannerKind::VmcuFused(IbScheme::RowBuffer),
        PlannerKind::TinyEngine,
        PlannerKind::Hmcos,
    ] {
        let engine = Engine::new(dev.clone()).planner(kind);
        let deploy_err = engine.deploy(&g, &weights).unwrap_err();
        let fit_err = engine.check_fit(&g).unwrap_err();
        match (deploy_err, fit_err) {
            (
                EngineError::DoesNotFit {
                    layer: a,
                    needed: na,
                    ..
                },
                EngineError::DoesNotFit {
                    layer: b,
                    needed: nb,
                    ..
                },
            ) => {
                assert_eq!(a, b, "{kind:?}");
                assert_eq!(na, nb, "{kind:?}");
            }
            other => panic!("{kind:?}: expected DoesNotFit twice, got {other:?}"),
        }
    }
}
