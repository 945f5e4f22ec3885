//! Simulated memory against the code it replaced, and observed RAM
//! against the plan.
//!
//! `Ram` keeps a write high-water mark and its `clear` zeroes only the
//! prefix below it; `Engine::deploy` sizes and checks the firmware image
//! by summing `vmcu::exec::weight_images` under `Flash::place` instead of
//! staging it into a throw-away `Machine`. Their contracts are the code
//! they replaced, kept here as oracles: a RAM model that a clear zeroes
//! in full, and `stage_graph` into a real machine with the same Flash.
//! Every read, mark, error and verdict must match. The last group checks
//! the observed peak every report row carries: a vMCU-policy step never
//! writes RAM past its planned bytes. This file is the gate for any edit
//! to `vmcu_sim::memory`, `Deployment`'s image check or the report's
//! observed peak.

use proptest::prelude::*;
use vmcu::exec::{stage_graph, weight_images};
use vmcu::prelude::*;
use vmcu::vmcu_graph::zoo;
use vmcu::vmcu_sim::{Machine, MemError};
use vmcu::vmcu_tensor::random;

// ---- Ram: the write mark against a model that clears in full ------------

/// The RAM a clear zeroes in full, with the bytes written since the last
/// clear kept one `bool` each.
struct RamModel {
    data: Vec<u8>,
    written: Vec<bool>,
}

impl RamModel {
    fn new(capacity: usize) -> Self {
        RamModel {
            data: vec![0; capacity],
            written: vec![false; capacity],
        }
    }

    fn check(&self, addr: usize, len: usize) -> Result<(), MemError> {
        match addr.checked_add(len) {
            Some(end) if end <= self.data.len() => Ok(()),
            _ => Err(MemError::RamOutOfRange {
                addr,
                len,
                capacity: self.data.len(),
            }),
        }
    }

    fn store(&mut self, addr: usize, bytes: &[u8]) {
        self.data[addr..addr + bytes.len()].copy_from_slice(bytes);
        self.written[addr..addr + bytes.len()].fill(true);
    }

    fn write(&mut self, addr: usize, bytes: &[u8]) -> Result<(), MemError> {
        self.check(addr, bytes.len())?;
        self.store(addr, bytes);
        Ok(())
    }

    fn copy(&mut self, src: usize, dst: usize, len: usize) -> Result<(), MemError> {
        self.check(src, len)?;
        self.check(dst, len)?;
        let bytes = self.data[src..src + len].to_vec();
        self.store(dst, &bytes);
        Ok(())
    }

    fn fill(&mut self, addr: usize, len: usize, value: u8) -> Result<(), MemError> {
        self.check(addr, len)?;
        self.store(addr, &vec![value; len]);
        Ok(())
    }

    fn clear(&mut self) {
        self.data.fill(0);
        self.written.fill(false);
    }

    /// One past the last byte written since the last clear.
    fn high_water(&self) -> usize {
        self.written.iter().rposition(|&w| w).map_or(0, |i| i + 1)
    }
}

/// An address for a RAM of `capacity` bytes from a raw draw: mostly in
/// or just past range, and near `usize::MAX` (an overflowing access)
/// above 1000.
fn address(raw: usize, capacity: usize) -> usize {
    if raw > 1000 {
        usize::MAX - (raw - 1001)
    } else {
        raw * (capacity + capacity / 8 + 2) / 1000
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Random writes, copies, fills (in range, past the end and
    /// overflowing), clears and volatile resets on a machine of random
    /// RAM capacity: every byte of RAM and every result matches the
    /// model, the mark is one past the last byte written since the last
    /// clear, a failed access leaves it unchanged, and RAM is all zero
    /// after each clear.
    #[test]
    fn ram_matches_a_model_that_clears_in_full(
        capacity in 1usize..=300,
        ops in prop::collection::vec(
            (0u8..8, 0usize..=1010, 0usize..=1010, 0usize..=1000, 0u8..=255),
            1..=60,
        ),
    ) {
        let device = Device {
            ram_bytes: capacity,
            flash_bytes: 16,
            ..Device::stm32_f411re()
        };
        let mut m = Machine::new(device);
        let mut model = RamModel::new(capacity);
        for (i, &(op, a, b, len, value)) in ops.iter().enumerate() {
            let (addr, src) = (address(a, capacity), address(b, capacity));
            let len = len * (capacity + 4) / 1000;
            let before = m.ram.high_water();
            let (got, want) = match op {
                0 | 1 => {
                    let bytes: Vec<u8> = (0..len).map(|k| (i * 31 + k) as u8 | 1).collect();
                    (m.ram.write(addr, &bytes), model.write(addr, &bytes))
                }
                2 | 3 => (m.ram_copy(src, addr, len), model.copy(src, addr, len)),
                4 | 5 => (m.ram.fill(addr, len, value), model.fill(addr, len, value)),
                6 => {
                    m.ram.clear();
                    model.clear();
                    (Ok(()), Ok(()))
                }
                _ => {
                    m.reset_volatile();
                    model.clear();
                    (Ok(()), Ok(()))
                }
            };
            prop_assert_eq!((i, got), (i, want));
            if got.is_err() {
                prop_assert_eq!((i, m.ram.high_water()), (i, before));
            }
            prop_assert_eq!((i, m.ram.high_water()), (i, model.high_water()));
            prop_assert!(m.ram.read(0, capacity).unwrap() == &model.data[..], "op {}: RAM differs", i);
            if op >= 6 {
                prop_assert_eq!((i, m.ram.high_water()), (i, 0));
                prop_assert!(
                    m.ram.read(0, capacity).unwrap().iter().all(|&b| b == 0),
                    "op {}: RAM not zero after a clear", i
                );
            }
        }
    }
}

// ---- the firmware image: deploy against staging into a real machine -----

/// The ten zoo models the repository benchmark deploys.
fn zoo_models() -> Vec<Graph> {
    vec![
        zoo::demo_linear_net(),
        zoo::mbv2_block_unfused(),
        zoo::wide_expand_chain(),
        zoo::hires_front_stage(),
        zoo::hires_split_only(),
        zoo::mbv2_residual_dag(),
        zoo::two_head_net(),
        zoo::branchy_oom_net(),
        zoo::random_linear_net(0x601D, 6),
        zoo::random_dag_net(0x601E, 5),
    ]
}

/// The seven policies.
fn policies() -> [PlannerKind; 7] {
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

/// `device` with `flash_bytes` of Flash.
fn with_flash(device: &Device, flash_bytes: usize) -> Device {
    Device {
        flash_bytes,
        ..device.clone()
    }
}

/// The oracle: what staging `layers` into a real machine for `device`
/// makes of its Flash — the bytes programmed, or the Flash error.
fn staged(
    device: &Device,
    layers: &[LayerDesc],
    weights: &[LayerWeights],
) -> Result<usize, MemError> {
    let mut m = Machine::new(device.clone());
    match stage_graph(&mut m, layers, weights) {
        Ok(_) => Ok(m.flash.used()),
        Err(EngineError::Mem(e)) => Err(e),
        Err(e) => panic!("zoo weights always stage: {e}"),
    }
}

/// A deploy verdict with the Flash error kept typed and the rest as text.
fn verdict(result: &Result<Deployment, EngineError>) -> Result<(), Result<MemError, String>> {
    match result {
        Ok(_) => Ok(()),
        Err(EngineError::Mem(e)) => Err(Ok(*e)),
        Err(e) => Err(Err(e.to_string())),
    }
}

/// The Flash capacities at which one image stops fitting: one byte
/// short of the image, exactly it and one byte over, plus a cut in the
/// middle of the first inverted bottleneck's depthwise image, with the
/// error each one must raise.
fn cuts(g: &Graph, weights: &[LayerWeights], image: usize) -> Vec<(usize, Option<MemError>)> {
    let last = g
        .layers()
        .iter()
        .zip(weights)
        .flat_map(|(l, w)| weight_images(l, w).unwrap())
        .last()
        .expect("zoo models carry weights")
        .len();
    let mut out = vec![
        (
            image - 1,
            Some(MemError::FlashOutOfRange {
                addr: image - last,
                len: last,
                capacity: image - 1,
            }),
        ),
        (image, None),
        (image + 1, None),
    ];
    if let Some(k) = g
        .layers()
        .iter()
        .position(|l| matches!(l, LayerDesc::Ib(_)))
    {
        let base = staged(&Device::stm32_f767zi(), &g.layers()[..k], &weights[..k]).unwrap();
        let LayerWeights::Ib { w1, wdw, .. } = &weights[k] else {
            panic!("an inverted bottleneck carries three images");
        };
        let capacity = base + w1.len() + wdw.len() / 2;
        out.push((
            capacity,
            Some(MemError::FlashOutOfRange {
                addr: base + w1.len(),
                len: wdw.len(),
                capacity,
            }),
        ));
    }
    out
}

/// Every zoo model × policy × ladder device: a deployment's image is what
/// its session stages, and at every cut Flash capacity `Engine::deploy`
/// gives the verdict and the `FlashOutOfRange` that staging into a real
/// machine with that Flash gives, where the image itself fits exactly.
#[test]
fn deploy_checks_the_image_that_staging_programs() {
    let (mut deployed, mut cut_checks, mut ib_cuts) = (0, 0, 0);
    for g in zoo_models() {
        let weights = g.random_weights(0x5EED);
        let image = staged(&Device::stm32_f767zi(), g.layers(), &weights).unwrap();
        let cuts = cuts(&g, &weights, image);
        ib_cuts += usize::from(cuts.len() == 4);
        for device in Device::simd_ladder() {
            // Every zoo image fits every ladder device's own Flash.
            assert_eq!(staged(&device, g.layers(), &weights), Ok(image));
            for kind in policies() {
                let engine = |d: &Device| Engine::new(d.clone()).planner(kind).deploy(&g, &weights);
                let at_device = engine(&device);
                if let Ok(dep) = &at_device {
                    assert_eq!(dep.image_bytes(), image, "{} {kind:?}", g.name);
                    assert_eq!(dep.image_bytes(), dep.session().staged_flash_bytes());
                    deployed += 1;
                }
                for &(capacity, want) in &cuts {
                    let cut = with_flash(&device, capacity);
                    let oracle = staged(&cut, g.layers(), &weights);
                    assert_eq!(oracle.err(), want, "{} at {capacity} B", g.name);
                    let got = verdict(&engine(&cut));
                    // Where the image fits, only the fit check is left.
                    let expected = want.map_or_else(|| verdict(&at_device), |e| Err(Ok(e)));
                    assert_eq!(
                        got, expected,
                        "{} {kind:?} on {} at {capacity} B",
                        g.name, device.name
                    );
                    cut_checks += 1;
                }
            }
        }
    }
    assert!(deployed >= 200, "only {deployed} deployments");
    assert!(
        ib_cuts >= 4,
        "only {ib_cuts} models cut inside an inverted bottleneck"
    );
    assert!(cut_checks >= 10 * 7 * 4 * 3);
}

// ---- observed RAM against the plan ----------------------------------------

/// Every vMCU policy, `Vmcu` under all three inverted-bottleneck schemes.
fn vmcu_policies() -> [PlannerKind; 7] {
    [
        PlannerKind::Vmcu(IbScheme::RowBuffer),
        PlannerKind::Vmcu(IbScheme::PixelWindow),
        PlannerKind::Vmcu(IbScheme::SlidingWindow),
        PlannerKind::VmcuFused(IbScheme::RowBuffer),
        PlannerKind::VmcuPatched(IbScheme::RowBuffer),
        PlannerKind::VmcuSplit {
            devices: 4,
            scheme: IbScheme::RowBuffer,
        },
        PlannerKind::VmcuReorder(IbScheme::RowBuffer),
    ]
}

/// Runs one inference (and the chained one, where the deployment has a
/// chain plan) and checks every row's observed peak, returning the number
/// of kernel steps checked.
fn check_observed(dep: &Deployment, seed: u64) -> usize {
    let g = dep.graph();
    let input = random::tensor_i8(&g.in_shape(), seed);
    let what = format!(
        "{} {:?} on {}",
        g.name,
        dep.planner_kind(),
        dep.device().name
    );
    let mut session = dep.session();
    let report = session.infer(&input).unwrap();
    let mut steps = 0;
    for row in &report.layers {
        if row.plan.kind == "link" {
            assert_eq!(row.observed_peak_bytes, 0, "{what}: link {}", row.name);
            continue;
        }
        assert!(
            row.observed_peak_bytes > 0,
            "{what}: {} wrote nothing",
            row.name
        );
        assert!(
            row.observed_peak_bytes <= row.plan.planned_bytes(),
            "{what}: {} wrote {} B past its {} planned B",
            row.name,
            row.observed_peak_bytes,
            row.plan.planned_bytes()
        );
        steps += 1;
    }
    if let Some(chain) = dep.chain_plan() {
        let (report, _) = session.infer_chained(&input).unwrap();
        let mut running = 0;
        for row in &report.layers {
            assert!(
                row.observed_peak_bytes >= running,
                "{what}: the chained mark fell"
            );
            assert!(
                row.observed_peak_bytes <= chain.window + chain.workspace,
                "{what}: chained {} wrote {} B past the {} B window and workspace",
                row.name,
                row.observed_peak_bytes,
                chain.window + chain.workspace
            );
            running = row.observed_peak_bytes;
        }
    }
    steps
}

/// Every zoo model under every vMCU policy on every ladder device: no
/// step writes RAM past its planned bytes, link hops write none, and a
/// chained run stays inside its window and workspace.
#[test]
fn vmcu_steps_observe_at_most_their_planned_bytes_on_the_zoo() {
    let mut steps = 0;
    for g in zoo_models() {
        let weights = g.random_weights(0x0B5E);
        for device in Device::simd_ladder() {
            for kind in vmcu_policies() {
                if let Ok(dep) = Engine::new(device.clone())
                    .planner(kind)
                    .deploy(&g, &weights)
                {
                    steps += check_observed(&dep, 0x0B5F);
                }
            }
        }
    }
    assert!(steps >= 1000, "only {steps} steps checked");
}

/// The paper's modules on their paper devices: Table 3 S1–S8 under
/// `Vmcu(SlidingWindow)` on the F411RE, the Figure 7 pointwise cases
/// under `Vmcu(RowBuffer)` on the F411RE and the F767ZI, and Figure 9's
/// B1–B17 under `Vmcu(RowBuffer)` on the F767ZI.
#[test]
fn vmcu_steps_observe_at_most_their_planned_bytes_on_the_paper_modules() {
    let (f411, f767) = (Device::stm32_f411re(), Device::stm32_f767zi());
    let sliding = PlannerKind::Vmcu(IbScheme::SlidingWindow);
    let row_buffer = PlannerKind::Vmcu(IbScheme::RowBuffer);
    let mut cases: Vec<(Graph, PlannerKind, &Device)> = Vec::new();
    let single = |name: &str, layer: LayerDesc| Graph::linear(name, vec![layer]).unwrap();
    for m in zoo::mcunet_5fps_vww() {
        cases.push((single(m.name, LayerDesc::Ib(m.params)), sliding, &f411));
    }
    for c in zoo::fig7_cases() {
        for dev in [&f411, &f767] {
            cases.push((
                single(&c.name, LayerDesc::Pointwise(c.params)),
                row_buffer,
                dev,
            ));
        }
    }
    for m in zoo::mcunet_320kb_imagenet() {
        cases.push((single(m.name, LayerDesc::Ib(m.params)), row_buffer, &f767));
    }
    let mut steps = 0;
    for (g, kind, dev) in &cases {
        let weights = g.random_weights(0x7AB3);
        let dep = Engine::new((*dev).clone())
            .planner(*kind)
            .deploy(g, &weights)
            .unwrap_or_else(|e| panic!("{} deploys on {}: {e}", g.name, dev.name));
        steps += check_observed(&dep, 0x7AB4);
    }
    assert_eq!(steps, 8 + 2 * 9 + 17);
}

/// `Engine::run_layer` reports the mark of the machine it runs on, which
/// is what a deployed session's row observes for the same layer.
#[test]
fn run_layer_reports_its_machines_mark() {
    let s1 = &zoo::mcunet_5fps_vww()[0];
    let layer = LayerDesc::Ib(s1.params);
    let g = Graph::linear(s1.name, vec![layer.clone()]).unwrap();
    let weights = g.random_weights(0x4A11);
    let input = random::tensor_i8(&g.in_shape(), 0x4A12);
    let engine =
        Engine::new(Device::stm32_f411re()).planner(PlannerKind::Vmcu(IbScheme::SlidingWindow));
    let (_, row) = engine
        .run_layer(s1.name, &layer, &weights[0], &input)
        .unwrap();
    let deployed = engine
        .deploy(&g, &weights)
        .unwrap()
        .session()
        .infer(&input)
        .unwrap();
    assert!(row.observed_peak_bytes > 0);
    assert!(row.observed_peak_bytes <= row.plan.planned_bytes());
    assert_eq!(
        row.observed_peak_bytes,
        deployed.layers[0].observed_peak_bytes
    );
}
