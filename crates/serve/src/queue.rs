//! Residency-aware dispatch: which device serves each request.
//!
//! The [`Router`] places each device's resident set of models once, from
//! their RAM and Flash footprints, and then dispatches each request
//! against the devices' simulated clocks: to its model's home device,
//! unless another device that holds the model can start it more than
//! one service time sooner. Each device then serves its requests in
//! arrival order. The online fleet runs one latency SLO, so a request's
//! deadline is its arrival plus that SLO, and arrival order *is*
//! earliest-deadline-first order: no priority queue is needed. The
//! router is a plain deterministic data structure — no randomness, and
//! the clocks are the caller's — so a seeded arrival stream dispatches
//! identically on every host.

/// Deterministic residency-aware request dispatcher.
///
/// Each model has a *home* device (`model_index % workers`). Before
/// dispatching anything, the router places each device's *resident
/// set*: its home models, then every other deployable model, in catalog
/// order, that still fits the device's RAM and Flash budgets beside the
/// set so far. A request never leaves its model's holders, so a device
/// hot-swaps only when its home set alone overflows it.
///
/// [`dispatch`](Self::dispatch) sends a request home unless another
/// holder can start it more than one service time of its model sooner,
/// and then to the holder that can start it soonest (ties to the lowest
/// index). The margin keeps a model's traffic home while its home device
/// keeps up: spreading a heavy model over every holder whenever one
/// starts sooner by any amount would let it crowd the other devices'
/// home models out under overload.
///
/// # Examples
///
/// ```
/// use vmcu_serve::Router;
///
/// // (RAM, Flash) bytes per catalog model; model 3 never deployed.
/// let footprints = [Some((60, 100)), Some((50, 100)), Some((30, 100)), None];
/// // Two devices with 100 B of RAM and 1000 B of Flash each.
/// let r = Router::new(2, &footprints, 100, 1000);
/// // Device 0 is home to models 0 and 2 (90 B). Device 1 is home to
/// // model 1 (50 B) and also holds model 2 (30 B); model 0 (60 B)
/// // does not fit beside them.
/// assert_eq!(r.holders(0), &[0]);
/// assert_eq!(r.holders(2), &[0, 1]);
/// // A request arriving at 1,000 µs for model 2 (1,000 µs of service):
/// // device 0 is busy until 2,500 µs, device 1 is idle. Starting 1,500 µs
/// // sooner is more than one service time, so device 1 takes it.
/// assert_eq!(r.dispatch(2, 1_000, 1_000, &[2_500, 0]), Some(1));
/// // Busy until 2,000 µs, home starts only one service time later: stay.
/// assert_eq!(r.dispatch(2, 1_000, 1_000, &[2_000, 0]), Some(0));
/// // Model 0 stays home however busy device 0 is: only it holds model 0.
/// assert_eq!(r.dispatch(0, 1_000, 1_000, &[90_000, 0]), Some(0));
/// // A model no device holds is not dispatched.
/// assert_eq!(r.dispatch(3, 1_000, 1_000, &[0, 0]), None);
/// ```
#[derive(Debug, Clone)]
pub struct Router {
    /// The devices whose resident set holds each model, in index order.
    holders: Vec<Vec<usize>>,
    workers: usize,
}

impl Router {
    /// A router over `workers` devices, each with `ram_budget` bytes of
    /// usable SRAM and `flash_budget` bytes of Flash, for a catalog whose
    /// models have the `(ram_bytes, flash_bytes)` `footprints` (`None`
    /// for a model that never deployed).
    ///
    /// # Panics
    ///
    /// Panics when `workers == 0`.
    pub fn new(
        workers: usize,
        footprints: &[Option<(usize, usize)>],
        ram_budget: usize,
        flash_budget: usize,
    ) -> Self {
        assert!(workers > 0, "router needs at least one device");
        let deployed = footprints
            .iter()
            .enumerate()
            .filter_map(|(m, f)| Some((m, (*f)?)));
        let mut holders = vec![Vec::new(); footprints.len()];
        for device in 0..workers {
            let home = |&(m, _): &(usize, (usize, usize))| m % workers == device;
            // The home models unconditionally, then whatever else fits
            // beside them.
            let (mut ram, mut flash) = (0, 0);
            for (m, (r, f)) in deployed.clone().filter(home) {
                (ram, flash) = (ram + r, flash + f);
                holders[m].push(device);
            }
            for (m, (r, f)) in deployed.clone().filter(|x| !home(x)) {
                if ram + r <= ram_budget && flash + f <= flash_budget {
                    (ram, flash) = (ram + r, flash + f);
                    holders[m].push(device);
                }
            }
        }
        Self { holders, workers }
    }

    /// The device that serves a request for `model` arriving at `at_us`,
    /// given its model's calibrated `service_us` and each device's clock
    /// (`clocks[d]`: when device `d` finishes the work it already has).
    /// Device `d` can start the request at `max(clocks[d], at_us)`.
    ///
    /// Returns the home device (`model % workers`) unless some holder of
    /// the model starts it more than `service_us` sooner; then the holder
    /// that starts it soonest, ties to the lowest index. Returns `None`
    /// when no device's resident set holds the model (it never deployed,
    /// or is outside the catalog).
    ///
    /// # Panics
    ///
    /// Panics if `clocks` has fewer entries than the router has devices.
    pub fn dispatch(
        &self,
        model: usize,
        at_us: u64,
        service_us: u64,
        clocks: &[u64],
    ) -> Option<usize> {
        let start = |d: usize| clocks[d].max(at_us);
        let (soonest, device) = self
            .holders
            .get(model)?
            .iter()
            .map(|&d| (start(d), d))
            .min()?;
        // A held model has a home device, and it holds the model, so
        // `soonest <= start(home)`.
        let home = model % self.workers;
        Some(if start(home) - soonest > service_us {
            device
        } else {
            home
        })
    }

    /// The devices whose resident set holds `model`, in index order; its
    /// home device is one of them unless the model has no footprint,
    /// in which case none is.
    ///
    /// # Panics
    ///
    /// Panics if `model` is outside the catalog the router was built
    /// for.
    pub fn holders(&self, model: usize) -> &[usize] {
        &self.holders[model]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A router over `workers` devices whose budgets hold all of
    /// `models` one-byte models at once.
    fn roomy(workers: usize, models: usize) -> Router {
        Router::new(workers, &vec![Some((1, 1)); models], models, models)
    }

    #[test]
    fn router_prefers_the_home_device() {
        let r = roomy(4, 8);
        // Idle devices, or every device equally busy: home wins.
        for model in 0..8 {
            assert_eq!(r.dispatch(model, 0, 10, &[0; 4]), Some(model % 4));
            assert_eq!(r.dispatch(model, 5, 10, &[900; 4]), Some(model % 4));
        }
        // Another device idle, but home starts exactly one service later:
        // the margin is strict, so the request stays home.
        assert_eq!(r.dispatch(1, 100, 10, &[0, 110, 0, 0]), Some(1));
    }

    #[test]
    fn router_spills_a_hot_model() {
        // A hot model 0 on two devices that both hold it, 10 µs of
        // service per request, all arriving at once: device 0 takes the
        // first two, then each request goes to whichever device starts
        // it more than a service sooner, so the two clocks stay within
        // one service time of each other.
        let r = roomy(2, 1);
        let mut clocks = [0u64; 2];
        let mut served = [0u64; 2];
        for _ in 0..1000 {
            let d = r.dispatch(0, 0, 10, &clocks).expect("model 0 is held");
            clocks[d] += 10;
            served[d] += 1;
        }
        assert_eq!(served.iter().sum::<u64>(), 1000);
        assert!(
            served[1] > 0,
            "hot-model traffic must spill off the home device: {served:?}"
        );
        assert!(clocks[0].abs_diff(clocks[1]) <= 20, "{clocks:?}");
        // Sooner by exactly the first request's service would have kept
        // it home: device 0 took the first two.
        let r = roomy(2, 1);
        assert_eq!(r.dispatch(0, 0, 10, &[10, 0]), Some(0));
        assert_eq!(r.dispatch(0, 0, 10, &[20, 0]), Some(1));
    }

    #[test]
    fn router_spills_only_to_devices_that_hold_the_model() {
        // Each device's home set fills its 100 B of RAM, so no model is
        // held beyond its home, and a hot model 0 never spills however
        // far its home device runs behind.
        let footprints = [Some((60, 10)), Some((100, 10)), Some((40, 10))];
        let r = Router::new(2, &footprints, 100, 1000);
        assert_eq!(r.holders(0), &[0]);
        assert_eq!(r.holders(1), &[1]);
        assert_eq!(r.holders(2), &[0]);
        for busy in [0, 1_000, u64::MAX] {
            assert_eq!(r.dispatch(0, 0, 1, &[busy, 0]), Some(0));
        }
        // Either budget excludes: device 1 has the RAM for model 0 but
        // not the Flash.
        let footprints = [Some((10, 600)), Some((10, 600))];
        let r = Router::new(2, &footprints, 1000, 1000);
        assert_eq!((r.holders(0), r.holders(1)), (&[0][..], &[1][..]));
    }

    #[test]
    fn router_rejects_models_no_device_holds() {
        let r = Router::new(2, &[Some((1, 1)), None], 10, 10);
        assert_eq!(r.holders(1), &[] as &[usize]);
        assert_eq!(r.dispatch(1, 0, 1, &[0, 0]), None);
        assert_eq!(r.dispatch(2, 0, 1, &[0, 0]), None, "outside the catalog");
    }

    #[test]
    fn router_is_deterministic() {
        let run = || {
            let r = roomy(3, 7);
            let mut clocks = [0u64; 3];
            (0..500u64)
                .map(|i| {
                    let model = (i % 7) as usize;
                    let d = r.dispatch(model, i * 3, 5 + i % 11, &clocks)?;
                    clocks[d] = clocks[d].max(i * 3) + 5 + i % 11;
                    Some(d)
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }
}
