//! Per-device request queues: earliest-deadline-first dispatch and
//! deterministic routing.
//!
//! The online simulator gives every device its own [`EdfQueue`]: arrived
//! requests wait in deadline order, and the device serves the most
//! urgent one next (classic EDF). Shedding is the *scheduler's* job —
//! the queue only orders; the worker pops and drops requests whose
//! deadline already passed before service could start.
//!
//! Routing happens once, up front, in arrival order: the [`Router`]
//! places each device's resident set of models from their RAM and
//! Flash footprints, then pins each request to its model's home device,
//! spilling to the least-loaded device that also holds the model when
//! the home lane runs too far ahead. Both structures are plain
//! deterministic data structures — no clocks, no randomness — so a
//! seeded arrival stream routes and dispatches identically on every
//! host.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// One queued request, ordered by urgency.
///
/// The derived `Ord` compares fields in declaration order: deadline
/// first (EDF), then the globally unique arrival sequence number as the
/// deterministic tie-break.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct QueuedRequest {
    /// Absolute deadline, microseconds of simulated time: arrival time
    /// plus the fleet SLO. Requests not *started* by this instant are
    /// shed.
    pub deadline_us: u64,
    /// Arrival sequence number (unique, assigned in arrival order).
    pub seq: u64,
    /// Arrival timestamp, microseconds of simulated time.
    pub at_us: u64,
    /// Catalog model index.
    pub model: usize,
}

/// An earliest-deadline-first queue of waiting requests.
///
/// # Examples
///
/// ```
/// use vmcu_serve::{EdfQueue, QueuedRequest};
///
/// let mut q = EdfQueue::new();
/// for (seq, deadline_us) in [(0, 900), (1, 300), (2, 600)] {
///     q.push(QueuedRequest { deadline_us, seq, at_us: 0, model: 0 });
/// }
/// // Pops in deadline order, not arrival order.
/// assert_eq!(q.pop().unwrap().deadline_us, 300);
/// assert_eq!(q.pop().unwrap().deadline_us, 600);
/// assert_eq!(q.pop().unwrap().deadline_us, 900);
/// assert!(q.pop().is_none());
/// ```
#[derive(Debug, Default)]
pub struct EdfQueue {
    heap: BinaryHeap<Reverse<QueuedRequest>>,
}

impl EdfQueue {
    /// An empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Enqueues a request.
    pub fn push(&mut self, request: QueuedRequest) {
        self.heap.push(Reverse(request));
    }

    /// Removes and returns the most urgent request (earliest deadline;
    /// ties broken by arrival order).
    pub fn pop(&mut self) -> Option<QueuedRequest> {
        self.heap.pop().map(|Reverse(r)| r)
    }

    /// The most urgent request without removing it.
    pub fn peek(&self) -> Option<&QueuedRequest> {
        self.heap.peek().map(|Reverse(r)| r)
    }

    /// Number of waiting requests.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

/// Deterministic residency-aware request router.
///
/// Each model has a *home* device (`model_index % workers`). Before
/// routing anything, the router places each device's *resident set*:
/// its home models, then every other deployable model, in catalog
/// order, that still fits the device's RAM and Flash budgets beside the
/// set so far. A request goes home unless the home lane is `slack`
/// requests ahead of the least-loaded device whose set holds the model
/// (ties to the lowest index); then it goes there. A request never
/// leaves its model's holders, so a device hot-swaps only when its home
/// set alone overflows it.
///
/// # Examples
///
/// ```
/// use vmcu_serve::Router;
///
/// // (RAM, Flash) bytes per catalog model; model 3 never deployed.
/// let footprints = [Some((60, 100)), Some((50, 100)), Some((30, 100)), None];
/// // Two devices with 100 B of RAM and 1000 B of Flash each.
/// let mut r = Router::new(2, 1000, &footprints, 100, 1000);
/// // Device 0 is home to models 0 and 2 (90 B). Device 1 is home to
/// // model 1 (50 B) and also holds model 2 (30 B); model 0 (60 B)
/// // does not fit beside them.
/// assert_eq!(r.holders(0), &[0]);
/// assert_eq!(r.holders(2), &[0, 1]);
/// // A hot model 0 stays home: no other device holds it.
/// for _ in 0..500 {
///     assert_eq!(r.route(0), Some(0));
/// }
/// // Model 2 spills to device 1, which keeps it resident.
/// assert_eq!(r.route(2), Some(1));
/// // A model no device holds is not routed.
/// assert_eq!(r.route(3), None);
/// ```
#[derive(Debug, Clone)]
pub struct Router {
    assigned: Vec<u64>,
    /// The devices whose resident set holds each model, in index order.
    holders: Vec<Vec<usize>>,
    slack: u64,
}

impl Router {
    /// A router over `workers` devices, each with `ram_budget` bytes of
    /// usable SRAM and `flash_budget` bytes of Flash, for a catalog whose
    /// models have the `(ram_bytes, flash_bytes)` `footprints` (`None`
    /// for a model that never deployed), expecting roughly
    /// `expected_requests` routings (sizes the spill slack).
    ///
    /// # Panics
    ///
    /// Panics when `workers == 0`.
    pub fn new(
        workers: usize,
        expected_requests: usize,
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
        Self {
            assigned: vec![0; workers],
            // Tolerate ~12% skew of a fair share before spilling, but
            // never thrash on tiny streams.
            slack: ((expected_requests / workers / 8) as u64).max(64),
            holders,
        }
    }

    /// Routes one request for `model` to a device index, or `None` when
    /// no device's resident set holds the model (it never deployed, or
    /// is outside the catalog).
    pub fn route(&mut self, model: usize) -> Option<usize> {
        let home = model % self.assigned.len();
        let least = self
            .holders
            .get(model)?
            .iter()
            .copied()
            .min_by_key(|&d| (self.assigned[d], d))?;
        let chosen = if self.assigned[home] >= self.assigned[least] + self.slack {
            least
        } else {
            home
        };
        self.assigned[chosen] += 1;
        Some(chosen)
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

    /// Requests routed to each device so far.
    pub fn assigned(&self) -> &[u64] {
        &self.assigned
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(deadline_us: u64, seq: u64) -> QueuedRequest {
        QueuedRequest {
            deadline_us,
            seq,
            at_us: 0,
            model: 0,
        }
    }

    #[test]
    fn edf_pops_in_deadline_order() {
        let mut q = EdfQueue::new();
        for (i, d) in [500u64, 100, 900, 300, 700].iter().enumerate() {
            q.push(req(*d, i as u64));
        }
        let mut popped = Vec::new();
        while let Some(r) = q.pop() {
            popped.push(r.deadline_us);
        }
        assert_eq!(popped, vec![100, 300, 500, 700, 900]);
    }

    #[test]
    fn deadline_ties_break_by_arrival_order() {
        let mut q = EdfQueue::new();
        q.push(req(100, 7));
        q.push(req(100, 3));
        q.push(req(100, 5));
        assert_eq!(q.pop().unwrap().seq, 3);
        assert_eq!(q.pop().unwrap().seq, 5);
        assert_eq!(q.pop().unwrap().seq, 7);
    }

    #[test]
    fn peek_does_not_remove() {
        let mut q = EdfQueue::new();
        q.push(req(42, 0));
        assert_eq!(q.peek().unwrap().deadline_us, 42);
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
        q.pop();
        assert!(q.is_empty());
    }

    /// A router over `workers` devices whose budgets hold all of
    /// `models` one-byte models at once.
    fn roomy(workers: usize, models: usize, expected_requests: usize) -> Router {
        Router::new(
            workers,
            expected_requests,
            &vec![Some((1, 1)); models],
            models,
            models,
        )
    }

    #[test]
    fn router_prefers_the_home_device() {
        let mut r = roomy(4, 8, 100);
        for model in 0..8 {
            assert_eq!(r.route(model), Some(model % 4));
        }
    }

    #[test]
    fn router_spills_a_hot_model() {
        let mut r = roomy(2, 1, 100);
        // 1000 requests to one model: without spilling device 0 would
        // take everything.
        for _ in 0..1000 {
            r.route(0);
        }
        let a = r.assigned();
        assert_eq!(a.iter().sum::<u64>(), 1000);
        assert!(
            a[1] > 0,
            "hot-model traffic must spill off the home device: {a:?}"
        );
        // Spilling keeps lanes within one slack band of each other.
        assert!(a[0].abs_diff(a[1]) <= 65, "{a:?}");
    }

    #[test]
    fn router_spills_only_to_devices_that_hold_the_model() {
        // Each device's home set fills its 100 B of RAM, so no model is
        // held beyond its home, and a hot model 0 never spills however
        // far its lane runs ahead.
        let footprints = [Some((60, 10)), Some((100, 10)), Some((40, 10))];
        let mut r = Router::new(2, 100, &footprints, 100, 1000);
        assert_eq!(r.holders(0), &[0]);
        assert_eq!(r.holders(1), &[1]);
        assert_eq!(r.holders(2), &[0]);
        for _ in 0..1000 {
            assert_eq!(r.route(0), Some(0));
        }
        assert_eq!(r.assigned(), &[1000, 0]);
        // Either budget excludes: device 1 has the RAM for model 0 but
        // not the Flash.
        let footprints = [Some((10, 600)), Some((10, 600))];
        let r = Router::new(2, 100, &footprints, 1000, 1000);
        assert_eq!((r.holders(0), r.holders(1)), (&[0][..], &[1][..]));
    }

    #[test]
    fn router_rejects_models_no_device_holds() {
        let mut r = Router::new(2, 100, &[Some((1, 1)), None], 10, 10);
        assert_eq!(r.holders(1), &[] as &[usize]);
        assert_eq!(r.route(1), None);
        assert_eq!(r.route(2), None, "outside the catalog");
        assert_eq!(r.assigned(), &[0, 0], "a rejection assigns nothing");
    }

    #[test]
    fn router_is_deterministic() {
        let run = || {
            let mut r = roomy(3, 7, 500);
            (0..500).map(|i| r.route(i % 7)).collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }
}
