//! Byte-interval replay: a static model of the checked segment pool.
//!
//! [`PoolModel`] mirrors `vmcu_pool::SegmentPool`'s byte liveness
//! semantics — circular logical→physical mapping (`rem_euclid(window)`),
//! live-on-store, dead-on-free — but consumes dry-run traces instead of
//! executing kernels, so hazards are proven from plan arithmetic alone.
//! Liveness sits in a word-packed [`ByteSet`] (the container the pool
//! uses, not its logic): each event is replayed as at most two physical
//! spans found with one `rem_euclid`, and each span is checked, counted
//! and marked a word at a time.
//!
//! The module also re-derives the minimum execution distance from a
//! trace ([`derive_min_distance`]) with its own interval bookkeeping and
//! independently reproduces it through `vmcu-solver`'s read/write event
//! bound ([`solver_min_distance`]): converting every `Store` to a write
//! of its last byte and every `Free` to a read of its first byte makes
//! the §4 solver answer exactly `D_exec − 1` (the solver allows reuse
//! *at* the last read; an executable free releases only *after* it).

use crate::violation::Violation;
use vmcu_kernels::trace::ExecEvent;
use vmcu_sim::ByteSet;
use vmcu_solver::multilayer::min_distance_events;
use vmcu_solver::Event;

/// Static byte-liveness model of one circular pool window.
#[derive(Debug, Clone)]
pub struct PoolModel {
    live: ByteSet,
}

impl PoolModel {
    /// Creates an all-dead window of `window` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero — an empty pool cannot hold a layer.
    pub fn new(window: usize) -> Self {
        assert!(window > 0, "pool window must be non-empty");
        PoolModel {
            live: ByteSet::new(window),
        }
    }

    /// Window size in bytes.
    pub fn window(&self) -> usize {
        self.live.capacity()
    }

    /// Currently live bytes.
    pub fn live_bytes(&self) -> usize {
        self.live.count(0, self.window())
    }

    /// Splits the logical range `[base, base + len)`, `len <= window`,
    /// into its two physical spans `(start, n)`: the part up to the end
    /// of the window, then the part wrapped to its start (often empty).
    fn spans(&self, base: i64, len: usize) -> [(usize, usize); 2] {
        let window = self.window();
        let start = base.rem_euclid(window as i64) as usize;
        let first = len.min(window - start);
        [(start, first), (0, len - first)]
    }

    /// Makes `[base, base + len)` live (`live`) or dead, returning the
    /// first logical byte that already was, and how many were.
    fn mark(&mut self, base: i64, len: usize, live: bool) -> Option<(i64, usize)> {
        let mut first = None;
        let mut already = 0;
        let mut off = 0;
        for (phys, n) in self.spans(base, len) {
            if first.is_none() {
                first = self
                    .live
                    .first(phys, n, live)
                    .map(|p| base + (off + p - phys) as i64);
            }
            already += n - self.live.set(phys, n, live);
            off += n;
        }
        first.map(|byte| (byte, already))
    }

    /// Marks `[base, base+len)` live as a host fill (staging an input).
    /// A fill over an already-live byte is a [`Violation::Clobber`].
    pub fn fill(&mut self, site: &str, base: i64, len: usize, out: &mut Vec<Violation>) {
        self.store(site, base, len, out);
    }

    /// Replays a producer store: every target byte must be dead, and
    /// becomes live. Overlong stores that wrap onto themselves are
    /// reported as [`Violation::OutOfBounds`].
    pub fn store(&mut self, site: &str, base: i64, len: usize, out: &mut Vec<Violation>) {
        if len > self.window() {
            out.push(Violation::OutOfBounds {
                site: site.into(),
                needed: len,
                budget: self.window(),
            });
            return;
        }
        if let Some((byte, n)) = self.mark(base, len, true) {
            out.push(Violation::Clobber {
                site: site.into(),
                byte,
                len: n,
            });
        }
    }

    /// Replays a consumer free: every target byte must be live, and
    /// becomes dead. Freeing a dead byte is a [`Violation::DoubleFree`].
    pub fn free(&mut self, site: &str, base: i64, len: usize, out: &mut Vec<Violation>) {
        if len > self.window() {
            out.push(Violation::OutOfBounds {
                site: site.into(),
                needed: len,
                budget: self.window(),
            });
            return;
        }
        if let Some((byte, n)) = self.mark(base, len, false) {
            out.push(Violation::DoubleFree {
                site: site.into(),
                byte,
                len: n,
            });
        }
    }

    /// Asserts that exactly `[base, base+len)` is live: stray live bytes
    /// are leaks (inputs never freed); dead bytes inside the range are
    /// outputs never produced. Both report as [`Violation::Leak`], at
    /// the lowest physical offset of their kind.
    pub fn expect_exactly(&self, site: &str, base: i64, len: usize, out: &mut Vec<Violation>) {
        let window = self.window();
        let [(start, first), (_, wrapped)] = self.spans(base, len.min(window));
        // The expected bytes and the rest of the window, each as two
        // ascending physical spans (either may be empty).
        let expected = [(0, wrapped), (start, first)];
        let others = [
            (wrapped, start - wrapped),
            (start + first, window - start - first),
        ];
        let stray: usize = others.iter().map(|&(p, n)| self.live.count(p, n)).sum();
        if stray > 0 {
            let first = others
                .iter()
                .find_map(|&(p, n)| self.live.first(p, n, true))
                .unwrap_or(0);
            out.push(Violation::Leak {
                site: site.into(),
                byte: first as i64,
                len: stray,
                detail: "bytes still live that are not part of the output".into(),
            });
        }
        let missing: usize = expected
            .iter()
            .map(|&(p, n)| n - self.live.count(p, n))
            .sum();
        if missing > 0 {
            let first = expected
                .iter()
                .find_map(|&(p, n)| self.live.first(p, n, false))
                .unwrap_or(0);
            out.push(Violation::Leak {
                site: site.into(),
                byte: first as i64,
                len: missing,
                detail: "output bytes never produced".into(),
            });
        }
    }
}

/// One layer placed in a (possibly shared) pool window, ready to replay.
#[derive(Debug, Clone)]
pub struct LayerSpec<'a> {
    /// Site label for violations.
    pub site: &'a str,
    /// Input bytes (all operands for merge layers).
    pub in_len: usize,
    /// Output bytes.
    pub out_len: usize,
    /// Planned execution distance `b_in − b_out`.
    pub distance: i64,
    /// Pool window the layer runs in.
    pub window: usize,
    /// The kernel's dry-run store/free trace.
    pub events: &'a [ExecEvent],
}

/// Replays one layer standalone: input staged at logical 0, output at
/// `−distance`, full leak check at the end. This is exactly the layout
/// the engine runs every vMCU node step in.
pub fn replay_layer(spec: &LayerSpec<'_>) -> Vec<Violation> {
    let mut out = Vec::new();
    if spec.window == 0 {
        out.push(Violation::OutOfBounds {
            site: spec.site.into(),
            needed: spec.in_len.max(spec.out_len),
            budget: 0,
        });
        return out;
    }
    let mut pool = PoolModel::new(spec.window);
    pool.fill(spec.site, 0, spec.in_len, &mut out);
    replay_into(
        &mut pool,
        spec.site,
        0,
        -spec.distance,
        spec.events,
        &mut out,
    );
    pool.expect_exactly(spec.site, -spec.distance, spec.out_len, &mut out);
    out
}

/// Replays a trace into an existing pool state with explicit input and
/// output bases — the building block for whole-chain replay, where
/// every layer's bases come from the `ChainPlan` and liveness persists
/// across layers.
pub fn replay_into(
    pool: &mut PoolModel,
    site: &str,
    in_base: i64,
    out_base: i64,
    events: &[ExecEvent],
    out: &mut Vec<Violation>,
) {
    for ev in events {
        match *ev {
            ExecEvent::Store { addr, len } => {
                if len > 0 {
                    pool.store(site, out_base + addr, len, out);
                }
            }
            ExecEvent::Free { addr, len } => {
                if len > 0 {
                    pool.free(site, in_base + addr, len, out);
                }
            }
        }
    }
}

/// Independently re-derives the minimum execution distance of a trace
/// over `in_len` input bytes: for every store, the constraint is its
/// last byte landing strictly below the lowest still-live input byte.
///
/// Malformed frees (out of range, double) are skipped — they surface as
/// their own violations through [`replay_layer`]; this function answers
/// only the placement question. A trace with no stores returns
/// `−in_len` (any placement works).
pub fn derive_min_distance(in_len: usize, events: &[ExecEvent]) -> i64 {
    let mut freed = ByteSet::new(in_len);
    let mut lowest = 0usize; // first live input byte (lazily advanced)
    let mut d: Option<i64> = None;
    for ev in events {
        match *ev {
            ExecEvent::Free { addr, len } => {
                if addr < 0 {
                    continue;
                }
                free_clipped(&mut freed, addr as usize, len);
                lowest = freed
                    .first(lowest, in_len - lowest, false)
                    .unwrap_or(in_len);
            }
            ExecEvent::Store { addr, len } => {
                if len == 0 {
                    continue;
                }
                let last = addr + len as i64 - 1;
                let need = last - lowest as i64 + 1;
                d = Some(d.map_or(need, |v| v.max(need)));
            }
        }
    }
    d.unwrap_or(-(in_len as i64))
}

/// Marks the input bytes of a free of `len` bytes at `start` freed,
/// ignoring the part past the input's `in_len = freed.capacity()` bytes.
fn free_clipped(freed: &mut ByteSet, start: usize, len: usize) {
    let end = (start + len).min(freed.capacity());
    if start < end {
        freed.set(start, end - start, true);
    }
}

/// Reproduces the distance through `vmcu-solver`'s event bound: stores
/// become writes of their last byte, frees reads of their first byte,
/// input bytes never freed read back after the whole trace (they
/// outlive every store), and one virtual read at `in_len` closes the
/// trace — it stands for the first pool byte past the input, which
/// bounds stores issued after the entire input is already freed. The
/// solver's `D*` permits reuse *at* the binding read, an executable
/// free releases only *after* it, so the executable minimum is exactly
/// `D* + 1` — the identity [`check_distance`] enforces.
pub fn solver_min_distance(in_len: usize, events: &[ExecEvent]) -> i64 {
    let mut ev = Vec::new();
    let mut freed = ByteSet::new(in_len);
    let mut any_store = false;
    for e in events {
        match *e {
            ExecEvent::Store { addr, len } => {
                if len > 0 {
                    any_store = true;
                    ev.push(Event::Write(addr + len as i64 - 1));
                }
            }
            ExecEvent::Free { addr, len } => {
                if addr >= 0 {
                    free_clipped(&mut freed, addr as usize, len);
                }
                ev.push(Event::Read(addr));
            }
        }
    }
    if !any_store {
        return -(in_len as i64);
    }
    let mut b = 0;
    while let Some(lo) = freed.first(b, in_len - b, false) {
        b = freed.first(lo, in_len - lo, true).unwrap_or(in_len);
        ev.extend((lo..b).map(|x| Event::Read(x as i64)));
    }
    ev.push(Event::Read(in_len as i64));
    match min_distance_events(ev) {
        Some(d_star) => d_star + 1,
        None => -(in_len as i64),
    }
}

/// Cross-checks one trace's distance three ways — the plan's value, this
/// crate's replay bound, and the solver bound — and reports
/// [`Violation::DistanceTooSmall`] when the planned distance is below
/// the derived minimum, or when the two independent derivations diverge
/// (a checker bug surfaced loudly rather than silently certified).
pub fn check_distance(
    site: &str,
    planned: i64,
    in_len: usize,
    events: &[ExecEvent],
) -> Vec<Violation> {
    let derived = derive_min_distance(in_len, events);
    let solver = solver_min_distance(in_len, events);
    distance_violations(site, planned, derived, solver)
}

/// [`check_distance`]'s verdict on `planned` from the trace's minimum
/// distance already derived by replay (`derived`) and by the solver
/// bound (`solver`).
pub(crate) fn distance_violations(
    site: &str,
    planned: i64,
    derived: i64,
    solver: i64,
) -> Vec<Violation> {
    let mut out = Vec::new();
    if solver != derived {
        out.push(Violation::DistanceTooSmall {
            site: format!("{site} (solver cross-check: replay {derived} vs solver {solver})"),
            planned,
            derived: derived.max(solver),
        });
    }
    if planned < derived {
        out.push(Violation::DistanceTooSmall {
            site: site.into(),
            planned,
            derived,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use vmcu_kernels::trace::exec_distance;
    use ExecEvent::{Free, Store};

    #[test]
    fn clean_layer_replays_clean() {
        // Figure-4 style row-granular schedule at its exact distance.
        let events = [
            Store { addr: 0, len: 4 },
            Free { addr: 0, len: 4 },
            Store { addr: 4, len: 4 },
            Free { addr: 4, len: 4 },
        ];
        let d = exec_distance(8, events);
        assert_eq!(d, 4);
        let v = replay_layer(&LayerSpec {
            site: "row",
            in_len: 8,
            out_len: 8,
            distance: d,
            window: 12,
            events: &events,
        });
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn distance_minus_one_clobbers() {
        let events = [
            Store { addr: 0, len: 4 },
            Free { addr: 0, len: 4 },
            Store { addr: 4, len: 4 },
            Free { addr: 4, len: 4 },
        ];
        let d = exec_distance(8, events) - 1;
        let v = replay_layer(&LayerSpec {
            site: "row",
            in_len: 8,
            out_len: 8,
            distance: d,
            window: 11,
            events: &events,
        });
        assert!(
            v.iter().any(|v| matches!(v, Violation::Clobber { .. })),
            "{v:?}"
        );
    }

    #[test]
    fn dropped_free_leaks() {
        let events = [
            Store { addr: 0, len: 4 },
            Free { addr: 0, len: 4 },
            Store { addr: 4, len: 4 },
        ];
        let v = replay_layer(&LayerSpec {
            site: "row",
            in_len: 8,
            out_len: 8,
            distance: 4,
            window: 12,
            events: &events,
        });
        assert!(
            v.iter().any(|v| matches!(v, Violation::Leak { .. })),
            "{v:?}"
        );
    }

    #[test]
    fn duplicated_free_is_double_free() {
        let events = [Free { addr: 0, len: 4 }, Free { addr: 0, len: 4 }];
        let v = replay_layer(&LayerSpec {
            site: "row",
            in_len: 8,
            out_len: 0,
            distance: 0,
            window: 8,
            events: &events,
        });
        assert!(
            v.iter().any(|v| matches!(v, Violation::DoubleFree { .. })),
            "{v:?}"
        );
    }

    #[test]
    fn derived_distance_matches_kernel_bound_and_solver() {
        let cases: Vec<(usize, Vec<ExecEvent>)> = vec![
            (4, vec![Store { addr: 0, len: 2 }]),
            (
                8,
                (0..8)
                    .flat_map(|x| [Free { addr: x, len: 1 }, Store { addr: x, len: 1 }])
                    .collect(),
            ),
            (
                8,
                vec![
                    Store { addr: 0, len: 4 },
                    Free { addr: 0, len: 4 },
                    Store { addr: 4, len: 4 },
                    Free { addr: 4, len: 4 },
                ],
            ),
            (6, vec![Free { addr: 0, len: 6 }, Store { addr: 0, len: 3 }]),
            (5, vec![Free { addr: 0, len: 5 }]),
            // Store after a *partial* interior free: the frontier byte
            // (0) is freed later and is the binding read.
            (
                6,
                vec![
                    Free { addr: 2, len: 2 },
                    Store { addr: 0, len: 2 },
                    Free { addr: 0, len: 2 },
                ],
            ),
        ];
        for (in_len, events) in cases {
            let kernel = exec_distance(in_len, events.iter().copied());
            assert_eq!(
                derive_min_distance(in_len, &events),
                kernel,
                "replay bound @ {events:?}"
            );
            assert_eq!(
                solver_min_distance(in_len, &events),
                kernel,
                "solver bound @ {events:?}"
            );
            assert!(check_distance("t", kernel, in_len, &events).is_empty());
            assert_eq!(check_distance("t", kernel - 1, in_len, &events).len(), 1);
        }
    }
}
