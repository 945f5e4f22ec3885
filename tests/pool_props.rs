//! Property tests for the circular pool: arbitrary wrap-around access
//! patterns must preserve data, enforce liveness, and account the peak
//! correctly.

use proptest::prelude::*;
use vmcu::vmcu_pool::{PoolError, SegmentPool};
use vmcu::vmcu_sim::{Device, Machine};

fn setup(window: usize) -> (Machine, SegmentPool) {
    let m = Machine::new(Device::stm32_f411re());
    let pool = SegmentPool::new(&m, 0, window).unwrap();
    (m, pool)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Data round-trips through any logical address, including negative
    /// addresses and wrap-around spans.
    #[test]
    fn round_trip_at_any_logical_address(
        window in 8usize..64,
        addr in -200i64..200,
        len in 1usize..8,
    ) {
        prop_assume!(len <= window);
        let (mut m, mut pool) = setup(window);
        let data: Vec<u8> = (0..len as u8).map(|b| b.wrapping_mul(37).wrapping_add(1)).collect();
        pool.store(&mut m, &data, addr).unwrap();
        let mut back = vec![0u8; len];
        pool.load(&mut m, addr, &mut back).unwrap();
        prop_assert_eq!(back, data);
    }

    /// A producer/consumer stream through a window sized exactly at the
    /// high-water mark never clobbers: write k, read k, free k, forever.
    #[test]
    fn streaming_through_a_tight_window(
        window in 4usize..32,
        items in 1usize..100,
    ) {
        let (mut m, mut pool) = setup(window);
        for i in 0..items as i64 {
            pool.store(&mut m, &[i as u8], i).unwrap();
            let mut b = [0u8; 1];
            pool.load(&mut m, i, &mut b).unwrap();
            prop_assert_eq!(b[0], i as u8);
            pool.free(i, 1).unwrap();
        }
        prop_assert_eq!(pool.live_bytes(), 0);
        prop_assert_eq!(pool.peak_live_bytes(), 1);
    }

    /// Filling the window and writing one more byte always clobbers —
    /// never silent corruption.
    #[test]
    fn overfill_always_clobbers(window in 2usize..32) {
        let (mut m, mut pool) = setup(window);
        for i in 0..window as i64 {
            pool.store(&mut m, &[0xAB], i).unwrap();
        }
        prop_assert_eq!(pool.live_bytes(), window);
        let err = pool.store(&mut m, &[0xCD], window as i64).unwrap_err();
        let is_clobber = matches!(err, PoolError::Clobber { .. });
        prop_assert!(is_clobber, "expected clobber, got {:?}", err);
    }

    /// Peak accounting equals the maximum concurrent liveness of an
    /// arbitrary alloc/free interleaving.
    #[test]
    fn peak_matches_replayed_maximum(ops in prop::collection::vec(0u8..2, 1..40)) {
        let window = 64;
        let (mut m, mut pool) = setup(window);
        let mut next = 0i64;
        let mut frontier = 0i64;
        let mut live = 0usize;
        let mut peak = 0usize;
        for op in ops {
            if op == 0 && live < window {
                pool.store(&mut m, &[1], next).unwrap();
                next += 1;
                live += 1;
                peak = peak.max(live);
            } else if frontier < next {
                pool.free(frontier, 1).unwrap();
                frontier += 1;
                live -= 1;
            }
        }
        prop_assert_eq!(pool.live_bytes(), live);
        prop_assert_eq!(pool.peak_live_bytes(), peak);
    }
}
