//! `Schedule` as a sorted vector: `from_sorted` against the map-built
//! `from_ranges`, every accessor against a `BTreeMap` reference, and the
//! typed refusals of input that is not strictly ascending or leaves the
//! frame.

use std::collections::BTreeMap;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use wimesh_tdma::{FrameConfig, Schedule, ScheduleError, SlotRange};
use wimesh_topology::LinkId;

const SLOTS: u32 = 32;

fn frame() -> FrameConfig {
    FrameConfig::new(SLOTS, 250)
}

/// Up to 40 links drawn from 0..64, each with a range inside the frame.
fn ranges(rng: &mut StdRng) -> BTreeMap<LinkId, SlotRange> {
    (0..rng.gen_range(0..40))
        .map(|_| {
            let start = rng.gen_range(0..SLOTS);
            let len = rng.gen_range(1..=SLOTS - start);
            (LinkId(rng.gen_range(0..64)), SlotRange::new(start, len))
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn from_sorted_equals_from_ranges_and_the_map(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let map = ranges(&mut rng);
        let sorted: Vec<(LinkId, SlotRange)> = map.iter().map(|(&l, &r)| (l, r)).collect();
        let schedule = Schedule::from_sorted(frame(), sorted.clone()).expect("ascending, in frame");
        prop_assert_eq!(&schedule, &Schedule::from_ranges(frame(), map.clone()).expect("in frame"));

        for probe in (0..70).map(LinkId) {
            prop_assert_eq!(schedule.slot_range(probe), map.get(&probe).copied());
        }
        prop_assert!(schedule.links().eq(map.keys().copied()));
        prop_assert!(schedule.iter().eq(sorted.iter().copied()));
        prop_assert_eq!(schedule.len(), map.len());
        prop_assert_eq!(schedule.is_empty(), map.is_empty());
        prop_assert_eq!(u64::from(schedule.makespan()), map.values().map(SlotRange::end).max().unwrap_or(0));
        prop_assert_eq!(schedule.busy_slots(), map.values().map(|r| u64::from(r.len)).sum::<u64>());
    }

    #[test]
    fn out_of_order_and_repeated_links_are_refused(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let sorted: Vec<(LinkId, SlotRange)> = ranges(&mut rng).into_iter().collect();
        prop_assume!(sorted.len() >= 2);
        let k = rng.gen_range(0..sorted.len() - 1);

        let mut swapped = sorted.clone();
        swapped.swap(k, k + 1);
        prop_assert_eq!(
            Schedule::from_sorted(frame(), swapped),
            Err(ScheduleError::RangesNotAscending(sorted[k + 1].0, sorted[k].0))
        );

        // A second copy of a link is refused whether it agrees or not.
        for copy in [sorted[k].1, SlotRange::new(0, 1)] {
            let mut repeated = sorted.clone();
            repeated.insert(k + 1, (sorted[k].0, copy));
            prop_assert_eq!(
                Schedule::from_sorted(frame(), repeated),
                Err(ScheduleError::RangesNotAscending(sorted[k].0, sorted[k].0))
            );
        }
    }

    #[test]
    fn a_range_past_the_frame_is_refused(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut map = ranges(&mut rng);
        let over = rng.gen_range(1..8);
        map.insert(LinkId(rng.gen_range(0..64)), SlotRange::new(SLOTS - 1, 1 + over));
        let refused = Err(ScheduleError::FrameTooShort { needed: SLOTS + over, available: SLOTS });
        let sorted = map.clone().into_iter().collect();
        prop_assert_eq!(Schedule::from_sorted(frame(), sorted), refused.clone());
        prop_assert_eq!(Schedule::from_ranges(frame(), map), refused);
    }
}
