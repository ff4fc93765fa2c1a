//! End-to-end scheduling delay of multi-hop paths under a TDMA schedule.
//!
//! A packet relayed along a path is forwarded hop by hop: it is
//! transmitted on link `e_i` inside `e_i`'s slot range, becomes available
//! at the relay when that range ends, and departs on `e_{i+1}` at the next
//! occurrence of `e_{i+1}`'s range — in the same frame when the schedule
//! placed it later, otherwise in the next frame. Scheduling delay is thus
//! governed by the *transmission order*: each "backward" consecutive pair
//! costs one full frame.

use std::time::Duration;

use wimesh_topology::routing::Path;

use crate::{Schedule, SlotRange};

/// Pipeline delay and frame wraps of a packet relayed through `hops`, the
/// slot ranges of its route in travel order, in a frame of
/// `slots_per_frame` minislots: `(delay, wraps)`, or `None` when a hop has
/// no range or there is no hop.
///
/// The delay runs from the start of the first range to the end of the
/// last transmission; a hop whose range starts before the previous one
/// ended waits for the next frame, which is one wrap. The one walk serves
/// [`path_delay_slots`] and [`frame_wraps`], and `wimesh`'s session, which
/// reads the ranges from its own per-link state.
pub fn relay_walk(
    slots_per_frame: u64,
    hops: impl IntoIterator<Item = Option<SlotRange>>,
) -> Option<(u64, u64)> {
    let mut hops = hops.into_iter();
    let first = hops.next()??;
    // The packet is done `frames` whole frames plus `offset` slots after
    // frame 0 began, `offset` below the frame length. A range that fits
    // its frame ends inside it or exactly on it, so the division is rare.
    let mut frames = 0u64;
    let finish = |range: SlotRange, frames: &mut u64| {
        let end = u64::from(range.start) + u64::from(range.len);
        if end < slots_per_frame {
            return end;
        }
        *frames += end / slots_per_frame;
        end % slots_per_frame
    };
    let mut offset = finish(first, &mut frames);
    let mut wraps = 0;
    for hop in hops {
        let range = hop?;
        if u64::from(range.start) < offset {
            frames += 1;
            wraps += 1;
        }
        offset = finish(range, &mut frames);
    }
    let done = frames * slots_per_frame + offset;
    Some((done - u64::from(first.start), wraps))
}

/// End-to-end delay of `path` in minislots: from the start of the first
/// link's range to the end of the last link's transmission (including the
/// frame wraps forced by the schedule).
///
/// Returns `None` if some path link is not scheduled.
///
/// This measures the *pipeline* delay for a packet that is ready exactly
/// when the first link's range begins. A worst-case arrival adds up to one
/// more frame of waiting at the source; see [`worst_case_delay_slots`].
pub fn path_delay_slots(schedule: &Schedule, path: &Path) -> Option<u64> {
    scheduled_walk(schedule, path).map(|(delay, _)| delay)
}

fn scheduled_walk(schedule: &Schedule, path: &Path) -> Option<(u64, u64)> {
    relay_walk(
        u64::from(schedule.frame().slots()),
        path.links().iter().map(|&l| schedule.slot_range(l)),
    )
}

/// Worst-case end-to-end delay in minislots for a packet arriving at an
/// arbitrary instant: one full frame of source waiting plus the pipeline
/// delay.
///
/// This is the bound the admission controller compares against flow
/// deadlines. Returns `None` if some path link is not scheduled.
pub fn worst_case_delay_slots(schedule: &Schedule, path: &Path) -> Option<u64> {
    Some(path_delay_slots(schedule, path)? + schedule.frame().slots() as u64)
}

/// [`worst_case_delay_slots`] converted to wall-clock time.
pub fn worst_case_delay(schedule: &Schedule, path: &Path) -> Option<Duration> {
    Some(
        schedule
            .frame()
            .slots_to_duration(worst_case_delay_slots(schedule, path)?),
    )
}

/// Maximum [`path_delay_slots`] over a set of paths.
///
/// Returns `None` if `paths` is empty or any path is not fully scheduled.
pub fn max_delay_slots(schedule: &Schedule, paths: &[Path]) -> Option<u64> {
    paths
        .iter()
        .map(|p| path_delay_slots(schedule, p))
        .collect::<Option<Vec<_>>>()?
        .into_iter()
        .max()
}

/// Number of frame wraps ("order inversions" realised by the schedule)
/// along `path`: the integer number of extra frames the packet spends
/// because consecutive hops are scheduled backwards.
///
/// Returns `None` if some path link is not scheduled.
pub fn frame_wraps(schedule: &Schedule, path: &Path) -> Option<u64> {
    scheduled_walk(schedule, path).map(|(_, wraps)| wraps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::order::{hop_order, TransmissionOrder};
    use crate::{schedule_from_order, Demands, FrameConfig};
    use wimesh_conflict::{ConflictGraph, InterferenceModel};
    use wimesh_topology::routing::shortest_path;
    use wimesh_topology::{generators, NodeId};

    fn chain_case(
        n: usize,
        per_link: u32,
        frame_slots: u32,
        reverse_order: bool,
    ) -> (Schedule, Path) {
        let topo = generators::chain(n);
        let path = shortest_path(&topo, NodeId(0), NodeId((n - 1) as u32)).unwrap();
        let mut demands = Demands::new();
        for &l in path.links() {
            demands.set(l, per_link);
        }
        let cg = ConflictGraph::build_for_links(
            &topo,
            demands.links().collect(),
            InterferenceModel::protocol_default(),
        );
        let order = if reverse_order {
            // Last hop first: worst case, every relay pair wraps.
            let mut perm: Vec<_> = path.links().to_vec();
            perm.reverse();
            TransmissionOrder::from_permutation(&cg, &perm)
        } else {
            hop_order(&cg, std::slice::from_ref(&path))
        };
        let frame = FrameConfig::new(frame_slots, 100);
        let sched = schedule_from_order(&cg, &demands, &order, frame).unwrap();
        (sched, path)
    }

    use wimesh_topology::routing::Path;

    /// The walk `relay_walk` replaced: an absolute slot count and two
    /// remainders per hop.
    fn modular_walk(frame: u64, hops: &[SlotRange]) -> (u64, u64) {
        let start = u64::from(hops[0].start);
        let mut done = start + u64::from(hops[0].len);
        let mut wraps = 0;
        for r in &hops[1..] {
            let pos = u64::from(r.start);
            if pos < done % frame {
                wraps += 1;
                done = done - done % frame + frame + pos;
            } else {
                done = done - done % frame + pos;
            }
            done += u64::from(r.len);
        }
        (done - start, wraps)
    }

    #[test]
    fn relay_walk_equals_the_modular_walk() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..2000 {
            let frame = rng.gen_range(1..40u32);
            // Ranges that fit the frame, end exactly on it, or overrun it.
            let hops: Vec<SlotRange> = (0..rng.gen_range(1..8))
                .map(|_| SlotRange::new(rng.gen_range(0..frame + 3), rng.gen_range(1..frame + 3)))
                .collect();
            assert_eq!(
                relay_walk(u64::from(frame), hops.iter().copied().map(Some)),
                Some(modular_walk(u64::from(frame), &hops)),
                "frame {frame}, hops {hops:?}"
            );
        }
        assert_eq!(relay_walk(8, std::iter::empty()), None);
        assert_eq!(relay_walk(8, [Some(SlotRange::new(0, 1)), None]), None);
    }

    #[test]
    fn forward_order_no_wraps() {
        let (sched, path) = chain_case(5, 2, 32, false);
        assert_eq!(path_delay_slots(&sched, &path), Some(8));
        assert_eq!(frame_wraps(&sched, &path), Some(0));
        assert_eq!(worst_case_delay_slots(&sched, &path), Some(8 + 32));
    }

    #[test]
    fn reverse_order_wraps_every_hop() {
        let (sched, path) = chain_case(5, 2, 32, true);
        // 4 hops scheduled in reverse: every one of the 3 relay pairs
        // waits for the next frame.
        let wraps = frame_wraps(&sched, &path).unwrap();
        assert_eq!(wraps, 3);
        let delay = path_delay_slots(&sched, &path).unwrap();
        assert!(delay > 3 * 32 - 32, "delay {delay} too small");
        assert!(delay >= 8);
    }

    #[test]
    fn delay_scales_with_frame_length_for_bad_orders() {
        let (s32, p32) = chain_case(5, 2, 32, true);
        let (s64, p64) = chain_case(5, 2, 64, true);
        let d32 = path_delay_slots(&s32, &p32).unwrap();
        let d64 = path_delay_slots(&s64, &p64).unwrap();
        assert!(d64 > d32, "wrapped delay must grow with the frame");
        // Forward order delay is frame-independent.
        let (f32_, fp32) = chain_case(5, 2, 32, false);
        let (f64_, fp64) = chain_case(5, 2, 64, false);
        assert_eq!(
            path_delay_slots(&f32_, &fp32),
            path_delay_slots(&f64_, &fp64)
        );
    }

    #[test]
    fn unscheduled_link_gives_none() {
        let (sched, _) = chain_case(4, 1, 16, false);
        let topo = generators::chain(4);
        // A path using the reverse direction, which carries no demand.
        let back = shortest_path(&topo, NodeId(3), NodeId(0)).unwrap();
        assert_eq!(path_delay_slots(&sched, &back), None);
        assert_eq!(frame_wraps(&sched, &back), None);
    }

    #[test]
    fn duration_conversion() {
        let (sched, path) = chain_case(5, 2, 32, false);
        // (8 + 32) slots x 100 us.
        assert_eq!(
            worst_case_delay(&sched, &path),
            Some(Duration::from_micros(4000))
        );
    }

    #[test]
    fn max_delay_over_paths() {
        let (sched, path) = chain_case(5, 2, 32, false);
        let paths = vec![path];
        assert_eq!(max_delay_slots(&sched, &paths), Some(8));
        assert_eq!(max_delay_slots(&sched, &[]), None);
    }

    #[test]
    fn single_hop_delay_is_service_time() {
        let topo = generators::chain(2);
        let path = shortest_path(&topo, NodeId(0), NodeId(1)).unwrap();
        let mut demands = Demands::new();
        demands.set(path.links()[0], 3);
        let cg = ConflictGraph::build_for_links(
            &topo,
            demands.links().collect(),
            InterferenceModel::protocol_default(),
        );
        let sched = schedule_from_order(
            &cg,
            &demands,
            &TransmissionOrder::new(),
            FrameConfig::new(8, 100),
        )
        .unwrap();
        assert_eq!(path_delay_slots(&sched, &path), Some(3));
    }
}
