//! Human-readable schedule rendering.
//!
//! Turns a [`Schedule`] into a per-link slot map — the picture every TDMA
//! paper draws:
//!
//! ```text
//! frame: 16 slots x 250 us
//! l0  |##..............|
//! l2  |..##............|
//! l4  |....##..........|
//! ```
//!
//! Each row is one link; `#` marks its reserved minislots. Links sharing
//! columns are transmitting simultaneously (spatial reuse).

use std::fmt::Write as _;

use crate::Schedule;

/// Renders `schedule` as an ASCII slot map, one row per scheduled link in
/// id order.
///
/// Frames wider than `max_cols` are truncated with a `>` marker so logs
/// stay readable; pass `u32::MAX` to never truncate.
///
/// # Example
///
/// ```
/// use std::collections::BTreeMap;
/// use wimesh_tdma::{render, FrameConfig, Schedule, SlotRange};
/// use wimesh_topology::LinkId;
///
/// let mut ranges = BTreeMap::new();
/// ranges.insert(LinkId(0), SlotRange::new(0, 2));
/// let sched = Schedule::from_ranges(FrameConfig::new(4, 250), ranges)?;
/// assert!(render::render_schedule(&sched, 16).contains("l0 |##..|"));
/// # Ok::<(), wimesh_tdma::ScheduleError>(())
/// ```
pub fn render_schedule(schedule: &Schedule, max_cols: u32) -> String {
    let render_start = std::time::Instant::now();
    let slots = schedule.frame().slots();
    let shown = slots.min(max_cols.max(1));
    let truncated = shown < slots;
    let label_width = schedule
        .links()
        .map(|l| l.to_string().len())
        .max()
        .unwrap_or(2);

    let mut out = String::new();
    let _ = writeln!(
        out,
        "frame: {} slots x {} us{}",
        slots,
        schedule.frame().slot_duration_us(),
        if truncated {
            format!(" (showing first {shown})")
        } else {
            String::new()
        }
    );
    for (link, range) in schedule.iter() {
        let _ = write!(out, "{:<label_width$} |", link.to_string());
        for s in 0..shown {
            out.push(if s >= range.start && u64::from(s) < range.end() {
                '#'
            } else {
                '.'
            });
        }
        out.push(if truncated { '>' } else { '|' });
        out.push('\n');
    }
    if schedule.is_empty() {
        out.push_str("(no links scheduled)\n");
    }
    wimesh_obs::record_duration("tdma.render.time", render_start.elapsed());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FrameConfig, SlotRange};
    use std::collections::BTreeMap;
    use wimesh_topology::LinkId;

    fn sample() -> Schedule {
        let mut ranges = BTreeMap::new();
        ranges.insert(LinkId(0), SlotRange::new(0, 2));
        ranges.insert(LinkId(2), SlotRange::new(2, 3));
        ranges.insert(LinkId(10), SlotRange::new(0, 1));
        Schedule::from_ranges(FrameConfig::new(8, 250), ranges).unwrap()
    }

    #[test]
    fn renders_rows_and_reuse() {
        let s = render_schedule(&sample(), 64);
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines[0], "frame: 8 slots x 250 us");
        assert_eq!(lines[1], "l0  |##......|");
        assert_eq!(lines[2], "l2  |..###...|");
        // l10 shares slot 0 with l0 — reuse is visible as aligned '#'.
        assert_eq!(lines[3], "l10 |#.......|");
        assert_eq!(lines.len(), 4);
    }

    #[test]
    fn truncation_marks_rows() {
        let s = render_schedule(&sample(), 4);
        assert!(s.contains("showing first 4"));
        assert!(s.lines().nth(1).unwrap().ends_with('>'));
        // Occupied cells beyond the cut are simply not shown.
        assert_eq!(s.lines().nth(1).unwrap(), "l0  |##..>");
    }

    #[test]
    fn empty_schedule() {
        let empty = Schedule::from_ranges(FrameConfig::new(4, 100), BTreeMap::new()).unwrap();
        let s = render_schedule(&empty, 16);
        assert!(s.contains("no links scheduled"));
    }
}
