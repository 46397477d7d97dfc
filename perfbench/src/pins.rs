//! Pinned outputs of the default seed: simulated cycles and image hash
//! of every simulator cell, one `workload scene point policy cycles
//! image` line each in `pins.txt` (regenerate with `--print-pins`).

use crate::sim::Cell;

const PINS: &str = include_str!("../pins.txt");

/// The pin key of `cell` in `workload`.
pub fn key(workload: &str, cell: &Cell) -> String {
    format!(
        "{workload} {} {} {}",
        cell.scene_name,
        cell.point,
        cell.policy.label()
    )
}

/// The pinned `(cycles, image hash)` of `key`, if pinned.
pub fn lookup(key: &str) -> Option<(u64, u64)> {
    PINS.lines().find_map(|line| {
        let mut fields = line.rsplitn(3, ' ');
        let image = u64::from_str_radix(fields.next()?, 16).ok()?;
        let cycles = fields.next()?.parse().ok()?;
        (fields.next()? == key).then_some((cycles, image))
    })
}
