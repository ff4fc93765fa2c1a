//! Distance-based rate adaptation.
//!
//! Real 802.11 radios pick the highest modulation the link budget
//! supports: short links run at 54 Mbit/s, long ones fall back toward the
//! base rate. A multi-hop mesh therefore has *per-link* capacities, and a
//! minislot moves different byte counts on different links — which the
//! emulation's demand mapping has to know.
//!
//! The model here is the standard log-distance one: the SNR needed for a
//! rate grows with the rate, and with path-loss exponent `alpha` the
//! usable range of rate `r` relative to the base rate `b` scales as
//! `(b / r)^(1/alpha)`. The table anchors the *base* rate at
//! `base_range_m` and derives every other rate's range from that.

use crate::PhyStandard;

/// A monotone rate-vs-distance table for one PHY.
#[derive(Debug, Clone, PartialEq)]
pub struct RateTable {
    phy: PhyStandard,
    /// `(max_distance_m, rate_mbps)` rows, ascending distance /
    /// descending rate.
    rows: Vec<(f64, f64)>,
}

impl RateTable {
    /// Builds the table for `phy`, anchoring the base (most robust) rate
    /// at `base_range_m` meters with path-loss exponent `alpha`
    /// (3.0 suits suburban rooftop meshes).
    ///
    /// # Panics
    ///
    /// Panics unless `base_range_m > 0` and `alpha > 0`.
    pub fn new(phy: PhyStandard, base_range_m: f64, alpha: f64) -> Self {
        assert!(base_range_m > 0.0, "base range must be positive");
        assert!(alpha > 0.0, "path-loss exponent must be positive");
        let base = phy.base_rate_mbps();
        let mut rows: Vec<(f64, f64)> = phy
            .rates_mbps()
            .iter()
            .map(|&rate| {
                let range = base_range_m * (base / rate).powf(1.0 / alpha);
                (range, rate)
            })
            .collect();
        rows.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("ranges are finite"));
        Self { phy, rows }
    }

    /// The default mesh profile: base rate reaches 400 m, alpha = 3.
    pub fn mesh_default(phy: PhyStandard) -> Self {
        Self::new(phy, 400.0, 3.0)
    }

    /// The PHY this table is for.
    pub fn phy(&self) -> PhyStandard {
        self.phy
    }

    /// Highest rate usable at `distance_m`, or `None` when the link is
    /// beyond even the base rate's reach.
    pub fn rate_for_distance(&self, distance_m: f64) -> Option<f64> {
        self.rows
            .iter()
            .find(|&&(range, _)| distance_m <= range)
            .map(|&(_, rate)| rate)
    }

    /// The `(max_distance_m, rate_mbps)` rows, nearest/fastest first.
    pub fn rows(&self) -> &[(f64, f64)] {
        &self.rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monotone_rate_vs_distance() {
        let t = RateTable::mesh_default(PhyStandard::Dot11a);
        let mut prev = f64::INFINITY;
        for d in [10.0, 50.0, 100.0, 200.0, 300.0, 400.0] {
            let r = t.rate_for_distance(d).expect("within range");
            assert!(r <= prev, "rate must fall with distance");
            prev = r;
        }
        assert_eq!(t.rate_for_distance(0.1), Some(54.0));
        assert_eq!(t.rate_for_distance(400.0), Some(6.0));
        assert_eq!(t.rate_for_distance(401.0), None);
    }

    #[test]
    fn base_rate_anchored() {
        for phy in [
            PhyStandard::Dot11a,
            PhyStandard::Dot11b,
            PhyStandard::Dot11g,
        ] {
            let t = RateTable::new(phy, 250.0, 3.0);
            assert_eq!(t.rate_for_distance(250.0), Some(phy.base_rate_mbps()));
        }
    }

    #[test]
    fn higher_alpha_compresses_ranges() {
        let harsh = RateTable::new(PhyStandard::Dot11a, 400.0, 2.0);
        let mild = RateTable::new(PhyStandard::Dot11a, 400.0, 4.0);
        // At alpha=2 the fast rates reach less far than at alpha=4.
        let d54_harsh = harsh.rows().first().unwrap().0;
        let d54_mild = mild.rows().first().unwrap().0;
        assert!(d54_harsh < d54_mild);
    }

    #[test]
    fn rows_cover_all_rates() {
        let t = RateTable::mesh_default(PhyStandard::Dot11g);
        assert_eq!(t.rows().len(), PhyStandard::Dot11g.rates_mbps().len());
    }

    #[test]
    #[should_panic(expected = "base range")]
    fn zero_range_rejected() {
        let _ = RateTable::new(PhyStandard::Dot11a, 0.0, 3.0);
    }
}
