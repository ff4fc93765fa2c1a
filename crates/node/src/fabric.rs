//! The message fabric: a deterministic, fault-injecting radio channel.
//!
//! Every frame a node broadcasts is delivered to each radio neighbour
//! independently through the directed link between them, and each
//! delivery is subjected to the fabric's faults:
//!
//! * **loss** — one [`LossModel`], run on every link independently:
//!   Bernoulli (independent drops) or Gilbert–Elliott (a two-state
//!   burst-loss chain per link, the classic model of fading WiFi
//!   channels);
//! * **delay** — a fixed base latency plus uniform jitter;
//! * **cuts** — a link (or a whole partition boundary) can be severed
//!   outright and later healed.
//!
//! The fabric is purely a per-delivery oracle: the runtime asks
//! [`Fabric::deliver`] for each `(link)` delivery and gets back either a
//! delay to schedule the reception at, or `None` (dropped). All
//! randomness comes from the caller's seeded RNG, so identical seeds
//! replay identical fault patterns.

use std::collections::BTreeSet;
use std::time::Duration;

use rand::Rng;
use wimesh_topology::{LinkId, MeshTopology, NodeId};

use crate::NodeError;

/// Per-link loss process of the fabric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LossModel {
    /// Every delivery succeeds.
    None,
    /// Independent loss with probability `p` per delivery.
    Bernoulli {
        /// Drop probability in `[0, 1]`.
        p: f64,
    },
    /// Two-state Gilbert–Elliott burst-loss chain: deliveries drop with
    /// `loss_good` in the good state and `loss_bad` in the bad state;
    /// the chain enters the bad state with `p_enter_bad` and leaves it
    /// with `p_exit_bad`, sampled once per delivery.
    GilbertElliott {
        /// Good → bad transition probability per delivery.
        p_enter_bad: f64,
        /// Bad → good transition probability per delivery.
        p_exit_bad: f64,
        /// Drop probability in the good state.
        loss_good: f64,
        /// Drop probability in the bad state.
        loss_bad: f64,
    },
}

impl LossModel {
    /// Checks every probability is finite and within `[0, 1]`.
    ///
    /// # Errors
    ///
    /// [`NodeError::Config`] naming the offending parameter.
    pub fn validate(&self) -> Result<(), NodeError> {
        let check = |name: &str, p: f64| {
            if p.is_finite() && (0.0..=1.0).contains(&p) {
                Ok(())
            } else {
                Err(NodeError::Config(format!(
                    "loss probability {name} must be in [0, 1], got {p}"
                )))
            }
        };
        match *self {
            LossModel::None => Ok(()),
            LossModel::Bernoulli { p } => check("p", p),
            LossModel::GilbertElliott {
                p_enter_bad,
                p_exit_bad,
                loss_good,
                loss_bad,
            } => {
                check("p_enter_bad", p_enter_bad)?;
                check("p_exit_bad", p_exit_bad)?;
                check("loss_good", loss_good)?;
                check("loss_bad", loss_bad)
            }
        }
    }
}

/// Fabric-wide configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FabricConfig {
    /// Loss process applied to every link.
    pub default_loss: LossModel,
    /// Fixed propagation + processing latency of every delivery.
    pub base_delay: Duration,
    /// Uniform extra delay in `[0, jitter]` per delivery.
    pub jitter: Duration,
}

impl Default for FabricConfig {
    fn default() -> Self {
        Self {
            default_loss: LossModel::None,
            base_delay: Duration::from_micros(10),
            jitter: Duration::ZERO,
        }
    }
}

/// Lifetime delivery counters of a fabric.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FabricStats {
    /// Deliveries attempted (one per neighbour per broadcast).
    pub attempted: u64,
    /// Deliveries that arrived.
    pub delivered: u64,
    /// Deliveries dropped by the loss process.
    pub lost: u64,
    /// Deliveries blocked by a cut link.
    pub blocked: u64,
}

/// The fault-injecting delivery oracle. See the [module docs](self).
#[derive(Debug, Clone)]
pub struct Fabric {
    config: FabricConfig,
    /// Links currently in the Gilbert–Elliott bad state.
    ge_bad: BTreeSet<LinkId>,
    /// Severed links.
    cut: BTreeSet<LinkId>,
    stats: FabricStats,
}

impl Fabric {
    /// A fabric with the given configuration.
    ///
    /// # Errors
    ///
    /// [`NodeError::Config`] for an invalid default loss model.
    pub fn new(config: FabricConfig) -> Result<Self, NodeError> {
        config.default_loss.validate()?;
        Ok(Self {
            config,
            ge_bad: BTreeSet::new(),
            cut: BTreeSet::new(),
            stats: FabricStats::default(),
        })
    }

    /// Severs one directed link: every delivery over it is blocked until
    /// [`Fabric::heal_link`].
    pub fn cut_link(&mut self, link: LinkId) {
        self.cut.insert(link);
    }

    /// Restores a severed link.
    pub fn heal_link(&mut self, link: LinkId) {
        self.cut.remove(&link);
    }

    /// Severs every link crossing the boundary of `group` (both
    /// directions), partitioning the mesh. Heal with
    /// [`Fabric::heal_all`].
    pub fn partition(&mut self, topo: &MeshTopology, group: &[NodeId]) {
        let inside: BTreeSet<NodeId> = group.iter().copied().collect();
        for node in topo.node_ids() {
            for &l in topo.out_links(node) {
                let link = topo.link(l).expect("out_links are valid");
                if inside.contains(&link.tx) != inside.contains(&link.rx) {
                    self.cut.insert(l);
                }
            }
        }
    }

    /// Restores every severed link.
    pub fn heal_all(&mut self) {
        self.cut.clear();
    }

    /// Whether `link` is currently severed.
    pub fn is_cut(&self, link: LinkId) -> bool {
        self.cut.contains(&link)
    }

    /// Decides the fate of one delivery over `link`: `Some(delay)` if it
    /// arrives that much later, `None` if the channel dropped it.
    pub fn deliver<R: Rng>(&mut self, link: LinkId, rng: &mut R) -> Option<Duration> {
        self.stats.attempted += 1;
        if self.cut.contains(&link) {
            self.stats.blocked += 1;
            return None;
        }
        let p_drop = match self.config.default_loss {
            LossModel::None => 0.0,
            LossModel::Bernoulli { p } => p,
            LossModel::GilbertElliott {
                p_enter_bad,
                p_exit_bad,
                loss_good,
                loss_bad,
            } => {
                // One chain step per delivery, then drop at the state's
                // loss rate.
                let bad = if self.ge_bad.contains(&link) {
                    if rng.gen_bool(p_exit_bad) {
                        self.ge_bad.remove(&link);
                        false
                    } else {
                        true
                    }
                } else if rng.gen_bool(p_enter_bad) {
                    self.ge_bad.insert(link);
                    true
                } else {
                    false
                };
                if bad {
                    loss_bad
                } else {
                    loss_good
                }
            }
        };
        if p_drop > 0.0 && rng.gen_bool(p_drop) {
            self.stats.lost += 1;
            return None;
        }
        self.stats.delivered += 1;
        let jitter_ns = self.config.jitter.as_nanos() as u64;
        let extra = if jitter_ns == 0 {
            Duration::ZERO
        } else {
            Duration::from_nanos(rng.gen_range(0..=jitter_ns))
        };
        Some(self.config.base_delay + extra)
    }

    /// Lifetime delivery counters.
    pub fn stats(&self) -> FabricStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use wimesh_topology::generators;

    #[test]
    fn probabilities_validated() {
        for bad in [-0.1, 1.5, f64::NAN, f64::INFINITY] {
            assert!(LossModel::Bernoulli { p: bad }.validate().is_err());
            assert!(LossModel::GilbertElliott {
                p_enter_bad: 0.1,
                p_exit_bad: 0.5,
                loss_good: 0.0,
                loss_bad: bad,
            }
            .validate()
            .is_err());
        }
        assert!(LossModel::Bernoulli { p: 1.0 }.validate().is_ok());
        assert!(Fabric::new(FabricConfig {
            default_loss: LossModel::Bernoulli { p: 2.0 },
            ..FabricConfig::default()
        })
        .is_err());
    }

    #[test]
    fn lossless_fabric_delivers_everything() {
        let mut fabric = Fabric::new(FabricConfig::default()).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..100 {
            assert!(fabric.deliver(LinkId(0), &mut rng).is_some());
        }
        assert_eq!(fabric.stats().delivered, 100);
        assert_eq!(fabric.stats().lost, 0);
    }

    #[test]
    fn bernoulli_loss_rate_is_roughly_p() {
        let mut fabric = Fabric::new(FabricConfig {
            default_loss: LossModel::Bernoulli { p: 0.3 },
            ..FabricConfig::default()
        })
        .unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..2000 {
            fabric.deliver(LinkId(0), &mut rng);
        }
        let rate = fabric.stats().lost as f64 / fabric.stats().attempted as f64;
        assert!((rate - 0.3).abs() < 0.05, "loss rate {rate}");
    }

    #[test]
    fn gilbert_elliott_bursts_losses() {
        // Long bad dwells at loss_bad=1 produce runs of consecutive
        // drops far longer than a Bernoulli channel of the same mean
        // would.
        let mut fabric = Fabric::new(FabricConfig {
            default_loss: LossModel::GilbertElliott {
                p_enter_bad: 0.02,
                p_exit_bad: 0.1,
                loss_good: 0.0,
                loss_bad: 1.0,
            },
            ..FabricConfig::default()
        })
        .unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let mut longest_run = 0u32;
        let mut run = 0u32;
        for _ in 0..5000 {
            if fabric.deliver(LinkId(0), &mut rng).is_none() {
                run += 1;
                longest_run = longest_run.max(run);
            } else {
                run = 0;
            }
        }
        assert!(fabric.stats().lost > 0);
        assert!(longest_run >= 5, "longest burst {longest_run}");
    }

    #[test]
    fn cut_links_block_and_heal() {
        let mut fabric = Fabric::new(FabricConfig::default()).unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        fabric.cut_link(LinkId(7));
        assert!(fabric.deliver(LinkId(7), &mut rng).is_none());
        assert_eq!(fabric.stats().blocked, 1);
        fabric.heal_link(LinkId(7));
        assert!(fabric.deliver(LinkId(7), &mut rng).is_some());
    }

    #[test]
    fn partition_cuts_exactly_the_boundary() {
        let topo = generators::chain(4);
        let mut fabric = Fabric::new(FabricConfig::default()).unwrap();
        fabric.partition(&topo, &[NodeId(0), NodeId(1)]);
        let boundary_fwd = topo.link_between(NodeId(1), NodeId(2)).unwrap();
        let boundary_rev = topo.link_between(NodeId(2), NodeId(1)).unwrap();
        let inside = topo.link_between(NodeId(0), NodeId(1)).unwrap();
        let outside = topo.link_between(NodeId(2), NodeId(3)).unwrap();
        assert!(fabric.is_cut(boundary_fwd) && fabric.is_cut(boundary_rev));
        assert!(!fabric.is_cut(inside) && !fabric.is_cut(outside));
        fabric.heal_all();
        assert!(!fabric.is_cut(boundary_fwd));
    }

    #[test]
    fn jitter_spreads_delays() {
        let mut fabric = Fabric::new(FabricConfig {
            jitter: Duration::from_micros(50),
            ..FabricConfig::default()
        })
        .unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let delays: Vec<Duration> = (0..50)
            .filter_map(|_| fabric.deliver(LinkId(0), &mut rng))
            .collect();
        let min = delays.iter().min().unwrap();
        let max = delays.iter().max().unwrap();
        assert!(*max > *min, "jitter produced identical delays");
        assert!(*max <= Duration::from_micros(60));
        assert!(*min >= Duration::from_micros(10));
    }
}
