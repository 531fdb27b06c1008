//! Network links, routing and the perturbing-traffic model.

#[cfg(msplit_serde)]
use serde::{Deserialize, Serialize};

/// A point-to-point (or shared-medium) link characterized by bandwidth and
/// latency.
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(msplit_serde, derive(Serialize, Deserialize))]
pub struct LinkSpec {
    /// Nominal bandwidth in megabits per second.
    pub bandwidth_mbps: f64,
    /// One-way latency in seconds.
    pub latency_s: f64,
}

impl LinkSpec {
    /// The paper's 100 Mb/s switched Ethernet LAN.
    pub fn lan_100mb() -> Self {
        LinkSpec {
            bandwidth_mbps: 100.0,
            latency_s: 100e-6,
        }
    }

    /// The paper's 20 Mb/s inter-site Internet link.
    pub fn wan_20mb() -> Self {
        LinkSpec {
            bandwidth_mbps: 20.0,
            latency_s: 10e-3,
        }
    }

    /// Seconds needed to move `bytes` across the link (store-and-forward
    /// model: latency plus serialization time).
    pub fn transfer_seconds(&self, bytes: usize) -> f64 {
        self.latency_s + (bytes as f64 * 8.0) / (self.bandwidth_mbps * 1e6)
    }
}

/// Model of the "perturbing communications" of Table 4: background flows that
/// share the inter-site link with the solver traffic.
///
/// The paper observes that the impact is *not* linear in the number of flows
/// ("computations and perturbing tasks interact and slow down each other"),
/// which a fair-share model reproduces: with `k` background flows the solver
/// keeps a `1 / (1 + contention * k)` share of the bandwidth, and every flow
/// also adds queueing latency.
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(msplit_serde, derive(Serialize, Deserialize))]
pub struct PerturbationModel {
    /// Number of perturbing background flows on the inter-site link.
    pub flows: usize,
    /// How aggressively each flow competes for bandwidth (1.0 = perfect fair
    /// share with an equal-rate flow; the paper's measurements are matched
    /// reasonably by ~0.6, i.e. the perturbing ftp-like transfers do not
    /// saturate their share).
    pub contention: f64,
    /// Additional queueing latency contributed by each flow, in seconds.
    pub added_latency_per_flow_s: f64,
}

impl PerturbationModel {
    /// No background traffic.
    pub fn none() -> Self {
        PerturbationModel {
            flows: 0,
            contention: 0.6,
            added_latency_per_flow_s: 2e-3,
        }
    }

    /// Applies the perturbation to a link, returning the effective link seen
    /// by the solver's messages.
    pub fn apply(&self, link: &LinkSpec) -> LinkSpec {
        let share = 1.0 / (1.0 + self.contention * self.flows as f64);
        LinkSpec {
            bandwidth_mbps: link.bandwidth_mbps * share,
            latency_s: link.latency_s + self.added_latency_per_flow_s * self.flows as f64,
        }
    }
}

/// Network model of a whole grid: an intra-site link specification, an
/// inter-site link specification, and the perturbation applied to the
/// inter-site link.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(msplit_serde, derive(Serialize, Deserialize))]
pub struct NetworkModel {
    /// Link used between two machines of the same site.
    pub intra_site: LinkSpec,
    /// Link used between machines of different sites.
    pub inter_site: LinkSpec,
    /// Background traffic on the inter-site link.
    pub perturbation: PerturbationModel,
}

impl NetworkModel {
    /// A single-site LAN (no inter-site traffic ever happens, but the field
    /// is populated with the same LAN for completeness).
    pub fn single_site_lan() -> Self {
        NetworkModel {
            intra_site: LinkSpec::lan_100mb(),
            inter_site: LinkSpec::lan_100mb(),
            perturbation: PerturbationModel::none(),
        }
    }

    /// The paper's two-site configuration: 100 Mb LANs joined by a 20 Mb WAN.
    pub fn two_site_wan() -> Self {
        NetworkModel {
            intra_site: LinkSpec::lan_100mb(),
            inter_site: LinkSpec::wan_20mb(),
            perturbation: PerturbationModel::none(),
        }
    }

    /// Returns this model with `flows` perturbing background flows.
    pub fn with_perturbing_flows(mut self, flows: usize) -> Self {
        self.perturbation.flows = flows;
        self
    }

    /// The effective link between two machines given their site indices.
    pub fn link_between(&self, site_a: usize, site_b: usize) -> LinkSpec {
        if site_a == site_b {
            self.intra_site
        } else {
            self.perturbation.apply(&self.inter_site)
        }
    }

    /// Seconds to transfer `bytes` between machines on the given sites.
    pub fn transfer_seconds(&self, site_a: usize, site_b: usize, bytes: usize) -> f64 {
        self.link_between(site_a, site_b).transfer_seconds(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lan_transfers_are_fast_and_linear_in_size() {
        let lan = LinkSpec::lan_100mb();
        let t1 = lan.transfer_seconds(125_000); // 1 Mb
        let t2 = lan.transfer_seconds(250_000);
        assert!(t1 > 0.0);
        assert!(t2 > t1);
        // 1 Mb over 100 Mb/s is 10 ms plus latency
        assert!((t1 - (0.01 + lan.latency_s)).abs() < 1e-9);
    }

    #[test]
    fn wan_is_slower_than_lan() {
        let bytes = 1_000_000;
        assert!(
            LinkSpec::wan_20mb().transfer_seconds(bytes)
                > LinkSpec::lan_100mb().transfer_seconds(bytes)
        );
    }

    #[test]
    fn perturbation_reduces_effective_bandwidth_nonlinearly() {
        let wan = LinkSpec::wan_20mb();
        let with_flows = |flows| PerturbationModel {
            flows,
            ..PerturbationModel::none()
        };
        let t0 = with_flows(0).apply(&wan);
        let t1 = with_flows(1).apply(&wan);
        let t5 = with_flows(5).apply(&wan);
        let t10 = with_flows(10).apply(&wan);
        assert_eq!(t0.bandwidth_mbps, wan.bandwidth_mbps);
        assert!(t1.bandwidth_mbps < t0.bandwidth_mbps);
        assert!(t5.bandwidth_mbps < t1.bandwidth_mbps);
        assert!(t10.bandwidth_mbps < t5.bandwidth_mbps);
        // The marginal impact of each extra flow decreases (fair-share curve).
        let d1 = t0.bandwidth_mbps - t1.bandwidth_mbps;
        let d10 = t5.bandwidth_mbps - t10.bandwidth_mbps;
        assert!(d10 < 5.0 * d1);
        // Latency increases with the number of flows.
        assert!(t10.latency_s > t0.latency_s);
    }

    #[test]
    fn network_model_routes_by_site() {
        let net = NetworkModel::two_site_wan().with_perturbing_flows(2);
        let intra = net.link_between(0, 0);
        let inter = net.link_between(0, 1);
        assert_eq!(intra.bandwidth_mbps, 100.0);
        assert!(inter.bandwidth_mbps < 20.0);
        assert!(net.transfer_seconds(0, 1, 10_000) > net.transfer_seconds(0, 0, 10_000));
    }
}
