use crate::{ControllerCounters, Guarded, Policy};
use sideband::{Sideband, SidebandConfig, Snapshot};
use wormsim::Network;

/// Configuration of the DEC-bit-style controller.
#[derive(Debug, Clone, PartialEq)]
pub struct DecBitConfig {
    /// Side-band gather network parameters. The census this controller
    /// ships over it is the *congested-node count* (nodes with at least one
    /// full VC buffer — each node's congestion bit), not the full-buffer
    /// total.
    pub sideband: SidebandConfig,
    /// Averaging window, in gathers (the DEC scheme filters over the last
    /// busy+idle window; a fixed snapshot window is its side-band analogue).
    pub window_gathers: u32,
    /// Throttle while the windowed average congested-node fraction is at or
    /// above this value (0.5 — the scheme's "≥ 50% of bits set" rule).
    pub congested_fraction: f64,
}

impl DecBitConfig {
    /// Defaults on the paper's network: a four-gather window and the
    /// original 50% congested-bit rule.
    #[must_use]
    pub fn paper() -> Self {
        DecBitConfig {
            sideband: SidebandConfig::paper(),
            window_gathers: 4,
            congested_fraction: 0.5,
        }
    }

    /// Number of nodes whose congestion bits the census aggregates.
    #[must_use]
    pub fn node_count(&self) -> u32 {
        (self.sideband.radix.pow(self.sideband.dimensions as u32)) as u32
    }
}

/// **DEC-bit-style** binary-feedback control (Jain, Ramakrishnan & Chiu,
/// DEC-TR-506) adapted to the interconnect: every router sets a congestion
/// bit when any of its VC buffers is full, the side-band aggregates the
/// count of set bits, and sources throttle while the *average* over a
/// window of recent snapshots says at least half the nodes are congested.
///
/// Unlike the threshold schemes there is no estimate-vs-threshold gate and
/// no extrapolation: the decision ([`DecBitPolicy`]) is a low-pass filter
/// over binary per-node feedback, which is exactly what makes it a useful
/// rival — it reacts to congestion *extent* (how many nodes are hot), not
/// *depth* (how full the hot ones are).
pub type DecBitControl = Guarded<DecBitPolicy>;

/// DEC-bit's decision state: the snapshot window and its verdict.
#[derive(Debug, Clone)]
pub struct DecBitPolicy {
    /// The fixed gate level, in congested nodes (configuration).
    threshold: f64,
    /// Congested-node counts of the last `window_gathers` snapshots,
    /// oldest first.
    window: Vec<u32>,
    /// The window verdict of the newest snapshot.
    congested: bool,
    snapshots: u64,
    congested_verdicts: u64,
    clear_verdicts: u64,
}

impl DecBitPolicy {
    /// The window-filter decision: congested iff the average congested-node
    /// count over the window is at or above `congested_fraction` of all
    /// nodes. An empty window (start-up, post-outage) is never congested.
    #[must_use]
    pub fn window_congested(window: &[u32], congested_fraction: f64, node_count: f64) -> bool {
        if window.is_empty() {
            return false;
        }
        let avg = window.iter().map(|&c| f64::from(c)).sum::<f64>() / window.len() as f64;
        avg >= congested_fraction * node_count
    }

    fn threshold_for(cfg: &DecBitConfig) -> f64 {
        cfg.congested_fraction * f64::from(cfg.node_count())
    }
}

impl Policy for DecBitPolicy {
    type Config = DecBitConfig;
    const NAME: &'static str = "decbit";

    fn sideband(cfg: &DecBitConfig) -> &SidebandConfig {
        &cfg.sideband
    }

    fn new(cfg: &DecBitConfig, _total_buffers: f64) -> Self {
        DecBitPolicy {
            threshold: Self::threshold_for(cfg),
            window: Vec::new(),
            congested: false,
            snapshots: 0,
            congested_verdicts: 0,
            clear_verdicts: 0,
        }
    }

    /// Each node's congestion bit: any completely full VC buffer at that
    /// node. The census shipped over the side-band is the count of set
    /// bits.
    fn census(net: &Network) -> u32 {
        net.full_buffer_planes()
            .iter()
            .filter(|&&plane| plane != 0)
            .count() as u32
    }

    /// Every snapshot yields a window verdict. None of them moves the
    /// fixed threshold, so none advances the last-good fallback.
    fn on_snapshot(&mut self, cfg: &DecBitConfig, snap: Snapshot) -> bool {
        self.window.push(snap.full_buffers);
        let max = cfg.window_gathers.max(1) as usize;
        if self.window.len() > max {
            self.window.drain(..self.window.len() - max);
        }
        self.snapshots += 1;
        self.congested = Self::window_congested(
            &self.window,
            cfg.congested_fraction,
            f64::from(cfg.node_count()),
        );
        if self.congested {
            self.congested_verdicts += 1;
        } else {
            self.clear_verdicts += 1;
        }
        false
    }

    /// Feedback bits stopped arriving: the window is fiction. Discard it,
    /// so the window refills from scratch once real feedback returns.
    fn on_trip(&mut self, _last_good: f64) {
        self.window.clear();
        self.congested = false;
    }

    /// The gate is the newest window verdict, not an estimate comparison.
    fn gate(&self, _sideband: &Sideband, _now: u64) -> bool {
        self.congested
    }

    fn threshold(&self) -> f64 {
        self.threshold
    }

    fn counters(&self) -> ControllerCounters {
        ControllerCounters {
            decisions: self.snapshots,
            raises: self.clear_verdicts,
            cuts: self.congested_verdicts,
            ..ControllerCounters::default()
        }
    }

    fn save(&self, enc: &mut checkpoint::Enc) {
        enc.u32(self.window.len() as u32);
        for &c in &self.window {
            enc.u32(c);
        }
        enc.bool(self.congested);
        enc.u64(self.snapshots);
        enc.u64(self.congested_verdicts);
        enc.u64(self.clear_verdicts);
    }

    fn restore(
        cfg: &DecBitConfig,
        dec: &mut checkpoint::Dec<'_>,
    ) -> Result<Self, checkpoint::CheckpointError> {
        let len = dec.u32()?;
        let mut window = Vec::new();
        for _ in 0..len {
            window.push(dec.u32()?);
        }
        Ok(DecBitPolicy {
            threshold: Self::threshold_for(cfg),
            window,
            congested: dec.bool()?,
            snapshots: dec.u64()?,
            congested_verdicts: dec.u64()?,
            clear_verdicts: dec.u64()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::guarded::testing::{flood, small_sideband};
    use crate::Controller;

    /// The 50% congested-bit boundary is inclusive: an average of exactly
    /// half the nodes congested throttles; one bit-count less over the
    /// window does not.
    #[test]
    fn fifty_percent_boundary_is_inclusive() {
        let nodes = 64.0;
        // Window of 4 averaging exactly 32 (= 50% of 64): congested.
        assert!(DecBitPolicy::window_congested(
            &[32, 32, 32, 32],
            0.5,
            nodes
        ));
        assert!(DecBitPolicy::window_congested(&[0, 64, 0, 64], 0.5, nodes));
        // One congested-node observation fewer: average 31.75 < 32, clear.
        assert!(!DecBitPolicy::window_congested(
            &[32, 32, 32, 31],
            0.5,
            nodes
        ));
        assert!(!DecBitPolicy::window_congested(
            &[31, 33, 32, 31],
            0.5,
            nodes
        ));
    }

    #[test]
    fn empty_window_is_never_congested() {
        assert!(!DecBitPolicy::window_congested(&[], 0.5, 64.0));
    }

    #[test]
    fn average_not_latest_decides() {
        // Latest snapshot fully congested, but the window average is still
        // below half: the filter must smooth the spike away.
        assert!(!DecBitPolicy::window_congested(&[0, 0, 0, 64], 0.5, 64.0));
        // Three of four at the boundary with one clear snapshot: 48 ≥ 32.
        assert!(DecBitPolicy::window_congested(&[64, 64, 64, 0], 0.5, 64.0));
    }

    #[test]
    fn throttles_a_flooded_network() {
        let mut ctl = DecBitControl::new(DecBitConfig {
            sideband: small_sideband(),
            ..DecBitConfig::paper()
        });
        flood(&mut ctl, 10_000);
        let c = Controller::counters(&ctl);
        assert!(c.decisions > 0);
        assert!(
            c.cuts > 0,
            "a sustained flood must congest a majority of nodes"
        );
    }
}
