use crate::{Controller, ControllerCounters};
use faults::FaultPlan;
use sideband::{Sideband, SidebandConfig, Snapshot};
use std::fmt;
use wormsim::{CongestionControl, Network};

/// Staleness-watchdog horizon, in gathers: once the newest visible
/// aggregate is this many gathers overdue, a [`Guarded`] controller trips.
pub const WATCHDOG_GATHERS: u64 = 8;

/// The decision logic of a side-band controller: what it does with each
/// newly visible snapshot, and how it gates injection between them.
///
/// A policy never sees the side-band transport. Snapshot-edge detection,
/// the staleness watchdog, fail-open, the last-good threshold and the
/// checkpoint walk of all of those live in [`Guarded`], which calls these
/// hooks in a fixed order each cycle:
///
/// 1. [`Policy::on_rearm`] then [`Policy::on_snapshot`] when a new
///    aggregate is visible (re-arm only if the watchdog had tripped);
/// 2. [`Policy::on_trip`] when the watchdog trips;
/// 3. [`Policy::gate`] (skipped while tripped: the gate fails open), then
///    [`Policy::on_gate`] with the resulting throttle decision.
pub trait Policy: Clone + fmt::Debug {
    /// The controller's configuration (side-band parameters included).
    type Config: Clone + fmt::Debug;

    /// Short name used in experiment tables.
    const NAME: &'static str;

    /// The side-band the configuration asks for.
    fn sideband(cfg: &Self::Config) -> &SidebandConfig;

    /// Fresh policy state for a network of `total_buffers` VC buffers.
    fn new(cfg: &Self::Config, total_buffers: f64) -> Self;

    /// The census shipped over the side-band each cycle. Default: the
    /// network-wide count of full VC buffers.
    fn census(net: &Network) -> u32 {
        net.full_buffer_count()
    }

    /// Folds one newly visible snapshot. Returns `true` when a decision
    /// closed, i.e. when the current threshold may become the last-good
    /// one the watchdog falls back to.
    fn on_snapshot(&mut self, cfg: &Self::Config, snap: Snapshot) -> bool;

    /// The watchdog tripped: the estimate is fiction until data returns.
    /// `last_good` is the threshold after the most recent decision taken
    /// while the side-band rejected nothing.
    fn on_trip(&mut self, last_good: f64);

    /// A new aggregate ended an outage; called before its
    /// [`Policy::on_snapshot`]. Default: nothing to discard.
    fn on_rearm(&mut self) {}

    /// Whether to block injection this cycle while the watchdog is armed.
    /// Default: the side-band estimate exceeds the threshold.
    fn gate(&self, sideband: &Sideband, now: u64) -> bool {
        sideband.estimate(now) > self.threshold()
    }

    /// Sees every cycle's final throttle decision. Default: ignored.
    fn on_gate(&mut self, throttling: bool) {
        let _ = throttling;
    }

    /// The current injection-gate threshold, in census units.
    fn threshold(&self) -> f64;

    /// Decision counters (the watchdog fields are filled in by
    /// [`Guarded`]).
    fn counters(&self) -> ControllerCounters;

    /// Serializes the policy state into `enc`.
    fn save(&self, enc: &mut checkpoint::Enc);

    /// Reads back state written by [`Policy::save`] for a policy built from
    /// `cfg` (configuration is never written).
    ///
    /// # Errors
    ///
    /// Returns a [`checkpoint::CheckpointError`] on a truncated or
    /// structurally invalid stream.
    fn restore(
        cfg: &Self::Config,
        dec: &mut checkpoint::Dec<'_>,
    ) -> Result<Self, checkpoint::CheckpointError>;
}

/// A side-band controller: the guarded front end every estimate-gated
/// scheme shares, around the scheme's own [`Policy`].
///
/// The front end owns the side-band and everything that keeps a policy
/// honest when the side-band misbehaves. It folds each aggregate into the
/// policy exactly once. When aggregates stop arriving for
/// [`WATCHDOG_GATHERS`] gathers, it trips: it hands the policy the
/// last-good threshold and fails open (stops throttling on a stale
/// estimate). The next aggregate re-arms it.
///
/// Policy state initializes on the first cycle, sized by the network's
/// VC-buffer count (or by the side-band's formula on the synthetic
/// [`Controller::observe_census`] path).
#[derive(Debug, Clone)]
pub struct Guarded<P: Policy> {
    cfg: P::Config,
    sideband: Sideband,
    state: Option<FrontState<P>>,
}

#[derive(Debug, Clone)]
struct FrontState<P> {
    policy: P,
    throttling_now: bool,
    /// `taken_at` of the newest snapshot already folded into the policy.
    last_snapshot_seen: Option<u64>,
    /// Threshold after the most recent decision that saw no side-band
    /// rejections: the value restored when the watchdog trips.
    last_good_threshold: f64,
    /// Watchdog tripped: policy frozen, gate open until a valid aggregate
    /// arrives.
    frozen: bool,
    /// Side-band rejection count already accounted for.
    rejected_seen: u64,
    watchdog_trips: u64,
    watchdog_rearms: u64,
}

impl<P: Policy> FrontState<P> {
    fn new(policy: P) -> Self {
        FrontState {
            last_good_threshold: policy.threshold(),
            policy,
            throttling_now: false,
            last_snapshot_seen: None,
            frozen: false,
            rejected_seen: 0,
            watchdog_trips: 0,
            watchdog_rearms: 0,
        }
    }
}

impl<P: Policy> Guarded<P> {
    /// Creates a controller; policy state initializes on the first cycle.
    #[must_use]
    pub fn new(cfg: P::Config) -> Self {
        Guarded {
            sideband: Sideband::new(P::sideband(&cfg).clone()),
            cfg,
            state: None,
        }
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> &P::Config {
        &self.cfg
    }

    /// The policy state (`None` before the first cycle).
    pub(crate) fn policy(&self) -> Option<&P> {
        self.state.as_ref().map(|st| &st.policy)
    }

    /// The current threshold, in census units (`None` before the first
    /// cycle).
    #[must_use]
    pub fn threshold(&self) -> Option<f64> {
        self.policy().map(P::threshold)
    }
}

impl<P: Policy> CongestionControl for Guarded<P> {
    fn on_cycle(&mut self, now: u64, net: &Network) {
        self.state.get_or_insert_with(|| {
            FrontState::new(P::new(&self.cfg, f64::from(net.total_vc_buffers())))
        });
        Controller::observe_census(self, now, P::census(net), net.delivered_flits_cum());
    }

    fn allow_injection(&mut self, _now: u64, _node: usize, _dst: usize, _net: &Network) -> bool {
        !Controller::throttling(self)
    }

    fn throttled_recently(&self) -> bool {
        Controller::throttling(self)
    }

    fn name(&self) -> &'static str {
        P::NAME
    }
}

impl<P: Policy> Controller for Guarded<P> {
    fn observe_census(&mut self, now: u64, census: u32, delivered_cum: u64) {
        let st = self.state.get_or_insert_with(|| {
            FrontState::new(P::new(
                &self.cfg,
                f64::from(self.sideband.max_full_buffers()),
            ))
        });

        self.sideband.on_cycle(now, census, delivered_cum);

        if let Some(snap) = self.sideband.latest() {
            if st.last_snapshot_seen != Some(snap.taken_at) {
                st.last_snapshot_seen = Some(snap.taken_at);
                if st.frozen {
                    st.frozen = false;
                    st.watchdog_rearms += 1;
                    st.rejected_seen = self.sideband.stats().rejected();
                    st.policy.on_rearm();
                }
                if st.policy.on_snapshot(&self.cfg, snap) {
                    // A decision taken while receivers rejected nothing is
                    // trustworthy: remember its threshold as the fallback.
                    let rejected = self.sideband.stats().rejected();
                    if rejected == st.rejected_seen {
                        st.last_good_threshold = st.policy.threshold();
                    }
                    st.rejected_seen = rejected;
                }
            }
        }

        if !st.frozen && self.sideband.gathers_overdue(now) >= WATCHDOG_GATHERS {
            st.frozen = true;
            st.watchdog_trips += 1;
            st.policy.on_trip(st.last_good_threshold);
        }

        st.throttling_now = !st.frozen && st.policy.gate(&self.sideband, now);
        st.policy.on_gate(st.throttling_now);
    }

    fn throttling(&self) -> bool {
        self.state.as_ref().is_some_and(|st| st.throttling_now)
    }

    fn threshold(&self) -> Option<f64> {
        Guarded::threshold(self)
    }

    fn set_faults(&mut self, plan: FaultPlan) {
        self.sideband.set_faults(plan);
    }

    fn sideband(&self) -> Option<&Sideband> {
        Some(&self.sideband)
    }

    fn watchdog_active(&self) -> bool {
        self.state.as_ref().is_some_and(|st| st.frozen)
    }

    fn counters(&self) -> ControllerCounters {
        self.state
            .as_ref()
            .map_or_else(ControllerCounters::default, |st| ControllerCounters {
                watchdog_trips: st.watchdog_trips,
                watchdog_rearms: st.watchdog_rearms,
                ..st.policy.counters()
            })
    }

    fn save_state(&self, enc: &mut checkpoint::Enc) {
        self.sideband.save_state(enc);
        enc.bool(self.state.is_some());
        if let Some(st) = &self.state {
            st.policy.save(enc);
            enc.bool(st.throttling_now);
            enc.opt_u64(st.last_snapshot_seen);
            enc.f64(st.last_good_threshold);
            enc.bool(st.frozen);
            enc.u64(st.rejected_seen);
            enc.u64(st.watchdog_trips);
            enc.u64(st.watchdog_rearms);
        }
    }

    fn restore_state(
        &mut self,
        dec: &mut checkpoint::Dec<'_>,
    ) -> Result<(), checkpoint::CheckpointError> {
        self.sideband.restore_state(dec)?;
        self.state = if dec.bool()? {
            Some(FrontState {
                policy: P::restore(&self.cfg, dec)?,
                throttling_now: dec.bool()?,
                last_snapshot_seen: dec.opt_u64()?,
                last_good_threshold: dec.f64()?,
                frozen: dec.bool()?,
                rejected_seen: dec.u64()?,
                watchdog_trips: dec.u64()?,
                watchdog_rearms: dec.u64()?,
            })
        } else {
            None
        };
        Ok(())
    }
}

#[cfg(test)]
pub(crate) mod testing {
    use sideband::SidebandConfig;
    use wormsim::{CongestionControl, DeadlockMode, NetConfig, Network};

    /// The side-band of the small (8-ary 2-cube) network.
    pub(crate) fn small_sideband() -> SidebandConfig {
        SidebandConfig {
            radix: 8,
            ..SidebandConfig::paper()
        }
    }

    /// Drives `ctl` against a flooded small network for `cycles` cycles.
    pub(crate) fn flood(ctl: &mut impl CongestionControl, cycles: u64) {
        let mut net = Network::new(NetConfig::small(DeadlockMode::PAPER_RECOVERY)).unwrap();
        let nodes = net.torus().node_count();
        let mut i = 0usize;
        let mut source = move |_now: u64, node: usize| {
            i = i.wrapping_add(node + 1);
            Some((node + 1 + i) % nodes)
        };
        for _ in 0..cycles {
            net.cycle(&mut source, ctl);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::testing::{flood, small_sideband};
    use super::*;
    use crate::{
        AimdConfig, AimdPolicy, BbrConfig, BbrPolicy, DecBitConfig, DecBitPolicy, TuneConfig,
        TunePolicy,
    };
    use faults::SidebandFaults;

    /// Runs `$check::<Policy>(config)` for every guarded controller, on the
    /// small network's side-band.
    macro_rules! each_policy {
        ($check:ident) => {
            $check::<TunePolicy>(TuneConfig {
                sideband: small_sideband(),
                ..TuneConfig::paper()
            });
            $check::<AimdPolicy>(AimdConfig {
                sideband: small_sideband(),
                ..AimdConfig::paper()
            });
            $check::<DecBitPolicy>(DecBitConfig {
                sideband: small_sideband(),
                ..DecBitConfig::paper()
            });
            $check::<BbrPolicy>(BbrConfig {
                sideband: small_sideband(),
                ..BbrConfig::paper()
            });
        };
    }

    fn faulted<P: Policy>(cfg: P::Config, faults: SidebandFaults) -> Guarded<P> {
        let mut ctl = Guarded::<P>::new(cfg);
        ctl.set_faults(FaultPlan::sideband_only(11, faults));
        ctl
    }

    /// A total blackout trips the watchdog once and for good: the policy
    /// takes no decision, the gate fails open, and the threshold falls
    /// back to the last-good value (the initial one, as nothing was ever
    /// decided).
    #[test]
    fn blackout_trips_once_and_fails_open_at_the_last_good_threshold() {
        fn check<P: Policy>(cfg: P::Config) {
            let name = P::NAME;
            let mut ctl = faulted::<P>(
                cfg,
                SidebandFaults {
                    loss_rate: 1.0,
                    ..SidebandFaults::none()
                },
            );
            flood(&mut ctl, 5_000);
            let c = ctl.counters();
            assert_eq!(c.watchdog_trips, 1, "{name}: one outage, one trip");
            assert_eq!(c.watchdog_rearms, 0, "{name}: outage never ends");
            assert!(ctl.watchdog_active(), "{name}: outage never ends");
            assert!(!ctl.throttling(), "{name}: a frozen controller fails open");
            assert_eq!(c.decisions, 0, "{name}: no aggregates, no decisions");
            let st = ctl.state.as_ref().expect("initialized");
            let initial = P::new(ctl.config(), f64::from(ctl.sideband.max_full_buffers()));
            assert_eq!(st.last_good_threshold, initial.threshold(), "{name}");
            assert_eq!(ctl.threshold(), Some(st.last_good_threshold), "{name}");
            assert!(ctl.sideband.stats().lost_snapshots > 100, "{name}");
            assert!(ctl.sideband.latest().is_none(), "{name}: nothing arrived");
        }
        each_policy!(check);
    }

    /// Every gather delayed by up to 50 gather periods: long silences trip
    /// the watchdog, and each late arrival then re-arms it.
    #[test]
    fn late_aggregates_rearm_the_watchdog() {
        fn check<P: Policy>(cfg: P::Config) {
            let name = P::NAME;
            let period = P::sideband(&cfg).gather_period();
            let mut ctl = faulted::<P>(
                cfg,
                SidebandFaults {
                    delay_rate: 1.0,
                    max_delay: 50 * period,
                    ..SidebandFaults::none()
                },
            );
            flood(&mut ctl, 20_000);
            let c = ctl.counters();
            assert!(
                c.watchdog_trips >= 1,
                "{name}: long delays look like outages"
            );
            assert!(
                c.watchdog_rearms >= 1,
                "{name}: late aggregates must re-arm"
            );
            assert!(c.watchdog_rearms <= c.watchdog_trips, "{name}");
        }
        each_policy!(check);
    }

    #[test]
    fn fault_free_watchdog_stays_quiet() {
        fn check<P: Policy>(cfg: P::Config) {
            let name = P::NAME;
            let mut ctl = Guarded::<P>::new(cfg);
            flood(&mut ctl, 10_000);
            let c = ctl.counters();
            assert_eq!((c.watchdog_trips, c.watchdog_rearms), (0, 0), "{name}");
            assert!(!ctl.watchdog_active(), "{name}");
            assert!(c.decisions > 0, "{name}");
        }
        each_policy!(check);
    }
}
