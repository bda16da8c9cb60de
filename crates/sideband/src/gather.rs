use crate::Quantizer;
use faults::{FaultPlan, SidebandField, SnapshotFate};
use std::collections::VecDeque;

/// How receivers turn delayed snapshots into a current-congestion estimate.
///
/// The paper uses linear extrapolation and notes that "any prediction
/// mechanism based on previously observed network states can be used"; the
/// extra variants here exist for that ablation (X1 in DESIGN.md).
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub enum Estimator {
    /// Use the most recent snapshot unchanged until the next one arrives.
    LastSnapshot,
    /// Linearly extrapolate from the two most recent snapshots (the paper's
    /// default; §3.1 reports it is worth 3–5% of throughput).
    #[default]
    LinearExtrapolation,
    /// Exponentially weighted moving average over snapshots with smoothing
    /// factor `alpha` in `(0, 1]` (1 degenerates to
    /// [`Estimator::LastSnapshot`]). Smooths census noise at the cost of
    /// extra lag — the opposite trade to extrapolation.
    Ewma {
        /// Weight of the newest snapshot.
        alpha: f64,
    },
}

/// Configuration of the side-band gather network.
#[derive(Debug, Clone, PartialEq)]
pub struct SidebandConfig {
    /// Torus radix `k`.
    pub radix: usize,
    /// Torus dimension count `n`.
    pub dimensions: usize,
    /// Per-hop side-band delay `h`, in cycles (2 in the paper).
    pub hop_delay: u64,
    /// Virtual channels per physical channel in the data network (3 in the
    /// paper); sizes the full-buffer count's value range for quantization,
    /// range validation and extrapolation clamping.
    pub vcs: usize,
    /// Estimation scheme used by receivers.
    pub estimator: Estimator,
    /// Optional narrow-side-band quantization of the transmitted counts
    /// (models the TR's 9-bit side-band channels).
    pub quantizer: Option<Quantizer>,
}

impl SidebandConfig {
    /// The paper's configuration: 16-ary 2-cube, `h = 2`, linear
    /// extrapolation, full-width (25-bit) side-band.
    #[must_use]
    pub fn paper() -> Self {
        SidebandConfig {
            radix: 16,
            dimensions: 2,
            hop_delay: 2,
            vcs: 3,
            estimator: Estimator::LinearExtrapolation,
            quantizer: None,
        }
    }

    /// The gather duration `g = ceil(k/2) * h * n`, in cycles.
    ///
    /// ```
    /// use sideband::SidebandConfig;
    /// assert_eq!(SidebandConfig::paper().gather_period(), 32);
    /// ```
    #[must_use]
    pub fn gather_period(&self) -> u64 {
        (self.radix as u64).div_ceil(2) * self.hop_delay * self.dimensions as u64
    }
}

/// One network snapshot as seen by receivers: the instantaneous full-buffer
/// count at `taken_at` and the flits delivered network-wide during the
/// gather window ending at `taken_at`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Snapshot {
    /// Cycle at which the snapshot was taken (a multiple of `g`).
    pub taken_at: u64,
    /// Cycle at which every node has received the aggregate (`taken_at + g`).
    pub available_at: u64,
    /// Network-wide count of completely full VC buffers at `taken_at`
    /// (quantized if a [`Quantizer`] is configured).
    pub full_buffers: u32,
    /// Flits delivered network-wide in `[taken_at - g, taken_at)`
    /// (quantized if a [`Quantizer`] is configured).
    pub delivered_flits: u32,
}

/// Fault and degradation event counters of one [`Sideband`] instance,
/// cumulative since construction. All zero on a fault-free side-band.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SidebandStats {
    /// Gathers whose aggregate never reached the receivers.
    pub lost_snapshots: u64,
    /// Gathers whose aggregate arrived late.
    pub delayed_snapshots: u64,
    /// Gathers whose transmitted counts were altered in transit.
    pub corrupted_snapshots: u64,
    /// Arrived aggregates rejected because a newer one was already visible
    /// (monotonicity validation; only out-of-order delays cause this).
    pub rejected_stale: u64,
    /// Arrived aggregates rejected because a count was outside its physical
    /// range (corruption detected by the receivers).
    pub rejected_range: u64,
}

impl SidebandStats {
    /// Total aggregates rejected by receiver-side validation.
    #[must_use]
    pub fn rejected(&self) -> u64 {
        self.rejected_stale + self.rejected_range
    }
}

/// The side-band gather network: accepts the true census every cycle and
/// exposes delayed snapshots plus the congestion estimate derived from them.
///
/// All nodes receive identical aggregates at identical times under
/// dimension-wise aggregation on a symmetric torus, so one instance serves
/// the whole network.
///
/// An optional [`FaultPlan`] (see [`Sideband::set_faults`]) subjects every
/// gather to seeded loss, delay and corruption; receivers validate arrivals
/// (monotonic `taken_at`, counts within physical range) and count every
/// fault and rejection in [`Sideband::stats`].
#[derive(Debug, Clone)]
pub struct Sideband {
    cfg: SidebandConfig,
    period: u64,
    /// Snapshots in flight (taken, not yet visible to receivers).
    in_flight: VecDeque<Snapshot>,
    /// The two most recent snapshots visible to receivers: `[newest, older]`.
    visible: [Option<Snapshot>; 2],
    /// Running EWMA state (only maintained for [`Estimator::Ewma`]).
    ewma: Option<f64>,
    /// Cumulative delivered flits at the previous snapshot boundary.
    window_base: u64,
    last_cycle_seen: Option<u64>,
    /// Transit faults applied to every gather (`None` = perfect side-band).
    /// Boxed: the plan is cold state, and keeping the controller structs
    /// small matters more than one indirection per gather.
    faults: Option<Box<FaultPlan>>,
    stats: SidebandStats,
}

impl Sideband {
    /// Creates a side-band network from `cfg`.
    #[must_use]
    pub fn new(cfg: SidebandConfig) -> Self {
        let period = cfg.gather_period();
        Sideband {
            cfg,
            period,
            in_flight: VecDeque::with_capacity(4),
            visible: [None, None],
            ewma: None,
            window_base: 0,
            last_cycle_seen: None,
            faults: None,
            stats: SidebandStats::default(),
        }
    }

    /// Serializes the runtime state (in-flight and visible snapshots, EWMA,
    /// window base, cycle tracking, fault counters) into `enc`. The
    /// configuration and fault plan are not written; restore into a
    /// side-band built from the same configuration.
    pub fn save_state(&self, enc: &mut checkpoint::Enc) {
        fn snap(enc: &mut checkpoint::Enc, s: Option<&Snapshot>) {
            enc.bool(s.is_some());
            let s = s.copied().unwrap_or(Snapshot {
                taken_at: 0,
                available_at: 0,
                full_buffers: 0,
                delivered_flits: 0,
            });
            enc.u64(s.taken_at);
            enc.u64(s.available_at);
            enc.u32(s.full_buffers);
            enc.u32(s.delivered_flits);
        }
        enc.usize(self.in_flight.len());
        for s in &self.in_flight {
            snap(enc, Some(s));
        }
        for s in &self.visible {
            snap(enc, s.as_ref());
        }
        enc.opt_f64(self.ewma);
        enc.u64(self.window_base);
        enc.opt_u64(self.last_cycle_seen);
        enc.u64(self.stats.lost_snapshots);
        enc.u64(self.stats.delayed_snapshots);
        enc.u64(self.stats.corrupted_snapshots);
        enc.u64(self.stats.rejected_stale);
        enc.u64(self.stats.rejected_range);
    }

    /// Restores state captured with [`Sideband::save_state`] into a
    /// side-band built from the same configuration. In particular the
    /// cycle-sequencing state is restored, so [`Sideband::on_cycle`] resumes
    /// mid-gather exactly where the snapshot was taken.
    ///
    /// # Errors
    ///
    /// Returns a [`checkpoint::CheckpointError`] on a truncated stream or a
    /// structurally impossible value.
    pub fn restore_state(
        &mut self,
        dec: &mut checkpoint::Dec<'_>,
    ) -> Result<(), checkpoint::CheckpointError> {
        fn snap(
            dec: &mut checkpoint::Dec<'_>,
        ) -> Result<Option<Snapshot>, checkpoint::CheckpointError> {
            let some = dec.bool()?;
            let s = Snapshot {
                taken_at: dec.u64()?,
                available_at: dec.u64()?,
                full_buffers: dec.u32()?,
                delivered_flits: dec.u32()?,
            };
            Ok(some.then_some(s))
        }
        let n = dec.usize()?;
        if n > 1024 {
            return Err(checkpoint::CheckpointError::Corrupt(
                "implausible in-flight snapshot count",
            ));
        }
        let mut in_flight = VecDeque::with_capacity(n.max(4));
        for _ in 0..n {
            in_flight.push_back(snap(dec)?.ok_or(checkpoint::CheckpointError::Corrupt(
                "absent in-flight snapshot",
            ))?);
        }
        let visible = [snap(dec)?, snap(dec)?];
        self.in_flight = in_flight;
        self.visible = visible;
        self.ewma = dec.opt_f64()?;
        self.window_base = dec.u64()?;
        self.last_cycle_seen = dec.opt_u64()?;
        self.stats = SidebandStats {
            lost_snapshots: dec.u64()?,
            delayed_snapshots: dec.u64()?,
            corrupted_snapshots: dec.u64()?,
            rejected_stale: dec.u64()?,
            rejected_range: dec.u64()?,
        };
        Ok(())
    }

    /// Installs a fault plan: every subsequent gather is subject to the
    /// plan's side-band loss, delay and corruption. A plan whose side-band
    /// portion is quiet leaves the perfect-side-band fast path untouched.
    pub fn set_faults(&mut self, plan: FaultPlan) {
        self.faults = (!plan.sideband.is_quiet()).then(|| Box::new(plan));
    }

    /// Fault and rejection counters (all zero on a perfect side-band).
    #[must_use]
    pub fn stats(&self) -> SidebandStats {
        self.stats
    }

    /// The gather duration `g` in cycles.
    #[must_use]
    pub fn gather_period(&self) -> u64 {
        self.period
    }

    /// The configuration this side-band was built from.
    #[must_use]
    pub fn config(&self) -> &SidebandConfig {
        &self.cfg
    }

    /// Feeds one cycle of ground truth: the instantaneous network-wide
    /// full-buffer count and the *cumulative* delivered flit count.
    ///
    /// Must be called once per cycle with strictly increasing `now`
    /// (starting at 0); the simulator drives this.
    ///
    /// # Panics
    ///
    /// Panics if cycles are skipped or repeated.
    pub fn on_cycle(&mut self, now: u64, full_buffers: u32, delivered_cum: u64) {
        if let Some(prev) = self.last_cycle_seen {
            assert_eq!(now, prev + 1, "sideband must be ticked every cycle");
        } else {
            assert_eq!(now, 0, "sideband must be ticked starting at cycle 0");
        }
        self.last_cycle_seen = Some(now);

        // Promote snapshots that have finished propagating. Delay faults can
        // reorder arrivals, so scan the whole in-flight set (oldest due
        // aggregate first) rather than just the front.
        loop {
            let mut pick: Option<usize> = None;
            for (i, s) in self.in_flight.iter().enumerate() {
                if s.available_at <= now
                    && pick.is_none_or(|p| s.taken_at < self.in_flight[p].taken_at)
                {
                    pick = Some(i);
                }
            }
            let Some(i) = pick else { break };
            let snap = self.in_flight.remove(i).expect("index from enumerate");
            self.accept(snap);
        }

        // Take a new snapshot at each gather boundary (skip cycle 0: there is
        // no delivery window behind it yet).
        if now > 0 && now.is_multiple_of(self.period) {
            let window_flits = delivered_cum - self.window_base;
            self.window_base = delivered_cum;
            let q = |v: u32, max: u32| match &self.cfg.quantizer {
                Some(quant) => quant.quantize(v, max),
                None => v,
            };
            let max_tput = (self.period * self.node_count() as u64) as u32;
            let mut snap = Snapshot {
                taken_at: now,
                available_at: now + self.period,
                full_buffers: q(full_buffers, self.max_full_buffers()),
                delivered_flits: q(
                    u32::try_from(window_flits).expect("window flits exceed u32"),
                    max_tput,
                ),
            };
            if let Some(plan) = &self.faults {
                match plan.snapshot_fate(now) {
                    SnapshotFate::Lost => {
                        self.stats.lost_snapshots += 1;
                        return;
                    }
                    SnapshotFate::Delayed(extra) => {
                        self.stats.delayed_snapshots += 1;
                        snap.available_at += extra;
                    }
                    SnapshotFate::OnTime => {}
                }
                let full = Self::corrupt_on_wire(
                    plan,
                    self.cfg.quantizer.as_ref(),
                    now,
                    SidebandField::FullBuffers,
                    snap.full_buffers,
                    self.max_full_buffers(),
                );
                let tput = Self::corrupt_on_wire(
                    plan,
                    self.cfg.quantizer.as_ref(),
                    now,
                    SidebandField::DeliveredFlits,
                    snap.delivered_flits,
                    max_tput,
                );
                if full != snap.full_buffers || tput != snap.delivered_flits {
                    self.stats.corrupted_snapshots += 1;
                }
                snap.full_buffers = full;
                snap.delivered_flits = tput;
            }
            self.in_flight.push_back(snap);
        }
    }

    /// Receiver-side validation and installation of one arrived aggregate.
    fn accept(&mut self, snap: Snapshot) {
        // Monotonicity: an aggregate older than the newest visible one
        // (possible only via delay faults) carries no usable information —
        // receivers keep the two newest snapshots — and would corrupt the
        // extrapolation baseline. Reject it.
        if self.visible[0].is_some_and(|s0| snap.taken_at <= s0.taken_at) {
            self.stats.rejected_stale += 1;
            return;
        }
        // Range: no census exceeds the number of buffers that exist, and no
        // window delivers more than one flit per node per cycle. Corrupted
        // counts outside those bounds are detectably impossible.
        if snap.full_buffers > self.max_full_buffers()
            || u64::from(snap.delivered_flits) > self.period * self.node_count() as u64
        {
            self.stats.rejected_range += 1;
            return;
        }
        self.visible = [Some(snap), self.visible[0]];
        if let Estimator::Ewma { alpha } = self.cfg.estimator {
            let v = f64::from(snap.full_buffers);
            self.ewma = Some(match self.ewma {
                Some(prev) => alpha * v + (1.0 - alpha) * prev,
                None => v,
            });
        }
    }

    /// Applies transit corruption to one transmitted count, composing with
    /// quantization: with a narrow side-band only the transmitted high bits
    /// are on the wire, so flips land there and scale back up at the
    /// receiver.
    fn corrupt_on_wire(
        plan: &FaultPlan,
        quantizer: Option<&Quantizer>,
        taken_at: u64,
        field: SidebandField,
        value: u32,
        max: u32,
    ) -> u32 {
        let needed = crate::width::bits_for_max(max);
        match quantizer {
            Some(q) if needed > q.bits() => {
                let shift = needed - q.bits();
                plan.corrupt_count(taken_at, field, value >> shift, q.bits()) << shift
            }
            _ => plan.corrupt_count(taken_at, field, value, needed),
        }
    }

    fn node_count(&self) -> usize {
        self.cfg.radix.pow(self.cfg.dimensions as u32)
    }

    /// The largest possible full-buffer census for the configured network
    /// (`nodes * 2n * vcs`): the quantization scale, the range-validation
    /// bound and the extrapolation ceiling.
    #[must_use]
    pub fn max_full_buffers(&self) -> u32 {
        (self.node_count() * 2 * self.cfg.dimensions * self.cfg.vcs) as u32
    }

    /// The largest full-buffer count one node can contribute to the
    /// dimension-wise reduction (`2n * vcs` input VCs per router): the
    /// quantization scale of a single node's side-band message.
    #[must_use]
    pub fn max_full_buffers_per_node(&self) -> u32 {
        (2 * self.cfg.dimensions * self.cfg.vcs) as u32
    }

    /// Quantizes one node's local contribution — the popcount of its
    /// occupancy bit-plane (`Network::full_buffers_at` in the simulator) —
    /// exactly as the narrow side-band would transmit it. Identity without
    /// a configured [`Quantizer`].
    ///
    /// The aggregate census the receivers see is the sum of these per-node
    /// popcounts; the global feed ([`Sideband::on_cycle`]) carries that sum
    /// maintained incrementally, and the simulator's debug audit pins the
    /// two views equal every cycle.
    #[must_use]
    pub fn quantize_node_census(&self, popcount: u32) -> u32 {
        match &self.cfg.quantizer {
            Some(q) => q.quantize(popcount, self.max_full_buffers_per_node()),
            None => popcount,
        }
    }

    /// How many gathers overdue the receivers' newest visible aggregate is
    /// at cycle `now`: 0 on a healthy side-band, and grows by one per gather
    /// period while aggregates fail to arrive. Drives the staleness
    /// watchdog of the side-band controllers.
    #[must_use]
    pub fn gathers_overdue(&self, now: u64) -> u64 {
        if now < 2 * self.period {
            return 0; // the first aggregate cannot have arrived yet
        }
        // The newest gather boundary whose aggregate should be visible.
        let expected = (now / self.period - 1) * self.period;
        let have = self.visible[0].map_or(0, |s| s.taken_at);
        expected.saturating_sub(have) / self.period
    }

    /// The most recent snapshot visible to receivers, if any.
    #[must_use]
    pub fn latest(&self) -> Option<Snapshot> {
        self.visible[0]
    }

    /// The snapshot before [`Sideband::latest`], if any.
    #[must_use]
    pub fn previous(&self) -> Option<Snapshot> {
        self.visible[1]
    }

    /// The receivers' estimate of the *current* network-wide full-buffer
    /// count at cycle `now`.
    ///
    /// With [`Estimator::LinearExtrapolation`] this is
    /// `s0 + (s0 - s1) * (now - t0) / g` clamped to the physical range
    /// `[0, max_full_buffers]` — no estimate may predict fewer than zero or
    /// more than every buffer full, however adversarial the snapshot pair
    /// (e.g. extrapolating far ahead across a stale gap); with
    /// [`Estimator::LastSnapshot`] it is simply `s0`. Before any snapshot is
    /// visible the estimate is 0 (an empty warm network).
    #[must_use]
    pub fn estimate(&self, now: u64) -> f64 {
        match (self.visible[0], self.visible[1], self.cfg.estimator) {
            (None, _, _) => 0.0,
            (Some(s0), _, Estimator::LastSnapshot) => f64::from(s0.full_buffers),
            (Some(s0), _, Estimator::Ewma { .. }) => {
                self.ewma.unwrap_or_else(|| f64::from(s0.full_buffers))
            }
            (Some(s0), None, Estimator::LinearExtrapolation) => f64::from(s0.full_buffers),
            (Some(s0), Some(s1), Estimator::LinearExtrapolation) => {
                let gap = (s0.taken_at - s1.taken_at) as f64;
                let slope = (f64::from(s0.full_buffers) - f64::from(s1.full_buffers)) / gap;
                let ahead = now.saturating_sub(s0.taken_at) as f64;
                (f64::from(s0.full_buffers) + slope * ahead)
                    .clamp(0.0, f64::from(self.max_full_buffers()))
            }
        }
    }

    /// Flits delivered network-wide in the most recent visible gather
    /// window (the throughput feedback used by the self-tuner).
    #[must_use]
    pub fn window_throughput(&self) -> Option<u32> {
        self.latest().map(|s| s.delivered_flits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drive(sb: &mut Sideband, upto: u64, full: impl Fn(u64) -> u32, rate: u64) {
        let start = sb.last_cycle_seen.map_or(0, |c| c + 1);
        for now in start..=upto {
            sb.on_cycle(now, full(now), now * rate);
        }
    }

    #[test]
    fn gather_period_formula() {
        let cfg = SidebandConfig {
            radix: 8,
            dimensions: 3,
            hop_delay: 1,
            vcs: 3,
            estimator: Estimator::default(),
            quantizer: None,
        };
        assert_eq!(cfg.gather_period(), 12);
        // Odd radix rounds up.
        let cfg = SidebandConfig {
            radix: 5,
            dimensions: 2,
            hop_delay: 2,
            ..cfg
        };
        assert_eq!(cfg.gather_period(), 12);
        assert_eq!(SidebandConfig::paper().gather_period(), 32);
    }

    #[test]
    fn per_node_census_quantizes_on_the_node_scale() {
        // Paper network: 2n*vcs = 12 full buffers per node -> 4 bits needed.
        let sb = Sideband::new(SidebandConfig::paper());
        assert_eq!(sb.max_full_buffers_per_node(), 12);
        assert_eq!(
            sb.max_full_buffers(),
            sb.max_full_buffers_per_node() * 256,
            "global ceiling is the per-node ceiling summed over all nodes"
        );
        // Without a quantizer the popcount passes through.
        assert_eq!(sb.quantize_node_census(7), 7);
        // A 2-bit side-band keeps the high 2 of the 4 needed bits.
        let sb = Sideband::new(SidebandConfig {
            quantizer: Some(Quantizer::new(2)),
            ..SidebandConfig::paper()
        });
        assert_eq!(sb.quantize_node_census(7), 4);
        assert_eq!(sb.quantize_node_census(12), 12);
    }

    #[test]
    fn snapshots_arrive_exactly_one_gather_late() {
        let mut sb = Sideband::new(SidebandConfig::paper());
        drive(&mut sb, 63, |_| 100, 0);
        // Snapshot taken at 32 is available at 64, not before.
        assert!(sb.latest().is_none());
        sb.on_cycle(64, 100, 0);
        let s = sb.latest().expect("snapshot at 32 visible at 64");
        assert_eq!(s.taken_at, 32);
        assert_eq!(s.available_at, 64);
        assert_eq!(s.full_buffers, 100);
    }

    #[test]
    fn window_throughput_counts_per_window_flits() {
        let mut sb = Sideband::new(SidebandConfig::paper());
        // 5 flits delivered per cycle.
        drive(&mut sb, 96, |_| 0, 5);
        let s = sb.latest().expect("snapshot visible");
        assert_eq!(s.taken_at, 64);
        assert_eq!(s.delivered_flits, 32 * 5);
        assert_eq!(sb.window_throughput(), Some(160));
    }

    #[test]
    fn linear_extrapolation_tracks_linear_growth_exactly() {
        let mut sb = Sideband::new(SidebandConfig::paper());
        // Census grows by exactly 2 per cycle; extrapolation should predict
        // the current value exactly despite the g-cycle staleness.
        drive(&mut sb, 200, |now| (2 * now) as u32, 0);
        let est = sb.estimate(200);
        assert!((est - 400.0).abs() < 1e-9, "estimate {est} should be 400");
    }

    #[test]
    fn last_snapshot_estimator_lags() {
        let mut cfg = SidebandConfig::paper();
        cfg.estimator = Estimator::LastSnapshot;
        let mut sb = Sideband::new(cfg);
        drive(&mut sb, 200, |now| (2 * now) as u32, 0);
        // Latest visible snapshot was taken at 160 (available at 192).
        assert_eq!(sb.estimate(200), 320.0);
    }

    #[test]
    fn extrapolation_clamps_at_zero() {
        let mut sb = Sideband::new(SidebandConfig::paper());
        // Census collapses from 1000 to 0; extrapolation must not go negative.
        drive(&mut sb, 200, |now| if now < 100 { 1000 } else { 0 }, 0);
        assert!(sb.estimate(260) >= 0.0);
    }

    #[test]
    fn estimate_before_first_snapshot_is_zero() {
        let mut sb = Sideband::new(SidebandConfig::paper());
        drive(&mut sb, 40, |_| 999, 0);
        assert_eq!(sb.estimate(40), 0.0);
    }

    #[test]
    fn ewma_smooths_and_lags() {
        let mut cfg = SidebandConfig::paper();
        cfg.estimator = Estimator::Ewma { alpha: 0.5 };
        let mut sb = Sideband::new(cfg);
        // Alternating census 0 / 1000 per gather window.
        drive(
            &mut sb,
            400,
            |now| if (now / 32) % 2 == 0 { 0 } else { 1000 },
            0,
        );
        let est = sb.estimate(400);
        assert!(
            (200.0..800.0).contains(&est),
            "EWMA should land between the extremes, got {est}"
        );
        // alpha = 1 degenerates to last-snapshot behavior.
        let mut cfg = SidebandConfig::paper();
        cfg.estimator = Estimator::Ewma { alpha: 1.0 };
        let mut sb1 = Sideband::new(cfg);
        let mut cfg = SidebandConfig::paper();
        cfg.estimator = Estimator::LastSnapshot;
        let mut sb2 = Sideband::new(cfg);
        drive(&mut sb1, 300, |now| (3 * now) as u32, 0);
        drive(&mut sb2, 300, |now| (3 * now) as u32, 0);
        assert_eq!(sb1.estimate(300), sb2.estimate(300));
    }

    #[test]
    #[should_panic(expected = "ticked every cycle")]
    fn skipping_cycles_panics() {
        let mut sb = Sideband::new(SidebandConfig::paper());
        sb.on_cycle(0, 0, 0);
        sb.on_cycle(2, 0, 0);
    }

    use faults::SidebandFaults;

    fn plan(sb_faults: SidebandFaults) -> FaultPlan {
        FaultPlan::sideband_only(0xFA17, sb_faults)
    }

    #[test]
    fn quiet_plan_changes_nothing() {
        let mut clean = Sideband::new(SidebandConfig::paper());
        let mut quiet = Sideband::new(SidebandConfig::paper());
        quiet.set_faults(FaultPlan::none(123));
        drive(&mut clean, 500, |now| (3 * now) as u32, 4);
        drive(&mut quiet, 500, |now| (3 * now) as u32, 4);
        assert_eq!(clean.latest(), quiet.latest());
        assert_eq!(clean.estimate(500).to_bits(), quiet.estimate(500).to_bits());
        assert_eq!(quiet.stats(), SidebandStats::default());
    }

    #[test]
    fn blackout_loses_every_snapshot() {
        let mut sb = Sideband::new(SidebandConfig::paper());
        sb.set_faults(plan(SidebandFaults {
            loss_rate: 1.0,
            ..SidebandFaults::none()
        }));
        drive(&mut sb, 640, |_| 500, 2);
        assert!(sb.latest().is_none(), "no aggregate can survive 100% loss");
        assert_eq!(sb.estimate(640), 0.0);
        assert_eq!(sb.stats().lost_snapshots, 640 / 32);
        assert_eq!(sb.gathers_overdue(640), 640 / 32 - 1);
    }

    #[test]
    fn extrapolation_clamps_to_the_buffer_ceiling() {
        let mut sb = Sideband::new(SidebandConfig::paper());
        let max = sb.max_full_buffers(); // 3072 for the paper network
                                         // Census explodes from 0 to near-max within one gather: the
                                         // adversarial snapshot pair (0, 3000) extrapolates far past the
                                         // number of buffers that exist.
        drive(&mut sb, 96, |now| if now < 33 { 0 } else { 3000 }, 0);
        let est = sb.estimate(96 + 320);
        assert!(
            est <= f64::from(max),
            "estimate {est} exceeds the physical ceiling {max}"
        );
        assert!(est > 3000.0, "still extrapolates upward before the clamp");
    }

    #[test]
    fn gathers_overdue_is_zero_on_a_healthy_sideband() {
        let mut sb = Sideband::new(SidebandConfig::paper());
        for now in 0..=1000 {
            sb.on_cycle(now, 10, 0);
            assert_eq!(sb.gathers_overdue(now), 0, "cycle {now}");
        }
    }

    #[test]
    fn delays_preserve_monotonic_visibility() {
        let mut sb = Sideband::new(SidebandConfig::paper());
        sb.set_faults(plan(SidebandFaults {
            delay_rate: 0.7,
            max_delay: 100, // up to ~3 gathers late: plenty of reordering
            ..SidebandFaults::none()
        }));
        let mut last_seen = 0u64;
        for now in 0..=6400 {
            sb.on_cycle(now, (now % 997) as u32, 2 * now);
            if let Some(s) = sb.latest() {
                assert!(
                    s.taken_at >= last_seen,
                    "visible snapshot went backwards at cycle {now}"
                );
                last_seen = s.taken_at;
                assert!(s.available_at <= now, "not yet due at {now}: {s:?}");
            }
        }
        let st = sb.stats();
        assert!(st.delayed_snapshots > 50, "delays applied: {st:?}");
        assert!(
            st.rejected_stale > 0,
            "reordering must have produced stale arrivals: {st:?}"
        );
        assert_eq!(st.lost_snapshots, 0);
    }

    #[test]
    fn corruption_is_counted_and_impossible_values_rejected() {
        let mut sb = Sideband::new(SidebandConfig::paper());
        sb.set_faults(plan(SidebandFaults {
            corrupt_rate: 1.0,
            corrupt_bits: 2,
            ..SidebandFaults::none()
        }));
        // Census pinned mid-range: bit flips near the top of the 12-bit
        // field push some counts past the 3072-buffer ceiling.
        drive(&mut sb, 32 * 200, |_| 1800, 1);
        let st = sb.stats();
        assert!(st.corrupted_snapshots > 100, "{st:?}");
        assert!(
            st.rejected_range > 0,
            "some corruptions must exceed the ceiling: {st:?}"
        );
        // Everything that *was* accepted respects the physical range.
        for s in [sb.latest(), sb.previous()].into_iter().flatten() {
            assert!(s.full_buffers <= sb.max_full_buffers());
        }
    }

    #[test]
    fn corruption_composes_with_the_quantizer() {
        let mut cfg = SidebandConfig::paper();
        cfg.quantizer = Some(Quantizer::new(9));
        let mut sb = Sideband::new(cfg);
        sb.set_faults(plan(SidebandFaults {
            corrupt_rate: 1.0,
            corrupt_bits: 1,
            ..SidebandFaults::none()
        }));
        drive(&mut sb, 32 * 100, |_| 1024, 1);
        // 3072 buffers need 12 bits; a 9-bit side-band drops the low 3. Any
        // corrupted value must still land on the 8-flit quantization grid:
        // flips happen on the wire, inside the transmitted 9 bits.
        for s in [sb.latest(), sb.previous()].into_iter().flatten() {
            assert_eq!(
                s.full_buffers % 8,
                0,
                "corruption escaped the wire bits: {s:?}"
            );
        }
        assert!(sb.stats().corrupted_snapshots > 0);
    }

    #[test]
    fn faulty_sideband_is_deterministic() {
        let run = || {
            let mut sb = Sideband::new(SidebandConfig::paper());
            sb.set_faults(plan(SidebandFaults {
                loss_rate: 0.3,
                delay_rate: 0.3,
                max_delay: 64,
                corrupt_rate: 0.3,
                corrupt_bits: 1,
            }));
            drive(&mut sb, 6400, |now| (now % 1301) as u32, 3);
            (sb.latest(), sb.stats(), sb.estimate(6400).to_bits())
        };
        assert_eq!(run(), run());
    }
}
