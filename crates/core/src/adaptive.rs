//! Adaptive two-level batching: the per-endpoint feedback controller.
//!
//! The paper freezes `(xtract_batch_size, funcx_batch_size)` per job and
//! sweeps them offline (Fig. 5). This module closes the loop online: an
//! AIMD-style controller watches each wave's per-family completion pace
//! and walks both knobs toward the throughput knee, backing off hard when
//! an endpoint shows distress (adaptive-deadline breaches, an open
//! breaker, or a pace regression).
//!
//! **Control law.** For each endpoint the controller keeps fractional
//! knobs `(x, f)` clamped to the `[floor, ceiling]` boxes below. After
//! each wave it receives a [`WaveEvidence`]:
//!
//! * distress (`breaches > 0` or `breaker_open`) → multiplicative
//!   decrease: `x *= BACKOFF`, `f *= BACKOFF`; the pace baseline resets
//!   so the next clean wave re-anchors it.
//! * a trusted pace (`samples >= MIN_WAVE_SAMPLES`) within `TOLERANCE`
//!   of the *best pace seen since the last backoff* → additive increase:
//!   `x += GROW_STEP`, `f += GROW_STEP`.
//! * a trusted pace that regressed beyond `TOLERANCE` of that best →
//!   multiplicative decrease.
//! * too few samples → hold.
//!
//! Anchoring against the best-so-far (not the previous wave) is what
//! makes the controller converge: near the throughput knee each single
//! growth step degrades pace by less than `TOLERANCE`, and a
//! previous-wave baseline would ratchet straight past the knee to the
//! ceiling. Against the best anchor the small regressions *accumulate*
//! until they cross `TOLERANCE`, producing the classic AIMD sawtooth
//! around the optimum.
//!
//! The clamps and gains are the constants below; `JobSpec::adaptive` is
//! only the switch.
//!
//! "Pace" is the wave's p50 per-family completion latency divided by the
//! number of families the wave carried — a size-normalized cost, so waves
//! of different widths compare fairly. Decisions are a pure function of
//! the evidence sequence: no clocks, no randomness. A resumed job
//! replays its journal, counts committed waves, and [`warm-starts`]
//! the controller with that many clean growth steps — controller state
//! is *recomputed* from evidence, never persisted.
//!
//! [`warm-starts`]: AdaptiveTuner::with_replayed_waves
//!
//! The poll-request width rides the same limits: a wave polling `n`
//! outstanding tasks chunks them into requests of
//! `(x * f).clamp(POLL_FLOOR, POLL_CEILING)` ids, so poll fan-out grows
//! and shrinks with dispatch fan-out.

use std::collections::BTreeMap;
use xtract_types::EndpointId;

/// Smallest families-per-Xtract-batch the controller may choose.
pub const XTRACT_FLOOR: usize = 1;
/// Largest families-per-Xtract-batch the controller may choose.
pub const XTRACT_CEILING: usize = 32;
/// Smallest tasks-per-funcX-request the controller may choose.
pub const FUNCX_FLOOR: usize = 1;
/// Largest tasks-per-funcX-request the controller may choose.
pub const FUNCX_CEILING: usize = 32;
/// Additive increase applied to both knobs after a good wave.
const GROW_STEP: usize = 2;
/// Multiplicative decrease applied on pace regression, deadline
/// breaches, or a breaker open.
const BACKOFF: f64 = 0.65;
/// Relative per-family pace worsening tolerated before a wave counts as a
/// regression (absorbs sampling noise).
const TOLERANCE: f64 = 0.15;
/// Completion-latency samples a wave must contribute before its pace is
/// trusted; thinner waves hold the current limits.
const MIN_WAVE_SAMPLES: u64 = 4;
/// Fewest task ids bundled into one batch-poll request.
const POLL_FLOOR: usize = 16;
/// Most task ids bundled into one batch-poll request.
const POLL_CEILING: usize = 1024;

/// The batching limits in force for one endpoint at one wave.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchLimits {
    /// Families per Xtract batch (level 1).
    pub xtract: usize,
    /// Xtract batches per funcX web request (level 2).
    pub funcx: usize,
    /// Task ids per batch-poll request.
    pub poll_chunk: usize,
}

impl BatchLimits {
    /// Caps the funcX batch so one full request's invocation charge
    /// (`xtract * funcx` families) fits inside a tenant's remaining
    /// invocation budget. The cap never drops below [`FUNCX_FLOOR`]:
    /// when the budget is nearly spent the job still makes progress
    /// (and the quota ledger — which charges *before* submit — remains
    /// the authority that finally stops it).
    pub fn cap_to_invocations(self, headroom: Option<u64>) -> Self {
        let Some(headroom) = headroom else {
            return self;
        };
        let per_task = self.xtract.max(1) as u64;
        let affordable = (headroom / per_task) as usize;
        Self {
            funcx: self.funcx.min(affordable.max(FUNCX_FLOOR)),
            ..self
        }
    }
}

/// What one completed wave tells the controller about one endpoint.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WaveEvidence {
    /// p50 of per-family completion latency this wave, seconds from wave
    /// start. `None` when the wave resolved nothing productive.
    pub p50_latency_s: Option<f64>,
    /// Latency samples backing `p50_latency_s`.
    pub samples: u64,
    /// Families this endpoint carried in the wave (the pace normalizer).
    pub families: u64,
    /// Adaptive-deadline breaches charged to this endpoint in the wave.
    pub breaches: u64,
    /// Whether the endpoint's circuit breaker was open at wave end.
    pub breaker_open: bool,
}

/// What the controller did with a wave's evidence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TuneDecision {
    /// Additive increase applied.
    Grew,
    /// Multiplicative decrease applied.
    BackedOff,
    /// Evidence too thin (or limits already pinned); nothing changed.
    Held,
}

/// Per-endpoint controller state. Knobs are fractional so repeated
/// multiplicative backoff accumulates below integer resolution instead
/// of sticking at a rounded value.
#[derive(Debug, Clone, Copy)]
struct EndpointCtl {
    xtract: f64,
    funcx: f64,
    /// Best (lowest) trusted pace since the last backoff; `None` right
    /// after a backoff (or at birth) so the next clean wave re-anchors
    /// the baseline.
    best_pace: Option<f64>,
}

impl EndpointCtl {
    fn clamp(&mut self) {
        self.xtract = self
            .xtract
            .clamp(XTRACT_FLOOR as f64, XTRACT_CEILING as f64);
        self.funcx = self.funcx.clamp(FUNCX_FLOOR as f64, FUNCX_CEILING as f64);
    }

    fn grow(&mut self) {
        self.xtract += GROW_STEP as f64;
        self.funcx += GROW_STEP as f64;
        self.clamp();
    }

    fn back_off(&mut self) {
        self.xtract *= BACKOFF;
        self.funcx *= BACKOFF;
        self.clamp();
        self.best_pace = None;
    }
}

/// The AIMD feedback controller (see module docs for the law).
#[derive(Debug, Clone)]
pub struct AdaptiveTuner {
    start_xtract: usize,
    start_funcx: usize,
    /// Clean growth steps to pre-apply when an endpoint is first seen —
    /// the replay warm start. `BTreeMap` keeps any iteration
    /// deterministic.
    warm_steps: u64,
    states: BTreeMap<EndpointId, EndpointCtl>,
}

impl AdaptiveTuner {
    /// A controller starting every endpoint at the spec's static sizes
    /// clamped into the boxes.
    pub fn new(start_xtract: usize, start_funcx: usize) -> Self {
        Self {
            start_xtract,
            start_funcx,
            warm_steps: 0,
            states: BTreeMap::new(),
        }
    }

    /// Warm start after WAL replay: `waves` committed waves were replayed
    /// from the journal, so every endpoint first seen by this controller
    /// behaves as if it had already survived that many clean growth
    /// steps. Deterministic given the journal; nothing is persisted.
    pub fn with_replayed_waves(mut self, waves: u64) -> Self {
        self.warm_steps = waves;
        self
    }

    fn state(&mut self, endpoint: EndpointId) -> &mut EndpointCtl {
        if !self.states.contains_key(&endpoint) {
            let mut ctl = EndpointCtl {
                xtract: self.start_xtract as f64,
                funcx: self.start_funcx as f64,
                best_pace: None,
            };
            ctl.clamp();
            for _ in 0..self.warm_steps {
                ctl.grow();
            }
            self.states.insert(endpoint, ctl);
        }
        self.states.get_mut(&endpoint).expect("state just inserted")
    }

    /// Limits to build the next wave's batches with, for `endpoint`.
    pub fn limits(&mut self, endpoint: EndpointId) -> BatchLimits {
        let ctl = *self.state(endpoint);
        let xtract = (ctl.xtract.round() as usize).clamp(XTRACT_FLOOR, XTRACT_CEILING);
        let funcx = (ctl.funcx.round() as usize).clamp(FUNCX_FLOOR, FUNCX_CEILING);
        BatchLimits {
            xtract,
            funcx,
            poll_chunk: (xtract * funcx).clamp(POLL_FLOOR, POLL_CEILING),
        }
    }

    /// Feeds one completed wave's evidence back.
    pub fn observe_wave(&mut self, endpoint: EndpointId, evidence: &WaveEvidence) -> TuneDecision {
        let mut ctl = *self.state(endpoint);
        let decision = if evidence.breaches > 0 || evidence.breaker_open {
            ctl.back_off();
            TuneDecision::BackedOff
        } else if evidence.samples < MIN_WAVE_SAMPLES || evidence.families == 0 {
            TuneDecision::Held
        } else if let Some(p50) = evidence.p50_latency_s {
            let pace = p50 / evidence.families as f64;
            let verdict = match ctl.best_pace {
                // First trusted wave since (re)anchor: optimistic growth.
                None => TuneDecision::Grew,
                Some(best) if pace <= best * (1.0 + TOLERANCE) => TuneDecision::Grew,
                Some(_) => TuneDecision::BackedOff,
            };
            match verdict {
                TuneDecision::Grew => {
                    ctl.grow();
                    ctl.best_pace = Some(ctl.best_pace.map_or(pace, |b| b.min(pace)));
                }
                TuneDecision::BackedOff => {
                    ctl.back_off();
                }
                TuneDecision::Held => {}
            }
            verdict
        } else {
            TuneDecision::Held
        };
        self.states.insert(endpoint, ctl);
        decision
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn ep(id: u64) -> EndpointId {
        EndpointId::new(id)
    }

    fn clean(p50: f64, families: u64) -> WaveEvidence {
        WaveEvidence {
            p50_latency_s: Some(p50),
            samples: families,
            families,
            breaches: 0,
            breaker_open: false,
        }
    }

    #[test]
    fn grows_while_pace_improves() {
        let mut t = AdaptiveTuner::new(2, 2);
        let start = t.limits(ep(0));
        assert_eq!((start.xtract, start.funcx), (2, 2));
        // Bigger batches keep amortizing cost: pace falls wave over wave.
        for i in 0..8u64 {
            let d = t.observe_wave(ep(0), &clean(10.0 / (i + 1) as f64, 100));
            assert_eq!(d, TuneDecision::Grew);
        }
        let grown = t.limits(ep(0));
        assert!(grown.xtract > start.xtract && grown.funcx > start.funcx);
    }

    #[test]
    fn backs_off_on_breach_and_breaker() {
        let mut t = AdaptiveTuner::new(16, 16);
        let before = t.limits(ep(0));
        let d = t.observe_wave(
            ep(0),
            &WaveEvidence {
                breaches: 1,
                ..clean(1.0, 100)
            },
        );
        assert_eq!(d, TuneDecision::BackedOff);
        let after = t.limits(ep(0));
        assert!(after.xtract < before.xtract && after.funcx < before.funcx);

        let d = t.observe_wave(
            ep(0),
            &WaveEvidence {
                breaker_open: true,
                ..clean(1.0, 100)
            },
        );
        assert_eq!(d, TuneDecision::BackedOff);
        assert!(t.limits(ep(0)).xtract < after.xtract);
    }

    #[test]
    fn backs_off_on_pace_regression() {
        let mut t = AdaptiveTuner::new(8, 8);
        assert_eq!(t.observe_wave(ep(0), &clean(1.0, 100)), TuneDecision::Grew);
        // Same families, much slower: pace regressed beyond tolerance.
        assert_eq!(
            t.observe_wave(ep(0), &clean(2.0, 100)),
            TuneDecision::BackedOff
        );
    }

    #[test]
    fn creeping_regression_accumulates_to_a_backoff() {
        // Each wave is only ~8% worse than the one before — under
        // tolerance wave-over-wave, but compounding past it against the
        // anchored best. A previous-wave baseline would ratchet to the
        // ceiling here; the best-pace anchor must eventually back off.
        let mut t = AdaptiveTuner::new(8, 8);
        assert_eq!(t.observe_wave(ep(0), &clean(1.0, 100)), TuneDecision::Grew);
        let mut p50 = 1.0;
        let mut decisions = Vec::new();
        for _ in 0..6 {
            p50 *= 1.08;
            decisions.push(t.observe_wave(ep(0), &clean(p50, 100)));
        }
        assert!(
            decisions.contains(&TuneDecision::BackedOff),
            "creeping regression never backed off: {decisions:?}"
        );
    }

    #[test]
    fn thin_waves_hold() {
        let mut t = AdaptiveTuner::new(8, 8);
        let before = t.limits(ep(0));
        let d = t.observe_wave(
            ep(0),
            &WaveEvidence {
                samples: 1,
                ..clean(1.0, 1)
            },
        );
        assert_eq!(d, TuneDecision::Held);
        assert_eq!(t.limits(ep(0)), before);
    }

    #[test]
    fn endpoints_are_independent() {
        let mut t = AdaptiveTuner::new(8, 8);
        t.observe_wave(
            ep(0),
            &WaveEvidence {
                breaches: 3,
                ..clean(1.0, 100)
            },
        );
        assert!(t.limits(ep(0)).xtract < 8);
        assert_eq!(t.limits(ep(1)).xtract, 8);
    }

    #[test]
    fn warm_start_pre_applies_growth() {
        let cold = AdaptiveTuner::new(2, 2).limits(ep(0));
        let warm = AdaptiveTuner::new(2, 2)
            .with_replayed_waves(4)
            .limits(ep(0));
        assert_eq!(cold.xtract, 2);
        assert_eq!(warm.xtract, 2 + 4 * GROW_STEP);
        // Warm start saturates at the ceiling, never past it.
        let capped = AdaptiveTuner::new(2, 2)
            .with_replayed_waves(10_000)
            .limits(ep(0));
        assert_eq!(capped.xtract, XTRACT_CEILING);
        assert_eq!(capped.funcx, FUNCX_CEILING);
    }

    #[test]
    fn poll_chunk_tracks_limits_within_clamps() {
        let mut t = AdaptiveTuner::new(2, 2);
        let lim = t.limits(ep(0));
        assert_eq!(lim.poll_chunk, (2usize * 2).clamp(POLL_FLOOR, POLL_CEILING));
    }

    #[test]
    fn tenant_headroom_caps_funcx() {
        let lim = BatchLimits {
            xtract: 8,
            funcx: 16,
            poll_chunk: 128,
        };
        // 40 invocations left / 8 per task → at most 5 tasks per request.
        assert_eq!(lim.cap_to_invocations(Some(40)).funcx, 5);
        // No quota → untouched.
        assert_eq!(lim.cap_to_invocations(None).funcx, 16);
        // Exhausted budget still leaves the floor.
        assert_eq!(lim.cap_to_invocations(Some(0)).funcx, FUNCX_FLOOR);
        // Ample budget never raises the limit.
        assert_eq!(lim.cap_to_invocations(Some(1 << 40)).funcx, 16);
    }

    fn arbitrary_evidence() -> impl Strategy<Value = WaveEvidence> {
        (
            proptest::option::of(0.0f64..500.0),
            0u64..400,
            0u64..400,
            0u64..3,
            any::<bool>(),
        )
            .prop_map(
                |(p50, samples, families, breaches, breaker_open)| WaveEvidence {
                    p50_latency_s: p50,
                    samples,
                    families,
                    breaches,
                    breaker_open,
                },
            )
    }

    proptest! {
        /// Limits stay inside the policy box for any evidence sequence.
        #[test]
        fn limits_always_within_bounds(
            evidence in proptest::collection::vec(arbitrary_evidence(), 0..60),
            start_x in 0usize..64,
            start_f in 0usize..64,
        ) {
            let mut t = AdaptiveTuner::new(start_x, start_f);
            for ev in &evidence {
                let lim = t.limits(ep(0));
                prop_assert!((XTRACT_FLOOR..=XTRACT_CEILING).contains(&lim.xtract));
                prop_assert!((FUNCX_FLOOR..=FUNCX_CEILING).contains(&lim.funcx));
                prop_assert!((POLL_FLOOR..=POLL_CEILING).contains(&lim.poll_chunk));
                t.observe_wave(ep(0), ev);
            }
            let lim = t.limits(ep(0));
            prop_assert!((XTRACT_FLOOR..=XTRACT_CEILING).contains(&lim.xtract));
            prop_assert!((FUNCX_FLOOR..=FUNCX_CEILING).contains(&lim.funcx));
        }

        /// The controller is a pure function of the evidence sequence:
        /// two controllers fed the same waves agree limit-for-limit and
        /// decision-for-decision.
        #[test]
        fn decisions_are_deterministic(
            evidence in proptest::collection::vec(arbitrary_evidence(), 0..60),
        ) {
            let mut a = AdaptiveTuner::new(4, 4);
            let mut b = AdaptiveTuner::new(4, 4);
            for ev in &evidence {
                prop_assert_eq!(a.limits(ep(7)), b.limits(ep(7)));
                prop_assert_eq!(a.observe_wave(ep(7), ev), b.observe_wave(ep(7), ev));
            }
            prop_assert_eq!(a.limits(ep(7)), b.limits(ep(7)));
        }
    }
}
