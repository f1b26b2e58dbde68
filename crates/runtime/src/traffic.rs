//! Deterministic, seeded arrival-process generators for the serving runtime.
//!
//! The serving benches have so far only seen
//! [`seeded_request_stream`](crate::serve::seeded_request_stream)'s uniform
//! exponential arrivals; real traffic from millions of users is bursty,
//! diurnal, heavy-tailed and multi-tenant. This module supplies the seeded
//! generators that model those shapes while keeping every run replayable:
//!
//! * [`UniformProcess`] — exponential inter-arrival gaps with a fixed mean,
//!   bit-compatible with the legacy `seeded_request_stream` (same seed, same
//!   draw order, same stream).
//! * [`PoissonBurst`] — a Poisson arrival process where each arrival event is,
//!   with some probability, a *burst* of several requests landing on one tick
//!   (the heavy tail of retry storms and fan-out callers).
//! * [`OnOffFlashCrowd`] — alternating ON windows of dense traffic and silent
//!   OFF windows: the flash-crowd / diurnal pattern that stresses admission
//!   control hardest.
//! * [`ZipfMix`] — multi-tenant traffic over a
//!   [`ModelRegistry`](crate::registry::ModelRegistry): each request is
//!   routed to a model drawn from a Zipf(`s`) popularity distribution, so a
//!   few models are hot and the long tail is cold (the access skew the
//!   registry's weight cache is designed around).
//!
//! Every stream is a pure function of `(configuration, seed)` through the
//! workspace's ChaCha20 shim: generation never looks at execution state, so
//! the same seed replays the identical stream across runs and across worker
//! counts — the invariant the admission layer's determinism rests on. The
//! generators hold a few machine words of state; the only allocations are
//! each emitted request's input buffer.
//!
//! Invalid configurations (zero rate, empty model mix, Zipf exponent ≤ 0, …)
//! are rejected with a typed [`TrafficError`] at construction time instead of
//! panicking mid-stream. Arrival ticks saturate at `u64::MAX` instead of
//! wrapping, so every stream is sorted whatever the gaps add up to.

use pd_tensor::init::seeded_rng;
use rand::Rng;
use rand_chacha::ChaCha20Rng;

use crate::registry::TaggedRequest;
use crate::serve::Request;

/// Errors from building an arrival generator with an unusable configuration.
#[derive(Debug, Clone, PartialEq)]
pub enum TrafficError {
    /// A generator that needs a positive arrival rate got a non-positive or
    /// non-finite mean inter-arrival gap.
    ZeroRate {
        /// The rejected mean inter-arrival gap.
        mean_interarrival_ticks: f64,
    },
    /// A mean inter-arrival gap that must be finite and non-negative was not
    /// (zero is allowed — it is the saturated closed-loop mode).
    InvalidInterarrival {
        /// The rejected mean inter-arrival gap.
        mean_interarrival_ticks: f64,
    },
    /// A burst probability outside `[0, 1]`.
    InvalidBurstProbability {
        /// The rejected probability.
        probability: f64,
    },
    /// A burst of zero requests.
    ZeroBurstSize,
    /// An on/off generator with a zero-length ON window.
    ZeroOnWindow,
    /// A Zipf exponent that is not strictly positive (or not finite).
    NonPositiveZipfExponent {
        /// The rejected exponent.
        exponent: f64,
    },
    /// A Zipf mix over an empty model list.
    EmptyModelMix,
}

impl std::fmt::Display for TrafficError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TrafficError::ZeroRate {
                mean_interarrival_ticks,
            } => write!(
                f,
                "mean inter-arrival gap must be positive and finite, got {mean_interarrival_ticks}"
            ),
            TrafficError::InvalidInterarrival {
                mean_interarrival_ticks,
            } => write!(
                f,
                "mean inter-arrival gap must be finite and >= 0, got {mean_interarrival_ticks}"
            ),
            TrafficError::InvalidBurstProbability { probability } => {
                write!(f, "burst probability must be in [0, 1], got {probability}")
            }
            TrafficError::ZeroBurstSize => write!(f, "burst size must be at least 1"),
            TrafficError::ZeroOnWindow => write!(f, "ON window must be at least 1 tick"),
            TrafficError::NonPositiveZipfExponent { exponent } => {
                write!(f, "Zipf exponent must be > 0 and finite, got {exponent}")
            }
            TrafficError::EmptyModelMix => write!(f, "Zipf mix needs at least one model"),
        }
    }
}

impl std::error::Error for TrafficError {}

/// One exponential inter-arrival gap with the given mean, rounded to whole
/// ticks — the exact draw the legacy `seeded_request_stream` makes.
fn exponential_gap(rng: &mut ChaCha20Rng, mean_ticks: f64) -> u64 {
    let u: f64 = rng.gen_range(0.0..1.0);
    (-mean_ticks * (1.0 - u).ln()).round() as u64
}

/// One uniform request input in `[-1, 1)` per coordinate — the exact draws
/// the legacy `seeded_request_stream` makes.
fn uniform_input(rng: &mut ChaCha20Rng, in_dim: usize) -> Vec<f32> {
    (0..in_dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect()
}

/// Uniform arrivals: exponential inter-arrival gaps with a fixed mean and
/// uniform inputs in `[-1, 1)`.
///
/// Bit-compatible with the legacy
/// [`seeded_request_stream`](crate::serve::seeded_request_stream) (which is
/// now implemented on top of this type): the same `(seed, n, in_dim, mean)`
/// produces the identical request stream, so every committed serving baseline
/// stays comparable. A mean of `0` is the saturated closed-loop mode — every
/// request arrives at tick 0 and no gap draw is made.
#[derive(Debug, Clone, PartialEq)]
pub struct UniformProcess {
    in_dim: usize,
    mean_interarrival_ticks: f64,
}

impl UniformProcess {
    /// A uniform process with the given input width and mean inter-arrival
    /// gap in ticks.
    ///
    /// # Errors
    ///
    /// Returns [`TrafficError::InvalidInterarrival`] if the mean is negative
    /// or not finite (zero is valid: the saturated mode).
    pub fn new(in_dim: usize, mean_interarrival_ticks: f64) -> Result<Self, TrafficError> {
        if !mean_interarrival_ticks.is_finite() || mean_interarrival_ticks < 0.0 {
            return Err(TrafficError::InvalidInterarrival {
                mean_interarrival_ticks,
            });
        }
        Ok(UniformProcess {
            in_dim,
            mean_interarrival_ticks,
        })
    }

    /// Generates `n_requests` requests, ids `0..n`, sorted by arrival tick.
    /// Pure function of `(self, seed)`.
    pub fn stream(&self, seed: u64, n_requests: usize) -> Vec<Request> {
        let mut rng = seeded_rng(seed);
        let mut tick = 0u64;
        (0..n_requests as u64)
            .map(|id| {
                if self.mean_interarrival_ticks > 0.0 {
                    tick = tick
                        .saturating_add(exponential_gap(&mut rng, self.mean_interarrival_ticks));
                }
                Request {
                    id,
                    arrival_tick: tick,
                    input: uniform_input(&mut rng, self.in_dim),
                }
            })
            .collect()
    }
}

/// Poisson arrivals with bursts: arrival *events* are spaced by exponential
/// gaps, and each event is — with probability `burst_probability` — a burst
/// of `burst_size` requests landing on the same tick (otherwise a single
/// request).
///
/// Models retry storms and fan-out callers: the offered load's mean is set by
/// the gap, but its variance is dominated by the bursts, which is exactly
/// what overflows bounded queues and triggers load shedding.
#[derive(Debug, Clone, PartialEq)]
pub struct PoissonBurst {
    in_dim: usize,
    mean_interarrival_ticks: f64,
    burst_probability: f64,
    burst_size: usize,
}

impl PoissonBurst {
    /// A bursty Poisson process.
    ///
    /// # Errors
    ///
    /// Returns [`TrafficError::ZeroRate`] if the mean gap is not positive and
    /// finite, [`TrafficError::InvalidBurstProbability`] for a probability
    /// outside `[0, 1]`, and [`TrafficError::ZeroBurstSize`] for an empty
    /// burst.
    pub fn new(
        in_dim: usize,
        mean_interarrival_ticks: f64,
        burst_probability: f64,
        burst_size: usize,
    ) -> Result<Self, TrafficError> {
        if !mean_interarrival_ticks.is_finite() || mean_interarrival_ticks <= 0.0 {
            return Err(TrafficError::ZeroRate {
                mean_interarrival_ticks,
            });
        }
        if !(0.0..=1.0).contains(&burst_probability) {
            return Err(TrafficError::InvalidBurstProbability {
                probability: burst_probability,
            });
        }
        if burst_size == 0 {
            return Err(TrafficError::ZeroBurstSize);
        }
        Ok(PoissonBurst {
            in_dim,
            mean_interarrival_ticks,
            burst_probability,
            burst_size,
        })
    }

    /// Generates `n_requests` requests, ids `0..n`, sorted by arrival tick.
    /// Pure function of `(self, seed)`. Per event the draw order is: gap,
    /// burst coin, then each member's input.
    pub fn stream(&self, seed: u64, n_requests: usize) -> Vec<Request> {
        let mut rng = seeded_rng(seed);
        let mut tick = 0u64;
        let mut out = Vec::with_capacity(n_requests);
        while out.len() < n_requests {
            tick = tick.saturating_add(exponential_gap(&mut rng, self.mean_interarrival_ticks));
            let count = if rng.gen_bool(self.burst_probability) {
                self.burst_size
            } else {
                1
            };
            for _ in 0..count.min(n_requests - out.len()) {
                out.push(Request {
                    id: out.len() as u64,
                    arrival_tick: tick,
                    input: uniform_input(&mut rng, self.in_dim),
                });
            }
        }
        out
    }
}

/// On/off flash-crowd arrivals: dense exponential traffic during ON windows
/// of `on_ticks`, silence during OFF windows of `off_ticks`, repeating.
///
/// Internally arrivals are generated on an *active-time* axis (exponential
/// gaps with mean `on_mean_interarrival_ticks`) and mapped onto the absolute
/// timeline by inserting the OFF windows — so the crowd's intra-window shape
/// is independent of the window geometry, and the whole stream remains a pure
/// function of `(self, seed)`.
#[derive(Debug, Clone, PartialEq)]
pub struct OnOffFlashCrowd {
    in_dim: usize,
    on_ticks: u64,
    off_ticks: u64,
    on_mean_interarrival_ticks: f64,
}

impl OnOffFlashCrowd {
    /// An on/off process with the given window geometry and ON-phase mean
    /// inter-arrival gap.
    ///
    /// # Errors
    ///
    /// Returns [`TrafficError::ZeroOnWindow`] if `on_ticks == 0` and
    /// [`TrafficError::ZeroRate`] if the ON-phase mean gap is not positive
    /// and finite. `off_ticks == 0` is valid (degenerates to a plain uniform
    /// process).
    pub fn new(
        in_dim: usize,
        on_ticks: u64,
        off_ticks: u64,
        on_mean_interarrival_ticks: f64,
    ) -> Result<Self, TrafficError> {
        if on_ticks == 0 {
            return Err(TrafficError::ZeroOnWindow);
        }
        if !on_mean_interarrival_ticks.is_finite() || on_mean_interarrival_ticks <= 0.0 {
            return Err(TrafficError::ZeroRate {
                mean_interarrival_ticks: on_mean_interarrival_ticks,
            });
        }
        Ok(OnOffFlashCrowd {
            in_dim,
            on_ticks,
            off_ticks,
            on_mean_interarrival_ticks,
        })
    }

    /// Maps a position on the active-time axis to the absolute tick timeline
    /// (each completed ON window is followed by an OFF window), saturating at
    /// `u64::MAX`.
    fn absolute_tick(&self, active: u64) -> u64 {
        let cycles = active / self.on_ticks;
        let within = active % self.on_ticks;
        let cycle_ticks = self.on_ticks.saturating_add(self.off_ticks);
        cycles.saturating_mul(cycle_ticks).saturating_add(within)
    }

    /// Generates `n_requests` requests, ids `0..n`, sorted by arrival tick
    /// and all landing inside ON windows. Pure function of `(self, seed)`.
    pub fn stream(&self, seed: u64, n_requests: usize) -> Vec<Request> {
        let mut rng = seeded_rng(seed);
        let mut active = 0u64;
        (0..n_requests as u64)
            .map(|id| {
                active = active
                    .saturating_add(exponential_gap(&mut rng, self.on_mean_interarrival_ticks));
                Request {
                    id,
                    arrival_tick: self.absolute_tick(active),
                    input: uniform_input(&mut rng, self.in_dim),
                }
            })
            .collect()
    }
}

/// Zipf-skewed multi-model traffic: each request's arrival tick advances by
/// an exponential gap and its target model is drawn from a Zipf(`exponent`)
/// popularity distribution over the configured models — rank `k` (1-based)
/// has weight `k^-exponent`, so the first model is hot and the tail is cold.
///
/// This is the access pattern the
/// [`ModelRegistry`](crate::registry::ModelRegistry)'s weight cache is
/// designed around: the hot model stays resident while cold models evict and
/// reload.
#[derive(Debug, Clone, PartialEq)]
pub struct ZipfMix {
    models: Vec<(String, usize)>,
    exponent: f64,
    mean_interarrival_ticks: f64,
}

impl ZipfMix {
    /// A Zipf mix over `(model id, input width)` pairs, in popularity-rank
    /// order (first entry is the hottest).
    ///
    /// # Errors
    ///
    /// Returns [`TrafficError::EmptyModelMix`] for an empty model list,
    /// [`TrafficError::NonPositiveZipfExponent`] for `exponent <= 0` (or not
    /// finite), and [`TrafficError::InvalidInterarrival`] for a negative or
    /// non-finite mean gap (zero is the saturated mode).
    pub fn new(
        models: Vec<(String, usize)>,
        exponent: f64,
        mean_interarrival_ticks: f64,
    ) -> Result<Self, TrafficError> {
        if models.is_empty() {
            return Err(TrafficError::EmptyModelMix);
        }
        if !exponent.is_finite() || exponent <= 0.0 {
            return Err(TrafficError::NonPositiveZipfExponent { exponent });
        }
        if !mean_interarrival_ticks.is_finite() || mean_interarrival_ticks < 0.0 {
            return Err(TrafficError::InvalidInterarrival {
                mean_interarrival_ticks,
            });
        }
        Ok(ZipfMix {
            models,
            exponent,
            mean_interarrival_ticks,
        })
    }

    /// The configured `(model id, input width)` pairs in popularity-rank
    /// order.
    pub fn models(&self) -> &[(String, usize)] {
        &self.models
    }

    /// The normalised Zipf popularity of each model, in rank order (sums
    /// to 1).
    pub fn popularity(&self) -> Vec<f64> {
        let raw: Vec<f64> = (1..=self.models.len())
            .map(|rank| (rank as f64).powf(-self.exponent))
            .collect();
        let total: f64 = raw.iter().sum();
        raw.into_iter().map(|w| w / total).collect()
    }

    /// Generates `n_requests` tagged requests, global ids `0..n`, sorted by
    /// arrival tick. Pure function of `(self, seed)`. Per request the draw
    /// order is: gap (skipped when the mean is 0), model rank, then the
    /// input at that model's width.
    pub fn stream(&self, seed: u64, n_requests: usize) -> Vec<TaggedRequest> {
        let mut rng = seeded_rng(seed);
        let weights: Vec<f64> = (1..=self.models.len())
            .map(|rank| (rank as f64).powf(-self.exponent))
            .collect();
        let total: f64 = weights.iter().sum();
        let mut tick = 0u64;
        (0..n_requests as u64)
            .map(|id| {
                if self.mean_interarrival_ticks > 0.0 {
                    tick = tick
                        .saturating_add(exponential_gap(&mut rng, self.mean_interarrival_ticks));
                }
                let mut draw: f64 = rng.gen_range(0.0..total);
                let mut rank = self.models.len() - 1;
                for (i, w) in weights.iter().enumerate() {
                    if draw < *w {
                        rank = i;
                        break;
                    }
                    draw -= w;
                }
                let (model_id, in_dim) = &self.models[rank];
                TaggedRequest {
                    model_id: model_id.clone(),
                    request: Request {
                        id,
                        arrival_tick: tick,
                        input: uniform_input(&mut rng, *in_dim),
                    },
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_process_matches_legacy_seeded_request_stream() {
        // The legacy generator's algorithm, frozen inline: the new path must
        // reproduce it bit-for-bit so committed baselines stay comparable.
        fn legacy(seed: u64, n: usize, in_dim: usize, mean: f64) -> Vec<Request> {
            let mut rng = seeded_rng(seed);
            let mut tick = 0u64;
            (0..n as u64)
                .map(|id| {
                    if mean > 0.0 {
                        let u: f64 = rng.gen_range(0.0..1.0);
                        tick += (-mean * (1.0 - u).ln()).round() as u64;
                    }
                    Request {
                        id,
                        arrival_tick: tick,
                        input: (0..in_dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect(),
                    }
                })
                .collect()
        }
        for (seed, n, in_dim, mean) in [(7u64, 40usize, 8usize, 3.0f64), (42, 16, 4, 2.5)] {
            let process = UniformProcess::new(in_dim, mean).unwrap();
            assert_eq!(process.stream(seed, n), legacy(seed, n, in_dim, mean));
        }
        // Saturated mode: no gap draws at all.
        let saturated = UniformProcess::new(3, 0.0).unwrap().stream(9, 10);
        assert_eq!(saturated, legacy(9, 10, 3, 0.0));
        assert!(saturated.iter().all(|r| r.arrival_tick == 0));
    }

    #[test]
    fn streams_are_deterministic_and_sorted() {
        let poisson = PoissonBurst::new(6, 4.0, 0.25, 5).unwrap();
        let crowd = OnOffFlashCrowd::new(6, 30, 200, 1.5).unwrap();
        let a = poisson.stream(11, 64);
        assert_eq!(a, poisson.stream(11, 64), "same seed, same stream");
        assert_ne!(a, poisson.stream(12, 64), "different seed, new stream");
        for stream in [a, crowd.stream(13, 64)] {
            assert!(stream
                .windows(2)
                .all(|w| w[0].arrival_tick <= w[1].arrival_tick));
            assert_eq!(stream.len(), 64);
        }
    }

    #[test]
    fn poisson_burst_produces_same_tick_bursts() {
        let stream = PoissonBurst::new(2, 10.0, 0.3, 6).unwrap().stream(5, 200);
        let max_same_tick = stream
            .iter()
            .map(|r| {
                stream
                    .iter()
                    .filter(|s| s.arrival_tick == r.arrival_tick)
                    .count()
            })
            .max()
            .unwrap();
        assert!(
            max_same_tick >= 6,
            "expected at least one full burst, max co-arrivals {max_same_tick}"
        );
    }

    #[test]
    fn flash_crowd_arrivals_land_only_in_on_windows() {
        let crowd = OnOffFlashCrowd::new(4, 25, 500, 1.0).unwrap();
        let stream = crowd.stream(3, 300);
        let cycle = 25 + 500;
        assert!(stream.iter().all(|r| r.arrival_tick % cycle < 25));
        // The stream actually spans several cycles.
        let last = stream.last().unwrap().arrival_tick;
        assert!(last > cycle, "300 arrivals at mean 1.0 must cross a window");
    }

    #[test]
    fn zipf_mix_skews_toward_the_hot_model() {
        let mix = ZipfMix::new(
            vec![
                ("hot".to_string(), 4),
                ("warm".to_string(), 8),
                ("cold".to_string(), 4),
            ],
            1.5,
            2.0,
        )
        .unwrap();
        let stream = mix.stream(21, 600);
        let count = |id: &str| stream.iter().filter(|r| r.model_id == id).count();
        let (hot, warm, cold) = (count("hot"), count("warm"), count("cold"));
        assert_eq!(hot + warm + cold, 600);
        assert!(hot > warm && warm > cold, "skew: {hot}/{warm}/{cold}");
        // Popularities normalise and rank-order.
        let pop = mix.popularity();
        assert!((pop.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(pop[0] > pop[1] && pop[1] > pop[2]);
        // Inputs follow each model's own width.
        assert!(stream
            .iter()
            .all(|r| r.request.input.len() == if r.model_id == "warm" { 8 } else { 4 }));
    }

    #[test]
    fn invalid_configs_are_typed_errors() {
        assert_eq!(
            UniformProcess::new(4, -1.0).unwrap_err(),
            TrafficError::InvalidInterarrival {
                mean_interarrival_ticks: -1.0
            }
        );
        assert!(UniformProcess::new(4, f64::NAN).is_err());
        assert_eq!(
            PoissonBurst::new(4, 0.0, 0.5, 3).unwrap_err(),
            TrafficError::ZeroRate {
                mean_interarrival_ticks: 0.0
            }
        );
        assert_eq!(
            PoissonBurst::new(4, 2.0, 1.5, 3).unwrap_err(),
            TrafficError::InvalidBurstProbability { probability: 1.5 }
        );
        assert_eq!(
            PoissonBurst::new(4, 2.0, 0.5, 0).unwrap_err(),
            TrafficError::ZeroBurstSize
        );
        assert_eq!(
            OnOffFlashCrowd::new(4, 0, 10, 1.0).unwrap_err(),
            TrafficError::ZeroOnWindow
        );
        assert_eq!(
            OnOffFlashCrowd::new(4, 10, 10, 0.0).unwrap_err(),
            TrafficError::ZeroRate {
                mean_interarrival_ticks: 0.0
            }
        );
        assert_eq!(
            ZipfMix::new(vec![], 1.0, 1.0).unwrap_err(),
            TrafficError::EmptyModelMix
        );
        assert_eq!(
            ZipfMix::new(vec![("m".to_string(), 4)], 0.0, 1.0).unwrap_err(),
            TrafficError::NonPositiveZipfExponent { exponent: 0.0 }
        );
        assert!(ZipfMix::new(vec![("m".to_string(), 4)], 1.0, -2.0).is_err());
        // Errors render through Display.
        let msg = TrafficError::EmptyModelMix.to_string();
        assert!(msg.contains("at least one model"), "{msg}");
    }
}
