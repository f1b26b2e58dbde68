//! Per-model SLO targets, admission control, policy-driven batch ordering,
//! and the one scheduling pass that joins them.
//!
//! 1. [`SloTarget`] — a per-model service-level objective (latency deadline in
//!    ticks, scheduling priority, bounded queue depth), attached to a model
//!    at [`ModelRegistry::insert_with_slo`](crate::registry::ModelRegistry::insert_with_slo).
//! 2. **Admission** — a gate inside the batch planner's own queue replay
//!    ([`plan_batches`](crate::serve::plan_batches)): each arrival is checked
//!    against the backlog queued ahead of it and *shed* if it cannot be
//!    served. A typed [`Rejection`] records the model, tick and
//!    [`RejectReason`] (`QueueFull` when the backlog is at the SLO's
//!    `max_queue_depth`, `DeadlineInfeasible` when even the reference-cost
//!    service estimate already exceeds the deadline on arrival). Shedding and
//!    batching come from the same replay, so they cannot disagree.
//! 3. **Batch ordering** (`order_batches`) — decides the execution order of
//!    the per-model batch plans on the shared engine under an
//!    [`AdmissionPolicy`]: `Fifo` (close tick, then model id — exactly the
//!    historical `serve_multi` order), `Priority` (higher-priority SLOs
//!    first), or `EarliestDeadline` (the batch whose first member's absolute
//!    deadline is soonest).
//! 4. **The schedule** (`schedule`) — routes a tagged stream per model,
//!    admits and plans each model's stream in one replay, and orders the
//!    batches. The resulting `Schedule` owns the requests, and every
//!    serving loop only executes it: `ModelRegistry::serve_multi` and
//!    `serve_traffic`, and `Cluster::serve_traffic` on every topology.
//!
//! **Determinism invariant.** Every decision here is a pure function of the
//! arrival streams, the batching policy and the *reference* cost model (one
//! worker) — never of the worker count actually executing the batches.
//! Shedding happens on the arrival timeline; ordering is computed on a
//! simulated reference engine timeline. The same seed therefore yields
//! bit-identical admission decisions, batch membership and outputs for any
//! worker count, which `tests/slo.rs` locks in across {1, 2, 3, 7} workers.

use std::collections::BTreeMap;

use crate::registry::{TaggedCompletion, TaggedRequest};
use crate::serve::{replay, BatchConfig, PlannedBatch, Request, ServeConfig, ServiceModel};

/// Worker count the *decision* timeline charges service at. Admission
/// estimates and batch ordering are computed against this fixed reference,
/// never against the executing worker count — that is what keeps decisions
/// bit-identical across {1, 2, …, n} workers.
const REFERENCE_WORKERS: usize = 1;

/// Errors from building an invalid SLO target.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SloError {
    /// A latency deadline of zero ticks (nothing can complete in 0 ticks —
    /// every request would be shed on arrival).
    ZeroDeadline,
    /// A queue depth of zero (no request could ever be admitted).
    ZeroQueueDepth,
}

impl std::fmt::Display for SloError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SloError::ZeroDeadline => write!(f, "SLO deadline must be at least 1 tick"),
            SloError::ZeroQueueDepth => write!(f, "SLO max queue depth must be at least 1"),
        }
    }
}

impl std::error::Error for SloError {}

/// A per-model service-level objective.
///
/// The fields are public for transparency; [`SloTarget::new`] validates them.
/// A hand-built target with a zero deadline or depth does not panic — it
/// simply sheds every request, which is the semantically consistent reading.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SloTarget {
    /// Latency deadline in ticks: a request *meets* its SLO when
    /// `completion_tick - arrival_tick <= deadline_ticks`.
    pub deadline_ticks: u64,
    /// Scheduling priority under [`AdmissionPolicy::Priority`]: higher values
    /// are served first when batches contend for the engine.
    pub priority: u8,
    /// Largest backlog of admitted-but-unbatched requests; an arrival that
    /// finds the queue at this depth is shed with
    /// [`RejectReason::QueueFull`].
    pub max_queue_depth: usize,
}

impl SloTarget {
    /// A validated SLO target.
    ///
    /// # Errors
    ///
    /// Returns [`SloError::ZeroDeadline`] or [`SloError::ZeroQueueDepth`] for
    /// degenerate values that would shed all traffic.
    pub fn new(
        deadline_ticks: u64,
        priority: u8,
        max_queue_depth: usize,
    ) -> Result<Self, SloError> {
        if deadline_ticks == 0 {
            return Err(SloError::ZeroDeadline);
        }
        if max_queue_depth == 0 {
            return Err(SloError::ZeroQueueDepth);
        }
        Ok(SloTarget {
            deadline_ticks,
            priority,
            max_queue_depth,
        })
    }
}

/// Why a request was shed instead of admitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// The model's admitted-but-unbatched backlog was at
    /// [`SloTarget::max_queue_depth`].
    QueueFull,
    /// The reference-cost service estimate for this request already exceeded
    /// [`SloTarget::deadline_ticks`] at arrival — serving it could only waste
    /// engine time on a guaranteed SLO miss.
    DeadlineInfeasible,
}

impl std::fmt::Display for RejectReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RejectReason::QueueFull => write!(f, "queue full"),
            RejectReason::DeadlineInfeasible => write!(f, "deadline infeasible"),
        }
    }
}

/// One shed request: which model dropped it, when, and why.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rejection {
    /// The model the request was routed to.
    pub model: String,
    /// The shed request's id.
    pub request_id: u64,
    /// The tick the request arrived (and was shed — admission decides on
    /// arrival).
    pub tick: u64,
    /// Why it was shed.
    pub reason: RejectReason,
}

/// The batch-ordering policy for contending per-model batches on the shared
/// engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionPolicy {
    /// Close tick, then model id — exactly the historical
    /// [`serve_multi`](crate::registry::ModelRegistry::serve_multi) order.
    Fifo,
    /// Higher [`SloTarget::priority`] first among ready batches; close tick
    /// and model id break ties. Models without an SLO have priority 0.
    Priority,
    /// The ready batch whose first member's absolute deadline
    /// (`arrival + deadline_ticks`) is soonest runs first. Batches of models
    /// without an SLO have an infinite deadline and run last among ready
    /// contenders.
    EarliestDeadline,
}

/// Everything [`serve_traffic`](crate::registry::ModelRegistry::serve_traffic)
/// needs: the familiar batching + service-cost configuration and the
/// ordering policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrafficConfig {
    /// Batch-coalescing policy and execution-cost model (shared with the
    /// plain serving paths).
    pub serve: ServeConfig,
    /// How contending batches are ordered on the engine.
    pub policy: AdmissionPolicy,
}

impl TrafficConfig {
    /// A traffic configuration.
    pub fn new(serve: ServeConfig, policy: AdmissionPolicy) -> Self {
        TrafficConfig { serve, policy }
    }
}

/// Per-model SLO bookkeeping of one traffic run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SloTally {
    /// Requests offered to the model (admitted + shed).
    pub offered: usize,
    /// Served requests whose latency met the deadline.
    pub met: usize,
    /// Served requests that missed the deadline.
    pub missed: usize,
    /// Requests shed by admission control.
    pub shed: usize,
}

impl SloTally {
    /// SLO attainment: the fraction of *offered* requests that completed
    /// within the deadline (shed requests count as unmet). 1.0 when no
    /// traffic was offered.
    pub fn attainment(&self) -> f64 {
        if self.offered == 0 {
            1.0
        } else {
            self.met as f64 / self.offered as f64
        }
    }

    /// Fraction of offered requests shed by admission control.
    pub fn shed_rate(&self) -> f64 {
        if self.offered == 0 {
            0.0
        } else {
            self.shed as f64 / self.offered as f64
        }
    }
}

impl<'a> std::iter::Sum<&'a SloTally> for SloTally {
    fn sum<I: Iterator<Item = &'a SloTally>>(tallies: I) -> SloTally {
        tallies.fold(SloTally::default(), |total, t| SloTally {
            offered: total.offered + t.offered,
            met: total.met + t.met,
            missed: total.missed + t.missed,
            shed: total.shed + t.shed,
        })
    }
}

/// One model's reference service cost: the ticks a batch takes at the
/// decision timeline's worker count.
#[derive(Debug, Clone, Copy)]
struct RefCost {
    service: ServiceModel,
    mul_count_per_example: u64,
    /// Largest batch the planner forms (`max_batch`, at least 1).
    cap: usize,
}

impl RefCost {
    /// The reference cost of `mul_count_per_example` through the service
    /// model, for batches of at most `max_batch`.
    fn new(service: &ServiceModel, mul_count_per_example: u64, max_batch: usize) -> Self {
        RefCost {
            service: *service,
            mul_count_per_example,
            cap: max_batch.max(1),
        }
    }

    /// Reference ticks of a batch of `size` examples.
    fn ticks(&self, size: usize) -> u64 {
        self.service.batch_ticks(
            self.mul_count_per_example.saturating_mul(size as u64),
            REFERENCE_WORKERS,
        )
    }

    /// Deterministic service estimate for a request that finds `pending`
    /// admitted requests queued ahead of it: the requests ahead drain in
    /// full `max_batch` chunks and the new request rides the next chunk.
    /// Ignores cross-model engine contention and queue-close delay — it is a
    /// *load-shaped* estimate, monotone in the backlog, not an exact
    /// prediction.
    fn estimate(&self, pending: usize) -> u64 {
        let full_chunks = (pending / self.cap) as u64;
        full_chunks
            .saturating_mul(self.ticks(self.cap))
            .saturating_add(self.ticks(pending % self.cap + 1))
    }

    /// The admission gate: why an arrival finding `backlog` admitted requests
    /// queued ahead of it is shed under `slo` — `QueueFull` when the backlog
    /// is at the depth bound, then `DeadlineInfeasible` when the estimate
    /// exceeds the deadline — or `None` to admit it.
    fn reject(&self, slo: &SloTarget, backlog: usize) -> Option<RejectReason> {
        if backlog >= slo.max_queue_depth {
            Some(RejectReason::QueueFull)
        } else if self.estimate(backlog) > slo.deadline_ticks {
            Some(RejectReason::DeadlineInfeasible)
        } else {
            None
        }
    }
}

/// One batch of a [`Schedule`]: its model and members, plus every key a
/// policy can order it by.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ScheduledBatch {
    /// Tick the batch became ready for execution.
    pub close_tick: u64,
    /// The owning model's SLO priority (0 without an SLO).
    pub priority: u8,
    /// Absolute deadline of the batch's first (oldest) member;
    /// `u64::MAX` without an SLO.
    pub deadline_tick: u64,
    /// Service ticks at the reference worker count.
    pub ref_ticks: u64,
    /// The owning model.
    pub model_id: String,
    /// Position within the model's own batch plan (preserves per-model
    /// order on key ties).
    pub seq: usize,
    /// The member requests, in arrival order.
    pub requests: Vec<Request>,
}

fn policy_key(policy: AdmissionPolicy, batch: &ScheduledBatch) -> (u64, u64, &str, usize) {
    match policy {
        AdmissionPolicy::Fifo => (batch.close_tick, 0, &batch.model_id, batch.seq),
        AdmissionPolicy::Priority => (
            u64::from(u8::MAX - batch.priority),
            batch.close_tick,
            &batch.model_id,
            batch.seq,
        ),
        AdmissionPolicy::EarliestDeadline => (
            batch.deadline_tick,
            batch.close_tick,
            &batch.model_id,
            batch.seq,
        ),
    }
}

/// Decides the execution order of the merged batch plans under `policy` by
/// simulating a *reference* engine timeline: whenever the reference engine
/// frees, the best ready batch (smallest policy key among those already
/// closed) runs next; if none is ready the timeline jumps to the next close
/// tick. Service is charged at [`ScheduledBatch::ref_ticks`], so the order is
/// a pure function of the batch plans and the policy — the executing worker
/// count never enters.
///
/// For [`AdmissionPolicy::Fifo`] this provably reduces to sorting by
/// `(close_tick, model_id, seq)`: among ready batches the smallest close tick
/// wins, and unready batches always have later close ticks.
pub(crate) fn order_batches(policy: AdmissionPolicy, batches: &[ScheduledBatch]) -> Vec<usize> {
    let mut remaining: Vec<usize> = (0..batches.len()).collect();
    let mut order = Vec::with_capacity(batches.len());
    let Some(mut free) = batches.iter().map(|b| b.close_tick).min() else {
        return order;
    };
    while !remaining.is_empty() {
        if !remaining.iter().any(|&i| batches[i].close_tick <= free) {
            free = remaining
                .iter()
                .map(|&i| batches[i].close_tick)
                .min()
                .expect("non-empty");
        }
        let pos = remaining
            .iter()
            .enumerate()
            .filter(|(_, &i)| batches[i].close_tick <= free)
            .min_by_key(|(_, &i)| policy_key(policy, &batches[i]))
            .map(|(pos, _)| pos)
            .expect("a ready batch exists");
        let idx = remaining.remove(pos);
        free = free
            .max(batches[idx].close_tick)
            .saturating_add(batches[idx].ref_ticks);
        order.push(idx);
    }
    order
}

/// One model's stream through the batch planner's replay behind the
/// admission gate of `slo` (no SLO admits everything): the batch plan of the
/// admitted requests, with each shed request appended to `rejections`.
fn admit_and_plan(
    model_id: &str,
    stream: Vec<Request>,
    batching: BatchConfig,
    slo: Option<SloTarget>,
    ref_cost: &RefCost,
    rejections: &mut Vec<Rejection>,
) -> Vec<PlannedBatch> {
    replay(stream, batching, |request, backlog| {
        let Some(reason) = slo.and_then(|slo| ref_cost.reject(&slo, backlog)) else {
            return true;
        };
        rejections.push(Rejection {
            model: model_id.to_string(),
            request_id: request.id,
            tick: request.arrival_tick,
            reason,
        });
        false
    })
}

/// What the schedule needs to know about a model: its per-example cost and
/// its SLO, if any.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ModelCost {
    /// Multiplications per example.
    pub mul_count: u64,
    /// The model's service-level objective.
    pub slo: Option<SloTarget>,
}

/// The result of the one scheduling pass: what was shed and which batches
/// run in which order. It owns the requests.
#[derive(Debug)]
pub(crate) struct Schedule {
    /// Tick the first request arrived (0 for an empty stream): the makespan
    /// start.
    pub first_arrival_tick: u64,
    /// Requests offered per model (admitted + shed).
    pub offered: BTreeMap<String, usize>,
    /// Every shed request, sorted by `(tick, model, request id)`.
    pub rejections: Vec<Rejection>,
    /// The admitted requests' batches, in execution order.
    pub batches: Vec<ScheduledBatch>,
}

/// Schedules a tagged stream (sorted by arrival tick): routes it per model
/// (arrival order kept within each model), replays each model's stream
/// through the batch planner — behind its SLO's admission gate when `shed`
/// is on — and orders every model's batches under `policy` with
/// [`order_batches`]. `model` supplies each model's cost and SLO. A pure
/// function of its inputs: the executing worker count never enters.
///
/// # Errors
///
/// Returns the id of the first request whose model `model` does not know.
pub(crate) fn schedule(
    requests: Vec<TaggedRequest>,
    model: impl Fn(&str) -> Option<ModelCost>,
    cfg: &ServeConfig,
    policy: AdmissionPolicy,
    shed: bool,
) -> Result<Schedule, String> {
    let first_arrival_tick = requests
        .iter()
        .map(|r| r.request.arrival_tick)
        .min()
        .unwrap_or(0);
    let mut streams: BTreeMap<String, (ModelCost, Vec<Request>)> = BTreeMap::new();
    for r in requests {
        let Some(cost) = model(&r.model_id) else {
            return Err(r.model_id);
        };
        streams
            .entry(r.model_id)
            .or_insert_with(|| (cost, Vec::new()))
            .1
            .push(r.request);
    }

    let mut offered = BTreeMap::new();
    let mut rejections = Vec::new();
    let mut batches = Vec::new();
    for (id, (cost, stream)) in streams {
        offered.insert(id.clone(), stream.len());
        let ref_cost = RefCost::new(&cfg.service, cost.mul_count, cfg.batching.max_batch);
        let gate = cost.slo.filter(|_| shed);
        let plans = admit_and_plan(&id, stream, cfg.batching, gate, &ref_cost, &mut rejections);
        for (seq, plan) in plans.into_iter().enumerate() {
            batches.push(ScheduledBatch {
                close_tick: plan.close_tick,
                priority: cost.slo.map_or(0, |s| s.priority),
                deadline_tick: cost.slo.map_or(u64::MAX, |s| {
                    plan.requests[0]
                        .arrival_tick
                        .saturating_add(s.deadline_ticks)
                }),
                ref_ticks: ref_cost.ticks(plan.requests.len()),
                model_id: id.clone(),
                seq,
                requests: plan.requests,
            });
        }
    }
    rejections
        .sort_by(|a, b| (a.tick, &a.model, a.request_id).cmp(&(b.tick, &b.model, b.request_id)));
    let order = order_batches(policy, &batches);
    let mut slots: Vec<Option<ScheduledBatch>> = batches.into_iter().map(Some).collect();
    let batches = order
        .into_iter()
        .map(|i| slots[i].take().expect("the order is a permutation"))
        .collect();
    Ok(Schedule {
        first_arrival_tick,
        offered,
        rejections,
        batches,
    })
}

impl Schedule {
    /// Per-model SLO bookkeeping once `completed` — the served requests of
    /// this schedule — ran: offered and shed counts from the schedule, and
    /// each completion met or missed against its model's deadline (`slo`
    /// looks it up; models without an SLO count every completion as met).
    pub(crate) fn slo_tallies(
        &self,
        completed: &[TaggedCompletion],
        slo: impl Fn(&str) -> Option<SloTarget>,
    ) -> BTreeMap<String, SloTally> {
        let mut tallies: BTreeMap<String, SloTally> = self
            .offered
            .iter()
            .map(|(id, &offered)| {
                let tally = SloTally {
                    offered,
                    ..SloTally::default()
                };
                (id.clone(), tally)
            })
            .collect();
        for r in &self.rejections {
            tallies
                .get_mut(&r.model)
                .expect("rejections come from offered models")
                .shed += 1;
        }
        for tc in completed {
            let deadline = slo(&tc.model_id).map_or(u64::MAX, |s| s.deadline_ticks);
            let tally = tallies
                .get_mut(&tc.model_id)
                .expect("completions come from offered models");
            if tc.completed.latency_ticks() <= deadline {
                tally.met += 1;
            } else {
                tally.missed += 1;
            }
        }
        tallies
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn req(id: u64, tick: u64) -> Request {
        Request {
            id,
            arrival_tick: tick,
            input: vec![0.0],
        }
    }

    fn ref_cost(per_example: u64, max_batch: usize) -> RefCost {
        RefCost::new(
            &ServiceModel {
                muls_per_worker_tick: 1,
                batch_overhead_ticks: 0,
            },
            per_example,
            max_batch,
        )
    }

    /// Admission through the merged planner replay: the admitted requests of
    /// one model's stream, in arrival order.
    fn admit(
        model_id: &str,
        requests: Vec<Request>,
        batching: BatchConfig,
        slo: Option<SloTarget>,
        ref_cost: &RefCost,
        rejections: &mut Vec<Rejection>,
    ) -> Vec<Request> {
        admit_and_plan(model_id, requests, batching, slo, ref_cost, rejections)
            .into_iter()
            .flat_map(|plan| plan.requests)
            .collect()
    }

    #[test]
    fn slo_target_validates() {
        assert_eq!(SloTarget::new(0, 1, 4).unwrap_err(), SloError::ZeroDeadline);
        assert_eq!(
            SloTarget::new(10, 1, 0).unwrap_err(),
            SloError::ZeroQueueDepth
        );
        let slo = SloTarget::new(10, 3, 4).unwrap();
        assert_eq!(slo.deadline_ticks, 10);
        assert_eq!(slo.priority, 3);
        assert!(SloError::ZeroDeadline.to_string().contains("deadline"));
    }

    #[test]
    fn no_slo_admits_everything() {
        let stream: Vec<Request> = (0..10).map(|i| req(i, i)).collect();
        let mut rejections = Vec::new();
        let admitted = admit(
            "m",
            stream.clone(),
            BatchConfig::new(4, 8),
            None,
            &ref_cost(1, 4),
            &mut rejections,
        );
        assert_eq!(admitted, stream);
        assert!(rejections.is_empty());
    }

    #[test]
    fn queue_full_sheds_with_typed_rejection() {
        // max_wait 100, depth 2: the 3rd and later same-tick arrivals find
        // the backlog full until a flush (max_batch 8 never fills).
        let stream: Vec<Request> = (0..5).map(|i| req(i, 0)).collect();
        let slo = SloTarget::new(1_000_000, 0, 2).unwrap();
        let mut rejections = Vec::new();
        let admitted = admit(
            "m",
            stream,
            BatchConfig::new(8, 100),
            Some(slo),
            &ref_cost(1, 8),
            &mut rejections,
        );
        assert_eq!(admitted.len(), 2);
        assert_eq!(rejections.len(), 3);
        assert!(rejections
            .iter()
            .all(|r| r.reason == RejectReason::QueueFull && r.model == "m" && r.tick == 0));
        assert_eq!(rejections[0].request_id, 2);
    }

    #[test]
    fn infeasible_deadline_sheds_on_arrival() {
        // One example costs 50 reference ticks; deadline 60. The first
        // request is feasible (est 50), the second sees est 100 > 60.
        let stream: Vec<Request> = (0..3).map(|i| req(i, 0)).collect();
        let slo = SloTarget::new(60, 0, 100).unwrap();
        let mut rejections = Vec::new();
        let admitted = admit(
            "m",
            stream,
            BatchConfig::new(1, 100),
            Some(slo),
            &ref_cost(50, 1),
            &mut rejections,
        );
        assert_eq!(admitted.len(), 1);
        assert_eq!(rejections.len(), 2);
        assert!(rejections
            .iter()
            .all(|r| r.reason == RejectReason::DeadlineInfeasible));
    }

    #[test]
    fn backlog_drains_and_later_arrivals_are_admitted() {
        // Depth 1: burst at tick 0 sheds all but the first; after the
        // max_wait flush at tick 5, a tick-10 arrival is admitted again.
        let mut stream: Vec<Request> = (0..3).map(|i| req(i, 0)).collect();
        stream.push(req(3, 10));
        let slo = SloTarget::new(1_000_000, 0, 1).unwrap();
        let mut rejections = Vec::new();
        let admitted = admit(
            "m",
            stream,
            BatchConfig::new(8, 5),
            Some(slo),
            &ref_cost(1, 8),
            &mut rejections,
        );
        assert_eq!(
            admitted.iter().map(|r| r.id).collect::<Vec<_>>(),
            [0, 3],
            "backlog drained at tick 5, tick-10 arrival admitted"
        );
        assert_eq!(rejections.len(), 2);
    }

    fn meta(close: u64, priority: u8, deadline: u64, model: &str, seq: usize) -> ScheduledBatch {
        ScheduledBatch {
            close_tick: close,
            priority,
            deadline_tick: deadline,
            ref_ticks: 10,
            model_id: model.to_string(),
            seq,
            requests: Vec::new(),
        }
    }

    #[test]
    fn fifo_order_is_close_tick_then_model_then_seq() {
        let batches = vec![
            meta(5, 0, u64::MAX, "b", 0),
            meta(0, 0, u64::MAX, "a", 0),
            meta(0, 0, u64::MAX, "a", 1),
            meta(3, 0, u64::MAX, "c", 0),
        ];
        assert_eq!(
            order_batches(AdmissionPolicy::Fifo, &batches),
            vec![1, 2, 3, 0]
        );
    }

    #[test]
    fn priority_runs_urgent_batches_first_when_ready() {
        // Both close by tick 0; the high-priority one jumps ahead despite the
        // later model id. An unready batch (close 100) cannot jump anything.
        let batches = vec![
            meta(0, 0, u64::MAX, "a", 0),
            meta(0, 7, u64::MAX, "z", 0),
            meta(100, 9, u64::MAX, "z", 1),
        ];
        assert_eq!(
            order_batches(AdmissionPolicy::Priority, &batches),
            vec![1, 0, 2]
        );
    }

    #[test]
    fn earliest_deadline_preempts_ready_contenders() {
        let batches = vec![
            meta(0, 0, 10_000, "bulk", 0),
            meta(0, 0, 10_000, "bulk", 1),
            meta(0, 0, 50, "fast", 0),
        ];
        assert_eq!(
            order_batches(AdmissionPolicy::EarliestDeadline, &batches),
            vec![2, 0, 1]
        );
    }

    #[test]
    fn unready_batches_wait_for_their_close_tick() {
        // EDF: the tight-deadline batch closes at 100 — the reference engine
        // serves the two ready bulk batches (10 ticks each) and the tight one
        // preempts the third as soon as it is ready.
        let batches = vec![
            meta(0, 0, 10_000, "bulk", 0),
            meta(0, 0, 10_000, "bulk", 1),
            meta(0, 0, 10_000, "bulk", 2),
            meta(15, 0, 120, "fast", 0),
        ];
        assert_eq!(
            order_batches(AdmissionPolicy::EarliestDeadline, &batches),
            vec![0, 1, 3, 2]
        );
    }

    #[test]
    fn slo_tally_rates() {
        let t = SloTally {
            offered: 10,
            met: 6,
            missed: 2,
            shed: 2,
        };
        assert!((t.attainment() - 0.6).abs() < 1e-12);
        assert!((t.shed_rate() - 0.2).abs() < 1e-12);
        assert_eq!(SloTally::default().attainment(), 1.0);
        assert_eq!(SloTally::default().shed_rate(), 0.0);
    }

    const MODELS: [&str; 3] = ["a", "b", "c"];
    const POLICIES: [AdmissionPolicy; 3] = [
        AdmissionPolicy::Fifo,
        AdmissionPolicy::Priority,
        AdmissionPolicy::EarliestDeadline,
    ];

    /// A tagged stream with request ids `0..draws.len()` from `(model, gap
    /// kind, gap)` draws: gap kind 0 repeats the previous tick, 1 and 2 add a
    /// short gap, 3 a long one. Ticks saturate at `u64::MAX`.
    fn tagged_stream(start: u64, draws: &[(usize, u8, u64)]) -> Vec<TaggedRequest> {
        let mut tick = start;
        draws
            .iter()
            .enumerate()
            .map(|(i, &(model, kind, gap))| {
                let gap = match kind {
                    0 => 0,
                    3 => gap * 1_000_003,
                    _ => gap,
                };
                tick = tick.saturating_add(gap);
                TaggedRequest {
                    model_id: MODELS[model].to_string(),
                    request: req(i as u64, tick),
                }
            })
            .collect()
    }

    proptest! {
        #[test]
        fn schedule_serves_or_sheds_every_request_once(
            (start_kind, draws) in (
                0u8..3,
                proptest::collection::vec((0usize..3, 0u8..4, 0u64..50), 0..40),
            ),
            (max_batch, wait_kind, short_wait) in (1usize..=8, 0u8..3, 1u64..20),
            slos in proptest::collection::vec(
                (0u8..3, 1u64..400, 0u8..4, 1usize..6),
                3,
            ),
            muls in proptest::collection::vec(1u64..5000, 3),
        ) {
            let start = [0, 1_000, u64::MAX - 200][usize::from(start_kind)];
            let stream = tagged_stream(start, &draws);
            let max_wait_ticks = [0, short_wait, u64::MAX][usize::from(wait_kind)];
            let cfg = ServeConfig {
                batching: BatchConfig::new(max_batch, max_wait_ticks),
                service: ServiceModel::default(),
            };
            // Each model goes without an SLO one time in three.
            let costs: Vec<ModelCost> = slos
                .iter()
                .zip(&muls)
                .map(|(&(has, deadline_ticks, priority, max_queue_depth), &mul_count)| ModelCost {
                    mul_count,
                    slo: (has > 0).then_some(SloTarget {
                        deadline_ticks,
                        priority,
                        max_queue_depth,
                    }),
                })
                .collect();
            let model = |id: &str| MODELS.iter().position(|m| *m == id).map(|k| costs[k]);
            let model_of: BTreeMap<u64, &str> = stream
                .iter()
                .map(|r| (r.request.id, r.model_id.as_str()))
                .collect();

            let mut fifo_rejections = Vec::new();
            for shed in [false, true] {
                for policy in POLICIES {
                    let s = schedule(stream.clone(), model, &cfg, policy, shed).unwrap();
                    // Every request id exactly once, in a batch or a rejection.
                    let mut seen: Vec<u64> = s
                        .batches
                        .iter()
                        .flat_map(|b| b.requests.iter().map(|r| r.id))
                        .chain(s.rejections.iter().map(|r| r.request_id))
                        .collect();
                    seen.sort_unstable();
                    prop_assert_eq!(seen, (0..stream.len() as u64).collect::<Vec<_>>());
                    // No batch is empty, mixes models, exceeds max_batch or
                    // closes before a member arrived; a batch that is not
                    // full closes at its oldest member's saturated deadline.
                    for b in &s.batches {
                        prop_assert!(!b.requests.is_empty() && b.requests.len() <= max_batch);
                        let deadline = b.requests[0].arrival_tick.saturating_add(max_wait_ticks);
                        prop_assert!(b.requests.len() == max_batch || b.close_tick == deadline);
                        for r in &b.requests {
                            prop_assert_eq!(model_of[&r.id], b.model_id.as_str());
                            prop_assert!(b.close_tick >= r.arrival_tick);
                        }
                    }
                    let key = |r: &Rejection| (r.tick, r.model.clone(), r.request_id);
                    prop_assert!(s.rejections.windows(2).all(|w| key(&w[0]) <= key(&w[1])));
                    if !shed {
                        prop_assert!(s.rejections.is_empty());
                    }
                    if policy == AdmissionPolicy::Fifo {
                        let key = |b: &ScheduledBatch| (b.close_tick, b.model_id.clone(), b.seq);
                        prop_assert!(s.batches.windows(2).all(|w| key(&w[0]) < key(&w[1])));
                        fifo_rejections = s.rejections.clone();
                    }
                    // Shedding is decided before ordering: no policy changes it.
                    prop_assert_eq!(&s.rejections, &fifo_rejections);

                    prop_assert_eq!(s.offered.values().sum::<usize>(), stream.len());
                    for (id, &offered) in &s.offered {
                        let mut planned: Vec<&ScheduledBatch> =
                            s.batches.iter().filter(|b| &b.model_id == id).collect();
                        let shed_count = s.rejections.iter().filter(|r| &r.model == id).count();
                        let planned_count: usize = planned.iter().map(|b| b.requests.len()).sum();
                        prop_assert_eq!(offered, planned_count + shed_count);
                        // One replay: a model's batches are exactly the plan
                        // of its admitted requests.
                        planned.sort_by_key(|b| b.seq);
                        let admitted: Vec<Request> = planned
                            .iter()
                            .flat_map(|b| b.requests.iter().cloned())
                            .collect();
                        let replanned = crate::serve::plan_batches(admitted, cfg.batching);
                        prop_assert_eq!(replanned.len(), planned.len());
                        for (seq, (p, b)) in replanned.iter().zip(&planned).enumerate() {
                            prop_assert_eq!(b.seq, seq);
                            prop_assert_eq!(p.close_tick, b.close_tick);
                            prop_assert_eq!(&p.requests, &b.requests);
                        }
                    }
                }
            }
        }
    }
}
