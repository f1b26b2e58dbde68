//! The three workloads: their models, snapshots, registry, per-call inputs
//! and the reference outputs served results are checked against.

use std::time::Instant;

use pd_tensor::init::seeded_rng;
use permdnn_core::snapshot::{block_stream_snapshot, read_block_index};
use permdnn_nn::layers::WeightFormat;
use permdnn_nn::snapshot::paged_config;
use permdnn_nn::MlpClassifier;
use permdnn_runtime::{
    AdmissionPolicy, BatchConfig, ModelLoader, ModelRegistry, Request, ServeConfig, ServiceModel,
    TaggedRequest, TrafficConfig, TrafficReport, UniformProcess, ZipfMix,
};

/// Worker threads of the executor: one per core of the 2-core machine the
/// benchmark was written for.
pub const WORKERS: usize = 2;
/// Registry builds timed per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 15;
/// Requests per `serve_traffic` call in the batched workloads.
const CALL_REQUESTS: usize = 32;
/// Fixed weight seed: the program under test is the same for every
/// `--seed`, only its inputs change.
const MODEL_SEED: u64 = 0x5eed_0011;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    BatchPd,
    InteractiveB1,
    PagedZipf,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::BatchPd,
        Workload::InteractiveB1,
        Workload::PagedZipf,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::BatchPd => "batch_pd",
            Workload::InteractiveB1 => "interactive_b1",
            Workload::PagedZipf => "paged_zipf",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One registered model. The benchmark keeps its snapshot bytes and no
/// decoded copy, so `peak_rss_mb` sees the registry's models alone: checks
/// run on the registry's own loaded models, or on a reference decoded for
/// the check and dropped after it.
pub struct Tenant {
    pub id: String,
    /// The whole-load MLP snapshot.
    pub snapshot: Vec<u8>,
    /// Paged tenants: `snapshot` block-streamed, as the registry is given it.
    pub blocked: Option<Vec<u8>>,
    /// One entry per `CompressedFc` layer, in forward order; `None` for a
    /// layer no kernel metric covers (the q16 tenant's head).
    pub labels: Vec<Option<&'static str>>,
    /// A fixed input, and the bits of the logits the model gave it before
    /// it was saved: proves a loaded model decodes to the model built.
    probe_input: Vec<f32>,
    probe_bits: Vec<u32>,
}

impl Tenant {
    fn new(
        id: &str,
        model: &MlpClassifier,
        paged: bool,
        labels: Vec<Option<&'static str>>,
    ) -> Self {
        let snapshot = model.save().expect("frozen models snapshot");
        let blocked =
            paged.then(|| block_stream_snapshot(&snapshot).expect("MLP snapshots block-stream"));
        let probe_input = UniformProcess::new(model.input_dim(), 0.0)
            .expect("valid process")
            .stream(MODEL_SEED, 1)
            .remove(0)
            .input;
        Tenant {
            id: id.to_string(),
            probe_bits: bits(&model.logits(&probe_input)),
            probe_input,
            snapshot,
            blocked,
            labels,
        }
    }

    /// The bytes the registry is given.
    pub fn served(&self) -> &[u8] {
        self.blocked.as_deref().unwrap_or(&self.snapshot)
    }

    /// The whole-load model, decoded from the snapshot.
    pub fn reference(&self) -> MlpClassifier {
        MlpClassifier::load(&self.snapshot).expect("benchmark snapshots are valid")
    }

    /// Whether `model` gives the probe input the logits of the model built.
    pub fn probe_ok(&self, model: &MlpClassifier) -> bool {
        bits(&model.logits(&self.probe_input)) == self.probe_bits
    }
}

/// Everything a workload serves, built once per run outside any timing.
pub struct Setup {
    pub workload: Workload,
    pub tenants: Vec<Tenant>,
    /// `Some(budget)` serves from a paged registry with that byte budget.
    pub paged_budget: Option<u64>,
    pub traffic: TrafficConfig,
    mix: Option<ZipfMix>,
}

fn hidden_labels(
    label: &'static str,
    hidden: usize,
    head: Option<&'static str>,
) -> Vec<Option<&'static str>> {
    let mut labels = vec![Some(label); hidden];
    labels.push(head);
    labels
}

fn traffic(batching: BatchConfig) -> TrafficConfig {
    TrafficConfig::new(
        ServeConfig {
            batching,
            service: ServiceModel::default(),
        },
        AdmissionPolicy::Fifo,
    )
}

impl Setup {
    pub fn build(workload: Workload) -> Self {
        let rng = &mut seeded_rng(MODEL_SEED);
        match workload {
            Workload::BatchPd => {
                let model = MlpClassifier::new_frozen(
                    1024,
                    &[1024; 3],
                    10,
                    WeightFormat::PermutedDiagonal { p: 8 },
                    rng,
                );
                let tenant = Tenant::new(
                    "batch_pd",
                    &model,
                    false,
                    hidden_labels("pd_p8", 3, Some("dense_head")),
                );
                Setup {
                    workload,
                    tenants: vec![tenant],
                    paged_budget: None,
                    traffic: traffic(BatchConfig::new(CALL_REQUESTS, 0)),
                    mix: None,
                }
            }
            Workload::InteractiveB1 => {
                let model = MlpClassifier::new_frozen_mixed(
                    512,
                    &[
                        (512, WeightFormat::PermutedDiagonal { p: 4 }),
                        (512, WeightFormat::UnstructuredSparse { p: 4 }),
                        (512, WeightFormat::Dense),
                    ],
                    10,
                    rng,
                );
                let tenant = Tenant::new(
                    "interactive_b1",
                    &model,
                    false,
                    vec![
                        Some("pd_p4"),
                        Some("csc_p4"),
                        Some("dense"),
                        Some("dense_head"),
                    ],
                );
                Setup {
                    workload,
                    tenants: vec![tenant],
                    paged_budget: None,
                    traffic: traffic(BatchConfig::new(1, 0)),
                    mix: None,
                }
            }
            Workload::PagedZipf => {
                let mlp = |format, rng: &mut _| {
                    MlpClassifier::new_frozen(512, &[512, 512], 10, format, rng)
                };
                let calibration: Vec<Vec<f32>> = UniformProcess::new(512, 0.0)
                    .expect("valid process")
                    .stream(MODEL_SEED, 64)
                    .into_iter()
                    .map(|r| r.input)
                    .collect();
                // Zipf rank order: the first tenant is the hottest.
                let models: Vec<(&str, MlpClassifier, Vec<Option<&'static str>>)> = vec![
                    (
                        "pd_p4",
                        mlp(WeightFormat::PermutedDiagonal { p: 4 }, rng),
                        hidden_labels("pd_p4", 2, Some("dense_head")),
                    ),
                    (
                        "q16_pd_p8",
                        mlp(WeightFormat::PermutedDiagonal { p: 8 }, rng)
                            .quantize(&calibration)
                            .0,
                        hidden_labels("q16_pd_p8", 2, None),
                    ),
                    (
                        "circulant_k8",
                        mlp(WeightFormat::Circulant { k: 8 }, rng),
                        hidden_labels("circulant_k8", 2, Some("dense_head")),
                    ),
                    (
                        "shared_pd_p4",
                        mlp(
                            WeightFormat::SharedPermutedDiagonal { p: 4, tag_bits: 4 },
                            rng,
                        ),
                        hidden_labels("shared_pd_p4", 2, Some("dense_head")),
                    ),
                ];
                let tenants: Vec<Tenant> = models
                    .into_iter()
                    .map(|(id, model, labels)| Tenant::new(id, &model, true, labels))
                    .collect();
                let total: u64 = tenants
                    .iter()
                    .map(|t| {
                        read_block_index(t.served())
                            .expect("valid block index")
                            .total_block_bytes()
                    })
                    .sum();
                let mix = ZipfMix::new(
                    tenants.iter().map(|t| (t.id.clone(), 512)).collect(),
                    1.2,
                    4.0,
                )
                .expect("valid mix");
                Setup {
                    workload,
                    tenants,
                    paged_budget: Some(total / 2),
                    traffic: traffic(BatchConfig::new(8, 16)),
                    mix: Some(mix),
                }
            }
        }
    }

    /// The index of tenant `id` in [`Setup::tenants`].
    pub fn tenant_index(&self, id: &str) -> usize {
        self.tenants
            .iter()
            .position(|t| t.id == id)
            .expect("requests route to registered tenants")
    }

    /// An empty registry with every snapshot inserted (and, in whole-load
    /// mode, resident), plus the seconds that took. The snapshot copies are
    /// made before the clock starts.
    pub fn registry(&self, loader: ModelLoader) -> (ModelRegistry, f64) {
        let snapshots: Vec<Vec<u8>> = self.tenants.iter().map(|t| t.served().to_vec()).collect();
        let start = Instant::now();
        let mut reg = match self.paged_budget {
            Some(budget) => ModelRegistry::new_paged(loader, paged_config(), budget),
            None => ModelRegistry::new(loader, u64::MAX),
        };
        for (t, snapshot) in self.tenants.iter().zip(snapshots) {
            reg.insert(&t.id, snapshot)
                .expect("benchmark snapshots are valid");
        }
        (reg, start.elapsed().as_secs_f64())
    }

    /// The requests of call number `call`: a pure function of
    /// `(seed, call)`.
    pub fn requests(&self, seed: u64, call: u64) -> Vec<TaggedRequest> {
        let call_seed = splitmix64(seed ^ splitmix64(call));
        let uniform = |in_dim: usize, n: usize| -> Vec<TaggedRequest> {
            let id = &self.tenants[0].id;
            UniformProcess::new(in_dim, 0.0)
                .expect("valid process")
                .stream(call_seed, n)
                .into_iter()
                .map(|request| TaggedRequest {
                    model_id: id.clone(),
                    request,
                })
                .collect()
        };
        match self.workload {
            Workload::BatchPd => uniform(1024, CALL_REQUESTS),
            Workload::InteractiveB1 => uniform(512, 1),
            Workload::PagedZipf => self
                .mix
                .as_ref()
                .expect("paged_zipf has a mix")
                .stream(call_seed, CALL_REQUESTS),
        }
    }

    /// Failures in one served call: shed requests, requests without a
    /// completion, and a sampled request whose served output differs in any
    /// bit from the sequential `MlpClassifier::logits` of `reference`, its
    /// tenant's whole-load model.
    pub fn failures(
        offered: usize,
        sample: Option<(&TaggedRequest, &MlpClassifier)>,
        report: &TrafficReport,
    ) -> usize {
        let served = report.serve.completed.len();
        let missing = offered.saturating_sub(served + report.rejections.len());
        let mismatch = sample.is_some_and(|(sample, reference)| {
            let expected = reference.logits(&sample.request.input);
            !report.serve.completed.iter().any(|tc| {
                tc.model_id == sample.model_id
                    && tc.completed.id == sample.request.id
                    && bits(&tc.completed.output) == bits(&expected)
            })
        });
        report.rejections.len() + missing + usize::from(mismatch)
    }

    /// The requests of `call` that went to `tenant`, in arrival order.
    pub fn stream_of(requests: &[TaggedRequest], tenant: &str) -> Vec<Request> {
        requests
            .iter()
            .filter(|r| r.model_id == tenant)
            .map(|r| r.request.clone())
            .collect()
    }
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// SplitMix64: spreads `(seed, call)` into independent stream seeds.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}
