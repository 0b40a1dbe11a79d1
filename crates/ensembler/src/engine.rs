//! A concurrent inference engine over any [`Defense`]: request coalescing,
//! mini-batching and parallel server fan-out from a shared pipeline.
//!
//! This module is the end-to-end demonstration of the paper's deployment
//! argument (Sec. III-D): the `O(N)` server cost of Ensembler "parallelises
//! away" because the `N` bodies are independent. The redesigned [`Defense`]
//! trait makes that concrete — inference takes `&self`, so one pipeline
//! behind an `Arc` can serve many clients at once:
//!
//! * callers submit single `[C, H, W]` images from any thread via
//!   [`InferenceEngine::predict_one`], or single transmitted feature maps via
//!   [`InferenceEngine::server_outputs_one`] (the unit the networked
//!   `DefenseServer` in `crates/serve` forwards for remote clients);
//! * worker threads coalesce queued requests into mini-batches of up to
//!   `max_batch` items (waiting at most `batch_window` for stragglers),
//!   partitioned by kind;
//! * each batch runs one [`Defense::predict`] (or one
//!   [`Defense::server_outputs`]), inside which the `N` server bodies fan out
//!   over the machine's cores ([`ensembler_tensor::par_map`], one persistent
//!   pool shared by every engine worker). The GEMMs and `im2col` lowerings
//!   inside a body run inline on that body's thread, so concurrent batches
//!   share the cores without spawning threads.
//!
//! # Examples
//!
//! ```
//! use ensembler::{DefenseKind, EngineConfig, InferenceEngine, SinglePipeline};
//! use ensembler_nn::models::ResNetConfig;
//! use ensembler_tensor::Tensor;
//! use std::sync::Arc;
//!
//! let pipeline = Arc::new(SinglePipeline::new(
//!     ResNetConfig::tiny_for_tests(),
//!     DefenseKind::NoDefense,
//!     1,
//! )?);
//! let engine = InferenceEngine::new(pipeline, EngineConfig::default())?;
//! let logits = engine.predict_one(Tensor::ones(&[3, 8, 8]))?;
//! assert_eq!(logits.shape(), &[3]); // tiny_for_tests has 3 classes
//! # Ok::<(), ensembler::EnsemblerError>(())
//! ```

use crate::defense::Defense;
use crate::EnsemblerError;
use ensembler_tensor::{QTensorBatch, Tensor};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Tuning knobs of an [`InferenceEngine`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineConfig {
    /// Maximum number of single-image requests coalesced into one batch.
    pub max_batch: usize,
    /// How long a worker waits for additional requests before running a
    /// partially filled batch.
    pub batch_window: Duration,
    /// Number of worker threads executing batches concurrently.
    pub workers: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            max_batch: 8,
            batch_window: Duration::from_millis(2),
            workers: 1,
        }
    }
}

/// Counters describing what an engine has done so far.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EngineStats {
    /// Single-image requests answered.
    pub requests_served: u64,
    /// Mini-batches executed.
    pub batches_executed: u64,
    /// Largest batch that was coalesced.
    pub max_batch_observed: u64,
    /// Requests submitted but not yet drained into a worker's mini-batch at
    /// snapshot time. A persistently non-zero depth means the workers cannot
    /// keep up with the arrival rate — the signal the serving layer's
    /// admission control watches for (see `docs/SERVING.md`).
    pub queue_depth: u64,
}

impl EngineStats {
    /// Mean number of requests per executed batch.
    pub fn mean_batch_occupancy(&self) -> f64 {
        if self.batches_executed == 0 {
            0.0
        } else {
            self.requests_served as f64 / self.batches_executed as f64
        }
    }
}

/// A submitted-but-not-yet-answered engine request: the completion half of
/// the split submit/wait API ([`InferenceEngine::server_outputs_begin`] and
/// siblings).
///
/// The blocking `*_one` methods are `*_begin(…)?.wait()`. Splitting the two
/// halves is what lets a multiplexed server thread enqueue many pipelined
/// requests in arrival order — so they coalesce into shared mini-batches —
/// and then let each response complete out of order on its own thread.
/// Dropping a `Pending` abandons the request: the worker's answer simply
/// finds no receiver.
#[derive(Debug)]
pub struct Pending<T> {
    receive: Receiver<Result<T, EnsemblerError>>,
}

impl<T> Pending<T> {
    /// Blocks until the worker pool answers this request.
    ///
    /// # Errors
    ///
    /// Returns the evaluation's own error, or [`EnsemblerError::Engine`] if
    /// the engine shut down before answering.
    pub fn wait(self) -> Result<T, EnsemblerError> {
        self.receive
            .recv()
            .map_err(|_| EnsemblerError::Engine("worker dropped the request".to_string()))?
    }
}

#[derive(Debug, Default)]
struct StatsCells {
    requests: AtomicU64,
    batches: AtomicU64,
    max_batch: AtomicU64,
    queued: AtomicU64,
}

/// One queued unit of work. The engine coalesces both kinds through the same
/// queue; a worker partitions each drained batch by kind before executing it.
enum Work {
    /// A single image awaiting class logits ([`InferenceEngine::predict_one`]).
    Predict {
        image: Tensor,
        respond: Sender<Result<Tensor, EnsemblerError>>,
    },
    /// A single transmitted feature map awaiting the `N` per-network maps
    /// ([`InferenceEngine::server_outputs_one`]) — the unit the networked
    /// `DefenseServer` submits on behalf of remote clients.
    ServerOutputs {
        features: Tensor,
        respond: Sender<Result<Vec<Tensor>, EnsemblerError>>,
    },
    /// A single **quantized** feature map awaiting the `N` quantized
    /// per-network maps ([`InferenceEngine::server_outputs_quantized_one`])
    /// — the unit the networked server submits for protocol-v2 clients.
    /// Scales are per sample, so stacking and splitting quantized batches is
    /// exact and coalescing stays invisible in int8 mode too.
    ServerOutputsQ {
        features: QTensorBatch,
        respond: Sender<Result<Vec<QTensorBatch>, EnsemblerError>>,
    },
    /// A single feature map awaiting the maps of bodies `lo..hi` only
    /// ([`InferenceEngine::server_outputs_range_one`]) — the unit a sharded
    /// worker serves. Requests coalesce only with requests for the *same*
    /// range, so a batch never mixes slices.
    ServerOutputsRange {
        features: Tensor,
        lo: usize,
        hi: usize,
        respond: Sender<Result<Vec<Tensor>, EnsemblerError>>,
    },
    /// The quantized twin of [`Work::ServerOutputsRange`]
    /// ([`InferenceEngine::server_outputs_quantized_range_one`]).
    ServerOutputsRangeQ {
        features: QTensorBatch,
        lo: usize,
        hi: usize,
        respond: Sender<Result<Vec<QTensorBatch>, EnsemblerError>>,
    },
}

/// A thread-safe serving frontend over a shared [`Defense`].
///
/// Dropping the engine shuts it down: the queue is closed and every worker
/// is joined.
///
/// # Examples
///
/// ```
/// use ensembler::{Defense, DefenseKind, EngineConfig, InferenceEngine, SinglePipeline};
/// use ensembler_nn::models::ResNetConfig;
/// use ensembler_tensor::Tensor;
/// use std::sync::Arc;
///
/// let pipeline = Arc::new(SinglePipeline::new(
///     ResNetConfig::tiny_for_tests(),
///     DefenseKind::NoDefense,
///     7,
/// )?);
/// let engine = InferenceEngine::new(pipeline, EngineConfig::default())?;
///
/// // Full predictions coalesce through the queue ...
/// let logits = engine.predict_one(Tensor::ones(&[3, 8, 8]))?;
/// assert_eq!(logits.shape(), &[3]);
///
/// // ... and so do bare server_outputs requests (the networked path): one
/// // transmitted feature map in, N per-network feature maps out.
/// let features = engine.defense().client_features(&Tensor::ones(&[1, 3, 8, 8]))?;
/// let maps = engine.server_outputs_one(features)?;
/// assert_eq!(maps.len(), engine.defense().ensemble_size());
/// # Ok::<(), ensembler::EnsemblerError>(())
/// ```
#[derive(Debug)]
pub struct InferenceEngine<D: Defense + ?Sized + 'static> {
    defense: Arc<D>,
    sender: Option<Sender<Work>>,
    workers: Vec<JoinHandle<()>>,
    stats: Arc<StatsCells>,
}

impl<D: Defense + ?Sized + 'static> InferenceEngine<D> {
    /// Starts an engine serving `defense` with the given configuration.
    ///
    /// # Errors
    ///
    /// Returns [`EnsemblerError::InvalidConfig`] if `max_batch` or `workers`
    /// is zero.
    pub fn new(defense: Arc<D>, config: EngineConfig) -> Result<Self, EnsemblerError> {
        if config.max_batch == 0 || config.workers == 0 {
            return Err(EnsemblerError::InvalidConfig(
                "engine max_batch and workers must be positive".to_string(),
            ));
        }
        let (sender, receiver) = channel::<Work>();
        let receiver = Arc::new(Mutex::new(receiver));
        let stats = Arc::new(StatsCells::default());
        let workers = (0..config.workers)
            .map(|_| {
                let defense = Arc::clone(&defense);
                let receiver = Arc::clone(&receiver);
                let stats = Arc::clone(&stats);
                std::thread::spawn(move || worker_loop(&*defense, &receiver, &stats, config))
            })
            .collect();
        Ok(Self {
            defense,
            sender: Some(sender),
            workers,
            stats,
        })
    }

    /// Starts an engine behind an `Arc` — the shape a serving registry that
    /// maps model names to shared engines stores (one engine per model, each
    /// handed to many connection threads).
    ///
    /// # Errors
    ///
    /// As for [`InferenceEngine::new`].
    ///
    /// # Examples
    ///
    /// ```
    /// use ensembler::{Defense, DefenseKind, EngineConfig, InferenceEngine, SinglePipeline};
    /// use ensembler_nn::models::ResNetConfig;
    /// use std::sync::Arc;
    ///
    /// let pipeline: Arc<dyn Defense> = Arc::new(SinglePipeline::new(
    ///     ResNetConfig::tiny_for_tests(),
    ///     DefenseKind::NoDefense,
    ///     1,
    /// )?);
    /// let engine = InferenceEngine::shared(pipeline, EngineConfig::default())?;
    /// let for_a_connection = Arc::clone(&engine); // cheap per-connection handle
    /// assert_eq!(for_a_connection.stats().requests_served, 0);
    /// # Ok::<(), ensembler::EnsemblerError>(())
    /// ```
    pub fn shared(defense: Arc<D>, config: EngineConfig) -> Result<Arc<Self>, EnsemblerError> {
        Ok(Arc::new(Self::new(defense, config)?))
    }

    /// The defence this engine serves.
    pub fn defense(&self) -> &D {
        &self.defense
    }

    /// Classifies one image (`[C, H, W]`, or `[1, C, H, W]` as produced by
    /// [`Tensor::batch_item`]), blocking until a worker has served it as
    /// part of a coalesced mini-batch. Returns the `[num_classes]` logit
    /// vector.
    ///
    /// Safe to call from many threads at once; that is the intended use.
    ///
    /// # Errors
    ///
    /// Returns an error if the image shape is wrong, prediction fails, or
    /// the engine is shutting down.
    pub fn predict_one(&self, image: Tensor) -> Result<Tensor, EnsemblerError> {
        self.predict_begin(image)?.wait()
    }

    /// Enqueues one image for classification without waiting for the answer
    /// — the non-blocking half of [`InferenceEngine::predict_one`].
    ///
    /// # Errors
    ///
    /// Returns an error if the image shape is wrong or the engine is
    /// shutting down; evaluation errors surface from [`Pending::wait`].
    pub fn predict_begin(&self, image: Tensor) -> Result<Pending<Tensor>, EnsemblerError> {
        let image = ensure_single_item("predict_one", "image", image)?;
        let (respond, receive) = channel();
        self.submit(Work::Predict { image, respond })?;
        Ok(Pending { receive })
    }

    /// Evaluates all `N` server bodies on one transmitted feature map
    /// (`[C, H, W]` or `[1, C, H, W]`), blocking until a worker has served it
    /// as part of a coalesced mini-batch. Returns the `N` per-network feature
    /// maps in index order, each with a leading batch axis of 1.
    ///
    /// This is the unit of work the networked `DefenseServer` submits for
    /// remote single-image requests, so feature maps arriving on different
    /// TCP connections coalesce into shared mini-batches exactly like local
    /// [`InferenceEngine::predict_one`] calls do. The result is bit-identical
    /// to an isolated [`Defense::server_outputs`] call on the same map: the
    /// tensor kernels guarantee batch-size-independent results (see
    /// `docs/PERFORMANCE.md`), which is what makes coalescing transparent.
    ///
    /// # Errors
    ///
    /// Returns an error if the feature shape is wrong, the evaluation fails,
    /// or the engine is shutting down.
    pub fn server_outputs_one(&self, features: Tensor) -> Result<Vec<Tensor>, EnsemblerError> {
        self.server_outputs_begin(features)?.wait()
    }

    /// Enqueues one transmitted feature map without waiting for the answer —
    /// the non-blocking half of [`InferenceEngine::server_outputs_one`].
    ///
    /// A multiplexed server thread submits every pipelined request through
    /// this in arrival order (so concurrent requests coalesce into shared
    /// mini-batches) and parks each [`Pending`] on its own completion thread,
    /// letting responses finish out of order.
    ///
    /// # Errors
    ///
    /// Returns an error if the feature shape is wrong or the engine is
    /// shutting down; evaluation errors surface from [`Pending::wait`].
    pub fn server_outputs_begin(
        &self,
        features: Tensor,
    ) -> Result<Pending<Vec<Tensor>>, EnsemblerError> {
        let features = ensure_single_item("server_outputs_one", "feature map", features)?;
        let (respond, receive) = channel();
        self.submit(Work::ServerOutputs { features, respond })?;
        Ok(Pending { receive })
    }

    /// Evaluates all `N` server bodies on one quantized transmitted feature
    /// map (`[1, C, H, W]` with its per-sample scale), blocking until a
    /// worker has served it as part of a coalesced mini-batch. Returns the
    /// `N` quantized per-network maps in index order.
    ///
    /// This is the int8 sibling of [`InferenceEngine::server_outputs_one`]
    /// and the unit the networked `DefenseServer` submits for protocol-v2
    /// clients. Because quantization scales are per sample, stacking
    /// requests into a batch and slicing the results back apart moves bytes
    /// verbatim — the answer is bit-identical to an isolated
    /// [`Defense::server_outputs_quantized`] call on the same map.
    ///
    /// # Errors
    ///
    /// Returns an error if the feature batch is not a single rank-4 sample,
    /// the evaluation fails, or the engine is shutting down.
    pub fn server_outputs_quantized_one(
        &self,
        features: QTensorBatch,
    ) -> Result<Vec<QTensorBatch>, EnsemblerError> {
        self.server_outputs_quantized_begin(features)?.wait()
    }

    /// Enqueues one quantized feature map without waiting for the answer —
    /// the non-blocking half of
    /// [`InferenceEngine::server_outputs_quantized_one`].
    ///
    /// # Errors
    ///
    /// Returns an error if the feature batch is not a single rank-4 sample
    /// or the engine is shutting down; evaluation errors surface from
    /// [`Pending::wait`].
    pub fn server_outputs_quantized_begin(
        &self,
        features: QTensorBatch,
    ) -> Result<Pending<Vec<QTensorBatch>>, EnsemblerError> {
        if features.shape().len() != 4 || features.batch() != 1 {
            return Err(EnsemblerError::ShapeMismatch(format!(
                "server_outputs_quantized_one expects one [1, C, H, W] feature map, got {:?}",
                features.shape()
            )));
        }
        let (respond, receive) = channel();
        self.submit(Work::ServerOutputsQ { features, respond })?;
        Ok(Pending { receive })
    }

    /// Evaluates only the server bodies `lo..hi` on one transmitted feature
    /// map — the sharded-worker sibling of
    /// [`InferenceEngine::server_outputs_one`]. Returns the `hi - lo` maps in
    /// index order, each with a leading batch axis of 1.
    ///
    /// Requests coalesce only with other requests for the same `lo..hi`
    /// range, never across ranges, so a mini-batch is always answered by one
    /// [`Defense::server_outputs_range`] call and stays bit-identical to an
    /// isolated evaluation.
    ///
    /// # Errors
    ///
    /// Returns an error if the feature shape or the range is wrong, the
    /// evaluation fails, or the engine is shutting down.
    pub fn server_outputs_range_one(
        &self,
        features: Tensor,
        lo: usize,
        hi: usize,
    ) -> Result<Vec<Tensor>, EnsemblerError> {
        self.server_outputs_range_begin(features, lo, hi)?.wait()
    }

    /// Enqueues one sub-range request without waiting for the answer — the
    /// non-blocking half of [`InferenceEngine::server_outputs_range_one`].
    ///
    /// # Errors
    ///
    /// Returns an error if the feature shape or the range is wrong, or the
    /// engine is shutting down; evaluation errors surface from
    /// [`Pending::wait`].
    pub fn server_outputs_range_begin(
        &self,
        features: Tensor,
        lo: usize,
        hi: usize,
    ) -> Result<Pending<Vec<Tensor>>, EnsemblerError> {
        crate::check_body_range(lo, hi, self.defense.ensemble_size())?;
        let features = ensure_single_item("server_outputs_range_one", "feature map", features)?;
        let (respond, receive) = channel();
        self.submit(Work::ServerOutputsRange {
            features,
            lo,
            hi,
            respond,
        })?;
        Ok(Pending { receive })
    }

    /// Evaluates only the server bodies `lo..hi` on one quantized feature map
    /// — the quantized twin of [`InferenceEngine::server_outputs_range_one`].
    ///
    /// # Errors
    ///
    /// Returns an error if the feature batch is not a single rank-4 sample,
    /// the range is wrong, the evaluation fails, or the engine is shutting
    /// down.
    pub fn server_outputs_quantized_range_one(
        &self,
        features: QTensorBatch,
        lo: usize,
        hi: usize,
    ) -> Result<Vec<QTensorBatch>, EnsemblerError> {
        self.server_outputs_quantized_range_begin(features, lo, hi)?
            .wait()
    }

    /// Enqueues one quantized sub-range request without waiting for the
    /// answer — the non-blocking half of
    /// [`InferenceEngine::server_outputs_quantized_range_one`].
    ///
    /// # Errors
    ///
    /// Returns an error if the feature batch is not a single rank-4 sample,
    /// the range is wrong, or the engine is shutting down; evaluation errors
    /// surface from [`Pending::wait`].
    pub fn server_outputs_quantized_range_begin(
        &self,
        features: QTensorBatch,
        lo: usize,
        hi: usize,
    ) -> Result<Pending<Vec<QTensorBatch>>, EnsemblerError> {
        crate::check_body_range(lo, hi, self.defense.ensemble_size())?;
        if features.shape().len() != 4 || features.batch() != 1 {
            return Err(EnsemblerError::ShapeMismatch(format!(
                "server_outputs_quantized_range_one expects one [1, C, H, W] feature map, got {:?}",
                features.shape()
            )));
        }
        let (respond, receive) = channel();
        self.submit(Work::ServerOutputsRangeQ {
            features,
            lo,
            hi,
            respond,
        })?;
        Ok(Pending { receive })
    }

    /// Enqueues one unit of work for the worker pool.
    fn submit(&self, work: Work) -> Result<(), EnsemblerError> {
        self.stats.queued.fetch_add(1, Ordering::Relaxed);
        self.sender
            .as_ref()
            .expect("sender lives until the engine is dropped")
            .send(work)
            .map_err(|_| {
                self.stats.queued.fetch_sub(1, Ordering::Relaxed);
                EnsemblerError::Engine("request queue is closed".to_string())
            })
    }

    /// Requests currently submitted but not yet drained into a mini-batch.
    ///
    /// This is the live value behind [`EngineStats::queue_depth`], exposed
    /// separately so serving layers can poll it without snapshotting every
    /// counter.
    pub fn queue_depth(&self) -> u64 {
        self.stats.queued.load(Ordering::Relaxed)
    }

    /// Classifies a pre-assembled `[B, C, H, W]` batch directly on the
    /// calling thread, bypassing the queue.
    ///
    /// # Errors
    ///
    /// Propagates prediction errors.
    pub fn predict_batch(&self, images: &Tensor) -> Result<Tensor, EnsemblerError> {
        self.defense.predict(images)
    }

    /// A snapshot of the engine's serving counters.
    pub fn stats(&self) -> EngineStats {
        EngineStats {
            requests_served: self.stats.requests.load(Ordering::Relaxed),
            batches_executed: self.stats.batches.load(Ordering::Relaxed),
            max_batch_observed: self.stats.max_batch.load(Ordering::Relaxed),
            queue_depth: self.stats.queued.load(Ordering::Relaxed),
        }
    }
}

impl<D: Defense + ?Sized + 'static> Drop for InferenceEngine<D> {
    fn drop(&mut self) {
        // Closing the channel makes every worker's recv fail, ending its loop.
        drop(self.sender.take());
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

/// Adds a leading batch axis of 1 to a rank-3 tensor, accepts an explicit
/// `[1, ...]` rank-4 tensor, and rejects anything else.
fn ensure_single_item(method: &str, what: &str, item: Tensor) -> Result<Tensor, EnsemblerError> {
    match item.rank() {
        3 => {
            let mut unsqueezed = vec![1];
            unsqueezed.extend_from_slice(item.shape());
            Ok(item
                .reshape(&unsqueezed)
                .expect("adding a batch axis preserves the element count"))
        }
        4 if item.shape()[0] == 1 => Ok(item),
        _ => Err(EnsemblerError::ShapeMismatch(format!(
            "{method} expects one [C, H, W] or [1, C, H, W] {what}, got {:?}",
            item.shape()
        ))),
    }
}

fn worker_loop<D: Defense + ?Sized>(
    defense: &D,
    receiver: &Mutex<Receiver<Work>>,
    stats: &StatsCells,
    config: EngineConfig,
) {
    loop {
        // Collect a batch while holding the queue lock: block for the first
        // request, then drain stragglers until `batch_window` has elapsed
        // since that first arrival (a fixed deadline, so slow trickles cannot
        // keep extending the wait — and the lock — indefinitely).
        let batch = {
            let queue = receiver.lock().expect("queue mutex is never poisoned");
            let first = match queue.recv() {
                Ok(request) => request,
                Err(_) => return, // engine dropped
            };
            let deadline = std::time::Instant::now() + config.batch_window;
            let mut batch = vec![first];
            while batch.len() < config.max_batch {
                let remaining = deadline.saturating_duration_since(std::time::Instant::now());
                if remaining.is_zero() {
                    break;
                }
                match queue.recv_timeout(remaining) {
                    Ok(request) => batch.push(request),
                    Err(RecvTimeoutError::Timeout) => break,
                    Err(RecvTimeoutError::Disconnected) => break,
                }
            }
            batch
        };
        stats
            .queued
            .fetch_sub(batch.len() as u64, Ordering::Relaxed);

        // The queue mixes all work kinds; each kind batches among itself.
        // Range requests additionally batch per `(lo, hi)` — two different
        // slices must never coalesce into one stacked evaluation.
        let mut predicts = Vec::new();
        let mut outputs = Vec::new();
        let mut outputs_q = Vec::new();
        let mut ranges: std::collections::BTreeMap<(usize, usize), Vec<_>> =
            std::collections::BTreeMap::new();
        let mut ranges_q: std::collections::BTreeMap<(usize, usize), Vec<_>> =
            std::collections::BTreeMap::new();
        for work in batch {
            match work {
                Work::Predict { image, respond } => predicts.push((image, respond)),
                Work::ServerOutputs { features, respond } => outputs.push((features, respond)),
                Work::ServerOutputsQ { features, respond } => outputs_q.push((features, respond)),
                Work::ServerOutputsRange {
                    features,
                    lo,
                    hi,
                    respond,
                } => ranges
                    .entry((lo, hi))
                    .or_default()
                    .push((features, respond)),
                Work::ServerOutputsRangeQ {
                    features,
                    lo,
                    hi,
                    respond,
                } => ranges_q
                    .entry((lo, hi))
                    .or_default()
                    .push((features, respond)),
            }
        }
        if !predicts.is_empty() {
            execute_group(defense, stats, predicts, run_predict_batch);
        }
        if !outputs.is_empty() {
            execute_group(defense, stats, outputs, run_server_outputs_batch);
        }
        if !outputs_q.is_empty() {
            execute_group(defense, stats, outputs_q, run_server_outputs_q_batch);
        }
        for ((lo, hi), group) in ranges {
            execute_group(defense, stats, group, |defense, features| {
                run_server_outputs_range_batch(defense, features, lo, hi)
            });
        }
        for ((lo, hi), group) in ranges_q {
            execute_group(defense, stats, group, |defense, features| {
                run_server_outputs_range_q_batch(defense, features, lo, hi)
            });
        }
    }
}

/// Runs one same-kind group as a single coalesced batch and answers every
/// requester.
///
/// A panicking pipeline (e.g. a shape assert deep in a layer) must not kill
/// the worker: callers would hang forever on an undrained queue. The panic is
/// caught and every request in the group is answered with an error.
fn execute_group<D: Defense + ?Sized, I: Clone, R: Clone>(
    defense: &D,
    stats: &StatsCells,
    group: Vec<(I, Sender<Result<R, EnsemblerError>>)>,
    run: impl Fn(&D, &[I]) -> Result<Vec<R>, EnsemblerError>,
) {
    let inputs: Vec<I> = group.iter().map(|(input, _)| input.clone()).collect();
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run(defense, &inputs)))
        .unwrap_or_else(|payload| {
            Err(EnsemblerError::Engine(format!(
                "prediction panicked: {}",
                panic_message(payload.as_ref())
            )))
        });
    stats.batches.fetch_add(1, Ordering::Relaxed);
    stats
        .requests
        .fetch_add(group.len() as u64, Ordering::Relaxed);
    stats
        .max_batch
        .fetch_max(group.len() as u64, Ordering::Relaxed);

    match result {
        Ok(rows) => {
            for ((_, respond), row) in group.into_iter().zip(rows) {
                let _ = respond.send(Ok(row));
            }
        }
        Err(error) => {
            for (_, respond) in group {
                let _ = respond.send(Err(error.clone()));
            }
        }
    }
}

/// Best-effort human-readable message from a caught panic payload, for
/// converting `std::panic::catch_unwind` results into error values.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    payload
        .downcast_ref::<String>()
        .map(String::as_str)
        .or_else(|| payload.downcast_ref::<&str>().copied())
        .unwrap_or("panic payload was not a string")
}

/// Checks that every queued item has the same shape before stacking.
fn ensure_uniform_shapes(inputs: &[Tensor]) -> Result<(), EnsemblerError> {
    let first_shape = inputs[0].shape();
    for input in &inputs[1..] {
        if input.shape() != first_shape {
            return Err(EnsemblerError::ShapeMismatch(format!(
                "cannot batch items of shapes {:?} and {:?}",
                first_shape,
                input.shape()
            )));
        }
    }
    Ok(())
}

/// Stacks the queued images, runs one shared prediction and splits the
/// logits back into per-request rows.
fn run_predict_batch<D: Defense + ?Sized>(
    defense: &D,
    images: &[Tensor],
) -> Result<Vec<Tensor>, EnsemblerError> {
    ensure_uniform_shapes(images)?;
    let stacked = Tensor::stack_batch(images);
    let logits = defense.predict(&stacked)?;
    let classes = logits.shape()[1];
    Ok((0..images.len())
        .map(|row| {
            let data = logits.data()[row * classes..(row + 1) * classes].to_vec();
            Tensor::from_vec(data, &[classes]).expect("row length matches")
        })
        .collect())
}

/// Stacks the queued feature maps, runs one shared [`Defense::server_outputs`]
/// and splits each of the `N` returned maps back into per-request rows (each
/// keeping a leading batch axis of 1).
fn run_server_outputs_batch<D: Defense + ?Sized>(
    defense: &D,
    features: &[Tensor],
) -> Result<Vec<Vec<Tensor>>, EnsemblerError> {
    ensure_uniform_shapes(features)?;
    let stacked = Tensor::stack_batch(features);
    let maps = defense.server_outputs(&stacked)?;
    let rows = features.len();
    for map in &maps {
        if map.shape().first() != Some(&rows) {
            return Err(EnsemblerError::ShapeMismatch(format!(
                "server body returned shape {:?} for a batch of {rows} feature maps",
                map.shape()
            )));
        }
    }
    Ok((0..rows)
        .map(|row| {
            maps.iter()
                .map(|map| {
                    let row_len = map.len() / rows;
                    let mut shape = map.shape().to_vec();
                    shape[0] = 1;
                    let data = map.data()[row * row_len..(row + 1) * row_len].to_vec();
                    Tensor::from_vec(data, &shape).expect("row slice matches shape")
                })
                .collect()
        })
        .collect())
}

/// Stacks the queued quantized feature maps (bytes and scales verbatim),
/// runs one shared [`Defense::server_outputs_quantized`] and slices each of
/// the `N` returned quantized maps back into per-request single-sample
/// batches. Every step is exact, so coalescing cannot change an answer.
fn run_server_outputs_q_batch<D: Defense + ?Sized>(
    defense: &D,
    features: &[QTensorBatch],
) -> Result<Vec<Vec<QTensorBatch>>, EnsemblerError> {
    let first_shape = features[0].shape();
    for item in &features[1..] {
        if item.shape() != first_shape {
            return Err(EnsemblerError::ShapeMismatch(format!(
                "cannot batch quantized items of shapes {:?} and {:?}",
                first_shape,
                item.shape()
            )));
        }
    }
    let stacked = QTensorBatch::stack(features);
    let maps = defense.server_outputs_quantized(&stacked)?;
    let rows = features.len();
    for map in &maps {
        if map.batch() != rows {
            return Err(EnsemblerError::ShapeMismatch(format!(
                "server body returned shape {:?} for a batch of {rows} quantized feature maps",
                map.shape()
            )));
        }
    }
    Ok((0..rows)
        .map(|row| maps.iter().map(|map| map.sample(row)).collect())
        .collect())
}

/// The `lo..hi` variant of [`run_server_outputs_batch`]: one shared
/// [`Defense::server_outputs_range`] over the stacked maps, split back into
/// per-request rows. Every request in the group asks for the same range.
fn run_server_outputs_range_batch<D: Defense + ?Sized>(
    defense: &D,
    features: &[Tensor],
    lo: usize,
    hi: usize,
) -> Result<Vec<Vec<Tensor>>, EnsemblerError> {
    ensure_uniform_shapes(features)?;
    let stacked = Tensor::stack_batch(features);
    let maps = defense.server_outputs_range(&stacked, lo, hi)?;
    let rows = features.len();
    for map in &maps {
        if map.shape().first() != Some(&rows) {
            return Err(EnsemblerError::ShapeMismatch(format!(
                "server body returned shape {:?} for a batch of {rows} feature maps",
                map.shape()
            )));
        }
    }
    Ok((0..rows)
        .map(|row| {
            maps.iter()
                .map(|map| {
                    let row_len = map.len() / rows;
                    let mut shape = map.shape().to_vec();
                    shape[0] = 1;
                    let data = map.data()[row * row_len..(row + 1) * row_len].to_vec();
                    Tensor::from_vec(data, &shape).expect("row slice matches shape")
                })
                .collect()
        })
        .collect())
}

/// The `lo..hi` variant of [`run_server_outputs_q_batch`].
fn run_server_outputs_range_q_batch<D: Defense + ?Sized>(
    defense: &D,
    features: &[QTensorBatch],
    lo: usize,
    hi: usize,
) -> Result<Vec<Vec<QTensorBatch>>, EnsemblerError> {
    let first_shape = features[0].shape();
    for item in &features[1..] {
        if item.shape() != first_shape {
            return Err(EnsemblerError::ShapeMismatch(format!(
                "cannot batch quantized items of shapes {:?} and {:?}",
                first_shape,
                item.shape()
            )));
        }
    }
    let stacked = QTensorBatch::stack(features);
    let maps = defense.server_outputs_quantized_range(&stacked, lo, hi)?;
    let rows = features.len();
    for map in &maps {
        if map.batch() != rows {
            return Err(EnsemblerError::ShapeMismatch(format!(
                "server body returned shape {:?} for a batch of {rows} quantized feature maps",
                map.shape()
            )));
        }
    }
    Ok((0..rows)
        .map(|row| maps.iter().map(|map| map.sample(row)).collect())
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::defenses::{DefenseKind, SinglePipeline};
    use ensembler_nn::models::ResNetConfig;

    fn tiny_engine(workers: usize, max_batch: usize) -> InferenceEngine<SinglePipeline> {
        let pipeline = Arc::new(
            SinglePipeline::new(ResNetConfig::tiny_for_tests(), DefenseKind::NoDefense, 3).unwrap(),
        );
        InferenceEngine::new(
            pipeline,
            EngineConfig {
                max_batch,
                batch_window: Duration::from_millis(10),
                workers,
            },
        )
        .unwrap()
    }

    #[test]
    fn configuration_is_validated() {
        let pipeline = Arc::new(
            SinglePipeline::new(ResNetConfig::tiny_for_tests(), DefenseKind::NoDefense, 3).unwrap(),
        );
        assert!(InferenceEngine::new(
            Arc::clone(&pipeline),
            EngineConfig {
                max_batch: 0,
                ..EngineConfig::default()
            }
        )
        .is_err());
        assert!(InferenceEngine::new(
            pipeline,
            EngineConfig {
                workers: 0,
                ..EngineConfig::default()
            }
        )
        .is_err());
    }

    #[test]
    fn single_requests_match_direct_batched_prediction() {
        let engine = tiny_engine(1, 4);
        let image_a = Tensor::from_fn(&[3, 8, 8], |i| (i as f32 * 0.01).sin());
        let image_b = Tensor::from_fn(&[3, 8, 8], |i| (i as f32 * 0.02).cos());

        let row_a = engine.predict_one(image_a.clone()).unwrap();
        let row_b = engine.predict_one(image_b.clone()).unwrap();

        let stacked = Tensor::stack_batch(&[
            image_a.reshape(&[1, 3, 8, 8]).unwrap(),
            image_b.reshape(&[1, 3, 8, 8]).unwrap(),
        ]);
        let direct = engine.predict_batch(&stacked).unwrap();
        let classes = direct.shape()[1];
        assert_eq!(row_a.data(), &direct.data()[..classes]);
        assert_eq!(row_b.data(), &direct.data()[classes..]);
    }

    #[test]
    fn rejects_non_image_requests() {
        let engine = tiny_engine(1, 2);
        let err = engine.predict_one(Tensor::ones(&[2, 3, 8, 8])).unwrap_err();
        assert!(matches!(err, EnsemblerError::ShapeMismatch(_)));
    }

    #[test]
    fn concurrent_clients_get_the_same_answers_as_sequential_ones() {
        let engine = Arc::new(tiny_engine(2, 4));
        let images: Vec<Tensor> = (0..12)
            .map(|k| Tensor::from_fn(&[3, 8, 8], |i| ((i + 31 * k) as f32 * 0.013).sin()))
            .collect();
        let sequential: Vec<Tensor> = images
            .iter()
            .map(|img| engine.predict_one(img.clone()).unwrap())
            .collect();

        let concurrent: Vec<Tensor> = std::thread::scope(|scope| {
            let handles: Vec<_> = images
                .iter()
                .map(|img| {
                    let engine = Arc::clone(&engine);
                    scope.spawn(move || engine.predict_one(img.clone()).unwrap())
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });

        assert_eq!(concurrent, sequential);
        let stats = engine.stats();
        assert_eq!(stats.requests_served, 24);
        assert!(stats.batches_executed >= 1);
        assert!(stats.batches_executed <= stats.requests_served);
        assert!(stats.mean_batch_occupancy() >= 1.0);
        assert!(stats.max_batch_observed >= 1);
        // Every submitted request has been drained and answered.
        assert_eq!(stats.queue_depth, 0);
        assert_eq!(engine.queue_depth(), 0);
    }

    #[test]
    fn server_outputs_one_matches_direct_evaluation() {
        let engine = tiny_engine(1, 4);
        let image = Tensor::from_fn(&[1, 3, 8, 8], |i| (i as f32 * 0.017).sin());
        let features = engine.defense().client_features(&image).unwrap();
        let coalesced = engine.server_outputs_one(features.clone()).unwrap();
        let direct = engine.defense().server_outputs(&features).unwrap();
        assert_eq!(coalesced, direct);
    }

    #[test]
    fn mixed_work_kinds_coalesce_without_cross_talk() {
        let engine = Arc::new(tiny_engine(2, 8));
        let images: Vec<Tensor> = (0..6)
            .map(|k| Tensor::from_fn(&[3, 8, 8], |i| ((i + 17 * k) as f32 * 0.011).cos()))
            .collect();
        let expected_logits: Vec<Tensor> = images
            .iter()
            .map(|img| engine.predict_one(img.clone()).unwrap())
            .collect();
        let expected_maps: Vec<Vec<Tensor>> = images
            .iter()
            .map(|img| {
                let batched = img.reshape(&[1, 3, 8, 8]).unwrap();
                let features = engine.defense().client_features(&batched).unwrap();
                engine.defense().server_outputs(&features).unwrap()
            })
            .collect();

        std::thread::scope(|scope| {
            let mut logit_handles = Vec::new();
            let mut map_handles = Vec::new();
            for img in &images {
                let predict_engine = Arc::clone(&engine);
                logit_handles
                    .push(scope.spawn(move || predict_engine.predict_one(img.clone()).unwrap()));
                let outputs_engine = Arc::clone(&engine);
                map_handles.push(scope.spawn(move || {
                    let batched = img.reshape(&[1, 3, 8, 8]).unwrap();
                    let features = outputs_engine.defense().client_features(&batched).unwrap();
                    outputs_engine.server_outputs_one(features).unwrap()
                }));
            }
            let logits: Vec<Tensor> = logit_handles
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect();
            let maps: Vec<Vec<Tensor>> =
                map_handles.into_iter().map(|h| h.join().unwrap()).collect();
            assert_eq!(logits, expected_logits);
            assert_eq!(maps, expected_maps);
        });
    }

    #[test]
    fn quantized_server_outputs_coalesce_bit_exactly() {
        use crate::quant::QuantizedDefense;

        let pipeline = Arc::new(
            SinglePipeline::new(ResNetConfig::tiny_for_tests(), DefenseKind::NoDefense, 9).unwrap(),
        );
        let int8: Arc<dyn Defense> = Arc::new(QuantizedDefense::quantize(pipeline));
        let engine = Arc::new(
            InferenceEngine::new(
                Arc::clone(&int8),
                EngineConfig {
                    max_batch: 4,
                    batch_window: Duration::from_millis(10),
                    workers: 2,
                },
            )
            .unwrap(),
        );

        let qfeatures: Vec<QTensorBatch> = (0..6)
            .map(|k| {
                let image = Tensor::from_fn(&[1, 3, 8, 8], |i| ((i + 13 * k) as f32 * 0.02).sin());
                let features = int8.client_features(&image).unwrap();
                QTensorBatch::quantize_batch(&features)
            })
            .collect();
        let expected: Vec<Vec<QTensorBatch>> = qfeatures
            .iter()
            .map(|qf| int8.server_outputs_quantized(qf).unwrap())
            .collect();

        let answers: Vec<Vec<QTensorBatch>> = std::thread::scope(|scope| {
            let handles: Vec<_> = qfeatures
                .iter()
                .map(|qf| {
                    let engine = Arc::clone(&engine);
                    scope.spawn(move || engine.server_outputs_quantized_one(qf.clone()).unwrap())
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });

        // Coalesced quantized answers are byte-identical to isolated calls.
        assert_eq!(answers, expected);
    }

    #[test]
    fn range_requests_coalesce_only_within_their_range() {
        use crate::{EnsemblerPipeline, Selector};
        use ensembler_nn::models::{build_body, build_head, build_tail};
        use ensembler_nn::FixedNoise;
        use ensembler_tensor::Rng;

        let config = ResNetConfig::tiny_for_tests();
        let mut rng = Rng::seed_from(23);
        let head = build_head(&config, &mut rng);
        let noise = FixedNoise::new(&config.head_output_shape(), 0.1, &mut rng);
        let bodies = (0..4).map(|_| build_body(&config, &mut rng)).collect();
        let selector = Selector::random(4, 2, &mut rng).unwrap();
        let tail = build_tail(&config, 2 * config.body_output_features(), &mut rng);
        let pipeline: Arc<dyn Defense> =
            Arc::new(EnsemblerPipeline::new(config, head, noise, bodies, selector, tail).unwrap());
        let engine = Arc::new(
            InferenceEngine::new(
                Arc::clone(&pipeline),
                EngineConfig {
                    max_batch: 8,
                    batch_window: Duration::from_millis(10),
                    workers: 2,
                },
            )
            .unwrap(),
        );

        // Concurrent requests for two different slices plus full-ensemble
        // requests: each must get exactly its own slice's answer even when
        // drained into the same worker wake-up.
        let features: Vec<Tensor> = (0..6)
            .map(|k| {
                let image = Tensor::from_fn(&[1, 3, 8, 8], |i| ((i + 7 * k) as f32 * 0.02).sin());
                pipeline.client_features(&image).unwrap()
            })
            .collect();
        let qfeatures: Vec<QTensorBatch> =
            features.iter().map(QTensorBatch::quantize_batch).collect();
        let expected: Vec<(Vec<Tensor>, Vec<Tensor>, Vec<QTensorBatch>)> = features
            .iter()
            .zip(&qfeatures)
            .map(|(f, qf)| {
                (
                    pipeline.server_outputs_range(f, 0, 2).unwrap(),
                    pipeline.server_outputs_range(f, 2, 4).unwrap(),
                    pipeline.server_outputs_quantized_range(qf, 1, 3).unwrap(),
                )
            })
            .collect();

        let answers: Vec<(Vec<Tensor>, Vec<Tensor>, Vec<QTensorBatch>)> =
            std::thread::scope(|scope| {
                let handles: Vec<_> = features
                    .iter()
                    .zip(&qfeatures)
                    .map(|(f, qf)| {
                        let engine = Arc::clone(&engine);
                        scope.spawn(move || {
                            (
                                engine.server_outputs_range_one(f.clone(), 0, 2).unwrap(),
                                engine.server_outputs_range_one(f.clone(), 2, 4).unwrap(),
                                engine
                                    .server_outputs_quantized_range_one(qf.clone(), 1, 3)
                                    .unwrap(),
                            )
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });
        assert_eq!(answers, expected);

        // Malformed ranges are rejected before touching the queue.
        assert!(engine
            .server_outputs_range_one(features[0].clone(), 2, 2)
            .is_err());
        assert!(engine
            .server_outputs_quantized_range_one(qfeatures[0].clone(), 0, 9)
            .is_err());
    }

    #[test]
    fn begin_and_wait_split_completes_out_of_submission_order() {
        let engine = tiny_engine(2, 4);
        let image = Tensor::from_fn(&[1, 3, 8, 8], |i| (i as f32 * 0.017).sin());
        let features = engine.defense().client_features(&image).unwrap();
        let direct = engine.defense().server_outputs(&features).unwrap();

        // Two pipelined submissions, awaited in reverse order: each Pending
        // holds exactly its own answer.
        let a = engine.server_outputs_begin(features.clone()).unwrap();
        let b = engine.server_outputs_begin(features.clone()).unwrap();
        assert_eq!(b.wait().unwrap(), direct);
        assert_eq!(a.wait().unwrap(), direct);

        // A dropped Pending abandons its request without wedging the engine.
        drop(engine.server_outputs_begin(features.clone()).unwrap());
        assert_eq!(engine.server_outputs_one(features).unwrap(), direct);
    }

    #[test]
    fn quantized_server_outputs_one_rejects_batched_input() {
        let engine = tiny_engine(1, 2);
        let qf = QTensorBatch::quantize_batch(&Tensor::ones(&[2, 3, 4, 4]));
        let err = engine.server_outputs_quantized_one(qf).unwrap_err();
        assert!(matches!(err, EnsemblerError::ShapeMismatch(_)));
    }

    #[test]
    fn server_outputs_one_rejects_batched_input() {
        let engine = tiny_engine(1, 2);
        let err = engine
            .server_outputs_one(Tensor::ones(&[2, 3, 4, 4]))
            .unwrap_err();
        assert!(matches!(err, EnsemblerError::ShapeMismatch(_)));
    }

    #[test]
    fn engine_shuts_down_cleanly_on_drop() {
        let engine = tiny_engine(2, 2);
        let _ = engine.predict_one(Tensor::ones(&[3, 8, 8])).unwrap();
        drop(engine); // must not hang or panic
    }

    #[test]
    fn a_malformed_shape_is_a_typed_error_and_the_worker_survives() {
        // [4, 8, 8] passes the rank check but has the wrong channel count.
        // The compiled plans turn what used to be a Conv2d panic into a
        // typed shape error, and the single worker keeps serving.
        let engine = tiny_engine(1, 2);
        let err = engine.predict_one(Tensor::ones(&[4, 8, 8])).unwrap_err();
        assert!(
            matches!(err, EnsemblerError::ShapeMismatch(_)),
            "channel mismatch should be a typed shape error, got {err:?}"
        );
        let logits = engine.predict_one(Tensor::ones(&[3, 8, 8])).unwrap();
        assert_eq!(logits.len(), 3, "worker must still be alive");
    }

    /// A defense whose forward panics unconditionally, standing in for any
    /// bug the shape validation does not catch.
    #[derive(Debug)]
    struct PanickingDefense {
        config: ResNetConfig,
    }

    impl Defense for PanickingDefense {
        fn config(&self) -> &ResNetConfig {
            &self.config
        }

        fn label(&self) -> &str {
            "panicker"
        }

        fn server_bodies(&self) -> &[ensembler_nn::Sequential] {
            &[]
        }

        fn selected_count(&self) -> usize {
            1
        }

        fn client_features(&self, _images: &Tensor) -> Result<Tensor, EnsemblerError> {
            panic!("injected client_features failure")
        }

        fn server_outputs(&self, _transmitted: &Tensor) -> Result<Vec<Tensor>, EnsemblerError> {
            panic!("injected server_outputs failure")
        }

        fn classify(&self, _server_maps: &[Tensor]) -> Result<Tensor, EnsemblerError> {
            panic!("injected classify failure")
        }
    }

    #[test]
    fn a_panicking_prediction_does_not_kill_the_worker() {
        // Shape validation can't catch everything; a genuine panic inside
        // the defense must still surface as an engine error without wedging
        // the worker queue.
        let defense = Arc::new(PanickingDefense {
            config: ResNetConfig::tiny_for_tests(),
        });
        let engine = InferenceEngine::new(
            defense,
            EngineConfig {
                max_batch: 2,
                batch_window: Duration::from_millis(10),
                workers: 1,
            },
        )
        .unwrap();
        let err = engine.predict_one(Tensor::ones(&[3, 8, 8])).unwrap_err();
        assert!(
            matches!(err, EnsemblerError::Engine(_)),
            "panic should surface as an engine error, got {err:?}"
        );
        // The worker thread survives: a second request gets an answer (the
        // same injected panic) instead of hanging on a dead queue.
        let err = engine.predict_one(Tensor::ones(&[3, 8, 8])).unwrap_err();
        assert!(matches!(err, EnsemblerError::Engine(_)));
    }
}
