//! Wrappers around the program's public extension points: layers inside a
//! `Sequential`, models from a `ModelFactory`, trainers from a
//! `TrainerFactory`, the aggregator, each client's upload codec and a
//! counter-only monitor.
//!
//! Every wrapper forwards each call unchanged — `clone_layer`,
//! `clone_model`, `try_clone` and `clone_box` included, so that tracing
//! neither disables speculation nor changes any RNG draw — and records a
//! span around it. The transparency check compares traced and untraced
//! reports to hold them to that.

use crate::trace::{self, span};
use fs_compress::{CompressedBlock, Compressor};
use fs_core::aggregator::{Aggregator, ReceivedUpdate};
use fs_core::trainer::{LocalTrainer, LocalUpdate, Trainer};
use fs_monitor::{Monitor, TrackId};
use fs_sim::VirtualTime;
use fs_tensor::layer::{Conv2d, Flatten, Layer, Linear, MaxPool2d, Relu, Sequential};
use fs_tensor::loss::{LossKind, Target};
use fs_tensor::model::{Metrics, Model, NetModel};
use fs_tensor::optim::SgdConfig;
use fs_tensor::{ParamMap, Tensor};
use rand::Rng;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Which FLOP counter a layer feeds.
#[derive(Clone, Copy)]
enum Kind {
    Conv,
    Linear,
}

/// A traced `fs_tensor` layer: spans around `forward` and `backward`, and a
/// nominal FLOP count (a multiply-add is 2 FLOPs; backward computes the
/// weight and input gradients, twice the forward work).
pub struct TracedLayer {
    inner: Box<dyn Layer>,
    fwd: &'static str,
    bwd: &'static str,
    kind: Kind,
    /// Multiply-adds per output element: the weight's fan-in.
    fan_in: u64,
}

impl TracedLayer {
    fn new(inner: Box<dyn Layer>, fwd: &'static str, bwd: &'static str, kind: Kind) -> Self {
        let mut params = ParamMap::new();
        inner.collect_params("", &mut params);
        let fan_in = params
            .iter()
            .map(|(_, t)| t.shape())
            .filter(|s| s.len() >= 2)
            .map(|s| s[1..].iter().product::<usize>() as u64)
            .max()
            .expect("a conv or linear layer has a weight");
        Self {
            inner,
            fwd,
            bwd,
            kind,
            fan_in,
        }
    }

    fn add_flops(&self, out_numel: usize, factor: u64) {
        let flops = 2 * self.fan_in * out_numel as u64 * factor;
        let name = match self.kind {
            Kind::Conv => "tensor.conv.flops",
            Kind::Linear => "tensor.linear.flops",
        };
        trace::count(name, flops);
    }
}

impl Layer for TracedLayer {
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        let y = span(self.fwd, None, || self.inner.forward(x, train));
        self.add_flops(y.numel(), 1);
        y
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let g = span(self.bwd, None, || self.inner.backward(grad_out));
        self.add_flops(grad_out.numel(), 2);
        g
    }

    fn collect_params(&self, prefix: &str, out: &mut ParamMap) {
        self.inner.collect_params(prefix, out)
    }

    fn collect_grads(&self, prefix: &str, out: &mut ParamMap) {
        self.inner.collect_grads(prefix, out)
    }

    fn load_params(&mut self, prefix: &str, src: &ParamMap) {
        self.inner.load_params(prefix, src)
    }

    fn zero_grad(&mut self) {
        self.inner.zero_grad()
    }

    fn buffer_names(&self) -> Vec<&'static str> {
        self.inner.buffer_names()
    }

    fn clone_layer(&self) -> Box<dyn Layer> {
        Box::new(TracedLayer {
            inner: self.inner.clone_layer(),
            fwd: self.fwd,
            bwd: self.bwd,
            kind: self.kind,
            fan_in: self.fan_in,
        })
    }
}

fn conv(layer: Conv2d, fwd: &'static str, bwd: &'static str) -> Box<dyn Layer> {
    Box::new(TracedLayer::new(Box::new(layer), fwd, bwd, Kind::Conv))
}

fn linear(layer: Linear, fwd: &'static str, bwd: &'static str) -> Box<dyn Layer> {
    Box::new(TracedLayer::new(Box::new(layer), fwd, bwd, Kind::Linear))
}

/// `fs_tensor::model::convnet2` without dropout, rebuilt from the same
/// layers with the same RNG draws in the same order, each weight layer
/// traced.
pub fn traced_convnet2(
    in_ch: usize,
    img: usize,
    hidden: usize,
    classes: usize,
    rng: &mut impl Rng,
) -> TracedModel {
    let mut net = Sequential::new();
    net.push(
        "conv1",
        conv(
            Conv2d::new(in_ch, 8, 3, 1, rng),
            "tensor.conv1.fwd",
            "tensor.conv1.bwd",
        ),
    );
    net.push("act1", Box::new(Relu::new()));
    net.push("pool1", Box::new(MaxPool2d::new()));
    net.push(
        "conv2",
        conv(
            Conv2d::new(8, 16, 3, 1, rng),
            "tensor.conv2.fwd",
            "tensor.conv2.bwd",
        ),
    );
    net.push("act2", Box::new(Relu::new()));
    net.push("pool2", Box::new(MaxPool2d::new()));
    net.push("flat", Box::new(Flatten::new()));
    let side = img / 4;
    net.push(
        "fc1",
        linear(
            Linear::new(16 * side * side, hidden, rng),
            "tensor.fc1.fwd",
            "tensor.fc1.bwd",
        ),
    );
    net.push("act3", Box::new(Relu::new()));
    net.push(
        "fc2",
        linear(
            Linear::new(hidden, classes, rng),
            "tensor.fc2.fwd",
            "tensor.fc2.bwd",
        ),
    );
    TracedModel::new(Box::new(NetModel::new(net, LossKind::SoftmaxCrossEntropy)))
}

/// A traced model: spans around `loss_grad`, `predict` and the parameter
/// copies in and out of the network.
pub struct TracedModel {
    inner: Box<dyn Model>,
}

impl TracedModel {
    /// Wraps `inner`.
    pub fn new(inner: Box<dyn Model>) -> Self {
        Self { inner }
    }
}

impl Model for TracedModel {
    fn get_params(&self) -> ParamMap {
        span("tensor.params_copy", None, || self.inner.get_params())
    }

    fn set_params(&mut self, src: &ParamMap) {
        span("tensor.params_copy", None, || self.inner.set_params(src))
    }

    fn predict(&mut self, x: &Tensor) -> Tensor {
        span("tensor.predict", None, || self.inner.predict(x))
    }

    fn loss_grad(&mut self, x: &Tensor, y: &Target) -> (f32, ParamMap) {
        span("tensor.loss_grad", None, || self.inner.loss_grad(x, y))
    }

    fn buffer_keys(&self) -> Vec<String> {
        self.inner.buffer_keys()
    }

    // `evaluate` keeps the trait's default, which calls the traced
    // `predict`; `NetModel` does not override it either.

    fn clone_model(&self) -> Box<dyn Model> {
        Box::new(TracedModel {
            inner: self.inner.clone_model(),
        })
    }
}

/// A traced trainer: spans around `local_train` (carrying its round id) and
/// local evaluation.
pub struct TracedTrainer {
    inner: Box<dyn Trainer>,
}

impl TracedTrainer {
    /// Wraps `inner`.
    pub fn new(inner: Box<dyn Trainer>) -> Self {
        Self { inner }
    }
}

impl Trainer for TracedTrainer {
    fn incorporate(&mut self, global: &ParamMap) {
        self.inner.incorporate(global)
    }

    fn local_train(&mut self, global: &ParamMap, round: u64) -> LocalUpdate {
        span("trainer.local_train", Some(round), || {
            self.inner.local_train(global, round)
        })
    }

    fn evaluate_val(&mut self) -> Metrics {
        span("trainer.eval", None, || self.inner.evaluate_val())
    }

    fn evaluate_test(&mut self) -> Metrics {
        span("trainer.eval", None, || self.inner.evaluate_test())
    }

    fn num_train_samples(&self) -> usize {
        self.inner.num_train_samples()
    }

    fn set_sgd_config(&mut self, cfg: SgdConfig) {
        self.inner.set_sgd_config(cfg)
    }

    fn try_clone(&self) -> Option<Box<dyn Trainer>> {
        self.inner
            .try_clone()
            .map(|t| Box::new(TracedTrainer { inner: t }) as Box<dyn Trainer>)
    }

    fn into_local(self: Box<Self>) -> Option<LocalTrainer> {
        self.inner.into_local()
    }
}

/// Wall-clock instants of every `aggregate` call: consecutive differences
/// are the course's round times.
pub type RoundMarks = Arc<Mutex<Vec<Instant>>>;

/// The course's aggregator with a round clock, and a span when traced.
/// Present in untraced courses too: one `Instant::now` per round.
pub struct ClockedAggregator {
    inner: Box<dyn Aggregator>,
    marks: RoundMarks,
    traced: bool,
}

impl ClockedAggregator {
    /// Wraps `inner`, pushing one instant per `aggregate` call to `marks`.
    pub fn new(inner: Box<dyn Aggregator>, marks: RoundMarks, traced: bool) -> Self {
        Self {
            inner,
            marks,
            traced,
        }
    }
}

impl Aggregator for ClockedAggregator {
    fn aggregate(&mut self, global: &ParamMap, updates: &[ReceivedUpdate]) -> ParamMap {
        self.marks
            .lock()
            .expect("round clock poisoned by a panicking course")
            .push(Instant::now());
        if !self.traced {
            return self.inner.aggregate(global, updates);
        }
        trace::count("agg.updates", updates.len() as u64);
        span("agg.aggregate", None, || {
            self.inner.aggregate(global, updates)
        })
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn set_shards(&mut self, shards: usize) {
        self.inner.set_shards(shards)
    }
}

/// A traced upload codec: a span around `compress` and the dense and
/// encoded sizes of every block.
pub struct TracedCompressor {
    inner: Box<dyn Compressor>,
}

impl TracedCompressor {
    /// Wraps `inner`.
    pub fn new(inner: Box<dyn Compressor>) -> Self {
        Self { inner }
    }
}

impl Compressor for TracedCompressor {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn compress(&mut self, params: &ParamMap) -> CompressedBlock {
        let block = span("compress", None, || self.inner.compress(params));
        trace::count(
            "compress.dense_bytes",
            fs_net::wire::params_wire_len(params) as u64,
        );
        trace::count("compress.encoded_bytes", block.encoded_len() as u64);
        block
    }

    fn set_reference(&mut self, params: &ParamMap, version: u64) {
        self.inner.set_reference(params, version)
    }

    fn clone_box(&self) -> Box<dyn Compressor> {
        Box::new(TracedCompressor {
            inner: self.inner.clone_box(),
        })
    }
}

/// A monitor that keeps only counters (the engine's event and wire counts);
/// spans and round records are dropped.
#[derive(Default)]
pub struct CounterMonitor {
    /// Counter totals.
    pub counters: BTreeMap<&'static str, u64>,
}

impl Monitor for CounterMonitor {
    fn enter(&mut self, _: TrackId, _: &'static str, _: &'static str, _: VirtualTime) {}
    fn exit(&mut self, _: TrackId, _: VirtualTime) {}
    fn span(&mut self, _: TrackId, _: &'static str, _: &'static str, _: VirtualTime, _: f64) {}
    fn add(&mut self, counter: &'static str, delta: u64) {
        *self.counters.entry(counter).or_insert(0) += delta;
    }
    fn round(&mut self, _: u64, _: VirtualTime, _: &Metrics) {}
}
