// perfbench — one invocation of the end-to-end benchmark.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//
// Builds the workload's inputs from the seed, runs jobs closed-loop (one
// at a time) through the library's public API — core::run for training
// jobs, fleet::run_fleet for the rack — for about S seconds, and prints one
// JSON object on stdout: the metrics, and one output digest per job so the
// caller (run.py) can check every job against its workload's reference.
//
// --trace 0 measures the end-to-end metrics with telemetry off. --trace 1
// measures the per-layer metrics: each round runs one untraced job, one
// job with the library's own telemetry sinks installed (its spans and
// counters), and the benchmark's own timed calls into single layers
// (dataset synthesis, the int8 kernels, evaluation, the float scan, and the
// fleet's differential runs). Every time is host wall time on
// std::chrono::steady_clock; "sim" values are simulated seconds.
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "nessa/core/run.hpp"
#include "nessa/data/registry.hpp"
#include "nessa/fault/fault_plan.hpp"
#include "nessa/fleet/arrivals.hpp"
#include "nessa/fleet/fleet_sim.hpp"
#include "nessa/nn/activation.hpp"
#include "nessa/nn/dense.hpp"
#include "nessa/nn/embedding.hpp"
#include "nessa/nn/metrics.hpp"
#include "nessa/quant/quantize.hpp"
#include "nessa/telemetry/telemetry.hpp"
#include "nessa/tensor/ops.hpp"
#include "nessa/util/thread_pool.hpp"

using namespace nessa;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ---- output digest ----------------------------------------------------

// FNV-1a over the exact bytes of every output field (doubles by bit
// pattern), so any change to a simulated or learned value shows.
class Digest {
 public:
  template <class T>
    requires std::is_trivially_copyable_v<T>
  void add(const T& value) {
    unsigned char bytes[sizeof(T)];
    std::memcpy(bytes, &value, sizeof(T));
    for (const unsigned char b : bytes) {
      hash_ = (hash_ ^ b) * 1099511628211ULL;
    }
  }
  void add(const std::string& s) {
    add(s.size());
    for (const char c : s) add(c);
  }
  [[nodiscard]] std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(hash_));
    return buf;
  }

 private:
  std::uint64_t hash_ = 1469598103934665603ULL;
};

std::string digest_of(const core::RunResult& r) {
  Digest d;
  d.add(r.epochs.size());
  for (const core::EpochReport& e : r.epochs) {
    d.add(e.epoch);
    d.add(e.train_loss);
    d.add(e.test_accuracy);
    d.add(e.subset_size);
    d.add(e.pool_size);
    d.add(e.subset_fraction);
    d.add(e.selection_overlap);
    d.add(e.chunk_fetches);
    d.add(e.class_mix.size());
    for (const auto c : e.class_mix) d.add(c);
    d.add(e.cost.storage_scan);
    d.add(e.cost.selection);
    d.add(e.cost.subset_transfer);
    d.add(e.cost.gpu_compute);
    d.add(e.cost.feedback);
    d.add(e.cost.selection_overlapped);
    d.add(e.cost.modeled_total);
  }
  d.add(r.final_accuracy);
  d.add(r.best_accuracy);
  d.add(r.mean_subset_fraction);
  d.add(r.total_time);
  d.add(r.mean_epoch_time);
  d.add(r.interconnect_bytes);
  d.add(r.p2p_bytes);
  d.add(r.fault_fallback_epochs);
  d.add(r.fault_stale_epochs);
  d.add(r.chunk_corruptions);
  d.add(r.chunk_refetches);
  d.add(r.quarantined_chunks);
  return d.hex();
}

std::string digest_of(const fleet::FleetResult& r) {
  Digest d;
  for (const auto v :
       {r.arrivals, r.admitted, r.rejected, r.deferred, r.completed,
        r.preemptions, r.resumes, r.chunk_fetches, r.migrations,
        r.failed_permanently, r.chunk_fetches_lost, r.chunk_corruptions,
        r.chunk_refetches, r.quarantined_chunks}) {
    d.add(v);
  }
  d.add(r.makespan);
  for (const double v : {r.goodput_jobs_per_s, r.p50_latency_s,
                         r.p99_latency_s, r.mean_latency_s, r.jain_fairness}) {
    d.add(v);
  }
  d.add(r.peak_queue_depth);
  d.add(r.peak_overflow_depth);
  d.add(r.tenants.size());
  for (const fleet::TenantStats& t : r.tenants) {
    d.add(t.tenant);
    d.add(t.weight);
    for (const auto v : {t.arrivals, t.admitted, t.rejected, t.completed,
                         t.preemptions, t.migrations, t.failed}) {
      d.add(v);
    }
    d.add(t.p50_latency_s);
    d.add(t.p99_latency_s);
    d.add(t.gpu_service_s);
  }
  d.add(r.components.size());
  for (const fleet::ComponentUtilization& c : r.components) {
    d.add(c.name);
    d.add(c.utilization);
    d.add(c.requests);
    d.add(c.bytes);
  }
  d.add(r.health.size());
  for (const fleet::DeviceHealth& h : r.health) {
    d.add(h.device);
    d.add(h.failures);
    d.add(h.recoveries);
    d.add(h.detections);
    d.add(h.migrations_out);
    d.add(h.downtime);
    d.add(h.availability);
    d.add(h.mean_detection_latency_s);
    d.add(h.mttr_s);
  }
  d.add(r.jobs.size());
  for (const fleet::JobRecord& j : r.jobs) {
    d.add(j.tenant);
    d.add(j.weight);
    d.add(j.arrival);
    d.add(j.first_dispatch);
    d.add(j.finish);
    d.add(j.epochs);
    d.add(j.epochs_done);
    d.add(j.preemptions);
    d.add(j.resumes);
    d.add(j.chunk_fetches);
    d.add(j.next_chunk);
    d.add(j.device);
    d.add(j.gpu);
    d.add(j.migrations);
    d.add(j.migrated_from);
    d.add(j.chunk_corruptions);
    d.add(j.chunk_refetches);
    d.add(j.quarantined_chunks);
    d.add(j.admitted);
    d.add(j.completed);
    d.add(j.rejected);
    d.add(j.failed);
  }
  return d.hex();
}

// ---- workloads --------------------------------------------------------

enum class Kind { kTraining, kFleet };

struct Workload {
  std::string_view name;
  Kind kind;
  const char* dataset;  // training workloads only
  double scale;
  core::PipelineKind pipeline;
};

// Why each workload is here: perfbench/README.md.
constexpr std::size_t kEpochs = 20;
constexpr Workload kWorkloads[] = {
    {"nessa-imagenet100", Kind::kTraining, "ImageNet-100", 0.03,
     core::PipelineKind::kNessa},
    {"craig-cifar10", Kind::kTraining, "CIFAR-10", 0.2,
     core::PipelineKind::kCraig},
    {"fleet-failover", Kind::kFleet, nullptr, 0.0, core::PipelineKind::kNessa},
};

// One job's result: host wall time, output digest, and what went wrong
// (empty when the job ran and its output passed the structural checks).
struct JobOutcome {
  double wall_s = 0.0;
  std::string digest;
  std::string error;
};

// ---- training jobs ----------------------------------------------------

// Everything a training job needs before its timed core::run: the
// substrate dataset, the staged inputs and config, and a fresh modeled
// system (it accumulates traffic, so each job gets its own).
struct TrainingSetup {
  data::Dataset dataset;
  core::PipelineInputs inputs;
  core::RunConfig config;
  std::unique_ptr<smartssd::SmartSsdSystem> system;
  double synth_s = 0.0;
};

std::unique_ptr<TrainingSetup> setup_training(const Workload& w,
                                              std::uint64_t seed) {
  auto s = std::make_unique<TrainingSetup>();
  util::ThreadPool::global();
  const data::DatasetInfo& info = data::dataset_info(w.dataset);
  const auto synth_start = Clock::now();
  s->dataset = data::make_substrate_dataset(info, w.scale, 0, seed);
  s->synth_s = seconds_since(synth_start);

  s->inputs.dataset = &s->dataset;
  s->inputs.info = info;
  s->inputs.model = nn::model_spec(info.paper_network);
  s->inputs.train.epochs = kEpochs;
  s->inputs.train.batch_size = 128;
  s->inputs.train.seed = seed;

  // The nessa CLI's defaults for a 20-epoch run, selection on the pool.
  core::RunConfig& rc = s->config;
  rc.dataset = w.dataset;
  rc.dataset_scale = w.scale;
  rc.pipeline = w.pipeline;
  rc.train = s->inputs.train;
  rc.nessa.subset_fraction = 0.3;
  rc.nessa.partition_quota = 8;
  rc.nessa.drop_interval_epochs = std::max<std::size_t>(3, kEpochs / 4);
  rc.nessa.loss_window_epochs = std::max<std::size_t>(2, kEpochs / 40);
  rc.parallelism = util::Parallelism::pooled();
  rc.validate_or_throw();
  s->system = std::make_unique<smartssd::SmartSsdSystem>(rc.system);
  return s;
}

std::string check_training(const core::RunResult& r) {
  if (r.epochs.size() != kEpochs) return "wrong epoch count";
  if (!(r.final_accuracy > 0.0 && r.final_accuracy <= 1.0)) {
    return "final accuracy out of (0, 1]";
  }
  if (r.total_time <= 0) return "non-positive simulated time";
  return {};
}

// ---- fleet jobs -------------------------------------------------------

// The differential ladder that attributes the fleet's host time: each
// stage adds one mechanism to the one before; kFull is the workload. The
// fault plan goes in before chunk streaming because a failing plan makes
// every chunk fetch dearer: that per-fetch cost is charged to the chunk
// path, and the fault term is what failure handling itself costs.
enum class FleetStage { kBase, kPreempt, kFaults, kFull };

// 2k jobs keep one job at about 55 ms, so a run holds hundreds of them. A
// 20k-job rack (0.5 s a job) swung about 1.6x as much between runs with the
// host's load (perfbench/README.md, "Why 2k jobs").
constexpr std::size_t kFleetJobs = 2000;
constexpr double kFleetRate = 100.0;  // arrivals per simulated second

struct FleetSetup {
  fleet::FleetConfig config;
  std::vector<fleet::Arrival> arrivals;
};

FleetSetup setup_fleet(std::uint64_t seed, FleetStage stage) {
  util::ThreadPool::global();
  FleetSetup s;
  fleet::PoissonConfig arrivals;
  arrivals.jobs = kFleetJobs;
  arrivals.tenants = 8;
  arrivals.rate_per_s = kFleetRate;
  arrivals.seed = seed;
  s.arrivals = fleet::poisson_arrivals(arrivals);

  fleet::FleetConfig& c = s.config;
  c.devices = 4;
  c.gpus = 2;
  c.jobs_per_device = 4;
  c.queue_capacity = 64;
  c.job.pipeline_epochs = 3;
  if (stage >= FleetStage::kPreempt) c.preempt_quantum_epochs = 1;
  if (stage == FleetStage::kFull) c.job.workload.chunk_records = 2000;
  if (stage >= FleetStage::kFaults) {
    // ssd0 fail-stops halfway through the arrival stream (the shape of
    // BM_FleetFailover) and never returns; 1% of chunk fetches are
    // stickily corrupt.
    const auto fail_us = static_cast<long long>(
        static_cast<double>(kFleetJobs) / kFleetRate / 2.0 * 1e6);
    std::istringstream plan("fail component=ssd0 at_us=" +
                            std::to_string(fail_us) +
                            " mttr_us=0\ncorrupt rate=0.01\n");
    c.job.fault_plan = fault::FaultPlan::from_stream(plan);
    c.health.probe_interval = 500 * util::kMicrosecond;
  }
  c.job.validate_or_throw();
  return s;
}

std::string check_fleet(const fleet::FleetResult& r, FleetStage stage) {
  if (r.arrivals != kFleetJobs) return "arrival count mismatch";
  if (r.admitted + r.rejected != r.arrivals) return "arrivals unaccounted";
  if (r.completed + r.failed_permanently != r.admitted) {
    return "admitted jobs unaccounted";
  }
  if (r.completed == 0 || r.makespan <= 0) return "no work done";
  if (r.chunk_corruptions != r.chunk_refetches + r.quarantined_chunks) {
    return "chunk integrity ledger does not balance";
  }
  if ((stage >= FleetStage::kFaults && r.migrations == 0) ||
      (stage == FleetStage::kFull && r.chunk_corruptions == 0)) {
    return "failure plan did not engage";
  }
  return {};
}

// ---- one job, timed ---------------------------------------------------

template <class Result, class RunFn, class CheckFn>
JobOutcome timed_job(RunFn&& run, CheckFn&& check, Result* out = nullptr) {
  JobOutcome o;
  try {
    const auto start = Clock::now();
    Result r = run();
    o.wall_s = seconds_since(start);
    o.digest = digest_of(r);
    o.error = check(r);
    if (out != nullptr) *out = std::move(r);
  } catch (const std::exception& e) {
    o.error = std::string("threw: ") + e.what();
  }
  return o;
}

JobOutcome run_training(TrainingSetup& s, core::RunResult* out = nullptr) {
  return timed_job<core::RunResult>(
      [&] { return core::run(s.inputs, s.config, *s.system); },
      check_training, out);
}

JobOutcome run_fleet_job(const FleetSetup& s, FleetStage stage,
                         fleet::FleetResult* out = nullptr) {
  return timed_job<fleet::FleetResult>(
      [&] { return fleet::run_fleet(s.config, s.arrivals); },
      [stage](const fleet::FleetResult& r) { return check_fleet(r, stage); },
      out);
}

// ---- per-layer timing from the benchmark's side -----------------------

// Sum of wall-domain span durations per name, and of "select-coreset"
// spans nested inside a "nessa-selection-pass" span on the same thread.
struct SpanTotals {
  std::map<std::string, double> by_name;
  double select_in_pass = 0.0;
};

SpanTotals span_totals(const telemetry::TraceRecorder& trace) {
  SpanTotals t;
  const auto events = trace.events();
  std::vector<const telemetry::TraceEvent*> passes;
  for (const auto& e : events) {
    if (e.domain != telemetry::Domain::kWall || e.instant) continue;
    t.by_name[e.name] += static_cast<double>(e.duration) * 1e-9;
    if (e.name == "nessa-selection-pass") passes.push_back(&e);
  }
  for (const auto& e : events) {
    if (e.domain != telemetry::Domain::kWall || e.name != "select-coreset") {
      continue;
    }
    for (const auto* p : passes) {
      if (p->track == e.track && p->start <= e.start &&
          e.start + e.duration <= p->start + p->duration) {
        t.select_in_pass += static_cast<double>(e.duration) * 1e-9;
        break;
      }
    }
  }
  return t;
}

// One full-pool int8 pass at the scan's batch shape, through the quant
// layer's public kernels only: the weights are quantized once up front (as
// the selection kernel holds them), then every batch quantizes its
// activations and multiplies per Dense layer. Bias and ReLU between layers
// are untimed. MACs are counted from the shapes.
struct QuantPass {
  double quantize_s = 0.0;
  double matmul_s = 0.0;
  double macs = 0.0;
};

QuantPass time_quant_pass(const nn::Sequential& model, const data::Split& split,
                          std::size_t batch_size) {
  struct QLayer {
    quant::QuantizedTensor weight;
    const tensor::Tensor* bias;
    bool relu;
  };
  std::vector<QLayer> layers;
  for (std::size_t i = 0; i < model.layer_count(); ++i) {
    const nn::Layer& layer = model.layer(i);
    if (const auto* dense = dynamic_cast<const nn::Dense*>(&layer)) {
      layers.push_back({quant::quantize_symmetric(dense->weight()),
                        &dense->bias(), false});
    } else if (dynamic_cast<const nn::Relu*>(&layer) != nullptr &&
               !layers.empty()) {
      layers.back().relu = true;
    }
  }
  QuantPass pass;
  const std::size_t n = split.size();
  const std::size_t dim = split.dim();
  for (std::size_t start = 0; start < n; start += batch_size) {
    const std::size_t count = std::min(batch_size, n - start);
    tensor::Tensor x({count, dim});
    std::copy_n(split.features.data() + start * dim, count * dim, x.data());
    for (const QLayer& l : layers) {
      const auto t0 = Clock::now();
      const quant::QuantizedTensor qx = quant::quantize_activations(x);
      const auto t1 = Clock::now();
      tensor::Tensor y = quant::quantized_matmul(qx, l.weight);
      const auto t2 = Clock::now();
      pass.quantize_s += std::chrono::duration<double>(t1 - t0).count();
      pass.matmul_s += std::chrono::duration<double>(t2 - t1).count();
      pass.macs += static_cast<double>(count * l.weight.shape[0] *
                                       l.weight.shape[1]);
      tensor::add_row_vector(y, *l.bias);
      x = l.relu ? tensor::relu(y) : std::move(y);
    }
  }
  return pass;
}

// ---- measurement modes -------------------------------------------------

using Samples = std::map<std::string, std::vector<double>>;

// Keep starting rounds while one more (at the last round's duration) still
// fits in the budget; there is always at least one.
template <class RoundFn>
void run_rounds(double budget_s, RoundFn&& round) {
  const auto start = Clock::now();
  for (;;) {
    const auto round_start = Clock::now();
    round();
    const double last = seconds_since(round_start);
    if (seconds_since(start) + last > budget_s) break;
  }
}

constexpr int kSetupRepeats = 5;

void end_to_end(const Workload& w, std::uint64_t seed, double budget_s,
                Samples& m, std::vector<JobOutcome>& jobs) {
  // The first job warms caches, the allocator and the pool's workers: its
  // output is checked like every other job's, but its wall time counts only
  // when the budget left room for no other job.
  bool warm = false;
  run_rounds(budget_s, [&] {
    // Set-up takes milliseconds, so each job repeats it a few times (the
    // job runs on the last) to steady its median.
    auto timed_setup = [&](auto&& setup) {
      for (int i = 1;; ++i) {
        const auto start = Clock::now();
        auto s = setup();
        m["setup_s"].push_back(seconds_since(start));
        if (i == kSetupRepeats) return s;
      }
    };
    if (w.kind == Kind::kTraining) {
      auto s = timed_setup([&] { return setup_training(w, seed); });
      jobs.push_back(run_training(*s));
    } else {
      const FleetSetup s =
          timed_setup([&] { return setup_fleet(seed, FleetStage::kFull); });
      jobs.push_back(run_fleet_job(s, FleetStage::kFull));
    }
    if (warm) m["run_wall_s"].push_back(jobs.back().wall_s);
    warm = true;
  });
  if (m["run_wall_s"].empty()) m["run_wall_s"].push_back(jobs.front().wall_s);
}

void per_layer_training(const Workload& w, std::uint64_t seed, Samples& m,
                        std::vector<JobOutcome>& jobs) {
  // Untraced job: the reference wall time for core.other_s and the
  // telemetry overhead.
  auto plain = setup_training(w, seed);
  const JobOutcome untraced = run_training(*plain);
  jobs.push_back(untraced);

  auto s = setup_training(w, seed);
  m["data.synth_s"].push_back(median({plain->synth_s, s->synth_s}));
  telemetry::TraceRecorder trace;
  telemetry::MetricsRegistry metrics;
  core::RunResult result;
  telemetry::install(&trace, &metrics);
  const JobOutcome traced = run_training(*s, &result);
  telemetry::uninstall();
  jobs.push_back(traced);

  const SpanTotals spans = span_totals(trace);
  auto span = [&](const char* name) {
    const auto it = spans.by_name.find(name);
    return it == spans.by_name.end() ? 0.0 : it->second;
  };
  const double pass_s = span("nessa-selection-pass");
  const double scan_s = pass_s - spans.select_in_pass;
  const double select_s = span("select-coreset");
  const double train_s = span("train-epoch");
  double scanned = 0.0;
  if (pass_s > 0.0) {
    for (const auto& e : result.epochs) {
      scanned += static_cast<double>(e.pool_size);
    }
  }
  m["quant.scan_s"].push_back(scan_s);
  m["quant.scan_samples_per_s"].push_back(scan_s > 0.0 ? scanned / scan_s
                                                       : 0.0);

  const double train_samples =
      static_cast<double>(metrics.counter_value("core.train.samples"));
  m["nn.train_s"].push_back(train_s);
  m["nn.train_samples_per_s"].push_back(train_s > 0.0 ? train_samples / train_s
                                                      : 0.0);

  const double gain_evals =
      static_cast<double>(metrics.counter_value("selection.gain_evaluations"));
  m["selection.select_s"].push_back(select_s);
  m["selection.gain_evaluations"].push_back(gain_evals);
  m["selection.similarity_ops"].push_back(
      static_cast<double>(metrics.counter_value("selection.similarity_ops")));
  m["selection.ns_per_gain_eval"].push_back(
      gain_evals > 0.0 ? select_s * 1e9 / gain_evals : 0.0);

  const double events =
      static_cast<double>(metrics.counter_value("sim.engine.events"));
  m["sim.engine.events"].push_back(events);
  m["sim.host_ns_per_event"].push_back(
      events > 0.0 ? untraced.wall_s * 1e9 / events : 0.0);

  // Layers the run reaches outside any library span, timed here on the
  // same shapes: evaluation of the test split once per epoch, the int8
  // kernels of one full-pool scan (NeSSA only), and CRAIG's float
  // embedding pass over the training split once per epoch.
  util::Rng rng(seed);
  nn::Sequential model =
      nn::build_model(s->inputs.model, s->dataset.feature_dim(),
                      s->dataset.num_classes(), rng);
  const data::Split& test = s->dataset.test();
  const data::Split& train = s->dataset.train();
  const auto eval_start = Clock::now();
  for (std::size_t e = 0; e < kEpochs; ++e) {
    (void)nn::evaluate(model, test.features, test.labels);
  }
  const double eval_s = seconds_since(eval_start);
  m["nn.eval_s"].push_back(eval_s);

  QuantPass quant_pass;
  if (w.pipeline == core::PipelineKind::kNessa) {
    quant_pass = time_quant_pass(model, train, s->inputs.train.batch_size);
  }
  m["quant.quantize_s"].push_back(quant_pass.quantize_s);
  m["quant.matmul_s"].push_back(quant_pass.matmul_s);
  m["quant.matmul_gmacs_per_s"].push_back(
      quant_pass.matmul_s > 0.0 ? quant_pass.macs / quant_pass.matmul_s * 1e-9
                                : 0.0);

  double float_scan_s = 0.0;
  if (w.pipeline == core::PipelineKind::kCraig) {
    const auto scan_start = Clock::now();
    for (std::size_t e = 0; e < kEpochs; ++e) {
      (void)nn::compute_embeddings(model, train.features, train.labels,
                                   nn::EmbeddingKind::kLogitGrad);
    }
    float_scan_s = seconds_since(scan_start);
  }
  m["nn.float_scan_s"].push_back(float_scan_s);

  m["core.other_s"].push_back(untraced.wall_s - (scan_s + select_s + train_s +
                                                 eval_s + float_scan_s));
  m["telemetry.overhead_s"].push_back(traced.wall_s - untraced.wall_s);
  m["core.final_accuracy"].push_back(result.final_accuracy);
  m["core.sim_total_s"].push_back(util::to_seconds(result.total_time));

  for (const char* name :
       {"fleet.base_s", "ckpt.preempt_delta_s", "data.chunk_delta_s",
        "fault.failover_delta_s", "fleet.jobs.preempted", "fleet.jobs.resumed",
        "fleet.jobs.migrated", "fleet.chunk.fetches", "fleet.chunk.refetches",
        "fleet.chunk.quarantined", "fleet.chunk.useful_ratio"}) {
    m[name].push_back(0.0);
  }
}

void per_layer_fleet(std::uint64_t seed, Samples& m,
                     std::vector<JobOutcome>& jobs) {
  // The differential ladder, untraced; its top stage is the workload and
  // doubles as the untraced reference job.
  double stage_s[4] = {};
  fleet::FleetResult full;
  for (const FleetStage stage : {FleetStage::kBase, FleetStage::kPreempt,
                                 FleetStage::kFaults, FleetStage::kFull}) {
    const FleetSetup s = setup_fleet(seed, stage);
    const JobOutcome o = run_fleet_job(
        s, stage, stage == FleetStage::kFull ? &full : nullptr);
    stage_s[static_cast<int>(stage)] = o.wall_s;
    if (stage == FleetStage::kFull) {
      jobs.push_back(o);
    } else if (!o.error.empty()) {
      jobs.push_back(o);  // a failing lower stage is a failed job too
    }
  }
  const double untraced_s = stage_s[3];

  const FleetSetup s = setup_fleet(seed, FleetStage::kFull);
  telemetry::TraceRecorder trace;
  telemetry::MetricsRegistry metrics;
  telemetry::install(&trace, &metrics);
  const JobOutcome traced = run_fleet_job(s, FleetStage::kFull);
  telemetry::uninstall();
  jobs.push_back(traced);

  m["fleet.base_s"].push_back(stage_s[0]);
  m["ckpt.preempt_delta_s"].push_back(stage_s[1] - stage_s[0]);
  m["fault.failover_delta_s"].push_back(stage_s[2] - stage_s[1]);
  m["data.chunk_delta_s"].push_back(stage_s[3] - stage_s[2]);
  for (const char* name :
       {"fleet.jobs.preempted", "fleet.jobs.resumed", "fleet.jobs.migrated",
        "fleet.chunk.fetches", "fleet.chunk.refetches",
        "fleet.chunk.quarantined"}) {
    m[name].push_back(static_cast<double>(metrics.counter_value(name)));
  }
  // A fetch is useful when its bytes reached selection: not CRC-corrupt
  // (re-fetched or quarantined) and not redone after a migration rollback.
  const double fetches = static_cast<double>(full.chunk_fetches);
  m["fleet.chunk.useful_ratio"].push_back(
      fetches > 0.0 ? (fetches - static_cast<double>(full.chunk_corruptions +
                                                     full.chunk_fetches_lost)) /
                          fetches
                    : 0.0);
  const double events =
      static_cast<double>(metrics.counter_value("sim.engine.events"));
  m["sim.engine.events"].push_back(events);
  m["sim.host_ns_per_event"].push_back(
      events > 0.0 ? untraced_s * 1e9 / events : 0.0);
  // The ladder's terms add up to the untraced job by construction.
  m["core.other_s"].push_back(0.0);
  m["telemetry.overhead_s"].push_back(traced.wall_s - untraced_s);
  m["core.sim_total_s"].push_back(util::to_seconds(full.makespan));

  for (const char* name :
       {"data.synth_s", "quant.scan_s", "quant.scan_samples_per_s",
        "quant.quantize_s", "quant.matmul_s", "quant.matmul_gmacs_per_s",
        "nn.train_s", "nn.train_samples_per_s", "nn.eval_s", "nn.float_scan_s",
        "selection.select_s", "selection.gain_evaluations",
        "selection.similarity_ops", "selection.ns_per_gain_eval",
        "core.final_accuracy"}) {
    m[name].push_back(0.0);
  }
}

// ---- command line ------------------------------------------------------

struct Args {
  const Workload* workload = nullptr;
  std::uint64_t seed = 0;
  std::uint64_t seconds = 0;
  bool trace = false;
};

bool parse_uint(std::string_view text, std::uint64_t& out) {
  if (text.empty() || text.front() < '0' || text.front() > '9') return false;
  const auto [end, ec] =
      std::from_chars(text.data(), text.data() + text.size(), out);
  return ec == std::errc{} && end == text.data() + text.size();
}

// Returns an error message, or empty on success.
std::string parse_args(int argc, char** argv, Args& args) {
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) return "missing value for " + std::string(flag);
    const std::string_view value = argv[++i];
    if (flag == "--workload") {
      for (const Workload& w : kWorkloads) {
        if (w.name == value) args.workload = &w;
      }
      if (args.workload == nullptr) {
        return "unknown workload '" + std::string(value) + "'";
      }
    } else if (flag == "--seed") {
      if (!parse_uint(value, args.seed)) {
        return "--seed must be an unsigned 64-bit decimal integer";
      }
      have_seed = true;
    } else if (flag == "--seconds") {
      if (!parse_uint(value, args.seconds) || args.seconds == 0 ||
          args.seconds > 3600) {
        return "--seconds must be an integer in [1, 3600]";
      }
      have_seconds = true;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return "--trace must be 0 or 1";
      args.trace = value == "1";
      have_trace = true;
    } else {
      return "unknown flag '" + std::string(flag) + "'";
    }
  }
  if (args.workload == nullptr || !have_seed || !have_seconds || !have_trace) {
    return "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1";
  }
  return {};
}

void print_json_string(std::ostream& os, std::string_view s) {
  os << '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      os << '\\' << c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[7];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      os << buf;
    } else {
      os << c;
    }
  }
  os << '"';
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (const std::string error = parse_args(argc, argv, args); !error.empty()) {
    std::cerr << "perfbench: " << error << "\n";
    return 2;
  }
  const Workload& w = *args.workload;
  Samples m;
  std::vector<JobOutcome> jobs;
  try {
    const auto budget = static_cast<double>(args.seconds);
    if (!args.trace) {
      end_to_end(w, args.seed, budget, m, jobs);
      m["peak_rss_mb"].push_back(peak_rss_mb());
    } else if (w.kind == Kind::kTraining) {
      run_rounds(budget, [&] { per_layer_training(w, args.seed, m, jobs); });
    } else {
      run_rounds(budget, [&] { per_layer_fleet(args.seed, m, jobs); });
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: set-up failed: " << e.what() << "\n";
    return 1;
  }

  std::ostringstream os;
  os.precision(17);
  os << "{\"workload\": ";
  print_json_string(os, w.name);
  os << ", \"pool_threads\": " << util::ThreadPool::global().size()
     << ", \"build_type\": ";
  print_json_string(os, PERFBENCH_BUILD_TYPE);
  os << ", \"cxx_flags\": ";
  print_json_string(os, PERFBENCH_CXX_FLAGS);
  os << ", \"compiler\": ";
  print_json_string(os, PERFBENCH_COMPILER);
  os << ", \"jobs\": [";
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    os << (i ? ", " : "") << "{\"digest\": ";
    print_json_string(os, jobs[i].digest);
    os << ", \"error\": ";
    print_json_string(os, jobs[i].error);
    os << "}";
  }
  os << "], \"metrics\": {";
  bool first = true;
  for (const auto& [name, values] : m) {
    os << (first ? "" : ", ");
    first = false;
    print_json_string(os, name);
    os << ": {\"median\": " << median(values)
       << ", \"samples\": " << values.size() << "}";
  }
  os << "}}\n";
  std::cout << os.str();
  return 0;
}
