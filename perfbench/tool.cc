// perfbench_tool: the C++ half of the serving benchmark (perfbench/run.py
// is the other half). Every subcommand rebuilds the served pipeline the
// way `ratatouille_cli serve` does (gpt2-medium, BPE budget 800) from
// --recipes/--seed and, where weights matter, --checkpoint.
//
//   dataset  --recipes=N --seed=S
//       Held-out test split (ingredient lists, prompt prefixes, tagged
//       references) and the ingredient vocabulary, as JSON on stdout.
//   check    --recipes=N --seed=S --checkpoint=F --quant=fp32|int8 --in=F
//       Independent output checks on greedy token streams the client
//       recorded: every token against the argmax of one full causal
//       re-encode forward (no KV cache), prompt token counts, and corpus
//       BLEU through rt::eval on the decoded candidates.
//   traced   --recipes=N --seed=S --checkpoint=F --quant=fp32|int8
//            --replicas=R --max-batch=M --out=F
//       The serving tier chain assembled in one process from the public
//       classes (FrontendService -> Router over a StaticFleet -> R x
//       BackendService -> BatchScheduler -> Gpt2Lm) with timing proxies
//       at each boundary. Prints the ports as one JSON line, then reads
//       commands from stdin ("trace 1" / "trace 0" switch the proxies'
//       timing on and off); on EOF it stops and writes per-request
//       records plus layer counters to --out.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "core/ratatouille.h"
#include "data/generator.h"
#include "eval/bleu.h"
#include "models/gpt2_model.h"
#include "models/sampler.h"
#include "nn/checkpoint.h"
#include "serve/replica_supervisor.h"
#include "serve/router.h"
#include "tensor/kernels.h"
#include "tensor/quant.h"
#include "text/bpe_tokenizer.h"
#include "util/flags.h"
#include "util/json.h"
#include "util/obs.h"
#include "util/strings.h"

namespace rt {
namespace {

using Clock = std::chrono::steady_clock;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

int Fail(const std::string& message) {
  std::fprintf(stderr, "perfbench_tool: %s\n", message.c_str());
  return 1;
}

long long IntFlag(const ArgParser& args, const char* key, long long fallback) {
  auto v = args.GetInt(key, fallback);
  return v.ok() ? *v : fallback;
}

/// The pipeline options `ratatouille_cli serve` derives for gpt2-medium.
PipelineOptions ServedOptions(const ArgParser& args) {
  PipelineOptions options;
  options.corpus.num_recipes = static_cast<int>(IntFlag(args, "recipes", 400));
  options.corpus.seed = static_cast<uint64_t>(IntFlag(args, "seed", 2022));
  options.model = ModelKind::kGpt2Medium;
  options.trainer.seq_len = 176;
  options.trainer.batch_size = 4;
  options.bpe_vocab_budget = 800;
  return options;
}

StatusOr<std::unique_ptr<Pipeline>> LoadServedPipeline(
    const ArgParser& args, double* load_seconds) {
  RT_ASSIGN_OR_RETURN(auto pipeline, Pipeline::Create(ServedOptions(args)));
  const auto start = Clock::now();
  RT_RETURN_IF_ERROR(LoadCheckpoint(pipeline->model()->module(),
                                    args.GetString("checkpoint")));
  if (load_seconds != nullptr) *load_seconds = SecondsSince(start);
  return pipeline;
}

bool ApplyQuant(const ArgParser& args) {
  const std::string quant = args.GetString("quant", "fp32");
  kernels::Config().use_int8 = quant == "int8";
  return quant == "fp32" || quant == "int8";
}

std::vector<std::string> StringList(const Json& array) {
  std::vector<std::string> out;
  for (const Json& item : array.AsArray()) out.push_back(item.AsString());
  return out;
}

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// ---------------------------------------------------------------------------
// dataset

int CmdDataset(const ArgParser& args) {
  auto pipeline = Pipeline::Create(ServedOptions(args));
  if (!pipeline.ok()) return Fail(pipeline.status().ToString());
  const DatasetSplits& splits = (*pipeline)->splits();
  Json test = Json::Array{};
  for (const Recipe& recipe : splits.test) {
    Json item = Json::Object{};
    Json names = Json::Array{};
    for (const std::string& name : recipe.IngredientNames()) {
      names.Append(name);
    }
    item.Set("ingredients", names);
    item.Set("reference", recipe.ToTaggedString());
    test.Append(item);
  }
  std::map<std::string, int> vocabulary;
  for (const Recipe& recipe : splits.train) {
    for (const std::string& name : recipe.IngredientNames()) {
      ++vocabulary[name];
    }
  }
  Json names = Json::Array{};
  for (const auto& [name, count] : vocabulary) names.Append(name);
  Json out = Json::Object{};
  out.Set("test", test);
  out.Set("ingredients", names);
  std::printf("%s\n", out.Dump().c_str());
  return 0;
}

// ---------------------------------------------------------------------------
// check

/// Logit slack within which a served greedy token still counts as the
/// re-encode's argmax (ties and last-ulp differences between the
/// one-token KV-cache step and the full-sequence forward).
constexpr float kArgmaxMargin = 1e-3f;

std::string PromptPrefix(const std::vector<std::string>& ingredients) {
  Recipe prompt;
  for (const std::string& name : ingredients) {
    prompt.ingredients.push_back({"", "", ToLower(Trim(name)), ""});
  }
  return prompt.PromptPrefix();
}

int CmdCheck(const ArgParser& args) {
  if (!ApplyQuant(args)) return Fail("bad --quant");
  std::FILE* f = std::fopen(args.GetString("in").c_str(), "rb");
  if (f == nullptr) return Fail("cannot open --in");
  std::string text;
  char buf[1 << 16];
  size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) text.append(buf, n);
  std::fclose(f);
  auto input = Json::Parse(text);
  if (!input.ok()) return Fail("bad --in JSON");
  auto pipeline = LoadServedPipeline(args, nullptr);
  if (!pipeline.ok()) return Fail(pipeline.status().ToString());
  Pipeline& p = **pipeline;
  auto* gpt = dynamic_cast<Gpt2Lm*>(p.model());
  if (gpt == nullptr) return Fail("served model is not GPT-2");
  const int vocab = gpt->vocab_size();

  // Each greedy stream is scored by one causal forward over prompt +
  // generated[:-1], which scores every generated position against its
  // own prefix. The forwards are independent, so they run on a few
  // threads; Gpt2Lm's raw inference path is const (lazy weight packing
  // is mutex-guarded).
  struct Job {
    std::vector<int> full;
    std::vector<int> ids;
    size_t prompt_len = 0;
    long long exact = 0, within = 0, violations = 0;
    double max_deficit = 0.0;
  };
  std::vector<Job> jobs;
  long long prompt_mismatch = 0;
  std::vector<std::string> candidates, references;
  const auto& test = p.splits().test;
  for (const Json& seq : input->Get("greedy").AsArray()) {
    Job job;
    for (const Json& id : seq.Get("ids").AsArray()) {
      job.ids.push_back(static_cast<int>(id.AsNumber()));
    }
    const std::string prefix = PromptPrefix(StringList(seq.Get("ingredients")));
    job.full = p.tokenizer().Encode(prefix);
    job.prompt_len = job.full.size();
    if (static_cast<int>(job.prompt_len) !=
        static_cast<int>(seq.Get("prompt_tokens").AsNumber())) {
      ++prompt_mismatch;
    }
    const int ref = static_cast<int>(seq.Get("ref").AsNumber());
    if (ref >= 0 && ref < static_cast<int>(test.size())) {
      candidates.push_back(prefix + " " + p.tokenizer().Decode(job.ids));
      references.push_back(test[ref].ToTaggedString());
    }
    job.full.insert(job.full.end(), job.ids.begin(), job.ids.end());
    if (!job.ids.empty()) job.full.pop_back();
    jobs.push_back(std::move(job));
  }
  auto score = [&](Job& job) {
    if (job.ids.empty()) return;
    if (static_cast<int>(job.full.size()) > gpt->max_seq_len()) {
      ++job.violations;  // longer than the context: cannot have been served
      return;
    }
    const Tensor logits = gpt->ForwardLogitsRaw(job.full);
    for (size_t j = 0; j < job.ids.size(); ++j) {
      const float* row = logits.data() + (job.prompt_len - 1 + j) *
                                             static_cast<size_t>(vocab);
      const float best = *std::max_element(row, row + vocab);
      const float got = row[job.ids[j]];
      if (got == best) {
        ++job.exact;
      } else if (best - got <= kArgmaxMargin) {
        ++job.within;
      } else {
        ++job.violations;
      }
      job.max_deficit =
          std::max(job.max_deficit, static_cast<double>(best - got));
    }
  };
  std::atomic<size_t> next{0};
  std::vector<std::thread> workers;
  const unsigned hw = std::thread::hardware_concurrency();
  for (unsigned t = 0; t < std::clamp(hw, 1u, 4u); ++t) {
    workers.emplace_back([&] {
      for (size_t i = next++; i < jobs.size(); i = next++) score(jobs[i]);
    });
  }
  for (std::thread& w : workers) w.join();
  long long tokens = 0, exact = 0, within = 0, violations = 0;
  double max_deficit = 0.0;
  for (const Job& job : jobs) {
    tokens += static_cast<long long>(job.ids.size());
    exact += job.exact;
    within += job.within;
    violations += job.violations;
    max_deficit = std::max(max_deficit, job.max_deficit);
  }
  Json bleu = Json::Object{};
  Json cand = Json::Array{}, refs = Json::Array{};
  for (const auto& c : candidates) cand.Append(c);
  for (const auto& r : references) refs.Append(r);
  bleu.Set("candidates", cand);
  bleu.Set("references", refs);
  Json out = Json::Object{};
  out.Set("argmax_tokens", static_cast<double>(tokens));
  out.Set("argmax_exact", static_cast<double>(exact));
  out.Set("argmax_within_margin", static_cast<double>(within));
  out.Set("argmax_violations", static_cast<double>(violations));
  out.Set("argmax_margin", static_cast<double>(kArgmaxMargin));
  out.Set("max_logit_deficit", max_deficit);
  out.Set("prompt_mismatch", static_cast<double>(prompt_mismatch));
  out.Set("bleu", bleu);
  // Printed separately with every digit: the BLEU agreement check is at
  // 1e-9 and Json::Dump may round.
  std::printf("%s\n%s\n", out.Dump().c_str(),
              Num(candidates.empty() ? 0.0
                                     : CorpusBleu(candidates, references))
                  .c_str());
  return 0;
}

// ---------------------------------------------------------------------------
// kernel reference rows

struct KernelRow {
  std::string name;
  int m, k, n;
  bool int8;
  double ns_per_call;
  double flops, bytes, max_err;
};

/// Calls the packed fp32 and int8 GEMMs at the served model's decode
/// shapes and checks each against the naive reference loop.
std::vector<KernelRow> KernelRows(int dim, int vocab, int max_m) {
  struct Shape {
    const char* name;
    int k, n;
  };
  const Shape shapes[] = {{"qkv", dim, 3 * dim},
                          {"proj", dim, dim},
                          {"mlp_up", dim, 4 * dim},
                          {"mlp_down", 4 * dim, dim},
                          {"head", dim, vocab}};
  std::mt19937 gen(7);
  std::uniform_real_distribution<float> dist(-1.0f, 1.0f);
  std::vector<KernelRow> rows;
  for (const Shape& s : shapes) {
    std::vector<float> b(static_cast<size_t>(s.k) * s.n);
    for (float& v : b) v = dist(gen);
    kernels::PackedB packed;
    packed.Pack(s.k, s.n, b.data());
    kernels::PackedBInt8 packed8;
    packed8.Pack(s.k, s.n, b.data());
    std::vector<int8_t> q(b.size());
    std::vector<float> scales(static_cast<size_t>(s.n));
    quant::QuantizePerColumn(b.data(), s.k, s.n, q.data(), scales.data());
    for (int m = 1; m <= max_m; ++m) {
      std::vector<float> a(static_cast<size_t>(m) * s.k);
      for (float& v : a) v = dist(gen);
      std::vector<float> c(static_cast<size_t>(m) * s.n), ref(c.size());
      for (int int8 = 0; int8 < 2; ++int8) {
        const int reps = 200;
        const auto start = Clock::now();
        for (int r = 0; r < reps; ++r) {
          if (int8) {
            kernels::GemmPackedInt8(m, a.data(), packed8, c.data(), false);
          } else {
            kernels::GemmPacked(m, a.data(), packed, c.data(), false);
          }
        }
        const double ns = SecondsSince(start) * 1e9 / reps;
        if (int8) {
          kernels::GemmInt8Ref(m, s.n, s.k, a.data(), q.data(),
                               scales.data(), ref.data());
        } else {
          kernels::GemmRef(m, s.n, s.k, a.data(), b.data(), ref.data());
        }
        double err = 0.0;
        for (size_t i = 0; i < c.size(); ++i) {
          err = std::max(err, static_cast<double>(std::fabs(c[i] - ref[i])) /
                                  (1.0 + std::fabs(ref[i])));
        }
        const double weight_bytes =
            int8 ? static_cast<double>(s.k) * s.n + 4.0 * s.n
                 : 4.0 * s.k * s.n;
        rows.push_back({s.name, m, s.k, s.n, int8 != 0, ns,
                        2.0 * m * s.k * s.n,
                        weight_bytes + 4.0 * m * (s.k + s.n), err});
      }
    }
  }
  return rows;
}

// ---------------------------------------------------------------------------
// traced: timing proxies around the public serving classes

std::atomic<bool> g_trace{false};

/// One generate request as seen from inside the process. Times are
/// steady_clock (CLOCK_MONOTONIC) nanoseconds, comparable with the
/// client's time.monotonic().
struct Rec {
  /// Ingredients, seed and stream flag: what the client can match on.
  std::string key;
  int64_t gen_enter = 0, gen_exit = 0;
  int64_t decode_enter = 0, decode_exit = 0;
  int64_t admit = 0;
  /// Decoder busy time (DecoderStats::busy_ns) at admission and after
  /// the request's last step: their difference minus the request's own
  /// calls is other rows' decoder work while it was resident.
  int64_t busy_at_admit = 0, busy_at_last_step = 0;
  int64_t restore_ns = 0, prefill_ns = 0, publish_ns = 0, step_ns = 0;
  int64_t on_token_ns = 0;
};

std::mutex g_recs_mutex;
std::deque<std::unique_ptr<Rec>> g_recs;

Rec* NewRec() {
  std::lock_guard<std::mutex> lock(g_recs_mutex);
  g_recs.push_back(std::make_unique<Rec>());
  return g_recs.back().get();
}

/// Decoder-level counters for one replica, written by its scheduler
/// thread only (read after Stop()).
struct DecoderStats {
  long long steps_by_m[kMaxDecodeBatch + 1] = {};
  int64_t step_ns_by_m[kMaxDecodeBatch + 1] = {};
  long long prefill_tokens = 0;
  int64_t prefill_ns = 0;
  long long lookups = 0, restored_tokens = 0, lookup_prompt_tokens = 0;
  int64_t restore_ns = 0;
  long long publishes = 0;
  int64_t publish_ns = 0;
  /// Sum of every timed decoder call, for attributing co-resident work.
  std::atomic<int64_t> busy_ns{0};
  int64_t inline_ns = 0;
  /// Scheduler-thread time between two consecutive StepBatch calls
  /// that share a resident row (so the thread did not go idle), minus
  /// the decoder calls in between: sampling, on_token hooks, admission
  /// and bookkeeping.
  int64_t loop_gap_ns = 0;
  long long loop_gaps = 0;
};

/// Matches the scheduler's admission call (NewSequenceWithPrefix on the
/// full prompt) back to the request that submitted that prompt.
class AdmissionMap {
 public:
  void Expect(const std::vector<int>& prompt, Rec* rec) {
    std::lock_guard<std::mutex> lock(mutex_);
    pending_[prompt].push_back(rec);
  }
  Rec* Admit(const int* tokens, int n) {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = pending_.find(std::vector<int>(tokens, tokens + n));
    if (it == pending_.end() || it->second.empty()) return nullptr;
    Rec* rec = it->second.front();
    it->second.pop_front();
    if (it->second.empty()) pending_.erase(it);
    return rec;
  }
  void Forget(Rec* rec) {
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto it = pending_.begin(); it != pending_.end(); ++it) {
      auto& q = it->second;
      q.erase(std::remove(q.begin(), q.end(), rec), q.end());
      if (q.empty()) {
        pending_.erase(it);
        return;
      }
    }
  }

 private:
  std::mutex mutex_;
  std::map<std::vector<int>, std::deque<Rec*>> pending_;
};

class TracedDecoder : public BatchDecoder {
 public:
  TracedDecoder(std::unique_ptr<BatchDecoder> inner, DecoderStats* stats,
                AdmissionMap* admissions)
      : inner_(std::move(inner)), stats_(stats), admissions_(admissions) {}

  std::unique_ptr<BatchSequence> NewSequence() override {
    return inner_->NewSequence();
  }
  std::unique_ptr<BatchSequence> NewSequenceWithPrefix(const int* tokens,
                                                       int n,
                                                       int* restored) override {
    if (!g_trace.load(std::memory_order_relaxed)) {
      auto seq = inner_->NewSequenceWithPrefix(tokens, n, restored);
      Adopt(seq.get(), nullptr);
      return seq;
    }
    Rec* rec = admissions_->Admit(tokens, n);
    const int64_t t0 = NowNs();
    if (rec != nullptr) {
      rec->admit = t0;
      rec->busy_at_admit = stats_->busy_ns.load();
    }
    auto seq = inner_->NewSequenceWithPrefix(tokens, n, restored);
    const int64_t dt = Account(t0);
    ++stats_->lookups;
    stats_->restore_ns += dt;
    stats_->restored_tokens += *restored;
    stats_->lookup_prompt_tokens += n;
    Adopt(seq.get(), rec);
    if (rec != nullptr) rec->restore_ns += dt;
    return seq;
  }
  void PrefillSeq(BatchSequence* seq, const int* tokens, int count) override {
    if (!g_trace.load(std::memory_order_relaxed)) {
      return inner_->PrefillSeq(seq, tokens, count);
    }
    const int64_t t0 = NowNs();
    inner_->PrefillSeq(seq, tokens, count);
    const int64_t dt = Account(t0);
    stats_->prefill_ns += dt;
    stats_->prefill_tokens += count;
    if (Rec* rec = OwnerOf(seq)) rec->prefill_ns += dt;
  }
  void PublishPrefix(BatchSequence* seq, const int* tokens, int n) override {
    if (!g_trace.load(std::memory_order_relaxed)) {
      return inner_->PublishPrefix(seq, tokens, n);
    }
    const int64_t t0 = NowNs();
    inner_->PublishPrefix(seq, tokens, n);
    const int64_t dt = Account(t0);
    ++stats_->publishes;
    stats_->publish_ns += dt;
    if (Rec* rec = OwnerOf(seq)) rec->publish_ns += dt;
  }
  void EnablePrefixCache(const PrefixCacheOptions& options) override {
    inner_->EnablePrefixCache(options);
  }
  PrefixCacheStats prefix_cache_stats() const override {
    return inner_->prefix_cache_stats();
  }
  void StepBatch(int m, const int* tokens, BatchSequence* const* seqs,
                 float* logits) override {
    if (!g_trace.load(std::memory_order_relaxed)) {
      prev_step_end_ = 0;
      return inner_->StepBatch(m, tokens, seqs, logits);
    }
    const int64_t t0 = NowNs();
    const int64_t busy_before = stats_->busy_ns.load();
    if (prev_step_end_ != 0) {
      bool shared = false;
      for (int i = 0; i < m && !shared; ++i) {
        shared = std::find(prev_rows_.begin(), prev_rows_.end(), seqs[i]) !=
                 prev_rows_.end();
      }
      if (shared) {
        stats_->loop_gap_ns +=
            (t0 - prev_step_end_) - (busy_before - prev_busy_);
        ++stats_->loop_gaps;
      }
    }
    inner_->StepBatch(m, tokens, seqs, logits);
    const int64_t t1 = NowNs();
    const int64_t dt = Account(t0, t1);
    prev_rows_.assign(seqs, seqs + m);
    prev_step_end_ = t1;
    prev_busy_ = busy_before + dt;
    ++stats_->steps_by_m[m];
    stats_->step_ns_by_m[m] += dt;
    const int64_t busy = stats_->busy_ns.load();
    for (int i = 0; i < m; ++i) {
      if (Rec* rec = OwnerOf(seqs[i])) {
        rec->step_ns += dt;
        rec->busy_at_last_step = busy;
      }
    }
  }
  int vocab_size() const override { return inner_->vocab_size(); }
  int max_context() const override { return inner_->max_context(); }
  int64_t arena_heap_allocs() const override {
    return inner_->arena_heap_allocs();
  }

 private:
  /// A new sequence may reuse a retired one's pooled slot address:
  /// rebind its owner and forget it as a row of the previous step.
  void Adopt(BatchSequence* seq, Rec* rec) {
    owner_[seq] = rec;
    prev_rows_.erase(std::remove(prev_rows_.begin(), prev_rows_.end(), seq),
                     prev_rows_.end());
  }
  Rec* OwnerOf(BatchSequence* seq) const {
    auto it = owner_.find(seq);
    return it == owner_.end() ? nullptr : it->second;
  }
  int64_t Account(int64_t t0, int64_t t1 = 0) {
    if (t1 == 0) t1 = NowNs();
    stats_->busy_ns.fetch_add(t1 - t0);
    return t1 - t0;
  }

  std::unique_ptr<BatchDecoder> inner_;
  DecoderStats* stats_;
  AdmissionMap* admissions_;
  /// Sequence -> request (see Adopt).
  std::map<BatchSequence*, Rec*> owner_;
  std::vector<BatchSequence*> prev_rows_;
  int64_t prev_step_end_ = 0;
  int64_t prev_busy_ = 0;
};

/// LanguageModel proxy: hands the scheduler a TracedDecoder and times
/// the sequential Generate the scheduler runs inline for beam requests.
class TracedLm : public LanguageModel {
 public:
  explicit TracedLm(LanguageModel* inner) : inner_(inner) {}

  std::string name() const override { return inner_->name(); }
  Module* module() override { return inner_->module(); }
  float TrainStep(const Batch& batch, Rng* rng) override {
    return inner_->TrainStep(batch, rng);
  }
  float EvalLoss(const Batch& batch) override {
    return inner_->EvalLoss(batch);
  }
  GenerationResult Generate(const std::vector<int>& prompt,
                            const GenerationOptions& options) override {
    if (!g_trace.load(std::memory_order_relaxed)) {
      return inner_->Generate(prompt, options);
    }
    const int64_t t0 = NowNs();
    GenerationResult result = inner_->Generate(prompt, options);
    const int64_t dt = NowNs() - t0;
    stats.busy_ns.fetch_add(dt);
    stats.inline_ns += dt;
    return result;
  }
  std::unique_ptr<BatchDecoder> MakeBatchDecoder() override {
    auto inner = inner_->MakeBatchDecoder();
    if (inner == nullptr) return nullptr;
    auto traced =
        std::make_unique<TracedDecoder>(std::move(inner), &stats, &admissions);
    decoder = traced.get();
    return traced;
  }
  int vocab_size() const override { return inner_->vocab_size(); }
  int max_seq_len() const override { return inner_->max_seq_len(); }

  DecoderStats stats;
  AdmissionMap admissions;
  TracedDecoder* decoder = nullptr;

 private:
  LanguageModel* inner_;
};

/// Pipeline::ToStreamedOptions twin (that one is internal to the core
/// library): the per-token hook decodes each token's incremental text.
GenerationOptions StreamedOptions(const Pipeline* pipeline,
                                  const GenerateRequest& req) {
  GenerationOptions opts = ToGenerationOptions(req);
  if (!req.on_token) return opts;
  const Tokenizer* tokenizer = &pipeline->tokenizer();
  auto ids = std::make_shared<std::vector<int>>();
  auto prev_len = std::make_shared<size_t>(0);
  opts.on_token = [on_token = req.on_token, tokenizer, ids,
                   prev_len](int id) {
    ids->push_back(id);
    const std::string full = tokenizer->Decode(*ids);
    const std::string delta =
        full.size() >= *prev_len ? full.substr(*prev_len) : full;
    *prev_len = full.size();
    on_token(id, delta);
  };
  return opts;
}

/// One in-process replica: pipeline, traced model, scheduler, backend.
struct Replica {
  std::unique_ptr<Pipeline> pipeline;
  std::unique_ptr<TracedLm> lm;
  std::unique_ptr<serve::BatchScheduler> scheduler;
  std::unique_ptr<BackendService> backend;
};

/// MakeBatchedPipelineSessionFactory with proxies at the GenerateFn,
/// DecodeFn and on_token boundaries (recording only while tracing).
BackendService::SessionFactory TracedFactory(Replica* r) {
  return [r](int) -> BackendService::GenerateFn {
    return [r](const GenerateRequest& req) -> StatusOr<GenerateOutcome> {
      Pipeline* p = r->pipeline.get();
      serve::BatchScheduler* scheduler = r->scheduler.get();
      TracedLm* lm = r->lm.get();
      Rec* rec = g_trace.load(std::memory_order_relaxed) ? NewRec() : nullptr;
      if (rec != nullptr) {
        rec->gen_enter = NowNs();
        rec->key = Join(req.ingredients, "|") + "#" +
                   std::to_string(req.seed) + "#" + (req.stream ? "1" : "0");
      }
      auto decode = [scheduler, lm, rec](const std::vector<int>& prompt,
                                         const GenerationOptions& o) {
        if (rec == nullptr) return scheduler->Generate(prompt, o);
        rec->decode_enter = NowNs();
        GenerationOptions opts = o;
        if (opts.on_token) {
          opts.on_token = [inner = o.on_token, rec](int id) {
            const int64_t t0 = NowNs();
            inner(id);
            rec->on_token_ns += NowNs() - t0;
          };
        }
        const bool batched = opts.beam_width <= 0 && lm->decoder != nullptr;
        if (batched) lm->admissions.Expect(prompt, rec);
        GenerationResult result = scheduler->Generate(prompt, opts);
        if (batched) lm->admissions.Forget(rec);
        rec->decode_exit = NowNs();
        return result;
      };
      auto out = p->GenerateFromIngredientsVia(decode, req.ingredients,
                                               StreamedOptions(p, req));
      if (rec != nullptr) rec->gen_exit = NowNs();
      if (!out.ok()) return out.status();
      GenerateOutcome outcome;
      outcome.recipe = std::move(out->recipe);
      outcome.finish = out->finish;
      outcome.tokens_generated = out->tokens_generated;
      outcome.prompt_tokens = out->prompt_tokens;
      return outcome;
    };
  };
}

double CpuSeconds() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_utime.tv_sec + usage.ru_utime.tv_usec * 1e-6 +
         usage.ru_stime.tv_sec + usage.ru_stime.tv_usec * 1e-6;
}

/// Mean microseconds per call of `fn` over `reps` calls.
template <typename Fn>
double MicrosPerCall(int reps, Fn fn) {
  const auto start = Clock::now();
  for (int i = 0; i < reps; ++i) fn(i);
  return SecondsSince(start) * 1e6 / reps;
}

int CmdTraced(const ArgParser& args) {
  if (!ApplyQuant(args)) return Fail("bad --quant");
  const int replicas = static_cast<int>(IntFlag(args, "replicas", 1));
  const int max_batch = static_cast<int>(IntFlag(args, "max-batch", 8));
  const std::string out_path = args.GetString("out");
  if (replicas < 1 || replicas > 4 || out_path.empty()) {
    return Fail("bad --replicas or --out");
  }
  Json setup = Json::Object{};
  {
    // Corpus synthesis and BPE training timed on their own through the
    // public generator / tokenizer classes (Pipeline::Create runs both).
    const PipelineOptions options = ServedOptions(args);
    auto start = Clock::now();
    auto corpus = RecipeDbGenerator(options.corpus).Generate();
    setup.Set("corpus_s", SecondsSince(start));
    std::vector<std::string> docs;
    for (const Recipe& r : corpus) docs.push_back(r.ToTaggedString());
    start = Clock::now();
    BpeTokenizer::Train(docs, options.bpe_vocab_budget);
    setup.Set("bpe_train_s", SecondsSince(start));
  }
  std::vector<std::unique_ptr<Replica>> fleet;
  double load_s = 0.0;
  for (int i = 0; i < replicas; ++i) {
    auto r = std::make_unique<Replica>();
    double s = 0.0;
    auto pipeline = LoadServedPipeline(args, &s);
    if (!pipeline.ok()) return Fail(pipeline.status().ToString());
    load_s += s;
    r->pipeline = std::move(*pipeline);
    r->lm = std::make_unique<TracedLm>(r->pipeline->model());
    BackendOptions options;
    options.models = {"gpt2-medium"};
    options.max_batch = max_batch;
    options.quantized_int8 = kernels::Config().use_int8;
    serve::BatchSchedulerOptions sched;
    sched.max_batch = max_batch;
    r->scheduler = std::make_unique<serve::BatchScheduler>(r->lm.get(), sched);
    InstallBatchMetrics(r->scheduler.get(), &options);
    r->backend = std::make_unique<BackendService>(TracedFactory(r.get()),
                                                  options);
    Status s2 = r->backend->Start(0);
    if (!s2.ok()) return Fail(s2.ToString());
    fleet.push_back(std::move(r));
  }
  setup.Set("checkpoint_load_s", load_s / replicas);
  std::vector<int> ports;
  for (auto& r : fleet) ports.push_back(r->backend->port());
  StaticFleet static_fleet(ports);
  Router router(&static_fleet, RouterOptions{});
  Status s = router.Start(0);
  if (!s.ok()) return Fail(s.ToString());
  FrontendService frontend(router.port());
  s = frontend.Start(0);
  if (!s.ok()) return Fail(s.ToString());
  obs::KernelProfiler::Instance().SetEnabled(true);

  Json ready = Json::Object{};
  ready.Set("frontend", frontend.port());
  ready.Set("router", router.port());
  Json backend_ports = Json::Array{};
  for (int port : ports) backend_ports.Append(port);
  ready.Set("backends", backend_ports);
  std::printf("%s\n", ready.Dump().c_str());
  std::fflush(stdout);

  // Kernel profiler counters are read per traced window only.
  std::string line;
  const double cpu_start = CpuSeconds();
  while (std::getline(std::cin, line)) {
    if (line == "trace 1") {
      obs::KernelProfiler::Instance().SetEnabled(true);
      g_trace.store(true);
    } else if (line == "trace 0") {
      g_trace.store(false);
      obs::KernelProfiler::Instance().SetEnabled(false);
    } else if (line == "profile reset") {
      obs::KernelProfiler::Instance().Reset();
    }
  }
  const double cpu_s = CpuSeconds() - cpu_start;
  g_trace.store(false);
  Json router_metrics = router.MetricsJson();
  Json out = Json::Object{};
  out.Set("frontend_streams_relayed",
          static_cast<double>(frontend.streams_relayed()));
  out.Set("frontend_streams_aborted",
          static_cast<double>(frontend.streams_aborted()));
  frontend.Stop();
  router.Stop();
  out.Set("router_retries", static_cast<double>(router.route_retries()));
  out.Set("router_ok", static_cast<double>(router.route_ok()));
  out.Set("cpu_s", cpu_s);
  out.Set("setup", setup);
  out.Set("kernel_profile", obs::KernelProfiler::Instance().ToJson());

  Json reps = Json::Array{};
  for (auto& r : fleet) {
    r->backend->Stop();
    r->scheduler->Stop();
    const DecoderStats& st = r->lm->stats;
    const serve::BatchSchedulerStats sched = r->scheduler->stats();
    Json j = Json::Object{};
    Json steps = Json::Array{}, step_ns = Json::Array{};
    for (int m = 0; m <= kMaxDecodeBatch; ++m) {
      steps.Append(static_cast<double>(st.steps_by_m[m]));
      step_ns.Append(static_cast<double>(st.step_ns_by_m[m]));
    }
    j.Set("steps_by_m", steps);
    j.Set("step_ns_by_m", step_ns);
    j.Set("prefill_tokens", static_cast<double>(st.prefill_tokens));
    j.Set("prefill_ns", static_cast<double>(st.prefill_ns));
    j.Set("lookups", static_cast<double>(st.lookups));
    j.Set("lookup_prompt_tokens", static_cast<double>(st.lookup_prompt_tokens));
    j.Set("restored_tokens", static_cast<double>(st.restored_tokens));
    j.Set("restore_ns", static_cast<double>(st.restore_ns));
    j.Set("publishes", static_cast<double>(st.publishes));
    j.Set("publish_ns", static_cast<double>(st.publish_ns));
    j.Set("inline_ns", static_cast<double>(st.inline_ns));
    j.Set("busy_ns", static_cast<double>(st.busy_ns.load()));
    j.Set("loop_gap_ns", static_cast<double>(st.loop_gap_ns));
    j.Set("loop_gaps", static_cast<double>(st.loop_gaps));
    const PrefixCacheStats pc = r->lm->decoder != nullptr
                                    ? r->lm->decoder->prefix_cache_stats()
                                    : PrefixCacheStats{};
    j.Set("prefix_hits", static_cast<double>(pc.hits));
    j.Set("prefix_misses", static_cast<double>(pc.misses));
    j.Set("prefix_evictions", static_cast<double>(pc.evictions));
    j.Set("sched_steps", static_cast<double>(sched.steps));
    j.Set("sched_row_steps", static_cast<double>(sched.row_steps));
    j.Set("preemptions", static_cast<double>(sched.preemptions));
    j.Set("shed_unmeetable", static_cast<double>(sched.shed_unmeetable));
    j.Set("arena_heap_allocs", static_cast<double>(sched.arena_heap_allocs));
    reps.Append(j);
  }
  out.Set("replicas", reps);
  out.Set("router_metrics_retries", router_metrics.Get("route_retries"));

  // Micro rows through public calls at the served shapes.
  Pipeline& p0 = *fleet[0]->pipeline;
  Json micro = Json::Object{};
  {
    const Tokenizer& tok = p0.tokenizer();
    std::vector<std::string> texts;
    long long tokens = 0;
    for (const Recipe& r : p0.splits().test) texts.push_back(r.ToTaggedString());
    std::vector<std::vector<int>> encoded(texts.size());
    const double enc_us = MicrosPerCall(static_cast<int>(texts.size()),
                                        [&](int i) {
                                          encoded[i] = tok.Encode(texts[i]);
                                        });
    for (const auto& e : encoded) tokens += static_cast<long long>(e.size());
    const double dec_us = MicrosPerCall(static_cast<int>(texts.size()),
                                        [&](int i) { tok.Decode(encoded[i]); });
    const double per = static_cast<double>(tokens) / texts.size();
    micro.Set("bpe_encode_us_per_token", enc_us / per);
    micro.Set("bpe_decode_us_per_token", dec_us / per);
    // Sampler at the served vocab size on a real logits row.
    auto* gpt = dynamic_cast<Gpt2Lm*>(p0.model());
    const Tensor logits = gpt->ForwardLogitsRaw(encoded[0]);
    const int vocab = gpt->vocab_size();
    const float* row = logits.data() +
                       (encoded[0].size() - 1) * static_cast<size_t>(vocab);
    SamplingOptions sampling;
    sampling.temperature = 0.8f;
    sampling.top_k = 10;
    Rng rng(1);
    micro.Set("sampler_us_per_token", MicrosPerCall(2000, [&](int) {
                SampleFromLogits(row, vocab, sampling, &rng);
              }));
    Json rows = Json::Array{};
    bool kernels_ok = true;
    for (const KernelRow& k :
         KernelRows(gpt->config().dim, vocab, std::min(max_batch, 8))) {
      Json row_json = Json::Object{};
      row_json.Set("name", k.name);
      row_json.Set("m", k.m);
      row_json.Set("k", k.k);
      row_json.Set("n", k.n);
      row_json.Set("int8", k.int8);
      row_json.Set("ns_per_call", k.ns_per_call);
      row_json.Set("flops", k.flops);
      row_json.Set("bytes", k.bytes);
      row_json.Set("max_rel_err", k.max_err);
      // int8 is compared with the int8 reference loop (same quantized
      // weights), so both flavours must agree to fp32 rounding.
      if (!(k.max_err <= 1e-4)) kernels_ok = false;
      rows.Append(row_json);
    }
    micro.Set("kernel_rows", rows);
    micro.Set("kernels_ok", kernels_ok);
    // Weight bytes one decode step reads, computed from tensor sizes.
    const auto& c = gpt->config();
    const double gemm_weights =
        static_cast<double>(c.num_layers) *
            (3.0 * c.dim * c.dim + c.dim * c.dim + 8.0 * c.dim * c.dim) +
        static_cast<double>(vocab) * c.dim;
    micro.Set("step_weight_params", gemm_weights);
    micro.Set("dim", c.dim);
    micro.Set("vocab", vocab);
  }
  out.Set("micro", micro);

  Json recs = Json::Array{};
  {
    std::lock_guard<std::mutex> lock(g_recs_mutex);
    for (const auto& r : g_recs) {
      if (r->gen_exit == 0) continue;
      Json j = Json::Object{};
      j.Set("key", r->key);
      j.Set("gen_enter", static_cast<double>(r->gen_enter));
      j.Set("gen_exit", static_cast<double>(r->gen_exit));
      j.Set("decode_enter", static_cast<double>(r->decode_enter));
      j.Set("decode_exit", static_cast<double>(r->decode_exit));
      j.Set("admit", static_cast<double>(r->admit));
      j.Set("other_ns", static_cast<double>(
                            r->admit == 0 ? 0
                                          : (r->busy_at_last_step -
                                             r->busy_at_admit) -
                                                (r->step_ns + r->prefill_ns +
                                                 r->publish_ns +
                                                 r->restore_ns)));
      j.Set("restore_ns", static_cast<double>(r->restore_ns));
      j.Set("prefill_ns", static_cast<double>(r->prefill_ns));
      j.Set("publish_ns", static_cast<double>(r->publish_ns));
      j.Set("step_ns", static_cast<double>(r->step_ns));
      j.Set("on_token_ns", static_cast<double>(r->on_token_ns));
      recs.Append(j);
    }
  }
  out.Set("records", recs);
  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) return Fail("cannot write --out");
  const std::string dumped = out.Dump();
  std::fwrite(dumped.data(), 1, dumped.size(), f);
  std::fclose(f);
  return 0;
}

int Main(int argc, char** argv) {
  ArgParser args(argc, argv);
  if (args.positional().empty()) return Fail("missing subcommand");
  const std::string& cmd = args.positional()[0];
  if (cmd == "dataset") return CmdDataset(args);
  if (cmd == "check") return CmdCheck(args);
  if (cmd == "traced") return CmdTraced(args);
  return Fail("unknown subcommand " + cmd);
}

}  // namespace
}  // namespace rt

int main(int argc, char** argv) { return rt::Main(argc, argv); }
