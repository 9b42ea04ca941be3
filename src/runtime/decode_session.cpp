#include "runtime/decode_session.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "obs/trace.h"

namespace qdnn::runtime {

DecodeSession::DecodeSession(models::Transformer& model,
                             DecodeSessionConfig config)
    : model_(&model), config_(config), encoder_(model) {
  const models::TransformerConfig& mc = model_->config();
  // Validate the full ring geometry here, with messages naming the
  // config field — not via QDNN_DCHECKs deep inside the attention
  // kernels once a bad bound finally overruns a cache.
  QDNN_CHECK(config_.max_batch > 0,
             "DecodeSession: max_batch must be positive, got "
                 << config_.max_batch);
  // bos fills ring row 0 and step s embeds position s, so the deepest
  // step uses position max_steps − 1: max_steps == max_len is the exact
  // upper bound (the implicit-bos slot does not cost an extra position).
  QDNN_CHECK(config_.max_steps >= 1 && config_.max_steps <= mc.max_len,
             "DecodeSession: max_steps " << config_.max_steps
                                         << " outside [1, " << mc.max_len
                                         << "] (max_len)");
  QDNN_CHECK(config_.max_src >= 0,
             "DecodeSession: max_src must be non-negative (0 = the "
             "model's max_len), got "
                 << config_.max_src);
  d_model_ = mc.d_model;
  proj_dim_ = mc.proj_dim;
  vocab_ = mc.tgt_vocab;
  max_src_ = config_.max_src > 0 ? config_.max_src : mc.max_len;
  QDNN_CHECK(max_src_ <= mc.max_len,
             "DecodeSession: max_src " << max_src_ << " exceeds max_len "
                                       << mc.max_len);

  // Exclusivity first, before ANY model mutation: a rejected second
  // session must not flip the model to eval mode or freeze it.
  const index_t layers = model_->num_decoder_layers();
  QDNN_CHECK(layers > 0, "DecodeSession: model has no decoder layers");
  for (index_t l = 0; l < layers; ++l)
    QDNN_CHECK(!model_->decoder_layer(l).self_step().bound() &&
                   !model_->decoder_layer(l).cross_step().bound(),
               "DecodeSession: decoder already bound by another "
               "DecodeSession — destroy it before binding a new one");
  model_->set_training(false);

  // Flatten the decode-step pipeline — every decoder layer's stages,
  // then the output projection as the final stage — and the prefill
  // pipeline, the encoder over [1, Ts] source ids.
  std::vector<nn::PipelineStage> stages;
  for (index_t l = 0; l < layers; ++l)
    model_->decoder_layer(l).flatten_into(stages);
  model_->output_projection().flatten_into(stages);
  step_plan_ = StagePlan(std::move(stages),
                         Shape{config_.max_batch, d_model_},
                         "DecodeSession");
  QDNN_CHECK(step_plan_.max_output() == Shape({config_.max_batch, vocab_}),
             "DecodeSession: final stage output "
                 << step_plan_.max_output() << " is not [max_batch, "
                 << vocab_ << "] (tgt_vocab)");
  std::vector<nn::PipelineStage> encoder_stages;
  encoder_.flatten_into(encoder_stages);
  prefill_plan_ = StagePlan(std::move(encoder_stages), Shape{1, max_src_},
                            "DecodeSession prefill");

  // Bind step: prepack the whole model's weights — the encoder serves
  // every prefill, the decoder every step — and drop training caches
  // before warm-up, so the watermark never includes packing scratch.
  if (config_.freeze) model_->freeze();

  // Paged KV memory: one pool of uniform pages backs both attention
  // kinds; per-row page tables start all-sentinel (parked/warming rows
  // read defined zero memory).  pool_pages = 0 defaults to the dense
  // worst case — every row fully deep — so oversubscription never
  // happens unless explicitly configured.
  QDNN_CHECK(config_.page_tokens >= 1 &&
                 (config_.page_tokens & (config_.page_tokens - 1)) == 0,
             "DecodeSession: page_tokens must be a power of two, got "
                 << config_.page_tokens);
  page_tokens_ = config_.page_tokens;
  page_shift_ = 0;
  while ((index_t{1} << page_shift_) < page_tokens_) ++page_shift_;
  self_ppr_ = (config_.max_steps + page_tokens_ - 1) >> page_shift_;
  cross_ppr_ = (max_src_ + page_tokens_ - 1) >> page_shift_;
  const index_t page_floats = layers * 2 * page_tokens_ * proj_dim_;
  const index_t pool_pages =
      config_.pool_pages > 0
          ? config_.pool_pages
          : config_.max_batch * (self_ppr_ + cross_ppr_);
  QDNN_CHECK(pool_pages >= self_ppr_ + cross_ppr_,
             "DecodeSession: pool_pages "
                 << pool_pages << " cannot cover one worst-case row ("
                 << self_ppr_ + cross_ppr_
                 << " pages) — a drained session could never admit");
  pool_.init(pool_pages, page_floats);
  prefix_cache_.init(config_.prefix_cache_entries, max_src_, cross_ppr_);
  self_table_.assign(
      static_cast<std::size_t>(config_.max_batch * self_ppr_),
      KvPagePool::kSentinelPage);
  cross_table_.assign(
      static_cast<std::size_t>(config_.max_batch * cross_ppr_),
      KvPagePool::kSentinelPage);

  embed_buf_ = Tensor{Shape{config_.max_batch * d_model_}};
  step_lane_ = StageLane(step_plan_);
  next_tokens_.reserve(static_cast<std::size_t>(config_.max_batch));
  feed_tokens_.reserve(static_cast<std::size_t>(config_.max_batch));
  done_.reserve(static_cast<std::size_t>(config_.max_batch));
  // Per-row state at full width from the start: the step adapters hold
  // pointers into these across rebinds, and prime_row/reset_row must
  // never grow them.
  row_steps_.assign(static_cast<std::size_t>(config_.max_batch), 0);
  src_lengths_.assign(static_cast<std::size_t>(config_.max_batch), 0);
  // Every row starts parked (pinned at ring position 0) until its first
  // prime: an unprimed row is never advanced, and never stepped unless a
  // live row sits above it.
  parked_.assign(static_cast<std::size_t>(config_.max_batch), 1);

  // From the first bind on, an exception must not leave the model's
  // adapters pointing into this half-constructed (about-to-unwind)
  // session: unbind before rethrowing (the destructor will not run).
  try {
    bind_adapters();
    bound_n_ = config_.max_batch;

    if (config_.warmup) {
      // Run one step at the deepest ring position (the widest score
      // buffers) against the all-sentinel tables — warming_ suppresses
      // page acquisition, and the sentinel page is defined zero memory —
      // and consolidate the workspace to the exact watermark.
      warming_ = true;
      primed_ = true;
      row_steps_.assign(static_cast<std::size_t>(config_.max_batch),
                        config_.max_steps - 1);
      src_lengths_.assign(static_cast<std::size_t>(config_.max_batch),
                          max_src_);
      feed_tokens_.assign(static_cast<std::size_t>(config_.max_batch), 0);
      run_step(feed_tokens_);
      warming_ = false;
      primed_ = false;
      row_steps_.assign(static_cast<std::size_t>(config_.max_batch), 0);
      src_lengths_.assign(static_cast<std::size_t>(config_.max_batch), 0);
      step_lane_.workspace().reset();
      step_lane_.workspace().consolidate();
    }
  } catch (...) {
    warming_ = false;
    unbind_all();
    throw;
  }
}

DecodeSession::~DecodeSession() { unbind_all(); }

void DecodeSession::unbind_all() {
  for (index_t l = 0; l < model_->num_decoder_layers(); ++l) {
    model_->decoder_layer(l).self_step().unbind();
    model_->decoder_layer(l).cross_step().unbind();
  }
}

bool DecodeSession::fully_native() const {
  return runtime::fully_native(step_plan_.stages());
}

index_t DecodeSession::kv_cache_floats() const {
  // The whole KV footprint is the pool (usable pages plus the sentinel).
  return (pool_.pages() + 1) * pool_.page_floats();
}

index_t DecodeSession::row_steps(index_t row) const {
  QDNN_CHECK(row >= 0 && row < config_.max_batch,
             "DecodeSession: row " << row << " outside [0, "
                                   << config_.max_batch << ")");
  return row_steps_[static_cast<std::size_t>(row)];
}

bool DecodeSession::row_parked(index_t row) const {
  QDNN_CHECK(row >= 0 && row < config_.max_batch,
             "DecodeSession: row " << row << " outside [0, "
                                   << config_.max_batch << ")");
  return parked_[static_cast<std::size_t>(row)] != 0;
}

void DecodeSession::bind_adapters() {
  // Point every attention step adapter at the paged KV views and the
  // per-row counters.  The views carry the FULL max_batch-width tables
  // (a row's table slice never moves), so this runs once, at bind.
  const index_t pf = pool_.page_floats();
  const index_t slice = page_tokens_ * proj_dim_;
  for (index_t l = 0; l < model_->num_decoder_layers(); ++l) {
    models::DecoderLayer& layer = model_->decoder_layer(l);
    const index_t k_off = (2 * l) * slice;
    const index_t v_off = (2 * l + 1) * slice;
    layer.self_step().bind(
        models::PagedKvView{pool_.data(), self_table_.data(), pf,
                            self_ppr_, page_tokens_, k_off},
        models::PagedKvView{pool_.data(), self_table_.data(), pf,
                            self_ppr_, page_tokens_, v_off},
        config_.max_steps, &row_steps_);
    layer.cross_step().bind(
        models::PagedKvView{pool_.data(), cross_table_.data(), pf,
                            cross_ppr_, page_tokens_, k_off},
        models::PagedKvView{pool_.data(), cross_table_.data(), pf,
                            cross_ppr_, page_tokens_, v_off},
        max_src_, &src_lengths_);
  }
}

index_t DecodeSession::acquire_page_() {
  index_t page = pool_.acquire();
  // Cached prefixes whose only holder is the cache are reclaimable:
  // drop LRU entries that free a page until one is free, keeping every
  // entry whose pages a live row still maps (dropping it frees nothing).
  while (page < 0 && prefix_cache_.reclaim_one(pool_)) page = pool_.acquire();
  return page;
}

void DecodeSession::release_row_pages_(index_t row) {
  index_t* srow = self_table_.data() + row * self_ppr_;
  for (index_t p = 0; p < self_ppr_; ++p) {
    if (srow[p] != KvPagePool::kSentinelPage) {
      pool_.release(srow[p]);
      srow[p] = KvPagePool::kSentinelPage;
    }
  }
  index_t* crow = cross_table_.data() + row * cross_ppr_;
  for (index_t p = 0; p < cross_ppr_; ++p) {
    if (crow[p] != KvPagePool::kSentinelPage) {
      pool_.release(crow[p]);
      crow[p] = KvPagePool::kSentinelPage;
    }
  }
}

void DecodeSession::check_invariants(
    const std::vector<index_t>& staged) const {
  const index_t pages = pool_.pages();
  std::vector<index_t> holders(static_cast<std::size_t>(pages + 1), 0);
  const auto hold = [&](index_t page) {
    QDNN_CHECK(page >= 1 && page <= pages,
               "DecodeSession: held page " << page << " outside [1, "
                                           << pages << "]");
    ++holders[static_cast<std::size_t>(page)];
  };
  const auto hold_row = [&](const std::vector<index_t>& table,
                            index_t per_row, index_t row) {
    for (index_t p = 0; p < per_row; ++p) {
      const index_t page =
          table[static_cast<std::size_t>(row * per_row + p)];
      if (page == KvPagePool::kSentinelPage) continue;
      QDNN_CHECK(!parked_[static_cast<std::size_t>(row)],
                 "DecodeSession: parked row " << row << " maps page "
                                              << page);
      hold(page);
    }
  };
  for (index_t r = 0; r < config_.max_batch; ++r) {
    hold_row(self_table_, self_ppr_, r);
    hold_row(cross_table_, cross_ppr_, r);
  }
  std::vector<index_t> cached;
  prefix_cache_.pinned_pages(cached);
  for (index_t page : cached) hold(page);
  for (index_t page : staged) hold(page);
  index_t free = 0;
  for (index_t p = 1; p <= pages; ++p) {
    const index_t rc = pool_.refcount(p);
    QDNN_CHECK(rc == holders[static_cast<std::size_t>(p)],
               "DecodeSession: page " << p << " has refcount " << rc
                                      << " but "
                                      << holders[static_cast<std::size_t>(p)]
                                      << " holders");
    if (rc == 0) ++free;
  }
  QDNN_CHECK(free == pool_.free_pages(),
             "DecodeSession: " << pool_.free_pages()
                               << " free pages reported, " << free
                               << " at refcount 0");
}

bool DecodeSession::ensure_row_step_capacity(index_t row) {
  QDNN_CHECK(row >= 0 && row < config_.max_batch,
             "DecodeSession: row " << row << " outside [0, "
                                   << config_.max_batch << ")");
  const index_t block =
      row_steps_[static_cast<std::size_t>(row)] >> page_shift_;
  QDNN_DCHECK(block < self_ppr_,
              "DecodeSession: step block " << block
                                           << " beyond the page table");
  index_t& slot =
      self_table_[static_cast<std::size_t>(row * self_ppr_ + block)];
  if (slot != KvPagePool::kSentinelPage) return true;
  const index_t page = acquire_page_();
  if (page < 0) return false;
  slot = page;
  return true;
}

void DecodeSession::prime(const Tensor& src_ids,
                          const std::vector<index_t>& src_lengths) {
  QDNN_CHECK(src_ids.rank() == 2, "DecodeSession: src_ids must be [N, T]");
  const index_t n = src_ids.dim(0), ts = src_ids.dim(1);
  QDNN_CHECK(n >= 1 && n <= config_.max_batch,
             "DecodeSession: batch size " << n << " outside [1, "
                                          << config_.max_batch << "]");
  QDNN_CHECK(ts >= 1 && ts <= max_src_,
             "DecodeSession: source length " << ts << " outside [1, "
                                             << max_src_ << "]");
  QDNN_CHECK(src_lengths.empty() ||
                 static_cast<index_t>(src_lengths.size()) == n,
             "DecodeSession: src_lengths holds "
                 << src_lengths.size() << " entries for batch " << n);
  for (std::size_t i = 0; i < src_lengths.size(); ++i)
    QDNN_CHECK(src_lengths[i] >= 0 && src_lengths[i] <= ts,
               "DecodeSession: src_lengths[" << i << "] = "
                                             << src_lengths[i]
                                             << " outside [0, " << ts
                                             << "] (0 = all valid)");

  // Row by row through the prefill lane — the same body as
  // prime_row/prime_compute, so all three admission paths stay
  // bit-identical (and bit-identical to the training-path encoder on the
  // valid rows, hence to greedy_decode_reference).
  init_staging(solo_staging_);
  bound_n_ = n;
  for (index_t r = 0; r < n; ++r) {
    const auto ri = static_cast<std::size_t>(r);
    const index_t len =
        src_lengths.empty() || src_lengths[ri] == 0 ? ts : src_lengths[ri];
    prime_compute_impl(src_ids.data() + r * ts, len, solo_staging_);
    commit_row_impl(r, solo_staging_);
  }
  primed_ = true;
}

void DecodeSession::prime_row(index_t row, const Tensor& src_ids,
                              index_t src_length) {
  QDNN_CHECK(row >= 0 && row < config_.max_batch,
             "DecodeSession: row " << row << " outside [0, "
                                   << config_.max_batch << ")");
  // prime_row IS prime_compute + commit_row over a private staging slot:
  // the synchronous and pool-fed admission paths share one code path, so
  // they cannot drift (bit-identical by construction).
  init_staging(solo_staging_);
  prime_compute(src_ids, src_length, solo_staging_);
  commit_row(row, solo_staging_);
}

void DecodeSession::init_staging(PrefillStaging& staging) const {
  const index_t floats =
      model_->num_decoder_layers() * max_src_ * proj_dim_;
  const bool fresh =
      staging.k.numel() != floats || !staging.lane.runs(prefill_plan_);
  if (fresh) {
    staging.k = Tensor{Shape{floats}};
    staging.v = Tensor{Shape{floats}};
    staging.lane = StageLane(prefill_plan_);
    staging.tokens.reserve(static_cast<std::size_t>(max_src_));
    staging.page_ids.reserve(static_cast<std::size_t>(cross_ppr_));
  }
  if (fresh && config_.warmup) {
    // One dummy prefill at the deepest geometry discovers the lane's
    // workspace watermark (per-stage encoder scratch, projection
    // scratch), so every later prime_compute through the slot is
    // zero-alloc.  Rewind the slot afterwards: committing it before a
    // real prefill must still be the "empty staging" error.
    Tensor ids{Shape{max_src_}};  // zero-filled: token id 0
    prime_compute(ids, /*src_length=*/0, staging);
    staging.ts = 0;
    staging.tokens.clear();
    staging.lane.workspace().reset();
    staging.lane.workspace().consolidate();
  }
}

void DecodeSession::prime_compute(const Tensor& src_ids,
                                  index_t src_length,
                                  PrefillStaging& staging) const {
  QDNN_CHECK(src_ids.rank() == 1 ||
                 (src_ids.rank() == 2 && src_ids.dim(0) == 1),
             "DecodeSession: prime src_ids must be [Ts] or [1, Ts], got "
                 << src_ids.shape());
  const index_t ts = src_ids.dim(src_ids.rank() - 1);
  QDNN_CHECK(ts >= 1 && ts <= max_src_,
             "DecodeSession: source length " << ts << " outside [1, "
                                             << max_src_ << "]");
  QDNN_CHECK(src_length >= 0 && src_length <= ts,
             "DecodeSession: src_length " << src_length << " outside [0, "
                                          << ts << "] (0 = all valid)");
  const index_t layers = model_->num_decoder_layers();
  QDNN_CHECK(staging.k.numel() == layers * max_src_ * proj_dim_ &&
                 staging.v.numel() == staging.k.numel() &&
                 staging.lane.runs(prefill_plan_),
             "DecodeSession: staging not sized for this session — call "
             "init_staging first");
  prime_compute_impl(src_ids.data(), src_length > 0 ? src_length : ts,
                     staging);
}

void DecodeSession::prime_compute_impl(const float* ids, index_t len,
                                       PrefillStaging& staging) const {
  QDNN_CHECK(staging.page_ids.empty(),
             "DecodeSession: prime_compute on a staging slot still "
             "holding prefix pages — commit or release them first");
  // Capture the valid prefix: the prefix-cache key commit_row publishes
  // the computed pages under.  Reserved at init_staging, so no alloc.
  staging.tokens.clear();
  for (index_t i = 0; i < len; ++i)
    staging.tokens.push_back(static_cast<index_t>(ids[i]));
  staging.from_cache = false;

  // The encoder plan over the valid prefix only, then the cross
  // projections from the lane's output boundary — stateless kernels over
  // frozen weights, all scratch from the slot's lane, so concurrent
  // calls (each with a private staging) never touch shared mutable state.
  StageLane& lane = staging.lane;
  lane.bind(Shape{1, len});
  lane.run(ids);
  const ConstTensorView enc(Shape{len, d_model_}, lane.output().data());
  Workspace& ws = lane.workspace();
  const index_t layers = model_->num_decoder_layers();
  for (index_t l = 0; l < layers; ++l) {
    const index_t offset = l * max_src_ * proj_dim_;
    ws.reset();
    model_->decoder_layer(l).cross_attention().project_kv(
        enc, 1, len,
        TensorView(Shape{1, len, proj_dim_}, staging.k.data() + offset),
        TensorView(Shape{1, len, proj_dim_}, staging.v.data() + offset),
        ws);
  }
  staging.ts = len;
}

void DecodeSession::commit_row(index_t row, PrefillStaging& staging) {
  QDNN_CHECK(row >= 0 && row < config_.max_batch,
             "DecodeSession: row " << row << " outside [0, "
                                   << config_.max_batch << ")");
  const index_t layers = model_->num_decoder_layers();
  QDNN_CHECK(staging.ts >= 1 && staging.ts <= max_src_,
             "DecodeSession: commit_row on empty staging — run "
             "prime_compute first");
  QDNN_CHECK(staging.k.numel() == layers * max_src_ * proj_dim_ &&
                 staging.v.numel() == staging.k.numel(),
             "DecodeSession: staging sized for a different session");

  // Continuous mode binds the full max_batch width so every row slot is
  // addressable; run_step steps only up to the highest live row.
  bound_n_ = config_.max_batch;
  commit_row_impl(row, staging);
}

void DecodeSession::commit_row_impl(index_t row, PrefillStaging& staging) {
  release_row_pages_(row);
  const index_t n_pages = cross_pages_for(staging.ts);
  index_t* crow = cross_table_.data() + row * cross_ppr_;

  if (staging.from_cache) {
    // A prefix hit: the slot holds one reference per shared page —
    // ownership transfers to the row's table.  O(pages) bookkeeping; the
    // pages already hold the cold prime's bits, so the row is
    // bit-identical to one that ran the whole prefill.
    QDNN_CHECK(static_cast<index_t>(staging.page_ids.size()) == n_pages,
               "DecodeSession: staged prefix holds "
                   << staging.page_ids.size() << " pages for a "
                   << staging.ts << "-position source (" << n_pages
                   << " expected)");
    for (index_t p = 0; p < n_pages; ++p)
      crow[p] = staging.page_ids[static_cast<std::size_t>(p)];
    staging.page_ids.clear();
    staging.from_cache = false;
  } else {
    // Cold commit: acquire the cross pages (reclaiming cached prefixes
    // under pressure), copy the staged K/V in page-by-page, and publish
    // the pages to the prefix cache under the source-token hash.
    index_t got = 0;
    for (; got < n_pages; ++got) {
      const index_t page = acquire_page_();
      if (page < 0) break;
      crow[got] = page;
    }
    if (got < n_pages) {
      for (index_t p = 0; p < got; ++p) {
        pool_.release(crow[p]);
        crow[p] = KvPagePool::kSentinelPage;
      }
      QDNN_CHECK(false,
                 "DecodeSession: commit_row needs "
                     << n_pages << " pages but the pool has " << got
                     << " even after reclaim — gate admission on "
                        "free_pages() (oversubscribed scheduler)");
    }
    const index_t layers = model_->num_decoder_layers();
    const index_t slice = page_tokens_ * proj_dim_;
    for (index_t p = 0; p < n_pages; ++p) {
      const index_t t0 = p << page_shift_;
      const index_t rows = std::min(page_tokens_, staging.ts - t0);
      const std::size_t bytes =
          static_cast<std::size_t>(rows * proj_dim_) * sizeof(float);
      float* page = pool_.page_data(crow[p]);
      for (index_t l = 0; l < layers; ++l) {
        const index_t src = (l * max_src_ + t0) * proj_dim_;
        std::memcpy(page + (2 * l) * slice, staging.k.data() + src, bytes);
        std::memcpy(page + (2 * l + 1) * slice, staging.v.data() + src,
                    bytes);
      }
    }
    if (prefix_cache_.enabled() &&
        static_cast<index_t>(staging.tokens.size()) == staging.ts) {
      const std::uint64_t h = prefix_hash(staging.tokens.data(), staging.ts);
      prefix_cache_.publish(h, staging.tokens.data(), staging.ts, crow,
                            n_pages, pool_);
    }
  }

  src_lengths_[static_cast<std::size_t>(row)] = staging.ts;
  row_steps_[static_cast<std::size_t>(row)] = 0;
  parked_[static_cast<std::size_t>(row)] = 0;
  primed_ = true;
}

bool DecodeSession::prefix_lookup_into(const Tensor& src_ids,
                                       index_t src_length,
                                       PrefillStaging& staging) {
  QDNN_CHECK(src_ids.rank() == 1 ||
                 (src_ids.rank() == 2 && src_ids.dim(0) == 1),
             "DecodeSession: prime src_ids must be [Ts] or [1, Ts], got "
                 << src_ids.shape());
  if (!prefix_cache_.enabled()) return false;
  const index_t ts = src_ids.dim(src_ids.rank() - 1);
  QDNN_CHECK(ts >= 1 && ts <= max_src_,
             "DecodeSession: source length " << ts << " outside [1, "
                                             << max_src_ << "]");
  QDNN_CHECK(src_length >= 0 && src_length <= ts,
             "DecodeSession: src_length " << src_length << " outside [0, "
                                          << ts << "] (0 = all valid)");
  QDNN_CHECK(staging.page_ids.empty(),
             "DecodeSession: prefix_lookup_into on a staging slot still "
             "holding prefix pages — commit or release them first");
  const index_t len = src_length > 0 ? src_length : ts;

  staging.tokens.clear();
  for (index_t i = 0; i < len; ++i)
    staging.tokens.push_back(static_cast<index_t>(src_ids.data()[i]));
  const std::uint64_t h = prefix_hash(staging.tokens.data(), len);
  if (!prefix_cache_.lookup_acquire(h, staging.tokens.data(), len, pool_,
                                    staging.page_ids))
    return false;
  staging.ts = len;
  staging.from_cache = true;
  return true;
}

void DecodeSession::release_staged_prefix(PrefillStaging& staging) {
  for (index_t page : staging.page_ids) pool_.release(page);
  staging.page_ids.clear();
  staging.from_cache = false;
}

void DecodeSession::reset_row(index_t row) {
  QDNN_CHECK(row >= 0 && row < config_.max_batch,
             "DecodeSession: row " << row << " outside [0, "
                                   << config_.max_batch << ")");
  // Hand every page back (the prefix cache's own pins keep shared cross
  // pages alive) and pin the row at ring 0 over the sentinel page.  A
  // zero source length keeps a parked row that is still stepped (one
  // below the highest live row) from widening the cross-attention span.
  release_row_pages_(row);
  row_steps_[static_cast<std::size_t>(row)] = 0;
  src_lengths_[static_cast<std::size_t>(row)] = 0;
  parked_[static_cast<std::size_t>(row)] = 1;
}

index_t DecodeSession::stepped_rows() const {
  // The warm-up steps every row (all parked) to find the watermark.
  if (warming_) return bound_n_;
  index_t hi = bound_n_;
  while (hi > 0 && parked_[static_cast<std::size_t>(hi - 1)]) --hi;
  return hi;
}

void DecodeSession::run_step(const std::vector<index_t>& tokens) {
  // Step rows [0, hi) only, hi = 1 + the highest live row: rows above it
  // are parked, so they are neither computed nor advanced and return
  // their input token.  Every backend computes each output element by
  // the same chain whatever the row count, and attention is per row, so
  // the live rows' bits do not depend on hi.
  const index_t n = stepped_rows();
  next_tokens_.resize(static_cast<std::size_t>(bound_n_));
  for (index_t r = n; r < bound_n_; ++r)
    next_tokens_[static_cast<std::size_t>(r)] =
        tokens[static_cast<std::size_t>(r)];
  if (n == 0) {
    logits_view_ =
        ConstTensorView(Shape{0, vocab_}, step_lane_.output().data());
    return;
  }
  // Map a self-KV page for every live row entering a new page-aligned
  // block.  Solo/default pools can never trip this (pool_pages covers
  // every row fully deep); an oversubscribing scheduler must call
  // ensure_row_step_capacity itself (and preempt on false) before
  // stepping.  Skipped while warming: the warm-up runs over the
  // sentinel page.
  if (!warming_) {
    for (index_t r = 0; r < n; ++r) {
      if (parked_[static_cast<std::size_t>(r)]) continue;
      QDNN_CHECK(ensure_row_step_capacity(r),
                 "DecodeSession: page pool exhausted at row "
                     << r << " step "
                     << row_steps_[static_cast<std::size_t>(r)]
                     << " — preempt a row (scheduler) or raise "
                        "pool_pages");
    }
  }
  // Re-slices the lane only when the stepped width changed.
  step_lane_.bind(Shape{n, d_model_});
  // The pseudo-stages profile like the lane's stages: two clock reads
  // each while tracing, nothing at all (one relaxed load) when off.
  const bool profiling = obs::trace_enabled();
  long long t_prev = profiling ? obs::now_ns() : 0;
  const auto mark = [&](std::size_t slot) {
    const long long t_now = obs::now_ns();
    head_ns_[slot] += t_now - t_prev;
    ++head_calls_[slot];
    t_prev = t_now;
  };
  // Embed each row's new token at that row's ring position:
  // y = E[id]·sqrt(d) + PE[row_step], the exact operation order of the
  // training path.  Rows at different positions read different PE rows —
  // the continuous-batching case.
  const Tensor& table = model_->positional().table();
  const float* weights = model_->tgt_embedding().weight().value.data();
  const float scale = std::sqrt(static_cast<float>(d_model_));
  for (index_t r = 0; r < n; ++r) {
    const index_t id = tokens[static_cast<std::size_t>(r)];
    QDNN_CHECK(id >= 0 && id < vocab_,
               "DecodeSession: token id " << id << " out of vocab "
                                          << vocab_);
    const float* pe =
        table.data() + row_steps_[static_cast<std::size_t>(r)] * d_model_;
    const float* e = weights + id * d_model_;
    float* y = embed_buf_.data() + r * d_model_;
    for (index_t d = 0; d < d_model_; ++d) y[d] = e[d] * scale + pe[d];
  }
  if (profiling) mark(0);

  step_lane_.run(embed_buf_.data());
  logits_view_ = step_lane_.output();
  if (profiling) t_prev = obs::now_ns();

  // Greedy head: first-maximum argmax, matching greedy_decode_reference.
  const float* logits = logits_view_.data();
  for (index_t r = 0; r < n; ++r) {
    const float* row = logits + r * vocab_;
    index_t best = 0;
    for (index_t v = 1; v < vocab_; ++v)
      if (row[v] > row[best]) best = v;
    next_tokens_[static_cast<std::size_t>(r)] = best;
  }
  if (profiling) mark(1);
  // Parked rows below hi stay pinned at ring position 0: they were
  // stepped (output ignored) but never advance, so an idle row's ring
  // cannot exhaust no matter how many ticks pass.
  for (index_t r = 0; r < n; ++r)
    if (!parked_[static_cast<std::size_t>(r)])
      ++row_steps_[static_cast<std::size_t>(r)];
}

std::vector<obs::StageTiming> DecodeSession::stage_profile() const {
  const std::vector<nn::PipelineStage>& stages = step_plan_.stages();
  std::vector<obs::StageTiming> out;
  out.reserve(stages.size() + 2);
  const auto push = [&out](std::string name, long long calls,
                           long long ns) {
    obs::StageTiming t;
    t.name = std::move(name);
    t.calls = calls;
    t.total_ns = ns;
    out.push_back(std::move(t));
  };
  push("embed", head_calls_[0], head_ns_[0]);
  for (std::size_t i = 0; i < stages.size(); ++i)
    push(stages[i].is_add() ? "residual_add" : stages[i].module->name(),
         step_lane_.stage_calls()[i], step_lane_.stage_ns()[i]);
  push("argmax", head_calls_[1], head_ns_[1]);
  return out;
}

const std::vector<index_t>& DecodeSession::step(
    const std::vector<index_t>& tokens) {
  QDNN_CHECK(primed_, "DecodeSession: step() before prime()");
  for (index_t r = 0; r < bound_n_; ++r)
    QDNN_CHECK(row_steps_[static_cast<std::size_t>(r)] < config_.max_steps,
               "DecodeSession: row " << r << " ring exhausted after "
                                     << config_.max_steps
                                     << " steps — prime or reset the row");
  QDNN_CHECK(static_cast<index_t>(tokens.size()) == bound_n_,
             "DecodeSession: " << tokens.size() << " tokens for batch "
                               << bound_n_);
  run_step(tokens);
  return next_tokens_;
}

index_t DecodeSession::steps_taken() const {
  index_t deepest = 0;
  for (index_t r = 0; r < bound_n_; ++r)
    deepest =
        std::max(deepest, row_steps_[static_cast<std::size_t>(r)]);
  return deepest;
}

std::vector<std::vector<index_t>> DecodeSession::generate(index_t bos,
                                                          index_t eos) {
  QDNN_CHECK(primed_, "DecodeSession: generate() before prime()");
  QDNN_CHECK(steps_taken() == 0,
             "DecodeSession: generate() needs a fresh prime()");
  const index_t n = bound_n_;
  std::vector<std::vector<index_t>> outputs(static_cast<std::size_t>(n));
  feed_tokens_.assign(static_cast<std::size_t>(n), bos);
  done_.assign(static_cast<std::size_t>(n), 0);

  for (index_t s = 0; s < config_.max_steps; ++s) {
    step(feed_tokens_);
    bool any_active = false;
    for (index_t r = 0; r < n; ++r) {
      const auto ri = static_cast<std::size_t>(r);
      if (done_[ri]) {
        // Finished rows keep riding the batch (their cache rows are
        // computed but ignored), fed eos like the reference's pad slot.
        feed_tokens_[ri] = eos;
        continue;
      }
      const index_t best = next_tokens_[ri];
      feed_tokens_[ri] = best;
      if (best == eos) {
        done_[ri] = 1;
      } else {
        outputs[ri].push_back(best);
        any_active = true;
      }
    }
    if (!any_active) break;
  }
  return outputs;
}

}  // namespace qdnn::runtime
